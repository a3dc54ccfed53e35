"""The CLI's built-in instance check (`cli._violation`) against jsonschema.

The built-in check accepts a document only if jsonschema's Draft 2020-12
validator would, and the violation it reports for a rejected document is
one that jsonschema reports too; these tests hold it to both on the
shipped instance schema.  jsonschema is the oracle here only: the CLI
never imports it.
"""
import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fleckforge import cli

SCHEMA = cli._load_schema("instance.schema.json")
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)
GOLDEN = sorted((Path(__file__).resolve().parent / "golden").glob("*.json"))

# the golden corpus has only `count` kinds; these add the `f` of both shapes
SEEDS = [json.loads(p.read_text()) for p in GOLDEN] + [
    {"kind": "synthesize", "p": 3, "a": 1, "b": 2, "g": ["1", "0", 2],
     "f": {"basis": "binomial", "coeffs": ["1", 0]}},
    {"kind": "synthesize", "p": 2, "a": 1, "b": 1, "f": ["1"], "g": [1, 0]},
    {"kind": "chevalley", "p": 3, "n_vars": 2, "polynomials": ["x1"],
     "ceiling": 100, "exact_mode": True},
]

# a bool, integral and non-integral floats, strings a bigint pattern reads
# either way, the enum and const values, nested lists and dicts
VALUES = st.sampled_from([
    True, False, None, 0, 1, -7, 3.0, 2.5, "12", "-3", "12\n", "", "x1 + 1",
    "theorem12", "lemma22", "binomial", "monomial", [], ["1"], [1, "2"],
    [True], [[1]], ["1", "2", "3"], {}, {"basis": "binomial", "coeffs": []},
    {"basis": "monomial", "coeffs": ["1"], "extra": 1},
    {"f": "x1", "a": 1, "F": {"basis": "binomial", "coeffs": ["1"]}},
])
KEYS = st.sampled_from(["kind", "p", "a", "b", "c", "n", "r", "n_vars", "f",
                        "g", "F", "l", "js", "ls", "ceiling", "exact_mode",
                        "q_range", "basis", "coeffs", "unknown"])


def _fresh(draw, strategy):
    # drawn containers are mutated in turn, so never share them
    return copy.deepcopy(draw(strategy))


@st.composite
def mutated(draw):
    doc = _fresh(draw, st.sampled_from(SEEDS))
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        # walk down a random path, stopping at some container on the way
        while draw(st.booleans()):
            inner = [k for k, v in (node.items() if isinstance(node, dict)
                                    else enumerate(node))
                     if isinstance(v, (dict, list)) and v]
            if not inner:
                break
            node = node[draw(st.sampled_from(inner))]
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        op = draw(st.sampled_from(["drop", "replace", "add"]))
        if op == "drop" and keys:
            del node[draw(st.sampled_from(keys))]
        elif op == "replace" and keys:
            node[draw(st.sampled_from(keys))] = _fresh(draw, VALUES)
        elif isinstance(node, dict):
            node[draw(KEYS)] = _fresh(draw, VALUES)
        else:
            node.append(_fresh(draw, VALUES))
    return doc


@pytest.mark.parametrize("doc", SEEDS, ids=lambda d: d["kind"])
def test_seed_documents_conform(doc):
    assert VALIDATOR.is_valid(doc)
    assert cli._violation(SCHEMA, doc, SCHEMA) is None


@pytest.mark.parametrize("doc", [
    {"kind": "chevalley", "p": 3.0, "n_vars": 2, "polynomials": []},
    {"kind": "chevalley", "p": True, "n_vars": 2, "polynomials": []},
    {"kind": "chevalley", "p": 3.5, "n_vars": 2, "polynomials": []},
    {"kind": "chevalley", "p": "3\n", "n_vars": 2, "polynomials": []},
    {"kind": "chevalley", "p": "3 ", "n_vars": 2, "polynomials": []},
    {"kind": "chevalley", "p": 3, "n_vars": 2, "polynomials": [],
     "exact_mode": 1},
    {"kind": True},
    {"kind": "fleck", "p": 2, "a": 1, "n": 3},
    {"kind": "theorem12", "p": 2, "b": 1, "n_vars": 1,
     "constraints": [{"f": "x1", "a": 0, "F": {"basis": "binomial",
                                               "coeffs": ["1"]}, "x": 1}]},
    [],
    "theorem12",
], ids=repr)
def test_pitfalls_agree(doc):
    assert (cli._violation(SCHEMA, doc, SCHEMA) is None) == VALIDATOR.is_valid(doc)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
def test_mutated_documents_agree(doc):
    assert (cli._violation(SCHEMA, doc, SCHEMA) is None) == VALIDATOR.is_valid(doc)


def _oracle(errors):
    """(path, keyword) of jsonschema's errors, and of the errors in each
    one's context."""
    for error in errors:
        yield tuple(error.absolute_path), error.validator
        yield from _oracle(error.context)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
def test_reported_violation_is_one_jsonschema_reports(doc):
    violation = cli._violation(SCHEMA, doc, SCHEMA)
    if violation is not None:
        path, keyword, _ = violation
        assert (path, keyword) in set(_oracle(VALIDATOR.iter_errors(doc)))


def _subschemas(node):
    """A schema node and every subschema in it."""
    if not isinstance(node, dict):
        return
    yield node
    for key, value in node.items():
        if key in ("properties", "$defs"):
            children = value.values()
        elif key == "allOf":
            children = value
        elif key in ("if", "then", "else", "items", "additionalProperties"):
            children = [value]
        else:
            children = []
        for child in children:
            yield from _subschemas(child)


def _keywords(node):
    """Every keyword used by a schema node and its subschemas."""
    return {key for sub in _subschemas(node) for key in sub}


def _types(node):
    """Every type name used by a schema node and its subschemas."""
    names = set()
    for sub in _subschemas(node):
        if "type" in sub:
            names |= {sub["type"]} if isinstance(sub["type"], str) else set(sub["type"])
    return names


def test_every_schema_keyword_is_interpreted():
    # a keyword the built-in check does not know would send every document
    # to jsonschema, slowly and silently
    assert _keywords(SCHEMA) - set(cli._KEYWORDS) - cli._IGNORED == set()
    assert _types(SCHEMA) - set(cli._TYPES) == set()


def test_the_check_holds_nothing_its_schema_does_not_use():
    # the converse: every keyword and type the check interprets occurs in
    # the shipped instance schema
    assert set(cli._KEYWORDS) - _keywords(SCHEMA) == set()
    assert set(cli._TYPES) - _types(SCHEMA) == set()


def test_unknown_keyword_is_never_accepted():
    assert cli._violation({"type": "string", "format": "email"}, "a", {}) is not None
    # inside an if, whose verdict is negated, too
    assert cli._violation({"if": {"minLength": 5},
                           "then": {"type": "string"}}, "a", {}) is not None
    assert cli._violation({"$ref": "#/$defs/missing"}, 1, {"$defs": {}}) is not None


def test_enum_and_const_tell_true_from_one():
    # the shipped schema's enum and const values are all strings
    assert cli._violation({"enum": [1, "x"]}, True, {}) is not None
    assert cli._violation({"const": [0]}, [False], {}) is not None
    assert cli._violation({"const": {"a": [1]}}, {"a": [1.0]}, {}) is None


def test_accepted_request_never_imports_jsonschema(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    script = ("import sys\n"
              "from fleckforge import cli\n"
              f"code = cli.main(['count', {str(GOLDEN[0])!r}, '--workers', '1'])\n"
              "print(code, 'jsonschema' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "0 False"
    # a rejection is worded without jsonschema too, where it cannot load
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "theorem12", "p": 2}))
    script = ("import sys\n"
              "sys.modules['jsonschema'] = None\n"
              "from fleckforge import cli\n"
              f"sys.exit(cli.main(['count', {str(bad)!r}]))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == "error: instance: 'b' is a required property\n"

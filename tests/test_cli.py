import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from fleckforge import axkatz, cli, wilson
from fleckforge.exceptions import CeilingExceeded
from fleckforge.fleck import restricted_sum
from fleckforge.ivpoly import IntegerValuedPoly
from fleckforge.padic import PrimePower, ord_int, phi_prime_power
from oracles import weisman_bound


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def validate_report(doc):
    jsonschema.validate(doc, cli._load_schema("report.schema.json"))


def test_fleck_command(capsys):
    code, doc = run(capsys, ["fleck", "-p", "2", "-a", "1", "-n", "3", "-r", "0"])
    assert code == 0
    validate_report(doc)
    assert doc["results"]["sum"] == "4"
    assert doc["results"]["valuation"] == "2"
    assert doc["results"]["bounds"]["fleck"] == "2"

    code, doc = run(capsys, ["fleck", "-p", "3", "-a", "1", "-n", "5", "-r", "1"])
    assert code == 0
    assert doc["results"]["sum"] == "0"
    assert doc["results"]["valuation"] == "inf"

    code, doc = run(capsys, ["fleck", "-p", "2", "-a", "1", "-n", "6", "-r", "0",
                             "--f", "0,1"])
    assert code == 0
    assert doc["results"]["sum"] == "48"
    assert doc["results"]["bounds"]["wan"] == "3"


@pytest.mark.parametrize("f", ["", ","])
def test_fleck_empty_f_is_the_zero_polynomial(capsys, f):
    # f = 1 would give C(3,0) + C(3,2) = 4
    code, doc = run(capsys, ["fleck", "-p", "2", "-a", "1", "-n", "3", "-r", "0",
                             "--f", f])
    assert code == 0
    assert doc["instance"]["f"] == []
    assert doc["results"]["sum"] == "0"


def test_bounds_command(capsys):
    code, doc = run(capsys, ["bounds", "-p", "2", "-a", "1", "-n", "2",
                             "-l", "0", "-b", "1"])
    assert code == 0
    assert doc["results"]["M"] == "1"
    assert doc["results"]["max_degree"] == "1"


def test_synthesize_command(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "kind": "synthesize", "p": 2, "a": 1, "b": 1,
        "f": {"basis": "binomial", "coeffs": ["1"]},
        "g": ["1", "0"],
    }))
    code, doc = run(capsys, ["synthesize", str(inst)])
    assert code == 0
    validate_report(doc)
    assert doc["results"]["coeffs"] == ["1", "-1"]
    # P = 1 - x has degree D = 1, so q = 0, 1 at both residues prove it
    assert doc["results"]["verified"] is True
    assert doc["results"]["checked_points"] == "4"
    assert "q_range" not in doc["results"]


def test_synthesize_with_f_one_is_wilsons_lemma(tmp_path, capsys):
    # Wilson's Lemma: a table periodic mod p^a is interpolated below degree
    # b*phi(p^a) + p^(a-1), each c_n with ord_p(c_n) >= floor((n - p^(a-1))/phi(p^a))
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"kind": "synthesize", "p": 3, "a": 2, "b": 2,
                                "f": ["1"], "g": [4, -7, 0, 12, 5, -1, 9, 3, -8]}))
    code, doc = run(capsys, ["synthesize", str(inst)])
    assert code == 0
    pp = PrimePower(3, 2)
    results = doc["results"]
    assert int(results["degree"]) < 2 * phi_prime_power(pp) + 3
    assert results["verified"] is True
    for n, c in enumerate(results["coeffs"]):
        assert int(c) == 0 or ord_int(int(c), 3) >= weisman_bound(n, pp)


def test_synthesize_failed_bound_exit_code(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "kind": "synthesize", "p": 2, "a": 1, "b": 1,
        "f": {"basis": "binomial", "coeffs": ["1"]}, "g": ["1", "0"],
    }))
    monkeypatch.setattr(wilson, "ord_int", lambda v, p: -math.inf)
    code, doc = run(capsys, ["synthesize", str(inst)])
    assert code == 2
    validate_report(doc)
    assert doc["results"] == {} and "below its bound" in doc["error"]


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # a usage error, raised by the argument parser
        return exc.code


@pytest.mark.parametrize("argv,q_range", [
    ([], [5, -5]),
    (["--q-range=5:-5"], None),
])
def test_synthesize_empty_q_range_is_an_error(tmp_path, capsys, argv, q_range):
    # the check covers every q, so a range is refused, as a field or a flag
    doc = {"kind": "synthesize", "p": 2, "a": 1, "b": 1, "f": ["1"], "g": [1, 0]}
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({**doc, "q_range": q_range} if q_range else doc))
    assert _exit_code(["synthesize", str(inst), *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert "q_range" in captured.err if q_range else "--q-range" in captured.err


@pytest.mark.parametrize("value", ["5", "a:b", "1:2:3", ""])
def test_synthesize_malformed_q_range_names_the_option(tmp_path, capsys, value):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"kind": "synthesize", "p": 2, "a": 1, "b": 1,
                                "f": ["1"], "g": [1, 0]}))
    assert _exit_code(["synthesize", str(inst), f"--q-range={value}"]) == 1
    assert capsys.readouterr().err == (
        f"error: unrecognized arguments: --q-range={value}\n")


def test_synthesize_zero_table(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "kind": "synthesize", "p": 3, "a": 1, "b": 2,
        "f": {"basis": "binomial", "coeffs": ["1"]},
        "g": ["0", "0", "0"],
    }))
    code, doc = run(capsys, ["synthesize", str(inst)])
    assert code == 0
    assert all(c == "0" for c in doc["results"]["coeffs"])


def test_synthesize_monomial_basis(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "kind": "synthesize", "p": 3, "a": 0, "b": 1,
        "f": {"basis": "monomial", "coeffs": ["0", "1"]},
        "g": ["1"],
    }))
    code, doc = run(capsys, ["synthesize", str(inst)])
    assert code == 0
    assert doc["results"]["coeffs"] == ["0", "1"]


def test_count_theorem12(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "kind": "theorem12", "p": 2, "b": 2, "n_vars": 3,
        "constraints": [{"f": "x1+x2+x3", "a": 1,
                         "F": {"basis": "binomial", "coeffs": ["1"]}}],
    }))
    code, doc = run(capsys, ["count", str(inst), "--workers", "1", "--exact"])
    assert code == 0
    validate_report(doc)
    assert doc["verdict"]["sum"] == "4"
    assert doc["verdict"]["divisible"] is True


def test_count_chevalley(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "kind": "chevalley", "p": 3, "n_vars": 2, "polynomials": ["x1+x2"],
    }))
    code, doc = run(capsys, ["count", str(inst), "--workers", "1"])
    assert code == 0
    assert doc["verdict"]["sum"] == "3"


def test_count_lemma22(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "kind": "lemma22", "p": 3, "c": 2, "n_vars": 2,
        "polynomials": ["x1+x2"], "js": [1],
    }))
    code, doc = run(capsys, ["count", str(inst), "--workers", "1"])
    assert code == 0
    assert doc["verdict"]["sum"] == "18"
    assert doc["verdict"]["claimed_modulus"] == "9"


def test_count_ceiling_exit_code(tmp_path, capsys):
    # one connected component: 2^40 points plus the residues 0 and 1 mod 2,
    # plus the one-entry table of the constant F = 1
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "kind": "axkatz", "p": 2, "b": 1, "n_vars": 40,
        "polynomials": ["*".join(f"x{i}" for i in range(1, 41))],
    }))
    code, doc = run(capsys, ["count", str(inst), "--workers", "1",
                             "--ceiling", "1000"])
    assert code == 3
    assert doc["error"] == \
        f"enumeration ceiling exceeded: {2 ** 40 + 3} steps needed"


@pytest.mark.parametrize("argv,total,exit_code", [
    ([], None, 0),
    ([], 1, 2),  # a sum of 1 that the holding hypothesis forbids
    (["--ceiling", "1"], None, 3),
], ids=["exit-0", "exit-2", "exit-3"])
def test_every_count_report_echoes_workers(capsys, monkeypatch, argv, total, exit_code):
    chevalley = Path(__file__).resolve().parent / "golden" / "chevalley.json"
    if total is not None:
        monkeypatch.setattr(axkatz, "theorem12_sum", lambda system, **kw: total)
    code, doc = run(capsys, ["count", str(chevalley), *argv, "--workers", "2"])
    assert code == exit_code
    validate_report(doc)
    assert doc["workers"] == "2"


@pytest.mark.parametrize("argv,pairs", [
    # squaring x1 + ... + x12 already takes 12 * 12 term pairs
    (["--ceiling", "100"], 12 * 12),
    # the square, 4th, 8th powers and the 8th into the result are formed;
    # squaring the 8th (C(19, 11) terms) is refused
    ([], 12 ** 2 + 78 ** 2 + 1365 ** 2 + 75582 + 75582 ** 2),
], ids=["ceiling-100", "default-ceiling"])
def test_parsing_a_power_is_charged_to_the_ceiling(tmp_path, capsys, argv, pairs):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "kind": "chevalley", "p": 3, "n_vars": 12,
        "polynomials": ["(" + " + ".join(f"x{i}" for i in range(1, 13)) + ")^40"],
    }))
    code, doc = run(capsys, ["count", str(inst), *argv])
    assert code == 3
    validate_report(doc)
    assert doc["error"] == f"enumeration ceiling exceeded: {pairs} steps needed"


def test_parsing_a_large_constant_is_charged_its_words(tmp_path, capsys):
    # 3^100000000 is one term, but its squarings multiply ever longer words
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "kind": "chevalley", "p": 3, "n_vars": 1,
        "polynomials": ["x1 + 3^100000000"],
    }))
    code, doc = run(capsys, ["count", str(inst)])
    assert code == 3
    validate_report(doc)
    assert doc["error"] == "enumeration ceiling exceeded: 247536139 steps needed"


@pytest.mark.parametrize("b", [29, 30, 31])
def test_modular_count_is_refused_by_its_table_at_any_b(tmp_path, capsys, b):
    # the modular engine runs however large its moduli, and its F table has
    # 2^b entries; the DP steps and convolution pairs of the components x1
    # and x2 make up the other 10
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "kind": "theorem12", "p": 2, "b": b, "n_vars": 2,
        "constraints": [{"f": "x1 - 3*x2 - 1", "a": 0,
                         "F": {"basis": "binomial", "coeffs": ["3", "7"]}}],
    }))
    code, doc = run(capsys, ["count", str(inst)])
    assert code == 3
    validate_report(doc)
    assert doc["error"] == f"enumeration ceiling exceeded: {2 ** b + 10} steps needed"


def test_count_separable_instance_beyond_brute_force(tmp_path, capsys):
    # 40 singleton components: 80 points and 1640 convolution pairs,
    # where walking the cube would take 2^40 points
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "kind": "axkatz", "p": 2, "b": 1, "n_vars": 40,
        "polynomials": [" + ".join(f"x{i}" for i in range(1, 41))],
    }))
    code, doc = run(capsys, ["count", str(inst), "--workers", "2",
                             "--ceiling", "1720"])
    assert code == 0
    assert doc["verdict"]["sum"] == str(2 ** 39)


def test_count_empty_polynomial_list_uses_n_vars(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "kind": "chevalley", "p": 3, "n_vars": 3, "polynomials": [],
    }))
    code, doc = run(capsys, ["count", str(inst), "--workers", "1"])
    assert code == 0
    assert doc["verdict"]["sum"] == "27"


def test_invalid_instance_rejected(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"kind": "theorem12", "p": 2}))
    code = cli.main(["count", str(inst)])
    capsys.readouterr()
    assert code == 1


@pytest.mark.parametrize("doc,line", [
    pytest.param({"kind": "theorem12", "p": 2},
                 "instance: 'b' is a required property", id="required"),
    pytest.param({"kind": "chevalley", "p": 3, "n_vars": 2, "polynomials": [7]},
                 "instance['polynomials'][0]: 7 is not of type 'string'",
                 id="item-type"),
    pytest.param({"kind": "nonsense"},
                 "instance['kind']: 'nonsense' is not one of ['synthesize', "
                 "'theorem12', 'corollary11', 'chevalley', 'axkatz', "
                 "'lemma22']", id="enum"),
    pytest.param([], "instance: [] is not of type 'object'", id="root-type"),
    pytest.param({"kind": "synthesize", "p": 3, "a": 1, "b": 2, "g": [1],
                  "f": {"basis": "x", "coeffs": []}},
                 "instance['f']['basis']: 'x' is not one of ['binomial', "
                 "'monomial']", id="one-of-branch"),
    pytest.param({"kind": "synthesize", "p": 3, "a": 1, "b": 2, "g": [1], "f": "x"},
                 "instance['f']: 'x' is not of type 'object'", id="f-neither-shape"),
    pytest.param({"kind": "synthesize", "p": 3, "a": 1, "b": 2, "g": [1],
                  "f": ["1", True]},
                 "instance['f'][1]: True is not of type 'integer', 'string'",
                 id="f-list-item"),
    pytest.param({"kind": "chevalley", "p": "3\n", "n_vars": 2,
                  "polynomials": ["x1+x2"]},
                 "instance['p']: '3\\n' does not match '^-?[0-9]+(?!\\\\n)$'",
                 id="bigint-trailing-newline"),
])
def test_invalid_instance_message(tmp_path, capsys, doc, line):
    # one line: where the first violation is, and why
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    assert cli.main(["count", str(inst)]) == 1
    assert capsys.readouterr().err == f"error: {line}\n"


@pytest.mark.parametrize("polynomial", ["(" * 3000 + "x1" + ")" * 3000,
                                        "-" * 3000 + "x1"],
                         ids=["parentheses", "unary-minus"])
def test_deep_polynomial_is_one_parse_error(tmp_path, capsys, polynomial):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"kind": "chevalley", "p": 3, "n_vars": 1,
                                "polynomials": [polynomial]}))
    assert cli.main(["count", str(inst)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: expression nested too deeply (at position ")
    assert err.count("\n") == 1


def test_deep_json_is_one_error(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text("[" * 100000 + "]" * 100000)
    assert cli.main(["count", str(inst)]) == 1
    assert capsys.readouterr().err == f"error: {inst}: JSON nested too deeply\n"


@pytest.mark.parametrize("argv", [
    ["count", "{inst}"],
    ["synthesize", "{inst}"],
    ["fleck", "-p", "{p}", "-a", "1", "-n", "3", "-r", "0"],
    ["bounds", "-p", "{p}", "-a", "1", "-n", "3"],
], ids=lambda argv: argv[0])
def test_p_beyond_the_primality_bound_is_one_error(tmp_path, capsys, argv):
    p = 10 ** 30 + 57
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(
        {"kind": "chevalley", "p": str(p), "n_vars": 2, "polynomials": ["x1+x2"]}
        if argv[0] == "count" else
        {"kind": "synthesize", "p": str(p), "a": 0, "b": 1, "f": ["1"], "g": ["1"]}))
    assert cli.main([a.format(inst=inst, p=p) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: primality is decided only below "
                            f"3317044064679887385961981, got {p}\n")


@pytest.mark.parametrize("doc", [
    {"kind": "axkatz", "p": 3, "b": 10000, "n_vars": 2, "polynomials": ["x1 + x2"]},
    {"kind": "theorem12", "p": 3, "b": "1000000000", "n_vars": 2,
     "constraints": [{"f": "x1 + x2", "a": 1,
                      "F": {"basis": "binomial", "coeffs": ["1", "1"]}}]},
], ids=["b-10000", "b-10^9"])
def test_claimed_modulus_past_the_digit_limit_is_one_error(tmp_path, capsys, doc):
    # the report would print p^b, with more digits than str() converts;
    # 3^(10^9) is refused before it is formed
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    assert cli.main(["count", str(inst)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: p^b = 3^{doc['b']} has more than "
                            f"{sys.get_int_max_str_digits()} digits, "
                            "more than a report can print\n")


# each report's sum has more digits than str() converts by default (4300):
# 3^9099, 2^20000 + 2 and 2^14999
TOO_LONG = {
    "chevalley": (["count", "{doc}"],
                  {"kind": "chevalley", "p": 3, "n_vars": 9100, "polynomials": ["x1"]},
                  3 ** 9099),
    "theorem12-exact": (["count", "{doc}", "--exact"],
                        {"kind": "theorem12", "p": 2, "b": 1, "n_vars": 1,
                         "constraints": [{"f": "2^20000*x1 + 1", "a": 0,
                                          "F": {"basis": "binomial",
                                                "coeffs": ["0", "1"]}}]},
                        2 ** 20000 + 2),
    "fleck": (["fleck", "-p", "2", "-a", "1", "-n", "15000", "-r", "0"], None,
              2 ** 14999),
}


@pytest.fixture
def digit_limit():
    """Sets sys.set_int_max_str_digits for one test, then restores it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("integer string conversion has no digit limit before Python 3.11")
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("case", TOO_LONG)
def test_report_value_past_the_digit_limit_is_one_error(tmp_path, capsys,
                                                        digit_limit, case):
    argv, doc, total = TOO_LONG[case]
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    argv = [arg.format(doc=inst) for arg in argv]
    digit_limit(4300)
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: sum has more than 4300 digits, "
                            "more than a report can print\n")
    # 0 is no limit
    digit_limit(0)
    code, report = run(capsys, argv)
    assert code == 0
    assert (report.get("verdict") or report["results"])["sum"] == str(total)


def test_violation_too_long_to_print_stays_a_violation(capsys, monkeypatch,
                                                       digit_limit):
    from fleckforge.fleck import FleckReport

    digit_limit(4300)
    monkeypatch.setattr(cli, "check_lemma21", lambda n, r, pp, f: FleckReport(
        sum=10 ** 5000, valuation=0, bounds={"wan": 1}, satisfied={"wan": False}))
    assert cli.main(["fleck", "-p", "2", "-a", "1", "-n", "3", "-r", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1


# the work that the refusals below charge, through the CLI and without it
LARGE_WORK = {
    # max_degree would bisect below 1 + 10^999, of L = 3319 bits: L steps of
    # L divisions on L-bit numbers
    "bounds": 3319 * 3319 * (3319 // 64 + 1),
    # n + 1 steps on words of n bits
    "fleck": 300001 * (300000 // 64 + 1),
    # the bisection below 3001, of 12 bits; then d = D = 3000: 3001 * (3001 +
    # 3001) steps on 3001 * 3 bits, and 2 * 3001 steps of 3001 fields of
    # 3000 * 2 + 1 bits
    "synthesize": 12 * 12 + 3001 * 6002 * (3001 * 3 // 64 + 1)
                  + 2 * 3001 * (3001 * 6001 // 64 + 1),
}


@pytest.mark.parametrize("argv,doc,required", [
    (["bounds", "-p", "2", "-a", "1", "-n", "5", "-l", "0", "-b", str(10 ** 999)],
     None, LARGE_WORK["bounds"]),
    (["fleck", "-p", "2", "-a", "0", "-n", "300000", "-r", "0"], None,
     LARGE_WORK["fleck"]),
    (["synthesize", "{doc}"],
     {"kind": "synthesize", "p": 2, "a": 1, "b": 3000, "f": ["1"], "g": [1, 0]},
     LARGE_WORK["synthesize"]),
    # the document's own ceiling: the bisection below 4, then d = D = 3
    (["synthesize", "{doc}"],
     {"kind": "synthesize", "p": 2, "a": 1, "b": 3, "f": ["1"], "g": [1, 0],
      "ceiling": 40},
     3 * 3 + 4 * 8 + 2 * 4),
    # forming p^a at p = 3, a = 10^7: the square of its 10^7 * 2 // 64 + 1
    # words
    (["fleck", "-p", "3", "-a", "10000000", "-n", "3", "-r", "0"], None, 312501 ** 2),
    (["bounds", "-p", "3", "-a", "10000000", "-n", "3"], None, 312501 ** 2),
    # forming p^free at p = 2 with 10^6 - 2 free variables: the square of its
    # (10^6 - 2) * 2 // 64 + 1 words, above the document's ceiling, which the
    # two one-variable components are not
    (["count", "{doc}"],
     {"kind": "chevalley", "p": 2, "n_vars": 10 ** 6, "polynomials": ["x1 + 2*x2 + 1"],
      "ceiling": 1000},
     31250 ** 2),
], ids=["bounds", "fleck", "synthesize", "synthesize-ceiling", "fleck-p-to-a", "bounds-p-to-a",
        "count-p-to-free"])
def test_large_work_is_refused_before_it_starts(tmp_path, capsys, argv, doc, required):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    code, report = run(capsys, [arg.format(doc=inst) for arg in argv])
    assert code == 3
    validate_report(report)
    assert report["results"] == {}
    assert report["error"] == f"enumeration ceiling exceeded: {required} steps needed"


@pytest.mark.parametrize("case,call", [
    ("bounds", lambda: wilson.max_degree(PrimePower(2, 1), 0, 10 ** 999)),
    ("fleck", lambda: restricted_sum(300000, 0, PrimePower(2, 0), IntegerValuedPoly([1]))),
    ("synthesize", lambda: wilson.synthesize(
        PrimePower(2, 1), 3000, IntegerValuedPoly([1]),
        wilson.ResidueTable(PrimePower(2, 1), [1, 0]))),
], ids=["max_degree", "restricted_sum", "synthesize"])
def test_library_calls_charge_what_the_cli_refuses(case, call):
    # the function that does the work charges it, so a caller without the
    # CLI is refused the same work, before any of it
    with pytest.raises(CeilingExceeded) as refused:
        call()
    assert refused.value.required == LARGE_WORK[case]


@pytest.mark.parametrize("argv,doc,a", [
    (["count", "{doc}"],
     {"kind": "theorem12", "p": 3, "b": 2, "n_vars": 2,
      "constraints": [{"f": "x1 + x2", "a": "100000",
                       "F": {"basis": "binomial", "coeffs": ["1", "1"]}}]}, 100000),
    (["count", "{doc}"],
     {"kind": "corollary11", "p": 3, "a": "10000000", "b": 2, "n_vars": 2,
      "polynomials": ["x1 + x2"], "ls": [0]}, 10 ** 7),
    (["synthesize", "{doc}"],
     {"kind": "synthesize", "p": 3, "a": "10000000", "b": 1, "f": ["1"], "g": [1]},
     10 ** 7),
], ids=["theorem12", "corollary11", "synthesize"])
def test_unprintable_p_to_the_a_is_one_error(tmp_path, capsys, digit_limit, argv, doc, a):
    # the hypothesis margin, and g's length, would print p^a: refused
    # before the power is formed
    digit_limit(4300)
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    assert cli.main([arg.format(doc=inst) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: p^a = 3^{a} has more than 4300 digits, "
                            "more than a report can print\n")


@pytest.mark.parametrize("exponent,ceiling,required", [
    (10 ** 7, 1000, 105 * 405274),
    (10 ** 9, None, 105 * 40527344),
], ids=["10^7", "10^9"])
def test_exact_weighted_count_charges_its_moduli_first(tmp_path, exponent, ceiling,
                                                       required):
    # at p = 7, 6^64 <= 2^166, so both terms of f = x1^e*x2 + x2 are below
    # 2^T, T = 1 + ceil(166 (e + 1) / 64): the exact engine counts f mod
    # 2^(T + 3), and each of its 56 DP steps and 49 convolution pairs is
    # charged that modulus' 64-bit words, ceil((T + 4) / 64), before it is
    # formed; so both are refused at once, with no enumerator called
    doc = {"kind": "theorem12", "p": 7, "b": 2, "n_vars": 2, "exact_mode": True,
           "constraints": [{"f": f"x1^{exponent}*x2 + x2", "a": 1,
                            "F": {"basis": "binomial", "coeffs": ["3", "7"]}}]}
    if ceiling is not None:
        doc["ceiling"] = ceiling
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    script = ("import sys\n"
              "from fleckforge import cli, multipoly\n"
              "def refuse(*args):\n"
              "    raise AssertionError('enumerated')\n"
              "multipoly._frontier_histogram = multipoly._component_histogram = refuse\n"
              f"sys.exit(cli.main(['count', {str(inst)!r}]))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 3, proc.stderr
    report = json.loads(proc.stdout)
    assert report["error"] == f"enumeration ceiling exceeded: {required} steps needed"


@pytest.mark.parametrize("doc,key", [
    ({"kind": "theorem12", "p": 2, "b": 2, "n_vars": 3, "exact-mode": True,
      "constraints": [{"f": "x1+x2+x3", "a": 1,
                       "F": {"basis": "binomial", "coeffs": ["1"]}}]},
     "exact-mode"),
    ({"kind": "chevalley", "p": 3, "n_vars": 1, "polynomials": ["x1"],
      "zz": "DEEP"}, "zz"),
], ids=["exact-mode", "deep-zz"])
def test_unknown_instance_key_is_one_error(tmp_path, capsys, doc, key):
    # the deep value is a list nested 950 times, which the report could not echo
    text = json.dumps(doc).replace('"DEEP"', "[" * 950 + "]" * 950)
    inst = tmp_path / "inst.json"
    inst.write_text(text)
    assert cli.main(["count", str(inst)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: instance: Additional properties are not "
                            f"allowed ({key!r} was unexpected)\n")


def test_integral_float_is_echoed_as_an_integer(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text('{"kind": "lemma22", "p": 3.0, "c": 1, "n_vars": 2, '
                    '"polynomials": ["x1"], "js": [1]}')
    code, doc = run(capsys, ["count", str(inst), "--workers", "1"])
    assert code == 0
    assert doc["instance"]["p"] == "3"


@pytest.mark.parametrize("text,value", [
    ("1e20", 10 ** 20), ("1e23", 10 ** 23), ("1.5e3", 1500), ("-0.0", 0),
    ("12345678901234567890123.0", 12345678901234567890123),
])
def test_integral_number_literal_is_read_exactly(tmp_path, text, value):
    # a float cannot hold 10^23: json.load would read 99999999999999991611392.0
    inst = tmp_path / "inst.json"
    inst.write_text('{"kind": "chevalley", "p": 3, "n_vars": 2, '
                    '"polynomials": ["x1"], "ceiling": %s}' % text)
    ceiling = cli._load_instance(str(inst))["ceiling"]
    assert type(ceiling) is int and ceiling == value


def test_exact_literal_is_echoed_exactly(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text('{"kind": "chevalley", "p": 3, "n_vars": 2, '
                    '"polynomials": ["x1"], "ceiling": 1e23}')
    code, doc = run(capsys, ["count", str(inst), "--workers", "1"])
    assert code == 0
    assert doc["instance"]["ceiling"] == str(10 ** 23)


@pytest.mark.parametrize("text", ["2.5", "1e-400", "1e99999", "0.1e1000000000"])
def test_non_integral_number_is_rejected(tmp_path, capsys, text):
    # 1e-400 rounds to the float 0.0 and 1e99999 to inf; neither is an integer
    inst = tmp_path / "inst.json"
    inst.write_text('{"kind": "lemma22", "p": 3, "c": %s, "n_vars": 2, '
                    '"polynomials": ["x1"], "js": [1]}' % text)
    assert cli.main(["count", str(inst)]) == 1
    assert "is not of type 'integer', 'string'" in capsys.readouterr().err


def test_no_request_imports_numpy(tmp_path):
    # the frontier DP takes every narrow component and the row-block
    # product a dense quadratic form (n = 12, p = 3), both on Python
    # integers in this thread whatever --workers says: no request imports
    # numpy or touches its thread count
    golden = sorted((Path(__file__).resolve().parent / "golden").glob("*.json"))
    synth = tmp_path / "synth.json"
    synth.write_text(json.dumps({"kind": "synthesize", "p": 3, "a": 1, "b": 2,
                                 "f": [1, 2], "g": [4, -1, 7]}))
    dense = tmp_path / "dense.json"
    form = " + ".join(f"{(i * j) % 5 - 2}*x{i}*x{j}"
                      for i in range(1, 13) for j in range(i, 13))
    dense.write_text(json.dumps({"kind": "corollary11", "p": 3, "a": 1, "b": 2,
                                 "n_vars": 12, "ls": [1],
                                 "polynomials": [form + " + 1"]}))
    narrow = [["count", str(golden[0]), "--workers", "1"],
              ["sweep", "--seed", "1", "--rounds", "1"],
              ["fleck", "-p", "3", "-a", "1", "-n", "40", "-r", "2", "--f", "1,2"],
              ["bounds", "-p", "5", "-a", "2", "-n", "90", "-l", "2", "-b", "3"],
              ["synthesize", str(synth)]]
    script = ("import contextlib, io, os, sys, threading\n"
              "from fleckforge import cli, multipoly\n"
              "kernel, threads = multipoly._component_histogram, []\n"
              "def traced(*args):\n"
              "    threads.append(threading.current_thread() is threading.main_thread())\n"
              "    return kernel(*args)\n"
              "multipoly._component_histogram = traced\n"
              "def run(argv):\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        return cli.main(argv)\n"
              f"print([run(argv) for argv in {narrow!r}], 'numpy' in sys.modules)\n"
              f"print(run(['count', {str(dense)!r}, '--workers', '2']),\n"
              "      'numpy' in sys.modules, 'concurrent.futures' in sys.modules)\n"
              "print(threads, os.environ.get('OPENBLAS_NUM_THREADS'))\n")
    src = Path(cli.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", script],
                          env={**env, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["[0, 0, 0, 0, 0] False", "0 False False",
                                        "[True] None"]


@pytest.mark.parametrize("doc,flags,exit_code", [
    (None, [], 0),
    ({"kind": "theorem12", "p": 2}, [], 1),
    (None, ["--ceiling", "1"], 3),
], ids=["exit-0", "exit-1", "exit-3"])
def test_run_is_main_as_a_process(tmp_path, capsys, doc, flags, exit_code):
    # python -m and the console script both go through run(), which
    # freezes the start-up objects and prints what main() prints
    inst = Path(__file__).resolve().parent / "golden" / "chevalley.json"
    if doc is not None:
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(doc))
    argv = ["count", str(inst), *flags]
    assert cli.main(argv) == exit_code
    captured = capsys.readouterr()
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    module = subprocess.run([sys.executable, "-m", "fleckforge.cli", *argv],
                            env=env, capture_output=True, text=True)
    assert (module.returncode, module.stdout, module.stderr) == (
        exit_code, captured.out, captured.err)
    script = ("import gc, sys\n"
              "from fleckforge import cli\n"
              "code = cli.run()\n"
              "print(gc.get_freeze_count() > 0, file=sys.stderr)\n"
              "sys.exit(code)\n")
    entry = subprocess.run([sys.executable, "-c", script, *argv],
                           env=env, capture_output=True, text=True)
    assert (entry.returncode, entry.stdout, entry.stderr) == (
        exit_code, captured.out, captured.err + "True\n")


def _into_closed_pipe(args, buffered):
    """Exit code and stderr of ``python *args`` run with stdout a pipe whose
    reader has already closed it, stdout block-buffered or unbuffered."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, *args], stdout=write,
                              stderr=subprocess.PIPE, env={**env, "PYTHONPATH": str(src)})
    finally:
        os.close(write)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_a_report_nobody_reads_keeps_its_exit_code(tmp_path, buffered):
    # a sweep's report overfills the pipe and a violation's fits in it; the
    # write fails either way, and the exit code alone carries the verdict
    sweep = ["-m", "fleckforge.cli", "sweep", "--seed", "1", "--rounds", "1"]
    assert _into_closed_pipe(sweep, buffered) == (0, b"")
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"kind": "synthesize", "p": 2, "a": 1, "b": 1,
                                "f": ["1"], "g": ["1", "0"]}))
    script = ("import math, sys\n"
              "from fleckforge import cli, wilson\n"
              "wilson.ord_int = lambda v, p: -math.inf\n"
              "sys.exit(cli.run())\n")
    assert _into_closed_pipe(["-c", script, "synthesize", str(inst)], buffered) == (
        2, b"")


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["count", "--help"]], ids=["main", "count"])
def test_help_nobody_reads_exits_0(argv, buffered):
    # argparse prints the help into the buffer, swallowing a failed write,
    # and exits 0; the flush that follows fails, and quietly
    assert _into_closed_pipe(["-m", "fleckforge.cli", *argv], buffered) == (0, b"")


def test_start_up_loads_only_the_subcommands_code():
    # the modules that the import and then the request add, as a diff,
    # since the interpreter may load some of them before the program
    # starts; one process per request, so each shows its own modules
    golden = Path(__file__).resolve().parent / "golden"
    script = ("import contextlib, io, json, sys\n"
              "seen = set(sys.modules)\n"
              "def added():\n"
              "    new = sorted(set(sys.modules) - seen)\n"
              "    seen.update(new)\n"
              "    print(json.dumps(new))\n"
              "from fleckforge import cli\n"
              "added()\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert cli.main(sys.argv[1:]) == 0\n"
              "added()\n")
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}

    def loaded(*argv):
        proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, check=True)
        return [set(json.loads(line)) for line in proc.stdout.splitlines()]

    start, count = loaded("count", str(golden / "chevalley.json"))
    _, sweep = loaded("sweep", "--seed", "1", "--rounds", "1")
    _, fleck = loaded(*(golden / "cli" / "fleck-a1-linear.argv").read_text().split())
    _, bounds = loaded(*(golden / "cli" / "bounds-l2-b.argv").read_text().split())
    assert {m for m in start if m.startswith("fleckforge")} == {
        "fleckforge", "fleckforge.cli", "fleckforge.exceptions"}
    assert start & {"dataclasses", "inspect", "fractions", "decimal", "numbers",
                    "importlib.resources", "numpy"} == set()
    # the hypotheses are integer inequalities: no rational arithmetic
    assert (count | sweep) & {"fractions", "decimal", "numbers"} == set()
    assert {"fleckforge.axkatz", "fleckforge.multipoly"} <= count
    assert count & {"fleckforge.sweeps", "fleckforge.wilson", "fleckforge.fleck",
                    "numpy"} == set()
    assert "fleckforge.sweeps" in sweep
    assert "fleckforge.fleck" in fleck and "fleckforge.wilson" in bounds
    assert "fleckforge.multipoly" not in fleck | bounds


def test_names_wrapped_on_cli_are_the_ones_called(tmp_path, monkeypatch):
    # a tracer wraps these names on cli before the first request: the
    # request calls the wrapper, as it did when cli imported them eagerly
    calls = []

    def counting(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for name in cli._LAZY:  # unbound, as right after the import
        monkeypatch.delattr(cli, name, raising=False)
    for name in ("parse_poly", "synthesize", "verify_theorem11"):
        monkeypatch.setattr(cli, name, counting(name))
    chevalley = Path(__file__).resolve().parent / "golden" / "chevalley.json"
    assert cli.main(["count", str(chevalley)]) == 0
    parsed = len(json.loads(chevalley.read_text())["polynomials"])
    assert calls == ["parse_poly"] * parsed
    calls.clear()
    inst = tmp_path / "synth.json"
    inst.write_text(json.dumps({"kind": "synthesize", "p": 3, "a": 1, "b": 2,
                                "f": ["1"], "g": [1, 0, 2]}))
    assert cli.main(["synthesize", str(inst)]) == 0
    assert calls == ["synthesize", "verify_theorem11"]


@pytest.mark.parametrize("name", ["instance.schema.json", "report.schema.json"])
def test_shipped_schemas_pass_the_metaschema(name):
    jsonschema.Draft202012Validator.check_schema(cli._load_schema(name))


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["fleck", "-p", "2"])
    capsys.readouterr()
    assert err.value.code == 1


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_count_workers_below_one_is_a_usage_error(capsys, workers):
    assert cli.main(["count", "missing.json", "--workers", workers]) == 1
    assert "--workers must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--budget", "nan"], "--budget must be finite and >= 0, got nan"),
    (["--budget", "inf"], "--budget must be finite and >= 0, got inf"),
    (["--budget", "-1"], "--budget must be finite and >= 0, got -1.0"),
    (["--rounds", "-1"], "--rounds must be >= 0, got -1"),
])
def test_sweep_budget_and_rounds_out_of_range_are_usage_errors(capsys, argv, message):
    # nan and inf would be echoed as invalid JSON, and a negative budget or
    # round count would report ok having checked nothing
    assert cli.main(["sweep", "--seed", "1", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, echo", [
    ([], None),
    (["--budget", "0"], "0.0"),
    (["--budget", "2.5"], "2.5"),
])
def test_sweep_budget_is_echoed_as_a_string(capsys, argv, echo):
    code, doc = run(capsys, ["sweep", "--seed", "1", "--rounds", "0", *argv])
    assert code == 0
    assert doc["instance"]["budget"] == echo


@pytest.mark.parametrize("argv, message", [
    (["bounds", "-p", "2", "-a", "1", "-n", "5", "-l", "-2"], "-l must be >= 0, got -2"),
    (["bounds", "-p", "2", "-a", "2", "-n", "-5", "-l", "0"], "-n must be >= 0, got -5"),
    (["fleck", "-p", "2", "-a", "2", "-n", "-3", "-r", "0"], "-n must be >= 0, got -3"),
])
def test_negative_n_or_l_names_the_flag_and_value(capsys, argv, message):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("f", ["x", "1,x", "2.5", "0x1"])
def test_fleck_malformed_f_names_the_flag(capsys, f):
    assert cli.main(["fleck", "-p", "2", "-a", "1", "-n", "3", "-r", "0", f"--f={f}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --f takes comma-separated integers, got {f!r}\n"


def test_report_determinism(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "kind": "theorem12", "p": 2, "b": 2, "n_vars": 3,
        "constraints": [{"f": "x1+x2+x3", "a": 1,
                         "F": {"basis": "binomial", "coeffs": ["1"]}}],
    }))
    cli.main(["count", str(inst), "--workers", "1"])
    first = capsys.readouterr().out
    cli.main(["count", str(inst), "--workers", "4"])
    second = capsys.readouterr().out
    # worker count is echoed; everything else, including the sum, is identical
    assert (first.replace('"workers": "1"', "") ==
            second.replace('"workers": "4"', ""))


def test_sweep_determinism(capsys):
    code, doc1 = run(capsys, ["sweep", "--seed", "42"])
    assert code == 0
    code, doc2 = run(capsys, ["sweep", "--seed", "42"])
    assert code == 0
    assert doc1["results"]["instances"] == doc2["results"]["instances"]
    code, doc3 = run(capsys, ["sweep", "--seed", "43"])
    assert code == 0
    assert doc3["results"]["instances"] != doc1["results"]["instances"]


# one count instance per kind, each with its hypothesis holding
HOLDING = {
    "theorem12": {"kind": "theorem12", "p": 2, "b": 2, "n_vars": 3,
                  "constraints": [{"f": "x1+x2+x3", "a": 1,
                                   "F": {"basis": "binomial", "coeffs": ["1"]}}]},
    "corollary11": {"kind": "corollary11", "p": 2, "a": 1, "b": 1, "n_vars": 4,
                    "polynomials": ["x1+x2+x3+x4"], "ls": [1]},
    "chevalley": {"kind": "chevalley", "p": 3, "n_vars": 2,
                  "polynomials": ["x1+x2"]},
    "axkatz": {"kind": "axkatz", "p": 2, "b": 2, "n_vars": 3,
               "polynomials": ["x1+x2+x3"]},
    "lemma22": {"kind": "lemma22", "p": 3, "c": 2, "n_vars": 2,
                "polynomials": ["x1+x2"], "js": [1]},
}


@pytest.mark.parametrize("kind", HOLDING)
def test_count_violation_exit_code(tmp_path, capsys, monkeypatch, kind):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(HOLDING[kind]))
    code, doc = run(capsys, ["count", str(inst), "--workers", "1"])
    assert code == 0 and doc["verdict"]["hypothesis_holds"] is True
    monkeypatch.setattr(axkatz, "theorem12_sum", lambda system, **kw: 1)
    code, doc = run(capsys, ["count", str(inst), "--workers", "1"])
    assert code == 2
    validate_report(doc)
    assert "not divisible" in doc["error"] and "verdict" not in doc


def test_count_violation_with_a_sum_too_long_to_print_exits_2(capsys, monkeypatch,
                                                             digit_limit):
    # the message gives the residue mod the claimed modulus, which prints
    digit_limit(4300)
    golden = Path(__file__).resolve().parent / "golden" / "chevalley.json"
    monkeypatch.setattr(axkatz, "theorem12_sum", lambda system, **kw: 2 ** 20000 + 1)
    code, doc = run(capsys, ["count", str(golden)])
    assert code == 2
    validate_report(doc)
    assert doc["error"].startswith("sum = 2 mod 3, not divisible")
    assert "verdict" not in doc


@pytest.mark.parametrize("kind", ["chevalley", "axkatz", "lemma22"])
def test_count_non_prime_p_exit_code(tmp_path, capsys, kind):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({**HOLDING[kind], "p": 4}))
    code = cli.main(["count", str(inst), "--workers", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and "prime" in captured.err


@pytest.mark.parametrize("kind", HOLDING)
def test_count_negative_n_vars_is_a_usage_error(tmp_path, capsys, kind):
    # with no polynomial the system refuses n_vars; with "x1" or "1" the
    # parser does, before a variable's range or an exponent vector's length
    for text in (None, "x1", "1"):
        doc = json.loads(json.dumps(HOLDING[kind]))
        if text is None:
            doc = {k: [] if isinstance(v, list) else v for k, v in doc.items()}
        elif kind == "theorem12":
            doc["constraints"][0]["f"] = text
        else:
            doc["polynomials"] = [text]
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({**doc, "n_vars": -1}))
        assert cli.main(["count", str(inst)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n_vars must be >= 0, got -1\n"


SYNTHESIZE = {"kind": "synthesize", "p": 2, "a": 1, "b": 1,
              "f": {"basis": "binomial", "coeffs": ["1"]}, "g": ["1", "0"]}


@pytest.mark.parametrize("argv", [
    ["fleck", "-p", "2", "-a", "1", "-n", "3", "-r", "0"],
    ["synthesize", "{synthesize}"],
    ["count", "{theorem12}", "--workers", "1"],
    ["count", "{theorem12}", "--workers", "1", "--ceiling", "1"],
    ["sweep", "--seed", "1"],
    ["bounds", "-p", "3", "-a", "2", "-n", "4", "-l", "1", "-b", "2"],
])
def test_timing_adds_only_wall_seconds(tmp_path, capsys, argv):
    files = {}
    for name, doc in [("synthesize", SYNTHESIZE), ("theorem12", HOLDING["theorem12"])]:
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(doc))
    argv = [arg.format(**files) for arg in argv]
    code, plain = run(capsys, argv)
    timed_code, timed = run(capsys, argv + ["--timing"])
    validate_report(timed)
    assert timed_code == code
    assert timed.pop("timing")["wall_seconds"] >= 0
    assert timed == plain

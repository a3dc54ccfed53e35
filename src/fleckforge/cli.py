"""Command-line front end.

Subcommands: fleck | synthesize | count | sweep | bounds.  Reports are
JSON on stdout with every big integer serialized as a decimal string;
output key order is fixed, so reports are byte-stable for a given
instance (timing is opt-in via --timing precisely to keep them so).
Each subcommand maps its arguments to a (report, exit code) pair;
``main`` alone times it and prints the report.

Instance files are checked against ``schemas/instance.schema.json`` by
``_violation``, which interprets the JSON Schema 2020-12 keywords that
file uses.  A rejected file gets one line, ``<location>: <reason>``, for
the first violation, with the reason worded as jsonschema words it
(``instance['f']['basis']: 'x' is not one of ['binomial', 'monomial']``).

Exit codes: 0 success, 1 usage or validation error, 2 theorem
violation, 3 enumeration ceiling exceeded.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import random
import re
import sys
import time
from dataclasses import asdict
from decimal import Decimal
from fractions import Fraction
from importlib import resources

from . import axkatz, sweeps
from .exceptions import CeilingExceeded, TheoremViolation
from .fleck import check_lemma21, factorial_bound, fleck_bound, wan_bound, weisman_bound
from .ivpoly import IntegerValuedPoly, monomials_to_ivp
from .multipoly import parse_poly
from .padic import PrimePower
from .wilson import ResidueTable, bound_M, max_degree, synthesize, verify_theorem11

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_CEILING = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache
def _load_schema(name: str) -> dict:
    with resources.files("fleckforge.schemas").joinpath(name).open() as fh:
        return json.load(fh)


def _as_int(x) -> int:
    if isinstance(x, bool):
        raise ValueError(f"expected integer, got {x!r}")
    if isinstance(x, int):
        return x
    return int(x)


def _encode(obj):
    """Recursively convert report values to JSON-safe, string-encoded form."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return "inf" if math.isinf(obj) else obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    return obj


def _emit(report: dict) -> None:
    print(json.dumps(_encode(report), indent=2, sort_keys=True))


_TYPES = {
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                          or isinstance(x, float) and x.is_integer()),
    "null": lambda x: x is None,
    "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
    "object": lambda x: isinstance(x, dict),
    "string": lambda x: isinstance(x, str),
}


def _same(a, b) -> bool:
    """JSON equality: True is not 1, but 1 is 1.0."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _ref(ref: str, root: dict):
    if not ref.startswith("#/$defs/"):
        raise KeyError(ref)
    return root["$defs"][ref.removeprefix("#/$defs/")]


def _first(violations):
    return next(filter(None, violations), None)


def _type(v, x, *_):
    names = [v] if isinstance(v, str) else v
    if not any(_TYPES[t](x) for t in names):
        return f"{x!r} is not of type {', '.join(map(repr, names))}"


def _one_of(v, x, node, root, path):
    found = [_walk(s, x, root, path) for s in v]
    valid = [s for s, violation in zip(v, found) if violation is None]
    if len(valid) > 1:
        # worded as jsonschema does: the first valid branch comes last
        reprs = ", ".join(map(repr, valid[1:] + valid[:1]))
        return f"{x!r} is valid under each of {reprs}"
    if not valid:
        # a branch that wants another type than x's says nothing about x;
        # when exactly one branch wants x's type, its violation says why
        typed = [violation for violation in found if violation[:2] != (path, "type")]
        return typed[0] if len(typed) == 1 else (
            f"{x!r} is not valid under any of the given schemas")
    return None


def _additional(v, x, node, root, path):
    extra = sorted(k for k in x if k not in node.get("properties", {}))
    if v is False and extra:
        return ("Additional properties are not allowed ("
                f"{', '.join(map(repr, extra))} {'was' if len(extra) == 1 else 'were'}"
                " unexpected)")
    return _first(_walk(v, x[k], root, (*path, k)) for k in extra)


# keyword -> (the instance type it constrains, None for every instance;
# check(value, x, node, root, path)).  A check returns None when x
# satisfies the keyword, the reason as jsonschema words it when the
# keyword itself fails, or the (path, keyword, reason) of the first
# violation inside a subschema.  "then" is read by "if".
_KEYWORDS = {
    "$ref": (None, lambda v, x, node, root, path: _walk(_ref(v, root), x, root, path)),
    "type": (None, _type),
    "enum": (None, lambda v, x, *_: None if any(_same(x, e) for e in v)
             else f"{x!r} is not one of {v!r}"),
    "const": (None, lambda v, x, *_: None if _same(x, v) else f"{v!r} was expected"),
    "oneOf": (None, _one_of),
    "allOf": (None, lambda v, x, node, root, path: _first(
        _walk(s, x, root, path) for s in v)),
    "if": (None, lambda v, x, node, root, path: None if _walk(v, x, root, path)
           else _walk(node.get("then", True), x, root, path)),
    "then": (None, lambda *_: None),
    "pattern": (str, lambda v, x, *_: None if re.search(v, x)
                else f"{x!r} does not match {v!r}"),
    "required": (dict, lambda v, x, *_: next(
        (f"{k!r} is a required property" for k in v if k not in x), None)),
    "properties": (dict, lambda v, x, node, root, path: _first(
        _walk(s, x[k], root, (*path, k)) for k, s in v.items() if k in x)),
    "additionalProperties": (dict, _additional),
    "items": (list, lambda v, x, node, root, path: _first(
        _walk(v, e, root, (*path, i)) for i, e in enumerate(x))),
    "minItems": (list, lambda v, x, *_: None if len(x) >= v else
                 f"{x!r} {'should be non-empty' if v == 1 else 'is too short'}"),
    "maxItems": (list, lambda v, x, *_: None if len(x) <= v else
                 f"{x!r} {'is expected to be empty' if v == 0 else 'is too long'}"),
}
_IGNORED = frozenset({"$schema", "title", "$defs"})


def _walk(node, x, root, path):
    """First violation of schema ``node`` by ``x`` at ``path``, in 2020-12
    semantics: (path, keyword, reason), or None.  Raises KeyError on a
    keyword, type name or $ref outside the interpreted subset; every key
    of a node is looked up first, since some keywords read their siblings."""
    if isinstance(node, bool):
        return None if node else (path, None, f"False schema does not allow {x!r}")
    checks = [(k, *_KEYWORDS[k], v) for k, v in node.items() if k not in _IGNORED]
    for k, applies_to, check, v in checks:
        if applies_to is None or isinstance(x, applies_to):
            found = check(v, x, node, root, path)
            if found is not None:
                return (path, k, found) if isinstance(found, str) else found
    return None


def _violation(node, x, root):
    """The first violation of schema ``node`` (``$ref``s resolve in
    ``root``) by ``x``: (path, keyword, reason), or None when x conforms.

    Sound against jsonschema's Draft 2020-12 validator: None only when it
    would accept ``x``, and otherwise one of the errors it reports.
    Anything outside the interpreted subset rejects the whole document,
    never just a branch of ``oneOf`` or ``if``, whose verdicts are negated.
    """
    try:
        return _walk(node, x, root, ())
    except KeyError as exc:
        return (), None, f"unsupported schema keyword {exc.args[0]!r}"


def _json_number(text: str):
    """A JSON number written with a fraction or an exponent: an exact int
    when its value is integral (``3.0``, ``1e23``), else a float, which
    the schema rejects where it wants an integer.

    An integral value with more digits than the interpreter turns into an
    int from a string stays a float (``inf`` for ``1e99999``); a value
    that would round to an integral float (``1e-400`` to ``0.0``) stays
    the exact Decimal, which the schema rejects too.
    """
    exact = Decimal(text)
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    if exact == exact.to_integral_value() and (not limit or exact.adjusted() < limit):
        return int(exact)
    x = float(text)
    return exact if x.is_integer() else x


def _load_instance(path: str, expected_kinds=None) -> dict:
    with open(path) as fh:
        try:
            doc = json.load(fh, parse_float=_json_number)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    schema = _load_schema("instance.schema.json")
    violation = _violation(schema, doc, schema)
    if violation is not None:
        where, _, reason = violation
        raise ValueError("instance" + "".join(f"[{k!r}]" for k in where)
                         + f": {reason}")
    if expected_kinds and doc["kind"] not in expected_kinds:
        raise ValueError(f"instance kind {doc['kind']!r} not usable here")
    return doc


def _ivp_from_json(spec) -> IntegerValuedPoly:
    if isinstance(spec, list):
        return IntegerValuedPoly([_as_int(c) for c in spec])
    coeffs = [_as_int(c) for c in spec["coeffs"]]
    if spec["basis"] == "monomial":
        return monomials_to_ivp(coeffs)
    return IntegerValuedPoly(coeffs)


def _parse_coeff_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip() != ""]


# --- subcommands ------------------------------------------------------------

def cmd_fleck(args) -> tuple[dict, int]:
    pp = PrimePower(args.p, args.a)
    f = IntegerValuedPoly(_parse_coeff_list(args.f) if args.f else [1])
    report = check_lemma21(args.n, args.r, pp, f)
    return {
        "kind": "fleck",
        "instance": {"p": args.p, "a": args.a, "n": args.n, "r": args.r,
                     "f": list(f.coeffs)},
        "results": {
            "sum": report.sum,
            "valuation": report.valuation,
            "bounds": dict(sorted(report.bounds.items())),
            "satisfied": dict(sorted(report.satisfied.items())),
        },
    }, EXIT_OK if report.all_satisfied else EXIT_VIOLATION


def cmd_bounds(args) -> tuple[dict, int]:
    pp = PrimePower(args.p, args.a)
    results = {
        "wan": wan_bound(args.n, pp, args.l),
        "factorial": factorial_bound(args.n, pp, args.l),
        "M": bound_M(args.n, pp, args.l),
    }
    if pp.a >= 1:
        results["weisman"] = weisman_bound(args.n, pp)
        if pp.a == 1:
            results["fleck"] = fleck_bound(args.n, pp.p)
    if args.b is not None:
        results["max_degree"] = max_degree(pp, args.l, args.b)
    return {
        "kind": "bounds",
        "instance": {"p": args.p, "a": args.a, "n": args.n, "l": args.l,
                     "b": args.b},
        "results": dict(sorted(results.items())),
    }, EXIT_OK


def cmd_synthesize(args) -> tuple[dict, int]:
    doc = _load_instance(args.instance, {"synthesize"})
    pp = PrimePower(_as_int(doc["p"]), _as_int(doc["a"]))
    b = _as_int(doc["b"])
    f = _ivp_from_json(doc["f"])
    g = ResidueTable(pp, [_as_int(v) for v in doc["g"]])
    if args.q_range is not None:
        try:
            lo, hi = (int(x) for x in args.q_range.split(":"))
        except ValueError:
            raise ValueError("--q-range takes lo:hi, two integers, "
                             f"got {args.q_range!r}") from None
    elif "q_range" in doc:
        lo, hi = (_as_int(x) for x in doc["q_range"])
    else:
        lo, hi = -25, 25
    try:
        P = synthesize(pp, b, f, g)
    except TheoremViolation as exc:
        return {"kind": "synthesize", "instance": doc, "results": {},
                "error": str(exc)}, EXIT_VIOLATION
    check = verify_theorem11(P, f, g, q_range=(lo, hi))
    return {
        "kind": "synthesize",
        "instance": doc,
        "results": {
            "coeffs": list(P.coeffs),
            "bound_records": list(P.bound_records),
            "degree": P.degree,
            "verified": check.ok,
            "checked_points": check.checked,
            "q_range": [lo, hi],
            "counterexample": check.counterexample,
        },
    }, EXIT_OK if check.ok else EXIT_VIOLATION


def _ints(values) -> list[int]:
    return [_as_int(v) for v in values]


def _polys(doc, ceiling: int | None = None) -> list:
    n_vars = _as_int(doc["n_vars"])
    return [parse_poly(text, n_vars, ceiling=ceiling) for text in doc["polynomials"]]


def _congruence_system(doc, ceiling: int | None = None) -> axkatz.CongruenceSystem:
    n_vars = _as_int(doc["n_vars"])
    constraints = tuple(
        axkatz.Constraint(f=parse_poly(c["f"], n_vars, ceiling=ceiling),
                          a=_as_int(c["a"]),
                          F=_ivp_from_json(c["F"]),
                          l=_as_int(c["l"]) if "l" in c else None)
        for c in doc["constraints"])
    return axkatz.CongruenceSystem(p=_as_int(doc["p"]), b=_as_int(doc["b"]),
                                   n_vars=n_vars, constraints=constraints)


# count kind -> verifier call (doc, exact, ceiling).  chevalley calls axkatz,
# which calls corollary11, which calls theorem12: one hypothesis judges all
# four.  Only theorem12 and corollary11 have a modular engine for `exact` to
# switch off.  The ceiling bounds the parse and the sum alike.  The
# polynomial kinds pass n_vars, which an empty polynomial list cannot carry.
_COUNT_KINDS = {
    "theorem12": lambda doc, exact, **run: axkatz.verify_theorem12(
        _congruence_system(doc, **run), exact=exact, **run),
    "corollary11": lambda doc, exact, **run: axkatz.corollary11_verify(
        _polys(doc, **run), _as_int(doc["a"]), _as_int(doc["b"]), _ints(doc["ls"]),
        _as_int(doc["p"]), exact=exact, n_vars=_as_int(doc["n_vars"]), **run),
    "chevalley": lambda doc, exact, **run: axkatz.chevalley_warning_verify(
        _polys(doc, **run), _as_int(doc["p"]), n_vars=_as_int(doc["n_vars"]), **run),
    "axkatz": lambda doc, exact, **run: axkatz.axkatz_prime_verify(
        _polys(doc, **run), _as_int(doc["b"]), _as_int(doc["p"]),
        n_vars=_as_int(doc["n_vars"]), **run),
    "lemma22": lambda doc, exact, **run: axkatz.lemma22_verify(
        _polys(doc, **run), _ints(doc["js"]), _as_int(doc["c"]), _as_int(doc["p"]),
        n_vars=_as_int(doc["n_vars"]), **run),
}


def cmd_count(args) -> tuple[dict, int]:
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    doc = _load_instance(args.instance, _COUNT_KINDS)
    kind = doc["kind"]
    ceiling = args.ceiling if args.ceiling is not None else (
        _as_int(doc["ceiling"]) if "ceiling" in doc else None)
    exact = args.exact or doc.get("exact_mode", False)
    report = {"kind": kind, "instance": doc, "workers": args.workers,
              "results": {}}
    try:
        verdict = _COUNT_KINDS[kind](doc, exact, ceiling=ceiling)
    except TheoremViolation as exc:
        report["error"] = str(exc)
        return report, EXIT_VIOLATION
    except CeilingExceeded as exc:
        error = f"enumeration ceiling exceeded: {exc.required} steps needed"
        return {"kind": kind, "instance": doc, "results": {},
                "error": error}, EXIT_CEILING
    report["verdict"] = asdict(verdict)
    return report, EXIT_OK


def cmd_sweep(args) -> tuple[dict, int]:
    if args.budget is not None and not 0 <= args.budget < math.inf:  # nan too
        raise ValueError(f"--budget must be finite and >= 0, got {args.budget}")
    if args.rounds < 0:
        raise ValueError(f"--rounds must be >= 0, got {args.rounds}")
    rng = random.Random(args.seed)
    result = sweeps.run_sweeps(rng, rounds=args.rounds, budget=args.budget)
    return {
        "kind": "sweep",
        "instance": {"seed": args.seed, "rounds": args.rounds,
                     "budget": args.budget},
        "results": {
            "instances": result.log,
            "violations": result.violations,
            "truncated": result.truncated,
            "ok": result.ok,
        },
    }, EXIT_OK if result.ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fleckforge",
                     description="Exact congruence sums, polynomial synthesis "
                                 "and divisibility verification over prime fields")
    sub = parser.add_subparsers(dest="command", required=True)
    timed = argparse.ArgumentParser(add_help=False)
    timed.add_argument("--timing", action="store_true",
                       help="add timing.wall_seconds: the whole subcommand's "
                            "wall-clock time")

    p_fleck = sub.add_parser("fleck", parents=[timed],
                             help="restricted alternating sum and bounds")
    p_fleck.add_argument("-p", type=int, required=True)
    p_fleck.add_argument("-a", type=int, required=True)
    p_fleck.add_argument("-n", type=int, required=True)
    p_fleck.add_argument("-r", type=int, required=True)
    p_fleck.add_argument("--f", help="comma-separated binomial-basis coefficients")
    p_fleck.set_defaults(func=cmd_fleck)

    p_bounds = sub.add_parser("bounds", help="print valuation bounds at one degree")
    p_bounds.add_argument("-p", type=int, required=True)
    p_bounds.add_argument("-a", type=int, required=True)
    p_bounds.add_argument("-n", type=int, required=True)
    p_bounds.add_argument("-l", type=int, default=0)
    p_bounds.add_argument("-b", type=int, default=None,
                          help="also report the maximal degree for this target")
    p_bounds.set_defaults(func=cmd_bounds)

    p_synth = sub.add_parser("synthesize", parents=[timed],
                             help="build and verify the matching polynomial")
    p_synth.add_argument("instance")
    p_synth.add_argument("--q-range", help="lo:hi, inclusive, with lo <= hi; "
                                           "write --q-range=-25:25 when lo < 0")
    p_synth.set_defaults(func=cmd_synthesize)

    p_count = sub.add_parser("count", parents=[timed],
                             help="divisibility verifiers over the cube")
    p_count.add_argument("instance")
    p_count.add_argument("--workers", type=int, default=1,
                         help="echoed in the report; the computation runs in "
                              "one thread whatever its value (must be >= 1)")
    p_count.add_argument("--exact", action="store_true",
                         help="theorem12/corollary11: count exact value tuples "
                              "and report the full sum, not the residue mod p^b "
                              "(the other kinds always do)")
    p_count.add_argument("--ceiling", type=int, default=None)
    p_count.set_defaults(func=cmd_count)

    p_sweep = sub.add_parser("sweep", parents=[timed],
                             help="seeded randomized property sweeps")
    p_sweep.add_argument("--seed", type=int, required=True)
    p_sweep.add_argument("--budget", type=float, default=None,
                         help="wall-clock budget in seconds")
    p_sweep.add_argument("--rounds", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        report, code = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "timing", False):
        report["timing"] = {"wall_seconds": time.monotonic() - t0}
    _emit(report)
    return code


if __name__ == "__main__":
    sys.exit(main())

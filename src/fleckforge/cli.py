"""Command-line front end.

Subcommands: fleck | synthesize | count | sweep | bounds.  Reports are
JSON on stdout with every big integer serialized as a decimal string;
output key order is fixed, so reports are byte-stable for a given
instance (timing is opt-in via --timing precisely to keep them so).

Exit codes: 0 success, 1 usage or validation error, 2 theorem
violation, 3 enumeration ceiling exceeded.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from importlib import resources

import jsonschema

from . import axkatz, sweeps
from .exceptions import CeilingExceeded, GuaranteeError, TheoremViolation
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


def _emit(report: dict, timing: float | None) -> None:
    if timing is not None:
        report["timing"] = {"wall_seconds": timing}
    print(json.dumps(_encode(report), indent=2, sort_keys=True))


def _load_instance(path: str, expected_kinds=None) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    jsonschema.validate(doc, _load_schema("instance.schema.json"))
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

def cmd_fleck(args) -> int:
    pp = PrimePower(args.p, args.a)
    f = IntegerValuedPoly(_parse_coeff_list(args.f) if args.f else [1])
    t0 = time.monotonic()
    report = check_lemma21(args.n, args.r, pp, f)
    elapsed = time.monotonic() - t0
    _emit({
        "kind": "fleck",
        "instance": {"p": args.p, "a": args.a, "n": args.n, "r": args.r,
                     "f": list(f.coeffs)},
        "results": {
            "sum": report.sum,
            "valuation": report.valuation,
            "bounds": dict(sorted(report.bounds.items())),
            "satisfied": dict(sorted(report.satisfied.items())),
        },
    }, elapsed if args.timing else None)
    return EXIT_OK if report.all_satisfied else EXIT_VIOLATION


def cmd_bounds(args) -> int:
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
    _emit({
        "kind": "bounds",
        "instance": {"p": args.p, "a": args.a, "n": args.n, "l": args.l,
                     "b": args.b},
        "results": dict(sorted(results.items())),
    }, None)
    return EXIT_OK


def cmd_synthesize(args) -> int:
    doc = _load_instance(args.instance, {"synthesize"})
    pp = PrimePower(_as_int(doc["p"]), _as_int(doc["a"]))
    b = _as_int(doc["b"])
    f = _ivp_from_json(doc["f"])
    g = ResidueTable(pp, [_as_int(v) for v in doc["g"]])
    if args.q_range:
        lo, hi = (int(x) for x in args.q_range.split(":"))
    elif "q_range" in doc:
        lo, hi = (_as_int(x) for x in doc["q_range"])
    else:
        lo, hi = -25, 25
    t0 = time.monotonic()
    try:
        P = synthesize(pp, b, f, g)
    except GuaranteeError as exc:
        _emit({"kind": "synthesize", "instance": doc, "results": {},
               "error": str(exc)}, None)
        return EXIT_VIOLATION
    check = verify_theorem11(P, f, g, q_range=(lo, hi))
    elapsed = time.monotonic() - t0
    _emit({
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
    }, elapsed if args.timing else None)
    return EXIT_OK if check.ok else EXIT_VIOLATION


def _ints(values) -> list[int]:
    return [_as_int(v) for v in values]


def _polys(doc) -> list:
    n_vars = _as_int(doc["n_vars"])
    return [parse_poly(text, n_vars) for text in doc["polynomials"]]


def _congruence_system(doc) -> axkatz.CongruenceSystem:
    n_vars = _as_int(doc["n_vars"])
    constraints = tuple(
        axkatz.Constraint(f=parse_poly(c["f"], n_vars), a=_as_int(c["a"]),
                          F=_ivp_from_json(c["F"]),
                          l=_as_int(c["l"]) if "l" in c else None)
        for c in doc["constraints"])
    return axkatz.CongruenceSystem(p=_as_int(doc["p"]), b=_as_int(doc["b"]),
                                   n_vars=n_vars, constraints=constraints)


# count kind -> verifier call (doc, exact, workers, ceiling); only theorem12
# and corollary11 have a modular engine for `exact` to switch off
_COUNT_KINDS = {
    "theorem12": lambda doc, exact, **run: axkatz.verify_theorem12(
        _congruence_system(doc), exact=exact, **run),
    "corollary11": lambda doc, exact, **run: axkatz.corollary11_verify(
        _polys(doc), _as_int(doc["a"]), _as_int(doc["b"]), _ints(doc["ls"]),
        _as_int(doc["p"]), exact=exact, **run),
    "chevalley": lambda doc, exact, **run: axkatz.chevalley_warning_verify(
        _polys(doc), _as_int(doc["p"]), **run),
    "axkatz": lambda doc, exact, **run: axkatz.axkatz_prime_verify(
        _polys(doc), _as_int(doc["b"]), _as_int(doc["p"]), **run),
    "lemma22": lambda doc, exact, **run: axkatz.lemma22_verify(
        _polys(doc), _ints(doc["js"]), _as_int(doc["c"]), _as_int(doc["p"]),
        **run),
}


def cmd_count(args) -> int:
    doc = _load_instance(args.instance, _COUNT_KINDS)
    kind = doc["kind"]
    ceiling = args.ceiling if args.ceiling is not None else (
        _as_int(doc["ceiling"]) if "ceiling" in doc else None)
    exact = args.exact or doc.get("exact_mode", False)
    report = {"kind": kind, "instance": doc, "workers": args.workers,
              "results": {}}
    t0 = time.monotonic()
    try:
        verdict = _COUNT_KINDS[kind](doc, exact, workers=args.workers,
                                     ceiling=ceiling)
        report["verdict"] = asdict(verdict)
        code = EXIT_OK
    except TheoremViolation as exc:
        report["error"] = str(exc)
        code = EXIT_VIOLATION
    except CeilingExceeded as exc:
        _emit({"kind": kind, "instance": doc, "results": {},
               "error": f"enumeration ceiling exceeded: {exc.required} points needed"},
              None)
        return EXIT_CEILING
    _emit(report, time.monotonic() - t0 if args.timing else None)
    return code


def cmd_sweep(args) -> int:
    rng = random.Random(args.seed)
    t0 = time.monotonic()
    result = sweeps.run_sweeps(rng, rounds=args.rounds, budget=args.budget)
    elapsed = time.monotonic() - t0
    _emit({
        "kind": "sweep",
        "instance": {"seed": args.seed, "rounds": args.rounds,
                     "budget": args.budget},
        "results": {
            "instances": result.log,
            "violations": result.violations,
            "truncated": result.truncated,
            "ok": result.ok,
        },
    }, elapsed if args.timing else None)
    return EXIT_OK if result.ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fleckforge",
                     description="Exact congruence sums, polynomial synthesis "
                                 "and divisibility verification over prime fields")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fleck = sub.add_parser("fleck", help="restricted alternating sum and bounds")
    p_fleck.add_argument("-p", type=int, required=True)
    p_fleck.add_argument("-a", type=int, required=True)
    p_fleck.add_argument("-n", type=int, required=True)
    p_fleck.add_argument("-r", type=int, required=True)
    p_fleck.add_argument("--f", help="comma-separated binomial-basis coefficients")
    p_fleck.add_argument("--timing", action="store_true")
    p_fleck.set_defaults(func=cmd_fleck)

    p_bounds = sub.add_parser("bounds", help="print valuation bounds at one degree")
    p_bounds.add_argument("-p", type=int, required=True)
    p_bounds.add_argument("-a", type=int, required=True)
    p_bounds.add_argument("-n", type=int, required=True)
    p_bounds.add_argument("-l", type=int, default=0)
    p_bounds.add_argument("-b", type=int, default=None,
                          help="also report the maximal degree for this target")
    p_bounds.set_defaults(func=cmd_bounds)

    p_synth = sub.add_parser("synthesize",
                             help="build and verify the matching polynomial")
    p_synth.add_argument("instance")
    p_synth.add_argument("--q-range", help="lo:hi, inclusive")
    p_synth.add_argument("--timing", action="store_true")
    p_synth.set_defaults(func=cmd_synthesize)

    p_count = sub.add_parser("count", help="divisibility verifiers over the cube")
    p_count.add_argument("instance")
    p_count.add_argument("--workers", type=int, default=None)
    p_count.add_argument("--exact", action="store_true",
                         help="full big-integer per-point arithmetic")
    p_count.add_argument("--ceiling", type=int, default=None)
    p_count.add_argument("--timing", action="store_true")
    p_count.set_defaults(func=cmd_count)

    p_sweep = sub.add_parser("sweep", help="seeded randomized property sweeps")
    p_sweep.add_argument("--seed", type=int, required=True)
    p_sweep.add_argument("--budget", type=float, default=None,
                         help="wall-clock budget in seconds")
    p_sweep.add_argument("--rounds", type=int, default=1)
    p_sweep.add_argument("--timing", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", None) is None and args.command == "count":
        import os
        args.workers = os.cpu_count() or 1
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError,
            jsonschema.ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: fleck | synthesize | count | sweep | bounds.  Reports are
JSON on stdout with every big integer serialized as a decimal string;
output key order is fixed, so reports are byte-stable for a given
instance (timing is opt-in via --timing precisely to keep them so).
Each subcommand fills in the report that ``main`` hands it, its skeleton
before any work, and returns the exit code; ``main`` alone times it,
turns a CeilingExceeded or a TheoremViolation into the report's error
and prints the report, and ``run`` wraps it as the process entry point.
Every request runs in a fresh process, often with no bytecode cache, so
it compiles each module it imports.  This module imports only
``argparse``, ``json`` and, of the package, ``exceptions``.  The other
names it calls are in ``_LAZY``, name -> defining module, and a function
that calls one first binds its modules' names into this module's
globals with ``_need``: ``fleck`` loads ``fleck``, ``ivpoly`` and
``padic``, ``bounds`` and ``synthesize`` also ``wilson``, and ``count``
``multipoly`` and ``ivpoly``; ``count`` imports ``axkatz`` and ``sweep``
``sweeps`` when they run.  The calls read this module's globals because
perfbench's tracer (``perfbench/spans.py``) and the tests wrap
``cli.parse_poly``, ``cli.synthesize`` and ``cli.verify_theorem11`` by
name right after the import: the module's ``__getattr__`` (PEP 562)
binds a name of the table that is read from outside before any request
bound it.

Instance files are checked against ``schemas/instance.schema.json`` by
``_violation``, which interprets the JSON Schema 2020-12 keywords that
file uses.  A rejected file gets one line, ``<location>: <reason>``, for
the first violation, with the reason worded as jsonschema words it
(``instance['f']['basis']: 'x' is not one of ['binomial', 'monomial']``).

Exit codes: 0 success, 1 usage or validation error or a report value
too long to print, 2 theorem violation, 3 work ceiling exceeded: each
function that does work charges it before it starts, and refuses it
above the request's ceiling, which ``count`` and ``synthesize`` set.
"""
from __future__ import annotations

import argparse
import functools
import gc
import importlib
import json
import math
import os
import re
import sys
import time

from .exceptions import CeilingExceeded, TheoremViolation, ceiling

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_CEILING = 3

# name -> the module that defines it, bound into this module's globals on
# first use, so that the code below calls whatever this module holds at
# that name (a wrapper set on ``cli.parse_poly`` is the one a count calls);
# max_degree is here for the tracer alone (see cmd_bounds)
_LAZY = {
    "check_lemma21": "fleck", "classical_bounds": "fleck",
    "factorial_bound": "fleck", "wan_bound": "fleck",
    "IntegerValuedPoly": "ivpoly", "monomials_to_ivp": "ivpoly",
    "parse_poly": "multipoly",
    "PrimePower": "padic", "refuse_unprintable_power": "padic",
    "ResidueTable": "wilson", "bound_M": "wilson", "max_degree": "wilson",
    "synthesize": "wilson", "verify_theorem11": "wilson",
}


def __getattr__(name: str):
    """A name of ``_LAZY`` read on this module before anything bound it
    (PEP 562): imported and bound for good, so that a tracer or a test can
    wrap ``cli.parse_poly`` before the first request."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        importlib.import_module("." + _LAZY[name], __package__), name)
    return value


def _need(*modules: str) -> None:
    """Bind the names of ``_LAZY`` that ``modules`` define and nothing has
    bound yet; a name already bound, wrapped or not, stays as it is."""
    bound = globals()
    for name, module in _LAZY.items():
        if module in modules and name not in bound:
            __getattr__(name)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache
def _load_schema(name: str) -> dict:
    with open(os.path.join(os.path.dirname(__file__), "schemas", name)) as fh:
        return json.load(fh)


def _encode(obj, key="report"):
    """Recursively convert report values to JSON-safe, string-encoded form.

    An integer with more digits than ``str`` converts (past
    ``sys.get_int_max_str_digits()``; 0 is no limit) is a ValueError
    naming the nearest key above it.
    """
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        try:
            return str(obj)
        except ValueError:
            raise ValueError(f"{key} has more than {sys.get_int_max_str_digits()} "
                             "digits, more than a report can print") from None
    if isinstance(obj, dict):
        return {k: _encode(v, k) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v, key) for v in obj]
    return obj


def _emit(report: dict) -> None:
    print(json.dumps(_encode(report), indent=2, sort_keys=True), flush=True)


_TYPES = {
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                          or isinstance(x, float) and x.is_integer()),
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
# violation inside a subschema.  "then" and "else" are read by "if".
_KEYWORDS = {
    "$ref": (None, lambda v, x, node, root, path: _walk(_ref(v, root), x, root, path)),
    "type": (None, _type),
    "enum": (None, lambda v, x, *_: None if any(_same(x, e) for e in v)
             else f"{x!r} is not one of {v!r}"),
    "const": (None, lambda v, x, *_: None if _same(x, v) else f"{v!r} was expected"),
    "allOf": (None, lambda v, x, node, root, path: _first(
        _walk(s, x, root, path) for s in v)),
    "if": (None, lambda v, x, node, root, path: _walk(
        node.get("else" if _walk(v, x, root, path) else "then", True), x, root, path)),
    "then": (None, lambda *_: None),
    "else": (None, lambda *_: None),
    "pattern": (str, lambda v, x, *_: None if re.search(v, x)
                else f"{x!r} does not match {v!r}"),
    "required": (dict, lambda v, x, *_: next(
        (f"{k!r} is a required property" for k in v if k not in x), None)),
    "properties": (dict, lambda v, x, node, root, path: _first(
        _walk(s, x[k], root, (*path, k)) for k, s in v.items() if k in x)),
    "additionalProperties": (dict, _additional),
    "items": (list, lambda v, x, node, root, path: _first(
        _walk(v, e, root, (*path, i)) for i, e in enumerate(x))),
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
    even inside an ``if``, whose verdict is negated.
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
    from decimal import Decimal

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


def _ivp_from_json(spec):
    _need("ivpoly")
    if isinstance(spec, list):
        return IntegerValuedPoly([int(c) for c in spec])
    coeffs = [int(c) for c in spec["coeffs"]]
    if spec["basis"] == "monomial":
        return monomials_to_ivp(coeffs)
    return IntegerValuedPoly(coeffs)


def _parse_coeff_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"--f takes comma-separated integers, got {text!r}") from None


def _nonnegative(**flags) -> None:
    # checked here so that the error names the flag and the value given
    for flag, value in flags.items():
        if value < 0:
            raise ValueError(f"-{flag} must be >= 0, got {value}")


# --- subcommands ------------------------------------------------------------

def cmd_fleck(args, report: dict) -> int:
    _nonnegative(n=args.n)
    _need("fleck", "ivpoly", "padic")
    f = IntegerValuedPoly(_parse_coeff_list(args.f) if args.f is not None else [1])
    report.update(kind="fleck", results={},
                  instance={"p": args.p, "a": args.a, "n": args.n, "r": args.r,
                            "f": list(f.coeffs)})
    lemma = check_lemma21(args.n, args.r, PrimePower(args.p, args.a), f)
    report["results"] = lemma._asdict()
    if lemma.valuation is None:
        report["results"]["valuation"] = "inf"
    return EXIT_OK if lemma.all_satisfied else EXIT_VIOLATION


def cmd_bounds(args, report: dict) -> int:
    _nonnegative(n=args.n, l=args.l)
    _need("fleck", "padic", "wilson")
    # max_degree is read from wilson, not from this module: the tracer wraps
    # wilson.max_degree before it reads cli.max_degree, so reading an unbound
    # cli.max_degree binds the tracer's wrapper, which outlives the tracer
    from . import wilson

    report.update(kind="bounds", results={},
                  instance={"p": args.p, "a": args.a, "n": args.n, "l": args.l,
                            "b": args.b})
    pp = PrimePower(args.p, args.a)
    results = {
        "wan": wan_bound(args.n, pp, args.l),
        "factorial": factorial_bound(args.n, pp, args.l),
        "M": bound_M(args.n, pp, args.l),
        **classical_bounds(args.n, pp),
    }
    if args.b is not None:  # a refused bisection leaves the results empty
        results["max_degree"] = wilson.max_degree(pp, args.l, args.b)
    report["results"] = results
    return EXIT_OK


def cmd_synthesize(args, report: dict) -> int:
    doc = _load_instance(args.instance, {"synthesize"})
    _need("padic", "wilson")
    report.update(kind="synthesize", instance=doc, results={})
    p, a = int(doc["p"]), int(doc["a"])
    refuse_unprintable_power("p^a", p, a)  # g's length would name it
    with ceiling(int(doc["ceiling"]) if "ceiling" in doc else None):
        pp = PrimePower(p, a)
        f = _ivp_from_json(doc["f"])
        g = ResidueTable(pp, [int(v) for v in doc["g"]])
        P = synthesize(pp, int(doc["b"]), f, g)
        check = verify_theorem11(P, f, g)
    report["results"] = {
        "coeffs": list(P.coeffs),
        "bound_records": list(P.bound_records),
        "degree": P.degree,
        "verified": check.ok,
        "checked_points": check.checked,
        "counterexample": check.counterexample,
    }
    return EXIT_OK if check.ok else EXIT_VIOLATION


def _polys(doc) -> list:
    _need("multipoly")
    n_vars = int(doc["n_vars"])
    return [parse_poly(text, n_vars) for text in doc["polynomials"]]


def _congruence_system(doc):
    from .axkatz import CongruenceSystem, Constraint

    _need("multipoly")
    n_vars = int(doc["n_vars"])
    constraints = tuple(
        Constraint(f=parse_poly(c["f"], n_vars),
                   a=int(c["a"]),
                   F=_ivp_from_json(c["F"]),
                   l=int(c["l"]) if "l" in c else None)
        for c in doc["constraints"])
    return CongruenceSystem(p=int(doc["p"]), b=int(doc["b"]),
                            n_vars=n_vars, constraints=constraints)


# count kind -> verifier call (axkatz, doc, exact); cmd_count imports axkatz,
# the engines, and passes it in.  chevalley calls axkatz, which calls
# corollary11, which calls theorem12: one hypothesis judges all four.  Only
# theorem12 and corollary11 have a modular engine for `exact` to switch off.
# The polynomial kinds pass n_vars, which an empty polynomial list cannot carry.
_COUNT_KINDS = {
    "theorem12": lambda axkatz, doc, exact: axkatz.verify_theorem12(
        _congruence_system(doc), exact=exact),
    "corollary11": lambda axkatz, doc, exact: axkatz.corollary11_verify(
        _polys(doc), int(doc["a"]), int(doc["b"]), list(map(int, doc["ls"])),
        int(doc["p"]), exact=exact, n_vars=int(doc["n_vars"])),
    "chevalley": lambda axkatz, doc, exact: axkatz.chevalley_warning_verify(
        _polys(doc), int(doc["p"]), n_vars=int(doc["n_vars"])),
    "axkatz": lambda axkatz, doc, exact: axkatz.axkatz_prime_verify(
        _polys(doc), int(doc["b"]), int(doc["p"]), n_vars=int(doc["n_vars"])),
    "lemma22": lambda axkatz, doc, exact: axkatz.lemma22_verify(
        _polys(doc), list(map(int, doc["js"])), int(doc["c"]), int(doc["p"]),
        n_vars=int(doc["n_vars"])),
}


def cmd_count(args, report: dict) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    doc = _load_instance(args.instance, _COUNT_KINDS)
    from . import axkatz

    kind = doc["kind"]
    exact = args.exact or doc.get("exact_mode", False)
    report.update(kind=kind, instance=doc, workers=args.workers, results={})
    with ceiling(args.ceiling if args.ceiling is not None else
                 int(doc["ceiling"]) if "ceiling" in doc else None):
        verdict = _COUNT_KINDS[kind](axkatz, doc, exact)
    report["verdict"] = verdict._asdict()
    return EXIT_OK


def cmd_sweep(args, report: dict) -> int:
    if args.budget is not None and not 0 <= args.budget < math.inf:  # nan too
        raise ValueError(f"--budget must be finite and >= 0, got {args.budget}")
    if args.rounds < 0:
        raise ValueError(f"--rounds must be >= 0, got {args.rounds}")
    import random

    from . import sweeps

    report.update(kind="sweep", results={},
                  instance={"seed": args.seed, "rounds": args.rounds,
                            "budget": None if args.budget is None else str(args.budget)})
    result = sweeps.run_sweeps(random.Random(args.seed), rounds=args.rounds,
                               budget=args.budget)
    report["results"] = {
        "instances": result.log,
        "violations": result.violations,
        "truncated": result.truncated,
        "ok": result.ok,
    }
    return EXIT_OK if result.ok else EXIT_VIOLATION


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

    p_bounds = sub.add_parser("bounds", parents=[timed],
                              help="print valuation bounds at one degree")
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
    report: dict = {}
    try:
        code = args.func(args, report)
    except CeilingExceeded as exc:
        report["error"] = f"enumeration ceiling exceeded: {exc.required} steps needed"
        code = EXIT_CEILING
    except TheoremViolation as exc:
        report["error"] = str(exc)
        code = EXIT_VIOLATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.timing:
        report["timing"] = {"wall_seconds": time.monotonic() - t0}
    try:
        _emit(report)
    except ValueError as exc:  # a value too long to print, refused unprinted
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION if code == EXIT_VIOLATION else EXIT_USAGE
    except BrokenPipeError:
        pass  # stdout's reader has gone, so the exit code alone answers (see run)
    return code


def run() -> int:
    """``main`` as the whole process: the entry point of ``python -m
    fleckforge.cli`` and of the ``fleckforge`` script.

    Everything alive once the CLI is imported, and again once the report
    is out, lives until exit, so both points move it to the permanent
    generation: the cyclic collector then never walks it again, neither
    during the request nor at interpreter exit.  Finalization still runs
    as usual, with its flushes and atexit hooks; stdout whose reader has
    gone moves to os.devnull first, so that the exit code stands.
    """
    gc.freeze()
    try:
        return main()
    finally:
        gc.freeze()
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())


if __name__ == "__main__":
    sys.exit(run())

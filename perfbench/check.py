"""Answer checks, kept out of every timing.

Count answers are compared with an independent reference engine that
shares no code with fleckforge: it splits the variables into the
connected components of their interaction graph, enumerates each
component alone into a histogram of polynomial values modulo
gate * p^span, combines the histograms by cyclic convolution, and
applies the gate and weight tables once per residue.  The weight of a
value v is F(v / gate) mod target, which depends only on v mod
gate * p^span because C(t, i) mod p^b has period p^(b + ord_p(i!)) in t.
"""
from __future__ import annotations

import json
import math

import jsonschema
import numpy as np

from gen import Request, components

_CHUNK = 1 << 18
MAX_STATES = 1 << 22  # histogram entries; bounds the reference engine's memory


def gbinom(x: int, k: int) -> int:
    """C(x, k) for any integer x and k >= 0."""
    num = 1
    for i in range(k):
        num *= x - i
    return num // math.factorial(k)


def eval_binomial_basis(coeffs, x: int) -> int:
    return sum(c * gbinom(x, i) for i, c in enumerate(coeffs))


def _weight_table(con: dict, p: int, target: int) -> np.ndarray:
    gate = con["gate"]
    period = p ** con["span"]
    kind = con["weight"][0]
    if kind == "one":
        weights = [1] * period
    else:
        coeffs = con["weight"][1]
        weights = [sum(c * math.comb(t, i) for i, c in enumerate(coeffs)) % target
                   for t in range(period)]
    table = np.zeros(gate * period, dtype=np.int64)
    table[::gate] = weights  # values not divisible by the gate weigh 0
    return table


def _component_histogram(p, comp, polys, mods) -> np.ndarray:
    """Counts of (f_1 mod m_1, ...) over the points of one component."""
    s = len(comp)
    pos = {v: j for j, v in enumerate(comp)}
    local = []  # per polynomial: [(coeff mod m, [(digit index, exponent)])]
    for terms, m in zip(polys, mods):
        mine = []
        for exps, c in terms.items():
            used = [(i, e) for i, e in enumerate(exps) if e]
            if used and used[0][0] in pos:
                mine.append((c % m, [(pos[i], e) for i, e in used]))
        local.append(mine)
    size = int(np.prod(mods))
    strides = [int(np.prod(mods[k + 1:])) for k in range(len(mods))]
    hist = np.zeros(size, dtype=np.int64)
    total = p ** s
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        digits = [(idx // p ** j) % p for j in range(s)]
        flat = np.zeros(len(idx), dtype=np.int64)
        for terms, m, stride in zip(local, mods, strides):
            val = np.zeros(len(idx), dtype=np.int64)
            for c, factors in terms:
                t = np.full(len(idx), c, dtype=np.int64)
                for j, e in factors:
                    powers = np.array([pow(x, e, m) for x in range(p)], dtype=np.int64)
                    t = t * powers[digits[j]] % m
                val = (val + t) % m
            flat += val * stride
        hist += np.bincount(flat, minlength=size)
    return hist.reshape(mods)


def reference_residue(system: dict) -> int:
    """sum over the cube of prod_k weight_k(f_k(x)), mod the target."""
    p, n, target = system["p"], system["n"], system["target"]
    cons = system["constraints"]
    polys = [c["terms"] for c in cons]
    mods = [c["gate"] * p ** c["span"] for c in cons]
    if math.prod(mods) > MAX_STATES:
        raise ValueError(f"reference histogram of {math.prod(mods)} states is too large")
    hist = None
    for comp in components(n, polys):
        h = _component_histogram(p, comp, polys, mods)
        if hist is None:
            hist = h
            continue
        acc = np.zeros_like(hist)
        for idx in zip(*np.nonzero(h)):
            acc += h[idx] * np.roll(hist, idx, axis=tuple(range(len(mods))))
        hist = acc
    constants = [terms.get((0,) * n, 0) % m for terms, m in zip(polys, mods)]
    hist = np.roll(hist, constants, axis=tuple(range(len(mods)))) % target
    weight = np.ones(mods, dtype=np.int64)
    for k, con in enumerate(cons):
        shape = [1] * len(mods)
        shape[k] = mods[k]
        weight = weight * _weight_table(con, p, target).reshape(shape) % target
    return int((hist * weight % target).sum()) % target


def restricted_sum(n: int, r: int, p: int, a: int, f) -> int:
    q = p ** a
    return sum((-1) ** k * math.comb(n, k) * eval_binomial_basis(f, (k - r) // q)
               for k in range(r % q, n + 1, q))


def prepare(requests: list[Request]) -> None:
    """Compute every reference answer once per instance, before any timing."""
    cache: dict[int, int] = {}
    for req in requests:
        if req.kind == "count":
            key = id(req.system)
            if key not in cache:
                cache[key] = reference_residue(req.system)
            req.expect["residue"] = cache[key]
        elif req.kind == "fleck":
            e = req.expect
            e["sum"] = restricted_sum(e["n"], e["r"], e["p"], e["a"], e["f"])


# --- report checks -----------------------------------------------------------

def residue(verdict: dict) -> int:
    """The verdict's value mod its claimed modulus.

    ``sum`` holds the residue on the modular engine and the full sum on
    the exact engine; a separate ``residue`` field wins when present.
    """
    value = verdict["residue"] if "residue" in verdict else verdict["sum"]
    return int(value) % int(verdict["claimed_modulus"])


def _check_count(req: Request, report: dict) -> str | None:
    verdict = report.get("verdict")
    if not isinstance(verdict, dict):
        return "report has no verdict"
    if int(verdict["claimed_modulus"]) != req.expect["modulus"]:
        return f"claimed modulus {verdict['claimed_modulus']} != {req.expect['modulus']}"
    got = residue(verdict)
    if got != req.expect["residue"]:
        return f"residue {got} != reference {req.expect['residue']}"
    if verdict["divisible"] != (got == 0):
        return "divisible flag contradicts the residue"
    return None


def _check_synthesize(req: Request, report: dict) -> str | None:
    res = report["results"]
    if res.get("verified") is not True:
        return "synthesized polynomial not verified"
    doc = req.doc
    p, a, b = doc["p"], doc["a"], doc["b"]
    q, mod = p ** a, p ** b
    coeffs = [int(c) for c in res["coeffs"]]
    f = [int(c) for c in doc["f"]["coeffs"]]
    g = [int(v) for v in doc["g"]]
    for k in range(-3, 4):
        for r in range(q):
            if (eval_binomial_basis(coeffs, q * k + r) - eval_binomial_basis(f, k) * g[r]) % mod:
                return f"P({q}*{k}+{r}) != f({k}) g({r}) mod {mod}"
    return None


def _check_fleck(req: Request, report: dict) -> str | None:
    res = report["results"]
    if int(res["sum"]) != req.expect["sum"]:
        return f"restricted sum {res['sum']} != {req.expect['sum']}"
    if not all(res["satisfied"].values()):
        return "a valuation bound is reported unsatisfied"
    return None


def _check_bounds(req: Request, report: dict) -> str | None:
    p, a, n, l = (req.expect[k] for k in ("p", "a", "n", "l"))
    wan = (n - l * p ** a - p ** (a - 1)) // (p ** a - p ** (a - 1))
    res = report["results"]
    if int(res["wan"]) != wan:
        return f"wan bound {res['wan']} != {wan}"
    if "max_degree" not in res:
        return "max_degree missing"
    return None


def _check_sweep(req: Request, report: dict) -> str | None:
    res = report["results"]
    if res.get("ok") is not True or res.get("truncated") is not False:
        return f"sweep ok={res.get('ok')} truncated={res.get('truncated')}"
    if res.get("violations") or not res.get("instances"):
        return "sweep logged violations or no instances"
    return None


_CHECKS = {"count": _check_count, "synthesize": _check_synthesize,
           "fleck": _check_fleck, "bounds": _check_bounds, "sweep": _check_sweep}


def check(req: Request, code: int, stdout: str, schema: dict) -> str | None:
    """None when the answer is right, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not a JSON report"
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as exc:
        return f"report fails report.schema.json: {exc.message}"
    try:
        return _CHECKS[req.kind](req, report)
    except (KeyError, TypeError, ValueError) as exc:
        return f"report field missing or malformed: {exc!r}"


def same_apart_from_workers(a: str, b: str) -> bool:
    """Reports equal once the echoed worker count is dropped."""
    ra, rb = json.loads(a), json.loads(b)
    ra.pop("workers", None)
    rb.pop("workers", None)
    return ra == rb


def sweep_log(stdout: str) -> list:
    return json.loads(stdout)["results"]["instances"]

"""Seeded workload generator.

``build(workload, seed, workdir)`` writes schema-valid instance files
into ``workdir`` and returns one pass (a "cycle") over the workload's
requests.  The same (workload, seed) always gives byte-identical files
and the same argument lists.  Each request carries, apart from what is
sent to the program, the data the answer check needs and the work the
instance implies (cube points, 2^16-point chunks, F-table entries and
connected components of the variable-interaction graph), all derived
from the instance alone.

Instance shapes are fixed per workload; the seed draws coefficients,
residue tables and sweep seeds.  That keeps the cost of a cycle nearly
the same for every seed, so runs with different seeds are comparable.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

WORKLOADS = {
    "cube": "theorem12/corollary11 counts on the numpy modular engine (n=12-14) and "
            "chevalley, axkatz, lemma22 and theorem12 --exact on the big-integer walk "
            "(n=10-11), p=3, at 1 and 2 workers",
    "short": "many short requests: every subcommand on small inputs, then seeded sweeps; "
             "start-up, import, validation, F-table prep and scalar big-integer work",
}

CHUNK = 1 << 16  # the modular engine's fixed chunk size, used for the computed chunk count
SWEEP_REQUESTS = 24
SWEEP_ROUNDS = 1


@dataclass
class Request:
    """One fleckforge invocation and what its answer is checked against."""

    name: str
    argv: list
    kind: str
    workers: int | None = None
    doc: dict | None = None        # the instance document, for count/synthesize
    system: dict | None = None     # count: the cube sum, for the reference engine
    expect: dict = field(default_factory=dict)
    points: int = 0
    chunks: int = 0
    table_entries: int = 0
    components: int = 0


# --- polynomials as {exponent tuple: coefficient} ---------------------------

def mono(n: int, *idx: int) -> tuple:
    e = [0] * n
    for i in idx:
        e[i] += 1
    return tuple(e)


def render(terms: dict) -> str:
    """Text in the CLI's polynomial grammar."""
    parts = []
    for exps, c in sorted(terms.items(), reverse=True):
        factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                   for i, e in enumerate(exps) if e]
        body = "*".join([str(abs(c))] + factors) if abs(c) != 1 or not factors \
            else "*".join(factors)
        parts.append(("-" if c < 0 else "+", body))
    text = " ".join(f"{s} {b}" for s, b in parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def components(n: int, polys) -> list[list[int]]:
    """Connected components of the graph linking variables that share a term,
    largest first."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for terms in polys:
        for exps in terms:
            used = [i for i, e in enumerate(exps) if e]
            for i in used[1:]:
                parent[find(i)] = find(used[0])
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=len, reverse=True)


def ord_factorial(m: int, p: int) -> int:
    total, q = 0, p
    while q <= m:
        total += m // q
        q *= p
    return total


def _coeff(rng, p: int) -> int:
    return rng.choice([c for c in range(-4, 5) if c % p])


def _sparse(rng, n: int, p: int, linear: int, quadratic: int, shape=None) -> dict:
    """Random sparse polynomial.  Which variables each term uses is drawn
    from ``shape`` (default ``rng``), the coefficients from ``rng``: the
    substitution walk's cost depends on where the terms sit, so a
    workload that draws positions from a seed-independent ``shape``
    costs the same for every seed."""
    shape = shape or rng
    terms = {mono(n, i): _coeff(rng, p) for i in shape.sample(range(n), linear)}
    while quadratic:
        key = mono(n, *shape.sample(range(n), 2))
        if key not in terms:
            terms[key] = _coeff(rng, p)
            quadratic -= 1
    return terms


def _separable(rng, n: int, p: int, pairs) -> dict:
    """The criterion-8 shape: a full linear form plus a few disjoint products."""
    terms = {mono(n, i): _coeff(rng, p) for i in range(n)}
    for i, j in pairs:
        terms[mono(n, i, j)] = _coeff(rng, p)
    return terms


def _chain(rng, n: int, p: int) -> dict:
    terms = {mono(n, i, i + 1): _coeff(rng, p) for i in range(n - 1)}
    terms.update({mono(n, i): _coeff(rng, p) for i in range(n)})
    return terms


def _quadratic_form(rng, n: int, p: int) -> dict:
    terms = {mono(n, i, j): _coeff(rng, p) for i in range(n) for j in range(i, n)}
    terms[mono(n)] = 1
    return terms


def _ivp(rng, degree: int) -> list:
    coeffs = [rng.randint(-5, 5) for _ in range(degree + 1)]
    coeffs[-1] = rng.choice([-2, -1, 1, 2, 3])
    return coeffs


# --- count instances ---------------------------------------------------------

def _theorem12(rng, p, b, n, polys, a=1, degree=1):
    cons = [{"terms": t, "a": a, "F": _ivp(rng, degree), "l": degree} for t in polys]
    doc = {"kind": "theorem12", "p": p, "b": b, "n_vars": n,
           "constraints": [{"f": render(c["terms"]), "a": c["a"],
                            "F": {"basis": "binomial",
                                  "coeffs": [str(x) for x in c["F"]]},
                            "l": c["l"]} for c in cons]}
    system = {"p": p, "n": n, "target": p ** b,
              "constraints": [{"terms": c["terms"], "gate": p ** c["a"],
                               "weight": ("ivp", c["F"]),
                               "span": b + ord_factorial(c["l"], p)}
                              for c in cons]}
    return doc, system


def _corollary11(p, a, b, n, polys, ls):
    doc = {"kind": "corollary11", "p": p, "a": a, "b": b, "n_vars": n,
           "ls": ls, "polynomials": [render(t) for t in polys]}
    system = {"p": p, "n": n, "target": p ** b,
              "constraints": [{"terms": t, "gate": p ** a,
                               "weight": ("ivp", [0] * l + [1]),
                               "span": b + ord_factorial(l, p)}
                              for t, l in zip(polys, ls)]}
    return doc, system


def _zero_count(kind, p, n, polys, b=1):
    doc = {"kind": kind, "p": p, "n_vars": n,
           "polynomials": [render(t) for t in polys]}
    if kind == "axkatz":
        doc["b"] = b
    # common zeros mod p, counted mod the claimed modulus p^b
    system = {"p": p, "n": n, "target": p ** b,
              "constraints": [{"terms": t, "gate": p, "weight": ("one",),
                               "span": 0} for t in polys]}
    return doc, system


def _lemma22(p, c, n, polys, js):
    doc = {"kind": "lemma22", "p": p, "c": c, "n_vars": n, "js": js,
           "polynomials": [render(t) for t in polys]}
    system = {"p": p, "n": n, "target": p ** c,
              "constraints": [{"terms": t, "gate": 1,
                               "weight": ("ivp", [0] * j + [1]),
                               "span": c + ord_factorial(j, p)}
                              for t, j in zip(polys, js)]}
    return doc, system


class _Cycle:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.requests: list[Request] = []

    def write(self, name: str, doc: dict) -> str:
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True))
        return str(path)

    def count(self, name, doc, system, workers=(1,), exact=False):
        path = self.write(name, doc)
        p, n = system["p"], system["n"]
        modular = doc["kind"] in ("theorem12", "corollary11") and not exact
        entries = sum(p ** c["span"] for c in system["constraints"]) if modular else 0
        for w in workers:
            argv = ["count", path, "--workers", str(w)] + (["--exact"] if exact else [])
            self.requests.append(Request(
                name=f"{name}.w{w}", argv=argv, kind="count", workers=w,
                doc=doc, system=system, expect={"modulus": system["target"]},
                points=p ** n, chunks=-(-p ** n // CHUNK) if modular else 0,
                table_entries=entries,
                components=len(components(n, [c["terms"] for c in system["constraints"]]))))


def _cli_small(rng, shape, out: _Cycle):
    """Every subcommand on small inputs; about 20 requests per cycle."""
    sparse = partial(_sparse, rng, shape=shape)
    for i in range(2):
        out.count(f"t12-small{i}", *_theorem12(rng, 3, 2, 6, [sparse(6, 3, 4, 3)]))
    out.count("c11-p2", *_corollary11(2, 1, 2, 8,
                                       [sparse(8, 2, 4, 3), sparse(8, 2, 3, 2)],
                                       [0, 1]))
    out.count("c11-p3", *_corollary11(3, 1, 2, 5, [sparse(5, 3, 3, 2)], [1]))
    for i in range(2):
        out.count(f"chev{i}", *_zero_count("chevalley", 3, 6,
                                            [sparse(6, 3, 3, 2) for _ in range(2)]))
        out.count(f"axk{i}", *_zero_count("axkatz", 2, 9,
                                           [sparse(9, 2, 4, 2) for _ in range(2)], b=2))
        out.count(f"l22-{i}", *_lemma22(3, 2, 5,
                                        [sparse(5, 3, 3, 2) for _ in range(2)], [1, 2]))
    # high-b F tables on a 16-point cube: table prep, not per-point work, dominates
    for b in (12, 14, 16):
        out.count(f"t12-b{b}", *_theorem12(rng, 2, b, 4, [sparse(4, 2, 3, 1)]))
    for i, (p, a, b) in enumerate(((2, 2, 3), (3, 1, 2), (5, 1, 3))):
        q = p ** a
        doc = {"kind": "synthesize", "p": p, "a": a, "b": b,
               "f": {"basis": "binomial", "coeffs": [str(c) for c in _ivp(rng, 1)]},
               "g": [str(rng.randint(-50, 50)) for _ in range(q)]}
        path = out.write(f"synth{i}", doc)
        out.requests.append(Request(name=f"synth{i}", argv=["synthesize", path],
                                    kind="synthesize", doc=doc))
    for i, (p, a) in enumerate(((2, 1), (3, 2))):
        n = rng.randint(30, 60)
        params = {"p": p, "a": a, "n": n, "r": rng.randint(-n, n), "f": _ivp(rng, 2)}
        argv = ["fleck", "-p", str(p), "-a", str(a), "-n", str(n), "-r", str(params["r"]),
                "--f=" + ",".join(map(str, params["f"]))]
        out.requests.append(Request(name=f"fleck{i}", argv=argv, kind="fleck",
                                    expect=params))
    for i, (p, a) in enumerate(((2, 1), (5, 2))):
        params = {"p": p, "a": a, "n": rng.randint(10, 200), "l": rng.randint(0, 3)}
        argv = ["bounds", "-p", str(p), "-a", str(a), "-n", str(params["n"]),
                "-l", str(params["l"]), "-b", str(rng.randint(1, 4))]
        out.requests.append(Request(name=f"bounds{i}", argv=argv, kind="bounds",
                                    expect=params))


def _cube_modular(rng, shape, out: _Cycle):
    both = (1, 2)
    out.count("t12-sep14", *_theorem12(
        rng, 3, 2, 14, [_separable(rng, 14, 3, [(0, 1), (2, 3), (4, 5)])]), both)
    out.count("c11-sep13", *_corollary11(
        3, 1, 2, 13, [_separable(rng, 13, 3, [(0, 1), (2, 3)]),
                      _separable(rng, 13, 3, [(4, 5)])], [1, 0]), both)
    out.count("t12-chain13", *_theorem12(rng, 3, 2, 13, [_chain(rng, 13, 3)]), both)
    out.count("c11-quad12", *_corollary11(
        3, 1, 2, 12, [_quadratic_form(rng, 12, 3)], [1]), both)


def _cube_exact(rng, shape, out: _Cycle):
    sparse = partial(_sparse, rng, shape=shape)
    both = (1, 2)
    n = 11
    out.count("chev11", *_zero_count(
        "chevalley", 3, n, [sparse(n, 3, 5, 3) for _ in range(2)]), both)
    out.count("axk11", *_zero_count(
        "axkatz", 3, n, [sparse(n, 3, 5, 3) for _ in range(2)], b=2), both)
    out.count("l22-11", *_lemma22(
        3, 2, n, [sparse(n, 3, 5, 3), sparse(n, 3, 5, 2)], [1, 2]), both)
    out.count("t12x-10", *_theorem12(rng, 3, 2, 10, [sparse(10, 3, 10, 4)]),
              both, exact=True)


def _sweep(rng, shape, out: _Cycle):
    for i in range(SWEEP_REQUESTS):
        seed = rng.randrange(1 << 31)
        out.requests.append(Request(
            name=f"sweep{i}", argv=["sweep", "--seed", str(seed),
                                    "--rounds", str(SWEEP_ROUNDS)],
            kind="sweep"))


# each workload is a cycle made of two parts, run one after the other
_PARTS = {"cube": (_cube_modular, _cube_exact), "short": (_cli_small, _sweep)}


def build(workload: str, seed: int, workdir: Path) -> list[Request]:
    """Write the workload's instance files and return one cycle of requests."""
    workdir.mkdir(parents=True, exist_ok=True)
    out = _Cycle(workdir)
    for part in _PARTS[workload]:
        name = part.__name__.lstrip("_")
        rng = random.Random(f"{name}/{seed}")
        shape = random.Random(f"{name}/shape")  # the same for every seed
        part(rng, shape, out)
    return out.requests


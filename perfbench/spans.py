"""Spans at fleckforge's module boundaries, recorded from outside the package.

The modules bind each other's functions with ``from .x import y``, so a
wrapper has to replace the name where the caller looks it up (for
example ``fleckforge.fleck.binom_int``), not the definition.  Calls a
module makes to its own functions through its globals (verify_theorem12
calling theorem12_sum, check_lemma21 calling restricted_sum) are caught
the same way.  ``run_sweeps`` walks the ``DEFAULT_PLAN`` tuple, so the
sweeps are wrapped by replacing that tuple.

Spans are kept in flat arrays (name, start, end, parent, request) and
written out once, after the run.  A span's self time is its duration
minus the durations of its direct children.
"""
from __future__ import annotations

import gzip
from array import array
from contextlib import contextmanager
from importlib import import_module
from time import perf_counter

from gen import CHUNK, ord_factorial

_VERIFIERS = ("verify_theorem12", "corollary11_verify", "chevalley_warning_verify",
              "axkatz_prime_verify", "lemma22_verify")

# span name -> the (module, attribute) pairs through which callers reach it
BOUNDARIES = {
    "cli.load_validate": [("cli", "_load_instance")],
    "cli.emit": [("cli", "_emit")],
    "multipoly.parse_poly": [("cli", "parse_poly")],
    "multipoly.fold_poly_values": [("axkatz", "fold_poly_values")],
    "axkatz.theorem12_sum": [("axkatz", "theorem12_sum")],
    "axkatz.verify": [("axkatz", v) for v in _VERIFIERS]
    + [("sweeps", "verify_theorem12"), ("sweeps", "lemma22_verify")],
    "ivpoly.eval_ivp": [("axkatz", "eval_ivp"), ("fleck", "eval_ivp"),
                        ("wilson", "eval_ivp")],
    "ivpoly.forward_differences": [("wilson", "forward_differences")],
    "padic.binom_int": [("axkatz", "binom_int"), ("fleck", "binom_int"),
                        ("ivpoly", "binom_int")],
    "fleck.restricted_sum": [("fleck", "restricted_sum"), ("sweeps", "restricted_sum")],
    "fleck.gkp_identity_check": [("sweeps", "gkp_identity_check")],
    "wilson.max_degree": [("wilson", "max_degree"), ("cli", "max_degree")],
    "wilson.synthesize": [("cli", "synthesize"), ("sweeps", "synthesize")],
    "wilson.verify_theorem11": [("cli", "verify_theorem11"),
                                ("sweeps", "verify_theorem11")],
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.request_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.request = 0
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []  # open spans: [index, time covered by children]
        self._patches: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self.ids[name]

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, before=None, after=None):
        """fn with a span around each call; hooks see the arguments."""
        nid = self._id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.request_of.append(self.request)
            self.start.append(0.0)
            self.end.append(0.0)
            frame = [idx, 0.0]
            token = self._hook(name, before, args, kwargs) if before else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                if stack:
                    stack[-1][1] += t1 - t0
                own = t1 - t0 - frame[1]
                self.calls[nid] += 1
                self.self_s[nid] += own
                if after:
                    self._hook(name, after, token, args, kwargs, own)

        return traced

    def _hook(self, name: str, hook, *args):
        """Run a counting hook; arguments of another shape lose the counts, not the call."""
        try:
            return hook(*args)
        except (AttributeError, IndexError, TypeError) as exc:
            note = f"{name} counts ({exc})"
            if note not in self.absent:
                self.absent.append(note)
            return None

    def _patch(self, module, attr: str, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the originals on exit."""
        mods = {m: import_module(f"fleckforge.{m}")
                for m in ("cli", "axkatz", "fleck", "wilson", "ivpoly", "sweeps")}
        hooks = {"axkatz.theorem12_sum": (self._t12_before, self._t12_after),
                 "multipoly.fold_poly_values": (None, self._fold_after)}
        try:
            for name, sites in BOUNDARIES.items():
                before, after = hooks.get(name, (None, None))
                for mod, attr in sites:
                    if hasattr(mods[mod], attr):
                        self._patch(mods[mod], attr,
                                    self.wrap(name, getattr(mods[mod], attr), before, after))
                    elif f"{mod}.{attr}" not in self.absent:
                        self.absent.append(f"{mod}.{attr}")
            plan = getattr(mods["sweeps"], "DEFAULT_PLAN", None)
            if plan is None:
                self.absent.append("sweeps.DEFAULT_PLAN")
            else:
                self._patch(mods["sweeps"], "DEFAULT_PLAN", tuple(
                    (self._wrap_sweep(fn), iterations) for fn, iterations in plan))
            yield self
        finally:
            while self._patches:
                module, attr, original = self._patches.pop()
                setattr(module, attr, original)

    # --- computed counts -----------------------------------------------------

    def _t12_before(self, args, kwargs):
        return self.calls[self._id("multipoly.fold_poly_values")]

    def _t12_after(self, folds_before, args, kwargs, own):
        exact = kwargs.get("exact", args[2] if len(args) > 2 else False)
        if exact:
            return
        if self.calls[self._id("multipoly.fold_poly_values")] > folds_before:
            self.add("axkatz.exact_fallbacks", 1)
            return
        system = args[0]
        p, b = system.p, system.b
        points = p ** system.n_vars
        self.add("axkatz.modular.points", points)
        self.add("axkatz.modular.chunks", -(-points // CHUNK))
        self.add("axkatz.modular.self_s", own)
        for c in system.constraints:
            degree = len(c.F.coeffs) - 1
            l_eff = max(c.l if c.l is not None else degree, degree, 0)
            self.add("axkatz.modular.table_entries", p ** (b + ord_factorial(l_eff, p)))

    def _fold_after(self, token, args, kwargs, own):
        spec = args[0]
        self.add("multipoly.fold_poly_values.points", spec.p ** spec.n_vars)

    def _wrap_sweep(self, fn):
        name = "sweeps." + fn.__name__.removeprefix("sweep_")

        def before(args, kwargs):
            return len(args[2].log)

        def after(logged_before, args, kwargs, own):
            self.add(f"{name}.instances", len(args[2].log) - logged_before)

        return self.wrap(name, fn, before, after)

    # --- output --------------------------------------------------------------

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("request\tspan\tparent\tname\tstart_s\tend_s\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                out.write(f"{self.request_of[i]}\t{i}\t{self.parent[i]}\t"
                          f"{self.names[self.name_id[i]]}\t{self.start[i] - t0:.9f}\t"
                          f"{self.end[i] - t0:.9f}\n")

    def totals(self, name: str) -> tuple[int, float]:
        """(calls, self seconds) of one span name; zeros if never entered."""
        if name not in self.ids:
            return 0, 0.0
        nid = self.ids[name]
        return self.calls[nid], self.self_s[nid]

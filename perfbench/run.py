"""fleckforge benchmark runner.

    python3 perfbench/run.py --workload cube --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

Run from the root of a source checkout; the program under test is
``src/fleckforge`` of that checkout, started as ``python3 -m
fleckforge.cli``.  One client runs a closed loop: the next request
starts only when the previous report is on stdout.  The loop runs the
workload's cycle of requests round and round until ``--seconds`` have
passed and every request has run once.  Each request's time is its
median over the run, and the metrics weigh every request of the cycle
once, so every run of a workload sees the same mix.  Every report is
checked after the loop, outside every timing.

``--trace 0`` times untraced subprocesses and prints the end-to-end
metrics.  ``--trace 1`` runs one cycle in-process through
``fleckforge.cli.main`` at one worker, each request once untraced and
once with spans at the module boundaries, and prints the per-layer
metrics; the spans are written to ``.perfbench_out/``.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 15
REQUEST_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

SWEEP_NAMES = ("lemma21", "gkp", "partition", "theorem11", "theorem12", "lemma22")
PER_LAYER = {
    "cli.load_validate_s": "s",
    "cli.emit_s": "s",
    "multipoly.parse_poly.calls": "count",
    "multipoly.parse_poly.self_s": "s",
    "multipoly.fold_poly_values.calls": "count",
    "multipoly.fold_poly_values.self_s": "s",
    "multipoly.fold_poly_values.points": "count",
    "multipoly.fold_poly_values.points_per_s": "points/s",
    "axkatz.theorem12_sum.calls": "count",
    "axkatz.theorem12_sum.self_s": "s",
    "axkatz.modular.points": "count",
    "axkatz.modular.chunks": "count",
    "axkatz.modular.table_entries": "count",
    "axkatz.modular.points_per_s": "points/s",
    "axkatz.exact_fallbacks": "count",
    "axkatz.exact_fallbacks.share": "ratio",
    "axkatz.verify.self_s": "s",
    "ivpoly.eval_ivp.calls": "count",
    "ivpoly.eval_ivp.self_s": "s",
    "ivpoly.forward_differences.self_s": "s",
    "padic.binom_int.calls": "count",
    "padic.binom_int.self_s": "s",
    "fleck.restricted_sum.calls": "count",
    "fleck.restricted_sum.self_s": "s",
    "fleck.gkp_identity_check.self_s": "s",
    "wilson.max_degree.self_s": "s",
    "wilson.synthesize.self_s": "s",
    "wilson.verify_theorem11.self_s": "s",
    **{f"sweeps.{s}.{m}": u for s in SWEEP_NAMES
       for m, u in (("self_s", "s"), ("instances", "count"))},
    "trace.requests": "count",
    "trace.spans": "count",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def machine_info() -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "jsonschema": metadata.version("jsonschema")}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("FLECKFORGE_CEILING", None)  # the default ceiling applies to every request
    return env


# --- untraced, end-to-end ----------------------------------------------------

def setup_probe(env) -> float:
    """Seconds from process start until ``import fleckforge.cli`` returns."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c",
                           "import fleckforge.cli; print('ready', flush=True)"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          env=env, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError("fleckforge.cli does not import")
    return elapsed


def run_request(req, env) -> tuple[int, str, float]:
    t0 = perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "fleckforge.cli", *req.argv],
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=REQUEST_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, "", perf_counter() - t0
    return proc.returncode, proc.stdout, perf_counter() - t0


def tail_latency(latencies) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(latencies)
    for pct in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(len(ordered) * pct / 100)  # nearest-rank percentile
        if len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def untraced(workload, requests, seconds, schema, report):
    import check

    env = child_env()
    setup_probe(env)  # compiles bytecode; not counted
    run_request(requests[0], env)  # warms the file cache; not counted
    # The loop runs the cycle's requests in order, round and round, until
    # the time is up and every request has run at least once.  The probes
    # are spread over the window, so they sample the machine's speed
    # across the run, not at one moment.
    setup, runs = [], []
    start = perf_counter()
    while len(runs) < len(requests) or perf_counter() - start < seconds:
        if len(setup) < SETUP_PROBES and \
                perf_counter() - start >= len(setup) * seconds / SETUP_PROBES:
            setup.append(setup_probe(env))
        req = requests[len(runs) % len(requests)]
        runs.append((req, *run_request(req, env)))
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(env))
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    failures = [check.check(req, code, out, schema) for req, code, out, _ in runs]
    for i, (req, code, out, _) in enumerate(runs):
        # a count at 2 workers directly follows the same instance at 1 worker
        if req.workers == 2 and failures[i] is None and failures[i - 1] is None \
                and not check.same_apart_from_workers(runs[i - 1][2], out):
            failures[i] = "report at 2 workers differs from the one at 1 worker"
    first_sweep = next((i for i, (req, *_) in enumerate(runs) if req.kind == "sweep"), None)
    if first_sweep is not None and failures[first_sweep] is None:
        req, _, logged, _ = runs[first_sweep]
        code, out, _ = run_request(req, env)
        if code != 0 or check.sweep_log(out) != check.sweep_log(logged):
            failures[first_sweep] = "the same sweep seed logged different instances"

    latencies = [dt for *_, dt in runs]
    # each request's own median over the run, so every request of the
    # cycle weighs the same however many times it ran
    per_request = [statistics.median(latencies[i::len(requests)])
                   for i in range(len(requests))]
    failed = sum(f is not None for f in failures)
    metrics = {
        "setup_s": statistics.median(setup),
        "latency_p50_s": statistics.median(per_request),
        "wall_s": sum(per_request),
        "peak_rss_mb": peak_kb / 1024,
    }
    for name, value in metrics.items():
        report(name, value, END_TO_END[name])
    tail = tail_latency(latencies)
    if tail:
        report("latency_tail_s", tail[1], "s", f"p{tail[0]:g}, {len(latencies)} samples")
    else:
        report("latency_tail_s", None, "s", f"too few samples ({len(latencies)}) for a tail")
    for w in (1, 2):
        sel = [(r, dt) for r, _, _, dt in runs if r.kind == "count" and r.workers == w]
        if sel and workload == "cube":
            report(f"points_per_s.w{w}", sum(r.points for r, _ in sel) / sum(dt for _, dt in sel),
                   "points/s", f"{len(sel)} requests")
    sweeps = [(out, dt) for (req, _, out, dt), f in zip(runs, failures)
              if req.kind == "sweep" and f is None]
    if sweeps:
        logged = sum(len(check.sweep_log(out)) for out, _ in sweeps)
        report("instances_per_s", logged / sum(dt for _, dt in sweeps), "1/s",
               f"{logged} instances in {len(sweeps)} sweep requests")
    report("failed_frac", failed / len(runs), "ratio", f"{failed} of {len(runs)}")
    report("cycles", len(runs) / len(requests), "count", f"{len(runs)} requests")
    for (req, *_), reason in zip(runs, failures):
        if reason:
            print(f"# FAILED {req.name}: {reason}")
    return len(runs), failed, metrics


# --- traced, per layer -------------------------------------------------------

def in_process(main, argv) -> tuple[int, str, float]:
    """Run the CLI in this process; a crash counts as exit code 1, as it would."""
    out = io.StringIO()
    t0 = perf_counter()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the request failed; the run goes on and reports it
            traceback.print_exc(file=sys.__stderr__)
            code = 1
    return code, out.getvalue(), perf_counter() - t0


def traced(workload, seed, requests, schema, report):
    import check
    from spans import Tracer

    from fleckforge import cli

    tracer = Tracer()
    subset = [r for r in requests if r.workers in (None, 1)]
    plain = with_spans = 0.0
    failures = []
    for i, req in enumerate(subset):
        plain += in_process(cli.main, req.argv)[2]
        tracer.request = i
        with tracer.installed():
            code, out, dt = in_process(cli.main, req.argv)
        with_spans += dt
        failures.append(check.check(req, code, out, schema))
    if tracer.absent:
        print("# not traced (name or argument not found): " + ", ".join(tracer.absent))
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{workload}-seed{seed}.tsv.gz")

    m = {}
    for name in ("cli.load_validate", "cli.emit"):
        m[name + "_s"] = tracer.totals(name)[1]
    for name in ("multipoly.parse_poly", "multipoly.fold_poly_values",
                 "axkatz.theorem12_sum", "ivpoly.eval_ivp", "padic.binom_int",
                 "fleck.restricted_sum"):
        m[name + ".calls"], m[name + ".self_s"] = tracer.totals(name)
    for name in ("axkatz.verify", "ivpoly.forward_differences", "fleck.gkp_identity_check",
                 "wilson.max_degree", "wilson.synthesize", "wilson.verify_theorem11",
                 *(f"sweeps.{s}" for s in SWEEP_NAMES)):
        m[name + ".self_s"] = tracer.totals(name)[1]
    counts = tracer.counts
    for s in SWEEP_NAMES:
        m[f"sweeps.{s}.instances"] = counts.get(f"sweeps.{s}.instances", 0)
    for key in ("multipoly.fold_poly_values.points", "axkatz.modular.points",
                "axkatz.modular.chunks", "axkatz.modular.table_entries",
                "axkatz.exact_fallbacks"):
        m[key] = counts.get(key, 0)
    fold_s = m["multipoly.fold_poly_values.self_s"]
    m["multipoly.fold_poly_values.points_per_s"] = \
        m["multipoly.fold_poly_values.points"] / fold_s if fold_s else 0.0
    modular_s = counts.get("axkatz.modular.self_s", 0.0)
    m["axkatz.modular.points_per_s"] = m["axkatz.modular.points"] / modular_s if modular_s else 0.0
    t12 = m["axkatz.theorem12_sum.calls"]
    m["axkatz.exact_fallbacks.share"] = m["axkatz.exact_fallbacks"] / t12 if t12 else 0.0
    m["trace.requests"] = len(subset)
    m["trace.spans"] = len(tracer.start)
    m["trace.untraced_s"] = plain
    m["trace.traced_s"] = with_spans
    m["trace.overhead_frac"] = (with_spans - plain) / plain

    bases = {"multipoly.fold_poly_values.points_per_s": "base: fold points / fold self_s",
             "axkatz.modular.points_per_s": "base: modular points / modular theorem12_sum self_s",
             "axkatz.exact_fallbacks.share": "base: axkatz.theorem12_sum.calls",
             "trace.overhead_frac": "in-process traced vs untraced, 1 worker"}
    for name, unit in PER_LAYER.items():
        report(name, m[name], unit, bases.get(name, ""))
    failed = sum(f is not None for f in failures)
    for req, reason in zip(subset, failures):
        if reason:
            print(f"# FAILED {req.name}: {reason}")
    return len(subset), failed, m


# --- entry points ------------------------------------------------------------

def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import gen
    import check

    if args.workload not in gen.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(gen.WORKLOADS)} or all", file=sys.stderr)
        return 2
    info = machine_info()
    print(f"# fleckforge benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"# why: {gen.WORKLOADS[args.workload]}")

    def report(name, value, unit, note=""):
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:42s} {shown:>14s} {unit:9s} {note}".rstrip())

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        requests = gen.build(args.workload, args.seed, workdir)
        check.prepare(requests)
        work = {k: sum(getattr(r, k) for r in requests)
                for k in ("points", "chunks", "table_entries", "components")}
        print(f"# per cycle: requests={len(requests)} "
              + " ".join(f"{k}={v}" for k, v in work.items()))
        schema = json.loads((SRC / "fleckforge" / "schemas" / "report.schema.json").read_text())
        if args.trace:
            attempted, failed, values = traced(args.workload, args.seed, requests, schema, report)
            units = PER_LAYER
        else:
            attempted, failed, values = untraced(args.workload, requests, args.seconds,
                                                 schema, report)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": u}
                                  for k, u in units.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process of this script (so peak RSS is its own)."""
    import gen

    results, status = {}, 0
    for workload in gen.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(args.seed),
                               "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)],
                              capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]) + "\n", flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            status = proc.returncode or 1
            continue
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fleckforge" / "cli.py").is_file():
        print(f"error: no fleckforge source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

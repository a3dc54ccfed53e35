"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

import jsonschema
import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from fleckforge import cli  # noqa: E402

SCHEMAS = SRC / "fleckforge" / "schemas"
INSTANCE_SCHEMA = json.loads((SCHEMAS / "instance.schema.json").read_text())
REPORT_SCHEMA = json.loads((SCHEMAS / "report.schema.json").read_text())


def _files(workdir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


def _argvs(requests, workdir: Path) -> list:
    return [[x.replace(str(workdir), "") for x in r.argv] for r in requests]


@pytest.mark.parametrize("workload", list(gen.WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    a = gen.build(workload, 7, tmp_path / "a")
    b = gen.build(workload, 7, tmp_path / "b")
    c = gen.build(workload, 8, tmp_path / "c")
    assert _argvs(a, tmp_path / "a") == _argvs(b, tmp_path / "b")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert [r.points for r in a] == [r.points for r in b]
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert [r.points for r in a] == [r.points for r in c]


@pytest.mark.parametrize("workload,seed", itertools.product(gen.WORKLOADS, (1, 2)))
def test_every_instance_validates(tmp_path, workload, seed):
    for req in gen.build(workload, seed, tmp_path):
        if req.doc is not None:
            on_disk = json.loads(Path(req.argv[1]).read_text())
            assert on_disk == req.doc
            jsonschema.validate(on_disk, INSTANCE_SCHEMA)


def test_computed_work_of_cube(tmp_path):
    reqs = gen.build("cube", 1, tmp_path)
    sep14 = next(r for r in reqs if r.name == "t12-sep14.w1")
    assert sep14.points == 3 ** 14
    assert sep14.chunks == -(-3 ** 14 // 65536)
    assert sep14.table_entries == 3 ** 2  # p^(b + ord_3(1!)), b = 2
    assert sep14.components == 14 - 3  # three disjoint products
    chain = next(r for r in reqs if r.name == "t12-chain13.w1")
    assert chain.components == 1
    assert [r.workers for r in reqs] == [1, 2] * 8


@pytest.mark.parametrize("workload", list(gen.WORKLOADS))
def test_term_positions_do_not_depend_on_the_seed(tmp_path, workload):
    """The seed draws coefficients only, so a cycle costs the same for every seed."""
    def supports(seed):
        return [[sorted(c["terms"]) for c in r.system["constraints"]]
                for r in gen.build(workload, seed, tmp_path / str(seed)) if r.system]
    assert supports(1) == supports(2) == supports(3)


def _brute_force(system) -> int:
    """Direct sum over every point, for checking the reference engine."""
    p, n, target = system["p"], system["n"], system["target"]
    total = 0
    for x in itertools.product(range(p), repeat=n):
        w = 1
        for con in system["constraints"]:
            v = sum(c * eval_monomial(exps, x) for exps, c in con["terms"].items())
            if v % con["gate"]:
                w = 0
                break
            if con["weight"][0] == "ivp":
                w *= check.eval_binomial_basis(con["weight"][1], v // con["gate"])
        total += w
    return total % target


def eval_monomial(exps, x) -> int:
    out = 1
    for xi, e in zip(x, exps):
        out *= xi ** e
    return out


@pytest.mark.parametrize("seed", range(6))
def test_reference_engine_matches_brute_force(seed):
    rng = random.Random(seed)
    p, n = rng.choice([(2, 7), (3, 5)])
    polys = [gen._sparse(rng, n, p, rng.randint(1, 3), rng.randint(0, 2)) for _ in range(2)]
    polys[0][gen.mono(n)] = rng.randint(-3, 3) or 1
    systems = [gen._theorem12(rng, p, 2, n, polys)[1],
               gen._corollary11(p, 1, 2, n, polys, [1, 2])[1],
               gen._zero_count("axkatz", p, n, polys, b=2)[1],
               gen._lemma22(p, 2, n, polys, [1, 2])[1]]
    for system in systems:
        assert check.reference_residue(system) == _brute_force(system)


def _run(req) -> tuple[int, str]:
    code, out, _ = run.in_process(cli.main, req.argv)
    return code, out


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    reqs = gen.build("short", 3, tmp_path_factory.mktemp("small"))
    check.prepare(reqs)
    return reqs


def test_all_short_answers_pass(small):
    for req in small:
        code, out = _run(req)
        assert check.check(req, code, out, REPORT_SCHEMA) is None, req.name


def test_tampered_count_reports_fail(small):
    req = next(r for r in small if r.kind == "count" and r.expect["modulus"] > 1)
    code, out = _run(req)
    assert check.check(req, code, out, REPORT_SCHEMA) is None

    wrong = json.loads(out)
    wrong["verdict"]["sum"] = str(int(wrong["verdict"]["sum"]) + 1)
    assert "residue" in check.check(req, code, json.dumps(wrong), REPORT_SCHEMA)

    no_verdict = json.loads(out)
    del no_verdict["verdict"]
    assert "no verdict" in check.check(req, code, json.dumps(no_verdict), REPORT_SCHEMA)

    no_field = json.loads(out)
    del no_field["verdict"]["sum"]
    assert "schema" in check.check(req, code, json.dumps(no_field), REPORT_SCHEMA)

    assert "exit code" in check.check(req, 2, out, REPORT_SCHEMA)
    assert "not a JSON" in check.check(req, 0, out[:-20], REPORT_SCHEMA)


def test_residue_prefers_a_split_field():
    assert check.residue({"sum": "31", "claimed_modulus": "9"}) == 4
    assert check.residue({"residue": "4", "exact_sum": "31", "sum": "31",
                          "claimed_modulus": "9"}) == 4


def test_reports_compared_apart_from_workers(small):
    req = next(r for r in small if r.kind == "count")
    _, out1 = _run(req)
    _, out2 = _run(gen.Request(name="w2", argv=req.argv[:-1] + ["2"], kind="count"))
    assert out1 != out2
    assert check.same_apart_from_workers(out1, out2)
    changed = json.loads(out2)
    changed["verdict"]["divisible"] = not changed["verdict"]["divisible"]
    assert not check.same_apart_from_workers(out1, json.dumps(changed))


def test_tampered_sweep_report_fails():
    req = gen.Request(name="s", argv=["sweep", "--seed", "5", "--rounds", "1"], kind="sweep")
    code, out = _run(req)
    assert check.check(req, code, out, REPORT_SCHEMA) is None
    truncated = json.loads(out)
    truncated["results"]["truncated"] = True
    assert check.check(req, code, json.dumps(truncated), REPORT_SCHEMA)


def test_tail_latency_needs_ten_samples_beyond():
    assert run.tail_latency([1.0] * 15) is None
    pct, _ = run.tail_latency([float(i) for i in range(1000)])
    assert pct == 99


def test_tracer_restores_every_name(small):
    from spans import BOUNDARIES, Tracer
    from importlib import import_module
    before = {(m, a): getattr(import_module(f"fleckforge.{m}"), a)
              for sites in BOUNDARIES.values() for m, a in sites}
    tracer = Tracer()
    with tracer.installed():
        code, out = _run(next(r for r in small if r.name == "t12-b12.w1"))
    assert code == 0
    calls, _ = tracer.totals("axkatz.theorem12_sum")
    assert calls == 1 and tracer.counts["axkatz.modular.table_entries"] == 2 ** 12
    assert tracer.totals("ivpoly.eval_ivp")[0] >= 2 ** 12
    assert not tracer.absent
    after = {(m, a): getattr(import_module(f"fleckforge.{m}"), a) for m, a in before}
    assert after == before


def test_reference_engine_refuses_huge_histograms():
    system = gen._lemma22(3, 9, 4, [{gen.mono(4, 0): 1}, {gen.mono(4, 1): 1}], [1, 2])[1]
    with pytest.raises(ValueError, match="too large"):
        check.reference_residue(system)


def test_tracer_survives_arguments_of_another_shape():
    from spans import Tracer
    tracer = Tracer()
    wrapped = tracer.wrap("x.f", lambda v: v + 1, after=lambda tok, args, kw, own: args[0].p)
    assert wrapped(1) == 2
    assert tracer.totals("x.f")[0] == 1
    assert tracer.absent and tracer.absent[0].startswith("x.f counts")

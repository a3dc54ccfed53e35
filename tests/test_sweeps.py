import itertools
import json
import math
import random
from types import SimpleNamespace

import pytest

from fleckforge import cli, sweeps, wilson


def test_zero_budget_truncates():
    result = sweeps.run_sweeps(random.Random(1), budget=0)
    assert result.truncated and result.ok


# halfway through each sweep of the plan, counted in instances drawn
MIDPOINTS = [sum(i for _, i in sweeps.DEFAULT_PLAN[:j]) + iterations // 2
             for j, (_, iterations) in enumerate(sweeps.DEFAULT_PLAN)]


@pytest.mark.parametrize("k", MIDPOINTS)
def test_budget_stops_every_sweep(monkeypatch, k):
    # the clock reads 0 when the deadline is set and advances by 1 at every
    # later reading, so a budget of k + 1/2 admits exactly k draws; every
    # draw of seed 1 logs one instance
    ticks = itertools.count()
    monkeypatch.setattr(sweeps, "time",
                        SimpleNamespace(monotonic=lambda: next(ticks)))
    result = sweeps.run_sweeps(random.Random(1), budget=k + 0.5)
    assert result.truncated and result.ok
    assert len(result.log) == k


def test_failed_synthesis_bound_is_a_logged_violation(monkeypatch):
    monkeypatch.setattr(wilson, "ord_int", lambda v, p: -math.inf)
    result = sweeps.SweepResult()
    sweeps.sweep_theorem11(random.Random(1), 5, result)
    assert len(result.log) == 5 and len(result.violations) == 5
    for entry, violation in zip(result.log, result.violations):
        assert violation == {**entry, "error": violation["error"]}
        assert "below its bound" in violation["error"]


@pytest.mark.parametrize("seed", range(1, 9))
def test_every_theorem12_draw_is_logged(seed):
    # a draw whose hypothesis needs more than 12 variables is logged as
    # skipped; seeds 1, 3, 4, 6 and 8 draw such a system within two rounds
    result = sweeps.run_sweeps(random.Random(seed), rounds=2)
    entries = [e for e in result.log if e["sweep"] == "theorem12"]
    assert len(entries) == 20
    assert all("n" in e or "skipped" in e for e in entries)


def test_logged_theorem12_instance_replays_through_count(tmp_path, capsys):
    # every drawn instance of seed 1 rebuilt as an instance document from
    # its log entry alone
    result = sweeps.SweepResult()
    sweeps.sweep_theorem12(random.Random(1), 10, result)
    entries = [e for e in result.log if "n" in e]
    assert entries
    for i, entry in enumerate(entries):
        doc = {"kind": "theorem12", "p": entry["p"], "b": entry["b"],
               "n_vars": entry["n"],
               "constraints": [{"f": c["f"], "a": c["a"], "l": c["l"],
                                "F": {"basis": "binomial", "coeffs": c["F"]}}
                               for c in entry["constraints"]]}
        path = tmp_path / f"t12-{i}.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["count", str(path), "--workers", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]["hypothesis_holds"] is True


def test_logged_lemma22_instance_replays_through_count(tmp_path, capsys):
    # every lemma22 draw of seed 1 logs its c; those with c >= 0 were
    # checked and rebuild as count instances from the log entry alone
    result = sweeps.SweepResult()
    sweeps.sweep_lemma22(random.Random(1), 15, result)
    assert len(result.log) == 15 and all("c" in e for e in result.log)
    entries = [e for e in result.log if e["c"] >= 0]
    assert entries
    for i, entry in enumerate(entries):
        doc = {"kind": "lemma22", "p": entry["p"], "c": entry["c"],
               "n_vars": entry["n"], "polynomials": entry["polys"],
               "js": entry["js"]}
        path = tmp_path / f"l22-{i}.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["count", str(path), "--workers", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]["hypothesis_holds"] is True

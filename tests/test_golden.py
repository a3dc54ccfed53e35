"""Golden reports, byte for byte: each tests/golden/<name>.json instance
must print exactly tests/golden/<name>.out under `count --workers 1`, and
each tests/golden/cli/<name>.argv, one line of `fleck` or `bounds`
arguments, exactly tests/golden/cli/<name>.out."""
import json
from pathlib import Path

import pytest

from fleckforge import cli, multipoly
from fleckforge.axkatz import theorem12_sum

GOLDEN = Path(__file__).resolve().parent / "golden"
INSTANCES = sorted(GOLDEN.glob("*.json"))
ARGVS = sorted((GOLDEN / "cli").glob("*.argv"))


def _count(capsys, path, workers):
    code = cli.main(["count", str(path), "--workers", str(workers)])
    return code, capsys.readouterr().out


def test_corpus_covers_every_count_kind():
    kinds = {p.name.split("-")[0].removesuffix(".json") for p in INSTANCES}
    assert kinds == {"theorem12", "corollary11", "chevalley", "axkatz", "lemma22"}


@pytest.mark.parametrize("path", INSTANCES, ids=lambda p: p.stem)
def test_report_matches_golden(capsys, path):
    code, out = _count(capsys, path, 1)
    assert code == 0
    assert out == path.with_suffix(".out").read_text()


@pytest.mark.parametrize("path", INSTANCES, ids=lambda p: p.stem)
def test_two_workers_differ_only_in_workers(capsys, path):
    _, one = _count(capsys, path, 1)
    code, two = _count(capsys, path, 2)
    assert code == 0
    assert two == one.replace('"workers": "1"', '"workers": "2"')


@pytest.mark.parametrize("path", ARGVS, ids=lambda p: p.stem)
def test_argv_report_matches_golden(capsys, path):
    assert cli.main(path.read_text().split()) == 0
    assert capsys.readouterr().out == path.with_suffix(".out").read_text()


def test_argv_corpus_covers_fleck_and_bounds():
    assert {p.read_text().split()[0] for p in ARGVS} == {"fleck", "bounds"}


def _floats(value, path=()):
    """The path of every float in a decoded JSON document."""
    if isinstance(value, float):
        return [path]
    if isinstance(value, dict):
        return [q for k, v in value.items() for q in _floats(v, (*path, k))]
    if isinstance(value, list):
        return [q for i, v in enumerate(value) for q in _floats(v, (*path, i))]
    return []


def test_no_report_value_is_a_float(capsys):
    # every verdict is an integer, printed as a decimal string; --timing's
    # wall-clock seconds are the one float a report may hold
    outs = sorted(GOLDEN.glob("*.out")) + sorted((GOLDEN / "cli").glob("*.out"))
    assert len(outs) == len(INSTANCES) + len(ARGVS)
    for out in outs:
        assert _floats(json.loads(out.read_text())) == [], out.name
    assert cli.main(["sweep", "--seed", "1", "--timing"]) == 0
    sweep = json.loads(capsys.readouterr().out)
    assert sweep["results"]["instances"]
    assert _floats(sweep) == [("timing", "wall_seconds")]


def test_dense_instance_takes_the_row_block_plan(capsys, monkeypatch):
    # its one component's DP bound, 3 * (3^11 - 1) / 2 = 265719, exceeds both
    # CHUNK and the 3^11 points, so its report pins the row-block product
    def no_dp(*args, **kwargs):
        raise AssertionError("the frontier DP ran on the dense instance")

    monkeypatch.setattr(multipoly, "_frontier_histogram", no_dp)
    path = GOLDEN / "corollary11-dense.json"
    code, out = _count(capsys, path, 1)
    assert code == 0
    assert out == path.with_suffix(".out").read_text()


def test_chain40_matches_a_direct_dp():
    # f = x1*x2 + ... + x39*x40 + x1 - 1 on 3^40 points: walk the chain
    # keeping (x_i, partial sum of f) -> count, then gate on 3 | f and
    # weight by F(f / 3) = 2 + f / 3
    path = GOLDEN / "theorem12-chain40.json"
    system = cli._congruence_system(json.loads(path.read_text()))
    states = {(x, x - 1): 1 for x in range(3)}
    for _ in range(39):
        nxt = {}
        for (x, v), count in states.items():
            for y in range(3):
                nxt[y, v + x * y] = nxt.get((y, v + x * y), 0) + count
        states = nxt
    direct = sum(count * (2 + v // 3) for (_, v), count in states.items()
                 if v % 3 == 0)
    assert theorem12_sum(system, exact=True) == direct
    assert theorem12_sum(system) == direct % 9
    report = json.loads(path.with_suffix(".out").read_text())
    assert int(report["verdict"]["sum"]) == direct % 9

"""Golden `count` reports: each tests/golden/<name>.json instance must print
exactly tests/golden/<name>.out with --workers 1, byte for byte."""
from pathlib import Path

import pytest

from fleckforge import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
INSTANCES = sorted(GOLDEN.glob("*.json"))


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

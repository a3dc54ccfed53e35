import json

import jsonschema
import pytest

from fleckforge import axkatz, cli


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def validate_report(doc):
    jsonschema.validate(doc, cli._load_schema("report.schema.json"))


def test_fleck_command(capsys):
    code, doc = run(capsys, ["fleck", "-p", "2", "-a", "1", "-n", "3", "-r", "0"])
    assert code == 0
    validate_report(doc)
    assert doc["results"]["sum"] == "4"
    assert doc["results"]["valuation"] == "2"
    assert doc["results"]["bounds"]["fleck"] == "2"

    code, doc = run(capsys, ["fleck", "-p", "3", "-a", "1", "-n", "5", "-r", "1"])
    assert code == 0
    assert doc["results"]["sum"] == "0"
    assert doc["results"]["valuation"] == "inf"

    code, doc = run(capsys, ["fleck", "-p", "2", "-a", "1", "-n", "6", "-r", "0",
                             "--f", "0,1"])
    assert code == 0
    assert doc["results"]["sum"] == "48"
    assert doc["results"]["bounds"]["wan"] == "3"


def test_bounds_command(capsys):
    code, doc = run(capsys, ["bounds", "-p", "2", "-a", "1", "-n", "2",
                             "-l", "0", "-b", "1"])
    assert code == 0
    assert doc["results"]["M"] == "1"
    assert doc["results"]["max_degree"] == "1"


def test_synthesize_command(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "kind": "synthesize", "p": 2, "a": 1, "b": 1,
        "f": {"basis": "binomial", "coeffs": ["1"]},
        "g": ["1", "0"],
    }))
    code, doc = run(capsys, ["synthesize", str(inst)])
    assert code == 0
    validate_report(doc)
    assert doc["results"]["coeffs"] == ["1", "-1"]
    assert doc["results"]["verified"] is True
    assert doc["results"]["q_range"] == ["-25", "25"]


def test_synthesize_zero_table(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "kind": "synthesize", "p": 3, "a": 1, "b": 2,
        "f": {"basis": "binomial", "coeffs": ["1"]},
        "g": ["0", "0", "0"],
    }))
    code, doc = run(capsys, ["synthesize", str(inst)])
    assert code == 0
    assert all(c == "0" for c in doc["results"]["coeffs"])


def test_synthesize_monomial_basis(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "kind": "synthesize", "p": 3, "a": 0, "b": 1,
        "f": {"basis": "monomial", "coeffs": ["0", "1"]},
        "g": ["1"],
    }))
    code, doc = run(capsys, ["synthesize", str(inst)])
    assert code == 0
    assert doc["results"]["coeffs"] == ["0", "1"]


def test_count_theorem12(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "kind": "theorem12", "p": 2, "b": 2, "n_vars": 3,
        "constraints": [{"f": "x1+x2+x3", "a": 1,
                         "F": {"basis": "binomial", "coeffs": ["1"]}}],
    }))
    code, doc = run(capsys, ["count", str(inst), "--workers", "1", "--exact"])
    assert code == 0
    validate_report(doc)
    assert doc["verdict"]["sum"] == "4"
    assert doc["verdict"]["divisible"] is True


def test_count_chevalley(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "kind": "chevalley", "p": 3, "n_vars": 2, "polynomials": ["x1+x2"],
    }))
    code, doc = run(capsys, ["count", str(inst), "--workers", "1"])
    assert code == 0
    assert doc["verdict"]["sum"] == "3"


def test_count_lemma22(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "kind": "lemma22", "p": 3, "c": 2, "n_vars": 2,
        "polynomials": ["x1+x2"], "js": [1],
    }))
    code, doc = run(capsys, ["count", str(inst), "--workers", "1"])
    assert code == 0
    assert doc["verdict"]["sum"] == "18"
    assert doc["verdict"]["claimed_modulus"] == "9"


def test_count_ceiling_exit_code(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "kind": "axkatz", "p": 2, "b": 1, "n_vars": 40,
        "polynomials": [" + ".join(f"x{i}" for i in range(1, 41))],
    }))
    code, doc = run(capsys, ["count", str(inst), "--workers", "1",
                             "--ceiling", "1000"])
    assert code == 3
    assert "ceiling" in doc["error"]


def test_invalid_instance_rejected(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"kind": "theorem12", "p": 2}))
    code = cli.main(["count", str(inst)])
    capsys.readouterr()
    assert code == 1


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["fleck", "-p", "2"])
    capsys.readouterr()
    assert err.value.code == 1


def test_report_determinism(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "kind": "theorem12", "p": 2, "b": 2, "n_vars": 3,
        "constraints": [{"f": "x1+x2+x3", "a": 1,
                         "F": {"basis": "binomial", "coeffs": ["1"]}}],
    }))
    cli.main(["count", str(inst), "--workers", "1"])
    first = capsys.readouterr().out
    cli.main(["count", str(inst), "--workers", "4"])
    second = capsys.readouterr().out
    # worker count is echoed; everything else, including the sum, is identical
    assert (first.replace('"workers": "1"', "") ==
            second.replace('"workers": "4"', ""))


def test_sweep_determinism(capsys):
    code, doc1 = run(capsys, ["sweep", "--seed", "42"])
    assert code == 0
    code, doc2 = run(capsys, ["sweep", "--seed", "42"])
    assert code == 0
    assert doc1["results"]["instances"] == doc2["results"]["instances"]
    code, doc3 = run(capsys, ["sweep", "--seed", "43"])
    assert code == 0
    assert doc3["results"]["instances"] != doc1["results"]["instances"]


# one count instance per kind, each with its hypothesis holding
HOLDING = {
    "theorem12": {"kind": "theorem12", "p": 2, "b": 2, "n_vars": 3,
                  "constraints": [{"f": "x1+x2+x3", "a": 1,
                                   "F": {"basis": "binomial", "coeffs": ["1"]}}]},
    "corollary11": {"kind": "corollary11", "p": 2, "a": 1, "b": 1, "n_vars": 4,
                    "polynomials": ["x1+x2+x3+x4"], "ls": [1]},
    "chevalley": {"kind": "chevalley", "p": 3, "n_vars": 2,
                  "polynomials": ["x1+x2"]},
    "axkatz": {"kind": "axkatz", "p": 2, "b": 2, "n_vars": 3,
               "polynomials": ["x1+x2+x3"]},
    "lemma22": {"kind": "lemma22", "p": 3, "c": 2, "n_vars": 2,
                "polynomials": ["x1+x2"], "js": [1]},
}


@pytest.mark.parametrize("kind", HOLDING)
def test_count_violation_exit_code(tmp_path, capsys, monkeypatch, kind):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(HOLDING[kind]))
    code, doc = run(capsys, ["count", str(inst), "--workers", "1"])
    assert code == 0 and doc["verdict"]["hypothesis_holds"] is True
    monkeypatch.setattr(axkatz, "theorem12_sum", lambda system, **kw: 1)
    code, doc = run(capsys, ["count", str(inst), "--workers", "1"])
    assert code == 2
    validate_report(doc)
    assert "not divisible" in doc["error"] and "verdict" not in doc


@pytest.mark.parametrize("kind", ["chevalley", "axkatz", "lemma22"])
def test_count_non_prime_p_exit_code(tmp_path, capsys, kind):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({**HOLDING[kind], "p": 4}))
    code = cli.main(["count", str(inst), "--workers", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and "prime" in captured.err

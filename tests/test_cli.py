"""Command line behaviour: output shape, determinism, exit codes."""

import json

import pytest

from nearvec.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_json(capsys):
    code, out, err = run_cli(capsys, "classify", "2", "3")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["count"] == 2
    assert data["classes"] == [[1, 2, 4], [3, 5, 6]]


def test_classify_tsv(capsys):
    code, out, err = run_cli(capsys, "classify", "2", "2", "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "representative\tsize\tmembers"
    assert lines[1] == "1\t2\t1,2"
    assert lines[-1].startswith("# classes\t1")


def test_classify_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "classify", "13", "1")
    _, out2, _ = run_cli(capsys, "classify", "13", "1")
    assert out1 == out2


def test_classify_rejects_composite(capsys):
    code, out, err = run_cli(capsys, "classify", "6", "1")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_autos_inline_base(capsys):
    code, out, _ = run_cli(capsys, "autos", '{"kind":"gf","p":5,"n":1}')
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    assert data["induced_additions"] == 2
    assert data["properties_pass"] is True


def test_autos_dickson(capsys):
    code, out, _ = run_cli(capsys, "autos", '{"kind":"dickson9"}')
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 24
    assert data["induced_additions"] == 4


@pytest.fixture()
def spec_file(tmp_path):
    spec = {
        "base": {"kind": "gf", "p": 5, "n": 1},
        "index": ["1", "2"],
        "sigma": {
            "1": {"kind": "fpow", "alpha": 1},
            "2": {"kind": "fpow", "alpha": 3},
        },
        "rho": {
            "1": {"kind": "fpow", "alpha": 1},
            "2": {"kind": "fpow", "alpha": 1},
        },
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_space_qk(capsys, spec_file):
    code, out, _ = run_cli(capsys, "space", spec_file, "qk")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 9
    assert data["quasi_kernel"]["classes"] == [["1"], ["2"]]
    assert len(data["elements"]) == 9


def test_space_oracle_compare(capsys, spec_file):
    code, out, _ = run_cli(capsys, "space", spec_file, "oracle-compare")
    assert code == 0
    data = json.loads(out)
    assert data["identical"] is True and data["count"] == 9


def test_space_axioms(capsys, spec_file):
    code, out, _ = run_cli(capsys, "space", spec_file, "axioms")
    assert code == 0
    assert json.loads(out)["report"]["passed"] is True


def test_space_decompose(capsys, spec_file):
    code, out, _ = run_cli(capsys, "space", spec_file, "decompose")
    assert code == 0
    data = json.loads(out)
    assert data["decomposition_classes"] == [["1"], ["2"]]
    assert len(data["blocks"]) == 2


def test_space_multiplicative(capsys, spec_file):
    code, out, _ = run_cli(capsys, "space", spec_file, "multiplicative")
    assert code == 0
    data = json.loads(out)
    assert data["multiplicative"] is True
    assert data["certified"] == 8


def test_space_deterministic(capsys, spec_file):
    _, out1, _ = run_cli(capsys, "space", spec_file, "qk")
    _, out2, _ = run_cli(capsys, "space", spec_file, "qk")
    assert out1 == out2


def test_space_axioms_dim1(capsys, tmp_path):
    spec = {
        "base": {"kind": "gf", "p": 7, "n": 1},
        "index": ["1"],
        "sigma": {"1": {"kind": "fpow", "alpha": 5}},
        "rho": {"1": {"kind": "fpow", "alpha": 1}},
    }
    path = tmp_path / "dim1.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "space", str(path), "axioms")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["passed"] is True
    assert report["details"]["quasi_kernel_size"] == 7


def test_space_bound_exceeded(capsys, spec_file):
    code, out, err = run_cli(capsys, "space", spec_file, "oracle-compare", "--bound", "3")
    assert code == 2 and out == ""
    assert "bound" in err


GF5 = {"kind": "gf", "p": 5, "n": 1}
IDENT = {"kind": "fpow", "alpha": 1}


def _space_text(base=GF5, sigma=IDENT, rho=IDENT):
    return json.dumps(
        {"base": base, "index": ["1"], "sigma": {"1": sigma}, "rho": {"1": rho}}
    )


@pytest.mark.parametrize(
    "text",
    [
        '{"base": {"kind": "gf", "p": 5',
        _space_text(sigma={"kind": "fpow", "alpha": "x"}),
        _space_text(sigma={"kind": "fpow", "alpha": 1.5}),
        _space_text(rho=3),
        _space_text(base={"kind": "gf", "p": "a", "n": 1}),
        "[1, 2]",
    ],
    ids=["truncated", "alpha-text", "alpha-float", "rho-not-object", "p-text", "not-object"],
)
def test_space_malformed_file(capsys, tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run_cli(capsys, "space", str(bad), "qk")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_space_missing_file(capsys):
    code, out, err = run_cli(capsys, "space", "/nonexistent/x.json", "qk")
    assert code == 2 and out == ""


def test_complexify_command(capsys, tmp_path):
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"T": [2.0], "S": [1.0]}))
    code, out, _ = run_cli(capsys, "complexify", str(cfile))
    assert code == 0
    data = json.loads(out)
    assert data["spec"]["sigma"]["1"] == {"kind": "ceps", "alpha": [2.0, 0.0], "conj": False}
    residuals = [c for c in data["checks"] if c["check"] == "minimal_poly_residual"]
    assert residuals and all(c["residual"] <= 1e-9 for c in residuals)
    assert all(c["passed"] for c in data["checks"])


def test_complexify_conj_flag(capsys, tmp_path):
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"T": [3.0]}))
    code, out, _ = run_cli(capsys, "complexify", str(cfile), "--conj")
    assert code == 0
    data = json.loads(out)
    assert data["spec"]["sigma"]["1"]["conj"] is True


def test_complexify_zero_exponent(capsys, tmp_path):
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"T": [0.0]}))
    code, out, err = run_cli(capsys, "complexify", str(cfile))
    assert code == 2 and out == ""


def test_check_base(capsys):
    code, out, _ = run_cli(capsys, "check-base", '{"kind":"dickson9"}')
    assert code == 0
    data = json.loads(out)
    assert data["distributive_size"] == 3
    assert all(r["passed"] for r in data["reports"])
    assert data["product_hypotheses"]["passed"] is True


def test_check_base_real(capsys):
    code, out, _ = run_cli(capsys, "check-base", '{"kind":"real","tolerance":1e-9}')
    assert code == 0
    data = json.loads(out)
    assert all(r["passed"] for r in data["reports"])
    assert data["product_hypotheses"]["passed"] is False


def test_space_qk_real_spec(capsys, tmp_path):
    spec = {
        "base": {"kind": "real", "tolerance": 1e-9},
        "index": ["1", "2"],
        "sigma": {"1": {"kind": "rpow", "alpha": 1.0}, "2": {"kind": "rpow", "alpha": 2.0}},
        "rho": {"1": {"kind": "rpow", "alpha": 1.0}, "2": {"kind": "rpow", "alpha": 1.0}},
    }
    path = tmp_path / "real.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "space", str(path), "qk")
    assert code == 0
    data = json.loads(out)
    assert data["quasi_kernel"]["classes"] == [["1"], ["2"]]
    assert data["quasi_kernel"]["allowed"] == {"1": "all", "2": "all"}
    assert "elements" not in data

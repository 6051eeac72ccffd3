"""Command line behaviour: output shape, determinism, exit codes."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from nearvec.cli import build_parser, main
from nearvec.mult_auto import FinitePower, as_perm, enumerate_mult_autos
from nearvec.nearfield import Dickson9, GaloisField
from nearvec.serialize import vector_to_json

BENCH_CLI_CALLS = Path(__file__).resolve().parents[1] / "bench" / "cli_calls.py"


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


def test_classify_rejects_beyond_table_bound(capsys):
    # the unit walk is capped like the field tables, at 2^16 elements
    code, out, err = run_cli(capsys, "classify", "2", "17")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "bound" in err and err.count("\n") == 1


def test_autos_inline_base(capsys):
    code, out, _ = run_cli(capsys, "autos", '{"kind":"gf","p":5,"n":1}')
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    assert data["induced_additions"] == 2
    assert data["properties_pass"] is True


def test_autos_bound(capsys):
    # GF(5): 2 automorphisms x 5^2 element pairs = 50 property-check pairs
    gf5 = '{"kind":"gf","p":5,"n":1}'
    code, out, _ = run_cli(capsys, "autos", gf5, "--bound", "50")
    assert code == 0 and json.loads(out)["count"] == 2
    code, out, err = run_cli(capsys, "autos", gf5, "--bound", "49")
    assert code == 2 and out == ""
    assert err == "error: 2 automorphisms x 5^2 pairs exceed the bound 49\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["autos", '{"kind":"gf","p":5,"n":1}'],
        ["check-base", '{"kind":"real"}'],
        ["complexify", '{"T": [1]}'],
        ["space", "spec.json", "qk"],
    ],
    ids=lambda argv: argv[0],
)
def test_format_only_on_classify(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--format" in captured.err


# --seed, --tol and --bound each belong to the subcommands that read them
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["classify", "2", "3"], "--seed"),
        (["classify", "2", "3"], "--tol"),
        (["classify", "2", "3"], "--bound"),
        (["autos", '{"kind":"gf","p":5,"n":1}'], "--seed"),
        (["autos", '{"kind":"gf","p":5,"n":1}'], "--tol"),
        (["space", "spec.json", "qk"], "--seed"),
        (["complexify", '{"T": [1]}'], "--bound"),
        (["check-base", '{"kind":"real"}'], "--seed"),
    ],
    ids=lambda x: x if isinstance(x, str) else x[0],
)
def test_flags_only_where_read(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and flag in captured.err


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize(
    "argv",
    [["space", "spec.json", "qk"], ["complexify", '{"T": [1, 3]}'], ["check-base", '{"kind":"real"}']],
    ids=lambda argv: argv[0],
)
def test_tol_must_be_positive_and_finite(capsys, argv, value):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tol", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--tol" in captured.err
    assert build_parser().parse_args(argv + ["--tol", "1e-6"]).tol == 1e-6


@pytest.mark.parametrize(
    "argv",
    [["autos", "FILE"], ["space", "FILE", "qk"], ["complexify", "FILE"], ["check-base", "FILE"]],
    ids=lambda argv: argv[0],
)
def test_non_utf8_file_is_bad_input(capsys, tmp_path, argv):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


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


def test_space_oracle_compare_mismatch(capsys, monkeypatch, spec_file):
    import nearvec.cli

    real = nearvec.cli.materialize_quasi_kernel
    dropped = []

    def drop_one(spec, *args, **kwargs):
        members = set(real(spec, *args, **kwargs))
        dropped.append(max((v for v in members if not v.is_zero()), key=repr))
        return frozenset(members - {dropped[0]})

    monkeypatch.setattr(nearvec.cli, "materialize_quasi_kernel", drop_one)
    code, out, _ = run_cli(capsys, "space", spec_file, "oracle-compare")
    assert code == 1
    data = json.loads(out)
    assert data["identical"] is False and data["count"] == 9
    assert data["only_bruteforce"] == [vector_to_json(dropped[0])]
    assert data["only_closed_form"] == []


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


def test_space_decompose_partitions_once(capsys, monkeypatch):
    # on a noncommutative base each partition pays the inner-twist search
    import nearvec.cli
    import nearvec.nvspace

    real, calls = nearvec.nvspace.decomposition_classes, []

    def counted(spec):
        calls.append(spec.index)
        return real(spec)

    for module in (nearvec.cli, nearvec.nvspace):
        monkeypatch.setattr(module, "decomposition_classes", counted, raising=False)
    d9 = Dickson9()
    autos = [as_perm(a).describe() for a in enumerate_mult_autos(d9)[:3]]
    labels = ["1", "2", "3"]
    spec = {"base": {"kind": "dickson9"}, "index": labels, "sigma": dict(zip(labels, autos))}
    spec["rho"] = dict(zip(labels, reversed(autos)))
    code, out, _ = run_cli(capsys, "space", json.dumps(spec), "decompose")
    assert code == 0 and calls == [tuple(labels)]
    data = json.loads(out)
    assert data["decomposition_classes"] == [block["index"] for block in data["blocks"]]


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
# x^1e300 overflows on the sampled reals
OVERFLOW_SPACE = {
    "base": {"kind": "real"},
    "index": ["1", "2"],
    "sigma": {"1": {"kind": "rpow", "alpha": 1}, "2": {"kind": "rpow", "alpha": 1e300}},
    "rho": {"1": {"kind": "rpow", "alpha": 1}, "2": {"kind": "rpow", "alpha": 1}},
}


def _space_text(base=GF5, sigma=IDENT, rho=IDENT):
    return json.dumps(
        {"base": base, "index": ["1"], "sigma": {"1": sigma}, "rho": {"1": rho}}
    )


NOT_FINITE = "error: alpha is not a finite number in the float range\n"
# json refuses to read an integer past the interpreter's digit limit
TOO_MANY_DIGITS = f"error: integer literal of more than {sys.get_int_max_str_digits()} digits\n"


def _rpow_text(alpha):
    """A real space whose sigma exponent is the JSON literal ``alpha``."""
    rpow = {"kind": "rpow", "alpha": 1.0}
    return _space_text({"kind": "real"}, {**rpow, "alpha": "A"}, rpow).replace('"A"', alpha)


def _power_pair_text(kind, alpha, on_both_labels):
    """A two-label real (``rpow``) or complex (``ceps``) space with the
    power exponent ``alpha`` as sigma and rho of label 1, or as sigma of
    both labels; every other twist is the identity."""
    power = {"kind": kind, "alpha": alpha if kind == "rpow" else [alpha, 0]}
    ident = {**power, "alpha": 1 if kind == "rpow" else [1, 0]}
    second = power if on_both_labels else ident
    return json.dumps(
        {
            "base": {"kind": "real" if kind == "rpow" else "complex"},
            "index": ["1", "2"],
            "sigma": {"1": power, "2": second},
            "rho": {"1": ident if on_both_labels else power, "2": ident},
        }
    )


def _two_merges_text(kind, first, second):
    """A two-label real (``rpow``) or complex (``ceps``) space with the
    power exponent ``first`` as sigma and rho of label 1 and ``second`` as
    both of label 2."""
    power = {"kind": kind}
    one, two = ({**power, "alpha": a if kind == "rpow" else [a, 0]} for a in (first, second))
    return json.dumps(
        {
            "base": {"kind": "real" if kind == "rpow" else "complex"},
            "index": ["1", "2"],
            "sigma": {"1": one, "2": two},
            "rho": {"1": one, "2": two},
        }
    )


# a comp record of 1,100 factors x^2: the 1,023rd merge reaches x^(2^1024)
# and is refused, naming the 1,024 factors it merges
TWO = "rpow alpha 2.0"
LONG_COMP_TEXT = _space_text(
    {"kind": "real"},
    {"kind": "comp", "factors": [{"kind": "rpow", "alpha": 2.0}] * 1100},
    {"kind": "rpow", "alpha": 1.0},
)
LONG_COMP_SAYS = (
    f"error: {'(' * 1022}{TWO} composed with {TWO}){f' composed with {TWO})' * 1021}"
    f" composed with {TWO} leaves the float range\n"
)


def _merged_out_of_range(name):
    return f"error: {name} composed with {name} leaves the float range\n"


@pytest.mark.parametrize(
    "text, says",
    [
        ('{"base": {"kind": "gf", "p": 5', "error:"),
        (_space_text(sigma={"kind": "fpow", "alpha": "x"}), "error:"),
        (_space_text(sigma={"kind": "fpow", "alpha": 1.5}), "error:"),
        (_space_text(rho=3), "error:"),
        (_space_text(base={"kind": "gf", "p": "a", "n": 1}), "error:"),
        ("[1, 2]", "error:"),
        (
            _space_text(
                base={"kind": "complex"},
                sigma={"kind": "ceps", "alpha": [2, 0], "conj": "yes"},
                rho={"kind": "ceps", "alpha": [1, 0]},
            ),
            "error:",
        ),
        (json.dumps(OVERFLOW_SPACE), "error: rpow alpha 1e+300 overflows at -10.0\n"),
        # json reads 1e400 as infinity; a 400-digit integer has no float
        (_rpow_text("NaN"), NOT_FINITE),
        (_rpow_text("1e400"), NOT_FINITE),
        (_rpow_text("7" * 400), NOT_FINITE),
        (_rpow_text("7" * 5000), TOO_MANY_DIGITS),
        (
            _space_text(
                base={"kind": "complex"},
                sigma={"kind": "ceps", "alpha": [1, float("-inf")]},
                rho={"kind": "ceps", "alpha": [1, 0]},
            ),
            NOT_FINITE,
        ),
        # sigma . rho of label 1 leaves the float range, and so does the
        # inverse of an exponent below 1/max
        (_power_pair_text("rpow", 1e200, False), _merged_out_of_range("rpow alpha 1e+200")),
        (_power_pair_text("rpow", 1e-200, False), _merged_out_of_range("rpow alpha 1e-200")),
        (
            _power_pair_text("rpow", 1e-310, True),
            "error: rpow alpha 1e-310 has no inverse in the float range\n",
        ),
        (
            _power_pair_text("ceps", 1e200, False),
            _merged_out_of_range("ceps alpha (1e+200+0j)"),
        ),
        (
            _power_pair_text("ceps", 1e-200, False),
            _merged_out_of_range("ceps alpha (1e-200+0j)"),
        ),
        (
            _power_pair_text("ceps", 1e-310, True),
            "error: ceps alpha (1e-310+0j) has no inverse in the float range\n",
        ),
        # label 2's merge composed with the inverse of label 1's merge leaves
        # the float range: each merge is named by its factors
        (
            _two_merges_text("rpow", 1e150, 1e-150),
            "error: (rpow alpha 1e-150 composed with rpow alpha 1e-150) composed with inverse"
            " of (rpow alpha 1e+150 composed with rpow alpha 1e+150) leaves the float range\n",
        ),
        (
            _two_merges_text("ceps", 1e150, 1e-150),
            "error: (ceps alpha (1e-150+0j) composed with ceps alpha (1e-150+0j)) composed with"
            " inverse of (ceps alpha (1e+150+0j) composed with ceps alpha (1e+150+0j)) leaves the"
            " float range\n",
        ),
        (LONG_COMP_TEXT, LONG_COMP_SAYS),
    ],
    ids=[
        "truncated",
        "alpha-text",
        "alpha-float",
        "rho-not-object",
        "p-text",
        "not-object",
        "conj-text",
        "alpha-overflow",
        "alpha-nan",
        "alpha-1e400",
        "alpha-huge-int",
        "alpha-past-digit-limit",
        "ceps-alpha-infinite",
        "rpow-merged-overflow",
        "rpow-merged-underflow",
        "rpow-inverse-overflow",
        "ceps-merged-overflow",
        "ceps-merged-underflow",
        "ceps-inverse-overflow",
        "rpow-merges-merged",
        "ceps-merges-merged",
        "rpow-comp-of-1100",
    ],
)
def test_space_malformed_file(capsys, tmp_path, text, says):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run_cli(capsys, "space", str(bad), "qk")
    assert code == 2
    assert out == ""
    assert err.startswith(says) and err.count("\n") == 1


def _drop(obj, *path):
    """A deep copy of obj without the key at the end of path."""
    obj = json.loads(json.dumps(obj))
    holder = obj
    for key in path[:-1]:
        holder = holder[key]
    del holder[path[-1]]
    return obj


# one space per record kind with required fields
FULL_SPACES = {
    "gf5": {
        "base": GF5,
        "index": ["1", "2"],
        "sigma": {"1": IDENT, "2": {"kind": "comp", "factors": [IDENT]}},
        "rho": {"1": IDENT, "2": IDENT},
    },
    "gf9": {
        "base": {"kind": "gf", "p": 3, "n": 2},
        "index": ["1"],
        "sigma": {"1": {"kind": "inner", "gamma": [1, 0]}},
        "rho": {"1": {"kind": "perm", "table": [[[0, 0], [0, 0]]]}},
    },
    "real": {
        "base": {"kind": "real"},
        "index": ["1"],
        "sigma": {"1": {"kind": "rpow", "alpha": 3.0}},
        "rho": {"1": {"kind": "rpow", "alpha": 1.0}},
    },
    "complex": {
        "base": {"kind": "complex"},
        "index": ["1"],
        "sigma": {"1": {"kind": "ceps", "alpha": [1, 0]}},
        "rho": {"1": {"kind": "ceps", "alpha": [1, 0]}},
    },
}
MISSING_FIELDS = [
    ("gf5", "base"),
    ("gf5", "index"),
    ("gf5", "sigma"),
    ("gf5", "rho"),
    ("gf5", "base", "p"),
    ("gf5", "base", "n"),
    ("gf5", "sigma", "2"),
    ("gf5", "rho", "1"),
    ("gf5", "sigma", "1", "alpha"),
    ("gf5", "sigma", "2", "factors"),
    ("gf9", "sigma", "1", "gamma"),
    ("gf9", "rho", "1", "table"),
    ("real", "sigma", "1", "alpha"),
    ("complex", "rho", "1", "alpha"),
]


@pytest.mark.parametrize("missing", MISSING_FIELDS, ids="-".join)
def test_space_missing_field(capsys, tmp_path, missing):
    name, *path = missing
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_drop(FULL_SPACES[name], *path)))
    code, out, err = run_cli(capsys, "space", str(bad), "qk")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"has no {path[-1]!r} field" in err


def test_space_table_bound(capsys, tmp_path):
    # one label over GF(128): 128 vectors, but 128^3 entries of sweep tables
    spec = tmp_path / "gf128.json"
    spec.write_text(_space_text(base={"kind": "gf", "p": 2, "n": 7}))
    code, out, err = run_cli(capsys, "space", str(spec), "multiplicative")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "bound" in err and err.count("\n") == 1


def test_space_qk_charges_unconstrained_block_once(capsys, tmp_path):
    # one label over GF(1024): an unconstrained block of 1024 vectors,
    # each built once, so the materialization costs 1024 against the bound
    spec = tmp_path / "gf1024.json"
    spec.write_text(
        _space_text(base={"kind": "gf", "p": 2, "n": 10}, sigma={"kind": "fpow", "alpha": 7})
    )
    code, out, err = run_cli(capsys, "space", str(spec), "qk")
    assert code == 0 and err == ""
    assert json.loads(out)["count"] == 1024
    code, out, err = run_cli(capsys, "space", str(spec), "qk", "--bound", "1023")
    assert code == 2 and out == ""
    assert err.startswith("error: 1024 candidates exceed the bound 1023") and err.count("\n") == 1


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


@pytest.mark.parametrize(
    "text, says",
    [
        ('{"T": ["x"]}', "error:"),
        ('{"T": 5}', "error:"),
        ('{"T": [true]}', "error:"),
        ('{"T": [1], "S": [null]}', "error:"),
        ('{"T": [1], "S": 2}', "error:"),
        ('{"T": [1], "conj": "yes"}', "error:"),
        ('{"T": [1], "conj": 1}', "error:"),
        ('[1, 2]', "error:"),
        ('{"S": [1]}', "error:"),
        ('{"T": [1e300]}', "error: ceps alpha (1e+300+0j) overflows at (-10+0j)\n"),
        ('{"T": [1e-300]}', "error: inverse of ceps alpha (1e-300+0j) overflows at (2+0j)\n"),
        ('{"T": [Infinity]}', "error: T is not a finite number in the float range\n"),
        ('{"T": [1], "S": [NaN]}', "error: S is not a finite number in the float range\n"),
        ('{"T": [' + "7" * 5000 + "]}", TOO_MANY_DIGITS),
    ],
    ids=["T-text", "T-number", "T-bool", "S-null-entry", "S-number", "conj-text", "conj-int", "not-object",
         "T-missing", "T-overflow", "T-tiny-overflow", "T-infinity", "S-nan", "T-past-digit-limit"],
)
def test_complexify_malformed(capsys, tmp_path, text, says):
    cfile = tmp_path / "c.json"
    cfile.write_text(text)
    code, out, err = run_cli(capsys, "complexify", str(cfile))
    assert code == 2
    assert out == ""
    assert err.startswith(says) and err.count("\n") == 1


def _paths(obj, path=()):
    """Every key and index path inside a JSON value, below the value itself."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


DROP = object()
# swapped in at every path; [[0, 0]] is a perm table of bare integers
FUZZ_VALUES = [DROP, None, "x", [], [[0, 0]], 0, True, 1e300, -1e300, float("nan")]
FUZZ_RECORDS = [
    *(("space", rec, "qk") for rec in FULL_SPACES.values()),
    ("space", {**OVERFLOW_SPACE, "sigma": OVERFLOW_SPACE["rho"]}, "qk"),  # x^1 on both labels
    ("space", FULL_SPACES["gf5"], "axioms"),
    ("space", FULL_SPACES["gf5"], "decompose"),
    ("autos", GF5),
    ("autos", {"kind": "dickson9"}),
    ("check-base", {"kind": "gf", "p": 3, "n": 2}),
    ("check-base", {"kind": "real", "tolerance": 1e-9}),
    ("check-base", {"kind": "complex"}),
    ("complexify", {"T": [2.0, 0.5], "S": [1.0], "conj": False}),
]


def _mutants(record):
    """The record with one field dropped or one value swapped out, in every
    way ``FUZZ_VALUES`` allows."""
    for *head, last in _paths(record):
        for value in FUZZ_VALUES:
            obj = json.loads(json.dumps(record))
            holder = obj
            for key in head:
                holder = holder[key]
            if value is not DROP:
                holder[last] = value
            elif isinstance(holder, dict):
                del holder[last]
            else:
                continue
            yield obj


def _refuse(token):
    raise ValueError(f"stdout carries the non-JSON token {token}")


def test_contract_fuzz(capsys):
    for command, record, *rest in FUZZ_RECORDS:
        for obj in _mutants(record):
            argv = (command, json.dumps(obj), *rest)
            code, out, err = run_cli(capsys, *argv)
            assert code in (0, 1, 2), argv
            if code == 2:
                assert out == "" and err.startswith("error:") and err.count("\n") == 1, argv
            else:
                json.loads(out, parse_constant=_refuse)


def test_check_base(capsys):
    code, out, _ = run_cli(capsys, "check-base", '{"kind":"dickson9"}')
    assert code == 0
    data = json.loads(out)
    assert data["distributive_size"] == 3
    assert all(r["passed"] for r in data["reports"])
    assert data["product_hypotheses"]["passed"] is True


def test_check_base_bound(capsys):
    # the 32^3 associativity triples exceed the bound before any work
    code, out, err = run_cli(capsys, "check-base", '{"kind":"gf","p":2,"n":5}', "--bound", "1000")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "bound" in err and err.count("\n") == 1


def test_check_base_charges_both_triple_sweeps(capsys):
    # associativity and the distributive elements each sweep the 5^3 triples
    gf5 = '{"kind":"gf","p":5,"n":1}'
    code, out, err = run_cli(capsys, "check-base", gf5, "--bound", "249")
    assert code == 2 and out == ""
    assert err == "error: 2*5^3 triples exceed the bound 249\n"
    code, out, _ = run_cli(capsys, "check-base", gf5, "--bound", "250")
    assert code == 0 and json.loads(out)["distributive_size"] == 5


def test_check_base_bound_before_build(capsys, monkeypatch):
    import nearvec.nearfield

    def refuse(p, n):
        raise AssertionError(f"GF({p}^{n}) tables built before the bound check")

    monkeypatch.setattr(nearvec.nearfield, "gf_build", refuse)
    code, out, err = run_cli(capsys, "check-base", '{"kind":"gf","p":2,"n":16}', "--bound", "10")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "bound" in err and err.count("\n") == 1


def test_check_base_real(capsys):
    code, out, _ = run_cli(capsys, "check-base", '{"kind":"real","tolerance":1e-9}')
    assert code == 0
    data = json.loads(out)
    assert all(r["passed"] for r in data["reports"])
    assert data["product_hypotheses"]["passed"] is False


@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
def test_check_base_refuses_non_finite_tolerance(capsys, value):
    code, out, err = run_cli(capsys, "check-base", f'{{"kind":"real","tolerance":{value}}}')
    assert code == 2 and out == ""
    assert err.startswith("error:") and "tolerance" in err and err.count("\n") == 1


def test_space_refuses_non_multiplicative_table(capsys):
    d9 = Dickson9()
    bad = {x: x for x in d9.elements()}
    a, b = d9.from_int(2), d9.from_int(3)
    bad[a], bad[b] = b, a
    perm = {"kind": "perm", "table": [[list(x.coeffs), list(y.coeffs)] for x, y in bad.items()]}
    spec = {"base": {"kind": "dickson9"}, "index": ["1"], "sigma": {"1": perm}, "rho": {"1": perm}}
    code, out, err = run_cli(capsys, "space", json.dumps(spec), "qk")
    assert code == 2 and out == ""
    assert "not multiplicative" in err and err.count("\n") == 1


def test_space_charges_decoded_perm_tables(capsys, tmp_path):
    # two GF(1024) perm sigma tables: their q^2 product checks, 2^20 pairs
    # each, exceed the bound before they run
    gf = GaloisField(2, 10)
    spec = {
        "base": gf.describe(),
        "index": ["1", "2"],
        "sigma": {k: as_perm(FinitePower(gf, a)).describe() for k, a in (("1", 2), ("2", 7))},
        "rho": {k: {"kind": "fpow", "alpha": 1} for k in ("1", "2")},
    }
    path = tmp_path / "perm1024.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "space", str(path), "decompose", "--bound", "10")
    assert code == 2 and out == ""
    assert err == "error: 1024^2 product pairs exceed the bound 10\n"


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


def _bench_cli_calls():
    spec = importlib.util.spec_from_file_location("bench_cli_calls", BENCH_CLI_CALLS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CLI_CALLS = _bench_cli_calls()


@pytest.mark.parametrize("name", [name for name, _ in CLI_CALLS.calls()])
def test_cli_goldens(capsys, monkeypatch, tmp_path, name):
    # the space calls read the spec files the bench module writes to SPEC_DIR
    monkeypatch.setattr(CLI_CALLS, "SPEC_DIR", str(tmp_path))
    CLI_CALLS.write_spec_files()
    code, out, _ = run_cli(capsys, *dict(CLI_CALLS.calls())[name])
    assert CLI_CALLS.digest(out.encode(), code) == CLI_CALLS.load_goldens()[name]

import argparse
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import orlicztf as o
from orlicztf import cli
from orlicztf.modspace import ModulationSpaceSpec
from conftest import noise_field, weight_oracle


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_report_schema_and_config_echo(capsys):
    code, rep = run(capsys, ["young", "evaluate", "--kind", "power:2",
                             "--at", "3"])
    assert code == 0
    assert rep["schema"] == 1
    assert rep["command"] == "young evaluate"
    cfg = rep["config"]
    assert cfg["N"] == 256 and cfg["L"] == 12.0 and cfg["seed"] == 42
    assert rep["results"][0]["value"] == 9.0
    assert isinstance(rep["timing_ms"], float)


def test_young_conjugate_closed_form_row(capsys):
    code, rep = run(capsys, ["young", "conjugate", "--kind", "log_example",
                             "--at", "0.01"])
    assert code == 0
    rows = {r["name"]: r for r in rep["results"]}
    row = rows["closed_form_rel_error"]
    assert row["pass"] and row["value"] < 1e-6 and row["tolerance"] == 1e-6


def test_young_conjugate_at_zero(capsys):
    code, rep = run(capsys, ["young", "conjugate", "--kind", "log_example",
                             "--at", "0"])
    assert code == 0
    rows = {r["name"]: r for r in rep["results"]}
    assert rows["conjugate_value"]["value"] == 0.0
    assert rows["closed_form_rel_error"]["value"] == 0.0
    assert rows["closed_form_rel_error"]["pass"]


@pytest.mark.parametrize("at, want", [("inf", "inf"), ("nan", "nan")])
def test_young_conjugate_closed_form_row_at_non_finite(capsys, at, want):
    """Phi*(inf) = inf matches the closed form's limit; at NaN there is
    nothing to compare, so the closed-form row is left out."""
    code = cli.main(["young", "conjugate", "--kind", "log_example", "--at", at])
    out, err = capsys.readouterr()
    rep = json.loads(out, parse_constant=_reject_constant)
    assert code == 0 and err == ""
    rows = {r["name"]: r for r in rep["results"]}
    assert rows["conjugate_value"]["value"] == want
    if at == "inf":
        assert rows["closed_form_rel_error"]["value"] == 0.0
        assert rows["closed_form_rel_error"]["pass"]
    else:
        assert list(rows) == ["conjugate_value"]


@pytest.mark.parametrize("argv, want", [
    (["young", "conjugate", "--kind", "power:2", "--at", "inf"], "inf"),
    (["young", "conjugate", "--kind", "power:3", "--at", "inf"], "inf"),
    (["norm", "luxemburg", "--input", "gaussian:1", "--weight", "exponential:1000"], "inf"),
    (["entropy", "probe", "--amplitudes", "nan", "--N", "64", "--L", "8"],
     {"space_norm": "nan", "delta_entropy": "nan"}),
    (["young", "evaluate", "--kind", "cap:1", "--at", "nan"], "nan"),
    (["young", "evaluate", "--kind", "tan_example", "--at", "nan"], "nan"),
    (["young", "evaluate", "--kind", "log_example", "--at", "nan"], "nan"),
    (["young", "evaluate", "--kind", "conjugate:power:1", "--at", "nan"], "nan"),
    (["young", "conjugate", "--kind", "power:1", "--at", "nan"], "nan"),
    (["entropy", "eval", "--input", "gaussian:1", "--L", "1e200", "--N", "16"], "nan"),
], ids=["conjugate-power2", "conjugate-power3", "luxemburg-exponential-weight",
        "probe-nan-amplitude", "cap-nan", "tan-nan", "log-nan", "conjugate-power1-nan",
        "power1-conjugate-nan", "entropy-overflowing-extent"])
def test_non_finite_values_come_without_warnings(capsys, argv, want):
    """Phi*(inf) = inf, an exponential weight that overflows is inf, a
    NaN perturbation has NaN norm and entropy change, and every Young
    function is NaN at NaN; none of them prints a floating point warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 0 and err == "" and not caught
    assert json.loads(out)["results"][0]["value"] == want


@pytest.mark.parametrize("argv, want_code", [
    (["entropy", "probe", "--input", "gaussian:1", "--L", "1e155", "--N", "16"], 0),
    (["verify", "moyal", "--N", "16", "--L", "1e200", "--trials", "2"], 1),
], ids=["entropy-probe", "verify-moyal"])
def test_overflowing_extents_leave_stderr_empty(capsys, argv, want_code):
    """Squares of samples near 1e100 overflow; the report says so with
    "inf" or "nan", and stderr stays empty."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == want_code and err == "" and not caught
    json.loads(out, parse_constant=_reject_constant)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_non_finite_values_are_strict_json(capsys):
    code = cli.main(["young", "evaluate", "--kind", "power:2", "--at", "nan"])
    rep = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert code == 0
    assert rep["results"][0]["value"] == "nan"
    assert rep["config"]["at"] == "nan"
    values = [np.float64("inf"), -np.float64("inf"), np.float64("nan"),
              float("nan"), np.array([1.0, np.inf]), complex(np.inf, 1.0)]
    text = json.dumps(cli._jsonable(values))
    assert json.loads(text, parse_constant=_reject_constant) == [
        "inf", "-inf", "nan", "nan", [1.0, "inf"], {"re": "inf", "im": 1.0}]


def test_reports_deterministic_modulo_timing(capsys):
    argv = ["norm", "luxemburg", "--input", "mix:3", "--young", "power:2",
            "--N", "64", "--L", "8"]
    _, rep1 = run(capsys, argv)
    _, rep2 = run(capsys, argv)
    rep1.pop("timing_ms")
    rep2.pop("timing_ms")
    assert rep1 == rep2


def test_usage_errors_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["young", "evaluate", "--kind", "nosuch", "--at", "1"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["norm", "luxemburg", "--input", "/nonexistent/f.csv",
                  "--N", "64", "--L", "8"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["norm", "modulation", "--input", "gaussian:1",
                  "--space", "m:conjugate", "--N", "64", "--L", "8"])
    assert exc.value.code == 2
    assert "conjugate" in capsys.readouterr().err
    for action, kind in (("evaluate", "entropy"), ("conjugate", "log_example"),
                         ("inverse", "power:2"), ("evaluate", "power:2")):
        for at in (["--at", "-1"], ["--at=-1e-3"], ["--at=-inf"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(["young", action, "--kind", kind] + at)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "usage:" in err and "must be >= 0" in err
    small = ["--N", "32", "--L", "6"]
    for spec, argv in (
            ("gaussian:1:0:0:extra", ["norm", "luxemburg", "--input"]),
            ("gaussian:nan", ["norm", "luxemburg", "--input"]),
            ("bandlimited:1:0", ["norm", "luxemburg", "--input"]),
            ("bandlimited:1:-1", ["norm", "luxemburg", "--input"]),
            ("mix:1:0", ["norm", "luxemburg", "--input"]),
            ("m:power:2:power:3:entropy",
             ["norm", "modulation", "--input", "gaussian:1", "--space"]),
            ("one:5", ["norm", "luxemburg", "--input", "gaussian:1", "--weight"]),
            ("entropy:3", ["norm", "luxemburg", "--input", "gaussian:1", "--young"]),
            ("power:inf", ["norm", "luxemburg", "--input", "gaussian:1", "--young"])):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + [spec] + small)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and repr(spec) in err
    wide_xi = str(tmp_path / "V.json")
    run(capsys, ["transform", "stft", "--input", "mix:7"] + small + ["--out", wide_xi])
    with open(wide_xi) as fh:
        doc = json.load(fh)
    doc["grid"]["L"][1] *= 2.0
    with open(wide_xi, "w") as fh:
        json.dump(doc, fh)
    for argv, message in (
            (["transform", "project", "--input", wide_xi], "xi axes dual to the x axes"),
            (["psido", "kernel", "--symbol", wide_xi], "xi axes dual to the x axes"),
            (["norm", "luxemburg", "--input", "gaussian:1", "--N", "16", "--L", "inf"],
             "half-extent must be finite and positive"),
            (["verify", "moyal", "--trials", "0"], "must be an integer >= 1"),
            (["verify", "moyal", "--trials", "-3"], "must be an integer >= 1"),
            (["verify", "holder", "--trials", "0"], "must be an integer >= 1"),
            (["psido", "opnorm", "--symbol", "mix:5", "--trials", "-3"],
             "must be an integer >= 1"),
            (["young", "classify", "--kind", "entropy", "--radius", "nan"],
             "finite positive radius"),
            (["young", "classify", "--kind", "entropy", "--radius", "inf"],
             "finite positive radius"),
            (["verify", "moyal", "--tol", "-1"], "must be >= 0"),
            (["verify", "moyal", "--tol", "nan"], "must be >= 0"),
            (["verify", "moyal", "--tol=-inf"], "must be >= 0"),
            # a report that cannot be written, as for a field
            (["young", "evaluate", "--kind", "power:2", "--out",
              str(tmp_path / "missing" / "report.json")], "No such file or directory"),
            (["young", "evaluate", "--kind", "power:2", "--format", "csv", "--out",
              str(tmp_path)], "Is a directory")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "usage:" in err and message in err


@pytest.mark.parametrize("owner, name, argv", [
    (cli, "modulation_norm", ["norm", "modulation", "--input", "gaussian:1", "--d", "2"]),
    (o.verify, "_inequalities", ["verify", "holder", "--trials", "10000000"]),
], ids=["modulation-d2", "holder"])
@pytest.mark.parametrize("message", ["Unable to allocate 64.0 GiB for an array", ""],
                         ids=["numpy", "bare"])
def test_a_request_too_large_to_allocate_exits_two(monkeypatch, capsys, owner, name, argv,
                                                   message):
    """The layer raises MemoryError in place of allocating, as a request too
    large for the machine does: a d=2 modulation norm at the default N=256
    with an entropy first stage holds 32 GiB of rows, and 10^7 Hoelder
    trials of 256 complex samples are 38 GiB a batch."""
    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(owner, name, no_memory)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "usage:" in err and (message or "not enough memory") in err


def test_twisted_needs_second_input(tmp_path, capsys):
    out = tmp_path / "V.json"
    run(capsys, ["transform", "stft", "--input", "mix:7", "--N", "32", "--L", "6",
                 "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        cli.main(["transform", "twisted", "--input", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--input2" in err


def test_twisted_rejects_a_xi_axis_not_dual_to_x(tmp_path, capsys):
    path = str(tmp_path / "V.json")
    run(capsys, ["transform", "stft", "--input", "mix:7", "--N", "32", "--L", "6",
                 "--out", path])
    with open(path) as fh:
        doc = json.load(fh)
    doc["grid"]["L"][1] *= 2.0
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(SystemExit) as exc:
        cli.main(["transform", "twisted", "--input", path, "--input2", path])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "xi axis dual to the x axis" in err


_NOT_FIELDS = {
    "ab.json": '{"a": 1}',
    "list.json": "[1, 2]",
    "no_n.json": '{"grid": {"d": 1, "L": [6.0]}, "re": [0, 0], "im": [0, 0]}',
    "im_text.json": '{"grid": {"d": 1, "L": [6.0], "N": [2]}, "re": [0, 0], "im": "x"}',
    "no_l.csv": "# grid d=1 N=4\n-6,0,0\n",
    "header_only.csv": "# grid d=1 L=6 N=4\n",
}


@pytest.mark.parametrize("name", ["report.json"] + sorted(_NOT_FIELDS))
def test_malformed_field_files_exit_two(tmp_path, capsys, name):
    path = str(tmp_path / name)
    if name == "report.json":
        run(capsys, ["young", "evaluate", "--kind", "power:2", "--out", path])
    else:
        with open(path, "w") as fh:
            fh.write(_NOT_FIELDS[name])
    with warnings.catch_warnings(record=True) as caught, pytest.raises(SystemExit) as exc:
        warnings.simplefilter("always")
        cli.main(["norm", "luxemburg", "--input", path])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and f"{path} is not a saved field" in err
    assert "Warning" not in err and not caught


def test_young_inverse(capsys):
    code, rep = run(capsys, ["young", "inverse", "--kind", "power:2", "--at", "4"])
    assert code == 0 and rep["results"][0]["value"] == 2.0
    code, rep = run(capsys, ["young", "inverse", "--kind", "entropy", "--at", "0.01"])
    t = rep["results"][0]["value"]
    assert code == 0 and abs(o.YoungFunction.entropy().evaluate(t) - 0.01) < 1e-15


def test_transform_twisted_report(tmp_path, capsys):
    paths = [str(tmp_path / "F.json"), str(tmp_path / "G.json")]
    for path, signal in zip(paths, ("mix:7", "hermite:1")):
        run(capsys, ["transform", "stft", "--input", signal, "--N", "32", "--L", "6",
                     "--out", path])
    code, rep = run(capsys, ["transform", "twisted", "--input", paths[0],
                             "--input2", paths[1]])
    F, G = (o.load_json(path) for path in paths)
    assert code == 0
    assert rep["results"][0]["value"] == o.l2_norm(o.twisted_convolution(F, G))


Y = o.YoungFunction


@pytest.mark.parametrize("spec, want", [
    ("power", Y.power(2)), ("power:3", Y.power(3)),
    ("power_scaled:1.5", Y.power_scaled(1.5)), ("cap", Y.cap(1.0)),
    ("cap:2", Y.cap(2.0)), ("entropy", Y.entropy()),
    ("tan_example", Y.tan_example()), ("log_example", Y.log_example()),
    ("conjugate:entropy", Y.entropy().conjugate()),
    ("conjugate:conjugate:power:3", Y.power(3).conjugate().conjugate()),
])
def test_young_specs(spec, want):
    assert cli.parse_young(spec) == want


@pytest.mark.parametrize("spec, want", [
    ("one", o.Weight.constant_one()), ("constant_one", o.Weight.constant_one()),
    ("polynomial", o.Weight.polynomial(0.0)), ("polynomial:2", o.Weight.polynomial(2.0)),
    ("exponential:0.5", o.Weight.exponential(0.5)),
])
def test_weight_specs(spec, want):
    assert cli.parse_weight(spec) == want


@pytest.mark.parametrize("spec, phi, psi, flavor", [
    ("M2", Y.power(2), Y.power(2), "M"),
    ("Mp:1.5", Y.power(1.5), Y.power(1.5), "M"),
    ("MPhi", Y.entropy(), Y.entropy(), "M"),
    ("m:power:3", Y.power(3), Y.power(3), "M"),
    ("m:power:3:power:1.5", Y.power(3), Y.power(1.5), "M"),
    ("m:power:power:1.5", Y.power(2), Y.power(1.5), "M"),
    ("m:conjugate:power:3:entropy", Y.power(3).conjugate(), Y.entropy(), "M"),
    ("w:entropy", Y.entropy(), Y.entropy(), "W"),
    ("w:cap:2:log_example", Y.cap(2.0), Y.log_example(), "W"),
])
def test_space_specs(spec, phi, psi, flavor):
    assert cli.parse_space(spec) == ModulationSpaceSpec(phi, psi, flavor=flavor)


@pytest.mark.parametrize("spec", [
    "Mp", "Mp:nan", "bogus", "M2:3", "m", "m:conjugate", "m:bogus",
    "m:power:2:power:3:entropy", "MPhi:", "m:power:inf"])
def test_bad_space_specs(spec):
    with pytest.raises(argparse.ArgumentTypeError, match=repr(spec)):
        cli.parse_space(spec)


def test_signal_specs(grid64):
    g = grid64
    cases = [
        ("gaussian", o.make_gaussian(g, 1.0)),
        ("gaussian:2:1:-1", o.make_gaussian(g, 2.0, x0=1.0, xi0=-1.0)),
        ("hermite", o.make_hermite(g, 0)), ("hermite:3", o.make_hermite(g, 3)),
        ("mix", o.make_gaussian_mix(g, 7)), ("mix:3:2", o.make_gaussian_mix(g, 3, 2)),
        ("noise:5", noise_field(g, 5)), ("noise", noise_field(g, 7)),
        ("bandlimited", o.make_random_bandlimited(g, 7, 5.0)),
        ("bandlimited:2:3", o.make_random_bandlimited(g, 2, 3.0)),
    ]
    for spec, want in cases:
        assert np.array_equal(cli.make_signal(spec, g, 7).values, want.values), spec


_VOCAB = sorted(set(cli._YOUNG_KINDS) | set(cli._WEIGHT_KINDS) | set(cli._SPACE_KINDS)
                | set(cli._SIGNAL_KINDS)) + ["nan", "inf", "-1", "x", "", "0", "1",
                                             "2.5", "10"]
_FUZZED = (
    ["young", "evaluate", "--kind"],
    ["norm", "luxemburg", "--input"],
    ["norm", "luxemburg", "--input", "gaussian:1", "--young"],
    ["norm", "luxemburg", "--input", "gaussian:1", "--weight"],
    ["norm", "modulation", "--input", "gaussian:1", "--space"],
    ["transform", "stft", "--input", "gaussian:1", "--window"],
    ["entropy", "probe", "--amplitudes", "0.1", "--space"],
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(_FUZZED),
       st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=5))
def test_random_specs_exit_cleanly(argv, tokens):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv + [":".join(tokens), "--N", "16", "--L", "4",
                                    "--d", "1"])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    if code != 2:
        json.loads(out.getvalue(), parse_constant=_reject_constant)


def test_numerical_failure_exits_one(tmp_path, capsys):
    """A row with a tolerance passes only when its value is within it: a
    value above the tolerance fails, and so does a NaN value."""
    nan_input = str(tmp_path / "nan.json")
    g = o.make_grid(64, 8.0)
    values = o.make_gaussian(g).values.copy()
    values[0] = np.nan
    o.save_json(o.Field(g, values), nan_input)
    for argv, name in [
        (["psido", "calculi", "--symbol", "mix:5", "--input", "mix:9", "--A1", "0",
          "--A2", "0.5", "--N", "64", "--L", "8", "--tol", "1e-20"], "calculi_max_error"),
        (["transform", "wigner", "--input", "noise:3", "--A", "0.3", "--N", "128"],
         "l2_product_rel_error"),
        (["transform", "stft", "--input", nan_input, "--N", "64", "--L", "8"],
         "moyal_rel_error"),
        # --tol 0 is a tolerance of 0, not the row's default
        (["young", "conjugate", "--kind", "log_example", "--at", "0.01", "--tol", "0"],
         "closed_form_rel_error"),
    ]:
        code, rep = run(capsys, argv)
        rows = {r["name"]: r for r in rep["results"]}
        assert code == 1 and not rows[name]["pass"], argv
        if "--tol" in argv:
            assert rows[name]["tolerance"] == float(argv[argv.index("--tol") + 1])


@pytest.mark.parametrize("action", ["stft", "wigner"])
def test_isometry_row_of_a_zero_signal(capsys, action):
    """A gaussian centred far off the grid samples to zero, and for f = 0
    the isometry |T f|_2 = |f|_2 |g|_2 holds exactly: the error row is 0."""
    code, rep = run(capsys, ["transform", action, "--input", "gaussian:1:1e6",
                             "--N", "64", "--L", "8"])
    assert code == 0 and rep["results"][1]["value"] == 0.0


def test_entropy_scan_csv(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, rep = run(capsys, ["entropy", "scan", "--lambdas", "0.25,1,4",
                             "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda", "entropy", "M2_norm", "MPhi_norm"]
    assert len(rows) == 4
    lams = [float(r[0]) for r in rows[1:]]
    assert lams == [0.25, 1.0, 4.0]
    es = [float(r[1]) for r in rows[1:]]
    assert abs(es[0] - es[2]) < 1e-6  # dilation symmetry
    assert abs((es[2] - es[1]) - 0.22314355) < 1e-4  # log(5/4)


def test_transform_stft_writes_field(tmp_path, capsys):
    out = tmp_path / "V.json"
    code, rep = run(capsys, ["transform", "stft", "--input", "mix:7",
                             "--N", "64", "--L", "8", "--out", str(out)])
    assert code == 0
    import orlicztf as o
    V = o.load_json(str(out))
    assert V.grid.shape == (64, 64)
    moyal = [r for r in rep["results"] if r["name"] == "moyal_rel_error"][0]
    assert moyal["value"] < 1e-8


def test_psido_opnorm_report(capsys):
    code, rep = run(capsys, ["psido", "opnorm", "--symbol", "mix:5",
                             "--N", "64", "--L", "8", "--trials", "3",
                             "--domain", "M2", "--codomain", "M2",
                             "--symbol-space", "m:power:2:power:2"])
    assert code == 0
    rows = {r["name"]: r["value"] for r in rep["results"]}
    assert rows["method"] == "singular_value"
    assert rows["operator_norm_lower_bound"] > 0
    assert rows["ratio_to_symbol_norm"] > 0


def test_verify_subcommand_single(capsys):
    code, rep = run(capsys, ["verify", "moyal", "--trials", "5"])
    assert code == 0
    assert rep["results"][0]["name"] == "moyal_isometry"
    assert rep["results"][0]["pass"]


def test_verify_projection_and_rank_one(capsys):
    code, rep = run(capsys, ["verify", "projection"])
    assert code == 0
    code, rep = run(capsys, ["verify", "rank-one"])
    assert code == 0


def test_report_written_to_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, rep = run(capsys, ["young", "evaluate", "--kind", "entropy",
                             "--at", "1", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        saved = json.load(fh)
    assert saved["results"] == rep["results"]


def test_report_csv_format(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code, _ = run(capsys, ["young", "classify", "--kind", "power:2",
                           "--format", "csv", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["name", "value", "tolerance", "pass"]
    assert len(rows) > 3


@pytest.fixture
def phase_field_file(tmp_path, capsys):
    """The STFT of mix:7 on the N=32, L=6 grid, saved by the CLI, and read back."""
    path = str(tmp_path / "F.json")
    run(capsys, ["transform", "stft", "--input", "mix:7", "--N", "32", "--L", "6",
                 "--out", path])
    return path, o.load_json(path)


def test_norm_mixed_with_a_weight(capsys, phase_field_file):
    """Power-2 stages with a weight: the weighted L2 norm of the phase field."""
    path, F = phase_field_file
    code, rep = run(capsys, ["norm", "mixed", "--input", path,
                             "--weight", "polynomial:1"])
    w = weight_oracle(o.Weight.polynomial(1), F.grid)
    want = np.sqrt(np.sum(np.abs(F.values * w) ** 2) * F.grid.weight)
    assert code == 0
    assert rep["results"][0]["value"] == pytest.approx(want, rel=1e-12)


def test_norm_mixed_wiener_order(capsys, phase_field_file):
    """--flavor W takes the xi stage first: the L1 norm in x of the L3 norms
    in xi."""
    path, F = phase_field_file
    code, rep = run(capsys, ["norm", "mixed", "--input", path, "--flavor", "W",
                             "--phi", "power:1", "--psi", "power:3"])
    dx, dxi = (ax.spacing for ax in F.grid.axes)
    inner = np.sum(np.abs(F.values) ** 3 * dxi, axis=1) ** (1.0 / 3.0)
    want = np.sum(inner) * dx
    assert code == 0
    assert rep["results"][0]["value"] == pytest.approx(want, rel=1e-12)
    # the other order gives another number
    x_first = np.sum(np.sum(np.abs(F.values), axis=0) ** 3 * dx ** 3 * dxi) ** (1.0 / 3.0)
    assert abs(x_first - want) > 1e-3 * want


def test_verify_young_conv(capsys):
    code, rep = run(capsys, ["verify", "young-conv", "--trials", "5", "--seed", "3"])
    want = o.verify.young_convolution_inequality(trials=5, seed=3)
    assert code == 0
    assert rep["results"] == [{"name": want["name"], "value": want["value"],
                               "tolerance": want["tolerance"], "pass": want["passed"]}]


# -- one parser per process ------------------------------------------------------

_TIMING = re.compile(r'"timing_ms": [^\n]*')


def _call(argv) -> tuple:
    """(exit code, stdout, stderr) of one cli.main call, each stream
    captured by a buffer of its own."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _parsers(parser):
    """The parser and every subcommand parser under it."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_the_parser_is_not_built_at_import():
    """Importing cli builds no parser: processes that import it but never
    call main (the battery's, for one) pay nothing for it."""
    code = ("from orlicztf import cli; import sys; "
            "sys.exit(cli.build_parser.cache_info().currsize)")
    assert subprocess.run([sys.executable, "-c", code], env=dict(
        os.environ, PYTHONPATH=os.pathsep.join(sys.path))).returncode == 0


def test_twenty_calls_build_the_argument_tree_once(monkeypatch):
    """cli.main builds its parser on the first call and reuses it: twenty
    calls, six of them usage errors that exit 2, construct exactly the
    ArgumentParsers of one build_parser() run."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    argvs = [["young", "evaluate", "--kind", f"power:{p}", "--at", "2"] for p in range(1, 8)]
    argvs += [["young", "inverse", "--kind", "entropy", "--at", str(s)] for s in range(1, 8)]
    argvs += [["young", "evaluate", "--kind", "nosuch"], ["bogus"], ["norm"],
              ["young", "evaluate", "--kind", "power:2", "--at", "-1"],
              ["verify", "moyal", "--tol", "nan"], ["psido", "kernel"]]
    codes = [_call(argv)[0] for argv in argvs]
    assert len(argvs) == 20 and codes == [0] * 14 + [2] * 6
    once = len(built)
    cli.build_parser.__wrapped__()
    assert once > 0 and len(built) == 2 * once


def test_a_reused_parser_answers_in_any_order(tmp_path):
    """A success, an exit-1 failure, an exit-2 usage error, the top-level
    and a subcommand --help and an --out write, run twice in two orders
    (the first run builds the parser, every later call reuses it): each
    call gives the same exit code, stdout (timing_ms aside), stderr and
    file, whatever ran before it."""
    report = str(tmp_path / "report.csv")
    calls = {
        "ok": (["young", "evaluate", "--kind", "power:2", "--at", "3"], 0),
        "failed": (["young", "conjugate", "--kind", "log_example", "--at", "0.01",
                    "--tol", "0"], 1),
        "usage": (["norm", "luxemburg", "--input", "bogus:1"], 2),
        "help": (["--help"], 0),
        "sub_help": (["norm", "--help"], 0),
        "out": (["young", "classify", "--kind", "entropy", "--format", "csv",
                 "--out", report], 0),
    }

    def run_in(order):
        got = {}
        for name in order:
            code, out, err = _call(calls[name][0])
            got[name] = (code, _TIMING.sub("", out), err)
            if name == "out":
                with open(report) as fh:
                    got[name] += (fh.read(),)
                os.remove(report)
        return got

    cli.build_parser.cache_clear()
    first = run_in(list(calls))
    second = run_in(list(reversed(calls)))
    assert cli.build_parser.cache_info().misses == 1
    assert first == second
    assert {name: got[0] for name, got in first.items()} == {
        name: code for name, (_, code) in calls.items()}
    assert first["usage"][2].startswith("usage: orlicztf") and "bogus" in first["usage"][2]
    assert first["help"][1].startswith("usage: orlicztf") and first["help"][2] == ""
    assert first["sub_help"][1].startswith("usage: orlicztf norm")
    assert first["out"][3].startswith("name,value,tolerance,pass")


def test_no_option_has_a_mutable_default():
    """A default shared by every parse is never mutated: each is None, a
    string, a number or a handler."""
    for parser in _parsers(cli.build_parser()):
        for action in parser._actions:
            assert action.default is None or isinstance(action.default, (str, int, float)), \
                action.dest
        assert all(callable(v) for v in parser._defaults.values())


def test_a_reused_parser_reaches_patched_layer_functions(monkeypatch):
    """The handlers read the layer functions through the module's globals
    when they run, so a function patched after the parser was built (as the
    benchmark's tracer does) is the one called."""
    argv = ["norm", "luxemburg", "--input", "gaussian:1", "--N", "32", "--L", "6"]
    assert _call(argv)[0] == 0
    monkeypatch.setattr(cli, "luxemburg_norm", lambda f, phi, weight: 7.0)
    code, out, _ = _call(argv)
    assert code == 0 and json.loads(out)["results"][0]["value"] == 7.0


def test_a_closed_stdout_exits_two_without_a_traceback():
    """A reader that closed the pipe before the report came (as `| head`
    may) makes the run a usage-level failure: exit 2, and nothing on stderr
    from the report write or from the flush at shutdown."""
    argv = ["young", "evaluate", "--kind", "power:2", "--at", "3"]
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run([sys.executable, "-m", "orlicztf.cli", *argv], stdout=write,
                             stderr=subprocess.PIPE, env=dict(
                                 os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    finally:
        os.close(write)
    assert run.returncode == 2
    assert run.stderr == b""


_OPNORM = ["psido", "opnorm", "--symbol", "mix:5", "--domain", "M2", "--codomain", "M2"]
_CONTRACT_ARGVS = [
    ["entropy", "probe", "--input", "gaussian:1", "--amplitudes", "1e-170",
     "--N", "32", "--L", "6"],
    ["entropy", "probe", "--input", "gaussian:1", "--amplitudes", "1e-300",
     "--N", "32", "--L", "6"],
    *(["young", "classify", "--kind", kind, "--radius", "1e-200"]
      for kind in ("power:3", "cap:0.25", "entropy")),
    ["young", "classify", "--kind", "cap:0.25", "--steer", "2000"],
    ["young", "classify", "--kind", "entropy", "--steer", "2000", "--radius", "2"],
    ["verify", "holder", "--trials", "1"],
    ["verify", "young-conv", "--trials", "1"],
    *([*_OPNORM, "--symbol-space", space, "--N", str(n)]
      for space in ("M2", "m:power:3:power:1.5", "MPhi") for n in (16, 48, 64, 256)),
]


@pytest.mark.parametrize("argv", _CONTRACT_ARGVS, ids=" ".join)
def test_argv_keeps_the_exit_contract(argv):
    """Exit 0, 1 or 2, no traceback, and strict JSON on stdout unless the
    run is a usage error (2)."""
    code, out, err = _call(argv)
    assert code in (0, 1, 2) and "Traceback" not in err
    if code != 2:
        json.loads(out, parse_constant=_reject_constant)


@pytest.mark.parametrize("kind", ["cap:0.25", "power:3", "entropy", "tan_example"])
@pytest.mark.parametrize("steer", ["1000", "2000", "1e4"])
def test_classify_steers_at_exponents_where_top_to_the_p_underflows(kind, steer):
    """cap(0.25) reaches the second steering branch, whose windows lie
    under u = top^p = 0.2475^p, 0 in floating point at these p."""
    code, out, _ = _call(["young", "classify", "--kind", kind, "--steer", steer])
    rows = {r["name"]: r["value"] for r in json.loads(out)["results"]}
    assert code == 0 and rows[f"steered_at_{float(steer)}"] is True


@pytest.mark.parametrize("n", [16, 48, 64, 256])
def test_m2_symbol_norm_answers_at_every_n(n):
    code, out, _ = _call([*_OPNORM, "--symbol-space", "M2", "--N", str(n)])
    rows = {r["name"]: r["value"] for r in json.loads(out)["results"]}
    assert code == 0 and rows["symbol_norm"] > 0 and rows["ratio_to_symbol_norm"] > 0

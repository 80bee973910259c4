from __future__ import annotations

import csv
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathieu_kit import floquet
from mathieu_kit import cli
from mathieu_kit import closed_form, flux, oracle, reductions
from mathieu_kit.cli import JobSpec, execute, main, parse
from mathieu_kit.errors import ConvergenceError, RangeLimitError

SIDECAR_KEYS = {
    "command", "params", "variant", "nu", "mu",
    "residual_linf", "residual_l2", "passing_variant", "validity_flags",
}

SOLVE_ARGS = [
    "solve", "--m", "1", "--eta", "0", "--k0", "1", "--k", "1", "--omega", "2",
    "--variant", "corrected", "--t0", "0", "--t1", "10", "--dt", "0.01",
]

SWEEP_ARGS = ["sweep", "--h0", "0", "--h1", "2", "--nh", "3",
              "--theta0", "0", "--theta1", "1", "--ntheta", "2"]


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("MATHIEU_KIT_TOL", raising=False)


def test_parse_solve_example():
    job = parse(SOLVE_ARGS)
    assert isinstance(job, JobSpec)
    assert job.command == "solve"
    assert job.out_path is None
    p = job.parameters
    assert p["m"] == 1.0 and p["eta"] == 0.0 and p["k0"] == 1.0
    assert p["k"] == 1.0 and p["omega"] == 2.0
    assert p["variant"] == "corrected"
    assert p["t0"] == 0.0 and p["t1"] == 10.0 and p["dt"] == 0.01


def test_parse_floquet_example():
    job = parse(["floquet", "--h", "1", "--theta", "0.5"])
    assert job.command == "floquet"
    assert job.parameters == {"h": 1.0 + 0.0j, "theta": 0.5 + 0.0j}


@pytest.mark.parametrize("argv", [
    ["solve", "--m", "1", "--eta", "0", "--k0", "1", "--k", "1", "--omega", "0",
     "--t0", "0", "--t1", "1", "--dt", "0.1"],
    ["solve", "--m", "1", "--eta", "0", "--k0", "1", "--k", "1", "--omega", "2",
     "--t0", "1", "--t1", "0", "--dt", "0.1"],
    ["solve", "--badflag", "1"],
    # the series ends where it has converged: there is no truncation flag
    ["floquet", "--h", "1", "--theta", "0.5", "--trunc", "25"],
    ["nosuchcommand"],
    [],
    # non-finite or oversized grids are refused before any array is built
    SOLVE_ARGS + ["--t1", "inf"],
    SOLVE_ARGS + ["--t0=-inf"],
    SOLVE_ARGS + ["--dt", "nan"],
    SOLVE_ARGS + ["--dt", "0"],
    SOLVE_ARGS + ["--dt=-0.1"],
    SOLVE_ARGS + ["--dt", "1e-300"],
    SOLVE_ARGS + ["--dt", "1e-6"],
    SOLVE_ARGS + ["--t0=-1e308", "--t1", "1e308", "--dt", "1"],
    ["flux", "--m", "1", "--eta", "1", "--k0", "9", "--k", "0", "--omega", "1",
     "--B", "1", "--J0", "1", "--Omega", "2", "--t1", "inf"],
    ["integrate", "--h", "1", "--theta", "0", "--t1", "inf"],
    ["residual", "--m", "1", "--eta", "0", "--k0", "1", "--k", "4", "--omega", "2",
     "--n", "-1"],
    ["residual", "--m", "1", "--eta", "0", "--k0", "1", "--k", "4", "--omega", "2",
     "--n", "10000001"],
    ["residual", "--m", "1", "--eta", "0", "--k0", "1", "--k", "4", "--omega", "2",
     "--t1", "inf"],
    ["residual", "--m", "1", "--eta", "0.5", "--k0", "16.0625", "--k", "4", "--omega", "2",
     "--t0", "5", "--t1", "0", "--n", "11"],
    # sweep refuses what floquet refuses, and grids it cannot span or hold
    SWEEP_ARGS + ["--trunc", "25"],
    # the damped-oscillator flags belong to family 'damped' alone
    ["transform", "--family", "eq13", "--a", "1.5", "--b", "-0.5", "--m", "1"],
    SWEEP_ARGS + ["--nh", "0"],
    ["floquet", "--h", "1", "--theta", "nan"],
    SWEEP_ARGS + ["--h1", "inf"],
    SWEEP_ARGS + ["--theta0", "nan"],
    SWEEP_ARGS + ["--h0=-1e308", "--h1", "1e308"],
    SWEEP_ARGS + ["--nh", "10001", "--ntheta", "1000"],
    # complex flags are finite too
    SOLVE_ARGS + ["--c1", "nan"],
    SOLVE_ARGS + ["--c2", "inf"],
    ["integrate", "--h", "1", "--theta", "0", "--y0", "nan"],
    ["integrate", "--h", "1", "--theta", "0", "--dy0", "1+infj"],
])
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (SOLVE_ARGS + ["--t1", "inf"], "argument --t1: value must be finite, got inf"),
    (SOLVE_ARGS + ["--c1", "nan"], "argument --c1: value must be finite, got (nan+0j)"),
    (SOLVE_ARGS + ["--m", "one"], "argument --m: invalid float value: 'one'"),
    (SOLVE_ARGS + ["--c2", "1+"], "argument --c2: not a complex literal: '1+'"),
])
def test_a_flag_that_is_not_a_finite_number_names_itself(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


def test_grid_point_cap_is_inclusive():
    # parse only: the 10^7-point grid itself is never built
    job = parse(SOLVE_ARGS + ["--t1", "9.999999", "--dt", "1e-6"])
    assert cli._point_count(job.parameters) == cli.MAX_GRID_POINTS


def test_parser_is_built_once_and_each_job_parses_into_its_own_spec():
    solve = parse(SOLVE_ARGS)
    assert cli._build_parser() is cli._build_parser()
    floquet_job = parse(["floquet", "--h", "2", "--theta", "0.25"])
    assert floquet_job.command == "floquet"
    assert floquet_job.parameters == {"h": 2.0 + 0.0j, "theta": 0.25 + 0.0j}
    # the earlier job is untouched and a repeat parse gives an equal spec
    assert solve.command == "solve" and solve.parameters["omega"] == 2.0
    assert parse(SOLVE_ARGS) == solve


def test_usage_error_after_a_cached_parse_still_exits_2():
    parse(SOLVE_ARGS)
    with pytest.raises(SystemExit) as exc:
        parse(["solve", "--badflag", "1"])
    assert exc.value.code == 2
    assert parse(["floquet", "--h", "1", "--theta", "0.5"]).command == "floquet"


def test_tolerance_env_override(monkeypatch):
    monkeypatch.setenv("MATHIEU_KIT_TOL", "1e-9")
    job = parse(SOLVE_ARGS)
    assert job.tolerance == 1e-9
    monkeypatch.setenv("MATHIEU_KIT_TOL", "1e-20")
    with pytest.raises(SystemExit) as exc:
        parse(SOLVE_ARGS)
    assert exc.value.code == 2
    monkeypatch.setenv("MATHIEU_KIT_TOL", "not-a-number")
    with pytest.raises(SystemExit) as exc:
        parse(SOLVE_ARGS)
    assert exc.value.code == 2


def test_solve_to_files(tmp_path):
    out = tmp_path / "run.csv"
    code = main(SOLVE_ARGS + ["--out", str(out)])
    assert code == 0
    text = out.read_bytes().decode("utf-8")
    lines = text.split("\r\n")
    assert lines[0] == "t,re_y,im_y,re_dy,im_dy"
    assert len([ln for ln in lines if ln]) == 1 + 1001
    sidecar = json.loads((tmp_path / "run.json").read_text())
    assert set(sidecar.keys()) == SIDECAR_KEYS
    assert sidecar["command"] == "solve"
    assert sidecar["variant"] == "corrected"
    assert sidecar["nu"] == {"re": 1.0, "im": 0.0}
    assert sidecar["mu"] is None
    assert sidecar["residual_linf"] < 1e-8
    assert sidecar["validity_flags"]["admissible"] is True
    assert sidecar["validity_flags"]["admissible_nu"] == 1
    # the residual is against the split equation, not the cosine one
    assert sidecar["validity_flags"]["equation"] == \
        "y'' + (eta/m) y' + (k0/m + (k/m) e^{i omega t}) y = 0"
    # every numeric flag echoes into params
    for key in ("m", "eta", "k0", "k", "omega", "t0", "t1", "dt", "c1", "c2"):
        assert key in sidecar["params"]


def test_solve_to_stdout(capsys):
    code = main(["solve", "--m", "1", "--eta", "0", "--k0", "1", "--k", "1",
                 "--omega", "2", "--t0", "0", "--t1", "1", "--dt", "0.5"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("t,re_y,im_y,re_dy,im_dy")
    sidecar = json.loads(captured.err)
    assert set(sidecar.keys()) == SIDECAR_KEYS


def test_determinism_byte_identical(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(SOLVE_ARGS + ["--out", str(out_a)]) == 0
    assert main(SOLVE_ARGS + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_solve_literal_variant_fails_numerically(tmp_path):
    # both index placements admissible; the literal one does not solve the equation
    out = tmp_path / "literal.csv"
    code = main(["solve", "--m", "1", "--eta", "0", "--k0", "1", "--k", "4",
                 "--omega", "2", "--variant", "paper-literal",
                 "--t0", "0", "--t1", "10", "--dt", "0.1", "--out", str(out)])
    assert code == 1
    assert out.exists()  # report still emitted
    sidecar = json.loads((tmp_path / "literal.json").read_text())
    assert sidecar["residual_linf"] >= 1e-8
    assert sidecar["variant"] == "paper-literal"


@pytest.mark.parametrize("c1", ["1e-9", "1e-300"])
def test_the_literal_verdict_does_not_depend_on_the_constants_scale(tmp_path, c1):
    # test_solve_literal_variant_fails_numerically at smaller constants: each point's
    # defect is relative to the candidate's own terms, so shrinking it does not pass it
    figures = []
    for scale in ("1", c1):
        out = tmp_path / f"literal-{scale}.csv"
        code = main(["solve", "--m", "1", "--eta", "0", "--k0", "1", "--k", "4",
                     "--omega", "2", "--variant", "paper-literal", "--c1", scale, "--c2", "0",
                     "--t0", "0", "--t1", "10", "--dt", "0.1", "--out", str(out)])
        assert code == 1
        figures.append(json.loads(out.with_suffix(".json").read_text())["residual_linf"])
    assert figures[1] == pytest.approx(figures[0], rel=1e-12)


def test_solve_that_overflows_writes_no_artifacts(tmp_path, capsys):
    # constants near the largest double: y'' overflows, and no NaN reaches a sidecar
    out = tmp_path / "big.csv"
    code = main(["solve", "--m", "1", "--eta", "0", "--k0", "1", "--k", "1", "--omega", "2",
                 "--c1", "1e308", "--c2", "1e308", "--t1", "1", "--dt", "0.5",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert not out.exists() and not (tmp_path / "big.json").exists()
    assert captured.err == "error: the sampled solution overflows at t = 0\n"


def test_solve_near_the_overflow_edge_reports_finite_residuals(tmp_path):
    # y'' stays finite at 3e307, and so must the squares behind residual_l2
    out = tmp_path / "s.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["solve", "--m", "1", "--eta", "0", "--k0", "1", "--k", "1", "--omega", "2",
                     "--c1", "3e307", "--c2", "3e307", "--t1", "1", "--dt", "0.5",
                     "--out", str(out)])
    assert code == 0
    sidecar = json.loads((tmp_path / "s.json").read_text())
    assert math.isfinite(sidecar["residual_l2"])
    assert sidecar["residual_l2"] <= sidecar["residual_linf"]


def test_integrate_whose_derivative_norm_overflows_says_so(capsys):
    code = main(["integrate", "--h", "1", "--theta", "0", "--y0", "1e308",
                 "--t1", "1", "--dt", "0.5"])
    err = capsys.readouterr().err
    assert code == 1
    assert "overflows" in err and "underflow" not in err


def test_solve_inadmissible_is_an_error(capsys):
    code = main(["solve", "--m", "1", "--eta", "0", "--k0", "1", "--k", "1.69",
                 "--omega", "2", "--variant", "paper-literal",
                 "--t0", "0", "--t1", "1", "--dt", "0.5"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_residual_job_json(capsys):
    # distinct stiffness components: both placements admissible, only one solves
    code = main(["residual", "--m", "1", "--eta", "0", "--k0", "1", "--k", "4",
                 "--omega", "2", "--t0", "0", "--t1", "10", "--n", "201"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert set(doc.keys()) == SIDECAR_KEYS
    assert doc["command"] == "residual"
    assert doc["passing_variant"] == "corrected"
    flags = doc["validity_flags"]
    assert flags["corrected_linf"] < 1e-8
    assert flags["literal_linf"] > 1e-8
    assert flags["corrected_passes"] is True
    assert flags["literal_passes"] is False
    assert doc["residual_linf"] == flags["corrected_linf"]


def test_a_residual_job_derives_the_corrected_index_once(monkeypatch, capsys):
    # general_solution derives each variant's index once; the sidecar's nu
    # is the corrected one, read from the adjudication report
    calls = []
    index = closed_form.index

    def counted(*args, **kwargs):
        calls.append(args)
        return index(*args, **kwargs)

    monkeypatch.setattr(closed_form, "index", counted)
    code = main(["residual", "--m", "1", "--eta", "0", "--k0", "1", "--k", "4",
                 "--omega", "2", "--t0", "0", "--t1", "10", "--n", "21"])
    assert code == 0
    assert len(calls) == 2
    nu = json.loads(capsys.readouterr().out)["nu"]
    assert complex(nu["re"], nu["im"]) == index(closed_form.DampedParams(1.0, 0.0, 1.0, 4.0, 2.0))


def test_residual_job_failure_exit(capsys):
    code = main(["residual", "--m", "1", "--eta", "0.3", "--k0", "0.8", "--k", "0.9",
                 "--omega", "1.1", "--t0", "0", "--t1", "5", "--n", "101",
                 "--allow-inadmissible"])
    captured = capsys.readouterr()
    assert code == 1
    doc = json.loads(captured.out)
    assert doc["passing_variant"] is None


@pytest.mark.parametrize("argv, passing", [
    (["residual", "--m", "1", "--eta", "0", "--k0", "1", "--k", "4", "--omega", "2",
      "--n", "201"], "corrected"),
    (["residual", "--m", "1", "--eta", "0.3", "--k0", "0.8", "--k", "0.9", "--omega", "1.1",
      "--t1", "5", "--n", "101", "--allow-inadmissible"], None),
])
def test_residual_passes_are_the_passing_variant(argv, passing, capsys):
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    flags = doc["validity_flags"]
    assert doc["passing_variant"] == passing
    assert flags["corrected_passes"] == (passing == "corrected")
    assert flags["corrected_passes"] == (flags["corrected_linf"] < oracle.PASS_TOL)
    assert flags["tolerance"] == oracle.PASS_TOL
    assert code == (0 if passing else 1)


@pytest.mark.parametrize("argv, code", [
    (["solve", "--m", "1", "--eta", "0", "--k0", "1", "--k", "1", "--omega", "2",
      "--t1", "1"], 0),
    (["solve", "--m", "1", "--eta", "0", "--k0", "1", "--k", "4", "--omega", "2",
      "--variant", "paper-literal", "--t1", "1"], 1),
    (["floquet", "--h", "1", "--theta", "0.5"], 0),
    (["floquet", "--h", "1", "--theta", "3000"], 1),
])
def test_solve_and_floquet_exit_on_the_residual_verdict(argv, code, tmp_path):
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == code
    linf = json.loads((tmp_path / "x.json").read_text())["residual_linf"]
    assert code == (0 if linf < oracle.PASS_TOL else 1)


def test_residual_out_path(tmp_path):
    out = tmp_path / "report"
    code = main(["residual", "--m", "1", "--eta", "0", "--k0", "1", "--k", "1",
                 "--omega", "2", "--t0", "0", "--t1", "10", "--n", "101",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["passing_variant"] == "corrected"


def test_sweep_csv(capsys):
    code = main(SWEEP_ARGS)
    captured = capsys.readouterr()
    assert code == 0
    lines = [ln for ln in captured.out.split("\r\n") if ln]
    assert lines[0] == "h,theta,re_mu,im_mu,stability"
    assert len(lines) == 1 + 6
    for row in lines[1:]:
        stability = row.split(",")[-1]
        assert stability in ("stable", "unstable", "boundary")


def test_sweep_failed_row_keeps_its_cause(monkeypatch, capsys):
    solved = floquet.characteristic_exponent

    def fails_at_one_point(gp):
        if gp.h == 1.0 and gp.theta == 0.0:
            raise ConvergenceError("no root")
        return solved(gp)

    monkeypatch.setattr(floquet, "characteristic_exponent", fails_at_one_point)
    code = main(SWEEP_ARGS)
    captured = capsys.readouterr()
    assert code == 1
    lines = [ln for ln in captured.out.split("\r\n") if ln]
    assert len(lines) == 1 + 6
    assert "1,0,nan,nan,failed" in lines
    sidecar = json.loads(captured.err)
    assert set(sidecar.keys()) == SIDECAR_KEYS
    assert sidecar["validity_flags"] == {
        "grid_points": 6, "failures": 1, "failure_classes": {"ConvergenceError": 1},
        "failure_examples": {"ConvergenceError": {"h": 1.0, "theta": 0.0, "message": "no root"}},
    }


def test_sweep_sidecar_says_why_each_class_failed(tmp_path):
    # Hill's formula overflows at h = -1e6 for every theta: the first point speaks for both
    argv = ["sweep", "--h0=-1e6", "--h1", "1", "--nh", "2",
            "--theta0", "0.5", "--theta1", "1", "--ntheta", "2"]
    runs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        assert main(argv + ["--out", str(out)]) == 1
        runs.append((out.read_bytes(), out.with_suffix(".json").read_bytes()))
    assert runs[0] == runs[1]
    csv_bytes, sidecar_bytes = runs[0]
    assert csv_bytes.count(b"nan,nan,failed") == 2
    sidecar = json.loads(sidecar_bytes)
    assert set(sidecar.keys()) == SIDECAR_KEYS
    flags = sidecar["validity_flags"]
    assert flags["failure_classes"] == {"ConvergenceError": 2}
    example = flags["failure_examples"]["ConvergenceError"]
    assert (example["h"], example["theta"]) == (-1e6, 0.5)
    assert example["message"].startswith("Hill's formula overflowed for h=(-1000000+0j), theta=(0.5+0j)")


def test_floquet_beyond_hills_truncation_cap_is_an_error(capsys):
    # theta = 1e150 asks Hill's formula for 1.2e76 rows: refused, not a numpy traceback
    assert main(["floquet", "--h", "1", "--theta", "1e150"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Hill's formula needs truncation N=1.2e+76")
    assert "above 65536" in captured.err


def test_sweep_beyond_hills_truncation_cap_fails_only_that_point(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--h0", "1", "--h1", "1", "--nh", "1", "--theta0", "0.5",
                 "--theta1", "1e150", "--ntheta", "2", "--out", str(out)]) == 1
    rows = out.read_bytes().split(b"\r\n")
    assert rows[1].startswith(b"1,0.5,") and rows[1].endswith(b",unstable")
    assert rows[2].endswith(b",nan,nan,failed")
    flags = json.loads(out.with_suffix(".json").read_text())["validity_flags"]
    assert flags["failure_classes"] == {"ConvergenceError": 1}
    example = flags["failure_examples"]["ConvergenceError"]
    assert (example["h"], example["theta"]) == (1.0, 1e150)
    assert example["message"].startswith("Hill's formula needs truncation")


def test_stability_chart_script_writes_the_sweeps_exponents(tmp_path, capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "stability_chart.py"
    spec = importlib.util.spec_from_file_location("stability_chart", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    # the script's default rectangle, 3 x 3: (8, 3) is a point whose working
    # exponent differs from the canonical one
    assert script.main(["--nh", "3", "--ntheta", "3", "--out", str(tmp_path / "chart.csv")]) == 0
    assert main(["sweep", "--h0", "-1", "--h1", "8", "--nh", "3", "--theta0", "-3",
                 "--theta1", "3", "--ntheta", "3", "--out", str(tmp_path / "sweep.csv")]) == 0

    def exponents(name):
        with open(tmp_path / name, newline="") as fh:
            return {(float(r["h"]), float(r["theta"])): (float(r["re_mu"]), float(r["im_mu"]))
                    for r in csv.DictReader(fh)}

    chart = exponents("chart.csv")
    assert len(chart) == 9 and chart == exponents("sweep.csv")


def _transform_under_an_ascii_locale(cwd, *extra):
    # transform's variable map is "t = cos²z", which ASCII cannot encode
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "mathieu_kit.cli", "transform", "--family", "eq13",
         "--a", "1.5", "--b", "-0.5", *extra],
        env=env, capture_output=True, cwd=cwd)


def test_stdout_csv_is_utf8_under_an_ascii_locale(tmp_path):
    proc = _transform_under_an_ascii_locale(tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(b"re_h,im_h,")
    assert "cos²z".encode("utf-8") in proc.stdout
    assert json.loads(proc.stderr)["command"] == "transform"


def test_out_files_are_utf8_under_an_ascii_locale(tmp_path):
    out = tmp_path / "x.csv"
    proc = _transform_under_an_ascii_locale(tmp_path, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "cos²z".encode("utf-8") in out.read_bytes()
    assert json.loads((tmp_path / "x.json").read_text(encoding="utf-8"))["command"] == "transform"


def test_csv_writer_format_is_pinned():
    buf = io.StringIO()
    cli._write_csv(buf, ["n", "x", "y", "map"],
                   [np.arange(-1, 2), np.array([-0.0, math.nan, math.inf]),
                    np.array([1e-300, 0.1, -2.5]), [reductions.MAP_COS_SQ, "stable", "failed"]])
    assert buf.getvalue().encode("utf-8") == (
        b"n,x,y,map\r\n"
        b"-1,-0,1e-300,t = cos\xc2\xb2z\r\n"
        b"0,nan,0.10000000000000001,stable\r\n"
        b"1,inf,-2.5,failed\r\n"
    )
    # the writer quotes nothing, so no label the program writes may need quoting
    labels = [v for k, v in vars(reductions).items() if k.startswith("MAP_")]
    labels += ["stable", "unstable", "boundary", "failed"]
    assert not any(ch in label for label in labels for ch in ',"\r\n')


def test_csv_writer_blocks_match_the_row_by_row_rendering():
    block = cli.CSV_BLOCK_ROWS
    n = 3 * block + 5  # three whole blocks and a remainder
    ints = np.arange(n) - 7
    x = np.linspace(-3.0, 3.0, n) ** 3 / 7.0
    y = np.exp(np.linspace(-700.0, 700.0, n))
    # special values on both sides of every block boundary
    x[[0, block - 1, block, 2 * block, n - 1]] = [-0.0, math.nan, math.inf, -math.inf, 1e-300]
    y[[1, 2 * block - 1, 3 * block, n - 2]] = [1e-300, -0.0, math.nan, math.inf]
    labels = [(reductions.MAP_COS_SQ, "stable", "failed")[i % 3] for i in range(n)]
    buf = io.StringIO()
    cli._write_csv(buf, ["n", "x", "y", "map"], [ints, x, y, labels])
    expected = "n,x,y,map\r\n" + "".join(
        "%.17g,%.17g,%.17g,%s\r\n" % (int(i), float(a), float(b), label)
        for i, a, b, label in zip(ints, x, y, labels))
    assert buf.getvalue().encode("utf-8") == expected.encode("utf-8")


def _row_by_row(header, columns) -> bytes:
    rows = [",".join(header)] + [
        ",".join("%s" % c if isinstance(c, str) else "%.17g" % c for c in row)
        for row in zip(*(np.asarray(col).tolist() for col in columns))]
    return "".join(row + "\r\n" for row in rows).encode("utf-8")


def _written(header, columns, block_rows) -> bytes:
    # at 8 rows a block a longer table crosses block boundaries; at the
    # default a short table is one short block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "CSV_BLOCK_ROWS", block_rows)
        buf = io.StringIO()
        cli._write_csv(buf, header, columns)
    return buf.getvalue().encode("utf-8")


def _near(v: float) -> list:
    return [np.nextafter(v, 0.0), v, np.nextafter(v, math.inf)]


# the ends of fixed notation, where '%.17g' switches to an exponent; 17th
# digits that are exact ties (N / 2^j with 18 significant digits ending in 5),
# which round half to even; a value whose log10 rounds up to the next decade
CSV_BOUNDARY_CELLS = [
    *_near(1e-4), 9.9999999999999995e-5, *_near(1e-5), *_near(1e16), *_near(1e17),
    99999999999999999.0, 99999999999999984.0, 1234567890123456.25, 1234567890123456.75,
    123456789012345.125, 1 + 2.0 ** -17, 1 + 3 * 2.0 ** -17, 211 / 2.0 ** 21, 0.5, 1.0, 10.0,
    0.1, 0.3, 2.0 / 3.0, 0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    math.nan, math.inf, -math.inf, 123.0, 1e15 + 0.5,
]


@pytest.mark.parametrize("block_rows", [8, cli.CSV_BLOCK_ROWS])
def test_csv_writer_prints_boundary_cells_as_percent_g_does(block_rows):
    x = np.array(CSV_BOUNDARY_CELLS)
    header = ["n", "x", "minus_x", "label"]
    columns = [np.arange(len(x)) - 20, x, -x, ["stable", "t = cos²z", "failed"] * (len(x) // 3)]
    columns[-1] += ["boundary"] * (len(x) - len(columns[-1]))
    assert _written(header, columns, block_rows) == _row_by_row(header, columns)
    # a table with no rows is its header
    assert _written(["n", "x"], [np.arange(0), np.zeros(0)], block_rows) == b"n,x\r\n"
    # floquet's column n is int64, printed as '%.17g' prints a Python int
    n = np.array([-(2 ** 62), -7, 0, 2 ** 53 + 1, 2 ** 63 - 1])
    assert _written(["n"], [n], block_rows) == _row_by_row(["n"], [n])


_cell = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(min_value=1e-6, max_value=2e17).flatmap(lambda v: st.sampled_from([v, -v])),
    st.integers(-10 ** 18, 10 ** 18).map(float),
    st.integers(-20, 20).map(lambda e: 10.0 ** e).flatmap(lambda v: st.sampled_from(_near(v))),
)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 16).flatmap(lambda n: st.tuples(
    st.lists(st.lists(_cell, min_size=n, max_size=n), min_size=1, max_size=3),
    st.lists(st.integers(-2 ** 62, 2 ** 62), min_size=n, max_size=n),
    st.lists(st.sampled_from(["stable", "unstable", "t = cos²z", "x"]), min_size=n, max_size=n),
    st.sampled_from([8, 2048]))))
def test_csv_writer_bytes_equal_the_row_by_row_rendering(table):
    floats, ints, labels, block_rows = table
    columns = [np.array(ints, dtype=np.int64), *(np.array(c, dtype=float) for c in floats), labels]
    header = ["n", *(f"x{j}" for j in range(len(floats))), "label"]
    assert _written(header, columns, block_rows) == _row_by_row(header, columns)


def _seed_write_csv(fh, header, columns):
    # the writer before the numpy kernel: one '%.17g' per number, a block at a time
    arrays = [np.asarray(c) for c in columns]
    row = ",".join("%s" if a.dtype.kind == "U" else "%.17g" for a in arrays) + "\r\n"
    fh.write(",".join(header) + "\r\n")
    n, width = len(arrays[0]), len(arrays)
    for start in range(0, n, 2048):
        stop = min(start + 2048, n)
        cells = [None] * ((stop - start) * width)
        for j, a in enumerate(arrays):
            cells[j::width] = a[start:stop].tolist()
        fh.write((row * (stop - start)) % tuple(cells))


@pytest.mark.parametrize("block_rows", [8, cli.CSV_BLOCK_ROWS])
@pytest.mark.parametrize("argv", [
    SOLVE_ARGS,
    ["floquet", "--h", "3", "--theta", "1.5"],
    # a failed row is NaN
    ["sweep", "--h0=-1e6", "--h1", "1", "--nh", "2", "--theta0", "0.5", "--theta1", "1",
     "--ntheta", "2"],
    ["transform", "--family", "eq13", "--a", "1.5", "--b", "-0.5"],
    ["flux", "--analyze", "--m", "1", "--eta", "2", "--k0", "5", "--k", "1", "--omega", "0.2",
     "--B", "1", "--J0", "1", "--Omega", "1", "--t0", "10", "--t1", "40", "--dt", "0.05"],
    ["integrate", "--h", "1", "--theta", "0.5"],
], ids=lambda v: v[0] if isinstance(v, list) else str(v))
def test_each_command_writes_the_seed_writer_s_bytes(argv, block_rows, tmp_path, monkeypatch):
    job = parse(argv)
    table, _ = cli._RUNNERS[job.command](job, cli._sidecar_base(job))
    expected = io.StringIO()
    _seed_write_csv(expected, *table)
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block_rows)
    out = tmp_path / "x.csv"
    main(argv + ["--out", str(out)])
    assert out.read_bytes() == expected.getvalue().encode("utf-8")


def test_transform_csv(capsys):
    code = main(["transform", "--family", "eq11", "--a", "1", "--b", "2"])
    captured = capsys.readouterr()
    assert code == 0
    lines = [ln for ln in captured.out.split("\r\n") if ln]
    assert lines[0] == "re_h,im_h,re_theta,im_theta,variable_map,time_scale,prefactor_rate"
    fields = lines[1].split(",")
    assert float(fields[0]) == 3.0
    assert float(fields[2]) == -0.5
    assert fields[4] == "t = cos z"


def test_transform_damped_requires_params():
    with pytest.raises(SystemExit) as exc:
        parse(["transform", "--family", "damped"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        parse(["transform", "--family", "eq15", "--a", "1", "--b", "1", "--lam", "0"])
    assert exc.value.code == 2


def test_transform_damped_path(capsys):
    code = main(["transform", "--family", "damped", "--m", "1", "--eta", "2",
                 "--k0", "4", "--k", "0", "--omega", "2"])
    captured = capsys.readouterr()
    assert code == 0
    fields = [ln for ln in captured.out.split("\r\n") if ln][1].split(",")
    assert float(fields[0]) == 3.0
    assert float(fields[2]) == 0.0


def test_integrate_csv(capsys):
    code = main(["integrate", "--h", "1", "--theta", "0", "--y0", "1", "--dy0", "0",
                 "--t0", "0", "--t1", str(2.0 * math.pi), "--dt", str(math.pi / 8)])
    captured = capsys.readouterr()
    assert code == 0
    lines = [ln for ln in captured.out.split("\r\n") if ln]
    assert lines[0] == "t,re_y,im_y,re_dy,im_dy"
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(1.0, abs=1e-8)
    assert float(last[3]) == pytest.approx(0.0, abs=1e-8)


def test_integrate_grid_rounding_past_t1_is_integrated(capsys):
    # 5 / 0.003 rounds to 1667 steps, so the last point is 5.001, past --t1
    code = main(["integrate", "--h", "200", "--theta", "50", "--t1", "5", "--dt", "0.003"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    lines = [ln for ln in captured.out.split("\r\n") if ln]
    assert len(lines) == 1 + 1668
    assert float(lines[-1].split(",")[0]) == pytest.approx(5.001)


def test_floquet_csv_and_sidecar(tmp_path):
    out = tmp_path / "fl.csv"
    code = main(["floquet", "--h", "1", "--theta", "0.5", "--out", str(out)])
    assert code == 0
    lines = [ln for ln in out.read_bytes().decode("utf-8").split("\r\n") if ln]
    assert lines[0] == "n,re_c,im_c"
    sidecar = json.loads((tmp_path / "fl.json").read_text())
    assert set(sidecar.keys()) == SIDECAR_KEYS
    assert sidecar["mu"] is not None
    assert sidecar["residual_linf"] < 1e-8
    assert sidecar["validity_flags"]["stability"] == "unstable"


def test_flux_csv(capsys):
    code = main(["flux", "--m", "1", "--eta", "1", "--k0", "9", "--k", "0",
                 "--omega", "1", "--B", "1", "--J0", "1", "--Omega", "2",
                 "--c-light", "1", "--t0", "0", "--t1", "10", "--dt", "0.1"])
    captured = capsys.readouterr()
    assert code == 0
    lines = [ln for ln in captured.out.split("\r\n") if ln]
    assert lines[0] == "t,field"
    assert len(lines) == 1 + 101


def test_execute_roundtrip_without_main():
    job = parse(["transform", "--family", "eq17-sin", "--a", "2", "--b", "0"])
    assert execute(job) == 0


FLUX_ANALYZE_ARGS = [
    "flux", "--analyze", "--m", "1", "--eta", "2", "--k0", "5", "--k", "1",
    "--omega", "0.2", "--B", "1", "--J0", "1", "--Omega", "1",
    "--t0", "10", "--dt", "0.05",
]


def test_flux_analyze_reports_depth_near_epsilon(tmp_path):
    out = tmp_path / "flux.csv"
    code = main(FLUX_ANALYZE_ARGS + ["--t1", "110", "--out", str(out)])
    assert code == 0
    flags = json.loads((tmp_path / "flux.json").read_text())["validity_flags"]
    assert "analysis_error" not in flags
    assert abs(flags["measured_depth"] - flags["epsilon"]) <= 0.1 * flags["epsilon"]


ANALYSIS_KEYS = ("measured_depth", "measured_carrier_amplitude", "measured_modulation_phase",
                 "carrier_frequency", "modulation_frequency")


def test_flux_analyze_figures_do_not_depend_on_the_span(tmp_path):
    # 30 time units hold under one modulation period (31.4), yet the figures
    # come from the sideband amplitudes, not from the samples
    figures = []
    for t1 in ("40", "110"):
        out = tmp_path / f"flux{t1}.csv"
        assert main(FLUX_ANALYZE_ARGS + ["--t1", t1, "--out", str(out)]) == 0
        flags = json.loads((tmp_path / f"flux{t1}.json").read_text())["validity_flags"]
        assert "analysis_error" not in flags
        figures.append([flags[key] for key in ANALYSIS_KEYS])
    assert figures[0] == figures[1]
    assert figures[0][3:] == [1.0, 0.2]


def test_flux_analyze_at_a_resonance_records_the_error(tmp_path):
    # eta = k = 0 and k0 = m Omega^2: the stepper answers the motion, but no
    # steady state exists to analyze
    out = tmp_path / "flux.csv"
    code = main(["flux", "--analyze", "--m", "1", "--eta", "0", "--k0", "1", "--k", "0",
                 "--omega", "0.2", "--B", "1", "--J0", "1", "--Omega", "1",
                 "--t1", "5", "--dt", "0.5", "--out", str(out)])
    assert code == 1
    flags = json.loads((tmp_path / "flux.json").read_text())["validity_flags"]
    assert flags["motion"].startswith("stepper: ResonanceError")
    assert "exact resonance" in flags["analysis_error"]
    assert not any(key in flags for key in ANALYSIS_KEYS)
    assert len(out.read_bytes().split(b"\r\n")) == 1 + 11 + 1


def test_flux_runs_no_stepper(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle's stepper was called")
    for module, name in ((oracle, "integrate"), (oracle, "_integrate_raw"),
                         (flux, "integrate"), (cli, "integrate")):
        monkeypatch.setattr(module, name, refuse)
    out = tmp_path / "flux.csv"
    assert main(FLUX_ANALYZE_ARGS + ["--t1", "110", "--out", str(out)]) == 0
    assert out.read_bytes().count(b"\r\n") == 1 + 2001
    flags = json.loads((tmp_path / "flux.json").read_text())["validity_flags"]
    assert flags["motion"] == "closed form"


def test_flux_the_closed_form_refuses_is_integrated(tmp_path):
    # reduces to (h, theta) = (1, 3000), beyond floquet.solve's series: the
    # job is answered by the oracle, as before the closed form
    out = tmp_path / "flux.csv"
    code = main(["flux", "--m", "1", "--eta", "0.2", "--k0", "0.0125", "--k", "-15",
                 "--omega", "0.1", "--B", "1", "--J0", "1", "--Omega", "1",
                 "--t1", "20", "--dt", "0.05", "--out", str(out)])
    assert code == 0
    assert out.read_bytes().count(b"\r\n") == 1 + 401
    flags = json.loads((tmp_path / "flux.json").read_text())["validity_flags"]
    assert flags["motion"].startswith("stepper: ConvergenceError")


def test_flux_output_does_not_depend_on_the_tolerance(tmp_path, monkeypatch):
    texts = []
    for tol in ("1e-6", "1e-12"):
        monkeypatch.setenv("MATHIEU_KIT_TOL", tol)
        out = tmp_path / f"flux{tol}.csv"
        assert main(FLUX_ANALYZE_ARGS + ["--t1", "110", "--out", str(out)]) == 0
        side = json.loads((tmp_path / f"flux{tol}.json").read_text())
        texts.append((out.read_bytes(), side["validity_flags"]))
    assert texts[0] == texts[1]


# the CSV's field column is -(B/c) y' of the motion, bit for bit the y row of
# field_from_motion, which also forms the field's own derivatives
FIELD_JOBS = {
    "closed-form-flux_demod-0.016": [
        "flux", "--analyze", "--m", "1", "--eta", "2", "--k0", "62.5", "--k", "1", "--omega", "0.016",
        "--B", "1", "--J0", "1", "--Omega", "1", "--t0", "17.5", "--t1", "60", "--dt", repr(math.pi / 32)],
    "stepper-routed": [
        "flux", "--m", "1", "--eta", "0.2", "--k0", "0.0125", "--k", "-15", "--omega", "0.1",
        "--B", "1", "--J0", "1", "--Omega", "1", "--t1", "20", "--dt", "0.05"],
    "tongue-edge-b1(0.5)": [
        "flux", "--m", "1", "--eta", "0", "--k0", "0.4706543549338391", "--k", "-1", "--omega", "2",
        "--B", "1", "--J0", "1", "--Omega", "0.7", "--t1", "15", "--dt", "0.05"],
}


@pytest.mark.parametrize("argv", list(FIELD_JOBS.values()), ids=list(FIELD_JOBS))
def test_the_flux_field_column_is_field_from_motion_s_bit_for_bit(argv, tmp_path):
    out = tmp_path / "flux.csv"
    assert main(argv + ["--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    # each cell is '%.17g', which reads back to its double exactly
    written = np.array([float(field) for _, field in rows])
    job = parse(argv)
    p = job.parameters
    ts, _ = flux.motion_from_rest(job.inputs, min(0.0, p["t0"]), cli._time_grid(p), job.tolerance)
    want = np.asarray(flux.field_from_motion(job.inputs, ts).y).real
    assert written.tobytes() == want.tobytes()


def test_a_field_past_double_precision_exits_1_with_one_error_line(tmp_path):
    # the motion is finite and B/c = 1e310 is not: the field column is refused
    # by name, with no traceback and no artifact, under CI's warning flag
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "mathieu_kit.cli", "flux",
         "--m", "1", "--eta", "2", "--k0", "62.5", "--k", "1", "--omega", "0.016", "--B", "1e300",
         "--J0", "1e-300", "--Omega", "1", "--c-light", "1e-10", "--t0", "17.5", "--t1", "30",
         "--dt", "0.1", "--out", "flux.csv"],
        env=env, capture_output=True, cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.decode() == "error: the induced field -(B/c) y' leaves double precision\n"
    assert proc.stdout == b""
    assert list(tmp_path.iterdir()) == []


def test_flux_that_overflows_writes_no_non_finite_field(tmp_path, capsys):
    # undamped, k0 < 0: the transient grows like e^{10 t} and overflows by t = 71
    out = tmp_path / "flux.csv"
    code = main(["flux", "--m", "1", "--eta", "0", "--k0", "-100", "--k", "0.5",
                 "--omega", "1", "--B", "1", "--J0", "1", "--Omega", "1.2",
                 "--t1", "200", "--dt", "0.1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert not out.exists() and not (tmp_path / "flux.json").exists()
    assert "overflows" in captured.err
    assert captured.out == ""


# each leaves double precision; under CI's flags (a numpy RuntimeWarning is an
# error) each must still end in RangeLimitError, and a CLI job in exit 1 with
# no artifact, not in NaN, inf or a traceback
_FLUX_JOB = ["flux", "--m", "1", "--eta", "2", "--k0", "100", "--k", "1", "--omega", "0.01",
             "--B", "1e155", "--J0", "1e-160", "--Omega", "1", "--t1", "5", "--dt", "0.1"]
_HUGE_FIELD = flux.FluxParams(base=flux.DampedParams(1.0, 0.5, 2.0, 1.0, 2.0), B=1e300,
                              J0=1e-300, Omega=1.0, c_light=1e-100)
OVERFLOWS = [
    ("floquet-job-re-mu-59", ["floquet", "--h", "1", "--theta", "12000"]),
    ("flux-job-B-squared-1e310", _FLUX_JOB),
    ("eval_floquet_grid", lambda: floquet.eval_floquet_grid(
        floquet.solve(floquet.GeneralParams(1.0, 12000.0)), np.linspace(0.0, 20.0, 401))),
    ("SinusoidalResponse", lambda: flux.SinusoidalResponse(1.0, 1e200, 0.1).evaluate([0.0, 1.0])),
    ("field_from_motion-scale-1e400", lambda: flux.field_from_motion(
        _HUGE_FIELD, flux.SinusoidalResponse(1.0, 1.0, 0.1).evaluate([0.0, 1.0]))),
    ("hill_determinant-mu-3e7",
     lambda: floquet.hill_determinant(floquet.GeneralParams(1.0, 0.5), 3e7)),
    ("hill_determinant-theta-1e200",
     lambda: floquet.hill_determinant(floquet.GeneralParams(1.0, 1e200), 0.1)),
    ("wronskian_abel", lambda: oracle.wronskian_abel(lambda t: -1.0, 3e7, [0.0, 1000.0])),
]


@pytest.mark.parametrize("case", [case for _, case in OVERFLOWS], ids=[i for i, _ in OVERFLOWS])
def test_an_overflow_is_a_range_limit_error(case, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if callable(case):
            with pytest.raises(RangeLimitError):
                case()
            return
        out = tmp_path / "job.csv"
        assert main(case + ["--out", str(out)]) == 1
    assert not out.exists() and not (tmp_path / "job.json").exists()
    assert capsys.readouterr().err.startswith("error: ")


# a derived quantity that leaves double precision names itself in a
# RangeLimitError (a regex on its message), under CI's warning flags too, and a
# CLI job prints it after "error: ", not a traceback
_MASS_1E_300 = ["flux", "--m", "1e-300", "--eta", "1", "--k0", "1", "--k", "1", "--omega", "1",
                "--B", "1", "--J0", "1", "--Omega", "1"]
_FAST_MODULATION = flux.DampedParams(1.0, 0.0, 0.0, 1.0, -1e300)
_HUGE_STIFFNESS = flux.DampedParams(1.0, 1.0, 1e300, 2.0, 1e154)
NAMED_OVERFLOWS = [
    ("reduce-eq15-lambda-1e200", r"^lambda\^2 = ", lambda: reductions.reduce(
        reductions.ReductionInput("eq15", a=1e200, b=1e200, lam=1e200))),
    ("reduce-damped-omega-1e-200", r"^h = ", lambda: reductions.reduce(reductions.ReductionInput(
        "damped", params=flux.DampedParams(1.0, 1.0, 1.0, 1.0, 1e-200)))),
    ("index-k0-1e308", r"^the index nu = ",
     lambda: closed_form.index(flux.DampedParams(1.0, 0.5, 1e308, 1.0, 2.0))),
    ("argument-scale-k-over-m-1e600", r"^the argument scale = ",
     lambda: closed_form.argument_scale(flux.DampedParams(1e-300, 0.5, 1.0, 1e300, 2.0))),
    ("steady-state-drive-1e610", r"^the steady-state sideband amplitudes ", lambda: flux.steady_state_modulation(flux.FluxParams(
        flux.DampedParams(1.0, 2.0, 100.0, 1.0, 0.01), B=1e300, J0=1e300, Omega=1.0,
        c_light=1e-10))),
    ("transform-job-eq15", r"^lambda\^2 = ",
     ["transform", "--family", "eq15", "--a", "1e200", "--b", "1e200", "--lam", "1e200"]),
    ("flux-job-m-1e-300", r"^h = ", _MASS_1E_300),
    # the exponent rate i omega/2 is finite, its square is not
    ("evaluate-grid-omega-1e300", r"^the exponent rate squared ",
     lambda: closed_form.evaluate_grid(closed_form.general_solution(
         _FAST_MODULATION, c2=1.0, allow_inadmissible=True), [0.0, 0.5, 1.0])),
    ("solve-job-omega-1e300", r"^the exponent rate squared ",
     ["solve", "--m", "1", "--eta", "0", "--k0", "0", "--k", "1", "--omega=-1e300", "--c2", "1",
      "--allow-inadmissible", "--t1", "1", "--dt", "0.5"]),
    # the samples and the coefficients are finite, q y is not
    ("residual-k0-1e300", r"^the defect y'' \+ p y' \+ q y - f ", lambda: oracle.residual(
        closed_form.split_ode(_HUGE_STIFFNESS), closed_form.evaluate_grid(closed_form.general_solution(
            _HUGE_STIFFNESS, c2=1.0, allow_inadmissible=True), np.linspace(0.0, 10.0, 501)))),
    ("residual-job-k0-1e300", r"^the defect y'' \+ p y' \+ q y - f ",
     ["residual", "--m", "1", "--eta", "1", "--k0", "1e300", "--k", "2", "--omega", "1e154",
      "--allow-inadmissible"]),
]


@pytest.mark.parametrize("name, case", [case[1:] for case in NAMED_OVERFLOWS],
                         ids=[case[0] for case in NAMED_OVERFLOWS])
def test_a_derived_quantity_out_of_range_is_named(name, case, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        if callable(case):
            with pytest.raises(RangeLimitError, match=name):
                case()
            return
        assert main(case) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and re.search(name, err.removeprefix("error: "))


def test_floquet_at_the_reduction_of_a_flux_job(tmp_path):
    # reduce() of the flux job m = 1, eta = 2, k0 = 62.5, k = 1, omega = 0.016
    out = tmp_path / "fl.csv"
    code = main(["floquet", "--h", "960937.5", "--theta", "-7812.5", "--out", str(out)])
    assert code == 0
    assert json.loads((tmp_path / "fl.json").read_text())["residual_linf"] < 1e-8

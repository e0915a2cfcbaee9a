import dataclasses
import importlib.util
import inspect
import math
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import spinbath
from spinbath.cli import main
from spinbath.closed_forms import critical_value_per_j
from spinbath.liouvillian import build_bruteforce, build_sector
from spinbath.model import ModelParams
from spinbath.output import (
    fmt,
    parse_float_list,
    parse_initial,
    parse_time_grid,
    read_config,
    write_csv,
)


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def test_fmt_17_digits():
    assert fmt(1 / 3) == f"{1/3:.17g}"
    assert fmt(7) == "7"


def test_write_csv_and_header(tmp_path):
    path = write_csv(str(tmp_path / "x.csv"), ["a", "b"], [[1, 0.5], [2, 0.25]])
    lines = read(path).splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,0.5"


def test_read_config(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# comment\ntwo_j=4 8\np = 0.5\n\n", encoding="utf-8")
    cfg = read_config(str(cfg_file))
    assert cfg == {"two_j": "4 8", "p": "0.5"}


def test_repeated_config_key_is_an_error(tmp_path, capsys):
    # the last value used to win silently: this file ran at gamma = 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma=1\n# rate\ngamma = 2\n", encoding="utf-8")
    rc = main(["spectrum", "--two-j", "4", "--p", "0.5", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert one_line_error(capsys) == f"error: {cfg}:3: key 'gamma' is already set on line 1\n"
    assert not (tmp_path / "out").exists()


def test_parse_time_grid():
    ts = parse_time_grid("lin:0:3:4")
    assert np.allclose(ts, [0, 1, 2, 3])
    ts = parse_time_grid("log:0.01:100:5")
    assert np.allclose(ts, [0.01, 0.1, 1, 10, 100])
    with pytest.raises(ValueError):
        parse_time_grid("lin:0:3")
    with pytest.raises(ValueError):
        parse_time_grid("log:0:3:5")


def test_parse_initial():
    name, kw = parse_initial("hp-doublet:a=0:b=1/6")
    assert name == "hp-doublet"
    assert kw["b"] == pytest.approx(1 / 6)
    name, kw = parse_initial("fock:m=top")
    assert math.isinf(kw["m"])
    name, kw = parse_initial("coherent:theta=1.5:phi=0")
    assert kw["theta"] == 1.5
    with pytest.raises(ValueError):
        parse_initial("wigner:x=1")
    # a key the selector does not take is an error, not a silent default
    for spec in ("coherent:theta=1:zeta=3", "fock:m=top:k=3", "hp-doublet:a=0:b=1/6:c=9"):
        with pytest.raises(ValueError, match="takes no key"):
            parse_initial(spec)


def test_parse_float_list_fractions():
    assert parse_float_list("0.5, 1/4 2") == [0.5, 0.25, 2.0]


@pytest.mark.parametrize("argv,csvs", [
    (["spectrum", "--two-j", "8", "--p", "0 0.5", "--m", "0 1"], ["spectra.csv", "spectrum.svg"]),
    # at 2j = 320 one dgtsv call holds fewer columns than the M = 0 sector has
    (["spectrum", "--two-j", "320", "--p", "0.5", "--m", "0 7"], ["spectra.csv", "spectrum.svg"]),
    (["scaling", "--two-j", "8 12 16 20", "--p", "0.2 0.5", "--gamma-bound", "1e-4 1e-6"],
     ["doublet_eigenvalues.csv", "d1_decay.csv", "precursor.csv", "fits.csv"]),
], ids=["spectrum", "spectrum-several-blocks", "scaling"])
def test_spectrum_command_deterministic(tmp_path, argv, csvs):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    rc = main(argv + ["--out", str(out1), "--jobs", "1"])
    assert rc == 0
    # worker count must not affect the bytes
    rc = main(argv + ["--out", str(out2), "--jobs", "3"])
    assert rc == 0
    for name in csvs:
        assert read(out1 / name) == read(out2 / name)
    if argv[0] == "spectrum":
        lines = read(out1 / "spectra.csv").splitlines()
        assert lines[0] == "two_j,p,gamma,gamma0,h,M,N,re_lambda,im_lambda,d_N"
        assert read(out1 / "spectrum.svg").count("<circle ") == len(lines) - 1  # each eigenvalue drawn once
    else:
        assert any(line.startswith("d1_decay") for line in read(out1 / "fits.csv").splitlines())


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1
    return err


@pytest.mark.parametrize("ms", ["0 99", "99", "-5"])
def test_spectrum_rejects_sector_beyond_largest_size(tmp_path, capsys, ms):
    rc = main(["spectrum", "--two-j", "4", "--p", "0.5", "--m", ms, "--out", str(tmp_path)])
    assert rc == 2
    assert "M=" in one_line_error(capsys)
    assert not (tmp_path / "spectra.csv").exists()


def test_spectrum_sector_fitting_only_larger_sizes(tmp_path):
    rc = main(["spectrum", "--two-j", "4 8", "--p", "0.5", "--m", "6", "--out", str(tmp_path)])
    assert rc == 0
    rows = [r.split(",") for r in read(tmp_path / "spectra.csv").splitlines()[1:]]
    assert {(r[0], r[5]) for r in rows} == {("8", "6")}  # skipped for 2j = 4
    assert len(rows) == 3


@pytest.mark.parametrize("extra,cfg_line", [
    (["--jobs", "0"], None),
    (["--jobs", "-3"], None),
    ([], "jobs=0"),
    ([], "doublet_threshold=2"),
    ([], "doublet_threshold=0"),
    ([], "doublet_threshold=nan"),
], ids=["jobs-0", "jobs-minus-3", "config-jobs-0", "threshold-2", "threshold-0", "threshold-nan"])
def test_spectrum_rejects_bad_jobs_and_threshold(tmp_path, capsys, extra, cfg_line):
    argv = ["spectrum", "--two-j", "4", "--p", "0.5", "--out", str(tmp_path / "out")] + extra
    if cfg_line is not None:
        (tmp_path / "run.cfg").write_text(cfg_line + "\n", encoding="utf-8")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert main(argv) == 1
    one_line_error(capsys)
    assert not (tmp_path / "out" / "spectra.csv").exists()


@pytest.mark.parametrize("argv,cfg_line", [
    (["scaling", "--two-j", "80 320 640", "--p", "0.5", "--gamma-bound", "1e-4 0"], None),
    (["scaling", "--two-j", "80 320 640", "--p", "0.5", "--gamma-bound", "1e-4 nan"], None),
    (["scaling", "--two-j", "80 320 640", "--p", "0.5", "--gamma-bound", "0.5 1"], None),
    (["spectrum", "--two-j", "4", "--p", "0.5"], "doublet_threshold=2"),
], ids=["bound-0", "bound-nan", "bound-1", "threshold-2"])
def test_bad_coalescence_bound_rejected_before_any_solve(tmp_path, capsys, monkeypatch, argv, cfg_line):
    # every bound is checked, not only the largest one (max() skips NaN), before the first sector is built
    import spinbath.cli as cli

    def no_build(params, M):
        raise AssertionError("a sector was built before the bounds were checked")

    monkeypatch.setattr(cli, "build_sector", no_build)
    if cfg_line is not None:
        (tmp_path / "run.cfg").write_text(cfg_line + "\n", encoding="utf-8")
        argv = argv + ["--config", str(tmp_path / "run.cfg")]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert "must lie in (0, 1)" in one_line_error(capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_scaling_rejects_non_finite_lambda_c(tmp_path, capsys, value):
    (tmp_path / "run.cfg").write_text(f"lambda_c_per_j={value}\n", encoding="utf-8")
    rc = main(["scaling", "--two-j", "20 40 60", "--p", "0.5", "--config", str(tmp_path / "run.cfg"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "lambda_c_per_j" in one_line_error(capsys)
    assert not (tmp_path / "out" / "fits.csv").exists()


@pytest.mark.parametrize("argv", [
    ["scaling", "--two-j", "8", "--p", "0.5", "--m", "3"],
    ["scaling", "--two-j", "8", "--p", "0.5", "--times", "lin:0:1:2"],
    ["scaling", "--two-j", "8", "--p", "0.5", "--initial", "fock:m=1"],
    ["spectrum", "--two-j", "4", "--p", "0.5", "--gamma-bound", "5"],
    ["spectrum", "--two-j", "4", "--p", "0.5", "--times", "lin:0:1:2"],
    ["spectrum", "--two-j", "4", "--p", "0.5", "--initial", "fock:m=1"],
    ["evolve", "--two-j", "4", "--p", "0", "--initial", "fock:m=top", "--m", "0"],
    ["evolve", "--two-j", "4", "--p", "0", "--initial", "fock:m=top", "--gamma-bound", "1e-4"],
    ["evolve", "--two-j", "4", "--p", "0", "--initial", "fock:m=top", "--jobs", "2"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_flag_the_command_does_not_read_is_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv,cfg,unread", [
    (["scaling", "--two-j", "8", "--p", "0.5"], "m=3\ntimes=lin:0:1:2\n", "m, times"),
    (["spectrum", "--two-j", "4", "--p", "0.5"], "gamma_bound=5\n", "gamma_bound"),
    (["spectrum", "--two-j", "4", "--p", "0.5"], "gama=2\n", "gama"),
    (["spectrum", "--two-j", "4", "--p", "0.5"], "lambda_c_per_j=-0.1\n", "lambda_c_per_j"),
    (["scaling", "--two-j", "8", "--p", "0.5"], "doublet_threshold=1e-6\n", "doublet_threshold"),
    (["evolve", "--two-j", "4", "--initial", "fock:m=top"], "cross_check_max_two_j=4\nm=0\n", "m"),
    (["evolve", "--two-j", "4", "--initial", "fock:m=top"], "jobs=2\n", "jobs"),
], ids=["scaling-m-times", "spectrum-gamma_bound", "spectrum-typo", "spectrum-lambda_c", "scaling-threshold",
        "evolve-m", "evolve-jobs"])
def test_config_key_the_command_does_not_read_is_usage_error(tmp_path, capsys, argv, cfg, unread):
    (tmp_path / "run.cfg").write_text(cfg, encoding="utf-8")
    rc = main(argv + ["--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert one_line_error(capsys).endswith(f"does not read config key(s) {unread}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,cfg,key", [
    (["spectrum", "--two-j", "4", "--p", "abc"], None, "p"),
    (["spectrum", "--two-j", "4", "--p", "0.5", "--m", "x"], None, "m"),
    (["spectrum", "--two-j", "4.5", "--p", "0.5"], None, "two_j"),
    (["spectrum", "--two-j", "4", "--p", "top"], None, "p"),
    (["spectrum", "--two-j", "4", "--p", "1/0"], None, "p"),
    (["spectrum", "--two-j", "4", "--p", "0.5", "--jobs", "abc"], None, "jobs"),
    (["spectrum", "--two-j", "4", "--p", "0.5"], "h=abc\n", "h"),
    (["scaling", "--two-j", "8", "--p", "0.5", "--gamma-bound", "zz"], None, "gamma_bound"),
    (["evolve", "--two-j", "4", "--initial", "fock:m=top", "--times", "lin:0:3"], None, "times"),
    (["evolve", "--two-j", "4", "--initial", "fock:m=top", "--times", "lin:0:top:5"], None, "times"),
    (["evolve", "--two-j", "4", "--initial", "fock:m=top", "--times", "lin:0:inf:5"], None, "times"),
    # a decreasing or negative grid used to exit 1 with a line that did not name the key
    (["evolve", "--two-j", "4", "--initial", "fock:m=top", "--times", "lin:3:0:5"], None, "times"),
    (["evolve", "--two-j", "4", "--initial", "fock:m=top", "--times", "lin:-1:3:5"], None, "times"),
    (["evolve", "--two-j", "4", "--initial", "fock:m=top", "--times", "log:1:0.1:3"], None, "times"),
    (["evolve", "--two-j", "4", "--initial", "fock:m=top"], "cross_check_max_two_j=1.5\n", "cross_check_max_two_j"),
    # selector values are finite; m=top is the one way to write the top state
    (["evolve", "--two-j", "4", "--initial", "coherent:theta=nan"], None, "initial"),
    (["evolve", "--two-j", "4", "--initial", "coherent:theta=inf"], None, "initial"),
    (["evolve", "--two-j", "4", "--initial", "hp-doublet:a=nan:b=0.1"], None, "initial"),
    (["evolve", "--two-j", "4", "--initial", "hp-doublet:a=0:b=inf"], None, "initial"),
    (["evolve", "--two-j", "4", "--initial", "fock:m=nan"], None, "initial"),
    (["evolve", "--two-j", "4", "--initial", "fock:m=inf"], None, "initial"),
], ids=["p-abc", "m-x", "two_j-4.5", "p-top", "p-1/0", "jobs-abc", "config-h-abc", "gamma_bound-zz",
        "times-3-parts", "times-top", "times-inf", "times-decreasing", "times-negative", "times-log-decreasing",
        "config-cross_check", "theta-nan", "theta-inf", "a-nan", "b-inf",
        "m-nan", "m-inf"])
def test_value_its_key_cannot_parse_is_usage_error(tmp_path, capsys, argv, cfg, key):
    if cfg is not None:
        (tmp_path / "run.cfg").write_text(cfg, encoding="utf-8")
        argv = argv + ["--config", str(tmp_path / "run.cfg")]
    rc = main(argv + ["--out", str(tmp_path / "out")])
    assert rc == 2
    assert one_line_error(capsys).startswith(f"error: {key}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("two_j", ["-4", "4 -4", "0"])
@pytest.mark.parametrize("command", [
    ["spectrum", "--p", "0.5"],
    ["scaling", "--p", "0.5"],
    ["evolve", "--initial", "fock:m=0"],
], ids=["spectrum", "scaling", "evolve"])
def test_non_positive_size_is_usage_error(tmp_path, capsys, command, two_j):
    # spectrum --two-j -4 used to write a header-only CSV and then fail; "4 -4" dropped -4 silently
    rc = main(command + ["--two-j", two_j, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert one_line_error(capsys).startswith("error: two_j: ")
    assert not (tmp_path / "out").exists()


def test_scaling_bounded_eigenvectors_give_the_full_bytes(tmp_path, monkeypatch):
    # eigenvectors only down to the deepest precursor must not move a byte of any output;
    # 2j = 320 is the size whose first block (_SOLVE_ELEMENTS // 321 = 204 columns) holds the precursor
    import spinbath.cli as cli

    argv = ["scaling", "--two-j", "8 12 16 20 40 320", "--p", "0.2 0.5 0.999", "--gamma-bound", "1e-4 1e-6"]
    bounded, columns = cli.sp.diagonalize, []

    # diagonalize_each hands diagonalize the eigenvalues it computed ahead (_eigenvalues)
    def counting(op, bound=None, **ahead):
        dec = bounded(op, bound=bound, **ahead)
        columns.append((dec.right_eigenvectors.shape[1], dec.dim))
        return dec

    monkeypatch.setattr(cli.sp, "diagonalize", counting)
    assert main(argv + ["--out", str(tmp_path / "bounded")]) == 0
    assert (204, 321) in columns
    monkeypatch.setattr(cli.sp, "diagonalize", lambda op, bound=None, **ahead: bounded(op, **ahead))
    assert main(argv + ["--out", str(tmp_path / "full")]) == 0
    names = sorted(os.listdir(tmp_path / "full"))
    assert names == ["d1_decay.csv", "d1_decay.svg", "doublet_eigenvalues.csv", "fits.csv", "precursor.csv"]
    assert sorted(os.listdir(tmp_path / "bounded")) == names
    for name in names:
        assert read(tmp_path / "bounded" / name) == read(tmp_path / "full" / name)


def test_spectrum_requires_sweeps(capsys):
    rc = main(["spectrum"])
    assert rc == 2


def test_spectrum_empty_sweep_is_usage_error():
    rc = main(["spectrum", "--two-j", "", "--p", "0.5", "--out", "/tmp/spinbath-empty"])
    assert rc == 2
    rc = main(["spectrum", "--two-j", "4", "--p", "0.5", "--m", "", "--out", "/tmp/spinbath-empty"])
    assert rc == 2
    rc = main(["scaling", "--two-j", "8", "--p", "0.5", "--gamma-bound", "", "--out", "/tmp/spinbath-empty"])
    assert rc == 2
    rc = main(["evolve", "--two-j", "", "--initial", "fock:m=top", "--out", "/tmp/spinbath-empty"])
    assert rc == 2


def test_non_finite_parameter_is_one_line_error(capsys, tmp_path):
    rc = main(["spectrum", "--two-j", "4", "--p", "nan", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc != 0
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1


def run_module_with_config(tmp_path, argv, cfg_line):
    """python -m spinbath argv with a one-line config file; the completed process and its --out path."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_line + "\n", encoding="utf-8")
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(spinbath.__file__)))
    proc = subprocess.run([sys.executable, "-m", "spinbath", *argv, "--config", str(cfg), "--out", str(out)],
                          env=env, capture_output=True, text=True)
    return proc, out


@pytest.mark.parametrize("argv", [["spectrum", "--two-j", "4", "--p", "0.5"],
                                  ["evolve", "--two-j", "4", "--p", "0.5", "--initial", "fock:m=top"]])
def test_overflowing_bands_are_one_line_error(tmp_path, argv):
    # gamma = 1e308 overflows the bands: build_sector rejects them, with no numpy warning on stderr
    proc, out = run_module_with_config(tmp_path, argv, "gamma=1e308")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: sector operator overflows the double range (two_j=4, M=")
    assert len(proc.stderr.splitlines()) == 1
    assert not out.exists()


SPECTRUM_P05 = ["spectrum", "--two-j", "4", "--p", "0.5"]


@pytest.mark.parametrize("argv,gamma", [
    # every off-diagonal entry is subnormal, so the symmetric coupling's square underflows and no
    # normal pair of entries can stand in for it; scaling meets this on its helper thread
    (["scaling", "--two-j", "4", "--p", "0.5"], "1e-320"),
    (SPECTRUM_P05, "1e-320"),
    # the smallest subnormal rate rounds off-diagonal entries to exactly 0
    (["evolve", "--two-j", "4", "--p", "0.5", "--initial", "fock:m=top"], "5e-324"),
])
def test_underflowing_bands_are_one_line_error(tmp_path, argv, gamma):
    proc, out = run_module_with_config(tmp_path, argv, f"gamma={gamma}")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: sector operator underflows the double range (two_j=4, M=")
    assert len(proc.stderr.splitlines()) == 1
    assert not out.exists()


def spectrum_rows(path):
    """(two_j, M, N) -> (re_lambda, im_lambda) of a spectra.csv."""
    rows = [r.split(",") for r in read(path).splitlines()[1:]]
    return {(int(r[0]), int(r[5]), int(r[6])): (float(r[7]), float(r[8])) for r in rows}


@pytest.mark.parametrize("gamma", [1e-200, 1e-162, 1e155, 1e200, 1e300])
def test_spectrum_scales_with_rates_whose_coupling_squares_leave_the_double_range(capsys, tmp_path, gamma):
    # every band entry is a normal double, but the square of the symmetric coupling is not: the
    # coupling is then sqrt(upper) * sqrt(lower), and Re(lambda) / gamma is the gamma = 1 spectrum;
    # RuntimeWarnings are errors here, so an overflowing residual square fails this test
    argv = ["spectrum", "--two-j", "4 40", "--p", "0.5"]
    assert main(argv + ["--out", str(tmp_path / "unit")]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"gamma={gamma!r}\n", encoding="utf-8")
    assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "scaled")]) == 0
    assert capsys.readouterr().err == ""
    unit, scaled = spectrum_rows(tmp_path / "unit" / "spectra.csv"), spectrum_rows(tmp_path / "scaled" / "spectra.csv")
    assert scaled.keys() == unit.keys() and len(unit) == 25 + 41**2
    spread = max(abs(re) for re, _ in unit.values())
    for key, (re, im) in unit.items():
        assert abs(scaled[key][0] / gamma - re) <= 1e-14 * spread
        assert scaled[key][1] == im  # the shift h*M does not depend on gamma
    # scaling reads the same sectors' leading eigenvalues
    argv = ["scaling", "--two-j", "8 12 40", "--p", "0.5"]
    assert main(argv + ["--out", str(tmp_path / "unit")]) == 0
    assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "scaled")]) == 0
    unit, scaled = ([[float(x) for x in r.split(",")[-2:]] for r in read(run / "doublet_eigenvalues.csv").splitlines()[1:]]
                    for run in (tmp_path / "unit", tmp_path / "scaled"))
    assert np.abs(np.array(scaled) / gamma - np.array(unit)).max() <= 1e-14 * spread


def test_spectrum_columns_do_not_depend_on_the_field(tmp_path):
    # re_lambda and d_N are the same bytes for any h; d_N moved by 0.88 at h = 1e200 in sector 10
    # while the eigenvector solves divided by a scale that held |h*M|
    argv = ["spectrum", "--two-j", "40", "--p", "0.5 0.99", "--m", "0 3 10"]
    columns = []
    for h in (0.0, 1.0, 1e100, 1e200, 1e300):
        (tmp_path / "run.cfg").write_text(f"h={h!r}\n", encoding="utf-8")
        assert main(argv + ["--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "out")]) == 0
        rows = [r.split(",") for r in read(tmp_path / "out" / "spectra.csv").splitlines()[1:]]
        assert len(rows) == 2 * (41 + 38 + 31)
        columns.append([(r[7], r[9]) for r in rows])
    assert all(c == columns[0] for c in columns[1:])


@pytest.mark.parametrize("argv,cfg_line", [
    (["--two-j", "3", "--p", "0.99", "--m", "0"], "gamma=4e307"),
    (["--two-j", "4", "--p", "0.5", "--m", "2"], "gamma0=1e17"),
])
def test_spectrum_at_extreme_rates_runs_clean(capsys, tmp_path, argv, cfg_line):
    # RuntimeWarnings are errors here: at gamma = 4e307 a tolerance scale that summed the bands
    # overflowed with a numpy warning; at gamma0 = 1e17 the real parts of sector 2 all round to
    # -1e17, which once read as d_N = 0 (false exceptional points) and left the plot a 0 / 0 scale
    argv = ["spectrum", *argv]
    assert main(argv + ["--out", str(tmp_path / "unit")]) == 0
    (tmp_path / "run.cfg").write_text(cfg_line + "\n", encoding="utf-8")
    assert main(argv + ["--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    unit, out = ([r.split(",")[-1] for r in read(tmp_path / run / "spectra.csv").splitlines()[1:]]
                 for run in ("unit", "out"))
    assert len(out) == len(unit) > 2
    # d_N does not depend on gamma0 at all, and on gamma only through rounding
    assert out[-1] == unit[-1] == "nan"
    tol = 0.0 if cfg_line.startswith("gamma0") else 1e-12
    assert all(abs(float(a) - float(b)) <= tol for a, b in zip(out[:-1], unit[:-1]))


@pytest.mark.parametrize("p,gamma", [("0.5", 1e-200), ("0", 1e-200), ("0.5", 1e-320), ("0", 1e200)])
def test_evolve_runs_at_rates_whose_coupling_products_leave_the_double_range(capsys, tmp_path, p, gamma):
    # propagate never forms the product of a mirrored pair, so these rates are valid runs;
    # RuntimeWarnings are errors here, so a numpy overflow warning fails this test
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"gamma={gamma!r}\n", encoding="utf-8")
    argv = ["evolve", "--two-j", "4", "--p", p, "--initial", "fock:m=top", "--config", str(cfg)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    assert len(read(tmp_path / "out" / "traces.csv").splitlines()) > 1


@pytest.mark.parametrize("gamma", [1e14, 1e17, 1e20, 1e200])
def test_evolve_keeps_the_trace_at_huge_rates(capsys, tmp_path, gamma):
    # the dense propagator is squared ~log2(gamma) times; each square used to double the
    # rounding error of its column sums, so <Jz> read -1.41 at 1e14 and 0 at 1e20
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"gamma={gamma!r}\n", encoding="utf-8")
    argv = ["evolve", "--two-j", "4", "--p", "0.5", "--initial", "fock:m=top", "--config", str(cfg)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    rows = [r.split(",") for r in read(tmp_path / "out" / "traces.csv").splitlines()[1:]]
    jz = [float(r[1]) for r in rows if r[-1] == "jz"]
    # the thermal state of 2j = 4, p = 0.5, reached long before t = 0.05
    assert jz[1:] == pytest.approx([-1.5206611570247934] * (len(jz) - 1), abs=1e-12)


@pytest.mark.parametrize("two_j", ["4", "33"])
def test_evolve_interval_without_substeps_is_the_identity(capsys, tmp_path, two_j):
    # ||R|| dt underflows to 0 on this grid, so no interval takes a substep: the dense path
    # (2j = 4) took log2(0) and exited 1, the banded path (2j = 33) built a NaN propagator
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma=1e-15\n", encoding="utf-8")
    argv = ["evolve", "--two-j", two_j, "--p", "0.5", "--initial", "fock:m=top", "--times", "lin:0:1e-320:3",
            "--config", str(cfg)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    rows = [r.split(",") for r in read(tmp_path / "out" / "traces.csv").splitlines()[1:]]
    assert [float(r[1]) for r in rows if r[-1] == "entropy"] == [0.0] * 3
    assert [float(r[1]) for r in rows if r[-1] == "jz"] == [int(two_j) / 2] * 3


@pytest.mark.parametrize("two_j,cfg_line,message", [
    ("4", "h=1e308","error: phase h*t overflows the double range (h=1e+308, t=3.0)"),
    # the cross-check propagates sectors up to M = 40, and h*M*t leaves the double range at M = 6
    ("40", "h=1e307\ncross_check_max_two_j=40", "error: phase h*M*t overflows the double range (two_j=40, M=6)"),
])
def test_overflowing_field_phase_is_one_line_error(tmp_path, two_j, cfg_line, message):
    proc, out = run_module_with_config(tmp_path, ["evolve", "--two-j", two_j, "--p", "0", "--initial", "coherent"],
                                       cfg_line)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [message]
    assert not out.exists()


def test_eigensolver_failure_is_one_line_error(capsys, monkeypatch, tmp_path):
    import spinbath.cli as cli
    from spinbath.spectra import EigensolverError

    def failing(op):
        raise EigensolverError("no convergence", two_j=4, M=op.sector.M)

    monkeypatch.setattr(cli.sp, "diagonalize", failing)
    rc = main(["spectrum", "--two-j", "4", "--p", "0.5", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: no convergence")
    assert len(err.splitlines()) == 1


def test_eigenvector_overflow_is_one_line_error(capsys, tmp_path):
    rc = main(["scaling", "--two-j", "1280", "--p", "0.999", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")
    assert "two_j=1280, M=0" in err
    assert len(err.splitlines()) == 1


def test_scaling_eigenvector_overflow_is_the_first_failure_in_order(capsys, tmp_path):
    # the eigenvalues of 2j = 1280 are solved on the helper thread while 2j = 80 is walked; the
    # walk of 2j = 1280 then overflows, the same line as without the helper, and nothing is written;
    # the line names the first column whose own solve overflows
    out = tmp_path / "out"
    assert main(["scaling", "--two-j", "80 1280", "--p", "0.99", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: eigenvector solve overflowed or vanished at eigenvalue 400 (two_j=1280, M=0)"]
    assert not out.exists()


def test_scaling_reports_the_first_failing_task_in_config_order(capsys, monkeypatch, tmp_path):
    # an eigenvalue solve fails on the helper thread at 2j = 16 and 24, the eigenvectors of 2j = 12
    # fail on the calling thread: 2j = 12 comes first in the sweep, so its error is the one line
    import spinbath.cli as cli
    from spinbath.spectra import EigensolverError

    solved, real_eigenvalues, real_diagonalize = [], cli.sp._band_eigenvalues, cli.sp.diagonalize

    def eigenvalues(op):
        two_j = op.dim - 1
        solved.append(two_j)
        if two_j in (16, 24):
            raise EigensolverError("eigenvalues failed", two_j=two_j, M=0)
        return real_eigenvalues(op)

    def diagonalize(op, bound=None, **ahead):
        if op.dim - 1 == 12:
            raise EigensolverError("eigenvectors failed", two_j=12, M=0)
        return real_diagonalize(op, bound, **ahead)

    monkeypatch.setattr(cli.sp, "_band_eigenvalues", eigenvalues)
    argv = ["scaling", "--two-j", "8 12 16 20 24 28", "--p", "0.5"]
    monkeypatch.setattr(cli.sp, "diagonalize", diagonalize)
    assert main(argv + ["--out", str(tmp_path / "a")]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: eigenvectors failed (two_j=12, M=0)"]
    # once a solve has failed, no later one starts
    assert solved[-1] <= 16 and 20 not in solved
    monkeypatch.setattr(cli.sp, "diagonalize", real_diagonalize)
    solved.clear()
    assert main(argv + ["--out", str(tmp_path / "b")]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: eigenvalues failed (two_j=16, M=0)"]
    assert solved == [8, 12, 16]
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


def test_scaling_measures_each_p_against_its_critical_value(tmp_path):
    # without lambda_c_per_j each p is measured against closed_forms.critical_value_per_j, which the
    # precursors approach at every p (one shared -0.133975 left p = 0.3 and 0.7 off by 0.08 to 0.14);
    # a given lambda_c_per_j still holds for every p
    gamma = 0.9137
    (tmp_path / "run.cfg").write_text(f"gamma={gamma!r}\nh=1.3\n", encoding="utf-8")
    argv = ["scaling", "--two-j", "640", "--p", "0.3 0.5 0.7", "--gamma-bound", "1e-4 1e-5 1e-6",
            "--config", str(tmp_path / "run.cfg")]
    assert main(argv + ["--out", str(tmp_path / "own")]) == 0
    rows = [r.split(",") for r in read(tmp_path / "own" / "precursor.csv").splitlines()[1:]]
    assert len(rows) == 3 * 3
    for r in rows:
        p, lam_star, diff = float(r[1]), float(r[7]), float(r[8])
        assert diff == lam_star / 320 - critical_value_per_j(p, gamma)
        assert abs(diff) <= 0.0071 * gamma
    (tmp_path / "run.cfg").write_text(f"gamma={gamma!r}\nh=1.3\nlambda_c_per_j=-0.1\n", encoding="utf-8")
    assert main(argv + ["--out", str(tmp_path / "given")]) == 0
    rows = [r.split(",") for r in read(tmp_path / "given" / "precursor.csv").splitlines()[1:]]
    assert all(float(r[8]) == float(r[7]) / 320 + 0.1 for r in rows)


def test_scaling_command(tmp_path):
    # p = 0.2 keeps d1 above the double-precision floor across the sweep
    rc = main([
        "scaling", "--two-j", "20 40 60 80", "--p", "0.2",
        "--gamma-bound", "1e-4", "--out", str(tmp_path),
    ])
    assert rc == 0
    fits = read(tmp_path / "fits.csv").splitlines()
    assert fits[0] == "series,p,gamma_bound,exponent,prefactor,r_squared,n_points"
    assert any(line.startswith("d1_decay") for line in fits[1:])
    assert any(line.startswith("precursor_scaling") for line in fits[1:])
    prec = read(tmp_path / "precursor.csv").splitlines()
    assert len(prec) == 5  # header + one row per size


def test_scaling_single_size_skips_fit(tmp_path):
    rc = main(["scaling", "--two-j", "20", "--p", "0.5", "--out", str(tmp_path)])
    assert rc == 0
    fits = read(tmp_path / "fits.csv").splitlines()
    assert len(fits) == 1  # header only, raw data still emitted
    assert len(read(tmp_path / "precursor.csv").splitlines()) == 2


def test_evolve_slowdown(tmp_path):
    rc = main([
        "evolve", "--two-j", "40", "--p", "0.5", "--initial", "hp-doublet:a=0:b=1/6",
        "--times", "lin:0:1:5", "--out", str(tmp_path),
    ])
    assert rc == 0
    rows = read(tmp_path / "traces.csv").splitlines()
    labels = {r.split(",")[-1] for r in rows[1:]}
    assert labels == {"delta_jz_numeric", "delta_jz_theory"}


def test_evolve_btc(tmp_path):
    rc = main([
        "evolve", "--two-j", "8 16", "--p", "0", "--initial", "coherent:theta=1.5707963267948966:phi=0",
        "--times", "lin:0:2:9", "--out", str(tmp_path),
    ])
    assert rc == 0
    assert (tmp_path / "oscillations.svg").exists()


def test_evolve_btc_reads_theta_phi_and_gamma0(tmp_path):
    # the coherent start and the dephasing reach both the closed form and its cross-check
    (tmp_path / "run.cfg").write_text("gamma0=0.5\ncross_check_max_two_j=8\n", encoding="utf-8")
    rc = main([
        "evolve", "--two-j", "8", "--p", "0", "--initial", "coherent:theta=1:phi=0.4",
        "--times", "lin:0:1:5", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "out"),
    ])
    assert rc == 0
    rows = [r.split(",") for r in read(tmp_path / "out" / "traces.csv").splitlines()[1:]]
    ts, vals = (np.array([float(r[i]) for r in rows]) for i in (0, 1))
    law = np.exp(-1.5 * ts / 8) * math.sin(1) * np.cos(ts + 0.4)
    assert np.abs(vals - law).max() < 1e-15


def test_evolve_btc_failed_cross_check_is_one_line_error(tmp_path, capsys, monkeypatch):
    import spinbath.dynamics as dyn

    propagate = dyn.propagate
    monkeypatch.setattr(dyn, "propagate", lambda params, rho0, ts: propagate(params, rho0, 1.01 * ts))
    (tmp_path / "run.cfg").write_text("cross_check_max_two_j=8\n", encoding="utf-8")
    rc = main([
        "evolve", "--two-j", "8", "--p", "0", "--initial", "coherent", "--times", "lin:0:1:5",
        "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "out"),
    ])
    assert rc == 1
    assert "disagree at two_j=8" in one_line_error(capsys)
    assert not (tmp_path / "out").exists()


def test_evolve_btc_rejects_nonzero_p(tmp_path, capsys):
    # a selector that cannot run at the given p is a usage error, like any other bad input
    cases = [
        ("0.5", "coherent:theta=1:phi=0", "coherent-state oscillation run requires p = 0"),
        ("0", "hp-doublet:a=0:b=1/6", "slowdown experiment needs 0 < |p| < 1"),
        ("1", "hp-doublet:a=0:b=1/6", "slowdown experiment needs 0 < |p| < 1"),
        ("-1", "hp-doublet:a=0:b=1/6", "slowdown experiment needs 0 < |p| < 1"),
    ]
    for p, initial, message in cases:
        rc = main(["evolve", "--two-j", "8", "--p", p, "--initial", initial, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert one_line_error(capsys) == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["--two-j", "40", "--p", "0.5", "--initial", "hp-doublet:a=0:b=1/6", "--times", "lin:1:1:3"],
    ["--two-j", "40", "--p", "0", "--initial", "coherent", "--times", "lin:1:1:3"],
    ["--two-j", "40", "--p", "0", "--initial", "coherent", "--times", "log:1:1:2"],
    ["--two-j", "40", "--p", "0", "--initial", "fock:m=top", "--times", "lin:0:0:3"],
], ids=["hp-doublet", "coherent-lin", "coherent-log", "fock"])
def test_evolve_accepts_a_grid_that_repeats_a_time(tmp_path, argv):
    # every selector takes the nondecreasing grids propagate takes; hp-doublet used to exit 1
    assert main(["evolve", *argv, "--out", str(tmp_path)]) == 0
    rows = [r.split(",") for r in read(tmp_path / "traces.csv").splitlines()[1:]]
    ts = sorted({r[0] for r in rows})
    assert len(ts) == 1
    for label in {r[-1] for r in rows}:
        assert len({r[1] for r in rows if r[-1] == label}) == 1


@pytest.mark.parametrize("two_j,grid,t", [("40", "lin:0:1e6:3", 500000.0), ("1", "lin:0:3:3", 1.5)])
def test_evolve_slowdown_where_the_theory_is_zero_is_one_line_error(tmp_path, capsys, two_j, grid, t):
    # the relative deviation divides by the theory curve: it underflows to 0 at 2j = 40, and at
    # 2j = 1 it crosses 0 on the midpoint row, which the deviation fit reads; both wrote +-inf rows
    rc = main(["evolve", "--two-j", two_j, "--p", "0.5", "--initial", "hp-doublet:a=0:b=1/6", "--times", grid,
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert one_line_error(capsys) == (f"error: theory curve is 0 at t={t!r} (two_j={two_j}): "
                                      "the relative deviation is undefined there\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,message", [
    (["spectrum", "--two-j", "4 8 4", "--p", "0.5"], "two_j: 4 is repeated"),
    (["scaling", "--two-j", "80 80 80", "--p", "0.5"], "two_j: 80 is repeated"),
    (["evolve", "--two-j", "40 40 40", "--p", "0.5", "--initial", "hp-doublet:a=0:b=1/6"],
     "two_j: 40 is repeated"),
    (["spectrum", "--two-j", "4", "--p", "0.5 1/2"], "p: 0.5 is repeated"),
    (["scaling", "--two-j", "8 16 32", "--p", "0 0.3 0"], "p: 0.0 is repeated"),
    (["evolve", "--two-j", "8", "--p", "0.5 0.5", "--initial", "fock:m=top"], "p: 0.5 is repeated"),
    (["spectrum", "--two-j", "4", "--p", "0.5", "--m", "1 -1 1"], "m: 1 is repeated"),
    (["scaling", "--two-j", "8 16 32", "--p", "0.5", "--gamma-bound", "1e-4 1e-5 0.0001"],
     "gamma_bound: 0.0001 is repeated"),
], ids=["spectrum-two_j", "scaling-two_j", "evolve-two_j", "spectrum-p", "scaling-p", "evolve-p",
        "spectrum-m", "scaling-gamma_bound"])
def test_repeated_sweep_value_is_usage_error(tmp_path, capsys, argv, message):
    # a repeated size used to fit a power law to copies of one point, with exit 0
    rc = main(argv + ["--out", str(tmp_path / "out")])
    assert rc == 2
    assert one_line_error(capsys) == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_evolve_rejects_p_list(tmp_path, capsys):
    rc = main([
        "evolve", "--two-j", "8", "--p", "0.3 0.6", "--initial", "fock:m=top",
        "--out", str(tmp_path),
    ])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "traces.csv").exists()


def test_evolve_entropy(tmp_path):
    rc = main([
        "evolve", "--two-j", "8", "--p", "0", "--initial", "fock:m=top",
        "--times", "lin:0:40:9", "--out", str(tmp_path),
    ])
    assert rc == 0
    rows = [r.split(",") for r in read(tmp_path / "traces.csv").splitlines()[1:]]
    svals = [float(r[1]) for r in rows if r[-1] == "entropy"]
    assert svals[0] == pytest.approx(0.0, abs=1e-9)
    assert [r[1] for r in rows if r[-1] == "entropy"][0] == "0"  # not -0
    assert [float(r[1]) for r in rows if r[-1] == "jz"][0] == 4.0  # m=top is m = j
    assert svals[-1] <= math.log(9) + 1e-9


def test_evolve_nonphysical_initial_state(tmp_path):
    rc = main([
        "evolve", "--two-j", "40", "--p", "0.5", "--initial", "hp-doublet:a=0:b=0.9",
        "--out", str(tmp_path),
    ])
    assert rc == 1


def test_evolve_fock_m_beyond_j_is_error(tmp_path, capsys):
    # m = 7 does not exist at 2j = 10; it used to run silently from m = 5
    rc = main([
        "evolve", "--two-j", "10", "--p", "0", "--initial", "fock:m=7",
        "--times", "lin:0:1:3", "--out", str(tmp_path),
    ])
    assert rc == 1
    assert "m=7" in one_line_error(capsys)
    assert not (tmp_path / "traces.csv").exists()


@pytest.mark.parametrize("initial", ["wigner", "fock:m=top:k=3", "fock", "fock:m=abc", "coherent:theta=top"])
def test_bad_initial_selector_is_usage_error(tmp_path, capsys, initial):
    # an unknown selector or key, fock without m, or a value that is no number (top is one of fock:m only)
    rc = main(["evolve", "--two-j", "4", "--initial", initial, "--out", str(tmp_path / "out")])
    assert rc == 2
    one_line_error(capsys)
    assert not (tmp_path / "out").exists()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("two_j=8\np=0\nm=0\nout=" + str(tmp_path / "cfgout") + "\n", encoding="utf-8")
    rc = main(["spectrum", "--config", str(cfg), "--p", "0.5"])
    assert rc == 0
    rows = read(tmp_path / "cfgout" / "spectra.csv").splitlines()[1:]
    assert all(r.split(",")[1] == "0.5" for r in rows)  # flag wins over config


def test_verify_command_passes(capsys):
    rc = main(["verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out
    assert "FAIL" not in out
    assert "unique-zero-eigenvalue" in out


def test_bruteforce_oracle_sees_coupled_sectors(monkeypatch):
    # an entry coupling sectors M = 0 and M = -1, far too small to move an eigenvalue, still fails
    import spinbath.verification as verification

    def coupled(params):
        full = build_bruteforce(params)
        matrix = full.matrix.copy()
        matrix[0, 1] = 1e-30
        return dataclasses.replace(full, matrix=matrix)

    monkeypatch.setattr(verification, "build_bruteforce", coupled)
    result = verification.check_bruteforce_oracle()
    assert not result.passed
    assert result.measured <= 1e-10


def test_bruteforce_oracle_measures_each_block_alone():
    # the blocks solved as stacks of one size give the worst case of one eigvals call per block
    import spinbath.verification as verification

    worst = 0.0
    for two_j in (2, 3, 4):
        for p in (-1.0, -0.5, 0.0, 0.5, 1.0):
            for g0 in (0.0, 0.7):
                params = ModelParams(two_j=two_j, h=1.0, gamma=1.0, gamma0=g0, p=p)
                full = build_bruteforce(params)
                for M in range(-two_j, two_j + 1):
                    idx = full.sector_indices(M)
                    w = verification.sp.eigenvalues_only(build_sector(params, M))
                    brute = np.linalg.eigvals(full.matrix[np.ix_(idx, idx)])
                    worst = max(worst, verification.multiset_match_error(brute, w))
    result = verification.check_bruteforce_oracle()
    assert result.passed
    assert result.measured == worst


def test_verify_catches_mutated_builder(capsys, monkeypatch):
    # a corrupted sector builder must trip the oracle checks: wrong bands, or only a wrong shift;
    # a sign-flipped shift swaps the spectra of M and -M, which only a per-sector comparison sees
    import spinbath.verification as verification
    from spinbath.liouvillian import build_sector

    for field, mutate, failing in (
        ("diag", lambda op: op.diag + 1e-3, ["bruteforce-oracle-equivalence"]),
        ("shift", lambda op: -op.shift, ["o3-closed-form", "bruteforce-oracle-equivalence"]),
    ):
        def broken(params, M):
            op = build_sector(params, M)
            return dataclasses.replace(op, **{field: mutate(op)})

        monkeypatch.setattr(verification, "build_sector", broken)
        rc = main(["verify"])
        out = capsys.readouterr().out
        assert rc == 1
        for name in failing:
            assert f"FAIL {name}" in out


@pytest.mark.parametrize("mutate", [
    lambda op: dataclasses.replace(op, shift=-op.shift),
    lambda op: dataclasses.replace(op, lower=op.lower * (1 + 1e-6)),
], ids=["sign-flipped-shift", "perturbed-band"])
def test_propagation_check_catches_broken_negative_sectors(monkeypatch, mutate):
    # propagate fills mirrored sectors -M by conjugation, so the check must
    # propagate some -M sectors explicitly to see a builder that breaks them
    import spinbath.dynamics as dynamics
    import spinbath.verification as verification
    from spinbath.liouvillian import build_sector

    def broken(params, M):
        op = build_sector(params, M)
        return mutate(op) if M < 0 else op

    monkeypatch.setattr(dynamics, "build_sector", broken)
    result = verification.check_propagation_conservation()
    assert result.name == "propagation-trace-hermiticity"
    assert not result.passed


def test_cli_import_leaves_out_scipy_optimize():
    src = os.path.dirname(os.path.dirname(spinbath.__file__))
    code = "import sys, spinbath.cli; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


README_COMMANDS_SMALL = [
    ["spectrum", "--two-j", "4", "--p", "0 0.5 0.99"],
    ["scaling", "--two-j", "8 12 16", "--p", "0.5", "--gamma-bound", "1e-4 1e-5"],
    ["evolve", "--two-j", "8", "--p", "0.5", "--initial", "hp-doublet:a=0:b=1/6", "--times", "lin:0:3:7"],
    ["evolve", "--two-j", "4 6 8", "--p", "0", "--initial", "coherent:theta=1.5707963267948966:phi=0",
     "--times", "lin:0:3:7"],
    ["evolve", "--two-j", "6", "--p", "0", "--initial", "fock:m=top", "--times", "lin:0:1000:11"],
]


def test_commands_leave_out_scipy_optimize(tmp_path):
    # verify and the five README commands (at small sizes) run without loading scipy.optimize
    src = os.path.dirname(os.path.dirname(spinbath.__file__))
    runs = [["verify"]] + [argv + ["--out", str(tmp_path / str(i))] for i, argv in enumerate(README_COMMANDS_SMALL)]
    code = ("import contextlib, io, sys\n"
            "from spinbath.cli import main\n"
            "for argv in %r:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "print('scipy.optimize' in sys.modules)\n" % runs)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_scaling_frees_each_decomposition_before_the_next(tmp_path, monkeypatch):
    # scaling takes its rows from each decomposition as diagonalize_each yields it, so when the next
    # sector is diagonalized no earlier decomposition is alive
    import spinbath.cli as cli

    real, refs, alive = cli.sp.diagonalize, [], []

    def spying(op, bound=None, **ahead):
        alive.append(sum(ref() is not None for ref in refs))
        dec = real(op, bound, **ahead)
        refs.append(weakref.ref(dec))
        return dec

    monkeypatch.setattr(cli.sp, "diagonalize", spying)
    argv = ["scaling", "--two-j", "8 12 16 20", "--p", "0.3 0.5", "--gamma-bound", "1e-4 1e-5"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert alive == [0] * 8
    assert all(ref() is None for ref in refs)


def test_spectrum_solves_each_pair_once(tmp_path, monkeypatch):
    # diagonalize still runs once per sector, on an operator of build_sector, but dstevd, the dgtsv
    # walk and the residual pass run once per +-M pair: as often as for the sectors M >= 0 alone
    import spinbath.cli as cli

    counts = {}

    def counting(name):
        real = getattr(cli.sp, name)

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(cli.sp, name, counted)

    built, real_diagonalize, ops = [], cli.sp.diagonalize, []

    def building(params, M):
        built.append(build_sector(params, M))
        return built[-1]

    monkeypatch.setattr(cli, "build_sector", building)

    def diagonalize(op, **kwargs):
        ops.append((any(op is b for b in built), op.sector.M, "_partner" in kwargs))
        return real_diagonalize(op, **kwargs)

    for name in ("_dstevd_values", "dgtsv", "_inverse_iteration", "_residual_norms"):
        counting(name)
    monkeypatch.setattr(cli.sp, "diagonalize", diagonalize)
    assert main(["spectrum", "--two-j", "7 8", "--p", "0.5 0", "--out", str(tmp_path)]) == 0
    sweep, counts = counts, {}
    for two_j in (7, 8):
        for p in (0.5, 0.0):
            for M in range(two_j + 1):
                real_diagonalize(build_sector(ModelParams(two_j=two_j, p=p), M))
    assert sweep == counts and counts["_dstevd_values"] == 2 * (7 + 8) and counts["_inverse_iteration"] == 2 * 17
    # the negative sector of each pair comes first in configuration order: it is solved, and its
    # partner is filled at once
    assert ops == [call for two_j in (7, 8) for _ in (0.5, 0.0) for M in range(-two_j, 1)
                   for call in [(True, M, False)] + [(True, -M, True)] * (M != 0)]


def test_unpaired_sector_is_solved_directly(tmp_path, monkeypatch):
    # --m "-3" has no partner: sector -3 is solved on its own, and its rows are those of a full sweep
    import spinbath.cli as cli

    partners, real = [], cli.sp.diagonalize
    monkeypatch.setattr(cli.sp, "diagonalize",
                        lambda op, **kwargs: partners.append("_partner" in kwargs) or real(op, **kwargs))
    argv = ["spectrum", "--two-j", "7", "--p", "0.5 -0.3"]
    assert main(argv + ["--m", "-3", "--out", str(tmp_path / "one")]) == 0
    assert partners == [False, False]
    assert main(argv + ["--out", str(tmp_path / "all")]) == 0
    lines = read(tmp_path / "all" / "spectra.csv").splitlines()
    kept = [line for line in lines[1:] if line.split(",")[5] == "-3"]
    assert read(tmp_path / "one" / "spectra.csv").splitlines() == lines[:1] + kept
    # paired and unpaired sectors in any order keep the rows of the full sweep, in the order given
    assert main(argv + ["--m", "3 0 -7 5 -3 7", "--out", str(tmp_path / "mixed")]) == 0
    by_m = {}
    for line in lines[1:]:
        by_m.setdefault((line.split(",")[1], line.split(",")[5]), []).append(line)
    want = [line for p in ("0.5", "-0.29999999999999999") for M in ("3", "0", "-7", "5", "-3", "7")
            for line in by_m[(p, M)]]
    assert read(tmp_path / "mixed" / "spectra.csv").splitlines()[1:] == want


def test_spectrum_frees_each_pair_before_the_next(tmp_path, monkeypatch):
    # the rows of both sectors of a pair are taken before the next pair is solved, so a solve sees
    # no decomposition alive, and a mirrored sector sees only its partner's
    import spinbath.cli as cli

    real, refs, alive = cli.sp.diagonalize, [], []

    def spying(op, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        dec = real(op, **kwargs)
        refs.append(weakref.ref(dec))
        return dec

    monkeypatch.setattr(cli.sp, "diagonalize", spying)
    assert main(["spectrum", "--two-j", "6 9", "--p", "0.3 0.5", "--out", str(tmp_path)]) == 0
    assert alive == [count for two_j in (6, 9) for _ in (0.3, 0.5) for M in range(-two_j, 1)
                     for count in [0] + [1] * (M != 0)]
    assert all(ref() is None for ref in refs)


@pytest.mark.parametrize("ms,first", [(None, -2), ("2 -2", 2), ("-2 2", -2)])
def test_spectrum_reports_the_failing_sector_in_config_order(capsys, monkeypatch, tmp_path, ms, first):
    # sectors 2 and -2 fail alike; the line names the one that comes first in configuration order
    import spinbath.cli as cli

    real = cli.sp._inverse_iteration

    def walk(op, *args, **kwargs):
        if abs(op.sector.M) == 2:
            raise cli.sp._sector_error("eigenvector walk failed", op.sector)
        return real(op, *args, **kwargs)

    monkeypatch.setattr(cli.sp, "_inverse_iteration", walk)
    argv = ["spectrum", "--two-j", "4", "--p", "0.5", "--out", str(tmp_path / "out")]
    assert main(argv + ([] if ms is None else ["--m", ms])) == 1
    assert one_line_error(capsys) == f"error: eigenvector walk failed (two_j=4, M={first})\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["spectrum", "--two-j", "6 8", "--p", "0 0.5"],
                                  ["scaling", "--two-j", "8 12 16", "--p", "0.2 0.5"]])
def test_sweeps_build_every_sector_on_the_calling_thread(tmp_path, monkeypatch, argv):
    # --jobs is accepted but has no effect; scaling's one helper thread computes eigenvalues only,
    # and every sector operator is built on the calling thread, in configuration order
    import spinbath.cli as cli

    threads = []

    def recording(params, M):
        threads.append(threading.get_ident())
        return build_sector(params, M)

    monkeypatch.setattr(cli, "build_sector", recording)
    assert main(argv + ["--jobs", "3", "--out", str(tmp_path)]) == 0
    assert threads and set(threads) == {threading.get_ident()}


def test_perfbench_instrument_names_exist():
    # perfbench traces names outside the modules' __all__ (instrument.EXTRA) and rewrites
    # _pool_map's (jobs, fn, items) arguments; a rename here would break its traced runs
    import spinbath.cli as cli

    path = Path(__file__).resolve().parents[1] / "perfbench" / "instrument.py"
    spec = importlib.util.spec_from_file_location("perfbench_instrument", path)
    instrument = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instrument)
    for module, names in instrument.EXTRA.items():
        mod = importlib.import_module(f"spinbath.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"spinbath.{module}.{name}"
    assert list(inspect.signature(cli._pool_map).parameters)[:3] == ["jobs", "fn", "items"]


SCRIPT_CSVS = {
    "spectrum_panels.py": ["panels/spectra.csv", "m0_sweep/spectra.csv"],
    "precursor_scaling.py": [f"{run}/{name}.csv" for run in ("precursor_p05", "d1_sweep")
                             for name in ("doublet_eigenvalues", "d1_decay", "precursor", "fits")],
    "slowdown_compare.py": ["traces.csv", "derived.csv"],
    "critical_dynamics.py": ["oscillations/traces.csv", "entropy/traces.csv", "entropy/derived.csv"],
}


def test_scripts_write_their_csvs(tmp_path):
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    assert sorted(p.name for p in scripts.glob("*.py")) == sorted(SCRIPT_CSVS)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(spinbath.__file__)))
    for script, csvs in SCRIPT_CSVS.items():
        out = tmp_path / script
        proc = subprocess.run([sys.executable, str(scripts / script), "--out", str(out)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        for csv in csvs:
            lines = read(out / csv).splitlines()
            assert len(lines) > 1, f"{script}: {csv}"

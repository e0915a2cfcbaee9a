import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import spinbath
from spinbath.cli import main
from spinbath.liouvillian import build_bruteforce
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
    (["evolve", "--two-j", "4", "--initial", "fock:m=top"], "cross_check_max_two_j=1.5\n", "cross_check_max_two_j"),
], ids=["p-abc", "m-x", "two_j-4.5", "p-top", "p-1/0", "jobs-abc", "config-h-abc", "gamma_bound-zz",
        "times-3-parts", "times-top", "times-inf", "config-cross_check"])
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
    # 2j = 320 is the size whose first 64-column block already holds the precursor
    import spinbath.cli as cli

    argv = ["scaling", "--two-j", "8 12 16 20 40 320", "--p", "0.2 0.5 0.999", "--gamma-bound", "1e-4 1e-6"]
    bounded, columns = cli.sp.diagonalize, []

    def counting(op, bound=None):
        dec = bounded(op, bound=bound)
        columns.append((dec.right_eigenvectors.shape[1], dec.dim))
        return dec

    monkeypatch.setattr(cli.sp, "diagonalize", counting)
    assert main(argv + ["--out", str(tmp_path / "bounded")]) == 0
    assert (64, 321) in columns
    monkeypatch.setattr(cli.sp, "diagonalize", lambda op, bound=None: bounded(op))
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


@pytest.mark.parametrize("argv", [["spectrum", "--two-j", "4", "--p", "0.5"],
                                  ["evolve", "--two-j", "4", "--p", "0.5", "--initial", "fock:m=top"]])
def test_overflowing_bands_are_one_line_error(tmp_path, argv):
    # gamma = 1e308 overflows the bands: build_sector rejects them, with no numpy warning on stderr
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma=1e308\n", encoding="utf-8")
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(spinbath.__file__)))
    proc = subprocess.run([sys.executable, "-m", "spinbath", *argv, "--config", str(cfg), "--out", str(out)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: sector operator overflows the double range (two_j=4, M=")
    assert len(proc.stderr.splitlines()) == 1
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


def test_evolve_btc_rejects_nonzero_p(tmp_path):
    rc = main([
        "evolve", "--two-j", "8", "--p", "0.5", "--initial", "coherent:theta=1:phi=0",
        "--out", str(tmp_path),
    ])
    assert rc == 1


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

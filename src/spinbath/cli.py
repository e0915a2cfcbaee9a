"""Command-line front end: spectrum | scaling | evolve | verify.

Every key a command reads is declared once, in its table in build_parser:
its flag help (None for a config-only key), the function that parses its text
and its default text.  Defaults, an optional key=value file and flags are
merged in that order (flags win) and each value is parsed once, so the
commands get typed values; a value its parser rejects, or a sweep list that
holds a value twice, is a usage error that names the key.  Sweep points of
spectrum and scaling are built and diagonalized in the calling thread, in
configuration order.  scaling also
runs the eigenvalue solves of the sectors ahead on one helper thread
(spectra.diagonalize_each), which overlaps them with the eigenvector walks:
the benchmark's scan sweep went from 0.25 s to 0.18 s per pass on 2 CPUs.
The 483 small sectors of `spectrum --two-j 80 --p "0 0.5 0.99"` took 0.47 s
that way against 0.34 s in one thread, so spectrum stays in one thread.
--jobs is still parsed and checked (at least 1) but has no effect.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import dynamics as dyn
from . import spectra as sp
from .closed_forms import critical_value_per_j
from .liouvillian import build_sector
from .model import ModelParams
from .output import (
    RowGroups,
    fmt,
    parse_float_list,
    parse_initial,
    parse_int_list,
    parse_size_list,
    parse_time_grid,
    read_config,
    svg_lines,
    svg_scatter,
    write_csv,
)
from .verification import run_all_checks

__all__ = ["main", "cmd_spectrum", "cmd_scaling", "cmd_evolve", "cmd_verify"]


class UsageError(ValueError):
    """Input the command cannot run with: one error line and exit status 2."""


def _config_from(args) -> dict:
    """Parsed value of each key the command reads and that has a default, a config line or a flag."""
    keys = args.keys
    text = {key: default for key, (_, _, default) in keys.items() if default is not None}
    if args.config:
        file_cfg = read_config(args.config)
        unread = sorted(set(file_cfg) - set(keys))
        if unread:
            raise UsageError(f"{args.command} does not read config key(s) {', '.join(unread)}")
        text.update(file_cfg)
    text.update((key, getattr(args, key)) for key in keys if getattr(args, key, None) is not None)
    if not set(args.needs) <= set(text):
        raise UsageError(f"{args.command} needs " + " and ".join(_flag(key) for key in args.needs))
    cfg = {}
    for key, val in text.items():
        try:
            cfg[key] = keys[key][1](val)
        except (ValueError, ArithmeticError) as exc:
            raise UsageError(f"{key}: {exc}") from exc
        values = cfg[key]
        if isinstance(values, list):
            if not values:
                raise UsageError("empty sweep list")
            twice = [v for i, v in enumerate(values) if v in values[:i]]
            if twice:
                raise UsageError(f"{key}: {twice[0]} is repeated")
    if cfg.get("jobs", 1) < 1:
        raise ValueError(f"jobs must be at least 1, got {cfg['jobs']}")
    return cfg


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _params(cfg: dict, two_j: int, p: float) -> ModelParams:
    return ModelParams(two_j=two_j, h=cfg["h"], gamma=cfg["gamma"], gamma0=cfg["gamma0"], p=p)


def _pool_map(jobs: int, fn, items):
    """fn over items in order, in the calling thread; jobs is accepted and not used."""
    return [fn(it) for it in items]


# leading CSV columns of every sweep row, the values of _provenance
PROVENANCE = ["two_j", "p", "gamma", "gamma0", "h", "M"]


def _provenance(params: ModelParams, M) -> list:
    return [params.two_j, params.p, params.gamma, params.gamma0, params.h, M]


def cmd_spectrum(args) -> int:
    cfg = _config_from(args)
    two_js, ps, ms, out = cfg["two_j"], cfg["p"], cfg.get("m"), cfg["out"]
    too_big = [M for M in ms or [] if abs(M) > max(two_js)]
    if too_big:
        raise UsageError(f"sector M={too_big[0]} exceeds the largest 2j={max(two_js)}")
    sp.check_bound(cfg["doublet_threshold"])

    tasks = []
    for two_j in two_js:
        for p in ps:
            params = _params(cfg, two_j, p)
            # an M that fits only the larger sizes is skipped for this one
            for M in range(-two_j, two_j + 1) if ms is None else ms:
                if abs(M) <= two_j:
                    tasks.append((params, M))

    def work(task):
        params, M = task
        two_j = params.two_j
        dec = sp.diagonalize(build_sector(params, M))
        d = sp.pair_distances(dec)
        w = dec.eigenvalues
        # the provenance cells lead every row of the sector and are formatted once
        tails = list(zip(range(len(w)), w.real.tolist(), w.imag.tolist(), d.tolist() + [math.nan]))
        return (_provenance(params, M), tails), (w.real / (two_j / 2), w.imag,
                                                  sp.doublet_members(d, cfg["doublet_threshold"]))

    results = _pool_map(cfg["jobs"], work, tasks)
    rows = RowGroups(group for group, _ in results)
    csv_path = write_csv(
        os.path.join(out, "spectra.csv"),
        PROVENANCE + ["N", "re_lambda", "im_lambda", "d_N"],
        rows,
    )
    # scatter of (Re/j, Im) colored by doublet membership at the threshold
    x, y, member = map(np.concatenate, zip(*(points for _, points in results)))
    svg_scatter(
        os.path.join(out, "spectrum.svg"),
        [("coalesced pairs", x[member], y[member]), ("isolated", x[~member], y[~member])],
        xlabel="Re(lambda)/j",
        ylabel="Im(lambda)",
        title="Liouvillian spectrum",
    )
    print(f"wrote {csv_path} and spectrum.svg ({len(rows)} rows)")
    return 0


def cmd_scaling(args) -> int:
    cfg = _config_from(args)
    two_js, ps, gammas, out = sorted(cfg["two_j"]), cfg["p"], cfg["gamma_bound"], cfg["out"]
    # one critical value for every p if given, else each p's own (closed_forms.critical_value_per_j)
    lam_c_per_j = cfg.get("lambda_c_per_j")
    if lam_c_per_j is not None and not math.isfinite(lam_c_per_j):
        raise ValueError(f"lambda_c_per_j must be finite, got {lam_c_per_j}")
    for gamma in gammas:
        sp.check_bound(gamma)

    def taken(dec):
        """What the rows read of one decomposition: lambda_1, lambda_2, d1 and the precursor at each bound."""
        lam2 = dec.eigenvalues[2].real if dec.dim > 2 else math.nan
        d1 = sp.eigenvector_distance(dec, 1) if dec.dim > 2 else None
        stars = [sp.ep_scan(dec, gamma).precursor for gamma in gammas]
        return dec.eigenvalues[1].real, lam2, d1, [math.nan if s is None else s.real for s in stars]

    tasks = [(two_j, p) for p in ps for two_j in two_js]
    ops = (build_sector(_params(cfg, two_j, p), 0) for two_j, p in tasks)
    # eigenvectors down to the deepest precursor, the one at the largest bound; map drops each
    # decomposition once its rows are taken, before the next one is diagonalized
    rows_of = dict(zip(tasks, map(taken, sp.diagonalize_each(ops, bound=max(gammas))), strict=True))

    doublet_rows, d1_rows, prec_rows, fit_rows, d1_groups = [], [], [], [], []
    for p in ps:
        lam_c = critical_value_per_j(p, cfg["gamma"]) if lam_c_per_j is None else lam_c_per_j
        d1_points = []
        for two_j in two_js:
            lam1, lam2, d1, _ = rows_of[(two_j, p)]
            params = _params(cfg, two_j, p)
            doublet_rows.append(_provenance(params, 0) + [lam1, lam2])
            if d1 is not None:
                d1_rows.append(_provenance(params, 0) + [d1])
                d1_points.append((two_j / 2, d1))
        xs_d1, ys_d1 = sp.floor_cut(d1_points)
        if len(xs_d1):
            d1_groups.append((f"p={p}", xs_d1, np.log10(ys_d1)))
        if len(xs_d1) >= 3:
            fit = sp.fit_exponential(xs_d1, ys_d1)
            fit_rows.append(["d1_decay", p, math.nan, fit.exponent, fit.prefactor, fit.r_squared, fit.n_points])
        for g, gamma in enumerate(gammas):
            xs, ys = [], []
            for two_j in two_js:
                lam_star = rows_of[(two_j, p)][3][g]
                params = _params(cfg, two_j, p)
                diff_per_j = lam_star / (two_j / 2) - lam_c if not math.isnan(lam_star) else math.nan
                prec_rows.append(_provenance(params, 0) + [gamma, lam_star, diff_per_j])
                if not math.isnan(diff_per_j) and abs(diff_per_j) > 0:
                    xs.append(two_j / 2)
                    ys.append(abs(diff_per_j))
            if len(xs) >= 3:
                fit = sp.fit_power_law(xs, ys)
                fit_rows.append(["precursor_scaling", p, gamma, fit.exponent, fit.prefactor, fit.r_squared, fit.n_points])

    write_csv(os.path.join(out, "doublet_eigenvalues.csv"), PROVENANCE + ["re_lambda1", "re_lambda2"], doublet_rows)
    write_csv(os.path.join(out, "d1_decay.csv"), PROVENANCE + ["d1"], d1_rows)
    write_csv(os.path.join(out, "precursor.csv"),
              PROVENANCE + ["gamma_bound", "re_lambda_star", "diff_per_j"], prec_rows)
    write_csv(os.path.join(out, "fits.csv"),
              ["series", "p", "gamma_bound", "exponent", "prefactor", "r_squared", "n_points"], fit_rows)
    if d1_groups:
        svg_lines(os.path.join(out, "d1_decay.svg"), d1_groups,
                  xlabel="j", ylabel="log10 d1", title="doublet coalescence")
    print(f"wrote scaling CSVs to {out} ({len(prec_rows)} precursor rows)")
    return 0


def cmd_evolve(args) -> int:
    cfg = _config_from(args)
    if len(cfg["p"]) != 1:
        raise UsageError("evolve takes a single --p value")
    two_js, (p,), times, out = cfg["two_j"], cfg["p"], cfg["times"], cfg["out"]
    name, kw = cfg["initial"]
    if name == "coherent" and p != 0:
        raise UsageError("coherent-state oscillation run requires p = 0")
    if name == "hp-doublet" and not 0 < abs(p) < 1:
        raise UsageError("slowdown experiment needs 0 < |p| < 1")
    trace_rows, extra_rows = [], []
    groups = []

    if name == "hp-doublet":
        mid_devs = []
        for two_j in two_js:
            params = _params(cfg, two_j, p)
            numeric, theory = dyn.slowdown_experiment(params, kw["a"], kw["b"], times)
            for t, v in zip(times, numeric):
                trace_rows.append([t, v, two_j, p, "delta_jz_numeric"])
            for t, v in zip(times, theory):
                trace_rows.append([t, v, two_j, p, "delta_jz_theory"])
            zero = np.flatnonzero(theory == 0)
            if zero.size:
                raise ValueError(f"theory curve is 0 at t={float(times[zero[0]])!r} (two_j={two_j}): "
                                 "the relative deviation is undefined there")
            dev = (numeric - theory) / theory
            for t, v in zip(times, dev):
                extra_rows.append([t, v, two_j, p, "relative_deviation"])
            mid_devs.append(abs(dev[len(times) // 2]))
            groups.append((f"numeric j={two_j/2:g}", times, numeric))
            groups.append((f"theory j={two_j/2:g}", times, theory))
        if len(two_js) >= 3:
            fit = sp.fit_power_law([two_j / 2 for two_j in two_js], mid_devs)
            extra_rows.append([times[len(times) // 2], fit.exponent, 0, p, "deviation_powerlaw_exponent"])
        svg_lines(os.path.join(out, "slowdown.svg"), groups, xlabel="t", ylabel="delta Jz",
                  title="relaxation slow-down")
    elif name == "coherent":
        curves = dyn.btc_experiment(_params(cfg, two_js[0], p), two_js, times,
                                    cross_check_max_two_j=cfg["cross_check_max_two_j"], **kw)
        for two_j, curve in zip(two_js, curves):
            for t, v in zip(times, curve):
                trace_rows.append([t, v, two_j, 0.0, "jx_over_j"])
            groups.append((f"j={two_j/2:g}", times, curve))
        svg_lines(os.path.join(out, "oscillations.svg"), groups, xlabel="t", ylabel="<Jx>/j",
                  title="undamped oscillations toward the large-j limit")
    else:  # fock; parse_initial accepts no other name
        for two_j in two_js:
            params = _params(cfg, two_j, p)
            m0 = two_j / 2 if kw["m"] == math.inf else kw["m"]  # m=top: the highest-weight state
            rho0 = dyn.fock_state(two_j, m0)
            states = dyn.propagate(params, rho0, times)
            svals = dyn.entropy(states)
            jzvals = dyn.expectation(states, "jz")
            for t, v in zip(times, svals):
                trace_rows.append([t, v, two_j, p, "entropy"])
            for t, v in zip(times, jzvals):
                trace_rows.append([t, v, two_j, p, "jz"])
            groups.append((f"S(t) j={two_j/2:g}", times, svals))
            extra_rows.append([times[-1], math.log(two_j + 1), two_j, p, "entropy_upper_bound"])
        svg_lines(os.path.join(out, "entropy.svg"), groups, xlabel="t", ylabel="S", title="entropy growth")

    write_csv(os.path.join(out, "traces.csv"),
              ["t", "value", "two_j", "p", "observable_label"], trace_rows)
    if extra_rows:
        write_csv(os.path.join(out, "derived.csv"),
                  ["t", "value", "two_j", "p", "observable_label"], extra_rows)
    print(f"wrote evolve CSVs to {out} ({len(trace_rows)} trace rows)")
    return 0


def cmd_verify(args) -> int:
    results = run_all_checks()
    worst_fail = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f"  # {r.detail}" if r.detail else ""
        print(f"{status} {r.name} measured={fmt(r.measured)} tol={fmt(r.tolerance)}{detail}")
        if not r.passed:
            worst_fail = 1
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return worst_fail


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spinbath",
        description="Spectra and dynamics of a dissipative collective spin in a polarized bath",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    # every key a command reads: (flag help, or None for a config-only key; parser of its text;
    # default text, or None for none); each key with help is a flag, and --config may set any key.
    # needs: the keys without a default that the command cannot run without
    shared = {
        "out": ("output directory (default ./out)", str, "out"),
        "two_j": ("list of 2j values, e.g. '40 80 160'", parse_size_list, None),
        "p": ("list of polarizations, e.g. '0 0.5 0.99'", parse_float_list, None),
        "h": (None, float, "1"),
        "gamma": (None, float, "1"),
        "gamma0": (None, float, "0"),
    }
    jobs = {"jobs": ("accepted for compatibility, no effect (at least 1): sectors are diagonalized "
                     "in one thread, and scaling overlaps their eigenvalue solves on one helper "
                     "thread", int, "1")}
    for name, fn, help_, needs, keys in (
        ("spectrum", cmd_spectrum, "emit sector spectra and a scatter plot", ("two_j", "p"), {
            **shared, **jobs,
            "m": ("list of sectors M (default: all); |M| may not exceed the largest 2j, "
                  "and an M too large for a smaller 2j is skipped there", parse_int_list, None),
            "doublet_threshold": (None, float, "1e-6"),
        }),
        ("scaling", cmd_scaling, "doublet/precursor finite-size scaling data and fits", ("two_j", "p"), {
            **shared, **jobs,
            "gamma_bound": ("list of coalescence bounds (default 1e-4)", parse_float_list, "1e-4"),
            "lambda_c_per_j": (None, float, None),
        }),
        ("evolve", cmd_evolve, "time evolution experiments (slow-down, oscillations, entropy)",
         ("two_j", "initial"), {
            **shared,
            "p": ("polarization (default 0)", parse_float_list, "0"),
            "times": ("time grid lin:START:STOP:NUM or log:START:STOP:NUM (default lin:0:3:61)",
                      lambda text: dyn._check_times(parse_time_grid(text)), "lin:0:3:61"),
            "initial": ("initial state: hp-doublet:a=..:b=.. | fock:m=.. | coherent:theta=..:phi=..",
                        parse_initial, None),
            "cross_check_max_two_j": (None, int, "0"),
        }),
        ("verify", cmd_verify, "run the invariant suite and report pass/fail", (), None),
    ):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=fn, keys=keys, needs=needs)
        if keys is None:
            continue
        p.add_argument("--config", help="key=value configuration file")
        for key, (flag_help, _, _) in keys.items():
            if flag_help is not None:
                p.add_argument(_flag(key), dest=key, help=flag_help)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, sp.EigensolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Correctness checks behind ``failed`` and ``correct``; reference CSV capture/compare.

An operation is one (2j, p, M) point of a workload or one CLI call.  A point
fails when an oracle below does not hold for it; a call fails on a nonzero
exit or an exception.  The oracles:

* eigen-residual ||L v - lambda v|| <= 1e-8 * operator scale for every
  eigenvector up to the deepest precursor or d1 pair (``scan``) or for all of
  them (``sweep``);
* at p = 0.5 and 2j >= 640 every precursor lies within 0.005 * Gamma of the
  critical value lambda_c * j (per j);
* ``verify`` exits 0 with every check passing;
* <Jx(t)>/j of the propagated coherent state follows the p = 0 closed form
  e^{-Gamma t/(2j)} cos(h t) to 1e-8 (the CLI's own cross-check);
* trace drift and Hermiticity defect (rho(-M) = conj(rho(M))) <= 1e-10;
* entropy <= ln(2j + 1), up to the rise a trace drift within its bound causes.

Known failure at the reference commit: ``scan`` p = 0.7, 2j = 1280 has 596
eigenvectors above the residual bound (worst 2.4e-3), starting at index 335,
below its precursors at 344-356.  It is counted as a failed operation.

Reference CSVs hold the canonical-input outputs of the reference commit (every
row of small files, every k-th row of large ones).  Rows that belong to a point
failing now or at reference time are not compared: their values are known bad.
"""

from __future__ import annotations

import csv
import json
import math
import threading
import weakref
from collections import defaultdict
from pathlib import Path

import numpy as np

from instrument import arg

RESIDUAL_TOL = 1e-8
DRIFT_TOL = 1e-10
BTC_TOL = 1e-8
PRECURSOR_TOL = 0.005
SAMPLE_ROWS = 1000

# (relative, absolute) tolerance per CSV column; unlisted columns compare as text
TOLERANCES = {
    "two_j": (0.0, 0.0),
    "p": (0.0, 0.0),
    "gamma": (0.0, 0.0),
    "gamma0": (0.0, 0.0),
    "h": (0.0, 0.0),
    "M": (0.0, 0.0),
    "N": (0.0, 0.0),
    "t": (0.0, 0.0),
    "gamma_bound": (0.0, 0.0),
    "n_points": (0.0, 0.0),
    "re_lambda": (1e-9, 1e-9),
    "im_lambda": (1e-9, 1e-9),
    "re_lambda1": (1e-9, 1e-9),
    "re_lambda2": (1e-9, 1e-9),
    "re_lambda_star": (1e-9, 1e-9),
    "diff_per_j": (0.0, 1e-9),
    "d_N": (0.0, 1e-8),
    "d1": (0.0, 1e-8),
    "exponent": (1e-5, 1e-9),
    "prefactor": (1e-5, 1e-12),
    "r_squared": (1e-5, 1e-9),
    "value": (1e-9, 1e-10),
}


def _key(two_j, p, M) -> tuple:
    return (int(two_j), float(p), int(M))


class Checker:
    """Observers for one checked pass, and the verdict per point afterwards."""

    def __init__(self, workload):
        from spinbath.dynamics import expectation  # before any patch is installed

        self.wl = workload
        self._expectation = expectation
        self._lock = threading.Lock()
        self._ops = {}  # id(sector operator) -> (weakref, point)
        self._decs = {}  # id(decomposition) -> (weakref, point)
        self.residuals = {}  # point -> relative residual per eigenvector
        self.deepest = defaultdict(int)  # point -> deepest eigenvector index read
        self.dynamics = {}  # point -> (trace drift, Hermiticity defect)
        self.failures = defaultdict(list)  # point or ("call", i) -> reasons

    def observers(self) -> dict:
        return {
            "liouvillian.build_sector": self._build_sector,
            "spectra.diagonalize": self._diagonalize,
            "spectra.ep_scan": self._ep_scan,
            "spectra.eigenvector_distance": self._eigenvector_distance,
            "dynamics.propagate": self._propagate,
        }

    def _lookup(self, table, obj):
        ref, point = table.get(id(obj), (None, None))
        return point if ref is not None and ref() is obj else None

    def _build_sector(self, args, kwargs, op, parent):
        params, M = arg(args, kwargs, 0, "params"), arg(args, kwargs, 1, "M")
        with self._lock:
            self._ops[id(op)] = (weakref.ref(op), _key(params.two_j, params.p, M))

    def _diagonalize(self, args, kwargs, dec, parent):
        with self._lock:
            point = self._lookup(self._ops, arg(args, kwargs, 0, "op"))
            if point is None:
                return
            self._decs[id(dec)] = (weakref.ref(dec), point)
            self.residuals[point] = dec.residual_norms / max(dec.operator_scale, 1e-300)

    def _read(self, dec, index):
        with self._lock:
            point = self._lookup(self._decs, dec)
            if point is not None:
                self.deepest[point] = max(self.deepest[point], index)

    def _ep_scan(self, args, kwargs, res, parent):
        dec = arg(args, kwargs, 0, "dec")
        self._read(dec, dec.dim - 1 if res.precursor_index is None else res.precursor_index)

    def _eigenvector_distance(self, args, kwargs, d, parent):
        self._read(arg(args, kwargs, 0, "dec"), arg(args, kwargs, 1, "N") + 1)

    def _propagate(self, args, kwargs, states, parent):
        params, rho0 = arg(args, kwargs, 0, "params"), arg(args, kwargs, 1, "rho0")
        tr0 = rho0.trace()
        drift = max(abs(s.trace() - tr0) for s in states)
        found = {}
        for M in rho0.sectors:
            herm = 0.0
            for s in states:
                v = s.sectors[M]
                w = s.sectors.get(-M)
                herm = max(herm, float(np.abs((w if w is not None else 0.0) - np.conj(v)).max()))
            found[_key(params.two_j, params.p, M)] = (drift if M == 0 else 0.0, herm)
        btc_dev = None
        if params.two_j in self.wl.btc_two_js:
            ts = np.asarray(arg(args, kwargs, 2, "times"), dtype=float)
            j = params.two_j / 2
            law = np.exp(-params.gamma * ts / (2 * j)) * np.cos(params.h * ts)
            num = np.array([self._expectation(s, "jx") / j for s in states])
            btc_dev = float(np.abs(num - law).max())
        with self._lock:
            self.dynamics.update(found)
            if btc_dev is not None and not btc_dev <= BTC_TOL:
                for point in found:
                    self.failures[point].append(f"<Jx>/j off the closed form by {btc_dev:.2e}")

    def call_failed(self, index: int, reason: str):
        self.failures[("call", index)].append(reason)

    def verdict(self) -> dict:
        """Point -> list of reasons it failed (empty list: passed)."""
        for point in self.wl.points:
            reasons = self.failures[point]
            if point in self.residuals:
                rel = self.residuals[point]
                if not self.wl.all_eigvecs:
                    rel = rel[: max(self.deepest[point], 2) + 1]
                bad = np.nonzero(~(rel <= RESIDUAL_TOL))[0]
                if len(bad):
                    reasons.append(
                        f"{len(bad)} of {len(rel)} checked eigenvectors above {RESIDUAL_TOL:g} "
                        f"(worst {np.nanmax(rel):.2e}, first index {bad[0]})"
                    )
            elif point in self.dynamics:
                drift, herm = self.dynamics[point]
                if not drift <= DRIFT_TOL:
                    reasons.append(f"trace drift {drift:.2e}")
                if not herm <= DRIFT_TOL:
                    reasons.append(f"Hermiticity defect {herm:.2e}")
            else:
                reasons.append("not computed")
        return {k: v for k, v in self.failures.items()}


def read_csv(path: Path) -> tuple[list, list]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def csv_checks(wl, outdirs, checker: Checker):
    """Oracles read from the CSV outputs of a pass."""
    if wl.name == "scan":
        header, rows = read_csv(outdirs[0] / "precursor.csv")
        gamma = wl.inputs["gamma"]
        for row in rows:
            r = dict(zip(header, row))
            if float(r["p"]) == 0.5 and int(r["two_j"]) >= 640:
                diff = float(r["diff_per_j"])
                if not abs(diff) <= PRECURSOR_TOL * gamma:
                    checker.failures[_key(r["two_j"], r["p"], r["M"])].append(
                        f"precursor off lambda_c*j by {diff:.3e} per j at bound {r['gamma_bound']}"
                    )
    if wl.name == "evolve_sector0":
        header, rows = read_csv(outdirs[0] / "traces.csv")
        for row in rows:
            r = dict(zip(header, row))
            if r["observable_label"] == "entropy":
                # a trace 1 + d raises S near the maximally mixed state by d (ln N - 1)
                bound = math.log(int(r["two_j"]) + 1) * (1 + DRIFT_TOL)
                if not float(r["value"]) <= bound:
                    checker.failures[_key(r["two_j"], r["p"], 0)].append(
                        f"entropy {r['value']} above ln(2j+1) at t={r['t']}"
                    )


def verify_lines(stdout: str) -> tuple[list, bool]:
    """Check names reported by ``spinbath verify`` and whether all passed."""
    names, ok = [], True
    for line in stdout.splitlines():
        status, _, rest = line.partition(" ")
        if status in ("PASS", "FAIL"):
            names.append(rest.split(" ", 1)[0])
            ok = ok and status == "PASS"
    return names, ok and bool(names)


def _covered(row: dict, failed_points) -> bool:
    for two_j, p, M in failed_points:
        if "two_j" in row and int(float(row["two_j"])) != two_j:
            continue
        if "p" in row and float(row["p"]) != p:
            continue
        if "M" in row and int(float(row["M"])) != M:
            continue
        if any(k in row for k in ("two_j", "p", "M")):
            return True
    return False


def _close(a: str, b: str, tol) -> bool:
    if tol is None:
        return a == b
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    rel, ab = tol
    return abs(x - y) <= max(ab, rel * max(abs(x), abs(y)))


def _csv_files(outdir: Path) -> list:
    return sorted(p.relative_to(outdir).as_posix() for p in outdir.rglob("*.csv")) if outdir.is_dir() else []


def write_reference(refdir: Path, outdir: Path, stdout: str, failed_points):
    """Store one call's outputs: sampled CSV rows and the ``verify`` check list."""
    refdir.mkdir(parents=True, exist_ok=True)
    files = {}
    for rel in _csv_files(outdir):
        header, rows = read_csv(outdir / rel)
        stride = 1 + len(rows) // SAMPLE_ROWS
        files[rel] = {"rows": len(rows), "stride": stride}
        with open(refdir / rel, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows[::stride])
    manifest = {"files": files, "failed_points": sorted(failed_points), "verify": verify_lines(stdout)[0]}
    (refdir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")


def compare_reference(refdir: Path, outdir: Path, stdout: str, failed_points) -> list:
    """Mismatches of one call's outputs against its stored reference."""
    manifest = json.loads((refdir / "manifest.json").read_text())
    skip = set(failed_points) | {tuple(p) for p in manifest["failed_points"]}
    problems = []
    if verify_lines(stdout)[0] != manifest["verify"]:
        problems.append("verify check list differs from reference")
    if sorted(manifest["files"]) != _csv_files(outdir):
        problems.append(f"CSV files {_csv_files(outdir)} differ from reference {sorted(manifest['files'])}")
    for rel, meta in manifest["files"].items():
        if not (outdir / rel).is_file():
            continue
        header, rows = read_csv(outdir / rel)
        ref_header, ref_rows = read_csv(refdir / rel)
        if header != ref_header or len(rows) != meta["rows"]:
            problems.append(f"{rel}: header or row count ({len(rows)}) differs from reference ({meta['rows']})")
            continue
        for i, ref in zip(range(0, len(rows), meta["stride"]), ref_rows):
            row = dict(zip(header, rows[i]))
            if _covered(row, skip):
                continue
            for col, a, b in zip(header, rows[i], ref):
                if not _close(a, b, TOLERANCES.get(col)):
                    problems.append(f"{rel} row {i + 1} column {col}: {a} vs reference {b}")
                    break
    return problems

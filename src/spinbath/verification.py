"""Machine-checkable invariant suite behind the `verify` subcommand.

Each check runs a self-contained oracle comparison and reports the measured
worst case against its tolerance.  The suite is the fast (< 2 min) everyday
gate; the full acceptance battery lives in the test suite.

Spectra are compared as multisets by multiset_match_error, the bottleneck
distance: the least eps such that every eigenvalue of one set pairs off with
its own eigenvalue of the other at most eps away.  A reported `measured` of
a spectral check is the largest such eps over its sampled sectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import closed_forms as cf
from . import dynamics as dyn
from . import spectra as sp
from .liouvillian import build_bruteforce, build_sector
from .model import ModelParams, sector_basis

__all__ = ["CheckResult", "run_all_checks", "ALL_CHECKS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


def multiset_match_error(a, b) -> float:
    """Bottleneck distance between two eigenvalue multisets of equal size.

    The least eps for which a perfect matching pairs every value of a with a
    value of b at most eps away, i.e. min over pairings of max |a_i - b_pi(i)|.
    The result is one entry of the distance table |a_i - b_j|.  Sets of
    different shapes give inf, as does any non-finite entry; two empty sets
    give 0.

    Where each set lies on one horizontal line (every sector spectrum: all
    values share i*h*M), the distance grows with the real difference alone,
    and the pairing in order of real parts is a bottleneck matching.  Other
    sets start from the largest nearest-neighbour distance, a lower bound,
    pair values greedily with their nearest free partners within it, and
    match the rest by augmenting paths, raising the threshold only as far as
    a path needs (Gabow & Tarjan, J. Algorithms 9, 411 (1988)).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return math.inf
    if a.size == 0:
        return 0.0
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return math.inf
    if (a.imag == a.imag[0]).all() and (b.imag == b.imag[0]).all():
        return float(np.abs(a[np.argsort(a.real)] - b[np.argsort(b.real)]).max())
    return _bottleneck(np.abs(a[:, None] - b[None, :]))


def _bottleneck(cost: np.ndarray) -> float:
    """Least threshold T at which the n x n table cost holds a perfect matching of entries <= T."""
    n = len(cost)
    threshold = max(cost.min(axis=1).max(), cost.min(axis=0).max())
    row_of = np.full(n, -1)  # the row matched to each column
    col_of = np.full(n, -1)  # the column matched to each row
    # rounds of greedy pairs: each row without a column asks for its nearest free column within
    # the threshold, and each column asked takes the first row that asked for it
    free = np.arange(n)
    while len(free):
        dist = np.where(row_of < 0, cost[free], np.inf)
        near = dist.argmin(axis=1)
        within = dist[np.arange(len(free)), near] <= threshold
        cols, first = np.unique(near[within], return_index=True)
        if not len(cols):
            break
        rows = free[within][first]
        row_of[cols], col_of[rows] = rows, cols
        free = np.flatnonzero(col_of < 0)
    for r in free:
        # grow the alternating tree of row r one column at a time, nearest first: key is each
        # column's least distance to a row of the tree, via that row, and the threshold rises
        # only when no column is left within it
        key, via = cost[r].copy(), np.full(n, r)
        seen = np.zeros(n, dtype=bool)
        while True:
            c = int(np.argmin(np.where(seen, np.inf, key)))
            threshold = max(threshold, key[c])
            seen[c] = True
            i = row_of[c]
            if i < 0:
                break
            closer = ~seen & (cost[i] < key)
            key[closer], via[closer] = cost[i, closer], i
        # augment along the tree back to r
        while c >= 0:
            i = via[c]
            c_next = col_of[i]
            row_of[c], col_of[i] = i, c
            c = c_next
    return float(threshold)


def check_bruteforce_oracle() -> CheckResult:
    worst = off_block = 0.0
    for two_j in (2, 3, 4):
        for p in (-1.0, -0.5, 0.0, 0.5, 1.0):
            for g0 in (0.0, 0.7):
                params = ModelParams(two_j=two_j, h=1.0, gamma=1.0, gamma0=g0, p=p)
                full = build_bruteforce(params)
                outside = np.ones(full.matrix.shape, dtype=bool)
                for M in range(-two_j, two_j + 1):
                    idx = full.sector_indices(M)
                    block = np.ix_(idx, idx)
                    outside[block] = False
                    w = sp.eigenvalues_only(build_sector(params, M))
                    worst = max(worst, multiset_match_error(np.linalg.eigvals(full.matrix[block]), w))
                off_block = max(off_block, float(np.abs(full.matrix[outside]).max()))
    return CheckResult("bruteforce-oracle-equivalence", worst <= 1e-10 and off_block == 0.0,
                       max(worst, off_block), 1e-10,
                       "each sector's spectrum against its own brute-force block; "
                       "entries outside the blocks must be exactly 0")


def check_unique_steady_state() -> CheckResult:
    worst = 0
    for two_j in (2, 3, 5):
        for p in (-1.0, -0.5, 0.0, 0.5, 1.0):
            params = ModelParams(two_j=two_j, p=p)
            ev = build_bruteforce(params).eigenvalues()
            nzero = int(np.sum(np.abs(ev) < 1e-10))
            worst = max(worst, abs(nzero - 1))
    return CheckResult("unique-zero-eigenvalue", worst == 0, float(worst), 0.0,
                       "count of |lambda|<1e-10 minus one, worst case")


def check_triangularity() -> CheckResult:
    worst = 0.0
    for two_j in (7, 20):
        for M in (-3, 0, 4):
            up = build_sector(ModelParams(two_j=two_j, p=1.0), M).upper
            lo = build_sector(ModelParams(two_j=two_j, p=-1.0), M).lower
            if len(up):
                worst = max(worst, float(np.abs(up).max()))
            if len(lo):
                worst = max(worst, float(np.abs(lo).max()))
    return CheckResult("triangularity-at-full-polarization", worst == 0.0, worst, 0.0)


def check_trace_preservation() -> CheckResult:
    worst = 0.0
    for two_j in (8, 21):
        for p in (-0.7, 0.0, 0.4, 1.0):
            op = build_sector(ModelParams(two_j=two_j, p=p, gamma0=0.3), 0)
            col = op.diag.copy()
            col[:-1] += op.upper
            col[1:] += op.lower
            worst = max(worst, float(np.abs(col).max()) / sp._band_scale(op))
    return CheckResult("trace-preservation-columns", worst <= 1e-12, worst, 1e-12,
                       "column sums of the M=0 sector relative to the operator scale")


def _block(full, M: int) -> np.ndarray:
    """Sector M of the brute-force Liouvillian, which does not depend on the sector builder."""
    idx = full.sector_indices(M)
    return full.matrix[np.ix_(idx, idx)]


def check_hermiticity_covariance() -> CheckResult:
    worst = 0.0
    for two_j in (9, 16):
        params = ModelParams(two_j=two_j, p=0.35, gamma0=0.2)
        full = build_bruteforce(params)
        for M in (1, 3, two_j - 1):
            a, b = _block(full, M), _block(full, -M)
            worst = max(worst, float(np.abs(b - np.conj(a)).max()))
            for sector, block in ((M, a), (-M, b)):
                worst = max(worst, float(np.abs(build_sector(params, sector).to_dense() - block).max()))
    return CheckResult("hermiticity-covariance", worst <= 1e-12, worst, 1e-12,
                       "brute-force block -M is conj(block M), and each sector operator is its block")


def check_sector_conjugation() -> CheckResult:
    worst = 0.0
    full = build_bruteforce(ModelParams(two_j=14, p=0.5))
    for M in (1, 4):
        wa, wb = (np.linalg.eigvals(_block(full, sector)) for sector in (M, -M))
        worst = max(worst, multiset_match_error(wa, np.conj(wb)))
    return CheckResult("sector-conjugation-spectra", worst <= 1e-10, worst, 1e-10,
                       "spectra of the brute-force blocks M and -M")


def check_dissipativity() -> CheckResult:
    worst = -np.inf
    for two_j in (11, 24):
        for p in (-0.8, 0.0, 0.5, 1.0):
            params = ModelParams(two_j=two_j, p=p)
            for M in range(-two_j, two_j + 1):
                w = sp.eigenvalues_only(build_sector(params, M))
                worst = max(worst, float(w.real.max()))
    return CheckResult("dissipativity-re-nonpositive", worst <= 1e-10, worst, 1e-10,
                       "largest real part across sampled spectra")


def check_triangular_closed_form() -> CheckResult:
    worst = 0.0
    for two_j in (13, 28):
        for p in (1.0, -1.0):
            params = ModelParams(two_j=two_j, p=p)
            for M in (-2, 0, 5):
                tri = cf.triangular_solution(params, M)
                w = sp.eigenvalues_only(build_sector(params, M))
                worst = max(worst, multiset_match_error(w, tri.eigenvalues))
    return CheckResult("triangular-closed-form", worst <= 1e-9, worst, 1e-9)


def check_o3_closed_form() -> CheckResult:
    worst = 0.0
    for two_j in (12, 25):
        params = ModelParams(two_j=two_j, p=0.0)
        for M in (-3, 0, 6):
            w = sp.eigenvalues_only(build_sector(params, M))
            ref = np.array([cf.o3_eigenvalue(params, K, M) for K in range(abs(M), two_j + 1)])
            worst = max(worst, multiset_match_error(w, ref))
    return CheckResult("o3-closed-form", worst <= 1e-9, worst, 1e-9)


def check_gamma0_shift() -> CheckResult:
    worst = 0.0
    fulls = [build_bruteforce(ModelParams(two_j=10, p=0.3, gamma0=g0)) for g0 in (0.0, 1.0)]
    for M in (0, 2, 7):
        w0, w1 = (np.linalg.eigvals(_block(full, M)) for full in fulls)
        worst = max(worst, multiset_match_error(w1, w0 - M**2 / 10))  # -gamma0 M^2/(2j), gamma0 = 1, 2j = 10
    return CheckResult("gamma0-constant-shift", worst <= 1e-10, worst, 1e-10,
                       "brute-force block spectra at gamma0 = 1 against gamma0 = 0 plus -gamma0 M^2/(2j)")


def check_cg_orthogonality() -> CheckResult:
    worst = 0.0
    for j in (2.5, 10.0):
        two_j = int(round(2 * j))
        for K in (0, 2, int(j)):
            for Kp in (K, K + 1):
                if Kp > two_j:
                    continue
                s = 0.0
                for two_m in range(-two_j, two_j + 1, 2):
                    s += (cf.clebsch_gordan(j, two_m / 2, j, -two_m / 2, K, 0)
                          * cf.clebsch_gordan(j, two_m / 2, j, -two_m / 2, Kp, 0))
                worst = max(worst, abs(s - (1.0 if K == Kp else 0.0)))
    return CheckResult("cg-orthogonality", worst <= 1e-12, worst, 1e-12)


def check_thermal_null_vector() -> CheckResult:
    worst = 0.0
    for two_j in (20, 40, 80):
        for p in (-0.7, -0.3, 0.3, 0.7):
            params = ModelParams(two_j=two_j, p=p, gamma0=0.5)
            op = build_sector(params, 0)
            vec = cf.thermal_ss(params).coefficients
            worst = max(worst, float(np.linalg.norm(op.matvec(vec.astype(complex)))) / sp._band_scale(op))
    return CheckResult("thermal-steady-state-null", worst <= 1e-12, worst, 1e-12,
                       "||L_0 rho_ss|| / ||L|| with the geometric vector")


def check_propagation_conservation() -> CheckResult:
    # propagate fills a mirrored sector -M with the conjugate of sector M, so
    # its output has no Hermiticity defect to measure.  The sectors M > 0 and
    # their conjugates are propagated instead as two unmirrored states, each
    # sector explicitly, and the outputs must still mirror each other.
    worst = 0.0
    ts = [0.0, 2.5, 10.0]
    for p in (0.0, 0.5, -0.5, 1.0):
        params = ModelParams(two_j=12, p=p)
        rho0 = dyn.coherent_state(12, 1.1, 0.4)
        for s in dyn.propagate(params, rho0, ts):
            worst = max(worst, abs(s.trace() - 1.0))
        upper = dyn.VectorizedDensityMatrix(12, {M: v for M, v in rho0.sectors.items() if M > 0})
        lower = dyn.VectorizedDensityMatrix(12, {-M: np.conj(v) for M, v in upper.sectors.items()})
        for a, b in zip(dyn.propagate(params, upper, ts), dyn.propagate(params, lower, ts)):
            both = dyn.VectorizedDensityMatrix(12, {**a.sectors, **b.sectors})
            worst = max(worst, both.hermiticity_defect())
    return CheckResult("propagation-trace-hermiticity", worst <= 1e-10, worst, 1e-10,
                       "trace drift of a coherent start; sectors -M propagated from conj(v) "
                       "against the conjugates of sectors M propagated from v")


def check_semigroup() -> CheckResult:
    params = ModelParams(two_j=10, p=0.4)
    rho0 = dyn.coherent_state(10, 0.8, 0.0)
    one = dyn.propagate(params, rho0, [1.3])[0]
    two = dyn.propagate(params, one, [0.9])[0]
    direct = dyn.propagate(params, rho0, [2.2])[0]
    worst = max(
        float(np.abs(two.sectors[M] - direct.sectors[M]).max()) for M in direct.sectors
    )
    return CheckResult("semigroup-property", worst <= 1e-8, worst, 1e-8)


def check_residual_norms() -> CheckResult:
    worst = 0.0
    for two_j in (20, 64):
        for p in (0.0, 0.5, 1.0):
            op = build_sector(ModelParams(two_j=two_j, p=p), 0)
            dec = sp.diagonalize(op)
            worst = max(worst, float(dec.residual_norms.max()) / dec.operator_scale)
    return CheckResult("eigen-residuals", worst <= 1e-8, worst, 1e-8)


def check_pairing_involution() -> CheckResult:
    ok = True
    detail = ""
    for two_j in (8, 13):
        params = ModelParams(two_j=two_j, p=1.0)
        for M in (0, 1, -2):
            tri = cf.triangular_solution(params, M)
            for m, partner in tri.pairing.items():
                if abs(tri.pairing.get(partner, np.nan) - m) > 1e-12:
                    ok = False
                    detail = f"pairing not involutive at two_j={two_j}, M={M}, m={m}"
            expected_top = -params.j + M if M >= 0 else -params.j
            if not any(abs(e - expected_top) < 1e-9 for e in tri.exceptions):
                ok = False
                detail = f"missing extremal exception at two_j={two_j}, M={M}"
            if M % 2 == 1:
                fixed = (M + params.p) / 2
                sec = sector_basis(params, M)
                on_grid = abs((fixed - sec.m_min) - round(fixed - sec.m_min)) < 1e-9
                if on_grid and not any(abs(e - fixed) < 1e-9 for e in tri.exceptions):
                    ok = False
                    detail = f"missing odd-M fixed point at two_j={two_j}, M={M}"
    return CheckResult("triangular-pairing-involution", ok, 0.0 if ok else 1.0, 0.0, detail)


ALL_CHECKS = [
    check_bruteforce_oracle,
    check_unique_steady_state,
    check_triangularity,
    check_trace_preservation,
    check_hermiticity_covariance,
    check_sector_conjugation,
    check_dissipativity,
    check_triangular_closed_form,
    check_o3_closed_form,
    check_gamma0_shift,
    check_cg_orthogonality,
    check_thermal_null_vector,
    check_propagation_conservation,
    check_semigroup,
    check_residual_norms,
    check_pairing_involution,
]


def run_all_checks() -> list[CheckResult]:
    return [chk() for chk in ALL_CHECKS]

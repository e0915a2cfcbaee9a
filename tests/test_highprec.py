"""Arbitrary-precision cross-checks of the structured eigensolver and the
propagator.

The double-precision path computes eigenvalues from the symmetrized
tridiagonal and eigenvectors by inverse iteration.  Here the same sector is
solved in mpmath (Sturm bisection on the symmetric form, then the exact
three-term recursion for each eigenvector) and the eigenvalue ladder and
coalescence distances are compared.  The propagated states are compared with
mpmath exponentials of the same sector matrices at every output time.  The
closed forms that a command reads at a size the user chooses (thermal_ss and
hp_states) are compared with mpmath sums at 2j = 8000, and Clebsch-Gordan
coefficients with an mpmath Racah sum at 2j = 320.
Skipped when mpmath is unavailable.
"""

import pytest

mp_mod = pytest.importorskip("mpmath")
import numpy as np
from mpmath import binomial, expm as mexpm, factorial as mfac, matrix as mmatrix, mp, mpc, mpf, sqrt as msqrt

from spinbath.closed_forms import _gen_eigvec_raw, clebsch_gordan, hp_states, thermal_ss
from spinbath.dynamics import coherent_state, propagate
from spinbath.liouvillian import build_sector
from spinbath.model import ModelParams
from spinbath.output import parse_time_grid
from spinbath.spectra import diagonalize, pair_distances


def _mp_bands(params, M):
    two_j = params.two_j
    j = mpf(two_j) / 2
    m_min = max(-j, -j + M)
    n = two_j + 1 - abs(M)
    ms = [m_min + k for k in range(n)]
    G = mpf(repr(params.gamma))
    p = mpf(repr(params.p))
    diag = [-G * (j + 1) + (G / j) * m * (m - M) + (G / (2 * j)) * M**2 - (G * p / (2 * j)) * (2 * m - M)
            for m in ms]
    lp = lambda m: msqrt(j * (j + 1) - m * (m + 1))
    lm = lambda m: msqrt(j * (j + 1) - m * (m - 1))
    gp = (G / j) * (1 - p) / 2
    gm = (G / j) * (1 + p) / 2
    up = [gp * lp(ms[k]) * lp(ms[k] - M) for k in range(n - 1)]
    lo = [gm * lm(ms[k + 1]) * lm(ms[k + 1] - M) for k in range(n - 1)]
    return diag, up, lo


def _sturm_count(d, b2, x):
    cnt = 0
    q = d[0] - x
    if q < 0:
        cnt += 1
    for k in range(1, len(d)):
        if q == 0:
            q = mpf(10) ** (-mp.dps)
        q = d[k] - x - b2[k - 1] / q
        if q < 0:
            cnt += 1
    return cnt


def _mp_eig(d, b2, i_asc, seed, tol):
    lo_x = mpf(repr(seed)) - mpf("1e-7")
    hi_x = mpf(repr(seed)) + mpf("1e-7")
    while _sturm_count(d, b2, lo_x) > i_asc:
        lo_x -= mpf("1e-5")
    while _sturm_count(d, b2, hi_x) < i_asc + 1:
        hi_x += mpf("1e-5")
    while hi_x - lo_x > tol:
        mid = (lo_x + hi_x) / 2
        if _sturm_count(d, b2, mid) >= i_asc + 1:
            hi_x = mid
        else:
            lo_x = mid
    return (lo_x + hi_x) / 2


def _mp_eigvec(diag, up, lo, lam):
    n = len(diag)
    v = [mpf(0)] * n
    v[0] = mpf(1)
    if n > 1:
        v[1] = -(diag[0] - lam) * v[0] / lo[0]
    for k in range(1, n - 1):
        v[k + 1] = -(up[k - 1] * v[k - 1] + (diag[k] - lam) * v[k]) / lo[k]
    nrm = msqrt(sum(x * x for x in v))
    return [x / nrm for x in v]


def test_structured_solver_against_highprec():
    params = ModelParams(two_j=80, p=0.5)
    dec = diagonalize(build_sector(params, 0))
    d_dp = pair_distances(dec)

    mp.dps = 70  # covers the ~20-digit dynamic range of the eigenvectors
    diag, up, lo = _mp_bands(params, 0)
    n = len(diag)
    b2 = [up[k] * lo[k] for k in range(n - 1)]
    tol = mpf(10) ** (-55)
    n_top = 24
    vecs = []
    for N in range(n_top):
        lam = _mp_eig(diag, b2, n - 1 - N, float(dec.eigenvalues[N].real), tol)
        # eigenvalue ladder agrees to near machine precision
        assert abs(float(lam) - dec.eigenvalues[N].real) < 2e-13
        vecs.append(_mp_eigvec(diag, up, lo, lam))
    for N in range(n_top - 1):
        ov = abs(sum(a * b for a, b in zip(vecs[N], vecs[N + 1])))
        d_true = float(mpf(1) - ov)
        # distances match wherever they sit above the double floor
        if d_true > 1e-11:
            assert d_dp[N] == pytest.approx(d_true, rel=1e-3, abs=1e-13)
        else:
            assert d_dp[N] < 1e-11


# The dense log grid's early steps differ by ~1e-10 from their neighbours.
# Each must be propagated with its own length, or the time offsets add up;
# a lasting offset shows at a few checkpoints, so only those are compared.
_PROPAGATE_CASES = [
    (p, gamma0, grid)
    for p in (1.0, -1.0, 0.5, 0.0)
    for gamma0 in (0.0, 0.7)
    for grid in ("lin:0:100:6", "log:0.1:100:4")
] + [(0.5, 0.7, "log:1e-6:100:2000")]


@pytest.mark.parametrize("p, gamma0, grid", _PROPAGATE_CASES)
def test_propagate_against_highprec(p, gamma0, grid):
    # |p| = 1 makes the sectors triangular and strongly non-normal, where a
    # single unsubstepped exponential over t = 100 is off by ~1e-4
    params = ModelParams(two_j=12, p=p, gamma0=gamma0, h=0.8)
    ts = parse_time_grid(grid)
    rho0 = coherent_state(12, 1.1, 0.4)
    states = propagate(params, rho0, ts)
    checked = range(len(ts)) if len(ts) <= 6 else (20, 100, 400, 1000, len(ts) - 1)
    worst = 0.0
    with mp.workdps(30):
        for M in (0, 5, -5, 12, -12):
            A = build_sector(params, M).to_dense()
            A = mmatrix((A.real if M == 0 else A).tolist())
            v0 = mmatrix(rho0.sectors[M].tolist())
            for i in checked:
                want = np.array((mexpm(A * mpf(float(ts[i]))) * v0).tolist(), dtype=complex).ravel()
                worst = max(worst, float(np.abs(states[i].sectors[M] - want).max()))
    assert worst <= 1e-12


def _mp_sector_states(op, v0, ts):
    """exp(t L_M) v0 at every t of ts, in mpmath: e^{c_M t} times exp(t R_M) v0, c_M the shift.

    exp(t R_M) is a Taylor series in the real tridiagonal R_M, stepped from
    one output time to the next and summed until its terms fall below 1e-25.
    """
    n = op.dim
    diag, upper, lower = ([mpf(float(x)) for x in band] for band in (op.diag, op.upper, op.lower))

    def matvec(v):
        out = [diag[k] * v[k] for k in range(n)]
        for k in range(n - 1):
            out[k + 1] += upper[k] * v[k]
            out[k] += lower[k] * v[k + 1]
        return out

    cols = [[mpf(float(x.real)) for x in v0], [mpf(float(x.imag)) for x in v0]]
    states, t_prev = [], mpf(0)
    for t in ts:
        dt, t_prev = mpf(float(t)) - t_prev, mpf(float(t))
        for c, v in enumerate(cols):
            term, k = v, 0
            while max(abs(x) for x in term) > mpf("1e-25"):
                k += 1
                term = [x * dt / k for x in matvec(term)]
                v = [a + b for a, b in zip(v, term)]
            cols[c] = v
        phase = mp.exp(mpc(op.shift.real, op.shift.imag) * t_prev)
        states.append(np.array([complex(phase * mpc(a, b)) for a, b in zip(*cols)]))
    return states


@pytest.mark.parametrize("p", [0.5, 1.0, -0.9])
@pytest.mark.parametrize("gamma0", [0.0, 0.7])
def test_banded_pade_propagation_against_highprec(p, gamma0):
    # at 2j = 40 on this grid, sectors 0 and +-5 (n = 41, 36) take few enough substeps
    # (S = 8) for the banded Pade path; sectors +-20 (n = 21) stay on the dense path
    params = ModelParams(two_j=40, p=p, gamma0=gamma0, h=0.8)
    ts = parse_time_grid("lin:0:0.4:5")
    rho0 = coherent_state(40, 1.1, 0.4)
    states = propagate(params, rho0, ts)
    worst = 0.0
    with mp.workdps(30):
        for M in (0, 5, -5, 20, -20):
            want = _mp_sector_states(build_sector(params, M), rho0.sectors[M], ts)
            for s, w in zip(states, want):
                worst = max(worst, float(np.abs(s.sectors[M] - w).max()))
    assert worst <= 1e-12


def _mp_gen_raw(p, K):
    """sum_n Omega_n C(K,n) alpha^(K-n) for the float p, each term for n >= 2 from the last."""
    p = mpf(p)
    a = (1 - p) / (1 + p)
    g = 2 * p / (1 + p)
    total = a**K - (1 + 2 * p) / (1 + p) * K * a ** (K - 1)
    term = p / (1 + p) ** 2 * binomial(K, 2) * a ** (K - 2)
    ratio = g / a
    for n in range(2, K + 1):
        total += term
        term *= ratio * ((n - 1) * (K - n)) / (n + 1) ** 2
    return total


@pytest.mark.parametrize("p, Ks", [(0.5, (2000, 2600, 3600)), (0.225, (1700, 2000))])
def test_gen_eigvec_raw_against_highprec(p, Ks):
    # Omega_n = Omega_2 g^(n-2)/C(n,2) underflows from n = 1801 at p = 0.5; a sum that
    # drops those terms is off by more than 1e-10 from K = 2482 (p = 0.5) and 1652 (p = 0.225)
    raw = _gen_eigvec_raw(p, max(Ks))
    with mp.workdps(30):
        for K in Ks:
            want = float(_mp_gen_raw(p, K))
            assert abs(raw[K] - want) <= 1e-10 * abs(want), K


@pytest.mark.parametrize("p", [0.05, 0.2, 0.5, 0.9])
def test_large_j_closed_forms_against_highprec(p):
    # every entry whose true value is a normal double agrees; the others stay below that range
    two_j = 8000
    params = ModelParams(two_j=two_j, p=p)
    th = thermal_ss(params)
    hp = hp_states(params)
    assert np.array_equal(hp.steady_state, th.coefficients)
    tiny = np.finfo(float).tiny
    with mp.workdps(30):
        pm = mpf(p)
        a = (1 - pm) / (1 + pm)
        powers = [mpf(1)]
        for _ in range(two_j):
            powers.append(powers[-1] * a)
        z = mp.fsum(powers)
        ss = np.array([float(x / z) for x in powers])
        jz = float(mp.fdot(range(two_j + 1), powers) / z - mpf(two_j) / 2)
        eig = [x * (2 * pm * n - (1 - pm)) for n, x in enumerate(powers)]
        norm = msqrt(mp.fdot(eig, eig))
        eig = np.array([float(x / norm) for x in eig])
        # eigvec's two terms cancel where 2pn = 1 - p, so each entry is held to the scale of its terms
        eig_scale = ss * float(z / norm) * (2 * p * np.arange(two_j + 1) + 1 - p)
        Ks = (1, 2, 10, 100, 1000, two_j)
        gen = np.array([float(_mp_gen_raw(p, K)) for K in Ks])
    assert abs(th.jz - jz) <= 1e-10 * abs(jz)
    normal = ss >= tiny
    assert np.all(np.abs(th.coefficients[normal] - ss[normal]) <= 1e-10 * ss[normal])
    assert np.all(th.coefficients[~normal] < 2 * tiny)
    normal = np.abs(eig) >= tiny
    assert np.all(np.abs(hp.eigvec[normal] - eig[normal]) <= 1e-10 * eig_scale[normal])
    assert np.all(np.abs(hp.eigvec[~normal]) < 2 * tiny)
    # gen_eigvec is the raw sum over its Euclidean norm, and the raw entry K = 0 is 1
    ratios = hp.gen_eigvec[list(Ks)] / hp.gen_eigvec[0]
    assert np.all(np.abs(ratios - gen) <= 1e-10 * np.abs(gen))


def _mp_cg(two_j, two_m, K):
    """<j m, j -m | K 0> from the factorial Racah sum in the working precision."""
    j1m = j2p = (two_j - two_m) // 2
    a, b = two_j - K, K
    t = K - j1m  # both J - j2 + m1 and J - j1 - m2
    pref = msqrt((2 * K + 1) * mfac(a) * mfac(b) ** 2 / mfac(two_j + K + 1)
                 * mfac(K) ** 2 * mfac(j1m) ** 2 * mfac(two_j - j1m) ** 2)
    return pref * mp.fsum((-1) ** k / (mfac(k) * mfac(a - k) * mfac(j1m - k) ** 2 * mfac(t + k) ** 2)
                          for k in range(max(0, -t), min(a, j1m) + 1))


@pytest.mark.parametrize("two_j, two_m, K", [(320, 0, 80), (320, 14, 159), (320, -60, 160), (320, 0, 242),
                                           (320, 200, 120), (320, -2, 319), (1000, 1000, 1000)])
def test_clebsch_gordan_against_highprec(two_j, two_m, K):
    # the alternating sum cancels about 30 digits at 2j = 320, where a float sum kept no digit;
    # the last entry, 7.0e-301, has a square far below the double range
    with mp.workdps(100):
        want = float(_mp_cg(two_j, two_m, K))
    assert want != 0
    got = clebsch_gordan(two_j / 2, two_m / 2, two_j / 2, -two_m / 2, K, 0)
    assert abs(got - want) <= 1e-12 * abs(want)

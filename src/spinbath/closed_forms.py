"""Analytic solutions used as oracles throughout the test suite.

Four solvable corners of the model:
  * |p| = 1: the sector operator is triangular; eigenvalues are its diagonal
    and eigenvectors follow from a one-sided recursion, whose products are
    summed in logs, so they hold at every 2j.  All non-extremal eigenvalues
    pair up exactly and each pair carries a single eigenvector.
  * p = 0: the generator closes an O(3) algebra; eigenvalues are labelled by
    rotor quantum numbers (K, M) and the eigenmatrices decouple through
    Clebsch-Gordan coefficients, giving closed-form observable dynamics.  The
    coefficients come from an exact integer Racah sum, so they hold at every
    2j.
  * large j, 0 < |p| < 1: a bosonic expansion around the steady state.  The
    non-unitary Bogoliubov transformation uses u = (1+p)/(2 sqrt(p)),
    v = (1-p)/(2 sqrt(p)), ubar = vbar = 1/sqrt(p); these satisfy the
    commutator normalization [beta_i, betabar_j] = delta_ij identically
    (u*ubar - v*vbar = 1), which fixes u's denominator to sqrt(p).  The
    generalized eigenvector's expansion is summed in logs, so it holds at
    every 2j.
  * any |p| < 1: the steady state is a thermal (geometric) diagonal state and
    annihilates the M = 0 sector operator exactly at finite j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .liouvillian import build_sector
from .model import ModelParams, ladder_coeff, sector_basis

__all__ = [
    "TriangularSolution",
    "HPStates",
    "ThermalSS",
    "DefectiveChainError",
    "triangular_solution",
    "triangular_eigenvector",
    "o3_eigenvalue",
    "clebsch_gordan",
    "o3_expectation",
    "hp_states",
    "thermal_ss",
    "ep_halflife",
    "critical_value_per_j",
]


class DefectiveChainError(ArithmeticError):
    """Raised when the triangular recursion hits a degenerate denominator."""


def _require_full_polarization(params: ModelParams):
    if abs(abs(params.p) - 1.0) > 1e-14:
        raise ValueError(f"requires |p| = 1, got p={params.p}")


def _triangular_diagonal(params: ModelParams, m, M: int):
    """Diagonal eigenvalue of the triangular limit at the label m, or at every label of an array m."""
    j, G, h, p = params.j, params.gamma, params.h, params.p
    lam = -G * (j + 1) + 1j * h * M + (G / (2 * j)) * (M * (M + p) - 2 * m * (M - m + p))
    return lam + -params.gamma0 * M**2 / (2 * j) if params.gamma0 else lam


@dataclass(frozen=True)
class TriangularSolution:
    """Eigenvalue table of one sector at |p| = 1 with its exact pairing.

    eigenvalues[k] is the diagonal eigenvalue at the label m_labels[k]
    (ascending m).  pairing maps the m label to its degenerate partner
    M - m + p; labels in exceptions are unpaired (the extremal eigenvalues of
    the sector).
    """

    m_labels: np.ndarray
    eigenvalues: np.ndarray
    pairing: dict
    exceptions: list


def triangular_solution(params: ModelParams, M: int) -> TriangularSolution:
    _require_full_polarization(params)
    sec = sector_basis(params, M)
    ms = sec.m_values()
    lams = _triangular_diagonal(params, ms, M)
    pairing = {}
    exceptions = []
    for m in ms:
        partner = M - m + params.p
        if sec.m_min - 1e-9 <= partner <= sec.m_max + 1e-9 and abs(partner - m) > 1e-9:
            pairing[float(m)] = float(partner)
        else:
            # a fixed point (odd-M lowest eigenvalue) or a partner outside the
            # sector (extremal state)
            exceptions.append(float(m))
    return TriangularSolution(m_labels=ms, eigenvalues=lams, pairing=pairing, exceptions=exceptions)


def triangular_eigenvector(params: ModelParams, N: float, M: int) -> np.ndarray:
    """Closed-form right eigenvector of the triangular limit, label m = N.

    For p = 1 the chain terminates at m = N and extends downward through
    rho_m = prod_{i=m}^{N-1} c_{i+1} / (lambda_N - lambda_i); the p = -1 case
    is the mirror construction.  The products are one cumulative sum of log
    ratios and one sign product, scaled so that the largest |entry| is 1, so
    the vector stays finite at every 2j.  A degenerate denominator means the
    requested label is the defective member of a pair.
    """
    _require_full_polarization(params)
    sec = sector_basis(params, M)
    k_N = int(round(N - sec.m_min))
    if not 0 <= k_N < sec.dim:
        raise ValueError(f"label N={N} outside sector M={M}")
    op = build_sector(params, M)
    # p = 1: lower[k] couples m_{k+1} into m_k, and the chain extends downward from the label;
    # p = -1: upper[k-1] couples m_{k-1} into m_k (raising channel only), and it extends upward
    if params.p > 0:
        chain = np.arange(k_N - 1, -1, -1)
        coupling = op.lower[chain]
    else:
        chain = np.arange(k_N + 1, sec.dim)
        coupling = op.upper[chain - 1]
    denom = op.diag[k_N] - op.diag[chain]
    zero = np.flatnonzero(denom == 0)
    if zero.size:
        raise DefectiveChainError(
            f"degenerate chain at m={sec.m_values()[chain[zero[0]]]} for label N={N}, M={M}: "
            "kernel is one-dimensional"
        )
    log_mag = np.concatenate(([0.0], np.cumsum(np.log(np.abs(coupling)) - np.log(np.abs(denom)))))
    sign = np.concatenate(([1.0], np.cumprod(np.sign(coupling) * np.sign(denom))))
    vec = np.zeros(sec.dim, dtype=complex)
    vec[np.concatenate(([k_N], chain))] = sign * np.exp(log_mag - log_mag.max())
    return vec


def o3_eigenvalue(params: ModelParams, K: int, M: int) -> complex:
    """Rotor eigenvalue at p = 0: i h M + Gamma M^2/(2j) - Gamma K(K+1)/(2j)."""
    if params.p != 0:
        raise ValueError(f"requires p = 0, got p={params.p}")
    if not 0 <= K <= params.two_j:
        raise ValueError(f"K={K} outside [0, {params.two_j}]")
    if abs(M) > K:
        raise ValueError(f"|M|={abs(M)} exceeds K={K}")
    j, G, h = params.j, params.gamma, params.h
    return complex(1j * h * M + (G / (2 * j)) * M**2 - (G / (2 * j)) * K * (K + 1))


def _as_two(x, name: str) -> int:
    two = 2 * x
    if abs(two - round(two)) > 1e-9:
        raise ValueError(f"{name}={x} is not half-integer")
    return int(round(two))


def _cg_two(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> float:
    """<j1 m1, j2 m2 | J M> from twice each label, with the Racah sum in exact integers.

    With a, b, c = j1 + j2 - J, j1 - j2 + J, J - j1 + j2 and n = j1 + j2 + J
    the coefficient is S sqrt(P/Q), all in binomials:
    S = sum_k (-1)^k C(a, k) C(b, j1 - m1 - k) C(c, j2 + m2 - k),
    P = (2J + 1) C(2j1, a) C(2j2, a) and
    Q = (n + 1) C(n, a) C(2j1, j1 + m1) C(2j2, j2 + m2) C(2J, J + M).
    The terms of S cancel by tens of digits at large j (about 30 at
    2j = 320), so it is summed exactly.  The one float is sqrt(S^2 P/Q),
    formed from a correctly rounded integer quotient scaled by a power of
    two, so a coefficient keeps its digits where its square would leave the
    double range.
    """
    if tm1 + tm2 != tM:
        return 0.0
    if tJ < abs(tj1 - tj2) or tJ > tj1 + tj2 or (tj1 + tj2 + tJ) % 2 != 0:
        return 0.0
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tM) > tJ:
        return 0.0
    if (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tJ + tM) % 2:
        return 0.0
    a, b, c = (tj1 + tj2 - tJ) // 2, (tj1 - tj2 + tJ) // 2, (tj2 - tj1 + tJ) // 2
    j1m, j2p = (tj1 - tm1) // 2, (tj2 + tm2) // 2
    s = sum((-1) ** k * math.comb(a, k) * math.comb(b, j1m - k) * math.comb(c, j2p - k)
            for k in range(max(0, j1m - b, j2p - c), min(a, j1m, j2p) + 1))
    if s == 0:
        return 0.0
    n = (tj1 + tj2 + tJ) // 2
    num = s * s * (tJ + 1) * math.comb(tj1, a) * math.comb(tj2, a)
    den = ((n + 1) * math.comb(n, a) * math.comb(tj1, (tj1 + tm1) // 2) * math.comb(tj2, (tj2 + tm2) // 2)
           * math.comb(tJ, (tJ + tM) // 2))
    # |C| <= 1, so num <= den and e >= 0; (num 4^e)/den lies in [1/4, 2)
    e = (den.bit_length() - num.bit_length()) // 2
    return math.copysign(math.ldexp(math.sqrt((num << 2 * e) / den), -e), s)


def clebsch_gordan(j1: float, m1: float, j2: float, m2: float, K: float, M: float) -> float:
    """Condon-Shortley <j1 m1, j2 m2 | K M> from the Racah sum in exact integers (_cg_two).

    Within a few ulps of the exact value wherever that is a normal double, at
    every j.  Selection-rule violations return 0 rather than raising.
    """
    return _cg_two(
        _as_two(j1, "j1"), _as_two(m1, "m1"),
        _as_two(j2, "j2"), _as_two(m2, "m2"),
        _as_two(K, "K"), _as_two(M, "M"),
    )


def _observable_matrix(params: ModelParams, observable) -> np.ndarray:
    N = params.hilbert_dim
    j = params.j
    ms = -j + np.arange(N)
    if isinstance(observable, str):
        name = observable.lower()
        if name == "jz":
            return np.diag(ms).astype(complex)
        Jp = np.zeros((N, N), dtype=complex)
        Jp[np.arange(1, N), np.arange(N - 1)] = ladder_coeff(j, ms[:-1], "raise")
        if name == "jx":
            return (Jp + Jp.conj().T) / 2
        if name == "jy":
            return (Jp - Jp.conj().T) / (2j)
        raise ValueError(f"unknown observable {observable!r}")
    O = np.asarray(observable, dtype=complex)
    if O.shape != (N, N):
        raise ValueError(f"observable must be {N}x{N}, got {O.shape}")
    return O


def o3_expectation(params: ModelParams, rho0, observable, t):
    """<O(t)> at p = 0 from the rotor spectrum and Clebsch-Gordan decoupling.

    rho0 is a VectorizedDensityMatrix.  Per sector M, the signed coefficients
    C[m, K] = (-1)^(j - m) <j m, j M-m | K M>, K = |M|..2j, form one
    orthogonal matrix; with v the sector vector and o the offset-M diagonal
    of the observable, the sector adds sum_K (v^T C)_K (o^T C)_K
    exp(lambda_{K,M} t).  The coefficients come from an exact integer sum
    (_cg_two), so this holds at every 2j; for Jz and Jx it reproduces the
    simple exponential and damped-cosine laws.  t may be an array of times:
    each sector's C is filled once per call, and the result has the shape of
    t (a float for a scalar t).
    """
    if params.p != 0:
        raise ValueError(f"requires p = 0, got p={params.p}")
    two_j = params.two_j
    if rho0.two_j != two_j:
        raise ValueError("size mismatch between params and rho0")
    O = _observable_matrix(params, observable)
    ts = np.asarray(t, dtype=float)
    total = np.zeros(ts.shape, dtype=complex)
    for M, vec in rho0.sectors.items():
        two_m = [int(round(2 * m)) for m in sector_basis(params, M).m_values()]
        Ks = range(abs(M), two_j + 1)
        C = np.array([[(-1) ** ((two_j - tm) // 2) * _cg_two(two_j, tm, two_j, 2 * M - tm, 2 * K, 2 * M)
                       for K in Ks] for tm in two_m])
        lam = np.array([o3_eigenvalue(params, K, M) for K in Ks])
        total += np.sum((vec @ C) * (np.diagonal(O, M) @ C) * np.exp(np.multiply.outer(ts, lam)), axis=-1)
    return float(total.real) if total.ndim == 0 else total.real


@dataclass(frozen=True)
class HPStates:
    """Large-j bosonic states of the M = 0 sector for 0 < |p| < 1.

    Coefficient vectors live on the diagonal basis |m, m>, m = -j..j (index
    m + j), truncated at occupation 2j.  lambda1 = -2|p|Gamma is the slowest
    doublet eigenvalue.  steady_state is trace normalized; eigvec (the slowest
    decaying eigenvector) and gen_eigvec (its rank-2 generalized partner,
    printed-coefficient gauge) are Euclidean normalized.  jordan_scale kappa
    makes (L_TL - lambda1) gen_eigvec = kappa * eigvec.
    """

    lambda1: complex
    steady_state: np.ndarray
    eigvec: np.ndarray
    gen_eigvec: np.ndarray
    jordan_scale: float


_TERM_BLOCK = 1 << 14  # entries of _gen_eigvec_raw's (K, n) term table held at once
_LOG_TINY = math.log(np.finfo(float).tiny)


def _lfacts(n: int) -> np.ndarray:
    """ln k! for k = 0..n."""
    return np.array([math.lgamma(k + 1) for k in range(n + 1)])


def _log_omega(p: float, nmax: int) -> tuple[np.ndarray, np.ndarray]:
    """log|Omega_n| and sign(Omega_n), n = 0..nmax: Omega_0 = 1, Omega_1 = -(1+2p)/(1+p) and, for n >= 2,
    Omega_n = Omega_2 g^(n-2)/C(n,2) with Omega_2 = p/(1+p)^2, g = 2p/(1+p)."""
    n = np.arange(nmax + 1)
    log_om = np.zeros(nmax + 1)
    log_om[1] = math.log((1 + 2 * p) / (1 + p))
    log_om[2:] = (math.log(p / (1 + p) ** 2) + (n[2:] - 2) * math.log(2 * p / (1 + p))
                  - np.log(n[2:] * (n[2:] - 1) / 2))
    return log_om, np.where(n == 1, -1.0, 1.0)


def _gen_eigvec_raw(p: float, nmax: int) -> np.ndarray:
    """Quasi-vacuum expansion of the printed coefficients: sum_n Omega_n/n! (b1+ b2+)^n |0,0>.

    Coefficient on occupation K is sum_{n<=K} Omega_n C(K,n) alpha^(K-n) (_log_omega).
    Omega_n and the binomials leave the double range long before the damped sum does,
    so every term is formed in logs with its sign and each entry is a log-sum-exp over
    its terms.  The (K, n) table is summed in blocks of rows of at most _TERM_BLOCK
    entries (one row where a row is longer), each cut to the columns n <= its last K.
    """
    log_om, sign_om = _log_omega(p, nmax)
    ns = np.arange(nmax + 1)
    la = math.log((1 - p) / (1 + p))
    lf = _lfacts(nmax)
    # log of term (K, n) = row[K] + col[n] - ln (K-n)!; lf_ext[K - n] is +inf for n > K
    row = lf + ns * la
    col = log_om - lf - ns * la
    lf_ext = np.concatenate([lf, np.full(nmax, math.inf)])
    out = np.empty(nmax + 1)
    rows = max(1, _TERM_BLOCK // (nmax + 1))
    for k0 in range(0, nmax + 1, rows):
        k1 = min(k0 + rows, nmax + 1)
        lterm = col[:k1] - lf_ext[ns[k0:k1, None] - ns[:k1]]
        peak = lterm.max(axis=1)
        lterm -= peak[:, None]
        # a term below the smallest normal double relative to its row's peak cannot move the sum;
        # it is 0 here because exp takes 6 to 150 times longer on an underflowing argument
        terms = np.zeros_like(lterm)
        np.exp(lterm, out=terms, where=lterm > _LOG_TINY)
        out[k0:k1] = np.exp(row[k0:k1] + peak) * (sign_om[:k1] * terms).sum(axis=1)
    return out


def hp_states(params: ModelParams) -> HPStates:
    """Steady state, slowest doublet eigenvector, and its generalized partner.

    Valid for 0 < p < 1; negative p is handled by the m -> -m mirror.  The
    steady state is thermal_ss's.  The generalized eigenvector is summed in
    logs (_gen_eigvec_raw), so it holds at every 2j.  The jordan_scale is
    (1+p)/2 rescaled by the Euclidean normalization, exact for the infinite
    bosonic tower (checked symbolically order by order).
    """
    p = params.p
    if not 0 < abs(p) < 1:
        raise ValueError(f"requires 0 < |p| < 1, got p={p}")
    pa = abs(p)
    nmax = params.two_j
    alpha = (1 - pa) / (1 + pa)
    n = np.arange(nmax + 1)
    eig = alpha**n * (2 * pa * n - (1 - pa))
    eig *= 2 / (1 - pa**2)  # printed compact normalization
    gen = _gen_eigvec_raw(pa, nmax)
    kappa = (1 + pa) / 2 * np.linalg.norm(eig) / np.linalg.norm(gen)
    eigh_ = eig / np.linalg.norm(eig)
    genh = gen / np.linalg.norm(gen)
    if p < 0:
        eigh_, genh = eigh_[::-1].copy(), genh[::-1].copy()
    return HPStates(
        lambda1=complex(-2 * pa * params.gamma),
        steady_state=thermal_ss(params).coefficients,
        eigvec=eigh_,
        gen_eigvec=genh,
        jordan_scale=float(kappa),
    )


@dataclass(frozen=True)
class ThermalSS:
    """Steady state rho_SS = exp(beta h Jz)/Z in its geometric form, alpha = exp(beta h) = (1 - p)/(1 + p).

    coefficients is the trace-normalized diagonal on m = -j..j, proportional
    to alpha^(m+j); jz is its magnetization.
    """

    jz: float
    coefficients: np.ndarray


def thermal_ss(params: ModelParams) -> ThermalSS:
    """Exact finite-j steady state for |p| < 1, plus magnetization.

    The geometric vector alpha^(m+j) annihilates the M = 0 sector operator
    identically (term-by-term cancellation), for any gamma0.  At |p| = 1 the
    state degenerates to the pure extremal state and is returned as such.
    """
    p, j = params.p, params.j
    N = params.hilbert_dim
    if abs(p) >= 1:
        coef = np.zeros(N)
        coef[0 if p > 0 else -1] = 1.0
        return ThermalSS(jz=(-j if p > 0 else j), coefficients=coef)
    alpha = (1 - p) / (1 + p)
    # weights alpha^(m+j), stably normalized through logs for large j
    expo = np.arange(N) * math.log(alpha)
    w = np.exp(expo - expo.max())
    coef = w / w.sum()
    ms = -j + np.arange(N)
    jz = float(np.sum(ms * coef))
    return ThermalSS(jz=jz, coefficients=coef)


def critical_value_per_j(p: float, gamma: float) -> float:
    """Critical value of Re(lambda)/j in sector 0 at large j: -gamma (1 - sqrt(1 - p^2)).

    At m = j z the M = 0 bands have the symbol a(z) = diag/j and
    b(z) = sqrt(upper * lower)/j, whose upper edge a + 2b tends to
    -gamma (1 - sqrt(1 - p^2)) (1 - z^2).  Its interior minimum, at z = 0, is
    the van Hove point where the density of eigenvalues diverges.  It does not
    depend on h, gamma0 or the sign of p.  Written as
    -gamma p^2 / (1 + sqrt(1 - p^2)), it keeps its digits at small p.
    """
    return -gamma * p * p / (1.0 + math.sqrt(1.0 - p * p))


def ep_halflife(lambda_rate: float, has_generalized: bool) -> float:
    """Half-life of the mode population envelope.

    Plain eigenstate: exp(lambda t) = 1/2.  With an equally populated rank-2
    partner the envelope is (1 + t) exp(lambda t), and the half-life solves
    g(t) = ln(1 + t) + lambda t + ln 2 = 0.  g is concave with g(0) > 0, so
    Newton's method started past the root falls to it monotonically, and it
    stops once a step no longer lowers t: at the root to within a few ulps
    (inf where the root leaves the double range).
    """
    if lambda_rate >= 0:
        raise ValueError(f"decay rate must be negative, got {lambda_rate}")
    t_plain = math.log(2.0) / abs(lambda_rate)
    if not has_generalized:
        return t_plain

    def g(t):
        return math.log1p(t) + lambda_rate * t + math.log(2.0)

    t = t_plain
    while g(t) > 0:
        t *= 2
    while True:
        step = g(t) / (1 / (1 + t) + lambda_rate)
        if not t - step < t:
            return t
        t -= step

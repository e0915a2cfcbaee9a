"""Time propagation of vectorized density matrices, observables, and the
slowing-down / critical-dynamics experiments.

The generator is a real tridiagonal R_M plus the scalar i h M, so each sector
is propagated in real arithmetic and picks up the phase e^{i h M t} at the end.
A sector with symmetric bands (every sector at p = 0) is propagated in its
orthogonal eigenbasis, whose condition number is 1; t = 0 returns the initial
state exactly.  Every other sector uses dense scaling-and-squaring (scipy
expm), never a spectral decomposition: near coalescing pairs its eigenbasis is
exponentially ill-conditioned while expm stays backward stable.  Such a sector
builds one real interval propagator per distinct output-interval length
(lengths that differ only by float rounding count as one): a substepped expm,
raised to the full interval by repeated squaring.  A Lindblad generator
preserves Hermiticity, so L_{-M} = conj(L_M): a sector -M whose initial vector
is exactly the conjugate of sector M's is not propagated but filled with the
conjugate of sector M's output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.linalg.lapack import dstevd

from .closed_forms import _lfact, hp_states, thermal_ss
from .liouvillian import build_sector
from .model import ModelParams, ladder_coeff

__all__ = [
    "VectorizedDensityMatrix",
    "ObservableTrace",
    "PositivityError",
    "SlowdownResult",
    "coherent_state",
    "fock_state",
    "maximally_mixed",
    "propagate",
    "expectation",
    "entropy",
    "slowdown_experiment",
    "btc_experiment",
]


class PositivityError(ValueError):
    """Reconstructed density matrix has a genuinely negative eigenvalue."""


@dataclass
class VectorizedDensityMatrix:
    """Density matrix stored per sector: sectors[M][k] = <m|rho|m-M>, m ascending.

    Sectors absent from the dict are zero.  Physical states satisfy
    sum(sectors[0]) = 1 and the Hermitian mirror relation between M and -M.
    """

    two_j: int
    sectors: dict = field(default_factory=dict)

    @property
    def j(self) -> float:
        return self.two_j / 2.0

    def copy(self) -> "VectorizedDensityMatrix":
        return VectorizedDensityMatrix(self.two_j, {M: v.copy() for M, v in self.sectors.items()})

    def trace(self) -> complex:
        v = self.sectors.get(0)
        return complex(v.sum()) if v is not None else 0.0 + 0.0j

    def hermiticity_defect(self) -> float:
        """Max deviation from the mirror rule rho(-M) = conj(rho(M)).

        Index alignment works out elementwise: component k of sector -M is the
        conjugate of component k of sector M.  For the output of propagate
        from an exactly mirrored start the defect is 0 by construction, since
        each sector -M is filled with the conjugate of sector M.
        """
        worst = 0.0
        for M, v in self.sectors.items():
            w = self.sectors.get(-M, np.zeros_like(v))
            worst = max(worst, float(np.abs(w - np.conj(v)).max(initial=0.0)))
        return worst

    def to_dense(self) -> np.ndarray:
        N = self.two_j + 1
        rho = np.zeros((N, N), dtype=complex)
        for M, vec in self.sectors.items():
            # sector M lives on the diagonal with column = row - M
            rows = np.arange(max(0, M), N + min(0, M))
            rho[rows, rows - M] = vec
        return rho

    @classmethod
    def from_dense(cls, two_j: int, rho: np.ndarray) -> "VectorizedDensityMatrix":
        N = two_j + 1
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (N, N):
            raise ValueError(f"expected {N}x{N} matrix, got {rho.shape}")
        return cls(two_j, {M: np.diagonal(rho, offset=-M).copy() for M in range(-two_j, two_j + 1)})


def fock_state(two_j: int, m: float) -> VectorizedDensityMatrix:
    """|m><m| as a vectorized state."""
    j = two_j / 2.0
    if abs(m) > j or abs(2 * m - round(2 * m)) > 1e-9 or (round(2 * m) - two_j) % 2 != 0:
        raise ValueError(f"m={m} invalid for two_j={two_j}")
    v = np.zeros(two_j + 1, dtype=complex)
    v[int(round(m + j))] = 1.0
    return VectorizedDensityMatrix(two_j, {0: v})


def maximally_mixed(two_j: int) -> VectorizedDensityMatrix:
    N = two_j + 1
    return VectorizedDensityMatrix(two_j, {0: np.full(N, 1.0 / N, dtype=complex)})


def coherent_state(two_j: int, theta: float, phi: float) -> VectorizedDensityMatrix:
    """Pure spin coherent state; theta = pi/2, phi = 0 maximizes <Jx> = j.

    Amplitudes c_m = sqrt(C(2j, j+m)) cos(theta/2)^(j+m) sin(theta/2)^(j-m)
    e^{-i(j-m)phi} on the Jz basis.
    """
    N = two_j + 1
    k = np.arange(N)  # k = m + j
    logc = 0.5 * np.array([_lfact(two_j) - _lfact(int(kk)) - _lfact(two_j - int(kk)) for kk in k])
    with np.errstate(divide="ignore"):
        amp = np.exp(logc) * np.cos(theta / 2) ** k * np.sin(theta / 2) ** (two_j - k)
    c = amp * np.exp(-1j * (two_j - k) * phi)
    c = c / np.linalg.norm(c)
    rho = np.outer(c, c.conj())
    # the complex products of outer() are not exactly mirrored for phi != 0;
    # the symmetrized matrix is, so propagate can fill its sectors -M by conjugation
    return VectorizedDensityMatrix.from_dense(two_j, 0.5 * (rho + rho.conj().T))


def _check_times(times) -> np.ndarray:
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or len(ts) == 0:
        raise ValueError("times must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(ts)):
        raise ValueError("times must be finite")
    if np.any(np.diff(ts) < 0) or ts[0] < 0:
        raise ValueError("times must be nondecreasing and nonnegative")
    return ts


# substep bound on ||A||_inf * dt: keeps the forward error of the exponential
# small for the highly non-normal sector generators near the triangular limits
_EXPM_STEP_NORM = 4.0

# interval lengths closer than this many float spacings of the last time share
# one cached propagator, so the last-ulp scatter of np.linspace steps costs no
# extra expm while genuinely different lengths (e.g. on log grids) stay apart
_STEP_ULPS = 8


def _grouped_steps(ts: np.ndarray) -> np.ndarray:
    """Interval lengths t_i - t_{i-1} (with t_{-1} = 0), near-equal ones merged.

    Walking the lengths in ascending order, a length within _STEP_ULPS float
    spacings of t_max of the current group's smallest member takes that
    member's value; any other length starts a new group.
    """
    steps = np.diff(ts, prepend=0.0)
    tol = _STEP_ULPS * np.spacing(ts[-1])
    grouped = steps.copy()
    rep = None
    for i in np.argsort(steps, kind="stable"):
        if rep is None or steps[i] - rep > tol:
            rep = steps[i]
        grouped[i] = rep
    return grouped


def propagate(params: ModelParams, rho0: VectorizedDensityMatrix, times) -> list[VectorizedDensityMatrix]:
    """States exp(t L) rho0 at the requested times (nondecreasing, t >= 0).

    Every sector generator is L_M = R_M + i h M with R_M its real bands, so
    exp(t L_M) v = e^{i h M t} exp(t R_M) v and the whole propagation runs in
    real arithmetic on the (n, 2) view of the complex sector vector; the phase
    is applied once per sector for all times.  Two ways to apply exp(t R_M):

    * R_M symmetric (upper band == lower band, which holds in every sector at
      p = 0 and in every 1-dimensional sector): R_M = Q diag(lam) Q^T with Q
      orthogonal from one direct LAPACK dstevd call (the routine scipy's
      eigh_tridiagonal picks), condition number 1, so all T states come from
      one batched product Q (e^{lam t} * Q^T u0).  Rows with t = 0 are u0
      exactly.
    * otherwise the eigenbasis is ill-conditioned near coalescing pairs, so
      there is one real interval propagator per distinct output-interval
      length dt: E = expm(R_M dt/k) with k substeps chosen so that
      ||L_M|| dt/k <= _EXPM_STEP_NORM, raised to E^k by repeated squaring.
      Lengths that differ by at most _STEP_ULPS float spacings of t_max (the
      rounding scatter of np.linspace) count as one, so a uniform grid costs
      one expm per sector.

    Sector -M (M > 0) has the bands of sector M and the opposite shift, so
    L_{-M} = conj(L_M).  When rho0 holds both and sectors[-M] is bitwise
    np.conj(sectors[M]) (coherent_state builds its sectors so), the output block
    of -M is np.conj of the block of M, computed once for all times; a -M
    sector without such a partner is propagated explicitly.
    """
    ts = _check_times(times)
    if rho0.two_j != params.two_j:
        raise ValueError("size mismatch between params and rho0")
    steps = _grouped_steps(ts)
    sectors = rho0.sectors
    mirrored = {M for M, v in sectors.items()
                if M < 0 and -M in sectors and np.array_equal(v, np.conj(sectors[-M]))}
    blocks = {}
    for M, v0 in sectors.items():
        if M in mirrored:
            continue
        op = build_sector(params, M)
        u0 = np.array(v0, dtype=complex).view(float).reshape(-1, 2)
        if np.array_equal(op.upper, op.lower):
            if op.dim == 1:
                lam, Q = op.diag, np.ones((1, 1))  # dstevd rejects an empty off-diagonal
            else:
                lam, Q, info = dstevd(op.diag, op.upper)
                if info:
                    raise np.linalg.LinAlgError(f"dstevd failed (info={info}) in sector M={M}")
            U = Q @ (np.exp(np.multiply.outer(ts, lam))[:, :, None] * (Q.T @ u0))
            U[ts == 0] = u0
        else:
            R = op.to_dense().real
            scale = op.scale()
            cache: dict[float, np.ndarray] = {}
            U = np.empty((len(ts), *u0.shape))
            u = u0
            for i, dt in enumerate(steps):
                if dt > 0:
                    P = cache.get(dt)
                    if P is None:
                        k = max(1, int(np.ceil(scale * dt / _EXPM_STEP_NORM)))
                        P = np.linalg.matrix_power(expm(R * (dt / k)), k)
                        cache[dt] = P
                    u = np.matmul(P, u, out=U[i])
                else:
                    U[i] = u
        V = U.view(complex)[..., 0]
        if M:
            V = V * np.exp(1j * op.shift * ts)[:, None]
        blocks[M] = V
    for M in mirrored:
        blocks[M] = np.conj(blocks[-M])
    out = [VectorizedDensityMatrix(rho0.two_j) for _ in ts]
    for M in sectors:
        for state, v in zip(out, blocks[M]):
            state.sectors[M] = v
    return out


def expectation(rho: VectorizedDensityMatrix, which: str) -> float:
    """<Jz>, <Jx>, <Jy>, or a diagonal projector <m> population.

    Jz reads sector 0 only; Jx and Jy read sectors +-1 through the ladder
    coefficients.  The imaginary part must vanish for Hermitian input and is
    checked against a 1e-10 tolerance.
    """
    j = rho.j
    name = which.lower()
    if name == "jz":
        v = rho.sectors.get(0)
        if v is None:
            raise ValueError("state has no M=0 sector")
        ms = -j + np.arange(len(v))
        val = complex(np.sum(ms * v))
    elif name in ("jx", "jy"):
        vp = rho.sectors.get(1)
        vm = rho.sectors.get(-1)
        if vp is None and vm is None:
            raise ValueError("state has no M=+-1 sectors")
        # Tr(rho J-) = sum_m rho(+1)_m C-(m); Tr(rho J+) is its Hermitian mirror
        if vp is not None:
            m_min = max(-j, -j + 1)
            ms = m_min + np.arange(len(vp))
            jminus = complex(np.sum(vp * ladder_coeff(j, ms, "lower")))
        else:
            m_min = -j
            ms = m_min + np.arange(len(vm))
            jminus = complex(np.conj(np.sum(vm * ladder_coeff(j, ms, "raise"))))
        val = complex(jminus.real) if name == "jx" else complex(-jminus.imag)
    elif name.startswith("pop:"):
        m = float(name.split(":", 1)[1])
        v = rho.sectors.get(0)
        if v is None:
            raise ValueError("state has no M=0 sector")
        val = complex(v[int(round(m + j))])
    else:
        raise ValueError(f"unknown observable {which!r}")
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise ValueError(f"expectation value not real: {val} (non-Hermitian state?)")
    return float(val.real)


def entropy(rho: VectorizedDensityMatrix) -> float:
    """Von Neumann entropy -Tr[rho ln rho] of the reconstructed matrix.

    Eigenvalues in [-1e-8, 0) are clipped to zero (roundoff); anything below
    -1e-8 signals genuine positivity loss and raises.  A state that holds only
    the M = 0 sector is diagonal, and its eigenvalues are the populations.
    """
    if rho.sectors.keys() == {0}:
        w = rho.sectors[0].real
    else:
        dense = rho.to_dense()
        w = np.linalg.eigvalsh(0.5 * (dense + dense.conj().T))
    if w.min() < -1e-8:
        raise PositivityError(f"negative eigenvalue {w.min():.3e} in density matrix")
    w = np.clip(w, 0.0, None)
    w = w[w > 0]
    # + 0.0 turns the -0.0 of a pure state into 0.0
    return float(-np.sum(w * np.log(w)) + 0.0)


@dataclass(frozen=True)
class ObservableTrace:
    times: np.ndarray
    values: np.ndarray
    label: str

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise ValueError("times and values length mismatch")
        if np.any(np.diff(self.times) <= 0) and len(self.times) > 1:
            raise ValueError("times must be strictly increasing")


@dataclass(frozen=True)
class SlowdownResult:
    numeric: ObservableTrace
    theory: ObservableTrace
    initial_state: VectorizedDensityMatrix
    jz_infinity: float
    jordan_scale: float


def slowdown_experiment(params: ModelParams, a: float, b: float, times) -> SlowdownResult:
    """Relaxation of delta-Jz from the steady state dressed with its slowest
    doublet, against the thermodynamic-limit two-mode prediction.

    The initial state is SS + a*eigvec + b*gen_eigvec (trace renormalized) and
    must pass the positivity check.  The theory curve propagates the rank-2
    pair: coefficients (a + kappa b t) e^{lambda1 t} and b e^{lambda1 t}, with
    kappa the Jordan scale of the normalized states.
    """
    if not 0 < abs(params.p) < 1:
        raise ValueError("slowdown experiment needs 0 < |p| < 1")
    if a == 0 and b == 0:
        raise ValueError("nothing to relax: a and b both zero")
    ts = _check_times(times)
    hp = hp_states(params)
    rho_vec = hp.steady_state + a * hp.eigvec + b * hp.gen_eigvec
    tr = rho_vec.sum()
    rho_vec = rho_vec / tr
    if rho_vec.min() < -1e-10:
        raise ValueError(
            f"initial state not positive (min diagonal {rho_vec.min():.3e}); reduce |a|, |b|"
        )
    two_j = params.two_j
    rho0 = VectorizedDensityMatrix(two_j, {0: rho_vec.astype(complex)})
    states = propagate(params, rho0, ts)
    jz_inf = thermal_ss(params).jz
    jz0 = expectation(rho0, "jz")
    num = np.array([(expectation(s, "jz") - jz_inf) / (jz0 - jz_inf) for s in states])

    ms = -params.j + np.arange(two_j + 1)
    jz_of = lambda vec: float(np.sum(ms * vec))
    lam1 = hp.lambda1.real
    jz_e = jz_of(hp.eigvec)
    jz_g = jz_of(hp.gen_eigvec)
    denom = a * jz_e + b * jz_g
    theo = np.exp(lam1 * ts) * ((a + hp.jordan_scale * b * ts) * jz_e + b * jz_g) / denom
    return SlowdownResult(
        numeric=ObservableTrace(ts, num, "delta_jz_numeric"),
        theory=ObservableTrace(ts, theo, "delta_jz_theory"),
        initial_state=rho0,
        jz_infinity=jz_inf,
        jordan_scale=hp.jordan_scale,
    )


def btc_experiment(params: ModelParams, two_j_list, times, cross_check_max_two_j: int = 0,
                   theta: float = np.pi / 2, phi: float = 0.0) -> dict:
    """Undamped-oscillation curves <Jx(t)>/j at p = 0 from the coherent start (theta, phi).

    The law <Jx(t)>/j = e^{-(Gamma+Gamma0) t/(2j)} sin(theta) cos(h t + phi)
    is exact at every finite j; the default theta = pi/2, phi = 0 maximizes
    <Jx(0)> = j.  Sizes up to cross_check_max_two_j are verified against
    direct propagation from that coherent state; a disagreement above 1e-8
    is a ValueError.
    """
    if params.p != 0:
        raise ValueError("btc experiment requires p = 0")
    ts = _check_times(times)
    out = {}
    for two_j in two_j_list:
        j = two_j / 2.0
        # a huge rate overflows the exponent to -inf (decay 0), or to NaN as inf*0 at t = 0 (decay 1)
        with np.errstate(over="ignore", invalid="ignore"):
            decay = np.exp(-(params.gamma + params.gamma0) * ts / (2 * j))
        decay[ts == 0] = 1.0
        vals = np.sin(theta) * decay * np.cos(params.h * ts + phi)
        if two_j <= cross_check_max_two_j:
            pj = ModelParams(two_j=two_j, h=params.h, gamma=params.gamma, gamma0=params.gamma0, p=0.0)
            states = propagate(pj, coherent_state(two_j, theta, phi), ts)
            num = np.array([expectation(s, "jx") / j for s in states])
            if not np.abs(num - vals).max() <= 1e-8:
                raise ValueError(
                    f"closed form and propagation disagree at two_j={two_j}: {np.abs(num - vals).max():.2e}"
                )
        out[two_j] = ObservableTrace(ts, vals, f"jx_over_j_two_j_{two_j}")
    return out

"""Time propagation of vectorized density matrices, observables, and the
slowing-down / critical-dynamics experiments.

The generator is a real tridiagonal R_M plus the constant complex shift
c_M = -gamma0 M^2/(2j) + i h M, so each sector is propagated in real
arithmetic and picks up the factor e^{c_M t} at the end.
A sector with symmetric bands (every sector at p = 0) is propagated in its
orthogonal eigenbasis, whose condition number is 1; t = 0 returns the initial
state exactly.  Every other sector avoids its eigenbasis, which is
exponentially ill-conditioned near coalescing pairs, and applies exponentials
of substeps A = R_M dt/k with ||A|| <= 4 in one of two regimes:

* short horizons: the [13/13] Pade approximant D(A)^-1 N(A), built in band
  storage (half-bandwidth 13) and applied to the state k times per interval
  with LAPACK dgbmv and dgbtrs, never forming a dense n x n matrix; only the
  nonzero real columns of the state are carried, so a real start (sector 0
  of a fock or hp-doublet run) takes one column, not two;
* long horizons: one dense expm per distinct output-interval length (lengths
  that differ only by float rounding count as one), squared up to the
  interval and applied with one product per output time.

The dense regime's propagators carry a tail of subnormal entries far from the
diagonal (2.1% of expm(R dt) at 2j = 320, p = 0.5, dt = 0.01), and products
that read them run slower (60 products P u: 5.4 ms, against 1.4 ms with those
entries zeroed); the banded regime never forms them, and its work is S
substeps of O(n) each, where S is the sector's substep count over the grid.
propagate picks by a measured cost rule on (n, S).  A Lindblad generator
preserves Hermiticity, so L_{-M} = conj(L_M): a sector -M whose initial vector
is exactly the conjugate of sector M's is not propagated but filled with the
conjugate of sector M's output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.linalg.blas import dgbmv
from scipy.linalg.lapack import dgbtrf, dgbtrs, dstevd

from .closed_forms import _lfacts, hp_states
from .liouvillian import build_sector
from .model import ModelParams, ladder_coeff

__all__ = [
    "VectorizedDensityMatrix",
    "PositivityError",
    "coherent_state",
    "fock_state",
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


def coherent_state(two_j: int, theta: float, phi: float) -> VectorizedDensityMatrix:
    """Pure spin coherent state; theta = pi/2, phi = 0 maximizes <Jx> = j.

    Amplitudes c_m = sqrt(C(2j, j+m)) cos(theta/2)^(j+m) sin(theta/2)^(j-m)
    e^{-i(j-m)phi} on the Jz basis.
    """
    N = two_j + 1
    k = np.arange(N)  # k = m + j
    lf = _lfacts(two_j)
    logc = 0.5 * (lf[two_j] - lf - lf[::-1])
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

# coefficients b_0..b_13 of the [13/13] Pade approximant of exp (Higham, SIAM
# J. Matrix Anal. Appl. 26, 2005): accurate to unit roundoff for ||A|| <= 5.37,
# which the substep bound _EXPM_STEP_NORM keeps
_PADE13 = np.array([64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
                    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
                    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0])

# half-bandwidth of a degree-13 polynomial in a tridiagonal matrix; scipy's
# dgbmv takes a band matrix only with at least 2 * _BAND + 1 rows
_BAND = 13

# the banded Pade path costs about _BAND_COST * S * n against about n^3 for
# the dense expm and its squarings (S: the sector's substeps over the grid);
# measured crossover, see propagate
_BAND_COST = 80


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

    Every sector generator is L_M = R_M + c_M with R_M its real bands and
    c_M = -gamma0 M^2/(2j) + i h M its shift, so exp(t L_M) v =
    e^{c_M t} exp(t R_M) v and the whole propagation runs in real arithmetic
    on the (n, 2) view of the complex sector vector; the factor e^{c_M t} is
    applied once per sector for all times.  Two ways to apply exp(t R_M):

    * R_M symmetric (upper band == lower band, which holds in every sector at
      p = 0 and in every 1-dimensional sector): R_M = Q diag(lam) Q^T with Q
      orthogonal from one direct LAPACK dstevd call (the routine scipy's
      eigh_tridiagonal picks), condition number 1, so all T states come from
      one batched product Q (e^{lam t} * Q^T u0).  Rows with t = 0 are u0
      exactly.  In sector 0 the largest eigenvalue, that of the steady
      state, is set to exactly 0, so the trace holds at any t.
    * otherwise the eigenbasis is ill-conditioned near coalescing pairs, and
      exp(dt R_M) over an output interval dt is k substeps exp(A), A = R_M dt/k
      with ||R_M|| dt/k <= _EXPM_STEP_NORM, ||R_M|| bounded by the largest
      |entry| of each band, summed.  Lengths that differ by at most
      _STEP_ULPS float spacings of t_max (the rounding scatter of np.linspace)
      count as one, so a uniform grid has one distinct length.  With n the
      sector dimension and S the sum of k over all intervals, the sector takes

      - the banded Pade path when n >= 27 and 80 S <= n^2: per distinct
        length, N(A) and the LU factors of D(A) of the [13/13] Pade
        approximant in band storage, then k applications of D^-1 N (one dgbmv
        per nonzero real column of u0, one dgbtrs on those columns) per
        interval.  A real start, such as sector 0 from fock_state or the
        slow-down run, takes one column; the imaginary column stays exactly
        0.  Its cost is about S substeps of O(n), with no dense matrix; dgbmv
        needs n >= 27.
      - the dense path otherwise: per distinct length, expm(R_M dt / 2^s)
        with 2^s >= k, squared s times, then one product per output time.
        Its cost is about n^3 per distinct length, and more where the
        propagator's far-off-diagonal entries are subnormal.  In sector 0,
        whose columns sum to 0, each square gets its columns divided by their
        sums, which keeps the trace at rates up to the double range.

      Measured crossover, sector 0 at p = 0.5 from a real start (one banded
      column), one BLAS thread, median ms (dense / banded; * marks the path
      the rule picks):

      grid            2j = 26       80            160           320           640
      lin:0:3:61      0.16* / 0.56  0.61* / 1.24  5.57 / 2.60*  83.5 / 6.79*  394 / 24.8*
      lin:0:30:61     0.33* / 2.04  1.43* / 8.77  9.47* / 23.8  118* / 75.9   640 / 173*
      lin:0:3000:121  0.33* / -     1.13* / -     8.52* / -     100* / -      1110* / -

      The banded path was not run on lin:0:3000:121, where S ~ 750 n.  The
      rule was set on two banded columns and is kept; with one column only
      the boundary cell 2j = 320 on lin:0:30:61 (80 S / n^2 = 1.91) would
      favour the banded path.

    Sector -M (M > 0) has the bands of sector M and the conjugate shift, so
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
        for name, rate in (("phase h*M*t", op.shift.imag), ("decay gamma0*M^2*t/(2j)", op.shift.real)):
            if not math.isfinite(rate * float(ts[-1])):
                raise ValueError(f"{name} overflows the double range (two_j={params.two_j}, M={M})")
        u0 = np.array(v0, dtype=complex).view(float).reshape(-1, 2)
        if np.array_equal(op.upper, op.lower):
            if op.dim == 1:
                lam, Q = op.diag, np.ones((1, 1))  # dstevd rejects an empty off-diagonal
            else:
                lam, Q, info = dstevd(op.diag, op.upper)
                if info:
                    raise np.linalg.LinAlgError(f"dstevd failed (info={info}) in sector M={M}")
                if M == 0:
                    # a symmetric R_0 with zero column sums has zero row sums: it is minus a graph
                    # Laplacian, whose largest eigenvalue is exactly 0 (the uniform null mode), but
                    # dstevd returns it as +-O(eps ||R||), and e^{lam t} then drifts the trace
                    # linearly in t (at 2j = 40, to an entropy of 3.40 for ln 41 by t = 1e15)
                    lam[-1] = 0.0
            U = Q @ (np.exp(np.multiply.outer(ts, lam))[:, :, None] * (Q.T @ u0))
            U[ts == 0] = u0
        else:
            # substeps per interval, so that ||R_M|| dt / k <= _EXPM_STEP_NORM; an interval whose
            # ||R_M|| dt underflows to 0 (ratio 0, no substep) is the identity on both paths
            with np.errstate(over="ignore"):
                norm = np.abs(op.diag).max() + (np.abs(op.upper).max() + np.abs(op.lower).max())
                ratio = float(norm) * steps / _EXPM_STEP_NORM
            if not np.isfinite(ratio).all():
                raise ValueError(f"substep count overflows the double range (two_j={params.two_j}, M={M})")
            substeps = np.ceil(ratio)
            if op.dim > 2 * _BAND and _BAND_COST * substeps.sum() <= op.dim ** 2:
                U = _pade_band_propagate(op, steps, substeps, u0)
            else:
                U = _dense_propagate(op, M == 0, steps, ratio, u0)
        V = U.view(complex)[..., 0]
        if M:
            V = V * np.exp(op.shift * ts)[:, None]
        blocks[M] = V
    for M in mirrored:
        blocks[M] = np.conj(blocks[-M])
    out = [VectorizedDensityMatrix(rho0.two_j) for _ in ts]
    for M in sectors:
        for state, v in zip(out, blocks[M]):
            state.sectors[M] = v
    return out


def _dense_propagate(op, stochastic: bool, steps: np.ndarray, ratio: np.ndarray, u0: np.ndarray) -> np.ndarray:
    """States after each interval, from one dense propagator per distinct interval length.

    The propagator is expm of R_M dt / 2^s, with 2^s >= ratio, squared s times.
    A stochastic generator (sector 0, whose columns sum to 0) has a propagator
    whose columns sum to 1; each squaring would double the rounding error of
    those sums, which at Gamma ~ 1e14 loses the trace, so every square gets
    its columns divided by their sums.
    """
    R = np.diag(op.diag) + np.diag(op.upper, -1) + np.diag(op.lower, 1)
    cache: dict[float, np.ndarray] = {}
    U = np.empty((len(steps), *u0.shape))
    u = u0
    for i, dt in enumerate(steps):
        if ratio[i] > 0:
            P = cache.get(dt)
            if P is None:
                s = max(0, math.ceil(math.log2(ratio[i])))
                P = expm(R * math.ldexp(dt, -s))
                for _ in range(s):
                    P = P @ P
                    if stochastic:
                        P /= P.sum(axis=0)
                cache[dt] = P
            u = np.matmul(P, u, out=U[i])
        else:
            U[i] = u
    return U


def _pade13_band(op, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Numerator N and denominator D of the [13/13] Pade approximant of exp(tau R_M).

    Both are degree-13 polynomials in the tridiagonal A = tau R_M, so both have
    half-bandwidth _BAND; they come in LAPACK band storage: row
    _BAND + i - j of column j holds entry [i, j].  A^k is built from A^(k-1)
    on the band alone, as (X A)[:, j] = X[:, j-1] A[j-1, j] + X[:, j] A[j, j]
    + X[:, j+1] A[j+1, j]; entries outside the matrix stay 0.
    """
    n = op.dim
    diag, lower, upper = tau * op.diag, tau * op.lower, tau * op.upper
    powers = np.zeros((len(_PADE13), 2 * _BAND + 1, n))
    powers[0, _BAND] = 1.0
    for prev, power in zip(powers, powers[1:]):
        np.multiply(prev, diag, out=power)
        power[:-1, 1:] += prev[1:, :-1] * lower
        power[1:, :-1] += prev[:-1, 1:] * upper
    # D(A) = N(-A): the odd-degree terms change sign
    signs = (-1.0) ** np.arange(len(_PADE13))
    return np.tensordot(_PADE13, powers, axes=1), np.tensordot(signs * _PADE13, powers, axes=1)


def _pade_band_propagate(op, steps: np.ndarray, substeps: np.ndarray, u0: np.ndarray) -> np.ndarray:
    """States after each interval, from k applications of the banded Pade substep D^-1 N.

    Per distinct interval length, N and the LU factors of D are built once in
    band storage; each substep is one dgbmv per nonzero real column of u0 and
    one dgbtrs on those columns.  A column that starts at 0 stays exactly 0, so
    a real start (sector 0 from fock_state or hp_states) costs one dgbmv and a
    one-column dgbtrs per substep.  No dense n x n matrix is formed.
    """
    n = op.dim
    cache: dict[float, tuple] = {}
    live = np.flatnonzero(u0.any(axis=0))
    U = np.zeros((len(steps), n, 2))
    u, v = np.asfortranarray(u0[:, live]), np.empty((n, len(live)), order="F")
    for i, dt in enumerate(steps):
        k = int(substeps[i])
        if k:
            factors = cache.get(dt)
            if factors is None:
                num, den = _pade13_band(op, dt / k)
                ab = np.zeros((3 * _BAND + 1, n), order="F")
                ab[_BAND:] = den
                lu, piv, info = dgbtrf(ab, _BAND, _BAND, overwrite_ab=1)
                if info:
                    raise np.linalg.LinAlgError(f"dgbtrf failed (info={info}) in sector M={op.sector.M}")
                factors = cache[dt] = np.asfortranarray(num), lu, piv
            num, lu, piv = factors
            for _ in range(k):
                for c in range(len(live)):
                    dgbmv(n, n, _BAND, _BAND, 1.0, num, u[:, c], y=v[:, c], overwrite_y=1)
                v, info = dgbtrs(lu, _BAND, _BAND, v, piv, overwrite_b=1)
                if info:
                    raise np.linalg.LinAlgError(f"dgbtrs failed (info={info}) in sector M={op.sector.M}")
                u, v = v, u
        U[i][:, live] = u
    return U


def _rows(rho) -> list[VectorizedDensityMatrix]:
    """A state as the one-row list, or a nonempty list of states of one size as it is."""
    states = [rho] if isinstance(rho, VectorizedDensityMatrix) else list(rho)
    if not states:
        raise ValueError("no states given")
    if len({s.two_j for s in states}) > 1:
        raise ValueError("states of different sizes")
    return states


def _shaped(values: np.ndarray, rho):
    """values as a float for a single state, as a float64 array for a list."""
    return float(values[0]) if isinstance(rho, VectorizedDensityMatrix) else np.array(values, dtype=float)


def expectation(rho, which: str):
    """<Jz>, <Jx> or <Jy> of a state (a float), or of each state of a list
    of one size, such as propagate returns (a float64 array).

    Jz reads sector 0 only.  Jx and Jy read sector +1 if the state holds it,
    else the conjugate of sector -1 (its Hermitian mirror), through the
    lowering coefficients.  The imaginary part of Jz must vanish for
    Hermitian input and is checked against a 1e-10 tolerance.  The sectors
    of a list are stacked and each row is summed along its own axis, so every
    entry carries the bits of the call on that state alone.
    """
    states = _rows(rho)
    j = states[0].j
    name = which.lower()
    if name == "jz":
        if any(0 not in s.sectors for s in states):
            raise ValueError("state has no M=0 sector")
        V = np.array([s.sectors[0] for s in states])
        val = np.sum((-j + np.arange(V.shape[1])) * V, axis=1)
        bad = np.flatnonzero(np.abs(val.imag) > 1e-10 * np.maximum(1.0, np.abs(val.real)))
        if bad.size:
            raise ValueError(f"expectation value not real: {complex(val[bad[0]])} (non-Hermitian state?)")
        return _shaped(val.real, rho)
    if name in ("jx", "jy"):
        if any(1 not in s.sectors and -1 not in s.sectors for s in states):
            raise ValueError("state has no M=+-1 sectors")
        V = np.array([s.sectors[1] if 1 in s.sectors else np.conj(s.sectors[-1]) for s in states])
        # Tr(rho J-) = sum_m rho(+1)_m C-(m), m from -j + 1
        jminus = np.sum(V * ladder_coeff(j, -j + 1 + np.arange(V.shape[1]), "lower"), axis=1)
        return _shaped(jminus.real if name == "jx" else -jminus.imag, rho)
    raise ValueError(f"unknown observable {which!r}")


def entropy(rho):
    """Von Neumann entropy -Tr[rho ln rho] of the reconstructed matrix, of a
    state (a float) or of each state of a list of one size (a float64 array).

    Eigenvalues in [-1e-8, 0) are clipped to zero (roundoff); anything below
    -1e-8 signals genuine positivity loss and raises.  A state that holds only
    the M = 0 sector is diagonal, and its eigenvalues are the populations.
    The rows of a list are summed in groups of equal count of positive
    eigenvalues, each row along its own axis, so every entry carries the bits
    of the call on that state alone.
    """
    states = _rows(rho)
    diagonal = np.array([s.sectors.keys() == {0} for s in states])
    W = np.empty((len(states), states[0].two_j + 1))
    if diagonal.any():
        W[diagonal] = np.array([s.sectors[0].real for s, d in zip(states, diagonal) if d])
    if not diagonal.all():
        dense = np.array([s.to_dense() for s, d in zip(states, diagonal) if not d])
        W[~diagonal] = np.linalg.eigvalsh(0.5 * (dense + dense.conj().transpose(0, 2, 1)))
    low = W.min(axis=1)
    bad = np.flatnonzero(low < -1e-8)
    if bad.size:
        raise PositivityError(f"negative eigenvalue {low[bad[0]]:.3e} in density matrix")
    W = np.clip(W, 0.0, None)
    keep = W > 0
    count = keep.sum(axis=1)
    S = np.empty(len(W))
    for k in np.unique(count):
        rows = count == k
        w = W[rows][keep[rows]].reshape(np.count_nonzero(rows), k)
        # + 0.0 turns the -0.0 of a pure state into 0.0
        S[rows] = -np.sum(w * np.log(w), axis=1) + 0.0
    return _shaped(S, rho)


def slowdown_experiment(params: ModelParams, a: float, b: float, times) -> tuple[np.ndarray, np.ndarray]:
    """Relaxation of delta-Jz from the steady state dressed with its slowest
    doublet, against the thermodynamic-limit two-mode prediction.

    The initial state is SS + a*eigvec + b*gen_eigvec (trace renormalized) and
    must pass the positivity check.  The theory curve propagates the rank-2
    pair: coefficients (a + kappa b t) e^{lambda1 t} and b e^{lambda1 t}, with
    kappa the Jordan scale of the normalized states.  Returns (numeric,
    theory): the two delta-Jz curves on times, normalized to 1 at t = 0.
    """
    if a == 0 and b == 0:
        raise ValueError("nothing to relax: a and b both zero")
    ts = _check_times(times)
    hp = hp_states(params)
    rho_vec = hp.steady_state + a * hp.eigvec + b * hp.gen_eigvec
    rho_vec = rho_vec / rho_vec.sum()
    if rho_vec.min() < -1e-10:
        raise ValueError(f"initial state not positive (min diagonal {rho_vec.min():.3e}); reduce |a|, |b|")
    rho0 = VectorizedDensityMatrix(params.two_j, {0: rho_vec.astype(complex)})
    ms = -params.j + np.arange(params.two_j + 1)
    # jz_inf is thermal_ss's magnetization: hp.steady_state is its state
    jz_inf, jz_e, jz_g = (float(np.sum(ms * vec)) for vec in (hp.steady_state, hp.eigvec, hp.gen_eigvec))
    jz0 = expectation(rho0, "jz")
    num = (expectation(propagate(params, rho0, ts), "jz") - jz_inf) / (jz0 - jz_inf)
    theo = np.exp(hp.lambda1.real * ts) * ((a + hp.jordan_scale * b * ts) * jz_e + b * jz_g) / (a * jz_e + b * jz_g)
    return num, theo


def btc_experiment(params: ModelParams, two_j_list, times, cross_check_max_two_j: int = 0,
                   theta: float = np.pi / 2, phi: float = 0.0) -> list[np.ndarray]:
    """Undamped-oscillation curves <Jx(t)>/j at p = 0 from the coherent start (theta, phi).

    The law <Jx(t)>/j = e^{-(Gamma+Gamma0) t/(2j)} sin(theta) cos(h t + phi)
    is exact at every finite j; the default theta = pi/2, phi = 0 maximizes
    <Jx(0)> = j.  Returns one curve on times per entry of two_j_list, in its
    order, repeated sizes included.  Sizes up to cross_check_max_two_j are
    verified against direct propagation from that coherent state; a
    disagreement above 1e-8 is a ValueError.
    """
    if params.p != 0:
        raise ValueError("coherent-state oscillation run requires p = 0")
    ts = _check_times(times)
    if not math.isfinite(params.h * float(ts[-1]) + phi):
        raise ValueError(f"phase h*t overflows the double range (h={params.h!r}, t={float(ts[-1])!r})")
    out = []
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
            num = expectation(states, "jx") / j
            if not np.abs(num - vals).max() <= 1e-8:
                raise ValueError(
                    f"closed form and propagation disagree at two_j={two_j}: {np.abs(num - vals).max():.2e}"
                )
        out.append(vals)
    return out

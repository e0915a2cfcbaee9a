"""Non-Hermitian sector diagonalization and the exceptional-point scan pipeline.

Every sector operator holds real bands plus the scalar shift h*M, meaning
i*shift on its diagonal, and for |p| < 1 both off-diagonal bands are strictly
positive.  Such bands are diagonally similar to a real symmetric tridiagonal
matrix, so the spectrum is {real value + i*shift} exactly and is obtained,
fully converged, from the symmetric eigenproblem of the bands as they are:
one direct LAPACK dstevd call per sector.  Every eigenvalue carries the same
i*shift, so L - lambda is the real bands minus Re(lambda), and each
eigenvector is one real LAPACK tridiagonal solve (dgtsv, one call per block
of eigenvalues), i.e. a single inverse-iteration step from a fixed start
vector, built once per dimension and cached read-only.  The residuals
||(L - lambda) v|| are computed on the real bands as well.  Near a coalesced
pair both shifts land on the common direction, which is precisely the physics
the eigenvector distance d_N is meant to capture.

Each coalescence decision lives once, here: pair_distances is the one d_N
formula (eigenvector_distance reads one entry of it), doublet_members the one
rule "doublet (2n-1, 2n) is closed iff d_{2n-1} < bound" (ep_scan and the
spectrum command's doublet register), and floor_cut the one cut of d values
below DISTANCE_FLOOR (decay fits and plots).  diagonalize with a bound feeds
the same two functions to stop solving at the first open doublet.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgtsv, dstevd

from .liouvillian import SectorOperator, build_sector

__all__ = [
    "SpectralDecomposition",
    "EPScanResult",
    "FitResult",
    "DensityOfStates",
    "EigensolverError",
    "diagonalize",
    "eigenvalues_only",
    "eigenvector_distance",
    "pair_distances",
    "doublet_members",
    "check_bound",
    "ep_scan",
    "fit_power_law",
    "fit_exponential",
    "density_of_states",
    "kernel_dimension",
    "doublet_distance_decay",
    "floor_cut",
    "DISTANCE_FLOOR",
]

# below this the double-precision floor dominates eigenvector distances
DISTANCE_FLOOR = 1e-12

_INV_ITER_SEED = 12345

# start vectors kept, one per sector dimension (a 2j sweep uses 2j + 1 of them)
_START_CACHE = 256

# a bounded diagonalize solves this many columns first; each later block doubles the total
_FIRST_BLOCK = 64

# size cap (columns x dim) of one batched dgtsv system, so memory stays flat for any sector
_SOLVE_ELEMENTS = 2**16


class EigensolverError(RuntimeError):
    """Eigensolver failure, annotated with the sector it occurred in."""

    def __init__(self, message: str, two_j: int, M: int):
        super().__init__(f"{message} (two_j={two_j}, M={M})")
        self.two_j = two_j
        self.M = M


def _sector_error(message: str, sec) -> EigensolverError:
    return EigensolverError(message, two_j=sec.dim - 1 + abs(sec.M), M=sec.M)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ordered spectrum of one sector with unit-norm right eigenvectors.

    eigenvalues are sorted by descending real part (all share the imaginary
    part h*M); right_eigenvectors[:, N] is real (float64), belongs to
    eigenvalues[N] and has its largest component positive.  residual_norms[N]
    is ||L v_N - lambda_N v_N||, recomputed from the operator's bands.
    eigenvalues always hold all dim values; built with a bound (see
    diagonalize), right_eigenvectors and residual_norms may hold only the
    leading columns, fewer than dim.  distances holds their d_N (see
    pair_distances), computed once from right_eigenvectors and read-only.
    """

    sector: "object"
    eigenvalues: np.ndarray
    right_eigenvectors: np.ndarray
    residual_norms: np.ndarray
    operator_scale: float
    distances: np.ndarray = field(init=False)

    def __post_init__(self):
        d = _distances(self.right_eigenvectors)
        d.flags.writeable = False
        object.__setattr__(self, "distances", d)

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def near_defective_pairs(self, condition_bound: float = 1e8) -> list[int]:
        """Indices N whose pair (N, N+1) has overlap condition above the bound.

        Needs every eigenvector: a decomposition built with a bound raises ValueError.
        """
        if self.right_eigenvectors.shape[1] < self.dim:
            raise ValueError(f"near_defective_pairs needs all {self.dim} eigenvectors, "
                             f"got {self.right_eigenvectors.shape[1]}")
        d = pair_distances(self)
        return [int(N) for N in range(len(d)) if 1.0 / max(d[N], 1e-300) > condition_bound]


@dataclass(frozen=True)
class EPScanResult:
    """Outcome of the coalescence walk at one bound gamma."""

    gamma_bound: float
    precursor: complex | None
    precursor_index: int | None
    paired_indices: list[tuple[int, int]] = field(default_factory=list)


@dataclass(frozen=True)
class FitResult:
    exponent: float
    prefactor: float
    r_squared: float
    n_points: int


@dataclass(frozen=True)
class DensityOfStates:
    bin_edges: np.ndarray
    density: np.ndarray
    peak_location: float
    n_eigenvalues: int


def eigenvalues_only(op: SectorOperator) -> np.ndarray:
    """Sector spectrum (descending real part) without eigenvectors.

    Uses the similarity to a real symmetric tridiagonal for |p| < 1, whose
    eigenvalues come from one direct LAPACK dstevd call without eigenvectors
    (the routine scipy's eigvalsh_tridiagonal picks, minus its argument
    checks); at the triangular limits the spectrum is the diagonal itself.
    Non-finite bands, and bands that are neither same-signed nor one-sided
    (neither is built by build_sector), raise EigensolverError.
    """
    prod = op.upper * op.lower
    if not (np.isfinite(op.diag).all() and np.isfinite(prod).all()):
        raise _sector_error("non-finite bands", op.sector)
    if op.dim == 1:
        w = op.diag  # dstevd rejects an empty off-diagonal
    elif np.all(prod > 0):
        w, _, info = dstevd(op.diag, np.sqrt(prod), compute_v=0)
        if info:
            raise _sector_error(f"dstevd failed (info={info})", op.sector)
        w = w[::-1]
    elif np.all(op.upper == 0) or np.all(op.lower == 0):
        w = np.sort(op.diag)[::-1]
    else:
        # mixed-sign couplings: the symmetrization above does not apply
        raise _sector_error("off-diagonal bands of mixed sign", op.sector)
    return w + 1j * op.shift


@lru_cache(maxsize=_START_CACHE)
def _start_vector(n: int) -> np.ndarray:
    """The fixed start of inverse iteration in dimension n: seeded normals, max-normalised, times 2^-1000.

    Every caller gets the same array, so it is read-only; each miss draws from
    its own Generator, so threads share no generator state.
    """
    v0 = np.random.default_rng(_INV_ITER_SEED).standard_normal(n)
    b = v0 / np.abs(v0).max() * 2.0**-1000
    b.flags.writeable = False
    return b


def _inverse_iteration(op: SectorOperator, lams: np.ndarray, scale: float) -> np.ndarray:
    """Real unit right eigenvectors, one LAPACK tridiagonal solve per block of eigenvalues.

    Every eigenvalue carries the operator's i*shift, so L - lam is the real
    bands minus Re(lam), and the eigenvectors are real.
    Each column solves the bands divided by scale (op.scale()), shifted by its
    lam, from one fixed start vector scaled by 2^-1000 (_start_vector).  That
    start keeps the resolvent of this highly non-normal family inside the
    double range, and the division makes this window independent of gamma.  Up to
    _SOLVE_ELEMENTS // dim columns go to one dgtsv call as the block-diagonal
    system of their shifted copies: the couplings between copies are 0, so
    elimination never crosses a copy and each column is bitwise its own solve.
    An exactly singular shift (info > 0 in column (info - 1) // dim) is solved
    once more, alone, with its diagonal nudged by 1e-13 (relative to the
    scale), and the columns after it start a smaller block, so dgtsv sees at
    most 4 * dim * len(lams) rows even where every shift is singular
    (p = +-1); a second singular pivot in that column, or a column that
    overflows or vanishes, raises EigensolverError.  Its count covers only the
    eigenvalues lams passed in, and an overflow at the end of one copy turns
    the next copy into NaN (0 * inf), so it can exceed the columns that
    overflow on their own.  A bounded diagonalize passes one block at a time,
    so at 2j = 1280, M = 0 it reports 103 columns at p = 0.9 and 154 at
    p = 0.99, where a full one reports 380 and 864.
    """
    n = op.dim
    b = _start_vector(n)
    diag, lam = op.diag / scale, lams.real / scale
    k = max(1, min(len(lams), _SOLVE_ELEMENTS // n))
    # k copies of each off-diagonal band, each closed by a zero coupling to the next copy;
    # dgtsv takes the sub-, main and superdiagonal, and op.upper lies below the diagonal
    sub, sup = (np.tile(np.append(band / scale, 0.0), k)[:-1] for band in (op.upper, op.lower))
    rhs = np.tile(b, k)[:, None]

    def solve(d):
        return dgtsv(sub[: d.size - 1], d, sup[: d.size - 1], rhs[: d.size])[3:]

    V = np.empty((n, len(lams)))
    start, m = 0, k
    while start < len(lam):
        m = min(m, len(lam) - start)
        d = (diag - lam[start : start + m, None]).ravel()
        x, info = solve(d)
        if info == 0:
            V[:, start : start + m] = x[:, 0].reshape(m, n).T
            start, m = start + m, min(2 * m, k)
            continue
        # exactly singular shift in column c: the columns before it passed elimination, so they are
        # solved again as one block (same bits), then column c alone, nudged off its eigenvalue
        c = (info - 1) // n
        if c:
            x, _ = solve(d[: c * n])
            V[:, start : start + c] = x[:, 0].reshape(c, n).T
        x, info = solve(d[c * n : (c + 1) * n] + 1e-13)
        if info > 0:
            raise _sector_error(f"singular shift at eigenvalue {start + c}", op.sector)
        V[:, start + c] = x[:, 0]
        # the next block holds at most twice the columns just solved, and doubles after each
        # clean solve: a failed call never copies more than twice the columns of the step before
        start, m = start + c + 1, min(2 * (c + 1), k)
    hi, lo = V.max(axis=0), -V.min(axis=0)
    mx = np.maximum(hi, lo)
    bad = ~np.isfinite(mx) | (mx == 0.0)
    if bad.any():
        raise _sector_error(f"{int(bad.sum())} eigenvector solves overflowed or vanished", op.sector)
    # largest component of each column becomes +1, then unit 2-norm
    V *= np.where(hi >= lo, 1.0, -1.0) / mx
    V /= np.sqrt(np.einsum("ij,ij->j", V, V))
    return V


def check_bound(bound: float) -> None:
    """The one domain of a coalescence bound: ValueError unless 0 < bound < 1 (so also for NaN)."""
    if not 0 < bound < 1:
        raise ValueError(f"coalescence bound must lie in (0, 1), got {bound}")


def _eigenvectors_to_precursor(op: SectorOperator, w: np.ndarray, bound: float, scale: float) -> np.ndarray:
    """Leading columns of _inverse_iteration(op, w, scale), down to the precursor at bound.

    Blocks of columns are solved and appended (the first _FIRST_BLOCK, then
    doubling the total) until the first open doublet at bound and the
    precursor after it are in, or every column is.  No solve couples two
    columns, so each column is bitwise the column of the full solve.
    """
    n = op.dim
    V = np.empty((n, 0))
    while V.shape[1] < n:
        k = V.shape[1]
        stop = min(max(_FIRST_BLOCK, 2 * k), n)
        if stop == n - 1:
            stop = n  # a one-column block is normalised by another summation order: take it along
        V = np.hstack([V, _inverse_iteration(op, w[k:stop], scale)])
        if _first_open_doublet(_distances(V), bound) + 1 < stop:
            break
    return V


def diagonalize(op: SectorOperator, bound: float | None = None) -> SpectralDecomposition:
    """Spectral decomposition of a sector operator, with real eigenvectors.

    Every eigenvalue comes from eigenvalues_only, every eigenvector from
    inverse iteration (see module docstring).  With a bound in (0, 1), every
    eigenvalue is still computed, but eigenvectors and residuals only for the
    leading columns that reach the precursor of ep_scan at that bound, which
    is also enough for ep_scan at any smaller bound.
    """
    if op.dim < 1:
        raise ValueError("empty sector operator")
    if bound is not None:
        check_bound(bound)
    w = eigenvalues_only(op)
    scale = op.scale()
    if op.dim == 1:
        V = np.ones((1, 1))
    elif bound is None:
        V = _inverse_iteration(op, w, scale)
    else:
        V = _eigenvectors_to_precursor(op, w, bound, scale)
    return SpectralDecomposition(
        sector=op.sector,
        eigenvalues=w,
        right_eigenvectors=V,
        residual_norms=_residual_norms(op, V, w.real[: V.shape[1]]),
        operator_scale=scale,
    )


def _residual_norms(op: SectorOperator, V: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """||L v - lambda v|| per column of V, in real arithmetic.

    Each eigenvalue is lam + i*shift exactly, so the i*shift of L cancels and
    the residual is (real bands - lam) v, with no complex temporaries.
    """
    R = op.diag[:, None] * V
    R[1:] += op.upper[:, None] * V[:-1]
    R[:-1] += op.lower[:, None] * V[1:]
    R -= V * lam
    return np.linalg.norm(R, axis=0)


def eigenvector_distance(dec: SpectralDecomposition, N: int) -> float:
    """d_N, entry N of pair_distances (the one formula); IndexError outside its range."""
    n = dec.right_eigenvectors.shape[1]
    if not 0 <= N < n - 1:
        raise IndexError(f"pair index N={N} out of range for {n} eigenvectors of dim={dec.dim}")
    return float(pair_distances(dec)[N])


def _distances(V: np.ndarray) -> np.ndarray:
    ov = np.abs(np.sum(V[:, 1:] * V[:, :-1], axis=0))
    return np.clip(1.0 - ov, 0.0, 1.0)


def pair_distances(dec: SpectralDecomposition) -> np.ndarray:
    """Consecutive distances d_N = 1 - |<N+1|N>| over the computed eigenvectors; 0 means coalesced.

    N runs over 0 .. dim-2, or over the leading columns of a decomposition
    built with a bound.  It is the decomposition's read-only distances array.
    """
    return dec.distances


def doublet_members(d: np.ndarray, bound: float) -> np.ndarray:
    """Per eigenvalue: does it lie in a closed doublet (2n-1, 2n), i.e. d[2n-1] < bound?

    This is the one coalescence rule; bound must lie in (0, 1).
    """
    check_bound(bound)
    closed = d[1::2] < bound
    member = np.zeros(len(d) + 1, dtype=bool)
    member[1 : 1 + 2 * len(closed)] = np.repeat(closed, 2)
    return member


def _first_open_doublet(d: np.ndarray, bound: float) -> int:
    """N of the first eigenvalue outside the closed doublets, len(d) + 1 if there is none.

    It opens a doublet (N, N+1) unless it is the last eigenvalue of d's columns.
    """
    member = doublet_members(d, bound)[1:]
    return len(d) + 1 if member.all() else int(np.argmin(member)) + 1


def ep_scan(dec: SpectralDecomposition, gamma_bound: float) -> EPScanResult:
    """Walk the doublets (2n-1, 2n) down the spectrum against a bound gamma.

    Doublets closed under doublet_members count as coalesced; the precursor
    is the eigenvalue lambda_{N+1} of the first open doublet (N, N+1).  When
    every doublet is closed the precursor is None.  A decomposition built
    with a bound whose eigenvectors end before that doublet raises ValueError.
    """
    n = dec.right_eigenvectors.shape[1]
    N = _first_open_doublet(pair_distances(dec), gamma_bound)
    prec = N + 1 if N + 1 < n else None
    if prec is None and n < dec.dim:
        raise ValueError(f"the {n} of {dec.dim} eigenvectors end before the first open doublet "
                         f"at bound {gamma_bound}")
    return EPScanResult(
        gamma_bound=gamma_bound,
        precursor=None if prec is None else complex(dec.eigenvalues[prec]),
        precursor_index=prec,
        paired_indices=[(n, n + 1) for n in range(1, N, 2)],
    )


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    sst = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 if sst == 0 else 1.0 - np.sum(resid**2) / sst
    return float(slope), float(intercept), float(r2)


def fit_power_law(xs, ys) -> FitResult:
    """Least-squares line in log-log coordinates: ys ~ prefactor * xs^exponent."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 3:
        raise ValueError(f"need at least 3 points, got {len(xs)}")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("power-law fit requires strictly positive data")
    slope, intercept, r2 = _linear_fit(np.log(xs), np.log(ys))
    return FitResult(exponent=slope, prefactor=float(np.exp(intercept)), r_squared=r2, n_points=len(xs))


def fit_exponential(xs, ys) -> FitResult:
    """Least-squares line of ln(ys) against xs: ys ~ prefactor * exp(rate*xs)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 3:
        raise ValueError(f"need at least 3 points, got {len(xs)}")
    if np.any(ys <= 0):
        raise ValueError("exponential fit requires strictly positive ys")
    rate, intercept, r2 = _linear_fit(xs, np.log(ys))
    return FitResult(exponent=rate, prefactor=float(np.exp(intercept)), r_squared=r2, n_points=len(xs))


def density_of_states(decs, two_j: int, bins: int | None = None) -> DensityOfStates:
    """Normalized histogram of Re(lambda)/j pooled over the given decompositions.

    The peak bin center is the finite-size estimate of the critical line.
    Default bin count is ceil(sqrt(#eigenvalues)); an explicit bins must be
    at least 10.
    """
    if isinstance(decs, SpectralDecomposition):
        decs = [decs]
    vals = [np.asarray(d.eigenvalues).real for d in decs]
    if not vals or sum(len(v) for v in vals) == 0:
        raise ValueError("no eigenvalues given")
    x = np.concatenate(vals) / (two_j / 2.0)
    if bins is None:
        bins = max(1, math.ceil(math.sqrt(len(x))))
    elif bins < 10:
        raise ValueError(f"bins must be >= 10 when given explicitly, got {bins}")
    counts, edges = np.histogram(x, bins=bins)
    widths = np.diff(edges)
    total = counts.sum()
    density = counts / (total * widths) if total > 0 else counts.astype(float)
    k = int(np.argmax(counts))
    peak = 0.5 * (edges[k] + edges[k + 1])
    return DensityOfStates(bin_edges=edges, density=density, peak_location=float(peak), n_eigenvalues=len(x))


def kernel_dimension(op: SectorOperator, lam: complex, rel_tol: float = 1e-8) -> int:
    """Numerical nullity of (L - lam I) via singular values below rel_tol*||L||."""
    A = op.to_dense() - lam * np.eye(op.dim)
    sv = np.linalg.svd(A, compute_uv=False)
    tol = rel_tol * max(op.scale(), 1e-300)
    return int(np.sum(sv < tol))


def floor_cut(points, floor: float = DISTANCE_FLOOR) -> tuple[np.ndarray, np.ndarray]:
    """xs and ds of the (x, d) points before the first d below the floor.

    Below the floor d is rounding noise.  points may be lazy: nothing past
    the first point below the floor is drawn from it.
    """
    kept = list(itertools.takewhile(lambda xd: xd[1] >= floor, points))
    return np.array([x for x, _ in kept], dtype=float), np.array([d for _, d in kept], dtype=float)


def doublet_distance_decay(
    params_for: "callable",
    two_j_values,
    pair_index: int = 1,
    floor: float = DISTANCE_FLOOR,
    M: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """d_{pair_index}(j) over a list of sizes, cut at the floor by floor_cut.

    params_for maps two_j -> ModelParams; returns the sizes j actually used
    and their distances.  Sizes too small to hold the pair are skipped.
    """

    def points():
        for two_j in two_j_values:
            dec = diagonalize(build_sector(params_for(two_j), M))
            if dec.dim > pair_index + 1:
                yield two_j / 2.0, eigenvector_distance(dec, pair_index)

    return floor_cut(points(), floor)

"""Non-Hermitian sector diagonalization and the exceptional-point scan pipeline.

Every sector operator holds real bands plus one complex constant shift on its
diagonal, and for |p| < 1 both off-diagonal bands are strictly positive.  Such
bands are diagonally similar to a real symmetric tridiagonal matrix, so the
spectrum is {band eigenvalue + shift} exactly, the band eigenvalues fully
converged from one LAPACK dstevd call per sector.  It goes through ctypes,
which releases the interpreter lock (scipy's wrapper of the same routine
holds it), so diagonalize_each runs the eigenvalue solves of its sectors in
order on one helper thread while the calling thread computes eigenvectors.
The shift cancels from L - lambda, the real bands minus the band eigenvalue,
so each eigenvector is one real LAPACK tridiagonal solve (dgtsv, one call per
block of eigenvalues): a single inverse-iteration step from a fixed start
vector, cached read-only per dimension.  _inverse_iteration is the one loop
over these blocks: each is normalised and appends the d_N of its new pairs,
and with a bound the loop stops at the precursor.  The coupling, the solves
and the residuals ||(L - lambda) v|| read the bands and the band eigenvalues
(never lambda minus a shift that may dwarf them) divided by one power of two
per sector (_band_scale, also its operator_scale): no bit changes where the
unscaled arithmetic stays in the double range, it stays there at any rate,
and eigenvectors and d_N depend on neither gamma0 nor h.
Near a coalesced pair both solves land on the common direction, which is
precisely the physics the eigenvector distance d_N is meant to capture.

Each coalescence decision lives once, here: pair_distances is the one d_N
formula (eigenvector_distance reads one entry of it), doublet_members the one
rule "doublet (2n-1, 2n) is closed iff d_{2n-1} < bound" (ep_scan and the
spectrum command's doublet register), and floor_cut the one cut of d values
below DISTANCE_FLOOR (decay fits and plots).  diagonalize with a bound feeds
the same two functions to stop solving at the first open doublet.

Sector -M has the real bands of sector M and the conjugate shift, so its
decomposition is fully determined by sector M's: the same band eigenvalues,
eigenvectors, residuals and d_N, with the eigenvalues formed from its own
shift.  diagonalize takes a solved partner (_partner) and then runs no
dstevd, no dgtsv walk and no residual pass; it checks the bands, M and the
shift first, so what it hands on is exactly what a fresh solve would compute.
The arrays two such decompositions share are read-only.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.linalg import cython_lapack
from scipy.linalg.lapack import dgtsv

from .liouvillian import SectorOperator

__all__ = [
    "SpectralDecomposition",
    "EPScanResult",
    "FitResult",
    "DensityOfStates",
    "EigensolverError",
    "diagonalize",
    "diagonalize_each",
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
    "floor_cut",
    "DISTANCE_FLOOR",
]

# below this the double-precision floor dominates eigenvector distances
DISTANCE_FLOOR = 1e-12

_INV_ITER_SEED = 12345

# start vectors kept, one per sector dimension (a 2j sweep uses 2j + 1 of them)
_START_CACHE = 256

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

    eigenvalues (band eigenvalues plus the shift) are sorted by descending
    real part; right_eigenvectors[:, N] is real (float64), belongs to
    eigenvalues[N] and has its largest component positive.  residual_norms[N]
    is ||L v_N - lambda_N v_N||, recomputed from the bands, against the band
    scale operator_scale.
    eigenvalues always hold all dim values; built with a bound (see
    diagonalize), right_eigenvectors and residual_norms may hold only the
    leading columns, fewer than dim.  distances holds their d_N (see
    pair_distances), which diagonalize computes while it solves.
    band_eigenvalues are the eigenvalues without the shift (None where the
    decomposition was not made by diagonalize).  diagonalize marks every
    array but eigenvalues read-only, since a mirrored sector shares them.
    """

    sector: "object"
    eigenvalues: np.ndarray
    right_eigenvectors: np.ndarray
    residual_norms: np.ndarray
    operator_scale: float
    distances: np.ndarray
    band_eigenvalues: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class EPScanResult:
    """Outcome of the coalescence walk at one bound: the precursor eigenvalue and its index, or None for both."""

    precursor: complex | None
    precursor_index: int | None


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


def _capsule_address(capsule) -> int:
    """Address of the C function a PyCapsule holds (scipy's cython_lapack exports one per routine)."""
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return address(capsule, name(capsule))


# LAPACK dstevd(jobz, n, d, e, z, ldz, work, lwork, iwork, liwork, info), every argument a pointer;
# a CFUNCTYPE call releases the interpreter lock while the routine runs
_DSTEVD = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 11)(_capsule_address(cython_lapack.__pyx_capi__["dstevd"]))
_JOBZ_N = ctypes.c_char(b"N")
_JOBZ_N_ADDRESS = ctypes.addressof(_JOBZ_N)
_F8, _I4 = 8, 4


def _dstevd_values(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, int]:
    """Ascending eigenvalues of the symmetric tridiagonal (d, e), n >= 2, and LAPACK's info.

    The routine scipy.linalg.lapack.dstevd(d, e, compute_v=0) calls, bitwise
    the same values, but called without the interpreter lock, so another
    thread runs Python code meanwhile.  Neither input is written.
    """
    n = d.size
    if d.ndim != 1 or e.shape != (n - 1,):
        raise ValueError(f"dstevd takes n diagonal and n - 1 off-diagonal entries, got {d.shape} and {e.shape}")
    # d, then e, then one double each for the unreferenced z and for work
    buf = np.empty(2 * n + 1)
    buf[:n] = d
    buf[n : 2 * n - 1] = e
    # n, ldz, lwork, liwork, iwork, info
    ints = np.array([n, 1, 1, 1, 0, 0], dtype=np.int32)
    a, i = buf.ctypes.data, ints.ctypes.data
    _DSTEVD(_JOBZ_N_ADDRESS, i, a, a + _F8 * n, a + _F8 * (2 * n - 1), i + _I4,
            a + _F8 * (2 * n), i + 2 * _I4, i + 4 * _I4, i + 3 * _I4, i + 5 * _I4)
    return buf[:n], int(ints[5])


_TINY = np.finfo(float).tiny


def _band_scale(op: SectorOperator) -> float:
    """The least power of two at or above every |entry| of the real bands (2^1023 above that).

    The shift is left out: it cancels from every real solve.  A normal double
    divided by a power of two keeps its bits, so the coupling, the solves and
    the residuals on the bands divided by it are bitwise the unscaled
    arithmetic wherever that stays in the double range.
    """
    top = max(np.abs(op.diag).max(), np.abs(op.upper).max(initial=0.0), np.abs(op.lower).max(initial=0.0))
    m, e = math.frexp(top)
    return math.ldexp(1.0, min(e - 1 if m == 0.5 else e, 1023))


def _symmetric_coupling(op: SectorOperator) -> np.ndarray:
    """Off-diagonal of the real symmetric form of same-signed bands: s * sqrt((upper / s) * (lower / s)).

    With s = _band_scale(op) this is bitwise sqrt(upper * lower) wherever
    that square is a normal double.  Opposite signs raise a mixed-sign
    EigensolverError; an entry of 0 or a subnormal one, or a scaled square
    below the normal range (a coupling below about 1e-154 of the largest
    band entry), raise an underflow.
    """
    u, lo, s = op.upper, op.lower, _band_scale(op)
    square = (u / s) * (lo / s)
    if square.min() >= _TINY and min(np.abs(u).min(), np.abs(lo).min()) >= _TINY:
        return s * np.sqrt(square)
    if np.any(np.sign(u) * np.sign(lo) < 0):
        # mixed-sign couplings: the symmetrization does not apply
        raise _sector_error("off-diagonal bands of mixed sign", op.sector)
    raise _sector_error("sector operator underflows the double range", op.sector)


def _band_eigenvalues(op: SectorOperator) -> np.ndarray:
    """Eigenvalues of the real bands, descending: the sector spectrum without its shift.

    Uses the similarity to a real symmetric tridiagonal for |p| < 1, whose
    eigenvalues come from LAPACK dstevd without eigenvectors (the routine
    scipy's eigvalsh_tridiagonal picks), called directly and without the
    interpreter lock (_dstevd_values); at the triangular limits, and in a
    1-dimensional sector, the spectrum is the diagonal itself.  Non-finite
    bands, a coupling that underflows (see _symmetric_coupling) and bands
    that are neither same-signed nor one-sided (build_sector builds none of
    these but the subnormal entries) raise EigensolverError.
    """
    if not (np.isfinite(op.diag).all() and np.isfinite(op.upper).all() and np.isfinite(op.lower).all()):
        raise _sector_error("non-finite bands", op.sector)
    if not (op.upper.any() and op.lower.any()):
        return np.sort(op.diag)[::-1]
    w, info = _dstevd_values(op.diag, _symmetric_coupling(op))
    if info:
        raise _sector_error(f"dstevd failed (info={info})", op.sector)
    return w[::-1]


def eigenvalues_only(op: SectorOperator) -> np.ndarray:
    """Sector spectrum (descending real part) without eigenvectors: the band eigenvalues plus the shift."""
    return _band_eigenvalues(op) + op.shift


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


def _inverse_iteration(op: SectorOperator, lams: np.ndarray, scale: float,
                       bound: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Real unit right eigenvectors and their d_N, one LAPACK tridiagonal solve per block of eigenvalues.

    lams are band eigenvalues: the shift cancels, L - lambda is the real bands
    minus lam, and the eigenvectors are real.
    Each column solves the bands divided by scale (_band_scale(op)), shifted
    by its lam, from one fixed start vector scaled by 2^-1000 (_start_vector).
    That start keeps the resolvent of this highly non-normal family inside
    the double range, and the division makes this window independent of the
    rates; neither depends on the shift, so neither do the eigenvectors.  Up to
    _SOLVE_ELEMENTS // dim columns go to one dgtsv call as the block-diagonal
    system of their shifted copies: the couplings between copies are 0, so
    elimination never crosses a copy and each column is bitwise its own solve.
    An exactly singular shift (info > 0 in column (info - 1) // dim) is solved
    once more, alone, with its diagonal nudged by 1e-13 (relative to the
    scale), and the rest of its block is solved on from the next column, in
    calls of at most twice the columns just solved, so dgtsv sees at most
    4 * dim * len(lams) rows even where every shift is singular (p = +-1); a
    second singular pivot in that column raises EigensolverError.
    Each block of _SOLVE_ELEMENTS // dim columns (however many restarts it
    had) is normalised in its own storage and appends the d_N of its
    new pairs, so no column or distance is computed twice, and the blocks are
    joined once, at the end.
    A block with a column that overflows or vanishes is solved again one
    column at a time, because an overflow in one copy turns its neighbours
    in the block into NaN (0 * inf across the zero coupling), and the first
    column that fails on its own is raised as EigensolverError: at 2j = 1280,
    M = 0 that is eigenvalue 431 at p = 0.9 and 400 at p = 0.99, whatever the
    block size or bound.  With a bound in (0, 1) the solve stops after the
    block that holds the first open doublet at that bound and its precursor
    (see ep_scan); the leading columns returned are bitwise those of the full
    solve.
    """
    n, N = op.dim, len(lams)
    b = _start_vector(n)
    diag, lam = op.diag / scale, lams / scale
    k = max(1, min(N, _SOLVE_ELEMENTS // n))
    # k copies of each off-diagonal band, each closed by a zero coupling to the next copy;
    # dgtsv takes the sub-, main and superdiagonal, and op.upper lies below the diagonal
    sub, sup = (np.tile(np.append(band / scale, 0.0), k) for band in (op.upper, op.lower))
    rhs = np.tile(b, k)[:, None]

    def solve(d):
        # scipy's dgtsv wants an off-diagonal entry even for one row: there it passes the closing 0
        e = max(d.size - 1, 1)
        return dgtsv(sub[:e], d, sup[:e], rhs[: d.size])[3:]

    def nudged(c, d):
        x, info = solve(d + 1e-13)
        if info > 0:
            raise _sector_error(f"singular shift at eigenvalue {c}", op.sector)
        return x[:, 0]

    def fails_alone(c):
        x, info = solve(diag - lam[c])
        x = nudged(c, diag - lam[c]) if info > 0 else x[:, 0]
        return not (np.isfinite(x).all() and x.any())

    blocks, d = [], np.empty(0)
    for start in range(0, N, k):
        m = min(k, N - start)
        stop = start + m
        # a block is stored after the last column of the block before, for the pair across them, in
        # at least two columns: numpy sums a contiguous (n, 1) array in another order than a view
        prev = 1 if blocks else 0
        storage = np.empty((n, max(prev + m, 2)))
        if prev:
            storage[:, 0] = blocks[-1][:, -1]
        block = storage[:, prev : prev + m]
        shifted = (diag - lam[start:stop, None]).ravel()
        c, step = 0, m
        while c < m:
            size = min(step, m - c)
            x, info = solve(shifted[c * n : (c + size) * n])
            if info == 0:
                block[:, c : c + size] = x[:, 0].reshape(size, n).T
                c, step = c + size, 2 * size
                continue
            # exactly singular shift in column s: the columns before it passed elimination, so they
            # are solved again as one block (same bits), then column s alone, nudged off its eigenvalue
            s = c + (info - 1) // n
            if s > c:
                block[:, c:s] = solve(shifted[c * n : s * n])[0][:, 0].reshape(s - c, n).T
            block[:, s] = nudged(start + s, shifted[s * n : (s + 1) * n])
            # the next call holds at most twice the columns just solved, and doubles after each
            # clean solve: a failed call never copies more than twice the columns of the step before
            c, step = s + 1, 2 * (s + 1 - c)
        hi, lo = block.max(axis=0), -block.min(axis=0)
        mx = np.maximum(hi, lo)
        bad = ~np.isfinite(mx) | (mx == 0.0)
        if bad.any():
            # elimination rules out the default: a column spoilt by a neighbour has one that fails alone
            c = next((c for c in range(start, stop) if fails_alone(c)), start + int(np.argmax(bad)))
            raise _sector_error(f"eigenvector solve overflowed or vanished at eigenvalue {c}", op.sector)
        # largest component of each column becomes +1, then unit 2-norm
        block *= np.where(hi >= lo, 1.0, -1.0) / mx
        block /= np.sqrt(np.einsum("ij,ij->j", block, block))
        d = np.concatenate([d, _distances(storage[:, : prev + m])])
        blocks.append(block)
        if bound is not None and _first_open_doublet(d, bound) + 1 < stop:
            break
    return (blocks[0] if len(blocks) == 1 else np.hstack(blocks)), d


def check_bound(bound: float) -> None:
    """The one domain of a coalescence bound: ValueError unless 0 < bound < 1 (so also for NaN)."""
    if not 0 < bound < 1:
        raise ValueError(f"coalescence bound must lie in (0, 1), got {bound}")


def diagonalize(op: SectorOperator, bound: float | None = None, *, _eigenvalues=None,
                _partner=None) -> SpectralDecomposition:
    """Spectral decomposition of a sector operator, with real eigenvectors.

    Eigenvalues are those of eigenvalues_only, eigenvectors come from inverse
    iteration on the band eigenvalues (see module docstring).  With a bound in
    (0, 1), every eigenvalue is still computed, but eigenvectors and residuals
    only for the leading columns that reach the precursor of ep_scan at that
    bound, which is also enough for ep_scan at any smaller bound.  _eigenvalues
    is _band_eigenvalues(op) computed ahead, by diagonalize_each only.
    _partner is (operator, decomposition) of the conjugate sector, solved by
    diagonalize without a bound: op then takes its band eigenvalues,
    eigenvectors, residuals and d_N as they are, all read-only, and its
    eigenvalues are the band eigenvalues plus op.shift, which is what a fresh
    solve computes bit for bit.  A partner whose bands are not equal to op's
    (np.array_equal), whose M is not -M or whose shift is not the conjugate of
    op's, or one given with a bound, raises ValueError.
    """
    if op.dim < 1:
        raise ValueError("empty sector operator")
    if bound is not None:
        check_bound(bound)
    if _partner is not None:
        return _mirrored(op, bound, *_partner)
    w = _band_eigenvalues(op) if _eigenvalues is None else _eigenvalues
    scale = _band_scale(op)
    V, d = _inverse_iteration(op, w, scale, bound)
    residuals = _residual_norms(op, V, w[: V.shape[1]], scale)
    for shared in (w, V, residuals, d):
        shared.flags.writeable = False
    return SpectralDecomposition(
        sector=op.sector,
        eigenvalues=w + op.shift,
        right_eigenvectors=V,
        residual_norms=residuals,
        operator_scale=scale,
        distances=d,
        band_eigenvalues=w,
    )


def _mirrored(op: SectorOperator, bound, other: SectorOperator, dec: SpectralDecomposition) -> SpectralDecomposition:
    """diagonalize(op) from the solved conjugate sector: other, its operator, and dec, its full decomposition."""
    if bound is not None:
        raise ValueError("a mirrored sector takes no bound")
    if not all(np.array_equal(a, b) for a, b in ((op.diag, other.diag), (op.upper, other.upper),
                                                  (op.lower, other.lower))):
        raise ValueError(f"sector M={other.sector.M} has other bands than sector M={op.sector.M}")
    if other.sector.M != -op.sector.M or other.shift != op.shift.conjugate():
        raise ValueError(f"sector M={other.sector.M} is not the conjugate of sector M={op.sector.M}")
    if dec.sector != other.sector or dec.band_eigenvalues is None or dec.right_eigenvectors.shape[1] != op.dim:
        raise ValueError(f"the decomposition of sector M={other.sector.M} is not its full solve by diagonalize")
    return replace(dec, sector=op.sector, eigenvalues=dec.band_eigenvalues + op.shift)


def _other_cpus() -> set:
    """CPUs this thread may run on, minus the one it runs on now; empty where that cannot be read."""
    if not hasattr(os, "sched_setaffinity"):
        return set()
    getcpu = getattr(ctypes.CDLL(None), "sched_getcpu", None)
    if getcpu is None:
        return set()
    getcpu.argtypes, getcpu.restype = [], ctypes.c_int
    return os.sched_getaffinity(0) - {getcpu()}


def _move_to(cpus: set) -> None:
    """Initializer of diagonalize_each's helper thread: run on cpus, if there are any.

    A new thread starts on its creator's CPU, and a kernel that does not
    balance load (as in some VMs and cpusets) keeps it there, where the two
    threads take turns.  A refused move costs the overlap, not a result.
    """
    if cpus:
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass


def diagonalize_each(ops, bound: float | None = None):
    """diagonalize(op, bound) for each operator of the iterable ops, yielded in order.

    Every operator of ops is built first, on the calling thread, so an
    operator that cannot be built is raised before any solve.  One helper
    thread then computes the band eigenvalues of the operators in order
    while the calling thread computes the eigenvectors of the current one;
    the LAPACK call of _band_eigenvalues releases the interpreter lock, so
    the two run at once on two CPUs.  The first failure in the order of ops
    is raised as it is, and no eigenvalue solve starts after a failure.
    What it holds grows with the number of operators: three bands each, and
    one spectrum each until it is yielded, small beside the eigenvectors of
    one large sector.
    """
    if bound is not None:
        check_bound(bound)
    ops, halt = list(ops), threading.Event()

    def solve(op):
        if halt.is_set():
            return None  # an earlier solve failed, and its error is the one raised
        try:
            return _band_eigenvalues(op)
        except BaseException:
            halt.set()
            raise

    helper = ThreadPoolExecutor(max_workers=1, initializer=_move_to, initargs=(_other_cpus(),))
    try:
        for op, w in zip(ops, helper.map(solve, ops)):
            yield diagonalize(op, bound, _eigenvalues=w)
    finally:
        halt.set()
        helper.shutdown(cancel_futures=True)


def _residual_norms(op: SectorOperator, V: np.ndarray, lam: np.ndarray, s: float) -> np.ndarray:
    """||L v - lambda v|| per column of V, in real arithmetic: s * ||(bands / s - lam / s) v||.

    lam holds band eigenvalues, so the shift cancels and the residual is
    (real bands - lam) v, with no complex temporaries.  With
    s = _band_scale(op) the squares neither over- nor underflow at huge or
    tiny rates, and elsewhere the norm is bitwise that of the unscaled bands.
    """
    R = (op.diag / s)[:, None] * V
    R[1:] += (op.upper / s)[:, None] * V[:-1]
    R[:-1] += (op.lower / s)[:, None] * V[1:]
    R -= V * (lam / s)
    return s * np.linalg.norm(R, axis=0)


def eigenvector_distance(dec: SpectralDecomposition, N: int) -> float:
    """d_N, entry N of pair_distances (the one formula); IndexError outside its range."""
    n = dec.right_eigenvectors.shape[1]
    if not 0 <= N < n - 1:
        raise IndexError(f"pair index N={N} out of range for {n} eigenvectors of dim={dec.dim}")
    return float(pair_distances(dec)[N])


def _distances(V: np.ndarray) -> np.ndarray:
    # einsum forms no n x N product, and gives the same bits for any width of column view
    ov = np.abs(np.einsum("ij,ij->j", V[:, 1:], V[:, :-1]))
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
    return EPScanResult(precursor=None if prec is None else complex(dec.eigenvalues[prec]), precursor_index=prec)


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


def kernel_dimension(op: SectorOperator, lam: complex) -> int:
    """Numerical nullity of (L - lam I) via singular values below 1e-8 * _band_scale(op)."""
    A = op.to_dense() - lam * np.eye(op.dim)
    sv = np.linalg.svd(A, compute_uv=False)
    return int(np.sum(sv < 1e-8 * _band_scale(op)))


def floor_cut(points) -> tuple[np.ndarray, np.ndarray]:
    """xs and ds of the (x, d) points before the first d below DISTANCE_FLOOR.

    Below the floor d is rounding noise.  points may be lazy: nothing past
    the first point below the floor is drawn from it.
    """
    kept = list(itertools.takewhile(lambda xd: xd[1] >= DISTANCE_FLOOR, points))
    return np.array([x for x, _ in kept], dtype=float), np.array([d for _, d in kept], dtype=float)

"""Sector-wise tridiagonal Liouvillian builder plus a dense brute-force oracle.

The vectorization convention is row stacking: rho -> sum_{ab} rho_ab |a>|b>,
so A rho B |-> (A kron B^T) vec(rho).  Within sector M the basis is ordered by
ascending left index m, component meaning <m|rho|m-M>.  The raising channel
couples m -> m+1 with weight (Gamma/j)(1-p)/2 * C+(m) C+(m-M) and the lowering
channel m -> m-1 with (1+p)/2 and C- coefficients; both bands vanish at the
appropriate full-polarization limit, making the operator triangular there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import ModelParams, SectorIndex, ladder_coeff, sector_basis

__all__ = [
    "SectorOperator",
    "FullLiouvillian",
    "build_sector",
    "build_bruteforce",
    "gamma0_shift_check",
    "BRUTEFORCE_MAX_HILBERT_DIM",
]

BRUTEFORCE_MAX_HILBERT_DIM = 64

# ladder tables kept, one pair per spin size
_LADDER_CACHE = 64


@dataclass(frozen=True)
class SectorOperator:
    """Tridiagonal action of the Liouvillian on one M sector.

    The operator is the real float64 tridiagonal (diag, upper, lower) plus the
    constant i*shift on its diagonal, shift = h*M; to_dense, matvec and scale add it.
    upper[k] feeds component m_k into m_{k+1} (dense entry [k+1, k]);
    lower[k] feeds component m_{k+1} into m_k (dense entry [k, k+1]).
    """

    sector: SectorIndex
    diag: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    shift: float

    @property
    def dim(self) -> int:
        return self.sector.dim

    def to_dense(self) -> np.ndarray:
        n = self.dim
        A = np.zeros((n, n), dtype=complex)
        A[np.arange(n), np.arange(n)] = self.diag + 1j * self.shift
        if n > 1:
            A[np.arange(1, n), np.arange(n - 1)] = self.upper
            A[np.arange(n - 1), np.arange(1, n)] = self.lower
        return A

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """L v for a vector v, or for every column of an (n, k) block v."""
        diag, upper, lower = self.diag + 1j * self.shift, self.upper, self.lower
        if v.ndim == 2:
            diag, upper, lower = diag[:, None], upper[:, None], lower[:, None]
        out = diag * v
        if self.dim > 1:
            out[1:] += upper * v[:-1]
            out[:-1] += lower * v[1:]
        return out

    def scale(self) -> float:
        """Magnitude estimate (max row sum) used in relative tolerances."""
        s = np.abs(self.diag + 1j * self.shift).max()
        if self.dim > 1:
            s += np.abs(self.upper).max() + np.abs(self.lower).max()
        return float(s)


@lru_cache(maxsize=_LADDER_CACHE)
def _ladder_tables(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """ladder_coeff(j, m, "raise") and (..., "lower") at every m = -j .. j, read-only.

    A sector's m values are the same floats -j + k, so slices of these tables
    are bitwise the coefficients computed from the sector's own m values.
    """
    j = two_j / 2
    m = -j + np.arange(two_j + 1)
    tables = ladder_coeff(j, m, "raise"), ladder_coeff(j, m, "lower")
    for t in tables:
        t.flags.writeable = False
    return tables


def build_sector(params: ModelParams, M: int) -> SectorOperator:
    """Tridiagonal Liouvillian restricted to sector M: real bands, shift h*M.

    Rates near the float limit can overflow the bands or the shift; that
    raises one ValueError naming the sector instead of passing inf or NaN on.
    """
    sec = sector_basis(params, M)
    j, G, G0, h, p = params.j, params.gamma, params.gamma0, params.h, params.p
    ms = sec.m_values()
    n = sec.dim
    # table index of the sector's first m (m_min = -j + k0) and of m_min - M
    k0 = max(0, M)
    c_raise, c_lower = _ladder_tables(params.two_j)
    with np.errstate(over="ignore", invalid="ignore"):
        diag = (
            -G * (j + 1)
            + (G / j) * ms * (ms - M)
            + ((G - G0) / (2 * j)) * M**2
            - (G * p / (2 * j)) * (2 * ms - M)
        )
        # upper couples m -> m+1 with C+(m) C+(m-M), lower m -> m-1 with C-(m) C-(m-M)
        upper = (G / j) * (1 - p) / 2 * c_raise[k0 : k0 + n - 1] * c_raise[k0 - M : k0 - M + n - 1]
        lower = (G / j) * (1 + p) / 2 * c_lower[k0 + 1 : k0 + n] * c_lower[k0 + 1 - M : k0 + n - M]
    shift = h * M
    if not (np.isfinite(diag).all() and np.isfinite(upper).all() and np.isfinite(lower).all()
            and math.isfinite(shift)):
        raise ValueError(f"sector operator overflows the double range (two_j={params.two_j}, M={M})")
    return SectorOperator(sector=sec, diag=diag, upper=upper, lower=lower, shift=shift)


def gamma0_shift_check(params: ModelParams, M: int) -> float:
    """Uniform real shift -gamma0 M^2 / (2j) that dephasing adds to sector M."""
    return -params.gamma0 * M**2 / (2 * params.j)


@dataclass(frozen=True)
class FullLiouvillian:
    """Dense N^2 x N^2 Liouvillian built directly from the master equation.

    Basis index a*N + b encodes <m_a|rho|m_b> with m = -j + index, so the
    matrix is block diagonal under the permutation grouping constant M = a - b.
    """

    params: ModelParams
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def sector_indices(self, M: int) -> np.ndarray:
        """Flat indices of sector M, ordered by ascending m (left index)."""
        sec = sector_basis(self.params, M)
        N = self.params.hilbert_dim
        j = self.params.j
        out = []
        for m in sec.m_values():
            a = int(round(m + j))
            b = int(round(m - M + j))
            out.append(a * N + b)
        return np.asarray(out, dtype=int)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.matrix)


def build_bruteforce(params: ModelParams) -> FullLiouvillian:
    """Dense Liouvillian from H = -h Jz and the three jump operators.

    Independent of the sector builder; serves as its oracle at small j.
    """
    N = params.hilbert_dim
    if N > BRUTEFORCE_MAX_HILBERT_DIM:
        raise ValueError(
            f"brute-force Liouvillian limited to hilbert_dim <= {BRUTEFORCE_MAX_HILBERT_DIM}, got {N}"
        )
    j, G, G0, h, p = params.j, params.gamma, params.gamma0, params.h, params.p
    ms = -j + np.arange(N)
    Jz = np.diag(ms).astype(complex)
    Jp = np.zeros((N, N), dtype=complex)
    Jp[np.arange(1, N), np.arange(N - 1)] = ladder_coeff(j, ms[:-1], "raise")
    Jm = Jp.conj().T
    H = -h * Jz
    eye = np.eye(N)
    S = -1j * (np.kron(H, eye) - np.kron(eye, H.T))
    jumps = [
        np.sqrt(G0 / j) * Jz,
        np.sqrt(G / j * (1 - p) / 2) * Jp,
        np.sqrt(G / j * (1 + p) / 2) * Jm,
    ]
    for L in jumps:
        LdL = L.conj().T @ L
        S += np.kron(L, L.conj())
        S -= 0.5 * np.kron(LdL, eye)
        S -= 0.5 * np.kron(eye, LdL.T)
    return FullLiouvillian(params=params, matrix=S)

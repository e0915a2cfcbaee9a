"""Physical parameters, spin-ladder algebra, and weak-symmetry sector bookkeeping.

A collective spin of magnitude j (stored as the integer 2j) sits in a magnetic
field h and exchanges excitations with a polarized bath: raising quanta enter
at rate proportional to (1-p)/2, lowering quanta at (1+p)/2, plus optional
dephasing gamma0.  The superoperator conserves M = m_left - m_right, so the
Liouville space splits into sectors labelled by the integer M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ModelParams", "SectorIndex", "ladder_coeff", "sector_basis"]


@dataclass(frozen=True)
class ModelParams:
    """Model parameters. j may be half-integer, hence the integer field two_j."""

    two_j: int
    h: float = 1.0
    gamma: float = 1.0
    gamma0: float = 0.0
    p: float = 0.0

    def __post_init__(self):
        if not isinstance(self.two_j, (int, np.integer)) or self.two_j < 1:
            raise ValueError(f"two_j must be a positive integer, got {self.two_j!r}")
        for name in ("h", "gamma", "gamma0", "p"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.gamma0 < 0:
            raise ValueError(f"gamma0 must be nonnegative, got {self.gamma0}")
        if abs(self.p) > 1:
            raise ValueError(f"polarization p must lie in [-1, 1], got {self.p}")

    @property
    def j(self) -> float:
        return self.two_j / 2.0

    @property
    def hilbert_dim(self) -> int:
        return self.two_j + 1


@dataclass(frozen=True)
class SectorIndex:
    """Index data of one weak-symmetry sector M: components are <m|rho|m-M>."""

    M: int
    m_min: float
    m_max: float
    dim: int

    def m_values(self) -> np.ndarray:
        """Left magnetic quantum numbers of the sector, ascending."""
        return self.m_min + np.arange(self.dim)


def ladder_coeff(j: float, m, direction: str):
    """Matrix element sqrt(j(j+1) - m(m+-1)) of the raising/lowering operator.

    direction "raise" gives <m+1|J+|m>, "lower" gives <m-1|J-|m>.  m may be a
    scalar or an array (elementwise result of the same shape); every element
    must satisfy |m| <= j.  Stepping off a ladder end gives exactly 0.
    """
    if direction == "raise":
        target = m + 1
    elif direction == "lower":
        target = m - 1
    else:
        raise ValueError(f"direction must be 'raise' or 'lower', got {direction!r}")
    if (np.abs(m) > j).any():
        raise ValueError(f"m={m} out of range for j={j}")
    # the radicand is exactly 0 at the ladder ends; the clamp only absorbs rounding
    return np.sqrt(np.maximum(j * (j + 1) - m * target, 0.0))


def sector_basis(params: ModelParams, M: int) -> SectorIndex:
    """Range of the left index m in sector M; dim = 2j + 1 - |M|."""
    if abs(M) > params.two_j:
        raise ValueError(f"|M|={abs(M)} exceeds two_j={params.two_j}")
    j = params.j
    m_min = max(-j, -j + M)
    m_max = min(j, j + M)
    dim = params.two_j + 1 - abs(M)
    return SectorIndex(M=int(M), m_min=m_min, m_max=m_max, dim=dim)

import numpy as np
import pytest

from spinbath.closed_forms import o3_eigenvalue
from spinbath import spectra as sp
from spinbath.liouvillian import build_bruteforce, build_sector
from spinbath.model import ModelParams, ladder_coeff
from spinbath.verification import multiset_match_error


def sector_union(params):
    return np.concatenate(
        [np.linalg.eigvals(build_sector(params, M).to_dense()) for M in range(-params.two_j, params.two_j + 1)]
    )


def test_sector_diag_p1_j1():
    # full lowering polarization at j=1: diagonal (0, -2, -2), raising band off
    op = build_sector(ModelParams(two_j=2, h=1.0, gamma=1.0, p=1.0), 0)
    assert np.allclose(op.diag, [0.0, -2.0, -2.0], atol=1e-14)
    assert np.allclose(op.upper, 0.0)


def test_sector_weak_symmetry_phase():
    op = build_sector(ModelParams(two_j=2, h=1.0, gamma=1.0, p=0.0), 1)
    assert op.shift == 1j
    assert np.allclose(np.diagonal(op.to_dense()).imag, 1.0, atol=1e-14)
    # real float64 bands; the phase i*h*M is the imaginary part of the one complex shift, also for
    # h < 0 and M < 0
    op = build_sector(ModelParams(two_j=7, h=-0.7, gamma=1.3, p=0.4), -3)
    assert [a.dtype for a in (op.diag, op.upper, op.lower)] == [np.float64] * 3
    assert op.shift == 1j * (-0.7 * -3)


def test_corner_sector_is_scalar():
    op = build_sector(ModelParams(two_j=7, p=0.3), 7)
    assert op.dim == 1
    assert len(op.upper) == 0 and len(op.lower) == 0


@pytest.mark.parametrize("two_j", [1, 2, 7, 20, 81])
def test_bands_from_ladder_tables_are_per_sector_coefficients(two_j):
    # slices of the per-size ladder tables against ladder_coeff at the sector's own m values;
    # sector -M has the bands of sector M, bitwise
    params = ModelParams(two_j=two_j, h=0.9, gamma=1.3, gamma0=0.4, p=0.37)
    j, G, p = params.j, params.gamma, params.p
    for M in range(-two_j, two_j + 1):
        op = build_sector(params, M)
        if M < 0:
            mirror = build_sector(params, -M)
            assert all(a.tobytes() == b.tobytes() for a, b in zip((op.diag, op.upper, op.lower),
                                                                  (mirror.diag, mirror.upper, mirror.lower)))
            continue
        ms = op.sector.m_values()
        up, dn = ms[:-1], ms[1:]
        upper = (G / j) * (1 - p) / 2 * ladder_coeff(j, up, "raise") * ladder_coeff(j, up - M, "raise")
        lower = (G / j) * (1 + p) / 2 * ladder_coeff(j, dn, "lower") * ladder_coeff(j, dn - M, "lower")
        assert op.upper.tobytes() == upper.tobytes() and op.lower.tobytes() == lower.tobytes()
        assert op.upper.dtype == op.lower.dtype == np.float64


@pytest.mark.parametrize("gamma,h,Ms", [(1e308, 1.0, (0, -3, 4)), (1.0, 1e308, (2, -4))])
def test_overflowing_operator_raises_naming_the_sector(gamma, h, Ms):
    # the rates are finite, the bands or the shift h*M are not: rejected where they are built,
    # without numpy warnings
    for M in Ms:
        with pytest.raises(ValueError, match=rf"overflows the double range \(two_j=4, M={M}\)"):
            build_sector(ModelParams(two_j=4, p=0.5, gamma=gamma, h=h), M)


def test_underflowing_couplings_raise_naming_the_sector():
    # gamma = 5e-324, the smallest subnormal, rounds off-diagonal entries to exactly 0
    with pytest.raises(ValueError, match=r"underflows the double range \(two_j=4, M=-3\)"):
        build_sector(ModelParams(two_j=4, p=0.5, gamma=5e-324), -3)
    # gamma = 1e-320 keeps every entry subnormal but nonzero: a valid operator, although the
    # product of a mirrored pair underflows (eigenvalues_only rejects that, propagate never forms it)
    op = build_sector(ModelParams(two_j=4, p=0.5, gamma=1e-320), -3)
    assert op.upper.all() and op.lower.all()
    # at full polarization a zero band is the triangular limit, not an underflow
    assert not build_sector(ModelParams(two_j=4, p=1.0, gamma=1e-320), 0).upper.any()


def test_huge_finite_bands_build_without_warning():
    # gamma = 1e200 keeps every band finite while the product of a mirrored pair overflows;
    # build_sector forms no such product, and RuntimeWarnings are errors here
    for M in range(-4, 5):
        op = build_sector(ModelParams(two_j=4, p=0.5, gamma=1e200), M)
        assert np.isfinite(op.upper).all() and np.isfinite(op.lower).all()


def test_triangularity_limits():
    up = build_sector(ModelParams(two_j=9, p=1.0), 2).upper
    lo = build_sector(ModelParams(two_j=9, p=-1.0), 2).lower
    assert np.all(up == 0)
    assert np.all(lo == 0)


def test_full_matrix_is_block_diagonal():
    params = ModelParams(two_j=3, h=0.7, gamma=1.3, gamma0=0.2, p=0.4)
    full = build_bruteforce(params)
    seen = np.zeros(full.dim, dtype=bool)
    for M in range(-params.two_j, params.two_j + 1):
        idx = full.sector_indices(M)
        sub = full.matrix[np.ix_(idx, idx)]
        assert np.allclose(sub, build_sector(params, M).to_dense(), atol=1e-13)
        outside = np.setdiff1d(np.arange(full.dim), idx)
        assert np.abs(full.matrix[np.ix_(idx, outside)]).max() < 1e-14
        seen[idx] = True
    assert seen.all()


@pytest.mark.parametrize("p", [-1.0, -0.5, 0.0, 0.5, 1.0])
def test_bruteforce_oracle_j1(p):
    params = ModelParams(two_j=2, h=1.0, gamma=1.0, p=p)
    err = multiset_match_error(build_bruteforce(params).eigenvalues(), sector_union(params))
    assert err < 1e-12


def test_bruteforce_matches_o3_at_p0():
    params = ModelParams(two_j=3, h=1.0, gamma=1.0, p=0.0)
    ref = []
    for M in range(-3, 4):
        ref.extend(o3_eigenvalue(params, K, M) for K in range(abs(M), 4))
    err = multiset_match_error(build_bruteforce(params).eigenvalues(), np.array(ref))
    assert err < 1e-12


@pytest.mark.parametrize("p", [-0.5, 0.0, 0.7, 1.0])
def test_unique_zero_eigenvalue(p):
    ev = build_bruteforce(ModelParams(two_j=4, p=p)).eigenvalues()
    assert int(np.sum(np.abs(ev) < 1e-12)) == 1


def test_bruteforce_size_guard():
    with pytest.raises(ValueError):
        build_bruteforce(ModelParams(two_j=200, p=0.0))


def test_gamma0_shift_values():
    assert build_sector(ModelParams(two_j=4, gamma0=0.0), 3).shift.real == 0.0
    assert build_sector(ModelParams(two_j=20, gamma0=1.0), 2).shift.real == pytest.approx(-0.2, abs=1e-15)


def test_gamma0_shifts_spectra_uniformly():
    base = ModelParams(two_j=8, p=0.4, gamma0=0.0)
    shifted = ModelParams(two_j=8, p=0.4, gamma0=1.0)
    for M in (0, 2, -3):
        w0 = np.linalg.eigvals(build_sector(base, M).to_dense())
        w1 = np.linalg.eigvals(build_sector(shifted, M).to_dense())
        err = multiset_match_error(w1, w0 + build_sector(shifted, M).shift.real)
        assert err < 1e-10


def test_trace_preservation_columns():
    # the trace reads sector M=0 with unit weights: columns must sum to zero
    for p in (-1.0, -0.3, 0.0, 0.8, 1.0):
        op = build_sector(ModelParams(two_j=11, p=p, gamma0=0.6), 0)
        col = op.diag.copy()
        col[:-1] += op.upper
        col[1:] += op.lower
        assert np.abs(col).max() < 1e-12 * sp._band_scale(op)


def test_hermiticity_covariance_bands():
    # sector -M is the complex conjugate of sector M: the same bands and spectrum, bit for bit
    params = ModelParams(two_j=9, h=0.9, gamma=1.1, gamma0=0.3, p=-0.45)
    for M in (1, 4, 9):
        a = build_sector(params, M)
        b = build_sector(params, -M)
        for band in ("diag", "upper", "lower"):
            assert getattr(b, band).tobytes() == getattr(a, band).tobytes()
        assert b.shift == a.shift.conjugate()
        assert sp.eigenvalues_only(b).tobytes() == np.conj(sp.eigenvalues_only(a)).tobytes()


def test_matvec_agrees_with_dense():
    op = build_sector(ModelParams(two_j=6, p=0.2, h=0.3), -2)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    assert np.allclose(op.matvec(v), op.to_dense() @ v, atol=1e-13)
    V = rng.standard_normal((op.dim, 3)) + 1j * rng.standard_normal((op.dim, 3))
    assert np.allclose(op.matvec(V), op.to_dense() @ V, atol=1e-13)

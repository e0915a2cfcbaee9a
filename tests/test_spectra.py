import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.lapack import dgtsv, dstevd
from scipy.optimize import linear_sum_assignment

from spinbath import closed_forms as cf
from spinbath import liouvillian
from spinbath import spectra as sp
from spinbath.liouvillian import SectorOperator, build_sector
from spinbath.model import ModelParams, sector_basis
from spinbath.verification import multiset_match_error


def dec_for(two_j, p, M=0, h=1.0, gamma=1.0, gamma0=0.0):
    return sp.diagonalize(build_sector(ModelParams(two_j=two_j, h=h, gamma=gamma, gamma0=gamma0, p=p), M))


def test_triangular_spectrum_j1():
    dec = dec_for(2, 1.0)
    assert np.allclose(sorted(dec.eigenvalues.real), [-2.0, -2.0, 0.0], atol=1e-12)
    assert np.allclose(dec.eigenvalues.imag, 0.0, atol=1e-14)


def test_rotor_spectrum_j1():
    # p=0, M=0: -(Gamma/2j) K(K+1), K = 0, 1, 2
    dec = dec_for(2, 0.0)
    assert np.allclose(sorted(dec.eigenvalues.real), [-3.0, -1.0, 0.0], atol=1e-12)


def test_scalar_sector():
    op = build_sector(ModelParams(two_j=5, p=0.2), 5)
    dec = sp.diagonalize(op)
    assert dec.dim == 1
    assert dec.right_eigenvectors.dtype == np.float64
    assert dec.eigenvalues[0] == pytest.approx(op.diag[0] + op.shift)


def test_ordering_descending_real():
    dec = dec_for(30, 0.5)
    assert np.all(np.diff(dec.eigenvalues.real) <= 1e-12)


def test_residual_invariant():
    # in the large sectors the resolvent nears the double range: a solve from an
    # unscaled start, or a repeated solve, overflows or loses accuracy; the
    # resolvent goes as 1/gamma, so unscaled bands overflow at tiny gamma and
    # lose whole columns to underflow at huge gamma; at 1e200 and 1e300 the
    # squares summed for a residual norm overflow unless it is rescaled
    cases = ((40, 0.5, 0, 1.0), (40, 0.0, 3, 1.0), (40, 1.0, 0, 1.0), (40, -0.8, -2, 1.0), (640, 0.999, 0, 1.0),
             (1280, 0.7, 0, 1.0), (640, 0.999, 0, 2.0**-400), (640, 0.999, 0, 2.0**400),
             (40, 0.5, 0, 1e200), (40, 0.5, 3, 1e300))
    for two_j, p, M, gamma in cases:
        dec = dec_for(two_j, p, M, gamma=gamma)
        assert np.all(np.isfinite(dec.right_eigenvectors))
        assert dec.residual_norms.max() <= 1e-8 * dec.operator_scale


@pytest.mark.parametrize("p", [0.5, 0.99])
def test_decomposition_does_not_depend_on_the_field(p):
    # the shift h*M cancels from every real solve and from the scale the solves divide by, so real
    # parts, eigenvectors, residuals, d_N and the operator scale keep their bits for any h (when the
    # solves divided by a scale that held |h*M|, d_N moved by 0.88 at h = 1e200, M = 10)
    for M in (0, 3, 10):
        base = dec_for(40, p, M, h=0.0)
        for h in (1.0, 1e100, 1e200, 1e300):
            op = build_sector(ModelParams(two_j=40, p=p, h=h), M)
            dec = sp.diagonalize(op)
            for a, b in ((dec.eigenvalues.real, base.eigenvalues.real),
                         (dec.right_eigenvectors, base.right_eigenvectors),
                         (dec.residual_norms, base.residual_norms), (dec.distances, base.distances)):
                assert a.tobytes() == b.tobytes()
            assert dec.operator_scale == base.operator_scale == sp._band_scale(op)


@pytest.mark.parametrize("two_j,M", [(4, -3), (4, 2), (40, -10), (40, 3), (40, 10)])
def test_decomposition_does_not_depend_on_dephasing(two_j, M):
    # -gamma0 M^2/(2j) is the real part of the shift and enters no solve, so eigenvectors, residuals
    # and d_N keep their bits at any gamma0; folded into the diagonal, it rounded every diagonal entry
    # of sector 2 at 2j = 4 to one value at gamma0 = 1e17: three equal eigenvalues and d_N = [0, 0],
    # false exceptional points
    base = dec_for(two_j, 0.5, M)
    for gamma0 in (1e8, 1e17, 1e300):
        op = build_sector(ModelParams(two_j=two_j, p=0.5, gamma0=gamma0), M)
        dec = sp.diagonalize(op)
        for a, b in ((dec.right_eigenvectors, base.right_eigenvectors),
                     (dec.residual_norms, base.residual_norms), (dec.distances, base.distances)):
            assert a.tobytes() == b.tobytes()
        assert dec.eigenvalues.tobytes() == (base.eigenvalues + op.shift.real).tobytes()


@pytest.mark.parametrize("p", [0.5, 0.99])
def test_tiny_rate_keeps_residuals_and_distances(p):
    # at gamma = 1e-200 the squares of an unscaled residual underflow (every norm read exactly 0),
    # and a scale that held h*M = 10 moved d_N by 0.90 in M = 10
    for M in (0, 3, 10):
        op = build_sector(ModelParams(two_j=40, p=p, gamma=1e-200), M)
        dec = sp.diagonalize(op)
        assert dec.residual_norms.min() > 0
        assert dec.residual_norms.max() <= 1e-8 * sp._band_scale(op)
        assert np.abs(dec.distances - dec_for(40, p, M).distances).max() <= 1e-11


def test_band_scale_is_the_least_power_of_two_above_the_bands():
    sec = sector_basis(ModelParams(two_j=4), 0)

    def scale(diag, upper, lower, shift=0.0):
        return sp._band_scale(SectorOperator(sector=sec, diag=np.array(diag), upper=np.array(upper),
                                             lower=np.array(lower), shift=shift))

    assert scale([-3.0, -1.0], [0.5], [2.5]) == 4.0
    assert scale([-4.0, -1.0], [0.5], [2.5], shift=1e300) == 4.0  # an exact power of two, h*M left out
    assert scale([-1.0, -1.0], [5e-320], [3.0]) == 4.0
    assert scale([-1e-320], [], []) == 2.0**-1063
    assert scale([0.0], [], []) == 1.0
    # build_sector makes entries above 2^1023, and 2^1024 is no double
    op = build_sector(ModelParams(two_j=3, p=0.99, gamma=4e307), 0)
    assert np.abs(op.diag).max() > 2.0**1023 and sp._band_scale(op) == 2.0**1023
    assert sp.diagonalize(op).operator_scale == 2.0**1023  # a band sum would overflow


def test_coupling_far_below_the_diagonal_is_underflow():
    # couplings 1e-160 of the diagonal: their scaled square underflows, which is an error rather
    # than a coupling of 0
    op = SectorOperator(sector=sector_basis(ModelParams(two_j=4), -3), diag=np.array([-1.0, -2.0]),
                        upper=np.array([1e-160]), lower=np.array([1e-160]), shift=0j)
    with pytest.raises(sp.EigensolverError, match=r"underflows the double range \(two_j=4, M=-3\)"):
        sp.eigenvalues_only(op)


def test_residual_norms_match_per_column_definition():
    for p, M in ((0.5, 0), (0.0, 3), (1.0, 0), (-0.8, -2), (0.5, 7)):
        op = build_sector(ModelParams(two_j=40, p=p), M)
        dec = sp.diagonalize(op)
        V, w = dec.right_eigenvectors, dec.eigenvalues
        assert V.dtype == np.float64
        direct = [np.linalg.norm(op.matvec(V[:, k]) - w[k] * V[:, k]) for k in range(dec.dim)]
        assert np.abs(dec.residual_norms - direct).max() <= 1e-14 * dec.operator_scale


def test_repeated_singular_solve_raises(monkeypatch):
    # info > 0 even after the nudge: the sector fails instead of returning a zero column
    def singular(dl, d, du, b):
        return dl, d, du, b, 1

    monkeypatch.setattr(sp, "dgtsv", singular)
    with pytest.raises(sp.EigensolverError, match=r"singular shift .*two_j=8, M=2"):
        dec_for(8, 0.5, 2)


def per_column_eigenvectors(op, nudged=(), lams=None):
    """The loop the batched solve replaced: one dgtsv call per eigenvalue, the same normalisation.

    A column in nudged is solved with its diagonal nudged by 1e-13 from the start.  The start
    vector comes from a fresh Generator, the shifts from lams (default: eigenvalues_only).
    """
    n = op.dim
    lams = sp.eigenvalues_only(op) if lams is None else lams
    v0 = np.random.default_rng(sp._INV_ITER_SEED).standard_normal(n)
    b = (v0 / np.abs(v0).max() * 2.0**-1000)[:, None]
    scale = sp._band_scale(op)
    sub, diag, sup = op.upper / scale, op.diag / scale, op.lower / scale
    V = np.empty((n, n))
    for idx, lam in enumerate(lams.real / scale):
        _, _, _, x, info = dgtsv(sub, diag - lam + 1e-13 if idx in nudged else diag - lam, sup, b)
        if info > 0:
            _, _, _, x, info = dgtsv(sub, diag - lam + 1e-13, sup, b)
        assert info == 0
        V[:, idx] = x[:, 0]
    hi, lo = V.max(axis=0), -V.min(axis=0)
    V *= np.where(hi >= lo, 1.0, -1.0) / np.maximum(hi, lo)
    V /= np.sqrt(np.einsum("ij,ij->j", V, V))
    return V


@pytest.mark.parametrize("two_j,p", [(320, p) for p in (-1.0, 0.0, 0.5, 0.999, 1.0)]
                         + [(640, p) for p in (0.0, 0.5, 0.999, 1.0)])
def test_batched_solve_is_per_column_solve(monkeypatch, two_j, p):
    # one dgtsv call solves a block of eigenvalues; with zero couplings between the copies every
    # column is bitwise its own solve, the nudged ones at p = +-1 included; these sectors span
    # several blocks (at p = -1, 2j = 640 a shift stays singular after the nudge: the sector raises)
    op = build_sector(ModelParams(two_j=two_j, p=p), 0)
    assert op.dim > sp._SOLVE_ELEMENTS // op.dim
    rows = []

    def counting(dl, d, du, b):
        rows.append(len(d))
        return dgtsv(dl, d, du, b)

    monkeypatch.setattr(sp, "dgtsv", counting)
    V = sp.diagonalize(op).right_eigenvectors
    assert V.tobytes() == per_column_eigenvectors(op).tobytes()
    # at p = +-1 every shift is singular, and still the rows passed stay linear in the columns
    assert sum(rows) <= 4 * op.dim**2


def reference_decomposition(op):
    """The per-sector path before the direct LAPACK calls, step by step.

    eigvalsh_tridiagonal eigenvalues, per-column solves from a start drawn by a fresh Generator,
    complex residuals from op.matvec, and conjugated overlaps for d_N.
    """
    prod = op.upper * op.lower
    w = eigvalsh_tridiagonal(op.diag, np.sqrt(prod))[::-1] if np.all(prod > 0) else np.sort(op.diag)[::-1]
    w = w + op.shift
    V = np.ones((1, 1)) if op.dim == 1 else per_column_eigenvectors(op, lams=w)
    residuals = np.linalg.norm(op.matvec(V) - V * w, axis=0)
    distances = np.clip(1.0 - np.abs(np.sum(V[:, 1:].conj() * V[:, :-1], axis=0)), 0.0, 1.0)
    return w, V, residuals, distances, sp._band_scale(op)


@pytest.mark.parametrize("two_j", [1, 2, 7, 20, 80, 320])
def test_diagonalize_is_bitwise_the_reference_path(two_j):
    # the direct dstevd call, the cached start, one scale and the real residuals change no bit;
    # M = two_j is the 1-dimensional sector, p = +-1 the triangular limits with nudged columns
    for p in (-1.0, -0.5, 0.0, 0.5, 0.99, 1.0):
        for gamma in (1.0, 2.0**-400, 2.0**400):
            for M in sorted({0, 1, -2, two_j} & set(range(-two_j, two_j + 1))):
                op = build_sector(ModelParams(two_j=two_j, p=p, gamma=gamma, h=0.7), M)
                dec = sp.diagonalize(op)
                *ref, scale = reference_decomposition(op)
                got = (dec.eigenvalues, dec.right_eigenvectors, dec.residual_norms, dec.distances)
                for a, b in zip(got, ref):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                assert dec.operator_scale == scale


def test_start_vector_is_cached_and_read_only():
    b = sp._start_vector(9)
    assert sp._start_vector(9) is b
    assert not b.flags.writeable
    with pytest.raises(ValueError):
        b[0] = 1.0


def test_shared_caches_under_threads():
    # the thread pool shares the start-vector and ladder caches, and each diagonalize_each its helper
    # thread: concurrent misses and hits must give the bits of a serial run
    params = ModelParams(two_j=20, p=0.5)

    def run():
        ops = [build_sector(params, M) for M in range(-20, 21)]
        return ([sp.diagonalize(op).right_eigenvectors.tobytes() for op in ops]
                + [dec.right_eigenvectors.tobytes() for dec in sp.diagonalize_each(ops, 1e-4)])

    serial = run()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sp._start_vector.cache_clear()
        liouvillian._ladder_tables.cache_clear()
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(run) for _ in range(8)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(r == serial for r in results)


@pytest.mark.parametrize("row", [1, 641])
def test_singular_pivot_nudges_only_its_column(monkeypatch, row):
    op = build_sector(ModelParams(two_j=640, p=0.5), 0)
    n = op.dim
    k = sp._SOLVE_ELEMENTS // n
    col = 2 * k + k // 2  # a middle column of the third block
    sizes = []

    def singular_once(dl, d, du, b):
        sizes.append(len(d))
        out = dgtsv(dl, d, du, b)
        # the first solve of the third block reports a singular pivot in the first or last row
        # of that column (info counts rows from 1)
        return out[:4] + ((k // 2) * n + row,) if len(sizes) == 3 else out

    monkeypatch.setattr(sp, "dgtsv", singular_once)
    V = sp.diagonalize(op).right_eigenvectors
    rest = n - 3 * k
    # two full blocks, the third one up to the singular column, its columns before that column,
    # that column alone, the rest of the third block, then full blocks again
    assert sizes == ([k * n] * 3 + [(k // 2) * n, n, (k - k // 2 - 1) * n]
                     + [k * n] * (rest // k) + [(rest % k) * n])
    plain = per_column_eigenvectors(op)
    assert V.tobytes() == per_column_eigenvectors(op, nudged={col}).tobytes()
    assert not np.array_equal(V[:, col], plain[:, col])
    assert np.delete(V, col, axis=1).tobytes() == np.delete(plain, col, axis=1).tobytes()


def test_eigenvector_overflow_sectors():
    # at 2j = 1280 the one-solve resolvent leaves the double range from p = 0.9 on, in M = 0 and
    # its neighbours alike; batching the solves neither adds nor removes a failing sector
    for p in (0.7, 0.9, 0.99, 0.999, 1.0):
        for M in (0, 1, -2):
            if p < 0.9:
                sp.diagonalize(build_sector(ModelParams(two_j=1280, p=p), M))
            else:
                with pytest.raises(sp.EigensolverError, match=rf"overflowed or vanished .*two_j=1280, M={M}\)"):
                    sp.diagonalize(build_sector(ModelParams(two_j=1280, p=p), M))


@pytest.mark.parametrize("elements", [2**12, 2**16, 2**20])
def test_eigenvector_overflow_names_the_first_column_that_fails_alone(monkeypatch, elements):
    # an overflow spoils the neighbours of its dgtsv block (0 * inf across the zero coupling), so the
    # error names the first column whose own solve fails: the same for any block size and bound
    monkeypatch.setattr(sp, "_SOLVE_ELEMENTS", elements)
    for p, first in ((0.9, 431), (0.99, 400), (0.999, 398), (1.0, 403)):
        op = build_sector(ModelParams(two_j=1280, p=p), 0)
        for bound in (None, 1e-4):
            with pytest.raises(sp.EigensolverError) as err:
                sp.diagonalize(op, bound)
            assert str(err.value) == f"eigenvector solve overflowed or vanished at eigenvalue {first} (two_j=1280, M=0)"
    with pytest.raises(sp.EigensolverError, match=r"^eigenvector solve overflowed or vanished at eigenvalue 343 "
                                                  r"\(two_j=2560, M=0\)$"):
        sp.diagonalize(build_sector(ModelParams(two_j=2560, p=0.7), 0), 1e-4)


def test_eigenvector_overflow_raises():
    # at p = 0.999, 2j = 1280 one solve of the resolvent exceeds the double range, for any gamma
    for gamma in (1.0, 2.0**-400, 2.0**400):
        with pytest.raises(sp.EigensolverError, match=r"two_j=1280, M=0"):
            dec_for(1280, 0.999, gamma=gamma)


@pytest.mark.parametrize("two_j,p", [(tj, p) for tj in (20, 320, 640) for p in (0.0, 0.5, 0.999)]
                         + [(20, 1.0), (128, 1.0)])
def test_bounded_diagonalize_is_leading_columns(two_j, p):
    # solved blocks end at multiples of _SOLVE_ELEMENTS // dim and at dim; the walk stops at the
    # first block end past the full precursor
    op = build_sector(ModelParams(two_j=two_j, p=p), 0)
    full = sp.diagonalize(op)
    ends = list(range(sp._SOLVE_ELEMENTS // full.dim, full.dim, sp._SOLVE_ELEMENTS // full.dim)) + [full.dim]
    bounds = (0.5, 1e-2, 1e-4, 1e-6, 1e-9, 1e-13)
    for build in bounds:
        dec = sp.diagonalize(op, bound=build)
        k = dec.right_eigenvectors.shape[1]
        prec = sp.ep_scan(full, build).precursor_index
        assert k == (full.dim if prec is None else min(e for e in ends if e > prec))
        assert np.array_equal(dec.eigenvalues, full.eigenvalues)
        assert np.array_equal(dec.right_eigenvectors, full.right_eigenvectors[:, :k])
        assert dec.residual_norms.shape == (k,)
        for gamma in bounds[bounds.index(build):]:
            assert sp.ep_scan(dec, gamma) == sp.ep_scan(full, gamma)
        assert sp.eigenvector_distance(dec, 1) == sp.eigenvector_distance(full, 1)
    if p == 1.0:  # every doublet closed: every column comes back
        assert k == full.dim


def test_bounded_diagonalize_guards(monkeypatch):
    op = build_sector(ModelParams(two_j=320, p=0.5), 0)
    dec = sp.diagonalize(op, bound=1e-6)
    assert dec.right_eigenvectors.shape[1] == 204
    with pytest.raises(ValueError, match="204 of 321 eigenvectors end before"):
        sp.ep_scan(dec, 0.5)  # its first open doublet lies past the computed columns
    with pytest.raises(IndexError):
        sp.eigenvector_distance(dec, 203)

    def no_solve(op):
        raise AssertionError("solved before the bound was checked")

    monkeypatch.setattr(sp, "_band_eigenvalues", no_solve)
    for bound in (0.0, 1.0, float("nan")):
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\)"):
            sp.diagonalize(op, bound=bound)


SCAN_SECTORS = [(two_j, p) for p in (0.3, 0.5, 0.7) for two_j in (80, 320, 640, 1280)]


def walk_before(op, w, bound, scale):
    """The eigenvector walk as the full solve gives it: its leading columns up to the first block end
    past the precursor, with the distances over every column up to each block end."""
    V, _ = sp._inverse_iteration(op, w, scale)
    k = sp._SOLVE_ELEMENTS // op.dim
    for stop in [*range(k, op.dim, k), op.dim]:
        if sp._first_open_doublet(sp._distances(V[:, :stop]), bound) + 1 < stop:
            break
    return V[:, :stop]


@pytest.mark.parametrize("two_j,p", SCAN_SECTORS)
def test_walk_adds_only_new_distances(monkeypatch, two_j, p):
    # each block appends the distances of its own pairs; every list the stopping rule reads, and the
    # eigenvectors, are bitwise those of the walk that recomputed every distance after each block
    op = build_sector(ModelParams(two_j=two_j, p=p), 0)
    w, scale = sp.eigenvalues_only(op).real, sp._band_scale(op)
    seen, first_open = [], sp._first_open_doublet

    def reading(d, bound):
        seen.append(d.copy())
        return first_open(d, bound)

    monkeypatch.setattr(sp, "_first_open_doublet", reading)
    V, d_walk = sp._inverse_iteration(op, w, scale, 1e-4)
    monkeypatch.setattr(sp, "_first_open_doublet", first_open)
    before = walk_before(op, w, 1e-4, scale)
    assert V.flags.c_contiguous and V.tobytes() == before.tobytes()
    for d in seen:
        assert d.tobytes() == sp._distances(V[:, : len(d) + 1]).tobytes()
    assert len(seen[-1]) == V.shape[1] - 1
    assert d_walk.tobytes() == seen[-1].tobytes()
    assert sp.diagonalize(op, 1e-4).distances.tobytes() == sp._distances(before).tobytes()


@pytest.mark.parametrize("two_j,p", SCAN_SECTORS + [(640, 1.0), (320, -1.0)])
def test_diagonalize_computes_distances_once_per_block(monkeypatch, two_j, p):
    # one _inverse_iteration call per diagonalize walks the blocks and computes the distances of each
    # block once; the decomposition computes none of its own, and they are bitwise the distances over
    # all returned columns, with a bound or without; at p = +-1, where every shift is singular, the
    # restarts stay inside their block
    op = build_sector(ModelParams(two_j=two_j, p=p), 0)
    k = sp._SOLVE_ELEMENTS // op.dim
    calls = {"_distances": 0, "_inverse_iteration": 0}

    def counted(name):
        real = getattr(sp, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for bound in (1e-4, None):
        calls.update(_distances=0, _inverse_iteration=0)
        for name in calls:
            monkeypatch.setattr(sp, name, counted(name))
        dec = sp.diagonalize(op, bound)
        monkeypatch.undo()
        assert calls["_inverse_iteration"] == 1
        assert calls["_distances"] == -(-dec.right_eigenvectors.shape[1] // k)
        assert dec.distances.tobytes() == sp._distances(dec.right_eigenvectors).tobytes()
        assert not dec.distances.flags.writeable


@pytest.mark.parametrize("n", [9, 81, 1281])
def test_distances_of_a_one_pair_slice_are_that_entry(n):
    # a one-column block appends the distance of the pair across its column from two columns of
    # storage; it must be the bits of that entry over all columns (numpy sums a lone (n, 1) product
    # in another order)
    V = np.random.default_rng(n).standard_normal((n, 7))
    V /= np.linalg.norm(V, axis=0)
    full = sp._distances(V)
    for N in range(6):
        for pair in (V[:, N : N + 2], V[:, N : N + 2].copy()):
            assert sp._distances(pair).tobytes() == full[N : N + 1].tobytes()


@st.composite
def tridiagonals(draw):
    """(d, e) of size 2..300: normals times one power of ten, or entries spread over 1e-300..1e300."""
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # 1e+-147 and beyond: dstevd scales the matrix into range first
        scale = 10.0 ** draw(st.sampled_from([-307, -300, -200, -147, -50, 0, 50, 147, 200, 300, 307]))
        return rng.standard_normal(n) * scale, rng.standard_normal(n - 1) * scale
    return (rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n),
            rng.standard_normal(n - 1) * 10.0 ** rng.uniform(-300, 300, n - 1))


@settings(max_examples=300, deadline=None)
@given(tridiagonals())
def test_dstevd_binding_is_bitwise_scipys(bands):
    d, e = bands
    d0, e0 = d.copy(), e.copy()
    want, _, info = dstevd(d, e, compute_v=0)
    got, got_info = sp._dstevd_values(d, e)
    assert got_info == info
    assert got.tobytes() == want.tobytes()
    assert d.tobytes() == d0.tobytes() and e.tobytes() == e0.tobytes()  # the inputs are not written


def test_dstevd_binding_reports_info(monkeypatch):
    # a NaN coupling makes the QL iteration give up: info > 0, as from scipy's wrapper, and
    # eigenvalues_only raises it as an EigensolverError
    d, e = -np.arange(1.0, 6.0), np.array([1.0, np.nan, 1.0, 1.0])
    info = dstevd(d, e, compute_v=0)[2]
    assert info > 0 and sp._dstevd_values(d, e)[1] == info
    op = build_sector(ModelParams(two_j=4, p=0.5), 0)
    monkeypatch.setattr(sp, "_symmetric_coupling", lambda op: e)
    with pytest.raises(sp.EigensolverError, match=rf"dstevd failed \(info={info}\) \(two_j=4, M=0\)"):
        sp.eigenvalues_only(op)


def test_dstevd_binding_runs_without_the_interpreter_lock():
    # while one thread is inside the binding at n = 2001, the main thread keeps running Python
    # code; scipy's wrapper holds the lock and stalls it for the whole call
    rng = np.random.default_rng(3)
    d, e = rng.standard_normal(2001), np.abs(rng.standard_normal(2000))
    span, started = [], threading.Event()

    def call():
        started.set()
        t0 = time.perf_counter()
        sp._dstevd_values(d, e)
        span.extend((t0, time.perf_counter()))

    worker = threading.Thread(target=call)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        worker.start()
        assert started.wait(timeout=60)
        ticks = []
        while worker.is_alive():
            ticks.append(time.perf_counter())
        worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    t0, t1 = span
    # Python ran on the main thread all through the call: no pause as long as half of it (scipy's
    # wrapper leaves one pause as long as the whole call, between ticks at its two ends)
    marks = [t0] + [t for t in ticks if t0 < t < t1] + [t1]
    assert t1 - t0 > 5e-3
    assert max(np.diff(marks)) < 0.5 * (t1 - t0)


def test_diagonalize_each_is_diagonalize_in_order():
    ops = [build_sector(ModelParams(two_j=two_j, p=p, h=0.7), M)
           for two_j, p, M in ((40, 0.5, 0), (7, 0.3, 7), (320, 0.999, 0), (20, 1.0, 0), (128, 0.5, -3))]
    for bound in (None, 1e-6):
        got = list(sp.diagonalize_each(iter(ops), bound))
        assert len(got) == len(ops)
        for dec, op in zip(got, ops):
            want = sp.diagonalize(op, bound)
            for a, b in ((dec.eigenvalues, want.eigenvalues), (dec.right_eigenvectors, want.right_eigenvectors),
                         (dec.residual_norms, want.residual_norms), (dec.distances, want.distances)):
                assert a.tobytes() == b.tobytes()
    assert list(sp.diagonalize_each([])) == []


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs CPU affinity and two CPUs")
def test_diagonalize_each_helper_leaves_the_callers_cpu(monkeypatch):
    # a kernel that does not balance load keeps a new thread on its creator's CPU; the helper
    # moves to the caller's other CPUs, the ones _other_cpus reads on the calling thread
    allowed = os.sched_getaffinity(0)
    assert len(sp._other_cpus()) == len(allowed) - 1 and sp._other_cpus() < allowed
    target = {max(allowed)}
    seen, real = [], sp._band_eigenvalues

    def eigenvalues(op):
        seen.append(os.sched_getaffinity(0))
        return real(op)

    monkeypatch.setattr(sp, "_other_cpus", lambda: target)
    monkeypatch.setattr(sp, "_band_eigenvalues", eigenvalues)
    ops = [build_sector(ModelParams(two_j=two_j, p=0.5), 0) for two_j in (8, 12)]
    assert len(list(sp.diagonalize_each(ops))) == 2
    assert seen == [target, target]
    assert os.sched_getaffinity(0) == allowed  # the calling thread stays where it was


def test_diagonalize_each_raises_failures_in_order(monkeypatch):
    # every operator is built before any solve, so one that cannot be built is raised first; solve
    # failures keep the order of ops, and no eigenvalue solve starts after the first failure
    solved, real = [], sp._band_eigenvalues

    def eigenvalues(op):
        solved.append(op.dim)
        if op.dim == 13:
            raise sp.EigensolverError("no spectrum", two_j=12, M=0)
        return real(op)

    def ops(sizes, broken):
        for two_j in sizes:
            if two_j == broken:
                raise ValueError(f"cannot build 2j={two_j}")
            yield build_sector(ModelParams(two_j=two_j, p=0.5), 0)

    monkeypatch.setattr(sp, "_band_eigenvalues", eigenvalues)
    done = []
    with pytest.raises(ValueError, match="cannot build 2j=14"):
        for dec in sp.diagonalize_each(ops([8, 10, 12, 14, 16, 18], broken=14), 1e-4):
            done.append(dec.dim)
    assert done == [] and solved == []
    with pytest.raises(sp.EigensolverError, match="no spectrum"):
        for dec in sp.diagonalize_each(ops([8, 10, 12, 14, 16, 18], broken=None), 1e-4):
            done.append(dec.dim)
    assert done == [9, 11] and solved == [9, 11, 13]
    with pytest.raises(ValueError, match=r"must lie in \(0, 1\)"):
        next(sp.diagonalize_each(ops([8], broken=None), 1.0))


def test_structured_matches_qr_at_small_j():
    # the dense general eigensolver (LAPACK geev, QR iteration) as the oracle for values and vectors
    for p, M in ((0.5, 0), (0.3, 2), (0.0, -1)):
        op = build_sector(ModelParams(two_j=16, p=p), M)
        dec = sp.diagonalize(op)
        w, V = np.linalg.eig(op.to_dense())
        assert multiset_match_error(dec.eigenvalues, w) < 1e-9
        rows, cols = linear_sum_assignment(np.abs(dec.eigenvalues[:, None] - w[None, :]))
        V = V[:, cols] / np.linalg.norm(V[:, cols], axis=0)
        overlap = np.abs(np.einsum("ij,ij->j", dec.right_eigenvectors[:, rows], V.conj()))
        assert (1.0 - overlap).max() <= 1e-9


def test_distance_identical_and_orthogonal():
    sec = build_sector(ModelParams(two_j=2, p=0.0), 0).sector

    def definition(V):
        # d_N = 1 - |<N+1|N>|
        return np.array([1.0 - abs(np.vdot(V[:, N + 1], V[:, N])) for N in range(V.shape[1] - 1)])

    V = np.eye(3, dtype=complex)
    dec = sp.SpectralDecomposition(
        sector=sec, eigenvalues=np.array([0, -1, -3], complex),
        right_eigenvectors=V, residual_norms=np.zeros(3), operator_scale=1.0, distances=definition(V),
    )
    assert sp.eigenvector_distance(dec, 0) == pytest.approx(1.0)
    V2 = V.copy()
    V2[:, 1] = V2[:, 0]
    dec2 = sp.SpectralDecomposition(
        sector=sec, eigenvalues=dec.eigenvalues, right_eigenvectors=V2,
        residual_norms=np.zeros(3), operator_scale=1.0, distances=definition(V2),
    )
    assert sp.eigenvector_distance(dec2, 0) == pytest.approx(0.0)


def test_distance_index_error():
    dec = dec_for(2, 0.0)
    with pytest.raises(IndexError):
        sp.eigenvector_distance(dec, 2)


@pytest.mark.parametrize("two_j,p,M", [(40, 0.5, 0), (80, 0.7, 0), (30, 0.0, 3), (41, 0.99, -2), (320, 0.3, 0)])
def test_eigenvector_distance_is_pair_distances_entry(two_j, p, M):
    # one d_N formula: the single-pair accessor must agree to the last bit
    dec = dec_for(two_j, p, M)
    d = sp.pair_distances(dec)
    assert d is sp.pair_distances(dec) and not d.flags.writeable  # computed once, shared read-only
    assert [sp.eigenvector_distance(dec, N) for N in range(dec.dim - 1)] == d.tolist()


def test_doublet_members_rule():
    # doublets (1, 2) and (3, 4); eigenvalue 0 and the unpaired 5 never belong
    d = np.array([1e-9, 1e-9, 0.3, 0.2, 1e-9])
    assert sp.doublet_members(d, 1e-6).tolist() == [False, True, True, False, False, False]
    assert sp.doublet_members(d, 0.25).tolist() == [False, True, True, True, True, False]
    assert sp.doublet_members(np.array([]), 0.5).tolist() == [False]
    for bound in (0.0, 1.0, -1e-3, 2.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            sp.doublet_members(d, bound)


@pytest.mark.parametrize("two_j,p,M", [(1, 0.5, 0), (2, 0.5, 0), (21, 1.0, 0), (20, 1.0, 0), (80, 0.5, 0), (33, 0.9, 1)])
@pytest.mark.parametrize("gamma", [1e-6, 1e-3, 0.5])
def test_ep_scan_matches_doublet_walk(two_j, p, M, gamma):
    # the walk by its definition: stop at the first doublet (N, N+1) with d_N >= gamma
    dec = dec_for(two_j, p, M)
    d = sp.pair_distances(dec)
    prec = None
    for N in range(1, dec.dim - 1, 2):
        if d[N] >= gamma:
            prec = N + 1
            break
    res = sp.ep_scan(dec, gamma)
    assert res.precursor_index == prec
    assert res.precursor == (None if prec is None else complex(dec.eigenvalues[prec]))


def test_floor_cut_stops_at_first_floor_value():
    drawn = []

    def points():
        for x, d in [(1, 1e-3), (2, 1e-8), (3, 1e-13), (4, 1e-3)]:
            drawn.append(x)
            yield x, d

    xs, ds = sp.floor_cut(points())
    assert xs.tolist() == [1.0, 2.0]
    assert ds.tolist() == [1e-3, 1e-8]
    assert drawn == [1, 2, 3]  # nothing past the floor value is computed
    xs, ds = sp.floor_cut([(1, 1e-13)])
    assert len(xs) == len(ds) == 0


def test_d1_strictly_decreases_with_j():
    d20 = sp.eigenvector_distance(dec_for(40, 0.5), 1)
    d40 = sp.eigenvector_distance(dec_for(80, 0.5), 1)
    assert d40 < d20


def test_ep_scan_p0_no_pairs():
    dec = dec_for(20, 0.0)
    res = sp.ep_scan(dec, 1e-3)
    # the first doublet (1, 2) is open, so none is paired
    assert sp.pair_distances(dec)[1] >= 1e-3
    assert res.precursor_index == 2
    assert res.precursor == complex(dec.eigenvalues[2])


def test_ep_scan_p1_all_pairs_coalesced():
    dec = dec_for(20, 1.0)
    d = sp.pair_distances(dec)
    # doublets (1,2), (3,4), ... are exact; distances at the floor
    for n in range(1, (dec.dim - 1) // 2 + 1):
        assert d[2 * n - 1] <= 1e-12
    res = sp.ep_scan(dec, 1e-6)
    assert res.precursor is None
    assert res.precursor_index is None


def test_ep_scan_precursor_near_critical_value():
    # gamma below the collapsed-basis plateau resolves the boundary cleanly
    dec = dec_for(320, 0.5)
    res = sp.ep_scan(dec, 1e-4)
    assert res.precursor is not None
    lc = cf.critical_value_per_j(0.5, 1.0)
    rel = abs(res.precursor.real / 160 - lc) / abs(lc)
    assert rel < 0.10


def test_ep_scan_bound_insensitivity():
    # precursors for bounds below the plateau approach each other as j grows
    gaps = []
    for two_j in (80, 320):
        dec = dec_for(two_j, 0.5)
        r1 = sp.ep_scan(dec, 1e-4).precursor.real / (two_j / 2)
        r2 = sp.ep_scan(dec, 1e-6).precursor.real / (two_j / 2)
        gaps.append(abs(r1 - r2))
    assert gaps[1] < gaps[0] + 1e-12


def test_ep_scan_gamma_domain():
    dec = dec_for(4, 0.5)
    with pytest.raises(ValueError):
        sp.ep_scan(dec, 0.0)
    with pytest.raises(ValueError):
        sp.ep_scan(dec, 1.0)


def test_fit_power_law_exact():
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    fit = sp.fit_power_law(xs, xs**-1)
    assert fit.exponent == pytest.approx(-1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    fit = sp.fit_power_law(xs, 3 * xs**2)
    assert fit.exponent == pytest.approx(2.0, abs=1e-12)
    assert fit.prefactor == pytest.approx(3.0, rel=1e-12)


def test_fit_power_law_domain():
    with pytest.raises(ValueError):
        sp.fit_power_law([1, 2], [1, 2])
    with pytest.raises(ValueError):
        sp.fit_power_law([1, 2, 3], [1, -2, 3])


def test_fit_exponential_exact():
    xs = np.linspace(0, 5, 9)
    fit = sp.fit_exponential(xs, np.exp(-2 * xs))
    assert fit.exponent == pytest.approx(-2.0, abs=1e-12)
    fit = sp.fit_exponential(xs, np.full_like(xs, 2.7))
    assert fit.exponent == pytest.approx(0.0, abs=1e-12)


def test_doublet_distance_decay_fit():
    # d1(j) of sector M = 0 at p = 0.5, cut at the floor: the series scaling fits
    def points():
        for two_j in range(20, 121, 2):
            yield two_j / 2, sp.eigenvector_distance(dec_for(two_j, 0.5), 1)

    js, ds = sp.floor_cut(points())
    assert len(js) >= 3
    fit = sp.fit_exponential(js, ds)
    assert fit.exponent < 0
    assert fit.r_squared > 0.98


def test_density_of_states_flat_at_p0():
    # rotor spacings give a flat-ish density: no interior bin above 3x median
    dec = dec_for(80, 0.0)
    dos = sp.density_of_states(dec, 80, bins=12)
    counts = dos.density * np.diff(dos.bin_edges)
    interior = counts[1:-1]
    assert interior.max() <= 3 * max(np.median(counts), 1e-12)


def test_density_of_states_peak_near_critical():
    dec = dec_for(640, 0.5)
    dos = sp.density_of_states(dec, 640, bins=64)
    lc = cf.critical_value_per_j(0.5, 1.0)
    assert abs(dos.peak_location - lc) / abs(lc) < 0.10


def test_density_of_states_single_eigenvalue():
    op = build_sector(ModelParams(two_j=3, p=0.5), 3)
    dos = sp.density_of_states(sp.diagonalize(op), 3)
    assert dos.n_eigenvalues == 1
    assert len(dos.density) == 1


def test_density_of_states_validation():
    dec = dec_for(4, 0.5)
    with pytest.raises(ValueError):
        sp.density_of_states(dec, 4, bins=5)
    with pytest.raises(ValueError):
        sp.density_of_states([], 4)


def test_spectrum_dissipative_and_unique_zero():
    for p in (-0.6, 0.0, 0.4):
        decs = [dec_for(14, p, M) for M in range(-14, 15)]
        allw = np.concatenate([d.eigenvalues for d in decs])
        assert allw.real.max() <= 1e-10
        zero_in_m0 = np.sum(np.abs(dec_for(14, p, 0).eigenvalues) < 1e-10)
        assert zero_in_m0 == 1


def test_sector_conjugation_symmetry():
    params = ModelParams(two_j=12, p=0.5)
    for M in (1, 5):
        wp = sp.eigenvalues_only(build_sector(params, M))
        wm = sp.eigenvalues_only(build_sector(params, -M))
        assert multiset_match_error(wp, np.conj(wm)) < 1e-10


def test_triangular_spectrum_equals_diagonal():
    for p in (1.0, -1.0):
        op = build_sector(ModelParams(two_j=24, p=p), -3)
        dec = sp.diagonalize(op)
        assert multiset_match_error(dec.eigenvalues, op.diag + op.shift) < 1e-9


def test_kernel_dimension_at_doublet():
    params = ModelParams(two_j=12, p=1.0)
    op = build_sector(params, 0)
    # doublet value: any diagonal entry appearing twice
    vals, counts = np.unique(np.round(op.diag.real, 10), return_counts=True)
    doublet = vals[counts == 2][0]
    assert sp.kernel_dimension(op, doublet) == 1


def test_near_defective_flagging():
    dec = dec_for(60, 0.5)
    assert sp.pair_distances(dec)[1] < 1e-8  # first doublet is numerically coalesced at j=30


def test_eigenvalues_only_rejects_mixed_sign_bands():
    sec = sector_basis(ModelParams(two_j=4), 0)
    op = SectorOperator(
        sector=sec,
        diag=-np.arange(1.0, 6.0),
        upper=np.ones(4),
        lower=np.array([1.0, -1.0, 1.0, 1.0]),
        shift=0.0,
    )
    with pytest.raises(sp.EigensolverError, match="mixed sign"):
        sp.eigenvalues_only(op)
    with pytest.raises(sp.EigensolverError):
        sp.diagonalize(op)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("band", ["diag", "upper", "lower"])
def test_eigenvalues_only_rejects_non_finite_bands(band, value):
    bands = {"diag": -np.arange(1.0, 6.0), "upper": np.ones(4), "lower": np.ones(4)}
    bands[band][2] = value
    op = SectorOperator(sector=sector_basis(ModelParams(two_j=4), 0), shift=0.0, **bands)
    with pytest.raises(sp.EigensolverError, match=r"non-finite bands \(two_j=4, M=0\)"):
        sp.eigenvalues_only(op)
    with pytest.raises(sp.EigensolverError):
        sp.diagonalize(op)

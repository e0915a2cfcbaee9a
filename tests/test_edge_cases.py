"""Edge-of-domain behavior: the smallest spin, near-full polarization,
parameter-scaling properties, and the mirror symmetry in the bath sign."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinbath import dynamics as dyn
from spinbath import spectra as sp
from spinbath.closed_forms import thermal_ss
from spinbath.liouvillian import build_bruteforce, build_sector
from spinbath.model import ModelParams
from spinbath.verification import multiset_match_error


def test_spin_one_half_full_stack():
    params = ModelParams(two_j=1, p=0.4, h=0.9)
    union = []
    for M in (-1, 0, 1):
        dec = sp.diagonalize(build_sector(params, M))
        assert dec.residual_norms.max() < 1e-10 * dec.operator_scale
        union.append(dec.eigenvalues)
    err = multiset_match_error(build_bruteforce(params).eigenvalues(), np.concatenate(union))
    assert err < 1e-12
    rho0 = dyn.coherent_state(1, 0.7, 0.2)
    out = dyn.propagate(params, rho0, [0.0, 3.0])[-1]
    assert abs(out.trace() - 1.0) < 1e-12
    assert dyn.entropy(out) >= 0.0


def test_near_full_polarization_spectra():
    # p = 0.999 keeps both bands positive but extremely asymmetric
    params = ModelParams(two_j=60, p=0.999)
    dec = sp.diagonalize(build_sector(params, 0))
    assert np.all(np.isfinite(dec.right_eigenvectors))
    assert dec.residual_norms.max() < 1e-8 * dec.operator_scale
    assert dec.eigenvalues.real.max() < 1e-10
    # pointwise closeness to the triangular limit is only O(sqrt(1-p)) because
    # the pairs are second-order degeneracies; the robust statement is that
    # essentially the whole spectrum is already coalesced in pairs
    d = sp.pair_distances(dec)
    odd = np.arange(1, dec.dim - 1, 2)
    frac = np.mean(d[odd] < 1e-6)
    assert frac > 0.75  # boundary pairs at the spectrum bottom still resolve


@settings(max_examples=25, deadline=None)
@given(
    two_j=st.integers(1, 24),
    M=st.integers(-6, 6),
    gamma=st.floats(0.25, 4.0),
    h=st.floats(-2.0, 2.0),
    p=st.sampled_from([-0.8, -0.3, 0.0, 0.3, 0.8]),
)
def test_spectrum_scales_linearly_in_gamma(two_j, M, gamma, h, p):
    # at gamma0 = 0 real parts are proportional to Gamma and Im(lambda) = h M
    if abs(M) > two_j:
        return
    w1 = sp.eigenvalues_only(build_sector(ModelParams(two_j=two_j, h=h, gamma=1.0, p=p), M))
    wg = sp.eigenvalues_only(build_sector(ModelParams(two_j=two_j, h=h, gamma=gamma, p=p), M))
    assert np.allclose(wg.real, gamma * w1.real, atol=1e-10 * gamma * two_j)
    assert np.allclose(wg.imag, h * M, atol=1e-12)


def test_slowdown_mirror_in_bath_sign():
    # flipping p mirrors the state; the normalized relaxation curve is invariant
    ts = np.linspace(0.0, 2.0, 9)
    plus, minus = ModelParams(two_j=80, p=0.5), ModelParams(two_j=80, p=-0.5)
    plus_numeric, plus_theory = dyn.slowdown_experiment(plus, 0.0, 0.1, ts)
    minus_numeric, minus_theory = dyn.slowdown_experiment(minus, 0.0, 0.1, ts)
    assert np.allclose(plus_numeric, minus_numeric, atol=1e-10)
    assert np.allclose(plus_theory, minus_theory, atol=1e-12)
    assert thermal_ss(plus).jz == pytest.approx(-thermal_ss(minus).jz, abs=1e-10)


def test_scalar_liouville_space():
    # two_j = 1 corner sectors are scalars with no dynamics inside
    params = ModelParams(two_j=1, p=0.0)
    op = build_sector(params, 1)
    assert op.dim == 1
    dec = sp.diagonalize(op)
    assert dec.eigenvalues[0] == pytest.approx(op.diag[0] + op.shift)
    dos = sp.density_of_states(dec, 1)
    assert dos.n_eigenvalues == 1

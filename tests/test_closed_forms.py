import math

import numpy as np
import pytest

from spinbath import closed_forms as cf
from spinbath.liouvillian import build_sector
from spinbath.model import ModelParams
from spinbath.spectra import _band_scale, diagonalize, eigenvalues_only, kernel_dimension
from spinbath.verification import multiset_match_error


def table_entry(tri, m):
    """The entry of triangular_solution's table at the label m."""
    (k,) = np.flatnonzero(np.abs(tri.m_labels - m) < 1e-9)
    return tri.eigenvalues[k]


def test_triangular_eigenvalue_examples():
    tri = cf.triangular_solution(ModelParams(two_j=2, h=1.0, gamma=1.0, p=1.0), 0)
    assert tri.m_labels.tolist() == [-1.0, 0.0, 1.0]
    assert table_entry(tri, -1) == pytest.approx(0.0, abs=1e-14)
    assert table_entry(tri, 0) == pytest.approx(-2.0, abs=1e-14)
    assert table_entry(tri, 1) == pytest.approx(-2.0, abs=1e-14)


def test_triangular_requires_full_polarization():
    with pytest.raises(ValueError):
        cf.triangular_solution(ModelParams(two_j=2, p=0.5), 0)


def test_triangular_distinct_count_j20():
    params = ModelParams(two_j=40, p=1.0)
    tri = cf.triangular_solution(params, 0)
    distinct = len(np.unique(np.round(tri.eigenvalues.real, 9)))
    assert distinct == 21  # j+1 for integer j


@pytest.mark.parametrize("p", [1.0, -1.0])
@pytest.mark.parametrize("M", [0, 1, -2, 5])
def test_triangular_matches_numerics(p, M):
    params = ModelParams(two_j=17, h=0.8, gamma=1.2, gamma0=0.4, p=p)
    tri = cf.triangular_solution(params, M)
    w = eigenvalues_only(build_sector(params, M))
    assert multiset_match_error(w, tri.eigenvalues) < 1e-9


def test_pairing_involution_and_exceptions():
    for two_j, M in ((16, 0), (16, 3), (11, -2)):
        for p in (1.0, -1.0):
            params = ModelParams(two_j=two_j, p=p)
            tri = cf.triangular_solution(params, M)
            for m, partner in tri.pairing.items():
                assert tri.pairing[partner] == pytest.approx(m)
                lam_m = table_entry(tri, m)
                lam_p = table_entry(tri, partner)
                assert lam_m == pytest.approx(lam_p, abs=1e-12)
            # extremal exception: m = -j+M for M >= 0, m = -j for M <= 0 at
            # p = +1; the p = -1 case is the mirror image
            j = params.j
            if p > 0:
                expected = -j + M if M >= 0 else -j
            else:
                expected = j if M >= 0 else j + M
            assert any(abs(e - expected) < 1e-12 for e in tri.exceptions)
            if M % 2 != 0:
                assert any(abs(e - (M + p) / 2) < 1e-12 for e in tri.exceptions)


def test_triangular_eigenvector_residuals():
    params = ModelParams(two_j=21, h=1.0, gamma=1.0, p=1.0)
    for M in (0, 2, -1):
        op = build_sector(params, M)
        tri = cf.triangular_solution(params, M)
        sec = op.sector
        labels = list(tri.exceptions) + [min(m, q) for m, q in tri.pairing.items() if m < q]
        assert labels
        for m_label in labels:
            vec = cf.triangular_eigenvector(params, m_label, M)
            lam = table_entry(tri, m_label)
            res = np.linalg.norm(op.matvec(vec) - lam * vec)
            assert res <= 1e-9 * _band_scale(op) * np.linalg.norm(vec)


@pytest.mark.parametrize("p", [1.0, -1.0])
def test_triangular_eigenvector_finite_at_large_j(p):
    # products of the chain's ratios in linear space overflow from 2j = 560 (p = 1, M = 0, label 51)
    params = ModelParams(two_j=1000, p=p)
    op = build_sector(params, 0)
    tri = cf.triangular_solution(params, 0)
    member = min if p > 0 else max  # the other member of each pair is the defective one
    labels = list(tri.exceptions) + sorted(member(m, q) for m, q in tri.pairing.items())[::60]
    for m_label in labels:
        vec = cf.triangular_eigenvector(params, m_label, 0)
        assert np.all(np.isfinite(vec)), m_label
        res = np.linalg.norm(op.matvec(vec) - table_entry(tri, m_label) * vec)
        assert res <= 1e-12 * _band_scale(op) * np.linalg.norm(vec), m_label


def test_triangular_eigenvector_steady_state():
    # p=1, M=0 steady state terminates at m=-j with unit head
    params = ModelParams(two_j=6, p=1.0)
    vec = cf.triangular_eigenvector(params, -3.0, 0)
    assert vec[0] == 1.0
    assert np.allclose(vec[1:], 0.0)


def test_triangular_eigenvector_defective_chain():
    params = ModelParams(two_j=8, p=1.0)
    tri = cf.triangular_solution(params, 0)
    upper_member = max((max(m, q) for m, q in tri.pairing.items()))
    with pytest.raises(cf.DefectiveChainError):
        cf.triangular_eigenvector(params, upper_member, 0)


def test_kernel_dimension_one_at_doublets():
    params = ModelParams(two_j=14, p=1.0)
    op = build_sector(params, 0)
    tri = cf.triangular_solution(params, 0)
    for m, q in tri.pairing.items():
        if m < q:
            assert kernel_dimension(op, table_entry(tri, m)) == 1


def test_o3_eigenvalue_examples():
    assert cf.o3_eigenvalue(ModelParams(two_j=4, p=0.0), 0, 0) == 0.0
    assert cf.o3_eigenvalue(ModelParams(two_j=2, gamma=1.0, p=0.0), 2, 0) == pytest.approx(-3.0)
    lam = cf.o3_eigenvalue(ModelParams(two_j=2, gamma=1.0, h=1.0, p=0.0), 1, 1)
    assert lam == pytest.approx(-0.5 + 1j, abs=1e-14)


def test_o3_eigenvalue_domain():
    with pytest.raises(ValueError):
        cf.o3_eigenvalue(ModelParams(two_j=2, p=0.5), 1, 0)
    with pytest.raises(ValueError):
        cf.o3_eigenvalue(ModelParams(two_j=2, p=0.0), 3, 0)
    with pytest.raises(ValueError):
        cf.o3_eigenvalue(ModelParams(two_j=2, p=0.0), 1, 2)


@pytest.mark.parametrize("M", [0, 1, -4, 7])
def test_o3_matches_numerics(M):
    params = ModelParams(two_j=19, h=1.0, gamma=1.0, p=0.0)
    ref = np.array([cf.o3_eigenvalue(params, K, M) for K in range(abs(M), 20)])
    w = eigenvalues_only(build_sector(params, M))
    assert multiset_match_error(w, ref) < 1e-9


def test_cg_textbook_values():
    assert cf.clebsch_gordan(0.5, 0.5, 0.5, -0.5, 1, 0) == pytest.approx(1 / math.sqrt(2))
    for j, m in ((2, 1), (3.5, -1.5), (10, 4)):
        want = (-1) ** round(j - m) / math.sqrt(2 * j + 1)
        assert cf.clebsch_gordan(j, m, j, -m, 0, 0) == pytest.approx(want, rel=1e-12)


def test_cg_selection_rules_return_zero():
    assert cf.clebsch_gordan(1, 0, 1, 1, 2, 0) == 0.0  # m1+m2 != M
    assert cf.clebsch_gordan(1, 0, 1, 0, 3, 0) == 0.0  # triangle violated


from hypothesis import given, strategies as st


@given(
    tj1=st.integers(1, 8),
    tj2=st.integers(1, 8),
    tm1=st.integers(-8, 8),
    tm2=st.integers(-8, 8),
    data=st.data(),
)
def test_cg_exchange_symmetry(tj1, tj2, tm1, tm2, data):
    # <j1 m1, j2 m2|K M> = (-1)^(j1+j2-K) <j2 m2, j1 m1|K M>
    if abs(tm1) > tj1 or abs(tm2) > tj2 or (tj1 + tm1) % 2 or (tj2 + tm2) % 2:
        return
    K = data.draw(st.integers(abs(tj1 - tj2) // 2, (tj1 + tj2) // 2))
    if (tj1 + tj2) % 2 != 0:
        return  # keep K integer-valued for this property
    a = cf.clebsch_gordan(tj1 / 2, tm1 / 2, tj2 / 2, tm2 / 2, K, (tm1 + tm2) / 2)
    b = cf.clebsch_gordan(tj2 / 2, tm2 / 2, tj1 / 2, tm1 / 2, K, (tm1 + tm2) / 2)
    phase = (-1) ** round((tj1 + tj2) / 2 - K)
    assert a == pytest.approx(phase * b, abs=1e-12)


def test_cg_orthogonality_j20():
    two_j = 40
    j = 20.0
    for K, Kp in ((0, 0), (7, 7), (7, 8), (40, 40), (0, 1)):
        s = sum(
            cf.clebsch_gordan(j, m / 2, j, -m / 2, K, 0) * cf.clebsch_gordan(j, m / 2, j, -m / 2, Kp, 0)
            for m in range(-two_j, two_j + 1, 2)
        )
        assert s == pytest.approx(1.0 if K == Kp else 0.0, abs=1e-12)


@pytest.mark.parametrize("two_j", [80, 160])
def test_cg_table_orthogonal_at_large_j(two_j):
    # summed in floating point, the Racah sum gives |C^T C - I| = 8.2e-8 at 2j = 80 and 6.7e2 at 160
    C = np.array([[cf.clebsch_gordan(two_j / 2, m / 2, two_j / 2, -m / 2, K, 0) for K in range(two_j + 1)]
                  for m in range(-two_j, two_j + 1, 2)])
    assert np.abs(C.T @ C - np.eye(two_j + 1)).max() <= 1e-12


def test_o3_expectation_reduces_to_closed_laws():
    from spinbath.dynamics import coherent_state, expectation

    params = ModelParams(two_j=10, h=1.0, gamma=1.0, p=0.0)
    rho = coherent_state(10, np.pi / 2, 0.0)
    jx0 = expectation(rho, "jx")
    jz_rho = coherent_state(10, 0.9, 0.3)
    jz0 = expectation(jz_rho, "jz")
    ts = np.array([0.0, 0.8, 2.5])
    assert cf.o3_expectation(params, rho, "jx", ts) == pytest.approx(jx0 * np.exp(-ts / 10) * np.cos(ts), abs=1e-10)
    assert cf.o3_expectation(params, jz_rho, "jz", ts) == pytest.approx(jz0 * np.exp(-ts / 5), abs=1e-10)


def test_o3_expectation_t0_is_trace():
    from spinbath.dynamics import coherent_state

    params = ModelParams(two_j=6, h=1.0, gamma=1.0, p=0.0)
    rho = coherent_state(6, 1.2, 0.7)
    rng = np.random.default_rng(3)
    O = rng.standard_normal((7, 7))
    O = O + O.T
    want = float(np.real(np.trace(rho.to_dense() @ O)))
    assert cf.o3_expectation(params, rho, O, 0.0) == pytest.approx(want, abs=1e-10)


def test_o3_expectation_over_times_is_each_time_alone():
    # a time array fills each sector's Clebsch-Gordan matrix once; every entry carries the bits of
    # the call at that time alone, and a scalar time gives a float
    from spinbath.dynamics import coherent_state

    params = ModelParams(two_j=12, h=0.7, gamma=1.0, gamma0=0.2, p=0.0)
    rho = coherent_state(12, 1.1, 0.4)
    ts = np.array([0.0, 0.3, 2.0, 7.5])
    for obs in ("jz", "jx"):
        got = cf.o3_expectation(params, rho, obs, ts)
        assert got.shape == ts.shape
        alone = [cf.o3_expectation(params, rho, obs, t) for t in ts]
        assert all(type(v) is float for v in alone)
        assert got.tobytes() == np.array(alone).tobytes()


def test_o3_expectation_against_propagation_at_large_j():
    # <Jz^2> of |m = 0> is exactly 0 at t = 0; Clebsch-Gordan coefficients summed in
    # floating point gave 1.3e5 at 2j = 160
    from spinbath.dynamics import fock_state, propagate

    two_j = 160
    params = ModelParams(two_j=two_j, p=0.0)
    rho = fock_state(two_j, 0.0)
    ms = -two_j / 2 + np.arange(two_j + 1)
    ts = [0.0, 0.5, 3.0]
    want = [float(np.sum(ms**2 * state.sectors[0].real)) for state in propagate(params, rho, ts)]
    assert cf.o3_expectation(params, rho, np.diag(ms**2), ts) == pytest.approx(want, abs=1e-9)


def _tl_generator(p, nmax, gamma=1.0):
    """Independent truncated large-j generator on the diagonal boson sector."""
    n = np.arange(nmax + 1)
    A = np.zeros((nmax + 1, nmax + 1))
    A[n, n] = -(1 - p) - 2.0 * n
    A[n[1:], n[1:] - 1] = (1 - p) * n[1:]
    A[n[:-1], n[:-1] + 1] = (1 + p) * (n[:-1] + 1)
    return gamma * A


def test_hp_states_polarization_limit():
    hp = cf.hp_states(ModelParams(two_j=40, p=0.98))
    # geometric ratio alpha = (1 - p)/(1 + p)
    assert hp.steady_state[1] / hp.steady_state[0] == pytest.approx(0.02 / 1.98)
    assert hp.steady_state[0] > 0.98
    assert hp.steady_state.argmax() == 0  # concentrated on m = -j


def test_hp_states_domain():
    for p in (0.0, 1.0, -1.0):
        with pytest.raises(ValueError):
            cf.hp_states(ModelParams(two_j=10, p=p))


def test_hp_omega_values():
    p = 0.5
    log_om, sign = cf._log_omega(p, 20)
    om = sign * np.exp(log_om)
    assert om[0] == 1.0
    assert om[1] == pytest.approx(-(1 + 2 * p) / (1 + p))
    assert om[2] == pytest.approx(p / (1 + p) ** 2)
    for n in range(3, 21):
        assert om[n] == pytest.approx(om[2] * (2 * p / (1 + p)) ** (n - 2) / math.comb(n, 2), rel=1e-14)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_hp_jordan_pair_defining_equation(p):
    # (L_TL - lambda1) eigvec = 0 and (L_TL - lambda1) gen = kappa * eigvec,
    # exactly away from the truncation boundary
    two_j = 600
    hp = cf.hp_states(ModelParams(two_j=two_j, p=p))
    L = _tl_generator(p, two_j)
    lam1 = hp.lambda1.real
    r_eig = (L @ hp.eigvec - lam1 * hp.eigvec)[: two_j - 10]
    assert np.abs(r_eig).max() < 1e-12
    r_gen = (L @ hp.gen_eigvec - lam1 * hp.gen_eigvec - hp.jordan_scale * hp.eigvec)[: two_j - 10]
    assert np.abs(r_gen).max() < 1e-10


def test_hp_steady_state_annihilated():
    p = 0.4
    two_j = 500
    hp = cf.hp_states(ModelParams(two_j=two_j, p=p))
    L = _tl_generator(p, two_j)
    assert np.abs((L @ hp.steady_state)[: two_j - 10]).max() < 1e-12


def test_hp_lambda1_matches_finite_size_doublet():
    # finite-j doublet converges onto -2|p|Gamma
    hp = cf.hp_states(ModelParams(two_j=320, p=0.5))
    dec = diagonalize(build_sector(ModelParams(two_j=320, p=0.5), 0))
    assert hp.lambda1 == pytest.approx(-1.0)
    assert abs(dec.eigenvalues[1].real - hp.lambda1.real) < 0.01
    assert abs(dec.eigenvalues[2].real - hp.lambda1.real) < 0.01


def test_hp_doublet_tower():
    # lambda1 = -2|p|Gamma; the finite-j sector M = 0 holds 0, then the
    # doublet at lambda1 and the next one at 2 lambda1
    hp = cf.hp_states(ModelParams(two_j=20, gamma=1.5, p=0.5))
    assert hp.lambda1 == pytest.approx(-1.5)
    dec = diagonalize(build_sector(ModelParams(two_j=320, gamma=1.5, p=0.5), 0))
    tower = [0.0, hp.lambda1.real, hp.lambda1.real, 2 * hp.lambda1.real, 2 * hp.lambda1.real]
    assert np.allclose(dec.eigenvalues[:5].real, tower, atol=0.05)


def test_hp_mirror_negative_p():
    a = cf.hp_states(ModelParams(two_j=30, p=0.6))
    b = cf.hp_states(ModelParams(two_j=30, p=-0.6))
    assert np.allclose(b.steady_state, a.steady_state[::-1])
    assert b.lambda1 == a.lambda1


def test_thermal_ss_p0():
    th = cf.thermal_ss(ModelParams(two_j=8, p=0.0))
    assert th.jz == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(th.coefficients, 1.0 / 9)


def test_thermal_ss_magnetization_sign_limit():
    for p in (0.4, -0.4):
        th = cf.thermal_ss(ModelParams(two_j=600, p=p))
        assert th.jz / 300 == pytest.approx(-np.sign(p), abs=0.01)


def test_thermal_ss_null_vector():
    params = ModelParams(two_j=40, p=0.3, gamma0=0.7)
    op = build_sector(params, 0)
    vec = cf.thermal_ss(params).coefficients.astype(complex)
    assert np.linalg.norm(op.matvec(vec)) <= 1e-12 * _band_scale(op)


def test_thermal_ss_beta_partition_function():
    params = ModelParams(two_j=14, p=0.25, h=0.8)
    th = cf.thermal_ss(params)
    j = params.j
    ms = -j + np.arange(params.hilbert_dim)
    # rho_SS = exp(beta h Jz)/Z with exp(beta h) = (1 - p)/(1 + p)
    beta_h = math.log((1 - params.p) / (1 + params.p))
    Z_direct = np.sum(np.exp(beta_h * ms))
    assert th.coefficients == pytest.approx(np.exp(beta_h * ms) / Z_direct, rel=1e-12)
    jz_direct = np.sum(ms * np.exp(beta_h * ms)) / Z_direct
    assert th.jz == pytest.approx(jz_direct, rel=1e-12)


def test_thermal_ss_full_polarization():
    th = cf.thermal_ss(ModelParams(two_j=10, p=1.0))
    assert th.coefficients[0] == 1.0
    assert th.jz == -5.0


def test_critical_value_per_j():
    assert cf.critical_value_per_j(0.5, 1.0) == pytest.approx(-(1 - math.sqrt(0.75)), rel=1e-15)
    assert cf.critical_value_per_j(0.5, 1.0) == pytest.approx(-0.133975, abs=1e-6)  # the old default
    for p in (0.3, 0.7, 0.9):
        assert cf.critical_value_per_j(-p, 2.0) == cf.critical_value_per_j(p, 2.0)
        assert cf.critical_value_per_j(p, 2.0) == pytest.approx(-2.0 * (1 - math.sqrt(1 - p * p)), rel=1e-14)
    assert cf.critical_value_per_j(1.0, 1.0) == -1.0
    assert cf.critical_value_per_j(0.0, 1.0) == 0.0
    # no cancellation at small p: -p^2/2 (1 + p^2/4 + ...)
    assert cf.critical_value_per_j(1e-10, 1.0) == pytest.approx(-5e-21, rel=1e-15)


def test_ep_halflife_values():
    assert cf.ep_halflife(-2.0, False) == pytest.approx(0.3466, abs=1e-3)
    assert cf.ep_halflife(-2.0, True) == pytest.approx(0.5731, abs=1e-3)
    ratio = cf.ep_halflife(-2.0, True) / cf.ep_halflife(-2.0, False)
    assert ratio - 1 == pytest.approx(0.65, abs=0.01)


def test_ep_halflife_domain():
    with pytest.raises(ValueError):
        cf.ep_halflife(0.5, True)


def brentq_halflife(lam: float) -> float:
    """The rank-2 half-life as scipy's brentq solves (1 + t) e^{lam t} = 1/2, to xtol = 1e-12."""
    from scipy.optimize import brentq

    t_plain = math.log(2.0) / abs(lam)

    def f(t):
        return (1 + t) * math.exp(lam * t) - 0.5

    hi = t_plain
    while f(hi) > 0:
        hi *= 2
    return brentq(f, t_plain / 4, hi, xtol=1e-12)


LAMBDAS = [float(lam) for lam in -np.logspace(-3, math.log10(50), 300)]


def test_ep_halflife_matches_brentq():
    # brentq stops within its xtol of the root: near lam = -4.1 it lands 2.4e-13 (1.1e-12 relative)
    # away, so its xtol is the absolute slack next to the 1e-12 relative one
    for lam in LAMBDAS:
        assert cf.ep_halflife(lam, True) == pytest.approx(brentq_halflife(lam), rel=1e-12, abs=1e-12)


def test_ep_halflife_solves_the_envelope_to_rounding():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for lam in LAMBDAS[::10] + [-50.0, -1e-3]:
            t = cf.ep_halflife(lam, True)
            root = mpmath.findroot(lambda s: (1 + s) * mpmath.exp(lam * s) - mpmath.mpf(1) / 2, t)
            assert abs(t - root) <= 1e-15 * root
    assert cf.ep_halflife(-1e-308, True) == math.inf  # the root lies past the double range

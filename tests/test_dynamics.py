import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from spinbath import closed_forms as cf
from spinbath import dynamics as dyn
from spinbath.liouvillian import build_bruteforce, build_sector
from spinbath.model import ModelParams, ladder_coeff
from spinbath.output import parse_time_grid


def random_hermitian_state(two_j, seed):
    rng = np.random.default_rng(seed)
    N = two_j + 1
    A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    rho = A @ A.conj().T
    rho /= np.trace(rho).real
    return dyn.VectorizedDensityMatrix.from_dense(two_j, rho)


def test_from_dense_round_trip():
    rho = random_hermitian_state(5, 1)
    again = dyn.VectorizedDensityMatrix.from_dense(5, rho.to_dense())
    assert np.allclose(again.to_dense(), rho.to_dense(), atol=1e-14)
    assert rho.trace() == pytest.approx(1.0)
    assert rho.hermiticity_defect() < 1e-12


def test_fock_and_mixed_states():
    rho = dyn.fock_state(6, 2.0)
    assert dyn.expectation(rho, "jz") == pytest.approx(2.0)
    mixed = dyn.VectorizedDensityMatrix(6, {0: np.full(7, 1.0 / 7, dtype=complex)})
    assert dyn.expectation(mixed, "jz") == pytest.approx(0.0, abs=1e-14)
    assert dyn.entropy(mixed) == pytest.approx(math.log(7), abs=1e-12)


def test_expectation_against_dense_trace():
    rho = random_hermitian_state(7, 5)
    dense = rho.to_dense()
    j = 3.5
    ms = -j + np.arange(8)
    Jz = np.diag(ms)
    Jp = np.zeros((8, 8))
    Jp[np.arange(1, 8), np.arange(7)] = np.sqrt(j * (j + 1) - ms[:-1] * (ms[:-1] + 1))
    Jx = (Jp + Jp.T) / 2
    Jy = (Jp - Jp.T) / 2j
    assert dyn.expectation(rho, "jz") == pytest.approx(np.trace(dense @ Jz).real, abs=1e-12)
    assert dyn.expectation(rho, "jx") == pytest.approx(np.trace(dense @ Jx).real, abs=1e-12)
    assert dyn.expectation(rho, "jy") == pytest.approx(np.trace(dense @ Jy).real, abs=1e-12)


@pytest.mark.parametrize("two_j", [1, 2, 7, 20, 81])
def test_jx_jy_of_sector_minus_one_alone_equal_its_mirror(two_j):
    # sector -1 alone is read through its conjugate, with the bits of the state holding that as +1
    rng = np.random.default_rng(two_j)
    v = rng.normal(size=two_j) + 1j * rng.normal(size=two_j)
    minus = dyn.VectorizedDensityMatrix(two_j, {-1: v})
    plus = dyn.VectorizedDensityMatrix(two_j, {1: np.conj(v)})
    both = dyn.VectorizedDensityMatrix(two_j, {1: np.conj(v), -1: v})
    for obs in ("jx", "jy"):
        want = dyn.expectation(plus, obs)
        assert dyn.expectation(minus, obs) == want
        assert dyn.expectation(both, obs) == want
    j = two_j / 2
    ms = -j + np.arange(two_j + 1)
    Jp = np.diag(np.sqrt(j * (j + 1) - ms[:-1] * (ms[:-1] + 1)), -1)
    dense = both.to_dense()
    assert dyn.expectation(both, "jx") == pytest.approx(np.trace(dense @ (Jp + Jp.T) / 2).real, abs=1e-12)
    assert dyn.expectation(both, "jy") == pytest.approx(np.trace(dense @ (Jp - Jp.T) / 2j).real, abs=1e-12)


def test_coherent_state_examples():
    up = dyn.coherent_state(8, 0.0, 0.0)
    assert dyn.expectation(up, "jz") == pytest.approx(4.0)
    along_x = dyn.coherent_state(20, math.pi / 2, 0.0)
    assert dyn.expectation(along_x, "jx") == pytest.approx(10.0, abs=1e-10)
    dense = along_x.to_dense()
    assert np.trace(dense).real == pytest.approx(1.0, abs=1e-12)
    assert np.trace(dense @ dense).real == pytest.approx(1.0, abs=1e-12)


def test_entropy_examples():
    pure = dyn.fock_state(10, 5.0)
    assert dyn.entropy(pure) == pytest.approx(0.0, abs=1e-12)
    assert math.copysign(1.0, dyn.entropy(pure)) == 1.0  # +0.0: CSVs print 0, not -0
    with pytest.raises(dyn.PositivityError):
        bad = dyn.fock_state(2, 1.0)
        bad.sectors[0] = np.array([-0.5, 0.5, 1.0], dtype=complex)
        dyn.entropy(bad)


def test_entropy_of_diagonal_state_matches_eigvalsh():
    params = ModelParams(two_j=20, p=0.3)
    for s in dyn.propagate(params, dyn.fock_state(20, 10.0), [0.5, 4.0, 30.0]):
        dense = s.to_dense()
        w = np.clip(np.linalg.eigvalsh(0.5 * (dense + dense.conj().T)), 0.0, None)
        w = w[w > 0]
        assert dyn.entropy(s) == pytest.approx(float(-np.sum(w * np.log(w))), abs=1e-14)


def test_entropy_of_diagonal_state_positivity_rules():
    state = dyn.VectorizedDensityMatrix(2, {0: np.array([-1e-7, 0.5, 0.5 + 1e-7], dtype=complex)})
    with pytest.raises(dyn.PositivityError):
        dyn.entropy(state)
    # roundoff-sized negatives are clipped, as on the dense path
    state.sectors[0] = np.array([-1e-9, 0.5, 0.5 + 1e-9], dtype=complex)
    assert dyn.entropy(state) == pytest.approx(math.log(2), abs=1e-8)


def _counting_expm(monkeypatch):
    calls = []
    expm = dyn.expm

    def counting(A):
        calls.append(A.shape)
        return expm(A)

    monkeypatch.setattr(dyn, "expm", counting)
    return calls


@pytest.mark.parametrize("p, n_expm", [(0.0, 0), (0.3, 10)])
def test_propagate_one_expm_per_sector_on_uniform_grid(monkeypatch, p, n_expm):
    # np.linspace steps differ in the last ulp; they must share one exponential.
    # Only M = 0..10 are propagated (the coherent start is exactly mirrored);
    # symmetric sectors (all of them at p = 0, and the 1-dimensional sector
    # M = 10 at any p) take the orthogonal eigenbasis and no expm.
    calls = _counting_expm(monkeypatch)
    rho0 = dyn.coherent_state(10, 1.0, 0.3)
    dyn.propagate(ModelParams(two_j=10, p=p, h=0.9), rho0, np.linspace(0, 3, 61))
    assert len(rho0.sectors) == 21
    assert len(calls) == n_expm


@pytest.mark.parametrize("grid, n_expm", [("lin:0:3:61", 0), ("lin:0:3000:121", 1)])
def test_propagate_chooses_banded_pade_on_short_horizons(monkeypatch, grid, n_expm):
    # sector 0 of 2j = 320 has n = 321 and needs S = 300 substeps over the short grid,
    # where 80 S <= n^2 picks the banded Pade path; the long grid needs S = 241560,
    # where one expm and its squarings are far cheaper
    calls = _counting_expm(monkeypatch)
    dyn.propagate(ModelParams(two_j=320, p=0.5), dyn.fock_state(320, 160.0), parse_time_grid(grid))
    assert len(calls) == n_expm


_BAND_PROPAGATE = dyn._pade_band_propagate


def _recording_band_path(monkeypatch):
    """The arguments of each banded propagation, and one entry per dgbmv call."""
    seen, products = [], []
    dgbmv = dyn.dgbmv

    def recording(op, steps, substeps, u0):
        seen.append((op, steps, substeps, u0))
        return _BAND_PROPAGATE(op, steps, substeps, u0)

    def counting(*args, **kwargs):
        products.append(1)
        return dgbmv(*args, **kwargs)

    monkeypatch.setattr(dyn, "_pade_band_propagate", recording)
    monkeypatch.setattr(dyn, "dgbmv", counting)
    return seen, products


@pytest.mark.parametrize("two_j", [160, 320])
def test_real_sector0_start_takes_one_banded_column(monkeypatch, two_j):
    # the imaginary column of a real start is 0 throughout, so it costs no dgbmv and no dgbtrs
    # column; the real column keeps the bits it has when a nonzero second column rides along
    seen, products = _recording_band_path(monkeypatch)
    pops = np.random.default_rng(two_j).random(two_j + 1)
    rho0 = dyn.VectorizedDensityMatrix(two_j, {0: (pops / pops.sum()).astype(complex)})
    states = dyn.propagate(ModelParams(two_j=two_j, p=0.5), rho0, parse_time_grid("lin:0:3:61"))
    ((op, steps, substeps, u0),) = seen
    assert op.sector.M == 0
    assert len(products) == substeps.sum() > 0
    both = u0.copy()
    both[:, 1] = u0[::-1, 0]
    want = _BAND_PROPAGATE(op, steps, substeps, both)[..., 0]
    V = np.array([s.sectors[0] for s in states])
    assert V.real.tobytes() == want.tobytes()
    assert np.all(V.imag == 0)


def test_complex_start_takes_two_banded_columns(monkeypatch):
    seen, products = _recording_band_path(monkeypatch)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(160) + 1j * rng.standard_normal(160)
    dyn.propagate(ModelParams(two_j=160, p=0.5), dyn.VectorizedDensityMatrix(160, {1: v}),
                  parse_time_grid("lin:0:3:61"))
    ((op, _, substeps, _),) = seen
    assert op.sector.M == 1
    assert len(products) == 2 * substeps.sum() > 0


def _expectation_one(rho, which):
    """<J> of one state, one sum per state: the reference for the rows of a list."""
    j = rho.j
    if which == "jz":
        val = complex(np.sum((-j + np.arange(rho.two_j + 1)) * rho.sectors[0]))
        assert abs(val.imag) <= 1e-10 * max(1.0, abs(val.real))
        return val.real
    v = rho.sectors[1] if 1 in rho.sectors else np.conj(rho.sectors[-1])
    jminus = complex(np.sum(v * ladder_coeff(j, -j + 1 + np.arange(len(v)), "lower")))
    return jminus.real if which == "jx" else -jminus.imag


def _entropy_one(rho):
    """Entropy of one state, one sum per state: the reference for the rows of a list."""
    if rho.sectors.keys() == {0}:
        w = rho.sectors[0].real
    else:
        dense = rho.to_dense()
        w = np.linalg.eigvalsh(0.5 * (dense + dense.conj().T))
    w = np.clip(w, 0.0, None)
    w = w[w > 0]
    return float(-np.sum(w * np.log(w)) + 0.0)


def _clipped_population_states():
    # 41 populations per state; ten states hold a roundoff-sized negative, each at its own
    # place, that entropy clips to 0, one holds an exact 0 and one no zero.  Summing the
    # zeros with the rest, in place, would move other terms to other partial sums
    rng = np.random.default_rng(11)
    states = []
    for low in [-5e-9] * 10 + [0.0, 1e-3]:
        pops = rng.random(41)
        pops[rng.integers(41)] = low
        states.append(dyn.VectorizedDensityMatrix(40, {0: (pops / pops.sum()).astype(complex)}))
    return states


@pytest.mark.parametrize("case", ["coherent", "fock-p0", "clipped"])
def test_observables_of_a_list_equal_each_state_bitwise(case):
    if case == "coherent":
        states = dyn.propagate(ModelParams(two_j=10, p=0.3, h=0.9), dyn.coherent_state(10, 1.1, 0.4),
                               np.linspace(0.0, 3.0, 13))
        names = ("jz", "jx", "jy")
    elif case == "fock-p0":
        states = dyn.propagate(ModelParams(two_j=40, p=0.0), dyn.fock_state(40, 20.0),
                               parse_time_grid("lin:0:1000:21"))
        names = ("jz",)
    else:
        states = _clipped_population_states()
        names = ("jz",)
    for name in names:
        got = dyn.expectation(states, name)
        assert got.dtype == np.float64 and got.shape == (len(states),)
        assert got.tobytes() == np.array([_expectation_one(s, name) for s in states]).tobytes()
        assert type(dyn.expectation(states[-1], name)) is float
    got = dyn.entropy(states)
    assert got.dtype == np.float64 and got.shape == (len(states),)
    assert got.tobytes() == np.array([_entropy_one(s) for s in states]).tobytes()
    assert type(dyn.entropy(states[-1])) is float


def test_observables_of_a_list_raise_as_for_one_state():
    states = _clipped_population_states()
    pops = states[1].sectors[0] = states[1].sectors[0].copy()
    pops[3] = -1e-7
    with pytest.raises(dyn.PositivityError, match="negative eigenvalue -1.000e-07"):
        dyn.entropy(states)
    pops[3] = 1e-3j
    with pytest.raises(ValueError, match="expectation value not real"):
        dyn.expectation(states, "jz")
    with pytest.raises(ValueError, match="no M=\\+-1 sectors"):
        dyn.expectation(states, "jx")
    with pytest.raises(ValueError, match="states of different sizes"):
        dyn.expectation([states[0], dyn.fock_state(4, 2.0)], "jz")


def test_substeps_do_not_depend_on_the_field(monkeypatch):
    # e^{i h M t} is applied after the real bands are exponentiated, so h must not size their
    # substeps: a norm that held |h*M| gave every sector M != 0 more substeps at h = 1e4
    calls = []
    pade, expm = dyn._pade13_band, dyn.expm

    def counting_pade(op, tau):
        calls.append(("pade", op.sector.M, tau))
        return pade(op, tau)

    def counting_expm(A):
        calls.append(("expm", A.shape, float(np.abs(A).max())))
        return expm(A)

    monkeypatch.setattr(dyn, "_pade13_band", counting_pade)
    monkeypatch.setattr(dyn, "expm", counting_expm)
    runs = []
    for h in (1.0, 1e4):
        calls.clear()
        dyn.propagate(ModelParams(two_j=80, p=0.5, h=h), dyn.coherent_state(80, 1.2, 0.3), parse_time_grid("lin:0:3:61"))
        runs.append(list(calls))
    assert runs[0] and runs[0] == runs[1]


def expm_substepped(A):
    """exp(A) as expm(A / k)^k with ||A / k||_1 <= 1.

    scipy's one-shot expm of sector M = 1 at 2j = 45, p = +-1 (t = 0.25 or 1) is 0.5% off
    the mpmath value at 40 digits; this product is within 1.3e-15 of it.
    """
    k = max(1, math.ceil(np.abs(A).sum(axis=0).max()))
    return np.linalg.matrix_power(expm(A / k), k)


@settings(max_examples=25, deadline=None)
@given(two_j=st.integers(28, 120), p=st.floats(-1.0, 1.0).filter(lambda p: abs(p) >= 1e-9),
       gamma0=st.floats(0.0, 1.0), t_max=st.floats(1e-3, 1.0), seed=st.integers(0, 10_000))
@example(two_j=45, p=1.0, gamma0=0.0, t_max=1.0, seed=0)
@example(two_j=45, p=-1.0, gamma0=0.0, t_max=1.0, seed=0)
def test_banded_pade_path_matches_dense_expm(two_j, p, gamma0, t_max, seed):
    # sectors 0 and 1 of 2j >= 28 have at least 28 rows and, over 4 intervals of t_max <= 1,
    # few enough substeps for the banded path (the -1 sector is filled by conjugation)
    params = ModelParams(two_j=two_j, p=p, gamma0=gamma0, h=0.7)
    full = random_hermitian_state(two_j, seed)
    rho0 = dyn.VectorizedDensityMatrix(two_j, {M: full.sectors[M] for M in (-1, 0, 1)})
    ts = np.linspace(0.0, t_max, 5)
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_expm(mp)
        states = dyn.propagate(params, rho0, ts)
    assert calls == []
    for t, s in zip(ts, states):
        for M in (0, 1):
            want = expm_substepped(build_sector(params, M).to_dense() * t) @ rho0.sectors[M]
            assert np.abs(s.sectors[M] - want).max() <= 1e-12
        assert abs(s.trace() - rho0.trace()) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(two_j=st.integers(1, 40), theta=st.floats(0.0, math.pi), phi=st.floats(-7.0, 7.0))
def test_coherent_state_sectors_exactly_mirrored(two_j, theta, phi):
    s = dyn.coherent_state(two_j, theta, phi).sectors
    assert all(np.array_equal(s[-M], np.conj(s[M])) for M in s)


def _counting_build_sector(monkeypatch):
    built = []
    build = dyn.build_sector

    def counting(params, M):
        built.append(M)
        return build(params, M)

    monkeypatch.setattr(dyn, "build_sector", counting)
    return built


@pytest.mark.parametrize("p", [0.0, 0.3])
def test_propagate_fills_mirrored_sectors_by_conjugation(monkeypatch, p):
    built = _counting_build_sector(monkeypatch)
    rho0 = dyn.coherent_state(10, 1.1, 0.4)
    states = dyn.propagate(ModelParams(two_j=10, p=p, h=0.9), rho0, np.linspace(0, 3, 7))
    assert sorted(built) == list(range(11))
    for s in states:
        assert list(s.sectors) == list(rho0.sectors)
        for M in range(1, 11):
            assert np.array_equal(s.sectors[-M], np.conj(s.sectors[M]))


def _dense_propagation(params, rho0, t):
    # exp(t L) on the brute-force N^2 x N^2 Liouvillian, whose index a*N + b is rho[a, b]
    N = params.two_j + 1
    vec = expm(build_bruteforce(params).matrix * t) @ rho0.to_dense().ravel()
    return dyn.VectorizedDensityMatrix.from_dense(params.two_j, vec.reshape(N, N))


def _unmirrored_states(two_j):
    rng = np.random.default_rng(3)
    N = two_j + 1
    general = dyn.VectorizedDensityMatrix.from_dense(
        two_j, rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
    near = dyn.coherent_state(two_j, 1.1, 0.4)
    near.sectors[-2] = near.sectors[-2].copy()
    near.sectors[-2][0] = np.nextafter(near.sectors[-2][0].real, 1.0) + 1j * near.sectors[-2][0].imag
    lonely = dyn.VectorizedDensityMatrix(two_j, {M: general.sectors[M] for M in (0, -1, -3, 2)})
    return {"general": (general, set(range(-two_j, two_j + 1))),
            "one-ulp-off": (near, set(range(two_j + 1)) | {-2}),
            "no-partner": (lonely, {0, -1, -3, 2})}


@pytest.mark.parametrize("p", [0.0, 0.5])
@pytest.mark.parametrize("case", ["general", "one-ulp-off", "no-partner"])
def test_propagate_unmirrored_sectors_explicitly(monkeypatch, p, case):
    params = ModelParams(two_j=5, p=p, h=0.8, gamma0=0.3)
    rho0, propagated = _unmirrored_states(5)[case]
    built = _counting_build_sector(monkeypatch)
    ts = [0.0, 0.6, 2.5]
    states = dyn.propagate(params, rho0, ts)
    assert set(built) == propagated and len(built) == len(propagated)
    for t, s in zip(ts, states):
        want = _dense_propagation(params, rho0, t)
        assert s.sectors.keys() == rho0.sectors.keys()
        for M, v in s.sectors.items():
            assert np.abs(v - want.sectors[M]).max() <= 1e-12


def test_propagate_fixes_steady_state():
    for p in (-0.7, 0.0, 0.5):
        params = ModelParams(two_j=12, p=p)
        ss = dyn.VectorizedDensityMatrix(12, {0: cf.thermal_ss(params).coefficients.astype(complex)})
        out = dyn.propagate(params, ss, [0.0, 1.0, 7.5])
        for s in out:
            assert np.abs(s.sectors[0] - ss.sectors[0]).max() < 1e-12


def test_propagate_jz_decay_matches_o3():
    params = ModelParams(two_j=10, h=1.0, gamma=1.0, p=0.0)
    rho0 = dyn.fock_state(10, 5.0)
    ts = [0.0, 0.5, 1.5, 4.0]
    states = dyn.propagate(params, rho0, ts)
    for t, s in zip(ts, states):
        want = 5.0 * math.exp(-t / 5)
        assert dyn.expectation(s, "jz") == pytest.approx(want, abs=1e-8)


def test_propagate_full_polarization_limit():
    params = ModelParams(two_j=10, p=1.0)
    rho0 = dyn.coherent_state(10, 1.0, 0.5)
    final = dyn.propagate(params, rho0, [60.0])[0]
    assert dyn.expectation(final, "jz") == pytest.approx(-5.0, abs=1e-8)


def test_propagate_conservation_and_positivity():
    for two_j, p in ((9, 0.0), (9, 0.5), (9, -0.5), (9, 1.0), (9, -1.0), (80, 0.5)):
        params = ModelParams(two_j=two_j, p=p)
        rho0 = dyn.coherent_state(two_j, 1.2, 2.2)
        for s in dyn.propagate(params, rho0, [0.0, 2.0, 10.0]):
            assert abs(s.trace() - 1.0) < 1e-10
            assert s.hermiticity_defect() < 1e-10
            w = np.linalg.eigvalsh(s.to_dense())
            assert w.min() > -1e-10


def test_propagate_semigroup():
    params = ModelParams(two_j=8, p=0.4, h=0.7)
    rho0 = random_hermitian_state(8, 11)
    a = dyn.propagate(params, rho0, [0.9])[0]
    b = dyn.propagate(params, a, [1.4])[0]
    c = dyn.propagate(params, rho0, [2.3])[0]
    for M in c.sectors:
        assert np.abs(b.sectors[M] - c.sectors[M]).max() < 1e-8


def test_propagate_time_validation():
    params = ModelParams(two_j=4, p=0.0)
    rho0 = dyn.fock_state(4, 1.0)
    with pytest.raises(ValueError):
        dyn.propagate(params, rho0, [0.0, math.inf])
    with pytest.raises(ValueError):
        dyn.propagate(params, rho0, [1.0, 0.5])


def test_negative_polarization_drives_upward():
    params = ModelParams(two_j=16, p=-0.6)
    rho0 = dyn.fock_state(16, -8.0)
    jz = [dyn.expectation(s, "jz") for s in dyn.propagate(params, rho0, [0.0, 5.0, 30.0, 80.0])]
    assert jz[-1] > jz[0]
    assert jz[-1] == pytest.approx(cf.thermal_ss(params).jz, abs=1e-6)
    assert np.sign(cf.thermal_ss(ModelParams(two_j=600, p=-0.6)).jz) == 1.0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.sampled_from([0.0, 0.5, -0.5, 0.3]))
def test_propagation_preserves_trace_hermiticity_property(seed, p):
    params = ModelParams(two_j=6, p=p)
    rho0 = random_hermitian_state(6, seed)
    out = dyn.propagate(params, rho0, [3.3])[0]
    assert abs(out.trace() - 1.0) < 1e-10
    assert out.hermiticity_defect() < 1e-10


def test_o3_oracle_equivalence_through_propagation():
    params = ModelParams(two_j=8, h=1.0, gamma=1.0, p=0.0)
    rho0 = dyn.coherent_state(8, 1.1, 0.4)
    ts = [0.3, 1.7]
    states = dyn.propagate(params, rho0, ts)
    for obs in ("jz", "jx"):
        assert dyn.expectation(states, obs) == pytest.approx(cf.o3_expectation(params, rho0, obs, ts), abs=1e-8)


def test_slowdown_pure_exponential_when_b_zero():
    params = ModelParams(two_j=120, p=0.5)
    ts = np.linspace(0, 2, 11)
    numeric, theory = dyn.slowdown_experiment(params, a=0.05, b=0.0, times=ts)
    # theory collapses to exp(lambda1 t)
    assert np.allclose(theory, np.exp(-1.0 * ts), atol=1e-12)
    assert np.abs(numeric - theory).max() < 0.05


def test_slowdown_rejects_nonphysical_state():
    params = ModelParams(two_j=80, p=0.5)
    with pytest.raises(ValueError, match="positive"):
        dyn.slowdown_experiment(params, a=0.0, b=0.8, times=[0.0, 1.0])


def test_slowdown_positivity_edge_b_sixth():
    params = ModelParams(two_j=320, p=0.5)
    numeric, theory = dyn.slowdown_experiment(params, a=0.0, b=1 / 6, times=[0.0])
    assert numeric[0] == pytest.approx(1.0) and theory[0] == pytest.approx(1.0)
    hp = cf.hp_states(params)
    rho_vec = hp.steady_state + hp.gen_eigvec / 6
    assert (rho_vec / rho_vec.sum()).min() > -1e-10


def test_btc_curves():
    params = ModelParams(two_j=2, h=1.0, gamma=1.0, p=0.0)
    ts = np.linspace(0, 8, 33)
    curves = dyn.btc_experiment(params, [20, 40], ts, cross_check_max_two_j=20)
    c10 = curves[0]
    assert c10[0] == pytest.approx(1.0)
    t = 2 * 10.0  # 2j/Gamma for j=10
    envelope10 = math.exp(-t / (2 * 10.0))
    envelope20 = math.exp(-t / (2 * 20.0))
    assert envelope10 == pytest.approx(math.exp(-1.0))
    assert envelope20 == pytest.approx(math.exp(-0.5))
    # large-j limit: pure cosine
    (big,) = dyn.btc_experiment(params, [4000], ts)
    assert np.abs(big - np.cos(ts)).max() < 0.01
    # any coherent start and any dephasing: e^{-(Gamma+Gamma0) t/(2j)} sin(theta) cos(h t + phi)
    for two_j in (8, 13):
        for gamma0 in (0.0, 0.5, 0.7):
            pg = ModelParams(two_j=two_j, h=1.0, gamma=1.0, gamma0=gamma0, p=0.0)
            (vals,) = dyn.btc_experiment(pg, [two_j], ts, cross_check_max_two_j=two_j, theta=1.0, phi=0.4)
            law = np.exp(-(1.0 + gamma0) * ts / two_j) * math.sin(1.0) * np.cos(ts + 0.4)
            states = dyn.propagate(pg, dyn.coherent_state(two_j, 1.0, 0.4), ts)
            num = np.array([dyn.expectation(s, "jx") / (two_j / 2) for s in states])
            assert np.abs(vals - law).max() < 1e-15
            assert np.abs(num - law).max() < 1e-13


@pytest.mark.parametrize("gamma0", [0.0, 1e308])
def test_btc_huge_rate_decays_without_warning(gamma0):
    # Gamma t overflows the exponent (and Gamma + Gamma0 itself at gamma0 = 1e308, giving inf * 0 at
    # t = 0); RuntimeWarnings are errors here, so any numpy overflow warning fails this test
    ts = parse_time_grid("lin:0:3:61")
    (vals,) = dyn.btc_experiment(ModelParams(two_j=4, gamma=1e308, gamma0=gamma0, p=0.0), [4], ts)
    assert vals[0] == 1.0
    assert np.all(vals[1:] == 0)


@pytest.mark.parametrize("grid", ["lin:0:3:61", "lin:0:3000:121"])
def test_propagate_p0_large_j_against_closed_form(grid):
    # the eigenbasis path at a size no other test propagates at p = 0
    params = ModelParams(two_j=160, h=0.9, gamma0=0.3, p=0.0)
    ts = parse_time_grid(grid)
    dyn.btc_experiment(params, [160], ts, cross_check_max_two_j=160, theta=1.1, phi=0.4)
    states = dyn.propagate(params, dyn.coherent_state(160, 1.1, 0.4), ts)
    assert max(abs(s.trace() - 1) for s in states) <= 1e-10
    assert max(s.hermiticity_defect() for s in states) <= 1e-10


def test_p0_sector0_keeps_the_trace_at_long_horizons():
    # dstevd returns the steady state's eigenvalue 0 as +-O(eps ||R||); taken as it is, the trace
    # drifted linearly in t, and the entropy at t = 1e15 read 3.404 for ln 41
    ts = parse_time_grid("lin:0:1e15:3")
    states = dyn.propagate(ModelParams(two_j=40, p=0.0), dyn.fock_state(40, 20.0), ts)
    assert abs(states[-1].trace() - 1) <= 1e-12
    assert dyn.entropy(states[-1]) == pytest.approx(math.log(41), abs=1e-12)


@pytest.mark.parametrize("t", [1e17, 1e30])
def test_p0_sector0_at_huge_times_raises_no_warning(t):
    # RuntimeWarnings are errors here; a positive eigenvalue of size eps overflowed e^{lam t} at 1e30
    (state,) = dyn.propagate(ModelParams(two_j=2, p=0.0), dyn.fock_state(2, 1.0), [t])
    assert abs(state.trace() - 1) <= 1e-12
    assert dyn.entropy(state) == pytest.approx(math.log(3), abs=1e-12)


def test_btc_requires_p0():
    with pytest.raises(ValueError, match="requires p = 0"):
        dyn.btc_experiment(ModelParams(two_j=4, p=0.5), [4], [0.0, 1.0])


def test_btc_returns_one_curve_per_listed_size_in_order():
    # repeated sizes are kept, each in its place
    params = ModelParams(two_j=8, h=1.0, gamma=1.0, p=0.0)
    ts = np.linspace(0, 4, 9)
    curves = dyn.btc_experiment(params, [16, 8, 16], ts, cross_check_max_two_j=16)
    assert len(curves) == 3
    for two_j, curve in zip([16, 8, 16], curves):
        np.testing.assert_array_equal(curve, np.exp(-ts / two_j) * np.cos(ts))
    assert not np.array_equal(curves[0], curves[1])

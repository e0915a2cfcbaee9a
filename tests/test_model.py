import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinbath.model import ModelParams, ladder_coeff, sector_basis


def test_ladder_top_of_ladder_vanishes():
    assert ladder_coeff(1, 1, "raise") == 0.0


def test_ladder_sqrt2():
    assert ladder_coeff(1, 0, "raise") == pytest.approx(math.sqrt(2), abs=1e-15)


def test_ladder_bottom_vanishes():
    assert ladder_coeff(20, -20, "lower") == 0.0


def test_ladder_out_of_range_raises():
    with pytest.raises(ValueError):
        ladder_coeff(1, 1.5, "raise")
    with pytest.raises(ValueError):
        ladder_coeff(1, -2, "lower")
    with pytest.raises(ValueError):
        ladder_coeff(1, 0, "sideways")


@given(two_j=st.integers(1, 60), two_m=st.integers(-60, 59))
def test_ladder_raise_lower_symmetry(two_j, two_m):
    # matrix element <m+1|J+|m> equals <m|J-|m+1>
    j = two_j / 2
    m = two_m / 2
    if abs(m) > j or m + 1 > j or (two_m - two_j) % 2 != 0:
        return
    assert ladder_coeff(j, m, "raise") == pytest.approx(ladder_coeff(j, m + 1, "lower"), rel=1e-15)


def test_sector_basis_j1():
    sec = sector_basis(ModelParams(two_j=2), 0)
    assert sec.dim == 3
    assert np.allclose(sec.m_values(), [-1, 0, 1])
    sec = sector_basis(ModelParams(two_j=2), 2)
    assert sec.dim == 1
    assert np.allclose(sec.m_values(), [1])


def test_sector_basis_j20():
    sec = sector_basis(ModelParams(two_j=40), -5)
    assert sec.dim == 36


def test_sector_basis_domain_error():
    with pytest.raises(ValueError):
        sector_basis(ModelParams(two_j=2), 3)


@given(two_j=st.integers(1, 40))
def test_sector_dims_partition_liouville_space(two_j):
    params = ModelParams(two_j=two_j)
    total = sum(sector_basis(params, M).dim for M in range(-two_j, two_j + 1))
    assert total == (two_j + 1) ** 2


@pytest.mark.parametrize(
    "kwargs",
    [
        {"two_j": 0},
        {"two_j": 2, "gamma": 0.0},
        {"two_j": 2, "gamma": -1.0},
        {"two_j": 2, "p": 1.2},
        {"two_j": 2, "gamma0": -0.1},
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        ModelParams(**kwargs)


@pytest.mark.parametrize("name", ["h", "gamma", "gamma0", "p"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ModelParams(two_j=2, **{name: value})


def test_params_dimensions():
    params = ModelParams(two_j=5)
    assert params.j == 2.5
    assert params.hilbert_dim == 6


def test_ladder_array_ends_vanish_exactly():
    for two_j in (1, 2, 7, 80):
        j = two_j / 2
        ms = -j + np.arange(two_j + 1)
        up = ladder_coeff(j, ms, "raise")
        down = ladder_coeff(j, ms, "lower")
        assert up.shape == down.shape == ms.shape
        assert up[-1] == 0.0 and down[0] == 0.0
        assert np.all(up[:-1] > 0) and np.all(down[1:] > 0)
    assert ladder_coeff(1.0, np.array([-1.0, 0.0, 1.0]), "raise")[1] == pytest.approx(math.sqrt(2), abs=1e-15)


def test_ladder_array_out_of_range_raises():
    with pytest.raises(ValueError, match="out of range"):
        ladder_coeff(1.0, np.array([-1.0, 0.0, 1.5]), "raise")
    with pytest.raises(ValueError, match="out of range"):
        ladder_coeff(1.0, np.array([-2.0, 0.0]), "lower")

"""multiset_match_error, the bottleneck distance between two eigenvalue multisets."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from spinbath.verification import multiset_match_error


def brute_force(a, b) -> float:
    """min over every pairing of the largest pair distance, from the same distance table."""
    cost = np.abs(a[:, None] - b[None, :])
    n = len(a)
    return min(max((cost[i, perm[i]] for i in range(n)), default=0.0)
               for perm in itertools.permutations(range(n)))


values = st.floats(-4, 4, allow_nan=False).map(lambda x: round(x, 1))


@st.composite
def pairs_of_sets(draw):
    """Two sets of 0..6 values: exact repeats, 1e-12 splits, one shared line or scattered points."""
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["repeated", "split", "line", "lines", "scattered"]))
    if kind == "repeated":
        # few distinct values, so both sets repeat some exactly
        pool = draw(st.lists(values, min_size=1, max_size=3))
        a = np.array([draw(st.sampled_from(pool)) for _ in range(n)], dtype=complex)
        b = np.array([draw(st.sampled_from(pool)) for _ in range(n)], dtype=complex)
    elif kind == "split":
        # coalesced doublets as the exceptional phase has them: each value twice, split by 1e-12
        centres = [complex(draw(values), draw(values)) for _ in range((n + 1) // 2)]
        a = np.array((centres * 2)[:n])
        signs = [draw(st.sampled_from([-1, 1])) for _ in range(n)]
        b = a[::-1] + 1e-12 * np.array(signs) * draw(st.sampled_from([1, 1j, 1 + 1j]))
    elif kind in ("line", "lines"):
        # sector spectra: each set on one horizontal line (the same line, or two)
        a = np.array([draw(values) for _ in range(n)]) + 0.5j
        b = np.array([draw(values) for _ in range(n)]) + (0.5j if kind == "line" else 1j * draw(values))
    else:
        # complex points off one line
        a = np.array([complex(draw(values), draw(values)) for _ in range(n)])
        b = np.array([complex(draw(values), draw(values)) for _ in range(n)])
    return a, b


@settings(max_examples=400, deadline=None)
@given(pairs_of_sets())
def test_matches_brute_force_over_permutations(sets):
    a, b = sets
    assert multiset_match_error(a, b) == brute_force(a, b)
    assert multiset_match_error(b, a) == brute_force(b, a)


@settings(max_examples=100, deadline=None)
@given(pairs_of_sets(), st.sampled_from([math.inf, -math.inf, math.nan, complex(math.nan, 0),
                                         complex(0, math.inf)]), st.data())
def test_non_finite_entry_gives_inf(sets, bad, data):
    a, b = sets
    if not len(a):
        return
    a = a.copy()
    a[data.draw(st.integers(0, len(a) - 1))] = bad
    assert multiset_match_error(a, b) == math.inf
    assert multiset_match_error(b, a) == math.inf


@pytest.mark.parametrize("n", [1, 2, 5, 13, 29, 60])
def test_well_separated_sets_give_the_assignment_distance(n):
    # each value of b lies near its own value of a, so the least-sum assignment is the bottleneck one
    rng = np.random.default_rng(n)
    for _ in range(20):
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = a[rng.permutation(n)] + 1e-9 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        cost = np.abs(a[:, None] - b[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert multiset_match_error(a, b) == cost[rows, cols].max()


def test_degenerate_pairs_of_the_triangular_limit():
    # every value twice, as at p = +-1, against a copy whose doublets split by 1e-12 off the line
    centres = -np.arange(30.0) + 2j
    a = np.repeat(centres, 2)
    b = a[::-1] + 1e-12 * np.tile([1, 1j], 30)
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert multiset_match_error(a, b) == cost[rows, cols].max() == pytest.approx(1e-12)
    assert multiset_match_error(a, a[::-1]) == 0.0


def test_mismatched_shapes_give_inf_and_empty_sets_zero():
    assert multiset_match_error([1.0, 2.0], [1.0]) == math.inf
    assert multiset_match_error(np.zeros(3), np.zeros((3, 1))) == math.inf
    assert multiset_match_error([], []) == 0.0
    assert multiset_match_error(np.array([], complex), np.array([], complex)) == 0.0

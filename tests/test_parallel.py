"""meanfield's deterministic reduction and ordered parallel mapping."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vortexloc.meanfield import map_ordered, pairwise_sum


@given(st.lists(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), max_size=300))
def test_pairwise_sum_tracks_exact_summation(values):
    exact = math.fsum(values)
    scale = sum(abs(v) for v in values) + 1.0
    assert abs(pairwise_sum(values) - exact) <= 1e-12 * scale


def test_pairwise_sum_of_nothing_is_zero():
    assert pairwise_sum([]) == 0.0
    assert pairwise_sum([3.5]) == 3.5


def test_pairwise_sum_reduces_identical_array_terms_exactly():
    # trajectory averaging relies on this: equal terms sum without rounding
    arr = np.array([1.0, 2.0, 4.0])
    total = pairwise_sum([arr.copy() for _ in range(8)])
    assert np.array_equal(total, 8.0 * arr)


@pytest.mark.parametrize("threads", [1, 3])
def test_map_ordered_preserves_input_order(threads):
    items = list(range(40))[::-1]
    assert map_ordered(lambda v: v * v, items, threads=threads) == [v * v for v in items]


def test_map_ordered_is_thread_count_invariant():
    items = [0.1 * k for k in range(25)]

    def fn(v):
        return math.sin(v) ** 2

    assert map_ordered(fn, items, threads=4) == map_ordered(fn, items, threads=1)

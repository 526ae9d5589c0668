import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqclass.simplex import (
    as_dist,
    clamp_rows,
    compositions,
    empirical,
    grid_array,
    grid_count,
    sample_iid,
    satisfies_floor,
    stream_seed,
)


def test_as_dist_validates():
    np.testing.assert_allclose(as_dist([0.5, 0.5]), [0.5, 0.5])
    with pytest.raises(ValueError):
        as_dist([0.5, 0.6])
    with pytest.raises(ValueError):
        as_dist([1.1, -0.1])


def test_empirical_counts():
    t = empirical([0, 1, 1, 1], 2)
    assert t.n == 4
    np.testing.assert_allclose(t.dist, [0.25, 0.75])


def test_empirical_degenerate():
    np.testing.assert_allclose(empirical([0, 0], 2).dist, [1.0, 0.0])


def test_empirical_concentrates():
    # DKW-style check: 10^4 draws land L1-close to the law in >= 99% of runs
    p = np.array([0.6, 0.4])
    good = 0
    for seed in range(100):
        x = sample_iid(p, 10_000, stream_seed(seed))
        if np.abs(empirical(x, 2).dist - p).sum() < 0.05:
            good += 1
    assert good >= 99


def test_sample_point_mass():
    assert list(sample_iid(np.array([1.0, 0.0]), 5, stream_seed(3))) == [0] * 5


def test_sample_mean_clt():
    x = sample_iid(np.array([0.5, 0.5]), 100_000, stream_seed(7))
    sigma = 0.5 / math.sqrt(100_000)
    assert abs(x.mean() - 0.5) < 3 * sigma


def test_stream_seed_distinct_and_stable():
    a = sample_iid(np.array([0.5, 0.5]), 50, stream_seed(1, 0, 0))
    b = sample_iid(np.array([0.5, 0.5]), 50, stream_seed(1, 0, 0))
    c = sample_iid(np.array([0.5, 0.5]), 50, stream_seed(1, 0, 1))
    assert (a == b).all()
    assert (a != c).any()


def test_grid_binary_m4():
    pts = grid_array(2, 4)
    want = {(0.0, 1.0), (0.25, 0.75), (0.5, 0.5), (0.75, 0.25), (1.0, 0.0)}
    assert {tuple(r) for r in pts} == want


@given(st.integers(2, 4), st.integers(1, 12))
@settings(max_examples=30, deadline=None)
def test_grid_count_matches_enumeration(d, m):
    pts = list(compositions(d, m))
    assert len(pts) == grid_count(d, m) == math.comb(m + d - 1, d - 1)
    assert all(sum(c) == m for c in pts)


def test_clamp_interior_untouched():
    np.testing.assert_allclose(clamp_rows(np.array([[0.5, 0.5]]), 0.01), [[0.5, 0.5]])


def test_clamp_single_deficient():
    np.testing.assert_allclose(clamp_rows(np.array([[1.0, 0.0]]), 0.01), [[0.99, 0.01]])


def test_clamp_multi_deficient_near_optimal():
    p = np.array([0.995, 0.004, 0.001])
    q = clamp_rows(p[None, :], 0.01)[0]
    assert satisfies_floor(q, 0.01)
    assert abs(q.sum() - 1.0) < 1e-12
    # exhaustive L1 search over the eps-floored grid
    pg = grid_array(3, 500, eps=0.01)
    best = np.abs(pg - p).sum(axis=1).min()
    assert np.abs(q - p).sum() <= best + 1e-2


@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5))
@settings(max_examples=60, deadline=None)
def test_clamp_rows_always_valid(raw):
    v = np.asarray(raw)
    if v.sum() <= 0:
        v = np.ones_like(v)
    v = v / v.sum()
    eps = 0.01
    out = clamp_rows(v[None, :], eps)[0]
    assert satisfies_floor(out, eps)
    assert abs(out.sum() - 1.0) < 1e-9

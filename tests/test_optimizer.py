import math

import numpy as np
import pytest

from seqclass import divergence as dv
from seqclass.optimizer import (
    ALWAYS_TRUE,
    SearchConfig,
    check_pair_grid,
    min_simplex_pair,
)
from seqclass.simplex import grid_array

TARGET = np.array([0.37, 0.63])


def kl_to(t):
    """Pair objective KL(a||t), constant over the second block."""
    return lambda A, B: np.repeat(dv.kl_rows(A, t)[:, None], B.shape[0], axis=1)


def separable(t1, t2):
    return lambda A, B: dv.kl_rows(A, t1)[:, None] + dv.kl_rows(B, t2)[None, :]


def test_min_simplex_finds_target():
    res = min_simplex_pair(kl_to(TARGET), ALWAYS_TRUE, 2)
    assert res.feasible_found
    assert res.value == pytest.approx(0.0, abs=1e-8)
    np.testing.assert_allclose(res.argmin[0], TARGET, atol=1e-4)


def test_min_simplex_infeasible():
    never = lambda A, B: A[:, 0][:, None] + B[:, 0][None, :] > 2.0
    res = min_simplex_pair(kl_to(TARGET), never, 2)
    assert not res.feasible_found
    assert math.isinf(res.value)
    assert res.argmin is None


def test_refinement_improves_on_coarse():
    cfg0 = SearchConfig(coarse_m=50, refine_rounds=0)
    cfg3 = SearchConfig(coarse_m=50, refine_rounds=3)
    obj = separable(TARGET, np.array([0.5, 0.5]))
    v0 = min_simplex_pair(obj, ALWAYS_TRUE, 2, cfg0).value
    v3 = min_simplex_pair(obj, ALWAYS_TRUE, 2, cfg3).value
    assert v3 <= v0 + 1e-15
    assert v3 < 1e-6 < v0


def test_min_simplex_constraint_respected():
    # minimize KL(a||target) subject to a[0] >= 0.6
    con = lambda A, B: np.repeat((A[:, 0] >= 0.6)[:, None], B.shape[0], axis=1)
    res = min_simplex_pair(kl_to(TARGET), con, 2)
    assert res.argmin[0][0] >= 0.6 - 1e-12
    assert res.value == pytest.approx(dv.kl(np.array([0.6, 0.4]), TARGET), abs=1e-6)


def check_separable(t1, t2, tol):
    res = min_simplex_pair(separable(t1, t2), ALWAYS_TRUE, t1.size)
    assert res.value == pytest.approx(0.0, abs=tol)
    np.testing.assert_allclose(res.argmin[0], t1, atol=1e-4)
    np.testing.assert_allclose(res.argmin[1], t2, atol=1e-4)


def test_min_simplex_d3():
    check_separable(np.array([0.2, 0.3, 0.5]), np.array([0.6, 0.1, 0.3]), 1e-6)


def test_pair_search_separable():
    check_separable(np.array([0.3, 0.7]), np.array([0.8, 0.2]), 1e-8)


def test_pair_search_coupled_constraint():
    # minimize KL(a||t1) + KL(b||t2) subject to a[0] + b[0] <= 0.5
    t1 = np.array([0.3, 0.7])
    t2 = np.array([0.8, 0.2])
    obj = separable(t1, t2)
    con = lambda A, B: A[:, 0][:, None] + B[:, 0][None, :] <= 0.5
    res = min_simplex_pair(obj, con, 2)
    a, b = res.argmin
    assert a[0] + b[0] <= 0.5 + 1e-9
    # brute-force reference on a fine product grid
    pg = grid_array(2, 2000)
    want = float(np.where(con(pg, pg), obj(pg, pg), np.inf).min())
    assert res.value == pytest.approx(want, abs=1e-4)


def test_pair_search_infeasible():
    never = lambda A, B: np.zeros((A.shape[0], B.shape[0]), dtype=bool)
    obj = lambda A, B: np.zeros((A.shape[0], B.shape[0]))
    res = min_simplex_pair(obj, never, 2)
    assert math.isinf(res.value) and not res.feasible_found


def test_inf_objective_points_skipped():
    # +inf objective values are ordinary infeasibilities, not errors
    def obj(A, B):
        out = kl_to(np.array([0.5, 0.5]))(A, B)
        out[A[:, 0] < 0.5] = np.inf
        return out

    res = min_simplex_pair(obj, ALWAYS_TRUE, 2)
    assert math.isfinite(res.value)
    assert res.argmin[0][0] >= 0.5 - 1e-12


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(coarse_m=1)
    with pytest.raises(ValueError):
        SearchConfig(refine_factor=1)
    assert SearchConfig().resolve_m(2) == 200
    assert SearchConfig().resolve_m(3) == 60


def test_eps_floor_respected():
    t = np.array([0.99, 0.01])
    res = min_simplex_pair(separable(t, t), ALWAYS_TRUE, 2, eps=0.05)
    for block in res.argmin:
        assert block.min() >= 0.05 - 1e-12
    assert res.value == pytest.approx(2 * dv.kl(np.array([0.95, 0.05]), t), abs=1e-6)


def test_pair_grid_bound():
    # the largest grids in use pass; d = 4 at the default density does not,
    # and the search refuses it before evaluating anything
    check_pair_grid(2, 200)
    check_pair_grid(3, 60)
    check_pair_grid(4, 20)
    with pytest.raises(ValueError, match="pair grid too large"):
        check_pair_grid(4, 60)

    def never_called(A, B):
        raise AssertionError("search started")

    with pytest.raises(ValueError, match="pair grid too large"):
        min_simplex_pair(never_called, never_called, 4)

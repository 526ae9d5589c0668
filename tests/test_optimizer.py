import math

import numpy as np
import pytest

from seqclass import cli
from seqclass import divergence as dv
from seqclass import exponents as ex
from seqclass.optimizer import (
    ALWAYS_TRUE,
    SearchConfig,
    check_pair_grid,
    min_simplex_pair,
)
from seqclass.simplex import grid_array

TARGET = np.array([0.37, 0.63])


def kl_split(A, t):
    """Row-wise KL(a||t) in bits for a full-support t, summed as
    (sum a*ln a - sum a*ln t) / ln 2.  The fixtures keep this arithmetic:
    SEARCH_PINNED pins the search path, and was recorded with it."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = np.where(A > 0, A * np.log(np.where(A > 0, A, 1.0)), 0.0)
    cross = np.where(A > 0, A * np.log(t), 0.0)
    return (ent.sum(axis=-1) - cross.sum(axis=-1)) / dv.LN2


def kl_to(t):
    """Pair objective KL(a||t), constant over the second block."""
    return lambda A, B: np.repeat(kl_split(A, t)[:, None], B.shape[0], axis=1)


def separable(t1, t2):
    return lambda A, B: kl_split(A, t1)[:, None] + kl_split(B, t2)[None, :]


def test_min_simplex_finds_target():
    res = min_simplex_pair(kl_to(TARGET), ALWAYS_TRUE, 2)
    assert res.value == pytest.approx(0.0, abs=1e-8)
    np.testing.assert_allclose(res.argmin[0], TARGET, atol=1e-4)


def test_min_simplex_infeasible():
    never = lambda A, B: A[:, 0][:, None] + B[:, 0][None, :] > 2.0
    res = min_simplex_pair(kl_to(TARGET), never, 2)
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
    assert math.isinf(res.value) and res.argmin is None


def test_inf_objective_points_skipped():
    # +inf objective values are ordinary infeasibilities, not errors
    def obj(A, B):
        out = kl_to(np.array([0.5, 0.5]))(A, B)
        out[A[:, 0] < 0.5] = np.inf
        return out

    res = min_simplex_pair(obj, ALWAYS_TRUE, 2)
    assert math.isfinite(res.value)
    assert res.argmin[0][0] >= 0.5 - 1e-12


def masked_kl(A, B):
    """KL(a||(0.3, 0.7)), +inf wherever a[0] < 1/3."""
    out = kl_to(np.array([0.3, 0.7]))(A, B)
    out[A[:, 0] < 1 / 3] = np.inf
    return out


# value and argmin of three default searches with off-grid minimisers:
# ending a refinement round at its fixed point must not move a bit
SEARCH_PINNED = [
    (
        separable(np.array([2**0.5 - 1, 2 - 2**0.5]), np.array([6 / 7, 1 / 7])),
        2,
        3.319494654614392e-11,
        ([0.41421499999999994, 0.585785], [0.8571449999999999, 0.14285500000000007]),
    ),
    (
        separable(np.array([1 / 7, 1 / 3, 11 / 21]), np.array([0.6, 1 / 9, 13 / 45])),
        3,
        6.053281214124271e-10,
        (
            [0.14285, 0.3333333333333333, 0.5238166666666667],
            [0.6, 0.11111666666666667, 0.2888833333333334],
        ),
    ),
    (masked_kl, 2, 0.0037418498838039447, ([0.33333500000000005, 0.666665], [0.0, 1.0])),
]


@pytest.mark.parametrize("objective, d, value, argmin", SEARCH_PINNED, ids=["d2", "d3", "masked"])
def test_search_pinned(objective, d, value, argmin):
    res = min_simplex_pair(objective, ALWAYS_TRUE, d)
    assert res.value == value
    assert [x.tolist() for x in res.argmin] == [list(x) for x in argmin]


def recorded_search(calls):
    """min_simplex_pair that logs the bytes of every box pair its objective
    is called on."""

    def search(objective, constraint, d, cfg=SearchConfig(), eps=None):
        def logged(A, B):
            calls.append((A.tobytes(), B.tobytes()))
            return objective(A, B)

        return min_simplex_pair(logged, constraint, d, cfg, eps)

    return search


def test_refinement_evaluates_each_box_once(monkeypatch):
    # once both blocks' steps have moved nothing, a further step would
    # repeat a call on identical inputs; the round stops there instead
    calls = []
    recorded_search(calls)(SEARCH_PINNED[0][0], ALWAYS_TRUE, 2)
    searches = [calls]
    inst = cli.load_config(preset="fig1").instance()
    for run in (ex.kappa_search, ex.mu_search, ex.e_fix_search):
        calls = []
        monkeypatch.setattr(ex, "min_simplex_pair", recorded_search(calls))
        assert run(inst).argmin is not None
        searches.append(calls)
    for calls in searches:
        assert len(set(calls)) == len(calls)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(coarse_m=1)
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

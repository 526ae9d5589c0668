import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqclass import cli
from seqclass import divergence as dv
from seqclass import exponents as ex
from seqclass.optimizer import SearchConfig, check_pair_grid, min_simplex_pair
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


def unconstrained(objective):
    """The score of a search with no constraint: the objective, whatever the cutoff."""
    return lambda A, B, cutoff: objective(A, B)


def constrained(objective, constraint):
    """The score of a search of objective where constraint holds, +inf elsewhere."""
    return lambda A, B, cutoff: np.where(constraint(A, B), objective(A, B), np.inf)


def test_min_simplex_finds_target():
    res = min_simplex_pair(unconstrained(kl_to(TARGET)), 2)
    assert res.value == pytest.approx(0.0, abs=1e-8)
    np.testing.assert_allclose(res.argmin[0], TARGET, atol=1e-4)


def test_min_simplex_infeasible():
    never = lambda A, B: A[:, 0][:, None] + B[:, 0][None, :] > 2.0
    res = min_simplex_pair(constrained(kl_to(TARGET), never), 2)
    assert math.isinf(res.value)
    assert res.argmin is None


def test_refinement_improves_on_coarse():
    cfg0 = SearchConfig(coarse_m=50, refine_rounds=0)
    cfg3 = SearchConfig(coarse_m=50, refine_rounds=3)
    obj = separable(TARGET, np.array([0.5, 0.5]))
    v0 = min_simplex_pair(unconstrained(obj), 2, cfg0).value
    v3 = min_simplex_pair(unconstrained(obj), 2, cfg3).value
    assert v3 <= v0 + 1e-15
    assert v3 < 1e-6 < v0


def test_min_simplex_constraint_respected():
    # minimize KL(a||target) subject to a[0] >= 0.6
    con = lambda A, B: np.repeat((A[:, 0] >= 0.6)[:, None], B.shape[0], axis=1)
    res = min_simplex_pair(constrained(kl_to(TARGET), con), 2)
    assert res.argmin[0][0] >= 0.6 - 1e-12
    assert res.value == pytest.approx(dv.kl(np.array([0.6, 0.4]), TARGET), abs=1e-6)


def check_separable(t1, t2, tol):
    res = min_simplex_pair(unconstrained(separable(t1, t2)), t1.size)
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
    res = min_simplex_pair(constrained(obj, con), 2)
    a, b = res.argmin
    assert a[0] + b[0] <= 0.5 + 1e-9
    # brute-force reference on a fine product grid
    pg = grid_array(2, 2000)
    want = float(np.where(con(pg, pg), obj(pg, pg), np.inf).min())
    assert res.value == pytest.approx(want, abs=1e-4)


def test_pair_search_infeasible():
    never = lambda A, B: np.zeros((A.shape[0], B.shape[0]), dtype=bool)
    obj = lambda A, B: np.zeros((A.shape[0], B.shape[0]))
    res = min_simplex_pair(constrained(obj, never), 2)
    assert math.isinf(res.value) and res.argmin is None


def test_inf_objective_points_skipped():
    # +inf objective values are ordinary infeasibilities, not errors
    def obj(A, B):
        out = kl_to(np.array([0.5, 0.5]))(A, B)
        out[A[:, 0] < 0.5] = np.inf
        return out

    res = min_simplex_pair(unconstrained(obj), 2)
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
    res = min_simplex_pair(unconstrained(objective), d)
    assert res.value == value
    assert [x.tolist() for x in res.argmin] == [list(x) for x in argmin]


def recorded_search(calls):
    """min_simplex_pair that logs the bytes of every box pair its score is
    called on."""

    def search(score, d, cfg=SearchConfig(), eps=None):
        def logged(A, B, cutoff):
            calls.append((A.tobytes(), B.tobytes()))
            return score(A, B, cutoff)

        return min_simplex_pair(logged, d, cfg, eps)

    return search


def test_refinement_evaluates_each_box_once(monkeypatch):
    # once both blocks' steps have moved nothing, a further step would
    # repeat a call on identical inputs; the round stops there instead
    calls = []
    recorded_search(calls)(unconstrained(SEARCH_PINNED[0][0]), 2)
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


def test_search_config_refuses_negative_refine_rounds():
    with pytest.raises(ValueError, match="refine_rounds must be >= 0"):
        SearchConfig(refine_rounds=-1)


def test_eps_floor_respected():
    t = np.array([0.99, 0.01])
    res = min_simplex_pair(unconstrained(separable(t, t)), 2, eps=0.05)
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

    def never_called(A, B, cutoff):
        raise AssertionError("search started")

    with pytest.raises(ValueError, match="pair grid too large"):
        min_simplex_pair(never_called, 4)


def indexed(table):
    """A pair callable reading table[i, j] for grid rows that hold (i,) and (j,)."""
    return lambda A, B: table[A[:, 0].astype(int)][:, B[:, 0].astype(int)]


def first_argmin(s):
    """The least cell of s and its first (i, j), or (inf, None) when none is finite."""
    i, j = np.unravel_index(int(np.argmin(s)), s.shape)
    return (float(s[i, j]), (i, j)) if np.isfinite(s[i, j]) else (np.inf, None)


@st.composite
def pair_grids(draw):
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 3 * ex.CONSTRAINT_BATCH))
    k = draw(st.integers(1, 3))
    # few distinct integer values, so ties are common; +inf among them
    cell = st.one_of(st.integers(0, 5).map(float), st.just(np.inf))
    obj = np.array(draw(st.lists(cell, min_size=n * m, max_size=n * m))).reshape(n, m)
    # slot values whose least sum is negative on some cells, none or all
    slot = st.integers(-2, 2).map(float)
    lead = np.array(draw(st.lists(slot, min_size=n * k, max_size=n * k))).reshape(n, k)
    per_row = draw(st.one_of(st.lists(slot, min_size=m * k, max_size=m * k), st.just([3.0] * (m * k))))
    cutoff = draw(st.one_of(st.just(np.inf), st.integers(-1, 6).map(float), st.floats(-1, 6)))
    return obj, lead, np.array(per_row).reshape(m, k), cutoff


@settings(max_examples=200, deadline=None)
@given(pair_grids())
def test_constrained_score_equals_brute_force(grid):
    # kappa's and mu's score: the objective where the slot minimum of lead
    # and per_row is negative, over the columns that can still win
    obj, lead, per_row, cutoff = grid
    A = np.arange(obj.shape[0], dtype=float)[:, None]
    B = np.arange(obj.shape[1], dtype=float)[:, None]
    feas = (lead[:, None, :] + per_row[None, :, :]).min(axis=2) < 0.0
    asked, leads = [], []

    def lead_of(A_):
        leads.append(len(A_))
        return lead[A_[:, 0].astype(int)]

    def per_row_of(B_, floor):
        # every entry exact, whatever the floor, which is one per slot
        assert floor.shape == (lead.shape[1],)
        asked.append((B_[:, 0].astype(int).tolist(), floor.tolist()))
        return per_row[B_[:, 0].astype(int)]

    score = ex._constrained(indexed(obj), lead_of, per_row_of)
    want, where = first_argmin(np.where(feas, obj, np.inf))
    full = score(A, B, np.inf)
    assert first_argmin(full) == (want, where)
    # every cell kept is the objective at a feasible cell
    kept = np.isfinite(full)
    assert np.array_equal(full[kept], obj[kept]) and feas[kept].all()
    # the constraint saw every column whose least objective ties or beats
    # the minimum, each row once; the lead was computed at most once
    seen = [row for rows, _ in asked for row in rows]
    colmin = obj.min(axis=0)
    assert set(np.flatnonzero(colmin <= want)) <= set(seen)
    assert len(seen) == len(set(seen)) and len(leads) <= 1
    # the score keeps no history: the same call again gives the same
    # cells through the same per_row calls
    first, asked[:] = list(asked), []
    assert np.array_equal(score(A, B, np.inf), full)
    assert asked == first
    # a call with a cutoff prunes by it
    value, pair = first_argmin(score(A, B, cutoff))
    if want < cutoff:
        assert (value, pair) == (want, where)
    else:
        assert value >= cutoff


#: the d = 2 and d = 3 pairs whose inner grids the bounded slot minimum of
#: kappa's constraint is checked on
SLOT_PAIRS = {2: ((0.6, 0.4), (0.1, 0.9)), 3: ((0.5, 0.3, 0.2), (0.1, 0.2, 0.7))}


@st.composite
def bounded_slots(draw):
    d = draw(st.sampled_from([2, 3]))
    # inner grids of 2m + 1 slots at d = 2 and (m + 1)(m + 2)/2 at d = 3:
    # 5, 29 and 401 (fig1's), 6, 21 and 496; only 496 is a multiple of the
    # block width
    m = draw(st.sampled_from([2, 14, 200] if d == 2 else [2, 5, 30]))
    inst = ex.ProblemInstance(
        *SLOT_PAIRS[d],
        draw(st.sampled_from([0.38, 2.0])),
        draw(st.sampled_from([0.6, 2.0])),
        ex.ScaledRenyiLambda(draw(st.sampled_from([0.1, 0.5, 1.0])), draw(st.sampled_from([0.0, 0.003, 0.3]))),
    )
    cfg = SearchConfig(coarse_m=m)
    pg, _ = ex._inner_table(inst, cfg)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Q1 rows: inner grid points, the corners among them, where a KL term
    # is 0, and points between them; the same row twice is met twice
    rows = pg[rng.integers(0, len(pg), draw(st.integers(1, 6)))]
    rows[rng.random(len(rows)) < 0.3] = pg[[0, -1][rng.integers(2)]]
    rows[rng.random(len(rows)) < 0.3] = 0.02 + (1.0 - 0.02 * d) * rng.dirichlet(np.ones(d))
    # the lead of the P0' slots: rows of alpha * KL-sized values, each with
    # a few entries that tie with an entry of u, lie one step of the floats
    # either side of the tie, or lie in [-1e-15, 0), as kl_matrix rounds a
    # 0 as low as -7.7e-17; some rows are -0.0 throughout
    _, per_row = ex._g1_diag(inst, cfg)
    u = per_row(rows)
    n, k = draw(st.integers(1, 5)), len(pg)
    lead = rng.random((n, k)) * rng.choice([0.01, 0.3, 2.0], (n, 1))
    tie = -u[rng.integers(0, len(rows), (n, k)), np.arange(k)]
    special = rng.random((n, k)) < rng.choice([0.0, 0.02, 0.2], (n, 1))
    kind = rng.integers(0, 4, (n, k))
    near = [tie, np.nextafter(tie, -np.inf), np.nextafter(tie, np.inf), -1e-15 * rng.random((n, k))]
    lead[special] = np.choose(kind, near)[special]
    lead[rng.random(n) < 0.2] = -0.0
    # subsets of the lead rows that successive score calls take, so each
    # call has its own floor
    subsets = [np.flatnonzero(rng.random(n) < 0.5) for _ in range(4)] + [np.arange(n)]
    return inst, cfg, rows, lead, [s for s in subsets if s.size]


@settings(max_examples=80, deadline=None)
@given(bounded_slots())
def test_bounded_slot_minimum_keeps_every_sign(case):
    # kappa's u skips the exact P1' minimum of each entry whose lower bound
    # shows it cannot make a cell negative at the floor; every sign of the
    # constraint must stay that of the dense slot minimum
    inst, cfg, rows, lead, subsets = case
    pg, nlam = ex._inner_table(inst, cfg)
    c1 = dv.kl_matrix(rows, pg)
    dense = c1 + ex._min_plus(inst.beta * c1, nlam)
    lead_of, per_row = ex._g1_diag(inst, cfg)
    # no floor: u whole, with the bits of the dense slot minimum
    assert np.array_equal(per_row(rows), dense)
    assert np.array_equal(lead_of(pg[:3]), inst.alpha * dv.kl_matrix(pg[:3], pg))
    # u keeps the exact entries of the rows it has met, so each check
    # below takes a fresh u: its entries are computed at that floor, not
    # read back from the whole u above
    # one step of the floats below -u, every entry can make a cell negative
    for j in range(len(rows)):
        row = ex._g1_diag(inst, cfg)[1](rows[j : j + 1], np.nextafter(-dense[j], -np.inf))
        assert np.array_equal(row[0], dense[j])
    signs = (lead[:, None, :] + dense[None, :, :]).min(axis=2) < 0.0
    # at the floor of the lead rows, each exact entry keeps its bits and
    # each +inf entry leaves every sign as it is
    bounded = ex._g1_diag(inst, cfg)[1](rows, lead.min(axis=0))
    exact = np.isfinite(bounded)
    assert np.array_equal(bounded[exact], dense[exact])
    assert np.array_equal((lead[:, None, :] + bounded[None, :, :]).min(axis=2, initial=np.inf) < 0.0, signs)
    # the score, called on subsets of the lead rows, passes each its own
    # floor; its u starts empty, computes entries at one floor, then only
    # those it lacks at the next
    flat = lambda A, B: np.zeros((len(A), len(B)))
    score = ex._constrained(flat, lambda A: lead[A[:, 0].astype(int)], ex._g1_diag(inst, cfg)[1])
    for subset in subsets:
        got = score(subset.astype(float)[:, None], rows, np.inf)
        assert np.array_equal(got, np.where(signs[subset], 0.0, np.inf))


def test_min_plus_over_empty_axes():
    # an empty slot axis is a minimum over the empty set, +inf; an empty
    # table gives no columns
    assert np.array_equal(ex._min_plus(np.zeros((2, 0)), np.zeros((3, 0))), np.full((2, 3), np.inf))
    assert ex._min_plus(np.zeros((2, 4)), np.zeros((0, 4))).shape == (2, 0)

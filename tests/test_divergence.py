import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqclass import divergence as dv
from seqclass import exponents as ex
from seqclass.simplex import grid_array

import oracles as orc

PG = grid_array(2, 10_000)


def binary(p):
    return np.array([p, 1.0 - p])


def test_kl_value():
    assert dv.kl(binary(0.5), binary(0.25)) == pytest.approx(
        0.5 * math.log2(0.5 / 0.25) + 0.5 * math.log2(0.5 / 0.75), abs=1e-10
    )
    assert dv.kl(binary(0.5), binary(0.25)) == pytest.approx(0.20752, abs=1e-5)


def test_kl_support_violation_is_inf():
    assert math.isinf(dv.kl(binary(0.5), np.array([1.0, 0.0])))
    # 0 log 0 = 0: degenerate Q against full-support P is finite
    assert math.isfinite(dv.kl(np.array([1.0, 0.0]), binary(0.5)))


def test_renyi_minimizer_alpha1():
    # at alpha=1 the minimizer is the normalized geometric mean
    _, V = dv.renyi_frac(binary(0.6), binary(0.1), 1.0)
    np.testing.assert_allclose(V, [0.28989, 0.71011], atol=1e-5)


def _one_pair_tilt(target, ref, rho):
    """The tilt of one distribution, given as logs, the one-pair way: the
    form `dv.tilt` must reproduce column by column, bit for bit."""
    logw = (1 - rho) * target + rho * ref
    w = np.exp(logw - logw.max())
    return w / w.sum()


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_tilt_equals_the_one_pair_formula(d):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(70 + d)))
    B, K = 3, 200
    targets = np.log(0.01 + 0.9 * rng.dirichlet(np.ones(d), size=B))[:, :, None]  # (B, d, 1)
    refs = np.log(0.01 + 0.9 * rng.dirichlet(np.ones(d), size=(B, K))).transpose(0, 2, 1)  # (B, d, K)
    # rho = 0 and 1, s/(1+s) over the doubling range and bisection
    # midpoints, and the join's s/(w+s)
    s = np.concatenate([2.0 ** rng.integers(0, 70, K // 4), rng.random(K // 4 - 1) * 50])
    w = rng.uniform(0.5, 3.0, s.size)
    rho = np.concatenate([[0.0, 1.0], s / (1.0 + s), s / (w + s)])
    got = dv.tilt(targets, refs, rho)
    assert got.shape == (B, d, K)
    for b in range(B):
        for k in range(K):
            want = _one_pair_tilt(targets[b, :, 0], refs[b, :, k], rho[k])
            assert np.array_equal(got[b, :, k], want), (b, k, rho[k])
    if d == 2:
        # one pair as a (d, 1) stack, as renyi_frac and bht_minimizer call it
        V = dv.tilt(np.log(binary(0.6))[:, None], np.log(binary(0.1))[:, None], 0.5)[:, 0]
        np.testing.assert_allclose(V, [0.28989, 0.71011], atol=1e-5)


@pytest.mark.parametrize("a", [0.38, 0.7, 1.0, 2.0])
def test_renyi_vs_grid(a):
    P, Q = binary(0.6), binary(0.1)
    val, V = dv.renyi_frac(P, Q, a)
    grid = a * dv.kl_matrix(PG, P[None, :])[:, 0] + dv.kl_matrix(PG, Q[None, :])[:, 0]
    assert val == pytest.approx(float(grid.min()), abs=1e-4)
    assert val <= a * dv.kl(V, P) + dv.kl(V, Q) + 1e-12


@pytest.mark.parametrize("a", [0.38, 1.0, 2.0])
def test_gjs_vs_grid(a):
    P, Q = binary(0.6), binary(0.1)
    val = dv.gjs_value(P, Q, a)
    grid = a * dv.kl(P, PG) + dv.kl(Q, PG)
    assert val == pytest.approx(float(grid.min()), abs=1e-4)
    np.testing.assert_allclose(PG[grid.argmin()], (a * P + Q) / (a + 1), atol=1e-4)


def test_weighted_join_closed_form():
    P, Q = binary(0.6), binary(0.1)
    a, b = 1.3, 0.4
    val = dv.weighted_join(a, P, b, Q)
    grid = a * dv.kl(P, PG) + b * dv.kl(Q, PG)
    assert val == pytest.approx(float(grid.min()), abs=1e-4)
    np.testing.assert_allclose(PG[grid.argmin()], (a * P + b * Q) / (a + b), atol=1e-4)


@pytest.mark.parametrize("w", [0.0, -1.0, math.inf, math.nan])
def test_weights_must_be_positive_and_finite(w):
    P, Q = binary(0.6), binary(0.1)
    for call in (
        lambda: dv.gjs_value(P, Q, w),
        lambda: dv.weighted_join(w, P, 1.0, Q),
        lambda: dv.weighted_join(1.0, P, w, Q),
        lambda: dv.renyi_frac(P, Q, w),
    ):
        with pytest.raises(ValueError, match="positive and finite"):
            call()


def test_bht_vs_grid():
    P0, P1 = binary(0.6), binary(0.1)
    e0 = 0.3
    got = dv.bht_tradeoff(P0, P1, e0)
    d0 = dv.kl_matrix(PG, P0[None, :])[:, 0]
    d1 = dv.kl_matrix(PG, P1[None, :])[:, 0]
    want = float(d1[d0 <= e0].min())
    assert got == pytest.approx(want, abs=1e-3)


def test_bht_endpoints():
    P0, P1 = binary(0.6), binary(0.1)
    assert dv.bht_tradeoff(P0, P1, dv.kl(P1, P0) + 0.01) == 0.0
    assert dv.bht_tradeoff(P0, P1, math.inf) == 0.0
    # tiny budgets: the multiplier grows huge, and Q tends to P0
    for e0 in (1e-14, 1e-20, 1e-300):
        assert dv.bht_tradeoff(P0, P1, e0) == pytest.approx(dv.kl(P0, P1), abs=1e-6)
    # a zero budget admits P0 alone
    assert dv.bht_tradeoff(P0, P1, 0.0) == dv.kl(P0, P1)
    for e0 in (-0.1, math.nan):
        with pytest.raises(ValueError, match="e0 must be non-negative"):
            dv.bht_tradeoff(P0, P1, e0)


def test_kl_refuses_a_pair_of_different_lengths():
    with pytest.raises(ValueError, match="dimension mismatch"):
        dv.kl(binary(0.6), np.array([0.2, 0.3, 0.5]))


def test_renyi_frac_refuses_a_zero_entry():
    with pytest.raises(ValueError, match="renyi_frac requires full-support distributions"):
        dv.renyi_frac(np.array([1.0, 0.0]), binary(0.1), 1.0)


def test_bht_tradeoff_refuses_a_zero_entry():
    with pytest.raises(ValueError, match="bht_tradeoff requires full-support distributions"):
        dv.bht_tradeoff(binary(0.6), np.array([0.0, 1.0]), 0.1)


def test_cell_multiplier_is_inf_when_no_multiplier_fits():
    # a constraint value that never falls to its budget: s doubles from 1
    # up to 2**69, and no s fits
    tried = []

    def evaluate(s):
        tried.append(s)
        return 1.0, 0.0, 0.0

    assert dv.cell_multiplier(evaluate, 0.5) == math.inf
    assert tried == [2.0**k for k in range(70)]


@given(
    st.integers(2, 6).flatmap(lambda d: st.tuples(*[st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d)] * 2)),
    st.floats(0.001, 0.999),
)
@settings(max_examples=60, deadline=None)
def test_bht_stays_inside_its_budget(weights, share):
    P0, P1 = (np.array(w) / sum(w) for w in weights)
    top = dv.kl(P1, P0)
    assume(top > 1e-6)
    e0 = share * top
    Q = dv.bht_minimizer(P0, P1, e0)
    value = dv.kl(Q, P1)
    assert dv.kl(Q, P0) <= e0
    # Q tilts P1 toward P0 with weight t = s/(1+s): log Q - log P1 is
    # t * (log P0 - log P1) plus a constant.  Weak duality at that s bounds
    # the value from below by min_Q KL(Q||P1) + s*KL(Q||P0) - s*e0
    x, y = np.log(P0 / P1), np.log(Q / P1)
    x, y = x - x.mean(), y - y.mean()
    t = float(np.sum(x * y) / np.sum(x * x))
    s = t / (1.0 - t)
    assert value - (dv.renyi_matrix(P0, P1, s)[0, 0] - s * e0) <= 1e-12 * (1.0 + value)


def test_kl_floor_projection():
    eps = 0.01
    Q = binary(0.3)
    val, P = orc.kl_floor_projection(Q, eps)
    assert val == pytest.approx(0.0, abs=1e-12)  # Q already satisfies the floor
    Qx = np.array([0.999, 0.001])
    val, P = orc.kl_floor_projection(Qx, eps)
    pg = grid_array(2, 20_000, eps=eps)
    want = float(dv.kl_matrix(Qx[None, :], pg)[0].min())
    assert val == pytest.approx(want, abs=1e-5)
    assert (P >= eps - 1e-12).all()
    # the floor must leave room for a distribution: 0 < eps < 1/d
    for bad in (0.6, 0.5, 0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="epsilon"):
            orc.kl_floor_projection(Q, bad)


@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
@settings(max_examples=80, deadline=None)
def test_pinsker(p, q):
    P, Q = binary(p), binary(q)
    l1 = float(np.abs(P - Q).sum())
    assert dv.kl(P, Q) >= l1 * l1 / (2 * dv.LN2) - 1e-12


@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(0.1, 3.0))
@settings(max_examples=60, deadline=None)
def test_gjs_nonnegative_zero_iff_equal(p, q, a):
    P, Q = binary(p), binary(q)
    v = dv.gjs_value(P, Q, a)
    assert v >= -1e-12
    assert dv.gjs_value(P, P, a) == pytest.approx(0.0, abs=1e-12)


@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.floats(0.1, 2.5))
@settings(max_examples=40, deadline=None)
def test_renyi_value_below_both_endpoints(p, q, a):
    # min_V a*KL(V||P)+KL(V||Q) is at most the value at V=P and at V=Q
    P, Q = binary(p), binary(q)
    val, _ = dv.renyi_frac(P, Q, a)
    assert val <= dv.kl(P, Q) + 1e-9
    assert val <= a * dv.kl(Q, P) + 1e-9


def _type_vectors(d):
    # empirical types: multiples of 1/n, zero entries included
    return st.lists(st.integers(0, 6), min_size=d, max_size=d).filter(sum).map(
        lambda c: np.array(c, dtype=np.float64) / sum(c)
    )


@given(
    st.data(),
    st.integers(2, 6),
    st.sampled_from([0.3, 0.38, 0.7, 1.0, 2.0, 5.5]),
    # weights of the late phase's join too: sequential blocks count n-fold
    st.sampled_from([1.0, 0.6, 3.0, 7.6, 20.0]),
)
@settings(max_examples=200, deadline=None)
def test_one_row_calls_equal_stacked_rows(data, d, alpha, weight):
    rows = data.draw(st.integers(1, 5))
    P = np.stack([data.draw(_type_vectors(d)) for _ in range(rows)])
    Q = np.stack([data.draw(_type_vectors(d)) for _ in range(rows)])
    kls = dv.kl(Q, P)
    joined = dv.weighted_join(alpha, P, weight, Q)
    gjs = dv.gjs_value(P, Q, alpha)
    assert kls.shape == joined.shape == gjs.shape == (rows,)
    # +inf exactly on the rows where some q > 0 = p
    assert np.isinf(kls).tolist() == ((Q > 0) & (P == 0)).any(axis=1).tolist()
    for i, (p, q) in enumerate(zip(P, Q)):
        # each validated 1-D call is its row of the stacked call, bit for bit
        assert dv.kl(q, p) == kls[i]
        assert dv.kl(Q, p)[i] == kls[i]  # a single row pairs with every row
        # the left-to-right sum is numpy's own sum of the masked terms (d < 8)
        m = q > 0
        if (p[m] > 0).all():
            assert kls[i] == np.sum(q[m] * np.log(q[m] / p[m])) / dv.LN2
        assert dv.weighted_join(alpha, p, weight, q) == joined[i]
        assert dv.gjs_value(p, q, alpha) == gjs[i]
        # the join's value is its definition at the mixture
        M = (alpha * p + weight * q) / (alpha + weight)
        assert joined[i] == alpha * dv.kl(p, M) + weight * dv.kl(q, M)
        # a point mass beside q's largest entry puts p = 0 < q there
        off = np.eye(d)[(int(q.argmax()) + 1) % d]
        assert math.isinf(dv.kl(q, off))
        assert math.isinf(dv.kl(Q, off)[i])
    # renyi_frac's value is the matching cell of the Renyi kernel
    Pf, Qf = (P + 1.0 / d) / 2, (Q + 1.0 / d) / 2
    ren = dv.renyi_matrix(Pf, Qf, alpha)
    assert ren.shape == (rows, rows)
    for i in range(rows):
        for j in range(rows):
            assert dv.renyi_frac(Pf[i], Qf[j], alpha)[0] == ren[i, j]


@given(
    st.data(),
    st.integers(2, 6),
    st.sampled_from([0.38, 0.7, 2.0]),
    # the shape of each stack entry: one or several rows on either side
    st.sampled_from([(1, 1), (1, 7), (6, 1), (6, 7)]),
)
@settings(max_examples=80, deadline=None)
def test_stacked_kernels_equal_their_2d_calls(data, d, alpha, entry):
    # stacks with a leading batch axis, either side possibly broadcast from
    # one entry and holding one row or several
    batch = data.draw(st.integers(1, 4))
    shapes = [(data.draw(st.sampled_from([1, batch])), data.draw(st.integers(1, n))) for n in entry]
    rng = np.random.Generator(np.random.Philox(key=np.uint64(data.draw(st.integers(0, 2**32)))))
    F, P = (0.01 + 0.99 * rng.dirichlet(np.ones(d), size=shape) for shape in shapes)
    Q = F.copy()
    Q[..., 0] = np.where(rng.random(Q.shape[:-1]) < 0.3, 0.0, Q[..., 0])  # q = 0 entries
    spec = ex.ScaledRenyiLambda(0.6, 0.003)
    kls, ren, lam = dv.kl_matrix(Q, P), dv.renyi_matrix(F, P, alpha), ex.lambda_matrix(spec, F, P, alpha)
    rows = max(len(Q), len(P))
    assert kls.shape == ren.shape == lam.shape == (rows, shapes[0][1], shapes[1][1])
    for b in range(rows):
        q, f, p = Q[b % len(Q)], F[b % len(F)], P[b % len(P)]
        assert kls[b].tobytes() == dv.kl_matrix(q, p).tobytes()
        assert ren[b].tobytes() == dv.renyi_matrix(f, p, alpha).tobytes()
        # every cell is its 1 x 1 call, bit for bit, whatever the stack
        for i, j in np.ndindex(kls.shape[1:]):
            assert kls[b, i, j].tobytes() == dv.kl_matrix(q[i], p[j]).tobytes()
            assert ren[b, i, j].tobytes() == dv.renyi_matrix(f[i], p[j], alpha).tobytes()
            assert lam[b, i, j] == ex.lambda_eval(spec, f[i], p[j], alpha)


def test_weighted_join_full_support_values():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(21)))
    for d in range(2, 7):
        P = rng.dirichlet(np.ones(d), size=50)
        Q = rng.dirichlet(np.ones(d), size=50)
        for alpha in (0.38, 1.0, 2.0):
            got = dv.gjs_value(P, Q, alpha)
            M = (alpha * P + Q) / (alpha + 1.0)
            want = [alpha * dv.kl(p, m) + dv.kl(q, m) for p, q, m in zip(P, Q, M)]
            assert [float(g) for g in got] == want

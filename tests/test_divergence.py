import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqclass import divergence as dv
from seqclass.simplex import grid_array

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


def test_tilted_midpoint():
    V = dv.tilted(binary(0.6), binary(0.1), 0.5)
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
    val, M = dv.gjs(P, Q, a)
    grid = a * dv.kl_matrix(P[None, :], PG)[0] + dv.kl_matrix(Q[None, :], PG)[0]
    assert val == pytest.approx(float(grid.min()), abs=1e-4)
    np.testing.assert_allclose(M, (a * P + Q) / (a + 1), atol=1e-12)


def test_gjs_cross_matches_scalar():
    A = np.array([binary(0.3), binary(0.7)])
    B = np.array([binary(0.2), binary(0.5), binary(0.9)])
    got = dv.gjs_cross(A, B, 0.7)
    for i in range(2):
        for j in range(3):
            assert got[i, j] == pytest.approx(dv.gjs_value(A[i], B[j], 0.7), abs=1e-12)


def test_weighted_join_min_closed_form():
    P, Q = binary(0.6), binary(0.1)
    a, b = 1.3, 0.4
    val, M = dv.weighted_join_min(a, P, b, Q)
    np.testing.assert_allclose(M, (a * P + b * Q) / (a + b), atol=1e-12)
    grid = a * dv.kl_matrix(P[None, :], PG)[0] + b * dv.kl_matrix(Q[None, :], PG)[0]
    assert val == pytest.approx(float(grid.min()), abs=1e-4)


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
    assert dv.bht_tradeoff(P0, P1, 1e-14) == pytest.approx(dv.kl(P0, P1), abs=1e-6)


def test_kl_floor_projection():
    eps = 0.01
    Q = binary(0.3)
    val, P = dv.kl_floor_projection(Q, eps)
    assert val == pytest.approx(0.0, abs=1e-12)  # Q already satisfies the floor
    Qx = np.array([0.999, 0.001])
    val, P = dv.kl_floor_projection(Qx, eps)
    pg = grid_array(2, 20_000, eps=eps)
    want = float(dv.kl_matrix(Qx[None, :], pg)[0].min())
    assert val == pytest.approx(want, abs=1e-5)
    assert (P >= eps - 1e-12).all()


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
def test_gjs_rows_equal_scalar_gjs(data, d, alpha, weight):
    rows = data.draw(st.integers(1, 5))
    P = np.stack([data.draw(_type_vectors(d)) for _ in range(rows)])
    Q = np.stack([data.draw(_type_vectors(d)) for _ in range(rows)])
    got = dv.gjs_rows(P, Q, alpha)
    joined = dv.weighted_join_rows(alpha, P, weight, Q)
    assert got.shape == joined.shape == (rows,)
    for g, j, p, q in zip(got, joined, P, Q):
        assert g == dv.gjs_value(p, q, alpha)
        # the scalar arithmetic gjs had before it became gjs_rows' one-row
        # case: kl sums its masked terms with np.sum
        M = (alpha * p + q) / (alpha + 1.0)
        assert g == alpha * dv.kl(p, M) + dv.kl(q, M)
        # and weighted_join_min's, which the late phase used before
        M = (alpha * p + weight * q) / (alpha + weight)
        assert j == alpha * dv.kl(p, M) + weight * dv.kl(q, M)
        assert j == dv.weighted_join_min(alpha, p, weight, q)[0]


def test_gjs_rows_full_support_values():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(21)))
    for d in range(2, 7):
        P = rng.dirichlet(np.ones(d), size=50)
        Q = rng.dirichlet(np.ones(d), size=50)
        for alpha in (0.38, 1.0, 2.0):
            got = dv.gjs_rows(P, Q, alpha)
            M = (alpha * P + Q) / (alpha + 1.0)
            want = [alpha * dv.kl(p, m) + dv.kl(q, m) for p, q, m in zip(P, Q, M)]
            assert [float(g) for g in got] == want

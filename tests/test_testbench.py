import math

import numpy as np
import pytest

from seqclass import divergence as dv
from seqclass import exponents as ex
from seqclass.simplex import grid_array, sample_iid, stream_seed
from seqclass.testbench import (
    SetupKind,
    eta_n,
    fixed_length_test,
    make_model,
    two_phase_test,
)


def inst_const(lam0=0.05, alpha=1.0, beta=1.0, p0=(0.8, 0.2), p1=(0.2, 0.8)):
    return ex.ProblemInstance(p0, p1, alpha, beta, ex.ConstantLambda(lam0))


def test_eta_n_formula():
    n, a, b, d = 40, 0.5, 0.7, 2
    want = (
        (d + 2) * math.log2(n)
        + d * math.log2(math.ceil(a * n) + 1)
        + d * math.log2(math.ceil(b * n) + 1)
    ) / (n - 1)
    assert eta_n(n, a, b, d) == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        eta_n(1, a, b, d)


def test_eta_n_vanishes():
    vals = [eta_n(n, 1.0, 1.0, 2) for n in (10, 100, 1000, 10_000)]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    assert vals[-1] < 0.02


def test_fixed_length_decision_matches_g1_sign_constant():
    inst = inst_const()
    rng = np.random.Generator(np.random.Philox(key=np.uint64(9)))
    for _ in range(100):
        Q, Q0, Q1 = (np.array([p, 1 - p]) for p in rng.random(3))
        dec = fixed_length_test(Q, Q0, Q1, inst)
        g = dv.gjs_value(Q0, Q, inst.alpha) - inst.lam.lambda0
        assert dec == (0 if g < 0 else 1)


def test_fixed_length_decision_matches_g1_sign_scaled():
    inst = ex.ProblemInstance((0.8, 0.2), (0.2, 0.8), 1.0, 1.0, ex.ScaledRenyiLambda(0.5, 0.01))
    pg = grid_array(2, 300, eps=inst.eps)
    lam = ex.lambda_matrix(inst.lam, pg, pg, inst.beta)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(10)))
    checked = 0
    for _ in range(100):
        Q, Q0, Q1 = (np.array([p, 1 - p]) for p in 0.02 + 0.96 * rng.random(3))
        a = (dv.kl_matrix(Q[None, :], pg) + inst.alpha * dv.kl_matrix(Q0[None, :], pg))[0]
        b = inst.beta * dv.kl_matrix(Q1[None, :], pg)[0]
        g_grid = float((a[:, None] + b[None, :] - lam).min())
        if abs(g_grid) < 1e-3:
            continue  # sign not grid-resolvable
        dec = fixed_length_test(Q, Q0, Q1, inst)
        assert dec == (0 if g_grid < 0 else 1)
        checked += 1
    assert checked >= 80


def test_make_model_rejects_fixed_length():
    with pytest.raises(ValueError):
        make_model(SetupKind.FixedLength, inst_const())


@pytest.mark.parametrize(
    "setup,ell,alphas",
    [
        (SetupKind.Semi1, 2, (1.0, 1.0, 1.0)),
        (SetupKind.Semi2, 1, (1.0, 1.0, 1.0)),
        (SetupKind.FullySeq, 0, (1.0, 1.0, 1.0)),
    ],
)
def test_model_layout(setup, ell, alphas):
    m = make_model(setup, inst_const())
    assert m.ell == ell
    assert m.alphas == alphas


def test_model_distances_are_gjs():
    inst = inst_const(alpha=0.5, beta=0.7)
    m = make_model(SetupKind.FullySeq, inst)
    t0 = np.array([0.7, 0.3])
    t1 = np.array([0.3, 0.7])
    x = np.array([0.5, 0.5])
    tup = (t0, t1, x)  # setup order (T0, T1, X)
    assert m.dist_to_H0(tup) == pytest.approx(dv.gjs_value(t0, x, 0.5), abs=1e-12)
    assert m.dist_to_H1(tup) == pytest.approx(dv.gjs_value(t1, x, 0.7), abs=1e-12)


def _streams(inst, model, theta, n, seed, late=None):
    laws = {"t0": inst.p0, "t1": inst.p1, "x": inst.p1 if theta else inst.p0}
    order = ("x", "t0", "t1") if model.setup is SetupKind.Semi2 else ("t0", "t1", "x")
    late = n * n if late is None else late
    out = []
    for i, name in enumerate(order):
        base = n if i < model.ell else late
        out.append(sample_iid(laws[name], math.ceil(model.alphas[i] * base), stream_seed(seed, 0, i)))
    return out


def test_two_phase_separated_pair_decides_fast():
    # type-I decays at rate lambda0 = 0.05 bits, so 99% correctness under
    # theta=0 needs n around 200 for a well-separated pair
    inst = inst_const(p0=(0.9, 0.1), p1=(0.1, 0.9))
    model = make_model(SetupKind.FullySeq, inst)
    n = 200
    correct = 0
    for seed in range(200):
        out = two_phase_test(_streams(inst, model, 0, n, seed), n, model)
        assert out.tau in (n - 1, n * n)
        if out.decision == 0:
            correct += 1
    assert correct >= 198


def test_two_phase_early_stop_support():
    inst = inst_const()
    model = make_model(SetupKind.Semi1, inst)
    n = 30
    out = two_phase_test(_streams(inst, model, 0, n, 3), n, model)
    assert out.tau in (n - 1, n * n)
    assert out.phase in ("early", "late")


def test_two_phase_late_cap_flags():
    # X concentrated on symbol 0 while T0, T1 point elsewhere: the tuple is
    # eta-far from both hypothesis classes at n=100, forcing the late phase
    inst = inst_const(p0=(0.5, 0.5), p1=(0.1, 0.9))
    model = make_model(SetupKind.FullySeq, inst)
    n, cap = 100, 150
    t0 = np.tile([0, 1], cap)[:cap]
    t1 = np.array([0] * (cap // 10) + [1] * (cap - cap // 10))
    x = np.zeros(cap, dtype=int)
    out = two_phase_test([t0, t1, x], n, model, late_cap=cap)
    assert out.phase == "late"
    assert out.capped and out.tau == cap


def test_two_phase_stream_exhaustion_raises():
    inst = inst_const()
    model = make_model(SetupKind.FullySeq, inst)
    short = [np.zeros(3, dtype=int)] * 3
    with pytest.raises(ValueError):
        two_phase_test(short, 30, model)


def test_gn_constant_matches_weighted_join():
    inst = inst_const(alpha=0.5, beta=0.7)
    model = make_model(SetupKind.FullySeq, inst)
    t0 = np.array([0.7, 0.3])
    t1 = np.array([0.3, 0.7])
    x = np.array([0.5, 0.5])
    n = 20
    got = model.gn_at((t0, t1, x), n)
    val, _ = dv.weighted_join_min(0.5 * n, t0, 1.0 * n, x)
    assert got == pytest.approx(val - 0.05, abs=1e-12)


def test_gn_generic_close_to_constant_structure():
    # scaled-Renyi gn should be <= the g1-style bound at the same tuple
    inst = ex.ProblemInstance((0.8, 0.2), (0.2, 0.8), 1.0, 1.0, ex.ScaledRenyiLambda(0.5, 0.01))
    model = make_model(SetupKind.FullySeq, inst)
    t0 = np.array([0.75, 0.25])
    t1 = np.array([0.25, 0.75])
    x = np.array([0.7, 0.3])
    v = model.gn_at((t0, t1, x), 10)
    assert math.isfinite(v)

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from seqclass import divergence as dv
from seqclass import exponents as ex
from seqclass import testbench as tb
from seqclass.optimizer import SearchConfig
from seqclass.simplex import grid_array, sample_iid, stream_seed
from seqclass.testbench import (
    SetupKind,
    early_phase,
    eta_n,
    fixed_length_test,
    late_phase,
    late_score,
    make_model,
    stream_sizes,
    two_phase_test,
)

DATA = Path(__file__).resolve().parent / "data" / "late_scores.json"


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


def _in_setup_order(model, t0, t1, x):
    named = {"t0": t0, "t1": t1, "x": x}
    return tuple(named[b] for b in model.blocks)


def test_model_distances_are_gjs(monkeypatch):
    # a row stops iff a GJS distance lies below eta_n, so a margin at the
    # nearest distance (no stop) and one ulp above it (stop) pins that
    # distance bit for bit: the (T0, X) one first, then the (T1, X) one;
    # FullySeq orders the blocks (T0, T1, X), Semi2 (X, T0, T1)
    inst = inst_const(alpha=0.5, beta=0.7)
    t0 = np.array([[0.7, 0.3]])
    t1 = np.array([[0.3, 0.7]])
    for m in (make_model(SetupKind.FullySeq, inst), make_model(SetupKind.Semi2, inst)):
        for x, near in ((np.array([[0.6, 0.4]]), 0), (np.array([[0.4, 0.6]]), 1)):
            dist = (dv.gjs_value(t0[0], x[0], 0.5), dv.gjs_value(t1[0], x[0], 0.7))
            assert dist[near] < dist[1 - near]
            for eta, stops in ((dist[near], False), (np.nextafter(dist[near], np.inf), True)):
                monkeypatch.setattr(tb, "eta_n", lambda n, a, b, d, eta=eta: eta)
                stop, _ = early_phase(_in_setup_order(m, t0, t1, x), 20, m)
                assert stop.tolist() == [stops]


def _streams(model, theta, n, seed):
    _, sizes, _, _ = stream_sizes(model, n)
    laws = model.laws(theta)
    return [
        sample_iid(law, k, stream_seed(seed, 0, i)) for i, (law, k) in enumerate(zip(laws, sizes))
    ]


def test_two_phase_separated_pair_decides_fast():
    # type-I decays at rate lambda0 = 0.05 bits, so 99% correctness under
    # theta=0 needs n around 200 for a well-separated pair
    inst = inst_const(p0=(0.9, 0.1), p1=(0.1, 0.9))
    model = make_model(SetupKind.FullySeq, inst)
    n = 200
    correct = 0
    for seed in range(200):
        out = two_phase_test(_streams(model, 0, n, seed), n, model)
        assert out.tau in (n - 1, n * n)
        if out.decision == 0:
            correct += 1
    assert correct >= 198


def test_two_phase_early_stop_support():
    inst = inst_const()
    model = make_model(SetupKind.Semi1, inst)
    n = 30
    out = two_phase_test(_streams(model, 0, n, 3), n, model)
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
    full = np.zeros(900, dtype=int)
    with pytest.raises(ValueError, match="stream too short"):
        two_phase_test([full, full, np.array([], dtype=int)], 30, model)


@pytest.mark.parametrize("bad", [-1, 2])
def test_two_phase_rejects_out_of_range_index(bad):
    model = make_model(SetupKind.FullySeq, inst_const())
    full = np.zeros(900, dtype=int)
    x = full.copy()
    x[5] = bad
    with pytest.raises(ValueError, match="out of range"):
        two_phase_test([full, full, x], 30, model)


def test_stream_sizes_layout():
    # Semi2 orders its blocks (X, T0, T1) and keeps X at its fixed n samples
    model = make_model(SetupKind.Semi2, inst_const(alpha=0.5, beta=0.25))
    assert stream_sizes(model, 10) == ((10, 5, 3), (10, 50, 25), 100, False)
    assert stream_sizes(model, 10, late_cap=100) == ((10, 5, 3), (10, 50, 25), 100, False)
    assert stream_sizes(model, 10, late_cap=40) == ((10, 5, 3), (10, 20, 10), 40, True)
    with pytest.raises(ValueError, match="stream exhausted"):
        stream_sizes(model, 10, late_cap=8)
    with pytest.raises(ValueError):
        stream_sizes(model, 1)


def test_gn_constant_matches_weighted_join():
    # g_n joins T0 and X with the late weights (alpha*n, n) and subtracts
    # lambda0, so the decision flips exactly where lambda0 passes the join
    t0 = np.array([0.7, 0.3])
    t1 = np.array([0.3, 0.7])
    x = np.array([0.5, 0.5])
    tup = (t0[None, :], t1[None, :], x[None, :])
    n = 20
    val = dv.weighted_join(0.5 * n, t0, 1.0 * n, x)
    model = make_model(SetupKind.FullySeq, inst_const(alpha=0.5, beta=0.7))
    assert late_score(tup, n, model).tolist() == [val - 0.05]
    for lam0, decision in ((val, 1), (np.nextafter(val, np.inf), 0)):
        model = make_model(SetupKind.FullySeq, inst_const(lam0=lam0, alpha=0.5, beta=0.7))
        assert late_phase(tup, n, model).tolist() == [decision]


def test_gn_generic_close_to_constant_structure():
    # the scaled-Renyi g_n is g1's finite minimum, and its sign decides
    inst = ex.ProblemInstance((0.8, 0.2), (0.2, 0.8), 1.0, 1.0, ex.ScaledRenyiLambda(0.5, 0.01))
    model = make_model(SetupKind.FullySeq, inst)
    tup = (np.array([[0.75, 0.25]]), np.array([[0.25, 0.75]]), np.array([[0.7, 0.3]]))
    (v,) = late_score(tup, 10, model)
    assert math.isfinite(v)
    assert late_phase(tup, 10, model).tolist() == [0 if v < 0 else 1]


# Late-phase scores g_n.  The constant-budget cases were recorded with the
# scalar weighted join; the scaled-Renyi ones with g1's inner grid and
# polish under the late weights.  Each case scores the tuples of TUPLES[d]
# with the late weights of one setup at one n.
LATE_INSTANCES = {
    "constant": ex.ProblemInstance((0.8, 0.2), (0.2, 0.8), 0.3, 0.7, ex.ConstantLambda(0.05)),
    "constant_d3": ex.ProblemInstance(
        (0.6, 0.3, 0.1), (0.1, 0.3, 0.6), 0.5, 0.7, ex.ConstantLambda(0.08)
    ),
    "renyi": ex.ProblemInstance(
        (0.6, 0.4), (0.1, 0.9), 0.38, 0.6, ex.ScaledRenyiLambda(0.5, 0.003)
    ),
    "renyi_d3": ex.ProblemInstance(
        (0.6, 0.3, 0.1), (0.1, 0.3, 0.6), 0.5, 0.7, ex.ScaledRenyiLambda(0.5, 0.003)
    ),
}
# (T0, T1, X) sample counts; each type is counts / sum(counts)
TUPLES = {
    2: [((7, 3), (3, 7), (5, 5)), ((20, 0), (5, 15), (12, 8)), ((9, 11), (2, 18), (0, 20))],
    3: [
        ((5, 3, 2), (1, 3, 6), (4, 4, 2)),
        ((0, 5, 5), (2, 2, 6), (4, 4, 4)),
        ((9, 0, 1), (0, 0, 10), (3, 6, 1)),
    ],
}
LATE_PINNED = json.loads(DATA.read_text())["cases"]


def _late_case_id(case):
    return f"{case['instance']}-{case['setup']}-n{case['n']}"


def test_late_pins_cover_both_families_and_setups():
    covered = {(c["instance"], c["setup"], c["n"]) for c in LATE_PINNED}
    assert covered == {
        (name, setup, n)
        for name in LATE_INSTANCES
        for setup in ("fullyseq", "semi1", "semi2")
        for n in (5, 20)
    }


@pytest.mark.parametrize("case", LATE_PINNED, ids=_late_case_id)
def test_late_score_pinned(case):
    inst = LATE_INSTANCES[case["instance"]]
    model = make_model(SetupKind(case["setup"]), inst)
    t0, t1, x = (
        np.stack([np.array(c, dtype=np.float64) / sum(c) for c in block])
        for block in zip(*TUPLES[inst.d])
    )
    got = late_score(_in_setup_order(model, t0, t1, x), case["n"], model)
    assert got.tolist() == case["scores"]


def _pair_grid_min(inst, k, weights, q, q0, q1):
    # the weighted score over every pair of the k-density grid, in one matrix
    wx, w0, w1 = weights
    pg = grid_array(inst.d, k, eps=inst.eps)
    a = (wx * dv.kl_matrix(q[None, :], pg) + w0 * dv.kl_matrix(q0[None, :], pg))[0]
    b = w1 * dv.kl_matrix(q1[None, :], pg)[0]
    return float((a[:, None] + b[None, :] - ex.lambda_matrix(inst.lam, pg, pg, inst.beta)).min())


@pytest.mark.parametrize("name", ["renyi", "renyi_d3"])
def test_late_score_at_most_pair_grid_minimum(name):
    # g_n searches g1's inner grid and then polishes, so it lies at or below
    # the minimum over every pair of that grid; at d = 2 that grid (k = 400)
    # holds the k = 200 grid the late score once searched on its own
    inst = LATE_INSTANCES[name]
    k = ex._inner_density(inst, SearchConfig())
    densities = (k, 200) if inst.d == 2 else (k,)
    n = 20
    t0, t1, x = (
        np.stack([np.array(c, dtype=np.float64) / sum(c) for c in block])
        for block in zip(*TUPLES[inst.d])
    )
    for setup in ("fullyseq", "semi1", "semi2"):
        model = make_model(SetupKind(setup), inst)
        w0, w1, wx = model.unpack([a if i < model.ell else a * n for i, a in enumerate(model.alphas)])
        got = late_score(_in_setup_order(model, t0, t1, x), n, model)
        for i, g in enumerate(got):
            for density in densities:
                assert g <= _pair_grid_min(inst, density, (wx, w0, w1), x[i], t0[i], t1[i])


def test_late_score_refuses_d4_without_allocating():
    # g_n goes through g1's polish, whose bound refuses d = 4 before any grid
    inst4 = ex.ProblemInstance((0.4, 0.3, 0.2, 0.1), (0.1, 0.2, 0.3, 0.4), 0.5, 0.7,
                               ex.ScaledRenyiLambda(0.5, 0.003))
    model = make_model(SetupKind.FullySeq, inst4)
    tup = tuple(np.array([[0.4, 0.3, 0.2, 0.1]]) for _ in range(3))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="g1 polish too large"):
            late_score(tup, 5, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20

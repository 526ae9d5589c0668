import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqclass import cli
from seqclass import divergence as dv
from seqclass import exponents as ex
from seqclass.optimizer import SearchConfig, box_schedule
from seqclass.simplex import as_dist, box_grid, box_mesh_size, grid_array

import oracles as orc

P0 = (0.6, 0.4)
P1 = (0.1, 0.9)
FAST = SearchConfig(coarse_m=100, refine_rounds=2)


def const_inst(lam0=0.05, alpha=2.0, beta=1.0):
    return ex.ProblemInstance(P0, P1, alpha, beta, ex.ConstantLambda(lam0))


def renyi_inst(xi=0.5, offset=0.003, alpha=0.38, beta=0.6):
    return ex.ProblemInstance(P0, P1, alpha, beta, ex.ScaledRenyiLambda(xi, offset))


def test_lambda_spec_validation():
    with pytest.raises(ValueError):
        ex.ConstantLambda(0.0)
    with pytest.raises(ValueError):
        ex.ScaledRenyiLambda(1.5)
    with pytest.raises(ValueError):
        ex.ScaledRenyiLambda(0.5, -0.1)


def test_instance_validation():
    with pytest.raises(ValueError):
        ex.ProblemInstance(P0, P0, 1.0, 1.0, ex.ConstantLambda(0.1))
    with pytest.raises(ValueError):
        ex.ProblemInstance(P0, P1, -1.0, 1.0, ex.ConstantLambda(0.1))
    with pytest.raises(ValueError):
        # violates the epsilon floor
        ex.ProblemInstance((0.999, 0.001), P1, 1.0, 1.0, ex.ConstantLambda(0.1), eps=0.01)


@pytest.mark.parametrize(
    "make",
    [
        lambda: as_dist([math.nan, 0.5]),
        lambda: ex.ConstantLambda(math.nan),
        lambda: ex.ConstantLambda(math.inf),
        lambda: ex.ScaledRenyiLambda(0.5, math.nan),
        lambda: ex.ScaledRenyiLambda(0.5, math.inf),
        lambda: ex.ProblemInstance(P0, P1, math.nan, 1.0, ex.ConstantLambda(0.1)),
        lambda: ex.ProblemInstance(P0, P1, math.inf, 1.0, ex.ConstantLambda(0.1)),
        lambda: ex.ProblemInstance(P0, P1, 1.0, math.nan, ex.ConstantLambda(0.1)),
        lambda: ex.ProblemInstance(P0, P1, 1.0, math.inf, ex.ConstantLambda(0.1)),
    ],
    ids=["as_dist_nan", "lambda0_nan", "lambda0_inf", "offset_nan", "offset_inf",
         "alpha_nan", "alpha_inf", "beta_nan", "beta_inf"],
)
def test_validators_reject_non_finite(make):
    with pytest.raises(ValueError):
        make()


def test_lambda_eval_constant():
    assert ex.lambda_eval(ex.ConstantLambda(0.05), np.asarray(P0), np.asarray(P1), 0.6) == 0.05


def test_lambda_eval_scaled_renyi():
    spec = ex.ScaledRenyiLambda(0.5, 0.003)
    got = ex.lambda_eval(spec, np.asarray(P0), np.asarray(P1), 0.6)
    ren, _ = dv.renyi_frac(np.asarray(P1), np.asarray(P0), 0.6)
    assert got == pytest.approx(0.5 * (ren + 0.003), abs=1e-12)
    # grid cross-check of the Renyi part
    pg = grid_array(2, 10_000)
    grid_ren = float(
        (0.6 * dv.kl_matrix(pg, np.asarray(P1)[None, :])[:, 0]
         + dv.kl_matrix(pg, np.asarray(P0)[None, :])[:, 0]).min()
    )
    assert ren == pytest.approx(grid_ren, abs=1e-4)


def test_lambda_eval_diagonal_extension():
    spec = ex.ScaledRenyiLambda(0.5, 0.003)
    p = np.asarray(P0)
    assert ex.lambda_eval(spec, p, p, 0.6) == pytest.approx(0.5 * 0.003, abs=1e-12)


def test_lambda_matrix_matches_eval():
    spec = ex.ScaledRenyiLambda(0.7, 0.01)
    A = grid_array(2, 6, eps=0.01)
    B = grid_array(2, 5, eps=0.01)
    M = ex.lambda_matrix(spec, A, B, 0.6)
    for i in range(A.shape[0]):
        for j in range(B.shape[0]):
            assert M[i, j] == pytest.approx(ex.lambda_eval(spec, A[i], B[j], 0.6), abs=1e-10)


def test_g1_constant_fast_path():
    inst = const_inst()
    Q0 = np.array([0.6, 0.4])
    Q = np.array([0.1, 0.9])
    got = ex.g1(Q, Q0, np.array([0.5, 0.5]), inst)
    assert got == pytest.approx(dv.gjs_value(Q0, Q, 2.0) - 0.05, abs=1e-12)


def test_g1_scaled_renyi_vs_grid():
    inst = renyi_inst()
    rng = np.random.Generator(np.random.Philox(key=np.uint64(5)))
    pg = grid_array(2, 400, eps=inst.eps)
    lam = ex.lambda_matrix(inst.lam, pg, pg, inst.beta)
    for _ in range(5):
        Q, Q0, Q1 = (np.array([p, 1 - p]) for p in 0.05 + 0.9 * rng.random(3))
        got = ex.g1(Q, Q0, Q1, inst, FAST)
        a = (dv.kl_matrix(Q[None, :], pg) + inst.alpha * dv.kl_matrix(Q0[None, :], pg))[0]
        b = inst.beta * dv.kl_matrix(Q1[None, :], pg)[0]
        want = float((a[:, None] + b[None, :] - lam).min())
        assert got <= want + 1e-9  # the solver may land below the coarse grid
        assert got == pytest.approx(want, abs=2e-4)


def test_renyi_term():
    inst = const_inst()
    want, _ = dv.renyi_frac(np.asarray(P0), np.asarray(P1), 2.0)
    assert ex.renyi_term(inst) == pytest.approx(want, abs=1e-12)


def test_kappa_constant_shortcut_zero():
    # budget above GJS(P0||P1, alpha): the true pair itself is feasible
    g = dv.gjs_value(np.asarray(P0), np.asarray(P1), 2.0)
    inst = const_inst(lam0=g + 0.01)
    assert ex.kappa(inst) == 0.0


def test_kappa_scaled_renyi_certificate():
    inst = renyi_inst(offset=0.0)
    assert ex.kappa_certified_infinite(inst)
    res = ex.kappa_search(inst)
    assert math.isinf(res.value) and res.argmin is None
    # grid emptiness cross-check at modest density
    pg = grid_array(2, 100, eps=inst.eps)
    lead, per_row = ex._g1_diag(inst, FAST)
    gm = ex._min_plus(lead(pg), per_row(pg))
    assert (gm >= -1e-12).all()


def test_kappa_constant_vs_oracle():
    inst = const_inst()
    got = ex.kappa(inst, FAST)
    want = orc.oracle_kappa(inst, m=400)
    assert got == pytest.approx(want, abs=5e-3)


def test_mu_constant_vs_oracle():
    inst = const_inst()
    got = ex.mu(inst, FAST)
    want = orc.oracle_mu(inst, m=400)
    assert got == pytest.approx(want, abs=5e-3)


def test_report_d3_constant_vs_oracles():
    # d = 3 against the grid oracles at m = 60.  The oracles minimise over
    # the 1/60 grid alone, so they can only overestimate; a constant budget
    # is solved exactly, with no grid.  Measured gaps (oracle - solver):
    # kappa 1.5e-3, mu 2.5e-3, e_fix 2.4e-3.  The tolerance is test_03's
    # 5e-3, twice the largest gap.
    inst = ex.ProblemInstance(
        (0.6, 0.3, 0.1), (0.1, 0.3, 0.6), 0.5, 0.7, ex.ConstantLambda(0.08)
    )
    rep = ex.report(inst)
    assert math.isfinite(rep.kappa)
    assert rep.kappa == pytest.approx(orc.oracle_kappa(inst, m=60), abs=5e-3)
    assert rep.mu == pytest.approx(orc.oracle_mu(inst, m=60), abs=5e-3)
    assert rep.e_fix == pytest.approx(orc.oracle_efix(inst, m=60), abs=5e-3)


def _join_multiplier(inst, A, B):
    """(s, V): the multiplier s of ex._join_budget_min's argmin (A, B), read
    off the argmin alone, and its reference V = (alpha*A + B)/(1+alpha).

    A is the tilt of P0 toward V with weight t = s/(1+s), so log A - log P0
    is t * (log V - log P0) plus a constant.  At (P0, P1) this reads s = 0.
    """
    V = (inst.alpha * A + B) / (1.0 + inst.alpha)
    x, y = np.log(V / inst.p0), np.log(A / inst.p0)
    x, y = x - x.mean(), y - y.mean()
    t = float(x @ y / (x @ x))
    return t / (1.0 - t), V


def _join_dual_gap(inst, w, value, A, B):
    """value minus a certified lower bound on the constant-budget problem
    of ex._join_budget_min, built from its argmin alone.

    For the multiplier s of `_join_multiplier` and any V, the dual
        alpha*R(V, P0, s) + w*R(V, P1, s/w) - s*lambda0,
    with R(V, P, r) = min_X r*KL(X||V) + KL(X||P) (dv.renyi_matrix), minus
    the Frank-Wolfe gap of its convex V-part, is a lower bound (weak
    duality); so is 0.
    """
    a, lam0, P0, P1 = inst.alpha, inst.lam.lambda0, inst.p0, inst.p1
    s, V = _join_multiplier(inst, A, B)
    h = a * dv.renyi_matrix(V, P0, s)[0, 0] + w * dv.renyi_matrix(V, P1, s / w)[0, 0]
    rho = np.array([s / (1.0 + s), s / (w + s)])[:, None, None]
    A, B = dv.tilt(np.log(np.stack([P0, P1]))[:, :, None], np.log(V)[:, None], rho)[..., 0]
    grad = -s * (a * A + B) / V / dv.LN2
    bound = h - s * lam0 - (grad @ V - grad.min())
    return value - max(bound, 0.0)


@st.composite
def constant_instances(draw, dims=(2, 6)):
    d = draw(st.integers(*dims))
    eps = 0.01

    def dist():
        w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d)))
        return tuple(eps + (1.0 - d * eps) * w / w.sum())

    P0, P1 = dist(), dist()
    assume(not np.array_equal(P0, P1))
    alpha, beta = draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 3.0))
    gjs = dv.gjs_value(np.asarray(P0), np.asarray(P1), alpha)
    assume(gjs > 1e-3)
    lam0 = gjs * draw(st.sampled_from([0.05, 0.2, 0.5, 0.8, 0.99, 1.0, 1.5]))
    return ex.ProblemInstance(P0, P1, alpha, beta, ex.ConstantLambda(lam0), eps=eps)


def _check_join_kernel(inst, w):
    value, A, B = ex._join_budget_min(inst, w)
    a, lam0 = inst.alpha, inst.lam.lambda0
    assert value == a * dv.kl(A, inst.p0) + w * dv.kl(B, inst.p1)
    assert dv.weighted_join(a, A, 1.0, B) <= lam0 + 1e-12
    assert (value == 0.0) == (dv.gjs_value(inst.p0, inst.p1, a) <= lam0)
    assert min(A.min(), B.min()) >= inst.eps  # the floor holds with no projection
    if value > 0.0:
        assert _join_dual_gap(inst, w, value, A, B) <= 1e-12
    return value


@given(constant_instances())
@settings(max_examples=40, deadline=None)
def test_constant_budget_solved_exactly(inst):
    kappa = _check_join_kernel(inst, 1.0 + inst.beta)
    e_fix = _check_join_kernel(inst, 1.0)
    assert ex.kappa(inst) == kappa and ex.e_fix(inst) == e_fix
    mu = ex.mu(inst)
    assert mu == inst.alpha * dv.bht_tradeoff(inst.p1, inst.p0, inst.lam.lambda0 / inst.alpha)
    assert kappa <= mu  # Prop. 5: semi-sequential-1 equals sequential


@given(constant_instances(dims=(2, 3)))
@settings(max_examples=10, deadline=None)
def test_constant_budget_never_above_the_grid_oracles(inst):
    m = 200 if inst.d == 2 else 40
    assert ex.kappa(inst) <= orc.oracle_kappa(inst, m=m) + 1e-12
    assert ex.e_fix(inst) <= orc.oracle_efix(inst, m=m) + 1e-12


# kappa, mu and e_fix of the 50 fig2 points under the constrained pair-grid
# search that the exact constant-budget solvers replaced
FIG2_GRID_VALUES = (
    (0.8959604261406864, 1.5299057748365283, 0.6268243979208644),
    (0.7180340240799126, 1.385629484490085, 0.5005302266411042),
    (0.6302551530486737, 1.3097318274814929, 0.4373676265611346),
    (0.5647253297178636, 1.251777124373576, 0.391098123054063),
    (0.5113681958050152, 1.2033634083195845, 0.35452708082844986),
    (0.46506343876283995, 1.1611470905808376, 0.323275133417429),
    (0.4255339322746415, 1.1233952190927738, 0.2962947462846736),
    (0.3919000777866713, 1.0890270867056107, 0.27239694592136776),
    (0.36113607005345016, 1.057363456999223, 0.2503172550894819),
    (0.33296325522736203, 1.0279445952796982, 0.2314987996407431),
    (0.30670904570715707, 1.0003738725376887, 0.21410065260108627),
    (0.28468276876396564, 0.9744139901497412, 0.19628532818568994),
    (0.2634864091855501, 0.9498444237587511, 0.18119518240165067),
    (0.24402034497873126, 0.9265096772345572, 0.16736363082801364),
    (0.22416176878838698, 0.9042393947002154, 0.15455633697767449),
    (0.20620468346468487, 0.8829711763727699, 0.1430886179261657),
    (0.18998203378845202, 0.8625741026900381, 0.13329634222518966),
    (0.17533670393038286, 0.8429957730810238, 0.12235819953813849),
    (0.16214967640261946, 0.824163200898078, 0.11177884411213208),
    (0.14863865367089438, 0.8059841795305249, 0.10305089691418629),
    (0.13619156029418028, 0.7884395198984848, 0.09454624383492892),
    (0.1262295530980095, 0.7714884065881804, 0.08652202100111928),
    (0.11391005747478745, 0.7550697939836586, 0.07952421387272351),
    (0.10507725908737187, 0.7391693274635653, 0.07214748609991647),
    (0.0945819806959945, 0.7237299787221343, 0.0663908571813667),
    (0.08722524090735775, 0.7087613927518024, 0.06007432203203575),
    (0.07768774784876051, 0.6941882487724687, 0.05382677166073891),
    (0.07013934022154053, 0.680022008573079, 0.049272663013036906),
    (0.0637142436180145, 0.6662322729782119, 0.04373871577975586),
    (0.05657253857841339, 0.6528102650916684, 0.03904345593768496),
    (0.05059662872092915, 0.6397273727672055, 0.035223900208708615),
    (0.045584498094830395, 0.6269561670403053, 0.03176630991508244),
    (0.039144452354866514, 0.614509629377576, 0.02763919494771446),
    (0.03435409809155507, 0.6023611885400836, 0.02375605586630555),
    (0.030321633142066352, 0.5904853459606247, 0.020734887304312125),
    (0.025764212380718656, 0.5788766132566062, 0.01810659269592896),
    (0.022349065774825837, 0.5675296369441302, 0.0158550666806049),
    (0.018459770140673203, 0.5564391935123983, 0.01354556949749616),
    (0.015304929077358472, 0.5456001847850321, 0.011001809716424116),
    (0.012909797718943034, 0.5349713082975419, 0.008820923005586638),
    (0.010109172911669538, 0.5245848173960983, 0.006970773757710019),
    (0.007823949956904226, 0.5144004030198104, 0.005589273544429778),
    (0.00616714560560705, 0.5044321329523971, 0.004142691011146152),
    (0.0047313901876929, 0.49465861036847764, 0.0030088238694975554),
    (0.002985858954784839, 0.4850764709964717, 0.002090895581334835),
    (0.0020870111312455515, 0.47568241635034114, 0.001308526295312417),
    (0.001628219935916419, 0.4664732117173175, 0.0007651879891999515),
    (0.000518704592121464, 0.45744568424322013, 0.00032287675677318604),
    (0.00026303810511012346, 0.4485967211098092, 0.00013151905255506173),
    (0.0, 0.4399069589368117, 0.0),
)


def test_fig2_exact_values_never_above_the_grid_search():
    cfg = cli.load_config(preset="fig2")
    for lam0, old in zip(cfg.sweep_values(), FIG2_GRID_VALUES):
        inst = cfg.instance(lambda0=float(lam0))
        new = (ex.kappa(inst), ex.mu(inst), ex.e_fix(inst))
        assert all(n <= o for n, o in zip(new, old)), (lam0, new, old)


def _fig2_joins():
    """(inst, w, (value, A, B)) of the 100 constant-budget solves of the
    fig2 sweep: kappa's (w = 1 + beta) and e_fix's (w = 1) at each point."""
    cfg = cli.load_config(preset="fig2")
    for lam0 in map(float, cfg.sweep_values()):
        inst = cfg.instance(lambda0=lam0)
        for w in (1.0 + inst.beta, 1.0):
            yield inst, w, ex._join_budget_min(inst, w)


def test_fig2_values_lie_on_their_envelope():
    # kappa and e_fix are convex in lambda0 with slope -s* at the optimal
    # multiplier (ROADMAP item 2), so between consecutive points the secant
    # lies between the slopes at its two ends
    curves = {}
    for inst, w, (value, A, B) in _fig2_joins():
        curves.setdefault(w, []).append((inst.lam.lambda0, value, _join_multiplier(inst, A, B)[0]))
    assert [len(c) for c in curves.values()] == [50, 50]
    for curve in curves.values():
        for (l0, v0, s0), (l1, v1, s1) in zip(curve, curve[1:]):
            assert -s0 <= (v1 - v0) / (l1 - l0) <= -s1, (l0, l1)


def test_constant_budgets_take_few_fixed_point_solves(monkeypatch):
    # a count, not a time: the secant search this Newton search replaced
    # made 953 `_join_fixed_point` calls over fig2's 100 solves
    calls = []
    solve = ex._join_fixed_point

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(ex, "_join_fixed_point", counted)
    assert sum(1 for _ in _fig2_joins()) == 100
    assert 0 < len(calls) <= 953


def test_nu_takes_few_tilts(monkeypatch):
    # a count, not a time: bisecting rho took 3,632 one-pair tilts for nu
    # over the 100 fig1 and fig3 sweep points
    calls = []
    tilt = dv.tilt

    def counted(*args):
        calls.append(1)
        return tilt(*args)

    monkeypatch.setattr(dv, "tilt", counted)
    for preset in ("fig1", "fig3"):
        cfg = cli.load_config(preset=preset)
        for xi in map(float, cfg.sweep_values()):
            assert 0.0 < ex.nu(cfg.instance(xi=xi))
    assert 0 < len(calls) <= 3632 // 3


@pytest.mark.parametrize("d", [4, 5, 6])
def test_constant_report_at_large_alphabets(d):
    # no pair grid: a constant budget reports at every d the README promises
    P0 = tuple(np.linspace(1.0, 2.0, d) / np.linspace(1.0, 2.0, d).sum())
    P1 = P0[::-1]
    inst = ex.ProblemInstance(P0, P1, 1.0, 1.0, ex.ConstantLambda(0.01))
    rep = ex.report(inst)
    assert all(math.isfinite(v) and v > 0.0 for v in rep.as_dict().values())
    assert rep.kappa <= rep.mu
    assert rep.e_fix <= min(rep.e_semi1, rep.e_semi2)


def test_nu_constant():
    inst = const_inst(lam0=0.1)
    pg = grid_array(2, 10_000)
    d0 = dv.kl_matrix(pg, np.asarray(P0)[None, :])[:, 0]
    d1 = dv.kl_matrix(pg, np.asarray(P1)[None, :])[:, 0]
    want = float(d1[d0 <= 0.1].min())
    assert ex.nu(inst) == pytest.approx(want, abs=1e-3)


def test_nu_zero_when_budget_dominates():
    big = dv.kl(np.asarray(P1), np.asarray(P0)) + 0.1
    inst = const_inst(lam0=big)
    assert ex.nu(inst) == 0.0


def test_e_fix_constant_shortcut_zero():
    g = dv.gjs_value(np.asarray(P0), np.asarray(P1), 2.0)
    inst = const_inst(lam0=g + 0.01)
    assert ex.e_fix(inst) == 0.0


def test_e_fix_constant_vs_oracle():
    inst = const_inst()
    got = ex.e_fix(inst, FAST)
    want = orc.oracle_efix(inst, m=400)
    assert got == pytest.approx(want, abs=5e-3)


def test_e_fix_argmin_is_feasible():
    inst = const_inst()
    res = ex.e_fix_search(inst, FAST)
    q, q0, q1 = res.argmin
    assert dv.gjs_value(np.asarray(q0), np.asarray(q), inst.alpha) <= inst.lam.lambda0 + 1e-9


def test_report_assembly_and_ordering():
    for inst in (const_inst(), renyi_inst()):
        rep = ex.report(inst, FAST)
        assert rep.e_seq == min(rep.renyi_term, rep.kappa)
        assert rep.e_semi1 == min(rep.e_seq, rep.mu)
        assert rep.e_semi2 == min(rep.e_seq, rep.nu)
        tol = 1e-6
        assert rep.e_fix <= rep.e_semi1 + tol
        assert rep.e_fix <= rep.e_semi2 + tol


def test_report_kappa_note():
    rep = ex.report(renyi_inst(offset=0.0), FAST)
    assert math.isinf(rep.kappa)
    assert rep.kappa_note == "analytic"


def test_find_mu_violation_requires_product_below_one():
    assert orc.find_mu_violation(1.2, 1.2) is None


# e_fix at fig1 (alpha 0.38, beta 0.6, offset 0.003) and fig3 (alpha 0.7,
# beta 0.7, offset 0) points under DUAL_CFG; recorded from the safeguarded
# Newton search on each cell's multiplier (duality gap 1e-12 * (1 + value)).
# Each lies about 1e-13 above the value of bisecting every multiplier to
# its floating-point fixed point
DUAL_CFG = SearchConfig(coarse_m=40, refine_rounds=1)
EFIX_PINNED = (
    ((0.38, 0.6, 0.003, 0.25), 0.12019132642016848),
    ((0.38, 0.6, 0.003, 0.75), 0.01633368733735485),
    ((0.7, 0.7, 0.0, 0.3), 0.1414970960083003),
    ((0.7, 0.7, 0.0, 0.9), 0.0043378657799957865),
)


@pytest.mark.parametrize(
    "p0, p1, alpha, beta, lam, mu, mv",
    [
        (P0, P1, 0.38, 0.6, ex.ScaledRenyiLambda(0.5, 0.003), 100, 90),  # fig1
        (P0, P1, 0.7, 0.7, ex.ScaledRenyiLambda(0.5, 0.0), 100, 100),  # fig3
        ((0.5, 0.3, 0.2), (0.1, 0.2, 0.7), 0.7, 0.7, ex.ScaledRenyiLambda(0.6, 0.0), 14, 14),
    ],
    ids=["fig1", "fig3", "d3"],
)
def test_efix_dual_batched_matches_single_cells(p0, p1, alpha, beta, lam, mu, mv):
    # the grids hold thousands of cells, more than the dual solves at once
    inst = ex.ProblemInstance(p0, p1, alpha, beta, lam)
    U = grid_array(inst.d, mu, eps=inst.eps)
    V = grid_array(inst.d, mv, eps=inst.eps)
    assert U.shape[0] * V.shape[0] > 8000
    got = ex._efix_dual_matrix(U, V, inst)
    L = ex.lambda_matrix(inst.lam, U, V, inst.beta)
    assert np.isinf(got[L <= 0.0]).all()  # every finite cell has a budget
    assert np.isfinite(got.ravel()[got.argmin()])
    if lam.offset == 0.0:
        assert (L <= 0.0).any()  # the diagonal u = v has no budget
    # sample every kind of cell: infeasible, inside the ball at s = 0,
    # active, and dropped by the Lagrangian bound
    rng = np.random.Generator(np.random.Philox(key=np.uint64(17)))
    flat, Lflat = got.ravel(), L.ravel()
    picks = list(rng.choice(flat.size, 40, replace=False))
    kinds = (Lflat <= 0.0, flat == 0.0, np.isfinite(flat) & (flat > 0.0), np.isinf(flat) & (Lflat > 0.0))
    for kind in kinds:
        picks += list(np.flatnonzero(kind)[:3])
    for k in picks:
        i, j = divmod(int(k), V.shape[0])
        single = ex._efix_dual_matrix(U[i][None, :], V[j][None, :], inst)
        assert single.shape == (1, 1)
        if np.isfinite(got[i, j]) or L[i, j] <= 0.0:
            assert single[0, 0] == got[i, j], (i, j)
        else:
            assert single[0, 0] > got.min(), (i, j)


@pytest.mark.parametrize(
    "p0, p1, alpha, beta, lam, mu, mv",
    [
        (P0, P1, 0.38, 0.6, ex.ScaledRenyiLambda(0.5, 0.003), 14, 14),  # fig1
        (P0, P1, 0.7, 0.7, ex.ScaledRenyiLambda(0.5, 0.0), 14, 14),  # fig3: L <= 0 on the diagonal
        (P0, P1, 0.38, 0.6, ex.ScaledRenyiLambda(1.0, 0.05), 14, 14),  # fig1 with cells worth 0
        ((0.5, 0.3, 0.2), (0.1, 0.2, 0.7), 0.7, 0.7, ex.ScaledRenyiLambda(0.6, 0.0), 4, 4),
        ((0.4, 0.3, 0.2, 0.1), (0.1, 0.2, 0.3, 0.4), 0.38, 0.6, ex.ScaledRenyiLambda(0.5, 0.003), 3, 2),
    ],
    ids=["fig1", "fig3", "fig1_zero", "d3", "d4"],
)
def test_efix_dual_keeps_the_minimum(p0, p1, alpha, beta, lam, mu, mv):
    # a 1 x 1 call is never pruned, so cell by cell it solves every cell
    inst = ex.ProblemInstance(p0, p1, alpha, beta, lam)
    U = grid_array(inst.d, mu, eps=inst.eps)
    V = grid_array(inst.d, mv, eps=inst.eps)
    got = ex._efix_dual_matrix(U, V, inst)
    full = np.array([[ex._efix_dual_matrix(u[None, :], v[None, :], inst)[0, 0] for v in V] for u in U])
    L = ex.lambda_matrix(inst.lam, U, V, inst.beta)
    assert (np.isinf(got) & (L > 0.0)).any()  # the bound dropped cells
    assert got.min() == full.min()
    assert got.argmin() == full.argmin()
    if lam.offset == 0.05:
        assert full.min() == 0.0


def _efix_oracle_cells():
    """(instance, u, v) cells for the scalar oracle: random laws at d = 2, 3
    and 4, random cells of the fig1 and fig3 coarse grids (the pinned sweep
    points), and fig3's tiny budgets, neighbours on that grid (L from
    2.5e-5 to 1.3e-4, where the doubling runs to s = 64 to 512)."""
    cells = []
    for d in (2, 3, 4):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(100 + d)))

        def law():
            return 0.02 + (1 - 0.02 * d) * rng.dirichlet(np.ones(d))

        inst = ex.ProblemInstance(tuple(law()), tuple(law()), 0.38, 0.6, ex.ScaledRenyiLambda(0.5, 0.003))
        cells += [(f"d{d}", inst, law(), law()) for _ in range(8)]
    for preset, point, _, _ in DEFAULT_PINNED:
        config = cli.load_config(preset=preset)
        inst = config.instance(xi=float(config.sweep_values()[point]))
        grid = grid_array(2, 200, eps=inst.eps)
        rng = np.random.Generator(np.random.Philox(key=np.uint64(7)))
        cells += [(preset, inst, grid[i], grid[j]) for i, j in rng.integers(0, len(grid), size=(8, 2))]
        if preset == "fig3":
            cells += [("fig3-tiny", inst, grid[i], grid[i + k]) for i in (10, 60, 120, 180) for k in (-1, 1)]
    return cells


def test_efix_dual_cell_matches_the_scalar_oracle():
    # a 1 x 1 dual is never pruned: it solves its cell, to a duality gap of
    # 1e-12 * (1 + value), so it stays this close to a bisection of the
    # multiplier built from the scalar primitives alone
    kinds = set()
    for kind, inst, u, v in _efix_oracle_cells():
        got = ex._efix_dual_matrix(u, v, inst)[0, 0]
        want = orc.oracle_efix_cell(u, v, inst)
        assert 0.0 < want < math.inf, kind
        assert abs(got - want) <= 1e-11 * (1.0 + want), (kind, u, v, got, want)
        if kind == "fig3-tiny":
            assert ex.lambda_matrix(inst.lam, u, v, inst.beta)[0, 0] < 2e-4
        kinds.add(kind)
    assert kinds == {"d2", "d3", "d4", "fig1", "fig3", "fig3-tiny"}


# tracemalloc peak of _efix_dual_matrix on the fig1 201 x 201 coarse grid
# when every active cell was bisected
DUAL_PEAK_SOLVE_ALL = 2.54 * 2**20


def test_efix_dual_memory_stays_flat():
    inst = renyi_inst()
    U = grid_array(2, 200, eps=inst.eps)
    tracemalloc.start()
    try:
        ex._efix_dual_matrix(U, U, inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * DUAL_PEAK_SOLVE_ALL


# g1 (refined) over a row stack and _mu_inner on fig1 tuples under FAST, and
# the sum of kappa's g (_g1_diag) over the eps-floored m = 60 grid; recorded once
# every divergence matrix summed each cell over the alphabet left to right.
# The sum is over box_grid's whole-simplex grid, whose last coordinate is
# 1 - the others
PIN_ROWS = np.array([[0.3, 0.7], [0.55, 0.45], [0.12, 0.88], [0.8, 0.2]])
G1_PINNED = (-0.050220719979256256, -0.01195996453292919, 0.42290306586501464, 0.2018219418381768)
MU_INNER_PINNED = (-0.0022988094237127747, -0.6800964811539313, -0.053037708202143895, -0.2270407944916898)
G1_DIAG_SUM_PINNED = 552.5886583919361


def test_g1_kernels_pinned_values():
    inst = renyi_inst()
    Q, Q0, Q1 = PIN_ROWS, PIN_ROWS[[1, 2, 3, 0]], PIN_ROWS[[2, 3, 0, 1]]
    assert tuple(ex.g1(Q, Q0, Q1, inst, FAST)) == G1_PINNED
    assert tuple(ex._mu_inner(Q1, inst, FAST, ex._inner_table(inst, FAST, rows=inst.p1[None, :]))) == MU_INNER_PINNED
    pg = grid_array(2, 60, eps=inst.eps)
    lead, per_row = ex._g1_diag(inst, FAST)
    assert float(ex._min_plus(lead(pg), per_row(pg)).sum()) == G1_DIAG_SUM_PINNED


@pytest.mark.parametrize("d, rows", [(2, 64), (2, 700), (3, 5)], ids=["d2", "d2-two-calls", "d3"])
def test_g1_stack_equals_one_row_calls(d, rows):
    # a stack is scored and polished in calls of at most _POLISH_CELLS
    # two-box cells (623 rows at d = 2, one at d = 3), and every cell is
    # computed from its own rows: the stacked scores equal the one-row calls
    # bit for bit
    if d == 2:
        inst, cfg = renyi_inst(), FAST
    else:
        inst, cfg = D3_RENYI, SearchConfig(coarse_m=20)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(11)))
    Q, Q0, Q1 = (0.02 + (1.0 - 0.02 * d) * rng.dirichlet(np.ones(d), size=rows) for _ in range(3))
    got = ex.g1(Q, Q0, Q1, inst, cfg)
    assert isinstance(got, np.ndarray) and got.shape == (rows,)
    assert got.tolist() == [ex.g1(q, q0, q1, inst, cfg) for q, q0, q1 in zip(Q, Q0, Q1)]
    # a constant budget's stack is the weighted join, row for row
    const = ex.ProblemInstance(inst.P0, inst.P1, 2.0, 1.0, ex.ConstantLambda(0.05))
    assert ex.g1(Q, Q0, Q1, const).tolist() == [ex.g1(q, q0, q1, const) for q, q0, q1 in zip(Q, Q0, Q1)]


#: float64 arrays of _POLISH_CELLS cells that g1 may hold at once; a
#: 2,000-row d = 2 stack peaks at 4.1 of them
G1_STACK_PEAK_ARRAYS = 5


def test_g1_stack_memory_is_bounded_by_the_polish_cap():
    # 2,000 rows at d = 2 are polished in four calls of at most 623 rows,
    # each scoring at most _POLISH_CELLS two-box cells; one call over every
    # row would hold each (2000, 41, 41) score array, 27 MB, at once
    inst = renyi_inst()
    rng = np.random.Generator(np.random.Philox(key=np.uint64(12)))
    Q, Q0, Q1 = (0.02 + 0.96 * rng.dirichlet(np.ones(2), size=2000) for _ in range(3))
    tracemalloc.start()
    try:
        ex.g1(Q, Q0, Q1, inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < G1_STACK_PEAK_ARRAYS * 8 * ex._POLISH_CELLS


# columns the kappa constraint (the g of _g1_diag) was evaluated on in one
# fig1 search at xi = 0.5, default solver, when every column of every grid
# was evaluated
KAPPA_COLUMNS_EVALUATE_ALL = 329


def test_kappa_constraint_sees_only_columns_that_can_win(monkeypatch):
    # counts the Q1 rows whose per_row the constraint computes; a row met
    # again is read from the score's memo, so this is at most the columns
    # visited
    inst = cli.load_config(preset="fig1").instance(xi=0.5)
    want = ex.kappa_search(inst)
    columns = []
    diag = ex._g1_diag

    def counted(inst_, cfg):
        lead, per_row = diag(inst_, cfg)

        def wrapped(Q1rows):
            columns.append(Q1rows.shape[0])
            return per_row(Q1rows)

        return lead, wrapped

    monkeypatch.setattr(ex, "_g1_diag", counted)
    got = ex.kappa_search(inst)
    assert got.value == want.value
    assert 0 < sum(columns) <= KAPPA_COLUMNS_EVALUATE_ALL // 2


def _mu_inner_loop(Q1rows, inst, cfg, table):
    """_mu_inner as a loop over its rows, each polished alone through
    one-centre boxes and 2-D kernels: the form the stacked polish must
    reproduce bit for bit."""
    pg, nlam = table
    out = []
    for q in Q1rows:
        scores = inst.beta * dv.kl_matrix(q[None], pg)[0] + nlam[0]
        best, center = scores.min(), pg[scores.argmin()]
        for halfwidth, density in box_schedule(ex._inner_density(inst, cfg), ex._POLISH_ROUNDS):
            V = box_grid(center, halfwidth, density, inst.eps)
            v = inst.beta * dv.kl_matrix(q[None], V)[0] - ex.lambda_matrix(inst.lam, inst.p1[None], V, inst.beta)[0]
            best, center = min(best, v.min()), V[v.argmin()]
        out.append(best)
    return out


#: the d = 3 scaled-Renyi instance of the ROADMAP
D3_RENYI = ex.ProblemInstance((0.5, 0.3, 0.2), (0.1, 0.2, 0.7), 0.7, 0.7, ex.ScaledRenyiLambda(0.6, 0.003))


@pytest.mark.parametrize(
    "case",
    [("fig1", 0.2), ("fig1", 0.75), ("fig3", 0.3), ("fig3", 0.9), ("d3", None)],
    ids=lambda c: f"{c[0]}-{c[1]}",
)
def test_mu_inner_stack_equals_each_row_alone(case):
    preset, xi = case
    if preset == "d3":
        inst, cfg = D3_RENYI, SearchConfig()
        rows = grid_array(3, 12, eps=inst.eps)[::3]
    else:
        config = cli.load_config(preset=preset)
        inst, cfg = config.instance(xi=xi), config.solver
        rows = np.vstack([grid_array(2, 40, eps=inst.eps)[::3], [[0.0, 1.0], [1.0, 0.0], [0.995, 0.005]]])
    table = ex._inner_table(inst, cfg, rows=inst.p1[None, :])
    got = ex._mu_inner(rows, inst, cfg, table)
    assert got.tolist() == [ex._mu_inner(q[None], inst, cfg, table)[0] for q in rows]
    assert got.tolist() == _mu_inner_loop(rows, inst, cfg, table)
    if preset == "d3":
        # the first polish boxes differ in size: some are cut by the simplex
        # edge, so the stack carries padding
        pg, nlam = table
        centers = pg[(inst.beta * dv.kl_matrix(rows, pg) + nlam[0]).argmin(axis=1)]
        (halfwidth, density), _ = box_schedule(ex._inner_density(inst, cfg), ex._POLISH_ROUNDS)
        width = box_grid(centers, halfwidth, density, inst.eps).shape[1]
        assert halfwidth > inst.eps and min(len(box_grid(c, halfwidth, density, inst.eps)) for c in centers) < width


@pytest.mark.parametrize("d", [2, 3])
def test_constraint_cells_keep_their_bits(d):
    # the pair search evaluates kappa's and mu's constraints on a few
    # columns at a time, down to one, through one g per search that keeps
    # what it has computed; each cell must equal its value when every
    # column is evaluated together by a fresh g
    p0, p1 = (P0, P1) if d == 2 else ((0.5, 0.3, 0.2), (0.1, 0.2, 0.7))
    inst = ex.ProblemInstance(p0, p1, 0.38, 0.6, ex.ScaledRenyiLambda(0.5, 0.003))
    cfg = SearchConfig(coarse_m=30 if d == 2 else 20, refine_rounds=2)
    rows = grid_array(d, 20, eps=inst.eps)[:: 1 if d == 2 else 6]
    mu_table = ex._inner_table(inst, cfg, rows=inst.p1[None, :])
    h = ex._mu_inner(rows, inst, cfg, mu_table)
    for width in range(1, 9):
        for j in range(0, len(rows) - width + 1, width):
            assert np.array_equal(ex._mu_inner(rows[j : j + width], inst, cfg, mu_table), h[j : j + width])
    # a flat objective ties every column, so a score visits them all and
    # reads the sign of g alone
    flat = lambda A, B: np.zeros((len(A), len(B)))
    for build in (ex._g1_diag, ex._mu_g):
        lead, per_row = build(inst, cfg)
        full = ex._min_plus(lead(rows), per_row(rows))
        signs = np.where(full < 0.0, 0.0, np.inf)
        kept = ex._constrained(flat, lead, per_row)  # met every column at an earlier width
        for width in range(1, 9):
            score = ex._constrained(flat, lead, per_row)
            for j in range(0, len(rows) - width + 1, width):
                cols = slice(j, j + width)
                assert np.array_equal(ex._min_plus(lead(rows), per_row(rows[cols])), full[:, cols])
                assert np.array_equal(score(rows, rows[cols], np.inf), signs[:, cols])
                assert np.array_equal(kept(rows, rows[cols], np.inf), signs[:, cols])
    # mu's P0' slot holds P1 alone: its g adds the lead and h, cell by cell
    want = inst.alpha * dv.kl(rows, inst.p1)[:, None] + h[None, :]
    lead, per_row = ex._mu_g(inst, cfg)
    assert np.array_equal(ex._min_plus(lead(rows), per_row(rows)), want)


def _block_loop(s, blocks):
    """c, f and dc/ds of the e_fix tilt as a loop over the blocks of the
    tuple, each block a (target (d, 1), reference (d, K), weight) triple:
    the form the fused kernel, summed in block order, must reproduce bit
    for bit."""

    def alphabet_sum(x):
        total = x[0]
        for row in x[1:]:
            total = total + row
        return total

    w = s / (1.0 + s)
    keep = 1.0 - w
    c, f, dc = np.zeros_like(s), np.zeros_like(s), np.zeros_like(s)
    for target, ref, wt in blocks:
        lz = keep * target
        lz += w * ref
        mx = lz[0]
        for row in lz[1:]:
            mx = np.maximum(mx, row)
        lz -= mx
        z = np.exp(lz, out=lz)
        z /= alphabet_sum(z)
        lq = np.log(np.where(z > 0, z, 1.0))
        gap = lq - ref
        gap *= z
        to_ref = alphabet_sum(gap)
        to_target = alphabet_sum(z * (lq - target))
        c += wt * to_ref / dv.LN2
        f += wt * to_target / dv.LN2
        var = alphabet_sum((ref - target) ** 2 * z) - (to_target - to_ref) ** 2
        dc += -wt * var / ((1.0 + s) ** 3 * dv.LN2)
    return c, f, dc


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("slope", [False, True])
def test_fused_tilt_equals_block_loop(d, slope):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(d)))
    K = 300
    targets = np.log(0.01 + 0.9 * rng.dirichlet(np.ones(d), size=3))[:, :, None]  # (3, d, 1)
    refs = np.log(0.01 + 0.9 * rng.dirichlet(np.ones(d), size=(3, K))).transpose(0, 2, 1)  # (3, d, K)
    weights = np.array([[1.0], [0.38], [0.6]])
    # multipliers from 0 through the doubling range and bisection midpoints
    s = np.concatenate([[0.0], 2.0 ** rng.integers(0, 70, K // 2), rng.random(K - K // 2 - 1) * 50])
    got = [dv.ordered_sum(t) for t in ex._block_terms(s, (targets, refs, weights), slope=slope)]
    want = _block_loop(s, [(targets[b], refs[b], float(weights[b, 0])) for b in range(3)])
    assert len(got) == (3 if slope else 2)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_d3_report_near_the_simplex_boundary():
    # mu's search runs without the eps floor; a box point whose last
    # coordinate came out as -2.2e-16 used to reach as_dist and raise
    inst = ex.ProblemInstance((0.216, 0.33, 0.454), (0.946, 0.043, 0.011), 0.38, 0.6,
                              ex.ConstantLambda(0.122416999096))
    rep = ex.report(inst)
    assert all(math.isfinite(v) and v >= 0.0 for v in rep.as_dict().values())
    res = ex.mu_search(inst)
    assert all((q >= 0.0).all() for q in res.argmin)


@pytest.mark.parametrize(
    "R, J, K, blocks",
    [(7, 13, 11, 1), (3, 401, 401, 3), (201, 8, 401, 6), (201, 8, 1, 1), (2000, 13, 11, 3)],
    ids=["small", "p1-slot-d2", "kappa-combine", "mu-combine", "many-blocks"],
)
def test_min_plus_matches_broadcast(R, J, K, blocks):
    # the shapes of g1's P1' slot (R, k1) x (k0, k1), kappa's combine
    # (N, k) x (M, k) and mu's (N, 1) x (M, 1); the blocked loop takes the
    # same sums and the same exact min as one (R, J, K) broadcast, +inf
    # entries and an all-+inf row included
    assert math.ceil(R / max(1, ex._MIN_PLUS_CELLS // (J * K))) == blocks
    rng = np.random.default_rng(R * J * K)
    rows, table = rng.normal(size=(R, K)), rng.normal(size=(J, K))
    rows[rng.random(rows.shape) < 0.1] = np.inf
    table[rng.random(table.shape) < 0.1] = np.inf
    rows[R // 2] = np.inf
    tracemalloc.start()
    try:
        got = ex._min_plus(rows, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, (rows[:, None, :] + table[None, :, :]).min(axis=2))
    assert np.isinf(got[R // 2]).all()
    # besides the result, one block's sums (one row's, when a row passes
    # the cap) and less again for its minimum and numpy's reduction buffer;
    # one kappa-combine broadcast would hold 5.2 MB
    assert peak <= got.nbytes + 2 * 8 * max(ex._MIN_PLUS_CELLS, J * K)


@pytest.mark.parametrize("point, want", EFIX_PINNED)
def test_efix_pinned_values(point, want):
    alpha, beta, offset, xi = point
    inst = ex.ProblemInstance(P0, P1, alpha, beta, ex.ScaledRenyiLambda(xi, offset))
    assert ex.e_fix(inst, DUAL_CFG) == want


# e_fix and mu at the default solver on a fig1 and a fig3 sweep point (the
# index into the preset's sweep): a 201 x 201 coarse dual solved in many
# chunks, then three box rounds.  mu was recorded once every divergence
# matrix summed each cell over the alphabet left to right, e_fix from the
# Newton search on each cell's multiplier
DEFAULT_PINNED = (
    ("fig1", 24, 0.055747884198111025, 0.2225876554133018),
    ("fig3", 40, 0.011417282558847865, 0.365132129574385),
)
#: the most tilt-kernel passes (`_block_terms` calls) e_fix_search may make
#: at the DEFAULT_PINNED points: a third of the 478 and 612 that bisecting
#: every cell's multiplier to its floating-point fixed point took
EFIX_PASS_LIMIT = {"fig1": 160, "fig3": 204}


@pytest.mark.parametrize("preset, point, e_fix, mu", DEFAULT_PINNED, ids=["fig1", "fig3"])
def test_efix_pinned_at_the_default_solver(preset, point, e_fix, mu):
    config = cli.load_config(preset=preset)
    assert config.solver == SearchConfig()
    assert ex.e_fix(config.instance(xi=float(config.sweep_values()[point])), SearchConfig()) == e_fix


@pytest.mark.parametrize("preset, point, e_fix, mu", DEFAULT_PINNED, ids=["fig1", "fig3"])
def test_efix_search_takes_few_kernel_passes(monkeypatch, preset, point, e_fix, mu):
    # a count, not a time: each pass tilts every block of a chunk's cells
    # (or of a shared multiplier's references) once
    config = cli.load_config(preset=preset)
    passes = []
    kernel = ex._block_terms

    def counted(*args, **kwargs):
        passes.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(ex, "_block_terms", counted)
    assert ex.e_fix(config.instance(xi=float(config.sweep_values()[point])), SearchConfig()) == e_fix
    assert 0 < len(passes) <= EFIX_PASS_LIMIT[preset]


@pytest.mark.parametrize("preset, point, e_fix, mu", DEFAULT_PINNED, ids=["fig1", "fig3"])
def test_mu_search_solves_each_q1_row_once(monkeypatch, preset, point, e_fix, mu):
    # the pair search meets the incumbent Q1 row at every Q0 box step; its
    # h is solved once per search, and the value does not move
    config = cli.load_config(preset=preset)
    solved = []
    inner = ex._mu_inner

    def counted(Q1rows, *args):
        solved.extend(row.tobytes() for row in Q1rows)
        return inner(Q1rows, *args)

    monkeypatch.setattr(ex, "_mu_inner", counted)
    assert ex.mu(config.instance(xi=float(config.sweep_values()[point])), SearchConfig()) == mu
    assert 0 < len(solved) == len(set(solved))


# kappa_search and mu_search, value and argmin as float.hex, at two fig1
# sweep points (the index into the preset's sweep), one fig3 point (mu
# only: kappa is inf there) and the d = 3 instance at coarse_m 12; recorded
# before kappa's and mu's constraints shared one slot minimum.  The
# benchmark holds these values only to 1e-9
SLOT_MIN_PINNED = (
    (("fig1", 10), "kappa", "0x1.f05f30561079ep-3",
     (("0x1.5cfaacd9e83e5p-3", "0x1.a8c154c985f07p-1"), ("0x1.3318fc504816fp-3", "0x1.b339c0ebedfa4p-1"))),
    (("fig1", 10), "mu", "0x1.13fc93fb27e45p-2",
     (("0x1.48beb5b2d4d40p-3", "0x1.add052934acb0p-1"), ("0x1.47ae147ae147bp-6", "0x1.f5c28f5c28f5cp-1"))),
    (("fig1", 40), "kappa", "0x1.afc5301f157f5p-3",
     (("0x1.9102363b25700p-3", "0x1.9bbf727136a40p-1"), ("0x1.28f5c28f5c28fp-3", "0x1.b5c28f5c28f5cp-1"))),
    (("fig1", 40), "mu", "0x1.7de5706d32f08p-3",
     (("0x1.23fe5c91d14e3p-2", "0x1.6e00d1b71758ep-1"), ("0x1.f5c28f5c28f5cp-3", "0x1.828f5c28f5c29p-1"))),
    (("fig3", 25), "mu", "0x1.bbeeb4aac78a2p-2",
     (("0x1.73eab367a0f90p-3", "0x1.a305532617c1cp-1"), ("0x1.eb851eb851eb8p-7", "0x1.f851eb851eb85p-1"))),
    (("d3", None), "kappa", "0x1.bb73ca41024f4p-2",
     (("0x1.792c5f92c5f92p-3", "0x1.0a94d242e6bddp-2", "0x1.1c6a7ef9db22dp-1"), ("0x1.53cc1e098ead6p-3", "0x1.fef9db22d0e56p-3", "0x1.2b4e81b4e81b5p-1"))),
    (("d3", None), "mu", "0x1.c960195edaa77p-2",
     (("0x1.5b7a32846ff51p-3", "0x1.00f04c756b2dcp-2", "0x1.28a94d242e6bep-1"), ("0x1.7e4b17e4b17e3p-6", "0x1.53a06d3a06d3ap-3", "0x1.9f258bf258bf2p-1"))),
)


@pytest.mark.parametrize("case, search, value, argmin", SLOT_MIN_PINNED,
                         ids=[f"{c[0]}-{c[1]}-{s}" for c, s, _, _ in SLOT_MIN_PINNED])
def test_kappa_and_mu_searches_keep_their_bits(case, search, value, argmin):
    preset, point = case
    if preset == "d3":
        inst, cfg = D3_RENYI, SearchConfig(coarse_m=12)
    else:
        config = cli.load_config(preset=preset)
        inst, cfg = config.instance(xi=float(config.sweep_values()[point])), config.solver
    res = getattr(ex, f"{search}_search")(inst, cfg)
    assert float(res.value).hex() == value
    assert tuple(tuple(float(x).hex() for x in q) for q in res.argmin) == argmin


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_shared_multiplier_terms_equal_the_per_pair_kernel(d):
    # the e_fix dual's s = 0 test and doubling tilt each reference once per
    # multiplier and add the block terms per pair; that must give every
    # pair the bits of _block_terms on the pair's own references, summed in
    # block order
    rng = np.random.Generator(np.random.Philox(key=np.uint64(40 + d)))
    N, M = 13, 7
    targets = np.log(0.01 + 0.9 * rng.dirichlet(np.ones(d), size=3))[:, :, None]  # (3, d, 1)
    weights = np.array([[1.0], [0.38], [0.6]])
    logu = np.log(0.01 + 0.9 * rng.dirichlet(np.ones(d), size=N)).T  # (d, N)
    logv = np.log(0.01 + 0.9 * rng.dirichlet(np.ones(d), size=M)).T  # (d, M)
    toward_u = targets[:2], np.stack([logu, logu]), weights[:2]
    toward_v = targets[2:], logv[None], weights[2:]
    rows, cols = np.divmod(np.arange(N * M), M)
    per_pair = targets, np.stack([logu[:, rows], logu[:, rows], logv[:, cols]]), weights
    for s in [0.0] + [2.0**t for t in range(70)]:
        cu, fu, cv, fv = [dv.ordered_sum(t) for blocks in (toward_u, toward_v) for t in ex._block_terms(s, blocks)]
        assert cu.shape == fu.shape == (N,) and cv.shape == fv.shape == (M,)
        c, f = [dv.ordered_sum(t) for t in ex._block_terms(np.full(N * M, s), per_pair)]
        assert np.array_equal(cu[rows] + cv[cols], c), s
        assert np.array_equal(fu[rows] + fv[cols], f), s


@pytest.mark.parametrize(
    "p0, p1, alpha, beta, lam",
    [
        (P0, P1, 0.38, 0.6, ex.ScaledRenyiLambda(0.5, 0.003)),  # fig1
        (P0, P1, 0.7, 0.7, ex.ScaledRenyiLambda(0.5, 0.0)),  # fig3
        (P0, P1, 0.38, 0.6, ex.ScaledRenyiLambda(1.0, 0.05)),  # fig1 with cells worth 0
    ],
    ids=["fig1", "fig3", "fig1_zero"],
)
def test_efix_dual_box_step_shapes(p0, p1, alpha, beta, lam):
    # a box step of the pair search calls the dual on a box of one block
    # against the other block's incumbent, and a 1 x 1 call scores a pair:
    # each cell is solved alone, under its own 1 x 1 budget
    inst = ex.ProblemInstance(p0, p1, alpha, beta, lam)
    u0, v0 = ex.e_fix_search(inst, DUAL_CFG).argmin
    (halfwidth, density), = box_schedule(200, 1)
    box_u, box_v = (box_grid(x, halfwidth, density, inst.eps) for x in (u0, v0))
    assert len(box_u) == len(box_v) == 41
    for U, V in ((box_u, v0[None]), (u0[None], box_v), (u0[None], v0[None])):
        got = ex._efix_dual_matrix(U, V, inst)
        assert got.shape == (len(U), len(V))
        full = np.empty(got.shape)
        for i, j in np.ndindex(got.shape):
            full[i, j] = ex._efix_dual_matrix(U[i][None], V[j][None], inst)[0, 0]
        assert np.isfinite(got.min())
        assert got.min() == full.min()
        assert got.argmin() == full.argmin()
        finite = np.isfinite(got)
        assert np.array_equal(got[finite], full[finite])
        assert (full[~finite] > got.min()).all()


def test_g1_polish_bound_sized_without_allocating():
    # the bound takes each box's mesh size, an upper bound on box_grid's rows
    for d, k in ((2, 400), (3, 60), (4, 60)):
        center = grid_array(d, k, eps=0.01)[k // 3]
        for halfwidth, density in box_schedule(k, ex._POLISH_ROUNDS):
            assert box_grid(center, halfwidth, density, 0.01).shape[0] <= box_mesh_size(
                d, halfwidth, density
            )
    ex.check_g1_polish(renyi_inst())
    inst3 = ex.ProblemInstance((0.5, 0.3, 0.2), (0.2, 0.3, 0.5), 0.38, 0.6,
                               ex.ScaledRenyiLambda(0.5, 0.003))
    ex.check_g1_polish(inst3)
    inst4 = ex.ProblemInstance((0.4, 0.3, 0.2, 0.1), (0.1, 0.2, 0.3, 0.4), 0.38, 0.6,
                               ex.ScaledRenyiLambda(0.5, 0.003))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="g1 polish too large"):
            ex.check_g1_polish(inst4)
        with pytest.raises(ValueError, match="g1 polish too large"):
            ex.g1(np.full(4, 0.25), np.full(4, 0.25), np.full(4, 0.25), inst4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # a d = 4 round would ask for ~2.7e9 cells (20 GiB)
    # a constant budget never polishes
    ex.check_g1_polish(ex.ProblemInstance(inst4.P0, inst4.P1, 1.0, 1.0, ex.ConstantLambda(0.05)))

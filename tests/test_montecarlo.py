import re

import numpy as np
import pytest

from seqclass import exponents as ex
from seqclass import montecarlo as mc
from seqclass import testbench as tb
from seqclass.montecarlo import (
    RARE_EVENT_FLOOR,
    RareEventFloorError,
    TrialReport,
    estimate_exponent,
    run_trials,
)
from seqclass.optimizer import SearchConfig
from seqclass.simplex import sample_rows, stream_keys
from seqclass.testbench import SetupKind


def inst(p0=(0.9, 0.1), p1=(0.1, 0.9), lam0=0.05):
    return ex.ProblemInstance(p0, p1, 1.0, 1.0, ex.ConstantLambda(lam0))


def test_run_trials_deterministic():
    a = run_trials(SetupKind.FullySeq, inst(), 0, 20, 50, seed=3)
    b = run_trials(SetupKind.FullySeq, inst(), 0, 20, 50, seed=3)
    assert a == b
    c = run_trials(SetupKind.FullySeq, inst(), 0, 20, 50, seed=4)
    assert a != c


def test_run_trials_prefix_stable():
    # growing the trial count extends the run without reshuffling
    small = run_trials(SetupKind.FullySeq, inst(), 0, 20, 30, seed=5)
    big = run_trials(SetupKind.FullySeq, inst(), 0, 20, 60, seed=5)
    assert sum(small.tau_hist.values()) == 30
    for tau, cnt in small.tau_hist.items():
        assert big.tau_hist.get(tau, 0) >= cnt


def test_well_separated_low_error():
    r = run_trials(SetupKind.FullySeq, inst(), 0, 200, 2000, seed=1)
    assert r.errors / r.trials <= 0.01
    assert r.theta == 0


def test_fixed_length_setup_tau():
    r = run_trials(SetupKind.FixedLength, inst(), 0, 25, 20, seed=2)
    assert set(r.tau_hist) == {25}
    assert r.mean_tau == 25


def test_tau_support_two_phase():
    r = run_trials(SetupKind.Semi1, inst(), 0, 30, 100, seed=6)
    assert set(r.tau_hist) <= {29, 900}


def test_trials_validation():
    with pytest.raises(ValueError):
        run_trials(SetupKind.FullySeq, inst(), 0, 20, 0, seed=1)


@pytest.mark.parametrize("seed", [2**63, -1, 2**64 + 5])
def test_seed_outside_the_stream_key_range_is_refused(seed):
    # the stream keys keep a seed's low 63 bits: 2**63 would repeat seed
    # 0's trials, and -1 those of 2**63 - 1
    with pytest.raises(ValueError, match=re.escape("[0, 2**63)")):
        run_trials(SetupKind.FullySeq, inst(), 0, 20, 5, seed=seed)


@pytest.mark.parametrize("theta", [2, -1, 0.5, None])
def test_theta_validation(theta):
    # a theta outside {0, 1} names no hypothesis the errors could be counted under
    with pytest.raises(ValueError, match="theta"):
        run_trials(SetupKind.Semi1, inst(), theta, 20, 5, 0)


def _synthetic(n_grid, counts, trials=10**6):
    return [
        TrialReport(
            n=n,
            trials=trials,
            theta=1,
            errors=c,
            mean_tau=float(n),
            tau_hist={n: trials},
            ci95_tau=0.0,
        )
        for n, c in zip(n_grid, counts)
    ]


def test_estimate_exponent_exact_exponential():
    n_grid = list(range(10, 61, 10))
    trials = 10**6
    counts = [round(trials * 2 ** (-0.2 * n)) for n in n_grid]
    fit = estimate_exponent(_synthetic(n_grid, counts, trials), 1)
    assert fit.slope == pytest.approx(0.2, abs=1e-3)
    assert fit.r2 > 0.9999
    # the reports were run under theta = 1, so none enters a theta = 0 fit
    with pytest.raises(RareEventFloorError):
        estimate_exponent(_synthetic(n_grid, counts, trials), 0)


def test_estimate_exponent_poly_prefactor():
    n_grid = list(range(40, 121, 20))
    trials = 10**9
    counts = [round(trials * 2 ** (-0.2 * n) * n**3 / 40**3) for n in n_grid]
    fit = estimate_exponent(_synthetic(n_grid, counts, trials), 1)
    assert 0.1 <= fit.slope <= 0.3


def test_estimate_exponent_rare_event_floor():
    n_grid = [10, 20, 30]
    counts = [100, RARE_EVENT_FLOOR - 1, RARE_EVENT_FLOOR - 1]
    with pytest.raises(ValueError, match="insufficient rare-event data"):
        estimate_exponent(_synthetic(n_grid, counts), 1)


def test_estimate_exponent_floor_error_type():
    counts = [100, RARE_EVENT_FLOOR - 1, RARE_EVENT_FLOOR - 1]
    with pytest.raises(RareEventFloorError):
        estimate_exponent(_synthetic([10, 20, 30], counts), 1)
    assert issubclass(RareEventFloorError, ValueError)


@pytest.mark.parametrize("setup", list(SetupKind))
def test_chunking_does_not_change_the_report(monkeypatch, setup):
    # a shrunken margin defers a share of the trials to the late phase;
    # chunks of one or a few trials must give the report of one big chunk
    eta_n = tb.eta_n
    monkeypatch.setattr(tb, "eta_n", lambda n, a, b, d: 0.05 * eta_n(n, a, b, d))
    whole = run_trials(setup, inst(), 1, 12, 60, seed=8, late_cap=70)
    for chunk in (1, 100):
        monkeypatch.setattr(mc, "CHUNK_SAMPLES", chunk)
        assert run_trials(setup, inst(), 1, 12, 60, seed=8, late_cap=70) == whole
    if setup is not SetupKind.FixedLength:
        assert 0 < whole.early < whole.trials and whole.capped


#: the acceptance instance of the simulator, and fig1's scaled-Renyi instance
CROSS_INSTANCES = {
    "acceptance": ex.ProblemInstance((0.8, 0.2), (0.2, 0.8), 0.3, 0.3, ex.ConstantLambda(0.05)),
    "fig1": ex.ProblemInstance((0.6, 0.4), (0.1, 0.9), 0.38, 0.6, ex.ScaledRenyiLambda(0.5, 0.003)),
}


def _per_trial(monkeypatch, setup, inst, theta, n, trials, seed, late_cap):
    """run_trials' report with the decision and tau it gives each trial and
    whether the batched early rule stopped it: the rule's (stop, decision)
    rows of each chunk, in trial order, then two_phase_test's outcome for
    each deferred trial, in trial order."""
    stops, decisions, deferred = [], [], []

    def early_phase(tup, n, model):
        stop, dec = tb.early_phase(tup, n, model)
        stops.append(stop)
        decisions.append(dec)
        return stop, dec

    def two_phase_test(*args, **kwargs):
        out = tb.two_phase_test(*args, **kwargs)
        deferred.append(out)
        return out

    with monkeypatch.context() as m:
        m.setattr(mc, "early_phase", early_phase)
        m.setattr(mc, "two_phase_test", two_phase_test)
        report = run_trials(setup, inst, theta, n, trials, seed, late_cap=late_cap)
    stop = np.concatenate(stops)
    decision = np.concatenate(decisions)
    tau = np.full(trials, n - 1)
    late = np.flatnonzero(~stop)
    assert len(deferred) == late.size
    assert all(out.phase == "late" for out in deferred)  # the trial's own early rule defers it too
    decision[late] = [out.decision for out in deferred]
    tau[late] = [out.tau for out in deferred]
    return report, stop, decision, tau


@pytest.mark.parametrize("late_cap", [None, 70], ids=["uncapped", "cap70"])
@pytest.mark.parametrize("setup", [SetupKind.FullySeq, SetupKind.Semi1, SetupKind.Semi2], ids=lambda s: s.value)
@pytest.mark.parametrize("name", sorted(CROSS_INSTANCES))
def test_batched_early_phase_equals_the_per_trial_test(monkeypatch, name, setup, late_cap):
    # a shrunken margin defers a share of the trials; every trial, early
    # stopped or deferred, gets the decision and tau of two_phase_test on
    # its own streams, block i of trial t reading stream (seed, t, i)
    eta_n = tb.eta_n
    monkeypatch.setattr(tb, "eta_n", lambda n, a, b, d: 0.05 * eta_n(n, a, b, d))
    inst, n, trials, seed = CROSS_INSTANCES[name], 12, 30, 9
    model = tb.make_model(setup, inst)
    _, full, _, _ = tb.stream_sizes(model, n, late_cap)
    for theta in (0, 1):
        report, stop, decision, tau = _per_trial(monkeypatch, setup, inst, theta, n, trials, seed, late_cap)
        laws = model.laws(theta)
        for t in range(trials):
            streams = sample_rows(laws, full, stream_keys(seed, [[t]], np.arange(len(laws))))
            want = tb.two_phase_test([s[0] for s in streams], n, model, late_cap=late_cap)
            assert (decision[t], tau[t], stop[t]) == (want.decision, want.tau, want.phase == "early"), t
        assert 0 < report.early == np.count_nonzero(stop) < trials
        assert report.errors == np.count_nonzero(decision != theta)
        assert report.tau_hist == {int(v): int(c) for v, c in zip(*np.unique(tau, return_counts=True))}


def test_both_phases_score_g1_with_the_run_solver(monkeypatch):
    # a shrunken margin sends a share of the trials to the late phase; the
    # early rule's g1 and every deferred trial's g_n build their lambda
    # tables at the run's solver settings, not g1's defaults
    eta_n = tb.eta_n
    monkeypatch.setattr(tb, "eta_n", lambda n, a, b, d: 0.05 * eta_n(n, a, b, d))
    solver = SearchConfig(coarse_m=20, refine_rounds=1)
    seen = []
    inner_table = ex._inner_table

    def recorded(inst, cfg, rows=None):
        seen.append(cfg)
        return inner_table(inst, cfg, rows)

    monkeypatch.setattr(ex, "_inner_table", recorded)
    rep = run_trials(SetupKind.FullySeq, CROSS_INSTANCES["fig1"], 1, 12, 10, 9, solver=solver)
    assert 0 < rep.early < rep.trials
    # one early rule over the chunk, then two_phase_test's early rule and
    # g_n for each deferred trial
    assert len(seen) == 1 + 2 * (rep.trials - rep.early) and set(seen) == {solver}

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

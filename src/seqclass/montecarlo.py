"""Monte Carlo estimation of error probabilities and stopping times,
with an exponent regression across the sample-budget grid n."""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .simplex import empirical, sample_iid, stream_seed
from .testbench import SetupKind, TestOutcome, fixed_length_test, make_model, two_phase_test

#: per-n error-count floor below which a point is too rare to trust
RARE_EVENT_FLOOR = 5


@dataclass(frozen=True)
class TrialReport:
    n: int
    trials: int
    theta: int
    errors_theta0: Optional[int]
    errors_theta1: Optional[int]
    mean_tau_theta0: Optional[float]
    mean_tau_theta1: Optional[float]
    tau_hist: dict
    ci95_tau: float
    capped: bool = False

    @property
    def errors(self):
        return self.errors_theta0 if self.theta == 0 else self.errors_theta1

    @property
    def mean_tau(self):
        return self.mean_tau_theta0 if self.theta == 0 else self.mean_tau_theta1


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    r2: float
    n_grid: tuple


def _one_trial(setup, inst, model, theta, n, seed, trial, late_cap):
    """Draw fresh streams for one trial and run the setup's test."""
    d = inst.d
    p_test = inst.p1 if theta else inst.p0
    laws = {"t0": inst.p0, "t1": inst.p1, "x": p_test}
    if setup is SetupKind.FixedLength:
        a, b = inst.alpha, inst.beta
        x = sample_iid(laws["x"], n, stream_seed(seed, trial, 0))
        t0 = sample_iid(laws["t0"], math.ceil(a * n), stream_seed(seed, trial, 1))
        t1 = sample_iid(laws["t1"], math.ceil(b * n), stream_seed(seed, trial, 2))
        dec = fixed_length_test(
            empirical(x, d).dist, empirical(t0, d).dist, empirical(t1, d).dist, inst
        )
        return TestOutcome(decision=dec, tau=n, phase="fixed")

    if setup is SetupKind.Semi2:
        order = ("x", "t0", "t1")
    else:
        order = ("t0", "t1", "x")
    late = n * n if late_cap is None else min(late_cap, n * n)
    streams = []
    for i, name in enumerate(order):
        base = n if i < model.ell else late
        need = math.ceil(model.alphas[i] * base)
        streams.append(sample_iid(laws[name], need, stream_seed(seed, trial, i)))
    return two_phase_test(streams, n, model, late_cap=late_cap)


def run_trials(setup, inst, theta, n, trials, seed, late_cap=None):
    """Run `trials` independent tests under ground truth theta.

    Deterministic for a fixed seed: each trial's streams are keyed by
    (seed, trial, block), so growing `trials` extends, never reshuffles.
    """
    if theta not in (0, 1):
        raise ValueError("theta must be 0 or 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    model = None if setup is SetupKind.FixedLength else make_model(setup, inst)
    outcomes = [
        _one_trial(setup, inst, model, theta, n, seed, t, late_cap) for t in range(trials)
    ]
    errors = 0
    taus = np.empty(trials)
    hist = {}
    capped = False
    for t, out in enumerate(outcomes):
        if out.decision != theta:
            errors += 1
        taus[t] = out.tau
        hist[out.tau] = hist.get(out.tau, 0) + 1
        capped = capped or out.capped
    mean_tau = float(taus.mean())
    ci95 = float(1.96 * taus.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return TrialReport(
        n=n,
        trials=trials,
        theta=theta,
        errors_theta0=errors if theta == 0 else None,
        errors_theta1=errors if theta == 1 else None,
        mean_tau_theta0=mean_tau if theta == 0 else None,
        mean_tau_theta1=mean_tau if theta == 1 else None,
        tau_hist=hist,
        ci95_tau=ci95,
        capped=capped,
    )


def estimate_exponent(reports, theta):
    """OLS fit of -log2(error frequency) against n.

    Only n-points with at least RARE_EVENT_FLOOR errors enter the fit;
    fewer than 3 usable points is an error (insufficient rare-event data).
    """
    xs, ys = [], []
    for r in reports:
        err = r.errors_theta0 if theta == 0 else r.errors_theta1
        if err is None or err < RARE_EVENT_FLOOR:
            continue
        xs.append(r.n)
        ys.append(-math.log2(err / r.trials))
    if len(xs) < 3:
        raise ValueError("insufficient rare-event data: need >= 3 usable n points")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return ExponentFit(slope=float(slope), intercept=float(intercept), r2=r2, n_grid=tuple(xs))

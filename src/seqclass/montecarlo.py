"""Monte Carlo estimation of error probabilities and stopping times,
with an exponent regression across the sample-budget grid n."""

import math
from dataclasses import dataclass

import numpy as np

from .optimizer import SearchConfig
from .simplex import row_blocks, sample_rows, sample_types, stream_keys
from .testbench import early_phase, late_phase, make_model, stream_sizes, two_phase_test

#: per-n error-count floor below which a point is too rare to trust
RARE_EVENT_FLOOR = 5

#: samples one chunk of trials draws at once, over all its blocks; bounds
#: the size of every temporary of the sampler
CHUNK_SAMPLES = 1 << 16


class RareEventFloorError(ValueError):
    """Too few n-points with at least RARE_EVENT_FLOOR errors to fit."""


@dataclass(frozen=True)
class TrialReport:
    n: int
    trials: int
    theta: int  # the true hypothesis; errors and mean_tau are under it
    errors: int
    mean_tau: float
    tau_hist: dict
    ci95_tau: float
    capped: bool = False

    @property
    def early(self):
        """The trials that stopped at n - 1; a late time is never before n."""
        return self.tau_hist.get(self.n - 1, 0)


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    r2: float
    n_grid: tuple


def _keys(seed, ids, blocks):
    """The (T, blocks) stream keys of the trials `ids`: block i of trial t
    reads stream (seed, t, i)."""
    return stream_keys(seed, ids[:, None], np.arange(blocks))


def run_trials(setup, inst, theta, n, trials, seed, late_cap=None, solver=SearchConfig()):
    """Run `trials` independent tests under ground truth theta.

    Deterministic for a seed in [0, 2**63): each trial's streams are keyed
    by (seed, trial, block), so growing `trials` extends, never reshuffles.
    Trials run in chunks as row stacks, each counting the types of the
    prefix its first decision reads straight from the uniforms.  A
    fixed-length trial, whose blocks are all fixed, decides by the
    late-phase rule at time n.  A two-phase trial reads that prefix at time
    n - 1; the trials the early rule defers draw their full streams as
    indices, which extend that prefix, for two_phase_test.  Every g1 of
    both phases searches with `solver`.
    """
    if theta not in (0, 1):
        raise ValueError("theta must be 0 or 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= seed < 2**63:
        # the stream keys keep a seed's low 63 bits
        raise ValueError(f"seed must lie in [0, 2**63), got {seed}")
    decision = np.empty(trials, dtype=np.intp)
    tau = np.empty(trials, dtype=np.intp)
    capped = False
    model = make_model(setup, inst, solver)
    laws = model.laws(theta)
    prefix, full, _, _ = stream_sizes(model, n, late_cap)
    for chunk in row_blocks(trials, CHUNK_SAMPLES, sum(prefix)):
        ids = np.arange(chunk.start, chunk.stop)
        tup = tuple(sample_types(laws, prefix, _keys(seed, ids, len(laws))))
        if model.ell == len(model.blocks):
            # no sequential block: one decision at time n
            decision[chunk] = late_phase(tup, n, model)
            tau[chunk] = n
            continue
        stop, dec = early_phase(tup, n, model)
        decision[chunk] = dec
        tau[chunk] = n - 1
        deferred = ids[~stop]
        for block in row_blocks(deferred.size, CHUNK_SAMPLES, sum(full)):
            rows = deferred[block]
            streams = sample_rows(laws, full, _keys(seed, rows, len(laws)))
            for r, t in enumerate(rows):
                out = two_phase_test([s[r] for s in streams], n, model, late_cap=late_cap)
                decision[t], tau[t] = out.decision, out.tau
                capped = capped or out.capped
    errors = int(np.count_nonzero(decision != theta))
    taus = tau.astype(np.float64)
    values, first, counts = np.unique(tau, return_index=True, return_counts=True)
    hist = {int(values[i]): int(counts[i]) for i in np.argsort(first)}
    ci95 = float(1.96 * taus.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return TrialReport(
        n=n,
        trials=trials,
        theta=theta,
        errors=errors,
        mean_tau=float(taus.mean()),
        tau_hist=hist,
        ci95_tau=ci95,
        capped=capped,
    )


def estimate_exponent(reports, theta):
    """OLS fit of -log2(error frequency) against n, over the reports run
    under ground truth theta.

    Only n-points with at least RARE_EVENT_FLOOR errors enter the fit;
    fewer than 3 usable points is an error (insufficient rare-event data).
    """
    xs, ys = [], []
    for r in reports:
        if r.theta != theta or r.errors < RARE_EVENT_FLOOR:
            continue
        xs.append(r.n)
        ys.append(-math.log2(r.errors / r.trials))
    if len(xs) < 3:
        raise RareEventFloorError("insufficient rare-event data: need >= 3 usable n points")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return ExponentFit(slope=float(slope), intercept=float(intercept), r2=r2, n_grid=tuple(xs))

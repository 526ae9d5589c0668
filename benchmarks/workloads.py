"""The four benchmark workloads: inputs made from a seed, the operations run
on them, and the correctness check of each operation's output.

Each workload is a closed loop with one caller: it runs cycles of
operations, and each operation starts when the previous one returns.  An
operation is one exponent report (sweep workloads) or one ``run_trials``
cell (simulation workloads).  Runs stop only at the end of a cycle, so the
mix of operations in a run does not depend on where the time ran out.

Why these four (BENCHMARK.json gates only sweep_renyi and sim_constant:
on a noisy 2-core host the runs must be long, and the time budget of the
acceptance runs holds two workloads at that length; the other two run on
request):

* ``sweep_renyi`` -- exponent curves under the scaled-Renyi budget (fig1,
  fig3 presets, d = 2).  Solver-heavy: the e_fix dual dominates; fig3
  points take the analytic kappa = inf certificate, fig1 points search.
* ``sweep_constant_d3`` -- constant-budget reports on seed-drawn d = 3
  instances.  The only d > 2 input: pair enumeration over N = 1891 points,
  N x N matrices far above L2, dominated by gjs_cross and mu's per-row
  floor projections.
* ``sim_constant`` -- Monte Carlo cells on the acceptance instance
  (constant budget).  Per-trial Python overhead, scalar divergences and
  sampling; no optimizer, no grids.
* ``sim_renyi`` -- the same Monte Carlo loop on the fig1 instance, where
  every trial's g1 rebuilds a grid and lambda matrices (g1_batch).
"""

import math
import random

import numpy as np

from seqclass import cli
from seqclass import divergence as dv
from seqclass import exponents as ex
from seqclass import montecarlo as mc
from seqclass.optimizer import SearchConfig
from seqclass.testbench import SetupKind

#: exponent values must match the recorded ones this closely (absolute)
EXPONENT_TOL = 1e-9
#: slack of the ordering chain e_fix <= e_semi1, e_semi2 <= e_seq, as in verify
ORDER_TOL = 1e-3

EXPONENT_KEYS = ("renyi_term", "kappa", "mu", "nu", "e_fix", "e_seq", "e_semi1", "e_semi2")

# solver used by the tiny runs of the benchmark's own tests
TINY_SOLVER = SearchConfig(coarse_m=12, refine_rounds=1)


class Op:
    """One operation: `run()` calls the program, `check(out, ref)` lists problems."""

    def __init__(self, key, items, run, check, summary):
        self.key = key  # identifies the inputs; indexes the reference table
        self.items = items  # reports or trials this operation completes
        self.run = run
        self.check = check
        self.summary = summary  # output -> JSON-able record of the result


def _report_summary(rep):
    return {k: ("inf" if math.isinf(v) else float(v)) for k, v in rep.as_dict().items()}


def _report_check(certified_inf):
    """Check a report: recorded values, ordering chain, kappa certificate."""

    def check(rep, ref):
        vals = rep.as_dict()
        problems = []
        if any(math.isnan(v) for v in vals.values()):
            problems.append(f"NaN in report {vals}")
        if ref is not None:
            for k in EXPONENT_KEYS:
                want = math.inf if ref[k] == "inf" else ref[k]
                got = vals[k]
                same = got == want if math.isinf(want) else abs(got - want) <= EXPONENT_TOL
                if not same:
                    problems.append(f"{k} = {got!r}, recorded {want!r}")
        chain = (
            rep.e_fix <= rep.e_semi1 + ORDER_TOL
            and rep.e_fix <= rep.e_semi2 + ORDER_TOL
            and rep.e_semi1 <= rep.e_seq + ORDER_TOL
            and rep.e_semi2 <= rep.e_seq + ORDER_TOL
        )
        if not chain:
            problems.append(f"ordering chain broken: {vals}")
        if math.isinf(rep.kappa) != certified_inf:
            problems.append(f"kappa = {rep.kappa!r} but certified infinite is {certified_inf}")
        return problems

    return check


def _report_op(key, inst, solver, certified_inf):
    return Op(
        key=key,
        items=1,
        run=lambda: ex.report(inst, solver),
        check=_report_check(certified_inf),
        summary=_report_summary,
    )


def _cell_summary(rep):
    return {
        "errors": int(rep.errors),
        "tau_hist": {str(t): int(c) for t, c in sorted(rep.tau_hist.items())},
    }


def _cell_op(inst, setup, theta, n, trials, sim_seed, tag):
    def check(rep, ref):
        problems = []
        allowed = {n} if setup is SetupKind.FixedLength else {n - 1, n * n}
        if not set(rep.tau_hist) <= allowed:
            problems.append(f"stopping times {sorted(rep.tau_hist)} outside {sorted(allowed)}")
        if (rep.trials, rep.theta, rep.n) != (trials, theta, n):
            problems.append(f"report for {(rep.trials, rep.theta, rep.n)}")
        if sum(rep.tau_hist.values()) != trials:
            problems.append("tau_hist does not count every trial")
        if ref is not None and _cell_summary(rep) != ref:
            problems.append(f"got {_cell_summary(rep)}, recorded {ref}")
        return problems

    return Op(
        key=f"{tag}{setup.value}/theta{theta}/n{n}/trials{trials}/seed{sim_seed}",
        items=trials,
        run=lambda: mc.run_trials(setup, inst, theta, n, trials, sim_seed),
        check=check,
        summary=_cell_summary,
    )


class Workload:
    name = ""
    kind = ""  # "sweep" or "sim"
    #: seed-commit seconds per cycle on a 2-core Xeon; sizes the traced run
    nominal_cycle_s = 1.0

    def __init__(self, seed, tiny=False):
        self.seed = int(seed)
        self.tiny = tiny
        self.tag = "tiny/" if tiny else ""

    def rng(self, *ids):
        return random.Random("/".join(str(x) for x in (self.name, self.seed) + ids))

    def cycle(self, k):
        """The operations of cycle k (deterministic in seed and k)."""
        raise NotImplementedError


class SweepRenyi(Workload):
    """Reports at seed-chosen points of the fig1 and fig3 sweeps, one of each
    per cycle.  A report's cost depends on xi (2.3 to 3.8 s), so cycle k
    takes point floor(50 * frac(u + k * golden ratio)) of each sweep, with
    the offset u drawn from the seed per sweep: the points of any number of
    cycles spread evenly over the xi range, and a run of a few cycles costs
    about the same whatever the seed."""

    name = "sweep_renyi"
    kind = "sweep"
    d = 2
    nominal_cycle_s = 7.2
    presets = ("fig1", "fig3")

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.points = {}
        self.solver = {}
        for preset in self.presets:
            cfg = cli.load_config(preset=preset)
            self.solver[preset] = TINY_SOLVER if tiny else cfg.solver
            self.points[preset] = [cfg.instance(xi=float(v)) for v in cfg.sweep_values()]
        rng = self.rng("offsets")
        self.offsets = {p: rng.random() for p in self.presets}

    def op_at(self, preset, i):
        return _report_op(
            f"{self.tag}{preset}/{i}",
            self.points[preset][i],
            self.solver[preset],
            certified_inf=preset == "fig3",
        )

    def cycle(self, k):
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        return [
            self.op_at(p, int(len(self.points[p]) * ((self.offsets[p] + k * golden) % 1.0)))
            for p in self.presets
        ]

    def all_ops(self):
        return [self.op_at(p, i) for p in self.presets for i in range(len(self.points[p]))]


class SweepConstantD3(Workload):
    """Constant-budget reports on seed-drawn d = 3 instances, one per cycle.

    P0 and P1 are multiples of 1/1000 on the 0.01-floored simplex, at least
    0.3 apart in L1; (alpha, beta) is one of the presets' pairs; lambda0 is
    drawn in [0.2, 0.8] * GJS(P0||P1, alpha), strictly inside the range
    where no fast path applies.  Every entry is at least 0.05: report()
    raises on some instances with an entry near 0.01 (see the xfail test in
    test_benchmark.py); draw down to 0.01 once that is fixed."""

    name = "sweep_constant_d3"
    kind = "sweep"
    d = 3
    nominal_cycle_s = 1.35
    alpha_beta = ((0.38, 0.6), (2.0, 1.0), (0.7, 0.7))

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.solver = TINY_SOLVER if tiny else SearchConfig()

    @staticmethod
    def _draw_dist(rng):
        while True:
            cuts = sorted(rng.sample(range(1, 1000), 2))
            parts = (cuts[0], cuts[1] - cuts[0], 1000 - cuts[1])
            if min(parts) >= 50:
                return tuple(p / 1000 for p in parts)

    def cycle(self, k):
        rng = self.rng(k)
        while True:
            P0, P1 = self._draw_dist(rng), self._draw_dist(rng)
            if sum(abs(a - b) for a, b in zip(P0, P1)) >= 0.3:
                break
        alpha, beta = rng.choice(self.alpha_beta)
        gjs = dv.gjs_value(np.asarray(P0), np.asarray(P1), alpha)
        lam0 = round(gjs * rng.uniform(0.2, 0.8), 12)
        inst = ex.ProblemInstance(P0, P1, alpha, beta, ex.ConstantLambda(lam0))
        key = f"{self.tag}P0={P0}/P1={P1}/alpha={alpha}/beta={beta}/lambda0={lam0!r}"
        return [_report_op(key, inst, self.solver, certified_inf=False)]


class SimWorkload(Workload):
    """run_trials over every SetupKind x theta x n cell, once per cycle, in a
    seed-shuffled order with a fresh sim seed per cell."""

    kind = "sim"
    n_grid = ()
    trials = 0
    tiny_trials = 3

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.inst = self.instance()
        self.cells = [(s, th, n) for s in SetupKind for th in (0, 1) for n in self.n_grid]

    def cycle(self, k):
        rng = self.rng(k)
        cells = list(self.cells)
        rng.shuffle(cells)
        trials = self.tiny_trials if self.tiny else self.trials
        return [
            _cell_op(self.inst, s, th, n, trials, rng.randrange(2**32), self.tag)
            for s, th, n in cells
        ]


class SimConstant(SimWorkload):
    name = "sim_constant"
    d = 2
    n_grid = (20, 40, 60)
    trials = 250
    nominal_cycle_s = 3.0

    def instance(self):
        # the acceptance instance of the simulator universality test
        return ex.ProblemInstance((0.8, 0.2), (0.2, 0.8), 0.3, 0.3, ex.ConstantLambda(0.05))


class SimRenyi(SimWorkload):
    name = "sim_renyi"
    d = 2
    n_grid = (20, 40)
    trials = 30
    tiny_trials = 1
    nominal_cycle_s = 2.6

    def instance(self):
        return cli.load_config(preset="fig1").instance()


WORKLOADS = {w.name: w for w in (SweepRenyi, SweepConstantD3, SimConstant, SimRenyi)}

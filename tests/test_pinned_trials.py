"""run_trials outputs pinned with ==, over every SetupKind x theta cell.

The reports in data/trial_reports.json were recorded with the per-trial
simulator that drew every stream in full before the batched engine
replaced it.  Cells cover both budget families (scaled-Renyi with few
trials), d = 2 and d = 3, n in {5, 12, 20} and late_cap None and 80.  At
these n the true typicality margin eta_n stops every trial at n - 1, so
each two-phase cell is also run with the margin shrunk to 5%: that sends a
share of the trials to the late phase and, with late_cap = 80, caps them.

Re-record (only when a change of the outputs is intended):

    PYTHONPATH=src python3 tests/test_pinned_trials.py
"""

import json
from pathlib import Path

import pytest

from seqclass import exponents as ex
from seqclass import testbench as tb
from seqclass.montecarlo import run_trials
from seqclass.testbench import SetupKind

DATA = Path(__file__).resolve().parent / "data" / "trial_reports.json"

INSTANCES = {
    "constant": (
        ex.ProblemInstance((0.8, 0.2), (0.2, 0.8), 0.3, 0.3, ex.ConstantLambda(0.05)),
        200,
    ),
    "constant_d3": (
        ex.ProblemInstance((0.6, 0.3, 0.1), (0.1, 0.3, 0.6), 0.5, 0.7, ex.ConstantLambda(0.08)),
        100,
    ),
    "renyi": (
        ex.ProblemInstance((0.6, 0.4), (0.1, 0.9), 0.38, 0.6, ex.ScaledRenyiLambda(0.5, 0.003)),
        4,
    ),
}
MARGINS = (1.0, 0.05)


def cells():
    out = []
    for name in INSTANCES:
        for setup in SetupKind:
            two_phase = setup is not SetupKind.FixedLength
            for theta in (0, 1):
                for n in (5, 12, 20):
                    for cap in (None, 80) if two_phase else (None,):
                        for margin in MARGINS if two_phase else (1.0,):
                            out.append(
                                {"instance": name, "setup": setup.value, "theta": theta, "n": n,
                                 "late_cap": cap, "margin": margin, "seed": len(out)}
                            )
    return out


def run_cell(cell):
    inst, trials = INSTANCES[cell["instance"]]
    eta_n = tb.eta_n
    if cell["margin"] != 1.0:
        tb.eta_n = lambda n, a, b, d: cell["margin"] * eta_n(n, a, b, d)
    try:
        return run_trials(SetupKind(cell["setup"]), inst, cell["theta"], cell["n"], trials,
                          cell["seed"], late_cap=cell["late_cap"])
    finally:
        tb.eta_n = eta_n


def as_record(rep):
    # the recorded keys give errors and mean_tau once per theta, None under
    # the other hypothesis
    return {
        "n": rep.n,
        "trials": rep.trials,
        "theta": rep.theta,
        "errors_theta0": rep.errors if rep.theta == 0 else None,
        "errors_theta1": rep.errors if rep.theta == 1 else None,
        "mean_tau_theta0": rep.mean_tau if rep.theta == 0 else None,
        "mean_tau_theta1": rep.mean_tau if rep.theta == 1 else None,
        "tau_hist": [[tau, count] for tau, count in rep.tau_hist.items()],
        "ci95_tau": rep.ci95_tau,
        "capped": rep.capped,
    }


PINNED = json.loads(DATA.read_text())["cells"] if DATA.is_file() else []


def _cell_id(c):
    return (f"{c['instance']}-{c['setup']}-theta{c['theta']}-n{c['n']}"
            f"-cap{c['late_cap']}-margin{c['margin']}")


def test_pinned_cells_cover_the_grid():
    assert [e["cell"] for e in PINNED] == cells()
    late = [e for e in PINNED if any(tau > e["cell"]["n"] for tau, _ in e["report"]["tau_hist"])]
    assert any(e["report"]["capped"] for e in late)
    assert any(not e["report"]["capped"] for e in late)
    assert {e["cell"]["instance"] for e in late} == set(INSTANCES)


@pytest.mark.parametrize("entry", PINNED, ids=[_cell_id(e["cell"]) for e in PINNED])
def test_pinned_trial_report(entry):
    assert as_record(run_cell(entry["cell"])) == entry["report"]


@pytest.mark.parametrize("cell", [c for c in cells() if c["instance"] == "constant"], ids=_cell_id)
def test_early_counts_trials_stopped_at_n_minus_1(cell):
    rep = run_cell(cell)
    two_phase = cell["setup"] != "fixed"
    assert rep.early == (rep.tau_hist.get(rep.n - 1, 0) if two_phase else 0)


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    table = [{"cell": c, "report": as_record(run_cell(c))} for c in cells()]
    DATA.write_text(json.dumps({"cells": table}, indent=1) + "\n")

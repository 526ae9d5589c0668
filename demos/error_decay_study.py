"""Estimate the empirical type-II error exponent and compare it with the
computed optimum.

Runs the two-phase test at several sample budgets n, fits the slope of
-log2(error frequency) against n, and prints it next to the theoretical
exponent e1* for the fully sequential setup.  Each n also shows how many
trials stopped early, at time n - 1.  Polynomial prefactors mean the fit
brackets rather than matches the asymptotic value at desk scale.
"""

from seqclass import (
    ConstantLambda,
    ProblemInstance,
    SetupKind,
    estimate_exponent,
    report,
    run_trials,
)

inst = ProblemInstance((0.8, 0.2), (0.2, 0.8), 0.3, 0.3, ConstantLambda(0.05))
rep = report(inst)
print(f"computed fully-sequential type-II exponent e1* = {rep.e_seq:.4f} bits\n")

trials = 4000
runs = []
for n in (20, 40, 60):
    r = run_trials(SetupKind.FullySeq, inst, theta=1, n=n, trials=trials, seed=11)
    freq = r.errors / r.trials
    print(
        f"  n={n:>2d}: type-II errors {r.errors:>4d}/{trials}  (freq {freq:.4f})  "
        f"stopped early {r.early:>4d}  mean tau {r.mean_tau:.1f}"
    )
    runs.append(r)

fit = estimate_exponent(runs, theta=1)
print(f"\nfitted decay slope: {fit.slope:.4f} bits per sample  (r^2 = {fit.r2:.4f})")
print(f"ratio to e1*: {fit.slope / rep.e_seq:.2f}x")

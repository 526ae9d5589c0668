"""Watch the two-phase sequential test decide individual trials.

Draws a handful of trials under each ground truth and prints the stopping
time, phase (early shell hit vs late fallback) and decision.  With a
well-separated pair almost every trial stops at time n-1.
"""

import numpy as np

from seqclass import (
    ConstantLambda,
    ProblemInstance,
    SetupKind,
    eta_n,
    make_model,
    stream_sizes,
    two_phase_test,
)
from seqclass.simplex import sample_rows, stream_keys

inst = ProblemInstance((0.8, 0.2), (0.2, 0.8), 1.0, 1.0, ConstantLambda(0.05))
model = make_model(SetupKind.FullySeq, inst)
n = 40
# each block's stream holds what the late phase would read at tau = n^2
_, sizes, _, _ = stream_sizes(model, n)

print(f"two-phase test, fully sequential, n = {n}")
print(f"early margin eta_n = {eta_n(n, inst.alpha, inst.beta, inst.d):.3f} bits\n")

for theta in (0, 1):
    print(f"ground truth: theta = {theta} (X ~ P{theta})")
    for trial in range(5):
        # block i reads stream (42, trial, i), as run_trials draws a deferred trial
        streams = sample_rows(model.laws(theta), sizes, stream_keys(42, [[trial]], np.arange(3)))
        out = two_phase_test([s[0] for s in streams], n, model)
        verdict = "ok " if out.decision == theta else "ERR"
        print(
            f"  trial {trial}: decided {out.decision} [{verdict}] "
            f"tau={out.tau:>4d} phase={out.phase}"
        )
    print()

"""Watch the two-phase sequential test decide individual trials.

Draws a handful of trials under each ground truth and prints the stopping
time, phase (early shell hit vs late fallback) and decision.  With a
well-separated pair almost every trial stops at time n-1.
"""

import math

from seqclass import ConstantLambda, ProblemInstance, SetupKind, make_model, two_phase_test
from seqclass.simplex import sample_iid, stream_seed

inst = ProblemInstance((0.8, 0.2), (0.2, 0.8), 1.0, 1.0, ConstantLambda(0.05))
model = make_model(SetupKind.FullySeq, inst)
n = 40

print(f"two-phase test, fully sequential, n = {n}")
print(f"early margin eta_n = {model.eta(n):.3f} bits\n")

for theta in (0, 1):
    print(f"ground truth: theta = {theta} (X ~ P{theta})")
    laws = (inst.p0, inst.p1, inst.p1 if theta else inst.p0)
    for trial in range(5):
        streams = [
            sample_iid(law, math.ceil(n * n), stream_seed(42, trial, i))
            for i, law in enumerate(laws)
        ]
        out = two_phase_test(streams, n, model)
        verdict = "ok " if out.decision == theta else "ERR"
        print(
            f"  trial {trial}: decided {out.decision} [{verdict}] "
            f"tau={out.tau:>4d} phase={out.phase}"
        )
    print()

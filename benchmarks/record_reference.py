"""Record the outputs of a workload's operations as the reference that the
benchmark compares every later run against.

    python3 benchmarks/record_reference.py --workload sim_constant --seeds 0-9 --cycles 10

Operations are keyed by their inputs, so any run whose seed and cycle were
recorded is checked value by value; others get the invariant checks only.
sweep_renyi records every point of both sweeps, whatever the seeds.  An
output that fails its own invariant check is not recorded: the script
stops instead.
"""

import argparse
import json
import sys

import run
from spread import seeds_arg


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    p.add_argument("--cycles", type=int, default=10)
    args = p.parse_args(argv)
    run.load_program()
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    if hasattr(cls, "all_ops"):
        ops = cls(0).all_ops()
        args.seeds, args.cycles = None, None
    else:
        ops = []
        for seed in args.seeds:
            wl = cls(seed)
            ops += [op for k in range(args.cycles) for op in wl.cycle(k)]
    outputs = {}
    for i, op in enumerate(ops):
        if op.key in outputs:
            continue
        out = op.run()
        problems = op.check(out, None)
        if problems:
            sys.exit(f"{op.key}: " + "; ".join(problems))
        outputs[op.key] = op.summary(out)
        if i % 50 == 0:
            print(f"{i + 1}/{len(ops)}", flush=True)
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    path = run.REFERENCE_DIR / f"{args.workload}.json"
    payload = {"workload": args.workload, "seeds": args.seeds, "cycles": args.cycles,
               "env": run.machine_record(), "outputs": outputs}
    path.write_text(json.dumps(payload, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(outputs)} outputs to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

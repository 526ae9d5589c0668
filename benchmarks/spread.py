"""Run the benchmark over several seeds, as the acceptance check does, and
report each metric's median, quartiles and spread.

    python3 benchmarks/spread.py --workload sim_constant --seeds 0-4
    python3 benchmarks/spread.py --seeds 0-9 --out benchmarks/baseline.json
    python3 benchmarks/spread.py --trace 1 --seeds 0,1   # counts must repeat

The spread of a metric is (Q3 - Q1) / median over its runs, with the
quartiles of statistics.quantiles(values, n=4).  Untraced, it is flagged
when above a third of the metric's bound in BENCHMARK.json (setup_s only
has to hold its median).  Traced, every seed runs twice and every count
must be the same in both runs.  Runs go one after another from the root of
the checkout, each in its own process.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def seeds_arg(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        result = {}
    if proc.returncode != 0 or not result.get("correct"):
        print(f"  {workload} seed {seed}: FAILED (exit {proc.returncode})", flush=True)
        return None
    return result["metrics"]


def reference_digests():
    """Digest of each recorded-output file, so a baseline names the exponent
    and trial values it was measured with."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(run.REFERENCE_DIR.glob("*.json"))}


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append",
                   help="repeatable; default every workload of BENCHMARK.json")
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write medians, quartiles and the environment here")
    args = p.parse_args(argv)
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report = {"env": run.machine_record(), "run_seconds": args.seconds, "seeds": args.seeds,
              "trace": args.trace, "workloads": {}, "reference_sha256": reference_digests()}
    ok = True
    for name in names:
        runs = []
        for seed in args.seeds:
            repeats = 2 if args.trace else 1
            got = [one_run(name, seed, args.seconds, args.trace) for _ in range(repeats)]
            if None in got:
                ok = False
                continue
            if args.trace:
                counts = [{k: v["value"] for k, v in g.items() if v["unit"] == "count"} for g in got]
                diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
                ok = ok and not diff
                print(f"  {name} seed {seed}: " + (f"counts differ between runs: {diff}" if diff
                      else f"all {len(counts[0])} counts equal in both runs"), flush=True)
            runs.append(got[0])
        if len(runs) < 2:
            continue
        entry = {}
        print(f"{name} ({len(runs)} runs):")
        for metric in runs[0]:
            st = stats([r[metric]["value"] for r in runs])
            entry[metric] = st
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s" and st["spread"] > bound / 3:
                flag = f"  ABOVE bound/3 = {bound / 3:.3f}"
                ok = False
            if not args.trace:
                print(f"  {metric:<14} median {st['median']:.6g}  Q1 {st['q1']:.6g}"
                      f"  Q3 {st['q3']:.6g}  spread {st['spread']:.4f}{flag}", flush=True)
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

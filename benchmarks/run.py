"""seqclass benchmark: exponent sweeps and Monte Carlo cells through the
public API, end to end (untraced) or per layer (traced).

Run from the root of a checkout:

    python3 benchmarks/run.py --workload sweep_renyi --seed 3 --seconds 45 --trace 0
    python3 benchmarks/run.py --workload all --seed 0 --seconds 20   # all four workloads

One workload runs in one process, as a closed loop with one caller (see
workloads.py).  The untraced run measures for at least --seconds seconds,
stopping at a cycle boundary, and reports the end-to-end metrics.  The
traced run executes a fixed number of cycles twice, untraced then with a
span around every public function of the measured modules, and reports the
per-layer metrics; its counts repeat exactly for a given seed.  Every
operation's output is checked (see workloads.py); the last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics,
and the exit code is 0 only when every check passed.

The program is imported from ./src of the checkout and nowhere else.
SEQCLASS_THREADS must be unset: it selects a different trial code path.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"

SETUP_REPEATS = 5
#: share of each operation's time the wrapped public entry point must cover
MIN_COVER = 0.95

EXIT_FAILED = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def load_program():
    """Put ./src first on the path and import seqclass from there."""
    if not (SRC / "seqclass" / "__init__.py").is_file():
        raise UsageError(f"no program source at {SRC}: run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import seqclass

    if Path(seqclass.__file__).resolve().parent != (SRC / "seqclass").resolve():
        raise UsageError(f"seqclass imported from {seqclass.__file__}, not from {SRC}")
    return seqclass


# ---------------------------------------------------------------- environment


def _blas_threads():
    """Thread count of the OpenBLAS loaded into this process, if any."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _caches():
    out = []
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level, kind, size = ((idx / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        out.append(f"L{level} {kind} {size}")
    return out


def machine_record():
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except Exception:  # the config layout differs between numpy releases
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
    }


# ---------------------------------------------------------------- operations


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.items = 0  # reports or trials completed by operations that passed
        self.op_s = []  # seconds of every operation
        self.item_s = []  # seconds per report or per trial, per operation
        self.summaries = []
        self.kappa_inf = 0


def execute(op, ref, outcome, span=None):
    """Run one operation, time it, check it and record the result."""
    outcome.attempted += 1
    t0 = time.perf_counter()
    try:
        if span is None:
            out = op.run()
        else:
            with span("op"):
                out = op.run()
    except Exception:
        outcome.failed += 1
        print(f"FAIL {op.key}: raised\n{traceback.format_exc()}", file=sys.stderr)
        outcome.summaries.append(None)
        return
    dt = time.perf_counter() - t0
    outcome.op_s.append(dt)
    outcome.item_s.append(dt / op.items)
    problems = op.check(out, ref.get(op.key))
    summary = op.summary(out)
    outcome.summaries.append(summary)
    if summary.get("kappa") == "inf":
        outcome.kappa_inf += 1
    if problems:
        outcome.failed += 1
        print(f"FAIL {op.key}: " + "; ".join(problems), file=sys.stderr)
    else:
        outcome.items += op.items


def load_reference(name):
    path = REFERENCE_DIR / f"{name}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())["outputs"]


def time_setup(args):
    """Wall seconds of a fresh process that imports seqclass and builds the
    workload's inputs up to its first operation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    return dt


def untraced_run(wl, first, args, ref):
    setup = [time_setup(args) for _ in range(1 if args.tiny else SETUP_REPEATS)]
    outcome = Outcome()
    start = time.perf_counter()
    k = 0
    while True:
        for op in first if k == 0 else wl.cycle(k):
            execute(op, ref, outcome)
        k += 1
        if time.perf_counter() - start >= args.seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (outcome.items / sum(outcome.op_s) if outcome.op_s else 0.0, "1/s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    item = "report" if wl.kind == "sweep" else "trial"
    lines = [
        f"{item}s_per_s (items_per_s) = {metrics['items_per_s'][0]:.6g} 1/s"
        f"  [{outcome.items} {item}s in {sum(outcome.op_s):.2f} s, {k} cycles]",
        f"{item}_p50_s = {statistics.median(outcome.item_s or [math.nan]):.6g} s"
        f"  [median of {len(outcome.item_s)} operations; printed, not bounded]",
        f"setup_s = {metrics['setup_s'][0]:.6g} s  [median of {len(setup)} fresh processes]",
        f"peak_rss_mb = {rss_mb:.6g} MiB  [1 process]",
        f"ops_failed_frac = {outcome.failed / max(outcome.attempted, 1):.6g} ratio"
        f"  [{outcome.failed} of {outcome.attempted} operations]",
    ]
    if wl.kind == "sweep":
        lines.append(f"kappa_inf_frac = {outcome.kappa_inf / max(outcome.attempted, 1):.6g} ratio"
                     f"  [{outcome.kappa_inf} of {outcome.attempted} reports]")
    if len(outcome.item_s) >= 100:  # ten samples beyond the 90th percentile
        lines.append(f"{item}_p90_s = {statistics.quantiles(outcome.item_s, n=10)[-1]:.6g} s"
                     f"  [{len(outcome.item_s)} operations]")
    return outcome, metrics, lines


def traced_run(wl, first, args, ref):
    """Run a fixed op list untraced, then traced; per-layer metrics."""
    cycles = 1 if args.tiny else max(1, round(args.seconds / (2 * wl.nominal_cycle_s)))
    ops = [op for k in range(cycles) for op in (first if k == 0 else wl.cycle(k))]
    plain = Outcome()
    for op in ops:
        execute(op, ref, plain)
    outcome = Outcome()
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        for op in ops:
            execute(op, ref, outcome, span=tracer.span)
    for op, a, b in zip(ops, plain.summaries, outcome.summaries):
        if a != b:
            outcome.failed += 1
            print(f"FAIL {op.key}: traced output {b} differs from untraced {a}", file=sys.stderr)
    outcome.attempted += plain.attempted
    outcome.failed += plain.failed
    metrics = layer_metrics(tracer, wl)
    overhead = sum(outcome.op_s) / sum(plain.op_s) - 1.0 if plain.op_s else 0.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics["workload.kappa_inf_frac"] = (
        outcome.kappa_inf / len(ops) if wl.kind == "sweep" else 0.0, "ratio")
    op_s = tracer.incl_s.get("op", 0.0)
    metrics["trace.cover_frac"] = (1.0 - tracer.self_s.get("op", 0.0) / op_s if op_s else 0.0,
                                   "ratio")
    problems = accounting_problems(tracer, metrics["trace.cover_frac"][0])
    for p in problems:
        outcome.failed += 1
        print(f"FAIL trace accounting: {p}", file=sys.stderr)
    lines = [f"{len(ops)} operations in {cycles} cycles, traced and untraced;"
             f" untraced {sum(plain.op_s):.3f} s, traced {sum(outcome.op_s):.3f} s"]
    lines += [f"{name} = {v:.6g} {unit}" for name, (v, unit) in metrics.items()]
    return outcome, metrics, lines


def accounting_problems(tracer, cover):
    """Self times must add up to the top-level spans, and the wrapped public
    entry points must cover each operation's time."""
    problems = []
    total_self = sum(tracer.self_s.values())
    if abs(total_self - tracer.top_s) > 1e-6 * max(tracer.top_s, 1.0):
        problems.append(f"self times sum to {total_self} s, top-level spans {tracer.top_s} s")
    if cover < MIN_COVER:
        problems.append(f"wrapped calls cover {cover:.3f} of operation time")
    return problems


SCALAR = ("kl", "gjs", "gjs_value", "weighted_join_min", "renyi_frac", "bht_tradeoff", "tilted")


def layer_metrics(tracer, wl):
    calls, incl, self_s, counts = tracer.calls, tracer.incl_s, tracer.self_s, tracer.counts

    def c(name):
        return (calls.get(name, 0), "count")

    def s(name):
        return (incl.get(name, 0.0), "s")

    def ss(name):
        return (self_s.get(name, 0.0), "s")

    def ratio(a, b):
        return (a / b if b else 0.0, "ratio")

    m = {}
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (
            sum((v for k, v in self_s.items() if k.startswith(layer + ".")), 0.0), "s")
    m["exponents.report.calls"] = c("exponents.report")
    for name in ("report", "kappa_search", "mu_search", "e_fix_search"):
        m[f"exponents.{name}.s"] = s(f"exponents.{name}")
    m["exponents.g1.calls"] = c("exponents.g1")
    m["exponents.g1.s"] = s("exponents.g1")
    for name in ("exponents.g1_batch", "exponents.lambda_matrix"):
        m[name + ".calls"] = c(name)
        m[name + ".self_s"] = ss(name)
    m["optimizer.min_simplex_pair.calls"] = c("optimizer.min_simplex_pair")
    m["optimizer.min_simplex_pair.s"] = s("optimizer.min_simplex_pair")
    m["optimizer.min_simplex_pair.self_s"] = ss("optimizer.min_simplex_pair")
    for name in ("gjs_cross", "kl_floor_projection", "kl_matrix", "kl_rows"):
        m[f"divergence.{name}.calls"] = c(f"divergence.{name}")
        m[f"divergence.{name}.self_s"] = ss(f"divergence.{name}")
    m["divergence.scalar.calls"] = (sum(calls.get(f"divergence.{f}", 0) for f in SCALAR), "count")
    m["divergence.scalar.self_s"] = (sum(self_s.get(f"divergence.{f}", 0.0) for f in SCALAR), "s")
    m["simplex.grid_array.calls"] = c("simplex.grid_array")
    m["simplex.grid_array.rows"] = (counts.get("simplex.grid_array.rows", 0), "count")
    m["simplex.grid_array.self_s"] = ss("simplex.grid_array")
    m["simplex.sample_iid.calls"] = c("simplex.sample_iid")
    m["simplex.sample_iid.samples"] = (counts.get("simplex.sample_iid.samples", 0), "count")
    m["simplex.sample_iid.self_s"] = ss("simplex.sample_iid")
    for name in ("simplex.stream_seed", "simplex.empirical"):
        m[name + ".calls"] = c(name)
        m[name + ".self_s"] = ss(name)
    m["simplex.as_dist.calls"] = (counts.get("simplex.as_dist.calls", 0), "count")
    for name in ("testbench.two_phase_test", "testbench.fixed_length_test"):
        m[name + ".calls"] = c(name)
        m[name + ".self_s"] = ss(name)
    m["testbench.early_frac"] = ratio(
        counts.get("testbench.two_phase_test.early", 0), calls.get("testbench.two_phase_test", 0))
    m["testbench.capped"] = (counts.get("testbench.two_phase_test.capped", 0), "count")
    m["montecarlo.run_trials.calls"] = c("montecarlo.run_trials")
    m["montecarlo.run_trials.s"] = s("montecarlo.run_trials")
    m["montecarlo.run_trials.self_s"] = ss("montecarlo.run_trials")
    m["montecarlo.samples_read_frac"] = ratio(
        counts.get("simplex.empirical.samples", 0), counts.get("simplex.sample_iid.samples", 0))
    m["workload.d"] = (wl.d, "count")
    return m


# ---------------------------------------------------------------- entry points


def run_one(args, cls):
    wl = cls(args.seed, tiny=args.tiny)
    first = wl.cycle(0)
    if args.setup_only:
        return 0
    ref = {} if args.tiny else load_reference(args.workload)
    env = machine_record()
    env["seed"] = args.seed
    runner = traced_run if args.trace else untraced_run
    outcome, metrics, lines = runner(wl, first, args, ref)
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(f"workload {wl.name} (d = {wl.d}) seed {args.seed} trace {args.trace}:"
          f" {'correct' if correct else 'INCORRECT'}")
    for line in lines:
        print("  " + line)
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else EXIT_FAILED


def run_all(args, names):
    """Each workload in its own process; print their summaries in turn."""
    ok = True
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(ln for ln in lines[:-1] if not ln.startswith("env ")), flush=True)
        ok = ok and proc.returncode == 0
    return 0 if ok else EXIT_FAILED


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest sizes, for the benchmark's tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        if "SEQCLASS_THREADS" in os.environ:
            raise UsageError("SEQCLASS_THREADS is set; unset it (it selects another trial path)")
        load_program()
        from workloads import WORKLOADS

        if args.workload != "all" and args.workload not in WORKLOADS:
            raise UsageError(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all")
    except UsageError as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return EXIT_USAGE
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    return run_one(args, WORKLOADS[args.workload])


if __name__ == "__main__":
    sys.exit(main())

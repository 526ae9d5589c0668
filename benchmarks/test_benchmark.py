"""Tests of the benchmark itself (not of seqclass):

    python3 -m pytest benchmarks
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing

run.load_program()

import workloads  # noqa: E402  (needs the program on the path)
from seqclass import exponents as ex  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args, env=None, cwd=run.ROOT, script=run.BENCH_DIR / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"])


def test_self_time_is_span_minus_direct_children():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    t = tracing.Tracer(clock=lambda: next(ticks))
    t.enter()  # op       [0, 10]
    t.enter()  # a        [1, 4]
    t.enter()  # a.inner  [2, 3]
    t.exit("a.inner")
    t.exit("a")
    t.enter()  # b        [5, 9]
    t.exit("b")
    t.exit("op")
    assert t.incl_s == {"op": 10.0, "a": 3.0, "a.inner": 1.0, "b": 4.0}
    assert t.self_s == {"op": 3.0, "a": 2.0, "a.inner": 1.0, "b": 4.0}
    assert t.calls == {"op": 1, "a": 1, "a.inner": 1, "b": 1}
    assert t.top_s == 10.0 and sum(t.self_s.values()) == t.top_s


def test_traced_run_wraps_every_binding_then_restores_originals(capsys):
    before = [(mod, attr, fn) for mod, attr, fn in tracing.bindings()]
    names = {(mod.__name__, attr) for mod, attr, _ in before}
    # modules import names directly: both bindings must be found
    assert ("seqclass.exponents", "min_simplex_pair") in names
    assert ("seqclass.optimizer", "min_simplex_pair") in names
    assert ("seqclass.montecarlo", "two_phase_test") in names
    assert ("seqclass", "report") in names
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        for mod, attr, fn in before:
            assert getattr(mod, attr) is not fn
            assert getattr(mod, attr).__wrapped__ is fn
    assert run.main(["--workload", "sim_renyi", "--seconds", "0", "--trace", "1", "--tiny"]) == 0
    capsys.readouterr()
    for mod, attr, fn in before:
        assert getattr(mod, attr) is fn, f"{mod.__name__}.{attr} not restored"


def test_checks_catch_a_moved_number():
    wl = workloads.SimConstant(0, tiny=True)
    op = wl.cycle(0)[0]
    out = op.run()
    ref = op.summary(out)
    assert op.check(out, ref) == []
    assert op.check(out, dict(ref, errors=ref["errors"] + 1))
    rop = workloads.SweepRenyi(0, tiny=True).op_at("fig1", 3)
    rep = rop.run()
    rref = rop.summary(rep)
    assert rop.check(rep, rref) == []
    assert rop.check(rep, dict(rref, e_fix=rref["e_fix"] + 1e-8))
    assert workloads.SweepRenyi(0, tiny=True).op_at("fig3", 3).check(rep, None)  # kappa finite


def test_refuses_seqclass_threads():
    env = dict(os.environ, SEQCLASS_THREADS="2")
    proc = bench("--workload", "sim_constant", "--tiny", env=env)
    assert proc.returncode == 2 and proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sim_constant", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "benchmarks" / "run.py")
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.xfail(raises=ValueError, strict=True,
                   reason="mu_search refines without the eps floor, so a box point with a "
                          "coordinate of -1e-16 reaches as_dist; sweep_constant_d3 draws "
                          "entries >= 0.05 until this is fixed")
def test_d3_instance_near_the_simplex_boundary():
    inst = ex.ProblemInstance((0.216, 0.33, 0.454), (0.946, 0.043, 0.011), 0.38, 0.6,
                              ex.ConstantLambda(0.122416999096))
    ex.report(inst)

"""End-to-end acceptance checks: closed forms against pure grid oracles,
structural propositions of the exponent theory, figure reproduction through
the CLI, and simulator behavior against the computed exponents."""

import ast
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from seqclass import cli
from seqclass import divergence as dv
from seqclass import exponents as ex
from seqclass.montecarlo import estimate_exponent, run_trials
from seqclass.optimizer import SearchConfig
from seqclass.simplex import grid_array
from seqclass.testbench import SetupKind

import oracles as orc

P0S = (0.6, 0.4)
P1S = (0.1, 0.9)
SOLVER = SearchConfig(coarse_m=200, refine_rounds=3)

FIG2_INST = ex.ProblemInstance(P0S, P1S, 2.0, 1.0, ex.ConstantLambda(0.05))
FIG1_INST = ex.ProblemInstance(P0S, P1S, 0.38, 0.6, ex.ScaledRenyiLambda(0.5, 0.003))


#: all that oracles.py may take from seqclass: the divergence module, the
#: grid and lambda primitives, the instance types and the CSV header.  No
#: solver function and nothing of the optimizer, so the oracles stay an
#: independent route to each exponent.
ORACLE_IMPORTS = {
    ("seqclass", "divergence"),
    ("seqclass.simplex", "grid_array"),
    ("seqclass.simplex", "box_grid"),
    ("seqclass.exponents", "lambda_matrix"),
    ("seqclass.exponents", "ConstantLambda"),
    ("seqclass.exponents", "ProblemInstance"),
    ("seqclass.exponents", "ScaledRenyiLambda"),
    ("seqclass.cli", "CURVE_COLUMNS"),
}
#: the solver's own kernels, which oracles.py may not read from the
#: divergence module: an oracle builds its minimisers its own way
ORACLE_FORBIDDEN_DV = {"tilt", "multiplier_search", "cell_multiplier", "bht_minimizer"}


def test_oracles_import_only_primitives():
    taken, divergence, read = set(), set(), set()
    for node in ast.walk(ast.parse(Path(orc.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            taken |= {(alias.name, None) for alias in node.names if alias.name.startswith("seqclass")}
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("seqclass")):
            taken |= {(node.module, alias.name) for alias in node.names}
            divergence |= {alias.asname or alias.name for alias in node.names if alias.name == "divergence"}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            read.add((node.value.id, node.attr))
    assert taken <= ORACLE_IMPORTS
    assert divergence and not {attr for name, attr in read if name in divergence} & ORACLE_FORBIDDEN_DV


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _random_pair(rng, gap=0.1, lo=0.05):
    while True:
        p, q = lo + (1 - 2 * lo) * rng.random(2)
        if abs(p - q) >= gap:
            return np.array([p, 1 - p]), np.array([q, 1 - q])


def test_01_divergence_closed_forms_vs_grid():
    start = time.time()
    rng = _rng(1)
    pairs = [_random_pair(rng, gap=0.0, lo=0.01) for _ in range(50)]
    assert cli.closed_form_gap(pairs) <= 1e-4
    assert time.time() - start < 10


def test_02_tradeoff_solver_vs_grid():
    rng = _rng(2)
    pairs = [_random_pair(rng) for _ in range(20)]
    assert cli.tradeoff_gap(pairs, (0.1, 0.3, 0.5, 0.7, 0.9)) <= 1e-3
    for P0, P1 in pairs:
        # endpoints
        top = dv.kl(P1, P0)
        assert dv.bht_tradeoff(P0, P1, top + 1e-9) == 0.0
        assert dv.bht_tradeoff(P0, P1, 1e-14) == pytest.approx(dv.kl(P0, P1), abs=1e-6)


@pytest.mark.parametrize(
    "inst,oracle_kwargs",
    [
        (FIG2_INST, {}),
        (FIG1_INST, {"inner_m": 500}),
    ],
    ids=["fig2-constant", "fig1-scaled-renyi"],
)
def test_03_variational_solver_vs_pure_oracle(inst, oracle_kwargs):
    start = time.time()
    ka = ex.kappa(inst, SOLVER)
    m = ex.mu(inst, SOLVER)
    ef = ex.e_fix(inst, SOLVER)
    assert ka == pytest.approx(orc.oracle_kappa(inst, m=2000, **oracle_kwargs), abs=5e-3)
    assert m == pytest.approx(orc.oracle_mu(inst, m=2000, **oracle_kwargs), abs=5e-3)
    if isinstance(inst.lam, ex.ConstantLambda):
        oef = orc.oracle_efix(inst, m=2000)
    else:
        oef = orc.oracle_efix(inst, m=2000, coarse_m=100, inner_m=400)
    assert ef == pytest.approx(oef, abs=5e-3)
    assert time.time() - start < 300


def test_04_constant_lambda_semi1_equals_seq():
    rng = _rng(4)
    for _ in range(20):
        P0, P1 = _random_pair(rng)
        g = dv.gjs_value(P0, P1, 1.0)
        lam0 = (0.1 + 0.8 * rng.random()) * g
        inst = ex.ProblemInstance(tuple(P0), tuple(P1), 1.0, 1.0, ex.ConstantLambda(lam0))
        rep = ex.report(inst, SOLVER)
        assert rep.kappa <= rep.mu + 1e-6
        assert abs(rep.e_semi1 - rep.e_seq) <= 1e-3


def test_05_constant_lambda_threshold_regimes():
    g = dv.gjs_value(np.asarray(P0S), np.asarray(P1S), 2.0)
    # budget above GJS: everything collapses to zero
    loose = ex.ProblemInstance(P0S, P1S, 2.0, 1.0, ex.ConstantLambda(g + 0.01))
    rep = ex.report(loose, SOLVER)
    for v in (rep.kappa, rep.e_fix, rep.e_seq, rep.e_semi1, rep.e_semi2):
        assert v <= 1e-6
    # budget below GJS: strict positivity and a strict fixed-length penalty
    rep = ex.report(FIG2_INST, SOLVER)
    assert rep.e_fix >= 1e-4
    assert rep.e_semi1 - rep.e_fix >= 1e-4
    # kappa strictly increasing in beta
    k1 = ex.kappa(FIG2_INST, SOLVER)
    double = ex.ProblemInstance(P0S, P1S, 2.0, 2.0, ex.ConstantLambda(0.05))
    k2 = ex.kappa(double, SOLVER)
    assert k2 - k1 >= 1e-4


@pytest.mark.parametrize("xi", [0.25, 0.5, 0.75, 1.0])
def test_06_renyi_dominated_lambda_kappa_infinite(xi):
    inst = ex.ProblemInstance(P0S, P1S, 0.7, 0.7, ex.ScaledRenyiLambda(xi, 0.0))
    assert ex.kappa_certified_infinite(inst)
    res = ex.kappa_search(inst, SOLVER)
    assert math.isinf(res.value)
    # grid emptiness cross-check: no (Q0, Q1) at m=100 scores g1 < 0
    pg = grid_array(2, 100, eps=inst.eps)
    lead, per_row = ex._g1_diag(inst, SOLVER)
    gm = ex._min_plus(lead(pg), per_row(pg))
    assert (gm >= -1e-12).all()
    rep = ex.report(inst, SOLVER)
    assert rep.e_seq == rep.renyi_term


def test_07_training_limitation_regimes():
    # alpha*beta > 1: the training-limitation term never undercuts the
    # sequential term
    rng = _rng(7)
    lam = ex.ScaledRenyiLambda(1.0, 0.0)
    for _ in range(20):
        P0, P1 = _random_pair(rng)
        inst = ex.ProblemInstance(tuple(P0), tuple(P1), 1.2, 1.2, lam)
        assert ex.renyi_term(inst) <= ex.mu(inst, SOLVER) + 5e-3
    # alpha*beta < 1: a violating pair exists and the finder produces one
    start = time.time()
    found = orc.find_mu_violation(0.7, 0.7)
    assert found is not None
    inst, bound = found
    assert bound < ex.renyi_term(inst) - 5e-3
    assert time.time() - start < 60


def test_08_ordering_chain_via_verify_full(capsys):
    assert cli.cmd_verify("full") == 0
    out = capsys.readouterr().out
    assert "PASS ordering-chain-and-constant-lambda" in out


@pytest.fixture(scope="module")
def preset_curves(tmp_path_factory):
    """The rows of `curve --preset` for fig1, fig2 and fig3, the seconds
    the three runs took, and the sha256 of each curve.csv."""
    start = time.time()
    paths, digests = {}, {}
    for preset in ("fig1", "fig2", "fig3"):
        out = tmp_path_factory.mktemp(preset)
        assert cli.main(["curve", "--preset", preset, "--out", str(out)]) == 0
        paths[preset] = orc.csv_to_rows((out / "curve.csv").read_text())
        digests[preset] = hashlib.sha256((out / "curve.csv").read_bytes()).hexdigest()
    return paths, time.time() - start, digests


def _nonincreasing(rows, column):
    seq = [r[cli.CURVE_COLUMNS.index(column)] for r in rows]
    return all(x >= y - 1e-9 for x, y in zip(seq, seq[1:]))


#: the scaled-Renyi columns that fall with xi at every point today (ROADMAP
#: Finding A): a lambda-ball only grows with xi, so no exponent may rise
FALLING_COLUMNS = {
    "fig1": ("renyi_term", "mu", "nu", "e_fix"),
    "fig3": ("renyi_term", "nu", "e_fix", "e_seq", "e_semi1", "e_semi2"),
}


def test_09_figure_reproduction(preset_curves):
    paths, seconds, _ = preset_curves

    # fig2: non-increasing columns, strict fixed-length penalty in the interior
    rows = paths["fig2"]
    assert len(rows) == 50
    cols = list(zip(*rows))
    for ci in range(1, len(cli.CURVE_COLUMNS)):
        seq = cols[ci]
        assert all(x >= y - 1e-9 for x, y in zip(seq, seq[1:])), cli.CURVE_COLUMNS[ci]
    interior = rows[1:-1]
    assert any(r[6] - r[5] >= 1e-3 for r in interior)  # e_seq - e_fix

    # fig3: kappa infinite throughout
    assert all(math.isinf(r[2]) for r in paths["fig3"])

    # fig1: each of renyi, mu, nu is the active minimum somewhere
    renyi_active = mu_active = nu_active = False
    for r in paths["fig1"]:
        _, ren, ka, m, n, ef, e_seq, e_semi1, e_semi2 = r
        renyi_active = renyi_active or ren <= ka
        mu_active = mu_active or m < e_seq - 1e-9
        nu_active = nu_active or n < e_seq - 1e-9
    assert renyi_active and mu_active and nu_active

    # fig1 and fig3: the columns that hold Finding A do not rise with xi
    for preset, columns in FALLING_COLUMNS.items():
        for column in columns:
            assert _nonincreasing(paths[preset], column), (preset, column)
    assert seconds < 900


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP Finding A: grid kappa and mu rise with xi at a few fig1 and fig3 points "
    "(and e_seq, e_semi1, e_semi2 with them); item 1's swapped solve mends them",
)
def test_09c_no_scaled_renyi_exponent_rises_with_xi(preset_curves):
    paths, _, _ = preset_curves
    for preset in ("fig1", "fig3"):
        for column in cli.CURVE_COLUMNS[1:]:
            assert _nonincreasing(paths[preset], column), (preset, column)


#: the benchmark's recorded sweep_renyi reports, read and never written
SWEEP_REFERENCE = Path(__file__).resolve().parent.parent / "benchmarks" / "reference" / "sweep_renyi.json"


@pytest.mark.parametrize("preset", ["fig1", "fig3"])
def test_09b_reports_match_the_benchmark_reference(preset_curves, preset):
    # a change that moves a gated value fails here, not only in the
    # benchmark.  Every point of the sweep is checked: `curve --preset`
    # builds each report with cfg.instance(xi=...) and cfg.solver, as the
    # workload does, and writes repr floats
    paths, _, _ = preset_curves
    recorded = json.loads(SWEEP_REFERENCE.read_text())["outputs"]
    xs = cli.load_config(preset=preset).sweep_values()
    rows = paths[preset]
    assert len(rows) == len(xs) == 50
    for i, row in enumerate(rows):
        assert row[0] == float(xs[i])
        got = dict(zip(cli.CURVE_COLUMNS, row))
        for key, want in recorded[f"{preset}/{i}"].items():
            if want == "inf":
                assert got[key] == math.inf, (preset, i, key)
            else:
                assert abs(got[key] - want) <= 1e-9, (preset, i, key, got[key], want)


#: sha256 of fig1's and fig3's curve.csv (numpy 2.4, x86-64), recorded
#: before kappa's slot minimum skipped the entries its lower bound rules
#: out: test_09b holds the values only to 1e-9, and a speedup that keeps
#: every sign of the constraint keeps every bit
CURVE_SHA256 = {
    "fig1": "e80514be5ca7abafbcf52c6ac2a58e0d10fd9341fb40eba5032fe553f22fa619",
    "fig3": "ce1ce8c998790ed15a5b2ccf4d1935730f71ed38e96750bfb2ee3dba43d44db0",
}


@pytest.mark.parametrize("preset", ["fig1", "fig3"])
def test_09d_sweeps_keep_every_bit(preset_curves, preset):
    _, _, digests = preset_curves
    assert digests[preset] == CURVE_SHA256[preset]


# simulation instance: well-separated pair with sampling ratios
# alpha = beta = 0.3, chosen so the rare-event floor (>= 5 errors) holds at
# every n in the grid
SIM_INST = ex.ProblemInstance((0.8, 0.2), (0.2, 0.8), 0.3, 0.3, ex.ConstantLambda(0.05))
SIM_NS = (20, 40, 60)
SIM_TRIALS = 10_000
SIM_SEED = 202


def test_10_simulator_universality():
    start = time.time()
    rep = ex.report(SIM_INST, SOLVER)
    targets = {SetupKind.FullySeq: rep.e_seq, SetupKind.Semi1: rep.e_semi1}
    for setup, e1star in targets.items():
        runs0, runs1 = [], []
        for n in SIM_NS:
            r0 = run_trials(setup, SIM_INST, 0, n, SIM_TRIALS, SIM_SEED)
            r1 = run_trials(setup, SIM_INST, 1, n, SIM_TRIALS, SIM_SEED)
            runs0.append(r0)
            runs1.append(r1)
            for r in (r0, r1):
                # (a) stopping-time support
                assert set(r.tau_hist) <= {n - 1, n * n}
                # (b) expected stopping time at most n (one-sided 99% CI)
                se = r.ci95_tau / 1.96
                assert r.mean_tau <= n + 2.326 * se
        # (c) type-I error frequency non-increasing within CI overlap
        for a, b in zip(runs0, runs0[1:]):
            pa, pb = a.errors / a.trials, b.errors / b.trials
            sea = math.sqrt(max(pa * (1 - pa), 1e-12) / a.trials)
            seb = math.sqrt(max(pb * (1 - pb), 1e-12) / b.trials)
            assert pb <= pa + 2.576 * (sea + seb)
        # (d) type-II exponent bracket around the computed optimum
        fit = estimate_exponent(runs1, 1)
        assert fit.slope > 0
        assert 0.3 * e1star <= fit.slope <= 3.0 * e1star
    assert time.time() - start < 600


#: sha256 of the test_11 outputs as first recorded (numpy 2.4, x86-64): a
#: change that moves a byte of them, between commits as well as between two
#: runs of one commit, fails here
OUTPUT_SHA256 = {
    "curve.csv": "70ebd6346b25d521fe96bc1e769752e1b57a531fa0753fc700b4badd1c2ad9a0",
    "curve.svg": "f36bd9ba18be3d55718700fcdc14c7bc02da90ce9535af1dc98b319f6edb96ed",
    "trials.csv": "fb7486cb58f33681a073c3b44d7694ebc753f170c9e5fff8717c6e4ef4f06b13",
    "summary.json": "007616cf8ed4d6a6df612f50915918cd945beef5ca55f08b71fc2bdf5ef718f4",
}


def test_11_determinism_byte_identical(tmp_path):
    cfgtext = (
        "schema = 1\np0 = 0.8,0.2\np1 = 0.2,0.8\nalpha = 0.3\nbeta = 0.3\n"
        "lambda_family = constant\nlambda0 = 0.05\n"
        "sim_setups = fullyseq\nsim_n_grid = 12,16\nsim_trials = 200\nsim_seed = 7\n"
        "sim_late_cap = 80\n"
    )
    cfgfile = tmp_path / "sim.cfg"
    cfgfile.write_text(cfgtext)
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / f"curve-{tag}"
        assert cli.main(["curve", "--preset", "fig2", "--out", str(out)]) == 0
        sim = tmp_path / f"sim-{tag}"
        cli.main(["simulate", "--config", str(cfgfile), "--out", str(sim)])
        blobs.append(
            (out / "curve.csv").read_bytes()
            + (out / "curve.svg").read_bytes()
            + (sim / "trials.csv").read_bytes()
            + (sim / "summary.json").read_bytes()
        )
    assert blobs[0] == blobs[1]
    for path in (out / "curve.csv", out / "curve.svg", sim / "trials.csv", sim / "summary.json"):
        assert hashlib.sha256(path.read_bytes()).hexdigest() == OUTPUT_SHA256[path.name], path.name
    reports = []
    for _ in range(2):
        rep = ex.report(FIG2_INST, SOLVER)
        reports.append(json.dumps(rep.as_dict(), sort_keys=True))
    assert reports[0] == reports[1]

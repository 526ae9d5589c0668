import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqclass import cli
from seqclass import divergence as dv
from seqclass import exponents as ex
from seqclass import montecarlo as mc
from seqclass import simplex
from seqclass.optimizer import SearchConfig

import oracles as orc


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


GOOD_CFG = """
schema = 1
p0 = 0.6,0.4
p1 = 0.1,0.9
alpha = 2
beta = 1
lambda_family = constant
lambda0 = 0.05
"""


def write_changed(tmp_path, changes):
    """GOOD_CFG with each key of changes set to its value, or dropped for None."""
    raw = {k: v for k, v in dict(cli.parse_config_text(GOOD_CFG), **changes).items() if v is not None}
    return write(tmp_path, "".join(f"{k} = {v}\n" for k, v in raw.items()))


def test_parse_rejects_unknown_key():
    with pytest.raises(cli.ConfigError, match="unknown key"):
        cli.parse_config_text("schema = 1\nbogus = 3\n")


def test_parse_rejects_duplicate_key():
    with pytest.raises(cli.ConfigError, match="duplicate"):
        cli.parse_config_text("alpha = 1\nalpha = 2\n")


def test_parse_rejects_bad_line():
    with pytest.raises(cli.ConfigError, match="expected"):
        cli.parse_config_text("just some words\n")


def test_parse_comments_and_blanks():
    got = cli.parse_config_text("# hi\n\nalpha = 2  # trailing\n")
    assert got == {"alpha": "2"}


def test_schema_required(tmp_path):
    path = write(tmp_path, "p0 = 0.5,0.5\n")
    with pytest.raises(cli.ConfigError, match="schema"):
        cli.load_config(path)


def test_config_file_overrides_preset(tmp_path):
    path = write(tmp_path, "schema = 1\nalpha = 3\n")
    cfg = cli.load_config(path, "fig2")
    assert cfg.alpha == 3.0
    assert cfg.lam == __import__("seqclass").ConstantLambda(0.05)


def test_presets_load():
    for name in ("fig1", "fig2", "fig3"):
        cfg = cli.load_config(preset=name)
        assert cfg.sweep is not None
        assert cfg.sweep["points"] == 50
    assert math.isclose(
        cli.load_config(preset="fig2").sweep["to"],
        __import__("seqclass").gjs_value(
            __import__("numpy").array([0.6, 0.4]),
            __import__("numpy").array([0.1, 0.9]),
            2.0,
        ),
    )


def test_exit_code_config_error(tmp_path):
    path = write(tmp_path, "schema = 1\nbogus = 1\n")
    assert cli.main(["exponents", "--config", path]) == cli.EXIT_CONFIG
    assert cli.main(["exponents", "--config", str(tmp_path / "missing.cfg")]) == cli.EXIT_CONFIG
    assert cli.main(["curve", "--preset", "fig2", "--config", path, "--out", str(tmp_path)]) == cli.EXIT_CONFIG


#: refusals that reach the loader as a library ValueError or a KeyError,
#: each with the key or value that its message names
REROUTED = {
    "unknown_family": ({"lambda_family": "linear"}, "'linear'"),
    "unknown_sweep_parameter": ({"sweep_parameter": "alpha", "sweep_from": "1", "sweep_to": "3"}, "'alpha'"),
    "sweep_points_1": ({"sweep_parameter": "lambda0", "sweep_from": "0.01", "sweep_points": "1"}, "sweep_points"),
    "sweep_scale_x": ({"sweep_parameter": "lambda0", "sweep_from": "0.01", "sweep_scale": "x"}, "sweep_scale"),
    "sim_setups_x": ({"sim_setups": "x"}, "'x'"),
    "sim_trials_1.5": ({"sim_trials": "1.5"}, "'1.5'"),
    "missing_p0": ({"p0": None}, "'p0'"),
    # a lambda0 sweep has a default end but no default start
    "missing_sweep_from": ({"sweep_parameter": "lambda0"}, "'sweep_from'"),
}
#: budget keys of the other family, and seeds outside [0, 2**63), which
#: the stream keys would fold onto seeds inside it
FOREIGN_OR_FOLDED = {
    "xi_constant": ({"xi": "7"}, "xi"),
    "offset_constant": ({"offset": "0.003"}, "offset"),
    "lambda0_scaled_renyi": ({"lambda_family": "scaled_renyi", "xi": "0.5", "lambda0": "-4"}, "lambda0"),
    "sim_seed_negative": ({"sim_seed": "-1"}, "sim_seed"),
    "sim_seed_2_63": ({"sim_seed": str(2**63)}, "sim_seed"),
}
#: REROUTED, FOREIGN_OR_FOLDED, two cases of test_config_mistake_exits_2
#: whose message stream_sizes writes, and a misspelled flag
NAMED = dict(
    REROUTED,
    **FOREIGN_OR_FOLDED,
    late_cap_below_n=({"sim_late_cap": "5", "sim_n_grid": "20"}, "late_cap 5"),
    n_grid_1=({"sim_n_grid": "1,10"}, "got 1"),
    svg_log_x_misspelled=({"svg_log_x": "ture"}, "svg_log_x"),
)


@pytest.mark.parametrize(
    "changes",
    [
        {"lambda_family": "scaled_renyi", "xi": "0.5", "lambda0": None, "solver_coarse_m": "1"},
        {"lambda_family": "scaled_renyi", "xi": "0.5", "lambda0": None, "sweep_parameter": "xi",
         "sweep_from": "0.5", "sweep_to": "1.5"},
        {"sim_n_grid": "1,10"},
        {"sweep_parameter": "xi", "sweep_from": "0.1", "sweep_to": "0.5"},
        {"sim_trials": "0"},
        {"sim_late_cap": "0"},
        # a scaled-Renyi budget at d = 4 and the default density: a
        # 39,711-point pair grid, N^2 far past check_pair_grid's bound
        {"p0": "0.4,0.3,0.2,0.1", "p1": "0.1,0.2,0.3,0.4", "lambda_family": "scaled_renyi", "xi": "0.5",
         "lambda0": None},
        # the late time would read fewer samples than the early phase at n - 1
        {"sim_late_cap": "5", "sim_n_grid": "20"},
        # the box schedule's density factor is fixed, not a setting
        {"solver_refine_factor": "10"},
        # a lambda0 sweep would swap the scaled-Renyi budget for a constant one
        {"lambda_family": "scaled_renyi", "xi": "0.5", "lambda0": None, "sweep_parameter": "lambda0",
         "sweep_from": "0.01", "sweep_to": "0.1"},
        # NaN and infinity are rejected like any other out-of-range value
        {"lambda0": "nan"},
        {"lambda_family": "scaled_renyi", "xi": "0.5", "lambda0": None, "offset": "nan"},
        {"sweep_parameter": "lambda0", "sweep_from": "nan", "sweep_to": "0.1"},
        {"sweep_parameter": "lambda0", "sweep_from": "0.001", "sweep_to": "inf"},
        {"alpha": "inf"},
        {"alpha": "nan"},
        # a constant budget searches no grid, so the solver keys do nothing
        {"solver_coarse_m": "30"},
        {"solver_refine_rounds": "2"},
        # kappa's refinement would score a 41^3-point box against the inner
        # grid: 68,921 x 560 cells at d = 4, m = 13, past PAIR_CELL_LIMIT
        {"p0": "0.4,0.3,0.2,0.1", "p1": "0.1,0.2,0.3,0.4", "lambda_family": "scaled_renyi",
         "xi": "0.5", "offset": "0.003", "lambda0": None, "solver_coarse_m": "13"},
        # at d = 5 even the coarsest grid's refinement is too large
        {"p0": "0.3,0.25,0.2,0.15,0.1", "p1": "0.1,0.15,0.2,0.25,0.3", "lambda_family": "scaled_renyi",
         "xi": "0.5", "offset": "0.003", "lambda0": None, "solver_coarse_m": "2"},
        # a misspelled flag would otherwise read as false
        {"svg_log_x": "ture"},
        *(changes for changes, _ in REROUTED.values()),
        *(changes for changes, _ in FOREIGN_OR_FOLDED.values()),
    ],
    ids=["coarse_m_1", "xi_sweep_past_1", "n_grid_1", "xi_sweep_constant", "trials_0", "late_cap_0",
         "pair_grid_d4", "late_cap_below_n", "refine_factor_key", "lambda0_sweep_scaled_renyi",
         "lambda0_nan", "offset_nan", "sweep_from_nan", "sweep_to_inf", "alpha_inf", "alpha_nan",
         "coarse_m_constant", "refine_rounds_constant", "kappa_refinement_d4", "kappa_refinement_d5",
         "svg_log_x_misspelled",
         *REROUTED, *FOREIGN_OR_FOLDED],
)
def test_config_mistake_exits_2(tmp_path, changes):
    # each mistake is caught while the config loads, before any work starts
    path = write_changed(tmp_path, changes)
    with pytest.raises(cli.ConfigError) as err:
        cli.load_config(path)
    if {"nan", "inf"} & set(changes.values()):
        # refused as non-finite, not by a check that trips over it later
        assert "finite" in str(err.value)
    for cmd in (["exponents"], ["curve", "--out", str(tmp_path / "c")], ["simulate", "--out", str(tmp_path / "s")]):
        assert cli.main([cmd[0], "--config", path] + cmd[1:]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("changes, named", NAMED.values(), ids=list(NAMED))
def test_refusal_names_its_fault(tmp_path, changes, named):
    with pytest.raises(cli.ConfigError, match=re.escape(named)):
        cli.load_config(write_changed(tmp_path, changes))


#: values a config key accepts, and the usual mistakes (None drops the key)
VALID = {
    "p0": ("0.6,0.4",),
    "p1": ("0.1,0.9", "0.3,0.7"),
    "alpha": ("2", "0.38"),
    "beta": ("1", "0.6"),
    "epsilon": ("0.01", "0.001"),
    "lambda_family": ("constant", "scaled_renyi"),
    "lambda0": ("0.05",),
    "xi": ("0.5", "1"),
    "offset": ("0.003",),
    "sweep_parameter": ("lambda0", "xi", "beta"),
    "sweep_from": ("0.001", "0.5"),
    "sweep_to": ("0.9", "2"),
    "sweep_points": ("50", "3"),
    "sweep_scale": ("linear", "log"),
    "solver_coarse_m": ("30",),
    "solver_refine_rounds": ("2",),
    "sim_setups": ("fullyseq", "fixed,semi1"),
    "sim_n_grid": ("20,40", "10"),
    "sim_trials": ("100",),
    "sim_seed": ("5",),
    "sim_late_cap": ("50", "400"),
    "svg_log_x": ("true",),
}
MISTAKES = ("0", "-1", "nan", "inf", "x", "", None)


#: the budget keys of each lambda_family
BUDGET_KEYS = {"constant": {"lambda0"}, "scaled_renyi": {"xi", "offset"}}


@st.composite
def config_texts(draw):
    """A schema 1 config: a budget family, the keys with no default and the
    family's budget keys, a random subset of the other keys but those of
    the other family, each with a value it accepts, then up to three keys
    given a mistake."""
    family = draw(st.sampled_from(sorted(BUDGET_KEYS)))
    foreign = set().union(*BUDGET_KEYS.values()) - BUDGET_KEYS[family]
    keys = {"p0", "p1", "alpha", "beta"} | BUDGET_KEYS[family] | draw(st.sets(st.sampled_from(sorted(set(VALID) - foreign))))
    raw = {k: draw(st.sampled_from(VALID[k])) for k in sorted(keys)}
    if family != "constant" or "lambda_family" in raw:  # constant is the default
        raw["lambda_family"] = family
    for k in sorted(draw(st.sets(st.sampled_from(sorted(VALID)), max_size=3))):
        raw[k] = draw(st.sampled_from(MISTAKES))
    return "schema = 1\n" + "".join(f"{k} = {v}\n" for k, v in raw.items() if v is not None)


@given(config_texts())
@settings(max_examples=200, deadline=None)
def test_every_config_loads_or_exits_2(tmp_path_factory, text):
    # the loader's one wrap is the only road from a refusal to exit 2: any
    # other exception here is a refusal that escaped it
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_text(text)
    try:
        cli.load_config(str(path))
    except cli.ConfigError:
        assert cli.main(["exponents", "--config", str(path)]) == cli.EXIT_CONFIG


def test_lambda0_sweep_ends_at_gjs_by_default(tmp_path):
    cfg = cli.load_config(write(tmp_path, GOOD_CFG + "sweep_parameter = lambda0\nsweep_from = 0.001\n"))
    end = dv.gjs_value(np.array([0.6, 0.4]), np.array([0.1, 0.9]), 2.0)
    assert cfg.sweep["to"] == end
    assert cfg.sweep_values()[-1] == end


def test_instance_refuses_an_override_of_the_other_budget_family():
    fig1, fig2 = cli.load_config(preset="fig1"), cli.load_config(preset="fig2")
    with pytest.raises(ValueError, match="xi"):
        fig2.instance(xi=0.5)
    with pytest.raises(ValueError, match="lambda0"):
        fig1.instance(lambda0=0.05)
    assert fig1.instance(xi=0.4).lam == ex.ScaledRenyiLambda(0.4, 0.003)
    assert fig2.instance(lambda0=0.1, beta=2.0).lam == ex.ConstantLambda(0.1)
    assert fig2.instance(beta=2.0).beta == 2.0


@pytest.mark.parametrize("key", ["solver_coarse_m", "solver_refine_rounds"])
def test_constant_budget_refuses_solver_keys_by_name(tmp_path, key):
    path = write(tmp_path, GOOD_CFG + f"{key} = 3\n")
    with pytest.raises(cli.ConfigError, match=key):
        cli.load_config(path)


def test_kappa_refinement_gate_admits_d4_up_to_coarse_m_12(tmp_path, monkeypatch):
    cfg = (
        "schema = 1\np0 = 0.4,0.3,0.2,0.1\np1 = 0.1,0.2,0.3,0.4\nalpha = 0.38\nbeta = 0.6\n"
        "lambda_family = scaled_renyi\nxi = 0.5\noffset = 0.003\n"
    )
    inst = cli.load_config(write(tmp_path, cfg + "solver_coarse_m = 12\n")).instance()

    def never_called(*args, **kwargs):
        raise AssertionError("the inner grid was built")

    monkeypatch.setattr(ex, "_inner_table", never_called)
    # the library refuses the config the loader refuses, before allocating
    with pytest.raises(ValueError, match="kappa refinement too large"):
        ex.kappa_search(inst, SearchConfig(coarse_m=13))


def test_exponents_json(tmp_path, capsys):
    path = write(tmp_path, GOOD_CFG)
    assert cli.main(["exponents", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    for key in ("renyi_term", "kappa", "mu", "nu", "e_fix", "e_seq", "e_semi1", "e_semi2"):
        assert key in payload
    assert payload["e_seq"] == min(payload["renyi_term"], payload["kappa"])
    assert "solver" not in payload  # a constant budget searches no grid


def test_exponents_json_inf_token(tmp_path, capsys):
    cfg = """
schema = 1
p0 = 0.6,0.4
p1 = 0.1,0.9
alpha = 0.7
beta = 0.7
lambda_family = scaled_renyi
xi = 0.5
offset = 0
"""
    path = write(tmp_path, cfg)
    assert cli.main(["exponents", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kappa"] == "inf"
    assert payload["kappa_note"] == "analytic"
    assert payload["solver"] == {"coarse_m": 200, "refine_rounds": 3, "refine_factor": 10}


def test_exponents_constant_d5(tmp_path, capsys):
    # a constant budget needs no pair grid, so d = 5 passes the solver gate
    raw = dict(cli.parse_config_text(GOOD_CFG), p0="0.3,0.25,0.2,0.15,0.1", p1="0.1,0.15,0.2,0.25,0.3")
    path = write(tmp_path, "".join(f"{k} = {v}\n" for k, v in raw.items()))
    assert cli.main(["exponents", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    for key in ("renyi_term", "kappa", "mu", "nu", "e_fix", "e_seq", "e_semi1", "e_semi2"):
        assert math.isfinite(payload[key])


@pytest.mark.parametrize(
    "family",
    [{"lambda_family": "constant", "lambda0": "0.05"},
     {"lambda_family": "scaled_renyi", "xi": "0.5", "offset": "0"}],
    ids=["constant", "scaled_renyi"],
)
def test_nearly_equal_pair_is_valid(tmp_path, capsys, family):
    # a pair numpy's allclose calls equal is still a distinct pair
    raw = dict(cli.parse_config_text(GOOD_CFG), p0="0.5,0.5", p1="0.500001,0.499999")
    raw.pop("lambda0")
    raw.update(family)
    path = write(tmp_path, "".join(f"{k} = {v}\n" for k, v in raw.items()))
    rep = ex.report(cli.load_config(path).instance())
    assert all(v >= 0.0 for v in rep.as_dict().values())
    assert cli.main(["exponents", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["nu"] == rep.nu


def test_null_budget_reads_nu_at_p0(tmp_path, capsys):
    # lambda(P0, P1) rounds to 0.0 on this pair: the budget admits P0
    # alone, so nu is KL(P0||P1) rather than a refused e0 = 0
    raw = dict(cli.parse_config_text(GOOD_CFG), p0="0.5,0.5", p1="0.50000001,0.49999999",
               lambda_family="scaled_renyi", xi="0.5", offset="0")
    raw.pop("lambda0")
    path = write(tmp_path, "".join(f"{k} = {v}\n" for k, v in raw.items()))
    inst = cli.load_config(path).instance()
    assert ex.lambda_eval(inst.lam, inst.p0, inst.p1, inst.beta) == 0.0
    assert cli.main(["exponents", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["nu"] == dv.kl(inst.p0, inst.p1)


def test_fmt_parse_roundtrip():
    for v in (0.1, 1 / 3, 2.5e-17, math.inf):
        assert orc.parse_value(cli.fmt_value(v)) == v


def test_csv_roundtrip_bit_exact():
    rows = [[0.001, 1 / 3, math.inf, 0.0, 1e-300, 2.5, 0.7, 0.1, 0.2]]
    text = cli.rows_to_csv(rows)
    assert orc.csv_to_rows(text) == rows
    assert "inf" in text.splitlines()[1]


def test_atomic_write_replaces(tmp_path):
    target = tmp_path / "x.csv"
    cli.atomic_write(str(target), "one")
    cli.atomic_write(str(target), "two")
    assert target.read_text() == "two"
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]


def test_curve_requires_sweep(tmp_path):
    path = write(tmp_path, GOOD_CFG)
    assert cli.main(["curve", "--config", path, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG


def test_curve_svg_structure():
    rows = [[0.1, 0.5, math.inf, 0.4, 0.3, 0.2, 0.5, 0.4, 0.3],
            [0.2, 0.5, 0.6, 0.35, 0.3, 0.15, 0.5, 0.35, 0.3]]
    svg = cli.curve_svg(rows, x_label="lambda0")
    assert svg.startswith("<svg")
    assert 'viewBox="0 0 800 600"' in svg
    assert svg.count("<polyline") == 8
    assert "lambda0" in svg and "kappa" in svg


def test_simulate_writes_outputs(tmp_path):
    cfg = GOOD_CFG + "sim_setups = fullyseq\nsim_n_grid = 10,14\nsim_trials = 40\nsim_seed = 5\nsim_late_cap = 60\n"
    path = write(tmp_path, cfg)
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--config", path, "--out", str(out)]) in (
        cli.EXIT_OK,
        cli.EXIT_STAT_FLOOR,
    )
    lines = (out / "trials.csv").read_text().strip().splitlines()
    assert lines[0] == "setup,n,theta,trials,errors,mean_tau,ci95_tau,capped"
    assert len(lines) == 1 + 2 * 2  # one setup x two theta x two n
    summary = json.loads((out / "summary.json").read_text())
    assert "fits" in summary and "floor_failures" in summary


def test_verify_quick_passes(capsys):
    assert cli.cmd_verify("quick") == 0
    out = capsys.readouterr().out
    assert "PASS divergence-closed-form-vs-grid" in out
    assert "PASS sampler-matches-numpy" in out
    assert out.strip().endswith("(quick level)")


def test_verify_fails_when_the_sampler_leaves_numpy(monkeypatch, capsys):
    # a key that no longer equals SeedSequence's fails the check, exit 5
    monkeypatch.setattr(cli, "stream_keys", lambda seed, *ids: simplex.stream_keys(seed + 1, *ids))
    assert cli.cmd_verify("quick") == cli.EXIT_INVARIANT
    out = capsys.readouterr().out
    assert "FAIL sampler-matches-numpy: 9 of 9 keys" in out


def test_verify_tol_override_names_failed_check(monkeypatch, capsys):
    monkeypatch.setattr(cli, "VERIFY_TOL", dict.fromkeys(cli.VERIFY_TOL, 1e-12))
    assert cli.cmd_verify("quick") == cli.EXIT_INVARIANT
    out = capsys.readouterr().out
    assert "FAIL divergence-closed-form-vs-grid" in out


def test_determinism_byte_identical(tmp_path):
    path = write(tmp_path, GOOD_CFG + "sim_setups = semi1\nsim_n_grid = 10,12\nsim_trials = 30\nsim_seed = 1\nsim_late_cap = 50\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cli.main(["simulate", "--config", path, "--out", str(out)])
        outs.append((out / "trials.csv").read_bytes() + (out / "summary.json").read_bytes())
    assert outs[0] == outs[1]


def test_simulate_refuses_oversized_g1_polish(tmp_path, monkeypatch):
    # d = 4 under a scaled-Renyi budget: the solver grid is bounded by
    # solver_coarse_m, but g1's polish would score ~2.7e9 pairs per round
    cfg = (
        "schema = 1\np0 = 0.4,0.3,0.2,0.1\np1 = 0.1,0.2,0.3,0.4\nalpha = 0.38\nbeta = 0.6\n"
        "lambda_family = scaled_renyi\nxi = 0.5\noffset = 0.003\nsolver_coarse_m = 12\n"
        "sim_setups = fixed\nsim_n_grid = 5\nsim_trials = 2\n"
    )
    path = write(tmp_path, cfg)

    def never_called(*args, **kwargs):
        raise AssertionError("a trial started")

    monkeypatch.setattr(mc, "run_trials", never_called)
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
    assert not out.exists()


D3_RENYI_SIM_CFG = (
    "schema = 1\np0 = 0.6,0.3,0.1\np1 = 0.1,0.3,0.6\nalpha = 0.5\nbeta = 0.7\n"
    "lambda_family = scaled_renyi\nxi = 0.5\noffset = 0.003\nsim_n_grid = 5\nsim_trials = 2\n"
)


def test_simulate_d3_renyi_two_phase_reaches_trials(tmp_path, monkeypatch):
    # d = 3 under a scaled-Renyi budget: the late phase goes through g1's
    # polish, whose bound admits d = 3, so a two-phase config starts its trials
    path = write(tmp_path, D3_RENYI_SIM_CFG + "sim_setups = fixed,fullyseq\n")

    class Started(Exception):
        pass

    def started(*args, **kwargs):
        raise Started

    monkeypatch.setattr(mc, "run_trials", started)
    with pytest.raises(Started):
        cli.main(["simulate", "--config", path, "--out", str(tmp_path / "sim")])


def test_rare_event_floor_exits_4_by_type(monkeypatch):
    def floor(cfg, outdir):
        raise mc.RareEventFloorError("too few usable points")

    def breach(cfg, outdir):
        raise ValueError("insufficient rare-event data")

    monkeypatch.setattr(cli, "cmd_simulate", floor)
    assert cli.main(["simulate", "--preset", "fig2", "--out", "unused"]) == cli.EXIT_STAT_FLOOR
    # the exit code follows the exception type, not its text
    monkeypatch.setattr(cli, "cmd_simulate", breach)
    assert cli.main(["simulate", "--preset", "fig2", "--out", "unused"]) == cli.EXIT_INVARIANT

"""Command-line surface: exponent reports, figure curves, simulation runs
and the verification suite.

Config files are flat ``key = value`` text with explicit schema versioning
(``schema = 1``); unknown keys are errors.  See CONFIG_KEYS for the full
key list.  Outputs (CSV/JSON/SVG) are written atomically.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import divergence as dv
from . import exponents as ex
from . import montecarlo as mc
from .optimizer import REFINE_FACTOR, SearchConfig, check_pair_grid
from .simplex import grid_array, philox_uniforms, stream_keys
from .testbench import SetupKind, make_model, stream_sizes

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_STAT_FLOOR = 4
EXIT_INVARIANT = 5

#: the sweep value, then each exponent of ExponentReport in field order
CURVE_COLUMNS = ("sweep_value",) + tuple(f.name for f in dataclasses.fields(ex.ExponentReport) if f.type is float)

TRIAL_COLUMNS = ("setup", "n", "theta", "trials", "errors", "mean_tau", "ci95_tau", "capped")

CONFIG_KEYS = {
    "schema",
    "p0",
    "p1",
    "alpha",
    "beta",
    "epsilon",
    "lambda_family",
    "lambda0",
    "xi",
    "offset",
    "sweep_parameter",
    "sweep_from",
    "sweep_to",
    "sweep_points",
    "sweep_scale",
    "solver_coarse_m",
    "solver_refine_rounds",
    "sim_setups",
    "sim_n_grid",
    "sim_trials",
    "sim_seed",
    "sim_late_cap",
    "svg_log_x",
}


class ConfigError(Exception):
    pass


# The three bundled figure presets share their source pair and sweep start,
# and fig1 and fig3 sweep xi under a scaled-Renyi budget; a key whose value
# is RunConfig's default is left out.
_FIG = {"schema": "1", "p0": "0.6,0.4", "p1": "0.1,0.9", "sweep_from": "0.001"}
_FIG_XI = dict(_FIG, lambda_family="scaled_renyi", xi="0.5", sweep_parameter="xi")

PRESETS = {
    "fig1": dict(_FIG_XI, alpha="0.38", beta="0.6", offset="0.003", sweep_to="1.0"),
    # a lambda0 sweep with no sweep_to ends at GJS(P0||P1, alpha)
    "fig2": dict(_FIG, alpha="2", beta="1", lambda0="0.05", sweep_parameter="lambda0"),
    "fig3": dict(_FIG_XI, alpha="0.7", beta="0.7", sweep_to="0.999"),
}


def parse_config_text(text):
    """Parse the flat key-value format into a string dict."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path=None, preset=None):
    """The RunConfig of a preset and/or a config file.  Every refusal while
    the config loads is a ConfigError: a missing key, a value that does not
    parse, or one that the objects the config describes refuse."""
    raw = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}")
        raw.update(PRESETS[preset])
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}")
        raw.update(parse_config_text(text))
    if not raw:
        raise ConfigError("need --config and/or --preset")
    if raw.get("schema") != "1":
        raise ConfigError("config must declare 'schema = 1'")
    try:
        return RunConfig(raw)
    except KeyError as e:
        raise ConfigError(f"missing key {e.args[0]!r}")
    except ValueError as e:
        raise ConfigError(str(e))


def _floats(s):
    return tuple(float(x) for x in s.split(","))


class RunConfig:
    """Run configuration (instance + sweep + solver + sim), checked by
    building what it describes: the instance, the instance at each end of
    the sweep, the SearchConfig with its pair-grid gate, and the stream
    layout of every sim cell.  A missing key raises KeyError, and a value
    that does not parse or that any of those refuses raises ValueError."""

    def __init__(self, raw):
        self.p0 = _floats(raw["p0"])
        self.p1 = _floats(raw["p1"])
        self.alpha = float(raw["alpha"])
        self.beta = float(raw["beta"])
        self.epsilon = float(raw.get("epsilon", "0.01"))
        fam = raw.get("lambda_family", "constant")
        if fam == "constant":
            self.lam = ex.ConstantLambda(float(raw.get("lambda0", "0")))
        elif fam == "scaled_renyi":
            self.lam = ex.ScaledRenyiLambda(float(raw.get("xi", "1")), float(raw.get("offset", "0")))
        else:
            raise ValueError(f"unknown lambda_family {fam!r}")
        for key in ("lambda0", "xi", "offset"):
            if key in raw and key not in {f.name for f in dataclasses.fields(self.lam)}:
                raise ValueError(f"{key} does nothing under a {fam} budget")
        inst = self.instance()
        self.sweep = None
        if "sweep_parameter" in raw:
            param = raw["sweep_parameter"]
            if param not in ("lambda0", "xi", "beta"):
                raise ValueError(f"unsupported sweep_parameter {param!r}")
            # a lambda0 sweep ends at GJS(P0||P1, alpha) unless sweep_to says otherwise
            if param == "lambda0":
                raw = {"sweep_to": dv.gjs_value(np.asarray(self.p0), np.asarray(self.p1), self.alpha), **raw}
            self.sweep = {
                "parameter": param,
                "from": float(raw["sweep_from"]),
                "to": float(raw["sweep_to"]),
                "points": int(raw.get("sweep_points", "50")),
                "scale": raw.get("sweep_scale", "linear"),
            }
            if self.sweep["points"] < 2:
                raise ValueError("sweep_points must be >= 2")
            if self.sweep["scale"] not in ("linear", "log"):
                raise ValueError("sweep_scale must be linear or log")
            for end in ("from", "to"):
                self.instance(**{param: self.sweep[end]})
        if isinstance(self.lam, ex.ConstantLambda):
            for key in ("solver_coarse_m", "solver_refine_rounds"):
                if key in raw:
                    raise ValueError(f"{key} does nothing under a constant budget, which searches no grid")
        coarse = raw.get("solver_coarse_m")
        self.solver = SearchConfig(
            coarse_m=int(coarse) if coarse is not None else None,
            refine_rounds=int(raw.get("solver_refine_rounds", "3")),
        )
        if isinstance(self.lam, ex.ScaledRenyiLambda):
            check_pair_grid(len(self.p0), self.solver.resolve_m(len(self.p0)))
        self.sim_setups = tuple(SetupKind(s.strip()) for s in raw.get("sim_setups", "fullyseq").split(","))
        self.sim_n_grid = tuple(int(x) for x in raw.get("sim_n_grid", "20,40,60").split(","))
        self.sim_trials = int(raw.get("sim_trials", "10000"))
        self.sim_seed = int(raw.get("sim_seed", "0"))
        if not 0 <= self.sim_seed < 2**63:
            raise ValueError(f"sim_seed must lie in [0, 2**63), got {self.sim_seed}")
        cap = raw.get("sim_late_cap")
        self.sim_late_cap = int(cap) if cap is not None else None
        if self.sim_trials < 1:
            raise ValueError("sim_trials must be >= 1")
        if self.sim_late_cap is not None and self.sim_late_cap < 1:
            raise ValueError("sim_late_cap must be >= 1")
        log_x = raw.get("svg_log_x", "false").lower()
        if log_x not in ("1", "true", "yes", "0", "false", "no"):
            raise ValueError(f"svg_log_x must be true or false, got {raw['svg_log_x']!r}")
        self.svg_log_x = log_x in ("1", "true", "yes")
        for setup in self.sim_setups:
            model = make_model(setup, inst)
            for n in self.sim_n_grid:
                stream_sizes(model, n, self.sim_late_cap)

    def instance(self, beta=None, **budget):
        """The problem instance, with beta or fields of the budget (lambda0,
        or xi and offset) overridden; a field the budget family lacks is a
        ValueError."""
        extra = set(budget) - {f.name for f in dataclasses.fields(self.lam)}
        if extra:
            raise ValueError(f"{', '.join(sorted(extra))} does not fit a {type(self.lam).__name__} budget")
        lam = dataclasses.replace(self.lam, **budget)
        beta = self.beta if beta is None else beta
        return ex.ProblemInstance(self.p0, self.p1, self.alpha, beta, lam, eps=self.epsilon)

    def sweep_values(self):
        s = self.sweep
        if s["scale"] == "log":
            return np.geomspace(s["from"], s["to"], s["points"])
        return np.linspace(s["from"], s["to"], s["points"])


def atomic_write(path, data):
    """Write text to path via a temp file + rename in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as e:
        raise IOError(f"cannot write {path}: {e}")


def fmt_value(v):
    """Serialize a float for CSV/JSON: round-trippable repr, 'inf' token."""
    if isinstance(v, float) and math.isinf(v):
        return "inf"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def report_to_json(rep, cfg):
    payload = {k: ("inf" if math.isinf(v) else v) for k, v in rep.as_dict().items()}
    if isinstance(cfg.lam, ex.ScaledRenyiLambda):  # a constant budget searches no grid
        payload["solver"] = {
            "coarse_m": cfg.solver.resolve_m(len(cfg.p0)),
            "refine_rounds": cfg.solver.refine_rounds,
            "refine_factor": REFINE_FACTOR,
        }
    if rep.kappa_note:
        payload["kappa_note"] = rep.kappa_note
    return json.dumps(payload, indent=2, sort_keys=True)


def cmd_exponents(cfg, out=None):
    out = sys.stdout if out is None else out
    rep = ex.report(cfg.instance(), cfg.solver)
    out.write(report_to_json(rep, cfg) + "\n")
    return EXIT_OK


def curve_rows(cfg):
    rows = []
    for v in cfg.sweep_values():
        inst = cfg.instance(**{cfg.sweep["parameter"]: float(v)})
        rep = ex.report(inst, cfg.solver)
        d = rep.as_dict()
        rows.append([float(v)] + [float(d[c]) for c in CURVE_COLUMNS[1:]])
    return rows


def rows_to_csv(rows, header=CURVE_COLUMNS):
    """CSV text: the header line, then one line of fmt_value per row."""
    return "".join(",".join(map(fmt_value, line)) + "\n" for line in (header, *rows))


def cmd_curve(cfg, outdir):
    if cfg.sweep is None:
        raise ConfigError("curve requires a sweep")
    rows = curve_rows(cfg)
    atomic_write(os.path.join(outdir, "curve.csv"), rows_to_csv(rows))
    atomic_write(
        os.path.join(outdir, "curve.svg"),
        curve_svg(rows, x_label=cfg.sweep["parameter"], log_x=cfg.svg_log_x),
    )
    return EXIT_OK


def curve_svg(rows, x_label="sweep", log_x=False):
    """Hand-rolled 800x600 SVG line chart: one polyline per exponent column."""
    width, height = 800, 600
    ml, mr, mt, mb = 70, 150, 30, 50
    pw, ph = width - ml - mr, height - mt - mb
    xs = [r[0] for r in rows]
    if log_x:
        xs = [math.log10(x) for x in xs]
    finite = [v for r in rows for v in r[1:] if not math.isinf(v)]
    ymax = max(finite) if finite else 1.0
    ymin = 0.0
    xspan = (max(xs) - min(xs)) or 1.0
    yspan = (ymax - ymin) or 1.0

    def px(x):
        return ml + pw * (x - min(xs)) / xspan

    def py(y):
        return mt + ph * (1 - (y - ymin) / yspan)

    colors = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<text x="{ml + pw / 2}" y="{height - 12}" text-anchor="middle" font-size="14">'
        f"{x_label}{' (log10)' if log_x else ''}</text>",
        f'<text x="18" y="{mt + ph / 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {mt + ph / 2})">exponent (bits)</text>',
    ]
    for ci, name in enumerate(CURVE_COLUMNS[1:]):
        color = colors[ci % len(colors)]
        pts = [
            f"{px(x):.2f},{py(r[ci + 1]):.2f}"
            for x, r in zip(xs, rows)
            if not math.isinf(r[ci + 1])
        ]
        if pts:
            parts.append(
                f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" stroke-width="2"/>'
            )
        ly = mt + 18 * (ci + 1)
        parts.append(f'<rect x="{ml + pw + 12}" y="{ly - 9}" width="12" height="3" fill="{color}"/>')
        parts.append(f'<text x="{ml + pw + 30}" y="{ly - 4}" font-size="12">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_simulate(cfg, outdir):
    inst = cfg.instance()
    rows = []
    reports = {}
    for setup in cfg.sim_setups:
        for theta in (0, 1):
            for n in cfg.sim_n_grid:
                r = mc.run_trials(
                    setup, inst, theta, n, cfg.sim_trials, cfg.sim_seed,
                    late_cap=cfg.sim_late_cap,
                )
                reports.setdefault((setup, theta), []).append(r)
                rows.append([setup.value, n, theta, r.trials, r.errors, r.mean_tau, r.ci95_tau,
                             str(r.capped).lower()])
    atomic_write(os.path.join(outdir, "trials.csv"), rows_to_csv(rows, TRIAL_COLUMNS))
    summary = {"fits": {}, "floor_failures": []}
    for (setup, theta), reps in reports.items():
        key = f"{setup.value}/theta{theta}"
        try:
            fit = mc.estimate_exponent(reps, theta)
            summary["fits"][key] = {
                "slope": fit.slope,
                "intercept": fit.intercept,
                "r2": fit.r2,
                "n_grid": list(fit.n_grid),
            }
        except mc.RareEventFloorError as e:
            summary["floor_failures"].append({"series": key, "reason": str(e)})
    atomic_write(
        os.path.join(outdir, "summary.json"), json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    if summary["floor_failures"] and not summary["fits"]:
        return EXIT_STAT_FLOOR
    return EXIT_OK


#: tolerance of each verification check that measures a gap
VERIFY_TOL = {"divergence-closed-form-vs-grid": 1e-4, "bht-tradeoff-vs-grid": 1e-3,
              "ordering-chain-and-constant-lambda": 1e-3}


def closed_form_gap(pairs):
    """Worst gap between the closed forms of the Renyi term and GJS and
    their minima over a 10,000-point grid of the binary simplex, over the
    binary pairs (P, Q) at the weights 0.38, 0.7, 1 and 2."""
    pg = grid_array(2, 10_000)
    gaps = []
    for P, Q in pairs:
        for a in (0.38, 0.7, 1.0, 2.0):
            ren, _ = dv.renyi_frac(P, Q, a)
            grid_ren = float((a * dv.kl(pg, P) + dv.kl(pg, Q)).min())
            grid_g = float((a * dv.kl(P, pg) + dv.kl(Q, pg)).min())
            gaps += [abs(ren - grid_ren), abs(dv.gjs_value(P, Q, a) - grid_g)]
    return float(np.max(gaps, initial=0.0))


def tradeoff_gap(pairs, fracs):
    """Worst gap between bht_tradeoff(P0, P1, e0) and the least KL(V||P1)
    over the points V of a 10,000-point grid with KL(V||P0) <= e0, over the
    binary pairs (P0, P1) and e0 = frac * KL(P1||P0) for each frac."""
    pg = grid_array(2, 10_000)
    gaps = []
    for P0, P1 in pairs:
        d0 = dv.kl(pg, P0)
        d1 = dv.kl(pg, P1)
        top = dv.kl(P1, P0)
        for frac in fracs:
            e0 = frac * top
            gaps.append(abs(dv.bht_tradeoff(P0, P1, float(e0)) - float(d1[d0 <= e0].min())))
    return float(np.max(gaps, initial=0.0))


def sampler_mismatches(seed, trials, sizes):
    """Keys and uniform rows where the simulator's sampler and numpy's own
    generators differ, as (keys, rows) counts: stream_keys(seed, trial,
    block) against SeedSequence(seed, spawn_key=(trial, block)) for a seed
    in [0, 2**63), and philox_uniforms on those keys against
    Generator(Philox(key)).random, sizes[block] values per block."""
    keys = stream_keys(seed, np.asarray(trials)[:, None], np.arange(len(sizes)))
    uniforms = philox_uniforms(keys, sizes)
    bad_keys = bad_rows = 0
    for r, t in enumerate(trials):
        for b, k in enumerate(sizes):
            want = np.random.SeedSequence(seed, spawn_key=(t, b)).generate_state(1, np.uint64)[0]
            bad_keys += int(keys[r, b] != want)
            bad_rows += int((uniforms[b][r] != np.random.Generator(np.random.Philox(key=want)).random(k)).any())
    return bad_keys, bad_rows


def _binary(p):
    return np.array([p, 1 - p])


def _verify_checks(level):
    """Yield (name, ok, detail) for each verification check."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(20240917)))

    # divergence closed forms vs dense grid minimization
    tol = VERIFY_TOL["divergence-closed-form-vs-grid"]
    pairs = [(_binary(0.01 + 0.98 * rng.random()), _binary(0.01 + 0.98 * rng.random())) for _ in range(10)]
    worst = closed_form_gap(pairs)
    yield "divergence-closed-form-vs-grid", worst <= tol, f"worst gap {worst:.2e} vs tol {tol:g}"

    # binary trade-off solver vs feasible-grid oracle
    tol = VERIFY_TOL["bht-tradeoff-vs-grid"]
    draws = [(0.05 + 0.9 * rng.random(), 0.05 + 0.9 * rng.random()) for _ in range(5)]
    pairs = [(_binary(p), _binary(q)) for p, q in draws if abs(p - q) >= 0.1]
    worst = tradeoff_gap(pairs, np.linspace(0.1, 0.9, 3))
    yield "bht-tradeoff-vs-grid", worst <= tol, f"worst gap {worst:.2e} vs tol {tol:g}"

    # the sampler against numpy's SeedSequence and Philox, which it
    # reproduces: a numpy release that changed either would move every
    # simulated count
    trials, sizes = [0, 1, 2**32 + 5], [1, 6, 13]
    bad_keys, bad_rows = sampler_mismatches(20240917, trials, sizes)
    yield "sampler-matches-numpy", bad_keys == bad_rows == 0, (
        f"{bad_keys} of {len(trials) * len(sizes)} keys and {bad_rows} uniform rows differ"
    )

    if level != "full":
        return

    # ordering chain + constant-lambda propositions on random instances
    tol = VERIFY_TOL["ordering-chain-and-constant-lambda"]
    ok = True
    detail = "all instances ordered"
    for i in range(5):
        p = 0.05 + 0.9 * rng.random()
        q = 0.05 + 0.9 * rng.random()
        if abs(p - q) < 0.15:
            continue
        P0 = (p, 1 - p)
        P1 = (q, 1 - q)
        gv = dv.gjs_value(np.asarray(P0), np.asarray(P1), 1.0)
        inst = ex.ProblemInstance(P0, P1, 1.0, 1.0, ex.ConstantLambda(0.5 * gv))
        rep = ex.report(inst)
        if not (
            rep.e_fix <= rep.e_semi1 + tol
            and rep.e_fix <= rep.e_semi2 + tol
            and rep.e_semi1 <= rep.e_seq + tol
            and rep.e_semi2 <= rep.e_seq + tol
            and rep.kappa <= rep.mu + 1e-6
            and abs(rep.e_semi1 - rep.e_seq) <= 1e-3
        ):
            ok = False
            detail = f"instance {i}: ordering/Prop-5 violated: {rep}"
            break
    yield "ordering-chain-and-constant-lambda", ok, detail

    # kappa infinity certificate under the pure scaled-Renyi constraint
    inst = ex.ProblemInstance((0.6, 0.4), (0.1, 0.9), 0.7, 0.7, ex.ScaledRenyiLambda(0.5, 0.0))
    rep = ex.report(inst)
    ok = math.isinf(rep.kappa) and rep.e_seq == rep.renyi_term
    yield "kappa-infinite-certificate", ok, f"kappa={rep.kappa}, e_seq={rep.e_seq}"

    # small simulation: stopping-time support and expected stopping time
    inst = ex.ProblemInstance((0.8, 0.2), (0.2, 0.8), 1.0, 1.0, ex.ConstantLambda(0.05))
    r = mc.run_trials(SetupKind.FullySeq, inst, 0, 30, 500, seed=7)
    support_ok = set(r.tau_hist) <= {29, 900}
    tau_ok = r.mean_tau <= 30 + r.ci95_tau
    yield "simulation-stopping-time", support_ok and tau_ok, (
        f"support {sorted(r.tau_hist)}, mean_tau {r.mean_tau:.2f}"
    )


def cmd_verify(level, out=None):
    out = sys.stdout if out is None else out
    failures = 0
    for name, ok, detail in _verify_checks(level):
        out.write(f"{'PASS' if ok else 'FAIL'} {name}: {detail}\n")
        if not ok:
            failures += 1
    out.write(f"{'OK' if failures == 0 else 'FAILED'} ({level} level)\n")
    return EXIT_OK if failures == 0 else EXIT_INVARIANT


def build_parser():
    p = argparse.ArgumentParser(prog="seqclass", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("exponents", "curve", "simulate"):
        sp = sub.add_parser(name)
        sp.add_argument("--config")
        sp.add_argument("--preset", choices=sorted(PRESETS))
        if name != "exponents":
            sp.add_argument("--out", required=True)
    sv = sub.add_parser("verify")
    sv.add_argument("--level", choices=("quick", "full"), default="quick")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.level)
        cfg = load_config(args.config, args.preset)
        if args.command == "exponents":
            return cmd_exponents(cfg)
        if args.command == "curve":
            return cmd_curve(cfg, args.out)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except IOError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO
    except mc.RareEventFloorError as e:
        print(f"statistical floor: {e}", file=sys.stderr)
        return EXIT_STAT_FLOOR
    except ValueError as e:
        print(f"invariant breach: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

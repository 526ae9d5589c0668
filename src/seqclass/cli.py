"""Command-line surface: exponent reports, figure curves, simulation runs
and the verification suite.

Config files are flat ``key = value`` text with explicit schema versioning
(``schema = 1``); unknown keys are errors.  See CONFIG_KEYS for the full
key list.  Outputs (CSV/JSON/SVG) are written atomically.
"""

import argparse
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
from .simplex import grid_array
from .testbench import SetupKind, make_model, stream_sizes

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_STAT_FLOOR = 4
EXIT_INVARIANT = 5

CURVE_COLUMNS = (
    "sweep_value",
    "renyi_term",
    "kappa",
    "mu",
    "nu",
    "e_fix",
    "e_seq",
    "e_semi1",
    "e_semi2",
)

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


# Shared source pair for the three bundled figure presets.
_FIG_P0 = "0.6,0.4"
_FIG_P1 = "0.1,0.9"

PRESETS = {
    "fig1": {
        "schema": "1",
        "p0": _FIG_P0,
        "p1": _FIG_P1,
        "alpha": "0.38",
        "beta": "0.6",
        "epsilon": "0.01",
        "lambda_family": "scaled_renyi",
        "xi": "0.5",
        "offset": "0.003",
        "sweep_parameter": "xi",
        "sweep_from": "0.001",
        "sweep_to": "1.0",
        "sweep_points": "50",
        "sweep_scale": "linear",
    },
    "fig2": {
        "schema": "1",
        "p0": _FIG_P0,
        "p1": _FIG_P1,
        "alpha": "2",
        "beta": "1",
        "epsilon": "0.01",
        "lambda_family": "constant",
        "lambda0": "0.05",
        "sweep_parameter": "lambda0",
        "sweep_from": "0.001",
        # sweep_to filled at load time with GJS(P0||P1, alpha)
        "sweep_points": "50",
        "sweep_scale": "linear",
    },
    "fig3": {
        "schema": "1",
        "p0": _FIG_P0,
        "p1": _FIG_P1,
        "alpha": "0.7",
        "beta": "0.7",
        "epsilon": "0.01",
        "lambda_family": "scaled_renyi",
        "xi": "0.5",
        "offset": "0",
        "sweep_parameter": "xi",
        "sweep_from": "0.001",
        "sweep_to": "0.999",
        "sweep_points": "50",
        "sweep_scale": "linear",
    },
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
    return RunConfig(raw, preset=preset)


def _floats(s):
    return tuple(float(x) for x in s.split(","))


class RunConfig:
    """Validated run configuration (instance + sweep + solver + sim)."""

    def __init__(self, raw, preset=None):
        try:
            self.p0 = _floats(raw["p0"])
            self.p1 = _floats(raw["p1"])
            self.alpha = float(raw["alpha"])
            self.beta = float(raw["beta"])
            self.epsilon = float(raw.get("epsilon", "0.01"))
        except KeyError as e:
            raise ConfigError(f"missing key {e.args[0]!r}")
        except ValueError as e:
            raise ConfigError(str(e))
        fam = raw.get("lambda_family", "constant")
        if fam == "constant":
            try:
                self.lam = ex.ConstantLambda(float(raw.get("lambda0", "0")))
            except ValueError as e:
                raise ConfigError(f"bad constant lambda: {e}")
        elif fam == "scaled_renyi":
            try:
                self.lam = ex.ScaledRenyiLambda(
                    float(raw.get("xi", "1")), float(raw.get("offset", "0"))
                )
            except ValueError as e:
                raise ConfigError(f"bad scaled_renyi lambda: {e}")
        else:
            raise ConfigError(f"unknown lambda_family {fam!r}")
        try:
            inst = self.instance()  # validate eagerly
        except ValueError as e:
            raise ConfigError(str(e))
        self.sweep = None
        if "sweep_parameter" in raw:
            param = raw["sweep_parameter"]
            if param not in ("lambda0", "xi", "beta"):
                raise ConfigError(f"unsupported sweep_parameter {param!r}")
            to = raw.get("sweep_to")
            if to is None and preset == "fig2":
                to = repr(dv.gjs_value(np.asarray(self.p0), np.asarray(self.p1), self.alpha))
            if to is None:
                raise ConfigError("sweep_to missing")
            try:
                self.sweep = {
                    "parameter": param,
                    "from": float(raw["sweep_from"]),
                    "to": float(to),
                    "points": int(raw.get("sweep_points", "50")),
                    "scale": raw.get("sweep_scale", "linear"),
                }
            except (KeyError, ValueError) as e:
                raise ConfigError(f"bad sweep: {e}")
            if self.sweep["points"] < 2:
                raise ConfigError("sweep_points must be >= 2")
            if not all(0.0 < self.sweep[end] < math.inf for end in ("from", "to")):
                raise ConfigError("sweep range must be positive and finite")
            if self.sweep["scale"] not in ("linear", "log"):
                raise ConfigError("sweep_scale must be linear or log")
            if param == "lambda0" and fam != "constant":
                raise ConfigError("sweep_parameter lambda0 needs lambda_family constant")
            if param == "xi":
                if fam != "scaled_renyi":
                    raise ConfigError("sweep_parameter xi needs lambda_family scaled_renyi")
                if self.sweep["from"] > 1 or self.sweep["to"] > 1:
                    raise ConfigError("xi sweep must stay within (0, 1]")
        coarse = raw.get("solver_coarse_m")
        try:
            self.solver = SearchConfig(
                coarse_m=int(coarse) if coarse is not None else None,
                refine_rounds=int(raw.get("solver_refine_rounds", "3")),
            )
            check_pair_grid(len(self.p0), self.solver.resolve_m(len(self.p0)))
        except ValueError as e:
            raise ConfigError(f"bad solver settings: {e}")
        setups = raw.get("sim_setups", "fullyseq")
        try:
            self.sim_setups = tuple(SetupKind(s.strip()) for s in setups.split(","))
        except ValueError:
            raise ConfigError(f"bad sim_setups {setups!r}")
        try:
            self.sim_n_grid = tuple(int(x) for x in raw.get("sim_n_grid", "20,40,60").split(","))
            self.sim_trials = int(raw.get("sim_trials", "10000"))
            self.sim_seed = int(raw.get("sim_seed", "0"))
            cap = raw.get("sim_late_cap")
            self.sim_late_cap = int(cap) if cap is not None else None
        except ValueError as e:
            raise ConfigError(f"bad sim settings: {e}")
        if min(self.sim_n_grid) < 2:
            raise ConfigError("sim_n_grid entries must be >= 2")
        if self.sim_trials < 1:
            raise ConfigError("sim_trials must be >= 1")
        if self.sim_late_cap is not None and self.sim_late_cap < 1:
            raise ConfigError("sim_late_cap must be >= 1")
        self.svg_log_x = raw.get("svg_log_x", "false").lower() in ("1", "true", "yes")
        # every two-phase cell's streams must hold what its early phase reads
        for setup in self.sim_setups:
            if setup is SetupKind.FixedLength:
                continue
            model = make_model(setup, inst)
            for n in self.sim_n_grid:
                try:
                    stream_sizes(model, n, self.sim_late_cap)
                except ValueError as e:
                    raise ConfigError(f"sim_late_cap too small for {setup.value} at n = {n}: {e}")

    def instance(self, **overrides):
        lam = self.lam
        beta = overrides.get("beta", self.beta)
        if "lambda0" in overrides:
            lam = ex.ConstantLambda(overrides["lambda0"])
        if "xi" in overrides:
            lam = ex.ScaledRenyiLambda(overrides["xi"], self.lam.offset)
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
        rows.append([float(v)] + [d[c] for c in CURVE_COLUMNS[1:]])
    return rows


def rows_to_csv(rows):
    lines = [",".join(CURVE_COLUMNS)]
    for row in rows:
        lines.append(",".join(fmt_value(float(x)) for x in row))
    return "\n".join(lines) + "\n"


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
    try:
        # run_trials scores g1 with the default SearchConfig, not cfg.solver
        ex.check_g1_polish(inst)
    except ValueError as e:
        raise ConfigError(f"cannot simulate: {e}")
    header = "setup,n,theta,trials,errors,mean_tau,ci95_tau,capped"
    lines = [header]
    reports = {}
    for setup in cfg.sim_setups:
        for theta in (0, 1):
            for n in cfg.sim_n_grid:
                r = mc.run_trials(
                    setup, inst, theta, n, cfg.sim_trials, cfg.sim_seed,
                    late_cap=cfg.sim_late_cap,
                )
                reports.setdefault((setup, theta), []).append(r)
                lines.append(
                    ",".join(
                        [
                            setup.value,
                            str(n),
                            str(theta),
                            str(r.trials),
                            str(r.errors),
                            fmt_value(float(r.mean_tau)),
                            fmt_value(float(r.ci95_tau)),
                            str(r.capped).lower(),
                        ]
                    )
                )
    atomic_write(os.path.join(outdir, "trials.csv"), "\n".join(lines) + "\n")
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
        except ValueError as e:
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

"""Command-line entry point: reproducible simulate / fit / forecast /
evaluate / diagnose / irf / perturb runs with manifest provenance."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import io as nio
from .design import DesignRecipe
from .diagnostics import (
    default_threshold,
    detect_breaks,
    hop_coefficients,
    irf,
    stability_report,
)
from .evalharness import EvalPlan, rolling_eval
from .gaussmodel import GaussianSpec, ObsNoise, fit_gaussian, forecast_gaussian
from .graph import NonConvergenceError, perturb
from .lgss import SingularInnovationError, StateNoiseSpec, filter_run_to_dict
from .poissonmodel import (
    PoissonSpec,
    StabilizerConfig,
    ensemble_stats,
    fit_poisson,
    mc_forecast,
)
from .simulate import (
    CoeffPathSpec,
    GraphGen,
    gen_coeff_paths,
    gen_gaussian_panel,
    gen_graph,
    gen_poisson_panel,
)

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")


def _require(cfg: dict, key: str, typ=None):
    if key not in cfg:
        raise ConfigError(f"config missing required key {key!r}")
    val = cfg[key]
    if typ is not None and not isinstance(val, typ):
        raise ConfigError(f"config key {key!r} must be {typ}")
    return val


def _state_noise_from_config(cfg: dict, k: int) -> StateNoiseSpec:
    if "q1" in cfg:
        q0 = float(cfg.get("q0", 1e-4))
        q1 = float(cfg["q1"])
        d = float(cfg.get("d", 0.1))
        if q0 <= 0 or q1 <= q0 or d <= 0:
            raise ConfigError("threshold noise needs 0 < q0 < q1 and d > 0")
        return StateNoiseSpec.threshold(np.full(k, q0), np.full(k, q1),
                                        np.full(k, d))
    q0 = float(cfg.get("q0", 1e-4))
    if q0 <= 0:
        raise ConfigError("q0 must be positive")
    return StateNoiseSpec.constant(q0 * np.eye(k))


def _recipe_from_config(cfg: dict) -> DesignRecipe:
    p = int(cfg.get("p", 1))
    if p < 1:
        raise ConfigError("p must be a positive integer")
    return DesignRecipe(lag_order=p,
                        covariate_count=int(cfg.get("covariates", 0)))


def _model_spec(cfg: dict):
    model = _require(cfg, "model", str)
    recipe = _recipe_from_config(cfg)
    noise = _state_noise_from_config(cfg, recipe.n_cols)
    p0 = float(cfg.get("P0_scale", 10.0))
    m0 = None
    if cfg.get("m0_scale") is not None:
        m0 = float(cfg["m0_scale"]) * np.ones(recipe.n_cols)
    if model == "gaussian":
        sigma2 = float(cfg.get("sigma2", 1.0))
        if sigma2 <= 0:
            raise ConfigError("sigma2 must be positive")
        return GaussianSpec(recipe=recipe, state_noise=noise,
                            obs_noise=ObsNoise("scalar", sigma2),
                            m0=m0, p0_scale=p0)
    if model == "poisson":
        return PoissonSpec(recipe=recipe, state_noise=noise, m0=m0, p0_scale=p0)
    raise ConfigError(f"unknown model {cfg['model']!r}")


def _stabilizer(cfg: dict) -> StabilizerConfig:
    stab = cfg.get("stabilizer", {})
    if stab is False or (isinstance(stab, dict) and stab.get("enabled") is False):
        return StabilizerConfig.disabled()
    if not isinstance(stab, dict):
        raise ConfigError("stabilizer must be an object or false")
    return StabilizerConfig(phi=float(stab.get("phi", 0.98)),
                            eta_max=float(stab.get("eta_max", 12.0)),
                            lambda_max=float(stab.get("lambda_max", 1e5)))


def _cmd_simulate(args, cfg: dict, out: Path):
    gcfg = _require(cfg, "graph", dict)
    t_len = int(_require(cfg, "T"))
    gen = GraphGen(kind=_require(gcfg, "kind", str),
                   n_nodes=int(_require(gcfg, "n_nodes")),
                   seed=args.seed, params=gcfg.get("params", {}))
    w, adj = gen_graph(gen)
    ccfg = cfg.get("coeffs", {})
    k = 3
    spec = CoeffPathSpec(
        k=k,
        init=np.asarray(ccfg.get("init", [0.0, 0.3, 0.3]), dtype=float),
        rw_sd=np.asarray(ccfg.get("rw_sd", [0.0, 0.01, 0.01]), dtype=float),
        sparse_jumps=ccfg.get("sparse_jumps"),
        stability_multiplier=float(ccfg.get("c", 1.0)),
    )
    burn = int(cfg.get("burn_in", 0))
    paths, jumps = gen_coeff_paths(spec, t_len + burn, args.seed + 1)
    model = cfg.get("model", "gaussian")
    if model == "gaussian":
        panel = gen_gaussian_panel(w, paths, float(cfg.get("sigma2", 0.25)),
                                   t_len, args.seed + 2, burn_in=burn)
    elif model == "poisson":
        panel = gen_poisson_panel(w, paths, t_len, args.seed + 2, burn_in=burn)
    else:
        raise ConfigError(f"unknown model {model!r}")
    nio.write_panel_csv(out / "panel.csv", panel)
    nio.write_matrix_csv(out / "adjacency.csv", adj.entries)
    nio.write_matrix_csv(out / "weight.csv", w.entries)
    nio.write_matrix_csv(out / "paths.csv", paths[burn:],
                         header=["beta0", "beta1", "beta2"])
    nio.write_manifest(out, cfg, args.seed, inputs=[args.config],
                       extra={"jumps": jumps})
    return 0


def _fit_from_args(args, cfg):
    panel = nio.read_panel_csv(args.panel)
    w = nio.read_weight_csv(args.weight)
    spec = _model_spec(cfg)
    if cfg["model"] == "gaussian":
        run = fit_gaussian(panel, w, None, spec)
    else:
        run = fit_poisson(panel, w, spec)
    return run, spec, panel, w


def _cmd_fit(args, cfg: dict, out: Path):
    run, spec, panel, w = _fit_from_args(args, cfg)
    means = np.asarray([b.mean for b in run.beliefs_filtered])
    nio.write_matrix_csv(out / "filtered_means.csv", means,
                         header=list(spec.recipe.column_labels()))
    if args.dump_states:
        with open(out / "states.json", "w") as fh:
            json.dump(filter_run_to_dict(run), fh)
    nio.write_manifest(out, cfg, args.seed,
                       inputs=[args.config, args.panel, args.weight],
                       extra={"loglik": run.loglik})
    return 0


def _cmd_forecast(args, cfg: dict, out: Path):
    run, spec, panel, w = _fit_from_args(args, cfg)
    horizon = int(cfg.get("horizon", 8))
    if cfg["model"] == "gaussian":
        fcs = forecast_gaussian(run, spec, horizon)
        mat = np.asarray([fc.mean for fc in fcs])
        nio.write_matrix_csv(out / "forecast_means.csv", mat)
    else:
        stab = _stabilizer(cfg)
        n_draws = int(cfg.get("S", 300))
        ensembles = mc_forecast(run, spec, horizon, n_draws, stab, args.seed)
        mat = np.asarray([ensemble_stats(e)["mean"] for e in ensembles])
        nio.write_matrix_csv(out / "forecast_means.csv", mat)
        if args.dump_draws:
            np.savez(out / "draws.npz",
                     **{f"counts_h{e.horizon}": e.counts for e in ensembles})
    nio.write_manifest(out, cfg, args.seed,
                       inputs=[args.config, args.panel, args.weight])
    return 0


def _cmd_evaluate(args, cfg: dict, out: Path):
    run, spec, panel, w = _fit_from_args(args, cfg)
    horizons = tuple(cfg.get("horizons", [1, 2, 4, 8]))
    origins = cfg.get("origins")
    if origins is None:
        n_org = int(cfg.get("n_origins", 8))
        last = panel.shape[0] - 1 - max(horizons)
        first = max(spec.recipe.lag_order, last - n_org + 1)
        origins = list(range(first, last + 1))
    plan = EvalPlan(origins=tuple(origins), horizons=horizons,
                    t_len=panel.shape[0])

    if cfg["model"] == "gaussian":
        def fit_fn(p, wm):
            return fit_gaussian(p, wm, None, spec)

        def forecast_fn(sub, h_max):
            return [fc.mean for fc in forecast_gaussian(sub, spec, h_max)]
    else:
        stab = _stabilizer(cfg)
        n_draws = int(cfg.get("S", 300))

        def fit_fn(p, wm):
            return fit_poisson(p, wm, spec)

        def forecast_fn(sub, h_max):
            ens = mc_forecast(sub, spec, h_max, n_draws, stab, args.seed)
            return [e.counts.mean(axis=0) for e in ens]

    report = rolling_eval(fit_fn, forecast_fn, panel, w, plan)
    rows = []
    for i, t in enumerate(report.origins):
        for j, h in enumerate(report.horizons):
            for node in range(panel.shape[1]):
                rows.append([t, h, node, "abs_err", report.abs_err[i, j, node]])
                rows.append([t, h, node, "sq_err", report.sq_err[i, j, node]])
    with open(out / "report.csv", "w") as fh:
        fh.write("origin,horizon,node,metric,value\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    mae, mse = report.aggregate("mae"), report.aggregate("mse")
    print(f"{'horizon':>8} {'MAE':>12} {'MSE':>12}")
    for h in report.horizons:
        print(f"{h:>8} {mae[h]:>12.6f} {mse[h]:>12.6f}")
    nio.write_manifest(out, cfg, args.seed,
                       inputs=[args.config, args.panel, args.weight],
                       extra={"mae": mae, "mse": mse})
    return 0


def _cmd_diagnose(args, cfg: dict, out: Path):
    run, spec, panel, w = _fit_from_args(args, cfg)
    means = np.asarray([b.mean for b in run.beliefs_filtered])
    labels = spec.recipe.column_labels()
    i_net = labels.index("WY_lag_1")
    i_own = labels.index("Y_lag_1")
    rep = stability_report(means[:, i_net], means[:, i_own], w)
    table = np.column_stack([rep.op_norms, rep.spectral_radii,
                             rep.coefficient_proxy])
    nio.write_matrix_csv(out / "stability.csv", table,
                         header=["op_norm", "spectral_radius", "proxy"])
    d = default_threshold(means)
    breaks = detect_breaks(means, d)
    with open(out / "breaks.csv", "w") as fh:
        fh.write("coefficient,time\n")
        for j, times in enumerate(breaks.activations):
            for t in times:
                fh.write(f"{labels[j]},{t}\n")
    print(f"max op norm {rep.max_op_norm:.4f}, "
          f"max spectral radius {rep.max_spectral_radius:.4f}, "
          f"contraction={rep.contraction}")
    nio.write_manifest(out, cfg, args.seed,
                       inputs=[args.config, args.panel, args.weight])
    return 0


def _cmd_irf(args, cfg: dict, out: Path):
    w = nio.read_weight_csv(args.weight)
    h = int(_require(cfg, "horizon"))
    node = int(cfg.get("shock_node", 0))
    beta1 = float(_require(cfg, "beta1"))
    beta2 = float(_require(cfg, "beta2"))
    b1_path = np.full(h + 1, beta1)
    b2_path = np.full(h + 1, beta2)
    decomp = hop_coefficients(b1_path, b2_path, 0, h)
    total, contribs = irf(w, decomp, node)
    nio.write_matrix_csv(out / "irf_total.csv", total[None, :])
    nio.write_matrix_csv(out / "irf_contributions.csv", contribs)
    nio.write_manifest(out, cfg, args.seed, inputs=[args.config, args.weight])
    return 0


def _cmd_perturb(args, cfg: dict, out: Path):
    w = nio.read_weight_csv(args.weight)
    kind = _require(cfg, "kind", str)
    kwargs = {k: cfg[k] for k in ("frac", "alpha", "iters") if k in cfg}
    w_pert = perturb(w, kind, rng_seed=args.seed, **kwargs)
    nio.write_matrix_csv(out / "weight_perturbed.csv", w_pert.entries)
    nio.write_manifest(out, cfg, args.seed, inputs=[args.config, args.weight])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nssm",
        description="Network state-space models: simulate, fit, forecast, "
                    "evaluate, diagnose.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_data=False):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0)
        if needs_data:
            p.add_argument("--panel", required=True, help="panel CSV path")
            p.add_argument("--weight", required=True, help="weight-matrix CSV")

    common(sub.add_parser("simulate", help="generate synthetic data"))
    p_fit = sub.add_parser("fit", help="filter a model over a panel")
    common(p_fit, needs_data=True)
    p_fit.add_argument("--dump-states", action="store_true")
    p_fc = sub.add_parser("forecast", help="multi-step forecasts")
    common(p_fc, needs_data=True)
    p_fc.add_argument("--dump-draws", action="store_true")
    common(sub.add_parser("evaluate", help="rolling-origin evaluation"),
           needs_data=True)
    common(sub.add_parser("diagnose", help="stability and break diagnostics"),
           needs_data=True)
    p_irf = sub.add_parser("irf", help="hop-decomposed impulse responses")
    p_irf.add_argument("--config", required=True)
    p_irf.add_argument("--out", required=True)
    p_irf.add_argument("--seed", type=int, default=0)
    p_irf.add_argument("--weight", required=True)
    p_pert = sub.add_parser("perturb", help="controlled network perturbation")
    p_pert.add_argument("--config", required=True)
    p_pert.add_argument("--out", required=True)
    p_pert.add_argument("--seed", type=int, default=0)
    p_pert.add_argument("--weight", required=True)
    return parser


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "forecast": _cmd_forecast,
    "evaluate": _cmd_evaluate,
    "diagnose": _cmd_diagnose,
    "irf": _cmd_irf,
    "perturb": _cmd_perturb,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](args, cfg, out)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}),
              file=sys.stderr)
        return EXIT_CONFIG
    except (SingularInnovationError, NonConvergenceError,
            np.linalg.LinAlgError) as exc:
        print(json.dumps({"error": "numerical", "message": str(exc)}),
              file=sys.stderr)
        return EXIT_NUMERICAL
    except (FileNotFoundError, ValueError) as exc:
        print(json.dumps({"error": "config", "message": str(exc)}),
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

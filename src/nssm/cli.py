"""Command-line entry point: reproducible simulate / fit / forecast /
evaluate / diagnose / irf / perturb runs with manifest provenance."""

from __future__ import annotations

if __name__ == "__main__":  # python -m nssm.cli; before numpy loads
    from .console import one_blas_thread
    one_blas_thread()

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import io as nio
from .design import DesignRecipe
from .diagnostics import (
    companion_radius,
    default_threshold,
    detect_breaks,
    hop_coefficients,
    irf,
    stability_report,
)
from .evalharness import EvalPlan, rolling_eval
from .gaussmodel import GaussianSpec, ObsNoise, fit_gaussian, forecast_gaussian
from .graph import perturb
from .lgss import StateNoiseSpec, filter_run_to_dict
from .poissonmodel import (
    PoissonSpec,
    StabilizerConfig,
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


_REQUIRED = object()


def _value(cfg: dict, key: str, cast, default=_REQUIRED):
    """``cast`` of cfg[key], or of ``default`` when the key is absent (the
    key is required when there is no default). A value that ``cast``
    cannot take, such as a list where a number belongs, is a ConfigError."""
    val = _require(cfg, key) if default is _REQUIRED else cfg.get(key, default)
    try:
        return cast(val)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config key {key!r} cannot be read as "
                          f"{cast.__name__}: {val!r}") from exc


def float_array(val) -> np.ndarray:
    return np.asarray(val, dtype=float)


def integer(val) -> int:
    """An int as JSON gives it: 20.7 is rejected, not truncated, and so is
    a bool, which Python counts an int."""
    if type(val) is not int:
        raise TypeError("not an integer; a decimal number or bool is not one")
    return val


def int_list(val) -> list:
    if not isinstance(val, list):
        raise TypeError("not a list")
    return [integer(v) for v in val]


def _state_noise_from_config(cfg: dict, k: int) -> StateNoiseSpec:
    if "q1" in cfg:
        q0 = _value(cfg, "q0", float, 1e-4)
        q1 = _value(cfg, "q1", float)
        d = _value(cfg, "d", float, 0.1)
        if q0 <= 0 or q1 <= q0 or d <= 0:
            raise ConfigError("threshold noise needs 0 < q0 < q1 and d > 0")
        return StateNoiseSpec.threshold(np.full(k, q0), np.full(k, q1),
                                        np.full(k, d))
    q0 = _value(cfg, "q0", float, 1e-4)
    if q0 <= 0:
        raise ConfigError("q0 must be positive")
    return StateNoiseSpec.constant(q0 * np.eye(k))


def _recipe_from_config(cfg: dict) -> DesignRecipe:
    p = _value(cfg, "p", integer, 1)
    if p < 1:
        raise ConfigError("p must be a positive integer")
    if _value(cfg, "covariates", integer, 0) != 0:
        raise ConfigError("config key 'covariates' must be 0: the CLI reads "
                          "no covariate input")
    return DesignRecipe(lag_order=p)


def _model_spec(cfg: dict):
    model = _require(cfg, "model", str)
    recipe = _recipe_from_config(cfg)
    noise = _state_noise_from_config(cfg, recipe.n_cols)
    # A key the config leaves out takes the spec's own default.
    p0 = {"p0_scale": _value(cfg, "P0_scale", float)} if "P0_scale" in cfg else {}
    m0 = None
    if cfg.get("m0_scale") is not None:
        m0 = _value(cfg, "m0_scale", float) * np.ones(recipe.n_cols)
    if model == "gaussian":
        sigma2 = _value(cfg, "sigma2", float, 1.0)
        if sigma2 <= 0:
            raise ConfigError("sigma2 must be positive")
        return GaussianSpec(recipe=recipe, state_noise=noise,
                            obs_noise=ObsNoise("scalar", sigma2), m0=m0, **p0)
    if model == "poisson":
        return PoissonSpec(recipe=recipe, state_noise=noise, m0=m0, **p0)
    raise ConfigError(f"unknown model {cfg['model']!r}")


def _stabilizer(cfg: dict) -> StabilizerConfig:
    stab = cfg.get("stabilizer", {})
    if stab is False or (isinstance(stab, dict) and stab.get("enabled") is False):
        return StabilizerConfig.disabled()
    if not isinstance(stab, dict):
        raise ConfigError("stabilizer must be an object or false")
    return StabilizerConfig(**{k: _value(stab, k, float) for k in
                               ("phi", "eta_max", "lambda_max") if k in stab})


def _cmd_simulate(args, cfg: dict, out: Path):
    gcfg = _require(cfg, "graph", dict)
    t_len = _value(cfg, "T", integer)
    gen = GraphGen(kind=_require(gcfg, "kind", str),
                   n_nodes=_value(gcfg, "n_nodes", integer),
                   seed=args.seed, params=gcfg.get("params", {}))
    w, adj = gen_graph(gen)
    ccfg = _value(cfg, "coeffs", dict, {})
    k = 3
    spec = CoeffPathSpec(
        k=k,
        init=_value(ccfg, "init", float_array, [0.0, 0.3, 0.3]),
        rw_sd=_value(ccfg, "rw_sd", float_array, [0.0, 0.01, 0.01]),
        sparse_jumps=ccfg.get("sparse_jumps"),
        stability_multiplier=_value(ccfg, "c", float, 1.0),
    )
    burn = _value(cfg, "burn_in", integer, 0)
    paths, jumps = gen_coeff_paths(spec, t_len + burn, args.seed + 1)
    model = cfg.get("model", "gaussian")
    if model == "gaussian":
        sigma2 = _value(cfg, "sigma2", float, 0.25)
        panel = gen_gaussian_panel(w, paths, sigma2, t_len, args.seed + 2,
                                   burn_in=burn)
    elif model == "poisson":
        panel = gen_poisson_panel(w, paths, t_len, args.seed + 2, burn_in=burn)
    else:
        raise ConfigError(f"unknown model {model!r}")
    nio.write_panel_csv(out / "panel.csv", panel)
    nio.write_matrix_csv(out / "adjacency.csv", adj.entries)
    nio.write_matrix_csv(out / "weight.csv", w.entries)
    nio.write_matrix_csv(out / "paths.csv", paths[burn:],
                         header=["beta0", "beta1", "beta2"])
    return {"jumps": jumps}


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
    nio.write_matrix_csv(out / "filtered_means.csv", run.means,
                         header=list(spec.recipe.column_labels()))
    if args.dump_states:
        with open(out / "states.json", "w") as fh:
            # json.dumps takes the C encoder in one pass; json.dump never does.
            fh.write(json.dumps(filter_run_to_dict(run)))
    return {"loglik": run.loglik}


def _forecaster(cfg: dict, spec, seed: int):
    """The model's ``forecast(run, h_max) -> (means, ensembles)``: the
    per-horizon means, and the Poisson count ensembles (None for the
    Gaussian model, whose means are closed-form)."""
    if cfg["model"] == "gaussian":
        return lambda run, h_max: (
            [fc.mean for fc in forecast_gaussian(run, spec, h_max)], None)
    stab = _stabilizer(cfg)
    n_draws = _value(cfg, "S", integer, 300)

    def forecast(run, h_max):
        ensembles = mc_forecast(run, spec, h_max, n_draws, stab, seed)
        return [e.counts.mean(axis=0) for e in ensembles], ensembles
    return forecast


def _cmd_forecast(args, cfg: dict, out: Path):
    run, spec, panel, w = _fit_from_args(args, cfg)
    horizon = _value(cfg, "horizon", integer, 8)
    means, ensembles = _forecaster(cfg, spec, args.seed)(run, horizon)
    if args.dump_draws and ensembles is not None:
        np.savez(out / "draws.npz",
                 **{f"counts_h{e.horizon}": e.counts for e in ensembles})
    nio.write_matrix_csv(out / "forecast_means.csv", np.asarray(means))


def _cmd_evaluate(args, cfg: dict, out: Path):
    run, spec, panel, w = _fit_from_args(args, cfg)
    horizons = _value(cfg, "horizons", int_list, [1, 2, 4, 8])
    if cfg.get("origins") is not None:
        origins = _value(cfg, "origins", int_list)
    else:
        n_org = _value(cfg, "n_origins", integer, 8)
        last = panel.shape[0] - 1 - max(horizons, default=0)  # EvalPlan rejects []
        first = max(spec.recipe.lag_order, last - n_org + 1)
        origins = list(range(first, last + 1))
    plan = EvalPlan(origins=tuple(origins), horizons=horizons,
                    t_len=panel.shape[0])

    forecast = _forecaster(cfg, spec, args.seed)
    # The pass over the whole panel is the one already fitted above.
    report = rolling_eval(lambda *_: run, lambda sub, h: forecast(sub, h)[0],
                          panel, w, plan)
    abs_err, sq_err = report.abs_err.tolist(), report.sq_err.tolist()
    with open(out / "report.csv", "w") as fh:
        fh.write("origin,horizon,node,metric,value\n")
        # repr of a Python float is numpy's str of the same float64.
        fh.writelines(
            f"{t},{h},{node},abs_err,{a!r}\n{t},{h},{node},sq_err,{s!r}\n"
            for t, abs_t, sq_t in zip(report.origins, abs_err, sq_err)
            for h, abs_h, sq_h in zip(report.horizons, abs_t, sq_t)
            for node, (a, s) in enumerate(zip(abs_h, sq_h)))
    mae, mse = report.aggregate("mae"), report.aggregate("mse")
    print(f"{'horizon':>8} {'MAE':>12} {'MSE':>12}")
    for h in report.horizons:
        print(f"{h:>8} {mae[h]:>12.6f} {mse[h]:>12.6f}")
    return {"mae": mae, "mse": mse}


def _cmd_diagnose(args, cfg: dict, out: Path):
    run, spec, panel, w = _fit_from_args(args, cfg)
    means = run.means
    labels = spec.recipe.column_labels()
    lag_columns = spec.recipe.lag_columns()
    # B_1's columns: W Y_{t-1} (power 1) and the own lag Y_{t-1} (power 0).
    lag1 = {r: j for j, r in lag_columns[0]}
    rep = stability_report(means[:, lag1[1]], means[:, lag1[0]], w)
    verdict = f"contraction={rep.contraction}"
    if len(lag_columns) > 1:  # B_1 alone does not decide a VAR(p)
        rho = companion_radius(means, lag_columns, w)
        verdict = (f"max companion spectral radius {rho:.4f}, "
                   f"contraction={rho < 1.0}")
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
          f"max spectral radius {rep.max_spectral_radius:.4f}, {verdict}")


def _cmd_irf(args, cfg: dict, out: Path):
    w = nio.read_weight_csv(args.weight)
    h = _value(cfg, "horizon", integer)
    node = _value(cfg, "shock_node", integer, 0)
    beta1 = _value(cfg, "beta1", float)
    beta2 = _value(cfg, "beta2", float)
    b1_path = np.full(h + 1, beta1)
    b2_path = np.full(h + 1, beta2)
    decomp = hop_coefficients(b1_path, b2_path, 0, h)
    total, contribs = irf(w, decomp, node)
    nio.write_matrix_csv(out / "irf_total.csv", total[None, :])
    nio.write_matrix_csv(out / "irf_contributions.csv", contribs)


def _cmd_perturb(args, cfg: dict, out: Path):
    w = nio.read_weight_csv(args.weight)
    kind = _require(cfg, "kind", str)
    kwargs = {k: _value(cfg, k, cast) for k, cast in
              (("frac", float), ("alpha", float), ("iters", integer)) if k in cfg}
    w_pert = perturb(w, kind, rng_seed=args.seed, **kwargs)
    nio.write_matrix_csv(out / "weight_perturbed.csv", w_pert.entries)


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
    for name, text in (("irf", "hop-decomposed impulse responses"),
                       ("perturb", "controlled network perturbation")):
        p = sub.add_parser(name, help=text)
        common(p)
        p.add_argument("--weight", required=True, help="weight-matrix CSV")
    return parser


# Each command returns its extra manifest fields, or None.
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
        extra = _COMMANDS[args.command](args, cfg, out)
        inputs = [args.config] + [getattr(args, name) for name in
                                  ("panel", "weight") if hasattr(args, name)]
        nio.write_manifest(out, cfg, args.seed, inputs=inputs, extra=extra)
        return 0
    except np.linalg.LinAlgError as exc:  # its nssm subclasses too
        print(json.dumps({"error": "numerical", "message": str(exc)}),
              file=sys.stderr)
        return EXIT_NUMERICAL
    except (FileNotFoundError, ValueError) as exc:  # ConfigError too
        print(json.dumps({"error": "config", "message": str(exc)}),
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

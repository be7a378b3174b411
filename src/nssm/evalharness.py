"""Rolling-origin forecast evaluation: losses, proper scores, coverage,
PIT, block-bootstrap inference, stress suites, and tail metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .graph import WeightMatrix, perturb
from .lgss import FilterRun

DEFAULT_HORIZONS = (1, 2, 4, 8)
# The failures that mask a rolling-evaluation origin; any other exception
# is a bug and propagates.
_NUMERICAL_ERRORS = (np.linalg.LinAlgError, FloatingPointError)


@dataclass(frozen=True)
class EvalPlan:
    """Rolling-origin schedule and requested metrics."""

    origins: Tuple[int, ...]
    horizons: Tuple[int, ...] = DEFAULT_HORIZONS
    t_len: Optional[int] = None

    def __post_init__(self):
        horizons = tuple(sorted(int(h) for h in self.horizons))
        if not horizons:
            raise ValueError("horizons must hold at least one horizon")
        if any(h < 1 for h in horizons):
            raise ValueError("horizons must be positive")
        object.__setattr__(self, "horizons", horizons)
        object.__setattr__(self, "origins", tuple(int(t) for t in self.origins))
        if not self.origins:
            raise ValueError("an evaluation plan needs at least one origin")
        if self.t_len is not None:
            if max(self.origins) + max(horizons) > self.t_len - 1:
                raise ValueError("every origin + max horizon must fit in T")


@dataclass
class EvalReport:
    """Per-cell losses with definitional per-horizon aggregates."""

    origins: Tuple[int, ...]
    horizons: Tuple[int, ...]
    abs_err: np.ndarray   # O x H x N
    sq_err: np.ndarray    # O x H x N
    failure_mask: np.ndarray  # O x H bools
    extras: dict = field(default_factory=dict)

    def _losses(self, metric: str) -> np.ndarray:
        """The O x H x N cell losses of ``metric``, "mae" or "mse"."""
        if metric not in ("mae", "mse"):
            raise ValueError(f"metric must be 'mae' or 'mse', got {metric!r}")
        return self.sq_err if metric == "mse" else self.abs_err

    def aggregate(self, metric: str = "mse") -> Dict[int, float]:
        """Mean per-cell loss over valid origins and nodes, per horizon."""
        src = self._losses(metric)
        out = {}
        for j, h in enumerate(self.horizons):
            ok = ~self.failure_mask[:, j]
            out[h] = float(np.mean(src[ok, j, :])) if ok.any() else math.nan
        return out

    def per_origin(self, metric: str = "mse") -> np.ndarray:
        """O x H matrix of per-origin node-averaged losses."""
        vals = self._losses(metric).mean(axis=2)
        vals[self.failure_mask] = np.nan
        return vals


def truncate_run(run: FilterRun, origin: int) -> FilterRun:
    """Causal restriction of a filter pass to data up to ``origin``.

    Filtering is sequential, so the moments computed on the full sample
    coincide with those from refitting on the prefix; this slices every
    array to the steps up to ``origin`` (views, not copies) and trims the
    context panel.
    """
    ctx = run.context
    if ctx is None or "obs_times" not in ctx:
        raise ValueError("run lacks the context needed for truncation")
    k = origin - run.t0 + 1  # obs_times is range(t0, t0 + n_steps)
    if not 0 < k <= run.n_steps:
        raise ValueError(f"origin {origin} is not an observation time")
    return replace(
        run, means=run.means[:k], covs=run.covs[:k],
        pred_means=run.pred_means[:k], pred_covs=run.pred_covs[:k],
        per_step_loglik=run.per_step_loglik[:k],
        threshold_states=(None if run.threshold_states is None
                          else run.threshold_states[:k]),
        context={**ctx, "obs_times": ctx["obs_times"][:k],
                 "panel": ctx["panel"][:origin + 1]})


def rolling_eval(fit_fn: Callable, forecast_fn: Callable, panel: np.ndarray,
                 w, plan: EvalPlan) -> EvalReport:
    """Evaluate h-step forecasts over rolling origins.

    ``fit_fn(panel, w)`` runs one causal filter pass over the full panel;
    each origin reuses it via truncation. ``forecast_fn(run, horizon)``
    returns per-horizon predictive means (list of length-N arrays or a
    2-d array); a cell whose mean is not finite is masked. A numerical
    failure (``LinAlgError``, which ``lgss.NumericalError`` is, or
    ``FloatingPointError``) of an origin's forecast masks the whole
    origin and is recorded in ``extras["failures"]`` as (origin, None,
    exception type name, message); any other exception propagates. A
    ``ValueError`` is a config or plan mistake, not a numerical failure:
    a forecast that lacks its ``future_z``, or an origin that is not an
    observation time of the run, raises.
    """
    panel = np.asarray(panel, dtype=float)
    n = panel.shape[1]
    o, hn = len(plan.origins), len(plan.horizons)
    abs_err = np.full((o, hn, n), np.nan)
    sq_err = np.full((o, hn, n), np.nan)
    mask = np.zeros((o, hn), dtype=bool)
    failures = []

    run = fit_fn(panel, w)
    h_max = max(plan.horizons)
    for i, t in enumerate(plan.origins):
        sub = truncate_run(run, t)
        try:
            means = forecast_fn(sub, h_max)
            means = np.asarray(means, dtype=float)
        except _NUMERICAL_ERRORS as exc:
            mask[i, :] = True
            failures.append((t, None, type(exc).__name__, str(exc)))
            continue
        for j, h in enumerate(plan.horizons):
            pred = means[h - 1]
            if not np.all(np.isfinite(pred)):
                mask[i, j] = True
                continue
            err = pred - panel[t + h]
            abs_err[i, j] = np.abs(err)
            sq_err[i, j] = err ** 2
    return EvalReport(origins=plan.origins, horizons=plan.horizons,
                      abs_err=abs_err, sq_err=sq_err, failure_mask=mask,
                      extras={"failures": failures})


def paired_deltas(a: EvalReport, b: EvalReport, metric: str = "mse") -> np.ndarray:
    """Per-origin loss differences a - b (antisymmetric by construction)."""
    if a.origins != b.origins or a.horizons != b.horizons:
        raise ValueError("reports must share origins and horizons")
    return a.per_origin(metric) - b.per_origin(metric)


def score(kind: str, prediction, actual) -> float:
    """Proper scores on the natural likelihood scale.

    gaussian_lpd: prediction = (mean, cov); poisson_ls: prediction =
    intensity vector; preq_mc_ls: prediction = S x N ensemble intensity
    matrix, scored as the log of the ensemble-mixture pmf via logsumexp.
    A zero-probability outcome yields -inf (flagged by the caller).
    """
    from scipy import stats
    from scipy.special import logsumexp

    y = np.asarray(actual, dtype=float)
    if kind == "gaussian_lpd":
        mean, cov = prediction
        return float(stats.multivariate_normal.logpdf(y, mean=mean, cov=cov,
                                                      allow_singular=False))
    if kind == "poisson_ls":
        lam = np.asarray(prediction, dtype=float)
        return float(np.sum(stats.poisson.logpmf(y, lam)))
    if kind == "preq_mc_ls":
        lam = np.atleast_2d(np.asarray(prediction, dtype=float))
        per_draw = stats.poisson.logpmf(y[None, :], lam).sum(axis=1)
        return float(logsumexp(per_draw) - np.log(lam.shape[0]))
    raise ValueError(f"unknown score kind {kind!r}")


def _mixture_poisson_cdf(y: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Ensemble-mixture Poisson CDF, per node."""
    from scipy import stats

    return stats.poisson.cdf(y[None, :], lam).mean(axis=0)


def coverage_and_pit(forecast, actual, level: float = 0.9,
                     rng_seed: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Interval coverage flags and PIT values for one forecast.

    ``forecast`` is either ("gaussian", mean, var) with per-node
    variances — continuous PIT, no randomization — or ("ensemble",
    intensities S x N) for counts, where intervals come from equal-tailed
    count-draw quantiles and the PIT is randomized:
    u = F(y - 1) + V (F(y) - F(y - 1)) under the mixture CDF.
    """
    from scipy import stats

    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    y = np.asarray(actual, dtype=float)
    lo_q, hi_q = (1.0 - level) / 2.0, 1.0 - (1.0 - level) / 2.0
    kind = forecast[0]
    if kind == "gaussian":
        mean = np.asarray(forecast[1], dtype=float)
        sd = np.sqrt(np.asarray(forecast[2], dtype=float))
        z = stats.norm.ppf(hi_q)
        covered = (y >= mean - z * sd) & (y <= mean + z * sd)
        pit = stats.norm.cdf((y - mean) / sd)
        return covered, pit
    if kind == "ensemble":
        lam = np.atleast_2d(np.asarray(forecast[1], dtype=float))
        rng = np.random.default_rng(rng_seed)
        counts = rng.poisson(lam)
        lo = np.quantile(counts, lo_q, axis=0)
        hi = np.quantile(counts, hi_q, axis=0)
        covered = (y >= lo) & (y <= hi)
        f_y = _mixture_poisson_cdf(y, lam)
        f_ym1 = _mixture_poisson_cdf(y - 1.0, lam)  # Poisson cdf(-1) = 0
        v = rng.uniform(size=y.shape)
        pit = f_ym1 + v * (f_y - f_ym1)
        return covered, pit
    raise ValueError(f"unknown forecast representation {kind!r}")


def block_bootstrap_ci(deltas, block_len: int, n_boot: int, seed: int,
                       level: float = 0.95) -> Tuple[float, float]:
    """Circular moving-block bootstrap percentile CI for the mean delta."""
    deltas = np.asarray(deltas, dtype=float)
    deltas = deltas[np.isfinite(deltas)]
    n = deltas.shape[0]
    if n == 0:
        raise ValueError("no finite deltas to bootstrap")
    if block_len < 1 or n_boot < 100:
        raise ValueError("need block_len >= 1 and B >= 100")
    rng = np.random.default_rng(seed)
    n_blocks = int(np.ceil(n / block_len))
    means = np.empty(n_boot)
    idx_base = np.arange(block_len)
    for b in range(n_boot):
        starts = rng.integers(0, n, size=n_blocks)
        idx = (starts[:, None] + idx_base[None, :]).ravel()[:n] % n
        means[b] = deltas[idx].mean()
    alpha = 1.0 - level
    lo, hi = np.quantile(means, [alpha / 2.0, 1.0 - alpha / 2.0])
    return float(lo), float(hi)


def stress_suite(fit_fn: Callable, forecast_fn: Callable, panel: np.ndarray,
                 w: WeightMatrix, perturbations: Sequence[dict], plan: EvalPlan,
                 baseline_fit_fn: Optional[Callable] = None) -> List[dict]:
    """Network stress table: refit under each perturbed W, report deltas.

    Each perturbation dict holds ``kind`` plus keyword arguments for
    graph.perturb. Each row keeps its ``rolling_eval`` report, masked
    origins and ``extras["failures"]`` included. Deltas are per-horizon
    MAE differences against the original-W fit and, when
    ``baseline_fit_fn`` (a no-network variant) is supplied, against that
    baseline too.
    """
    base_report = rolling_eval(fit_fn, forecast_fn, panel, w, plan)
    nonet_report = None
    if baseline_fit_fn is not None:
        nonet_report = rolling_eval(baseline_fit_fn, forecast_fn, panel, w, plan)
    rows = []
    for spec in perturbations:
        spec = dict(spec)
        kind = spec.pop("kind")
        w_pert = perturb(w, kind, **spec)
        report = rolling_eval(fit_fn, forecast_fn, panel, w_pert, plan)
        row = {"kind": kind, "params": spec, "report": report}
        base_mae, pert_mae = base_report.aggregate("mae"), report.aggregate("mae")
        row["delta_mae_vs_original"] = {
            h: pert_mae[h] - base_mae[h] for h in plan.horizons
        }
        if nonet_report is not None:
            nn_mae = nonet_report.aggregate("mae")
            row["delta_mae_vs_no_network"] = {
                h: pert_mae[h] - nn_mae[h] for h in plan.horizons
            }
        rows.append(row)
    return rows


def tail_metrics(ensembles: Sequence, actuals: Sequence,
                 trim: float = 0.05) -> dict:
    """Tail-risk diagnostics over predictive ensembles.

    explosion_prob: fraction of draws (pooled over cells) whose maximum
    intensity exceeds 1e6; median_abs_err and trimmed_mae are computed on
    per-node absolute errors of the ensemble count means, the latter
    dropping the top and bottom ``trim`` fraction.
    """
    from scipy import stats

    from .poissonmodel import EXPLOSION_THRESHOLD

    if len(ensembles) == 0:
        raise ValueError("no ensembles supplied")
    if not 0.0 <= trim < 0.5:
        raise ValueError("trim must be in [0, 0.5)")
    exploded, total = 0, 0
    errs = []
    for ens, actual in zip(ensembles, actuals):
        lam = ens.intensities if hasattr(ens, "intensities") else np.atleast_2d(ens)
        cnt = ens.counts if hasattr(ens, "counts") else lam
        exploded += int(np.sum(lam.max(axis=1) > EXPLOSION_THRESHOLD))
        total += lam.shape[0]
        errs.append(np.abs(cnt.mean(axis=0) - np.asarray(actual, dtype=float)))
    errs = np.concatenate(errs)
    return {
        "explosion_prob": exploded / total,
        "median_abs_err": float(np.median(errs)),
        "trimmed_mae": float(stats.trim_mean(errs, trim)),
        "mean_mae": float(np.mean(errs)),
    }

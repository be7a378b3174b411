"""Poisson network DGLM: approximate log-link filtering and Monte-Carlo
multi-step forecasting with forecast-only stabilization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
from scipy.special import gammaln, xlogy

from .design import DesignRecipe, _w_at
from .gaussmodel import (_fit_panel, _forecast_covariates, _forecast_networks,
                         _simulate_draws)
from .lgss import Belief, FilterRun, StateNoiseSpec
# Re-exported for perfbench/tracing.py, which wraps them by module attribute.
from .design import build_design
from .lgss import predict, update

# Baseline (non-stabilized) linear-predictor cap; keeps exp() finite.
BASELINE_ETA_CAP = 20.0
LAMBDA_FLOOR = 1e-8
EXPLOSION_THRESHOLD = 1e6


@dataclass(frozen=True)
class PoissonSpec:
    recipe: DesignRecipe
    state_noise: StateNoiseSpec
    m0: Optional[np.ndarray] = None
    p0_scale: float = 10.0

    def initial_belief(self) -> Belief:
        k = self.recipe.n_cols
        m0 = np.zeros(k) if self.m0 is None else np.asarray(self.m0, dtype=float)
        return Belief(mean=m0, cov=self.p0_scale * np.eye(k), time_index=0)


@dataclass(frozen=True)
class StabilizerConfig:
    """Forecast-only damping and caps; never applied during filtering."""

    phi: float = 0.98
    eta_max: float = 12.0
    lambda_max: float = 1e5
    enabled: bool = True

    def __post_init__(self):
        if not 0.0 < self.phi <= 1.0:
            raise ValueError("phi must be in (0, 1]")
        if self.lambda_max <= 0:
            raise ValueError("lambda_max must be positive")

    @classmethod
    def disabled(cls) -> "StabilizerConfig":
        return cls(phi=1.0, eta_max=BASELINE_ETA_CAP, lambda_max=np.inf,
                   enabled=False)


@dataclass
class ForecastEnsemble:
    """Per-horizon Monte-Carlo predictive representation."""

    horizon: int
    intensities: np.ndarray  # S x N positive reals
    counts: np.ndarray       # S x N nonnegative integers
    stabilizer: StabilizerConfig
    seed: int

    def __post_init__(self):
        if self.intensities.shape != self.counts.shape or self.intensities.ndim != 2:
            raise ValueError("intensities and counts must be matching S x N arrays")
        if self.stabilizer.enabled and np.max(self.intensities) > self.stabilizer.lambda_max:
            raise AssertionError("stabilized intensities exceed lambda_max")

    @property
    def n_draws(self) -> int:
        return self.intensities.shape[0]


def _check_counts(panel):
    panel = np.asarray(panel)
    if np.any(panel < 0) or not np.all(np.isfinite(panel)):
        raise ValueError("counts must be finite and nonnegative")
    if not np.all(panel == np.round(panel)):
        raise ValueError("counts must be integers")
    return panel.astype(float)


def fit_poisson(panel: np.ndarray, w_seq, spec: PoissonSpec,
                z=None) -> FilterRun:
    """Approximate filter on the log-intensity scale.

    Each step linearizes the log link at the predicted state: with
    lam = exp(X m_pred) floored at 1e-8, the pseudo-observation
    X m_pred + (y - lam) / lam with variance diag(1 / lam) feeds the
    Gaussian update. Per-step plug-in Poisson log-likelihood (at the
    one-step predictive intensity) is recorded.
    """

    def linearize(x_t, m_pred, y_t):
        eta_hat = np.clip(x_t @ m_pred, -BASELINE_ETA_CAP, BASELINE_ETA_CAP)
        lam_hat = np.clip(np.exp(eta_hat), LAMBDA_FLOOR, None)
        # Poisson log-pmf: y log(lam) - log(y!) - lam.
        loglik = float(np.sum(xlogy(y_t, lam_hat) - gammaln(y_t + 1.0) - lam_hat))
        return eta_hat + (y_t - lam_hat) / lam_hat, 1.0 / lam_hat, loglik

    return _fit_panel(_check_counts(panel), w_seq, z, spec, None,
                      linearize=linearize)


def mc_forecast(run: FilterRun, spec: PoissonSpec, horizon: int, n_draws: int,
                stab: StabilizerConfig, rng_seed: int,
                future_w=None, future_z=None) -> List[ForecastEnsemble]:
    """Monte-Carlo multi-step predictive simulation.

    Each draw samples a coefficient path forward (damped toward the
    filtered mean when the stabilizer is enabled), caps the linear
    predictor and intensity, samples counts, and feeds the counts into
    the next step's design. The draws are batched: all S advance
    together, and W y is one matrix product over the draws per horizon
    (in slabs of 64 draws). Deterministic
    given (run, spec, seed): draw s has its own generator
    ``default_rng([rng_seed, s])``, so it is the same whatever
    ``n_draws``. ``future_w``, if given, holds the network of each
    horizon; otherwise the last fitted network is carried forward.
    ``future_z`` holds the covariates of each horizon; a recipe with
    covariate columns requires it.
    """
    if horizon < 1 or n_draws < 1:
        raise ValueError("horizon and n_draws must be >= 1")
    ctx = run.context
    last_w = _w_at(ctx["w_seq"], ctx["obs_times"][-1])
    networks = _forecast_networks(
        last_w, horizon,
        "carry_forward" if future_w is None else "user_supplied", future_w)
    covariates = _forecast_covariates(spec.recipe, horizon, future_z)

    phi = stab.phi if stab.enabled else 1.0
    eta_cap = stab.eta_max if stab.enabled else BASELINE_ETA_CAP
    lam_cap = stab.lambda_max if stab.enabled else np.inf
    counts = np.empty((horizon, n_draws, ctx["panel"].shape[1]), dtype=np.int64)

    def observe(h, block, rngs):
        np.clip(block, -eta_cap, eta_cap, out=block)
        np.exp(block, out=block)
        np.minimum(block, lam_cap, out=block)
        for rng, lam, row in zip(rngs, block, counts[h]):
            row[:] = rng.poisson(lam)
        return counts[h]

    intensities = _simulate_draws(run, spec.recipe, spec.state_noise, n_draws,
                                  rng_seed, networks, covariates,
                                  observe, phi=phi)
    return [
        ForecastEnsemble(horizon=h + 1, intensities=intensities[h],
                         counts=counts[h], stabilizer=stab, seed=rng_seed)
        for h in range(horizon)
    ]


def ensemble_stats(ens: ForecastEnsemble,
                   quantile_levels=(0.05, 0.25, 0.5, 0.75, 0.95)) -> dict:
    """Summary record for one predictive ensemble."""
    if ens.n_draws < 1:
        raise ValueError("ensemble is empty")
    lam = ens.intensities
    cnt = ens.counts.astype(float)
    explosion = float(np.mean(lam.max(axis=1) > EXPLOSION_THRESHOLD))
    return {
        "mean": cnt.mean(axis=0),
        "mean_intensity": lam.mean(axis=0),
        "median": np.median(cnt, axis=0),
        "quantiles": {q: np.quantile(cnt, q, axis=0) for q in quantile_levels},
        "explosion_prob": explosion,
        "trimmed_mae_inputs": cnt,
    }

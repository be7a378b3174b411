"""Poisson network DGLM: approximate log-link filtering and Monte-Carlo
multi-step forecasting with forecast-only stabilization."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .design import _DRAW_SLAB, DesignRecipe
from .gaussmodel import _fit_panel, _simulate_draws, _stream
from .lgss import Belief, FilterRun, NumericalError, StateNoiseSpec, _step
# Re-exported for perfbench/tracing.py, which wraps them by module attribute.
from .design import build_design
from .lgss import predict, update

# Baseline (non-stabilized) linear-predictor cap; keeps exp() finite.
BASELINE_ETA_CAP = 20.0
LAMBDA_FLOOR = 1e-8
EXPLOSION_THRESHOLD = 1e6
# Counts with an intensity below the cut-off are drawn by inversion; at and
# above it, where numpy's own sampler switches to PTRS, by rng.poisson.
INVERSION_CUTOFF = 10.0
# Terms of the CDF that the inversion sums over whole slabs before it
# carries on with the few counts still unresolved.
_SLAB_TERMS = 7


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
    """Forecast-only damping and caps; never applied during filtering.
    ``disabled()`` is no damping (phi = 1), the filter's baseline cap on
    the linear predictor and no cap on the intensity."""

    phi: float = 0.98
    eta_max: float = 12.0
    lambda_max: float = 1e5

    def __post_init__(self):
        if not 0.0 < self.phi <= 1.0:
            raise ValueError("phi must be in (0, 1]")
        if not self.eta_max > 0:
            raise ValueError("eta_max must be positive")
        if not self.lambda_max > 0:
            raise ValueError("lambda_max must be positive")

    @classmethod
    def disabled(cls) -> "StabilizerConfig":
        return cls(phi=1.0, eta_max=BASELINE_ETA_CAP, lambda_max=np.inf)


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
        if np.max(self.intensities) > self.stabilizer.lambda_max:
            raise AssertionError("stabilized intensities exceed lambda_max")

    @property
    def n_draws(self) -> int:
        return self.intensities.shape[0]


def _log_factorial(y: np.ndarray) -> np.ndarray:
    """log(y!) of a 1-D row of integer counts, by ``math.lgamma`` on its
    distinct values: a row holds few of them, and a cumulative log table
    up to ``y.max()`` would add rounding error with every entry."""
    values, inverse = np.unique(y, return_inverse=True)
    return np.array([math.lgamma(v + 1.0) for v in values])[inverse]


def _poisson_loglik(y: np.ndarray, lam: np.ndarray) -> float:
    """Poisson log-pmf y log(lam) - log(y!) - lam, summed over a row of
    counts; lam > 0, so y log(lam) needs no y = 0 case."""
    return float(np.sum(y * np.log(lam) - _log_factorial(y) - lam))


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

    def steps(x, y):
        def pseudo_obs_step(i, m_pred, p_pred):
            eta_hat = np.clip(x[i] @ m_pred, -BASELINE_ETA_CAP, BASELINE_ETA_CAP)
            lam_hat = np.clip(np.exp(eta_hat), LAMBDA_FLOOR, None)
            m, p, _ = _step(m_pred, p_pred, x[i], 1.0 / lam_hat,
                            eta_hat + (y[i] - lam_hat) / lam_hat)
            return m, p, _poisson_loglik(y[i], lam_hat)
        return pseudo_obs_step

    return _fit_panel(_check_counts(panel), w_seq, z, spec, steps)


def _poisson_counts(lam: np.ndarray, rng: np.random.Generator,
                    fallback) -> np.ndarray:
    """Poisson counts of an S x N block of intensities, one uniform per
    count.

    Each count takes the next uniform u of ``rng`` in row order. Below
    ``INVERSION_CUTOFF`` the count is #{k : F(k) < u}, the inverse of the
    CDF F(k) = p_0 + ... + p_k summed by sequential search with p_0 =
    e^-lam and p_k = p_(k-1) lam / k (Devroye 1986, section X.3). The
    first ``_SLAB_TERMS`` terms are summed over whole slabs of
    ``_DRAW_SLAB`` rows; the counts still unresolved then continue as one
    compacted array, and each leaves it once F(k) >= u or adding p_k no
    longer changes F, so a u above the summed CDF's limit ends too. At or
    above the cut-off the counts come, in row order, from
    ``rng.poisson`` on the generator ``fallback()``, made on first need.
    So row s depends on the rows before it only, whatever S. An intensity
    that is not finite, or too large for ``rng.poisson``, raises
    NumericalError.
    """
    n_rows, n_cols = lam.shape
    counts = np.empty(lam.shape, dtype=np.int64)
    slab = (min(_DRAW_SLAB, n_rows), n_cols)
    u_buf, p_buf, cdf_buf = np.empty(slab), np.empty(slab), np.empty(slab)
    below_buf = np.empty(slab, dtype=bool)
    n_buf = np.empty(slab, dtype=np.uint8)
    unresolved, big_rng = [], None
    for start in range(0, n_rows, _DRAW_SLAB):
        lam_s = lam[start:start + _DRAW_SLAB]
        rows = lam_s.shape[0]
        u, p, cdf = u_buf[:rows], p_buf[:rows], cdf_buf[:rows]
        below, n = below_buf[:rows], n_buf[:rows]
        rng.random(out=u)
        np.exp(np.negative(lam_s, out=p), out=p)
        np.copyto(cdf, p)
        np.less(cdf, u, out=below)
        np.copyto(n, below)
        for k in range(1, _SLAB_TERMS):
            p *= lam_s
            p *= 1.0 / k
            cdf += p
            np.less(cdf, u, out=below)
            n += below.view(np.uint8)
        counts[start:start + rows] = n
        small = lam_s < INVERSION_CUTOFF
        below &= small
        idx = np.flatnonzero(below)
        if idx.size:
            unresolved.append((start * n_cols + idx, lam_s.ravel()[idx],
                               u.ravel()[idx], p.ravel()[idx], cdf.ravel()[idx]))
        if not small.all():
            big = ~small
            if big_rng is None:
                big_rng = fallback()
            try:
                counts[start:start + rows][big] = big_rng.poisson(lam_s[big])
            except ValueError as exc:  # NaN, inf, or past numpy's ~9.2e18
                raise NumericalError(
                    f"Poisson intensities cannot be sampled: {exc}") from exc
    if unresolved:
        flat = counts.reshape(-1)
        idx, lam_t, u, p, cdf = (np.concatenate(a) for a in zip(*unresolved))
        k = _SLAB_TERMS
        while idx.size:
            p *= lam_t
            p *= 1.0 / k
            nxt = cdf + p
            going = (nxt < u) & (nxt > cdf)
            flat[idx[~going]] = k
            idx, lam_t, u, p = idx[going], lam_t[going], u[going], p[going]
            cdf = nxt[going]
            k += 1
    return counts


def mc_forecast(run: FilterRun, spec: PoissonSpec, horizon: int, n_draws: int,
                stab: StabilizerConfig, rng_seed: int,
                future_w=None, future_z=None) -> List[ForecastEnsemble]:
    """Monte-Carlo multi-step predictive simulation.

    Each draw samples a coefficient path forward (through the transition
    F, if the spec has one, and damped toward the filtered mean by the
    stabilizer's phi), caps the linear predictor and intensity,
    samples counts, and feeds the counts into the next step's design.
    The draws are batched: all S advance together, and W y of the fed-back
    counts is one product of the S x N block with W's nonzeros, on one
    core (``WeightMatrix._block_product``). Each count
    takes one uniform from its horizon's observation stream
    ``[rng_seed, h, 2]`` and inverts the Poisson CDF with it
    (``_poisson_counts``), so the raw and stabilized forecasts of one seed
    share their random numbers count for count. Intensities at or above
    ``INVERSION_CUTOFF`` draw with ``rng.poisson`` from the stream
    ``[rng_seed, h, 3]``, which is made only at a horizon that has one:
    2H + 1 generators without them, up to 3H + 1 with them (see
    ``gaussmodel._simulate_draws``). Deterministic given (run, spec,
    seed); draw s is the same whatever ``n_draws``, and its path up to
    horizon h the same whatever ``horizon``. ``future_w``, if given,
    holds the network of each horizon; otherwise the last fitted network
    is carried forward. ``future_z`` holds the covariates of each
    horizon; a recipe with covariate columns requires it, and one
    without them rejects it.
    """
    if horizon < 1 or n_draws < 1:
        raise ValueError("horizon and n_draws must be >= 1")
    counts = []

    def observe(h, block, rng):
        np.clip(block, -stab.eta_max, stab.eta_max, out=block)
        np.exp(block, out=block)
        np.minimum(block, stab.lambda_max, out=block)
        counts.append(_poisson_counts(
            block, rng, lambda: _stream(rng_seed, h + 1, 3)))
        return counts[-1]

    intensities = _simulate_draws(run, spec.recipe, spec.state_noise, horizon,
                                  n_draws, rng_seed, future_w, future_z,
                                  observe, phi=stab.phi)
    return [
        ForecastEnsemble(horizon=h + 1, intensities=intensities[h],
                         counts=counts[h], stabilizer=stab, seed=rng_seed)
        for h in range(horizon)
    ]


def ensemble_stats(ens: ForecastEnsemble) -> dict:
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
        "quantiles": {q: np.quantile(cnt, q, axis=0)
                      for q in (0.05, 0.25, 0.5, 0.75, 0.95)},
        "explosion_prob": explosion,
    }

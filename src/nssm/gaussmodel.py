"""Gaussian network TVP-VAR: filtering, forecasting, and the joint
node-edge model."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

import numpy as np

from .design import (DesignRecipe, _w_at, _z_at, build_design, design_columns,
                     design_stack, spillover_matrix)
from .graph import WeightMatrix
from .lgss import Belief, FilterRun, StateNoiseSpec, _state_q, run_filter
# Re-exported for perfbench/tracing.py, which wraps them by module attribute.
from .lgss import predict, update


@dataclass(frozen=True)
class ObsNoise:
    """Observation noise: scalar sigma^2 I, diagonal, or full covariance."""

    kind: str = "scalar"
    value: object = 1.0

    def block_r(self, n: int) -> np.ndarray:
        """R as an ObsBlock takes it: the length-N variance vector for
        scalar or diagonal noise, the N x N matrix for full noise."""
        if self.kind == "scalar":
            sigma2 = float(self.value)
            if sigma2 <= 0:
                raise ValueError("sigma2 must be positive")
            return np.full(n, sigma2)
        if self.kind == "diagonal":
            d = np.asarray(self.value, dtype=float)
            if d.shape != (n,) or np.any(d <= 0):
                raise ValueError("diagonal obs noise must be length-N positive")
            return d
        if self.kind == "full":
            r = np.asarray(self.value, dtype=float)
            if r.shape != (n, n):
                raise ValueError("full obs noise must be N x N")
            np.linalg.cholesky(r)
            return r
        raise ValueError(f"unknown obs noise kind {self.kind!r}")

    def matrix(self, n: int) -> np.ndarray:
        """R as an N x N matrix."""
        r = self.block_r(n)
        return np.diag(r) if r.ndim == 1 else r


@dataclass(frozen=True)
class EdgeSubmodel:
    """Gaussian edge observation block a_t = L psi_t + noise(U)."""

    loading: np.ndarray
    u: np.ndarray
    state_noise: StateNoiseSpec


@dataclass(frozen=True)
class GaussianSpec:
    recipe: DesignRecipe
    state_noise: StateNoiseSpec
    obs_noise: ObsNoise = field(default_factory=ObsNoise)
    m0: Optional[np.ndarray] = None
    p0_scale: float = 10.0
    edge_submodel: Optional[EdgeSubmodel] = None

    def initial_belief(self) -> Belief:
        k = self.recipe.n_cols
        m0 = np.zeros(k) if self.m0 is None else np.asarray(self.m0, dtype=float)
        return Belief(mean=m0, cov=self.p0_scale * np.eye(k), time_index=0)


@dataclass(frozen=True)
class GaussianForecast:
    mean: np.ndarray
    cov: np.ndarray
    horizon: int
    network_policy: str = "carry_forward"


def _forecast_networks(last_w, horizon: int, network_policy: str, future_w):
    """The network of each forecast horizon 1..horizon under a policy."""
    if network_policy == "carry_forward":
        return [last_w] * horizon
    if network_policy in ("oracle", "user_supplied"):
        if future_w is None or len(future_w) < horizon:
            raise ValueError(
                f"network_policy={network_policy!r} requires future_w for "
                f"all {horizon} horizons"
            )
        return list(future_w[:horizon])
    raise ValueError(f"unknown network policy {network_policy!r}")


def _forecast_covariates(recipe: DesignRecipe, horizon: int, future_z):
    """The covariates of each forecast horizon 1..horizon (None when the
    recipe has no covariate columns)."""
    if recipe.covariate_count == 0:
        return [None] * horizon
    if future_z is None or len(future_z) < horizon:
        raise ValueError(
            f"recipe includes covariates; future_z required for all "
            f"{horizon} horizons"
        )
    return [np.asarray(future_z[h], dtype=float) for h in range(horizon)]


def _normal_rows(rngs, n_cols: int) -> np.ndarray:
    """One row of ``n_cols`` standard normals from each draw's generator."""
    out = np.empty((len(rngs), n_cols))
    for rng, row in zip(rngs, out):
        rng.standard_normal(out=row)
    return out


# Draws per slab when the linear predictor is accumulated: the temporaries
# stay 64 x N whatever S, so the returned blocks are nearly all the memory.
_DRAW_SLAB = 64


def _simulate_draws(run: FilterRun, recipe: DesignRecipe,
                    state_noise: StateNoiseSpec, n_draws: int, rng_seed: int,
                    networks, covariates, observe,
                    phi: float = 1.0) -> np.ndarray:
    """Monte-Carlo forecast paths of all ``n_draws`` draws, advanced together.

    Each draw starts from theta ~ N(m, P) at the final filtered belief.
    At horizon h it steps theta <- phi theta + (1 - phi) m + Q^1/2 e and
    accumulates the linear predictor X_h theta, column by column, into
    the S x N block ``blocks[h - 1]`` of the returned H x S x N array; no
    S x N x K design is formed. ``observe(h - 1, block, rngs)`` turns the
    block in place into the horizon's output and returns the S x N
    observations that become the newest lag. ``networks[h - 1]`` and
    ``covariates[h - 1]`` are the W and z of horizon h; their length is
    the horizon count H.

    Draw s has its own generator ``default_rng([rng_seed, s])``. It takes
    its initial K normals, then per horizon K state normals followed by
    what ``observe`` takes for its row: the order of a draw simulated on
    its own. So draw s is the same whatever ``n_draws``.
    """
    ctx = run.context
    panel = ctx["panel"]
    t_last = ctx["obs_times"][-1]
    belief = run.beliefs_filtered[-1]
    m, k = belief.mean, belief.dim
    q_mat, _ = _state_q(state_noise, [b.mean for b in run.beliefs_filtered[-2:]], k)
    q_chol = np.linalg.cholesky(q_mat + 1e-14 * np.eye(k))
    p_chol = np.linalg.cholesky(belief.cov + 1e-12 * np.eye(k))

    rngs = [np.random.default_rng([rng_seed, s]) for s in range(n_draws)]
    theta = m + _normal_rows(rngs, k) @ p_chol.T
    # Until the first draw is fed back, a lag is one length-N vector that
    # broadcasts against the S x N blocks.
    lags = [panel[t_last - l + 1] for l in range(1, recipe.lag_order + 1)]
    blocks = np.empty((len(networks), n_draws, panel.shape[1]))
    for h, (w_h, z_h) in enumerate(zip(networks, covariates)):
        theta = phi * theta + (1.0 - phi) * m + _normal_rows(rngs, k) @ q_chol.T
        for start in range(0, n_draws, _DRAW_SLAB):
            rows = slice(start, start + _DRAW_SLAB)
            eta, th = blocks[h, rows], theta[rows]
            slab_lags = [y[rows] if y.ndim == 2 else y for y in lags]
            for j, col in enumerate(design_columns(w_h, slab_lags, z_h, recipe)):
                if j == 0:
                    np.multiply(col, th[:, :1], out=eta)
                else:
                    eta += col * th[:, j:j + 1]
        lags = [observe(h, blocks[h], rngs)] + lags[:-1]
    return blocks


def fit_gaussian(panel: np.ndarray, w_seq, z, spec: GaussianSpec) -> FilterRun:
    """Kalman-filter the network TVP-VAR over a T x N panel.

    Observation times run from t = p (0-based) to T - 1; the design at t
    uses lags panel[t-1], ..., panel[t-p] and the network at time t.
    """
    panel = np.asarray(panel, dtype=float)
    if not np.all(np.isfinite(panel)):
        raise ValueError("panel contains non-finite values")
    return _fit_panel(panel, w_seq, z, spec, spec.obs_noise.block_r(panel.shape[1]),
                      transition=spec.state_noise.transition)


def _fit_panel(panel, w_seq, z, spec, r, **kwargs) -> FilterRun:
    """``run_filter`` of a panel on its designs from t = p on, with the
    context the forecasters read; shared by fit_gaussian and fit_poisson."""
    t_len, p = panel.shape[0], spec.recipe.lag_order
    if t_len < p + 1:
        raise ValueError(f"panel needs at least p + 1 = {p + 1} rows")
    init = spec.initial_belief()
    run = run_filter(init.mean, init.cov,
                     [(design_stack(w_seq, panel, z, spec.recipe), r, panel[p:])],
                     spec.state_noise, t0=p, **kwargs)
    run.context = {"panel": panel, "w_seq": w_seq, "z": z, "spec": spec,
                   "obs_times": list(range(p, t_len))}
    return run


def select_hyperparams(panel, w_seq, z, base_spec: GaussianSpec, grid):
    """Grid search over (state-noise, obs-noise) candidates by innovations
    log-likelihood; ties broken by smallest total state-noise trace."""
    if not grid:
        raise ValueError("hyperparameter grid is empty")
    table = []
    best = None
    for i, cand in enumerate(grid):
        state_noise = cand.get("state_noise", base_spec.state_noise)
        obs_noise = cand.get("obs_noise", base_spec.obs_noise)
        spec = replace(base_spec, state_noise=state_noise, obs_noise=obs_noise)
        row = {"index": i, "state_noise": state_noise, "obs_noise": obs_noise}
        try:
            run = fit_gaussian(panel, w_seq, z, spec)
            row["loglik"] = run.loglik
            row["valid"] = True
            if state_noise.mode == "constant":
                row["q_trace"] = float(np.trace(state_noise.q))
            else:
                row["q_trace"] = float(np.sum(state_noise.q0))
        except (ValueError, np.linalg.LinAlgError) as exc:
            row["loglik"] = -math.inf
            row["valid"] = False
            row["error"] = str(exc)
        table.append(row)
        if row["valid"]:
            key = (row["loglik"], -row["q_trace"])
            if best is None or key > best[0]:
                best = (key, spec)
    if best is None:
        raise RuntimeError(
            "all hyperparameter candidates failed: "
            + "; ".join(r.get("error", "?") for r in table)
        )
    return best[1], table


def _beta_indices(recipe: DesignRecipe):
    """Column indices of the network-lag-1 and own-lag-1 coefficients."""
    labels = recipe.column_labels()
    i_net = labels.index("WY_lag_1") if "WY_lag_1" in labels else None
    i_own = labels.index("Y_lag_1") if "Y_lag_1" in labels else None
    return i_net, i_own


def _closed_form_supported(recipe: DesignRecipe) -> bool:
    return recipe.lag_order == 1 and (
        not recipe.include_network_lags or tuple(recipe.network_powers) == (1,)
    )


def forecast_gaussian(run: FilterRun, spec: GaussianSpec, horizon: int,
                      network_policy: str = "carry_forward",
                      future_w=None, future_z=None) -> List[GaussianForecast]:
    """Iterated h-step forecasts from the final filtered belief.

    The predictive mean chains the recursion through the spillover matrix
    built from the filtered coefficient means; the covariance propagates
    observation noise, coefficient uncertainty, and the chained
    linearization of past forecast uncertainty. Exact at h = 1.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not _closed_form_supported(spec.recipe):
        raise ValueError(
            "closed-form multi-horizon forecasting supports lag order 1 with "
            "network power 1; use the Monte-Carlo mode for other recipes"
        )
    ctx = run.context
    panel, w_seq, z = ctx["panel"], ctx["w_seq"], ctx["z"]
    t_last = ctx["obs_times"][-1]
    n = panel.shape[1]

    belief = run.beliefs_filtered[-1]
    m, p_cov = belief.mean, belief.cov
    q_mat, _ = _state_q(spec.state_noise,
                        [b.mean for b in run.beliefs_filtered[-2:]], belief.dim)
    r_mat = spec.obs_noise.matrix(n)
    i_net, i_own = _beta_indices(spec.recipe)

    networks = _forecast_networks(_w_at(w_seq, t_last), horizon,
                                  network_policy, future_w)
    covariates = _forecast_covariates(spec.recipe, horizon, future_z)
    y_prev = panel[t_last]
    sigma_prev = np.zeros((n, n))
    forecasts = []
    p_state = p_cov
    for k, (w_k, z_k) in enumerate(zip(networks, covariates), start=1):
        x_k = build_design(w_k, [y_prev], z_k, spec.recipe).entries
        mean_k = x_k @ m
        beta1 = m[i_net] if i_net is not None else 0.0
        beta2 = m[i_own] if i_own is not None else 0.0
        b_hat = spillover_matrix(float(beta1), float(beta2), w_k)
        cov_k = x_k @ p_state @ x_k.T + r_mat + b_hat @ sigma_prev @ b_hat.T
        cov_k = 0.5 * (cov_k + cov_k.T)
        forecasts.append(GaussianForecast(mean=mean_k, cov=cov_k, horizon=k,
                                          network_policy=network_policy))
        y_prev = mean_k
        sigma_prev = cov_k
        p_state = p_state + q_mat
    return forecasts


def mc_forecast_gaussian(run: FilterRun, spec: GaussianSpec, horizon: int,
                         n_draws: int, rng_seed: int,
                         network_policy: str = "carry_forward",
                         future_w=None, future_z=None) -> List[dict]:
    """Monte-Carlo reference forecasts: sample coefficient paths and
    innovations through the recursion; returns per-horizon draw matrices.

    All draws advance together; draw s uses its own generator
    ``default_rng([rng_seed, s])``, so it does not depend on ``n_draws``.
    """
    if horizon < 1 or n_draws < 1:
        raise ValueError("horizon and n_draws must be >= 1")
    ctx = run.context
    networks = _forecast_networks(_w_at(ctx["w_seq"], ctx["obs_times"][-1]),
                                  horizon, network_policy, future_w)
    covariates = _forecast_covariates(spec.recipe, horizon, future_z)
    r_chol = np.linalg.cholesky(spec.obs_noise.matrix(ctx["panel"].shape[1]))

    def observe(h, block, rngs):
        block += _normal_rows(rngs, block.shape[1]) @ r_chol.T
        return block

    draws = _simulate_draws(run, spec.recipe, spec.state_noise, n_draws,
                            rng_seed, networks, covariates, observe)
    return [{"horizon": k + 1, "draws": draws[k]} for k in range(horizon)]


def plug_in_forecast(run: FilterRun, spec: GaussianSpec,
                     w_hat: WeightMatrix) -> GaussianForecast:
    """One-step mean with the approximate network substituted in the
    network-lag column only; coefficient predictions unchanged."""
    ctx = run.context
    panel, w_seq = ctx["panel"], ctx["w_seq"]
    t_last = ctx["obs_times"][-1]
    n = panel.shape[1]
    belief = run.beliefs_filtered[-1]
    z_last = _z_at(ctx["z"], t_last)
    x_hat = build_design(w_hat, [panel[t_last]], z_last, spec.recipe).entries
    mean = x_hat @ belief.mean
    cov = x_hat @ belief.cov @ x_hat.T + spec.obs_noise.matrix(n)
    return GaussianForecast(mean=mean, cov=0.5 * (cov + cov.T), horizon=1,
                            network_policy="user_supplied")


def fit_joint_node_edge(panel: np.ndarray, edge_obs: np.ndarray, w_seq,
                        spec: GaussianSpec,
                        design_fn: Optional[Callable] = None) -> FilterRun:
    """Joint filter over the stacked node-edge state.

    Per step: predict with blockdiag(Q_node, Q_edge), then update with the
    edge block [0 | L] followed by the node block [X_t | 0]. By default
    the node design is built from ``w_seq`` and the lagged panel;
    ``design_fn(t, lags, a_t)`` overrides it when the design depends on
    the realized edges.
    """
    if spec.edge_submodel is None:
        raise ValueError("fit_joint_node_edge requires an edge submodel")
    edge = spec.edge_submodel
    panel = np.asarray(panel, dtype=float)
    edge_obs = np.asarray(edge_obs, dtype=float)
    t_len, n = panel.shape
    p = spec.recipe.lag_order
    k_n = spec.recipe.n_cols
    loading = np.asarray(edge.loading, dtype=float)
    m_e, k_e = loading.shape
    if edge_obs.shape != (t_len, m_e):
        raise ValueError(f"edge_obs must be T x {m_e}")

    if edge.state_noise.mode != "constant" or spec.state_noise.mode != "constant":
        raise ValueError("joint node-edge filter supports constant state noise")
    dim = k_n + k_e
    q_joint = np.zeros((dim, dim))
    q_joint[:k_n, :k_n] = spec.state_noise.q
    q_joint[k_n:, k_n:] = edge.state_noise.q
    mean0 = np.concatenate([spec.initial_belief().mean, np.zeros(k_e)])

    if design_fn is None:
        x = design_stack(w_seq, panel, None, spec.recipe)
    else:
        x = np.array([design_fn(t, [panel[t - l] for l in range(1, p + 1)],
                                edge_obs[t]) for t in range(p, t_len)], dtype=float)
    h_node = np.concatenate([x, np.zeros((t_len - p, n, k_e))], axis=2)
    h_edge = np.hstack([np.zeros((m_e, k_n)), loading])
    run = run_filter(mean0, spec.p0_scale * np.eye(dim),
                     [(h_edge, edge.u, edge_obs[p:]),
                      (h_node, spec.obs_noise.block_r(n), panel[p:])],
                     StateNoiseSpec.constant(q_joint), t0=p)
    run.context = {"panel": panel, "w_seq": w_seq, "z": None, "spec": spec,
                   "obs_times": list(range(p, t_len))}
    return run

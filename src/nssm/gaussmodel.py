"""Gaussian network TVP-VAR: filtering, forecasting, and the joint
node-edge model."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache, partial
from typing import Callable, List, Optional

import numpy as np

from .design import (DesignRecipe, _by_slab, _w_at, build_design,
                     design_columns, design_stack, lag_matrices)
from .lgss import (Belief, FilterRun, NumericalError, StateNoiseSpec, _as_r,
                   _block_steps, _state_q, _step, _time_update, run_filter)
# Re-exported for perfbench/tracing.py, which wraps them by module attribute.
from .lgss import predict, update


@dataclass(frozen=True)
class ObsNoise:
    """Observation noise: scalar sigma^2 I, diagonal, or full covariance."""

    kind: str = "scalar"
    value: object = 1.0

    def block_r(self, n: int) -> np.ndarray:
        """R as an ObsBlock takes it: the length-N variance vector for
        scalar or diagonal noise, the N x N matrix for full noise; checked
        positive definite by ``lgss._as_r``."""
        if self.kind == "scalar":
            return _as_r(np.full(n, float(self.value)))
        shape = {"diagonal": (n,), "full": (n, n)}.get(self.kind)
        if shape is None:
            raise ValueError(f"unknown obs noise kind {self.kind!r}")
        r = np.asarray(self.value, dtype=float)
        if r.shape != shape:
            raise ValueError(f"{self.kind} obs noise must have shape {shape}, "
                             f"got {r.shape}")
        return _as_r(r)

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

    def initial_belief(self) -> Belief:
        k = self.recipe.n_cols
        m0 = np.zeros(k) if self.m0 is None else np.asarray(self.m0, dtype=float)
        return Belief(mean=m0, cov=self.p0_scale * np.eye(k), time_index=0)


@dataclass(frozen=True)
class GaussianForecast:
    mean: np.ndarray
    cov: np.ndarray
    horizon: int


def _horizon_inputs(run: FilterRun, recipe: DesignRecipe, horizon: int,
                    future_w, future_z) -> list:
    """The (W, z) of each forecast horizon 1..horizon.

    W comes from ``future_w`` when it is given, which then needs a network
    for every horizon; otherwise the last fitted network is carried
    forward. z comes from ``future_z``, which a recipe with covariate
    columns requires and a recipe without them rejects; it is None when
    the recipe has none.
    """
    if future_w is None:
        ctx = run.context
        networks = [_w_at(ctx["w_seq"], ctx["obs_times"][-1])] * horizon
    elif len(future_w) < horizon:
        raise ValueError(f"future_w must hold a network for each of the "
                         f"{horizon} horizons, got {len(future_w)}")
    else:
        networks = future_w
    if recipe.covariate_count == 0:
        if future_z is not None:
            raise ValueError("recipe has no covariate columns; future_z "
                             "must be None")
        covariates = [None] * horizon
    elif future_z is None or len(future_z) < horizon:
        raise ValueError(
            f"recipe includes covariates; future_z required for all "
            f"{horizon} horizons"
        )
    else:
        covariates = [np.asarray(future_z[h], dtype=float) for h in range(horizon)]
    return list(zip(networks, covariates))


def _origin(run: FilterRun, state_noise: StateNoiseSpec, p: int):
    """Where a forecast from the end of ``run`` starts: the final filtered
    mean and covariance, the Q of the first forecast step and the last
    ``p`` observations, newest first."""
    panel, t_last = run.context["panel"], run.context["obs_times"][-1]
    q, _ = _state_q(state_noise, run.means[-2:], run.means.shape[1])
    return (run.means[-1], run.covs[-1], q,
            [panel[t_last - l] for l in range(p)])


def _stream(rng_seed: int, h: int, kind: int) -> np.random.Generator:
    """The Monte-Carlo random stream of horizon ``h`` (0 for the initial
    draw) and variate ``kind``; see ``_simulate_draws``."""
    return np.random.default_rng([rng_seed, h, kind])


# An overflow ends in the NumericalError the function raises; numpy's
# warnings on the way there would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def _simulate_draws(run: FilterRun, recipe: DesignRecipe,
                    state_noise: StateNoiseSpec, horizon: int, n_draws: int,
                    rng_seed: int, future_w, future_z, observe,
                    phi: float = 1.0) -> np.ndarray:
    """Monte-Carlo forecast paths of all ``n_draws`` draws, advanced together.

    Each draw starts from theta ~ N(m, P) at the final filtered belief.
    At horizon h it steps theta <- phi F theta + (1 - phi) m + Q^1/2 e
    (F = I when ``state_noise.transition`` is None) and accumulates the
    linear predictor X_h theta, column by column, into the S x N block
    ``blocks[h - 1]`` of the returned H x S x N array; no S x N x K design
    is formed. ``observe(h - 1, block, rng)`` turns the block in place
    into the horizon's output and returns the S x N observations that
    become the newest lag. The W and z of each horizon are those of
    ``_horizon_inputs``.

    The random streams are keyed by what they draw, not by draw:
    ``_stream(rng_seed, 0, 1)`` draws the initial S x K block, and at
    horizon h >= 1 ``_stream(rng_seed, h, 1)`` draws the S x K state-noise
    block and ``_stream(rng_seed, h, 2)`` is the generator ``observe``
    draws its S x N block from, 2H + 1 generators in all (the Poisson
    sampler adds ``_stream(rng_seed, h, 3)`` at a horizon that needs it).
    No key ends in 0: numpy's SeedSequence pads a key with zeros, so
    ``[rng_seed, 0, 0]`` would be the stream of ``default_rng(rng_seed)``.
    numpy fills a block in row order, the products with the K x K
    factors run on whole slabs (``_by_slab``), and W y of the fed-back
    draws sums each draw on its own (``design_columns``), so row s of
    each block is the same whatever ``n_draws``, and horizon h's blocks
    are the same whatever H: draw s's path up to h does not depend on
    either. Raises NumericalError when a horizon's block is not finite
    after ``observe``.
    """
    inputs = _horizon_inputs(run, recipe, horizon, future_w, future_z)
    m, p_mat, q_mat, lags = _origin(run, state_noise, recipe.lag_order)
    k, f = m.shape[0], state_noise.transition
    q_chol = np.linalg.cholesky(q_mat + 1e-14 * np.eye(k))
    p_chol = np.linalg.cholesky(p_mat + 1e-12 * np.eye(k))

    stream = partial(_stream, rng_seed)
    theta = m + _by_slab(stream(0, 1).standard_normal((n_draws, k)),
                         p_chol.T)
    # Until the first draw is fed back, a lag is one length-N vector that
    # broadcasts against the S x N blocks.
    blocks = np.empty((horizon, n_draws, lags[0].shape[0]))
    for h, (w_h, z_h) in enumerate(inputs):
        if f is not None:
            theta = _by_slab(theta, f.T)
        noise = _by_slab(stream(h + 1, 1).standard_normal((n_draws, k)),
                         q_chol.T)
        theta = phi * theta + (1.0 - phi) * m + noise
        eta = blocks[h]
        for j, col in enumerate(design_columns(w_h, lags, z_h, recipe)):
            if j == 0:
                np.multiply(col, theta[:, :1], out=eta)
            else:
                eta += col * theta[:, j:j + 1]
        newest = observe(h, eta, stream(h + 1, 2))
        if not np.all(np.isfinite(eta)):
            raise NumericalError(f"forecast draws at horizon {h + 1} are "
                                 f"not finite")
        lags = [newest] + lags[:-1]
    return blocks


def fit_gaussian(panel: np.ndarray, w_seq, z, spec: GaussianSpec) -> FilterRun:
    """Kalman-filter the network TVP-VAR over a T x N panel.

    Observation times run from t = p (0-based) to T - 1; the design at t
    uses lags panel[t-1], ..., panel[t-p] and the network at time t. The
    steps are ``lgss._block_steps``'s: with diagonal R and K < N, each costs
    O(NK) plus K x K algebra on X_t' R^-1 X_t, formed for all t beforehand.
    """
    panel = np.asarray(panel, dtype=float)
    if not np.all(np.isfinite(panel)):
        raise ValueError("panel contains non-finite values")
    r = spec.obs_noise.block_r(panel.shape[1])
    return _fit_panel(panel, w_seq, z, spec,
                      lambda x, y: _block_steps(x, r, y))


def _fit_panel(panel, w_seq, z, spec, steps) -> FilterRun:
    """``run_filter`` of a panel on its designs from t = p on, with the
    context the forecasters read; shared by fit_gaussian and fit_poisson.
    ``steps(X, Y)`` takes the stacked designs (``design_stack``) and
    observations panel[p:] and returns the measurement step
    ``update(i, m, P) -> (m, P, loglik)`` of ``run_filter``."""
    t_len, p = panel.shape[0], spec.recipe.lag_order
    if t_len < p + 1:
        raise ValueError(f"panel needs at least p + 1 = {p + 1} rows")
    init = spec.initial_belief()
    x, y = design_stack(w_seq, panel, z, spec.recipe), panel[p:]
    run = run_filter(init.mean, init.cov, t_len - p, spec.state_noise,
                     steps(x, y), t0=p)
    run.context = {"panel": panel, "w_seq": w_seq, "z": z,
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


@np.errstate(over="ignore", invalid="ignore")
def forecast_gaussian(run: FilterRun, spec: GaussianSpec, horizon: int,
                      future_w=None, future_z=None) -> List[GaussianForecast]:
    """Iterated h-step forecasts from the final filtered belief.

    Each horizon's design is built on the forecast means before it. For
    any lag order and network powers, with the lag matrices
    B_l = sum_r beta_{l,r} W^r + beta_{own,l} I of the horizon's
    coefficient mean (``DesignRecipe.lag_columns``) and A = [B_1 ... B_p],
    the covariance is X P X' + R + A S A': P is the coefficient variance
    and S that of the stacked lag errors, newest first, which takes a
    VAR(p)'s companion step (Lütkepohl 2005, 2.1). It is exact at h = 1,
    and with known coefficients (P and Q zero) it is the VAR(p) forecast
    MSE at every h.
    ``future_w``, if given, holds the network of each horizon (an oracle
    path, or an approximate network: ``future_w=[w_hat]`` at h = 1 is the
    plug-in forecast under w_hat); otherwise the last fitted network is
    carried forward. ``future_z`` holds the covariates of each horizon; a
    recipe with covariate columns requires it, and one without them
    rejects it. Raises NumericalError when a horizon's mean or covariance
    is not finite, without numpy's overflow warnings on the way there.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    recipe, p = spec.recipe, spec.recipe.lag_order
    m, p_state, q_mat, lags = _origin(run, spec.state_noise, p)
    n, f = lags[0].shape[0], spec.state_noise.transition
    r_mat = spec.obs_noise.matrix(n)
    lag_columns = recipe.lag_columns()

    inputs = _horizon_inputs(run, recipe, horizon, future_w, future_z)
    sigma = np.zeros((p * n, p * n))
    forecasts = []
    for k, (w_k, z_k) in enumerate(inputs, start=1):
        # The coefficients step as in the filter's prediction: mean F m and
        # variance F P F' + Q, so P + h Q at horizon h when F is None.
        m, p_state = _time_update(m, p_state, q_mat, f)
        x_k = build_design(w_k, lags, z_k, recipe)
        mean_k = x_k @ m
        a = lag_matrices(m, lag_columns, w_k)
        a_sigma = a @ sigma
        cov_k = x_k @ p_state @ x_k.T + r_mat + a_sigma @ a.T
        cov_k = 0.5 * (cov_k + cov_k.T)
        if not (np.all(np.isfinite(mean_k)) and np.all(np.isfinite(cov_k))):
            raise NumericalError(f"forecast at horizon {k} is not finite")
        forecasts.append(GaussianForecast(mean=mean_k, cov=cov_k, horizon=k))
        lags = [mean_k] + lags[:-1]
        # The companion step: [[cov_k, C], [C', S_11]], C = (A S)[:, :(p-1)N].
        sigma[n:, n:] = sigma[:-n, :-n]
        sigma[:n, n:], sigma[n:, :n] = a_sigma[:, :-n], a_sigma[:, :-n].T
        sigma[:n, :n] = cov_k
    return forecasts


def mc_forecast_gaussian(run: FilterRun, spec: GaussianSpec, horizon: int,
                         n_draws: int, rng_seed: int,
                         future_w=None, future_z=None) -> List[dict]:
    """Monte-Carlo reference forecasts: sample coefficient paths and
    innovations through the recursion; returns per-horizon draw matrices.

    All draws advance together, and each horizon's S x N observation
    noise is one ``standard_normal`` block, drawn from that horizon's
    observation stream and taken through chol(R) one slab of draws at a
    time (``_by_slab``; see ``_simulate_draws``). Draw s does not depend
    on ``n_draws``, nor its path up to h on ``horizon``.
    ``future_w`` and ``future_z`` are as in ``forecast_gaussian``.
    """
    if horizon < 1 or n_draws < 1:
        raise ValueError("horizon and n_draws must be >= 1")
    # chol(R), formed once at the N of the draw blocks.
    r_chol = cache(lambda n: np.linalg.cholesky(spec.obs_noise.matrix(n)))

    def observe(h, block, rng):
        block += _by_slab(rng.standard_normal(block.shape),
                          r_chol(block.shape[1]).T)
        return block

    draws = _simulate_draws(run, spec.recipe, spec.state_noise, horizon,
                            n_draws, rng_seed, future_w, future_z, observe)
    return [{"horizon": k + 1, "draws": draws[k]} for k in range(horizon)]


def fit_joint_node_edge(panel: np.ndarray, edge_obs: np.ndarray, w_seq,
                        spec: GaussianSpec, edge: EdgeSubmodel,
                        design_fn: Optional[Callable] = None) -> FilterRun:
    """Joint filter over the stacked node-edge state.

    ``spec`` is the node model's, and ``edge`` the edge block's: the
    T x M ``edge_obs`` are a_t = L psi_t + noise(U), with the loading L,
    U and the constant state noise (and transition) of psi_t.
    Per step: predict with blockdiag(F_node, F_edge) and blockdiag(Q_node,
    Q_edge), then update with the edge block [0 | L] followed by the node
    block [X_t | 0]. A block without a transition F contributes the
    identity; with neither, the state is a random walk. By default
    the node design is built from ``w_seq`` and the lagged panel;
    ``design_fn(t, lags, a_t)`` overrides it when the design depends on
    the realized edges.
    """
    panel = np.asarray(panel, dtype=float)
    edge_obs = np.asarray(edge_obs, dtype=float)
    if not (np.all(np.isfinite(panel)) and np.all(np.isfinite(edge_obs))):
        raise ValueError("panel and edge_obs must be finite")
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
    f_joint = None
    if (spec.state_noise.transition is not None
            or edge.state_noise.transition is not None):
        f_joint = np.eye(dim)
        for f, block in ((spec.state_noise.transition, slice(0, k_n)),
                         (edge.state_noise.transition, slice(k_n, dim))):
            if f is not None:
                f_joint[block, block] = f
    mean0 = np.concatenate([spec.initial_belief().mean, np.zeros(k_e)])

    if design_fn is None:
        x = design_stack(w_seq, panel, None, spec.recipe)
    else:
        x = np.array([design_fn(t, [panel[t - l] for l in range(1, p + 1)],
                                edge_obs[t]) for t in range(p, t_len)], dtype=float)
    h_node = np.concatenate([x, np.zeros((t_len - p, n, k_e))], axis=2)
    h_edge = np.hstack([np.zeros((m_e, k_n)), loading])
    u = _as_r(edge.u)
    node_step = _block_steps(h_node, spec.obs_noise.block_r(n), panel[p:])

    def edge_then_node(i, m, cov):
        m, cov, ll_edge = _step(m, cov, h_edge, u, edge_obs[p + i])
        m, cov, ll_node = node_step(i, m, cov)
        return m, cov, ll_edge + ll_node

    run = run_filter(mean0, spec.p0_scale * np.eye(dim), t_len - p,
                     StateNoiseSpec(q=q_joint, transition=f_joint),
                     edge_then_node, t0=p)
    run.context = {"panel": panel, "w_seq": w_seq, "z": None,
                   "obs_times": list(range(p, t_len))}
    return run

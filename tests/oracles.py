"""Independent reference implementations used as test oracles.

Deliberately naive: brute-force joint-Gaussian conditioning for the
Kalman recursions, subset enumeration for hop coefficients, and dense
triple sums for CP tensors. Kept separate from the package under test.
"""

import itertools
import warnings

import numpy as np
from scipy import linalg, stats

from nssm.design import build_design, lag_matrices
from nssm.lgss import (
    Belief,
    FilterRun,
    ObsBlock,
    predict,
    two_block_update,
    update,
)
from nssm.poissonmodel import INVERSION_CUTOFF


def joint_gaussian_filter_smoother(m0, p0, q_seq, h_seq, r_seq, y_seq):
    """Marginal filtered and smoothed moments by dense joint conditioning.

    Random-walk state theta_0..theta_T, observations y_t = H_t theta_t +
    noise for t = 1..T. Returns (filtered, smoothed) lists of (mean, cov)
    for theta_1..theta_T; filtered entry t conditions on y_1..y_t,
    smoothed on all observations.
    """
    k = m0.shape[0]
    t_len = len(y_seq)
    dim = (t_len + 1) * k

    mean_joint = np.tile(m0, t_len + 1)
    cov_joint = np.zeros((dim, dim))
    cum = [p0.copy()]
    for t in range(t_len):
        cum.append(cum[-1] + q_seq[t])
    for s in range(t_len + 1):
        for t in range(t_len + 1):
            cov_joint[s * k:(s + 1) * k, t * k:(t + 1) * k] = cum[min(s, t)]

    def condition(upto):
        rows = sum(h.shape[0] for h in h_seq[:upto])
        h_big = np.zeros((rows, dim))
        r_big = np.zeros((rows, rows))
        y_big = np.zeros(rows)
        pos = 0
        for t in range(upto):
            m = h_seq[t].shape[0]
            h_big[pos:pos + m, (t + 1) * k:(t + 2) * k] = h_seq[t]
            r_big[pos:pos + m, pos:pos + m] = r_seq[t]
            y_big[pos:pos + m] = y_seq[t]
            pos += m
        s_mat = h_big @ cov_joint @ h_big.T + r_big
        gain = cov_joint @ h_big.T @ np.linalg.inv(s_mat)
        mean_c = mean_joint + gain @ (y_big - h_big @ mean_joint)
        cov_c = cov_joint - gain @ h_big @ cov_joint
        return mean_c, cov_c

    filtered, smoothed = [], []
    for t in range(1, t_len + 1):
        mean_c, cov_c = condition(t)
        sl = slice(t * k, (t + 1) * k)
        filtered.append((mean_c[sl], cov_c[sl, sl]))
    mean_all, cov_all = condition(t_len)
    for t in range(1, t_len + 1):
        sl = slice(t * k, (t + 1) * k)
        smoothed.append((mean_all[sl], cov_all[sl, sl]))
    return filtered, smoothed


def joint_gaussian_loglik(m0, p0, q_seq, h_seq, r_seq, y_seq):
    """Log-density of all observations under the dense joint Gaussian of
    the random-walk model in ``joint_gaussian_filter_smoother``."""
    k = m0.shape[0]
    t_len = len(y_seq)
    dim = (t_len + 1) * k
    cum = [p0.copy()]
    for t in range(t_len):
        cum.append(cum[-1] + q_seq[t])
    cov_joint = np.zeros((dim, dim))
    for s in range(t_len + 1):
        for t in range(t_len + 1):
            cov_joint[s * k:(s + 1) * k, t * k:(t + 1) * k] = cum[min(s, t)]
    rows = sum(h.shape[0] for h in h_seq)
    h_big = np.zeros((rows, dim))
    r_big = np.zeros((rows, rows))
    pos = 0
    for t in range(t_len):
        m = h_seq[t].shape[0]
        h_big[pos:pos + m, (t + 1) * k:(t + 2) * k] = h_seq[t]
        r_big[pos:pos + m, pos:pos + m] = r_seq[t]
        pos += m
    resid = np.concatenate(y_seq) - h_big @ np.tile(m0, t_len + 1)
    # From a Cholesky factor of the innovation covariance, which needs it
    # positive definite and no more: scipy's logpdf also rejects one whose
    # smallest eigenvalue is tiny against its largest.
    chol = np.linalg.cholesky(h_big @ cov_joint @ h_big.T + r_big)
    white = linalg.solve_triangular(chol, resid, lower=True)
    return float(-0.5 * (white @ white) - np.sum(np.log(np.diag(chol)))
                 - 0.5 * len(resid) * np.log(2.0 * np.pi))


def hop_coeff_subset_sum(beta1, beta2, t, h):
    """c[r] by explicit enumeration of the r-subsets of steps 1..h."""
    steps = list(range(t + 1, t + h + 1))
    c = np.zeros(h + 1)
    for r in range(h + 1):
        total = 0.0
        for subset in itertools.combinations(range(h), r):
            prod = 1.0
            for i, step in enumerate(steps):
                prod *= beta1[step] if i in subset else beta2[step]
            total += prod
        c[r] = total
    return c


def cp_dense_slices(mode1, mode2, mode3):
    """Elementwise triple-sum tensor reconstruction."""
    rank, n = mode1.shape
    p = mode3.shape[1]
    slices = np.zeros((p, n, n))
    for l in range(p):
        for i in range(n):
            for j in range(n):
                for r in range(rank):
                    slices[l, i, j] += mode3[r, l] * mode1[r, i] * mode2[r, j]
    return slices


def conditional_design_hstack(f, mode, y):
    """The CP conditional design as R blocks side by side: alpha_r I
    (mode 1), mode1_r s_r' (mode 2) or mode1_r m_r' (mode 3), with s_r and
    m_r as in ``tensorcp.conditional_design``; y is the p x N lag block."""
    s = f.mode3 @ y
    if mode == 1:
        alphas = np.einsum("rn,rn->r", f.mode2, s)
        return np.hstack([alphas[r] * np.eye(f.n_nodes)
                          for r in range(f.rank)])
    if mode == 2:
        return np.hstack([np.outer(f.mode1[r], s[r]) for r in range(f.rank)])
    m = y @ f.mode2.T  # p x R
    return np.hstack([np.outer(f.mode1[r], m[:, r]) for r in range(f.rank)])


def block_product_loop(w, y):
    """Y W' for an S x N block, each entry (s, i) a plain loop over row
    i's nonzeros w_ij in column order, acc = 0 then acc = acc + w_ij y_sj,
    run for all draws at once: the draws are summed independently."""
    w = np.asarray(w, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape)
    for i in range(w.shape[0]):
        acc = np.zeros(y.shape[0])
        for j in np.flatnonzero(w[i]):
            acc = acc + w[i, j] * y[:, j]
        out[:, i] = acc
    return out


def _dense_design(w, lags, z, recipe):
    """N x K design from the recipe's column order, with explicit powers
    of W."""
    n = w.shape[0]
    cols = []
    if recipe.include_intercept:
        cols.append(np.ones(n))
    if recipe.include_network_lags:
        for r in recipe.network_powers:
            w_r = np.linalg.matrix_power(w, r)
            cols.extend(w_r @ y for y in lags)
    if recipe.include_own_lags:
        cols.extend(lags)
    if recipe.covariate_count > 0:
        cols.extend(np.asarray(z, dtype=float).T)
    return np.column_stack(cols)


def _mc_start(run, state_noise):
    """Final filtered belief and the Cholesky factors of P and Q that
    both Monte-Carlo forecasters draw with."""
    from nssm.gaussmodel import _state_q

    belief = run.beliefs_filtered[-1]
    k = belief.dim
    q_mat, _ = _state_q(state_noise,
                        [b.mean for b in run.beliefs_filtered[-2:]], k)
    q_chol = np.linalg.cholesky(q_mat + 1e-14 * np.eye(k))
    p_chol = np.linalg.cholesky(belief.cov + 1e-12 * np.eye(k))
    return belief, p_chol, q_chol


def _mc_networks(run, horizon, future_w):
    ctx = run.context
    w_seq, t_last = ctx["w_seq"], ctx["obs_times"][-1]
    if future_w is not None:
        return [future_w[h].entries for h in range(horizon)]
    if hasattr(w_seq, "entries"):
        last = w_seq
    else:
        last = w_seq[t_last] if len(w_seq) > 1 else w_seq[0]
    return [last.entries] * horizon


def _mc_streams(rng_seed, horizon):
    """The generators both Monte-Carlo forecasters draw from, one per
    (horizon, variate): the initial draw, then per horizon the state noise
    and the observation. Each is shared by all draws, which take their
    values from it in draw order."""
    def stream(h, kind):
        return np.random.default_rng([rng_seed, h, kind])

    return (stream(0, 1), [stream(h, 1) for h in range(1, horizon + 1)],
            [stream(h, 2) for h in range(1, horizon + 1)])


def _mc_transition(state_noise, k):
    f = state_noise.transition
    return np.eye(k) if f is None else f


def mc_forecast_per_draw(run, spec, horizon, n_draws, stab, rng_seed,
                         future_w=None, future_z=None):
    """Poisson Monte-Carlo forecast, one draw at a time.

    Draw s takes K initial normals from the initial stream, then per
    horizon h K state normals from the horizon's state stream and N
    uniforms from its observation stream; each stream is shared by all
    draws, so draw s takes the s-th values of each. A count whose
    intensity is below the cut-off is the Poisson quantile of its uniform,
    by ``scipy.stats.poisson.ppf``; the others are ``poisson`` draws from
    the horizon's fallback stream ``[rng_seed, h, 3]``, taken in draw
    order. The coefficients step as theta <- phi F theta + (1 - phi) m +
    Q^1/2 e. Returns per-horizon (intensities, counts), each S x N.
    """
    panel = run.context["panel"]
    t_last = run.context["obs_times"][-1]
    n, p = panel.shape[1], spec.recipe.lag_order
    belief, p_chol, q_chol = _mc_start(run, spec.state_noise)
    k = belief.dim
    f = _mc_transition(spec.state_noise, k)
    networks = _mc_networks(run, horizon, future_w)
    init_rng, state_rngs, obs_rngs = _mc_streams(rng_seed, horizon)
    big_rngs = [np.random.default_rng([rng_seed, h, 3])
                for h in range(1, horizon + 1)]
    phi, eta_cap, lam_cap = stab.phi, stab.eta_max, stab.lambda_max

    intensities = [np.empty((n_draws, n)) for _ in range(horizon)]
    counts = [np.empty((n_draws, n), dtype=np.int64) for _ in range(horizon)]
    for s in range(n_draws):
        theta = belief.mean + p_chol @ init_rng.standard_normal(k)
        lag_window = [panel[t_last - l + 1].copy() for l in range(1, p + 1)]
        for h in range(horizon):
            theta = phi * (f @ theta) + (1.0 - phi) * belief.mean \
                + q_chol @ state_rngs[h].standard_normal(k)
            z_h = None if future_z is None else future_z[h]
            x_h = _dense_design(networks[h], lag_window, z_h, spec.recipe)
            eta = np.clip(x_h @ theta, -eta_cap, eta_cap)
            lam = np.minimum(np.exp(eta), lam_cap)
            u = obs_rngs[h].random(n)
            small = lam < INVERSION_CUTOFF
            y_h = np.empty(n, dtype=np.int64)
            y_h[small] = stats.poisson.ppf(u[small], lam[small])
            y_h[~small] = big_rngs[h].poisson(lam[~small])
            intensities[h][s] = lam
            counts[h][s] = y_h
            lag_window = [y_h.astype(float)] + lag_window[:-1]
    return intensities, counts


def mc_forecast_gaussian_per_draw(run, spec, horizon, n_draws, rng_seed,
                                  future_w=None, future_z=None):
    """Gaussian Monte-Carlo forecast, one draw at a time.

    Draw s takes K initial normals from the initial stream, then per
    horizon h K state normals from the horizon's state stream and N
    observation normals, through chol(R), from its observation stream;
    each stream is shared by all draws, so draw s takes the s-th values
    of each. The coefficients step as theta <- F theta + Q^1/2 e.
    Returns the per-horizon S x N draws.
    """
    panel = run.context["panel"]
    t_last = run.context["obs_times"][-1]
    n, p = panel.shape[1], spec.recipe.lag_order
    belief, p_chol, q_chol = _mc_start(run, spec.state_noise)
    k = belief.dim
    f = _mc_transition(spec.state_noise, k)
    networks = _mc_networks(run, horizon, future_w)
    init_rng, state_rngs, obs_rngs = _mc_streams(rng_seed, horizon)
    r_chol = np.linalg.cholesky(spec.obs_noise.matrix(n))

    draws = [np.empty((n_draws, n)) for _ in range(horizon)]
    for s in range(n_draws):
        theta = belief.mean + p_chol @ init_rng.standard_normal(k)
        lag_window = [panel[t_last - l + 1].copy() for l in range(1, p + 1)]
        for h in range(horizon):
            theta = f @ theta + q_chol @ state_rngs[h].standard_normal(k)
            z_h = None if future_z is None else future_z[h]
            x_h = _dense_design(networks[h], lag_window, z_h, spec.recipe)
            y_h = x_h @ theta + r_chol @ obs_rngs[h].standard_normal(n)
            draws[h][s] = y_h
            lag_window = [y_h] + lag_window[:-1]
    return draws


def forecast_gaussian_lag1(run, spec, horizon, future_w=None, future_z=None):
    """The closed-form Gaussian forecast as written for p = 1 and network
    power 1 alone: the spillover matrix beta1 W + beta2 I, its two
    coefficients found by column label, carries the previous horizon's
    forecast covariance. Returns the per-horizon (mean, cov) pairs."""
    from nssm.design import spillover_matrix
    from nssm.gaussmodel import _horizon_inputs, _origin
    from nssm.lgss import _time_update

    recipe = spec.recipe
    assert recipe.lag_order == 1 and (not recipe.include_network_lags
                                      or tuple(recipe.network_powers) == (1,))
    labels = recipe.column_labels()
    i_net = labels.index("WY_lag_1") if "WY_lag_1" in labels else None
    i_own = labels.index("Y_lag_1") if "Y_lag_1" in labels else None
    m, p_state, q_mat, (y_prev,) = _origin(run, spec.state_noise, 1)
    n, f = y_prev.shape[0], spec.state_noise.transition
    r_mat = spec.obs_noise.matrix(n)
    sigma_prev = np.zeros((n, n))
    out = []
    for w_k, z_k in _horizon_inputs(run, recipe, horizon, future_w, future_z):
        m, p_state = _time_update(m, p_state, q_mat, f)
        x_k = build_design(w_k, [y_prev], z_k, recipe)
        mean_k = x_k @ m
        beta1 = m[i_net] if i_net is not None else 0.0
        beta2 = m[i_own] if i_own is not None else 0.0
        b_hat = spillover_matrix(float(beta1), float(beta2), w_k)
        cov_k = x_k @ p_state @ x_k.T + r_mat + b_hat @ sigma_prev @ b_hat.T
        cov_k = 0.5 * (cov_k + cov_k.T)
        out.append((mean_k, cov_k))
        y_prev, sigma_prev = mean_k, cov_k
    return out


def forecast_gaussian_companion(run, spec, horizon, future_w=None,
                                future_z=None):
    """The closed-form Gaussian forecast for any lag order, as written
    with A = [B_1 ... B_p] and its products with the stacked lag
    covariance S formed at every horizon, h = 1 (where S = 0) too.
    Returns the per-horizon (mean, cov) pairs."""
    from nssm.gaussmodel import _horizon_inputs, _origin
    from nssm.lgss import _time_update

    recipe, p = spec.recipe, spec.recipe.lag_order
    m, p_state, q_mat, lags = _origin(run, spec.state_noise, p)
    n, f = lags[0].shape[0], spec.state_noise.transition
    r_mat = spec.obs_noise.matrix(n)
    sigma = np.zeros((p * n, p * n))
    out = []
    for w_k, z_k in _horizon_inputs(run, recipe, horizon, future_w, future_z):
        m, p_state = _time_update(m, p_state, q_mat, f)
        x_k = build_design(w_k, lags, z_k, recipe)
        mean_k = x_k @ m
        a = lag_matrices(m, recipe.lag_columns(), w_k)
        a_sigma = a @ sigma
        cov_k = x_k @ p_state @ x_k.T + r_mat + a_sigma @ a.T
        cov_k = 0.5 * (cov_k + cov_k.T)
        out.append((mean_k, cov_k))
        lags = [mean_k] + lags[:-1]
        sigma[n:, n:] = sigma[:-n, :-n]
        sigma[:n, n:], sigma[n:, :n] = a_sigma[:, :-n], a_sigma[:, :-n].T
        sigma[:n, :n] = cov_k
    return out


def var_forecast_mse(lag_mats, r, horizon):
    """h-step forecast MSE of a VAR(p) with known lag matrices B_1..B_p and
    innovation covariance R, sum_{i<h} Phi_i R Phi_i' with the moving-
    average matrices Phi_0 = I, Phi_i = sum_{l<=min(i,p)} B_l Phi_{i-l}
    (Lutkepohl 2005, 2.2.2). Returns the MSEs at h = 1..horizon."""
    n = r.shape[0]
    phis = [np.eye(n)]
    for i in range(1, horizon):
        phis.append(sum(b @ phis[i - l]
                        for l, b in enumerate(lag_mats[:i], start=1)))
    return [sum(phi @ r @ phi.T for phi in phis[:h])
            for h in range(1, horizon + 1)]


def spectral_radius(m):
    """Largest eigenvalue modulus, exact (from the eigenvalues)."""
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def companion_radius_dense(theta_path, lag_columns, w_seq):
    """Largest spectral radius over t of the dense pN x pN VAR(p) companion
    [[B_1 ... B_p], [I, 0]], assembled from ``lag_matrices`` and solved as
    one eigenproblem per time step."""
    rho = 0.0
    for t, theta in enumerate(np.asarray(theta_path, dtype=float)):
        a = lag_matrices(theta, lag_columns, _w_at_t(w_seq, t))
        comp = np.eye(a.shape[1], k=-len(a))  # the [I, 0] rows
        comp[:len(a)] = a
        rho = max(rho, float(np.max(np.abs(np.linalg.eigvals(comp)))))
    return rho


# Per-step references for the filter kernel: the fit loops as they were
# written before they shared one kernel, one validated predict, design and
# update per time step.

def _w_at_t(w_seq, t):
    if hasattr(w_seq, "entries"):
        return w_seq
    return w_seq[t] if len(w_seq) > 1 else w_seq[0]


def _z_at_t(z, t):
    if z is None:
        return None
    z = np.asarray(z, dtype=float)
    return z if z.ndim == 2 else z[t]


def _threshold_q(spec, filtered, k):
    """Q and indicators for the next prediction: q0 for the first two
    steps, then q0 + s (q1 - q0) with s_j = 1 iff the last filtered
    increment of component j exceeds d_j."""
    if spec.mode == "constant":
        return spec.q, None
    if len(filtered) < 2:
        return np.diag(spec.q0), np.zeros(k, dtype=int)
    s = (np.abs(filtered[-1].mean - filtered[-2].mean) > spec.d).astype(int)
    return np.diag(spec.q0 + s * (spec.q1 - spec.q0)), s


def _per_step_run(filtered, predicted, per_step, s_states=None):
    return FilterRun(means=np.array([b.mean for b in filtered]),
                     covs=np.array([b.cov for b in filtered]),
                     pred_means=np.array([b.mean for b in predicted]),
                     pred_covs=np.array([b.cov for b in predicted]),
                     per_step_loglik=np.asarray(per_step),
                     t0=filtered[0].time_index,
                     threshold_states=None if s_states is None
                     else np.asarray(s_states))


def fit_gaussian_per_step(panel, w_seq, z, spec):
    """fit_gaussian one time step at a time."""
    panel = np.asarray(panel, dtype=float)
    t_len, n = panel.shape
    p, k = spec.recipe.lag_order, spec.recipe.n_cols
    r = spec.obs_noise.block_r(n)
    belief = spec.initial_belief()
    filtered, predicted, per_step = [], [], []
    s_states = [] if spec.state_noise.mode == "threshold" else None
    for t in range(p, t_len):
        lags = [panel[t - l] for l in range(1, p + 1)]
        x_t = build_design(_w_at_t(w_seq, t), lags, _z_at_t(z, t), spec.recipe)
        q_t, s_t = _threshold_q(spec.state_noise, filtered, k)
        if s_states is not None:
            s_states.append(s_t)
        belief = predict(belief, q_t, f=spec.state_noise.transition, time_index=t)
        predicted.append(belief)
        belief, ll = update(belief, ObsBlock(h=x_t, r=r, y=panel[t]))
        filtered.append(belief)
        per_step.append(ll)
    return _per_step_run(filtered, predicted, per_step, s_states)


def fit_poisson_per_step(panel, w_seq, spec, z=None):
    """fit_poisson one time step at a time: the log link linearized at
    each predicted state, log-likelihood at the predictive intensity."""
    panel = np.asarray(panel, dtype=float)
    t_len = panel.shape[0]
    p, k = spec.recipe.lag_order, spec.recipe.n_cols
    belief = spec.initial_belief()
    filtered, predicted, per_step = [], [], []
    s_states = [] if spec.state_noise.mode == "threshold" else None
    for t in range(p, t_len):
        lags = [panel[t - l] for l in range(1, p + 1)]
        x_t = build_design(_w_at_t(w_seq, t), lags, _z_at_t(z, t),
                           spec.recipe)
        q_t, s_t = _threshold_q(spec.state_noise, filtered, k)
        if s_states is not None:
            s_states.append(s_t)
        belief = predict(belief, q_t, f=spec.state_noise.transition, time_index=t)
        predicted.append(belief)
        eta = np.clip(x_t @ belief.mean, -20.0, 20.0)
        lam = np.clip(np.exp(eta), 1e-8, None)
        per_step.append(float(np.sum(stats.poisson.logpmf(panel[t], lam))))
        belief, _ = update(belief, ObsBlock(h=x_t, r=1.0 / lam,
                                            y=eta + (panel[t] - lam) / lam))
        filtered.append(belief)
    return _per_step_run(filtered, predicted, per_step, s_states)


def fit_joint_node_edge_per_step(panel, edge_obs, w_seq, spec, edge,
                                 design_fn=None):
    """fit_joint_node_edge one time step at a time: predict the stacked
    state (with blockdiag(F_node, F_edge), identity for a missing F, when
    either block has a transition), update on the edge block [0 | L], then
    the node block [X_t | 0]."""
    panel = np.asarray(panel, dtype=float)
    t_len, n = panel.shape
    p, k_n = spec.recipe.lag_order, spec.recipe.n_cols
    loading = np.asarray(edge.loading, dtype=float)
    m_e, k_e = loading.shape
    dim = k_n + k_e
    belief = Belief(mean=np.concatenate([spec.initial_belief().mean, np.zeros(k_e)]),
                    cov=spec.p0_scale * np.eye(dim))
    q_joint = np.zeros((dim, dim))
    q_joint[:k_n, :k_n] = spec.state_noise.q
    q_joint[k_n:, k_n:] = edge.state_noise.q
    f_node, f_edge = spec.state_noise.transition, edge.state_noise.transition
    f_joint = None
    if f_node is not None or f_edge is not None:
        f_joint = np.zeros((dim, dim))
        f_joint[:k_n, :k_n] = np.eye(k_n) if f_node is None else f_node
        f_joint[k_n:, k_n:] = np.eye(k_e) if f_edge is None else f_edge
    h_edge = np.hstack([np.zeros((m_e, k_n)), loading])
    r_node = spec.obs_noise.block_r(n)
    filtered, predicted, per_step = [], [], []
    for t in range(p, t_len):
        belief = predict(belief, q_joint, f=f_joint, time_index=t)
        predicted.append(belief)
        lags = [panel[t - l] for l in range(1, p + 1)]
        if design_fn is not None:
            x_t = np.asarray(design_fn(t, lags, edge_obs[t]), dtype=float)
        else:
            x_t = build_design(_w_at_t(w_seq, t), lags, None, spec.recipe)
        belief, ll_e, ll_n = two_block_update(
            belief, ObsBlock(h=h_edge, r=edge.u, y=edge_obs[t]),
            ObsBlock(h=np.hstack([x_t, np.zeros((n, k_e))]), r=r_node,
                     y=panel[t]))
        filtered.append(belief)
        per_step.append(ll_e + ll_n)
    return _per_step_run(filtered, predicted, per_step)


def cp_filter_per_step(panel, rank, p, q_scale=1e-3, r_scale=1.0,
                       sweep_schedule=(1, 2, 3), n_sweeps=2, p0_scale=1.0,
                       init_seed=0):
    """cp_filter_alternating on validated beliefs: per step one predict,
    then one conditional update per mode of the sweep; the step's
    log-likelihood is the first update's."""
    from nssm.tensorcp import CPFactors, conditional_design

    panel = np.asarray(panel, dtype=float)
    t_len, n = panel.shape
    dim = rank * (2 * n + p)
    a = rank * n
    slices = {1: slice(0, a), 2: slice(a, 2 * a), 3: slice(2 * a, dim)}
    rng = np.random.default_rng(init_seed)
    mean0 = np.zeros(dim)
    mean0[slices[1]] = 0.1 * rng.standard_normal(a)
    mean0[slices[2]] = 0.1 * rng.standard_normal(a)
    m3 = np.zeros((rank, p))
    m3[:, 0] = 1.0 / np.sqrt(p)
    mean0[slices[3]] = m3.ravel()
    belief = Belief(mean=mean0, cov=p0_scale * np.eye(dim))
    filtered, predicted, per_step = [], [], []
    for t in range(p, t_len):
        belief = predict(belief, q_scale * np.eye(dim), time_index=t)
        predicted.append(belief)
        lags = np.stack([panel[t - l] for l in range(1, p + 1)])
        step_ll = None
        for _ in range(n_sweeps):
            for mode in sweep_schedule:
                factors = CPFactors.unstack(belief.mean, rank, n, p)
                h_block = conditional_design(factors, mode, lags)
                if not np.any(h_block):
                    warnings.warn("degenerate conditional design", RuntimeWarning)
                    continue
                h_full = np.zeros((n, dim))
                h_full[:, slices[mode]] = h_block
                belief, ll = update(belief, ObsBlock(h=h_full, r=r_scale * np.eye(n),
                                                     y=panel[t]))
                step_ll = ll if step_ll is None else step_ll
        filtered.append(belief)
        per_step.append(0.0 if step_ll is None else step_ll)
    return _per_step_run(filtered, predicted, per_step)

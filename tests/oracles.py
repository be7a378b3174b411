"""Independent reference implementations used as test oracles.

Deliberately naive: brute-force joint-Gaussian conditioning for the
Kalman recursions, subset enumeration for hop coefficients, and dense
triple sums for CP tensors. Kept separate from the package under test.
"""

import itertools

import numpy as np
from scipy import stats


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
    y_big = np.concatenate(y_seq)
    mean_y = h_big @ np.tile(m0, t_len + 1)
    cov_y = h_big @ cov_joint @ h_big.T + r_big
    return float(stats.multivariate_normal.logpdf(y_big, mean=mean_y,
                                                  cov=cov_y))


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


def mc_forecast_per_draw(run, spec, horizon, n_draws, stab, rng_seed,
                         future_w=None):
    """Poisson Monte-Carlo forecast, one draw at a time.

    Draw s uses ``default_rng([rng_seed, s])``: K initial normals, then per
    horizon K state normals and N Poisson counts. Returns per-horizon
    (intensities, counts), each S x N.
    """
    panel = run.context["panel"]
    t_last = run.context["obs_times"][-1]
    n, p = panel.shape[1], spec.recipe.lag_order
    belief, p_chol, q_chol = _mc_start(run, spec.state_noise)
    k = belief.dim
    networks = _mc_networks(run, horizon, future_w)
    phi = stab.phi if stab.enabled else 1.0
    eta_cap = stab.eta_max if stab.enabled else 20.0
    lam_cap = stab.lambda_max if stab.enabled else np.inf

    intensities = [np.empty((n_draws, n)) for _ in range(horizon)]
    counts = [np.empty((n_draws, n), dtype=np.int64) for _ in range(horizon)]
    for s in range(n_draws):
        rng = np.random.default_rng([rng_seed, s])
        theta = belief.mean + p_chol @ rng.standard_normal(k)
        lag_window = [panel[t_last - l + 1].copy() for l in range(1, p + 1)]
        for h in range(horizon):
            theta = phi * theta + (1.0 - phi) * belief.mean \
                + q_chol @ rng.standard_normal(k)
            x_h = _dense_design(networks[h], lag_window, None, spec.recipe)
            eta = np.clip(x_h @ theta, -eta_cap, eta_cap)
            lam = np.minimum(np.exp(eta), lam_cap)
            y_h = rng.poisson(lam).astype(np.int64)
            intensities[h][s] = lam
            counts[h][s] = y_h
            lag_window = [y_h.astype(float)] + lag_window[:-1]
    return intensities, counts


def mc_forecast_gaussian_per_draw(run, spec, horizon, n_draws, rng_seed,
                                  future_w=None, future_z=None):
    """Gaussian Monte-Carlo forecast, one draw at a time.

    Draw s uses ``default_rng([rng_seed, s])``: K initial normals, then per
    horizon K state normals and N observation normals through chol(R).
    Returns the per-horizon S x N draws.
    """
    panel = run.context["panel"]
    t_last = run.context["obs_times"][-1]
    n, p = panel.shape[1], spec.recipe.lag_order
    belief, p_chol, q_chol = _mc_start(run, spec.state_noise)
    k = belief.dim
    networks = _mc_networks(run, horizon, future_w)
    r_chol = np.linalg.cholesky(spec.obs_noise.matrix(n))

    draws = [np.empty((n_draws, n)) for _ in range(horizon)]
    for s in range(n_draws):
        rng = np.random.default_rng([rng_seed, s])
        theta = belief.mean + p_chol @ rng.standard_normal(k)
        lag_window = [panel[t_last - l + 1].copy() for l in range(1, p + 1)]
        for h in range(horizon):
            theta = theta + q_chol @ rng.standard_normal(k)
            z_h = None if future_z is None else future_z[h]
            x_h = _dense_design(networks[h], lag_window, z_h, spec.recipe)
            y_h = x_h @ theta + r_chol @ rng.standard_normal(n)
            draws[h][s] = y_h
            lag_window = [y_h] + lag_window[:-1]
    return draws

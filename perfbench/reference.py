"""Plain-numpy references that the benchmark checks the program against.

Each is written from the model's definition and calls nothing in nssm,
so agreement with the program is evidence and not a tautology. They are
slow (dense N x N solves, one design column per mean evaluation) and run
only after the timed part.
"""

from __future__ import annotations

import math

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


def network_design(w, y_prev):
    """[1, W y_{t-1}, y_{t-1}]: the TVP-VAR(1) design with one network lag."""
    return np.column_stack([np.ones(y_prev.shape[0]), w @ y_prev, y_prev])


def gaussian_gain_filter(panel, w, m0, p0, q, r_var):
    """Textbook gain-form Kalman filter of the random-walk network TVP-VAR(1)
    with R = r_var I. Returns filtered means (T-1 x K), covariances
    (T-1 x K x K) and per-step innovation log-likelihoods (T-1)."""
    t_len, n = panel.shape
    k = m0.shape[0]
    r = r_var * np.eye(n)
    m, p = m0.astype(float), p0.astype(float)
    means, covs, lls = [], [], []
    for t in range(1, t_len):
        x = network_design(w, panel[t - 1])
        p = p + q
        s = x @ p @ x.T + r
        v = panel[t] - x @ m
        _, logdet = np.linalg.slogdet(s)
        lls.append(-0.5 * (n * LOG_2PI + logdet + v @ np.linalg.solve(s, v)))
        gain = np.linalg.solve(s, x @ p).T
        m = m + gain @ v
        i_kx = np.eye(k) - gain @ x
        p = i_kx @ p @ i_kx.T + gain @ r @ gain.T
        p = 0.5 * (p + p.T)
        means.append(m)
        covs.append(p)
    return np.array(means), np.array(covs), np.array(lls)


# The linearization constants that fit_poisson documents: the linear
# predictor is capped at +-20 and the intensity floored at 1e-8.
ETA_CAP = 20.0
LAMBDA_FLOOR = 1e-8


def poisson_pseudo_filter(panel, w, m0, p0, q):
    """Pseudo-observation filter of the Poisson network DGLM in information
    form: with lam = exp(X m_pred), the pseudo-observation
    X m_pred + (y - lam) / lam has variance diag(1 / lam), so
    P = (P_pred^-1 + X' diag(lam) X)^-1 and
    m = m_pred + P X' diag(lam) (z - X m_pred). Returns filtered means and
    covariances."""
    m, p = m0.astype(float), p0.astype(float)
    means, covs = [], []
    for t in range(1, panel.shape[0]):
        x = network_design(w, panel[t - 1])
        p = p + q
        eta = np.clip(x @ m, -ETA_CAP, ETA_CAP)
        lam = np.maximum(np.exp(eta), LAMBDA_FLOOR)
        z = eta + (panel[t] - lam) / lam
        p = np.linalg.inv(np.linalg.inv(p) + x.T @ (lam[:, None] * x))
        p = 0.5 * (p + p.T)
        m = m + p @ (x.T @ (lam * (z - x @ m)))
        means.append(m)
        covs.append(p)
    return np.array(means), np.array(covs)


def lognormal_mean_intensity(x, m, p, q, phi):
    """E exp(x theta) for theta ~ N(m, phi^2 P + Q), per row of x: the h = 1
    ensemble mean intensity of the damped Monte-Carlo forecast when no cap
    binds."""
    v = phi * phi * p + q
    return np.exp(x @ m + 0.5 * np.einsum("ij,jk,ik->i", x, v, x))


def cp_trilinear_mean(xi, rank, n, p, lags):
    """mu_i = sum_r a_ri sum_j b_rj sum_l c_rl y_{t-l,j} for the stacked
    state xi = (a, b, c); ``lags`` is p x N, most recent first."""
    a = xi[:rank * n].reshape(rank, n)
    b = xi[rank * n:2 * rank * n].reshape(rank, n)
    c = xi[2 * rank * n:].reshape(rank, p)
    return np.einsum("ri,rj,rl,lj->i", a, b, c, lags)


def cp_block_design(xi, block, rank, n, p, lags):
    """N x |block| design of the trilinear mean in one mode block with the
    other blocks held at xi. The mean is linear in each block, so column j
    is the mean with that block set to the j-th unit vector."""
    cols = []
    for j in range(block.start, block.stop):
        e = xi.copy()
        e[block] = 0.0
        e[j] = 1.0
        cols.append(cp_trilinear_mean(e, rank, n, p, lags))
    return np.column_stack(cols)


def cp_alternating_filter(panel, rank, p, q_scale, r_scale, n_sweeps, init_seed):
    """Alternating conditional filter over the stacked CP state: all blocks
    follow random walks with noise q_scale I; each step predicts, then for
    each sweep updates modes 1, 2, 3 in turn on the design of that block
    given the current means (gain form, Joseph covariance). The step's
    log-likelihood is that of its first update. The initial mean follows
    cp_filter_alternating: small random node loadings from
    ``default_rng(init_seed)``, lag profile on the first lag, P0 = I. An all-zero
    design skips its update. Returns filtered means and per-step
    log-likelihoods."""
    t_len, n = panel.shape
    dim = rank * (2 * n + p)
    a = rank * n
    blocks = (slice(0, a), slice(a, 2 * a), slice(2 * a, dim))
    rng = np.random.default_rng(init_seed)
    m = np.zeros(dim)
    m[blocks[0]] = 0.1 * rng.standard_normal(a)
    m[blocks[1]] = 0.1 * rng.standard_normal(a)
    c0 = np.zeros((rank, p))
    c0[:, 0] = 1.0 / math.sqrt(p)
    m[blocks[2]] = c0.ravel()
    cov = np.eye(dim)
    r = r_scale * np.eye(n)
    means, lls = [], []
    for t in range(p, t_len):
        cov = cov + q_scale * np.eye(dim)
        lags = np.stack([panel[t - l] for l in range(1, p + 1)])
        step_ll = None
        for _ in range(n_sweeps):
            for block in blocks:
                h_block = cp_block_design(m, block, rank, n, p, lags)
                if not np.any(h_block):
                    continue
                h = np.zeros((n, dim))
                h[:, block] = h_block
                s = h @ cov @ h.T + r
                v = panel[t] - h @ m
                if step_ll is None:
                    _, logdet = np.linalg.slogdet(s)
                    step_ll = -0.5 * (n * LOG_2PI + logdet
                                      + v @ np.linalg.solve(s, v))
                gain = np.linalg.solve(s, h @ cov).T
                m = m + gain @ v
                i_kh = np.eye(dim) - gain @ h
                cov = i_kh @ cov @ i_kh.T + gain @ r @ gain.T
                cov = 0.5 * (cov + cov.T)
        means.append(m)
        lls.append(0.0 if step_ll is None else step_ll)
    return np.array(means), np.array(lls)

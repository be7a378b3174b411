"""Model analysis: stability, hop-decomposed impulse responses,
aggregation reductions, misspecification bounds, and break detection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .design import _w_at, spillover_matrix
from .graph import (
    InvariantVector,
    Partition,
    WeightMatrix,
    operator_norm,
    quotient_operator,
)
from .lgss import _breaks


@dataclass(frozen=True)
class StabilityReport:
    """Per-time spillover norms and the uniform-contraction verdict."""

    op_norms: np.ndarray
    spectral_radii: np.ndarray
    coefficient_proxy: np.ndarray  # |beta1| * max row sum + |beta2|
    max_op_norm: float
    max_spectral_radius: float
    contraction: bool

    def __post_init__(self):
        if np.any(self.spectral_radii > self.op_norms + 1e-8):
            raise ValueError("spectral radius exceeds operator norm")


@dataclass(frozen=True)
class HopDecomp:
    """Walk-length attribution of the h-step propagation operator."""

    horizon: int
    coefficients: np.ndarray  # length h + 1, index r = hop count

    def __post_init__(self):
        if self.coefficients.shape != (self.horizon + 1,):
            raise ValueError("need exactly horizon + 1 hop coefficients")


@dataclass(frozen=True)
class BreakSet:
    """Per-coefficient activation times of the plug-in threshold rule."""

    activations: Tuple[Tuple[int, ...], ...]
    thresholds: np.ndarray

    def __post_init__(self):
        for times in self.activations:
            if any(t < 2 for t in times):
                raise ValueError("activation times must be >= 2")


def stability_report(beta1_path, beta2_path, w_seq) -> StabilityReport:
    """Evaluate spillover operators along coefficient paths.

    ``w_seq`` may be a single WeightMatrix, a sequence of one, or a
    per-time sequence of the same length as the paths (``_w_at``). B_t's
    spectral radius is max |beta1_t mu + beta2_t| over W's eigenvalues mu;
    its operator norm needs B_t itself (unless W is normal).
    """
    b1 = np.asarray(beta1_path, dtype=float)
    b2 = np.asarray(beta2_path, dtype=float)
    if b1.shape != b2.shape:
        raise ValueError("beta paths must be aligned")
    t_len = b1.shape[0]
    ops, rhos, proxy = np.empty(t_len), np.empty(t_len), np.empty(t_len)
    for t in range(t_len):
        w_t = _w_at(w_seq, t)
        b_t = spillover_matrix(float(b1[t]), float(b2[t]), w_t)
        ops[t] = operator_norm(b_t)
        rhos[t] = np.max(np.abs(b1[t] * w_t.eigenvalues + b2[t]))
        proxy[t] = abs(b1[t]) * float(np.max(w_t.row_sums())) + abs(b2[t])
    return StabilityReport(
        op_norms=ops, spectral_radii=rhos, coefficient_proxy=proxy,
        max_op_norm=float(ops.max()), max_spectral_radius=float(rhos.max()),
        contraction=bool(ops.max() < 1.0),
    )


def companion_radius(theta_path, lag_columns, w_seq) -> float:
    """Largest spectral radius over t of the VAR(p) companion [[B_1 ... B_p],
    [I, 0]], B_l = sum of theta_t[j] W_t^r over ``lag_columns[l - 1]``: a
    polynomial b_l(W_t), so the eigenvalues are those of the N p x p
    companions [[b_1(mu) ... b_p(mu)], [I, 0]] over W_t's eigenvalues mu."""
    theta_path = np.asarray(theta_path, dtype=float)
    if not np.all(np.isfinite(theta_path)):
        raise ValueError("matrix entries must be finite")
    rho = 0.0
    for t, theta in enumerate(theta_path):
        mu = _w_at(w_seq, t).eigenvalues
        comp = np.tile(np.eye(len(lag_columns), k=-1, dtype=complex),
                       (len(mu), 1, 1))  # each with the [I, 0] rows
        for l, cols in enumerate(lag_columns):
            comp[:, 0, l] = sum((theta[j] * mu ** r for j, r in cols), 0.0)
        rho = max(rho, float(np.max(np.abs(np.linalg.eigvals(comp)))))
    return rho


def hop_coefficients(beta1_path, beta2_path, t: int, h: int) -> HopDecomp:
    """Hop coefficients c[r] of the h-step propagation from time t.

    Computed by the O(h^2) elementary-symmetric recursion over the
    factors k = 1..h: each step maps c[r] -> beta2 * c[r] + beta1 * c[r-1],
    using the coefficients at time t + k.
    """
    if h < 1:
        raise ValueError("horizon must be >= 1")
    b1 = np.asarray(beta1_path, dtype=float)
    b2 = np.asarray(beta2_path, dtype=float)
    if t + h >= b1.shape[0]:
        raise ValueError(f"paths must cover times t+1..t+h = {t + 1}..{t + h}")
    c = np.zeros(h + 1)
    c[0] = 1.0
    for k in range(1, h + 1):
        new = np.zeros(h + 1)
        new[0] = b2[t + k] * c[0]
        for r in range(1, k + 1):
            new[r] = b2[t + k] * c[r] + b1[t + k] * c[r - 1]
        c = new
    return HopDecomp(horizon=h, coefficients=c)


def irf(w, decomp: HopDecomp, shock_node: int):
    """Impulse response of a unit shock at one node, with per-hop parts.

    Returns (total, contributions) where contributions[r] = c[r] W^r e_j.
    The network must be static over the horizon; per-time networks break
    the power expansion and are rejected.
    """
    if not isinstance(w, WeightMatrix):
        raise ValueError(
            "time-varying networks are unsupported: the hop expansion "
            "requires a single static W over the horizon"
        )
    n = w.n_nodes
    if not 0 <= shock_node < n:
        raise ValueError("shock node out of range")
    e_j = np.zeros(n)
    e_j[shock_node] = 1.0
    contributions = []
    vec = e_j
    for r in range(decomp.horizon + 1):
        contributions.append(decomp.coefficients[r] * vec)
        vec = w.entries @ vec
    contributions = np.asarray(contributions)
    return contributions.sum(axis=0), contributions


def macro_irf(pi: InvariantVector, beta1_path, beta2_path, t: int, h: int,
              shock_node: int) -> float:
    """Aggregate response pi_j * prod_{k=1}^h (beta1 + beta2) at t+k."""
    b1 = np.asarray(beta1_path, dtype=float)
    b2 = np.asarray(beta2_path, dtype=float)
    if t + h >= b1.shape[0]:
        raise ValueError("paths must cover t+1..t+h")
    prod = float(np.prod(b1[t + 1:t + h + 1] + b2[t + 1:t + h + 1]))
    return float(pi.pi[shock_node]) * prod


def counterfactual_bound(beta1_path, beta2_path, c_w: float, delta_w: float,
                         t: int, h: int) -> float:
    """Lipschitz bound on the h-step propagation change under an edge
    intervention: M^(h-1) * (sum over steps of |beta1|) * delta_w with
    M = max over steps of (|beta1| c_w + |beta2|)."""
    if c_w < 0 or delta_w < 0:
        raise ValueError("c_w and delta_w must be nonnegative")
    b1 = np.asarray(beta1_path, dtype=float)[t + 1:t + h + 1]
    b2 = np.asarray(beta2_path, dtype=float)[t + 1:t + h + 1]
    if b1.shape[0] != h:
        raise ValueError("paths must cover t+1..t+h")
    m = float(np.max(np.abs(b1) * c_w + np.abs(b2))) if h > 0 else 0.0
    return float(m ** (h - 1) * np.sum(np.abs(b1)) * delta_w)


def aggregate_recursion(pi: InvariantVector, beta_paths, zbar_path=None,
                        ybar0: float = 0.0, realized_innovations=None):
    """Scalar reduction ybar_t = b0 + (b1 + b2) ybar_{t-1} + zbar + ebar.

    ``beta_paths`` columns are (beta0, beta1, beta2). With realized
    aggregated innovations supplied the output reproduces the aggregate
    of the vector model exactly; otherwise it is the conditional-mean
    path. Entry 0 is ybar0.
    """
    paths = np.asarray(beta_paths, dtype=float)
    t_len = paths.shape[0]
    out = np.empty(t_len)
    out[0] = ybar0
    for t in range(1, t_len):
        b0, b1, b2 = paths[t, 0], paths[t, 1], paths[t, 2]
        val = b0 + (b1 + b2) * out[t - 1]
        if zbar_path is not None:
            val += zbar_path[t]
        if realized_innovations is not None:
            val += realized_innovations[t]
        out[t] = val
    return out


def meso_reduce(w_seq, part: Partition, panel, beta_paths):
    """Community-level reduction with per-time defect and remainder bounds.

    Returns a dict with the reduced T x C recursion residuals (given the
    realized community averages), per-time delta_t, remainder norms
    ||r_t||, and their bounds |beta1_t| delta_t ||Y_{t-1}||. A covariate
    term Z_t gamma would enter the reduced recursion and the recovered
    innovations alike and cancel from the residuals, so none is taken.
    """
    panel = np.asarray(panel, dtype=float)
    paths = np.asarray(beta_paths, dtype=float)
    t_len = panel.shape[0]
    pi_op = part.averaging_operator()
    ybar = panel @ pi_op.T

    deltas = np.zeros(t_len)
    remainders = np.zeros(t_len)
    bounds = np.zeros(t_len)
    residuals = np.zeros((t_len, part.n_communities))
    for t in range(1, t_len):
        w_t = _w_at(w_seq, t)
        qm = quotient_operator(w_t, part)
        deltas[t] = qm.delta
        b0, b1, b2 = paths[t, 0], paths[t, 1], paths[t, 2]
        pred = b0 + b1 * (qm.omega @ ybar[t - 1]) + b2 * ybar[t - 1]
        # Realized innovations recovered from the panel; the residual of the
        # reduced recursion then isolates the aggregation remainder r_t.
        eps = panel[t] - (b0 + b1 * (w_t.entries @ panel[t - 1])
                          + b2 * panel[t - 1])
        r_t = b1 * (pi_op @ w_t.entries - qm.omega @ pi_op) @ panel[t - 1]
        residuals[t] = pi_op @ panel[t] - pred - pi_op @ eps
        remainders[t] = float(np.linalg.norm(r_t))
        bounds[t] = abs(b1) * deltas[t] * float(np.linalg.norm(panel[t - 1]))
    return {
        "ybar": ybar,
        "residuals": residuals,
        "deltas": deltas,
        "remainder_norms": remainders,
        "remainder_bounds": bounds,
    }


def default_threshold(theta_path: np.ndarray) -> np.ndarray:
    """Data-scaled per-coefficient thresholds c * sqrt(log T / T).

    c is set so the threshold sits at 4 times the median absolute
    increment of each coefficient path (floored at a small positive
    value for constant paths).
    """
    theta = np.asarray(theta_path, dtype=float)
    if theta.ndim == 1:
        theta = theta[:, None]
    t_len = theta.shape[0]
    med = np.median(np.abs(np.diff(theta, axis=0)), axis=0)
    base = np.sqrt(np.log(t_len) / t_len)
    return np.maximum(4.0 * med, 1e-6 * base)


def detect_breaks(theta_path: np.ndarray, d: np.ndarray) -> BreakSet:
    """Plug-in threshold activations s_{j,t} = 1 iff
    |theta_{j,t-1} - theta_{j,t-2}| > d_j (strict), for t = 2..T-1
    (0-based path times)."""
    theta = np.asarray(theta_path, dtype=float)
    if theta.ndim == 1:
        theta = theta[:, None]
    t_len, k = theta.shape
    if t_len < 3:
        raise ValueError("need at least 3 time points")
    d = np.asarray(d, dtype=float)
    if d.shape != (k,) or np.any(d <= 0):
        raise ValueError("d must be length-K positive")
    s = _breaks(theta[1:-1], theta[:-2], d)  # row i is time t = i + 2
    acts = tuple(tuple(int(i) + 2 for i in np.flatnonzero(col)) for col in s.T)
    return BreakSet(activations=acts, thresholds=d)


def sensitivity_bound(b1: float, delta_w: float, y_norm_sq: float) -> float:
    """Forecast-gap bound b1^2 * delta_w^2 * ||Y||^2."""
    if b1 < 0 or delta_w < 0 or y_norm_sq < 0:
        raise ValueError("inputs must be nonnegative")
    return float(b1 ** 2 * delta_w ** 2 * y_norm_sq)

"""Exact linear-Gaussian state-space engine.

One filter kernel, ``run_filter``, serves every panel model: the Gaussian
network TVP-VAR (one observation block per step), the Poisson DGLM (one
block through a pseudo-observation rule) and the joint node-edge model
(an edge block, then a node block). It keeps the state in arrays and
validates its inputs once, not at every step. Its array steps, the
prediction ``_time_update`` and the measurement update ``_step``, also
run under the CP filter's sweep. The public ``predict`` and ``update``
take one step on validated ``Belief`` and ``ObsBlock`` objects;
``update`` wraps ``_step``. Also: RTS smoothing, the innovations
log-likelihood and the threshold-driven state-noise rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

_SYM_TOL = 1e-10


class SingularInnovationError(np.linalg.LinAlgError):
    """Innovation covariance is numerically singular."""

    def __init__(self, message, condition_estimate=None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p + p.T)


def _check_psd(p: np.ndarray, what: str):
    eig_min = float(np.linalg.eigvalsh(p).min())
    if eig_min < -_SYM_TOL:
        raise ValueError(f"{what} has negative eigenvalue {eig_min:.3e}")


@dataclass(frozen=True)
class Belief:
    """Gaussian state summary (mean, covariance) at one time index."""

    mean: np.ndarray
    cov: np.ndarray
    time_index: int = 0

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=float)
        p = _symmetrize(np.asarray(self.cov, dtype=float))
        if p.shape != (m.shape[0], m.shape[0]):
            raise ValueError("cov shape must match mean length")
        _check_psd(p, "belief covariance")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "cov", p)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class StateNoiseSpec:
    """State transition and innovation-variance rule.

    mode ``constant`` uses the fixed psd matrix ``q``; mode ``threshold``
    switches component variances between q0 and q1 according to whether
    the previous filtered increment exceeded d (strict inequality).
    """

    mode: str = "constant"
    q: Optional[np.ndarray] = None
    q0: Optional[np.ndarray] = None
    q1: Optional[np.ndarray] = None
    d: Optional[np.ndarray] = None
    transition: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.mode == "constant":
            if self.q is None:
                raise ValueError("constant mode requires q")
            q = _symmetrize(np.asarray(self.q, dtype=float))
            _check_psd(q, "state noise Q")
            object.__setattr__(self, "q", q)
        elif self.mode == "threshold":
            q0 = np.asarray(self.q0, dtype=float)
            q1 = np.asarray(self.q1, dtype=float)
            d = np.asarray(self.d, dtype=float)
            if not (q0.shape == q1.shape == d.shape):
                raise ValueError("q0, q1, d must have equal shapes")
            if np.any(q0 <= 0) or np.any(q1 <= 0) or np.any(d <= 0):
                raise ValueError("q0, q1, d must be positive")
            if np.any(q0 >= q1):
                raise ValueError("threshold mode requires q0 < q1 componentwise")
            object.__setattr__(self, "q0", q0)
            object.__setattr__(self, "q1", q1)
            object.__setattr__(self, "d", d)
        else:
            raise ValueError(f"unknown state-noise mode {self.mode!r}")
        if self.transition is not None:
            object.__setattr__(self, "transition", np.asarray(self.transition, dtype=float))

    @classmethod
    def constant(cls, q) -> "StateNoiseSpec":
        return cls(mode="constant", q=np.atleast_2d(np.asarray(q, dtype=float)))

    @classmethod
    def threshold(cls, q0, q1, d) -> "StateNoiseSpec":
        return cls(mode="threshold", q0=np.atleast_1d(q0), q1=np.atleast_1d(q1),
                   d=np.atleast_1d(d))


def _as_r(r) -> np.ndarray:
    """Observation noise as a variance vector or a matrix, checked
    positive definite."""
    r = np.asarray(r, dtype=float)
    if r.ndim == 1:
        if not np.all(np.isfinite(r) & (r > 0)):
            raise ValueError("observation noise R must be positive definite")
        return r
    r = np.atleast_2d(r)
    try:
        np.linalg.cholesky(r)
    except np.linalg.LinAlgError as exc:
        raise ValueError("observation noise R must be positive definite") from exc
    return r


@dataclass(frozen=True)
class ObsBlock:
    """One linear-Gaussian observation block (H, R, y).

    ``r`` is either the full M x M noise covariance or, for diagonal
    noise, the length-M vector of its variances.
    """

    h: np.ndarray
    r: np.ndarray
    y: np.ndarray
    label: str = "node"

    def __post_init__(self):
        h = np.atleast_2d(np.asarray(self.h, dtype=float))
        r = np.asarray(self.r, dtype=float)
        if r.ndim != 1:
            r = np.atleast_2d(r)
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        m = h.shape[0]
        if y.shape != (m,) or r.shape not in ((m,), (m, m)):
            raise ValueError(
                f"inconsistent block shapes: H {h.shape}, R {r.shape}, y {y.shape}"
            )
        _as_r(r)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "y", y)


@dataclass
class FilterRun:
    """Output of one filtering pass."""

    beliefs_filtered: List[Belief]
    beliefs_predicted: List[Belief]
    loglik: float
    per_step_loglik: np.ndarray
    threshold_states: Optional[np.ndarray] = None
    context: Optional[dict] = None  # fit-time data needed downstream (lags, W, R)

    def __post_init__(self):
        total = float(np.sum(self.per_step_loglik))
        if np.isfinite(total) and abs(total - self.loglik) > 1e-9 * max(1.0, abs(total)):
            raise ValueError("loglik must equal the sum of per-step log-likelihoods")

    @property
    def n_steps(self) -> int:
        return len(self.beliefs_filtered)


def _time_update(m: np.ndarray, p: np.ndarray, q: np.ndarray,
             f: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """``predict`` on arrays, without its check of Q: mean F m and
    covariance F P F' + Q (F = I when None); ``q`` must be symmetric."""
    if f is None:
        return m, _symmetrize(p + q)
    return f @ m, _symmetrize(f @ p @ f.T + q)


def predict(b: Belief, q_t: np.ndarray, f: Optional[np.ndarray] = None,
            time_index: Optional[int] = None) -> Belief:
    """One-step state prediction: mean F m, cov F P F' + Q."""
    q_t = _symmetrize(np.asarray(q_t, dtype=float))
    _check_psd(q_t, "state noise Q_t")
    if f is None:
        mean = b.mean
        cov = b.cov + q_t
    else:
        f = np.asarray(f, dtype=float)
        mean = f @ b.mean
        cov = f @ b.cov @ f.T + q_t
    return Belief(mean=mean, cov=_symmetrize(cov),
                  time_index=b.time_index + 1 if time_index is None else time_index)


def _check_condition(cond: float):
    if not np.isfinite(cond) or cond > 1e14:
        raise SingularInnovationError(
            f"innovation covariance numerically singular (cond ~ {cond:.3e})",
            condition_estimate=cond,
        )


def update(b: Belief, obs: ObsBlock) -> Tuple[Belief, float]:
    """Measurement update; returns the posterior belief and the innovation
    log-density of this block under N(0, S), S = H P H' + R (see ``_step``)."""
    mean, cov, loglik = _step(b.mean, b.cov, obs.h, obs.r, obs.y)
    return Belief(mean=mean, cov=cov, time_index=b.time_index), loglik


def _step(m: np.ndarray, p: np.ndarray, h: np.ndarray, r: np.ndarray,
          y: np.ndarray) -> Tuple[np.ndarray, np.ndarray, float]:
    """Measurement update on arrays: posterior mean, covariance and the
    innovation log-density of y under N(H m, S), S = H P H' + R.

    Two algebraically equal forms; the input picks one:

    - collapsed (information) form when R is diagonal (``r`` is a
      vector) and the state dimension K is below the block size M. With
      P = L L' and C = I + L' H' R^-1 H L (K x K) the posterior is
      (m + L C^-1 L' H' R^-1 v, L C^-1 L'), log|S| = sum(log r) + log|C|
      and v' S^-1 v = v' R^-1 v - a' C^-1 a with a = L' H' R^-1 v; the
      cost is O(M K^2) (Durbin & Koopman 2012, ch. 6; Jungbacker &
      Koopman 2015). The condition estimate is
      (max r / min r) * lambda_max(C), exactly cond(S) for R = r I.
    - gain form with Joseph-form covariance otherwise (full R, or K >= M),
      O(M^3) for the Cholesky factor of S.

    Raises SingularInnovationError when the condition estimate of S
    exceeds 1e14 or is not finite.
    """
    if r.ndim == 1 and m.shape[0] < r.shape[0]:
        return _step_collapsed(m, p, h, r, y)
    return _step_gain(m, p, h, r, y)


def _step_gain(m, p, h, r, y):
    r_mat = np.diag(r) if r.ndim == 1 else r
    s = _symmetrize(h @ p @ h.T + r_mat)
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        raise SingularInnovationError(
            "innovation covariance not positive definite",
            condition_estimate=math.inf,
        )
    diag = np.diag(chol)
    _check_condition(float((diag.max() / diag.min()) ** 2))
    v = y - h @ m
    # numpy solves, not scipy's: scipy loads its own OpenBLAS, and handing
    # work between the two libraries' thread pools costs milliseconds.
    half = np.linalg.solve(chol, np.column_stack([v, h @ p]))
    loglik = -0.5 * (len(v) * math.log(2.0 * math.pi)
                     + 2.0 * float(np.sum(np.log(diag)))
                     + float(half[:, 0] @ half[:, 0]))
    gain = np.linalg.solve(chol.T, half[:, 1:]).T
    i_kh = np.eye(m.shape[0]) - gain @ h
    cov = _symmetrize(i_kh @ p @ i_kh.T + gain @ r_mat @ gain.T)
    return m + gain @ v, cov, loglik


def _step_collapsed(m, p, h, r, y):
    # Square root of P from a clipped eigendecomposition: P may be singular.
    lam, vec = np.linalg.eigh(p)
    sqrt_p = vec * np.sqrt(np.clip(lam, 0.0, None))
    hl = h @ sqrt_p
    hl_r = hl / r[:, None]
    c_mat = np.eye(m.shape[0]) + hl.T @ hl_r
    if not np.all(np.isfinite(c_mat)):
        raise SingularInnovationError("innovation covariance not finite",
                                      condition_estimate=math.inf)
    c_lam, c_vec = np.linalg.eigh(c_mat)
    _check_condition(float(r.max() / r.min() * c_lam[-1]))
    v = y - h @ m
    a = hl_r.T @ v
    # C^-1 = U diag(1 / lam) U'; fold C^-1/2 into the loading L U.
    l_c = (sqrt_p @ c_vec) / np.sqrt(c_lam)
    a_c = (c_vec.T @ a) / np.sqrt(c_lam)
    loglik = -0.5 * (len(v) * math.log(2.0 * math.pi)
                     + float(np.sum(np.log(r))) + float(np.sum(np.log(c_lam)))
                     + float(v @ (v / r)) - float(a_c @ a_c))
    return m + l_c @ a_c, _symmetrize(l_c @ l_c.T), loglik


def _state_q(spec: StateNoiseSpec, filtered_means: Sequence[np.ndarray], k: int):
    """State-noise matrix for the upcoming transition, with plug-in
    threshold indicators from the last two filtered means."""
    if spec.mode == "constant":
        return spec.q, None
    if len(filtered_means) < 2:
        return np.diag(spec.q0), np.zeros(k, dtype=int)
    return threshold_Q(filtered_means[-1], filtered_means[-2], spec)


def _beliefs(means, covs, times) -> List[Belief]:
    """Beliefs over the arrays of a filter or smoother pass, without the
    PSD check: the pass made each covariance symmetric. The fields are set
    as the dataclass's __init__ sets them; b.__dict__ would add a dict."""
    out = [object.__new__(Belief) for _ in times]
    for b, m, p, t in zip(out, means, covs, times):
        for name, value in (("mean", m), ("cov", p), ("time_index", t)):
            object.__setattr__(b, name, value)
    return out


def _filter_run(pred_means, pred_covs, means, covs, per_step, t0: int,
                threshold_states=None) -> FilterRun:
    """FilterRun over the arrays of a filter pass, step i at time t0 + i."""
    times = range(t0, t0 + len(per_step))
    return FilterRun(_beliefs(means, covs, times),
                     _beliefs(pred_means, pred_covs, times),
                     float(np.sum(per_step)), per_step, threshold_states)


def run_filter(m0: np.ndarray, p0: np.ndarray, blocks, state_noise: StateNoiseSpec,
               transition: Optional[np.ndarray] = None,
               linearize: Optional[Callable] = None, t0: int = 0) -> FilterRun:
    """Kalman filter over observation blocks; step i has time index t0 + i
    and the returned run has no context.

    ``blocks`` is a list of ``(H, r, Y)``: H one M x K matrix or a stack of
    n_steps of them, r the noise as ``_step`` takes it, Y the n_steps x M
    observations. Each step predicts with transition F (the random walk
    when None) and Q from ``state_noise`` (the threshold rule reads the
    last two filtered means), then updates on the blocks in order; its
    log-likelihood is the sum of the blocks' innovation log-densities.
    ``linearize(H_t, m_pred, y_t) -> (pseudo_y, r, loglik)``, if given,
    turns each observation into a pseudo-observation at the current mean
    (the Poisson log link), and its ``loglik`` replaces the Gaussian one.
    """
    blocks = [(np.asarray(h, dtype=float), None if r is None else _as_r(r),
               np.asarray(y, dtype=float)) for h, r, y in blocks]
    n_steps, k = len(blocks[0][2]), m0.shape[0]
    pred_means, means = np.empty((n_steps, k)), np.empty((n_steps, k))
    pred_covs, covs = np.empty((n_steps, k, k)), np.empty((n_steps, k, k))
    per_step = np.empty(n_steps)
    s_states = (np.empty((n_steps, k), dtype=int)
                if state_noise.mode == "threshold" else None)

    m, p = m0, p0
    for i in range(n_steps):
        q, s = _state_q(state_noise, means[max(i - 2, 0):i], k)
        if s_states is not None:
            s_states[i] = s
        m, p = _time_update(m, p, q, transition)
        pred_means[i], pred_covs[i] = m, p
        ll = 0.0
        for h, r, y in blocks:
            h_i = h[i] if h.ndim == 3 else h
            if linearize is None:
                m, p, ll_b = _step(m, p, h_i, r, y[i])
            else:
                y_i, r_i, ll_b = linearize(h_i, m, y[i])
                m, p, _ = _step(m, p, h_i, r_i, y_i)
            ll += ll_b
        means[i], covs[i], per_step[i] = m, p, ll
    return _filter_run(pred_means, pred_covs, means, covs, per_step, t0, s_states)


def two_block_update(b: Belief, edge: ObsBlock, node: ObsBlock):
    """Sequential edge-then-node update; total step loglik is the sum."""
    after_edge, ll_edge = update(b, edge)
    after_node, ll_node = update(after_edge, node)
    return after_node, ll_edge, ll_node


def rts_smooth(run: FilterRun, q_seq: Sequence[np.ndarray],
               f_seq: Optional[Sequence[np.ndarray]] = None) -> List[Belief]:
    """Rauch-Tung-Striebel backward pass.

    ``q_seq[t]`` is the state noise used in the prediction from step t to
    t + 1 (length at least n_steps - 1). The default transition is the
    random walk (identity).
    """
    filt = run.beliefs_filtered
    n = len(filt)
    if n == 0:
        return []
    means = np.array([b.mean for b in filt])
    covs = np.array([b.cov for b in filt])
    for t in range(n - 2, -1, -1):
        f = None if f_seq is None else np.asarray(f_seq[t], dtype=float)
        q_t = _symmetrize(np.asarray(q_seq[t], dtype=float))
        pf = filt[t].cov
        if f is None:
            mean_pred = filt[t].mean
            cov_pred = pf + q_t
            cross = pf
        else:
            mean_pred = f @ filt[t].mean
            cov_pred = f @ pf @ f.T + q_t
            cross = pf @ f.T
        cond = np.linalg.cond(cov_pred)
        if not np.isfinite(cond) or cond > 1e14:
            raise SingularInnovationError(
                "predicted covariance singular in smoother", condition_estimate=cond
            )
        gain = np.linalg.solve(cov_pred, cross.T).T
        means[t] = filt[t].mean + gain @ (means[t + 1] - mean_pred)
        covs[t] = _symmetrize(pf + gain @ (covs[t + 1] - cov_pred) @ gain.T)
    return _beliefs(means, covs, [b.time_index for b in filt])


def threshold_Q(theta_prev: np.ndarray, theta_prev2: np.ndarray,
                spec: StateNoiseSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Mixture-innovation variance from lagged plug-in increments.

    s_j = 1 iff |theta_prev_j - theta_prev2_j| > d_j (strict), and
    q_j = q0_j + s_j (q1_j - q0_j); returns (diag Q, s).
    """
    if spec.mode != "threshold":
        raise ValueError("threshold_Q requires a threshold-mode spec")
    inc = np.abs(np.asarray(theta_prev, dtype=float) - np.asarray(theta_prev2, dtype=float))
    s = (inc > spec.d).astype(int)
    q_diag = spec.q0 + s * (spec.q1 - spec.q0)
    return np.diag(q_diag), s


def filter_run_to_dict(run: FilterRun) -> dict:
    """JSON-serializable snapshot of a FilterRun (for --dump-states)."""
    return {
        "loglik": run.loglik,
        "per_step_loglik": np.asarray(run.per_step_loglik).tolist(),
        "filtered_means": [b.mean.tolist() for b in run.beliefs_filtered],
        "filtered_covs": [b.cov.tolist() for b in run.beliefs_filtered],
        "predicted_means": [b.mean.tolist() for b in run.beliefs_predicted],
        "predicted_covs": [b.cov.tolist() for b in run.beliefs_predicted],
        "threshold_states": (
            None if run.threshold_states is None else np.asarray(run.threshold_states).tolist()
        ),
    }

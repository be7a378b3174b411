"""Exact linear-Gaussian state-space engine.

Predict / update (single and two-block) / RTS smoothing with innovations
log-likelihood, plus threshold-driven state-noise construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

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
        if r.ndim == 1:
            if not np.all(np.isfinite(r) & (r > 0)):
                raise ValueError("observation noise R must be positive definite")
        else:
            try:
                np.linalg.cholesky(r)
            except np.linalg.LinAlgError as exc:
                raise ValueError("observation noise R must be positive definite") from exc
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
    log-density of this block under N(0, S), S = H P H' + R.

    Two algebraically equal forms; the input picks one:

    - collapsed (information) form when R is diagonal (``obs.r`` is a
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
    if obs.r.ndim == 1 and b.dim < obs.r.shape[0]:
        return _update_collapsed(b, obs)
    return _update_gain(b, obs)


def _update_gain(b: Belief, obs: ObsBlock) -> Tuple[Belief, float]:
    h, r, y = obs.h, obs.r, obs.y
    r_mat = np.diag(r) if r.ndim == 1 else r
    p = b.cov
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
    v = y - h @ b.mean
    # numpy solves, not scipy's: scipy loads its own OpenBLAS, and handing
    # work between the two libraries' thread pools costs milliseconds.
    half = np.linalg.solve(chol, np.column_stack([v, h @ p]))
    loglik = -0.5 * (len(v) * math.log(2.0 * math.pi)
                     + 2.0 * float(np.sum(np.log(diag)))
                     + float(half[:, 0] @ half[:, 0]))
    gain = np.linalg.solve(chol.T, half[:, 1:]).T
    mean = b.mean + gain @ v
    i_kh = np.eye(b.dim) - gain @ h
    cov = _symmetrize(i_kh @ p @ i_kh.T + gain @ r_mat @ gain.T)
    return Belief(mean=mean, cov=cov, time_index=b.time_index), loglik


def _update_collapsed(b: Belief, obs: ObsBlock) -> Tuple[Belief, float]:
    h, r, y = obs.h, obs.r, obs.y
    # Square root of P from a clipped eigendecomposition: P may be singular.
    lam, vec = np.linalg.eigh(b.cov)
    sqrt_p = vec * np.sqrt(np.clip(lam, 0.0, None))
    hl = h @ sqrt_p
    hl_r = hl / r[:, None]
    c_mat = np.eye(b.dim) + hl.T @ hl_r
    if not np.all(np.isfinite(c_mat)):
        raise SingularInnovationError("innovation covariance not finite",
                                      condition_estimate=math.inf)
    c_lam, c_vec = np.linalg.eigh(c_mat)
    _check_condition(float(r.max() / r.min() * c_lam[-1]))
    v = y - h @ b.mean
    a = hl_r.T @ v
    # C^-1 = U diag(1 / lam) U'; fold C^-1/2 into the loading L U.
    l_c = (sqrt_p @ c_vec) / np.sqrt(c_lam)
    a_c = (c_vec.T @ a) / np.sqrt(c_lam)
    loglik = -0.5 * (len(v) * math.log(2.0 * math.pi)
                     + float(np.sum(np.log(r))) + float(np.sum(np.log(c_lam)))
                     + float(v @ (v / r)) - float(a_c @ a_c))
    mean = b.mean + l_c @ a_c
    cov = l_c @ l_c.T
    return Belief(mean=mean, cov=cov, time_index=b.time_index), loglik


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
    smoothed = [filt[-1]]
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
        nxt = smoothed[0]
        mean = filt[t].mean + gain @ (nxt.mean - mean_pred)
        cov = _symmetrize(pf + gain @ (nxt.cov - cov_pred) @ gain.T)
        smoothed.insert(0, Belief(mean=mean, cov=cov, time_index=filt[t].time_index))
    return smoothed


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

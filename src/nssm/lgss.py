"""Exact linear-Gaussian state-space engine.

One filter kernel, ``run_filter``, serves all four models. It predicts
with ``_time_update``, stores the moments in arrays and calls the model's
measurement step, which is all a model passes in. ``_block_steps`` makes
every measurement step and is the only code that picks the collapsed or
the gain form: the Gaussian network TVP-VAR and the joint model's node
block take its steps over their stacked designs, and ``_step``, its
one-block case, serves the Poisson DGLM, the joint model's edge block and
the CP tensor state's sweep. The public ``predict`` and ``update`` take one
step on validated ``Belief`` and ``ObsBlock`` objects; ``update`` wraps
``_step``. Also: RTS smoothing (which predicts through ``_time_update``
too), the innovations log-likelihood and the threshold-driven state-noise
rule.
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


class NumericalError(np.linalg.LinAlgError):
    """A state or forecast stopped being finite (overflow, not bad input)."""


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p + p.T)


def _check_psd(p, what: str) -> np.ndarray:
    """A caller's covariance, checked square before it is symmetrized
    (it may be symmetric only up to rounding), then finite and PSD."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {p.shape}")
    p = _symmetrize(p)
    if not np.all(np.isfinite(p)):
        raise ValueError(f"{what} must be finite")
    # A diagonal's eigenvalues are its entries; eigvalsh wakes BLAS threads.
    diag = np.diagonal(p)
    eig_min = float(diag.min() if np.count_nonzero(p) == np.count_nonzero(diag)
                    else np.linalg.eigvalsh(p).min())
    if eig_min < -_SYM_TOL:
        raise ValueError(f"{what} has negative eigenvalue {eig_min:.3e}")
    return p


@dataclass(frozen=True)
class Belief:
    """Gaussian state summary (mean, covariance) at one time index."""

    mean: np.ndarray
    cov: np.ndarray
    time_index: int = 0

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=float)
        p = np.asarray(self.cov, dtype=float)
        if p.shape != (m.shape[0], m.shape[0]):
            raise ValueError("cov shape must match mean length")
        if not np.all(np.isfinite(m)):
            raise ValueError("belief mean must be finite")
        p = _check_psd(p, "belief covariance")
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
    ``transition``, if given, is the finite K x K matrix F of the state
    step, K the size of ``q`` or ``q0``.
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
            # Symmetrized, as the random walk's P + Q needs it exact.
            object.__setattr__(self, "q", _check_psd(self.q, "state noise Q"))
        elif self.mode == "threshold":
            q0 = np.asarray(self.q0, dtype=float)
            q1 = np.asarray(self.q1, dtype=float)
            d = np.asarray(self.d, dtype=float)
            if not (q0.shape == q1.shape == d.shape):
                raise ValueError("q0, q1, d must have equal shapes")
            if not (np.all(q0 > 0) and np.all(q1 > 0) and np.all(d > 0)):
                raise ValueError("q0, q1, d must be positive")
            if np.any(q0 >= q1):
                raise ValueError("threshold mode requires q0 < q1 componentwise")
            object.__setattr__(self, "q0", q0)
            object.__setattr__(self, "q1", q1)
            object.__setattr__(self, "d", d)
        else:
            raise ValueError(f"unknown state-noise mode {self.mode!r}")
        if self.transition is not None:
            f = np.asarray(self.transition, dtype=float)
            k = self.q.shape[0] if self.mode == "constant" else self.q0.size
            if f.shape != (k, k) or not np.all(np.isfinite(f)):
                raise ValueError(f"transition F must be a finite {k} x {k} "
                                 f"matrix, got shape {f.shape}")
            object.__setattr__(self, "transition", f)

    @classmethod
    def constant(cls, q) -> "StateNoiseSpec":
        return cls(mode="constant", q=np.atleast_2d(np.asarray(q, dtype=float)))

    @classmethod
    def threshold(cls, q0, q1, d) -> "StateNoiseSpec":
        return cls(mode="threshold", q0=np.atleast_1d(q0), q1=np.atleast_1d(q1),
                   d=np.atleast_1d(d))


def _as_r(r) -> np.ndarray:
    """Observation noise as a variance vector or a matrix, checked
    positive definite; a matrix must also be symmetric, since the Cholesky
    check reads only its lower triangle."""
    r = np.asarray(r, dtype=float)
    if r.ndim == 1:
        if not np.all(np.isfinite(r) & (r > 0)):
            raise ValueError("observation noise R must be positive definite")
        return r
    r = np.atleast_2d(r)
    if not np.all(np.isfinite(r)):
        raise ValueError("observation noise R must be finite")
    if r.shape[0] != r.shape[1] or not np.max(np.abs(r - r.T)) <= _SYM_TOL:
        raise ValueError("observation noise R must be symmetric")
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
    """Output of one filtering pass, as arrays: step i, at time t0 + i,
    has the filtered and predicted moments ``means[i]``, ``covs[i]``,
    ``pred_means[i]``, ``pred_covs[i]`` and ``per_step_loglik[i]``."""

    means: np.ndarray
    covs: np.ndarray
    pred_means: np.ndarray
    pred_covs: np.ndarray
    per_step_loglik: np.ndarray
    t0: int = 0
    threshold_states: Optional[np.ndarray] = None
    context: Optional[dict] = None  # fit-time data needed downstream (lags, W, R)

    @property
    def loglik(self) -> float:
        return float(np.sum(self.per_step_loglik))

    @property
    def n_steps(self) -> int:
        return len(self.per_step_loglik)

    @property
    def beliefs_filtered(self) -> List[Belief]:
        """Built on each access; each mean and cov is a row view."""
        return _beliefs(self.means, self.covs, self.t0)

    @property
    def beliefs_predicted(self) -> List[Belief]:
        return _beliefs(self.pred_means, self.pred_covs, self.t0)


def _time_update(m: np.ndarray, p: np.ndarray, q: np.ndarray,
             f: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """``predict`` on arrays, without its check of Q: mean F m and covariance
    F P F' + Q (F = I when None); ``p`` and ``q`` must be exactly symmetric."""
    if f is None:
        return m, p + q
    # F P F' is two general products, symmetric only up to rounding.
    return f @ m, _symmetrize(f @ p @ f.T + q)


def predict(b: Belief, q_t: np.ndarray, f: Optional[np.ndarray] = None,
            time_index: Optional[int] = None) -> Belief:
    """One-step state prediction: mean F m, cov F P F' + Q."""
    # Symmetrized, as ``_time_update`` needs it exact.
    q_t = _check_psd(q_t, "state noise Q_t")
    if len(q_t) != b.dim:
        raise ValueError(f"state noise Q_t must be {b.dim} x {b.dim}, "
                         f"got shape {q_t.shape}")
    mean, cov = _time_update(b.mean, b.cov, q_t,
                             None if f is None else np.asarray(f, dtype=float))
    return Belief(mean=mean, cov=cov,
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
    innovation log-density of y under N(H m, S), S = H P H' + R; the
    one-block case of ``_block_steps``."""
    return _block_steps(h[None], r, y[None])(0, m, p)


def _block_steps(x: np.ndarray, r: np.ndarray, y: np.ndarray) -> Callable:
    """The measurement step ``update(i, m, p) -> (m, p, loglik)`` of
    ``run_filter`` for the stacked blocks (H_i, R, y_i): ``x`` is T x M x K,
    ``y`` is T x M and ``r`` is shared by every block.

    Two algebraically equal forms; the input picks one:

    - collapsed (information) form when R is diagonal (``r`` is a
      vector) and the state dimension K is below the block size M. With
      P = L L' and C = I + L' H' R^-1 H L (K x K) the posterior is
      (m + L C^-1 L' H' R^-1 v, L C^-1 L'), log|S| = sum(log r) + log|C|
      and v' S^-1 v = v' R^-1 v - a' C^-1 a with a = L' H' R^-1 v; the
      cost is O(M K^2) (Durbin & Koopman 2012, ch. 6; Jungbacker &
      Koopman 2015). The condition estimate is lambda_max(C), the
      condition number of R^-1/2 S R^-1/2 (its other eigenvalues are 1),
      and exactly cond(S) for R = r I. H' R^-1 H, which does not depend
      on the state, is formed for all blocks in one stacked product; a
      step forms H' R^-1 v from its residual v (H' R^-1 y - H' R^-1 H m
      can cancel when the fit is close to y) and v' R^-1 v, and
      ``_collapsed_core`` does the rest in O(K^3).
    - gain form otherwise (full R, or K >= M): with S = L L', a = L^-1 v
      and B = L^-1 H P come from L^-1 and one product when K + 1 > M, and
      from one solve otherwise (``_step_gain``); the posterior is
      (m + B'a, P - B'B), the standard update P - P H' S^-1 H P without
      the Joseph form; v' S^-1 v = a'a (Durbin & Koopman 2012, sec. 4.3).

    A step raises SingularInnovationError when the form's condition
    estimate exceeds 1e14 or is not finite.
    """
    if r.ndim == 2 or x.shape[2] >= x.shape[1]:
        return lambda i, m, p: _step_gain(m, p, x[i], r, y[i])
    x_r = x / r[:, None]
    info = x_r.transpose(0, 2, 1) @ x
    log_det_r = float(np.sum(np.log(r)))

    def collapsed_step(i, m, p):
        v = y[i] - x[i] @ m
        return _collapsed_core(m, p, info[i], x_r[i].T @ v, float(v @ (v / r)),
                               log_det_r, len(v))
    return collapsed_step


def _step_gain(m, p, h, r, y):
    r_mat = np.diag(r) if r.ndim == 1 else r
    hp = h @ p
    # H P H' is two general products, symmetric only up to rounding.
    s = _symmetrize(hp @ h.T + r_mat)
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
    # [a | B] = L^-1 [v | HP]. numpy's inv and solve both run a pivoted LU
    # on L; inv then solves for M right-hand sides, solve for K + 1, so a
    # wide state (K + 1 > M, the CP sweep) takes L^-1 and one product.
    # Not scipy's triangular solve: scipy loads its own OpenBLAS, and
    # handing work between the two thread pools costs milliseconds.
    rhs = np.column_stack([v, hp])
    half = (np.linalg.inv(chol) @ rhs if rhs.shape[1] > len(v)
            else np.linalg.solve(chol, rhs))
    a, b = half[:, 0], half[:, 1:]
    loglik = -0.5 * (len(v) * math.log(2.0 * math.pi)
                     + 2.0 * float(np.sum(np.log(diag))) + float(a @ a))
    # b.T @ b is a Gram (syrk) product, exactly symmetric, and so is P.
    return m + b.T @ a, p - b.T @ b, loglik


def _collapsed_core(m, p, info, score, v_r_v, log_det_r, n_obs):
    """The collapsed update from the block's K x K sufficient statistics:
    ``info`` = H' R^-1 H, ``score`` = H' R^-1 v, ``v_r_v`` = v' R^-1 v and
    ``log_det_r`` = log|R| for the innovation v = y - H m of ``n_obs``
    observations (see ``_step``); the cost is O(K^3) whatever the block
    size."""
    # Square root of P from a clipped eigendecomposition: P may be singular.
    lam, vec = np.linalg.eigh(p)
    sqrt_p = vec * np.sqrt(np.maximum(lam, 0.0))
    c_mat = sqrt_p.T @ info @ sqrt_p
    c_mat.flat[::m.shape[0] + 1] += 1.0
    # The sum is finite iff every entry is, short of entries near 1e308,
    # which the condition check rejects anyway.
    if not math.isfinite(c_mat.sum()):
        raise SingularInnovationError("innovation covariance not finite",
                                      condition_estimate=math.inf)
    c_lam, c_vec = np.linalg.eigh(c_mat)
    _check_condition(float(c_lam[-1]))
    a = sqrt_p.T @ score
    # C^-1 = U diag(1 / lam) U'; fold C^-1/2 into the loading L U.
    l_c = (sqrt_p @ c_vec) / np.sqrt(c_lam)
    a_c = (c_vec.T @ a) / np.sqrt(c_lam)
    loglik = -0.5 * (n_obs * math.log(2.0 * math.pi) + log_det_r
                     + float(np.sum(np.log(c_lam))) + v_r_v - float(a_c @ a_c))
    # l_c @ l_c.T is a Gram (syrk) product: exactly symmetric as it is.
    return m + l_c @ a_c, l_c @ l_c.T, loglik


def _state_q(spec: StateNoiseSpec, filtered_means: Sequence[np.ndarray], k: int):
    """State-noise matrix for the upcoming transition, with plug-in
    threshold indicators from the last two filtered means."""
    if spec.mode == "constant":
        return spec.q, None
    if len(filtered_means) < 2:
        return np.diag(spec.q0), np.zeros(k, dtype=int)
    return threshold_Q(filtered_means[-1], filtered_means[-2], spec)


def _beliefs(means, covs, t0: int) -> List[Belief]:
    """Beliefs over the rows of a pass's arrays, without the PSD check: the
    pass made each covariance symmetric. The fields are set as the
    dataclass's __init__ sets them; b.__dict__ would add a dict."""
    out = [object.__new__(Belief) for _ in range(len(means))]
    for t, (b, m, p) in enumerate(zip(out, means, covs), start=t0):
        for name, value in (("mean", m), ("cov", p), ("time_index", t)):
            object.__setattr__(b, name, value)
    return out


def run_filter(m0: np.ndarray, p0: np.ndarray, n_steps: int,
               state_noise: StateNoiseSpec, update: Callable,
               t0: int = 0) -> FilterRun:
    """Kalman filter of ``n_steps`` steps; step i has time index t0 + i and
    the returned run has no context.

    Each step predicts with ``state_noise``'s transition F (the random walk
    when None) and Q (the threshold rule reads the last two filtered
    means), then calls the model's measurement step ``update(i, m, p) ->
    (m, p, loglik)`` on the predicted moments; ``loglik`` is the step's
    log-likelihood.
    """
    k = m0.shape[0]
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
        m, p = _time_update(m, p, q, state_noise.transition)
        pred_means[i], pred_covs[i] = m, p
        m, p, per_step[i] = update(i, m, p)
        means[i], covs[i] = m, p
    return FilterRun(means, covs, pred_means, pred_covs, per_step, t0, s_states)


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
    means, covs = run.means.copy(), run.covs.copy()
    for t in range(run.n_steps - 2, -1, -1):
        f = None if f_seq is None else np.asarray(f_seq[t], dtype=float)
        # A caller's Q, which ``_time_update`` needs exactly symmetric.
        q_t = _symmetrize(np.asarray(q_seq[t], dtype=float))
        mf, pf = run.means[t], run.covs[t]
        mean_pred, cov_pred = _time_update(mf, pf, q_t, f)
        cross = pf if f is None else pf @ f.T
        cond = np.linalg.cond(cov_pred)
        if not np.isfinite(cond) or cond > 1e14:
            raise SingularInnovationError(
                "predicted covariance singular in smoother", condition_estimate=cond
            )
        gain = np.linalg.solve(cov_pred, cross.T).T
        means[t] = mf + gain @ (means[t + 1] - mean_pred)
        # G (P_s - P_pred) G' is general products, symmetric up to rounding.
        covs[t] = _symmetrize(pf + gain @ (covs[t + 1] - cov_pred) @ gain.T)
    return _beliefs(means, covs, run.t0)


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
        "per_step_loglik": run.per_step_loglik.tolist(),
        "filtered_means": run.means.tolist(),
        "filtered_covs": run.covs.tolist(),
        "predicted_means": run.pred_means.tolist(),
        "predicted_covs": run.pred_covs.tolist(),
        "threshold_states": (None if run.threshold_states is None
                             else run.threshold_states.tolist()),
    }

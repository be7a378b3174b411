"""Low-rank CP factor state for TVP-VAR(p): reconstruction, trilinear
means, conditional designs, and the alternating conditional filter."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List

import numpy as np

from .lgss import FilterRun, StateNoiseSpec, _as_r, _step, run_filter
# Re-exported for perfbench/tracing.py, which wraps them by module attribute.
from .lgss import predict, update


@dataclass(frozen=True)
class CPFactors:
    """Rank-R CP factors of the lag-coefficient tensor.

    mode1 and mode2 are R x N (node loadings), mode3 is R x p (lag
    profiles). The stacked state vector concatenates all mode-1 vectors,
    then mode-2, then mode-3, giving length R(2N + p).
    """

    mode1: np.ndarray
    mode2: np.ndarray
    mode3: np.ndarray

    def __post_init__(self):
        m1 = np.atleast_2d(np.asarray(self.mode1, dtype=float))
        m2 = np.atleast_2d(np.asarray(self.mode2, dtype=float))
        m3 = np.atleast_2d(np.asarray(self.mode3, dtype=float))
        if m1.shape[0] != m2.shape[0] or m1.shape[0] != m3.shape[0]:
            raise ValueError("all modes must share the rank dimension")
        if m1.shape[1] != m2.shape[1]:
            raise ValueError("mode1 and mode2 must have the same node dimension")
        object.__setattr__(self, "mode1", m1)
        object.__setattr__(self, "mode2", m2)
        object.__setattr__(self, "mode3", m3)

    @property
    def rank(self) -> int:
        return self.mode1.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.mode1.shape[1]

    @property
    def lag_order(self) -> int:
        return self.mode3.shape[1]

    @property
    def state_dim(self) -> int:
        return self.rank * (2 * self.n_nodes + self.lag_order)

    def stack(self) -> np.ndarray:
        return np.concatenate([self.mode1.ravel(), self.mode2.ravel(),
                               self.mode3.ravel()])

    @classmethod
    def unstack(cls, xi: np.ndarray, rank: int, n: int, p: int) -> "CPFactors":
        xi = np.asarray(xi, dtype=float)
        if xi.shape != (rank * (2 * n + p),):
            raise ValueError(
                f"stacked vector must have length R(2N+p) = {rank * (2 * n + p)}"
            )
        # The length check implies the shapes __post_init__ would check.
        a, f = rank * n, object.__new__(cls)
        vars(f).update(mode1=xi[:a].reshape(rank, n),
                       mode2=xi[a:2 * a].reshape(rank, n),
                       mode3=xi[2 * a:].reshape(rank, p))
        return f


def cp_reconstruct(f: CPFactors) -> List[np.ndarray]:
    """Dense lag slices B_l = sum_r mode3[r, l] mode1[r] mode2[r]^T."""
    n, p = f.n_nodes, f.lag_order
    slices = [np.zeros((n, n)) for _ in range(p)]
    for r in range(f.rank):
        outer = np.outer(f.mode1[r], f.mode2[r])
        for l in range(p):
            slices[l] += f.mode3[r, l] * outer
    return slices


def _lag_block(f: CPFactors, y) -> np.ndarray:
    """The p x N lag block y = (y_{t-1}, ..., y_{t-p}), checked against f."""
    y = np.asarray(y, dtype=float)
    if y.shape != (f.lag_order, f.n_nodes):
        raise ValueError(f"lag block must be p x N = {(f.lag_order, f.n_nodes)}, got {y.shape}")
    return y


def cp_mean(f: CPFactors, y: np.ndarray) -> np.ndarray:
    """Trilinear conditional mean without materializing dense slices."""
    s = f.mode3 @ _lag_block(f, y)  # R x N; s_r = sum_l mode3[r, l] y_{t-l}
    alphas = np.einsum("rn,rn->r", f.mode2, s)
    return f.mode1.T @ alphas


def conditional_design(f: CPFactors, mode: int, y: np.ndarray) -> np.ndarray:
    """N x (R * block) design that is linear in the chosen mode block.

    With y the p x N lag block and s_r = sum_l mode3[r, l] y_{t-l}:
    mode 1: columns [alpha_1 I ... alpha_R I] with alpha_r = mode2_r' s_r;
    mode 2: [mode1_1 s_1' ... mode1_R s_R'];
    mode 3: [mode1_1 m_1' ...] with m_r = (mode2_r' y_{t-1}, ..., y_{t-p}).
    """
    y = _lag_block(f, y)
    # One N x R x b broadcast product, flattened: block r as above.
    n = f.n_nodes
    if mode == 1:
        alphas = np.einsum("rn,rn->r", f.mode2, f.mode3 @ y)
        return (np.eye(n)[:, None, :] * alphas[None, :, None]).reshape(n, -1)
    if mode == 2:
        s = f.mode3 @ y
    elif mode == 3:
        s = (y @ f.mode2.T).T  # R x p; s[r] = m_r
    else:
        raise ValueError("mode must be 1, 2, or 3")
    return (f.mode1.T[:, :, None] * s[None]).reshape(n, -1)


def sign_fix(f: CPFactors) -> CPFactors:
    """Canonical scaling, sign, and ordering of CP components.

    Each component is rescaled so the two node modes have equal norm and
    the first nonzero entry of mode1 is positive; components sort by
    descending product of mode norms. The trilinear mean is invariant.
    """
    m1, m2, m3 = f.mode1.copy(), f.mode2.copy(), f.mode3.copy()
    for r in range(f.rank):
        n1, n2 = np.linalg.norm(m1[r]), np.linalg.norm(m2[r])
        if n1 > 0 and n2 > 0:
            scale = np.sqrt(n2 / n1)
            m1[r] *= scale
            m2[r] /= scale
        nz = np.flatnonzero(m1[r])
        if nz.size and m1[r, nz[0]] < 0:
            m1[r] = -m1[r]
            m2[r] = -m2[r]
    weight = [
        np.linalg.norm(m1[r]) * np.linalg.norm(m2[r]) * np.linalg.norm(m3[r])
        for r in range(f.rank)
    ]
    order = np.argsort(weight)[::-1]
    return CPFactors(mode1=m1[order], mode2=m2[order], mode3=m3[order])


def _mode_slices(rank: int, n: int, p: int):
    a = rank * n
    return slice(0, a), slice(a, 2 * a), slice(2 * a, 2 * a + rank * p)


def cp_filter_alternating(panel: np.ndarray, rank: int, p: int,
                          q_scale: float = 1e-3, r_scale: float = 1.0,
                          n_sweeps: int = 2, p0_scale: float = 1.0,
                          init_seed: int = 0) -> FilterRun:
    """Alternating blockwise conditional filter over the stacked CP state.

    All three mode blocks evolve as independent random walks with noise
    q_scale * I. Each time step predicts the joint state (``run_filter``),
    then sweeps modes 1, 2 and 3 ``n_sweeps`` times, each a conditional
    Gaussian update holding the other blocks at their current means.
    Approximate: the exact joint posterior is non-Gaussian. An all-zero
    conditional design skips that update with a warning.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if n_sweeps < 1:
        raise ValueError("n_sweeps must be >= 1")
    if not 0 <= p0_scale < np.inf:
        raise ValueError("p0_scale must be finite and nonnegative")
    panel = np.asarray(panel, dtype=float)
    if not np.all(np.isfinite(panel)):
        raise ValueError("panel contains non-finite values")
    t_len, n = panel.shape
    if t_len <= p:
        raise ValueError("panel length must exceed the lag order")
    dim = rank * (2 * n + p)
    sl1, sl2, sl3 = _mode_slices(rank, n, p)
    slices = {1: sl1, 2: sl2, 3: sl3}

    rng = np.random.default_rng(init_seed)
    mean0 = np.zeros(dim)
    # Zero is a fixed point of the conditional updates; small random node
    # loadings and a first-lag-weighted lag profile break the symmetry.
    mean0[sl1] = 0.1 * rng.standard_normal(rank * n)
    mean0[sl2] = 0.1 * rng.standard_normal(rank * n)
    m3_init = np.zeros((rank, p))
    m3_init[:, 0] = 1.0 / np.sqrt(p)
    mean0[sl3] = m3_init.ravel()

    r_obs = _as_r(r_scale * np.eye(n))

    def sweep(i, mean, cov):
        t = p + i
        y = np.stack([panel[t - l] for l in range(1, p + 1)])
        step_ll = None
        for _ in range(n_sweeps):
            for mode in (1, 2, 3):
                factors = CPFactors.unstack(mean, rank, n, p)
                h_block = conditional_design(factors, mode, y)
                if not np.any(h_block):
                    warnings.warn(
                        f"degenerate conditional design for mode {mode} at "
                        f"t={t}; update skipped", RuntimeWarning,
                    )
                    continue
                h_full = np.zeros((n, dim))
                h_full[:, slices[mode]] = h_block
                # H^(k) times the mode-k block reproduces the trilinear mean
                # exactly, so no conditional offset is needed.
                mean, cov, ll = _step(mean, cov, h_full, r_obs, panel[t])
                if step_ll is None:
                    step_ll = ll  # plug-in: first conditional update's density
        return mean, cov, 0.0 if step_ll is None else step_ll

    run = run_filter(mean0, p0_scale * np.eye(dim), t_len - p,
                     StateNoiseSpec.constant(q_scale * np.eye(dim)), sweep, t0=p)
    run.context = {"panel": panel, "rank": rank, "p": p,
                   "obs_times": list(range(p, t_len))}
    return run


def cp_one_step_mean(run: FilterRun) -> np.ndarray:
    """One-step-ahead conditional mean from the final filtered factors."""
    ctx = run.context
    panel, rank, p = ctx["panel"], ctx["rank"], ctx["p"]
    t_last = ctx["obs_times"][-1]
    factors = CPFactors.unstack(run.means[-1], rank, panel.shape[1], p)
    return cp_mean(factors,
                   np.stack([panel[t_last - l + 1] for l in range(1, p + 1)]))

"""Network design matrices and augmented pseudo-observation blocks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from .graph import WeightMatrix


@dataclass(frozen=True)
class DesignRecipe:
    """Which regressor blocks enter the N x K design matrix.

    Column order is fixed: intercept, then network lags ordered by
    (power, lag), then own lags by lag, then covariates.
    """

    lag_order: int = 1
    include_intercept: bool = True
    include_network_lags: bool = True
    include_own_lags: bool = True
    network_powers: tuple = (1,)
    covariate_count: int = 0

    def __post_init__(self):
        if self.lag_order < 1:
            raise ValueError("lag_order must be >= 1")
        if self.covariate_count < 0:
            raise ValueError("covariate_count must be >= 0")
        if self.include_network_lags and (
            len(self.network_powers) == 0 or any(r < 1 for r in self.network_powers)
        ):
            raise ValueError("network_powers must be positive integers")
        if self.n_cols == 0:
            raise ValueError("empty design: recipe selects no columns")

    @property
    def n_cols(self) -> int:
        k = int(self.include_intercept)
        if self.include_network_lags:
            k += len(self.network_powers) * self.lag_order
        if self.include_own_lags:
            k += self.lag_order
        k += self.covariate_count
        return k

    def column_labels(self) -> List[str]:
        labels = []
        if self.include_intercept:
            labels.append("intercept")
        if self.include_network_lags:
            for r in self.network_powers:
                for lag in range(1, self.lag_order + 1):
                    labels.append(f"W{r}Y_lag_{lag}" if r > 1 else f"WY_lag_{lag}")
        if self.include_own_lags:
            for lag in range(1, self.lag_order + 1):
                labels.append(f"Y_lag_{lag}")
        for m in range(1, self.covariate_count + 1):
            labels.append(f"Z_col_{m}")
        return labels


@dataclass(frozen=True)
class DesignMatrix:
    entries: np.ndarray
    column_labels: tuple

    def __post_init__(self):
        x = np.asarray(self.entries, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("design matrix entries must be finite")
        if x.shape[1] != len(self.column_labels):
            raise ValueError("column label count must match design columns")
        object.__setattr__(self, "entries", x)

    @property
    def n_rows(self) -> int:
        return self.entries.shape[0]

    @property
    def n_cols(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class SummaryAugment:
    """Linear network summaries s_t = S Y_t + noise with covariance V."""

    s_matrix: np.ndarray
    v_matrix: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s_matrix, dtype=float)
        v = np.asarray(self.v_matrix, dtype=float)
        if v.shape != (s.shape[0], s.shape[0]):
            raise ValueError("V must be M x M for S with M rows")
        if np.max(np.abs(v - v.T)) > 1e-10:
            raise ValueError("V must be symmetric")
        try:
            np.linalg.cholesky(v)
        except np.linalg.LinAlgError as exc:
            raise ValueError("V must be positive definite") from exc
        object.__setattr__(self, "s_matrix", s)
        object.__setattr__(self, "v_matrix", v)


def design_columns(w: WeightMatrix, y_lags: Sequence[np.ndarray],
                   z: Optional[np.ndarray],
                   recipe: DesignRecipe) -> Iterator[np.ndarray]:
    """The design's columns, one at a time, in the recipe's column order.

    A lag is a length-N vector or an S x N block holding one lag vector
    per row (S Monte-Carlo draws); W^r Y is then Y @ (W')^r. The
    intercept and covariate columns are length-N vectors, which broadcast
    against the blocks. The lags and ``z`` must be finite: they are
    checked before any product with W.
    """
    n = w.n_nodes
    for l, y in enumerate(y_lags, start=1):
        if not np.all(np.isfinite(y)):
            raise ValueError(f"lag {l} has entries that are not finite")
    if recipe.covariate_count > 0:
        if z is None:
            raise ValueError("covariate block: recipe requires Z but none supplied")
        z = np.asarray(z, dtype=float)
        if z.shape != (n, recipe.covariate_count):
            raise ValueError(
                f"covariate block: Z has shape {z.shape}, expected "
                f"({n}, {recipe.covariate_count})"
            )
        if not np.all(np.isfinite(z)):
            raise ValueError("covariate block: Z has entries that are not finite")

    if recipe.include_intercept:
        yield np.ones(n)
    if recipe.include_network_lags:
        w_t = w.entries.T
        for r in recipe.network_powers:
            for y in y_lags:
                # W^r y as r products with W; no N x N power is formed.
                for _ in range(r):
                    y = y @ w_t
                yield y
    if recipe.include_own_lags:
        yield from y_lags
    if recipe.covariate_count > 0:
        yield from z.T


def build_design(w: WeightMatrix, y_lags: Sequence[np.ndarray],
                 z: Optional[np.ndarray], recipe: DesignRecipe) -> DesignMatrix:
    """Assemble the N x K design from lagged responses and covariates.

    ``y_lags[l - 1]`` is the length-N response at lag l; exactly
    ``recipe.lag_order`` lags must be supplied (no implicit padding).
    """
    p = recipe.lag_order
    if len(y_lags) != p:
        raise ValueError(f"need exactly {p} lagged response vectors, got {len(y_lags)}")
    n = w.n_nodes
    lags = []
    for l, y in enumerate(y_lags, start=1):
        y = np.asarray(y, dtype=float)
        if y.shape != (n,):
            raise ValueError(f"lag {l} vector has shape {y.shape}, expected ({n},)")
        lags.append(y)

    x = np.column_stack(list(design_columns(w, lags, z, recipe)))
    return DesignMatrix(entries=x, column_labels=tuple(recipe.column_labels()))


def _w_at(w_seq, t):
    """W at t from one WeightMatrix, a sequence, or a sequence of one."""
    if isinstance(w_seq, WeightMatrix):
        return w_seq
    return w_seq[t] if len(w_seq) > 1 else w_seq[0]


def _z_at(z, t):
    """Z at t from one N x C array or a sequence of them."""
    if z is None:
        return None
    z = np.asarray(z)
    return z if z.ndim == 2 else z[t]


def design_stack(w_seq, panel: np.ndarray, z,
                 recipe: DesignRecipe) -> np.ndarray:
    """The designs of observation times t = p, ..., T - 1, stacked as a
    (T - p) x N x K array; the design at t is ``build_design`` of the
    network and covariates at t (``_w_at``, ``_z_at``) and the lags
    panel[t - 1], ..., panel[t - p]."""
    p = recipe.lag_order
    t_len, n = panel.shape
    z = None if z is None else np.asarray(z, dtype=float)
    out = np.empty((t_len - p, n, recipe.n_cols))
    for i, t in enumerate(range(p, t_len)):
        lags = [panel[t - l] for l in range(1, p + 1)]
        for j, col in enumerate(design_columns(_w_at(w_seq, t), lags,
                                               _z_at(z, t), recipe)):
            out[i, :, j] = col
    if not np.all(np.isfinite(out)):
        raise ValueError("design matrix entries must be finite")
    return out


def spillover_matrix(beta1: float, beta2: float, w: WeightMatrix) -> np.ndarray:
    """Cross-sectional propagation operator beta1 * W + beta2 * I."""
    return beta1 * w.entries + beta2 * np.eye(w.n_nodes)


def augment_summaries(x: DesignMatrix, r: np.ndarray, aug: SummaryAugment):
    """Stack summary pseudo-observations below the node block.

    Returns (H_stacked, R_stacked) with H = [X; S X] and
    R = blockdiag(R, V); node rows come first.
    """
    s = aug.s_matrix
    if s.shape[1] != x.n_rows:
        raise ValueError(
            f"summary matrix has {s.shape[1]} columns but design has {x.n_rows} rows"
        )
    r = np.asarray(r, dtype=float)
    h_stacked = np.vstack([x.entries, s @ x.entries])
    n, m = x.n_rows, s.shape[0]
    r_stacked = np.zeros((n + m, n + m))
    r_stacked[:n, :n] = r
    r_stacked[n:, n:] = aug.v_matrix
    return h_stacked, r_stacked

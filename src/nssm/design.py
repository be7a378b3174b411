"""Network design matrices."""

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

    def _columns(self) -> Iterator[tuple]:
        """(label, lag, power) of each column in column order: power r for
        a network lag W^r Y, 0 for an own lag, and lag and power None for
        the intercept and the covariates."""
        if self.include_intercept:
            yield "intercept", None, None
        if self.include_network_lags:
            for r in self.network_powers:
                for lag in range(1, self.lag_order + 1):
                    yield f"W{r if r > 1 else ''}Y_lag_{lag}", lag, r
        if self.include_own_lags:
            for lag in range(1, self.lag_order + 1):
                yield f"Y_lag_{lag}", lag, 0
        for m in range(1, self.covariate_count + 1):
            yield f"Z_col_{m}", None, None

    @property
    def n_cols(self) -> int:
        return sum(1 for _ in self._columns())

    def column_labels(self) -> List[str]:
        return [label for label, _, _ in self._columns()]

    def lag_columns(self) -> List[List[tuple]]:
        """For each lag l = 1..p, the (column, power) pairs of the columns
        on lag l: the lag matrix is B_l = sum of m[column] W^power, with
        W^0 = I for the own lag."""
        cols = list(enumerate(self._columns()))
        return [[(j, r) for j, (_, lag, r) in cols if lag == l]
                for l in range(1, self.lag_order + 1)]


# Monte-Carlo draws per slab (``_by_slab``).
_DRAW_SLAB = 64


def _by_slab(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a block ``a`` of one draw per row, as one product of
    ``_DRAW_SLAB`` rows at a time, the last slab padded with zero rows:
    the products of the draws with the K x K state factors and with
    chol(R). BLAS may sum a row in another order in a product of another
    shape; with every product the same shape, row s of the result
    depends on row s of ``a`` alone, whatever the number of rows, and
    the temporaries stay ``_DRAW_SLAB`` x N."""
    n_rows = a.shape[0]
    out = np.empty((n_rows, b.shape[1]))
    for start in range(0, n_rows, _DRAW_SLAB):
        slab = a[start:start + _DRAW_SLAB]
        if len(slab) < _DRAW_SLAB:
            slab = np.concatenate(
                [slab, np.zeros((_DRAW_SLAB - len(slab), a.shape[1]))])
        out[start:start + _DRAW_SLAB] = (slab @ b)[:n_rows - start]
    return out


def design_columns(w: WeightMatrix, y_lags: Sequence[np.ndarray],
                   z: Optional[np.ndarray],
                   recipe: DesignRecipe) -> Iterator[np.ndarray]:
    """The design's columns, one at a time, in the recipe's column order.

    A lag is a length-N vector, a (T - p) x 1 x N stack of them
    (``design_stack``), or an S x N block holding one Monte-Carlo draw
    per row. W^r y is r products with W, each a sum over the nonzeros
    of W: the network operators are sparse. For a vector or a stack it
    is ``WeightMatrix.neighbour_sum``, which sums each vector of a stack
    on its own, so a stacked column equals the column of that vector
    alone bit for bit. For a draw block it is Y W' by
    ``WeightMatrix._block_product``, on one core, which sums each draw's
    terms in column order, so that row s does not depend on S. The
    intercept and covariate columns are length-N vectors, which
    broadcast against the stacks and blocks. The lags and ``z`` must be
    finite, and each lag's last axis must be W's N: they are checked
    before any product with W. A ``z`` for a recipe without covariate
    columns is rejected, not dropped.
    """
    n = w.n_nodes
    for l, y in enumerate(y_lags, start=1):
        if np.shape(y)[-1:] != (n,):
            raise ValueError(f"lag {l} has shape {np.shape(y)}, but W has {n} nodes")
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
    elif z is not None:
        raise ValueError("covariate block: Z supplied but the recipe has no "
                         "covariate columns")

    if recipe.include_intercept:
        yield np.ones(n)
    if recipe.include_network_lags:
        for r in recipe.network_powers:
            for y in y_lags:
                # W^r y as r products with W; no N x N power is formed.
                for _ in range(r):
                    y = (w._block_product(y) if y.ndim == 2
                         else w.neighbour_sum(y))
                yield y
    if recipe.include_own_lags:
        yield from y_lags
    if recipe.covariate_count > 0:
        yield from z.T


def build_design(w: WeightMatrix, y_lags: Sequence[np.ndarray],
                 z: Optional[np.ndarray], recipe: DesignRecipe) -> np.ndarray:
    """Assemble the N x K design from lagged responses and covariates,
    its columns in ``recipe.column_labels()`` order.

    ``y_lags[l - 1]`` is the length-N response at lag l; exactly
    ``recipe.lag_order`` lags must be supplied (no implicit padding).
    Finite inputs whose network products overflow are rejected too.
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
    if not np.all(np.isfinite(x)):
        raise ValueError("design matrix entries must be finite")
    return x


def _w_at(w_seq, t):
    """W at t from one WeightMatrix, a sequence of one, or a sequence with
    a network for time t; a sequence with neither raises ValueError."""
    if isinstance(w_seq, WeightMatrix):
        return w_seq
    if len(w_seq) == 1:
        return w_seq[0]
    if not 0 <= t < len(w_seq):
        raise ValueError(f"network sequence of length {len(w_seq)} has no "
                         f"network for time {t}")
    return w_seq[t]


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
    panel[t - 1], ..., panel[t - p].

    With one network and no Z or a static Z, each lag enters
    ``design_columns`` as a (T - p) x 1 x N stack, so each network
    column is one neighbour sum over the stack, whose rows are the
    per-step columns bit for bit by construction. A BLAS product of the
    (T - p) x N lag panel with W' would read all N^2 entries of W to use
    its nonzeros, and sum in another order than the per-step product. A
    network or Z per time step takes one ``design_columns`` call per t.
    """
    p = recipe.lag_order
    t_len, n = panel.shape
    z = None if z is None else np.asarray(z, dtype=float)
    out = np.empty((t_len - p, n, recipe.n_cols))
    one_w = isinstance(w_seq, WeightMatrix) or len(w_seq) == 1
    if one_w and (z is None or z.ndim == 2):
        lags = [panel[p - l:t_len - l, None, :] for l in range(1, p + 1)]
        rows = out[:, None]
        for j, col in enumerate(design_columns(_w_at(w_seq, p), lags, z,
                                               recipe)):
            rows[..., j] = col
    else:
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


def lag_matrices(theta: np.ndarray, lag_columns,
                 w: WeightMatrix) -> np.ndarray:
    """A = [B_1 ... B_p] (N x pN), B_l the sum of theta[j] W^r over lag l's
    (column j, power r) pairs (``DesignRecipe.lag_columns``, W^0 = I)."""
    powers = {r for cols in lag_columns for _, r in cols}
    ops = {r: np.linalg.matrix_power(w.entries, r) for r in powers}
    zeros = np.zeros((w.n_nodes, w.n_nodes))
    return np.hstack([sum((theta[j] * ops[r] for j, r in cols), zeros)
                      for cols in lag_columns])


"""Network weight matrices and derived operators.

Construction, row normalization, spectral quantities, invariant vectors,
quotient (community-averaged) operators, and controlled perturbations.
Operations are pure functions of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np


class Provenance(str, Enum):
    OBSERVED = "observed"
    ROW_NORMALIZED = "row_normalized"
    PERTURBED = "perturbed"


_ROW_SUM_EPS = 1e-12
# The largest gather ``WeightMatrix.neighbour_sum`` and
# ``WeightMatrix._block_product`` make at once, in float64 elements
# (2 MB), or that of one vector (two draws) where it is larger: a long
# stack of vectors is summed a few vectors at a time, so a dense W
# costs no N^2 x T temporary.
_GATHER_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class Adjacency:
    """Nonnegative adjacency matrix with zero diagonal."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("adjacency entries must be finite")
        if np.any(a < 0):
            raise ValueError("adjacency entries must be nonnegative")
        if np.any(np.diag(a) != 0):
            raise ValueError("adjacency diagonal must be zero")
        object.__setattr__(self, "entries", a)

    @property
    def n_nodes(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class WeightMatrix:
    """N x N network operator, typically row-normalized (sub)stochastic."""

    entries: np.ndarray
    provenance: Provenance = Provenance.OBSERVED

    def __post_init__(self):
        w = np.array(self.entries, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weight matrix must be square, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weight matrix entries must be finite")
        if np.any(w < 0):
            raise ValueError("weight matrix entries must be nonnegative")
        if self.provenance == Provenance.ROW_NORMALIZED:
            sums = w.sum(axis=1)
            bad = ~((np.abs(sums) <= _ROW_SUM_EPS) | (np.abs(sums - 1.0) <= _ROW_SUM_EPS))
            if np.any(bad):
                raise ValueError(
                    f"row sums must be 0 or 1 for row_normalized provenance; "
                    f"offending rows {np.flatnonzero(bad)[:5].tolist()}"
                )
        # A read-only copy: the nonzeros and the spectrum are found once
        # (``_nonzeros``, ``eigenvalues``), so the entries must change
        # neither through the matrix nor through the caller's array.
        w.flags.writeable = False
        object.__setattr__(self, "entries", w)

    @property
    def n_nodes(self) -> int:
        return self.entries.shape[0]

    def row_sums(self) -> np.ndarray:
        return self.entries.sum(axis=1)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """The eigenvalues of W, computed once per matrix."""
        return np.linalg.eigvals(self.entries)

    @cached_property
    def _nonzeros(self):
        """The nonzeros of W in row-major order (row, then column), found
        once per matrix: their columns and values, the offset of each
        nonempty row's first nonzero, and the nonempty rows as an index
        (a full slice when no row is empty)."""
        rows, cols = np.nonzero(self.entries)
        counts = np.bincount(rows, minlength=self.n_nodes)
        nonempty = np.flatnonzero(counts)
        starts = (np.cumsum(counts) - counts)[nonempty]
        if len(nonempty) == self.n_nodes:
            nonempty = slice(None)
        return cols, self.entries[rows, cols], starts, nonempty

    @cached_property
    def _degree_groups(self):
        """The nonempty rows of W grouped by their number of nonzeros d,
        from ``_nonzeros``: for each d, the rows, and their columns and
        values as two (rows x d) arrays in column order."""
        cols, vals, starts, nonempty = self._nonzeros
        rows = np.arange(self.n_nodes)[nonempty]
        degrees = np.diff(starts, append=len(cols))
        groups = []
        for d in np.unique(degrees):
            at = degrees == d
            idx = starts[at, None] + np.arange(d)
            groups.append((rows[at], cols[idx], vals[idx]))
        return groups

    def neighbour_sum(self, y: np.ndarray) -> np.ndarray:
        """W y for a length-N vector, or for each length-N vector of a
        stack ``y[..., N]``, from the nonzeros of W alone.

        Entry i sums the products w_ij y_j of row i's nonzeros, taken in
        column order, as one segment of ``np.add.reduceat``. numpy sums
        each segment of each vector with one reduction loop, in an order
        fixed by the segment's length, so a vector of a stack gets the
        bits it gets alone, and a stack may be summed in any number of
        parts. A BLAS product sums in an order that depends on the
        shapes, and agrees with this one to rounding only.
        """
        cols, vals, starts, nonempty = self._nonzeros
        stack = np.reshape(np.asarray(y, dtype=float), (-1, self.n_nodes))
        out = np.zeros(stack.shape)
        step = max(1, _GATHER_ELEMENTS // max(len(cols), 1))
        for a in range(0, len(stack) if len(cols) else 0, step):
            products = stack[a:a + step, cols]
            products *= vals
            out[a:a + step, nonempty] = np.add.reduceat(products, starts,
                                                        axis=1)
        return out.reshape(np.shape(y))

    def _block_product(self, y: np.ndarray) -> np.ndarray:
        """Y W' for an S x N block ``y`` of one draw per row, from the
        nonzeros of W alone, on one core.

        The block is copied once to node-major floats with one zero
        column after the last draw. Each group of rows of one degree d
        (``_degree_groups``) takes its d neighbours' rows and sums them
        with ``np.einsum``, which adds each row's d products over the
        contiguous draw axis, one term at a time in column order. The
        draws go a few at a time, each gather within
        ``_GATHER_ELEMENTS``, so a dense W costs no N^2 x S temporary;
        the part that holds the last draw ends at the zero column. So a
        part never has a draw axis of length one, which numpy would drop
        and then sum the d terms pairwise: entry (s, i) equals the
        column-order sum over row s alone, whatever S and however the
        draws are split. It agrees with ``neighbour_sum`` and with a BLAS
        product to rounding only.
        """
        n_rows = y.shape[0]
        yt = np.zeros((self.n_nodes, n_rows + 1))
        yt[:, :n_rows] = y.T
        out = np.zeros((n_rows, self.n_nodes))
        step = max(2, _GATHER_ELEMENTS // max(len(self._nonzeros[0]), 1))
        for a in range(0, n_rows, step):
            part = yt[:, a:a + step]
            for rows, cols, vals in self._degree_groups:
                sums = np.einsum("ndm,nd->nm", part[cols], vals)
                out[a:a + step, rows] = sums[:, :n_rows - a].T
        return out


@dataclass(frozen=True)
class Partition:
    """Assignment of nodes to communities labelled 1..C."""

    assignment: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=int)
        if a.ndim != 1:
            raise ValueError("assignment must be a 1-d array")
        c = a.max(initial=0)
        if a.min(initial=1) < 1 or c < 1:
            raise ValueError("community labels must be in {1..C}")
        sizes = np.bincount(a, minlength=c + 1)[1:]
        if np.any(sizes == 0):
            raise ValueError("every community must be nonempty")
        object.__setattr__(self, "assignment", a)

    @property
    def n_communities(self) -> int:
        return int(self.assignment.max())

    @property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.n_communities + 1)[1:]

    def averaging_operator(self) -> np.ndarray:
        """C x N community-averaging matrix (row c averages community c)."""
        n = self.assignment.shape[0]
        c = self.n_communities
        pi_op = np.zeros((c, n))
        sizes = self.sizes
        for i, lab in enumerate(self.assignment):
            pi_op[lab - 1, i] = 1.0 / sizes[lab - 1]
        return pi_op


@dataclass(frozen=True)
class QuotientMap:
    """Community-level operator with operator-norm aggregation defect."""

    omega: np.ndarray
    delta: float

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")


@dataclass(frozen=True)
class InvariantVector:
    """Probability vector pi with pi' W = pi'."""

    pi: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pi, dtype=float)
        if np.any(p < -1e-14) or abs(p.sum() - 1.0) > 1e-10:
            raise ValueError("pi must be nonnegative and sum to 1")
        object.__setattr__(self, "pi", np.clip(p, 0.0, None))


def row_normalize(adj: Adjacency) -> WeightMatrix:
    """Divide each row by its out-degree; rows with zero degree become zero."""
    return WeightMatrix(_renormalize_rows(adj.entries),
                        provenance=Provenance.ROW_NORMALIZED)


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value, exact (from the SVD)."""
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return float(np.linalg.norm(m, 2))


def invariant_vector(w: WeightMatrix) -> InvariantVector:
    """Invariant probability vector pi with pi' W = pi' for row-stochastic W.

    Solves the stacked system [(W - I)'; 1'] pi = e_{N+1} by least
    squares. It has full column rank exactly when the chain has one
    closed class, periodic or not; otherwise the invariant vector is not
    unique and ValueError is raised.
    """
    mat = w.entries
    sums = mat.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise ValueError("invariant_vector requires a row-stochastic matrix (all row sums 1)")
    n = mat.shape[0]
    system = np.vstack([mat.T - np.eye(n), np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    pi, _, rank, _ = np.linalg.lstsq(system, rhs, rcond=None)
    if rank < n:
        raise ValueError(
            "invariant vector is not unique: the chain has more than one "
            "closed class"
        )
    return InvariantVector(pi=pi)


def _uniform_offdiag(n: int) -> np.ndarray:
    """Uniform row-stochastic matrix with zero diagonal."""
    if n < 2:
        return np.zeros((n, n))
    u = np.full((n, n), 1.0 / (n - 1))
    np.fill_diagonal(u, 0.0)
    return u


def perturb(w: WeightMatrix, kind: str, rng_seed: int = 0, *, frac: float = 0.0,
            alpha: float = 0.0, iters: int = 10) -> WeightMatrix:
    """Controlled network perturbations for stress testing.

    kinds: ``edge_delete`` (remove floor(frac * |E|) edges then re-normalize),
    ``mix_uniform`` ((1 - alpha) W + alpha U with U uniform off-diagonal),
    ``permute_labels`` (conjugate by a random permutation),
    ``rewire_degseq`` (double-edge swaps preserving in/out degrees).
    """
    rng = np.random.default_rng(rng_seed)
    mat = w.entries.copy()
    n = mat.shape[0]

    if kind == "mix_uniform":
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        out = (1.0 - alpha) * mat + alpha * _uniform_offdiag(n)
    elif kind == "edge_delete":
        if not 0.0 <= frac < 1.0:
            raise ValueError("frac must be in [0, 1)")
        edges = np.argwhere(mat > 0)
        n_del = int(np.floor(frac * len(edges)))
        if n_del > 0:
            idx = rng.choice(len(edges), size=n_del, replace=False)
            for i, j in edges[idx]:
                mat[i, j] = 0.0
        out = _renormalize_rows(mat)
    elif kind == "permute_labels":
        perm = rng.permutation(n)
        out = mat[np.ix_(perm, perm)]
    elif kind == "rewire_degseq":
        out = _rewire_degseq(mat, iters, rng)
        out = _renormalize_rows(out)
    else:
        raise ValueError(f"unknown perturbation kind {kind!r}")

    return WeightMatrix(out, provenance=Provenance.PERTURBED)


def _renormalize_rows(mat):
    sums = mat.sum(axis=1)
    out = np.zeros_like(mat)
    nz = sums > 0
    out[nz] = mat[nz] / sums[nz, None]
    return out


def _rewire_degseq(mat, iters, rng):
    """Double-edge swaps on the binary support, preserving in/out degrees.

    Weights are discarded (support rewired, then rows re-normalized by the
    caller). Raises after iters * 10 failed swap attempts.
    """
    support = (mat > 0)
    edges = [tuple(e) for e in np.argwhere(support)]
    if len(edges) < 2:
        raise ValueError("too few edges to rewire")
    done = 0
    attempts = 0
    budget = iters * 10
    while done < iters:
        if attempts >= budget:
            raise ValueError(
                f"degree-preserving rewiring infeasible: {done}/{iters} swaps "
                f"after {attempts} attempts"
            )
        attempts += 1
        a, b = rng.choice(len(edges), size=2, replace=False)
        (i, j), (k, l) = edges[a], edges[b]
        if i == k or j == l or i == l or k == j:
            continue
        if support[i, l] or support[k, j]:
            continue
        support[i, j] = support[k, l] = False
        support[i, l] = support[k, j] = True
        edges[a], edges[b] = (i, l), (k, j)
        done += 1
    return support.astype(float)


def quotient_operator(w: WeightMatrix, part: Partition) -> QuotientMap:
    """Community-averaged operator Omega and the intertwining defect delta.

    omega[c, c'] = (1 / |K_c|) * sum_{i in K_c, j in K_c'} w_ij, and
    delta = operator_norm(Pi W - Omega Pi) where Pi averages within
    communities. delta == 0 iff the entrywise balance condition holds.
    """
    if part.assignment.shape[0] != w.n_nodes:
        raise ValueError("partition length must match number of nodes")
    pi_op = part.averaging_operator()
    # Pi W sums rows within communities (scaled); summing its columns by
    # target community gives Omega directly.
    pw = pi_op @ w.entries
    c = part.n_communities
    omega = np.zeros((c, c))
    for cc in range(1, c + 1):
        omega[:, cc - 1] = pw[:, part.assignment == cc].sum(axis=1)
    defect = pw - omega @ pi_op
    delta = float(np.linalg.norm(defect, 2))
    return QuotientMap(omega=omega, delta=delta)

"""Network weight matrices and derived operators.

Construction, row normalization, spectral quantities, invariant vectors,
quotient (community-averaged) operators, and controlled perturbations.
All matrices are dense; operations are pure functions of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np


class NonConvergenceError(RuntimeError):
    """Power iteration failed to converge within the iteration budget.

    Carries the last iterate estimate in ``last_estimate``.
    """

    def __init__(self, message, last_estimate=None):
        super().__init__(message)
        self.last_estimate = last_estimate


class Provenance(str, Enum):
    OBSERVED = "observed"
    ROW_NORMALIZED = "row_normalized"
    PERTURBED = "perturbed"
    SIMULATED = "simulated"


_ROW_SUM_EPS = 1e-12


@dataclass(frozen=True)
class Adjacency:
    """Nonnegative adjacency matrix with zero diagonal."""

    entries: np.ndarray
    directed: bool = True
    time_index: Optional[int] = None

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
    perturb_kind: Optional[str] = None

    def __post_init__(self):
        w = np.asarray(self.entries, dtype=float)
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
        object.__setattr__(self, "entries", w)

    @property
    def n_nodes(self) -> int:
        return self.entries.shape[0]

    def row_sums(self) -> np.ndarray:
        return self.entries.sum(axis=1)


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
    residual: float = field(default=0.0)

    def __post_init__(self):
        p = np.asarray(self.pi, dtype=float)
        if np.any(p < -1e-14) or abs(p.sum() - 1.0) > 1e-10:
            raise ValueError("pi must be nonnegative and sum to 1")
        object.__setattr__(self, "pi", np.clip(p, 0.0, None))


def row_normalize(adj: Adjacency) -> WeightMatrix:
    """Divide each row by its out-degree; rows with zero degree become zero."""
    a = adj.entries
    deg = a.sum(axis=1)
    w = np.zeros_like(a)
    nz = deg > 0
    w[nz] = a[nz] / deg[nz, None]
    return WeightMatrix(w, provenance=Provenance.ROW_NORMALIZED)


def _power_iterate(mat, tol, max_iter):
    """Power iteration with deterministic all-ones start.

    Returns (estimate, converged, collapsed_to_zero).
    """
    n = mat.shape[0]
    v = np.ones(n) / np.sqrt(n)
    est = 0.0
    stable = 0
    # A start vector orthogonal to the dominant eigenspace produces a tiny
    # first Rayleigh quotient; require several consecutive stable estimates
    # (and a minimum number of iterations) before declaring convergence.
    for it in range(max_iter):
        mv = mat @ v
        norm = np.linalg.norm(mv)
        if norm < 1e-300:
            return 0.0, True, True
        new_est = float(v @ mv)
        v = mv / norm
        if abs(new_est - est) <= tol * max(1.0, abs(new_est)):
            stable += 1
            if stable >= 3 and it >= 5:
                return new_est, True, False
        else:
            stable = 0
        est = new_est
    return est, False, False


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value, exact (from the SVD)."""
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return float(np.linalg.norm(m, 2))


def spectral_radius(m: np.ndarray, tol: float = 1e-10, max_iter: int = 10_000) -> float:
    """Modulus of the dominant eigenvalue via power iteration.

    Falls back to iterating M @ M when plain iteration stalls (handles
    dominant complex-conjugate or +/- real pairs); raises
    NonConvergenceError if both fail.
    """
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    if tol <= 0:
        raise ValueError("tol must be positive")
    est, converged, collapsed = _power_iterate(m, tol, max_iter)
    if collapsed:
        return 0.0
    if converged:
        return float(abs(est))
    est2, converged2, collapsed2 = _power_iterate(m @ m, tol, max_iter)
    if collapsed2:
        return 0.0
    if converged2:
        return float(np.sqrt(max(est2, 0.0)))
    est3, converged3 = _pair_iterate(m, tol, max_iter)
    if converged3:
        return est3
    raise NonConvergenceError(
        f"spectral_radius did not converge in {max_iter} iterations",
        last_estimate=abs(est),
    )


def _pair_iterate(m, tol, max_iter):
    """Dominant-modulus estimate robust to complex-conjugate pairs.

    Fits the two-term recurrence M^2 v = a M v + b v on the running
    Krylov iterates; the dominant root modulus of x^2 - a x - b converges
    to the spectral radius whenever a two-dimensional dominant invariant
    subspace exists.
    """
    n = m.shape[0]
    v = np.ones(n) / np.sqrt(n)
    prev = None
    for _ in range(max_iter):
        w1 = m @ v
        w2 = m @ w1
        basis = np.column_stack([w1, v])
        coef, *_ = np.linalg.lstsq(basis, w2, rcond=None)
        a, b = coef
        roots = np.roots([1.0, -a, -b])
        est = float(np.max(np.abs(roots)))
        norm = np.linalg.norm(w2)
        if norm < 1e-300:
            return 0.0, True
        v = w2 / norm
        if prev is not None and abs(est - prev) <= tol * max(1.0, abs(est)):
            resid = np.linalg.norm(w2 - basis @ coef)
            if resid <= 1e-6 * max(1.0, norm):
                return est, True
        prev = est
    return prev if prev is not None else 0.0, False


def invariant_vector(w: WeightMatrix, tol: float = 1e-12, max_iter: int = 100_000) -> InvariantVector:
    """Invariant probability vector pi with pi' W = pi' for row-stochastic W.

    Uses power iteration on W' from the uniform start, renormalizing to
    sum 1 at each step.
    """
    mat = w.entries
    sums = mat.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise ValueError("invariant_vector requires a row-stochastic matrix (all row sums 1)")
    n = mat.shape[0]
    pi = np.ones(n) / n
    wt = mat.T
    for _ in range(max_iter):
        new = wt @ pi
        s = new.sum()
        if s <= 0:
            raise NonConvergenceError("invariant vector iteration collapsed", last_estimate=pi)
        new = new / s
        if np.max(np.abs(new - pi)) <= tol:
            pi = new
            break
        pi = new
    residual = float(np.max(np.abs(pi @ mat - pi)))
    if residual > max(tol, 1e-9):
        raise NonConvergenceError(
            "invariant vector iteration did not converge (chain may be periodic; "
            "consider damping W toward uniform with perturb mix_uniform)",
            last_estimate=pi,
        )
    return InvariantVector(pi=pi, residual=residual)


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

    return WeightMatrix(out, provenance=Provenance.PERTURBED, perturb_kind=kind)


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

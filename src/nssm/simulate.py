"""Data-generating processes: random graphs, coefficient paths, Gaussian
and Poisson panels, and dynamic logistic edge sequences."""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import List, Optional, Tuple

import numpy as np

from .design import _w_at, _z_at, spillover_matrix
from .graph import Adjacency, operator_norm, row_normalize
from .lgss import _check_psd

ETA_GENERATION_CAP = 30.0


@dataclass(frozen=True)
class GraphGen:
    """Random-graph family settings.

    kind is one of ``latent_distance``, ``sbm``, ``scale_free``; the
    ``params`` dict carries the family parameters (dim/scale,
    block_sizes/p_in/p_out, m_attach).
    """

    kind: str
    n_nodes: int
    seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if not isinstance(self.params, dict):
            raise ValueError("graph params must be a dict")
        get = self.params.get
        if self.kind == "sbm":
            sizes = get("block_sizes")
            if not (isinstance(sizes, (list, tuple))
                    and all(_within(b, 1, np.inf, Integral) for b in sizes)
                    and sum(sizes) == self.n_nodes):
                raise ValueError("block_sizes must be positive integers that "
                                 "sum to n_nodes")
            for key in ("p_in", "p_out"):
                if not _within(get(key), 0.0, 1.0):
                    raise ValueError(f"{key} must be a number in [0, 1]")
        elif self.kind == "latent_distance":
            if not _within(get("scale", 1.0), 0.0, np.inf):
                raise ValueError("scale must be a nonnegative number")
            if not _within(get("dim", 2), 1, np.inf, Integral):
                raise ValueError("dim must be an integer >= 1")
        elif self.kind == "scale_free":
            if not _within(get("m_attach", 1), 1, self.n_nodes - 1, Integral):
                raise ValueError("m_attach must be an integer >= 1 and "
                                 "< n_nodes")
        else:
            raise ValueError(f"unknown graph kind {self.kind!r}")


def _within(x, low, high, kind=Real) -> bool:
    """Whether ``x`` is a ``kind`` number, not a bool, in [low, high]."""
    return isinstance(x, kind) and not isinstance(x, bool) and low <= x <= high


@dataclass(frozen=True)
class CoeffPathSpec:
    """Random-walk coefficient paths with optional sparse jumps.

    ``stability_multiplier`` jointly scales the network-lag and own-lag
    coefficients (indices 1 and 2 of the standard ordering).
    """

    k: int
    init: np.ndarray
    rw_sd: np.ndarray
    sparse_jumps: Optional[dict] = None  # {"rate", "low", "high", "indices"}
    stability_multiplier: float = 1.0

    def __post_init__(self):
        init = np.asarray(self.init, dtype=float)
        rw_sd = np.asarray(self.rw_sd, dtype=float)
        if init.shape != (self.k,) or rw_sd.shape != (self.k,):
            raise ValueError("init and rw_sd must have length k")
        if not np.all(np.isfinite(init)):
            raise ValueError("init must be finite")
        if not np.all((rw_sd >= 0) & np.isfinite(rw_sd)):
            raise ValueError("rw_sd must be finite and nonnegative")
        if not 0 < self.stability_multiplier < np.inf:
            raise ValueError("stability_multiplier must be finite and positive")
        if self.sparse_jumps is not None:
            if not isinstance(self.sparse_jumps, dict):
                raise ValueError("sparse_jumps must be a dict")
            rate = self.sparse_jumps.get("rate", 0.0)
            low = self.sparse_jumps.get("low", 0.2)
            high = self.sparse_jumps.get("high", 0.5)
            if not _within(rate, 0.0, 1.0):
                raise ValueError("jump rate must be in [0, 1]")
            if not (isinstance(low, Real) and isinstance(high, Real)
                    and -np.inf < low <= high < np.inf):
                raise ValueError("jump low and high must be finite with low <= high")
            indices = self.sparse_jumps.get("indices", range(self.k))
            if np.ndim(indices) != 1 or not all(
                    _within(j, 0, self.k - 1, Integral) for j in indices):
                raise ValueError(f"jump indices must be integers in [0, {self.k})")
        object.__setattr__(self, "init", init)
        object.__setattr__(self, "rw_sd", rw_sd)


@dataclass(frozen=True)
class EdgePathSpec:
    """Dynamic-edge process: logistic edges driven by a random-walk
    parameter eta with state covariance S over fixed dyadic features."""

    eta0: np.ndarray
    s_cov: np.ndarray
    # callable (i, j, t, rng) -> features, called once per ordered pair at
    # t = 0 only: the features are fixed over time (intercept-only if None).
    feature_fn: Optional[object] = None

    def __post_init__(self):
        eta0 = np.atleast_1d(np.asarray(self.eta0, dtype=float))
        s = np.atleast_2d(np.asarray(self.s_cov, dtype=float))
        if s.shape != (eta0.shape[0], eta0.shape[0]):
            raise ValueError("S must be p x p for eta0 of length p")
        s = _check_psd(s, "edge state covariance S")
        object.__setattr__(self, "eta0", eta0)
        object.__setattr__(self, "s_cov", s)


def _latent_distance_adjacency(n, dim, scale, rng, target_density):
    emb = rng.standard_normal((n, dim))
    diff = emb[:, None, :] - emb[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))

    def density(intercept):
        logits = intercept - scale * dist
        probs = 1.0 / (1.0 + np.exp(-np.clip(logits, -50, 50)))
        np.fill_diagonal(probs, 0.0)
        return probs.mean() * n / (n - 1) if n > 1 else 0.0, probs

    if target_density is None:
        intercept = 0.0
    else:
        lo, hi = -30.0, 30.0
        for _ in range(80):
            intercept = 0.5 * (lo + hi)
            d, _ = density(intercept)
            if d < target_density:
                lo = intercept
            else:
                hi = intercept
        intercept = 0.5 * (lo + hi)
    _, probs = density(intercept)
    a = (rng.random((n, n)) < probs).astype(float)
    np.fill_diagonal(a, 0.0)
    return a


def _barabasi_albert_adjacency(n: int, m: int, seed: int) -> np.ndarray:
    """Preferential-attachment graph (Barabasi & Albert 1999) on n nodes.

    Starts from a star on m + 1 nodes; each new node links to m distinct
    targets drawn with probability proportional to degree. Draws follow
    networkx's ``barabasi_albert_graph``, so a seed gives the same graph.
    """
    rng = random.Random(seed)
    a = np.zeros((n, n))
    a[0, 1:m + 1] = a[1:m + 1, 0] = 1.0
    repeated = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, n):
        targets = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        for t in targets:
            a[source, t] = a[t, source] = 1.0
        repeated.extend(targets)
        repeated.extend([source] * m)
    return a


def gen_graph(g: GraphGen, target_density: Optional[float] = 0.15):
    """Sample an adjacency per the family spec and row-normalize it.

    Returns (WeightMatrix, Adjacency); deterministic per seed. For the
    latent-distance family the logit intercept is calibrated by bisection
    to the requested expected density (``None`` fixes the intercept at 0).
    """
    rng = np.random.default_rng(g.seed)
    n = g.n_nodes
    if g.kind == "sbm":
        sizes = g.params["block_sizes"]
        p_in, p_out = g.params["p_in"], g.params["p_out"]
        labels = np.repeat(np.arange(len(sizes)), sizes)
        same = labels[:, None] == labels[None, :]
        probs = np.where(same, p_in, p_out)
        a = (rng.random((n, n)) < probs).astype(float)
        np.fill_diagonal(a, 0.0)
    elif g.kind == "scale_free":
        a = _barabasi_albert_adjacency(n, g.params.get("m_attach", 1), int(g.seed))
    else:  # latent_distance, the one other kind GraphGen admits
        a = _latent_distance_adjacency(
            n, g.params.get("dim", 2), g.params.get("scale", 1.0), rng,
            target_density,
        )
    adj = Adjacency(a)
    return row_normalize(adj), adj


def gen_coeff_paths(spec: CoeffPathSpec, t_len: int, seed: int):
    """Random-walk paths theta_t = theta_{t-1} + N(0, diag(rw_sd^2)) with
    Bernoulli(rate) sparse jumps of recorded size.

    Returns (T x K paths, jump list of (time, index, size)). The
    stability multiplier scales columns 1 and 2 (the network-lag and
    own-lag slots) when k >= 3, otherwise all columns.
    """
    if t_len < 1:
        raise ValueError("t_len must be >= 1")
    rng = np.random.default_rng(seed)
    k = spec.k
    paths = np.empty((t_len, k))
    paths[0] = spec.init
    jumps: List[Tuple[int, int, float]] = []
    jump_cfg = spec.sparse_jumps or {}
    rate = jump_cfg.get("rate", 0.0)
    lo, hi = jump_cfg.get("low", 0.2), jump_cfg.get("high", 0.5)
    jump_idx = jump_cfg.get("indices", list(range(k)))
    for t in range(1, t_len):
        step = paths[t - 1] + spec.rw_sd * rng.standard_normal(k)
        if rate > 0:
            for j in jump_idx:
                if rng.random() < rate:
                    size = rng.uniform(lo, hi) * (1 if rng.random() < 0.5 else -1)
                    step[j] += size
                    jumps.append((t, j, size))
        paths[t] = step
    c = spec.stability_multiplier
    if c != 1.0:
        scaled = (1, 2) if k >= 3 else tuple(range(k))
        paths = paths.copy()
        paths[:, scaled] *= c
    return paths, jumps


def _check_paths(paths, t_len):
    paths = np.asarray(paths, dtype=float)
    if paths.ndim != 2 or paths.shape[0] < t_len:
        raise ValueError(f"coefficient paths must cover {t_len} steps")
    if paths.shape[1] < 3:
        raise ValueError("paths need at least (beta0, beta1, beta2) columns")
    return paths


def gen_gaussian_panel(w_or_seq, paths, sigma2: float, t_len: int, seed: int,
                       z=None, gamma=None, y0=None, burn_in: int = 0):
    """Simulate Y_t = b0 1 + b1 W Y_{t-1} + b2 Y_{t-1} + Z gamma + eps.

    ``paths`` columns are (beta0, beta1, beta2[, ...]); eps is
    N(0, sigma2 I). ``z`` and the length-C ``gamma`` are given together
    or not at all; ``z`` is read as ``design._z_at`` reads it: one static
    N x C array, or one for each of the t_len + burn_in steps.
    ``w_or_seq`` is one WeightMatrix or a sequence that
    ``design._w_at`` reads: one network, or one for each of the
    t_len + burn_in steps. Emits an instability warning (not an error)
    when max_t of the spillover operator norm exceeds 1.
    """
    if not 0 <= sigma2 < np.inf:
        raise ValueError("sigma2 must be finite and nonnegative")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    if (z is None) != (gamma is None):
        raise ValueError("z and gamma must be given together")
    total = t_len + burn_in
    paths = _check_paths(paths, total)
    rng = np.random.default_rng(seed)
    n = _w_at(w_or_seq, 0).n_nodes
    if z is not None:
        z, gamma = np.asarray(z, dtype=float), np.asarray(gamma, dtype=float)
        static = z.ndim == 2 and z.shape[0] == n
        per_step = z.ndim == 3 and z.shape[0] >= total and z.shape[1] == n
        if not (static or per_step):
            raise ValueError(f"z has shape {z.shape}; expected ({n}, C) or "
                             f"one ({n}, C) array for each of {total} steps")
        if gamma.shape != z.shape[-1:]:
            raise ValueError(f"gamma has shape {gamma.shape}; expected "
                             f"({z.shape[-1]},) for z's {z.shape[-1]} columns")
    y = np.zeros(n) if y0 is None else np.asarray(y0, dtype=float)
    sd = np.sqrt(sigma2)

    out = np.empty((total, n))
    out[0] = y
    max_norm = 0.0
    for t in range(1, total):
        w_t = _w_at(w_or_seq, t)
        b0, b1, b2 = paths[t, 0], paths[t, 1], paths[t, 2]
        # Cheap sufficient check first: sqrt(norm_1 * norm_inf) bounds the
        # operator norm, so the SVD runs only near or over the stability
        # boundary.
        bound_inf = abs(b1) * np.max(np.abs(w_t.entries).sum(axis=1)) + abs(b2)
        bound_one = abs(b1) * np.max(np.abs(w_t.entries).sum(axis=0)) + abs(b2)
        if np.sqrt(bound_inf * bound_one) > 1.0:
            max_norm = max(max_norm, operator_norm(spillover_matrix(b1, b2, w_t)))
        mean = b0 + b1 * (w_t.entries @ out[t - 1]) + b2 * out[t - 1]
        if z is not None:
            mean = mean + _z_at(z, t) @ gamma
        out[t] = mean + sd * rng.standard_normal(n)
    if max_norm > 1.0:
        warnings.warn(
            f"unstable regime: max spillover operator norm {max_norm:.3f} > 1",
            RuntimeWarning,
        )
    return out[burn_in:]


def gen_poisson_panel(w_or_seq, paths, t_len: int, seed: int,
                      eta0=None, burn_in: int = 0):
    """Simulate counts with the same recursion on the log-intensity scale.

    eta_t = b0 1 + b1 W Y_{t-1} + b2 Y_{t-1}; Y_t | eta_t are
    conditionally independent Poisson(exp(eta_t)); ``w_or_seq`` as in
    ``gen_gaussian_panel``. Raises if any eta exceeds the hard generation
    cap (the DGP itself is un-generable).
    """
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    total = t_len + burn_in
    paths = _check_paths(paths, total)
    rng = np.random.default_rng(seed)
    n = _w_at(w_or_seq, 0).n_nodes
    eta_init = np.zeros(n) if eta0 is None else np.asarray(eta0, dtype=float)

    counts = np.empty((total, n), dtype=np.int64)
    counts[0] = rng.poisson(np.exp(np.clip(eta_init, -50, ETA_GENERATION_CAP)))
    for t in range(1, total):
        w_t = _w_at(w_or_seq, t).entries
        b0, b1, b2 = paths[t, 0], paths[t, 1], paths[t, 2]
        y_prev = counts[t - 1].astype(float)
        eta = b0 + b1 * (w_t @ y_prev) + b2 * y_prev
        if np.max(eta) > ETA_GENERATION_CAP:
            raise ValueError(
                f"log intensity exceeded the generation cap "
                f"{ETA_GENERATION_CAP} at step {t}; use smaller coefficients"
            )
        counts[t] = rng.poisson(np.exp(eta))
    return counts[burn_in:]


def gen_dynamic_edges(spec: EdgePathSpec, t_len: int, n: int, seed: int):
    """Logistic dynamic edges over a random-walk edge parameter.

    eta_t = eta_{t-1} + N(0, S); a_{ij,t} ~ Bernoulli(sigmoid(x_ij' eta_t))
    with features from ``feature_fn`` (default: intercept-only). Returns
    (list of Adjacency, T x p eta path).
    """
    rng = np.random.default_rng(seed)
    p = spec.eta0.shape[0]
    try:
        chol = np.linalg.cholesky(spec.s_cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(spec.s_cov)
        chol = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))

    feature_fn = spec.feature_fn
    feats = np.empty((n, n, p))
    for i in range(n):
        for j in range(n):
            if feature_fn is None:
                feats[i, j] = np.ones(p)
            else:
                feats[i, j] = feature_fn(i, j, 0, rng)

    eta = spec.eta0.copy()
    adjs, eta_path = [], np.empty((t_len, p))
    for t in range(t_len):
        if t > 0:
            eta = eta + chol @ rng.standard_normal(p)
        eta_path[t] = eta
        logits = np.clip(feats @ eta, -50, 50)
        probs = 1.0 / (1.0 + np.exp(-logits))
        a = (rng.random((n, n)) < probs).astype(float)
        np.fill_diagonal(a, 0.0)
        adjs.append(Adjacency(a))
    return adjs, eta_path

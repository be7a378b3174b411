import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import spectral_radius

from nssm import graph
from nssm.graph import (
    Adjacency,
    Partition,
    WeightMatrix,
    invariant_vector,
    operator_norm,
    perturb,
    quotient_operator,
    row_normalize,
)
from nssm.graph import _GATHER_ELEMENTS


def random_adjacency(n, density, seed):
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < density) * rng.random((n, n))
    np.fill_diagonal(a, 0.0)
    return Adjacency(a)


class TestAdjacency:
    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            Adjacency(np.eye(3))

    def test_rejects_negative(self):
        a = np.zeros((2, 2))
        a[0, 1] = -1.0
        with pytest.raises(ValueError, match="nonnegative"):
            Adjacency(a)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            Adjacency(np.zeros((2, 3)))


class TestRowNormalize:
    def test_row_sums_zero_or_one(self):
        a = np.array([[0, 2, 1], [0, 0, 0], [5, 0, 0]], dtype=float)
        w = row_normalize(Adjacency(a))
        sums = w.row_sums()
        assert np.allclose(sums, [1.0, 0.0, 1.0])

    def test_zero_degree_row_stays_zero(self):
        a = np.zeros((3, 3))
        a[0, 1] = 1.0
        w = row_normalize(Adjacency(a))
        assert np.all(w.entries[1] == 0)
        assert np.all(w.entries[2] == 0)

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_property_row_sums(self, seed):
        adj = random_adjacency(8, 0.4, seed)
        sums = row_normalize(adj).row_sums()
        assert np.all((np.abs(sums) < 1e-12) | (np.abs(sums - 1) < 1e-12))

    def test_weight_matrix_validates_provenance(self):
        with pytest.raises(ValueError, match="row sums"):
            WeightMatrix(np.full((2, 2), 0.4), provenance="row_normalized")


class TestNeighbourSum:
    @given(st.integers(0, 10_000), st.integers(1, 60),
           st.sampled_from(["empty_rows", "sparse", "dense"]),
           st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_property_matches_dense_product(self, seed, n, kind, rows):
        rng = np.random.default_rng(seed)
        a = rng.random((n, n)) * 10.0 ** rng.uniform(-3, 3)
        if kind == "sparse":
            a *= rng.random((n, n)) < 0.1
        elif kind == "empty_rows":
            a *= rng.random((n, n)) < 0.3
            a[rng.random(n) < 0.5] = 0.0
        w = WeightMatrix(a)
        y = rng.standard_normal((rows, 1, n)) * 10.0 ** rng.uniform(-3, 3)
        got = w.neighbour_sum(y)
        assert got.shape == y.shape
        # Each entry to rounding of the dense product: 1e-15 of the sum of
        # the terms' magnitudes (both sides sum up to 60 terms; the worst
        # seen was 5e-16).
        assert np.all(np.abs(got - y @ a.T) <= 1e-15 * (np.abs(y) @ a.T))
        # A vector of the stack, or a part of it, gets the bits it gets alone.
        for i in range(rows):
            assert np.array_equal(w.neighbour_sum(y[i, 0]), got[i, 0])
        assert np.array_equal(w.neighbour_sum(y[rows // 2:]), got[rows // 2:])

    def test_one_node_and_no_edges(self):
        y = np.array([[2.0], [-3.0]])
        assert np.array_equal(WeightMatrix(np.array([[0.5]])).neighbour_sum(y),
                              0.5 * y)
        assert np.array_equal(WeightMatrix(np.zeros((1, 1))).neighbour_sum(y),
                              np.zeros((2, 1)))
        assert np.array_equal(WeightMatrix(np.zeros((4, 4))).neighbour_sum(
            np.ones(4)), np.zeros(4))

    def test_entries_are_read_only(self):
        # The nonzeros are found once, so the entries must not change.
        w = WeightMatrix(np.ones((3, 3)))
        w.neighbour_sum(np.ones(3))
        with pytest.raises(ValueError, match="read-only"):
            w.entries[0, 1] = 0.0

    def test_entries_are_a_copy_of_the_callers_array(self):
        # Editing the array W was built from changes none of W's entries,
        # neighbour sums or eigenvalues.
        a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        w = WeightMatrix(a)
        y = np.array([1.0, 2.0, 3.0])
        before = (w.entries.copy(), w.neighbour_sum(y), w.eigenvalues.copy())
        a[0, 2] = 4.0
        assert np.array_equal(w.entries, before[0])
        assert np.array_equal(w.neighbour_sum(y), before[1])
        assert np.array_equal(w.eigenvalues, before[2])
        assert np.array_equal(WeightMatrix(a).neighbour_sum(y), a @ y)

    def test_long_dense_stack_is_summed_in_parts(self):
        rng = np.random.default_rng(0)
        w = WeightMatrix(rng.random((100, 100)))
        y = rng.standard_normal((60, 100))
        step = _GATHER_ELEMENTS // w.entries.size
        assert step < len(y)  # the stack is gathered in parts
        got = w.neighbour_sum(y)
        for i in (0, step - 1, step, len(y) - 1):
            assert np.array_equal(w.neighbour_sum(y[i]), got[i])
        assert np.all(np.abs(got - y @ w.entries.T)
                      <= 1e-15 * (np.abs(y) @ w.entries.T))


def random_weights(rng, n, kind):
    """A directed W: sparse, with some empty rows, or dense, its entries
    spread over six orders of magnitude."""
    a = rng.random((n, n)) * 10.0 ** rng.uniform(-3, 3, (n, n))
    if kind == "sparse":
        a *= rng.random((n, n)) < 0.15
    elif kind == "empty_rows":
        a *= rng.random((n, n)) < 0.3
        a[rng.random(n) < 0.5] = 0.0
    return WeightMatrix(a)


def random_block(rng, rows, n, counts):
    """An S x N block of draws: int64 counts, or floats of both signs over
    six orders of magnitude."""
    if counts:
        return rng.poisson(rng.uniform(0.1, 50.0, n), (rows, n))
    return rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-3, 3, n)


class TestBlockProduct:
    """``WeightMatrix._block_product`` is Y W' for a block of draws, each
    entry the column-order loop over its row's nonzeros
    (``oracles.block_product_loop``), bit for bit, and row s the same
    whatever the number of rows and however the rows are split into
    parts."""

    @given(st.integers(0, 10_000), st.integers(1, 60),
           st.sampled_from(["sparse", "empty_rows", "dense"]),
           st.integers(1, 150), st.booleans(), st.sampled_from([None, 2, 3, 7]))
    @settings(max_examples=150, deadline=None)
    def test_property_matches_loop_for_every_row_count(self, seed, n, kind,
                                                       rows, counts, step):
        # ``step`` draws per part, by the gather bound; None keeps the
        # library's bound, which splits a dense W from N = 42 at S = 150.
        rng = np.random.default_rng(seed)
        w = random_weights(rng, n, kind)
        y = random_block(rng, rows, n, counts)
        nnz = np.count_nonzero(w.entries)
        bound = _GATHER_ELEMENTS if step is None else step * max(nnz, 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_GATHER_ELEMENTS", bound)
            got = w._block_product(y)
            assert got.shape == y.shape and got.dtype == float
            assert np.array_equal(got, oracles.block_product_loop(w.entries, y))
            for s in {1, rows // 2, rows - 1} - {0}:
                assert np.array_equal(w._block_product(y[:s]), got[:s])
            assert np.array_equal(w._block_product(y[rows // 2:]),
                                  got[rows // 2:])

    def test_every_row_count_across_part_boundaries(self):
        # Dense W at N = 60: 3,600 nonzeros, so the library's bound splits
        # the draws into parts of 72, and S = 1..150 ends a part at every
        # position, with zero, one or two whole parts before it.
        rng = np.random.default_rng(1)
        w = random_weights(rng, 60, "dense")
        step = _GATHER_ELEMENTS // np.count_nonzero(w.entries)
        assert 2 * step < 150
        for counts in (False, True):
            y = random_block(rng, 150, 60, counts)
            full = w._block_product(y)
            assert np.array_equal(full, oracles.block_product_loop(w.entries, y))
            for s in range(1, 151):
                assert np.array_equal(w._block_product(y[:s]), full[:s])

    def test_no_edges_and_one_node(self):
        y = np.array([[2.0], [-3.0]])
        assert np.array_equal(
            WeightMatrix(np.array([[0.5]]))._block_product(y), 0.5 * y)
        assert np.array_equal(
            WeightMatrix(np.zeros((4, 4)))._block_product(np.ones((3, 4))),
            np.zeros((3, 4)))


class TestNorms:
    def test_operator_norm_matches_svd(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.standard_normal((6, 6))
            assert operator_norm(m) == pytest.approx(
                np.linalg.norm(m, 2), abs=1e-7)

    def test_operator_norm_close_top_singular_values(self):
        # Singular values 1 and 1 - 1e-5: power iteration on M'M settles
        # near 0.99999 within its tolerance; the norm must be exact.
        rng = np.random.default_rng(3)
        u, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        v, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        sv = [1.0, 1.0 - 1e-5, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0]
        m = u @ np.diag(sv) @ v.T
        assert operator_norm(m) == pytest.approx(1.0, abs=1e-12)

    def test_spectral_radius_matches_eig(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = rng.standard_normal((6, 6))
            expected = float(np.max(np.abs(np.linalg.eigvals(m))))
            assert spectral_radius(m) == pytest.approx(expected, abs=1e-6)

    def test_spectral_radius_plus_minus_pair(self):
        # eigenvalues +1 and -1: plain power iteration stalls, M@M works
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert spectral_radius(m) == pytest.approx(1.0, abs=1e-8)

    def test_nilpotent_collapses_to_zero(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert spectral_radius(m) == 0.0

    def test_spectral_radius_le_operator_norm(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = rng.standard_normal((5, 5))
            assert spectral_radius(m) <= operator_norm(m) + 1e-8

    def test_diag_exact(self):
        m = np.diag([3.0, -2.0, 0.5])
        assert operator_norm(m) == pytest.approx(3.0, abs=1e-9)
        assert spectral_radius(m) == pytest.approx(3.0, abs=1e-9)

    def test_spillover_two_cycle(self):
        # 0.5 W - 0.1 I has eigenvalues 0.4 (on the all-ones vector) and
        # -0.6; an iteration started from all-ones stops at 0.4.
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert spectral_radius(0.5 * w - 0.1 * np.eye(2)) == pytest.approx(
            0.6, abs=1e-12)

    def test_dominant_complex_pair(self):
        # 0.5 on the all-ones direction, a rotation scaled by 0.9 on two
        # directions orthogonal to it and 0.2 on the rest.
        n = 6
        rng = np.random.default_rng(4)
        basis = np.column_stack([np.ones(n), rng.standard_normal((n, n - 1))])
        q, _ = np.linalg.qr(basis)
        angle = 1.0
        block = np.zeros((n, n))
        block[0, 0] = 0.5
        block[1:3, 1:3] = 0.9 * np.array([[np.cos(angle), -np.sin(angle)],
                                          [np.sin(angle), np.cos(angle)]])
        block[3:, 3:] = 0.2 * np.eye(n - 3)
        m = q @ block @ q.T
        assert spectral_radius(m) == pytest.approx(0.9, abs=1e-12)


class TestInvariantVector:
    def test_doubly_stochastic_gives_uniform(self):
        n = 5
        w = WeightMatrix((np.ones((n, n)) - np.eye(n)) / (n - 1))
        pi = invariant_vector(w)
        assert np.allclose(pi.pi, np.ones(n) / n, atol=1e-9)

    def test_left_eigenvector_identity(self):
        adj = random_adjacency(10, 0.8, 5)
        w = row_normalize(adj)
        pi = invariant_vector(w)
        assert np.max(np.abs(pi.pi @ w.entries - pi.pi)) < 1e-8

    def test_periodic_star(self):
        # Node 0 linked both ways to nodes 1-3: period 2.
        a = np.zeros((4, 4))
        a[0, 1:] = a[1:, 0] = 1.0
        pi = invariant_vector(row_normalize(Adjacency(a)))
        assert np.allclose(pi.pi, [1 / 2, 1 / 6, 1 / 6, 1 / 6], atol=1e-12)

    def test_two_closed_classes_raise(self):
        two_cycle = np.array([[0.0, 1.0], [1.0, 0.0]])
        w = WeightMatrix(np.kron(np.eye(2), two_cycle))
        with pytest.raises(ValueError, match="not unique"):
            invariant_vector(w)

    def test_requires_row_stochastic(self):
        a = np.zeros((3, 3))
        a[0, 1] = 1.0
        w = row_normalize(Adjacency(a))  # has zero rows
        with pytest.raises(ValueError, match="row-stochastic"):
            invariant_vector(w)


class TestPerturb:
    def make_w(self, seed=3, n=12):
        return row_normalize(random_adjacency(n, 0.5, seed))

    def test_mix_uniform_alpha_zero_identity(self):
        w = self.make_w()
        out = perturb(w, "mix_uniform", alpha=0.0)
        assert np.allclose(out.entries, w.entries)

    def test_mix_uniform_alpha_one(self):
        w = self.make_w()
        out = perturb(w, "mix_uniform", alpha=1.0)
        n = w.n_nodes
        assert np.allclose(out.entries[0, 1], 1.0 / (n - 1))
        assert np.all(np.diag(out.entries) == 0)

    def test_edge_delete_reduces_edges(self):
        w = self.make_w()
        before = np.count_nonzero(w.entries)
        out = perturb(w, "edge_delete", rng_seed=1, frac=0.3)
        assert np.count_nonzero(out.entries) <= before - int(0.3 * before) + 1
        sums = out.entries.sum(axis=1)
        assert np.all((np.abs(sums) < 1e-12) | (np.abs(sums - 1) < 1e-10))

    def test_permute_preserves_multiset(self):
        w = self.make_w()
        out = perturb(w, "permute_labels", rng_seed=7)
        assert np.allclose(np.sort(out.entries.ravel()),
                           np.sort(w.entries.ravel()))

    def test_rewire_preserves_degrees(self):
        w = self.make_w(seed=9, n=15)
        support = (w.entries > 0)
        out = perturb(w, "rewire_degseq", rng_seed=2, iters=5)
        new_support = (out.entries > 0)
        assert np.array_equal(support.sum(axis=0), new_support.sum(axis=0))
        assert np.array_equal(support.sum(axis=1), new_support.sum(axis=1))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown perturbation"):
            perturb(self.make_w(), "swap_everything")

    def test_deterministic_per_seed(self):
        w = self.make_w()
        a = perturb(w, "edge_delete", rng_seed=11, frac=0.2)
        b = perturb(w, "edge_delete", rng_seed=11, frac=0.2)
        assert np.array_equal(a.entries, b.entries)


class TestPartitionQuotient:
    def test_averaging_operator_rows(self):
        part = Partition(np.array([1, 1, 2, 2, 2]))
        pi_op = part.averaging_operator()
        assert pi_op.shape == (2, 5)
        assert np.allclose(pi_op.sum(axis=1), 1.0)
        assert np.allclose(pi_op[0], [0.5, 0.5, 0, 0, 0])

    def test_balanced_w_zero_defect(self):
        # Block-constant W: the balance condition holds exactly.
        block = np.array([[0.0, 0.5], [0.5, 0.0]])
        w_mat = np.kron(block, np.full((3, 3), 1.0 / 3.0))
        w = WeightMatrix(w_mat)
        part = Partition(np.repeat([1, 2], 3))
        qm = quotient_operator(w, part)
        assert qm.delta < 1e-12

    def test_quotient_entries(self):
        block = np.array([[0.0, 1.0], [1.0, 0.0]])
        w_mat = np.kron(block, np.full((2, 2), 0.5))
        qm = quotient_operator(WeightMatrix(w_mat), Partition(np.repeat([1, 2], 2)))
        assert np.allclose(qm.omega, [[0.0, 1.0], [1.0, 0.0]])

    def test_singleton_partition_is_original(self):
        w = row_normalize(random_adjacency(6, 0.6, 13))
        part = Partition(np.arange(1, 7))
        qm = quotient_operator(w, part)
        assert np.allclose(qm.omega, w.entries)
        assert qm.delta < 1e-12

    def test_defect_matches_direct_norm(self):
        w = row_normalize(random_adjacency(9, 0.5, 17))
        part = Partition(np.array([1, 1, 1, 2, 2, 2, 3, 3, 3]))
        qm = quotient_operator(w, part)
        pi_op = part.averaging_operator()
        direct = np.linalg.norm(pi_op @ w.entries - qm.omega @ pi_op, 2)
        assert qm.delta == pytest.approx(direct, abs=1e-12)

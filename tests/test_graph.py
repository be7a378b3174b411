import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nssm.graph import (
    Adjacency,
    NonConvergenceError,
    Partition,
    WeightMatrix,
    invariant_vector,
    operator_norm,
    perturb,
    quotient_operator,
    row_normalize,
    spectral_radius,
)


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

import numpy as np
import pytest

from nssm.design import DesignRecipe, spillover_matrix
from nssm.diagnostics import (
    BreakSet,
    aggregate_recursion,
    companion_radius,
    counterfactual_bound,
    default_threshold,
    detect_breaks,
    hop_coefficients,
    irf,
    macro_irf,
    meso_reduce,
    sensitivity_bound,
    stability_report,
)
from nssm.graph import (
    Adjacency,
    InvariantVector,
    Partition,
    WeightMatrix,
    invariant_vector,
    operator_norm,
    row_normalize,
)
from nssm.simulate import gen_gaussian_panel
from oracles import companion_radius_dense, hop_coeff_subset_sum


def make_w(n=8, seed=0, density=0.6):
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < density) * 1.0
    np.fill_diagonal(a, 0.0)
    a[a.sum(axis=1) == 0, 0] = 1.0
    np.fill_diagonal(a, 0.0)
    return row_normalize(Adjacency(a))


def product_oracle(b1, b2, w_entries, t, h):
    """Direct product B_{t+h} ... B_{t+1}."""
    n = w_entries.shape[0]
    prod = np.eye(n)
    for k in range(1, h + 1):
        prod = (b1[t + k] * w_entries + b2[t + k] * np.eye(n)) @ prod
    return prod


class TestStabilityReport:
    def test_row_stochastic_proxy(self):
        w = make_w()
        rep = stability_report(np.full(5, 0.3), np.full(5, 0.6), w)
        assert np.all(rep.coefficient_proxy <= 0.9 + 1e-12)
        assert rep.contraction == (rep.max_op_norm < 1.0)

    def test_identity_network(self):
        w = WeightMatrix(np.eye(4))
        rep = stability_report(np.array([0.3]), np.array([0.4]), w)
        assert rep.op_norms[0] == pytest.approx(0.7, abs=1e-8)
        assert rep.spectral_radii[0] == pytest.approx(0.7, abs=1e-8)

    def test_rho_le_opnorm_random(self):
        rng = np.random.default_rng(1)
        w = make_w(seed=2)
        b1 = 0.4 * rng.standard_normal(10)
        b2 = 0.4 * rng.standard_normal(10)
        rep = stability_report(b1, b2, w)
        assert np.all(rep.spectral_radii <= rep.op_norms + 1e-8)

    def test_two_networks_for_five_steps_raises(self):
        w = make_w()
        with pytest.raises(ValueError, match="no network for time 2"):
            stability_report(np.full(5, 0.3), np.full(5, 0.6), [w, w])

    def test_sequence_of_one_is_static(self):
        # fit_gaussian takes [w] as a static network; so does the report.
        rng = np.random.default_rng(3)
        w = make_w(seed=4)
        b1, b2 = 0.4 * rng.standard_normal((2, 6))
        static, one = stability_report(b1, b2, w), stability_report(b1, b2, [w])
        for field in ("op_norms", "spectral_radii", "coefficient_proxy"):
            assert np.array_equal(getattr(one, field), getattr(static, field))


class TestCompanionRadius:
    def test_unstable_var2_whose_b1_contracts(self):
        # The row-normalized complete graph on 4 nodes, beta = (0.05, 0.05)
        # on lag 1 and 0.95 I on lag 2: B_1 has norm 0.1, yet the VAR(2)
        # has companion spectral radius 1.026.
        w = row_normalize(Adjacency(np.ones((4, 4)) - np.eye(4)))
        recipe = DesignRecipe(lag_order=2)
        assert recipe.column_labels() == ["intercept", "WY_lag_1", "WY_lag_2",
                                          "Y_lag_1", "Y_lag_2"]
        theta = np.tile([0.0, 0.05, 0.0, 0.05, 0.95], (3, 1))
        assert stability_report(theta[:, 1], theta[:, 3], w).contraction
        comp = np.block([[0.05 * w.entries + 0.05 * np.eye(4), 0.95 * np.eye(4)],
                         [np.eye(4), np.zeros((4, 4))]])
        rho = companion_radius(theta, recipe.lag_columns(), w)
        assert rho == pytest.approx(np.max(np.abs(np.linalg.eigvals(comp))),
                                    rel=1e-12)
        assert rho == pytest.approx(1.026, abs=5e-4)

    def test_lag1_is_the_spillover_radius(self):
        rng = np.random.default_rng(5)
        ws = [make_w(n=8, seed=s) for s in range(6)]
        theta = 0.4 * rng.standard_normal((6, 3))
        rep = stability_report(theta[:, 1], theta[:, 2], ws)
        rho = companion_radius(theta, DesignRecipe().lag_columns(), ws)
        assert rho == pytest.approx(rep.max_spectral_radius, rel=1e-12)

    def test_network_powers_enter_their_lag(self):
        # B_1 = 0.3 W^2 + 0.2 I on a directed 3-cycle, whose W^2 is the
        # reverse cycle: eigenvalues 0.3 w + 0.2 over the cube roots w.
        w = WeightMatrix(np.roll(np.eye(3), 1, axis=1))
        recipe = DesignRecipe(network_powers=(2,))
        theta = np.array([[9.0, 0.3, 0.2]])
        assert companion_radius(theta, recipe.lag_columns(), w) == \
            pytest.approx(0.5, rel=1e-12)


class TestStabilityCondition:
    """Spectral radii against the network stability condition: B_t =
    beta1_t W + beta2_t I has eigenvalues beta1_t lambda_i(W) + beta2_t."""

    @staticmethod
    def condition(b1, b2, w):
        lam = np.linalg.eigvals(w.entries)
        return np.max(np.abs(b1 * lam + b2))

    @pytest.mark.parametrize("seed", range(3))
    def test_single_w(self, seed):
        rng = np.random.default_rng(seed)
        w = make_w(n=50, seed=seed, density=0.1)
        b1 = rng.uniform(-0.6, 0.6, 200)
        b2 = rng.uniform(-0.6, 0.6, 200)
        rep = stability_report(b1, b2, w)
        expected = [self.condition(b1[t], b2[t], w) for t in range(200)]
        assert np.max(np.abs(rep.spectral_radii - expected)) < 1e-10

    def test_per_t_w(self):
        rng = np.random.default_rng(7)
        ws = [make_w(n=20, seed=s, density=0.2) for s in range(30)]
        b1 = rng.uniform(-0.6, 0.6, 30)
        b2 = rng.uniform(-0.6, 0.6, 30)
        rep = stability_report(b1, b2, ws)
        expected = [self.condition(b1[t], b2[t], ws[t]) for t in range(30)]
        assert np.max(np.abs(rep.spectral_radii - expected)) < 1e-10


def make_undirected_w(n, seed):
    """Row-normalized symmetric adjacency: real eigenvalues."""
    rng = np.random.default_rng(seed)
    a = np.triu(rng.random((n, n)) < 0.5, 1) * 1.0
    return row_normalize(Adjacency(a + a.T))


class TestSpectralMapping:
    """Radii from W's eigenvalues (spectral mapping) against the dense
    pN x pN companion eigensolve."""

    @pytest.mark.parametrize("own_lags", [True, False])
    @pytest.mark.parametrize("powers", [(1,), (2,), (1, 2)])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("n", [5, 12, 30])
    @pytest.mark.parametrize("directed", [True, False])
    def test_radii_match_the_dense_companion(self, directed, n, p, powers,
                                             own_lags):
        w = make_w(n=n, seed=n + p) if directed else make_undirected_w(n, n + p)
        recipe = DesignRecipe(lag_order=p, network_powers=powers,
                              include_own_lags=own_lags)
        rng = np.random.default_rng(10 * n + p)
        theta = 0.5 * rng.standard_normal((4, recipe.n_cols))
        lag_columns = recipe.lag_columns()
        rho = companion_radius(theta, lag_columns, w)
        assert rho == pytest.approx(
            companion_radius_dense(theta, lag_columns, w), rel=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_per_t_networks(self, p):
        ws = [make_w(n=12, seed=s) for s in range(5)]
        recipe = DesignRecipe(lag_order=p, network_powers=(1, 2))
        theta = 0.5 * np.random.default_rng(p).standard_normal(
            (5, recipe.n_cols))
        lag_columns = recipe.lag_columns()
        assert companion_radius(theta, lag_columns, ws) == pytest.approx(
            companion_radius_dense(theta, lag_columns, ws), rel=1e-12)

    @pytest.mark.parametrize("p", [1, 2])
    def test_intercept_only_recipe_has_radius_zero(self, p):
        recipe = DesignRecipe(lag_order=p, include_network_lags=False,
                              include_own_lags=False)
        assert recipe.lag_columns() == [[]] * p
        theta = np.ones((3, 1))
        assert companion_radius(theta, recipe.lag_columns(), make_w()) == 0.0
        assert companion_radius_dense(theta, recipe.lag_columns(),
                                      make_w()) == 0.0

    def test_nilpotent_network_radius_is_beta2(self):
        # A permuted directed path has only the eigenvalue 0, so B_t =
        # beta1 W + beta2 I has only beta2.
        perm = np.random.default_rng(0).permutation(9)
        w = WeightMatrix(np.eye(9, k=1)[np.ix_(perm, perm)])
        b1, b2 = np.array([0.7, -2.0, 5.0]), np.array([0.3, -0.6, 0.0])
        rep = stability_report(b1, b2, w)
        assert np.array_equal(rep.spectral_radii, np.abs(b2))
        theta = np.column_stack([np.zeros(3), b1, b2])
        assert companion_radius(theta, DesignRecipe().lag_columns(), w) == 0.6

    def test_empty_path_is_zero(self):
        lag_columns = DesignRecipe(lag_order=2).lag_columns()
        assert companion_radius(np.empty((0, 5)), lag_columns, make_w()) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_theta_raises(self, bad):
        recipe = DesignRecipe(lag_order=2)
        theta = np.full((4, recipe.n_cols), 0.1)
        theta[2, 1] = bad
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            companion_radius(theta, recipe.lag_columns(), make_w())
        with pytest.raises(ValueError, match="matrix entries must be finite"), \
                np.errstate(invalid="ignore"):  # inf * 0 in B_t
            stability_report(theta[:, 1], theta[:, 3], make_w())

    @pytest.fixture
    def eigvals_shapes(self, monkeypatch):
        shapes, eigvals = [], np.linalg.eigvals

        def recording(a):
            shapes.append(np.shape(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", recording)
        return shapes

    def test_one_eigensolve_per_network(self, eigvals_shapes):
        recipe = DesignRecipe(lag_order=2)
        theta = 0.3 * np.random.default_rng(1).standard_normal(
            (50, recipe.n_cols))
        w = make_w(n=7, seed=3)
        stability_report(theta[:, 1], theta[:, 3], w)
        companion_radius(theta, recipe.lag_columns(), w)
        assert eigvals_shapes == [(7, 7)] + [(7, 2, 2)] * 50
        eigvals_shapes.clear()
        ws = [make_w(n=7, seed=4), make_w(n=7, seed=5)] * 25
        stability_report(theta[:, 1], theta[:, 3], ws)
        companion_radius(theta, recipe.lag_columns(), ws)
        assert eigvals_shapes.count((7, 7)) == 2
        assert eigvals_shapes.count((7, 2, 2)) == 50
        assert len(eigvals_shapes) == 52


class TestHopCoefficients:
    def test_constant_coefficient_example(self):
        b1 = np.full(5, 0.3)
        b2 = np.full(5, 0.5)
        d = hop_coefficients(b1, b2, 0, 2)
        assert np.allclose(d.coefficients, [0.25, 0.30, 0.09], atol=1e-12)

    def test_h1(self):
        b1 = np.array([0.0, 0.7])
        b2 = np.array([0.0, -0.2])
        d = hop_coefficients(b1, b2, 0, 1)
        assert np.allclose(d.coefficients, [-0.2, 0.7])

    def test_beta1_zero(self):
        b1 = np.zeros(6)
        b2 = np.array([0.0, 0.5, 0.6, 0.7, 0.8, 0.9])
        d = hop_coefficients(b1, b2, 0, 4)
        assert d.coefficients[0] == pytest.approx(0.5 * 0.6 * 0.7 * 0.8)
        assert np.all(d.coefficients[1:] == 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_subset_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        h = int(rng.integers(1, 7))
        b1 = rng.standard_normal(h + 2)
        b2 = rng.standard_normal(h + 2)
        d = hop_coefficients(b1, b2, 0, h)
        oracle = hop_coeff_subset_sum(b1, b2, 0, h)
        assert np.max(np.abs(d.coefficients - oracle)) < 1e-12

    def test_sum_identity(self):
        # Sum of coefficients equals the product of (b1 + b2) factors.
        rng = np.random.default_rng(3)
        b1 = rng.standard_normal(9)
        b2 = rng.standard_normal(9)
        d = hop_coefficients(b1, b2, 0, 8)
        assert d.coefficients.sum() == pytest.approx(
            np.prod(b1[1:9] + b2[1:9]), abs=1e-12)

    def test_path_coverage_enforced(self):
        with pytest.raises(ValueError, match="cover"):
            hop_coefficients(np.zeros(3), np.zeros(3), 0, 4)


class TestIrf:
    def test_hop_identity_random(self):
        rng = np.random.default_rng(4)
        w = make_w(n=10, seed=5)
        b1 = 0.5 * rng.standard_normal(10)
        b2 = 0.5 * rng.standard_normal(10)
        h = 5
        d = hop_coefficients(b1, b2, 0, h)
        total, contribs = irf(w, d, 3)
        direct = product_oracle(b1, b2, w.entries, 0, h)[:, 3]
        assert np.max(np.abs(total - direct)) < 1e-10
        assert np.max(np.abs(contribs.sum(axis=0) - direct)) < 1e-10

    def test_two_node_ring(self):
        w = WeightMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        b1 = np.full(3, 0.4)
        b2 = np.full(3, 0.1)
        d = hop_coefficients(b1, b2, 0, 2)
        _, contribs = irf(w, d, 0)
        # Hop-2 mass returns to the origin on the 2-ring.
        assert contribs[2][0] == pytest.approx(0.4 * 0.4)
        assert contribs[2][1] == 0.0

    def test_dynamic_w_rejected(self):
        d = hop_coefficients(np.zeros(3), np.zeros(3), 0, 1)
        with pytest.raises(ValueError, match="static"):
            irf([make_w(), make_w()], d, 0)


class TestMacroIrf:
    def test_closed_form(self):
        pi = InvariantVector(pi=np.array([0.25, 0.75]))
        b1 = np.array([0.0, 0.5, 0.3])
        b2 = np.array([0.0, 0.3, 0.5])
        assert macro_irf(pi, b1, b2, 0, 2, 0) == pytest.approx(0.25 * 0.64)

    def test_zero_factor(self):
        pi = InvariantVector(pi=np.array([0.5, 0.5]))
        b1 = np.array([0.0, 0.5, -0.3])
        b2 = np.array([0.0, 0.5, 0.3])
        assert macro_irf(pi, b1, b2, 0, 2, 1) == 0.0

    def test_consistency_with_irf(self):
        rng = np.random.default_rng(6)
        w = make_w(n=9, seed=7, density=0.7)
        pi = invariant_vector(w)
        b1 = 0.4 * rng.standard_normal(8)
        b2 = 0.4 * rng.standard_normal(8)
        h = 4
        d = hop_coefficients(b1, b2, 0, h)
        for j in (0, 4):
            total, _ = irf(w, d, j)
            assert pi.pi @ total == pytest.approx(
                macro_irf(pi, b1, b2, 0, h, j), abs=1e-10)


class TestCounterfactualBound:
    def test_zero_delta(self):
        assert counterfactual_bound(np.ones(5), np.ones(5), 1.0, 0.0, 0, 3) == 0

    def test_h1_exact(self):
        b1 = np.array([0.0, 0.6])
        b2 = np.array([0.0, 0.2])
        w = make_w(seed=8)
        w_cf = make_w(seed=9)
        delta = operator_norm(w.entries - w_cf.entries)
        bound = counterfactual_bound(b1, b2, 1.0, delta, 0, 1)
        actual = operator_norm(
            spillover_matrix(0.6, 0.2, w) - spillover_matrix(0.6, 0.2, w_cf))
        assert bound == pytest.approx(0.6 * delta, abs=1e-12)
        assert actual <= bound + 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_bound_dominates_actual(self, seed):
        rng = np.random.default_rng(seed)
        w = make_w(seed=seed + 10)
        w_cf = make_w(seed=seed + 30)
        b1 = 0.5 * rng.standard_normal(6)
        b2 = 0.5 * rng.standard_normal(6)
        h = 4
        c_w = max(operator_norm(w.entries), operator_norm(w_cf.entries))
        delta = operator_norm(w.entries - w_cf.entries)
        bound = counterfactual_bound(b1, b2, c_w, delta, 0, h)
        actual = operator_norm(
            product_oracle(b1, b2, w.entries, 0, h)
            - product_oracle(b1, b2, w_cf.entries, 0, h))
        assert actual <= bound + 1e-10


class TestAggregation:
    def test_identity_on_simulated_panel(self):
        w = make_w(n=12, seed=11, density=0.7)
        pi = invariant_vector(w)
        paths = np.tile([0.2, 0.35, 0.3], (60, 1))
        panel = gen_gaussian_panel(w, paths, 0.2, 60, seed=12)
        ebar = np.zeros(60)
        for t in range(1, 60):
            eps = panel[t] - (0.2 + 0.35 * (w.entries @ panel[t - 1])
                              + 0.3 * panel[t - 1])
            ebar[t] = pi.pi @ eps
        ybar = aggregate_recursion(pi, paths, ybar0=float(pi.pi @ panel[0]),
                                   realized_innovations=ebar)
        assert np.max(np.abs(ybar - panel @ pi.pi)) < 1e-12

    def test_identity_with_covariates(self):
        # Nodal covariate effects Z_t gamma aggregate to zbar_t = pi' Z_t gamma.
        w = make_w(n=6, seed=21, density=1.1)  # complete graph
        pi = invariant_vector(w)
        rng = np.random.default_rng(22)
        z = rng.standard_normal((30, 6, 2))
        gamma = np.array([0.5, -0.3])
        paths = np.tile([0.2, 0.35, 0.3], (30, 1))
        panel = gen_gaussian_panel(w, paths, 0.2, 30, seed=23, z=z, gamma=gamma)
        zbar = np.array([pi.pi @ (z[t] @ gamma) for t in range(30)])
        ebar = np.zeros(30)
        for t in range(1, 30):
            eps = panel[t] - (0.2 + 0.35 * (w.entries @ panel[t - 1])
                              + 0.3 * panel[t - 1] + z[t] @ gamma)
            ebar[t] = pi.pi @ eps
        ybar0 = float(pi.pi @ panel[0])
        ybar = aggregate_recursion(pi, paths, zbar_path=zbar, ybar0=ybar0,
                                   realized_innovations=ebar)
        assert np.max(np.abs(ybar - panel @ pi.pi)) < 1e-12
        without = aggregate_recursion(pi, paths, ybar0=ybar0,
                                      realized_innovations=ebar)
        assert np.max(np.abs(without - panel @ pi.pi)) > 1e-3

    def test_no_persistence_case(self):
        pi = InvariantVector(pi=np.array([0.5, 0.5]))
        paths = np.column_stack([np.arange(5.0), np.zeros(5), np.zeros(5)])
        out = aggregate_recursion(pi, paths, ybar0=100.0)
        assert np.allclose(out[1:], np.arange(1.0, 5.0))


class TestMesoReduce:
    def balanced_w(self):
        block = np.array([[0.0, 0.6, 0.4], [0.3, 0.0, 0.7], [0.5, 0.5, 0.0]])
        return WeightMatrix(np.kron(block, np.full((4, 4), 0.25))), Partition(
            np.repeat([1, 2, 3], 4))

    def test_balanced_partition_zero_residual(self):
        w, part = self.balanced_w()
        paths = np.tile([0.1, 0.4, 0.3], (40, 1))
        panel = gen_gaussian_panel(w, paths, 0.3, 40, seed=13)
        out = meso_reduce(w, part, panel, paths)
        assert np.max(np.abs(out["residuals"])) < 1e-10
        assert np.max(out["deltas"]) < 1e-12

    def test_singleton_partition(self):
        w = make_w(n=5, seed=14)
        part = Partition(np.arange(1, 6))
        paths = np.tile([0.0, 0.3, 0.3], (20, 1))
        panel = gen_gaussian_panel(w, paths, 0.3, 20, seed=15)
        out = meso_reduce(w, part, panel, paths)
        assert np.max(out["deltas"]) < 1e-12
        assert np.max(np.abs(out["residuals"])) < 1e-10

    def test_remainder_bound_on_perturbed_w(self):
        w, part = self.balanced_w()
        rng = np.random.default_rng(16)
        noisy = w.entries + 0.05 * rng.random(w.entries.shape)
        np.fill_diagonal(noisy, 0.0)
        noisy = noisy / noisy.sum(axis=1, keepdims=True)
        w2 = WeightMatrix(noisy)
        paths = np.tile([0.1, 0.4, 0.3], (30, 1))
        panel = gen_gaussian_panel(w2, paths, 0.3, 30, seed=17)
        out = meso_reduce(w2, part, panel, paths)
        assert np.all(out["remainder_norms"] <= out["remainder_bounds"] + 1e-10)
        # Residual of the reduced recursion equals the remainder term.
        resid_norms = np.linalg.norm(out["residuals"], axis=1)
        assert np.all(resid_norms <= out["remainder_bounds"] + 1e-10)

    def test_residuals_are_the_remainders_with_covariates(self):
        # With Z_t gamma in the panel, which cancels from the reduction,
        # the reduced recursion's residual is the aggregation remainder r_t.
        w = make_w(n=8, seed=24)
        part = Partition(np.array([1, 1, 1, 2, 2, 2, 3, 3]))
        rng = np.random.default_rng(25)
        z = rng.standard_normal((30, 8, 2))
        gamma = np.array([0.5, -0.3])
        paths = np.tile([0.1, 0.4, 0.3], (30, 1))
        panel = gen_gaussian_panel(w, paths, 0.3, 30, seed=26, z=z, gamma=gamma)
        out = meso_reduce(w, part, panel, paths)
        resid_norms = np.linalg.norm(out["residuals"], axis=1)
        assert np.max(out["remainder_norms"]) > 1e-3
        assert np.max(np.abs(resid_norms - out["remainder_norms"])) < 1e-12

    def test_sequence_of_one_is_static(self):
        w = make_w(n=6, seed=18)
        part = Partition(np.repeat([1, 2], 3))
        paths = np.tile([0.1, 0.3, 0.3], (15, 1))
        panel = gen_gaussian_panel(w, paths, 0.3, 15, seed=19)
        static = meso_reduce(w, part, panel, paths)
        one = meso_reduce([w], part, panel, paths)
        for key, value in static.items():
            assert np.array_equal(one[key], value)


class TestDetectBreaks:
    def test_single_jump_activation_index(self):
        theta = np.zeros((100, 1))
        theta[50:, 0] = 1.0  # jump between t=49 and t=50
        breaks = detect_breaks(theta, np.array([0.2]))
        assert breaks.activations[0] == (51,)

    def test_strict_inequality_no_activation(self):
        theta = np.array([[0.0], [0.2], [0.4], [0.6]])
        breaks = detect_breaks(theta, np.array([0.2]))
        assert breaks.activations[0] == ()

    def test_no_false_activations_below_half_d(self):
        rng = np.random.default_rng(18)
        theta = 0.04 * rng.standard_normal((200, 2))  # increments < d/2
        breaks = detect_breaks(theta, np.array([0.5, 0.5]))
        assert all(len(a) == 0 for a in breaks.activations)

    def test_needs_three_points(self):
        with pytest.raises(ValueError, match="3 time points"):
            detect_breaks(np.zeros((2, 1)), np.array([0.1]))

    def test_breakset_validates_times(self):
        with pytest.raises(ValueError, match=">= 2"):
            BreakSet(activations=((1,),), thresholds=np.array([0.1]))

    def test_default_threshold_positive(self):
        rng = np.random.default_rng(19)
        theta = np.cumsum(0.01 * rng.standard_normal((400, 3)), axis=0)
        d = default_threshold(theta)
        assert d.shape == (3,)
        assert np.all(d > 0)


class TestSensitivityBound:
    def test_values(self):
        assert sensitivity_bound(1.0, 0.5, 4.0) == pytest.approx(1.0)
        assert sensitivity_bound(1.0, 0.0, 4.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sensitivity_bound(-1.0, 0.5, 4.0)

    def test_dominates_simulated_gap(self):
        # Carry-forward network gap vs the bound, on deterministic draws.
        rng = np.random.default_rng(20)
        w = make_w(n=10, seed=21)
        for _ in range(200):
            w_hat_mat = w.entries + 0.1 * rng.standard_normal(w.entries.shape)
            b1 = float(rng.uniform(0.0, 0.8))
            y = rng.standard_normal(10)
            gap = b1 * (w.entries - w_hat_mat) @ y
            delta = operator_norm(w.entries - w_hat_mat)
            bound = sensitivity_bound(b1, delta, float(y @ y))
            assert float(gap @ gap) <= bound + 1e-10

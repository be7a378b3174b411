import numpy as np
import pytest

from nssm.graph import WeightMatrix, invariant_vector
from nssm.simulate import (
    CoeffPathSpec,
    EdgePathSpec,
    GraphGen,
    gen_coeff_paths,
    gen_dynamic_edges,
    gen_gaussian_panel,
    gen_graph,
    gen_poisson_panel,
)


class TestGenGraph:
    def test_sbm_corner_block_diagonal(self):
        g = GraphGen(kind="sbm", n_nodes=6, seed=0,
                     params={"block_sizes": [3, 3], "p_in": 1.0, "p_out": 0.0})
        w, adj = gen_graph(g)
        assert np.all(adj.entries[:3, 3:] == 0)
        assert np.all(adj.entries[3:, :3] == 0)
        off = adj.entries[:3, :3]
        assert np.all(off + np.eye(3) > 0)

    def test_scale_free_tree(self):
        g = GraphGen(kind="scale_free", n_nodes=5, seed=1,
                     params={"m_attach": 1})
        _, adj = gen_graph(g)
        assert adj.entries.sum() == 2 * (5 - 1)

    @pytest.mark.parametrize("n, m, seed, edges", [
        (8, 1, 0, [(0, 1), (0, 4), (1, 2), (2, 3), (2, 5), (2, 6), (4, 7)]),
        (8, 2, 3, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 3),
                   (3, 4), (3, 5), (3, 7), (5, 6), (5, 7)]),
        (10, 3, 7, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
                    (0, 8), (0, 9), (1, 4), (1, 7), (1, 9), (3, 4), (3, 5),
                    (3, 6), (3, 7), (3, 8), (4, 5), (4, 9), (5, 6), (5, 8)]),
    ])
    def test_scale_free_pinned(self, n, m, seed, edges):
        # The graphs networkx 3.6.1's barabasi_albert_graph(n, m, seed) gives.
        g = GraphGen(kind="scale_free", n_nodes=n, seed=seed,
                     params={"m_attach": m})
        _, adj = gen_graph(g)
        expected = np.zeros((n, n))
        for i, j in edges:
            expected[i, j] = expected[j, i] = 1.0
        assert np.array_equal(adj.entries, expected)

    def test_scale_free_m_below_n(self):
        with pytest.raises(ValueError, match="m_attach"):
            GraphGen(kind="scale_free", n_nodes=3, seed=0,
                     params={"m_attach": 3})

    def test_latent_distance_density_half_at_zero_scale(self):
        g = GraphGen(kind="latent_distance", n_nodes=60, seed=2,
                     params={"dim": 2, "scale": 0.0})
        _, adj = gen_graph(g, target_density=None)
        n = 60
        density = adj.entries.sum() / (n * (n - 1))
        assert abs(density - 0.5) < 0.05

    def test_latent_distance_calibrated_density(self):
        g = GraphGen(kind="latent_distance", n_nodes=80, seed=3,
                     params={"dim": 2, "scale": 1.5})
        _, adj = gen_graph(g)  # default target density 0.15
        n = 80
        density = adj.entries.sum() / (n * (n - 1))
        assert abs(density - 0.15) < 0.05

    def test_deterministic_per_seed(self):
        g = GraphGen(kind="sbm", n_nodes=10, seed=5,
                     params={"block_sizes": [5, 5], "p_in": 0.6, "p_out": 0.2})
        _, a1 = gen_graph(g)
        _, a2 = gen_graph(g)
        assert np.array_equal(a1.entries, a2.entries)

    def test_invalid_probability(self):
        with pytest.raises(ValueError, match="p_in"):
            GraphGen(kind="sbm", n_nodes=4, seed=0,
                     params={"block_sizes": [2, 2], "p_in": 1.5, "p_out": 0.0})

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown graph kind"):
            GraphGen(kind="ring", n_nodes=4, seed=0)

    @pytest.mark.parametrize("kind, params, word", [
        ("sbm", [1], "params"),
        ("sbm", {"p_in": 0.5, "p_out": 0.1}, "block_sizes"),
        ("sbm", {"block_sizes": [2, 1], "p_in": 0.5, "p_out": 0.1},
         "block_sizes"),
        ("sbm", {"block_sizes": [4, 0], "p_in": 0.5, "p_out": 0.1},
         "block_sizes"),
        ("sbm", {"block_sizes": [2.5, 1.5], "p_in": 0.5, "p_out": 0.1},
         "block_sizes"),
        ("sbm", {"block_sizes": [2, 2], "p_in": "x", "p_out": 0.1}, "p_in"),
        ("sbm", {"block_sizes": [2, 2], "p_in": 0.5}, "p_out"),
        ("sbm", {"block_sizes": [2, 2], "p_in": True, "p_out": 0.1}, "p_in"),
        ("latent_distance", {"scale": "1"}, "scale"),
        ("latent_distance", {"scale": float("nan")}, "scale"),
        ("latent_distance", {"dim": 2.0}, "dim"),
        ("latent_distance", {"dim": 0}, "dim"),
        ("scale_free", {"m_attach": 2.5}, "m_attach"),
        ("scale_free", {"m_attach": True}, "m_attach"),
    ])
    def test_malformed_params(self, kind, params, word):
        with pytest.raises(ValueError, match=word):
            GraphGen(kind=kind, n_nodes=4, seed=0, params=params)


class TestGenCoeffPaths:
    def test_constant_when_no_noise(self):
        spec = CoeffPathSpec(k=3, init=np.array([1.0, 2.0, 3.0]),
                             rw_sd=np.zeros(3))
        paths, jumps = gen_coeff_paths(spec, 50, seed=0)
        assert np.all(paths == paths[0])
        assert jumps == []

    def test_jump_every_step(self):
        spec = CoeffPathSpec(
            k=1, init=np.zeros(1), rw_sd=np.zeros(1),
            sparse_jumps={"rate": 1.0, "low": 1.0, "high": 1.0, "indices": [0]})
        paths, jumps = gen_coeff_paths(spec, 10, seed=1)
        assert len(jumps) == 9
        assert np.allclose(np.abs(np.diff(paths[:, 0])), 1.0)

    def test_jump_rate_expectation(self):
        total = []
        for seed in range(500):
            spec = CoeffPathSpec(
                k=1, init=np.zeros(1), rw_sd=np.zeros(1),
                sparse_jumps={"rate": 0.02, "indices": [0]})
            _, jumps = gen_coeff_paths(spec, 200, seed=seed)
            total.append(len(jumps))
        assert 2.0 <= np.mean(total) <= 6.0

    def test_stability_multiplier_scales_lag_columns(self):
        spec_base = CoeffPathSpec(k=3, init=np.array([0.5, 0.2, 0.3]),
                                  rw_sd=np.zeros(3))
        spec_scaled = CoeffPathSpec(k=3, init=np.array([0.5, 0.2, 0.3]),
                                    rw_sd=np.zeros(3),
                                    stability_multiplier=1.1)
        p0, _ = gen_coeff_paths(spec_base, 10, seed=0)
        p1, _ = gen_coeff_paths(spec_scaled, 10, seed=0)
        assert np.allclose(p1[:, 0], p0[:, 0])
        assert np.allclose(p1[:, 1:], 1.1 * p0[:, 1:])

    @pytest.mark.parametrize("field, value", [
        ("init", [0.1, np.nan, 0.3]),
        ("rw_sd", [0.0, np.nan, 0.01]),
        ("rw_sd", [0.0, np.inf, 0.01]),
        ("stability_multiplier", np.nan),
    ])
    def test_rejects_non_finite_setting(self, field, value):
        kwargs = {"k": 3, "init": [0.1, 0.3, 0.3], "rw_sd": np.zeros(3),
                  field: value}
        with pytest.raises(ValueError, match=field):
            CoeffPathSpec(**kwargs)

    @pytest.mark.parametrize("jumps, field", [
        ({"low": np.nan}, "low"),
        ({"high": np.nan}, "high"),
        ({"low": -np.inf}, "low"),
        ({"low": 0.6, "high": 0.5}, "low"),
        ({"indices": [3]}, "indices"),
        ({"indices": [-1]}, "indices"),
        ({"indices": [1.0]}, "indices"),
        ({"indices": 1}, "indices"),
        ({"rate": "0.1"}, "rate"),
        ({"high": "0.5"}, "high"),
    ])
    def test_rejects_bad_jump_setting(self, jumps, field):
        with pytest.raises(ValueError, match=field):
            CoeffPathSpec(k=3, init=np.zeros(3), rw_sd=np.zeros(3),
                          sparse_jumps={"rate": 0.1, **jumps})

    def test_jump_ground_truth_recorded(self):
        spec = CoeffPathSpec(
            k=2, init=np.zeros(2), rw_sd=np.zeros(2),
            sparse_jumps={"rate": 0.1, "low": 0.5, "high": 0.8, "indices": [1]})
        paths, jumps = gen_coeff_paths(spec, 100, seed=7)
        for t, j, size in jumps:
            assert j == 1
            assert paths[t, 1] - paths[t - 1, 1] == pytest.approx(size)


class TestGenGaussianPanel:
    def test_iid_case_moments(self):
        paths = np.tile([1.5, 0.0, 0.0], (400, 1))
        w = WeightMatrix(np.zeros((20, 20)))
        panel = gen_gaussian_panel(w, paths, 0.25, 400, seed=0)
        body = panel[1:]
        assert abs(body.mean() - 1.5) < 3 * 0.5 / np.sqrt(body.size)

    def test_deterministic_halving(self):
        paths = np.tile([0.0, 0.25, 0.25], (6, 1))
        # With W = I, b1 + b2 = 0.5 acts as plain decay.
        w = WeightMatrix(np.eye(3))
        panel = gen_gaussian_panel(w, paths, 0.0, 6, seed=0, y0=np.ones(3))
        for t in range(6):
            assert np.allclose(panel[t], 0.5 ** t)

    def test_aggregation_identity_with_realized_innovations(self):
        from nssm.diagnostics import aggregate_recursion
        from nssm.graph import Adjacency, row_normalize

        rng = np.random.default_rng(3)
        a = (rng.random((12, 12)) < 0.6) * 1.0
        np.fill_diagonal(a, 0.0)
        w = row_normalize(Adjacency(a))
        pi = invariant_vector(w)
        paths = np.tile([0.1, 0.3, 0.4], (80, 1))
        panel = gen_gaussian_panel(w, paths, 0.25, 80, seed=4)
        # Recover realized aggregated innovations and replay the scalar model.
        ebar = np.zeros(80)
        for t in range(1, 80):
            eps = panel[t] - (0.1 + 0.3 * (w.entries @ panel[t - 1])
                              + 0.4 * panel[t - 1])
            ebar[t] = pi.pi @ eps
        ybar = aggregate_recursion(pi, paths, ybar0=float(pi.pi @ panel[0]),
                                   realized_innovations=ebar)
        assert np.max(np.abs(ybar - panel @ pi.pi)) < 1e-12

    def test_instability_warning(self):
        paths = np.tile([0.0, 0.0, 1.2], (10, 1))
        w = WeightMatrix(np.zeros((4, 4)))
        with pytest.warns(RuntimeWarning, match="unstable"):
            gen_gaussian_panel(w, paths, 0.1, 10, seed=0)

    def test_contractive_regime_bounded(self):
        paths = np.tile([0.2, 0.3, 0.4], (400, 1))
        rng = np.random.default_rng(9)
        a = (rng.random((15, 15)) < 0.5) * 1.0
        np.fill_diagonal(a, 0.0)
        from nssm.graph import Adjacency, row_normalize
        w = row_normalize(Adjacency(a))
        panel = gen_gaussian_panel(w, paths, 0.25, 400, seed=10)
        assert np.all(np.isfinite(panel))
        assert np.max(np.abs(panel)) < 50


    @pytest.mark.parametrize("sigma2", [np.nan, np.inf, -1.0])
    def test_rejects_bad_sigma2(self, sigma2):
        paths = np.tile([0.0, 0.3, 0.3], (10, 1))
        with pytest.raises(ValueError, match="sigma2"):
            gen_gaussian_panel(WeightMatrix(np.eye(3)), paths, sigma2, 10,
                               seed=0)

    @pytest.mark.parametrize("given", ["z", "gamma"])
    def test_half_given_covariates_rejected(self, given):
        # Zγ needs both: with one alone the panel would have no
        # covariate term.
        paths = np.tile([0.0, 0.3, 0.3], (10, 1))
        inputs = {"z": np.ones((10, 3, 1)), "gamma": np.ones(1)}
        with pytest.raises(ValueError, match="z and gamma"):
            gen_gaussian_panel(WeightMatrix(np.eye(3)), paths, 0.1, 10,
                               seed=0, **{given: inputs[given]})


class TestCovariates:
    """The simulator reads Z as the fits do (``design._z_at``): one static
    N x C array, or one per step."""

    N, C, T = 10, 3, 20  # T > N: a static Z read row by row runs out.
    PATHS = np.tile([0.0, 0.3, 0.3], (T + 5, 1))  # room for a burn-in of 5
    Z = np.arange(N * C, dtype=float).reshape(N, C)

    def simulate(self, z, gamma=np.ones(C), **kwargs):
        w = WeightMatrix(np.zeros((self.N, self.N)))
        return gen_gaussian_panel(w, self.PATHS, 0.25, self.T, seed=0,
                                  z=z, gamma=gamma, **kwargs)

    def test_static_z_gives_each_node_its_own_effect(self):
        # With W = 0, y_0 = 0 and b0 = 0, y_1 = Z gamma + eps, and eps is
        # the same draw for every Z.
        gamma = np.array([0.5, -1.0, 2.0])
        noise = self.simulate(np.zeros((self.N, self.C)), gamma)[1]
        assert np.allclose(self.simulate(self.Z, gamma)[1] - noise,
                           self.Z @ gamma, atol=1e-12)

    @pytest.mark.parametrize("burn_in", [0, 5])
    def test_static_z_equals_its_per_step_repeat(self, burn_in):
        repeat = np.repeat(self.Z[None], self.T + burn_in, axis=0)
        assert np.array_equal(self.simulate(self.Z, burn_in=burn_in),
                              self.simulate(repeat, burn_in=burn_in))

    @pytest.mark.parametrize("shape", [(N + 1, C), (T - 1, N, C),
                                       (T, N + 1, C), (N * C,), (1, T, N, C)],
                             ids=["static_wrong_n", "too_few_steps",
                                  "per_step_wrong_n", "vector", "four_dims"])
    def test_bad_z_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="z has shape"):
            self.simulate(np.ones(shape))

    def test_burn_in_steps_need_z_too(self):
        with pytest.raises(ValueError, match="z has shape"):
            self.simulate(np.ones((self.T, self.N, self.C)), burn_in=5)

    @pytest.mark.parametrize("gamma", [np.ones(2), np.ones(4), np.ones((3, 1))],
                             ids=["short", "long", "matrix"])
    def test_gamma_not_length_c_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma has shape"):
            self.simulate(self.Z, gamma)


class TestBurnIn:
    PATHS = np.tile([0.1, 0.05, 0.05], (20, 1))

    def test_negative_burn_in_rejected(self):
        w = WeightMatrix(np.eye(3))
        with pytest.raises(ValueError, match="burn_in"):
            gen_gaussian_panel(w, self.PATHS, 0.1, 20, seed=0, burn_in=-5)
        with pytest.raises(ValueError, match="burn_in"):
            gen_poisson_panel(w, self.PATHS, 20, seed=0, burn_in=-5)

    def test_burn_in_drops_leading_rows(self):
        w = WeightMatrix(np.eye(3))
        full = gen_gaussian_panel(w, self.PATHS, 0.1, 20, seed=0)
        assert np.array_equal(
            gen_gaussian_panel(w, self.PATHS, 0.1, 15, seed=0, burn_in=5),
            full[5:])


class TestNetworkSequence:
    """The generators read the network at t by the fits' rule."""

    PATHS = np.tile([0.1, 0.05, 0.05], (10, 1))

    def test_one_network_per_step_matches_static(self):
        w = WeightMatrix(np.eye(3))
        assert np.array_equal(
            gen_gaussian_panel([w] * 10, self.PATHS, 0.1, 10, seed=0),
            gen_gaussian_panel(w, self.PATHS, 0.1, 10, seed=0))
        assert np.array_equal(
            gen_poisson_panel([w] * 10, self.PATHS, 10, seed=0),
            gen_poisson_panel(w, self.PATHS, 10, seed=0))

    def test_two_networks_for_ten_steps_raises(self):
        w = WeightMatrix(np.eye(3))
        with pytest.raises(ValueError, match="no network for time 2"):
            gen_gaussian_panel([w, w], self.PATHS, 0.1, 10, seed=0)
        with pytest.raises(ValueError, match="no network for time 2"):
            gen_poisson_panel([w, w], self.PATHS, 10, seed=0)


class TestGenPoissonPanel:
    def test_iid_poisson_one(self):
        paths = np.tile([0.0, 0.0, 0.0], (300, 1))
        w = WeightMatrix(np.zeros((20, 20)))
        counts = gen_poisson_panel(w, paths, 300, seed=0)
        assert abs(counts[1:].mean() - 1.0) < 3.0 / np.sqrt(counts[1:].size)

    def test_negative_intercept_zero_counts(self):
        paths = np.tile([-20.0, 0.0, 0.0], (50, 1))
        w = WeightMatrix(np.zeros((5, 5)))
        counts = gen_poisson_panel(w, paths, 50, seed=1)
        assert np.all(counts[1:] == 0)

    def test_positive_autocorrelation_with_own_lag(self):
        paths = np.tile([0.2, 0.0, 0.15], (600, 1))
        w = WeightMatrix(np.zeros((10, 10)))
        counts = gen_poisson_panel(w, paths, 600, seed=2)
        sums = counts.sum(axis=1).astype(float)
        x, y = sums[:-1], sums[1:]
        rho = np.corrcoef(x, y)[0, 1]
        assert rho > 0

    def test_generation_cap_error(self):
        paths = np.tile([2.0, 0.0, 2.0], (50, 1))
        w = WeightMatrix(np.zeros((5, 5)))
        with pytest.raises(ValueError, match="generation cap"):
            gen_poisson_panel(w, paths, 50, seed=3)

    def test_deterministic(self):
        paths = np.tile([0.3, 0.0, 0.1], (40, 1))
        w = WeightMatrix(np.zeros((6, 6)))
        a = gen_poisson_panel(w, paths, 40, seed=4)
        b = gen_poisson_panel(w, paths, 40, seed=4)
        assert np.array_equal(a, b)


class TestGenDynamicEdges:
    def test_density_half_at_zero(self):
        spec = EdgePathSpec(eta0=np.zeros(1), s_cov=np.zeros((1, 1)))
        adjs, _ = gen_dynamic_edges(spec, 5, 40, seed=0)
        dens = np.mean([a.entries.sum() / (40 * 39) for a in adjs])
        assert abs(dens - 0.5) < 0.03

    def test_constant_probabilities_when_s_zero(self):
        spec = EdgePathSpec(eta0=np.array([1.0]), s_cov=np.zeros((1, 1)))
        _, eta_path = gen_dynamic_edges(spec, 10, 10, seed=1)
        assert np.all(eta_path == 1.0)

    def test_saturation(self):
        spec = EdgePathSpec(eta0=np.array([8.0]), s_cov=np.zeros((1, 1)))
        adjs, _ = gen_dynamic_edges(spec, 3, 30, seed=2)
        dens = np.mean([a.entries.sum() / (30 * 29) for a in adjs])
        assert dens >= 0.95

    def test_s_must_be_psd(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            EdgePathSpec(eta0=np.zeros(2), s_cov=np.diag([0.1, -0.1]))

    def test_random_walk_eta(self):
        spec = EdgePathSpec(eta0=np.zeros(2), s_cov=0.1 * np.eye(2))
        _, eta_path = gen_dynamic_edges(spec, 50, 5, seed=3)
        assert eta_path.shape == (50, 2)
        assert np.std(eta_path[:, 0]) > 0

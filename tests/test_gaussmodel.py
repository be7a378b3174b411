import numpy as np
import pytest

import oracles

from nssm.design import DesignRecipe, build_design
from nssm.gaussmodel import (
    EdgeSubmodel,
    GaussianSpec,
    ObsNoise,
    fit_gaussian,
    fit_joint_node_edge,
    forecast_gaussian,
    mc_forecast_gaussian,
    plug_in_forecast,
    select_hyperparams,
)
from nssm.graph import Adjacency, row_normalize
from nssm.lgss import Belief, ObsBlock, StateNoiseSpec, predict, update
from nssm.simulate import CoeffPathSpec, gen_coeff_paths, gen_gaussian_panel


def make_w(n=6, seed=0, density=0.5):
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < density) * 1.0
    np.fill_diagonal(a, 0.0)
    a[a.sum(axis=1) == 0, 0] = 1.0
    np.fill_diagonal(a, 0.0)
    return row_normalize(Adjacency(a))


def default_spec(q=1e-4, sigma2=0.25):
    recipe = DesignRecipe()
    return GaussianSpec(
        recipe=recipe,
        state_noise=StateNoiseSpec.constant(q * np.eye(recipe.n_cols)),
        obs_noise=ObsNoise("scalar", sigma2),
    )


def simulate_panel(w, t_len=60, seed=1, sigma2=0.25, init=(0.1, 0.3, 0.4)):
    spec = CoeffPathSpec(k=3, init=np.array(init), rw_sd=np.full(3, 0.005))
    paths, _ = gen_coeff_paths(spec, t_len, seed)
    panel = gen_gaussian_panel(w, paths, sigma2, t_len, seed + 1)
    return panel, paths


class TestFitGaussian:
    def test_matches_manual_filter(self):
        w = make_w()
        panel, _ = simulate_panel(w, t_len=20)
        spec = default_spec()
        run = fit_gaussian(panel, w, None, spec)

        belief = spec.initial_belief()
        for t in range(1, panel.shape[0]):
            x_t = build_design(w, [panel[t - 1]], None, spec.recipe).entries
            belief = predict(belief, spec.state_noise.q)
            belief, _ = update(belief, ObsBlock(h=x_t, r=0.25 * np.eye(6),
                                                y=panel[t]))
        assert np.allclose(run.beliefs_filtered[-1].mean, belief.mean,
                           atol=1e-12)
        assert np.allclose(run.beliefs_filtered[-1].cov, belief.cov,
                           atol=1e-12)

    def test_recovers_constant_coefficients(self):
        w = make_w(n=30, seed=2)
        rng = np.random.default_rng(3)
        theta = np.array([0.1, 0.35, 0.4])
        t_len = 120
        panel = np.zeros((t_len, 30))
        for t in range(1, t_len):
            x = build_design(w, [panel[t - 1]], None, DesignRecipe()).entries
            panel[t] = x @ theta + 0.3 * rng.standard_normal(30)
        run = fit_gaussian(panel, w, None, default_spec(q=1e-6, sigma2=0.09))
        assert np.max(np.abs(run.beliefs_filtered[-1].mean - theta)) < 0.05

    def test_rejects_nonfinite(self):
        w = make_w()
        panel = np.zeros((10, 6))
        panel[3, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fit_gaussian(panel, w, None, default_spec())

    def test_too_short_panel(self):
        w = make_w()
        with pytest.raises(ValueError, match="at least"):
            fit_gaussian(np.zeros((1, 6)), w, None, default_spec())

    def test_threshold_states_recorded(self):
        w = make_w()
        panel, _ = simulate_panel(w, t_len=15)
        recipe = DesignRecipe()
        k = recipe.n_cols
        spec = GaussianSpec(
            recipe=recipe,
            state_noise=StateNoiseSpec.threshold(
                np.full(k, 1e-5), np.full(k, 1e-2), np.full(k, 0.05)),
            obs_noise=ObsNoise("scalar", 0.25),
        )
        run = fit_gaussian(panel, w, None, spec)
        assert run.threshold_states is not None
        assert run.threshold_states.shape == (14, k)
        assert set(np.unique(run.threshold_states)) <= {0, 1}


class TestSelectHyperparams:
    def test_picks_highest_loglik(self):
        w = make_w()
        panel, _ = simulate_panel(w, t_len=40)
        base = default_spec()
        k = base.recipe.n_cols
        grid = [
            {"state_noise": StateNoiseSpec.constant(q * np.eye(k))}
            for q in (1e-6, 1e-4, 1e-2)
        ]
        best, table = select_hyperparams(panel, w, None, base, grid)
        logliks = [row["loglik"] for row in table]
        best_row = table[int(np.argmax(logliks))]
        assert np.trace(best.state_noise.q) == pytest.approx(
            best_row["q_trace"])

    def test_invalid_candidate_flagged_not_selected(self):
        w = make_w()
        panel, _ = simulate_panel(w, t_len=30)
        base = default_spec()
        k = base.recipe.n_cols
        grid = [
            {"obs_noise": ObsNoise("scalar", -1.0)},
            {"state_noise": StateNoiseSpec.constant(1e-4 * np.eye(k))},
        ]
        best, table = select_hyperparams(panel, w, None, base, grid)
        assert table[0]["valid"] is False
        assert table[1]["valid"] is True

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="empty"):
            select_hyperparams(np.zeros((5, 2)), make_w(2), None,
                               default_spec(), [])


class TestForecastGaussian:
    def test_h1_exact_moments(self):
        w = make_w()
        panel, _ = simulate_panel(w, t_len=40)
        spec = default_spec()
        run = fit_gaussian(panel, w, None, spec)
        fc = forecast_gaussian(run, spec, 1)[0]
        belief = run.beliefs_filtered[-1]
        x = build_design(w, [panel[-1]], None, spec.recipe).entries
        assert np.allclose(fc.mean, x @ belief.mean, atol=1e-12)
        assert np.allclose(fc.cov, x @ belief.cov @ x.T + 0.25 * np.eye(6),
                           atol=1e-12)

    def test_multi_step_matches_mc(self):
        # Closed-form mean should track the Monte-Carlo mean at h <= 4.
        w = make_w(n=8, seed=5)
        panel, _ = simulate_panel(w, t_len=60, seed=6)
        spec = default_spec(q=1e-6)
        run = fit_gaussian(panel, w, None, spec)
        fcs = forecast_gaussian(run, spec, 4)
        mc = mc_forecast_gaussian(run, spec, 4, n_draws=4000, rng_seed=0)
        for fc, draws in zip(fcs, mc):
            mc_mean = draws["draws"].mean(axis=0)
            mc_sd = draws["draws"].std(axis=0) / np.sqrt(4000)
            assert np.max(np.abs(fc.mean - mc_mean) / (4 * mc_sd + 1e-6)) < 2.5

    def test_unsupported_recipe_refused(self):
        w = make_w()
        recipe = DesignRecipe(lag_order=2)
        spec = GaussianSpec(
            recipe=recipe,
            state_noise=StateNoiseSpec.constant(1e-4 * np.eye(recipe.n_cols)))
        panel = np.zeros((10, 6))
        run = fit_gaussian(panel + 1e-3, w, None, spec)
        with pytest.raises(ValueError, match="Monte-Carlo"):
            forecast_gaussian(run, spec, 2)

    def test_oracle_policy_requires_future_w(self):
        w = make_w()
        panel, _ = simulate_panel(w, t_len=20)
        spec = default_spec()
        run = fit_gaussian(panel, w, None, spec)
        with pytest.raises(ValueError, match="future_w"):
            forecast_gaussian(run, spec, 2, network_policy="oracle")

    def test_mc_deterministic_per_seed(self):
        w = make_w()
        panel, _ = simulate_panel(w, t_len=20)
        spec = default_spec()
        run = fit_gaussian(panel, w, None, spec)
        a = mc_forecast_gaussian(run, spec, 2, 50, rng_seed=9)
        b = mc_forecast_gaussian(run, spec, 2, 50, rng_seed=9)
        for da, db in zip(a, b):
            assert np.array_equal(da["draws"], db["draws"])


class TestMcForecastGaussian:
    """mc_forecast_gaussian advances all draws together; the per-draw loop
    in ``oracles`` is the reference, up to the order of floating-point
    sums."""

    @staticmethod
    def assert_close(got, want):
        for g, d in zip(got, want):
            assert np.max(np.abs(g["draws"] - d)) <= 1e-12 * np.max(np.abs(d))

    @pytest.mark.parametrize("recipe,noise", [
        (DesignRecipe(), ObsNoise("scalar", 0.25)),
        (DesignRecipe(lag_order=2, network_powers=(1, 2)),
         ObsNoise("diagonal", np.linspace(0.1, 0.4, 6))),
        (DesignRecipe(include_intercept=False), ObsNoise("scalar", 0.25)),
        (DesignRecipe(), "full"),
    ], ids=["default", "lag2_powers12", "no_intercept", "full_r"])
    def test_matches_per_draw_oracle(self, recipe, noise):
        w = make_w()
        panel, _ = simulate_panel(w, t_len=30)
        if noise == "full":
            a = np.random.default_rng(5).standard_normal((6, 6))
            noise = ObsNoise("full", 0.2 * np.eye(6) + 0.05 * a @ a.T)
        spec = GaussianSpec(recipe=recipe, obs_noise=noise,
                            state_noise=StateNoiseSpec.constant(
                                1e-3 * np.eye(recipe.n_cols)))
        run = fit_gaussian(panel, w, None, spec)
        got = mc_forecast_gaussian(run, spec, 4, 70, rng_seed=6)
        want = oracles.mc_forecast_gaussian_per_draw(run, spec, 4, 70, 6)
        self.assert_close(got, want)

    def test_future_w_and_covariates(self):
        w = make_w()
        rng = np.random.default_rng(8)
        recipe = DesignRecipe(covariate_count=2)
        spec = GaussianSpec(recipe=recipe, obs_noise=ObsNoise("scalar", 0.25),
                            state_noise=StateNoiseSpec.constant(
                                1e-3 * np.eye(recipe.n_cols)))
        panel, _ = simulate_panel(w, t_len=30)
        z = rng.standard_normal((30, 6, 2))
        run = fit_gaussian(panel, w, z, spec)
        future_w = [make_w(seed=20 + h) for h in range(3)]
        future_z = rng.standard_normal((3, 6, 2))
        got = mc_forecast_gaussian(run, spec, 3, 15, rng_seed=1,
                                   network_policy="oracle", future_w=future_w,
                                   future_z=future_z)
        want = oracles.mc_forecast_gaussian_per_draw(
            run, spec, 3, 15, 1, future_w=future_w, future_z=future_z)
        self.assert_close(got, want)

    def test_draw_count_invariance(self):
        w = make_w()
        panel, _ = simulate_panel(w, t_len=20)
        spec = default_spec()
        run = fit_gaussian(panel, w, None, spec)
        small = mc_forecast_gaussian(run, spec, 3, 10, rng_seed=3)
        large = mc_forecast_gaussian(run, spec, 3, 25, rng_seed=3)
        for ds, dl in zip(small, large):
            assert np.array_equal(ds["draws"], dl["draws"][:10])

    def test_unknown_policy_rejected(self):
        w = make_w()
        panel, _ = simulate_panel(w, t_len=20)
        spec = default_spec()
        run = fit_gaussian(panel, w, None, spec)
        with pytest.raises(ValueError, match="unknown network policy"):
            mc_forecast_gaussian(run, spec, 2, 5, rng_seed=0,
                                 network_policy="carry_forwards", future_w=[w, w])

    @pytest.mark.parametrize("policy", ["oracle", "user_supplied"])
    def test_policy_requires_future_w_for_every_horizon(self, policy):
        w = make_w()
        panel, _ = simulate_panel(w, t_len=20)
        spec = default_spec()
        run = fit_gaussian(panel, w, None, spec)
        with pytest.raises(ValueError, match="future_w"):
            mc_forecast_gaussian(run, spec, 2, 5, rng_seed=0,
                                 network_policy=policy)
        with pytest.raises(ValueError, match="future_w"):
            mc_forecast_gaussian(run, spec, 3, 5, rng_seed=0,
                                 network_policy=policy, future_w=[w, w])


class TestPlugInForecast:
    def test_identical_network_matches_h1(self):
        w = make_w()
        panel, _ = simulate_panel(w, t_len=30)
        spec = default_spec()
        run = fit_gaussian(panel, w, None, spec)
        exact = forecast_gaussian(run, spec, 1)[0]
        plug = plug_in_forecast(run, spec, w)
        assert np.allclose(plug.mean, exact.mean, atol=1e-12)

    def test_gap_only_through_network_column(self):
        w = make_w(seed=11)
        w_hat = make_w(seed=12)
        panel, _ = simulate_panel(w, t_len=30)
        spec = default_spec()
        run = fit_gaussian(panel, w, None, spec)
        gap = (plug_in_forecast(run, spec, w_hat).mean
               - forecast_gaussian(run, spec, 1)[0].mean)
        beta1 = run.beliefs_filtered[-1].mean[1]
        expected = beta1 * (w_hat.entries - w.entries) @ panel[-1]
        assert np.allclose(gap, expected, atol=1e-10)


class TestJointNodeEdge:
    def test_equals_stacked_filter(self):
        # With predictable designs the joint two-block filter must equal a
        # single stacked update; verified on the full posterior.
        rng = np.random.default_rng(20)
        n, t_len = 4, 12
        w = make_w(n=n, seed=21)
        recipe = DesignRecipe()
        k_n = recipe.n_cols
        m_e, k_e = 3, 2
        loading = rng.standard_normal((m_e, k_e))
        u = np.diag(rng.random(m_e) + 0.5)
        spec = GaussianSpec(
            recipe=recipe,
            state_noise=StateNoiseSpec.constant(1e-3 * np.eye(k_n)),
            obs_noise=ObsNoise("scalar", 0.5),
            edge_submodel=EdgeSubmodel(
                loading=loading, u=u,
                state_noise=StateNoiseSpec.constant(1e-3 * np.eye(k_e))),
        )
        panel = rng.standard_normal((t_len, n))
        edge_obs = rng.standard_normal((t_len, m_e))
        run = fit_joint_node_edge(panel, edge_obs, w, spec)

        dim = k_n + k_e
        belief = Belief(mean=np.zeros(dim), cov=10.0 * np.eye(dim))
        q_joint = 1e-3 * np.eye(dim)
        for t in range(1, t_len):
            belief = predict(belief, q_joint)
            x_t = build_design(w, [panel[t - 1]], None, recipe).entries
            h_st = np.vstack([
                np.hstack([np.zeros((m_e, k_n)), loading]),
                np.hstack([x_t, np.zeros((n, k_e))]),
            ])
            r_st = np.zeros((m_e + n, m_e + n))
            r_st[:m_e, :m_e] = u
            r_st[m_e:, m_e:] = 0.5 * np.eye(n)
            belief, _ = update(belief, ObsBlock(
                h=h_st, r=r_st, y=np.concatenate([edge_obs[t], panel[t]])))
        assert np.max(np.abs(run.beliefs_filtered[-1].mean - belief.mean)) < 1e-9
        assert np.max(np.abs(run.beliefs_filtered[-1].cov - belief.cov)) < 1e-9

    def test_requires_edge_submodel(self):
        with pytest.raises(ValueError, match="edge submodel"):
            fit_joint_node_edge(np.zeros((5, 3)), np.zeros((5, 2)),
                                make_w(3), default_spec())

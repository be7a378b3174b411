from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    select_hyperparams,
)
from nssm.graph import Adjacency, row_normalize
from nssm import lgss
from nssm.lgss import Belief, ObsBlock, StateNoiseSpec, predict, update
from nssm.simulate import CoeffPathSpec, gen_coeff_paths, gen_gaussian_panel


def make_w(n=6, seed=0, density=0.5):
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < density) * 1.0
    np.fill_diagonal(a, 0.0)
    a[a.sum(axis=1) == 0, 0] = 1.0
    np.fill_diagonal(a, 0.0)
    return row_normalize(Adjacency(a))


# A transition that is not symmetric, so a forecaster that applies F'
# for F is caught.
F_ASYM = np.array([[0.5, 0.2, 0.0], [0.0, 0.6, 0.0], [0.1, 0.0, 0.4]])


# Recipes past the p = 1, power 1 case, for the forecaster's lag matrices.
LAG_RECIPES = [DesignRecipe(lag_order=2), DesignRecipe(network_powers=(1, 2)),
               DesignRecipe(lag_order=3, network_powers=(1, 2))]
LAG_RECIPE_IDS = ["p2", "powers12", "p3_powers12"]


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
            x_t = build_design(w, [panel[t - 1]], None, spec.recipe)
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
            x = build_design(w, [panel[t - 1]], None, DesignRecipe())
            panel[t] = x @ theta + 0.3 * rng.standard_normal(30)
        run = fit_gaussian(panel, w, None, default_spec(q=1e-6, sigma2=0.09))
        assert np.max(np.abs(run.beliefs_filtered[-1].mean - theta)) < 0.05

    def test_psd_checks_do_not_grow_with_t(self, monkeypatch):
        # PSD is checked at the API boundary, not once per step.
        w = make_w()
        calls = []
        check = lgss._check_psd
        monkeypatch.setattr(lgss, "_check_psd",
                            lambda p, what: calls.append(what) or check(p, what))
        spec = default_spec()
        counts = []
        for t_len in (10, 40):
            panel, _ = simulate_panel(w, t_len=t_len)
            calls.clear()
            fit_gaussian(panel, w, None, spec)
            counts.append(len(calls))
        assert counts[0] == counts[1] >= 1  # the initial belief is checked

    def test_rejects_nonfinite(self):
        w = make_w()
        panel = np.zeros((10, 6))
        panel[3, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fit_gaussian(panel, w, None, default_spec())

    def test_two_networks_for_ten_steps_raises(self):
        # Neither one network nor one for each time: no silent carry-over.
        w = make_w()
        panel, _ = simulate_panel(w, t_len=10)
        with pytest.raises(ValueError, match="no network for time 2"):
            fit_gaussian(panel, [w, w], None, default_spec())

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


    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("noise", ["scalar", "diagonal"])
    def test_large_mean_panel_matches_joint_conditioning(self, seed, noise):
        # A panel near 10^3 makes the intercept, W y and y columns nearly
        # collinear, and the fit's residuals small against X' R^-1 y: the
        # case where X' R^-1 v formed as X' R^-1 y - X' R^-1 X m would
        # cancel. Dense conditioning of the whole run is the reference; its
        # own inverse of the 30(T - 1)-row innovation covariance loses up
        # to ~3e-7 relative here, hence the 2e-6 tolerance.
        n, t_len = 30, 8
        w = make_w(n=n, seed=seed, density=0.3)
        rng = np.random.default_rng(seed)
        panel = 1e3 + np.cumsum(rng.standard_normal((t_len, n)), axis=0)
        r = (np.full(n, 1.0) if noise == "scalar"
             else 10.0 ** rng.uniform(-1.0, 1.0, n))
        q = 1e-4 * np.eye(3)
        spec = GaussianSpec(recipe=DesignRecipe(),
                            state_noise=StateNoiseSpec.constant(q),
                            obs_noise=ObsNoise(noise, 1.0 if noise == "scalar" else r))
        run = fit_gaussian(panel, w, None, spec)
        init = spec.initial_belief()
        h_seq = [build_design(w, [panel[t - 1]], None, spec.recipe)
                 for t in range(1, t_len)]
        args = (init.mean, init.cov, [q] * (t_len - 1), h_seq,
                [np.diag(r)] * (t_len - 1), list(panel[1:]))
        filtered, _ = oracles.joint_gaussian_filter_smoother(*args)
        for i, (mean, cov) in enumerate(filtered):
            assert (np.max(np.abs(run.means[i] - mean))
                    <= 2e-6 * max(1.0, np.max(np.abs(mean))))
            assert np.max(np.abs(run.covs[i] - cov)) <= 2e-6 * np.max(np.abs(cov))
        assert run.loglik == pytest.approx(oracles.joint_gaussian_loglik(*args),
                                           rel=1e-7)


class TestObsNoise:
    def test_full_not_positive_definite_is_value_error(self):
        # An input error, not a numerical failure: the CLI maps LinAlgError
        # (a ValueError subclass) to the numerical exit code.
        with pytest.raises(ValueError, match="positive definite") as info:
            ObsNoise("full", -np.eye(6)).block_r(6)
        assert not isinstance(info.value, np.linalg.LinAlgError)

    @pytest.mark.parametrize("noise", [
        ObsNoise("scalar", 0.0), ObsNoise("scalar", np.nan),
        ObsNoise("diagonal", np.array([0.1, 0.0, 0.2])),
        ObsNoise("diagonal", np.ones(4)), ObsNoise("full", np.eye(4)),
        ObsNoise("dense", np.eye(3)),
        # Lower triangle positive definite, but the symmetric part the
        # filter uses has eigenvalues -1.5, 1 and 3.5.
        ObsNoise("full", [[1.0, 5.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    ], ids=["zero", "nan", "diag_zero", "diag_shape", "full_shape", "kind",
            "full_asymmetric"])
    def test_rejected(self, noise):
        with pytest.raises(ValueError):
            noise.block_r(3)


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
        x = build_design(w, [panel[-1]], None, spec.recipe)
        assert np.allclose(fc.mean, x @ belief.mean, atol=1e-12)
        # theta_{T+1} = theta_T + eta has variance P + Q.
        p_pred = belief.cov + spec.state_noise.q
        assert np.allclose(fc.cov, x @ p_pred @ x.T + 0.25 * np.eye(6),
                           atol=1e-12)

    def test_h1_variance_matches_mc(self):
        # With a large Q the closed form must carry the state noise of the
        # step to T + 1, as the Monte-Carlo forecaster does.
        w = make_w()
        panel, _ = simulate_panel(w, t_len=40)
        spec = default_spec(q=0.05)
        run = fit_gaussian(panel, w, None, spec)
        fc = forecast_gaussian(run, spec, 1)[0]
        draws = mc_forecast_gaussian(run, spec, 1, n_draws=20_000,
                                     rng_seed=0)[0]["draws"]
        # The sample variance of 20,000 normal draws has a relative sd of
        # 1%; leaving Q out understates the variance by 15-20% here.
        assert np.allclose(np.diag(fc.cov), draws.var(axis=0), rtol=0.05)

    def test_h1_with_transition_matches_mc(self):
        # With F the h = 1 coefficients have mean F m and variance
        # F P F' + Q, in the closed form and in the Monte-Carlo draws.
        w = make_w()
        panel, _ = simulate_panel(w, t_len=40)
        spec = GaussianSpec(
            recipe=DesignRecipe(), obs_noise=ObsNoise("scalar", 0.25),
            m0=np.array([0.1, 0.3, 0.4]),
            state_noise=StateNoiseSpec(mode="constant", q=0.05 * np.eye(3),
                                       transition=0.5 * np.eye(3)))
        run = fit_gaussian(panel, w, None, spec)
        fc = forecast_gaussian(run, spec, 1)[0]
        draws = mc_forecast_gaussian(run, spec, 1, n_draws=20_000,
                                     rng_seed=0)[0]["draws"]
        se = draws.std(axis=0) / np.sqrt(20_000)
        assert np.max(np.abs(fc.mean - draws.mean(axis=0)) / se) < 4.0
        assert np.allclose(np.diag(fc.cov), draws.var(axis=0), rtol=0.05)
        x = build_design(w, [panel[-1]], None, spec.recipe)
        assert np.allclose(fc.mean, x @ (0.5 * run.means[-1]), atol=1e-12)

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

    @given(mode=st.sampled_from(["constant", "threshold"]),
           transition=st.booleans(), covariates=st.sampled_from([0, 2]),
           oracle_w=st.booleans(),
           columns=st.sampled_from(["all", "no_intercept", "no_network",
                                    "no_own", "intercept_only"]),
           seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_lag1_matches_closed_form_oracle(self, mode, transition,
                                             covariates, oracle_w, columns,
                                             seed):
        # At p = 1 with power 1, A = B_1 is the spillover matrix and the
        # stacked lag covariance is the previous horizon's: the moments
        # are the p = 1 closed form's, bit for bit.
        rng = np.random.default_rng(seed)
        w = make_w(seed=seed)
        recipe = DesignRecipe(
            covariate_count=covariates,
            include_intercept=columns != "no_intercept",
            include_network_lags=columns not in ("no_network",
                                                 "intercept_only"),
            include_own_lags=columns not in ("no_own", "intercept_only"))
        k = recipe.n_cols
        noise = (StateNoiseSpec.constant(1e-3 * np.eye(k)) if mode == "constant"
                 else StateNoiseSpec.threshold(np.full(k, 1e-4),
                                               np.full(k, 1e-2),
                                               np.full(k, 0.05)))
        if transition:
            noise = replace(noise, transition=0.9 * np.eye(k)
                            + 0.02 * rng.standard_normal((k, k)))
        spec = GaussianSpec(recipe=recipe, state_noise=noise,
                            obs_noise=ObsNoise("diagonal",
                                               rng.uniform(0.1, 0.5, 6)))
        panel, _ = simulate_panel(w, t_len=30, seed=seed)
        z = rng.standard_normal((30, 6, covariates)) if covariates else None
        run = fit_gaussian(panel, w, z, spec)
        future_w = [make_w(seed=seed + 1 + h) for h in range(4)] \
            if oracle_w else None
        future_z = rng.standard_normal((4, 6, covariates)) if covariates \
            else None
        got = forecast_gaussian(run, spec, 4, future_w, future_z)
        want = oracles.forecast_gaussian_lag1(run, spec, 4, future_w, future_z)
        for fc, (mean, cov) in zip(got, want):
            assert np.array_equal(fc.mean, mean)
            assert np.array_equal(fc.cov, cov)

    @pytest.mark.parametrize("oracle_w", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lag2_matches_companion_algebra(self, seed, oracle_w):
        # h = 1 skips the products with S = 0; every horizon's moments
        # are still those of the companion algebra that forms them, bit
        # for bit.
        rng = np.random.default_rng(seed)
        w = make_w(seed=seed)
        recipe = DesignRecipe(lag_order=2, network_powers=(1, 2))
        spec = GaussianSpec(recipe=recipe,
                            state_noise=StateNoiseSpec.constant(
                                1e-3 * np.eye(recipe.n_cols)),
                            obs_noise=ObsNoise("diagonal",
                                               rng.uniform(0.1, 0.5, 6)))
        panel, _ = simulate_panel(w, t_len=30, seed=seed)
        run = fit_gaussian(panel, w, None, spec)
        future_w = [make_w(seed=seed + 1 + h) for h in range(4)] \
            if oracle_w else None
        got = forecast_gaussian(run, spec, 4, future_w)
        want = oracles.forecast_gaussian_companion(run, spec, 4, future_w)
        for fc, (mean, cov) in zip(got, want):
            assert np.array_equal(fc.mean, mean)
            assert np.array_equal(fc.cov, cov)

    @pytest.mark.parametrize("recipe", LAG_RECIPES, ids=LAG_RECIPE_IDS)
    def test_h1_exact_moments_any_recipe(self, recipe):
        w = make_w()
        panel, _ = simulate_panel(w, t_len=40)
        spec = GaussianSpec(recipe=recipe, obs_noise=ObsNoise("scalar", 0.25),
                            state_noise=StateNoiseSpec.constant(
                                1e-3 * np.eye(recipe.n_cols)))
        run = fit_gaussian(panel, w, None, spec)
        fc = forecast_gaussian(run, spec, 1)[0]
        p = recipe.lag_order
        x = build_design(w, [panel[-l] for l in range(1, p + 1)], None, recipe)
        p_pred = run.covs[-1] + spec.state_noise.q
        assert np.allclose(fc.mean, x @ run.means[-1], atol=1e-12)
        assert np.allclose(fc.cov, x @ p_pred @ x.T + 0.25 * np.eye(6),
                           atol=1e-12)

    @pytest.mark.parametrize("recipe", LAG_RECIPES, ids=LAG_RECIPE_IDS)
    def test_known_coefficients_give_var_mse(self, recipe):
        # With P and Q zero the coefficients are known and the forecast
        # errors are those of a VAR(p) with lag matrices B_l; the
        # covariance is its forecast MSE at every horizon.
        w = make_w()
        panel, _ = simulate_panel(w, t_len=30)
        k = recipe.n_cols
        noise = ObsNoise("diagonal", np.linspace(0.1, 0.4, 6))
        spec = GaussianSpec(recipe=recipe, obs_noise=noise,
                            state_noise=StateNoiseSpec.constant(np.zeros((k, k))))
        run = fit_gaussian(panel, w, None, spec)
        theta = np.random.default_rng(3).uniform(-0.3, 0.3, k)
        run = replace(run, means=np.tile(theta, (run.n_steps, 1)),
                      covs=np.zeros_like(run.covs))
        fcs = forecast_gaussian(run, spec, 4)
        coef = dict(zip(recipe.column_labels(), theta))
        lag_mats = [coef[f"Y_lag_{l}"] * np.eye(6)
                    + sum(coef[f"W{r}Y_lag_{l}" if r > 1 else f"WY_lag_{l}"]
                          * np.linalg.matrix_power(w.entries, r)
                          for r in recipe.network_powers)
                    for l in range(1, recipe.lag_order + 1)]
        mse = oracles.var_forecast_mse(lag_mats, noise.matrix(6), 4)
        for fc, want in zip(fcs, mse):
            np.testing.assert_allclose(fc.cov, want, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("recipe", LAG_RECIPES, ids=LAG_RECIPE_IDS)
    def test_multi_step_matches_mc_any_recipe(self, recipe):
        # The same band as test_multi_step_matches_mc.
        w = make_w(n=8, seed=5)
        panel, _ = simulate_panel(w, t_len=60, seed=6)
        spec = GaussianSpec(recipe=recipe, obs_noise=ObsNoise("scalar", 0.25),
                            state_noise=StateNoiseSpec.constant(
                                1e-6 * np.eye(recipe.n_cols)))
        run = fit_gaussian(panel, w, None, spec)
        fcs = forecast_gaussian(run, spec, 4)
        mc = mc_forecast_gaussian(run, spec, 4, n_draws=4000, rng_seed=0)
        for fc, draws in zip(fcs, mc):
            mc_mean = draws["draws"].mean(axis=0)
            mc_sd = draws["draws"].std(axis=0) / np.sqrt(4000)
            assert np.max(np.abs(fc.mean - mc_mean) / (4 * mc_sd + 1e-6)) < 2.5

    def test_future_w_required_for_every_horizon(self):
        w = make_w()
        panel, _ = simulate_panel(w, t_len=20)
        spec = default_spec()
        run = fit_gaussian(panel, w, None, spec)
        with pytest.raises(ValueError, match="future_w"):
            forecast_gaussian(run, spec, 3, future_w=[w, w])

    def test_mc_deterministic_per_seed(self):
        w = make_w()
        panel, _ = simulate_panel(w, t_len=20)
        spec = default_spec()
        run = fit_gaussian(panel, w, None, spec)
        a = mc_forecast_gaussian(run, spec, 2, 50, rng_seed=9)
        b = mc_forecast_gaussian(run, spec, 2, 50, rng_seed=9)
        for da, db in zip(a, b):
            assert np.array_equal(da["draws"], db["draws"])


class TestForecastOverflow:
    """theta = (0, 40, 40) with a tiny prior and Q grows each forecast by a
    factor 80 a step, so it overflows long before h = 300: a typed
    numerical failure, not the design's non-finite-lag ValueError."""

    @pytest.fixture
    def explosive(self):
        w = make_w()
        panel, _ = simulate_panel(w, t_len=12)
        spec = GaussianSpec(
            recipe=DesignRecipe(), obs_noise=ObsNoise("scalar", 0.25),
            state_noise=StateNoiseSpec.constant(1e-12 * np.eye(3)),
            m0=np.array([0.0, 40.0, 40.0]), p0_scale=1e-12)
        return fit_gaussian(panel, w, None, spec), spec

    def test_closed_form_raises_numerical_error(self, explosive):
        run, spec = explosive
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(lgss.NumericalError, match="not finite"):
                forecast_gaussian(run, spec, 300)
        assert issubclass(lgss.NumericalError, np.linalg.LinAlgError)
        # The early horizons are finite and are returned as before.
        assert np.all(np.isfinite(forecast_gaussian(run, spec, 20)[-1].cov))

    def test_monte_carlo_raises_numerical_error(self, explosive):
        run, spec = explosive
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(lgss.NumericalError, match="not finite"):
                mc_forecast_gaussian(run, spec, 300, 10, rng_seed=0)


class TestMcForecastGaussian:
    """mc_forecast_gaussian advances all draws together and draws each
    horizon's state and observation noise as one block; the per-draw loop
    in ``oracles``, which takes draw s's values one at a time from the
    same shared streams, is the reference, up to the order of
    floating-point sums."""

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
                                   future_w=future_w, future_z=future_z)
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

    @pytest.mark.parametrize("n", [50, 100])
    @pytest.mark.parametrize("noise", ["diagonal", "full"])
    def test_draw_count_invariance_at_larger_n(self, n, noise):
        # At these N, BLAS computes a row of a 10-row product in another
        # order than the same row of a 70- or 130-row one; the products
        # with F and chol(R) run on whole 64-row slabs, and Y W' sums each
        # draw on its own, so the draws stay equal. With full R the
        # observation noise goes through an N x N product; with lag 2 and
        # powers (1, 2), W^2 Y is two products with W, and F is one more.
        w = make_w(n=n, density=0.1)
        panel, _ = simulate_panel(w, t_len=20)
        rng = np.random.default_rng(n)
        if noise == "diagonal":
            obs_noise = ObsNoise("diagonal", 0.1 + 0.3 * rng.random(n))
        else:
            a = rng.standard_normal((n, n))
            obs_noise = ObsNoise("full", 0.2 * np.eye(n) + 0.05 * a @ a.T / n)
        for recipe in (DesignRecipe(),
                       DesignRecipe(lag_order=2, network_powers=(1, 2))):
            k = recipe.n_cols
            for f in (None, 0.9 * np.eye(k) + 0.05 * np.eye(k, k=1)):
                spec = GaussianSpec(recipe=recipe, obs_noise=obs_noise,
                                    state_noise=StateNoiseSpec(
                                        mode="constant", q=1e-4 * np.eye(k),
                                        transition=f))
                run = fit_gaussian(panel, w, None, spec)
                small = mc_forecast_gaussian(run, spec, 3, 10, rng_seed=3)
                for n_large in (70, 130):
                    large = mc_forecast_gaussian(run, spec, 3, n_large,
                                                 rng_seed=3)
                    for ds, dl in zip(small, large):
                        assert np.array_equal(ds["draws"], dl["draws"][:10])

    @pytest.mark.parametrize("n", [6, 50])
    @pytest.mark.parametrize("recipe", [
        DesignRecipe(), DesignRecipe(lag_order=2, network_powers=(1, 2))],
        ids=["default", "lag2_powers12"])
    def test_one_draw_is_draw_zero_of_many(self, n, recipe):
        # From h = 2 on, W y of the fed-back draws is a product over the
        # draws; with one draw it must sum each row as draw 0 of 70 does.
        # At N = 50 the rows have about 25 nonzeros, enough for a pairwise
        # sum to round otherwise.
        w = make_w(n=n)
        panel, _ = simulate_panel(w, t_len=20)
        spec = GaussianSpec(recipe=recipe, obs_noise=ObsNoise("scalar", 0.25),
                            state_noise=StateNoiseSpec.constant(
                                1e-4 * np.eye(recipe.n_cols)))
        run = fit_gaussian(panel, w, None, spec)
        one = mc_forecast_gaussian(run, spec, 4, 1, rng_seed=3)
        many = mc_forecast_gaussian(run, spec, 4, 70, rng_seed=3)
        for d1, d70 in zip(one, many):
            assert np.array_equal(d1["draws"], d70["draws"][:1])

    def test_horizon_invariance(self):
        w = make_w()
        panel, _ = simulate_panel(w, t_len=20)
        spec = default_spec()
        run = fit_gaussian(panel, w, None, spec)
        short = mc_forecast_gaussian(run, spec, 2, 20, rng_seed=3)
        long = mc_forecast_gaussian(run, spec, 5, 20, rng_seed=3)
        for ds, dl in zip(short, long):
            assert np.array_equal(ds["draws"], dl["draws"])

    def test_future_w_required_for_every_horizon(self):
        w = make_w()
        panel, _ = simulate_panel(w, t_len=20)
        spec = default_spec()
        run = fit_gaussian(panel, w, None, spec)
        with pytest.raises(ValueError, match="future_w"):
            mc_forecast_gaussian(run, spec, 3, 5, rng_seed=0, future_w=[w, w])

    def test_transition_matches_per_draw_oracle(self):
        w = make_w()
        panel, _ = simulate_panel(w, t_len=30)
        spec = GaussianSpec(
            recipe=DesignRecipe(), obs_noise=ObsNoise("scalar", 0.25),
            state_noise=StateNoiseSpec(mode="constant", q=1e-3 * np.eye(3),
                                       transition=F_ASYM))
        run = fit_gaussian(panel, w, None, spec)
        got = mc_forecast_gaussian(run, spec, 4, 70, rng_seed=6)
        want = oracles.mc_forecast_gaussian_per_draw(run, spec, 4, 70, 6)
        self.assert_close(got, want)


class TestPlugInForecast:
    """The plug-in forecast under an approximate network w_hat is the h = 1
    forecast with ``future_w=[w_hat]``."""

    @staticmethod
    def plug_in(run, spec, w_hat):
        return forecast_gaussian(run, spec, 1, future_w=[w_hat])[0]

    def test_identical_network_matches_h1(self):
        w = make_w()
        panel, _ = simulate_panel(w, t_len=30)
        spec = default_spec()
        run = fit_gaussian(panel, w, None, spec)
        exact = forecast_gaussian(run, spec, 1)[0]
        plug = self.plug_in(run, spec, w)
        assert np.allclose(plug.mean, exact.mean, atol=1e-12)
        assert np.allclose(plug.cov, exact.cov, atol=1e-12)

    def test_identical_network_matches_h1_with_transition(self):
        w = make_w()
        panel, _ = simulate_panel(w, t_len=30)
        spec = GaussianSpec(
            recipe=DesignRecipe(), obs_noise=ObsNoise("scalar", 0.25),
            state_noise=StateNoiseSpec(mode="constant", q=1e-3 * np.eye(3),
                                       transition=F_ASYM))
        run = fit_gaussian(panel, w, None, spec)
        exact = forecast_gaussian(run, spec, 1)[0]
        plug = self.plug_in(run, spec, w)
        x = build_design(w, [panel[-1]], None, spec.recipe)
        p = F_ASYM @ run.covs[-1] @ F_ASYM.T + 1e-3 * np.eye(3)
        assert np.allclose(plug.mean, x @ F_ASYM @ run.means[-1], atol=1e-12)
        assert np.allclose(plug.cov, x @ p @ x.T + 0.25 * np.eye(6), atol=1e-12)
        assert np.allclose(plug.mean, exact.mean, atol=1e-12)
        assert np.allclose(plug.cov, exact.cov, atol=1e-12)

    def test_gap_only_through_network_column(self):
        w = make_w(seed=11)
        w_hat = make_w(seed=12)
        panel, _ = simulate_panel(w, t_len=30)
        spec = default_spec()
        run = fit_gaussian(panel, w, None, spec)
        gap = (self.plug_in(run, spec, w_hat).mean
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
        )
        edge = EdgeSubmodel(
            loading=loading, u=u,
            state_noise=StateNoiseSpec.constant(1e-3 * np.eye(k_e)))
        panel = rng.standard_normal((t_len, n))
        edge_obs = rng.standard_normal((t_len, m_e))
        run = fit_joint_node_edge(panel, edge_obs, w, spec, edge)

        dim = k_n + k_e
        belief = Belief(mean=np.zeros(dim), cov=10.0 * np.eye(dim))
        q_joint = 1e-3 * np.eye(dim)
        for t in range(1, t_len):
            belief = predict(belief, q_joint)
            x_t = build_design(w, [panel[t - 1]], None, recipe)
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

    @pytest.mark.parametrize("where", ["edge_obs", "last_panel_row"])
    def test_rejects_nonfinite(self, where):
        # The last panel row is never a lag, and edge_obs never enters a
        # design, so neither is checked on the way to the filter.
        n, m_e, k_e = 4, 3, 2
        spec = GaussianSpec(
            recipe=DesignRecipe(),
            state_noise=StateNoiseSpec.constant(1e-3 * np.eye(3)))
        edge = EdgeSubmodel(
            loading=np.ones((m_e, k_e)), u=np.eye(m_e),
            state_noise=StateNoiseSpec.constant(1e-3 * np.eye(k_e)))
        panel, edge_obs = np.zeros((10, n)), np.zeros((10, m_e))
        if where == "edge_obs":
            edge_obs[5, 1] = np.nan
        else:
            panel[-1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fit_joint_node_edge(panel, edge_obs, make_w(n), spec, edge)

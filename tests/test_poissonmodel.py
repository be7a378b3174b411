import numpy as np
import pytest
from scipy import stats

import oracles

from nssm.design import DesignRecipe, build_design
from nssm.graph import Adjacency, row_normalize
from nssm.lgss import StateNoiseSpec
from nssm.poissonmodel import (
    EXPLOSION_THRESHOLD,
    ForecastEnsemble,
    PoissonSpec,
    StabilizerConfig,
    ensemble_stats,
    fit_poisson,
    mc_forecast,
)
from nssm.simulate import CoeffPathSpec, gen_coeff_paths, gen_poisson_panel


def make_w(n=6, seed=0):
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < 0.5) * 1.0
    np.fill_diagonal(a, 0.0)
    a[a.sum(axis=1) == 0, 0] = 1.0
    np.fill_diagonal(a, 0.0)
    return row_normalize(Adjacency(a))


def default_spec(q=1e-4):
    recipe = DesignRecipe()
    return PoissonSpec(
        recipe=recipe,
        state_noise=StateNoiseSpec.constant(q * np.eye(recipe.n_cols)))


def simulate_counts(w, t_len=60, seed=1, init=(0.3, 0.1, 0.1)):
    spec = CoeffPathSpec(k=3, init=np.array(init), rw_sd=np.full(3, 0.002))
    paths, _ = gen_coeff_paths(spec, t_len, seed)
    return gen_poisson_panel(w, paths, t_len, seed + 1), paths


class TestFitPoisson:
    def test_rejects_negative_counts(self):
        w = make_w()
        panel = np.zeros((10, 6))
        panel[2, 1] = -1
        with pytest.raises(ValueError, match="nonnegative"):
            fit_poisson(panel, w, default_spec())

    def test_rejects_non_integer(self):
        w = make_w()
        panel = np.full((10, 6), 0.5)
        with pytest.raises(ValueError, match="integers"):
            fit_poisson(panel, w, default_spec())

    def test_loglik_is_predictive_poisson(self):
        w = make_w()
        panel, _ = simulate_counts(w, t_len=20)
        spec = default_spec()
        run = fit_poisson(panel, w, spec)
        # Recompute step 1 by hand: prior mean 0 -> eta_hat = 0, lam = 1.
        expected0 = float(np.sum(stats.poisson.logpmf(panel[1], 1.0)))
        assert run.per_step_loglik[0] == pytest.approx(expected0, abs=1e-10)

    def test_recovers_constant_coefficients(self):
        # Sparse W keeps the network-lag column well separated from the
        # own-lag and intercept columns.
        rng = np.random.default_rng(3)
        n = 40
        a = np.zeros((n, n))
        for i in range(n):
            nbrs = rng.choice([j for j in range(n) if j != i], size=2,
                              replace=False)
            a[i, nbrs] = 1.0
        w = row_normalize(Adjacency(a))
        theta = np.array([0.4, 0.1, 0.1])
        paths = np.tile(theta, (400, 1))
        panel = gen_poisson_panel(w, paths, 400, seed=4)
        run = fit_poisson(panel, w, default_spec(q=1e-7))
        assert np.max(np.abs(run.beliefs_filtered[-1].mean - theta)) < 0.15

    def test_all_zero_counts_handled(self):
        # Intensity floor keeps the pseudo-variances finite.
        w = make_w()
        panel = np.zeros((15, 6))
        run = fit_poisson(panel, w, default_spec())
        assert np.all(np.isfinite(run.beliefs_filtered[-1].mean))


class TestStabilizerConfig:
    def test_defaults(self):
        stab = StabilizerConfig()
        assert stab.phi == 0.98
        assert stab.eta_max == 12.0
        assert stab.lambda_max == 1e5
        assert stab.enabled

    def test_invalid_phi(self):
        with pytest.raises(ValueError, match="phi"):
            StabilizerConfig(phi=1.5)

    def test_disabled_constructor(self):
        stab = StabilizerConfig.disabled()
        assert not stab.enabled
        assert stab.phi == 1.0


class TestMcForecast:
    def test_deterministic_per_seed(self):
        w = make_w()
        panel, _ = simulate_counts(w, t_len=30)
        spec = default_spec()
        run = fit_poisson(panel, w, spec)
        a = mc_forecast(run, spec, 4, 40, StabilizerConfig(), rng_seed=7)
        b = mc_forecast(run, spec, 4, 40, StabilizerConfig(), rng_seed=7)
        for ea, eb in zip(a, b):
            assert np.array_equal(ea.counts, eb.counts)
            assert np.array_equal(ea.intensities, eb.intensities)

    def test_draw_count_invariance(self):
        # Per-draw derived seeds: draw s is identical whatever the total S.
        w = make_w()
        panel, _ = simulate_counts(w, t_len=30)
        spec = default_spec()
        run = fit_poisson(panel, w, spec)
        small = mc_forecast(run, spec, 2, 10, StabilizerConfig(), rng_seed=3)
        large = mc_forecast(run, spec, 2, 25, StabilizerConfig(), rng_seed=3)
        for es, el in zip(small, large):
            assert np.array_equal(es.counts, el.counts[:10])

    def test_stabilized_intensities_capped(self):
        w = make_w()
        panel, _ = simulate_counts(w, t_len=30)
        spec = default_spec()
        run = fit_poisson(panel, w, spec)
        stab = StabilizerConfig()
        for ens in mc_forecast(run, spec, 8, 100, stab, rng_seed=1):
            assert np.max(ens.intensities) <= stab.lambda_max
            assert ensemble_stats(ens)["explosion_prob"] == 0.0

    def test_invalid_horizon(self):
        w = make_w()
        panel, _ = simulate_counts(w, t_len=20)
        spec = default_spec()
        run = fit_poisson(panel, w, spec)
        with pytest.raises(ValueError, match=">= 1"):
            mc_forecast(run, spec, 0, 10, StabilizerConfig(), rng_seed=0)


class TestBatchedAgainstPerDraw:
    """mc_forecast advances all draws together, in slabs of 64; the
    per-draw loop in ``oracles`` is the reference. Counts must match
    exactly; intensities differ only in the order of floating-point sums."""

    @pytest.mark.parametrize("recipe", [
        DesignRecipe(),
        DesignRecipe(lag_order=2, network_powers=(1, 2)),
        DesignRecipe(include_intercept=False),
    ], ids=["default", "lag2_powers12", "no_intercept"])
    @pytest.mark.parametrize("stab", [StabilizerConfig(),
                                      StabilizerConfig.disabled()],
                             ids=["stabilized", "disabled"])
    def test_matches_per_draw_oracle(self, recipe, stab):
        w = make_w()
        panel, _ = simulate_counts(w, t_len=30)
        spec = PoissonSpec(recipe=recipe, state_noise=StateNoiseSpec.constant(
            1e-3 * np.eye(recipe.n_cols)))
        run = fit_poisson(panel, w, spec)
        ens = mc_forecast(run, spec, 5, 70, stab, rng_seed=4)
        lam, cnt = oracles.mc_forecast_per_draw(run, spec, 5, 70, stab, 4)
        for h, e in enumerate(ens):
            assert np.array_equal(e.counts, cnt[h])
            assert np.allclose(e.intensities, lam[h], rtol=1e-12, atol=0.0)

    def test_future_w_sequence(self):
        w = make_w()
        panel, _ = simulate_counts(w, t_len=30)
        spec = default_spec()
        run = fit_poisson(panel, w, spec)
        future_w = [make_w(seed=10 + h) for h in range(4)]
        stab = StabilizerConfig()
        ens = mc_forecast(run, spec, 4, 20, stab, rng_seed=2, future_w=future_w)
        lam, cnt = oracles.mc_forecast_per_draw(run, spec, 4, 20, stab, 2,
                                                future_w=future_w)
        for h, e in enumerate(ens):
            assert np.array_equal(e.counts, cnt[h])
            assert np.allclose(e.intensities, lam[h], rtol=1e-12, atol=0.0)
        carried = mc_forecast(run, spec, 4, 20, stab, rng_seed=2)
        assert not np.array_equal(carried[0].intensities, ens[0].intensities)

    def test_short_future_w_rejected(self):
        w = make_w()
        panel, _ = simulate_counts(w, t_len=20)
        spec = default_spec()
        run = fit_poisson(panel, w, spec)
        with pytest.raises(ValueError, match="future_w"):
            mc_forecast(run, spec, 3, 5, StabilizerConfig(), rng_seed=0,
                        future_w=[w, w])


class TestCovariateForecast:
    """A recipe with covariates: fit_poisson keeps z, and mc_forecast takes
    the covariates of each horizon through ``future_z``."""

    def fit(self):
        w = make_w()
        panel, _ = simulate_counts(w, t_len=30)
        rng = np.random.default_rng(8)
        z = 0.1 * rng.standard_normal((30, 6, 1))
        recipe = DesignRecipe(covariate_count=1)
        spec = PoissonSpec(recipe=recipe, state_noise=StateNoiseSpec.constant(
            1e-3 * np.eye(recipe.n_cols)))
        return fit_poisson(panel, w, spec, z=z), spec, z

    def test_matches_per_draw_oracle(self):
        run, spec, z = self.fit()
        assert run.context["z"] is z
        future_z = 0.1 * np.random.default_rng(9).standard_normal((4, 6, 1))
        stab = StabilizerConfig()
        ens = mc_forecast(run, spec, 4, 70, stab, 3, future_z=future_z)
        lam, cnt = oracles.mc_forecast_per_draw(run, spec, 4, 70, stab, 3,
                                                future_z=future_z)
        for h, e in enumerate(ens):
            assert np.array_equal(e.counts, cnt[h])
            assert np.allclose(e.intensities, lam[h], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("future_z", [None, np.zeros((2, 6, 1))],
                             ids=["missing", "short"])
    def test_missing_or_short_future_z_rejected(self, future_z):
        run, spec, _ = self.fit()
        with pytest.raises(ValueError, match="future_z"):
            mc_forecast(run, spec, 3, 5, StabilizerConfig(), 0, future_z=future_z)


class TestEnsembleStats:
    def make_ens(self, counts, intensities=None):
        counts = np.asarray(counts)
        if intensities is None:
            intensities = counts.astype(float) + 0.5
        return ForecastEnsemble(horizon=1, intensities=np.asarray(intensities),
                                counts=counts.astype(np.int64),
                                stabilizer=StabilizerConfig.disabled(), seed=0)

    def test_mean_median_quantiles(self):
        ens = self.make_ens([[0, 10], [2, 10], [4, 10]])
        out = ensemble_stats(ens)
        assert np.allclose(out["mean"], [2.0, 10.0])
        assert np.allclose(out["median"], [2.0, 10.0])
        assert np.allclose(out["quantiles"][0.5], [2.0, 10.0])

    def test_explosion_prob(self):
        intens = np.array([[1.0, 2.0], [1.0, 5e6]])
        ens = self.make_ens([[1, 2], [1, 3]], intens)
        assert ensemble_stats(ens)["explosion_prob"] == 0.5

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="matching"):
            ForecastEnsemble(horizon=1, intensities=np.ones((2, 3)),
                             counts=np.ones((3, 2), dtype=np.int64),
                             stabilizer=StabilizerConfig.disabled(), seed=0)

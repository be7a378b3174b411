import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp

from nssm.design import DesignRecipe
from nssm.evalharness import (
    EvalPlan,
    EvalReport,
    block_bootstrap_ci,
    coverage_and_pit,
    paired_deltas,
    rolling_eval,
    score,
    stress_suite,
    tail_metrics,
    truncate_run,
)
from nssm.gaussmodel import (GaussianSpec, _origin, fit_gaussian,
                             forecast_gaussian)
from nssm.graph import Adjacency, row_normalize
from nssm.lgss import FilterRun, StateNoiseSpec


def small_w(n=6, seed=0, p_edge=0.5):
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < p_edge) * 1.0
    np.fill_diagonal(a, 0.0)
    a[a.sum(axis=1) == 0, 0] = 1.0
    np.fill_diagonal(a, 0.0)
    return row_normalize(Adjacency(a))


def dummy_run(panel, preds_by_origin=None):
    """Minimal causal run whose context carries the panel; forecasts are
    looked up externally, so beliefs are placeholders. Its steps are the
    times 1..T-1, as a fit with p = 1 has them."""
    t_len, n = panel.shape
    obs_times = list(range(1, t_len))
    means, covs = np.zeros((len(obs_times), 1)), np.ones((len(obs_times), 1, 1))
    return FilterRun(
        means=means, covs=covs, pred_means=means, pred_covs=covs,
        per_step_loglik=np.zeros(len(obs_times)), t0=1,
        context={"panel": panel, "obs_times": obs_times,
                 "preds": preds_by_origin or {}},
    )


class TestEvalPlan:
    def test_horizons_sorted(self):
        plan = EvalPlan(origins=(10, 20), horizons=(8, 1, 4, 2))
        assert plan.horizons == (1, 2, 4, 8)

    def test_default_horizons(self):
        plan = EvalPlan(origins=(5,))
        assert plan.horizons == (1, 2, 4, 8)

    def test_origin_plus_horizon_fits(self):
        with pytest.raises(ValueError, match="origin"):
            EvalPlan(origins=(95,), horizons=(1, 8), t_len=100)

    def test_nonpositive_horizon(self):
        with pytest.raises(ValueError, match="positive"):
            EvalPlan(origins=(5,), horizons=(0, 1))

    @pytest.mark.parametrize("t_len", [None, 20])
    def test_no_horizons(self, t_len):
        with pytest.raises(ValueError,
                           match="horizons must hold at least one horizon"):
            EvalPlan(origins=(5,), horizons=(), t_len=t_len)


class TestScore:
    def test_poisson_zero_count_unit_rate(self):
        assert score("poisson_ls", np.array([1.0]), np.array([0.0])) == \
            pytest.approx(-1.0, abs=1e-12)

    def test_poisson_two_at_one_point_five(self):
        got = score("poisson_ls", np.array([1.5]), np.array([2.0]))
        want = 2.0 * math.log(1.5) - 1.5 - math.log(2.0)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(-1.3822, abs=1e-4)

    def test_gaussian_standard_normal_at_zero(self):
        got = score("gaussian_lpd", (np.zeros(1), np.eye(1)), np.zeros(1))
        assert got == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)
        assert got == pytest.approx(-0.9189, abs=1e-4)

    def test_preq_mc_degenerate_ensemble_equals_plugin(self):
        lam = np.tile([1.0, 2.0], (50, 1))
        y = np.array([0.0, 3.0])
        assert score("preq_mc_ls", lam, y) == \
            pytest.approx(score("poisson_ls", lam[0], y), abs=1e-12)

    def test_preq_mc_monotone_accuracy_in_draws(self):
        # Mixture of two intensity vectors with known analytic score.
        lam_a, lam_b = np.array([1.0, 4.0]), np.array([3.0, 0.5])
        y = np.array([2.0, 1.0])
        exact = logsumexp([
            stats.poisson.logpmf(y, lam_a).sum(),
            stats.poisson.logpmf(y, lam_b).sum(),
        ]) - np.log(2.0)
        errs = []
        for s in (10, 100, 1000):
            rng = np.random.default_rng(0)
            lam = np.where(rng.random((s, 1)) < 0.5, lam_a, lam_b)
            errs.append(abs(score("preq_mc_ls", lam, y) - exact))
        assert errs[2] < errs[0]

    def test_zero_probability_is_minus_inf(self):
        lam = np.zeros((5, 2))
        assert score("preq_mc_ls", lam, np.array([1.0, 0.0])) == -np.inf

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown score kind"):
            score("brier", None, np.zeros(1))


class TestRollingEval:
    def _plan(self, origins, horizons=(1,)):
        return EvalPlan(origins=origins, horizons=horizons)

    def test_perfect_forecast_zero_losses(self):
        panel = np.tile([2.0, 3.0], (12, 1))

        def fit_fn(p, w):
            return dummy_run(p)

        def forecast_fn(sub, h_max):
            last = sub.context["panel"][-1]
            return [last for _ in range(h_max)]

        report = rolling_eval(fit_fn, forecast_fn, panel, None,
                              self._plan((5, 8), horizons=(1, 2)))
        assert report.aggregate("mae") == {1: 0.0, 2: 0.0}
        assert report.aggregate("mse") == {1: 0.0, 2: 0.0}

    def test_direct_arithmetic(self):
        panel = np.zeros((6, 2))
        panel[5] = [1.5, 2.5]

        def fit_fn(p, w):
            return dummy_run(p)

        def forecast_fn(sub, h_max):
            return [np.array([1.0, 2.0])]

        report = rolling_eval(fit_fn, forecast_fn, panel, None,
                              self._plan((4,)))
        assert report.aggregate("mae")[1] == pytest.approx(0.5, abs=1e-12)
        assert report.aggregate("mse")[1] == pytest.approx(0.25, abs=1e-12)

    def test_aggregate_recomputed_from_cells(self):
        rng = np.random.default_rng(1)
        panel = rng.standard_normal((30, 3))

        def fit_fn(p, w):
            return dummy_run(p)

        def forecast_fn(sub, h_max):
            return [sub.context["panel"][-1] for _ in range(h_max)]

        plan = self._plan((10, 15, 20), horizons=(1, 2, 4))
        report = rolling_eval(fit_fn, forecast_fn, panel, None, plan)
        for j, h in enumerate(plan.horizons):
            manual = float(np.mean(report.sq_err[:, j, :]))
            assert report.aggregate("mse")[h] == pytest.approx(manual,
                                                               abs=1e-12)

    def test_other_exceptions_propagate(self):
        panel = np.ones((12, 2))

        def forecast_fn(sub, h_max):
            raise RuntimeError("bug")

        with pytest.raises(RuntimeError, match="bug"):
            rolling_eval(lambda p, w: dummy_run(p), forecast_fn, panel, None,
                         self._plan((5, 8), horizons=(1, 2)))

    def test_origin_off_the_observation_times_raises(self):
        # A plan mistake is not a numerical failure: origin 0 precedes the
        # first observation time (lag order 1), so it is not masked.
        rng = np.random.default_rng(4)
        w = small_w()
        panel = rng.standard_normal((30, 6))
        recipe = DesignRecipe()
        spec = GaussianSpec(
            recipe=recipe,
            state_noise=StateNoiseSpec.constant(1e-4 * np.eye(recipe.n_cols)),
        )

        def forecast_fn(sub, h_max):
            return [sub.context["panel"][-1] for _ in range(h_max)]

        with pytest.raises(ValueError, match="origin 0 is not an observation"):
            rolling_eval(lambda p, w: fit_gaussian(p, w, None, spec),
                         forecast_fn, panel, w, self._plan((0, 10)))

    def test_config_error_in_forecast_raises(self):
        # A covariate recipe forecast without future_z is a config error:
        # it raises from the first origin instead of masking every one.
        rng = np.random.default_rng(5)
        w = small_w()
        panel = rng.standard_normal((30, 6))
        z = rng.standard_normal((30, 6, 1))
        recipe = DesignRecipe(covariate_count=1)
        spec = GaussianSpec(
            recipe=recipe,
            state_noise=StateNoiseSpec.constant(1e-4 * np.eye(recipe.n_cols)),
        )

        def forecast_fn(sub, h_max):
            return [fc.mean for fc in forecast_gaussian(sub, spec, h_max)]

        with pytest.raises(ValueError, match="future_z required"):
            rolling_eval(lambda p, w: fit_gaussian(p, w, z, spec),
                         forecast_fn, panel, w, self._plan((10, 20)))

    def test_failure_mask_records_not_raises(self):
        panel = np.ones((12, 2))

        def fit_fn(p, w):
            return dummy_run(p)

        def forecast_fn(sub, h_max):
            if sub.context["panel"].shape[0] <= 6:
                raise np.linalg.LinAlgError("boom")
            return [np.full(2, np.nan), np.ones(2)]

        plan = self._plan((5, 8), horizons=(1, 2))
        report = rolling_eval(fit_fn, forecast_fn, panel, None, plan)
        assert report.failure_mask[0].all()       # origin 5 raised
        assert report.failure_mask[1, 0]          # nan h=1 pred masked
        assert not report.failure_mask[1, 1]
        assert report.aggregate("mae")[2] == pytest.approx(0.0)
        assert math.isnan(report.aggregate("mae")[1])
        # The raised failure is recorded; the non-finite prediction raised
        # nothing.
        assert report.extras["failures"] == [(5, None, "LinAlgError", "boom")]

    def test_overflowing_forecast_is_masked(self):
        # A forecast that overflows raises NumericalError, which masks its
        # origin and is recorded, as any LinAlgError is.
        rng = np.random.default_rng(4)
        w = small_w()
        panel = rng.standard_normal((20, 6))
        spec = GaussianSpec(
            recipe=DesignRecipe(),
            state_noise=StateNoiseSpec.constant(1e-12 * np.eye(3)),
            m0=np.array([0.0, 40.0, 40.0]), p0_scale=1e-12)

        def forecast_fn(sub, h_max):
            # Far enough ahead to overflow, whatever the plan's horizons.
            return [fc.mean for fc in forecast_gaussian(sub, spec, 300)]

        with np.errstate(over="ignore", invalid="ignore"):
            report = rolling_eval(lambda p, w: fit_gaussian(p, w, None, spec),
                                  forecast_fn, panel, w,
                                  self._plan((5, 10), horizons=(1, 2)))
        assert report.failure_mask.all()
        assert [f[:3] for f in report.extras["failures"]] == [
            (5, None, "NumericalError"), (10, None, "NumericalError")]

    def test_truncate_matches_refit(self):
        rng = np.random.default_rng(2)
        w = small_w()
        panel = rng.standard_normal((25, 6))
        recipe = DesignRecipe()
        spec = GaussianSpec(
            recipe=recipe,
            state_noise=StateNoiseSpec.constant(1e-4 * np.eye(recipe.n_cols)),
        )
        full = fit_gaussian(panel, w, None, spec)
        sub = truncate_run(full, 14)
        refit = fit_gaussian(panel[:15], w, None, spec)
        assert np.allclose(sub.beliefs_filtered[-1].mean,
                           refit.beliefs_filtered[-1].mean, atol=1e-12)
        assert sub.loglik == pytest.approx(refit.loglik, abs=1e-9)

    def test_truncate_slices_without_copying(self):
        rng = np.random.default_rng(3)
        w = small_w()
        panel = rng.standard_normal((25, 6))
        recipe = DesignRecipe()
        k = recipe.n_cols
        spec = GaussianSpec(
            recipe=recipe,
            state_noise=StateNoiseSpec.threshold(np.full(k, 1e-4),
                                                 np.full(k, 1e-2),
                                                 np.full(k, 0.02)),
        )
        full = fit_gaussian(panel, w, None, spec)
        sub = truncate_run(full, 14)
        assert sub.n_steps == 14 and sub.context["obs_times"][-1] == 14
        for name in ("means", "covs", "pred_means", "pred_covs",
                     "per_step_loglik", "threshold_states"):
            got, whole = getattr(sub, name), getattr(full, name)
            assert np.shares_memory(got, whole), name
            assert np.array_equal(got, whole[:14]), name
        assert full.n_steps == 24

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("mode", ["constant", "threshold"])
    def test_origin_of_truncated_run(self, p, mode):
        # A forecast from a truncated run starts where the full run's
        # arrays say it should: the filtered moments at the origin, the Q
        # the filter used for the next step, and the last p observations.
        rng = np.random.default_rng(4)
        w = small_w()
        panel = rng.standard_normal((25, 6))
        recipe = DesignRecipe(lag_order=p)
        k = recipe.n_cols
        noise = (StateNoiseSpec.constant(1e-3 * np.eye(k)) if mode == "constant"
                 else StateNoiseSpec.threshold(np.full(k, 1e-4),
                                               np.full(k, 1e-2),
                                               np.full(k, 0.05)))
        full = fit_gaussian(panel, w, None, GaussianSpec(recipe=recipe,
                                                         state_noise=noise))
        origin = 14
        i = origin - p  # the step at the origin
        m, cov, q, lags = _origin(truncate_run(full, origin), noise, p)
        assert np.array_equal(m, full.means[i])
        assert np.array_equal(cov, full.covs[i])
        assert np.array_equal(full.pred_covs[i + 1], 0.5 * ((cov + q) + (cov + q).T))
        if mode == "threshold":
            s = full.threshold_states[i + 1]
            # The regime changes at the origin, so Q from the wrong pair of
            # means would show.
            assert not np.array_equal(s, full.threshold_states[i])
            assert np.array_equal(q, np.diag(noise.q0 + s * (noise.q1 - noise.q0)))
        else:
            assert q is noise.q
        assert len(lags) == p
        for l, lag in enumerate(lags):
            assert np.array_equal(lag, panel[origin - l])

    def test_truncate_requires_observation_time(self):
        panel = np.ones((10, 2))
        run = dummy_run(panel)
        assert truncate_run(run, 9).n_steps == 9  # the last step, time 9
        for origin in (0, 10):
            with pytest.raises(ValueError, match="observation time"):
                truncate_run(run, origin)


class TestPairedDeltas:
    def _report(self, seed):
        rng = np.random.default_rng(seed)
        o, h, n = 4, 2, 3
        sq = rng.random((o, h, n))
        return EvalReport(origins=(1, 2, 3, 4), horizons=(1, 2),
                          abs_err=np.sqrt(sq), sq_err=sq,
                          failure_mask=np.zeros((o, h), dtype=bool))

    def test_antisymmetry(self):
        a, b = self._report(0), self._report(1)
        assert np.array_equal(paired_deltas(a, b), -paired_deltas(b, a))

    def test_self_delta_zero(self):
        a = self._report(2)
        assert np.all(paired_deltas(a, a) == 0.0)

    def test_mismatched_reports(self):
        a = self._report(3)
        b = EvalReport(origins=(9,), horizons=(1, 2),
                       abs_err=np.zeros((1, 2, 3)), sq_err=np.zeros((1, 2, 3)),
                       failure_mask=np.zeros((1, 2), dtype=bool))
        with pytest.raises(ValueError, match="share"):
            paired_deltas(a, b)

    @pytest.mark.parametrize("metric", ["MSE", "rmse", "mase"])
    def test_unknown_loss_rejected(self, metric):
        # "MSE" or "rmse" must not read as MAE.
        a = self._report(4)
        for losses in (a.aggregate, a.per_origin,
                       lambda m: paired_deltas(a, a, m)):
            with pytest.raises(ValueError, match="'mae' or 'mse'"):
                losses(metric)


class TestCoverageAndPit:
    def test_count_zero_pit_is_v_times_f0(self):
        lam = np.full((200, 4), 2.0)
        y = np.zeros(4)
        _, pit = coverage_and_pit(("ensemble", lam), y, rng_seed=3)
        f0 = stats.poisson.cdf(0, 2.0)
        assert np.all(pit <= f0 + 1e-12)
        assert np.all(pit >= 0.0)

    def test_gaussian_pit_closed_form(self):
        mean, var = np.array([1.0, -2.0]), np.array([4.0, 0.25])
        y = np.array([3.0, -2.5])
        covered, pit = coverage_and_pit(("gaussian", mean, var), y, level=0.9)
        want = stats.norm.cdf((y - mean) / np.sqrt(var))
        assert np.allclose(pit, want, atol=1e-12)
        z = stats.norm.ppf(0.95)
        assert covered[0] == (abs(y[0] - mean[0]) <= z * 2.0)

    def test_randomized_pit_uniform_when_well_specified(self):
        rng = np.random.default_rng(4)
        lam_true = 3.0
        pits = []
        for _ in range(400):
            lam = np.full((300, 1), lam_true)
            y = rng.poisson(lam_true, size=1).astype(float)
            _, p = coverage_and_pit(("ensemble", lam), y,
                                    rng_seed=int(rng.integers(1 << 30)))
            pits.append(p[0])
        counts, _ = np.histogram(pits, bins=10, range=(0.0, 1.0))
        chi2 = np.sum((counts - 40.0) ** 2 / 40.0)
        assert chi2 < stats.chi2.ppf(0.999, df=9)

    def test_coverage_flags_interval(self):
        lam = np.tile(np.arange(1.0, 5.0), (500, 1))
        y = np.array([1.0, 2.0, 300.0, 4.0])
        covered, _ = coverage_and_pit(("ensemble", lam), y, level=0.9,
                                      rng_seed=5)
        assert covered[0] and covered[1] and covered[3]
        assert not covered[2]

    def test_invalid_level(self):
        with pytest.raises(ValueError, match="level"):
            coverage_and_pit(("gaussian", np.zeros(1), np.ones(1)),
                             np.zeros(1), level=1.0)


class TestBlockBootstrap:
    def test_constant_deltas_degenerate(self):
        lo, hi = block_bootstrap_ci(np.full(40, 0.7), block_len=8,
                                    n_boot=200, seed=0)
        assert lo == pytest.approx(0.7, abs=1e-12)
        assert hi == pytest.approx(0.7, abs=1e-12)

    def test_deterministic_and_ordered(self):
        rng = np.random.default_rng(6)
        d = rng.standard_normal(60)
        a = block_bootstrap_ci(d, 8, 500, seed=42)
        b = block_bootstrap_ci(d, 8, 500, seed=42)
        assert a == b
        assert a[0] <= a[1]

    def test_meta_coverage_near_nominal(self):
        rng = np.random.default_rng(7)
        hits = 0
        reps = 300
        for i in range(reps):
            d = rng.standard_normal(200)
            lo, hi = block_bootstrap_ci(d, 1, 300, seed=i)
            hits += int(lo <= 0.0 <= hi)
        assert abs(hits / reps - 0.95) < 0.03

    def test_validation(self):
        with pytest.raises(ValueError, match="B >= 100"):
            block_bootstrap_ci(np.ones(10), 1, 50, seed=0)
        with pytest.raises(ValueError, match="no finite"):
            block_bootstrap_ci(np.full(5, np.nan), 1, 200, seed=0)


class TestStressSuite:
    def test_identity_mix_zero_delta(self):
        rng = np.random.default_rng(8)
        w = small_w(seed=8)
        panel = rng.standard_normal((30, 6))
        recipe = DesignRecipe()
        spec = GaussianSpec(
            recipe=recipe,
            state_noise=StateNoiseSpec.constant(1e-4 * np.eye(recipe.n_cols)),
        )

        def fit_fn(p, w_in):
            return fit_gaussian(p, w_in, None, spec)

        def forecast_fn(sub, h_max):
            from nssm.gaussmodel import forecast_gaussian
            fc = forecast_gaussian(sub, spec, h_max)
            return [f.mean for f in fc]

        plan = EvalPlan(origins=(20, 24), horizons=(1, 2))
        rows = stress_suite(fit_fn, forecast_fn, panel, w,
                            [{"kind": "mix_uniform", "alpha": 0.0}], plan)
        deltas = rows[0]["delta_mae_vs_original"]
        for h in plan.horizons:
            assert deltas[h] == pytest.approx(0.0, abs=1e-12)

    def test_reports_no_network_deltas_when_baseline_given(self):
        rng = np.random.default_rng(9)
        panel = rng.standard_normal((25, 4))
        w = small_w(n=4, seed=9)

        def fit_fn(p, w_in):
            return dummy_run(p)

        def forecast_fn(sub, h_max):
            return [sub.context["panel"][-1] for _ in range(h_max)]

        plan = EvalPlan(origins=(15, 18), horizons=(1,))
        rows = stress_suite(fit_fn, forecast_fn, panel, w,
                            [{"kind": "permute_labels", "rng_seed": 1}],
                            plan, baseline_fit_fn=fit_fn)
        assert "delta_mae_vs_no_network" in rows[0]
        assert set(rows[0]["delta_mae_vs_original"]) == {1}


class TestTailMetrics:
    def test_equal_errors_collapse(self):
        ens = [np.full((20, 5), 3.0)]
        actual = [np.full(5, 1.0)]
        m = tail_metrics(ens, actual)
        assert m["median_abs_err"] == pytest.approx(2.0)
        assert m["trimmed_mae"] == pytest.approx(2.0)
        assert m["explosion_prob"] == 0.0

    def test_outlier_moves_mean_not_trimmed(self):
        n = 552
        base = np.ones((40, n))
        actual = np.ones(n) * 0.5  # every node has error 0.5
        actual_outlier = actual.copy()
        actual_outlier[0] = 1.0 + 1e6
        clean = tail_metrics([base], [actual])
        dirty = tail_metrics([base], [actual_outlier])
        assert dirty["trimmed_mae"] == pytest.approx(clean["trimmed_mae"],
                                                     rel=1e-9)
        assert dirty["mean_mae"] / clean["mean_mae"] > 100.0

    def test_explosion_probability_counts_draws(self):
        lam = np.ones((10, 3))
        lam[2, 0] = 5e6
        lam[7, 1] = 2e6
        m = tail_metrics([lam], [np.ones(3)])
        assert m["explosion_prob"] == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(ValueError, match="no ensembles"):
            tail_metrics([], [])
        with pytest.raises(ValueError, match="trim"):
            tail_metrics([np.ones((5, 2))], [np.ones(2)], trim=0.6)

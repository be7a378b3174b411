import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

import oracles

from nssm.design import DesignRecipe, build_design
from nssm.graph import Adjacency, row_normalize
from nssm.lgss import NumericalError, StateNoiseSpec
from nssm.poissonmodel import (
    BASELINE_ETA_CAP,
    EXPLOSION_THRESHOLD,
    INVERSION_CUTOFF,
    ForecastEnsemble,
    PoissonSpec,
    StabilizerConfig,
    ensemble_stats,
    fit_poisson,
    mc_forecast,
)
from nssm.poissonmodel import _poisson_counts, _poisson_loglik
from nssm.simulate import (CoeffPathSpec, GraphGen, gen_coeff_paths,
                           gen_graph, gen_poisson_panel)


def make_w(n=6, seed=0):
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < 0.5) * 1.0
    np.fill_diagonal(a, 0.0)
    a[a.sum(axis=1) == 0, 0] = 1.0
    np.fill_diagonal(a, 0.0)
    return row_normalize(Adjacency(a))


# A transition that is not symmetric, so a forecaster that applies F'
# for F is caught.
F_ASYM = np.array([[0.5, 0.2, 0.0], [0.0, 0.6, 0.0], [0.1, 0.0, 0.4]])


def default_spec(q=1e-4):
    recipe = DesignRecipe()
    return PoissonSpec(
        recipe=recipe,
        state_noise=StateNoiseSpec.constant(q * np.eye(recipe.n_cols)))


def simulate_counts(w, t_len=60, seed=1, init=(0.3, 0.1, 0.1)):
    spec = CoeffPathSpec(k=3, init=np.array(init), rw_sd=np.full(3, 0.002))
    paths, _ = gen_coeff_paths(spec, t_len, seed)
    return gen_poisson_panel(w, paths, t_len, seed + 1), paths


# Coefficients whose forecast intensities straddle INVERSION_CUTOFF: a
# quarter to three quarters of each horizon's are at or above it.
HIGH_INIT = (2.0, 0.02, 0.02)


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

    def test_honours_transition(self):
        w = make_w()
        panel, _ = simulate_counts(w, t_len=20)
        f = 0.5 * np.eye(3)
        m0 = np.array([0.3, 0.1, 0.1])
        spec = PoissonSpec(
            recipe=DesignRecipe(), m0=m0,
            state_noise=StateNoiseSpec(mode="constant", q=1e-4 * np.eye(3),
                                       transition=f))
        run = fit_poisson(panel, w, spec)
        prev = [m0] + [b.mean for b in run.beliefs_filtered[:-1]]
        for b, m in zip(run.beliefs_predicted, prev):
            assert np.allclose(b.mean, f @ m, rtol=0, atol=1e-15)

    def test_all_zero_counts_handled(self):
        # Intensity floor keeps the pseudo-variances finite.
        w = make_w()
        panel = np.zeros((15, 6))
        run = fit_poisson(panel, w, default_spec())
        assert np.all(np.isfinite(run.beliefs_filtered[-1].mean))


class TestPoissonLoglik:
    """The per-step log-likelihood term of fit_poisson, in numpy, against
    scipy's Poisson log-pmf."""

    # Each cell picks a count from a small pool that always holds 0, so
    # rows have zeros and repeats, and either a log10 intensity or, to
    # reach the cancelling case lam ~ y, a ratio lam / max(y, 1).
    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=5),
           st.lists(st.tuples(st.integers(0, 5), st.floats(-8.0, 8.0),
                              st.booleans()), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_matches_scipy_logpmf(self, values, cells):
        pool = [0] + values
        y = np.array([pool[i % len(pool)] for i, _, _ in cells], dtype=float)
        lam = np.array([
            max(yi, 1.0) * (1.0 + e / 100.0) if near else 10.0 ** e
            for yi, (_, e, near) in zip(y, cells)])
        got = _poisson_loglik(y, lam)
        want = float(stats.poisson.logpmf(y, lam).sum())
        # y log(lam) - log(y!) - lam cancels when lam ~ y (to -7.8 from
        # terms of 1.4e7 at y = 1e6), and scipy's value rounds the same
        # terms, so the error is relative to their size, not the sum's.
        terms = np.sum(np.abs(y * np.log(lam)) + special.gammaln(y + 1) + lam)
        assert abs(got - want) <= 1e-13 * max(terms, abs(want))

    def test_log_factorial_at_the_extremes(self):
        y = np.array([0.0, 1.0, 0.0, 10.0**6, 1.0])
        got = _poisson_loglik(y, np.ones(5))
        want = -sum(math.lgamma(v + 1.0) for v in y) - 5.0
        assert got == pytest.approx(want, rel=1e-15)


class _Uniforms:
    """Stands in for a Generator whose ``random`` yields given uniforms,
    in order."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float).ravel()
        self.pos = 0

    def random(self, out):
        out[...] = self.u[self.pos:self.pos + out.size].reshape(out.shape)
        self.pos += out.size


def _no_fallback():
    raise AssertionError("no intensity reaches the cut-off")


BELOW_CUTOFF = np.nextafter(INVERSION_CUTOFF, 0.0)


class TestPoissonCounts:
    """The inverse-CDF sampler of mc_forecast against scipy's Poisson
    quantile function, which computes the CDF by the incomplete gamma
    function, not by the sampler's recursion."""

    # One column of cells, up to 150 rows, so that several 64-row slabs
    # and the compacted tail are both exercised. A cell's intensity is
    # 10**e or a few ulps below the cut-off; u stays 2**-30 below 1, where
    # the quantiles are far apart next to the error of either CDF.
    @given(st.lists(st.tuples(
        st.one_of(st.floats(-8.0, 1.0, exclude_max=True).map(
                      lambda e: min(10.0 ** e, BELOW_CUTOFF)),
                  st.integers(1, 2 ** 20).map(
                      lambda k: INVERSION_CUTOFF - k * 2.0 ** -49)),
        st.floats(0.0, 1.0 - 2.0 ** -30, exclude_min=True)),
        min_size=1, max_size=150))
    @settings(max_examples=200, deadline=None)
    def test_matches_scipy_ppf(self, cells):
        lam = np.array([[c[0]] for c in cells])
        u = np.array([[c[1]] for c in cells])
        got = _poisson_counts(lam, _Uniforms(u), _no_fallback)
        assert got.dtype == np.int64
        assert np.array_equal(got, stats.poisson.ppf(u, lam))

    def test_matches_scipy_ppf_on_a_wide_block(self):
        # 150 x 40 intensities over the whole range below the cut-off.
        rng = np.random.default_rng(0)
        lam = INVERSION_CUTOFF * rng.random((150, 40))
        got = _poisson_counts(lam, np.random.default_rng(1), _no_fallback)
        u = np.random.default_rng(1).random(lam.shape)
        assert np.array_equal(got, stats.poisson.ppf(u, lam))

    def test_largest_uniform_terminates(self):
        # u = 1 - 2**-53 may lie above the summed CDF's limit; the search
        # then stops where adding p_k no longer changes the sum, a few
        # counts past the 1 - 1e-15 quantile.
        lam = np.array([[1e-8, 1e-3, 0.5, 1.0, 2.5, 5.0, 9.0, BELOW_CUTOFF]])
        got = _poisson_counts(lam, _Uniforms(np.full(lam.shape, 1 - 2.0 ** -53)),
                              _no_fallback)
        floor = stats.poisson.ppf(1 - 1e-15, lam)
        assert np.all(got >= floor) and np.all(got <= floor + 5)

    def test_cutoff_and_above_come_from_the_fallback_stream(self):
        rng = np.random.default_rng(2)
        lam = 30.0 * rng.random((150, 20))
        lam[0, :3] = [INVERSION_CUTOFF, BELOW_CUTOFF, 1e4]
        made = []

        def fallback():
            made.append(True)
            return np.random.default_rng([5, 1, 3])

        got = _poisson_counts(lam, np.random.default_rng([5, 1, 2]), fallback)
        assert made == [True]
        small = lam < INVERSION_CUTOFF
        u = np.random.default_rng([5, 1, 2]).random(lam.shape)
        assert np.array_equal(got[small], stats.poisson.ppf(u[small], lam[small]))
        # Row-major order: draw by draw, in node order within a draw.
        want = np.random.default_rng([5, 1, 3]).poisson(lam[~small])
        assert np.array_equal(got[~small], want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e19])
    def test_unsampleable_intensity_raises(self, bad):
        lam = np.ones((70, 4))
        lam[66, 2] = bad
        # mc_forecast silences the inf * 0 warning on the way to the error.
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericalError, match="cannot be sampled"):
            _poisson_counts(lam, np.random.default_rng(0),
                            lambda: np.random.default_rng(1))


class TestStabilizerConfig:
    def test_defaults(self):
        stab = StabilizerConfig()
        assert stab.phi == 0.98
        assert stab.eta_max == 12.0
        assert stab.lambda_max == 1e5

    def test_invalid_phi(self):
        with pytest.raises(ValueError, match="phi"):
            StabilizerConfig(phi=1.5)

    @pytest.mark.parametrize("field,value", [
        ("eta_max", -1.0), ("eta_max", 0.0), ("eta_max", np.nan),
        ("lambda_max", 0.0), ("lambda_max", np.nan),
    ])
    def test_caps_must_be_positive(self, field, value):
        with pytest.raises(ValueError, match=field):
            StabilizerConfig(**{field: value})

    def test_disabled_constructor(self):
        stab = StabilizerConfig.disabled()
        assert stab.phi == 1.0
        assert stab.eta_max == BASELINE_ETA_CAP
        assert stab.lambda_max == np.inf

    def test_disabled_is_its_values(self):
        # disabled() is no switch: a stabilizer built from its three values
        # forecasts the same counts and intensities.
        w = make_w()
        panel, _ = simulate_counts(w, t_len=30)
        spec = default_spec()
        run = fit_poisson(panel, w, spec)
        values = StabilizerConfig(phi=1.0, eta_max=BASELINE_ETA_CAP,
                                  lambda_max=np.inf)
        a = mc_forecast(run, spec, 4, 40, StabilizerConfig.disabled(), rng_seed=7)
        b = mc_forecast(run, spec, 4, 40, values, rng_seed=7)
        for ea, eb in zip(a, b):
            assert np.array_equal(ea.counts, eb.counts)
            assert np.array_equal(ea.intensities, eb.intensities)


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

    def test_horizon_invariance(self):
        # Each horizon has its own streams: draw s's path up to h is the
        # same whatever the horizon count.
        w = make_w()
        panel, _ = simulate_counts(w, t_len=30)
        spec = default_spec()
        run = fit_poisson(panel, w, spec)
        short = mc_forecast(run, spec, 2, 20, StabilizerConfig(), rng_seed=3)
        long = mc_forecast(run, spec, 5, 20, StabilizerConfig(), rng_seed=3)
        for es, el in zip(short, long):
            assert np.array_equal(es.counts, el.counts)
            assert np.array_equal(es.intensities, el.intensities)

    def test_draw_count_invariance_at_high_intensities(self):
        # As above, with counts on both sides of the cut-off and more draws
        # than one slab.
        w = make_w()
        panel, _ = simulate_counts(w, t_len=30, init=HIGH_INIT)
        spec = default_spec()
        run = fit_poisson(panel, w, spec)
        small = mc_forecast(run, spec, 3, 10, StabilizerConfig(), rng_seed=3)
        large = mc_forecast(run, spec, 3, 150, StabilizerConfig(), rng_seed=3)
        assert 0.0 < np.mean(large[0].intensities >= INVERSION_CUTOFF) < 1.0
        for es, el in zip(small, large):
            assert np.array_equal(es.counts, el.counts[:10])

    @pytest.mark.parametrize("n", [50, 100])
    def test_draw_count_invariance_at_larger_n(self, n):
        # At these N, BLAS computes a row of a 10-row product in another
        # order than the same row of a 70- or 130-row one; the products
        # with F run on whole 64-row slabs, and Y W' sums each draw on its
        # own, so the intensities stay equal. With lag 2 and powers
        # (1, 2), W^2 Y is two products with W; F is one more.
        rng = np.random.default_rng(n)
        a = (rng.random((n, n)) < 0.1) * 1.0
        np.fill_diagonal(a, 0.0)
        a[a.sum(axis=1) == 0, 0] = 1.0
        np.fill_diagonal(a, 0.0)
        w = row_normalize(Adjacency(a))
        panel, _ = simulate_counts(w, t_len=30)
        for recipe in (DesignRecipe(),
                       DesignRecipe(lag_order=2, network_powers=(1, 2))):
            k = recipe.n_cols
            for f in (None, 0.9 * np.eye(k) + 0.05 * np.eye(k, k=1)):
                spec = PoissonSpec(recipe=recipe, state_noise=StateNoiseSpec(
                    mode="constant", q=1e-4 * np.eye(k), transition=f))
                run = fit_poisson(panel, w, spec)
                small = mc_forecast(run, spec, 3, 10, StabilizerConfig(),
                                    rng_seed=3)
                for n_large in (70, 130):
                    large = mc_forecast(run, spec, 3, n_large,
                                        StabilizerConfig(), rng_seed=3)
                    for es, el in zip(small, large):
                        assert np.array_equal(es.intensities,
                                              el.intensities[:10])
                        assert np.array_equal(es.counts, el.counts[:10])

    @pytest.mark.parametrize("n", [6, 50])
    @pytest.mark.parametrize("recipe", [
        DesignRecipe(), DesignRecipe(lag_order=2, network_powers=(1, 2))],
        ids=["default", "lag2_powers12"])
    def test_one_draw_is_draw_zero_of_many(self, n, recipe):
        # From h = 2 on, W y of the fed-back counts is a product over the
        # draws; with one draw it must sum each row as draw 0 of 70 does.
        # At N = 50 the rows have about 25 nonzeros, enough for a pairwise
        # sum to round otherwise.
        w = make_w(n=n)
        panel, _ = simulate_counts(w, t_len=30)
        spec = PoissonSpec(recipe=recipe, state_noise=StateNoiseSpec.constant(
            1e-4 * np.eye(recipe.n_cols)))
        run = fit_poisson(panel, w, spec)
        one = mc_forecast(run, spec, 4, 1, StabilizerConfig(), rng_seed=3)
        many = mc_forecast(run, spec, 4, 70, StabilizerConfig(), rng_seed=3)
        for e1, e70 in zip(one, many):
            assert np.array_equal(e1.intensities, e70.intensities[:1])
            assert np.array_equal(e1.counts, e70.counts[:1])

    def test_fallback_streams_only_where_needed(self, monkeypatch):
        # At high intensities each horizon adds its fallback stream, keyed
        # [seed, h, 3], to the 2H + 1.
        w = make_w()
        panel, _ = simulate_counts(w, t_len=30, init=HIGH_INIT)
        spec = default_spec()
        run = fit_poisson(panel, w, spec)
        calls = []
        make = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: calls.append(seed) or make(seed))
        mc_forecast(run, spec, 4, 50, StabilizerConfig(), rng_seed=3)
        assert sorted(c for c in calls if c[-1] == 3) == [
            [3, h, 3] for h in range(1, 5)]
        assert len(calls) == 3 * 4 + 1

    @pytest.mark.parametrize("n_draws", [10, 300])
    def test_generators_do_not_grow_with_draws(self, monkeypatch, n_draws):
        # One generator per (horizon, variate): the initial draw, then the
        # state noise and the counts of each horizon.
        w = make_w()
        panel, _ = simulate_counts(w, t_len=30)
        spec = default_spec()
        run = fit_poisson(panel, w, spec)
        calls = []
        make = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: calls.append(seed) or make(seed))
        mc_forecast(run, spec, 4, n_draws, StabilizerConfig(), rng_seed=3)
        assert len(calls) == 2 * 4 + 1
        # Distinct keys, none ending in 0: SeedSequence pads a key with
        # zeros, so [3, 0, 0] would be the stream of default_rng(3).
        assert len({tuple(c) for c in calls}) == len(calls)
        assert all(c[-1] != 0 for c in calls)

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
    """mc_forecast advances all draws together and draws
    each horizon's state noise and counts as one block; the per-draw loop
    in ``oracles``, which takes draw s's values one at a time from the
    same shared streams, is the reference. Counts must match exactly;
    intensities differ only in the order of floating-point sums."""

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

    @pytest.mark.parametrize("stab", [StabilizerConfig(),
                                      StabilizerConfig.disabled()],
                             ids=["stabilized", "disabled"])
    def test_transition_matches_per_draw_oracle(self, stab):
        # theta <- phi F theta + (1 - phi) m + Q^1/2 e, with an F that is
        # not symmetric, so F and F' give different paths.
        w = make_w()
        panel, _ = simulate_counts(w, t_len=30)
        spec = PoissonSpec(
            recipe=DesignRecipe(), m0=np.array([0.3, 0.1, 0.1]),
            state_noise=StateNoiseSpec(mode="constant", q=1e-3 * np.eye(3),
                                       transition=F_ASYM))
        run = fit_poisson(panel, w, spec)
        ens = mc_forecast(run, spec, 4, 70, stab, rng_seed=5)
        lam, cnt = oracles.mc_forecast_per_draw(run, spec, 4, 70, stab, 5)
        for h, e in enumerate(ens):
            assert np.array_equal(e.counts, cnt[h])
            assert np.allclose(e.intensities, lam[h], rtol=1e-12, atol=0.0)
        plain = PoissonSpec(recipe=spec.recipe, m0=spec.m0,
                            state_noise=StateNoiseSpec.constant(1e-3 * np.eye(3)))
        walk = mc_forecast(run, plain, 4, 70, stab, rng_seed=5)
        assert not np.allclose(walk[0].intensities, ens[0].intensities)

    @pytest.mark.parametrize("stab", [StabilizerConfig(),
                                      StabilizerConfig.disabled()],
                             ids=["stabilized", "disabled"])
    def test_high_intensities_match_per_draw_oracle(self, stab):
        # Counts on both sides of the cut-off: the oracle inverts with
        # scipy below it and draws from the fallback stream at and above.
        w = make_w()
        panel, _ = simulate_counts(w, t_len=30, init=HIGH_INIT)
        spec = default_spec()
        run = fit_poisson(panel, w, spec)
        ens = mc_forecast(run, spec, 4, 70, stab, rng_seed=6)
        lam, cnt = oracles.mc_forecast_per_draw(run, spec, 4, 70, stab, 6)
        for h, e in enumerate(ens):
            assert np.array_equal(e.counts, cnt[h])
            assert np.allclose(e.intensities, lam[h], rtol=1e-12, atol=0.0)

    def test_short_future_w_rejected(self):
        w = make_w()
        panel, _ = simulate_counts(w, t_len=20)
        spec = default_spec()
        run = fit_poisson(panel, w, spec)
        with pytest.raises(ValueError, match="future_w"):
            mc_forecast(run, spec, 3, 5, StabilizerConfig(), rng_seed=0,
                        future_w=[w, w])


class TestCommonRandomNumbers:
    """Criterion 10's stable regime over many forecast seeds: each count
    inverts one uniform, so the raw and stabilized ensembles of a seed
    share their random numbers, and at h <= 2 their mean intensities
    differ by the stabilizer's effect alone, well under 1%."""

    def test_stabilizer_is_a_no_op_at_short_horizons(self):
        spec = PoissonSpec(recipe=DesignRecipe(),
                           state_noise=StateNoiseSpec.constant(1e-5 * np.eye(3)))
        g = GraphGen(kind="sbm", n_nodes=40, seed=0,
                     params={"block_sizes": [20, 20], "p_in": 0.3,
                             "p_out": 0.1})
        w, _ = gen_graph(g)
        paths = np.tile([0.3, 0.1, 0.1], (150, 1))
        run = fit_poisson(gen_poisson_panel(w, paths, 150, seed=1), w, spec)
        worst = 0.0
        for seed in range(20):
            raw = mc_forecast(run, spec, 2, 2000, StabilizerConfig.disabled(),
                              seed)
            stab = mc_forecast(run, spec, 2, 2000, StabilizerConfig(), seed)
            for er, es in zip(raw, stab):
                mr = er.intensities.mean(axis=0)
                ms = es.intensities.mean(axis=0)
                worst = max(worst, float(np.max(np.abs(ms - mr) / mr)))
        assert worst < 0.01


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

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nssm.design import (
    DesignRecipe,
    build_design,
    design_columns,
    design_stack,
    spillover_matrix,
)
from nssm.gaussmodel import (GaussianSpec, fit_gaussian, forecast_gaussian,
                             mc_forecast_gaussian)
from nssm.graph import Adjacency, WeightMatrix, row_normalize
from nssm.lgss import StateNoiseSpec
from nssm.poissonmodel import (PoissonSpec, StabilizerConfig, fit_poisson,
                               mc_forecast)


def simple_w(n=4, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n))
    np.fill_diagonal(a, 0.0)
    return row_normalize(Adjacency(a))


class TestDesignRecipe:
    def test_column_count(self):
        r = DesignRecipe(lag_order=2, network_powers=(1, 2), covariate_count=3)
        # intercept + 2 powers x 2 lags + 2 own lags + 3 covariates
        assert r.n_cols == 1 + 4 + 2 + 3

    def test_empty_design_rejected(self):
        with pytest.raises(ValueError, match="empty design"):
            DesignRecipe(include_intercept=False, include_network_lags=False,
                         include_own_lags=False)

    def test_column_labels_order(self):
        r = DesignRecipe(lag_order=2, network_powers=(1, 2), covariate_count=1)
        assert r.column_labels() == [
            "intercept", "WY_lag_1", "WY_lag_2", "W2Y_lag_1", "W2Y_lag_2",
            "Y_lag_1", "Y_lag_2", "Z_col_1",
        ]

    def test_lag_columns(self):
        r = DesignRecipe(lag_order=2, network_powers=(1, 2), covariate_count=1)
        assert r.lag_columns() == [[(1, 1), (3, 2), (5, 0)],
                                   [(2, 1), (4, 2), (6, 0)]]
        # X m = m_0 + sum_l B_l y_l + Z m_z, B_l = sum of m[j] W^power.
        rng = np.random.default_rng(2)
        w = simple_w()
        m, lags, z = rng.standard_normal(8), rng.standard_normal((2, 4)), \
            rng.standard_normal((4, 1))
        b = [sum(m[j] * np.linalg.matrix_power(w.entries, k) for j, k in cols)
             for cols in r.lag_columns()]
        x = build_design(w, list(lags), z, r)
        assert np.allclose(x @ m, m[0] + b[0] @ lags[0] + b[1] @ lags[1]
                           + z[:, 0] * m[7], atol=1e-12)

    def test_invalid_powers(self):
        with pytest.raises(ValueError, match="network_powers"):
            DesignRecipe(network_powers=(0,))


class TestBuildDesign:
    def test_basic_blocks(self):
        w = simple_w()
        y1 = np.arange(4.0)
        x = build_design(w, [y1], None, DesignRecipe())
        assert np.allclose(x[:, 0], 1.0)
        assert np.allclose(x[:, 1], w.entries @ y1)
        assert np.allclose(x[:, 2], y1)

    def test_network_power_column(self):
        w = simple_w()
        y1 = np.ones(4)
        r = DesignRecipe(network_powers=(2,))
        x = build_design(w, [y1], None, r)
        assert np.allclose(x[:, 1],
                           np.linalg.matrix_power(w.entries, 2) @ y1)

    def test_lag_count_enforced(self):
        w = simple_w()
        with pytest.raises(ValueError, match="exactly 2"):
            build_design(w, [np.zeros(4)], None, DesignRecipe(lag_order=2))

    def test_covariates_required(self):
        w = simple_w()
        r = DesignRecipe(covariate_count=2)
        with pytest.raises(ValueError, match="covariate block"):
            build_design(w, [np.zeros(4)], None, r)

    def test_covariate_shape_checked(self):
        w = simple_w()
        r = DesignRecipe(covariate_count=2)
        with pytest.raises(ValueError, match="covariate block"):
            build_design(w, [np.zeros(4)], np.zeros((4, 3)), r)

    def test_bad_lag_shape(self):
        w = simple_w()
        with pytest.raises(ValueError, match="lag 1"):
            build_design(w, [np.zeros(5)], None, DesignRecipe())

    @pytest.mark.filterwarnings("error")
    def test_nonfinite_rejected(self):
        # Rejected before any product with W, so numpy warns of nothing.
        w = simple_w()
        with pytest.raises(ValueError, match="finite"):
            build_design(w, [np.array([1.0, np.inf, 0, 0])], None, DesignRecipe())

    def test_overflow_rejected(self):
        # Finite inputs whose network product overflows: the assembled
        # design is checked as well as the lags.
        w = WeightMatrix(np.full((4, 4), 10.0))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            build_design(w, [np.full(4, 1e308)], None, DesignRecipe())

    def test_one_step_mean_identity(self):
        # X_t theta with theta = (b0, b1, b2) equals the model recursion mean.
        w = simple_w(seed=3)
        rng = np.random.default_rng(4)
        y1 = rng.standard_normal(4)
        theta = np.array([0.2, 0.5, -0.3])
        x = build_design(w, [y1], None, DesignRecipe())
        direct = 0.2 + 0.5 * (w.entries @ y1) - 0.3 * y1
        assert np.allclose(x @ theta, direct, atol=1e-14)


class TestDesignStack:
    @given(st.integers(0, 10_000), st.integers(1, 60), st.integers(1, 3),
           st.sampled_from([(1,), (1, 2)]),
           st.sampled_from(["none", "static", "per_t"]),
           st.sampled_from(["one", "list_of_one", "per_t"]))
    @settings(max_examples=80, deadline=None)
    def test_property_equals_per_step_build_design(self, seed, n, lag_order,
                                                   powers, z_kind, w_kind):
        # Exact equality: the fits' bitwise agreement with their per-step
        # references rests on it.
        rng = np.random.default_rng(seed)
        t_len = lag_order + 1 + int(rng.integers(0, 8))
        panel = rng.standard_normal((t_len, n)) * 10.0 ** rng.uniform(-1, 3)
        recipe = DesignRecipe(lag_order=lag_order, network_powers=powers,
                              covariate_count=0 if z_kind == "none" else 2)
        networks = [simple_w(n, seed + t) for t in range(t_len)]
        w_seq = {"one": networks[0], "list_of_one": networks[:1],
                 "per_t": networks}[w_kind]
        z = {"none": None, "static": rng.standard_normal((n, 2)),
             "per_t": rng.standard_normal((t_len, n, 2))}[z_kind]
        want = [build_design(networks[t] if w_kind == "per_t" else networks[0],
                             [panel[t - l] for l in range(1, lag_order + 1)],
                             z[t] if z_kind == "per_t" else z, recipe)
                for t in range(lag_order, t_len)]
        assert np.array_equal(design_stack(w_seq, panel, z, recipe),
                              np.array(want))

    def test_nonfinite_lag_rejected(self):
        panel = np.ones((5, 4))
        panel[2, 1] = np.inf
        with pytest.raises(ValueError, match="not finite"):
            design_stack(simple_w(), panel, None, DesignRecipe())


class TestNetworkSize:
    """A lag whose last axis is not W's N is rejected by name, before any
    product with W: with no intercept column to broadcast against, a
    mismatched panel used to filter silently."""

    @staticmethod
    def spec(intercept):
        recipe = DesignRecipe(include_intercept=intercept)
        return GaussianSpec(recipe=recipe, state_noise=StateNoiseSpec.constant(
            1e-3 * np.eye(recipe.n_cols)))

    @pytest.mark.parametrize("intercept", [True, False])
    @pytest.mark.parametrize("shape, n", [
        ((6,), 4), ((5, 1, 6), 4), ((7, 6), 4),
        ((4,), 6), ((5, 1, 4), 6), ((7, 4), 6),
    ], ids=["vector_wider", "stack_wider", "draw_block_wider",
            "vector_narrower", "stack_narrower", "draw_block_narrower"])
    def test_lag_of_another_size_rejected(self, intercept, shape, n):
        recipe = DesignRecipe(include_intercept=intercept)
        message = re.escape(f"lag 1 has shape {shape}, but W has {n} nodes")
        with pytest.raises(ValueError, match=message):
            list(design_columns(simple_w(n), [np.ones(shape)], None, recipe))

    @pytest.mark.parametrize("intercept", [True, False])
    def test_second_lag_checked(self, intercept):
        recipe = DesignRecipe(lag_order=2, include_intercept=intercept)
        with pytest.raises(ValueError, match="lag 2 has shape"):
            list(design_columns(simple_w(4), [np.ones(4), np.ones(5)], None,
                                recipe))

    @pytest.mark.parametrize("intercept", [True, False])
    def test_fit_on_a_wider_panel_rejected(self, intercept):
        panel = np.random.default_rng(0).standard_normal((30, 4))
        spec = self.spec(intercept)
        with pytest.raises(ValueError, match="but W has 2 nodes"):
            design_stack(simple_w(2), panel, None, spec.recipe)
        with pytest.raises(ValueError, match="but W has 2 nodes"):
            fit_gaussian(panel, simple_w(2), None, spec)

    @pytest.mark.parametrize("intercept", [True, False])
    def test_draws_under_a_smaller_future_w_rejected(self, intercept):
        panel = np.random.default_rng(1).standard_normal((30, 4))
        spec = self.spec(intercept)
        run = fit_gaussian(panel, simple_w(4), None, spec)
        with pytest.raises(ValueError, match="but W has 2 nodes"):
            mc_forecast_gaussian(run, spec, 2, 5, 0,
                                 future_w=[simple_w(2)] * 2)


class TestUnusedCovariates:
    """A Z or future_z for a recipe without covariate columns is rejected,
    not dropped: dropped, it would leave a fit or forecast without the
    covariates its caller passed, and say nothing."""

    PANEL = np.random.default_rng(3).poisson(2.0, (10, 4))
    Z = np.ones((4, 1))
    FUTURE_Z = np.ones((2, 4, 1))
    NOISE = StateNoiseSpec.constant(1e-3 * np.eye(3))
    NO_COVARIATES = "no covariate columns; future_z must be None"

    def test_build_design_rejects_z(self):
        with pytest.raises(ValueError, match="covariate block"):
            build_design(simple_w(), [np.zeros(4)], self.Z, DesignRecipe())

    @pytest.mark.parametrize("z", [Z, np.ones((6, 4, 1))],
                             ids=["static", "per_step"])
    def test_design_stack_rejects_z(self, z):
        with pytest.raises(ValueError, match="covariate block"):
            design_stack(simple_w(), np.ones((6, 4)), z, DesignRecipe())

    def test_fits_reject_z(self):
        with pytest.raises(ValueError, match="covariate block"):
            fit_gaussian(self.PANEL, simple_w(), self.Z,
                         GaussianSpec(DesignRecipe(), self.NOISE))
        with pytest.raises(ValueError, match="covariate block"):
            fit_poisson(self.PANEL, simple_w(),
                        PoissonSpec(DesignRecipe(), self.NOISE), z=self.Z)

    def test_forecast_gaussian_rejects_future_z(self):
        spec = GaussianSpec(DesignRecipe(), self.NOISE)
        run = fit_gaussian(self.PANEL, simple_w(), None, spec)
        with pytest.raises(ValueError, match=self.NO_COVARIATES):
            forecast_gaussian(run, spec, 2, future_z=self.FUTURE_Z)

    def test_mc_forecast_gaussian_rejects_future_z(self):
        spec = GaussianSpec(DesignRecipe(), self.NOISE)
        run = fit_gaussian(self.PANEL, simple_w(), None, spec)
        with pytest.raises(ValueError, match=self.NO_COVARIATES):
            mc_forecast_gaussian(run, spec, 2, 5, 0, future_z=self.FUTURE_Z)

    def test_mc_forecast_rejects_future_z(self):
        spec = PoissonSpec(DesignRecipe(), self.NOISE)
        run = fit_poisson(self.PANEL, simple_w(), spec)
        with pytest.raises(ValueError, match=self.NO_COVARIATES):
            mc_forecast(run, spec, 2, 5, StabilizerConfig(), 0,
                        future_z=self.FUTURE_Z)


class TestSpillover:
    def test_formula(self):
        w = simple_w()
        b = spillover_matrix(0.4, -0.2, w)
        assert np.allclose(b, 0.4 * w.entries - 0.2 * np.eye(4))

    def test_row_sums_proxy(self):
        w = simple_w()
        b = spillover_matrix(0.3, 0.6, w)
        assert np.max(np.abs(b).sum(axis=1)) <= 0.9 + 1e-12

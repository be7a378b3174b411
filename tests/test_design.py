import numpy as np
import pytest

from nssm.design import (
    DesignRecipe,
    SummaryAugment,
    augment_summaries,
    build_design,
    spillover_matrix,
)
from nssm.graph import Adjacency, WeightMatrix, row_normalize


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

    def test_invalid_powers(self):
        with pytest.raises(ValueError, match="network_powers"):
            DesignRecipe(network_powers=(0,))


class TestBuildDesign:
    def test_basic_blocks(self):
        w = simple_w()
        y1 = np.arange(4.0)
        x = build_design(w, [y1], None, DesignRecipe())
        assert np.allclose(x.entries[:, 0], 1.0)
        assert np.allclose(x.entries[:, 1], w.entries @ y1)
        assert np.allclose(x.entries[:, 2], y1)

    def test_network_power_column(self):
        w = simple_w()
        y1 = np.ones(4)
        r = DesignRecipe(network_powers=(2,))
        x = build_design(w, [y1], None, r)
        assert np.allclose(x.entries[:, 1],
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

    def test_one_step_mean_identity(self):
        # X_t theta with theta = (b0, b1, b2) equals the model recursion mean.
        w = simple_w(seed=3)
        rng = np.random.default_rng(4)
        y1 = rng.standard_normal(4)
        theta = np.array([0.2, 0.5, -0.3])
        x = build_design(w, [y1], None, DesignRecipe())
        direct = 0.2 + 0.5 * (w.entries @ y1) - 0.3 * y1
        assert np.allclose(x.entries @ theta, direct, atol=1e-14)


class TestSpillover:
    def test_formula(self):
        w = simple_w()
        b = spillover_matrix(0.4, -0.2, w)
        assert np.allclose(b, 0.4 * w.entries - 0.2 * np.eye(4))

    def test_row_sums_proxy(self):
        w = simple_w()
        b = spillover_matrix(0.3, 0.6, w)
        assert np.max(np.abs(b).sum(axis=1)) <= 0.9 + 1e-12


class TestSummaryAugment:
    def test_stacked_shapes_and_blocks(self):
        w = simple_w()
        x = build_design(w, [np.ones(4)], None, DesignRecipe())
        s = np.ones((1, 4)) / 4.0
        aug = SummaryAugment(s_matrix=s, v_matrix=np.array([[0.5]]))
        r = np.eye(4)
        h_st, r_st = augment_summaries(x, r, aug)
        assert h_st.shape == (5, 3)
        assert np.allclose(h_st[:4], x.entries)
        assert np.allclose(h_st[4], s @ x.entries)
        assert np.allclose(r_st[:4, :4], r)
        assert r_st[4, 4] == 0.5
        assert np.all(r_st[:4, 4] == 0)

    def test_v_must_be_pd(self):
        with pytest.raises(ValueError, match="positive definite"):
            SummaryAugment(s_matrix=np.ones((1, 3)), v_matrix=np.array([[0.0]]))

    def test_dimension_mismatch(self):
        w = simple_w()
        x = build_design(w, [np.ones(4)], None, DesignRecipe())
        aug = SummaryAugment(s_matrix=np.ones((1, 3)), v_matrix=np.eye(1))
        with pytest.raises(ValueError, match="columns"):
            augment_summaries(x, np.eye(4), aug)

"""Exact symmetry of every covariance a fit, smoother or forecaster returns.

The measurement steps return P - B'B (gain form) and L L' (collapsed
form), and the random walk predicts P + Q, without averaging with the
transpose: numpy computes b.T @ b and l @ l.T as Gram (syrk) products,
which fill both triangles with the same numbers. These tests fail by
name on a numpy whose Gram products are not exactly symmetric.
"""

import numpy as np
import pytest

from nssm.design import DesignRecipe
from nssm.gaussmodel import fit_gaussian, fit_joint_node_edge, forecast_gaussian
from nssm.lgss import StateNoiseSpec, rts_smooth
from nssm.poissonmodel import PoissonSpec, fit_poisson
from nssm.tensorcp import cp_filter_alternating
from test_filter_kernel import (
    gaussian_case,
    joint_case,
    make_w,
    poisson_panel,
    threshold_noise,
)


def assert_exactly_symmetric(covs):
    covs = np.asarray(covs)
    assert np.array_equal(covs, covs.swapaxes(-1, -2))


def assert_run_symmetric(run):
    assert_exactly_symmetric(run.covs)
    assert_exactly_symmetric(run.pred_covs)


@pytest.mark.parametrize("name", ["scalar_r", "threshold_q", "full_r",
                                  "transition", "lag2_powers12"])
def test_gaussian_fit_smoother_and_forecast(name):
    # scalar_r and threshold_q take the collapsed form, full_r the gain
    # form, through its solve as K + 1 <= M there.
    panel, w_seq, z, spec = gaussian_case(name)
    run = fit_gaussian(panel, w_seq, z, spec)
    assert_run_symmetric(run)
    q = spec.state_noise.q if spec.state_noise.mode == "constant" else \
        np.diag(spec.state_noise.q1)
    f = spec.state_noise.transition
    smoothed = rts_smooth(run, [q] * run.n_steps,
                          None if f is None else [f] * run.n_steps)
    assert_exactly_symmetric([b.cov for b in smoothed])
    assert_exactly_symmetric([fc.cov for fc in forecast_gaussian(run, spec, 4)])


@pytest.mark.parametrize("threshold", [False, True],
                         ids=["constant_q", "threshold_q"])
def test_poisson_fit(threshold):
    w = make_w()
    recipe = DesignRecipe()
    state_noise = (threshold_noise(recipe.n_cols) if threshold
                   else StateNoiseSpec.constant(1e-3 * np.eye(recipe.n_cols)))
    spec = PoissonSpec(recipe=recipe, state_noise=state_noise)
    assert_run_symmetric(fit_poisson(poisson_panel(w), w, spec))


@pytest.mark.parametrize("transition", [None, "node"])
def test_joint_node_edge_fit(transition):
    panel, edge_obs, w, spec, edge = joint_case(transition)
    assert_run_symmetric(fit_joint_node_edge(panel, edge_obs, w, spec, edge))


def test_cp_fit():
    # K + 1 > M: the gain form through the inverse Cholesky factor.
    panel = np.random.default_rng(5).standard_normal((12, 5))
    assert_run_symmetric(cp_filter_alternating(panel, rank=2, p=2,
                                               init_seed=3))

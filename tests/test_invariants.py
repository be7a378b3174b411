"""Node-permutation equivariance of the fits and the forecaster.

Relabelling the nodes (the panel's columns, W's rows and columns, and a
diagonal R by the same permutation) is the same model. So the
log-likelihoods and the filtered coefficient moments must not change,
and every node-indexed output must permute with the nodes. None of these
checks needs a second implementation: a kernel that mixes up node
indices (a misplaced neighbour sum, a row of the design in the wrong
place) fails them. The fits sum over the nodes in another order after a
relabelling, so they agree to rounding only; every check allows 1e-10
relative to the size of what it compares.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nssm.design import DesignRecipe
from nssm.gaussmodel import (GaussianSpec, ObsNoise, fit_gaussian,
                             forecast_gaussian)
from nssm.graph import WeightMatrix
from nssm.lgss import StateNoiseSpec
from nssm.poissonmodel import PoissonSpec, fit_poisson

T = 60
RTOL = 1e-10

RECIPES = {"default": DesignRecipe(),
           "p2_powers_1_2": DesignRecipe(lag_order=2, network_powers=(1, 2))}

cases = dict(seed=st.integers(0, 2**32 - 1),
             graph=st.sampled_from(["directed_sparse", "empty_rows", "dense"]),
             n=st.integers(5, 40),
             recipe=st.sampled_from(sorted(RECIPES)))


def random_w(rng, graph, n):
    """A row-normalized W with random positive weights: a directed graph
    of about three out-neighbours per node, the same with a third of the
    rows emptied (nodes with no neighbours), or every off-diagonal edge."""
    if graph == "dense":
        mask = ~np.eye(n, dtype=bool)
    else:
        mask = rng.random((n, n)) < 3.0 / n
        np.fill_diagonal(mask, False)
        if graph == "empty_rows":
            mask[rng.random(n) < 1.0 / 3.0] = False
            mask[rng.integers(n)] = False  # at least one empty row
    a = mask * rng.uniform(0.5, 2.0, (n, n))
    sums = a.sum(axis=1, keepdims=True)
    return np.divide(a, sums, out=np.zeros_like(a), where=sums > 0)


def relabel(w, perm):
    """W of the relabelled nodes: new node i is old node perm[i]."""
    return WeightMatrix(w.entries[np.ix_(perm, perm)])


def gaussian_case(seed, graph, n, recipe, noise):
    rng = np.random.default_rng(seed)
    w = WeightMatrix(random_w(rng, graph, n))
    panel = rng.standard_normal((T, n))
    r = rng.uniform(0.2, 1.0, n) if noise == "diagonal" else 0.5
    k = RECIPES[recipe].n_cols
    spec = GaussianSpec(recipe=RECIPES[recipe],
                        state_noise=StateNoiseSpec.constant(1e-4 * np.eye(k)),
                        obs_noise=ObsNoise(noise, r))
    perm = rng.permutation(n)
    spec_perm = spec if noise == "scalar" else replace(
        spec, obs_noise=ObsNoise(noise, r[perm]))
    return (panel, w, spec), (panel[:, perm], relabel(w, perm), spec_perm), perm


def assert_close(actual, expected):
    assert np.max(np.abs(actual - expected)) <= RTOL * np.max(np.abs(expected))


def assert_same_moments(run, run_perm):
    assert abs(run_perm.loglik - run.loglik) <= RTOL * abs(run.loglik)
    assert_close(run_perm.per_step_loglik, run.per_step_loglik)
    assert_close(run_perm.means, run.means)
    assert_close(run_perm.covs, run.covs)


@given(**cases, noise=st.sampled_from(["scalar", "diagonal"]))
@settings(max_examples=40, deadline=None)
def test_gaussian_fit_invariant(seed, graph, n, recipe, noise):
    (panel, w, spec), (panel_p, w_p, spec_p), _ = gaussian_case(
        seed, graph, n, recipe, noise)
    assert_same_moments(fit_gaussian(panel, w, None, spec),
                        fit_gaussian(panel_p, w_p, None, spec_p))


@given(**cases, noise=st.sampled_from(["scalar", "diagonal"]))
@settings(max_examples=40, deadline=None)
def test_gaussian_forecast_equivariant(seed, graph, n, recipe, noise):
    (panel, w, spec), (panel_p, w_p, spec_p), perm = gaussian_case(
        seed, graph, n, recipe, noise)
    fcs = forecast_gaussian(fit_gaussian(panel, w, None, spec), spec, 3)
    fcs_p = forecast_gaussian(fit_gaussian(panel_p, w_p, None, spec_p),
                              spec_p, 3)
    for fc, fc_p in zip(fcs, fcs_p):
        assert_close(fc_p.mean, fc.mean[perm])
        assert_close(fc_p.cov, fc.cov[np.ix_(perm, perm)])


@given(**cases)
@settings(max_examples=40, deadline=None)
def test_poisson_fit_invariant(seed, graph, n, recipe):
    rng = np.random.default_rng(seed)
    w = WeightMatrix(random_w(rng, graph, n))
    counts = rng.poisson(2.0, (T, n))
    k = RECIPES[recipe].n_cols
    # A prior of unit variance on the log-intensity coefficients: under the
    # default 10 I, a first step at a wild intensity can leave an update
    # so ill-conditioned that rounding grows to 1e-8 (seen at N = 9 with
    # seven columns), which would hide a relabelling fault in noise.
    spec = PoissonSpec(recipe=RECIPES[recipe],
                       state_noise=StateNoiseSpec.constant(1e-4 * np.eye(k)),
                       p0_scale=1.0)
    perm = rng.permutation(n)
    assert_same_moments(fit_poisson(counts, w, spec),
                        fit_poisson(counts[:, perm], relabel(w, perm), spec))

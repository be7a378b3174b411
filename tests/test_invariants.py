"""Checks of the fast paths that need no second implementation.

Node-permutation equivariance: relabelling the nodes (the panel's
columns, W's rows and columns, and a diagonal R by the same permutation)
is the same model. So the log-likelihoods and the filtered coefficient
moments must not change, and every node-indexed output must permute with
the nodes. A kernel that mixes up node indices (a misplaced neighbour
sum, a row of the design in the wrong place) fails them. The fits sum
over the nodes in another order after a relabelling, so they agree to
rounding only; every check allows 1e-10 relative to the size of what it
compares.

Poisson moments at h = 1 in closed form: the Monte-Carlo forecaster's
first-horizon intensities and counts must have the means and variances
that its Gaussian log-intensity implies.
"""

from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nssm.design import DesignRecipe, build_design
from nssm.gaussmodel import (GaussianSpec, ObsNoise, fit_gaussian,
                             forecast_gaussian)
from nssm.graph import WeightMatrix
from nssm.lgss import StateNoiseSpec
from nssm.poissonmodel import (PoissonSpec, StabilizerConfig, fit_poisson,
                               mc_forecast)

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


MOMENT_N, MOMENT_DRAWS, PHIS = 12, 200_000, (1.0, 0.9)
# Two-sided, Bonferroni over every node, the three quantities and both
# phi values, so that the family fails falsely with probability <= 1e-3.
MOMENT_Z = NormalDist().inv_cdf(1 - 1e-3 / (2 * MOMENT_N * 3 * len(PHIS)))


@pytest.mark.parametrize("phi", PHIS)
def test_poisson_h1_moments_closed_form(phi):
    # At h = 1 the log-intensity X theta_1 is N(mu, s) with mu = X m and
    # s the diagonal of X (phi^2 P + Q) X'. While the caps do not bind,
    # E[lambda] = exp(mu + s/2), Var[lambda] = (e^s - 1) e^(2 mu + s) and
    # Var[Y] = E[lambda] + Var[lambda].
    rng = np.random.default_rng(10)
    w = WeightMatrix(random_w(rng, "directed_sparse", MOMENT_N))
    counts = rng.poisson(3.0, (30, MOMENT_N))
    spec = PoissonSpec(recipe=DesignRecipe(),
                       state_noise=StateNoiseSpec.constant(1e-3 * np.eye(3)))
    run = fit_poisson(counts, w, spec)
    x = build_design(w, [counts[-1]], None, spec.recipe)
    mu = x @ run.means[-1]
    s = np.einsum("ik,kl,il->i", x,
                  phi ** 2 * run.covs[-1] + spec.state_noise.q, x)
    stab = StabilizerConfig(phi=phi)
    ens = mc_forecast(run, spec, 1, MOMENT_DRAWS, stab, 3)[0]
    lam, y = ens.intensities, ens.counts.astype(float)
    assert lam.max() < min(np.exp(stab.eta_max), stab.lambda_max)

    e_lam = np.exp(mu + s / 2)
    var_lam = np.expm1(s) * np.exp(2 * mu + s)
    var_y = e_lam + var_lam
    dev = y - y.mean(axis=0)
    v = dev.var(axis=0, ddof=1)
    # The sample variance's standard error from the sample's fourth
    # central moment.
    se_v = np.sqrt((np.mean(dev ** 4, axis=0) - v ** 2) / MOMENT_DRAWS)
    for z in ((lam.mean(axis=0) - e_lam) / np.sqrt(var_lam / MOMENT_DRAWS),
              (y.mean(axis=0) - e_lam) / np.sqrt(var_y / MOMENT_DRAWS),
              (v - var_y) / se_v):
        assert np.max(np.abs(z)) < MOMENT_Z

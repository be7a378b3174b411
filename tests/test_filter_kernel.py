"""The shared filter kernel against the per-step reference loops.

All four models' fits run through ``lgss.run_filter``, each passing its
own measurement step. Each case here runs the same fit one validated step
at a time (``oracles.*_per_step``, built from the public ``predict``,
``update`` and ``build_design``) and requires the filtered and predicted
moments and the per-step log-likelihoods within 1e-12 relative (bit for
bit for the joint node-edge and CP cases), the same time indices and the
same threshold states.
"""

import numpy as np
import pytest

import oracles

from nssm.design import DesignRecipe
from nssm.gaussmodel import (
    EdgeSubmodel,
    GaussianSpec,
    ObsNoise,
    fit_gaussian,
    fit_joint_node_edge,
)
from nssm.graph import Adjacency, row_normalize
from nssm.lgss import StateNoiseSpec
from nssm.poissonmodel import PoissonSpec, fit_poisson
from nssm.tensorcp import cp_filter_alternating

N, T = 6, 16


def make_w(seed=0):
    rng = np.random.default_rng(seed)
    a = (rng.random((N, N)) < 0.5) * 1.0
    np.fill_diagonal(a, 0.0)
    a[a.sum(axis=1) == 0, (np.flatnonzero(a.sum(axis=1) == 0) + 1) % N] = 1.0
    return row_normalize(Adjacency(a))


def close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def assert_same_run(got, want, exact=False):
    check = np.testing.assert_array_equal if exact else close
    for attr in ("beliefs_filtered", "beliefs_predicted"):
        g, w = getattr(got, attr), getattr(want, attr)
        assert [b.time_index for b in g] == [b.time_index for b in w]
        check([b.mean for b in g], [b.mean for b in w])
        check([b.cov for b in g], [b.cov for b in w])
    check(got.per_step_loglik, want.per_step_loglik)
    close(got.loglik, want.loglik)
    if want.threshold_states is None:
        assert got.threshold_states is None
    else:
        assert np.array_equal(got.threshold_states, want.threshold_states)


def threshold_noise(k):
    # A small d, so that the indicators switch on and off along the path.
    return StateNoiseSpec.threshold(np.full(k, 1e-4), np.full(k, 1e-2),
                                    np.full(k, 0.02))


def gaussian_case(name):
    rng = np.random.default_rng(1)
    panel = rng.standard_normal((T, N))
    w_seq, z = make_w(), None
    recipe = DesignRecipe()
    obs_noise = ObsNoise("scalar", 0.5)
    state_noise = None
    if name == "diagonal_r":
        obs_noise = ObsNoise("diagonal", rng.random(N) + 0.2)
    elif name == "full_r":
        c = 0.3 * rng.standard_normal((N, N))
        obs_noise = ObsNoise("full", c @ c.T + 0.5 * np.eye(N))
    elif name == "threshold_q":
        state_noise = threshold_noise(recipe.n_cols)
    elif name == "transition":
        f = np.eye(3) + 0.05 * rng.standard_normal((3, 3))
        state_noise = StateNoiseSpec(mode="constant", q=1e-3 * np.eye(3),
                                     transition=f)
    elif name == "lag2_powers12":
        recipe = DesignRecipe(lag_order=2, network_powers=(1, 2))
    elif name == "static_z":
        recipe = DesignRecipe(covariate_count=2)
        z = rng.standard_normal((N, 2))
    elif name == "per_t_z":
        recipe = DesignRecipe(covariate_count=2)
        z = rng.standard_normal((T, N, 2))
    elif name == "w_list":
        w_seq = [make_w(seed=10 + t) for t in range(T)]
    if state_noise is None:
        state_noise = StateNoiseSpec.constant(1e-3 * np.eye(recipe.n_cols))
    spec = GaussianSpec(recipe=recipe, state_noise=state_noise,
                        obs_noise=obs_noise)
    return panel, w_seq, z, spec


@pytest.mark.parametrize("name", [
    "scalar_r", "diagonal_r", "full_r", "threshold_q", "transition",
    "lag2_powers12", "static_z", "per_t_z", "w_list",
])
def test_gaussian(name):
    panel, w_seq, z, spec = gaussian_case(name)
    assert_same_run(fit_gaussian(panel, w_seq, z, spec),
                    oracles.fit_gaussian_per_step(panel, w_seq, z, spec))


def poisson_panel(w, seed=2):
    rng = np.random.default_rng(seed)
    panel = np.empty((T, N))
    panel[0] = rng.poisson(2.0, N)
    for t in range(1, T):
        eta = 0.5 + 0.1 * w.entries @ panel[t - 1] + 0.05 * panel[t - 1]
        panel[t] = rng.poisson(np.exp(np.minimum(eta, 2.5)))
    return panel


@pytest.mark.parametrize("with_z", [False, True], ids=["no_z", "per_t_z"])
@pytest.mark.parametrize("threshold", [False, True], ids=["constant_q", "threshold_q"])
def test_poisson(with_z, threshold):
    w = make_w()
    panel = poisson_panel(w)
    recipe = DesignRecipe(covariate_count=1 if with_z else 0)
    z = (0.1 * np.random.default_rng(3).standard_normal((T, N, 1))
         if with_z else None)
    state_noise = (threshold_noise(recipe.n_cols) if threshold
                   else StateNoiseSpec.constant(1e-3 * np.eye(recipe.n_cols)))
    spec = PoissonSpec(recipe=recipe, state_noise=state_noise)
    assert_same_run(fit_poisson(panel, w, spec, z=z),
                    oracles.fit_poisson_per_step(panel, w, spec, z=z))


def joint_case(transition):
    """Panel, edge observations, network, node spec and edge block of a
    joint node-edge fit; ``transition`` ("node", "edge" or None) names
    the block with a transition F."""
    rng = np.random.default_rng(4)
    w = make_w()
    recipe = DesignRecipe()
    m_e, k_e = 4, 2
    loading = rng.standard_normal((m_e, k_e))
    spec = GaussianSpec(
        recipe=recipe,
        state_noise=StateNoiseSpec(mode="constant",
                                   q=1e-3 * np.eye(recipe.n_cols),
                                   transition=0.5 * np.eye(recipe.n_cols)
                                   if transition == "node" else None),
        obs_noise=ObsNoise("scalar", 0.5),
    )
    edge = EdgeSubmodel(
        loading=loading, u=np.diag(rng.random(m_e) + 0.5),
        state_noise=StateNoiseSpec(mode="constant", q=1e-3 * np.eye(k_e),
                                   transition=0.8 * np.eye(k_e)
                                   if transition == "edge" else None))
    panel = rng.standard_normal((T, N))
    edge_obs = rng.standard_normal((T, m_e))
    return panel, edge_obs, w, spec, edge


@pytest.mark.parametrize("with_design_fn,transition", [
    (False, None), (True, None), (False, "node"), (False, "edge")],
    ids=["w_design", "design_fn", "node_transition", "edge_transition"])
def test_joint_node_edge(with_design_fn, transition):
    panel, edge_obs, w, spec, edge = joint_case(transition)
    design_fn = None
    if with_design_fn:
        def design_fn(t, lags, a_t):
            # The network lag is weighted by the realized edges.
            return np.column_stack([np.ones(N), (1.0 + a_t[0]) * (w.entries @ lags[0]),
                                    lags[0]])
    # Exact updates on the edge and node blocks commute, so the block order
    # shows only in the rounding. The kernel repeats the reference's
    # floating-point operations in the same order, so the runs must agree
    # bit for bit.
    assert_same_run(
        fit_joint_node_edge(panel, edge_obs, w, spec, edge,
                            design_fn=design_fn),
        oracles.fit_joint_node_edge_per_step(panel, edge_obs, w, spec, edge,
                                             design_fn=design_fn), exact=True)


def test_cp():
    panel = np.random.default_rng(5).standard_normal((12, 5))
    kwargs = dict(rank=2, p=2, q_scale=1e-3, r_scale=0.5, n_sweeps=2,
                  init_seed=3)
    # The sweep runs the reference's floating-point operations in the same
    # order, so the runs must agree bit for bit.
    assert_same_run(cp_filter_alternating(panel, **kwargs),
                    oracles.cp_filter_per_step(panel, **kwargs), exact=True)

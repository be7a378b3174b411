import warnings

import numpy as np
import pytest

from nssm.lgss import Belief, ObsBlock, predict, update
from nssm.tensorcp import (
    CPFactors,
    LagWindow,
    cp_filter_alternating,
    cp_mean,
    cp_one_step_mean,
    cp_reconstruct,
    conditional_design,
    sign_fix,
)
from oracles import conditional_design_hstack, cp_dense_slices


def random_factors(rank=3, n=5, p=2, seed=0):
    rng = np.random.default_rng(seed)
    return CPFactors(mode1=rng.standard_normal((rank, n)),
                     mode2=rng.standard_normal((rank, n)),
                     mode3=rng.standard_normal((rank, p)))


def random_lags(n=5, p=2, seed=1):
    rng = np.random.default_rng(seed)
    return LagWindow(tuple(rng.standard_normal(n) for _ in range(p)))


class TestCPFactors:
    def test_state_dim(self):
        f = random_factors(rank=4, n=7, p=3)
        assert f.state_dim == 4 * (2 * 7 + 3)

    def test_stack_unstack_roundtrip(self):
        f = random_factors()
        g = CPFactors.unstack(f.stack(), f.rank, f.n_nodes, f.lag_order)
        assert np.array_equal(f.mode1, g.mode1)
        assert np.array_equal(f.mode2, g.mode2)
        assert np.array_equal(f.mode3, g.mode3)

    def test_unstack_length_checked(self):
        with pytest.raises(ValueError, match="R\\(2N\\+p\\)"):
            CPFactors.unstack(np.zeros(10), 2, 3, 1)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError, match="rank"):
            CPFactors(mode1=np.zeros((2, 3)), mode2=np.zeros((3, 3)),
                      mode3=np.zeros((2, 1)))


class TestReconstruct:
    def test_rank1_indicator(self):
        f = CPFactors(mode1=np.array([[1.0, 0.0]]),
                      mode2=np.array([[0.0, 1.0]]),
                      mode3=np.array([[1.0, 0.0]]))
        slices = cp_reconstruct(f)
        assert np.allclose(slices[0], [[0, 1], [0, 0]])
        assert np.allclose(slices[1], 0.0)

    def test_matches_dense_oracle(self):
        f = random_factors(rank=3, n=4, p=3, seed=2)
        slices = cp_reconstruct(f)
        oracle = cp_dense_slices(f.mode1, f.mode2, f.mode3)
        for l in range(3):
            assert np.max(np.abs(slices[l] - oracle[l])) < 1e-12


class TestCPMean:
    def test_zero_lags(self):
        f = random_factors()
        lags = LagWindow((np.zeros(5), np.zeros(5)))
        assert np.allclose(cp_mean(f, lags), 0.0)

    def test_matches_reconstruction(self):
        f = random_factors(seed=3)
        lags = random_lags(seed=4)
        slices = cp_reconstruct(f)
        direct = sum(slices[l] @ lags.lags[l] for l in range(2))
        assert np.max(np.abs(cp_mean(f, lags) - direct)) < 1e-12

    def test_scaling_invariance(self):
        f = random_factors(seed=5)
        lags = random_lags(seed=6)
        g = CPFactors(mode1=2.0 * f.mode1, mode2=f.mode2 / 2.0, mode3=f.mode3)
        assert np.max(np.abs(cp_mean(f, lags) - cp_mean(g, lags))) < 1e-12

    def test_lag_mismatch(self):
        f = random_factors(p=2)
        with pytest.raises(ValueError, match="lag"):
            cp_mean(f, LagWindow((np.zeros(5),)))


class TestConditionalDesign:
    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_reproduces_cp_mean(self, mode):
        f = random_factors(rank=3, n=6, p=3, seed=7)
        lags = random_lags(n=6, p=3, seed=8)
        h = conditional_design(f, mode, lags)
        block = {1: f.mode1, 2: f.mode2, 3: f.mode3}[mode].ravel()
        assert np.max(np.abs(h @ block - cp_mean(f, lags))) < 1e-12

    @pytest.mark.parametrize("mode", [1, 2, 3])
    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_equals_hstack_oracle_with_signed_zeros(self, mode, rank, p):
        # Exact zeros of both signs in the factors and lags give signed
        # zeros in the design; each entry is the same single product as
        # in the block-by-block construction, so the sign must match too.
        rng = np.random.default_rng([mode, rank, p])
        for _ in range(10):
            n = int(rng.integers(1, 7))
            arrays = [rng.standard_normal(shape) for shape in
                      ((rank, n), (rank, n), (rank, p), (p, n))]
            for a in arrays:
                a[rng.random(a.shape) < 0.2] = 0.0
                a[rng.random(a.shape) < 0.1] = -0.0
            f = CPFactors(*arrays[:3])
            lags = LagWindow(tuple(arrays[3]))
            got = conditional_design(f, mode, lags)
            want = conditional_design_hstack(f, mode, lags)
            assert got.shape == want.shape == (n, rank * (n, n, p)[mode - 1])
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_mode1_zero_alpha(self):
        f = CPFactors(mode1=np.ones((1, 3)), mode2=np.ones((1, 3)),
                      mode3=np.array([[1.0]]))
        lags = LagWindow((np.zeros(3),))
        assert np.all(conditional_design(f, 1, lags) == 0)

    def test_mode3_p1_collapse(self):
        f = random_factors(rank=2, n=4, p=1, seed=9)
        y = np.arange(4.0)
        lags = LagWindow((y,))
        h = conditional_design(f, 3, lags)
        for r in range(2):
            m_r = float(f.mode2[r] @ y)
            assert np.allclose(h[:, r], f.mode1[r] * m_r)

    def test_invalid_mode(self):
        with pytest.raises(ValueError, match="mode"):
            conditional_design(random_factors(), 4, random_lags())


class TestSignFix:
    def test_canonical_unchanged_mean(self):
        f = random_factors(seed=10)
        lags = random_lags(seed=11)
        g = sign_fix(f)
        assert np.max(np.abs(cp_mean(f, lags) - cp_mean(g, lags))) < 1e-12

    def test_negated_pair_restored(self):
        f = random_factors(rank=1, seed=12)
        neg = CPFactors(mode1=-f.mode1, mode2=-f.mode2, mode3=f.mode3)
        a, b = sign_fix(f), sign_fix(neg)
        assert np.allclose(a.mode1, b.mode1, atol=1e-12)
        assert np.allclose(a.mode2, b.mode2, atol=1e-12)

    def test_first_nonzero_positive_and_sorted(self):
        f = random_factors(rank=3, seed=13)
        g = sign_fix(f)
        weights = []
        for r in range(3):
            nz = np.flatnonzero(g.mode1[r])
            assert g.mode1[r, nz[0]] > 0
            weights.append(np.linalg.norm(g.mode1[r])
                           * np.linalg.norm(g.mode2[r])
                           * np.linalg.norm(g.mode3[r]))
        assert weights == sorted(weights, reverse=True)

    def test_idempotent(self):
        f = sign_fix(random_factors(seed=14))
        g = sign_fix(f)
        assert np.allclose(f.mode1, g.mode1)
        assert np.allclose(f.mode2, g.mode2)
        assert np.allclose(f.mode3, g.mode3)


def simulate_cp_panel(rank=2, n=10, p=2, t_len=80, seed=0, rw_sd=0.01,
                      noise_sd=0.1, signal_weight=2.0):
    rng = np.random.default_rng(seed)
    m1 = 0.5 * rng.standard_normal((rank, n))
    m2 = 0.5 * rng.standard_normal((rank, n))
    m3 = 0.5 * rng.standard_normal((rank, p))
    # Normalize the total component weight so the panel stays bounded
    # across seeds while keeping strong cross-node structure.
    weight = sum(np.linalg.norm(m1[r]) * np.linalg.norm(m2[r])
                 * np.sum(np.abs(m3[r])) for r in range(rank))
    m3 *= signal_weight / weight
    panel = np.zeros((t_len, n))
    panel[:p] = rng.standard_normal((p, n))
    for t in range(p, t_len):
        m1 = m1 + rw_sd * rng.standard_normal((rank, n))
        m2 = m2 + rw_sd * rng.standard_normal((rank, n))
        m3 = m3 + rw_sd * 0.1 * rng.standard_normal((rank, p))
        f = CPFactors(mode1=m1, mode2=m2, mode3=m3)
        lags = LagWindow(tuple(panel[t - l] for l in range(1, p + 1)))
        panel[t] = cp_mean(f, lags) + noise_sd * rng.standard_normal(n)
    return panel


class TestAlternatingFilter:
    def test_deterministic(self):
        panel = simulate_cp_panel(t_len=30)
        a = cp_filter_alternating(panel, rank=2, p=2, init_seed=3)
        b = cp_filter_alternating(panel, rank=2, p=2, init_seed=3)
        assert np.array_equal(a.beliefs_filtered[-1].mean,
                              b.beliefs_filtered[-1].mean)

    def test_state_dimension(self):
        panel = simulate_cp_panel(rank=2, n=8, p=3, t_len=20)
        run = cp_filter_alternating(panel, rank=2, p=3)
        assert run.beliefs_filtered[-1].dim == 2 * (2 * 8 + 3)

    def test_scalar_collapse_matches_kalman_on_g(self):
        # R = 1, N = 1: the model is a scalar TVP-AR(1) with redundant
        # factor scaling; the implied product g should agree with a scalar
        # Kalman filter run directly on g_t.  Use a low-noise regime so the
        # alternating approximation concentrates near the exact posterior.
        rng = np.random.default_rng(5)
        t_len = 300
        phi, noise, q = 0.6, 1e-5, 1e-16
        panel = np.zeros((t_len, 1))
        panel[0] = 1.0
        for t in range(1, t_len):
            panel[t] = phi * panel[t - 1] + noise * rng.standard_normal()
        run = cp_filter_alternating(panel, rank=1, p=1, q_scale=q,
                                    r_scale=noise ** 2, init_seed=1,
                                    n_sweeps=4)
        # Scalar Kalman on y_t = g_t * y_{t-1} + noise.
        belief = Belief(mean=np.zeros(1), cov=np.eye(1))
        for t in range(1, t_len):
            belief = predict(belief, q * np.eye(1))
            h = np.array([[panel[t - 1, 0]]])
            belief, _ = update(belief, ObsBlock(h=h, r=noise ** 2 * np.eye(1),
                                                y=panel[t]))
        # Compare implied g from the CP state with the scalar estimate.
        from nssm.tensorcp import CPFactors as F
        factors = F.unstack(run.beliefs_filtered[-1].mean, 1, 1, 1)
        g_cp = float(factors.mode1[0, 0] * factors.mode2[0, 0]
                     * factors.mode3[0, 0])
        assert abs(g_cp - float(belief.mean[0])) < 1e-4

    def test_rejects_nonfinite(self):
        # An input error, not a singular innovation covariance.
        panel = simulate_cp_panel(t_len=20)
        panel[7, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite") as info:
            cp_filter_alternating(panel, rank=2, p=2)
        assert not isinstance(info.value, np.linalg.LinAlgError)

    @pytest.mark.parametrize("kwargs,match", [
        ({"n_sweeps": 0}, "n_sweeps"),
        ({"p0_scale": np.nan}, "p0_scale"),
        ({"p0_scale": -1.0}, "p0_scale"),
        ({"p0_scale": np.inf}, "p0_scale"),
        ({"q_scale": np.nan}, "finite"),
        ({"q_scale": -1e-3}, "negative eigenvalue"),
        ({"r_scale": np.nan}, "R must be finite"),
        ({"r_scale": np.inf}, "R must be finite"),
    ], ids=["no_sweeps", "nan_p0", "negative_p0",
            "inf_p0", "nan_q", "negative_q", "nan_r", "inf_r"])
    def test_rejects_bad_settings(self, kwargs, match):
        # Input errors, raised before the first step: no sweep would return
        # the prior path, and a NaN Q is not a singular innovation.
        panel = simulate_cp_panel(t_len=20)
        with pytest.raises(ValueError, match=match) as info, \
                np.errstate(invalid="ignore"):  # inf * 0 in r_scale * I
            cp_filter_alternating(panel, rank=2, p=2, **kwargs)
        assert not isinstance(info.value, np.linalg.LinAlgError)

    def test_degenerate_design_warns_and_skips(self):
        panel = np.zeros((10, 3))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run = cp_filter_alternating(panel, rank=1, p=1, init_seed=2)
        assert any("degenerate" in str(w.message) for w in caught)
        assert np.all(np.isfinite(run.beliefs_filtered[-1].mean))

    def test_beats_diagonal_var_baseline(self):
        wins = 0
        seeds = range(20)
        t_len, k_eval, n = 120, 20, 10
        for seed in seeds:
            panel = simulate_cp_panel(rank=2, n=n, p=2, t_len=t_len,
                                      seed=seed)
            run = cp_filter_alternating(panel, rank=2, p=2, q_scale=1e-4,
                                        r_scale=0.01, init_seed=seed)
            # Diagonal-VAR baseline: per-node AR(1) least squares on the
            # training window, then one-step predictions over the tail.
            train = panel[:t_len - k_eval]
            phi = np.empty(n)
            for i in range(n):
                x, y = train[:-1, i], train[1:, i]
                denom = float(x @ x)
                phi[i] = float(x @ y) / denom if denom > 0 else 0.0
            se_cp, se_diag = [], []
            for t in range(t_len - k_eval, t_len):
                # Filtered belief after observing time t-1 sits at index
                # (t-1) - p in the run.
                f = CPFactors.unstack(run.beliefs_filtered[t - 3].mean,
                                      2, n, 2)
                lags = LagWindow((panel[t - 1], panel[t - 2]))
                se_cp.append(np.mean((cp_mean(f, lags) - panel[t]) ** 2))
                se_diag.append(np.mean((phi * panel[t - 1] - panel[t]) ** 2))
            if np.mean(se_cp) < np.mean(se_diag):
                wins += 1
        assert wins >= 0.8 * len(list(seeds))

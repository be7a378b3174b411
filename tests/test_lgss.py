import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nssm import lgss
from nssm.lgss import (
    Belief,
    FilterRun,
    ObsBlock,
    SingularInnovationError,
    StateNoiseSpec,
    predict,
    rts_smooth,
    threshold_Q,
    two_block_update,
    update,
)
from nssm.simulate import EdgePathSpec
from nssm.tensorcp import cp_filter_alternating
from oracles import joint_gaussian_filter_smoother, joint_gaussian_loglik


def run_filter(m0, p0, q_seq, h_seq, r_seq, y_seq):
    belief = Belief(mean=m0, cov=p0)
    filtered, predicted, per_step = [], [], []
    for t in range(len(y_seq)):
        belief = predict(belief, q_seq[t])
        predicted.append(belief)
        belief, ll = update(belief, ObsBlock(h=h_seq[t], r=r_seq[t], y=y_seq[t]))
        filtered.append(belief)
        per_step.append(ll)
    return FilterRun(means=np.array([b.mean for b in filtered]),
                     covs=np.array([b.cov for b in filtered]),
                     pred_means=np.array([b.mean for b in predicted]),
                     pred_covs=np.array([b.cov for b in predicted]),
                     per_step_loglik=np.asarray(per_step))


def random_problem(seed, k=3, n=2, t_len=5):
    rng = np.random.default_rng(seed)
    m0 = rng.standard_normal(k)
    a = rng.standard_normal((k, k))
    p0 = a @ a.T + np.eye(k)
    q_seq, h_seq, r_seq, y_seq = [], [], [], []
    for _ in range(t_len):
        b = rng.standard_normal((k, k)) * 0.3
        q_seq.append(b @ b.T + 0.1 * np.eye(k))
        h_seq.append(rng.standard_normal((n, k)))
        c = rng.standard_normal((n, n)) * 0.3
        r_seq.append(c @ c.T + 0.5 * np.eye(n))
        y_seq.append(rng.standard_normal(n))
    return m0, p0, q_seq, h_seq, r_seq, y_seq


class TestBelief:
    def test_symmetrizes(self):
        p = np.array([[1.0, 0.1], [0.0, 1.0]])
        b = Belief(mean=np.zeros(2), cov=p)
        assert np.allclose(b.cov, b.cov.T)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            Belief(mean=np.zeros(2), cov=-np.eye(2))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            Belief(mean=np.zeros(2), cov=np.eye(3))


class TestObsBlock:
    def test_r_must_be_pd(self):
        with pytest.raises(ValueError, match="positive definite"):
            ObsBlock(h=np.eye(2), r=np.zeros((2, 2)), y=np.zeros(2))
        # A vector R holds the variances of a diagonal noise.
        for r in ([1.0, 0.0], [1.0, -1.0], [1.0, np.inf], [1.0, np.nan]):
            with pytest.raises(ValueError, match="positive definite"):
                ObsBlock(h=np.eye(2), r=np.array(r), y=np.zeros(2))

    def test_shape_consistency(self):
        with pytest.raises(ValueError, match="inconsistent"):
            ObsBlock(h=np.eye(2), r=np.eye(2), y=np.zeros(3))
        with pytest.raises(ValueError, match="inconsistent"):
            ObsBlock(h=np.eye(2), r=np.ones(3), y=np.zeros(2))


class TestPredictUpdate:
    def test_predict_random_walk(self):
        b = Belief(mean=np.ones(2), cov=np.eye(2))
        out = predict(b, 0.5 * np.eye(2))
        assert np.allclose(out.mean, b.mean)
        assert np.allclose(out.cov, 1.5 * np.eye(2))

    def test_predict_with_transition(self):
        b = Belief(mean=np.array([1.0, 2.0]), cov=np.eye(2))
        f = np.array([[0.5, 0.0], [0.0, 2.0]])
        out = predict(b, np.zeros((2, 2)), f=f)
        assert np.allclose(out.mean, [0.5, 4.0])
        assert np.allclose(out.cov, f @ f.T)

    def test_update_scalar_closed_form(self):
        # Prior N(0, 1), observation y = 1 with noise 1 -> posterior N(0.5, 0.5).
        b = Belief(mean=np.zeros(1), cov=np.eye(1))
        post, ll = update(b, ObsBlock(h=np.eye(1), r=np.eye(1), y=np.ones(1)))
        assert post.mean[0] == pytest.approx(0.5)
        assert post.cov[0, 0] == pytest.approx(0.5)
        assert ll == pytest.approx(-0.5 * np.log(2 * np.pi * 2) - 0.25)

    def test_information_identity(self):
        # Posterior precision = prior precision + H' R^-1 H.
        rng = np.random.default_rng(0)
        for seed in range(10):
            m0, p0, q_seq, h_seq, r_seq, y_seq = random_problem(seed)
            b = Belief(mean=m0, cov=p0)
            post, _ = update(b, ObsBlock(h=h_seq[0], r=r_seq[0], y=y_seq[0]))
            lhs = np.linalg.inv(post.cov)
            rhs = np.linalg.inv(p0) + h_seq[0].T @ np.linalg.inv(r_seq[0]) @ h_seq[0]
            assert np.allclose(lhs, rhs, atol=1e-8)

    def test_singular_innovation_raises(self):
        b = Belief(mean=np.zeros(1), cov=np.eye(1) * 1e20)
        with pytest.raises(SingularInnovationError):
            update(b, ObsBlock(h=np.ones((2, 1)), r=np.eye(2) * 1e-18,
                               y=np.zeros(2)))
        # Same problem with R as a variance vector: K = 1 < M = 2 takes the
        # collapsed form, which must reach the same decision.
        with pytest.raises(SingularInnovationError):
            update(b, ObsBlock(h=np.ones((2, 1)), r=np.full(2, 1e-18),
                               y=np.zeros(2)))


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_filter_matches_joint_conditioning(self, seed):
        m0, p0, q_seq, h_seq, r_seq, y_seq = random_problem(seed)
        run = run_filter(m0, p0, q_seq, h_seq, r_seq, y_seq)
        oracle_f, _ = joint_gaussian_filter_smoother(m0, p0, q_seq, h_seq,
                                                     r_seq, y_seq)
        for b, (mean, cov) in zip(run.beliefs_filtered, oracle_f):
            assert np.max(np.abs(b.mean - mean)) < 1e-9
            assert np.max(np.abs(b.cov - cov)) < 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_smoother_matches_joint_conditioning(self, seed):
        m0, p0, q_seq, h_seq, r_seq, y_seq = random_problem(seed)
        run = run_filter(m0, p0, q_seq, h_seq, r_seq, y_seq)
        smoothed = rts_smooth(run, q_seq[1:])
        _, oracle_s = joint_gaussian_filter_smoother(m0, p0, q_seq, h_seq,
                                                     r_seq, y_seq)
        for b, (mean, cov) in zip(smoothed, oracle_s):
            assert np.max(np.abs(b.mean - mean)) < 1e-9
            assert np.max(np.abs(b.cov - cov)) < 1e-9

    def test_loglik_matches_joint_density(self):
        # Innovations decomposition equals the dense joint observation density.
        m0, p0, q_seq, h_seq, r_seq, y_seq = random_problem(11, k=2, n=2,
                                                            t_len=4)
        run = run_filter(m0, p0, q_seq, h_seq, r_seq, y_seq)
        expected = joint_gaussian_loglik(m0, p0, q_seq, h_seq, r_seq, y_seq)
        assert run.loglik == pytest.approx(expected, abs=1e-8)


def diagonal_problem(seed, k, n, rank, t_len, zero_q):
    """Random-walk problem with K < N, diagonal R and a prior covariance of
    the given rank (singular when rank < k); Q = 0 when ``zero_q``."""
    rng = np.random.default_rng(seed)
    m0 = rng.standard_normal(k)
    a = rng.standard_normal((k, rank))
    p0 = a @ a.T
    q_seq, h_seq, r_seq, y_seq = [], [], [], []
    for _ in range(t_len):
        b = rng.standard_normal((k, k)) * 0.3
        q_seq.append(np.zeros((k, k)) if zero_q else b @ b.T)
        h_seq.append(rng.standard_normal((n, k)))
        r_seq.append(np.exp(rng.uniform(-2.0, 2.0, n)))
        y_seq.append(rng.standard_normal(n))
    return m0, p0, q_seq, h_seq, r_seq, y_seq


class TestCollapsedUpdate:
    """Diagonal R given as a vector with K < N takes the collapsed form."""

    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 6),
           st.integers(0, 4), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_property_matches_gain_form(self, seed, k, extra, rank, zero_q):
        rank = min(rank, k)
        m0, p0, q_seq, h_seq, r_seq, y_seq = diagonal_problem(
            seed, k, k + extra, rank, 1, zero_q)
        b = predict(Belief(mean=m0, cov=p0), q_seq[0])
        post, ll = update(b, ObsBlock(h=h_seq[0], r=r_seq[0], y=y_seq[0]))
        ref, ll_ref = update(b, ObsBlock(h=h_seq[0], r=np.diag(r_seq[0]),
                                         y=y_seq[0]))
        assert np.max(np.abs(post.mean - ref.mean)) < 1e-9
        assert np.max(np.abs(post.cov - ref.cov)) < 1e-9
        assert ll == pytest.approx(ll_ref, abs=1e-9)

    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 6),
           st.integers(0, 4), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_property_filter_matches_joint_conditioning(self, seed, k, extra,
                                                        rank, zero_q):
        rank = min(rank, k)
        m0, p0, q_seq, h_seq, r_seq, y_seq = diagonal_problem(
            seed, k, k + extra, rank, 4, zero_q)
        run = run_filter(m0, p0, q_seq, h_seq, r_seq, y_seq)
        r_mats = [np.diag(r) for r in r_seq]
        oracle_f, _ = joint_gaussian_filter_smoother(m0, p0, q_seq, h_seq,
                                                     r_mats, y_seq)
        for b, (mean, cov) in zip(run.beliefs_filtered, oracle_f):
            assert np.max(np.abs(b.mean - mean)) < 1e-9
            assert np.max(np.abs(b.cov - cov)) < 1e-9
        expected = joint_gaussian_loglik(m0, p0, q_seq, h_seq, r_mats, y_seq)
        assert run.loglik == pytest.approx(expected, abs=1e-8)


    @given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_property_extreme_heterogeneous_r(self, seed, k, extra):
        # Variances from 1e-9 to 1e8, as the Poisson pseudo-observations
        # give. cond(S) reaches 1e17, past the 1e14 limit, but cond(C) of
        # the R-scaled system stays below 1e12, so the update must not
        # raise. Both sides lose about eps * cond(C) to rounding (up to
        # 1.4e-5 relative over 5,000 seeds), hence the 1e-4 tolerance.
        n = k + extra
        m0, p0, q_seq, h_seq, _, y_seq = diagonal_problem(seed, k, n, k, 3,
                                                          False)
        rng = np.random.default_rng(seed)
        r_seq = []
        for _ in range(3):
            r = 10.0 ** rng.uniform(-9.0, 8.0, n)
            r[rng.permutation(n)[:2]] = [1e-9, 1e8]
            r_seq.append(r)
        run = run_filter(m0, p0, q_seq, h_seq, r_seq, y_seq)
        oracle_f, _ = joint_gaussian_filter_smoother(
            m0, p0, q_seq, h_seq, [np.diag(r) for r in r_seq], y_seq)
        for b, (mean, cov) in zip(run.beliefs_filtered, oracle_f):
            assert np.max(np.abs(b.mean - mean)) < 1e-4 * max(1.0, np.max(np.abs(mean)))
            assert np.max(np.abs(b.cov - cov)) < 1e-4 * max(1.0, np.max(np.abs(cov)))


def gain_problem(seed, m, extra, full_r, decades):
    """One update with state dimension K = m + extra >= M = m, a positive
    definite prior and noise variances spread over ``decades`` decades;
    R is a vector, or a full matrix with those eigenvalues."""
    rng = np.random.default_rng(seed)
    k = m + extra
    m0 = rng.standard_normal(k)
    a = rng.standard_normal((k, k))
    p0 = a @ a.T + 0.1 * np.eye(k)
    h = rng.standard_normal((m, k))
    r = 10.0 ** rng.uniform(-decades / 2, decades / 2, m)
    if full_r:
        u, _ = np.linalg.qr(rng.standard_normal((m, m)))
        r = (u * r) @ u.T
        r = 0.5 * (r + r.T)
    y = h @ m0 + rng.standard_normal(m)
    return m0, p0, h, r, y


class TestGainUpdate:
    """K >= M, or a full R, takes the gain form P - B'B, B = L^-1 H P."""

    @given(st.integers(0, 10_000), st.integers(1, 5), st.integers(0, 6),
           st.booleans(), st.sampled_from([0, 2, 4, 6, 8]))
    @settings(max_examples=80, deadline=None)
    def test_property_matches_joint_conditioning(self, seed, m, extra,
                                                 full_r, decades):
        # One step of the joint oracle with Q = 0 conditions the prior on
        # y. Over 3,000 seeds the worst relative errors were 4e-14 (mean),
        # 3e-12 (covariance) and 2e-13 (log-likelihood); the bound leaves
        # a margin of 300.
        m0, p0, h, r, y = gain_problem(seed, m, extra, full_r, decades)
        k = m0.shape[0]
        mean, cov, ll = lgss._step(m0, p0, h, r, y)
        r_mat = r if r.ndim == 2 else np.diag(r)
        args = (m0, p0, [np.zeros((k, k))], [h], [r_mat], [y])
        ((want_mean, want_cov),), _ = joint_gaussian_filter_smoother(*args)
        want_ll = joint_gaussian_loglik(*args)
        assert np.max(np.abs(mean - want_mean)) <= 1e-9 * max(
            1.0, np.max(np.abs(want_mean)))
        assert np.max(np.abs(cov - want_cov)) <= 1e-9 * np.max(np.abs(want_cov))
        assert abs(ll - want_ll) <= 1e-9 * max(1.0, abs(want_ll))
        eig = np.linalg.eigvalsh(cov)
        assert eig[0] >= -1e-12 * eig[-1]


    @pytest.mark.parametrize("decades", range(2, 14))
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("m, k", [(4, 6), (6, 3)],
                             ids=["inverse", "solve"])
    def test_ill_conditioned_s_matches_joint_conditioning(self, m, k,
                                                          decades, seed):
        # R's eigenvalues run from 1 to 10^decades in random directions,
        # so cond(S) spans about 1e2 to 1e13, below the 1e14 the step
        # rejects. K + 1 > M takes L^-1 and one product, K + 1 <= M a
        # solve. Rounding S = H P H' + R alone moves the answer by about
        # eps * cond(S), for the oracle too, so the tolerance on the mean
        # and covariance is 10 eps cond(S) relative, and 1e-14 relative on
        # the log-likelihood. Over 1,200 such problems per shape the worst
        # were 1.3 eps cond(S) (covariance) and 3.5e-16 (log-likelihood).
        rng = np.random.default_rng([decades, seed])
        u, _ = np.linalg.qr(rng.standard_normal((m, m)))
        r = (u * np.logspace(0, decades, m)) @ u.T
        r = 0.5 * (r + r.T)
        h = rng.standard_normal((m, k))
        a = rng.standard_normal((k, k))
        p0 = a @ a.T / k + 0.1 * np.eye(k)
        m0 = rng.standard_normal(k)
        y = h @ m0 + rng.standard_normal(m)
        cond = np.linalg.cond(h @ p0 @ h.T + r)
        assert 10.0 ** (decades - 3) < cond < 1e14
        mean, cov, ll = lgss._step_gain(m0, p0, h, r, y)
        args = (m0, p0, [np.zeros((k, k))], [h], [r], [y])
        ((want_mean, want_cov),), _ = joint_gaussian_filter_smoother(*args)
        tol = 10.0 * np.finfo(float).eps * cond
        assert np.max(np.abs(mean - want_mean)) <= tol * np.max(np.abs(want_mean))
        assert np.max(np.abs(cov - want_cov)) <= tol * np.max(np.abs(want_cov))
        want_ll = joint_gaussian_loglik(*args)
        assert abs(ll - want_ll) <= 1e-14 * max(1.0, abs(want_ll))


class TestTwoBlock:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_stacked_update(self, seed):
        rng = np.random.default_rng(seed)
        k = 4
        m0 = rng.standard_normal(k)
        a = rng.standard_normal((k, k))
        b = Belief(mean=m0, cov=a @ a.T + np.eye(k))
        h_e = rng.standard_normal((2, k))
        h_n = rng.standard_normal((3, k))
        r_e = np.diag(rng.random(2) + 0.5)
        r_n = np.diag(rng.random(3) + 0.5)
        y_e = rng.standard_normal(2)
        y_n = rng.standard_normal(3)
        seq, ll_e, ll_n = two_block_update(
            b, ObsBlock(h=h_e, r=r_e, y=y_e),
            ObsBlock(h=h_n, r=r_n, y=y_n))
        h_st = np.vstack([h_e, h_n])
        r_st = np.zeros((5, 5))
        r_st[:2, :2] = r_e
        r_st[2:, 2:] = r_n
        stacked, ll_st = update(b, ObsBlock(h=h_st, r=r_st,
                                            y=np.concatenate([y_e, y_n])))
        assert np.max(np.abs(seq.mean - stacked.mean)) < 1e-9
        assert np.max(np.abs(seq.cov - stacked.cov)) < 1e-9
        assert ll_e + ll_n == pytest.approx(ll_st, abs=1e-9)


class TestThreshold:
    def test_strict_inequality(self):
        spec = StateNoiseSpec.threshold(np.array([0.1]), np.array([1.0]),
                                        np.array([0.5]))
        q, s = threshold_Q(np.array([0.5]), np.array([0.0]), spec)
        assert s[0] == 0 and q[0, 0] == 0.1  # increment exactly d: no switch
        q, s = threshold_Q(np.array([0.50001]), np.array([0.0]), spec)
        assert s[0] == 1 and q[0, 0] == 1.0

    def test_componentwise(self):
        spec = StateNoiseSpec.threshold(np.array([0.1, 0.2]),
                                        np.array([1.0, 2.0]),
                                        np.array([0.5, 0.5]))
        q, s = threshold_Q(np.array([1.0, 0.1]), np.zeros(2), spec)
        assert list(s) == [1, 0]
        assert np.allclose(np.diag(q), [1.0, 0.2])

    def test_requires_q0_lt_q1(self):
        with pytest.raises(ValueError, match="q0 < q1"):
            StateNoiseSpec.threshold(np.array([1.0]), np.array([1.0]),
                                     np.array([0.5]))

    def test_constant_mode_rejects_threshold_q(self):
        spec = StateNoiseSpec.constant(np.eye(2))
        with pytest.raises(ValueError, match="threshold"):
            threshold_Q(np.zeros(2), np.zeros(2), spec)


class TestNonFinite:
    """NaN and inf inputs are ValueErrors, caught before eigvalsh."""

    @pytest.mark.parametrize("mean,cov", [
        ([0.0, np.nan], np.eye(2)),
        ([0.0, np.inf], np.eye(2)),
        (np.zeros(2), np.nan * np.eye(2)),
    ], ids=["nan_mean", "inf_mean", "nan_cov"])
    def test_belief(self, mean, cov):
        with pytest.raises(ValueError, match="finite"):
            Belief(mean=np.asarray(mean), cov=cov)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_constant_q(self, value):
        with pytest.raises(ValueError, match="finite"):
            StateNoiseSpec.constant(np.diag([1.0, value]))

    def test_predict_q(self):
        b = Belief(mean=np.zeros(2), cov=np.eye(2))
        with pytest.raises(ValueError, match="finite"):
            predict(b, np.full((2, 2), np.nan))

    @pytest.mark.parametrize("which", ["q0", "q1", "d"])
    def test_threshold_nan(self, which):
        args = {"q0": np.array([0.1]), "q1": np.array([1.0]),
                "d": np.array([0.5])}
        args[which] = np.array([np.nan])
        with pytest.raises(ValueError, match="positive"):
            StateNoiseSpec.threshold(**args)

    def test_edge_state_covariance(self):
        with pytest.raises(ValueError, match="finite"):
            EdgePathSpec(eta0=np.zeros(2), s_cov=np.array([[1.0, 0.0],
                                                           [0.0, np.inf]]))


class TestCheckPsd:
    """``_check_psd`` checks the shape before symmetrizing, and reads a
    diagonal matrix's smallest eigenvalue off its diagonal."""

    @pytest.mark.parametrize("k", [1, 3, 84])
    def test_diagonal_read_matches_eigvalsh(self, k):
        # The verdict and the printed value of the diagonal read equal what
        # eigvalsh gives, on both sides of the -1e-10 floor. (LAPACK scales
        # a matrix of tiny norm, so all-1e-300 can come back 1 ulp lower.)
        entries = np.array([-1e-9, -1e-11, 0.0, -0.0, 1e-300, 1e8])
        rng = np.random.default_rng(k)
        draws = [np.full(k, e) for e in entries]
        draws += [rng.choice(entries, k) for _ in range(40)]
        for d in draws:
            p = np.diag(d)
            eig_min = float(np.linalg.eigvalsh(p).min())
            assert (eig_min < -1e-10) == (d.min() < -1e-10)
            if eig_min < -1e-10:
                assert f"{eig_min:.3e}" == f"{d.min():.3e}"
                with pytest.raises(ValueError,
                                   match=f"negative eigenvalue {eig_min:.3e}$"):
                    lgss._check_psd(p, "Q")
            else:
                assert np.array_equal(lgss._check_psd(p, "Q"), p)

    def test_diagonal_matrices_skip_eigvalsh(self, monkeypatch):
        def no_eigvalsh(a):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        q = 1e-3 * np.eye(84)
        StateNoiseSpec.constant(q)
        b = Belief(mean=np.zeros(84), cov=np.eye(84))
        predict(b, q)
        panel = np.random.default_rng(0).standard_normal((12, 20))
        cp_filter_alternating(panel, rank=2, p=2)
        q[0, 1] = q[1, 0] = 1e-4
        with pytest.raises(AssertionError, match="eigvalsh called"):
            predict(b, q)

    @pytest.mark.parametrize("make", [
        lambda q: StateNoiseSpec.constant(q),
        lambda q: Belief(mean=np.zeros(3), cov=q),
        lambda q: predict(Belief(mean=np.zeros(3), cov=np.eye(3)), q),
    ], ids=["state_noise", "belief", "predict"])
    @pytest.mark.parametrize("q", [[[1e-3, 1e-3, 1e-3]], np.ones((2, 3)),
                                   np.ones(3), np.ones((3, 3, 1))],
                             ids=["row", "2x3", "vector", "3d"])
    def test_rejects_non_square(self, make, q):
        # Neither broadcast by the symmetrization into a 3 x 3 matrix nor
        # left to numpy's broadcast error.
        with pytest.raises(ValueError, match="must be a square matrix|"
                                             "cov shape must match mean length"):
            make(q)

    def test_messages_name_the_size(self):
        with pytest.raises(ValueError,
                           match="cov shape must match mean length"):
            Belief(mean=np.zeros(3), cov=[[1.0, 1.0, 1.0]])
        b = Belief(mean=np.zeros(3), cov=np.eye(3))
        with pytest.raises(ValueError, match=r"Q_t must be 3 x 3, "
                                             r"got shape \(2, 2\)"):
            predict(b, np.eye(2))
        with pytest.raises(ValueError, match=r"Q must be a square matrix, "
                                             r"got shape \(2, 3\)"):
            StateNoiseSpec.constant(np.ones((2, 3)))
        with pytest.raises(ValueError, match="S must be p x p"):
            EdgePathSpec(eta0=np.zeros(3), s_cov=[[1.0, 1.0, 1.0]])


class TestTransition:
    """StateNoiseSpec checks F when it is built, not deep in a filter."""

    @pytest.mark.parametrize("spec_fn", [
        lambda f: StateNoiseSpec(q=np.eye(3), transition=f),
        lambda f: StateNoiseSpec(mode="threshold", q0=np.full(3, 0.1),
                                 q1=np.ones(3), d=np.ones(3), transition=f),
    ], ids=["constant", "threshold"])
    def test_size_must_match_state(self, spec_fn):
        with pytest.raises(ValueError, match="3 x 3"):
            spec_fn(0.5 * np.eye(2))
        with pytest.raises(ValueError, match="3 x 3"):
            spec_fn(np.ones((3, 2)))

    def test_must_be_finite(self):
        f = 0.5 * np.eye(3)
        f[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            StateNoiseSpec(q=np.eye(3), transition=f)


class TestFilterRun:
    def test_beliefs_are_views_of_the_arrays(self):
        run = run_filter(*random_problem(0))
        b = run.beliefs_filtered[2]
        b.mean[1] += 1.0
        b.cov[0, 0] *= 2.0
        assert run.means[2, 1] == b.mean[1]
        assert run.covs[2, 0, 0] == b.cov[0, 0]
        again = run.beliefs_filtered[2]
        assert again.mean[1] == b.mean[1] and again.cov[0, 0] == b.cov[0, 0]
        assert np.shares_memory(run.beliefs_predicted[3].cov, run.pred_covs)

    def test_loglik_and_times_derived_from_arrays(self):
        run = run_filter(*random_problem(1))
        run.t0 = 4
        assert run.loglik == float(np.sum(run.per_step_loglik))
        assert run.n_steps == len(run.per_step_loglik) == 5
        assert [b.time_index for b in run.beliefs_filtered] == [4, 5, 6, 7, 8]

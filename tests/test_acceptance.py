"""End-to-end acceptance suite.

Each test prints exactly one PASS/FAIL line (bypassing capture) and then
asserts, so a full run yields a 14-line scoreboard.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from nssm.design import DesignRecipe, build_design, spillover_matrix
from nssm.diagnostics import (
    aggregate_recursion,
    detect_breaks,
    hop_coefficients,
    meso_reduce,
)
from nssm.evalharness import (
    EvalPlan,
    coverage_and_pit,
    rolling_eval,
    score,
    truncate_run,
)
from nssm.gaussmodel import (
    GaussianSpec,
    ObsNoise,
    fit_gaussian,
    forecast_gaussian,
)
from nssm.graph import Adjacency, Partition, WeightMatrix, invariant_vector, \
    perturb, row_normalize
from nssm.lgss import Belief, ObsBlock, StateNoiseSpec, predict, rts_smooth, \
    two_block_update, update
from nssm.poissonmodel import (
    EXPLOSION_THRESHOLD,
    PoissonSpec,
    StabilizerConfig,
    fit_poisson,
    mc_forecast,
)
from nssm.simulate import (
    CoeffPathSpec,
    GraphGen,
    gen_coeff_paths,
    gen_gaussian_panel,
    gen_graph,
    gen_poisson_panel,
)
from nssm.tensorcp import (
    CPFactors,
    cp_mean,
    cp_reconstruct,
    conditional_design,
)
from oracles import cp_dense_slices, hop_coeff_subset_sum, \
    joint_gaussian_filter_smoother


@pytest.fixture
def report(capsys):
    """One scoreboard line per criterion, written past pytest's capture."""

    def _report(num, name, ok, detail):
        line = (f"[criterion {num:02d}] {name}: "
                f"{'PASS' if ok else 'FAIL'} ({detail})")
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def random_w(n, seed, avg_degree=10.0):
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < avg_degree / n) * 1.0
    np.fill_diagonal(a, 0.0)
    a[a.sum(axis=1) == 0, 0] = 1.0
    np.fill_diagonal(a, 0.0)
    return row_normalize(Adjacency(a))


def test_criterion_01_kalman_oracle(report):
    rng = np.random.default_rng(1)
    n, k, t_len = 4, 4, 6
    m0 = rng.standard_normal(k)
    p0 = np.eye(k) * 0.8
    q_seq = [np.diag(rng.uniform(0.05, 0.2, k)) for _ in range(t_len)]
    h_seq = [rng.standard_normal((n, k)) for _ in range(t_len)]
    r_seq = [np.diag(rng.uniform(0.3, 1.0, n)) for _ in range(t_len)]
    y_seq = [rng.standard_normal(n) for _ in range(t_len)]

    t0 = time.time()
    belief = Belief(mean=m0, cov=p0)
    filtered = []
    for t in range(t_len):
        belief = predict(belief, q_seq[t])
        belief, _ = update(belief, ObsBlock(h=h_seq[t], r=r_seq[t], y=y_seq[t]))
        filtered.append(belief)
    from nssm.lgss import FilterRun
    means = np.array([b.mean for b in filtered])
    covs = np.array([b.cov for b in filtered])
    run = FilterRun(means=means, covs=covs, pred_means=means, pred_covs=covs,
                    per_step_loglik=np.zeros(t_len))
    smoothed = rts_smooth(run, q_seq[1:])
    elapsed = time.time() - t0

    of, os_ = joint_gaussian_filter_smoother(m0, p0, q_seq, h_seq, r_seq, y_seq)
    err = 0.0
    for t in range(t_len):
        err = max(err, np.max(np.abs(filtered[t].mean - of[t][0])),
                  np.max(np.abs(filtered[t].cov - of[t][1])),
                  np.max(np.abs(smoothed[t].mean - os_[t][0])),
                  np.max(np.abs(smoothed[t].cov - os_[t][1])))
    report(1, "Kalman oracle equivalence", err <= 1e-9 and elapsed < 1.0,
           f"max err {err:.2e}, {elapsed:.2f}s")


def test_criterion_02_two_block_vs_stacked(report):
    rng = np.random.default_rng(2)
    k = 6
    belief = Belief(mean=rng.standard_normal(k),
                    cov=np.eye(k) + 0.1 * np.ones((k, k)))
    # Predictable designs: edge block loads the trailing coordinates,
    # node block the leading ones; neither depends on the current data.
    edge = ObsBlock(h=np.hstack([np.zeros((3, 3)),
                                 rng.standard_normal((3, 3))]),
                    r=np.diag(rng.uniform(0.2, 0.5, 3)),
                    y=rng.standard_normal(3))
    node = ObsBlock(h=np.hstack([rng.standard_normal((4, 3)),
                                 np.zeros((4, 3))]),
                    r=np.diag(rng.uniform(0.2, 0.5, 4)),
                    y=rng.standard_normal(4))
    seq, ll_e, ll_n = two_block_update(belief, edge, node)
    stacked = ObsBlock(h=np.vstack([edge.h, node.h]),
                       r=np.block([[edge.r, np.zeros((3, 4))],
                                   [np.zeros((4, 3)), node.r]]),
                       y=np.concatenate([edge.y, node.y]))
    joint, ll_j = update(belief, stacked)
    err = max(float(np.max(np.abs(seq.mean - joint.mean))),
              float(np.max(np.abs(seq.cov - joint.cov))),
              abs((ll_e + ll_n) - ll_j))
    report(2, "two-block vs stacked update", err <= 1e-9, f"max err {err:.2e}")


def test_criterion_03_hop_decomposition(report):
    rng = np.random.default_rng(3)
    max_err = 0.0
    for trial in range(100):
        n = int(rng.integers(3, 21))
        h = int(rng.integers(1, 9))
        t = int(rng.integers(0, 4))
        w = random_w(n, 300 + trial, avg_degree=min(6.0, n - 1))
        b1 = rng.uniform(-0.5, 0.5, t + h + 1)
        b2 = rng.uniform(-0.5, 0.5, t + h + 1)
        decomp = hop_coefficients(b1, b2, t, h)
        prod = np.eye(n)
        for kk in range(t + 1, t + h + 1):
            prod = spillover_matrix(b1[kk], b2[kk], w) @ prod
        powers = np.eye(n)
        total = np.zeros((n, n))
        for r in range(h + 1):
            total += decomp.coefficients[r] * powers
            powers = powers @ w.entries
        max_err = max(max_err, float(np.max(np.abs(total - prod))))
    oracle_err = 0.0
    for trial in range(30):
        h = int(rng.integers(1, 7))
        b1 = rng.uniform(-1, 1, h + 2)
        b2 = rng.uniform(-1, 1, h + 2)
        got = hop_coefficients(b1, b2, 0, h).coefficients
        want = hop_coeff_subset_sum(b1, b2, 0, h)
        oracle_err = max(oracle_err, float(np.max(np.abs(got - want))))
    ok = max_err <= 1e-10 and oracle_err <= 1e-10
    report(3, "hop decomposition exactness", ok,
           f"matrix err {max_err:.2e}, recursion err {oracle_err:.2e}")


def test_criterion_04_aggregation_identities(report):
    rng = np.random.default_rng(4)
    # (a) scalar recursion under the invariant vector, exact given
    # realized aggregated innovations.
    a = (rng.random((15, 15)) < 0.5) * 1.0
    np.fill_diagonal(a, 0.0)
    w = row_normalize(Adjacency(a))
    pi = invariant_vector(w)
    t_len = 60
    paths = np.tile([0.1, 0.3, 0.4], (t_len, 1))
    panel = gen_gaussian_panel(w, paths, 0.25, t_len, seed=40)
    ebar = np.zeros(t_len)
    for t in range(1, t_len):
        eps = panel[t] - (0.1 + 0.3 * (w.entries @ panel[t - 1])
                          + 0.4 * panel[t - 1])
        ebar[t] = float(pi.pi @ eps)
    ybar = aggregate_recursion(pi, paths, ybar0=float(pi.pi @ panel[0]),
                               realized_innovations=ebar)
    scalar_err = float(np.max(np.abs(ybar - panel @ pi.pi)))

    # (b) balanced partition: block-constant W gives exact meso reduction.
    coarse = rng.uniform(0.1, 1.0, (3, 3))
    np.fill_diagonal(coarse, 0.0)
    coarse = coarse / coarse.sum(axis=1, keepdims=True)
    wmat = WeightMatrix(np.kron(coarse, np.full((5, 5), 0.2)))
    part = Partition(np.repeat([1, 2, 3], 5))
    panel_b = gen_gaussian_panel(wmat, paths, 0.25, t_len, seed=41)
    red = meso_reduce(wmat, part, panel_b, paths)
    meso_err = float(np.max(np.abs(np.asarray(red["residuals"]))))

    # (c) perturbed (unbalanced) trials: remainder norms within bound.
    bound_ok = True
    for trial in range(20):
        wp = perturb(wmat, "mix_uniform", rng_seed=trial, alpha=0.3)
        panel_p = gen_gaussian_panel(wp, paths, 0.25, t_len, seed=100 + trial)
        red_p = meso_reduce(wp, part, panel_p, paths)
        norms = np.asarray(red_p["remainder_norms"])
        bounds = np.asarray(red_p["remainder_bounds"])
        if not np.all(norms <= bounds + 1e-12):
            bound_ok = False
    ok = scalar_err <= 1e-12 and meso_err <= 1e-10 and bound_ok
    report(4, "aggregation identities", ok,
           f"scalar {scalar_err:.2e}, meso {meso_err:.2e}, bounds {bound_ok}")


def plug_in(run, spec, w_hat):
    """One-step forecast mean under the approximate network w_hat."""
    return forecast_gaussian(run, spec, 1, future_w=[w_hat])[0].mean


def test_criterion_05_plug_in_sensitivity(report):
    rng = np.random.default_rng(5)
    sigma2 = 0.25
    rec = DesignRecipe()
    spec = GaussianSpec(recipe=rec,
                        state_noise=StateNoiseSpec.constant(1e-4 * np.eye(3)),
                        obs_noise=ObsNoise("scalar", sigma2))
    n, t_len = 20, 60
    paths = np.tile([0.1, 0.3, 0.4], (t_len, 1))
    violations, total = 0, 0
    for run_idx in range(20):
        w = random_w(n, 500 + run_idx, avg_degree=8.0)
        panel = gen_gaussian_panel(w, paths, sigma2, t_len,
                                   seed=600 + run_idx)
        run = fit_gaussian(panel, w, None, spec)
        base = plug_in(run, spec, w)
        b1 = float(run.beliefs_filtered[-1].mean[1])
        y_norm = float(np.linalg.norm(panel[-1]))
        for d in range(500):
            alpha = rng.uniform(0.02, 0.6)
            w_hat = perturb(w, "mix_uniform", rng_seed=run_idx * 1000 + d,
                            alpha=alpha)
            approx = plug_in(run, spec, w_hat)
            delta_w = float(np.linalg.norm(w_hat.entries - w.entries, 2))
            lhs = float(np.sum((approx - base) ** 2))
            rhs = b1 ** 2 * delta_w ** 2 * y_norm ** 2
            total += 1
            if lhs > rhs * (1 + 1e-10):
                violations += 1
    # Monotone discrepancy curve over a 10-point mixing grid.
    w = random_w(n, 999, avg_degree=8.0)
    panel = gen_gaussian_panel(w, paths, sigma2, t_len, seed=999)
    run = fit_gaussian(panel, w, None, spec)
    base = plug_in(run, spec, w)
    curve = []
    for alpha in np.linspace(0.05, 0.95, 10):
        approx = plug_in(
            run, spec, perturb(w, "mix_uniform", rng_seed=7, alpha=float(alpha)))
        curve.append(float(np.sum((approx - base) ** 2)))
    monotone = all(curve[i] < curve[i + 1] for i in range(9))
    ok = violations == 0 and total == 10_000 and monotone
    report(5, "plug-in sensitivity bound", ok,
           f"{total - violations}/{total} draws within bound, "
           f"monotone curve {monotone}")


def test_criterion_06_filter_rate(report):
    r_var = 0.25
    rec = DesignRecipe()
    spec = GaussianSpec(recipe=rec,
                        state_noise=StateNoiseSpec.constant(1e-6 * np.eye(3)),
                        obs_noise=ObsNoise("scalar", r_var))
    t_len = 40
    paths = np.tile([0.1, 0.3, 0.4], (t_len + 50, 1))
    final_traces = {}
    all_ok = True
    for n in (50, 200, 800):
        w = random_w(n, n)
        panel = gen_gaussian_panel(w, paths, r_var, t_len, seed=3, burn_in=50)
        run = fit_gaussian(panel, w, None, spec)
        kappas, traces = [], []
        for idx, t in enumerate(run.context["obs_times"]):
            x = build_design(w, [panel[t - 1]], None, rec)
            kappas.append(float(np.linalg.eigvalsh(
                x.T @ x / (n * r_var)).min()))
            traces.append(float(np.trace(run.beliefs_filtered[idx].cov)))
        bound = 3.0 / (n * min(kappas))
        if not all(tr <= bound for tr in traces):
            all_ok = False
        final_traces[n] = traces[-1]
    scaling = final_traces[800] <= 0.5 * final_traces[200]
    report(6, "filter rate trace(P) <= K/(N kappa)", all_ok and scaling,
           f"traces {final_traces[50]:.2e}/{final_traces[200]:.2e}/"
           f"{final_traces[800]:.2e}, 1/N scaling {scaling}")


def test_criterion_07_calibration_coverage(report):
    n, t_len, q0, r_var = 500, 20, 1e-4, 0.25
    w = random_w(n, 0)
    we = w.entries
    rec = DesignRecipe()
    spec = GaussianSpec(recipe=rec,
                        state_noise=StateNoiseSpec.constant(q0 * np.eye(3)),
                        obs_noise=ObsNoise("scalar", r_var))
    z90 = stats.norm.ppf(0.95)
    t0 = time.time()
    hits, total = 0, 0
    for seed in range(500):
        rng = np.random.default_rng(seed)
        theta = np.array([0.1, 0.3, 0.4])
        panel = np.empty((t_len, n))
        panel[0] = rng.standard_normal(n)
        thetas = []
        for t in range(1, t_len):
            theta = theta + math.sqrt(q0) * rng.standard_normal(3)
            thetas.append(theta.copy())
            x = np.column_stack([np.ones(n), we @ panel[t - 1], panel[t - 1]])
            panel[t] = x @ theta + math.sqrt(r_var) * rng.standard_normal(n)
        run = fit_gaussian(panel, w, None, spec)
        for idx in range(4, t_len - 1):
            b = run.beliefs_filtered[idx]
            sd = np.sqrt(np.diag(b.cov))
            hits += int(np.sum(np.abs(thetas[idx] - b.mean) <= z90 * sd))
            total += 3
    elapsed = time.time() - t0
    cov = hits / total
    ok = 0.87 <= cov <= 0.93 and elapsed < 120.0
    report(7, "90% interval calibration", ok,
           f"coverage {cov:.4f}, {elapsed:.0f}s")


def _sim_suite_seed(seed, sigma2=0.25, t_len=200, n=20):
    g = GraphGen(kind="latent_distance", n_nodes=n, seed=seed,
                 params={"dim": 2, "scale": 1.0})
    w, _ = gen_graph(g)
    cspec = CoeffPathSpec(k=3, init=np.array([0.1, 0.32, 0.32]),
                          rw_sd=np.array([0.0, 0.005, 0.005]),
                          sparse_jumps={"rate": 0.02, "low": 0.05,
                                        "high": 0.15, "indices": [1]})
    paths, _ = gen_coeff_paths(cspec, t_len, seed + 1000)
    panel = gen_gaussian_panel(w, paths, sigma2, t_len, seed + 2000)
    spec_full = GaussianSpec(
        recipe=DesignRecipe(),
        state_noise=StateNoiseSpec.constant(1e-4 * np.eye(3)),
        obs_noise=ObsNoise("scalar", sigma2))
    rec_nn = DesignRecipe(include_network_lags=False)
    spec_nn = GaussianSpec(
        recipe=rec_nn,
        state_noise=StateNoiseSpec.constant(1e-4 * np.eye(2)),
        obs_noise=ObsNoise("scalar", sigma2))
    plan = EvalPlan(origins=tuple(range(100, 190)), horizons=(1, 2, 4, 8),
                    t_len=t_len)

    def mk(spec):
        return (lambda p, wm: fit_gaussian(p, wm, None, spec),
                lambda sub, h_max: [f.mean for f in
                                    forecast_gaussian(sub, spec, h_max)])

    rf = rolling_eval(*mk(spec_full), panel, w, plan)
    rn = rolling_eval(*mk(spec_nn), panel, w, plan)
    return rf.aggregate("mse"), rn.aggregate("mse")


@pytest.mark.filterwarnings("ignore:unstable regime")
def test_criterion_08_simulation_suite(report):
    res = [_sim_suite_seed(s) for s in range(50)]
    horizons = (1, 2, 4, 8)
    deltas = {h: [mf[h] - mn[h] for mf, mn in res] for h in horizons}
    wins = sum(d < 0 for d in deltas[1])
    means = [float(np.mean(deltas[h])) for h in horizons]
    increasing = all(abs(means[i]) < abs(means[i + 1]) for i in range(3))
    negative = all(m < 0 for m in means)
    panel_a = float(np.mean([mf[1] for mf, _ in res]))
    panel_a_ok = abs(panel_a - 0.26) <= 0.2 * 0.26
    ok = wins >= 40 and increasing and negative and panel_a_ok
    report(8, "simulation-suite replication", ok,
           f"h=1 wins {wins}/50, mean deltas "
           f"{['%.4f' % m for m in means]}, panel A {panel_a:.3f}")


def test_criterion_09_break_detection(report):
    t_len = 400
    d = math.sqrt(math.log(t_len) / t_len)
    exact = 0
    for seed in range(200):
        cspec = CoeffPathSpec(k=3, init=np.array([0.1, 0.3, 0.4]),
                              rw_sd=np.zeros(3),
                              sparse_jumps={"rate": 0.02, "low": 0.5,
                                            "high": 0.8, "indices": [1]})
        paths, jumps = gen_coeff_paths(cspec, t_len, seed)
        found = detect_breaks(paths, np.full(3, d))
        expect = [tuple(sorted(t + 1 for t, j, _ in jumps if j == jj))
                  for jj in range(3)]
        if [tuple(a) for a in found.activations] == expect:
            exact += 1
    report(9, "break detection", exact >= 190,
           f"exact recovery {exact}/200, d_T {d:.4f}")


def test_criterion_10_poisson_stabilizer(report):
    rec = DesignRecipe()
    spec = PoissonSpec(recipe=rec,
                       state_noise=StateNoiseSpec.constant(1e-5 * np.eye(3)))
    stab = StabilizerConfig()
    raw = StabilizerConfig.disabled()
    g = GraphGen(kind="sbm", n_nodes=40, seed=0,
                 params={"block_sizes": [20, 20], "p_in": 0.3, "p_out": 0.1})
    w, _ = gen_graph(g)

    # Stable regime: stabilization is a no-op to within 1% at h <= 2
    # and stabilized intensities never explode.
    paths = np.tile([0.3, 0.1, 0.1], (150, 1))
    panel = gen_poisson_panel(w, paths, 150, seed=1)
    run = fit_poisson(panel, w, spec)
    ens_s = mc_forecast(run, spec, 8, 400, stab, 7)
    ens_r = mc_forecast(run, spec, 2, 2000, raw, 7)
    ens_s2 = mc_forecast(run, spec, 2, 2000, stab, 7)
    explosion_stab = max(float(np.mean(
        e.intensities.max(axis=1) > EXPLOSION_THRESHOLD)) for e in ens_s)
    max_rel = 0.0
    for h in (1, 2):
        ms = ens_s2[h - 1].intensities.mean(axis=0)
        mr = ens_r[h - 1].intensities.mean(axis=0)
        max_rel = max(max_rel, float(np.max(np.abs(ms - mr) / mr)))

    # Adversarial regime: coefficients scaled by c = 1.10 put the raw
    # count recursion on an explosive path visible by h = 8.
    cspec = CoeffPathSpec(k=3, init=np.array([0.5, 0.3, 0.2]),
                          rw_sd=np.zeros(3), stability_multiplier=1.10)
    paths_u, _ = gen_coeff_paths(cspec, 4, seed=2)
    panel_u = gen_poisson_panel(w, paths_u, 4, seed=2)
    run_u = fit_poisson(panel_u, w, spec)
    raw_explosion = float(np.mean(
        mc_forecast(run_u, spec, 8, 400, raw, 11)[7].intensities.max(axis=1)
        > EXPLOSION_THRESHOLD))
    stab_explosion_u = max(float(np.mean(
        e.intensities.max(axis=1) > EXPLOSION_THRESHOLD))
        for e in mc_forecast(run_u, spec, 8, 400, stab, 11))
    ok = (explosion_stab == 0.0 and max_rel < 0.01 and raw_explosion > 0.0
          and stab_explosion_u == 0.0)
    report(10, "Poisson stabilizer", ok,
           f"stab explosion {explosion_stab}, h<=2 rel diff {max_rel:.4f}, "
           f"c=1.10 raw explosion {raw_explosion:.2f}")


def test_criterion_11_pit_uniformity(report):
    rec = DesignRecipe()
    spec = PoissonSpec(recipe=rec,
                       state_noise=StateNoiseSpec.constant(1e-5 * np.eye(3)))
    stab = StabilizerConfig()
    crit = stats.chi2.ppf(0.99, df=9)
    passes = 0
    for seed in range(50):
        n, t_len, n_org = 30, 150, 20
        g = GraphGen(kind="sbm", n_nodes=n, seed=seed,
                     params={"block_sizes": [15, 15], "p_in": 0.4,
                             "p_out": 0.1})
        w, _ = gen_graph(g)
        paths = np.tile([0.3, 0.1, 0.1], (t_len, 1))
        panel = gen_poisson_panel(w, paths, t_len, seed + 77)
        run = fit_poisson(panel, w, spec)
        pits = []
        for t in range(t_len - 1 - n_org, t_len - 1):
            sub = truncate_run(run, t)
            ens = mc_forecast(sub, spec, 1, 300, stab, seed * 1000 + t)
            _, pit = coverage_and_pit(("ensemble", ens[0].intensities),
                                      panel[t + 1], rng_seed=seed * 1000 + t)
            pits.append(pit)
        pits = np.concatenate(pits)
        counts, _ = np.histogram(pits, bins=10, range=(0.0, 1.0))
        e = len(pits) / 10.0
        if float(np.sum((counts - e) ** 2 / e)) < crit:
            passes += 1
    report(11, "PIT uniformity", passes >= 45, f"chi2 pass {passes}/50")


def _plugin_ls_h1(run, recipe, panel, w, origins):
    obs = run.context["obs_times"]
    tot = []
    for t in origins:
        b = run.beliefs_filtered[obs.index(t)]
        x = build_design(w, [panel[t]], None, recipe)
        lam = np.clip(np.exp(np.clip(x @ b.mean, -20.0, 20.0)), 1e-8, None)
        tot.append(score("poisson_ls", lam, panel[t + 1]))
    return float(np.mean(tot))


def test_criterion_12_placebo_stress(report):
    rec = DesignRecipe()
    spec = PoissonSpec(recipe=rec,
                       state_noise=StateNoiseSpec.constant(1e-5 * np.eye(3)))
    rec_nn = DesignRecipe(include_network_lags=False)
    spec_nn = PoissonSpec(recipe=rec_nn,
                          state_noise=StateNoiseSpec.constant(1e-5 * np.eye(2)))
    adv_aligned, adv_permuted = [], []
    for seed in range(20):
        n, t_len = 60, 120
        g = GraphGen(kind="sbm", n_nodes=n, seed=seed,
                     params={"block_sizes": [30, 30], "p_in": 0.3,
                             "p_out": 0.05})
        w, _ = gen_graph(g)
        paths = np.tile([0.3, 0.15, 0.05], (t_len, 1))
        panel = gen_poisson_panel(w, paths, t_len, seed + 500)
        w_perm = perturb(w, "permute_labels", rng_seed=seed + 99)
        origins = range(90, 115)
        ls_al = _plugin_ls_h1(fit_poisson(panel, w, spec), rec, panel, w,
                              origins)
        ls_pm = _plugin_ls_h1(fit_poisson(panel, w_perm, spec), rec, panel,
                              w_perm, origins)
        ls_nn = _plugin_ls_h1(fit_poisson(panel, w, spec_nn), rec_nn, panel,
                              w, origins)
        adv_aligned.append(ls_al - ls_nn)
        adv_permuted.append(ls_pm - ls_nn)
    mean_al = float(np.mean(adv_aligned))
    mean_pm = float(np.mean(adv_permuted))
    reduction = 1.0 - mean_pm / mean_al
    ok = mean_al > 0 and reduction >= 0.8
    report(12, "placebo stress test", ok,
           f"aligned advantage {mean_al:.4f}, permuted {mean_pm:.4f}, "
           f"reduction {reduction:.2f}")


def test_criterion_13_cp_identities(report):
    rng = np.random.default_rng(13)
    max_rec, max_cond = 0.0, 0.0
    dims_ok = True
    for trial in range(20):
        rank = int(rng.integers(1, 5))
        n = int(rng.integers(2, 8))
        p = int(rng.integers(1, 4))
        f = CPFactors(mode1=rng.standard_normal((rank, n)),
                      mode2=rng.standard_normal((rank, n)),
                      mode3=rng.standard_normal((rank, p)))
        if f.state_dim != rank * (2 * n + p):
            dims_ok = False
        slices = cp_reconstruct(f)
        oracle = cp_dense_slices(f.mode1, f.mode2, f.mode3)
        max_rec = max(max_rec, float(np.max(np.abs(slices - oracle))))
        lags = np.stack([rng.standard_normal(n) for _ in range(p)])
        mean = cp_mean(f, lags)
        for mode in (1, 2, 3):
            h = conditional_design(f, mode, lags)
            block = {1: f.mode1, 2: f.mode2, 3: f.mode3}[mode].ravel()
            max_cond = max(max_cond,
                           float(np.max(np.abs(h @ block - mean))))
    ok = max_rec <= 1e-12 and max_cond <= 1e-12 and dims_ok
    report(13, "CP tensor identities", ok,
           f"reconstruction {max_rec:.2e}, conditional {max_cond:.2e}, "
           f"dims {dims_ok}")


def test_criterion_14_runtime_budget(report):
    n, t_len = 552, 72
    w = random_w(n, 0, avg_degree=8.0)
    paths = np.tile([0.3, 0.1, 0.1], (t_len, 1))
    panel = gen_poisson_panel(w, paths, t_len, seed=1)
    rec = DesignRecipe()
    spec = PoissonSpec(recipe=rec,
                       state_noise=StateNoiseSpec.constant(1e-4 * np.eye(3)))
    stab = StabilizerConfig()

    def fit_fn(p, wm):
        return fit_poisson(p, wm, spec)

    def forecast_fn(sub, h_max):
        ens = mc_forecast(sub, spec, h_max, 300, stab, 0)
        return [e.counts.mean(axis=0) for e in ens]

    plan = EvalPlan(origins=tuple(range(52, 64)), horizons=(1, 2, 4, 8),
                    t_len=t_len)
    t0 = time.time()
    rep = rolling_eval(fit_fn, forecast_fn, panel, w, plan)
    elapsed = time.time() - t0
    ok = elapsed <= 60.0 and not rep.failure_mask.any()
    report(14, "runtime budget (N=552 rolling eval)", ok,
           f"{elapsed:.1f}s, failures {int(rep.failure_mask.sum())}")

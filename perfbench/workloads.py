"""The four benchmark workloads.

Each workload makes its inputs from the seed with its own code, builds the
program-side objects, runs whole rounds of identical jobs, and checks the
program's outputs after the timed part. The program is called through its
module attributes (``gm.fit_gaussian``, not a name bound at import), so the
traced run can wrap those calls.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time

import numpy as np

import checks
import reference as ref


def random_adjacency(n, avg_degree, rng):
    """Directed Erdos-Renyi adjacency without self-loops; an empty row gets
    an edge to node 0 (node 1 for node 0 itself) so that W stays row
    stochastic."""
    a = (rng.random((n, n)) < avg_degree / n).astype(float)
    np.fill_diagonal(a, 0.0)
    empty = np.flatnonzero(a.sum(axis=1) == 0)
    a[empty, np.where(empty == 0, 1, 0)] = 1.0
    return a


class Workload:
    """Interface the runner drives; ``MODULES`` are the imports that
    ``setup_s`` times in a fresh interpreter."""

    MODULES: tuple = ()
    MIN_ROUNDS = 1

    def __init__(self, seed, root, traced=False):
        self.seed = seed
        self.root = root
        self.traced = traced
        # Child interpreters import nssm from this checkout's sources.
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failed = 0
        self.failures = []

    @staticmethod
    def raw_setup(seed):
        """Plain-numpy inputs that ``build`` turns into program objects."""
        return None

    @staticmethod
    def build(raw):
        """Program-side objects; timed as part of ``setup_s``."""
        return None

    def prepare(self):
        """Import the program and generate inputs; not timed. Subclasses
        call this first, so that no import lands in the first round and
        the traced run finds the modules it wraps."""
        for module in self.MODULES:
            importlib.import_module(module)

    def round(self, jobs):
        """One round of jobs; appends each successful job's seconds."""
        raise NotImplementedError

    def check(self):
        """Failure messages of the correctness checks (empty if correct)."""
        raise NotImplementedError

    def cpu_seconds(self):
        return time.process_time()

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self):
        pass

    def _job_failed(self, what, exc):
        self.failed += 1
        self.failures.append(f"{what}: {type(exc).__name__}: {exc}")


class GaussReplicates(Workload):
    """Criterion 07's calibration study: 500 independent fit_gaussian fits
    at N = 500, T = 20, K = 3 with scalar R, one job per fit."""

    MODULES = ("nssm.gaussmodel",)
    N, T, REPLICATES, Q0, R_VAR = 500, 20, 500, 1e-4, 0.25
    THETA0 = (0.1, 0.3, 0.4)

    @classmethod
    def raw_setup(cls, seed):
        return random_adjacency(cls.N, 10.0, np.random.default_rng([seed, 0]))

    @classmethod
    def build(cls, raw):
        from nssm.design import DesignRecipe
        from nssm.gaussmodel import GaussianSpec, ObsNoise
        from nssm.graph import Adjacency, row_normalize
        from nssm.lgss import StateNoiseSpec
        w = row_normalize(Adjacency(raw))
        spec = GaussianSpec(recipe=DesignRecipe(),
                            state_noise=StateNoiseSpec.constant(cls.Q0 * np.eye(3)),
                            obs_noise=ObsNoise("scalar", cls.R_VAR))
        return w, spec

    def prepare(self):
        super().prepare()
        a = self.raw_setup(self.seed)
        self.w, self.spec = self.build(a)
        self.we = a / a.sum(axis=1, keepdims=True)
        self.panels, self.thetas = [], []
        for rep in range(self.REPLICATES):
            rng = np.random.default_rng([self.seed, 1, rep])
            theta = np.array(self.THETA0)
            panel = np.empty((self.T, self.N))
            panel[0] = rng.standard_normal(self.N)
            thetas = np.empty((self.T - 1, 3))
            for t in range(1, self.T):
                theta = theta + math.sqrt(self.Q0) * rng.standard_normal(3)
                thetas[t - 1] = theta
                panel[t] = (ref.network_design(self.we, panel[t - 1]) @ theta
                            + math.sqrt(self.R_VAR) * rng.standard_normal(self.N))
            self.panels.append(panel)
            self.thetas.append(thetas)
        self.runs = []

    def round(self, jobs):
        from nssm import gaussmodel as gm
        runs = []
        for rep, panel in enumerate(self.panels):
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                run = gm.fit_gaussian(panel, self.w, None, self.spec)
            except Exception as exc:  # a failed fit is counted, not fatal
                self._job_failed(f"fit {rep}", exc)
                runs.append(None)
                continue
            jobs.append(time.perf_counter() - t0)
            runs.append(run)
        self.runs = runs

    def check(self):
        runs = [r for r in self.runs if r is not None]
        if len(runs) != self.REPLICATES:
            return [f"{self.REPLICATES - len(runs)} fits failed"]
        means = np.array([[b.mean for b in r.beliefs_filtered] for r in runs])
        sds = np.sqrt(np.array([[np.diag(b.cov) for b in r.beliefs_filtered]
                                for r in runs]))
        problems = checks.coverage_90(means, sds, np.array(self.thetas))
        rep = self.seed % self.REPLICATES
        got = runs[rep]
        want = ref.gaussian_gain_filter(self.panels[rep], self.we, np.zeros(3),
                                        10.0 * np.eye(3), self.Q0 * np.eye(3),
                                        self.R_VAR)
        problems += checks.filter_matches(f"replicate {rep}", {
            "means": (np.array([b.mean for b in got.beliefs_filtered]), want[0]),
            "covariances": (np.array([b.cov for b in got.beliefs_filtered]), want[1]),
            "log-likelihoods": (got.per_step_loglik, want[2])})
        return problems


class PoissonRolling(Workload):
    """Criterion 14's evaluation: fit_poisson at N = 552, T = 72, then
    rolling_eval over 12 origins, each an mc_forecast with S = 300, H = 8 and
    the stabilizer on; one job per origin."""

    MODULES = ("nssm.poissonmodel", "nssm.evalharness")
    N, T, S, H = 552, 72, 300, 8
    ORIGINS = tuple(range(52, 64))
    COEFFS = np.array([0.3, 0.1, 0.1])
    Q0 = 1e-4

    @classmethod
    def raw_setup(cls, seed):
        return random_adjacency(cls.N, 8.0, np.random.default_rng([seed, 0]))

    @classmethod
    def build(cls, raw):
        from nssm.design import DesignRecipe
        from nssm.evalharness import EvalPlan
        from nssm.graph import Adjacency, row_normalize
        from nssm.lgss import StateNoiseSpec
        from nssm.poissonmodel import PoissonSpec, StabilizerConfig
        w = row_normalize(Adjacency(raw))
        spec = PoissonSpec(recipe=DesignRecipe(),
                           state_noise=StateNoiseSpec.constant(cls.Q0 * np.eye(3)))
        plan = EvalPlan(origins=cls.ORIGINS, horizons=(1, 2, 4, 8), t_len=cls.T)
        return w, spec, StabilizerConfig(), plan

    def prepare(self):
        super().prepare()
        a = self.raw_setup(self.seed)
        self.w, self.spec, self.stab, self.plan = self.build(a)
        self.we = a / a.sum(axis=1, keepdims=True)
        rng = np.random.default_rng([self.seed, 1])
        panel = np.empty((self.T, self.N))
        panel[0] = rng.poisson(1.0, self.N)
        for t in range(1, self.T):
            eta = ref.network_design(self.we, panel[t - 1]) @ self.COEFFS
            panel[t] = rng.poisson(np.exp(eta))
        self.panel = panel
        self.kept_origin = self.ORIGINS[self.seed % len(self.ORIGINS)]
        self.kept = None
        self.ensemble_problems = []

    def round(self, jobs):
        from nssm import evalharness as eh
        from nssm import poissonmodel as pm
        self.ensemble_problems = []

        def fit_fn(panel, w):
            self.fit_run = pm.fit_poisson(panel, w, self.spec)
            return self.fit_run

        def forecast_fn(sub, h_max):
            t0 = time.perf_counter()
            ens = pm.mc_forecast(sub, self.spec, h_max, self.S, self.stab,
                                 self.seed)
            jobs.append(time.perf_counter() - t0)
            origin = sub.context["obs_times"][-1]
            self.ensemble_problems += checks.ensemble_bounds(
                f"origin {origin}", ens, self.S, self.stab.lambda_max)
            if origin == self.kept_origin:
                self.kept = (sub, ens)
            return [e.counts.mean(axis=0) for e in ens]

        self.report = eh.rolling_eval(fit_fn, forecast_fn, self.panel, self.w,
                                      self.plan)
        masked = self.report.failure_mask.any(axis=1)
        self.attempted += len(self.ORIGINS)
        self.failed += int(masked.sum())
        self.failures += [f"origin {t} masked"
                          for t, m in zip(self.ORIGINS, masked) if m]

    def check(self):
        from nssm import poissonmodel as pm
        problems = checks.nothing_masked(self.report.failure_mask)
        problems += self.ensemble_problems
        if self.kept is None:
            return problems + [f"origin {self.kept_origin} produced no ensemble"]
        sub, ens = self.kept
        belief = sub.beliefs_filtered[-1]
        x1 = ref.network_design(self.we, self.panel[self.kept_origin])
        closed = ref.lognormal_mean_intensity(x1, belief.mean, belief.cov,
                                              self.Q0 * np.eye(3), self.stab.phi)
        problems += checks.lognormal_h1(ens[0].intensities, closed, x1, self.S)
        again = pm.mc_forecast(sub, self.spec, self.H, self.S, self.stab, self.seed)
        problems += checks.same_draws(ens, again)
        got = self.fit_run
        want = ref.poisson_pseudo_filter(self.panel, self.we, np.zeros(3),
                                         10.0 * np.eye(3), self.Q0 * np.eye(3))
        problems += checks.filter_matches("fit_poisson", {
            "means": (np.array([b.mean for b in got.beliefs_filtered]), want[0]),
            "covariances": (np.array([b.cov for b in got.beliefs_filtered]), want[1])})
        return problems


class CPWideState(Workload):
    """cp_filter_alternating at N = 20, rank 2, p = 2 (state dimension
    84 > N, so every update takes the gain form) on a panel simulated from
    a known stable CP-VAR; one job per filter pass.

    The CP-VAR is the same for every seed (drawn once from seed
    MODEL_SEED); the seed draws the noise and the filter's initial
    loadings. On CP-VARs drawn afresh per seed, the filter's one-step
    forecast lost to the zero forecast on about 1 seed in 100 at T = 40.
    """

    MODULES = ("nssm.tensorcp",)
    N, RANK, P, T, BURN_IN = 20, 2, 2, 40, 50
    MODEL_SEED, SPECTRAL_RADIUS = 0, 0.95
    Q_SCALE, R_SCALE, N_SWEEPS = 1e-3, 1.0, 2

    @classmethod
    def true_model(cls, rng):
        """Unit-norm node loadings, lag profiles (1, 0.3) and (0.8, -0.2),
        and mode 1 scaled so that the companion matrix has spectral radius
        SPECTRAL_RADIUS. Returns the dense lag slices."""
        a = rng.standard_normal((cls.RANK, cls.N))
        b = rng.standard_normal((cls.RANK, cls.N))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        c = np.array([[1.0, 0.3], [0.8, -0.2]])

        def slices(scale):
            return [scale * np.einsum("r,ri,rj->ij", c[:, l], a, b)
                    for l in range(cls.P)]

        def radius(scale):
            comp = np.zeros((cls.N * cls.P, cls.N * cls.P))
            comp[:cls.N] = np.hstack(slices(scale))
            comp[cls.N:, :-cls.N] = np.eye(cls.N * (cls.P - 1))
            return np.max(np.abs(np.linalg.eigvals(comp)))

        lo, hi = 0.0, 1.0
        while radius(hi) < cls.SPECTRAL_RADIUS:
            hi *= 2.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if radius(mid) < cls.SPECTRAL_RADIUS else (lo, mid)
        return slices(lo)

    def prepare(self):
        super().prepare()
        b = self.true_model(np.random.default_rng(self.MODEL_SEED))
        rng = np.random.default_rng([self.seed, 1])
        y = np.zeros((self.T + self.BURN_IN, self.N))
        for t in range(self.P, y.shape[0]):
            y[t] = sum(b[l] @ y[t - 1 - l] for l in range(self.P)) \
                + math.sqrt(self.R_SCALE) * rng.standard_normal(self.N)
        self.panel = y[self.BURN_IN:]
        self.run = None

    def round(self, jobs):
        from nssm import tensorcp as tc
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            self.run = tc.cp_filter_alternating(
                self.panel, rank=self.RANK, p=self.P, q_scale=self.Q_SCALE,
                r_scale=self.R_SCALE, n_sweeps=self.N_SWEEPS,
                init_seed=self.seed)
        except Exception as exc:  # a failed pass is counted, not fatal
            self._job_failed("filter pass", exc)
            return
        jobs.append(time.perf_counter() - t0)

    def check(self):
        from nssm.evalharness import truncate_run
        from nssm.tensorcp import cp_one_step_mean
        if self.run is None:
            return ["no filter pass completed"]
        want_means, want_ll = ref.cp_alternating_filter(
            self.panel, self.RANK, self.P, self.Q_SCALE, self.R_SCALE,
            self.N_SWEEPS, self.seed)
        problems = checks.filter_matches("cp_filter_alternating", {
            "means": (np.array([b.mean for b in self.run.beliefs_filtered]),
                      want_means),
            "log-likelihoods": (self.run.per_step_loglik, want_ll)})
        origins = range(self.T // 2, self.T - 1)
        forecasts = np.array([cp_one_step_mean(truncate_run(self.run, t))
                              for t in origins])
        actual = self.panel[[t + 1 for t in origins]]
        problems += checks.beats_zero_forecast(forecasts, actual)
        return problems


class CLIChain(Workload):
    """simulate -> fit --dump-states -> forecast -> evaluate on a Gaussian
    SBM panel with N = 50, T = 200; each command runs in a fresh interpreter
    (in-process in the traced run); one job per command.

    ``diagnose`` is left out: on some seeds its power iteration in
    graph.operator_norm does not converge and the command exits 3, so its
    failures would depend on the seed.
    """

    MODULES = ("nssm.cli",)
    MIN_ROUNDS = 2  # the second round is the same-seed repeat
    SIM_CONFIG = {
        "model": "gaussian", "T": 200, "sigma2": 0.25,
        "graph": {"kind": "sbm", "n_nodes": 50,
                  "params": {"block_sizes": [25, 25], "p_in": 0.3, "p_out": 0.05}},
        "coeffs": {"init": [0.1, 0.3, 0.3], "rw_sd": [0.0, 0.005, 0.005]},
    }
    MODEL_CONFIG = {"model": "gaussian", "p": 1, "sigma2": 0.25, "q0": 1e-4,
                    "horizon": 8, "horizons": [1, 2, 4, 8], "n_origins": 40}

    @staticmethod
    def build(raw):
        from nssm.cli import build_parser
        return build_parser()

    def prepare(self):
        if self.traced:  # commands run in-process only when traced
            super().prepare()
        self.work = os.path.join(self.root, "perfbench", "out",
                                 f"cli-{self.seed}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        self.rounds = []
        self.exit_codes = []
        self.child_cpu = 0.0
        self.child_peak_kb = 0

    def commands(self):
        data = ["--panel", "sim/panel.csv", "--weight", "sim/weight.csv"]
        seed = ["--seed", str(self.seed)]
        model = ["--config", "model.json"]
        return [
            ("simulate", ["simulate", "--config", "sim.json", "--out", "sim"] + seed),
            ("fit", ["fit"] + model + data + ["--out", "fit", "--dump-states"] + seed),
            ("forecast", ["forecast"] + model + data + ["--out", "forecast"] + seed),
            ("evaluate", ["evaluate"] + model + data + ["--out", "evaluate"] + seed),
        ]

    def _run_child(self, argv, cwd, name):
        with open(os.path.join(cwd, f"{name}.stdout"), "wb") as out, \
                open(os.path.join(cwd, f"{name}.stderr"), "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "nssm.cli"] + argv,
                                    cwd=cwd, env=self.env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_cpu += usage.ru_utime + usage.ru_stime
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        return proc.returncode

    def _run_in_process(self, argv, cwd, name):
        from nssm import cli
        here = os.getcwd()
        with open(os.path.join(cwd, f"{name}.stdout"), "w") as out, \
                open(os.path.join(cwd, f"{name}.stderr"), "w") as err:
            os.chdir(cwd)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    return cli.main(argv)
            finally:
                os.chdir(here)

    def round(self, jobs):
        cwd = os.path.join(self.work, f"round{len(self.rounds)}")
        os.makedirs(cwd)
        for name, cfg in (("sim.json", self.SIM_CONFIG),
                          ("model.json", self.MODEL_CONFIG)):
            with open(os.path.join(cwd, name), "w") as fh:
                json.dump(cfg, fh)
        run = self._run_in_process if self.traced else self._run_child
        for name, argv in self.commands():
            self.attempted += 1
            t0 = time.perf_counter()
            code = run(argv, cwd, name)
            if code == 0:
                jobs.append(time.perf_counter() - t0)
            else:
                self.failed += 1
                self.failures.append(f"{name} exited {code}")
            self.exit_codes.append((name, code))
        self.rounds.append(cwd)

    def cpu_seconds(self):
        return time.process_time() if self.traced else self.child_cpu

    def peak_rss_mb(self):
        if self.traced:
            return super().peak_rss_mb()
        return self.child_peak_kb / 1024.0

    def check(self):
        problems = checks.exit_codes(self.exit_codes)
        first = self.rounds[0]
        problems += checks.manifest_hashes(first)
        problems += checks.weight_rows(os.path.join(first, "sim", "weight.csv"))
        problems += checks.tracks_paths(os.path.join(first, "fit", "filtered_means.csv"),
                                        os.path.join(first, "sim", "paths.csv"))
        problems += checks.evaluate_summary(os.path.join(first, "evaluate.stdout"),
                                            os.path.join(first, "evaluate"))
        for other in self.rounds[1:]:
            problems += checks.byte_identical(first, other)
        return problems

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {
    "gauss_replicates_n500": GaussReplicates,
    "poisson_rolling_n552": PoissonRolling,
    "cp_wide_state_n20": CPWideState,
    "cli_chain_n50": CLIChain,
}

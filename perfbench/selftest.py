"""Self-tests of the benchmark's correctness checks.

Run from the repository root: python3 perfbench/selftest.py

Each workload runs once on small inputs. Every check must accept the
program's real output and reject a slightly wrong copy of it: a filtered
mean moved by 1e-6, a covariance scaled by 1 + 1e-6, a coverage from
shifted intervals, an ensemble with a dropped or a capped draw, a corrupted
output CSV, a nonzero exit code. A check that passes a wrong result
measures nothing. Exits 1 if any check fails to do its job.
"""

from __future__ import annotations

import os
import shutil
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

RESULTS = []


def expect(description, problems, wrong=True):
    """Record whether a check rejected a wrong result (or accepted a right
    one)."""
    ok = bool(problems) == wrong
    RESULTS.append(ok)
    verdict = "rejected" if problems else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {description}: {verdict}"
          + (f" ({problems[0]})" if problems else ""))


def prepared(cls, seed=7):
    wl = cls(seed, ROOT)
    wl.prepare()
    wl.round([])
    return wl


class SmallGauss(workloads.GaussReplicates):
    N, REPLICATES = 100, 200


class SmallPoisson(workloads.PoissonRolling):
    N, S = 120, 200
    ORIGINS = (60, 62)


class SmallCP(workloads.CPWideState):
    N, T = 8, 30


def gauss():
    wl = prepared(SmallGauss)
    expect("gaussian: program output", wl.check(), wrong=False)
    b = wl.runs[wl.seed % wl.REPLICATES].beliefs_filtered[5]
    b.mean[1] += 1e-6
    expect("gaussian: filtered mean + 1e-6", wl.check())
    b.mean[1] -= 1e-6
    b.cov[...] *= 1.0 + 1e-6
    expect("gaussian: covariance * (1 + 1e-6)", wl.check())
    b.cov[...] /= 1.0 + 1e-6
    runs = wl.runs
    means = np.array([[b.mean for b in r.beliefs_filtered] for r in runs])
    sds = np.sqrt(np.array([[np.diag(b.cov) for b in r.beliefs_filtered]
                            for r in runs]))
    thetas = np.array(wl.thetas)
    expect("gaussian: coverage of the program's intervals",
           checks.coverage_90(means, sds, thetas), wrong=False)
    expect("gaussian: coverage of intervals shifted by half a sd",
           checks.coverage_90(means + 0.5 * sds, sds, thetas))


def poisson():
    from nssm import poissonmodel as pm
    wl = prepared(SmallPoisson)
    expect("poisson: program output", wl.check(), wrong=False)
    sub, ens = wl.kept
    lam = ens[0].intensities
    x1 = workloads.ref.network_design(wl.we, wl.panel[wl.kept_origin])
    b = sub.beliefs_filtered[-1]
    closed = workloads.ref.lognormal_mean_intensity(
        x1, b.mean, b.cov, wl.Q0 * np.eye(3), wl.stab.phi)
    expect("poisson: h=1 ensemble with a dropped draw",
           checks.lognormal_h1(lam[1:], closed, x1, wl.S))
    capped = lam.copy()
    capped[0] = np.minimum(capped[0], np.median(capped[0]))
    expect("poisson: h=1 ensemble with one draw capped at its median",
           checks.lognormal_h1(capped, closed, x1, wl.S))
    short = pm.ForecastEnsemble(horizon=2, intensities=ens[1].intensities[:-1],
                                counts=ens[1].counts[:-1],
                                stabilizer=wl.stab, seed=wl.seed)
    expect("poisson: h=2 ensemble with a dropped draw",
           checks.ensemble_bounds("origin", [short], wl.S, wl.stab.lambda_max))
    high = ens[1].intensities.copy()
    high[0, 0] = 2.0 * wl.stab.lambda_max
    over = pm.ForecastEnsemble(horizon=2, intensities=high, counts=ens[1].counts,
                               stabilizer=pm.StabilizerConfig.disabled(),
                               seed=wl.seed)
    expect("poisson: intensity above lambda_max",
           checks.ensemble_bounds("origin", [over], wl.S, wl.stab.lambda_max))
    other = pm.mc_forecast(sub, wl.spec, wl.H, wl.S, wl.stab, wl.seed + 1)
    expect("poisson: draws from another seed", checks.same_draws(ens, other))
    mask = wl.report.failure_mask.copy()
    mask[0, 0] = True
    expect("poisson: one masked cell", checks.nothing_masked(mask))
    wl.fit_run.beliefs_filtered[-1].mean[0] += 1e-6
    expect("poisson: fit_poisson filtered mean + 1e-6", wl.check())


def cp():
    wl = prepared(SmallCP)
    expect("cp: program output", wl.check(), wrong=False)
    wl.run.beliefs_filtered[3].mean[2] += 1e-6
    expect("cp: filtered mean + 1e-6", wl.check())
    wl.run.beliefs_filtered[3].mean[2] -= 1e-6
    wl.run.per_step_loglik[4] *= 1.0 + 1e-6
    expect("cp: per-step log-likelihood * (1 + 1e-6)", wl.check())
    actual = wl.panel[1:]
    expect("cp: the zero forecast itself",
           checks.beats_zero_forecast(np.zeros_like(actual), actual))


def _edit(path, old, new):
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace(old, new, 1))


def cli():
    wl = workloads.CLIChain(7, ROOT)
    wl.prepare()
    try:
        wl.round([])
        first = wl.rounds[0]
        repeat = first + "-repeat"
        shutil.copytree(first, repeat)
        wl.rounds.append(repeat)
        expect("cli: program output and an exact repeat", wl.check(), wrong=False)
        expect("cli: a command exiting 3", checks.exit_codes([("fit", 3)]))

        forecast = os.path.join(repeat, "forecast", "forecast_means.csv")
        with open(forecast, "a") as fh:
            fh.write("0.0\n")
        expect("cli: repeat whose forecast CSV gained a row",
               checks.byte_identical(first, repeat))

        weight = os.path.join(repeat, "sim", "weight.csv")
        with open(weight) as fh:
            value = fh.readline().split(",")[1]
        _edit(weight, value, repr(float(value) + 0.01))
        expect("cli: weight.csv with one entry + 0.01", checks.weight_rows(weight))
        expect("cli: manifests over a corrupted weight.csv",
               checks.manifest_hashes(repeat))

        means = os.path.join(repeat, "fit", "filtered_means.csv")
        with open(means) as fh:
            lines = fh.readlines()
        with open(means, "w") as fh:
            fh.write(lines[0])
            for line in lines[1:]:
                fh.write(",".join(repr(float(v) + 0.2)
                                  for v in line.split(",")) + "\n")
        expect("cli: filtered means shifted by 0.2",
               checks.tracks_paths(means, os.path.join(repeat, "sim", "paths.csv")))

        report = os.path.join(repeat, "evaluate", "report.csv")
        with open(report) as fh:
            row = fh.readlines()[1]
        bad = row.rsplit(",", 1)[0] + "," + repr(float(row.rsplit(",", 1)[1]) + 1e-3)
        _edit(report, row.rstrip("\n"), bad)
        expect("cli: report.csv with one error + 1e-3",
               checks.evaluate_summary(os.path.join(repeat, "evaluate.stdout"),
                                       os.path.join(repeat, "evaluate")))
    finally:
        wl.close()


def main():
    for part in (gauss, poisson, cp, cli):
        part()
    failed = RESULTS.count(False)
    print(f"{len(RESULTS) - failed} of {len(RESULTS)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

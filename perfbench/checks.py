"""Correctness checks on the program's outputs.

Every check returns a list of failure messages, empty when the output is
correct. Each compares against a computation made apart from the program
(``reference.py``) or against a property the method must have; none
compares against a stored copy of an earlier output. ``selftest.py`` shows
that each one rejects a slightly wrong result.
"""

from __future__ import annotations

import csv
import filecmp
import hashlib
import json
import math
import os

import numpy as np

# Agreement with a plain-numpy reference, relative to the largest entry.
# The program and the references agree to about 1e-12; a mean moved by
# 1e-6 or a covariance scaled by 1 + 1e-6 is well outside.
REFERENCE_RTOL = 1e-9
Z90 = 1.6448536269514722  # standard normal 0.95 quantile


def _max_rel(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return math.inf
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


def filter_matches(label, pairs):
    """For each name in ``pairs``, the program's array equals the
    reference's, (got, want), within REFERENCE_RTOL."""
    problems = []
    for name, (g, w) in pairs.items():
        err = _max_rel(g, w)
        if not err <= REFERENCE_RTOL:
            problems.append(f"{label}: {name} differ from the reference by "
                            f"{err:.3e} (relative)")
    return problems


def coverage_90(means, sds, thetas, first=4):
    """Pooled 90% interval coverage of the true coefficients over steps
    ``first`` .. T-2 of every replicate lies in [0.87, 0.93]."""
    sl = slice(first, means.shape[1] - 1)
    hits = np.abs(thetas[:, sl] - means[:, sl]) <= Z90 * sds[:, sl]
    cov = float(hits.mean())
    if not 0.87 <= cov <= 0.93:
        return [f"90% interval coverage {cov:.4f} outside [0.87, 0.93]"]
    return []


def nothing_masked(mask):
    n = int(np.sum(mask))
    return [f"{n} rolling-evaluation cells masked"] if n else []


def ensemble_bounds(label, ensembles, n_draws, lambda_max):
    """Every ensemble holds ``n_draws`` draws with finite intensities at or
    below ``lambda_max``."""
    problems = []
    for e in ensembles:
        lam = e.intensities
        if lam.shape[0] != n_draws or e.counts.shape[0] != n_draws:
            problems.append(f"{label} h={e.horizon}: {lam.shape[0]} draws, "
                            f"expected {n_draws}")
        if not np.all(np.isfinite(lam)) or np.max(lam) > lambda_max:
            problems.append(f"{label} h={e.horizon}: intensity not finite or "
                            f"above lambda_max")
    return problems


def lognormal_h1(intensities, closed, x1, n_draws, z_max=6.0):
    """The h = 1 ensemble against the lognormal closed form.

    Every draw's log-intensity must lie in the column space of the h = 1
    design (log lam_s = X theta_s), so a capped, dropped or foreign draw
    shows; and the ensemble mean intensity must agree with
    exp(x m + x'(phi^2 P + Q)x / 2) within ``z_max`` Monte-Carlo standard
    errors at every node.
    """
    problems = []
    if intensities.shape[0] != n_draws:
        problems.append(f"h=1 ensemble has {intensities.shape[0]} draws, "
                        f"expected {n_draws}")
    log_lam = np.log(intensities).T  # N x S
    q, _ = np.linalg.qr(x1)
    resid = log_lam - q @ (q.T @ log_lam)
    worst = float(np.max(np.abs(resid)))
    if not worst <= 1e-9 * max(1.0, float(np.max(np.abs(log_lam)))):
        problems.append(f"h=1 log-intensity leaves the design's column space "
                        f"by {worst:.3e}")
    mean = intensities.mean(axis=0)
    se = intensities.std(axis=0, ddof=1) / math.sqrt(intensities.shape[0])
    z = np.abs(mean - closed) / np.maximum(se, 1e-300)
    if not np.max(z) <= z_max:
        problems.append(f"h=1 mean intensity is {np.max(z):.1f} standard "
                        f"errors from the lognormal closed form")
    return problems


def same_draws(first, second):
    """Two forecasts with the same seed are identical, draw for draw."""
    if len(first) != len(second) or not all(
            np.array_equal(a.counts, b.counts)
            and np.array_equal(a.intensities, b.intensities)
            for a, b in zip(first, second)):
        return ["mc_forecast with the same seed gave different draws"]
    return []


def beats_zero_forecast(forecasts, actual):
    mse = float(np.mean((forecasts - actual) ** 2))
    zero = float(np.mean(actual ** 2))
    if not mse < zero:
        return [f"one-step forecast MSE {mse:.4f} does not beat the zero "
                f"forecast's {zero:.4f}"]
    return []


def exit_codes(codes):
    return [f"{name} exited {code}" for name, code in codes if code != 0]


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def manifest_hashes(round_dir):
    """Every manifest's input checksums equal hashlib's over those inputs
    (paths are relative to the directory the command ran in)."""
    problems = []
    for sub in sorted(os.listdir(round_dir)):
        path = os.path.join(round_dir, sub, "manifest.json")
        if not os.path.isfile(path):
            continue
        with open(path) as fh:
            inputs = json.load(fh)["inputs"]
        if not inputs:
            problems.append(f"{sub}/manifest.json lists no inputs")
        for name, digest in inputs.items():
            if _sha256(os.path.join(round_dir, name)) != digest:
                problems.append(f"{sub}/manifest.json: checksum of {name} "
                                f"does not match the file")
    return problems


def _read_csv(path, header):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(v) for v in row] for row in rows[int(header):]])


def weight_rows(path):
    w = _read_csv(path, header=False)
    err = float(np.max(np.abs(w.sum(axis=1) - 1.0)))
    if not err <= 1e-12:
        return [f"weight.csv rows sum to 1 only within {err:.3e}"]
    return []


# Over the second half of a T = 200 sample, the filtered coefficients of
# the N = 50 panel sit within 0.05 RMSE of the true paths at the median
# seed and within 0.10 at the worst of 40 seeds.
TRACK_RMSE = 0.15


def tracks_paths(means_path, paths_path):
    """Over the second half of the sample, the filtered coefficients track
    the simulated paths within TRACK_RMSE per coefficient. Filtered row i
    is time i + 1 (the first observation time of a lag-1 model)."""
    means = _read_csv(means_path, header=True)
    paths = _read_csv(paths_path, header=True)
    half = paths.shape[0] // 2
    err = means[half - 1:] - paths[half:]
    rmse = np.sqrt(np.mean(err ** 2, axis=0))
    if not np.all(rmse <= TRACK_RMSE):
        return [f"filtered coefficients miss the paths: RMSE "
                f"{np.round(rmse, 4).tolist()} over the second half"]
    return []


def evaluate_summary(stdout_path, eval_dir):
    """The MAE and MSE that ``evaluate`` prints (6 decimals) and records in
    its manifest equal the means recomputed from report.csv."""
    sums = {}
    with open(os.path.join(eval_dir, "report.csv"), newline="") as fh:
        for row in csv.DictReader(fh):
            key = (int(row["horizon"]), row["metric"])
            total, count = sums.get(key, (0.0, 0))
            sums[key] = (total + float(row["value"]), count + 1)
    recomputed = {"mae": {}, "mse": {}}
    for (h, metric), (total, count) in sums.items():
        recomputed["mae" if metric == "abs_err" else "mse"][h] = total / count
    with open(os.path.join(eval_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    with open(stdout_path) as fh:
        lines = fh.read().split("\n")
    printed = {}
    for line in lines[1:]:
        parts = line.split()
        if len(parts) == 3:
            printed[int(parts[0])] = (float(parts[1]), float(parts[2]))
    problems = []
    if not printed or set(printed) != set(recomputed["mae"]):
        return [f"evaluate printed horizons {sorted(printed)}, report.csv has "
                f"{sorted(recomputed['mae'])}"]
    for h, (mae, mse) in printed.items():
        for name, shown in (("mae", mae), ("mse", mse)):
            want = recomputed[name][h]
            if not abs(shown - want) <= 5e-7 + 1e-12:
                problems.append(f"printed {name.upper()} at h={h} is {shown}, "
                                f"report.csv gives {want:.8f}")
            stored = manifest[name][str(h)]
            if not abs(stored - want) <= 1e-12 * max(1.0, abs(want)):
                problems.append(f"manifest {name} at h={h} is {stored!r}, "
                                f"report.csv gives {want!r}")
    return problems


def byte_identical(first, second):
    """Two runs of the chain with the same seed wrote the same files."""
    problems = []
    for dirpath, _, files in os.walk(first):
        rel = os.path.relpath(dirpath, first)
        for name in files:
            other = os.path.join(second, rel, name)
            if not os.path.isfile(other) or not filecmp.cmp(
                    os.path.join(dirpath, name), other, shallow=False):
                problems.append(f"{os.path.join(rel, name)} differs between "
                                f"same-seed runs")
    for dirpath, _, files in os.walk(second):
        rel = os.path.relpath(dirpath, second)
        problems += [f"{os.path.join(rel, name)} only in the repeat"
                     for name in files
                     if not os.path.exists(os.path.join(first, rel, name))]
    return problems

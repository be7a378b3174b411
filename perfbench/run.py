"""nssm benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

A run makes its inputs from the seed, runs whole rounds of the workload's
jobs one after another (a closed loop with one caller) until ``--seconds``
have passed, checks the program's outputs, and prints as its last line one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` they are its per-layer metrics, from a run that wraps
each layer's public functions (see tracing.py). ``--workload all`` runs
every workload, each in its own child process, and prints every metric.

The benchmark sets no BLAS or OpenMP thread variable and pins no CPU: it
measures the program as a user runs it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 3


def setup_seconds(name, seed, modules, env):
    """Median over SETUP_PROBES fresh interpreters of the time from spawn
    to ready: imports plus building the program-side objects."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), name,
             str(seed), *modules],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True)
        probe = json.loads(proc.stdout.splitlines()[-1])
        samples.append(probe["ready"] - start - probe["inputs_s"])
    return statistics.median(samples)


def measure(wl, seconds, min_rounds):
    """Whole rounds until ``seconds`` have passed (at least ``min_rounds``);
    returns per-round wall and CPU seconds and every job's seconds."""
    walls, cpus, jobs = [], [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < min_rounds or time.perf_counter() < deadline:
        cpu0, t0 = wl.cpu_seconds(), time.perf_counter()
        wl.round(jobs)
        walls.append(time.perf_counter() - t0)
        cpus.append(wl.cpu_seconds() - cpu0)
    return walls, cpus, jobs


def tail_line(jobs):
    """Median job time and, from 40 jobs on, the highest whole percentile
    with at least ten jobs beyond it."""
    n = len(jobs)
    line = f"  jobs {n}, p50 {1e3 * statistics.median(jobs):.3f} ms"
    if n >= 40:
        import numpy as np
        pct = math.floor(100.0 * (n - 10) / n)
        value = float(np.percentile(jobs, pct))
        beyond = sum(j > value for j in jobs)
        line += f", p{pct} {1e3 * value:.3f} ms ({beyond} jobs beyond)"
    return line


def hardware_line():
    import networkx
    import numpy
    import scipy
    maps = "/proc/self/maps"  # the loaded BLAS libraries, on Linux
    blas = []
    if os.path.exists(maps):
        with open(maps) as fh:
            blas = sorted({os.path.basename(line.split()[-1]) for line in fh
                           if "openblas" in line.lower()})
    return (f"  cpus {os.cpu_count()}, numpy {numpy.__version__}, scipy "
            f"{scipy.__version__}, networkx {networkx.__version__}, "
            f"BLAS {', '.join(blas) or 'none found'}")


def per_layer_values(spec, workload, wl, seconds):
    """Untraced rounds, then traced rounds, for half the time each."""
    import tracing
    plain, _, _ = measure(wl, seconds / 2.0, 1)
    rec = tracing.Recorder()
    with tracing.traced(rec):
        walls, _, _ = measure(wl, seconds / 2.0, 1)
    rounds = len(walls)
    totals = rec.totals()
    imports = tracing.import_costs(wl.env, ROOT)
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"trace-{workload}-seed{wl.seed}.csv")
    rec.write(path)
    print(f"  {len(rec.spans)} spans over {rounds} traced rounds written to "
          f"{os.path.relpath(path, ROOT)}")
    values = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in imports:
            values[name] = imports[name]
        elif name == "trace.overhead_s":
            values[name] = statistics.median(walls) - statistics.median(plain)
        elif name.endswith(".calls"):
            values[name] = totals.get(name[:-len(".calls")], (0, 0.0))[0] / rounds
        elif name.endswith(".self_ms"):
            values[name] = 1e3 * totals.get(name[:-len(".self_ms")], (0, 0.0))[1] / rounds
        else:
            values[name] = rec.counts.get(name, 0) / rounds
    return values


def run_one(args, spec):
    import workloads
    cls = workloads.WORKLOADS[args.workload]
    traced = bool(args.trace)
    wl = cls(args.seed, ROOT, traced=traced)
    setup = None if traced else setup_seconds(args.workload, args.seed,
                                                 cls.MODULES, wl.env)
    try:
        wl.prepare()
        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
        if traced:
            values = per_layer_values(spec, args.workload, wl, args.seconds)
            metrics = spec["per_layer"]
        else:
            walls, cpus, jobs = measure(wl, args.seconds, cls.MIN_ROUNDS)
            values = {
                "wall_s": statistics.median(walls),
                "job_p50_ms": 1e3 * statistics.median(jobs),
                "cpu_s": statistics.median(cpus),
                "setup_s": setup,
                "peak_rss_mb": wl.peak_rss_mb(),
            }
            metrics = spec["end_to_end"]
            print(f"  {len(walls)} rounds, wall per round "
                  + " ".join(f"{w:.3f}" for w in walls) + " s")
            print(tail_line(jobs))
        print(hardware_line())
        problems = wl.check()
    finally:
        wl.close()
    for msg in wl.failures:
        print(f"  failed: {msg}", file=sys.stderr)
    for msg in problems:
        print(f"  INCORRECT: {msg}", file=sys.stderr)
    print(f"  attempted {wl.attempted}, failed {wl.failed}, "
          f"correct {not problems}")
    for m in metrics:
        print(f"  {m['name']:<44} {values[m['name']]:>14.6g} {m['unit']}")
    result = {
        "correct": not problems,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args, spec):
    """Every workload in its own child, one after another, so that one
    workload's memory high-water mark does not carry into the next."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        code = max(code, proc.returncode)
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            summary["metrics"][f"{w['name']}.{name}"] = m
    print(json.dumps(summary), flush=True)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nssm", "__init__.py")):
        print(f"perfbench: no nssm sources under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"--workload must be one of {names} or all")
    sys.path.insert(0, SRC)
    return run_all(args, spec) if args.workload == "all" else run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())

"""Spans and counts for the traced benchmark run.

The traced run replaces each layer's public function, at the name its
caller resolves (``nssm.gaussmodel.update``, ``nssm.cli.fit_gaussian``,
...), with a wrapper that records a span (name, start, end, parent) in
memory. Nothing under ``src/`` changes. A layer's self time is its span's
duration minus the time its child spans cover; the calls are nested and
single-threaded, so child spans never overlap.
"""

from __future__ import annotations

import functools
import re
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np


class Recorder:
    """Spans and counts kept in memory until the run ends."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def totals(self):
        """Per span name: (calls, self seconds)."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out = {}
        for (name, _, _, _), s in zip(self.spans, own):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + s)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")


def _update_label(b, obs):
    # lgss.update takes the collapsed form for a vector r with K < M.
    form = "collapsed" if obs.r.ndim == 1 and b.dim < obs.r.shape[0] else "gain"
    return f"lgss.update.{form}"


def _count_update(rec, name, args, kwargs, result):
    rec.add(name + ".rows", args[1].h.shape[0])


def _count_draws(rec, name, args, kwargs, result):
    rec.add(name + ".draw_horizons", args[2] * args[3])


def _count_cells(rec, name, args, kwargs, result):
    rec.add(name + ".cells", result.failure_mask.size)
    rec.add(name + ".cells_masked", int(result.failure_mask.sum()))


def _count_skipped(rec, name, args, kwargs, result):
    # cp_filter_alternating skips the update when the design is all zero.
    rec.add("tensorcp.updates_skipped", int(not np.any(result)))


# (module, names resolved there, span label or label function, counter)
LAYERS = [
    ("nssm.gaussmodel", ("update",), _update_label, _count_update),
    ("nssm.poissonmodel", ("update",), _update_label, _count_update),
    ("nssm.tensorcp", ("update",), _update_label, _count_update),
    ("nssm.gaussmodel", ("predict",), "lgss.predict", None),
    ("nssm.poissonmodel", ("predict",), "lgss.predict", None),
    ("nssm.tensorcp", ("predict",), "lgss.predict", None),
    ("nssm.gaussmodel", ("build_design",), "design.build_design", None),
    ("nssm.poissonmodel", ("build_design",), "design.build_design", None),
    ("nssm.gaussmodel", ("fit_gaussian",), "gaussmodel.fit_gaussian", None),
    ("nssm.cli", ("fit_gaussian",), "gaussmodel.fit_gaussian", None),
    ("nssm.cli", ("forecast_gaussian",), "gaussmodel.forecast_gaussian", None),
    ("nssm.poissonmodel", ("fit_poisson",), "poissonmodel.fit_poisson", None),
    ("nssm.cli", ("fit_poisson",), "poissonmodel.fit_poisson", None),
    ("nssm.poissonmodel", ("mc_forecast",), "poissonmodel.mc_forecast", _count_draws),
    ("nssm.cli", ("mc_forecast",), "poissonmodel.mc_forecast", _count_draws),
    ("nssm.evalharness", ("rolling_eval",), "evalharness.rolling_eval", _count_cells),
    ("nssm.cli", ("rolling_eval",), "evalharness.rolling_eval", _count_cells),
    ("nssm.evalharness", ("truncate_run",), "evalharness.truncate_run", None),
    ("nssm.tensorcp", ("cp_filter_alternating",), "tensorcp.cp_filter_alternating", None),
    ("nssm.tensorcp", ("conditional_design",), "tensorcp.conditional_design",
     _count_skipped),
    ("nssm.cli", ("gen_graph", "gen_coeff_paths", "gen_gaussian_panel",
                  "gen_poisson_panel"), "simulate", None),
    ("nssm.io", ("read_panel_csv", "read_weight_csv"), "io.read", None),
    ("nssm.io", ("write_matrix_csv", "write_panel_csv"), "io.write", None),
    ("nssm.io", ("write_manifest",), "io.write_manifest", None),
]


def _wrap(rec, fn, label, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = label(*args, **kwargs) if callable(label) else label
        result = rec.call(name, fn, args, kwargs)
        if counter is not None:
            counter(rec, name, args, kwargs, result)
        return result

    return wrapper


@contextmanager
def traced(rec):
    """Wrap every layer of the modules already imported; restore on exit."""
    saved = []
    for mod_name, names, label, counter in LAYERS:
        mod = sys.modules.get(mod_name)
        if mod is None:
            continue
        for attr in names:
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, _wrap(rec, fn, label, counter))
    try:
        yield rec
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


IMPORT_METRICS = {
    "cli.import_ms": "nssm.cli",
    "cli.import.scipy_stats_ms": "scipy.stats",
    "cli.import.scipy_linalg_ms": "scipy.linalg",
    "cli.import.networkx_ms": "networkx",
}

_IMPORTTIME = re.compile(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)$")


def _package_ms(stderr, package):
    """Cumulative ms of importing ``package`` from ``-X importtime`` output:
    the sum over its outermost entries (a module of the package whose
    importer is outside it). A lazily imported package such as scipy.stats
    has no line of its own, only lines for its submodules."""
    entries = []
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            entries.append((len(m.group(2)), m.group(3), int(m.group(1))))
    inside = [name == package or name.startswith(package + ".")
              for _, name, _ in entries]
    total = 0
    for i, (depth, _, cumulative) in enumerate(entries):
        if not inside[i]:
            continue
        # Children precede their importer, which is the next shallower line.
        parent = next((j for j in range(i + 1, len(entries))
                       if entries[j][0] < depth), None)
        if parent is None or not inside[parent]:
            total += cumulative
    return total / 1000.0


def import_costs(env, cwd, repeats=3):
    """Import cost in ms of each IMPORT_METRICS package when importing
    nssm.cli, from ``python -X importtime`` in fresh interpreters (median
    of ``repeats``)."""
    samples = {key: [] for key in IMPORT_METRICS}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import nssm.cli"], env=env, cwd=cwd,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        for key, package in IMPORT_METRICS.items():
            samples[key].append(_package_ms(proc.stderr, package))
    return {key: float(np.median(v)) for key, v in samples.items()}

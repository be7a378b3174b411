"""CSV and manifest plumbing shared by the command-line tools."""

from __future__ import annotations

import csv
import hashlib
import json
import platform
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .graph import WeightMatrix


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_matrix_csv(path, mat: np.ndarray, header: Optional[Sequence[str]] = None):
    mat = np.atleast_2d(np.asarray(mat))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        for row in mat:
            writer.writerow([repr(float(v)) for v in row])


def read_matrix_csv(path, has_header: bool = False) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if has_header:
        rows = rows[1:]
    for line, row in enumerate(rows[1:], start=2 + has_header):
        if len(row) != len(rows[0]):
            raise ValueError(f"matrix CSV {path} line {line} has {len(row)} "
                             f"fields, its first row {len(rows[0])}")
    return np.asarray([[float(v) for v in row] for row in rows])


def write_panel_csv(path, panel: np.ndarray):
    """Wide panel format: header ``time,node_0,...``, one row per time."""
    panel = np.asarray(panel)
    header = ["time"] + [f"node_{i}" for i in range(panel.shape[1])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, row in enumerate(panel):
            writer.writerow([t] + [repr(float(v)) for v in row])


def read_panel_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:1] != ["time"]:
        raise ValueError("panel CSV must start with a 'time,node_*' header")
    if len(rows[0]) < 2:
        raise ValueError("panel CSV header names no node column")
    if len(rows) < 2:
        raise ValueError("panel CSV has a header but no time row")
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise ValueError(f"panel CSV line {line} has {len(row)} fields, "
                             f"its header {len(rows[0])}")
    body = sorted(rows[1:], key=lambda r: int(r[0]))
    if [int(r[0]) for r in body] != list(range(len(body))):
        raise ValueError("panel CSV times must be 0, 1, ..., T - 1, "
                         "each exactly once")
    return np.asarray([[float(v) for v in row[1:]] for row in body])


def read_weight_csv(path) -> WeightMatrix:
    return WeightMatrix(read_matrix_csv(path))


def write_manifest(out_dir, config: dict, seed: int, inputs: Sequence = (),
                   extra: Optional[dict] = None):
    """Record the run config, seed, versions, and input checksums."""
    # Imported here, so that importing nssm loads no scipy. The top-level
    # package alone gives the version; it loads neither scipy.linalg nor
    # scipy's BLAS, and it costs less than importlib.metadata.
    import scipy

    manifest = {
        "config": config,
        "seed": seed,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "nssm": __version__,
        },
        "inputs": {str(p): sha256_file(p) for p in inputs},
    }
    if extra:
        manifest.update(extra)
    path = Path(out_dir) / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)
    return path

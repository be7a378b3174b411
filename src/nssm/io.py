"""CSV and manifest plumbing shared by the command-line tools."""

from __future__ import annotations

import csv
import hashlib
import json
import platform
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

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
    if not rows or rows[0][0] != "time":
        raise ValueError("panel CSV must start with a 'time,node_*' header")
    body = sorted(rows[1:], key=lambda r: int(r[0]))
    return np.asarray([[float(v) for v in row[1:]] for row in body])


def read_weight_csv(path) -> WeightMatrix:
    return WeightMatrix(read_matrix_csv(path))


def write_manifest(out_dir, config: dict, seed: int, inputs: Sequence = (),
                   extra: Optional[dict] = None):
    """Record the run config, seed, versions, and input checksums."""
    manifest = {
        "config": config,
        "seed": seed,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "inputs": {str(p): sha256_file(p) for p in inputs},
    }
    if extra:
        manifest.update(extra)
    path = Path(out_dir) / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)
    return path

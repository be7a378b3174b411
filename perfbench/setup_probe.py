"""One fresh interpreter's set-up: import the workload's modules, then
build its program-side objects.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <module>...

Prints one JSON line: ``ready``, the CLOCK_MONOTONIC reading when the
objects are built (the caller subtracts its reading at spawn), and
``inputs_s``, the time spent generating the plain-numpy inputs in between,
which does not count as set-up.
"""

import importlib
import json
import os
import sys
import time


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    name, seed, modules = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    for module in modules:
        importlib.import_module(module)
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    from workloads import WORKLOADS
    cls = WORKLOADS[name]
    raw = cls.raw_setup(seed)
    inputs_s = time.clock_gettime(time.CLOCK_MONOTONIC) - t0
    cls.build(raw)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    print(json.dumps({"ready": ready, "inputs_s": inputs_s}))


if __name__ == "__main__":
    main()

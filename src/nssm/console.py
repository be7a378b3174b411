"""The ``nssm`` console script. It loads no numpy of its own, so that the
CLI process picks its BLAS thread pool before numpy starts one."""

import os


def one_blas_thread():
    """Run this process's OpenBLAS on one thread, unless the user set
    ``OPENBLAS_NUM_THREADS``. A CLI command is mostly start-up, and a
    second pool thread spins through it; the count is read when numpy
    loads, so this must run before ``import numpy``. Only the CLI's entry
    points call it: importing nssm sets nothing."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def main():
    one_blas_thread()
    from .cli import main as cli_main
    return cli_main()

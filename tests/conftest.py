"""Test-session setup: BLAS runs single-threaded, as the benchmark runs it.

pytest imports this file before any test module imports numpy, so the
thread variables take effect; a value already set in the environment
wins, and subprocesses the tests start inherit them.
"""
import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

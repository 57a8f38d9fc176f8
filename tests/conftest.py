"""Test-wide process set-up, loaded before any test module imports numpy.

The CLI sets ``OPENBLAS_NUM_THREADS=1`` before numpy loads (see
``fso_qkd.cli``), so the process that forks session workers runs one
thread. The suite forks real pools too, and gets the same runtime here; a
count exported by the caller wins, as it does for the CLI.
"""
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

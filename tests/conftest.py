"""Test-wide process set-up, loaded before any test module imports numpy.

The CLI sets ``OPENBLAS_NUM_THREADS=1`` before numpy loads (see
``fso_qkd.cli``), so the process that forks session workers runs one
thread. The suite forks real pools too, and gets the same runtime here; a
count exported by the caller wins, as it does for the CLI. No test may leave
a child process behind, running or unreaped.
"""
import os

import pytest

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

"""The CLI's native runtime: one BLAS thread unless the user exports a count,
a heap kept across blocks, and neither the Monte Carlo nor numpy imported where
a command runs no Monte Carlo. Import-time checks run in fresh interpreters,
because this test process has loaded numpy and the Monte Carlo already."""
import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fso_qkd import cli

SRC = str(Path(cli.__file__).resolve().parents[1])
TINY_SWEEP = ["sweep-el", "--set", "sweep.el_db=[0.0]", "--set",
              "sweep.symbols_per_point=1000000"]


def run_python(code: str, **env) -> str:
    """Standard output of ``python -c code`` with ``src`` on the path and
    ``OPENBLAS_NUM_THREADS`` unset unless given in ``env``."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    path = os.pathsep.join(p for p in (SRC, base.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**base, "PYTHONPATH": path, **env})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_package_root_loads_no_numpy():
    assert run_python("import sys, fso_qkd; print('numpy' in sys.modules)") == "False"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_cli_import_starts_no_blas_threads(tmp_path):
    """Importing the CLI loads no numpy, so count once a sweep has loaded it."""
    threads = run_python(
        "import sys\nfrom fso_qkd import cli\n"
        f"assert cli.main({TINY_SWEEP + ['--out', str(tmp_path)]!r}) == 0\n"
        "assert 'numpy' in sys.modules\n"
        "print(next(line.split()[1] for line in open('/proc/self/status')\n"
        "           if line.startswith('Threads:')))")
    assert threads.splitlines()[-1] == "1"


MONTE_CARLO = ("fso_qkd.protocol", "fso_qkd.linkmodel", "fso_qkd.polarization",
               "fso_qkd.seeding", "statistics")


def modules_loaded(code: str, modules: tuple[str, ...] = MONTE_CARLO) -> set[str]:
    """The ``modules`` that a fresh interpreter holds after ``code``."""
    out = run_python(f"import sys\n{code}\n"
                     f"print('loaded:', *(m for m in {modules!r} if m in sys.modules))")
    return set(out.rsplit("loaded:", 1)[1].split())


def main_exits(rc: int, *argv: str) -> str:
    return f"from fso_qkd import cli\nassert cli.main({list(argv)!r}) == {rc}"


def config_path(case: str, out: str) -> str:
    """Code that resolves a config, plans the spectrum, or is refused with exit 2."""
    return {
        "resolve": "import fso_qkd.cli\nfrom fso_qkd.scenario import resolve_config\n"
                   "resolve_config({'channel.fiber_kind': 'OM4', 'session.blocks': 2})",
        "plan-spectrum": main_exits(0, "plan-spectrum", "--out", out),
        "refused": main_exits(2, "sweep-el", "--set", "source.mu_q=null", "--out", out),
    }[case]


@pytest.mark.parametrize("case", ["resolve", "plan-spectrum", "refused"])
def test_config_path_loads_no_monte_carlo(tmp_path, case):
    assert modules_loaded(config_path(case, str(tmp_path / "out"))) == set()


@pytest.mark.parametrize("case", ["resolve", "plan-spectrum", "refused"])
def test_config_path_loads_no_numpy(tmp_path, case):
    """The spectrum integral is pure Python, so only the Monte Carlo needs numpy."""
    assert modules_loaded(config_path(case, str(tmp_path / "out")), ("numpy",)) == set()


@pytest.mark.parametrize("argv, loaded", [
    (TINY_SWEEP, {"fso_qkd.protocol", "fso_qkd.linkmodel"}),
    (["coexist", "--set", "session.blocks=2", "--set", "session.symbols_per_block=1000000"],
     {"statistics"}),
])
def test_monte_carlo_commands_load_it(tmp_path, argv, loaded):
    assert modules_loaded(main_exits(0, *argv, "--out", str(tmp_path))) >= loaded


def test_user_blas_thread_count_kept():
    code = "import os, fso_qkd.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_python(code, OPENBLAS_NUM_THREADS="2") == "2"


class FakeLibc:
    """A C library whose ``mallopt`` records its calls and returns ``ok``."""

    def __init__(self, ok: int):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return ok

        self.mallopt = mallopt


def use_libc(monkeypatch, libc):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)


def test_keep_heap_without_mallopt_is_a_no_op(monkeypatch):
    use_libc(monkeypatch, object())  # e.g. macOS: the C library has no mallopt
    cli._keep_heap()

    def no_handle(name):
        raise OSError("no C library")

    monkeypatch.setattr(ctypes, "CDLL", no_handle)
    cli._keep_heap()


def test_keep_heap_sets_trim_only_after_mmap(monkeypatch):
    refused = FakeLibc(ok=0)
    use_libc(monkeypatch, refused)
    cli._keep_heap()
    assert refused.calls == [(cli.M_MMAP_THRESHOLD, 100_000_000)]

    accepted = FakeLibc(ok=1)
    use_libc(monkeypatch, accepted)
    cli._keep_heap()
    assert accepted.calls == [(cli.M_MMAP_THRESHOLD, 100_000_000),
                              (cli.M_TRIM_THRESHOLD, 200_000_000)]


def test_main_keeps_heap(monkeypatch, tmp_path):
    libc = FakeLibc(ok=1)
    use_libc(monkeypatch, libc)
    assert cli.main(["plan-spectrum", "--out", str(tmp_path)]) == 0
    assert len(libc.calls) == 2

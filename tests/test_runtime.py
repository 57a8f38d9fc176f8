"""The CLI's native runtime: one BLAS thread unless the user exports a count,
a heap kept across blocks, neither the Monte Carlo nor numpy imported where
a command runs no Monte Carlo, and a process exit that skips the interpreter's
teardown. Import-time and exit checks run in fresh interpreters, because this
test process has loaded numpy and the Monte Carlo already."""
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


def fresh_python(*args: str, unset: tuple[str, ...] = (), env: dict[str, str] | None = None):
    """``subprocess.run`` or ``Popen`` arguments that start ``python *args`` in
    a fresh interpreter: this process's environment without ``unset`` and with
    ``env``, the imported package's parent (``src``, or ``site-packages`` for
    an install) first on its path."""
    environ = {k: v for k, v in os.environ.items() if k not in unset}
    environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, environ.get("PYTHONPATH")) if p)
    return {"args": [sys.executable, *args], "env": {**environ, **(env or {})}}


def run_python(code: str, *options: str, **env) -> str:
    """Standard output of ``python *options -c code`` with ``OPENBLAS_NUM_THREADS``
    unset unless given in ``env``."""
    proc = subprocess.run(**fresh_python(*options, "-c", code, unset=("OPENBLAS_NUM_THREADS",),
                                         env=env), capture_output=True, text=True, timeout=60)
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


def modules_loaded(code: str, modules: tuple[str, ...] = MONTE_CARLO,
                   *options: str) -> set[str]:
    """The ``modules`` that a fresh interpreter, started with ``options``,
    holds after ``code``."""
    out = run_python(f"import sys\n{code}\n"
                     f"print('loaded:', *(m for m in {modules!r} if m in sys.modules))",
                     *options)
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


# What argparse loads once a parser has an argument. On Python 3.14 its help
# formatter imports ``_colorize``, whose themes are dataclasses, so a command
# loads ``dataclasses`` through the standard library whatever this package does.
ARGPARSE = "import argparse\nargparse.ArgumentParser().add_argument('--x')"


@pytest.mark.parametrize("case", ["resolve", "plan-spectrum", "refused"])
def test_config_path_loads_no_numpy(tmp_path, case):
    """The spectrum integral is pure Python, so only the Monte Carlo needs numpy.
    The records generate no code, and only a block needs the heap kept, so
    neither ``dataclasses`` nor ``ctypes`` loads either: strictly where no
    parser is built (``resolve``), beyond what argparse loads where ``main`` runs."""
    got = modules_loaded(config_path(case, str(tmp_path / "out")),
                         ("numpy", "dataclasses", "ctypes"))
    if case != "resolve":
        got -= modules_loaded(ARGPARSE, ("dataclasses",))
    assert got == set()


def test_config_path_loads_no_resource_reader(tmp_path):
    """``spectrum`` finds its packaged table beside its own file, so resolving
    a config and planning the spectrum load neither ``importlib.resources``
    nor the ``zipfile`` and ``tempfile`` that it imports. Run without ``site``
    (``-S``), which may import it already (for ``certifi``, say)."""
    code = ("from fso_qkd.scenario import resolve_config\nresolve_config({})\n"
            + main_exits(0, "plan-spectrum", "--out", str(tmp_path / "plan")))
    assert modules_loaded(code, ("importlib.resources", "zipfile", "tempfile"), "-S") == set()
    assert (tmp_path / "plan" / "channel_ranking.json").is_file()


@pytest.mark.parametrize("argv, loaded", [
    (TINY_SWEEP, {"fso_qkd.protocol", "fso_qkd.linkmodel"}),
    (["coexist", "--set", "session.blocks=2", "--set", "session.symbols_per_block=1000000"],
     {"statistics"}),
])
def test_monte_carlo_commands_load_it(tmp_path, argv, loaded):
    """And no ``dataclasses`` beyond what numpy (2.4 loads none) and argparse
    load: the records are built without it."""
    got = modules_loaded(main_exits(0, *argv, "--out", str(tmp_path)),
                         MONTE_CARLO + ("dataclasses",))
    assert got >= loaded
    baseline = modules_loaded(f"import numpy.random\n{ARGPARSE}", ("dataclasses",))
    assert "dataclasses" not in got - baseline


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
    """Only a command that runs blocks sets the heap up; planning does not."""
    libc = FakeLibc(ok=1)
    use_libc(monkeypatch, libc)
    assert cli.main(["plan-spectrum", "--out", str(tmp_path / "plan")]) == 0
    assert libc.calls == []
    assert cli.main(TINY_SWEEP + ["--out", str(tmp_path / "sweep")]) == 0
    assert len(libc.calls) == 2


# Runs the CLI as ``__main__``, as ``-m`` does, on one of the usable cores.
ONE_CORE = ("import os, runpy\n"
            "os.sched_setaffinity(0, [min(os.sched_getaffinity(0))])\n"
            "runpy.run_module('fso_qkd.cli', run_name='__main__', alter_sys=True)")


def cli_process(args: list[str], cwd: Path, env: dict[str, str] | None = None,
                one_core=False, **kwargs) -> subprocess.CompletedProcess:
    """``python -m fso_qkd.cli args`` in a fresh interpreter, with ``env``
    added to its environment, whose piped stdout is block-buffered, so output
    that ``run`` does not flush is lost. With ``one_core`` the child sets its
    own affinity to one core first."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    entry = ["-c", ONE_CORE] if one_core else ["-m", "fso_qkd.cli"]
    return subprocess.run(**fresh_python(*entry, *args, unset=("PYTHONUNBUFFERED",), env=env),
                          cwd=cwd, stderr=subprocess.PIPE, timeout=120, **kwargs)


def read_files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("args, rc", [
    (["sweep-el", "--set", "sweep.el_db=[0.0]", "--out", "out"], 0),
    (["sweep-el", "--set", "source.mu_q=-1", "--out", "out"], 2),
    (["sweep-el", "--set", "sweep.el_db=[0.0]", "--out", "a-file/out"], 3),
], ids=["exit-0", "exit-2", "exit-3"])
def test_entry_point_writes_what_main_writes(tmp_path, monkeypatch, capfdbinary, args, rc):
    """Through ``python -m fso_qkd.cli``, each exit leaves the same stdout,
    stderr, exit code and files as ``main`` in this process."""
    for name in ("process", "in-process"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "a-file").write_bytes(b"")
    monkeypatch.chdir(tmp_path / "in-process")
    assert cli.main(args) == rc
    expected = tuple(capfdbinary.readouterr())
    proc = cli_process(args, tmp_path / "process")
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, *expected)
    assert bool(proc.stdout) == (rc == 0)
    assert read_files(tmp_path / "process") == read_files(tmp_path / "in-process")


def test_user_blas_thread_count_changes_no_byte(tmp_path):
    """A session under a BLAS thread count the user exports, and one on a
    single core, write the bytes of one under the CLI's own single thread:
    four OM4 blocks expect about 3.4e6 detector events, over
    ``PARALLEL_MIN_EVENTS``, so the first two use every usable core and the
    one-core run, where the platform sets affinities, runs in one process.
    A numpy nan or overflow warning fails a run, as it fails tier-1."""
    args = ["stability", "--set", "channel.fiber_kind=OM4", "--set", "session.blocks=4",
            "--out", "out"]
    legs = {"1-thread": ("1", False), "2-threads": ("2", False)}
    if hasattr(os, "sched_setaffinity"):
        legs["one-core"] = ("1", True)
    runs = []
    for name, (threads, one_core) in legs.items():
        (tmp_path / name).mkdir()
        env = {"OPENBLAS_NUM_THREADS": threads, "PYTHONWARNINGS": "error::RuntimeWarning"}
        proc = cli_process(args, tmp_path / name, env, one_core)
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, proc.stderr, read_files(tmp_path / name)))
    assert runs == runs[:1] * len(runs)


def peak_kib(cwd: Path, *args: str) -> int:
    """Peak resident set, in KiB, of ``python *args`` alone: ``os.wait4`` on
    its own pid, since this process's ``RUSAGE_CHILDREN`` holds the largest
    child it has reaped (say a four-block OM4 session of another test). A
    numpy nan or overflow warning fails it, as it fails tier-1."""
    env = {"PYTHONWARNINGS": "error::RuntimeWarning"}
    with open(cwd / "stderr", "w+b") as err:
        proc = subprocess.Popen(**fresh_python(*args, env=env), cwd=cwd,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        assert proc.returncode == 0, err.read().decode()
    return usage.ru_maxrss


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_serial_om4_session_peak_memory(tmp_path):
    """Two OM4 blocks expect about 1.7e6 detector events, under
    ``PARALLEL_MIN_EVENTS``, so the session runs in one process. Its peak
    resident set over that of a process that only imports the CLI and the
    Monte Carlo (the CLI itself imports that only for a session or a sweep)
    and resolves the same config is the blocks' own arrays, under 24 MiB
    (24,576 KiB): about 14,600 KiB when the package is compiled from source
    at start-up, and 18,300-18,600 KiB with bytecode compiled beforehand, as
    pip installs it (the baseline reads about 1,200 KiB lower, the session
    2,500 KiB higher). From source it read 17,300 KiB with a copy of the
    clicks beside the photons' slot indices, and about 31,000 KiB when the
    sampler, the decide loop and the merge also held whole-run temporaries."""
    base = peak_kib(tmp_path, "-c", "import fso_qkd.cli, fso_qkd.protocol\n"
                    "from fso_qkd.scenario import resolve_config\n"
                    "resolve_config({'channel.fiber_kind': 'OM4', 'session.blocks': 2})")
    run = peak_kib(tmp_path, "-m", "fso_qkd.cli", "stability", "--set", "channel.fiber_kind=OM4",
                   "--set", "session.blocks=2", "--out", "stability-2")
    assert run - base < 24 * 1024, (base, run)


@pytest.mark.parametrize("args, rc", [(["--help"], 0), (["sweep-el", "--nope"], 2)],
                         ids=["help", "unknown-flag"])
def test_argparse_exits_keep_their_text(tmp_path, monkeypatch, capfdbinary, args, rc):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help at the terminal width
    with pytest.raises(SystemExit) as exited:
        cli.main(args)
    assert exited.value.code == rc
    expected = tuple(capfdbinary.readouterr())
    proc = cli_process(args, tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, *expected)


def test_closed_stdout_pipe_exits_as_before(tmp_path):
    """A failed flush falls back to the interpreter's exit, which reports the
    unwritable stdout and exits 120, as it did before ``run`` existed and as
    any Python program's exit does."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = cli_process(["plan-spectrum", "--out", "plan"], tmp_path, stdout=write_end)
        plain = subprocess.run(**fresh_python("-c", "print('x')", unset=("PYTHONUNBUFFERED",)),
                               stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (120, plain.stderr)
    assert proc.stderr.startswith(b"Exception ignored")
    assert proc.stderr.endswith(b"BrokenPipeError: [Errno 32] Broken pipe\n")
    assert (tmp_path / "plan" / "channel_ranking.json").exists()


@pytest.mark.parametrize("args, rc, teardown", [
    (["plan-spectrum", "--out", "plan"], 0, False),
    (["sweep-el", "--set", "source.mu_q=-1"], 2, False),
    (["--help"], 0, True),
], ids=["exit-0", "exit-2", "help"])
def test_main_block_skips_teardown_on_return(tmp_path, args, rc, teardown):
    """Run as ``__main__``, the module leaves by ``os._exit`` when ``main``
    returns, so an ``atexit`` callback does not run; argparse's exit keeps it."""
    code = ("import atexit, runpy, sys\n"
            "atexit.register(print, 'teardown', file=sys.stderr)\n"
            f"sys.argv = ['fso-qkd', *{args!r}]\n"
            "runpy.run_module('fso_qkd.cli', run_name='__main__', alter_sys=True)")
    proc = subprocess.run(**fresh_python("-c", code), cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == rc
    assert proc.stderr.endswith("teardown\n") is teardown


def test_console_script_is_run():
    """The installed ``fso-qkd`` goes through ``run``. Read as text: Python
    3.10 has no tomllib. The file is the checkout's, found from this test, so
    the check holds wherever ``fso_qkd`` is imported from."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    section = pyproject.read_text(encoding="utf-8").split("[project.scripts]")[1]
    scripts = section.split("\n[")[0].strip().splitlines()
    assert scripts == ['fso-qkd = "fso_qkd.cli:run"']

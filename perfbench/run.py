"""End-to-end benchmark of the fso-qkd command line, with checked outputs.

Run from anywhere; paths are taken relative to this file's repository:

    python3 perfbench/run.py --workload coexist-mmf25 --seed 7 --seconds 20 --trace 0

With ``--trace 0`` each pass runs the workload's CLI commands one after
another as fresh ``python -m fso_qkd.cli`` processes with ``src`` on the
path (a closed loop with one client), and passes repeat until ``--seconds``
have gone by. It reports wall_s, cpu_s and peak_rss_mb as medians over the
passes and setup_s as the median over fresh interpreters, two before each
pass, that import ``fso_qkd.cli`` and resolve the workload's config.

With ``--trace 1`` a first traced pass, which runs each command in-process
under ``perfbench/tracer.py --check`` and is not timed, checks every
dead-time filter call; then untraced passes alternate with timed traced
passes. The per-layer metrics are medians over the timed traced passes, and
their spans are written to ``.perfbench_out/trace-<workload>-s<seed>.json``.

Every command's outputs are checked against the closed-form oracle and the
paper anchors (``oracle.py``), and against the first pass (same seed, same
bytes). A command that exits non-zero or fails a check is a failed
operation. The last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Each workload is a list of CLI commands run in order; the seed and the
# output directory are appended to each.
WORKLOADS = {
    "startup-figures": [["plan-spectrum"], ["sweep-el"]],
    "coexist-mmf25": [["coexist"]],
    "stability-om4": [["stability", "--set", "channel.fiber_kind=OM4"]],
    "sweep-deep-w2": [["sweep-el", "--workers", "2",
                       "--set", "sweep.symbols_per_point=2000000000"]],
}
# Once per run, outside the timed passes: the same sweep on one worker must
# write the same bytes.
ONE_WORKER = ["sweep-el", "--workers", "1", "--set", "sweep.symbols_per_point=2000000000"]

SETUP_PROBES_PER_PASS = 2
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
# Start no new pass once this much of the run has gone by, so that a run
# ends well inside three minutes even if the program slows down badly.
PASS_BUDGET_S = 120.0
PROCESS_TIMEOUT_S = 150.0

SETUP_CODE = (
    "import json, sys\n"
    "import fso_qkd.cli\n"
    "from fso_qkd.scenario import resolve_config\n"
    "resolve_config(json.loads(sys.argv[1]))\n"
)


class SetupError(RuntimeError):
    """The program cannot be started at all; no result is printed."""


@dataclass
class Proc:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], stderr_path: Path) -> Proc:
    """Run one process to its end; wall from spawn to exit, CPU and peak RSS
    from wait4, which include the process's reaped children."""
    with open(stderr_path, "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, err.read())


def cli_argv(command: list[str], seed: int, out: Path) -> list[str]:
    return [*command, "--seed", str(seed), "--out", str(out)]


def setup_overrides(command: list[str], seed: int) -> dict:
    """The config overrides the CLI resolves for ``command`` (as its --set does)."""
    overrides = {}
    for flag, value in zip(command, command[1:]):
        if flag == "--set":
            key, raw = value.split("=", 1)
            try:
                overrides[key] = json.loads(raw)
            except json.JSONDecodeError:
                overrides[key] = raw
    overrides["rng_seed"] = seed
    if command[0] == "coexist":
        overrides["classical.enabled"] = True
    return overrides


def read_tree(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:5])


def check_command(workload: str, index: int, pass_dir: Path) -> list[str]:
    out = pass_dir / str(index)
    command = WORKLOADS[workload][index][0]
    try:
        if command == "plan-spectrum":
            return oracle.check_ranking(out, pass_dir / str(index + 1))
        if command == "sweep-el":
            return oracle.check_sweep(out)
        if command == "stability":
            return oracle.check_stability(out)
        return oracle.check_coexist(out)
    except (OSError, KeyError, ValueError, TypeError, IndexError, ArithmeticError) as exc:
        return [f"outputs unreadable: {exc!r}"]


class Runner:
    """One benchmark run: a workload, a seed and a working directory."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.tally = Tally()
        self.reference: list[dict[str, bytes]] | None = None
        self.passes = 0

    def _finish_pass(self, pass_dir: Path, rcs: list[int], label: str) -> None:
        """Check every command of a finished pass and record its operations."""
        trees = [read_tree(pass_dir / str(i)) for i in range(len(rcs))]
        for i, rc in enumerate(rcs):
            problems = [f"exit code {rc}"] if rc else check_command(self.workload, i, pass_dir)
            if self.reference is not None and trees[i] != self.reference[i]:
                problems.append("outputs differ from the first pass with the same seed")
            self.tally.record(f"{label} {' '.join(WORKLOADS[self.workload][i])}", problems)
        if self.reference is None and not any(rcs):
            self.reference = trees

    def setup_probe(self) -> float:
        """Wall time of a fresh interpreter that imports the CLI and resolves
        the workload's config, from spawn to exit."""
        overrides = setup_overrides(WORKLOADS[self.workload][-1], self.seed)
        proc = spawn([sys.executable, "-c", SETUP_CODE, json.dumps(overrides)],
                     self.work / "setup.err")
        if proc.rc != 0:
            raise SetupError("fso_qkd.cli cannot be imported and configured:\n"
                             + proc.stderr[-2000:])
        return proc.wall_s

    def untraced_pass(self) -> dict:
        pass_dir = self.work / f"pass{self.passes}"
        self.passes += 1
        wall = cpu = rss = 0.0
        rcs = []
        for i, command in enumerate(WORKLOADS[self.workload]):
            argv = [sys.executable, "-m", "fso_qkd.cli", *cli_argv(command, self.seed,
                                                                  pass_dir / str(i))]
            proc = spawn(argv, self.work / "cli.err")
            wall += proc.wall_s
            cpu += proc.cpu_s
            rss = max(rss, proc.rss_mb)
            rcs.append(proc.rc)
        self._finish_pass(pass_dir, rcs, "pass")
        shutil.rmtree(pass_dir, ignore_errors=True)
        return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}

    def traced_pass(self, check: bool) -> dict:
        """Each command in-process under the tracer; returns its raw trace.
        With ``check`` the tracer also checks every dead-time filter call,
        inside the traced spans, so the pass's times are not the program's."""
        pass_dir = self.work / f"pass{self.passes}"
        self.passes += 1
        wall = 0.0
        rcs, traces, imports = [], [], []
        for i, command in enumerate(WORKLOADS[self.workload]):
            spans_path = self.work / f"spans{i}.json"
            spans_path.unlink(missing_ok=True)
            argv = [sys.executable, "-X", "importtime", str(ROOT / "perfbench" / "tracer.py"),
                    "--spans", str(spans_path), *(["--check"] if check else []), "--",
                    *cli_argv(command, self.seed, pass_dir / str(i))]
            proc = spawn(argv, self.work / "trace.err")
            rcs.append(proc.rc)
            imports.append(import_times(proc.stderr))
            try:
                trace = json.loads(spans_path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                trace = {"spans": [], "checks": [{"check": "tracer wrote spans", "ok": False}]}
            traces.append(trace)
            wall += proc.wall_s
        self._finish_pass(pass_dir, rcs, "checked traced pass" if check else "traced pass")
        # Checks made inside the traced process, and sifted bits seen at the
        # sift boundary against the bits the outputs report.
        for i, trace in enumerate(traces):
            problems = sorted({c["check"] for c in trace["checks"] if not c["ok"]})
            sifted = sum(s["counts"]["kept"] for s in trace["spans"]
                         if s["name"] == "protocol.sift")
            reported = oracle.kept_bits(pass_dir / str(i)) if not rcs[i] else sifted
            if sifted != reported:
                problems.append(f"sift kept {sifted} bits, outputs report {reported}")
            self.tally.record(f"traced checks {' '.join(WORKLOADS[self.workload][i])}",
                              problems)
        shutil.rmtree(pass_dir, ignore_errors=True)
        return {"wall_s": wall, "traces": traces, "imports": imports}


# --- per-layer metrics -------------------------------------------------------

def import_times(stderr: str) -> dict:
    """Cumulative import seconds from ``-X importtime``: fso_qkd, scipy and
    fso_qkd.calibration, each counted at its outermost entry."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        try:
            micros = int(cumulative)
        except ValueError:
            continue  # the header line
        body = name[1:]
        depth = (len(body) - len(body.lstrip(" "))) // 2
        entries.append((depth, body.strip(), micros / 1e6))

    def outermost(match) -> float:
        # importtime prints children before their parent; walk backwards so
        # each entry sees its ancestors on the stack.
        total, stack = 0.0, []
        for depth, name, seconds in reversed(entries):
            del stack[depth:]
            if match(name) and not any(match(a) for a in stack):
                total += seconds
            stack.append(name)
        return total

    return {
        "import.fso_qkd_s": outermost(lambda n: n == "fso_qkd" or n.startswith("fso_qkd.")),
        "import.scipy_s": outermost(lambda n: n == "scipy" or n.startswith("scipy.")),
        "import.calibration_s": outermost(lambda n: n == "fso_qkd.calibration"),
    }


def layer_metrics(traced: dict) -> dict:
    spans = [s for t in traced["traces"] for s in t["spans"]]

    def busy(name: str) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def count(name: str, key: str) -> int:
        return sum(s["counts"][key] for s in spans if s["name"] == name)

    child_time: dict[str, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    clicks = [s for s in spans if s["name"] == "linkmodel.simulate_clicks"]
    arrivals = count("linkmodel.dead_time_filter", "arrivals")
    survivors = count("linkmodel.dead_time_filter", "survivors")
    dead_time_s = busy("linkmodel.dead_time_filter")
    metrics = {name: sum(i[name] for i in traced["imports"])
               for name in ("import.fso_qkd_s", "import.scipy_s", "import.calibration_s")}
    metrics.update({
        "scenario.resolve_config_s": busy("scenario.resolve_config"),
        "spectrum.integrate_background_s": busy("spectrum.integrate_background"),
        "cli.cmd_s": sum(busy(f"cli.{c}") for c in
                         ("cmd_sweep_el", "cmd_stability", "cmd_coexist", "cmd_plan_spectrum")),
        "cli.sweep_points": count("cli.cmd_sweep_el", "points"),
        "linkmodel.expected_rates_s": busy("linkmodel.expected_rates"),
        "linkmodel.simulate_clicks_self_s": sum(
            s["end"] - s["start"] - child_time.get(s["id"], 0.0) for s in clicks),
        "linkmodel.simulate_clicks_calls": len(clicks),
        "linkmodel.dead_time_filter_s": dead_time_s,
        "linkmodel.dead_time_arrivals": arrivals,
        "linkmodel.dead_time_ns_per_event": dead_time_s / arrivals * 1e9 if arrivals else 0.0,
        "linkmodel.dead_time_survival": survivors / arrivals if arrivals else 0.0,
        "polarization.rotate_many_s": busy("polarization.rotate_many"),
        "polarization.rotate_many_states": count("polarization.rotate_many", "states"),
        "seeding.hash_stream_s": busy("seeding.hash_stream"),
        "seeding.hash_stream_words": count("seeding.hash_stream", "words"),
        "seeding.hash_stream_calls": sum(1 for s in spans if s["name"] == "seeding.hash_stream"),
        "protocol.sift_s": busy("protocol.sift"),
        "protocol.sift_kept": count("protocol.sift", "kept"),
        "protocol.run_session_s": busy("protocol.run_session"),
        "protocol.blocks": count("protocol.run_session", "blocks"),
    })
    return metrics


STAGE_COUNTS = ("cli.sweep_points", "linkmodel.simulate_clicks_calls",
                "linkmodel.dead_time_arrivals", "linkmodel.dead_time_survival",
                "polarization.rotate_many_states", "seeding.hash_stream_words",
                "seeding.hash_stream_calls", "protocol.sift_kept", "protocol.blocks")


# --- runs --------------------------------------------------------------------

def over_time(start: float, seconds: float, done: int, least: int, last_s: float) -> bool:
    elapsed = time.perf_counter() - start
    if elapsed + last_s > PASS_BUDGET_S and done >= 1:
        return True
    return done >= least and elapsed >= seconds


def run_untraced(runner: Runner, seconds: float) -> dict:
    # Set-up probes are spread over the run, two before each pass, so that a
    # burst of load on the host does not catch all of them at once.
    setup, samples = [], []
    start = time.perf_counter()
    while not over_time(start, seconds, len(samples), MIN_PASSES,
                        samples[-1]["wall_s"] if samples else 0.0):
        setup.extend(runner.setup_probe() for _ in range(SETUP_PROBES_PER_PASS))
        samples.append(runner.untraced_pass())
    if runner.workload == "sweep-deep-w2":
        check_worker_invariance(runner)
    metrics = {name: statistics.median(s[name] for s in samples)
               for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setup)
    raw = {name: [s[name] for s in samples] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    return {"metrics": metrics, "passes": len(samples), "samples": {**raw, "setup_s": setup}}


def check_worker_invariance(runner: Runner) -> None:
    """The sweep with one worker must write the same bytes as with two."""
    out = runner.work / "workers1"
    proc = spawn([sys.executable, "-m", "fso_qkd.cli", *cli_argv(ONE_WORKER, runner.seed, out)],
                 runner.work / "cli.err")
    problems = [f"exit code {proc.rc}"] if proc.rc else []
    if not proc.rc and runner.reference is not None and read_tree(out) != runner.reference[0]:
        problems.append("--workers 1 outputs differ from --workers 2")
    runner.tally.record(" ".join(ONE_WORKER), problems)
    shutil.rmtree(out, ignore_errors=True)


def run_traced(runner: Runner, seconds: float) -> dict:
    runner.setup_probe()  # fails fast, printing no result, if the CLI cannot start
    checked = layer_metrics(runner.traced_pass(check=True))
    first = {k: checked[k] for k in STAGE_COUNTS}
    plain, traced = [], []
    start = time.perf_counter()
    while not over_time(start, seconds, len(traced), MIN_TRACED_PASSES,
                        plain[-1]["wall_s"] + traced[-1]["wall_s"] if traced else 0.0):
        plain.append(runner.untraced_pass())
        traced.append(runner.traced_pass(check=False))
    per_pass = [layer_metrics(t) for t in traced]
    for k, other in enumerate(per_pass, start=1):
        differ = [n for n in STAGE_COUNTS if other[n] != first[n]]
        runner.tally.record(f"stage counts of traced pass {k}",
                            [f"stage counts differ from the checked pass: {differ}"]
                            if differ else [])
    # Counts repeat exactly (checked above); timings are medians.
    metrics = {name: first[name] if name in STAGE_COUNTS
               else statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                                   - statistics.median(p["wall_s"] for p in plain))
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{runner.workload}-s{runner.seed}.json"
    trace_path.write_text(json.dumps({
        "workload": runner.workload, "seed": runner.seed, "metrics": metrics,
        "stage_counts": first,
        "passes": [{"wall_s": t["wall_s"],
                    "spans": [s for tr in t["traces"] for s in tr["spans"]]}
                   for t in traced],
    }), encoding="utf-8")
    return {"metrics": metrics, "passes": len(traced),
            "samples": {"traced wall_s": [t["wall_s"] for t in traced],
                        "untraced wall_s": [p["wall_s"] for p in plain]}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fso-qkd CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fso_qkd" / "cli.py").is_file():
        print(f"no fso_qkd sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = OUT / f"run-{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, work)
    try:
        result = (run_traced if args.trace else run_untraced)(runner, args.seconds)
    except SetupError as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tally = runner.tally
    for name, values in result["samples"].items():
        print(f"samples {name}: " + " ".join(f"{v:.4f}" for v in values), file=sys.stderr)
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    metrics = {name: {"value": value, "unit": UNITS[name]}
               for name, value in result["metrics"].items()}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} passes = {result['passes']}, attempted = {tally.attempted}, "
          f"failed = {tally.failed}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

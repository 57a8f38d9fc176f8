"""Run one fso-qkd CLI command in-process with spans at every layer boundary.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python -X importtime perfbench/tracer.py --spans OUT.json [--check] -- sweep-el --seed 1

The program is not modified. After ``fso_qkd.cli`` is imported, every public
function of the traced modules is replaced, in every ``fso_qkd`` module that
holds a reference to it, by a wrapper that records a span (id, parent, name,
start, end) and, for a few functions, counts taken at the boundary. Spans
stay in memory and are written to ``--spans`` when the command ends.

Sweep workers forked by ``--workers N`` inherit the wrappers; each worker
appends its spans to a side file whenever it leaves its outermost traced
call, and the parent merges those files at the end.

With ``--check``, each traced ``dead_time_filter`` call is also compared
with a plain-Python greedy reference of the non-paralyzable rule. The
comparison runs inside the spans that enclose the call, so a checked run's
times are not the program's; time with a run without ``--check``.
"""
from __future__ import annotations

import argparse
import functools
import glob
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("cli", "scenario", "spectrum", "calibration", "coexistence",
          "linkmodel", "polarization", "seeding", "protocol")


def greedy_survivors(times: list[float], dead_time: float) -> list[int]:
    """Reference non-paralyzable filter: keep an event iff it starts >= tau
    after the previous kept event."""
    kept = []
    ready = float("-inf")
    for i, t in enumerate(times):
        if t >= ready:
            kept.append(i)
            ready = t + dead_time
    return kept


def _dead_time_counts(tracer, args, kwargs, result):
    times = args[0] if args else kwargs["times"]
    if tracer.check:
        dead_time = args[1] if len(args) > 1 else kwargs["dead_time"]
        ok = greedy_survivors(times.tolist(), dead_time) == result.tolist()
        tracer.checks.append({"check": "dead_time_filter matches greedy reference", "ok": ok})
    return {"arrivals": len(times), "survivors": len(result)}


# Counts recorded at specific boundaries: name -> f(tracer, args, kwargs, result).
COUNTERS = {
    "linkmodel.dead_time_filter": _dead_time_counts,
    "polarization.rotate_many": lambda tr, a, k, r: {"states": len(r)},
    "seeding.hash_stream": lambda tr, a, k, r: {"words": int(r.size)},
    "protocol.sift": lambda tr, a, k, r: {"kept": int(r.kept)},
    "protocol.run_session": lambda tr, a, k, r: {"blocks": len(r)},
    "cli.cmd_sweep_el": lambda tr, a, k, r: {
        "points": len((a[0] if a else k["config"]).sweep_el_db)},
}


class Tracer:
    """In-memory span recorder shared by every wrapper of one process tree."""

    def __init__(self, worker_prefix: str, check: bool):
        self.worker_prefix = worker_prefix
        self.check = check
        self.root_pid = self.pid = os.getpid()
        self.base_depth = 0
        self.stack: list[str] = []
        self.spans: list[dict] = []
        self.checks: list[dict] = []
        self._next_id = 0

    def _own_process(self) -> None:
        # A forked worker starts with the parent's buffers; drop them and
        # remember the inherited depth so its own roots can be flushed.
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.base_depth = len(self.stack)
            self.spans, self.checks = [], []

    def wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._own_process()
            span_id = f"{tracer.pid}:{tracer._next_id}"
            tracer._next_id += 1
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
            span = {"id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "pid": tracer.pid}
            if counter is not None:
                span["counts"] = counter(tracer, args, kwargs, result)
            tracer.spans.append(span)
            if tracer.pid != tracer.root_pid and len(tracer.stack) == tracer.base_depth:
                tracer._flush_worker()
            return result

        return traced

    def _flush_worker(self) -> None:
        record = {"spans": self.spans, "checks": self.checks}
        with open(f"{self.worker_prefix}{self.pid}.json", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        self.spans, self.checks = [], []

    def install(self) -> None:
        """Swap every public function of the traced layers for its wrapper."""
        wrappers = {}  # id of original -> wrapper; the wrapper keeps the original alive
        for layer in LAYERS:
            module = importlib.import_module(f"fso_qkd.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "fso_qkd" or mod_name.startswith("fso_qkd."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in wrappers:
                        setattr(module, attr, wrappers[id(obj)])

    def collect_workers(self) -> None:
        for path in sorted(glob.glob(f"{self.worker_prefix}*.json")):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    record = json.loads(line)
                    self.spans.extend(record["spans"])
                    self.checks.extend(record["checks"])
            os.remove(path)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans", required=True, help="where to write the spans JSON")
    parser.add_argument("--check", action="store_true",
                        help="compare every dead_time_filter call with the greedy reference")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="fso-qkd arguments, after --")
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import fso_qkd.cli as cli

    tracer = Tracer(worker_prefix=args.spans + ".worker-", check=args.check)
    tracer.install()
    rc = cli.main(cli_args)
    tracer.collect_workers()
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"checks": tracer.checks, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())

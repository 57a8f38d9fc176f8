"""Two-party BB84 session logic: symbol generation, sifting, block statistics,
and the runs that the CLI maps over workers.

Alice and Bob exchange exactly two messages per block: Bob announces the
(symbol index, analyzer basis) of his gated clicks, Alice answers with the
subset whose bases match, and the block keeps only the counts of kept bits and
of errors.

Alice's random symbols are a counter-based stream: symbol i is a pure
function of (seed, i), so gigasymbol sequences are addressable without
being materialized, and the Monte Carlo and the sifting dialogue read the
same values at the same indices.

Each sweep point and session block is a ``Run`` that ``run_block`` turns
into its counts, one ``BlockStats``, which works out the raw-key rate, QBER
and flag from them. This module owns the runs' seeds, saturation, cost and
worker count, and forks the workers itself: each child runs its share of the
runs and pickles its results back once over a pipe.
"""
from __future__ import annotations

import math
import os
import pickle
import sys
from typing import NoReturn

import numpy as np

from .coexistence import crosstalk_background
from .errors import ValidationError
from .linkmodel import (
    ClickStream,
    MAX_EXPECTED_EVENTS,
    check_time_axis,
    detector_load,
    expected_events,
    random_unit_vector,
    simulate_clicks,
)
from .linkparams import BackgroundBudget, ChannelParams
from .polarization import PORT_READS, port_columns
from .record import ERROR_PROBABILITY, POSITIVE, Record, check
from .scenario import ScenarioConfig
from .seeding import mix64, rng_from, two_bit_codes

# Seed tags (Alice, schedule, clicks) of a session block and of a sweep
# point, and the tag of a session's drift axis.
_SESSION_TAGS, _SWEEP_TAGS, _TAG_AXIS = (11, 13, 17), (101, 103, 107), 19

# Expected detector events, over all runs of a command, from which run_map
# forks workers by default. It was set when serial work took about 140 ns per
# event, so 2e6 events were about 0.3 s; an OM4 block now takes about 28 ns
# per expected event, and retuning waits for a reference loop in the
# benchmark. Well below it, forking the workers and their
# copy-on-write page faults cost more than the second core saves. On a
# 2-vCPU Linux host (Python 3.11) a two-worker OM4 session broke even
# between 5e5 and 1e6 events through a process pool, which cost more to
# start than the direct forks of _forked_map. A worker that is not forked
# imports numpy and fso_qkd again (about 0.25 s each), so run_map uses
# workers only where ``_can_fork``.
PARALLEL_MIN_EVENTS = 2e6

# Serial cost model of a whole command: about 140 ns per expected detector
# event (the figure PARALLEL_MIN_EVENTS rests on; an OM4 block of 8.6e5
# expected events measures 28 ns, so this is about 5x high until that
# reference loop retunes both) plus about 0.24 ms per run
# (200 and 2,000 session blocks of 1e3 symbols took 0.40 and 0.83 s on the
# host above). run_map refuses a command estimated over MAX_COMMAND_SECONDS
# before it simulates any run, and its caller refuses one whose per-run term
# alone is over it before it builds any; no golden, acceptance or benchmark
# run estimates over 1.3 s.
SECONDS_PER_EVENT, SECONDS_PER_RUN, MAX_COMMAND_SECONDS = 140e-9, 0.24e-3, 30.0


class SymbolSequence:
    """Lazy i.i.d. uniform BB84 symbol stream, addressable by index."""

    __slots__ = ("n", "seed")

    def __init__(self, n: int, seed: int):
        if n < 0:
            raise ValidationError(f"symbol count must be >= 0, got {n}")
        self.n = int(n)
        self.seed = int(seed)

    def __len__(self) -> int:
        return self.n

    def codes_at(self, indices: np.ndarray) -> np.ndarray:
        """Symbol codes at the given indices: uint8 rows of
        ``polarization.SENT_STATES``."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise ValidationError("symbol index out of range")
        return two_bit_codes(self.seed, idx)


def alice_generate(n: int, rng_seed: int) -> SymbolSequence:
    """Alice's transmission schedule: n uniform (basis, bit) pairs."""
    return SymbolSequence(n, rng_seed)


class SiftResult(Record):
    """Basis reconciliation of one block: kept bits, and errors among them."""

    kept: int
    mismatches: int


def sift(alice: SymbolSequence, clicks: ClickStream) -> SiftResult:
    """Run the two-message sifting dialogue and count the kept bits and errors.

    Bob announces the (index, basis) of his gated clicks and keeps his bits.
    Two gated clicks on one symbol lie within one gate (``gate_fraction`` of
    a slot), so both survive only a shorter dead time: at 0, a photon click
    and background arrivals can share a slot. Of such duplicates the earliest
    counts. Alice looks up each announced symbol once; the click's entry of
    ``PORT_READS`` at the row of her symbol code and Bob's port code, the
    row the Malus test decided it by, is 0 across bases (not kept), +1 for a
    kept bit that agrees and -1 for an error.
    """
    usable = np.flatnonzero(clicks.in_gate)
    # click streams are time ordered, so unique() keeps the earliest
    indices, first = np.unique(clicks.symbol_indices.take(usable), return_index=True)
    reads = PORT_READS.take(port_columns(alice.codes_at(indices),
                                         clicks.analyzer_ports.take(usable.take(first))))
    return SiftResult(int(np.count_nonzero(reads)), int(np.count_nonzero(reads < 0)))


class BlockStats(Record):
    """One block's counts, from which its raw-key rate, QBER and flag follow:
    a block with no kept bits has qber 0 and is flagged ``insufficient_data``,
    and a ``saturated`` block was not simulated and counts nothing."""

    block_start: float
    block_duration: float
    gated_clicks: int = 0
    kept_bits: int = 0
    mismatches: int = 0
    kappa: bool = False
    saturated: bool = False
    _domain = {"block_duration": POSITIVE}

    def __post_init__(self):
        if not 0 <= self.mismatches <= self.kept_bits:
            raise ValidationError(f"mismatches {self.mismatches} not in [0, {self.kept_bits}]")

    @property
    def raw_key_rate(self) -> float:
        return self.kept_bits / self.block_duration

    @property
    def qber(self) -> float:
        return self.mismatches / self.kept_bits if self.kept_bits else 0.0

    @property
    def flag(self) -> str:
        if self.saturated:
            return "saturated"
        return "ok" if self.kept_bits else "insufficient_data"


def binary_entropy(x: float) -> float:
    """Shannon entropy of a bit with bias x, in bits."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def secure_fraction(qber: float) -> float:
    """Asymptotic BB84 secret fraction, max(0, 1 - 2 h2(QBER)).

    Vanishes at the 11% QBER threshold; error-correction inefficiency and
    finite-key effects are out of scope.
    """
    check("qber", qber, ERROR_PROBABILITY)
    return max(0.0, 1.0 - 2.0 * binary_entropy(qber))


class Run(Record):
    """One session block or sweep point, set up in the parent process.

    Alice's symbols, the analyzer ports and the click stream draw from
    ``mix64(config.rng_seed, index, tag)`` for the three seed ``tags``, so
    ``run_block`` is a pure function of the config and the run. A
    ``saturated`` run is a session block that ``run_session`` found over the
    detector's load limit; it is flagged, not simulated.
    """

    index: int
    tags: tuple[int, int, int]
    symbols: int
    channel: ChannelParams
    bg: BackgroundBudget
    start_time: float = 0.0
    drift_axis: np.ndarray | None = None
    kappa: bool = False
    saturated: bool = False


def run_block(config: ScenarioConfig, run: Run) -> BlockStats:
    """Simulate and sift one sweep point or session block into its counts: the
    one function every worker runs, and the one that builds every block's
    ``BlockStats``. A saturated run draws nothing and counts nothing."""
    duration = run.symbols / config.source.symbol_rate
    if run.saturated:
        return BlockStats(run.start_time, duration, kappa=run.kappa, saturated=True)
    tag_alice, tag_schedule, tag_clicks = run.tags
    alice = alice_generate(run.symbols, mix64(config.rng_seed, run.index, tag_alice))
    clicks = simulate_clicks(
        alice, config.source, run.channel, config.detector, run.bg,
        schedule_seed=mix64(config.rng_seed, run.index, tag_schedule),
        rng_seed=mix64(config.rng_seed, run.index, tag_clicks),
        intrinsic_error=config.intrinsic_error,
        start_time=run.start_time,
        drift_axis=run.drift_axis,
    )
    sifted = sift(alice, clicks)
    return BlockStats(run.start_time, duration, int(np.count_nonzero(clicks.in_gate)),
                      sifted.kept, sifted.mismatches, run.kappa)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _can_fork() -> bool:
    """Whether ``run_map`` forks its workers: where ``os.fork`` exists, except
    on macOS, whose system libraries may not survive a fork."""
    return hasattr(os, "fork") and sys.platform != "darwin"


def _auto_workers(events: list[float]) -> int:
    """Default worker count for runs that expect ``events`` detector events
    each: one process below ``PARALLEL_MIN_EVENTS`` in total or where
    workers would not fork, else every usable core, but never more runs at
    a time than fit together in one run's budget of ``MAX_EXPECTED_EVENTS``.
    """
    if sum(events) < PARALLEL_MIN_EVENTS or not _can_fork():
        return 1
    # every run was checked to be within the budget, so this is at least 1
    return min(_usable_cores(), int(MAX_EXPECTED_EVENTS // max(events)))


def _check_cost(key: str, runs: int, events: float = 0.0) -> None:
    """Refuse, naming ``key``, a command of ``runs`` runs that expect
    ``events`` detector events in total if its serial cost estimate is over
    ``MAX_COMMAND_SECONDS``."""
    seconds = runs * SECONDS_PER_RUN + events * SECONDS_PER_EVENT
    if seconds > MAX_COMMAND_SECONDS:
        expecting = f" expecting {events:.3g} detector events" if events else ""
        raise ValidationError(
            f"{key}: {runs} runs{expecting} would take "
            f"about {seconds:.3g} s on one core, over the cap of "
            f"{MAX_COMMAND_SECONDS:.0f} s; lower {key} or the symbols per run")


def run_map(config: ScenarioConfig, runs: list[Run], key: str,
            workers: int | None = None) -> list[BlockStats]:
    """``run_block(config, run)`` for each run, in run order; the one place
    that prices and checks a command's runs.

    Before any run is simulated or any worker forked, each run's expected
    detector events are computed once (none for a saturated run, which is
    not simulated, so it is never refused for the memory budget). That one
    list meets the budget (a background over it is refused naming
    ``background.spectrum_path`` under spectrum mode, where the spectrum sets
    its rate), then the cost cap (refused naming ``key``), and,
    once every run's time axis has passed ``check_time_axis`` (which names the
    key of the runs' symbols for a run too long at any start), sets the worker
    count. The runs then go to ``workers`` forked processes, at most one per
    run (see ``_forked_map``); where ``_can_fork`` is false they all run in
    this process, whatever ``workers`` says. With ``workers`` None,
    ``_auto_workers`` chooses the count. Each run's seeds depend on its index
    and tags alone, so the results do not depend on the worker count.
    """
    bg_key = ("background.spectrum_path" if config.resolved["background.mode"] == "spectrum"
              else "background.solar_rate")
    events = [0.0 if run.saturated else expected_events(
        run.symbols, config.source, run.channel, config.detector, run.bg, bg_key)
        for run in runs]
    _check_cost(key, len(runs), sum(events))
    symbols_key = ("sweep.symbols_per_point" if key == "sweep.el_db"
                   else "session.symbols_per_block")
    for run in runs:
        check_time_axis(run.symbols, config.source, run.channel, run.start_time, symbols_key)
    if workers is None:
        workers = _auto_workers(events)
    workers = min(workers, len(runs))
    if workers > 1 and _can_fork():
        return _forked_map(config, runs, workers)
    return [run_block(config, run) for run in runs]


def _forked_map(config: ScenarioConfig, runs: list[Run], workers: int) -> list[BlockStats]:
    """``run_block`` over ``runs`` on ``workers`` forked children, in run order.

    Child k runs ``runs[k::workers]`` and pickles back, over its own pipe,
    either its list of ``BlockStats`` or the index and exception of its
    first failing run; this process runs no block. The exception of the
    lowest-indexed failing run is raised, as the serial loop would raise it.
    A child that sends nothing (killed, or its message would not pickle) is
    a ``ChildProcessError`` naming the worker and its exit status, which the
    CLI reports as a runtime error. Every child is reaped before this returns
    or raises, and killed first if this process is interrupted before every
    child has sent its message.
    """
    children = []  # (pid, read end of its pipe)
    messages = None
    try:
        for k in range(workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:  # no child holds this pipe: close it here
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _run_share(config, runs, k, workers, write)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        messages = [pipe.read() for _, pipe in children]
    finally:
        statuses = []
        for pid, pipe in children:
            pipe.close()
            if messages is None:
                import signal  # here alone: a command that is not interrupted never loads it

                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    failures = []
    results = [None] * len(runs)
    for k, (message, status) in enumerate(zip(messages, statuses)):
        if status:  # a child exits 0 only once its whole message is written
            raise ChildProcessError(
                f"worker {k} of {workers} (pid {children[k][0]}) ended with exit status "
                f"{status} before sending its results")
        failed, payload = pickle.loads(message)
        if failed is None:
            results[k::workers] = payload
        else:
            failures.append((failed, payload))
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results


def _run_share(config: ScenarioConfig, runs: list[Run], first: int, step: int,
               fd: int) -> NoReturn:
    """A forked child's whole life: ``run_block`` over ``runs[first::step]``
    until the first failure, one pickled message to ``fd``, then ``os._exit``
    whatever happens, so the child never runs its parent's code."""
    code = 1
    try:
        results = []
        try:
            for index in range(first, len(runs), step):
                results.append(run_block(config, runs[index]))
            message = None, results
        except Exception as exc:  # handed to the parent, which raises it
            message = index, exc
        data = pickle.dumps(message)  # before the pipe: nothing or all of it is sent
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def run_sweep(config: ScenarioConfig, workers: int | None = None) -> list[BlockStats]:
    """One run per excess loss in ``config.sweep_el_db``, on ``workers``
    processes; a sweep whose per-run cost alone is over the cap is refused
    before any channel is built, and ``run_map`` prices the rest."""
    n = config.sweep_symbols_per_point
    _check_cost("sweep.el_db", len(config.sweep_el_db))
    runs = [Run(i, _SWEEP_TAGS, n, config.channel.with_excess_loss(el), config.background)
            for i, el in enumerate(config.sweep_el_db)]
    return run_map(config, runs, "sweep.el_db", workers)


def run_session(config: ScenarioConfig) -> list[BlockStats]:
    """Execute a block-wise BB84 session described by ``config``.

    Blocks are spaced ``block_duration_s`` apart on the drift clock; within
    each block a contiguous stretch of ``symbols_per_block`` slots is
    simulated and its kept bits are reported as a rate over the simulated
    quantum time. With ``classical.enabled`` the data channel toggles per
    block (first block off), adding its crosstalk to the background.
    A block whose expected detector load exceeds 10 counts per dead time is
    a saturated ``Run``, which ``run_block`` flags without simulating it;
    every block goes through ``run_map``, which prices the session. Only a
    session whose per-run cost alone is over the cap is refused before any
    block is set up. The background and saturation are worked out once per
    block kind (data channel off and on).
    """
    axis = random_unit_vector(rng_from(mix64(config.rng_seed, _TAG_AXIS)))
    n = config.symbols_per_block
    _check_cost("session.blocks", config.blocks)
    kinds = {}  # kappa -> (background, saturated) of every block of that kind
    runs = []
    for block in range(config.blocks):
        kappa = config.classical.enabled and block % 2 == 1
        if kappa not in kinds:
            bg = config.background.with_crosstalk(
                crosstalk_background(config.classical) if kappa else 0.0)
            kinds[kappa] = bg, detector_load(config.source, config.channel, config.detector,
                                             bg) * config.detector.dead_time > 10.0
        bg, saturated = kinds[kappa]
        runs.append(Run(block, _SESSION_TAGS, n, config.channel, bg,
                        block * config.block_duration_s, axis, kappa, saturated))
    return run_map(config, runs, "session.blocks")

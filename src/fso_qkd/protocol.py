"""Two-party BB84 session logic: symbol generation, sifting, block statistics,
and the runs that the CLI maps over workers.

Alice and Bob exchange exactly two messages per block: Bob announces the
(symbol index, analyzer basis) of his gated clicks, Alice answers with the
subset whose bases match. The helpers below implement those flows as pure
value exchanges so the session could later be split across a transport.

Alice's random symbols are a counter-based stream: symbol i is a pure
function of (seed, i), so gigasymbol sequences are addressable without
being materialized, and the Monte Carlo and the sifting dialogue read the
same values at the same indices.

Each sweep point and session block is a ``Run`` that ``run_block`` turns
into one ``BlockStats``; this module owns the runs' seeds, saturation and
worker count.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .coexistence import crosstalk_background
from .errors import ValidationError
from .linkmodel import (
    ClickStream,
    RandomAnalyzerSchedule,
    MAX_EXPECTED_EVENTS,
    detector_load,
    expected_events,
    random_unit_vector,
    simulate_clicks,
)
from .linkparams import BackgroundBudget, ChannelParams
from .scenario import ScenarioConfig
from .seeding import hash_stream, mix64, rng_from

# Seed tags (Alice, schedule, clicks) of a session block and of a sweep
# point, and the tag of a session's drift axis.
_SESSION_TAGS, _SWEEP_TAGS, _TAG_AXIS = (11, 13, 17), (101, 103, 107), 19

# Expected detector events, over all runs of a command, from which run_map
# starts a process pool by default. Serial work is about 140 ns per event, so
# 2e6 events are about 0.3 s; well below that, forking the workers and
# pickling each run cost more than the second core saves. On a 2-vCPU Linux
# host (Python 3.11, fork) a two-worker OM4 session broke even between 5e5
# and 1e6 events. A spawned or forkserver worker imports numpy and fso_qkd
# again (about 0.25 s each), a cost this number was not measured with, so the
# default pool is used only where workers fork.
PARALLEL_MIN_EVENTS = 2e6

# Serial cost model of a whole command: about 140 ns per expected detector
# event (the figure PARALLEL_MIN_EVENTS rests on) plus about 0.24 ms per run
# (200 and 2,000 session blocks of 1e3 symbols took 0.40 and 0.83 s on the
# host above). A command estimated over MAX_COMMAND_SECONDS is refused before
# it builds its runs; no golden, acceptance or benchmark run estimates over
# 1.3 s.
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

    def _words(self, indices: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise ValidationError("symbol index out of range")
        return hash_stream(self.seed, idx)

    def symbols_at(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Basis codes (0=RL, 1=AD) and bits at the given indices, from one
        hash word each."""
        words = self._words(indices)
        words &= np.uint64(3)
        port = words.astype(np.uint8)
        return port & 1, port >> 1


def alice_generate(n: int, rng_seed: int) -> SymbolSequence:
    """Alice's transmission schedule: n uniform (basis, bit) pairs."""
    return SymbolSequence(n, rng_seed)


@dataclass(frozen=True)
class SiftResult:
    """Outcome of basis reconciliation for one block."""

    kept_indices: np.ndarray
    alice_bits: np.ndarray
    bob_bits: np.ndarray

    def __post_init__(self):
        if not (len(self.kept_indices) == len(self.alice_bits) == len(self.bob_bits)):
            raise ValidationError("sift arrays must have equal length")

    @property
    def kept(self) -> int:
        return len(self.kept_indices)

    @property
    def mismatches(self) -> int:
        return int(np.count_nonzero(self.alice_bits != self.bob_bits))


def bob_announce(clicks: ClickStream) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bob's sifting message: (index, basis code) of gated clicks.

    His measured bits stay local. Duplicate clicks on one symbol keep the
    earliest (the dead time should make duplicates impossible; their
    presence would indicate a harness bug, not physics).
    """
    usable = np.flatnonzero(clicks.in_gate)
    # click streams are time ordered, so unique() keeps the earliest
    indices, first = np.unique(clicks.symbol_indices.take(usable), return_index=True)
    at = usable.take(first)
    return indices, clicks.analyzer_basis_codes.take(at), clicks.analyzer_bits.take(at)


def sift(alice: SymbolSequence, clicks: ClickStream) -> SiftResult:
    """Run the two-message sifting dialogue and return the kept bits.

    Alice looks up each announced symbol once: the same fetch that answers
    the basis comparison already holds her bits for the kept subset.
    """
    indices, bases, bob_bits = bob_announce(clicks)
    alice_bases, alice_bits = alice.symbols_at(indices)
    keep = np.flatnonzero(alice_bases == bases)
    return SiftResult(
        kept_indices=indices.take(keep),
        alice_bits=alice_bits.take(keep),
        bob_bits=bob_bits.take(keep),
    )


@dataclass(frozen=True)
class BlockStats:
    """Per-block raw-key and error statistics."""

    block_start: float
    block_duration: float
    raw_key_rate: float
    qber: float
    gated_clicks: int
    kept_bits: int = 0
    kappa: bool = False
    flag: str = "ok"

    def __post_init__(self):
        if self.block_duration <= 0:
            raise ValidationError("block duration must be > 0")
        if not 0.0 <= self.qber <= 1.0:
            raise ValidationError(f"qber must be in [0, 1], got {self.qber}")


def estimate_block_stats(
    sifted: SiftResult,
    duration: float,
    gated_clicks: int | None = None,
    block_start: float = 0.0,
    kappa: bool = False,
) -> BlockStats:
    """Raw-key rate and QBER for one block of sifted bits.

    A block with no kept bits cannot estimate a QBER and is flagged
    ``insufficient_data`` with qber 0.
    """
    if duration <= 0:
        raise ValidationError(f"duration must be > 0, got {duration}")
    kept = sifted.kept
    qber = sifted.mismatches / kept if kept else 0.0
    return BlockStats(
        block_start=block_start,
        block_duration=duration,
        raw_key_rate=kept / duration,
        qber=qber,
        gated_clicks=kept if gated_clicks is None else int(gated_clicks),
        kept_bits=kept,
        kappa=kappa,
        flag="ok" if kept else "insufficient_data",
    )


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
    if not 0.0 <= qber <= 0.5:
        raise ValidationError(f"qber must be in [0, 0.5], got {qber}")
    return max(0.0, 1.0 - 2.0 * binary_entropy(qber))


@dataclass(frozen=True)
class Run:
    """One session block or sweep point, set up in the parent process.

    Alice's symbols, the analyzer schedule and the click stream draw from
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
    """Simulate, sift and summarize one sweep point or session block; the
    one function every worker runs and the one that builds every block's
    ``BlockStats``. A saturated run draws nothing and is flagged
    ``saturated`` with zero rates."""
    duration = run.symbols / config.source.symbol_rate
    if run.saturated:
        return BlockStats(block_start=run.start_time, block_duration=duration,
                          raw_key_rate=0.0, qber=0.0, gated_clicks=0,
                          kappa=run.kappa, flag="saturated")
    tag_alice, tag_schedule, tag_clicks = run.tags
    alice = alice_generate(run.symbols, mix64(config.rng_seed, run.index, tag_alice))
    clicks = simulate_clicks(
        alice, config.source, run.channel, config.detector, run.bg,
        analyzer_schedule=RandomAnalyzerSchedule(
            mix64(config.rng_seed, run.index, tag_schedule)),
        rng_seed=mix64(config.rng_seed, run.index, tag_clicks),
        intrinsic_error=config.intrinsic_error,
        start_time=run.start_time,
        drift_axis=run.drift_axis,
    )
    return estimate_block_stats(sift(alice, clicks), duration,
                                gated_clicks=clicks.gated_count(),
                                block_start=run.start_time, kappa=run.kappa)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _auto_workers(events: list[float]) -> int:
    """Default worker count for runs that expect ``events`` detector events
    each: one process below ``PARALLEL_MIN_EVENTS`` in total or where
    workers would not fork, else every usable core, but never more runs at
    a time than fit together in one run's budget of ``MAX_EXPECTED_EVENTS``.
    """
    if sum(events) < PARALLEL_MIN_EVENTS:
        return 1
    import multiprocessing

    if multiprocessing.get_start_method() != "fork":
        return 1
    # every run was checked to be within the budget, so this is at least 1
    return min(_usable_cores(), int(MAX_EXPECTED_EVENTS // max(events)))


def _check_cost(key: str, runs: int, events: float) -> None:
    """Refuse, naming ``key``, a command of ``runs`` runs that expect
    ``events`` detector events in total if its serial cost estimate is over
    ``MAX_COMMAND_SECONDS``."""
    seconds = runs * SECONDS_PER_RUN + events * SECONDS_PER_EVENT
    if seconds > MAX_COMMAND_SECONDS:
        raise ValidationError(
            f"{key}: {runs} runs expecting {events:.3g} detector events would take "
            f"about {seconds:.3g} s on one core, over the cap of "
            f"{MAX_COMMAND_SECONDS:.0f} s; lower {key} or the symbols per run")


def run_map(config: ScenarioConfig, runs: list[Run],
            workers: int | None = None) -> list[BlockStats]:
    """``run_block(config, run)`` for each run, in run order.

    Every run is checked here before any is simulated, with the
    ``ValidationError`` that ``simulate_clicks`` would raise, so a refused
    command starts no worker. A saturated run is not simulated, so it
    expects no events and is never refused. The runs then go to ``workers``
    processes, at most one per run. With ``workers`` None, ``_auto_workers``
    chooses the count. Each run's seeds depend on its index and tags alone,
    so the results do not depend on the worker count.
    """
    events = [0.0 if run.saturated else expected_events(
        run.symbols, config.source, run.channel, config.detector, run.bg, run.start_time)
        for run in runs]
    if workers is None:
        workers = _auto_workers(events)
    workers = min(workers, len(runs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_block, [config] * len(runs), runs))
    return [run_block(config, run) for run in runs]


def run_sweep(config: ScenarioConfig, workers: int | None = None) -> list[BlockStats]:
    """One run per excess loss in ``config.sweep_el_db``, on ``workers``
    processes (see ``run_map``); a sweep over the cost cap is refused first."""
    n = config.sweep_symbols_per_point
    channels = [config.channel.with_excess_loss(el) for el in config.sweep_el_db]
    _check_cost("sweep.el_db", len(channels), sum(
        expected_events(n, config.source, ch, config.detector, config.background)
        for ch in channels))
    return run_map(config, [Run(i, _SWEEP_TAGS, n, ch, config.background)
                            for i, ch in enumerate(channels)], workers)


def run_session(config: ScenarioConfig) -> list[BlockStats]:
    """Execute a block-wise BB84 session described by ``config``.

    Blocks are spaced ``block_duration_s`` apart on the drift clock; within
    each block a contiguous stretch of ``symbols_per_block`` slots is
    simulated and its kept bits are reported as a rate over the simulated
    quantum time. With ``classical.enabled`` the data channel toggles per
    block (first block off), adding its crosstalk to the background.
    A block whose expected detector load exceeds 10 counts per dead time is
    a saturated ``Run``, which ``run_block`` flags without simulating it;
    every block goes through ``run_map``. A session over the cost cap is
    refused before any block is set up: its blocks come in at most two kinds
    (data channel off and on), so the estimate does not grow with
    ``session.blocks``.
    """
    axis = random_unit_vector(rng_from(mix64(config.rng_seed, _TAG_AXIS)))
    n = config.symbols_per_block
    kappa_on = config.blocks // 2 if config.coexist.active else 0
    kinds = {}  # kappa -> (background, saturated) of every block of that kind
    events = 0.0
    for kappa, count in ((False, config.blocks - kappa_on), (True, kappa_on)):
        if count:
            xtalk = crosstalk_background(
                config.coexist, config.classical.launch_power_dbm) if kappa else 0.0
            bg = config.background.with_crosstalk(xtalk)
            saturated = detector_load(config.source, config.channel, config.detector,
                                      bg) * config.detector.dead_time > 10.0
            if not saturated:
                events += count * expected_events(n, config.source, config.channel,
                                                  config.detector, bg)
            kinds[kappa] = bg, saturated
    _check_cost("session.blocks", config.blocks, events)
    runs = []
    for block in range(config.blocks):
        kappa = config.coexist.active and block % 2 == 1
        bg, saturated = kinds[kappa]
        runs.append(Run(block, _SESSION_TAGS, n, config.channel, bg,
                        block * config.block_duration_s, axis, kappa, saturated))
    return run_map(config, runs)

"""End-to-end photon budget: closed-form rate equations and Monte Carlo.

Both models share the same physics. Per symbol, a weak-coherent pulse
survives the lumped link loss and fires the SPAD with probability
1 - exp(-mu eta t); the polarimeter is a single detector behind one
polarizer port at a time, so on average half of all arriving photons pass
the analyzer, and basis sifting keeps half of the gated clicks. Background
(solar + darks + classical crosstalk) arrives as a Poisson stream, is
halved by the temporal gate and halved again by sifting, and contributes
random bits. A non-paralyzable dead time thins the total arrival stream
uniformly, which is why it scales every rate but cancels in the QBER.

The Monte Carlo samples only symbols that produce a detectable photon
(geometric gaps over the slot lattice), so cost scales with click counts,
not symbol counts, and multi-gigasymbol blocks stay cheap. On a lazy
symbol stream no stage steps through events in Python: each symbol's basis
and bit come from one hash word, drift is one vectorized rotation, and the
dead-time filter finds every event's successor with one ``searchsorted``
and follows the survivor chain by pointer doubling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import combined_polarization_error
from .errors import ValidationError
from .linkparams import (
    BackgroundBudget,
    ChannelParams,
    DetectorParams,
    RatePrediction,
    SourceParams,
)
from .polarization import Basis, rotate_many
from .seeding import hash_stream, mix64, rng_from

BASIS_CODES = {Basis.RL: 0, Basis.AD: 1, Basis.HV: 2}
CODE_BASES = {code: basis for basis, code in BASIS_CODES.items()}
HV_CODE = BASIS_CODES[Basis.HV]

# Stokes vectors indexed [basis_code, bit]: R/L, D/A, H/V.
STATE_TABLE = np.array(
    [
        [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]],
        [[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]],
        [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
    ]
)


def transmittance(loss_db: float) -> float:
    """Linear power transmission for a loss in dB."""
    if loss_db < 0:
        raise ValidationError(f"loss must be >= 0 dB, got {loss_db}")
    return 10.0 ** (-loss_db / 10.0)


def dead_time_corrected(true_rate: float, dead_time: float) -> float:
    """Observed rate of a non-paralyzable detector fed at ``true_rate``."""
    if true_rate < 0:
        raise ValidationError(f"rate must be >= 0, got {true_rate}")
    if dead_time < 0:
        raise ValidationError(f"dead time must be >= 0, got {dead_time}")
    return true_rate / (1.0 + true_rate * dead_time)


def click_probability(src: SourceParams, ch: ChannelParams, det: DetectorParams) -> float:
    """Per-symbol probability that the pulse puts a count on the SPAD."""
    t = transmittance(ch.total_loss_db)
    return 1.0 - math.exp(-src.mu_q * t * det.efficiency)


def detector_load(src: SourceParams, ch: ChannelParams, det: DetectorParams,
                  bg: BackgroundBudget) -> float:
    """Total arrival rate at the SPAD before dead time (all ports, all gates)."""
    return src.symbol_rate * click_probability(src, ch, det) * 0.5 + bg.total_rate


def expected_rates(
    src: SourceParams,
    ch: ChannelParams,
    det: DetectorParams,
    bg: BackgroundBudget,
    intrinsic_error: float,
) -> RatePrediction:
    """Closed-form per-detector prediction for one operating point.

    ``intrinsic_error`` is the matched-basis error of the system without
    fiber depolarization (alignment and extinction); it composes with
    ``ch.depol_p`` multiplicatively on the Poincaré sphere. Background bits
    are uncorrelated with Alice, so they err half the time, and the sifted
    background is half of the gated background. Dead time thins signal and
    background by the same factor and therefore does not move the QBER.
    """
    if not 0.0 <= intrinsic_error <= 0.5:
        raise ValidationError(f"intrinsic_error must be in [0, 0.5], got {intrinsic_error}")
    p_click = click_probability(src, ch, det)
    s_port = src.symbol_rate * p_click * det.signal_gate_acceptance * 0.25
    b_gated = bg.total_rate * det.gate_fraction
    b_key = 0.5 * b_gated
    thin = 1.0 / (1.0 + detector_load(src, ch, det, bg) * det.dead_time)
    e_pol = combined_polarization_error(intrinsic_error, ch.depol_p)
    kept = s_port + b_key
    qber = 0.5 if kept == 0 else (e_pol * s_port + 0.5 * b_key) / kept
    return RatePrediction(
        signal_click_rate=src.symbol_rate * p_click * det.signal_gate_acceptance * 0.5 * thin,
        background_click_rate=b_gated * thin,
        sifted_key_rate=kept * thin,
        qber=qber,
    )


# ---------------------------------------------------------------------------
# Analyzer schedules
# ---------------------------------------------------------------------------

class RandomAnalyzerSchedule:
    """Uniform random choice among the four key ports, one per symbol slot.

    ``monitor_fraction`` diverts that share of slots to the H/V monitor
    ports. The schedule is a pure function of (seed, index), so any slice
    of it can be regenerated independently.
    """

    def __init__(self, seed: int, monitor_fraction: float = 0.0):
        if not 0.0 <= monitor_fraction < 1.0:
            raise ValidationError("monitor_fraction must be in [0, 1)")
        self._seed = seed
        self._monitor_fraction = monitor_fraction

    def ports_at(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        words = hash_stream(self._seed, indices)
        port = (words & np.uint64(3)).astype(np.uint8)
        basis = port >> 1
        bit = port & 1
        if self._monitor_fraction > 0.0:
            u = ((words >> np.uint64(32)) & np.uint64(0xFFFFFF)).astype(np.float64) / float(1 << 24)
            monitor = u < self._monitor_fraction
            basis = np.where(monitor, np.uint8(HV_CODE), basis)
        return basis, bit


class CyclicAnalyzerSchedule:
    """Cycle R, L, D, A ports in fixed dwell blocks (sequential polarimeter)."""

    def __init__(self, dwell: int = 1):
        if dwell < 1:
            raise ValidationError("dwell must be >= 1 symbols")
        self._dwell = int(dwell)

    def ports_at(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        port = ((np.asarray(indices, dtype=np.int64) // self._dwell) % 4).astype(np.uint8)
        return port >> 1, port & 1


# ---------------------------------------------------------------------------
# Click records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClickRecord:
    """One detection event as logged by the time tagger."""

    timestamp: float
    symbol_index: int
    analyzer: tuple[Basis, int]
    in_gate: bool
    origin: str  # "signal" or "background"


class ClickStream:
    """Array-backed, time-ordered sequence of ClickRecord."""

    __slots__ = ("timestamps", "symbol_indices", "analyzer_basis_codes",
                 "analyzer_bits", "in_gate", "is_signal")

    def __init__(self, timestamps, symbol_indices, analyzer_basis_codes,
                 analyzer_bits, in_gate, is_signal):
        self.timestamps = np.asarray(timestamps, dtype=np.float64)
        self.symbol_indices = np.asarray(symbol_indices, dtype=np.int64)
        self.analyzer_basis_codes = np.asarray(analyzer_basis_codes, dtype=np.uint8)
        self.analyzer_bits = np.asarray(analyzer_bits, dtype=np.uint8)
        self.in_gate = np.asarray(in_gate, dtype=bool)
        self.is_signal = np.asarray(is_signal, dtype=bool)

    @classmethod
    def empty(cls) -> "ClickStream":
        return cls([], [], [], [], [], [])

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, i: int) -> ClickRecord:
        return ClickRecord(
            timestamp=float(self.timestamps[i]),
            symbol_index=int(self.symbol_indices[i]),
            analyzer=(CODE_BASES[int(self.analyzer_basis_codes[i])], int(self.analyzer_bits[i])),
            in_gate=bool(self.in_gate[i]),
            origin="signal" if self.is_signal[i] else "background",
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def gated_count(self) -> int:
        return int(np.count_nonzero(self.in_gate))


def dead_time_filter(times: np.ndarray, dead_time: float) -> np.ndarray:
    """Surviving-event indices for a non-paralyzable detector (sorted input).

    An event survives iff it arrives at least ``dead_time`` after the last
    survivor; event 0 always survives. If event i survives, the next
    survivor is the first j > i with ``times[j] >= times[i] + dead_time``,
    so one vectorized ``searchsorted`` gives every event's successor. The
    survivors are the successor chain from event 0, read off by pointer
    doubling (Wyllie 1979): each round appends the next stretch of the
    chain and squares the jump table, so ``log2(survivors)`` rounds of
    array work replace a Python step per survivor.
    """
    n = len(times)
    if dead_time <= 0.0 or n == 0:
        return np.arange(n, dtype=np.int64)
    # jump[i]: survivor after a surviving event i; n is a sentinel past the
    # end that maps to itself. The floor of i + 1 keeps the chain moving
    # when dead_time vanishes against times[i] in floating point.
    jump = np.empty(n + 1, dtype=np.int64)
    jump[:n] = np.searchsorted(times, times + dead_time, side="left")
    np.maximum(jump[:n], np.arange(1, n + 1), out=jump[:n])
    jump[n] = n
    chain = np.zeros(1, dtype=np.int64)
    while chain[-1] != n:
        chain = np.concatenate([chain, jump[chain]])
        jump = jump[jump]
    return chain[: np.searchsorted(chain, n)]


def _sample_detection_indices(rng: np.random.Generator, n: int, q: float) -> np.ndarray:
    """Slot indices with a detectable photon: Bernoulli(q) per slot via gaps."""
    if q <= 0.0 or n == 0:
        return np.empty(0, dtype=np.int64)
    if q >= 1.0:
        return np.arange(n, dtype=np.int64)
    expected = n * q
    batch = int(expected + 6.0 * math.sqrt(expected) + 16.0)
    chunks = []
    position = 0
    while True:
        cum = np.cumsum(rng.geometric(q, size=batch)) + position
        if cum.size and cum[-1] > n:
            chunks.append(cum[: np.searchsorted(cum, n, side="right")])
            break
        chunks.append(cum)
        position = int(cum[-1])
        batch = max(batch // 2, 1024)
    return (np.concatenate(chunks) - 1).astype(np.int64)


def _symbol_arrays(symbols, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Basis-code/bit arrays of ``symbols`` at ``indices`` (lazy or materialized)."""
    if hasattr(symbols, "symbols_at"):
        return symbols.symbols_at(indices)
    bases = np.empty(len(indices), dtype=np.uint8)
    bits = np.empty(len(indices), dtype=np.uint8)
    for k, i in enumerate(indices.tolist()):
        sym = symbols[i]
        bases[k] = BASIS_CODES[sym.basis]
        bits[k] = sym.bit
    return bases, bits


def _random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def simulate_clicks(
    symbols,
    src: SourceParams,
    ch: ChannelParams,
    det: DetectorParams,
    bg: BackgroundBudget,
    analyzer_schedule=None,
    rng_seed: int = 0,
    intrinsic_error: float = 0.0,
    start_time: float = 0.0,
    drift_axis=None,
    receiver: str = "sequential",
) -> ClickStream:
    """Monte Carlo detection run over ``symbols``; deterministic per seed.

    Sequential mode (the deployed receiver) puts one SPAD behind the port
    chosen by ``analyzer_schedule`` for each slot; a photon clicks with the
    Malus probability of that port and is otherwise absorbed. The passive
    mode routes every photon through a 50/50 basis splitter onto one of
    four ports with independent dead times, splitting the non-dark
    background evenly across ports.

    Polarization drift rotates the transmitted states about ``drift_axis``
    (drawn from the seed when not given) by ``ch.drift_rate * t_elapsed``
    with ``t_elapsed`` counted from the session origin, ``start_time`` into
    the past of this call. Background and dark counts arrive uniformly;
    dead time is enforced on the merged event stream.
    """
    if receiver not in ("sequential", "passive"):
        raise ValidationError(f"unknown receiver mode {receiver!r}")
    if not 0.0 <= intrinsic_error <= 0.5:
        raise ValidationError(f"intrinsic_error must be in [0, 0.5], got {intrinsic_error}")
    n = len(symbols)
    if n == 0:
        return ClickStream.empty()
    rng = rng_from(rng_seed)
    axis = np.asarray(drift_axis, dtype=float) if drift_axis is not None \
        else _random_unit_vector(rng)
    if analyzer_schedule is None:
        analyzer_schedule = RandomAnalyzerSchedule(mix64(rng_seed, 0xA11A))

    slot = 1.0 / src.symbol_rate
    duration = n * slot
    q = click_probability(src, ch, det)
    idx = _sample_detection_indices(rng, n, q)

    bases, bits = _symbol_arrays(symbols, idx)
    kappa = (1.0 - ch.depol_p) * (1.0 - 2.0 * intrinsic_error)
    states = STATE_TABLE[bases, bits] * kappa
    if ch.drift_rate > 0.0 and len(idx):
        angles = ch.drift_rate * (start_time + (idx + 0.5) * slot)
        states = rotate_many(states, axis, angles)

    if receiver == "sequential":
        return _detect_sequential(rng, states, idx, analyzer_schedule, src, det, bg,
                                  start_time, slot, n, duration)
    return _detect_passive(rng, states, idx, src, det, bg, start_time, slot, n, duration)


def _gate_flags(rng, count: int, acceptance: float) -> np.ndarray:
    if acceptance >= 1.0:
        return np.ones(count, dtype=bool)
    return rng.random(count) < acceptance


def _background_events(rng, rate: float, n: int, duration: float, slot: float,
                       start_time: float, gate_fraction: float):
    """Uniform Poisson background over the run: indices, timestamps, gate flags."""
    count = rng.poisson(rate * duration) if rate > 0.0 else 0
    if count == 0:
        empty = np.empty(0)
        return empty.astype(np.int64), empty, empty.astype(bool)
    bidx = rng.integers(0, n, size=count)
    frac = rng.random(count)
    order = np.argsort(bidx + frac, kind="stable")
    bidx, frac = bidx[order], frac[order]
    times = start_time + (bidx + frac) * slot
    in_gate = np.abs(frac - 0.5) <= gate_fraction / 2.0
    return bidx.astype(np.int64), times, in_gate


def _assemble(times, indices, abasis, abit, in_gate, is_signal, dead_time) -> ClickStream:
    order = np.argsort(times, kind="stable")
    times, indices = times[order], indices[order]
    abasis, abit = abasis[order], abit[order]
    in_gate, is_signal = in_gate[order], is_signal[order]
    alive = dead_time_filter(times, dead_time)
    return ClickStream(times[alive], indices[alive], abasis[alive], abit[alive],
                       in_gate[alive], is_signal[alive])


def _detect_sequential(rng, states, idx, schedule, src, det, bg,
                       start_time, slot, n, duration) -> ClickStream:
    abasis, abit = schedule.ports_at(idx)
    analyzers = STATE_TABLE[abasis, abit]
    p_pass = 0.5 * (1.0 + np.einsum("ij,ij->i", states, analyzers))
    clicked = rng.random(len(idx)) < p_pass
    sig_idx = idx[clicked]
    sig_basis, sig_bit = abasis[clicked], abit[clicked]
    sig_gate = _gate_flags(rng, len(sig_idx), det.signal_gate_acceptance)
    sig_times = start_time + (sig_idx + 0.5) * slot

    bg_idx, bg_times, bg_gate = _background_events(
        rng, bg.total_rate, n, duration, slot, start_time, det.gate_fraction)
    bg_basis, bg_bit = schedule.ports_at(bg_idx)

    return _assemble(
        np.concatenate([sig_times, bg_times]),
        np.concatenate([sig_idx, bg_idx]),
        np.concatenate([sig_basis, bg_basis]),
        np.concatenate([sig_bit, bg_bit]),
        np.concatenate([sig_gate, bg_gate]),
        np.concatenate([np.ones(len(sig_idx), bool), np.zeros(len(bg_idx), bool)]),
        det.dead_time,
    )


def _detect_passive(rng, states, idx, src, det, bg,
                    start_time, slot, n, duration) -> ClickStream:
    """Idealized 2-basis/4-output receiver; every photon clicks one port."""
    k = len(idx)
    arm = (rng.random(k) < 0.5).astype(np.uint8)       # 0 -> RL arm, 1 -> AD arm
    port0 = STATE_TABLE[arm, np.zeros(k, dtype=np.uint8)]
    p_bit0 = 0.5 * (1.0 + np.einsum("ij,ij->i", states, port0))
    bit = (rng.random(k) >= p_bit0).astype(np.uint8)
    sig_gate = _gate_flags(rng, k, det.signal_gate_acceptance)
    sig_times = start_time + (idx + 0.5) * slot

    # Non-dark background splits across the four ports; darks are per SPAD.
    per_port_rate = (bg.total_rate - bg.dark_rate) / 4.0 + bg.dark_rate
    streams = []
    for basis_code in (0, 1):
        for port_bit in (0, 1):
            mask = (arm == basis_code) & (bit == port_bit)
            bg_idx, bg_times, bg_gate = _background_events(
                rng, per_port_rate, n, duration, slot, start_time, det.gate_fraction)
            times = np.concatenate([sig_times[mask], bg_times])
            order = np.argsort(times, kind="stable")
            indices = np.concatenate([idx[mask], bg_idx])[order]
            in_gate = np.concatenate([sig_gate[mask], bg_gate])[order]
            is_signal = np.concatenate(
                [np.ones(int(mask.sum()), bool), np.zeros(len(bg_idx), bool)])[order]
            times = times[order]
            alive = dead_time_filter(times, det.dead_time)
            streams.append((times[alive], indices[alive],
                            np.full(len(alive), basis_code, dtype=np.uint8),
                            np.full(len(alive), port_bit, dtype=np.uint8),
                            in_gate[alive], is_signal[alive]))

    times = np.concatenate([s[0] for s in streams])
    order = np.argsort(times, kind="stable")
    return ClickStream(
        times[order],
        np.concatenate([s[1] for s in streams])[order],
        np.concatenate([s[2] for s in streams])[order],
        np.concatenate([s[3] for s in streams])[order],
        np.concatenate([s[4] for s in streams])[order],
        np.concatenate([s[5] for s in streams])[order],
    )

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
not symbol counts, and multi-gigasymbol blocks stay cheap. No stage steps
through events in Python: each symbol's basis and bit come from one hash
word, and the dead-time filter starts a survivor chain at every cluster
head (an event at least one dead time after its predecessor) and advances
all chains with one ``searchsorted`` per round: one round per survivor of
the longest cluster, and no table beyond the stream. Drift and the analyzer
meet in the one Stokes component that each photon's port reads,
A cos a + B sin a + C (1 - cos a), with (A, B, C) from a per-call table of
Rodrigues terms over the four states. Clicks, survivors and their columns
are selected by position (``flatnonzero`` and ``take``), and each
``ClickStream`` column is gathered once, at survivor length.
"""
from __future__ import annotations

import math

import numpy as np

from .calibration import (
    arrival_rate,
    combined_polarization_error,
    dead_time_thinning,
    pulse_click_probability,
    sifted_signal_rate,
    transmittance,
)
from .errors import ValidationError
from .linkparams import (
    BackgroundBudget,
    ChannelParams,
    DetectorParams,
    RatePrediction,
    SourceParams,
)
from .polarization import Basis, encode_symbol, rodrigues_terms
from .seeding import hash_stream, mix64, rng_from

BASIS_CODES = {Basis.RL: 0, Basis.AD: 1}

# Stokes vectors of sent states and analyzer ports, [basis_code, bit]: R/L, D/A.
STATE_TABLE = np.array(
    [[encode_symbol(basis, bit).vector for bit in (0, 1)] for basis in BASIS_CODES])

# Expected detector events (signal photons plus background arrivals) that
# one simulate_clicks call may hold. Each adds about 80 bytes to the peak
# resident set (measured on OM4 blocks), so the budget is about 1.6 GB.
MAX_EXPECTED_EVENTS = 2e7


def dead_time_corrected(true_rate: float, dead_time: float) -> float:
    """Observed rate of a non-paralyzable detector fed at ``true_rate``."""
    if true_rate < 0:
        raise ValidationError(f"rate must be >= 0, got {true_rate}")
    if dead_time < 0:
        raise ValidationError(f"dead time must be >= 0, got {dead_time}")
    return true_rate * dead_time_thinning(true_rate, dead_time)


def click_probability(src: SourceParams, ch: ChannelParams, det: DetectorParams) -> float:
    """Per-symbol probability that the pulse puts a count on the SPAD."""
    return pulse_click_probability(src.mu_q, transmittance(ch.total_loss_db), det.efficiency)


def detector_load(src: SourceParams, ch: ChannelParams, det: DetectorParams,
                  bg: BackgroundBudget) -> float:
    """Total arrival rate at the SPAD before dead time (all ports, all gates)."""
    return arrival_rate(src.symbol_rate, click_probability(src, ch, det), bg.total_rate)


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
    s_port = sifted_signal_rate(src.symbol_rate, p_click, det.signal_gate_acceptance)
    b_gated = bg.total_rate * det.gate_fraction
    b_key = 0.5 * b_gated
    thin = dead_time_thinning(detector_load(src, ch, det, bg), det.dead_time)
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

    The schedule is a pure function of (seed, index), so any slice of it
    can be regenerated independently.
    """

    def __init__(self, seed: int):
        self._seed = seed

    def ports_at(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        words = hash_stream(self._seed, indices)
        words &= np.uint64(3)
        port = words.astype(np.uint8)
        return port >> 1, port & 1


class ClickStream:
    """Array-backed, time-ordered detection events as logged by the time tagger."""

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

    def gated_count(self) -> int:
        return int(np.count_nonzero(self.in_gate))


def dead_time_filter(times: np.ndarray, dead_time: float) -> np.ndarray:
    """Surviving-event indices for a non-paralyzable detector (sorted input).

    An event survives iff it arrives at least ``dead_time`` after the last
    survivor; event 0 always survives. If event i survives, the next
    survivor is the first j > i with ``times[j] >= times[i] + dead_time``.
    A cluster head, an event at least ``dead_time`` after its predecessor,
    survives whatever came before it, and no survivor's successor lies past
    the next head. So the walk starts one survivor chain at every head and
    advances all open chains together, one ``searchsorted`` of the frontier
    per round, until every chain has reached a head. That costs one round
    per survivor of the longest cluster and no table beyond the stream: its
    due times, the head and survivor masks, and the open frontier.
    """
    n = len(times)
    if dead_time <= 0.0 or n == 0:
        return np.arange(n, dtype=np.int64)
    due = times + dead_time
    # head[n] is a sentinel that closes every chain running off the end.
    head = np.empty(n + 1, dtype=bool)
    head[0] = head[n] = True
    np.greater_equal(times[1:], due[:-1], out=head[1:n])
    alive = head[:n].copy()
    chain = np.flatnonzero(alive)
    while chain.size:
        # Each step moves strictly forward or lands on a head, so the walk
        # ends. If dead_time vanishes against times[i] in floating point, the
        # step may fall back to an earlier equal timestamp; that event is a
        # head, so the chain closes there.
        step = np.searchsorted(times, due.take(chain), side="left")
        chain = step.compress(~head.take(step))
        alive[chain] = True
    return np.flatnonzero(alive)


def _sample_detection_indices(rng: np.random.Generator, n: int, q: float) -> np.ndarray:
    """Slot indices with a detectable photon: Bernoulli(q) per slot via gaps."""
    if q <= 0.0 or n == 0:
        return np.empty(0, dtype=np.int64)
    if q >= 1.0:
        return np.arange(n, dtype=np.int64)
    expected = n * q
    batch = int(expected + 6.0 * math.sqrt(expected) + 16.0)
    chunks = []
    last = -1  # slot of the last detection so far
    while True:
        cum = rng.geometric(q, size=batch)
        np.cumsum(cum, out=cum)
        cum += last
        if cum[-1] >= n:
            chunks.append(cum[: np.searchsorted(cum, n, side="left")])
            break
        chunks.append(cum)
        last = int(cum[-1])
        batch = max(batch // 2, 1024)
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _pass_probability(bases, bits, abasis, abit, kappa: float, axis,
                      angles=None) -> np.ndarray:
    """Malus probability that each photon passes its analyzer port.

    Photon i is sent in ``STATE_TABLE[bases[i], bits[i]] * kappa``, rotated
    about ``axis`` by ``angles[i]`` (no drift when ``angles`` is None) and
    met by port ``STATE_TABLE[abasis[i], abit[i]]``. Every state and port
    lies on one Stokes axis, so the component the port reads is
    A cos a + B sin a + C (1 - cos a), where (A, B, C) are the Rodrigues
    terms of the sent state on that axis, signed by the port: a 4x4 table
    per call instead of an (n, 3) rotation. The products with the port
    vector select one component and fold in its +-1 sign exactly, so each
    probability is rounded as the full rotation and dot product round it.
    """
    ports = STATE_TABLE.reshape(-1, 3)
    a_term, b_term, c_term = (
        (t @ ports.T).ravel() for t in rodrigues_terms(ports * kappa, axis))
    # ((bases * 2 + bits) * 2 + abasis) * 2 + abit, built in place in the
    # inputs' narrow dtype and widened once: take would otherwise convert the
    # index to intp on each of its three calls.
    column = bases * 2
    column += bits
    column *= 2
    column += abasis
    column *= 2
    column += abit
    column = column.astype(np.intp)
    x = a_term.take(column)
    if angles is not None:
        # ((x c) + (B s)) + (C (1 - c)) in place, in that rounding order.
        # column is always in range; mode="clip" lets take fill term unbuffered.
        c = np.cos(angles)
        x *= c
        term = np.sin(angles)
        term *= b_term.take(column)
        x += term
        np.subtract(1.0, c, out=c)
        c *= c_term.take(column, out=term, mode="clip")
        x += c
    x += 1.0
    x *= 0.5
    return x


def expected_events(n: int, src: SourceParams, ch: ChannelParams, det: DetectorParams,
                    bg: BackgroundBudget, start_time: float = 0.0) -> float:
    """Expected detector events (signal photons plus background arrivals) of
    an n-slot run that starts ``start_time`` after the session origin.

    Raises ``ValidationError`` for a run that ``simulate_clicks`` cannot
    hold: one over ``MAX_EXPECTED_EVENTS``, or one whose drift angle at its
    last slot overflows a float (the rotation would turn into nan).
    """
    slot = 1.0 / src.symbol_rate
    q = click_probability(src, ch, det)
    events = n * min(q, 1.0) + bg.total_rate * n * slot
    if events > MAX_EXPECTED_EVENTS:
        raise ValidationError(
            f"source.mu_q: {n} symbols at detection probability {q:.3g} plus "
            f"background expect {events:.3g} detector events in one run, "
            f"over the memory budget of {MAX_EXPECTED_EVENTS:.0e}; lower source.mu_q "
            "or the symbols per run (session.symbols_per_block or "
            "sweep.symbols_per_point)")
    # simulate_clicks times slot i at start_time + (i + 0.5) * slot
    last = (n - 0.5) * slot + start_time
    if ch.drift_rate > 0.0 and not math.isfinite(ch.drift_rate * last):
        raise ValidationError(
            f"channel.drift_rate: {ch.drift_rate:.3g} rad/s over {last:.3g} s from the "
            "session origin overflows the drift angle; lower channel.drift_rate or "
            "session.block_duration_s")
    return events


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
) -> ClickStream:
    """Monte Carlo detection run over ``symbols``; deterministic per seed.

    One SPAD sits behind the port chosen by ``analyzer_schedule`` for each
    slot; a photon clicks with the Malus probability of that port and is
    otherwise absorbed.

    Polarization drift rotates the transmitted states about ``drift_axis``
    (drawn from the seed when not given) by ``ch.drift_rate * t_elapsed``
    with ``t_elapsed`` counted from the session origin, ``start_time`` into
    the past of this call. Background and dark counts arrive uniformly;
    dead time is enforced on the merged event stream. A call that
    ``expected_events`` refuses raises its ``ValidationError`` before
    anything is allocated.
    """
    if not 0.0 <= intrinsic_error <= 0.5:
        raise ValidationError(f"intrinsic_error must be in [0, 0.5], got {intrinsic_error}")
    n = len(symbols)
    if n == 0:
        return ClickStream.empty()
    expected_events(n, src, ch, det, bg, start_time)
    slot = 1.0 / src.symbol_rate
    q = click_probability(src, ch, det)
    rng = rng_from(rng_seed)
    axis = np.asarray(drift_axis, dtype=float) if drift_axis is not None \
        else random_unit_vector(rng)
    if analyzer_schedule is None:
        analyzer_schedule = RandomAnalyzerSchedule(mix64(rng_seed, 0xA11A))

    idx = _sample_detection_indices(rng, n, q)
    t = idx + 0.5  # start_time + (idx + 0.5) * slot, in place
    t *= slot
    t += start_time

    bases, bits = symbols.symbols_at(idx)
    abasis, abit = analyzer_schedule.ports_at(idx)
    kappa = (1.0 - ch.depol_p) * (1.0 - 2.0 * intrinsic_error)
    angles = ch.drift_rate * t if ch.drift_rate > 0.0 else None
    p_pass = _pass_probability(bases, bits, abasis, abit, kappa, axis, angles)
    clicked = np.flatnonzero(rng.random(len(idx)) < p_pass)
    n_sig = len(clicked)
    sig_gate = None if det.signal_gate_acceptance >= 1.0 \
        else rng.random(n_sig) < det.signal_gate_acceptance

    bg_idx, bg_times, bg_gate = _background_events(
        rng, bg.total_rate, n, n * slot, slot, start_time, det.gate_fraction)

    # Signal clicks lead the merged stream: a survivor is signal iff keep < n_sig.
    times = np.concatenate([t.take(clicked), bg_times])
    order = np.argsort(times, kind="stable")
    times = times.take(order)
    survivors = dead_time_filter(times, det.dead_time)
    keep = order.take(survivors)
    is_signal = keep < n_sig
    # Each column is gathered at survivor length only: signal survivors from
    # their photons (click k is photon clicked[k]), background ones from bg.
    # The port hash is counter-based, so only surviving background is hashed.
    sig_at = np.flatnonzero(is_signal)
    bg_at = np.flatnonzero(~is_signal)
    sig_click = keep.take(sig_at)
    photon = clicked.take(sig_click)
    bg_pos = keep.take(bg_at) - n_sig
    bg_idx = bg_idx.take(bg_pos)
    bg_basis, bg_bit = analyzer_schedule.ports_at(bg_idx)

    def column(sig_values, bg_values):
        out = np.empty(len(keep), dtype=bg_values.dtype)
        out[sig_at] = sig_values
        out[bg_at] = bg_values
        return out

    return ClickStream(
        times.take(survivors),
        column(idx.take(photon), bg_idx),
        column(abasis.take(photon), bg_basis),
        column(abit.take(photon), bg_bit),
        column(True if sig_gate is None else sig_gate.take(sig_click),
               bg_gate.take(bg_pos)),
        is_signal,
    )


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

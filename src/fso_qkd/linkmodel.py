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
(geometric gaps over the slot lattice, as one vectorized exponential), so
cost scales with click counts, not symbol counts, and multi-gigasymbol
blocks stay cheap. No stage steps
through events in Python: each photon's sent state and analyzer port are
two-bit hash codes of its slot, and 4 * state + port is its row of the
16-entry (state, port) tables; the dead-time filter starts a survivor chain
at every cluster head (an event at least one dead time after its
predecessor) whose next event is not a head, and advances all chains a
round at a time, stepping a wide frontier through the next few events
before it searches: one round per survivor of the longest cluster, and no
table beyond the stream. Drift and the analyzer meet in the
one Stokes component that each photon's port reads,
A cos a + B sin a + C (1 - cos a), with (A, B, C) from tables of Rodrigues
terms built once per call. Photons are decided in
cache-sized slices; only their slot indices span the run. The drift angle is
monotone, so each of the 16 pass probabilities is bounded from a slice's
first and last angle; the bounds decide most photons' Malus test by two
table lookups, and slot times, cos and sin are computed only for the
photons the bounds leave undecided (and slot times for the clicks). The
clicks come out in time order, so only the background arrivals, about a
thousand a run, are sorted before they are inserted among them; each
``ClickStream`` column is gathered for the dead-time survivors alone.
"""
from __future__ import annotations

import math

import numpy as np

from .calibration import (
    arrival_rate,
    combined_polarization_error,
    dead_time_thinning,
    link_rates,
    pulse_click_probability,
    stokes_overlap,
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
from .polarization import PORT_STATES, SENT_STATES, port_columns, rodrigues_terms
from .record import ERROR_PROBABILITY, NONNEGATIVE, Record, check
from .seeding import mix64, rng_from, two_bit_codes

# Expected detector events (signal photons plus background arrivals) that
# one simulate_clicks call may hold, at a peak of about 13 bytes per event on
# OM4 at 25 us (0.26 GB at the budget), 32 where most photons survive (MMF25
# at dead time 0: 0.63 GB) and 53 on a 92 %-background block, whose arrivals'
# slots, times, gate flags and sort order live through the sort and merge (1.1 GB).
MAX_EXPECTED_EVENTS = 2e7


def dead_time_corrected(true_rate: float, dead_time: float) -> float:
    """Observed rate of a non-paralyzable detector fed at ``true_rate``."""
    check("rate", true_rate, NONNEGATIVE)
    check("dead time", dead_time, NONNEGATIVE)
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
    """Closed-form per-detector prediction for one operating point, from
    ``calibration.link_rates``.

    ``intrinsic_error`` is the matched-basis error of the system without
    fiber depolarization (alignment and extinction); it composes with
    ``ch.depol_p`` multiplicatively on the Poincaré sphere.
    """
    check("intrinsic_error", intrinsic_error, ERROR_PROBABILITY)
    return RatePrediction(*link_rates(
        src.symbol_rate, click_probability(src, ch, det), det.signal_gate_acceptance,
        bg.total_rate, det.gate_fraction, det.dead_time,
        combined_polarization_error(intrinsic_error, ch.depol_p)))


class ClickStream(Record):
    """Time-ordered detection events as logged by the time tagger."""

    timestamps: np.ndarray      # float64, seconds from the session origin
    symbol_indices: np.ndarray  # int64 slot of each event
    analyzer_ports: np.ndarray  # uint8 code of the port it met (a PORT_STATES row)
    in_gate: np.ndarray         # bool: inside the temporal gate
    is_signal: np.ndarray       # bool: a photon, not a background arrival


# While this many chains are open, each round steps every chain through the
# events after it before any binary search: a wide frontier's searchsorted
# mispredicts a branch at every level (51 ns per key on an OM4 block), and a
# key's answer lies 3.75 events on, on average. On 1e6 Poisson events at
# load*tau 0.3 to 40, 64..512 read alike, 2048 lost 7 % at load*tau 3, and
# 16 doubled the cost at 10, whose long clusters end in narrow rounds.
_PROBE_MIN_CHAINS = 256
# Events a chain is stepped through (at least one) before the search: 99.8 %
# of an OM4 block's keys are answered within 9; 8..16 read alike at load*tau
# 3, and 6, 4 and 2 cost 18, 53 and 87 % more.
_PROBE_STEPS = 8


def dead_time_filter(times: np.ndarray, dead_time: float) -> np.ndarray:
    """Surviving-event indices for a non-paralyzable detector (sorted input).

    An event survives iff it arrives at least ``dead_time`` after the last
    survivor; event 0 always survives. If event i survives, the next
    survivor is the first j > i with ``times[j] >= times[i] + dead_time``.
    A cluster head, an event at least ``dead_time`` after its predecessor,
    survives whatever came before it, and no survivor's successor lies past
    the next head. So the walk starts one survivor chain at every head whose
    next event is not a head (a head followed by a head has its next
    survivor there already) and advances all open chains together, one
    round at a time, until every chain has reached a head. While at least
    ``_PROBE_MIN_CHAINS`` are open, a round steps each chain through the
    next ``_PROBE_STEPS`` events and searches only for the keys not found
    there; a narrower frontier takes one ``searchsorted`` per round. That
    costs one round per survivor of the longest cluster and no table beyond
    the stream: the head and survivor masks and the open frontier. The heads
    are compared ``_EXACT_SLICE`` events at a time, so no stream-length
    ``times + dead_time`` is built. The walk peaks at 9.3, 11.4, 13.4, 4.3
    and 3.6 bytes per event at load*tau 0.1, 0.3, 1, 3 and 10 to 30 (200,000
    Poisson events; the probes' keys and indices set the peak at 0.3 and 1),
    under the 14 bytes per expected event of a block's peak. At a light load
    most events are heads followed by heads, and they cost no search.

    An arrival exactly one dead time after a survivor is kept when its time
    compares at least ``times[i] + dead_time`` in floating point. Slot times
    are ``start + (i + 0.5) * slot``, so when the dead time is a whole number
    of slots such a tie falls by rounding, and with the block's start time:
    at 5 and 12,500 slots 94 % of them were kept at start 0 and 88 % at 45 s,
    at 20 slots 76 % and 53 %. On the defaults that moves 0-4 of about
    116,800 survivors per OM4 block.
    """
    n = len(times)
    # head[n] is a sentinel that closes every chain running off the end.
    head = np.empty(n + 1, dtype=bool)
    head[0] = head[n] = True
    for start in range(1, n, _EXACT_SLICE):
        stop = min(start + _EXACT_SLICE, n)
        np.greater_equal(times[start:stop], times[start - 1:stop - 1] + dead_time,
                         out=head[start:stop])
    # one stream-length temporary at a time: the chains' starts before alive
    chain = np.flatnonzero(head[:n] > head[1:])
    alive = head[:n].copy()
    # A chain's key exceeds its own time: were times[i] + dead_time to round
    # back to times[i], event i + 1 would be a head and, rounding being
    # monotone, so would i, so no chain holds i. Every step moves strictly
    # forward and the walk ends. A probe past the end reads times[n - 1],
    # which is below the key, so that chain is left to the search (n).
    while chain.size >= _PROBE_MIN_CHAINS:
        key = times.take(chain) + dead_time
        chain += 1
        late = np.flatnonzero(times.take(chain, mode="clip") < key)
        for _ in range(1, _PROBE_STEPS):
            at = chain.take(late)
            at += 1
            chain[late] = at
            late = late.compress(times.take(at, mode="clip") < key.take(late))
        chain[late] = np.searchsorted(times, key.take(late), side="left")
        chain = chain.compress(~head.take(chain))
        alive[chain] = True
    while chain.size:
        step = np.searchsorted(times, times.take(chain) + dead_time, side="left")
        chain = step.compress(~head.take(step))
        alive[chain] = True
    return np.flatnonzero(alive)


# The sampler's first batch of gaps covers this many standard deviations
# beyond the expected detections, so a second batch is about a 1e-9 event.
_BATCH_SIGMAS = 6.0


def _sample_detection_indices(rng: np.random.Generator, n: int, q: float) -> np.ndarray:
    """Slot indices with a detectable photon: Bernoulli(q) per slot via gaps,
    ``rng.geometric(q)``'s draw for draw: below q = 1/3 they are numpy's own
    inversion, ceil(E / -log1p(-q)) over standard exponentials E, with the
    log1p hoisted out of the per-draw loop. The exponentials are drawn
    ``_EXACT_SLICE`` at a time into one buffer and ceiled straight into the
    int64 gaps, so the gaps are the only array that spans the run: 8 bytes per
    expected photon plus the 6-sigma overshoot, which the in-place trim to the
    slots below n hands back to the heap. The result owns its memory on
    every branch."""
    if q <= 0.0 or n == 0:
        return np.empty(0, dtype=np.int64)
    if q >= 1.0:
        return np.arange(n, dtype=np.int64)
    expected = n * q
    batch = int(expected + _BATCH_SIGMAS * math.sqrt(expected) + 16.0)
    chunks = []
    last = -1  # slot of the last detection so far
    while last < n:
        if q < 1.0 / 3.0:
            cum = np.empty(batch, dtype=np.int64)
            buf = np.empty(min(batch, _EXACT_SLICE))
            for start in range(0, batch, _EXACT_SLICE):
                gaps = buf[:min(batch - start, _EXACT_SLICE)]
                rng.standard_exponential(out=gaps)
                gaps /= -math.log1p(-q)
                np.ceil(gaps, out=cum[start:start + len(gaps)], casting="unsafe")
        else:
            cum = rng.geometric(q, size=batch)
        cum[0] += last  # the running sum carries it to every slot
        np.cumsum(cum, out=cum)
        chunks.append(cum)
        last = int(cum[-1])
        batch = max(batch // 2, 1024)
    # Trimmed in place, so the result owns its memory and the overshoot goes
    # back to the heap; no view of the last batch exists.
    cum.resize(np.searchsorted(cum, n, side="left"), refcheck=False)
    return cum if len(chunks) == 1 else np.concatenate(chunks)


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _slot_times(idx: np.ndarray, slot: float, start_time: float) -> np.ndarray:
    """Centre times ``start_time + (idx + 0.5) * slot`` of slots ``idx``, built in
    place in that rounding order, so any subset of slots gets the same times
    as the whole run."""
    t = idx + 0.5
    t *= slot
    t += start_time
    return t


def _malus_terms(kappa: float, axis) -> list[np.ndarray]:
    """(A, B, C): the Rodrigues terms of each sent state ``kappa *
    SENT_STATES[symbol]`` about ``axis``, read by each port of
    ``PORT_STATES``, as three 16-entry tables indexed by ``port_columns``.
    The products with the port vector select one component and fold in its
    +-1 sign exactly."""
    return [(t @ PORT_STATES.T).ravel() for t in rodrigues_terms(SENT_STATES * kappa, axis)]


def _pass_probability(column, terms, angles) -> np.ndarray:
    """Malus probability that each photon passes its analyzer port.

    Photon i is sent in its state times kappa, rotated about the drift axis
    by ``angles[i]`` and met by its port; ``column[i]`` is its row of the
    ``_malus_terms`` tables ``terms``. Every state and port lies on one
    Stokes axis, so the component the port reads is
    A cos a + B sin a + C (1 - cos a): a 4x4 table per call instead of an
    (n, 3) rotation. Each probability is rounded as the full rotation and dot
    product round it. A zero angle leaves A exact (cos 0 = 1,
    sin 0 = 1 - cos 0 = 0), so a drift-free run gives the unrotated
    probabilities bit for bit. ``simulate_clicks`` calls it only for the
    photons that ``_malus_clicks``' bounds leave undecided.
    """
    a_term, b_term, c_term = terms
    # ((A c) + (B s)) + (C (1 - c)) in place, in that rounding order, in three
    # buffers. column is always in range; mode="clip" lets take write into
    # its out buffer directly.
    term = np.sin(angles)
    x = b_term.take(column)
    term *= x
    a_term.take(column, out=x, mode="clip")
    c = np.cos(angles)
    x *= c
    x += term
    np.subtract(1.0, c, out=c)
    c *= c_term.take(column, out=term, mode="clip")
    x += c
    x += 1.0
    x *= 0.5
    return x


# Slack added to every bound of _malus_clicks: far above the last-ulp
# differences (about 1e-16) between one probability rounded two ways, and
# small enough to leave only about 2e-9 of the draws undecided at no drift.
_BOUND_SLACK = 1e-9
# Photons are decided this many at a time by simulate_clicks: a slice's
# temporaries peak near 1.7 MB (26 bytes a photon) beside its 0.5 MB of slots,
# about one core's L2 on a 2-vCPU Xeon, which lscpu lists as 4 MiB over 2
# instances, 2 MiB a core (2026-10-20). 2^16 beat 2^12..2^18 and the whole run
# on an OM4 block. The sampler draws its gaps this many at a time.
_EXACT_SLICE = 1 << 16


def _malus_clicks(u, column, terms, drift_rate: float, idx, slot: float,
                  start_time: float) -> np.ndarray:
    """Positions i with ``u[i] < _pass_probability(...)`` at photon i's drift
    angle ``drift_rate * _slot_times(idx, slot, start_time)[i]``.

    ``idx`` increases and ``drift_rate >= 0``, so every angle lies between
    the first and last photon's, a0 <= a1. On that range each of the 16
    (sent state, port) probabilities moves by at most
    (|A| + |B| + |C|)/2 per radian, so it lies within
    (|A| + |B| + |C|)(a1 - a0)/4 of the nearer endpoint's value. With
    ``_BOUND_SLACK`` for rounding, that bounds it to [lo, hi]: a draw below
    lo clicks, one at hi or above does not, and only the draws in between
    pay for slot times, cos and sin through ``_pass_probability``. The
    result equals the exact test's bit for bit; when the drift is slow
    against the run's span, almost every photon is decided by two table
    lookups.
    """
    if len(idx) == 0:
        return np.empty(0, dtype=np.int64)
    a0, a1 = ends = drift_rate * _slot_times(idx[[0, -1]], slot, start_time)
    p = _pass_probability(np.tile(np.arange(16), 2), terms, ends.repeat(16)).reshape(2, 16)
    slack = sum(np.abs(t) for t in terms) * (0.25 * (a1 - a0))
    slack += _BOUND_SLACK
    bound = (p.min(axis=0) - slack).take(column)
    clicked = u < bound
    (p.max(axis=0) + slack).take(column, out=bound, mode="clip")  # unbuffered
    undecided = u < bound
    del bound
    undecided ^= clicked  # clicked implies below hi
    j = np.flatnonzero(undecided)
    angles = _slot_times(idx.take(j), slot, start_time)
    angles *= drift_rate
    # the probabilities first, so their temporaries are gone before u's gather
    clicked[j] = _pass_probability(column.take(j), terms, angles) > u.take(j)
    return np.flatnonzero(clicked)


def expected_events(n: int, src: SourceParams, ch: ChannelParams, det: DetectorParams,
                    bg: BackgroundBudget, bg_key: str = "background.solar_rate") -> float:
    """Expected detector events (signal photons plus background arrivals) of
    an n-slot run.

    Raises ``ValidationError``, naming its larger term, for a run over
    ``MAX_EXPECTED_EVENTS``, which ``simulate_clicks`` cannot hold: the
    photons by ``source.mu_q``, the background by ``bg_key``, the key that
    sets the background rate.
    """
    slot = 1.0 / src.symbol_rate
    q = click_probability(src, ch, det)
    photons, background = n * min(q, 1.0), bg.total_rate * n * slot
    events = photons + background
    if events > MAX_EXPECTED_EVENTS:
        key, remedy = (("source.mu_q", "source.mu_q") if photons >= background
                       else (bg_key, "the background rate"))
        raise ValidationError(
            f"{key}: {n} symbols expect {photons:.3g} photons (source.mu_q "
            f"{src.mu_q:.3g}) plus {background:.3g} background arrivals "
            f"({bg.total_rate:.3g} cts/s) in one run, over the memory budget of "
            f"{MAX_EXPECTED_EVENTS:.0e} detector events; lower {remedy} or the symbols "
            "per run (session.symbols_per_block or sweep.symbols_per_point)")
    return events


def check_time_axis(n: int, src: SourceParams, ch: ChannelParams, start_time: float,
                    symbols_key: str) -> None:
    """Raise ``ValidationError`` for an n-slot run, ``start_time`` after the
    session origin, whose last slot time or drift angle overflows a float
    (its times or its rotation would be nan), or whose last slot time is so
    large that neighbouring floats lie more than a sixteenth of a slot apart
    (its slot times would collapse onto shared values, and dead time would
    no longer see the true gaps; at 0.5 GBd that is from 2**20 s on). A run
    too long at any start names ``symbols_key``, the key that sets n; the rest
    name ``session.block_duration_s``.

    No session block reaches the non-finite check: an earlier block of the
    session is refused first. The check serves a direct caller with a
    non-finite start; math.ulp(nan) > slot / 16 is false, so it alone
    refuses a nan start."""
    # simulate_clicks times slot i at start_time + (i + 0.5) * slot
    slot = 1.0 / src.symbol_rate
    span = (n - 0.5) * slot
    last = span + start_time
    if not math.isfinite(last):
        raise ValidationError(
            f"session.block_duration_s: a run that starts {start_time:.3g} s from the "
            "session origin has no finite slot times; lower session.block_duration_s")
    if ch.drift_rate > 0.0 and not math.isfinite(ch.drift_rate * last):
        raise ValidationError(
            f"channel.drift_rate: {ch.drift_rate:.3g} rad/s over {last:.3g} s from the "
            "session origin overflows the drift angle; lower channel.drift_rate or "
            "session.block_duration_s")
    for end, key, origin, remedy in ((span, symbols_key, "its own start", symbols_key),
                                     (last, "session.block_duration_s", "the session origin",
                                      "session.block_duration_s or the symbols per run")):
        if math.ulp(end) > slot / 16:
            raise ValidationError(
                f"{key}: a run that ends {end:.3g} s from {origin} resolves its slot "
                f"times only to {math.ulp(end):.3g} s, over a sixteenth of the "
                f"{slot:.3g} s slot; lower {remedy}")


def simulate_clicks(
    symbols,
    src: SourceParams,
    ch: ChannelParams,
    det: DetectorParams,
    bg: BackgroundBudget,
    schedule_seed: int | None = None,
    rng_seed: int = 0,
    intrinsic_error: float = 0.0,
    start_time: float = 0.0,
    drift_axis=None,
) -> ClickStream:
    """Monte Carlo detection run over ``symbols``; deterministic per seed.

    One SPAD sits behind one of the four key ports in each slot, the
    ``two_bit_codes`` of the slot under ``schedule_seed`` (derived from
    ``rng_seed`` when not given); a photon clicks with the Malus probability
    of that port and is otherwise absorbed.

    Polarization drift rotates the transmitted states about ``drift_axis``
    (drawn from the seed when not given) by ``ch.drift_rate * t_elapsed``
    with ``t_elapsed`` counted from the session origin, ``start_time`` into
    the past of this call. Background and dark counts arrive uniformly;
    dead time is enforced on the merged event stream. While the photons are
    decided, a slice at a time, only their slot indices span the run, and
    they are freed before the clicks meet the background. A call that
    ``expected_events`` or ``check_time_axis`` refuses raises its
    ``ValidationError`` before anything is allocated.
    """
    check("intrinsic_error", intrinsic_error, ERROR_PROBABILITY)
    n = len(symbols)
    expected_events(n, src, ch, det, bg)
    check_time_axis(n, src, ch, start_time, "symbols")
    slot = 1.0 / src.symbol_rate
    q = click_probability(src, ch, det)
    rng = rng_from(rng_seed)
    axis = np.asarray(drift_axis, dtype=float) if drift_axis is not None \
        else random_unit_vector(rng)
    if schedule_seed is None:
        schedule_seed = mix64(rng_seed, 0xA11A)

    terms = _malus_terms(stokes_overlap(intrinsic_error, ch.depol_p), axis)
    sig_idx = _decided_clicks(_sample_detection_indices(rng, n, q), symbols, schedule_seed,
                              terms, rng, ch.drift_rate, slot, start_time)
    sig_gate = np.ones(len(sig_idx), dtype=bool) if det.signal_gate_acceptance >= 1.0 \
        else rng.random(len(sig_idx)) < det.signal_gate_acceptance
    return _merged_survivors(
        sig_idx, sig_gate,
        _background_events(rng, bg.total_rate, n, slot, start_time, det.gate_fraction),
        det.dead_time, slot, start_time, schedule_seed)


def _decided_clicks(idx, symbols, schedule_seed: int, terms, rng, drift_rate: float,
                    slot: float, start_time: float) -> np.ndarray:
    """Slots of the photons at slots ``idx`` (increasing) that pass their
    analyzer port, decided ``_EXACT_SLICE`` at a time by ``_malus_clicks``
    on one uniform draw each.

    All gaps precede any u, and random(a) then random(b) draws random(a + b),
    so the slices click what one whole-run pass would. Each slice's clicked
    slots go back to the front of ``idx``, which never passes the slice
    being read, and ``idx``, which must own its memory and be held by no one
    else, is trimmed to them in place and returned: the photons' buffer never
    sits beside a copy of its clicks.
    """
    n_sig = 0
    for start in range(0, len(idx), _EXACT_SLICE):
        j = idx[start:start + _EXACT_SLICE]
        column = port_columns(symbols.codes_at(j), two_bit_codes(schedule_seed, j))
        j = j.take(_malus_clicks(rng.random(len(j)), column, terms, drift_rate, j, slot,
                                 start_time))
        idx[n_sig:n_sig + len(j)] = j
        n_sig += len(j)
    idx.resize(n_sig, refcheck=False)  # j ends as a copy: no view of idx is left
    return idx


def _merged_survivors(sig_idx, sig_gate, background, dead_time: float, slot: float,
                      start_time: float, schedule_seed: int) -> ClickStream:
    """The dead-time survivors of signal clicks at slots ``sig_idx`` (increasing)
    and of ``_background_events``' arrivals (in time order), as a ``ClickStream``.

    The clicks are in time order already, so the merge inserts each arrival
    after every click at or before its time: the order a stable sort of the
    clicks followed by the arrivals gives. The insert sets a block's peak
    memory: its output and mask beside the clicks' slots, gates and times,
    about 13 bytes per expected event on an OM4 block and 53 on a
    92 %-background one. Each column is gathered for the survivors alone,
    from the clicks' and the arrivals' own arrays: one take by click rank for
    all survivors, then the surviving arrivals' values.
    """
    bg_idx, bg_times, bg_gate = background
    times = _slot_times(sig_idx, slot, start_time)
    at = np.searchsorted(times, bg_times, side="right")
    times = np.insert(times, at, bg_times)
    survivors = dead_time_filter(times, dead_time)
    # Each arrival's position in the merged stream, then one past its end. A
    # survivor with k arrivals before it is arrival k if it sits at pos[k],
    # and click survivors - k otherwise.
    pos = np.append(at + np.arange(len(at)), len(times))
    times = times.take(survivors)
    k = np.searchsorted(pos, survivors)
    is_signal = pos.take(k) != survivors
    bg_at = np.flatnonzero(~is_signal)
    bg_rank = k.take(bg_at)
    rank = np.subtract(survivors, k, out=k)  # in 0..len(sig_idx) for every survivor
    columns = []
    for signal, arrivals in ((sig_idx, bg_idx), (sig_gate, bg_gate)):
        # Every survivor is gathered as a click, the arrivals' ranks clipped
        # into range; then the arrivals (on the defaults about 1 % of the
        # survivors) are overwritten.
        column = signal.take(rank, mode="clip") if len(signal) \
            else np.empty(len(rank), dtype=signal.dtype)
        column[bg_at] = arrivals.take(bg_rank)
        columns.append(column)
    slots, gate = columns
    # The port hash is a pure function of the slot, so survivors are hashed by
    # their slots alone.
    return ClickStream(times, slots, two_bit_codes(schedule_seed, slots), gate, is_signal)


def _background_events(rng, rate: float, n: int, slot: float, start_time: float,
                       gate_fraction: float):
    """Uniform Poisson background over the n-slot run: indices, timestamps, gate
    flags, in time order, equal times in draw order; at rate 0 nothing is drawn."""
    count = rng.poisson(rate * (n * slot))
    bidx = rng.integers(0, n, size=count)
    frac = rng.random(count)
    times = start_time + (bidx + frac) * slot
    in_gate = np.abs(frac - 0.5) <= gate_fraction / 2.0
    order = np.argsort(times, kind="stable")
    return bidx.take(order), times.take(order), in_gate.take(order)

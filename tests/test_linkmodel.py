"""Rate equations, presets, and each Monte Carlo stage against an exact reference."""
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fso_qkd.errors import ValidationError
from fso_qkd.linkmodel import (
    MAX_EXPECTED_EVENTS,
    ClickStream,
    _malus_clicks,
    _malus_terms,
    _pass_probability,
    dead_time_corrected,
    dead_time_filter,
    expected_rates,
    simulate_clicks,
    transmittance,
)
from fso_qkd.linkparams import (
    BackgroundBudget,
    ChannelParams,
    DetectorParams,
    FiberKind,
    SourceParams,
    fiber_preset,
)
from fso_qkd.polarization import STATE_TABLE, port_columns
from fso_qkd.protocol import alice_generate
from fso_qkd.scenario import resolve_config
from fso_qkd.seeding import hash_stream, rng_from, two_bit_codes
from fso_qkd import calibration, linkmodel
from fso_qkd.calibration import CALIBRATION


def quiet_channel(**kwargs) -> ChannelParams:
    defaults = dict(fso_loss_db=5.0, excess_loss_db=0.0, depol_p=0.0,
                    drift_rate=0.0, rx_insertion_db=0.0)
    defaults.update(kwargs)
    return ChannelParams(**defaults)


class TestTransmittance:
    def test_zero_loss(self):
        assert transmittance(0.0) == 1.0

    def test_ten_db(self):
        assert transmittance(10.0) == pytest.approx(0.1, rel=1e-12)

    def test_7_6_db(self):
        assert transmittance(7.6) == pytest.approx(10 ** -0.76, rel=1e-12)
        assert transmittance(7.6) == pytest.approx(0.1738, abs=1e-4)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            transmittance(-1.0)


class TestDeadTime:
    def test_zero_rate(self):
        assert dead_time_corrected(0.0, 25e-6) == 0.0

    def test_half_rate_at_unity_product(self):
        assert dead_time_corrected(40000.0, 25e-6) == pytest.approx(20000.0, rel=1e-12)

    def test_zero_dead_time(self):
        assert dead_time_corrected(12345.0, 0.0) == 12345.0

    @pytest.mark.parametrize("rate, dead_time, refusal", [
        (math.nan, 25e-6, "rate"), (40000.0, math.nan, "dead time")])
    def test_nan_refused(self, rate, dead_time, refusal):
        with pytest.raises(ValidationError, match=f"^{refusal} must be >= 0"):
            dead_time_corrected(rate, dead_time)

    def test_capped_by_inverse_dead_time(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            rate = 10 ** rng.uniform(0, 9)
            tau = 10 ** rng.uniform(-8, -3)
            out = dead_time_corrected(rate, tau)
            assert out <= min(rate, 1.0 / tau) + 1e-9


def greedy_survivors(times, dead_time) -> list[int]:
    """Reference rule, one event at a time: keep an event iff it arrives at
    least ``dead_time`` after the last kept event."""
    kept = []
    ready = -math.inf
    for i, t in enumerate(times):
        if t >= ready:
            kept.append(i)
            ready = t + dead_time
    return kept


def assert_matches_greedy(times, dead_time) -> np.ndarray:
    times = np.asarray(times, dtype=np.float64)
    kept = dead_time_filter(times, dead_time)
    assert kept.dtype == np.int64
    assert kept.tolist() == greedy_survivors(times.tolist(), dead_time)
    return kept


def count_searched_keys(monkeypatch) -> list[int]:
    """The number of keys of each ``np.searchsorted`` call linkmodel makes."""
    searched = []
    searchsorted = np.searchsorted

    def counting(a, v, *args, **kwargs):
        searched.append(len(v))
        return searchsorted(a, v, *args, **kwargs)

    monkeypatch.setattr(linkmodel.np, "searchsorted", counting)
    return searched


HEAD_PATTERNS = ["all-heads", "no-heads", "alternating", "equal-times"]


def head_pattern(pattern):
    """Streams for a dead time of 1: every event a head, none but event 0
    (each next survivor 4 events on), one-event clusters alternating with
    many-event ones, and clusters of equal timestamps."""
    if pattern == "all-heads":
        return np.arange(1000) * 2.5
    if pattern == "no-heads":
        return np.arange(1000) * 0.3
    if pattern == "alternating":
        sizes = [1 if c % 2 == 0 else 2 + c % 7 for c in range(200)]
        gaps = [[1.5] + [0.4] * (size - 1) for size in sizes]
        return np.cumsum(np.concatenate(gaps))
    rng = np.random.default_rng(29)
    starts = np.cumsum(rng.choice([0.2, 0.7, 1.0, 1.6], size=300))
    return np.repeat(starts, rng.integers(1, 6, size=300))


def poisson_stream(load_tau, dead_time=25e-6, n=20_000, seed=None):
    rng = np.random.default_rng(int(load_tau * 10) if seed is None else seed)
    return np.cumsum(rng.exponential(dead_time / load_tau, size=n))


def dead_time_stream(id, times, dead_time, survivors=None, check=None):
    """A row of DEAD_TIME_STREAMS: the greedy survivors are ``survivors`` where
    given, and ``check(times, kept, searched keys)`` holds where given."""
    return pytest.param(times, dead_time, survivors, check, id=id)


# Streams checked against the greedy rule at the walk's own settings and with
# every frontier probed through each of PROBE_STEPS. A new stream is a row.
DEAD_TIME_STREAMS = [
    dead_time_stream("empty", [], 1e-3, []),
    dead_time_stream("single", [7.0], 1e-3, [0]),
    # An event exactly one dead time on is kept, found by the probe at its first
    # step (event 3, a head that closes the chain) or a later one (event 4).
    dead_time_stream("one-dead-time-on-head", [0.0, 0.5, 1.0, 2.0, 2.5], 1.0, [0, 2, 3]),
    dead_time_stream("one-dead-time-on", [0.0, 0.5, 1.0, 1.75, 2.0, 2.25], 1.0, [0, 2, 4]),
    dead_time_stream("equal-timestamps", [0.0, 0.0, 0.0, 1.0, 1.0, 3.0, 3.0], 0.5, [0, 3, 5]),
    dead_time_stream("zero-dead-time", [0.0, 0.0, 1e-12, 1e-12, 2.0], 0.0, [0, 1, 2, 3, 4]),
    # t + tau rounds back to t: every later event, equal ones too, is due
    dead_time_stream("below-resolution", [1e20, 1e20, 1e20, 2e20], 1.0, [0, 1, 2, 3]),
    dead_time_stream("half-ulp", [1.0, 1.0, 1.0 + 2.0 ** -52, 2.0], 2.0 ** -53),
    # each event one dead time after the last, summed one at a time: all heads
    *[dead_time_stream(f"one-dead-time-apart-{tau!r}", np.cumsum(np.r_[0.0, np.full(4_999, tau)]),
                       tau, list(range(5_000))) for tau in (2.0 ** -10, 25e-6)],
    # A chain starts only at a head whose next event is not a head, so a
    # stream of heads alone searches nothing.
    *[dead_time_stream(pattern, head_pattern(pattern), 1.0, check=(
        lambda times, kept, searched, pattern=pattern:
        (sum(searched) > 0) == (pattern != "all-heads"))) for pattern in HEAD_PATTERNS],
    dead_time_stream("uniform-5000", np.sort(np.random.default_rng(8).uniform(0, 1.0, 5_000)),
                     1e-3, check=lambda times, kept, searched: len(kept) < len(times)),
    # a non-paralyzable detector keeps 1 / (1 + load tau) of a Poisson stream
    *[dead_time_stream(f"poisson-{load_tau}", poisson_stream(load_tau), 25e-6,
                       check=lambda times, kept, _, survival=1.0 / (1.0 + load_tau):
                       len(kept) / len(times) == pytest.approx(survival, rel=0.05))
      for load_tau in (0.1, 1.0, 3.0, 10.0, 30.0)],
    *[dead_time_stream(f"poisson-{load_tau}-2000", poisson_stream(load_tau, n=2_000), 25e-6)
      for load_tau in (0.1, 1.0, 3.0, 10.0)],
]

# Steps through which every chain is probed once the probe phase is forced on
# for any frontier (_PROBE_MIN_CHAINS = 1).
PROBE_STEPS = [1, 2, 8]


def force_probes(monkeypatch, steps):
    monkeypatch.setattr(linkmodel, "_PROBE_MIN_CHAINS", 1)
    monkeypatch.setattr(linkmodel, "_PROBE_STEPS", steps)


class TestDeadTimeFilterExact:
    @pytest.mark.parametrize("steps", [None] + PROBE_STEPS,
                             ids=lambda steps: f"probe-{steps}" if steps else "own")
    @pytest.mark.parametrize("times, dead_time, survivors, check", DEAD_TIME_STREAMS)
    def test_streams_match_greedy(self, monkeypatch, times, dead_time, survivors, check,
                                  steps):
        if steps is not None:
            force_probes(monkeypatch, steps)
        searched = count_searched_keys(monkeypatch)
        kept = assert_matches_greedy(times, dead_time)
        assert survivors is None or kept.tolist() == survivors
        assert check is None or check(times, kept, searched)

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=200),
           st.floats(min_value=0.0, max_value=20.0), st.sampled_from([None] + PROBE_STEPS))
    def test_random_streams_match_greedy(self, raw_times, dead_time, steps):
        """At the walk's own settings (steps None: no stream here opens 256
        chains) and with every frontier probed."""
        with pytest.MonkeyPatch.context() as monkeypatch:
            if steps is not None:
                force_probes(monkeypatch, steps)
            assert_matches_greedy(sorted(raw_times), dead_time)


class TestDeadTimeProbe:
    """The walk steps a wide frontier through the next events before it
    searches; it must keep exactly the greedy survivors at any step count."""

    @pytest.mark.parametrize("load_tau", [0.1, 1.0, 3.0])
    def test_poisson_streams_probe_wide_frontiers(self, monkeypatch, load_tau):
        """These streams start 964 to 4,633 chains; without the probe phase
        the first round would search a key for each."""
        times = poisson_stream(load_tau)
        dead_time = 25e-6
        head = np.concatenate([[True], times[1:] >= times[:-1] + dead_time, [True]])
        starts = np.count_nonzero(head[:-1] > head[1:])
        assert starts >= linkmodel._PROBE_MIN_CHAINS
        searched = count_searched_keys(monkeypatch)
        assert_matches_greedy(times, dead_time)
        assert searched[0] < starts / 10

    @pytest.mark.parametrize("steps", [1, 2, 3, 4, 8])
    def test_answers_within_the_probe_are_not_searched(self, monkeypatch, steps):
        """Each next survivor of the no-heads stream lies 4 events on: from 4
        steps the probe finds every one, and only the last survivor's key,
        past the end, is searched; with fewer steps every key is."""
        force_probes(monkeypatch, steps)
        searched = count_searched_keys(monkeypatch)
        assert_matches_greedy(head_pattern("no-heads"), 1.0)
        assert sum(searched) == (1 if steps >= 4 else len(range(0, 1000, 4)))


class TestFiberPresets:
    def test_mmf25(self):
        ch = fiber_preset(FiberKind.MMF25)
        assert ch.fso_loss_db == 17.8
        assert ch.alignment_stable

    def test_om4_loss_and_qber_target(self):
        ch = fiber_preset(FiberKind.OM4)
        assert ch.fso_loss_db == 7.0
        pred = expected_rates(
            SourceParams(), ch, DetectorParams(),
            BackgroundBudget(solar_rate=CALIBRATION.solar_1410),
            CALIBRATION.intrinsic_error_base)
        assert pred.qber == pytest.approx(0.19, abs=1e-6)

    def test_smf_flagged_unstable(self):
        ch = fiber_preset(FiberKind.SMF)
        assert ch.fso_loss_db >= 24.0
        assert not ch.alignment_stable


class TestBrent:
    """The stdlib Brent solve returns scipy's root bit for bit, so the
    calibration constants, and every config hash built on them, do not
    depend on scipy being installed."""

    def test_brent_matches_scipy_brentq(self, monkeypatch):
        from scipy.optimize import brentq as scipy_brentq

        def residual(lrx):
            return calibration._solve_at(lrx)[0] - calibration.ANCHOR_RAWKEY_EL0

        cases = [
            (residual, 0.01, 30.0, 1e-12),
            (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0, 1e-12),
            # equal |f| on both sides never passes the interpolation test, so
            # this bisects until the relative tolerance (at x ~ 3e7) stops it
            (lambda x: -1.0 if x < 1e8 / 3.0 else 1.0, 0.0, 1e8, 1e-12),
        ]
        for f, a, b, xtol in cases:
            assert calibration.brentq(f, a, b, xtol) == scipy_brentq(f, a, b, xtol=xtol)
        assert calibration.brentq(residual, 0.01, 30.0, 1e-12) == 6.655291206280735

        monkeypatch.setattr(calibration, "brentq",
                            lambda f, a, b, xtol: scipy_brentq(f, a, b, xtol=xtol))
        assert calibration._derive() == CALIBRATION

    def test_no_sign_change_rejected(self):
        with pytest.raises(ValueError):
            calibration.brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)


# Every derived constant, bit for bit. The anchor solve's background comes
# back from link_rates as x0 * s0 exactly only because GATE_FRACTION is a
# power of two, so a rewrite of the solve shows here first.
CALIBRATION_HEX = {
    "rx_insertion_db": "0x1.a9f04a871541ep+2",
    "e_combined_1410": "0x1.26436aed18b31p-4",
    "intrinsic_error_base": "0x1.027909d7d00f8p-4",
    "bg_total_1410": "0x1.30c3c28f13001p+8",
    "solar_1410": "0x1.30f0a3c4c0040p+2",
    "sifted_signal_el0": "0x1.180fb26929054p+12",
    "intrinsic_offset_1430": "0x1.260bc7b78d180p-7",
    "depol_om4": "0x1.28647823f0dc6p-2",
    "crosstalk_rate_at_0dbm": "0x1.3436ec8bb69b9p+8",
}


def test_calibration_fields_pinned():
    got = {name: float.hex(getattr(CALIBRATION, name))
           for name in CALIBRATION.field_names}
    assert got == CALIBRATION_HEX


class TestExpectedRates:
    def test_calibrated_baseline(self):
        pred = expected_rates(
            SourceParams(), fiber_preset(FiberKind.MMF25), DetectorParams(),
            BackgroundBudget(solar_rate=CALIBRATION.solar_1410),
            CALIBRATION.intrinsic_error_base)
        assert pred.qber == pytest.approx(0.079, abs=1e-9)
        assert pred.sifted_key_rate == pytest.approx(3.7e3, rel=1e-9)

    def test_threshold_at_7_6_db_excess(self):
        ch = fiber_preset(FiberKind.MMF25).with_excess_loss(7.6)
        pred = expected_rates(
            SourceParams(), ch, DetectorParams(),
            BackgroundBudget(solar_rate=CALIBRATION.solar_1410),
            CALIBRATION.intrinsic_error_base)
        assert pred.qber == pytest.approx(0.11, abs=1e-9)

    def test_no_signal_means_coin_flip(self):
        pred = expected_rates(
            SourceParams(mu_q=0.0), quiet_channel(), DetectorParams(),
            BackgroundBudget(solar_rate=100.0), 0.05)
        assert pred.signal_click_rate == 0.0
        assert pred.qber == 0.5

    def test_pure_intrinsic_error_passthrough(self):
        # no background, no darks, no depolarization: qber equals e exactly
        for e in (0.0, 0.03, 0.2):
            pred = expected_rates(
                SourceParams(), quiet_channel(), DetectorParams(dark_rate=0.0),
                BackgroundBudget(dark_rate=0.0), e)
            assert pred.qber == pytest.approx(e, abs=1e-15)

    def test_qber_monotone_in_excess_loss_and_backgrounds(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            ch = quiet_channel(fso_loss_db=rng.uniform(0, 20),
                               depol_p=rng.uniform(0, 0.4))
            det = DetectorParams()
            e = rng.uniform(0, 0.2)
            els = np.sort(rng.uniform(0, 25, size=6))
            qs = [expected_rates(SourceParams(), ch.with_excess_loss(el), det,
                                 BackgroundBudget(solar_rate=500.0), e).qber
                  for el in els]
            assert np.all(np.diff(qs) >= -1e-12)
            rates = [expected_rates(SourceParams(), ch.with_excess_loss(el), det,
                                    BackgroundBudget(solar_rate=500.0), e).sifted_key_rate
                     for el in els]
            assert np.all(np.diff(rates) <= 1e-12)
            solars = np.sort(rng.uniform(0, 5000, size=5))
            qs_bg = [expected_rates(SourceParams(), ch, det,
                                    BackgroundBudget(solar_rate=s), e).qber
                     for s in solars]
            assert np.all(np.diff(qs_bg) >= -1e-12)

    def test_bad_intrinsic_rejected(self):
        with pytest.raises(ValidationError):
            expected_rates(SourceParams(), quiet_channel(), DetectorParams(),
                           BackgroundBudget(), 0.7)


def full_rotation_pass_probability(bases, bits, abasis, abit, kappa, axis, angles):
    """Reference: rotate whole (n, 3) states by the ``np.cross`` Rodrigues form,
    then dot them with the port vectors."""
    states = STATE_TABLE[bases, bits] * kappa
    if angles is not None:
        c, sn = np.cos(angles)[:, None], np.sin(angles)[:, None]
        states = (states * c + np.cross(axis, states) * sn
                  + axis * (states @ axis)[:, None] * (1.0 - c))
    return 0.5 * (1.0 + np.einsum("ij,ij->i", states, STATE_TABLE[abasis, abit]))


# Every sent key state against each of the four key analyzer ports.
PHOTON_GRID = np.array([(b, bit, ab, abit) for b in (0, 1) for bit in (0, 1)
                        for ab in (0, 1) for abit in (0, 1)], dtype=np.uint8).T


def photon_columns(bases, bits, abasis, abit):
    """Table rows of photons given by basis and bit, through their symbol code
    bit * 2 + basis and their port code abasis * 2 + abit."""
    return port_columns(bits * 2 + bases, abasis * 2 + abit)


def port_of_slot(schedule_seed, slots):
    """Analyzer port code of each slot straight from its hash word w: w & 3."""
    return (hash_stream(schedule_seed, slots) & np.uint64(3)).astype(np.uint8)


def assert_pass_probability_matches(axis, kappa, angles):
    photons = PHOTON_GRID[:, np.arange(len(angles)) % PHOTON_GRID.shape[1]]
    column, terms = photon_columns(*photons), _malus_terms(kappa, axis)
    got = _pass_probability(column, terms, angles)
    assert np.array_equal(got, full_rotation_pass_probability(*photons, kappa, axis, angles))
    # without drift: zero angles give the unrotated probabilities bit for bit
    got = _pass_probability(column, terms, np.zeros_like(angles))
    assert np.array_equal(got, full_rotation_pass_probability(*photons, kappa, axis, None))


class TestPassProbability:
    """One Stokes component per photon equals the full rotation, bit for bit."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("kappa", [0.0, "random", 1.0])
    def test_matches_full_rotation(self, seed, kappa):
        rng = np.random.default_rng(seed)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        kappa = rng.uniform(0.0, 1.0) if kappa == "random" else kappa
        angles = np.concatenate([[0.0, 50.0, -50.0], rng.uniform(-50, 50, 24_000)])
        assert_pass_probability_matches(axis, kappa, angles)

    @given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
               lambda u: np.linalg.norm(u) > 1e-3),
           st.floats(0.0, 1.0),
           st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=100))
    @example([0.0, 0.0, -1.0], 0.9, list(np.linspace(-50.0, 50.0, 97)))  # on a Stokes axis
    def test_matches_full_rotation_property(self, raw_axis, kappa, angles):
        axis = np.array(raw_axis) / np.linalg.norm(raw_axis)
        assert_pass_probability_matches(axis, kappa, np.array(angles))


def malus_run(seed, size):
    """Strictly increasing slots at the OM4 detection probability (a run of
    2e5 photons spans about a second), the table rows of random sent states
    and ports, draws."""
    rng = np.random.default_rng(seed)
    idx = np.cumsum(rng.geometric(4e-4, size=size)) - 1
    photons = rng.integers(0, 2, size=(4, size), dtype=np.uint8)
    return idx, photon_columns(*photons), rng.random(size)


def exact_clicks(u, column, terms, drift_rate, idx, slot, start_time):
    """The unbounded test: every photon's slot time, drift angle and Malus
    probability, rounded in simulate_clicks' order."""
    angles = drift_rate * ((idx + 0.5) * slot + start_time)
    return np.flatnonzero(u < _pass_probability(column, terms, angles))


SLOT = 1.0 / SourceParams().symbol_rate


class TestMalusClicks:
    """The bounded decision clicks exactly the photons the exact test clicks."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.sampled_from([0, 1, 200_000]),
           st.sampled_from([0.0, 2e-4, 1e-2, 1.0, 1e3]),
           st.floats(0.0, 1.0),
           st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
               lambda u: np.linalg.norm(u) > 1e-3),
           st.sampled_from([0.0, 45.0, 400.0]))
    @example(1, 200_000, 0.0, 0.97, [0.6, 0.0, 0.8], 400.0)  # bounds decide every photon
    @example(2, 200_000, 1e3, 0.97, [0.6, 0.0, 0.8], 45.0)  # bounds decide none
    @example(3, 1, 1e3, 1.0, [0.0, 0.0, 1.0], 400.0)
    def test_matches_exact_test(self, seed, size, drift_rate, kappa, raw_axis, start_time):
        axis = np.array(raw_axis) / np.linalg.norm(raw_axis)
        idx, column, u = malus_run(seed, size)
        terms = _malus_terms(kappa, axis)
        got = _malus_clicks(u, column, terms, drift_rate, idx, SLOT, start_time)
        want = exact_clicks(u, column, terms, drift_rate, idx, SLOT, start_time)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_draws_on_the_probability_itself(self):
        """One-photon runs, where the bounds shrink to the photon's own
        probability plus the slack: a draw equal to the exact probability
        does not click and the next float below it does."""
        rng = np.random.default_rng(11)
        for _ in range(500):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            kappa = rng.uniform(0.0, 1.0)
            idx = rng.integers(0, 2_000_000_000, size=1)
            column = photon_columns(*rng.integers(0, 2, size=(4, 1), dtype=np.uint8))
            terms = _malus_terms(kappa, axis)
            drift_rate, start_time = rng.uniform(0.0, 10.0), rng.uniform(0.0, 400.0)
            angles = drift_rate * ((idx + 0.5) * SLOT + start_time)
            p = _pass_probability(column, terms, angles)
            for u, clicks in ((p, []), (np.nextafter(p, 0.0), [0])):
                got = _malus_clicks(u, column, terms, drift_rate, idx, SLOT, start_time)
                assert got.tolist() == clicks

    @pytest.mark.parametrize("drift_rate, exact", [(0.0, 0), (2e-4, None), (1e3, 200_000)])
    def test_bounds_decide_slow_drift_and_leave_fast_drift(self, monkeypatch, drift_rate,
                                                           exact):
        """Without drift the bounds decide every photon; at the default drift
        they leave a few in 10^4; at 1e3 rad/s over a second they decide none.
        The photons they leave are evaluated in one pass."""
        evaluated = []

        def counting(*args):
            evaluated.append(len(args[0]))
            return _pass_probability(*args)

        monkeypatch.setattr(linkmodel, "_pass_probability", counting)
        axis = np.array([0.6, 0.0, 0.8])
        idx, column, u = malus_run(5, 200_000)
        terms = _malus_terms(0.97, axis)
        got = _malus_clicks(u, column, terms, drift_rate, idx, SLOT, 45.0)
        assert np.array_equal(got, exact_clicks(u, column, terms, drift_rate, idx, SLOT, 45.0))
        bounds, undecided = evaluated
        assert bounds == 32  # both ends of every (sent state, port) pair
        if exact is None:
            assert 0 < undecided < 200_000 * 1e-3
        else:
            assert undecided == exact


def peak_bytes_per_event(call, events) -> float:
    """The peak of the heap ``call()`` traces, per one of ``events``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / events
    finally:
        tracemalloc.stop()


def filter_run(load_tau, seed):
    """The walk over 200,000 Poisson events at ``load_tau`` (25 us dead time)."""
    times = poisson_stream(load_tau, n=200_000, seed=seed)
    return (lambda: dead_time_filter(times, 25e-6)), len(times)


def block_run(overrides, holds=lambda load_tau, background: True):
    """One block of the config ``overrides`` resolve to and its expected events,
    where ``holds(detector load*tau, background share of the events)``."""
    config = resolve_config(overrides)
    n = config.symbols_per_block
    src, ch, det, bg = config.source, config.channel, config.detector, config.background
    events = linkmodel.expected_events(n, src, ch, det, bg)
    assert holds(linkmodel.detector_load(src, ch, det, bg) * det.dead_time,
                 bg.total_rate * n / src.symbol_rate / events)
    alice = alice_generate(n, 5)
    return (lambda: simulate_clicks(alice, src, ch, det, bg, rng_seed=7,
                                    intrinsic_error=config.intrinsic_error)), events


MMF25_2E10 = {"detector.dead_time": 2e-4, "session.symbols_per_block": 2e10}
# Row id: (run, args, bound): the call run(*args) gives peaks at no more than
# bound bytes per event. A new memory bound is a row.
PEAK_MEMORY = {
    # The walk holds no stream-length float: its heads are compared a slice at
    # a time (about 4.3, 3.6 and 3.6 bytes per event at load*tau 3, 10 and 30;
    # a whole-stream times + dead_time alone would be 8). At light loads the
    # probes' keys and indices, one each per chain, set its peak (about 9.3,
    # 11.4 and 13.4 at 0.1, 0.3 and 1): under a block's 14, never its peak.
    **{f"filter-{load_tau}": (filter_run, (load_tau, seed), bound)
       for load_tau, seed, bound in [(3.0, 3, 6.0), (10.0, 10, 6.0), (30.0, 30, 6.0),
                                     (0.1, 1, 14.0), (0.3, 3, 14.0), (1.0, 10, 14.0)]},
    # A default 2e9-symbol OM4 block (about 13), whether the bounds decide most
    # photons (default drift) or none (50 rad/s, where the decide stage comes
    # within 0.1 of the peak): the slot indices are trimmed in place to the
    # clicks, never copied beside the photons; the merge's insert sets the peak.
    "om4": (block_run, ({"channel.fiber_kind": "OM4"},), 14.0),
    "om4-50-rad-s": (block_run, ({"channel.fiber_kind": "OM4", "channel.drift_rate": 50.0},),
                     14.0),
    # An MMF25 block of 2e10 symbols at a 200 us dead time (load*tau 1.85),
    # near the loads where the walk's probes hold the most (about 14). With no
    # dead time every event survives and the clicks' columns and gathers are
    # stream-sized (about 31; MAX_EXPECTED_EVENTS quotes 32).
    "mmf25-200us": (block_run, (MMF25_2E10, lambda load_tau, _: 1.0 < load_tau < 3.0), 16.0),
    "mmf25-0": (block_run, (MMF25_2E10 | {"detector.dead_time": 0.0},
                            lambda load_tau, _: load_tau == 0.0), 34.0),
    # A default MMF25 block at 2e5 cts/s of sunlight, 92 % of whose expected
    # events are background arrivals (about 53; 1.1 GB at the event budget, as
    # MAX_EXPECTED_EVENTS quotes): their slots, fractions, times, gate flags
    # and sort order live through the sort, and the merge and walk beside them.
    "background-92": (block_run, ({"background.mode": "explicit", "background.solar_rate": 2e5},
                                  lambda _, background: background > 0.9), 60.0),
}


@pytest.mark.parametrize("row", PEAK_MEMORY)
def test_peak_memory_per_event(row):
    run, args, bound = PEAK_MEMORY[row]
    assert peak_bytes_per_event(*run(*args)) <= bound


# Gap probabilities on both sides of numpy's switch from inversion to search
# at 1/3, from a detection probability far below any link's.
GAP_Q = [1e-7, 4.3e-4, 0.02, 0.3333, float(np.nextafter(1.0 / 3.0, 0.0)), 1.0 / 3.0, 0.7]


def geometric_detection_indices(rng, n, q):
    """Reference sampler: every gap from ``rng.geometric``, batched as
    ``_sample_detection_indices`` batches. No slots or no chance of a photon
    give no slot, and q = 1 every slot, without a draw."""
    if n == 0 or q == 0.0:
        return np.empty(0, dtype=np.int64)
    if q == 1.0:
        return np.arange(n, dtype=np.int64)
    expected = n * q
    batch = int(expected + linkmodel._BATCH_SIGMAS * math.sqrt(expected) + 16.0)
    chunks, last = [], -1
    while True:
        cum = np.cumsum(rng.geometric(q, size=batch)) + last
        if cum[-1] >= n:
            chunks.append(cum[cum < n])
            return np.concatenate(chunks)
        chunks.append(cum)
        last = int(cum[-1])
        batch = max(batch // 2, 1024)


# (n, q, _BATCH_SIGMAS): n slots at detection probability q, the first batch
# _BATCH_SIGMAS deviations beyond the expected detections, checked against
# the reference. A new sampler case is a row.
SAMPLER_CASES = [
    # on either side of 1/3, also where a batch spans several 2^16-draw slices
    # (over 330,000 gaps at q = 0.3333)
    *[(n, q, 6.0) for q in GAP_Q for n in (1, 1_000, 300_000, 1_000_000)],
    # A first batch six deviations short of the expected detections: more
    # batches follow, each half as long but at least 1024 gaps (longer than
    # the first when few are expected).
    *[(n, q, -6.0) for q in GAP_Q for n in (1_000, 1_000_000)],
    # q = 1 (a source.mu_q of 1000 at no loss rounds to it): every slot; no
    # slots, or no chance of a photon: none
    (1_000, 1.0, 6.0), (0, 0.3, 6.0), (0, 1.0, 6.0), (1_000, 0.0, 6.0),
]


def sampler_cases(refill):
    """The rows of SAMPLER_CASES whose first batch falls short (refill) or not."""
    return [pytest.param(n, q, sigmas, id=f"{n}-{q!r}")
            for n, q, sigmas in SAMPLER_CASES if (sigmas < 0) == refill]


def assert_sampler_matches_reference(monkeypatch, n, q, sigmas):
    """The reference's slots, as int64, and generator state, seed for seed;
    the slots own their memory (trimmed in place, or concatenated)."""
    monkeypatch.setattr(linkmodel, "_BATCH_SIGMAS", sigmas)
    for seed in range(5):
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        got = linkmodel._sample_detection_indices(ours, n, q)
        assert got.dtype == np.int64
        assert np.array_equal(got, geometric_detection_indices(reference, n, q))
        assert ours.bit_generator.state == reference.bit_generator.state
        assert got.base is None
    return got


class TestStreamFacts:
    """The two facts of numpy's generator stream that simulate_clicks' sampling
    and sliced decisions rest on. If numpy changes either, these fail before
    any golden or click pin does."""

    @pytest.mark.parametrize("q", [q for q in GAP_Q if q < 1.0 / 3.0])
    def test_exponential_gaps_are_numpys_geometric(self, q):
        """Below 1/3, ceil(E / -log1p(-q)) over standard exponentials E gives
        ``rng.geometric(q)``'s gaps and leaves the generator where it does."""
        for seed in range(40):
            ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
            gaps = ours.standard_exponential(2_000)
            gaps /= -math.log1p(-q)
            got = np.ceil(gaps, out=gaps).astype(np.int64)
            assert np.array_equal(got, numpys.geometric(q, size=2_000))
            assert ours.bit_generator.state == numpys.bit_generator.state

    @pytest.mark.parametrize("cut", [0, 1, 777, 1 << 16])
    def test_exponentials_fill_slices_in_stream_order(self, cut):
        """``standard_exponential`` drawn into consecutive ``out=`` slices of one
        buffer draws what one whole call does."""
        total = 3 * (1 << 16) + 5
        split, whole = np.random.default_rng(cut), np.random.default_rng(cut)
        parts = np.empty(total)
        split.standard_exponential(out=parts[:cut])
        split.standard_exponential(out=parts[cut:])
        assert np.array_equal(parts, whole.standard_exponential(total))
        assert split.bit_generator.state == whole.bit_generator.state

    @pytest.mark.parametrize("cut", [0, 1, 777, 1 << 16])
    def test_uniform_draws_split_anywhere(self, cut):
        """``random(a)`` then ``random(b)`` draws ``random(a + b)``."""
        total = 3 * (1 << 16) + 5
        split, whole = np.random.default_rng(cut), np.random.default_rng(cut)
        parts = np.concatenate([split.random(cut), split.random(total - cut)])
        assert np.array_equal(parts, whole.random(total))
        assert split.bit_generator.state == whole.bit_generator.state

    @pytest.mark.parametrize("n, q, sigmas", sampler_cases(refill=False))
    def test_sampler_draws_the_geometric_gaps(self, monkeypatch, n, q, sigmas):
        assert_sampler_matches_reference(monkeypatch, n, q, sigmas)

    @pytest.mark.parametrize("n, q, sigmas", sampler_cases(refill=True))
    def test_sampler_refills_draw_for_draw(self, monkeypatch, n, q, sigmas):
        got = assert_sampler_matches_reference(monkeypatch, n, q, sigmas)
        expected = n * q
        if expected >= 100:  # the first batch did not reach n
            assert len(got) > int(expected + sigmas * math.sqrt(expected) + 16.0)


def whole_run_clicks(symbols, src, ch, det, bg, schedule_seed, rng_seed, intrinsic_error,
                     start_time, axis):
    """Reference composition: ``simulate_clicks`` with every photon's symbols,
    ports and draw taken at once and decided by one ``_malus_clicks`` call."""
    n = len(symbols)
    slot = 1.0 / src.symbol_rate
    rng = rng_from(rng_seed)
    idx = linkmodel._sample_detection_indices(rng, n, linkmodel.click_probability(src, ch, det))
    kappa = calibration.stokes_overlap(intrinsic_error, ch.depol_p)
    column = port_columns(symbols.codes_at(idx), port_of_slot(schedule_seed, idx))
    clicked = _malus_clicks(rng.random(len(idx)), column, _malus_terms(kappa, axis),
                            ch.drift_rate, idx, slot, start_time)
    sig_idx = idx.take(clicked)
    n_sig = len(sig_idx)
    sig_gate = np.ones(n_sig, dtype=bool) if det.signal_gate_acceptance >= 1.0 \
        else rng.random(n_sig) < det.signal_gate_acceptance
    background = linkmodel._background_events(
        rng, bg.total_rate, n, slot, start_time, det.gate_fraction)
    return concatenated_merge(sig_idx, sig_gate, background, det.dead_time, slot,
                              start_time, schedule_seed)


def concatenated_merge(sig_idx, sig_gate, background, dead_time, slot, start_time,
                       schedule_seed):
    """Reference merge: clicks followed by background arrivals in one array,
    put in time order by a stable argsort, filtered for dead time, and every
    column gathered through the sort's permutation."""
    bg_idx, bg_times, bg_gate = background
    n_sig = len(sig_idx)
    times = np.concatenate([linkmodel._slot_times(sig_idx, slot, start_time), bg_times])
    order = np.argsort(times, kind="stable")
    times = times.take(order)
    survivors = dead_time_filter(times, dead_time)
    keep = order.take(survivors)
    slots = np.concatenate([sig_idx, bg_idx]).take(keep)
    return ClickStream(times.take(survivors), slots, port_of_slot(schedule_seed, slots),
                       np.concatenate([sig_gate, bg_gate]).take(keep), keep < n_sig)


def assert_same_stream(got, want):
    for name in CLICK_COLUMNS:
        column, expected = getattr(got, name), getattr(want, name)
        assert column.dtype == expected.dtype and np.array_equal(column, expected), name


class TestSlicedDecide:
    """Deciding the photons 2^16 at a time clicks what one whole-run pass does."""

    @pytest.mark.parametrize("drift_rate", [0.0, calibration.DRIFT_RATE_DEFAULT, 50.0])
    @pytest.mark.parametrize("photons", [0, 1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1,
                                         3 * (1 << 16) + 5])
    def test_matches_whole_run(self, monkeypatch, drift_rate, photons):
        def spread(rng, n, q):  # exactly ``photons`` increasing slots in [0, n)
            return np.cumsum(rng.integers(1, n // max(photons, 1) + 1, size=photons)) - 1

        monkeypatch.setattr(linkmodel, "_sample_detection_indices", spread)
        assert linkmodel._EXACT_SLICE == 1 << 16
        symbols = alice_generate(2_000_000_000, 61)  # 4 s of slots
        src, det, bg = (SourceParams(), DetectorParams(signal_gate_acceptance=0.8),
                        BackgroundBudget(solar_rate=5e4))
        ch = quiet_channel(fso_loss_db=13.0, depol_p=0.05, drift_rate=drift_rate)
        axis = np.array([0.6, 0.0, 0.8])
        got = simulate_clicks(symbols, src, ch, det, bg, 67, rng_seed=71,
                              intrinsic_error=0.03, start_time=50.0, drift_axis=axis)
        want = whole_run_clicks(symbols, src, ch, det, bg, 67, 71, 0.03, 50.0, axis)
        assert np.count_nonzero(want.is_signal) >= photons // 10
        assert_same_stream(got, want)

    def test_tables_built_once_per_call(self, monkeypatch):
        """Every slice reads the one set of Malus tables built for the call."""
        built = []

        def counting(*args):
            built.append(args)
            return _malus_terms(*args)

        monkeypatch.setattr(linkmodel, "_malus_terms", counting)
        clicks = simulate_clicks(alice_generate(2_000_000_000, 61), SourceParams(),
                                 quiet_channel(fso_loss_db=13.0, drift_rate=50.0),
                                 DetectorParams(), BackgroundBudget(), rng_seed=71)
        assert np.count_nonzero(clicks.is_signal) > 3 * linkmodel._EXACT_SLICE // 10
        assert len(built) == 1


def background_at(rng, slots, fracs, start_time):
    """``_background_events``' arrays for arrivals at ``slots`` plus ``fracs``
    of a slot, in time order, with random gate flags."""
    slots, fracs = np.asarray(slots, dtype=np.int64), np.asarray(fracs, dtype=float)
    times = start_time + (slots + fracs) * SLOT
    order = np.argsort(times, kind="stable")
    return (slots.take(order), times.take(order),
            rng.random(len(slots)).take(order) < 0.5)


class TestMergedSurvivors:
    """Inserting the sorted background among the clicks gives the stream that
    concatenating both and sorting stably gave, column for column."""

    @pytest.mark.parametrize("dead_time", [0.0, 3.5 * SLOT, calibration.DEAD_TIME])
    @pytest.mark.parametrize("case", ["ties", "random", "no-signal", "no-background",
                                      "empty"])
    def test_matches_concatenated_sort(self, case, dead_time):
        rng = np.random.default_rng(83)
        start_time = 45.0
        if case == "ties":  # arrivals at a click's own time, before and after
            sig_idx = np.array([10, 20, 30], dtype=np.int64)
            background = background_at(rng, [20, 20, 19, 31], [0.5, 0.5, 0.9, 0.1],
                                       start_time)
        else:
            n_sig = 0 if case in ("no-signal", "empty") else 20_000
            sig_idx = np.sort(rng.choice(100_000, size=n_sig, replace=False)).astype(np.int64)
            slots = rng.integers(0, 100_000,
                                 size=0 if case in ("no-background", "empty") else 1_200)
            fracs = rng.random(len(slots))
            if n_sig and len(slots):  # every fourth arrival exactly at a click's time
                slots[::4], fracs[::4] = sig_idx[:300], 0.5
            background = background_at(rng, slots, fracs, start_time)
        sig_gate = rng.random(len(sig_idx)) < 0.8
        got = linkmodel._merged_survivors(sig_idx, sig_gate, background, dead_time, SLOT,
                                          start_time, 89)
        want = concatenated_merge(sig_idx, sig_gate, background, dead_time, SLOT,
                                  start_time, 89)
        assert_same_stream(got, want)
        if case == "ties" and dead_time == 0.0:  # each click precedes its tied arrivals
            assert got.symbol_indices.tolist() == [10, 19, 20, 20, 20, 30, 31]
            assert got.is_signal.tolist() == [True, False, True, False, False, True, False]


class TestMonteCarlo:
    def test_no_light_no_clicks(self):
        alice = alice_generate(10_000, 3)
        clicks = simulate_clicks(
            alice, SourceParams(), quiet_channel(fso_loss_db=float("inf")),
            DetectorParams(dark_rate=0.0), BackgroundBudget(dark_rate=0.0),
            rng_seed=4)
        assert clicks.timestamps.size == 0

    def test_background_without_photons(self):
        """No photon reaches the SPAD (q = 0): the stream is the background
        arrivals alone, as the whole-run reference merges them."""
        symbols, axis = alice_generate(100_000, 3), np.array([0.0, 0.0, 1.0])
        src, det = SourceParams(mu_q=0.0), DetectorParams(dead_time=1e-8)
        ch, bg = quiet_channel(), BackgroundBudget(solar_rate=1e7, dark_rate=0.0)
        got = simulate_clicks(symbols, src, ch, det, bg, 5, rng_seed=1, drift_axis=axis)
        assert got.timestamps.size > 100 and not got.is_signal.any()
        assert_same_stream(got, whole_run_clicks(symbols, src, ch, det, bg, 5, 1, 0.0,
                                                 0.0, axis))

    def test_photons_without_clicks(self):
        """Every slot has a photon (q = 1) and, at these seeds, none passes its
        port: the photon buffer is trimmed to nothing and the stream is the
        background arrivals alone."""
        symbols, axis = alice_generate(4, 3), np.array([0.0, 0.0, 1.0])
        src, det = SourceParams(mu_q=1000.0), DetectorParams(dead_time=0.0)
        ch, bg = quiet_channel(fso_loss_db=0.0), BackgroundBudget(solar_rate=1e9,
                                                                   dark_rate=0.0)
        assert linkmodel.click_probability(src, ch, det) == 1.0
        got = simulate_clicks(symbols, src, ch, det, bg, 0, rng_seed=1, drift_axis=axis)
        assert got.timestamps.size > 0 and not got.is_signal.any()
        assert_same_stream(got, whole_run_clicks(symbols, src, ch, det, bg, 0, 1, 0.0,
                                                 0.0, axis))

    def test_over_memory_budget_rejected(self):
        """Expected background alone past the event budget is refused up front."""
        src = SourceParams()
        n = 1_000_000_000
        solar = 2.0 * MAX_EXPECTED_EVENTS * src.symbol_rate / n
        with pytest.raises(ValidationError, match="source.mu_q"):
            simulate_clicks(alice_generate(n, 1), src, quiet_channel(fso_loss_db=float("inf")),
                            DetectorParams(), BackgroundBudget(solar_rate=solar), rng_seed=2)

    @pytest.mark.parametrize("start_time, refusal", [
        (2.0**20 - 1.0, None),
        (2.0**20, "resolves its slot times only to 2.33e-10 s"),
        (float("inf"), "has no finite slot times"),
        # math.ulp(nan) > slot / 16 is false: only the finiteness check refuses nan
        (float("nan"), "has no finite slot times"),
    ], ids=["below-2**20-s", "at-2**20-s", "inf", "nan"])
    def test_collapsed_time_axis_refused(self, start_time, refusal):
        """At 0.5 GBd (a 2 ns slot) floats lie 2**-33 s, 0.058 slot, apart just
        below 2**20 s and 2**-32 s, 0.116 slot, from there on. A one-slot run
        whose slot time lies where floats are over a sixteenth of a slot apart
        is refused before anything is drawn, and so is one with no finite slot
        time (an infinite or nan start); one a second before 2**20 s runs."""
        args = (alice_generate(1, 1), SourceParams(), quiet_channel(), DetectorParams(),
                BackgroundBudget())
        if refusal:
            with pytest.raises(ValidationError, match=f"^session.block_duration_s: .*{refusal}"):
                simulate_clicks(*args, rng_seed=2, start_time=start_time)
        else:
            clicks = simulate_clicks(*args, rng_seed=2, start_time=start_time)
            assert clicks.timestamps.size <= 1

    def test_empty_symbols_empty_stream(self):
        clicks = simulate_clicks(alice_generate(0, 1), SourceParams(),
                                 quiet_channel(), DetectorParams(),
                                 BackgroundBudget(), rng_seed=2)
        assert clicks.timestamps.size == 0

    def test_same_seed_bit_identical(self):
        alice = alice_generate(500_000, 21)
        kwargs = dict(src=SourceParams(), ch=quiet_channel(depol_p=0.1),
                      det=DetectorParams(), bg=BackgroundBudget(solar_rate=2000.0),
                      rng_seed=77, intrinsic_error=0.05)
        a = simulate_clicks(alice, **kwargs)
        b = simulate_clicks(alice, **kwargs)
        assert np.array_equal(a.timestamps, b.timestamps)
        assert np.array_equal(a.symbol_indices, b.symbol_indices)
        assert np.array_equal(a.analyzer_ports, b.analyzer_ports)
        assert np.array_equal(a.in_gate, b.in_gate)

    @pytest.mark.parametrize("drift_rate", [0.0, 3.0])
    @pytest.mark.parametrize("dead_time", [0.0, calibration.DEAD_TIME])
    @pytest.mark.parametrize("acceptance", [1.0, 0.7])
    @pytest.mark.parametrize("bg", [BackgroundBudget(solar_rate=5e4),
                                    BackgroundBudget(dark_rate=0.0)],
                             ids=["background", "no-background"])
    def test_stream_invariants(self, drift_rate, dead_time, acceptance, bg):
        """Time order, slot timing and dead time hold, and every click's
        analyzer port is read off the hash word w of its slot, port code
        w & 3, signal or not."""
        alice = alice_generate(2_000_000, 5)
        src = SourceParams()
        det = DetectorParams(dead_time=dead_time, signal_gate_acceptance=acceptance,
                             dark_rate=bg.dark_rate)
        clicks = simulate_clicks(alice, src, quiet_channel(drift_rate=drift_rate), det, bg,
                                 schedule_seed=8, rng_seed=9)
        # both kinds of click survive, unless there is no background
        assert set(clicks.is_signal.tolist()) == {True, bg.total_rate == 0.0}
        gaps = np.diff(clicks.timestamps)
        assert np.all(gaps >= dead_time)
        implied = np.floor(clicks.timestamps * src.symbol_rate).astype(np.int64)
        assert np.array_equal(implied, clicks.symbol_indices)
        assert np.array_equal(port_of_slot(8, clicks.symbol_indices), clicks.analyzer_ports)


CLICK_COLUMNS = ("timestamps", "symbol_indices", "analyzer_ports", "in_gate", "is_signal")
# The pins were taken when the port code was stored as two columns, its
# basis code port >> 1 and its bit port & 1.
PINNED_COLUMNS = ("timestamps", "symbol_indices", "analyzer_basis_codes", "analyzer_bits",
                  "in_gate", "is_signal")


def pinned_columns(clicks):
    """The six columns of ``PINNED_COLUMNS``, the port code split as pinned."""
    port = clicks.analyzer_ports
    return (clicks.timestamps, clicks.symbol_indices, port >> 1, port & 1, clicks.in_gate,
            clicks.is_signal)


# sha256 of each ClickStream column, pinned before the click assembly was
# rewritten. The golden CLI runs never read timestamps or is_signal, so these
# pins are what hold those columns. The first two runs drift under heavy
# background; the third has neither drift nor background. The drift goes
# through numpy's float64 sin/cos, so like the golden CLI pins they hold for
# one platform's vectorized kernels.
DRIFTING = quiet_channel(fso_loss_db=13.0, depol_p=0.05, drift_rate=3.0)
CLICK_PINS = {
    "acceptance-0.8": (
        DetectorParams(signal_gate_acceptance=0.8), DRIFTING, BackgroundBudget(solar_rate=1e5),
        ["d30eb86d4a8d378a33c25cadeba3659eb98ae866dae3c463dc39864fede8696d",
         "002f4df46cb077666a8869ebd91b8a1f447b9a4af076ec9a430705560a2a4dc7",
         "9564718fd6753282feadf540c700e023563f9ec4e5598b50d36fb6a503855bdc",
         "3bd8cf15bd5e6cceb551ab678ecf1753aeb7e378bb789599ca8cd07fdcb077f9",
         "376ef8f5b74cfb3e46aacfa828e715c42cac8774e54f54326066dc433b663868",
         "c3dbbbf82d723a251c75af47772dccf9d10ef7580f27f4af7e9046c8ae4a4211"],
    ),
    "no-dead-time": (
        DetectorParams(dead_time=0.0), DRIFTING, BackgroundBudget(solar_rate=1e5),
        ["1fa5ea65d40aec0bf2b26908adbf39b6744ba1b24c29dcbc5a00c9be8349b5a0",
         "d0583495d34043cbae6e34500ee13fec84f827668ada53f0f0ba729b939e12cb",
         "f34ae6b48be2beb6d6572ae84a0683ff5362e3ad563dcbd16a89d68f317b9f29",
         "de9093388a7bdb6263d7bc0f4d6b41359e6e0d598144f1c31853fb6bc7cf24e3",
         "745639fca29bc684d4b3a9a28cb9c9e842cf7e3cefd2aa3a7721175b8c2ee6ff",
         "3c853f56c3571a34b5dccbdd6f798fb4d6c4155ab8c784d86a65302f18e0f262"],
    ),
    "no-drift-no-background": (
        DetectorParams(signal_gate_acceptance=0.7), quiet_channel(
            fso_loss_db=13.0, depol_p=0.05, drift_rate=0.0), BackgroundBudget(dark_rate=0.0),
        ["b339e04a81558b1b1b709d9091cb7e88ec81b4b6ec16142375ec4fbed53268d0",
         "535fe60673df3fcba2fce75a387ceff932d48e6c26b9d6bde2f8be226eb416e1",
         "5dcd0eb28ab8c98f023fdce6962f6fea2e188437147e952591befd534dda55be",
         "1d0c8ea789caccf8230b54cb624d0375f28b8099db634acf0b858144d5d41991",
         "c87237c282283e4b274a25e70d4d79c8fd028c08fd75f2f9325bbb5772c10067",
         "0b8d8739ec526cedcdb2f789226160109e851a559398d3ea113cabaf939d7e6d"],
    ),
}


class TestClickStreamPins:
    """Every column of three small runs: two with drift and background at
    load*tau ~ 5.7, one with neither."""

    @pytest.mark.parametrize("case", sorted(CLICK_PINS))
    def test_columns_match_pins(self, case):
        det, channel, bg, pins = CLICK_PINS[case]
        clicks = simulate_clicks(
            alice_generate(50_000_000, 41), SourceParams(), channel, det, bg,
            rng_seed=43, intrinsic_error=0.03, start_time=50.0)
        digests = [hashlib.sha256(np.ascontiguousarray(column).tobytes()).hexdigest()
                   for column in pinned_columns(clicks)]
        assert dict(zip(PINNED_COLUMNS, digests)) == dict(zip(PINNED_COLUMNS, pins))


class TestTwoBitCodes:
    def test_deterministic_uint8_codes(self):
        idx = np.arange(1000)
        codes = two_bit_codes(99, idx)
        assert codes.dtype == np.uint8
        assert np.array_equal(codes, two_bit_codes(99, idx))
        assert set(codes.tolist()) == {0, 1, 2, 3}

"""Session logic: symbols, sifting, block stats, key bound; MC counts against the model."""
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from scipy.stats import chi2_contingency, entropy, norm

from fso_qkd.coexistence import crosstalk_background
from fso_qkd.errors import ValidationError
from fso_qkd.linkmodel import (
    ClickStream,
    expected_events,
    expected_rates,
    random_unit_vector,
    simulate_clicks,
)
from fso_qkd.linkparams import (
    BackgroundBudget,
    ChannelParams,
    DetectorParams,
    SourceParams,
)
from fso_qkd.polarization import Basis
from fso_qkd.protocol import (
    BlockStats,
    Run,
    alice_generate,
    run_block,
    run_session,
    secure_fraction,
    sift,
)
from fso_qkd.scenario import resolve_config
from fso_qkd.seeding import hash_stream, mix64, rng_from
from test_scenario_cli import domain_of


def quiet_channel(**kwargs) -> ChannelParams:
    defaults = dict(fso_loss_db=6.0, excess_loss_db=0.0, depol_p=0.0,
                    drift_rate=0.0, rx_insertion_db=0.0)
    defaults.update(kwargs)
    return ChannelParams(**defaults)


def symbols_at(alice, idx):
    """Basis codes and bits of Alice's symbols at ``idx``: a symbol code c
    sends basis c & 1 and bit c >> 1."""
    code = alice.codes_at(idx)
    return code & 1, code >> 1


def symbol(alice, i: int) -> tuple[Basis, int]:
    """Alice's symbol i as (basis, bit), read through the array interface."""
    bases, bits = symbols_at(alice, np.array([i]))
    return Basis(bases[0]), int(bits[0])


def stream_from_rows(rows) -> ClickStream:
    """Build a ClickStream from (timestamp, index, basis, bit, in_gate) rows,
    each analyzer port given by its ``Basis`` and bit: port code 2 * basis + bit."""
    ts, idx, bas, bit, gate = zip(*rows) if rows else ((),) * 5
    ports = [2 * int(Basis(b)) + int(k) for b, k in zip(bas, bit)]
    return ClickStream(
        np.array(ts, dtype=np.float64), np.array(idx, dtype=np.int64),
        np.array(ports, dtype=np.uint8), np.array(gate, dtype=bool),
        np.ones(len(rows), bool))


class TestAliceGenerate:
    def test_zero_length(self):
        assert len(alice_generate(0, 1)) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            alice_generate(-1, 1)

    def test_uniform_frequencies(self):
        n = 1_000_000
        alice = alice_generate(n, 12345)
        idx = np.arange(n)
        bases, bits = symbols_at(alice, idx)
        code = bases * 2 + bits
        counts = np.bincount(code, minlength=4)
        for c in counts:
            assert abs(c / n - 0.25) < 0.002  # 3-sigma binomial bound is 0.0013

    def test_same_seed_identical(self):
        a = alice_generate(10_000, 9)
        b = alice_generate(10_000, 9)
        idx = np.arange(10_000)
        (a_bases, a_bits), (b_bases, b_bits) = symbols_at(a, idx), symbols_at(b, idx)
        assert np.array_equal(a_bases, b_bases)
        assert np.array_equal(a_bits, b_bits)

    def test_item_access_matches_vector_access(self):
        alice = alice_generate(1000, 77)
        idx = np.arange(1000)
        bases, bits = symbols_at(alice, idx)
        for i in (0, 13, 999):
            basis, bit = symbol(alice, i)
            assert int(basis) == bases[i]
            assert bit == bits[i]

    def test_out_of_range_index(self):
        with pytest.raises(ValidationError):
            alice_generate(10, 1).codes_at(np.array([10]))
        with pytest.raises(ValidationError):
            alice_generate(10, 1).codes_at(np.array([-1]))

    def test_symbols_are_the_low_bits_of_the_hash_word(self):
        """Symbol i's basis is w & 1 and its bit (w >> 1) & 1, for w the hash
        word of i under Alice's seed."""
        alice = alice_generate(10_000, 23)
        idx = np.arange(10_000)
        w = hash_stream(23, idx)
        bases, bits = symbols_at(alice, idx)
        assert bases.dtype == bits.dtype == np.uint8
        assert np.array_equal(bases, w & np.uint64(1))
        assert np.array_equal(bits, (w >> np.uint64(1)) & np.uint64(1))


class TestSift:
    def test_no_clicks(self):
        result = sift(alice_generate(100, 1), stream_from_rows([]))
        assert result.kept == 0

    def test_noiseless_matching_clicks_agree(self):
        alice = alice_generate(1000, 4)
        idx = np.arange(0, 1000, 7)
        rows = [((i + 0.5) * 2e-9, i, *symbol(alice, i), True) for i in idx]
        result = sift(alice, stream_from_rows(rows))
        assert (result.kept, result.mismatches) == (len(idx), 0)

    def test_out_of_gate_clicks_dropped(self):
        alice = alice_generate(100, 4)
        rows = [(1e-9, 0, *symbol(alice, 0), False)]
        assert sift(alice, stream_from_rows(rows)).kept == 0

    def test_cross_basis_clicks_excluded_from_key(self):
        # A port of the other basis reads neither of Alice's states, whatever
        # its bit, so the basis comparison alone drops the click.
        alice = alice_generate(100, 4)
        rows = [((i + 0.5) * 2e-9, i, Basis(1 - symbol(alice, i)[0]), i, True)
                for i in (0, 1)]
        rows.append(((5 + 0.5) * 2e-9, 5, *symbol(alice, 5), True))
        result = sift(alice, stream_from_rows(rows))
        assert (result.kept, result.mismatches) == (1, 0)  # symbol 5 alone

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**64 - 1),
           st.lists(st.tuples(st.integers(0, 49), st.integers(0, 3), st.booleans()),
                    max_size=80))
    def test_matches_basis_and_bit_rule(self, seed, clicks):
        """Random port codes, gates and duplicate symbols: of each symbol's
        earliest gated click, a port code c of basis c >> 1 and bit c & 1 keeps
        the bit where its basis is Alice's, and errs where its bit is not hers."""
        alice = alice_generate(50, seed)
        earliest = {}
        for i, port, gate in clicks:
            if gate:
                earliest.setdefault(i, port)
        kept = mismatches = 0
        for i, port in earliest.items():
            basis, bit = symbol(alice, i)
            if basis == port >> 1:
                kept += 1
                mismatches += bit != port & 1
        rows = [(float(t), i, Basis(port >> 1), port & 1, gate)
                for t, (i, port, gate) in enumerate(clicks)]
        result = sift(alice, stream_from_rows(rows))
        assert (result.kept, result.mismatches) == (kept, mismatches)

    def test_duplicate_symbol_keeps_earliest(self):
        alice = alice_generate(100, 4)
        basis, bit = symbol(alice, 3)
        rows = [(3.0e-9 * 2, 3, basis, 0, True), (3.1e-9 * 2, 3, basis, 1, True)]
        result = sift(alice, stream_from_rows(rows))
        assert result.kept == 1
        assert result.mismatches == int(bit != 0)  # Bob's bit 0, from the earlier click

    def test_duplicate_slots_apart_count_once(self):
        """Arrivals at the edge of slots b and b + 1 can share one float time,
        in draw order: slots b, b + 1, b. Slot b counts once, from its earliest
        row, though its two rows are not adjacent."""
        alice = alice_generate(100, 4)
        (basis, bit), neighbour = symbol(alice, 40), symbol(alice, 41)
        rows = [(82e-9, 40, basis, bit, True), (82e-9, 41, *neighbour, True),
                (82e-9, 40, basis, 1 - bit, True)]
        result = sift(alice, stream_from_rows(rows))
        assert (result.kept, result.mismatches) == (2, 0)

    def test_no_dead_time_duplicates_count_once(self):
        """With no dead time, background arrivals share gated slots with clicks
        and with each other; each announced symbol is still sifted once, from
        its earliest gated click."""
        alice = alice_generate(1_000_000, 41)
        clicks = simulate_clicks(alice, SourceParams(), quiet_channel(),
                                 DetectorParams(dead_time=0.0, dark_rate=0.0),
                                 BackgroundBudget(solar_rate=3e7, dark_rate=0.0), rng_seed=43)
        at = np.flatnonzero(clicks.in_gate)
        gated = clicks.symbol_indices[at]
        assert len(gated) - len(np.unique(gated)) > 100  # duplicates exist
        earliest = {}
        for i, k in zip(gated.tolist(), at.tolist()):
            earliest.setdefault(i, k)
        first = np.array(list(earliest.values()))
        bases, bits = symbols_at(alice, np.array(list(earliest)))
        ports = clicks.analyzer_ports[first]
        match = ports >> 1 == bases
        errors = match & (ports & 1 != bits)
        result = sift(alice, clicks)
        assert (result.kept, result.mismatches) == (match.sum(), errors.sum())
        # counted with its duplicates, more would be kept
        assert result.kept < np.count_nonzero(
            clicks.analyzer_ports[at] >> 1 == symbols_at(alice, gated)[0])


class TestBlockStats:
    def test_operating_point_numbers(self):
        stats = BlockStats(0.0, 0.27, gated_clicks=2000, kept_bits=1000, mismatches=79)
        assert stats.qber == pytest.approx(0.079, abs=1e-12)
        assert stats.raw_key_rate == pytest.approx(1000 / 0.27, rel=1e-12)
        assert (stats.kept_bits, stats.gated_clicks) == (1000, 2000)

    def test_zero_mismatches(self):
        assert BlockStats(0.0, 1.0, 10, kept_bits=10, mismatches=0).qber == 0.0

    def test_all_mismatched(self):
        assert BlockStats(0.0, 1.0, 10, kept_bits=10, mismatches=10).qber == 1.0

    def test_empty_block_flagged(self):
        stats = BlockStats(0.0, 1.0, 0, kept_bits=0, mismatches=0)
        assert stats.flag == "insufficient_data"
        assert stats.raw_key_rate == 0.0

    def test_bad_duration(self):
        with pytest.raises(ValidationError):
            BlockStats(0.0, 0.0, 1, kept_bits=1, mismatches=0)

    @pytest.mark.parametrize("mismatches", [11, -1], ids=["over-kept", "negative"])
    def test_mismatches_outside_kept_bits_refused(self, mismatches):
        with pytest.raises(ValidationError, match=f"mismatches {mismatches} not in"):
            BlockStats(0.0, 1.0, 10, kept_bits=10, mismatches=mismatches)


class TestSecureFraction:
    def test_perfect_channel(self):
        assert secure_fraction(0.0) == 1.0

    def test_threshold_vanishing_point(self):
        assert secure_fraction(0.11) <= 1e-3

    def test_against_entropy_oracle(self):
        # independent entropy path through scipy
        for q in (0.01, 0.079, 0.05, 0.109):
            h2 = float(entropy([q, 1 - q], base=2))
            assert secure_fraction(q) == pytest.approx(max(0.0, 1 - 2 * h2), abs=1e-12)
        assert secure_fraction(0.079) == pytest.approx(0.203, abs=0.002)

    def test_monotone_and_zero_beyond_threshold(self):
        grid = np.linspace(0, 0.25, 201)
        vals = [secure_fraction(q) for q in grid]
        assert np.all(np.diff(vals) <= 1e-12)
        for q in np.linspace(0.111, 0.5, 50):
            assert secure_fraction(q) == 0.0

    def test_domain(self):
        with pytest.raises(ValidationError):
            secure_fraction(0.6)
        with pytest.raises(ValidationError):
            secure_fraction(-0.01)


class ModelCase(NamedTuple):
    """A Monte Carlo run and the statistics of it that must meet the closed form.
    ``config`` is a flat override map that ``resolve_config`` builds the run's
    parameters from, its symbols by ``session.symbols_per_block``."""
    config: dict
    seeds: tuple[int, int]  # Alice's, then the clicks'
    stats: tuple[str, ...] = ("signal", "background", "kept", "qber")
    min_kept: int = 1  # kept bits a QBER is compared on at least
    kappa: bool = False  # the classical channel's crosstalk added, as in an enabled block


# The hand rows' base: 6 dB, and no drift, depolarization, insertion loss,
# intrinsic error or solar background. A row overrides the keys it changes.
QUIET = {"channel.fso_loss_db": 6.0, "channel.depol_p": 0.0, "channel.drift_rate": 0.0,
         "channel.rx_insertion_db": 0.0, "background.mode": "explicit",
         "protocol.intrinsic_error": 0.0}


def random_row(seed: int) -> ModelCase:
    """A random operating point over QUIET, drawn from ``seed`` in the order written."""
    rng = np.random.default_rng(seed)
    keys = ("channel.fso_loss_db", "channel.excess_loss_db", "channel.depol_p",
            "background.solar_rate", "protocol.intrinsic_error")
    ranges = ((6, 14), (0, 3), (0, 0.3), (0, 3000.0), (0, 0.1))
    drawn = {key: rng.uniform(low, high) for key, (low, high) in zip(keys, ranges)}
    return ModelCase({**QUIET, "session.symbols_per_block": 20_000_000, **drawn},
                     (seed + 1, seed + 2))


MODEL_CASES = {
    **{f"random-{seed}": random_row(seed) for seed in (101, 202, 303, 404, 505)},
    "depolarized": ModelCase({**QUIET, "session.symbols_per_block": 4_000_000,
                              "channel.fso_loss_db": 5.0, "channel.depol_p": 1.0,
                              "detector.dark_rate": 0.0}, (31, 32), ("qber",)),
    "partial-gate": ModelCase(  # non-default gating under heavy dead time
        {**QUIET, "session.symbols_per_block": 20_000_000, "channel.fso_loss_db": 9.0,
         "channel.depol_p": 0.05, "detector.gate_fraction": 0.3,
         "detector.signal_gate_acceptance": 0.7, "background.solar_rate": 4000.0,
         "protocol.intrinsic_error": 0.04}, (5, 6), ("signal", "kept")),
    "kept-half": ModelCase({**QUIET, "session.symbols_per_block": 4_000_000}, (8, 15),
                           ("half",)),
    **{f"noiseless-{s}": ModelCase({**QUIET, "session.symbols_per_block": 2_000_000,
                                    "detector.dark_rate": 0.0}, (s, s + 100), ("qber",))
       for s in (1, 2, 3)},
    # the model expects 99,989 kept bits: the floor sits 5 Poisson sigma under it
    "many-kept": ModelCase({**QUIET, "session.symbols_per_block": 3_300_000_000,
                            "channel.fso_loss_db": 13.0, "channel.depol_p": 0.02,
                            "background.solar_rate": 4.76, "protocol.intrinsic_error": 0.0631},
                           (51, 52), ("qber",), min_kept=98_400),
    # default session blocks, without the drift the closed form lacks
    "om4-load-3": ModelCase({"channel.drift_rate": 0.0, "channel.fiber_kind": "OM4"}, (61, 62)),
    "kappa-on": ModelCase({"channel.drift_rate": 0.0}, (71, 72), kappa=True),
}


def model_agreement(case: ModelCase) -> dict[str, tuple[float, float, float]]:
    """(Monte Carlo, model, sigma) of each statistic ``case`` names: gated
    ``signal`` and ``background`` clicks and ``kept`` bits against
    ``expected_rates`` times the duration at sqrt(mu), none below mu = 10; the
    ``qber`` at the model's binomial sigma; ``half``, kept against gated / 2."""
    cfg = resolve_config(case.config)
    src, ch, det = cfg.source, cfg.channel, cfg.detector
    bg = cfg.background.with_crosstalk(crosstalk_background(cfg.classical)) if case.kappa \
        else cfg.background
    alice = alice_generate(cfg.symbols_per_block, case.seeds[0])
    clicks = simulate_clicks(alice, src, ch, det, bg, rng_seed=case.seeds[1],
                             intrinsic_error=cfg.intrinsic_error)
    sifted = sift(alice, clicks)
    model = expected_rates(src, ch, det, bg, cfg.intrinsic_error)
    duration = cfg.symbols_per_block / src.symbol_rate
    gated = int(np.count_nonzero(clicks.in_gate))
    signal = int(np.count_nonzero(clicks.in_gate & clicks.is_signal))
    rows = {stat: (count, rate * duration, math.sqrt(rate * duration)) for stat, count, rate in (
        ("signal", signal, model.signal_click_rate), ("kept", sifted.kept, model.sifted_key_rate),
        ("background", gated - signal, model.background_click_rate)) if rate * duration >= 10}
    rows["half"] = (sifted.kept, gated / 2, math.sqrt(gated * 0.25))
    if "qber" in case.stats:
        assert sifted.kept >= case.min_kept
        q = model.qber
        rows["qber"] = (sifted.mismatches / sifted.kept, q, math.sqrt(q * (1 - q) / sifted.kept))
    return {stat: rows[stat] for stat in case.stats if stat in rows}


def disagreements(case: ModelCase, z: float) -> list:
    """The statistics of ``case`` farther than ``z`` sigma from the model, or
    unequal to it where the sigma is 0."""
    return [(stat, row) for stat, row in model_agreement(case).items()
            if not abs(row[0] - row[1]) <= z * row[2]]


@pytest.mark.parametrize("case", MODEL_CASES.values(), ids=MODEL_CASES)
def test_monte_carlo_meets_model(case):
    """Every statistic within 3 sigma of the model, and equal where its sigma is 0."""
    assert disagreements(case, 3.0) == []


SLOT = 1.0 / SourceParams.symbol_rate
EVENTS = 200_000  # expected detector events of a generated run
MAX_SYMBOLS = 10**12  # a run of no events, or few, stops here (2,000 s)
EXAMPLES = 100
Z_FAMILY = float(norm.isf(0.001 / (2 * 4 * EXAMPLES)))  # 4.85; see test_valid_configs_meet_model
# The physical sub-range each key is drawn in, beside its table's closed bounds.
# Drift stays 0, as link_rates has no drift term. The fiber kind is not drawn:
# it picks only the preset losses and depol_p, which are drawn themselves.
LONG_DEAD_TIME = {
    "source.mu_q": (0.5, 8.0),
    "channel.fso_loss_db": (0.0, 14.0),
    "channel.excess_loss_db": (0.0, 3.0),
    "channel.rx_insertion_db": (0.0, 3.0),
    "channel.depol_p": (0.0, 0.3),
    "detector.dark_rate": (0.0, 1e4),
    "detector.dead_time": (50 * SLOT, 15_800 * SLOT),
    "detector.gate_fraction": (0.05, 1.0),
    "detector.signal_gate_acceptance": (0.3, 1.0),
    "background.solar_rate": (0.0, 1e6),
    "protocol.intrinsic_error": (0.0, 0.1),
}


@st.composite
def model_cases(draw, ranges: dict, edges: bool = True) -> ModelCase:
    """A ModelCase of a valid config at drift 0, each key of ``ranges`` inside
    its sub-range there or, one key in eight with ``edges``, at a closed bound
    of the interval ``domain_of`` reads for it, so a table written too wide is
    drawn. Its symbols make EVENTS expected events, and it compares the QBER
    where the model expects at least 100 kept bits."""
    config = {"channel.drift_rate": 0.0, "background.mode": "explicit"}
    for key, (low, high) in ranges.items():
        lo, hi, ends = domain_of(key)
        bounds = [b for b, closed in ((lo, ends[0] == "["), (hi, ends[1] == "]"))
                  if closed and math.isfinite(b)]
        # sampled_from picks evenly, where st.integers would favour 0
        at_bound = edges and bounds and draw(st.sampled_from(range(8))) == 0
        config[key] = draw(st.sampled_from(bounds) if at_bound else st.floats(low, high))
    cfg = resolve_config(config)
    src, ch, det, bg = cfg.source, cfg.channel, cfg.detector, cfg.background
    per_symbol = expected_events(1, src, ch, det, bg)
    symbols = round(EVENTS / max(per_symbol, EVENTS / MAX_SYMBOLS))
    kept = expected_rates(src, ch, det, bg, cfg.intrinsic_error).sifted_key_rate \
        * symbols / src.symbol_rate
    stats = ("signal", "background", "kept") + ("qber",) * (kept >= 100)
    seeds = (draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**32 - 1)))
    return ModelCase({**config, "session.symbols_per_block": symbols}, seeds, stats)


@settings(max_examples=EXAMPLES, derandomize=True, deadline=None)
@given(case=model_cases(LONG_DEAD_TIME))
def test_valid_configs_meet_model(case):
    """Valid configs drawn from the domain tables meet the closed form.

    Each example compares up to k = 4 statistics and the test draws
    N = EXAMPLES examples, so each z is held to the family-wise bound
    Z_FAMILY = PhiInverse(1 - 0.001 / (2kN)), about 4.85: by Bonferroni, a
    correct Monte Carlo fails a fresh draw of N examples with probability at
    most 0.001, and less, since the Poisson sigma overstates the spread of
    dead-time survivors. Where sigma is 0 the counts must be equal. Dead
    times are 0, the table's closed bound, or at least 50 slots: there the
    slot lattice's excess over the Poisson dead-time form (ROADMAP item 4)
    is at most about +2.3 sigma at EVENTS events."""
    assert disagreements(case, Z_FAMILY) == []


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 4: below about 50 slots the Monte Carlo's slot lattice keeps "
    "more clicks than link_rates' Poisson dead-time form"))
# Without the shrink phase: shrinking would only re-run a known failure.
@settings(max_examples=EXAMPLES, derandomize=True, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(case=model_cases({**LONG_DEAD_TIME, "detector.dead_time": (SLOT, 25 * SLOT)},
                        edges=False))
def test_short_dead_times_meet_model(case):
    """Dead times of 1-25 slots, the band the Poisson form misses, under the
    same bound as test_valid_configs_meet_model."""
    assert disagreements(case, Z_FAMILY) == []


class TestEndToEnd:
    def test_basis_blindness(self):
        """Analyzer schedule choice must not change per-kept-bit error odds."""
        src = SourceParams()
        ch = quiet_channel(fso_loss_db=10.0, depol_p=0.1)
        det = DetectorParams(dark_rate=0.0)
        bg = BackgroundBudget(dark_rate=0.0)
        alice = alice_generate(20_000_000, 60)
        table = []
        for sched_seed in (61, 62):
            clicks = simulate_clicks(
                alice, src, ch, det, bg,
                schedule_seed=sched_seed,
                rng_seed=63, intrinsic_error=0.03)
            sifted = sift(alice, clicks)
            table.append([sifted.mismatches, sifted.kept - sifted.mismatches])
        _, p_value, _, _ = chi2_contingency(np.array(table))
        assert p_value > 0.01

    def test_run_session_rate_equation_oracle_at_high_loss(self):
        cfg = resolve_config({"channel.excess_loss_db": 20.0})
        pred = expected_rates(cfg.source, cfg.channel, cfg.detector,
                              cfg.background, cfg.intrinsic_error)
        assert pred.qber > 0.11
        assert secure_fraction(pred.qber) == 0.0

    def test_zero_length_session(self):
        cfg = resolve_config({"session.blocks": 0})
        assert run_session(cfg) == []

    def test_saturated_block_flagged(self):
        cfg = resolve_config({
            "channel.fso_loss_db": 0.0,
            "channel.rx_insertion_db": 0.0,
            "channel.excess_loss_db": 0.0,
            "session.blocks": 1,
            "session.symbols_per_block": 1000,
        })
        stats = run_session(cfg)
        assert stats[0].flag == "saturated"
        assert (stats[0].qber, stats[0].raw_key_rate, stats[0].gated_clicks) == (0.0, 0.0, 0)

    def test_session_block_is_pure_function_of_index_and_axis(self):
        """Each session block equals a standalone run_block call for its index,
        in any order, given the session's shared drift axis."""
        cfg = resolve_config({"channel.fiber_kind": "OM4", "channel.drift_rate": 0.02,
                              "session.blocks": 3, "session.symbols_per_block": 20_000_000})
        stats = run_session(cfg)
        axis = random_unit_vector(rng_from(mix64(cfg.rng_seed, 19)))
        n = cfg.symbols_per_block
        for block in reversed(range(cfg.blocks)):
            start = block * cfg.block_duration_s
            standalone = run_block(cfg, Run(block, (11, 13, 17), n, cfg.channel,
                                            cfg.background, start, axis))
            assert standalone.kept_bits > 0
            assert standalone.block_start == start
            assert stats[block] == standalone

    def test_session_blocks_deterministic(self):
        cfg = resolve_config({"session.blocks": 3,
                              "session.symbols_per_block": 50_000_000})
        a = run_session(cfg)
        b = run_session(cfg)
        assert [s.qber for s in a] == [s.qber for s in b]
        assert [s.raw_key_rate for s in a] == [s.raw_key_rate for s in b]

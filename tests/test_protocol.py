"""Session logic: symbol generation, sifting dialogue, block stats, key bound."""
import math

import numpy as np
import pytest
from scipy.stats import chi2_contingency, entropy

from fso_qkd.errors import ValidationError
from fso_qkd.linkmodel import (
    ClickStream,
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


def quiet_channel(**kwargs) -> ChannelParams:
    defaults = dict(fso_loss_db=6.0, excess_loss_db=0.0, depol_p=0.0,
                    drift_rate=0.0, rx_insertion_db=0.0)
    defaults.update(kwargs)
    return ChannelParams(**defaults)


def symbol(alice, i: int) -> tuple[Basis, int]:
    """Alice's symbol i as (basis, bit), read through the array interface."""
    bases, bits = alice.symbols_at(np.array([i]))
    return Basis(bases[0]), int(bits[0])


def stream_from_rows(rows) -> ClickStream:
    """Build a ClickStream from (timestamp, index, basis, bit, in_gate) rows;
    a basis is a ``Basis`` or a raw analyzer code."""
    ts, idx, bas, bit, gate = zip(*rows) if rows else ((),) * 5
    return ClickStream(
        np.array(ts, dtype=np.float64), np.array(idx, dtype=np.int64),
        np.array([int(b) for b in bas], dtype=np.uint8), np.array(bit, dtype=np.uint8),
        np.array(gate, dtype=bool), np.ones(len(rows), bool))


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
        bases, bits = alice.symbols_at(idx)
        code = bases * 2 + bits
        counts = np.bincount(code, minlength=4)
        for c in counts:
            assert abs(c / n - 0.25) < 0.002  # 3-sigma binomial bound is 0.0013

    def test_same_seed_identical(self):
        a = alice_generate(10_000, 9)
        b = alice_generate(10_000, 9)
        idx = np.arange(10_000)
        (a_bases, a_bits), (b_bases, b_bits) = a.symbols_at(idx), b.symbols_at(idx)
        assert np.array_equal(a_bases, b_bases)
        assert np.array_equal(a_bits, b_bits)

    def test_item_access_matches_vector_access(self):
        alice = alice_generate(1000, 77)
        idx = np.arange(1000)
        bases, bits = alice.symbols_at(idx)
        for i in (0, 13, 999):
            basis, bit = symbol(alice, i)
            assert int(basis) == bases[i]
            assert bit == bits[i]

    def test_out_of_range_index(self):
        with pytest.raises(ValidationError):
            alice_generate(10, 1).symbols_at(np.array([10]))
        with pytest.raises(ValidationError):
            alice_generate(10, 1).codes_at(np.array([-1]))

    def test_symbols_are_the_low_bits_of_the_hash_word(self):
        """Symbol i's basis is w & 1 and its bit (w >> 1) & 1, for w the hash
        word of i under Alice's seed."""
        alice = alice_generate(10_000, 23)
        idx = np.arange(10_000)
        w = hash_stream(23, idx)
        bases, bits = alice.symbols_at(idx)
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

    def test_hv_monitor_clicks_excluded_from_key(self):
        # Code 2 is no key basis: Alice never sends it, so the basis
        # comparison alone drops the click.
        alice = alice_generate(100, 4)
        rows = [(1e-9, 0, 2, 0, True),
                ((5 + 0.5) * 2e-9, 5, *symbol(alice, 5), True)]
        result = sift(alice, stream_from_rows(rows))
        assert (result.kept, result.mismatches) == (1, 0)  # symbol 5 alone

    def test_duplicate_symbol_keeps_earliest(self):
        alice = alice_generate(100, 4)
        basis, bit = symbol(alice, 3)
        rows = [(3.0e-9 * 2, 3, basis, 0, True), (3.1e-9 * 2, 3, basis, 1, True)]
        result = sift(alice, stream_from_rows(rows))
        assert result.kept == 1
        assert result.mismatches == int(bit != 0)  # Bob's bit 0, from the earlier click

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
        bases, bits = alice.symbols_at(np.array(list(earliest)))
        match = clicks.analyzer_basis_codes[first] == bases
        errors = match & (clicks.analyzer_bits[first] != bits)
        result = sift(alice, clicks)
        assert (result.kept, result.mismatches) == (match.sum(), errors.sum())
        # counted with its duplicates, more would be kept
        assert result.kept < np.count_nonzero(
            clicks.analyzer_basis_codes[at] == alice.symbols_at(gated)[0])

    def test_kept_fraction_is_half(self):
        src = SourceParams()
        alice = alice_generate(4_000_000, 8)
        clicks = simulate_clicks(alice, src, quiet_channel(), DetectorParams(),
                                 BackgroundBudget(), rng_seed=15)
        gated = int(np.count_nonzero(clicks.in_gate))
        result = sift(alice, clicks)
        sigma = math.sqrt(gated * 0.25)
        assert abs(result.kept - gated / 2) <= 3 * sigma


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


class TestEndToEnd:
    def test_noiseless_session_has_zero_qber(self):
        for seed in (1, 2, 3):
            src = SourceParams()
            ch = quiet_channel()
            det = DetectorParams(dark_rate=0.0)
            bg = BackgroundBudget(dark_rate=0.0)
            alice = alice_generate(2_000_000, seed)
            clicks = simulate_clicks(alice, src, ch, det, bg, rng_seed=seed + 100)
            sifted = sift(alice, clicks)
            assert sifted.kept > 0
            assert sifted.mismatches == 0

    def test_qber_matches_rate_equation_many_kept(self):
        """>= 1e5 kept bits: empirical QBER within 3 binomial sigma of the model."""
        src = SourceParams()
        ch = quiet_channel(fso_loss_db=13.0, depol_p=0.02)
        det = DetectorParams()
        bg = BackgroundBudget(solar_rate=4.76)
        e_i = 0.0631
        pred = expected_rates(src, ch, det, bg, e_i)
        n = 3_300_000_000
        alice = alice_generate(n, 51)
        clicks = simulate_clicks(alice, src, ch, det, bg, rng_seed=52,
                                 intrinsic_error=e_i)
        sifted = sift(alice, clicks)
        assert sifted.kept >= 100_000
        sigma = math.sqrt(pred.qber * (1 - pred.qber) / sifted.kept)
        assert abs(sifted.mismatches / sifted.kept - pred.qber) <= 3 * sigma

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

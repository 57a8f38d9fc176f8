"""Classical channel: OOK BER model, power margin, crosstalk scaling."""
import numpy as np
import pytest
from scipy.stats import norm

from fso_qkd import protocol
from fso_qkd.calibration import CALIBRATION
from fso_qkd.coexistence import (
    ClassicalParams,
    crosstalk_background,
    link_margin,
    ook_ber,
)
from fso_qkd.errors import ValidationError
from fso_qkd.linkmodel import expected_rates
from fso_qkd.linkparams import BackgroundBudget, DetectorParams, SourceParams, fiber_preset
from fso_qkd.linkparams import FiberKind
from fso_qkd.scenario import resolve_config

PARAMS = ClassicalParams()


class TestOokBer:
    def test_fec_anchor_exact(self):
        assert ook_ber(-37.4, PARAMS) == pytest.approx(2e-4, abs=1e-12 * 2e-4)
        assert abs(ook_ber(-37.4, PARAMS) - 2e-4) < 1e-12

    def test_three_db_above_sensitivity(self):
        # +3 dB doubles the Q factor: oracle Q(2 * 3.54) via the normal tail
        ber = ook_ber(-34.4, PARAMS)
        q0 = norm.isf(2e-4)
        assert ber == pytest.approx(float(norm.sf(q0 * 10 ** 0.3)), rel=1e-9)
        assert ber < 1e-7

    def test_no_power_is_coin_flip(self):
        assert ook_ber(-300.0, PARAMS) == pytest.approx(0.5, abs=1e-9)

    def test_strictly_decreasing(self):
        # strict until norm.sf underflows to 0 (~10 dB above sensitivity)
        powers = np.linspace(-45, -28.5, 60)
        bers = [ook_ber(p, PARAMS) for p in powers]
        assert all(b1 > b2 for b1, b2 in zip(bers, bers[1:]))
        assert ook_ber(-20.0, PARAMS) <= bers[-1]

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            ook_ber(float("nan"), PARAMS)


class TestLinkMargin:
    def test_deployed_operating_loss(self):
        assert link_margin(PARAMS, 22.0) == pytest.approx(15.4, abs=1e-9)

    def test_zero_margin_at_sensitivity(self):
        assert link_margin(PARAMS, 37.4) == pytest.approx(0.0, abs=1e-9)

    def test_zero_loss(self):
        assert link_margin(PARAMS, 0.0) == pytest.approx(37.4, abs=1e-9)

    def test_negative_loss_rejected(self):
        with pytest.raises(ValidationError):
            link_margin(PARAMS, -1.0)


class TestCrosstalk:
    def test_inactive_is_zero(self, monkeypatch):
        """A session adds the crosstalk to its kappa-on blocks alone, which it
        has only with the data channel enabled; every other block runs on the
        configured background."""
        runs = []
        monkeypatch.setattr(protocol, "run_map", lambda config, blocks, key: runs.extend(blocks))
        for enabled in (False, True):
            runs.clear()
            config = resolve_config({"classical.enabled": enabled, "session.blocks": 4})
            protocol.run_session(config)
            assert [run.kappa for run in runs] == [False, enabled] * 2
            on = config.background.with_crosstalk(crosstalk_background(config.classical))
            assert [run.bg for run in runs] == [config.background,
                                                on if enabled else config.background] * 2

    def test_linear_power_scaling(self):
        def xtalk(dbm):
            return crosstalk_background(
                ClassicalParams(launch_power_dbm=dbm, crosstalk_rate_at_0dbm=500.0))

        assert xtalk(0.0) == 500.0
        assert xtalk(-10.0) == pytest.approx(50.0, rel=1e-12)
        assert xtalk(3.0) == pytest.approx(500.0 * 10 ** 0.3, rel=1e-12)

    def test_calibrated_rate_gives_qber_penalty(self):
        src, ch, det = SourceParams(), fiber_preset(FiberKind.MMF25), DetectorParams()
        bg_off = BackgroundBudget(solar_rate=CALIBRATION.solar_1410)
        bg_on = bg_off.with_crosstalk(crosstalk_background(PARAMS))
        e = CALIBRATION.intrinsic_error_base
        penalty = (expected_rates(src, ch, det, bg_on, e).qber
                   - expected_rates(src, ch, det, bg_off, e).qber)
        assert penalty == pytest.approx(0.007, abs=3e-4)

    def test_activation_never_reduces_qber(self):
        rng = np.random.default_rng(23)
        src, det = SourceParams(), DetectorParams()
        for _ in range(20):
            ch = fiber_preset(FiberKind.MMF25).with_excess_loss(rng.uniform(0, 10))
            bg = BackgroundBudget(solar_rate=rng.uniform(0, 1000))
            params = ClassicalParams(crosstalk_rate_at_0dbm=rng.uniform(0, 2000),
                                     launch_power_dbm=rng.uniform(-20, 5))
            e = rng.uniform(0, 0.1)
            q_off = expected_rates(src, ch, det, bg, e).qber
            q_on = expected_rates(
                src, ch, det, bg.with_crosstalk(crosstalk_background(params)), e).qber
            assert q_on >= q_off - 1e-15

    def test_penalty_monotone_in_launch_power(self):
        src, ch, det = SourceParams(), fiber_preset(FiberKind.MMF25), DetectorParams()
        bg = BackgroundBudget(solar_rate=CALIBRATION.solar_1410)
        qs = [expected_rates(src, ch, det,
                             bg.with_crosstalk(crosstalk_background(
                                 ClassicalParams(launch_power_dbm=p))),
                             CALIBRATION.intrinsic_error_base).qber
              for p in np.linspace(-30, 5, 15)]
        assert all(a <= b + 1e-15 for a, b in zip(qs, qs[1:]))


def test_fec_ber_domain():
    with pytest.raises(ValidationError):
        ClassicalParams(fec_ber=0.0)
    with pytest.raises(ValidationError):
        ClassicalParams(launch_power_dbm=float("inf"))

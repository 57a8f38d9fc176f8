"""Co-propagating 1-Gb/s OOK channel: BER, power margin, and crosstalk.

The classical receiver is thermal-noise limited, so its Q-factor scales
with linear received optical power. The single quoted (power, BER)
sensitivity point pins the one free constant exactly; everything else
follows from the Gaussian error integral. Crosstalk into the quantum
channel is a flat in-band background rate proportional to linear launch
power, calibrated from the measured QBER penalty. ``ClassicalParams`` holds
every ``classical.*`` key, the data channel's session switch and that rate too.
"""
from __future__ import annotations

import math

from .calibration import CALIBRATION
from .errors import ValidationError
from .record import Record

MAX_ABS_DBM = 1000.0


class ClassicalParams(Record):
    """OOK data channel appended in the C-band, on in every second session block."""

    wavelength_nm: float = 1547.72
    bit_rate: float = 1e9
    launch_power_dbm: float = 0.0
    sensitivity_dbm_at_fec: float = -37.4
    fec_ber: float = 2e-4
    rx_insertion_db: float = 2.0  # add/drop cascade on the classical path
    enabled: bool = False
    crosstalk_rate_at_0dbm: float = CALIBRATION.crosstalk_rate_at_0dbm

    def __post_init__(self):
        if not 0.0 < self.fec_ber < 0.5:
            raise ValidationError(f"fec_ber must be in (0, 0.5), got {self.fec_ber}")
        # 10 ** (dBm / 10) overflows a float past ~3083 dBm. Within the bound,
        # the crosstalk scale stays <= 1e100 and the OOK Q-factor exponent,
        # received minus sensitivity with loss >= 0, stays <= 2000 dB.
        for name in ("launch_power_dbm", "sensitivity_dbm_at_fec"):
            value = getattr(self, name)
            if not abs(value) <= MAX_ABS_DBM:
                raise ValidationError(
                    f"{name} must be within +-{MAX_ABS_DBM:g} dBm, got {value}")
        if not self.bit_rate > 0:
            raise ValidationError(f"bit_rate must be > 0, got {self.bit_rate}")
        if not self.rx_insertion_db >= 0:
            raise ValidationError("rx_insertion_db must be >= 0")
        if not self.crosstalk_rate_at_0dbm >= 0:
            raise ValidationError("crosstalk_rate_at_0dbm must be >= 0")


def ook_ber(received_power_dbm: float, params: ClassicalParams) -> float:
    """OOK bit error rate at the given received power.

    Q-factor proportional to linear power, anchored so that
    ber(sensitivity) equals the FEC-threshold BER exactly.
    """
    from statistics import NormalDist  # here, so resolving a config does not load it

    if not math.isfinite(received_power_dbm):
        raise ValidationError("received power must be finite")
    # -inv_cdf(p), not inv_cdf(1 - p): the tail stays exact at small p
    q_anchor = -NormalDist().inv_cdf(params.fec_ber)
    q = q_anchor * 10.0 ** ((received_power_dbm - params.sensitivity_dbm_at_fec) / 10.0)
    return 0.5 * math.erfc(q / math.sqrt(2.0))


def link_margin(params: ClassicalParams, total_loss_db: float) -> float:
    """Headroom (dB) between received power and the FEC sensitivity."""
    if total_loss_db < 0:
        raise ValidationError(f"total loss must be >= 0 dB, got {total_loss_db}")
    return (params.launch_power_dbm - total_loss_db) - params.sensitivity_dbm_at_fec


def crosstalk_background(params: ClassicalParams) -> float:
    """In-band crosstalk rate (cts/s) of the data channel, while on, at the SPAD."""
    return params.crosstalk_rate_at_0dbm * 10.0 ** (params.launch_power_dbm / 10.0)

"""Calibrated parameter sets for transmitter, channel, detector and background."""
from __future__ import annotations

import enum

from .calibration import (
    CALIBRATION,
    DARK_RATE,
    DEAD_TIME,
    DEPOL_MMF25,
    DETECTOR_EFFICIENCY,
    DRIFT_RATE_DEFAULT,
    FSO_LOSS_MMF25_DB,
    FSO_LOSS_OM4_DB,
    FSO_LOSS_SMF_DB,
    GATE_FRACTION,
    MU_Q,
    SIGNAL_GATE_ACCEPTANCE,
    SYMBOL_RATE,
)
from .errors import ValidationError
from .record import ERROR_PROBABILITY, NONNEGATIVE, POSITIVE, UNIT, Record


class FiberKind(enum.Enum):
    """Receiver-side coupling fiber evaluated on the testbed."""

    SMF = "SMF"
    MMF25 = "MMF25"
    OM4 = "OM4"


class SourceParams(Record):
    """Weak-coherent transmitter settings."""

    mu_q: float = MU_Q
    symbol_rate: float = SYMBOL_RATE
    wavelength_nm: float = 1410.0
    # mu_q 0 is the degenerate source-off case (background-only studies)
    _domain = {"mu_q": NONNEGATIVE, "symbol_rate": POSITIVE}


class ChannelParams(Record):
    """Free-space segment plus coupling-fiber impairments.

    ``rx_insertion_db`` is the calibrated lump for everything between the
    receive fiber and the SPAD (bandpass, add/drop, polarimeter);
    ``alignment_stable`` records whether the coupling held without active
    alignment (False only for the SMF receiver).
    """

    fso_loss_db: float = FSO_LOSS_MMF25_DB
    excess_loss_db: float = 0.0
    depol_p: float = DEPOL_MMF25
    drift_rate: float = DRIFT_RATE_DEFAULT
    fiber_kind: FiberKind = FiberKind.MMF25
    rx_insertion_db: float = CALIBRATION.rx_insertion_db
    alignment_stable: bool = True
    _domain = {"fso_loss_db": NONNEGATIVE, "excess_loss_db": NONNEGATIVE,
               "depol_p": UNIT, "drift_rate": NONNEGATIVE, "rx_insertion_db": NONNEGATIVE}

    @property
    def total_loss_db(self) -> float:
        return self.fso_loss_db + self.excess_loss_db + self.rx_insertion_db

    def with_excess_loss(self, el_db: float) -> "ChannelParams":
        return self.replace(excess_loss_db=el_db)


class DetectorParams(Record):
    """InGaAs SPAD behind the polarimeter."""

    efficiency: float = DETECTOR_EFFICIENCY
    dark_rate: float = DARK_RATE
    dead_time: float = DEAD_TIME
    gate_fraction: float = GATE_FRACTION
    signal_gate_acceptance: float = SIGNAL_GATE_ACCEPTANCE
    _domain = {"efficiency": UNIT, "dark_rate": NONNEGATIVE, "dead_time": NONNEGATIVE,
               "gate_fraction": (0.0, 1.0, "(]"), "signal_gate_acceptance": UNIT}


class BackgroundBudget(Record):
    """Detector-referred background rates; the single authority for darks.

    Build it with ``dark_rate`` taken from the detector in use so the dark
    contribution is never double counted between parameter sets.
    """

    solar_rate: float = 0.0
    classical_crosstalk_rate: float = 0.0
    dark_rate: float = DARK_RATE
    _domain = dict.fromkeys(("solar_rate", "classical_crosstalk_rate", "dark_rate"),
                            NONNEGATIVE)

    @property
    def total_rate(self) -> float:
        return self.solar_rate + self.classical_crosstalk_rate + self.dark_rate

    def with_crosstalk(self, rate: float) -> "BackgroundBudget":
        return self.replace(classical_crosstalk_rate=rate)


class RatePrediction(Record):
    """Closed-form per-detector outputs; rates are dead-time corrected.

    ``signal_click_rate`` counts gated signal clicks before sifting;
    ``background_click_rate`` counts gated background clicks before sifting;
    ``sifted_key_rate`` and ``qber`` describe the basis-matched key stream.
    """

    signal_click_rate: float
    background_click_rate: float
    sifted_key_rate: float
    qber: float
    _domain = {**dict.fromkeys(("signal_click_rate", "background_click_rate",
                                "sifted_key_rate"), NONNEGATIVE),
               "qber": ERROR_PROBABILITY}


def fiber_preset(kind: FiberKind) -> ChannelParams:
    """Calibrated channel parameters for each evaluated receiving fiber."""
    if kind is FiberKind.MMF25:
        return ChannelParams()
    if kind is FiberKind.OM4:
        return ChannelParams(
            fso_loss_db=FSO_LOSS_OM4_DB,
            depol_p=CALIBRATION.depol_om4,
            fiber_kind=FiberKind.OM4,
        )
    if kind is FiberKind.SMF:
        return ChannelParams(
            fso_loss_db=FSO_LOSS_SMF_DB,
            depol_p=0.0,
            fiber_kind=FiberKind.SMF,
            alignment_stable=False,
        )
    raise ValidationError(f"unknown fiber kind {kind!r}")

"""Shipped link calibration.

The test campaign quotes only end-to-end anchors for the 1410-nm / 25-um-MMF
baseline: a 3.7 kb/s sifted rate at 7.9% QBER with no excess loss, the 11%
QBER threshold reached at 7.6 dB excess loss, a 590 cts/s total in-band
noise floor on the 1430-nm channel at 9.4% QBER, a 19% QBER on the OM4
fiber, and a 0.7% QBER penalty with the classical channel live. The
individual insertion losses and error mechanisms behind those numbers are
not itemized, so this module back-solves them once, deterministically, from
the anchors:

  * receiver insertion loss (bandpass + add/drop + polarimeter, folded into
    one dB figure),
  * the combined polarization error of the baseline link, split into a
    system part and the 25-um-MMF depolarization share,
  * the total background rate consistent with the loss-margin curve,
  * per-channel intrinsic-error offsets, the OM4 depolarization, and the
    co-existence crosstalk rate.

Everything here is closed-form or a one-dimensional root solve, so the
derived constants are identical on every import. The scalar link formulas
that the solve shares with ``linkmodel`` live here, since ``linkparams``
imports this module and ``linkmodel`` imports both: ``link_rates``, the one
closed form of the gated, sifted and dead-time-thinned rates and the QBER,
and ``stokes_overlap``, the one kappa of the matched-basis error.
"""
from __future__ import annotations

import math

from .record import NONNEGATIVE, Record, check

# Fixed instrument parameters of the testbed.
SYMBOL_RATE = 5e8           # symbols/s
MU_Q = 0.1                  # mean photons/symbol at transmitter output
DETECTOR_EFFICIENCY = 0.10
DARK_RATE = 300.0           # cts/s
DEAD_TIME = 25e-6           # s, non-paralyzable
GATE_FRACTION = 0.5         # central temporal gate, fraction of symbol
SIGNAL_GATE_ACCEPTANCE = 1.0

FSO_LOSS_MMF25_DB = 17.8
FSO_LOSS_OM4_DB = 7.0
FSO_LOSS_SMF_DB = 24.0      # best stable figure ever reached; flagged unstable

# Measured anchors the calibration reproduces.
ANCHOR_QBER_EL0 = 0.079
ANCHOR_RAWKEY_EL0 = 3.7e3   # bits/s, per detector, sifted
ANCHOR_QBER_THRESHOLD = 0.11
ANCHOR_EL_AT_THRESHOLD = 7.6     # dB excess loss where QBER hits threshold
ANCHOR_QBER_1430 = 0.094
ANCHOR_SOLAR_1430 = 290.0        # cts/s -> 590 total floor with darks
ANCHOR_QBER_OM4 = 0.19
ANCHOR_COEXIST_PENALTY = 0.007   # absolute QBER increase, classical on

# Declared split: the 25-um MMF contributes 1% QBER via depolarization
# (the measured <=1% penalty against the all-SMF reference link).
DEPOL_MMF25 = 0.02

DRIFT_RATE_DEFAULT = 2e-4   # rad/s; <=1% QBER growth over a 10-minute run


def transmittance(loss_db: float) -> float:
    """Linear power transmission for a loss in dB."""
    check("loss", loss_db, NONNEGATIVE)
    return 10.0 ** (-loss_db / 10.0)


def pulse_click_probability(mu_q: float, t: float, efficiency: float) -> float:
    """Probability that a weak-coherent pulse puts a count on the SPAD."""
    return 1.0 - math.exp(-mu_q * t * efficiency)


def sifted_signal_rate(symbol_rate: float, p_click: float, gate_acceptance: float) -> float:
    """Sifted signal rate before dead time: basis match (1/2) times the
    single-port Malus split (1/2) of the gated clicks."""
    return symbol_rate * p_click * gate_acceptance * 0.25


def arrival_rate(symbol_rate: float, p_click: float, background_rate: float) -> float:
    """SPAD arrival rate before dead time: half the photons pass the port."""
    return symbol_rate * p_click * 0.5 + background_rate


def dead_time_thinning(load: float, dead_time: float) -> float:
    """Surviving share of a Poisson stream at a non-paralyzable detector."""
    return 1.0 / (1.0 + load * dead_time)


def link_rates(symbol_rate: float, p_click: float, gate_acceptance: float,
               background_rate: float, gate_fraction: float, dead_time: float,
               e_pol: float) -> tuple[float, float, float, float]:
    """Closed-form per-detector rates of one operating point.

    Returns the gated signal and gated background click rates, the sifted
    key rate (all after dead time) and the QBER. Background bits are
    uncorrelated with Alice, so they err half the time, and the sifted
    background is half of the gated background. Dead time thins signal and
    background by the same factor and therefore does not move the QBER.

    That factor, 1/(1 + load * dead_time), assumes Poisson arrivals. The
    Monte Carlo's photons arrive on the slot lattice, so its survivors exceed
    it by about slot/(dead_time + slot/p), p the arrival probability per
    slot: 6e-5 on the default OM4 link, but 10 % at 10 ns and p = 0.2.
    """
    s_port = sifted_signal_rate(symbol_rate, p_click, gate_acceptance)
    b_gated = background_rate * gate_fraction
    b_key = 0.5 * b_gated
    thin = dead_time_thinning(arrival_rate(symbol_rate, p_click, background_rate), dead_time)
    kept = s_port + b_key
    qber = 0.5 if kept == 0 else (e_pol * s_port + 0.5 * b_key) / kept
    return (symbol_rate * p_click * gate_acceptance * 0.5 * thin, b_gated * thin,
            kept * thin, qber)


def stokes_overlap(intrinsic_error: float, depol_p: float) -> float:
    """Stokes overlap kappa = (1 - 2 e_i)(1 - p) of a sent state with its port:
    system infidelity and depolarization both shrink it multiplicatively."""
    return (1.0 - 2.0 * intrinsic_error) * (1.0 - depol_p)


def combined_polarization_error(intrinsic_error: float, depol_p: float) -> float:
    """Matched-basis error (1 - kappa)/2: e_i + p/2 for small values, exact at any."""
    return 0.5 * (1.0 - stokes_overlap(intrinsic_error, depol_p))


def _intrinsic_from_combined(e_combined: float, depol_p: float) -> float:
    return (e_combined - depol_p / 2.0) / (1.0 - depol_p)


def _signal_at(loss_db: float) -> tuple[float, float]:
    """Click probability and sifted signal rate of the testbed at a total loss."""
    p = pulse_click_probability(MU_Q, transmittance(loss_db), DETECTOR_EFFICIENCY)
    return p, sifted_signal_rate(SYMBOL_RATE, p, SIGNAL_GATE_ACCEPTANCE)


def _solve_at(rx_insertion_db: float):
    """Solve (e, background) from the two QBER anchors at a trial insertion loss."""
    loss0 = FSO_LOSS_MMF25_DB + rx_insertion_db
    p0, s0 = _signal_at(loss0)
    ratio = s0 / _signal_at(loss0 + ANCHOR_EL_AT_THRESHOLD)[1]
    denom = ANCHOR_QBER_EL0 - 0.5 + ratio * (0.5 - ANCHOR_QBER_THRESHOLD)
    x0 = (ANCHOR_QBER_THRESHOLD - ANCHOR_QBER_EL0) / denom
    e_combined = ANCHOR_QBER_EL0 * (1.0 + x0) - 0.5 * x0
    # link_rates sifts this back to x0 * s0 exactly: GATE_FRACTION is 2**-1.
    bg_total = x0 * s0 * 2.0 / GATE_FRACTION
    rawkey = link_rates(SYMBOL_RATE, p0, SIGNAL_GATE_ACCEPTANCE, bg_total, GATE_FRACTION,
                        DEAD_TIME, e_combined)[2]
    return rawkey, e_combined, x0, s0, bg_total


def brentq(f, a: float, b: float, xtol: float) -> float:
    """Root of ``f`` in [a, b] by Brent's method (Brent 1973, ch. 4).

    A step-for-step port of the widely used C routine ``brentq.c`` at its
    default ``rtol = 4 eps`` and 100 iterations, so it returns the same
    float; ``tests/test_linkmodel.py`` holds the two roots bit-equal.
    """
    rtol = 4.0 * 2.0 ** -52
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError("brentq did not converge in 100 iterations")


class LinkCalibration(Record):
    """Constants derived from the measurement anchors (see module docstring)."""

    rx_insertion_db: float
    e_combined_1410: float
    intrinsic_error_base: float
    bg_total_1410: float          # cts/s incl. darks
    solar_1410: float             # cts/s
    sifted_signal_el0: float      # b/s before dead-time correction
    intrinsic_offset_1430: float  # added to intrinsic_error_base at 1430 nm
    depol_om4: float
    crosstalk_rate_at_0dbm: float # cts/s in-band, classical channel at 0 dBm

    def intrinsic_error_for(self, wavelength_nm: float) -> float:
        """Per-channel system error; 1430 nm carries a calibrated offset."""
        offset = self.intrinsic_offset_1430 if round(wavelength_nm) == 1430 else 0.0
        return self.intrinsic_error_base + offset


def _derive() -> LinkCalibration:
    rx_db = brentq(
        lambda lrx: _solve_at(lrx)[0] - ANCHOR_RAWKEY_EL0, 0.01, 30.0, xtol=1e-12
    )
    _, e_combined, x0, s0, bg_total = _solve_at(rx_db)
    solar_1410 = bg_total - DARK_RATE
    if solar_1410 < 0:
        raise RuntimeError("anchor solve produced a negative solar rate")
    intrinsic_base = _intrinsic_from_combined(e_combined, DEPOL_MMF25)

    # 1430 nm: with the 590 cts/s floor the background alone does not explain
    # the 9.4% QBER; the residual is carried as a per-channel intrinsic offset
    # (the channels were measured at different times of day and polarimeter
    # alignments, so a small per-channel error difference is expected).
    x30 = ((DARK_RATE + ANCHOR_SOLAR_1430) * GATE_FRACTION / 2.0) / s0
    e30 = ANCHOR_QBER_1430 * (1.0 + x30) - 0.5 * x30
    offset_1430 = _intrinsic_from_combined(e30, DEPOL_MMF25) - intrinsic_base

    # OM4: same system error, heavier depolarization, much stronger signal.
    s4 = _signal_at(FSO_LOSS_OM4_DB + rx_db)[1]
    x4 = (bg_total * GATE_FRACTION / 2.0) / s4
    e4 = ANCHOR_QBER_OM4 * (1.0 + x4) - 0.5 * x4
    depol_om4 = (e4 - intrinsic_base) / (0.5 - intrinsic_base)

    # Crosstalk rate that lifts the baseline QBER by the quoted 0.7%.
    q_on = ANCHOR_QBER_EL0 + ANCHOR_COEXIST_PENALTY
    x_on = (q_on - e_combined) / (0.5 - q_on)
    crosstalk = (x_on - x0) * s0 * 2.0 / GATE_FRACTION

    return LinkCalibration(
        rx_insertion_db=rx_db,
        e_combined_1410=e_combined,
        intrinsic_error_base=intrinsic_base,
        bg_total_1410=bg_total,
        solar_1410=solar_1410,
        sifted_signal_el0=s0,
        intrinsic_offset_1430=offset_1430,
        depol_om4=depol_om4,
        crosstalk_rate_at_0dbm=crosstalk,
    )


CALIBRATION = _derive()

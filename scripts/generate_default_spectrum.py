#!/usr/bin/env python3
"""Regenerate the packaged daylight spectrum (a calibration artifact).

The table is shaped as a deep water-vapor notch between plateaus and tuned
so that, through the default receiver filter cascade, the 1410-nm channel
integrates to the back-solved solar rate of the link calibration and the
1430-nm channel integrates to the 290 cts/s that puts its total in-band
floor at 590 cts/s. Values are normalized to detected counts at the QKD
receiver input (detector efficiency folded in, receiver filters excluded).

Run from the repository root:  python scripts/generate_default_spectrum.py
"""
from fso_qkd.calibration import ANCHOR_SOLAR_1430, CALIBRATION, brentq
from fso_qkd.spectrum import (
    CWDM_GRID_NM,
    SpectralTable,
    default_spectrum_path,
    dump_spectrum,
    integrate_background,
)


def build(notch_db: float, slope_db_per_nm: float) -> SpectralTable:
    knots = [
        (1260.0, 35.0), (1330.0, 35.0), (1352.0, 30.0), (1366.0, 18.0),
        (1374.0, 8.0),
        (1380.0, notch_db + 6.0), (1384.0, notch_db + 1.5), (1386.0, notch_db),
        (1390.0, notch_db), (1400.0, notch_db), (1410.0, notch_db),
        (1418.0, notch_db), (1420.0, notch_db),
    ]
    for wl in (1424.0, 1428.0, 1432.0, 1436.0, 1440.0, 1444.0, 1448.0):
        knots.append((wl, min(34.0, notch_db + slope_db_per_nm * (wl - 1420.0))))
    knots += [(1456.0, 34.5), (1470.0, 35.0), (1520.0, 35.0), (1580.0, 35.0)]
    wavelengths, psd = zip(*knots)
    return SpectralTable(wavelengths, psd)


def main() -> None:
    notch = brentq(
        lambda a: integrate_background(build(a, 1.6), 1410.0) - CALIBRATION.solar_1410,
        -20.0, 15.0, xtol=1e-10)
    slope = brentq(
        lambda s: integrate_background(build(notch, s), 1430.0) - ANCHOR_SOLAR_1430,
        0.3, 2.4, xtol=1e-12)
    table = build(round(notch, 4), round(slope, 6))

    print(f"notch floor {notch:.4f} dB, shoulder slope {slope:.6f} dB/nm")
    for nm in CWDM_GRID_NM:
        print(f"  in-band solar {nm:.0f} nm: {integrate_background(table, nm):.3f} cts/s")
    out = default_spectrum_path()
    dump_spectrum(table, out)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()

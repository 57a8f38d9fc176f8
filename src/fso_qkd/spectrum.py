"""Solar-background spectral planning for the E-band quantum channels.

A measured daylight spectrum is represented as sampled power spectral
density in dB relative to 1 count/s/nm, interpolated linearly in dB between
samples. The planner pushes that spectrum through the one receiver filter
cascade (the wide free-space bandpass plus the channel's CWDM add/drop),
integrates over each passband of the 1390/1410/1430-nm grid, and ranks the
channels by the resulting in-band background rate.

The packaged default table (``data/solar_spectrum_default.csv``) is a
calibration artifact, not a measurement: it is normalized to detected
counts at the QKD receiver input (detector efficiency folded in, receiver
filters *not* included) and shaped so the water-vapor notch floor and the
1430-nm shoulder reproduce the measured in-band noise floors.

The module is pure Python, so config resolution and ``plan-spectrum`` load no
numpy. Its arithmetic is numpy's, operation for operation: ``np.interp``'s
formula, ``np.arange``'s mesh and ``np.add.reduce``'s pairwise order. The one
difference is ``10.0 ** x``, which here is the C library's ``pow`` on every
host, where numpy's SIMD power loop can differ from it in the last ulp.
"""
from __future__ import annotations

import bisect
import math
from pathlib import Path

from .errors import SpectrumFormatError, ValidationError
from .linkparams import DetectorParams
from .record import Record

CSV_HEADER = "wavelength_nm,psd_db_hz_per_nm"

# Mesh pitch for trapezoidal integration; fine enough that dB-linear
# segments integrate to <1e-4 relative error.
_MESH_NM = 0.05

# The CWDM grid's channel centres, and the passband of each channel's add/drop filter
CWDM_GRID_NM, CWDM_PASSBAND_NM = (1390.0, 1410.0, 1430.0), 13.0

# The receiver cascade, declared calibration values (the deployed filters'
# exact curves are not catalogued). The 50-nm free-space bandpass passes 0.79
# in band and 40 dB less outside. The channel's add/drop filter passes 0.71
# across the passband integrated, so its 30-dB floor never enters.
BANDPASS_CENTER_NM, BANDPASS_HALF_WIDTH_NM = 1410.0, 25.0
BANDPASS_IN_BAND = 0.79
BANDPASS_FLOOR = BANDPASS_IN_BAND * 10.0 ** (-40.0 / 10.0)
ADD_DROP_IN_BAND = 0.71


class SpectralTable(Record):
    """Wavelength-resolved background PSD, dB re 1 count/s/nm."""

    wavelengths_nm: tuple[float, ...]
    psd_db: tuple[float, ...]

    def __post_init__(self):
        wl = tuple(float(w) for w in self.wavelengths_nm)
        db = tuple(float(d) for d in self.psd_db)
        if len(wl) != len(db) or len(wl) < 2:
            raise ValidationError("spectral table needs matching 1-D arrays of length >= 2")
        if not all(a < b for a, b in zip(wl, wl[1:])):
            raise ValidationError("wavelengths must be strictly increasing")
        object.__setattr__(self, "wavelengths_nm", wl)
        object.__setattr__(self, "psd_db", db)

    def psd_db_at(self, wavelengths_nm) -> list[float]:
        """dB-linear interpolation, ``np.interp``'s to the bit; queries outside
        the domain are rejected."""
        xp, fp = self.wavelengths_nm, self.psd_db
        lo, hi = xp[0], xp[-1]
        out = []
        for x in wavelengths_nm:
            if not lo <= x <= hi:
                raise ValidationError(
                    f"wavelength query outside spectrum domain [{lo}, {hi}] nm"
                )
            j = bisect.bisect_right(xp, x) - 1
            if j == len(xp) - 1 or xp[j] == x:
                out.append(fp[j])
                continue
            slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
            y = slope * (x - xp[j]) + fp[j]
            if math.isnan(y):  # numpy's fallback: from the right knot, then flat
                y = slope * (x - xp[j + 1]) + fp[j + 1]
                if math.isnan(y) and fp[j] == fp[j + 1]:
                    y = fp[j]
            out.append(y)
        return out


def integrate_background(spectrum: SpectralTable, center_nm: float) -> float:
    """In-band background rate (counts/s) of the channel at ``center_nm``,
    which must be on the CWDM grid, behind the receiver cascade.

    Converts the PSD to linear counts/s/nm, multiplies the filter
    transmissions pointwise, and integrates over the channel passband with
    the trapezoidal rule on a mesh containing every sample point, channel
    edge and bandpass edge. The table is normalized to detected counts, so no
    detector efficiency enters the integral. A rate that is not finite, from a
    table too bright for floats, is refused.
    """
    if center_nm not in CWDM_GRID_NM:
        raise ValidationError(
            f"channel center {center_nm} nm not on the CWDM grid {CWDM_GRID_NM}")
    lo, hi = center_nm - CWDM_PASSBAND_NM / 2.0, center_nm + CWDM_PASSBAND_NM / 2.0
    knots = [lo, hi]
    knots.extend(w for w in spectrum.wavelengths_nm if lo < w < hi)
    for edge in (BANDPASS_CENTER_NM - BANDPASS_HALF_WIDTH_NM,
                 BANDPASS_CENTER_NM + BANDPASS_HALF_WIDTH_NM):
        if lo < edge < hi:
            # straddle the discontinuity so the mesh sees both sides
            knots.extend((edge - 1e-9, edge + 1e-9))
    # np.arange(lo, hi, _MESH_NM): its length, and each point from its index
    step = (lo + _MESH_NM) - lo
    grid = (lo + i * step for i in range(math.ceil((hi - lo) / _MESH_NM)))
    mesh = sorted(set(knots).union(grid))
    psd_lin = [_linear(db)
               * (BANDPASS_IN_BAND if abs(w - BANDPASS_CENTER_NM) <= BANDPASS_HALF_WIDTH_NM
                  else BANDPASS_FLOOR)
               * ADD_DROP_IN_BAND
               for w, db in zip(mesh, spectrum.psd_db_at(mesh))]
    # np.trapezoid: each trapezoid as it computes one, summed in its order
    rate = pairwise_sum([(x1 - x0) * (y1 + y0) / 2.0 for x0, x1, y0, y1
                         in zip(mesh, mesh[1:], psd_lin, psd_lin[1:])])
    if not math.isfinite(rate):  # a PSD or its integral past a float's range
        raise ValidationError(
            f"in-band background of the {center_nm} nm channel is {rate!r} cts/s, "
            "not finite: the spectrum is too bright to integrate in floats")
    return rate


def _linear(db: float) -> float:
    """10**(db/10), inf where it overflows a float, as numpy's power gives it."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def pairwise_sum(values: list[float]) -> float:
    """``values`` summed as ``np.add.reduce`` sums them, to the bit: in
    sequence below 8 values, in 8 interleaved accumulators up to 128, and
    above that as two halves, split at a multiple of 8. Every sum starts from
    0.0, numpy's identity, so a zero total is +0.0 as numpy's is."""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n <= 128:
        acc = [0.0] * 8
        whole = n - n % 8
        for i in range(0, whole, 8):
            acc = [a + v for a, v in zip(acc, values[i:i + 8])]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for v in values[whole:]:
            total += v
        return total
    half = n // 2 - (n // 2) % 8
    return pairwise_sum(values[:half]) + pairwise_sum(values[half:])


def ranking_report(spectrum: SpectralTable, detector: DetectorParams) -> list[dict]:
    """JSON-ready rows of the CWDM grid by ascending background, ties to the
    shorter wavelength, with dark-level flags and total floors."""
    ranked = sorted((integrate_background(spectrum, nm), nm) for nm in CWDM_GRID_NM)
    return [
        {
            "channel_nm": nm,
            "background_cts_s": rate,
            "total_floor_cts_s": rate + detector.dark_rate,
            "below_dark": bool(rate < detector.dark_rate),
        }
        for rate, nm in ranked
    ]


def load_spectrum(path: str | Path | None = None) -> SpectralTable:
    """Parse a spectrum CSV, the packaged table when ``path`` is None;
    malformed rows are reported with line numbers."""
    path = default_spectrum_path() if path is None else Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpectrumFormatError(f"cannot read spectrum file {path} ({exc})") from None
    if not lines or lines[0].strip() != CSV_HEADER:
        raise SpectrumFormatError(f"expected header '{CSV_HEADER}'", line=1)
    wavelengths, psd = [], []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) != 2:
            raise SpectrumFormatError(f"expected 2 columns, got {len(cells)}", line=lineno)
        try:
            wl, db = float(cells[0]), float(cells[1])
        except ValueError:
            raise SpectrumFormatError(f"non-numeric row {raw!r}", line=lineno) from None
        if not (math.isfinite(wl) and math.isfinite(db)):
            raise SpectrumFormatError(f"non-finite value in row {raw!r}", line=lineno)
        if wavelengths and wl <= wavelengths[-1]:
            raise SpectrumFormatError(
                f"wavelength {wl} not increasing after {wavelengths[-1]}", line=lineno
            )
        wavelengths.append(wl)
        psd.append(db)
    try:
        return SpectralTable(wavelengths, psd)
    except ValidationError as exc:
        raise SpectrumFormatError(str(exc)) from exc


def dump_spectrum(table: SpectralTable, path: str | Path) -> None:
    """Write a table in the load_spectrum format (round-trips exactly)."""
    path = Path(path)
    rows = [CSV_HEADER]
    rows.extend(
        f"{wl!r},{db!r}" for wl, db in zip(table.wavelengths_nm, table.psd_db)
    )
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def default_spectrum_path() -> Path:
    """Location of the packaged daylight spectrum."""
    return Path(__file__).with_name("data") / "solar_spectrum_default.csv"

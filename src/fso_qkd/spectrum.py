"""Solar-background spectral planning for the E-band quantum channels.

A measured daylight spectrum is represented as sampled power spectral
density in dB relative to 1 count/s/nm, interpolated linearly in dB between
samples. The planner pushes that spectrum through the receiver filter
cascade (wide free-space bandpass plus per-channel CWDM add/drop), integrates
over each channel passband, and ranks channels by the resulting in-band
background rate.

The packaged default table (``data/solar_spectrum_default.csv``) is a
calibration artifact, not a measurement: it is normalized to detected
counts at the QKD receiver input (detector efficiency folded in, receiver
filters *not* included) and shaped so the water-vapor notch floor and the
1430-nm shoulder reproduce the measured in-band noise floors.
"""
from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SpectrumFormatError, ValidationError
from .linkparams import DetectorParams

CSV_HEADER = "wavelength_nm,psd_db_hz_per_nm"

# Mesh pitch for trapezoidal integration; fine enough that dB-linear
# segments integrate to <1e-4 relative error.
_MESH_NM = 0.05

# The CWDM grid's channel centres, and the passband of each channel's add/drop filter
CWDM_GRID_NM, CWDM_PASSBAND_NM = (1390.0, 1410.0, 1430.0), 13.0


@dataclass(frozen=True)
class SpectralTable:
    """Wavelength-resolved background PSD, dB re 1 count/s/nm."""

    wavelengths_nm: np.ndarray
    psd_db: np.ndarray

    def __post_init__(self):
        wl = np.asarray(self.wavelengths_nm, dtype=float)
        db = np.asarray(self.psd_db, dtype=float)
        if wl.ndim != 1 or wl.shape != db.shape or len(wl) < 2:
            raise ValidationError("spectral table needs matching 1-D arrays of length >= 2")
        if not np.all(np.diff(wl) > 0):
            raise ValidationError("wavelengths must be strictly increasing")
        object.__setattr__(self, "wavelengths_nm", wl)
        object.__setattr__(self, "psd_db", db)

    def psd_db_at(self, wavelengths_nm: np.ndarray) -> np.ndarray:
        """dB-linear interpolation; queries outside the domain are rejected."""
        wl = np.asarray(wavelengths_nm, dtype=float)
        lo, hi = self.wavelengths_nm[0], self.wavelengths_nm[-1]
        if np.any(wl < lo) or np.any(wl > hi):
            raise ValidationError(
                f"wavelength query outside spectrum domain [{lo}, {hi}] nm"
            )
        return np.interp(wl, self.wavelengths_nm, self.psd_db)


@dataclass(frozen=True)
class FilterSpec:
    """Idealized filter: flat in-band transmission, flat out-of-band floor."""

    center_nm: float
    width_nm: float
    in_band_transmission: float
    out_of_band_suppression_db: float

    def __post_init__(self):
        if not 0.0 < self.in_band_transmission <= 1.0:
            raise ValidationError("in-band transmission must be in (0, 1]")
        if self.out_of_band_suppression_db < 0:
            raise ValidationError("out-of-band suppression must be >= 0 dB")
        if self.width_nm <= 0:
            raise ValidationError("filter width must be positive")

    def transmission(self, wavelengths_nm: np.ndarray) -> np.ndarray:
        wl = np.asarray(wavelengths_nm, dtype=float)
        in_band = np.abs(wl - self.center_nm) <= self.width_nm / 2.0
        t_out = self.in_band_transmission * 10.0 ** (-self.out_of_band_suppression_db / 10.0)
        return np.where(in_band, self.in_band_transmission, t_out)


@dataclass(frozen=True)
class CwdmChannel:
    """One quantum channel on the CWDM grid used by the link."""

    center_nm: float

    def __post_init__(self):
        if self.center_nm not in CWDM_GRID_NM:
            raise ValidationError(
                f"channel center {self.center_nm} nm not on the CWDM grid {CWDM_GRID_NM}"
            )


def default_filters(channel: CwdmChannel) -> list[FilterSpec]:
    """Receiver cascade: 50-nm free-space BPF plus the channel's add/drop filter.

    Transmissions and suppressions are declared calibration values (the
    deployed filters' exact curves are not catalogued).
    """
    return [
        FilterSpec(center_nm=1410.0, width_nm=50.0,
                   in_band_transmission=0.79, out_of_band_suppression_db=40.0),
        FilterSpec(center_nm=channel.center_nm, width_nm=CWDM_PASSBAND_NM,
                   in_band_transmission=0.71, out_of_band_suppression_db=30.0),
    ]


def integrate_background(
    spectrum: SpectralTable,
    channel: CwdmChannel,
    filters: list[FilterSpec],
) -> float:
    """In-band background rate (counts/s) for one channel behind the cascade.

    Converts the PSD to linear counts/s/nm, multiplies the filter
    transmissions pointwise, and integrates over the channel passband with
    the trapezoidal rule on a mesh containing every sample point, channel
    edge and filter edge. The table is normalized to detected counts, so no
    detector efficiency enters the integral.
    """
    lo, hi = (channel.center_nm - CWDM_PASSBAND_NM / 2.0,
              channel.center_nm + CWDM_PASSBAND_NM / 2.0)
    knots = [lo, hi]
    knots.extend(w for w in spectrum.wavelengths_nm if lo < w < hi)
    for f in filters:
        for edge in (f.center_nm - f.width_nm / 2.0, f.center_nm + f.width_nm / 2.0):
            if lo < edge < hi:
                # straddle each discontinuity so the mesh sees both sides
                knots.extend((edge - 1e-9, edge + 1e-9))
    # sorted set, not np.union1d: that loads numpy.ma (about 16 ms a process)
    mesh = np.array(sorted(set(knots).union(np.arange(lo, hi, _MESH_NM).tolist())))
    psd_lin = 10.0 ** (spectrum.psd_db_at(mesh) / 10.0)
    for f in filters:
        psd_lin = psd_lin * f.transmission(mesh)
    return float(np.trapezoid(psd_lin, mesh))


def rank_channels(
    spectrum: SpectralTable,
    channels: list[CwdmChannel],
) -> list[tuple[CwdmChannel, float]]:
    """Channels ordered by ascending background behind each one's
    ``default_filters``; ties go to shorter wavelength."""
    if not channels:
        raise ValidationError("at least one channel is required")
    rates = [(ch, integrate_background(spectrum, ch, default_filters(ch))) for ch in channels]
    return sorted(rates, key=lambda item: (item[1], item[0].center_nm))


def ranking_report(spectrum: SpectralTable, detector: DetectorParams) -> list[dict]:
    """JSON-ready ranking rows of the CWDM grid with dark-level flags and total
    floors."""
    ranked = rank_channels(spectrum, [CwdmChannel(nm) for nm in CWDM_GRID_NM])
    return [
        {
            "channel_nm": ch.center_nm,
            "background_cts_s": rate,
            "total_floor_cts_s": rate + detector.dark_rate,
            "below_dark": bool(rate < detector.dark_rate),
        }
        for ch, rate in ranked
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
        return SpectralTable(np.asarray(wavelengths), np.asarray(psd))
    except ValidationError as exc:
        raise SpectrumFormatError(str(exc)) from exc


def dump_spectrum(table: SpectralTable, path: str | Path) -> None:
    """Write a table in the load_spectrum format (round-trips exactly)."""
    path = Path(path)
    rows = [CSV_HEADER]
    rows.extend(
        f"{float(wl)!r},{float(db)!r}" for wl, db in zip(table.wavelengths_nm, table.psd_db)
    )
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def default_spectrum_path() -> Path:
    """Location of the packaged daylight spectrum."""
    return Path(importlib.resources.files("fso_qkd") / "data" / "solar_spectrum_default.csv")

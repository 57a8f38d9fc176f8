"""Scenario configuration: flat dotted-key JSON resolved into typed params.

A scenario file is a single flat JSON object ("section.field": value).
Missing keys fall back to the shipped calibration; unknown keys are
rejected so typos cannot silently change an experiment. The fully resolved
key/value map is hashed and echoed into every output row, which makes any
emitted CSV/JSON auditable after the fact.

Defaults reproduce the 1410-nm / 25-um-MMF daylight baseline with the
background budget integrated from the packaged solar spectrum.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

from .calibration import CALIBRATION
from .coexistence import ClassicalParams
from .errors import ValidationError
from .linkparams import (
    BackgroundBudget,
    ChannelParams,
    DetectorParams,
    FiberKind,
    SourceParams,
    fiber_preset,
)
from .record import ERROR_PROBABILITY, NONNEGATIVE, POSITIVE, Record, check, inf
from . import spectrum as spectrum_mod

_SWEEP_DEFAULT = tuple(round(0.5 * i, 1) for i in range(21))  # 0..10 dB

# key -> (kind, default) or (kind, default, interval). A None default marks a
# derived key, filled from the fiber preset, the calibration or the packaged
# spectrum; only there may a value be null ("derive it"). Anywhere else null
# fails _coerce. A default that a parameter class declares (most from the
# calibration) is read from it, and so is its interval, from the class's
# _domain; an interval here bounds a key that no parameter class holds.
_KEYS: dict[str, tuple] = {
    "source.mu_q": ("float", SourceParams.mu_q),
    "source.symbol_rate": ("float", SourceParams.symbol_rate),
    "source.wavelength_nm": ("float", SourceParams.wavelength_nm),
    "channel.fiber_kind": ("str", "MMF25"),
    "channel.fso_loss_db": ("float", None),
    "channel.excess_loss_db": ("float", 0.0),
    "channel.depol_p": ("float", None),
    "channel.drift_rate": ("float", None),
    "channel.rx_insertion_db": ("float", None),
    "detector.efficiency": ("float", DetectorParams.efficiency),
    "detector.dark_rate": ("float", DetectorParams.dark_rate),
    "detector.dead_time": ("float", DetectorParams.dead_time),
    "detector.gate_fraction": ("float", DetectorParams.gate_fraction),
    "detector.signal_gate_acceptance": ("float", DetectorParams.signal_gate_acceptance),
    "background.mode": ("str", "spectrum"),
    "background.spectrum_path": ("str", None),
    "background.solar_rate": ("float", 0.0),
    "protocol.intrinsic_error": ("float", None, ERROR_PROBABILITY),
    "classical.enabled": ("bool", ClassicalParams.enabled),
    "classical.wavelength_nm": ("float", ClassicalParams.wavelength_nm),
    "classical.bit_rate": ("float", ClassicalParams.bit_rate),
    "classical.launch_power_dbm": ("float", ClassicalParams.launch_power_dbm),
    "classical.sensitivity_dbm_at_fec": ("float", ClassicalParams.sensitivity_dbm_at_fec),
    "classical.fec_ber": ("float", ClassicalParams.fec_ber),
    "classical.crosstalk_rate_at_0dbm": ("float", None),
    "classical.rx_insertion_db": ("float", ClassicalParams.rx_insertion_db),
    "sweep.el_db": ("floatlist", _SWEEP_DEFAULT),
    "sweep.symbols_per_point": ("int", 10_000_000, (1, inf)),
    "session.blocks": ("int", 10, NONNEGATIVE),
    "session.block_duration_s": ("float", 45.0, POSITIVE),
    "session.symbols_per_block": ("int", 2_000_000_000, (1, inf)),
    "rng_seed": ("int", 1234),
    "output_path": ("str", "results"),
}


def default_flat_config() -> dict:
    """Fresh copy of the default key/value map (None = derived at resolve time)."""
    return {key: spec[1] for key, spec in _KEYS.items()}


def _coerce(key: str, value, kind: str):
    try:
        if kind in ("float", "int"):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError
            # a number meets float arithmetic (rates, event budgets, costs); the
            # seed is masked to 64 bits and never does
            if (isinstance(value, int) and key != "rng_seed"
                    and abs(value) > sys.float_info.max):
                raise ValidationError(
                    f"{key}: must be at most {sys.float_info.max!r}, "
                    f"got an int of {value.bit_length()} bits")
        if kind == "float":
            out = float(value)
            if not math.isfinite(out):
                raise TypeError
            return out
        if kind == "int":
            # is_integer is False for nan and +-inf, which int() cannot take
            if isinstance(value, float) and not value.is_integer():
                raise TypeError
            return int(value)
        if kind == "bool":
            if not isinstance(value, bool):
                raise TypeError
            return value
        if kind == "str":
            if not isinstance(value, str):
                raise TypeError
            return value
        if kind == "floatlist":
            if not isinstance(value, (list, tuple)):
                raise TypeError
            return [_coerce(key, v, "float") for v in value]
    except TypeError:
        raise ValidationError(f"{key}: expected {kind}, got {value!r}") from None
    raise ValidationError(f"{key}: unhandled schema kind {kind}")


class ScenarioConfig(Record):
    """Fully resolved experiment description."""

    source: SourceParams
    channel: ChannelParams
    detector: DetectorParams
    background: BackgroundBudget
    classical: ClassicalParams
    intrinsic_error: float
    sweep_el_db: tuple[float, ...]
    sweep_symbols_per_point: int
    blocks: int
    block_duration_s: float
    symbols_per_block: int
    rng_seed: int
    output_path: str
    resolved: dict
    _hidden = ("resolved",)  # the flat map, left out of ==, hash and repr

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.resolved, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]

    @property
    def classical_total_loss_db(self) -> float:
        """Loss seen by the classical channel (shares the FSO segment). Each
        term is finite; a sum that overflows is refused naming its largest."""
        terms = {"channel.fso_loss_db": self.channel.fso_loss_db,
                 "channel.excess_loss_db": self.channel.excess_loss_db,
                 "classical.rx_insertion_db": self.classical.rx_insertion_db}
        fso, excess, rx = terms.values()
        total = fso + excess + rx
        if not math.isfinite(total):
            key = max(terms, key=terms.get)
            raise ValidationError(
                f"{key}: the classical path's total loss, {fso!r} + {excess!r} + {rx!r} dB, "
                f"overflows a float; lower {key}")
        return total


def resolve_config(overrides: dict | None = None) -> ScenarioConfig:
    """Merge overrides onto the defaults and build a validated ScenarioConfig."""
    flat = default_flat_config()
    given = overrides or {}
    for key, value in given.items():
        if key not in _KEYS:
            raise ValidationError(f"unknown config key {key!r}")
        flat[key] = value
    for key, (kind, default, *domain) in _KEYS.items():
        if not (default is None and flat[key] is None):
            flat[key] = _coerce(key, flat[key], kind)
            if domain:  # refused as build refuses a field: "key: must be ..."
                check(f"{key}:", flat[key], *domain)
    for key in ("background.spectrum_path", "output_path"):  # the OS takes no NUL in a path
        if "\0" in (flat[key] or ""):
            raise ValidationError(f"{key}: a path cannot hold a NUL character, got {flat[key]!r}")

    def build(section, factory, **named):
        """``factory`` with each field read from its ``section.field`` key,
        unless ``named`` gives it; a field with neither keeps its default. A
        failed check, whose message starts with its field, names that key."""
        keyed = {name: flat[key] for name in factory.field_names
                 if (key := f"{section}.{name}") in flat}
        try:
            return factory(**{**keyed, **named})
        except ValidationError as exc:
            name, _, rest = str(exc).partition(" ")
            raise ValidationError(f"{section}.{name}: {rest}") from None

    source = build("source", SourceParams)

    try:
        kind = FiberKind(flat["channel.fiber_kind"])
    except ValueError:
        raise ValidationError(
            f"channel.fiber_kind: unknown fiber {flat['channel.fiber_kind']!r}"
        ) from None
    preset = fiber_preset(kind)
    for name in ChannelParams.field_names:
        key = f"channel.{name}"
        if key in flat and flat[key] is None:
            flat[key] = getattr(preset, name)
    channel = build("channel", ChannelParams, fiber_kind=kind,
                    alignment_stable=preset.alignment_stable)
    detector = build("detector", DetectorParams)

    # Each mode reads one background key; setting the other would be hashed
    # and echoed without acting. A solar_rate equal to the spectrum's is what
    # a summary's echoed config holds, so it is accepted.
    mode = flat["background.mode"]
    if mode == "spectrum":
        solar = _solar_from_spectrum(flat["background.spectrum_path"],
                                     source.wavelength_nm)
        if "background.solar_rate" in given and flat["background.solar_rate"] != solar:
            raise ValidationError(
                f"background.solar_rate: not read under background.mode='spectrum', "
                f"which derives {solar!r} cts/s; set background.mode='explicit' to use it")
        flat["background.solar_rate"] = solar
    elif mode == "explicit":
        if flat["background.spectrum_path"] is not None:
            raise ValidationError(
                "background.spectrum_path: not read under background.mode='explicit'; "
                "drop it or set background.mode='spectrum'")
    else:
        raise ValidationError(
            f"background.mode: expected 'spectrum' or 'explicit', got {mode!r}")
    background = build("background", BackgroundBudget, dark_rate=detector.dark_rate)

    if flat["protocol.intrinsic_error"] is None:
        flat["protocol.intrinsic_error"] = CALIBRATION.intrinsic_error_for(
            source.wavelength_nm)

    if flat["classical.crosstalk_rate_at_0dbm"] is None:
        flat["classical.crosstalk_rate_at_0dbm"] = CALIBRATION.crosstalk_rate_at_0dbm
    classical = build("classical", ClassicalParams)

    # The threshold crossing scans upward crossings in list order and the
    # operating point is the first entry, so the grid must ascend from >= 0.
    el_db = flat["sweep.el_db"]
    if any(el < 0.0 for el in el_db):
        raise ValidationError(f"sweep.el_db: excess losses must be >= 0 dB, got {el_db}")
    if any(a >= b for a, b in zip(el_db, el_db[1:])):
        raise ValidationError(f"sweep.el_db: must be strictly increasing, got {el_db}")

    return ScenarioConfig(
        source=source,
        channel=channel,
        detector=detector,
        background=background,
        classical=classical,
        intrinsic_error=flat["protocol.intrinsic_error"],
        sweep_el_db=tuple(flat["sweep.el_db"]),
        sweep_symbols_per_point=flat["sweep.symbols_per_point"],
        blocks=flat["session.blocks"],
        block_duration_s=flat["session.block_duration_s"],
        symbols_per_block=flat["session.symbols_per_block"],
        rng_seed=flat["rng_seed"],
        output_path=flat["output_path"],
        resolved=dict(sorted(flat.items())),
    )


def _solar_from_spectrum(path: str | None, wavelength_nm: float) -> float:
    center_nm = float(round(wavelength_nm))
    if center_nm not in spectrum_mod.CWDM_GRID_NM:
        raise ValidationError(
            f"source.wavelength_nm: {wavelength_nm} nm is not a CWDM channel; "
            "use background.mode='explicit' for off-grid wavelengths")
    return from_spectrum(
        path, lambda table: spectrum_mod.integrate_background(table, center_nm))


def from_spectrum(path: str | None, use):
    """``use`` applied to the spectrum table at ``path`` (the packaged one when
    None). A table that cannot be read, misses a passband or is too bright to
    integrate is refused naming ``background.spectrum_path``."""
    try:
        return use(spectrum_mod.load_spectrum(path))
    except ValidationError as exc:
        raise ValidationError(f"background.spectrum_path: {exc}") from None


def load_config_file(path: str | Path) -> dict:
    """Read a flat JSON config file; top level must be an object."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"config file {path}: cannot read ({exc})") from None
    # bad JSON, an int of more digits than str() converts, or nested past the
    # recursion limit
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"config file {path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValidationError(f"config file {path}: top level must be an object")
    return data

"""Daylight free-space BB84 link simulator with E-band channel planning."""

from .calibration import CALIBRATION
from .coexistence import (
    ClassicalParams,
    CoexistenceScenario,
    crosstalk_background,
    link_margin,
    ook_ber,
)
from .errors import SpectrumFormatError, ValidationError
from .linkmodel import (
    ClickStream,
    RandomAnalyzerSchedule,
    dead_time_corrected,
    expected_rates,
    simulate_clicks,
    transmittance,
)
from .linkparams import (
    BackgroundBudget,
    ChannelParams,
    DetectorParams,
    FiberKind,
    RatePrediction,
    SourceParams,
    fiber_preset,
)
from .polarization import (
    Basis,
    BB84Symbol,
    PolarizationState,
    apply_rotation,
    encode_symbol,
    projection_probability,
)
from .protocol import (
    BlockStats,
    SiftResult,
    alice_generate,
    estimate_block_stats,
    run_session,
    secure_fraction,
    sift,
)
from .scenario import ScenarioConfig, resolve_config
from .spectrum import (
    CwdmChannel,
    FilterSpec,
    SpectralTable,
    default_filters,
    dump_spectrum,
    integrate_background,
    load_default_spectrum,
    load_spectrum,
    rank_channels,
)

__version__ = "0.1.0"

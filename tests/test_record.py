"""The frozen records: fields from annotations, validated once, immutable, and
compared, hashed, shown and pickled by type and fields."""
import pickle

import numpy as np
import pytest

from fso_qkd.calibration import CALIBRATION
from fso_qkd.coexistence import ClassicalParams
from fso_qkd.errors import ValidationError
from fso_qkd.linkmodel import ClickStream
from fso_qkd.linkparams import (
    BackgroundBudget,
    ChannelParams,
    DetectorParams,
    RatePrediction,
    SourceParams,
)
from fso_qkd.polarization import PolarizationState
from fso_qkd.protocol import BlockStats, Run, SiftResult
from fso_qkd.scenario import resolve_config
from fso_qkd.spectrum import SpectralTable

RECORDS = {
    "LinkCalibration": lambda: CALIBRATION,
    "ClassicalParams": ClassicalParams,
    "SourceParams": SourceParams,
    "ChannelParams": ChannelParams,
    "DetectorParams": DetectorParams,
    "BackgroundBudget": BackgroundBudget,
    "RatePrediction": lambda: RatePrediction(1.0, 2.0, 3.0, 0.1),
    "SpectralTable": lambda: SpectralTable((1.0, 2.0), (0.0, 1.0)),
    "ScenarioConfig": resolve_config,
    "ClickStream": lambda: ClickStream(*(np.zeros(2, dtype) for dtype in (
        np.float64, np.int64, np.uint8, bool, bool))),
    "PolarizationState": lambda: PolarizationState(0.0, 0.6, 0.8),
    "SiftResult": lambda: SiftResult(10, 1),
    "BlockStats": lambda: BlockStats(45.0, 4.0, 100, 50, 5, kappa=True),
    "Run": lambda: Run(3, (1, 2, 3), 1000, ChannelParams(), BackgroundBudget(),
                       start_time=45.0),
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_record_is_a_frozen_value(make):
    record = make()
    cls, names = type(record), record.field_names
    assert cls.__name__ in RECORDS and names
    values = {name: getattr(record, name) for name in names}
    with pytest.raises(AttributeError):
        setattr(record, names[0], values[names[0]])
    with pytest.raises(AttributeError):
        delattr(record, names[-1])
    assert getattr(record, names[-1]) is values[names[-1]]

    copy = cls(*values.values())
    assert copy is not record and copy == record and not copy != record
    assert copy == cls(**values) == record.replace()
    if cls is not ClickStream:  # numpy arrays have no hash, and compare elementwise
        assert hash(copy) == hash(record)
        # BlockStats and Run cross the workers' pipe this way
        back = pickle.loads(pickle.dumps(record))
        assert back == record and back.__dict__ == record.__dict__
    assert repr(record).startswith(f"{cls.__name__}({names[0]}=")

    with pytest.raises(TypeError):
        cls(**values, unknown=1)
    with pytest.raises(TypeError):
        cls(*values.values(), None)
    with pytest.raises(TypeError):
        cls(values[names[0]], **values)
    required = [name for name in names if not hasattr(cls, name)]
    if required:
        with pytest.raises(TypeError):
            cls(**{n: v for n, v in values.items() if n != required[0]})


def test_replace_validates_again():
    assert ChannelParams().with_excess_loss(2.5).excess_loss_db == 2.5
    with pytest.raises(ValidationError, match="^excess_loss_db must be >= 0, got -1.0$"):
        ChannelParams().with_excess_loss(-1.0)
    with pytest.raises(ValidationError, match="^classical_crosstalk_rate must be >= 0"):
        BackgroundBudget().with_crosstalk(-1.0)
    with pytest.raises(TypeError):
        ChannelParams().replace(excess_loss=1.0)


@pytest.mark.parametrize("cls, field", [
    (SourceParams, "mu_q"), (SourceParams, "symbol_rate"),
    (ChannelParams, "fso_loss_db"), (ChannelParams, "excess_loss_db"),
    (ChannelParams, "rx_insertion_db"), (ChannelParams, "drift_rate"),
    (DetectorParams, "dark_rate"), (DetectorParams, "dead_time"),
    (BackgroundBudget, "solar_rate"), (BackgroundBudget, "classical_crosstalk_rate"),
    (BackgroundBudget, "dark_rate"),
    (ClassicalParams, "bit_rate"), (ClassicalParams, "rx_insertion_db"),
    (ClassicalParams, "crosstalk_rate_at_0dbm"),
], ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_nan_refused(cls, field):
    """A nan fails every comparison, so each bound is written to refuse it."""
    with pytest.raises(ValidationError, match=f"^{field} must be "):
        cls(**{field: float("nan")})


def test_resolved_map_is_left_out_of_compare_hash_and_repr():
    config = resolve_config()
    other = config.replace(resolved={**config.resolved, "output_path": "elsewhere"})
    assert other.resolved != config.resolved
    assert other == config and hash(other) == hash(config)
    assert repr(other) == repr(config)
    assert "resolved" not in repr(config) and "output_path='results'" in repr(config)
    assert config.field_names[-1] == "resolved"
    assert config != config.replace(rng_seed=config.rng_seed + 1)


def test_post_init_may_store_normalised_fields():
    table = SpectralTable([1400, 1420], [3, 4])
    assert table.wavelengths_nm == (1400.0, 1420.0) and table.psd_db == (3.0, 4.0)
    assert all(type(v) is float for v in table.wavelengths_nm + table.psd_db)

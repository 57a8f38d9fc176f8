"""Config resolution, CLI subcommands, reproducibility, exit codes."""
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.stats import linregress

from fso_qkd import protocol
from fso_qkd.cli import cmd_coexist, cmd_plan_spectrum, cmd_stability, cmd_sweep_el, main
from fso_qkd.coexistence import ClassicalParams
from fso_qkd.errors import ValidationError
from fso_qkd.linkparams import BackgroundBudget, ChannelParams, DetectorParams, SourceParams
from fso_qkd.protocol import Run, run_map
from fso_qkd.scenario import _KEYS, default_flat_config, resolve_config
from fso_qkd.spectrum import (
    CSV_HEADER,
    SpectralTable,
    dump_spectrum,
    load_spectrum,
)

from test_runtime import fresh_python


def never(*args, **kwargs):
    pytest.fail("a run was simulated or a worker forked")


@pytest.fixture
def pool_sizes(monkeypatch):
    """Run every forked map in this process instead; returns the worker count
    of every map that would have forked."""
    started = []

    def serial(config, runs, workers):
        started.append(workers)
        return [protocol.run_block(config, run) for run in runs]

    monkeypatch.setattr("fso_qkd.protocol._forked_map", serial)
    return started


@pytest.fixture
def no_pool(monkeypatch):
    """Fail the test if run_map forks workers."""
    monkeypatch.setattr("fso_qkd.protocol._forked_map", never)


@pytest.fixture
def no_runs(monkeypatch):
    """Fail the test if a run is simulated or a worker forked."""
    for name in ("run_block", "_forked_map"):
        monkeypatch.setattr(protocol, name, never)


@pytest.fixture
def ran(monkeypatch):
    """The run_block and _forked_map calls made so far, by name; both still run."""
    calls = []
    for name in ("run_block", "_forked_map"):
        monkeypatch.setattr(protocol, name, lambda *args, name=name, real=getattr(protocol, name):
                            calls.append(name) or real(*args))
    return calls


ANY_KEY = tuple(f"{key}: " for key in _KEYS)  # starts a refusal naming any config key


def assert_refused(capsys, rc, out: Path, says, ran=()) -> str:
    """The refusal contract of a ``main`` call given ``--out out`` that
    returned ``rc``: exit 2, nothing on stdout, no ``out``, no run in ``ran``,
    and one stderr line, ``validation error: `` and a message that starts with
    ``says`` (a config key and ": ", the pinned start of a flag or file
    refusal, or a tuple of starts). Returns the message."""
    stdout, err = capsys.readouterr()
    assert (rc, stdout) == (2, ""), err
    message = err.removeprefix("validation error: ")
    assert message != err and message.count("\n") == 1 and message.endswith("\n"), err
    assert message.startswith(f"{says}: " if says in _KEYS else says), err
    assert not out.exists()
    assert not ran, f"a refused config ran {ran}"
    return message


@pytest.fixture
def platform(monkeypatch):
    """Make this a platform that run_map forks on (Linux, with ``os.fork``),
    or, by calling the fixture, one it does not fork on: "no-fork" (no
    ``os.fork``) or "macOS". Use with ``pool_sizes`` or ``no_pool``: nothing
    is forked for real."""
    def use(kind):
        monkeypatch.setattr(sys, "platform", "darwin" if kind == "macOS" else "linux")
        if kind == "no-fork":
            monkeypatch.delattr(os, "fork", raising=False)
        else:
            monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"), raising=False)

    use("linux")
    return use


def read_tree(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def run_index(config, run):
    return run.index


@pytest.fixture
def index_runs(monkeypatch):
    """Make ``run_block`` return the run's index, so run_map only checks and
    maps the runs."""
    monkeypatch.setattr("fso_qkd.protocol.run_block", run_index)


def force_workers(monkeypatch, workers):
    """Make the automatic worker count come out at ``workers`` for any runs:
    one process, or a pool of that many."""
    monkeypatch.setattr("fso_qkd.protocol._usable_cores", lambda: workers)
    monkeypatch.setattr("fso_qkd.protocol.PARALLEL_MIN_EVENTS", 1.0)


def big_runs(symbols, count=8):
    """``count`` sweep-like runs at mu_q 100 (about 3.5e6 detector events per
    1e8 symbols); run_map only checks them under ``index_runs``."""
    config = resolve_config({"source.mu_q": 100})
    return config, [Run(i, (101, 103, 107), symbols, config.channel, config.background)
                    for i in range(count)]


class TestConfigResolution:
    def test_defaults_reproduce_baseline(self):
        cfg = resolve_config()
        assert cfg.source.wavelength_nm == 1410.0
        assert cfg.channel.fso_loss_db == 17.8
        assert cfg.background.dark_rate == cfg.detector.dark_rate
        assert cfg.background.solar_rate == pytest.approx(4.76, abs=0.2)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown config key"):
            resolve_config({"channel.mistyped": 1.0})

    def test_error_carries_field_path(self):
        """A failed parameter check names the dotted key of its field."""
        for overrides, section, field in [
            ({"source.symbol_rate": 0}, "source", "symbol_rate"),
            ({"channel.excess_loss_db": -3.0}, "channel", "excess_loss_db"),
            ({"detector.gate_fraction": 0.0}, "detector", "gate_fraction"),
            ({"background.mode": "explicit", "background.solar_rate": -1},
             "background", "solar_rate"),
            ({"classical.fec_ber": 0.6}, "classical", "fec_ber"),
            ({"classical.crosstalk_rate_at_0dbm": -1}, "classical", "crosstalk_rate_at_0dbm"),
        ]:
            with pytest.raises(ValidationError, match=rf"^{section}\.{field}: "):
                resolve_config(overrides)

    def test_type_errors_rejected(self):
        with pytest.raises(ValidationError, match="expected float"):
            resolve_config({"source.mu_q": "lots"})
        with pytest.raises(ValidationError, match="expected int"):
            resolve_config({"session.blocks": 2.5})

    def test_fiber_presets_apply(self):
        cfg = resolve_config({"channel.fiber_kind": "OM4"})
        assert cfg.channel.fso_loss_db == 7.0
        assert cfg.channel.depol_p > 0.2
        cfg = resolve_config({"channel.fiber_kind": "SMF"})
        assert not cfg.channel.alignment_stable

    def test_explicit_background_mode(self):
        cfg = resolve_config({"background.mode": "explicit",
                              "background.solar_rate": 123.0})
        assert cfg.background.solar_rate == 123.0

    @pytest.mark.parametrize("overrides, key", [
        ({"background.solar_rate": 500.0}, "background.solar_rate"),
        ({"background.mode": "spectrum", "background.solar_rate": 0.0},
         "background.solar_rate"),
        ({"background.mode": "explicit", "background.spectrum_path": "missing.csv"},
         "background.spectrum_path"),
    ], ids=["spectrum-solar-rate", "spectrum-solar-rate-zero", "explicit-spectrum-path"])
    def test_background_key_the_mode_ignores_exit_two(self, tmp_path, capsys, no_runs,
                                                       overrides, key):
        """A key the chosen background mode does not read would be hashed and
        echoed as if it had acted: refused, naming the key."""
        with pytest.raises(ValidationError, match=rf"^{re.escape(key)}: "):
            resolve_config(overrides)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(overrides))
        out = tmp_path / "out"
        assert_refused(capsys, main(["sweep-el", "--config", str(config), "--out", str(out)]),
                       out, key)

    def test_echoed_config_reruns(self):
        """A summary's echoed config names the spectrum's own solar_rate, which
        is accepted and resolves to the same config."""
        default = resolve_config()
        again = resolve_config(default.resolved)
        assert again.config_hash == default.config_hash
        assert again.background == default.background

    def test_parameter_defaults_have_one_home(self):
        cfg = resolve_config()
        assert cfg.source == SourceParams()
        assert cfg.detector == DetectorParams()
        assert cfg.classical == ClassicalParams()

    def test_off_grid_wavelength_needs_explicit_background(self):
        with pytest.raises(ValidationError, match="not a CWDM channel"):
            resolve_config({"source.wavelength_nm": 1550.0})
        cfg = resolve_config({"source.wavelength_nm": 1550.0,
                              "background.mode": "explicit",
                              "background.solar_rate": 10.0})
        assert cfg.source.wavelength_nm == 1550.0

    def test_intrinsic_error_channel_offsets(self):
        base = resolve_config().intrinsic_error
        same = resolve_config({"source.wavelength_nm": 1390.0}).intrinsic_error
        elevated = resolve_config({"source.wavelength_nm": 1430.0}).intrinsic_error
        assert same == base
        assert elevated > base

    def test_config_hash_stable_and_sensitive(self):
        a = resolve_config()
        b = resolve_config()
        c = resolve_config({"rng_seed": 999})
        assert a.config_hash == b.config_hash
        assert a.config_hash != c.config_hash

    def test_every_default_key_resolves(self):
        cfg = resolve_config()
        assert set(cfg.resolved) == set(default_flat_config())
        # None survives only where it means "packaged default"
        unresolved = {k for k, v in cfg.resolved.items() if v is None}
        assert unresolved == {"background.spectrum_path"}


# a valid value other than the default for every key but background.spectrum_path
NON_DEFAULT = {
    "source.mu_q": 0.3, "source.symbol_rate": 1e9, "source.wavelength_nm": 1430.0,
    "channel.fiber_kind": "OM4", "channel.fso_loss_db": 10.0,
    "channel.excess_loss_db": 1.0, "channel.depol_p": 0.2, "channel.drift_rate": 0.05,
    "channel.rx_insertion_db": 3.0,
    "detector.efficiency": 0.2, "detector.dark_rate": 100.0, "detector.dead_time": 1e-5,
    "detector.gate_fraction": 0.25, "detector.signal_gate_acceptance": 0.8,
    "background.mode": "explicit", "background.solar_rate": 50.0,
    "protocol.intrinsic_error": 0.03,
    "classical.enabled": True, "classical.wavelength_nm": 1551.72,
    "classical.bit_rate": 1e10, "classical.launch_power_dbm": -3.0,
    "classical.sensitivity_dbm_at_fec": -30.0, "classical.fec_ber": 1e-3,
    "classical.crosstalk_rate_at_0dbm": 5.0, "classical.rx_insertion_db": 3.0,
    "sweep.el_db": [0.0, 1.0], "sweep.symbols_per_point": 1000,
    "session.blocks": 3, "session.block_duration_s": 10.0,
    "session.symbols_per_block": 1000, "rng_seed": 7, "output_path": "elsewhere",
}


@pytest.mark.parametrize("key", sorted(_KEYS))
def test_every_key_acts(tmp_path, key):
    """Each key reaches the typed config: a renamed parameter field, or a
    section built without its keys, would leave the key hashed but unread."""
    base = {"background.mode": "explicit"} if key == "background.solar_rate" else {}
    if key == "background.spectrum_path":
        table = load_spectrum()
        value = str(tmp_path / "shifted.csv")
        dump_spectrum(SpectralTable(table.wavelengths_nm, [db + 3.0 for db in table.psd_db]),
                      value)
    else:
        value = NON_DEFAULT[key]
    assert resolve_config({**base, key: value}) != resolve_config(base)


# the keys that README documents as "null (or absent) means derive it"
DERIVED_KEYS = {
    "background.spectrum_path", "channel.depol_p", "channel.drift_rate",
    "channel.fso_loss_db", "channel.rx_insertion_db",
    "classical.crosstalk_rate_at_0dbm", "protocol.intrinsic_error"}


class TestNullValues:
    @pytest.mark.parametrize("key", sorted(_KEYS))
    def test_null_derives_or_is_refused(self, tmp_path, capsys, no_runs, key):
        if key in DERIVED_KEYS:
            assert resolve_config({key: None}).config_hash == resolve_config().config_hash
            return
        with pytest.raises(ValidationError, match=rf"^{re.escape(key)}: expected \w+, got None$"):
            resolve_config({key: None})
        out = tmp_path / "out"
        assert_refused(capsys, main(["sweep-el", "--out", str(out), "--set", f"{key}=null"]),
                       out, key)


def small_sweep_overrides(**extra):
    base = {
        "sweep.el_db": [0.0, 4.0, 8.0],
        "sweep.symbols_per_point": 2_000_000,
        "session.blocks": 4,
        "session.symbols_per_block": 100_000_000,
    }
    base.update(extra)
    return base


# Polarization drift is the only source of error, and there is no background.
NO_ERROR_BUT_DRIFT = {"rng_seed": 3, "protocol.intrinsic_error": 0.0, "channel.depol_p": 0.0,
                      "background.mode": "explicit", "background.solar_rate": 0.0,
                      "detector.dark_rate": 0.0}


class TestCliCommands:
    def test_sweep_csv_and_summary(self, tmp_path):
        cfg = resolve_config(small_sweep_overrides())
        summary = cmd_sweep_el(cfg, tmp_path)
        lines = (tmp_path / "sweep_el.csv").read_text().splitlines()
        assert lines[0] == ("el_db,qber_model,qber_mc,rawkey_model,rawkey_mc,"
                            "secure_fraction,config_hash")
        assert len(lines) == 4
        assert all(line.endswith(cfg.config_hash) for line in lines[1:])
        assert summary["agreement"]["within_3_sigma"]

    @pytest.mark.parametrize("overrides, stat, z", [
        ({**NO_ERROR_BUT_DRIFT, "channel.drift_rate": 50.0}, "max_abs_z_qber", sys.float_info.max),
        ({**NO_ERROR_BUT_DRIFT, "channel.drift_rate": 0.0}, "max_abs_z_qber", 0.0),
        ({"rng_seed": 1, "detector.dead_time": 1e308}, "max_abs_z_rawkey", sys.float_info.max),
    ], ids=["drift-errs", "no-drift", "dead-time-overflows"])
    def test_sweep_zero_sigma_model_admits_no_difference(self, tmp_path, overrides, stat, z):
        """Where the model's sigma is 0 a point must match it exactly. With drift
        the only source of error the model's QBER is 0, yet a drifting point errs
        (5 of 84 kept bits here); at a dead time whose load * tau overflows, the
        model keeps no bit, yet the first click survives and is kept. Each is
        beyond any sigma, at the largest float, not at z 0; without drift
        nothing errs, and z stays 0."""
        cfg = resolve_config({"sweep.el_db": [0.0], "sweep.symbols_per_point": 10_000_000,
                              **overrides})
        cmd_sweep_el(cfg, tmp_path)
        agreement = _strict_json((tmp_path / "sweep_el_summary.json").read_text())["agreement"]
        assert agreement[stat] == z
        assert agreement["within_3_sigma"] is (z == 0.0)

    def test_sweep_rerun_byte_identical(self, tmp_path):
        cfg = resolve_config(small_sweep_overrides())
        cmd_sweep_el(cfg, tmp_path / "a")
        cmd_sweep_el(cfg, tmp_path / "b")
        assert (tmp_path / "a/sweep_el.csv").read_bytes() == \
               (tmp_path / "b/sweep_el.csv").read_bytes()
        assert (tmp_path / "a/sweep_el_summary.json").read_bytes() == \
               (tmp_path / "b/sweep_el_summary.json").read_bytes()

    def test_sweep_workers_do_not_change_output(self, tmp_path):
        cfg = resolve_config(small_sweep_overrides())
        cmd_sweep_el(cfg, tmp_path / "w1", workers=1)
        cmd_sweep_el(cfg, tmp_path / "w2", workers=2)
        assert read_tree(tmp_path / "w1") == read_tree(tmp_path / "w2")

    def test_sweep_workers_capped_at_point_count(self, tmp_path, pool_sizes, platform):
        """run_map never forks more workers than there are sweep points."""
        assert main(["sweep-el", "--workers", "64", "--out", str(tmp_path),
                     "--set", "sweep.el_db=[0.0, 4.0]",
                     "--set", "sweep.symbols_per_point=100000"]) == 0
        assert pool_sizes == [2]

    @pytest.mark.parametrize("cmd, overrides, flags", [
        (cmd_stability, {"channel.fiber_kind": "OM4", "channel.drift_rate": 0.02,
                         "session.symbols_per_block": 50_000_000}, ["ok"] * 4),
        # at 50 rad/s the per-run Malus bounds decide no photon, so every one
        # takes the exact cos/sin path
        (cmd_stability, {"channel.fiber_kind": "OM4", "channel.drift_rate": 50,
                         "session.symbols_per_block": 50_000_000}, ["ok"] * 4),
        (cmd_coexist, {"session.symbols_per_block": 200_000_000}, ["ok"] * 4),
        # kappa-on blocks saturate: run_block flags them wherever it runs them
        (cmd_coexist, {"classical.launch_power_dbm": 40,
                       "session.symbols_per_block": 100_000_000}, ["ok", "saturated"] * 2),
    ], ids=["stability", "stability-fast-drift", "coexist", "coexist-saturated"])
    def test_session_workers_do_not_change_output(self, tmp_path, monkeypatch,
                                                  cmd, overrides, flags):
        """One worker, two workers and the automatic choice write the same bytes."""
        config = resolve_config({**overrides, "session.blocks": 4, "rng_seed": 5})
        trees = []
        for workers in (1, 2, None):
            out = tmp_path / str(workers)
            with monkeypatch.context() as patch:
                if workers is not None:
                    force_workers(patch, workers)
                cmd(config, out)
            trees.append(read_tree(out))
        assert trees[0] == trees[1] == trees[2]
        csv = next(v for k, v in trees[0].items() if k.endswith(".csv")).decode()
        assert [row.split(",")[-2] for row in csv.splitlines()[1:]] == flags

    @pytest.mark.parametrize("command", ["coexist", "sweep-el"])
    def test_auto_workers_start_no_pool_below_threshold(self, tmp_path, no_pool, command):
        """The default coexist session (about 7e5 expected detector events) and
        the default sweep (about 3e3) cost less than a pool saves: no pool."""
        assert main([command, "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("cores, expected", [(2, [2]), (8, [3])])
    def test_auto_workers_use_every_core_over_threshold(self, tmp_path, monkeypatch,
                                                        pool_sizes, platform,
                                                        cores, expected):
        """Three OM4 blocks expect about 2.6e6 detector events, over
        PARALLEL_MIN_EVENTS: the automatic choice is min(usable cores, blocks)."""
        monkeypatch.setattr("fso_qkd.protocol._usable_cores", lambda: cores)
        assert main(["stability", "--set", "channel.fiber_kind=OM4",
                     "--set", "session.blocks=3", "--out", str(tmp_path)]) == 0
        assert pool_sizes == expected

    @pytest.mark.parametrize("symbols, expected", [
        (100_000_000, [5]), (150_000_000, [3]), (200_000_000, [2]), (500_000_000, []),
    ])
    def test_auto_workers_hold_one_run_budget_at_a_time(self, monkeypatch, pool_sizes,
                                                       platform, index_runs,
                                                       symbols, expected):
        """On 8 cores, the runs held at once expect at most MAX_EXPECTED_EVENTS
        (2e7) detector events together: 3.5e6 per run allows 5 workers, 7e6
        allows 2, and 1.8e7 runs one at a time in this process."""
        monkeypatch.setattr("fso_qkd.protocol._usable_cores", lambda: 8)
        config, runs = big_runs(symbols)
        assert run_map(config, runs, "sweep.el_db") == list(range(8))
        assert pool_sizes == expected

    @pytest.mark.parametrize("kind", ["no-fork", "macOS"])
    def test_auto_workers_only_where_workers_fork(self, monkeypatch, no_pool, platform,
                                                  index_runs, kind):
        """A worker that is not forked imports numpy again, so on a platform
        without fork, or on macOS, the automatic choice stays in this process
        however many events the runs expect."""
        platform(kind)
        monkeypatch.setattr("fso_qkd.protocol._usable_cores", lambda: 8)
        config, runs = big_runs(100_000_000)
        assert run_map(config, runs, "sweep.el_db") == list(range(8))

    @pytest.mark.parametrize("kind", ["no-fork", "macOS"])
    def test_explicit_workers_stay_in_one_process_without_fork(self, no_pool, platform,
                                                               index_runs, kind):
        """Where run_map does not fork, an explicit worker count runs every
        run in this process too."""
        platform(kind)
        config, runs = big_runs(1_000_000, count=3)
        assert run_map(config, runs, "sweep.el_db", workers=2) == [0, 1, 2]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux workers fork")
    def test_auto_workers_fork_whatever_the_default_start_method(self, tmp_path):
        """Python 3.14 makes forkserver Linux's default start method. run_map
        forks its workers itself and never imports multiprocessing, so no
        start method is involved: a two-worker sweep in a fresh interpreter
        leaves neither multiprocessing nor concurrent.futures imported."""
        script = "\n".join([
            "import sys",
            "from fso_qkd.cli import main",
            "assert main(['sweep-el', '--workers', '2', '--set', 'sweep.el_db=[0.0, 5.0]',",
            "             '--set', 'sweep.symbols_per_point=1000000',",
            f"             '--out', {str(tmp_path / 'sweep')!r}]) == 0",
            "loaded = [m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))]",
            "assert not loaded, loaded",
        ])
        proc = subprocess.run(**fresh_python("-c", script), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_stability_blocks(self, tmp_path):
        cfg = resolve_config(small_sweep_overrides(**{
            "channel.excess_loss_db": 1.6,
            "session.symbols_per_block": 500_000_000}))
        summary = cmd_stability(cfg, tmp_path)
        rows = (tmp_path / "stability_blocks.csv").read_text().splitlines()[1:]
        assert len(rows) == 4
        assert summary["all_blocks_below_threshold"]

    def test_stability_without_drift_has_no_trend(self, tmp_path):
        cfg = resolve_config({
            "channel.drift_rate": 0.0,
            "session.blocks": 10,
            "session.symbols_per_block": 500_000_000,
        })
        cmd_stability(cfg, tmp_path)
        rows = (tmp_path / "stability_blocks.csv").read_text().splitlines()[1:]
        starts = [float(r.split(",")[0]) for r in rows]
        qbers = [float(r.split(",")[1]) for r in rows]
        fit = linregress(starts, qbers)
        assert fit.pvalue > 0.01  # 99% CI on the slope contains zero

    def test_coexist_summary(self, tmp_path):
        cfg = resolve_config(small_sweep_overrides(**{
            "classical.enabled": True,
            "session.blocks": 6,
            "session.symbols_per_block": 400_000_000}))
        summary = cmd_coexist(cfg, tmp_path)
        assert summary["qber_penalty"] is not None
        assert summary["classical"]["margin_db"] == pytest.approx(17.6, abs=1e-9)
        header = (tmp_path / "coexist_blocks.csv").read_text().splitlines()[0]
        assert header.split(",")[:2] == ["block_start", "kappa"]

    def test_coexist_turns_on_data_channel_by_resolving(self, tmp_path):
        """coexist on a config with the data channel off writes the bytes it
        writes on that config resolved with classical.enabled true."""
        overrides = {"background.mode": "explicit", "background.solar_rate": 50.0,
                     "classical.enabled": False, "session.blocks": 2,
                     "session.symbols_per_block": 100_000_000}
        cmd_coexist(resolve_config(overrides), tmp_path / "off")
        cmd_coexist(resolve_config({**overrides, "classical.enabled": True}), tmp_path / "on")
        assert read_tree(tmp_path / "off") == read_tree(tmp_path / "on")

    def test_coexist_low_launch_penalty_negligible(self, tmp_path):
        from fso_qkd.coexistence import crosstalk_background
        from fso_qkd.linkmodel import expected_rates

        cfg = resolve_config(small_sweep_overrides(**{
            "classical.enabled": True,
            "classical.launch_power_dbm": -30.0,
            "session.blocks": 6,
            "session.symbols_per_block": 2_000_000_000}))
        # linear crosstalk scaling: 1/1000th of the 0-dBm rate is invisible
        q_off = expected_rates(cfg.source, cfg.channel, cfg.detector,
                               cfg.background, cfg.intrinsic_error).qber
        bg_on = cfg.background.with_crosstalk(crosstalk_background(cfg.classical))
        q_on = expected_rates(cfg.source, cfg.channel, cfg.detector,
                              bg_on, cfg.intrinsic_error).qber
        assert q_on - q_off < 0.001
        # the measured penalty is counting noise, far below the 0.7% signal
        summary = cmd_coexist(cfg, tmp_path)
        assert abs(summary["qber_penalty"]) < 0.0035

    def test_plan_spectrum_report(self, tmp_path):
        cfg = resolve_config()
        summary = cmd_plan_spectrum(None, cfg, tmp_path)
        ranking = summary["ranking"]
        assert [row["channel_nm"] for row in ranking] == [1390.0, 1410.0, 1430.0]
        payload = json.loads((tmp_path / "channel_ranking.json").read_text())
        assert payload["ranking"] == ranking


def thread_count() -> int:
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"^Threads:\s+(\d+)", status, re.M).group(1))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestPreflight:
    """run_map prices and checks a command's runs once, in the parent."""

    @pytest.mark.parametrize("overrides, flags", [
        ({}, None),
        # kappa-on blocks saturate and expect no events
        ({"classical.enabled": True, "classical.launch_power_dbm": 40,
          "session.blocks": 4, "session.symbols_per_block": 100_000_000},
         [False, True, False, True]),
    ], ids=["sweep", "coexist-saturated"])
    def test_expected_events_once_per_unsaturated_run(self, monkeypatch, no_pool,
                                                      index_runs, overrides, flags):
        calls = []
        expected_events = protocol.expected_events
        monkeypatch.setattr("fso_qkd.protocol.expected_events",
                            lambda *args: calls.append(args) or expected_events(*args))
        runs = []
        run_map = protocol.run_map
        monkeypatch.setattr("fso_qkd.protocol.run_map",
                            lambda config, blocks, *args: runs.extend(blocks)
                            or run_map(config, blocks, *args))
        config = resolve_config(overrides)
        if flags is None:
            assert protocol.run_sweep(config) == list(range(len(config.sweep_el_db)))
        else:
            assert protocol.run_session(config) == list(range(4))
            assert [run.saturated for run in runs] == flags
        assert len(calls) == sum(not run.saturated for run in runs) > 0


@pytest.mark.skipif(not protocol._can_fork(), reason="run_map forks only where it can")
class TestForkedMap:
    """run_map on real forked workers."""

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("kind", ["sweep", "session"])
    def test_equals_serial(self, kind, workers):
        """Child k runs every workers-th run; the results come back in run
        order, saturated session blocks included."""
        config = resolve_config(small_sweep_overrides())
        n = 2_000_000
        if kind == "sweep":
            runs = [Run(i, (101, 103, 107), n, config.channel.with_excess_loss(el),
                        config.background) for i, el in enumerate([0.0, 2.0, 4.0, 8.0])]
        else:
            axis = np.array([0.0, 0.6, 0.8])
            runs = [Run(i, (11, 13, 17), n, config.channel, config.background, 45.0 * i,
                        axis, kappa=i % 2 == 1, saturated=i == 3) for i in range(5)]
        key = "sweep.el_db" if kind == "sweep" else "session.blocks"
        serial = run_map(config, runs, key, workers=1)
        assert run_map(config, runs, key, workers=workers) == serial
        assert [stats.flag for stats in serial].count("saturated") == (kind == "session")
        assert_no_child_left()

    @pytest.mark.parametrize("failing, raised", [({1, 2}, 1), ({2, 3}, 2)])
    def test_lowest_failing_run_is_raised(self, monkeypatch, failing, raised):
        """Child 0 runs runs 0, 2, 4 and child 1 runs 1, 3; each stops at its
        first failure, and the lowest-indexed failing run's error is raised,
        as the serial loop raises it."""
        def fail_some(config, run):
            if run.index in failing:
                raise ValidationError(f"run {run.index} failed")
            return run.index

        monkeypatch.setattr("fso_qkd.protocol.run_block", fail_some)
        config, runs = big_runs(1_000_000, count=5)
        with pytest.raises(ValidationError, match=f"^run {raised} failed$"):
            run_map(config, runs, "sweep.el_db", workers=2)
        assert_no_child_left()

    def test_child_that_sends_nothing_is_named(self, monkeypatch):
        def exit_at_run_1(config, run):
            if run.index == 1:
                os._exit(1)
            return run.index

        monkeypatch.setattr("fso_qkd.protocol.run_block", exit_at_run_1)
        config, runs = big_runs(1_000_000, count=4)
        with pytest.raises(ChildProcessError, match=r"^worker 1 of 2 \(pid \d+\) ended "
                                                    r"with exit status 1 "):
            run_map(config, runs, "sweep.el_db", workers=2)
        assert_no_child_left()

    def test_interrupted_parent_kills_its_children(self, monkeypatch):
        """A parent interrupted while its children still run kills and reaps
        them before the interruption propagates."""
        class Interrupted(Exception):
            pass

        def interrupt(signum, frame):
            raise Interrupted

        monkeypatch.setattr("fso_qkd.protocol.run_block", lambda config, run: time.sleep(60))
        config, runs = big_runs(1_000_000, count=2)
        previous = signal.signal(signal.SIGALRM, interrupt)
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)  # not inherited by the children
            with pytest.raises(Interrupted):
                run_map(config, runs, "sweep.el_db", workers=2)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.perf_counter() - start < 30.0
        assert_no_child_left()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_workers_fork_from_one_thread(self, monkeypatch, index_runs):
        """Every worker is forked from a process that runs one thread (numpy's
        OpenBLAS starts none of its own with OPENBLAS_NUM_THREADS=1, which the
        CLI and tests/conftest.py set), so no fork warns of a multi-threaded
        parent."""
        threads = []
        fork = os.fork

        def counting_fork():
            threads.append(thread_count())
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        config, runs = big_runs(1_000_000, count=3)
        assert run_map(config, runs, "sweep.el_db", workers=2) == [0, 1, 2]
        assert threads == [1, 1]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/fd")
    def test_failed_fork_closes_its_pipe(self, monkeypatch, index_runs):
        """A fork that fails (say EAGAIN at a process limit) leaves no pipe
        open: the error propagates once worker 0 is reaped and both ends of
        worker 1's pipe are closed."""
        fork = os.fork
        forks = []

        def second_fork_fails():
            forks.append(None)
            if len(forks) == 2:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", second_fork_fails)
        config, runs = big_runs(1_000_000, count=3)
        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            run_map(config, runs, "sweep.el_db", workers=2)
        assert len(os.listdir("/proc/self/fd")) == before
        assert_no_child_left()


class TestMainEntry:
    def test_success_exit_zero(self, tmp_path, capsys):
        rc = main(["sweep-el", "--out", str(tmp_path),
                   "--set", "sweep.el_db=[0.0]",
                   "--set", "sweep.symbols_per_point=1000000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sweep_el.csv" in out

    @pytest.mark.parametrize("command", [
        ["plan-spectrum"],
        ["sweep-el", "--set", "sweep.el_db=[0.0]", "--set", "sweep.symbols_per_point=1000000"],
    ], ids=["plan-spectrum", "sweep-el"])
    def test_unwritable_out_exit_three(self, tmp_path, capsys, command):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        assert main(command + ["--out", str(blocker / "sub")]) == 3
        assert capsys.readouterr().err.startswith("runtime error:")

    def test_seed_beyond_float_kept(self):
        """The seed is masked to 64 bits, never made a float, so any int is one."""
        assert resolve_config({"rng_seed": 10**400}).rng_seed == 10**400

    def test_saturated_blocks_skip_event_budget(self, tmp_path, monkeypatch, no_pool):
        """At mu_q = 100 (load*tau ~ 220) every block would expect ~7e7 events,
        over the budget, but saturated blocks are flagged, not simulated."""
        monkeypatch.setattr(protocol, "simulate_clicks", never)
        assert main(["stability", "--set", "source.mu_q=100", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "stability_blocks.csv").read_text().splitlines()[1:]
        assert [row.split(",")[4] for row in rows] == ["saturated"] * 10

    def test_over_memory_budget_refused_before_two_workers(self, tmp_path, monkeypatch,
                                                           no_runs):
        """Session blocks run on two workers are checked in the parent first."""
        force_workers(monkeypatch, 2)
        config = resolve_config({"detector.dead_time": 0, "source.mu_q": 100})
        with pytest.raises(ValidationError, match="session.symbols_per_block"):
            cmd_stability(config, tmp_path / "o")
        assert not (tmp_path / "o").exists()

    def test_long_sweep_refused_before_any_channel(self, tmp_path, capsys, monkeypatch,
                                                   no_runs):
        """200,000 sweep points cost 48 s at 0.24 ms per run alone, over the
        cap: refused before the first channel is built."""
        built = []
        with_excess_loss = ChannelParams.with_excess_loss
        monkeypatch.setattr(ChannelParams, "with_excess_loss",
                            lambda self, el: built.append(el) or with_excess_loss(self, el))
        config = tmp_path / "long.json"
        config.write_text(json.dumps({"sweep.el_db": [i / 1e4 for i in range(200_000)]}))
        out = tmp_path / "o"
        assert_refused(capsys, main(["sweep-el", "--config", str(config), "--out", str(out)]),
                       out, "sweep.el_db")
        assert built == []

    def test_config_file_plus_flag_override(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({
            "sweep.el_db": [0.0], "sweep.symbols_per_point": 500_000,
            "rng_seed": 5}))
        rc = main(["sweep-el", "--config", str(cfg_file), "--seed", "6",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        summary = json.loads((tmp_path / "o/sweep_el_summary.json").read_text())
        assert summary["config"]["rng_seed"] == 6

    def test_plan_spectrum_flag_is_the_config_key(self, tmp_path):
        """--spectrum X sets background.spectrum_path=X: both write the same
        bytes, which rank X (here the packaged table 10 dB brighter) and hash it."""
        table = load_spectrum()
        bright = tmp_path / "bright.csv"
        dump_spectrum(SpectralTable(table.wavelengths_nm, [db + 10.0 for db in table.psd_db]),
                      bright)
        for name, args in (("flag", ["--spectrum", str(bright)]),
                           ("key", ["--set", f"background.spectrum_path={bright}"]),
                           ("packaged", [])):
            assert main(["plan-spectrum", "--out", str(tmp_path / name)] + args) == 0
        assert read_tree(tmp_path / "flag") == read_tree(tmp_path / "key")
        ranked, packaged = (json.loads((tmp_path / name / "channel_ranking.json").read_text())
                            for name in ("flag", "packaged"))
        assert ranked["spectrum"] == str(bright)
        assert ranked["config_hash"] != packaged["config_hash"]
        assert ranked["config_hash"] == resolve_config(
            {"background.spectrum_path": str(bright)}).config_hash
        packaged_rates = {r["channel_nm"]: r["background_cts_s"] for r in packaged["ranking"]}
        assert len(ranked["ranking"]) == 3
        for row in ranked["ranking"]:
            assert row["background_cts_s"] == pytest.approx(
                10.0 * packaged_rates[row["channel_nm"]], rel=1e-9)

    def test_cli_seed_changes_mc_not_model(self, tmp_path):
        for seed in ("1", "2"):
            main(["sweep-el", "--out", str(tmp_path / seed), "--seed", seed,
                  "--set", "sweep.el_db=[0.0]",
                  "--set", "sweep.symbols_per_point=1000000"])
        rows = [
            (tmp_path / s / "sweep_el.csv").read_text().splitlines()[1].split(",")
            for s in ("1", "2")
        ]
        assert rows[0][1] == rows[1][1]      # model column identical
        assert rows[0][2] != rows[1][2]      # MC column reseeded


def _table(*rows: str) -> str:
    """A spectrum CSV of ``rows``, each "wavelength_nm,psd_db"."""
    return "\n".join([CSV_HEADER, *rows]) + "\n"


def _bright_table(psd_db):
    return _table(f"1260.0,{psd_db}", f"1630.0,{psd_db}")


def refusal(id, argv: str, says: str, files=None):
    """A row of REFUSALS: ``argv``, split on spaces, is refused with a message
    that starts with ``says`` (see assert_refused). ``files`` maps a name to
    the text or bytes written there first; {dir} is the directory that holds
    them. The row runs with ``--out`` the checked directory unless its own
    ``--out``, which comes later, overrides it."""
    return pytest.param(argv, says, files or {}, id=id)


# past any recursion limit: hypothesis raises it by 2,000 while a test runs
_DEEP = "[" * 100_000 + "]" * 100_000
_MU_Q_100 = "source.mu_q: 2000000000 symbols expect 7.04e+07 photons (source.mu_q 100)"
_BAD_START = "session.block_duration_s: a run that ends 1e+308 s from the session origin"
_TOO_BRIGHT = ("background.spectrum_path: in-band background of the 1410.0 nm channel "
               "is inf cts/s, not finite: the spectrum is too bright to integrate in floats\n")
_CANNOT_READ = "background.spectrum_path: cannot read spectrum file {} ("

# Every config, flag and input file the CLI must refuse, with the key or text
# its refusal must start with. A new refusal is one more row.
REFUSALS = [
    refusal("unknown-key", "sweep-el --set nope=1", "unknown config key 'nope'"),
    refusal("set-without-value", "sweep-el --set foo", "--set expects KEY=VALUE, got 'foo'"),
    refusal("workers-zero", "sweep-el --workers 0", "--workers must be >= 1"),
    refusal("config-list", "sweep-el --config {dir}/list.json",
            "config file {dir}/list.json: top level must be an object",
            {"list.json": "[1, 2]\n"}),
    # the value set last is refused, naming its key: out of its range or
    # type, non-finite for an integer key, or too much for the command
    *[refusal(id, f"{command} --set {key}={value}", key) for id, command, key, value in [
        ("fiber-kind", "sweep-el", "channel.fiber_kind", "XYZ"),
        ("background-mode", "sweep-el", "background.mode", "foo"),
        ("blocks-negative", "stability", "session.blocks", -1),
        ("block-duration-zero", "stability", "session.block_duration_s", 0),
        ("symbols-per-block-zero", "stability", "session.symbols_per_block", 0),
        ("stability-no-blocks", "stability", "session.blocks", 0),
        ("coexist-one-block", "coexist", "session.blocks", 1),
        ("blocks-inf", "stability", "session.blocks", "Infinity"),
        ("symbols-nan", "sweep-el", "sweep.symbols_per_point", "NaN"),
        ("sweep-empty", "sweep-el", "sweep.el_db", "[]"),
        ("sweep-unsorted", "sweep-el", "sweep.el_db", "[0,2,1]"),
        ("sweep-repeated", "sweep-el", "sweep.el_db", "[0,1,1]"),
        ("sweep-negative", "sweep-el", "sweep.el_db", "[-1,0,1]"),
        # 10 ** (dBm / 10) overflows a float past ~3083 dB
        ("dbm-coexist-launch", "coexist", "classical.launch_power_dbm", 3100),
        ("dbm-stability-launch", "stability --set classical.enabled=true",
         "classical.launch_power_dbm", 3100),
        ("dbm-coexist-sensitivity", "coexist", "classical.sensitivity_dbm_at_fec", -3200),
        # json refuses an int of more digits than int() converts with a
        # ValueError that is not a JSONDecodeError: still a refused value
        ("digits-past-str-limit-set", "stability", "session.blocks", "1" + "0" * 5000),
        # nested past the recursion limit: text that is not JSON
        ("nested-set", "sweep-el", "rng_seed", _DEEP),
        # the OS takes no NUL in a path, whether or not the command opens it
        ("nul-spectrum-path", "sweep-el", "background.spectrum_path", '"a\\u0000b"'),
        # each loss is in its interval, but the classical path's sum overflows
        ("coexist-loss-overflow", "coexist --set channel.excess_loss_db=1e308",
         "channel.fso_loss_db", 1e308),
        # Refused before any run is simulated: on its per-run term alone
        # before any run is built, or on its events once run_map has priced
        # the runs. mu_q = 4 at 2e9 symbols: ~2.9e6 events per run, ~40 s for
        # 100 runs; the last block of the third starts at an infinite time,
        # and the cost cap is checked before any time axis.
        ("cap-stability-runs", "stability", "session.blocks", 1000000000),
        ("cap-coexist-events", "coexist --set source.mu_q=4", "session.blocks", 100),
        ("cap-coexist-events-inf-start",
         "coexist --set source.mu_q=4 --set session.block_duration_s=1.9e306",
         "session.blocks", 100)]],
    refusal("seed-config-minus-inf", "sweep-el --config {dir}/cfg.json", "rng_seed",
            {"cfg.json": '{"rng_seed": -Infinity}'}),
    refusal("digits-past-str-limit-config", "stability --config {dir}/cfg.json",
            "config file {dir}/cfg.json: invalid JSON (",
            {"cfg.json": f'{{"session.blocks": 1{"0" * 5000}}}'}),
    refusal("nested-config", "sweep-el --config {dir}/deep.json",
            "config file {dir}/deep.json: invalid JSON (",
            {"deep.json": f'{{"rng_seed": {_DEEP}}}'}),
    refusal("nul-output-path", "sweep-el --config {dir}/nul.json", "output_path",
            {"nul.json": '{"output_path": "o\\u0000x"}'}),
    # a flag's path too, before the config file is read or anything written
    *[refusal(f"nul-{flag}", f"plan-spectrum --{flag} {{dir}}/a\0b",
              f"--{flag}: a path cannot hold a NUL character, got '{{dir}}/a\\x00b'")
      for flag in ("out", "config")],
    # A count meets float arithmetic (the event budget, the cost cap), and a
    # float key is made a float, so an int past the largest float is refused
    # naming its key, not an OverflowError; in a list, as any one entry.
    *[refusal(f"beyond-float-{command}-{key}",
              f"{command} --set {key}={f'[0.0,{10**400}]' if key == 'sweep.el_db' else 10**400}",
              f"{key}: must be at most 1.7976931348623157e+308, got an int of 1329 bits")
      for command, key in [("sweep-el", "sweep.symbols_per_point"),
                           ("stability", "session.blocks"),
                           ("stability", "session.symbols_per_block"),
                           ("plan-spectrum", "source.mu_q"),
                           ("sweep-el", "channel.rx_insertion_db"),
                           ("sweep-el", "sweep.el_db")]],
    # mu_q = 100 at 2e9 symbols expects ~7e7 detector events per run, over the
    # budget of one run, and the automatic worker count would give a pool;
    # the parent refuses first
    refusal("budget-stability", "stability --set detector.dead_time=0 --set source.mu_q=100",
            _MU_Q_100),
    refusal("budget-sweep-el-workers-2", "sweep-el --workers 2 --set source.mu_q=100 "
            "--set sweep.symbols_per_point=2000000000", _MU_Q_100),
    # 1e7 symbols at 1e10 cts/s expect 2e8 background arrivals, far more
    # than the photons even at mu_q = 100
    refusal("budget-sweep-el-background",
            "sweep-el --set background.mode=explicit --set background.solar_rate=1e10 "
            "--set sweep.el_db=[0.0] --set source.mu_q=100",
            "background.solar_rate: 10000000 symbols expect 3.52e+05 photons (source.mu_q "
            "100) plus 2e+08 background arrivals"),
    # A flat 150 dB table integrates to a finite rate over the budget: the
    # refusal names the key the user set, not background.solar_rate, which
    # spectrum mode will not take. (Sessions flag such blocks saturated.)
    refusal("budget-spectrum-path", "sweep-el --set background.spectrum_path={dir}/hot.csv",
            "background.spectrum_path: 10000000 symbols expect 358 photons (source.mu_q 0.1) "
            "plus 1.46e+14 background arrivals (7.29e+15 cts/s) in one run, over the memory "
            "budget of 2e+07 detector events; lower the background rate",
            {"hot.csv": _bright_table(150.0)}),
    refusal("cap-sweep-events",
            "sweep-el --set sweep.symbols_per_point=2000000000 --set source.mu_q=4 "
            f"--set sweep.el_db={json.dumps([i / 100 for i in range(100)]).replace(' ', '')}",
            "sweep.el_db"),
    # block 2 starts 1e10 s after the origin: 1e300 rad/s * 1e10 s is inf
    refusal("drift-angle-overflow",
            "stability --set channel.drift_rate=1e300 --set session.block_duration_s=1e10 "
            "--set session.blocks=2 --set session.symbols_per_block=100000000",
            "channel.drift_rate"),
    # Block 1 starts at 1e308 s, where floats lie about 2e292 s apart: every
    # slot time would round to one value, and dead time would pass every
    # event. Block 2, at 2e308 s, has no finite slot times, but block 1 is
    # refused first; so it is when every block saturates (mu_q = 100) and
    # none is simulated.
    refusal("block-start-collapsed",
            "stability --set channel.drift_rate=0 --set channel.fiber_kind=OM4 "
            "--set session.block_duration_s=1e308 --set session.blocks=2 "
            "--set session.symbols_per_block=100000000", _BAD_START),
    refusal("block-start-non-finite",
            "stability --set channel.drift_rate=0 --set session.block_duration_s=1e308 "
            "--set session.blocks=3 --set session.symbols_per_block=1000000", _BAD_START),
    refusal("block-start-non-finite-saturated", "stability --set source.mu_q=100 "
            "--set session.block_duration_s=1e308 --set session.blocks=3", _BAD_START),
    # A run of 1e15 slots, expecting no event, ends 2e6 s after its own start,
    # where floats lie 2.33e-10 s apart. No start mends that, so it is refused
    # naming the key that sets its length, not one it does not read.
    *[refusal(f"run-too-long-{command.split()[0]}",
              f"{command} --set background.mode=explicit --set detector.dark_rate=0 "
              f"--set source.mu_q=0 --set {key}=1000000000000000",
              f"{key}: a run that ends 2e+06 s from its own start resolves its slot times "
              "only to 2.33e-10 s")
      for command, key in [("sweep-el", "sweep.symbols_per_point"),
                           ("stability --set session.blocks=1", "session.symbols_per_block")]],
    refusal("spectrum-one-row", "plan-spectrum --spectrum {dir}/t.csv",
            "background.spectrum_path", {"t.csv": _table("1300.0,10.0")}),
    refusal("spectrum-header-only", "plan-spectrum --spectrum {dir}/t.csv",
            "background.spectrum_path", {"t.csv": _table()}),
    refusal("spectrum-bad-cell", "plan-spectrum --spectrum {dir}/t.csv",
            "background.spectrum_path: line 2: non-numeric row '1300.0,a'",
            {"t.csv": _table("1300.0,a")}),
    # a nan PSD would reach channel_ranking.json as NaN, which is not JSON
    refusal("spectrum-non-finite-psd", "plan-spectrum --spectrum {dir}/t.csv",
            "background.spectrum_path: line 2: non-finite value in row '1300,nan'",
            {"t.csv": _table("1300,nan", "1500.0,10.0")}),
    # explicit mode reads no spectrum, so --spectrum is refused like the key
    refusal("spectrum-flag-in-explicit-mode",
            "plan-spectrum --spectrum {dir}/t.csv --set background.mode=explicit",
            "background.spectrum_path: not read under", {"t.csv": _bright_table(35.0)}),
    # resolution integrates 1410 nm, from 1403.5 to 1416.5 nm; plan-spectrum's
    # ranking also integrates 1430 nm, from 1423.5 nm
    *[refusal(f"spectrum-misses-{missed}",
              f"{command} --set background.spectrum_path={{dir}}/t.csv",
              f"background.spectrum_path: wavelength query outside spectrum domain "
              f"[{lo}, {hi}] nm\n", {"t.csv": _table(f"{lo},10.0", f"{hi},20.0")})
      for command, lo, hi, missed in [("sweep-el", 1300.0, 1400.0, 1410),
                                      ("plan-spectrum", 1380.0, 1420.0, 1430)]],
    # A rate of inf would reach channel_ranking.json as Infinity, which is not
    # JSON, or be refused naming background.solar_rate, a key not set. At
    # 3080 dB every sample is finite and only the integral overflows.
    *[refusal(f"spectrum-too-bright-{name}-{command}", f"{command} {flag}{{dir}}/t.csv",
              _TOO_BRIGHT, {"t.csv": _bright_table(psd_db)})
      for psd_db, name in [(4000.0, "psd-overflows"), (3080.0, "sum-overflows")]
      for command, flag in [("plan-spectrum", "--spectrum "),
                            ("sweep-el", "--set background.spectrum_path=")]],
    # a path that cannot be read as text: missing, a directory, or not UTF-8
    *[refusal(f"{by}-{kind}", argv.format(path), says.format(path), files)
      for by, argv, says in [("config-file", "sweep-el --config {}",
                              "config file {}: cannot read ("),
                             ("spectrum-path", "sweep-el --set background.spectrum_path={}",
                              _CANNOT_READ),
                             ("plan-spectrum", "plan-spectrum --spectrum {}", _CANNOT_READ)]
      for kind, path, files in [("missing", "{dir}/missing", {}), ("directory", "{dir}", {}),
                                ("not-utf8", "{dir}/bytes", {"bytes": b"\xff\xfe\xfa text\n"})]],
]


@pytest.mark.parametrize("argv, says, files", REFUSALS)
def test_refused(tmp_path, capsys, no_runs, argv, says, files):
    for name, content in files.items():
        (tmp_path / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    here = str(tmp_path)
    out = tmp_path / "out"
    command, *args = [arg.replace("{dir}", here) for arg in argv.split(" ")]
    rc = main([command, "--out", str(out), *args])
    assert_refused(capsys, rc, out, says.replace("{dir}", here))


def test_runtime_imports_without_scipy(tmp_path):
    """The CLI runs with scipy unimportable: the runtime needs numpy only."""
    script = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "from fso_qkd.cli import main",
        f"assert main(['plan-spectrum', '--out', {str(tmp_path / 'plan')!r}]) == 0",
        "assert main(['coexist', '--set', 'session.blocks=2',",
        "             '--set', 'session.symbols_per_block=100000000',",
        f"             '--out', {str(tmp_path / 'coexist')!r}]) == 0",
    ])
    proc = subprocess.run(**fresh_python("-c", script), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "coexist" / "coexist_summary.json").is_file()


# JSON type of each config kind, and one sample value of every JSON type
_JSON_TYPE = {"float": "number", "int": "number", "bool": "bool", "str": "string",
              "floatlist": "array"}
_JSON_SAMPLE = {"number": 2.5, "bool": True, "string": "x", "array": [1.0],
                "object": {"a": 1}}


# The record whose _domain bounds each section's keys; the keys of the other
# sections carry their interval in _KEYS.
_SECTION_RECORD = {"source": SourceParams, "channel": ChannelParams,
                   "detector": DetectorParams, "background": BackgroundBudget,
                   "classical": ClassicalParams}


def domain_of(key: str) -> tuple[float, float, str]:
    """``(lo, hi, ends)`` of ``key``'s interval, read from the table its check
    reads: the ``_domain`` of the record its section builds, or else its
    ``_KEYS`` entry; ``(-inf, inf, "()")`` for a key no interval bounds."""
    section, _, name = key.partition(".")
    if section in _SECTION_RECORD:
        domain = _SECTION_RECORD[section]._domain.get(name)
    else:
        domain = (_KEYS[key][2:] or [None])[0]
    return (*(domain or (-math.inf, math.inf, "()")), "[]")[:3]


def _bound_edges(key: str) -> list[tuple[object, bool]]:
    """(value, allowed) at each finite bound of ``key``'s interval: the bound
    itself where it is closed, and one step inside and one outside, a ulp for
    a float key and 1 for an int key."""
    lo, hi, ends = domain_of(key)
    whole = _KEYS[key][0] == "int"
    edges = []
    for bound, closed, inward in ((lo, ends[0] == "[", 1), (hi, ends[1] == "]", -1)):
        if not math.isfinite(bound):
            continue
        if whole:
            bound = int(bound)
            inside, outside = bound + inward, bound - inward
        else:
            inside, outside = (math.nextafter(bound, way * math.inf) for way in (inward, -inward))
        edges += [(bound, True)] * closed + [(inside, True), (outside, False)]
    return edges


_EDGE_SMALL = {"sweep.el_db": [0.0, 4.0], "sweep.symbols_per_point": 100_000,
               "session.blocks": 2, "session.symbols_per_block": 100_000}


def _edge_config(tmp_path, overrides) -> str:
    """A config file of the fuzz's small runs with ``overrides``."""
    config = tmp_path / "edge.json"
    config.write_text(json.dumps({**_EDGE_SMALL, **overrides}))
    return str(config)


def _exits_cleanly(capsys, ran, argv, out: Path, says=ANY_KEY) -> str | None:
    """``main(argv)`` with ``--out out``, made afresh, succeeds (None), or
    refuses as assert_refused requires, naming a config key by default; then
    the refusal's message is returned."""
    shutil.rmtree(out, ignore_errors=True)
    ran.clear()
    capsys.readouterr()
    rc = main(argv + ["--out", str(out)])
    return None if rc == 0 else assert_refused(capsys, rc, out, says, ran)


@st.composite
def _edge_value(draw, key):
    kind, default = _KEYS[key][:2]
    other_types = [v for t, v in _JSON_SAMPLE.items() if t != _JSON_TYPE[kind]]
    choices = [None, draw(st.sampled_from(other_types)), 0, -1, default,
               float("inf"), float("nan")] + [v for v, _ in _bound_edges(key)]
    if kind == "float":
        choices += [1e300, sys.float_info.max, 10**400]
    if kind == "int":
        choices += [10**9, 10**400]
    if kind == "str":
        choices += ["a\0b"]
    return draw(st.sampled_from(choices))


@st.composite
def _edge_overrides(draw):
    keys = draw(st.lists(st.sampled_from(sorted(_KEYS)), min_size=1, max_size=3,
                         unique=True))
    return {key: draw(_edge_value(key)) for key in keys}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["sweep-el", "stability", "coexist", "plan-spectrum"]),
       overrides=_edge_overrides())
@example(command="sweep-el", overrides={"background.spectrum_path": "a\0b"})
@example(command="coexist", overrides={"channel.fso_loss_db": sys.float_info.max,
                                       "channel.excess_loss_db": sys.float_info.max})
def test_any_edge_config_exits_cleanly(tmp_path, capsys, ran, command, overrides):
    """Null, wrong-type, zero, negative, default, non-finite and huge values
    (past the largest float too), a NUL in a string, and each bound with its
    neighbours, for 1-3 keys: the CLI succeeds or refuses naming a config
    key; it never raises."""
    _exits_cleanly(capsys, ran, [command, "--config", _edge_config(tmp_path, overrides)],
                   tmp_path / "o")


_EDGES = [(key, value, allowed) for key in sorted(_KEYS)
          for value, allowed in _bound_edges(key)]


@pytest.mark.parametrize("key, value, allowed", _EDGES,
                         ids=[f"{k}={v!r}" for k, v, _ in _EDGES])
def test_every_bound_from_its_table(tmp_path, capsys, ran, key, value, allowed):
    """One step outside a key's bound is refused naming the key; the bound, if
    closed, and one step inside run sweep-el and coexist to exit 0 or 2, never
    a traceback. A bound written too wide fails here only where the value it
    lets in crashes. One too wide inside the physics runs cleanly; the model
    check over valid configs, ``test_protocol.test_valid_configs_meet_model``,
    draws each closed bound and fails where the Monte Carlo and the closed
    form part there. ``gate_fraction`` closed at 0 parts neither: both drop
    every background arrival at gate 0."""
    # background.solar_rate is read only in explicit mode
    overrides = {"background.mode": "explicit"} if key == "background.solar_rate" else {}
    overrides[key] = value
    if not allowed:
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(key)}: must be .*, got {re.escape(str(value))}$"):
            resolve_config({**_EDGE_SMALL, **overrides})
        return
    config = _edge_config(tmp_path, overrides)
    for command in ("sweep-el", "coexist"):
        _exits_cleanly(capsys, ran, [command, "--config", config], tmp_path / command)


# A fuzzed spectrum's PSDs run from dim to too bright to integrate in floats.
_PSD_DB = st.one_of(st.floats(-50.0, 200.0), st.floats(-400.0, 3100.0),
                    st.sampled_from([35.0, 150.0, 3080.0]))
# Rows load_spectrum must refuse or skip: bad, blank, non-finite and huge
# cells, and one or three columns.
_BAD_ROW = st.lists(st.sampled_from(["1410", "35.0", "x", "", " ", "nan", "inf", "-inf",
                                     "1e999", "1e3"]), min_size=1, max_size=3).map(",".join)


@st.composite
def _spectrum_csv(draw):
    header = CSV_HEADER if draw(st.integers(0, 5)) else draw(
        st.sampled_from(["\ufeff" + CSV_HEADER, "wavelength,psd", ""]))
    table = draw(st.lists(st.tuples(st.floats(1200.0, 1700.0), _PSD_DB), max_size=8))
    if draw(st.booleans()):  # rows that bracket the CWDM grid
        table += [(1260.0, draw(_PSD_DB)), (1630.0, draw(_PSD_DB))]
    if draw(st.integers(0, 3)):  # mostly in wavelength order, as real tables are
        table = sorted(dict(table).items())
    rows = [f"{wl!r},{db!r}" for wl, db in table]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        rows.insert(draw(st.integers(0, len(rows))), draw(_BAD_ROW))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join([header] + rows) + end


# Values of a fuzzed config file's entries, as written in the file: wrong
# types, ints written as floats, non-finite literals Python reads, text that
# is not JSON, a NUL in a string and arrays nested past the recursion limit.
_JSON_TOKENS = ["true", "null", '"x"', "[1.0]", '{"a": 1}', "1.0", "1e3", "2", "0", "-1",
                "1e999", "NaN", "Infinity", "123456789012345678901234567890", "+1", "'x'",
                '"a\\u0000b"', _DEEP]
# background.mode and background.spectrum_path stay unset by the fuzz, so
# every config reads the fuzzed spectrum under spectrum mode.
_FUZZED_KEYS = sorted(set(_KEYS) - {"background.mode", "background.spectrum_path"})


@st.composite
def _config_text(draw):
    entries = draw(st.lists(st.tuples(st.sampled_from(_FUZZED_KEYS),
                                      st.sampled_from(_JSON_TOKENS)), max_size=2)
                   | st.just([]))
    return ", ".join(f'"{key}": {token}' for key, token in entries)


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["sweep-el", "plan-spectrum", "stability"]),
       csv=_spectrum_csv(), entries=_config_text())
@example(command="sweep-el", csv=_bright_table(150.0), entries="")
@example(command="plan-spectrum", csv=_bright_table(3080.0), entries="")
@example(command="stability", csv=_bright_table(35.0), entries='"background.solar_rate": 1.0')
@example(command="sweep-el", csv=_bright_table(35.0), entries=f'"rng_seed": {_DEEP}')
def test_any_spectrum_and_config_file_exit_cleanly(tmp_path, capsys, ran, command, csv,
                                                   entries):
    """The file-content twin of test_any_edge_config_exits_cleanly: a fuzzed
    spectrum CSV (bad cells, non-finite and huge values, extra columns, blank
    and CRLF lines, a BOM, 0-12 rows) named by a fuzzed config file. The CLI
    exits 0, writing only strict JSON, or refuses naming the config file or a
    config key; a key the file does not set can be set alone without a 'not
    read under' refusal. A flat 150 dB table exceeds the event budget, which
    must be refused naming background.spectrum_path, not
    background.solar_rate."""
    spectrum = tmp_path / "spectrum.csv"
    spectrum.write_text(csv, encoding="utf-8", newline="")
    small = {"sweep.el_db": [0.0], "sweep.symbols_per_point": 100_000,
             "session.blocks": 2, "session.symbols_per_block": 100_000,
             "background.spectrum_path": str(spectrum)}
    config = tmp_path / "fuzz.json"
    config.write_text(json.dumps(small)[:-1] + (", " + entries if entries else "") + "}")
    out = tmp_path / "o"
    file_refusal = f"config file {config}: "
    message = _exits_cleanly(capsys, ran, [command, "--config", str(config)], out,
                             (file_refusal, *ANY_KEY))
    if message is None:
        for path in out.glob("*.json"):
            _strict_json(path.read_text())
        return
    if message.startswith(file_refusal):
        return
    key = message.partition(": ")[0]
    if f'"{key}"' in config.read_text():  # an entry of the user's own
        return
    default = _KEYS[key][1]
    try:
        resolve_config({key: 0.0 if default is None else default})
    except ValidationError as exc:
        assert "not read under" not in str(exc), message

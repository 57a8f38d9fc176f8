"""Output checks for the fso-qkd CLI, computed apart from the program.

Nothing here imports ``fso_qkd``. The closed-form link model is re-derived
from the resolved configuration that every summary echoes: per symbol a
pulse fires the SPAD with p = 1 - exp(-mu eta t); one polarizer port and
basis sifting keep a quarter of that; gated background errs half the time
and a quarter of it is kept; a non-paralyzable dead time thins everything by
1/(1 + load tau). Monte Carlo counts are held to that model within
``Z_MAX`` standard deviations on the square-root scale, where a Poisson count
k of mean m has z = 2 (sqrt(k) - sqrt(m)); dead-time thinning makes the real
counts sub-Poisson, so the test is conservative.

Each ``check_*`` function takes a command's output directory and returns a
list of problems; an empty list means every check passed.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from statistics import NormalDist

Z_MAX = 6.0
REL_TOL = 1e-9
QBER_THRESHOLD = 0.11

# Paper anchors (daylight BB84 link, 1410 nm over 25-um MMF).
ANCHOR_CROSSING_DB = (7.6, 0.5)
ANCHOR_FLOOR_1430 = (590.0, 60.0)
ANCHOR_COEXIST_PENALTY = (0.007, 0.003)
ANCHOR_OM4_QBER = (0.19, 0.01)
ANCHOR_MIN_MARGIN_DB = 15.0


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def crosstalk_rate(cfg: dict) -> float:
    return cfg["classical.crosstalk_rate_at_0dbm"] * 10.0 ** (
        cfg["classical.launch_power_dbm"] / 10.0)


def model(cfg: dict, excess_loss_db: float, crosstalk: float = 0.0) -> tuple[float, float]:
    """(qber, sifted key rate in b/s) of the closed-form link model."""
    loss_db = cfg["channel.fso_loss_db"] + excess_loss_db + cfg["channel.rx_insertion_db"]
    p_click = 1.0 - math.exp(-cfg["source.mu_q"] * 10.0 ** (-loss_db / 10.0)
                             * cfg["detector.efficiency"])
    rate = cfg["source.symbol_rate"]
    signal_kept = rate * p_click * cfg["detector.signal_gate_acceptance"] / 4.0
    background = cfg["background.solar_rate"] + cfg["detector.dark_rate"] + crosstalk
    background_kept = background * cfg["detector.gate_fraction"] / 2.0
    load = rate * p_click / 2.0 + background
    thinning = 1.0 / (1.0 + load * cfg["detector.dead_time"])
    e_pol = 0.5 * (1.0 - (1.0 - 2.0 * cfg["protocol.intrinsic_error"])
                   * (1.0 - cfg["channel.depol_p"]))
    kept = signal_kept + background_kept
    return (e_pol * signal_kept + 0.5 * background_kept) / kept, kept * thinning


def secure_fraction(qber: float) -> float:
    if qber <= 0.0 or qber >= 1.0:
        return 1.0
    h = -qber * math.log2(qber) - (1.0 - qber) * math.log2(1.0 - qber)
    return max(0.0, 1.0 - 2.0 * h)


def crossing(el_db: list[float], qber: list[float]) -> float | None:
    for e0, q0, e1, q1 in zip(el_db, qber, el_db[1:], qber[1:]):
        if q0 < QBER_THRESHOLD <= q1:
            return e0 + (QBER_THRESHOLD - q0) * (e1 - e0) / (q1 - q0)
    return None


def root_z(count: float, mean: float) -> float:
    return 2.0 * (math.sqrt(max(count, 0.0)) - math.sqrt(max(mean, 0.0)))


class Problems(list):
    """Collects failed checks as readable messages."""

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)

    def close(self, got, want, what: str, rel: float = REL_TOL, abs_tol: float = 0.0):
        ok = got is not None and want is not None and math.isclose(
            got, want, rel_tol=rel, abs_tol=abs_tol)
        self.require(ok, f"{what}: got {got!r}, oracle {want!r}")

    def within(self, value, anchor: tuple[float, float], what: str) -> None:
        centre, tol = anchor
        self.require(value is not None and abs(value - centre) <= tol,
                     f"{what}: {value!r} outside {centre} +/- {tol}")

    def counts(self, count: float, mean: float, what: str) -> None:
        z = root_z(count, mean)
        self.require(abs(z) <= Z_MAX, f"{what}: {count} vs oracle {mean:.6g} (z={z:.2f})")


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _whole(value: float, what: str, problems: Problems) -> int:
    count = round(value)
    problems.require(abs(value - count) < 1e-6, f"{what}: {value!r} is not a whole count")
    return count


def check_sweep(out: Path) -> Problems:
    """sweep-el: every row against the closed form, counts within Z_MAX."""
    problems = Problems()
    summary = _read_json(out / "sweep_el_summary.json")
    rows = _read_csv(out / "sweep_el.csv")
    cfg = summary["config"]
    chash = config_hash(cfg)
    problems.require(summary["config_hash"] == chash, "summary config_hash != sha256 of config")
    problems.require([float(r["el_db"]) for r in rows] == cfg["sweep.el_db"],
                     "sweep rows do not follow sweep.el_db")
    duration = cfg["sweep.symbols_per_point"] / cfg["source.symbol_rate"]
    oracle_qber, total_kept, total_mean, total_err, total_err_mean = [], 0, 0.0, 0, 0.0
    for row in rows:
        el = float(row["el_db"])
        qber, rawkey = model(cfg, el)
        oracle_qber.append(qber)
        problems.close(float(row["qber_model"]), qber, f"qber_model at {el} dB")
        problems.close(float(row["rawkey_model"]), rawkey, f"rawkey_model at {el} dB")
        problems.close(float(row["secure_fraction"]), secure_fraction(qber),
                       f"secure_fraction at {el} dB", abs_tol=1e-9)
        problems.require(row["config_hash"] == chash, f"config_hash at {el} dB")
        kept = _whole(float(row["rawkey_mc"]) * duration, f"sifted bits at {el} dB", problems)
        problems.counts(kept, rawkey * duration, f"sifted bits at {el} dB")
        if kept:
            errors = _whole(float(row["qber_mc"]) * kept, f"bit errors at {el} dB", problems)
            problems.counts(errors, kept * qber, f"bit errors at {el} dB")
            total_err += errors
            total_err_mean += kept * qber
        total_kept += kept
        total_mean += rawkey * duration
    problems.counts(total_kept, total_mean, "sifted bits over the sweep")
    problems.counts(total_err, total_err_mean, "bit errors over the sweep")
    el_grid = [float(r["el_db"]) for r in rows]
    want = crossing(el_grid, oracle_qber)
    problems.close(summary["threshold_crossing_el_db"], want, "threshold crossing", rel=1e-6)
    problems.within(want, ANCHOR_CROSSING_DB, "excess loss at 11% QBER")
    point = summary["operating_point"]
    problems.close(point["qber_model"], oracle_qber[0], "operating point qber")
    return problems


def check_ranking(out: Path, sweep_out: Path) -> Problems:
    """plan-spectrum: ranking order, floors, the 1430-nm anchor, and agreement
    with the background integral that config resolution used."""
    problems = Problems()
    report = _read_json(out / "channel_ranking.json")
    sweep_cfg = _read_json(sweep_out / "sweep_el_summary.json")["config"]
    ranking = report["ranking"]
    problems.require(report["config_hash"] == config_hash(sweep_cfg),
                     "plan-spectrum config_hash != hash of the resolved defaults")
    backgrounds = [r["background_cts_s"] for r in ranking]
    problems.require(backgrounds == sorted(backgrounds), "ranking is not ascending")
    problems.require(sorted(r["channel_nm"] for r in ranking) == [1390.0, 1410.0, 1430.0],
                     "ranking does not cover the CWDM grid")
    dark = sweep_cfg["detector.dark_rate"]
    problems.require(report["dark_rate_cts_s"] == dark, "dark rate differs from config")
    by_channel = {r["channel_nm"]: r for r in ranking}
    for nm, row in by_channel.items():
        problems.close(row["total_floor_cts_s"], row["background_cts_s"] + dark,
                       f"total floor at {nm} nm")
        problems.require(row["below_dark"] == (row["background_cts_s"] < dark),
                         f"below_dark flag at {nm} nm")
    problems.within(by_channel.get(1430.0, {}).get("total_floor_cts_s"),
                    ANCHOR_FLOOR_1430, "1430-nm noise floor")
    problems.close(by_channel.get(1410.0, {}).get("background_cts_s"),
                   sweep_cfg["background.solar_rate"], "1410-nm background vs resolved config")
    return problems


def _check_blocks(out: Path, csv_name: str, summary: dict, kappa_column: bool,
                  problems: Problems) -> list[tuple[float, int, float]]:
    """Per-block checks shared by stability and coexist.

    Returns (qber, kept bits, oracle qber) per block.
    """
    cfg = summary["config"]
    chash = config_hash(cfg)
    problems.require(summary["config_hash"] == chash, "summary config_hash != sha256 of config")
    rows = _read_csv(out / csv_name)
    problems.require(len(rows) == cfg["session.blocks"], "block count differs from config")
    duration = cfg["session.symbols_per_block"] / cfg["source.symbol_rate"]
    blocks, total_kept, total_mean = [], 0, 0.0
    for i, row in enumerate(rows):
        kappa = cfg["classical.enabled"] and i % 2 == 1
        if kappa_column:
            problems.require(row["kappa"] == ("true" if kappa else "false"),
                             f"block {i}: kappa pattern")
        problems.require(row["flag"] == "ok", f"block {i}: flag {row['flag']!r}")
        problems.require(row["config_hash"] == chash, f"block {i}: config_hash")
        problems.close(float(row["block_start"]), i * cfg["session.block_duration_s"],
                       f"block {i}: start")
        qber, rawkey = model(cfg, cfg["channel.excess_loss_db"],
                             crosstalk_rate(cfg) if kappa else 0.0)
        kept = _whole(float(row["raw_key_rate"]) * duration, f"block {i}: sifted bits", problems)
        problems.counts(kept, rawkey * duration, f"block {i}: sifted bits")
        errors = _whole(float(row["qber"]) * kept, f"block {i}: bit errors", problems)
        problems.counts(errors, kept * qber, f"block {i}: bit errors")
        total_kept += kept
        total_mean += rawkey * duration
        blocks.append((float(row["qber"]), kept, qber))
    problems.counts(total_kept, total_mean, "sifted bits over the session")
    return blocks


def check_stability(out: Path) -> Problems:
    problems = Problems()
    summary = _read_json(out / "stability_summary.json")
    blocks = _check_blocks(out, "stability_blocks.csv", summary, False, problems)
    qbers = [b[0] for b in blocks]
    if qbers:
        problems.close(summary["qber_mean"], sum(qbers) / len(qbers), "qber_mean", rel=1e-12)
        problems.require(summary["qber_max"] == max(qbers), "qber_max")
        problems.require(summary["all_blocks_below_threshold"] == (max(qbers) < QBER_THRESHOLD),
                         "all_blocks_below_threshold")
    if summary["config"]["channel.fiber_kind"] == "OM4":
        problems.within(summary["qber_mean"], ANCHOR_OM4_QBER, "OM4 mean QBER")
    return problems


def check_coexist(out: Path) -> Problems:
    """coexist: blocks, classical margin and BER, and the kappa penalty.

    The paper's 0.7 +/- 0.3 % penalty is held by the closed form. The Monte
    Carlo penalty of ten default blocks has a spread of about 0.12 % across
    seeds, so it is held to the closed form within Z_MAX sigma instead.
    """
    problems = Problems()
    summary = _read_json(out / "coexist_summary.json")
    cfg = summary["config"]
    blocks = _check_blocks(out, "coexist_blocks.csv", summary, True, problems)
    on, off = blocks[1::2], blocks[0::2]
    if on and off:
        mean = lambda xs: sum(xs) / len(xs)
        penalty = mean([b[0] for b in on]) - mean([b[0] for b in off])
        problems.close(summary["qber_penalty"], penalty, "qber_penalty", rel=1e-9, abs_tol=1e-15)
        want = mean([b[2] for b in on]) - mean([b[2] for b in off])
        problems.within(want, ANCHOR_COEXIST_PENALTY, "closed-form kappa penalty")
        var = sum(sum(q * (1.0 - q) / max(k, 1) for _, k, q in group) / len(group) ** 2
                  for group in (on, off))
        z = (penalty - want) / math.sqrt(var)
        problems.require(abs(z) <= Z_MAX,
                         f"Monte Carlo kappa penalty {penalty:.5f} vs {want:.5f} (z={z:.2f})")
    loss = (cfg["channel.fso_loss_db"] + cfg["channel.excess_loss_db"]
            + cfg["classical.rx_insertion_db"])
    received = cfg["classical.launch_power_dbm"] - loss
    margin = received - cfg["classical.sensitivity_dbm_at_fec"]
    q = NormalDist().inv_cdf(1.0 - cfg["classical.fec_ber"]) * 10.0 ** (margin / 10.0)
    classical = summary["classical"]
    problems.close(classical["total_loss_db"], loss, "classical total loss")
    problems.close(classical["received_power_dbm"], received, "classical received power")
    problems.close(classical["margin_db"], margin, "classical margin")
    problems.close(classical["ber"], 0.5 * math.erfc(q / math.sqrt(2.0)), "classical BER",
                   rel=1e-6, abs_tol=1e-300)
    problems.require(margin > ANCHOR_MIN_MARGIN_DB, f"power margin {margin} dB <= 15 dB")
    return problems


def kept_bits(out: Path) -> int:
    """Sifted bits a command reports, summed over points or blocks."""
    if (out / "sweep_el_summary.json").exists():
        cfg = _read_json(out / "sweep_el_summary.json")["config"]
        duration = cfg["sweep.symbols_per_point"] / cfg["source.symbol_rate"]
        return sum(round(float(r["rawkey_mc"]) * duration)
                   for r in _read_csv(out / "sweep_el.csv"))
    for name in ("stability", "coexist"):
        if (out / f"{name}_summary.json").exists():
            cfg = _read_json(out / f"{name}_summary.json")["config"]
            duration = cfg["session.symbols_per_block"] / cfg["source.symbol_rate"]
            return sum(round(float(r["raw_key_rate"]) * duration)
                       for r in _read_csv(out / f"{name}_blocks.csv"))
    return 0

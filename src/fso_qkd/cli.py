"""Command-line front end: sweeps, stability runs, co-existence, planning.

Subcommands emit machine-readable CSV/JSON only (plotting is left to
external tools). Outputs are byte-identical for identical config + seed:
no timestamps, sorted JSON keys and repr-formatted floats. The Monte Carlo
runs come from ``protocol``, which owns each run's seeds, the saturated-block
rule and the worker count; this module adds the closed-form model, formats
the rows and writes the files. Every CSV row carries the resolved-config
hash for audit.

Only the commands that run the Monte Carlo import it (``protocol`` and
``linkmodel``, and through them ``polarization``, ``seeding`` and numpy),
before any worker forks. Config resolution, its exit-2 refusals and
``plan-spectrum`` load none of it, numpy included: the spectrum integral is
pure Python. This module imports no numpy either: its means sum in numpy's
pairwise order (``spectrum.pairwise_sum``) and its z-scores use ``math.sqrt``,
so every summary holds the bits ``np.mean`` and ``np.sqrt`` gave.

Exit codes: 0 success, 2 validation error, 3 runtime error.

This module sets up the process's native runtime; forked workers inherit it.
numpy's OpenBLAS starts one spinning thread per core when numpy loads, and
nothing here calls BLAS on more than a 4x3 matrix, so the process that forks
the workers runs one thread unless the user exports ``OPENBLAS_NUM_THREADS``. The
Monte Carlo commands keep the heap across blocks (``_keep_heap``) before they
run one, so the config path loads no ``ctypes``. Neither changes a value.

``run`` is the process entry point (``python -m fso_qkd.cli`` and the
``fso-qkd`` script). Once ``main`` returns and stdout and stderr are flushed,
it leaves by ``os._exit``, skipping the interpreter's teardown: a full cyclic
collection and the clearing of every module, about 6 ms after importing the
CLI and 10-11 ms once numpy's random module is loaded. ``atexit`` callbacks and
finalizers do not run; the package registers none, and every output file is
closed and every worker reaped before ``main`` returns. An exception out of
``main`` (argparse's exit included) or a failed flush exits as usual.
``main`` itself returns its code, for callers in the same process.
"""
from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads

import argparse
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

from .calibration import ANCHOR_QBER_THRESHOLD
from .coexistence import link_margin, ook_ber
from .errors import ValidationError
from .scenario import (ScenarioConfig, check_path, from_spectrum, load_config_file,
                       resolve_config)
from . import spectrum as spectrum_mod

if TYPE_CHECKING:
    from .linkparams import RatePrediction
    from .protocol import BlockStats

# glibc's mallopt parameters (malloc.h)
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


def _keep_heap() -> None:
    """Keep freed arrays in this process's heap for the next block.

    By default glibc maps each large array on its own and hands it back to
    the OS when it is freed, so every block faults its arrays in again. Here
    arrays up to 1e8 bytes come from the heap, and the heap is trimmed only
    above 2e8 free bytes. The trim threshold is set only once the mmap one
    is, because on its own it turns off glibc's dynamic mmap threshold and
    costs more than the default. A no-op where ``mallopt`` is missing.
    """
    import ctypes  # here, so a command that runs no block does not load it

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library handle, or no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(M_MMAP_THRESHOLD, 100_000_000) == 1:
        mallopt(M_TRIM_THRESHOLD, 200_000_000)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _agreement_z(model: RatePrediction, point: BlockStats) -> tuple[float, float]:
    """(z_qber, z_rawkey) of the MC against the model for one sweep point. Where
    a sigma is 0, a point the model admits reads 0 and any other the largest float."""
    kept_expected = model.sifted_key_rate * point.block_duration
    z_raw = ((point.kept_bits - kept_expected) / math.sqrt(kept_expected) if kept_expected > 0
             else sys.float_info.max if point.kept_bits else 0.0)
    if point.kept_bits > 0:
        sigma = math.sqrt(model.qber * (1.0 - model.qber) / point.kept_bits)
        z_q = ((point.qber - model.qber) / sigma if sigma > 0
               else sys.float_info.max if point.mismatches else 0.0)
    else:
        z_q = 0.0
    return float(z_q), float(z_raw)


def threshold_crossing(el_values, qber_values, threshold: float = ANCHOR_QBER_THRESHOLD):
    """Linearly interpolated excess loss where the model QBER crosses threshold."""
    for (e0, q0), (e1, q1) in zip(zip(el_values, qber_values),
                                  list(zip(el_values, qber_values))[1:]):
        if q0 < threshold <= q1:
            return e0 + (threshold - q0) * (e1 - e0) / (q1 - q0)
    return None


def cmd_sweep_el(config: ScenarioConfig, out_dir: Path, workers: int | None = None) -> dict:
    """Model + Monte Carlo QKD performance over the excess-loss sweep."""
    if not config.sweep_el_db:
        raise ValidationError("sweep.el_db: sweep list must be non-empty")
    from .linkmodel import expected_rates
    from .protocol import run_sweep, secure_fraction

    _keep_heap()
    chash = config.config_hash
    rows, zs = [], []
    for el, pt in zip(config.sweep_el_db, run_sweep(config, workers)):
        model = expected_rates(config.source, config.channel.with_excess_loss(el),
                               config.detector, config.background, config.intrinsic_error)
        qber_mc = pt.qber if pt.kept_bits else float("nan")
        rows.append([el, model.qber, qber_mc, model.sifted_key_rate, pt.raw_key_rate,
                     secure_fraction(model.qber), chash])
        zs.append(_agreement_z(model, pt))
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "sweep_el.csv"
    _write_csv(csv_path,
               ["el_db", "qber_model", "qber_mc", "rawkey_model", "rawkey_mc",
                "secure_fraction", "config_hash"], rows)

    crossing = threshold_crossing([r[0] for r in rows], [r[1] for r in rows])
    summary = {
        "command": "sweep-el",
        "config": config.resolved,
        "config_hash": chash,
        "channel_stable": config.channel.alignment_stable,
        "qber_threshold": ANCHOR_QBER_THRESHOLD,
        "threshold_crossing_el_db": crossing,
        "operating_point": {
            "el_db": rows[0][0],
            "qber_model": rows[0][1],
            "rawkey_model": rows[0][3],
        },
        "agreement": {
            "max_abs_z_qber": max(abs(z[0]) for z in zs),
            "max_abs_z_rawkey": max(abs(z[1]) for z in zs),
            "within_3_sigma": all(abs(z[0]) <= 3 and abs(z[1]) <= 3 for z in zs),
        },
        "artifacts": {"csv": csv_path.name},
    }
    _write_json(out_dir / "sweep_el_summary.json", summary)
    return summary


def _run_session(config: ScenarioConfig, out_dir: Path,
                 command: str) -> tuple[list[BlockStats], dict]:
    """Run the session, write ``<command>_blocks.csv`` (with a ``kappa`` column
    for coexist only) and return the block stats with the summary fields both
    session commands share."""
    from .protocol import run_session

    _keep_heap()
    stats = run_session(config)
    chash = config.config_hash
    kappa = command == "coexist"
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{command}_blocks.csv"
    _write_csv(csv_path,
               ["block_start"] + ["kappa"] * kappa
               + ["qber", "raw_key_rate", "gated_clicks", "flag", "config_hash"],
               [[s.block_start] + [s.kappa] * kappa
                + [s.qber, s.raw_key_rate, s.gated_clicks, s.flag, chash] for s in stats])
    return stats, {"command": command, "config": config.resolved, "config_hash": chash,
                   "artifacts": {"csv": csv_path.name}}


def _mean(values: list[float]) -> float | None:
    """numpy's mean (its pairwise sum over the count), None for no values."""
    return float(spectrum_mod.pairwise_sum(values) / len(values)) if values else None


def cmd_stability(config: ScenarioConfig, out_dir: Path) -> dict:
    """Block-wise session with polarization drift enabled."""
    if config.blocks < 1:
        raise ValidationError("session.blocks: must be >= 1 for stability runs")
    stats, summary = _run_session(config, out_dir, "stability")
    qbers = [s.qber for s in stats if s.flag == "ok"]
    rates = [s.raw_key_rate for s in stats if s.flag == "ok"]
    summary.update({
        "blocks": len(stats),
        "qber_mean": _mean(qbers),
        "qber_max": max(qbers) if qbers else None,
        "rawkey_mean": _mean(rates),
        "all_blocks_below_threshold": bool(qbers) and max(qbers) < ANCHOR_QBER_THRESHOLD,
    })
    _write_json(out_dir / "stability_summary.json", summary)
    return summary


def cmd_coexist(config: ScenarioConfig, out_dir: Path) -> dict:
    """Alternating-kappa session plus classical BER and power margin."""
    if not config.classical.enabled:  # resolved again, so the hashed map says what runs
        config = resolve_config({**config.resolved, "classical.enabled": True})
    if config.blocks < 2:
        raise ValidationError("session.blocks: need >= 2 blocks to compare kappa on/off")
    loss = config.classical_total_loss_db  # refused here, before any block, if not finite
    stats, summary = _run_session(config, out_dir, "coexist")
    on = [s.qber for s in stats if s.kappa and s.flag == "ok"]
    off = [s.qber for s in stats if not s.kappa and s.flag == "ok"]
    received_dbm = config.classical.launch_power_dbm - loss
    summary.update({
        "qber_mean_kappa_on": _mean(on),
        "qber_mean_kappa_off": _mean(off),
        "qber_penalty": _mean(on) - _mean(off) if on and off else None,
        "classical": {
            "total_loss_db": loss,
            "received_power_dbm": received_dbm,
            "ber": ook_ber(received_dbm, config.classical),
            "margin_db": link_margin(config.classical, loss),
        },
    })
    _write_json(out_dir / "coexist_summary.json", summary)
    return summary


def cmd_plan_spectrum(spectrum_path: str | None, config: ScenarioConfig,
                      out_dir: Path) -> dict:
    """Rank the CWDM channels by in-band background for the config's spectrum.
    A ``spectrum_path`` sets ``background.spectrum_path``: the config is resolved
    again with it, its solar rate derived anew, so the hash says what ranks."""
    if spectrum_path is not None:
        flat = {k: v for k, v in config.resolved.items() if k != "background.solar_rate"}
        config = resolve_config({**flat, "background.spectrum_path": spectrum_path})
    path = config.resolved["background.spectrum_path"]
    # resolution integrated one channel; a table may miss another's passband
    report = from_spectrum(path, lambda table: spectrum_mod.ranking_report(
        table, config.detector))
    summary = {
        "command": "plan-spectrum",
        "config_hash": config.config_hash,
        "spectrum": "packaged-default" if path is None else path,
        "dark_rate_cts_s": config.detector.dark_rate,
        "ranking": report,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "channel_ranking.json", summary)
    return summary


def _parse_set(pairs: list[str]) -> dict:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValidationError(f"--set expects KEY=VALUE, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            overrides[key] = json.loads(raw)
        # not JSON (a bare string), an int of over 4300 digits, or nested past
        # the recursion limit
        except (ValueError, RecursionError):
            overrides[key] = raw
    return overrides


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fso-qkd",
        description="Daylight free-space BB84 link simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("sweep-el", "QBER/raw-key vs excess loss, model and Monte Carlo"),
        ("stability", "block-wise session with polarization drift"),
        ("coexist", "alternating classical-channel activation"),
        ("plan-spectrum", "rank CWDM channels by in-band solar background"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat JSON config file")
        p.add_argument("--seed", type=int, help="override rng_seed")
        p.add_argument("--out", help="output directory (default: config output_path)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (JSON-parsed value)")
        if name == "sweep-el":
            p.add_argument("--workers", type=int,
                           help="worker processes over sweep points (default: one per "
                                "usable core for a large sweep, else 1)")
        if name == "plan-spectrum":
            p.add_argument("--spectrum", help="spectrum CSV; sets background.spectrum_path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for flag, path in (("--config", args.config), ("--out", args.out)):
            check_path(flag, path)
        overrides = {}
        if args.config:
            overrides.update(load_config_file(args.config))
        overrides.update(_parse_set(args.set))
        if args.seed is not None:
            overrides["rng_seed"] = args.seed
        config = resolve_config(overrides)
        out_dir = Path(args.out) if args.out else Path(config.output_path)

        if args.command == "sweep-el":
            if args.workers is not None and args.workers < 1:
                raise ValidationError("--workers must be >= 1")
            summary = cmd_sweep_el(config, out_dir, workers=args.workers)
        elif args.command == "stability":
            summary = cmd_stability(config, out_dir)
        elif args.command == "coexist":
            summary = cmd_coexist(config, out_dir)
        else:
            summary = cmd_plan_spectrum(args.spectrum, config, out_dir)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3

    for name in summary.get("artifacts", {}).values():
        print(out_dir / name)
    print(out_dir / f"{args.command.replace('-', '_')}_summary.json"
          if args.command != "plan-spectrum" else out_dir / "channel_ranking.json")
    return 0


def run() -> NoReturn:
    """Run ``main`` as the whole process: flush, then exit without teardown."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # a closed pipe or stream: report it as before
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()

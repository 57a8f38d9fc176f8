"""Golden CLI outputs: every file of four small runs, pinned by sha256.

The CLI promises byte-identical outputs for an identical config and seed.
These hashes hold that promise across changes to the Monte Carlo hot path:
a change that moves one draw, one survivor or one last-ulp float shows up
here. A change that moves outputs on purpose re-pins the hashes and says
why in CHANGES.md.

The runs are small (about a second each) but reach every stage: a
Monte Carlo sweep, an OM4 session with polarization drift and dead time at
load*tau ~ 3, an alternating co-existence session, and the spectral plan.
Three more pin the edge branches: a sweep whose last point keeps no bits
(its ``qber_mc`` is ``nan``), a co-existence session whose kappa-on blocks
saturate and are flagged by ``run_block`` without being simulated, and a
session with no drift, no dead time, no background and a partial signal
gate, which the general Monte Carlo path runs with zero angles, every event
surviving and an empty background stream.
The drift rotation uses numpy's float64 sin/cos, so a platform whose
vectorized kernels round differently will need its own pins.
"""
import hashlib

import pytest

from fso_qkd.cli import main

GOLDEN = {
    "sweep-el": (
        ["sweep-el", "--seed", "7", "--set", "sweep.symbols_per_point=500000000"],
        {
            "sweep_el.csv":
                "362b5fc7f65a789c5b0ee6075ef21b4be48be05ae8841df9b18c32a7b443de85",
            "sweep_el_summary.json":
                "eb1da36cbaf7c949829c12d702faeaf7e4945e853219507f5b6a1947fe88d8f3",
        },
    ),
    "sweep-el-no-bits": (
        ["sweep-el", "--seed", "7", "--set", "sweep.el_db=[0.0, 5.0, 30.0]",
         "--set", "sweep.symbols_per_point=2000000"],
        {
            "sweep_el.csv":
                "174057ccf0f9023c6bc071468d096c67ca92737d06a4ea5b251d24e13e0c3f0c",
            "sweep_el_summary.json":
                "262f7de75e20a7c1b1bb814a06fbbb2f692be34da753f558cd90b2fe4a4f572d",
        },
    ),
    "stability-om4": (
        ["stability", "--seed", "101", "--set", "channel.fiber_kind=OM4",
         "--set", "session.symbols_per_block=200000000"],
        {
            "stability_blocks.csv":
                "e70c6fd8fde539c0eeaf1f198bad53de97ed9798424b6a9ab1bff2fe967253c9",
            "stability_summary.json":
                "c95732fd68d7cbab192bcb1d9d6bfa7b3fd2a02dc4c598e5ca969c36306840dc",
        },
    ),
    "coexist": (
        ["coexist", "--seed", "7", "--set", "session.symbols_per_block=1000000000"],
        {
            "coexist_blocks.csv":
                "3e9c2c128260454f384beac524b61c65261f59d8fc1bef826484472329d2eb72",
            "coexist_summary.json":
                "8a5f78d0272be83b1d7b2eb8c48ec1382778a8d2898df5dd300b87307c4f0918",
        },
    ),
    "coexist-saturated": (
        ["coexist", "--seed", "7", "--set", "classical.launch_power_dbm=40",
         "--set", "session.blocks=4", "--set", "session.symbols_per_block=100000000"],
        {
            "coexist_blocks.csv":
                "e6162d0fba0ce658345c0784a1056e7a2d52b5fe6c8212c87fe1a5fa9d1fecbd",
            "coexist_summary.json":
                "91d69eec575f8e1cb3cdc77aca8f69b8d2747bcfe370b465ee6321e6b16011e8",
        },
    ),
    "stability-no-drift-dead-time-background": (
        ["stability", "--seed", "7", "--set", "channel.drift_rate=0",
         "--set", "detector.dead_time=0", "--set", "detector.signal_gate_acceptance=0.7",
         "--set", "background.mode=explicit", "--set", "detector.dark_rate=0",
         "--set", "session.blocks=2", "--set", "session.symbols_per_block=100000000"],
        {
            "stability_blocks.csv":
                "003fe33a04fff94e62631173241615fb4942ffb08c5fd5bae39c84a7325df7ec",
            "stability_summary.json":
                "bbc77409735c962b9e9c67026333b53ae348fb07111ad3198b294c86de5f7f2c",
        },
    ),
    "plan-spectrum": (
        ["plan-spectrum", "--seed", "7"],
        {
            "channel_ranking.json":
                "0b2c89745529dbb6e8a6852debccba59dad48dfcc896ba925375fc643232d97f",
        },
    ),
}


@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_outputs_match_golden_hashes(run, tmp_path):
    argv, expected = GOLDEN[run]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert written == expected


def test_sweep_point_without_kept_bits_reports_nan(tmp_path):
    """The 30-dB point of the pinned no-bits sweep keeps no bits, so its
    Monte Carlo QBER is undefined and written as ``nan``."""
    argv, _ = GOLDEN["sweep-el-no-bits"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    last = (tmp_path / "sweep_el.csv").read_text().splitlines()[-1].split(",")
    assert last[0] == "30.0" and last[2] == "nan" and last[4] == "0.0"


def test_saturated_kappa_on_blocks_are_flagged(tmp_path):
    argv, _ = GOLDEN["coexist-saturated"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "coexist_blocks.csv").read_text().splitlines()[1:]
    assert [row.split(",")[5] for row in rows] == ["ok", "saturated"] * 2

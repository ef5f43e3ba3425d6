"""Pinned digests of runs in which UAVs die.

The golden seeds in ``test_golden.py`` run on the default 1000 J budget, in
which no UAV dies. These scenarios drain batteries: ``drain`` kills all 40
UAVs in mid-run; in ``zero`` a UAV's sign charge drains it to exactly 0 J,
so its next charge fails; in ``zero2`` the transmit charge does, and the
upload is dropped for want of a link. All five output files are pinned.
"""

import hashlib

import pytest

from uavchain import cli, engine
from uavchain.config import ScenarioConfig, apply_override

FILES = ("transactions.csv", "rounds.csv", "trust.csv", "summary.json",
         "ledger.json")

SCENARIOS = {
    "drain": {"sim.duration_s": 300.0, "network.uav_count": 40,
              "energy.uav_budget_j": 2.0, "workload.arrival_rate_tps": 20.0},
    "zero": {"sim.duration_s": 30.0, "network.uav_count": 10,
             "energy.uav_budget_j": 0.02, "workload.compromised_fraction": 0.0},
    "zero2": {"sim.duration_s": 30.0, "network.uav_count": 10,
              "energy.uav_budget_j": 1.0, "crypto.sign_j": 0.5,
              "crypto.encaps_j": 0.25, "energy.eps0_j": 0.25,
              "energy.eps1_j_per_m2": 0.0, "workload.compromised_fraction": 0.0},
}

# Recorded from the code before the link rule was applied once per message
# and before a death became one graph call; outputs must not have moved.
GOLDEN = {
    "drain": {
        "transactions.csv": "08511a0082ba341ae99000583fc61bbc96a44a0872323320a12f98c62fcd4465",
        "rounds.csv": "f9c9c158d4db572b6f2a2869ca763e204b062d790df306cd023a71373a2af113",
        "trust.csv": "52ba85256b1dcdff3c902d9eaee72a683c6c1b916d5b7b747636fae7ba64c3af",
        "summary.json": "ed83402b533e8500523dced345b1755104a3d5a545abfcd717634487244d57fc",
        "ledger.json": "b6c5e61a66a319c6b876ec428851ede5fd51877ed4ef34dc30153046e2630638",
    },
    "zero": {
        "transactions.csv": "02896172c33d356a334c4c938a4309f0486d91d5fb46e259171d907f4d822fa5",
        "rounds.csv": "7eee8bee6a4d945212154da09bfbb619fd028b543eb39a086d9811c0b7eaea74",
        "trust.csv": "680900742255fe7f82f814e057f40305682f0ba3c366a0150f0cf97b5cfcb32a",
        "summary.json": "e1d88db41a251e2639abc3cb200b61f4e55153f520b9437ac4751ed1c1d4203d",
        "ledger.json": "cbc68fa243de3697891a7f71ff5f42fe2cf92b99e9c483ed91f8844fe78e16f8",
    },
    "zero2": {
        "transactions.csv": "70cc11f36c6cdff708766f69bf4ebe46fbc481496f35aac195298a2d74b43110",
        "rounds.csv": "7eee8bee6a4d945212154da09bfbb619fd028b543eb39a086d9811c0b7eaea74",
        "trust.csv": "576ca947c467b7e824663728c3f3622480047f8cb535b8a257cc5bf754ad5ec6",
        "summary.json": "0de2b3e7b3dfff5f9199d947b74ef0639dc3a7236f862cb223ca01de3a0788a2",
        "ledger.json": "cbc68fa243de3697891a7f71ff5f42fe2cf92b99e9c483ed91f8844fe78e16f8",
    },
}


def run_digests(outdir, name: str) -> dict[str, str]:
    cfg = ScenarioConfig()
    for key, value in SCENARIOS[name].items():
        apply_override(cfg, key, value)
    cfg.validate()
    cli.write_run_outputs(engine.run(cfg), outdir, dump_ledger=True)
    return {file: hashlib.sha256((outdir / file).read_bytes()).hexdigest()
            for file in FILES}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_death_runs_match_golden_digests(tmp_path, name):
    assert run_digests(tmp_path, name) == GOLDEN[name]

"""Cross-version determinism guard: pinned digests of the run outputs.

Criterion 11 compares two runs of the same build; this test compares a run
against digests recorded from an earlier version, so a reordered RNG draw or
any other silent output change fails here. An intentional output change must
update these digests in the same change and say why.
"""

import builtins
import hashlib

import pytest

from uavchain import engine
from uavchain.config import ScenarioConfig
from uavchain.metrics import write_summary

DIGESTED = ("transactions.csv", "rounds.csv", "trust.csv", "summary.json")

# Default scenario at sim.duration_s = 120.
GOLDEN = {
    1: {
        "transactions.csv": "bea2059f09a55ee80f7307c19e2c86703c1c2c6d8c010b72765b616fed55005f",
        "rounds.csv": "8ed8a48ba9d94ab0faa90a061a7269099e2dddbb57d35a38295336741a3c0d51",
        "trust.csv": "eb5c6db31ed0c34ae39075b25370ea29fee795cb8aa0dae7c6343175db9f8a7c",
        "summary.json": "8cedc4d330c7a79f70f9a29984922044bd48f3787eef221cb8dec71f12737bf8",
    },
    2: {
        "transactions.csv": "e7ce7eb5aed4840aae8b9f74bcc39ffe29a03a4adb6785c1a8bc8d0dc9a876a2",
        "rounds.csv": "d476e060d9eddcaf07af2cd393f1c738514a1e7f3694e6e8802056b426f0b067",
        "trust.csv": "567f6caeb7f9c088f394d1d4b048e826e78a0828f5247d06d8c9aeaeaa66a02e",
        "summary.json": "a7a5000349b143155371414cc89e7272ddb30426052f4956d3f2c9bdf7283c50",
    },
    3: {
        "transactions.csv": "1d7d391cb3b2155cb7ada4914bdcfce10cc45dc6441a4248ddf25a2a795dc3d6",
        "rounds.csv": "ea6adf163f34a5f93717322f5671998e01bec477723bd5d3582ca2a770b0bf4f",
        "trust.csv": "64a50d51501399805d212d79321c0c42d01f408cb69b0c227457782b9e423267",
        "summary.json": "a9317fa02450664149a727f2ce0b3e61fca43e5c14034adf918ae235125fbb17",
    },
}


def run_digests(outdir, seed: int) -> dict[str, str]:
    cfg = ScenarioConfig()
    cfg.sim.duration_s = 120.0
    result = engine.run(cfg, seed=seed)
    result.metrics.write_csvs(outdir)
    write_summary(outdir, result.summary)
    return {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            for name in DIGESTED}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_outputs_match_golden_digests(tmp_path, seed):
    assert run_digests(tmp_path, seed) == GOLDEN[seed]


def neumaier_sum(values, start=0):
    """``sum()`` as CPython 3.12 and later compute it: compensated over
    floats, exact over everything else."""
    total, compensation, floats = start, 0.0, False
    for value in values:
        if not isinstance(value, float):
            total += value
            continue
        floats = True
        partial = total + value
        if abs(total) >= abs(value):
            compensation += (total - partial) + value
        else:
            compensation += (value - partial) + total
        total = partial
    return total + compensation if floats else total


def test_outputs_do_not_depend_on_how_builtin_sum_adds_floats(tmp_path,
                                                              monkeypatch):
    # Outputs must match on every supported CPython: a float sum taken with
    # the builtin sum() would follow 3.12's compensated summation there.
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    assert run_digests(tmp_path, 1) == GOLDEN[1]

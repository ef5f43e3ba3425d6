"""Whole runs against the plain twins of `reference.py`: a drawn scenario
run with the real modules and run again with the twins patched into the
engine must write the same bytes."""

import json

import pytest

from uavchain import cli, engine
from uavchain.config import ScenarioConfig, apply_override

from reference import ScanningGraph


def run_outputs(overrides: dict, seed: int, outdir) -> tuple[dict, dict, int]:
    """Every file a run with its ledger dump writes, by name, with the
    manifest parsed and its `created_at` left out; and the deaths."""
    config = ScenarioConfig()
    for key, value in overrides.items():
        apply_override(config, key, value)
    config.validate()
    sim = engine.run(config, seed=seed)
    cli.write_run_outputs(sim, outdir, dump_ledger=True)
    files = {path.name: path.read_bytes() for path in outdir.iterdir()}
    manifest = json.loads(files.pop("manifest.json"))
    del manifest["created_at"]
    return files, manifest, len(sim.death_times)


def test_whole_runs_match_with_the_scanning_graph(tmp_path):
    # Many UAVs per edge, short ranges (so that contention bands are rebuilt
    # and dropped), fast UAVs, deaths from small batteries, several trust
    # windows and adversaries: the skin caches must never change a byte.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    scenarios = st.fixed_dictionaries({
        "sim.duration_s": st.sampled_from([20.0, 30.0]),
        "network.uav_count": st.integers(20, 80),
        "network.edge_count": st.integers(5, 7),
        "network.area_km2": st.sampled_from([0.5, 1.0, 2.0]),
        "network.range_m": st.sampled_from([60.0, 200.0, 400.0, 800.0]),
        "mobility.mean_speed_mps": st.sampled_from([8.0, 30.0, 60.0]),
        "energy.uav_budget_j": st.sampled_from([0.4, 1.0, 1000.0]),
        "consensus.window_s": st.sampled_from([3.0, 5.0]),
        "consensus.block_interval_s": st.sampled_from([5.0, 10.0]),
        "workload.arrival_rate_tps": st.sampled_from([10.0, 30.0]),
        "workload.compromised_fraction": st.sampled_from([0.0, 0.15, 0.3]),
        "workload.malicious_edge_fraction": st.sampled_from([0.0, 0.4]),
    })
    deaths = []

    @hypothesis.settings(derandomize=True, max_examples=40, database=None,
                         deadline=None)
    @hypothesis.given(overrides=scenarios, seed=st.integers(1, 2**31))
    def check(overrides, seed):
        real = run_outputs(overrides, seed, tmp_path / "real")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "CommGraph", ScanningGraph)
            twin = run_outputs(overrides, seed, tmp_path / "twin")
        assert real == twin
        assert sorted(real[0]) == ["ledger.json", "rounds.csv", "summary.json",
                                   "transactions.csv", "trust.csv"]
        deaths.append(real[2])

    check()
    # Some drawn runs lose UAVs, so caches are dropped mid-run.
    assert any(deaths) and not all(deaths)

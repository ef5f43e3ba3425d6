"""Tests of the benchmark itself: span arithmetic, wrapping, digests, failures.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, read_spans  # noqa: E402
from uavchain import engine  # noqa: E402

TINY = {"sim.duration_s": 40.0, "network.uav_count": 12,
        "workload.arrival_rate_tps": 20.0, "workload.compromised_fraction": 0.25,
        "workload.malicious_edge_fraction": 0.2}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", TINY)
    return "tiny"


def test_self_time_of_nested_spans():
    tracer = Tracer()
    root = tracer.open("run", at=0.0)
    a = tracer.open("a", at=1.0)
    a1 = tracer.open("b", at=2.0)
    tracer.close(a1, at=3.0)
    tracer.close(a, at=4.0)
    b = tracer.open("b", at=5.0)
    tracer.close(b, at=9.0)
    tracer.close(root, at=10.0)
    stats = tracer.aggregate()
    assert stats["run"]["self_s"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert stats["a"]["self_s"] == pytest.approx(3.0 - 1.0)
    assert stats["b"]["self_s"] == pytest.approx(1.0 + 4.0)
    assert stats["b"]["calls"] == 2
    assert stats["b"]["phase_calls"] == {"run": 2}
    assert tracer.count_children("b", "a") == 1
    assert tracer.count_children("b", "run") == 1


def test_spans_round_trip_through_file(tmp_path):
    tracer = Tracer()
    outer = tracer.open("x", at=0.5)
    inner = tracer.open("y", at=0.75)
    tracer.close(inner, at=1.0)
    tracer.close(outer, at=2.0)
    tracer.write(tmp_path / "spans.bin")
    names, spans = read_spans(tmp_path / "spans.bin")
    assert names == ["x", "y"]
    assert spans == [("x", -1, 0.5, 2.0), ("y", 0, 0.75, 1.0)]


def test_wrappers_are_removed_after_traced_run(tiny, tmp_path):
    probe = Tracer()
    layers.install(probe, "mock-sig")
    patched = [(owner, attr, original) for owner, attr, original in probe._patches]
    probe.uninstall()
    assert patched and not probe.missing

    worker.run_repetition(tiny, 3, tmp_path, trace=True)
    for owner, attr, original in patched:
        current = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, f"{owner}.{attr} still wrapped"


def test_untraced_run_is_scaled_to_the_reference_speed(tiny, tmp_path,
                                                       monkeypatch):
    owner, attr = worker.MARK
    original = vars(owner)[attr]
    calls = []

    def half_speed():
        calls.append(1)
        return 2 * worker.REFERENCE_CAL_S

    monkeypatch.setattr(worker, "calibrate", half_speed)
    rep = worker.run_repetition(tiny, 3, tmp_path, trace=False)
    assert vars(owner)[attr] is original
    # One calibration per mobility step, besides those around the phases.
    assert len(calls) > TINY["sim.duration_s"]
    assert rep["run_ref_s"] == pytest.approx(rep["run_s"] / 2)
    assert rep["setup_ref_s"] == pytest.approx([t / 2 for t in rep["setup_s"]])
    assert rep["audit_ref_s"] == pytest.approx([t / 2 for t in rep["audit_s"]])


def test_traced_run_matches_untraced_and_every_metric_is_produced(tiny, tmp_path):
    plain = worker.run_repetition(tiny, 3, tmp_path / "plain", trace=False)
    traced = worker.run_repetition(tiny, 3, tmp_path / "traced", trace=True)
    assert traced["digests"] == plain["digests"]
    assert plain["audit_rc"] == traced["audit_rc"] == 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    plain.update(ok=True, traced=False, seed=3)
    assert set(run.end_to_end([plain])) == {m["name"] for m in spec["end_to_end"]}
    wanted = {m["name"] for m in spec["per_layer"]} - set(run.OVERHEAD)
    assert wanted <= set(traced["layers"])
    for layer in ("crypto", "ledger", "consensus", "netsim", "trust",
                  "workload", "engine", "metrics"):
        assert any(traced["layers"][name] > 0 for name in wanted
                   if name.startswith(layer + ".")), layer
    assert (tmp_path / "traced" / "spans.bin").is_file()


def test_flipped_byte_fails_the_digest_check(tiny, tmp_path):
    rep = worker.run_repetition(tiny, 5, tmp_path / "a", trace=False)
    rep.update(ok=True, traced=False, seed=5)
    copy = tmp_path / "copy"
    shutil.copytree(tmp_path / "a", copy)
    data = bytearray((copy / "rounds.csv").read_bytes())
    data[len(data) // 2] ^= 0x01
    (copy / "rounds.csv").write_bytes(bytes(data))

    flipped = dict(rep, digests=worker.digests(copy))
    assert flipped["digests"]["rounds.csv"] != rep["digests"]["rounds.csv"]
    golden = {"5": rep["digests"]}
    assert run.check([dict(rep)], golden) == 0
    assert run.check([flipped], golden) == 1
    # Without golden digests, repetitions must agree with the first one of
    # the same scenario seed, and only with that one.
    assert run.check([dict(rep), flipped], {}) == 1
    assert run.check([dict(rep), dict(flipped, seed=1005)], {}) == 0


def test_repetition_that_raises_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    calls = []

    def launch(workload, seed, outdir, traced, timeout):
        calls.append(traced)
        if len(calls) == 2:
            raise RuntimeError("worker crashed")
        return {"ok": True, "digests": {"a": "1"}, "audit_rc": 0}

    reps = run.measure("saturated", 1, 0.0, trace=False, launch=launch)
    assert len(reps) == len(calls) == run.MIN_REPS[False]
    assert [r["seed"] for r in reps[:run.SCENARIOS]] == run.scenario_seeds(1, False)
    assert run.check(reps, {}) == 1
    assert "worker crashed" in reps[1]["problems"][0]


def test_worker_reports_invariant_error_as_failed_run(tiny, tmp_path,
                                                      monkeypatch, capsys):
    def broken(self):
        raise engine.SimulationInvariantError("clock went backwards")

    monkeypatch.setattr(engine.Simulation, "run", broken)
    assert worker.main(["--workload", tiny, "--seed", "1",
                        "--out", str(tmp_path)]) == 0
    rep = json.loads(capsys.readouterr().out.splitlines()[-1])
    rep["traced"] = False
    assert rep["ok"] is False and "SimulationInvariantError" in rep["error"]
    assert run.check([rep], {}) == 1


def test_environment_record():
    env = run.environment()
    assert set(env) == {"python", "nproc", "git_sha", "src_lines"}
    assert env["nproc"] >= 1 and env["src_lines"] > 0

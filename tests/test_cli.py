"""CLI surface: run/sweep/figures/audit subcommands and their artifacts."""

import csv
import dataclasses
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

import golden
from uavchain import cli, config, crypto, engine, metrics, workload
from uavchain.config import Interval, ScenarioConfig


def write_small_scenario(tmp_path, **extra) -> str:
    values = {"sim.duration_s": 90, "network.uav_count": 30, **extra}
    lines = [f"{k} = {v}" for k, v in values.items()]
    path = tmp_path / "small.scenario"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_run_writes_all_artifacts(tmp_path, capsys):
    scenario = write_small_scenario(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["run", "--config", scenario, "--out", str(out),
                     "--dump-ledger"])
    assert code == 0
    for name in ("transactions.csv", "rounds.csv", "trust.csv",
                 "summary.json", "manifest.json", "ledger.json"):
        assert (out / name).is_file()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["submitted"] > 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["network.uav_count"] == 30
    assert "ledger.json" in manifest["outputs"]
    assert manifest["python"] == platform.python_version()
    assert manifest["zlib"] == zlib.ZLIB_RUNTIME_VERSION
    assert "committed TPS" in capsys.readouterr().out


def test_run_seed_flag_overrides_config(tmp_path):
    scenario = write_small_scenario(tmp_path)
    out = tmp_path / "out"
    cli.main(["run", "--config", scenario, "--out", str(out), "--seed", "77"])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["master_seed"] == 77


def test_run_rejects_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.scenario"
    path.write_text("network.uav_cout = 10\n")
    code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("key", [
    "energy.tx_energy", "sim.__class__", "workload.__doc__",
    "trust.smoothing", "nodot"])
def test_run_rejects_a_name_that_is_not_a_scenario_key(tmp_path, capsys, key):
    scenario = write_small_scenario(tmp_path, **{key: 5})
    code = cli.main(["run", "--config", scenario, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown configuration key") and key in err
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--seed", str(2**63)],
    ["run", "--seed", str(-2**63 - 1)],
    ["sweep", "--seed", str(2**63 - 1), "--replications", "2",
     "--axis", "network.uav_count", "--values", "10"],
], ids=["run-above", "run-below", "sweep-second-replication"])
def test_seed_outside_i64_is_rejected(tmp_path, capsys, argv):
    code = cli.main(argv + ["--config", write_small_scenario(tmp_path),
                            "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sim.master_seed") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key,value", [
    ("sim.mobility_step_s", 1e-17),  # now + step == now from t = 0.125 s on
    ("workload.arrival_rate_tps", 1e300),  # arrivals never leave t = 0
    ("network.vote_size_bytes", 10**400),  # no float can hold it
], ids=["mobility_step_1e-17", "arrival_rate_1e300", "vote_size_10e400"])
def test_run_rejects_a_scenario_that_could_not_finish(tmp_path, capsys, key,
                                                      value):
    scenario = write_small_scenario(tmp_path, **{
        "sim.duration_s": 2, "network.uav_count": 5, key: value})
    code = cli.main(["run", "--config", scenario, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("extra,key", [
    ({"sim.duration_s": 0, "sim.mobility_step_s": 1e-300},
     "sim.mobility_step_s"),
    ({"sim.duration_s": 5e-324, "workload.arrival_rate_tps": 1e300},
     "workload.arrival_rate_tps"),
], ids=["duration_0_step_1e-300", "duration_5e-324_rate_1e300"])
def test_run_counts_the_events_of_the_nanosecond_past_the_duration(
        tmp_path, capsys, extra, key):
    # The loop runs every event up to 1 ns past sim.duration_s: 1e291 here.
    scenario = write_small_scenario(tmp_path, **{"network.uav_count": 5,
                                                 **extra})
    code = cli.main(["run", "--config", scenario, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: 1e+291 events") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


class _Reached(Exception):
    """Raised by a stand-in for `engine.run`: the scenario passed load."""


@pytest.mark.parametrize("duration,refused", [(99_999, False), (100_000, True)],
                         ids=["at_the_budget", "one_step_over"])
def test_run_caps_uav_steps_across_keys(tmp_path, capsys, monkeypatch,
                                        duration, refused):
    # 10,000 UAVs x ceil((duration + 1 ns) / 1 s) steps against 1e9.
    def reached(config):
        raise _Reached

    monkeypatch.setattr(engine, "run", reached)
    scenario = write_small_scenario(tmp_path, **{
        "sim.duration_s": duration, "network.uav_count": 10_000})
    argv = ["run", "--config", scenario, "--out", str(tmp_path / "o")]
    if not refused:
        with pytest.raises(_Reached):
            cli.main(argv)
        return
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == ("error: network.uav_count: 10000 UAVs x 100001 mobility "
                   "steps (sim.duration_s / sim.mobility_step_s) is "
                   "1.00001e+09 UAV-steps; at most 1e+09 may run\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("duration,rate,held", [
    (960, 600, None), (1398, 1000, None), (1399, 1000, "1.399e+06 arrivals "
     "(sim.duration_s x rate) x (1024 B + workload.payload_max_bytes) is "
     "4.29773e+09 B"), (9999, 1000, "9.999e+06 arrivals (sim.duration_s x "
     "rate) x (1024 B + workload.payload_max_bytes) is 3.07169e+10 B")],
    ids=["960s_at_600tps", "at_the_budget", "one_second_over", "1e7_arrivals"])
def test_run_caps_the_memory_of_the_arrivals(tmp_path, capsys, monkeypatch,
                                             duration, rate, held):
    # (duration + 1 ns) x rate arrivals of 1024 B plus the default 2048 B
    # payload cap each, against 4 GiB.
    def reached(config):
        raise _Reached

    monkeypatch.setattr(engine, "run", reached)
    scenario = write_small_scenario(tmp_path, **{
        "sim.duration_s": duration, "workload.arrival_rate_tps": rate})
    argv = ["run", "--config", scenario, "--out", str(tmp_path / "o")]
    if held is None:
        with pytest.raises(_Reached):
            cli.main(argv)
        return
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: workload.arrival_rate_tps: {held}; at most 4.29497e+09 B "
        "may be held\n")
    assert not (tmp_path / "o").exists()


_STEPS_1E9 = {"sim.mobility_step_s": 1e9, "consensus.window_s": 1e9,
              "consensus.block_interval_s": 1e9}


@pytest.mark.parametrize("extra,key", [
    # Times past the wire's i64 microseconds.
    ({"sim.duration_s": 1e13, "network.uav_count": 5, **_STEPS_1E9,
      "workload.arrival_rate_tps": 1e-9, "energy.uav_budget_j": 1e300},
     "sim.duration_s"),
    ({"sim.duration_s": 60, "network.uav_count": 40,
      "consensus.tau_max_s": 1e13, "workload.compromised_fraction": 0.5},
     "consensus.tau_max_s"),
    # The jitter mean at full contention overflows to inf.
    ({"network.jitter_mean_s": 1e308}, "network.jitter_mean_s"),
    ({"network.contention_per_uav": 1e308}, "network.contention_per_uav"),
    # cos of an infinite heading; an infinite, then NaN, speed.
    ({"mobility.heading_sigma": 1.7e308}, "mobility.heading_sigma"),
    ({"mobility.speed_sigma": 1.7e308}, "mobility.speed_sigma"),
    # NaN altitudes; an infinite area side, then NaN edge sites.
    ({"mobility.vert_sigma": 1.7e308}, "mobility.vert_sigma"),
    ({"network.area_km2": 1.8e302}, "network.area_km2"),
    # One payload of up to 4 GiB: a MemoryError, or gigabytes of the host's.
    ({"workload.payload_max_bytes": 4294967295}, "workload.payload_max_bytes"),
], ids=["duration_1e13", "tau_max_1e13", "jitter_1e308", "contention_1e308",
        "heading_sigma_1.7e308", "speed_sigma_1.7e308", "vert_sigma_1.7e308",
        "area_1.8e302", "payload_max_2^32-1"])
def test_run_rejects_a_scenario_that_would_crash(tmp_path, capsys, monkeypatch,
                                                 extra, key):
    def never(*args):
        raise AssertionError("a payload was built")

    # Each is refused at load, before any payload is built.
    monkeypatch.setattr(workload, "make_payload", never)
    scenario = write_small_scenario(tmp_path, **{
        "sim.duration_s": 20, "network.uav_count": 15, **extra})
    code = cli.main(["run", "--config", scenario, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("dump", [False, True], ids=["csv", "dump"])
@pytest.mark.parametrize("key", ["consensus.alpha", "consensus.gamma",
                                 "crypto.verify_j", "crypto.verify_s"])
def test_a_run_whose_outputs_overflow_writes_nothing(tmp_path, capsys, key,
                                                     dump):
    scenario = write_small_scenario(tmp_path, **{
        "sim.duration_s": 20, "network.uav_count": 15, key: 1e308})
    out = tmp_path / "o"
    code = cli.main(["run", "--config", scenario, "--out", str(out)]
                    + ["--dump-ledger"] * dump)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the scenario's values overflow a float: ")
    assert err.count("\n") == 1
    assert not out.exists()


# --- any scenario inside the bounds runs clean or is refused ----------------

# Drawn for each key whose interval holds them, with the interval's finite
# closed ends (an integer key's ends) and values from inside it.
_EXTREMES = (0, 5e-324, 1e-300, 1 - 2**-53, 1e300, 1.7e308)

# Each example changes up to four keys of a small scenario that commits a
# block every second. The keys that set the amount of work draw from these
# caps instead of their bounds, so an example runs in milliseconds: at most
# 3 simulated seconds, 20 UAVs, 8 edges and 4 tx/s (about 12 payloads of up
# to 1 MiB each). A step or interval draws values of at least 0.25 s and
# every extreme of its bound: the tiny ones are refused by the event cap.
_SMALL = {"sim.duration_s": 3.0, "network.uav_count": 10,
          "network.edge_count": 4, "consensus.committee_size": 3,
          "consensus.window_s": 1.0, "consensus.block_interval_s": 1.0,
          "workload.arrival_rate_tps": 4.0}
_CAPS = {"sim.duration_s": Interval(0, 3), "network.uav_count": Interval(1, 20),
         "network.edge_count": Interval(1, 8),
         "workload.arrival_rate_tps": Interval(0, 4, low_open=True)}
_STEPS = ("sim.mobility_step_s", "consensus.window_s",
          "consensus.block_interval_s")


def _drawn_values(st, default, outer: Interval, inside: Interval):
    """Any value of `inside`, or an extreme of `outer` that `outer` holds:
    one of `_EXTREMES` (0 for an integer key) or a closed end."""
    if isinstance(default, float):
        ends = [end for end, is_open in ((outer.low, outer.low_open),
                                         (outer.high, outer.high_open))
                if not is_open]   # an infinite end is always open
        extremes = [float(v) for v in (*_EXTREMES, *ends) if v in outer]
        low = inside.low if math.isfinite(inside.low) else None
        high = inside.high if math.isfinite(inside.high) else None
        values = st.floats(low, high, allow_nan=False, allow_infinity=False,
                           exclude_min=low is not None and inside.low_open,
                           exclude_max=high is not None and inside.high_open)
    else:
        ends = (outer.low + outer.low_open, outer.high - outer.high_open)
        extremes = [v for v in (0, *ends) if v in outer]
        values = st.integers(inside.low + inside.low_open,
                             inside.high - inside.high_open)
    return st.one_of(st.sampled_from(sorted(set(extremes))), values)


def _assert_finite_outputs(out: Path) -> None:
    def refuse(literal):
        raise AssertionError(f"summary.json holds {literal}")

    json.loads((out / "summary.json").read_text(), parse_constant=refuse)
    for name, record in (("transactions", metrics.TxRecord),
                         ("rounds", metrics.RoundRecord),
                         ("trust", metrics.TrustRecord)):
        floats = [f.name for f in dataclasses.fields(record) if "float" in f.type]
        with open(out / f"{name}.csv", newline="", encoding="utf-8") as handle:
            for row in csv.DictReader(handle):
                for column in floats:
                    if row[column]:
                        assert math.isfinite(float(row[column])), (name, column)


def test_any_scenario_inside_the_bounds_runs_clean_or_is_refused(tmp_path,
                                                                   capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    numeric = {}
    for key, default in config.config_to_flat_dict(ScenarioConfig()).items():
        bound = config._FIELDS[key][2]
        if key in _STEPS:
            numeric[key] = _drawn_values(st, default, bound, Interval(
                0.25, math.inf, high_open=True))
        elif bound is not None:
            cap = _CAPS.get(key, bound)
            numeric[key] = _drawn_values(st, default, cap, cap)
    outcomes = {"refused": 0, "clean": 0}

    @hypothesis.settings(derandomize=True, max_examples=300, database=None,
                         deadline=None)
    @hypothesis.given(keys=st.lists(st.sampled_from(sorted(numeric)),
                                    min_size=1, max_size=4, unique=True),
                      data=st.data())
    def check(keys, data):
        drawn = {key: data.draw(numeric[key], label=key) for key in keys}
        work = tmp_path / "example"
        work.mkdir()
        try:
            path, out = work / "drawn.scenario", work / "out"
            path.write_text("".join(f"{key} = {value!r}\n" for key, value
                                    in {**_SMALL, **drawn}.items()))
            code = cli.main(["run", "--config", str(path), "--out", str(out),
                             "--dump-ledger"])
            err = capsys.readouterr().err
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, err
                assert not out.exists()
                outcomes["refused"] += 1
                return
            assert code == 0 and not err, err
            _assert_finite_outputs(out)
            assert cli.main(["audit", "--ledger", str(out / "ledger.json")]) == 0
            assert "audit passed" in capsys.readouterr().out
            outcomes["clean"] += 1
        finally:
            shutil.rmtree(work)

    check()
    # Both endings occur, so neither check is vacuous.
    assert min(outcomes.values()) > 0, outcomes


def test_run_rejects_unregistered_crypto_scheme(tmp_path, capsys):
    scenario = write_small_scenario(
        tmp_path, **{"crypto.scheme": "dilithium3-class"})
    code = cli.main(["run", "--config", scenario, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "dilithium3-class" in err
    assert "Traceback" not in err


def test_run_rejects_a_config_directory(tmp_path, capsys):
    code = cli.main(["run", "--config", str(tmp_path), "--out",
                     str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_run_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.scenario"
    path.write_bytes("# d\xe9faut\nsim.duration_s = 90\n".encode("latin-1"))
    code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not UTF-8" in err
    assert err.count("\n") == 1


def test_run_rejects_a_config_that_sets_a_key_twice(tmp_path, capsys):
    path = tmp_path / "twice.scenario"
    path.write_text("network.uav_count = 10\nnetwork.uav_count = 20\n")
    code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == (f"error: {path}:2: network.uav_count is already set "
                   "on line 1\n")
    assert not (tmp_path / "o").exists()


def test_audit_rejects_a_ledger_directory(tmp_path, capsys):
    code = cli.main(["audit", "--ledger", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_audit_passes_on_untouched_ledger(tmp_path, capsys):
    scenario = write_small_scenario(tmp_path)
    out = tmp_path / "out"
    cli.main(["run", "--config", scenario, "--out", str(out), "--dump-ledger"])
    code = cli.main(["audit", "--ledger", str(out / "ledger.json")])
    assert code == 0
    assert "audit passed" in capsys.readouterr().out


def test_audit_fails_on_tampered_ledger(tmp_path, capsys):
    scenario = write_small_scenario(tmp_path)
    out = tmp_path / "out"
    cli.main(["run", "--config", scenario, "--out", str(out), "--dump-ledger"])
    path = out / "ledger.json"
    data = json.loads(path.read_text())
    for segment in data["segments"]:
        if segment["blocks"]:
            tx = segment["blocks"][0]["transactions"][0]
            tx["payload"] = "ff" + tx["payload"][2:]
            break
    path.write_text(json.dumps(data))
    code = cli.main(["audit", "--ledger", str(path)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def _first_block(data: dict) -> dict:
    return next(block for segment in data["segments"]
                for block in segment["blocks"])


def _first_tx(data: dict) -> dict:
    return _first_block(data)["transactions"][0]


def _forge_raw_size(data: dict) -> str:
    _first_block(data)["raw_size"] += 1
    return "raw size mismatch"


def _lower_size_limit(data: dict) -> str:
    data["max_block_bytes"] = _first_block(data)["compressed_size"] - 1
    return "oversize block"


@pytest.mark.parametrize("forge", [_forge_raw_size, _lower_size_limit])
def test_audit_binds_block_sizes(tmp_path, capsys, forge):
    scenario = write_small_scenario(tmp_path)
    out = tmp_path / "out"
    cli.main(["run", "--config", scenario, "--out", str(out), "--dump-ledger"])
    path = out / "ledger.json"
    data = json.loads(path.read_text())
    expected = forge(data)
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert cli.main(["audit", "--ledger", str(path)]) == 1
    assert expected in capsys.readouterr().out


def test_dump_records_the_size_limit_and_a_dump_without_one_has_none(
        tmp_path, capsys):
    scenario = write_small_scenario(tmp_path)
    out = tmp_path / "out"
    cli.main(["run", "--config", scenario, "--out", str(out), "--dump-ledger"])
    path = out / "ledger.json"
    data = json.loads(path.read_text())
    assert data["max_block_bytes"] == ScenarioConfig().consensus.max_block_bytes
    del data["max_block_bytes"]
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert cli.main(["audit", "--ledger", str(path)]) == 0
    assert "audit passed" in capsys.readouterr().out


class XRealProvider(crypto.MockProvider):
    """A backend under its own name with its own signature size, as a real
    one would have: mock signatures behind a 16-byte tag."""

    TAG = b"x-real-signature"
    signature_len = len(TAG) + crypto.MOCK_SIGNATURE_LEN

    def sign(self, private_key: bytes, message_hash: bytes) -> bytes:
        return self.TAG + super().sign(private_key, message_hash)

    def verify(self, message_hash: bytes, signature: bytes,
               public_key: bytes) -> bool:
        return (isinstance(signature, bytes) and signature.startswith(self.TAG)
                and super().verify(message_hash, signature[len(self.TAG):],
                                   public_key))


@pytest.fixture
def x_real_scheme():
    crypto.register_provider("x-real", XRealProvider())
    yield "x-real"
    crypto._PROVIDERS.pop("x-real")


def test_registered_provider_dump_passes_audit(tmp_path, capsys, x_real_scheme):
    scenario = write_small_scenario(tmp_path, **{"sim.duration_s": 30,
                                                 "crypto.scheme": x_real_scheme})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", scenario, "--out", str(out),
                     "--dump-ledger"]) == 0
    data = json.loads((out / "ledger.json").read_text())
    assert data["scheme"] == "x-real"
    tx = _first_tx(data)
    assert "scheme" not in tx
    assert bytes.fromhex(tx["signature"]).startswith(XRealProvider.TAG)
    capsys.readouterr()
    assert cli.main(["audit", "--ledger", str(out / "ledger.json")]) == 0
    assert "audit passed" in capsys.readouterr().out


def _unregistered_scheme(text: str) -> str:
    data = json.loads(text)
    data["scheme"] = "foo"
    return json.dumps(data)


def _missing_key(text: str) -> str:
    data = json.loads(text)
    del _first_tx(data)["signature"]
    return json.dumps(data)


def _bad_hex(text: str) -> str:
    data = json.loads(text)
    _first_tx(data)["payload"] = "zz"
    return json.dumps(data)


def _truncated(text: str) -> str:
    return text[:len(text) // 2]


def _bad_size_limit(text: str) -> str:
    data = json.loads(text)
    data["max_block_bytes"] = "2MB"
    return json.dumps(data)


def _deeply_nested(text: str) -> str:
    return "[" * 200_000


def _first_meta(data: dict) -> dict:
    return _first_block(data)["metadata"]


def _first_segment(data: dict) -> dict:
    return data["segments"][0]


def _registry(data: dict) -> dict:
    return data["registry"]


def _top(data: dict) -> dict:
    return data


def _setter(where, key: str, value):
    """A mutation that sets `key` of the dump entry `where` picks to `value`."""
    def mutate(text: str) -> str:
        data = json.loads(text)
        where(data)[key] = value
        return json.dumps(data)
    # A control character or a lone surrogate in a test id is written as
    # its escape.
    mutate.__name__ = f"{where.__name__}_{key}_{value}".encode(
        "unicode_escape").decode("ascii")
    return mutate


def _spaced_payload(text: str) -> str:
    # bytes.fromhex would skip the space and read the dumped payload.
    data = json.loads(text)
    tx = _first_tx(data)
    tx["payload"] = tx["payload"][:2] + " " + tx["payload"][2:]
    return json.dumps(data)


def _newline_in_registry_key(text: str) -> str:
    data = json.loads(text)
    node, key = next(iter(data["registry"].items()))
    data["registry"][node] = key[:2] + "\n" + key[2:]
    return json.dumps(data)


@pytest.mark.parametrize("mutate", [
    _unregistered_scheme, _missing_key, _bad_hex, _truncated, _bad_size_limit,
    _deeply_nested,
    _setter(_first_block, "utility", float("nan")),
    _setter(_first_block, "utility", float("inf")),
    _setter(_first_meta, "timestamp", "x"),
    _setter(_first_block, "compressed_size", "9"),
    _setter(_first_block, "proposer", 5),
    _setter(_first_tx, "submit_time", 1e300),
    _setter(_first_tx, "submit_time", True),
    _setter(_first_tx, "submit_time", "1.0"),
    _setter(_first_meta, "timestamp", 1e300),
    _setter(_top, "max_block_bytes", True),
    # Names the wire and the report must encode: a JSON escape can make a
    # lone surrogate, which UTF-8 cannot.
    _setter(_first_block, "proposer", "\ud800"),
    _setter(_first_segment, "owner", "\ud800"),
    _setter(_first_tx, "sender", "\ud800"),
    _setter(_registry, "\ud800", "00"),
    # Hex holds no whitespace, so one ledger has one dump text.
    _spaced_payload, _newline_in_registry_key,
    # Names the report prints are printable: a newline would forge lines.
    _setter(_first_segment, "owner",
            "e00 (1 blocks)\naudit passed (10 segments, 0 findings)"),
    _setter(_first_block, "proposer", "e00\n"),
    _setter(_first_tx, "sender", "u-x\n  fake"),
    _setter(_registry, "e00\naudit passed", "00")])
def test_audit_rejects_malformed_ledger(tmp_path, capsys, mutate):
    scenario = write_small_scenario(tmp_path)
    out = tmp_path / "out"
    cli.main(["run", "--config", scenario, "--out", str(out), "--dump-ledger"])
    path = out / "ledger.json"
    dump = json.loads(path.read_text())
    path.write_text(mutate(path.read_text()))
    capsys.readouterr()
    code = cli.main(["audit", "--ledger", str(path)])
    assert code == 2
    out, err = capsys.readouterr()
    expected = ("no provider registered for 'foo'"
                if mutate is _unregistered_scheme else "malformed ledger dump")
    assert err.startswith("error:") and expected in err
    assert err.count("\n") == 1 and out == ""
    # Bad hex is named by its key and where it sits.
    owner = next(s["owner"] for s in dump["segments"] if s["blocks"])
    node = next(iter(dump["registry"]))
    named = {
        _bad_hex: f"segment {owner} block 1 tx 0 payload is not hex: "
                  "Non-hexadecimal digit found",
        _spaced_payload: f"segment {owner} block 1 tx 0 payload is not hex: "
                         "Odd-length string",
        _newline_in_registry_key: f"registry key of {node!r} is not hex: "
                                  "Odd-length string"}
    if mutate in named:
        assert err == f"error: malformed ledger dump {path}: {named[mutate]}\n"


@pytest.fixture(scope="module")
def small_dump(tmp_path_factory) -> bytes:
    """The bytes of the small scenario's ledger dump."""
    tmp = tmp_path_factory.mktemp("dump")
    out = tmp / "out"
    assert cli.main(["run", "--config", write_small_scenario(tmp), "--out",
                     str(out), "--dump-ledger"]) == 0
    return (out / "ledger.json").read_bytes()


@pytest.mark.parametrize("edit,code", [
    (lambda dump: dump, 0),
    (lambda dump: dump.replace(b"\n", b"\r\n"), 0),
    (lambda dump: b"", 2),
    (lambda dump: b"\xef\xbb\xbf" + dump, 2),
    (lambda dump: dump.replace(b'"sender": "', b'"sender": "\xff', 1), 2),
], ids=["as_dumped", "crlf", "empty", "utf8_bom", "xff_byte"])
@pytest.mark.parametrize("via", ["file", "pipe"])
def test_audit_reads_a_dump_from_a_file_or_a_pipe(tmp_path, capsys, small_dump,
                                                  edit, code, via):
    # A regular file is mapped and a pipe read whole; both must decode,
    # parse and refuse alike.
    data = edit(small_dump)
    if via == "file":
        path = tmp_path / "ledger.json"
        path.write_bytes(data)
        capsys.readouterr()
        assert cli.main(["audit", "--ledger", str(path)]) == code
        out, err = capsys.readouterr()
    else:
        if not os.path.exists("/dev/stdin"):
            pytest.skip("no /dev/stdin to pipe the dump through")
        env = {**os.environ,
               "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "uavchain.cli", "audit", "--ledger",
             "/dev/stdin"], input=data, env=env, capture_output=True,
            timeout=60)
        assert done.returncode == code, done.stderr
        out, err = done.stdout.decode(), done.stderr.decode()
    if code == 0:
        assert "audit passed" in out and err == ""
    else:
        assert err.startswith("error:") and "malformed ledger dump" in err
        assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["sweep", "--axis", "network.uav_count", "--values", "10,abc"],
    ["sweep", "--axis", "network.uav_count", "--values", ""],
    ["sweep", "--axis", "network.uav_count", "--values", "10",
     "--replications", "0"],
    ["figures", "--figure", "latency", "--replications", "0"],
    ["figures", "--figure", "trustrank", "--duration", "-5"],
    ["figures", "--figure", "nope"],
], ids=["non-numeric-value", "empty-values", "sweep-zero-replications",
        "figures-zero-replications", "figures-negative-duration",
        "figures-unknown-figure"])
def test_sweep_and_figures_reject_bad_input(tmp_path, capsys, argv):
    code = cli.main(argv + ["--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_sweep_writes_csv(tmp_path):
    scenario = write_small_scenario(tmp_path, **{"sim.duration_s": 60})
    out = tmp_path / "out"
    code = cli.main(["sweep", "--config", scenario, "--axis",
                     "network.uav_count", "--values", "10,20",
                     "--replications", "2", "--out", str(out)])
    assert code == 0
    with open(out / "sweep_network_uav_count.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert [r["value"] for r in rows] == ["10", "20"]
    assert float(rows[0]["tps_committed_mean"]) >= 0.0



def test_run_and_sweep_without_a_decided_round(tmp_path, capsys):
    # 5 s ends before the first block interval, so no round is decided.
    scenario = write_small_scenario(tmp_path, **{
        "sim.duration_s": 5, "network.uav_count": 3})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", scenario, "--out", str(out)]) == 0
    assert "validation success n/a (no decided round)\n" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["validation_success_pct"] is None
    assert cli.main(["sweep", "--config", scenario, "--axis", "sim.duration_s",
                     "--values", "5,60", "--replications", "1",
                     "--out", str(out)]) == 0
    with open(out / "sweep_sim_duration_s.csv") as handle:
        short, longer = csv.DictReader(handle)
    assert short["validation_success_pct_mean"] == ""
    assert short["validation_success_pct_std"] == ""
    assert 0.0 <= float(longer["validation_success_pct_mean"]) <= 100.0


@pytest.mark.parametrize("extra", [
    {"mobility.alt_min_m": 100, "mobility.alt_max_m": 100},
    {"mobility.mean_speed_mps": 1e15},
], ids=["flat_altitude_band", "mean_speed_1e15"])
def test_run_finishes_when_a_step_leaves_the_band_by_far_or_the_band_is_flat(
        tmp_path, extra):
    # A separate process, so that a fold loop that never ends fails the
    # test at the timeout instead of hanging the suite.
    scenario = write_small_scenario(tmp_path, **{
        "sim.duration_s": 3, "network.uav_count": 5, **extra})
    env = {**os.environ,
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "uavchain.cli", "run", "--config", scenario,
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "summary.json").is_file()


def test_run_with_a_range_whose_square_overflows_writes_finite_outputs(tmp_path):
    # Every UAV is in range of 1e300 m, a range whose square overflows a
    # float: the range test compares distances, not their squares.
    scenario = write_small_scenario(tmp_path, **{
        "sim.duration_s": 20, "network.uav_count": 15, "network.range_m": 1e300})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", scenario, "--out", str(out),
                     "--dump-ledger"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["submitted"] > 0 and summary["dropped"] == 0
    assert all(value is None or math.isfinite(value) for value in summary.values())
    for name in ("transactions.csv", "rounds.csv", "trust.csv"):
        with open(out / name) as handle:
            cells = {cell.lower() for row in csv.reader(handle) for cell in row}
        assert not cells & {"inf", "-inf", "nan"}, name


def test_sweep_rejects_a_worker_count_that_is_not_an_integer(
        tmp_path, capsys, monkeypatch):
    jobs = []
    monkeypatch.setattr(engine, "_run_summary", jobs.append)
    monkeypatch.setenv("UAVCHAIN_WORKERS", "abc")
    code = cli.main(["sweep", "--axis", "network.uav_count", "--values", "10",
                     "--replications", "1", "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: UAVCHAIN_WORKERS") and err.count("\n") == 1
    assert jobs == []


def test_sweep_refuses_the_master_seed_as_its_axis(tmp_path, capsys,
                                                  monkeypatch):
    jobs = []
    monkeypatch.setattr(engine, "_run_summary", jobs.append)
    code = cli.main(["sweep", "--axis", "sim.master_seed", "--values", "1,2",
                     "--replications", "1", "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sim.master_seed") and err.count("\n") == 1
    assert "--seed" in err and jobs == []


def test_figures_catalog_runs(tmp_path, monkeypatch):
    # golden.json pins the serial figure; the pool of workers must match it.
    monkeypatch.setenv("UAVCHAIN_WORKERS", "2")
    problem = golden.check("resilience", golden.load()["resilience"], tmp_path)
    assert not problem, problem
    with open(tmp_path / "figure_resilience.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(cli.FIGURES["resilience"]["values"])
    assert "validation_success_pct_mean" in rows[0]


def test_figures_trustrank_table(tmp_path):
    scenario = write_small_scenario(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["figures", "--figure", "trustrank", "--config", scenario,
                     "--duration", "90", "--out", str(out)])
    assert code == 0
    with open(out / "figure_trustrank.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 10
    shares = [float(r["committed_share_pct"]) for r in rows]
    assert sum(shares) == pytest.approx(100.0, abs=1e-6)


def test_figures_unknown_name(tmp_path, capsys):
    code = cli.main(["figures", "--figure", "nope", "--out", str(tmp_path)])
    assert code == 2
    assert "unknown figure" in capsys.readouterr().err


def test_trust_leadership_table_shape():
    cfg = ScenarioConfig()
    cfg.sim.duration_s = 90.0
    cfg.network.uav_count = 30
    result = engine.run(cfg)
    rows = cli.trust_leadership_table(result)
    assert len(rows) == 10
    trusts = [r["mean_trust"] for r in rows]
    assert trusts == sorted(trusts, reverse=True)
    assert all(r["population_share_pct"] == 10.0 for r in rows)
    assert (rows[0]["committed_share_pct"]
            == result.summary["top_decile_share_pct"])

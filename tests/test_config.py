"""Scenario config parsing, validation, overrides, bundled defaults."""

import copy
import math
import re
from pathlib import Path

import pytest

from uavchain import cli, config, crypto, engine
from uavchain.config import (ConfigError, ScenarioConfig, apply_override,
                             config_to_flat_dict, load_config)
from uavchain.crypto import MockProvider, register_provider
from uavchain.ledger import CODECS, encode_tx_core
from uavchain.workload import BACKDATE_TAUS, Behavior

# Every scenario key, in the order of the config sections and their fields.
KEYS = list(config_to_flat_dict(ScenarioConfig()))
DEFAULT_SCENARIO = Path(config.__file__).parent / "data" / "default.scenario"


def test_defaults_validate():
    ScenarioConfig().validate()


def test_area_side_from_area():
    cfg = ScenarioConfig()
    cfg.network.area_km2 = 10.0
    assert cfg.area_side_m() == pytest.approx(3162.2776, rel=1e-6)


def test_apply_override_parses_strings():
    cfg = ScenarioConfig()
    apply_override(cfg, "network.uav_count", "40")
    apply_override(cfg, "sim.duration_s", "120.5")
    apply_override(cfg, "ledger.codec", "none")
    assert cfg.network.uav_count == 40
    assert cfg.sim.duration_s == 120.5
    assert cfg.ledger.codec == "none"


def test_apply_override_unknown_key_is_hard_error():
    cfg = ScenarioConfig()
    for key in ("network.uav_cout",
                "nonsense",           # no dot
                "energy.tx_energy",   # a section method
                "sim.__class__",      # a dunder
                "workload.__doc__",
                "trust.smoothing",    # the field behind the trust.lambda key
                "nosuchsection.field"):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            apply_override(cfg, key, "1")
    assert config_to_flat_dict(cfg) == config_to_flat_dict(ScenarioConfig())


def test_apply_override_type_mismatch():
    cfg = ScenarioConfig()
    with pytest.raises(ConfigError):
        apply_override(cfg, "network.uav_count", "forty")
    with pytest.raises(ConfigError):
        apply_override(cfg, "ledger.codec", 3)


def test_trust_lambda_alias():
    cfg = ScenarioConfig()
    apply_override(cfg, "trust.lambda", "0.9")
    assert cfg.trust.smoothing == 0.9
    assert "trust.lambda" in KEYS
    assert "trust.smoothing" not in KEYS
    assert "trust.lambda" in config_to_flat_dict(cfg)


def test_load_config_file(tmp_path):
    path = tmp_path / "case.scenario"
    path.write_text(
        "# comment line\n"
        "\n"
        "network.uav_count = 25   # trailing comment\n"
        "trust.lambda = 0.7\n")
    cfg = load_config(path)
    assert cfg.network.uav_count == 25
    assert cfg.trust.smoothing == 0.7


def test_load_config_rejects_malformed_line(tmp_path):
    path = tmp_path / "bad.scenario"
    path.write_text("just words\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_a_key_set_twice(tmp_path):
    path = tmp_path / "twice.scenario"
    path.write_text("network.uav_count = 10\n"
                    "sim.duration_s = 90\n"
                    "\n"
                    "network.uav_count = 20  # pasted in\n")
    message = f"{path}:4: network.uav_count is already set on line 1"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(path)


def test_load_config_applies_overrides(tmp_path):
    path = tmp_path / "case.scenario"
    path.write_text("network.uav_count = 25\n")
    cfg = load_config(path, overrides={"network.uav_count": 30})
    assert cfg.network.uav_count == 30


def test_load_config_without_a_file_starts_from_the_defaults():
    cfg = load_config(None, {"sim.master_seed": 7})
    expected = ScenarioConfig()
    expected.sim.master_seed = 7
    assert cfg == expected
    with pytest.raises(ConfigError, match="sim.duration_s"):
        load_config(None, {"sim.duration_s": -1.0})


@pytest.mark.parametrize("key,value", [
    ("sim.duration_s", -1.0),
    ("network.uav_count", 0),
    ("trust.lambda", 1.0),
    ("trust.weight_valid", 0.9),
    ("consensus.committee_size", 99),
    ("consensus.tau_max_s", 0.0),
    ("ledger.codec", "bzip17"),
    ("ledger.replication", 10),
    ("workload.compromised_fraction", 1.0),
    ("workload.behaviors", "forge-signature,unknown"),
    ("workload.behaviors", "vote-reject"),  # an edge's, by malicious_edge_fraction
    ("workload.behaviors", ""),  # 15 compromised UAVs with no behavior
    ("crypto.scheme", "rsa-2048"),
    ("crypto.scheme", "dilithium3-class"),  # named in docs, not registered
    ("crypto.sign_j", -1.0),
    ("crypto.verify_s", -0.001),
    ("network.prop_speed_mps", 0.0),
    ("consensus.max_block_txs", -3),
    ("consensus.alpha", -1.0),
    ("mobility.memory", 1.5),
    ("mobility.alt_min_m", 200.0),
    ("energy.eps0_j", -0.1),
    ("energy.eps1_j_per_m2", -1e-9),
    ("trust.lambda", 0.0),
    ("trust.initial_score", 1.5),
    ("workload.arrival_rate_tps", 0.0),
    ("workload.payload_min_bytes", 0),
    ("workload.payload_min_bytes", 4096),
    ("workload.payload_random_fraction", 1.5),
    ("workload.malicious_edge_fraction", 1.0),
    ("sim.duration_s", math.inf),
    ("sim.duration_s", "1e999"),
    ("workload.arrival_rate_tps", math.inf),
    ("network.area_km2", math.inf),
    ("mobility.speed_sigma", math.nan),
    ("sim.master_seed", 2**63),
    ("sim.master_seed", -2**63 - 1),
    ("network.vote_size_bytes", -5),
    ("mobility.mean_speed_mps", -8.0),
    ("mobility.speed_sigma", -1.0),
    ("mobility.heading_sigma", -1.0),
    ("mobility.vert_sigma", -1.0),
    ("mobility.alt_min_m", -100.0),
])
def test_validate_rejects_bad_values(key, value):
    cfg = ScenarioConfig()
    apply_override(cfg, key, value)
    with pytest.raises(ConfigError, match=re.escape(key)):
        cfg.validate()


def test_validate_rejects_all_zero_utility_weights():
    cfg = ScenarioConfig()
    for key in ("consensus.alpha", "consensus.beta", "consensus.gamma"):
        apply_override(cfg, key, 0.0)
    with pytest.raises(ConfigError, match="consensus.alpha"):
        cfg.validate()


@pytest.fixture
def x_test_scheme():
    register_provider("x-test", MockProvider())
    yield "x-test"
    crypto._PROVIDERS.pop("x-test")


def test_registered_provider_is_a_valid_scheme(x_test_scheme):
    cfg = ScenarioConfig()
    apply_override(cfg, "crypto.scheme", x_test_scheme)
    apply_override(cfg, "sim.duration_s", 60.0)
    apply_override(cfg, "network.uav_count", 20)
    cfg.validate()
    result = engine.run(cfg)
    assert result.summary["committed"] > 0
    assert any(b.value == "forge-signature"
               for b in result.uav_behaviors.values())


def test_empty_behaviors_with_no_compromised_uav_runs():
    # floor(0.04 x 20) = 0 UAVs are compromised, so none needs a behavior.
    cfg = ScenarioConfig()
    for key, value in (("sim.duration_s", 60.0), ("network.uav_count", 20),
                       ("workload.compromised_fraction", 0.04),
                       ("workload.behaviors", "")):
        apply_override(cfg, key, value)
    cfg.validate()
    result = engine.run(cfg)
    assert result.uav_behaviors == {} and result.summary["committed"] > 0


def test_bundled_default_scenario_matches_code_defaults():
    assert DEFAULT_SCENARIO.is_file()
    cfg = load_config(DEFAULT_SCENARIO)
    assert config_to_flat_dict(cfg) == config_to_flat_dict(ScenarioConfig())


def test_flat_dict_round_trips_through_overrides():
    cfg = ScenarioConfig()
    cfg.network.uav_count = 33
    flat = config_to_flat_dict(cfg)
    rebuilt = ScenarioConfig()
    for key, value in flat.items():
        apply_override(rebuilt, key, value)
    assert config_to_flat_dict(rebuilt) == flat


def _bounded_keys():
    """(key, default, bound) of every key with a numeric bound."""
    defaults = config_to_flat_dict(ScenarioConfig())
    return [(key, defaults[key], bound)
            for key, (_, _, bound) in config._FIELDS.items() if bound is not None]


def test_every_numeric_key_has_a_bound():
    numeric = [key for key, value in config_to_flat_dict(ScenarioConfig()).items()
               if not isinstance(value, str)]
    assert numeric == [key for key, _, _ in _bounded_keys()]


def _just_outside():
    """For each end of each bound, the nearest value of the key's type outside
    it: an open end itself (an infinite one only for a float key), else the
    next float or integer beyond a closed end."""
    cases = []
    for key, default, bound in _bounded_keys():
        for end, is_open, step in ((bound.low, bound.low_open, -1),
                                   (bound.high, bound.high_open, 1)):
            if isinstance(default, float):
                cases.append((key, float(end) if is_open
                              else math.nextafter(end, step * math.inf)))
            elif math.isfinite(end):
                cases.append((key, end if is_open else end + step))
    return cases


@pytest.mark.parametrize("key,value", _just_outside())
def test_a_value_just_outside_its_bound_is_rejected(tmp_path, capsys, key,
                                                    value):
    cfg = ScenarioConfig()
    apply_override(cfg, key, value)
    with pytest.raises(ConfigError, match="^" + re.escape(key + ":")):
        cfg.validate()
    path = tmp_path / "outside.scenario"
    path.write_text(f"{key} = {value}\n")
    assert cli.main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_the_wire_time_rule_stops_where_i64_microseconds_do():
    cfg = ScenarioConfig()
    for key in ("sim.mobility_step_s", "consensus.window_s",
                "consensus.block_interval_s"):
        apply_override(cfg, key, 1e9)
    apply_override(cfg, "workload.arrival_rate_tps", 1e-9)
    last = math.nextafter(config.MAX_WIRE_TIME_S, 0)
    tau = config.MAX_WIRE_TIME_S / BACKDATE_TAUS
    while BACKDATE_TAUS * tau >= config.MAX_WIRE_TIME_S:
        tau = math.nextafter(tau, 0)
    cfg.sim.duration_s, cfg.consensus.tau_max_s = last, tau
    cfg.validate()
    # The latest event and the earliest back-dated submit time both encode.
    encode_tx_core("u000", last, b"")
    encode_tx_core("u000", 0.0 - BACKDATE_TAUS * tau, b"")
    for key, value in (("sim.duration_s", config.MAX_WIRE_TIME_S),
                       ("consensus.tau_max_s", math.nextafter(tau, math.inf))):
        bad = copy.deepcopy(cfg)
        apply_override(bad, key, value)
        with pytest.raises(ConfigError, match="^" + re.escape(key + ":")):
            bad.validate()


def test_flat_config_round_trips_through_a_scenario_file(tmp_path):
    # Any value inside every bound that keeps the rules spanning keys loads.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def inside(default, bound):
        low = bound.low if math.isfinite(bound.low) else None
        high = bound.high if math.isfinite(bound.high) else None
        if isinstance(default, float):
            return st.floats(low, high, allow_nan=False, allow_infinity=False,
                             exclude_min=low is not None and bound.low_open,
                             exclude_max=high is not None and bound.high_open)
        return st.integers(None if low is None else low + bound.low_open,
                           None if high is None else high - bound.high_open)

    values = {key: inside(default, bound)
              for key, default, bound in _bounded_keys()}
    values["crypto.scheme"] = st.just("mock-sig")
    values["ledger.codec"] = st.sampled_from(CODECS)
    values["workload.behaviors"] = st.lists(
        st.sampled_from([b.value for b in Behavior]), min_size=1,
        unique=True).map(",".join)

    @hypothesis.settings(derandomize=True, max_examples=200, database=None,
                         deadline=None)
    @hypothesis.given(flat=st.fixed_dictionaries(values))
    def check(flat):
        # Bring the draw inside the rules that span keys.
        edges = flat["network.edge_count"]
        flat["consensus.committee_size"] = min(flat["consensus.committee_size"],
                                               edges)
        flat["ledger.replication"] = min(flat["ledger.replication"], edges - 1)
        for low, high in (("mobility.alt_min_m", "mobility.alt_max_m"),
                          ("workload.payload_min_bytes",
                           "workload.payload_max_bytes")):
            flat[low], flat[high] = sorted((flat[low], flat[high]))
        flat["trust.weight_timely"] *= 1.0 - flat["trust.weight_valid"]
        flat["trust.weight_uptime"] = (1.0 - flat["trust.weight_valid"]
                                       - flat["trust.weight_timely"])
        if not (flat["consensus.alpha"] or flat["consensus.beta"]
                or flat["consensus.gamma"]):
            flat["consensus.gamma"] = 0.1
        # The loop's 1 ns past the duration takes at most a quarter of the
        # event cap, and the duration half of it, so each stream stays clear
        # of the cap after rounding.
        quarter = config.MAX_STREAM_EVENTS / 4
        for key in ("sim.mobility_step_s", "consensus.window_s",
                    "consensus.block_interval_s"):
            flat[key] = max(flat[key], config.EVENT_SLACK_S / quarter)
        # Likewise a quarter and a half of the arrivals the memory budget
        # holds at this draw's largest payload.
        budget = config.MAX_ARRIVAL_BYTES / (config.ARRIVAL_BYTES
                                             + flat["workload.payload_max_bytes"])
        flat["workload.arrival_rate_tps"] = min(
            flat["workload.arrival_rate_tps"], quarter / config.EVENT_SLACK_S,
            budget / 4 / config.EVENT_SLACK_S)
        events = config.MAX_STREAM_EVENTS / 2
        # Half the wire's time limit keeps each time and delay mean clear of
        # it after rounding.
        wire = config.MAX_WIRE_TIME_S / 2
        flat["sim.duration_s"] = min(
            flat["sim.duration_s"], events / flat["workload.arrival_rate_tps"],
            budget / 2 / flat["workload.arrival_rate_tps"],
            *(events * flat[key] for key in ("sim.mobility_step_s",
                                             "consensus.window_s",
                                             "consensus.block_interval_s")),
            wire)
        flat["consensus.tau_max_s"] = min(flat["consensus.tau_max_s"],
                                          wire / BACKDATE_TAUS)
        # At most about half the event cap of steps, so about 200 UAVs fit.
        steps = math.ceil((flat["sim.duration_s"] + config.EVENT_SLACK_S)
                          / flat["sim.mobility_step_s"])
        flat["network.uav_count"] = min(flat["network.uav_count"],
                                        config.MAX_UAV_STEPS // steps)
        contention = flat["network.contention_per_uav"] = min(
            flat["network.contention_per_uav"], wire)
        flat["network.jitter_mean_s"] = min(
            flat["network.jitter_mean_s"],
            wire / (1.0 + contention * flat["network.uav_count"]))
        path = tmp_path / "drawn.scenario"
        path.write_text("".join(f"{key} = {flat[key]}\n"
                                for key in KEYS))
        assert config_to_flat_dict(load_config(path)) == flat

    check()


def test_readme_key_table_matches_the_scenario_keys():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]
    defaults = config_to_flat_dict(ScenarioConfig())
    assert [row[0] for row in rows] == [f"`{key}`" for key in KEYS]
    for (key, (_, _, bound)), row in zip(config._FIELDS.items(), rows):
        assert row[1] == f"`{defaults[key]}`", key
        if bound is not None:
            assert row[2] == f"`{bound}`", key

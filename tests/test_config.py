"""Scenario config parsing, validation, overrides, bundled defaults."""

import math
import re

import pytest

from uavchain import crypto, engine
from uavchain.config import (ConfigError, ScenarioConfig, apply_override,
                             config_to_flat_dict, default_scenario_path,
                             known_keys, load_config)
from uavchain.crypto import MockProvider, register_provider
from uavchain.ledger import CODECS


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
    assert "trust.lambda" in known_keys()
    assert "trust.smoothing" not in known_keys()
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
    ("workload.behaviors", "vote-reject"),  # compromised UAVs, no UAV behavior
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


def test_bundled_default_scenario_matches_code_defaults():
    path = default_scenario_path()
    assert path.is_file()
    cfg = load_config(path)
    assert config_to_flat_dict(cfg) == config_to_flat_dict(ScenarioConfig())


def test_flat_dict_round_trips_through_overrides():
    cfg = ScenarioConfig()
    cfg.network.uav_count = 33
    flat = config_to_flat_dict(cfg)
    rebuilt = ScenarioConfig()
    for key, value in flat.items():
        apply_override(rebuilt, key, value)
    assert config_to_flat_dict(rebuilt) == flat


def test_flat_config_round_trips_through_a_scenario_file(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    defaults = config_to_flat_dict(ScenarioConfig())

    def between_half_and_default(value):
        # Every check of validate() admits any value in this band around
        # the default, except the behavior weights, whose sum is fixed.
        if isinstance(value, str):
            return st.just(value)
        if isinstance(value, int):
            return st.integers(value // 2 + value % 2, value)
        return st.floats(value / 2, value)

    values = {key: between_half_and_default(value)
              for key, value in defaults.items()}
    values["sim.master_seed"] = st.integers(-2**63, 2**63 - 1)
    values["ledger.codec"] = st.sampled_from(CODECS)
    values["workload.behaviors"] = st.lists(
        st.sampled_from(["forge-signature", "replay", "delay-injection"]),
        min_size=1, unique=True).map(",".join)

    @hypothesis.settings(derandomize=True, max_examples=100, database=None,
                         deadline=None)
    @hypothesis.given(flat=st.fixed_dictionaries(values))
    def check(flat):
        flat["trust.weight_uptime"] = (1.0 - flat["trust.weight_valid"]
                                       - flat["trust.weight_timely"])
        path = tmp_path / "drawn.scenario"
        path.write_text("".join(f"{key} = {flat[key]}\n"
                                for key in known_keys()))
        assert config_to_flat_dict(load_config(path)) == flat

    check()

"""Scenario configuration: typed sections, flat dotted-key text format.

The on-disk format is one ``section.field = value`` assignment per line,
``#`` comments, blank lines allowed. Unknown keys and a key set twice are
hard errors so a typo or a pasted-in duplicate cannot silently corrupt an
experiment.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .crypto import UnsupportedSchemeError, get_provider
from .ledger import CODECS
from .workload import Behavior


class ConfigError(ValueError):
    pass


@dataclass
class SimSection:
    duration_s: float = 600.0
    master_seed: int = 1
    mobility_step_s: float = 1.0


@dataclass
class NetworkSection:
    uav_count: int = 100
    edge_count: int = 10
    area_km2: float = 10.0
    range_m: float = 1200.0
    bandwidth_bps: float = 1e6         # UAV air links
    backhaul_bps: float = 1e7          # edge/base infrastructure links
    jitter_mean_s: float = 0.005
    contention_per_uav: float = 0.08   # queueing growth per UAV in the cell
    prop_speed_mps: float = 3e8
    vote_size_bytes: int = 256


@dataclass
class MobilitySection:
    memory: float = 0.85         # autocorrelation of successive velocities
    mean_speed_mps: float = 8.0
    speed_sigma: float = 1.5
    heading_sigma: float = 0.35  # radians
    vert_sigma: float = 0.3
    alt_min_m: float = 50.0
    alt_max_m: float = 150.0


@dataclass
class CryptoSection:
    scheme: str = "mock-sig"
    sign_j: float = 0.02
    verify_j: float = 0.01
    encaps_j: float = 0.01
    decaps_j: float = 0.01
    verify_s: float = 0.001


@dataclass
class TrustSection:
    smoothing: float = 0.8     # dotted key: trust.lambda
    initial_score: float = 0.5
    weight_valid: float = 0.5
    weight_timely: float = 0.3
    weight_uptime: float = 0.2


@dataclass
class ConsensusSection:
    window_s: float = 10.0
    block_interval_s: float = 15.0
    committee_size: int = 5
    alpha: float = 1.0
    beta: float = 2.0
    gamma: float = 0.1
    tau_max_s: float = 120.0
    max_block_bytes: int = 2 * 1024 * 1024   # applies to the compressed block
    max_block_txs: int = 0                   # 0 = unlimited


@dataclass
class LedgerSection:
    codec: str = "zlib"
    replication: int = 2
    compression_headroom: float = 0.30  # assumed ratio for the raw budget


@dataclass
class EnergySection:
    eps0_j: float = 0.05        # fixed per-transmission cost
    eps1_j_per_m2: float = 1e-7
    uav_budget_j: float = 1000.0

    def tx_energy(self, distance_m: float) -> float:
        """Transmission energy eps0 + eps1 * distance**2."""
        if distance_m < 0.0:
            raise ValueError("distance must be non-negative")
        return self.eps0_j + self.eps1_j_per_m2 * distance_m * distance_m


@dataclass
class WorkloadSection:
    arrival_rate_tps: float = 6.0      # network-wide, not per UAV
    payload_min_bytes: int = 512
    payload_max_bytes: int = 2048
    payload_random_fraction: float = 0.56  # incompressible share
    compromised_fraction: float = 0.15
    malicious_edge_fraction: float = 0.0
    behaviors: str = "forge-signature,replay,delay-injection"


@dataclass
class ScenarioConfig:
    sim: SimSection = field(default_factory=SimSection)
    network: NetworkSection = field(default_factory=NetworkSection)
    mobility: MobilitySection = field(default_factory=MobilitySection)
    crypto: CryptoSection = field(default_factory=CryptoSection)
    trust: TrustSection = field(default_factory=TrustSection)
    consensus: ConsensusSection = field(default_factory=ConsensusSection)
    ledger: LedgerSection = field(default_factory=LedgerSection)
    energy: EnergySection = field(default_factory=EnergySection)
    workload: WorkloadSection = field(default_factory=WorkloadSection)

    def area_side_m(self) -> float:
        return (self.network.area_km2 * 1e6) ** 0.5

    def behavior_list(self) -> tuple[str, ...]:
        return tuple(b.strip() for b in self.workload.behaviors.split(",")
                     if b.strip())

    def validate(self) -> None:
        def check(cond: bool, key: str, message: str) -> None:
            if not cond:
                raise ConfigError(f"{key}: {message}")

        for key, value in config_to_flat_dict(self).items():
            check(not isinstance(value, float) or math.isfinite(value), key,
                  "must be finite")
        check(self.sim.duration_s >= 0, "sim.duration_s", "must be non-negative")
        check(-2**63 <= self.sim.master_seed < 2**63, "sim.master_seed",
              "must fit a signed 64-bit integer")
        check(self.sim.mobility_step_s > 0, "sim.mobility_step_s", "must be positive")
        check(self.network.uav_count > 0, "network.uav_count", "must be positive")
        check(self.network.edge_count > 0, "network.edge_count", "must be positive")
        check(self.network.area_km2 > 0, "network.area_km2", "must be positive")
        check(self.network.range_m > 0, "network.range_m", "must be positive")
        check(self.network.bandwidth_bps > 0, "network.bandwidth_bps",
              "must be positive")
        check(self.network.backhaul_bps > 0, "network.backhaul_bps",
              "must be positive")
        check(self.network.jitter_mean_s > 0, "network.jitter_mean_s",
              "must be positive")
        check(self.network.contention_per_uav >= 0, "network.contention_per_uav",
              "must be non-negative")
        check(self.network.prop_speed_mps > 0, "network.prop_speed_mps",
              "must be positive")
        check(0 <= self.mobility.memory <= 1, "mobility.memory", "must be in [0,1]")
        check(self.mobility.alt_min_m <= self.mobility.alt_max_m,
              "mobility.alt_min_m", "altitude band is inverted")
        try:
            get_provider(self.crypto.scheme)
        except UnsupportedSchemeError:
            raise ConfigError(f"crypto.scheme: no provider registered for "
                              f"{self.crypto.scheme!r}") from None
        for name, value in vars(self.crypto).items():
            if name != "scheme":
                check(value >= 0, f"crypto.{name}", "must be non-negative")
        check(0 < self.trust.smoothing < 1, "trust.lambda",
              "must be strictly inside (0,1)")
        check(0 <= self.trust.initial_score <= 1, "trust.initial_score",
              "must be in [0,1]")
        weight_sum = (self.trust.weight_valid + self.trust.weight_timely
                      + self.trust.weight_uptime)
        check(abs(weight_sum - 1.0) < 1e-9, "trust.weight_valid",
              "behavior weights must sum to 1")
        check(self.consensus.window_s > 0, "consensus.window_s", "must be positive")
        check(self.consensus.block_interval_s > 0, "consensus.block_interval_s",
              "must be positive")
        check(0 < self.consensus.committee_size <= self.network.edge_count,
              "consensus.committee_size",
              "must be in [1, network.edge_count]")
        check(not (self.consensus.alpha == self.consensus.beta
                   == self.consensus.gamma == 0), "consensus.alpha",
              "utility weights must not all be zero")
        check(min(self.consensus.alpha, self.consensus.beta,
                  self.consensus.gamma) >= 0, "consensus.alpha",
              "utility weights must be non-negative")
        check(self.consensus.tau_max_s > 0, "consensus.tau_max_s",
              "must be positive")
        check(self.consensus.max_block_bytes > 0, "consensus.max_block_bytes",
              "must be positive")
        check(self.consensus.max_block_txs >= 0, "consensus.max_block_txs",
              "must be non-negative (0 = unlimited)")
        check(self.ledger.codec in CODECS, "ledger.codec",
              f"must be one of {CODECS}")
        check(0 <= self.ledger.replication < self.network.edge_count,
              "ledger.replication", "must be in [0, edge_count)")
        check(0 <= self.ledger.compression_headroom < 1,
              "ledger.compression_headroom", "must be in [0,1)")
        check(self.energy.eps0_j >= 0, "energy.eps0_j", "must be non-negative")
        check(self.energy.eps1_j_per_m2 >= 0, "energy.eps1_j_per_m2",
              "must be non-negative")
        check(self.energy.uav_budget_j > 0, "energy.uav_budget_j",
              "must be positive")
        check(self.workload.arrival_rate_tps > 0, "workload.arrival_rate_tps",
              "must be positive")
        check(0 < self.workload.payload_min_bytes
              <= self.workload.payload_max_bytes,
              "workload.payload_min_bytes", "need 0 < min <= max")
        check(0 <= self.workload.payload_random_fraction <= 1,
              "workload.payload_random_fraction", "must be in [0,1]")
        check(0 <= self.workload.compromised_fraction < 1,
              "workload.compromised_fraction", "must be in [0,1)")
        check(0 <= self.workload.malicious_edge_fraction < 1,
              "workload.malicious_edge_fraction", "must be in [0,1)")
        names = self.behavior_list()
        for name in names:
            try:
                Behavior(name)
            except ValueError:
                raise ConfigError(
                    f"workload.behaviors: unknown behavior {name!r}") from None
        check(not names or set(names) != {Behavior.VOTE_REJECT.value}
              or self.workload.compromised_fraction * self.network.uav_count < 1,
              "workload.behaviors", "compromised UAVs need a UAV-side behavior")


# trust.lambda is the documented key; "lambda" is reserved in Python.
_RENAMED = {("trust", "smoothing"): "trust.lambda"}

# Every scenario key, in declaration order, mapped to its (section, field).
# No other name is a key: not a section's methods or attributes, and not
# the field name behind a renamed key.
_FIELDS = {
    _RENAMED.get((sec.name, leaf.name), f"{sec.name}.{leaf.name}"):
        (sec.name, leaf.name)
    for sec in dataclasses.fields(ScenarioConfig)
    for leaf in dataclasses.fields(sec.default_factory)}  # type: ignore[arg-type]


def known_keys() -> list[str]:
    return list(_FIELDS)


def _coerce(key: str, current: Any, raw: str) -> Any:
    text = raw.strip().strip('"')
    try:
        if isinstance(current, int):
            return int(text, 0)
        if isinstance(current, float):
            return float(text)
        return text
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r} as "
                          f"{type(current).__name__}") from None


def apply_override(config: ScenarioConfig, key: str, value: Any) -> None:
    """Set one dotted key; value may be a string (parsed) or already typed."""
    try:
        section_name, field_name = _FIELDS[key]
    except KeyError:
        raise ConfigError(f"unknown configuration key {key!r}") from None
    section = getattr(config, section_name)
    current = getattr(section, field_name)
    if isinstance(value, str):
        value = _coerce(key, current, value)
    elif isinstance(current, float) and isinstance(value, int):
        value = float(value)
    elif type(value) is not type(current):
        raise ConfigError(f"{key}: expected {type(current).__name__}, "
                          f"got {type(value).__name__}")
    setattr(section, field_name, value)


def load_config(path, overrides: dict[str, Any] | None = None) -> ScenarioConfig:
    config = ScenarioConfig()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    set_on: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in set_on:
            raise ConfigError(f"{path}:{lineno}: {key} is already set on "
                              f"line {set_on[key]}")
        apply_override(config, key, raw.strip())
        set_on[key] = lineno
    for key, value in (overrides or {}).items():
        apply_override(config, key, value)
    config.validate()
    return config


def config_to_flat_dict(config: ScenarioConfig) -> dict[str, Any]:
    return {key: getattr(getattr(config, section), name)
            for key, (section, name) in _FIELDS.items()}


def default_scenario_path() -> Path:
    """The bundled default scenario file."""
    return Path(__file__).parent / "data" / "default.scenario"

"""Scenario configuration: typed sections, flat dotted-key text format.

The on-disk format is one ``section.field = value`` assignment per line,
``#`` comments, blank lines allowed. Unknown keys and a key set twice are
hard errors so a typo or a pasted-in duplicate cannot silently corrupt an
experiment. Each numeric key's legal values are one ``Interval``, stated in
its field's metadata next to its default.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .crypto import UnsupportedSchemeError, get_provider
from .ledger import CODECS
from .workload import BACKDATE_TAUS, Behavior


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Interval:
    """The legal values of one numeric key; each infinite end is open, so
    NaN and +-inf are outside every interval."""

    low: float
    high: float
    low_open: bool = False
    high_open: bool = False

    def __contains__(self, value) -> bool:
        above = self.low < value if self.low_open else self.low <= value
        below = value < self.high if self.high_open else value <= self.high
        return above and below

    def __str__(self) -> str:
        left, right = "(" if self.low_open else "[", ")" if self.high_open else "]"
        return f"{left}{self.low},{self.high}{right}"


POSITIVE = Interval(0, math.inf, low_open=True, high_open=True)
NON_NEGATIVE = Interval(0, math.inf, high_open=True)
UNIT = Interval(0, 1)
OPEN_UNIT = Interval(0, 1, low_open=True, high_open=True)
FRACTION = Interval(0, 1, high_open=True)
I64 = Interval(-2**63, 2**63, high_open=True)
BYTES = Interval(0, 2**32 - 1, low_open=True)   # a u32 length on the wire
# Committee sampling costs committee_size * edge_count steps per window.
EDGES = Interval(0, 1000, low_open=True)
# Noise past the speed of light is not a UAV's, and it keeps a step finite.
SPEED = Interval(0, 299_792_458.0)
PAYLOAD = Interval(0, 2**20, low_open=True)

# The most events one periodic or arrival stream may run in a scenario.
MAX_STREAM_EVENTS = 10**7
# The most UAV-steps (network.uav_count x mobility steps) a scenario may run.
# A UAV-step costs about 5 us at 10,000 UAVs, so this is about 1.4 h of
# stepping; a day of 10,000 UAVs at the default 1 s step fits.
MAX_UAV_STEPS = 10**9
# The most bytes a scenario's arrivals may hold. Each keeps its row to the
# end of the run and a pooled or committed tx its payload: peak RSS grew by
# about 1 KB an arrival plus its payload (100 UAVs, 600 tx/s, 120 s). 4 GiB
# admits 960 s at 600 tx/s (1.8e9 B), not 10^7 arrivals (3.1e10 B).
ARRIVAL_BYTES = 1024
MAX_ARRIVAL_BYTES = 4 * 2**30
# The event loop also runs what falls up to 1 ns past sim.duration_s, so a
# periodic time summed with rounding error still runs at the end.
EVENT_SLACK_S = 1e-9
# The wire holds a time as i64 microseconds (ledger.time_to_us).
MAX_WIRE_TIME_S = 2**63 / 1e6


def bounded(default, bound: Interval):
    """A numeric key's field: its default and the interval it must lie in."""
    return field(default=default, metadata={"bound": bound})


@dataclass
class SimSection:
    duration_s: float = bounded(600.0, NON_NEGATIVE)
    master_seed: int = bounded(1, I64)   # the genesis block stores an i64
    mobility_step_s: float = bounded(1.0, POSITIVE)


@dataclass
class NetworkSection:
    # Set-up holds about 1.3 KB per UAV before the first event runs.
    uav_count: int = bounded(100, Interval(0, 10**5, low_open=True))
    edge_count: int = bounded(10, EDGES)
    # The area in m^2, and so the side the sites are drawn on, stays finite.
    area_km2: float = bounded(10.0, Interval(0, 1e302, low_open=True))
    range_m: float = bounded(1200.0, POSITIVE)
    bandwidth_bps: float = bounded(1e6, POSITIVE)    # UAV air links
    backhaul_bps: float = bounded(1e7, POSITIVE)     # edge/base infrastructure links
    jitter_mean_s: float = bounded(0.005, POSITIVE)
    contention_per_uav: float = bounded(0.08, NON_NEGATIVE)  # queueing per UAV in cell
    prop_speed_mps: float = bounded(3e8, POSITIVE)
    vote_size_bytes: int = bounded(256, BYTES)

    def jitter_mean(self, contenders: int) -> float:
        """Mean queueing jitter at a receiver with `contenders` UAVs in range."""
        return self.jitter_mean_s * (1.0 + self.contention_per_uav * contenders)


@dataclass
class MobilitySection:
    memory: float = bounded(0.85, UNIT)   # autocorrelation of successive velocities
    mean_speed_mps: float = bounded(8.0, NON_NEGATIVE)
    speed_sigma: float = bounded(1.5, SPEED)
    # radians; a wrapped normal with sigma 2*pi is already uniform
    heading_sigma: float = bounded(0.35, Interval(0, 2 * math.pi))
    vert_sigma: float = bounded(0.3, SPEED)
    alt_min_m: float = bounded(50.0, NON_NEGATIVE)
    alt_max_m: float = bounded(150.0, NON_NEGATIVE)


@dataclass
class CryptoSection:
    scheme: str = "mock-sig"
    sign_j: float = bounded(0.02, NON_NEGATIVE)
    verify_j: float = bounded(0.01, NON_NEGATIVE)
    encaps_j: float = bounded(0.01, NON_NEGATIVE)
    decaps_j: float = bounded(0.01, NON_NEGATIVE)
    verify_s: float = bounded(0.001, NON_NEGATIVE)


@dataclass
class TrustSection:
    smoothing: float = bounded(0.8, OPEN_UNIT)   # dotted key: trust.lambda
    initial_score: float = bounded(0.5, UNIT)
    weight_valid: float = bounded(0.5, UNIT)
    weight_timely: float = bounded(0.3, UNIT)
    weight_uptime: float = bounded(0.2, UNIT)


@dataclass
class ConsensusSection:
    window_s: float = bounded(10.0, POSITIVE)
    block_interval_s: float = bounded(15.0, POSITIVE)
    committee_size: int = bounded(5, EDGES)
    alpha: float = bounded(1.0, NON_NEGATIVE)
    beta: float = bounded(2.0, NON_NEGATIVE)
    gamma: float = bounded(0.1, NON_NEGATIVE)
    tau_max_s: float = bounded(120.0, POSITIVE)
    max_block_bytes: int = bounded(2 * 1024 * 1024, BYTES)  # compressed block
    max_block_txs: int = bounded(0, Interval(0, 2**32 - 1))   # 0 = unlimited


@dataclass
class LedgerSection:
    codec: str = "zlib"
    replication: int = bounded(2, Interval(0, 999))
    compression_headroom: float = bounded(0.30, FRACTION)  # assumed for the raw budget


@dataclass
class EnergySection:
    eps0_j: float = bounded(0.05, NON_NEGATIVE)   # fixed per-transmission cost
    eps1_j_per_m2: float = bounded(1e-7, NON_NEGATIVE)
    uav_budget_j: float = bounded(1000.0, POSITIVE)

    def tx_energy(self, distance_m: float) -> float:
        """Transmission energy eps0 + eps1 * distance**2."""
        return self.eps0_j + self.eps1_j_per_m2 * distance_m * distance_m


@dataclass
class WorkloadSection:
    arrival_rate_tps: float = bounded(6.0, POSITIVE)   # network-wide, not per UAV
    # A payload is built whole in memory: 1 MiB is far past a telemetry
    # record and keeps each arrival's allocation small.
    payload_min_bytes: int = bounded(512, PAYLOAD)
    payload_max_bytes: int = bounded(2048, PAYLOAD)
    payload_random_fraction: float = bounded(0.56, UNIT)  # incompressible share
    compromised_fraction: float = bounded(0.15, FRACTION)
    malicious_edge_fraction: float = bounded(0.0, FRACTION)
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
        """Check each numeric key against its bound, then the rules that
        span keys or are not numeric; every error starts with a dotted key."""
        def check(ok: bool, key: str, message: str) -> None:
            if not ok:
                raise ConfigError(f"{key}: {message}")

        for key, (section, name, bound) in _FIELDS.items():
            value = getattr(getattr(self, section), name)
            if bound is not None and value not in bound:
                raise ConfigError(f"{key}: {value!r} is outside {bound}")
        sim, net, mob, tr = self.sim, self.network, self.mobility, self.trust
        cons, led, work = self.consensus, self.ledger, self.workload
        check(mob.alt_min_m <= mob.alt_max_m, "mobility.alt_min_m",
              "altitude band is inverted")
        check(cons.committee_size <= net.edge_count, "consensus.committee_size",
              "must not exceed network.edge_count")
        check(led.replication < net.edge_count, "ledger.replication",
              "must be below network.edge_count")
        check(abs(tr.weight_valid + tr.weight_timely + tr.weight_uptime - 1.0)
              < 1e-9, "trust.weight_valid", "behavior weights must sum to 1")
        check(bool(cons.alpha or cons.beta or cons.gamma), "consensus.alpha",
              "utility weights must not all be zero")
        check(work.payload_min_bytes <= work.payload_max_bytes,
              "workload.payload_min_bytes", "must not exceed payload_max_bytes")
        span = sim.duration_s + EVENT_SLACK_S   # the time the loop runs
        arrivals = span * work.arrival_rate_tps
        for key, events in (
                ("sim.mobility_step_s", span / sim.mobility_step_s),
                ("consensus.window_s", span / cons.window_s),
                ("consensus.block_interval_s", span / cons.block_interval_s),
                ("workload.arrival_rate_tps", arrivals)):
            check(events <= MAX_STREAM_EVENTS, key, f"{events:g} events up to "
                  f"1 ns past sim.duration_s; at most {MAX_STREAM_EVENTS:g} may run")
        steps = math.ceil(span / sim.mobility_step_s)
        check(net.uav_count * steps <= MAX_UAV_STEPS, "network.uav_count",
              f"{net.uav_count} UAVs x {steps} mobility steps (sim.duration_s "
              f"/ sim.mobility_step_s) is {net.uav_count * steps:g} UAV-steps; "
              f"at most {MAX_UAV_STEPS:g} may run")
        held = arrivals * (ARRIVAL_BYTES + work.payload_max_bytes)
        check(held <= MAX_ARRIVAL_BYTES, "workload.arrival_rate_tps",
              f"{arrivals:g} arrivals (sim.duration_s x rate) x ({ARRIVAL_BYTES} "
              f"B + workload.payload_max_bytes) is {held:g} B; at most "
              f"{MAX_ARRIVAL_BYTES:g} B may be held")
        # Every time on the wire must fit its i64 microseconds. A delay whose
        # mean is longer could never arrive, and the bound keeps draws finite.
        for key, what, seconds in (
                ("sim.duration_s", "the last event time", sim.duration_s),
                ("consensus.tau_max_s", f"the delay-injection back-dating, "
                 f"{BACKDATE_TAUS:g} x tau_max_s,", BACKDATE_TAUS * cons.tau_max_s),
                ("network.jitter_mean_s", "the jitter mean at full contention, "
                 "jitter_mean_s x (1 + network.contention_per_uav x "
                 "network.uav_count),", net.jitter_mean(net.uav_count))):
            check(seconds < MAX_WIRE_TIME_S, key, f"{what} is {seconds:g} s, "
                  f"past the {MAX_WIRE_TIME_S:g} s that i64 microseconds hold")
        try:
            get_provider(self.crypto.scheme)
        except UnsupportedSchemeError as exc:
            raise ConfigError(f"crypto.scheme: {exc}") from None
        if led.codec not in CODECS:
            raise ConfigError(f"ledger.codec: must be one of {CODECS}")
        names = set(self.behavior_list())
        unknown = sorted(names - {b.value for b in Behavior})
        if unknown:
            raise ConfigError(f"workload.behaviors: unknown behavior {unknown[0]!r}")
        compromised = math.floor(work.compromised_fraction * net.uav_count)
        check(bool(names) or not compromised, "workload.behaviors",
              f"is empty, but {compromised} UAVs are compromised "
              "(workload.compromised_fraction x network.uav_count)")


# trust.lambda is the documented key; "lambda" is reserved in Python.
_RENAMED = {("trust", "smoothing"): "trust.lambda"}

# Every scenario key, in declaration order, mapped to its (section, field,
# bound); the bound is None for a string key. No other name is a key: not a
# section's methods or attributes, and not the field name behind a renamed
# key.
_FIELDS = {
    _RENAMED.get((sec.name, leaf.name), f"{sec.name}.{leaf.name}"):
        (sec.name, leaf.name, leaf.metadata.get("bound"))
    for sec in dataclasses.fields(ScenarioConfig)
    for leaf in dataclasses.fields(sec.default_factory)}  # type: ignore[arg-type]


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
        section_name, field_name, _ = _FIELDS[key]
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
    """Read a scenario file (the defaults when `path` is None), apply the
    overrides, validate once."""
    config = ScenarioConfig()
    text = ""
    if path is not None:
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
            for key, (section, name, _) in _FIELDS.items()}

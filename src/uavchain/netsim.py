"""Mobility, time-varying connectivity, link latency, and the energy model.

UAVs follow a Gauss-Markov process on speed, heading and vertical speed with
reflective area boundaries and a clamped altitude band. Links exist between
any alive pair within transmission range; edge servers and the base station
additionally share an always-on wired backhaul. Transmission energy follows

    eps_tx = eps0 + eps1 * distance**2

(``EnergySection.tx_energy``) and round energy is the plain sum of member
transmit and compute costs. Every function takes the scenario's config
section for its parameters.

``UavState`` is kinematics only: a UAV's energy lives in its
``EnergyAccount`` and its liveness in the graph. Accounts are UAV-only; the
mains-powered infrastructure tier keeps one running total in the metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from random import Random
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .config import EnergySection, MobilitySection, NetworkSection

INFRA_KINDS = ("edge", "base")


@dataclass
class UavState:
    node_id: str
    x: float
    y: float
    z: float
    speed: float
    heading: float
    mean_heading: float
    vz: float = 0.0

    def position(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


def _reflect(value: float, low: float, high: float) -> tuple[float, bool]:
    """Fold a coordinate back into [low, high]; flag whether it bounced."""
    bounced = False
    # Repeated folding handles steps longer than the interval.
    while value < low or value > high:
        bounced = True
        if value < low:
            value = 2 * low - value
        else:
            value = 2 * high - value
    return value, bounced


def step_mobility(state: UavState, dt: float, mobility: MobilitySection,
                  area_side: float, rng: Random) -> UavState:
    """One Gauss-Markov step with boundary reflection.

    Pure: `state` is left untouched and the step returns a new UavState.
    Draws speed, heading and vertical-speed noise from `rng` in that order.
    """
    if dt <= 0.0:
        raise ValueError("mobility step must be positive")
    eta = mobility.memory
    root = math.sqrt(max(0.0, 1.0 - eta * eta))
    speed = (eta * state.speed + (1.0 - eta) * mobility.mean_speed_mps
             + root * rng.gauss(0.0, mobility.speed_sigma))
    heading = (eta * state.heading + (1.0 - eta) * state.mean_heading
               + root * rng.gauss(0.0, mobility.heading_sigma))
    vz = eta * state.vz + root * rng.gauss(0.0, mobility.vert_sigma)

    x = state.x + speed * math.cos(heading) * dt
    y = state.y + speed * math.sin(heading) * dt
    z = state.z + vz * dt

    mean_heading = state.mean_heading
    x, bounced_x = _reflect(x, 0.0, area_side)
    if bounced_x:
        heading = math.pi - heading
        mean_heading = math.pi - mean_heading
    y, bounced_y = _reflect(y, 0.0, area_side)
    if bounced_y:
        heading = -heading
        mean_heading = -mean_heading
    z, bounced_z = _reflect(z, mobility.alt_min_m, mobility.alt_max_m)
    if bounced_z:
        vz = -vz

    return UavState(node_id=state.node_id, x=x, y=y, z=z, speed=speed,
                    heading=heading, mean_heading=mean_heading, vz=vz)


class CommGraph:
    """Positions + liveness snapshot answering range and latency queries.

    Link rule: (i, j) is up iff both endpoints are alive and either their
    distance is within transmission range or both are infrastructure nodes
    (edges / base station, which share a wired backhaul). `deliver` applies
    it, once per message.

    Kind index: besides the `kinds` map, the graph keeps the edge ids and the
    UAV ids in two lists, each in insertion order, so `nearest_edge` scans
    only edges and `uav_neighbors` only UAVs instead of every node.

    Nearest-edge memo: `nearest_edge` keeps, per queried node, its answer,
    its distance and the position tuple they were computed from. An entry
    is valid while `positions[node]` is that same tuple object, so moving a
    UAV retires only its own entry; moving an edge, `set_alive` and
    `add_node` clear the memo. Positions and liveness must therefore change
    only through those three methods, never by writing the dicts.
    """

    def __init__(self, network: NetworkSection):
        self.params = network
        self.positions: dict[str, tuple[float, float, float]] = {}
        self.kinds: dict[str, str] = {}
        self.alive: dict[str, bool] = {}
        self.edge_ids: list[str] = []
        self.uav_ids: list[str] = []
        self._contention_cache: dict[str, int] = {}
        self._nearest_memo: dict[str, tuple] = {}

    def add_node(self, node_id: str, kind: str,
                 position: tuple[float, float, float], alive: bool = True) -> None:
        previous = self.kinds.get(node_id)
        self.positions[node_id] = position
        self.kinds[node_id] = kind
        self.alive[node_id] = alive
        self._contention_cache.clear()
        self._nearest_memo.clear()
        if previous is None:
            if kind == "edge":
                self.edge_ids.append(node_id)
            elif kind == "uav":
                self.uav_ids.append(node_id)
        elif previous != kind:
            # A re-added node keeps its first position in `kinds`.
            self.edge_ids = [n for n, k in self.kinds.items() if k == "edge"]
            self.uav_ids = [n for n, k in self.kinds.items() if k == "uav"]

    def move(self, node_id: str, position: tuple[float, float, float]) -> None:
        self.positions[node_id] = position
        self._contention_cache.clear()
        if self.kinds[node_id] == "edge":
            self._nearest_memo.clear()

    def set_alive(self, node_id: str, alive: bool) -> None:
        self.alive[node_id] = alive
        self._contention_cache.clear()
        self._nearest_memo.clear()

    def distance(self, a: str, b: str) -> float:
        return math.dist(self.positions[a], self.positions[b])

    def is_infra_pair(self, a: str, b: str) -> bool:
        return self.kinds[a] in INFRA_KINDS and self.kinds[b] in INFRA_KINDS

    def uav_neighbors(self, node_id: str) -> int:
        """Alive UAVs inside the node's radio range (channel contention)."""
        cached = self._contention_cache.get(node_id)
        if cached is not None:
            return cached
        positions, alive = self.positions, self.alive
        pos = positions[node_id]
        rng2 = self.params.range_m ** 2
        count = 0
        for other in self.uav_ids:
            if other == node_id or not alive[other]:
                continue
            ox, oy, oz = positions[other]
            dx, dy, dz = ox - pos[0], oy - pos[1], oz - pos[2]
            if dx * dx + dy * dy + dz * dz <= rng2:
                count += 1
        self._contention_cache[node_id] = count
        return count

    def nearest_edge(self, node_id: str, require_range: bool = False,
                     ) -> Optional[str]:
        """Closest alive edge (first-added wins a tie), or None if there is none
        or, with `require_range`, if it lies beyond the transmission range."""
        positions = self.positions
        pos = positions[node_id]
        memo = self._nearest_memo.get(node_id)
        if memo is not None and memo[2] is pos:
            best, best_d, _ = memo
        else:
            alive = self.alive
            best = None
            best_d = math.inf
            for other in self.edge_ids:
                if not alive[other]:
                    continue
                d = math.dist(pos, positions[other])
                if d < best_d:
                    best, best_d = other, d
            self._nearest_memo[node_id] = (best, best_d, pos)
        if best is not None and require_range and best_d > self.params.range_m:
            return None
        return best


def delivery_mean_delay(graph: CommGraph, size_bytes: int, src: str,
                        dst: str) -> float:
    """Closed-form mean of the delivery delay model (for verification)."""
    p = graph.params
    bandwidth = p.backhaul_bps if graph.is_infra_pair(src, dst) else p.bandwidth_bps
    jitter = p.jitter_mean_s * (1.0 + p.contention_per_uav * graph.uav_neighbors(dst))
    return graph.distance(src, dst) / p.prop_speed_mps + size_bytes * 8 / bandwidth + jitter


def deliver(size_bytes: int, src: str, dst: str, graph: CommGraph,
            rng: Random) -> Optional[float]:
    """Delay for one message, or None when the link is down (drop).

    The link is down unless it passes `CommGraph`'s link rule. Delay =
    propagation + serialization + exponential queueing jitter whose mean
    scales with the number of UAVs contending for the receiver's channel.
    """
    if not (graph.alive[src] and graph.alive[dst]):
        return None
    p = graph.params
    distance = graph.distance(src, dst)
    infra = graph.is_infra_pair(src, dst)
    if not infra and distance > p.range_m:
        return None
    bandwidth = p.backhaul_bps if infra else p.bandwidth_bps
    jitter_mean = p.jitter_mean_s * (1.0 + p.contention_per_uav
                                     * graph.uav_neighbors(dst))
    return (distance / p.prop_speed_mps
            + size_bytes * 8 / bandwidth
            + rng.expovariate(1.0 / jitter_mean))


def round_energy(energy: EnergySection, transmit_distances: list[float],
                 compute_joules: list[float]) -> float:
    """Total consensus-round energy: member transmissions plus compute."""
    return (sum(energy.tx_energy(d) for d in transmit_distances)
            + sum(compute_joules))


@dataclass
class EnergyAccount:
    """A UAV's battery: each charge draws `remaining` down from `initial`."""

    initial: float
    remaining: float = field(init=False)

    def __post_init__(self) -> None:
        self.remaining = self.initial

    @property
    def depleted(self) -> bool:
        return self.remaining <= 0.0

    def try_charge(self, amount: float) -> bool:
        """Charge if affordable; an unaffordable charge drains to zero."""
        if amount < 0.0:
            raise ValueError("negative energy charge")
        if self.remaining <= 0.0:
            return False
        if amount > self.remaining:
            self.remaining = 0.0
            return False
        self.remaining -= amount
        return True

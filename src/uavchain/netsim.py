"""Mobility, time-varying connectivity, link latency, and the energy model.

UAVs follow a Gauss-Markov process on speed, heading and vertical speed with
reflective area boundaries and a clamped altitude band. The engine applies
the link rule once, where it picks a receiver: an alive UAV uploads to its
nearest edge if ``math.dist(uav, edge) <= range_m`` (`uav_neighbors` counts
contenders by the same test), and edge servers talk over an always-on
wired backhaul. `deliver` only times a link the engine measured.
Transmission energy follows

    eps_tx = eps0 + eps1 * distance**2

(``EnergySection.tx_energy``) and round energy is the plain sum of member
transmit and compute costs. Every function takes the scenario's config
section for its parameters. `CommGraph` answers contention and nearest-edge
queries from caches bounded by how far the UAVs have moved, with the bits a
full scan would give.

``UavState`` is a UAV's velocity only: its position lives in the graph's
``positions``, beside its liveness in ``uav_ids``, and its energy in its
``EnergyAccount``. Accounts are UAV-only; the mains-powered infrastructure
tier keeps one running total in the metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from random import Random
from typing import TYPE_CHECKING, Mapping, Optional

from . import left_sum

if TYPE_CHECKING:
    from .config import EnergySection, MobilitySection, NetworkSection

Point = tuple[float, float, float]   # x, y, z in metres

# CommGraph's contention band: its half-width W and its rounding margin,
# both as fractions of network.range_m.
_SKIN = 1 / 8
_SKIN_MARGIN = 1e-6


@dataclass(slots=True)
class UavState:
    node_id: str
    speed: float
    heading: float
    mean_heading: float
    vz: float = 0.0


def _reflect(value: float, low: float, high: float) -> float:
    """Fold an out-of-bounds coordinate back into [low, high].

    A flat band folds to its one point. A step that needs up to 64 folds
    folds one at a time; a farther excursion is first reduced by the fold
    period, and an infinite one stops at the wall it crossed.
    """
    width = high - low
    if width <= 0.0:
        return low
    reach = 64 * width
    if not low - reach <= value <= high + reach:
        if math.isinf(value):
            return low if value < low else high
        value = low + math.fmod(value - low, 2 * width)
    # Repeated folding handles steps longer than the interval.
    while value < low or value > high:
        if value < low:
            value = 2 * low - value
        else:
            value = 2 * high - value
    return value


def step_mobility(states: list[UavState], positions: Mapping[str, Point],
                  dt: float, mobility: MobilitySection, area_side: float,
                  rng: Random) -> dict[str, Point]:
    """One Gauss-Markov step (dt > 0) with boundary reflection per listed state.

    Steps each listed state's velocity in place, and no other, and returns
    {UAV: new point} from the points in `positions`, which it only reads.
    Draws speed, heading and vertical-speed noise per state, in list order,
    each normal as `rng.gauss` would: a pair from two `random()` calls, the
    second kept as the spare in `rng.gauss_next`, where the next draw takes
    it. So the draws depend on `random()`, not on how `gauss` is coded.
    A coordinate is folded back, and its heading or vertical speed turned,
    only when the step leaves the area or the altitude band.
    """
    random, log, sqrt = rng.random, math.log, math.sqrt
    cos, sin, pi = math.cos, math.sin, math.pi
    two_pi = 2.0 * pi
    eta = mobility.memory
    rest = 1.0 - eta
    root = sqrt(max(0.0, 1.0 - eta * eta))
    drift = rest * mobility.mean_speed_mps
    speed_sigma, heading_sigma = mobility.speed_sigma, mobility.heading_sigma
    vert_sigma = mobility.vert_sigma
    low, high = mobility.alt_min_m, mobility.alt_max_m
    moves = {}
    spare = rng.gauss_next
    for state in states:
        # Three normals: with no spare two pairs, leaving one; else one pair.
        x2pi = random() * two_pi
        g2rad = sqrt(-2.0 * log(1.0 - random()))
        if spare is None:
            z_speed, z_heading = cos(x2pi) * g2rad, sin(x2pi) * g2rad
            x2pi = random() * two_pi
            g2rad = sqrt(-2.0 * log(1.0 - random()))
            z_vert, spare = cos(x2pi) * g2rad, sin(x2pi) * g2rad
        else:
            z_speed, z_heading, z_vert = spare, cos(x2pi) * g2rad, sin(x2pi) * g2rad
            spare = None
        # `0.0 + z * sigma` is gauss's `mu + z * sigma`, signed zeros included.
        speed = eta * state.speed + drift + root * (0.0 + z_speed * speed_sigma)
        mean_heading = state.mean_heading
        heading = (eta * state.heading + rest * mean_heading
                   + root * (0.0 + z_heading * heading_sigma))
        vz = eta * state.vz + root * (0.0 + z_vert * vert_sigma)

        px, py, pz = positions[state.node_id]
        x = px + speed * cos(heading) * dt
        y = py + speed * sin(heading) * dt
        z = pz + vz * dt

        if x < 0.0 or x > area_side:
            x = _reflect(x, 0.0, area_side)
            heading = pi - heading
            mean_heading = pi - mean_heading
        if y < 0.0 or y > area_side:
            y = _reflect(y, 0.0, area_side)
            heading = -heading
            mean_heading = -mean_heading
        if z < low or z > high:
            z = _reflect(z, low, high)
            vz = -vz

        moves[state.node_id] = (x, y, z)
        state.speed, state.heading, state.mean_heading = speed, heading, mean_heading
        state.vz = vz
    rng.gauss_next = spare
    return moves


class CommGraph:
    """Positions answering range and contention queries.

    Built once from the edge sites and the UAVs' starting positions, each
    mapping's order kept in `edge_ids` and `uav_ids`. A UAV's point lives
    only in `positions`, beside its liveness in `uav_ids`. Edges never move
    or die; `move` sets UAV points (a mobility step at once) and `remove_uav`
    takes a dead UAV out, leaving its last point. The base station is no
    node. The link rule lives in the engine, which sends an upload only to
    a nearest edge in range (the range `uav_neighbors` counts contenders
    in) and committee messages over the edges' backhaul.

    Caches. Each answer is kept until the next `move` or `remove_uav`, so
    positions and liveness must change only through those two methods. Past
    a move, two skin caches (the neighbour lists of particle codes; L.
    Verlet, Phys. Rev. 159, 98, 1967) give the answer a full scan would,
    bit for bit, from fewer distances:
    - Contention. A full scan of `uav_neighbors` keeps how many alive UAVs
      lie within range_m - W of the site (W = range_m / 8) and which lie
      within W of its range sphere (the band). While any band is kept,
      every `move` adds its batch's largest displacement to `_travel`,
      rounded up, so no UAV has moved farther since a scan than the total
      has grown, and drops each band once that growth reaches W. Until
      then no UAV outside the band can have crossed the sphere, so the
      count is the kept inner count plus the band's UAVs the range test
      admits now. A site that has moved (a UAV queried as one) rescans.
    - Nearest edge. A full scan of `nearest_edge` keeps the node's edge,
      its gap to the second-nearest edge and the node's point. A node that
      has moved m since is within m of its old distance to every edge, so
      while 2m is below the gap its edge is still strictly nearest: the
      scan would pick it, and the answer is that edge at a fresh distance.
      A tie has gap 0, so the first-listed edge still wins it by a scan.
    Both arguments rest on edges never moving and on the triangle
    inequality, which holds for the exact points. `math.dist` rounds each
    distance within a few ulps of itself, at any coordinate scale; the
    margins (1e-6 range_m off W; 1e-9 of the second distance plus 1e-6 m
    off the gap) cover that. An infinite or NaN distance or step makes its
    bound NaN, which nothing is below, so such a query rescans. A death is
    rare and changes contention, so `remove_uav` drops both caches.
    """

    def __init__(self, network: NetworkSection, edge_sites: Mapping[str, Point],
                 uav_positions: Mapping[str, Point]):
        self.params = network
        self.edge_ids = list(edge_sites)
        self.uav_ids = list(uav_positions)   # the alive UAVs, in start order
        self._uavs = frozenset(uav_positions)   # every UAV, alive or dead
        self.positions = {**edge_sites, **uav_positions}
        self._sites = list(edge_sites.items())
        self._travel = 0.0
        self._contention_cache: dict[str, int] = {}
        self._nearest_memo: dict[str, tuple[Optional[str], float]] = {}
        # edge -> (site, travel at the scan, inner count, band UAVs)
        self._bands: dict[str, tuple[Point, float, int, list[str]]] = {}
        # node -> (edge, gap less margin, its point at the scan)
        self._gaps: dict[str, tuple[Optional[str], float, Point]] = {}

    def move(self, positions: Mapping[str, Point]) -> None:
        """Set the position of every UAV in `positions` (UAV -> point)."""
        if not positions.keys() <= self._uavs:
            raise KeyError(sorted(positions.keys() - self._uavs))
        if self._bands:   # only a kept band reads the travel total
            olds = map(self.positions.__getitem__, positions)
            steps = list(map(math.dist, olds, positions.values()))
            # max() can skip a NaN step; sum() cannot, so a NaN or infinite
            # step makes the total NaN, which ends every band.
            step = max(steps, default=0.0) if sum(steps) < math.inf else math.nan
            travel = self._travel = math.nextafter(self._travel + step, math.inf)
            skin = self.params.range_m * (_SKIN - _SKIN_MARGIN)
            self._bands = {edge: band for edge, band in self._bands.items()
                           if travel - band[1] < skin}
        self.positions.update(positions)
        self._contention_cache.clear()
        self._nearest_memo.clear()

    def remove_uav(self, uav: str) -> None:
        """Take a dead UAV out of `uav_ids`; KeyError if it is not there."""
        try:
            self.uav_ids.remove(uav)
        except ValueError:
            raise KeyError(uav) from None
        for cache in (self._contention_cache, self._nearest_memo,
                      self._bands, self._gaps):
            cache.clear()

    def distance(self, a: str, b: str) -> float:
        return math.dist(self.positions[a], self.positions[b])

    def uav_neighbors(self, edge: str) -> int:
        """Alive UAVs the link rule admits at an edge (its channel contention)."""
        count = self._contention_cache.get(edge)
        if count is not None:
            return count
        positions, dist = self.positions, math.dist
        site = positions[edge]
        range_m = self.params.range_m
        band = self._bands.get(edge)
        if band is not None and band[0] is site:
            count = band[2]
            for uav in band[3]:
                if dist(positions[uav], site) <= range_m:
                    count += 1
        else:
            inner_m = range_m - range_m * _SKIN
            outer_m = range_m + range_m * _SKIN
            inner = count = 0
            ids = []
            for uav in self.uav_ids:
                d = dist(positions[uav], site)
                if d <= inner_m:
                    inner += 1
                elif not d > outer_m:   # NaN stays in the band
                    ids.append(uav)
                    if d <= range_m:
                        count += 1
            count += inner
            self._bands[edge] = (site, self._travel, inner, ids)
        self._contention_cache[edge] = count
        return count

    def nearest_edge(self, node_id: str) -> tuple[Optional[str], float]:
        """Closest edge (first listed wins a tie) and its distance, or
        (None, inf) if no edge lies at a finite distance."""
        memo = self._nearest_memo.get(node_id)
        if memo is not None:
            return memo
        pos = self.positions[node_id]
        gap = self._gaps.get(node_id)
        if gap is not None and 2.0 * math.dist(pos, gap[2]) < gap[1]:
            best = gap[0]
            memo = (best, math.dist(pos, self.positions[best]))
        else:
            best = None
            best_d = second_d = math.inf
            for edge, site in self._sites:
                d = math.dist(pos, site)
                if d < best_d:
                    best, best_d, second_d = edge, d, best_d
                elif d < second_d:
                    second_d = d
            memo = (best, best_d)
            self._gaps[node_id] = (best, second_d - best_d
                                   - (1e-9 * second_d + 1e-6), pos)
        self._nearest_memo[node_id] = memo
        return memo


def deliver(size_bytes: int, distance_m: float, bandwidth_bps: float, edge: str,
            graph: CommGraph, rng: Random) -> float:
    """Delay of one message on a link the caller chose (`distance_m` long, at
    `bandwidth_bps`) to `edge`: propagation + serialization + exponential
    queueing jitter whose mean scales with the UAVs contending at the edge.
    The jitter is drawn as ``rng.expovariate(1.0 / mean)`` draws it, dividing
    by the rate: multiplying by the mean would round differently."""
    p = graph.params
    rate = 1.0 / p.jitter_mean(graph.uav_neighbors(edge))
    return (distance_m / p.prop_speed_mps + size_bytes * 8 / bandwidth_bps
            - math.log(1.0 - rng.random()) / rate)


def round_energy(energy: EnergySection, transmit_distances: list[float],
                 compute_joules: list[float]) -> float:
    """Total consensus-round energy: member transmissions plus compute."""
    return (left_sum(energy.tx_energy(d) for d in transmit_distances)
            + left_sum(compute_joules))


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
        """Charge `amount` >= 0 if affordable; an unaffordable one drains to 0."""
        if self.remaining <= 0.0:
            return False
        if amount > self.remaining:
            self.remaining = 0.0
            return False
        self.remaining -= amount
        return True

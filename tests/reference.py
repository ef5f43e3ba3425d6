"""Plain twins of the simulator's fast paths, for tests only.

Each twin computes its answer the plain way on every call, keeping nothing
between calls: the graph's two range queries scan, and the mobility step
draws its normals through `rng.gauss`, one state at a time. A test runs a
whole scenario once with the real code and once with the twins patched in,
and compares the outputs byte for byte. `move_some` moves a few UAVs of a
graph, whose `move` takes a point for every alive UAV.
"""

import math
from dataclasses import dataclass

from uavchain.netsim import CommGraph


def scan_nearest_edge(graph: CommGraph, node: str):
    """Uncached linear scan: the reference for `CommGraph.nearest_edge`."""
    best, best_d = None, math.inf
    for edge in graph.edge_ids:
        if graph.distance(node, edge) < best_d:
            best, best_d = edge, graph.distance(node, edge)
    return best, best_d


def scan_uav_neighbors(graph: CommGraph, edge: str) -> int:
    """Uncached scan of every alive UAV by the link rule's range test: the
    reference for `uav_neighbors`."""
    return sum(graph.distance(uav, edge) <= graph.params.range_m
               for uav in graph.uav_ids)


class ScanningGraph(CommGraph):
    """A `CommGraph` whose range queries scan on every call: no memo, no
    contention band and no nearest-edge gap."""

    def nearest_edge(self, node_id: str):
        return scan_nearest_edge(self, node_id)

    def uav_neighbors(self, edge: str) -> int:
        return scan_uav_neighbors(self, edge)


def move_some(graph: CommGraph, batch) -> None:
    """Move the alive UAVs that `batch` (UAV -> point) names by one
    `graph.move`, which gives every other alive UAV its current point;
    KeyError, and no move, if `batch` names anything but an alive UAV."""
    alive = graph.uav_ids
    if not batch.keys() <= set(alive):
        raise KeyError(sorted(batch.keys() - set(alive)))
    graph.move([batch.get(uav, graph.positions[uav]) for uav in alive])


def frozen_reflect(value, low, high, folds):
    """`netsim._reflect` before the lean step, recording each fold.

    `folds` gets one ("low" | "high", fold count) entry per bounce.
    """
    bounced = False
    count = 0
    side = "low" if value < low else "high"
    # Repeated folding handles steps longer than the interval.
    while value < low or value > high:
        bounced = True
        count += 1
        if value < low:
            value = 2 * low - value
        else:
            value = 2 * high - value
    if bounced:
        folds.append((side, count))
    return value, bounced


@dataclass
class FrozenState:
    """`netsim.UavState` while it still held the UAV's position."""
    node_id: str
    x: float
    y: float
    z: float
    speed: float
    heading: float
    mean_heading: float
    vz: float = 0.0


def frozen_step(state, dt, mobility, area_side, rng, folds):
    """`netsim.step_mobility` before the lean step: the output reference."""
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
    x, bounced_x = frozen_reflect(x, 0.0, area_side, folds["x"])
    if bounced_x:
        heading = math.pi - heading
        mean_heading = math.pi - mean_heading
    y, bounced_y = frozen_reflect(y, 0.0, area_side, folds["y"])
    if bounced_y:
        heading = -heading
        mean_heading = -mean_heading
    z, bounced_z = frozen_reflect(z, mobility.alt_min_m, mobility.alt_max_m,
                                  folds["z"])
    if bounced_z:
        vz = -vz

    return FrozenState(node_id=state.node_id, x=x, y=y, z=z, speed=speed,
                       heading=heading, mean_heading=mean_heading, vz=vz)


def gauss_step_mobility(states, positions, dt, mobility, area_side, rng):
    """`netsim.step_mobility` drawn through `rng.gauss`: `frozen_step` on
    each state in turn, its velocity written back; the new points in
    `states` order."""
    points = []
    for state in states:
        stepped = frozen_step(
            FrozenState(state.node_id, *positions[state.node_id], state.speed,
                        state.heading, state.mean_heading, state.vz),
            dt, mobility, area_side, rng, {"x": [], "y": [], "z": []})
        state.speed, state.heading = stepped.speed, stepped.heading
        state.mean_heading, state.vz = stepped.mean_heading, stepped.vz
        points.append((stepped.x, stepped.y, stepped.z))
    return points

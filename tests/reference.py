"""Plain twins of the simulator's fast paths, for tests only.

Each twin computes its answer the plain way on every call, keeping nothing
between calls. A test runs a whole scenario once with the real code and
once with the twins patched in, and compares the outputs byte for byte.
"""

import math

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

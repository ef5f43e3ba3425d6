"""Mobility statistics, connectivity rules, delivery delay, energy model."""

import math
from dataclasses import dataclass
from random import Random
from statistics import mean

import pytest

from uavchain import engine, netsim
from uavchain.config import (CryptoSection, EnergySection, MobilitySection,
                             NetworkSection, ScenarioConfig)
from uavchain.netsim import (CommGraph, EnergyAccount, UavState, _reflect,
                             deliver, round_energy, step_mobility)

from reference import scan_nearest_edge, scan_uav_neighbors

SIDE = 1e7  # huge area so trajectory tests never hit the boundary
CENTRE = {"u0": (SIDE / 2, SIDE / 2, 100.0)}


def make_state(**kwargs) -> UavState:
    defaults = dict(node_id="u0", speed=8.0, heading=0.3, mean_heading=0.3)
    defaults.update(kwargs)
    return UavState(**defaults)


def walk(states, positions, dt, params, side, rng):
    """One step of `states`, moving `positions` as `CommGraph.move` does."""
    positions.update(step_mobility(states, positions, dt, params, side, rng))


# --- mobility -----------------------------------------------------------------

def test_memory_one_is_straight_line():
    params = MobilitySection(memory=1.0, speed_sigma=5.0, heading_sigma=5.0,
                             vert_sigma=5.0, alt_min_m=0.0, alt_max_m=1e6)
    state = make_state(speed=10.0, heading=0.5)
    rng = Random(1)
    positions = dict(CENTRE)
    for _ in range(50):
        walk([state], positions, 1.0, params, SIDE, rng)
        assert state.speed == pytest.approx(10.0)
        assert state.heading == pytest.approx(0.5)


def test_memory_zero_is_uncorrelated_around_mean():
    params = MobilitySection(memory=0.0, mean_speed_mps=8.0, speed_sigma=1.5,
                             alt_min_m=0.0, alt_max_m=1e6)
    rng = Random(2)
    state, positions = make_state(), dict(CENTRE)
    speeds = []
    for _ in range(5000):
        walk([state], positions, 1.0, params, SIDE, rng)
        speeds.append(state.speed)
    assert mean(speeds) == pytest.approx(8.0, abs=0.1)
    assert _lag1_autocorr(speeds) == pytest.approx(0.0, abs=0.05)


def _lag1_autocorr(series):
    mu = mean(series)
    num = sum((a - mu) * (b - mu) for a, b in zip(series, series[1:]))
    den = sum((a - mu) ** 2 for a in series)
    return num / den


@pytest.mark.parametrize("eta", [0.3, 0.85])
def test_speed_lag1_autocorrelation_matches_memory(eta):
    params = MobilitySection(memory=eta, mean_speed_mps=8.0, speed_sigma=1.5,
                             alt_min_m=0.0, alt_max_m=1e6)
    rng = Random(3)
    state, positions = make_state(), dict(CENTRE)
    speeds = []
    for _ in range(10_000):
        walk([state], positions, 1.0, params, SIDE, rng)
        speeds.append(state.speed)
    assert _lag1_autocorr(speeds) == pytest.approx(eta, abs=0.05)


def test_reflection_keeps_uav_inside_area():
    side = 500.0
    params = MobilitySection(memory=0.85, mean_speed_mps=30.0, speed_sigma=5.0,
                             alt_min_m=50.0, alt_max_m=150.0)
    rng = Random(4)
    state, positions = make_state(), {"u0": (10.0, 490.0, 60.0)}
    for _ in range(2000):
        walk([state], positions, 1.0, params, side, rng)
        x, y, z = positions["u0"]
        assert 0.0 <= x <= side
        assert 0.0 <= y <= side
        assert 50.0 <= z <= 150.0


def test_step_mobility_steps_exactly_the_listed_states():
    states = [make_state(node_id=f"u{i}", heading=0.1 * i) for i in range(4)]
    positions = {f"u{i}": (SIDE / 2 + i, SIDE / 2, 100.0) for i in range(4)}
    start = dict(positions)
    params = MobilitySection()
    before = [_velocity(state) for state in states]
    moves = step_mobility(states[1:3], positions, 1.0, params, SIDE, Random(5))
    after = [_velocity(state) for state in states]
    assert [a == b for a, b in zip(after, before)] == [True, False, False, True]
    assert [state.node_id for state in states] == ["u0", "u1", "u2", "u3"]
    # The step only reads the points and returns the listed UAVs' new ones.
    assert positions == start
    assert list(moves) == ["u1", "u2"]
    assert all(moves[u] != start[u] for u in moves)


def _frozen_reflect(value, low, high, folds):
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
class _FrozenState:
    """`netsim.UavState` while it still held the UAV's position."""
    node_id: str
    x: float
    y: float
    z: float
    speed: float
    heading: float
    mean_heading: float
    vz: float = 0.0


def _frozen_step(state, dt, mobility, area_side, rng, folds):
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
    x, bounced_x = _frozen_reflect(x, 0.0, area_side, folds["x"])
    if bounced_x:
        heading = math.pi - heading
        mean_heading = math.pi - mean_heading
    y, bounced_y = _frozen_reflect(y, 0.0, area_side, folds["y"])
    if bounced_y:
        heading = -heading
        mean_heading = -mean_heading
    z, bounced_z = _frozen_reflect(z, mobility.alt_min_m, mobility.alt_max_m,
                                   folds["z"])
    if bounced_z:
        vz = -vz

    return _FrozenState(node_id=state.node_id, x=x, y=y, z=z, speed=speed,
                        heading=heading, mean_heading=mean_heading, vz=vz)


def _velocity(state):
    return (state.speed, state.heading, state.mean_heading, state.vz)


def _kinematics(state):
    return (state.x, state.y, state.z) + _velocity(state)


@pytest.mark.parametrize("eta", [0.0, 0.85, 1.0])
def test_step_matches_the_frozen_reference_bit_for_bit(eta):
    """A batch of states steps as the frozen per-state step applied to each
    state in list order, drawing from a same-seeded `Random`."""
    side = 300.0
    params = MobilitySection(memory=eta, mean_speed_mps=30.0, speed_sigma=20.0,
                             heading_sigma=1.0, vert_sigma=15.0,
                             alt_min_m=50.0, alt_max_m=150.0)
    for uavs in (1, 7):
        setup = Random(17)
        folds = {"x": [], "y": [], "z": []}
        names = [f"u{i}" for i in range(uavs)]
        for seed in range(20):
            frozen = [_FrozenState(name, setup.uniform(0.0, side),
                                   setup.uniform(0.0, side),
                                   setup.uniform(50.0, 150.0),
                                   setup.uniform(0.0, 60.0),
                                   setup.uniform(-math.pi, math.pi),
                                   setup.uniform(-math.pi, math.pi),
                                   setup.uniform(-20.0, 20.0))
                      for name in names]
            ours = [UavState(state.node_id, *_velocity(state))
                    for state in frozen]
            positions = {state.node_id: (state.x, state.y, state.z)
                         for state in frozen}
            rng_ours, rng_frozen = Random(seed), Random(seed)
            for _ in range(200):
                # 40 s at ~30 m/s crosses the 300 m area several times over.
                dt = setup.choice((0.5, 1.0, 7.3, 40.0))
                walk(ours, positions, dt, params, side, rng_ours)
                frozen = [_frozen_step(state, dt, params, side, rng_frozen,
                                       folds) for state in frozen]
                assert ([positions[state.node_id] + _velocity(state)
                         for state in ours]
                        == [_kinematics(state) for state in frozen])
                assert [state.node_id for state in ours] == names
            assert rng_ours.getstate() == rng_frozen.getstate()
        # The walks bounced off every wall, both ends of the altitude band,
        # and folded more than once in a single step on each axis.
        for axis in ("x", "y", "z"):
            assert {wall for wall, _ in folds[axis]} == {"low", "high"}, axis
            assert max(count for _, count in folds[axis]) > 1, axis


@pytest.mark.parametrize("uavs", [1, 2, 3])
@pytest.mark.parametrize("spare_in", [False, True], ids=["no_spare", "spare"])
def test_step_hands_the_gauss_spare_on_in_both_directions(uavs, spare_in):
    """The step takes `random.gauss`'s spare as its first normal, and an odd
    count of normals leaves one for the next `rng.gauss` to return."""
    params = MobilitySection(memory=0.85, mean_speed_mps=30.0, speed_sigma=20.0,
                             heading_sigma=1.0, vert_sigma=15.0)
    frozen = [_FrozenState(f"u{i}", 150.0 + i, 150.0, 100.0, 12.0, 0.2 * i,
                           0.1, 1.0) for i in range(uavs)]
    ours = [UavState(state.node_id, *_velocity(state)) for state in frozen]
    positions = {state.node_id: (state.x, state.y, state.z) for state in frozen}
    rng_ours, rng_frozen = Random(23), Random(23)
    if spare_in:
        assert rng_ours.gauss() == rng_frozen.gauss()
        assert rng_ours.gauss_next is not None
    folds = {"x": [], "y": [], "z": []}
    walk(ours, positions, 1.0, params, 300.0, rng_ours)
    frozen = [_frozen_step(state, 1.0, params, 300.0, rng_frozen, folds)
              for state in frozen]
    assert ([positions[state.node_id] + _velocity(state) for state in ours]
            == [_kinematics(state) for state in frozen])
    assert rng_ours.getstate() == rng_frozen.getstate()
    # 3 normals per UAV, plus the one drawn before: an odd total keeps a spare.
    assert (rng_ours.gauss_next is not None) == ((3 * uavs + spare_in) % 2 == 1)
    assert rng_ours.gauss(0.0, 1.0) == rng_frozen.gauss(0.0, 1.0)
    assert rng_ours.getstate() == rng_frozen.getstate()


BANDS = [(0.0, 300.0), (50.0, 150.0), (0.0, 3162.2776601683795), (7.5, 7.75)]


def test_reflect_folds_one_at_a_time_up_to_64_folds():
    rng = Random(29)
    counts = set()
    for low, high in BANDS:
        width = high - low
        distances = [64 * width, width, 0.0] + [
            rng.uniform(0.0, 64 * width) for _ in range(500)]
        for distance in distances:
            for value in (low - distance, high + distance):
                folds = []
                expected, _ = _frozen_reflect(value, low, high, folds)
                assert _reflect(value, low, high) == expected
                counts.update(count for _, count in folds)
    assert max(counts) >= 64


def test_reflect_reduces_a_far_excursion_by_the_fold_period():
    for low, high in BANDS:
        width = high - low
        for distance in (64.5 * width, 1000.25 * width, 12345.678 * width):
            for value in (low - distance, high + distance):
                expected, _ = _frozen_reflect(value, low, high, [])
                assert _reflect(value, low, high) == pytest.approx(
                    expected, abs=1e-9 * width * distance)


@pytest.mark.parametrize("value", [1e15, -1e15, 3e15 + 0.5, 1e300, -1e300,
                                   7.2e17, -math.inf, math.inf])
def test_reflect_ends_inside_the_band_for_any_excursion(value):
    for low, high in BANDS:
        assert low <= _reflect(value, low, high) <= high
    assert _reflect(math.inf, 0.0, 300.0) == 300.0
    assert _reflect(-math.inf, 0.0, 300.0) == 0.0


@pytest.mark.parametrize("value", [99.0, 101.0, 100.0, 1e300, -math.inf])
def test_reflect_folds_a_flat_band_to_its_one_point(value):
    assert _reflect(value, 100.0, 100.0) == 100.0


# --- connectivity --------------------------------------------------------------

def _graph() -> CommGraph:
    return CommGraph(NetworkSection(range_m=1000.0),
                     {"e0": (0.0, 400.0, 0.0), "e1": (9000.0, 0.0, 0.0)},
                     {"u0": (0.0, 0.0, 100.0), "u1": (500.0, 0.0, 100.0),
                      "u2": (5000.0, 0.0, 100.0)})


def test_deliver_uses_distance_for_radio_links(monkeypatch):
    # deliver times the length it is given, one that no two nodes of the
    # graph are apart, and measures nothing itself.
    graph = _graph()
    p = graph.params
    distance = 123_456.5
    assert distance not in {graph.distance(a, b) for a in graph.positions
                            for b in graph.positions}
    monkeypatch.setattr(graph, "distance", None)
    jitter_mean = p.jitter_mean_s * (1.0 + p.contention_per_uav
                                     * graph.uav_neighbors("e0"))
    assert deliver(100, distance, p.bandwidth_bps, "e0", graph, Random(1)) == (
        distance / p.prop_speed_mps + 800 / p.bandwidth_bps
        + Random(1).expovariate(1.0 / jitter_mean))


def test_deliver_returns_a_float_for_every_edge_and_rate():
    graph = _graph()
    graph.remove_uav("u1")
    p = graph.params
    for edge in graph.edge_ids:
        for bandwidth in (p.bandwidth_bps, p.backhaul_bps):
            for distance in (0.0, 412.3, 9000.0):
                floor = distance / p.prop_speed_mps + 800 / bandwidth
                delay = deliver(100, distance, bandwidth, edge, graph, Random(1))
                assert type(delay) is float and floor <= delay < math.inf


def test_distance_is_symmetric_bit_for_bit():
    # A round measures each proposer-member link once and times the vote
    # back over it, so both directions must measure the same float.
    rng = Random(31)

    def point():
        return tuple(rng.choice((-1.0, 1.0)) * rng.uniform(0.0, 10.0)
                     * 10.0 ** rng.choice((-3, 0, 3, 6, 150, 300))
                     for _ in range(3))

    graph = CommGraph(NetworkSection(), {f"e{i}": point() for i in range(150)},
                      {f"u{i}": point() for i in range(150)})
    nodes = list(graph.positions)
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            assert graph.distance(a, b).hex() == graph.distance(b, a).hex()


def test_dead_nodes_have_no_links():
    # A removed UAV leaves uav_ids and every edge's contention count, and
    # keeps its last position for nearest_edge and distance.
    graph = _graph()
    graph.move({"u2": (100.0, 0.0, 100.0)})
    assert graph.uav_neighbors("e0") == 3 and graph.uav_neighbors("e1") == 0
    graph.remove_uav("u1")
    assert graph.uav_ids == ["u0", "u2"]
    assert graph.uav_neighbors("e0") == 2
    assert graph.positions["u1"] == (500.0, 0.0, 100.0)
    assert graph.distance("u0", "u1") == 500.0
    edge, distance = graph.nearest_edge("u1")
    assert edge == "e0" and distance <= graph.params.range_m


@pytest.mark.parametrize("node", ["e0", "base", "u9", "u1"])
def test_remove_uav_rejects_an_edge_base_or_unknown_name_and_changes_nothing(
        node):
    graph = _graph()
    if node == "u1":  # already removed
        graph.remove_uav("u1")
    before = (list(graph.uav_ids), dict(graph.positions))
    assert graph.nearest_edge("u0")[0] == "e0"
    counts = {edge: graph.uav_neighbors(edge) for edge in graph.edge_ids}
    with pytest.raises(KeyError):
        graph.remove_uav(node)
    assert (graph.uav_ids, graph.positions) == before
    assert graph._nearest_memo and graph._contention_cache == counts
    assert graph._bands.keys() == graph._contention_cache.keys() and graph._gaps


def test_nearest_edge_and_range_gate():
    # nearest_edge returns the nearest edge with the distance it measured,
    # in range or not; the engine's range rule reads that distance.
    graph = _graph()
    range_m = graph.params.range_m
    assert graph.nearest_edge("u0") == ("e0", graph.distance("u0", "e0"))
    assert graph.nearest_edge("u0")[1] <= range_m
    assert graph.nearest_edge("u2") == ("e1", graph.distance("u2", "e1"))
    assert graph.nearest_edge("u2")[1] > range_m
    # A point at no finite distance has no edge; inf fails the range rule.
    lost = CommGraph(NetworkSection(range_m=1000.0), {"e0": (0.0, 0.0, 0.0)},
                     {"u0": (math.nan, 0.0, 100.0)})
    assert lost.nearest_edge("u0") == (None, math.inf)


def test_uav_neighbors_counts_alive_uavs_in_range():
    graph = _graph()
    assert graph.uav_neighbors("e0") == 2
    graph.remove_uav("u1")
    assert graph.uav_neighbors("e0") == 1
    graph.move({"u2": (600.0, 0.0, 100.0)})
    assert graph.uav_neighbors("e0") == 2


def test_a_uav_the_link_rule_admits_contends_at_that_edge():
    # At this point the squared distance rounds above range_m ** 2 while
    # math.dist rounds to range_m itself: one test must decide both.
    graph = CommGraph(NetworkSection(range_m=1200.0),
                      {"e0": (2675.429578129803, 332.48650246897716, 0.0)},
                      {"u0": (3483.8945966638735, 167.60542134546733,
                              871.3200002836201)})
    edge, distance = graph.nearest_edge("u0")
    assert (edge, distance) == ("e0", 1200.0)
    assert distance <= graph.params.range_m
    assert graph.uav_neighbors("e0") == 1


def test_uav_neighbors_matches_the_range_rule_on_and_near_the_range_sphere():
    rng = Random(41)
    range_m = 1200.0
    sites = {f"e{i}": (rng.uniform(0.0, 5000.0), rng.uniform(0.0, 5000.0), 0.0)
             for i in range(4)}
    uavs = {}
    for i in range(2000):
        site = sites[rng.choice(list(sites))]
        direction = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.hypot(*direction)
        reach = range_m
        for _ in range(rng.randint(0, 2)):   # on the sphere or an ulp or two off
            reach = math.nextafter(reach, rng.choice((0.0, math.inf)))
        uavs[f"u{i}"] = tuple(c + d / norm * reach
                              for c, d in zip(site, direction))
    graph = CommGraph(NetworkSection(range_m=range_m), sites, uavs)
    for uav in rng.sample(sorted(uavs), 200):
        graph.remove_uav(uav)
    on_sphere = {graph.distance(uav, edge) == range_m
                 for uav in graph.uav_ids for edge in graph.edge_ids}
    assert on_sphere == {False, True}
    for edge in graph.edge_ids:
        assert graph.uav_neighbors(edge) == scan_uav_neighbors(graph, edge)


def test_nearest_edge_tie_goes_to_first_added_edge():
    sites = {"e9": (300.0, 0.0, 0.0), "e1": (-300.0, 0.0, 0.0),
             "e5": (0.0, 300.0, 0.0)}
    origin = {"u0": (0.0, 0.0, 0.0)}
    network = NetworkSection(range_m=1000.0)
    assert CommGraph(network, sites, origin).nearest_edge("u0") == ("e9", 300.0)
    reordered = dict(reversed(sites.items()))
    assert CommGraph(network, reordered, origin).nearest_edge("u0") == ("e5", 300.0)


def test_uav_neighbors_ignores_edges_and_base():
    graph = CommGraph(NetworkSection(range_m=1000.0),
                      {"e0": (10.0, 0.0, 0.0), "e1": (30.0, 0.0, 0.0)},
                      {"u0": (0.0, 0.0, 100.0), "u1": (20.0, 0.0, 100.0)})
    assert graph.uav_neighbors("e0") == 2   # e1 in range counts for nothing
    # The base station holds a registry key but is no graph node.
    with pytest.raises(KeyError):
        graph.uav_neighbors("base")
    assert graph.uav_ids == ["u0", "u1"] and graph.edge_ids == ["e0", "e1"]


def test_nearest_edge_memo_follows_every_change():
    graph = _graph()

    def check(expected):
        assert graph.nearest_edge("u1")[0] == expected
        assert scan_nearest_edge(graph, "u1") == graph.nearest_edge("u1")

    check("e0")
    graph.move({"u1": (8000.0, 0.0, 100.0)})
    check("e1")
    graph.move({"u0": (8500.0, 0.0, 100.0), "u1": (100.0, 400.0, 100.0)})
    check("e0")
    graph.remove_uav("u2")
    check("e0")


def move_checked(graph: CommGraph, batch) -> None:
    """`graph.move(batch)`, checking that it sets every listed position,
    clears both per-move memos, keeps every nearest-edge gap, and keeps a
    contention band only while the travel total, grown by at least the
    batch's largest displacement, has grown by less than W since its scan."""
    travel = graph._travel
    steps = [math.dist(graph.positions[node], point)
             for node, point in batch.items()]
    bands, gaps = dict(graph._bands), dict(graph._gaps)
    graph.move(batch)
    assert graph._nearest_memo == {} and graph._contention_cache == {}
    assert graph._gaps == gaps
    skin = graph.params.range_m * (netsim._SKIN - netsim._SKIN_MARGIN)
    assert graph._bands == {edge: band for edge, band in bands.items()
                            if graph._travel - band[1] < skin}
    if not bands:   # nothing reads the total
        assert graph._travel == travel or math.isnan(travel)
    elif math.isnan(travel + sum(steps)):   # a NaN point ends every band
        assert math.isnan(graph._travel) and graph._bands == {}
    else:
        assert graph._travel > travel
        assert graph._travel - travel >= max(steps, default=0.0)
    assert all(graph.positions[node] == point for node, point in batch.items())


def test_a_batch_move_sets_every_position_and_rejects_an_unknown_node():
    graph = _graph()
    for node in graph.positions:
        graph.nearest_edge(node)
    assert graph.uav_neighbors("e0") == 2 and graph.uav_neighbors("e1") == 0
    move_checked(graph, {"u0": (5000.0, 10.0, 100.0), "u1": (9000.0, 10.0, 100.0)})
    assert graph.uav_neighbors("e0") == 0
    assert graph.uav_neighbors("e1") == 1  # u1 is now the one in range
    assert graph.nearest_edge("u1")[0] == "e1"
    before = dict(graph.positions)
    with pytest.raises(KeyError):
        graph.move({"u0": (1.0, 1.0, 1.0), "u9": (2.0, 2.0, 2.0)})
    assert graph.positions == before


@pytest.mark.parametrize("node", ["e0", "base", "u9"])
def test_move_rejects_an_edge_or_an_unknown_node_and_changes_nothing(node):
    graph = _graph()
    assert graph.nearest_edge("u0")[0] == "e0"
    before = dict(graph.positions)
    with pytest.raises(KeyError):
        graph.move({"u0": (9000.0, 1.0, 100.0), node: (1.0, 1.0, 0.0)})
    assert graph.positions == before
    assert graph.nearest_edge("u0")[0] == "e0"


def _random_graph(rng: Random, uavs: list[str], edges: list[str]):
    def spot(z):
        return (rng.uniform(0.0, 5000.0), rng.uniform(0.0, 5000.0), z)

    graph = CommGraph(NetworkSection(range_m=1500.0),
                      {edge: spot(0.0) for edge in edges},
                      {uav: spot(100.0) for uav in uavs})
    return graph, spot


def test_nearest_edge_memo_matches_a_scan_along_a_random_walk():
    rng = Random(11)
    uavs = [f"u{i}" for i in range(12)]
    graph, spot = _random_graph(rng, uavs, [f"e{i}" for i in range(5)])
    in_range = set()
    for _ in range(500):
        roll = rng.random()
        if roll < 0.7:
            move_checked(graph, {uav: spot(100.0) for uav in
                                 rng.sample(uavs, rng.randint(1, len(uavs)))})
        elif roll < 0.8:
            uav = rng.choice(uavs)
            move_checked(graph, {uav: graph.positions[uav]})
        elif graph.uav_ids:
            graph.remove_uav(rng.choice(graph.uav_ids))
        for uav in uavs:
            edge, distance = graph.nearest_edge(uav)
            assert (edge, distance) == scan_nearest_edge(graph, uav)
            # The memo holds the link's length bit for bit, as the engine
            # reads it for the range rule, the energy and the delay.
            assert distance.hex() == graph.distance(uav, edge).hex()
            in_range.add(distance <= graph.params.range_m)
    assert in_range == {False, True}


def test_contention_and_memo_match_a_scan_along_a_random_walk():
    rng = Random(23)
    uavs = [f"u{i}" for i in range(10)]
    edges = [f"e{i}" for i in range(4)]
    graph, spot = _random_graph(rng, uavs, edges)
    seen_dead_uav = False
    for step in range(600):
        roll = rng.random()
        if roll < 0.9 or not graph.uav_ids:
            # The alive UAVs, as a mobility step moves them, or any subset.
            moved = list(graph.uav_ids) if roll < 0.45 else rng.sample(
                uavs, rng.randint(1, len(uavs)))
            if moved:
                move_checked(graph, {uav: spot(100.0) for uav in moved})
        else:
            graph.remove_uav(rng.choice(graph.uav_ids))
        # Query a rotating subset of edges twice, so that some answers come
        # from the cache and some are computed after a change.
        for edge in edges[step % 2::2] * 2:
            assert graph.uav_neighbors(edge) == scan_uav_neighbors(graph, edge)
        for node in edges + uavs[step % 3::3]:
            seen_dead_uav |= node in uavs and node not in graph.uav_ids
            assert graph.nearest_edge(node) == scan_nearest_edge(graph, node)
    assert seen_dead_uav


def _skin_graph(rng: Random, scale: float):
    """Edges e0 and e1 mirror each other, so a point on their bisector is at
    bit-equal distances from both (`scale` is a power of two); 120 UAVs on
    or an ulp or two off a range sphere and 40 on that bisector."""
    range_m = 1200.0 * scale
    sites = {edge: tuple(c * scale for c in point) for edge, point in (
        ("e0", (1000.0, 2000.0, 0.0)), ("e1", (3000.0, 2000.0, 0.0)),
        ("e2", (4200.0, 5200.0, 0.0)), ("e3", (300.0, 5600.0, 0.0)))}
    uavs = {}
    for i in range(120):
        site = sites[rng.choice(list(sites))]
        direction = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.hypot(*direction)
        reach = range_m
        for _ in range(rng.randint(0, 2)):
            reach = math.nextafter(reach, rng.choice((0.0, math.inf)))
        uavs[f"u{i}"] = tuple(c + d / norm * reach
                              for c, d in zip(site, direction))
    for i in range(120, 160):
        uavs[f"u{i}"] = (2000.0 * scale, rng.uniform(1500.0, 2500.0) * scale,
                         rng.uniform(0.0, 300.0) * scale)
    return CommGraph(NetworkSection(range_m=range_m), sites, uavs)


@pytest.mark.parametrize("scale", [2.0 ** -10, 1.0, 2.0 ** 20, 2.0 ** 500],
                         ids=["2**-10", "1", "2**20", "2**500"])
def test_skin_caches_match_a_scan_along_small_steps(scale):
    # Steps well under the band's half-width W = range_m / 8, from points on
    # and an ulp off the range spheres and on a bisector, so that both
    # caches are reused across moves and each reuse is checked against the
    # scans, at every coordinate scale up to the largest area.
    rng = Random(43)
    graph = _skin_graph(rng, scale)
    uavs, edges = list(graph.uav_ids), graph.edge_ids
    bisector = {uav for uav in uavs if int(uav[1:]) >= 120}
    reach = graph.params.range_m / 8 / 40   # per coordinate
    seen = {"band reused": 0, "band rescanned": 0, "gap reused": 0,
            "gap rescanned": 0, "tie": 0, "crossed": 0}
    inside = {}
    for step in range(120):
        if step % 40 == 39:
            graph.remove_uav(rng.choice(graph.uav_ids))
            assert graph._bands == {} and graph._gaps == {}
        elif step:
            batch = {}
            for uav in graph.uav_ids:
                x, y, z = graph.positions[uav]
                dx, dy, dz = (rng.uniform(-reach, reach) for _ in range(3))
                # Half the steps slide the bisector UAVs along it.
                if uav in bisector and step % 2:
                    dx = 0.0
                batch[uav] = (x + dx, y + dy, z + dz)
            move_checked(graph, batch)
        bands, gaps = dict(graph._bands), dict(graph._gaps)
        # A UAV's own point as a site moves with it: never reused across it.
        for site in edges * 2 + uavs[step % 7::40]:
            assert graph.uav_neighbors(site) == scan_uav_neighbors(graph, site)
        for node in uavs + edges:
            edge, distance = graph.nearest_edge(node)
            assert (edge, distance) == scan_nearest_edge(graph, node)
            assert distance.hex() == graph.distance(node, edge).hex()
        if step % 40:   # a move, not a death, came before these queries
            for edge in edges:
                seen["band reused" if graph._bands[edge] is bands.get(edge)
                     else "band rescanned"] += 1
            for node in uavs + edges:
                seen["gap reused" if graph._gaps[node] is gaps.get(node)
                     else "gap rescanned"] += 1
        for uav in graph.uav_ids:
            now = graph.distance(uav, "e0") <= graph.params.range_m
            seen["crossed"] += inside.get(uav, now) != now
            inside[uav] = now
            seen["tie"] += graph.distance(uav, "e0") == graph.distance(uav, "e1")
    assert all(seen.values()), seen


def test_the_margins_cover_rounding_where_reuse_ends():
    # Two cases found by search, each at the last movement its cache could
    # tolerate in exact arithmetic, where rounding breaks the bound: without
    # the margins, both caches would answer wrongly.
    # 2m (1973.091070159793) is under the gap (1973.0910701597932), and yet
    # u0 ends nearer e1.
    graph = CommGraph(
        NetworkSection(range_m=1200.0),
        {"e0": (3248.460746506206, 2903.304131769463, 57.90328511237508),
         "e1": (2734.9544604762277, 1253.4614401275262, 3358.2146195204964)},
        {"u0": (3127.696599871345, 2515.3013942016723, 834.055968676385)})
    assert graph.nearest_edge("u0")[0] == "e0"
    graph.move({"u0": (2991.707603491217, 2078.382785948495, 1708.058952316436)})
    assert graph.nearest_edge("u0") == scan_nearest_edge(graph, "u0")
    assert graph.nearest_edge("u0")[0] == "e1"
    # u0 starts 1050 m (range_m - W) from e0 and travels 149.99999999999997 m,
    # under W = 150 m, and yet ends just outside the range.
    graph = CommGraph(
        NetworkSection(range_m=1200.0),
        {"e0": (1870.9186739092254, 1935.1414017099767, 0.0)},
        {"u0": (966.427738170153, 1896.5319939157562, -531.8885793055131)})
    assert graph.uav_neighbors("e0") == 1
    graph.move({"u0": (837.2147473502854, 1891.0163642308682, -607.8726620634432)})
    assert graph.uav_neighbors("e0") == 0 == scan_uav_neighbors(graph, "e0")


def test_a_uav_queried_as_a_site_moves_its_band_with_it():
    # Each UAV moves about 100 m, under W = 150 m, but apart from each other
    # they move 200.5 m: a band kept at u0's old point would still count u1.
    graph = CommGraph(NetworkSection(range_m=1200.0), {"e0": (0.0, 5000.0, 0.0)},
                      {"u0": (0.0, 0.0, 0.0), "u1": (1000.0, 0.0, 0.0)})
    assert graph.uav_neighbors("u0") == 2
    move_checked(graph, {"u0": (-100.0, 0.0, 0.0), "u1": (1100.5, 0.0, 0.0)})
    assert graph.uav_neighbors("u0") == 1 == scan_uav_neighbors(graph, "u0")


def test_a_huge_travel_total_still_grows_with_each_small_move():
    # Once the total is 1e20 m, a 501 m move rounds away in the sum; the
    # total is rounded up instead, so it grows past the band and e0 rescans.
    graph = CommGraph(NetworkSection(range_m=1000.0), {"e0": (0.0, 0.0, 0.0)},
                      {"u0": (0.0, 0.0, 0.0), "u1": (500.0, 0.0, 0.0)})
    assert graph.uav_neighbors("e0") == 2   # a band, so moves add travel
    move_checked(graph, {"u0": (1e20, 0.0, 0.0)})
    assert graph.uav_neighbors("e0") == 1   # u1, deep inside the range
    assert 1e20 + 501.0 == 1e20
    move_checked(graph, {"u1": (1001.0, 0.0, 0.0)})
    assert graph.uav_neighbors("e0") == 0 == scan_uav_neighbors(graph, "e0")


def test_a_nan_point_ends_band_reuse():
    # max() would skip the NaN step of u1 behind u0's 1 m step.
    graph = CommGraph(NetworkSection(range_m=1000.0),
                      {"e0": (0.0, 0.0, 0.0), "e1": (5000.0, 0.0, 0.0)},
                      {"u0": (100.0, 0.0, 0.0), "u1": (200.0, 0.0, 0.0)})
    assert [graph.uav_neighbors(e) for e in graph.edge_ids] == [2, 0]
    assert graph.nearest_edge("u1") == ("e0", 200.0)
    for point in [(math.nan, 0.0, 0.0), (4900.0, 0.0, 0.0), (300.0, 0.0, 0.0)]:
        move_checked(graph, {"u0": graph.positions["u0"][:2] + (1.0,),
                             "u1": point})
        for edge in graph.edge_ids:
            assert graph.uav_neighbors(edge) == scan_uav_neighbors(graph, edge)
        for uav in graph.uav_ids:
            assert graph.nearest_edge(uav) == scan_nearest_edge(graph, uav)
    assert math.isnan(graph._travel)


def test_a_range_shorter_than_a_step_rescans_every_band():
    # W = 5 m, under one step: no band survives a move, answers stay exact.
    rng = Random(47)
    graph = CommGraph(NetworkSection(range_m=40.0),
                      {"e0": (50.0, 50.0, 0.0), "e1": (90.0, 60.0, 0.0)},
                      {f"u{i}": (rng.uniform(0.0, 140.0), rng.uniform(0.0, 140.0),
                                 10.0) for i in range(60)})
    for _ in range(30):
        bands, batch = dict(graph._bands), {}
        for uav in graph.uav_ids:
            x, y, z = graph.positions[uav]
            batch[uav] = (x + rng.uniform(-6.0, 6.0), y + rng.uniform(-6.0, 6.0), z)
        move_checked(graph, batch)
        for edge in graph.edge_ids:
            assert graph.uav_neighbors(edge) == scan_uav_neighbors(graph, edge)
            assert graph._bands[edge] is not bands.get(edge)


def test_a_mobility_step_retires_the_memo_entries_of_moved_uavs():
    cfg = ScenarioConfig()
    cfg.network.uav_count = 30
    sim = engine.Simulation(cfg)
    graph = sim.graph
    for node in sim.uav_ids + sim.edge_ids:
        graph.nearest_edge(node)
        graph.uav_neighbors(node)
    before, travel = dict(graph.positions), graph._travel
    sim._handle_mobility()
    assert graph.uav_ids == sim.uav_ids
    # A step moves every alive UAV in one batch: both memos are cleared, and
    # the travel total grows by at least the farthest UAV's displacement.
    assert graph._nearest_memo == {} and graph._contention_cache == {}
    assert all(graph.positions[uav] != before[uav] for uav in sim.uav_ids)
    assert graph._travel - travel >= max(
        math.dist(before[uav], graph.positions[uav]) for uav in sim.uav_ids)
    assert "base" in sim.registry and "base" not in graph.positions


def test_deliver_mean_matches_closed_form():
    graph = _graph()
    p = graph.params
    rng = Random(6)
    size, distance = 1000, graph.distance("u0", "e0")
    samples = [deliver(size, distance, p.bandwidth_bps, "e0", graph, rng)
               for _ in range(200_000)]
    floor = distance / p.prop_speed_mps + size * 8 / p.bandwidth_bps
    expected = floor + p.jitter_mean(graph.uav_neighbors("e0"))
    assert mean(samples) == pytest.approx(expected, rel=0.02)
    assert min(samples) >= floor


def test_backhaul_serialization_uses_backhaul_bandwidth(monkeypatch):
    # The engine sends an upload at the UAVs' air rate and a round's block
    # and votes at the edges' backhaul rate.
    rates: dict[str, set] = {}
    handler = [""]

    def tagged(name):
        inner = getattr(engine.Simulation, name)

        def run(self, *args):
            handler[0] = name
            inner(self, *args)
        return run

    def recording(size, distance, bandwidth, edge, graph, rng):
        rates.setdefault(handler[0], set()).add(bandwidth)
        return deliver(size, distance, bandwidth, edge, graph, rng)

    for name in ("_handle_submit", "_handle_round"):
        monkeypatch.setattr(engine.Simulation, name, tagged(name))
    monkeypatch.setattr(netsim, "deliver", recording)
    cfg = ScenarioConfig()
    cfg.sim.duration_s, cfg.network.uav_count = 60.0, 20
    engine.run(cfg)
    assert rates == {"_handle_submit": {cfg.network.bandwidth_bps},
                     "_handle_round": {cfg.network.backhaul_bps}}


# --- energy ---------------------------------------------------------------------

def test_tx_energy_hand_cases():
    model = EnergySection(eps0_j=0.05, eps1_j_per_m2=1e-7)
    assert model.tx_energy(0.0) == pytest.approx(0.05)
    # 0.05 + 1e-7 * 1000^2 = 0.15 J
    assert model.tx_energy(1000.0) == pytest.approx(0.15)
    base = model.tx_energy(200.0) - 0.05
    assert model.tx_energy(400.0) - 0.05 == pytest.approx(4 * base)


def test_round_energy_is_plain_sum():
    model = EnergySection(eps0_j=0.05, eps1_j_per_m2=1e-7)
    got = round_energy(model, [1000.0, 0.0], [0.01, 0.02])
    assert got == pytest.approx(0.15 + 0.05 + 0.03)


def test_energy_account_charging_and_conservation():
    account = EnergyAccount(1.0)
    assert account.try_charge(0.4)
    assert account.try_charge(0.4)
    assert not account.depleted
    # Unaffordable charge drains the remainder and reports failure.
    assert not account.try_charge(0.5)
    assert account.remaining == 0.0
    assert account.depleted
    assert not account.try_charge(0.1)


def test_crypto_costs_defaults_are_sane():
    costs = CryptoSection()
    assert costs.sign_j > costs.verify_j > 0.0
    assert math.isfinite(costs.verify_s)

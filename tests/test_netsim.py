"""Mobility statistics, connectivity rules, delivery delay, energy model."""

import math
from random import Random
from statistics import mean

import pytest

from uavchain.config import (CryptoSection, EnergySection, MobilitySection,
                             NetworkSection)
from uavchain.netsim import (CommGraph, EnergyAccount, UavState, deliver,
                             delivery_mean_delay, round_energy, step_mobility)

SIDE = 1e7  # huge area so trajectory tests never hit the boundary


def make_state(**kwargs) -> UavState:
    defaults = dict(node_id="u0", x=SIDE / 2, y=SIDE / 2, z=100.0, speed=8.0,
                    heading=0.3, mean_heading=0.3)
    defaults.update(kwargs)
    return UavState(**defaults)


# --- mobility -----------------------------------------------------------------

def test_memory_one_is_straight_line():
    params = MobilitySection(memory=1.0, speed_sigma=5.0, heading_sigma=5.0,
                             vert_sigma=5.0, alt_min_m=0.0, alt_max_m=1e6)
    state = make_state(speed=10.0, heading=0.5)
    rng = Random(1)
    for _ in range(50):
        nxt = step_mobility(state, 1.0, params, SIDE, rng)
        assert nxt.speed == pytest.approx(10.0)
        assert nxt.heading == pytest.approx(0.5)
        state = nxt


def test_memory_zero_is_uncorrelated_around_mean():
    params = MobilitySection(memory=0.0, mean_speed_mps=8.0, speed_sigma=1.5,
                             alt_min_m=0.0, alt_max_m=1e6)
    rng = Random(2)
    state = make_state()
    speeds = []
    for _ in range(5000):
        state = step_mobility(state, 1.0, params, SIDE, rng)
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
    state = make_state()
    speeds = []
    for _ in range(10_000):
        state = step_mobility(state, 1.0, params, SIDE, rng)
        speeds.append(state.speed)
    assert _lag1_autocorr(speeds) == pytest.approx(eta, abs=0.05)


def test_reflection_keeps_uav_inside_area():
    side = 500.0
    params = MobilitySection(memory=0.85, mean_speed_mps=30.0, speed_sigma=5.0,
                             alt_min_m=50.0, alt_max_m=150.0)
    rng = Random(4)
    state = make_state(x=10.0, y=490.0, z=60.0)
    for _ in range(2000):
        state = step_mobility(state, 1.0, params, side, rng)
        assert 0.0 <= state.x <= side
        assert 0.0 <= state.y <= side
        assert 50.0 <= state.z <= 150.0


def test_step_mobility_is_pure_and_validates_dt():
    state = make_state()
    params = MobilitySection()
    before = (state.x, state.y, state.speed)
    step_mobility(state, 1.0, params, SIDE, Random(5))
    assert (state.x, state.y, state.speed) == before
    with pytest.raises(ValueError):
        step_mobility(state, 0.0, params, SIDE, Random(5))


# --- connectivity --------------------------------------------------------------

def _graph() -> CommGraph:
    graph = CommGraph(NetworkSection(range_m=1000.0))
    graph.add_node("u0", "uav", (0.0, 0.0, 100.0))
    graph.add_node("u1", "uav", (500.0, 0.0, 100.0))
    graph.add_node("u2", "uav", (5000.0, 0.0, 100.0))
    graph.add_node("e0", "edge", (0.0, 400.0, 0.0))
    graph.add_node("e1", "edge", (9000.0, 0.0, 0.0))
    graph.add_node("base", "base", (4000.0, 4000.0, 0.0))
    return graph


def _link_up(graph: CommGraph, src: str, dst: str) -> bool:
    return deliver(100, src, dst, graph, Random(1)) is not None


def test_deliver_uses_distance_for_radio_links():
    graph = _graph()
    assert _link_up(graph, "u0", "u1")
    assert not _link_up(graph, "u0", "u2")


def test_infra_pairs_always_connected():
    graph = _graph()
    assert _link_up(graph, "e0", "e1")
    assert _link_up(graph, "e1", "base")
    assert not _link_up(graph, "u0", "e1")


def test_dead_nodes_have_no_links():
    graph = _graph()
    graph.set_alive("u1", False)
    assert not _link_up(graph, "u0", "u1")
    graph.set_alive("e0", False)
    assert not _link_up(graph, "e0", "e1")


def test_nearest_edge_and_range_gate():
    graph = _graph()
    assert graph.nearest_edge("u0") == "e0"
    # The gate applies after the memo lookup, so the order of the queries
    # does not matter.
    assert graph.nearest_edge("u2", require_range=True) is None
    assert graph.nearest_edge("u2") == "e1"
    assert graph.nearest_edge("u2", require_range=True) is None


def test_uav_neighbors_counts_alive_uavs_in_range():
    graph = _graph()
    assert graph.uav_neighbors("u0") == 1
    graph.set_alive("u1", False)
    assert graph.uav_neighbors("u0") == 0
    graph.move("u2", (600.0, 0.0, 100.0))
    assert graph.uav_neighbors("u0") == 1


def test_nearest_edge_skips_dead_edge():
    graph = _graph()
    graph.set_alive("e0", False)
    assert graph.nearest_edge("u0") == "e1"
    graph.set_alive("e1", False)
    assert graph.nearest_edge("u0") is None


def test_nearest_edge_tie_goes_to_first_added_edge():
    graph = CommGraph(NetworkSection(range_m=1000.0))
    graph.add_node("u0", "uav", (0.0, 0.0, 0.0))
    graph.add_node("e9", "edge", (300.0, 0.0, 0.0))
    graph.add_node("e1", "edge", (-300.0, 0.0, 0.0))
    graph.add_node("e5", "edge", (0.0, 300.0, 0.0))
    assert graph.nearest_edge("u0") == "e9"
    graph.set_alive("e9", False)
    assert graph.nearest_edge("u0") == "e1"


def test_uav_neighbors_ignores_edges_and_base():
    graph = CommGraph(NetworkSection(range_m=1000.0))
    graph.add_node("u0", "uav", (0.0, 0.0, 100.0))
    graph.add_node("e0", "edge", (10.0, 0.0, 0.0))
    graph.add_node("base", "base", (0.0, 10.0, 0.0))
    assert graph.uav_neighbors("u0") == 0
    assert graph.uav_neighbors("e0") == 1
    graph.add_node("u1", "uav", (20.0, 0.0, 100.0))
    assert graph.uav_neighbors("u0") == 1
    assert graph.uav_neighbors("base") == 2


def test_kind_index_follows_a_re_added_node():
    graph = _graph()
    assert graph.edge_ids == ["e0", "e1"]
    assert graph.uav_ids == ["u0", "u1", "u2"]
    graph.add_node("u1", "edge", (0.0, 0.0, 0.0))
    assert graph.edge_ids == ["u1", "e0", "e1"]
    assert graph.uav_ids == ["u0", "u2"]
    assert graph.nearest_edge("u0") == "u1"


def scan_nearest_edge(graph: CommGraph, node: str,
                      require_range: bool = False):
    """Uncached linear scan: the reference for `CommGraph.nearest_edge`."""
    best, best_d = None, math.inf
    for edge in graph.edge_ids:
        if graph.alive[edge] and graph.distance(node, edge) < best_d:
            best, best_d = edge, graph.distance(node, edge)
    if best is not None and require_range and best_d > graph.params.range_m:
        return None
    return best


def test_nearest_edge_memo_follows_every_change():
    graph = _graph()

    def check(expected):
        assert graph.nearest_edge("u1") == expected
        assert scan_nearest_edge(graph, "u1") == expected

    check("e0")
    graph.move("u1", (8000.0, 0.0, 100.0))
    check("e1")
    graph.move("e0", (8500.0, 0.0, 0.0))
    check("e0")
    graph.set_alive("e0", False)
    check("e1")
    graph.set_alive("e0", True)
    check("e0")
    graph.add_node("e2", "edge", (8000.0, 0.0, 50.0))
    check("e2")


def test_nearest_edge_memo_matches_a_scan_along_a_random_walk():
    rng = Random(11)
    graph = CommGraph(NetworkSection(range_m=1500.0))
    uavs = [f"u{i}" for i in range(12)]
    edges = [f"e{i}" for i in range(5)]

    def spot(z):
        return (rng.uniform(0.0, 5000.0), rng.uniform(0.0, 5000.0), z)

    for edge in edges:
        graph.add_node(edge, "edge", spot(0.0))
    for uav in uavs:
        graph.add_node(uav, "uav", spot(100.0))
    for _ in range(500):
        roll = rng.random()
        if roll < 0.5:
            graph.move(rng.choice(uavs), spot(100.0))
        elif roll < 0.6:
            uav = rng.choice(uavs)
            graph.move(uav, graph.positions[uav])
        elif roll < 0.7:
            graph.move(rng.choice(edges), spot(0.0))
        else:
            node = rng.choice(edges if roll < 0.85 else uavs)
            graph.set_alive(node, not graph.alive[node])
        for uav in uavs:
            for gate in (False, True):
                assert (graph.nearest_edge(uav, require_range=gate)
                        == scan_nearest_edge(graph, uav, gate))


def test_deliver_none_when_out_of_range():
    graph = _graph()
    assert deliver(100, "u0", "u2", graph, Random(1)) is None


def test_deliver_mean_matches_closed_form():
    graph = _graph()
    rng = Random(6)
    size = 1000
    samples = [deliver(size, "u0", "e0", graph, rng) for _ in range(200_000)]
    expected = delivery_mean_delay(graph, size, "u0", "e0")
    assert mean(samples) == pytest.approx(expected, rel=0.02)
    floor = (graph.distance("u0", "e0") / graph.params.prop_speed_mps
             + size * 8 / graph.params.bandwidth_bps)
    assert min(samples) >= floor


def test_backhaul_serialization_uses_backhaul_bandwidth():
    graph = _graph()
    slow = delivery_mean_delay(graph, 10 ** 6, "u0", "e0")
    fast = delivery_mean_delay(graph, 10 ** 6, "e0", "e1")
    assert fast < slow


# --- energy ---------------------------------------------------------------------

def test_tx_energy_hand_cases():
    model = EnergySection(eps0_j=0.05, eps1_j_per_m2=1e-7)
    assert model.tx_energy(0.0) == pytest.approx(0.05)
    # 0.05 + 1e-7 * 1000^2 = 0.15 J
    assert model.tx_energy(1000.0) == pytest.approx(0.15)
    base = model.tx_energy(200.0) - 0.05
    assert model.tx_energy(400.0) - 0.05 == pytest.approx(4 * base)
    with pytest.raises(ValueError):
        model.tx_energy(-1.0)


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
    with pytest.raises(ValueError):
        account.try_charge(-1.0)


def test_crypto_costs_defaults_are_sane():
    costs = CryptoSection()
    assert costs.sign_j > costs.verify_j > 0.0
    assert math.isfinite(costs.verify_s)

"""Arrival process, payload shape, adversary assignment."""

import math
import zlib
from collections import Counter
from random import Random
from statistics import mean

import pytest

from uavchain.config import WorkloadSection
from uavchain.workload import (Behavior, assign_adversaries,
                               make_payload, next_arrival, randbelow)

ALL_UAV_BEHAVIORS = (Behavior.FORGE_SIGNATURE.value, Behavior.REPLAY.value,
                     Behavior.DELAY_INJECTION.value)


def test_next_arrival_mean_matches_rate():
    rng = Random(1)
    rate = 6.0
    samples = [next_arrival(rate, rng) for _ in range(200_000)]
    assert mean(samples) == pytest.approx(1.0 / rate, rel=0.01)
    assert all(s > 0 for s in samples)


def test_next_arrival_poisson_count_in_window():
    rng = Random(2)
    rate, horizon = 6.0, 5000.0
    t, count = 0.0, 0
    while True:
        t += next_arrival(rate, rng)
        if t > horizon:
            break
        count += 1
    # Poisson(30000): three sigmas is about 520.
    assert abs(count - rate * horizon) < 600


def test_make_payload_respects_bounds():
    params = WorkloadSection(payload_min_bytes=512, payload_max_bytes=2048)
    rng = Random(3)
    for _ in range(200):
        payload = make_payload(params, rng)
        assert 512 <= len(payload) <= 2048


def test_make_payload_structured_part_is_compressible():
    structured = WorkloadSection(payload_min_bytes=2048, payload_max_bytes=2048,
                                 payload_random_fraction=0.0)
    noise = WorkloadSection(payload_min_bytes=2048, payload_max_bytes=2048,
                            payload_random_fraction=1.0)
    rng = Random(4)
    packed_structured = len(zlib.compress(make_payload(structured, rng)))
    packed_noise = len(zlib.compress(make_payload(noise, rng)))
    assert packed_structured < 0.3 * 2048
    assert packed_noise > 0.9 * 2048


def test_make_payload_random_fraction_splits_size():
    params = WorkloadSection(payload_min_bytes=1000, payload_max_bytes=1000,
                             payload_random_fraction=0.5)
    payload = make_payload(params, Random(5))
    assert len(payload) == 1000
    # The structured half is ASCII telemetry records.
    assert payload[:500].decode("ascii").startswith("ts=")


def plain_make_payload(params, rng):
    """`make_payload` as written with `randint`, `randrange` and `uniform`."""
    size = rng.randint(params.payload_min_bytes, params.payload_max_bytes)
    n_random = round(size * params.payload_random_fraction)
    record = ("ts=%010d;zone=%03d;temp=%05.2f;hum=%05.2f;soil=%05.3f;bat=%04.1f|"
              % (rng.randrange(10 ** 10), rng.randrange(1000),
                 rng.uniform(5.0, 40.0), rng.uniform(20.0, 95.0),
                 rng.random(), rng.uniform(0.0, 100.0))).encode("ascii")
    structured_len = size - n_random
    reps = max(1, math.ceil(structured_len / len(record)))
    structured = (record * reps)[:structured_len]
    return structured + rng.randbytes(n_random)


# Bounds whose width (max - min + 1) is at and next to powers of two, where
# `getrandbits` rejection changes how many words a draw takes.
PAYLOAD_BOUNDS = [(512, 2048), (1, 1), (1, 2 ** 20)] + [
    (100, 100 + width - 1) for k in (1, 2, 3, 8, 10, 11)
    for width in (2 ** k - 1, 2 ** k, 2 ** k + 1)]


@pytest.mark.parametrize("low, high", PAYLOAD_BOUNDS)
def test_make_payload_equals_its_plain_twin(low, high):
    calls = 8 if high > 100_000 else 60
    for fraction in (0.0, 0.56, 1.0):
        params = WorkloadSection(payload_min_bytes=low, payload_max_bytes=high,
                                 payload_random_fraction=fraction)
        fast, plain = Random(low * 31 + high), Random(low * 31 + high)
        for _ in range(calls):
            assert make_payload(params, fast) == plain_make_payload(params, plain)
        assert fast.getstate() == plain.getstate()


def test_randbelow_equals_randrange_and_choice():
    for n in [*range(1, 301), 10 ** 10]:
        fast, plain = Random(n), Random(n)
        for _ in range(5):
            assert randbelow(fast, n) == plain.randrange(n)
        assert fast.getstate() == plain.getstate()
        if n <= 300:
            uavs = [f"u{i:03d}" for i in range(n)]
            for _ in range(5):
                assert uavs[randbelow(fast, n)] == plain.choice(uavs)
            assert fast.getstate() == plain.getstate()


def test_randbelow_refuses_an_empty_range_without_drawing():
    rng = Random(9)
    state = rng.getstate()
    for n in (0, -1, -10 ** 10):
        with pytest.raises(ValueError):
            randbelow(rng, n)
    assert rng.getstate() == state


def test_next_arrival_equals_expovariate():
    for rate in (1e-9, 0.5, 6.0, 600.0, 1e9):
        fast, plain = Random(10), Random(10)
        for _ in range(1000):
            assert next_arrival(rate, fast) == plain.expovariate(rate)
        assert fast.getstate() == plain.getstate()


def test_assign_adversaries_counts_and_determinism():
    uavs = [f"u{i:03d}" for i in range(100)]
    edges = [f"e{i}" for i in range(10)]
    params = WorkloadSection(compromised_fraction=0.15,
                             malicious_edge_fraction=0.2)
    got_a = assign_adversaries(uavs, edges, params, ALL_UAV_BEHAVIORS,
                               Random(6))
    got_b = assign_adversaries(uavs, edges, params, ALL_UAV_BEHAVIORS,
                               Random(6))
    assert got_a == got_b
    behaviors, malicious_edges = got_a
    assert len(behaviors) == 15
    assert len(malicious_edges) == 2


def test_assign_adversaries_cycles_behaviors():
    uavs = [f"u{i}" for i in range(30)]
    params = WorkloadSection(compromised_fraction=0.3)
    behaviors, _ = assign_adversaries(uavs, [], params, ALL_UAV_BEHAVIORS,
                                      Random(7))
    counts = Counter(behaviors.values())
    assert counts[Behavior.FORGE_SIGNATURE] == 3
    assert counts[Behavior.REPLAY] == 3
    assert counts[Behavior.DELAY_INJECTION] == 3


def test_assign_adversaries_zero_fraction_is_clean():
    clean = WorkloadSection(compromised_fraction=0.0)
    behaviors, edges = assign_adversaries(["u0", "u1"], ["e0"], clean,
                                          ALL_UAV_BEHAVIORS, Random(8))
    assert behaviors == {} and edges == set()

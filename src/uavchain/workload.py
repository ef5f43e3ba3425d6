"""Poisson transaction generation and the static adversary model.

Payloads mimic telemetry uploads: a tiled sensor record (highly compressible)
followed by a slice of raw random bytes (incompressible), mixed by
``workload.payload_random_fraction``. The fraction is calibrated once so
that whole-block compression lands in the expected band and then frozen in
configuration.
"""

from __future__ import annotations

import math
from enum import Enum
from random import Random
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # config imports Behavior from here
    from .config import WorkloadSection


BACKDATE_TAUS = 1.5   # delay-injection back-dates a tx by 1.5 x tau_max_s


class WorkloadError(ValueError):
    pass


class Behavior(str, Enum):
    FORGE_SIGNATURE = "forge-signature"
    REPLAY = "replay"
    DELAY_INJECTION = "delay-injection"


def next_arrival(rate: float, rng: Random) -> float:
    """Exponential inter-arrival time for a Poisson process."""
    if rate <= 0.0:
        raise WorkloadError("arrival rate must be positive")
    return rng.expovariate(rate)


def make_payload(params: WorkloadSection, rng: Random) -> bytes:
    """One telemetry payload of uniform size within the configured bounds."""
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


def assign_adversaries(uav_ids: list[str], edge_ids: list[str],
                       params: WorkloadSection, behavior_names: Sequence[str],
                       rng: Random) -> tuple[dict[str, Behavior], set[str]]:
    """Static compromise assignment, fixed for the whole scenario.

    Exactly floor(fraction * count) UAVs are compromised, chosen uniformly;
    behaviors cycle through `behavior_names` in selection order. Malicious
    edges vote against every proposal but their own.
    """
    n_uavs = math.floor(params.compromised_fraction * len(uav_ids))
    chosen = rng.sample(sorted(uav_ids), n_uavs)
    behaviors = [Behavior(b) for b in behavior_names]
    if n_uavs and not behaviors:
        raise WorkloadError("no UAV-side behaviors configured")
    uav_behaviors = {uav: behaviors[i % len(behaviors)]
                     for i, uav in enumerate(chosen)}
    n_edges = math.floor(params.malicious_edge_fraction * len(edge_ids))
    malicious_edges = set(rng.sample(sorted(edge_ids), n_edges))
    return uav_behaviors, malicious_edges

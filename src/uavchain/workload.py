"""Poisson transaction generation and the static adversary model.

Payloads mimic telemetry uploads: a tiled sensor record (highly compressible)
followed by a slice of raw random bytes (incompressible), mixed by
``workload.payload_random_fraction``. The fraction is calibrated once so
that whole-block compression lands in the expected band and then frozen in
configuration.

Every per-transaction draw comes straight from the Mersenne Twister's public
primitives, ``random()``, ``getrandbits()`` and ``randbytes()``, computed
exactly as ``random.Random`` computes it from them: ``randbelow`` is
``randrange(n)``, ``lo + randbelow(rng, hi - lo + 1)`` is ``randint(lo, hi)``,
``a + (b - a) * random()`` is ``uniform(a, b)`` and ``-log(1.0 - random()) /
rate`` is ``expovariate(rate)``. Those bodies are the same on CPython 3.10 to
3.13, so the draws and the generator's state after them are too.

`validate` keeps the arrival rate positive and gives compromised UAVs at
least one behavior; neither rule is checked again here.
"""

from __future__ import annotations

import math
from enum import Enum
from random import Random
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # config imports Behavior from here
    from .config import WorkloadSection


BACKDATE_TAUS = 1.5   # delay-injection back-dates a tx by 1.5 x tau_max_s


class Behavior(str, Enum):
    FORGE_SIGNATURE = "forge-signature"
    REPLAY = "replay"
    DELAY_INJECTION = "delay-injection"


def randbelow(rng: Random, n: int) -> int:
    """What ``rng.randrange(n)`` returns, leaving `rng` in the same state:
    ``getrandbits(n.bit_length())`` until the result is below `n`."""
    if n < 1:
        raise ValueError(f"randbelow needs n >= 1, got {n}")
    getrandbits = rng.getrandbits
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def next_arrival(rate: float, rng: Random) -> float:
    """Exponential inter-arrival time for a Poisson process
    (``rng.expovariate(rate)``)."""
    return -math.log(1.0 - rng.random()) / rate


def make_payload(params: WorkloadSection, rng: Random) -> bytes:
    """One telemetry payload of uniform size within the configured bounds.

    Its draws are ``randint(min, max)``, ``randrange(10**10)``,
    ``randrange(1000)``, two ``uniform``, a ``random()``, a ``uniform`` and
    ``randbytes``. The record is the ASCII of the same ``str`` format.
    """
    random = rng.random
    low = params.payload_min_bytes
    size = low + randbelow(rng, params.payload_max_bytes - low + 1)
    n_random = round(size * params.payload_random_fraction)
    record = (b"ts=%010d;zone=%03d;temp=%05.2f;hum=%05.2f;soil=%05.3f;bat=%04.1f|"
              % (randbelow(rng, 10 ** 10), randbelow(rng, 1000),
                 5.0 + (40.0 - 5.0) * random(), 20.0 + (95.0 - 20.0) * random(),
                 random(), 0.0 + (100.0 - 0.0) * random()))
    structured_len = size - n_random
    structured = (record * -(-structured_len // len(record)))[:structured_len]
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
    uav_behaviors = {uav: behaviors[i % len(behaviors)]
                     for i, uav in enumerate(chosen)}
    n_edges = math.floor(params.malicious_edge_fraction * len(edge_ids))
    malicious_edges = set(rng.sample(sorted(edge_ids), n_edges))
    return uav_behaviors, malicious_edges

"""Acceptance gate: equation exactness, safety, and trend/band reproduction.

Each test covers one numbered acceptance criterion and prints a single
PASS line with the measured values (run with ``pytest -s`` to see them on
success). Trend criteria run the simulator at reduced durations that are
long enough for the statistics to stabilize.
"""

import math
import time
from fractions import Fraction
from hashlib import sha256
from random import Random
from statistics import mean

import pytest

import golden
from uavchain import cli, engine, ledger
from uavchain.config import (ConsensusSection, EnergySection, ScenarioConfig,
                             TrustSection)
from uavchain.consensus import utility_score
from uavchain.crypto import MockProvider
from uavchain.netsim import round_energy
from uavchain.trust import edge_committee_weights, trust_rank, update_trust


def _dyadic(rng: Random, scale: int = 8) -> Fraction:
    # Dyadic rationals convert to float exactly, so oracle comparisons are
    # limited only by the implementation's own float arithmetic.
    return Fraction(rng.randrange(1, 2 ** scale), 2 ** scale)


def _report(criterion: int, detail: str) -> None:
    print(f"criterion {criterion:2d} PASS: {detail}")


# --- criterion 1: equation exactness -----------------------------------------

def test_criterion_1_equation_oracles():
    rng = Random(20260823)
    cases = 120

    for _ in range(cases):  # trust smoothing recurrence
        lam, xi, chi = _dyadic(rng), _dyadic(rng), _dyadic(rng)
        expected = lam * xi + (1 - lam) * chi
        got = update_trust(float(xi), float(chi),
                           TrustSection(smoothing=float(lam)))
        assert got == pytest.approx(float(expected), rel=1e-12)

    for _ in range(cases):  # trust rank normalization
        scores = {f"n{i}": _dyadic(rng) for i in range(rng.randrange(2, 8))}
        total = sum(scores.values())
        got = trust_rank({k: float(v) for k, v in scores.items()})
        for node, value in scores.items():
            assert got[node] == pytest.approx(float(value / total), rel=1e-12)

    for _ in range(cases):  # block utility
        a, b, g = _dyadic(rng), _dyadic(rng), _dyadic(rng)
        eta = rng.randrange(1, 500)
        zeta, theta = _dyadic(rng), _dyadic(rng) * 16
        expected = a * eta + b * zeta - g * theta
        got = utility_score(ConsensusSection(alpha=float(a), beta=float(b),
                                             gamma=float(g)),
                            eta, float(zeta), float(theta))
        assert got == pytest.approx(float(expected), rel=1e-12)

    for _ in range(cases):  # edge committee weights
        uavs = {f"u{i}": _dyadic(rng) for i in range(6)}
        assignment = {"e0": {"u0", "u1"}, "e1": {"u2", "u3", "u4"},
                      "e2": {"u5"}}
        sums = {e: sum(uavs[u] for u in members)
                for e, members in assignment.items()}
        total = sum(sums.values())
        got = edge_committee_weights(assignment,
                                     {k: float(v) for k, v in uavs.items()})
        for e in assignment:
            assert got[e] == pytest.approx(float(sums[e] / total), rel=1e-12)

    for _ in range(cases):  # compression ratio
        raw = rng.randrange(2, 10 ** 7)
        comp = rng.randrange(1, raw + 1)
        expected = Fraction(raw - comp, raw)
        assert ledger.compression_ratio(raw, comp) == pytest.approx(
            float(expected), rel=1e-12, abs=1e-15)

    for _ in range(cases):  # transmission energy, quadratic law
        e0, e1 = _dyadic(rng), _dyadic(rng) / 2 ** 20
        d = Fraction(rng.randrange(0, 3200))
        model = EnergySection(eps0_j=float(e0), eps1_j_per_m2=float(e1))
        expected = e0 + e1 * d * d
        assert model.tx_energy(float(d)) == pytest.approx(float(expected),
                                                          rel=1e-12)

    for _ in range(cases):  # round energy sum
        e0, e1 = _dyadic(rng), _dyadic(rng) / 2 ** 20
        model = EnergySection(eps0_j=float(e0), eps1_j_per_m2=float(e1))
        dists = [Fraction(rng.randrange(0, 2000)) for _ in range(5)]
        compute = [_dyadic(rng) for _ in range(5)]
        expected = sum(e0 + e1 * d * d for d in dists) + sum(compute)
        got = round_energy(model, [float(d) for d in dists],
                           [float(c) for c in compute])
        assert got == pytest.approx(float(expected), rel=1e-12)

    _report(1, f"7 equations x {cases} randomized oracle cases within 1e-12")


# --- criterion 2: crypto contract ---------------------------------------------

def test_criterion_2_crypto_volume_and_forgery_rejection():
    provider = MockProvider()
    pair = provider.keygen(99)
    started = time.monotonic()
    n = 100_000
    for i in range(n):
        digest = sha256(i.to_bytes(4, "little")).digest()
        sig = provider.sign(pair.private_key, digest)
        assert provider.verify(digest, sig, pair.public_key)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0

    cfg = ScenarioConfig()
    cfg.sim.duration_s = 180.0
    cfg.workload.compromised_fraction = 0.3
    result = engine.run(cfg)
    forgers = {u for u, b in result.uav_behaviors.items()
               if b.value == "forge-signature"}
    assert forgers
    for segment in result.segments.values():
        for block in segment.chain:
            for tx in block.transactions:
                assert tx.sender not in forgers
                assert provider.verify(tx.id, tx.signature,
                                       result.registry[tx.sender])
    _report(2, f"{n} sign/verify round-trips in {elapsed:.1f}s; "
               "no forged tx committed in a 30%-adversary run")


# --- criterion 3: safety audit --------------------------------------------------

def test_criterion_3_ledger_audit_battery(tmp_path):
    provider = MockProvider()
    findings_total = 0
    for seed in range(1, 21):
        cfg = ScenarioConfig()
        cfg.sim.duration_s = 120.0
        result = engine.run(cfg, seed=seed)
        for segment in result.segments.values():
            findings_total += len(ledger.verify_segment(
                segment, result.registry, provider,
                cfg.consensus.max_block_bytes))
            # Segments are independent chains; duplicates are forbidden
            # within a segment (verify_segment also re-checks this).
            seen: set = set()
            for block in segment.chain:
                for tx_id in block.tx_ids():
                    assert tx_id not in seen
                    seen.add(tx_id)
    assert findings_total == 0

    # The CLI audit path agrees with the library verifier.
    golden.run_entry(golden.load()["1"], tmp_path)
    assert cli.main(["audit", "--ledger", str(tmp_path / "ledger.json")]) == 0
    _report(3, "20-seed audit battery: 0 findings; per-segment duplicate "
               "and linkage invariants hold")


# --- trend/band fixtures ----------------------------------------------------------

SCALES = (20, 40, 60, 80, 100)


def _clean_config(duration: float) -> ScenarioConfig:
    cfg = ScenarioConfig()
    cfg.sim.duration_s = duration
    cfg.workload.compromised_fraction = 0.0
    return cfg


@pytest.fixture(scope="module")
def scale_battery():
    """Clean runs over UAV scales, 5 seeds each (feeds criteria 4, 6, 7, 8)."""
    summaries = {}
    for scale in SCALES:
        per_seed = []
        for seed in range(1, 6):
            cfg = _clean_config(200.0)
            cfg.network.uav_count = scale
            per_seed.append(engine.run(cfg, seed=seed).summary)
        summaries[scale] = per_seed
    return summaries


def _spearman(xs, ys) -> float:
    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        for rank, i in enumerate(order):
            out[i] = float(rank)
        return out
    rx, ry = ranks(xs), ranks(ys)
    mx, my = mean(rx), mean(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(sum((a - mx) ** 2 for a in rx)
                    * sum((b - my) ** 2 for b in ry))
    return num / den


def test_criterion_4_latency_trend(scale_battery):
    means = [mean(s["mean_latency_s"] for s in scale_battery[scale])
             for scale in SCALES]
    rho = _spearman(list(SCALES), means)
    assert rho > 0.8
    assert means[-1] < 1.2
    _report(4, "mean latency(ms) over scales "
               f"{[round(m * 1000, 1) for m in means]}, spearman {rho:.2f}")


def test_criterion_5_throughput_saturation():
    offered_levels = (100.0, 400.0, 600.0)
    rows = engine.sweep(_clean_config(240.0), "workload.arrival_rate_tps",
                        list(offered_levels), replications=2)
    means = [row["tps_committed_mean"] for row in rows]
    assert means == sorted(means)  # grows with offered load
    assert 100.0 <= means[-1] <= 250.0  # plateau band
    assert means[-1] / means[-2] < 1.15  # saturated, not still climbing
    _report(5, f"committed TPS {[round(m, 1) for m in means]} at offered "
               f"{list(offered_levels)}")


def test_criterion_6_energy_band(scale_battery):
    worst = max(s["energy_per_committed_tx_j"]
                for runs in scale_battery.values() for s in runs)
    assert worst < 0.9
    _report(6, f"max energy/committed tx {worst:.3f} J < 0.9 J")


def test_criterion_7_validation_success_band(scale_battery):
    lows = {scale: min(s["validation_success_pct"] for s in runs)
            for scale, runs in scale_battery.items()}
    assert all(v >= 96.0 for v in lows.values())
    _report(7, f"min validation success per scale {lows}")


def test_criterion_8_compression_band(scale_battery):
    omegas = [s["mean_omega"] for runs in scale_battery.values() for s in runs]
    assert all(0.30 <= w <= 0.45 for w in omegas)
    _report(8, f"mean omega range [{min(omegas):.3f}, {max(omegas):.3f}] "
               "inside [0.30, 0.45]")


def test_criterion_9_resilience_trend():
    fractions = (0.0, 0.05, 0.10, 0.15)
    base = ScenarioConfig()
    base.sim.duration_s = 300.0
    rows = engine.sweep(base, "workload.compromised_fraction", list(fractions),
                        replications=2,
                        coupled=("workload.malicious_edge_fraction",))
    means = [row["validation_success_pct_mean"] for row in rows]
    assert all(a >= b for a, b in zip(means, means[1:]))  # non-increasing
    assert means[fractions.index(0.15)] >= 89.0
    _report(9, f"consensus success {[round(m, 1) for m in means]} over "
               f"compromised fractions {list(fractions)}")


def test_criterion_10_trust_decile_leadership():
    shares = []
    for seed in range(1, 6):
        cfg = ScenarioConfig()  # default 600 s scenario, adversaries included
        shares.append(engine.run(cfg, seed=seed)
                      .summary["top_decile_share_pct"])
    above = sum(1 for s in shares if s > 10.0)
    assert above >= 3  # strict majority of 5 seeds
    _report(10, f"top-decile committed share {[round(s, 1) for s in shares]}%"
                f" ({above}/5 seeds above 10%)")


def test_criterion_11_determinism(tmp_path):
    table = golden.load()
    for seed in ("1", "2", "3"):   # the golden seeds: default scenario, 120 s
        first, second = (golden.run_entry(table[seed], tmp_path / (seed + run))
                         for run in "ab")
        assert first == second
    _report(11, "3 seeds x 2 runs: all five output files and the six streams' "
                "end states byte-identical")

"""Admission, freshness, utility, committee sampling, quorum, rounds."""

import math
from itertools import permutations
from random import Random

import pytest

from uavchain import ledger
from uavchain.config import ConsensusSection, LedgerSection
from uavchain.consensus import (RejectReason, RoundOutcome, ValidationPool,
                                admit_transaction, assemble_block, freshness,
                                quorum_threshold, run_round, sample_committee,
                                sample_proposer, tx_freshness, utility_score)
from uavchain.crypto import MockProvider, hash_bytes
from uavchain.ledger import Transaction, genesis_metadata

provider = MockProvider()
PAIR = provider.keygen(1)
REGISTRY = {"u000": PAIR.public_key}
BOUNDS = (1, 4096)
# Default utility weights and block limits with a 60 s freshness horizon.
RULES = ConsensusSection(tau_max_s=60.0)


def make_tx(payload: bytes, t: float = 0.0, sender: str = "u000",
            signed: bool = True) -> Transaction:
    core = ledger.encode_tx_core(sender, t, payload)
    if signed:
        sig = provider.sign(PAIR.private_key, hash_bytes(core))
    else:
        sig = b"\x00" * 64
    return Transaction(sender=sender, payload=payload, submit_time=t,
                       signature=sig)


# --- admission --------------------------------------------------------------

def test_admit_accepts_valid_transaction():
    pool = ValidationPool(owner="e00")
    tx = make_tx(b"data")
    assert admit_transaction(pool, tx, 7, REGISTRY, provider, set(),
                             BOUNDS) is None
    assert pool.admitted[tx.id] == (tx, 7)


def test_admit_rejects_unknown_sender():
    pool = ValidationPool(owner="e00")
    tx = make_tx(b"data", sender="ghost")
    reason = admit_transaction(pool, tx, 0, REGISTRY, provider, set(), BOUNDS)
    assert reason is RejectReason.UNKNOWN_SENDER


def test_admit_rejects_oversize_payload():
    pool = ValidationPool(owner="e00")
    tx = make_tx(b"x" * 5000)
    reason = admit_transaction(pool, tx, 0, REGISTRY, provider, set(), BOUNDS)
    assert reason is RejectReason.OVERSIZE


def test_admit_rejects_duplicate_in_pool_and_committed():
    pool = ValidationPool(owner="e00")
    tx = make_tx(b"data")
    admit_transaction(pool, tx, 0, REGISTRY, provider, set(), BOUNDS)
    assert admit_transaction(pool, tx, 1, REGISTRY, provider, set(),
                             BOUNDS) is RejectReason.DUPLICATE
    assert pool.admitted[tx.id] == (tx, 0)
    fresh_pool = ValidationPool(owner="e01")
    assert admit_transaction(fresh_pool, tx, 2, REGISTRY, provider, {tx.id},
                             BOUNDS) is RejectReason.DUPLICATE


def test_admit_rejects_forged_signature():
    pool = ValidationPool(owner="e00")
    tx = make_tx(b"data", signed=False)
    reason = admit_transaction(pool, tx, 0, REGISTRY, provider, set(), BOUNDS)
    assert reason is RejectReason.BAD_SIGNATURE
    assert not pool.admitted


# --- freshness and utility ---------------------------------------------------

def test_tx_freshness_values():
    tau = 60.0
    assert tx_freshness(make_tx(b"a", t=10.0), 10.0, tau) == 1.0
    assert tx_freshness(make_tx(b"a", t=0.0), 15.0, tau) == 0.75
    assert tx_freshness(make_tx(b"a", t=0.0), 600.0, tau) == 0.0
    # Future-dated (clock skew) clamps at 1.
    assert tx_freshness(make_tx(b"a", t=20.0), 10.0, tau) == 1.0


def test_block_freshness_is_mean_of_members():
    txs = [make_tx(b"a", t=0.0), make_tx(b"b", t=30.0)]
    assert freshness(txs, 30.0, 60.0) == pytest.approx(0.75)


def test_utility_hand_case():
    # 1.0 * 10 + 2.0 * 0.7 - 0.1 * 2.0 = 11.2
    params = ConsensusSection(alpha=1.0, beta=2.0, gamma=0.1)
    assert utility_score(params, 10, 0.7, 2.0) == pytest.approx(11.2)


# --- committee sampling -------------------------------------------------------

def test_sample_committee_full_population():
    weights = {"e0": 0.5, "e1": 0.3, "e2": 0.2}
    assert sample_committee(weights, 3, Random(1)) == ["e0", "e1", "e2"]


def test_sample_committee_point_mass():
    weights = {"e0": 1.0, "e1": 0.0, "e2": 0.0}
    assert sample_committee(weights, 1, Random(7)) == ["e0"]


def _inclusion_oracle(weights: dict[str, float], size: int) -> dict[str, float]:
    # Exact inclusion probabilities by enumerating ordered draw sequences.
    probs = {node: 0.0 for node in weights}
    for order in permutations(weights, size):
        p = 1.0
        total = sum(weights.values())
        for node in order:
            p *= weights[node] / total
            total -= weights[node]
        for node in order:
            probs[node] += p
    return probs


def test_sample_committee_matches_enumeration_oracle():
    weights = {"e0": 0.4, "e1": 0.3, "e2": 0.2, "e3": 0.1}
    expected = _inclusion_oracle(weights, 2)
    rng = Random(12345)
    counts = {node: 0 for node in weights}
    draws = 100_000
    for _ in range(draws):
        for node in sample_committee(weights, 2, rng):
            counts[node] += 1
    for node in weights:
        assert counts[node] / draws == pytest.approx(expected[node], abs=0.01)


def test_sample_committee_deterministic_given_seed():
    weights = {f"e{i}": 1.0 + i for i in range(6)}
    assert (sample_committee(weights, 3, Random(5))
            == sample_committee(weights, 3, Random(5)))


# --- proposer and quorum ------------------------------------------------------

def test_sample_proposer_stays_in_committee():
    weights = {"e0": 0.1, "e1": 0.7, "e2": 0.2}
    rng = Random(3)
    for _ in range(200):
        assert sample_proposer(["e0", "e2"], weights, rng) in ("e0", "e2")


def test_sample_proposer_frequency_tracks_weight():
    weights = {"e0": 0.75, "e1": 0.25}
    rng = Random(11)
    hits = sum(sample_proposer(["e0", "e1"], weights, rng) == "e0"
               for _ in range(20_000))
    assert hits / 20_000 == pytest.approx(0.75, abs=0.01)


def test_sample_proposer_zero_weight_fallback():
    assert sample_proposer(["e2", "e1"], {"e1": 0.0, "e2": 0.0}, Random(1)) == "e1"


def test_quorum_threshold_arithmetic():
    expected = {1: 1, 2: 2, 3: 2, 4: 3, 5: 4, 6: 4, 7: 5, 9: 6, 10: 7}
    for m, q in expected.items():
        assert quorum_threshold(m) == q == math.ceil(2 * m / 3)


# --- block assembly -----------------------------------------------------------

def _filled_pool(n: int, now: float) -> ValidationPool:
    pool = ValidationPool(owner="e00")
    for i in range(n):
        tx = make_tx(f"payload-{i:04d}".encode() * 20, t=now - i)
        pool.admitted[tx.id] = (tx, i)
    return pool


def test_assemble_block_empty_pool_returns_none():
    pool = ValidationPool(owner="e00")
    got = assemble_block(pool, RULES, LedgerSection(), 0.0,
                         genesis_metadata(1), "e00")
    assert got is None


def test_assemble_block_packs_pool():
    now = 100.0
    pool = _filled_pool(20, now)
    block = assemble_block(pool, RULES, LedgerSection(), now,
                           genesis_metadata(1), "e00")
    assert len(block.transactions) == 20
    assert 0 < block.compressed_size < block.raw_size
    # Selection must not consume the pool; removal happens after commit.
    assert len(pool.admitted) == 20


def test_assemble_block_prefers_fresh_transactions():
    now = 100.0
    pool = _filled_pool(50, now)
    rules = ConsensusSection(tau_max_s=60.0, max_block_txs=10)
    block = assemble_block(pool, rules, LedgerSection(), now,
                           genesis_metadata(1), "e00")
    picked_ages = sorted(now - tx.submit_time for tx in block.transactions)
    assert picked_ages == list(range(10))


def test_assemble_block_respects_compressed_size_limit():
    now = 10.0
    pool = ValidationPool(owner="e00")
    rng = Random(2)
    for i in range(40):
        tx = make_tx(rng.randbytes(512), t=now)  # incompressible payloads
        pool.admitted[tx.id] = (tx, i)
    rules = ConsensusSection(tau_max_s=60.0, max_block_bytes=4096)
    block = assemble_block(pool, rules,
                           LedgerSection(compression_headroom=0.30), now,
                           genesis_metadata(1), "e00")
    assert block.compressed_size <= 4096


# --- round execution ----------------------------------------------------------

def test_run_round_commits_at_quorum():
    for size in range(1, 11):
        assert run_round(quorum_threshold(size), size) is RoundOutcome.COMMITTED
        assert run_round(size, size) is RoundOutcome.COMMITTED


def test_run_round_aborts_below_quorum():
    for size in range(1, 11):
        assert (run_round(quorum_threshold(size) - 1, size)
                is RoundOutcome.ABORTED)

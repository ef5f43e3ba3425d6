"""Consensus state machine: admission, block assembly, committee, quorum.

Transaction admission re-verifies the lattice signature and filters
duplicates/unknown senders; timeliness is recorded as a metric but never
rejects. Block assembly is greedy by freshness under a compressed-size
budget; the engine scores each proposal by

    utility = alpha * valid_count + beta * freshness - gamma * energy_cost

Committees are weighted samples without replacement over edge trust weights,
and a round commits when approvals reach ceil(2m/3).

Inputs are taken as given: `validate` keeps the committee no larger than the
edge count, and `assemble_block` never proposes an empty block, so
`sample_committee` and `freshness` check neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from random import Random
from typing import TYPE_CHECKING, Optional

from . import ledger, left_sum
from .ledger import Block, BlockMetadata, Transaction

if TYPE_CHECKING:
    from .config import ConsensusSection, LedgerSection


class RejectReason(str, Enum):
    BAD_SIGNATURE = "bad-signature"
    UNKNOWN_SENDER = "unknown-sender"
    DUPLICATE = "duplicate"
    OVERSIZE = "oversize"


class RoundOutcome(str, Enum):
    COMMITTED = "committed"
    ABORTED = "aborted"


def utility_score(params: ConsensusSection, valid_count: int, freshness: float,
                  energy_cost: float) -> float:
    return (params.alpha * valid_count + params.beta * freshness
            - params.gamma * energy_cost)


@dataclass
class ValidationPool:
    """Signature-verified transactions held at one edge node, each keyed by
    its id and kept with the index of its transactions.csv row."""

    owner: str
    admitted: dict[bytes, tuple[Transaction, int]] = field(default_factory=dict)


def admit_transaction(pool: ValidationPool, tx: Transaction, row: int,
                      registry: dict[str, bytes], provider,
                      committed_ids: set[bytes],
                      payload_bounds: tuple[int, int]) -> Optional[RejectReason]:
    """Admit tx, recorded in transactions.csv row `row`, into the pool;
    returns the reject reason or None on accept."""
    key = registry.get(tx.sender)
    if key is None:
        return RejectReason.UNKNOWN_SENDER
    if not payload_bounds[0] <= len(tx.payload) <= payload_bounds[1]:
        return RejectReason.OVERSIZE
    if tx.id in pool.admitted or tx.id in committed_ids:
        return RejectReason.DUPLICATE
    if not provider.verify(tx.id, tx.signature, key):
        return RejectReason.BAD_SIGNATURE
    pool.admitted[tx.id] = (tx, row)
    return None


def tx_freshness(tx: Transaction, now: float, tau_max: float) -> float:
    age = now - tx.submit_time
    return min(1.0, max(0.0, 1.0 - age / tau_max))


def freshness(transactions: list[Transaction], now: float, tau_max: float) -> float:
    """Mean per-transaction freshness, each clamped to [0, 1]."""
    return left_sum(tx_freshness(tx, now, tau_max) for tx in transactions) / len(transactions)


def assemble_block(pool: ValidationPool, params: ConsensusSection,
                   ledger_params: LedgerSection, now: float,
                   prev: BlockMetadata, proposer: str) -> Optional[Block]:
    """Greedy freshest-first packing under the block size limit.

    Returns None when nothing fits, an empty pool included (no-proposal
    signal; the window is skipped). Selected transactions are NOT removed
    from the pool; the caller removes them only after a committed round.
    """
    tau_max = params.tau_max_s
    candidates = sorted((tx for tx, _ in pool.admitted.values()),
                        key=lambda tx: (-tx_freshness(tx, now, tau_max), tx.id))
    # Raw budget assumes the codec removes at least `compression_headroom`;
    # the compressed result is re-checked below and trimmed if needed.
    raw_budget = (params.max_block_bytes
                  / (1.0 - ledger_params.compression_headroom))
    picked: list[Transaction] = []
    raw_total = ledger.block_wire_size(proposer, [])
    for tx in candidates:
        size = tx.wire_size()
        if raw_total + size > raw_budget:
            break
        picked.append(tx)
        raw_total += size
        if params.max_block_txs and len(picked) >= params.max_block_txs:
            break
    if not picked:
        return None
    block = ledger.make_block(picked, prev.block_id, now, proposer)
    ledger.compress_block(block, ledger_params.codec)
    while block.compressed_size > params.max_block_bytes and len(picked) > 1:
        # Codec underperformed the headroom assumption; shed the stalest txs.
        shed = max(1, len(picked) // 20)
        picked = picked[:-shed]
        block = ledger.make_block(picked, prev.block_id, now, proposer)
        ledger.compress_block(block, ledger_params.codec)
    return block


def _weighted_draw(weights: dict[str, float], total: float, rng: Random) -> str:
    """The node whose cumulative-weight interval, in `weights` order, holds
    one `rng.random()` draw scaled to `total` (a positive weight sum)."""
    point = rng.random() * total
    acc = 0.0
    for node, weight in weights.items():
        acc += weight
        if point < acc:
            return node
    # Float accumulation can fall short of `total` at the edge.
    return next(reversed(weights))


def sample_committee(weights: dict[str, float], size: int, rng: Random) -> list[str]:
    """Weighted sampling without replacement with renormalized draws.

    Deterministic given the rng state; iteration is in sorted node order.
    Returns the committee sorted by node id.
    """
    remaining = {node: weights[node] for node in sorted(weights)}
    chosen: list[str] = []
    for _ in range(size):
        total = left_sum(remaining.values())
        if total <= 0.0:
            # Degenerate residual mass: fill uniformly from what is left.
            node = list(remaining)[rng.randrange(len(remaining))]
        else:
            node = _weighted_draw(remaining, total, rng)
        chosen.append(node)
        del remaining[node]
    return sorted(chosen)


def quorum_threshold(committee_size: int) -> int:
    return math.ceil(2 * committee_size / 3)


def sample_proposer(committee: list[str], weights: dict[str, float],
                    rng: Random) -> str:
    """Draw the proposer within the committee proportionally to trust weight.

    Weighted rotation (rather than always the heaviest member) keeps every
    edge's pool live while still favoring trusted edges. Zero total weight
    falls back to the lowest node id.
    """
    members = {m: weights[m] for m in sorted(committee)}
    total = left_sum(members.values())
    if total <= 0.0:
        return next(iter(members))
    return _weighted_draw(members, total, rng)


def run_round(approvals: int, committee_size: int) -> RoundOutcome:
    """Settle a proposal's round from its committee's approval count."""
    return (RoundOutcome.COMMITTED
            if approvals >= quorum_threshold(committee_size)
            else RoundOutcome.ABORTED)

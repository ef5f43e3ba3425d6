"""Per-UAV trust evolution, normalized trust rank, and edge committee weights.

Trust follows the exponential-smoothing recurrence
    xi(t+1) = lambda * xi(t) + (1 - lambda) * chi(t)
which is convex, so scores stay inside [0, 1] for behavior scores in [0, 1].

Inputs are not re-checked: the engine's counters only grow, its uptime is
clamped to [0, 1], the scenario has a UAV and an edge, and `_check_invariants`
checks every trust row's chi and xi against [0, 1].
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection

from . import left_sum

if TYPE_CHECKING:
    from .config import TrustSection

NEUTRAL_BEHAVIOR = 0.5


def behavior_score(submitted: int, accepted: int, timely: int,
                   uptime_fraction: float, params: TrustSection) -> float:
    """Fold one consensus window's counters into a behavior score in [0,1].

    A UAV with no submissions in the window gets the neutral score 0.5.
    Dropped/rejected transactions count against both the valid and timely
    fractions (denominator is everything submitted). The weighted mix is
    clamped to 1.0 because validation lets the weights sum to 1 within 1e-9.
    """
    if submitted == 0:
        return NEUTRAL_BEHAVIOR
    valid_frac = min(1.0, accepted / submitted)
    timely_frac = min(1.0, timely / submitted)
    return min(1.0, params.weight_valid * valid_frac
               + params.weight_timely * timely_frac
               + params.weight_uptime * uptime_fraction)


def update_trust(score: float, behavior: float, params: TrustSection) -> float:
    lam = params.smoothing
    return lam * score + (1.0 - lam) * behavior


def trust_rank(scores: dict[str, float]) -> dict[str, float]:
    """Normalize scores so they sum to 1; all-zero input falls back to uniform."""
    total = left_sum(scores[node] for node in sorted(scores))
    if total == 0.0:
        uniform = 1.0 / len(scores)
        return {node: uniform for node in scores}
    return {node: score / total for node, score in scores.items()}


def edge_committee_weights(assignment: dict[str, Collection[str]],
                           scores: dict[str, float]) -> dict[str, float]:
    """Per-edge selection weights: assigned-trust sums over the global sum."""
    sums = {edge: left_sum(scores[u] for u in sorted(uavs))
            for edge, uavs in assignment.items()}
    return trust_rank(sums)

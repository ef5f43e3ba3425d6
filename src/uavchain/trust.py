"""Per-UAV trust evolution, normalized trust rank, and edge committee weights.

Trust follows the exponential-smoothing recurrence
    xi(t+1) = lambda * xi(t) + (1 - lambda) * chi(t)
which is convex, so scores stay inside [0, 1] for behavior scores in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import left_sum

if TYPE_CHECKING:
    from .config import TrustSection

NEUTRAL_BEHAVIOR = 0.5


class TrustError(ValueError):
    pass


@dataclass(frozen=True)
class TrustState:
    score: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise TrustError(f"trust score {self.score} outside [0,1]")


@dataclass(frozen=True)
class BehaviorScore:
    """Weighted mix of valid-fraction, timeliness and uptime, each in [0,1]."""

    value: float
    components: tuple[float, float, float]

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise TrustError(f"behavior score {self.value} outside [0,1]")


def behavior_score(submitted: int, accepted: int, timely: int,
                   uptime_fraction: float, params: TrustSection) -> BehaviorScore:
    """Fold one consensus window's counters into a behavior score.

    A UAV with no submissions in the window gets the neutral score 0.5.
    Dropped/rejected transactions count against both the valid and timely
    fractions (denominator is everything submitted).
    """
    if submitted < 0 or accepted < 0 or timely < 0:
        raise TrustError("window counters must be non-negative")
    if not 0.0 <= uptime_fraction <= 1.0:
        raise TrustError("uptime fraction must be in [0,1]")
    if submitted == 0:
        return BehaviorScore(value=NEUTRAL_BEHAVIOR,
                             components=(NEUTRAL_BEHAVIOR, NEUTRAL_BEHAVIOR,
                                         uptime_fraction))
    valid_frac = min(1.0, accepted / submitted)
    timely_frac = min(1.0, timely / submitted)
    value = (params.weight_valid * valid_frac
             + params.weight_timely * timely_frac
             + params.weight_uptime * uptime_fraction)
    return BehaviorScore(value=value,
                         components=(valid_frac, timely_frac, uptime_fraction))


def update_trust(state: TrustState, behavior: BehaviorScore,
                 params: TrustSection) -> TrustState:
    lam = params.smoothing
    score = lam * state.score + (1.0 - lam) * behavior.value
    return TrustState(score=score)


def trust_rank(scores: dict[str, float]) -> dict[str, float]:
    """Normalize scores so they sum to 1; all-zero input falls back to uniform."""
    if not scores:
        raise TrustError("trust_rank needs at least one node")
    for node, score in scores.items():
        if score < 0.0:
            raise TrustError(f"negative trust score for {node}")
    total = left_sum(scores[node] for node in sorted(scores))
    if total == 0.0:
        uniform = 1.0 / len(scores)
        return {node: uniform for node in scores}
    return {node: score / total for node, score in scores.items()}


def edge_committee_weights(assignment: dict[str, set[str]],
                           scores: dict[str, float]) -> dict[str, float]:
    """Per-edge selection weights: assigned-trust sums over the global sum."""
    if not assignment:
        raise TrustError("empty UAV-to-edge assignment")
    sums = {edge: left_sum(scores[u] for u in sorted(uavs))
            for edge, uavs in assignment.items()}
    return trust_rank(sums)

"""Trust recurrence, behavior scoring, rank normalization, edge weights."""

from fractions import Fraction

import pytest

from uavchain.config import TrustSection
from uavchain.trust import (TrustError, behavior_score,
                            edge_committee_weights, trust_rank, update_trust)


def test_update_trust_hand_case():
    # 0.8 * 0.5 + 0.2 * 1.0 = 0.6
    params = TrustSection(smoothing=0.8)
    assert update_trust(0.5, 1.0, params) == pytest.approx(0.6, abs=1e-15)


def test_update_trust_fixed_point():
    params = TrustSection(smoothing=0.8)
    xi = 0.37
    for _ in range(5):
        xi = update_trust(xi, 0.37, params)
        assert xi == pytest.approx(0.37, abs=1e-12)


@pytest.mark.parametrize("lam", [0.5, 0.8, 0.9, 0.99])
def test_update_trust_geometric_convergence(lam):
    # Distance to a constant behavior target shrinks by exactly lambda.
    params = TrustSection(smoothing=lam)
    target = 0.9
    xi = 0.1
    gap = target - xi
    for step in range(1, 40):
        xi = update_trust(xi, target, params)
        expected = target - gap * lam ** step
        assert xi == pytest.approx(expected, rel=1e-9)


def test_update_trust_matches_rational_oracle():
    lam = Fraction(4, 5)
    xi = Fraction(1, 2)
    chis = [Fraction(1), Fraction(0), Fraction(3, 4), Fraction(1, 3)]
    params = TrustSection(smoothing=float(lam))
    got = float(xi)
    for chi in chis:
        xi = lam * xi + (1 - lam) * chi
        got = update_trust(got, float(chi), params)
        assert got == pytest.approx(float(xi), abs=1e-12)


def test_update_trust_stays_in_unit_interval():
    params = TrustSection(smoothing=0.8)
    xi = 1.0
    for chi in (0.0, 1.0, 0.0, 0.0, 1.0):
        xi = update_trust(xi, chi, params)
        assert 0.0 <= xi <= 1.0


def test_behavior_score_hand_case():
    # 0.5 * 8/10 + 0.3 * 6/10 + 0.2 * 1.0 = 0.78
    got = behavior_score(10, 8, 6, 1.0, TrustSection())
    assert got == pytest.approx(0.78, abs=1e-15)


def test_behavior_score_neutral_when_idle():
    assert behavior_score(0, 0, 0, 1.0, TrustSection()) == 0.5


def test_behavior_score_clamps_overflowing_counters():
    assert behavior_score(2, 5, 5, 1.0, TrustSection()) == pytest.approx(1.0)


def test_behavior_score_custom_weights():
    weights = TrustSection(weight_valid=1.0, weight_timely=0.0,
                           weight_uptime=0.0)
    assert behavior_score(4, 1, 0, 0.0, weights) == pytest.approx(0.25)


def test_behavior_score_rejects_bad_counters():
    with pytest.raises(TrustError):
        behavior_score(-1, 0, 0, 1.0, TrustSection())
    with pytest.raises(TrustError):
        behavior_score(1, 1, 1, 1.5, TrustSection())


def test_trust_rank_normalizes():
    ranks = trust_rank({"a": 3.0, "b": 1.0})
    assert ranks == {"a": 0.75, "b": 0.25}
    assert sum(ranks.values()) == pytest.approx(1.0)


def test_trust_rank_scale_invariance():
    base = {"a": 0.2, "b": 0.3, "c": 0.5}
    scaled = {k: 7.0 * v for k, v in base.items()}
    got = trust_rank(scaled)
    for node, expected in trust_rank(base).items():
        assert got[node] == pytest.approx(expected, rel=1e-12)


def test_trust_rank_uniform_fallback_on_all_zero():
    ranks = trust_rank({"a": 0.0, "b": 0.0, "c": 0.0, "d": 0.0})
    assert all(v == 0.25 for v in ranks.values())


def test_trust_rank_rejects_bad_input():
    with pytest.raises(TrustError):
        trust_rank({})
    with pytest.raises(TrustError):
        trust_rank({"a": -1.0})


def test_edge_weights_hand_case():
    weights = edge_committee_weights(
        {"e0": {"u0", "u1"}, "e1": {"u2"}},
        {"u0": 1.0, "u1": 2.0, "u2": 1.0})
    assert weights == {"e0": 0.75, "e1": 0.25}


def test_edge_weights_single_edge_takes_all():
    weights = edge_committee_weights({"e0": {"u0", "u1"}, "e1": set()},
                                     {"u0": 0.4, "u1": 0.6})
    assert weights["e0"] == pytest.approx(1.0)
    assert weights["e1"] == 0.0


def test_edge_weights_symmetry():
    weights = edge_committee_weights(
        {"e0": {"u0"}, "e1": {"u1"}, "e2": {"u2"}},
        {"u0": 0.5, "u1": 0.5, "u2": 0.5})
    assert all(v == pytest.approx(1 / 3) for v in weights.values())


def test_behavior_score_clamps_weights_summing_past_one():
    # validate accepts weights summing to 1 within 1e-9.
    weights = TrustSection(weight_uptime=0.2000000005)
    assert behavior_score(10, 10, 10, 1.0, weights) == 1.0

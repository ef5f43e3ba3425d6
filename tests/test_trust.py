"""Trust recurrence, behavior scoring, rank normalization, edge weights."""

from fractions import Fraction

import pytest

from uavchain.config import TrustSection
from uavchain.trust import (behavior_score, edge_committee_weights, trust_rank,
                            update_trust)


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


def test_behavior_score_stays_in_the_unit_interval_for_every_engine_input():
    # The engine's counters satisfy 0 <= accepted, timely <= submitted, its
    # uptime is clamped to [0, 1] and validate lets the weights sum to 1
    # within 1e-9; behavior_score checks none of it.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    unit = st.floats(0.0, 1.0)

    def up_to(high):   # the top value often: a full window meets the clamp
        return st.one_of(st.just(high), st.floats(0.0, high))

    @st.composite
    def inputs(draw):
        submitted = draw(st.integers(0, 10_000))
        accepted = draw(st.one_of(st.just(submitted), st.integers(0, submitted)))
        timely = draw(st.one_of(st.just(submitted), st.integers(0, submitted)))
        valid_w = draw(unit)
        timely_w = draw(st.floats(0.0, 1.0 - valid_w))
        slack = draw(up_to(0.9e-9)) - draw(up_to(0.9e-9))
        uptime_w = min(1.0, max(0.0, 1.0 - valid_w - timely_w + slack))
        hypothesis.assume(abs(valid_w + timely_w + uptime_w - 1.0) < 1e-9)
        weights = TrustSection(weight_valid=valid_w, weight_timely=timely_w,
                               weight_uptime=uptime_w)
        return submitted, accepted, timely, draw(up_to(1.0)), weights

    @hypothesis.settings(derandomize=True, max_examples=200, database=None,
                         deadline=None)
    @hypothesis.given(args=inputs())
    def check(args):
        assert 0.0 <= behavior_score(*args) <= 1.0

    check()


def test_trust_rank_of_unit_scores_is_a_distribution():
    # Every engine score is a convex mix of [0, 1] values and there is at
    # least one UAV; trust_rank checks neither.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    score = st.one_of(st.just(0.0), st.floats(0.0, 1.0))

    @hypothesis.settings(derandomize=True, max_examples=200, database=None,
                         deadline=None)
    @hypothesis.given(scores=st.dictionaries(st.text(max_size=4), score,
                                             min_size=1, max_size=50))
    @hypothesis.example(scores={"a": 0.0, "b": 0.0, "c": 0.0})
    def check(scores):
        ranks = trust_rank(scores)
        assert ranks.keys() == scores.keys()
        assert all(0.0 <= rank <= 1.0 for rank in ranks.values())
        assert abs(sum(ranks.values()) - 1.0) <= 1e-12

    check()

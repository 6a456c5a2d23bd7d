from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import votaudit as va
from votaudit.rules import scoring_scores
from oracles import (
    brute_borda_tie_set,
    brute_condorcet_tie_set,
    brute_plurality_tie_set,
    brute_scoring_tie_set,
    pairwise_matrix,
)


def profile_u(p, q):
    """(p: x>y>z, q: y>x>z, 1-p-q: y>z>x)"""
    return va.profile_from({"xyz": p, "yxz": q, "yzx": 1 - p - q})


def cycle_profile():
    return va.profile_from(
        {"xyz": F(1, 3), "yzx": F(1, 3), "zxy": F(1, 3)}, va.CYCLE_DOMAIN)


def grid(denominator, domain=va.FULL_DOMAIN):
    return list(va.grid_profiles(domain, denominator))


def test_borda_scores_formulas_symbolic_shape():
    p, q = F(1, 2), F(3, 10)
    assert va.borda_scores(profile_u(p, q)) == {
        "x": 2 * p + q, "y": 2 - p, "z": 1 - p - q}
    assert va.borda_scores(profile_u(p, q)) == {"x": F(13, 10), "y": F(3, 2), "z": F(1, 5)}


def test_borda_scores_unanimous_strict_dominance_counts():
    u = va.profile_from({"xyz": 1})
    assert va.borda_scores(u) == {"x": 2, "y": 1, "z": 0}


def test_borda_scores_on_two_alternatives_count_dominance():
    # one point per unit of weight ranking the alternative first, none below
    u = profile_u(F(1, 2), F(3, 10))
    assert va.borda_scores(va.restrict_profile(u, {"x", "y"})) == {"x": F(1, 2), "y": F(1, 2)}
    assert va.borda_scores(va.restrict_profile(u, {"x", "z"})) == {"x": F(4, 5), "z": F(1, 5)}
    pair = va.restrict_profile(u, {"y", "z"})
    assert va.borda_scores(pair) == {"y": 1, "z": 0}


def test_condorcet_cycle_has_empty_tie_set():
    assert va.evaluate(va.CONDORCET, cycle_profile()).tie_set == frozenset()


def test_condorcet_winner_above_half():
    u = profile_u(F(3, 5), F(1, 5))
    assert va.evaluate(va.CONDORCET, u).winner == "x"


def test_borda_winner_example():
    u = profile_u(F(3, 5), F(3, 10))
    assert va.borda_scores(u) == {"x": F(3, 2), "y": F(7, 5), "z": F(1, 10)}
    assert va.evaluate(va.BORDA, u).winner == "x"


def test_margins_cycle():
    m = va.condorcet_margins(cycle_profile())
    assert m[("x", "y")] == m[("y", "z")] == m[("z", "x")] == F(2, 3)
    assert all(m[(a, b)] + m[(b, a)] == 1 for (a, b) in m)


def test_margins_unanimous():
    m = va.condorcet_margins(va.profile_from({"xyz": 1}))
    assert m[("x", "y")] == m[("x", "z")] == m[("y", "z")] == 1


def test_margin_boundary_gives_tie():
    u = profile_u(F(1, 2), F(3, 10))
    m = va.condorcet_margins(u)
    assert m[("x", "y")] == F(1, 2)
    out = va.evaluate(va.CONDORCET, u)
    assert out.tie_set == frozenset({"x", "y"}) and out.winner is None


def test_restrict_cycle_to_pair():
    r = va.restrict_profile(cycle_profile(), {"x", "y"})
    assert r.weight(va.Ranking(("x", "y"))) == F(2, 3)
    assert r.weight(va.Ranking(("y", "x"))) == F(1, 3)
    assert sum(r.weights.values()) == 1


def test_restrict_unanimous():
    r = va.restrict_profile(va.profile_from({"xyz": 1}), {"y", "z"})
    assert r.weight(va.Ranking(("y", "z"))) == 1


def test_rule_descriptor_validation():
    with pytest.raises(ValueError):
        va.scoring(1, 2, 0)  # not nonincreasing
    with pytest.raises(ValueError):
        va.scoring(1, 1, 1)  # s1 == s3
    assert str(va.scoring(3, 1, 0)) == "score:3,1,0"
    assert va.parse_rule("score:2,1,0").score_vector == (2, 1, 0)
    with pytest.raises(ValueError):
        va.parse_rule("approval")


@pytest.mark.parametrize("build,message", [
    (lambda: va.RuleDescriptor("bogus"), "unknown rule kind 'bogus'"),
    (lambda: va.RuleDescriptor("scoring"), "scoring rule needs a triple of rationals"),
    (lambda: va.restrict_profile(va.profile_from({"xyz": 1}), {"x"}),
     "restriction target must contain exactly two alternatives"),
    (lambda: va.restrict_profile(va.restrict_profile(va.profile_from({"xyz": 1}), {"x", "y"}),
                                 {"x", "z"}),
     "alternatives ['z'] not in the profile"),
], ids=["unknown-kind", "scoring-without-a-vector", "one-alternative", "off-the-pair"])
def test_rules_and_restrictions_name_what_they_refuse(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_parse_rule_is_memoised_and_refuses_every_time():
    assert va.parse_rule("score:3,1,0") is va.parse_rule("score:3,1,0")
    for _ in range(3):  # a refusal is not cached: each call raises
        with pytest.raises(ValueError, match="degenerate score vector"):
            va.parse_rule("score:1,1,1")


def test_named_rules_carry_their_score_vectors():
    assert va.BORDA.score_vector == (2, 1, 0) and str(va.BORDA) == "borda"
    assert va.PLURALITY.score_vector == (1, 0, 0) and str(va.PLURALITY) == "plurality"
    assert va.CONDORCET.score_vector is None
    assert va.parse_rule("borda") == va.RuleDescriptor("borda", (2, 1, 0)) == va.BORDA
    for rule in (va.BORDA, va.CONDORCET, va.PLURALITY):
        assert va.parse_rule(f" {rule} ") is rule
    with pytest.raises(ValueError):
        va.RuleDescriptor("borda", (3, 1, 0))
    with pytest.raises(ValueError):
        va.RuleDescriptor("condorcet", (1, 0, 0))


def test_score_vectors_refuse_floats():
    with pytest.raises(TypeError, match="float"):
        va.scoring(0.1, 0, 0)  # 0.1 is not 1/10
    with pytest.raises(TypeError, match="float"):
        va.RuleDescriptor("scoring", (0.5, 0, 0))
    rule = va.RuleDescriptor("scoring", (1, "1/2", 0))
    assert rule.score_vector == (1, F(1, 2), 0)
    assert all(isinstance(s, F) for s in rule.score_vector)


def test_borda_equals_scoring_210_on_grid():
    rule = va.scoring(2, 1, 0)
    for profile in grid(5):
        assert va.evaluate(va.BORDA, profile).tie_set == \
            va.evaluate(rule, profile).tie_set


def test_scoring_restriction_uses_vector_prefix():
    u = profile_u(F(3, 5), F(1, 10))
    assert scoring_scores(va.scoring(2, 1, 0), va.restrict_profile(u, {"x", "y"})) == {
        "x": 2 * F(3, 5) + F(2, 5), "y": F(3, 5) + 2 * F(2, 5)}


@pytest.mark.parametrize("rule", [va.BORDA, va.CONDORCET])
def test_neutrality_of_rules_on_grid(rule):
    for profile in grid(4):
        for perm in va.ALL_PERMUTATIONS:
            base = va.evaluate(rule, profile).tie_set
            image = va.evaluate(rule, va.permute_profile(profile, perm)).tie_set
            assert image == frozenset(map(perm, base))


def test_condorcet_tie_set_singleton_when_margins_strict():
    half = F(1, 2)
    for profile in grid(5):
        margins = va.condorcet_margins(profile)
        if all(v != half for v in margins.values()):
            assert len(va.evaluate(va.CONDORCET, profile).tie_set) <= 1


@pytest.mark.parametrize("rule", [va.BORDA, va.CONDORCET])
def test_pareto_consistency_on_grid(rule):
    for profile in grid(5):
        support = profile.support
        for a in va.ALTERNATIVES:
            for b in va.ALTERNATIVES:
                if a != b and support and all(r.prefers(a, b) for r in support):
                    assert b not in va.evaluate(rule, profile).tie_set


def test_oracle_equivalence_small_denominators():
    # every profile with weights in multiples of 1/q for q up to 12
    for q in range(1, 13):
        for profile in grid(q):
            assert va.evaluate(va.BORDA, profile).tie_set == brute_borda_tie_set(profile)
            assert va.evaluate(va.PLURALITY, profile).tie_set == \
                brute_plurality_tie_set(profile)
            assert va.evaluate(va.CONDORCET, profile).tie_set == \
                brute_condorcet_tie_set(profile)


@pytest.mark.parametrize("rule", [va.BORDA, va.PLURALITY, va.scoring(1, 1, 0),
                                  va.scoring(3, 1, 0)])
def test_positional_oracle_equivalence_up_to_eighths(rule):
    for q in range(1, 9):
        for profile in grid(q):
            assert va.evaluate(rule, profile).tie_set == \
                brute_scoring_tie_set(rule.score_vector, profile)


@given(st.lists(st.integers(0, 12), min_size=6, max_size=6).filter(lambda v: sum(v) > 0))
@settings(max_examples=60)
def test_margins_complementarity(parts):
    total = sum(parts)
    profile = va.Profile({r: F(p, total) for r, p in zip(va.RANKINGS, parts) if p})
    margins = va.condorcet_margins(profile)
    matrix = pairwise_matrix(profile)
    for key, value in margins.items():
        assert value == matrix[key]
        assert value + margins[(key[1], key[0])] == 1


@st.composite
def large_denominator_profiles(draw):
    """Profiles with a denominator from 200 to 1000; half of them mirrored, so tied."""
    q = draw(st.integers(200, 1000))
    if draw(st.booleans()):
        # each ranking weighs as much as its reverse: every margin is exactly 1/2
        cuts = sorted(draw(st.lists(st.integers(0, q // 2), min_size=2, max_size=2)))
        half = [cuts[0], cuts[1] - cuts[0], q // 2 - cuts[1]]
        if q % 2:
            q -= 1
        parts = dict(zip(("xyz", "xzy", "yxz"), half))
        parts.update(zip(("zyx", "yzx", "zxy"), half))
    else:
        cuts = sorted(draw(st.lists(st.integers(0, q), min_size=5, max_size=5)))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [q])]
        parts = dict(zip(("xyz", "xzy", "yxz", "yzx", "zxy", "zyx"), sizes))
    return va.profile_from({k: F(n, q) for k, n in parts.items() if n})


@given(large_denominator_profiles())
@settings(max_examples=150)
def test_oracle_equivalence_at_large_denominators(profile):
    assert va.evaluate(va.BORDA, profile).tie_set == brute_borda_tie_set(profile)
    assert va.evaluate(va.PLURALITY, profile).tie_set == brute_plurality_tie_set(profile)
    assert va.evaluate(va.CONDORCET, profile).tie_set == brute_condorcet_tie_set(profile)
    for vector in ((3, 1, 0), (1, 1, 0), (1, F(1, 2), 0), (F(5, 7), F(1, 3), F(-2, 9))):
        rule = va.scoring(*vector)
        assert va.evaluate(rule, profile).tie_set == \
            brute_scoring_tie_set(rule.score_vector, profile)
    assert va.condorcet_margins(profile) == pairwise_matrix(profile)
    # on a pair, every rule with s1 > s2 elects the pairwise majority winner
    matrix = pairwise_matrix(profile)
    for pair in (("x", "y"), ("x", "z"), ("y", "z")):
        a, b = pair
        majority = frozenset(v for v, w in ((a, b), (b, a)) if matrix[(v, w)] >= F(1, 2))
        restricted = va.restrict_profile(profile, pair)
        assert sum(restricted.weights.values()) == 1
        for rule in (va.BORDA, va.PLURALITY, va.CONDORCET, va.scoring(3, 1, 0)):
            assert va.evaluate(rule, restricted).tie_set == majority

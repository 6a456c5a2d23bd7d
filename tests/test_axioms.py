from fractions import Fraction as F

import votaudit as va
from votaudit.axioms import Verdict
from votaudit.rules import Outcome


def profile_u(p, q):
    return va.profile_from({"xyz": p, "yxz": q, "yzx": 1 - p - q})


def constant_rule(alt):
    return lambda profile: Outcome(frozenset((alt,)))


def cycle_profile():
    return va.profile_from(
        {"xyz": F(1, 3), "yzx": F(1, 3), "zxy": F(1, 3)}, va.CYCLE_DOMAIN)


def test_pareto_violation_when_dominated_alternative_wins():
    # everyone on u places y above z; a rule answering z breaks P
    u = profile_u(F(2, 5), F(2, 5))
    report = va.check_pareto(constant_rule("z"), u)
    assert report.verdict is Verdict.VIOLATED
    assert report.counterexample is not None
    # the counterexample replays: same rule, same profile, same winner
    again = constant_rule("z")(report.counterexample.profiles[0])
    assert again == report.counterexample.outcomes[0]


def test_pareto_constant_rule_on_cycle_is_satisfied():
    report = va.check_pareto(constant_rule("x"), cycle_profile())
    assert report.verdict is Verdict.SATISFIED


def test_pareto_borda_never_elects_dominated_z():
    for p_num in range(0, 11):
        for q_num in range(0, 11 - p_num):
            u = profile_u(F(p_num, 10), F(q_num, 10))
            assert va.check_pareto(va.BORDA, u).verdict is Verdict.SATISFIED


def test_neutrality_identity_permutation():
    for rule in (va.BORDA, va.CONDORCET, va.PLURALITY):
        report = va.check_neutrality(rule, profile_u(F(1, 2), F(1, 5)),
                                     va.ALL_PERMUTATIONS[0])
        assert report.satisfied


def test_neutrality_carries_winner_through_renaming():
    # winner y under x->y, y->z, z->x must become z on the renamed profile
    u = profile_u(F(3, 10), F(2, 5))
    assert va.evaluate(va.BORDA, u).winner == "y"
    sigma = va.parse_permutation("x->y,y->z,z->x")
    assert va.evaluate(va.BORDA, va.permute_profile(u, sigma)).winner == "z"
    assert va.check_neutrality(va.BORDA, u, sigma).satisfied


def test_neutrality_violated_by_constant_rule():
    u = profile_u(F(3, 5), F(1, 5))
    sigma = va.parse_permutation("x->y,y->x,z->z")
    report = va.check_neutrality(constant_rule("x"), u, sigma)
    assert report.verdict is Verdict.VIOLATED
    assert report.counterexample.permutation == sigma


def test_anonymity_is_structural():
    for rule in (va.BORDA, va.CONDORCET, va.scoring(3, 1, 0)):
        report = va.check_anonymity_structural(rule)
        assert report.satisfied and "structural" in report.note


def test_iia_unanimous_satisfied():
    report = va.check_iia(va.BORDA, va.profile_from({"xyz": 1}))
    assert report.verdict is Verdict.SATISFIED


def test_iia_not_applicable_without_winner():
    report = va.check_iia(va.CONDORCET, cycle_profile())
    assert report.verdict is Verdict.NOT_APPLICABLE


def find_borda_iia_violation(max_denominator=10):
    for q in range(2, max_denominator + 1):
        for profile in va.grid_profiles(va.FULL_DOMAIN, q):
            report = va.check_iia(va.BORDA, profile)
            if report.verdict is Verdict.VIOLATED:
                return profile, report
    return None, None


def test_iia_violation_for_borda_found_and_reverifies():
    profile, report = find_borda_iia_violation()
    assert report is not None, "grid sweep found no dominance-count persistence failure"
    pair = report.counterexample.pair
    winner = report.counterexample.outcomes[0].winner
    assert winner in pair
    # re-verify: the full winner loses the recorded two-way election
    restricted = va.restrict_profile(profile, pair)
    again = va.evaluate(va.BORDA, restricted)
    assert again == report.counterexample.outcomes[1]
    assert again.winner is not None and again.winner != winner


def test_iia_condorcet_never_violated_on_grid():
    for q in (4, 5, 6, 8, 12):
        for profile in va.grid_profiles(va.FULL_DOMAIN, q):
            verdict = va.check_iia(va.CONDORCET, profile).verdict
            assert verdict is not Verdict.VIOLATED


def test_every_rule_fails_some_axiom_on_the_full_domain():
    # decisiveness/P/IIA cannot all hold at desk scale: the pairwise rule is
    # indecisive on the cycle, and the positional rules fail IIA somewhere
    assert va.evaluate(va.CONDORCET, cycle_profile()).winner is None
    for rule in (va.BORDA, va.PLURALITY, va.scoring(3, 1, 0)):
        found = False
        for q in range(2, 11):
            for profile in va.grid_profiles(va.FULL_DOMAIN, q):
                if va.check_iia(rule, profile).verdict is Verdict.VIOLATED:
                    found = True
                    break
            if found:
                break
        assert found, f"{rule} shows no persistence failure at desk scale"


def test_report_serialization():
    u = profile_u(F(3, 10), F(2, 5))
    report = va.check_neutrality(constant_rule("x"),
                                 u, va.parse_permutation("x->y,y->x,z->z"))
    assert report.record() == "axiom=N verdict=violated"
    text = report.text()
    assert "axiom N: violated" in text and "domain: full" in text


PAIR_RULES = (va.BORDA, va.CONDORCET, va.PLURALITY, va.scoring(3, 1, 0))


def test_pareto_and_iia_check_a_pair_profile_on_its_own_pair():
    # `evaluate` and `check_neutrality` take a profile over two alternatives, so
    # P and IIA must too: they range over the profile's alternatives only
    for a, b in (("x", "y"), ("x", "z"), ("y", "z")):
        ab, ba = va.Ranking((a, b)), va.Ranking((b, a))
        domain = va.Domain((ab, ba))
        for p in (F(1), F(3, 5), F(1, 2), F(0)):
            profile = va.Profile({ab: p, ba: 1 - p}, domain)
            for rule in PAIR_RULES:
                winner = va.evaluate(rule, profile).winner
                assert winner == {F(1): a, F(3, 5): a, F(0): b}.get(p)
                assert va.check_pareto(rule, profile).verdict is Verdict.SATISFIED
                # the only pair is the profile itself, so a winner persists there
                iia = va.check_iia(rule, profile)
                assert iia.verdict is (Verdict.SATISFIED if winner else Verdict.NOT_APPLICABLE)
                assert va.restrict_profile(profile, (a, b)) == profile
            if p == 1:  # everyone places a above b, so a rule answering b breaks P
                report = va.check_pareto(constant_rule(b), profile)
                assert report.verdict is Verdict.VIOLATED
                assert report.note == f"every voter places {a} above {b}, yet {b} wins"

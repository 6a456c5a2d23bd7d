import itertools
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

import oracles
import votaudit as va
from votaudit.axioms import Election, Verdict, _dominations
from votaudit.core import relabel
from votaudit.rules import _RESTRICTIONS, Outcome, evaluate


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
    sigma = va.CandidatePermutation.from_mapping({"x": "y", "y": "z", "z": "x"})
    assert va.evaluate(va.BORDA, va.permute_profile(u, sigma)).winner == "z"
    assert va.check_neutrality(va.BORDA, u, sigma).satisfied


def test_neutrality_violated_by_constant_rule():
    u = profile_u(F(3, 5), F(1, 5))
    sigma = va.CandidatePermutation.from_mapping({"x": "y", "y": "x", "z": "z"})
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
    swap = va.CandidatePermutation.from_mapping({"x": "y", "y": "x", "z": "z"})
    report = va.check_neutrality(constant_rule("x"), u, swap)
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


# -- the derived elections, evaluated on the profile's counts -------------------

#: The full domain, the cycle, a four-ranking domain, one ranking, and each pair's two.
_DOMAINS = (va.FULL_DOMAIN, va.CYCLE_DOMAIN, va.parse_domain("{x>y>z, y>x>z, y>z>x, z>y>x}"),
            va.parse_domain("{x>y>z}"),
            *(va.Domain((va.Ranking(p), va.Ranking(p[::-1])))
              for p in itertools.combinations(va.ALTERNATIVES, 2)))


@st.composite
def domain_profiles(draw):
    """A profile on one of `_DOMAINS`, its counts over a denominator up to 60 (zeros
    allowed), so restrictions and whole elections often tie."""
    domain = draw(st.sampled_from(_DOMAINS))
    den = draw(st.integers(1, 60))
    cuts = sorted(draw(st.lists(st.integers(0, den), min_size=len(domain) - 1,
                                max_size=len(domain) - 1)))
    counts = [b - a for a, b in zip([0, *cuts], [*cuts, den])]
    return va.Profile({r: F(c, den) for r, c in zip(domain, counts)}, domain)


_score_vectors = st.lists(st.fractions(-3, 3, max_denominator=6), min_size=3, max_size=3) \
    .map(lambda v: sorted(v, reverse=True)).filter(lambda v: v[0] > v[2])


def _slot_maps(profile):
    """Every renaming's slot map, and the restriction to each pair of the profile's
    alternatives (a pair profile's own pair only)."""
    pairs = itertools.combinations(sorted(profile.alternatives), 2)
    return [perm._slots for perm in va.ALL_PERMUTATIONS] + \
        [_RESTRICTIONS[frozenset(pair)] for pair in pairs]


@given(domain_profiles(), _score_vectors)
@settings(max_examples=300)
def test_image_evaluation_equals_evaluating_the_relabeled_profile(profile, vector):
    for rule in (va.BORDA, va.PLURALITY, va.CONDORCET, va.scoring(*vector)):
        for images in _slot_maps(profile):
            assert evaluate(rule, profile, images) == \
                va.evaluate(rule, relabel(profile, images))


@given(domain_profiles())
@settings(max_examples=300)
def test_dominations_by_mask_equal_the_reference(profile):
    assert _dominations(profile) == oracles.dominations(profile)


def _reports(rule, profile):
    return [va.check_pareto(rule, profile),
            *[va.check_neutrality(rule, profile, perm) for perm in va.ALL_PERMUTATIONS],
            va.check_iia(rule, profile)]


def _assert_descriptor_and_callable_report_alike(rule, profile):
    """A descriptor, which scores the derived elections on counts, reports as the callable
    that evaluates each derived profile, and as an `Election` on the profile; equal reports
    hold equal verdicts, notes, counterexample profiles and outcomes."""
    expected = _reports(lambda p: va.evaluate(rule, p), profile)
    assert _reports(rule, profile) == expected
    assert _reports(Election(rule, profile), profile) == expected
    return expected


@given(domain_profiles(), _score_vectors)
@settings(max_examples=200)
def test_checkers_report_alike_for_a_descriptor_and_its_callable(profile, vector):
    for rule in (va.BORDA, va.PLURALITY, va.CONDORCET, va.scoring(*vector)):
        _assert_descriptor_and_callable_report_alike(rule, profile)


#: At grid 5 Borda and score:3,1,0 violate IIA; at grid 6 restrictions tie.
_IIA_PROFILES = [*va.grid_profiles(va.FULL_DOMAIN, 5), *va.grid_profiles(va.FULL_DOMAIN, 6),
                 *va.grid_profiles(va.CYCLE_DOMAIN, 6)]
_IIA_RULES = (va.BORDA, va.PLURALITY, va.CONDORCET, va.scoring(3, 1, 0))


def test_checkers_report_alike_on_iia_violations_and_tied_restrictions():
    seen = set()
    for rule in _IIA_RULES:
        for profile in _IIA_PROFILES:
            iia = _assert_descriptor_and_callable_report_alike(rule, profile)[-1]
            seen.add((iia.verdict, iia.counterexample is not None))
    # both kinds of IIA counterexample occur: a violation, and a tied restriction
    assert {(Verdict.VIOLATED, True), (Verdict.NOT_APPLICABLE, True)} <= seen


def test_iia_reports_as_the_restriction_reference():
    """`check_iia` scores each pair on the profile's counts; the reference evaluates each
    `restrict_profile` profile, so a wrong choice of counterexample pair shows here."""
    # under plurality z wins both: the first ties x on {x, z} and loses to y on {y, z},
    # the second loses to x on {x, z} and ties y on {y, z}; each reports its lost pair
    tied_first = va.profile_from({"zxy": F(2, 5), "yzx": F(1, 10), "yxz": F(1, 4),
                                  "xyz": F(1, 4)})
    lost_first = va.profile_from({"zyx": F(3, 10), "zxy": F(1, 10), "xzy": F(1, 10),
                                  "xyz": F(1, 4), "yxz": F(1, 5), "yzx": F(1, 20)})
    assert oracles.iia(va.PLURALITY, tied_first)[::2] == ("violated", frozenset("yz"))
    assert oracles.iia(va.PLURALITY, lost_first)[::2] == ("violated", frozenset("xz"))
    for rule in _IIA_RULES:
        for profile in [*_IIA_PROFILES, tied_first, lost_first]:
            report = va.check_iia(rule, profile)
            pair = report.counterexample and report.counterexample.pair
            assert (report.verdict.value, report.note, pair) == oracles.iia(rule, profile)


def test_an_election_reports_as_its_callable_rule_does():
    # a callable rule keeps the profile path: the renamed profile is its to judge
    u = profile_u(F(3, 5), F(1, 5))
    rule = constant_rule("x")
    assert _reports(Election(rule, u), u) == _reports(rule, u)
    # N fails under the four renamings that move x
    assert sum(r.verdict is Verdict.VIOLATED for r in _reports(rule, u)) == 4
    # an election on another profile stands for its rule alone
    assert _reports(Election(va.BORDA, cycle_profile()), u) == _reports(va.BORDA, u)

import math
from dataclasses import replace
from fractions import Fraction as F

import pytest

import votaudit as va
from votaudit.manipulation import _PAIRS, NongenericProfileError, _model
from oracles import exhaustive_witness

R = va.ranking

UI_DOMAIN = va.Domain((R("xyz"), R("yzx"), R("yxz"), R("zyx")))


def text(witness):
    return None if witness is None else va.format_witness(witness)


def near_tie_plurality():
    return va.profile_from({"xyz": F(7, 20), "yxz": F(17, 50), "zyx": F(31, 100)})


def near_tie_borda():
    return va.profile_from({"xyz": F(17, 50), "yzx": F(67, 200), "zxy": F(13, 40)})


def test_audit_config_validation():
    with pytest.raises(ValueError):
        va.AuditConfig(F(0), 20, 100)
    with pytest.raises(ValueError):
        va.AuditConfig(F(1, 20), 0, 100)
    assert va.AuditConfig(F(1, 20), 20, 100).max_units == 4
    assert va.AuditConfig(F(3, 100), 20, 100).max_units == 2
    assert va.AuditConfig(F(1, 30), 20, 100).max_units == 3


def test_audit_config_refuses_a_float_epsilon():
    # 0.05 is 3602879701896397/72057594037927936, just above 1/20: it would admit
    # a coalition of exactly 1/20 (max_units 5, not 4)
    with pytest.raises(TypeError, match="float"):
        va.AuditConfig(0.05, 20, 100)
    assert va.AuditConfig("1/20", 20, 100).epsilon == F(1, 20)


def test_verify_witness_plurality_example():
    witness = va.ManipulationWitness(
        near_tie_plurality(),
        ((R("zyx"), R("yzx"), F(1, 50)),),
        "x", "y", F(1, 20),
    )
    assert va.verify_witness(va.PLURALITY, witness)


def test_verify_witness_rejects_empty_coalition():
    witness = va.ManipulationWitness(near_tie_plurality(), (), "x", "x", F(1, 20))
    check = va.verify_witness(va.PLURALITY, witness)
    assert not check and "empty" in check.reason


def test_verify_witness_rejects_non_gaining_mover():
    # movers with true ranking x>y>z do not prefer y over x
    witness = va.ManipulationWitness(
        near_tie_plurality(),
        ((R("xyz"), R("yzx"), F(1, 50)),),
        "x", "y", F(1, 20),
    )
    check = va.verify_witness(va.PLURALITY, witness)
    assert not check and "gain" in check.reason


def test_verify_witness_rejects_overdraw_and_size():
    base = near_tie_plurality()
    over = va.ManipulationWitness(
        base, ((R("zyx"), R("yzx"), F(1, 2)),), "x", "y", F(1, 20))
    assert "size" in va.verify_witness(va.PLURALITY, over).reason \
        or "infeasible" in va.verify_witness(va.PLURALITY, over).reason
    big_eps = va.ManipulationWitness(
        base, ((R("zyx"), R("yzx"), F(1, 50)),), "x", "y", F(1, 100))
    assert not va.verify_witness(va.PLURALITY, big_eps)


def test_find_manipulation_plurality_example():
    witness = va.find_manipulation(
        va.PLURALITY, near_tie_plurality(), va.AuditConfig(F(1, 20), 20, 100))
    assert witness.moves == ((R("zyx"), R("yzx"), F(1, 50)),)
    assert (witness.old_outcome, witness.new_outcome) == ("x", "y")
    assert witness.size == F(1, 50)
    assert va.verify_witness(va.PLURALITY, witness)


def test_find_manipulation_borda_near_tie_example():
    witness = va.find_manipulation(
        va.BORDA, near_tie_borda(), va.AuditConfig(F(1, 100), 200, 500))
    assert witness.moves == ((R("zxy"), R("xzy"), F(3, 500)),)
    assert (witness.old_outcome, witness.new_outcome) == ("y", "x")
    assert va.verify_witness(va.BORDA, witness)


def test_find_manipulation_none_on_cycle_domain_borda():
    base = va.profile_from(
        {"xyz": F(5, 12), "yzx": F(3, 12), "zxy": F(4, 12)}, va.CYCLE_DOMAIN)
    assert va.evaluate(va.BORDA, base).winner == "x"
    assert va.find_manipulation(va.BORDA, base, va.AuditConfig(F(1, 20), 12, 100)) is None


def test_find_manipulation_requires_generic_base():
    tie = va.profile_from({"xyz": F(1, 2), "yxz": F(1, 2)})
    with pytest.raises(NongenericProfileError):
        va.find_manipulation(va.PLURALITY, tie, va.AuditConfig(F(1, 20), 20, 100))


def test_audit_borda_on_cycle_domain_finds_nothing():
    assert va.audit_wsp(va.BORDA, va.CYCLE_DOMAIN,
                        va.AuditConfig(F(1, 20), 12, 100)) is None


def test_audit_veto_on_family_one_domain_finds_nothing():
    # y is never ranked last on this domain, so the (1,1,0) rule elects y on
    # every generic profile; a constant-valued rule admits no witness at all.
    assert va.audit_wsp(va.scoring(1, 1, 0), UI_DOMAIN,
                        va.AuditConfig(F(1, 20), 12, 100)) is None


def test_audit_borda_on_family_one_domain_finds_witness():
    # the dominance count differs from pairwise majority on this rich domain,
    # and at a mesh-compatible epsilon the audit exhibits the manipulation
    witness = va.audit_wsp(va.BORDA, UI_DOMAIN, va.AuditConfig(F(1, 8), 12, 100))
    assert witness is not None
    assert witness.base_profile.weights == {
        R("yxz"): F(1, 12), R("yzx"): F(1, 3), R("zyx"): F(7, 12)}
    assert witness.moves == ((R("yzx"), R("yxz"), F(9, 100)),)
    assert (witness.old_outcome, witness.new_outcome) == ("z", "y")
    assert va.verify_witness(va.BORDA, witness)


def test_plurality_grid_gap_blocks_witnesses_below_mesh():
    # On a 1/g grid the first-place gap is at least 1/g, the displaced mass
    # can raise the challenger by strictly less than epsilon, and the current
    # winner's own voters never join; so no witness exists for epsilon <= 1/g.
    assert va.audit_wsp(va.PLURALITY, va.FULL_DOMAIN,
                        va.AuditConfig(F(1, 8), 8, 16)) is None


def test_monotonicity_in_epsilon():
    witness = va.find_manipulation(
        va.PLURALITY, near_tie_plurality(), va.AuditConfig(F(1, 20), 20, 100))
    for loosened in (F(1, 10), F(1, 2)):
        assert va.verify_witness(va.PLURALITY, replace(witness, epsilon=loosened))


def test_refinement_soundness():
    coarse = va.find_manipulation(
        va.PLURALITY, near_tie_plurality(), va.AuditConfig(F(1, 20), 20, 100))
    fine = va.find_manipulation(
        va.PLURALITY, near_tie_plurality(), va.AuditConfig(F(1, 20), 20, 200))
    assert va.verify_witness(va.PLURALITY, coarse)
    assert fine is not None and fine.size <= coarse.size


def test_determinism_of_search_and_audit():
    config = va.AuditConfig(F(1, 8), 12, 100)
    first = va.audit_wsp(va.BORDA, UI_DOMAIN, config)
    second = va.audit_wsp(va.BORDA, UI_DOMAIN, config)
    assert va.format_witness(first) == va.format_witness(second)


def test_grid_profiles_canonical_order_and_count():
    profiles = list(va.grid_profiles(va.CYCLE_DOMAIN, 4))
    assert len(profiles) == 15  # multisets of size 4 over 3 rankings
    assert profiles[0].weight(R("zxy")) == 1  # all mass on the last ranking first
    assert profiles[-1].weight(R("xyz")) == 1
    assert len(set(map(str, profiles))) == len(profiles)


@pytest.mark.parametrize("rule", [va.PLURALITY, va.BORDA, va.CONDORCET,
                                  va.scoring(3, 1, 0), va.scoring(1, 1, 0)])
def test_oracle_equivalence_full_domain_grid4(rule):
    config = va.AuditConfig(F(3, 4), 4, 4)
    for profile in va.grid_profiles(va.FULL_DOMAIN, 4):
        if va.evaluate(rule, profile).winner is None:
            continue
        found = va.find_manipulation(rule, profile, config)
        assert text(found) == text(exhaustive_witness(rule, profile, config))
        if found is not None:
            assert va.verify_witness(rule, found)


@pytest.mark.parametrize("rule", [va.PLURALITY, va.BORDA, va.CONDORCET,
                                  va.scoring(3, 1, 0), va.scoring(1, 1, 0)])
def test_oracle_equivalence_cycle_domain_grid6(rule):
    config = va.AuditConfig(F(1, 2), 6, 6)
    for profile in va.grid_profiles(va.CYCLE_DOMAIN, 6):
        if va.evaluate(rule, profile).winner is None:
            continue
        found = va.find_manipulation(rule, profile, config)
        assert text(found) == text(exhaustive_witness(rule, profile, config))


def test_oracle_equivalence_full_domain_grid8_sample():
    # denominator-8 grid, deterministic subsample to stay quick
    config = va.AuditConfig(F(3, 8), 8, 8)
    profiles = list(va.grid_profiles(va.FULL_DOMAIN, 8))
    for profile in profiles[::17]:
        if va.evaluate(va.BORDA, profile).winner is None:
            continue
        found = va.find_manipulation(va.BORDA, profile, config)
        assert text(found) == text(exhaustive_witness(va.BORDA, profile, config))


def test_witness_serialization_round_trips_profile():
    witness = va.find_manipulation(
        va.PLURALITY, near_tie_plurality(), va.AuditConfig(F(1, 20), 20, 100))
    text = va.format_witness(witness)
    lines = text.splitlines()
    profile_block = "\n".join(
        line for line in lines if "->" not in line and not line.startswith("old="))
    assert va.parse_profile(profile_block) == witness.base_profile
    assert lines[-1] == "old=x new=y size=1/50"


#: Rules of the lattice-scaling cases: a fractional score vector included.
_SCALED_RULES = [va.PLURALITY, va.BORDA, va.CONDORCET, va.scoring(1, F(1, 2), 0)]


@pytest.mark.parametrize("rule", _SCALED_RULES, ids=str)
@pytest.mark.parametrize("domain,config,stride", [
    (va.FULL_DOMAIN, va.AuditConfig(F(1, 3), 7, 9), 17),
    (va.FULL_DOMAIN, va.AuditConfig(F(1, 5), 6, 14), 13),
    (va.CYCLE_DOMAIN, va.AuditConfig(F(2, 3), 9, 6), 1),
    (va.CYCLE_DOMAIN, va.AuditConfig(F(3, 7), 7, 7), 1),
], ids=["full-7x9", "full-6x14", "cycle-9x6", "cycle-7x7"])
def test_oracle_equivalence_at_lattice_scale(rule, domain, config, stride):
    # the search runs at L = lcm(grid, moves): above the grid's own denominator
    # when moves differ from it, and odd at 7x7, where a margin reaches a half
    # only at ceil(L/2); a deterministic subsample keeps the oracle quick
    for profile in list(va.grid_profiles(domain, config.grid_denominator))[::stride]:
        if va.evaluate(rule, profile).winner is None:
            continue
        found = va.find_manipulation(rule, profile, config)
        assert text(found) == text(exhaustive_witness(rule, profile, config))
        if found is not None:
            assert va.verify_witness(rule, found)


def _with_rest(last, **weights):
    """A profile on which ranking `last` holds the weight the others leave."""
    return va.profile_from({**weights, last: 1 - sum(weights.values())})


#: Near ties whose weights mix the coprime denominators 997 and 7.
_COPRIME_PROFILES = [
    _with_rest("zyx", xyz=F(2, 7) + F(40, 997), yxz=F(2, 7)),
    _with_rest("zxy", xyz=F(3, 7) - F(1, 997), yzx=F(2, 7)),
    _with_rest("zyx", xzy=F(350, 997), yxz=F(1, 7), yzx=F(1, 7)),
    _with_rest("zyx", xzy=F(33, 140), yxz=F(37, 140), yzx=F(31, 280), zxy=F(1, 8) + F(5, 997)),
]


@pytest.mark.parametrize("rule", _SCALED_RULES + [va.scoring(3, 1, 0)], ids=str)
def test_find_manipulation_on_coprime_denominators(rule):
    witnesses = 0
    for profile in _COPRIME_PROFILES:
        if va.evaluate(rule, profile).winner is None:
            continue
        for config in (va.AuditConfig(F(1, 3), 20, 10), va.AuditConfig(F(2, 11), 20, 11),
                       va.AuditConfig(F(1, 2), 20, 6)):
            found = va.find_manipulation(rule, profile, config)
            assert text(found) == text(exhaustive_witness(rule, profile, config))
            if found is not None:
                assert va.verify_witness(rule, found)
                witnesses += 1
    assert witnesses > 0


def _first_witness_by_definition(rule, domain, config):
    """audit_wsp as defined: find_manipulation over the generic grid profiles, in order."""
    for profile in va.grid_profiles(domain, config.grid_denominator):
        try:
            witness = va.find_manipulation(rule, profile, config)
        except NongenericProfileError:
            continue
        if witness is not None:
            return witness
    return None


@pytest.mark.parametrize("rule", [va.PLURALITY, va.BORDA, va.CONDORCET,
                                  va.scoring(3, 1, 0), va.scoring(1, 1, 0)], ids=str)
@pytest.mark.parametrize("domain", [va.FULL_DOMAIN, va.CYCLE_DOMAIN, UI_DOMAIN],
                         ids=["full", "cycle", "ui"])
@pytest.mark.parametrize("config", [va.AuditConfig(F(2, 3), 7, 6),
                                    va.AuditConfig(F(1, 2), 8, 6),
                                    va.AuditConfig(F(3, 10), 6, 10)],
                         ids=["7x6", "8x6", "6x10"])
def test_audit_wsp_is_the_first_grid_witness(rule, domain, config):
    expected = _first_witness_by_definition(rule, domain, config)
    assert text(va.audit_wsp(rule, domain, config)) == text(expected)


@pytest.mark.parametrize("rule", [va.PLURALITY, va.BORDA, va.scoring(3, 1, 0),
                                  va.scoring(1, F(1, 2), 0)], ids=str)
def test_root_extremes_on_the_full_domain_are_the_hand_derived_bound(rule):
    # A source ranking target above old, at positions p_t < p_o, moving one
    # count raises score(target) - score(old) by at most (s1 - s[p_t]) +
    # (s[p_o] - s3); over p_t < p_o that is max(s1 - s2, s2 - s3), times D.
    model = _model(rule.score_vector, va.FULL_DOMAIN)
    d = math.lcm(*(s.denominator for s in rule.score_vector))
    s1, s2, s3 = (s * d for s in rule.score_vector)
    for old in va.ALTERNATIVES:
        for target in va.ALTERNATIVES:
            if target != old:
                hi, _ = model.reach[old, target]
                assert hi[_PAIRS.index((target, old))] == max(s1 - s2, s2 - s3)


def test_two_alternative_domain_is_refused_up_front():
    xy, yx = va.Ranking(("x", "y")), va.Ranking(("y", "x"))
    domain = va.Domain((xy, yx))
    profile = va.Profile({xy: F(1, 3), yx: F(2, 3)}, domain)
    assert va.evaluate(va.BORDA, profile).winner == "y"
    config = va.AuditConfig(F(1, 20))
    with pytest.raises(ValueError, match="all of x, y, z"):
        va.find_manipulation(va.BORDA, profile, config)
    with pytest.raises(ValueError, match="all of x, y, z"):
        va.audit_wsp(va.BORDA, domain, config)

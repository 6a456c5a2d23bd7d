import gc
import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction as F
from operator import mul
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import votaudit as va
from votaudit.manipulation import (_GROUPS, _OVER, _PAIRS, _RIVALS, NongenericProfileError,
                                   _Branch, _Lattice, _lex_counts, _model, _symmetries)
import oracles
from oracles import exhaustive_witness

R = va.ranking

#: Also the four-ranking domain of the benchmark's sweep; x<->z maps it onto itself.
UI_DOMAIN = va.Domain((R("xyz"), R("yzx"), R("yxz"), R("zyx")))
#: The cycle domain plus x>z>y: no renaming but the identity maps it onto itself.
EXPANDED_CYCLE = va.parse_domain("{x>y>z, y>z>x, z>x>y, x>z>y}")
ROTATE = va.CandidatePermutation.from_mapping({"x": "y", "y": "z", "z": "x"})
SWAP_XY = va.CandidatePermutation.from_mapping({"x": "y", "y": "x", "z": "z"})


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
    assert va.AuditConfig(F(1), 20, 100).max_units == 99
    assert va.AuditConfig(F(10**6), 20, 100).max_units == 100  # the whole mass
    # `math.lcm` would refuse these later, in the middle of an audit, with a `TypeError`
    for grid, moves in [(2.5, 100), (20, 2.5), (F(20), 100), (20, F(100)), ("20", 100),
                        (True, 100), (20, False)]:
        with pytest.raises(ValueError, match="^denominators must be integers$"):
            va.AuditConfig("1/10", grid, moves)


def test_an_epsilon_above_the_whole_mass_answers_as_epsilon_two(monkeypatch):
    # No coalition moves more than the whole mass, so every epsilon above 1
    # admits the same coalitions, and each branch is searched at most once per
    # unit count up to `moves`: at epsilon 10**6 the loop would run 10**8 times.
    search, calls = _Branch.search, {}

    def counting(branch, total_units):  # keyed by the branch, which the dict keeps alive
        calls[branch] = calls.get(branch, 0) + 1
        return search(branch, total_units)
    monkeypatch.setattr(_Branch, "search", counting)
    for moves in (6, 20):
        huge, two = va.AuditConfig(F(10**6), 2, moves), va.AuditConfig(F(2), 2, moves)
        for rule in (va.BORDA, va.PLURALITY, va.CONDORCET):
            assert text(va.audit_wsp(rule, va.FULL_DOMAIN, huge)) == \
                text(va.audit_wsp(rule, va.FULL_DOMAIN, two))
            for profile in (near_tie_plurality(), near_tie_borda()):
                if va.evaluate(rule, profile).winner is not None:
                    assert text(va.find_manipulation(rule, profile, huge)) == \
                        text(va.find_manipulation(rule, profile, two))
        assert calls and max(calls.values()) <= moves
        calls.clear()


def test_audit_config_refuses_a_float_epsilon():
    # 0.05 is 3602879701896397/72057594037927936, just above 1/20: it would admit
    # a coalition of exactly 1/20 (max_units 5, not 4)
    with pytest.raises(TypeError, match="float"):
        va.AuditConfig(0.05, 20, 100)
    assert va.AuditConfig("1/20", 20, 100).epsilon == F(1, 20)


def test_a_witness_makes_its_amounts_and_epsilon_exact():
    # a float is already rounded, so it is refused where the witness is built; text is
    # read exactly
    base, arc = near_tie_plurality(), (R("zyx"), R("yzx"))
    for amount, epsilon in ((0.02, F(1, 20)), (F(1, 50), 0.05)):
        with pytest.raises(TypeError, match="float"):
            va.ManipulationWitness(base, ((*arc, amount),), "x", "y", epsilon)
    witness = va.ManipulationWitness(base, ((*arc, "1/50"),), "x", "y", F(1, 20))
    assert witness.moves == ((*arc, F(1, 50)),) and witness.size == F(1, 50)
    assert va.verify_witness(va.PLURALITY, witness)


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


#: x wins plurality with 2/5 against 3/10 each; 3/20 of y>z>x reporting z>y>x elects z.
_FLIP_BASE = va.profile_from({"xyz": F(2, 5), "yzx": F(3, 10), "zyx": F(3, 10)})
_FLIP = ((R("yzx"), R("zyx"), F(3, 20)),)


@pytest.mark.parametrize("base,moves,old,new,epsilon,reason", [
    (_FLIP_BASE, ((R("yzx"), R("zyx"), F(0)),), "x", "z", F(1, 5),
     "empty coalition: no outcome change is possible"),
    (_FLIP_BASE, (*_FLIP, (R("xyz"), R("yxz"), F(-1, 20))), "x", "z", F(1, 5),
     "negative move amount"),
    (va.profile_from({"xyz": F(2, 5), "yzx": F(1, 5), "zyx": F(2, 5)}), _FLIP, "x", "z", F(1, 5),
     "nongeneric: base profile has no winner (tie {x, z})"),
    (_FLIP_BASE, _FLIP, "y", "z", F(1, 5), "old outcome mismatch: rule gives x"),
    (_FLIP_BASE, ((R("yzx"), R("zyx"), F(2, 5)),), "x", "z", F(1, 2),
     "infeasible moves: transfer of 2/5 exceeds the weight 3/10 on y>z>x"),
    (_FLIP_BASE, ((R("yzx"), R("zyx"), F(1, 10)),), "x", "z", F(1, 5),
     "nongeneric: misreported profile has no winner (tie {x, z})"),
    (_FLIP_BASE, _FLIP, "x", "y", F(1, 5), "new outcome mismatch: rule gives z"),
    (_FLIP_BASE, (*_FLIP, (R("xyz"), R("xzy"), F(1, 20))), "x", "z", F(1, 5),
     "coalition member x>y>z does not strictly gain from the change"),
    (_FLIP_BASE, _FLIP, "x", "z", F(3, 20), "coalition size 3/20 is not below 3/20"),
], ids=["empty", "negative", "base-nongeneric", "old-mismatch", "infeasible",
        "moved-nongeneric", "new-mismatch", "mover-does-not-gain", "size"])
def test_verify_witness_names_why_a_broken_witness_fails(base, moves, old, new, epsilon, reason):
    assert va.verify_witness(va.PLURALITY, va.ManipulationWitness(_FLIP_BASE, _FLIP, "x", "z",
                                                                  F(1, 5)))
    check = va.verify_witness(va.PLURALITY, va.ManipulationWitness(base, moves, old, new, epsilon))
    assert (check.ok, check.reason) == (False, reason)


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


@pytest.mark.parametrize("rule,weights,text", [
    (va.PLURALITY, {"xyz": F(1, 2), "yxz": F(1, 2)}, "base profile has no winner (tie {x, y})"),
    (va.CONDORCET, {"xyz": F(1, 3), "yzx": F(1, 3), "zxy": F(1, 3)},
     "base profile has no winner (empty)"),
])
def test_nongeneric_base_error_text(rule, weights, text):
    with pytest.raises(NongenericProfileError) as caught:
        va.find_manipulation(rule, va.profile_from(weights), va.AuditConfig(F(1, 20), 20, 100))
    assert str(caught.value) == text


def test_audit_skips_nongeneric_profiles_without_an_error(monkeypatch):
    class Unbuildable(Exception):
        def __init__(self, *args):
            raise AssertionError("a grid audit built a NongenericProfileError")
    monkeypatch.setattr(va.manipulation, "NongenericProfileError", Unbuildable)
    # the cycle's grid-6 profiles include ties under plurality and cycles under Condorcet
    for rule in (va.PLURALITY, va.CONDORCET):
        assert va.audit_wsp(rule, va.CYCLE_DOMAIN, va.AuditConfig(F(1, 100), 6, 100)) is None


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


def test_grid_profiles_equal_the_fraction_built_profiles():
    combos = sorted(c for c in itertools.product(range(7), repeat=6) if sum(c) == 6)
    expected = [va.Profile({r: F(n, 6) for r, n in zip(va.RANKINGS, c)}, va.FULL_DOMAIN)
                for c in combos]
    assert list(va.grid_profiles(va.FULL_DOMAIN, 6)) == expected


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


#: The audits of the first-witness and cut tests: 5 rules x 7 domains x 3 meshes.
_AUDIT_RULES = pytest.mark.parametrize("rule", [va.PLURALITY, va.BORDA, va.CONDORCET,
                                                va.scoring(3, 1, 0), va.scoring(1, 1, 0)],
                                       ids=str)
_AUDIT_DOMAINS = pytest.mark.parametrize("domain", [
    va.FULL_DOMAIN, va.CYCLE_DOMAIN, UI_DOMAIN, va.CYCLE_DOMAIN.permute(SWAP_XY),
    UI_DOMAIN.permute(ROTATE), EXPANDED_CYCLE, EXPANDED_CYCLE.permute(SWAP_XY),
], ids=["full", "cycle", "ui", "cycle-renamed", "ui-renamed", "expanded-cycle",
        "expanded-cycle-renamed"])
_AUDIT_MESHES = pytest.mark.parametrize("config", [va.AuditConfig(F(2, 3), 7, 6),
                                                   va.AuditConfig(F(1, 2), 8, 6),
                                                   va.AuditConfig(F(3, 10), 6, 10)],
                                        ids=["7x6", "8x6", "6x10"])


@_AUDIT_RULES
@_AUDIT_DOMAINS
@_AUDIT_MESHES
def test_audit_wsp_is_the_first_grid_witness(rule, domain, config):
    expected = _first_witness_by_definition(rule, domain, config)
    assert text(va.audit_wsp(rule, domain, config)) == text(expected)


@_AUDIT_RULES
@_AUDIT_DOMAINS
@_AUDIT_MESHES
def test_the_subtree_cut_drops_no_manipulable_first(rule, domain, config):
    # Every orbit first that audit_wsp's cut drops is nongeneric or clean, searched
    # from scratch; the firsts it keeps are the others, in the same order.
    grid = config.grid_denominator
    lattice = _Lattice(rule, domain, grid, config)
    rows = [[lattice.per * v for v in row] for row in lattice.model.rows]
    maps = _symmetries(domain)
    firsts = [tuple(counts) for counts, _ in _lex_counts(len(domain), grid, maps)]
    kept = [tuple(counts)
            for counts, _ in _lex_counts(len(domain), grid, maps, rows, lattice.may_hold)]
    assert set(kept) <= set(firsts) and kept == sorted(kept)
    for counts in set(firsts) - set(kept):
        profile = va.manipulation._grid_profile(domain, grid, counts)
        try:
            assert va.find_manipulation(rule, profile, config) is None
        except NongenericProfileError:
            pass


@st.composite
def _score_vectors(draw):
    s1, s2, s3 = sorted(draw(st.lists(st.fractions(0, 3, max_denominator=4), min_size=3,
                                      max_size=3).filter(lambda s: len(set(s)) > 1)),
                        reverse=True)
    return va.scoring(s1, s2, s3)


@settings(max_examples=100, deadline=None)
@given(st.one_of(_score_vectors(), st.just(va.CONDORCET)),
       st.sets(st.sampled_from(va.RANKINGS), min_size=1),
       st.fractions(F(1, 20), 1, max_denominator=20),
       st.integers(1, 8), st.integers(1, 8))
def test_audit_wsp_is_the_first_grid_witness_on_drawn_rules(rule, rankings, epsilon, grid,
                                                            moves):
    domain = va.Domain(tuple(rankings))
    config = va.AuditConfig(epsilon, grid, moves)
    assert text(va.audit_wsp(rule, domain, config)) == \
        text(_first_witness_by_definition(rule, domain, config))


def _root_cut_lattices(rule, rankings, epsilon, grid, moves):
    """A drawn audit's lattice, and the same with no coalition below epsilon and with
    epsilon far above the whole mass."""
    domain = va.Domain(tuple(rankings))
    configs = [va.AuditConfig(epsilon, grid, moves), va.AuditConfig(F(1, moves), grid, moves),
               va.AuditConfig(F(10**6), grid, moves)]
    assert [c.max_units for c in configs[1:]] == [0, moves]
    return [_Lattice(rule, domain, grid, config) for config in configs]


def _near_thresholds(lattice):
    """Per forward statistic (i < 3), the values at which a root-cut comparison on it
    can flip, and one either side: a reverse statistic's threshold t is C - t forward."""
    near = [set(), set(), set()]
    for p, q, tests in lattice.cuts.values():
        pairs = [(p, lattice.need), (q, lattice.need)]
        pairs += [pair for _, *flat in tests for pair in zip(flat[::2], flat[1::2])]
        for i, t in pairs:
            near[i % 3].update(range(t - 1, t + 2) if i < 3 else
                               range(lattice.total - t - 1, lattice.total - t + 2))
    return [sorted(values) for values in near]


def _six(lattice, lo, hi):
    """The box of all six statistics over a box of the three forward ones: a reverse
    statistic is C - s, so its bounds are C - hi and C - lo."""
    total = lattice.total
    return lo + [total - s for s in hi], hi + [total - s for s in lo]


def _box(lattice, lo, hi):
    """`may_hold`'s arguments for the box of `_six`: sums at its low corner, one unit
    of mass left, and per statistic a least entry of 0 and a greatest of hi - lo."""
    lower, upper = _six(lattice, lo, hi)
    return lower, 1, [0] * len(_PAIRS), [u - v for u, v in zip(upper, lower)]


def _elects(lattice, values):
    """The unique winner of these six statistics, or None."""
    need = lattice.need
    tie = [a for a, (p, q) in _OVER.items() if values[p] >= need and values[q] >= need]
    return tie[0] if len(tie) == 1 else None


def _root_cut(lattice, values):
    """The unique winner of these six statistics and its targets that pass the root
    cut, asked of `may_win` at max_mass; None if there is no unique winner."""
    old = _elects(lattice, values)
    if old is None:
        return None
    return old, [target for target in _RIVALS[old] if lattice.may_win(
        target, values, lattice.max_mass, *lattice.model.reach[old, target])]


def _may_hold_at_corners(lattice, lo, hi):
    """`may_hold` as the bound states it: `may_win` at max_mass, for each (old, target)
    whose old may win somewhere in the box, at the box's corner most favourable to it."""
    need = lattice.need
    lower, upper = _six(lattice, lo, hi)
    for old, (p, q) in _OVER.items():
        if upper[p] >= need and upper[q] >= need:
            for target in _RIVALS[old]:
                corner = lower.copy()
                a, b = _OVER[target]
                corner[a], corner[b] = upper[a], upper[b]
                if lattice.may_win(target, corner, lattice.max_mass,
                                   *lattice.model.reach[old, target]):
                    return True
    return False


@settings(max_examples=60, deadline=None)
@given(st.one_of(_score_vectors(), st.just(va.CONDORCET)),
       st.sets(st.sampled_from(va.RANKINGS), min_size=1),
       st.fractions(F(1, 20), 2, max_denominator=20),
       st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32))
def test_the_root_cut_thresholds_are_may_win_at_max_mass(rule, rankings, epsilon, grid, moves,
                                                        seed):
    rng, seen = random.Random(seed), []

    class Recorded:  # a branch that records its (old, target) and finds nothing
        def __init__(self, lattice, counts, values, old, target):
            seen.append((old, target))

        def search(self, units):
            return None
    for lattice in _root_cut_lattices(rule, rankings, epsilon, grid, moves):
        reach = lattice.model.reach
        # every ranking holds at least max_units units, so the capacity stage asks at
        # least as much as the thresholds and cannot cut: this checks the thresholds alone
        held = [lattice.max_mass] * len(rankings)
        # the table: every statistic at its threshold or one either side
        for old, (p, q, tests) in lattice.cuts.items():
            assert (p, q) == _OVER[old] and [target for target, *_ in tests] == list(_RIVALS[old])
            for target, a, ta, b, tb, r, tr, s, ts, t, tt, u, tu in tests:
                assert (a, b, r, s, t, u) == _GROUPS[target]
                for shifts in [rng.choices((-1, 0, 1), k=6) for _ in range(50)]:
                    values = [0] * len(_PAIRS)
                    for i, threshold, shift in zip((a, b, r, s, t, u), (ta, tb, tr, ts, tt, tu),
                                                   shifts):
                        values[i] = threshold + shift
                    passes = (values[a] >= ta and values[b] >= tb
                              and (values[r] < tr or values[s] < ts)
                              and (values[t] < tt or values[u] < tu))
                    assert passes == lattice.may_win(target, values, lattice.max_mass,
                                                     *reach[old, target])
        # the two callers' comparisons: boxes for may_hold, their corners for search
        near = _near_thresholds(lattice)
        for _ in range(20):
            lo, hi = map(list, zip(*(sorted(rng.choices(values, k=2)) for values in near)))
            assert lattice.may_hold(*_box(lattice, lo, hi)) == \
                _may_hold_at_corners(lattice, lo, hi)
            for forward in (lo, hi):
                values, _ = _six(lattice, forward, forward)
                expected = _root_cut(lattice, values)
                seen.clear()
                with mock.patch.object(va.manipulation, "_Branch", Recorded):
                    lattice.search(values, held)
                assert seen == ([] if expected is None else
                                [(expected[0], target) for target in expected[1]])


@settings(max_examples=60, deadline=None)
@given(st.one_of(_score_vectors(), st.just(va.CONDORCET)),
       st.sets(st.sampled_from(va.RANKINGS), min_size=1),
       st.fractions(F(1, 20), 2, max_denominator=20),
       st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32))
def test_may_hold_holds_on_every_box_with_a_point_passing_the_root_cut(rule, rankings, epsilon,
                                                                      grid, moves, seed):
    rng = random.Random(seed)
    for lattice in _root_cut_lattices(rule, rankings, epsilon, grid, moves):
        near = _near_thresholds(lattice)
        for _ in range(5):
            lo = [rng.choice(values) for values in near]
            hi = [v + rng.randint(0, 3) for v in lo]
            points = itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
            if any((cut := _root_cut(lattice, _six(lattice, [*f], [*f])[0])) and cut[1]
                   for f in points):
                assert lattice.may_hold(*_box(lattice, lo, hi))


#: The full-domain audits of the benchmark's sweep, with the decisions of their root
#: cut: (may_hold true, may_hold false) calls, `_Lattice.search` calls and
#: `_Branch.search` calls.  Only the cost of a decision may change, never the count.
#: The capacity stage (`_Lattice.may_win_held`) drops 4 of descend-condorcet-full's
#: 10 branches, so it makes 72 branch searches where the thresholds alone make 120.
@pytest.mark.parametrize("rule,epsilon,grid,holds,searches,branch_searches", [
    ("borda", F(1, 20), 12, (248, 281), 402, 0),
    ("plurality", F(1, 20), 12, (142, 335), 110, 0),
    ("condorcet", F(1, 20), 12, (210, 304), 224, 0),
    ("score:3,1,0", F(1, 20), 12, (185, 311), 247, 0),
    ("condorcet", F(1, 8), 10, (147, 163), 137, 72),
    ("borda", F(1, 10), 12, (5, 6), 2, 9),
], ids=["pruned-borda", "pruned-plurality", "pruned-condorcet", "pruned-score310",
        "descend-condorcet-full", "witness-borda-full"])
def test_the_sweep_root_cut_makes_the_same_decisions(monkeypatch, rule, epsilon, grid, holds,
                                                     searches, branch_searches):
    calls = {True: 0, False: 0, "search": 0, "branch": 0}
    may_hold, search, branch_search = _Lattice.may_hold, _Lattice.search, _Branch.search

    def counted(key, method, *args):
        result = method(*args)
        calls[result if key is None else key] += 1
        return result
    monkeypatch.setattr(_Lattice, "may_hold", lambda *args: counted(None, may_hold, *args))
    monkeypatch.setattr(_Lattice, "search", lambda *args: counted("search", search, *args))
    monkeypatch.setattr(_Branch, "search", lambda *args: counted("branch", branch_search, *args))
    va.audit_wsp(va.parse_rule(rule), va.FULL_DOMAIN, va.AuditConfig(epsilon, grid, 100))
    assert ((calls[True], calls[False]), calls["search"], calls["branch"]) == \
        (holds, searches, branch_searches)


def _reachable(lattice, counts, values, old, target):
    """Every (units, statistics) that some unit vector reaches from these counts: each
    source preferring target to old moves at most the units it holds, one at a time
    along any arc out of it, and all together at most max_units."""
    model, unit = lattice.model, lattice.unit
    states = {(0, tuple(values))}
    for src, count in enumerate(counts):
        if not model.gains[old, target][src]:
            continue
        moves = [[unit * (row[dst] - row[src]) for row in model.rows]
                 for dst in range(len(counts)) if dst != src]
        frontier = states
        for _ in range(min(count * lattice.per // unit, lattice.max_units)):
            frontier = {(n + 1, tuple(map(sum, zip(v, move)))) for n, v in frontier
                        for move in moves if n < lattice.max_units}
            states = states | frontier
    return states


@settings(max_examples=40, deadline=None)
@given(st.one_of(_score_vectors(), st.sampled_from([va.CONDORCET, va.PLURALITY])),
       st.sets(st.sampled_from(va.RANKINGS), min_size=1),
       st.integers(2, 6), st.fractions(F(1, 5), 1, max_denominator=20), st.integers(2, 8))
def test_the_capacity_stage_drops_only_pairs_no_unit_vector_elects(rule, rankings, grid,
                                                                   epsilon, moves):
    # on every profile of the grid; the first witness of each passes the stage too
    domain = va.Domain(tuple(rankings))
    config = va.AuditConfig(epsilon, grid, moves)
    lattice = _Lattice(rule, domain, grid, config)
    for counts, _ in _lex_counts(len(domain), grid):
        values = [lattice.per * sum(map(mul, row, counts)) for row in lattice.model.rows]
        old = _elects(lattice, values)
        if old is None:
            continue
        for target in _RIVALS[old]:
            if not lattice.may_win_held(counts, values, old, target):
                assert all(_elects(lattice, v) != target
                           for _, v in _reachable(lattice, counts, values, old, target))
        profile = va.manipulation._grid_profile(domain, grid, counts)
        witness = va.find_manipulation(rule, profile, config)
        if witness is not None:
            assert lattice.may_win_held(counts, values, witness.old_outcome,
                                        witness.new_outcome)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_score_vectors(), st.sampled_from([va.CONDORCET, va.PLURALITY])),
       st.sets(st.sampled_from(va.RANKINGS), min_size=1),
       st.fractions(F(1, 20), 1, max_denominator=20),
       st.integers(1, 8), st.integers(1, 12))
def test_an_audit_is_the_same_without_the_capacity_stage(rule, rankings, epsilon, grid, moves):
    domain = va.Domain(tuple(rankings))
    config = va.AuditConfig(epsilon, grid, moves)
    found = text(va.audit_wsp(rule, domain, config))
    with mock.patch.object(_Lattice, "may_win_held", lambda *args: True):
        assert text(va.audit_wsp(rule, domain, config)) == found


#: A profile on which the thresholds alone pass plurality's (y, z) pair at epsilon 1/5:
#: only its 1/20 on x>z>y can raise z over y, and moving all of it ties them.
_HELD_BACK = {"xzy": F(1, 20), "yzx": F(1, 2), "zyx": F(9, 20)}


def test_the_known_worst_case_searches_end():
    profile = va.profile_from(_HELD_BACK)
    assert va.find_manipulation(va.PLURALITY, profile, va.AuditConfig(F(1, 5), 20, 500)) is None
    # the oracle's winners: all of x>z>y's mass at z first ties z with y
    moved, _ = va.transfer_weight(profile, [(R("xzy"), R("zxy"), F(1, 20))])
    assert oracles.brute_plurality_tie_set(profile) == {"y"}
    assert oracles.brute_plurality_tie_set(moved) == {"y", "z"}
    for moves in (20, 25):  # move meshes the oracle can enumerate
        config = va.AuditConfig(F(1, 5), 20, moves)
        assert va.find_manipulation(va.PLURALITY, profile, config) is None
        assert exhaustive_witness(va.PLURALITY, profile, config) is None
    for grid, moves, expected in [
        (12, 100, ["1/4 x>z>y", "5/12 y>z>x", "1/3 z>y>x", "9/100 x>z>y -> z>y>x",
                   "old=y new=z size=9/100"]),
        (20, 500, ["3/20 x>z>y", "9/20 y>z>x", "2/5 z>y>x", "13/250 x>z>y -> z>y>x",
                   "old=y new=z size=13/250"]),
    ]:
        config = va.AuditConfig(F(1, 5), grid, moves)
        witness = va.audit_wsp(va.PLURALITY, va.FULL_DOMAIN, config)
        assert text(witness).splitlines() == ["domain: full", *expected]
        assert va.verify_witness(va.PLURALITY, witness)
        moved, _ = va.transfer_weight(witness.base_profile, witness.moves)
        assert oracles.brute_plurality_tie_set(witness.base_profile) == {"y"}
        assert oracles.brute_plurality_tie_set(moved) == {"z"}
        assert text(va.find_manipulation(va.PLURALITY, witness.base_profile, config)) == \
            text(witness)


#: Clean searches under score:1,1,0 that ran for seconds when every arc was searched:
#: (profile, epsilon, moves, the most `may_win` calls allowed).  Over every arc the first
#: asked `may_win` 4,109,882 times (7.3 s), and the second ran past 20 s; over the arcs
#: `_Model` keeps they ask it 3,200 and 63,439 times.
_SLOW_CLEAN = [
    ({"xyz": F(1, 8), "xzy": F(1, 8), "yxz": F(5, 24), "yzx": F(7, 24), "zxy": F(1, 8),
      "zyx": F(1, 8)}, F(2, 5), 50, 10_000),
    ({"xyz": F(7, 34), "xzy": F(3, 17), "yxz": F(5, 34), "yzx": F(2, 17), "zxy": F(7, 34),
      "zyx": F(5, 34)}, F(7, 20), 100, 200_000),
]


@pytest.mark.parametrize("weights,epsilon,moves,most", _SLOW_CLEAN, ids=["moves-50", "moves-100"])
def test_clean_searches_that_ran_for_seconds_end(monkeypatch, weights, epsilon, moves, most):
    rule, profile = va.scoring(1, 1, 0), va.profile_from(weights)
    coarse = va.AuditConfig(epsilon, 20, 8)  # a move mesh the oracle can enumerate
    assert va.find_manipulation(rule, profile, coarse) is None
    assert exhaustive_witness(rule, profile, coarse) is None
    calls, may_win = [0], _Lattice.may_win

    def counted(*args):
        calls[0] += 1
        return may_win(*args)
    monkeypatch.setattr(_Lattice, "may_win", counted)
    assert va.find_manipulation(rule, profile, va.AuditConfig(epsilon, 20, moves)) is None
    assert calls[0] <= most


def test_the_model_keeps_the_last_arc_of_each_step_from_a_ranking():
    # under plurality only a ranking's first alternative counts: from y>x>z, the arcs to
    # x>y>z and x>z>y take the same step, and the one to y>z>x none
    model = _model(va.PLURALITY.score_vector, va.FULL_DOMAIN)
    index = {str(r): i for i, r in enumerate(model.rankings)}
    y_first = [(str(model.rankings[src]), str(model.rankings[dst]))
               for src, dst in model.arcs if src == index["y>x>z"]]
    assert y_first == [("y>x>z", "x>z>y"), ("y>x>z", "z>y>x")]
    assert len(model.arcs) == 12  # 2 of the 5 arcs from each ranking


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([va.PLURALITY, va.scoring(1, 1, 0), va.scoring(2, 1, 1)]),
       st.lists(st.integers(0, 8), min_size=6, max_size=6).filter(any),
       st.fractions(F(1, 5), F(2, 5), max_denominator=20), st.integers(5, 8))
def test_the_arcs_the_model_drops_change_no_witness(rule, counts, epsilon, moves):
    # the oracle enumerates every arc, in the order the search promises; at most 3 units
    # move, so it stays quick, and about one drawn profile in six has a witness
    profile = va.Profile([(r, F(c, sum(counts))) for r, c in zip(va.RANKINGS, counts) if c],
                         va.FULL_DOMAIN)
    config = va.AuditConfig(epsilon, 20, moves)
    try:
        found = va.find_manipulation(rule, profile, config)
    except NongenericProfileError:
        return
    assert text(found) == text(exhaustive_witness(rule, profile, config))


def test_a_witness_search_leaves_no_reference_cycle():
    # the branch search's recursion refers to itself through its closure; once the
    # search returns, nothing of it is left for the cyclic collector
    profile = va.profile_from({"yzx": F(1, 2), "zxy": F(1, 12), "zyx": F(5, 12)})
    config = va.AuditConfig(F(1, 10), 20, 100)
    assert va.find_manipulation(va.BORDA, profile, config) is not None  # caches filled
    gc.collect()
    gc.disable()
    try:
        assert va.find_manipulation(va.BORDA, profile, config) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


def _symmetries_by_definition(domain):
    return [perm for perm in va.ALL_PERMUTATIONS if domain.permute(perm) == domain]


@pytest.mark.parametrize("domain,group,firsts", [
    (va.FULL_DOMAIN, 6, 83), (va.CYCLE_DOMAIN, 3, 10), (UI_DOMAIN, 2, 44),
    (UI_DOMAIN.permute(ROTATE), 2, 44), (EXPANDED_CYCLE, 1, 84),
], ids=["full", "cycle", "ui", "ui-renamed", "expanded-cycle"])
def test_clean_audit_searches_one_profile_per_orbit(monkeypatch, domain, group, firsts):
    # Burnside at grid 6: the full domain's (462 + 3*10 + 2*3)/6 = 83 orbits, the
    # cycle's (28 + 2*1)/3 = 10, a four-ranking domain's (84 + 4)/2 = 44 under its
    # one transposition; with no symmetry every one of the 84 profiles is a first.
    # The audit's cut may drop firsts whole subtrees at a time, so it searches a
    # subset of them.
    assert len(_symmetries_by_definition(domain)) == group
    generated = [tuple(counts) for counts, _ in _lex_counts(len(domain), 6, _symmetries(domain))]
    assert len(generated) == firsts
    profiles = [va.manipulation._grid_profile(domain, 6, counts) for counts in generated]
    grid = set(va.grid_profiles(domain, 6))
    assert {va.permute_profile(p, perm) for p in profiles
            for perm in _symmetries_by_definition(domain)} == grid
    config = va.AuditConfig(F(1, 50), 6, 100)  # one unit fits below epsilon; still clean
    search, seen = _Lattice.search, []

    def counting(lattice, values, counts):
        seen.append(tuple(counts))
        return search(lattice, values, counts)
    monkeypatch.setattr(_Lattice, "search", counting)
    assert va.audit_wsp(va.BORDA, domain, config) is None
    assert seen and set(seen) <= set(generated) and seen == sorted(seen)


@_AUDIT_RULES
@pytest.mark.parametrize("config", [va.AuditConfig(F(1, 100), 6, 100),
                                    va.AuditConfig(F(1, 6), 7, 6)], ids=["6x100", "7x6"])
def test_an_audit_with_no_coalition_below_epsilon_searches_nothing(monkeypatch, rule, config):
    # At max_units 0 every coalition has mass at least epsilon, so the answer is None
    # by definition; audit_wsp gives it without a search, after checking the domain.
    assert config.max_units == 0
    domains = [va.FULL_DOMAIN, va.CYCLE_DOMAIN, UI_DOMAIN, EXPANDED_CYCLE]
    expected = [text(_first_witness_by_definition(rule, domain, config)) for domain in domains]
    assert expected == [None] * len(domains)
    seen = []
    monkeypatch.setattr(_Lattice, "search", lambda lattice, values, counts: seen.append(counts))
    assert [text(va.audit_wsp(rule, domain, config)) for domain in domains] == expected
    assert seen == []
    xy, yx = va.Ranking(("x", "y")), va.Ranking(("y", "x"))
    with pytest.raises(ValueError, match="all of x, y, z"):
        va.audit_wsp(rule, va.Domain((xy, yx)), config)


def _firsts_by_definition(domain, grid):
    """The grid's count vectors, in lex order, that are at most each of their renamed images."""
    perms = _symmetries_by_definition(domain)
    firsts = []
    for counts in sorted(c for c in itertools.product(range(grid + 1), repeat=len(domain))
                         if sum(c) == grid):
        profile = va.Profile({r: F(n, grid) for r, n in zip(domain, counts)}, domain)
        images = [va.permute_profile(profile, perm) for perm in perms]
        if all(counts <= tuple(image.weight(r) * grid for r in domain) for image in images):
            firsts.append(counts)
    return firsts


@pytest.mark.parametrize("rankings", [
    rankings for size in range(1, 7) for rankings in itertools.combinations(va.RANKINGS, size)
], ids=lambda rankings: "".join("".join(r.order) for r in rankings))
def test_lex_counts_yields_exactly_the_orbit_firsts(rankings):
    domain = va.Domain(rankings)
    per = 7  # lattice counts per grid count
    rows = _model(va.scoring(3, 1, 0).score_vector, domain).rows
    scaled = [[per * v for v in row] for row in rows]
    for grid in range(1, 9):
        yielded = [(tuple(counts), sums)
                   for counts, sums in _lex_counts(len(domain), grid, _symmetries(domain), scaled)]
        assert [counts for counts, _ in yielded] == _firsts_by_definition(domain, grid)
        for counts, sums in yielded:
            assert sums == [per * sum(v * n for v, n in zip(row, counts)) for row in rows]
    if len(domain) == 1:
        assert [(list(c), sums) for c, sums in _lex_counts(1, 5, (), scaled)] == \
            [([5], [5 * row[0] for row in scaled])]


def _check_six_statistics(rule):
    """On every domain, rows i and i + 3 sum to the model's constant on every ranking;
    at grids up to 6, `_lex_counts` yields each first's six statistics as the scaled rows
    dotted with its counts, and its boxes bound each reverse statistic by C - hi to C - lo
    of the forward one."""
    for size in range(1, 7):
        for rankings in itertools.combinations(va.RANKINGS, size):
            domain = va.Domain(rankings)
            model = _model(rule.score_vector, domain)
            assert len(model.rows) == len(_PAIRS)
            for forward, reverse in zip(model.rows[:3], model.rows[3:]):
                assert {f + r for f, r in zip(forward, reverse)} == {model.total}
            for grid in range(1, 7):
                lattice = _Lattice(rule, domain, grid, va.AuditConfig(F(1, 5), grid, 10))
                rows = [[lattice.per * v for v in row] for row in model.rows]

                def keep(sums, rem, least, greatest):
                    lo = [s + rem * c for s, c in zip(sums, least)]
                    hi = [s + rem * c for s, c in zip(sums, greatest)]
                    assert (lo, hi) == _six(lattice, lo[:3], hi[:3])
                    return True
                for counts, values in _lex_counts(size, grid, _symmetries(domain), rows, keep):
                    assert values == [sum(map(mul, row, counts)) for row in rows]
                    assert {f + r for f, r in zip(values[:3], values[3:])} == {lattice.total}


@pytest.mark.parametrize("rule", [va.BORDA, va.PLURALITY, va.CONDORCET], ids=str)
def test_the_six_statistics_are_rows_dotted_with_the_counts(rule):
    _check_six_statistics(rule)


@settings(max_examples=5, deadline=None)
@given(_score_vectors())
def test_the_six_statistics_are_rows_dotted_with_the_counts_on_drawn_rules(rule):
    _check_six_statistics(rule)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.sampled_from(va.RANKINGS), min_size=1),
       st.sampled_from(va.ALL_PERMUTATIONS),
       st.sampled_from([va.PLURALITY, va.BORDA, va.CONDORCET, va.scoring(3, 1, 0)]),
       st.sampled_from([va.AuditConfig(F(1, 3), 6, 6), va.AuditConfig(F(1, 2), 5, 10)]))
def test_audit_is_clean_exactly_when_its_renamed_audit_is(rankings, perm, rule, config):
    domain = va.Domain(tuple(rankings))
    witness = va.audit_wsp(rule, domain, config)
    renamed = va.audit_wsp(rule, domain.permute(perm), config)
    assert (witness is None) == (renamed is None)
    for found in (witness, renamed):
        assert found is None or va.verify_witness(rule, found)


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

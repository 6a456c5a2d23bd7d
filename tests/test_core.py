import itertools
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import votaudit as va
from votaudit.core import (
    InfeasibleMoveError,
    ProfileError,
    ProfileParseError,
    RankingParseError,
    as_fraction,
    parse_weight,
)
from votaudit.replay import ScenarioParams


def test_parse_ranking_canonical():
    assert va.parse_ranking("x>y>z").order == ("x", "y", "z")


def test_parse_ranking_noncanonical():
    assert va.parse_ranking("y>z>x").order == ("y", "z", "x")


@pytest.mark.parametrize("text,fragment", [
    ("x>x>z", "duplicate"),
    ("x>y", "missing"),
    ("x>y>w", "unknown"),
])
def test_parse_ranking_rejects(text, fragment):
    with pytest.raises(RankingParseError, match=fragment):
        va.parse_ranking(text)


def test_ranking_prefers_is_strict_total_order():
    r = va.ranking("yzx")
    assert r.prefers("y", "x") and r.prefers("y", "z") and r.prefers("z", "x")
    assert not r.prefers("x", "y")


def test_richness_fixtures():
    u1 = va.Domain(tuple(va.ranking(t) for t in ("xyz", "xzy", "yzx", "zyx")))
    u2 = va.Domain(tuple(va.ranking(t) for t in ("xyz", "xzy", "yzx", "yxz")))
    assert not va.is_rich(u1)
    assert va.is_rich(u2)
    assert va.is_rich(va.CYCLE_DOMAIN)
    assert va.is_rich(va.FULL_DOMAIN)


def test_richness_brute_force_agreement():
    # the predicate is its own oracle: middle-position scan over all subsets
    import itertools
    for size in range(1, 7):
        for combo in itertools.combinations(va.RANKINGS, size):
            domain = va.Domain(combo)
            expected = all(
                any(r.order[1] == alt for r in combo) for alt in va.ALTERNATIVES
            )
            assert va.is_rich(domain) == expected


def simplex_weights(n):
    """Strategy: n nonnegative fractions summing to 1."""
    return st.lists(st.integers(0, 30), min_size=n, max_size=n).filter(
        lambda parts: sum(parts) > 0
    ).map(lambda parts: [F(p, sum(parts)) for p in parts])


@st.composite
def full_profiles(draw):
    weights = draw(simplex_weights(6))
    return va.Profile(dict(zip(va.RANKINGS, weights)))


@given(full_profiles(), st.sampled_from(va.ALL_PERMUTATIONS))
def test_permute_preserves_total_and_inverts(profile, perm):
    image = va.permute_profile(profile, perm)
    assert sum(image.weights.values()) == 1
    assert va.permute_profile(image, va.CandidatePermutation.from_mapping({b: a for a, b in perm.pairs})) == profile


def test_permute_identity():
    u = va.profile_from({"xyz": "1/2", "yxz": "3/10", "yzx": "1/5"})
    assert va.permute_profile(u, va.ALL_PERMUTATIONS[0]) == u


@pytest.mark.parametrize("pairs", [
    (("x", "y"), ("y", "x")),  # z unmapped
    (("x", "y"), ("y", "y"), ("z", "x")),  # not one to one
    (("x", "y"), ("x", "z"), ("y", "x"), ("z", "y")),  # x listed twice
])
def test_permutation_must_be_a_bijection(pairs):
    with pytest.raises(ValueError, match="not a bijection"):
        va.CandidatePermutation(pairs)


def test_permutation_is_one_value_in_any_pair_order():
    built = va.CandidatePermutation((("y", "x"), ("x", "y"), ("z", "z")))
    parsed = va.parse_permutation("x->y,y->x,z->z")
    assert built == parsed and hash(built) == hash(parsed)
    assert str(built) == str(parsed) == "x->y,y->x,z->z"
    assert built.pairs == (("x", "y"), ("y", "x"), ("z", "z"))


def test_permute_matches_displayed_table():
    # (p: x>y>z, q: y>x>z, 1-p-q: y>z>x) under x->y, y->z, z->x
    p, q = F(1, 2), F(3, 10)
    u = va.profile_from({"xyz": p, "yxz": q, "yzx": 1 - p - q})
    sigma = va.parse_permutation("x->y,y->z,z->x")
    image = va.permute_profile(u, sigma)
    assert image.weights == {
        va.ranking("yzx"): p,
        va.ranking("zyx"): q,
        va.ranking("zxy"): 1 - p - q,
    }


def test_transfer_empty_moves():
    u = va.profile_from({"xyz": "2/5", "yzx": "3/5"})
    moved, size = va.transfer_weight(u, [])
    assert moved == u and size == 0


def test_transfer_case_weights():
    # (a: xyz, b: yzx, 1-a-b: zxy) with k, m shifted out of the top block
    a, b = F(21, 50), F(7, 25)
    k, m = (1 - a - 2 * b) / 2, (2 * a + b - 1) / 2
    u = va.profile_from({"xyz": a, "yzx": b, "zxy": 1 - a - b}, va.CYCLE_DOMAIN)
    moved, size = va.transfer_weight(
        u, [(va.ranking("xyz"), va.ranking("yzx"), k),
            (va.ranking("xyz"), va.ranking("zxy"), m)])
    assert size == k + m
    assert moved.weight(va.ranking("xyz")) == a - (k + m) == b + (k + m)
    assert moved.weight(va.ranking("yzx")) == b + k == 1 - a - b - k
    assert moved.weight(va.ranking("zxy")) == 1 - a - b + m == a - m


def test_transfer_overdraw_rejected():
    u = va.profile_from({"xyz": "1/4", "yzx": "3/4"})
    with pytest.raises(InfeasibleMoveError):
        va.transfer_weight(u, [(va.ranking("xyz"), va.ranking("yzx"), F(1, 2))])


def test_transfer_split_outflow_overdraw_rejected():
    u = va.profile_from({"xyz": "1/4", "yzx": "3/4"})
    with pytest.raises(InfeasibleMoveError):
        va.transfer_weight(u, [
            (va.ranking("xyz"), va.ranking("yzx"), F(1, 5)),
            (va.ranking("xyz"), va.ranking("zxy"), F(1, 5)),
        ])


def test_transfer_outside_domain_rejected():
    u = va.profile_from({"xyz": "1/2", "yzx": "1/2"}, va.CYCLE_DOMAIN)
    with pytest.raises(va.core.DomainViolationError):
        va.transfer_weight(u, [(va.ranking("xyz"), va.ranking("xzy"), F(1, 10))])


@given(full_profiles())
def test_transfer_conserves_total(profile):
    support = profile.support
    moves = [(support[0], va.RANKINGS[0], profile.weight(support[0]) / 2)]
    moved, size = va.transfer_weight(profile, moves)
    assert sum(moved.weights.values()) == 1
    assert size == moves[0][2]


@pytest.mark.parametrize("orders", [("xy", "yz"), ("xy", "xyz")])
def test_domain_rejects_rankings_over_different_alternatives(orders):
    # on {x>y, y>z} no rule could compare x with z
    with pytest.raises(ValueError, match="different alternatives"):
        va.Domain(tuple(va.ranking(t) for t in orders))
    assert len(va.Domain((va.ranking("xy"), va.ranking("yx")))) == 2


def test_domain_compares_and_hashes_by_its_rankings():
    shuffled = va.Domain(tuple(va.ranking(t) for t in ("zxy", "xyz", "yzx", "xyz")))
    assert shuffled == va.CYCLE_DOMAIN and hash(shuffled) == hash(va.CYCLE_DOMAIN)
    assert repr(shuffled) == repr(va.CYCLE_DOMAIN)
    assert va.ranking("yzx") in shuffled and va.ranking("xzy") not in shuffled


def test_profile_requires_unit_total():
    with pytest.raises(ProfileError):
        va.profile_from({"xyz": "1/2", "yzx": "1/3"})


def test_profile_rejects_positive_weight_off_domain():
    with pytest.raises(ProfileError):
        va.profile_from({"xyz": "1/2", "xzy": "1/2"}, va.CYCLE_DOMAIN)


def test_profile_zero_weights_allowed_and_normalized():
    u = va.profile_from({"xyz": 1, "xzy": 0})
    assert u.support == (va.ranking("xyz"),)
    assert u.weight(va.ranking("xzy")) == 0


def test_parse_profile_and_round_trip():
    text = """
    # comment
    domain: {x>y>z, y>z>x, z>x>y}
    1/3 x>y>z
    0.25 y>z>x   # decimal reads exactly
    5/12 z>x>y
    """
    u = va.parse_profile(text)
    assert u.weight(va.ranking("yzx")) == F(1, 4)
    assert va.parse_profile(va.format_profile(u)) == u


def test_parse_profile_accumulates_repeats():
    text = "domain: full\n1/3 x>z>y\n1/3 y>z>x\n1/3 x>z>y\n"
    u = va.parse_profile(text)
    assert u.weight(va.ranking("xzy")) == F(2, 3)


def test_parse_profile_sums_unreduced_and_negative_repeats():
    # x>y>z: 2/4 - 1/6 + 1/6, y>z>x: -3/12 + 6/8, and x>z>y, off the domain, nets 0
    text = ("domain: {x>y>z, y>z>x, z>x>y}\n2/4 x>y>z\n-3/12 y>z>x\n-1/6 x>y>z\n"
            "1/5 x>z>y\n6/8 y>z>x\n1/6 x>y>z\n0.0 z>x>y\n-2/10 x>z>y\n")
    parsed = va.parse_profile(text)
    summed = va.profile_from({"xyz": "1/2", "yzx": "1/2"}, va.CYCLE_DOMAIN)
    assert parsed == summed and (parsed.den, parsed.counts) == (summed.den, summed.counts)


@pytest.mark.parametrize("text", [
    "1/2 x>y>z\n1/2 y>z>x",              # missing header
    "domain: full\n1/2 x>y>z\n1/3 y>z>x",  # bad total
    "domain: full\nhalf x>y>z",           # bad weight
    "domain: full\n1/2 x>q>z\n1/2 y>z>x",  # unknown alternative
    "domain: {x>y>z}\n1/2 x>y>z\n1/2 y>z>x",  # off-domain support
])
def test_parse_profile_rejects(text):
    with pytest.raises(ProfileParseError):
        va.parse_profile(text)


def test_parse_weight_refuses_an_exponent_at_the_integer_text_limit(monkeypatch):
    monkeypatch.setattr("sys.get_int_max_str_digits", lambda: 1000)
    assert parse_weight("1e999") == 10**999 and parse_weight("25E-2") == F(1, 4)
    for token in ("1e1000", "1E-1000", "1e-999999999", "1e+99999999999999999999"):
        with pytest.raises(ProfileParseError, match=f"^bad weight '{token}'$".replace("+", r"\+")):
            parse_weight(token)
    monkeypatch.setattr("sys.get_int_max_str_digits", lambda: 0)  # 0: no limit
    assert parse_weight("1e-1000") == F(1, 10**1000)


def test_library_text_refuses_an_exponent_at_the_integer_text_limit():
    # `Fraction` alone would build 10**1000000 first (about 0.2 s), and a profile
    # built from it would then fail on Python's limit on integer text; on "1/0" it
    # would raise `ZeroDivisionError`, which no validator's caller expects
    for bad, message in [("1e-1000000", "exponent out of range"), ("1/0", "zero denominator")]:
        for build in (as_fraction, va.AuditConfig, lambda w: ScenarioParams.of(a=w),
                      lambda w: va.profile_from({"xyz": w, "yzx": "1"}, va.CYCLE_DOMAIN),
                      lambda w: va.scoring(w, 0, 0)):
            with pytest.raises(ValueError, match=f"^{message} in '{bad}'$"):
                build(bad)
    assert as_fraction("1e999") == 10**999 and as_fraction("25E-2") == F(1, 4)
    assert va.AuditConfig("1e999").max_units == 100
    assert dict(ScenarioParams.of(a="1e999").values) == {"a": 10**999}
    with pytest.raises(ValueError, match="Invalid literal for Fraction: 'three'"):
        as_fraction("three")  # not exponent text: `Fraction` names it


def test_a_bool_is_no_exact_rational():
    # `bool` is an `int` subclass, so `Fraction(True)` would read it as 1
    for value in (True, False):
        with pytest.raises(TypeError, match=f"^expected an exact rational, got bool {value}$"):
            as_fraction(value)
    for build in (lambda: va.AuditConfig(True), lambda: va.scoring(True, False, False),
                  lambda: va.profile_from({"xyz": True})):
        with pytest.raises(TypeError, match="^expected an exact rational, got bool True$"):
            build()


def test_ranking_reads_back_its_own_text_in_either_notation():
    for r in va.core.SLOT_RANKINGS:  # the six of three alternatives and the six pairs
        assert va.ranking(str(r)) == r and va.ranking("".join(r.order)) == r


def test_parse_domain_forms():
    assert va.parse_domain("full") == va.FULL_DOMAIN
    assert va.parse_domain("{x>y>z, y>z>x, z>x>y}") == va.CYCLE_DOMAIN


def test_parse_ranking_gives_the_shared_ranking_for_canonical_text():
    for r in va.RANKINGS:
        assert va.parse_ranking(str(r)) is r and va.parse_ranking(f" {r}\t") is r
        spaced = va.parse_ranking(str(r).replace(">", " > "))
        assert spaced == r and hash(spaced) == hash(r)
    for text, message in [("x>y", "missing alternative 'z' in 'x>y'"),
                          ("y>x", "missing alternative 'z' in 'y>x'"),
                          ("x>y>z>x", "duplicate alternative 'x' in 'x>y>z>x'")]:
        with pytest.raises(RankingParseError, match=f"^{message}$"):
            va.parse_ranking(text)


# Every way a ranking's alternatives are checked, and the exact text each refusal gives:
# unknown, repeated, empty and case-changed tokens, and one to four of them.
_MALFORMED_RANKINGS = [
    (va.Ranking, ('x',), "ranking must list 2 or 3 alternatives, got ('x',)"),
    (va.Ranking, ('x', 'y', 'z', 'x'),
     "ranking must list 2 or 3 alternatives, got ('x', 'y', 'z', 'x')"),
    (va.Ranking, ('x', 'w'), "unknown alternative 'w'"),
    (va.Ranking, ('x', 'x'), "duplicate alternative 'x'"),
    (va.Ranking, ('X', 'y', 'z'), "unknown alternative 'X'"),
    (va.Ranking, ('', 'y'), "unknown alternative ''"),
    (va.Ranking, ('x', 'y', 'y'), "duplicate alternative 'y'"),
    (va.Ranking, ('w', 'w'), "unknown alternative 'w'"),
    (va.Ranking, (), 'ranking must list 2 or 3 alternatives, got ()'),
    (va.ranking, 'x', "ranking must list 2 or 3 alternatives, got ('x',)"),
    (va.ranking, 'xyzx', "ranking must list 2 or 3 alternatives, got ('x', 'y', 'z', 'x')"),
    (va.ranking, 'xw', "unknown alternative 'w'"),
    (va.ranking, 'xx', "duplicate alternative 'x'"),
    (va.ranking, 'Xyz', "unknown alternative 'X'"),
    (va.ranking, '', 'ranking must list 2 or 3 alternatives, got ()'),
    (va.ranking, 'x>w', "unknown alternative 'w' in 'x>w'"),
    (va.ranking, 'x>Y>z', "unknown alternative 'Y' in 'x>Y>z'"),
    (va.ranking, 'x>x>y>z', "duplicate alternative 'x' in 'x>x>y>z'"),
    (va.parse_ranking, '', "unknown alternative '' in ''"),
    (va.parse_ranking, 'x', "missing alternative 'y' in 'x'"),
    (va.parse_ranking, 'x>>z', "unknown alternative '' in 'x>>z'"),
    (va.parse_ranking, 'x>y>y', "duplicate alternative 'y' in 'x>y>y'"),
    (va.parse_ranking, 'X>Y>Z', "unknown alternative 'X' in 'X>Y>Z'"),
    (va.parse_ranking, 'x>y>z>w', "unknown alternative 'w' in 'x>y>z>w'"),
    (va.parse_ranking, 'x>y>z>z', "duplicate alternative 'z' in 'x>y>z>z'"),
    (va.parse_ranking, 'z>w>z', "unknown alternative 'w' in 'z>w>z'"),
    (va.parse_ranking, 'y > x', "missing alternative 'z' in 'y > x'"),
    (va.parse_ranking, 'x > y >  z > x', "duplicate alternative 'x' in 'x > y >  z > x'"),
]


@pytest.mark.parametrize("build,arg,message", _MALFORMED_RANKINGS)
def test_malformed_rankings_are_refused_with_exact_texts(build, arg, message):
    with pytest.raises(RankingParseError) as exc:
        build(arg)
    assert str(exc.value) == message


def test_parse_domain_builds_one_domain_per_member_set():
    rng = random.Random(0)
    for k in range(1, 7):
        for members in itertools.combinations(va.RANKINGS, k):
            direct = va.Domain(members)
            for _ in range(3):  # shuffled, duplicated and space-padded spellings
                texts = [str(r) for r in members] + [str(r) for r in rng.sample(members, k // 2)]
                rng.shuffle(texts)
                spelled = [" " * rng.randint(0, 2) + (t.replace(">", " > ") if rng.random() < 0.3
                                                      else t) + " " * rng.randint(0, 2)
                           for t in texts]
                parsed = va.parse_domain(" {" + ",".join(spelled) + "} ")
                assert parsed == direct and hash(parsed) == hash(direct)
                assert str(parsed) == str(direct)
    assert va.core._domain_of.cache_info().currsize <= 63


# -- the plain-ratio reader ------------------------------------------------------

_digit_runs = st.text(alphabet="0123456789", min_size=1, max_size=6)
_long_runs = st.builds(lambda k, d: d * k, st.integers(4290, 4310), st.sampled_from("179"))
_weight_texts = st.one_of(
    st.text(alphabet=st.sampled_from([*"0123456789/.eE+-_ ", "\u0663", "\u00b2", "\uff10"]),
            max_size=10),
    st.builds(lambda n, d: f"{n}/{d}", _digit_runs, _digit_runs),
    st.builds(lambda n, z: f"{n}/{z}", _digit_runs, st.sampled_from(["0", "00", "000"])),
    _long_runs, st.builds(lambda n, d: f"{n}/{d}", _long_runs, _digit_runs),
    st.builds(lambda n, d: f"{n}/{d}", _digit_runs, _long_runs),
)


def _reading(read):
    try:
        value = read()
    except ValueError as exc:
        return type(exc), str(exc)
    return value, getattr(value, "den", None), getattr(value, "counts", None)


@given(_weight_texts)
def test_the_plain_ratio_reader_agrees_with_fraction(text):
    """Weight text reads as it does through `Fraction` alone: the same value or the same error."""
    ratio = va.core._plain_ratio(text)
    if ratio is not None:
        n, d = ratio
        assert type(n) is type(d) is int and d > 0 and F(n, d) == F(text)
    readers = [lambda: as_fraction(text), lambda: parse_weight(text),
               lambda: va.scoring(text, 0, "-1"), lambda: va.AuditConfig(text)]
    lines = f"{text} x>y>z\n"
    if ratio is not None and n <= d:
        lines += f"{F(d - n, d)} y>z>x\n"
    readers.append(lambda: va.parse_profile(f"domain: full\n{lines}"))
    fast = [_reading(read) for read in readers]
    with mock.patch.object(va.core, "_plain_ratio", lambda text: None):
        assert [_reading(read) for read in readers] == fast


# -- the integer-count core ---------------------------------------------------

@given(full_profiles(), st.sampled_from(va.ALL_PERMUTATIONS))
def test_permute_and_inverse_give_the_canonical_profile(profile, perm):
    back = va.permute_profile(va.permute_profile(profile, perm), va.CandidatePermutation.from_mapping({b: a for a, b in perm.pairs}))
    assert back == profile and hash(back) == hash(profile)
    assert (back.den, back.counts) == (profile.den, profile.counts)


@given(full_profiles(), st.sampled_from(va.RANKINGS), st.integers(7, 997))
def test_transfer_and_reverse_give_the_canonical_profile(profile, dst, denominator):
    src = profile.support[0]
    amount = min(profile.weight(src), F(1, denominator))  # usually a new denominator
    moved, size = va.transfer_weight(profile, [(src, dst, amount)])
    back, _ = va.transfer_weight(moved, [(dst, src, amount)])
    assert size == amount
    assert back == profile and hash(back) == hash(profile)
    assert (back.den, back.counts) == (profile.den, profile.counts)


@given(full_profiles(), st.integers(2, 50))
def test_unreduced_denominators_give_the_canonical_profile(profile, factor):
    scaled = va.Profile._trusted(profile.domain, profile.den * factor,
                                 [(s, c * factor) for s, c in profile.counts])
    assert scaled == profile and hash(scaled) == hash(profile)
    assert scaled.den == profile.den
    text = "domain: full\n" + "\n".join(
        f"{c * factor}/{profile.den * factor} {va.core.SLOT_RANKINGS[s]}" for s, c in profile.counts)
    parsed = va.parse_profile(text)
    assert parsed == profile and hash(parsed) == hash(profile)


@given(full_profiles())
def test_weights_round_trip_through_the_constructor(profile):
    weights = profile.weights
    assert all(isinstance(w, F) and w > 0 for w in weights.values())
    assert list(weights) == sorted(weights) == list(profile.support)
    assert va.Profile(weights, profile.domain) == profile
    assert all(profile.weight(r) == weights.get(r, 0) for r in va.RANKINGS)
    assert sum(c for _, c in profile.counts) == profile.den
    assert sum(profile.weights.values()) == 1


def test_slots_cover_every_ranking_of_two_or_three_alternatives():
    assert len(va.core.SLOT_RANKINGS) == 12 and list(va.core.SLOT_RANKINGS) == sorted(va.core.SLOT_RANKINGS)
    assert set(va.RANKINGS) <= set(va.core.SLOT_RANKINGS)
    assert all(va.core.SLOT_RANKINGS[r.slot] == r for r in va.core.SLOT_RANKINGS)


@st.composite
def weight_terms(draw):
    """(ranking, n, d) terms: a profile's weights cut into unreduced, repeated,
    shuffled parts (a part may be negative), sometimes with one term added."""
    terms = []
    for r, w in zip(va.RANKINGS, draw(simplex_weights(6))):
        scale = draw(st.integers(1, 4))
        n, d = w.numerator * scale, w.denominator * scale
        cut = draw(st.integers(-2, n + 2))
        terms += [(r, cut, d), (r, n - cut, d)]
    if draw(st.booleans()):
        terms.append((draw(st.sampled_from(va.RANKINGS)), draw(st.integers(-3, 3)),
                      draw(st.integers(1, 12))))
    return draw(st.permutations(terms))


@given(weight_terms(), st.sampled_from([va.FULL_DOMAIN, va.CYCLE_DOMAIN]))
def test_checked_constructor_agrees_with_the_fraction_sums(terms, domain):
    sums: dict = {}
    for r, n, d in terms:
        sums[r] = sums.get(r, F(0)) + F(n, d)
    try:
        expected = va.Profile(sums, domain)
    except ProfileError as exc:
        with pytest.raises(ProfileError) as caught:
            va.Profile._checked(domain, terms)
        assert str(caught.value) == str(exc)
    else:
        built = va.Profile._checked(domain, terms)
        assert built == expected and (built.den, built.counts) == (expected.den, expected.counts)


@given(weight_terms())
def test_the_constructor_reads_weights_as_the_text_format_does(terms):
    """Repeated, zero and negative weights: the same profile, or the same refusal."""
    weights = [(r, f"{n}/{d}") for r, n, d in terms]
    text = "".join(f"{w} {r}\n" for r, w in weights)
    try:
        expected = va.parse_profile("domain: full\n" + text)
    except ProfileError as exc:
        with pytest.raises(ProfileError) as caught:
            va.Profile(weights, va.FULL_DOMAIN)
        assert str(caught.value) == str(exc)
    else:
        assert va.Profile(weights, va.FULL_DOMAIN) == expected


def test_repeated_keys_add_up_in_profile_from():
    with pytest.raises(ProfileError, match="^weights sum to 5/4, expected exactly 1$"):
        va.profile_from({"xyz": "1/4", "x>y>z": "1/2", "yzx": "1/2"})
    assert va.profile_from({"xyz": "1/4", "x>y>z": "1/4", "yzx": "1/2"}) == \
        va.profile_from({"xyz": "1/2", "yzx": "1/2"})


def test_an_inferred_pair_domain_holds_both_rankings_of_the_pair():
    pair = va.Profile({va.ranking("xy"): 1})
    assert pair == va.restrict_profile(va.profile_from({"xyz": 1}), "xy")
    assert pair.domain == va.Domain((va.ranking("xy"), va.ranking("yx")))
    with pytest.raises(ValueError, match="^domain mixes rankings over different alternatives$"):
        va.Profile({va.ranking("xy"): F(1, 2), va.ranking("xz"): F(1, 2)})
    with pytest.raises(ProfileError, match="^weights sum to 0, expected exactly 1$"):
        va.Profile([])


@pytest.mark.parametrize("build,error,text", [
    (lambda: va.Profile({va.ranking("xyz"): F(3, 2), va.ranking("yzx"): F(-1, 2)}),
     ProfileError, "negative weight -1/2 on y>z>x"),
    (lambda: va.Profile({va.ranking("xyz"): F(1, 2), va.ranking("xzy"): F(1, 2)},
                        va.CYCLE_DOMAIN),
     ProfileError, "ranking x>z>y has positive weight but is outside the domain"),
    (lambda: va.Profile({va.ranking("xyz"): F(1, 2), va.ranking("yzx"): F(1, 3)}),
     ProfileError, "weights sum to 5/6, expected exactly 1"),
    (lambda: va.Profile({}), ProfileError, "weights sum to 0, expected exactly 1"),
    (lambda: va.transfer_weight(va.profile_from({"xyz": "1/4", "yzx": "3/4"}),
                                [(va.ranking("xyz"), va.ranking("yzx"), F(-1, 8))]),
     InfeasibleMoveError, "negative transfer -1/8 from x>y>z to y>z>x"),
    (lambda: va.transfer_weight(va.profile_from({"xyz": "1/2", "yzx": "1/2"}, va.CYCLE_DOMAIN),
                                [(va.ranking("xyz"), va.ranking("xzy"), F(1, 10))]),
     va.core.DomainViolationError, "reported ranking x>z>y is outside the domain"),
    (lambda: va.transfer_weight(va.profile_from({"xyz": "1/4", "yzx": "3/4"}),
                                [(va.ranking("xyz"), va.ranking("yzx"), F(1, 5)),
                                 (va.ranking("xyz"), va.ranking("zxy"), F(1, 6))]),
     InfeasibleMoveError, "transfer of 11/30 exceeds the weight 1/4 on x>y>z"),
    (lambda: va.transfer_weight(va.profile_from({"xyz": "1/4", "yzx": "3/4"}),
                                [(va.ranking("zyx"), va.ranking("yzx"), F(1, 7))]),
     InfeasibleMoveError, "transfer of 1/7 exceeds the weight 0 on z>y>x"),
    # a negative amount is reported before an off-domain report, and both before an overdraw
    (lambda: va.transfer_weight(va.profile_from({"xyz": "1/2", "yzx": "1/2"}, va.CYCLE_DOMAIN),
                                [(va.ranking("xyz"), va.ranking("yzx"), F(1)),
                                 (va.ranking("xyz"), va.ranking("xzy"), F(1, 10)),
                                 (va.ranking("xyz"), va.ranking("yzx"), F(-1, 3))]),
     va.core.DomainViolationError, "reported ranking x>z>y is outside the domain"),
    (lambda: va.transfer_weight(va.profile_from({"xyz": "1/2", "yzx": "1/2"}, va.CYCLE_DOMAIN),
                                [(va.ranking("xyz"), va.ranking("yzx"), F(1)),
                                 (va.ranking("xyz"), va.ranking("yzx"), F(-1, 3)),
                                 (va.ranking("xyz"), va.ranking("xzy"), F(1, 10))]),
     InfeasibleMoveError, "negative transfer -1/3 from x>y>z to y>z>x"),
    (lambda: va.parse_profile("domain: {x>y, y>x}\n1 x>y>z\n"),
     ProfileParseError, "line 1: missing alternative 'z' in 'x>y'"),
    (lambda: va.parse_profile("# header next\n\ndomain: {x>y>z,}\n1 x>y>z\n"),
     ProfileParseError, "line 3: unknown alternative '' in ''"),
])
def test_error_texts(build, error, text):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == text

"""Alternatives, rankings, domains, weighted profiles, and weight transfers.

Everything here is exact and no float enters anywhere.  A profile is a point
of the simplex over the rankings of its domain, stored as one positive common
denominator `den` and an integer count per ranking of its support (weight =
count / den), reduced by gcd(den, *counts): two profiles with identical
weights are equal and hash equal, so voter relabelings are invisible by
construction.  Every ranking has a fixed slot in `SLOT_RANKINGS` (the six of
three alternatives and the six of two that restriction to a pair produces),
stored on the ranking when it is built, and counts are keyed by slot:
`Profile._checked` alone turns weights into counts, renaming and restriction
to a pair are both `relabel`, a slot map built at import, and
`transfer_weight` reads each amount once as an integer pair.  The public API
stays on `fractions.Fraction`: `Profile(weights, domain)` takes weights and
`weights`, `weight` and the text format give them back.  `parse_profile`
reads the text format in one pass into the (slot, n, d) terms `_checked`
takes: each canonical ranking text goes to its slot by one lookup, and the
header's domain comes from `parse_domain`'s cache.

All types are immutable and hashable; every function is pure.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

ALTERNATIVES: tuple[str, str, str] = ("x", "y", "z")


class RankingParseError(ValueError):
    """Raised when a ranking string is malformed."""


class ProfileError(ValueError):
    """Raised when profile weights are invalid (negative, off-domain, or not summing to 1)."""


class ProfileParseError(ProfileError):
    """Raised when a profile file cannot be parsed."""


class InfeasibleMoveError(ValueError):
    """Raised when a weight transfer overdraws a ranking's weight."""


class DomainViolationError(ValueError):
    """Raised when a transfer reports a ranking outside the profile's domain."""


@dataclass(frozen=True, order=True)
class Ranking:
    """A strict total order over two or three alternatives, best first."""

    order: tuple[str, ...]
    #: this ranking's index in `SLOT_RANKINGS`, stored once
    slot: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.order) not in (2, 3):
            raise RankingParseError(f"ranking must list 2 or 3 alternatives, got {self.order!r}")
        _check_alternatives(self.order, "")
        object.__setattr__(self, "slot", _SLOT[self.order])

    def prefers(self, a: str, b: str) -> bool:
        """True iff `a` appears before `b`."""
        return self.order.index(a) < self.order.index(b)

    def position(self, a: str) -> int:
        """0-based position of `a` (0 = best)."""
        return self.order.index(a)

    @property
    def alternatives(self) -> frozenset[str]:
        return frozenset(self.order)

    def __str__(self) -> str:
        return ">".join(self.order)

    def __repr__(self) -> str:
        return f"Ranking({self})"


def _check_alternatives(order: tuple[str, ...], where: str) -> None:
    """Refuse the first unknown or repeated alternative of `order`; `where` ends the message."""
    for i, alt in enumerate(order):
        if alt not in ALTERNATIVES:
            raise RankingParseError(f"unknown alternative {alt!r}{where}")
        if alt in order[:i]:
            raise RankingParseError(f"duplicate alternative {alt!r}{where}")


def _split_ranking(text: str) -> tuple[str, ...]:
    """The alternatives of ``>`` text, each stripped; refuses the first unknown or repeated one."""
    order = tuple(p.strip() for p in text.split(">"))
    _check_alternatives(order, f" in {text!r}")
    return order


def ranking(text: str) -> Ranking:
    """Shorthand constructor from compact text, e.g. ``ranking("xyz")`` or ``ranking("x>y>z")``;
    a pair ranking reads in either notation, ``ranking("xy")`` or ``ranking("x>y")``."""
    return Ranking(_split_ranking(text) if ">" in text else tuple(text))


def parse_ranking(text: str) -> Ranking:
    """Parse a full three-alternative ranking string like ``"x>y>z"``.

    Each of the three alternatives must appear exactly once.  The six canonical
    texts (spaces around them aside) are one lookup and give the shared ranking.
    """
    known = _RANKING_TEXTS.get(text.strip())
    if known is not None:
        return known
    order = _split_ranking(text)
    missing = [a for a in ALTERNATIVES if a not in order]
    if missing:
        raise RankingParseError(f"missing alternative {missing[0]!r} in {text!r}")
    return Ranking(order)


#: The slot of each order tuple: its index among the sorted orders of two and three
#: alternatives, which is its ranking's index in `SLOT_RANKINGS` (rankings sort by order).
_SLOT = {order: i for i, order in enumerate(sorted(
    p for n in (2, 3) for p in itertools.permutations(ALTERNATIVES, n)))}

#: The six rankings in canonical (lexicographic) order.
RANKINGS: tuple[Ranking, ...] = tuple(
    Ranking(p) for p in sorted(itertools.permutations(ALTERNATIVES))
)

_RANKING_TEXTS = {str(r): r for r in RANKINGS}

#: Every ranking a profile can weight, in sorted order: the six of three
#: alternatives and the six of two (a profile restricted to a pair).  A
#: profile's counts are keyed by index into this tuple, its slot.
SLOT_RANKINGS: tuple[Ranking, ...] = tuple(Ranking(order) for order in _SLOT)

#: The slot of each of the six canonical ranking texts, as `parse_profile` reads them.
_TEXT_SLOTS = {text: r.slot for text, r in _RANKING_TEXTS.items()}


@dataclass(frozen=True)
class CandidatePermutation:
    """A bijection on the alternative names; `pairs` is stored sorted, so it is one value."""

    pairs: tuple[tuple[str, str], ...]
    _mapping: dict[str, str] = field(init=False, repr=False, compare=False)
    #: slot of the renamed ranking, per slot
    _slots: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mapping = dict(self.pairs)
        if len(self.pairs) != 3 or not set(mapping) == set(mapping.values()) == set(ALTERNATIVES):
            raise ValueError(f"not a bijection on {ALTERNATIVES}: {mapping!r}")
        object.__setattr__(self, "pairs", tuple(sorted(self.pairs)))
        object.__setattr__(self, "_mapping", mapping)
        object.__setattr__(self, "_slots", tuple(
            _SLOT[tuple(map(mapping.get, r.order))] for r in SLOT_RANKINGS))

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str]) -> "CandidatePermutation":
        return cls(tuple(mapping.items()))

    def __call__(self, alt: str) -> str:
        return self._mapping[alt]

    def __str__(self) -> str:
        return ",".join(f"{a}->{b}" for a, b in self.pairs)


#: All six permutations of the alternative names, in a fixed deterministic order.
ALL_PERMUTATIONS: tuple[CandidatePermutation, ...] = tuple(
    CandidatePermutation.from_mapping(dict(zip(ALTERNATIVES, img)))
    for img in sorted(itertools.permutations(ALTERNATIVES))
)


@dataclass(frozen=True)
class Domain:
    """A nonempty set of admissible rankings, iterated in canonical order."""

    rankings: tuple[Ranking, ...]
    _alternatives: frozenset[str] = field(init=False, repr=False, compare=False)
    _mask: int = field(init=False, repr=False, compare=False)  # bit i: slot i is a member

    def __post_init__(self) -> None:
        if not self.rankings:
            raise ValueError("domain must be nonempty")
        members = frozenset(self.rankings)
        alternative_sets = {r.alternatives for r in members}
        if len(alternative_sets) != 1:
            raise ValueError("domain mixes rankings over different alternatives")
        object.__setattr__(self, "rankings", tuple(sorted(members)))
        object.__setattr__(self, "_alternatives", alternative_sets.pop())
        object.__setattr__(self, "_mask", sum(1 << r.slot for r in members))

    def __hash__(self) -> int:  # equal rankings give equal masks; profiles hash their domain
        return self._mask

    @property
    def alternatives(self) -> frozenset[str]:
        """The alternatives every ranking of the domain orders."""
        return self._alternatives

    def __contains__(self, r: Ranking) -> bool:
        return bool(self._mask >> r.slot & 1)

    def __iter__(self):
        return iter(self.rankings)

    def __len__(self) -> int:
        return len(self.rankings)

    def permute(self, perm: CandidatePermutation) -> "Domain":
        return _domain_image(self, perm._slots)

    def __str__(self) -> str:
        if self._mask == _FULL_MASK:
            return "full"
        return "{" + ", ".join(str(r) for r in self.rankings) + "}"


@functools.cache  # at most 72 domains (63 of three alternatives, 9 of two) times 9 slot maps
def _domain_image(domain: Domain, images: tuple[int | None, ...]) -> Domain:
    """The rankings at `images` of the domain's slots; rankings that meet are one."""
    return Domain(tuple(SLOT_RANKINGS[images[r.slot]] for r in domain))


_FULL_MASK = sum(1 << r.slot for r in RANKINGS)

FULL_DOMAIN = Domain(RANKINGS)

#: The cyclic three-ranking domain on which pairwise majorities can cycle.
CYCLE_DOMAIN = Domain((ranking("xyz"), ranking("yzx"), ranking("zxy")))


@functools.lru_cache(maxsize=256)  # keyed by the text; a refusal is not cached
def parse_domain(text: str) -> Domain:
    """Parse ``"full"`` or a braced ranking list like ``"{x>y>z, y>z>x}"``."""
    text = text.strip()
    if text == "full":
        return FULL_DOMAIN
    if not (text.startswith("{") and text.endswith("}")):
        raise ProfileParseError(f"bad domain spec {text!r}: expected 'full' or '{{...}}'")
    inner = text[1:-1].strip()
    if not inner:
        raise ProfileParseError("domain list is empty")
    return _domain_of(frozenset(parse_ranking(tok) for tok in inner.split(",")))


@functools.cache  # at most 63 member sets: `parse_ranking` reads three-alternative rankings only
def _domain_of(members: frozenset[Ranking]) -> Domain:
    return Domain(tuple(members))


def is_rich(domain: Domain) -> bool:
    """True iff every alternative sits in the middle of some ranking in the domain."""
    if any(len(r.order) != 3 for r in domain):
        raise ValueError("richness is defined for three-alternative domains")
    return all(any(r.position(a) == 1 for r in domain) for a in ALTERNATIVES)


def _plain_ratio(text: str) -> tuple[int, int] | None:
    """(n, d) for text of ASCII digits n, optionally followed by ``/`` and digits d > 0.

    Any other text gives None: `as_fraction` reads or refuses it through `Fraction`, and
    so does digit text past `sys.get_int_max_str_digits()`, which `int` refuses here.
    """
    num, slash, den = text.partition("/")
    den = den if slash else "1"
    if not (text.isascii() and num.isdigit() and den.isdigit()):
        return None
    try:
        n, d = int(num), int(den)
    except ValueError:  # too many digits
        return None
    return (n, d) if d else None


def as_fraction(value) -> Fraction:
    """`value` as a `Fraction`: from a `Fraction`, an `int`, or text like ``"3/7"``.

    Plain ratio text (`_plain_ratio`) is read as two integers; other text goes to `Fraction`.
    A float is refused: it is already rounded; so is a `bool`, though Python counts it an
    `int`.  Text whose exponent has a magnitude at least Python's limit on the digits of
    integer text (`sys.get_int_max_str_digits()`, unless 0) is refused with a `ValueError`:
    `Fraction` would first build 10 to that power, which takes seconds and megabytes
    that the limit does not bound.  So is text with a zero denominator, like ``"1/0"``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        ratio = _plain_ratio(value)
        if ratio is not None:
            return Fraction(*ratio)
        if "e" in value or "E" in value:  # only exponent text pays
            limit = sys.get_int_max_str_digits()
            try:
                exponent = abs(int(value.lower().rpartition("e")[2]))
            except ValueError:  # not a number: `Fraction` says so below
                exponent = 0
            if limit and exponent >= limit:
                raise ValueError(f"exponent out of range in {value!r}")
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except ZeroDivisionError:  # only text, like "1/0"
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"expected an exact rational, got {type(value).__name__} {value!r}")


@dataclass(frozen=True)
class Profile:
    """Nonnegative rational weights on rankings, summing to exactly 1.

    Zero weights are accepted on input and normalized away: the support may be
    any subset of the domain.  Stored as a positive common denominator `den`
    and `counts`, the (slot, count) pairs of the support in slot order
    (weight = count / den), reduced by their gcd; equality compares domains
    and those integers, so it is equality of the support weights.
    """

    domain: Domain
    den: int = field(repr=False)
    counts: tuple[tuple[int, int], ...] = field(repr=False)

    def __init__(self, weights: Mapping[Ranking, Fraction] | Iterable[tuple[Ranking, Fraction]],
                 domain: Domain | None = None):
        """Read `weights`, a mapping or (ranking, weight) pairs, as `_checked` reads the
        text format's terms: each made exact by `as_fraction`, a repeated ranking's weights
        added up.  No `domain` means every ranking over the weights' alternatives (or all three)."""
        pairs = weights.items() if isinstance(weights, Mapping) else weights
        terms = [(r.slot, *as_fraction(w).as_integer_ratio()) for r, w in pairs]
        if domain is None:
            alternatives = ({SLOT_RANKINGS[s].alternatives for s, _, _ in terms}
                            or {FULL_DOMAIN.alternatives})
            domain = Domain(tuple(r for r in SLOT_RANKINGS if r.alternatives in alternatives))
        vars(self).update(vars(Profile._checked(domain, terms)))

    @classmethod
    def _checked(cls, domain: Domain, weights: Sequence[tuple[int, int, int]]) -> "Profile":
        """The profile of (slot, n, d) weights n/d, each d > 0; repeated slots add up.
        Raises `ProfileError` if a ranking's weight is negative or positive off the domain,
        or the weights do not sum to exactly 1."""
        den = math.lcm(*[d for _, _, d in weights])
        counts: dict[int, int] = {}
        for slot, n, d in weights:
            counts[slot] = counts.get(slot, 0) + n * (den // d)
        mask, total = domain._mask, 0
        for slot, c in counts.items():  # checks each count and sums them
            if c < 0:
                raise ProfileError(f"negative weight {Fraction(c, den)} on {SLOT_RANKINGS[slot]}")
            if c and not mask >> slot & 1:
                raise ProfileError(
                    f"ranking {SLOT_RANKINGS[slot]} has positive weight but is outside the domain")
            total += c
        if total != den:
            raise ProfileError(f"weights sum to {Fraction(total, den)}, expected exactly 1")
        return cls._trusted(domain, den, counts.items())

    @classmethod
    def _trusted(cls, domain: Domain, den: int, counts: Iterable[tuple[int, int]]) -> "Profile":
        """The profile of (slot, count) pairs that need no checking.

        The caller guarantees what `_checked` checks: every count is
        nonnegative, every positive one sits on a slot of the domain, and they
        sum to `den`.  Zero counts are dropped, and `den` and the counts are
        divided by their gcd, so the result is canonical.
        """
        counts = sorted([(s, c) for s, c in counts if c])
        g = math.gcd(den, *[c for _, c in counts])
        if g > 1:
            den //= g
            counts = [(s, c // g) for s, c in counts]
        profile = object.__new__(cls)
        vars(profile).update(domain=domain, den=den, counts=tuple(counts))
        return profile

    def weight(self, r: Ranking) -> Fraction:
        return Fraction(dict(self.counts).get(r.slot, 0), self.den)

    @property
    def weights(self) -> dict[Ranking, Fraction]:
        den = self.den
        return {SLOT_RANKINGS[s]: Fraction(c, den) for s, c in self.counts}

    @property
    def support(self) -> tuple[Ranking, ...]:
        return tuple(SLOT_RANKINGS[s] for s, _ in self.counts)

    @property
    def alternatives(self) -> frozenset[str]:
        return self.domain.alternatives

    def __str__(self) -> str:
        return format_profile(self)


def profile_from(weights: Mapping[str, object], domain: Domain | None = None) -> Profile:
    """Build a profile from ranking text keys, e.g. ``profile_from({"xyz": "1/2", "yzx": "1/2"})``,
    as `Profile` builds it: keys that name one ranking (``"xyz"``, ``"x>y>z"``) add up."""
    return Profile([(ranking(k), v) for k, v in weights.items()], domain)


def relabel(profile: Profile, images: tuple[int | None, ...]) -> Profile:
    """Move each slot's count to slot `images[slot]`, adding counts that meet: a renaming
    maps slots one to one, restriction to a pair may send two rankings to one.  `images`
    must name a slot for every ranking of the profile's domain."""
    counts: dict[int, int] = {}
    for slot, c in profile.counts:
        image = images[slot]
        counts[image] = counts.get(image, 0) + c
    return Profile._trusted(_domain_image(profile.domain, images), profile.den, counts.items())


def permute_profile(profile: Profile, perm: CandidatePermutation) -> Profile:
    """Rename candidates on every ballot: the weight of ``perm(r)`` equals the old weight of ``r``."""
    return relabel(profile, perm._slots)


Move = tuple[Ranking, Ranking, Fraction]


def transfer_weight(profile: Profile, moves: Sequence[Move]) -> tuple[Profile, Fraction]:
    """Shift weight between rankings; returns the new profile and the total mass moved.

    Each move is (true ranking, reported ranking, amount >= 0).  The total
    outflow from a ranking may not exceed its weight, and every reported
    ranking must lie inside the profile's domain.  Each amount is read once as
    an integer pair, and the counts move at the common denominator
    lcm(den, every amount's denominator).
    """
    checked = []
    mask = profile.domain._mask
    for src, dst, amount in moves:
        n, d = as_fraction(amount).as_integer_ratio()
        if n < 0:
            raise InfeasibleMoveError(f"negative transfer {Fraction(n, d)} from {src} to {dst}")
        if not mask >> dst.slot & 1:
            raise DomainViolationError(f"reported ranking {dst} is outside the domain")
        checked.append((src.slot, dst.slot, n, d))
    den = math.lcm(profile.den, *(d for _, _, _, d in checked))
    scale = den // profile.den
    held = {s: c * scale for s, c in profile.counts}
    counts = dict(held)
    outflow: dict[int, int] = {}
    moved = 0
    for src, dst, n, d in checked:
        k = n * (den // d)
        outflow[src] = outflow.get(src, 0) + k
        counts[src] = counts.get(src, 0) - k
        counts[dst] = counts.get(dst, 0) + k
        moved += k
    for src, out in outflow.items():
        if out > held.get(src, 0):
            raise InfeasibleMoveError(
                f"transfer of {Fraction(out, den)} exceeds the weight "
                f"{Fraction(held.get(src, 0), den)} on {SLOT_RANKINGS[src]}"
            )
    return Profile._trusted(profile.domain, den, counts.items()), Fraction(moved, den)


def parse_weight(token: str) -> Fraction:
    """Exact rational reading of ``p/q`` or decimal text (``0.25`` -> 1/4, ``1e-3`` -> 1/1000).

    An exponent that `as_fraction` refuses is refused here too.
    """
    try:
        return as_fraction(token)
    except ValueError:
        raise ProfileParseError(f"bad weight {token!r}") from None


def parse_profile(text: str) -> Profile:
    """Parse the profile text format.

    Line 1 (ignoring comments/blanks): ``domain: full`` or ``domain: {x>y>z, ...}``.
    Each further line: ``<weight> <ranking>``; ``#`` starts a comment.  Repeated
    rankings accumulate.  Weights must sum to exactly 1.

    One pass turns the lines into (slot, n, d) terms for `Profile._checked`: a
    canonical ranking text is one lookup (`parse_ranking` reads any other, and
    refuses it with its own text), and so, once read, is the header's text.
    """
    domain: Domain | None = None
    terms: list[tuple[int, int, int]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if "#" in line:
            line = line.partition("#")[0]
        parts = line.split()
        if not parts:
            continue
        if domain is None:
            line = line.strip()
            if not line.startswith("domain:"):
                raise ProfileParseError(f"line {lineno}: expected 'domain:' header, got {line!r}")
            try:
                domain = parse_domain(line[len("domain:"):])
            except RankingParseError as exc:
                raise ProfileParseError(f"line {lineno}: {exc}") from None
            continue
        if len(parts) != 2:
            raise ProfileParseError(
                f"line {lineno}: expected '<weight> <ranking>', got {line.strip()!r}")
        weight, name = parts
        n, d = _plain_ratio(weight) or parse_weight(weight).as_integer_ratio()
        slot = _TEXT_SLOTS.get(name)
        if slot is None:
            try:
                slot = parse_ranking(name).slot
            except RankingParseError as exc:
                raise ProfileParseError(f"line {lineno}: {exc}") from None
        terms.append((slot, n, d))
    if domain is None:
        raise ProfileParseError("missing 'domain:' header")
    try:
        return Profile._checked(domain, terms)
    except ProfileError as exc:
        raise ProfileParseError(str(exc)) from None


def format_profile(profile: Profile) -> str:
    """Serialize to the text format.

    For a profile over three alternatives, parsing the result reproduces it exactly.  A
    pair profile (from `rules.restrict_profile`) prints too, but `parse_domain` reads no
    pair domain, so its text does not parse.
    """
    lines = [f"domain: {profile.domain}"]
    for r, w in profile.weights.items():  # in slot order, which is sorted order
        lines.append(f"{w} {r}")
    return "\n".join(lines)

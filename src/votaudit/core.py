"""Alternatives, rankings, domains, weighted profiles, and weight transfers.

Everything here is exact and no float enters anywhere.  A profile is a point
of the simplex over the rankings of its domain, stored as one positive common
denominator `den` and an integer count per ranking of its support (weight =
count / den), reduced by gcd(den, *counts): two profiles with identical
weights are equal and hash equal, so voter relabelings are invisible by
construction.  Every ranking has a fixed slot in `SLOT_RANKINGS` (the six of
three alternatives and the six of two that restriction to a pair produces),
and counts are keyed by slot, so renaming, restricting and transferring work
on ints through small tables built at import.  The public API stays on
`fractions.Fraction`: `Profile(weights, domain)` takes weights and
`weights`, `weight`, `total_weight` and the text format give them back.

All types are immutable and hashable; every function is pure.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

ALTERNATIVES: tuple[str, str, str] = ("x", "y", "z")

_ALT_INDEX = {a: i for i, a in enumerate(ALTERNATIVES)}


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

    def __post_init__(self) -> None:
        if len(self.order) not in (2, 3):
            raise RankingParseError(f"ranking must list 2 or 3 alternatives, got {self.order!r}")
        seen = set()
        for alt in self.order:
            if alt not in _ALT_INDEX:
                raise RankingParseError(f"unknown alternative {alt!r}")
            if alt in seen:
                raise RankingParseError(f"duplicate alternative {alt!r}")
            seen.add(alt)

    def prefers(self, a: str, b: str) -> bool:
        """True iff `a` appears before `b`."""
        return self.order.index(a) < self.order.index(b)

    def position(self, a: str) -> int:
        """0-based position of `a` (0 = best)."""
        return self.order.index(a)

    @property
    def slot(self) -> int:
        """This ranking's index in `SLOT_RANKINGS`."""
        return _SLOT[self.order]

    @property
    def alternatives(self) -> frozenset[str]:
        return frozenset(self.order)

    def restrict(self, alts: Iterable[str]) -> "Ranking":
        """The induced order on a subset of the alternatives."""
        keep = set(alts)
        return Ranking(tuple(a for a in self.order if a in keep))

    def __str__(self) -> str:
        return ">".join(self.order)

    def __repr__(self) -> str:
        return f"Ranking({self})"


def ranking(text: str) -> Ranking:
    """Shorthand constructor from compact text, e.g. ``ranking("xyz")`` or ``ranking("x>y>z")``."""
    if ">" in text:
        return parse_ranking(text)
    return Ranking(tuple(text))


def parse_ranking(text: str) -> Ranking:
    """Parse a full three-alternative ranking string like ``"x>y>z"``.

    Each of the three alternatives must appear exactly once.
    """
    parts = [p.strip() for p in text.split(">")]
    order = tuple(parts)
    seen = set()
    for tok in order:
        if tok not in _ALT_INDEX:
            raise RankingParseError(f"unknown alternative {tok!r} in {text!r}")
        if tok in seen:
            raise RankingParseError(f"duplicate alternative {tok!r} in {text!r}")
        seen.add(tok)
    missing = [a for a in ALTERNATIVES if a not in seen]
    if missing:
        raise RankingParseError(f"missing alternative {missing[0]!r} in {text!r}")
    return Ranking(order)


#: The six rankings in canonical (lexicographic) order.
RANKINGS: tuple[Ranking, ...] = tuple(
    Ranking(p) for p in sorted(itertools.permutations(ALTERNATIVES))
)

#: Every ranking a profile can weight, in sorted order: the six of three
#: alternatives and the six of two (a profile restricted to a pair).  A
#: profile's counts are keyed by index into this tuple, its slot.
SLOT_RANKINGS: tuple[Ranking, ...] = tuple(sorted(
    Ranking(p) for n in (2, 3) for p in itertools.permutations(ALTERNATIVES, n)
))

_SLOT = {r.order: i for i, r in enumerate(SLOT_RANKINGS)}


@dataclass(frozen=True)
class CandidatePermutation:
    """A bijection on the alternative names."""

    pairs: tuple[tuple[str, str], ...]
    _mapping: dict[str, str] = field(init=False, repr=False, compare=False)
    #: slot of the renamed ranking, per slot (None where the pairs leave a name unmapped)
    _slots: tuple[int | None, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mapping = dict(self.pairs)
        object.__setattr__(self, "_mapping", mapping)
        object.__setattr__(self, "_slots", tuple(
            _SLOT.get(tuple(map(mapping.get, r.order))) for r in SLOT_RANKINGS))

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str]) -> "CandidatePermutation":
        if sorted(mapping) != sorted(ALTERNATIVES) or sorted(mapping.values()) != sorted(ALTERNATIVES):
            raise ValueError(f"not a bijection on {ALTERNATIVES}: {mapping!r}")
        return cls(tuple(sorted(mapping.items())))

    def __call__(self, alt: str) -> str:
        return self._mapping[alt]

    def apply_set(self, alts: Iterable[str]) -> frozenset[str]:
        return frozenset(self(a) for a in alts)

    def inverse(self) -> "CandidatePermutation":
        return CandidatePermutation.from_mapping({v: k for k, v in self.pairs})

    def __str__(self) -> str:
        return ",".join(f"{a}->{b}" for a, b in self.pairs)


IDENTITY_PERMUTATION = CandidatePermutation.from_mapping({a: a for a in ALTERNATIVES})

#: All six permutations of the alternative names, in a fixed deterministic order.
ALL_PERMUTATIONS: tuple[CandidatePermutation, ...] = tuple(
    CandidatePermutation.from_mapping(dict(zip(ALTERNATIVES, img)))
    for img in sorted(itertools.permutations(ALTERNATIVES))
)


def parse_permutation(text: str) -> CandidatePermutation:
    """Parse ``"x->y,y->z,z->x"`` (whitespace tolerated)."""
    mapping = {}
    for part in text.split(","):
        try:
            src, dst = (t.strip() for t in part.split("->"))
        except ValueError:
            raise ValueError(f"bad permutation component {part!r}") from None
        mapping[src] = dst
    return CandidatePermutation.from_mapping(mapping)


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
        return _permuted_domain(self, perm._slots)

    def __str__(self) -> str:
        if self._mask == _FULL_MASK:
            return "full"
        return "{" + ", ".join(str(r) for r in self.rankings) + "}"


@functools.cache  # at most 72 domains (63 of three alternatives, 9 of two) times 6 renamings
def _permuted_domain(domain: Domain, images: tuple[int | None, ...]) -> Domain:
    return Domain(tuple(SLOT_RANKINGS[images[r.slot]] for r in domain))


_FULL_MASK = sum(1 << r.slot for r in RANKINGS)

FULL_DOMAIN = Domain(RANKINGS)

#: The cyclic three-ranking domain on which pairwise majorities can cycle.
CYCLE_DOMAIN = Domain((ranking("xyz"), ranking("yzx"), ranking("zxy")))


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
    return Domain(tuple(parse_ranking(tok) for tok in inner.split(",")))


def is_rich(domain: Domain) -> bool:
    """True iff every alternative sits in the middle of some ranking in the domain."""
    if any(len(r.order) != 3 for r in domain):
        raise ValueError("richness is defined for three-alternative domains")
    return all(any(r.position(a) == 1 for r in domain) for a in ALTERNATIVES)


def as_fraction(value) -> Fraction:
    """`value` as a `Fraction`: from a `Fraction`, an `int`, or text like ``"3/7"``.

    A float is refused: it is already rounded.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
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
        items = dict(weights)
        if domain is None:
            domain = FULL_DOMAIN if all(len(r.order) == 3 for r in items) else Domain(tuple(items))
        support: dict[int, Fraction] = {}
        for r, w in items.items():
            w = as_fraction(w)
            if w.numerator < 0:
                raise ProfileError(f"negative weight {w} on {r}")
            if w.numerator:
                if r not in domain:
                    raise ProfileError(f"ranking {r} has positive weight but is outside the domain")
                support[r.slot] = w
        # At the lcm of the reduced denominators no prime divides den and every
        # count, so the counts come out reduced.
        den = math.lcm(*(w.denominator for w in support.values()))
        counts = tuple(sorted((s, w.numerator * (den // w.denominator)) for s, w in support.items()))
        total = sum(c for _, c in counts)
        if total != den:
            raise ProfileError(f"weights sum to {Fraction(total, den)}, expected exactly 1")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def _trusted(cls, domain: Domain, den: int, counts: Iterable[tuple[int, int]]) -> "Profile":
        """The profile of (slot, count) pairs that need no checking.

        The caller guarantees what `__init__` checks: every count is
        nonnegative, every positive one sits on a slot of the domain, and they
        sum to `den`.  Zero counts are dropped, and `den` and the counts are
        divided by their gcd, so the result is canonical.
        """
        counts = sorted((s, c) for s, c in counts if c)
        g = math.gcd(den, *(c for _, c in counts))
        if g > 1:
            den //= g
            counts = [(s, c // g) for s, c in counts]
        profile = object.__new__(cls)
        object.__setattr__(profile, "domain", domain)
        object.__setattr__(profile, "den", den)
        object.__setattr__(profile, "counts", tuple(counts))
        return profile

    def weight(self, r: Ranking) -> Fraction:
        slot = r.slot
        for s, c in self.counts:
            if s == slot:
                return Fraction(c, self.den)
        return Fraction(0)

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

    def total_weight(self) -> Fraction:
        return Fraction(sum(c for _, c in self.counts), self.den)

    def __str__(self) -> str:
        return format_profile(self)


def profile_from(weights: Mapping[str, object], domain: Domain | None = None) -> Profile:
    """Build a profile from compact text keys, e.g. ``profile_from({"xyz": "1/2", "yzx": "1/2"})``."""
    return Profile({ranking(k): as_fraction(v) for k, v in weights.items()}, domain)


def permute_profile(profile: Profile, perm: CandidatePermutation) -> Profile:
    """Rename candidates on every ballot: the weight of ``perm(r)`` equals the old weight of ``r``."""
    images = perm._slots
    return Profile._trusted(profile.domain.permute(perm), profile.den,
                            [(images[s], c) for s, c in profile.counts])


Move = tuple[Ranking, Ranking, Fraction]


def transfer_weight(profile: Profile, moves: Sequence[Move]) -> tuple[Profile, Fraction]:
    """Shift weight between rankings; returns the new profile and the total mass moved.

    Each move is (true ranking, reported ranking, amount >= 0).  The total
    outflow from a ranking may not exceed its weight, and every reported
    ranking must lie inside the profile's domain.  The counts move at the
    common denominator lcm(den, every amount's denominator).
    """
    checked = []
    for src, dst, amount in moves:
        amount = as_fraction(amount)
        if amount.numerator < 0:
            raise InfeasibleMoveError(f"negative transfer {amount} from {src} to {dst}")
        if dst not in profile.domain:
            raise DomainViolationError(f"reported ranking {dst} is outside the domain")
        checked.append((src.slot, dst.slot, amount))
    den = math.lcm(profile.den, *(amount.denominator for _, _, amount in checked))
    scale = den // profile.den
    held = {s: c * scale for s, c in profile.counts}
    counts = dict(held)
    outflow: dict[int, int] = {}
    moved = 0
    for src, dst, amount in checked:
        k = amount.numerator * (den // amount.denominator)
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
    """Exact rational reading of ``p/q`` or decimal text (``0.25`` -> 1/4)."""
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ProfileParseError(f"bad weight {token!r}") from None


def parse_profile(text: str) -> Profile:
    """Parse the profile text format.

    Line 1 (ignoring comments/blanks): ``domain: full`` or ``domain: {x>y>z, ...}``.
    Each further line: ``<weight> <ranking>``; ``#`` starts a comment.  Repeated
    rankings accumulate.  Weights must sum to exactly 1.
    """
    domain: Domain | None = None
    weights: dict[Ranking, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if domain is None:
            if not line.startswith("domain:"):
                raise ProfileParseError(f"line {lineno}: expected 'domain:' header, got {line!r}")
            try:
                domain = parse_domain(line[len("domain:"):])
            except RankingParseError as exc:
                raise ProfileParseError(f"line {lineno}: {exc}") from None
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ProfileParseError(f"line {lineno}: expected '<weight> <ranking>', got {line!r}")
        w = parse_weight(parts[0])
        try:
            r = parse_ranking(parts[1])
        except RankingParseError as exc:
            raise ProfileParseError(f"line {lineno}: {exc}") from None
        weights[r] = weights.get(r, Fraction(0)) + w
    if domain is None:
        raise ProfileParseError("missing 'domain:' header")
    try:
        return Profile(weights, domain)
    except ProfileError as exc:
        raise ProfileParseError(str(exc)) from None


def format_profile(profile: Profile) -> str:
    """Serialize to the text format; parsing the result reproduces the profile exactly."""
    lines = [f"domain: {profile.domain}"]
    for r, w in profile.weights.items():  # in slot order, which is sorted order
        lines.append(f"{w} {r}")
    return "\n".join(lines)

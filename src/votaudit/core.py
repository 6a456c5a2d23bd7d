"""Alternatives, rankings, domains, weighted profiles, and weight transfers.

Everything here is exact: weights are `fractions.Fraction`, equality checks
are rational equalities, and no value is ever rounded.  The electorate is a
continuum, represented purely by the proportion of voters holding each
ranking; two profiles with identical weight vectors are the same object, so
voter relabelings are invisible by construction.

All types are immutable and hashable; every function is pure.
"""

from __future__ import annotations

import itertools
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
    def top(self) -> str:
        return self.order[0]

    @property
    def alternatives(self) -> frozenset[str]:
        return frozenset(self.order)

    def restrict(self, alts: Iterable[str]) -> "Ranking":
        """The induced order on a subset of the alternatives."""
        keep = set(alts)
        return Ranking(tuple(a for a in self.order if a in keep))

    def permute(self, perm: "CandidatePermutation") -> "Ranking":
        """Rename every alternative through `perm`, preserving positions."""
        return Ranking(tuple(perm(a) for a in self.order))

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


@dataclass(frozen=True)
class CandidatePermutation:
    """A bijection on the alternative names."""

    pairs: tuple[tuple[str, str], ...]
    _mapping: dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_mapping", dict(self.pairs))

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str]) -> "CandidatePermutation":
        if sorted(mapping) != sorted(ALTERNATIVES) or sorted(mapping.values()) != sorted(ALTERNATIVES):
            raise ValueError(f"not a bijection on {ALTERNATIVES}: {mapping!r}")
        return cls(tuple(sorted(mapping.items())))

    @property
    def mapping(self) -> dict[str, str]:
        return dict(self.pairs)

    def __call__(self, alt: str) -> str:
        return self._mapping[alt]

    def apply_set(self, alts: Iterable[str]) -> frozenset[str]:
        return frozenset(self(a) for a in alts)

    def inverse(self) -> "CandidatePermutation":
        return CandidatePermutation.from_mapping({v: k for k, v in self.pairs})

    def compose(self, other: "CandidatePermutation") -> "CandidatePermutation":
        """self after other: (self.compose(other))(a) == self(other(a))."""
        return CandidatePermutation.from_mapping({a: self(other(a)) for a in ALTERNATIVES})

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
    _members: frozenset[Ranking] = field(init=False, repr=False, compare=False)
    _alternatives: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.rankings:
            raise ValueError("domain must be nonempty")
        members = frozenset(self.rankings)
        alternative_sets = {r.alternatives for r in members}
        if len(alternative_sets) != 1:
            raise ValueError("domain mixes rankings over different alternatives")
        object.__setattr__(self, "rankings", tuple(sorted(members)))
        object.__setattr__(self, "_members", members)
        object.__setattr__(self, "_alternatives", alternative_sets.pop())

    @property
    def alternatives(self) -> frozenset[str]:
        """The alternatives every ranking of the domain orders."""
        return self._alternatives

    def __contains__(self, r: Ranking) -> bool:
        return r in self._members

    def __iter__(self):
        return iter(self.rankings)

    def __len__(self) -> int:
        return len(self.rankings)

    def permute(self, perm: CandidatePermutation) -> "Domain":
        return Domain(tuple(r.permute(perm) for r in self.rankings))

    def __str__(self) -> str:
        if self._members == frozenset(RANKINGS):
            return "full"
        return "{" + ", ".join(str(r) for r in self.rankings) + "}"


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
    any subset of the domain.  Equality compares domains and support weights.
    """

    domain: Domain
    _weights: tuple[tuple[Ranking, Fraction], ...] = field(repr=False)

    def __init__(self, weights: Mapping[Ranking, Fraction] | Iterable[tuple[Ranking, Fraction]],
                 domain: Domain | None = None):
        items = dict(weights)
        if domain is None:
            domain = FULL_DOMAIN if all(len(r.order) == 3 for r in items) else Domain(tuple(items))
        total = Fraction(0)
        support: dict[Ranking, Fraction] = {}
        for r, w in items.items():
            w = as_fraction(w)
            if w < 0:
                raise ProfileError(f"negative weight {w} on {r}")
            if w > 0:
                if r not in domain:
                    raise ProfileError(f"ranking {r} has positive weight but is outside the domain")
                support[r] = w
            total += w
        if total != 1:
            raise ProfileError(f"weights sum to {total}, expected exactly 1")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "_weights", tuple(sorted(support.items())))

    def weight(self, r: Ranking) -> Fraction:
        for rr, w in self._weights:
            if rr == r:
                return w
        return Fraction(0)

    @property
    def weights(self) -> dict[Ranking, Fraction]:
        return dict(self._weights)

    @property
    def support(self) -> tuple[Ranking, ...]:
        return tuple(r for r, _ in self._weights)

    @property
    def alternatives(self) -> frozenset[str]:
        return self.domain.alternatives

    def total_weight(self) -> Fraction:
        return sum((w for _, w in self._weights), Fraction(0))

    def __str__(self) -> str:
        return format_profile(self)


def profile_from(weights: Mapping[str, object], domain: Domain | None = None) -> Profile:
    """Build a profile from compact text keys, e.g. ``profile_from({"xyz": "1/2", "yzx": "1/2"})``."""
    return Profile({ranking(k): as_fraction(v) for k, v in weights.items()}, domain)


def permute_profile(profile: Profile, perm: CandidatePermutation) -> Profile:
    """Rename candidates on every ballot: the weight of ``perm(r)`` equals the old weight of ``r``."""
    return Profile(
        {r.permute(perm): w for r, w in profile.weights.items()},
        profile.domain.permute(perm),
    )


Move = tuple[Ranking, Ranking, Fraction]


def transfer_weight(profile: Profile, moves: Sequence[Move]) -> tuple[Profile, Fraction]:
    """Shift weight between rankings; returns the new profile and the total mass moved.

    Each move is (true ranking, reported ranking, amount >= 0).  The total
    outflow from a ranking may not exceed its weight, and every reported
    ranking must lie inside the profile's domain.
    """
    outflow: dict[Ranking, Fraction] = {}
    new_weights = dict(profile.weights)
    moved = Fraction(0)
    for src, dst, amount in moves:
        amount = as_fraction(amount)
        if amount < 0:
            raise InfeasibleMoveError(f"negative transfer {amount} from {src} to {dst}")
        if dst not in profile.domain:
            raise DomainViolationError(f"reported ranking {dst} is outside the domain")
        outflow[src] = outflow.get(src, Fraction(0)) + amount
        new_weights[src] = new_weights.get(src, Fraction(0)) - amount
        new_weights[dst] = new_weights.get(dst, Fraction(0)) + amount
        moved += amount
    for src, out in outflow.items():
        if out > profile.weight(src):
            raise InfeasibleMoveError(
                f"transfer of {out} exceeds the weight {profile.weight(src)} on {src}"
            )
    return Profile(new_weights, profile.domain), moved


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
            domain = parse_domain(line[len("domain:"):])
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
    for r, w in sorted(profile.weights.items()):
        lines.append(f"{w} {r}")
    return "\n".join(lines)

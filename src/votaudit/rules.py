"""Voting rules: Borda, Condorcet, plurality, and a parametric scoring family.

Rules consume weight profiles and return an `Outcome`: the set of alternatives
meeting the rule's criterion, with a winner declared only when that set is a
singleton.  Any exact tie in a rule's decision statistic is treated as
nongeneric, so boundary profiles may evaluate to no winner at all (for the
pairwise-majority rule even an empty set, on a cycle).

Every rule but the pairwise-majority one is positional: its score vector
alone defines it, Borda being (2, 1, 0) and plurality (1, 0, 0), and
`scoring_scores` is the one score function.  Borda's point scores count
strict dominance: an alternative earns one point per alternative ranked
strictly below it, per unit of voter weight, so on the profile
(p: x>y>z, q: y>x>z, 1-p-q: y>z>x) the scores are exactly
(2p + q, 2 - p, 1 - p - q).

A rule votes on the alternatives its profile orders: to vote on a pair,
evaluate the profile `restrict_profile` collapses to it, or evaluate the
profile's image under the pair's slot map in `_RESTRICTIONS`.

Rules read a profile's integer counts: a score is an integer dot product
with the score vector scaled to integers (by the lcm D of its entries'
denominators), and a margin m over den reaches a half when 2*m >= den.
One kernel scores a rule on (slot, count) pairs, and one `evaluate` hands it a
profile's counts or, given a slot map (a renaming's or a restriction's to a
pair), the same counts at their images, where counts that meet add up: an
image is evaluated as `relabel` would build it, but no `Profile` is built.
There are eight tie sets, so eight outcomes: the kernel returns the one built
for its tie set at import and builds none.
`Fraction` appears only in what `scoring_scores`, `borda_scores` and
`condorcet_margins` return.  This code shares nothing with the lattice of
`manipulation`: it is the independent check `verify_witness` replays on.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .core import (
    ALTERNATIVES,
    SLOT_RANKINGS,
    Profile,
    Ranking,
    as_fraction,
    parse_weight,
    relabel,
)

#: The ordered pairs of alternatives; margins are kept in this order.
_PAIRS = tuple((a, b) for a in ALTERNATIVES for b in ALTERNATIVES if a != b)

#: Per slot, the indices into `_PAIRS` of the pairs (a, b) its ranking puts a above b.
_PREFERRED = tuple(
    tuple(i for i, (a, b) in enumerate(_PAIRS)
          if a in r.order and b in r.order and r.prefers(a, b))
    for r in SLOT_RANKINGS
)

#: Per set of alternatives a profile orders (all three, or a pair), each one
#: with the `_PAIRS` indices of its margins over the others.
_CONTESTS = {
    frozenset(c): tuple((a, tuple(_PAIRS.index((a, b)) for b in c if b != a)) for a in c)
    for n in (2, 3) for c in itertools.combinations(ALTERNATIVES, n)
}

#: Per pair of alternatives, the slot map of `restrict_profile`: the slot of every
#: ranking's induced order on the pair (None for a two-alternative ranking of another pair).
_RESTRICTIONS = {
    frozenset(pair): tuple(Ranking(tuple(a for a in r.order if a in pair)).slot
                           if set(pair) <= r.alternatives else None for r in SLOT_RANKINGS)
    for pair in itertools.combinations(ALTERNATIVES, 2)
}

#: Per slot, the alternatives its ranking orders.
_SLOT_ALTERNATIVES = tuple(r.alternatives for r in SLOT_RANKINGS)


@dataclass(frozen=True)
class Outcome:
    """Result of evaluating a rule: the criterion set, and a winner iff it is a singleton."""

    tie_set: frozenset[str]

    @property
    def winner(self) -> str | None:
        if len(self.tie_set) == 1:
            return next(iter(self.tie_set))
        return None

    def __str__(self) -> str:
        if self.winner is not None:
            return f"winner {self.winner}"
        if not self.tie_set:
            return "empty"
        return "tie {" + ", ".join(sorted(self.tie_set)) + "}"


#: The outcome of each of the eight tie sets, built once: `_outcome` returns one of these.
_OUTCOMES = {tie: Outcome(tie) for n in range(len(ALTERNATIVES) + 1)
             for tie in map(frozenset, itertools.combinations(ALTERNATIVES, n))}


#: The positional rules known by name, and their score vectors.
_NAMED_VECTORS = {
    "borda": (Fraction(2), Fraction(1), Fraction(0)),
    "plurality": (Fraction(1), Fraction(0), Fraction(0)),
}


@dataclass(frozen=True)
class RuleDescriptor:
    """One of: borda, condorcet, plurality, or scoring with a fixed score triple.

    Every rule but condorcet is positional and carries its score triple
    (s1, s2, s3), with s1 >= s2 >= s3 and s1 > s3: borda is (2, 1, 0) and
    plurality (1, 0, 0), filled in here; scoring takes any valid triple.
    Condorcet, the pairwise-majority rule, has no score vector.
    """

    kind: str
    score_vector: tuple[Fraction, Fraction, Fraction] | None = None
    #: the score vector times D, the lcm of its entries' denominators; None for condorcet
    _integers: tuple[int, int, int] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("borda", "condorcet", "plurality", "scoring"):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        named = _NAMED_VECTORS.get(self.kind)
        if named is not None:
            if self.score_vector not in (None, named):
                raise ValueError(f"{self.kind} has the fixed score vector "
                                 + ",".join(map(str, named)))
            object.__setattr__(self, "score_vector", named)
        object.__setattr__(self, "_integers", None)
        if self.kind == "condorcet":
            if self.score_vector is not None:
                raise ValueError("condorcet takes no score vector")
            return
        if self.score_vector is None or len(self.score_vector) != 3:
            raise ValueError("scoring rule needs a triple of rationals")
        object.__setattr__(self, "score_vector", tuple(map(as_fraction, self.score_vector)))
        s1, s2, s3 = self.score_vector
        if not (s1 >= s2 >= s3):
            raise ValueError("score vector must be nonincreasing")
        if not s1 > s3:
            raise ValueError("degenerate score vector: s1 must exceed s3")
        d = self._scale()
        object.__setattr__(self, "_integers", tuple(
            s.numerator * (d // s.denominator) for s in self.score_vector))

    def _scale(self) -> int:
        """D, the lcm of the score vector's denominators."""
        return math.lcm(*(s.denominator for s in self.score_vector))

    def __str__(self) -> str:
        if self.kind == "scoring":
            return "score:" + ",".join(str(s) for s in self.score_vector)
        return self.kind


BORDA = RuleDescriptor("borda")
CONDORCET = RuleDescriptor("condorcet")
PLURALITY = RuleDescriptor("plurality")

_NAMED_RULES = {str(rule): rule for rule in (BORDA, CONDORCET, PLURALITY)}


def scoring(s1, s2, s3) -> RuleDescriptor:
    return RuleDescriptor("scoring", (s1, s2, s3))


@functools.lru_cache(maxsize=256)  # descriptors are immutable; a refusal is not cached
def parse_rule(text: str) -> RuleDescriptor:
    """Parse ``borda``, ``condorcet``, ``plurality``, or ``score:s1,s2,s3``."""
    text = text.strip()
    named = _NAMED_RULES.get(text)
    if named is not None:
        return named
    if text.startswith("score:"):
        parts = text[len("score:"):].split(",")
        if len(parts) != 3:
            raise ValueError(f"score vector needs three components: {text!r}")
        return scoring(*(parse_weight(p) for p in parts))
    raise ValueError(f"unknown rule {text!r}")


@functools.lru_cache(maxsize=256)
def _score_table(vector: tuple[int, int, int]) -> tuple:
    """Per slot, the points each of `ALTERNATIVES` gets from its ranking by the
    first entries of `vector` (0 for an alternative the ranking does not order)."""
    return tuple(tuple(vector[r.position(a)] if a in r.order else 0 for a in ALTERNATIVES)
                 for r in SLOT_RANKINGS)


def _integer_scores(rule: RuleDescriptor, alternatives: frozenset[str],
                    counts: Iterable[tuple[int, int]]) -> dict[str, int]:
    """The positional scores of `alternatives` on (slot, count) pairs summing to den,
    times den * D."""
    table = _score_table(rule._integers)
    sx = sy = sz = 0
    for slot, count in counts:
        x, y, z = table[slot]
        sx += x * count
        sy += y * count
        sz += z * count
    return {a: s for a, s in zip(ALTERNATIVES, (sx, sy, sz)) if a in alternatives}


def _integer_margins(counts: Iterable[tuple[int, int]]) -> list[int]:
    """Per `_PAIRS` entry (a, b), the count of the rankings preferring a to b."""
    margins = [0] * len(_PAIRS)
    for slot, count in counts:
        for i in _PREFERRED[slot]:
            margins[i] += count
    return margins


def _outcome(rule: RuleDescriptor, alternatives: frozenset[str], den: int,
             counts: Iterable[tuple[int, int]]) -> Outcome:
    """The one integer kernel: `rule`'s outcome on (slot, count) pairs of rankings over
    `alternatives`, the counts summing to `den`.  A slot may occur more than once, as
    under a restriction's slot map; its counts add up."""
    if rule.score_vector is not None:
        scores = _integer_scores(rule, alternatives, counts)
        best = max(scores.values())
        return _OUTCOMES[frozenset([a for a, s in scores.items() if s == best])]
    margins = _integer_margins(counts)
    return _OUTCOMES[frozenset([a for a, rivals in _CONTESTS[alternatives]
                                if all([2 * margins[i] >= den for i in rivals])])]


def scoring_scores(rule: RuleDescriptor, profile: Profile) -> dict[str, Fraction]:
    """Positional scores for a positional rule; a pair profile uses the first two components."""
    scale = profile.den * rule._scale()
    return {a: Fraction(s, scale)
            for a, s in _integer_scores(rule, profile.alternatives, profile.counts).items()}


def borda_scores(profile: Profile) -> dict[str, Fraction]:
    """Weighted dominance counts: score(a) = sum over rankings of w * |{b ranked below a}|."""
    scores = scoring_scores(BORDA, profile)
    # On two alternatives the vector prefix (2, 1) is the dominance count (1, 0)
    # plus one point per unit of weight, and the weights sum to 1.
    if len(scores) == 2:
        scores = {a: s - 1 for a, s in scores.items()}
    return scores


def condorcet_margins(profile: Profile) -> dict[tuple[str, str], Fraction]:
    """margin(a, b) = total weight of rankings preferring a to b; margin(a,b) + margin(b,a) = 1."""
    alts = profile.alternatives
    den = profile.den
    return {pair: Fraction(m, den) for pair, m in zip(_PAIRS, _integer_margins(profile.counts))
            if pair[0] in alts and pair[1] in alts}


def evaluate(rule: RuleDescriptor, profile: Profile,
             images: tuple[int | None, ...] | None = None) -> Outcome:
    """Evaluate a rule on a profile, or on `relabel(profile, images)` read off the
    profile's own counts: each slot's count is scored at its image, so no `Profile` is
    built.  `images` is a renaming's slot map (`CandidatePermutation._slots`) or a
    pair's (`_RESTRICTIONS`); vote on a pair through it or `restrict_profile`."""
    counts = profile.counts if images is None else [(images[s], c) for s, c in profile.counts]
    return _outcome(rule, _SLOT_ALTERNATIVES[counts[0][0]], profile.den, counts)


def restrict_profile(profile: Profile, alts: Iterable[str]) -> Profile:
    """Collapse each ranking to its induced order on a 2-alternative subset; weights add.
    The pair's slot map goes to `core.relabel`, as a renaming's does."""
    pair = frozenset(alts)
    if len(pair) != 2:
        raise ValueError("restriction target must contain exactly two alternatives")
    if not pair <= profile.alternatives:
        raise ValueError(f"alternatives {sorted(pair - profile.alternatives)} not in the profile")
    return relabel(profile, _RESTRICTIONS[pair])

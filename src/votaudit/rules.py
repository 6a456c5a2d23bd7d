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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .core import (
    ALTERNATIVES,
    Domain,
    Profile,
    Ranking,
    parse_weight,
)

_HALF = Fraction(1, 2)


class DegenerateElectionError(ValueError):
    """Raised when fewer than two alternatives are put to a vote."""


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

    def __post_init__(self) -> None:
        if self.kind not in ("borda", "condorcet", "plurality", "scoring"):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        named = _NAMED_VECTORS.get(self.kind)
        if named is not None:
            if self.score_vector not in (None, named):
                raise ValueError(f"{self.kind} has the fixed score vector "
                                 + ",".join(map(str, named)))
            object.__setattr__(self, "score_vector", named)
        if self.kind == "condorcet":
            if self.score_vector is not None:
                raise ValueError("condorcet takes no score vector")
            return
        if self.score_vector is None or len(self.score_vector) != 3:
            raise ValueError("scoring rule needs a triple of rationals")
        s1, s2, s3 = self.score_vector
        if not (s1 >= s2 >= s3):
            raise ValueError("score vector must be nonincreasing")
        if not s1 > s3:
            raise ValueError("degenerate score vector: s1 must exceed s3")

    def __str__(self) -> str:
        if self.kind == "scoring":
            return "score:" + ",".join(str(s) for s in self.score_vector)
        return self.kind


BORDA = RuleDescriptor("borda")
CONDORCET = RuleDescriptor("condorcet")
PLURALITY = RuleDescriptor("plurality")


def scoring(s1, s2, s3) -> RuleDescriptor:
    return RuleDescriptor("scoring", (Fraction(s1), Fraction(s2), Fraction(s3)))


def parse_rule(text: str) -> RuleDescriptor:
    """Parse ``borda``, ``condorcet``, ``plurality``, or ``score:s1,s2,s3``."""
    text = text.strip()
    if text in ("borda", "condorcet", "plurality"):
        return RuleDescriptor(text)
    if text.startswith("score:"):
        parts = text[len("score:"):].split(",")
        if len(parts) != 3:
            raise ValueError(f"score vector needs three components: {text!r}")
        return scoring(*(parse_weight(p) for p in parts))
    raise ValueError(f"unknown rule {text!r}")


def _check_alts(profile: Profile, alts: Iterable[str] | None) -> tuple[str, ...]:
    available = profile.alternatives
    chosen = available if alts is None else frozenset(alts)
    if not chosen <= available:
        raise ValueError(f"alternatives {sorted(chosen - available)} not present in the profile")
    if len(chosen) < 2:
        raise DegenerateElectionError("an election needs at least two alternatives")
    return tuple(a for a in ALTERNATIVES if a in chosen)


def scoring_scores(rule: RuleDescriptor, profile: Profile,
                   alts: Iterable[str] | None = None) -> dict[str, Fraction]:
    """Positional scores for a positional rule, using the first |alts| vector components."""
    chosen = _check_alts(profile, alts)
    whole = len(chosen) == len(ALTERNATIVES)
    # Integral entries as ints, with zero and unit products skipped, keep
    # plurality's (1, 0, 0) as cheap as counting first places.
    vector = [int(s) if s.denominator == 1 else s for s in rule.score_vector[: len(chosen)]]
    scores = dict.fromkeys(chosen, Fraction(0))
    for r, w in profile.weights.items():
        induced = r.order if whole else [a for a in r.order if a in chosen]
        for a, s in zip(induced, vector):
            if s:
                scores[a] += w if s == 1 else w * s
    return scores


def borda_scores(profile: Profile, alts: Iterable[str] | None = None) -> dict[str, Fraction]:
    """Weighted dominance counts: score(a) = sum over rankings of w * |{b in alts below a}|."""
    scores = scoring_scores(BORDA, profile, alts)
    # On two alternatives the vector prefix (2, 1) is the dominance count (1, 0)
    # plus one point per unit of weight, and the weights sum to 1.
    if len(scores) == 2:
        scores = {a: s - 1 for a, s in scores.items()}
    return scores


def condorcet_margins(profile: Profile) -> dict[tuple[str, str], Fraction]:
    """margin(a, b) = total weight of rankings preferring a to b; margin(a,b) + margin(b,a) = 1."""
    alts = tuple(a for a in ALTERNATIVES if a in profile.alternatives)
    margins = {(a, b): Fraction(0) for a in alts for b in alts if a != b}
    for r, w in profile.weights.items():
        for a in alts:
            for b in alts:
                if a != b and r.prefers(a, b):
                    margins[(a, b)] += w
    return margins


def _argmax(scores: dict[str, Fraction]) -> Outcome:
    best = max(scores.values())
    return Outcome(frozenset(a for a, s in scores.items() if s == best))


def evaluate(rule: RuleDescriptor, profile: Profile,
             alts: Iterable[str] | None = None) -> Outcome:
    """Evaluate a rule on a profile, optionally restricted to a subset of alternatives."""
    chosen = _check_alts(profile, alts)
    if rule.score_vector is not None:
        return _argmax(scoring_scores(rule, profile, chosen))
    margins = condorcet_margins(profile)
    tie = frozenset(
        a for a in chosen
        if all(margins[(a, b)] >= _HALF for b in chosen if b != a)
    )
    return Outcome(tie)


def restrict_profile(profile: Profile, alts: Iterable[str]) -> Profile:
    """Collapse each ranking to its induced order on a 2-alternative subset; weights add."""
    pair = frozenset(alts)
    if len(pair) != 2:
        raise ValueError("restriction target must contain exactly two alternatives")
    if not pair <= profile.alternatives:
        raise ValueError(f"alternatives {sorted(pair - profile.alternatives)} not in the profile")
    weights: dict[Ranking, Fraction] = {}
    for r, w in profile.weights.items():
        short = r.restrict(pair)
        weights[short] = weights.get(short, Fraction(0)) + w
    domain = Domain(tuple({r.restrict(pair) for r in profile.domain}))
    return Profile(weights, domain)

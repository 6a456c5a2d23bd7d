"""Per-profile checkers for the four classic axioms: P, A, N, and IIA.

Each checker returns an `AxiomReport` whose counterexample, when present, can
be replayed: re-running the recorded evaluations reproduces the mismatch
exactly.  Checkers accept a built-in `RuleDescriptor`, any callable
``rule(profile) -> Outcome`` (so degenerate rules, say a constant one, can be
audited too), or an `Election`: a rule on one profile, whose outcome there
every check of that profile shares.

N and IIA evaluate the rule on the profile's images under slot maps: a
renaming's, and a restriction's to a pair.  A `RuleDescriptor` scores an
image on the profile's own counts (`rules.evaluate_image`), so the renamed or
restricted `Profile` is built only for a counterexample; a callable rule is
called on that profile (`permute_profile`, `restrict_profile`) itself.

Anonymity is structural here: rules see only weight vectors, so relabeling
voters cannot change anything, and the report says so instead of searching.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from .core import (
    ALTERNATIVES,
    CandidatePermutation,
    Profile,
    permute_profile,
    relabel,
)
from .rules import (
    _PAIRS,
    _PREFERRED,
    _RESTRICTIONS,
    Outcome,
    RuleDescriptor,
    evaluate,
    evaluate_image,
    restrict_profile,
)

RuleLike = RuleDescriptor | Callable[[Profile], Outcome]


class Verdict(enum.Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class Counterexample:
    """The data needed to replay a violation."""

    profiles: tuple[Profile, ...]
    outcomes: tuple[Outcome, ...]
    permutation: CandidatePermutation | None = None
    pair: frozenset[str] | None = None


@dataclass(frozen=True)
class AxiomReport:
    axiom: str  # one of "P", "A", "N", "IIA"
    verdict: Verdict
    note: str = ""
    counterexample: Counterexample | None = None

    @property
    def satisfied(self) -> bool:
        return self.verdict is Verdict.SATISFIED

    def record(self) -> str:
        """One-line machine-readable summary."""
        return f"axiom={self.axiom} verdict={self.verdict.value}"

    def text(self) -> str:
        """Human-readable block."""
        lines = [f"axiom {self.axiom}: {self.verdict.value}"]
        if self.note:
            lines.append(f"  note: {self.note}")
        ce = self.counterexample
        if ce is not None:
            if ce.permutation is not None:
                lines.append(f"  permutation: {ce.permutation}")
            if ce.pair is not None:
                lines.append("  restricted to: {" + ", ".join(sorted(ce.pair)) + "}")
            for prof, out in zip(ce.profiles, ce.outcomes):
                lines.append("  profile:")
                lines.extend("    " + ln for ln in str(prof).splitlines())
                lines.append(f"  outcome: {out}")
        return "\n".join(lines)


class Election:
    """`rule` on one profile: its outcome there, computed once, and on the profile's
    images under slot maps.  The checkers take one in place of a rule, so the checks of
    one profile evaluate the rule on it once."""

    def __init__(self, rule: RuleLike, profile: Profile):
        self.rule = rule
        self.profile = profile
        self.outcome = (evaluate(rule, profile) if isinstance(rule, RuleDescriptor)
                        else rule(profile))

    def image(self, images: tuple[int | None, ...]) -> Outcome:
        """The outcome on `relabel(profile, images)`; a descriptor's is read off the counts."""
        if isinstance(self.rule, RuleDescriptor):
            return evaluate_image(self.rule, self.profile, images)
        return self.rule(relabel(self.profile, images))


def _election(rule: RuleLike | Election, profile: Profile) -> Election:
    """`rule` itself if it is an election on `profile`, else a new one there."""
    if isinstance(rule, Election):
        if rule.profile is profile:
            return rule
        rule = rule.rule
    return Election(rule, profile)


def _alternatives(profile: Profile) -> list[str]:
    """The alternatives the profile orders (all three, or a pair), in `ALTERNATIVES` order."""
    return [a for a in ALTERNATIVES if a in profile.alternatives]


#: Per slot, bit i set iff its ranking puts a above b for the i-th pair (a, b) of `_PAIRS`.
_PREFERRED_MASKS = tuple(sum(1 << i for i in preferred) for preferred in _PREFERRED)


def _dominations(profile: Profile) -> list[tuple[str, str]]:
    """Pairs (a, b) such that every positive-weight ranking places a above b, in `_PAIRS`
    order; a pair profile's rankings set no bit of a pair they do not order."""
    mask = (1 << len(_PAIRS)) - 1
    for slot, _ in profile.counts:
        mask &= _PREFERRED_MASKS[slot]
    return [pair for i, pair in enumerate(_PAIRS) if mask >> i & 1]


def check_pareto(rule: RuleLike | Election, profile: Profile) -> AxiomReport:
    """Violated iff some unanimously dominated alternative is the winner."""
    outcome = _election(rule, profile).outcome
    winner = outcome.winner
    for a, b in _dominations(profile):
        if winner == b:
            return AxiomReport(
                "P", Verdict.VIOLATED,
                note=f"every voter places {a} above {b}, yet {b} wins",
                counterexample=Counterexample((profile,), (outcome,)),
            )
    return AxiomReport("P", Verdict.SATISFIED)


def check_neutrality(rule: RuleLike | Election, profile: Profile,
                     perm: CandidatePermutation) -> AxiomReport:
    """Permuting candidate names must permute the outcome set accordingly."""
    election = _election(rule, profile)
    base = election.outcome
    permuted = election.image(perm._slots)
    expected = frozenset(map(perm, base.tie_set))
    if permuted.tie_set == expected:
        return AxiomReport("N", Verdict.SATISFIED)
    permuted_profile = permute_profile(profile, perm)
    return AxiomReport(
        "N", Verdict.VIOLATED,
        note=f"expected outcome set {sorted(expected)}, got {sorted(permuted.tie_set)}",
        counterexample=Counterexample(
            (profile, permuted_profile), (base, permuted), permutation=perm
        ),
    )


def check_anonymity_structural(rule: RuleLike) -> AxiomReport:
    """Rules consume weight vectors only, so voter relabelings cannot change the outcome."""
    return AxiomReport(
        "A", Verdict.SATISFIED,
        note="structural: profiles carry only the proportion of voters per ranking, "
             "so any measure-preserving relabeling of voters yields the identical profile",
    )


def check_iia(rule: RuleLike | Election, profile: Profile) -> AxiomReport:
    """The winner must persist when the election is restricted to any pair containing it.

    A pair profile restricts to itself, so there the axiom holds.

    A restricted election that ends in an exact tie is nongeneric: it neither
    confirms nor refutes the axiom, so (absent a real violation elsewhere) the
    report is not-applicable rather than violated.
    """
    election = _election(rule, profile)
    full = election.outcome
    winner = full.winner
    if winner is None:
        return AxiomReport(
            "IIA", Verdict.NOT_APPLICABLE,
            note=f"no winner on the full alternative set ({full})",
        )
    nongeneric_pair = None
    for other in _alternatives(profile):
        if other == winner:
            continue
        pair = frozenset((winner, other))
        outcome = election.image(_RESTRICTIONS[pair])
        if outcome.winner == winner:
            continue
        if outcome.winner is None:
            nongeneric_pair = (pair, outcome)
            continue
        return AxiomReport(
            "IIA", Verdict.VIOLATED,
            note=f"{winner} wins overall but loses to {outcome.winner} on the pair",
            counterexample=Counterexample(
                (profile, restrict_profile(profile, pair)), (full, outcome), pair=pair
            ),
        )
    if nongeneric_pair is not None:
        pair, outcome = nongeneric_pair
        return AxiomReport(
            "IIA", Verdict.NOT_APPLICABLE,
            note="a restricted election is tied (nongeneric), so persistence is undecided",
            counterexample=Counterexample(
                (profile, restrict_profile(profile, pair)), (full, outcome), pair=pair
            ),
        )
    return AxiomReport("IIA", Verdict.SATISFIED)

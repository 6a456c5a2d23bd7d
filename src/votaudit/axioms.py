"""Per-profile checkers for the four classic axioms: P, A, N, and IIA.

Each checker returns an `AxiomReport` whose counterexample, when present, can
be replayed: re-running the recorded evaluations reproduces the mismatch
exactly.  Checkers accept either a built-in `RuleDescriptor` or any callable
``rule(profile) -> Outcome``, so degenerate rules (say, a constant one) can be
audited too.  IIA votes on a pair by calling the rule on the profile that
`restrict_profile` collapses to it.

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
)
from .rules import Outcome, RuleDescriptor, evaluate, restrict_profile

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


def _evaluator(rule: RuleLike) -> Callable[[Profile], Outcome]:
    if isinstance(rule, RuleDescriptor):
        return lambda profile: evaluate(rule, profile)
    return rule


def _alternatives(profile: Profile) -> list[str]:
    """The alternatives the profile orders (all three, or a pair), in `ALTERNATIVES` order."""
    return [a for a in ALTERNATIVES if a in profile.alternatives]


def _dominations(profile: Profile) -> list[tuple[str, str]]:
    """Pairs (a, b) such that every positive-weight ranking places a above b."""
    support = profile.support
    alts = _alternatives(profile)
    return [(a, b) for a in alts for b in alts
            if a != b and support and all(r.prefers(a, b) for r in support)]


def check_pareto(rule: RuleLike, profile: Profile) -> AxiomReport:
    """Violated iff some unanimously dominated alternative is the winner."""
    run = _evaluator(rule)
    outcome = run(profile)
    winner = outcome.winner
    for a, b in _dominations(profile):
        if winner == b:
            return AxiomReport(
                "P", Verdict.VIOLATED,
                note=f"every voter places {a} above {b}, yet {b} wins",
                counterexample=Counterexample((profile,), (outcome,)),
            )
    return AxiomReport("P", Verdict.SATISFIED)


def check_neutrality(rule: RuleLike, profile: Profile,
                     perm: CandidatePermutation) -> AxiomReport:
    """Permuting candidate names must permute the outcome set accordingly."""
    run = _evaluator(rule)
    base = run(profile)
    permuted_profile = permute_profile(profile, perm)
    permuted = run(permuted_profile)
    expected = frozenset(map(perm, base.tie_set))
    if permuted.tie_set == expected:
        return AxiomReport("N", Verdict.SATISFIED)
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


def check_iia(rule: RuleLike, profile: Profile) -> AxiomReport:
    """The winner must persist when the election is restricted to any pair containing it.

    A pair profile restricts to itself, so there the axiom holds.

    A restricted election that ends in an exact tie is nongeneric: it neither
    confirms nor refutes the axiom, so (absent a real violation elsewhere) the
    report is not-applicable rather than violated.
    """
    run = _evaluator(rule)
    full = run(profile)
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
        restricted = restrict_profile(profile, pair)
        outcome = run(restricted)
        if outcome.winner == winner:
            continue
        if outcome.winner is None:
            nongeneric_pair = (pair, restricted, outcome)
            continue
        return AxiomReport(
            "IIA", Verdict.VIOLATED,
            note=f"{winner} wins overall but loses to {outcome.winner} on the pair",
            counterexample=Counterexample(
                (profile, restricted), (full, outcome), pair=pair
            ),
        )
    if nongeneric_pair is not None:
        pair, restricted, outcome = nongeneric_pair
        return AxiomReport(
            "IIA", Verdict.NOT_APPLICABLE,
            note="a restricted election is tied (nongeneric), so persistence is undecided",
            counterexample=Counterexample(
                (profile, restricted), (full, outcome), pair=pair
            ),
        )
    return AxiomReport("IIA", Verdict.SATISFIED)

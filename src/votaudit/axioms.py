"""Per-profile checkers for the four classic axioms: P, A, N, and IIA.

Each checker returns an `AxiomReport` whose counterexample, when present, can
be replayed: re-running the recorded evaluations reproduces the mismatch
exactly.  Checkers accept a built-in `RuleDescriptor`, any callable
``rule(profile) -> Outcome`` (so degenerate rules, say a constant one, can be
audited too), or an `Election`: a rule on one profile, whose outcome there
every check of that profile shares.

An `Election` gets its outcome on the profile, and on the profile's images under
slot maps (a renaming's for N, a restriction's to a pair for IIA), from one
method.  A `RuleDescriptor` is scored by `rules.evaluate` on the profile's own
counts, so a renamed or restricted `Profile` is built only for a counterexample;
a callable rule is called on that profile (`permute_profile`, `restrict_profile`).

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
        self.outcome = self.image(None)

    def image(self, images: tuple[int | None, ...] | None) -> Outcome:
        """The outcome on `relabel(profile, images)`, or on the profile if `images` is None."""
        if isinstance(self.rule, RuleDescriptor):
            return evaluate(self.rule, self.profile, images)
        return self.rule(self.profile if images is None else relabel(self.profile, images))


def _election(rule: RuleLike | Election, profile: Profile) -> Election:
    """`rule` itself if it is an election on `profile`, else a new one there."""
    if isinstance(rule, Election):
        if rule.profile is profile:
            return rule
        rule = rule.rule
    return Election(rule, profile)


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
        return AxiomReport("IIA", Verdict.NOT_APPLICABLE,
                           note=f"no winner on the full alternative set ({full})")
    found = None  # the first pair the winner loses, else the last pair that ties
    for other in ALTERNATIVES:
        if other == winner or other not in profile.alternatives:
            continue
        pair = frozenset((winner, other))
        outcome = election.image(_RESTRICTIONS[pair])
        if outcome.winner != winner:
            found = pair, outcome
            if outcome.winner is not None:
                break
    if found is None:
        return AxiomReport("IIA", Verdict.SATISFIED)
    pair, outcome = found
    if outcome.winner is None:
        verdict = Verdict.NOT_APPLICABLE
        note = "a restricted election is tied (nongeneric), so persistence is undecided"
    else:
        verdict = Verdict.VIOLATED
        note = f"{winner} wins overall but loses to {outcome.winner} on the pair"
    return AxiomReport("IIA", verdict, note=note, counterexample=Counterexample(
        (profile, restrict_profile(profile, pair)), (full, outcome), pair=pair))

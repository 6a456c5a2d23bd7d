"""Small-coalition manipulation search and domain-level audits.

A coalition is identified with its move matrix: for each (true ranking,
reported ranking) arc, the mass of voters misreporting along it.  A witness
records a base profile, the moves, both outcomes, and the mass bound it was
searched under; `verify_witness` replays all of it from scratch.

The search is a discretized sweep: amounts are multiples of 1/move_denominator
with total strictly below epsilon, and only rankings strictly preferring the
candidate new winner over the current one may send mass (nobody else would
join).  Because every decision statistic is linear in the moved amounts, the
arc enumeration is branch-and-bound: a subtree is cut when even the most
favorable placement of the remaining mass cannot make the candidate win.
Among valid witnesses the search returns the one minimal by total size and
then by the amounts vector over canonically ordered arcs, so results are
reproducible byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .core import (
    ALTERNATIVES,
    Domain,
    Profile,
    Ranking,
    format_profile,
    transfer_weight,
)
from .rules import RuleDescriptor, evaluate

_HALF = Fraction(1, 2)


class NongenericProfileError(ValueError):
    """Raised when a manipulation search is asked to start from a profile with no winner."""


@dataclass(frozen=True)
class AuditConfig:
    """Search resolution: mass bound, profile mesh 1/grid, move mesh 1/moves."""

    epsilon: Fraction
    grid_denominator: int = 20
    move_denominator: int = 100

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.grid_denominator < 1 or self.move_denominator < 1:
            raise ValueError("denominators must be at least 1")

    @property
    def max_units(self) -> int:
        """Largest unit count u with u/move_denominator < epsilon."""
        return math.ceil(self.epsilon * self.move_denominator) - 1


@dataclass(frozen=True)
class ManipulationWitness:
    base_profile: Profile
    moves: tuple[tuple[Ranking, Ranking, Fraction], ...]
    old_outcome: str
    new_outcome: str
    epsilon: Fraction

    @property
    def size(self) -> Fraction:
        return sum((amount for _, _, amount in self.moves), Fraction(0))


def format_witness(witness: ManipulationWitness) -> str:
    lines = [format_profile(witness.base_profile)]
    for src, dst, amount in witness.moves:
        lines.append(f"{amount} {src} -> {dst}")
    lines.append(f"old={witness.old_outcome} new={witness.new_outcome} size={witness.size}")
    return "\n".join(lines)


@dataclass(frozen=True)
class WitnessCheck:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def verify_witness(rule: RuleDescriptor, witness: ManipulationWitness) -> WitnessCheck:
    """Replay a witness from scratch: outcomes, feasibility, improvement, and size."""
    moves = [(s, d, a) for s, d, a in witness.moves if a != 0]
    if not moves:
        return WitnessCheck(False, "empty coalition: no outcome change is possible")
    if any(a < 0 for _, _, a in moves):
        return WitnessCheck(False, "negative move amount")
    base = evaluate(rule, witness.base_profile)
    if base.winner is None:
        return WitnessCheck(False, f"nongeneric: base profile has no winner ({base})")
    if base.winner != witness.old_outcome:
        return WitnessCheck(False, f"old outcome mismatch: rule gives {base.winner}")
    try:
        moved_profile, _ = transfer_weight(witness.base_profile, moves)
    except ValueError as exc:
        return WitnessCheck(False, f"infeasible moves: {exc}")
    new = evaluate(rule, moved_profile)
    if new.winner is None:
        return WitnessCheck(False, f"nongeneric: misreported profile has no winner ({new})")
    if new.winner != witness.new_outcome:
        return WitnessCheck(False, f"new outcome mismatch: rule gives {new.winner}")
    for src, _, _ in moves:
        if not src.prefers(witness.new_outcome, witness.old_outcome):
            return WitnessCheck(
                False, f"coalition member {src} does not strictly gain from the change"
            )
    if witness.size >= witness.epsilon:
        return WitnessCheck(False, f"coalition size {witness.size} is not below {witness.epsilon}")
    return WitnessCheck(True)


class _Branch:
    """Search state for one candidate new winner on one base profile.

    Both rule families decide through statistics linear in the moved amounts:
    a positional rule through the score gaps score(target) - score(v), which
    must all end positive, and the pairwise rule through the margins
    margin(a, b), where target must reach a half against every rival and every
    rival must fall below a half against someone.  `base` holds the statistics
    of the base profile, derived from its `Outcome.statistic`, `deltas[i]`
    their change per unit moved along arc i, and `suffmax`/`suffmin` the
    extreme unit changes over arcs i onwards, from which `_possible` bounds
    what the remaining mass can still do.
    """

    def __init__(self, rule: RuleDescriptor, profile: Profile, statistic: dict, target: str,
                 arcs: Sequence[tuple[Ranking, Ranking]], unit: Fraction):
        self.rule = rule
        self.profile = profile
        self.target = target
        self.arcs = list(arcs)
        self.unit = unit
        self.rivals = [v for v in ALTERNATIVES if v != target]
        self.source_caps = {
            src: int(profile.weight(src) / unit) for src, _ in self.arcs
        }
        vector = rule.score_vector
        if vector is None:
            self.base = statistic
            self._possible = self._possible_pairwise

            def stat(r: Ranking, key: tuple[str, str]) -> int:
                return int(r.prefers(*key))
        else:
            self.base = {v: statistic[target] - statistic[v] for v in self.rivals}
            self._possible = self._possible_positional

            def stat(r: Ranking, v: str) -> Fraction:
                return vector[r.position(target)] - vector[r.position(v)]
        self.deltas = [
            {key: unit * (stat(dst, key) - stat(src, key)) for key in self.base}
            for src, dst in self.arcs
        ]
        n = len(self.arcs)
        self.suffmax = {}
        self.suffmin = {}
        for key in self.base:
            hi = [Fraction(-10)] * (n + 1)
            lo = [Fraction(10)] * (n + 1)
            for i in range(n - 1, -1, -1):
                hi[i] = max(hi[i + 1], self.deltas[i][key])
                lo[i] = min(lo[i + 1], self.deltas[i][key])
            self.suffmax[key], self.suffmin[key] = hi, lo

    def _possible_positional(self, i: int, remaining: int, acc) -> bool:
        """Optimistic test: can every score gap of `target` still end positive?"""
        return all(self.base[v] + acc[v] + remaining * self.suffmax[v][i] > 0
                   for v in self.rivals)

    def _possible_pairwise(self, i: int, remaining: int, acc) -> bool:
        """Optimistic test: can `target` still end up the unique majority winner?"""
        target = self.target
        for v in self.rivals:
            key = (target, v)
            if self.base[key] + acc[key] + remaining * self.suffmax[key][i] < _HALF:
                return False
        for v in self.rivals:
            # v must be able to drop below a half against someone
            if not any(
                self.base[(v, u)] + acc[(v, u)] + remaining * self.suffmin[(v, u)][i] < _HALF
                for u in ALTERNATIVES if u != v
            ):
                return False
        return True

    def search(self, total_units: int) -> tuple[int, ...] | None:
        """Lexicographically first unit vector of the given total that elects target."""
        arcs = self.arcs
        n = len(arcs)
        combo = [0] * n
        budget = dict(self.source_caps)

        def leaf_wins() -> bool:
            moves = [
                (src, dst, k * self.unit)
                for (src, dst), k in zip(arcs, combo)
                if k
            ]
            if not moves:
                return False
            moved, _ = transfer_weight(self.profile, moves)
            return evaluate(self.rule, moved).winner == self.target

        def rec(i: int, remaining: int, acc) -> bool:
            if remaining == 0:
                return leaf_wins()
            if i == n or not self._possible(i, remaining, acc):
                return False
            src, _ = arcs[i]
            cap = min(remaining, budget[src])
            step = self.deltas[i]
            for k in range(cap + 1):
                combo[i] = k
                budget[src] -= k
                if k == 0:
                    nxt = acc
                else:
                    nxt = {key: acc[key] + k * step[key] for key in acc}
                if rec(i + 1, remaining - k, nxt):
                    return True
                budget[src] += k
            combo[i] = 0
            return False

        if rec(0, total_units, dict.fromkeys(self.base, Fraction(0))):
            return tuple(combo)
        return None


def _coarse_feasible(rule: RuleDescriptor, statistic: dict, old: str, target: str,
                     max_mass: Fraction) -> bool:
    """Cheap necessary condition for any coalition of at most `max_mass` to elect target,
    from the base profile's `Outcome.statistic`."""
    if max_mass <= 0:
        return False
    vector = rule.score_vector
    if vector is not None:
        # A permitted source ranks target above old, at positions p_t < p_o.
        # Per unit of mass it moves, target gains at most s1 - s[p_t] and old
        # loses at most s[p_o] - s3; over p_t < p_o that sum is largest at
        # (p_t, p_o) = (1st, 2nd) or (2nd, 3rd), so it is max(s1 - s2, s2 - s3).
        s1, s2, s3 = vector
        return statistic[old] - statistic[target] < max(s1 - s2, s2 - s3) * max_mass
    others = [v for v in ALTERNATIVES if v != target]
    if any(statistic[(target, v)] + max_mass < _HALF for v in others):
        return False
    return any(statistic[(old, v)] - max_mass < _HALF
               for v in ALTERNATIVES if v != old)


def find_manipulation(rule: RuleDescriptor, profile: Profile,
                      config: AuditConfig) -> ManipulationWitness | None:
    """Search the move lattice for a minimal coalition that profitably flips the winner.

    Returns None when no witness exists at this resolution.  Raises
    `NongenericProfileError` when the base profile has no winner.
    """
    base = evaluate(rule, profile)
    old = base.winner
    if old is None:
        raise NongenericProfileError(f"base profile has no winner ({base})")
    unit = Fraction(1, config.move_denominator)
    max_mass = config.max_units * unit

    branches: list[_Branch] = []
    for target in ALTERNATIVES:
        if target == old:
            continue
        sources = [r for r in profile.support if r.prefers(target, old)]
        if not sources:
            continue
        if not _coarse_feasible(rule, base.statistic, old, target, max_mass):
            continue
        arcs = sorted(
            (src, dst)
            for src in sources
            for dst in profile.domain
            if dst != src
        )
        branches.append(_Branch(rule, profile, base.statistic, target, arcs, unit))

    all_pairs = [
        (src, dst) for src in profile.domain for dst in profile.domain if src != dst
    ]
    for units in range(1, config.max_units + 1):
        found = []
        for branch in branches:
            combo = branch.search(units)
            if combo is not None:
                amounts = dict(zip(branch.arcs, combo))
                vector = tuple(amounts.get(pair, 0) for pair in all_pairs)
                found.append((vector, branch, combo))
        if found:
            vector, branch, combo = min(found, key=lambda item: item[0])
            moves = tuple(
                (src, dst, k * unit)
                for (src, dst), k in zip(branch.arcs, combo)
                if k
            )
            return ManipulationWitness(profile, moves, old, branch.target, config.epsilon)
    return None


def _compositions(total: int, caps: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All vectors with the given total and per-slot caps, in ascending lex order."""
    if not caps:
        if total == 0:
            yield ()
        return
    head_cap = min(caps[0], total)
    tail = caps[1:]
    tail_cap = sum(min(c, total) for c in tail)
    lo = max(0, total - tail_cap)
    for first in range(lo, head_cap + 1):
        for rest in _compositions(total - first, tail):
            yield (first,) + rest


def grid_profiles(domain: Domain, grid_denominator: int) -> Iterator[Profile]:
    """All profiles on the domain with weights in multiples of 1/grid, canonical order."""
    rankings = tuple(domain)
    for combo in _compositions(grid_denominator, [grid_denominator] * len(rankings)):
        yield Profile(
            {r: Fraction(n, grid_denominator) for r, n in zip(rankings, combo) if n},
            domain,
        )


def audit_wsp(rule: RuleDescriptor, domain: Domain,
              config: AuditConfig) -> ManipulationWitness | None:
    """Sweep every generic grid profile on the domain for a small-coalition witness.

    Returns the first witness in canonical profile order, or None.  Finding
    none certifies only "no witness at this resolution", never full immunity.
    """
    for profile in grid_profiles(domain, config.grid_denominator):
        try:
            witness = find_manipulation(rule, profile, config)
        except NongenericProfileError:
            continue  # manipulation claims compare actual winners
        if witness is not None:
            return witness
    return None

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

The search runs on an integer lattice.  `find_manipulation` rescales the
profile's integer counts to L = lcm(move denominator, the profile's
denominator); `audit_wsp` feeds the grid's count vectors in directly, at
L = lcm(grid, moves).  A score vector is scaled by the lcm of its entries'
denominators, so every statistic, bound and leaf test is an exact comparison
of integers.  `Fraction` leaves only where a witness is built: its profile,
and its move amounts k/move_denominator.  `verify_witness` replays a witness
through `transfer_weight` and `rules.evaluate`, which share no code with the
lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Iterator, Sequence

from .core import (ALTERNATIVES, Domain, Move, Profile, Ranking, format_profile,
                   transfer_weight)
from .rules import Outcome, RuleDescriptor, evaluate


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


class _Lattice:
    """A rule's decision statistic on one domain, as integer rows over its rankings.

    A profile enters as integer counts at the scale L (weight = count / L);
    moves are multiples of `unit` = L / moves.  A positional rule's row for
    alternative a holds D * s[position of a], D the lcm of the score vector's
    denominators: its statistic is the scores times L * D, and a score gap is
    positive when it reaches `need` = 1.  The pairwise rule's row for (a, b)
    is 1 where a ranking prefers a to b: its statistic is the margins times L,
    and a margin reaches a half when it reaches `need` = ceil(L / 2).
    """

    def __init__(self, rule: RuleDescriptor, domain: Domain, scale: int, config: AuditConfig):
        if domain.alternatives != frozenset(ALTERNATIVES):
            raise ValueError(f"the coalition search needs rankings of all of "
                             f"{', '.join(ALTERNATIVES)}; the domain {domain} ranks "
                             f"only {', '.join(sorted(domain.alternatives))}")
        self.rankings = tuple(domain)
        self.unit = scale // config.move_denominator
        self.max_units = config.max_units
        self.moves = config.move_denominator
        n = len(self.rankings)
        self.arcs = [(src, dst) for src in range(n) for dst in range(n) if dst != src]
        self.prefers = {
            (a, b): [r.prefers(a, b) for r in self.rankings]
            for a in ALTERNATIVES for b in ALTERNATIVES if a != b
        }
        self.vector = None  # the score vector times D; None for the pairwise rule
        if rule.score_vector is None:
            self.rows = {key: [int(p) for p in row] for key, row in self.prefers.items()}
            self.need = (scale + 1) // 2
        else:
            d = math.lcm(*(s.denominator for s in rule.score_vector))
            self.vector = [s.numerator * (d // s.denominator) for s in rule.score_vector]
            self.rows = {a: [self.vector[r.position(a)] for r in self.rankings]
                         for a in ALTERNATIVES}
            self.need = 1

    def search(self, counts: Sequence[int]) -> tuple[tuple[Move, ...], str, str] | None:
        """The minimal witness's (moves, old winner, new winner) from these counts, or None.

        Raises `NongenericProfileError` when the counts elect no winner.
        """
        statistic = {key: sum(map(mul, row, counts)) for key, row in self.rows.items()}
        if self.vector is not None:
            best = max(statistic.values())
            tie = [a for a in ALTERNATIVES if statistic[a] == best]
        else:
            tie = [a for a in ALTERNATIVES
                   if all(statistic[(a, b)] >= self.need for b in ALTERNATIVES if b != a)]
        if len(tie) != 1:
            raise NongenericProfileError(f"base profile has no winner ({Outcome(frozenset(tie))})")
        old = tie[0]

        branches: list[_Branch] = []
        for target in ALTERNATIVES:
            if target == old or not self._coarse_feasible(statistic, old, target):
                continue
            gains = self.prefers[(target, old)]
            arcs = [arc for arc in self.arcs if counts[arc[0]] and gains[arc[0]]]
            if arcs:
                branches.append(_Branch(self, counts, statistic, target, arcs))

        for units in range(1, self.max_units + 1):
            found = []
            for branch in branches:
                combo = branch.search(units)
                if combo is not None:
                    amounts = dict(zip(branch.arcs, combo))
                    found.append((tuple(amounts.get(arc, 0) for arc in self.arcs), branch, combo))
            if found:
                _, branch, combo = min(found, key=lambda item: item[0])
                moves = tuple((self.rankings[src], self.rankings[dst], Fraction(k, self.moves))
                              for (src, dst), k in zip(branch.arcs, combo) if k)
                return moves, old, branch.target
        return None

    def _coarse_feasible(self, statistic: dict, old: str, target: str) -> bool:
        """Cheap necessary condition for a coalition below epsilon to elect target."""
        max_mass = self.max_units * self.unit  # at 0, old's unique win rejects every target
        if self.vector is not None:
            # A permitted source ranks target above old, at positions p_t < p_o.
            # Per unit of mass it moves, target gains at most s1 - s[p_t] and old
            # loses at most s[p_o] - s3; over p_t < p_o that sum is largest at
            # (p_t, p_o) = (1st, 2nd) or (2nd, 3rd), so it is max(s1 - s2, s2 - s3).
            s1, s2, s3 = self.vector
            return statistic[old] - statistic[target] < max(s1 - s2, s2 - s3) * max_mass
        if any(statistic[(target, v)] + max_mass < self.need
               for v in ALTERNATIVES if v != target):
            return False
        return any(statistic[(old, v)] - max_mass < self.need
                   for v in ALTERNATIVES if v != old)


class _Branch:
    """Search state for one candidate new winner on one base profile.

    Both rule families decide through integer statistics, linear in the moved
    amounts: target wins when every statistic in `wins` reaches the lattice's
    `need` and each group in `losses` has one statistic below it.  These are
    the score gaps score(target) - score(v) of a positional rule, with no
    loss groups, or the margins of target against each rival and of each
    rival against the others.  `base` holds the base profile's statistics,
    `deltas[i]` their change per unit moved along arc i, and
    `suffmax`/`suffmin` the extreme unit changes over arcs i onwards, from
    which `_possible` bounds what the remaining mass can still do; with no
    mass left the bound is exact, so it is also the leaf test.
    """

    def __init__(self, lattice: _Lattice, counts: Sequence[int], statistic: dict,
                 target: str, arcs: list[tuple[int, int]]):
        self.target = target
        self.arcs = arcs
        self.need = lattice.need
        unit = lattice.unit
        self.source_caps = {src: counts[src] // unit for src, _ in arcs}
        rivals = [v for v in ALTERNATIVES if v != target]
        rows = lattice.rows
        if lattice.vector is None:
            keys = list(rows)
            self.base = [statistic[key] for key in keys]
            key_rows = list(rows.values())
            self.wins = [keys.index((target, v)) for v in rivals]
            self.losses = [[keys.index((v, u)) for u in ALTERNATIVES if u != v] for v in rivals]
        else:
            self.base = [statistic[target] - statistic[v] for v in rivals]
            key_rows = [[t - s for t, s in zip(rows[target], rows[v])] for v in rivals]
            self.wins, self.losses = [0, 1], []
        self.deltas = [[unit * (row[dst] - row[src]) for row in key_rows] for src, dst in arcs]
        columns = list(zip(*reversed(self.deltas)))
        self.suffmax = [list(accumulate(c, max))[::-1] + [0] for c in columns]
        self.suffmin = [list(accumulate(c, min))[::-1] + [0] for c in columns]

    def _possible(self, i: int, remaining: int, acc: list[int]) -> bool:
        """Optimistic test: can `target` still end up the unique winner?"""
        base, need, hi, lo = self.base, self.need, self.suffmax, self.suffmin
        return (all(base[q] + acc[q] + remaining * hi[q][i] >= need for q in self.wins)
                and all(any(base[q] + acc[q] + remaining * lo[q][i] < need for q in group)
                        for group in self.losses))

    def search(self, total_units: int) -> tuple[int, ...] | None:
        """Lexicographically first unit vector of the given total that elects target."""
        arcs = self.arcs
        n = len(arcs)
        combo = [0] * n
        budget = dict(self.source_caps)
        possible = self._possible

        def rec(i: int, remaining: int, acc: list[int]) -> bool:
            if remaining == 0:
                return possible(i, 0, acc)
            if i == n or not possible(i, remaining, acc):
                return False
            src, _ = arcs[i]
            cap = min(remaining, budget[src])
            step = self.deltas[i]
            for k in range(cap + 1):
                combo[i] = k
                budget[src] -= k
                nxt = acc if k == 0 else [a + k * d for a, d in zip(acc, step)]
                if rec(i + 1, remaining - k, nxt):
                    return True
                budget[src] += k
            combo[i] = 0
            return False

        if rec(0, total_units, [0] * len(self.base)):
            return tuple(combo)
        return None


def find_manipulation(rule: RuleDescriptor, profile: Profile,
                      config: AuditConfig) -> ManipulationWitness | None:
    """Search the move lattice for a minimal coalition that profitably flips the winner.

    Returns None when no witness exists at this resolution.  Raises
    `NongenericProfileError` when the base profile has no winner, and
    `ValueError` when its domain does not rank all three alternatives.
    """
    scale = math.lcm(config.move_denominator, profile.den)
    held = dict(profile.counts)
    found = _Lattice(rule, profile.domain, scale, config).search(
        [held.get(r.slot, 0) * (scale // profile.den) for r in profile.domain])
    return None if found is None else ManipulationWitness(profile, *found, config.epsilon)


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
    Raises `ValueError` when the domain does not rank all three alternatives.
    The grid's count vectors go to the lattice search as they are, at scale
    lcm(grid, moves); only a witness's profile is built.
    """
    rankings = tuple(domain)
    grid = config.grid_denominator
    scale = math.lcm(grid, config.move_denominator)
    lattice = _Lattice(rule, domain, scale, config)
    for combo in _compositions(grid, [grid] * len(rankings)):
        try:
            found = lattice.search([c * (scale // grid) for c in combo])
        except NongenericProfileError:
            continue  # manipulation claims compare actual winners
        if found is not None:
            profile = Profile({r: Fraction(c, grid) for r, c in zip(rankings, combo) if c}, domain)
            return ManipulationWitness(profile, *found, config.epsilon)
    return None

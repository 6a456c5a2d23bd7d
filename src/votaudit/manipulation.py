"""Small-coalition manipulation search and domain-level audits.

A coalition is identified with its move matrix: for each (true ranking,
reported ranking) arc, the mass of voters misreporting along it.  A witness
records a base profile, the moves, both outcomes, and the mass bound it was
searched under; `verify_witness` replays all of it from scratch.

The search is a discretized sweep: amounts are multiples of 1/move_denominator
with total strictly below epsilon, and only rankings strictly preferring the
candidate new winner over the current one may send mass (nobody else would
join).  Both rule families decide through one statistic per ordered pair of
alternatives, linear in the moved amounts: a positional rule's score gap, or
the pairwise rule's support.  So one bound, each statistic plus the units
left times its most favorable change per unit, against the criterion's
threshold, cuts a candidate at the root and every subtree of the arc
enumeration that cannot make it win; with no units left it is the leaf test.
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

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, sub
from typing import Iterator, Sequence

from .core import (ALTERNATIVES, Domain, Move, Profile, Ranking, as_fraction,
                   format_profile, transfer_weight)
from .rules import Outcome, RuleDescriptor, evaluate


class NongenericProfileError(ValueError):
    """Raised when a manipulation search is asked to start from a profile with no winner."""


@dataclass(frozen=True)
class AuditConfig:
    """Search resolution: mass bound, profile mesh 1/grid, move mesh 1/moves.

    Epsilon is made exact by `core.as_fraction`, so a float is refused.
    """

    epsilon: Fraction
    grid_denominator: int = 20
    move_denominator: int = 100

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", as_fraction(self.epsilon))
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


#: The ordered pairs of alternatives: (a, b), a before b, at i < 3, and its reverse at i + 3.
_FORWARD = tuple(itertools.combinations(ALTERNATIVES, 2))
_PAIRS = _FORWARD + tuple((b, a) for a, b in _FORWARD)

#: Per alternative: the `_PAIRS` indices of its statistics over the two others; those
#: two others, its rivals, in canonical order; and its own two statistics, then theirs.
_OVER = {a: tuple(i for i, pair in enumerate(_PAIRS) if pair[0] == a) for a in ALTERNATIVES}
_RIVALS = {a: tuple(v for v in ALTERNATIVES if v != a) for a in ALTERNATIVES}
_GROUPS = {a: sum((_OVER[v] for v in _RIVALS[a]), _OVER[a]) for a in ALTERNATIVES}


class _Model:
    """A rule on one domain, as one integer statistic per ordered pair (a, b).

    For a positional rule it is the score gap a - b, times D, the lcm of the
    score vector's denominators; for the pairwise rule, the support of a over
    b: the count preferring a to b.  The three pairs with a before b have
    `rows` over the rankings, dotted with the counts; a reverse pair's
    statistic is C - s, C = `total` * L at scale L (0 for gaps, L for
    supports).  An alternative meets the criterion when both its statistics
    reach need = ceil(C / 2), a gap of 0 or a support of a half.
    `steps[arc]` is the change of all six per count moved along the arc, and
    `reach[old, target]` their largest and smallest change over the arcs whose
    source prefers target to old, clamped at 0.  Nothing else in the search
    tells the rule families apart.
    """

    def __init__(self, vector: tuple[Fraction, ...] | None, domain: Domain):
        if domain.alternatives != frozenset(ALTERNATIVES):
            raise ValueError(f"the coalition search needs rankings of all of x, y, z; the domain "
                             f"{domain} ranks only {', '.join(sorted(domain.alternatives))}")
        self.rankings = rankings = tuple(domain)
        if vector is None:
            self.total = 1
            self.rows = [[int(r.prefers(a, b)) for r in rankings] for a, b in _FORWARD]
        else:
            d = math.lcm(*(s.denominator for s in vector))
            points = [s.numerator * (d // s.denominator) for s in vector]
            self.total = 0
            self.rows = [[points[r.position(a)] - points[r.position(b)] for r in rankings]
                         for a, b in _FORWARD]
        self.arcs = list(itertools.permutations(range(len(rankings)), 2))
        self.steps = {(src, dst): [row[dst] - row[src] for row in self.rows]
                      + [row[src] - row[dst] for row in self.rows] for src, dst in self.arcs}
        self.gains = {(old, target): [r.prefers(target, old) for r in rankings]
                      for old in ALTERNATIVES for target in _RIVALS[old]}
        self.reach = {}
        for key, gains in self.gains.items():
            columns = list(zip([0] * len(_PAIRS), *(self.steps[arc] for arc in self.arcs
                                                     if gains[arc[0]])))
            self.reach[key] = [max(c) for c in columns], [min(c) for c in columns]


_model = functools.lru_cache(maxsize=256)(_Model)  # one per (score vector, domain)


class _Lattice:
    """A rule's model at the integer scale L: a profile's weights are counts / L,
    and a move is a multiple of `unit` = L / moves counts."""

    def __init__(self, rule: RuleDescriptor, domain: Domain, scale: int, config: AuditConfig):
        self.model = _model(rule.score_vector, domain)
        self.total = self.model.total * scale
        self.need = (self.total + 1) // 2
        self.unit = scale // config.move_denominator
        self.max_units, self.moves = config.max_units, config.move_denominator

    def may_win(self, target: str, values: Sequence[int], units: int,
                hi: Sequence[int], lo: Sequence[int]) -> bool:
        """The one bound of the search: can target end up the unique winner if
        `units` more move, each changing statistic q by between lo[q] and hi[q]?

        Target needs both its statistics to reach `need` and each rival one
        below it.  The root cut, every search node and the leaf test (at
        0 units, where the bound is exact) ask this.
        """
        need = self.need
        p, q, r, s, t, u = _GROUPS[target]
        return (values[p] + units * hi[p] >= need and values[q] + units * hi[q] >= need
                and (values[r] + units * lo[r] < need or values[s] + units * lo[s] < need)
                and (values[t] + units * lo[t] < need or values[u] + units * lo[u] < need))

    def search(self, counts: Sequence[int]) -> tuple[tuple[Move, ...], str, str] | None:
        """The minimal witness's (moves, old winner, new winner) from these counts, or
        None; raises `NongenericProfileError` when the counts elect no winner."""
        model, need = self.model, self.need
        forward = [sum(map(mul, row, counts)) for row in model.rows]
        values = forward + [self.total - s for s in forward]
        tie = [a for a, (p, q) in _OVER.items() if values[p] >= need and values[q] >= need]
        if len(tie) != 1:
            raise NongenericProfileError(f"base profile has no winner ({Outcome(frozenset(tie))})")
        old = tie[0]

        max_mass = self.max_units * self.unit  # in counts; at 0, old's unique win rejects all
        branches = [_Branch(self, counts, values, old, target) for target in _RIVALS[old]
                    if self.may_win(target, values, max_mass, *model.reach[old, target])]

        if not branches:
            return None
        for units in range(1, self.max_units + 1):
            found = [(amounts, branch.target) for branch in branches
                     if (amounts := branch.search(units)) is not None]
            if found:
                amounts, target = min(found)
                mass = Fraction(1, self.moves)
                moves = tuple((model.rankings[src], model.rankings[dst], k * mass)
                              for (src, dst), k in zip(model.arcs, amounts) if k)
                return moves, old, target
        return None


class _Branch:
    """Search state for one candidate new winner on one base profile: the arcs
    from rankings holding counts that prefer target to the old winner.

    `deltas[i]` is the change of the six statistics per unit moved along arc
    i, and `hi[i]`/`lo[i]` their extremes over arcs i onwards, with which the
    lattice's `may_win` bounds what the remaining units can still do.
    """

    def __init__(self, lattice: _Lattice, counts: Sequence[int], values: list[int],
                 old: str, target: str):
        model, unit = lattice.model, lattice.unit
        gains = model.gains[old, target]
        self.target = target
        self.all_arcs = model.arcs
        self.arcs = [arc for arc in model.arcs if counts[arc[0]] and gains[arc[0]]]
        self.base = values
        self.source_caps = {src: counts[src] // unit for src, _ in self.arcs}
        self.deltas = [[unit * d for d in model.steps[arc]] for arc in self.arcs]

        def suffix(pick):  # past the last arc nothing moves: only the exact leaf test is left
            rows = itertools.accumulate(self.deltas[::-1], lambda a, b: list(map(pick, a, b)))
            return list(rows)[::-1] + [[0] * len(_PAIRS)]
        self.hi, self.lo = suffix(max), suffix(min)
        self.may_win = functools.partial(lattice.may_win, target)

    def search(self, total_units: int) -> tuple[int, ...] | None:
        """The lexicographically first unit vector of the given total that elects
        target, as amounts over all of the domain's arcs; None if there is none."""
        arcs, hi, lo, may_win = self.arcs, self.hi, self.lo, self.may_win
        n = len(arcs)
        combo = [0] * n
        budget = dict(self.source_caps)

        def rec(i: int, remaining: int, values: list[int]) -> bool:
            if remaining == 0:
                return may_win(values, 0, hi[i], lo[i])
            if i == n or not may_win(values, remaining, hi[i], lo[i]):
                return False
            src, _ = arcs[i]
            cap = min(remaining, budget[src])
            step = self.deltas[i]
            for k in range(cap + 1):
                combo[i] = k
                budget[src] -= k
                nxt = values if k == 0 else [v + k * d for v, d in zip(values, step)]
                if rec(i + 1, remaining - k, nxt):
                    return True
                budget[src] += k
            combo[i] = 0
            return False

        if not rec(0, total_units, self.base):
            return None
        amounts = dict(zip(self.arcs, combo))
        return tuple(amounts.get(arc, 0) for arc in self.all_arcs)


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


def _grid_counts(size: int, grid: int) -> Iterator[list[int]]:
    """Every vector of `size` counts summing to `grid`, in ascending lex order: count i
    is q[i+1] - q[i] over cut points 0 = q[0] <= q[1] <= ... <= q[size] = grid."""
    for cuts in itertools.combinations_with_replacement(range(grid + 1), size - 1):
        yield list(map(sub, (*cuts, grid), (0, *cuts)))


def grid_profiles(domain: Domain, grid_denominator: int) -> Iterator[Profile]:
    """All profiles on the domain with weights in multiples of 1/grid, canonical order."""
    rankings, grid = tuple(domain), grid_denominator
    for combo in _grid_counts(len(rankings), grid):
        yield Profile({r: Fraction(n, grid) for r, n in zip(rankings, combo) if n}, domain)


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
    for combo in _grid_counts(len(rankings), grid):
        try:
            found = lattice.search([c * (scale // grid) for c in combo])
        except NongenericProfileError:
            continue  # manipulation claims compare actual winners
        if found is not None:
            profile = Profile({r: Fraction(c, grid) for r, c in zip(rankings, combo) if c}, domain)
            return ManipulationWitness(profile, *found, config.epsilon)
    return None

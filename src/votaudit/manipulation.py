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
the pairwise rule's support.  Each of the six is a row over the rankings dotted
with the counts, a reverse pair's too: a pair's two rows sum to a constant, and
the counts to the whole mass.  So one bound, each statistic plus the units left
times its most favorable change per unit, against the criterion's threshold,
cuts a candidate at the root and every subtree of the arc enumeration that
cannot make it win; with no units left it is the leaf test.  At the root, with
the most units, each lattice compiles it into thresholds.  Among valid
witnesses the search returns the one minimal by total size and then by the
amounts vector over canonically ordered arcs, so results are reproducible byte
for byte.

The search runs on an integer lattice, at L = lcm(move denominator, the
profile's denominator).  `find_manipulation` takes a profile's statistics from
its counts; `audit_wsp` generates, with its statistics, only the first count
vector of each orbit under the renamings that fix the domain (the rules are
neutral, so the first witness is the same), and skips every subtree of that
enumeration in whose box of statistics the root cut's thresholds, at the box's
most favourable corner, cut every (old, new) pair: each profile below would fail
the root cut, which a witness's profile passes.  A score vector is scaled by the
lcm of its entries' denominators, so every statistic, bound and leaf test is
an exact comparison of integers.
`Fraction` leaves only where a witness is built, in its move amounts
k/move_denominator; a grid witness's profile is the grid's counts.
`verify_witness` replays a witness through `transfer_weight` and
`rules.evaluate`, which share no code with the lattice.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub
from typing import Callable, Iterator, Sequence

from .core import (ALL_PERMUTATIONS, ALTERNATIVES, Domain, Move, Profile, Ranking,
                   as_fraction, format_profile, transfer_weight)
from .rules import Outcome, RuleDescriptor, evaluate


class NongenericProfileError(ValueError):
    """Raised when a manipulation search is asked to start from a profile with no winner."""


@dataclass(frozen=True)
class AuditConfig:
    """Search resolution: mass bound, profile mesh 1/grid, move mesh 1/moves.

    Epsilon is made exact by `core.as_fraction`, so a float or a `bool` is refused;
    either denominator that is not an `int`, a `bool` too, is refused with a `ValueError`.
    """

    epsilon: Fraction
    grid_denominator: int = 20
    move_denominator: int = 100

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", as_fraction(self.epsilon))
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not all(type(d) is int for d in (self.grid_denominator, self.move_denominator)):
            raise ValueError("denominators must be integers")
        if self.grid_denominator < 1 or self.move_denominator < 1:
            raise ValueError("denominators must be at least 1")

    @property
    def max_units(self) -> int:
        """Largest unit count u with u/move_denominator < epsilon, at most
        move_denominator: no coalition moves more than the whole mass."""
        return min(math.ceil(self.epsilon * self.move_denominator) - 1, self.move_denominator)


@dataclass(frozen=True)
class ManipulationWitness:
    """Move amounts and epsilon are made exact by `core.as_fraction`, so a float is refused."""

    base_profile: Profile
    moves: tuple[tuple[Ranking, Ranking, Fraction], ...]
    old_outcome: str
    new_outcome: str
    epsilon: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "moves", tuple((s, d, as_fraction(a)) for s, d, a in self.moves))
        object.__setattr__(self, "epsilon", as_fraction(self.epsilon))

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
_PAIRS = tuple(pair[::d] for d in (1, -1) for pair in itertools.combinations(ALTERNATIVES, 2))

#: Per alternative: the `_PAIRS` indices of its statistics over the two others; those
#: two others, its rivals, in canonical order; and its own two statistics, then theirs.
_OVER = {a: tuple(i for i, pair in enumerate(_PAIRS) if pair[0] == a) for a in ALTERNATIVES}
_RIVALS = {a: tuple(v for v in ALTERNATIVES if v != a) for a in ALTERNATIVES}
_GROUPS = {a: sum((_OVER[v] for v in _RIVALS[a]), _OVER[a]) for a in ALTERNATIVES}


class _Model:
    """A rule on one domain, as one integer statistic per ordered pair (a, b).

    For a positional rule it is the score gap a - b, times D, the lcm of the
    score vector's denominators; for the pairwise rule, the support of a over
    b: the count preferring a to b.  Each pair of `_PAIRS` has a row of
    `rows` over the rankings, dotted with the counts.  A pair's row and its
    reverse's sum to `total` on every ranking (0 for gaps, 1 for supports),
    so the two statistics sum to C = `total` * L at scale L.  An alternative
    meets the criterion when both its statistics reach need = ceil(C / 2), a
    gap of 0 or a support of a half.
    `steps[arc]` is the change of all six per count moved along the arc, and
    `reach[old, target]` their largest and smallest change over the arcs whose
    source prefers target to old, clamped at 0: a lattice reads its root cut's
    thresholds off it.  Nothing else in the search tells the rule families apart.
    """

    def __init__(self, vector: tuple[Fraction, ...] | None, domain: Domain):
        if domain.alternatives != frozenset(ALTERNATIVES):
            raise ValueError(f"the coalition search needs rankings of all of x, y, z; the domain "
                             f"{domain} ranks only {', '.join(sorted(domain.alternatives))}")
        self.rankings = rankings = tuple(domain)
        if vector is None:
            self.total = 1
            self.rows = [[int(r.prefers(a, b)) for r in rankings] for a, b in _PAIRS]
        else:
            d = math.lcm(*(s.denominator for s in vector))
            points = [s.numerator * (d // s.denominator) for s in vector]
            self.total = 0
            self.rows = [[points[r.position(a)] - points[r.position(b)] for r in rankings]
                         for a, b in _PAIRS]
        self.arcs = list(itertools.permutations(range(len(rankings)), 2))
        self.steps = {(src, dst): [row[dst] - row[src] for row in self.rows]
                      for src, dst in self.arcs}
        self.gains = {(old, target): [r.prefers(target, old) for r in rankings]
                      for old in ALTERNATIVES for target in _RIVALS[old]}
        self.reach = {}
        for (old, target), gains in self.gains.items():
            columns = list(zip([0] * len(_PAIRS), *(self.steps[arc] for arc in self.arcs
                                                     if gains[arc[0]])))
            self.reach[old, target] = [max(c) for c in columns], [min(c) for c in columns]


_model = functools.lru_cache(maxsize=256)(_Model)  # one per (score vector, domain)


class _Lattice:
    """A rule's model at the integer scale L = lcm(den, moves), for profiles of denominator
    den: a count is `per` = L / den counts, and a move is `unit` = L / moves counts.
    `cuts[old]` is old's two statistics and, per rival target, each of `_GROUPS[target]`
    with its threshold in the root cut: `may_win` at `max_mass` asks v[i] + max_mass *
    extreme against need, so v[i] against need - max_mass * extreme, where the extreme of
    `reach[old, target]` is hi at target's own two statistics and lo at the four rival ones."""

    def __init__(self, rule: RuleDescriptor, domain: Domain, den: int, config: AuditConfig):
        self.model = _model(rule.score_vector, domain)
        scale = math.lcm(den, config.move_denominator)
        self.per = scale // den
        self.total = self.model.total * scale
        self.need = (self.total + 1) // 2
        self.unit = scale // config.move_denominator
        self.max_units, self.moves = config.max_units, config.move_denominator
        self.max_mass = self.max_units * self.unit  # in counts; at 0, old's unique win rejects all
        need, mass, reach = self.need, self.max_mass, self.model.reach
        self.cuts = {old: (*_OVER[old], [
            (target, p, need - mass * hi[p], q, need - mass * hi[q], r, need - mass * lo[r],
             s, need - mass * lo[s], t, need - mass * lo[t], u, need - mass * lo[u])
            for target in _RIVALS[old]
            for (hi, lo), (p, q, r, s, t, u) in [(reach[old, target], _GROUPS[target])]])
            for old in ALTERNATIVES}

    def may_win(self, target: str, values: Sequence[int], units: int,
                hi: Sequence[int], lo: Sequence[int]) -> bool:
        """The one bound of the search: can target end up the unique winner if
        `units` more move, each changing statistic q by between lo[q] and hi[q]?

        Target needs both its statistics to reach `need` and each rival one
        below it.  Every search node and the leaf test (at 0 units, where the
        bound is exact) ask this; the root cut, in `search` and `may_hold`, asks
        it at `max_mass` through the thresholds in `cuts`.
        """
        need = self.need
        p, q, r, s, t, u = _GROUPS[target]
        return (values[p] + units * hi[p] >= need and values[q] + units * hi[q] >= need
                and (values[r] + units * lo[r] < need or values[s] + units * lo[s] < need)
                and (values[t] + units * lo[t] < need or values[u] + units * lo[u] < need))

    def may_hold(self, lo: Sequence[int], hi: Sequence[int]) -> bool:
        """Can a profile whose six statistics lie between lo and hi pass the root
        cut: some old winning, and `may_win` holding for some rival target?

        Both tests rise with the statistics they need to reach `need` and fall
        with those they need below it, so each pair is asked once, at the corner
        of the box that favours it most, hi for the former and lo for the latter:
        the root cut's thresholds, for a whole box of profiles.
        """
        need = self.need
        for p, q, tests in self.cuts.values():
            if hi[p] >= need and hi[q] >= need:
                # written out here and in `search`: through one shared helper the
                # sweep's audits ran about 6% slower, in paired in-process runs
                for _, a, ta, b, tb, r, tr, s, ts, t, tt, u, tu in tests:
                    if (hi[a] >= ta and hi[b] >= tb and (lo[r] < tr or lo[s] < ts)
                            and (lo[t] < tt or lo[u] < tu)):
                        return True
        return False

    def search(self, values: list[int],
               counts: Sequence[int]) -> tuple[tuple[Move, ...], str, str] | Outcome | None:
        """The minimal witness's (moves, old winner, new winner) from these counts over den, with
        the six statistics `values` at L; else None; their `Outcome` if they elect no winner."""
        model, need = self.model, self.need
        tie = [a for a, (p, q) in _OVER.items() if values[p] >= need and values[q] >= need]
        if len(tie) != 1:
            return Outcome(frozenset(tie))
        old = tie[0]

        branches = [_Branch(self, counts, values, old, target)
                    for target, a, ta, b, tb, r, tr, s, ts, t, tt, u, tu in self.cuts[old][2]
                    if values[a] >= ta and values[b] >= tb and (values[r] < tr or values[s] < ts)
                    and (values[t] < tt or values[u] < tu)]

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


def _suffix(pick, vectors: list[list[int]]) -> list[list[int]]:
    """Per index i, the entrywise `pick` (min or max) of vectors i onwards."""
    return [*itertools.accumulate(vectors[::-1], lambda a, b: list(map(pick, a, b)))][::-1]


class _Branch:
    """Search state for one candidate new winner on one base profile: the arcs
    from rankings holding counts that prefer target to the old winner.

    `deltas[i]` is the change of the six statistics per unit moved along arc
    i, and `hi[i]`/`lo[i]` their extremes over arcs i onwards, with which the
    lattice's `may_win` bounds what the remaining units can still do.
    """

    def __init__(self, lattice: _Lattice, counts: Sequence[int], values: list[int],
                 old: str, target: str):
        model, unit, per = lattice.model, lattice.unit, lattice.per
        gains = model.gains[old, target]
        self.target = target
        self.all_arcs = model.arcs
        self.arcs = [arc for arc in model.arcs if counts[arc[0]] and gains[arc[0]]]
        self.base = values
        self.source_caps = {src: counts[src] * per // unit for src, _ in self.arcs}
        self.deltas = [[unit * d for d in model.steps[arc]] for arc in self.arcs]
        # past the last arc nothing moves: only the exact leaf test is left
        self.hi, self.lo = (_suffix(pick, self.deltas) + [[0] * len(_PAIRS)] for pick in (max, min))
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
    lattice = _Lattice(rule, profile.domain, profile.den, config)
    held = dict(profile.counts)
    counts = [held.get(r.slot, 0) for r in profile.domain]
    found = lattice.search(
        [lattice.per * sum(map(mul, row, counts)) for row in lattice.model.rows], counts)
    if isinstance(found, Outcome):
        raise NongenericProfileError(f"base profile has no winner ({found})")
    return None if found is None else ManipulationWitness(profile, *found, config.epsilon)


def _lex_counts(size: int, grid: int, maps: Sequence[Sequence[int]] = (),
                rows: Sequence[Sequence[int]] = (),
                keep: Callable[[list[int], list[int]], bool] | None = None,
                ) -> Iterator[tuple[list[int], list[int]]]:
    """In ascending lex order, every vector c of `size` counts summing to `grid` that is
    at most each image [c[j] for j in m], m in `maps`, with [row . c for row in rows].
    One recursion assigns the counts in order, the last two together, and carries the
    products along.  Map m's pointer p marks where c and its image may first differ: a
    prefix is dropped once the image is smaller there, or must be (c[m[p]] is at most the
    mass left), and m retired once it is larger.  With `keep`, a prefix is also dropped
    unless keep(lo, hi) holds, where every product below it lies in [lo, hi]: the prefix's
    sums plus the mass left times each row's least and greatest entry over the counts
    still to assign.  c is one list, reused: copy to keep."""
    counts = [0] * size
    last = size - 1
    cols = [[row[i] for row in rows] for i in range(size)]
    if not last:  # one ranking: its one vector
        yield [grid], [grid * c for c in cols[0]]
        return
    lows, highs = _suffix(min, cols), _suffix(max, cols)  # each row's extremes over i..last

    def assign(i: int, rem: int, live: list, sums: list[int]) -> Iterator:
        if keep is not None and not keep([s + rem * c for s, c in zip(sums, lows[i])],
                                         [s + rem * c for s, c in zip(sums, highs[i])]):
            return
        known, step = i, cols[i]
        if i + 1 == last:  # count i takes k, and the last count rem - k
            known, step = last, list(map(sub, step, cols[last]))
            sums = [s + rem * c for s, c in zip(sums, cols[last])]
        for k in range(rem + 1):
            counts[i] = k
            left = counts[last] = rem - k  # read as the last count only at i + 1 == last
            kept = []
            for m, p in live:
                while p <= known and m[p] <= known and counts[m[p]] == counts[p]:
                    p += 1
                if p > known or m[p] > known and counts[p] <= left:
                    kept.append((m, p))  # undecided: agreeing, or c[m[p]] may still reach c[p]
                elif m[p] > known or counts[m[p]] < counts[p]:
                    break  # the image is, or will be, smaller
            else:
                if known == last:
                    yield counts, sums
                else:
                    yield from assign(i + 1, left, kept, sums)
            sums = list(map(add, sums, step))

    yield from assign(0, grid, [(m, 0) for m in maps], [0] * len(rows))


def _grid_profile(domain: Domain, grid: int, combo: list[int]) -> Profile:
    """The profile with count `combo[i]` over `grid` on the domain's i-th ranking."""
    return Profile._trusted(domain, grid, zip((r.slot for r in domain), combo))


def grid_profiles(domain: Domain, grid_denominator: int) -> Iterator[Profile]:
    """All profiles on the domain with weights in multiples of 1/grid, canonical order."""
    for combo, _ in _lex_counts(len(domain), grid_denominator):
        yield _grid_profile(domain, grid_denominator, combo)


@functools.lru_cache(maxsize=256)
def _symmetries(domain: Domain) -> tuple[tuple[int, ...], ...]:
    """The renamings but the identity, ALL_PERMUTATIONS[0], that map the domain onto itself,
    as index maps m (ranking i to m[i]); over them all, [c[j] for j in m] are c's images."""
    return tuple(tuple(domain.rankings.index(Ranking(tuple(map(perm, r.order)))) for r in domain)
                 for perm in ALL_PERMUTATIONS[1:] if domain.permute(perm) == domain)


def audit_wsp(rule: RuleDescriptor, domain: Domain,
              config: AuditConfig) -> ManipulationWitness | None:
    """Sweep every generic grid profile on the domain for a small-coalition witness.

    Returns the first witness in canonical profile order, or None.  Finding
    none certifies only "no witness at this resolution", never full immunity.
    Raises `ValueError` when the domain does not rank all three alternatives.
    Only the first count vector of each orbit under the domain's symmetries
    is generated, with its statistics, and searched: a symmetry maps the
    domain, its arcs, the unit mesh, `max_units`, "source prefers target to
    old" and every (neutral) rule's statistics onto themselves, so an orbit is
    nongeneric, manipulable at this resolution or clean as a whole, and the
    first manipulable vector is its orbit's first.  A subtree of the enumeration
    is skipped when `_Lattice.may_hold` rules out its box of statistics against
    the root cut's thresholds: every profile in it fails the root cut, so none is
    a witness's, and the order of the rest, hence the first witness, is unchanged.
    Only a witness's profile is built.
    """
    grid = config.grid_denominator
    lattice = _Lattice(rule, domain, grid, config)  # refuses a domain missing x, y or z
    if lattice.max_units == 0:  # no coalition fits below epsilon
        return None
    rows = [[lattice.per * v for v in row] for row in lattice.model.rows]  # at scale L
    for combo, values in _lex_counts(len(domain), grid, _symmetries(domain), rows,
                                     lattice.may_hold):
        found = lattice.search(values, combo)
        if isinstance(found, tuple):  # None is clean; an Outcome, nongeneric, claims nothing
            return ManipulationWitness(_grid_profile(domain, grid, combo), *found, config.epsilon)
    return None

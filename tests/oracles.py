"""Independent brute-force recomputations used as oracles by the tests.

These deliberately take different code paths from the library: scores are
rebuilt from the pairwise-comparison matrix, winners from first principles,
and manipulation witnesses by exhaustive enumeration of entire move matrices
in the order the search promises.  Catalog expressions are walked node by
node in `Fraction` arithmetic, their names by a second walk apart from the
compiler, and induction chains level by level.  IIA is judged on the profiles
`restrict_profile` builds, never on a profile's counts under a slot map.
"""

import ast
import math
from fractions import Fraction

from votaudit import ALTERNATIVES, Profile, evaluate, restrict_profile, transfer_weight
from votaudit.manipulation import AuditConfig, ManipulationWitness
from votaudit.replay.verify import _misreport
from votaudit.rules import RuleDescriptor


def pairwise_matrix(profile: Profile) -> dict[tuple[str, str], Fraction]:
    matrix = {}
    for a in ALTERNATIVES:
        for b in ALTERNATIVES:
            if a == b:
                continue
            total = Fraction(0)
            for r, w in profile.weights.items():
                if r.position(a) < r.position(b):
                    total += w
            matrix[(a, b)] = total
    return matrix


def brute_borda_tie_set(profile: Profile) -> frozenset[str]:
    # score(a) equals the sum of a's pairwise support over every opponent
    matrix = pairwise_matrix(profile)
    scores = {a: sum(matrix[(a, b)] for b in ALTERNATIVES if b != a) for a in ALTERNATIVES}
    best = max(scores.values())
    return frozenset(a for a, s in scores.items() if s == best)


def brute_plurality_tie_set(profile: Profile) -> frozenset[str]:
    firsts = {a: Fraction(0) for a in ALTERNATIVES}
    for r, w in profile.weights.items():
        firsts[r.order[0]] += w
    best = max(firsts.values())
    return frozenset(a for a, s in firsts.items() if s == best)


def brute_scoring_tie_set(vector, profile: Profile) -> frozenset[str]:
    # s3 for every voter, s2 - s3 more for being in the top two, s1 - s2 more for first
    s1, s2, s3 = vector
    scores = {a: Fraction(0) for a in ALTERNATIVES}
    for r, w in profile.weights.items():
        for a in ALTERNATIVES:
            top_two = r.position(a) < 2
            first = r.position(a) == 0
            scores[a] += w * (s3 + (s2 - s3) * top_two + (s1 - s2) * first)
    best = max(scores.values())
    return frozenset(a for a, s in scores.items() if s == best)


def brute_condorcet_tie_set(profile: Profile) -> frozenset[str]:
    matrix = pairwise_matrix(profile)
    half = Fraction(1, 2)
    return frozenset(
        a for a in ALTERNATIVES
        if all(matrix[(a, b)] >= half for b in ALTERNATIVES if b != a)
    )


def compositions(total: int, caps):
    """All vectors with the given total and per-slot caps, in ascending lex order."""
    if not caps:
        if total == 0:
            yield ()
        return
    tail = caps[1:]
    lo = max(0, total - sum(min(c, total) for c in tail))
    for first in range(lo, min(caps[0], total) + 1):
        for rest in compositions(total - first, tail):
            yield (first,) + rest


def exhaustive_witness(rule: RuleDescriptor, profile: Profile,
                       config: AuditConfig) -> ManipulationWitness | None:
    """The first valid move matrix below epsilon, by enumerating them all.

    Matrices come in the order the search promises: by total units, then by
    ascending amounts over the arcs (src, dst) of the whole domain in
    canonical order, so the first valid one is the search's witness.
    """
    old = evaluate(rule, profile).winner
    if old is None:
        return None
    unit = Fraction(1, config.move_denominator)
    # an arc whose source holds less than a unit stays at 0, which leaves the order alone
    arcs = [(src, dst) for src in profile.domain for dst in profile.domain
            if dst != src and profile.weight(src) >= unit]
    caps = [int(profile.weight(src) / unit) for src, _ in arcs]
    for total in range(1, config.max_units + 1):
        for combo in compositions(total, caps):
            outflow: dict = {}
            for (src, _), n in zip(arcs, combo):
                outflow[src] = outflow.get(src, 0) + n
            if any(n * unit > profile.weight(src) for src, n in outflow.items()):
                continue
            moves = tuple((s, d, n * unit) for (s, d), n in zip(arcs, combo) if n)
            moved, _ = transfer_weight(profile, moves)
            new = evaluate(rule, moved).winner
            if new is None or new == old:
                continue
            if all(src.prefers(new, old) for src, _, _ in moves):
                return ManipulationWitness(profile, moves, old, new, config.epsilon)
    return None


_REFERENCE_FUNCTIONS = {"floor": math.floor, "ceil": math.ceil, "abs": abs}


def reference_value(text: str, env):
    """Catalog expression or predicate (one comparison) text evaluated in CPython
    `Fraction` arithmetic.

    Operands are evaluated left to right, as Python does.  A missing name raises
    `KeyError` and a zero divisor `ZeroDivisionError`.
    """
    def walk(node):
        if isinstance(node, ast.Constant):
            return Fraction(node.value)
        if isinstance(node, ast.Name):
            return Fraction(env[node.id])
        if isinstance(node, ast.UnaryOp):
            value = walk(node.operand)
            return -value if isinstance(node.op, ast.USub) else +value
        if isinstance(node, ast.BinOp):
            left, right = walk(node.left), walk(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            return left / right
        if isinstance(node, ast.Call):
            return Fraction(_REFERENCE_FUNCTIONS[node.func.id](walk(node.args[0])))
        if isinstance(node, ast.Compare):
            [op], left, right = node.ops, walk(node.left), walk(node.comparators[0])
            return {ast.Lt: left < right, ast.LtE: left <= right, ast.Gt: left > right,
                    ast.GtE: left >= right, ast.Eq: left == right}[type(op)]
        raise ValueError(f"not a catalog expression: {ast.dump(node)}")

    return walk(ast.parse(text, mode="eval").body)


def reference_names(text: str) -> frozenset:
    """`Expr.names` of catalog text: its tree's name nodes, called function names aside."""
    body = ast.parse(text, mode="eval").body
    called = {id(node.func) for node in ast.walk(body) if isinstance(node, ast.Call)}
    return frozenset(node.id for node in ast.walk(body)
                     if isinstance(node, ast.Name) and id(node) not in called)


def walk_every_level(count: int, level, moves, eps: Fraction, claim, *, down: bool):
    """`replay.verify._walk`'s answer from every level 0..count in turn, with no
    assumption on how the levels vary: the first level that is no profile, and below
    it the first step that fails `_misreport` and the first level that fails `claim`,
    each as `(j, why)`, or None."""
    invalid = step = broken = previous = None
    for j in range(count + 1):
        current = level(j)
        if isinstance(current, str):
            invalid = j, current
            break
        if j and step is None:
            before, after = (current, previous) if down else (previous, current)
            found = _misreport(before, moves, after, eps)[:2]
            if any(found):
                step = j, found
        if broken is None and (why := claim(j)):
            broken = j, why
        previous = current
    return invalid, step, broken


def dominations(profile: Profile) -> list[tuple[str, str]]:
    """Pairs (a, b) that every positive-weight ranking orders a above b, for a and b among
    the profile's alternatives, in `ALTERNATIVES` order of a and then of b."""
    support = profile.support
    alts = [a for a in ALTERNATIVES if a in profile.alternatives]
    return [(a, b) for a in alts for b in alts
            if a != b and support and all(r.prefers(a, b) for r in support)]


def iia(rule: RuleDescriptor, profile: Profile) -> tuple[str, str, frozenset[str] | None]:
    """IIA's verdict, note and counterexample pair, by evaluating the profile restricted to
    each pair that holds the winner, in `ALTERNATIVES` order of the other alternative: the
    first pair the winner loses, else the last pair that ties, else satisfied."""
    full = evaluate(rule, profile)
    winner = full.winner
    if winner is None:
        return "not-applicable", f"no winner on the full alternative set ({full})", None
    lost = tied = None
    for other in ALTERNATIVES:
        if other == winner or other not in profile.alternatives:
            continue
        pair = frozenset((winner, other))
        pair_winner = evaluate(rule, restrict_profile(profile, pair)).winner
        if pair_winner is None:
            tied = pair
        elif pair_winner != winner and lost is None:
            lost = pair, f"{winner} wins overall but loses to {pair_winner} on the pair"
    if lost is not None:
        return "violated", lost[1], lost[0]
    if tied is not None:
        return ("not-applicable",
                "a restricted election is tied (nongeneric), so persistence is undecided", tied)
    return "satisfied", "", None

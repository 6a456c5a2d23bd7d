"""Independent recomputation of rule outcomes, axiom verdicts and witnesses.

The benchmark checks the program against this module, which shares no code
with it: profiles are plain dicts from ranking tuples (best first) to
`Fraction` weights, and every answer is rebuilt from the definitions.
"""

from __future__ import annotations

from fractions import Fraction

ALTS = ("x", "y", "z")
HALF = Fraction(1, 2)

#: Positional score vectors of the positional rules the benchmark drives.
VECTORS = {
    "borda": (2, 1, 0),
    "plurality": (1, 0, 0),
    "score:3,1,0": (3, 1, 0),
}


def rank(text: str) -> tuple[str, ...]:
    """``"x>y>z"`` or ``"xyz"`` as a tuple, best first."""
    return tuple(text.split(">")) if ">" in text else tuple(text)


def rank_text(r: tuple[str, ...]) -> str:
    return ">".join(r)


def margins(weights: dict) -> dict[tuple[str, str], Fraction]:
    """Weight of the voters ranking a above b, for every ordered pair."""
    out = {(a, b): Fraction(0) for a in ALTS for b in ALTS if a != b}
    for r, w in weights.items():
        for i, a in enumerate(r):
            for b in r[i + 1:]:
                out[(a, b)] += w
    return out


def tie_set(rule: str, weights: dict) -> frozenset[str]:
    """The rule's criterion set: argmax scores, or majority-undefeated alternatives."""
    if rule == "condorcet":
        m = margins(weights)
        return frozenset(a for a in ALTS if all(m[(a, b)] >= HALF for b in ALTS if b != a))
    vector = VECTORS[rule]
    scores = {a: Fraction(0) for a in ALTS}
    for r, w in weights.items():
        for pos, a in enumerate(r):
            scores[a] += w * vector[pos]
    best = max(scores.values())
    return frozenset(a for a in ALTS if scores[a] == best)


def winner(rule: str, weights: dict) -> str | None:
    tied = tie_set(rule, weights)
    return next(iter(tied)) if len(tied) == 1 else None


def audit_verdicts(rule: str, weights: dict) -> dict[str, str]:
    """Verdicts for P and IIA; every rule here is neutral, so N always holds.

    Restricted to a pair, each of the four rules elects the strict majority
    winner of that pair, so IIA reduces to pairwise margins.
    """
    w = winner(rule, weights)
    support = [r for r, v in weights.items() if v > 0]
    dominated = w is not None and any(
        all(r.index(a) < r.index(w) for r in support) for a in ALTS if a != w)
    verdicts = {"P": "violated" if dominated else "satisfied"}
    if w is None:
        verdicts["IIA"] = "not-applicable"
        return verdicts
    m = margins(weights)
    others = [v for v in ALTS if v != w]
    if any(m[(v, w)] > HALF for v in others):
        verdicts["IIA"] = "violated"
    elif any(m[(v, w)] == HALF for v in others):
        verdicts["IIA"] = "not-applicable"
    else:
        verdicts["IIA"] = "satisfied"
    return verdicts


def witness_holds(rule: str, weights: dict, domain, moves, old: str, new: str,
                  epsilon: Fraction) -> bool:
    """A coalition below epsilon, moving only its own weight inside the domain,
    every member strictly preferring `new` to `old`, turns winner `old` into `new`."""
    if not moves or winner(rule, weights) != old:
        return False
    moved = dict(weights)
    outflow: dict = {}
    for src, dst, amount in moves:
        if amount <= 0 or dst not in domain or src.index(new) > src.index(old):
            return False
        outflow[src] = outflow.get(src, Fraction(0)) + amount
        moved[src] = moved.get(src, Fraction(0)) - amount
        moved[dst] = moved.get(dst, Fraction(0)) + amount
    if any(out > weights.get(src, 0) for src, out in outflow.items()):
        return False
    size = sum(amount for _, _, amount in moves)
    return size < epsilon and winner(rule, moved) == new


def parse_domain(text: str) -> tuple[tuple[str, ...], ...]:
    text = text.strip()
    if text == "full":
        return tuple((a, b, c) for a in ALTS for b in ALTS for c in ALTS
                     if len({a, b, c}) == 3)
    return tuple(rank(t.strip()) for t in text.strip("{}").split(","))


def parse_profile(text: str):
    """Read the profile text format: ``domain:`` header, then ``weight ranking`` lines."""
    lines = text.strip().splitlines()
    weights = {}
    for line in lines[1:]:
        weight, r = line.split()
        weights[rank(r)] = weights.get(rank(r), Fraction(0)) + Fraction(weight)
    return frozenset(parse_domain(lines[0].split(":", 1)[1])), weights


def parse_witness(text: str):
    """Read a printed witness: profile block, ``amount src -> dst`` lines, outcome line."""
    lines = text.splitlines()
    moves = []
    for line in lines:
        if "->" in line:
            head, dst = line.split("->")
            amount, src = head.split()
            moves.append((rank(src), rank(dst.strip()), Fraction(amount)))
    domain, weights = parse_profile("\n".join(lines[:-1 - len(moves)]))
    fields = dict(item.split("=") for item in lines[-1].split())
    return domain, weights, moves, fields["old"], fields["new"]

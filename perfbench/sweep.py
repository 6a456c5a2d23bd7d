"""Workload `sweep`: whole-domain `audit_wsp` audits.

One operation is one grid profile covered by an audit.  A pass runs the eight
configurations below once each, in an order drawn from the seed; the seed
also renames the alternatives of the two restricted domains.  Every rule here
is neutral, so a renamed audit has the same answer, and the full domain is
fixed by every renaming, so the witness audit's witness is the same for all
seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

import oracle
from votaudit import core, manipulation, rules

SETUP = "import votaudit.manipulation"
MIN_OPS = 8
PASS_LEN = 8
POOL_BY_KEY = True
TRACED_OPS = 8
DIGEST_OPS = 8
SEED_INVARIANT = True

FOUR = "{x>y>z, y>x>z, y>z>x, z>y>x}"
CYCLE = "{x>y>z, y>z>x, z>x>y}"

#: (id, rule, domain, epsilon, grid); the move mesh is 1/100 throughout.
#: pruned-*: the bound cuts every branch, so rule scoring dominates.
#: descend-*: the branch-and-bound search evaluates leaves.
#: witness-*: stops at the first witness, which is pinned.
CONFIGS = (
    ("pruned-borda", "borda", "full", "1/20", 12),
    ("pruned-plurality", "plurality", "full", "1/20", 12),
    ("pruned-condorcet", "condorcet", "full", "1/20", 12),
    ("pruned-score310", "score:3,1,0", "full", "1/20", 12),
    ("descend-condorcet-full", "condorcet", "full", "1/8", 10),
    ("descend-condorcet-four", "condorcet", FOUR, "1/5", 20),
    ("descend-borda-cycle", "borda", CYCLE, "1/4", 20),
    ("witness-borda-full", "borda", "full", "1/10", 12),
)

#: The witness audit's answer, and the grid profiles it covers up to and
#: including the witness's base profile; every other audit is clean.
WITNESS = ("domain: full\n1/2 y>z>x\n1/12 z>x>y\n5/12 z>y>x\n"
           "9/100 y>z>x -> y>x>z\nold=z new=y size=9/100")
WITNESS_PROFILES = 65


@dataclass(frozen=True)
class Op:
    key: str
    rule_name: str
    domain: core.Domain
    config: manipulation.AuditConfig
    expect: str  # "clean" or the printed witness
    weight: int  # grid profiles the audit covers


def _op(key, rule_name, domain_text, epsilon, grid, perm) -> Op:
    domain = core.parse_domain(domain_text).permute(perm)
    config = manipulation.AuditConfig(Fraction(epsilon), grid, 100)
    if key.startswith("witness"):
        expect, weight = WITNESS, WITNESS_PROFILES
    else:
        k = len(domain)
        expect, weight = "clean", math.comb(grid + k - 1, k - 1)
    return Op(key, rule_name, domain, config, expect, weight)


def ops(seed: int):
    rng = random.Random(f"sweep/{seed}")
    perms = core.ALL_PERMUTATIONS
    passes = [_op(*cfg, rng.choice(perms)) for cfg in CONFIGS]
    while True:
        rng.shuffle(passes)
        yield from list(passes)


def execute(op: Op):
    return manipulation.audit_wsp(rules.parse_rule(op.rule_name), op.domain, op.config)


def render(output) -> str:
    return "clean" if output is None else manipulation.format_witness(output)


def check(op: Op, output) -> str | None:
    """None when the audit's answer is right, else the reason it is not."""
    text = render(output)
    if text != op.expect:
        return f"expected {op.expect!r}, got {text!r}"
    if output is None:
        return None
    if not manipulation.verify_witness(rules.parse_rule(op.rule_name), output):
        return "witness fails verify_witness"
    domain, weights, moves, old, new = oracle.parse_witness(text)
    if not oracle.witness_holds(op.rule_name, weights, domain, moves, old, new,
                                op.config.epsilon):
        return "witness fails the independent recomputation"
    return None


def digest_line(op: Op, output) -> str:
    return f"{op.key}: {render(output)}"


def perturb(op: Op) -> Op:
    return replace(op, expect="clean" if op.expect != "clean" else WITNESS)

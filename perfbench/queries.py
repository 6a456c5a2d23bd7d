"""Workload `queries`: single-profile requests through in-process ``votaudit.cli.run``.

One operation is one request.  Requests cycle through evaluate, margins,
audit (P,A,N,IIA) and manipulate (epsilon 1/20) across four rules; each gets
its own profile file, with weight denominators from 200 to 1000, on the full,
cycle or four-ranking domain.  Every other block of sixteen requests uses
profiles a few units away from the uniform one, so near a tie.  Expected
answers come from `oracle` when the request is generated.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import oracle
from votaudit import cli, core, manipulation, rules

SETUP = "import votaudit.cli"
MIN_OPS = 1000  # at least one block of the latency percentiles (run.BLOCK)
PASS_LEN = 1
POOL_BY_KEY = False
TRACED_OPS = 1000
DIGEST_OPS = 1000
SEED_INVARIANT = False

DOMAINS = ("full", "{x>y>z, y>z>x, z>x>y}", "{x>y>z, y>x>z, y>z>x, z>y>x}")
RULES = ("borda", "plurality", "condorcet", "score:3,1,0")
VERBS = ("evaluate", "margins", "audit", "manipulate")
EPSILON = "1/20"


@dataclass(frozen=True)
class Op:
    key: str
    argv: tuple[str, ...]
    text: str  # the profile file's contents
    codes: frozenset[int]  # acceptable exit codes
    lines: tuple[str, ...] | None  # expected output lines, when the oracle fixes them
    weight: int = 1


def _profile(rng: random.Random, domain: tuple, near_tie: bool) -> dict:
    k, den = len(domain), rng.randint(200, 1000)
    if near_tie:
        counts = [den // k + (i < den % k) for i in range(k)]
        for _ in range(rng.randint(1, 4)):
            i, j = rng.sample(range(k), 2)
            shift = min(rng.randint(1, 3), counts[i])
            counts[i] -= shift
            counts[j] += shift
    else:
        cuts = sorted(rng.randint(0, den) for _ in range(k - 1))
        counts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    return {r: Fraction(n, den) for r, n in zip(domain, counts) if n}


def _request(index: int, rng: random.Random, path: Path) -> Op:
    verb = VERBS[index % 4]
    rule = RULES[index // 4 % 4]
    domain_text = rng.choice(DOMAINS)
    domain = oracle.parse_domain(domain_text)
    weights = _profile(rng, domain, near_tie=index // 16 % 2 == 1)
    text = f"domain: {domain_text}\n" + "".join(
        f"{w.numerator}/{w.denominator} {oracle.rank_text(r)}\n" for r, w in weights.items())
    if verb == "margins":
        argv = ("margins", "--format", "record", str(path))
        lines = tuple(f"margin={a},{b} value={v}"
                      for (a, b), v in sorted(oracle.margins(weights).items()))
        return Op(f"q{index}", argv, text, frozenset({0}), lines)
    if verb == "evaluate":
        argv = ("evaluate", "--rule", rule, "--format", "record", str(path))
        tied = oracle.tie_set(rule, weights)
        winner = next(iter(tied)) if len(tied) == 1 else "-"
        line = f"outcome rule={rule} winner={winner} tie={{{','.join(sorted(tied))}}}"
        return Op(f"q{index}", argv, text, frozenset({0}), (line,))
    if verb == "audit":
        argv = ("audit", "--rule", rule, "--axioms", "P,A,N,IIA", "--format", "record",
                str(path))
        verdicts = oracle.audit_verdicts(rule, weights)
        lines = (f"axiom=P verdict={verdicts['P']}", "axiom=A verdict=satisfied",
                 *["axiom=N verdict=satisfied"] * 6, f"axiom=IIA verdict={verdicts['IIA']}")
        violated = "violated" in verdicts.values()
        return Op(f"q{index}", argv, text, frozenset({1 if violated else 0}), lines)
    argv = ("manipulate", "--rule", rule, "--epsilon", EPSILON, "--format", "record",
            str(path))
    generic = oracle.winner(rule, weights) is not None
    # A nongeneric base profile is outside the question: the CLI must refuse it.
    return Op(f"q{index}", argv, text, frozenset({0, 1} if generic else {2}), None)


def ops(seed: int):
    rng = random.Random(f"queries/{seed}")
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=Path(__file__).resolve().parent))
    try:
        index = 0
        while True:
            path = work / f"q{index}.profile"
            op = _request(index, rng, path)
            path.write_text(op.text, encoding="utf-8")
            yield op
            path.unlink()
            index += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def execute(op: Op):
    return cli.run(list(op.argv))


def check(op: Op, output) -> str | None:
    code, text = output
    if code not in op.codes:
        return f"{op.key} {' '.join(op.argv[:-1])}: exit {code}, expected {sorted(op.codes)}"
    if op.lines is not None:
        got = tuple(ln for ln in text.splitlines()
                    if ln.startswith(("outcome ", "margin=", "axiom=")))
        if got != op.lines:
            return f"{op.key}: printed {got}, expected {op.lines}"
    if op.argv[0] != "manipulate":
        return None
    if code == 2:
        return None if text.startswith("error: not applicable") else f"{op.key}: {text!r}"
    if code == 0:
        return None if text.startswith("no witness at this resolution") else f"{op.key}: {text!r}"
    return _witness_problem(op, text)


def _witness_problem(op: Op, text: str) -> str | None:
    """Re-verify a printed witness with the oracle and with the library."""
    rule_name, epsilon = op.argv[2], Fraction(EPSILON)
    domain, weights, moves, old, new = oracle.parse_witness(text)
    if (domain, weights) != oracle.parse_profile(op.text):
        return f"{op.key}: witness base profile is not the request's profile"
    if not oracle.witness_holds(rule_name, weights, domain, moves, old, new, epsilon):
        return f"{op.key}: witness fails the independent recomputation"
    witness = manipulation.ManipulationWitness(
        core.parse_profile(op.text),
        tuple((core.Ranking(s), core.Ranking(d), a) for s, d, a in moves),
        old, new, epsilon)
    if not manipulation.verify_witness(rules.parse_rule(rule_name), witness):
        return f"{op.key}: witness fails verify_witness"
    return None


def digest_line(op: Op, output) -> str:
    code, text = output
    return f"{' '.join(op.argv[:-1])}\n{op.text}exit {code}\n{text}"


def perturb(op: Op) -> Op:
    return replace(op, codes=frozenset({0, 1, 2}) - op.codes)

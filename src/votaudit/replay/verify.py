"""Exact verification of catalog scenarios.

`verify_scenario` re-derives, at a concrete rational parameter point: profile
validity, every weight identity, every misreport step (the transfer must
reproduce its target profile exactly, with coalition mass positive and
strictly below epsilon, and every mover strictly gaining), domination claims,
and agreement of named rules with asserted winners.  `verify_induction_chain`
additionally unrolls the scenario's induction chains profile by profile,
checking every chain misreport (affine level, descent level, final descent
step) with `_misreport`.  Both call the scenario's compiled expressions
directly; no text is parsed.

Reports list one pass/fail line per check; a failing precondition raises
`PreconditionViolation` instead, naming the inequality: the first one broken,
as each is checked once the defs it reads are bound.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from ..axioms import _dominations
from ..core import (Profile, ProfileError, Ranking, as_fraction, permute_profile,
                    transfer_weight)
from ..rules import evaluate
from .expressions import ExpressionError
from .model import (
    AffineChain,
    DescentChain,
    Scenario,
    expand_winner_spec,
)

Env = dict[str, Fraction]


class PreconditionViolation(ValueError):
    def __init__(self, scenario_id: str, inequality: str, env: Mapping[str, Fraction]):
        self.inequality = inequality
        shown = {k: str(v) for k, v in env.items()}
        super().__init__(f"scenario {scenario_id}: precondition {inequality!r} fails at {shown}")


class TemplateError(ValueError):
    """A profile template does not instantiate to a valid profile."""


@dataclass(frozen=True)
class ScenarioParams:
    """A concrete rational assignment to a scenario's named parameters (plus epsilon).

    Values are made `Fraction`s here, by `core.as_fraction` (floats are
    refused), so the environments built from them are exact as they stand.
    """

    values: tuple[tuple[str, Fraction], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple((k, as_fraction(v)) for k, v in self.values))

    @classmethod
    def of(cls, **values) -> "ScenarioParams":
        return cls(tuple(sorted(values.items())))

    def as_dict(self) -> Env:
        return dict(self.values)

    def __str__(self) -> str:
        return ", ".join(f"{k}={v}" for k, v in self.values)


@dataclass(frozen=True)
class CheckResult:
    label: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        suffix = f"  ({self.detail})" if self.detail and not self.ok else ""
        return f"{status}  {self.label}{suffix}"


@dataclass(frozen=True)
class ScenarioReport:
    scenario_id: str
    params: ScenarioParams
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.results)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if not r.ok)

    def text(self) -> str:
        header = f"scenario {self.scenario_id} at {self.params}"
        return "\n".join([header] + ["  " + r.line() for r in self.results])


def epsilon_partition(quantity: Fraction, epsilon: Fraction) -> int:
    """The unique n >= 0 with n*epsilon <= quantity < (n+1)*epsilon; both exact (no floats)."""
    quantity, epsilon = as_fraction(quantity), as_fraction(epsilon)
    if quantity < 0:
        raise ValueError("quantity must be nonnegative")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return int(quantity // epsilon)


def _derive(scenario: Scenario, env: Env) -> str | None:
    """Add the derived quantities to `env`, checking each precondition once its names
    are bound; return the first precondition that fails or def that has no value."""
    for name, expr in scenario.derivation:
        if name is None:
            if not expr(env):
                return str(expr)
            continue
        try:
            env[name] = expr(env)
        except ExpressionError as exc:
            return f"def {name} = {expr}: {exc}"
    return None


def build_env(scenario: Scenario, params: ScenarioParams) -> Env:
    """Parameter values plus derived quantities, then precondition checks."""
    env = params.as_dict()
    missing = (set(scenario.params) | {"epsilon"}) - set(env)
    if missing:
        raise ValueError(f"scenario {scenario.id}: missing parameters {sorted(missing)}")
    if env.get("epsilon", Fraction(0)) <= 0:
        raise PreconditionViolation(scenario.id, "epsilon > 0", env)
    failed = _derive(scenario, env)
    if failed is not None:
        raise PreconditionViolation(scenario.id, failed, env)
    return env


def instantiate(template, env: Env, domain, label: str) -> Profile:
    """The template's profile at `env`, checked as `Profile` checks it, on integer counts."""
    values = []
    for r, expr in template:
        n, d = expr.ratio(env)
        if n < 0:
            raise TemplateError(f"{label}: weight of {r} is negative ({Fraction(n, d)})")
        if n and r not in domain:  # the catalog loader rules this out
            raise ProfileError(f"ranking {r} has positive weight but is outside the domain")
        values.append((r.slot, n, d))
    den = math.lcm(*(d for _, _, d in values))
    counts: dict[int, int] = {}
    for slot, n, d in values:
        counts[slot] = counts.get(slot, 0) + n * (den // d)
    total = sum(counts.values())
    if total != den:
        raise TemplateError(f"{label}: weights sum to {Fraction(total, den)}, expected 1")
    return Profile._trusted(domain, den, counts.items())


def _build(scenario: Scenario, params: ScenarioParams):
    """The environment, the named profiles that instantiate, and one validity check per profile."""
    env = build_env(scenario, params)
    profiles: dict[str, Profile] = {}
    results: list[CheckResult] = []
    for name, template in scenario.profiles:
        label = f"profile {name} is valid (weights >= 0, sum 1)"
        try:
            profiles[name] = instantiate(template, env, scenario.domain, name)
            results.append(CheckResult(label, True))
        except TemplateError as exc:
            results.append(CheckResult(label, False, str(exc)))
    return env, profiles, results


def _improvement_results(moves, improvement, label: str) -> list[CheckResult]:
    """Every mover must strictly prefer every possible new winner to every possible old one."""
    old_set = expand_winner_spec(improvement[0])
    new_set = expand_winner_spec(improvement[1])
    results = []
    for src, _dst, amount in moves:
        if amount == 0:
            continue  # a zero-mass block contributes no coalition members
        ok = all(src.prefers(new, old) for old in old_set for new in new_set)
        results.append(CheckResult(
            f"{label}: movers with true ranking {src} gain "
            f"({improvement[1]} over {improvement[0]})",
            ok,
            "" if ok else f"{src} does not prefer some of {sorted(new_set)} "
                          f"over some of {sorted(old_set)}",
        ))
    return results


def _size_detail(size: Fraction, eps: Fraction) -> str:
    """"" when 0 < size < eps, else why not: a coalition of mass 0 changes nothing."""
    if 0 < size < eps:
        return ""
    return "empty coalition" if size == 0 else f"size {size} vs epsilon {eps}"


def _misreport(before: Profile, moves, after: Profile, eps: Fraction) -> tuple[str, str]:
    """Two details, "" where the claim holds: why `moves` do not carry `before` to `after`
    (`transfer_weight`'s error, or a mismatch), and `_size_detail` of the mass moved."""
    try:
        moved, size = transfer_weight(before, moves)
    except ValueError as exc:
        return str(exc), _size_detail(sum((amount for _, _, amount in moves), Fraction(0)), eps)
    return "" if moved == after else "transfer does not reproduce the next profile", \
        _size_detail(size, eps)


def _transfer_results(eps: Fraction, from_profile: Profile, moves, to_profile: Profile,
                      label: str) -> list[CheckResult]:
    try:
        moved, size = transfer_weight(from_profile, moves)
    except ValueError as exc:
        return [CheckResult(f"{label}: moves are feasible", False, str(exc))]
    size_detail = _size_detail(size, eps)
    return [CheckResult(
        f"{label}: misreport reproduces the target profile exactly",
        moved == to_profile,
        "" if moved == to_profile else f"got {dict(moved.weights)!r}",
    ), CheckResult(f"{label}: coalition size {size} < epsilon", not size_detail, size_detail)]


def _domination_result(profile: Profile, alt: str, label: str) -> CheckResult:
    dominated = any(b == alt for _, b in _dominations(profile))
    return CheckResult(
        f"{label}: {alt} is unanimously dominated (cannot win under P)",
        dominated,
        "" if dominated else f"no alternative beats {alt} on every support ranking",
    )


def _scenario_results(scenario: Scenario, env: Env, profiles: dict[str, Profile],
                      results: list[CheckResult]) -> list[CheckResult]:
    """Append identity, inequality, rule, domination, renaming and step checks to `results`."""
    for lhs, rhs in scenario.identities:
        left, right = lhs(env), rhs(env)
        results.append(CheckResult(
            f"identity {lhs} == {rhs}",
            left == right,
            "" if left == right else f"{left} != {right}",
        ))
    for predicate in scenario.checks:
        results.append(CheckResult(f"inequality {predicate}", predicate(env)))
    for name, rule, winner in scenario.rule_checks:
        if name not in profiles:
            continue
        outcome = evaluate(rule, profiles[name])
        ok = outcome.winner == winner
        results.append(CheckResult(
            f"{rule} elects {winner} on {name}",
            ok,
            "" if ok else f"got {outcome}",
        ))
    for name, alt in scenario.pareto_excluded:
        if name in profiles:
            results.append(_domination_result(profiles[name], alt, f"profile {name}"))
    hypotheses = dict(scenario.hypotheses)
    for link in scenario.perm_links:
        if link.source not in profiles or link.target not in profiles:
            continue
        perm = link.perm
        image, target = permute_profile(profiles[link.source], perm), profiles[link.target]
        ok = (image.den, image.counts) == (target.den, target.counts)  # the domains may differ
        results.append(CheckResult(
            f"renaming {perm} carries {link.source} to {link.target}",
            ok,
            "" if ok else "permuted weights differ",
        ))
        hyp_src, hyp_dst = hypotheses.get(link.source), hypotheses.get(link.target)
        if hyp_src is not None and hyp_dst is not None and not hyp_src.startswith("not:"):
            ok = perm(hyp_src) == hyp_dst
            results.append(CheckResult(
                f"renaming {perm} carries winner {hyp_src} to {hyp_dst}",
                ok,
                "" if ok else f"expected {perm(hyp_src)}",
            ))
    for i, step in enumerate(scenario.steps, 1):
        label = f"step {i} ({step.from_profile} -> {step.to_profile})"
        if step.from_profile not in profiles or step.to_profile not in profiles:
            results.append(CheckResult(label, False, "profile failed to instantiate"))
            continue
        moves = [(src, dst, amount(env)) for src, dst, amount in step.moves]
        results.extend(_transfer_results(
            env["epsilon"], profiles[step.from_profile], moves,
            profiles[step.to_profile], label,
        ))
        results.extend(_improvement_results(moves, step.improvement, label))
    return results


def verify_scenario(scenario: Scenario, params: ScenarioParams) -> ScenarioReport:
    """Check templates, identities, inequalities, rule agreements, and misreport steps."""
    env, profiles, results = _build(scenario, params)
    return ScenarioReport(scenario.id, params,
                          tuple(_scenario_results(scenario, env, profiles, results)))


def _affine_chain_results(scenario, chain: AffineChain, env: Env,
                          profiles: dict[str, Profile]) -> list[CheckResult]:
    results: list[CheckResult] = []
    count_value = env.get(chain.count)
    if count_value is None or count_value.denominator != 1 or count_value < 0:
        return [CheckResult(f"chain count {chain.count} is a nonnegative integer", False,
                            f"got {count_value}")]
    count = int(count_value)
    results.append(CheckResult(
        f"chain count {chain.count} = {count} is a nonnegative integer", True))
    levels: list[Profile] = []
    for j in range(count + 1):
        level_env = dict(env)
        level_env[chain.index] = Fraction(j)
        try:
            levels.append(instantiate(chain.weights, level_env, scenario.domain,
                                      f"chain level {j}"))
        except TemplateError as exc:
            results.append(CheckResult(f"chain level {j} is a valid profile", False, str(exc)))
            return results
    results.append(CheckResult(f"all {count + 1} chain profiles are valid", True))
    results.append(CheckResult(f"chain level 0 equals profile {chain.first}",
                               levels[0] == profiles[chain.first]))
    results.append(CheckResult(f"chain level {count} equals profile {chain.last} "
                               "(relabeled weights)", levels[count] == profiles[chain.last]))
    eps = env["epsilon"]
    moves = [(src, dst, amount(env)) for src, dst, amount in chain.moves]
    details = ("", "")  # (transfer, size) at the first level where either fails
    for j in range(count):
        src, dst = (levels[j + 1], levels[j]) if chain.direction == "down" \
            else (levels[j], levels[j + 1])
        found = _misreport(src, moves, dst, eps)
        if any(found):
            details = tuple(f"level {j}: {d}" if d else "" for d in found)
            break
    for label, detail in zip(("consecutive chain profiles differ by exactly the per-step moves",
                              "every chain step has coalition size < epsilon"), details):
        results.append(CheckResult(label, not detail, detail))
    results.extend(_improvement_results(moves, chain.improvement, "chain step"))
    if chain.pareto_excluded is not None:
        dominated_everywhere = all(
            _domination_result(level, chain.pareto_excluded, "").ok for level in levels
        )
        results.append(CheckResult(
            f"{chain.pareto_excluded} is unanimously dominated at every chain level",
            dominated_everywhere))
    return results


def _descent_chain_results(scenario, chain: DescentChain, env: Env,
                           profiles: dict[str, Profile]) -> list[CheckResult]:
    results: list[CheckResult] = []
    eps = env["epsilon"]
    fixed = {r: e(env) for r, e in chain.fixed}
    components = {r: e(env) for r, e in chain.components}

    def level_profile(comps: dict[Ranking, Fraction], label: str) -> Profile:
        weights = dict(fixed)
        weights.update(comps)
        absorbed = 1 - sum(weights.values(), Fraction(0))
        if absorbed < 0:
            raise TemplateError(f"{label}: component mass exceeds the available weight")
        weights[chain.absorber] = weights.get(chain.absorber, Fraction(0)) + absorbed
        return Profile(weights, scenario.domain)

    try:
        current = level_profile(components, "descent level 0")
    except ValueError as exc:
        return [CheckResult("descent level 0 is a valid profile", False, str(exc))]
    results.append(CheckResult(f"descent level 0 equals profile {chain.base}",
                               current == profiles[chain.base]))
    window = epsilon_partition(sum(components.values(), Fraction(0)), eps)
    level, comps, ok, detail = 0, components, True, ""
    while window >= 1 and ok:
        factor = Fraction(window, window + 1)
        next_comps = {r: v * factor for r, v in comps.items()}
        try:
            nxt = level_profile(next_comps, f"descent level {level + 1}")
        except ValueError as exc:
            ok, detail = False, f"level {level + 1}: {exc}"
            break
        moves = [(chain.absorber, r, comps[r] - next_comps[r]) for r in comps]
        found = "; ".join(filter(None, _misreport(nxt, moves, current, eps)))
        if found:
            ok, detail = False, f"level {level + 1}: {found}"
            break
        next_window = epsilon_partition(sum(next_comps.values(), Fraction(0)), eps)
        if next_window != window - 1:
            ok, detail = False, (
                f"window index went {window} -> {next_window}, expected {window - 1}")
            break
        comps, current, window = next_comps, nxt, next_window
        level += 1
    results.append(CheckResult(
        f"descent of {level} level(s): each rebuilds the previous profile with "
        "coalition mass < epsilon and drops the window index by one",
        ok, detail))
    pair = profiles[chain.pair]
    expected_pair = level_profile({r: Fraction(0) for r in comps}, "pair")
    results.append(CheckResult(
        f"profile {chain.pair} equals the terminal shape with all component mass absorbed",
        pair == expected_pair))
    final_moves = [(chain.absorber, r, v) for r, v in comps.items()]
    detail = "; ".join(filter(None, _misreport(pair, final_moves, current, eps)))
    results.append(CheckResult(
        f"final misreport from {chain.pair} rebuilds the terminal profile with size < epsilon",
        not detail, detail))
    results.extend(_improvement_results(final_moves, chain.improvement, "descent step"))
    return results


def _chain_results(scenario: Scenario, env: Env,
                   profiles: dict[str, Profile]) -> list[CheckResult]:
    results: list[CheckResult] = []
    if not scenario.chains:
        results.append(CheckResult("scenario declares no induction chain", True))
    for chain in scenario.chains:
        if isinstance(chain, AffineChain):
            anchors, check = (chain.first, chain.last), _affine_chain_results
        else:
            anchors, check = (chain.base, chain.pair), _descent_chain_results
        if not all(name in profiles for name in anchors):
            results.append(CheckResult(f"chain ({anchors[0]} -> {anchors[1]})", False,
                                       "profile failed to instantiate"))
            continue
        results.extend(check(scenario, chain, env, profiles))
    return results


def verify_induction_chain(scenario: Scenario, params: ScenarioParams) -> ScenarioReport:
    """Unroll and check every induction chain declared by the scenario."""
    env, profiles, _ = _build(scenario, params)
    return ScenarioReport(scenario.id, params, tuple(_chain_results(scenario, env, profiles)))


def verify_full(scenario: Scenario, params: ScenarioParams) -> ScenarioReport:
    """verify_scenario plus verify_induction_chain, as one report."""
    env, profiles, results = _build(scenario, params)
    _scenario_results(scenario, env, profiles, results)
    if scenario.chains:
        results.extend(_chain_results(scenario, env, profiles))
    return ScenarioReport(scenario.id, params, tuple(results))


#: `sample_params` keeps denominators small so the exact arithmetic stays fast.
_MAX_DENOMINATOR, _MAX_TRIES = 1000, 20000


def sample_params(scenario: Scenario, rng: random.Random) -> ScenarioParams:
    """Draw a random rational parameter point satisfying the scenario's preconditions.

    Uses the scenario's sampling hints (ordered ranges over every parameter
    and epsilon, bounds may reference earlier variables) with rejection
    against the full precondition list.
    """
    for _ in range(_MAX_TRIES):
        env: Env = {}
        for var, low, high in scenario.sample:
            (lo_n, lo_d), (hi_n, hi_d) = low.ratio(env), high.ratio(env)
            if hi_n * lo_d < lo_n * hi_d:
                break
            den = rng.randint(16, _MAX_DENOMINATOR)
            lo_num = -(-lo_n * den // lo_d)  # ceil(lo * den)
            hi_num = hi_n * den // hi_d  # floor(hi * den)
            if hi_num < lo_num:
                break
            env[var] = Fraction(rng.randint(lo_num, hi_num), den)
        else:  # every variable drawn
            params = ScenarioParams(tuple(sorted(env.items())))
            if env["epsilon"] > 0 and _derive(scenario, env) is None:
                return params
    raise RuntimeError(f"could not sample parameters for scenario {scenario.id}")

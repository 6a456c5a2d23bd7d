"""Exact verification of catalog scenarios.

`verify_full` re-derives, at a concrete rational parameter point, every claim
a scenario makes: profile validity, weight identities, inequalities, rule
agreements, domination, renamings, misreport steps and induction chains;
`verify_scenario` and `verify_induction_chain` are its halves.  One judgement,
`_misreport`, checks every misreport, a step's or a chain level's: the transfer
reproduces the next profile exactly, with coalition mass in (0, epsilon).
One walker, `_walk`, checks both kinds of induction chain in O(log count) levels: it
asks levels 0, 1, count-1 and count, and bisects back from the first that fails to the
first failing level.  That is sound as the levels are affine in the index: a descent's
in closed form, an affine chain's as each weight is stated as base + j*step.
`instantiate` builds every profile through `core.Profile._checked` and returns
it, or the text that says why the weights make none, as `_misreport` says why a
misreport fails; no text is parsed.

Reports list one pass/fail line per check, and a construction that fails
(a level or shape that is no profile, a negative mass) is a FAIL line, never
an exception; only a failing precondition raises `PreconditionViolation`,
naming the inequality: the first one broken, as each is checked once the defs
it reads are bound.
"""

from __future__ import annotations

import bisect
import functools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from ..axioms import _dominations
from ..core import Profile, ProfileError, as_fraction, permute_profile, transfer_weight
from ..rules import evaluate
from .expressions import ExpressionError
from .model import AffineChain, DescentChain, Scenario, expand_winner_spec

Env = dict[str, Fraction]


class PreconditionViolation(ValueError):
    def __init__(self, scenario_id: str, inequality: str, env: Mapping[str, Fraction]):
        self.inequality = inequality
        shown = {k: str(v) for k, v in env.items()}
        super().__init__(f"scenario {scenario_id}: precondition {inequality!r} fails at {shown}")


@dataclass(frozen=True)
class ScenarioParams:
    """A concrete rational assignment to a scenario's named parameters (plus epsilon).

    Values are made `Fraction`s here, by `core.as_fraction` (floats are
    refused), so the environments built from them are exact as they stand.
    `derived` is the scenario `sample_params` drew the values for and the
    environment it derived there, which `build_env` hands on for that scenario
    alone: no constructor or `dataclasses.replace` sets it, and equality, hashing
    and the text ignore it.
    """

    values: tuple[tuple[str, Fraction], ...]
    derived: tuple[Scenario, Env] | None = field(init=False, default=None, compare=False,
                                                 repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple((k, as_fraction(v)) for k, v in self.values))

    @classmethod
    def of(cls, **values) -> "ScenarioParams":
        return cls(tuple(sorted(values.items())))

    def __str__(self) -> str:
        return ", ".join(f"{k}={v}" for k, v in self.values)


@dataclass(frozen=True)
class CheckResult:
    label: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        suffix = f"  ({self.detail})" if self.detail and not self.ok else ""
        return f"{'pass' if self.ok else 'FAIL'}  {self.label}{suffix}"


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
    """The sampled variables' values and the derived quantities, as `_derive` checks them
    (``epsilon > 0`` first); a copy of what `sample_params` derived, if it drew `params` here."""
    if params.derived is not None and params.derived[0] is scenario:
        return dict(params.derived[1])
    env = dict(params.values)
    if missing := {var for var, _, _ in scenario.sample} - set(env):
        raise ValueError(f"scenario {scenario.id}: missing parameters {sorted(missing)}")
    if (failed := _derive(scenario, env)) is not None:
        raise PreconditionViolation(scenario.id, failed, env)
    return env


def instantiate(domain, weights) -> Profile | str:
    """The profile of the `(ranking, n, d)` weights, as `Profile._checked` builds and
    checks it, or the `ProfileError` text that says why they make none."""
    try:
        return Profile._checked(domain, weights)
    except ProfileError as exc:
        return str(exc)


def _build(scenario: Scenario, params: ScenarioParams):
    """The environment, the named profiles that instantiate, and one validity check per profile."""
    env = build_env(scenario, params)
    built = {name: instantiate(scenario.domain, [(r, *e.ratio(env)) for r, e in template])
             for name, template in scenario.profiles}
    profiles = {name: p for name, p in built.items() if not isinstance(p, str)}
    results = [CheckResult(f"profile {name} is valid (weights >= 0, sum 1)", name in profiles,
                           "" if name in profiles else f"{name}: {p}") for name, p in built.items()]
    return env, profiles, results


def _improvement_results(moves, improvement, label: str):
    """Every mover must strictly prefer every possible new winner to every possible old one."""
    old, new = improvement
    old_set, new_set = expand_winner_spec(old), expand_winner_spec(new)
    for src, _dst, amount in moves:
        if amount != 0:  # a zero-mass block contributes no coalition members
            ok = all(src.prefers(b, a) for a in old_set for b in new_set)
            yield CheckResult(
                f"{label}: movers with true ranking {src} gain ({new} over {old})", ok,
                "" if ok else f"{src} does not prefer some of {sorted(new_set)} "
                              f"over some of {sorted(old_set)}")


def _misreport(before: Profile, moves, after: Profile, eps: Fraction) -> tuple[str, str, Fraction]:
    """Why `moves` do not carry `before` to `after` (`transfer_weight`'s error, or a mismatch)
    and why the mass moved is not in (0, eps), each "" where its claim holds; and that mass
    (the sum of the amounts when the transfer fails).  A coalition of mass 0 changes nothing."""
    try:
        moved, size = transfer_weight(before, moves)
        transfer = "" if moved == after else "transfer does not reproduce the next profile"
    except ValueError as exc:
        transfer, size = str(exc), sum((amount for _, _, amount in moves), Fraction(0))
    if 0 < size < eps:
        return transfer, "", size
    return transfer, "empty coalition" if size == 0 else f"size {size} vs epsilon {eps}", size


def _dominated(profile: Profile, alt: str) -> bool:
    """Some alternative beats `alt` on every ranking `profile` supports."""
    return any(b == alt for _, b in _dominations(profile))


def _scenario_results(scenario: Scenario, env: Env, profiles: dict[str, Profile]):
    """Identity, inequality, rule, domination, renaming and step checks."""
    for lhs, rhs in scenario.identities:
        left, right = lhs(env), rhs(env)
        yield CheckResult(f"identity {lhs} == {rhs}", left == right,
                          "" if left == right else f"{left} != {right}")
    for predicate in scenario.checks:
        yield CheckResult(f"inequality {predicate}", predicate(env))
    for name, rule, winner in scenario.rule_checks:
        if name not in profiles:
            continue
        outcome = evaluate(rule, profiles[name])
        ok = outcome.winner == winner
        yield CheckResult(f"{rule} elects {winner} on {name}", ok, "" if ok else f"got {outcome}")
    for name, alt in scenario.pareto_excluded:
        if name in profiles:
            ok = _dominated(profiles[name], alt)
            yield CheckResult(
                f"profile {name}: {alt} is unanimously dominated (cannot win under P)", ok,
                "" if ok else f"no alternative beats {alt} on every support ranking")
    hypotheses = dict(scenario.hypotheses)
    for link in scenario.perm_links:
        if link.source not in profiles or link.target not in profiles:
            continue
        perm = link.perm
        image, target = permute_profile(profiles[link.source], perm), profiles[link.target]
        ok = (image.den, image.counts) == (target.den, target.counts)  # the domains may differ
        yield CheckResult(f"renaming {perm} carries {link.source} to {link.target}", ok,
                          "" if ok else "permuted weights differ")
        hyp_src, hyp_dst = hypotheses.get(link.source), hypotheses.get(link.target)
        if hyp_src is not None and hyp_dst is not None and len(expand_winner_spec(hyp_src)) == 1:
            ok = perm(hyp_src) == hyp_dst
            yield CheckResult(f"renaming {perm} carries winner {hyp_src} to {hyp_dst}", ok,
                              "" if ok else f"expected {perm(hyp_src)}")
    for i, step in enumerate(scenario.steps, 1):
        label = f"step {i} ({step.from_profile} -> {step.to_profile})"
        if step.from_profile not in profiles or step.to_profile not in profiles:
            yield CheckResult(label, False, "profile failed to instantiate")
            continue
        moves = [(src, dst, amount(env)) for src, dst, amount in step.moves]
        transfer, small, size = _misreport(profiles[step.from_profile], moves,
                                           profiles[step.to_profile], env["epsilon"])
        yield CheckResult(f"{label}: misreport reproduces the target profile exactly",
                          not transfer, transfer)
        yield CheckResult(f"{label}: coalition size {size} < epsilon", not small, small)
        yield from _improvement_results(moves, step.improvement, label)


def verify_scenario(scenario: Scenario, params: ScenarioParams) -> ScenarioReport:
    """Check templates, identities, inequalities, rule agreements, Pareto exclusions,
    renamings (of profiles and of hypothesised winners) and misreport steps."""
    env, profiles, results = _build(scenario, params)
    results.extend(_scenario_results(scenario, env, profiles))
    return ScenarioReport(scenario.id, params, tuple(results))


def _walk(count: int, level, moves, eps: Fraction, claim, *, down: bool):
    """The first failure of each kind as `(j, why)`, or None: level j is no profile
    (`level(j)`'s text), the step between levels j-1 and j fails `_misreport` (its
    transfer and size texts), or level j fails `claim(j)` (the truthy answer); steps
    and claims are asked only up to `top`, the last level below the first invalid one.

    The levels are affine in j (an affine chain states each weight as base + j*step,
    and a descent's closed form is affine too), so each kind is an affine inequality
    or identity in j, a conjunction of such, or depends only on the support:
    - each ranking's weight and the weights' sum are affine, so levels 0 and count
      being profiles makes every level one;
    - level(j+1) - level(j) is constant, so every step or none reproduces its target;
    - each source's held mass is affine, so its cap holds at every "before" level
      once it holds at those of the steps into levels 1 and top;
    - the size is the sum of the amounts, the same at every step;
    - a weight 0 at both ends is 0 throughout, else positive inside, so every interior
      level has level 1's support, on which alone domination depends;
    - a descent's window claim is affine too (`_descent_chain_results`).
    Claims are asked at the levels those steps read, 0, 1, top-1 and top.  A kind that
    holds at one level asked and fails at the next fails on a suffix of the levels
    between, where `bisect` finds the first failing one: O(log count) levels in all.
    """
    def first(why, ends):  # the first level at which `why` is truthy, and its answer
        low = min(ends, default=0)  # the first level not known to pass
        for end in ends:
            if why(end):  # so a suffix of [low, end] fails
                end = bisect.bisect_left(range(end), True, low, key=lambda j: bool(why(j)))
                return end, why(end)
            low = end + 1
        return None

    def step(j: int):
        before, after = (level(j), level(j - 1)) if down else (level(j - 1), level(j))
        found = _misreport(before, moves, after, eps)[:2]
        return found if any(found) else None

    invalid = first(lambda j: level(j) if isinstance(level(j), str) else "", [0, count])
    top = count if invalid is None else invalid[0] - 1
    ends = sorted({0, min(1, top), max(top - 1, 0), top}) if top >= 0 else []
    return invalid, first(step, sorted({1, top}) if top > 0 else []), first(claim, ends)


def _affine_chain_results(scenario, chain: AffineChain, env: Env, profiles: dict[str, Profile]):
    count_value = env[chain.count]  # the catalog loader admits only a parameter or a def
    if count_value.denominator != 1 or count_value < 0:
        yield CheckResult(f"chain count {chain.count} is a nonnegative integer", False,
                          f"got {count_value}")
        return
    count = int(count_value)
    yield CheckResult(f"chain count {chain.count} = {count} is a nonnegative integer", True)
    moves = [(src, dst, amount(env)) for src, dst, amount in chain.moves]
    excluded = chain.pareto_excluded
    weights = [(r, *base.ratio(env), *step.ratio(env)) for r, (base, step) in chain.weights]

    @functools.cache
    def level(j: int) -> Profile | str:  # base + j*step, as one pair over bd*sd
        return instantiate(scenario.domain, [(r, bn * sd + j * sn * bd, bd * sd)
                                             for r, bn, bd, sn, sd in weights])

    invalid, step, undominated = _walk(
        count, level, moves, env["epsilon"],
        lambda j: excluded is not None and not _dominated(level(j), excluded),
        down=chain.direction == "down")
    if invalid:
        yield CheckResult(f"chain level {invalid[0]} is a valid profile", False,
                          f"chain level {invalid[0]}: {invalid[1]}")
        return
    yield CheckResult(f"all {count + 1} chain profiles are valid", True)
    yield CheckResult(f"chain level 0 equals profile {chain.first}",
                      level(0) == profiles[chain.first])
    yield CheckResult(f"chain level {count} equals profile {chain.last} (relabeled weights)",
                      level(count) == profiles[chain.last])
    details = (f"level {step[0] - 1}: {d}" if d else "" for d in step[1]) if step else ("", "")
    for label, detail in zip(("consecutive chain profiles differ by exactly the per-step moves",
                              "every chain step has coalition size < epsilon"), details):
        yield CheckResult(label, not detail, detail)
    yield from _improvement_results(moves, chain.improvement, "chain step")
    if excluded is not None:
        yield CheckResult(f"{excluded} is unanimously dominated at every chain level",
                          undominated is None)


def _descent_chain_results(scenario, chain: DescentChain, env: Env, profiles: dict[str, Profile]):
    """The descent in closed form, checked by `_walk` like an affine chain.

    With w = epsilon_partition(M, epsilon) for the component mass M, level t scales each
    component by n/(n+1) for n = w, ..., w+1-t, which telescopes to (w+1-t)/(w+1); the
    absorber holds the rest.  So every weight is affine in t, each step moves the constant
    1/(w+1) of each component out of the absorber, and level w+1 is the terminal shape.
    Level t's window index should be k = w - t: with c = M/((w+1)*epsilon) that reads
    k <= c*(k+1) < k+1, affine in k, so `_walk`'s argument covers it too.

    That claim and the step size hold for any M >= 0, so only a wrong `epsilon_partition`
    can fail them: with q = M/epsilon in [w, w+1), level t's index floor(q*(k+1)/(w+1))
    is k, as q*(k+1)/(w+1) lies in [k+1 - (k+1)/(w+1), k+1) and k <= w; and each step
    moves M/(w+1) = epsilon*q/(w+1) < epsilon.
    """
    eps = env["epsilon"]
    fixed = [(r, e(env)) for r, e in chain.fixed]
    components = {r: e(env) for r, e in chain.components}
    mass = sum(components.values(), Fraction(0))  # level 0 can hold a negative component mass
    windows = 0 if mass < 0 else epsilon_partition(mass, eps)
    moves = [(chain.absorber, r, v / (windows + 1)) for r, v in components.items()]

    @functools.cache
    def level(t: int) -> Profile | str:  # w + 1 - t steps' moves on each component
        weights = [*fixed, *((r, amount * (windows + 1 - t)) for _, r, amount in moves)]
        weights.append((chain.absorber, 1 - sum(w for _, w in weights)))
        return instantiate(scenario.domain, [(r, *w.as_integer_ratio()) for r, w in weights])

    def window_index(t: int) -> str:  # "" when level t's is w - t; level 0's is w
        got = epsilon_partition(mass * (windows + 1 - t) / (windows + 1), eps) if t else windows
        return "" if got == windows - t else (
            f"window index went {windows - t + 1} -> {got}, expected {windows - t}")

    invalid, step, window = _walk(windows, level, moves, eps, window_index, down=True)
    if invalid and invalid[0] == 0:
        yield CheckResult("descent level 0 is a valid profile", False, invalid[1])
        return
    yield CheckResult(f"descent level 0 equals profile {chain.base}",
                      level(0) == profiles[chain.base])
    found = [(t, f"level {t}: {why}") for t, why in filter(None, [invalid])]
    found += [(t, f"level {t}: " + "; ".join(filter(None, why))) for t, why in filter(None, [step])]
    found += filter(None, [window])
    reached, detail = windows, f"component mass {mass} is negative" if mass < 0 else ""
    if found:  # the first failing level, and there the first kind the walk judges
        t, detail = min(found, key=lambda failure: failure[0])
        reached = t - 1
    yield CheckResult(
        f"descent of {reached} level(s): each rebuilds the previous profile with "
        "coalition mass < epsilon and drops the window index by one",
        not detail, detail)
    pair, terminal = profiles[chain.pair], level(windows + 1)
    yield CheckResult(
        f"profile {chain.pair} equals the terminal shape with all component mass absorbed",
        pair == terminal, terminal if isinstance(terminal, str) else "")
    final_moves = [(src, r, amount * (windows + 1 - reached)) for src, r, amount in moves]
    detail = "; ".join(filter(None, _misreport(pair, final_moves, level(reached), eps)[:2]))
    yield CheckResult(
        f"final misreport from {chain.pair} rebuilds the terminal profile with size < epsilon",
        not detail, detail)
    yield from _improvement_results(final_moves, chain.improvement, "descent step")


def _chain_results(scenario: Scenario, env: Env, profiles: dict[str, Profile]):
    if not scenario.chains:
        yield CheckResult("scenario declares no induction chain", True)
    for chain in scenario.chains:
        if isinstance(chain, AffineChain):
            anchors, check = (chain.first, chain.last), _affine_chain_results
        else:
            anchors, check = (chain.base, chain.pair), _descent_chain_results
        if not all(name in profiles for name in anchors):
            yield CheckResult(f"chain ({anchors[0]} -> {anchors[1]})", False,
                              "profile failed to instantiate")
            continue
        yield from check(scenario, chain, env, profiles)


def verify_induction_chain(scenario: Scenario, params: ScenarioParams) -> ScenarioReport:
    """Check every induction chain declared by the scenario."""
    env, profiles, _ = _build(scenario, params)
    return ScenarioReport(scenario.id, params, tuple(_chain_results(scenario, env, profiles)))


def verify_full(scenario: Scenario, params: ScenarioParams) -> ScenarioReport:
    """verify_scenario plus verify_induction_chain, as one report."""
    env, profiles, results = _build(scenario, params)
    results.extend(_scenario_results(scenario, env, profiles))
    if scenario.chains:
        results.extend(_chain_results(scenario, env, profiles))
    return ScenarioReport(scenario.id, params, tuple(results))


#: `sample_params` keeps denominators small so the exact arithmetic stays fast.
_MAX_DENOMINATOR, _MAX_TRIES = 1000, 20000


def sample_params(scenario: Scenario, rng: random.Random) -> ScenarioParams:
    """Draw a random rational parameter point satisfying the scenario's preconditions.

    Uses the scenario's sampling hints (ordered ranges over every parameter
    and epsilon, each bound reading only earlier variables) with rejection
    against the full precondition list.  The point carries the environment
    derived to accept it, so `verify_full` of this scenario derives nothing again.
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
            drawn = tuple(sorted(env.items()))
            if _derive(scenario, env) is None:
                params = ScenarioParams(drawn)
                object.__setattr__(params, "derived", (scenario, env))
                return params
    raise RuntimeError(f"could not sample parameters for scenario {scenario.id}")

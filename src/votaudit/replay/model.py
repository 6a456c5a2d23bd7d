"""Scenario records for replaying coalition-misreport constructions.

A scenario is pure data: parameter names, preconditions, named profile
templates, hypothesized evaluations of an abstract rule on those profiles,
misreport steps, exact-identity claims, and optional induction chains.  The
verification engine in `verify.py` re-derives every arithmetic claim with
exact rationals; hypothesized evaluations are scenario data, never computed,
because the rule under analysis is universally quantified.

Scenarios ship as YAML in ``data/`` so every case is auditable as plain text.
The loader validates structure eagerly: unknown profiles, off-domain
rankings, or malformed winner specs fail at load time.  It also compiles
every expression once, so an expression that is malformed, inexact, or reads
a name its scenario does not define fails at load time too, and the verifier
never parses text.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from functools import lru_cache

from ..core import ALTERNATIVES, CandidatePermutation, Domain, Ranking, ranking
from ..rules import BORDA, CONDORCET, PLURALITY, RuleDescriptor
from .expressions import Expr, ExpressionError, compile_expression, compile_predicate

_VALID_GROUPS = ("cycle", "expansion", "rich")

#: The rules a rule check may name, by name.
_RULES = {str(rule): rule for rule in (BORDA, CONDORCET, PLURALITY)}


class CatalogError(ValueError):
    """Raised when a scenario record is structurally invalid."""


def expand_winner_spec(spec: str) -> frozenset[str]:
    """``"x"`` -> {x};  ``"not:x"`` -> {y, z}."""
    if spec.startswith("not:"):
        excluded = spec[len("not:"):]
        if excluded not in ALTERNATIVES:
            raise CatalogError(f"bad winner spec {spec!r}")
        return frozenset(a for a in ALTERNATIVES if a != excluded)
    if spec not in ALTERNATIVES:
        raise CatalogError(f"bad winner spec {spec!r}")
    return frozenset((spec,))


@dataclass(frozen=True)
class MisreportStep:
    """One coalition deviation: applying `moves` to `from_profile` yields `to_profile`."""

    from_profile: str
    to_profile: str
    moves: tuple[tuple[Ranking, Ranking, Expr], ...]  # (true, reported, amount)
    improvement: tuple[str, str]  # (old winner spec, new winner spec)


@dataclass(frozen=True)
class AffineChain:
    """Profiles u^(0..count) whose weights are expressions in the index variable.

    Consecutive profiles differ by the fixed per-step move matrix: applied to
    u^(j+1) when direction is "down" (toward the anchor), to u^(j) when "up".
    """

    index: str
    count: str  # name of a derived integer quantity
    weights: tuple[tuple[Ranking, Expr], ...]
    moves: tuple[tuple[Ranking, Ranking, Expr], ...]
    direction: str  # "down" | "up"
    first: str  # named profile equal to u^(0)
    last: str  # named profile equal to u^(count)
    improvement: tuple[str, str]
    pareto_excluded: str | None = None  # alternative dominated at every level


@dataclass(frozen=True)
class DescentChain:
    """Window-descent induction: shrink component weights by n/(n+1) until the mass bound.

    Level t has component masses scaled by prod n_s/(n_s+1); the absorber
    ranking holds the remainder.  Each level reconstructs the previous one by
    moving the difference back out of the absorber, with coalition mass
    Q_t/(n_t+1) below epsilon, and the window index drops by exactly one.
    The terminal step deviates from the two-column `pair` profile.
    """

    fixed: tuple[tuple[Ranking, Expr], ...]
    components: tuple[tuple[Ranking, Expr], ...]
    absorber: Ranking
    base: str  # named profile equal to level 0
    pair: str  # named profile with all component mass absorbed
    improvement: tuple[str, str]


@dataclass(frozen=True)
class PermLink:
    """Candidate-renaming consequence: permuting `source` gives `target`,
    and the hypothesized winners correspond through the same renaming."""

    source: str
    target: str
    perm: CandidatePermutation


@dataclass(frozen=True)
class Scenario:
    id: str
    group: str
    domain: Domain
    params: tuple[str, ...]
    sample: tuple[tuple[str, Expr, Expr], ...]  # (var, low, high), in order
    assume: tuple[Expr, ...]  # predicates
    defs: tuple[tuple[str, Expr], ...]
    profiles: tuple[tuple[str, tuple[tuple[Ranking, Expr], ...]], ...]
    hypotheses: tuple[tuple[str, str], ...]
    rule_checks: tuple[tuple[str, RuleDescriptor, str], ...]  # (profile, rule, winner)
    pareto_excluded: tuple[tuple[str, str], ...]  # (profile, dominated alternative)
    identities: tuple[tuple[Expr, Expr], ...]
    checks: tuple[Expr, ...]  # predicates
    steps: tuple[MisreportStep, ...]
    chains: tuple[AffineChain | DescentChain, ...]
    perm_links: tuple[PermLink, ...] = ()
    note: str = ""
    #: the defs as (name, expr) and the preconditions as (None, predicate), each
    #: precondition right after the last def it reads: checked once its names are bound
    derivation: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        last = {name: i for i, (name, _) in enumerate(self.defs, 1)}
        steps = [*enumerate(self.defs, 1)] + [
            (max((last.get(n, 0) for n in p.names), default=0), (None, p)) for p in self.assume]
        object.__setattr__(self, "derivation",  # a stable sort keeps defs before their checks
                           tuple(item for _, item in sorted(steps, key=lambda step: step[0])))


def _compiled(compile_fn, text, scope: set[str], where: str) -> Expr:
    """Compile catalog text, admitting only the names in `scope`."""
    try:
        expr = compile_fn(str(text))
    except ExpressionError as exc:
        raise CatalogError(f"{where}: expression {str(text)!r}: {exc}") from None
    for name in sorted(expr.names - scope):
        raise CatalogError(f"{where}: expression {expr.text!r} uses unknown name {name!r}")
    return expr


def _as_moves(raw, domain: Domain, where: str, arith):
    moves = []
    for item in raw:
        if len(item) != 3:
            raise CatalogError(f"{where}: move must be [true, reported, amount]")
        src, dst = ranking(item[0]), ranking(item[1])
        if src not in domain or dst not in domain:
            raise CatalogError(f"{where}: move {src}->{dst} leaves the domain")
        moves.append((src, dst, arith(item[2])))
    return tuple(moves)


def _as_improvement(raw, where: str) -> tuple[str, str]:
    if not (isinstance(raw, list) and len(raw) == 2):
        raise CatalogError(f"{where}: improvement must be [old, new]")
    old, new = str(raw[0]), str(raw[1])
    old_set, new_set = expand_winner_spec(old), expand_winner_spec(new)
    if old_set & new_set:
        raise CatalogError(f"{where}: improvement sets overlap: {raw}")
    if len(old_set) != 1 and len(new_set) != 1:
        raise CatalogError(f"{where}: at least one improvement side must be a single alternative")
    return old, new


def _as_template(raw, domain: Domain, where: str, arith):
    template = []
    for key, text in raw.items():
        r = ranking(str(key))
        if r not in domain:
            raise CatalogError(f"{where}: ranking {r} outside the domain")
        template.append((r, arith(text)))
    return tuple(sorted(template, key=lambda item: item[0]))


def _parse_scenario(raw: dict) -> Scenario:
    """Validate one catalog record and compile every expression in it.

    Sampling bounds may read the parameters and epsilon, defs also the defs
    before them, and every other expression also the affine chains' indices.
    """
    sid = str(raw["id"])
    where = f"scenario {sid}"
    group = raw.get("group", "")
    if group not in _VALID_GROUPS:
        raise CatalogError(f"{where}: group must be one of {_VALID_GROUPS}")
    domain = Domain(tuple(ranking(t) for t in raw["domain"]))
    params = tuple(raw.get("params", ()))
    scope = set(params) | {"epsilon"}

    def arith(text) -> Expr:
        return _compiled(compile_expression, text, scope, where)

    def predicate(text) -> Expr:
        return _compiled(compile_predicate, text, scope, where)

    sample = tuple((var, arith(lo), arith(hi)) for var, lo, hi in raw.get("sample", ()))
    sampled = {var for var, _, _ in sample}
    if sampled != scope:
        raise CatalogError(f"{where}: sampling hints cover {sorted(sampled)}, need {sorted(scope)}")
    defs = []
    for name, text in raw.get("defs", ()):
        defs.append((str(name), arith(text)))
        scope.add(str(name))
    scope |= {str(chain.get("index", "j")) for chain in raw.get("chains", ())
              if chain.get("kind", "affine") == "affine"}

    # "window" holds the case's epsilon-interval preconditions; it is kept as a
    # separate key in the data files for readability but is a precondition.
    assume = tuple(predicate(a) for a in (*raw.get("assume", ()), *raw.get("window", ())))

    profiles = tuple(
        (str(name), _as_template(tmpl, domain, f"{where} profile {name}", arith))
        for name, tmpl in raw.get("profiles", {}).items()
    )
    names = {n for n, _ in profiles}
    if len(names) != len(profiles):
        raise CatalogError(f"{where}: duplicate profile names")

    def known(name: str, context: str) -> str:
        if name not in names:
            raise CatalogError(f"{where}: {context} references unknown profile {name!r}")
        return name

    hypotheses = []
    for name, spec in raw.get("hypotheses", {}).items():
        known(name, "hypothesis")
        expand_winner_spec(str(spec))
        hypotheses.append((str(name), str(spec)))

    rule_checks = []
    for profile, rule_name, winner in raw.get("rule_checks", ()):
        known(profile, "rule check")
        if (rule := _RULES.get(str(rule_name))) is None:
            raise CatalogError(f"{where}: rule check uses unknown rule {rule_name!r}")
        if winner not in ALTERNATIVES:
            raise CatalogError(f"{where}: rule check winner {winner!r}")
        rule_checks.append((profile, rule, winner))

    pareto_excluded = []
    for profile, alt in raw.get("pareto_excluded", ()):
        known(profile, "pareto exclusion")
        if alt not in ALTERNATIVES:
            raise CatalogError(f"{where}: pareto exclusion of unknown alternative {alt!r}")
        pareto_excluded.append((profile, alt))

    identities = tuple((arith(l), arith(r)) for l, r in raw.get("identities", ()))
    checks = tuple(predicate(c) for c in raw.get("checks", ()))

    steps = tuple(
        MisreportStep(
            from_profile=known(step["from"], "step"),
            to_profile=known(step["to"], "step"),
            moves=_as_moves(step["moves"], domain, f"{where} step", arith),
            improvement=_as_improvement(step["improvement"], f"{where} step"),
        )
        for step in raw.get("steps", ())
    )

    chains = []
    for chain in raw.get("chains", ()):
        kind = chain.get("kind", "affine")
        if kind == "affine":
            chains.append(AffineChain(
                index=str(chain.get("index", "j")),
                count=str(chain["count"]),
                weights=_as_template(chain["weights"], domain, f"{where} chain", arith),
                moves=_as_moves(chain["moves"], domain, f"{where} chain", arith),
                direction=str(chain["direction"]),
                first=known(chain["first"], "chain"),
                last=known(chain["last"], "chain"),
                improvement=_as_improvement(chain["improvement"], f"{where} chain"),
                pareto_excluded=chain.get("pareto_excluded"),
            ))
            if chains[-1].direction not in ("down", "up"):
                raise CatalogError(f"{where}: chain direction must be down or up")
        elif kind == "descent":
            chains.append(DescentChain(
                fixed=_as_template(chain.get("fixed", {}), domain, f"{where} descent", arith),
                components=_as_template(chain["components"], domain, f"{where} descent", arith),
                absorber=ranking(str(chain["absorber"])),
                base=known(chain["base"], "descent"),
                pair=known(chain["pair"], "descent"),
                improvement=_as_improvement(chain["improvement"], f"{where} descent"),
            ))
            if chains[-1].absorber not in domain:
                raise CatalogError(f"{where}: absorber outside the domain")
        else:
            raise CatalogError(f"{where}: unknown chain kind {kind!r}")

    perm_links = tuple(
        PermLink(
            source=known(link["source"], "perm link"),
            target=known(link["target"], "perm link"),
            perm=CandidatePermutation.from_mapping(
                {str(k): str(v) for k, v in link["mapping"].items()}),
        )
        for link in raw.get("perm_links", ())
    )

    return Scenario(
        id=sid, group=group, domain=domain, params=params, sample=sample,
        assume=assume, defs=tuple(defs), profiles=profiles, hypotheses=tuple(hypotheses),
        rule_checks=tuple(rule_checks), pareto_excluded=tuple(pareto_excluded),
        identities=identities, checks=checks, steps=steps, chains=tuple(chains),
        perm_links=perm_links, note=str(raw.get("note", "")),
    )


_DATA_FILES = ("cycle_domain.yaml", "expanded_domain.yaml", "rich_domains.yaml")


@lru_cache(maxsize=1)
def scenario_catalog() -> tuple[Scenario, ...]:
    """All scenarios, in catalog file order; ids are unique.

    PyYAML is imported here, on first use, so importing the package (and the
    CLI) does not load it, and libyaml's C parser reads the files when PyYAML
    was built with it: the pure-Python parser leaves about 0.4 MB more of its
    garbage resident.  Both build the same data through the same safe
    constructor.
    """
    import yaml

    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    scenarios: list[Scenario] = []
    package = importlib.resources.files(__package__) / "data"
    for filename in _DATA_FILES:
        text = (package / filename).read_text(encoding="utf-8")
        for raw in yaml.load(text, Loader=loader):
            scenarios.append(_parse_scenario(raw))
    ids = [s.id for s in scenarios]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise CatalogError(f"duplicate scenario ids: {dupes}")
    return tuple(scenarios)


def get_scenario(scenario_id: str) -> Scenario:
    for scenario in scenario_catalog():
        if scenario.id == scenario_id:
            return scenario
    raise KeyError(f"unknown scenario id {scenario_id!r}")


def case_index() -> tuple[tuple[str, str], ...]:
    """The checked-in listing mapping case labels to scenario ids."""
    package = importlib.resources.files(__package__) / "data"
    rows = []
    for line in (package / "case_index.txt").read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        label, sid = (tok.strip() for tok in line.split("->"))
        rows.append((label, sid))
    return tuple(rows)

"""Scenario records for replaying coalition-misreport constructions.

A scenario is pure data: sampling hints, preconditions, named profile
templates, hypothesized evaluations of an abstract rule on those profiles,
misreport steps, exact-identity claims, and optional induction chains.  An
affine chain states each weight that changes along it as ``[base, step]``,
base + j*step at level j, so its levels are affine in the index j by
construction, and no expression reads j.  The verification engine in
`verify.py` re-derives every arithmetic claim with exact rationals;
hypothesized evaluations are scenario data, never computed, because the rule
under analysis is universally quantified.

Scenarios ship as YAML in ``data/`` so every case is auditable as plain text.
The loader validates structure eagerly: missing or unknown keys, unknown
profiles, off-domain rankings, or malformed winner specs fail at load time.
It also compiles every expression once, so an expression that is malformed,
inexact, or reads a name its scenario does not define fails at load time too,
and the verifier never parses text: `expand_winner_spec` keeps each spec's set
after its first reading.  A group is its file's (`_DATA_FILES`), the parameters
are what `sample` draws but epsilon, and the defs and preconditions, ``epsilon > 0`` first,
are kept once, as `Scenario.derivation`, in the order the verifier checks them.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from functools import cache, lru_cache

from ..core import ALTERNATIVES, CandidatePermutation, Domain, Ranking, ranking
from ..rules import _NAMED_RULES, RuleDescriptor
from .expressions import Expr, ExpressionError, compile_expression, compile_predicate

#: The keys each part of a scenario record must hold, and the further keys it
#: may hold.  A missing key fails the load, and so does any other key, so a
#: misspelled key cannot drop its claims unseen.
_KEYS = {part: (tuple(required.split()), frozenset(f"{required} {optional}".split()))
         for part, required, optional in (
    ("scenario", "id domain", "sample assume window defs profiles hypotheses rule_checks "
                              "pareto_excluded identities checks perm_links steps chains note"),
    ("step", "from to moves improvement", ""), ("perm link", "source target mapping", ""),
    ("affine chain", "count weights moves direction first last improvement",
                     "kind pareto_excluded"),
    ("descent chain", "kind components absorber base pair improvement", "fixed"))}


class CatalogError(ValueError):
    """Raised when a scenario record is structurally invalid."""


@cache  # keeps the six specs there are; a refused one raises on every call
def expand_winner_spec(spec: str) -> frozenset[str]:
    """``"x"`` -> {x};  ``"not:x"`` -> {y, z}."""
    named, negated = spec.removeprefix("not:"), spec.startswith("not:")
    if named not in ALTERNATIVES:
        raise CatalogError(f"bad winner spec {spec!r}")
    return frozenset(a for a in ALTERNATIVES if (a == named) != negated)


@dataclass(frozen=True)
class MisreportStep:
    """One coalition deviation: applying `moves` to `from_profile` yields `to_profile`."""

    from_profile: str
    to_profile: str
    moves: tuple[tuple[Ranking, Ranking, Expr], ...]  # (true, reported, amount)
    improvement: tuple[str, str]  # (old winner spec, new winner spec)


@dataclass(frozen=True)
class AffineChain:
    """Profiles u^(0..count) whose weight on each ranking at level j is base + j*step.

    Consecutive profiles differ by the fixed per-step move matrix: applied to
    u^(j+1) when direction is "down" (toward the anchor), to u^(j) when "up".
    """

    count: str  # name of a derived integer quantity
    weights: tuple[tuple[Ranking, tuple[Expr, Expr]], ...]  # (ranking, (base, step))
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
    params: tuple[str, ...]  # the variables `sample` draws, in order, but epsilon
    sample: tuple[tuple[str, Expr, Expr], ...]  # (var, low, high), in draw order
    #: the defs as (name, expr) and the preconditions as (None, predicate), each
    #: precondition right after the last def it reads: checked once its names are bound;
    #: the first is ``epsilon > 0``, which the loader writes into every scenario
    derivation: tuple[tuple[str | None, Expr], ...]
    profiles: tuple[tuple[str, tuple[tuple[Ranking, Expr], ...]], ...]
    hypotheses: tuple[tuple[str, str], ...]
    rule_checks: tuple[tuple[str, RuleDescriptor, str], ...]  # (profile, rule, winner)
    pareto_excluded: tuple[tuple[str, str], ...]  # (profile, dominated alternative)
    identities: tuple[tuple[Expr, Expr], ...]
    checks: tuple[Expr, ...]  # predicates
    steps: tuple[MisreportStep, ...]
    chains: tuple[AffineChain | DescentChain, ...]
    perm_links: tuple[PermLink, ...] = ()


def _compiled(compile_fn, text, scope: set[str], where: str) -> Expr:
    """Compile catalog text, admitting only the names in `scope`."""
    try:
        expr = compile_fn(str(text))
    except ExpressionError as exc:
        raise CatalogError(f"{where}: expression {str(text)!r}: {exc}") from None
    for name in sorted(expr.names - scope):
        raise CatalogError(f"{where}: expression {expr.text!r} uses unknown name {name!r}")
    return expr


def _fields(raw: dict, part: str, where: str) -> dict:
    """`raw`, once it holds every key a `part` must hold and no key it may not."""
    required, allowed = _KEYS[part]
    for key in sorted(set(raw) - allowed, key=str):
        raise CatalogError(f"{where}: unknown {part} key {key!r}")
    for key in required:
        if key not in raw:
            raise CatalogError(f"{where}: missing {part} key {key!r}")
    return raw


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
    if old_set & new_set:  # two pairs of the three meet, so one side is a single one
        raise CatalogError(f"{where}: improvement sets overlap: {raw}")
    return old, new


def _as_template(raw, domain: Domain, where: str, arith):
    template = []
    for key, text in raw.items():
        r = ranking(str(key))
        if r not in domain:
            raise CatalogError(f"{where}: ranking {r} outside the domain")
        template.append((r, arith(text)))
    return tuple(sorted(template, key=lambda item: item[0]))


def _parse_scenario(raw: dict, group: str) -> Scenario:
    """Validate one catalog record of `group` and compile every expression in it.

    The parameters are the variables `sample` draws but epsilon, which it must draw.
    Each variable is drawn once, and each def binds a new name.
    Each sampling bound may read only the variables drawn before it, and every other
    expression all of them and the defs (each def those before it).  An affine chain's
    weight is text, constant along the chain, or `[base, step]`: base + j*step at level j.
    """
    sid = str(raw.get("id", "?"))  # a record without one fails `_fields`
    where = f"scenario {sid}"
    _fields(raw, "scenario", where)
    domain = Domain(tuple(ranking(t) for t in raw["domain"]))
    scope: set[str] = set()

    def arith(text) -> Expr:
        return _compiled(compile_expression, text, scope, where)

    def predicate(text) -> Expr:
        return _compiled(compile_predicate, text, scope, where)

    def affine(value) -> tuple[Expr, Expr]:  # a chain weight's (base, step)
        if not isinstance(value, list):
            return arith(value), arith(0)
        if len(value) != 2:
            raise CatalogError(f"{where} chain: weight must be text or [base, step], not {value}")
        return arith(value[0]), arith(value[1])

    sample = []
    for var, lo, hi in raw.get("sample", ()):
        if var in scope:
            raise CatalogError(f"{where}: sampling hints draw {var!r} twice")
        sample.append((var, arith(lo), arith(hi)))  # the bounds read only earlier draws
        scope.add(var)
    if "epsilon" not in scope:
        raise CatalogError(f"{where}: sampling hints draw no 'epsilon'")
    params = tuple(var for var, _, _ in sample if var != "epsilon")
    defs = []
    for name, text in raw.get("defs", ()):
        name = str(name)
        if name in scope:
            raise CatalogError(f"{where}: def {name!r} rebinds a drawn variable or an earlier def")
        defs.append((name, arith(text)))
        scope.add(name)

    # Every scenario's first precondition is epsilon > 0; "window" holds the case's
    # epsilon-interval ones, kept apart for reading.  The stable sort keeps each def
    # before the preconditions placed right after it.
    assume = map(predicate, ("epsilon > 0", *raw.get("assume", ()), *raw.get("window", ())))
    last = {name: i for i, (name, _) in enumerate(defs, 1)}
    placed = [*enumerate(defs, 1)] + [
        (max((last.get(n, 0) for n in p.names), default=0), (None, p)) for p in assume]
    derivation = tuple(item for _, item in sorted(placed, key=lambda step: step[0]))

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
        if (rule := _NAMED_RULES.get(str(rule_name))) is None:  # no `score:` rule
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
        for step in (_fields(item, "step", where) for item in raw.get("steps", ()))
    )

    chains = []
    for chain in raw.get("chains", ()):
        kind = chain.get("kind", "affine")
        if kind == "affine":
            _fields(chain, "affine chain", where)
            chains.append(AffineChain(
                count=str(chain["count"]),
                weights=_as_template(chain["weights"], domain, f"{where} chain", affine),
                moves=_as_moves(chain["moves"], domain, f"{where} chain", arith),
                direction=str(chain["direction"]),
                first=known(chain["first"], "chain"),
                last=known(chain["last"], "chain"),
                improvement=_as_improvement(chain["improvement"], f"{where} chain"),
                pareto_excluded=chain.get("pareto_excluded"),
            ))
            if chains[-1].direction not in ("down", "up"):
                raise CatalogError(f"{where}: chain direction must be down or up")
            if chains[-1].count not in scope:
                raise CatalogError(f"{where}: chain count uses unknown name {chains[-1].count!r}")
            if chains[-1].pareto_excluded not in (None, *ALTERNATIVES):
                raise CatalogError(f"{where}: chain pareto exclusion of unknown alternative "
                                   f"{chains[-1].pareto_excluded!r}")
        elif kind == "descent":
            _fields(chain, "descent chain", where)
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
        for link in (_fields(item, "perm link", where) for item in raw.get("perm_links", ()))
    )

    return Scenario(
        id=sid, group=group, domain=domain, params=params, sample=tuple(sample),
        derivation=derivation, profiles=profiles, hypotheses=tuple(hypotheses),
        rule_checks=tuple(rule_checks), pareto_excluded=tuple(pareto_excluded),
        identities=identities, checks=checks, steps=steps, chains=tuple(chains),
        perm_links=perm_links,
    )


#: Each catalog file, in load order, and the group of every scenario in it.
_DATA_FILES = (("cycle_domain.yaml", "cycle"), ("expanded_domain.yaml", "expansion"),
               ("rich_domains.yaml", "rich"))


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
    for filename, group in _DATA_FILES:
        text = (package / filename).read_text(encoding="utf-8")
        for raw in yaml.load(text, Loader=loader):
            scenarios.append(_parse_scenario(raw, group))
    ids = [s.id for s in scenarios]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise CatalogError(f"duplicate scenario ids: {dupes}")
    return tuple(scenarios)


def get_scenario(scenario_id: str) -> Scenario:
    for scenario in scenario_catalog():
        if scenario.id == scenario_id:
            return scenario
    raise ValueError(f"unknown scenario id {scenario_id!r}")


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

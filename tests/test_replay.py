import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import votaudit as va
from votaudit.replay import (
    AffineChain,
    CatalogError,
    PreconditionViolation,
    ScenarioParams,
    case_index,
    epsilon_partition,
    get_scenario,
    sample_params,
    scenario_catalog,
    verify_full,
    verify_induction_chain,
    verify_scenario,
)
from votaudit.replay.expressions import (
    ExpressionError,
    compile_expression,
    evaluate_expression,
    evaluate_predicate,
)
from votaudit.replay.model import _parse_scenario
from votaudit.replay.verify import TemplateError, build_env, instantiate


def test_catalog_loads_and_ids_unique():
    catalog = scenario_catalog()
    ids = [s.id for s in catalog]
    assert len(ids) == len(set(ids))
    assert len(ids) >= 30


def test_catalog_contains_named_cases():
    ids = {s.id for s in scenario_catalog()}
    assert "1.I.1.1.2" in ids
    assert "2.III.0.h+1" in ids
    assert "3.III.2.1.n+1" in ids  # corrected identifier for the reused heading


def test_catalog_covers_expected_groups():
    groups = {}
    for s in scenario_catalog():
        groups.setdefault(s.group, []).append(s.id)
    assert len(groups["cycle"]) == 28
    assert len(groups["expansion"]) == 12
    assert len(groups["rich"]) == 36


def test_case_index_matches_catalog_exactly():
    rows = case_index()
    mapped_ids = [sid for _, sid in rows]
    assert len(mapped_ids) == len(set(mapped_ids)), "an id is mapped twice"
    assert set(mapped_ids) == {s.id for s in scenario_catalog()}
    # labels map to themselves except the single corrected heading
    corrections = [(label, sid) for label, sid in rows
                   if label.split(" ")[0] != sid]
    assert corrections == [("3.III.1.1.n+1 (repeated heading)", "3.III.2.1.n+1")]


def test_scenario_example_window_two():
    scenario = get_scenario("1.I.1.1.2")
    params = ScenarioParams.of(a=F(21, 50), b=F(7, 25), epsilon=F(1, 10))
    report = verify_scenario(scenario, params)
    assert report.passed, report.text()
    env = build_env(scenario, params)
    # both sides of the balanced-weight identity equal (a+b)/2
    assert env["a"] - (env["k"] + env["m"]) == env["b"] + (env["k"] + env["m"]) \
        == (env["a"] + env["b"]) / 2


def test_scenario_identity_holds_at_many_points():
    scenario = get_scenario("1.I.1.1.2")
    rng = random.Random(11)
    for _ in range(50):
        params = sample_params(scenario, rng)
        env = build_env(scenario, params)
        assert env["a"] - (env["k"] + env["m"]) == env["b"] + (env["k"] + env["m"])


def test_precondition_violation_names_inequality():
    scenario = get_scenario("1.I.1.1.2")
    with pytest.raises(PreconditionViolation) as exc:
        verify_scenario(scenario, ScenarioParams.of(a=F(11, 20), b=F(1, 4), epsilon=F(1, 10)))
    assert exc.value.inequality == "1 - a - b >= b"


def test_epsilon_partition_examples():
    assert epsilon_partition(F(2, 3) - F(1, 40), F(1, 10)) == 6
    assert epsilon_partition(F(0), F(1, 7)) == 0
    assert epsilon_partition(F(1, 3) - F(1, 20), F(1, 10)) == 2
    with pytest.raises(ValueError):
        epsilon_partition(F(-1, 3), F(1, 10))
    with pytest.raises(ValueError):
        epsilon_partition(F(1, 3), F(0))


def test_epsilon_partition_refuses_floats():
    # in floats 0.3 // 0.1 is 2.0, though 3/10 is exactly three tenths
    assert epsilon_partition(F(3, 10), F(1, 10)) == 3
    with pytest.raises(TypeError, match="float"):
        epsilon_partition(0.3, 0.1)


@given(st.fractions(min_value=0, max_value=10),
       st.fractions(min_value=F(1, 100), max_value=2))
def test_epsilon_partition_brackets(quantity, epsilon):
    n = epsilon_partition(quantity, epsilon)
    assert n >= 0
    assert n * epsilon <= quantity < (n + 1) * epsilon


def test_step_two_constants_at_tenth():
    scenario = get_scenario("2.I.n+1")
    params = ScenarioParams.of(epsilon=F(1, 10))
    env = build_env(scenario, params)
    assert env["d"] == F(1, 80)
    assert env["n"] == 6
    assert 6 * env["epsilon"] <= F(2, 3) - 2 * env["d"] < 7 * env["epsilon"]
    assert verify_full(scenario, params).passed


def test_half_ceiling_property():
    for n in range(1, 101):
        r = evaluate_expression("ceil((n + 1)/2)", {"n": F(n)})
        assert r >= F(n + 1, 2)
        assert r.denominator == 1


def test_induction_chain_example():
    scenario = get_scenario("1.I.1.1.n+1")
    params = ScenarioParams.of(a=F(3, 5), b=F(1, 5), epsilon=F(1, 10))
    env = build_env(scenario, params)
    assert env["n"] == 4
    assert env["kp"] + env["mp"] == F(2, 25)  # per-step coalition mass
    report = verify_induction_chain(scenario, params)
    assert report.passed, report.text()
    assert verify_scenario(scenario, params).passed


def test_degenerate_chain_passes_vacuously():
    scenario = get_scenario("1.I.1.1.n+1")
    params = ScenarioParams.of(a=F(3, 5), b=F(1, 5), epsilon=F(1, 2))
    env = build_env(scenario, params)
    assert env["n"] == 0
    assert verify_full(scenario, params).passed


def test_descent_chain_reaches_pair_profile():
    scenario = get_scenario("3.I.1.1.0.n+1")
    params = ScenarioParams.of(a=F(11, 20), b=F(1, 10), c=F(1, 5), epsilon=F(1, 25))
    report = verify_full(scenario, params)
    assert report.passed, report.text()


def test_cross_module_hypotheses_match_rules():
    # group-two anchor: the dominance count elects y whenever d > 0
    scenario = get_scenario("2.I.1")
    params = ScenarioParams.of(epsilon=F(3, 5))
    env = build_env(scenario, params)
    u1 = va.profile_from({
        "xyz": env["q"], "yzx": F(1, 3) + 2 * env["d"], "zxy": env["q"]},
        va.parse_domain("{x>y>z, y>z>x, z>x>y, x>z>y}"))
    assert va.evaluate(va.BORDA, u1).winner == "y"
    # group-three branch conditions pin the pairwise-majority winner
    scenario = get_scenario("3.I.1.1.0.1")
    params = sample_params(scenario, random.Random(3))
    env = build_env(scenario, params)
    base = va.profile_from({
        "xyz": env["a"], "yzx": env["b"], "yxz": env["c"],
        "zyx": 1 - env["a"] - env["b"] - env["c"]},
        va.Domain((va.ranking("xyz"), va.ranking("yzx"),
                   va.ranking("yxz"), va.ranking("zyx"))))
    assert va.evaluate(va.CONDORCET, base).winner == "x"


def test_every_scenario_passes_spot_checks():
    rng = random.Random(99)
    for scenario in scenario_catalog():
        for _ in range(3):
            params = sample_params(scenario, rng)
            report = verify_full(scenario, params)
            assert report.passed, f"{scenario.id} at {params}:\n{report.text()}"


def test_sampling_is_deterministic_per_seed():
    scenario = get_scenario("3.II.1.0.n+1")
    a = sample_params(scenario, random.Random(5))
    b = sample_params(scenario, random.Random(5))
    assert a == b


def test_unknown_scenario_id():
    with pytest.raises(KeyError):
        get_scenario("4.X.9")


def test_expression_guards():
    with pytest.raises(ExpressionError):
        evaluate_expression("0.5 + a", {"a": F(1)})  # float literals lose exactness
    with pytest.raises(ExpressionError):
        evaluate_expression("__import__('os')", {})
    with pytest.raises(ExpressionError):
        evaluate_expression("a ** 2", {"a": F(2)})
    assert evaluate_expression("floor(7/2)", {}) == 3
    assert evaluate_expression("ceil(7/2)", {}) == 4
    assert evaluate_expression("abs(1 - 2)", {}) == 1
    inverse = compile_expression("1/(a - 1)")  # division by zero is found when evaluated
    assert inverse.names == {"a"} and str(inverse) == "1/(a - 1)"
    assert inverse({"a": F(3)}) == F(1, 2)
    with pytest.raises(ExpressionError, match="division by zero"):
        inverse({"a": F(1)})


def test_environments_are_exact():
    # int and text values are made Fractions once, so `/` never gives a float
    for value in (evaluate_expression("a/b", {"a": 1, "b": "2"}),
                  evaluate_expression("floor(7/2)/ceil(3/2)", {}),
                  evaluate_expression("ceil(a)", {"a": F(5, 2)})):
        assert type(value) is F
    assert evaluate_expression("a/b", {"a": 1, "b": 2}) == F(1, 2)
    assert evaluate_expression("floor(7/2)/ceil(3/2)", {}) == F(3, 2)
    assert evaluate_predicate("a/3 < 1/2", {"a": 1})
    with pytest.raises(TypeError, match="float"):
        evaluate_expression("a", {"a": 0.5})
    params = ScenarioParams((("a", 1), ("epsilon", "1/10")))
    assert params.values == (("a", F(1)), ("epsilon", F(1, 10)))
    assert all(type(v) is F for _, v in params.values)
    assert ScenarioParams.of(a=1, epsilon="1/10") == params
    with pytest.raises(TypeError, match="float"):
        ScenarioParams.of(a=0.5, epsilon=F(1, 10))


def _record(**fields):
    """A minimal catalog record with one parameter, `a`."""
    raw = {"id": "t.1", "group": "cycle", "domain": ["xyz", "yzx", "zxy"], "params": ["a"],
           "sample": [["a", "0", "1"], ["epsilon", "1/10", "1/5"]],
           "profiles": {"u": {"xyz": "a", "yzx": "1 - a"}}}
    raw.update(fields)
    return raw


@pytest.mark.parametrize("text,fragment", [
    ("0.5 + a", "only integer literals"),
    ("a ** 2", "operator Pow not allowed"),
    ("a + q", "unknown name 'q'"),
    ("max(a, 0)", "only floor/ceil/abs"),
])
def test_catalog_rejects_bad_expressions_at_load(text, fragment):
    with pytest.raises(CatalogError, match=fragment) as exc:
        _parse_scenario(_record(identities=[[text, "a"]]))
    assert str(exc.value).startswith("scenario t.1") and repr(text) in str(exc.value)


def test_catalog_rejects_sampling_hints_that_miss_a_parameter():
    assert _parse_scenario(_record()).params == ("a",)
    with pytest.raises(CatalogError, match="sampling hints cover"):
        _parse_scenario(_record(sample=[["a", "0", "1"]]))


def test_catalog_resolves_rule_check_names_at_load():
    scenario = _parse_scenario(_record(rule_checks=[["u", "borda", "x"], ["u", "condorcet", "y"]]))
    assert scenario.rule_checks == (("u", va.BORDA, "x"), ("u", va.CONDORCET, "y"))
    with pytest.raises(CatalogError, match="rule check uses unknown rule 'score:1,0,0'"):
        _parse_scenario(_record(rule_checks=[["u", "score:1,0,0", "x"]]))


def test_sample_params_rejects_a_draw_where_a_def_has_no_value():
    # floor(2*a) is 0 for every a below 1/2, so about half the draws divide by zero
    scenario = _parse_scenario(_record(defs=[["q", "1/floor(2*a)"]]))
    rng = random.Random(0)
    for _ in range(20):
        assert sample_params(scenario, rng).as_dict()["a"] >= F(1, 2)
    with pytest.raises(PreconditionViolation, match="def q = 1/floor"):
        build_env(scenario, ScenarioParams.of(a=F(1, 4), epsilon=F(1, 10)))


def test_report_text_lists_every_check():
    scenario = get_scenario("2.III.2")
    report = verify_full(scenario, ScenarioParams.of(epsilon=F(1, 5)))
    text = report.text()
    assert text.count("pass") == len(report.results)
    assert "unanimously dominated" in text  # the pareto exclusion line
    assert report.passed


def test_empty_misreport_step_fails():
    scenario = get_scenario("1.I.1.1.2")
    step = scenario.steps[0]
    zero = compile_expression("0")
    empty = replace(step, to_profile=step.from_profile,
                    moves=tuple((src, dst, zero) for src, dst, _ in step.moves))
    params = ScenarioParams.of(a=F(21, 50), b=F(7, 25), epsilon=F(1, 10))
    report = verify_full(replace(scenario, steps=(empty,)), params)
    label = f"step 1 ({step.from_profile} -> {step.from_profile}): coalition size 0 < epsilon"
    assert [(r.label, r.detail) for r in report.failures()] == [(label, "empty coalition")]


def test_empty_chain_step_fails():
    scenario = get_scenario("1.I.1.1.n+1")
    chain = scenario.chains[0]
    zero = compile_expression("0")
    moveless = replace(chain, moves=tuple((src, dst, zero) for src, dst, _ in chain.moves))
    params = ScenarioParams.of(a=F(3, 5), b=F(1, 5), epsilon=F(1, 10))
    assert verify_full(scenario, params).passed
    assert not verify_full(replace(scenario, chains=(moveless,)), params).passed
    # every level the anchor profile: each step reproduces the next level, moving nothing
    still = replace(moveless, weights=dict(scenario.profiles)[chain.first])
    report = verify_full(replace(scenario, chains=(still,)), params)
    failures = {r.label: r.detail for r in report.failures()}
    assert failures["every chain step has coalition size < epsilon"] == "level 0: empty coalition"


def test_empty_descent_chain_fails():
    # every component 0, so level 0 is the pair profile and the final misreport moves nothing
    scenario = get_scenario("3.I.1.1.0.n+1")
    chain = scenario.chains[0]
    zero = compile_expression("0")
    emptied = replace(chain, components=tuple((r, zero) for r, _ in chain.components))
    templates = dict(scenario.profiles)
    profiles = tuple((name, templates[chain.pair] if name == chain.base else template)
                     for name, template in scenario.profiles)
    mutant = replace(scenario, profiles=profiles, rule_checks=(), chains=(emptied,))
    params = ScenarioParams.of(a=F(11, 20), b=F(1, 10), c=F(1, 5), epsilon=F(1, 25))
    assert verify_full(scenario, params).passed
    report = verify_full(mutant, params)
    label = (f"final misreport from {chain.pair} rebuilds the terminal profile "
             "with size < epsilon")
    assert [(r.label, r.detail) for r in report.failures()] == [(label, "empty coalition")]


def _negated(moves):
    return tuple((src, dst, compile_expression(f"-({amount})")) for src, dst, amount in moves)


def test_negative_step_amount_fails():
    scenario = get_scenario("1.I.1.1.2")
    step = scenario.steps[0]
    negative = replace(step, moves=_negated(step.moves))
    params = ScenarioParams.of(a=F(21, 50), b=F(7, 25), epsilon=F(1, 10))
    assert verify_full(scenario, params).passed
    [failure] = [r for r in verify_full(replace(scenario, steps=(negative,)), params).failures()
                 if "feasible" in r.label]
    assert failure.detail.startswith("negative transfer -")


def test_negative_chain_move_fails():
    scenario = get_scenario("1.I.1.1.n+1")
    chain = scenario.chains[0]
    negative = replace(chain, moves=_negated(chain.moves))  # kp is 0 here, mp is not
    params = ScenarioParams.of(a=F(3, 5), b=F(1, 5), epsilon=F(1, 10))
    assert verify_full(scenario, params).passed
    report = verify_full(replace(scenario, chains=(negative,)), params)
    failures = {r.label: r.detail for r in report.failures()}
    detail = failures["consecutive chain profiles differ by exactly the per-step moves"]
    assert detail.startswith("level 0: negative transfer -")


def test_negative_descent_component_fails():
    scenario = get_scenario("3.I.1.1.0.n+1")
    chain = scenario.chains[0]
    (r, component), *rest = chain.components
    negated = compile_expression(f"-({component})")
    negative = replace(chain, components=((r, negated), *rest))
    params = ScenarioParams.of(a=F(11, 20), b=F(1, 10), c=F(1, 5), epsilon=F(1, 25))
    assert verify_full(scenario, params).passed
    report = verify_full(replace(scenario, chains=(negative,)), params)
    failures = {r.label: r.detail for r in report.failures()}
    assert failures["descent level 0 is a valid profile"].startswith("negative weight -")


#: Scenarios with neither a misreport step nor an affine-chain move: their
#: claims are descent chains, renamings, and inequalities.
_WITHOUT_MOVES = ["3.I.1.1.0.n+1", "3.I.1.2.0.n+1", "3.I.2.1.3.2", "3.I.2.2", "3.I.3",
                  "3.II.1.0.n+1", "3.III.1.3", "3.III.2.2"]


def _shift_first_move(scenario):
    """The scenario with its first move amount m replaced by (m) + 1/1000, or None."""
    def shifted(moves):
        src, dst, amount = moves[0]
        return ((src, dst, compile_expression(f"({amount}) + 1/1000")),) + moves[1:]

    if scenario.steps:
        first = scenario.steps[0]
        return replace(scenario, steps=(replace(first, moves=shifted(first.moves)),)
                       + scenario.steps[1:])
    for i, chain in enumerate(scenario.chains):
        if isinstance(chain, AffineChain) and chain.moves:
            chains = list(scenario.chains)
            chains[i] = replace(chain, moves=shifted(chain.moves))
            return replace(scenario, chains=tuple(chains))
    return None


def test_shifted_move_amount_fails_verification():
    # mutation analysis: a claim the verifier cannot tell from a wrong one is vacuous
    rng = random.Random(1978)
    covered, uncovered = 0, []
    for scenario in scenario_catalog():
        mutant = _shift_first_move(scenario)
        if mutant is None:
            uncovered.append(scenario.id)
            continue
        params = sample_params(scenario, rng)
        assert verify_full(scenario, params).passed, (scenario.id, str(params))
        assert not verify_full(mutant, params).passed, (scenario.id, str(params))
        covered += 1
    assert covered == 68
    assert uncovered == _WITHOUT_MOVES


#: Scenarios whose first profile, `base`, is read only by a rule check, and a
#: shift of 1/1000 keeps its winner: no step, chain or renaming reads it.
_WEIGHT_SURVIVORS = ["1.II.1.2.2.1", "1.II.1.2.2.n+1", "1.II.1.2.3.1", "1.II.1.2.3.n+1",
                     "1.II.2.2.2.1", "1.II.2.2.2.n+1", "3.I.2.1.3.1.1", "3.I.2.1.3.1.n+1",
                     "3.III.1.3", "3.III.2.2", "3.III.2.3.1", "3.III.2.3.n+1"]


def _perturb_first_template(scenario, env):
    """The scenario with 1/1000 moved between the first two rankings of positive weight
    at `env` in its first profile template, so the weights still sum to 1; or None."""
    name, template = scenario.profiles[0]
    support = [i for i, (_, weight) in enumerate(template) if weight(env) > 0][:2]
    if len(support) < 2:
        return None
    entries = list(template)
    for i, sign in zip(support, "+-"):
        r, weight = entries[i]
        entries[i] = (r, compile_expression(f"({weight}) {sign} 1/1000"))
    return replace(scenario, profiles=((name, tuple(entries)),) + scenario.profiles[1:])


def test_perturbed_weight_term_fails_verification():
    rng = random.Random(1000)
    survivors = []
    for scenario in scenario_catalog():
        killed = False
        for _ in range(5):
            params = sample_params(scenario, rng)
            assert verify_full(scenario, params).passed, (scenario.id, str(params))
            mutant = _perturb_first_template(scenario, build_env(scenario, params))
            if mutant is not None and not verify_full(mutant, params).passed:
                killed = True
                break
        if not killed:
            survivors.append(scenario.id)
    assert survivors == _WEIGHT_SURVIVORS


def test_chain_with_failed_anchor_reports_one_failure():
    scenario = get_scenario("1.I.1.1.n+1")
    half = compile_expression("1/2")
    profiles = tuple((name, ((template[0][0], half),) if name == "u1" else template)
                     for name, template in scenario.profiles)
    params = ScenarioParams.of(a=F(3, 5), b=F(1, 5), epsilon=F(1, 10))
    report = verify_full(replace(scenario, profiles=profiles), params)
    assert [r.label for r in report.failures()] == [
        "profile u1 is valid (weights >= 0, sum 1)", "chain (u1 -> un)"]
    assert report.failures()[1].detail == "profile failed to instantiate"


def _template(*entries):
    return tuple((va.ranking(r), compile_expression(text)) for r, text in entries)


@pytest.mark.parametrize("template,text", [
    (_template(("xyz", "1/2 - a"), ("yzx", "1/2")), "profile u: weight of x>y>z is negative (-1/6)"),
    (_template(("xyz", "a"), ("yzx", "1/2"), ("xyz", "a/2")), "profile u: weights sum to 7/8, expected 1"),
    (_template(("xyz", "0"), ("yzx", "a - a")), "profile u: weights sum to 0, expected 1"),
])
def test_instantiate_error_texts(template, text):
    with pytest.raises(TemplateError) as caught:
        instantiate(template, {"a": F(2, 3) if "negative" in text else F(1, 4)},
                    va.FULL_DOMAIN, "profile u")
    assert str(caught.value) == text


def test_instantiate_sums_repeated_rankings_to_a_canonical_profile():
    # 1/4 + 1/8 + 1/8 on x>y>z, 1/2 on y>z>x: denominators 8 and 2 reduce to 2
    u = instantiate(_template(("xyz", "a"), ("yzx", "1/2"), ("xyz", "a/2"), ("xyz", "a/2")), {"a": F(1, 4)},
                    va.CYCLE_DOMAIN, "profile u")
    assert u == va.profile_from({"xyz": "1/2", "yzx": "1/2"}, va.CYCLE_DOMAIN)
    assert (u.den, u.domain) == (2, va.CYCLE_DOMAIN)


def test_catalog_reads_the_same_with_either_yaml_parser():
    yaml = pytest.importorskip("yaml")
    if not getattr(yaml, "__with_libyaml__", False):
        pytest.skip("PyYAML was built without libyaml")
    import importlib.resources
    from votaudit.replay.model import _DATA_FILES
    for filename in _DATA_FILES:
        text = (importlib.resources.files("votaudit.replay") / "data" / filename).read_text(encoding="utf-8")
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.safe_load(text)

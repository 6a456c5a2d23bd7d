import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st
from oracles import walk_every_level

import votaudit as va
from votaudit.replay import (
    AffineChain,
    CatalogError,
    DescentChain,
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
from votaudit.replay.expressions import ExpressionError, compile_expression, compile_predicate
from votaudit.replay.model import _parse_scenario, expand_winner_spec
from votaudit.replay import verify as verify_module
from votaudit.replay.verify import build_env, instantiate


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
        # each file holds one group, and the thesis numbers its cases by group
        assert s.group == {"1": "cycle", "2": "expansion", "3": "rich"}[s.id[0]]
    assert len(groups["cycle"]) == 28
    assert len(groups["expansion"]) == 12
    assert len(groups["rich"]) == 36


def test_every_scenario_draws_its_parameters_then_epsilon_and_first_assumes_epsilon_positive():
    catalog = scenario_catalog()
    assert Counter(s.params for s in catalog) == {
        ("a", "b"): 33, ("a", "b", "c"): 24, ("a",): 7, (): 12}
    for s in catalog:
        assert [var for var, _, _ in s.sample] == [*s.params, "epsilon"]
        [(name, first)] = [step for step in s.derivation if str(step[1]) == "epsilon > 0"]
        assert (name, first) == s.derivation[0] and name is None


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
    half = compile_expression("ceil((n + 1)/2)")
    for n in range(1, 101):
        r = half({"n": F(n)})
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


def _counting_derive(monkeypatch):
    """Patch the verifier's `_derive` to log whether each call accepted its point."""
    derive, accepted = verify_module._derive, []

    def counting(scenario, env):
        failed = derive(scenario, env)
        accepted.append(failed is None)
        return failed
    monkeypatch.setattr(verify_module, "_derive", counting)
    return accepted


def _outcome(scenario, params):
    try:
        return verify_full(scenario, params).text()
    except PreconditionViolation as exc:
        return f"PreconditionViolation: {exc}"


def test_a_sampled_point_is_derived_once_and_reports_as_its_values(monkeypatch):
    accepted = _counting_derive(monkeypatch)
    rng = random.Random(15)
    for scenario in scenario_catalog():
        for _ in range(2):
            del accepted[:]
            params = sample_params(scenario, rng)
            report = verify_full(scenario, params)
            assert accepted.count(True) == 1 and accepted[-1]  # sample_params accepted it
            fresh = ScenarioParams(params.values)
            assert (fresh, hash(fresh), str(fresh), repr(fresh)) == \
                (params, hash(params), str(params), repr(params))
            assert report.text() == verify_full(scenario, fresh).text()
            assert accepted.count(True) == 2  # the bare values are derived afresh


def test_a_replaced_point_carries_no_derived_environment():
    scenario = get_scenario("1.I.1.1.2")
    p = sample_params(scenario, random.Random(1))
    q = replace(p, values=(("a", F(11, 20)), ("b", F(1, 4)), ("epsilon", F(1, 10))))
    assert q == ScenarioParams.of(a=F(11, 20), b=F(1, 4), epsilon=F(1, 10))
    # the new values are derived afresh, and 1 - a - b = 1/5 < b refuses them
    with pytest.raises(PreconditionViolation) as exc:
        verify_full(scenario, q)
    assert exc.value.inequality == "1 - a - b >= b"
    # the derived environment is no constructor field
    with pytest.raises(TypeError):
        ScenarioParams(p.values, p.derived)


def test_a_point_sampled_for_one_scenario_is_derived_afresh_for_another(monkeypatch):
    accepted = _counting_derive(monkeypatch)
    catalog, refused = scenario_catalog(), 0
    for scenario in catalog:
        params = sample_params(scenario, random.Random(scenario.id))
        for other in catalog:
            if other is scenario or set(other.params) != set(scenario.params):
                continue
            del accepted[:]
            outcome = _outcome(other, params)
            assert len(accepted) == 1
            assert outcome == _outcome(other, ScenarioParams(params.values))
            refused += outcome.startswith("PreconditionViolation")
    # e.g. a point of 1.I.1.1.1 with epsilon > a - b breaks 1.I.1.1.2's preconditions
    assert refused > 0


def test_unknown_scenario_id():
    with pytest.raises(ValueError) as exc:
        get_scenario("4.X.9")
    assert str(exc.value) == "unknown scenario id '4.X.9'"


def test_expression_guards():
    with pytest.raises(ExpressionError):
        compile_expression("0.5 + a")  # float literals lose exactness
    with pytest.raises(ExpressionError):
        compile_expression("__import__('os')")
    with pytest.raises(ExpressionError):
        compile_expression("a ** 2")
    assert compile_expression("floor(7/2)")({}) == 3
    assert compile_expression("ceil(7/2)")({}) == 4
    assert compile_expression("abs(1 - 2)")({}) == 1
    inverse = compile_expression("1/(a - 1)")  # division by zero is found when evaluated
    assert inverse.names == {"a"} and str(inverse) == "1/(a - 1)"
    assert inverse({"a": F(3)}) == F(1, 2)
    with pytest.raises(ExpressionError, match="division by zero"):
        inverse({"a": F(1)})


def test_environments_are_exact():
    # every value, an int's too, is read as an exact pair, so `/` never gives a float
    for value in (compile_expression("a/b")({"a": 1, "b": F(2)}),
                  compile_expression("floor(7/2)/ceil(3/2)")({}),
                  compile_expression("ceil(a)")({"a": F(5, 2)})):
        assert type(value) is F
    assert compile_expression("a/b")({"a": 1, "b": 2}) == F(1, 2)
    assert compile_expression("floor(7/2)/ceil(3/2)")({}) == F(3, 2)
    assert compile_predicate("a/3 < 1/2")({"a": F(1)})
    params = ScenarioParams((("a", 1), ("epsilon", "1/10")))
    assert params.values == (("a", F(1)), ("epsilon", F(1, 10)))
    assert all(type(v) is F for _, v in params.values)
    assert ScenarioParams.of(a=1, epsilon="1/10") == params
    with pytest.raises(TypeError, match="float"):
        ScenarioParams.of(a=0.5, epsilon=F(1, 10))


def _record(**fields):
    """A minimal catalog record with one parameter, `a`."""
    raw = {"id": "t.1", "domain": ["xyz", "yzx", "zxy"],
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
        _parse_scenario(_record(identities=[[text, "a"]]), "cycle")
    assert str(exc.value).startswith("scenario t.1") and repr(text) in str(exc.value)


def test_catalog_rejects_deeply_nested_expressions_at_load():
    for text in ("-" * 996 + "a", " + ".join(["a"] * 3000)):
        with pytest.raises(CatalogError, match="expression nested too deeply$"):
            _parse_scenario(_record(identities=[[text, "a"]]), "cycle")
        with pytest.raises(CatalogError, match="expression nested too deeply$"):
            _parse_scenario(_record(checks=[f"{text} < 1"]), "cycle")


def test_the_parameters_are_what_the_sampling_hints_draw_but_epsilon():
    assert _parse_scenario(_record(), "cycle").params == ("a",)
    drawn = [["c", "0", "1"], ["epsilon", "1/10", "c"], ["a", "epsilon", "1 - c"]]
    scenario = _parse_scenario(_record(sample=drawn), "expansion")
    assert (scenario.group, scenario.params) == ("expansion", ("c", "a"))
    assert [str(e) for _, e in scenario.derivation] == ["epsilon > 0"]


@pytest.mark.parametrize("sample,message", [
    ([["a", "0", "1"]], "scenario t.1: sampling hints draw no 'epsilon'"),
    ([], "scenario t.1: sampling hints draw no 'epsilon'"),
    ([["a", "0", "epsilon"], ["epsilon", "1/10", "1/5"]],
     "scenario t.1: expression 'epsilon' uses unknown name 'epsilon'"),
    ([["a", "0", "1"], ["epsilon", "1/10", "a + b"], ["b", "0", "1"]],
     "scenario t.1: expression 'a + b' uses unknown name 'b'"),
    ([["a", "c/2", "1"], ["epsilon", "1/10", "1/5"]],
     "scenario t.1: expression 'c/2' uses unknown name 'c'"),
    ([["a", "0", "1/2"], ["a", "a", "1"], ["epsilon", "1/10", "1/5"]],
     "scenario t.1: sampling hints draw 'a' twice"),
], ids=["no-epsilon", "no-hints", "epsilon-drawn-later", "parameter-drawn-later", "never-drawn",
        "drawn-twice"])
def test_each_sampling_bound_reads_only_the_variables_drawn_before_it(sample, message):
    with pytest.raises(CatalogError) as exc:
        _parse_scenario(_record(sample=sample), "cycle")
    assert str(exc.value) == message


def test_build_env_and_sample_params_name_why_they_give_no_point():
    scenario = _parse_scenario(_record(assume=["a > 1"]), "cycle")  # a is drawn in [0, 1]
    for values, missing in (({"epsilon": F(1, 10)}, "['a']"), ({}, "['a', 'epsilon']")):
        with pytest.raises(ValueError) as exc:
            build_env(scenario, ScenarioParams.of(**values))
        assert str(exc.value) == f"scenario t.1: missing parameters {missing}"
    with pytest.raises(PreconditionViolation) as exc:  # epsilon > 0 is checked first
        build_env(scenario, ScenarioParams.of(a=0, epsilon=0))
    assert str(exc.value) == (
        "scenario t.1: precondition 'epsilon > 0' fails at {'a': '0', 'epsilon': '0'}")
    with pytest.raises(RuntimeError) as exc:
        sample_params(scenario, random.Random(0))
    assert str(exc.value) == "could not sample parameters for scenario t.1"


def test_catalog_resolves_rule_check_names_at_load():
    scenario = _parse_scenario(
        _record(rule_checks=[["u", "borda", "x"], ["u", "condorcet", "y"]]), "cycle")
    assert scenario.rule_checks == (("u", va.BORDA, "x"), ("u", va.CONDORCET, "y"))
    with pytest.raises(CatalogError, match="rule check uses unknown rule 'score:1,0,0'"):
        _parse_scenario(_record(rule_checks=[["u", "score:1,0,0", "x"]]), "cycle")


def test_sample_params_rejects_a_draw_where_a_def_has_no_value():
    # floor(2*a) is 0 for every a below 1/2, so about half the draws divide by zero
    scenario = _parse_scenario(_record(defs=[["q", "1/floor(2*a)"]]), "cycle")
    rng = random.Random(0)
    for _ in range(20):
        assert dict(sample_params(scenario, rng).values)["a"] >= F(1, 2)
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
    still = replace(moveless, weights=tuple((r, (weight, zero))
                                            for r, weight in dict(scenario.profiles)[chain.first]))
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
                 if "misreport reproduces the target profile exactly" in r.label]
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


def test_overfull_descent_level_fails_on_the_absorber():
    scenario = get_scenario("3.I.1.1.0.n+1")
    chain = scenario.chains[0]
    (r, component), *rest = chain.components
    overfull = replace(chain, components=((r, compile_expression(f"({component}) + 1")), *rest))
    params = ScenarioParams.of(a=F(11, 20), b=F(1, 10), c=F(1, 5), epsilon=F(1, 25))
    report = verify_full(replace(scenario, chains=(overfull,)), params)
    detail = {r.label: r.detail for r in report.failures()}["descent level 0 is a valid profile"]
    assert detail.startswith("negative weight -") and detail.endswith(f" on {chain.absorber}")


@pytest.mark.parametrize("fixed, component, label, detail", [
    # y>z>x holds 2*b - b = b at level 0, but the components sum to -b: no window
    ("2*b", "-b", "descent of 0 level(s)", "component mass -1/10 is negative"),
    # the component lifts y>z>x above 0 at level 0; absorbed, it leaves -b
    ("-b", "2*b", "profile pairXY equals the terminal shape", "negative weight -1/10 on y>z>x"),
], ids=["negative-mass", "terminal-shape-is-no-profile"])
def test_descent_construction_fails_in_its_report(fixed, component, label, detail):
    scenario = get_scenario("3.I.1.1.0.n+1")
    chain = scenario.chains[0]
    [held] = chain.fixed
    (yzx, _), _ = chain.components
    mutant = replace(chain, fixed=(held, (yzx, compile_expression(fixed))),
                     components=((yzx, compile_expression(component)),))
    params = ScenarioParams.of(a=F(11, 20), b=F(1, 10), c=F(1, 5), epsilon=F(1, 25))
    report = verify_full(replace(scenario, chains=(mutant,)), params)
    [found] = [r.detail for r in report.failures() if r.label.startswith(label)]
    assert found == detail


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


def _weights(template, env):
    return [(r, *expr.ratio(env)) for r, expr in template]


@pytest.mark.parametrize("template,text", [
    (_template(("xyz", "1/2 - a"), ("yzx", "1/2")), "profile u: negative weight -1/6 on x>y>z"),
    (_template(("xyz", "a"), ("yzx", "1/2"), ("xyz", "a/2")), "profile u: weights sum to 7/8, expected exactly 1"),
    (_template(("xyz", "0"), ("yzx", "a - a")), "profile u: weights sum to 0, expected exactly 1"),
])
def test_instantiate_error_texts(template, text):
    env = {"a": F(2, 3) if "negative" in text else F(1, 4)}
    built = instantiate(va.FULL_DOMAIN, _weights(template, env))
    assert isinstance(built, str) and f"profile u: {built}" == text


def test_instantiate_sums_repeated_rankings_to_a_canonical_profile():
    # 1/4 + 1/8 + 1/8 on x>y>z, 1/2 on y>z>x: denominators 8 and 2 reduce to 2
    template = _template(("xyz", "a"), ("yzx", "1/2"), ("xyz", "a/2"), ("xyz", "a/2"))
    u = instantiate(va.CYCLE_DOMAIN, _weights(template, {"a": F(1, 4)}))
    assert u == va.profile_from({"xyz": "1/2", "yzx": "1/2"}, va.CYCLE_DOMAIN)
    assert (u.den, u.domain) == (2, va.CYCLE_DOMAIN)


def test_catalog_reads_the_same_with_either_yaml_parser():
    yaml = pytest.importorskip("yaml")
    if not getattr(yaml, "__with_libyaml__", False):
        pytest.skip("PyYAML was built without libyaml")
    import importlib.resources
    from votaudit.replay.model import _DATA_FILES
    for filename, _ in _DATA_FILES:
        text = (importlib.resources.files("votaudit.replay") / "data" / filename).read_text(encoding="utf-8")
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.safe_load(text)


def _replace_chain(scenario, **changes):
    return replace(scenario, chains=(replace(scenario.chains[0], **changes),))


def _without_steps(scenario):
    """The scenario with only its profiles, rule checks, renamings and chains."""
    return replace(scenario, identities=(), checks=(), steps=())


def _skip_a_window(scenario, monkeypatch):
    """The descent's window index dropping by two at level 5 of its 6, an end level,
    which exact arithmetic never gives: `epsilon_partition` is patched to report it
    for that level's component mass, 1/4 * 2/7."""
    def partition(quantity, epsilon):
        return epsilon_partition(quantity, epsilon) - (quantity == F(1, 14))

    monkeypatch.setattr("votaudit.replay.verify.epsilon_partition", partition)
    return scenario


def _shifted_steps(chain, shifts):
    """The chain's weights with `shifts[r]` more moved onto ranking `r` per level."""
    return tuple((r, (base, compile_expression(f"({step}) + ({shifts.get(r, 0)})")))
                 for r, (base, step) in chain.weights)


_ONE_I = ScenarioParams.of(a=F(3, 5), b=F(1, 5), epsilon=F(1, 2))
_CHAIN = ScenarioParams.of(a=F(3, 5), b=F(1, 5), epsilon=F(1, 10))
_EXPANDED = ScenarioParams.of(epsilon=F(1, 5))
_EXPANDED_CHAIN = ScenarioParams.of(epsilon=F(1, 10))
_DESCENT = ScenarioParams.of(a=F(11, 20), b=F(1, 10), c=F(1, 5), epsilon=F(1, 25))

#: One mutant per failure line: (scenario id, point, mutant builder, whole report text).
_FAILING_REPORTS = {
    "rule-check": ("1.I.1.1.1", _ONE_I, lambda s, _: replace(
        s, rule_checks=tuple((name, rule, "z") for name, rule, _ in s.rule_checks)), """\
scenario 1.I.1.1.1 at a=3/5, b=1/5, epsilon=1/2
  pass  profile base is valid (weights >= 0, sum 1)
  pass  profile u1 is valid (weights >= 0, sum 1)
  pass  inequality (2*a + b - 1) + (1 - a - 2*b) == a - b
  FAIL  borda elects z on base  (got winner x)
  pass  renaming x->z,y->x,z->y carries base to u1
  pass  renaming x->z,y->x,z->y carries winner y to x
  pass  step 1 (base -> u1): misreport reproduces the target profile exactly
  pass  step 1 (base -> u1): coalition size 2/5 < epsilon
  pass  step 1 (base -> u1): movers with true ranking x>y>z gain (x over y)
"""),
    "identity": ("2.III.2", _EXPANDED, lambda s, _: replace(
        s, identities=tuple((l, compile_expression(f"({r}) + 1/1000"))
                            for l, r in s.identities[:1]) + s.identities[1:]), """\
scenario 2.III.2 at epsilon=1/5
  pass  profile u5 is valid (weights >= 0, sum 1)
  pass  profile u6 is valid (weights >= 0, sum 1)
  pass  profile u7 is valid (weights >= 0, sum 1)
  FAIL  identity (2/3 - 2*d) - k == (1/2) + 1/1000  (1/2 != 501/1000)
  pass  identity (1/3 + 2*d) + k == 1/2
  pass  inequality k < epsilon
  pass  profile u7: y is unanimously dominated (cannot win under P)
  pass  renaming x->z,y->y,z->x carries u5 to u6
  pass  renaming x->z,y->y,z->x carries winner z to x
  pass  step 1 (u5 -> u7): misreport reproduces the target profile exactly
  pass  step 1 (u5 -> u7): coalition size 7/60 < epsilon
  pass  step 1 (u5 -> u7): movers with true ranking x>z>y gain (x over z)
  pass  step 2 (u6 -> u7): misreport reproduces the target profile exactly
  pass  step 2 (u6 -> u7): coalition size 7/60 < epsilon
  pass  step 2 (u6 -> u7): movers with true ranking z>x>y gain (z over x)
"""),
    "renaming": ("1.I.1.1.1", _ONE_I, lambda s, _: replace(
        s, perm_links=(replace(s.perm_links[0], perm=va.CandidatePermutation.from_mapping(
            {"x": "y", "y": "x", "z": "z"})),)), """\
scenario 1.I.1.1.1 at a=3/5, b=1/5, epsilon=1/2
  pass  profile base is valid (weights >= 0, sum 1)
  pass  profile u1 is valid (weights >= 0, sum 1)
  pass  inequality (2*a + b - 1) + (1 - a - 2*b) == a - b
  pass  borda elects x on base
  FAIL  renaming x->y,y->x,z->z carries base to u1  (permuted weights differ)
  pass  renaming x->y,y->x,z->z carries winner y to x
  pass  step 1 (base -> u1): misreport reproduces the target profile exactly
  pass  step 1 (base -> u1): coalition size 2/5 < epsilon
  pass  step 1 (base -> u1): movers with true ranking x>y>z gain (x over y)
"""),
    "winner-renaming": ("1.I.1.1.1", _ONE_I, lambda s, _: replace(
        s, hypotheses=(("base", "y"), ("u1", "z"))), """\
scenario 1.I.1.1.1 at a=3/5, b=1/5, epsilon=1/2
  pass  profile base is valid (weights >= 0, sum 1)
  pass  profile u1 is valid (weights >= 0, sum 1)
  pass  inequality (2*a + b - 1) + (1 - a - 2*b) == a - b
  pass  borda elects x on base
  pass  renaming x->z,y->x,z->y carries base to u1
  FAIL  renaming x->z,y->x,z->y carries winner y to z  (expected x)
  pass  step 1 (base -> u1): misreport reproduces the target profile exactly
  pass  step 1 (base -> u1): coalition size 2/5 < epsilon
  pass  step 1 (base -> u1): movers with true ranking x>y>z gain (x over y)
"""),
    "pareto": ("2.III.2", _EXPANDED, lambda s, _: replace(s, pareto_excluded=(("u7", "x"),)), """\
scenario 2.III.2 at epsilon=1/5
  pass  profile u5 is valid (weights >= 0, sum 1)
  pass  profile u6 is valid (weights >= 0, sum 1)
  pass  profile u7 is valid (weights >= 0, sum 1)
  pass  identity (2/3 - 2*d) - k == 1/2
  pass  identity (1/3 + 2*d) + k == 1/2
  pass  inequality k < epsilon
  FAIL  profile u7: x is unanimously dominated (cannot win under P)  (no alternative beats x on every support ranking)
  pass  renaming x->z,y->y,z->x carries u5 to u6
  pass  renaming x->z,y->y,z->x carries winner z to x
  pass  step 1 (u5 -> u7): misreport reproduces the target profile exactly
  pass  step 1 (u5 -> u7): coalition size 7/60 < epsilon
  pass  step 1 (u5 -> u7): movers with true ranking x>z>y gain (x over z)
  pass  step 2 (u6 -> u7): misreport reproduces the target profile exactly
  pass  step 2 (u6 -> u7): coalition size 7/60 < epsilon
  pass  step 2 (u6 -> u7): movers with true ranking z>x>y gain (z over x)
"""),
    "chain-pareto": ("2.III.m+1", _EXPANDED_CHAIN, lambda s, _: _replace_chain(
        _without_steps(s), pareto_excluded="x"), """\
scenario 2.III.m+1 at epsilon=1/10
  pass  profile u5 is valid (weights >= 0, sum 1)
  pass  profile u6 is valid (weights >= 0, sum 1)
  pass  profile um is valid (weights >= 0, sum 1)
  pass  renaming x->z,y->y,z->x carries u5 to u6
  pass  renaming x->z,y->y,z->x carries winner z to x
  pass  chain count m = 2 is a nonnegative integer
  pass  all 3 chain profiles are valid
  pass  chain level 0 equals profile u5
  pass  chain level 2 equals profile um (relabeled weights)
  pass  consecutive chain profiles differ by exactly the per-step moves
  pass  every chain step has coalition size < epsilon
  pass  chain step: movers with true ranking x>z>y gain (x over z)
  FAIL  x is unanimously dominated at every chain level
"""),
    "chain-count": ("1.I.1.1.n+1", _CHAIN, lambda s, _: _replace_chain(
        _without_steps(s), count="mp"), """\
scenario 1.I.1.1.n+1 at a=3/5, b=1/5, epsilon=1/10
  pass  profile base is valid (weights >= 0, sum 1)
  pass  profile u1 is valid (weights >= 0, sum 1)
  pass  profile un is valid (weights >= 0, sum 1)
  pass  borda elects x on base
  pass  renaming x->z,y->x,z->y carries base to u1
  pass  renaming x->z,y->x,z->y carries winner y to x
  FAIL  chain count mp is a nonnegative integer  (got 2/25)
"""),
    "chain-level": ("1.I.1.1.n+1", _CHAIN, lambda s, _: _replace_chain(
        # 1/8 more of y>z>x's 1/5 moved to x>y>z per level: negative first at level 2
        _without_steps(s), weights=_shifted_steps(s.chains[0], {
            va.ranking("xyz"): "1/8", va.ranking("yzx"): "-1/8"})), """\
scenario 1.I.1.1.n+1 at a=3/5, b=1/5, epsilon=1/10
  pass  profile base is valid (weights >= 0, sum 1)
  pass  profile u1 is valid (weights >= 0, sum 1)
  pass  profile un is valid (weights >= 0, sum 1)
  pass  borda elects x on base
  pass  renaming x->z,y->x,z->y carries base to u1
  pass  renaming x->z,y->x,z->y carries winner y to x
  pass  chain count n = 4 is a nonnegative integer
  FAIL  chain level 2 is a valid profile  (chain level 2: negative weight -1/20 on y>z>x)
"""),
    "chain-anchors": ("1.I.1.1.n+1", _CHAIN, lambda s, _: _replace_chain(
        _without_steps(s), first="un", last="u1"), """\
scenario 1.I.1.1.n+1 at a=3/5, b=1/5, epsilon=1/10
  pass  profile base is valid (weights >= 0, sum 1)
  pass  profile u1 is valid (weights >= 0, sum 1)
  pass  profile un is valid (weights >= 0, sum 1)
  pass  borda elects x on base
  pass  renaming x->z,y->x,z->y carries base to u1
  pass  renaming x->z,y->x,z->y carries winner y to x
  pass  chain count n = 4 is a nonnegative integer
  pass  all 5 chain profiles are valid
  FAIL  chain level 0 equals profile un
  FAIL  chain level 4 equals profile u1 (relabeled weights)
  pass  consecutive chain profiles differ by exactly the per-step moves
  pass  every chain step has coalition size < epsilon
  pass  chain step: movers with true ranking x>y>z gain (x over not:x)
"""),
    "descent-window": ("3.I.1.1.0.n+1", _DESCENT, _skip_a_window, """\
scenario 3.I.1.1.0.n+1 at a=11/20, b=1/10, c=1/5, epsilon=1/25
  pass  profile base is valid (weights >= 0, sum 1)
  pass  profile pairXY is valid (weights >= 0, sum 1)
  pass  condorcet elects x on base
  pass  descent level 0 equals profile base
  FAIL  descent of 4 level(s): each rebuilds the previous profile with coalition mass < epsilon and drops the window index by one  (window index went 2 -> 0, expected 1)
  pass  profile pairXY equals the terminal shape with all component mass absorbed
  FAIL  final misreport from pairXY rebuilds the terminal profile with size < epsilon  (size 3/28 vs epsilon 1/25)
  pass  descent step: movers with true ranking y>x>z gain (y over not:y)
  pass  descent step: movers with true ranking y>x>z gain (y over not:y)
"""),
    "terminal-shape": ("3.I.1.1.0.n+1", _DESCENT, lambda s, _: _replace_chain(
        s, pair="base"), """\
scenario 3.I.1.1.0.n+1 at a=11/20, b=1/10, c=1/5, epsilon=1/25
  pass  profile base is valid (weights >= 0, sum 1)
  pass  profile pairXY is valid (weights >= 0, sum 1)
  pass  condorcet elects x on base
  pass  descent level 0 equals profile base
  pass  descent of 6 level(s): each rebuilds the previous profile with coalition mass < epsilon and drops the window index by one
  FAIL  profile base equals the terminal shape with all component mass absorbed
  FAIL  final misreport from base rebuilds the terminal profile with size < epsilon  (transfer does not reproduce the next profile)
  pass  descent step: movers with true ranking y>x>z gain (y over not:y)
  pass  descent step: movers with true ranking y>x>z gain (y over not:y)
"""),
}


@pytest.mark.parametrize("case", sorted(_FAILING_REPORTS))
def test_failing_report_text(case, monkeypatch):
    # the pinned benchmark digest covers passing reports; these pin failing ones
    sid, params, mutate, text = _FAILING_REPORTS[case]
    report = verify_full(mutate(get_scenario(sid), monkeypatch), params)
    assert not report.passed
    assert report.text() + "\n" == text


def _affine_chain(**fields):
    """A one-level affine chain over `_record`'s profile `u`, counted by the parameter `a`."""
    chain = {"count": "a", "weights": {"xyz": "a", "yzx": "1 - a"}, "moves": [],
             "direction": "down", "first": "u", "last": "u", "improvement": ["x", "y"]}
    chain.update(fields)
    return chain


def test_catalog_rejects_a_chain_count_that_names_no_parameter_or_def():
    assert _parse_scenario(_record(chains=[_affine_chain()]), "cycle").chains[0].count == "a"
    for count in ("nn", "j"):  # j is the chain's index, which no catalog text reads
        with pytest.raises(CatalogError, match=f"chain count uses unknown name '{count}'"):
            _parse_scenario(_record(chains=[_affine_chain(count=count)]), "cycle")


def test_catalog_rejects_a_chain_pareto_exclusion_that_is_no_alternative():
    chain = _parse_scenario(_record(chains=[_affine_chain(pareto_excluded="y")]), "cycle").chains[0]
    assert chain.pareto_excluded == "y"
    with pytest.raises(CatalogError, match="chain pareto exclusion of unknown alternative 'w'"):
        _parse_scenario(_record(chains=[_affine_chain(pareto_excluded="w")]), "cycle")


def _verified_in_traced_peak(scenario, params, passes=True):
    """The report's traced peak memory, in bytes; the report passes, or fails if not `passes`."""
    tracemalloc.start()
    try:
        report = verify_full(scenario, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed == passes, report.text()
    return peak


_LEVELS_8000 = ScenarioParams.of(a=F(3, 5), b=F(1, 5), epsilon=F(1, 20000))


def test_affine_chain_is_checked_in_constant_memory():
    # 8,000 levels; holding every level took about 450 bytes each, 3.6 MB here
    scenario = get_scenario("1.I.1.1.n+1")
    assert build_env(scenario, _LEVELS_8000)["n"] == 8000
    assert _verified_in_traced_peak(scenario, _LEVELS_8000) < 500_000


def _doubled(scenario):
    """The scenario with each affine chain's move amounts doubled, so its steps fail."""
    return replace(scenario, chains=tuple(
        replace(chain, moves=tuple((src, dst, compile_expression(f"({a})*2"))
                                   for src, dst, a in chain.moves))
        if isinstance(chain, AffineChain) else chain for chain in scenario.chains))


_LEVELS_4E8 = ScenarioParams.of(a=F(3, 5), b=F(1, 5), epsilon=F(1, 10**9))


def test_a_failing_affine_chain_is_checked_in_constant_memory():
    doubled = _doubled(get_scenario("1.I.1.1.n+1"))
    assert _verified_in_traced_peak(doubled, _LEVELS_4E8, passes=False) < 500_000


def _count_profiles_built(monkeypatch, limit=10):
    """The weights of every profile `verify_full` builds from here on; one more than
    `limit` fails the test, long before a walk of the long chains below would end."""
    built = []

    def counting(domain, weights):
        built.append(weights)
        assert len(built) <= limit, "the chain is being walked"
        return instantiate(domain, weights)

    monkeypatch.setattr(verify_module, "instantiate", counting)
    return built


def test_an_affine_chain_of_four_hundred_million_levels_is_decided_at_its_ends(monkeypatch):
    scenario = get_scenario("1.I.1.1.n+1")
    assert build_env(scenario, _LEVELS_4E8)["n"] == 400_000_000
    built = _count_profiles_built(monkeypatch)
    report = verify_full(scenario, _LEVELS_4E8)
    assert report.passed, report.text()
    assert "  pass  all 400000001 chain profiles are valid" in report.text()
    assert len(built) == 3 + 4  # the named profiles, then levels 0, 1, n - 1 and n


def test_a_descent_of_a_quarter_billion_windows_is_decided_at_its_ends(monkeypatch):
    scenario = get_scenario("3.I.1.1.0.n+1")
    params = ScenarioParams.of(a=F(11, 20), b=F(1, 10), c=F(1, 5), epsilon=F(1, 10**9))
    built = _count_profiles_built(monkeypatch)
    report = verify_full(scenario, params)
    assert report.passed, report.text()
    assert "  pass  descent of 250000000 level(s): " in report.text()
    assert len(built) == 2 + 4 + 1  # the named profiles, levels 0, 1, w - 1 and w, the terminal


def test_a_failing_chain_of_four_hundred_million_levels_fails_at_its_first_step(monkeypatch):
    built = _count_profiles_built(monkeypatch)
    report = verify_full(_doubled(get_scenario("1.I.1.1.n+1")), _LEVELS_4E8)
    assert [r.line() for r in report.failures()] == [
        "FAIL  consecutive chain profiles differ by exactly the per-step moves  "
        "(level 0: transfer does not reproduce the next profile)",
        "FAIL  every chain step has coalition size < epsilon  "
        "(level 0: size 4/2000000005 vs epsilon 1/1000000000)"]
    assert len(built) == 3 + 3  # the named profiles, then levels 0, n and 1


def test_a_chain_level_that_fails_deep_inside_is_found_by_bisection(monkeypatch):
    # 3/2000000000 more moved from z>x>y to y>z>x per level: z>x>y's weight
    # a - j*(mp + 3/2000000000) turns negative first at level 240000001 of 400000000
    scenario = get_scenario("1.I.1.1.n+1")
    shifted = _replace_chain(scenario, weights=_shifted_steps(scenario.chains[0], {
        va.ranking("yzx"): "3/2000000000", va.ranking("zxy"): "-3/2000000000"}))
    built = _count_profiles_built(monkeypatch, limit=40)
    assert [r.line() for r in verify_full(shifted, _LEVELS_4E8).failures()] == [
        "FAIL  chain level 240000001 is a valid profile  (chain level 240000001: "
        "negative weight -1520000003/800000002000000000 on z>x>y)"]
    assert len(built) > 3 + 4  # the bisection built levels between the end levels


def test_a_descent_of_a_quarter_billion_windows_fails_at_its_first_failing_window(monkeypatch):
    # the window index misreported from the level whose component mass is at most 1/8 on:
    # 1/4 * (w + 1 - t)/(w + 1) <= 1/8 first at t = 125000001 of w = 250000000
    monkeypatch.setattr("votaudit.replay.verify.epsilon_partition", lambda quantity, epsilon: (
        epsilon_partition(quantity, epsilon) - (quantity <= F(1, 8))))
    params = ScenarioParams.of(a=F(11, 20), b=F(1, 10), c=F(1, 5), epsilon=F(1, 10**9))
    built = _count_profiles_built(monkeypatch)
    assert [r.line() for r in verify_full(get_scenario("3.I.1.1.0.n+1"), params).failures()] == [
        "FAIL  descent of 125000000 level(s): each rebuilds the previous profile with "
        "coalition mass < epsilon and drops the window index by one  "
        "(window index went 125000000 -> 124999998, expected 124999999)",
        "FAIL  final misreport from pairXY rebuilds the terminal profile with size < epsilon  "
        "(size 125000001/1000000004 vs epsilon 1/1000000000)"]
    # the named profiles, levels 0, w, 1 and w - 1, the terminal shape, and level
    # 125000000, which the final misreport rebuilds; the window index reads no level
    assert len(built) == 2 + 4 + 1 + 1


@pytest.mark.parametrize("weight,message", [
    # a weight states its change per level as a step, so none reads the index
    ("a - j*a", "scenario t.1: expression 'a - j*a' uses unknown name 'j'"),
    (["a - j*a", "0"], "scenario t.1: expression 'a - j*a' uses unknown name 'j'"),
    (["a"], "scenario t.1 chain: weight must be text or [base, step], not ['a']"),
    (["a", "-a", "0"], "scenario t.1 chain: weight must be text or [base, step], not "
                       "['a', '-a', '0']"),
], ids=["text-reads-j", "base-reads-j", "one-entry", "three-entries"])
def test_a_chain_weight_is_text_or_base_and_step(weight, message):
    chain = _affine_chain(weights={"xyz": ["a", "-a"], "yzx": ["1 - a", "a"]})
    [(_, (base, step)), _] = _parse_scenario(_record(chains=[chain]), "cycle").chains[0].weights
    assert (base.text, step.text) == ("a", "-a")
    with pytest.raises(CatalogError) as exc:
        _parse_scenario(_record(chains=[_affine_chain(weights={"xyz": weight, "yzx": "1 - a"})]),
                        "cycle")
    assert str(exc.value) == message


def test_a_bump_that_vanishes_at_the_end_levels_is_refused_at_load():
    # 4/1000 at level 2 and 0 at levels 0, 1, 3 and 4: the end levels could not see it.
    # No [base, step] states it, and as text in j, or in a step, it reads an unknown name.
    for weight, text in [("a + j*(j - 1)*(j - 3)*(j - 4)/1000",) * 2,
                         (["a", "(j - 1)*(j - 3)*(j - 4)/1000"], "(j - 1)*(j - 3)*(j - 4)/1000")]:
        with pytest.raises(CatalogError) as exc:
            _parse_scenario(
                _record(chains=[_affine_chain(weights={"xyz": weight, "yzx": "1 - a"})]), "cycle")
        assert str(exc.value) == f"scenario t.1: expression {text!r} uses unknown name 'j'"


_CYCLE = (["xyz", "yzx", "zxy"], {"u": {"xyz": "1/4", "yzx": "1/4", "zxy": "1/2"},
                                   "v": {"xyz": "1/20", "yzx": "1/20", "zxy": "9/10"}})
_MOVES = [["zxy", "xyz", "1/5"], ["xyz", "yzx", "1/10"]]  # net: +1/10, +1/10, -1/5


@pytest.mark.parametrize("domain,profiles,chain,failure", [
    # x>y>z holds 1/20 < 1/10 at the "before" level of the last step only
    (*_CYCLE, _affine_chain(
        weights={"xyz": ["1/4", "-1/10"], "yzx": ["1/4", "-1/10"], "zxy": ["1/2", "1/5"]},
        moves=_MOVES, direction="down", last="v", improvement=["y", "x"]),
     "consecutive chain profiles differ by exactly the per-step moves  "
     "(level 1: transfer of 1/10 exceeds the weight 1/20 on x>y>z)"),
    # the same levels in reverse: the cap fails at the first step only
    (*_CYCLE, _affine_chain(
        weights={"xyz": ["1/20", "1/10"], "yzx": ["1/20", "1/10"], "zxy": ["9/10", "-1/5"]},
        moves=_MOVES, direction="up", first="v", last="u", improvement=["y", "x"]),
     "consecutive chain profiles differ by exactly the per-step moves  "
     "(level 0: transfer of 1/10 exceeds the weight 1/20 on x>y>z)"),
    # x beats z at level 0 and y at level 2; at level 1 neither does
    (["xzy", "yzx"], {"u": {"xzy": "1"}, "v": {"yzx": "1"}}, _affine_chain(
        weights={"xzy": ["1", "-1/2"], "yzx": ["0", "1/2"]}, moves=[["xzy", "yzx", "1/2"]],
        direction="up", last="v", improvement=["z", "x"], pareto_excluded="z"),
     "z is unanimously dominated at every chain level"),
], ids=["cap-at-the-last-step", "cap-at-the-first-step", "domination-inside"])
def test_an_affine_chain_claim_that_fails_off_the_end_levels_is_reported(
        domain, profiles, chain, failure):
    # two steps, so each end step's "before" level is an extreme of that range
    scenario = _parse_scenario(_record(
        domain=domain, profiles=profiles, defs=[["n", "2"]], chains=[{**chain, "count": "n"}]),
        "cycle")
    report = verify_full(scenario, ScenarioParams.of(a=F(1, 2), epsilon=F(3, 5)))
    assert [r.line() for r in report.failures()] == [f"FAIL  {failure}"]


def test_a_claim_that_fails_from_an_inner_level_on_is_reported_at_that_level(monkeypatch):
    # x>y>z holds 1/8 - j/40, less than the 1/10 it gives, at the steps out of levels 2-4:
    # levels 0, 1, 3 and 4 show the failure at the last step, and bisecting back from it
    # names the one out of level 2
    scenario = _parse_scenario(_record(
        domain=_CYCLE[0], defs=[["n", "4"]],
        profiles={"u": {"xyz": "1/8", "yzx": "1/2", "zxy": "3/8"},
                  "v": {"xyz": "1/40", "yzx": "1/10", "zxy": "7/8"}},
        chains=[_affine_chain(
            count="n", weights={"xyz": ["1/8", "-1/40"], "yzx": ["1/2", "-1/10"],
                                "zxy": ["3/8", "1/8"]},
            moves=[["zxy", "xyz", "1/8"], ["xyz", "yzx", "1/10"]], last="v",
            improvement=["y", "x"])]), "cycle")
    report = verify_full(scenario, ScenarioParams.of(a=F(1, 2), epsilon=F(3, 5)))
    assert [r.line() for r in report.failures()] == [
        "FAIL  consecutive chain profiles differ by exactly the per-step moves  "
        "(level 1: transfer of 1/10 exceeds the weight 3/40 on x>y>z)"]
    # the window index misreported from level 3 of 6 on: 1/4 * 4/7 is level 3's mass
    monkeypatch.setattr("votaudit.replay.verify.epsilon_partition", lambda quantity, epsilon: (
        epsilon_partition(quantity, epsilon) - (quantity <= F(1, 7))))
    [failure] = verify_full(get_scenario("3.I.1.1.0.n+1"), _DESCENT).failures()[:1]
    assert failure.label.startswith("descent of 2 level(s)")
    assert failure.detail == "window index went 4 -> 2, expected 3"


def test_affine_chains_decided_at_their_ends_report_as_the_walk(monkeypatch):
    rng = random.Random(1717)
    scenarios = [s for s in scenario_catalog() if any(isinstance(c, AffineChain) for c in s.chains)]
    assert len(scenarios) == 25
    cases = []
    for scenario in scenarios:
        # with twice the moves a chain's steps fail
        for _ in range(20):
            params = sample_params(scenario, rng)
            cases += [(scenario, params), (_doubled(scenario), params)]
    at_ends = [verify_full(variant, params) for variant, params in cases]
    assert [r.passed for r in at_ends] == [variant in scenarios for variant, _ in cases]
    monkeypatch.setattr(verify_module, "_walk", walk_every_level)
    assert [verify_full(variant, params).text() for variant, params in cases] == [
        r.text() for r in at_ends]


@pytest.mark.parametrize("sid", [s.id for s in scenario_catalog()
                                 if any(isinstance(c, AffineChain) for c in s.chains)])
def test_affine_chain_levels_match_the_fraction_reference(sid, monkeypatch):
    # the verifier builds level j as one integer pair per weight; here it is the Fraction
    # base + j*step, at the levels the walk reads and one inside
    scenario, rng, walked = get_scenario(sid), random.Random(sid), []
    walk = verify_module._walk
    monkeypatch.setattr(verify_module, "_walk", lambda count, level, *rest, **kw: (
        walked.append((count, level)) or walk(count, level, *rest, **kw)))
    for _ in range(3):
        params = sample_params(scenario, rng)
        walked.clear()
        assert verify_full(scenario, params).passed
        assert len(walked) == len(scenario.chains)  # descent chains walk too
        env = build_env(scenario, params)
        for chain, (count, level) in zip(scenario.chains, walked):
            if not isinstance(chain, AffineChain):
                continue
            for j in {j for j in (0, 1, count // 2, count - 1, count) if 0 <= j <= count}:
                reference = [(r, *(base(env) + j * step(env)).as_integer_ratio())
                             for r, (base, step) in chain.weights]
                assert level(j) == instantiate(scenario.domain, reference), (sid, j)


def _descent_mutants(chain):
    """The chain with its components scaled, one component or fixed weight shifted,
    or its pair profile the base."""
    def shifted(weights, text):
        (r, weight), *rest = weights
        return ((r, compile_expression(f"({weight}) + {text}")), *rest)

    for factor in ("3", "1/2", "-1", "0"):
        yield replace(chain, components=tuple(
            (r, compile_expression(f"({c})*({factor})")) for r, c in chain.components))
    for shift in ("1/1000", "-1/1000"):
        yield replace(chain, components=shifted(chain.components, shift))
        yield replace(chain, fixed=shifted(chain.fixed, shift))
    yield replace(chain, pair=chain.base)


def test_descent_chains_decided_at_their_ends_report_as_the_walk(monkeypatch):
    rng = random.Random(1818)
    scenarios = [s for s in scenario_catalog() if any(isinstance(c, DescentChain) for c in s.chains)]
    assert len(scenarios) == 3
    cases = []
    for scenario in scenarios:
        [chain] = scenario.chains
        mutants = [replace(scenario, chains=(mutant,)) for mutant in _descent_mutants(chain)]
        for _ in range(20):
            params = sample_params(scenario, rng)
            cases += [(variant, params) for variant in (scenario, *mutants)]
    built = _count_profiles_built(monkeypatch, limit=100_000)
    at_ends = [verify_full(variant, params) for variant, params in cases]
    assert [r.passed for r in at_ends] == [variant in scenarios for variant, _ in cases]
    built_at_ends = len(built)
    monkeypatch.setattr(verify_module, "_walk", walk_every_level)
    assert [verify_full(variant, params).text() for variant, params in cases] == [
        r.text() for r in at_ends]
    assert len(built) - built_at_ends > built_at_ends  # the walk built the skipped levels


@st.composite
def _affine_chain_records(draw):
    """A chain of at most 30 levels on the cycle domain whose weights start at drawn
    shares and change by the drawn moves' net flow per level, sometimes with 1/400 more
    moved between two of them or a first level that does not sum to 1: its levels,
    steps and domination fail at the end levels or inside, or not at all."""
    rankings, amounts = _CYCLE[0], st.integers(0, 12).map(lambda k: F(k, 400))
    moves = draw(st.lists(st.tuples(st.sampled_from(rankings), st.sampled_from(rankings), amounts),
                          min_size=1, max_size=3))
    if draw(st.booleans()):  # some mass flows back, so a source can hold less than it gives
        moves.append((moves[0][1], moves[0][0], draw(amounts)))
    sign = draw(st.sampled_from([1, -1]))  # an "up" chain gains the net flow per level
    start = [F(draw(st.integers(0, 10)), 20) for _ in range(2)]
    start.append(1 - sum(start) + draw(st.sampled_from([0, 0, 0, F(1, 10)])))
    drifts = draw(st.sampled_from([(0, 0, 0)] * 4 + [(0, F(1, 400), F(-1, 400))]))
    weights = {}
    for r, share, drift in zip(rankings, start, drifts):
        flow = sum(a for _, dst, a in moves if dst == r) - sum(a for src, _, a in moves if src == r)
        weights[r] = [str(share), str(sign * flow + drift)]
    return _record(
        domain=rankings, profiles={"u": dict(zip(rankings, ["1/4", "1/4", "1/2"]))},
        defs=[["n", str(draw(st.integers(0, 30)))]],
        chains=[_affine_chain(
            count="n", weights=weights, moves=[[src, dst, str(a)] for src, dst, a in moves],
            direction="up" if sign == 1 else "down", improvement=["y", "x"],
            pareto_excluded=draw(st.sampled_from([None, "x", "y", "z"])))])


@settings(max_examples=150, deadline=None)
@given(_affine_chain_records(), st.sampled_from([F(1, 5), F(1, 10)]))
def test_drawn_affine_chains_report_as_the_walk(record, epsilon):
    scenario = _parse_scenario(record, "cycle")
    params = ScenarioParams.of(a=F(1, 2), epsilon=epsilon)
    at_ends = verify_full(scenario, params).text()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify_module, "_walk", walk_every_level)
        assert verify_full(scenario, params).text() == at_ends


@pytest.mark.parametrize("fields", [
    {"assume": ["j < 1"]},
    {"window": ["epsilon < j"]},
    {"checks": ["j > 0"]},
    {"identities": [["a", "a + 0*j"]]},
    {"profiles": {"u": {"xyz": "a + j", "yzx": "1 - a - j"}}},
    {"steps": [{"from": "u", "to": "u", "moves": [["xyz", "yzx", "j"]],
                "improvement": ["x", "y"]}]},
    {"chains": [_affine_chain(moves=[["xyz", "yzx", "j"]])]},
], ids=["assume", "window", "check", "identity", "template", "step-move", "chain-move"])
def test_only_affine_chain_weights_may_read_the_chain_index(fields):
    # an affine chain weight reads j only as the factor of its step, base + j*step
    chain = _affine_chain(weights={"xyz": ["a", "-a"], "yzx": ["1 - a", "a"]})
    [(_, (base, step)), _] = _parse_scenario(_record(chains=[chain]), "cycle").chains[0].weights
    assert (base.names, step.names) == ({"a"}, {"a"})
    with pytest.raises(CatalogError, match="^scenario t.1: expression .* uses unknown name 'j'$"):
        _parse_scenario(_record(**{"chains": [chain], **fields}), "cycle")


def _record_with_every_part():
    """`_record` with a step, an affine and a descent chain, a renaming, a note and a window."""
    return _record(
        note="free text", window=["epsilon < 1"],
        steps=[{"from": "u", "to": "u", "moves": [], "improvement": ["x", "y"]}],
        chains=[_affine_chain(kind="affine"),
                {"kind": "descent", "fixed": {}, "components": {"xyz": "a"}, "absorber": "yzx",
                 "base": "u", "pair": "u", "improvement": ["x", "y"]}],
        perm_links=[{"source": "u", "target": "u", "mapping": {"x": "y", "y": "z", "z": "x"}}])


@pytest.mark.parametrize("part,select", [
    ("scenario", lambda raw: raw),
    ("step", lambda raw: raw["steps"][0]),
    ("affine chain", lambda raw: raw["chains"][0]),
    ("descent chain", lambda raw: raw["chains"][1]),
    ("perm link", lambda raw: raw["perm_links"][0]),
], ids=["scenario", "step", "affine-chain", "descent-chain", "perm-link"])
def test_catalog_rejects_an_unknown_key(part, select):
    raw = _record_with_every_part()
    scenario = _parse_scenario(raw, "cycle")
    assert (len(scenario.steps), len(scenario.chains), len(scenario.perm_links)) == (1, 2, 1)
    select(raw)["improvment"] = ["x", "y"]
    with pytest.raises(CatalogError, match=f"^scenario t.1: unknown {part} key 'improvment'$"):
        _parse_scenario(raw, "cycle")


@pytest.mark.parametrize("part,select,keys", [
    ("scenario", lambda raw: raw, ["id", "domain"]),
    ("step", lambda raw: raw["steps"][0], ["from", "to", "moves", "improvement"]),
    ("affine chain", lambda raw: raw["chains"][0],
     ["count", "weights", "moves", "direction", "first", "last", "improvement"]),
    ("descent chain", lambda raw: raw["chains"][1],
     ["components", "absorber", "base", "pair", "improvement"]),
    ("perm link", lambda raw: raw["perm_links"][0], ["source", "target", "mapping"]),
], ids=["scenario", "step", "affine-chain", "descent-chain", "perm-link"])
def test_catalog_rejects_a_missing_key(part, select, keys):
    for key in keys:
        raw = _record_with_every_part()
        del select(raw)[key]
        with pytest.raises(CatalogError) as exc:
            _parse_scenario(raw, "cycle")
        sid = "?" if key == "id" else "t.1"
        assert str(exc.value) == f"scenario {sid}: missing {part} key '{key}'"


def test_a_misspelled_catalog_key_fails_the_load_instead_of_dropping_its_claims():
    # Ignored, `chekcs` and `stpes` would leave a record that verifies on what is left.
    yaml = pytest.importorskip("yaml")
    import importlib.resources
    text = (importlib.resources.files("votaudit.replay") / "data" / "cycle_domain.yaml").read_text(
        encoding="utf-8")
    raw = next(r for r in yaml.safe_load(text) if "checks" in r and "steps" in r)
    assert _parse_scenario(raw, "cycle").checks and _parse_scenario(raw, "cycle").steps
    for key, typo in (("checks", "chekcs"), ("steps", "stpes")):
        misspelt = {typo if k == key else k: v for k, v in raw.items()}
        with pytest.raises(CatalogError, match=f"unknown scenario key '{typo}'"):
            _parse_scenario(misspelt, "cycle")


#: One mutation of `_record_with_every_part` per loader refusal, and the exact message.
_LOADER_REFUSALS = {
    "winner-spec": (lambda raw: raw.update(hypotheses={"u": "w"}), "bad winner spec 'w'"),
    "move-arity": (lambda raw: raw["steps"][0].update(moves=[["xyz", "yzx"]]),
                   "scenario t.1 step: move must be [true, reported, amount]"),
    "move-off-the-domain": (lambda raw: raw["steps"][0].update(moves=[["xyz", "xzy", "a"]]),
                            "scenario t.1 step: move x>y>z->x>z>y leaves the domain"),
    "improvement-shape": (lambda raw: raw["steps"][0].update(improvement=["x"]),
                          "scenario t.1 step: improvement must be [old, new]"),
    "improvement-overlap": (lambda raw: raw["steps"][0].update(improvement=["not:y", "x"]),
                            "scenario t.1 step: improvement sets overlap: ['not:y', 'x']"),
    # two sides of two alternatives each share one of the three
    "improvement-both-plural": (lambda raw: raw["steps"][0].update(improvement=["not:x", "not:y"]),
                                "scenario t.1 step: improvement sets overlap: ['not:x', 'not:y']"),
    "template-off-the-domain": (lambda raw: raw["profiles"]["u"].update(xzy="0"),
                                "scenario t.1 profile u: ranking x>z>y outside the domain"),
    # the file gives the group, and the sampling hints the parameters
    "group": (lambda raw: raw.update(group="cycle"), "scenario t.1: unknown scenario key 'group'"),
    "params": (lambda raw: raw.update(params=["a"]), "scenario t.1: unknown scenario key 'params'"),
    "duplicate-profile-names": (lambda raw: raw["profiles"].update({1: {"xyz": "1"},
                                                                    "1": {"xyz": "1"}}),
                                "scenario t.1: duplicate profile names"),
    "unknown-profile": (lambda raw: raw.update(hypotheses={"w": "x"}),
                        "scenario t.1: hypothesis references unknown profile 'w'"),
    "rule-check-winner": (lambda raw: raw.update(rule_checks=[["u", "borda", "w"]]),
                          "scenario t.1: rule check winner 'w'"),
    "pareto-alternative": (lambda raw: raw.update(pareto_excluded=[["u", "w"]]),
                           "scenario t.1: pareto exclusion of unknown alternative 'w'"),
    "chain-direction": (lambda raw: raw["chains"][0].update(direction="sideways"),
                        "scenario t.1: chain direction must be down or up"),
    "absorber-off-the-domain": (lambda raw: raw["chains"][1].update(absorber="xzy"),
                                "scenario t.1: absorber outside the domain"),
    "chain-kind": (lambda raw: raw["chains"][0].update(kind="spiral"),
                   "scenario t.1: unknown chain kind 'spiral'"),
    # every affine chain's index is j
    "chain-index": (lambda raw: raw["chains"][0].update(index="j"),
                    "scenario t.1: unknown affine chain key 'index'"),
    # each name is bound once: a def names neither a drawn variable nor an earlier def
    "def-rebinds-a-parameter": (lambda raw: raw.update(defs=[["a", "1/2"]]),
                                "scenario t.1: def 'a' rebinds a drawn variable or an earlier def"),
    "def-rebinds-epsilon": (lambda raw: raw.update(defs=[["epsilon", "1/2"]]),
                            "scenario t.1: def 'epsilon' rebinds a drawn variable or an earlier "
                            "def"),
    "def-rebinds-a-def": (lambda raw: raw.update(defs=[["q", "a"], ["q", "1"]]),
                          "scenario t.1: def 'q' rebinds a drawn variable or an earlier def"),
}


@pytest.mark.parametrize("mutate,message", _LOADER_REFUSALS.values(), ids=_LOADER_REFUSALS)
def test_the_loader_names_why_it_refuses_a_record(mutate, message):
    raw = _record_with_every_part()
    assert _parse_scenario(raw, "cycle").id == "t.1"
    mutate(raw)
    with pytest.raises(CatalogError) as exc:
        _parse_scenario(raw, "cycle")
    assert str(exc.value) == message


@pytest.mark.parametrize("field", ["assume", "window", "checks"])
@pytest.mark.parametrize("text,reason", [
    ("0 < a and a < 1", "predicate must be one comparison"),
    ("0 < a < 1", "predicate must be one comparison"),
    ("a != 1", "comparison NotEq not allowed"),
])
def test_the_loader_refuses_a_predicate_that_is_not_one_comparison(field, text, reason):
    # a conjunction is the field's list of comparisons
    both = _parse_scenario(_record(**{field: ["0 < a", "a < 1"]}), "cycle")
    assert [str(p) for p in (*(p for _, p in both.derivation), *both.checks)] == [
        "epsilon > 0", "0 < a", "a < 1"]
    with pytest.raises(CatalogError) as exc:
        _parse_scenario(_record(**{field: [text]}), "cycle")
    assert str(exc.value) == f"scenario t.1: expression {text!r}: {reason}"


def test_a_winner_spec_is_read_once_and_a_refused_one_every_time():
    assert expand_winner_spec("not:x") is expand_winner_spec("not:x")
    assert expand_winner_spec("not:x") == {"y", "z"}
    for _ in range(2):  # a refusal is not kept, so it is raised again
        with pytest.raises(CatalogError, match="^bad winner spec 'w'$"):
            expand_winner_spec("w")
    rng, read = random.Random(5), expand_winner_spec.cache_info().misses
    for scenario in scenario_catalog():  # the loader has read every spec in it
        assert verify_full(scenario, sample_params(scenario, rng)).passed
    assert expand_winner_spec.cache_info().misses == read


def test_the_loader_refuses_duplicate_scenario_ids(monkeypatch):
    yaml = pytest.importorskip("yaml")
    import importlib.resources
    from votaudit.replay import model
    text = (importlib.resources.files("votaudit.replay") / "data" / "cycle_domain.yaml").read_text(
        encoding="utf-8")
    ids = sorted(raw["id"] for raw in yaml.safe_load(text))
    monkeypatch.setattr(model, "_DATA_FILES", (("cycle_domain.yaml", "cycle"),) * 2)
    with pytest.raises(CatalogError) as exc:
        model.scenario_catalog.__wrapped__()  # past the cache of the shipped catalog
    assert str(exc.value) == f"duplicate scenario ids: {ids}"


def test_a_profile_that_fails_to_instantiate_fails_only_the_claims_that_read_it():
    # u sums to 2: its rule check, Pareto exclusion and renaming are not asked, and the
    # step and chains that read it fail
    scenario = _parse_scenario(_record(
        profiles={"u": {"xyz": "a", "yzx": "2 - a"}, "v": {"xyz": "a", "yzx": "1 - a"}},
        rule_checks=[["u", "borda", "x"], ["v", "borda", "y"]], pareto_excluded=[["u", "z"]],
        perm_links=[{"source": "u", "target": "v", "mapping": {"x": "x", "y": "y", "z": "z"}}],
        steps=[{"from": "u", "to": "v", "moves": [], "improvement": ["x", "y"]}],
        chains=[_affine_chain(), {"kind": "descent", "components": {"xyz": "a"},
                                  "absorber": "yzx", "base": "v", "pair": "u",
                                  "improvement": ["x", "y"]}]), "cycle")
    assert verify_full(scenario, ScenarioParams.of(a=F(1, 2), epsilon=F(1, 10))).text() == """\
scenario t.1 at a=1/2, epsilon=1/10
  FAIL  profile u is valid (weights >= 0, sum 1)  (u: weights sum to 2, expected exactly 1)
  pass  profile v is valid (weights >= 0, sum 1)
  pass  borda elects y on v
  FAIL  step 1 (u -> v)  (profile failed to instantiate)
  FAIL  chain (u -> u)  (profile failed to instantiate)
  FAIL  chain (v -> u)  (profile failed to instantiate)"""


def test_a_scenario_with_no_chain_says_so_in_its_chain_report():
    scenario, params = get_scenario("1.I.1.1.1"), _ONE_I
    assert not scenario.chains
    report = verify_induction_chain(scenario, params)
    assert report.text().splitlines()[1:] == ["  pass  scenario declares no induction chain"]
    assert "induction chain" not in verify_full(scenario, params).text()

import argparse
import io
import contextlib
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from votaudit import axioms, cli, core, rules
from votaudit.cli import main
from votaudit.replay import scenario_catalog


CYCLE = """domain: {x>y>z, y>z>x, z>x>y}
1/3 x>y>z
1/3 y>z>x
1/3 z>x>y
"""

NEAR_TIE = """domain: full
7/20 x>y>z
17/50 y>x>z
31/100 z>y>x
"""

UNANIMOUS = "domain: full\n1 x>y>z\n"


@pytest.fixture
def fixtures(tmp_path):
    paths = {}
    for name, text in (("cycle", CYCLE), ("near_tie", NEAR_TIE),
                       ("unanimous", UNANIMOUS)):
        path = tmp_path / f"{name}.profile"
        path.write_text(text)
        paths[name] = str(path)
    bad = tmp_path / "bad.profile"
    bad.write_text("domain: full\nhalf x>y>z\n")
    paths["bad"] = str(bad)
    return paths


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_evaluate_condorcet_cycle(fixtures):
    code, out = run(["evaluate", "--rule", "condorcet", fixtures["cycle"]])
    assert code == 0
    assert "no Condorcet winner (cycle)" in out


def test_evaluate_record_format(fixtures):
    code, out = run(["evaluate", "--rule", "borda", fixtures["unanimous"],
                     "--format", "record"])
    assert code == 0
    assert out.strip() == "outcome rule=borda winner=x tie={x}"


def test_margins_output(fixtures):
    code, out = run(["margins", fixtures["cycle"]])
    assert code == 0
    assert "x over y: 2/3" in out and "z over x: 2/3" in out


def test_richness_exit_codes():
    code, out = run(["richness", "full"])
    assert code == 0 and "rich: yes" in out
    code, out = run(["richness", "{x>y>z, x>z>y, y>z>x, z>y>x}"])
    assert code == 1 and "rich: no" in out


def test_audit_exit_codes(fixtures):
    code, out = run(["audit", "--rule", "borda", fixtures["unanimous"]])
    assert code == 0
    # y wins the near-tie profile outright and survives both pairwise contests
    code, out = run(["audit", "--rule", "borda", "--axioms", "IIA",
                     fixtures["near_tie"]])
    assert code == 0 and "axiom IIA: satisfied" in out


@pytest.mark.parametrize("rule", ["plurality", "borda", "condorcet", "score:3,1,0"])
def test_audit_checks_every_axiom_by_default(fixtures, rule):
    for name in ("cycle", "near_tie", "unanimous"):
        for form in ([], ["--format", "record"]):
            argv = ["audit", "--rule", rule, fixtures[name], *form]
            default = _outputs(lambda: main(argv))
            assert default[1].count("\n") >= 9  # P, A, six renamings and IIA
            assert default == _outputs(
                lambda: main([*argv[:3], "--axioms", "P,A,N,IIA", *argv[3:]]))


def test_audit_detects_iia_violation(tmp_path):
    profile = tmp_path / "iia.profile"
    # dominance count picks y while x beats y pairwise
    profile.write_text("domain: full\n11/20 x>y>z\n9/20 y>z>x\n")
    code, out = run(["audit", "--rule", "borda", "--axioms", "IIA", str(profile)])
    assert code == 1
    assert "axiom IIA: violated" in out


def test_manipulate_profile_and_domain(fixtures):
    code, out = run(["manipulate", "--rule", "plurality", "--epsilon", "1/20",
                     fixtures["near_tie"]])
    assert code == 1
    assert "old=x new=y size=1/50" in out
    # a profile search reads no grid, but its report names the sweep's default one
    code, out = run(["manipulate", "--rule", "plurality", "--epsilon", "1/20",
                     fixtures["unanimous"]])
    assert (code, out) == (0, "no witness at this resolution "
                              "(epsilon=1/20, grid=1/20, moves=1/100)\n")
    code, out = run(["manipulate", "--rule", "borda", "--epsilon", "1/20",
                     "--grid", "12", "--domain", "{x>y>z, y>z>x, z>x>y}"])
    assert code == 0
    assert "no witness" in out


@pytest.mark.parametrize("flags, message", [
    (["--grid", "0"], "error: denominators must be at least 1"),
    (["--moves", "0"], "error: denominators must be at least 1"),
    (["--epsilon", "0"], "error: epsilon must be positive"),
])
def test_manipulate_bad_config_is_input_error(fixtures, capsys, flags, message):
    argv = ["manipulate", "--rule", "plurality", "--epsilon", "1/20", fixtures["near_tie"]]
    code = main(argv + flags)
    assert code == 2
    assert capsys.readouterr().err.strip() == message


def test_manipulate_nongeneric_is_input_error(tmp_path):
    tie = tmp_path / "tie.profile"
    tie.write_text("domain: full\n1/2 x>y>z\n1/2 y>x>z\n")
    code, _ = run(["manipulate", "--rule", "plurality", "--epsilon", "1/20", str(tie)])
    assert code == 2


def test_replay_valid_params():
    code, out = run(["replay", "--case", "1.I.1.1.2",
                     "--a", "21/50", "--b", "7/25", "--epsilon", "1/10"])
    assert code == 0
    assert "result: all checks pass" in out


def test_replay_infeasible_params_are_input_errors(capsys):
    # these values contradict the case's own branch precondition
    code, _ = run(["replay", "--case", "1.I.1.1.2",
                   "--a", "11/20", "--b", "1/4", "--epsilon", "1/10"])
    assert code == 2


def test_replay_def_without_a_value_is_input_error(capsys):
    # a < b breaks a precondition that reads no def; it is named, not the def kp,
    # which divides by n + 1 = 0 there (n = floor((a - b)/epsilon) = -1)
    code = main(["replay", "--case", "1.I.1.1.n+1",
                 "--a", "1/10", "--b", "1/8", "--epsilon", "1/2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: scenario 1.I.1.1.n+1: ")
    assert "precondition '2*a + (1 - a - b) > b + 2*(1 - a - b)' fails" in line


def test_replay_flags_cover_every_catalog_parameter():
    # `replay` takes a parameter only through one of these flags
    params = {name for scenario in scenario_catalog() for name in scenario.params}
    assert params and params <= set(cli._PARAM_FLAGS)


def test_replay_unknown_case():
    code, _ = run(["replay", "--case", "9.Z.1"])
    assert code == 2


def test_replay_reports_at_an_epsilon_of_thousands_of_digits():
    code, out = run(["replay", "--case", "2.I.n+1", "--epsilon", "1e-2000"])
    assert code == 0 and out.splitlines()[-1] == "result: all checks pass"


def test_replay_sampled_points():
    code, out = run(["replay", "--case", "2.II.2", "--points", "3", "--seed", "1"])
    assert code == 0
    assert out.count("scenario 2.II.2") == 3


@pytest.mark.parametrize("points", ["0", "-1"])
def test_replay_without_points_is_input_error(capsys, points):
    code = main(["replay", "--case", "2.I.n+1", "--points", points])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_replay_list():
    code, out = run(["replay", "--list"])
    assert code == 0
    assert "1.I.1.1.n+1" in out and "3.III.2.3.n+1" in out
    # --list lists the catalog, whatever --points and --seed say
    assert run(["replay", "--list", "--points", "3", "--seed", "2"]) == (code, out)


@pytest.mark.parametrize("flag", [("--format", "record"), ("--d", "1/2")])
def test_replay_refuses_options_it_would_not_read(capsys, flag):
    assert main(["replay", "--case", "2.I.n+1", *flag]) == 2
    assert capsys.readouterr().out == ""


def test_parse_error_exit_code(fixtures):
    code, _ = run(["evaluate", "--rule", "borda", fixtures["bad"]])
    assert code == 2
    code, _ = run(["evaluate", "--rule", "nonsense", fixtures["cycle"]])
    assert code == 2
    code, _ = run(["evaluate", "--rule", "borda", "/does/not/exist"])
    assert code == 2


def test_unknown_flags_exit_code():
    assert main(["evaluate", "--bogus"]) == 2
    assert main(["unknownverb"]) == 2


def test_outputs_are_deterministic(fixtures):
    for argv in (
        ["margins", fixtures["cycle"]],
        ["manipulate", "--rule", "plurality", "--epsilon", "1/20", fixtures["near_tie"]],
        ["audit", "--rule", "condorcet", fixtures["near_tie"]],
        ["replay", "--case", "2.III.2", "--points", "2", "--seed", "7"],
    ):
        first = run(argv)
        second = run(argv)
        assert first == second


def test_run_is_reusable_in_process(fixtures, tmp_path, capsys):
    tie = tmp_path / "tie.profile"
    tie.write_text("domain: full\n1/2 x>y>z\n1/2 y>x>z\n")
    requests = (
        ["audit", "--rule", "borda", "--format", "record", fixtures["near_tie"]],
        ["manipulate", "--rule", "plurality", "--epsilon", "1/20", fixtures["near_tie"]],
        ["replay", "--case", "2.III.2", "--seed", "7"],
    )
    first = [cli.run(argv) for argv in requests]
    # requests in between that fail in argparse, sample, and refuse
    assert cli.run(["evaluate", "--bogus", fixtures["cycle"]]) == (2, "")
    code, out = cli.run(["replay", "--case", "2.II.2", "--points", "5", "--seed", "1"])
    assert code == 0 and out.count("scenario 2.II.2") == 5
    code, out = cli.run(["manipulate", "--rule", "plurality", "--epsilon", "1/20", str(tie)])
    assert code == 2 and out.startswith("error: not applicable")
    assert [cli.run(argv) for argv in requests] == first
    # --points from the earlier request does not stick: the default is 20
    assert first[2][1].count("scenario 2.III.2") == 20
    capsys.readouterr()


def test_audit_evaluates_the_base_profile_once(fixtures, monkeypatch):
    seen, called, built = [], [], []
    outcome, evaluate, trusted = rules._outcome, axioms.evaluate, core.Profile._trusted.__func__

    def counting(rule, alternatives, den, counts):
        seen.append(alternatives)
        return outcome(rule, alternatives, den, counts)

    # counted at the kernel, and at the one `evaluate` as `axioms` looks it up, where a
    # traced benchmark run counts the derived elections too
    monkeypatch.setattr(rules, "_outcome", counting)
    monkeypatch.setattr(axioms, "evaluate",
                        lambda *args: called.append(args) or evaluate(*args))
    monkeypatch.setattr(core.Profile, "_trusted",
                        classmethod(lambda cls, *args: built.append(args) or trusted(cls, *args)))
    code, out = cli.run(["audit", "--rule", "borda", "--axioms", "P,A,N,IIA",
                         "--format", "record", fixtures["near_tie"]])
    assert code == 0 and out.count("verdict=satisfied") == 9
    # once on the base profile, once on each of the six renamings, and once on
    # each of the two pairs the winner y is restricted to
    assert len(seen) == len(called) == 9
    assert sum(len(alternatives) == 2 for alternatives in seen) == 2
    # and with no violation, the only profile built is the one read from the file
    assert len(built) == 1


@pytest.mark.parametrize("content,message", [
    (b"domain: {x>y, y>x}\n1 x>y>z\n", "line 1: missing alternative 'z' in 'x>y'"),
    (b"domain: {x>y>z,}\n1 x>y>z\n", "line 1: unknown alternative '' in ''"),
    (b"\xff\xfedomain: full\n1 x>y>z\n", "cannot read "),
    (b"1 x>y>z\n", "line 1: expected 'domain:' header"),
    (b"domain: full\n1/0 x>y>z\n", "bad weight '1/0'"),
    (b"domain: full\nnan x>y>z\n", "bad weight 'nan'"),
    (b"domain: full\n1e-999999999 x>y>z\n", "bad weight '1e-999999999'"),
    (b"domain: full\n1/2 x>y>z\n1/3 y>x>z\n", "weights sum to 5/6, expected exactly 1"),
], ids=["two-alternative-header", "trailing-comma-header", "not-utf8", "missing-header",
        "zero-denominator", "nan", "huge-exponent", "sum-not-one"])
@pytest.mark.parametrize("verb", [
    ["evaluate", "--rule", "borda"],
    ["margins"],
    ["audit", "--rule", "plurality"],
    ["manipulate", "--rule", "condorcet", "--epsilon", "1/20"],
], ids=lambda argv: argv[0])
def test_malformed_profile_file_is_input_error(tmp_path, capsys, verb, content, message):
    path = tmp_path / "bad.profile"
    path.write_bytes(content)
    assert main(verb + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_crlf_and_cr_profile_files_read_as_the_lf_file(tmp_path, capsys, newline):
    def written(name, text):
        path = tmp_path / name
        path.write_bytes(text.encode())
        return str(path)

    text = "# a near tie\n" + NEAR_TIE + "\n"
    assert cli._read_profile(written("cr", text.replace("\n", newline))) == \
        cli._read_profile(written("lf", text))
    # a refused line is numbered alike
    bad = "domain: full\n\n1/2 x>y>z\n1/2 y>x>w\n"
    assert main(["margins", written("lf", bad)]) == 2
    assert main(["margins", written("cr", bad.replace("\n", newline))]) == 2
    lf, cr = capsys.readouterr().err.splitlines()
    assert lf.endswith("lf: line 4: unknown alternative 'w' in 'y>x>w'")
    assert cr == lf.replace("lf:", "cr:")


@pytest.mark.parametrize("offset", [0, 20_014])
def test_undecodable_profile_file_is_refused_as_a_text_reader_would(tmp_path, capsys, offset):
    path = tmp_path / "bad.profile"
    path.write_bytes(b"domain: full\n".ljust(offset, b"#")[:offset] + b"\xff\n1 x>y>z\n")
    with pytest.raises(UnicodeDecodeError) as reading:
        path.read_text(encoding="utf-8")
    assert main(["margins", str(path)]) == 2
    assert capsys.readouterr().err == f"error: cannot read {path}: {reading.value}\n"


INPUT_ERRORS = [
    (["evaluate", "--rule", "nonsense", "{profile}"], "unknown rule 'nonsense'"),
    (["evaluate", "--rule", "score:1,1,1", "{profile}"],
     "degenerate score vector: s1 must exceed s3"),
    (["evaluate", "--rule", "score:0,1,2", "{profile}"], "score vector must be nonincreasing"),
    (["evaluate", "--rule", "score:1/0,0,0", "{profile}"], "bad weight '1/0'"),
    (["evaluate", "--rule", "score:1e-999999999,0,0", "{profile}"],
     "bad weight '1e-999999999'"),
    (["richness", "nope"], "bad domain spec 'nope': expected 'full' or '{...}'"),
    (["richness", "{}"], "domain list is empty"),
    (["richness", "{x>y>w}"], "unknown alternative 'w' in 'x>y>w'"),
    (["richness", "{x>y>z, x>y}"], "missing alternative 'z' in ' x>y'"),
    (["manipulate", "--rule", "plurality", "--epsilon", "0", "{profile}"],
     "epsilon must be positive"),
    (["manipulate", "--rule", "plurality", "--epsilon", "1/20", "--grid", "0", "{profile}"],
     "denominators must be at least 1"),
    (["manipulate", "--rule", "plurality", "--epsilon", "1/20", "--moves", "0", "{profile}"],
     "denominators must be at least 1"),
    (["manipulate", "--rule", "plurality", "--epsilon", "1/20", "--domain", "{x>y>z, q}"],
     "unknown alternative 'q' in ' q'"),
    (["manipulate", "--rule", "plurality", "--epsilon", "nan", "{profile}"],
     "bad epsilon: 'nan'"),
    (["manipulate", "--rule", "borda", "--epsilon", "1e-999999999", "--domain", "full"],
     "bad epsilon: '1e-999999999'"),
    (["manipulate", "--rule", "plurality", "--epsilon", "1/20"],
     "manipulate needs a profile file or --domain"),
    (["manipulate", "--rule", "plurality", "--epsilon", "1/20", "--domain",
      "{x>y>z, y>z>x, z>x>y}", "{dir}/missing.profile"],
     "manipulate takes a profile file or --domain, not both"),
    # a single-profile search reads no grid, not even the sweep's default one
    (["manipulate", "--rule", "plurality", "--epsilon", "1/20", "--grid", "7", "{profile}"],
     "manipulate with a profile file takes no --grid"),
    (["manipulate", "--rule", "borda", "--grid", "20", "--epsilon", "1/10", "{profile}",
      "--format", "record"], "manipulate with a profile file takes no --grid"),
    (["replay", "--case", "1.I.1.1.2", "--a", "11/20", "--b", "1/4", "--epsilon", "1/10"],
     "scenario 1.I.1.1.2: precondition '1 - a - b >= b' fails at "
     "{'a': '11/20', 'b': '1/4', 'epsilon': '1/10'}"),
    (["replay", "--case", "2.I.n+1", "--epsilon", "0"],
     "scenario 2.I.n+1: precondition 'epsilon > 0' fails at {'epsilon': '0'}"),
    (["replay", "--case", "nope"], "unknown scenario id 'nope'"),
    (["replay", "--list", "--case", "1.I.1.1.2"], "replay --list takes no --case"),
    (["replay", "--c", "1/5", "--list", "--b", "1/5", "--a", "1/2", "--epsilon", "1/10"],
     "replay --list takes no --epsilon, --a, --b, --c"),
    # given its parameter values, replay verifies that one point and samples nothing
    (["replay", "--case", "2.I.n+1", "--epsilon", "1/10", "--points", "7", "--seed", "3"],
     "replay with parameter values takes no --points, --seed"),
    (["replay", "--case", "1.I.1.1.2", "--seed", "3", "--a", "21/50", "--b", "7/25",
      "--epsilon", "1/10"], "replay with parameter values takes no --seed"),
    # an epsilon Python reads, at which a value the report would print has too many digits
    (["replay", "--case", "2.I.n+1", "--epsilon", "1e-4299"],
     "scenario 2.I.n+1: a value has more digits than Python's limit on integer text (4300)"),
    (["replay", "--case", "2.I.n+1", "--a", "1/2"], "scenario 2.I.n+1 takes ['epsilon'], not ['a']"),
    (["replay", "--case", "1.I.1.1.2", "--a", "1/2"],
     "scenario 1.I.1.1.2 needs all of ['a', 'b', 'epsilon'] (or none, to sample)"),
    (["replay", "--case", "1.I.1.1.2", "--a", "1/2", "--c", "1/5"],  # extra before partial
     "scenario 1.I.1.1.2 takes ['a', 'b', 'epsilon'], not ['c']"),
    (["replay", "--case", "1.I.1.1.2", "--epsilon", "x", "--a", "nan", "--b", "1/5"],
     "bad a: 'nan'"),  # a, b, c, then epsilon, whatever the argv order
    (["replay", "--case", "1.I.1.1.2", "--a", "1e-999999999", "--b", "1/5", "--epsilon", "1/10"],
     "bad a: '1e-999999999'"),
    (["audit", "--rule", "borda", "--axioms", "Q", "{profile}"],
     "unknown axiom 'Q' (choose from P,A,N,IIA)"),
    (["evaluate", "--rule", "borda", "/dev/null"], "/dev/null: missing 'domain:' header"),
    (["evaluate", "--rule", "borda", "{dir}"],
     "cannot read {dir}: [Errno 21] Is a directory: '{dir}'"),
]


@pytest.mark.parametrize("argv, line", INPUT_ERRORS,
                         ids=[" ".join(argv) for argv, _ in INPUT_ERRORS])
def test_input_error_line(fixtures, tmp_path, capsys, argv, line):
    """Each input error exits 2 with nothing on stdout and one exact line on stderr."""
    def fill(text):
        return text.replace("{profile}", fixtures["near_tie"]).replace("{dir}", str(tmp_path))
    assert main([fill(arg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {fill(line)}\n"


# Token pools for the exit-code contract, each valid half drawn as often as its
# malformed half; argparse itself refuses none of them (it would print a usage block).
_RULES = (["plurality", "borda", "condorcet", "score:3,1,0"],
          ["score:1,1,1", "score:0,1,2", "score:1/0,0,0", "score:1,0", "nonsense"])
_EPSILONS = (["1/10", "1/4"], ["0", "-1", "nan", "1/0", "x", "1e-999999999"])
_DOMAINS = (["full", "{x>y>z, y>z>x, z>x>y}", "{x>y>z, x>z>y, y>z>x, z>y>x}", "{x>y>z}"],
            ["nope", "{}", "{x>y>w}", "{x>y>z, x>y}"])
_AXIOMS = (["P,A,N,IIA", "IIA", "n, p"], ["Q", ""])
_HEADERS = ["domain: full\n", "domain: {x>y>z, y>z>x, z>x>y}\n", ""]
_WEIGHTS = ["1/2", "0.25", "-1/3", "1e999", "1e-999999999", "nan", "1/0"]
_RANKINGS = ["x>y>z", "y>z>x", "z>x>y", "x>y", "x>x>y", "w"]
_PARAMS = ["1/10", "1/5", "1/4", "1/3", "2/5", "1/2", "3/5", "0", "1", "x"]
_PROFILE = "<profile>"  # stands for the drawn profile file's path

_profile_texts = st.one_of(
    st.sampled_from([CYCLE, NEAR_TIE, UNANIMOUS]),
    st.builds(lambda header, lines: header + "".join(f"{w} {r}\n" for w, r in lines),
              st.sampled_from(_HEADERS),
              st.lists(st.tuples(st.sampled_from(_WEIGHTS), st.sampled_from(_RANKINGS)),
                       max_size=4)))


@st.composite
def _requests(draw):
    """An argv for one verb, and the profile file text it reads (or None)."""
    def pick(pool):
        return draw(st.sampled_from(pool))

    def mixed(pools):
        return draw(st.sampled_from(pools[0]) | st.sampled_from(pools[1]))

    verb = pick(["evaluate", "margins", "richness", "audit", "manipulate", "replay"])
    form = pick([[], ["--format", "record"], ["--format", "record", "--format", "text"]])
    if verb == "richness":
        return ["richness", mixed(_DOMAINS), *form], None
    if verb == "replay":
        kind = pick(["list", "unknown", "sampled", "given"])
        scenario = pick(scenario_catalog())
        if kind == "list":
            return ["replay", "--list", *pick([[], ["--case", scenario.id]])], None
        if kind == "unknown":
            return ["replay", "--case", pick(["nope", "9.Z.1", ""])], None
        if kind == "sampled":
            return ["replay", "--case", scenario.id, "--points", pick(["-1", "0", "1", "2"]),
                    "--seed", pick(["0", "7"])], None
        names = draw(st.just(scenario.params) | st.sets(st.sampled_from("abc")))
        values = [arg for name in sorted(names) for arg in (f"--{name}", pick(_PARAMS))]
        return ["replay", "--case", scenario.id, "--epsilon", pick(["1/10", "1/4", "1/2", "1"]),
                *values], None
    text = draw(_profile_texts)
    rule = ["--rule", mixed(_RULES)]
    if verb == "evaluate":
        return ["evaluate", *rule, _PROFILE, *form], text
    if verb == "margins":
        return ["margins", _PROFILE, *form], text
    if verb == "audit":
        return ["audit", *rule, "--axioms", mixed(_AXIOMS), _PROFILE, *form], text
    grid = pick([[], ["--grid", str(draw(st.integers(-1, 6)))]])  # a profile search takes none
    config = ["--epsilon", mixed(_EPSILONS), *grid, "--moves", pick(["0", "10", "20"])]
    domain = ["--domain", mixed(_DOMAINS)]
    target = pick([domain, [_PROFILE], [], [*domain, _PROFILE]])
    return ["manipulate", *rule, *config, *target, *form], text if _PROFILE in target else None


@settings(max_examples=200, deadline=None)
@given(_requests())
def test_exit_code_contract(tmp_path_factory, drawn):
    """0 and 1 print only to stdout; 2 prints nothing there and one `error:` line to stderr."""
    argv, text = drawn
    path = tmp_path_factory.getbasetemp() / "drawn.profile"
    if text is not None:
        path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(path) if arg == _PROFILE else arg for arg in argv])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert err.getvalue().endswith("\n")
    else:
        assert err.getvalue() == ""


# Argparse-level tokens and requests for the dispatch differential: help, `--`,
# abbreviations, `=` forms, extra positionals, unknown verbs and empty argv; and, each
# inserted whole, the option-and-value pairs that `cli._read` leaves to argparse: a
# value failing its `type` or `choices`, or beginning with '-'.
_ARGPARSE_TOKENS = ["-h", "--help", "--", "--ru", "--rule", "--form=record", "--format=text",
                    "--form", "extra", "-x", "--nope", "--h", "-", "evaluate", "nope", "--ep",
                    "--dom", "--a", "--d", "--points=2", "--list", "", "-1/3",
                    ("--grid", "x"), ("--grid", "-1"), ("--moves", "x"), ("--format", "bogus"),
                    ("--epsilon", "-1/3"), ("--points", "x"), ("--seed", "-1"), ("--rule", "")]
_ARGPARSE_REQUESTS = [[], ["-h"], ["--help"], ["--he"], ["--"], ["nope"], ["Evaluate"], ["eval"],
                      ["-h", "evaluate"], ["--", "evaluate"], ["--", "margins", _PROFILE]]


@st.composite
def _dispatch_requests(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(_ARGPARSE_REQUESTS)), CYCLE
    argv, text = draw(_requests())
    for _ in range(draw(st.integers(0, 2))):
        token = draw(st.sampled_from(_ARGPARSE_TOKENS))
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = [token] if isinstance(token, str) else token
    if argv and draw(st.booleans()):
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv, text


def _outputs(call):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = call()
    return result, out.getvalue(), err.getvalue()


def _parse_args_then_command(parser, argv):
    """What `run` answers by the top-level parser's `parse_args` and the command it picks."""
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return (2 if exc.code else 0), ""
    lines = []
    try:
        code = args.func(args, lines.append)
    except ValueError as exc:
        return 2, f"error: {exc}"
    return code, "\n".join(lines)


def _assert_run_dispatches_as_the_top_level_parser_would(tmp_path_factory, argv, text):
    """`run` gives the exit code, report, stdout and stderr, and hands its command the
    namespace, that the top-level parser's `parse_args` followed by the same command gives."""
    path = tmp_path_factory.getbasetemp() / "dispatched.profile"
    if text is not None:
        path.write_text(text)
    argv = [str(path) if arg == _PROFILE else arg for arg in argv]
    namespaces = []

    def recording(command):
        return lambda args, out: namespaces.append(vars(args)) or command(args, out)

    # parsers of this test's own, built on commands that record the namespace each is handed
    commands = {name: recording(command) for name, command in vars(cli).items()
                if name.startswith("_cmd_")}
    with mock.patch.multiple(cli, **commands):
        parser, tables = cli._build_parsers()
    with mock.patch.object(cli, "_parsers", lambda: (parser, tables)):
        dispatched = _outputs(lambda: cli.run(list(argv)))
    assert dispatched == _outputs(lambda: _parse_args_then_command(parser, argv))
    assert len(namespaces) in (0, 2)
    if namespaces:
        ran, parsed = namespaces
        assert ran == parsed  # `verb` and `func` included


@settings(max_examples=300, deadline=None)
@given(_dispatch_requests())
def test_run_dispatches_as_the_top_level_parser_would(tmp_path_factory, drawn):
    _assert_run_dispatches_as_the_top_level_parser_would(tmp_path_factory, *drawn)


# Each rule by which `cli._read` takes a request or leaves it to argparse, on both sides.
@pytest.mark.parametrize("argv", [
    ["evaluate", "--rule", "borda", "--format", "record", _PROFILE],
    ["evaluate", "--format", "record", "--rule", "borda", "--format", "text", _PROFILE],
    ["evaluate", "--rule", "borda", "--format", "bogus", _PROFILE],
    ["evaluate", "--rule", "", _PROFILE],
    ["evaluate", "--rule", "borda", ""],
    ["evaluate", "--rule", "borda", "-"],
    ["evaluate", "--rule", "borda"],
    ["evaluate", _PROFILE],
    ["evaluate", "--rule", "borda", _PROFILE, _PROFILE],
    ["evaluate", "--rule", "borda", _PROFILE, "--format"],
    ["manipulate", "--rule", "borda", "--epsilon", "1/10", "--grid", "3", _PROFILE],
    ["manipulate", "--rule", "borda", "--epsilon", "1/10", "--grid", "x", _PROFILE],
    ["manipulate", "--rule", "borda", "--epsilon", "1/10", "--grid", "-1", _PROFILE],
    ["manipulate", "--rule", "borda", "--epsilon", "-1/3", _PROFILE],
    ["manipulate", "--rule", "borda", "--epsilon", "1/10", "--domain", "full", "--grid", "3"],
    ["replay", "--case", "4.X.9", "--points", "2", "--seed", "5"],
    ["replay", "--case", "4.X.9", "--points", "x"],
    ["replay", "--case", "4.X.9", "--seed", "-1", "--points", "1"],
    ["replay", "--list", "--case", "4.X.9"],
    ["replay", "--list", "--list"],
], ids=lambda argv: " ".join(argv))
def test_run_dispatches_each_reading_rule_as_the_top_level_parser_would(tmp_path_factory,
                                                                         argv):
    _assert_run_dispatches_as_the_top_level_parser_would(tmp_path_factory, argv, NEAR_TIE)


# Each verb's declared arguments, its options and then its positionals, each in the
# order declared: option strings, dest, nargs, type, choices, default, required, help.
# The differential cannot see a change here, as both its sides read these declarations.
_FORMAT = (["--format"], "format", None, None, ("text", "record"), "text", False, None)
_RULE = (["--rule"], "rule", None, None, None, None, True, None)
_PROFILE_ARGUMENT = ([], "profile", None, None, None, None, True, None)
_DECLARED = {
    "evaluate": [_RULE, _FORMAT, _PROFILE_ARGUMENT],
    "margins": [_FORMAT, _PROFILE_ARGUMENT],
    "richness": [_FORMAT, ([], "domain", None, None, None, None, True,
                           "'full' or a ranking set like '{x>y>z, y>z>x}'")],
    "audit": [_RULE, (["--axioms"], "axioms", None, None, None, "P,A,N,IIA", False, None),
              _FORMAT, _PROFILE_ARGUMENT],
    "manipulate": [
        _RULE, (["--epsilon"], "epsilon", None, None, None, None, True, None),
        (["--grid"], "grid", None, int, None, None, False,
         "profile mesh denominator of a --domain sweep (default 20)"),
        (["--moves"], "moves", None, int, None, 100, False, "move mesh denominator"),
        (["--domain"], "domain", None, None, None, None, False,
         "sweep every grid profile on this domain"),
        _FORMAT, ([], "profile", "?", None, None, None, False, None)],
    "replay": [
        (["--case"], "case", None, None, None, None, False, "scenario id, e.g. 1.I.1.1.2"),
        (["--list"], "list", 0, None, None, False, False, "list catalog scenarios"),
        *[([f"--{name}"], name, None, None, None, None, False, None)
          for name in ("epsilon", "a", "b", "c")],
        (["--points"], "points", None, int, None, None, False,
         "random parameter points when none are given"),
        (["--seed"], "seed", None, int, None, None, False, None)],
}


def test_each_verb_declares_its_arguments_in_order():
    _, tables = cli._build_parsers()
    assert list(tables) == list(_DECLARED)
    for name, (_, options, positionals, required, defaults) in tables.items():
        actions = [*dict.fromkeys(options.values()), *positionals]
        assert [(a.option_strings, a.dest, a.nargs, a.type, a.choices, a.default, a.required,
                 a.help) for a in actions] == _DECLARED[name], name
        assert set(required) == {a for a in actions if a.required}
        assert defaults == {"verb": name, "func": getattr(cli, f"_cmd_{name}"),
                            **{a.dest: a.default for a in actions}}


class _Parsed(Exception):
    """Raised in place of argparse's parsing, to show which requests reach it."""


def _refuse_to_parse(*args, **kwargs):
    raise _Parsed


def test_plain_requests_dispatch_without_argparse_and_the_rest_with_it(fixtures):
    # each request shape the `queries` benchmark sends, for each of its rules
    profile = fixtures["near_tie"]
    plain = [argv for rule in ("borda", "plurality", "condorcet", "score:3,1,0") for argv in (
        ["evaluate", "--rule", rule, "--format", "record", profile],
        ["margins", "--format", "record", profile],
        ["audit", "--rule", rule, "--axioms", "P,A,N,IIA", "--format", "record", profile],
        ["manipulate", "--rule", rule, "--epsilon", "1/20", "--format", "record", profile])]
    parsed = [["evaluate", "-h"], ["evaluate", "--ru", "borda", profile],
              ["margins", "--format=record", profile]]
    parser = cli._build_parsers()[0]
    expected = {tuple(argv): _outputs(lambda: _parse_args_then_command(parser, argv))
                for argv in plain + parsed}
    assert {expected[tuple(argv)][0][0] for argv in plain} == {0, 1}
    with mock.patch.object(argparse.ArgumentParser, "parse_known_args", _refuse_to_parse), \
            mock.patch.object(argparse.ArgumentParser, "parse_args", _refuse_to_parse):
        for argv in plain:
            assert _outputs(lambda: cli.run(list(argv))) == expected[tuple(argv)]
        for argv in parsed:
            with pytest.raises(_Parsed):
                cli.run(list(argv))
    for argv in parsed:
        assert _outputs(lambda: cli.run(list(argv))) == expected[tuple(argv)]
    assert expected[("evaluate", "-h")][1].startswith("usage: votaudit evaluate")


def test_importing_the_cli_leaves_the_replay_engine_unloaded():
    # only `replay` needs the replay engine, so no other request pays for its import
    src = str(Path(cli.__file__).parents[1])
    probe = "import sys, votaudit.cli; print('votaudit.replay' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout == "False\n"

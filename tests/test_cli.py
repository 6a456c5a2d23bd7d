import io
import contextlib

import pytest

from votaudit import cli, rules
from votaudit.cli import main


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


def test_audit_detects_iia_violation(tmp_path):
    profile = tmp_path / "iia.profile"
    # dominance count picks y while x beats y pairwise
    profile.write_text("domain: full\n11/20 x>y>z\n9/20 y>z>x\n")
    code, out = run(["audit", "--rule", "borda", "--axioms", "IIA", str(profile)])
    assert code == 1
    assert "axiom IIA: violated" in out


def test_manipulate_profile_and_domain(fixtures):
    code, out = run(["manipulate", "--rule", "plurality", "--epsilon", "1/20",
                     "--grid", "20", fixtures["near_tie"]])
    assert code == 1
    assert "old=x new=y size=1/50" in out
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


def test_replay_unknown_case():
    code, _ = run(["replay", "--case", "9.Z.1"])
    assert code == 2


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
    seen = []
    evaluate = rules.evaluate

    def counting(rule, profile):
        seen.append(profile)
        return evaluate(rule, profile)

    monkeypatch.setattr(rules, "evaluate", counting)
    code, out = cli.run(["audit", "--rule", "borda", "--axioms", "P,A,N,IIA",
                         "--format", "record", fixtures["near_tie"]])
    assert code == 0 and out.count("verdict=satisfied") == 9
    # once on the base profile, once on each of the six permuted profiles, and
    # once on each of the two pairs the winner y is restricted to
    assert len(seen) == 9
    assert sum(len(p.domain.alternatives) == 2 for p in seen) == 2
    assert len({id(p) for p in seen}) == 9


@pytest.mark.parametrize("content,message", [
    (b"domain: {x>y, y>x}\n1 x>y>z\n", "line 1: missing alternative 'z' in 'x>y'"),
    (b"domain: {x>y>z,}\n1 x>y>z\n", "line 1: unknown alternative '' in ''"),
    (b"\xff\xfedomain: full\n1 x>y>z\n", "cannot read "),
    (b"1 x>y>z\n", "line 1: expected 'domain:' header"),
    (b"domain: full\n1/0 x>y>z\n", "bad weight '1/0'"),
    (b"domain: full\nnan x>y>z\n", "bad weight 'nan'"),
    (b"domain: full\n1/2 x>y>z\n1/3 y>x>z\n", "weights sum to 5/6, expected exactly 1"),
], ids=["two-alternative-header", "trailing-comma-header", "not-utf8", "missing-header",
        "zero-denominator", "nan", "sum-not-one"])
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

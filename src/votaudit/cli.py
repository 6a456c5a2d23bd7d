"""Command-line front end.

Verbs: evaluate, margins, richness, audit (axiom checks), manipulate
(coalition search on a profile or a whole-domain sweep), and replay
(scenario verification).  Exit codes: 0 = success / no violation / no
witness; 1 = violation or witness found (or a failed replay check);
2 = input error: any `ValueError` the library raises for bad input (a rule,
domain, profile, configuration or replay precondition), mapped to exit 2 in
`run` alone.  Output is deterministic for fixed inputs.

`run` may be called any number of times in one process: the argument parsers
are built on the first call and reused (parsing keeps no state between calls),
so a request costs only its own work.  A request that names a verb and then
holds only that verb's exact option strings, each but a flag followed by its
value, and positionals, none of them beginning with '-', is read by one lookup
per token (`_read`) into the namespace argparse would give.  Every other
request goes to argparse: to the verb's parser, as the top-level parser would
hand it on, or to the top-level parser when it names no verb.  So does each
request the lookup refuses (a failed `type` or `choices`, a missing required
option, a positional too many), so every usage message, help text and refusal
is argparse's own.  `audit` reads the axioms, their order and its `--axioms`
default from one table, `_AXIOMS`.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from fractions import Fraction

from . import core, rules, axioms, manipulation

EXIT_OK = 0
EXIT_FOUND = 1
EXIT_INPUT = 2


def _read_profile(path: str) -> core.Profile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return core.parse_profile(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except core.ProfileParseError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return core.parse_weight(text)
    except core.ProfileParseError:
        raise ValueError(f"bad {what}: {text!r}") from None


def _cmd_evaluate(args, out) -> int:
    rule = rules.parse_rule(args.rule)
    profile = _read_profile(args.profile)
    outcome = rules.evaluate(rule, profile)
    if args.format == "record":
        tie = ",".join(sorted(outcome.tie_set))
        out(f"outcome rule={rule} winner={outcome.winner or '-'} tie={{{tie}}}")
    else:
        out(f"rule: {rule}")
        if outcome.winner is not None:
            out(f"winner: {outcome.winner}")
        elif not outcome.tie_set:  # only the pairwise rule has an empty tie set
            out("no Condorcet winner (cycle)")
        else:
            out(f"no winner ({outcome})")
    return EXIT_OK


def _cmd_margins(args, out) -> int:
    profile = _read_profile(args.profile)
    margins = rules.condorcet_margins(profile)
    for (first, second), value in sorted(margins.items()):
        if args.format == "record":
            out(f"margin={first},{second} value={value}")
        else:
            out(f"{first} over {second}: {value}")
    return EXIT_OK


def _cmd_richness(args, out) -> int:
    domain = core.parse_domain(args.domain)
    rich = core.is_rich(domain)
    if args.format == "record":
        out(f"domain={domain} rich={'yes' if rich else 'no'}")
    else:
        out(f"domain: {domain}")
        for alt in core.ALTERNATIVES:
            witnesses = [str(r) for r in domain if r.position(alt) == 1]
            shown = ", ".join(witnesses) if witnesses else "none"
            out(f"  {alt} in the middle of: {shown}")
        out(f"rich: {'yes' if rich else 'no'}")
    return EXIT_OK if rich else EXIT_FOUND


#: Each axiom `audit` checks, in report order: its reports on (rule, evaluator, profile).
_AXIOMS = {
    "P": lambda rule, run_rule, profile: [axioms.check_pareto(run_rule, profile)],
    "A": lambda rule, run_rule, profile: [axioms.check_anonymity_structural(rule)],
    "N": lambda rule, run_rule, profile: [axioms.check_neutrality(run_rule, profile, perm)
                                          for perm in core.ALL_PERMUTATIONS],
    "IIA": lambda rule, run_rule, profile: [axioms.check_iia(run_rule, profile)],
}


def _cmd_audit(args, out) -> int:
    rule = rules.parse_rule(args.rule)
    profile = _read_profile(args.profile)
    wanted = [a.strip().upper() for a in args.axioms.split(",")]
    for axiom in wanted:
        if axiom not in _AXIOMS:
            raise ValueError(f"unknown axiom {axiom!r} (choose from {','.join(_AXIOMS)})")
    base = rules.evaluate(rule, profile)

    def run_rule(prof: core.Profile) -> rules.Outcome:
        # Each checker starts from `profile` itself, so its outcome is kept;
        # every permuted or restricted profile is evaluated afresh, so the
        # checks still compare real evaluations.
        return base if prof is profile else rules.evaluate(rule, prof)

    reports = [report for axiom, check in _AXIOMS.items() if axiom in wanted
               for report in check(rule, run_rule, profile)]
    violated = False
    for report in reports:
        if args.format == "record":
            out(report.record())
            if report.counterexample is not None and not report.satisfied:
                for prof in report.counterexample.profiles:
                    out(core.format_profile(prof))
        else:
            out(report.text())
        violated = violated or report.verdict is axioms.Verdict.VIOLATED
    return EXIT_FOUND if violated else EXIT_OK


def _cmd_manipulate(args, out) -> int:
    rule = rules.parse_rule(args.rule)
    epsilon = _parse_fraction(args.epsilon, "epsilon")
    config = manipulation.AuditConfig(epsilon, args.grid, args.moves)
    if args.domain is not None:
        witness = manipulation.audit_wsp(rule, core.parse_domain(args.domain), config)
    else:
        if args.profile is None:
            raise ValueError("manipulate needs a profile file or --domain")
        profile = _read_profile(args.profile)
        try:
            witness = manipulation.find_manipulation(rule, profile, config)
        except manipulation.NongenericProfileError as exc:
            raise ValueError(f"not applicable: {exc}") from None
    if witness is None:
        out(f"no witness at this resolution (epsilon={epsilon}, "
            f"grid=1/{config.grid_denominator}, moves=1/{config.move_denominator})")
        return EXIT_OK
    if args.format == "text":
        out("manipulation witness:")
    out(manipulation.format_witness(witness))
    return EXIT_FOUND


_PARAM_FLAGS = ("a", "b", "c")  # every catalog scenario's parameters are among these


def _cmd_replay(args, out) -> int:
    # Imported here, so no other verb pays for compiling the replay engine.
    from .replay import ScenarioParams, get_scenario, sample_params, scenario_catalog, verify_full

    if args.list:
        for scenario in scenario_catalog():
            out(f"{scenario.id}  [{scenario.group}]  params: "
                + (", ".join(scenario.params) or "(epsilon only)"))
        return EXIT_OK
    if not args.case:
        raise ValueError("replay needs --case ID (or --list)")
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, not {args.points}")
    scenario = get_scenario(args.case)
    given = {name: _parse_fraction(getattr(args, name), name)
             for name in (*_PARAM_FLAGS, "epsilon") if getattr(args, name) is not None}
    needed = set(scenario.params) | {"epsilon"}
    if extra := set(given) - needed:
        raise ValueError(f"scenario {scenario.id} takes {sorted(needed)}, not {sorted(extra)}")
    if given and set(given) != needed:
        raise ValueError(
            f"scenario {scenario.id} needs all of {sorted(needed)} (or none, to sample)")
    rng = random.Random(args.seed)
    points = ([ScenarioParams.of(**given)] if given
              else [sample_params(scenario, rng) for _ in range(args.points)])
    all_ok = True
    for params in points:
        try:
            report = verify_full(scenario, params)
            out(report.text())
        except ValueError as exc:  # a value at a given point that Python will not print
            if "integer string conversion" not in str(exc):
                raise
            raise ValueError(f"scenario {scenario.id}: a value has more digits than Python's "
                             f"limit on integer text ({sys.get_int_max_str_digits()})") from None
        all_ok = all_ok and report.passed
    out(f"result: {'all checks pass' if all_ok else 'CHECK FAILURES'}")
    return EXIT_OK if all_ok else EXIT_FOUND


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each verb's own parser by name."""
    parser = argparse.ArgumentParser(
        prog="votaudit",
        description="Exact-rational election analysis over three alternatives.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "record"), default="text")

    p = sub.add_parser("evaluate", help="evaluate a rule on a profile")
    p.add_argument("--rule", required=True)
    p.add_argument("profile")
    add_format(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("margins", help="pairwise majority margins of a profile")
    p.add_argument("profile")
    add_format(p)
    p.set_defaults(func=_cmd_margins)

    p = sub.add_parser("richness", help="check the middle-position richness of a domain")
    p.add_argument("domain", help="'full' or a ranking set like '{x>y>z, y>z>x}'")
    add_format(p)
    p.set_defaults(func=_cmd_richness)

    p = sub.add_parser("audit", help="check axioms for a rule on a profile")
    p.add_argument("--rule", required=True)
    p.add_argument("--axioms", default=",".join(_AXIOMS))
    p.add_argument("profile")
    add_format(p)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("manipulate", help="search for a small-coalition manipulation")
    p.add_argument("--rule", required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--grid", type=int, default=20, help="profile mesh denominator")
    p.add_argument("--moves", type=int, default=100, help="move mesh denominator")
    p.add_argument("--domain", help="sweep every grid profile on this domain")
    p.add_argument("profile", nargs="?")
    add_format(p)
    p.set_defaults(func=_cmd_manipulate)

    p = sub.add_parser("replay", help="verify a catalog scenario")
    p.add_argument("--case", help="scenario id, e.g. 1.I.1.1.2")
    p.add_argument("--list", action="store_true", help="list catalog scenarios")
    for name in ("epsilon", *_PARAM_FLAGS):
        p.add_argument(f"--{name}")
    p.add_argument("--points", type=int, default=20,
                   help="random parameter points when none are given")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_replay)
    return parser, sub.choices


# The parsers `run` uses, built on its first call (not at import) and then kept.
_parsers = functools.cache(_build_parsers)


@functools.cache
def _table(verb: argparse.ArgumentParser):
    """What `_read` needs of a verb's parser, read from its actions once: each option
    string's action, the positionals in order, the required actions and the defaults."""
    actions = [a for a in verb._actions if a.default is not argparse.SUPPRESS]
    defaults = {a.dest: a.default for a in actions}
    for dest, value in verb._defaults.items():  # `set_defaults`, as argparse adds them
        defaults.setdefault(dest, value)
    options = {string: a for a in actions for string in a.option_strings}
    return (options, [a for a in actions if not a.option_strings],
            [a for a in actions if a.required], defaults)


def _read(verb: argparse.ArgumentParser, tokens: list[str]) -> argparse.Namespace | None:
    """The namespace `verb.parse_known_args(tokens)` gives with nothing left over, for a
    request in the plain shape below; None for any other request, left to argparse.

    The plain shape holds exact option strings, each but a flag followed by its value,
    and positionals; no value or positional begins with '-'.  Each value passes its
    action's `type` and `choices`, every required action is given, and no positional is
    left over.  Each action stores its value itself, as under argparse.
    """
    options, positionals, required, defaults = _table(verb)
    args = argparse.Namespace()
    vars(args).update(defaults)  # cheaper than `Namespace(**defaults)`, which sets each
    slots = iter(positionals)
    given = set()
    tokens = iter(tokens)
    for token in tokens:
        if token.startswith("-"):
            action, option = options.get(token), token
            if action is not None and action.nargs == 0:  # a flag: it stores its `const`
                action(verb, args, [], option)
                given.add(action)
                continue
            text = next(tokens, None)
        else:
            action, option, text = next(slots, None), None, token
        if action is None or text is None or text.startswith("-"):
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        action(verb, args, value, option)
        given.add(action)
    return args if given.issuperset(required) else None


def run(argv: list[str]) -> tuple[int, str]:
    """Execute one command; returns (exit code, textual report).

    A request that names a verb first is read from that verb's table by
    `_read` when it can be.  Otherwise it goes to the verb's parser, as the
    top-level parser would hand it on, and the top-level parser refuses what is
    left over, as its `parse_args` would.  Any other request (no verb, help, an
    unknown verb) goes to the top-level parser.
    """
    parser, verbs = _parsers()
    try:
        verb = verbs.get(argv[0]) if argv else None
        if verb is None:
            args = parser.parse_args(argv)
        elif (args := _read(verb, argv[1:])) is None:
            args, extra = verb.parse_known_args(argv[1:])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        # argparse exits 2 on bad flags, matching the input-error contract
        return (EXIT_INPUT if exc.code else EXIT_OK), ""
    lines: list[str] = []
    try:
        code = args.func(args, lines.append)
    except ValueError as exc:  # every input error, the library's and the CLI's own
        return EXIT_INPUT, f"error: {exc}"
    return code, "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    code, report = run(sys.argv[1:] if argv is None else argv)
    if code == EXIT_INPUT and report.startswith("error:"):
        print(report, file=sys.stderr)
    elif report:
        print(report)
    return code


if __name__ == "__main__":
    sys.exit(main())

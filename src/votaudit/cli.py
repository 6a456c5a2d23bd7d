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
so a request costs only its own work.  `_build_parsers` declares each verb's
arguments once, and the actions that declaration returns are the table by which
`_read` reads a request that names a verb and then holds only that verb's exact
option strings, each but a flag followed by its value, and positionals, none of
them beginning with '-': one lookup per token, into the namespace argparse
would give.  Every other request goes to the top-level parser's `parse_args`,
the one fallback: no verb, help, an abbreviation, an `=` form, `--`, and each
request the lookup refuses (a failed `type` or `choices`, a missing required
option, a positional too many), so every usage message, help text and refusal
is argparse's own.  `audit` reads the axioms, their order and its `--axioms`
default from one table, `_AXIOMS`.
"""

from __future__ import annotations

import argparse
import functools
import io
import random
import sys
from fractions import Fraction

from . import core, rules, axioms, manipulation

EXIT_OK = 0
EXIT_FOUND = 1
EXIT_INPUT = 2


def _read_profile(path: str) -> core.Profile:
    try:
        with io.FileIO(path) as handle:  # unbuffered: the file is read in one call
            text = handle.readall().decode("utf-8")
        return core.parse_profile(text)
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


#: Each axiom `audit` checks, in report order: its reports on an `axioms.Election`.
_AXIOMS = {
    "P": lambda e: [axioms.check_pareto(e, e.profile)],
    "A": lambda e: [axioms.check_anonymity_structural(e.rule)],
    "N": lambda e: [axioms.check_neutrality(e, e.profile, perm) for perm in core.ALL_PERMUTATIONS],
    "IIA": lambda e: [axioms.check_iia(e, e.profile)],
}


def _cmd_audit(args, out) -> int:
    rule = rules.parse_rule(args.rule)
    profile = _read_profile(args.profile)
    wanted = [a.strip().upper() for a in args.axioms.split(",")]
    for axiom in wanted:
        if axiom not in _AXIOMS:
            raise ValueError(f"unknown axiom {axiom!r} (choose from {','.join(_AXIOMS)})")
    # The rule is evaluated on the profile once, for every check; each renamed or
    # restricted election is evaluated afresh, so the checks compare real evaluations.
    election = axioms.Election(rule, profile)
    reports = [report for axiom, check in _AXIOMS.items() if axiom in wanted
               for report in check(election)]
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
    config = manipulation.AuditConfig(epsilon, 20 if args.grid is None else args.grid, args.moves)
    if args.domain is not None:
        if args.profile is not None:
            raise ValueError("manipulate takes a profile file or --domain, not both")
        witness = manipulation.audit_wsp(rule, core.parse_domain(args.domain), config)
    else:
        if args.profile is None:
            raise ValueError("manipulate needs a profile file or --domain")
        if args.grid is not None:  # a single-profile search reads no grid
            raise ValueError("manipulate with a profile file takes no --grid")
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
        ignored = [f"--{name}" for name in ("case", "epsilon", *_PARAM_FLAGS)
                   if getattr(args, name) is not None]
        if ignored:
            raise ValueError(f"replay --list takes no {', '.join(ignored)}")
        for scenario in scenario_catalog():
            out(f"{scenario.id}  [{scenario.group}]  params: "
                + (", ".join(scenario.params) or "(epsilon only)"))
        return EXIT_OK
    if not args.case:
        raise ValueError("replay needs --case ID (or --list)")
    points = 20 if args.points is None else args.points
    if points < 1:
        raise ValueError(f"--points must be at least 1, not {points}")
    scenario = get_scenario(args.case)
    given = {name: _parse_fraction(getattr(args, name), name)
             for name in (*_PARAM_FLAGS, "epsilon") if getattr(args, name) is not None}
    needed = set(scenario.params) | {"epsilon"}
    if extra := set(given) - needed:
        raise ValueError(f"scenario {scenario.id} takes {sorted(needed)}, not {sorted(extra)}")
    if given and set(given) != needed:
        raise ValueError(
            f"scenario {scenario.id} needs all of {sorted(needed)} (or none, to sample)")
    if given and (sampling := [f"--{name}" for name in ("points", "seed")
                               if getattr(args, name) is not None]):
        raise ValueError(f"replay with parameter values takes no {', '.join(sampling)}")
    rng = random.Random(0 if args.seed is None else args.seed)
    all_ok = True
    for params in ([ScenarioParams.of(**given)] if given
                   else [sample_params(scenario, rng) for _ in range(points)]):
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


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, tuple]]:
    """The top-level parser, and for each verb by name what `_read` reads it by: the
    verb's parser, its actions by option string, its positionals in order, its required
    actions, and the namespace defaults its parser gives, `verb` and `func` included."""
    parser = argparse.ArgumentParser(
        prog="votaudit",
        description="Exact-rational election analysis over three alternatives.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    tables = {}

    def add(name, func, summary, *arguments):  # each argument is an `arg`, in help order
        verb = sub.add_parser(name, help=summary)
        verb.set_defaults(func=func)
        actions = [verb.add_argument(*flags, **options) for flags, options in arguments]
        tables[name] = (verb, {string: a for a in actions for string in a.option_strings},
                        [a for a in actions if not a.option_strings],
                        [a for a in actions if a.required],
                        {"verb": name, "func": func, **{a.dest: a.default for a in actions}})

    def arg(*flags, **options):
        return flags, options

    form = arg("--format", choices=("text", "record"), default="text")
    rule = arg("--rule", required=True)
    add("evaluate", _cmd_evaluate, "evaluate a rule on a profile", rule, arg("profile"), form)
    add("margins", _cmd_margins, "pairwise majority margins of a profile", arg("profile"), form)
    add("richness", _cmd_richness, "check the middle-position richness of a domain",
        arg("domain", help="'full' or a ranking set like '{x>y>z, y>z>x}'"), form)
    add("audit", _cmd_audit, "check axioms for a rule on a profile",
        rule, arg("--axioms", default=",".join(_AXIOMS)), arg("profile"), form)
    add("manipulate", _cmd_manipulate, "search for a small-coalition manipulation",
        rule, arg("--epsilon", required=True),
        arg("--grid", type=int, help="profile mesh denominator of a --domain sweep (default 20)"),
        arg("--moves", type=int, default=100, help="move mesh denominator"),
        arg("--domain", help="sweep every grid profile on this domain"),
        arg("profile", nargs="?"), form)
    add("replay", _cmd_replay, "verify a catalog scenario",
        arg("--case", help="scenario id, e.g. 1.I.1.1.2"),
        arg("--list", action="store_true", help="list catalog scenarios"),
        *[arg(f"--{name}") for name in ("epsilon", *_PARAM_FLAGS)],
        arg("--points", type=int, help="random parameter points when none are given"),
        arg("--seed", type=int))
    return parser, tables


# The parsers `run` uses, built on its first call (not at import) and then kept.
_parsers = functools.cache(_build_parsers)


def _read(table: tuple, tokens: list[str]) -> argparse.Namespace | None:
    """The namespace the top-level parser's `parse_args` gives for a request that names
    the verb of `table` (from `_build_parsers`) and then holds `tokens` in the plain shape
    below; None for any other request, left to that parser.

    The plain shape holds exact option strings, each but a flag followed by its value,
    and positionals; no value or positional begins with '-'.  Each value passes its
    action's `type` and `choices`, every required action is given, and no positional is
    left over.  Each action stores its value itself, as under argparse.
    """
    verb, options, positionals, required, defaults = table
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

    A request that names a verb first is read from that verb's table by `_read`
    when it can be.  Every other request (no verb, help, an abbreviation, an `=`
    form, `--`, and each one `_read` refuses) goes to the top-level parser's
    `parse_args`, so argparse runs at this one place.
    """
    parser, tables = _parsers()
    try:
        table = tables.get(argv[0]) if argv else None
        if table is None or (args := _read(table, argv[1:])) is None:
            args = parser.parse_args(argv)
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

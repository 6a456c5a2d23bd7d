"""Spans and counters around votaudit's public functions, for the traced run.

`Tracer.installed()` replaces each hooked function in every loaded votaudit
module that holds it, so callers are traced where they look the name up
(``votaudit.manipulation.evaluate``, ``votaudit.replay.verify.evaluate_expression``,
...), and restores the originals on exit.  Methods are hooked on their class.

Spans are aggregated as they close, per name: calls, total time and self
time, where self time is the span's duration minus the time covered by the
spans it directly encloses.  Millions of spans would not fit in memory, so no
per-span record is kept.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from collections import Counter
from time import perf_counter

from votaudit.manipulation import NongenericProfileError

#: (span name, module, attribute).  Several attributes may share a span name.
#: A hooked name that no longer exists leaves its span empty, with a warning.
HOOKS = (
    ("core.Profile", "votaudit.core", "Profile.__init__"),
    ("core.transfer_weight", "votaudit.core", "transfer_weight"),
    ("core.parse_profile", "votaudit.core", "parse_profile"),
    ("rules.evaluate", "votaudit.rules", "evaluate"),
    ("rules.condorcet_margins", "votaudit.rules", "condorcet_margins"),
    ("rules.scores", "votaudit.rules", "borda_scores"),
    ("rules.scores", "votaudit.rules", "plurality_scores"),
    ("rules.scores", "votaudit.rules", "scoring_scores"),
    ("axioms.check_pareto", "votaudit.axioms", "check_pareto"),
    ("axioms.check_neutrality", "votaudit.axioms", "check_neutrality"),
    ("axioms.check_iia", "votaudit.axioms", "check_iia"),
    ("manipulation.audit_wsp", "votaudit.manipulation", "audit_wsp"),
    ("manipulation.grid_profiles", "votaudit.manipulation", "grid_profiles"),
    ("manipulation.find_manipulation", "votaudit.manipulation", "find_manipulation"),
    ("manipulation.branch_search", "votaudit.manipulation", "_Branch.search"),
    ("replay.scenario_catalog", "votaudit.replay.model", "scenario_catalog"),
    ("replay.sample_params", "votaudit.replay.verify", "sample_params"),
    ("replay.verify_full", "votaudit.replay.verify", "verify_full"),
    ("replay.verify_scenario", "votaudit.replay.verify", "verify_scenario"),
    ("replay.verify_induction_chain", "votaudit.replay.verify", "verify_induction_chain"),
    ("replay.evaluate_expression", "votaudit.replay.expressions", "evaluate_expression"),
    ("replay.evaluate_predicate", "votaudit.replay.expressions", "evaluate_predicate"),
    ("cli.run", "votaudit.cli", "run"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = {}  # name -> [calls, total s, self s]
        self.counts: Counter = Counter()
        self._stack: list[float] = []  # time covered by children of each open span
        self.active = True  # False while the benchmark checks outputs (see `paused`)
        # span name -> (snapshot before the call, update after it)
        self._hooks = {
            "manipulation.find_manipulation": (None, self._after_find),
            "manipulation.audit_wsp": (self._audit_snapshot, self._after_audit),
            "replay.verify_full": (None, self._after_verify),
        }

    # -- span bookkeeping -------------------------------------------------

    def _open(self) -> float:
        self._stack.append(0.0)
        return perf_counter()

    def _close(self, stats: list[float], start: float) -> None:
        elapsed = perf_counter() - start
        covered = self._stack.pop()
        stats[0] += 1
        stats[1] += elapsed
        stats[2] += elapsed - covered
        if self._stack:
            self._stack[-1] += elapsed

    def _wrap(self, name: str, fn, count: str | None = None):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        before, after = self._hooks.get(name, (None, None))
        counts = self.counts

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            state = before() if before else None
            if count:
                counts[count] += 1
            start = self._open()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(stats, start)
                if after:
                    after(state, None, exc)
                raise
            self._close(stats, start)
            if after:
                after(state, result, None)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        """Span each resumption of the generator; count what it yields."""
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        counts = self.counts

        def spanned(inner):
            while True:
                start = self._open()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(stats, start)
                counts[name + ".items"] += 1
                yield item

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            return spanned(inner) if self.active else inner

        return traced

    # -- counters derived at hooked boundaries ----------------------------

    def _after_find(self, state, result, error) -> None:
        if isinstance(error, NongenericProfileError):
            self.counts["manipulation.nongeneric_skipped"] += 1
        elif result is not None:
            self.counts["manipulation.witnesses"] += 1

    def _audit_snapshot(self) -> tuple[int, int]:
        return (self.counts["manipulation.grid_profiles.items"],
                self.spans["manipulation.find_manipulation"][0])

    def _after_audit(self, state, result, error) -> None:
        # audit_wsp hands every generic grid profile to find_manipulation and
        # skips the rest, so the difference is the nongeneric profiles it skipped.
        profiles, searched = self._audit_snapshot()
        self.counts["manipulation.nongeneric_skipped"] += (
            (profiles - state[0]) - (searched - state[1]))

    def _after_verify(self, state, result, error) -> None:
        if result is not None:
            self.counts["replay.points"] += 1
            self.counts["replay.checks"] += len(result.results)

    # -- installation -----------------------------------------------------

    @contextlib.contextmanager
    def paused(self):
        """Leave calls made in the block untraced: the benchmark's own checks
        call votaudit too, and their work is not the program's."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    @contextlib.contextmanager
    def installed(self):
        """Trace every hook for the duration of the block."""
        restore = []
        try:
            for name, module_name, attr in HOOKS:
                module = importlib.import_module(module_name)
                owner_name, _, method = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, method, None)
                if original is None:
                    print(f"perfbench: no {module_name}.{attr}; span {name} stays empty",
                          file=sys.stderr)
                    self.spans.setdefault(name, [0, 0.0, 0.0])
                    continue
                if owner_name:
                    setattr(owner, method, self._wrap(name, original))
                    restore.append((owner, method, original))
                    continue
                for holder in [m for k, m in sys.modules.items()
                               if k == "votaudit" or k.startswith("votaudit.")]:
                    for key, value in list(vars(holder).items()):
                        if value is not original:
                            continue
                        if name == "manipulation.grid_profiles":
                            wrapped = self._wrap_generator(name, original)
                        else:
                            # transfer_weight called from the search is a leaf evaluation
                            leaf = (name == "core.transfer_weight"
                                    and holder.__name__ == "votaudit.manipulation")
                            wrapped = self._wrap(name, original,
                                                 "manipulation.leaves" if leaf else None)
                        setattr(holder, key, wrapped)
                        restore.append((holder, key, original))
            yield self
        finally:
            for holder, key, original in reversed(restore):
                setattr(holder, key, original)

    # -- report -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        spans, counts = self.spans, self.counts

        def span(metric: str, name: str, *fields: str) -> None:
            calls, total, own = spans.get(name, (0, 0.0, 0.0))
            for field in fields:
                if field == "calls":
                    out[f"{metric}.calls"] = (calls, "count")
                elif field == "self_ms":
                    out[f"{metric}.self_ms"] = (own * 1e3, "ms")
                elif field == "us_per_call":
                    out[f"{metric}.us_per_call"] = (total / calls * 1e6 if calls else 0.0, "us")

        span("core.Profile", "core.Profile", "calls", "self_ms")
        span("core.transfer_weight", "core.transfer_weight", "calls", "self_ms")
        span("core.parse_profile", "core.parse_profile", "calls", "self_ms")
        span("rules.evaluate", "rules.evaluate", "calls", "self_ms", "us_per_call")
        span("rules.condorcet_margins", "rules.condorcet_margins", "calls", "self_ms")
        span("rules.scores", "rules.scores", "calls", "self_ms")
        for check in ("check_pareto", "check_neutrality", "check_iia"):
            span(f"axioms.{check}", f"axioms.{check}", "calls", "self_ms")
        span("manipulation.audit_wsp", "manipulation.audit_wsp", "calls", "self_ms")
        span("manipulation.grid_profiles", "manipulation.grid_profiles", "self_ms")
        out["manipulation.grid_profiles.profiles"] = (
            counts["manipulation.grid_profiles.items"], "count")
        span("manipulation.find_manipulation", "manipulation.find_manipulation",
             "calls", "self_ms")
        witnesses, leaves = counts["manipulation.witnesses"], counts["manipulation.leaves"]
        out["manipulation.find_manipulation.witnesses"] = (witnesses, "count")
        out["manipulation.branch_searches"] = (
            spans.get("manipulation.branch_search", (0,))[0], "count")
        out["manipulation.nongeneric_skipped"] = (
            counts["manipulation.nongeneric_skipped"], "count")
        out["manipulation.leaves"] = (leaves, "count")
        out["manipulation.leaf_yield"] = (witnesses / leaves if leaves else 0.0, "ratio")
        span("replay.scenario_catalog", "replay.scenario_catalog", "self_ms")
        for name in ("sample_params", "verify_scenario", "verify_induction_chain",
                     "evaluate_expression", "evaluate_predicate"):
            span(f"replay.{name}", f"replay.{name}", "calls", "self_ms")
        points, checks = counts["replay.points"], counts["replay.checks"]
        out["replay.checks"] = (checks, "count")
        out["replay.checks_per_point"] = (checks / points if points else 0.0, "checks/point")
        span("cli.run", "cli.run", "calls", "self_ms")
        return out

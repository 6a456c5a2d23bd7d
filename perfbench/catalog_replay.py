"""Workload `replay`: sampled catalog scenario points, as ``votaudit replay`` checks them.

One operation is one scenario-point: seeded `sample_params` followed by
`verify_full`.  Each pass visits all 76 scenarios once, in an order drawn
from the seed; each scenario samples from its own seeded generator, so the
points of a scenario do not depend on the visiting order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from votaudit import replay

SETUP = "import votaudit.replay\nvotaudit.replay.scenario_catalog()"
MIN_OPS = 1000  # at least one block of the latency percentiles (run.BLOCK)
PASS_LEN = 1
POOL_BY_KEY = False
TRACED_OPS = 1520  # twenty points per scenario
DIGEST_OPS = 1000
SEED_INVARIANT = False


@dataclass(frozen=True)
class Op:
    key: str
    scenario: object
    rng: random.Random
    expect: bool = True  # the report passes
    weight: int = 1


def ops(seed: int):
    catalog = replay.scenario_catalog()
    rngs = [random.Random(f"replay/{seed}/{s.id}") for s in catalog]
    order = random.Random(f"replay/{seed}/order")
    visit = list(range(len(catalog)))
    while True:
        order.shuffle(visit)
        for i in visit:
            yield Op(catalog[i].id, catalog[i], rngs[i])


def execute(op: Op):
    return replay.verify_full(op.scenario, replay.sample_params(op.scenario, op.rng))


def check(op: Op, report) -> str | None:
    if report.passed == op.expect:
        return None
    failures = "; ".join(r.line() for r in report.failures()) or "every check passed"
    return f"scenario {op.key} at {report.params}: expected passed={op.expect}: {failures}"


def digest_line(op: Op, report) -> str:
    return report.text()


def perturb(op: Op) -> Op:
    return replace(op, expect=not op.expect)

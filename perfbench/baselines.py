"""Reproduce the single-run baselines quoted in ROADMAP.md, as medians of repeats.

    python3 perfbench/baselines.py [--out perfbench/baselines.json]

Run from the root of a source checkout.  Each figure is the median and the
quartiles of REPEATS runs in this process, in wall time and scaled to the
nominal host speed as the benchmark scales it (see `speed.py`); the JSON
written to `--out` also records the Python version, nproc and the CPU model.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
from fractions import Fraction
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import votaudit as va  # noqa: E402
from votaudit import replay  # noqa: E402

REPEATS = 5
#: (name, rule, grid, the ROADMAP's seconds); epsilon 1/20, move mesh 1/100.
AUDITS = (
    ("audit_wsp plurality full grid 1/20", va.PLURALITY, 20, 14.7),
    ("audit_wsp borda full grid 1/12", va.BORDA, 12, 3.7),
    ("audit_wsp condorcet full grid 1/12", va.CONDORCET, 12, 1.8),
)
#: The ROADMAP's evaluate cost per profile, in microseconds.
EVALUATE_US = {"plurality": 35, "borda": 93, "condorcet": 84}


def timed(sampler: speed.SpeedSampler, fn) -> tuple[float, float]:
    """(wall, nominal) seconds of `fn()`, less the sampler's own time."""
    mark = sampler.mark()
    fn()
    wall = sampler.wall(mark)
    return wall, wall * sampler.speed(mark)


def _require(report) -> None:
    if not report.passed:
        raise RuntimeError(f"scenario {report.scenario_id} fails at {report.params}")


def replay_points(points: int) -> None:
    """What ``votaudit replay --case ID --points N --seed 0`` does, for every scenario."""
    for scenario in replay.scenario_catalog():
        rng = random.Random(0)
        for _ in range(points):
            _require(replay.verify_full(scenario, replay.sample_params(scenario, rng)))


def criterion_6() -> None:
    """The sampled part of acceptance criterion 6: 76 scenarios x 100 points."""
    rng = random.Random(2024)
    for scenario in replay.scenario_catalog():
        for _ in range(100):
            params = replay.sample_params(scenario, rng)
            _require(replay.verify_scenario(scenario, params))
            if scenario.chains:
                _require(replay.verify_induction_chain(scenario, params))


def evaluate_all(rule, profiles) -> None:
    for profile in profiles:
        va.evaluate(rule, profile)


def summary(samples: list[float], scale: float) -> dict:
    q = quantiles(samples, n=4) if len(samples) > 1 else [samples[0]] * 3
    return {"median": median(samples) * scale, "q1": q[0] * scale, "q3": q[2] * scale}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=Path(__file__).parent / "baselines.json")
    args = parser.parse_args()

    replay.scenario_catalog()
    results = []
    sampler = speed.SpeedSampler()

    def record(name: str, unit: str, roadmap: float, fn, scale: float = 1.0) -> None:
        with sampler:
            runs = [timed(sampler, fn) for _ in range(REPEATS)]
        wall = summary([w for w, _ in runs], scale)
        nominal = summary([n for _, n in runs], scale)
        results.append({"name": name, "unit": unit, "roadmap": roadmap, "runs": len(runs),
                        "wall": wall, "nominal": nominal})
        print(f"{name}: wall median {wall['median']:.4g} {unit} (q1 {wall['q1']:.4g}, "
              f"q3 {wall['q3']:.4g}); nominal median {nominal['median']:.4g} "
              f"(q1 {nominal['q1']:.4g}, q3 {nominal['q3']:.4g}); ROADMAP {roadmap}",
              flush=True)

    for name, rule, grid, roadmap in AUDITS:
        config = va.AuditConfig(Fraction(1, 20), grid, 100)
        record(name, "s", roadmap, lambda: va.audit_wsp(rule, va.FULL_DOMAIN, config))
    profiles = list(va.grid_profiles(va.FULL_DOMAIN, 12))
    for rule_name, roadmap in EVALUATE_US.items():
        rule = va.parse_rule(rule_name)
        record(f"evaluate {rule_name}, per profile on the full-domain 1/12 grid", "us",
               roadmap, lambda: evaluate_all(rule, profiles), 1e6 / len(profiles))
    record("replay 76 scenarios x 30 points", "s", 5.3, lambda: replay_points(30))
    record("criterion 6 sampling, 76 scenarios x 100 points", "s", 13.9, criterion_6)

    args.out.write_text(json.dumps({
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "results": results,
    }, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

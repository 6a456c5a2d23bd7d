"""votaudit benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload sweep|replay|queries --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``votaudit`` from
``src/``.  All work happens in this process, on one thread, closed loop:
each operation starts when the previous one has returned.

With ``--trace 0`` the operations run unpatched for ``--seconds`` (and at
least the workload's minimum), and the end-to-end metrics are reported.
With ``--trace 1`` the workload's first ``TRACED_OPS`` operations run once
untraced and once under the tracer (see `tracer.py`): a fixed amount of work,
so the counts are exact for the seed and ``--seconds`` does not apply.  The
checks of the outputs are not traced.  The per-layer metrics include
``op_p99_ms`` of the untraced pass.  Times are scaled to a nominal host speed
(see `speed.py`).

Every operation's output is checked, outside its timed interval, and the
outputs of the first ``DIGEST_OPS`` operations of the default seed must hash
to the digest pinned in ``pinned.json``.  The last line on stdout is the
JSON result; diagnostics go to stderr.  The exit code is 0 only when every
check held.  ``--perturb`` alters one expectation or the pinned digest, so
that a run shows its gate is not vacuous.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import subprocess
import sys
from array import array
from pathlib import Path
from statistics import median
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
SETUP_PROBES = 7
#: Operations per block of the latency percentiles; p99 has ten samples beyond it.
BLOCK = 1000
#: Workload name -> module.  A workload module provides SETUP, the set-up code
#: (also run by the set-up probes); ops(seed), an endless stream of operations
#: with a `key` and a `weight`; execute(op); check(op, output), None or what is
#: wrong; digest_line(op, output); perturb(op); and the constants MIN_OPS,
#: PASS_LEN, POOL_BY_KEY, TRACED_OPS, DIGEST_OPS and SEED_INVARIANT.
WORKLOADS = {"sweep": "sweep", "replay": "catalog_replay", "queries": "queries"}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_votaudit() -> None:
    if not (SRC / "votaudit" / "__init__.py").is_file():
        _fail(f"no votaudit sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import votaudit
    if Path(votaudit.__file__).resolve().parent != SRC / "votaudit":
        _fail(f"imported votaudit from {votaudit.__file__}, not from {SRC}")


#: A set-up probe: the workload's set-up code between two speed measurements,
#: which take the place of the sampler in a process this short.
PROBE = """
from time import perf_counter
import speed
spent = perf_counter()
for _ in range(2):
    speed.reference()
def ref():
    start = perf_counter()
    speed.reference()
    return perf_counter() - start
refs = [ref() for _ in range(3)]
spent = perf_counter() - spent
{code}
spent -= perf_counter()
refs += [ref() for _ in range(3)]
spent += perf_counter()
print("ready", speed.NOMINAL_S * len(refs) / sum(refs), spent, flush=True)
"""


def setup_seconds(code: str) -> tuple[float, float]:
    """Median (wall, nominal) seconds from starting a fresh interpreter until
    `code` has run, less the probe's own speed measurements.  One discarded
    probe first, so bytecode caching does not count."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    walls, nominals = [], []
    for _ in range(SETUP_PROBES + 1):
        start = perf_counter()
        with subprocess.Popen([sys.executable, "-c", PROBE.format(code=code)], cwd=ROOT,
                              env=env, stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline().split()
            wall = perf_counter() - start
            child.stdout.read()
        if len(ready) != 3 or ready[0] != "ready" or child.returncode != 0:
            _fail(f"set-up probe failed: {code!r}")
        wall -= float(ready[2])
        walls.append(wall)
        nominals.append(wall * float(ready[1]))
    return median(walls[1:]), median(nominals[1:])


def percentile(values, weights, share: float) -> float:
    """Nearest-rank percentile, where values[i] stands for weights[i] operations.

    Unweighted values (`weights` None) are per-operation latencies in run
    order: the percentile is taken in each block of BLOCK consecutive
    operations, and the median over the whole blocks is returned, so that a
    few seconds of a slow host do not set the tail of a whole run."""
    if weights is None:
        rank = math.ceil(share * BLOCK) - 1
        return median(sorted(values[i:i + BLOCK])[rank]
                      for i in range(0, len(values) - BLOCK + 1, BLOCK))
    rank = math.ceil(share * sum(weights))
    covered = 0
    for value, weight in sorted(zip(values, weights)):
        covered += weight
        if covered >= rank:
            return value
    raise ValueError("no samples")


class Gate:
    """Checks every output and collects the digest lines of the first operations."""

    def __init__(self, workload, sampler: speed.SpeedSampler, digest_ops: int,
                 untraced=contextlib.nullcontext):
        self.workload = workload
        self.sampler = sampler
        self.digest_ops = digest_ops
        self.untraced = untraced  # a context that keeps the checks out of a trace
        self.lines: list[str] = []
        self.attempted = 0
        self.failed = 0

    def run(self, op, perturb: bool = False) -> tuple[float, float | None]:
        """Execute one operation.  Returns its duration in seconds, less sampling
        time, and the host speed sampled during it, if it held enough samples."""
        wl = self.workload
        if perturb:
            op = wl.perturb(op)
        start = self.sampler.mark()
        try:
            output, raised = wl.execute(op), None
        except Exception as exc:  # a raising operation is a failed one
            output, raised = None, exc
        elapsed, own = self.sampler.wall(start), self.sampler.own_speed(start)
        with self.untraced():
            problem = f"{op.key}: raised {raised!r}" if raised else wl.check(op, output)
            if len(self.lines) < self.digest_ops:
                self.lines.append("error" if raised else wl.digest_line(op, output))
        self.attempted += op.weight
        if problem is not None:
            self.failed += op.weight
            if self.failed <= 5 * op.weight:
                print(f"perfbench: check failed: {problem}", file=sys.stderr)
        return elapsed, own

    def digest(self) -> str:
        return hashlib.sha256("\n\0".join(sorted(self.lines)).encode()).hexdigest()


class Durations:
    """Operation durations, scaled to the nominal host speed by the speed sampled
    during the operation when it held OWN_SAMPLES samples, and otherwise during
    the whole phase.  Short operations are not scaled one by one: the host's
    second-to-second swings do not correlate between neighbouring samples.
    Kept in flat arrays, 16 bytes an operation, so peak memory hardly depends
    on speed."""

    def __init__(self, sampler: speed.SpeedSampler):
        self.sampler = sampler
        self.wall = array("d")
        self.speeds = array("d")  # 0.0 where the operation held too few samples
        self._phase = sampler.mark()

    def add(self, elapsed: float, own: float | None) -> None:
        self.wall.append(elapsed)
        self.speeds.append(own or 0.0)

    def nominal(self) -> array:
        phase = self.sampler.speed(self._phase)
        return array("d", (d * (s or phase) for d, s in zip(self.wall, self.speeds)))


def measure(gate: Gate, stream, seconds: float = math.inf, min_ops: int = 0,
            pass_len: int = 1, perturb: bool = False) -> tuple[float, float, list, list | None]:
    """Run operations until `seconds` have passed, at least `min_ops` operations
    have run and a pass is complete, or until the stream ends.

    Returns the operations per wall second and per nominal second, and latency
    samples in nominal ms as values and weights.  An operation covering w units
    (an audit covering w grid profiles) stands for w operations of its duration
    divided by w; with `POOL_BY_KEY`, the operations of one key (one audit
    configuration) are pooled first."""
    pool = gate.workload.POOL_BY_KEY
    work, durations, ops = 0, Durations(gate.sampler), []
    start = perf_counter()
    for n, op in enumerate(stream, 1):
        durations.add(*gate.run(op, perturb and n == 1))
        work += op.weight
        if pool:
            ops.append(op)
        if n >= min_ops and n % pass_len == 0 and perf_counter() - start >= seconds:
            break
    nominal = durations.nominal()
    rates = work / sum(durations.wall), work / sum(nominal)
    if not pool:
        return *rates, array("d", (t * 1e3 for t in nominal)), None
    pooled: dict[str, list] = {}
    for op, t in zip(ops, nominal):
        entry = pooled.setdefault(op.key, [0.0, 0])
        entry[0] += t
        entry[1] += op.weight
    return (*rates, [t / w * 1e3 for t, w in pooled.values()],
            [w for _, w in pooled.values()])


@contextlib.contextmanager
def prefix(wl, seed: int, count: int):
    """The first `count` operations of the seed's stream."""
    with contextlib.closing(wl.ops(seed)) as stream:
        yield itertools.islice(stream, count)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", choices=("expected", "digest"),
                        help="alter one expected output or the pinned digest")
    args = parser.parse_args()

    _import_votaudit()
    wl = __import__(WORKLOADS[args.workload])
    pinned = json.loads((HERE / "pinned.json").read_text())[args.workload]
    if args.perturb == "digest":
        pinned = pinned[::-1]
    started = perf_counter()

    digest_ops = wl.DIGEST_OPS if args.seed == DEFAULT_SEED or wl.SEED_INVARIANT else 0
    perturb = args.perturb == "expected"
    if not args.trace:
        setup_wall, setup_s = setup_seconds(wl.SETUP)
    with speed.SpeedSampler() as sampler:
        if args.trace:
            # The same first operations run untraced, then traced, so the counts
            # are exact for the seed and the overhead ratio compares equal work.
            from tracer import Tracer
            tracer = Tracer()
            gate = Gate(wl, sampler, digest_ops, tracer.paused)
            with tracer.installed():
                exec(wl.SETUP, {})
            with prefix(wl, args.seed, wl.TRACED_OPS) as stream:
                _, untraced, latencies, weights = measure(gate, stream, perturb=perturb)
            with tracer.installed(), prefix(wl, args.seed, wl.TRACED_OPS) as stream:
                _, traced, _, _ = measure(gate, stream)
            metrics = tracer.metrics()
            metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
            metrics["op_p99_ms"] = (percentile(latencies, weights, 0.99), "ms")
        else:
            gate = Gate(wl, sampler, digest_ops)
            exec(wl.SETUP, {})
            with contextlib.closing(wl.ops(args.seed)) as stream:
                wall_rate, rate, latencies, weights = measure(
                    gate, stream, args.seconds, wl.MIN_OPS, wl.PASS_LEN, perturb)
            metrics = {
                "setup_s": (setup_s, "s"),
                "ops_per_s": (rate, "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "MB"),
                "op_p50_ms": (percentile(latencies, weights, 0.50), "ms"),
            }
            print(f"perfbench: unscaled setup_s={setup_wall:.4g} ops_per_s={wall_rate:.6g}; "
                  f"host speed {sampler.speed_sum / sampler.samples:.3f} "
                  f"of nominal over {sampler.samples} samples; "
                  f"op_p99_ms={percentile(latencies, weights, 0.99):.4g}", file=sys.stderr)

        if digest_ops:
            digest = gate.digest()
        else:
            # Other seeds: run the default seed's first operations, untimed, for the digest.
            default = Gate(wl, sampler, wl.DIGEST_OPS)
            with prefix(wl, DEFAULT_SEED, wl.DIGEST_OPS) as stream:
                measure(default, stream)
            gate.attempted += default.attempted
            gate.failed += default.failed
            digest = default.digest()
    digest_ok = digest == pinned
    if not digest_ok:
        print(f"perfbench: output digest {digest} differs from the pinned {pinned}",
              file=sys.stderr)

    correct = gate.failed == 0 and digest_ok
    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={gate.attempted} failed={gate.failed} "
          f"fail_ratio={gate.failed / gate.attempted:.6g} digest_ok={digest_ok} "
          f"wall_s={perf_counter() - started:.1f} python={platform.python_version()} "
          f"nproc={os.cpu_count()}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of circlering: one named workload, measured end to end or traced per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload construct --seed 1 --seconds 20 --trace 0

The library is imported from `src/` of the checkout.  Inputs are made
from `--seed` before timing starts.  Each workload is a closed loop with
one caller in this process; every output is checked, outside the timed
interval, by the independent checkers in `checks.py`.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the lines before it state the run's stamp, its
input shares and every metric by name with its unit.  Timings are
scaled to a nominal machine speed (see `SpeedGauge`); the raw ones are
in the info line.

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1`
the run first measures untraced throughput, then installs wrappers at
the layer boundaries (see `tracing.py`), replays the same inputs and
reports the per-layer metrics; the spans go to `bench/results/`.
"""

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import types
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_REPEATS = 9


def load_library():
    """Import circlering afresh from the checkout, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "circlering" or n.startswith("circlering.")]:
        del sys.modules[name]
    cr = importlib.import_module("circlering")
    cli = importlib.import_module("circlering.cli")
    if Path(cr.__file__).resolve().parent != SRC / "circlering":
        raise RuntimeError(f"circlering imported from {cr.__file__}, not from {SRC}")
    return types.SimpleNamespace(cr=cr, cli=cli)


def stamp(workload: str, seed: int, seconds: int, trace: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "circlering").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "loop": "closed, one caller, one process",
    }


def git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class _Residue:
    """A boxed residue, so a reference loop allocates and calls like the library does."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def mul(self, other):
        return _Residue(self.v * other.v % 10007)

    def add(self, other):
        return _Residue((self.v + other.v) % 10007)


_PAIRS = [(i * 7919 % 100003, i * 104729 % 100003) for i in range(20000)]


def _arith():
    """Small-integer arithmetic and dict stores."""
    acc, table = 0, {}
    for i in range(1200):
        t = (i * i + 7) % 10007
        acc += t
        table[t & 255] = t


def _objects():
    """Short-lived slotted objects, method calls and a set of tuples."""
    x, y, seen = _Residue(3), _Residue(5), set()
    for i in range(500):
        x = x.mul(y).add(_Residue(i))
        seen.add((x.v, i & 63))


def _tables():
    """Tuple-keyed dict traffic over a larger working set, then a sort."""
    table = {}
    for i in range(0, len(_PAIRS), 29):
        a, b = _PAIRS[i]
        table[(a, b)] = table.get((b, a), _Residue(a * b % 100003))
    sorted(table.values(), key=lambda r: r.v)


_BIG, _MODULUS = 7**1500, 3**1700 + 1


def _bigint():
    """Multiplication, reduction and gcd of integers of a few thousand bits."""
    x = _BIG
    for _ in range(12):
        x = x * x % _MODULUS
        math.gcd(x, _MODULUS)


# reference loops and their times at the nominal machine speed
REFERENCE = {
    "arith": (_arith, 0.00025),
    "objects": (_objects, 0.00065),
    "tables": (_tables, 0.0007),
    "bigint": (_bigint, 0.0007),
}


def reference_seconds(loop) -> float:
    """Time of one reference loop, with the garbage collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    loop()
    seconds = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return seconds


class SpeedGauge:
    """Scales timings to the nominal machine speed.

    On a shared machine the speed drifts by tens of percent over seconds
    to minutes; on a shared 2-core virtual machine the same operation
    repeated varied by 30% (quartile distance over median).  Reference
    loops run right before and right after each timed interval, and the
    interval is scaled by the loops' nominal time over the mean of the
    two, which cancels the drift common to both.
    Integer-heavy and object-heavy code do not slow down alike, so the
    factor is a weighted geometric mean over loops of both kinds, with
    weights that follow the workload's own mix.
    """

    def __init__(self, weights: dict):
        self.weights = weights
        self.last = self._measure()
        self.factors = []

    def _measure(self) -> dict:
        return {name: reference_seconds(REFERENCE[name][0]) for name in self.weights}

    def scale(self, seconds: float) -> float:
        now = self._measure()
        factor = 1.0
        for name, weight in self.weights.items():
            nominal = REFERENCE[name][1]
            factor *= (nominal / ((self.last[name] + now[name]) / 2)) ** weight
        self.last = now
        self.factors.append(factor)
        return seconds * factor


def attempt(workload, lib, spec, item, tracer):
    """Run one operation; returns its result and None, or None and the error."""
    try:
        return workload.op(lib, spec, item, tracer), None
    except Exception as exc:  # an operation that raises counts as failed
        return None, f"{type(exc).__name__}: {exc}"


class Run:
    """Counts and latencies of the operations of one run."""

    def __init__(self, workload, lib, gauge):
        self.workload = workload
        self.lib = lib
        self.gauge = gauge
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, spec, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append({"spec": repr(spec)[:300], "problems": problems[:3]})

    def check(self, spec, item, out) -> list:
        wl = self.workload
        try:
            return wl.check(self.lib, spec, item, wl.raw(out))
        except Exception as exc:  # an output the checker cannot read fails
            return [f"check raised {type(exc).__name__}: {exc}"]

    def one(self, spec, item, tracer=None):
        """Run one operation and check it; returns its latency, raw and scaled."""
        if tracer is not None:
            tracer.op = self.attempted
        t0 = time.perf_counter()
        out, error = attempt(self.workload, self.lib, spec, item, tracer)
        latency = time.perf_counter() - t0
        scaled = self.gauge.scale(latency)
        if tracer is not None:
            tracer.op = None
            tracer.paused = True
        self.record(spec, [error] if error else self.check(spec, item, out))
        if tracer is not None:
            tracer.paused = False
        return latency, scaled

    def rounds(self, rounds, built, budget: float, tracer=None):
        """Whole rounds of operations until `budget` seconds of scaled operation time.

        Returns the raw latencies, the scaled latencies and the specs run.
        """
        raw, scaled, done = [], [], []
        k = 0
        while k == 0 or sum(scaled) < budget:
            specs, items = rounds[k % len(rounds)], built[k % len(built)]
            for spec, item in zip(specs, items):
                latency, latency_scaled = self.one(spec, item, tracer)
                raw.append(latency)
                scaled.append(latency_scaled)
            done += specs
            k += 1
        return raw, scaled, done


def set_up(workload, rounds, seed):
    """Import the library, build the workload's objects and run one warm-up op.

    Returns the library, the built rounds, the warm-up's spec, item,
    result and error, and the seconds it all took.
    """
    t0 = time.perf_counter()
    lib = load_library()
    built = workload.build(lib, rounds)
    warm_spec = workload.warmup_spec(seed)
    warm_item = workload.build(lib, [[warm_spec]])[0][0]
    warm_out, warm_error = attempt(workload, lib, warm_spec, warm_item, None)
    return lib, built, (warm_spec, warm_item, warm_out, warm_error), time.perf_counter() - t0


def latency_values(raw, scaled) -> dict:
    """Throughput and latency percentiles of scaled latencies, with the raw ones for reference."""

    def stats(latencies):
        ms = sorted(x * 1e3 for x in latencies)
        return len(ms) / sum(latencies), statistics.median(ms), statistics.quantiles(ms, n=10)[8]

    ops, p50, p90 = stats(scaled)
    raw_ops, raw_p50, raw_p90 = stats(raw)
    return {
        "ops_per_s": ops, "op_p50_ms": p50, "op_p90_ms": p90,
        "raw": {"ops_per_s": raw_ops, "op_p50_ms": raw_p50, "op_p90_ms": raw_p90},
        "samples": len(raw),
        "samples_beyond_p90": sum(x * 1e3 > p90 for x in scaled),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "circlering" / "__init__.py").is_file():
        print(f"error: no circlering sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    rounds = workload.generate(args.seed)

    gauge = SpeedGauge(workload.REFERENCE_WEIGHTS)
    setups, setups_raw = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # every set-up starts with the same collector state
        lib, built, warm, seconds = set_up(workload, rounds, args.seed)
        setups_raw.append(seconds)
        setups.append(gauge.scale(seconds))
    gc.collect()
    run = Run(workload, lib, gauge)
    warm_spec, warm_item, warm_out, warm_error = warm
    run.record(warm_spec, [warm_error] if warm_error else run.check(warm_spec, warm_item, warm_out))

    info = stamp(args.workload, args.seed, args.seconds, args.trace)
    if args.trace == 0:
        raw, scaled, done = run.rounds(rounds, built, args.seconds)
        lat = latency_values(raw, scaled)
        values = {
            "ops_per_s": lat.pop("ops_per_s"),
            "op_p50_ms": lat.pop("op_p50_ms"),
            "op_p90_ms": lat.pop("op_p90_ms"),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = reported(values, "end_to_end")
        lat["raw"]["setup_s"] = statistics.median(setups_raw)
        info.update(lat)
    else:
        raw, scaled, done = run.rounds(rounds, built, args.seconds / 3)
        untraced = len(scaled) / sum(scaled)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_built = workload.build(lib, rounds)  # set-up again, traced
            raw, scaled, done = run.rounds(rounds, traced_built, args.seconds * 2 / 3, tracer)
        finally:
            tracer.uninstall()
        values = tracer.metrics(len(raw))
        values["trace.overhead_ratio"] = untraced / (len(scaled) / sum(scaled))
        metrics = reported(values, "per_layer")
        info["samples"] = len(raw)
        info["spans"] = {"recorded": tracer.next_id, "kept": len(tracer.spans), "dropped": tracer.dropped}
        info["computed_not_counted"] = ["maximal.validated_pairs"]
        RESULTS.mkdir(exist_ok=True)
        tracer.write_spans(RESULTS / f"spans-{args.workload}.jsonl", info)

    info["setup_runs_s"] = setups_raw
    info["speed_factor_quartiles"] = statistics.quantiles(gauge.factors, n=4)
    info["input_shares"] = workload.shares(done)
    info["failed_ratio"] = run.failed / run.attempted
    if run.problems:
        info["problems"] = run.problems
    print(json.dumps({"info": info}))
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_ratio {info['failed_ratio']:.6g} ratio "
          f"({run.failed} of {run.attempted} ops)")
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def reported(values: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json lists under `kind`, with their units."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        listed = json.load(fh)[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


if __name__ == "__main__":
    sys.exit(main())

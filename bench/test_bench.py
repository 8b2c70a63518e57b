"""Self-tests of the benchmark: its checkers, its tracer and its output.

Run from the root of the repository:

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


def small_specs(workload, seed=1):
    """A few cheap operations of each kind from the workload's first rounds."""
    specs = [s for r in workload.generate(seed)[:3] for s in r]
    if workload.name == "construct":
        specs = [s for s in specs if s.get("p", 0) <= 31]
    elif workload.name == "sweep":
        specs = [s for s in specs if s.get("p", 0) <= 53 and s.get("m", 0) <= 200]
    return specs[:12]


def run_ops(workload, lib, specs, corrupt=None, tracer=None):
    """Run and check operations the way a benchmark run does; `corrupt` edits the raw output."""
    if corrupt is not None:
        raw = workload.raw
        workload.raw = lambda out: corrupt(raw(out))
    built = workload.build(lib, [specs])[0]
    r = run.Run(workload, lib, run.SpeedGauge(workload.REFERENCE_WEIGHTS))
    for spec, item in zip(specs, built):
        r.one(spec, item, tracer)
    return r


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_passes_its_checks(name, lib):
    workload = workloads.WORKLOADS[name]()
    specs = small_specs(workload)
    r = run_ops(workload, lib, specs)
    assert r.attempted == len(specs) > 0
    assert r.failed == 0, r.problems


def test_point_swapped_into_wrong_class_fails(lib):
    workload = workloads.Construct()
    spec = workload.prime_spec(workloads.random.Random(3), 13)

    def swap(raw):
        a, b = raw["classes"]
        a[0], b[0] = b[0], a[0]
        return raw

    assert run_ops(workload, lib, [spec]).failed == 0
    r = run_ops(workload, lib, [spec], corrupt=swap)
    assert r.failed == 1
    assert any("rational" in p for p in r.problems[0]["problems"])


def test_every_flipped_wire_byte_fails(lib):
    workload = workloads.Keyex()
    spec = workload.warmup_spec(1)
    params = workload.build(lib, [[spec]])[0][0]
    raw = workload.raw(workload.op(lib, spec, params, None))
    assert workload.check(lib, spec, params, raw) == []
    wire = raw["wire"]
    for i in range(len(wire)):
        flipped = bytearray(wire)
        flipped[i] ^= 0x01
        assert workload.check(lib, spec, params, dict(raw, wire=bytes(flipped))), f"byte {i}"
    r = run_ops(workload, lib, [spec], corrupt=lambda raw: dict(raw, wire=raw["wire"][:-1] + b"\x02"))
    assert r.failed == 1


def test_record_with_match_false_fails(lib):
    workload = workloads.Sweep()
    specs = [{"kind": "record", "p": 13}, {"kind": "mod4", "m": 60}]

    def mismatch(raw):
        if "docs" in raw:
            raw["docs"][0]["match"] = False
        else:
            raw["match"] = False
        return raw

    r = run_ops(workload, lib, specs, corrupt=mismatch)
    assert (r.attempted, r.failed) == (2, 2)


def test_checkers_agree_with_independent_counts():
    assert checks.odd_primes_up_to(30) == [3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert [checks.class_size(p) for p in (5, 7, 13)] == [2, 4, 6]
    assert all(checks.Fp2(p, *f).irreducible() for p, f in workloads.Construct.EXTENSIONS.items())


def traced_metrics(workload, lib):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        specs = small_specs(workload)
        r = run_ops(workload, lib, specs, tracer=tracer)
    finally:
        tracer.uninstall()
    assert r.failed == 0, r.problems
    return tracer.metrics(r.attempted)


def test_trace_separates_the_layers(lib):
    construct = traced_metrics(workloads.Construct(), lib)
    keyex = traced_metrics(workloads.Keyex(), lib)
    sweep = traced_metrics(workloads.Sweep(), lib)
    assert construct["rotation.rot_pow_calls"] == sweep["rotation.rot_pow_calls"] == 0
    assert construct["keyex.sessions"] == sweep["keyex.sessions"] == 0
    assert keyex["maximal.validated_pairs"] == 0
    assert construct["maximal.validated_pairs"] > 0
    assert keyex["keyex.sessions"] == 1 and keyex["rotation.muls_per_pow"] > 0
    assert sweep["sweeps.records"] > 0 and sweep["cli.invocations"] > 0
    assert lib.cr.enumerate_circle.__module__ == "circlering.plane"
    assert not hasattr(lib.cr.enumerate_circle, "__wrapped__")


def test_tracer_nests_self_time(lib):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        f = lib.cr.PrimeField(101)
        c = lib.cr.circle(f, (0, 0), 1)
        lib.cr.grow_maximal_set(c, lib.cr.enumerate_circle(c)[0])
        tracer.op = None
    finally:
        tracer.uninstall()
    grow = [s for s in tracer.spans if s[3] == "maximal.grow_maximal_set"]
    assert len(grow) == 1
    children = [s for s in tracer.spans if s[1] == grow[0][0]]
    assert children and all(grow[0][4] <= s[4] <= s[5] <= grow[0][5] for s in children)
    assert 0 < tracer.self_s["maximal"] < grow[0][5] - grow[0][4]


def bench_command(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_listed_metric(trace):
    out = bench_command(run.ROOT, "--workload", "sweep", "--seed", "3", "--seconds", "0.01", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = spec["end_to_end" if trace == "0" else "per_layer"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in listed
    }


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = bench_command(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""

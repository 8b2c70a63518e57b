"""Per-layer tracing: wrappers around each layer's public functions and methods.

The tracer is installed only in the traced phase of a run.  Each wrapped
call records a span (layer, name, start, end, parent span, operation)
and a count at the same boundary.  Self time, the span's duration minus
the time covered by its child spans, is accumulated per layer while the
run goes on; spans themselves are kept in memory up to a cap and written
out when the run ends.
"""

import functools
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("fields", "plane", "maximal", "rotation", "keyex", "sweeps", "cli")

# Methods wrapped as class attributes, per layer; module-level public
# functions are found automatically.  FieldElement.__eq__/__hash__ are left
# out on purpose: sets and dicts call them so often that wrapping them would
# swamp the trace, so their cost shows in the caller's self time.
METHODS = {
    "fields": {
        "FieldElement": (
            "__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "__pow__",
            "inverse", "is_square", "sqrt", "is_prime_subfield_square", "prime_sqrt",
        ),
    },
    "plane": {"Circle": ("contains", "require")},
    "maximal": {"CircularPointSet": ("__init__",)},
    "keyex": {"ProtocolParams": ("__init__",)},
}

SPAN_CAP = 25_000

SQUARED_DISTANCE = "plane.squared_distance"
ROT_MUL = "rotation.rot_mul"
ROT_POW = "rotation.rot_pow"
MAXIMAL_RESULTS = {
    "maximal.grow_maximal_set": len,
    "maximal.partition_prime_field_circle": lambda sets: sum(map(len, sets)),
    "maximal.partition_rational_circle_points": lambda groups: sum(map(len, groups.values())),
    "maximal.enumerate_emaximal_sets": lambda sets: sum(map(len, sets)),
}


def _validated_pairs(tracer, result, args, kwargs):
    validate = kwargs.get("validate", args[5] if len(args) > 5 else True)
    if validate:
        n = len(args[0].points)
        tracer.counts["maximal.validated_pairs"] += n * (n - 1) // 2


def _dlog_iterations(tracer, result, args, kwargs):
    cap = args[2] if len(args) > 2 else kwargs["cap"]
    tracer.counts["keyex.dlog_iterations"] += cap if result is None else result


def _wire_bytes(tracer, result, args, kwargs):
    tracer.counts["keyex.wire_bytes"] += len(result)


def _cli_exit(tracer, result, args, kwargs):
    tracer.counts["cli.nonzero_exits"] += result != 0


def _sweep_records(tracer, result, args, kwargs):
    if tracer.active["sweeps"]:
        return  # records of nested calls are counted by the outermost one
    records = [result] if isinstance(result, dict) else result if isinstance(result, list) else []
    records = [r for r in records if isinstance(r, dict) and "match" in r]
    tracer.counts["sweeps.records"] += len(records)
    tracer.counts["sweeps.graph_checked_records"] += sum(r.get("graph_checked") is True for r in records)
    tracer.counts["sweeps.mismatches"] += sum(r["match"] is not True for r in records)


def _maximal_points(size):
    def hook(tracer, result, args, kwargs):
        if not tracer.active["maximal"]:
            tracer.counts["maximal.points_returned"] += size(result)

    return hook


RESULT_HOOKS = {
    "maximal.CircularPointSet.__init__": _validated_pairs,
    "keyex.brute_force_dlog": _dlog_iterations,
    "keyex.encode": _wire_bytes,
    "cli.main": _cli_exit,
    **{key: _maximal_points(size) for key, size in MAXIMAL_RESULTS.items()},
}


class Tracer:
    """Spans and counts at the layer boundaries of one process.

    `op` is the index of the running operation, or None while the
    workload is being set up; counts and self times cover operations
    only, while per-call durations cover every recorded call.  With
    `paused` set, wrapped calls pass straight through (used while
    outputs are checked).
    """

    def __init__(self, span_cap: int = SPAN_CAP):
        self.clock = time.perf_counter
        self.t0 = self.clock()
        self.op = None
        self.paused = False
        self.stack = []  # open spans: [id, parent, layer, key, child seconds, start]
        self.next_id = 0
        self.calls = {}  # key -> [calls, inclusive seconds]
        self.counts = Counter()
        self.self_s = Counter()
        self.active = Counter()  # open spans per layer and per key
        self.spans = []
        self.span_cap = span_cap
        self.dropped = 0
        self._patches = []

    def add(self, name: str, amount: int) -> None:
        if self.op is not None and not self.paused:
            self.counts[name] += amount

    def _enter(self, layer, key):
        if self.op is not None:
            self.counts[key] += 1
            if key == SQUARED_DISTANCE and self.active["maximal"]:
                self.counts["maximal.squared_distance_inside"] += 1
            elif key == ROT_MUL and self.active[ROT_POW]:
                self.counts["rotation.rot_mul_inside_pow"] += 1
        self.active[layer] += 1
        self.active[key] += 1
        span = [self.next_id, self.stack[-1][0] if self.stack else -1, layer, key, 0.0, 0.0]
        self.next_id += 1
        self.stack.append(span)
        span[5] = self.clock()
        return span

    def _exit(self, span, failed=False):
        end = self.clock()
        self.stack.pop()
        sid, parent, layer, key, child, start = span
        duration = end - start
        if self.stack:
            self.stack[-1][4] += duration
        self.active[layer] -= 1
        self.active[key] -= 1
        calls = self.calls.setdefault(key, [0, 0.0])
        calls[0] += 1
        calls[1] += duration
        if self.op is not None:
            self.self_s[layer] += duration - child
            if failed:
                self.counts[key + ".failed"] += 1
        if len(self.spans) < self.span_cap:
            self.spans.append((sid, parent, layer, key, start - self.t0, end - self.t0, self.op))
        else:
            self.dropped += 1

    def _wrap(self, layer, key, fn):
        tracer = self
        hook = RESULT_HOOKS.get(key, _sweep_records if layer == "sweeps" else None)

        if inspect.isgeneratorfunction(fn):
            # one span per resume, so the work lands where the generator runs
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        if tracer.paused:
                            yield from it
                            return
                        span = tracer._enter(layer, key)
                        try:
                            value = next(it)
                        except StopIteration:
                            tracer._exit(span)
                            return
                        except BaseException:
                            tracer._exit(span, failed=True)
                            raise
                        tracer._exit(span)
                        yield value
                finally:
                    it.close()

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            span = tracer._enter(layer, key)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(span, failed=True)
                raise
            tracer._exit(span)
            if hook is not None and tracer.op is not None:
                hook(tracer, result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer's public functions and the listed methods."""
        modules = [m for name, m in sys.modules.items() if name == "circlering" or name.startswith("circlering.")]
        for layer in LAYERS:
            mod = sys.modules[f"circlering.{layer}"]
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(layer, f"{layer}.{name}", fn)
                for m in modules:  # the defining module and every module that imported it by name
                    if vars(m).get(name) is fn:
                        self._patch(m, name, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    self._patch(cls, meth, self._wrap(layer, f"{layer}.{cls_name}.{meth}", vars(cls)[meth]))

    def _patch(self, target, name, value):
        self._patches.append((target, name, getattr(target, name)))
        setattr(target, name, value)

    def uninstall(self) -> None:
        while self._patches:
            target, name, original = self._patches.pop()
            setattr(target, name, original)

    def write_spans(self, path, stamp: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"stamp": stamp, "spans": self.next_id, "dropped": self.dropped}) + "\n")
            for sid, parent, layer, key, start, end, op in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "layer": layer,
                                     "name": key.split(".", 1)[1], "start": start, "end": end, "op": op}) + "\n")

    def metrics(self, ops: int) -> dict:
        """The per-layer metrics: counts and self seconds per operation, per-call means."""
        c = self.counts

        def per_op(value):
            return value / ops

        def mean(key, scale):
            n, total = self.calls.get(key, (0, 0.0))
            return total / n * scale if n else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        fe = "fields.FieldElement."
        values = {
            "fields.mul_calls": per_op(c[fe + "__mul__"]),
            "fields.inverse_calls": per_op(c[fe + "inverse"]),
            "fields.square_tests": per_op(c[fe + "is_square"] + c[fe + "is_prime_subfield_square"]),
            "fields.sqrt_calls": per_op(c[fe + "sqrt"] + c[fe + "prime_sqrt"]),
            "fields.squarefree_calls": per_op(c["fields.squarefree_part"]),
            "fields.mul_us": mean(fe + "__mul__", 1e6),
            "plane.squared_distance_calls": per_op(c[SQUARED_DISTANCE]),
            "plane.contains_calls": per_op(c["plane.Circle.contains"]),
            "plane.point_from_parameter_calls": per_op(c["plane.point_from_parameter"]),
            "plane.squared_distance_us": mean(SQUARED_DISTANCE, 1e6),
            "plane.enumerate_circle_ms": mean("plane.enumerate_circle", 1e3),
            "maximal.validated_pairs": per_op(c["maximal.validated_pairs"]),
            "maximal.points_per_distance": ratio(c["maximal.points_returned"], c["maximal.squared_distance_inside"]),
            "maximal.grow_ms": mean("maximal.grow_maximal_set", 1e3),
            "maximal.partition_ms": mean("maximal.partition_prime_field_circle", 1e3),
            "maximal.perfect_ms": mean("maximal.perfect_distances", 1e3),
            "maximal.cliques_ms": mean("maximal.enumerate_emaximal_sets", 1e3),
            "rotation.rot_mul_calls": per_op(c[ROT_MUL]),
            "rotation.rot_pow_calls": per_op(c[ROT_POW]),
            "rotation.muls_per_pow": ratio(c["rotation.rot_mul_inside_pow"], c[ROT_POW]),
            "rotation.rot_mul_us": mean(ROT_MUL, 1e6),
            "rotation.rot_pow_ms": mean(ROT_POW, 1e3),
            "rotation.element_order_ms": mean("rotation.element_order", 1e3),
            "keyex.sessions": per_op(c["keyex.simulate_exchange"]),
            "keyex.simulate_ms": mean("keyex.simulate_exchange", 1e3),
            "keyex.dlog_iterations": per_op(c["keyex.dlog_iterations"]),
            "keyex.wire_bytes": per_op(c["keyex.wire_bytes"]),
            "keyex.encode_us": mean("keyex.encode", 1e6),
            "keyex.decode_us": mean("keyex.decode", 1e6),
            "keyex.decode_failures": per_op(c["keyex.decode.failed"]),
            "sweeps.records": per_op(c["sweeps.records"]),
            "sweeps.graph_checked_records": per_op(c["sweeps.graph_checked_records"]),
            "sweeps.mismatches": per_op(c["sweeps.mismatches"]),
            "sweeps.prime_record_ms": mean("sweeps.prime_theorem_record", 1e3),
            "cli.invocations": per_op(c["cli.main"]),
            "cli.stdout_bytes": per_op(c["cli.stdout_bytes"]),
            "cli.nonzero_exits": per_op(c["cli.nonzero_exits"]),
        }
        for layer in LAYERS:
            values[f"{layer}.self_s"] = per_op(self.self_s[layer])
        return values

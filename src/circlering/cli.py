"""Command-line interface.

Thin adapters only: every subcommand parses arguments, calls the
library, and prints deterministic JSON (one line per record for
sweeps).  Exit codes: 0 on success and on fully-matching verification
sweeps, 1 when a sweep finds a mismatch (the counterexample record is
printed), 2 on usage errors.
"""

import argparse
import json
import os
import sys
from contextlib import contextmanager
from multiprocessing import Pool

from . import keyex, maximal, rotation, sweeps
from .errors import CircleRingError, ParseError
from .fields import parse_descriptor
from .plane import Circle, PlanePoint, enumerate_circle
from .rotation import RotationElement


def _parse_point(field, text: str) -> PlanePoint:
    try:
        x_txt, y_txt = text.split(",")
    except ValueError:
        raise ParseError(f"expected 'x,y', got {text!r}") from None
    return PlanePoint(field.parse(x_txt), field.parse(y_txt))


@contextmanager
def _long_ints_printable():
    """Lift Python's int->str digit limit (4300 digits) while a result is formatted.

    Parsing keeps the limit; the size of a result over Q is bounded by
    rotation's cap instead.  Interpreters without the limit skip this.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _parse_circle(args) -> Circle:
    field = parse_descriptor(args.field)
    center = _parse_point(field, args.center)
    return Circle(center, field.parse(args.radius))


def _point_json(p: PlanePoint) -> dict:
    return dict(zip("xy", p._coords()))


def _circle_json(c: Circle) -> dict:
    return {
        "field": c.field.to_text(),
        "center": list(c.center._coords()),
        "radius": str(c.radius),
    }


def _emit(doc, pretty: bool) -> None:
    if pretty:
        print(json.dumps(doc, indent=2))
    else:
        print(json.dumps(doc, separators=(",", ":")))


def _emit_sweep(records, pretty: bool, summary_extra=None) -> int:
    mismatches = 0
    for rec in records:
        _emit(rec, pretty)
        if not rec.get("match", True):
            mismatches += 1
    summary = {"summary": {"records": len(records), "mismatches": mismatches}}
    if summary_extra:
        summary["summary"].update(summary_extra)
    _emit(summary, pretty)
    return 1 if mismatches else 0


def _cmd_circle_enum(args) -> int:
    c = _parse_circle(args)
    pts = enumerate_circle(c)
    _emit(
        {"circle": _circle_json(c), "count": len(pts), "points": [_point_json(p) for p in pts]},
        args.pretty,
    )
    return 0


def _cmd_circle_partition(args) -> int:
    c = _parse_circle(args)
    classes = sorted(maximal.partition_prime_field_circle(c), key=lambda s: s.points[0].sort_key())
    expected = maximal.cmaximal_cardinality(c.field, c.radius).n
    sizes = [len(s) for s in classes]
    _emit(
        {
            "field": c.field.to_text(),
            "circle": _circle_json(c),
            "classes": [[_point_json(pt) for pt in s] for s in classes],
            "class_size": sizes[0],
            "theorem_expected": expected,
            "match": sizes == [expected, expected],
        },
        args.pretty,
    )
    return 0


def _cmd_circle_cliques(args) -> int:
    c = _parse_circle(args)
    seed = _parse_point(c.field, args.seed_point)
    sets = maximal.enumerate_emaximal_sets(c, seed)
    _emit(
        {
            "circle": _circle_json(c),
            "seed": _point_json(seed),
            "sets": [
                {
                    "size": len(s),
                    "status": s.status.value,
                    "points": [_point_json(p) for p in s],
                }
                for s in sets
            ],
        },
        args.pretty,
    )
    return 0


def _cmd_perfect(args) -> int:
    c = _parse_circle(args)
    found = maximal.perfect_distances(c)
    ordered = sorted(found, key=lambda q: q.sort_key())
    _emit(
        {
            "field": c.field.to_text(),
            "circle": _circle_json(c),
            "perfect": [str(q) for q in ordered],
            "details": [
                {
                    "q": str(q),
                    "acp": maximal.check_acp(c, q),
                    "witness_triangle": [_point_json(p) for p in found[q]],
                }
                for q in ordered
            ],
        },
        args.pretty,
    )
    return 0


def _cmd_verify_prime_theorem(args) -> int:
    primes = sweeps._prime_theorem_primes(args.pmax, args.graph_max)
    workers = min(args.parallel, len(primes), os.cpu_count() or 1)
    if workers > 1:
        with Pool(workers) as pool:
            records = pool.starmap(
                sweeps.prime_theorem_record, [(p, args.graph_max) for p in primes]
            )
    else:
        records = [sweeps.prime_theorem_record(p, args.graph_max) for p in primes]
    return _emit_sweep(records, args.pretty, {"pmax": args.pmax})


def _cmd_verify_table(args) -> int:
    return _emit_sweep(sweeps.verify_cmax_table(), args.pretty)


def _cmd_verify_mod4(args) -> int:
    return _emit_sweep(sweeps.verify_mod4_criterion(args.pmax), args.pretty, {"pmax": args.pmax})


def _rot_element(args) -> RotationElement:
    field = parse_descriptor(args.field)
    origin = PlanePoint(field.zero, field.zero)
    circle = Circle(origin, field.parse(args.radius))
    return RotationElement(circle, _parse_point(field, args.point))


def _cmd_rot(args) -> int:
    a = _rot_element(args)
    if args.rot_cmd == "mul":
        b = RotationElement(a.circle, _parse_point(a.field, args.point2))
        result = rotation.rot_mul(a, b)
    elif args.rot_cmd == "pow":
        result = rotation.rot_pow(a, args.exp)
    elif args.rot_cmd == "sqrt":
        result = rotation.rot_sqrt(a)
    else:  # order
        _emit({"order": rotation.element_order(a), "checks": {"on_circle": True}}, args.pretty)
        return 0
    with _long_ints_printable():
        doc = {
            "result": None if result is None else _point_json(result.point),
            "checks": {"on_circle": result is None or a.circle.contains(result.point)},
        }
    _emit(doc, args.pretty)
    return 0


def _transcript_json(t: keyex.Transcript) -> dict:
    doc = {"field": t.base.field.to_text(), "radius": str(t.base.circle.radius)}
    for name in ("base", "sent_a", "sent_b", "shared_a", "shared_b"):
        doc[name] = _point_json(getattr(t, name).point)
    doc["equal"] = t.equal
    if t.dlog_iterations is not None:
        doc["dlog_iterations"] = t.dlog_iterations
    return doc


def _cmd_keyex_demo(args) -> int:
    base = _rot_element(args)
    params = keyex.ProtocolParams(base, exponent_cap=args.exp_cap)
    transcript = keyex.simulate_exchange(params, args.seed_a, args.seed_b, dlog_cap=args.dlog_cap)
    with _long_ints_printable():
        doc = _transcript_json(transcript)
    if args.dlog_cap and base.field.is_finite():  # over Q the dlog never runs
        doc.setdefault("dlog_iterations", None)
        doc["dlog_cap"] = args.dlog_cap
    _emit(doc, args.pretty)
    return 0


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def _nonnegative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="indented JSON output")
    on_circle = argparse.ArgumentParser(add_help=False, parents=[common])
    on_circle.add_argument("--field", required=True)
    on_circle.add_argument("--center", default="0,0")
    on_circle.add_argument("--radius", required=True)
    rot_point = argparse.ArgumentParser(add_help=False, parents=[common])
    rot_point.add_argument("--field", required=True)
    rot_point.add_argument("--radius", required=True)
    rot_point.add_argument("--point", required=True)

    top = argparse.ArgumentParser(
        prog="circlering",
        description="Exact circles, rational point sets, rotation groups, and a toy key exchange.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    circle = sub.add_parser("circle", help="enumerate, partition, or clique-search a circle")
    circle_sub = circle.add_subparsers(dest="circle_cmd", required=True)
    for name, fn in (
        ("enum", _cmd_circle_enum),
        ("partition", _cmd_circle_partition),
        ("cliques", _cmd_circle_cliques),
    ):
        p = circle_sub.add_parser(name, parents=[on_circle])
        if name == "cliques":
            p.add_argument("--seed-point", required=True)
        p.set_defaults(run=fn)

    perfect = sub.add_parser("perfect", help="perfect squared distances of a circle",
                             parents=[on_circle])
    perfect.set_defaults(run=_cmd_perfect)

    verify = sub.add_parser("verify", help="theorem verification sweeps")
    verify_sub = verify.add_subparsers(dest="verify_cmd", required=True)
    vp = verify_sub.add_parser("prime-theorem", parents=[common])
    vp.add_argument("--pmax", type=int, default=500)
    vp.add_argument("--graph-max", type=int, default=97)
    vp.add_argument("--parallel", type=_positive_int, default=1,
                    help="worker processes, at most one per prime and per CPU")
    vp.set_defaults(run=_cmd_verify_prime_theorem)
    vt = verify_sub.add_parser("table", parents=[common])
    vt.set_defaults(run=_cmd_verify_table)
    vm = verify_sub.add_parser("mod4", parents=[common])
    vm.add_argument("--pmax", type=int, default=2000)
    vm.set_defaults(run=_cmd_verify_mod4)

    rot = sub.add_parser("rot", help="rotation-group algebra")
    rot_sub = rot.add_subparsers(dest="rot_cmd", required=True)
    for name in ("mul", "pow", "sqrt", "order"):
        p = rot_sub.add_parser(name, parents=[rot_point])
        if name == "mul":
            p.add_argument("--point2", required=True)
        if name == "pow":
            p.add_argument("--exp", type=_nonnegative_int, required=True)
        p.set_defaults(run=_cmd_rot)

    kx = sub.add_parser("keyex", help="key-exchange demo")
    kx_sub = kx.add_subparsers(dest="keyex_cmd", required=True)
    demo = kx_sub.add_parser("demo", parents=[rot_point])
    demo.add_argument("--seed-a", type=int, default=0)
    demo.add_argument("--seed-b", type=int, default=1)
    demo.add_argument("--exp-cap", type=int, default=keyex.DEFAULT_EXPONENT_CAP,
                      help="private exponent cap, over Q only")
    demo.add_argument("--dlog-cap", type=_nonnegative_int, default=10_000)
    demo.set_defaults(run=_cmd_keyex_demo)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (CircleRingError, ValueError, OSError) as exc:
        code = type(exc).__name__
        print(f"error: {code}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

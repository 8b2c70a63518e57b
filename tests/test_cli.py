import json
import os
import random
import subprocess
import sys

import pytest

import circlering
from circlering import cli, sweeps
from circlering.cli import main
from circlering.fields import QuadraticExtension
from circlering.maximal import CardinalityAnswer, is_rational_distance
from circlering.plane import circle, enumerate_circle, point


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_circle_enum_golden(capsys):
    code, out, _ = run_cli(capsys, "circle", "enum", "--field", "Fp:7", "--center", "0,0", "--radius", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 8
    assert doc["points"] == [
        {"x": "0", "y": "1"}, {"x": "0", "y": "6"}, {"x": "1", "y": "0"},
        {"x": "2", "y": "2"}, {"x": "2", "y": "5"}, {"x": "5", "y": "2"},
        {"x": "5", "y": "5"}, {"x": "6", "y": "0"},
    ]


def test_circle_partition(capsys):
    code, out, _ = run_cli(capsys, "circle", "partition", "--field", "Fp:13",
                           "--center", "7,11", "--radius", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["class_size"] == 6 and doc["theorem_expected"] == 6 and doc["match"]
    assert sorted(len(cls) for cls in doc["classes"]) == [6, 6]


def test_circle_cliques(capsys):
    code, out, _ = run_cli(capsys, "circle", "cliques", "--field", "Fp2:7,x^2+1",
                           "--center", "0,0", "--radius", "1", "--seed-point", "4+a,2+5a")
    assert code == 0
    doc = json.loads(out)
    assert [s["size"] for s in doc["sets"]] == [4, 2, 2]
    assert doc["sets"][0]["status"] == "c-maximal"
    # over F_2003 the one clique is the seed's class of 1002 points
    code, out, err = run_cli(capsys, "circle", "cliques", "--field", "Fp:2003", "--radius", "1",
                             "--seed-point", "0,1")
    assert code == 0, err
    assert [(s["size"], s["status"]) for s in json.loads(out)["sets"]] == [(1002, "c-maximal")]


def test_perfect(capsys):
    code, out, _ = run_cli(capsys, "perfect", "--field", "Fp:7", "--radius", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["perfect"] == ["2", "4"]


def test_verify_prime_theorem_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "prime-theorem", "--pmax", "40")
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])["summary"]
    assert summary["mismatches"] == 0
    assert summary["records"] == len(lines) - 1
    first = json.loads(lines[0])
    assert first["p"] == 3 and first["match"]


def test_verify_prime_theorem_parallel(capsys):
    code, out, _ = run_cli(capsys, "verify", "prime-theorem", "--pmax", "30", "--parallel", "2")
    assert code == 0
    ps = [json.loads(line)["p"] for line in out.strip().splitlines()[:-1]]
    assert ps == sorted(ps)


def test_verify_prime_theorem_pool_size(capsys, monkeypatch):
    # the pool gets at most one worker per prime and per CPU, whatever --parallel asks
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, args):
            return [fn(*a) for a in args]

    monkeypatch.setattr(cli, "Pool", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    code, out, _ = run_cli(capsys, "verify", "prime-theorem", "--pmax", "30", "--parallel", "1000")
    assert code == 0 and sizes == [9]  # the odd primes up to 30
    assert json.loads(out.strip().splitlines()[-1])["summary"]["records"] == 9
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    run_cli(capsys, "verify", "prime-theorem", "--pmax", "30", "--parallel", "1000")
    assert sizes == [9, 2]
    for bad in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "prime-theorem", "--pmax", "30", "--parallel", bad])
        assert exc.value.code == 2
    assert sizes == [9, 2]


def test_mismatch_names_failed_check(capsys, monkeypatch):
    # a partition that moves one point between the classes: the record
    # reports the measured class size, not the theorem's
    partition = sweeps._raw_partition

    def uneven(c):
        first, second = partition(c)
        return first + second[:1], second[1:]

    monkeypatch.setattr(sweeps, "_raw_partition", uneven)
    code, out, _ = run_cli(capsys, "verify", "prime-theorem", "--pmax", "13")
    records = [json.loads(line) for line in out.strip().splitlines()[:-1]]
    assert code == 1
    for rec in records:
        assert not rec["match"] and rec["class_size"] == rec["expected"] + 1, rec
        assert rec["failed"] == ["class_sizes"], rec
        assert rec["counterexample"]["sizes"] == [rec["expected"] + 1, rec["expected"] - 1]
    monkeypatch.setattr(sweeps, "_raw_partition", partition)
    code, out, _ = run_cli(capsys, "verify", "mod4", "--pmax", "30")
    assert code == 0 and '"failed"' not in out
    monkeypatch.setattr(sweeps, "contains_sqrt_minus_one", lambda field: False)
    code, out, _ = run_cli(capsys, "verify", "mod4", "--pmax", "30")
    records = [json.loads(line) for line in out.strip().splitlines()[:-1]]
    assert code == 1
    for rec in records:
        if rec["order"] % 4 == 1:
            assert not rec["match"] and rec["failed"] == ["sqrt_minus_one"], rec
        else:
            assert rec["match"] and "failed" not in rec, rec
    # a cardinality table whose finite cells claim one point too many
    claim = sweeps.cmaximal_cardinality

    def one_too_many(field, r):
        answer = claim(field, r)
        return CardinalityAnswer("finite", answer.n + 1) if answer.kind == "finite" else answer

    monkeypatch.setattr(sweeps, "cmaximal_cardinality", one_too_many)
    code, out, _ = run_cli(capsys, "verify", "table")
    records = [json.loads(line) for line in out.strip().splitlines()[:-1]]
    assert code == 1
    for rec in records:
        if rec["expected"] == "<=2":
            assert rec["match"] and "failed" not in rec, rec
        else:
            assert not rec["match"] and rec["failed"] == ["grown_size"], rec


def test_prime_theorem_record_names_failed_check(monkeypatch):
    assert "failed" not in sweeps.prime_theorem_record(13)
    # a theorem size one too large fails the class sizes at the first radius
    claim = sweeps.cmaximal_cardinality
    monkeypatch.setattr(sweeps, "cmaximal_cardinality",
                        lambda field, r: CardinalityAnswer("finite", claim(field, r).n + 1))
    rec = sweeps.prime_theorem_record(13)
    assert not rec["match"] and rec["failed"] == ["class_sizes"], rec
    assert rec["counterexample"] == {"r": 1, "sizes": [6, 6]}
    monkeypatch.setattr(sweeps, "cmaximal_cardinality", claim)
    # a rationality graph that is not two cliques fails only that check
    monkeypatch.setattr(sweeps, "_is_two_clique_graph", lambda p, a, b: False)
    rec = sweeps.prime_theorem_record(13)
    assert not rec["match"] and rec["failed"] == ["two_cliques"], rec
    assert rec["counterexample"]["r"] == 1
    # past graph_max the graph is not built, so nothing fails
    assert sweeps.prime_theorem_record(13, graph_max=11)["match"]
    monkeypatch.undo()
    # a partition that misplaces one point on one partitioned circle fails at that radius
    partition = sweeps._raw_partition
    for r in (1, 2, 12):  # 2 is also F_13's least non-square
        def uneven(c, r=r):
            first, second = partition(c)
            return (first + second[:1], second[1:]) if c.radius.value == r else (first, second)

        monkeypatch.setattr(sweeps, "_raw_partition", uneven)
        rec = sweeps.prime_theorem_record(13)
        assert not rec["match"] and rec["failed"] == ["class_sizes"], rec
        assert rec["counterexample"]["r"] == r, rec

    # classes of the theorem's sizes, one point of each in the other's, fail only the graph check
    def swapped(c):
        first, second = partition(c)
        return [second[0], *first[1:]], [first[0], *second[1:]]

    monkeypatch.setattr(sweeps, "_raw_partition", swapped)
    rec = sweeps.prime_theorem_record(13)
    assert not rec["match"] and rec["failed"] == ["two_cliques"], rec
    assert rec["counterexample"]["r"] == 1, rec


def test_verify_table(capsys):
    code, out, _ = run_cli(capsys, "verify", "table")
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["summary"]["mismatches"] == 0


def test_table_witness_pair_is_checked(monkeypatch):
    # F_{7^2} with r = 1 + a: r^2 is outside F_7, so the answer is "at most two" with a witness
    field = QuadraticExtension(7, (1, 0))
    r = field((1, 1))
    c = circle(field, (0, 0), r)
    marker = sweeps.cmaximal_cardinality(field, r).witness[0]
    assert "failed" not in sweeps.table_cell_record(field, r)
    irrational = next(p for p in enumerate_circle(c) if not is_rational_distance(c, marker, p))
    for bad in ((marker, point(field, 0, 0)), (marker, irrational), (marker, marker), None):
        monkeypatch.setattr(sweeps, "cmaximal_cardinality",
                            lambda f, radius, bad=bad: CardinalityAnswer("at_most_two", witness=bad))
        rec = sweeps.table_cell_record(field, r)
        assert not rec["match"] and rec["failed"] == ["witness"], (bad, rec)


def test_verify_mod4(capsys):
    code, out, _ = run_cli(capsys, "verify", "mod4", "--pmax", "300")
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["summary"]["mismatches"] == 0


def test_rot_commands(capsys):
    code, out, _ = run_cli(capsys, "rot", "pow", "--field", "Fp:13", "--radius", "1",
                           "--point", "2,6", "--exp", "3")
    assert code == 0
    assert json.loads(out) == {"result": {"x": "0", "y": "12"}, "checks": {"on_circle": True}}
    code, out, _ = run_cli(capsys, "rot", "mul", "--field", "Q", "--radius", "2",
                           "--point", "8/5,6/5", "--point2", "8/5,6/5")
    assert json.loads(out)["result"] == {"x": "14/25", "y": "48/25"}
    code, out, _ = run_cli(capsys, "rot", "sqrt", "--field", "Fp:13", "--radius", "1",
                           "--point", "7,11")
    assert json.loads(out) == {"result": {"x": "2", "y": "6"}, "checks": {"on_circle": True}}
    # one formula in every odd characteristic, extension fields included
    code, out, _ = run_cli(capsys, "rot", "sqrt", "--field", "Fp2:7,x^2+1", "--radius", "1",
                           "--point", "5,5")
    assert code == 0
    assert json.loads(out) == {"result": {"x": "5a", "y": "3a"}, "checks": {"on_circle": True}}
    # there is no flag to choose how the root is found
    with pytest.raises(SystemExit) as exc:
        main(["rot", "sqrt", "--field", "Fp:13", "--radius", "1", "--point", "7,11", "--unchecked"])
    assert exc.value.code == 2
    code, out, _ = run_cli(capsys, "rot", "order", "--field", "Fp:13", "--radius", "1",
                           "--point", "2,6")
    assert json.loads(out)["order"] == 12
    # non-perfect induced distance: sqrt reports null
    code, out, _ = run_cli(capsys, "rot", "sqrt", "--field", "Fp:7", "--radius", "1",
                           "--point", "2,2")
    assert code == 0 and json.loads(out)["result"] is None


def test_rot_order_over_q_states_the_orders(capsys):
    # the group over Q is infinite: the refusal says which orders exist, not a command to run
    code, out, err = run_cli(capsys, "rot", "order", "--field", "Q", "--radius", "1",
                             "--point", "3/5,4/5")
    assert code == 2 and out == ""
    assert err.startswith("error: WrongFieldKind: ") and "classify_cyclicity" not in err, err
    assert "(1, 2, 4, 4)" in err and "every other element has infinite order" in err, err


def test_keyex_demo_deterministic(capsys):
    args = ("keyex", "demo", "--field", "Fp:1000003", "--radius", "1",
            "--point", "400002,800003", "--seed-a", "5", "--seed-b", "6",
            "--dlog-cap", "0")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["equal"] is True
    # over F_p the exponents are drawn below the base point's order, whatever the cap
    assert run_cli(capsys, *args, "--exp-cap", "3") == (0, out1, "")


def test_env_seed_default(capsys, monkeypatch):
    # omitted seeds are 0 and 1; the environment does not set them
    monkeypatch.setenv("CIRCLERING_SEED", "123")
    args = ("keyex", "demo", "--field", "Fp:13", "--radius", "1", "--point", "2,6")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert json.loads(out)["equal"] is True
    assert run_cli(capsys, *args, "--seed-a", "0", "--seed-b", "1") == (0, out, "")


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "circle", "enum", "--field", "Fp:15", "--radius", "1")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "circle", "enum", "--field", "Q", "--radius", "1")
    assert code == 2 and "InfiniteField" in err
    code, _, err = run_cli(capsys, "circle", "enum", "--field", "Fp:7", "--radius", "0")
    assert code == 2 and "ZeroRadius" in err
    # text that names no element is a ParseError, not a bare ValueError
    for field in ("Fp:7", "Q"):
        code, _, err = run_cli(capsys, "circle", "enum", "--field", field, "--center", "1/0,0",
                               "--radius", "1")
        assert code == 2 and "error: ParseError" in err, err
    code, _, err = run_cli(capsys, "circle", "enum", "--field", "Fp:7", "--radius", "1" * 5000)
    assert code == 2 and "error: ParseError" in err and len(err) < 500, err
    # a Q exponent cap that leaves no exponent to draw names the parameter
    code, _, err = run_cli(capsys, "keyex", "demo", "--field", "Q", "--radius", "2",
                           "--point", "8/5,6/5", "--exp-cap", "2")
    assert code == 2 and "error: ValueError: exponent_cap" in err, err
    # an eavesdropper's search past 10^7 steps is refused before the first step
    code, _, err = run_cli(capsys, "keyex", "demo", "--field", "Fp:999999999989", "--radius", "1",
                           "--point", "799999999992,599999999994", "--dlog-cap", "100000000000")
    assert code == 2 and "error: ResultTooLarge: a dlog cap" in err, err
    for argv in (["circle", "bogus"],
                 ["rot", "pow", "--field", "Fp:13", "--radius", "1", "--point", "2,6", "--exp", "-1"],
                 ["keyex", "demo", "--field", "Fp:13", "--radius", "1", "--point", "2,6",
                  "--dlog-cap", "-3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert argv[1] == "bogus" or "expected a nonnegative integer" in err, err


def test_enumeration_cap():
    # a circle of 2^61 points is refused before any loop starts, not enumerated
    script = "import sys; from circlering.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(circlering.__file__)))
    for cmd in (["circle", "enum"], ["perfect"]):
        argv = [sys.executable, "-c", script, *cmd, "--field", "Fp:2305843009213693951", "--radius", "1"]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=5)
        assert done.returncode == 2 and "CircleTooLarge" in done.stderr, (cmd, done.stderr)


def test_size_caps_refuse_at_once():
    # a Q power of about 3 * 10^9 bits, sweeps to 10^9 and prime-theorem
    # arguments just over its caps exit 2 before any work
    script = "import sys; from circlering.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(circlering.__file__)))
    for cmd, error in (
        (["rot", "pow", "--field", "Q", "--radius", "1", "--point", "3/5,4/5", "--exp", "1000000000"],
         "ResultTooLarge"),
        (["verify", "mod4", "--pmax", "1000000000"], "ResultTooLarge"),
        (["verify", "prime-theorem", "--pmax", "1000000000"], "ResultTooLarge"),
        (["verify", "prime-theorem", "--pmax", "20001"], "ResultTooLarge"),
        (["verify", "prime-theorem", "--graph-max", "1001"], "ResultTooLarge"),
    ):
        done = subprocess.run([sys.executable, "-c", script, *cmd], env=env, capture_output=True,
                              text=True, timeout=5)
        assert done.returncode == 2 and f"error: {error}" in done.stderr, (cmd, done.stderr)


def test_clique_cap(capsys):
    # over F_4099 the seed may have 2049 neighbours, past the cap of 2048: refused before any search
    args = ["circle", "cliques", "--field", "Fp:4099", "--radius", "1", "--seed-point", "0,1"]
    code, out, err = run_cli(capsys, *args)
    assert code == 2 and out == "" and "error: CircleTooLarge" in err, err
    # there is no config file to raise it
    with pytest.raises(SystemExit) as exc:
        main([*args, "--config", "rc.conf"])
    assert exc.value.code == 2 and "--config" in capsys.readouterr().err


def test_pretty_mode(capsys):
    code, out, _ = run_cli(capsys, "perfect", "--field", "Fp:7", "--radius", "1", "--pretty")
    assert code == 0
    assert out.startswith("{\n")
    assert json.loads(out)["perfect"] == ["2", "4"]
    doc = json.loads(out)
    assert all("witness_triangle" in d for d in doc["details"])
    code, out, _ = run_cli(capsys, "perfect", "--field", "Fp:7", "--radius", "1")
    assert code == 0 and out.count("\n") == 1
    # compact output is the only other mode; there is no --json flag
    with pytest.raises(SystemExit) as exc:
        main(["perfect", "--field", "Fp:7", "--radius", "1", "--json"])
    assert exc.value.code == 2


def test_keyex_demo_over_q(capsys):
    code, out, _ = run_cli(capsys, "keyex", "demo", "--field", "Q", "--radius", "2",
                           "--point", "8/5,6/5", "--seed-a", "3", "--seed-b", "4",
                           "--exp-cap", "32")
    assert code == 0
    doc = json.loads(out)
    assert doc["equal"] is True
    # the dlog never runs over Q, so neither its cap nor its count is reported
    assert "dlog_cap" not in doc and "dlog_iterations" not in doc, doc
    code, out, _ = run_cli(capsys, "keyex", "demo", "--field", "Fp:13", "--radius", "1",
                           "--point", "2,6")
    assert code == 0 and json.loads(out)["dlog_cap"] == 10_000
    # at the default exponent cap the shared secret has more than the 4300
    # digits Python converts to text by default; it is printed all the same
    code, out, err = run_cli(capsys, "keyex", "demo", "--field", "Q", "--radius", "1",
                             "--point", "20/29,21/29", "--seed-a", "6", "--seed-b", "46")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["equal"] is True and len(doc["shared_a"]["x"]) > 4300


# the README examples, placeholders filled in; verify is left out because
# its --pmax bounds memory, not time
README_EXAMPLES = (
    ["circle", "enum", "--field", "Fp:7", "--center", "0,0", "--radius", "1"],
    ["circle", "partition", "--field", "Fp:13", "--center", "7,11", "--radius", "6"],
    ["circle", "cliques", "--field", "Fp2:7,x^2+1", "--radius", "1", "--seed-point", "4+a,2+5a"],
    ["perfect", "--field", "Fp:7", "--radius", "1"],
    ["rot", "mul", "--field", "Fp:13", "--radius", "1", "--point", "2,6", "--point2", "7,11"],
    ["rot", "pow", "--field", "Fp:13", "--radius", "1", "--point", "2,6", "--exp", "3"],
    ["rot", "sqrt", "--field", "Fp:13", "--radius", "1", "--point", "2,6"],
    ["rot", "order", "--field", "Fp:13", "--radius", "1", "--point", "2,6"],
    ["keyex", "demo", "--field", "Fp:1000003", "--radius", "1", "--point", "400002,800003",
     "--seed-a", "5", "--seed-b", "6"],
)
MUTATED_FLAGS = ("--field", "--center", "--radius", "--point", "--point2", "--exp", "--seed-point")
MUTATION_ALPHABET = "0123456789-+/,:ax^FpQ. "


def _mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.choice(("insert", "delete", "replace")) if text else "insert"
        if op == "insert":
            text = text[:i] + rng.choice(MUTATION_ALPHABET) + text[i:]
        elif op == "delete":
            i = min(i, len(text) - 1)
            text = text[:i] + text[i + 1:]
        else:
            i = min(i, len(text) - 1)
            text = text[:i] + rng.choice(MUTATION_ALPHABET) + text[i + 1:]
    return text


def test_mutated_arguments_exit_cleanly(capsys):
    # every mutated value is answered, or refused with exit 1 or 2; no
    # exception escapes main
    rng = random.Random(1)
    for _ in range(300):
        argv = list(rng.choice(README_EXAMPLES))
        i = rng.choice([i + 1 for i, arg in enumerate(argv) if arg in MUTATED_FLAGS])
        argv[i] = _mutate(rng, argv[i])
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        capsys.readouterr()
        assert code in (0, 1, 2), argv

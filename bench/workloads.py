"""The three benchmark workloads: input generation, operations, checks.

A workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  Its inputs are made from the seed
as rounds of operation specs.  Each round has the same composition and
spreads its sizes over fixed levels, so runs with different seeds do the
same amount of work, and a run always measures whole rounds.

Specs are plain data.  `build` turns rounds of them into library
objects during set-up, `op` is the timed operation, `raw` converts its result back to
plain data outside the timed interval, and `check` verifies that data
with the independent checkers in `checks.py`.
"""

import contextlib
import io
import random
import statistics
from fractions import Fraction

import checks

CLIQUE_MAX_POINTS = 100


def raw_point(pt):
    return (pt.x.value, pt.y.value)


def prime_near(primes: list[int], x: float) -> int:
    """The prime of the list closest to x on a log scale."""
    return min(primes, key=lambda p: abs(p / x - 1) if p > x else abs(x / p - 1))


GOLDEN = (5**0.5 - 1) / 2


def round_offset(seed_offset: float, k: int) -> float:
    """Where round k draws inside each stratum.

    The golden-ratio sequence spreads the offsets of any run of
    consecutive rounds evenly over [0, 1), so a run that stops after a
    few rounds still holds an even mix of sizes, whatever the seed.
    """
    return (seed_offset + k * GOLDEN) % 1.0


def jitter(offset: float, spread: float = 0.08) -> float:
    """A size factor within +-spread/2, set by a round's offset."""
    return 1 + spread * (offset - 0.5)


def levels(count: int, lo: float, hi: float):
    """`count` log-spaced sizes in [lo, hi].

    Operations of one level cost nearly the same, so the latency
    percentiles fall on plateaus rather than on the steep slope between
    sizes, and they hardly move from seed to seed.
    """
    return [lo * (hi / lo) ** ((i + 0.5) / count) for i in range(count)]


def primes_by_residue(limit: int) -> dict:
    primes = checks.odd_primes_up_to(limit)
    return {res: [p for p in primes if p % 4 == res] for res in (1, 3)}


def small_fraction(rng: random.Random, num: int = 9, den: int = 9) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def q_circle_point(center, r: Fraction, t: Fraction):
    w = 1 / (t * t + 1)
    return (center[0] + 2 * t * r * w, center[1] + r * (t * t - 1) * w)


# --- construct -------------------------------------------------------------------


class Construct:
    """Exact point-set construction on one seeded circle per operation."""

    name = "construct"
    rounds = 64
    REFERENCE_WEIGHTS = {"objects": 1.0}  # field objects and point sets
    P_MAX = 500
    # F_p ops: the primes of each p mod 4 nearest to ten fixed sizes, so
    # every round costs the same; the seed picks circles and points.
    # Plus two ops over F_{p^2} and two over Q per round.
    LEVELS = 10
    # monic irreducible x^2 + f1 x + f0 for each extension characteristic
    EXTENSIONS = {7: (1, 0), 11: (1, 0), 13: (2, 0)}

    def __init__(self):
        self.by_residue = primes_by_residue(self.P_MAX)

    def prime_spec(self, rng, p):
        a, b, r = rng.randrange(p), rng.randrange(p), rng.randrange(1, p)
        params = [t for t in range(p) if (t * t + 1) % p] + [None]
        t = rng.choice(params)
        return {"kind": "prime", "p": p, "a": a, "b": b, "r": r,
                "seed_point": checks.prime_circle_point(p, a, b, r, t)}

    def quadratic_spec(self, rng, inside: bool):
        p = rng.choice(sorted(self.EXTENSIONS))
        f0, f1 = self.EXTENSIONS[p]
        fq = checks.Fp2(p, f0, f1)
        nonzero = lambda: rng.randrange(1, p)
        if not inside:  # both coordinates nonzero: r^2 has an x-term
            r = (nonzero(), nonzero())
        elif rng.random() < 0.5:  # r in F_p
            r = (nonzero(), 0)
        else:  # r = k*x, with r^2 = -f0 k^2 in F_p
            r = (0, nonzero())
        center = ((rng.randrange(p), rng.randrange(p)), (rng.randrange(p), rng.randrange(p)))
        minus_one = (p - 1, 0)
        params = [t for t in fq.elements() if fq.mul(t, t) != minus_one] + [None]
        seed = fq.circle_point(center, r, rng.choice(params))
        return {"kind": "quadratic", "p": p, "f0": f0, "f1": f1, "center": center, "r": r,
                "inside": inside, "seed_point": seed}

    def q_circle(self, rng):
        return (small_fraction(rng), small_fraction(rng)), Fraction(rng.randint(1, 9), rng.randint(1, 9))

    def generate(self, seed: int) -> list[list[dict]]:
        rounds = []
        for k in range(self.rounds):
            rng = random.Random(f"construct:{seed}:{k}")
            ops = []
            for x in levels(self.LEVELS, 3, self.P_MAX):
                for residue in (1, 3):
                    ops.append(self.prime_spec(rng, prime_near(self.by_residue[residue], x)))
            ops.append(self.quadratic_spec(rng, inside=True))
            ops.append(self.quadratic_spec(rng, inside=False))
            center, r = self.q_circle(rng)
            t = small_fraction(rng)
            ops.append({"kind": "q_grow", "center": center, "r": r,
                        "seed_point": q_circle_point(center, r, t), "prefix": 16})
            center, r = self.q_circle(rng)
            sample = sorted({Fraction(rng.randint(-12, 12), rng.randint(1, 8)) for _ in range(40)})
            ops.append({"kind": "q_partition", "center": center, "r": r, "sample": sample})
            rng.shuffle(ops)
            rounds.append(ops)
        return rounds

    def warmup_spec(self, seed: int) -> dict:
        return self.prime_spec(random.Random(f"construct-warmup:{seed}"), 53)

    def build(self, lib, rounds):
        cr = lib.cr
        fields = {}

        def field(spec):
            kind = spec["kind"]
            key = (kind, spec.get("p"))
            if key not in fields:
                if kind == "prime":
                    fields[key] = cr.PrimeField(spec["p"])
                elif kind == "quadratic":
                    fields[key] = cr.QuadraticExtension(spec["p"], (spec["f0"], spec["f1"]))
                else:
                    fields[key] = cr.Rationals()
            return fields[key]

        def item(spec):
            f = field(spec)
            if spec["kind"] == "prime":
                center, r = (spec["a"], spec["b"]), spec["r"]
            else:
                center, r = spec["center"], spec["r"]
            built = {"field": f, "circle": cr.Circle(cr.point(f, *center), f(r))}
            if "seed_point" in spec:
                built["seed"] = cr.point(f, *spec["seed_point"])
            if "sample" in spec:
                built["sample"] = spec["sample"]
            return built

        return [[item(spec) for spec in specs] for specs in rounds]

    def op(self, lib, spec, item, tracer):
        cr = lib.cr
        c = item["circle"]
        kind = spec["kind"]
        if kind == "q_grow":
            return {"grown": cr.grow_maximal_set(c, item["seed"], prefix=spec["prefix"])}
        if kind == "q_partition":
            return {"groups": cr.partition_rational_circle_points(c, item["sample"])}
        out = {"points": cr.enumerate_circle(c)}
        if kind == "prime":
            out["classes"] = cr.partition_prime_field_circle(c)
        out["perfect"] = cr.perfect_distances(c) if kind == "prime" or spec["inside"] else {}
        out["grown"] = cr.grow_maximal_set(c, item["seed"])
        if len(out["points"]) <= CLIQUE_MAX_POINTS:
            out["cliques"] = cr.enumerate_emaximal_sets(c, item["seed"])
        return out

    def raw(self, out):
        pts = lambda s: [raw_point(p) for p in s]
        raw = {}
        if "groups" in out:
            raw["groups"] = {k: pts(s) for k, s in out["groups"].items()}
            return raw
        raw["grown"] = pts(out["grown"])
        raw["is_prefix"] = out["grown"].is_prefix
        if "points" in out:
            raw["points"] = pts(out["points"])
            raw["classes"] = [pts(s) for s in out.get("classes", ())]
            raw["perfect"] = {q.value: tuple(pts(t)) for q, t in out["perfect"].items()}
            raw["cliques"] = [pts(s) for s in out["cliques"]] if "cliques" in out else None
        return raw

    def check(self, lib, spec, item, raw):
        kind = spec["kind"]
        if kind == "q_grow":
            return checks.check_q_grow(spec, raw)
        if kind == "q_partition":
            return checks.check_q_partition(spec, raw)
        cmax_n = lib.cr.cmaximal_cardinality(item["field"], item["circle"].radius).n
        if kind == "prime":
            return checks.check_prime_construct(spec, raw, cmax_n)
        return checks.check_quadratic_construct(spec, raw, cmax_n)

    def shares(self, specs):
        n = len(specs)
        kinds = {}
        for s in specs:
            kind = "rationals" if s["kind"].startswith("q_") else s["kind"]
            kinds[kind] = kinds.get(kind, 0) + 1
        primes = [s["p"] for s in specs if s["kind"] == "prime"]
        seen, repeats = set(), 0
        for s in specs:
            key = (s["kind"][0], s.get("p"))
            repeats += key in seen
            seen.add(key)
        sizes = [s["p"] - 1 if s["p"] % 4 == 1 else s["p"] + 1 for s in specs if s["kind"] == "prime"]
        sizes += [s["p"] ** 2 - 1 for s in specs if s["kind"] == "quadratic"]
        return {
            "ops_by_field_kind": {k: v / n for k, v in sorted(kinds.items())},
            "prime_ops_by_p_mod_4": {str(res): sum(p % 4 == res for p in primes) / len(primes) for res in (1, 3)},
            "field_repeats_earlier_op": repeats / n,
            "circle_size_quartiles": statistics.quantiles(sizes, n=4),
        }


# --- keyex -----------------------------------------------------------------------


class Keyex:
    """One simulated key-exchange session, with encode and decode, per operation."""

    name = "keyex"
    rounds = 1024
    REFERENCE_WEIGHTS = {"objects": 1 / 3, "tables": 1 / 3, "bigint": 1 / 3}  # field objects, big rationals
    DLOG_CAP = 256
    # sessions per round for each group; the first F_p session of a group in a
    # round also runs the eavesdropper's brute-force discrete log
    GROUPS = {
        "Fp:1000003": {"p": 1000003, "r": 1, "base": (400002, 800003), "sessions": 4},
        "Fp:999999999989": {"p": 999999999989, "r": 1, "base": None, "sessions": 4},
        "Q": {"p": 0, "r": Fraction(2), "base": (Fraction(8, 5), Fraction(6, 5)), "sessions": 2,
              "exponent_cap": 64},
    }

    def __init__(self):
        g = self.GROUPS["Fp:999999999989"]
        g["base"] = checks.prime_circle_point(g["p"], 0, 0, g["r"], 2)

    def session(self, rng, group, dlog: bool):
        g = self.GROUPS[group]
        return {"group": group, "p": g["p"], "r": g["r"], "base": g["base"],
                "seed_a": rng.randrange(2**32), "seed_b": rng.randrange(2**32),
                "dlog_cap": self.DLOG_CAP if dlog else 0}

    def generate(self, seed: int):
        rounds = []
        for k in range(self.rounds):
            rng = random.Random(f"keyex:{seed}:{k}")
            ops = [
                self.session(rng, group, dlog=g["p"] != 0 and i == 0)
                for group, g in self.GROUPS.items()
                for i in range(g["sessions"])
            ]
            rng.shuffle(ops)
            rounds.append(ops)
        return rounds

    def warmup_spec(self, seed: int):
        return self.session(random.Random(f"keyex-warmup:{seed}"), "Fp:1000003", dlog=False)

    def build(self, lib, rounds):
        cr = lib.cr
        params = {}
        for group, g in self.GROUPS.items():
            field = cr.PrimeField(g["p"]) if g["p"] else cr.Rationals()
            c = cr.circle(field, (0, 0), g["r"])
            base = cr.rotation_element(c, *g["base"])
            params[group] = cr.ProtocolParams(base, exponent_cap=g.get("exponent_cap", 2**64))
        return [[params[spec["group"]] for spec in specs] for specs in rounds]

    def op(self, lib, spec, params, tracer):
        cr = lib.cr
        transcript = cr.simulate_exchange(params, spec["seed_a"], spec["seed_b"], dlog_cap=spec["dlog_cap"])
        wire = cr.encode(transcript)
        return {"transcript": transcript, "wire": wire, "decoded": cr.decode(wire)}

    @staticmethod
    def raw_transcript(t):
        names = ("base", "sent_a", "sent_b", "shared_a", "shared_b")
        return {name: raw_point(getattr(t, name).point) for name in names}, t.equal

    def raw(self, out):
        t = out["transcript"]
        points, equal = self.raw_transcript(t)
        return {"points": points, "equal": equal, "wire": out["wire"],
                "decoded": self.raw_transcript(out["decoded"]), "dlog": t.dlog_iterations}

    def check(self, lib, spec, params, raw):
        def roundtrip(wire):
            back = lib.cr.decode(wire)
            return self.raw_transcript(back), lib.cr.encode(back)

        return checks.check_keyex(spec, raw, roundtrip)

    def shares(self, specs):
        n = len(specs)
        return {
            "sessions_by_group": {g: sum(s["group"] == g for s in specs) / n for g in self.GROUPS},
            "sessions_with_dlog": sum(s["dlog_cap"] > 0 for s in specs) / n,
        }


# --- sweep -----------------------------------------------------------------------


class Sweep:
    """Theorem-sweep records and CLI sweeps, one per operation."""

    name = "sweep"
    rounds = 256
    REFERENCE_WEIGHTS = {"arith": 0.75, "objects": 0.25}  # residue loops, CLI field objects
    # (size, records per round): the two smallest run the graph check;
    # the repeated sizes put the latency percentiles on plateaus
    RECORD_LEVELS = ((13, 1), (61, 1), (200, 1), (400, 3), (650, 2))
    MOD4_PMAX = 150

    def __init__(self):
        self.by_residue = primes_by_residue(2 * max(p for p, _ in self.RECORD_LEVELS))

    def generate(self, seed: int):
        rounds = []
        start = random.Random(f"sweep:{seed}").random()
        for k in range(self.rounds):
            rng = random.Random(f"sweep:{seed}:{k}")
            factor = jitter(round_offset(start, k))
            ops = [
                {"kind": "record", "p": prime_near(self.by_residue[(1, 3)[(i + k) % 2]], size * factor)}
                for size, count in self.RECORD_LEVELS
                for i in range(count)
            ]
            ops.append({"kind": "mod4", "m": round(self.MOD4_PMAX * factor)})
            ops.append({"kind": "table"})
            rng.shuffle(ops)
            rounds.append(ops)
        return rounds

    def warmup_spec(self, seed: int):
        return {"kind": "table"}

    def build(self, lib, rounds):
        return [[None] * len(specs) for specs in rounds]

    def op(self, lib, spec, item, tracer):
        if spec["kind"] == "record":
            return lib.cr.sweeps.prime_theorem_record(spec["p"], graph_max=checks.GRAPH_MAX)
        argv = ["verify", "table"] if spec["kind"] == "table" else ["verify", "mod4", "--pmax", str(spec["m"])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(argv)
        text = out.getvalue()
        if tracer is not None:
            tracer.add("cli.stdout_bytes", len(text.encode()))
        return {"code": code, "docs": checks.parse_json_lines(text)}

    def raw(self, out):
        return out

    def check(self, lib, spec, item, raw):
        if spec["kind"] == "record":
            return checks.check_prime_record(spec["p"], raw)
        if spec["kind"] == "mod4":
            return checks.check_mod4(spec["m"], raw)
        return checks.check_table(raw)

    def shares(self, specs):
        n = len(specs)
        return {
            "graph_checked_records": sum(s["kind"] == "record" and s["p"] <= checks.GRAPH_MAX for s in specs) / n,
            "cli_ops": sum(s["kind"] != "record" for s in specs) / n,
        }


WORKLOADS = {w.name: w for w in (Construct, Keyex, Sweep)}

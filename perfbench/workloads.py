"""The four workloads: what each one runs, and how its answers are checked.

A workload makes one *cycle* of operations from the seed: a list of passes,
each a list of ``Op``.  The runner repeats the cycle for the measured time,
so every cycle does the same work and the figures do not depend on where
the clock stops.  Inputs come from the harness (its own parser, its own
random systems); coversieve receives only those inputs.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import os
import random
import resource
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import constants as C
import oracles as O

MODULES = ("modarith", "covering", "cyclotomic", "progression", "dataset")


@dataclass
class Op:
    """One operation: `call` runs the program, `check` judges its result
    with an oracle (raising oracles.Rejected)."""

    kind: str
    key: str
    call: Callable[[], object]
    check: Callable[[object], None]


def parse_cov(path: Path) -> list[tuple[int, int]]:
    """The harness's own reader for `a b [tag]` covering files (normalized
    classes; the target header is skipped)."""
    out = []
    for raw in path.read_text().splitlines():
        parts = raw.split("#", 1)[0].split()
        if parts and parts[0] != "target":
            a, b = int(parts[0]), int(parts[1])
            out.append((a % b, b))
    return out


def import_coversieve() -> SimpleNamespace:
    """A fresh import of the package (earlier imports are dropped first, so
    repeated set-ups each pay the import)."""
    for name in [n for n in sys.modules if n == "coversieve" or n.startswith("coversieve.")]:
        del sys.modules[name]
    importlib.import_module("coversieve")
    return SimpleNamespace(**{m: importlib.import_module(f"coversieve.{m}") for m in MODULES})


def crt_progression(rows, kind: str) -> tuple[int, int]:
    """(A, B) of the progression an assignment pins down, computed by the
    harness: B = 1 (mod 2) and B*2^a = -1 (sierpinski) or +1 (riesel)
    modulo each assigned prime."""
    sign = -1 if kind == "sierpinski" else 1
    residues = [(1, 2)] + [(sign * pow(pow(2, a, p), -1, p) % p, p) for a, _, p in rows]
    A = math.prod(m for _, m in residues)
    B = sum(r * (A // m) * pow(A // m, -1, m) for r, m in residues) % A
    return A, B


def random_supply_covering(rng) -> list[tuple[int, int, int]]:
    """A random covering over the acceptance suite's small moduli, each
    class bound to a prime of matching order: rows (a, b, p)."""
    while True:
        rows, remaining, used = [], list(C.SUPPLY_MODULI), {}
        rng.shuffle(remaining)
        cov = bytearray(72)
        while remaining and cov.find(0) >= 0:
            gap = cov.find(0)
            b = remaining.pop()
            a = gap % b
            rows.append((a, b, C.SUPPLY[b][used.get(b, 0)]))
            used[b] = used.get(b, 0) + 1
            cov[a::b] = b"\x01" * len(range(a, 72, b))
        if cov.find(0) < 0:
            return rows


MASTERS = (360, 2520, 55440, 831600, 357, 253, 1155)


def random_bounded_system(moduli_rng, rng, master: int, size: int) -> list[tuple[int, int]]:
    """The acceptance suite's random systems: `size` classes whose moduli
    are divisors (at most 360) of `master`, so the lcm divides it.  The
    moduli, which set what a system costs to verify, come from `moduli_rng`,
    the residues from `rng`."""
    pool = [d for d in range(1, 361) if master % d == 0]
    moduli = [moduli_rng.choice(pool) for _ in range(size)]
    return [(rng.randrange(b), b) for b in moduli]


class Workload:
    name = ""
    tail_pct = 95.0
    setup_repeats = 31

    def __init__(self, root: Path):
        self.root = root
        self.cs = None
        # the environment of coversieve child processes, which share the
        # harness's bytecode cache (see run.py)
        drop = ("COVERSIEVE_EFFORT", "PYTHONDONTWRITEBYTECODE")
        self.env = {k: v for k, v in os.environ.items() if k not in drop}
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PYTHONPYCACHEPREFIX"] = sys.pycache_prefix

    def setup(self):
        """Program-side set-up, timed as setup_s: import, data load, warm-up."""
        self.cs = import_coversieve()
        data = self.load()
        self.warm_up(data)
        return data

    def load(self):
        return None

    def warm_up(self, data) -> None:
        pass

    def make_cycle(self, data, rng) -> list[list[Op]]:
        raise NotImplementedError

    def complete_ratio(self, ops, results) -> float:
        """Share of Phi_b values factored completely; 1 when none are."""
        return 1.0

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the workload process so far."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def trace_extra(self) -> dict[str, float]:
        """cli.import_ms: the median of five bare `import coversieve.cli`
        processes, measured after the traced cycles."""
        times = []
        for _ in range(5):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import coversieve.cli"], cwd=self.root,
                           env=self.env, check=True, timeout=120)
            times.append(time.perf_counter() - start)
        return {"cli.import_ms": statistics.median(times) * 1000}


# ---------------------------------------------------------------------------


class Appendix(Workload):
    """The paper's reproduction: both coverings, the audit, Table 1, and
    one-class-dropped mutants (same cost as a covered system, since every
    slice is scanned after a failure)."""

    name = "appendix"
    tail_pct = 90.0
    # One pass per cycle, so that each operation repeats some 55 times in a
    # run (see run.op_minima): audit and Table 1, then each covering and 3 of
    # its mutants.  The median lies among the Sierpinski systems and p90
    # among the Riesel ones.  Three mutants each, because a mutant whose
    # dropped class meets many slices costs less (each failing slice stops
    # early): 25 of the 459 Riesel mutants take about half the covered
    # system's time, the fixed draw holds one of them, and with three such
    # a mutant moves neither percentile.
    mutants = 3

    def load(self):
        ds = self.cs.dataset
        sier = ds.load_covering(self.root / "data" / "sierpinski.cov")
        ries = ds.load_covering(self.root / "data" / "riesel.cov")
        return dataclasses.replace(ds.appendix_data(), cov_sier=sier, cov_ries=ries)

    def make_cycle(self, data, rng):
        cs = self.cs
        files = {n: parse_cov(self.root / "data" / f"{n}.cov") for n in ("sierpinski", "riesel")}
        moduli = {b for cl in files.values() for _, b in cl}
        table1 = parse_cov(self.root / "data" / "table1.cov")
        table1_primes = [
            int(line.split("p=")[1]) for line in (self.root / "data" / "table1.cov").read_text().splitlines()
            if "p=" in line
        ]
        systems = {"sierpinski": data.cov_sier.system, "riesel": data.cov_ries.system}
        for name, classes in files.items():
            O.require(
                [(c.a, c.b) for c in systems[name].classes] == classes,
                f"load_covering({name}.cov) differs from the file",
            )

        # the same mutants for every seed, so that the seed does not change
        # the work: 25 of the 459 Riesel mutants cost about half the covered
        # system, and with mutants drawn from the run's seed run_s read 0.57 s
        # for seeds that drew one of them and 0.65-0.67 s for the others
        mutant_rng = random.Random(C.APPENDIX_MUTANT_SEED)

        def drops(name, count):
            classes = files[name]
            order = list(range(len(classes)))
            mutant_rng.shuffle(order)
            for i in order:
                w = O.dropped_class_witness(classes, i, 1 << 16)
                if w is not None:
                    yield i, w
                    count -= 1
                    if count == 0:
                        return

        def audit_check(rep):
            O.require(rep.ok and not rep.violations, f"audit violations {rep.violations}")
            O.require(rep.facts["moduli"] == len(moduli), "audit counts the wrong moduli")
            O.require(rep.facts["classes.sierpinski"] == len(files["sierpinski"]), "sierpinski count")
            O.require(rep.facts["classes.riesel"] == len(files["riesel"]), "riesel count")

        def table1_check(rep):
            O.require(rep.ok and not rep.violations, f"table1 violations {rep.violations}")
            O.require(rep.facts["rows"] == len(table1), "table1 row count")
            O.require(rep.facts["largest_prime_digits"] == len(str(max(table1_primes))), "digits")
            for (a, b), p in zip(table1, table1_primes):
                O.require(O.is_prime(p) and O.has_order(2, p, b), f"table1 row {a} {b} p={p}")

        def covered_check(v):
            # both published systems are coverings (the paper's result)
            O.require(v.covered and v.witness is None, f"published covering reported {v}")

        def mutant_op(name, i, expected):
            classes = files[name][:i] + files[name][i + 1:]
            system = cs.covering.CoveringSystem(systems[name].classes[:i] + systems[name].classes[i + 1:])
            return Op(
                f"{name}-mutant", f"{name}-drop-{i}",
                lambda: cs.covering.verify_partitioned(system, w="auto"),
                lambda v: O.check_verdict(classes, v.covered, v.witness, expected),
            )

        ops = [
            Op("audit", "audit", lambda: cs.dataset.consistency_audit(data), audit_check),
            Op("table1", "table1", lambda: cs.dataset.verify_table1(data), table1_check),
        ]
        for name in systems:
            ops.append(Op(name, name, lambda s=systems[name]: cs.covering.verify_partitioned(s, w="auto"),
                          covered_check))
            ops += [mutant_op(name, i, w) for i, w in drops(name, self.mutants)]
        rng.shuffle(ops)
        return [ops]


class SmallChecks(Workload):
    """Many sub-millisecond calls: random bounded systems through every
    verifier, builder round trips, the published constants, and seeded k
    on and off the classical progressions."""

    name = "small-checks"
    tail_pct = 99.0
    passes = 4
    # Each operation runs three times in a row and counts its fastest call
    # (see run.op_minima).  Called once between other operations, these
    # operations of some microseconds read 30-70% slower for whole runs
    # while other guests loaded the host, in which a fixed loop's fastest of
    # five calls in a row (run.machine_probe_ms) read as usual: a call right
    # after another of the same operation finds its code and data in the
    # caches, the first call depends on how fast they refill.
    calls_in_a_row = 3

    def warm_up(self, data):
        cs, ref = self.cs, C.reference()
        cs.covering.verify_naive(cs.dataset.c0_system())
        cs.progression.verify_sierpinski(ref.SELFRIDGE_K, ref.SELFRIDGE_PRIMES)

    def make_cycle(self, data, rng):
        cs, ref = self.cs, C.reference()
        cov, prog = cs.covering, cs.progression

        def system_ops(tag, classes):
            system = cov.CoveringSystem(tuple(cov.ResidueClass(a, b) for a, b in classes))
            expected = O.covering_answer(classes)

            def check(v):
                O.check_verdict(classes, v.covered, v.witness, expected)

            ops = [Op("naive", f"{tag}-naive", lambda: cov.verify_naive(system), check)]
            for w in ("auto", 2, 6, 30):
                ops.append(Op(f"partitioned-{w}", f"{tag}-w{w}",
                              lambda w=w: cov.verify_partitioned(system, w=w), check))
            return ops

        def pm_op(kind, key, k, primes):
            sign = 1 if kind == "sierpinski" else -1
            name = f"verify_{kind}"
            return Op(f"verify-{kind}", key, lambda: getattr(prog, name)(k, primes),
                      lambda r: O.check_pm(k, primes, sign, kind, r))

        def build_op(kind, key, rows, expect_b=None):
            name = f"build_{kind}"
            asg = [prog.PrimeAssignment(cov.ResidueClass(a, b), p) for a, b, p in rows]

            def check(r):
                O.check_progression(r, kind, rows)
                O.require(expect_b is None or r.B == expect_b, f"B = {r.B}, expected {expect_b}")

            return Op(f"build-{kind}", key, lambda: getattr(prog, name)(asg), check)

        def progression_object(kind, rows):
            A, B = crt_progression(rows, kind)
            return prog.SievedProgression(
                A=A, B=B, kind=kind, primes=frozenset({2, *(p for _, _, p in rows)}),
                certificate=tuple((kind, a, b, p) for a, b, p in rows),
            )

        def brier_op(key, k, ps, pr):
            def check(r):
                O.check_pm(k, ps, 1, "sierpinski", r.sierpinski)
                O.check_pm(k, pr, -1, "riesel", r.riesel)
                O.require(r.ok == (r.sierpinski.ok and r.riesel.ok), "brier ok flag")
            return Op("verify-brier", key, lambda: prog.verify_brier(k, ps, pr), check)

        def off_progression(B, A, primes, sign):
            """A seeded k = B + 2j outside A*m + B that some n escapes."""
            orders = {p: O.order(2, p) for p in primes}
            period = math.lcm(*orders.values())
            while True:
                k = B + 2 * rng.randrange(1, A // 2)
                if any(all((k * pow(2, n, p) + sign) % p for p in primes) for n in range(period)):
                    return k

        s_primes = tuple(p for _, _, p in ref.CLASSICAL_S_ASSIGNMENT)
        r_primes = tuple(p for _, _, p in ref.CLASSICAL_R_ASSIGNMENT)
        clavier = (ref.CLAVIER_K, ref.CLAVIER_S_PRIMES, ref.CLAVIER_R_PRIMES)
        def fixed(k):
            """The published constants, once in every pass, each pass's
            copy its own operation (see run.op_minima)."""
            return [
                pm_op("sierpinski", f"p{k}-selfridge", ref.SELFRIDGE_K, ref.SELFRIDGE_PRIMES),
                pm_op("riesel", f"p{k}-classical-r", ref.CLASSICAL_R_B, r_primes),
                brier_op(f"p{k}-clavier", ref.CLAVIER_K, ref.CLAVIER_S_PRIMES, ref.CLAVIER_R_PRIMES),
                brier_op(f"p{k}-brier41", ref.BRIER_K, ref.BRIER_S_PRIMES, ref.BRIER_R_PRIMES),
                Op("verify-digit", f"p{k}-toy3",
                   lambda: prog.verify_digit_robust(ref.TOY3_K, ref.TOY3_PRIMES, base=3),
                   lambda r: O.check_digit_robust(ref.TOY3_K, ref.TOY3_PRIMES, 3, r)),
                Op("verify-base2", f"p{k}-clavier-base2",
                   lambda: prog.verify_base2_delicate(*clavier),
                   lambda r: O.check_base2_delicate(*clavier, r)),
                build_op("sierpinski", f"p{k}-classical-s-build", ref.CLASSICAL_S_ASSIGNMENT,
                         ref.CLASSICAL_S_B),
                build_op("riesel", f"p{k}-classical-r-build", ref.CLASSICAL_R_ASSIGNMENT,
                         ref.CLASSICAL_R_B),
            ]

        # the same moduli for every seed, so that the seed does not change
        # the cost of the systems: with seeded moduli the p99 of one seed read
        # 2.4 ms and of another 3.1 ms in every run
        moduli_rng = random.Random(C.SMALL_CHECKS_MODULI_SEED)
        cycle = []
        for k in range(self.passes):
            ops = fixed(k)
            # one system per (master, size): the two properties that set the
            # cost, so every pass and every seed has the same mix of them
            for master in MASTERS:
                for size in range(1, 13):
                    ops += system_ops(f"p{k}-m{master}-k{size}", random_bounded_system(moduli_rng, rng, master, size))
            for kind in ("sierpinski", "riesel"):
                rows = random_supply_covering(rng)
                ops += system_ops(f"p{k}-{kind}-supply", [(a, b) for a, b, _ in rows])
                ops.append(build_op(kind, f"p{k}-{kind}-build", rows))
                A, B = crt_progression(rows, kind)
                kk = B + A * rng.randrange(1, 10 ** 6)
                ops.append(pm_op(kind, f"p{k}-{kind}-roundtrip", kk, [p for _, _, p in rows]))
                if kind == "sierpinski":
                    parts = [
                        progression_object(kind, rows),
                        progression_object("riesel", [(rng.randrange(C.COMBINE_ORDER), C.COMBINE_ORDER,
                                                       C.COMBINE_PRIME)]),
                    ]
                    ops.append(Op("combine", f"p{k}-combine", lambda parts=parts: prog.combine_brier(parts),
                                  lambda r, parts=parts: O.check_combined(r, parts)))
            m = rng.randrange(1, 10 ** 9)
            ops += [
                pm_op("sierpinski", f"p{k}-s-on", ref.CLASSICAL_S_B + ref.CLASSICAL_S_A * m, s_primes),
                pm_op("riesel", f"p{k}-r-on", ref.CLASSICAL_R_B + ref.CLASSICAL_R_A * m, r_primes),
                pm_op("sierpinski", f"p{k}-s-off",
                      off_progression(ref.CLASSICAL_S_B, ref.CLASSICAL_S_A, s_primes, 1), s_primes),
                pm_op("riesel", f"p{k}-r-off",
                      off_progression(ref.CLASSICAL_R_B, ref.CLASSICAL_R_A, r_primes, -1), r_primes),
            ]
            rng.shuffle(ops)
            cycle.append([op for op in ops for _ in range(self.calls_in_a_row)])
        return cycle


class Cyclo(Workload):
    """Factoring Phi_b(2) under one fixed budget: a size-stratified sample
    of the covering moduli, plus F6 and F7, in one pass in seeded order."""

    name = "cyclo"
    # 87 operations: p88 is the highest percentile with 10 samples beyond it
    tail_pct = 88.0

    def load(self):
        return self.cs.modarith.Budget(**C.CYCLO_BUDGET)

    def warm_up(self, budget):
        self.cs.cyclotomic.primes_of_order(12, 2, budget)

    def make_cycle(self, budget, rng):
        cs = self.cs
        moduli = sorted({b for n in ("sierpinski", "riesel")
                         for _, b in parse_cov(self.root / "data" / f"{n}.cov")})
        bits = {b: O.cyclotomic_at(b).bit_length() for b in moduli}
        pool = sorted((bits[b], b) for b in moduli if bits[b] <= C.CYCLO_MAX_BITS)
        # the middle one of every CYCLO_STRIDE moduli by value size: the same
        # sample for every seed, so that the work and complete_ratio are too,
        # and small enough that each operation repeats 15 or more times in a run
        sample = [b for _, b in pool[C.CYCLO_STRIDE // 2::C.CYCLO_STRIDE]]

        def order_op(b):
            def check(r):
                O.require(r.order == b and r.base == 2, "wrong order/base echoed")
                O.check_primes_of_order(b, 2, r.primes, r.complete, r.unfactored_cofactor)
            return Op("primes_of_order", f"b{b}", lambda: cs.cyclotomic.primes_of_order(b, 2, budget), check)

        def fermat_op(m):
            n = 2 ** (2 ** m) + 1
            return Op("factor", f"F{m}", lambda: cs.modarith.factor(n, budget),
                      lambda r: O.check_factorization(n, r.factors, r.cofactor, r.complete))

        ops = [order_op(b) for b in sample] + [fermat_op(6), fermat_op(7)]
        rng.shuffle(ops)
        return [ops]

    def complete_ratio(self, ops, results):
        return sum(getattr(r, "complete", False) for r in results) / len(results)


class Cli(Workload):
    """The coversieve command, one process per operation: interpreter
    start-up, imports and argument parsing are paid on every call."""

    name = "cli"
    tail_pct = 90.0
    setup_repeats = 15

    def __init__(self, root):
        super().__init__(root)
        self.expected_dir = Path(__file__).resolve().parent / "expected"
        self.child_rss_kb: list[int] = []

    def run_cli(self, *args):
        """(exit code, stdout) of one coversieve process.  Reaped by wait4,
        which gives this process's own peak memory."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "coversieve.cli", *map(str, args)],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        chunks, deadline = [], time.monotonic() + 120
        with proc.stdout, selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                if not sel.select(deadline - time.monotonic()):
                    proc.kill()
                    proc.wait()
                    raise TimeoutError(f"coversieve {args} ran for 120 s")
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb.append(usage.ru_maxrss)
        return proc.returncode, b"".join(chunks)

    def setup(self):
        result = self.run_cli("order", "--base", 2, "--mod", 5, "--format", "kv")
        O.require(result == (0, b"base=2\nmod=5\norder=4\n"), f"warm-up process gave {result}")

    def make_cycle(self, data, rng):
        classes = parse_cov(self.root / "data" / "sierpinski.cov")
        while True:
            i = rng.randrange(len(classes))
            witness = O.dropped_class_witness(classes, i, 1 << 16)
            if witness is not None:
                break
        mutant = Path(__file__).resolve().parent / "out" / f"mutant-{rng.randrange(10 ** 9)}.cov"
        mutant.write_text("".join(f"{a} {b}\n" for a, b in classes[:i] + classes[i + 1:]))
        mutant_rel = mutant.relative_to(self.root)

        def fixed(kind, file, *args, key=None):
            expected = (self.expected_dir / file).read_bytes()
            return Op(kind, key or file, lambda: self.run_cli(*args),
                      lambda r: O.check_cli(r, 0, expected=expected))

        def order_op(p):
            def check(r):
                O.check_cli(r, 0, fields={"base": 2, "mod": p})
                e = int(O.parse_kv(r[1].decode())["order"])
                O.require((p - 1) % e == 0 and O.has_order(2, p, e), f"order {e} of 2 mod {p}")
            return Op("order", f"order-{p}", lambda: self.run_cli("order", "--base", 2, "--mod", p,
                                                                  "--format", "kv"), check)

        p1, p2 = rng.sample(C.ORDER_PRIMES, 2)
        appendix = [fixed("verify-appendix", "verify-appendix.kv", "dataset", "verify-appendix", "--format",
                          "kv", key=f"verify-appendix-{i}") for i in range(3)]
        # 7 light processes (about the cost of the import), the mutant, the
        # 459-class verify and verify-appendix as three operations: the
        # median falls inside the light block and the 90th percentile inside
        # the top one.  The light processes run twice a cycle, and each
        # operation's fastest call counts (run.op_minima), so that the
        # median's operations repeat some 25 times in a run, not 12.
        light = [
            fixed("check", "check-selfridge.kv", "check", "--kind", "sierpinski", "--k", C.reference().SELFRIDGE_K,
                  "--primes", (self.expected_dir / "selfridge.primes").relative_to(self.root),
                  "--format", "kv"),
            fixed("verify-both", "verify-c0.kv", "verify", "data/c0.cov", "--method", "both", "--format", "kv"),
            fixed("verify-both", "verify-table1.kv", "verify", "data/table1.cov", "--method", "both",
                  "--format", "kv"),
            fixed("cyclo", "cyclo-64.kv", "cyclo", "--b", 64, "--eval", 2, "--factor", "--format", "kv"),
            fixed("shift", "shift-130.kv", "shift", "--A", 130, "--B", 1, "--base", 10, "--format", "kv"),
            order_op(p1),
            order_op(p2),
        ]
        ops = 2 * light + appendix + [
            fixed("verify-riesel", "verify-riesel.kv", "verify", "data/riesel.cov", "--format", "kv"),
            Op("verify-mutant", "mutant", lambda: self.run_cli("verify", mutant_rel, "--format", "kv"),
               lambda r: O.check_cli(r, 1, fields={"classes": len(classes) - 1, "covered": 0,
                                                   "witness": witness})),
        ]
        rng.shuffle(ops)
        return [ops]

    def complete_ratio(self, ops, results):
        factored = [r[1] if r else b"" for op, r in zip(ops, results) if op.kind == "cyclo"]
        return sum(b"\ncomplete=1\n" in out for out in factored) / len(factored)

    def peak_rss_mb(self):
        """The largest coversieve process so far."""
        return max(self.child_rss_kb) / 1024


WORKLOADS = {w.name: w for w in (Appendix, SmallChecks, Cyclo, Cli)}

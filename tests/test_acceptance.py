"""Acceptance suite: one test per criterion, each printing a PASS line.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every expected value here is exact (integer equality / boolean); the only
tolerances are the stated wall-clock ceilings, asserted loosely.
"""

import math
import random
import time

from coversieve.covering import (
    CoveringSystem,
    ResidueClass,
    lcm_of_moduli,
    satisfying_class,
    verify_naive,
    verify_partitioned,
)
from coversieve.cyclotomic import cyclotomic_value, primes_of_order
from coversieve.dataset import appendix_data, c0_system, consistency_audit, table2_rows, verify_table1
from coversieve.modarith import crt_combine
from coversieve.progression import (
    PrimeAssignment,
    build_riesel,
    build_sierpinski,
    subprogression_shift,
    verify_brier,
    verify_digit_robust,
    verify_riesel,
    verify_sierpinski,
)

import sieve_data as sd


def report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_appendix_coverings():
    t0 = time.time()
    data = appendix_data()
    results = {}
    for name, cov, lcm_expect, n_expect in (
        ("sierpinski", data.cov_sier, sd.APPENDIX_S_LCM, 447),
        ("riesel", data.cov_ries, sd.APPENDIX_R_LCM, 459),
    ):
        t1 = time.time()
        verdict = verify_partitioned(cov.system, w="auto")
        elapsed = time.time() - t1
        results[name] = (
            verdict.covered
            and lcm_of_moduli(cov.system) == lcm_expect
            and len(cov.system.classes) == n_expect
            and elapsed < 300
        )
    report(
        1,
        all(results.values()),
        f"both appendix coverings verified (partitioned, auto w) with exact "
        f"lcms {sd.APPENDIX_S_LCM} / {sd.APPENDIX_R_LCM} in {time.time()-t0:.2f}s",
    )


def test_criterion_2_five_class_system():
    t0 = time.time()
    c0 = c0_system()
    ok = verify_naive(c0).covered and verify_partitioned(c0).covered
    for k, expected in table2_rows():
        got = satisfying_class(c0, k)
        ok &= got is not None and got.contains(k) and got == expected
    elapsed = time.time() - t0
    report(2, ok and elapsed < 1.0,
           f"five-class system verified both ways; all 9 rows matched in {elapsed:.3f}s")


def test_criterion_3_slice_resolution_table():
    t0 = time.time()
    rep = verify_table1(appendix_data())
    elapsed = time.time() - t0
    report(3, rep.ok and elapsed < 30,
           f"11 primes have order = modulus (largest 26 digits) and the rows "
           f"cover 2 (mod 8) in {elapsed:.2f}s")


def test_criterion_4_consistency_audit():
    data = appendix_data()
    rep = consistency_audit(data)
    ok = rep.ok
    ok &= data.L[1404] == (7, False)
    blocks_1404 = [
        t[1]
        for c, t in zip(data.cov_sier.system.classes, data.cov_sier.tags)
        if c.b == 1404
    ]
    ok &= blocks_1404 == [1, 2, 3, 1, 2, 3, 4]   # 3-block then 4-block
    ok &= sum(1 for c in data.cov_sier.system.classes if c.b == 4) == 1
    ok &= sum(1 for c in data.cov_ries.system.classes if c.b == 4) == 1
    report(4, ok, "audit reports zero violations; L(1404)=7 split 3+4; "
                  "shared-prime rule holds at modulus 4")


def test_criterion_5_classical_constants():
    t0 = time.time()
    checks = [
        verify_sierpinski(sd.SELFRIDGE_K, sd.SELFRIDGE_PRIMES).ok,
        verify_sierpinski(sd.CLASSICAL_S_B, sd.CLASSICAL_S_PRIMES).ok,
        verify_riesel(sd.CLASSICAL_R_B, sd.CLASSICAL_R_PRIMES).ok,
        verify_brier(sd.CLAVIER_K, sd.CLAVIER_S_PRIMES, sd.CLAVIER_R_PRIMES).ok,
        verify_brier(sd.BRIER_K, sd.BRIER_S_PRIMES, sd.BRIER_R_PRIMES).ok,
    ]
    report(5, all(checks),
           f"78557, 15511380746462593381, 509203, and both dual-sieve "
           f"constants verified in {time.time()-t0:.2f}s")


def test_criterion_6_cyclotomic_identity():
    ok = True
    for b in range(1, 201):
        divisors = [d for d in range(1, b + 1) if b % d == 0]
        ok &= math.prod(cyclotomic_value(d, 2) for d in divisors) == 2**b - 1
        for x in (-3, 0, 3, 10):
            ok &= math.prod(cyclotomic_value(d, x) for d in divisors[1:]) == (x**b - 1) // (x - 1)
        ok &= math.prod(cyclotomic_value(d, 1) for d in divisors[1:]) == b
    ok &= primes_of_order(64, 2).primes == (641, 6700417)
    report(6, ok, "prod of cyclotomic values = 2^b - 1 for b <= 200, and over d > 1 "
                  "= (x^b - 1)/(x - 1) at x = -3, 0, 3, 10 and = b at x = 1; "
                  "the order-64 primes are 641 and 6700417")


def _random_bounded_system(rng):
    masters = (360, 2520, 55440, 831600, 357, 253, 1155)
    m = rng.choice(masters)
    pool = [d for d in range(1, 361) if m % d == 0]
    k = rng.randint(1, 12)
    classes = tuple(
        ResidueClass(rng.randrange(b), b) for b in (rng.choice(pool) for _ in range(k))
    )
    return CoveringSystem(classes)


SUPPLY_MODULI = [2, 3, 4, 8, 12, 24, 36, 36]


def _random_supply_covering(rng):
    while True:
        classes, remaining = [], list(SUPPLY_MODULI)
        rng.shuffle(remaining)
        cov = bytearray(72)
        while remaining and cov.find(0) >= 0:
            gap = cov.find(0)
            b = remaining.pop()
            a = gap % b
            classes.append((a, b))
            cov[a::b] = b"\x01" * len(range(a, 72, b))
        if cov.find(0) < 0:
            return classes


def test_criterion_7_oracle_equivalence():
    rng = random.Random(20250810)
    disagreements = 0
    for _ in range(1000):
        s = _random_bounded_system(rng)
        vn = verify_naive(s)
        vp = verify_partitioned(s)
        if vp.covered != vn.covered:
            disagreements += 1
        if not vp.covered and any(c.contains(vp.witness) for c in s.classes):
            disagreements += 1

    supply = {b: list(primes_of_order(b, 2).primes) for b in set(SUPPLY_MODULI)}
    roundtrip_failures = 0
    for i in range(200):
        rows = []
        used = {b: 0 for b in supply}
        for a, b in _random_supply_covering(rng):
            rows.append((a, b, supply[b][used[b]]))
            used[b] += 1
        assignments = [PrimeAssignment(ResidueClass(a, b), p) for a, b, p in rows]
        builder, verifier = (
            (build_sierpinski, verify_sierpinski)
            if i % 2 == 0
            else (build_riesel, verify_riesel)
        )
        prog = builder(assignments)
        primes = [p for p in prog.primes if p != 2]
        k = prog.B if prog.B > max(primes) + 1 else prog.B + prog.A
        if not verifier(k, primes).ok:
            roundtrip_failures += 1

    crt_failures = 0
    for _ in range(300):
        master = rng.choice((720, 5040, 9240, 9360))
        moduli = [
            rng.choice([d for d in range(2, 10**4 + 1) if master % d == 0])
            for _ in range(rng.randint(1, 4))
        ]
        x0 = rng.randrange(10**6)
        combined = crt_combine([ResidueClass(x0 % m, m) for m in moduli])
        ell = math.lcm(*moduli)
        brute = next(x for x in range(ell) if all(x % m == x0 % m for m in moduli))
        if (combined.a, combined.b) != (brute, ell):
            crt_failures += 1

    report(
        7,
        disagreements == 0 and roundtrip_failures == 0 and crt_failures == 0,
        "1000 random systems: naive and partitioned agree; 200 builder "
        "roundtrips verified; 300 CRT results equal brute-force minima",
    )


def test_criterion_8_shift_and_digit_robust_toy():
    s = subprogression_shift(130, 1, 10)
    ok = s.B0 % 130 == 1 and math.gcd(s.A0, s.B0) == 1
    ok &= s.A0 == 10**42 * 130 and s.B0 == 10**39 - 10**3 + 1

    toy = verify_digit_robust(sd.TOY3_K, sd.TOY3_PRIMES, base=3)
    ok &= toy.ok

    shifted = subprogression_shift(sd.TOY3_A, sd.TOY3_K, 3)
    rng = random.Random(8)
    for _ in range(100):
        m = rng.randrange(10**12)
        d = rng.choice([-2, -1, 1, 2])
        n = rng.randrange(3 * shifted.exp_b0)
        hits = [p for p in sd.TOY3_PRIMES if shifted.value_mod(m, d, n, p) == 0]
        ok &= bool(hits)
        if not hits:
            continue
        p = hits[0]
        if n <= shifted.exp_b0 - 1:
            # value >= 3^(ell+1) - 3^ell + B > 3^ell > A + B >= p
            ok &= 3**shifted.ell > shifted.A + shifted.B >= p
        else:
            # value ≡ B - 3^ell (mod 3^(2 ell)), a residue that is neither
            # p nor -p for any certificate prime
            mod = 3 ** (2 * shifted.ell)
            r = shifted.value_mod(m, d, n, mod)
            ok &= r == (shifted.B - 3**shifted.ell) % mod
            ok &= r != p and r != mod - p
    report(8, ok, "shift of (130, 1, 10) keeps B0 ≡ B (mod 130) with "
                  "gcd(A0, B0) = 1; 100 digit-change probes of the shifted "
                  "certificate progression all divisible, never ±p")

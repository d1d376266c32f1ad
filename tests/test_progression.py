import math
import random

import pytest

from coversieve import progression
from coversieve.covering import ResidueClass
from coversieve.cyclotomic import primes_of_order
from coversieve.modarith import CapacityError, Congruence, crt_combine
from coversieve.progression import (
    BrierCheck,
    CheckResult,
    CombineConflictError,
    PrimeAssignment,
    build_riesel,
    build_sierpinski,
    combine_brier,
    subprogression_shift,
    verify_base2_delicate,
    verify_brier,
    verify_digit_robust,
    verify_riesel,
    verify_sierpinski,
)

import sieve_data as sd


def assignment(rows):
    return [PrimeAssignment(ResidueClass(a, b), p) for a, b, p in rows]


# ---------------------------------------------------------------------------
# builders


def test_build_sierpinski_diagnostic_single_class():
    prog = build_sierpinski(assignment([(0, 4, 5)]), require_covering=False)
    assert prog.B % 5 == 4
    assert prog.B % 10 == 9
    assert prog.A == 10


def test_build_riesel_diagnostic_single_class():
    prog = build_riesel(assignment([(2, 4, 5)]), require_covering=False)
    assert prog.B % 5 == 4
    assert prog.B % 10 == 9


def test_build_sierpinski_classical():
    prog = build_sierpinski(assignment(sd.CLASSICAL_S_ASSIGNMENT))
    assert prog.A == sd.CLASSICAL_S_A
    assert prog.B == sd.CLASSICAL_S_B
    assert math.gcd(prog.A, prog.B) == 1
    assert verify_sierpinski(prog.B, sd.CLASSICAL_S_PRIMES).ok


def test_build_riesel_classical():
    prog = build_riesel(assignment(sd.CLASSICAL_R_ASSIGNMENT))
    assert prog.A == sd.CLASSICAL_R_A
    assert prog.B == sd.CLASSICAL_R_B
    assert verify_riesel(prog.B, sd.CLASSICAL_R_PRIMES).ok


def test_build_rejects_non_covering():
    with pytest.raises(ValueError, match="cover"):
        build_sierpinski(assignment([(0, 4, 5), (1, 2, 3)]))


def test_build_rejects_duplicates_and_bad_orders():
    with pytest.raises(ValueError, match="duplicate"):
        build_riesel(assignment([(2, 4, 5), (2, 4, 13)]), require_covering=False)
    with pytest.raises(ValueError, match="used by two"):
        build_riesel(assignment([(2, 4, 5), (1, 4, 5)]), require_covering=False)
    with pytest.raises(ValueError, match="ord"):
        build_sierpinski(assignment([(0, 4, 13)]), require_covering=False)
    with pytest.raises(ValueError, match="odd prime"):
        build_sierpinski(assignment([(0, 1, 2)]), require_covering=False)
    with pytest.raises(ValueError, match="no prime"):
        build_sierpinski([PrimeAssignment(ResidueClass(0, 4), None)],
                         require_covering=False)


def test_combine_brier_shared_subset():
    ps = build_sierpinski(assignment([(0, 4, 5)]), require_covering=False)
    pr = build_riesel(assignment([(2, 4, 5)]), require_covering=False)
    assert ps.B % 10 == pr.B % 10 == 9
    comb = combine_brier([ps, pr])
    assert comb.A == 10 and comb.B == 9
    assert comb.kind == "brier"
    assert comb.primes == frozenset({2, 5})


def test_combine_brier_conflict_names_prime():
    ps = build_sierpinski(assignment([(0, 4, 5)]), require_covering=False)
    pr = build_riesel(assignment([(0, 4, 5)]), require_covering=False)
    assert pr.B % 10 == 1
    with pytest.raises(CombineConflictError) as exc:
        combine_brier([ps, pr])
    assert exc.value.prime == 5


def test_combine_three_disjoint_parts_matches_brute_force():
    p1 = build_sierpinski(assignment([(0, 2, 3)]), require_covering=False)
    p2 = build_sierpinski(assignment([(0, 4, 5)]), require_covering=False)
    p3 = build_riesel(assignment([(0, 3, 7)]), require_covering=False)
    comb = combine_brier([p1, p2, p3])
    expected = min(
        x for x in range(1, comb.A + 1)
        if x % p1.A == p1.B and x % p2.A == p2.B and x % p3.A == p3.B
    )
    assert comb.B == expected
    # combined ≡ each part modulo that part's A
    for part in (p1, p2, p3):
        assert comb.B % part.A == part.B


# ---------------------------------------------------------------------------
# verifiers


def test_verify_sierpinski_selfridge():
    res = verify_sierpinski(sd.SELFRIDGE_K, sd.SELFRIDGE_PRIMES)
    assert res.ok and res.period == 36


def test_verify_sierpinski_classical():
    res = verify_sierpinski(sd.CLASSICAL_S_B, sd.CLASSICAL_S_PRIMES)
    assert res.ok and res.period == 64


def test_verify_sierpinski_false():
    res = verify_sierpinski(3, [3])
    assert not res.ok and res.witness == 0


def test_verify_riesel_classical():
    res = verify_riesel(sd.CLASSICAL_R_B, sd.CLASSICAL_R_PRIMES)
    assert res.ok and res.period == 24


def test_verify_riesel_false():
    res = verify_riesel(5, [3])
    assert not res.ok and res.witness == 0


def test_verify_clavier_and_brier_numbers():
    assert verify_riesel(sd.CLAVIER_K, sd.CLAVIER_R_PRIMES).ok
    assert verify_brier(sd.CLAVIER_K, sd.CLAVIER_S_PRIMES, sd.CLAVIER_R_PRIMES).ok
    assert verify_brier(sd.BRIER_K, sd.BRIER_S_PRIMES, sd.BRIER_R_PRIMES).ok
    assert not verify_brier(3, [3], [3]).ok


def test_verifier_certificates_are_sound():
    res = verify_sierpinski(sd.SELFRIDGE_K, sd.SELFRIDGE_PRIMES)
    for kind, a, b, p in res.certificate:
        assert (sd.SELFRIDGE_K * pow(2, a, p) + 1) % p == 0
    res = verify_riesel(sd.CLASSICAL_R_B, sd.CLASSICAL_R_PRIMES)
    for kind, a, b, p in res.certificate:
        assert (sd.CLASSICAL_R_B * pow(2, a, p) - 1) % p == 0


def test_verdict_depends_on_k_only_through_residues():
    prod = math.prod(sd.SELFRIDGE_PRIMES)
    shifted = sd.SELFRIDGE_K + 2 * prod
    assert verify_sierpinski(shifted, sd.SELFRIDGE_PRIMES).ok


def test_verify_pm_input_validation():
    with pytest.raises(ValueError):
        verify_sierpinski(78556, sd.SELFRIDGE_PRIMES)  # even
    with pytest.raises(ValueError):
        verify_sierpinski(-3, sd.SELFRIDGE_PRIMES)
    with pytest.raises(ValueError):
        verify_sierpinski(9, [2])
    with pytest.raises(ValueError, match="9 is not prime"):
        verify_sierpinski(78557, [3, 5, 9])


def test_period_cap(monkeypatch):
    # Selfridge's primes need a period of 36, above a cap of 10
    monkeypatch.setattr(progression, "PERIOD_CAP", 10)
    with pytest.raises(CapacityError):
        verify_sierpinski(78557, sd.SELFRIDGE_PRIMES)


def test_verify_digit_robust_toy():
    res = verify_digit_robust(sd.TOY3_K, sd.TOY3_PRIMES, base=3)
    assert res.ok
    assert res.period == sd.TOY3_PERIOD
    for d, a, o, p in res.certificate:
        assert (sd.TOY3_K + d * pow(3, a, p)) % p == 0


def test_verify_digit_robust_negative_cases():
    res = verify_digit_robust(294001, [7])
    assert not res.ok and res.witness is not None
    d, n = res.witness
    assert (294001 + d * 10**n) % 7 != 0
    assert not verify_digit_robust(101, []).ok
    with pytest.raises(ValueError, match="divides the base"):
        verify_digit_robust(101, [5], base=10)


def test_verify_base2_delicate():
    res = verify_base2_delicate(sd.CLAVIER_K, sd.CLAVIER_S_PRIMES, sd.CLAVIER_R_PRIMES)
    assert res.ok
    for sign, a, o, p in res.certificate:
        assert (sd.CLAVIER_K + sign * pow(2, a, p)) % p == 0
    assert not verify_base2_delicate(3, [], []).ok


def test_base2_delicate_crt_toys_agree_with_brute_force():
    # CRT-placed toys over {3, 5, 17}: the orders 2, 4, 8 have total density
    # 1/2 + 1/4 + 1/8 < 1, so no placement can cover a full side; the scan
    # verdict must match a literal brute force over one period either way.
    rng = random.Random(5)
    for _ in range(25):
        residues = [(-pow(2, rng.randrange(o), p)) % p for p, o in ((3, 2), (5, 4), (17, 8))]
        k = crt_combine(
            [Congruence(r, p) for r, p in zip(residues, (3, 5, 17))] + [Congruence(1, 2)]
        ).residue
        res = verify_base2_delicate(k, [3, 5, 17], [3, 5, 17])
        L = 8
        brute = all(
            any((k + 2**n) % p == 0 for p in (3, 5, 17)) for n in range(L)
        ) and all(any((k - 2**n) % p == 0 for p in (3, 5, 17)) for n in range(L))
        assert res.ok == brute
        assert not res.ok


# ---------------------------------------------------------------------------
# golden results: every field of the five period checks (verdict, witness,
# period, certificate and reason) on the published constants and on one
# failing k per check, pinned so the shared scan core cannot drift


GOLDEN = {
    "sierpinski-selfridge": (
        lambda: verify_sierpinski(sd.SELFRIDGE_K, sd.SELFRIDGE_PRIMES),
        CheckResult(
            True, None, 36,
            (
                ("sierpinski", 0, 2, 3), ("sierpinski", 1, 4, 5),
                ("sierpinski", 1, 3, 7), ("sierpinski", 11, 12, 13),
                ("sierpinski", 15, 18, 19), ("sierpinski", 27, 36, 37),
                ("sierpinski", 3, 9, 73),
            ),
            "",
        ),
    ),
    "sierpinski-gap": (
        lambda: verify_sierpinski(sd.SELFRIDGE_K + 2, sd.SELFRIDGE_PRIMES),
        CheckResult(
            False, 6, 36,
            (
                ("sierpinski", 1, 2, 3), ("sierpinski", 0, 4, 5),
                ("sierpinski", 2, 3, 7), ("sierpinski", 4, 18, 19),
                ("sierpinski", 15, 36, 37),
            ),
            "n = 6: no prime in the set divides k*2^n + 1",
        ),
    ),
    "sierpinski-bound": (
        lambda: verify_sierpinski(sd.SELFRIDGE_K, sd.SELFRIDGE_PRIMES + [131071]),
        CheckResult(
            False, None, 612,
            (
                ("sierpinski", 0, 2, 3), ("sierpinski", 1, 4, 5),
                ("sierpinski", 1, 3, 7), ("sierpinski", 11, 12, 13),
                ("sierpinski", 15, 18, 19), ("sierpinski", 27, 36, 37),
                ("sierpinski", 3, 9, 73),
            ),
            "k = 78557 does not exceed 131071; divisibility cannot force compositeness",
        ),
    ),
    "riesel-classical": (
        lambda: verify_riesel(sd.CLASSICAL_R_B, sd.CLASSICAL_R_PRIMES),
        CheckResult(
            True, None, 24,
            (
                ("riesel", 0, 2, 3), ("riesel", 1, 4, 5), ("riesel", 2, 3, 7),
                ("riesel", 7, 12, 13), ("riesel", 7, 8, 17), ("riesel", 3, 24, 241),
            ),
            "",
        ),
    ),
    "riesel-gap": (
        lambda: verify_riesel(sd.CLASSICAL_R_B + 2, sd.CLASSICAL_R_PRIMES),
        CheckResult(
            False, 0, 24,
            (
                ("riesel", 1, 3, 7), ("riesel", 9, 12, 13), ("riesel", 6, 8, 17),
            ),
            "n = 0: no prime in the set divides k*2^n - 1",
        ),
    ),
    "brier-41": (
        lambda: verify_brier(sd.BRIER_K, sd.BRIER_S_PRIMES, sd.BRIER_R_PRIMES),
        BrierCheck(
            True,
            CheckResult(
                True, None, 96,
                (
                    ("sierpinski", 1, 2, 3), ("sierpinski", 0, 4, 5),
                    ("sierpinski", 2, 8, 17), ("sierpinski", 6, 48, 97),
                    ("sierpinski", 86, 96, 193), ("sierpinski", 14, 16, 257),
                    ("sierpinski", 22, 48, 673), ("sierpinski", 6, 32, 65537),
                ),
                "",
            ),
            CheckResult(
                True, None, 288,
                (
                    ("riesel", 0, 2, 3), ("riesel", 0, 3, 7), ("riesel", 7, 12, 13),
                    ("riesel", 11, 18, 19), ("riesel", 23, 36, 37),
                    ("riesel", 8, 9, 73), ("riesel", 5, 36, 109),
                    ("riesel", 13, 24, 241), ("riesel", 25, 72, 433),
                    ("riesel", 73, 144, 577), ("riesel", 1, 288, 1153),
                    ("riesel", 145, 288, 6337), ("riesel", 49, 72, 38737),
                ),
                "",
            ),
        ),
    ),
    "brier-gap": (
        lambda: verify_brier(sd.BRIER_K + 2, sd.BRIER_S_PRIMES, sd.BRIER_R_PRIMES),
        BrierCheck(
            False,
            CheckResult(
                False, 0, 96,
                (
                    ("sierpinski", 2, 4, 5), ("sierpinski", 15, 16, 257),
                ),
                "n = 0: no prime in the set divides k*2^n + 1",
            ),
            CheckResult(
                False, 0, 288,
                (
                    ("riesel", 9, 12, 13), ("riesel", 14, 18, 19),
                    ("riesel", 29, 36, 37), ("riesel", 7, 9, 73),
                    ("riesel", 40, 144, 577),
                ),
                "n = 0: no prime in the set divides k*2^n - 1",
            ),
        ),
    ),
    "digit-toy3": (
        lambda: verify_digit_robust(sd.TOY3_K, sd.TOY3_PRIMES, base=3),
        CheckResult(
            True, None, 720,
            (
                (-2, 0, 4, 5), (-2, 2, 6, 7), (-2, 1, 3, 13), (-2, 5, 16, 17),
                (-2, 5, 18, 19), (-2, 17, 30, 31), (-2, 17, 18, 37), (-2, 3, 8, 41),
                (-2, 0, 10, 61), (-2, 6, 12, 73), (-2, 33, 48, 97), (-2, 29, 45, 181),
                (-2, 9, 16, 193), (-2, 100, 120, 241), (-2, 4, 30, 271),
                (-2, 45, 48, 577), (-2, 19, 48, 769), (-2, 187, 240, 4801),
                (-2, 15, 24, 6481), (-2, 353, 720, 154081), (-2, 83, 180, 176401),
                (-2, 55, 90, 387631), (-2, 2, 36, 530713), (-2, 65, 90, 755551),
                (-2, 11, 45, 927001), (-2, 97, 120, 26050081), (-2, 34, 60, 47763361),
                (-2, 277, 360, 116809201), (-2, 13, 80, 128653413121),
                (-2, 16, 72, 282429005041), (-2, 52, 360, 2081711451601), (-1, 0, 1, 2),
                (-1, 3, 4, 5), (-1, 4, 6, 7), (-1, 0, 5, 11), (-1, 3, 16, 17),
                (-1, 12, 18, 19), (-1, 11, 30, 31), (-1, 28, 48, 97),
                (-1, 105, 120, 241), (1, 0, 1, 2), (1, 1, 4, 5), (1, 1, 6, 7),
                (1, 11, 16, 17), (1, 3, 18, 19), (1, 26, 30, 31), (1, 4, 48, 97),
                (1, 45, 120, 241), (2, 2, 4, 5), (2, 5, 6, 7), (2, 3, 5, 11),
                (2, 13, 16, 17), (2, 14, 18, 19), (2, 2, 30, 31), (2, 8, 18, 37),
                (2, 7, 8, 41), (2, 5, 10, 61), (2, 0, 12, 73), (2, 9, 48, 97),
                (2, 1, 16, 193), (2, 40, 120, 241), (2, 19, 30, 271), (2, 21, 48, 577),
                (2, 4, 9, 757), (2, 43, 48, 769), (2, 37, 45, 1621), (2, 1, 15, 4561),
                (2, 67, 240, 4801), (2, 3, 24, 6481), (2, 713, 720, 154081),
                (2, 173, 180, 176401), (2, 10, 90, 387631), (2, 20, 36, 530713),
                (2, 20, 90, 755551), (2, 37, 120, 26050081), (2, 4, 60, 47763361),
                (2, 97, 360, 116809201), (2, 53, 80, 128653413121),
                (2, 52, 72, 282429005041), (2, 232, 360, 2081711451601),
            ),
            "",
        ),
    ),
    "digit-294001": (
        lambda: verify_digit_robust(294001, [7]),
        CheckResult(
            False, (-9, 0), 6,
            (
                (-9, 4, 6, 7),
            ),
            "k + (-9)*10^0 has no divisor in the set",
        ),
    ),
    # 2 and 3 divide k and the deltas they divide, so each hits every n of
    # those deltas (class 0 mod 1), although 5 has order 2 mod 3
    "digit-fixed-divisor": (
        lambda: verify_digit_robust(6, [2, 3], base=5),
        CheckResult(
            False, (-1, 0), 2,
            (
                (-4, 0, 1, 2), (-3, 0, 1, 3), (-2, 0, 1, 2),
            ),
            "k + (-1)*5^0 has no divisor in the set",
        ),
    ),
    "base2-clavier": (
        lambda: verify_base2_delicate(
            sd.CLAVIER_K, sd.CLAVIER_S_PRIMES, sd.CLAVIER_R_PRIMES
        ),
        CheckResult(
            True, None, 720,
            (
                (1, 1, 2, 3), (1, 2, 4, 5), (1, 6, 10, 11), (1, 8, 12, 13),
                (1, 0, 8, 17), (1, 16, 18, 19), (1, 31, 36, 37), (1, 3, 20, 41),
                (1, 12, 48, 97), (1, 13, 36, 109), (1, 4, 24, 241), (1, 20, 30, 331),
                (1, 36, 48, 673), (1, 53, 60, 1321), (-1, 0, 2, 3), (-1, 0, 4, 5),
                (-1, 0, 3, 7), (-1, 1, 10, 11), (-1, 2, 12, 13), (-1, 4, 8, 17),
                (-1, 7, 18, 19), (-1, 4, 5, 31), (-1, 13, 36, 37), (-1, 13, 20, 41),
                (-1, 1, 9, 73), (-1, 36, 48, 97), (-1, 31, 36, 109), (-1, 2, 15, 151),
                (-1, 16, 24, 241), (-1, 5, 30, 331), (-1, 12, 48, 673),
                (-1, 23, 60, 1321),
            ),
            "",
        ),
    ),
    "base2-gap": (
        lambda: verify_base2_delicate(
            sd.CLAVIER_K + 2, sd.CLAVIER_S_PRIMES, sd.CLAVIER_R_PRIMES
        ),
        CheckResult(
            False, (1, 0), 720,
            (
                (1, 1, 4, 5), (1, 7, 10, 11), (1, 11, 12, 13), (1, 4, 8, 17),
                (1, 13, 18, 19), (1, 25, 36, 37),
            ),
            "k + 2^0 has no divisor in the set",
        ),
    ),
}



@pytest.mark.parametrize("name", list(GOLDEN))
def test_period_checks_golden(name):
    check, expected = GOLDEN[name]
    assert check() == expected


# ---------------------------------------------------------------------------
# builder/verifier roundtrip over random coverings


SUPPLY_MODULI = [2, 3, 4, 8, 12, 24, 36, 36]


def random_covering(rng):
    """Random covering with moduli from {2,3,4,8,12,24,36}, built by always
    covering the smallest uncovered residue mod 72."""
    while True:
        classes, remaining = [], list(SUPPLY_MODULI)
        rng.shuffle(remaining)
        cov = bytearray(72)
        ok = False
        while remaining:
            gap = cov.find(0)
            if gap < 0:
                ok = True
                break
            b = remaining.pop()
            a = gap % b
            classes.append((a, b))
            cov[a::b] = b"\x01" * len(range(a, 72, b))
        if ok or cov.find(0) < 0:
            return classes


def test_builder_roundtrip_panel():
    rng = random.Random(987654321)
    supply = {b: list(primes_of_order(b, 2).primes) for b in set(SUPPLY_MODULI)}
    assert supply[36] == [37, 109]
    for _ in range(60):
        classes = random_covering(rng)
        used = {b: 0 for b in supply}
        rows = []
        for a, b in classes:
            p = supply[b][used[b]]
            used[b] += 1
            rows.append((a, b, p))
        for builder, verifier in (
            (build_sierpinski, verify_sierpinski),
            (build_riesel, verify_riesel),
        ):
            prog = builder(assignment(rows))
            primes = [p for p in prog.primes if p != 2]
            k = prog.B
            if k <= max(primes) + 1:
                k += prog.A  # later member of the progression
            res = verifier(k, primes)
            assert res.ok, (rows, builder.__name__, res)


# ---------------------------------------------------------------------------
# the subprogression shift


def test_shift_worked_example():
    s = subprogression_shift(130, 1, 10)
    assert (s.ell, s.v) == (3, 12)
    assert s.A0 == 10**42 * 130
    assert s.B0 == 10**39 - 10**3 + 1
    assert s.B0 % 130 == 1
    assert math.gcd(s.A0, s.B0) == 1
    # A divides b^(l(v+1)) - b^l
    assert (10 ** (3 * 13) - 10**3) % 130 == 0


def test_shift_preconditions():
    with pytest.raises(ValueError, match="divides the base"):
        subprogression_shift(6, 1, 10)       # 5 does not divide A
    with pytest.raises(ValueError, match="no prime divisor"):
        subprogression_shift(10, 1, 10)      # nothing above the base
    with pytest.raises(ValueError, match="no prime divisor"):
        subprogression_shift(7 * 1000003, 1, 1000003)
    with pytest.raises(ValueError, match="gcd"):
        subprogression_shift(130, 13, 10)


def test_shift_base_above_a_million():
    # prime base p and A = p*q with a prime q > p: the precondition is read
    # off the factorization of A', so a large base needs no probe loop
    p, q = 1000003, 1000033
    s = subprogression_shift(p * q, 1, p)
    assert (s.ell, s.v, s.a_primes) == (3, q - 1, (p, q))
    assert s.B0_mod(p * q) == 1


def test_shift_value_mod_matches_materialized():
    s = subprogression_shift(130, 1, 10)
    for m, d, n, p in [(0, 1, 0, 13), (3, -9, 7, 13), (11, 5, 50, 101)]:
        assert s.value_mod(m, d, n, p) == (s.A0 * m + s.B0 + d * 10**n) % p


def test_shift_materialization_cap():
    s = subprogression_shift(sd.TOY3_A, sd.TOY3_K, 3)
    with pytest.raises(CapacityError):
        _ = s.A0
    with pytest.raises(CapacityError):
        _ = s.B0
    assert s.B0_mod(sd.TOY3_A) == sd.TOY3_K % sd.TOY3_A


def test_shift_digit_robust_probes():
    s = subprogression_shift(sd.TOY3_A, sd.TOY3_K, 3)
    rng = random.Random(1234)
    for _ in range(100):
        m = rng.randrange(10**9)
        d = rng.choice([-2, -1, 1, 2])
        n = rng.randrange(3 * s.exp_b0)
        hits = [p for p in sd.TOY3_PRIMES if s.value_mod(m, d, n, p) == 0]
        assert hits
        p = hits[0]
        # the shifted value can never be ±p for a certificate prime p:
        if n <= s.exp_b0 - 1:
            # value >= base^(ell+1) - base^ell + B > base^ell > A + B >= p
            assert 3**s.ell > s.A + s.B >= p
        else:
            # value ≡ B - base^ell (mod base^(2 ell)), pinned away from ±p
            mod = 3 ** (2 * s.ell)
            r = s.value_mod(m, d, n, mod)
            assert r == (s.B - 3**s.ell) % mod
            assert r != p and r != mod - p

import functools
import itertools
import math
import random

import pytest

from coversieve import covering, modarith, progression
from coversieve.covering import ResidueClass
from coversieve.cyclotomic import primes_of_order
from coversieve.modarith import (
    Budget,
    CapacityError,
    IncompatibleCongruencesError,
    crt_combine,
    factor,
    is_probable_prime,
    multiplicative_order,
)
from coversieve.progression import (
    BrierCheck,
    CheckResult,
    PrimeAssignment,
    SievedProgression,
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
    with pytest.raises(ValueError, match="no assignments given"):
        build_sierpinski([])


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
    with pytest.raises(IncompatibleCongruencesError) as exc:
        combine_brier([ps, pr])
    assert exc.value.prime == 5
    with pytest.raises(ValueError, match="no parts to combine"):
        combine_brier([])


def test_combine_brier_conflict_factors_only_the_gcd_once(monkeypatch):
    ps = build_sierpinski(assignment([(0, 4, 5)]), require_covering=False)
    pr = build_riesel(assignment([(0, 4, 5)]), require_covering=False)
    seen = []
    monkeypatch.setattr(modarith, "factor", lambda n: seen.append(n) or factor(n))
    with pytest.raises(IncompatibleCongruencesError) as exc:
        combine_brier([ps, pr])
    assert seen == [10]  # the gcd of the two A, by crt_combine
    assert (exc.value.prime, exc.value.prime_power) == (5, 5)


def test_combine_conflict_in_an_unfactored_gcd_reports_the_gcd(monkeypatch):
    # 1 and 7 (mod 30) agree mod 2 and 3 and clash mod 5; a starved factor()
    # finds only 2, where they agree, so the conflict names the whole gcd
    starved = Budget(trial_limit=2, rho_rounds=0, rho_restarts=0)
    assert factor(30, starved).factors == ((2, 1),) and factor(30, starved).cofactor == 15
    monkeypatch.setattr(modarith, "factor", lambda n: factor(n, starved))
    parts = [SievedProgression(30, B, "sierpinski", frozenset(), ()) for B in (1, 7)]
    with pytest.raises(IncompatibleCongruencesError) as exc:
        combine_brier(parts)
    assert (exc.value.prime, exc.value.prime_power) == (30, 30)


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


def test_combine_rechecks_each_part_against_the_combined_b():
    # 1*2^0 + 1 = 2 is not 0 mod 3, alone or merged with a sound part
    forged = SievedProgression(6, 1, "sierpinski", frozenset({2, 3}), (("sierpinski", 0, 2, 3),))
    ps = build_sierpinski(assignment([(0, 4, 5)]), require_covering=False)
    for parts in ([forged], [ps, forged]):
        with pytest.raises(AssertionError, match="prime 3"):
            combine_brier(parts)


def test_combine_keeps_primes_beyond_the_certificates():
    ps = build_sierpinski(assignment([(0, 4, 5)]), require_covering=False)
    pr = build_riesel(assignment([(2, 4, 5)]), require_covering=False)
    wide = SievedProgression(ps.A, ps.B, ps.kind, ps.primes | {7}, ps.certificate)
    comb = combine_brier([wide, pr])
    assert comb.primes == frozenset({2, 5, 7})
    assert comb.certificate == ps.certificate + pr.certificate


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
    # period checks spend covering.WORK_CAP: Selfridge's walks are charged
    # 2 + 4 + 3 + 12 + 18 + 36 + 9 = 84 class entries, more than the 64 of
    # one unit and fewer than the 128 of two
    monkeypatch.setattr(covering, "WORK_CAP", 1)
    with pytest.raises(CapacityError, match="work units"):
        verify_sierpinski(78557, sd.SELFRIDGE_PRIMES)
    monkeypatch.setattr(covering, "WORK_CAP", 2)
    assert verify_sierpinski(78557, sd.SELFRIDGE_PRIMES).ok


def test_period_cap_stops_a_walk_within_one_unit(monkeypatch):
    """A walk is charged to WORK_CAP as it goes, 64 steps at a time, so a
    prime of order above the cap is refused once the walk has spent it:
    2 is a primitive root of 1000000000091, whose walk would take 10^12
    steps."""
    big = 1000000000091
    assert multiplicative_order(2, big) == big - 1
    works, real = [], progression._Work

    def spy():
        works.append(real())
        return works[-1]

    def spent_within_one_unit_past_the_cap():
        # charges stop within 64 class entries (2^16 residues) past the cap
        return covering.WORK_CAP << 16 < works[-1].spent <= (covering.WORK_CAP + 1) << 16

    monkeypatch.setattr(progression, "_Work", spy)
    for check in (verify_sierpinski, verify_riesel):
        with pytest.raises(CapacityError, match="work units"):
            check(big + 2, [3, big])
        assert spent_within_one_unit_past_the_cap()
    # the Sierpinski side passes; the Riesel side is refused
    works.clear()
    with pytest.raises(CapacityError, match="work units"):
        verify_brier(78557, sd.SELFRIDGE_PRIMES, [big])
    assert len(works) == 2 and works[0].spent <= covering.WORK_CAP << 16
    assert spent_within_one_unit_past_the_cap()
    # a cap of one unit (64 entries) refuses Selfridge's 84 steps in the walk
    monkeypatch.setattr(covering, "WORK_CAP", 1)
    with pytest.raises(CapacityError, match="work units"):
        verify_sierpinski(78557, sd.SELFRIDGE_PRIMES)
    assert spent_within_one_unit_past_the_cap()


def test_period_check_takes_a_small_order_whose_p_minus_1_does_not_factor():
    # ord(2) mod 2^521 - 1 is 521, but p - 1 resists factor(); k exceeds it
    # and is 78557 modulo each of Selfridge's primes, which cover alone
    m521 = 2 ** 521 - 1
    k = 78557 + 2 * math.prod(sd.SELFRIDGE_PRIMES) * 2 ** 521
    res = verify_sierpinski(k, sd.SELFRIDGE_PRIMES + [m521])
    assert res.ok and res.period == 18756 == math.lcm(36, 521)


def test_period_beyond_a_whole_period_scan():
    # 240,432,156 residues, which a whole-period scan would mark; the tree
    # needs only the lcm of the classes hit
    primes = sd.SELFRIDGE_MERSENNE_PRIMES
    res = verify_sierpinski(78559, primes)
    assert not res.ok and res.witness == 6
    assert res.period == sd.SELFRIDGE_MERSENNE_PERIOD
    res = verify_sierpinski(78557, primes)
    assert not res.ok and res.witness is None and "does not exceed" in res.reason
    assert res.period == sd.SELFRIDGE_MERSENNE_PERIOD
    # a certificate with no gap: every n hits a class
    classes = [(a, o) for _, a, o, _ in res.certificate]
    assert covering._first_uncovered(classes, math.lcm(*(o for _, o in classes))) is None
    for _, a, _, p in res.certificate:
        assert (78557 * pow(2, a, p) + 1) % p == 0


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
    with pytest.raises(ValueError, match="0 is not prime"):
        verify_digit_robust(101, [0], base=10)
    with pytest.raises(ValueError, match="k must be positive, got 0"):
        verify_digit_robust(0, [7])
    with pytest.raises(ValueError, match="^base must be >= 2, got 1$"):
        verify_digit_robust(101, [7], base=1)


def test_digit_cases_are_charged_before_any_is_built(monkeypatch):
    # 2(base-1) cases, a node each, and one entry (1/64 unit) per residue:
    # base 6 is 10 units without primes and 10 + 10/64 with one prime
    checked = []
    real = progression._period_check
    monkeypatch.setattr(progression, "_period_check",
                        lambda base, cases, failure: checked.append(len(cases))
                        or real(base, cases, failure))
    monkeypatch.setattr(covering, "WORK_CAP", 10)
    assert not verify_digit_robust(1, [], base=6).ok
    assert not verify_digit_robust(1, [7], base=5).ok
    with pytest.raises(CapacityError, match="more than 10 work units"):
        verify_digit_robust(1, [7], base=6)
    assert checked == [10, 8]


def test_verify_base2_delicate():
    res = verify_base2_delicate(sd.CLAVIER_K, sd.CLAVIER_S_PRIMES, sd.CLAVIER_R_PRIMES)
    assert res.ok
    for sign, a, o, p in res.certificate:
        assert (sd.CLAVIER_K + sign * pow(2, a, p)) % p == 0
    assert not verify_base2_delicate(3, [], []).ok
    with pytest.raises(ValueError, match="^k must be a positive odd integer, got 4$"):
        verify_base2_delicate(4, [3], [3])


def test_base2_delicate_crt_toys_agree_with_brute_force():
    # CRT-placed toys over {3, 5, 17}: the orders 2, 4, 8 have total density
    # 1/2 + 1/4 + 1/8 < 1, so no placement can cover a full side; the scan
    # verdict must match a literal brute force over one period either way.
    rng = random.Random(5)
    for _ in range(25):
        residues = [(-pow(2, rng.randrange(o), p)) % p for p, o in ((3, 2), (5, 4), (17, 8))]
        k = crt_combine(
            [ResidueClass(r, p) for r, p in zip(residues, (3, 5, 17))] + [ResidueClass(1, 2)]
        ).a
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
# the shared walk against a reference that walks once per (case, prime)


def literal_scan(classes, count):
    return next((n for n in range(count) if all(n % o != a for a, o in classes)), None)


def reference_period_check(base, cases, failure, scan=literal_scan):
    """_period_check as it stood before the shared walk: each order comes
    from multiplicative_order, each (case, prime) steps a from 0 until
    coeff * base^a ≡ target (mod p), and each case's whole period is
    scanned, member by member by default."""
    orders = {p: multiplicative_order(base, p)
              for p in sorted(set().union(*(primes for *_, primes in cases)))}
    cert, periods = [], []
    for label, coeff, target, primes in cases:
        L = math.lcm(*(orders[p] for p in primes))
        periods.append(L)
        classes = []
        for p in primes:
            if coeff % p == 0:
                if target % p:
                    continue
                a, o = 0, 1
            else:
                o = orders[p]
                a = next((a for a in range(o) if (coeff * pow(base, a, p) - target) % p == 0), None)
                if a is None:
                    continue
            classes.append((a, o))
            cert.append((label, a, o, p))
        gap = scan(classes, L)
        if gap is not None:
            witness, reason = failure(label, gap)
            return CheckResult(False, witness, L, tuple(cert), reason)
    return CheckResult(True, period=math.lcm(*periods), certificate=tuple(cert))


# primes with small orders of 10 (1, 6, 2, 6, 3, 5, 8, 4, 8, 7, 5, 10, 12)
# and of 2 (2, 4, 3, 10, 12, 8, 18, 5, 36, 20, 9, 36, 15, 24, 30, 48, 60)
BASE10_POOL = (3, 7, 11, 13, 37, 41, 73, 101, 137, 239, 271, 9091, 9901)
BASE2_POOL = (3, 5, 7, 11, 13, 17, 19, 31, 37, 41, 73, 109, 151, 241, 331, 673, 1321)


def test_shared_walk_matches_the_reference_on_base10_digit_checks(monkeypatch):
    # the 18 cases d = ±1..±9; k is a multiple of 3 or 7 now and then, so
    # primes dividing both d and k (class 0 mod 1) and primes dividing k
    # alone (no hit) both occur.  Each suffix of the case list is checked
    # too, so the hit classes of every case are compared, not only those
    # before the first failing case
    rng = random.Random(1301)
    checks = []

    def failure(label, n):
        return (label, n), f"case {label} fails at n = {n}"

    for _ in range(40):
        k = rng.randrange(1, 10**15) * rng.choice((1, 1, 3, 7, 21))
        primes = sorted(rng.sample(BASE10_POOL, rng.randrange(1, len(BASE10_POOL) + 1)))
        checks.append((k, primes))
        cases = [(d, d, -k, primes) for d in range(-9, 10) if d != 0]
        for i in range(len(cases)):
            assert (progression._period_check(10, cases[i:], failure)
                    == reference_period_check(10, cases[i:], failure)), (k, primes, i)
    got = [verify_digit_robust(k, primes) for k, primes in checks]
    monkeypatch.setattr(progression, "_period_check", reference_period_check)
    assert got == [verify_digit_robust(k, primes) for k, primes in checks]


def test_shared_walk_matches_the_reference_on_base2_checks(monkeypatch):
    # Sierpinski, Riesel and Brier checks of seeded odd k over overlapping
    # sets, and the published constants
    rng = random.Random(1302)
    calls = [
        (verify_brier, sd.CLAVIER_K, sd.CLAVIER_S_PRIMES, sd.CLAVIER_R_PRIMES),
        (verify_brier, sd.BRIER_K, sd.BRIER_S_PRIMES, sd.BRIER_R_PRIMES),
        (verify_sierpinski, sd.SELFRIDGE_K, sd.SELFRIDGE_PRIMES),
        (verify_riesel, sd.CLASSICAL_R_B, sd.CLASSICAL_R_PRIMES),
    ]
    for _ in range(60):
        k = rng.randrange(1, 10**15) | 1
        s_set = rng.sample(BASE2_POOL, rng.randrange(1, 10))
        r_set = rng.sample(BASE2_POOL, rng.randrange(1, 10))
        calls += [(verify_sierpinski, k, s_set), (verify_riesel, k, r_set),
                  (verify_brier, k, s_set, r_set)]
    got = [f(*args) for f, *args in calls]
    monkeypatch.setattr(progression, "_period_check", reference_period_check)
    assert got == [f(*args) for f, *args in calls]
    assert any(r.ok for r in got) and not all(r.ok for r in got)


def test_tree_matches_a_whole_period_scan(monkeypatch):
    # periods in (2^20, 10^7], which a whole-period scan still answers and
    # the residue tree splits: Selfridge's or the classical Riesel primes,
    # now and then with one dropped, plus primes of which 2 is a primitive
    # root, so that each of them hits a class
    rng = random.Random(1401)
    pool = [p for p in range(11, 3000)
            if is_probable_prime(p) and multiplicative_order(2, p) == p - 1]
    covers = [(verify_sierpinski, sd.SELFRIDGE_K, sd.SELFRIDGE_PRIMES),
              (verify_riesel, sd.CLASSICAL_R_B, sd.CLASSICAL_R_PRIMES)]
    calls = []
    while len(calls) < 40:
        check, k, base = rng.choice(covers)
        primes = base + rng.sample(pool, rng.randrange(2, 5))
        if rng.random() < 0.3:
            primes.remove(rng.choice(base))
        if (1 << 20) < math.lcm(*(multiplicative_order(2, p) for p in primes)) <= 10 ** 7:
            calls.append((check, k + 2 * math.prod(base) * rng.randrange(10 ** 6), primes))
    splits, children = [], covering._children
    monkeypatch.setattr(covering, "_children",
                        lambda *node: splits.append(node) or children(*node))
    got = [check(k, primes) for check, k, primes in calls]
    assert len(splits) >= 20
    assert any(r.witness is None for r in got) and any(r.witness is not None for r in got)
    monkeypatch.setattr(progression, "_period_check",
                        functools.partial(reference_period_check, scan=covering._first_uncovered))
    assert got == [check(k, primes) for check, k, primes in calls]


def test_mid_size_periods_match_a_whole_period_scan(monkeypatch):
    # lcms of orders in (2^16, 2^20], whose roots scan their first
    # period/16 members before the whole period: Selfridge's primes and
    # 3779 (order 3778) pass at period 68004; the classical Riesel primes
    # without 17, with 25373 (order 25372), fail at n = 39, period 152232
    calls = [(verify_sierpinski, sd.SELFRIDGE_K, sd.SELFRIDGE_PRIMES + [3779]),
             (verify_riesel, sd.CLASSICAL_R_B, [3, 5, 7, 13, 241, 25373])]
    scans, first_uncovered = [], covering._first_uncovered
    monkeypatch.setattr(covering, "_first_uncovered",
                        lambda classes, count: scans.append(count) or first_uncovered(classes, count))
    got = [check(k, primes) for check, k, primes in calls]
    assert [(r.ok, r.witness, r.period) for r in got] == [(True, None, 68004), (False, 39, 152232)]
    assert scans == [68004 // 16, 68004, 152232 // 16]
    monkeypatch.setattr(progression, "_period_check",
                        functools.partial(reference_period_check, scan=first_uncovered))
    assert got == [check(k, primes) for check, k, primes in calls]


def test_period_checks_of_published_constants_never_factor(monkeypatch):
    # each order comes from the walk, and these periods need no tree split
    def refuse(*args):
        pytest.fail(f"a period check factored or took an order: {args}")

    monkeypatch.setattr(modarith, "factor", refuse)
    monkeypatch.setattr(modarith, "multiplicative_order", refuse)
    assert verify_sierpinski(sd.SELFRIDGE_K, sd.SELFRIDGE_PRIMES).ok
    assert verify_brier(sd.CLAVIER_K, sd.CLAVIER_S_PRIMES, sd.CLAVIER_R_PRIMES).ok
    assert verify_brier(sd.BRIER_K, sd.BRIER_S_PRIMES, sd.BRIER_R_PRIMES).ok
    assert verify_digit_robust(sd.TOY3_K, sd.TOY3_PRIMES, base=3).ok


@pytest.mark.parametrize("k, extra_s, extra_r, message", [
    (78556, [], [], "k must be a positive odd integer, got 78556"),
    (78557, [2], [], "2 cannot divide k*2^n ± 1; use odd primes"),
    (78557, [], [2], "2 cannot divide k*2^n ± 1; use odd primes"),
    (78557, [9], [], "9 is not prime"),
    (78557, [], [9], "9 is not prime"),
    # with faults on both sides the Sierpinski side is validated first,
    # its 2 before its composites
    (78557, [15], [9], "15 is not prime"),
    (78557, [9], [2], "9 is not prime"),
    (78557, [2], [9], "2 cannot divide k*2^n ± 1; use odd primes"),
    (78556, [2], [9], "k must be a positive odd integer, got 78556"),
])
def test_brier_validation_errors(k, extra_s, extra_r, message):
    s_set = [3, 5, 17, 257, 641, 65537, 6700417] + extra_s
    r_set = [3, 5, 7, 13, 17, 241] + extra_r
    with pytest.raises(ValueError) as info:
        verify_brier(k, s_set, r_set)
    assert type(info.value) is ValueError and str(info.value) == message


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
    with pytest.raises(ValueError, match="base must be >= 2, got 1"):
        subprogression_shift(130, 1, 1)


def test_shift_refuses_an_a_prime_it_cannot_factor(monkeypatch):
    # the base 10 factors under the starved budget; A' = 10007 * 10009 does not
    starved = Budget(trial_limit=10, rho_rounds=0, rho_restarts=0)
    monkeypatch.setattr(modarith, "factor", lambda n: factor(n, starved))
    with pytest.raises(CapacityError, match="^cannot factor the base-coprime part 100160063 of A within the factoring budget$"):
        subprogression_shift(10 * 10007 * 10009, 1, 10)


def test_shift_ell_waits_for_u():
    # 672 = 2^5 * 3 * 7: 6^4 = 1296 > 673 already, but 2^5 | 6^u needs u = 5
    assert subprogression_shift(672, 1, 6).ell == 5


def test_shift_ell_matches_the_definitions():
    """u is the least u >= 1 with A | base^u * A', A' the part of A coprime
    to the base, and ell the least ell >= max(u, 2) with base^ell > A + B."""
    bound_by_u = 0
    for base, qs in ((4, (2,)), (6, (2, 3)), (8, (2,)), (9, (3,)), (12, (2, 3))):
        for exps in itertools.product((1, 2, 5, 9), repeat=len(qs)):
            for a_prime in (13, 17, 13 * 13, 13 * 17):
                A = a_prime * math.prod(q**e for q, e in zip(qs, exps))
                for B in (1, 5, 91, A - 1):
                    if math.gcd(A, B) != 1:
                        continue
                    u = next(u for u in itertools.count(1) if base**u * a_prime % A == 0)
                    ell = next(e for e in itertools.count(max(u, 2)) if base**e > A + B)
                    assert subprogression_shift(A, B, base).ell == ell, (A, B, base)
                    bound_by_u += base ** (ell - 1) > A + B
    assert bound_by_u > 0


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

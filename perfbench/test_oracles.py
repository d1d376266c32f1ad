"""Self-tests of the benchmark's oracles: each must accept a right answer
and flag a known-wrong one, so that fail_ratio = 0 carries meaning.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import sys
import unittest
from pathlib import Path
from types import SimpleNamespace as NS

sys.path.insert(0, str(Path(__file__).resolve().parent))

import constants as C  # noqa: E402
import oracles as O  # noqa: E402
from workloads import crt_progression  # noqa: E402

REF = C.reference()
C0 = [(0, 3), (1, 3), (2, 9), (5, 9), (8, 9)]


class Primes(unittest.TestCase):
    def test_is_prime(self):
        for p in (2, 3, 97, 6700417, 2 ** 61 - 1, 2 ** 127 - 1, 24929060818265360451708193):
            self.assertTrue(O.is_prime(p), p)
        # Carmichael, base-2 strong pseudoprime, F7, a square of a prime
        for n in (1, 561, 2047, 3215031751, 2 ** 128 + 1, 65537 ** 2):
            self.assertFalse(O.is_prime(n), n)

    def test_order(self):
        self.assertEqual(O.order(2, 641), 64)
        self.assertTrue(O.has_order(2, 641, 64))
        self.assertFalse(O.has_order(2, 641, 128))  # a multiple of the order
        self.assertFalse(O.has_order(2, 641, 32))

    def test_cyclotomic(self):
        self.assertEqual(O.cyclotomic_at(64), 2 ** 32 + 1)
        self.assertEqual(O.cyclotomic_at(12), 13)


class Factoring(unittest.TestCase):
    F6 = 2 ** 64 + 1

    def test_accepts_the_factorization(self):
        O.check_factorization(self.F6, ((274177, 1), (67280421310721, 1)), 1, True)
        O.check_factorization(2 ** 128 + 1, (), 2 ** 128 + 1, False)

    def test_flags_wrong_factorizations(self):
        with self.assertRaises(O.Rejected):  # leftover cofactor is prime
            O.check_factorization(self.F6, ((274177, 1),), 67280421310721, False)
        with self.assertRaises(O.Rejected):  # product is wrong
            O.check_factorization(self.F6, ((274177, 1), (67280421310723, 1)), 1, True)
        with self.assertRaises(O.Rejected):  # complete flag lies
            O.check_factorization(2 ** 128 + 1, (), 2 ** 128 + 1, True)

    def test_primes_of_order(self):
        O.check_primes_of_order(64, 2, (641, 6700417), True, 1)
        with self.assertRaises(O.Rejected):  # a prime of the wrong order
            O.check_primes_of_order(64, 2, (257, 641), False, 6700417)
        with self.assertRaises(O.Rejected):  # a prime missing
            O.check_primes_of_order(64, 2, (641,), True, 1)
        with self.assertRaises(O.Rejected):  # a prime cofactor left unlisted
            O.check_primes_of_order(64, 2, (641,), False, 6700417)


class Coverings(unittest.TestCase):
    def test_accepts_right_verdicts(self):
        O.check_verdict(C0, True, None, O.covering_answer(C0))
        uncovered = C0[:-1]
        self.assertEqual(O.covering_answer(uncovered), 8)
        O.check_verdict(uncovered, False, 8, 8)

    def test_flags_a_covered_witness(self):
        uncovered = C0[:-1]
        with self.assertRaises(O.Rejected):  # 3 lies in 0 (mod 3)
            O.check_verdict(uncovered, False, 3, 3)
        with self.assertRaises(O.Rejected):  # 17 is uncovered but not least
            O.check_verdict(uncovered, False, 17, O.covering_answer(uncovered))
        with self.assertRaises(O.Rejected):
            O.check_verdict(uncovered, True, None, O.covering_answer(uncovered))
        with self.assertRaises(O.Rejected):
            O.check_verdict(C0, False, 4, O.covering_answer(C0))

    def test_dropped_class_witness_is_the_least_gap(self):
        for i in range(len(C0)):
            mutant = C0[:i] + C0[i + 1:]
            self.assertEqual(O.dropped_class_witness(C0, i, 100), O.covering_answer(mutant))


def pm_result(ok, witness=None, period=0, certificate=()):
    return NS(ok=ok, witness=witness, period=period, certificate=certificate)


class Progressions(unittest.TestCase):
    S_PRIMES = REF.SELFRIDGE_PRIMES

    def selfridge_certificate(self):
        k = REF.SELFRIDGE_K
        cert = []
        for p in self.S_PRIMES:
            o = O.order(2, p)
            a = next(a for a in range(o) if (k * pow(2, a, p) + 1) % p == 0)
            cert.append(("sierpinski", a, o, p))
        return tuple(cert)

    def test_accepts_selfridge(self):
        O.check_pm(REF.SELFRIDGE_K, self.S_PRIMES, 1, "sierpinski",
                   pm_result(True, period=36, certificate=self.selfridge_certificate()))

    def test_flags_a_bad_certificate_entry(self):
        cert = list(self.selfridge_certificate())
        kind, a, o, p = cert[0]
        cert[0] = (kind, (a + 1) % o, o, p)
        with self.assertRaises(O.Rejected):
            O.check_pm(REF.SELFRIDGE_K, self.S_PRIMES, 1, "sierpinski",
                       pm_result(True, period=36, certificate=tuple(cert)))

    def test_flags_a_false_pass_and_a_wrong_witness(self):
        k = REF.SELFRIDGE_K + 2  # off the covering progression
        gap = next(n for n in range(36)
                   if all((k * pow(2, n, p) + 1) % p for p in self.S_PRIMES))
        O.check_pm(k, self.S_PRIMES, 1, "sierpinski", pm_result(False, gap, 36))
        with self.assertRaises(O.Rejected):
            O.check_pm(k, self.S_PRIMES, 1, "sierpinski", pm_result(True, None, 36))
        with self.assertRaises(O.Rejected):
            O.check_pm(k, self.S_PRIMES, 1, "sierpinski", pm_result(False, gap + 1, 36))

    def test_digit_and_base2_flag_false_passes(self):
        # 101 + d*10^n: 101 is prime, so the empty set cannot cover it
        with self.assertRaises(O.Rejected):
            O.check_digit_robust(101, [3], 10, pm_result(True, period=1))
        with self.assertRaises(O.Rejected):
            O.check_base2_delicate(3, [], [], pm_result(True))
        O.check_base2_delicate(3, [], [], pm_result(False, (1, 0)))

    def test_progression_and_combination(self):
        rows = REF.CLASSICAL_S_ASSIGNMENT
        A, B = crt_progression(rows, "sierpinski")
        self.assertEqual((A, B), (REF.CLASSICAL_S_A, REF.CLASSICAL_S_B))
        cert = tuple(("sierpinski", a, b, p) for a, b, p in rows)
        prog = NS(A=A, B=B, kind="sierpinski", primes=frozenset({2, *(p for *_, p in rows)}),
                  certificate=cert)
        O.check_progression(prog, "sierpinski", rows)
        with self.assertRaises(O.Rejected):
            O.check_progression(NS(**{**vars(prog), "B": B + 2}), "sierpinski", rows)
        with self.assertRaises(O.Rejected):  # a prime bound to the wrong modulus
            bad = ((1, 2, 3), (2, 4, 5), (4, 8, 17), (8, 16, 257),
                   (16, 32, 641), (32, 64, 65537), (0, 64, 6700417))
            O.check_progression(NS(**{**vars(prog), "certificate": tuple(
                ("sierpinski", a, b, p) for a, b, p in bad)}), "sierpinski", bad)
        part_r = NS(A=254, B=crt_progression([(3, 7, 127)], "riesel")[1],
                    certificate=(("riesel", 3, 7, 127),))
        with self.assertRaises(O.Rejected):  # B outside the riesel part
            O.check_combined(NS(kind="brier", A=A * 127, B=B), [prog, part_r])


class Cli(unittest.TestCase):
    def test_flags_a_changed_kv_line(self):
        expected = (Path(__file__).resolve().parent / "expected" / "verify-c0.kv").read_bytes()
        O.check_cli((0, expected), 0, expected=expected)
        with self.assertRaises(O.Rejected):
            O.check_cli((0, expected.replace(b"lcm=9", b"lcm=18")), 0, expected=expected)
        with self.assertRaises(O.Rejected):
            O.check_cli((1, expected), 0, expected=expected)
        with self.assertRaises(O.Rejected):
            O.check_cli((1, b"covered=0\nwitness=4\n"), 1, fields={"witness": 8})


if __name__ == "__main__":
    unittest.main()

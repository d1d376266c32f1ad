import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from coversieve import modarith
from coversieve.modarith import (
    Budget,
    CapacityError,
    FactorizationResult,
    IncompatibleCongruencesError,
    ResidueClass,
    crt_combine,
    factor,
    factor_whole,
    is_probable_prime,
    multiplicative_order,
    verify_order,
)


def test_primality_examples():
    assert is_probable_prime(2)
    assert is_probable_prime(641)
    assert not is_probable_prime(561)  # Carmichael
    assert not is_probable_prime(0)
    assert not is_probable_prime(1)


def test_primality_against_sieve():
    limit = 30000
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    for n in range(limit + 1):
        assert is_probable_prime(n) == bool(sieve[n]), n


def test_primality_strong_pseudoprimes_rejected():
    # strong pseudoprimes to ever-larger base batteries
    for n in (2047, 3277, 4033, 25326001, 3215031751, 3474749660383,
              341550071728321, 3825123056546413051,
              318665857834031151167461, 3317044064679887385961981):
        assert not is_probable_prime(n), n


# the published psi_k of OEIS A014233, k = 1..13: the least odd composite
# that is a strong pseudoprime to each of the first k primes
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051,
       3825123056546413051, 3825123056546413051, 318665857834031151167461,
       3317044064679887385961981)
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
PRIMORIAL_53 = math.prod(SMALL_PRIMES)


def thirteen_bases(n):
    """The rule below 3.3e24 with every base run: division by the primes
    up to 53, then strong tests to all 13 prime bases up to 41."""
    if n < 2 or math.gcd(n, PRIMORIAL_53) > 1:
        return n in SMALL_PRIMES
    return all(modarith._strong_probable_prime(n, b) for b in SMALL_PRIMES[:13])


def test_psi_table_is_the_published_one():
    assert modarith._SPRP_PSI == tuple(zip(SMALL_PRIMES[:13], PSI))
    assert modarith._SPRP_BOUND == PSI[-1]


def test_each_psi_is_composite():
    # psi_k passes the first k bases, so it is where an early stop at
    # n <= psi_k in place of n < psi_k would call a composite prime
    for k, psi in enumerate(PSI, 1):
        assert all(modarith._strong_probable_prime(psi, b) for b in SMALL_PRIMES[:k])
        assert not is_probable_prime(psi), psi


def test_primality_matches_thirteen_bases_below_a_million():
    assert all(is_probable_prime(n) == thirteen_bases(n) for n in range(10**6))


def test_primality_matches_thirteen_bases_on_a_sample_below_the_bound():
    # from a seeded start of each size up to the bound, every n up to the
    # next prime, so each sample holds composites and one prime
    rng = random.Random(20261019)
    for _ in range(400):
        n = rng.randrange(2, 1 << rng.randrange(12, 82)) % modarith._SPRP_BOUND
        while not thirteen_bases(n):
            assert not is_probable_prime(n), n
            n += 1
        assert is_probable_prime(n), n


def test_primality_large_lucas_path():
    # these exceed the deterministic battery bound
    assert is_probable_prime(24929060818265360451708193)
    assert is_probable_prime(10**24 + 7)
    assert is_probable_prime(2**89 - 1)
    assert not is_probable_prime(10**24 + 9)
    assert not is_probable_prime((10**13 + 37) ** 2)


def test_factor_examples():
    f = factor(15)
    assert f.primes() == [3, 5] and f.complete
    f = factor(4294967297)
    assert f.primes() == [641, 6700417] and f.complete
    f = factor(65281)
    assert f.primes() == [97, 673]
    with pytest.raises(ValueError):
        factor(1)


def test_factor_reassembly_and_determinism():
    n = 2**5 * 3**3 * (10**9 + 7) * (10**9 + 9) * 1000003
    f1 = factor(n)
    f2 = factor(n)
    assert f1 == f2
    assert f1.value() == n
    assert f1.complete
    assert all(is_probable_prime(p) for p in f1.primes())


def test_factor_budget_exhaustion_reports_cofactor():
    # two 30-digit primes: rho under a starved budget gives up
    p = 10**29 + 319
    q = 10**29 + 379
    assert is_probable_prime(p) and is_probable_prime(q)
    f = factor(4 * p * q, Budget(trial_limit=100, rho_rounds=10, rho_restarts=1))
    assert not f.complete
    assert f.cofactor == p * q
    assert not is_probable_prime(f.cofactor)
    assert f.value() == 4 * p * q


def test_default_budget_factors_the_semiprime_modulus():
    # 2^61 - 2 is 1321-smooth, so the p-1 stage splits what rho does not
    p, q = 2**61 - 1, 2**64 - 59
    assert factor(p * q) == FactorizationResult(((p, 1), (q, 1)))


def test_pm1_stage_one():
    # 2^61 - 2 is 1321-smooth; 2^64 - 60 and 10^29 + 318 have prime factors
    # 5594472617641 and 3557546769822241483571
    p, q, r = 2**61 - 1, 2**64 - 59, 10**29 + 319
    assert modarith._pm1(p * q, 2000) == p
    assert modarith._pm1(q * r, 2000) is None
    assert modarith._pm1(p * q, 1) is None


def rho_spy(monkeypatch):
    """(rounds, e) of every _brent_rho call, which still runs."""
    calls, real = [], modarith._brent_rho

    def spy(n, rounds, restarts, e):
        calls.append((rounds, e))
        return real(n, rounds, restarts, e)

    monkeypatch.setattr(modarith, "_brent_rho", spy)
    return calls


# three primes near 10^6, none 1 (mod 7), each with a prime of p - 1 above
# the p-1 bound of 250, so only rho splits their product
RHO_PRIMES = (1000003, 1000033, 1000039)
RHO_BUDGET = Budget(trial_limit=100, rho_rounds=2000, rho_restarts=2)


def test_plain_factor_runs_classical_rho(monkeypatch):
    calls = rho_spy(monkeypatch)
    n = math.prod(RHO_PRIMES)
    f = factor(n, RHO_BUDGET)
    assert f == FactorizationResult(tuple((p, 1) for p in RHO_PRIMES))
    assert calls and set(calls) == {(2000, 2)}


def test_false_order_promise_still_factors_correctly(monkeypatch):
    """order=7 is false for these primes: rho runs x^14 + c for
    ceil(2000 / 2) rounds, and the result is still a true factorization."""
    assert all(p % 7 != 1 for p in RHO_PRIMES)
    calls = rho_spy(monkeypatch)
    n = math.prod(RHO_PRIMES) * 2**3
    f = factor(n, RHO_BUDGET, order=7)
    assert calls and set(calls) == {(1000, 14)}
    assert f.value() == n
    assert all(is_probable_prime(p) and n % p == 0 for p in f.primes())
    assert f.cofactor == 1 or not is_probable_prime(f.cofactor)
    with pytest.raises(ValueError):
        factor(n, RHO_BUDGET, order=0)


def test_false_order_promise_never_lists_a_composite():
    """At order=7 trial division tries 15, 29, 43, ...: 15 divides 225 but
    is not prime.  Only step 2 tries every prime, so only there is a
    remainder up to the limit squared taken as prime without a test."""
    for order in (3, 4, 7, 12, 36):
        for n in range(2, 2001):
            f = factor(n, RHO_BUDGET, order=order)
            assert f.value() == n, (n, order)
            assert all(is_probable_prime(p) for p in f.primes()), (n, order)


def test_factor_takes_a_remainder_up_to_the_limit_squared_as_prime(monkeypatch):
    """Trial division to the limit leaves a remainder with no prime factor
    up to it, so a remainder up to limit^2 is prime without a test; above
    that the test runs."""
    tested, real = [], modarith.is_probable_prime

    def spy(n):
        tested.append(n)
        return real(n)

    monkeypatch.setattr(modarith, "is_probable_prime", spy)
    budget = Budget(trial_limit=1000)
    assert factor(2**3 * 999983, budget) == FactorizationResult(((2, 3), (999983, 1)))
    assert factor(1009 * 991, budget) == FactorizationResult(((991, 1), (1009, 1)))
    assert tested == []
    # 1009^2 and 1009 * 1013 exceed 1000^2 and have no factor up to 1000
    for n in (1009**2, 1009 * 1013):
        f = factor(n, budget)
        assert tested[0] == n and not real(n)
        assert f.value() == n and f.complete and all(real(p) for p in f.primes())
        tested.clear()
    assert factor(5**2, Budget(trial_limit=3)) == FactorizationResult(((5, 2),))
    assert factor(7, Budget(trial_limit=3)).primes() == [7]
    # a negative limit divides nothing out and proves nothing prime
    tested.clear()
    assert factor(6, Budget(trial_limit=-3)) == FactorizationResult(((2, 1), (3, 1)))
    assert tested[0] == 6


@given(st.integers(2, 10**5))
@settings(max_examples=200)
def test_factor_random_reassembly(n):
    f = factor(n)
    assert f.value() == n
    assert f.complete


def test_multiplicative_order_examples():
    assert multiplicative_order(2, 5) == 4
    assert multiplicative_order(2, 3) == 2
    assert multiplicative_order(2, 257) == 16
    assert multiplicative_order(3, 2) == 1
    with pytest.raises(ValueError):
        multiplicative_order(2, 9)  # not prime
    with pytest.raises(ValueError):
        multiplicative_order(10, 5)  # gcd != 1


def test_multiplicative_order_refuses_partial_factorization(monkeypatch):
    # P - 1 = 6 * p * q with the two 30-digit primes above
    P = 6 * (10**29 + 319) * (10**29 + 379) + 1
    assert is_probable_prime(P)
    starved = Budget(trial_limit=10, rho_rounds=5, rho_restarts=1)
    assert not factor(P - 1, starved).complete
    monkeypatch.setattr(modarith, "factor", lambda n: factor(n, starved))
    with pytest.raises(CapacityError, match=f"^cannot factor p - 1 = {P - 1} within the factoring budget$"):
        multiplicative_order(3, P)
    with pytest.raises(CapacityError, match=f"^cannot factor order {P - 1} within the factoring budget$"):
        verify_order(3, P, P - 1)


def test_order_divisibility_property():
    for p in (5, 7, 13, 97, 257, 6700417):
        for g in (2, 3, 10):
            if math.gcd(g, p) != 1:
                continue
            e = multiplicative_order(g, p)
            assert (p - 1) % e == 0
            assert pow(g, e, p) == 1
            for q in factor(e).primes():
                assert pow(g, e // q, p) != 1


def test_verify_order():
    assert verify_order(2, 5, 4)
    assert not verify_order(2, 5, 2)
    assert not verify_order(2, 5, 8)
    p26 = 24929060818265360451708193
    assert verify_order(2, p26, 432)
    assert not verify_order(2, p26, 216)


def test_factor_whole():
    assert factor_whole(1, "one") == FactorizationResult(())
    assert factor_whole(360, "n") == factor(360)
    n = (2**61 - 1) * (2**64 - 59)
    assert not factor(n, Budget(trial_limit=100, rho_rounds=10, rho_restarts=1)).complete
    assert factor_whole(n, "n").primes() == [2**61 - 1, 2**64 - 59]


def test_verify_order_accepts_order_one():
    # g ≡ 1 (mod p) has order 1; the descent from 1 factors nothing
    assert verify_order(8, 7, 1)
    assert verify_order(1, 7, 1)
    assert verify_order(3, 2, 1)
    assert not verify_order(2, 7, 1)


def test_verify_order_agrees_with_multiplicative_order():
    for p in (2, 3, 5, 7, 13, 257):
        divisors = [d for d in range(1, p) if (p - 1) % d == 0]
        for g in range(1, 2 * p):
            if math.gcd(g, p) != 1:
                continue
            e = multiplicative_order(g, p)
            assert [d for d in divisors if verify_order(g, p, d)] == [e], (g, p)


def test_crt_examples():
    c = crt_combine([ResidueClass(4, 5), ResidueClass(1, 2)])
    assert (c.a, c.b) == (9, 10)
    c = crt_combine([ResidueClass(2, 6), ResidueClass(5, 9)])
    assert (c.a, c.b) == (14, 18)
    with pytest.raises(IncompatibleCongruencesError) as exc:
        crt_combine([ResidueClass(0, 2), ResidueClass(1, 2)])
    assert exc.value.prime_power == 2 and exc.value.prime == 2
    assert exc.value.left == ResidueClass(0, 2)
    assert exc.value.right == ResidueClass(1, 2)
    with pytest.raises(ValueError):
        crt_combine([])
    # the gcd is 9: the two agree mod 3 and clash mod 9
    with pytest.raises(IncompatibleCongruencesError) as exc:
        crt_combine([ResidueClass(0, 18), ResidueClass(3, 45)])
    assert exc.value.prime == 3 and exc.value.prime_power == 9
    assert str(exc.value) == "congruences 0 (mod 18) and 3 (mod 45) conflict modulo 9"
    # the first failing merge meets 1 (mod 5); the error still names the
    # first clashing pair of the originals
    with pytest.raises(IncompatibleCongruencesError) as exc:
        crt_combine([ResidueClass(0, 3), ResidueClass(0, 5), ResidueClass(1, 5), ResidueClass(1, 3)])
    assert exc.value.left == ResidueClass(0, 3) and exc.value.right == ResidueClass(1, 3)
    assert exc.value.prime == 3 and exc.value.prime_power == 3


def test_conflict_past_the_digit_limit_is_still_the_conflict():
    m = 3**9100
    with pytest.raises(IncompatibleCongruencesError) as exc:
        crt_combine([ResidueClass(0, m), ResidueClass(1, m)])
    assert exc.value.prime == 3 and exc.value.prime_power == m
    size = f"a {m.bit_length()}-bit number"
    assert str(exc.value) == f"congruences 0 (mod {size}) and 1 (mod {size}) conflict modulo {size}"


def test_congruence_normalization():
    assert ResidueClass(-1, 5).a == 4
    assert ResidueClass(17, 5).a == 2
    with pytest.raises(ValueError):
        ResidueClass(0, 0)


@given(
    st.integers(0, 10**6),
    st.lists(st.integers(2, 300), min_size=1, max_size=5),
)
@settings(max_examples=200)
def test_crt_matches_construction(x, moduli):
    c = crt_combine([ResidueClass(x % m, m) for m in moduli])
    assert all(c.a % m == x % m for m in moduli)
    assert c.b == math.lcm(*moduli)
    assert 0 <= c.a < c.b

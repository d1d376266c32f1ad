import math

import pytest
from hypothesis import given, settings, strategies as st

from coversieve.modarith import (
    Budget,
    Congruence,
    IncompatibleCongruencesError,
    IncompleteFactorizationError,
    crt_combine,
    factor,
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
    with pytest.raises(ValueError):
        multiplicative_order(2, 9)  # not prime
    with pytest.raises(ValueError):
        multiplicative_order(10, 5)  # gcd != 1


def test_multiplicative_order_refuses_partial_factorization():
    # P - 1 = 6 * p * q with the two 30-digit primes above
    P = 6 * (10**29 + 319) * (10**29 + 379) + 1
    assert is_probable_prime(P)
    starved = Budget(trial_limit=10, rho_rounds=5, rho_restarts=1)
    assert not factor(P - 1, starved).complete
    with pytest.raises(IncompleteFactorizationError):
        multiplicative_order(3, P, starved)


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


def test_crt_examples():
    c = crt_combine([Congruence(4, 5), Congruence(1, 2)])
    assert (c.residue, c.modulus) == (9, 10)
    c = crt_combine([Congruence(2, 6), Congruence(5, 9)])
    assert (c.residue, c.modulus) == (14, 18)
    with pytest.raises(IncompatibleCongruencesError) as exc:
        crt_combine([Congruence(0, 2), Congruence(1, 2)])
    assert exc.value.prime_power == 2
    assert exc.value.left == Congruence(0, 2)
    assert exc.value.right == Congruence(1, 2)
    with pytest.raises(ValueError):
        crt_combine([])


def test_congruence_normalization():
    assert Congruence(-1, 5).residue == 4
    assert Congruence(17, 5).residue == 2
    with pytest.raises(ValueError):
        Congruence(0, 0)


@given(
    st.integers(0, 10**6),
    st.lists(st.integers(2, 300), min_size=1, max_size=5),
)
@settings(max_examples=200)
def test_crt_matches_construction(x, moduli):
    c = crt_combine([Congruence(x % m, m) for m in moduli])
    assert all(c.residue % m == x % m for m in moduli)
    assert c.modulus == math.lcm(*moduli)
    assert 0 <= c.residue < c.modulus

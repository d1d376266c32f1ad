import itertools
import math
import time

import pytest

from coversieve import cyclotomic, modarith
from coversieve.cyclotomic import (
    OrderPrimeSet,
    cyclotomic_degree,
    cyclotomic_value,
    load_exclusions,
    primes_of_order,
)
from coversieve.modarith import (
    Budget,
    CapacityError,
    factor,
    is_probable_prime,
    multiplicative_order,
    verify_order,
)

from test_modarith import rho_spy


def euler_phi(n):
    out, p, rest = 1, 2, n
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            out *= (p - 1) * p ** (e - 1)
        p += 1
    if rest > 1:
        out *= rest - 1
    return out


def mobius_poly_oracle(b):
    """Independent coefficient oracle: expand prod (x^d - 1) over divisors
    with mu(b/d) = +1, then long-divide by the mu = -1 binomials."""

    def mobius(n):
        out, p, rest = 1, 2, n
        while p * p <= rest:
            if rest % p == 0:
                rest //= p
                if rest % p == 0:
                    return 0
                out = -out
            p += 1
        if rest > 1:
            out = -out
        return out

    num, den = [1], [1]
    for d in range(1, b + 1):
        if b % d == 0:
            mu = mobius(b // d)
            if mu == 0:
                continue
            binom = [-1] + [0] * (d - 1) + [1]
            target = num if mu == 1 else den
            prod = [0] * (len(target) + d)
            for i, c in enumerate(target):
                for j, e in enumerate(binom):
                    prod[i + j] += c * e
            if mu == 1:
                num = prod
            else:
                den = prod
    # long division num / den
    out = [0] * (len(num) - len(den) + 1)
    rem = list(num)
    for i in range(len(out) - 1, -1, -1):
        q = rem[i + len(den) - 1] // den[-1]
        out[i] = q
        for j, e in enumerate(den):
            rem[i + j] -= q * e
    assert not any(rem)
    return out


def horner(coeffs, x):
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


POINTS = (-3, -2, -1, 0, 1, 2, 3, 10)


@pytest.mark.parametrize("b", list(range(1, 31)) + [105, 128, 255])
def test_coeffs_against_mobius_oracle(b):
    """Φ_b(x) equals the oracle's polynomial at every point, |x| <= 1
    (the closed forms) as well as the Möbius quotient."""
    coeffs = mobius_poly_oracle(b)
    for x in POINTS:
        assert cyclotomic_value(b, x) == horner(coeffs, x), (b, x)


def test_degree_is_euler_phi():
    for b in range(1, 201):
        assert cyclotomic_degree(b) == euler_phi(b), b


def test_value_examples():
    assert mobius_poly_oracle(1) == [-1, 1]
    assert mobius_poly_oracle(4) == [1, 0, 1]
    assert mobius_poly_oracle(6) == [1, -1, 1]
    assert cyclotomic_value(4, 2) == 5
    assert cyclotomic_value(64, 2) == 4294967297
    assert cyclotomic_value(6, 2) == 3


def test_value_matches_coefficients():
    for b in (1, 2, 12, 36, 105, 432):
        coeffs = mobius_poly_oracle(b)
        for x in (-3, -1, 0, 1, 2, 10):
            assert horner(coeffs, x) == cyclotomic_value(b, x), (b, x)


def divisor_product(b, x, least=1):
    """prod Φ_d(x) over the divisors d >= least of b."""
    return math.prod(cyclotomic_value(d, x) for d in range(least, b + 1) if b % d == 0)


def test_product_identity():
    """prod over d | b of Φ_d(x) = x^b - 1; without d = 1 it is
    (x^b - 1)/(x - 1), which at x = 1 is b and pins Φ_d(1) = p for the
    powers d of a prime p."""
    for b in range(1, 201):
        assert divisor_product(b, 2) == 2**b - 1, b
        for x in (-3, 0, 3, 10):
            assert divisor_product(b, x, 2) == (x**b - 1) // (x - 1), (b, x)
        assert divisor_product(b, 1, 2) == b, b


def test_index_cap():
    with pytest.raises(CapacityError):
        cyclotomic_degree(20001)
    with pytest.raises(CapacityError):
        cyclotomic_value(20001, 2)
    # the appendix's largest modulus stays inside the cap
    assert cyclotomic_degree(18018) == euler_phi(18018)


def numerator_bits(b, x0):
    """Bits of prod x0**(b/d) - 1 over the squarefree d | b with μ(d) = 1,
    counted as cyclotomic_value's bound counts them."""
    primes = factor(b).primes() if b > 1 else []
    even = (c for k in range(0, len(primes) + 1, 2) for c in itertools.combinations(primes, k))
    return sum(b // math.prod(c) for c in even) * abs(x0).bit_length()


def test_eval_bits_refuses_before_any_power():
    # Φ_19998 at 10^10 + 19 forms 851,088 bits and is admitted; at 10^100 + 7
    # (8,335,656 bits) and at a 1001-digit point it is refused at once
    assert numerator_bits(19998, 10**10 + 19) == 851_088 <= cyclotomic.EVAL_BITS
    assert cyclotomic_value(19998, 10**10 + 19) % (10**10 + 19) == 1
    for x0 in (10**100 + 7, -(10**1000) - 1):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=f"needs a product of {numerator_bits(19998, x0)} bits"):
            cyclotomic_value(19998, x0)
        assert time.perf_counter() - start < 1
    # Φ_2 forms x0**2 - 1: a point at the bound is admitted, and one whose
    # numerator is two bits past it is refused
    x0 = 2 ** (cyclotomic.EVAL_BITS // 2) - 1
    assert cyclotomic_value(2, x0) == x0 + 1
    with pytest.raises(CapacityError):
        cyclotomic_value(2, x0 + 1)


def test_indices_outside_the_cap_are_refused_before_b_is_factored(monkeypatch):
    monkeypatch.setattr(modarith, "factor", lambda *args: pytest.fail(f"factored {args}"))
    cap = cyclotomic.INDEX_CAP
    for build in (cyclotomic_degree, lambda b: cyclotomic_value(b, 1),
                  lambda b: cyclotomic_value(b, 10**6)):
        for b in (0, -5):
            with pytest.raises(ValueError, match=f"^index must be >= 1, got {b}$"):
                build(b)
        with pytest.raises(CapacityError, match=f"^cyclotomic index {cap + 1} exceeds cap {cap}$"):
            build(cap + 1)


def test_eval_bits_admits_every_index_at_2_and_10():
    # b = 19950 has the largest numerator of every b <= INDEX_CAP, 30,960
    # times the bits of the point
    b = 19950
    widest = max(range(1, cyclotomic.INDEX_CAP + 1), key=lambda c: numerator_bits(c, 10))
    assert widest == b and numerator_bits(b, 10) == 30_960 * 4 <= cyclotomic.EVAL_BITS
    for x in (2, 10):
        assert divisor_product(b, x) == x**b - 1


def test_primes_of_order_examples():
    s = primes_of_order(4, 2)
    assert s.primes == (5,) and s.complete
    s = primes_of_order(16, 2)
    assert s.primes == (257,) and s.complete
    s = primes_of_order(64, 2)
    assert s.primes == (641, 6700417) and s.complete
    with pytest.raises(ValueError, match="base must be 2 or 10, got 3"):
        primes_of_order(12, 3)
    with pytest.raises(ValueError, match="order must be >= 2, got 1"):
        primes_of_order(1)


def test_primes_of_order_properties():
    for b in (9, 20, 36, 48, 100):
        s = primes_of_order(b, 2)
        for p in s.primes:
            assert verify_order(2, p, b)
            assert b % p != 0
    s = primes_of_order(6, 2)  # Phi_6(2) = 3 divides 6: nothing of order 6
    assert s.primes == () and s.complete


def test_primes_of_order_base10():
    s = primes_of_order(6, 10)
    assert 13 in s.primes and all(verify_order(10, p, 6) for p in s.primes)


def test_primes_of_order_exclusion(tmp_path):
    path = tmp_path / "exclude.txt"
    path.write_text("# known primes\n641\n")
    ex = load_exclusions(path)
    assert ex == frozenset({641})
    s = primes_of_order(64, 2, exclude=ex)
    assert s.primes == (6700417,)


def test_primes_of_order_incomplete_under_starved_budget():
    s = primes_of_order(432, 2, Budget(trial_limit=10**4, rho_rounds=4, rho_restarts=1))
    assert not s.complete
    assert s.unfactored_cofactor > 1
    for p in s.primes:
        assert verify_order(2, p, 432)


STARVED = Budget(trial_limit=10**4, rho_rounds=4, rho_restarts=1)
CYCLO_BUDGET = Budget(trial_limit=10**5, rho_rounds=2000, rho_restarts=2)
STARVED_432_COFACTOR = 22300745198530623141530995906165491860766721


@pytest.mark.parametrize("args, expected", [
    ((4, 2), ((5,), True, 1)),
    ((6, 2), ((), True, 1)),
    ((18, 2), ((19,), True, 1)),
    ((20, 2), ((41,), True, 1)),
    ((64, 2), ((641, 6700417), True, 1)),
    ((432, 2), ((209924353, 4261383649, 24929060818265360451708193), True, 1)),
    ((432, 2, STARVED), ((), False, STARVED_432_COFACTOR)),
    ((6, 10), ((7, 13), True, 1)),
    ((64, 2, Budget(), frozenset({641})), ((6700417,), True, 1)),
])
def test_primes_of_order_golden(args, expected):
    """Pinned before the factoring layer was simplified; must never move."""
    primes, complete, cofactor = expected
    assert primes_of_order(*args) == OrderPrimeSet(
        order=args[0], base=args[1], primes=primes, complete=complete,
        unfactored_cofactor=cofactor,
    )


@pytest.mark.parametrize("b", (12, 432, 1024))
def test_primes_of_order_factors_its_index_once(b, monkeypatch):
    """b is factored once, for the Möbius divisors of Φ_b(2); the largest
    prime of b is stripped from the value, and the order of every listed
    prime checked, without a second factorization.  Past the starved
    budget, b = 12 lists 13, 432 its three Table 1 primes and 1024 the
    prime 2424833."""
    real = modarith.factor_whole
    calls = []

    def counting(n, what):
        calls.append(n)
        return real(n, what)

    monkeypatch.setattr(cyclotomic, "factor_whole", counting)
    monkeypatch.setattr(modarith, "factor_whole", counting)
    for budget in (STARVED, Budget() if b == 432 else CYCLO_BUDGET):
        calls.clear()
        primes = primes_of_order(b, 2, budget).primes
        assert calls.count(b) == 1
    assert len(primes) == (3 if b == 432 else 1)


def test_order_check_factors_b_at_the_default_budget():
    """A budget too small to factor b still lists the primes it finds: the
    order check of each one factors b under the default budget."""
    starved = Budget(trial_limit=2, rho_rounds=1, rho_restarts=1)
    assert primes_of_order(9, 2, starved) == OrderPrimeSet(9, 2, (73,), True, 1)
    for b in range(2, 400):
        assert all(verify_order(2, p, b) for p in primes_of_order(b, 2, starved).primes)


def test_trial_division_finds_every_prime_of_order_up_to_the_limit():
    """With p-1 and rho off, trial division alone finds every prime of
    order b up to the limit: it tries every c ≡ 1 (mod lcm(2, b))."""
    limit = 2000
    budget = Budget(trial_limit=limit, rho_rounds=0, rho_restarts=0)
    for base in (2, 10):
        want = {}
        for p in range(3, limit + 1):
            if base % p and is_probable_prime(p):
                want.setdefault(multiplicative_order(base, p), set()).add(p)
        for b in range(2, 201):
            got = {p for p in primes_of_order(b, base, budget).primes if p <= limit}
            assert got == want.get(b, set()), (b, base)


def test_fermat_factors_golden():
    f6 = factor(2**64 + 1, CYCLO_BUDGET)
    assert (f6.factors, f6.cofactor) == (((274177, 1), (67280421310721, 1)), 1)
    f7 = factor(2**128 + 1, CYCLO_BUDGET)
    assert (f7.factors, f7.cofactor) == ((), 2**128 + 1)


def test_starved_cofactor_is_primality_tested_once(monkeypatch):
    """The remainder of Phi_432(2) is tested once, inside factor(), and is
    not trial-divided a second time or re-tested for a result flag."""
    real = modarith.is_probable_prime
    calls = []

    def counting(n):
        if n == STARVED_432_COFACTOR:
            calls.append(n)
        return real(n)

    monkeypatch.setattr(modarith, "is_probable_prime", counting)
    monkeypatch.setattr(cyclotomic, "is_probable_prime", counting, raising=False)
    s = primes_of_order(432, 2, STARVED)
    assert s.unfactored_cofactor == STARVED_432_COFACTOR
    assert len(calls) == 1


def test_composite_filter_skips_the_lucas_test(monkeypatch):
    """Every factor of Phi_432(2) is 1 (mod 432), so its composite cofactor
    is a base-2 strong probable prime; the base-3 test rejects it first."""
    assert modarith._strong_probable_prime(STARVED_432_COFACTOR, 2)
    lucas = []
    monkeypatch.setattr(modarith, "_strong_lucas_probable_prime", lucas.append)
    assert not modarith.is_probable_prime(STARVED_432_COFACTOR)
    assert lucas == []


def test_aurifeuillian_split():
    for b in range(4, 4001, 8):
        m = b // 4
        h = (m + 1) // 2
        lo, hi = 2**m - 2**h + 1, 2**m + 2**h + 1
        value = cyclotomic_value(b, 2)
        g = math.gcd(value, lo)
        assert math.gcd(lo, hi) == 1, b
        assert value == g * math.gcd(value, hi), b
        assert cyclotomic._aurifeuillian_parts(b, 2, value) == (g, value // g)


def strong_probable_prime(n, bases=(2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                                    41, 43, 47, 53, 59, 61, 67, 71)):
    """Independent Miller-Rabin over fixed bases, for odd n > 71."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@pytest.mark.parametrize("b", (175, 220, 260, 540, 1260, 1584, 3276, 240, 720, 1375))
def test_cyclo_budget_completes_with_split_and_pm1(b):
    """Left incomplete under the cyclo budget by trial division and rho on
    x^2 + c alone; the split, p-1 and rho on x^lcm(2, b) + c complete them.
    The primes are checked here without factor()."""
    s = primes_of_order(b, 2, CYCLO_BUDGET)
    assert s.complete and s.unfactored_cofactor == 1
    prime_divisors = [r for r in range(2, b + 1) if b % r == 0
                      and all(r % t for t in range(2, r))]
    rest = cyclotomic_value(b, 2)
    for p in s.primes:
        assert p % b == 1 and strong_probable_prime(p)
        assert pow(2, b, p) == 1
        assert all(pow(2, b // r, p) != 1 for r in prime_divisors)
        while rest % p == 0:
            rest //= p
    assert b % rest == 0  # at most the largest prime of b is left


@pytest.mark.parametrize("b", (240, 676, 1375))
def test_primes_of_order_tells_factor_the_order(b, monkeypatch):
    """Every rho call, on the Aurifeuillian halves of b = 676 too, runs
    x^e + c with e = lcm(2, b) for ceil(rho_rounds / isqrt(e/2)) rounds."""
    calls = rho_spy(monkeypatch)
    primes_of_order(b, 2, CYCLO_BUDGET)
    e = math.lcm(2, b)
    assert calls and set(calls) == {(math.ceil(2000 / math.isqrt(e // 2)), e)}


def test_exclusion_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("x\n")
    with pytest.raises(ValueError):
        load_exclusions(path)
    path.write_text("# nothing excluded\n")
    assert load_exclusions(path) == frozenset()

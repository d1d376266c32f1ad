import pytest

from coversieve.cyclotomic import (
    CyclotomicPoly,
    cyclotomic_coeffs,
    cyclotomic_value,
    load_exclusions,
    primes_of_order,
)
from coversieve.modarith import Budget, CapacityError, verify_order


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


def test_coeff_examples():
    assert cyclotomic_coeffs(1).coefficients == (-1, 1)
    assert cyclotomic_coeffs(4).coefficients == (1, 0, 1)
    assert cyclotomic_coeffs(6).coefficients == (1, -1, 1)


@pytest.mark.parametrize("b", list(range(1, 31)) + [105, 128, 255])
def test_coeffs_against_mobius_oracle(b):
    assert list(cyclotomic_coeffs(b).coefficients) == mobius_poly_oracle(b)


def test_degree_is_euler_phi():
    for b in range(1, 201):
        assert cyclotomic_coeffs(b).degree == euler_phi(b), b


def test_value_examples():
    assert cyclotomic_value(4, 2) == 5
    assert cyclotomic_value(64, 2) == 4294967297
    assert cyclotomic_value(6, 2) == 3


def test_value_matches_coefficients():
    for b in (1, 2, 12, 36, 105, 432):
        poly = cyclotomic_coeffs(b)
        for x in (-3, -1, 0, 1, 2, 10):
            assert poly(x) == cyclotomic_value(b, x), (b, x)


def test_product_identity():
    for b in range(1, 201):
        prod = 1
        for d in range(1, b + 1):
            if b % d == 0:
                prod *= cyclotomic_value(d, 2)
        assert prod == 2**b - 1, b


def test_index_cap():
    with pytest.raises(CapacityError):
        cyclotomic_coeffs(20001)
    with pytest.raises(CapacityError):
        cyclotomic_value(20001, 2)
    # the appendix's largest modulus stays inside the cap
    assert cyclotomic_coeffs(18018).degree == euler_phi(18018)


def test_primes_of_order_examples():
    s = primes_of_order(4, 2)
    assert s.primes == (5,) and s.complete
    s = primes_of_order(16, 2)
    assert s.primes == (257,) and s.complete
    s = primes_of_order(64, 2)
    assert s.primes == (641, 6700417) and s.complete


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


def test_exclusion_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("x\n")
    with pytest.raises(ValueError):
        load_exclusions(path)
    path.write_text("# nothing excluded\n")
    assert load_exclusions(path) == frozenset()

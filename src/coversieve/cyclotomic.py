"""Cyclotomic polynomials and primes of prescribed multiplicative order.

The b-th cyclotomic polynomial evaluated at 2 (or 10) is the source of
primes p with ord_p(base) = b: every prime divisor of the value either
divides b or has multiplicative order exactly b.  Enumerating such primes
is how covering moduli get matched to sieving primes.  Indices above the
fixed INDEX_CAP, and values whose Möbius product passes EVAL_BITS, are
refused with CapacityError.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .modarith import Budget, CapacityError, DEFAULT_BUDGET, factor, verify_order

INDEX_CAP = 20000  # largest index b whose Φ_b is built or evaluated
# largest numerator of the Möbius quotient, in bits, that cyclotomic_value
# forms: about a second of big-integer products and one division, and far
# above the 123,840 bits of the largest Φ_b(10) with b <= INDEX_CAP
EVAL_BITS = 10**6


class CyclotomicPoly(namedtuple("CyclotomicPoly", "index coefficients")):
    """Exact integer coefficients of Φ_b, ascending degree; degree = φ(b)."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x: int) -> int:
        out = 0
        for c in reversed(self.coefficients):
            out = out * x + c
        return out


class OrderPrimeSet(namedtuple("OrderPrimeSet", "order base primes complete unfactored_cofactor",
                               defaults=(1,))):
    """Primes p with ord_p(base) = order, found by factoring Φ_order(base).

    complete mirrors the factorization: when False, more primes of this
    order may exist beyond the ones listed.
    """

    __slots__ = ()


def _squarefree_divisors_mu(b: int) -> list[tuple[int, int]]:
    """(d, μ(d)) for the squarefree divisors d of b."""
    out = [(1, 1)]
    for q in factor(b).primes() if b > 1 else ():
        out += [(d * q, -mu) for d, mu in out]
    return out


def _mul_binomial(coeffs: list[int], d: int) -> list[int]:
    # multiply by (x**d - 1)
    out = [0] * (len(coeffs) + d)
    for i, c in enumerate(coeffs):
        out[i + d] += c
        out[i] -= c
    return out


def _div_binomial(coeffs: list[int], d: int) -> list[int]:
    # exact division by (x**d - 1)
    out = [0] * (len(coeffs) - d)
    rem = list(coeffs)
    for i in range(len(out) - 1, -1, -1):
        q = rem[i + d]
        out[i] = q
        rem[i + d] -= q
        rem[i] += q
    if any(rem):
        raise ArithmeticError("division by x^%d - 1 not exact" % d)
    return out


def cyclotomic_coeffs(b: int) -> CyclotomicPoly:
    """Φ_b as exact integer coefficients, via the Möbius product
    Φ_b(x) = prod (x**(b/d) - 1)**μ(d) over squarefree d | b."""
    if b < 1:
        raise ValueError(f"index must be >= 1, got {b}")
    if b > INDEX_CAP:
        raise CapacityError(f"cyclotomic index {b} exceeds cap {INDEX_CAP}")
    coeffs = [1]
    divs = _squarefree_divisors_mu(b)
    for d, mu in divs:
        if mu == 1:
            coeffs = _mul_binomial(coeffs, b // d)
    for d, mu in divs:
        if mu == -1:
            coeffs = _div_binomial(coeffs, b // d)
    return CyclotomicPoly(b, tuple(coeffs))


def cyclotomic_value(b: int, x0: int) -> int:
    """Exact Φ_b(x0) without materializing coefficients (for |x0| >= 2 the
    Möbius product is taken as a quotient of big integers).  A numerator
    of more than EVAL_BITS bits, prod x0**(b/d) - 1 over μ(d) = 1, is
    refused before any power is taken."""
    if b < 1:
        raise ValueError(f"index must be >= 1, got {b}")
    if b > INDEX_CAP:
        raise CapacityError(f"cyclotomic index {b} exceeds cap {INDEX_CAP}")
    if abs(x0) <= 1:
        return cyclotomic_coeffs(b)(x0)
    divisors = _squarefree_divisors_mu(b)
    bits = sum(b // d for d, mu in divisors if mu == 1) * abs(x0).bit_length()
    if bits > EVAL_BITS:
        raise CapacityError(
            f"Φ_{b} at a {abs(x0).bit_length()}-bit point needs a product of "
            f"{bits} bits, above cap {EVAL_BITS}"
        )
    num = den = 1
    for d, mu in divisors:
        t = x0 ** (b // d) - 1
        if mu == 1:
            num *= t
        elif mu == -1:
            den *= t
    value, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("cyclotomic quotient not exact")
    return value


def _aurifeuillian_parts(b: int, base: int, value: int) -> tuple[int, ...]:
    """value, a divisor of Φ_b(base), split into coprime parts.

    For base 2 and b ≡ 4 (mod 8), with m = b/4 and h = (m+1)/2, Φ_b(2)
    divides 2^(2m) + 1 = (2^m - 2^h + 1)(2^m + 2^h + 1), and the two
    factors are coprime (Brent, Math. Comp. 61, 1993), so a gcd with one
    of them splits value in two parts of about half its size.
    """
    if base != 2 or b % 8 != 4:
        return (value,)
    m = b // 4
    h = (m + 1) // 2
    g = math.gcd(value, 2**m - 2**h + 1)
    return g, value // g


def primes_of_order(
    b: int,
    base: int = 2,
    budget: Budget = DEFAULT_BUDGET,
    exclude: frozenset[int] | set[int] = frozenset(),
) -> OrderPrimeSet:
    """Primes p (not dividing b, not excluded) with ord_p(base) exactly b.

    Factors Φ_b(base) under the budget.  The one possible divisor not of
    order b, the largest prime factor of b, is stripped first; every prime
    left is 1 (mod b).  What is left goes to factor() told order=b, so its
    trial division tries only the candidates 1 (mod lcm(2, b)) and its rho
    iterates x^lcm(2, b) + c over fewer rounds at the same reach: for base
    2 and b ≡ 4 (mod 8) as the two halves of its Aurifeuillian
    factorization, one factor() call each, and otherwise whole.
    unfactored_cofactor is the product of what each call leaves.
    Every listed prime has its order verified.
    """
    if base not in (2, 10):
        raise ValueError(f"base must be 2 or 10, got {base}")
    if b < 2:
        raise ValueError(f"order must be >= 2, got {b}")
    value = cyclotomic_value(b, base)
    q = factor(b).primes()[-1]
    while value % q == 0:
        value //= q
    parts = _aurifeuillian_parts(b, base, value)
    found = [factor(part, budget, order=b) for part in parts if part > 1]
    value = math.prod(f.cofactor for f in found)
    primes = []
    for p in sorted(p for f in found for p in f.primes()):
        if p in exclude or b % p == 0:
            continue
        if not verify_order(base, p, b):
            raise ArithmeticError(
                f"divisor {p} of cyclotomic value fails the order-{b} check"
            )
        primes.append(p)
    return OrderPrimeSet(
        order=b,
        base=base,
        primes=tuple(primes),
        complete=value == 1,
        unfactored_cofactor=value,
    )


def read_integers(path) -> list[int]:
    """Integer-list file: one decimal integer per line, '#' comments."""
    out = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                out.append(int(line))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not an integer: {line!r}")
    return out


def load_exclusions(path) -> frozenset[int]:
    """Exclusion-set file: an integer-list file of primes; may be empty."""
    return frozenset(read_integers(path))

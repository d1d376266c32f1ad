"""Cyclotomic values and primes of prescribed multiplicative order.

Φ_b is used only through its values and its degree, never its
coefficients.  The value Φ_b(2) (or Φ_b(10)) is the source of primes p
with ord_p(base) = b: every prime divisor of the value either divides b
or has multiplicative order exactly b.  Enumerating such primes is how
covering moduli get matched to sieving primes.  Indices above the fixed
INDEX_CAP, and values whose Möbius product passes EVAL_BITS, are refused
with CapacityError.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .modarith import (
    Budget, CapacityError, DEFAULT_BUDGET, _has_order, _prime_to, factor, factor_whole,
)

INDEX_CAP = 20000  # largest index b whose Φ_b is evaluated
# largest numerator of the Möbius quotient, in bits, that cyclotomic_value
# forms: about a second of big-integer products and one division, and far
# above the 123,840 bits of the largest Φ_b(10) with b <= INDEX_CAP
EVAL_BITS = 10**6


class OrderPrimeSet(namedtuple("OrderPrimeSet", "order base primes complete unfactored_cofactor",
                               defaults=(1,))):
    """Primes p with ord_p(base) = order, found by factoring Φ_order(base).

    complete mirrors the factorization: when False, more primes of this
    order may exist beyond the ones listed.
    """

    __slots__ = ()


def _index_primes(b: int) -> list[int]:
    """The primes of b, ascending; an index b below 1 or above INDEX_CAP is
    refused before b is factored."""
    if b < 1:
        raise ValueError(f"index must be >= 1, got {b}")
    if b > INDEX_CAP:
        raise CapacityError(f"cyclotomic index {b} exceeds cap {INDEX_CAP}")
    return factor_whole(b, lambda: f"cyclotomic index {b}").primes()


def _squarefree_divisors_mu(primes: list[int]) -> list[tuple[int, int]]:
    """(d, μ(d)) for the squarefree divisors d of a number with these primes."""
    out = [(1, 1)]
    for q in primes:
        out += [(d * q, -mu) for d, mu in out]
    return out


def cyclotomic_degree(b: int) -> int:
    """deg Φ_b = φ(b) = Σ μ(d)·b/d over the squarefree divisors d of b."""
    return sum(mu * (b // d) for d, mu in _squarefree_divisors_mu(_index_primes(b)))


def cyclotomic_value(b: int, x0: int) -> int:
    """Exact Φ_b(x0).  At |x0| <= 1 a closed form: Φ_1(x) = x - 1; for
    b >= 2, Φ_b(0) = 1, Φ_b(1) = p when b is a power of the prime p and
    1 otherwise, and Φ_b(-1) is 1 for odd b and Φ_(b/2)(1) for even b
    (Φ_2m(x) = Φ_m(-x) for odd m > 1, Φ_m(x²) for even m; Φ_2(-1) = 0).
    Elsewhere the Möbius product prod (x0**(b/d) - 1)**μ(d) over the
    squarefree d | b, as a quotient of big integers whose numerator, of
    more than EVAL_BITS bits, is refused before any power is taken."""
    return _value(b, x0, _index_primes(b))


def _value(b: int, x0: int, primes: list[int]) -> int:
    # cyclotomic_value, given the primes of b
    if abs(x0) <= 1:
        if x0 == -1 and b % 2 == 0:
            b, x0 = b // 2, 1
            if b % 2:  # b/2 is odd: its primes are b's without 2
                primes = primes[1:]
        if b == 1:
            return x0 - 1
        return primes[0] if x0 == 1 and len(primes) == 1 else 1
    divisors = _squarefree_divisors_mu(primes)
    bits = sum(b // d for d, mu in divisors if mu == 1) * abs(x0).bit_length()
    if bits > EVAL_BITS:
        raise CapacityError(
            f"Φ_{b} at a {abs(x0).bit_length()}-bit point needs a product of "
            f"{bits} bits, above cap {EVAL_BITS}"
        )
    num = math.prod(x0 ** (b // d) - 1 for d, mu in divisors if mu == 1)
    den = math.prod(x0 ** (b // d) - 1 for d, mu in divisors if mu == -1)
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
    """Primes p not in exclude with ord_p(base) exactly b.

    Factors Φ_b(base) under the budget.  The one possible divisor not of
    order b, the largest prime factor of b, is stripped first by gcds with
    b, which needs no factoring of b; every prime left is 1 (mod b), so
    none divides b and only exclude skips a prime that factor() lists.
    What is left goes to factor() told order=b, so its trial division
    tries only the candidates 1 (mod lcm(2, b)) and its rho
    iterates x^lcm(2, b) + c over fewer rounds at the same reach: for base
    2 and b ≡ 4 (mod 8) as the two halves of its Aurifeuillian
    factorization, one factor() call each, and otherwise whole.
    unfactored_cofactor is the product of what each call leaves.
    Every listed prime has its order verified as verify_order does, with
    the primes of b that the value was evaluated with: b is factored once.
    """
    if base not in (2, 10):
        raise ValueError(f"base must be 2 or 10, got {base}")
    if b < 2:
        raise ValueError(f"order must be >= 2, got {b}")
    index_primes = _index_primes(b)
    parts = _aurifeuillian_parts(b, base, _prime_to(_value(b, base, index_primes), b))
    found = [factor(part, budget, order=b) for part in parts if part > 1]
    value = math.prod(f.cofactor for f in found)
    primes = []
    for p in sorted(p for f in found for p in f.primes()):
        if p in exclude:
            continue
        if not _has_order(base, p, b, lambda: index_primes):
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

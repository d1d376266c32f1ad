"""Cyclotomic polynomials and primes of prescribed multiplicative order.

The b-th cyclotomic polynomial evaluated at 2 (or 10) is the source of
primes p with ord_p(base) = b: every prime divisor of the value either
divides b or has multiplicative order exactly b.  Enumerating such primes
is how covering moduli get matched to sieving primes.  Indices above the
fixed INDEX_CAP are refused with CapacityError.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .modarith import Budget, CapacityError, DEFAULT_BUDGET, factor, verify_order

INDEX_CAP = 20000  # largest index b whose Φ_b is built or evaluated


@dataclass(frozen=True)
class CyclotomicPoly:
    """Exact integer coefficients of Φ_b, ascending degree; degree = φ(b)."""

    index: int
    coefficients: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x: int) -> int:
        out = 0
        for c in reversed(self.coefficients):
            out = out * x + c
        return out


@dataclass(frozen=True)
class OrderPrimeSet:
    """Primes p with ord_p(base) = order, found by factoring Φ_order(base).

    complete mirrors the factorization: when False, more primes of this
    order may exist beyond the ones listed.
    """

    order: int
    base: int
    primes: tuple[int, ...]
    complete: bool
    unfactored_cofactor: int = 1


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
    Möbius product is taken as a quotient of big integers)."""
    if b < 1:
        raise ValueError(f"index must be >= 1, got {b}")
    if b > INDEX_CAP:
        raise CapacityError(f"cyclotomic index {b} exceeds cap {INDEX_CAP}")
    if abs(x0) <= 1:
        return cyclotomic_coeffs(b)(x0)
    num = den = 1
    for d, mu in _squarefree_divisors_mu(b):
        t = x0 ** (b // d) - 1
        if mu == 1:
            num *= t
        elif mu == -1:
            den *= t
    value, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("cyclotomic quotient not exact")
    return value


def primes_of_order(
    b: int,
    base: int = 2,
    budget: Budget = DEFAULT_BUDGET,
    exclude: frozenset[int] | set[int] = frozenset(),
) -> OrderPrimeSet:
    """Primes p (not dividing b, not excluded) with ord_p(base) exactly b.

    Factors Φ_b(base) under the budget.  Trial division only probes
    candidates ≡ 1 (mod b), since any prime of order b is 1 mod b; the one
    possible divisor not of order b (the largest prime factor of b) is
    stripped first.  What is left has no divisor up to the trial limit, so
    it goes to factor()'s rho and primality stage without trial division.
    Every surviving prime has its order verified.
    """
    if base not in (2, 10):
        raise ValueError(f"base must be 2 or 10, got {base}")
    if b < 2:
        raise ValueError(f"order must be >= 2, got {b}")
    value = cyclotomic_value(b, base)
    q = factor(b).primes()[-1]
    while value % q == 0:
        value //= q
    found = []
    c = b + 1
    while c <= budget.trial_limit and c * c <= value:
        if value % c == 0:
            found.append(c)
            while value % c == 0:
                value //= c
        c += b
    if value > 1:
        sub = factor(value, replace(budget, trial_limit=1))
        found.extend(sub.primes())
        value = sub.cofactor
    primes = []
    for p in sorted(set(found)):
        if p in exclude or b % p == 0:
            continue
        if not verify_order(base, p, b, budget):
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

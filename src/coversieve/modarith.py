"""Arbitrary-precision modular arithmetic kernel.

Multiplicative orders, generalized CRT over non-coprime moduli,
deterministic primality testing, and effort-bounded factorization.
Everything here is a pure function of its inputs plus an explicit budget,
so results are reproducible and safe to call from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce


class IncompatibleCongruencesError(ValueError):
    """Two congruences in a CRT system disagree modulo a shared prime power."""

    def __init__(self, left: "Congruence", right: "Congruence", prime_power: int):
        super().__init__(
            f"congruences {left} and {right} conflict modulo {prime_power}"
        )
        self.left = left
        self.right = right
        self.prime_power = prime_power


class IncompleteFactorizationError(ValueError):
    """An operation required a complete factorization but got a partial one."""


class CapacityError(ValueError):
    """Requested computation exceeds a configured size cap."""


@dataclass(frozen=True)
class Congruence:
    """x ≡ residue (mod modulus). Residues are normalized into [0, modulus)."""

    residue: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        object.__setattr__(self, "residue", self.residue % self.modulus)

    def __str__(self):
        return f"{self.residue} (mod {self.modulus})"


@dataclass(frozen=True)
class Budget:
    """Effort bounds for factorization: trial-division limit and rho caps.

    A fixed budget and seed make factor() fully deterministic.
    """

    trial_limit: int = 1_000_000
    rho_rounds: int = 500_000
    rho_restarts: int = 8
    seed: int = 1


DEFAULT_BUDGET = Budget()


@dataclass(frozen=True)
class FactorizationResult:
    """Prime multiset, leftover cofactor, and a completeness flag.

    Invariant: prod(p**e) * cofactor == n for the input n.  Every listed
    prime passes is_probable_prime.  complete is true iff cofactor == 1.
    A cofactor > 1 is composite: it is a product of values that each
    failed is_probable_prime.
    """

    factors: tuple[tuple[int, int], ...]
    cofactor: int = 1

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    def value(self) -> int:
        out = self.cofactor
        for p, e in self.factors:
            out *= p ** e
        return out

    def primes(self) -> list[int]:
        return [p for p, _ in self.factors]


# Strong-pseudoprime bases proving primality for all n below _SPRP_BOUND
# (first 13 primes; Sorenson & Webster determined the bound).
_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SPRP_BOUND = 3317044064679887385961981

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _strong_probable_prime(n: int, base: int) -> bool:
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _is_square(n: int) -> bool:
    r = math.isqrt(n)
    return r * r == n


def _jacobi(a: int, n: int) -> int:
    # n odd positive
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    # Selfridge parameter selection: D = 5, -7, 9, -11, ... with (D|n) = -1.
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -(D + 2) if D > 0 else -(D - 2)
    Q = (1 - D) // 4

    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s

    # Compute U_d, V_d (P = 1) by the binary chain.
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = (U + V) % n, (V + D * U) % n
            if U & 1:
                U += n
            if V & 1:
                V += n
            U, V = U // 2 % n, V // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def is_probable_prime(n: int) -> bool:
    """Deterministic below 3.3e24 (fixed strong-pseudoprime battery); above
    that, a base-2 strong test plus a strong Lucas test (no counterexample
    to the combination is known)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _SPRP_BOUND:
        return all(_strong_probable_prime(n, b) for b in _SPRP_BASES)
    if not _strong_probable_prime(n, 2):
        return False
    if _is_square(n):
        return False
    return _strong_lucas_probable_prime(n)


def _trial_division(n: int, limit: int) -> tuple[list[tuple[int, int]], int]:
    factors = []
    for p in (2, 3, 5):
        if p > limit:
            return factors, n
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            factors.append((p, e))
    # 30-wheel over the remaining candidates
    wheel = (1, 7, 11, 13, 17, 19, 23, 29)
    base = 0
    while True:
        for w in wheel:
            c = base + w
            if c < 7:
                continue
            if c > limit or c * c > n:
                return factors, n
            if n % c == 0:
                e = 0
                while n % c == 0:
                    n //= c
                    e += 1
                factors.append((c, e))
        base += 30
        if base > limit or (n > 1 and base * base > n):
            return factors, n


def _brent_rho(n: int, rounds: int, restarts: int, seed: int) -> int | None:
    """One nontrivial factor of composite n, or None within budget."""
    if n % 2 == 0:
        return 2
    # deterministic LCG stream seeded from (seed, n)
    state = (seed * 0x9E3779B97F4A7C15 + n) % (1 << 64) or 1

    def nxt():
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        return state

    for _ in range(restarts):
        y = nxt() % (n - 3) + 2
        c = nxt() % (n - 1) + 1
        m = 128
        g = r = q = 1
        x = ys = y
        count = 0
        while g == 1 and count < rounds:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            count += r
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    return None


def factor(n: int, budget: Budget = DEFAULT_BUDGET) -> FactorizationResult:
    """Effort-bounded factorization: trial division, then Brent's rho.

    Never raises on hard inputs; whatever remains unfactored is reported as
    a composite cofactor with complete=False.
    """
    if n < 2:
        raise ValueError(f"factor() requires n >= 2, got {n}")
    factors, rest = _trial_division(n, budget.trial_limit)
    counts = dict(factors)
    pending = [rest] if rest > 1 else []
    cofactor = 1
    while pending:
        m = pending.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        d = _brent_rho(m, budget.rho_rounds, budget.rho_restarts, budget.seed)
        if d is None:
            cofactor *= m
            continue
        pending.append(d)
        pending.append(m // d)
    return FactorizationResult(tuple(sorted(counts.items())), cofactor)


def multiplicative_order(g: int, p: int, budget: Budget = DEFAULT_BUDGET) -> int:
    """Least e >= 1 with g**e ≡ 1 (mod p), for prime p.

    Factors p-1 under the budget; refuses to guess from a partial
    factorization.
    """
    if not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    if math.gcd(g, p) != 1:
        raise ValueError(f"gcd({g}, {p}) != 1; order undefined")
    if p == 2:
        return 1
    f = factor(p - 1, budget)
    if not f.complete:
        raise IncompleteFactorizationError(
            f"factorization of {p - 1} is incomplete "
            f"(cofactor {f.cofactor}); cannot certify an order"
        )
    e = p - 1
    for q, _ in f.factors:
        while e % q == 0 and pow(g, e // q, p) == 1:
            e //= q
    return e


def verify_order(g: int, p: int, order: int, budget: Budget = DEFAULT_BUDGET) -> bool:
    """True iff ord_p(g) equals order exactly.

    Cheaper than multiplicative_order for huge p: only `order` (not p-1)
    needs factoring, since it suffices that g**order ≡ 1 while
    g**(order/q) != 1 for every prime q dividing order.
    """
    if order < 1 or math.gcd(g, p) != 1:
        return False
    if pow(g, order, p) != 1:
        return False
    f = factor(order, budget)
    if not f.complete:
        raise IncompleteFactorizationError(f"cannot factor order {order}")
    return all(pow(g, order // q, p) != 1 for q in f.primes())


def _merge(c1: Congruence, c2: Congruence) -> Congruence:
    g = math.gcd(c1.modulus, c2.modulus)
    if (c1.residue - c2.residue) % g != 0:
        raise IncompatibleCongruencesError(c1, c2, _conflict_prime_power(c1, c2, g))
    l = c1.modulus // g * c2.modulus
    m2g = c2.modulus // g
    t = (c2.residue - c1.residue) // g * pow(c1.modulus // g, -1, m2g) % m2g
    return Congruence(c1.residue + c1.modulus * t, l)


def _conflict_prime_power(c1: Congruence, c2: Congruence, g: int) -> int:
    diff = c1.residue - c2.residue
    f = factor(g) if g > 1 else FactorizationResult(())
    for p, e in f.factors:
        pe = p ** e
        if diff % pe != 0:
            return pe
    # partial factorization: fall back to the whole gcd
    return g


def crt_combine(congruences: list[Congruence]) -> Congruence:
    """Simultaneous solution of congruences with arbitrary (non-coprime)
    moduli: returns the minimal residue modulo the lcm, or raises
    IncompatibleCongruencesError naming the clashing pair.

    Pairwise compatibility is checked up front (it is equivalent to global
    solvability), so errors always name two of the original congruences.
    """
    if not congruences:
        raise ValueError("crt_combine needs at least one congruence")
    for i, a in enumerate(congruences):
        for b in congruences[i + 1:]:
            g = math.gcd(a.modulus, b.modulus)
            if (a.residue - b.residue) % g != 0:
                raise IncompatibleCongruencesError(a, b, _conflict_prime_power(a, b, g))
    return reduce(_merge, congruences)


def lcm_all(values) -> int:
    return reduce(math.lcm, values, 1)

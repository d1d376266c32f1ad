"""Arbitrary-precision modular arithmetic kernel.

Multiplicative orders, generalized CRT over non-coprime moduli,
deterministic primality testing, and effort-bounded factorization.
Everything here is a pure function of its inputs, a factoring budget
included, so results are reproducible and safe to call from multiple threads.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Callable
from functools import cache


def _shown(n: int) -> str:
    """n in decimal, or its size in bits past Python's int-to-str digit
    limit, so that a message naming n never fails on the naming."""
    try:
        return str(n)
    except ValueError:
        return f"a {n.bit_length()}-bit number"


class IncompatibleCongruencesError(ValueError):
    """Two congruences in a CRT system disagree modulo a shared prime power.

    prime is the prime of that power, or the whole gcd of the two moduli
    when factor() leaves the gcd incomplete, as prime_power is then."""

    def __init__(self, left: ResidueClass, right: ResidueClass, prime: int, prime_power: int):
        super().__init__(
            f"congruences {left} and {right} conflict modulo {_shown(prime_power)}"
        )
        self.left = left
        self.right = right
        self.prime = prime
        self.prime_power = prime_power


class CapacityError(ValueError):
    """Requested computation exceeds a size cap or the factoring budget."""


class ResidueClass(namedtuple("ResidueClass", "a b")):
    """The congruence class a (mod b); a is normalized into [0, b)."""

    __slots__ = ()

    def __new__(cls, a: int, b: int):
        if b < 1:
            raise ValueError(f"modulus must be >= 1, got {b}")
        return tuple.__new__(cls, (a % b, b))

    def contains(self, n: int) -> bool:
        return n % self.b == self.a

    def __str__(self):
        return f"{_shown(self.a)} (mod {_shown(self.b)})"


class Budget(namedtuple("Budget", "trial_limit rho_rounds rho_restarts",
                        defaults=(1_000_000, 500_000, 8))):
    """Effort bounds for factorization: trial-division limit and rho caps.

    rho_rounds is the reach of one rho restart, in rounds of x^2 + c; a
    factor() told that every prime of n is 1 (mod order) spends fewer
    rounds of x^e + c for the same reach.  rho_rounds also sets the p-1
    stage-1 bound, B1 = rho_rounds // 8, so that stage costs under a tenth
    of one failed restart on x^2 + c.  Rho draws its starts from a fixed
    stream seeded by n, so a fixed budget makes factor() fully
    deterministic.
    """

    __slots__ = ()


DEFAULT_BUDGET = Budget()


class FactorizationResult(namedtuple("FactorizationResult", "factors cofactor", defaults=(1,))):
    """Prime multiset, leftover cofactor, and a completeness flag.

    Invariant: prod(p**e) * cofactor == n for the input n.  Every listed
    prime passes is_probable_prime.  complete is true iff cofactor == 1.
    A cofactor > 1 is composite: it is a product of values that each
    failed is_probable_prime.  The cofactor is prime to every listed prime.
    """

    __slots__ = ()

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


# (base, psi_k): the k-th prime and the least odd composite that is a strong
# pseudoprime to all of the first k primes (OEIS A014233): Jaeschke, Math.
# Comp. 61, 1993, for k <= 8; Jiang & Deng, Math. Comp. 83, 2014, for k = 9
# to 11; Sorenson & Webster, Math. Comp. 86, 2017, for k = 12 and 13.  An n
# below psi_k that passes those k bases is prime.
_SPRP_PSI = (
    (2, 2047),
    (3, 1373653),
    (5, 25326001),
    (7, 3215031751),
    (11, 2152302898747),
    (13, 3474749660383),
    (17, 341550071728321),
    (19, 341550071728321),
    (23, 3825123056546413051),
    (29, 3825123056546413051),
    (31, 3825123056546413051),
    (37, 318665857834031151167461),
    (41, 3317044064679887385961981),
)
_SPRP_BOUND = _SPRP_PSI[-1][1]

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
    """Deterministic below 3.3e24: strong tests to the prime bases 2, 3, 5,
    ... in order, stopping with "prime" once n lies below psi_k for the k
    bases passed, the least strong pseudoprime to all of them (the table
    _SPRP_PSI, OEIS A014233; Jaeschke, Math. Comp. 61, 1993; Jiang & Deng,
    Math. Comp. 83, 2014; Sorenson & Webster, Math. Comp. 86, 2017).  Above
    that, a base-2 strong test plus a strong Lucas test (BPSW: no
    counterexample to the combination is known).

    A base-3 strong test runs first above the bound.  Every prime passes
    it, so BPSW is not weakened; it rejects, with one pow, the composite
    factors of Phi_b(2), which are all base-2 strong probable primes and
    would otherwise reach the slow Lucas chain."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 59 * 59:  # no prime factor up to 53, so none up to sqrt(n)
        return True
    if n < _SPRP_BOUND:
        for base, psi in _SPRP_PSI:
            if not _strong_probable_prime(n, base):
                return False
            if n < psi:
                return True
    if not (_strong_probable_prime(n, 3) and _strong_probable_prime(n, 2)):
        return False
    if _is_square(n):
        return False
    return _strong_lucas_probable_prime(n)


def _trial_division(n: int, limit: int, step: int) -> tuple[list[tuple[int, int]], int]:
    """Prime powers of n found by trial division up to limit, and the rest.

    At step 2 the candidates are 2, 3, 5 and the 30-wheel from 7.  At a
    larger step they are only the c ≡ 1 (mod step), and c is divided out
    only if it is prime: a false promise can make a composite candidate
    divide n.  Division stops at the first candidate c with c > limit or
    c^2 > n; at step 2 a rest left by c^2 > n is 1 or prime."""
    factors = []
    if step == 2:
        wheel = (b + w for b in itertools.count(0, 30) for w in (7, 11, 13, 17, 19, 23, 29, 31))
        candidates = itertools.chain((2, 3, 5), wheel)
    else:
        candidates = itertools.count(step + 1, step)
    for c in candidates:
        if c > limit or c * c > n:
            return factors, n
        if n % c == 0 and (step == 2 or is_probable_prime(c)):
            e = 0
            while n % c == 0:
                n //= c
                e += 1
            factors.append((c, e))


def _prime_to(n: int, m: int) -> int:
    """The largest divisor of n prime to m, by repeated gcds: no factoring.
    While a prime of m still divides n it divides every gcd, so the loop
    ends only once none does."""
    g = math.gcd(n, m)
    while g > 1:
        n //= g
        g = math.gcd(n, g)
    return n


@cache
def _pm1_exponent(bound: int) -> int:
    """The product of q**floor(log_q bound) over the primes q <= bound."""
    sieve = bytearray([1]) * (bound + 1)
    e = 1
    for q in range(2, bound + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, bound + 1, q)))
            qk = q
            while qk * q <= bound:
                qk *= q
            e *= qk
    return e


def _pm1(n: int, bound: int) -> int | None:
    """Pollard p-1 stage 1 from base 3: a proper divisor of composite n,
    found when some prime p | n has bound-smooth p - 1, else None."""
    if bound < 2:
        return None
    g = math.gcd(pow(3, _pm1_exponent(bound), n) - 1, n)
    return g if 1 < g < n else None


def _brent_rho(n: int, rounds: int, restarts: int, e: int) -> int | None:
    """One nontrivial factor of composite n, or None within budget.

    Brent's cycle search on the map y -> y^e + c (Brent & Pollard, Math.
    Comp. 36, 1981); e = 2 is the classical x^2 + c."""
    if n % 2 == 0:
        return 2
    # deterministic LCG stream seeded from n
    state = (0x9E3779B97F4A7C15 + n) % (1 << 64) or 1

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
                y = (pow(y, e, n) + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (pow(y, e, n) + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += m
            count += r
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (pow(ys, e, n) + c) % n
                g = math.gcd(x - ys, n)
        if 1 < g < n:
            return g
    return None


def factor(n: int, budget: Budget = DEFAULT_BUDGET, order: int = 1) -> FactorizationResult:
    """Effort-bounded factorization: trial division, then for each value
    that fails is_probable_prime a Pollard p-1 stage 1 (bound
    budget.rho_rounds // 8, base 3) and Brent's rho.

    order states a fact about n: every prime factor of n is 1 (mod order),
    so every odd one is 1 (mod step) with step = lcm(2, order).  Trial
    division then tries only the candidates 1 (mod step), and rho iterates
    x -> x^step + c, which walks a set about step/2 times smaller than
    x^2 + c does (Brent & Pollard), so ceil(rho_rounds / isqrt(step/2))
    rounds reach as far as rho_rounds rounds of x^2 + c.  A false promise
    can only delay a factor, never list a composite: every prime is still
    tested, and order = 1 is the classical trial division and rho.

    Never raises on hard inputs; whatever remains unfactored is reported as
    a composite cofactor with complete=False.
    """
    if n < 2:
        raise ValueError(f"factor() requires n >= 2, got {n}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    step = math.lcm(2, order)
    rounds = -(-budget.rho_rounds // math.isqrt(step // 2))
    factors, rest = _trial_division(n, budget.trial_limit, step)
    counts = dict(factors)
    pending = []
    # At step 2 trial division leaves rest with no prime factor up to the
    # limit (or stops early at a prime), so a composite rest is at least
    # (limit + 1)^2: a rest up to limit^2 is prime.  A larger step tried
    # only some primes, so its rest is tested.  A negative limit divides
    # nothing out, so it counts as 0.
    if step == 2 and 1 < rest <= max(budget.trial_limit, 0) ** 2:
        counts[rest] = 1
    elif rest > 1:
        pending.append(rest)
    unsplit = []
    while pending:
        m = pending.pop()
        if is_probable_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        d = _pm1(m, budget.rho_rounds // 8) or _brent_rho(m, rounds, budget.rho_restarts, step)
        if d is None:
            unsplit.append(m)
            continue
        pending.append(d)
        pending.append(m // d)
    # A piece p-1 and rho leave unsplit can hold a prime listed from another
    # piece, as 25 does when 125 splits as 5 * 25.  The listed primes are
    # divided out and what is left is tested; a prime listed here sends the
    # pieces kept so far back through the same pass.
    kept = []
    while unsplit:
        piece = m = unsplit.pop()
        for p in counts:
            while m % p == 0:
                m //= p
                counts[p] += 1
        if m < piece and is_probable_prime(m):
            counts[m] = 1
            unsplit += kept
            kept = []
        elif m > 1:
            kept.append(m)
    return FactorizationResult(tuple(sorted(counts.items())), math.prod(kept))


def factor_whole(n: int, what: Callable[[], str]) -> FactorizationResult:
    """factor(n) under the default budget when it leaves no cofactor, the
    empty factorization for n = 1; otherwise CapacityError, naming n by
    what().  Every caller that needs all the primes of n factors here.
    what is called only to refuse, and names its number by _shown(), so a
    refusal past the int-to-str digit limit is still this error."""
    if n == 1:
        return FactorizationResult(())
    f = factor(n)
    if not f.complete:
        raise CapacityError(f"cannot factor {what()} within the factoring budget")
    return f


def multiplicative_order(g: int, p: int) -> int:
    """Least e >= 1 with g**e ≡ 1 (mod p), for prime p.

    Factors p-1 by factor_whole, so a partial factorization raises
    CapacityError rather than guess.
    """
    if not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    if math.gcd(g, p) != 1:
        raise ValueError(f"gcd({g}, {p}) != 1; order undefined")
    e = p - 1  # divided by each prime q of p - 1 while g**(e/q) ≡ 1 (mod p)
    for q in factor_whole(p - 1, lambda: f"p - 1 = {_shown(p - 1)}").primes():
        while e % q == 0 and pow(g, e // q, p) == 1:
            e //= q
    return e


def verify_order(g: int, p: int, order: int) -> bool:
    """True iff ord_p(g) equals order exactly.

    Cheaper than multiplicative_order for huge p: only `order` (not p-1)
    needs factoring, since it suffices that g**order ≡ 1 and no proper
    divisor of order gives 1.  order is factored by factor_whole, as p-1
    is by multiplicative_order, and only once g**order ≡ 1 (mod p).
    """
    return _has_order(
        g, p, order, lambda: factor_whole(order, lambda: f"order {_shown(order)}").primes())


def _has_order(g: int, p: int, order: int, primes: Callable[[], list[int]]) -> bool:
    # verify_order with the primes of order from primes(), so that a caller
    # checking many p against one order factors it once
    if order < 1 or math.gcd(g, p) != 1 or pow(g, order, p) != 1:
        return False
    for q in primes():
        if pow(g, order // q, p) == 1:
            return False
    return True


def _merge(c1: ResidueClass, c2: ResidueClass, g: int) -> ResidueClass:
    # crt_combine has checked that c1 and c2 agree modulo g = gcd(c1.b, c2.b)
    m2g = c2.b // g
    t = (c2.a - c1.a) // g * pow(c1.b // g, -1, m2g) % m2g
    return ResidueClass(c1.a + c1.b * t, c1.b * m2g)


def _conflict_prime_power(c1: ResidueClass, c2: ResidueClass, g: int) -> tuple[int, int]:
    """(p, p^e) for the first prime power of g on which c1 and c2 disagree;
    (g, g) if factor() leaves g incomplete and they agree on every power
    it found."""
    for p, e in factor(g).factors:
        if (c1.a - c2.a) % p ** e != 0:
            return p, p ** e
    return g, g


def crt_combine(congruences: list[ResidueClass]) -> ResidueClass:
    """Simultaneous solution of congruences with arbitrary (non-coprime)
    moduli: returns the minimal residue modulo the lcm, or raises
    IncompatibleCongruencesError naming the clashing pair and the prime on
    which they clash.

    The congruences merge left to right.  Only a failed merge scans the
    pairs, one of which then clashes (pairwise compatibility is global
    solvability), so errors always name two of the original congruences.
    """
    if not congruences:
        raise ValueError("crt_combine needs at least one congruence")
    acc = congruences[0]
    for c in congruences[1:]:
        g = math.gcd(acc.b, c.b)
        if (c.a - acc.a) % g != 0:
            break
        acc = _merge(acc, c, g)
    else:
        return acc
    for i, x in enumerate(congruences):
        for y in congruences[i + 1:]:
            g = math.gcd(x.b, y.b)
            if (x.a - y.a) % g != 0:
                raise IncompatibleCongruencesError(x, y, *_conflict_prime_power(x, y, g))

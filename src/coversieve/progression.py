"""Sieved arithmetic progressions: construction and direct verification.

A covering of the integers by classes n ≡ a (mod b), with each class bound
to a prime p of order b base 2, pins B modulo each prime so that every
k = Am + B makes k*2^n + 1 (or k*2^n - 1) divisible by one of the primes.
This module builds such progressions from assignments, combines compatible
ones into dual-sieve (Brier) progressions, and independently verifies the
divisibility properties for concrete k by scanning one full period.
Periods above PERIOD_CAP and shifted integers above MATERIALIZE_BITS are
refused with CapacityError; both bounds are fixed module constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .covering import CoveringSystem, ResidueClass, _first_uncovered, verify_auto
from .modarith import (
    Budget,
    CapacityError,
    Congruence,
    DEFAULT_BUDGET,
    FactorizationResult,
    IncompatibleCongruencesError,
    crt_combine,
    factor,
    is_probable_prime,
    lcm_all,
    multiplicative_order,
    verify_order,
)

PERIOD_CAP = 10 ** 7
MATERIALIZE_BITS = 5_000_000


class CombineConflictError(ValueError):
    """Two progressions disagree modulo a shared prime."""

    def __init__(self, prime: int):
        super().__init__(f"progressions disagree modulo the shared prime {prime}")
        self.prime = prime


@dataclass(frozen=True)
class PrimeAssignment:
    """One covering class bound to a prime of matching order base 2."""

    cls: ResidueClass
    prime: int | None


@dataclass(frozen=True)
class SievedProgression:
    """Am + B with a divisibility certificate.

    certificate entries are (kind, a, b, p): for kind 'sierpinski',
    B*2^a + 1 ≡ 0 (mod p); for 'riesel', B*2^a - 1 ≡ 0 (mod p), so the
    corresponding k*2^n ∓/± 1 is divisible by p whenever n ≡ a (mod b).
    """

    A: int
    B: int
    kind: str
    primes: frozenset[int]
    certificate: tuple[tuple[str, int, int, int], ...]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a period-scan verification."""

    ok: bool
    witness: object = None
    period: int = 0
    certificate: tuple = ()
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class BrierCheck:
    ok: bool
    sierpinski: CheckResult
    riesel: CheckResult

    def __bool__(self) -> bool:
        return self.ok


def _check_assignments(assignments, budget: Budget):
    seen_primes = set()
    seen_classes = {}
    for asg in assignments:
        if asg.prime is None:
            raise ValueError(f"assignment {asg.cls} has no prime bound to it")
        p = asg.prime
        if p == 2 or not is_probable_prime(p):
            raise ValueError(f"{p} is not an odd prime")
        if p in seen_primes:
            raise ValueError(f"prime {p} used by two assignments")
        seen_primes.add(p)
        key = (asg.cls.a, asg.cls.b)
        if key in seen_classes:
            raise ValueError(f"duplicate congruence class {asg.cls}")
        seen_classes[key] = p
        if not verify_order(2, p, asg.cls.b, budget):
            raise ValueError(
                f"ord_{p}(2) != {asg.cls.b}; {p} cannot serve class {asg.cls}"
            )


def _build(assignments, kind: str, require_covering: bool, budget: Budget):
    assignments = list(assignments)
    if not assignments:
        raise ValueError("no assignments given")
    _check_assignments(assignments, budget)
    classes = tuple(a.cls for a in assignments)
    if require_covering:
        verdict = verify_auto(CoveringSystem(classes))
        if not verdict.covered:
            raise ValueError(
                f"assignment classes do not cover the integers "
                f"(witness {verdict.witness})"
            )
    sign = -1 if kind == "sierpinski" else 1
    congruences = [Congruence(1, 2)]
    for asg in assignments:
        p = asg.prime
        inv = pow(2, -asg.cls.a, p)
        congruences.append(Congruence(sign * inv, p))
    combined = crt_combine(congruences)
    A = 2 * math.prod(a.prime for a in assignments)
    if combined.modulus != A:
        raise AssertionError("CRT modulus does not match 2 * product of primes")
    B = combined.residue
    cert = []
    for asg in assignments:
        p = asg.prime
        if (B * pow(2, asg.cls.a, p) - sign) % p != 0:
            raise AssertionError(f"certificate check failed at prime {p}")
        cert.append((kind, asg.cls.a, asg.cls.b, p))
    if math.gcd(A, B) != 1:
        raise AssertionError("built progression has gcd(A, B) != 1")
    return SievedProgression(
        A=A,
        B=B,
        kind=kind,
        primes=frozenset({2, *(a.prime for a in assignments)}),
        certificate=tuple(cert),
    )


def build_sierpinski(
    assignments,
    require_covering: bool = True,
    budget: Budget = DEFAULT_BUDGET,
) -> SievedProgression:
    """Progression of Sierpinski candidates: B ≡ -2^(-a) (mod p) per class,
    B odd, A = 2 * product of the primes.  With require_covering=False the
    covering check is skipped (diagnostic mode for partial assignments)."""
    return _build(assignments, "sierpinski", require_covering, budget)


def build_riesel(
    assignments,
    require_covering: bool = True,
    budget: Budget = DEFAULT_BUDGET,
) -> SievedProgression:
    """Mirror of build_sierpinski with B ≡ +2^(-a) (mod p)."""
    return _build(assignments, "riesel", require_covering, budget)


def combine_brier(parts) -> SievedProgression:
    """Merge progressions by CRT into one progression satisfying all of
    their certificates.  Prime sets may overlap only where the offsets
    already agree; a disagreement raises CombineConflictError naming the
    prime."""
    parts = list(parts)
    if not parts:
        raise ValueError("no parts to combine")
    try:
        combined = crt_combine([Congruence(p.B, p.A) for p in parts])
    except IncompatibleCongruencesError as exc:
        f = factor(exc.prime_power)
        raise CombineConflictError(f.primes()[0] if f.factors else exc.prime_power)
    A, B = combined.modulus, combined.residue
    if math.gcd(A, B) != 1:
        raise AssertionError("combined progression has gcd(A, B) != 1")
    cert = []
    for part in parts:
        for kind, a, b, p in part.certificate:
            sign = -1 if kind == "sierpinski" else 1
            if (B * pow(2, a, p) - sign) % p != 0:
                raise AssertionError(
                    f"certificate of a part fails against the combined B (prime {p})"
                )
            cert.append((kind, a, b, p))
    return SievedProgression(
        A=A,
        B=B,
        kind="brier",
        primes=frozenset().union(*(p.primes for p in parts)),
        certificate=tuple(cert),
    )


# ---------------------------------------------------------------------------
# direct verification of concrete k


def _hit_class(coeff: int, target: int, base: int, p: int, order: int) -> int | None:
    """Least a in [0, order) with coeff * base^a ≡ target (mod p), or None."""
    t = target % p
    x = coeff % p
    for a in range(order):
        if x == t:
            return a
        x = x * base % p
    return None


def _period_check(base: int, cases, budget: Budget):
    """Shared core of the period checks.

    Each case (label, coeff, target, primes) asks whether every n >= 0 has
    a prime p in its set with coeff * base^n ≡ target (mod p).  A prime
    dividing coeff hits every n (class 0 mod 1) when it also divides target
    and no n otherwise.  Cases are scanned in order, each over its own
    period (the lcm of its primes' orders), against one cumulative
    certificate of (label, a, order, p) entries.  Returns (failure,
    period, certificate): failure is (label, least uncovered n) for the
    first failing case, else None with period the lcm over all cases.
    A period above PERIOD_CAP is refused with CapacityError.
    """
    orders = {}
    for p in sorted(set().union(*(primes for _, _, _, primes in cases))):
        orders[p] = multiplicative_order(base, p, budget=budget)
    cert = []
    periods = []
    for label, coeff, target, primes in cases:
        L = lcm_all(orders[p] for p in primes)
        if L > PERIOD_CAP:
            raise CapacityError(
                f"scan period {L} exceeds {PERIOD_CAP}; supply per-class certificates "
                f"instead of a whole-period scan"
            )
        periods.append(L)
        classes = []
        for p in primes:
            if coeff % p == 0:
                if target % p:
                    continue
                a, o = 0, 1
            else:
                o = orders[p]
                a = _hit_class(coeff, target, base, p, o)
                if a is None:
                    continue
            classes.append((a, o))
            cert.append((label, a, o, p))
        gap = _first_uncovered(classes, L)
        if gap is not None:
            return (label, gap), L, tuple(cert)
    return None, lcm_all(periods), tuple(cert)


def _verify_pm(k, primes, sign, kind, budget):
    """Shared core of verify_sierpinski / verify_riesel: k*2^n - sign."""
    if k <= 0 or k % 2 == 0:
        raise ValueError(f"k must be a positive odd integer, got {k}")
    primes = sorted(set(primes))
    for p in primes:
        if p == 2:
            raise ValueError("2 cannot divide k*2^n ± 1; use odd primes")
    failure, L, cert = _period_check(2, [(kind, k, sign, primes)], budget)
    if failure is not None:
        gap = failure[1]
        return CheckResult(
            False, witness=gap, period=L, certificate=cert,
            reason=f"n = {gap}: no prime in the set divides k*2^n {'+' if sign < 0 else '-'} 1",
        )
    bound = max(primes) + (0 if sign < 0 else 1) if primes else 0
    if k <= bound:
        return CheckResult(
            False, witness=None, period=L, certificate=cert,
            reason=f"k = {k} does not exceed {bound}; divisibility cannot force compositeness",
        )
    return CheckResult(True, period=L, certificate=cert)


def verify_sierpinski(k: int, primes, budget: Budget = DEFAULT_BUDGET) -> CheckResult:
    """Does every k*2^n + 1 (n >= 0) have a divisor in the prime set?

    Scans one full period L = lcm of the orders of 2; also requires
    k > max(primes) so that divisibility implies compositeness.
    """
    return _verify_pm(k, primes, -1, "sierpinski", budget)


def verify_riesel(k: int, primes, budget: Budget = DEFAULT_BUDGET) -> CheckResult:
    """Mirror of verify_sierpinski for k*2^n - 1 (requires k > max(p) + 1,
    covering the n = 0 boundary case)."""
    return _verify_pm(k, primes, 1, "riesel", budget)


def verify_brier(k: int, primes_s, primes_r, budget: Budget = DEFAULT_BUDGET) -> BrierCheck:
    """k is Brier (relative to the two certificates) iff both checks pass."""
    s = verify_sierpinski(k, primes_s, budget)
    r = verify_riesel(k, primes_r, budget)
    return BrierCheck(s.ok and r.ok, s, r)


def verify_digit_robust(
    k: int,
    primes,
    base: int = 10,
    budget: Budget = DEFAULT_BUDGET,
) -> CheckResult:
    """Does every k + d*base^n (d = ±1..±(base-1), n >= 0) have a divisor
    in the prime set?  Primes dividing the base have no order and are
    rejected outright."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    primes = sorted(set(primes))
    for p in primes:
        if base % p == 0:
            raise ValueError(
                f"{p} divides the base {base}, so base^n is 0 mod {p} and the "
                f"order of {base} mod {p} does not exist; drop it from the set"
            )
    # k + d*base^n ≡ 0 (mod p)  <=>  d*base^n ≡ -k (mod p)
    cases = [(d, d, -k, primes) for d in range(-(base - 1), base) if d != 0]
    failure, L, cert = _period_check(base, cases, budget)
    if failure is not None:
        d, gap = failure
        return CheckResult(
            False, witness=failure, period=L, certificate=cert,
            reason=f"k + ({d})*{base}^{gap} has no divisor in the set",
        )
    return CheckResult(True, period=L, certificate=cert)


def verify_base2_delicate(
    k: int, primes_s, primes_r, budget: Budget = DEFAULT_BUDGET
) -> CheckResult:
    """Every k + 2^n must have a divisor among primes_s and every k - 2^n
    one among primes_r (the plus side inherits from the Sierpinski facts,
    the minus side from the Riesel facts)."""
    if k <= 0 or k % 2 == 0:
        raise ValueError(f"k must be a positive odd integer, got {k}")
    primes_s, primes_r = sorted(set(primes_s)), sorted(set(primes_r))
    if 2 in primes_s or 2 in primes_r:
        raise ValueError("k ± 2^n is odd for n >= 1; use odd primes")
    # k + sign*2^n ≡ 0 (mod p)  <=>  2^n ≡ -sign*k (mod p)
    cases = [(1, 1, -k, primes_s), (-1, 1, k, primes_r)]
    failure, L, cert = _period_check(2, cases, budget)
    if failure is not None:
        sign, gap = failure
        return CheckResult(
            False, witness=failure, period=L, certificate=cert,
            reason=f"k {'+' if sign > 0 else '-'} 2^{gap} has no divisor in the set",
        )
    return CheckResult(True, period=L, certificate=cert)


# ---------------------------------------------------------------------------
# the subprogression shift


@dataclass(frozen=True)
class ShiftResult:
    """Outputs of the subprogression shift.

    A0 = base**(ell*(v+2)) * A and B0 = base**(ell*(v+1)) - base**ell + B
    are astronomically large whenever v = φ(A') is; they materialize on
    demand and value_mod() evaluates A0*m + B0 + d*base^n modulo anything
    without ever forming the integers.
    """

    A: int
    B: int
    base: int
    ell: int
    v: int
    a_primes: tuple[int, ...]

    @property
    def exp_a0(self) -> int:
        return self.ell * (self.v + 2)

    @property
    def exp_b0(self) -> int:
        return self.ell * (self.v + 1)

    def _materialize_guard(self, exponent: int):
        bits = exponent * self.base.bit_length()
        if bits > MATERIALIZE_BITS:
            raise CapacityError(
                f"shifted progression needs ~{bits} bits; use value_mod "
                f"or the exponent fields instead"
            )

    @property
    def A0(self) -> int:
        self._materialize_guard(self.exp_a0)
        return self.base ** self.exp_a0 * self.A

    @property
    def B0(self) -> int:
        self._materialize_guard(self.exp_b0)
        return self.base ** self.exp_b0 - self.base ** self.ell + self.B

    def A0_mod(self, m: int) -> int:
        return pow(self.base, self.exp_a0, m) * self.A % m

    def B0_mod(self, m: int) -> int:
        return (pow(self.base, self.exp_b0, m) - pow(self.base, self.ell, m) + self.B) % m

    def value_mod(self, m: int, d: int, n: int, modulus: int) -> int:
        """(A0*m + B0 + d*base^n) mod modulus."""
        return (
            self.A0_mod(modulus) * m + self.B0_mod(modulus) + d * pow(self.base, n, modulus)
        ) % modulus


def subprogression_shift(
    A: int, B: int, base: int, budget: Budget = DEFAULT_BUDGET
) -> ShiftResult:
    """Shift Am + B to a subprogression A0*m + B0 whose members keep every
    divisibility certificate of the original (B0 ≡ B mod A) while the
    shifted values k + d*base^n are provably never equal to ±p for the
    certificate primes p.

    A' is the largest divisor of A coprime to the base, u the least power
    with A | base^u * A', v = φ(A'), and ell the least exponent >= max(u, 2)
    with base^ell > A + B.
    """
    if A < 1 or B < 1:
        raise ValueError("A and B must be positive")
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if math.gcd(A, B) != 1:
        raise ValueError(f"gcd(A, B) = {math.gcd(A, B)} != 1")
    fb = factor(base, budget)
    if not fb.complete:
        raise CapacityError(f"cannot factor the base {base}")
    for q in fb.primes():
        if A % q != 0:
            raise ValueError(f"prime {q} divides the base but not A")
    a_prime = A
    for q in fb.primes():
        while a_prime % q == 0:
            a_prime //= q
    fa = factor(a_prime, budget) if a_prime > 1 else FactorizationResult(())
    # A must have a prime divisor exceeding the base
    if fa.complete and max(fa.primes(), default=1) <= base:
        raise ValueError(f"A = {A} has no prime divisor > base {base}")
    if not fa.complete:
        raise ValueError(
            f"cannot certify φ: the base-coprime part {a_prime} of A resists "
            f"factorization under the given budget"
        )
    v = 1
    for p, e in fa.factors:
        v *= (p - 1) * p ** (e - 1)
    u = 1
    for q, eb in fb.factors:
        ea = 0
        x = A
        while x % q == 0:
            ea += 1
            x //= q
        u = max(u, -(-ea // eb))
    ell = max(u, 2)
    while base ** ell <= A + B:
        ell += 1
    a_primes = tuple(sorted(set(fa.primes()) | set(fb.primes())))
    result = ShiftResult(A=A, B=B, base=base, ell=ell, v=v, a_primes=a_primes)
    if result.B0_mod(A) != B % A:
        raise AssertionError("B0 is not congruent to B mod A")
    for p in a_primes:
        if result.B0_mod(p) == 0:
            raise AssertionError(f"gcd(A0, B0) > 1 at prime {p}")
    return result

"""Sieved arithmetic progressions: construction and direct verification.

A covering of the integers by classes n ≡ a (mod b), with each class bound
to a prime p of order b base 2, pins B modulo each prime so that every
k = Am + B makes k*2^n + 1 (or k*2^n - 1) divisible by one of the primes.
This module builds such progressions from assignments, combines compatible
ones into dual-sieve (Brier) progressions, and independently verifies the
divisibility properties for concrete k, each prime hitting one class of n
modulo its order, on the residue tree of verify_partitioned under its
WORK_CAP.  Shifted integers above the fixed MATERIALIZE_BITS are refused
with CapacityError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .covering import CoveringSystem, ResidueClass, _least_gap, _Work, verify_partitioned
from .modarith import (
    CapacityError,
    Congruence,
    FactorizationResult,
    IncompatibleCongruencesError,
    crt_combine,
    factor,
    is_probable_prime,
    multiplicative_order,
    verify_order,
)

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


def _check_assignments(assignments):
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
        if not verify_order(2, p, asg.cls.b):
            raise ValueError(
                f"ord_{p}(2) != {asg.cls.b}; {p} cannot serve class {asg.cls}"
            )


def _build(assignments, kind: str, require_covering: bool):
    assignments = list(assignments)
    if not assignments:
        raise ValueError("no assignments given")
    _check_assignments(assignments)
    classes = tuple(a.cls for a in assignments)
    if require_covering:
        verdict = verify_partitioned(CoveringSystem(classes))
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


def build_sierpinski(assignments, require_covering: bool = True) -> SievedProgression:
    """Progression of Sierpinski candidates: B ≡ -2^(-a) (mod p) per class,
    B odd, A = 2 * product of the primes.  With require_covering=False the
    covering check is skipped (diagnostic mode for partial assignments)."""
    return _build(assignments, "sierpinski", require_covering)


def build_riesel(assignments, require_covering: bool = True) -> SievedProgression:
    """Mirror of build_sierpinski with B ≡ +2^(-a) (mod p)."""
    return _build(assignments, "riesel", require_covering)


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


def _discrete_logs(base: int, p: int, order: int, residues) -> dict[int, int]:
    """r -> least a in [0, order) with base^a ≡ r (mod p), for each r of
    residues that is a power of base modulo the prime p.  A residue r is
    one iff r^order ≡ 1, so the others are dropped up front and one walk
    over the powers of base stops once it has met every residue left."""
    left = {r for r in residues if pow(r, order, p) == 1}
    logs = {}
    x = 1
    for a in range(order):
        if not left:
            break
        if x in left:
            left.remove(x)
            logs[x] = a
        x = x * base % p
    return logs


def _period_check(base: int, cases, orders: dict[int, int] | None = None):
    """Shared core of the period checks.

    Each case (label, coeff, target, primes) asks whether every n >= 0 has
    a prime p in its set with coeff * base^n ≡ target (mod p).  A prime
    dividing coeff hits every n (class 0 mod 1) when it also divides target
    and no n otherwise; any other prime hits n ≡ a (mod ord_p(base)), a the
    discrete log of target/coeff, found by one walk per prime for all the
    cases at once, made when the first case to hold the prime reaches it.
    Cases are checked in order, each by the residue tree (_least_gap) over
    its hit classes, against one cumulative certificate of (label, a,
    order, p) entries.  Returns (failure, period, certificate): failure is
    (label, least uncovered n) for the first failing case, with period the
    lcm of its primes' orders, else None with period the lcm over all
    cases.  One _Work bounds the call's trees and walks by WORK_CAP, each
    walk charged one class entry per step of ord_p before the case's first.

    orders maps primes to their orders of base.  The primes it lacks are
    computed in increasing order and added to it, so checks that share one
    dict compute each order once.
    """
    orders = {} if orders is None else orders
    for p in sorted(set().union(*(primes for _, _, _, primes in cases))):
        if p not in orders:
            orders[p] = multiplicative_order(base, p)
    # per case, the residue target/coeff (mod p) that base^n must hit
    wanted = [
        {p: target * pow(coeff, -1, p) % p for p in primes if coeff % p}
        for _, coeff, target, primes in cases
    ]
    residues = {}
    for want in wanted:
        for p, r in want.items():
            residues.setdefault(p, set()).add(r)
    # the hit classes' moduli are these orders, or 1
    work = _Work([(0, orders[p]) for p in residues])
    logs = {}
    cert = []
    periods = []
    for (label, _, target, primes), want in zip(cases, wanted):
        periods.append(math.lcm(*(orders[p] for p in primes)))
        # a walk takes up to ord_p steps, each cheaper than a class entry,
        # so the charge bounds it before it starts
        work.charge(entries=sum(orders[p] for p in want if p not in logs))
        classes = []
        for p in primes:
            if p in want:
                if p not in logs:
                    logs[p] = _discrete_logs(base, p, orders[p], residues[p])
                a, o = logs[p].get(want[p]), orders[p]
                if a is None:
                    continue
            elif target % p:
                continue
            else:
                a, o = 0, 1
            classes.append((a, o))
            cert.append((label, a, o, p))
        gap = _least_gap(classes, 1, work)
        if gap is not None:
            return (label, gap), periods[-1], tuple(cert)
    return None, math.lcm(*periods), tuple(cert)


def _verify_pm(k, primes, sign, kind, orders=None):
    """Shared core of verify_sierpinski / verify_riesel: k*2^n - sign.
    orders is passed on to _period_check."""
    if k <= 0 or k % 2 == 0:
        raise ValueError(f"k must be a positive odd integer, got {k}")
    primes = sorted(set(primes))
    for p in primes:
        if p == 2:
            raise ValueError("2 cannot divide k*2^n ± 1; use odd primes")
    failure, L, cert = _period_check(2, [(kind, k, sign, primes)], orders)
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


def verify_sierpinski(k: int, primes) -> CheckResult:
    """Does every k*2^n + 1 (n >= 0) have a divisor in the prime set?

    Scans one full period L = lcm of the orders of 2; also requires
    k > max(primes) so that divisibility implies compositeness.
    """
    return _verify_pm(k, primes, -1, "sierpinski")


def verify_riesel(k: int, primes) -> CheckResult:
    """Mirror of verify_sierpinski for k*2^n - 1 (requires k > max(p) + 1,
    covering the n = 0 boundary case)."""
    return _verify_pm(k, primes, 1, "riesel")


def verify_brier(k: int, primes_s, primes_r) -> BrierCheck:
    """k is Brier (relative to the two certificates) iff both checks pass.
    The order of each prime is computed once, whichever sets hold it."""
    orders = {}
    s = _verify_pm(k, primes_s, -1, "sierpinski", orders)
    r = _verify_pm(k, primes_r, 1, "riesel", orders)
    return BrierCheck(s.ok and r.ok, s, r)


def verify_digit_robust(k: int, primes, base: int = 10) -> CheckResult:
    """Does every k + d*base^n (d = ±1..±(base-1), n >= 0) have a divisor
    in the prime set?  Primes dividing the base have no order and are
    rejected outright.  Each of the 2(base-1) cases is charged to WORK_CAP
    as a tree node, and each residue it computes as a class entry, before
    any case is built: a base whose cases alone pass the bound, about
    50,000 or more, is refused with CapacityError."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    primes = sorted(set(primes))
    for p in primes:
        if p > 1 and base % p == 0:
            raise ValueError(
                f"{p} divides the base {base}, so base^n is 0 mod {p} and the "
                f"order of {base} mod {p} does not exist; drop it from the set"
            )
    # each of the 2(base-1) cases is the root of its own tree and computes one
    # residue per prime: a node per case and an entry per residue, so that a
    # base whose cases alone pass WORK_CAP is refused before any is built
    _Work([]).charge(nodes=2 * (base - 1), entries=2 * (base - 1) * len(primes))
    # k + d*base^n ≡ 0 (mod p)  <=>  d*base^n ≡ -k (mod p)
    cases =[(d, d, -k, primes) for d in range(-(base - 1), base) if d != 0]
    failure, L, cert = _period_check(base, cases)
    if failure is not None:
        d, gap = failure
        return CheckResult(
            False, witness=failure, period=L, certificate=cert,
            reason=f"k + ({d})*{base}^{gap} has no divisor in the set",
        )
    return CheckResult(True, period=L, certificate=cert)


def verify_base2_delicate(k: int, primes_s, primes_r) -> CheckResult:
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
    failure, L, cert = _period_check(2, cases)
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


def subprogression_shift(A: int, B: int, base: int) -> ShiftResult:
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
    fb = factor(base)
    if not fb.complete:
        raise CapacityError(f"cannot factor the base {base}")
    for q in fb.primes():
        if A % q != 0:
            raise ValueError(f"prime {q} divides the base but not A")
    a_prime = A
    for q in fb.primes():
        while a_prime % q == 0:
            a_prime //= q
    fa = factor(a_prime) if a_prime > 1 else FactorizationResult(())
    # A must have a prime divisor exceeding the base
    if fa.complete and max(fa.primes(), default=1) <= base:
        raise ValueError(f"A = {A} has no prime divisor > base {base}")
    if not fa.complete:
        raise ValueError(
            f"cannot certify φ: the base-coprime part {a_prime} of A resists "
            f"factorization under the factoring budget"
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

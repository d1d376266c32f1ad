"""Sieved arithmetic progressions: construction and direct verification.

A covering of the integers by classes n ≡ a (mod b), with each class bound
to a prime p of order b base 2, pins B modulo each prime so that every
k = Am + B makes k*2^n + 1 (or k*2^n - 1) divisible by one of the primes.
This module builds such progressions from assignments, combines compatible
ones into dual-sieve (Brier) progressions, and independently verifies the
divisibility properties for concrete k, each prime hitting one class of n
modulo its order, found by one walk over the powers of the base, on the
residue tree of verify_partitioned under its WORK_CAP.  Shifted integers
above the fixed MATERIALIZE_BITS are refused with CapacityError.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from .covering import CoveringSystem, _least_gap, _Work, verify_partitioned
from .modarith import (
    CapacityError,
    ResidueClass,
    _shown,
    crt_combine,
    factor_whole,
    is_probable_prime,
    verify_order,
)

MATERIALIZE_BITS = 5_000_000


class PrimeAssignment(namedtuple("PrimeAssignment", "cls prime")):
    """One covering class bound to a prime of matching order base 2, or None."""

    __slots__ = ()


class SievedProgression(namedtuple("SievedProgression", "A B kind primes certificate")):
    """Am + B with a divisibility certificate.

    certificate entries are (kind, a, b, p): for kind 'sierpinski',
    B*2^a + 1 ≡ 0 (mod p); for 'riesel', B*2^a - 1 ≡ 0 (mod p), so the
    corresponding k*2^n ∓/± 1 is divisible by p whenever n ≡ a (mod b).
    """

    __slots__ = ()


class CheckResult(namedtuple("CheckResult", "ok witness period certificate reason",
                             defaults=(None, 0, (), ""))):
    """Outcome of a period check."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok


class BrierCheck(namedtuple("BrierCheck", "ok sierpinski riesel")):
    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok


# the primes of a kind's certificate divide k*2^n - _SIGN[kind] on their classes
_SIGN = {"sierpinski": -1, "riesel": 1}


def _assemble(A, B, kind, primes, certificate) -> SievedProgression:
    """Am + B, after re-checking that gcd(A, B) = 1 and that B satisfies
    every (kind, a, b, p) entry of the certificate."""
    if math.gcd(A, B) != 1:
        raise AssertionError(f"{kind} progression has gcd(A, B) != 1")
    for entry_kind, a, _, p in certificate:
        if (B * pow(2, a, p) - _SIGN[entry_kind]) % p != 0:
            raise AssertionError(f"certificate check failed at prime {p}")
    return SievedProgression(A, B, kind, frozenset(primes), tuple(certificate))


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
    if require_covering:
        verdict = verify_partitioned(CoveringSystem(tuple(a.cls for a in assignments)))
        if not verdict.covered:
            raise ValueError(
                f"assignment classes do not cover the integers "
                f"(witness {verdict.witness})"
            )
    cert = [(kind, asg.cls.a, asg.cls.b, asg.prime) for asg in assignments]
    primes = [p for *_, p in cert]
    combined = crt_combine(
        [ResidueClass(1, 2)] + [ResidueClass(_SIGN[kind] * pow(2, -a, p), p) for _, a, _, p in cert]
    )
    A = 2 * math.prod(primes)
    if combined.b != A:
        raise AssertionError("CRT modulus does not match 2 * product of primes")
    return _assemble(A, combined.a, kind, {2, *primes}, cert)


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
    already agree; a disagreement raises IncompatibleCongruencesError, whose
    .prime names the prime."""
    parts = list(parts)
    if not parts:
        raise ValueError("no parts to combine")
    combined = crt_combine([ResidueClass(p.B, p.A) for p in parts])
    return _assemble(combined.b, combined.a, "brier",
                     frozenset().union(*(p.primes for p in parts)),
                     [entry for part in parts for entry in part.certificate])


# ---------------------------------------------------------------------------
# direct verification of concrete k


def _walk(base: int, p: int, residues, work: _Work) -> tuple[int, dict[int, int]]:
    """(ord_p(base), logs): one walk x -> x*base (mod p) from 1 back to 1,
    its step count the order, logs mapping each r of residues that it meets
    to the least a with base^a ≡ r.  Each step is charged to work as one
    class entry, 64 at a time, so a walk past WORK_CAP stops there."""
    logs, x = {}, 1
    for start in itertools.count(0, 64):
        for n in range(start, start + 64):
            if x in residues:
                logs[x] = n
            x = x * base % p
            if x == 1:
                work.charge(entries=n + 1 - start)
                return n + 1, logs
        work.charge(entries=64)


def _period_check(base: int, cases, failure) -> CheckResult:
    """Shared core of the period checks.

    Each case (label, coeff, target, primes) asks whether every n >= 0 has
    a prime p in its set with coeff * base^n ≡ target (mod p).  A prime
    dividing coeff hits every n (class 0 mod 1) when it also divides target
    and no n otherwise; any other prime hits n ≡ a (mod ord_p(base)), a the
    discrete log of target/coeff.  Each prime's order and logs for all the
    cases come from one _walk, made when the first case that holds the
    prime is checked; that case walks all its primes, as its period is the
    lcm of their orders.  Cases are checked in order, each by the residue
    tree (_least_gap) over its hit classes, against one cumulative
    certificate of (label, a, order, p) entries.  At the first failing
    case, failure(label, least uncovered n) gives the (witness, reason) of
    the failed CheckResult, whose period is the lcm of that case's primes'
    orders; if every case passes, the period is the lcm over all cases.
    One _Work bounds the call's walks and trees by WORK_CAP.  Every prime
    is tested for primality up front.
    """
    for p in sorted(set().union(*(primes for *_, primes in cases))):
        if not is_probable_prime(p):
            raise ValueError(f"{p} is not prime")
    # per case, the residue target/coeff (mod p) that base^n must hit
    wanted = [
        {p: target * pow(coeff, -1, p) % p for p in primes if coeff % p}
        for _, coeff, target, primes in cases
    ]
    work = _Work()
    walks = {}
    cert = []
    periods = []
    for (label, _, target, primes), want in zip(cases, wanted):
        for p in primes:
            if p not in walks:
                walks[p] = _walk(base, p, {w[p] for w in wanted if p in w}, work)
        periods.append(math.lcm(*(walks[p][0] for p in primes)))
        classes = []
        for p in primes:
            if p in want:
                o, logs = walks[p]
                a = logs.get(want[p])
                if a is None:
                    continue
            elif target % p:
                continue
            else:
                a, o = 0, 1
            classes.append((a, o))
            cert.append((label, a, o, p))
        gap = _least_gap(classes, work)
        if gap is not None:
            witness, reason = failure(label, gap)
            return CheckResult(False, witness, periods[-1], tuple(cert), reason)
    return CheckResult(True, period=math.lcm(*periods), certificate=tuple(cert))


def _verify_pm(k, primes, kind):
    """Shared core of verify_sierpinski / verify_riesel: one _period_check
    case, k*2^n - _SIGN[kind] for n >= 0."""
    sign = _SIGN[kind]
    if k <= 0 or k % 2 == 0:
        raise ValueError(f"k must be a positive odd integer, got {k}")
    primes = sorted(set(primes))
    if 2 in primes:
        raise ValueError("2 cannot divide k*2^n ± 1; use odd primes")
    res = _period_check(2, [(kind, k, sign, primes)], lambda _, n: (
        n, f"n = {n}: no prime in the set divides k*2^n {'+' if sign < 0 else '-'} 1"))
    bound = max(primes) + (0 if sign < 0 else 1) if primes else 0
    if res.ok and k <= bound:
        return res._replace(ok=False, reason=f"k = {k} does not exceed {bound}; "
                                              "divisibility cannot force compositeness")
    return res


def verify_sierpinski(k: int, primes) -> CheckResult:
    """Does every k*2^n + 1 (n >= 0) have a divisor in the prime set?

    Each prime p hits one class of n modulo ord_p(2), and the residue tree
    checks that these classes cover every n, scanning only its leaves; also
    requires k > max(primes) so that divisibility implies compositeness.
    """
    return _verify_pm(k, primes, "sierpinski")


def verify_riesel(k: int, primes) -> CheckResult:
    """Mirror of verify_sierpinski for k*2^n - 1 (requires k > max(p) + 1,
    covering the n = 0 boundary case)."""
    return _verify_pm(k, primes, "riesel")


def verify_brier(k: int, primes_s, primes_r) -> BrierCheck:
    """k is Brier (relative to the two certificates) iff both checks pass;
    each check walks its own primes."""
    s = _verify_pm(k, primes_s, "sierpinski")
    r = _verify_pm(k, primes_r, "riesel")
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
    _Work().charge(nodes=2 * (base - 1), entries=2 * (base - 1) * len(primes))
    # k + d*base^n ≡ 0 (mod p)  <=>  d*base^n ≡ -k (mod p)
    cases = [(d, d, -k, primes) for d in range(-(base - 1), base) if d != 0]
    return _period_check(base, cases, lambda d, n: (
        (d, n), f"k + ({d})*{base}^{n} has no divisor in the set"))


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
    return _period_check(2, cases, lambda sign, n: (
        (sign, n), f"k {'+' if sign > 0 else '-'} 2^{n} has no divisor in the set"))


# ---------------------------------------------------------------------------
# the subprogression shift


class ShiftResult(namedtuple("ShiftResult", "A B base ell v a_primes")):
    """Outputs of the subprogression shift.

    A0 = base**(ell*(v+2)) * A and B0 = base**(ell*(v+1)) - base**ell + B
    are astronomically large whenever v = φ(A') is; they materialize on
    demand and value_mod() evaluates A0*m + B0 + d*base^n modulo anything
    without ever forming the integers.
    """

    __slots__ = ()

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
    fb = factor_whole(base, lambda: f"the base {_shown(base)}")
    a_prime, u = A, 1
    for q, eb in fb.factors:
        ea = 0
        while a_prime % q == 0:
            a_prime //= q
            ea += 1
        if ea == 0:
            raise ValueError(f"prime {q} divides the base but not A")
        u = max(u, -(-ea // eb))
    fa = factor_whole(a_prime, lambda: f"the base-coprime part {_shown(a_prime)} of A")
    # A must have a prime divisor exceeding the base
    if max(fa.primes(), default=1) <= base:
        raise ValueError(f"A = {A} has no prime divisor > base {base}")
    v = 1
    for p, e in fa.factors:
        v *= (p - 1) * p ** (e - 1)
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

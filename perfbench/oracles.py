"""Independent checks of coversieve's answers.

Nothing here imports coversieve or calls its verifiers: every verdict the
benchmark accepts is re-derived from first principles (direct membership,
direct scans, ``pow``, the harness's own Miller-Rabin and its own Mobius
product).  A check that disagrees raises ``Rejected``; the benchmark counts
that operation as failed.
"""

from __future__ import annotations

import math
import random


class Rejected(Exception):
    """An output of the program that the oracle does not accept."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise Rejected(message)


# ---------------------------------------------------------------------------
# primes, factors and orders

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The first 13 prime bases prove primality below this bound (Sorenson-Webster).
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int, rounds: int = 24) -> bool:
    """Miller-Rabin: deterministic below 3.3e24, else `rounds` bases drawn
    from a generator seeded by n (so the answer is reproducible)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < _MR_BOUND:
        bases = _MR_BASES
    else:
        rng = random.Random(n)
        bases = [rng.randrange(2, n - 1) for _ in range(rounds)]
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Trial division, stopping early once the remainder is prime.  Meant for
    the small or smooth numbers the benchmark feeds it (moduli, p - 1)."""
    out: dict[int, int] = {}
    d, tested = 2, False
    while n > 1:
        if d * d > n or (d > 1000 and not tested and is_prime(n)):
            out[n] = out.get(n, 0) + 1
            break
        tested = d > 1000
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
            tested = False
        d += 1 if d == 2 else 2
    return out


def order(g: int, p: int) -> int:
    """Multiplicative order of g modulo the prime p."""
    e = p - 1
    for q in factorize(p - 1):
        while e % q == 0 and pow(g, e // q, p) == 1:
            e //= q
    return e


def has_order(g: int, p: int, e: int) -> bool:
    """g^e = 1 and g^(e/q) != 1 for every prime q | e."""
    return e >= 1 and pow(g, e, p) == 1 and all(
        pow(g, e // q, p) != 1 for q in factorize(e)
    )


def cyclotomic_at(b: int, x: int = 2) -> int:
    """Phi_b(x) by the Mobius product over the squarefree divisors of b."""
    num = den = 1
    divisors = [(1, 1)]
    for q in factorize(b):
        divisors += [(d * q, -mu) for d, mu in divisors]
    for d, mu in divisors:
        term = x ** (b // d) - 1
        if mu == 1:
            num *= term
        else:
            den *= term
    value, rem = divmod(num, den)
    require(rem == 0, f"Mobius product for Phi_{b} is not exact")
    return value


def check_factorization(n: int, factors, cofactor: int, complete: bool) -> None:
    """factors = ((p, e), ...): each p prime, the product with the cofactor
    equals n, and a leftover cofactor is composite."""
    prod = cofactor
    for p, e in factors:
        require(is_prime(p), f"listed factor {p} of {n} is not prime")
        prod *= p ** e
    require(prod == n, f"factors of {n} multiply to {prod}")
    require(complete == (cofactor == 1), "complete flag disagrees with the cofactor")
    require(cofactor == 1 or not is_prime(cofactor), f"cofactor {cofactor} is prime")


def check_primes_of_order(b: int, base: int, primes, complete: bool, cofactor: int) -> None:
    """Each listed prime has order exactly b, and the listed primes, the
    primes dividing b and the cofactor account exactly for Phi_b(base)."""
    require(list(primes) == sorted(set(primes)), "primes are not sorted and distinct")
    rest = cyclotomic_at(b, base)
    for q in factorize(b):
        while rest % q == 0:
            rest //= q
    for p in primes:
        require(is_prime(p), f"{p} is not prime")
        require(has_order(base, p, b), f"ord_{p}({base}) != {b}")
        require(rest % p == 0, f"{p} does not divide Phi_{b}({base})")
        while rest % p == 0:
            rest //= p
    require(rest == cofactor, f"Phi_{b}({base}) leaves {rest}, program says {cofactor}")
    require(complete == (rest == 1), "complete flag disagrees with the cofactor")
    require(rest == 1 or not is_prime(rest), f"cofactor of Phi_{b} is prime")


# ---------------------------------------------------------------------------
# coverings; classes are (a, b) pairs meaning a (mod b), over all integers


def in_some_class(n: int, classes) -> bool:
    return any(n % b == a % b for a, b in classes)


def least_uncovered(classes, limit: int) -> int | None:
    """Least n in [0, limit) in no class, by marking each class directly."""
    mask = bytearray(limit)
    for a, b in classes:
        start = a % b
        mask[start::b] = b"\x01" * len(range(start, limit, b))
    gap = mask.find(0)
    return None if gap < 0 else gap


def covering_answer(classes) -> int | None:
    """None if the classes cover the integers, else the least uncovered n."""
    return least_uncovered(classes, math.lcm(*(b for _, b in classes)))


def check_verdict(classes, covered: bool, witness, expected: int | None) -> None:
    """A verdict against the harness's own answer.  An uncovered verdict's
    witness must also lie in no class, checked by direct membership."""
    require(covered == (expected is None), f"covered={covered}, oracle says {expected}")
    if not covered:
        require(witness == expected, f"witness {witness}, least uncovered is {expected}")
        require(not in_some_class(witness, classes), f"witness {witness} lies in a class")


def dropped_class_witness(classes, index: int, steps: int) -> int | None:
    """Least integer that only classes[index] covers, searching the first
    `steps` members of that class.  Valid when `classes` covers the
    integers: then every integer outside classes[index] stays covered, so
    the least gap of the system without that class lies in it."""
    a, b = classes[index]
    mask = bytearray(steps)
    for j, (a2, b2) in enumerate(classes):
        if j == index:
            continue
        g = math.gcd(b, b2)
        if (a2 - a) % g:
            continue
        m = b2 // g
        t0 = (a2 - a) // g * pow(b // g, -1, m) % m if m > 1 else 0
        mask[t0::m] = b"\x01" * len(range(t0, steps, m))
    t = mask.find(0)
    return None if t < 0 else a % b + b * t


# ---------------------------------------------------------------------------
# progressions: k*2^n + sign, k + d*base^n


def _period(primes, base: int) -> tuple[dict[int, int], int]:
    orders = {p: order(base, p) for p in primes}
    return orders, math.lcm(1, *orders.values())


def _first_gap(period: int, divisible) -> int | None:
    return next((n for n in range(period) if not divisible(n)), None)


def _check_certificate_cover(period: int, entries, where: str) -> None:
    gap = _first_gap(period, lambda n: any(n % o == a % o for a, o in entries))
    require(gap is None, f"{where}: certificate leaves n = {gap} uncovered")


def check_pm(k: int, primes, sign: int, kind: str, result) -> None:
    """verify_sierpinski (sign +1: k*2^n + 1) or verify_riesel (sign -1).

    Failing k: the witness is the least n in the period with no prime
    dividing k*2^n + sign, found by direct evaluation.  Passing k: every
    certificate entry is re-checked with pow and the entries cover the
    period."""
    primes = sorted(set(primes))
    orders, period = _period(primes, 2)
    residues = {p: k % p for p in primes}
    gap = _first_gap(
        period,
        lambda n: any((residues[p] * pow(2, n, p) + sign) % p == 0 for p in primes),
    )
    bound = max(primes, default=0) + (0 if sign > 0 else 1)
    require(result.ok == (gap is None and k > bound), f"{kind} ok={result.ok} for k={k}")
    require(result.period == period, f"period {result.period}, oracle says {period}")
    if gap is not None:
        require(result.witness == gap, f"witness {result.witness}, oracle says n = {gap}")
    if result.ok:
        for ckind, a, o, p in result.certificate:
            require(ckind == kind and o == orders[p], f"bad certificate entry {(ckind, a, o, p)}")
            require((k * pow(2, a, p) + sign) % p == 0, f"{p} does not divide k*2^{a}{sign:+d}")
        _check_certificate_cover(period, [(a, o) for _, a, o, _ in result.certificate], kind)


def check_digit_robust(k: int, primes, base: int, result) -> None:
    """Every k + d*base^n (0 < |d| < base) has a divisor in the set."""
    primes = sorted(set(primes))
    orders, period = _period(primes, base)
    first_fail = None
    for d in (d for d in range(-(base - 1), base) if d):
        gap = _first_gap(
            period, lambda n: any((k + d * pow(base, n, p)) % p == 0 for p in primes)
        )
        if gap is not None:
            first_fail = (d, gap)
            break
    require(result.ok == (first_fail is None), f"digit ok={result.ok}, oracle {first_fail}")
    require(result.period == period, f"period {result.period}, oracle says {period}")
    if first_fail is not None:
        require(result.witness == first_fail, f"witness {result.witness}, oracle {first_fail}")
        return
    by_delta: dict[int, list] = {}
    for d, a, o, p in result.certificate:
        if d % p == 0:
            # p | d*base^n for every n, so p must divide k itself
            require(o == 1 and k % p == 0, f"entry {(d, a, o, p)} is not a fixed divisor")
        else:
            require(o == orders[p], f"entry {(d, a, o, p)} has the wrong order")
            require((k + d * pow(base, a, p)) % p == 0, f"{p} does not divide k + {d}*{base}^{a}")
        by_delta.setdefault(d, []).append((a, o))
    for d in (d for d in range(-(base - 1), base) if d):
        _check_certificate_cover(period, by_delta.get(d, []), f"delta {d}")


def check_base2_delicate(k: int, primes_s, primes_r, result) -> None:
    """Every k + 2^n has a divisor in primes_s and every k - 2^n one in
    primes_r."""
    first_fail = None
    for sign, primes in ((1, sorted(set(primes_s))), (-1, sorted(set(primes_r)))):
        _, period = _period(primes, 2)
        gap = _first_gap(
            period, lambda n: any((k + sign * pow(2, n, p)) % p == 0 for p in primes)
        )
        if gap is not None:
            first_fail = (sign, gap)
            break
    require(result.ok == (first_fail is None), f"base2 ok={result.ok}, oracle {first_fail}")
    if first_fail is not None:
        require(result.witness == first_fail, f"witness {result.witness}, oracle {first_fail}")
        return
    for sign, a, o, p in result.certificate:
        require((k + sign * pow(2, a, p)) % p == 0, f"{p} does not divide k {sign:+d}*2^{a}")


def check_progression(prog, kind: str, rows, require_covering: bool = True) -> None:
    """A built progression A*m + B: A = 2 * product of the primes, B odd and
    coprime to A, each certificate entry re-checked with pow, and (for a
    full build) the classes cover the integers.  rows = ((a, b, p), ...)."""
    sign = 1 if kind == "sierpinski" else -1
    primes = [p for _, _, p in rows]
    require(prog.kind == kind, f"kind {prog.kind}")
    require(prog.A == 2 * math.prod(primes), "A is not 2 * product of the primes")
    require(0 <= prog.B < prog.A and prog.B % 2 == 1, "B is not an odd residue mod A")
    require(math.gcd(prog.A, prog.B) == 1, "gcd(A, B) != 1")
    require(prog.primes == frozenset({2, *primes}), "prime set differs")
    require(sorted(prog.certificate) == sorted((kind, a, b, p) for a, b, p in rows),
            "certificate does not list the assignment")
    for a, b, p in rows:
        require(has_order(2, p, b), f"ord_{p}(2) != {b}")
        require((prog.B * pow(2, a, p) + sign) % p == 0, f"{p} does not divide B*2^{a}{sign:+d}")
    if require_covering:
        require(covering_answer([(a, b) for a, b, _ in rows]) is None,
                "assignment classes do not cover the integers")


def check_combined(prog, parts) -> None:
    """A combined (Brier) progression satisfies every part's certificate and
    lies inside every part's progression."""
    require(prog.kind == "brier", f"kind {prog.kind}")
    require(prog.A == math.lcm(*(p.A for p in parts)), "A is not the lcm of the parts")
    require(math.gcd(prog.A, prog.B) == 1, "gcd(A, B) != 1")
    for part in parts:
        require(prog.B % part.A == part.B % part.A, "B leaves a part's progression")
        for kind, a, b, p in part.certificate:
            sign = 1 if kind == "sierpinski" else -1
            require((prog.B * pow(2, a, p) + sign) % p == 0, f"combined B fails at {p}")


# ---------------------------------------------------------------------------
# command-line output


def parse_kv(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        require(bool(sep), f"not a key=value line: {line!r}")
        out[key] = value
    return out


def check_cli(result, code: int, expected: bytes | None = None, fields=None) -> None:
    """result = (exit code, stdout bytes): the exit code, then either the
    exact stdout bytes or the listed kv fields."""
    got_code, out = result
    require(got_code == code, f"exit code {got_code}, expected {code}")
    if expected is not None:
        require(out == expected, f"kv bytes differ from the expected file: {out!r}")
    if fields:
        kv = parse_kv(out.decode())
        for key, value in fields.items():
            require(kv.get(key) == str(value), f"{key}={kv.get(key)}, expected {value}")

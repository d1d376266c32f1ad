"""Residue classes and covering systems, with two independent verifiers.

verify_naive scans every member of the target below the lcm of the moduli;
verify_partitioned splits the integers into residue slices mod w and checks
each slice against the subsystem that can intersect it, which is what makes
the 447- and 459-class systems tractable.  Both must always agree.

verify_partitioned walks a residue tree (after Nielsen, J. Number Theory
129, 2009) whose root split is by w and whose splits below are by primes,
each the one that divides the most of a node's moduli.  Every split
rewrites a class (a, b) once, by g = gcd(b, m) for a split by m, into the
children it meets; a child that some class contains whole is not built, a
node above the least gap found so far is dropped, and a node whose period
fits one _CHUNK is scanned.  The one scan kernel, shared with the period
checks, marks classes into chunked bytearrays in strides, on long scans
over copies of a pattern of the smallest moduli; witnesses (least
uncovered member) come out identical to the literal scan.

Every size bound is a module constant, the same for every call: NAIVE_CAP
on the naive lcm and WORK_CAP on the work of one verify_partitioned call,
counted in tree nodes, the root's children included, plus one per 64
class entries written into children and one per 2^16 residues scanned;
work beyond them raises CapacityError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .modarith import CapacityError, factor, lcm_all

NAIVE_CAP = 10 ** 8  # longest lcm verify_naive scans
WORK_CAP = 10 ** 5  # most work units one verify_partitioned call spends (~2 s)
_CHUNK = 1 << 20
_TILE = 1 << 16  # longest pattern of small moduli marked once and repeated
_SLICES = 1 << 12  # children whose classes are collected at a time


@dataclass(frozen=True, order=True)
class ResidueClass:
    """The congruence class a (mod b); a is normalized into [0, b)."""

    a: int
    b: int

    def __post_init__(self):
        if self.b < 1:
            raise ValueError(f"modulus must be >= 1, got {self.b}")
        object.__setattr__(self, "a", self.a % self.b)

    def contains(self, n: int) -> bool:
        return n % self.b == self.a

    def __str__(self):
        return f"{self.a} (mod {self.b})"


ALL_INTEGERS = ResidueClass(0, 1)


@dataclass(frozen=True)
class CoveringSystem:
    """An ordered list of residue classes, optionally restricted to a target
    class (default: all integers).  Classes incompatible with the target are
    rejected on construction."""

    classes: tuple[ResidueClass, ...]
    target: ResidueClass = ALL_INTEGERS

    def __post_init__(self):
        if not self.classes:
            raise ValueError("a covering system needs at least one class")
        object.__setattr__(self, "classes", tuple(self.classes))
        t = self.target
        if t != ALL_INTEGERS:
            for cls in self.classes:
                g = math.gcd(cls.b, t.b)
                if cls.a % g != t.a % g:
                    raise ValueError(
                        f"class {cls} cannot intersect target {t}"
                    )

    def moduli(self) -> list[int]:
        return [c.b for c in self.classes]


@dataclass(frozen=True)
class Verdict:
    """covered, plus the smallest uncovered member of the target found."""

    covered: bool
    witness: int | None = None


def lcm_of_moduli(system: CoveringSystem) -> int:
    return lcm_all(system.moduli())


def satisfying_class(system: CoveringSystem, n: int) -> ResidueClass | None:
    """First class in list order containing n, or None."""
    for cls in system.classes:
        if cls.contains(n):
            return cls
    return None


def _offset_form(system: CoveringSystem) -> tuple[list[tuple[int, int]], int, int]:
    """Rewrite a target-restricted system over the target's own coordinates.

    Members of target t (mod M) are x = t + M*y; each class maps to a class
    in y.  Returns (classes as (a', b') pairs, M, t); witnesses map back as
    x = t + M*y.
    """
    t, M = system.target.a, system.target.b
    out = []
    for cls in system.classes:
        g = math.gcd(M, cls.b)
        bp = cls.b // g
        if bp == 1:
            out.append((0, 1))
            continue
        ap = (cls.a - t) // g * pow(M // g, -1, bp) % bp
        out.append((ap, bp))
    return out, M, t


def _first_uncovered(classes: list[tuple[int, int]], count: int) -> int | None:
    """Least t in [0, count) lying in no class, by chunked marking.

    Above _TILE residues, the classes with the smallest moduli, while their
    lcm P stays within _TILE, are marked once into a P-byte pattern; each
    chunk (a multiple of P long) starts as copies of it, and only the other
    classes are marked in strides."""
    period, pattern = 1, bytearray(1)
    if count > _TILE:
        classes = sorted(classes, key=lambda c: c[1])
        bound, tiled = min(_TILE, _CHUNK), 0
        for _, b in classes:
            if (lcm := math.lcm(period, b)) > bound:
                break
            period, tiled = lcm, tiled + 1
        pattern = _mark(bytearray(period), 0, classes[:tiled])
        classes = classes[tiled:]
    step = _CHUNK // period * period
    for lo in range(0, count, step):
        size = min(step, count - lo)
        mask = _mark(pattern * -(-size // period), lo, classes)
        gap = mask.find(0, 0, size)
        if gap >= 0:
            return lo + gap
    return None


def _mark(mask: bytearray, lo: int, classes) -> bytearray:
    """Set mask[i] for every lo + i in a class; returns mask."""
    size = len(mask)
    for a, b in classes:
        start = (a - lo) % b
        if start < size:
            mask[start::b] = b"\x01" * ((size - start + b - 1) // b)
    return mask


def verify_naive(system: CoveringSystem) -> Verdict:
    """Check every member of the target in [0, lcm) directly; lcms above
    NAIVE_CAP are refused."""
    classes, M, t = _offset_form(system)
    ell = lcm_all(b for _, b in classes)
    if ell > NAIVE_CAP:
        raise CapacityError(
            f"lcm of moduli is {ell} > cap {NAIVE_CAP}; use verify_partitioned"
        )
    gap = _first_uncovered(classes, ell)
    if gap is None:
        return Verdict(True)
    return Verdict(False, t + M * gap)


def auto_w(system: CoveringSystem) -> int:
    """The verification width 4*3*5*q, with q the largest prime dividing the
    lcm of the moduli (taken from the factored moduli, never by factoring
    the lcm itself).  Target-restricted systems use their reduced moduli."""
    return _auto_w(_primes(_offset_form(system)[0]))


def _auto_w(primes: list[int]) -> int:
    """auto_w from the primes of the offset-form moduli."""
    return 4 * 3 * 5 * max(primes, default=1)


def _primes(classes: list[tuple[int, int]]) -> list[int]:
    """The primes dividing some modulus, ascending, from the factored moduli."""
    return sorted({p for b in {b for _, b in classes} if b > 1 for p in factor(b).primes()})


class _Work:
    """What one verify_partitioned call has spent: one unit per tree node,
    the root's children included, one per 64 class entries written into
    children and one per 2^16 residues scanned; more than WORK_CAP units
    raise CapacityError.  Also holds the primes of the moduli, factored on
    the first prime split only."""

    def __init__(self, classes: list[tuple[int, int]], primes: list[int] | None):
        self.classes, self._primes, self.spent = classes, primes, 0

    def charge(self, nodes: int = 0, entries: int = 0, residues: int = 0):
        self.spent += (nodes << 16) + (entries << 10) + residues  # in residues
        if self.spent > WORK_CAP << 16:
            raise CapacityError(
                f"verification needs more than {WORK_CAP} work units"
                " (tree nodes plus 2^16-residue scans)"
            )

    def primes(self) -> list[int]:
        if self._primes is None:
            self._primes = _primes(self.classes)
        return self._primes


def _least_gap(classes: list[tuple[int, int]], w: int, work: _Work) -> int | None:
    """Least y >= 0 lying in none of the classes, or None if there is none.

    The root, all y, splits by W = gcd(w, lcm of the moduli) into its W
    children y = s + W*z (_children); each node below it that fits one
    _CHUNK is scanned, and a longer one splits on the prime p that divides
    the most of its moduli.  A split is charged before any child is built.
    Children are built one at a time from iterators on an explicit stack,
    so neither a deep tree nor a large split costs recursion, and memory
    holds one window of children per level.  A child's least member u
    grows with s, so a level is dropped at the first child whose u is not
    below the least gap found so far.
    """
    m = math.gcd(w, lcm_all(b for _, b in classes))
    work.charge(nodes=m)
    best = math.inf
    stack = [_children(classes, 0, 1, m)]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        classes, u, w = node
        work.charge(entries=len(classes))
        if u >= best:
            stack.pop()  # neither this child nor a later one is below best
            continue
        moduli = {b for _, b in classes}
        period = math.lcm(*moduli)
        if period > _CHUNK:
            p = max(work.primes(), key=lambda q: sum(b % q == 0 for b in moduli))
            work.charge(nodes=p)
            stack.append(_children(classes, u, w, p))
            continue
        work.charge(residues=period)
        gap = _first_uncovered(classes, period)
        if gap is not None:
            best = min(best, u + w * gap)
    return None if best == math.inf else best


def _children(classes: list[tuple[int, int]], u: int, w: int, m: int):
    """The children (classes, u + w*s, w*m), s in [0, m), of the node
    (classes, u, w), each in its own coordinate z, y = s + m*z, leaving out
    each child that some class contains whole.

    A class (a, b) meets exactly the children s ≡ a (mod g), g = gcd(b, m).
    If g = b it contains them whole; otherwise it is filed once, under
    (g, a mod g), and becomes ((a - s)/g * (m/g)^-1 mod b/g, b/g) in each,
    where (a - s)/g = a//g - s//g.  Children are collected _SLICES at a
    time.
    """
    index, whole = {}, set()
    for a, b in classes:
        g = math.gcd(b, m)
        if g == b:
            whole.add((g, a % g))
        else:
            # m/g = 1 for most classes of a prime split: no inverse to take
            inv = pow(m // g, -1, b // g) if g < m else 1
            index.setdefault((g, a % g), []).append((a // g, b // g, inv))
    for lo in range(0, m, _SLICES):
        subs = [[] for _ in range(min(_SLICES, m - lo))]
        for (g, r), bucket in index.items():
            for i in range((r - lo) % g, len(subs), g):
                subs[i].append(((lo + i) // g, bucket))
        for g, r in whole:
            for i in range((r - lo) % g, len(subs), g):
                subs[i] = None
        for s, sub in enumerate(subs, lo):
            if sub is not None:
                child = [((q - k) * inv % bp, bp) for k, bucket in sub for q, bp, inv in bucket]
                yield child, u + w * s, w * m


def verify_partitioned(system: CoveringSystem, w: int | str = "auto") -> Verdict:
    """Partitioned verification: split the integers into the slices u
    (mod w), restrict each to the classes meeting it, and find the least
    uncovered member, scanning a period of at most _CHUNK residues and
    splitting a longer one by primes (_least_gap).  Covered iff every
    slice is; the verdict always matches verify_naive.

    w is first reduced to gcd(w, lcm of the moduli): slices u and u + that
    gcd meet the same classes, so the verdict and the least witness stay
    the same.  More than WORK_CAP units of work, that many slices
    included, is refused with CapacityError.
    """
    classes, M, t = _offset_form(system)
    primes = None
    if isinstance(w, str):
        if w != "auto":
            raise ValueError(f"w must be an integer or 'auto', got {w!r}")
        primes = _primes(classes)
        w = _auto_w(primes)
    if w < 1:
        raise ValueError(f"w must be >= 1, got {w}")
    gap = _least_gap(classes, w, _Work(classes, primes))
    if gap is None:
        return Verdict(True)
    return Verdict(False, t + M * gap)


def verify_auto(system: CoveringSystem) -> Verdict:
    """The verifier the library itself relies on: verify_naive when the
    target-restricted lcm is at most NAIVE_CAP, otherwise
    verify_partitioned with the automatic width."""
    # the offset-form lcm, lcm(b / gcd(b, M)), is lcm(b) / gcd(lcm(b), M)
    ell = lcm_of_moduli(system)
    if ell // math.gcd(ell, system.target.b) <= NAIVE_CAP:
        return verify_naive(system)
    return verify_partitioned(system)


def covers_target(classes, target: ResidueClass) -> Verdict:
    """Do the classes cover the whole target residue class?

    Classes that cannot intersect the target are rejected (CoveringSystem
    enforces this).
    """
    return verify_auto(CoveringSystem(tuple(classes), target))


def redundant_classes(system: CoveringSystem) -> list[ResidueClass]:
    """Classes whose removal (greedily, in list order) leaves the system a
    covering.  The input must itself verify as covered."""
    if not verify_auto(system).covered:
        raise ValueError("redundant_classes requires a covering system")
    kept = list(system.classes)
    dropped = []
    i = 0
    while i < len(kept):
        if len(kept) > 1:
            trial = CoveringSystem(tuple(kept[:i] + kept[i + 1:]), system.target)
            if verify_auto(trial).covered:
                dropped.append(kept.pop(i))
                continue
        i += 1
    return dropped

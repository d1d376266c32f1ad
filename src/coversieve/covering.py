"""Residue classes and covering systems, with two independent verifiers.

verify_naive scans every member of the target below the lcm of the moduli;
verify_partitioned splits the integers into residue slices mod w and checks
each slice against the subsystem that can intersect it, which is what makes
the 447- and 459-class systems tractable.  Both must always agree.

verify_partitioned files each class (a, b) once, by g = gcd(b, w) and
a mod g, and hands each bucket to the slices u ≡ a (mod g) it meets.  A
slice whose period fits one _CHUNK is scanned; a longer one is the root of
a residue tree (after Nielsen, J. Number Theory 129, 2009): a node splits
on the prime dividing the most of its moduli, each class is rewritten into
the coordinates of the children it meets, a child holding a class of
modulus 1 is pruned, as is a node above the least gap found so far, and
the leaves are scanned.  The one scan kernel, shared with the period
checks, marks classes into chunked bytearrays in strides, on long scans
over copies of a pattern of the smallest moduli; witnesses (least
uncovered member) come out identical to the literal scan.

Every size bound is a module constant, the same for every call: NAIVE_CAP
on the naive lcm, _MAX_SLICES on the number of slices and WORK_CAP on the
work of one verify_partitioned call, counted in tree nodes, root slices
included, plus one per 2^16 residues scanned; work beyond them raises
CapacityError.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from .modarith import CapacityError, factor, lcm_all

NAIVE_CAP = 10 ** 8  # longest lcm verify_naive scans
WORK_CAP = 10 ** 5  # most work units one verify_partitioned call spends (~2 s)
_CHUNK = 1 << 20
_TILE = 1 << 16  # longest pattern of small moduli marked once and repeated
_SLICES = 1 << 12  # slices whose subsystems are collected at a time
_MAX_SLICES = 10 ** 6  # most slices one verify_partitioned call scans (~8 s)


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
    root slices included, plus one per 2^16 residues scanned; more than
    WORK_CAP units raise CapacityError.  Also holds the primes of the
    moduli, factored on the first split only."""

    def __init__(self, classes: list[tuple[int, int]], primes: list[int] | None):
        self.classes, self._primes, self.spent = classes, primes, 0

    def charge(self, nodes: int = 0, residues: int = 0):
        self.spent += (nodes << 16) + residues  # in residues
        if self.spent > WORK_CAP << 16:
            raise CapacityError(
                f"verification needs more than {WORK_CAP} work units"
                " (tree nodes plus 2^16-residue scans)"
            )

    def primes(self) -> list[int]:
        if self._primes is None:
            self._primes = _primes(self.classes)
        return self._primes


def _least_gap(nodes: Iterable[tuple[list[tuple[int, int]], int, int]], work: _Work) -> int | None:
    """Least u + w*y, y >= 0, over the nodes (classes, u, w) such that y
    lies in none of its node's classes; None if every node is covered.

    A node holding a class of modulus 1 is covered, and a node whose least
    member u is not below the least gap found so far is skipped.  A node
    whose period fits one _CHUNK is scanned; a longer one splits on the
    prime p that divides the most of its moduli, into the p children
    y = s + p*z (_children).  Children are built one at a time from
    iterators on an explicit stack, so neither a deep tree nor a large p
    costs recursion, and memory holds one node's classes per level.
    """
    best = None
    stack = [iter(nodes)]
    while stack:
        for classes, u, w in stack[-1]:
            if best is not None and u >= best:
                continue  # no member of the node is below the least gap found
            moduli = [b for _, b in classes]
            if 1 in moduli:
                continue  # a class contains the whole node
            period = math.lcm(*moduli)
            if period > _CHUNK:
                moduli = set(moduli)
                p = max(work.primes(), key=lambda q: sum(b % q == 0 for b in moduli))
                work.charge(nodes=p)
                stack.append(_children(classes, u, w, p))
                break  # descend; this level resumes once the children are done
            work.charge(residues=period)
            gap = _first_uncovered(classes, period)
            if gap is not None and (best is None or u + w * gap < best):
                best = u + w * gap
        else:
            stack.pop()
    return best


def _children(classes: list[tuple[int, int]], u: int, w: int, p: int):
    """The children (classes, u + w*s, w*p), s in [0, p), of a node split
    on the prime p, each in its own coordinate z, y = s + p*z.

    A class (a, b) with p | b meets only child a mod p, as
    ((a - s)/p, b/p); any other meets every child, as ((a - s) * p^-1 mod
    b, b).
    """
    split, rest = [[] for _ in range(p)], []
    for a, b in classes:
        if b % p:
            rest.append((a, pow(p, -1, b), b))
        else:
            split[a % p].append((a // p, b // p))
    for s in range(p):
        yield split[s] + [((a - s) * inv % b, b) for a, inv, b in rest], u + w * s, w * p


def _slices(classes: list[tuple[int, int]], w: int, work: _Work):
    """The slices {w*y + u : y >= 0}, u in [0, w), as _least_gap nodes,
    leaving out each slice that some class contains whole.

    Each class (a, b) meets exactly the slices u ≡ a (mod g), g = gcd(b, w).
    If g = b it contains them whole; otherwise it is filed once, under
    (g, a mod g), and pulls back to y ≡ (a - u)/g * (w/g)^-1 (mod b/g) in
    each of them.  The buckets are handed to _SLICES slices at a time, each
    window charged to the work bound up front.
    """
    index, whole = {}, set()
    for a, b in classes:
        g = math.gcd(b, w)
        if g == b:
            whole.add((g, a % g))
        else:
            inv = pow(w // g, -1, b // g)
            index.setdefault((g, a % g), []).append((a, b // g, g, inv))
    for lo in range(0, w, _SLICES):
        subs = [[] for _ in range(min(_SLICES, w - lo))]
        work.charge(nodes=len(subs))
        for (g, r), bucket in index.items():
            for i in range((r - lo) % g, len(subs), g):
                subs[i] += bucket
        for g, r in whole:
            for i in range((r - lo) % g, len(subs), g):
                subs[i] = None
        for u, sub in enumerate(subs, lo):
            if sub is not None:
                yield [((a - u) // g * inv % bp, bp) for a, bp, g, inv in sub], u, w


def verify_partitioned(system: CoveringSystem, w: int | str = "auto") -> Verdict:
    """Partitioned verification: for each u in [0, w), restrict to the
    classes meeting the slice u (mod w) and find the slice's least
    uncovered member, scanning a period of at most _CHUNK residues or
    splitting a longer one by primes (_least_gap).  Covered iff every slice
    is; the verdict always matches verify_naive.

    w is first reduced to gcd(w, lcm of the moduli): slices u and u + that
    gcd meet the same classes, so the verdict and the least witness stay
    the same.  More than _MAX_SLICES slices, or more than WORK_CAP units
    of work, is refused with CapacityError.
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
    w = math.gcd(w, lcm_all(b for _, b in classes))
    if w > _MAX_SLICES:
        raise CapacityError(
            f"{w} slices (the gcd of w and the lcm) exceed {_MAX_SLICES}"
        )
    work = _Work(classes, primes)
    gap = _least_gap(_slices(classes, w, work), work)
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

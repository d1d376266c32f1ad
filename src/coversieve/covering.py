"""Residue classes and covering systems, with two verifiers.

verify_naive, the literal oracle, scans every member of the target below
the lcm of the moduli.  verify_partitioned, the verifier the library
itself uses, walks a residue tree (after Nielsen, J. Number Theory 129,
2009) and handles any size, the 447- and 459-class systems included.
Both must always agree, but they are not independent: they share the
offset form (_offset_form), the scan kernel (_first_uncovered) and the
prefix rule (_prefix), so their agreement does not test those.  The
period checks of progression run on the same tree (_least_gap).

A root of period P above _TILE first scans its first min(_TILE, P/16)
members, in both verifiers: a gap there is the least witness, found before
any modulus is factored, any node split or the whole period scanned, as is
that of every failing one-class-dropped mutant of the embedded coverings;
a covered root scans at most 1/16 more residues for it.  A root that
holds a modulus-1 class, or whose period fits one _CHUNK, is answered
before any tree is built: covered, or by one scan of its period.  Past
that every node follows one rule: a node that fits one _CHUNK, or whose
scan costs fewer work units than its split, is scanned, and any other
node splits on the prime q whose classes cover the most of it: the
largest sum of period/b over its classes with q | b, the classes that
the split sends to one child each.  The moduli are factored only when
the root is longer than one _CHUNK.
A node keeps its classes as the root has them, grouped by modulus: a
split by q hands a group whose modulus in the node is prime to q to each
child as it is, buckets any other once by residue, each bucket meeting
one child, and builds no child that a class contains whole; only a
scanned node rewrites its classes, and a node above the least gap found
so far is dropped.
The one scan kernel, shared by both verifiers, starts a mask of ones,
zero-fills the stride of each class and takes the first 1: a scan of at
most _TILE residues, every root prefix included, into one bytearray, a
longer one into chunked bytearrays over copies of a pattern of the
smallest moduli, grown one lcm step at a time so that a class of modulus
b marks P/b residues at the lcm P where it joins; witnesses come out
identical to the literal scan.

Every size bound is a module constant, the same for every call: NAIVE_CAP
on the lcm verify_naive scans and WORK_CAP on the work of one
verify_partitioned call or one period check, counted as one unit per tree
node, one per 64 class entries held by the nodes and one per 2^16
residues scanned; a period check also charges one class entry per step
of each walk over a prime's powers.  Work beyond them raises
CapacityError.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from functools import cache

from .modarith import CapacityError, ResidueClass, _prime_to, _shown, factor_whole

NAIVE_CAP = 10 ** 8  # longest lcm verify_naive scans
WORK_CAP = 10 ** 5  # most work units of one verify_partitioned call or period check (2-3.5 s)
_CHUNK = 1 << 20
_TILE = 1 << 16  # longest pattern of small moduli marked once and repeated


ALL_INTEGERS = ResidueClass(0, 1)


class CoveringSystem(namedtuple("CoveringSystem", "classes target")):
    """An ordered list of residue classes, optionally restricted to a target
    class (default: all integers).  Classes incompatible with the target are
    rejected on construction."""

    __slots__ = ()

    def __new__(cls, classes, target: ResidueClass = ALL_INTEGERS):
        classes = tuple(classes)  # an iterator is empty only once it is read
        if not classes:
            raise ValueError("a covering system needs at least one class")
        if target != ALL_INTEGERS:
            for c in classes:
                g = math.gcd(c.b, target.b)
                if c.a % g != target.a % g:
                    raise ValueError(
                        f"class {c} cannot intersect target {target}"
                    )
        return tuple.__new__(cls, (classes, target))

    def moduli(self) -> list[int]:
        return [c.b for c in self.classes]


class Verdict(namedtuple("Verdict", "covered witness", defaults=(None,))):
    """covered, plus the smallest uncovered member of the target found."""

    __slots__ = ()


def lcm_of_moduli(system: CoveringSystem) -> int:
    return math.lcm(*system.moduli())


def satisfying_class(system: CoveringSystem, n: int) -> ResidueClass | None:
    """First class in list order containing n, or None."""
    for cls in system.classes:
        if cls.contains(n):
            return cls
    return None


def _offset_form(system: CoveringSystem) -> tuple[Sequence[tuple[int, int]], int, int]:
    """Rewrite a target-restricted system over the target's own coordinates.

    Members of target t (mod M) are x = t + M*y; each class maps to a class
    in y.  Returns (classes as (a', b') pairs, M, t); witnesses map back as
    x = t + M*y.  The target of all integers returns the system's own classes.
    """
    t, M = system.target.a, system.target.b
    if M == 1:
        return system.classes, 1, 0
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
    """Least t in [0, count) lying in no class (a, b), 0 <= a < b.

    The mask starts all ones and a class is marked by assigning a
    zero-filled bytearray to its stride; the answer is the first 1.  A scan
    of at most _TILE residues marks each class with a < count straight into
    one mask.  Above that, the classes are sorted by modulus and a pattern
    grows from period 1: while the lcm P of its period and the next modulus
    b stays within _TILE, the pattern is first repeated up to P, then the
    class marks its P/b residues in it.  Each chunk (a multiple of the
    final P long) starts as copies of the pattern, and only the other
    classes are marked in strides."""
    if count <= _TILE:
        mask = bytearray(b"\x01") * count
        for a, b in classes:
            if a < count:
                mask[a::b] = bytearray((count - 1 - a) // b + 1)
        gap = mask.find(1)
        return None if gap < 0 else gap
    classes = sorted(classes, key=lambda c: c[1])
    pattern, tiled, bound = bytearray(b"\x01"), 0, min(_TILE, _CHUNK)
    for a, b in classes:
        if (period := math.lcm(len(pattern), b)) > bound:
            break
        pattern *= period // len(pattern)
        pattern[a::b] = bytearray(period // b)
        tiled += 1
    period, classes = len(pattern), classes[tiled:]
    step = _CHUNK // period * period
    for lo in range(0, count, step):
        size = min(step, count - lo)
        mask = _mark(pattern * -(-size // period), lo, classes)
        gap = mask.find(1, 0, size)
        if gap >= 0:
            return lo + gap
    return None


def _mark(mask: bytearray, lo: int, classes) -> bytearray:
    """Zero mask[i] for every lo + i in a class; returns mask."""
    size = len(mask)
    for a, b in classes:
        start = (a - lo) % b
        if start < size:
            mask[start::b] = bytearray((size - start + b - 1) // b)
    return mask


def _prefix(period: int) -> int:
    """How many members a root of this period above _TILE scans first:
    min(_TILE, period/16) at the default sizes, in (0, period] at any."""
    return max(1, min(_TILE, period * _TILE // _CHUNK))


def verify_naive(system: CoveringSystem) -> Verdict:
    """Check every member of the target in [0, lcm) directly, in order, and
    stop at the first gap; an lcm above _TILE has its prefix (_prefix)
    scanned first, as a root of _least_gap does, and an lcm within _TILE
    is one scan into one bytearray.  Lcms above NAIVE_CAP are refused."""
    classes, M, t = _offset_form(system)
    ell = math.lcm(*{b for _, b in classes})
    if ell > NAIVE_CAP:
        raise CapacityError(
            f"lcm of moduli has {ell.bit_length()} bits, above cap {NAIVE_CAP}; "
            "use verify_partitioned"
        )
    gap = _first_uncovered(classes, _prefix(ell)) if ell > _TILE else None
    if gap is None:
        gap = _first_uncovered(classes, ell)
    if gap is None:
        return Verdict(True)
    return Verdict(False, t + M * gap)


def auto_w(system: CoveringSystem) -> int:
    """The paper's verification width 4*3*5*q, with q the largest prime
    dividing the lcm of the moduli (taken from the factored moduli, never by
    factoring the lcm itself).  Target-restricted systems use their reduced
    moduli.  It is the paper's width, printed by coversieve verify; no
    verifier splits by it."""
    return 4 * 3 * 5 * max(_primes(_offset_form(system)[0]), default=1)


def _primes(classes: list[tuple[int, int]]) -> list[int]:
    """The primes dividing some modulus of the classes, ascending; a modulus
    that factor_whole() cannot factor raises CapacityError.  The primes
    already found are divided out of each modulus first, so factor() sees
    only what is left above 1."""
    primes, known = [], 1  # known: the product of primes
    for b in {b for _, b in classes}:
        rest = _prime_to(b, known)
        if rest == 1:
            continue
        found = factor_whole(rest, lambda: f"modulus {_shown(b)}").primes()
        primes += found
        known *= math.prod(found)
    return sorted(primes)


class _Work:
    """What one verify_partitioned call or period check has spent: one
    unit per tree node, one per 64 class entries and one per 2^16 residues
    scanned; more than WORK_CAP units raise CapacityError."""

    spent = 0

    def charge(self, nodes: int = 0, entries: int = 0, residues: int = 0):
        self.spent += (nodes << 16) + (entries << 10) + residues  # in residues
        if self.spent > WORK_CAP << 16:
            raise CapacityError(
                f"verification needs more than {WORK_CAP} work units"
                " (one per tree node, per 64 class entries and per 2^16 residues scanned)"
            )


def _least_gap(classes: list[tuple[int, int]], work: _Work) -> int | None:
    """Least y >= 0 lying in none of the classes, or None if there is none.

    A root of period P above _TILE first scans its first _prefix(P)
    members, min(_TILE, P/16), at most one work unit: a gap there is the
    least one, returned before any modulus is factored, any child built or
    the whole period scanned.

    The root's moduli and period are found once, before any stack is
    built, and a root that holds a modulus-1 class (covered) or fits one
    _CHUNK (one scan, after its prefix) is answered there, charged as the
    loop would charge it: its entries, then its residues.  Past that the
    moduli are factored and the root grouped, once.  A node y = u (mod
    step) holds groups (b, b', residues): the a of each class (a, b) that
    meets the node, b' = b/gcd(b, step); its entries are the residues, its
    period the lcm of the b'.  A node longer than one _CHUNK picks its
    split m, the least prime q with the largest sum of
    period/b' * len(residues) over its groups with q | b'.  It is scanned
    if it fits one _CHUNK or its scan costs fewer units than m children (a
    chunk is 16), so no split is dearer than the scan it replaces; else it
    splits, charged before any child is built.  A scanned node rewrites its
    classes as ((a - u)/h * (step/h)^-1 mod b', b'), h = b/b', each inverse
    taken once per (step, b).  Children are built one at a time from
    iterators on an explicit stack, so neither a deep tree nor a large
    split costs recursion, and memory holds one child per level.  A child's
    least member u grows with s, so a level is dropped at the first child
    whose u is not below the least gap found so far.
    """
    work.charge(entries=len(classes))
    moduli = {b for _, b in classes}
    if 1 in moduli:
        return None
    period = math.lcm(*moduli)
    if period > _TILE:  # the root's prefix is scanned first
        work.charge(residues=(n := _prefix(period)))
        gap = _first_uncovered(classes, n)
        if gap is not None:
            return gap
    if period <= _CHUNK:  # a root within one chunk is one scan
        work.charge(residues=period)
        return _first_uncovered(classes, period)
    best, primes = math.inf, _primes(classes)
    inverse = cache(lambda step, b: (h := math.gcd(b, step), pow(step // h, -1, b // h)))
    stack = [iter([(_grouped(classes), 0, 1)])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        groups, u, step = node
        if step > 1:  # every node but the root, charged and sized above
            work.charge(entries=sum(len(rs) for _, _, rs in groups))
            if u >= best:
                stack.pop()  # neither this child nor a later one is below best
                continue
            period = math.lcm(*{bp for _, bp, _ in groups})
        if period > _CHUNK:  # the prime whose classes cover the most of the node
            m = max(primes, key=lambda q: sum(
                period // bp * len(rs) for _, bp, rs in groups if bp % q == 0))
        if period <= _CHUNK or period < m * (_CHUNK >> 4):  # a chunk is 16 units
            work.charge(residues=period)
            gap = _first_uncovered([((a - u) // h * inv % bp, bp) for b, bp, rs in groups
                                    for h, inv in [inverse(step, b)] for a in rs], period)
            if gap is not None:
                best = min(best, u + step * gap)
            continue
        work.charge(nodes=m)
        stack.append(_children(groups, u, step, m))
    return None if best == math.inf else best


def _grouped(classes: list[tuple[int, int]]) -> list[tuple[int, int, list[int]]]:
    """The root's groups (b, b, residues), one per modulus b."""
    residues = {}
    for a, b in classes:
        residues.setdefault(b, []).append(a)
    return [(b, b, rs) for b, rs in residues.items()]


def _children(groups: list[tuple[int, int, list[int]]], u: int, step: int, q: int):
    """The children (groups, u + step*s, step*q), s in [0, q), of the node
    (groups, u, step) that no class contains whole (see _least_gap), for a
    prime q, built one at a time.

    A group (b, b', residues) with q not dividing b' goes into every child
    with the same residues list.  Any other, with h = b/b', is bucketed
    once by a mod h*q: the bucket of key r meets the one child
    s = (r - u)/h * (step/h)^-1 mod q and goes into it as the group
    (b, b'/q, bucket), or, if b' = q, contains it whole.
    """
    same, meets, whole = [], {}, set()
    for b, bp, rs in groups:
        if bp % q:
            same.append((b, bp, rs))
            continue
        h, buckets = b // bp, {}
        for a in rs:
            buckets.setdefault(a % (h * q), []).append(a)
        inv = pow(step // h, -1, q)
        for r, bucket in buckets.items():
            s = (r - u) // h * inv % q
            if bp == q:
                whole.add(s)
            else:
                meets.setdefault(s, []).append((b, bp // q, bucket))
    for s in range(q):
        if s not in whole:
            yield same + meets.get(s, []), u + step * s, step * q


def verify_partitioned(system: CoveringSystem, w: int | str = "auto") -> Verdict:
    """Partitioned verification: the least uncovered member of the target
    by the residue tree (_least_gap), the same verdict and least witness as
    verify_naive.  More than WORK_CAP units of work is refused with
    CapacityError.

    w is checked ("auto" or an integer >= 1) and has no other effect: the
    verdict, the witness and the work are those of "auto" at every w.  It
    stays only while the benchmark's small-checks workload passes it
    (ROADMAP item 3).
    """
    if isinstance(w, str) and w != "auto":
        raise ValueError(f"w must be an integer or 'auto', got {w!r}")
    if not isinstance(w, str) and w < 1:
        raise ValueError(f"w must be >= 1, got {w}")
    classes, M, t = _offset_form(system)
    gap = _least_gap(classes, _Work())
    if gap is None:
        return Verdict(True)
    return Verdict(False, t + M * gap)


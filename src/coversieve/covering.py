"""Residue classes and covering systems, with two independent verifiers.

verify_naive scans every member of the target below the lcm of the moduli;
verify_partitioned splits the integers into residue slices mod w and checks
each slice against the subsystem that can intersect it, which is what makes
the 447- and 459-class systems tractable.  Both must always agree.

verify_partitioned files each class (a, b) once, by g = gcd(b, w) and
a mod g, and hands each bucket to the slices u ≡ a (mod g) it meets.  The
one scan kernel, shared with the period checks, marks classes into chunked
bytearrays in strides, on long scans over copies of a pattern of the
smallest moduli; witnesses (least uncovered member) come out identical to
the literal scan.

Every size bound is a module constant, the same for every call: NAIVE_CAP
on the naive lcm, SLICE_CAP on one slice's period and _MAX_SLICES on the
number of slices; work beyond them raises CapacityError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .modarith import CapacityError, factor, lcm_all

NAIVE_CAP = 10 ** 8  # longest lcm verify_naive scans
SLICE_CAP = 10 ** 9  # longest period of one slice verify_partitioned scans
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
    return _auto_w(_offset_form(system)[0])


def _auto_w(classes: list[tuple[int, int]]) -> int:
    """auto_w over offset-form classes."""
    q = 1
    for b in set(b for _, b in classes):
        if b > 1:
            q = max(q, max(factor(b).primes()))
    return 4 * 3 * 5 * q


def _check_slice(sub: list[tuple[int, int, int, int]], u: int, w: int) -> int | None:
    """Verify the slice {w*t + u : t >= 0}; returns the least uncovered
    member of the slice, or None if fully covered.

    sub holds (a, b/g, g, inverse of w/g mod b/g) for the classes (a, b)
    meeting the slice, g = gcd(b, w).
    """
    if not sub:
        return u
    moduli = [bp for _, bp, _, _ in sub]
    if 1 in moduli:
        return None  # a class contains the whole slice
    count = math.lcm(*moduli)
    if count > SLICE_CAP:
        raise CapacityError(
            f"slice u={u} needs {count} iterations (> {SLICE_CAP})"
        )
    # members are w*t + u; class (a, b) pulls back to t ≡ t0 (mod b/g)
    tclasses = [((a - u) // g * inv % bp, bp) for a, bp, g, inv in sub]
    gap = _first_uncovered(tclasses, count)
    return None if gap is None else w * gap + u


def verify_partitioned(system: CoveringSystem, w: int | str = "auto") -> Verdict:
    """Partitioned verification: for each u in [0, w), restrict to the
    classes meeting the slice u (mod w) and scan one period of that slice.
    Covered iff every slice is; the verdict always matches verify_naive.

    w is first reduced to gcd(w, lcm of the moduli): slices u and u + that
    gcd meet the same classes, so the verdict and the least witness stay
    the same.  More than _MAX_SLICES slices, or a slice period above
    SLICE_CAP, is refused with CapacityError.
    """
    classes, M, t = _offset_form(system)
    if isinstance(w, str):
        if w != "auto":
            raise ValueError(f"w must be an integer or 'auto', got {w!r}")
        w = _auto_w(classes)
    if w < 1:
        raise ValueError(f"w must be >= 1, got {w}")
    w = math.gcd(w, lcm_all(b for _, b in classes))
    if w > _MAX_SLICES:
        raise CapacityError(
            f"{w} slices (the gcd of w and the lcm) exceed {_MAX_SLICES}"
        )
    # classes (a, b) with g = gcd(b, w) meet exactly the slices u ≡ a (mod g)
    index = {}
    for a, b in classes:
        g = math.gcd(b, w)
        inv = pow(w // g, -1, b // g)
        index.setdefault((g, a % g), []).append((a, b // g, g, inv))
    failures = []
    for lo in range(0, w, _SLICES):
        subs = [[] for _ in range(min(_SLICES, w - lo))]
        for (g, r), bucket in index.items():
            for i in range((r - lo) % g, len(subs), g):
                subs[i] += bucket
        failures += [
            f for u, sub in enumerate(subs, lo)
            if (f := _check_slice(sub, u, w)) is not None
        ]
    if not failures:
        return Verdict(True)
    return Verdict(False, t + M * min(failures))


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

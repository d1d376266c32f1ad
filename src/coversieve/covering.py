"""Residue classes and covering systems, with two independent verifiers.

verify_naive scans every member of the target below the lcm of the moduli;
verify_partitioned splits the integers into residue slices mod w and checks
each slice against the subsystem that can intersect it, which is what makes
the 447- and 459-class systems tractable.  Both must always agree.

The inner scan marks multiples into a bytearray in strides instead of
testing each integer against each class; witnesses (least uncovered member)
come out identical to the literal scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .modarith import CapacityError, factor, inverse_mod, lcm_all

DEFAULT_NAIVE_CAP = 10 ** 8
DEFAULT_SLICE_CAP = 10 ** 9
_CHUNK = 1 << 20


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
        ap = (cls.a - t) // g * inverse_mod(M // g, bp) % bp
        out.append((ap, bp))
    return out, M, t


def _first_uncovered(classes: list[tuple[int, int]], count: int) -> int | None:
    """Least t in [0, count) lying in no class, by strided chunk marking."""
    for lo in range(0, count, _CHUNK):
        hi = min(lo + _CHUNK, count)
        size = hi - lo
        mask = bytearray(size)
        for a, b in classes:
            start = (a - lo) % b
            if start < size:
                n = (size - start + b - 1) // b
                mask[start::b] = b"\x01" * n
        gap = mask.find(0)
        if gap >= 0:
            return lo + gap
    return None


def verify_naive(system: CoveringSystem, cap: int = DEFAULT_NAIVE_CAP) -> Verdict:
    """Check every member of the target in [0, lcm) directly."""
    classes, M, t = _offset_form(system)
    ell = lcm_all(b for _, b in classes)
    if ell > cap:
        raise CapacityError(
            f"lcm of moduli is {ell} > cap {cap}; use verify_partitioned"
        )
    gap = _first_uncovered(classes, ell)
    if gap is None:
        return Verdict(True)
    return Verdict(False, t + M * gap)


def auto_w(system: CoveringSystem) -> int:
    """The verification width 4*3*5*q, with q the largest prime dividing the
    lcm of the moduli (taken from the factored moduli, never by factoring
    the lcm itself).  Target-restricted systems use their reduced moduli."""
    classes, _, _ = _offset_form(system)
    q = 1
    for b in set(b for _, b in classes):
        if b > 1:
            q = max(q, max(factor(b).primes()))
    return 4 * 3 * 5 * q


def _check_slice(
    classes: list[tuple[int, int, int]],
    u: int,
    w: int,
    slice_cap: int,
) -> int | None:
    """Verify the slice {w*t + u : t >= 0}; returns the least uncovered
    member of the slice, or None if fully covered.

    classes carry (a, b, gcd(b, w)) for the whole system; only those with
    a ≡ u mod gcd(b, w) can intersect the slice.
    """
    sub = [(a, b, g) for a, b, g in classes if (a - u) % g == 0]
    if not sub:
        return u
    # members are w*t + u; class (a, b) pulls back to t ≡ t0 (mod b/g)
    tclasses = []
    for a, b, g in sub:
        bp = b // g
        if bp == 1:
            return None  # class contains the whole slice
        t0 = (a - u) // g * inverse_mod(w // g, bp) % bp
        tclasses.append((t0, bp))
    ell = lcm_all(b for _, b, _ in sub)
    count = ell // math.gcd(w, ell)
    if count > slice_cap:
        raise CapacityError(
            f"slice u={u} needs {count} iterations (> {slice_cap})"
        )
    gap = _first_uncovered(tclasses, count)
    return None if gap is None else w * gap + u


def verify_partitioned(
    system: CoveringSystem,
    w: int | str = "auto",
    slice_cap: int = DEFAULT_SLICE_CAP,
) -> Verdict:
    """Partitioned verification: for each u in [0, w), restrict to the
    classes meeting the slice u (mod w) and scan one period of that slice.
    Covered iff every slice is; the verdict always matches verify_naive.

    w is first reduced to gcd(w, lcm of the moduli): slices u and u + that
    gcd meet the same classes, so the verdict and the least witness stay
    the same and the loop is bounded by the lcm, whatever w is.
    """
    classes, M, t = _offset_form(system)
    if isinstance(w, str):
        if w != "auto":
            raise ValueError(f"w must be an integer or 'auto', got {w!r}")
        w = auto_w(system)
    if w < 1:
        raise ValueError(f"w must be >= 1, got {w}")
    w = math.gcd(w, lcm_all(b for _, b in classes))
    annotated = [(a, b, math.gcd(b, w)) for a, b in classes]
    failures = [
        f for u in range(w) if (f := _check_slice(annotated, u, w, slice_cap)) is not None
    ]
    if not failures:
        return Verdict(True)
    return Verdict(False, t + M * min(failures))


def verify_auto(system: CoveringSystem) -> Verdict:
    """The verifier the library itself relies on: verify_naive when the
    target-restricted lcm is at most DEFAULT_NAIVE_CAP, otherwise
    verify_partitioned with the automatic width."""
    classes, _, _ = _offset_form(system)
    if lcm_all(b for _, b in classes) <= DEFAULT_NAIVE_CAP:
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

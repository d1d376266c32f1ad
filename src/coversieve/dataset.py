"""Embedded appendix data, the covering file format, and consistency audits.

File grammar (line oriented, '#' starts a comment):

    target 2 8          # optional header restricting the system
    2 16 i=1            # class 2 (mod 16), unresolved prime slot 1
    0 4 p=5             # class 0 (mod 4), bound to the prime 5
    9 3                 # bare class, normalized to 0 (mod 3)

Parsing normalizes residues into [0, modulus); serialization writes the
normalized canonical form, so parse/serialize round-trips are bit-exact.

The embedded tables and the AppendixData type are built on first use, by
appendix_data(), c0_system(), table2_rows() or a lookup of AppendixData,
so importing this module loads neither the tables nor dataclasses.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from functools import cache
from types import SimpleNamespace

from .covering import (
    CoveringSystem,
    ResidueClass,
    ALL_INTEGERS,
    lcm_of_moduli,
    verify_partitioned,
)
from .cyclotomic import read_integers
from .modarith import is_probable_prime, verify_order

Tag = tuple[str, int] | None


class LoadedCovering(namedtuple("LoadedCovering", "system tags")):
    __slots__ = ()


def parse_covering(text: str, source: str = "<string>") -> LoadedCovering:
    classes: list[ResidueClass] = []
    tags: list[Tag] = []
    target = ALL_INTEGERS
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "target":
            if classes:
                raise ValueError(f"{source}:{lineno}: target header must come first")
            if len(parts) != 3:
                raise ValueError(f"{source}:{lineno}: expected 'target a b'")
            try:
                target = ResidueClass(int(parts[1]), int(parts[2]))
            except ValueError as exc:
                raise ValueError(f"{source}:{lineno}: bad target: {exc}")
            continue
        if len(parts) not in (2, 3):
            raise ValueError(f"{source}:{lineno}: expected 'a b [tag]', got {raw!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
            cls = ResidueClass(a, b)
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: bad class: {exc}")
        tag: Tag = None
        if len(parts) == 3:
            t = parts[2]
            if t.startswith("i=") or t.startswith("p="):
                try:
                    tag = (t[0], int(t[2:]))
                except ValueError:
                    raise ValueError(f"{source}:{lineno}: bad tag {t!r}")
            else:
                raise ValueError(f"{source}:{lineno}: unknown tag {t!r}")
            if tag[0] == "p" and tag[1] < 2:
                raise ValueError(f"{source}:{lineno}: p= tag must carry a prime")
        classes.append(cls)
        tags.append(tag)
    if not classes:
        raise ValueError(f"{source}: no congruence classes found")
    try:
        system = CoveringSystem(tuple(classes), target)
    except ValueError as exc:  # a class that cannot meet the target
        raise ValueError(f"{source}: {exc}")
    return LoadedCovering(system, tuple(tags))


def load_covering(path) -> LoadedCovering:
    with open(path) as fh:
        return parse_covering(fh.read(), source=str(path))


def serialize_covering(system: CoveringSystem, tags=None) -> str:
    lines = []
    if system.target != ALL_INTEGERS:
        lines.append(f"target {system.target.a} {system.target.b}")
    if tags is None:
        tags = (None,) * len(system.classes)
    for cls, tag in zip(system.classes, tags):
        if tag is None:
            lines.append(f"{cls.a} {cls.b}")
        else:
            lines.append(f"{cls.a} {cls.b} {tag[0]}={tag[1]}")
    return "\n".join(lines) + "\n"


def load_primes_file(path) -> list[int]:
    """Prime-set file: an integer-list file that names at least one prime."""
    out = read_integers(path)
    if not out:
        raise ValueError(f"{path}: empty prime set")
    return out


# ---------------------------------------------------------------------------
# embedded appendix data


# AppendixData is built on first use, so that importing this module loads
# neither dataclasses nor the tables.  It would be a record like
# LoadedCovering, but the benchmark harness (perfbench/workloads.py) calls
# dataclasses.replace on it; once that goes, so can this lazy build.
@cache
def _appendix_type() -> type:
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class AppendixData:
        __qualname__ = "AppendixData"  # for the repr and pickling
        cov_sier: LoadedCovering
        cov_ries: LoadedCovering
        L: dict[int, tuple[int, bool]]
        M: dict[int, tuple[int, bool]]
        table1: tuple[tuple[ResidueClass, int], ...]

    return AppendixData


def __getattr__(name: str):
    if name == "AppendixData":
        return _appendix_type()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _from_rows(rows) -> LoadedCovering:
    classes = tuple(ResidueClass(a, b) for a, b, _ in rows)
    tags = tuple(("i", i) for _, _, i in rows)
    return LoadedCovering(CoveringSystem(classes), tags)


def appendix_data() -> AppendixData:
    from . import _tables

    data = _appendix_type()(
        cov_sier=_from_rows(_tables.SIERPINSKI),
        cov_ries=_from_rows(_tables.RIESEL),
        L={b: (c, star) for b, c, star in _tables.TABLE_L},
        M={b: (c, star) for b, c, star in _tables.TABLE_M},
        table1=tuple((ResidueClass(a, b), p) for a, b, p in _tables.TABLE1),
    )
    if len(data.cov_sier.system.classes) != 447:
        raise AssertionError("Sierpinski covering must have 447 classes")
    if len(data.cov_ries.system.classes) != 459:
        raise AssertionError("Riesel covering must have 459 classes")
    for cov in (data.cov_sier, data.cov_ries):
        for cls in cov.system.classes:
            if cls.b not in data.L:
                raise AssertionError(f"modulus {cls.b} missing from the L table")
    return data


def c0_system() -> CoveringSystem:
    from . import _tables

    return CoveringSystem(tuple(ResidueClass(a, b) for a, b in _tables.C0))


def table2_rows() -> tuple[tuple[int, ResidueClass], ...]:
    from . import _tables

    return tuple((k, ResidueClass(a, b)) for k, a, b in _tables.TABLE2)


# ---------------------------------------------------------------------------
# audits


class Report(SimpleNamespace):
    """An audit's name, violations and facts; reports compare by value."""

    def __init__(self, name: str):
        super().__init__(name=name, violations=[], facts={})

    @property
    def ok(self) -> bool:
        return not self.violations


def consistency_audit(data: AppendixData) -> Report:
    """Cross-check the coverings against the per-modulus prime budgets L(b).

    The prime supply of order b must pay for every class of modulus b used
    across both coverings, except that the starred b = 4 row's single prime
    (5) is spent once in each covering.  Residues are also required to be
    pairwise distinct per (covering, modulus), and no i= index may pass
    the L(b) primes of its modulus.
    """
    rep = Report("consistency-audit")
    counts: dict[int, list[int]] = {}
    for which, cov in (("sierpinski", data.cov_sier), ("riesel", data.cov_ries)):
        seen = set()
        for cls, tag in zip(cov.system.classes, cov.tags):
            counts.setdefault(cls.b, [0, 0])[0 if which == "sierpinski" else 1] += 1
            if cls in seen:
                rep.violations.append(f"{which}: duplicate class {cls}")
            seen.add(cls)
            supply = data.L.get(cls.b, (0, False))[0]
            if tag and tag[0] == "i" and tag[1] > supply:
                rep.violations.append(
                    f"{which}: class {cls} uses index {tag[1]} > L({cls.b}) = {supply}"
                )
    for b, (ns, nr) in sorted(counts.items()):
        if b not in data.L:
            rep.violations.append(f"modulus {b} missing from L table")
            continue
        supply, star = data.L[b]
        if b == 4 and star:
            if ns > supply or nr > supply:
                rep.violations.append(
                    f"modulus 4: {ns}+{nr} classes exceed the shared-prime rule"
                )
        elif ns + nr > supply:
            rep.violations.append(
                f"modulus {b}: {ns} + {nr} classes exceed L({b}) = {supply}"
            )
    rep.facts["moduli"] = len(counts)
    rep.facts["classes.sierpinski"] = len(data.cov_sier.system.classes)
    rep.facts["classes.riesel"] = len(data.cov_ries.system.classes)
    s1404 = counts.get(1404, [0, 0])
    rep.facts["classes.1404"] = f"{s1404[0]}+{s1404[1]} of L={data.L[1404][0]}"
    return rep


def verify_table1(data: AppendixData) -> Report:
    """Check the 2 (mod 8) resolution table: each prime really is prime and
    has order base 2 equal to its row modulus; each row sits inside the
    target slice; and the rows cover the slice, a row disjoint from it
    covering none of it."""
    rep = Report("table1")
    target = ResidueClass(2, 8)
    for cls, p in data.table1:
        if cls.b % target.b != 0 or cls.a % target.b != target.a:
            rep.violations.append(f"row {cls} is not a subset of {target}")
        if not is_probable_prime(p):
            rep.violations.append(f"{p} fails the primality test")
        elif not verify_order(2, p, cls.b):
            rep.violations.append(f"ord_{p}(2) != {cls.b}")
    rows = tuple(cls for cls, _ in data.table1
                 if (cls.a - target.a) % math.gcd(cls.b, target.b) == 0)
    witness = verify_partitioned(CoveringSystem(rows, target)).witness if rows else target.a
    if witness is not None:
        rep.violations.append(f"rows do not cover {target}; witness {witness}")
    rep.facts["rows"] = len(data.table1)
    rep.facts["largest_prime_digits"] = len(str(max((p for _, p in data.table1), default=0)))
    return rep


# ---------------------------------------------------------------------------
# exported data files


def export_data_files(outdir) -> list[str]:
    """Write the embedded tables as covering files; returns the paths."""
    os.makedirs(outdir, exist_ok=True)
    data = appendix_data()
    written = []

    def emit(name: str, text: str):
        path = os.path.join(outdir, name)
        with open(path, "w") as fh:
            fh.write(text)
        written.append(path)

    emit("c0.cov", serialize_covering(c0_system()))
    emit("sierpinski.cov", serialize_covering(data.cov_sier.system, data.cov_sier.tags))
    emit("riesel.cov", serialize_covering(data.cov_ries.system, data.cov_ries.tags))
    t1 = CoveringSystem(tuple(cls for cls, _ in data.table1), ResidueClass(2, 8))
    tags = tuple(("p", p) for _, p in data.table1)
    emit("table1.cov", serialize_covering(t1, tags))
    return written

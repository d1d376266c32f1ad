"""The result types are tuple-backed records: their reprs, defaults,
immutability, hashing and the normalization of ResidueClass are a contract,
and a bare `import coversieve` loads neither dataclasses nor inspect."""

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

from coversieve import (
    BrierCheck,
    Budget,
    CheckResult,
    CoveringSystem,
    FactorizationResult,
    OrderPrimeSet,
    PrimeAssignment,
    ResidueClass,
    ShiftResult,
    SievedProgression,
    Verdict,
)
from coversieve.dataset import LoadedCovering, Report, appendix_data

R = ResidueClass
CHECK = CheckResult(True, period=2, certificate=(("sierpinski", 0, 2, 3),))

# (record, an equal record built apart from it, its repr)
RECORDS = [
    (R(-3, 5), R(2, 5), "ResidueClass(a=2, b=5)"),
    (Budget(), Budget(1_000_000, 500_000, 8),
     "Budget(trial_limit=1000000, rho_rounds=500000, rho_restarts=8)"),
    (FactorizationResult(((3, 2),)), FactorizationResult(((3, 2),), 1),
     "FactorizationResult(factors=((3, 2),), cofactor=1)"),
    (CoveringSystem([R(0, 2), R(1, 2)]), CoveringSystem((R(0, 2), R(1, 2)), R(0, 1)),
     "CoveringSystem(classes=(ResidueClass(a=0, b=2), ResidueClass(a=1, b=2)), "
     "target=ResidueClass(a=0, b=1))"),
    (Verdict(False, 7), Verdict(covered=False, witness=7), "Verdict(covered=False, witness=7)"),
    (OrderPrimeSet(12, 2, (13,), True), OrderPrimeSet(12, 2, (13,), True, 1),
     "OrderPrimeSet(order=12, base=2, primes=(13,), complete=True, unfactored_cofactor=1)"),
    (PrimeAssignment(R(1, 2), 3), PrimeAssignment(R(3, 2), 3),
     "PrimeAssignment(cls=ResidueClass(a=1, b=2), prime=3)"),
    (SievedProgression(6, 1, "sierpinski", frozenset({3}), (("sierpinski", 0, 2, 3),)),
     SievedProgression(6, 1, "sierpinski", frozenset({3}), (("sierpinski", 0, 2, 3),)),
     "SievedProgression(A=6, B=1, kind='sierpinski', primes=frozenset({3}), "
     "certificate=(('sierpinski', 0, 2, 3),))"),
    (CHECK, CheckResult(True, None, 2, (("sierpinski", 0, 2, 3),), ""),
     "CheckResult(ok=True, witness=None, period=2, certificate=(('sierpinski', 0, 2, 3),), "
     "reason='')"),
    (BrierCheck(True, CHECK, CHECK), BrierCheck(True, CHECK, CHECK),
     f"BrierCheck(ok=True, sierpinski={CHECK!r}, riesel={CHECK!r})"),
    (ShiftResult(130, 1, 10, 3, 12, (2, 5, 13)), ShiftResult(130, 1, 10, 3, 12, (2, 5, 13)),
     "ShiftResult(A=130, B=1, base=10, ell=3, v=12, a_primes=(2, 5, 13))"),
    (LoadedCovering(CoveringSystem([R(0, 1)]), (None,)),
     LoadedCovering(CoveringSystem([R(0, 1)]), (None,)),
     "LoadedCovering(system=CoveringSystem(classes=(ResidueClass(a=0, b=1),), "
     "target=ResidueClass(a=0, b=1)), tags=(None,))"),
]


@pytest.mark.parametrize("record, twin, text", RECORDS,
                         ids=[type(r).__name__ for r, *_ in RECORDS])
def test_record_repr_equality_hash_and_immutability(record, twin, text):
    assert repr(record) == text
    assert record == twin and hash(record) == hash(twin)
    with pytest.raises(AttributeError):
        setattr(record, record.__match_args__[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_residue_class_normalizes_orders_and_prints():
    assert R(-1, 4) == R(3, 4) and R(-1, 4).a == 3 and R(9, 3) == R(0, 3)
    for b in (0, -2):
        with pytest.raises(ValueError, match=f"modulus must be >= 1, got {b}"):
            R(1, b)
    assert sorted([R(1, 3), R(0, 5), R(2, 2), R(0, 1)]) == [R(0, 1), R(0, 2), R(0, 5), R(1, 3)]
    assert R(0, 5) < R(1, 3) and str(R(7, 5)) == "2 (mod 5)"
    assert R(2, 5).contains(12) and not R(2, 5).contains(13)


def test_covering_system_keeps_its_construction_checks():
    s = CoveringSystem(iter([R(0, 2), R(1, 2)]))
    assert type(s.classes) is tuple and s.moduli() == [2, 2]
    with pytest.raises(ValueError, match=r"class 0 \(mod 4\) cannot intersect target 1 \(mod 2\)"):
        CoveringSystem([R(0, 4)], R(1, 2))


def test_record_defaults():
    assert Budget() == Budget(trial_limit=1_000_000, rho_rounds=500_000, rho_restarts=8)
    assert Verdict(True).witness is None
    r = CheckResult(False)
    assert (r.witness, r.period, r.certificate, r.reason) == (None, 0, (), "")
    assert not bool(r) and bool(CheckResult(True))
    assert not BrierCheck(False, CHECK, r) and BrierCheck(True, CHECK, CHECK)
    assert OrderPrimeSet(12, 2, (13,), True).unfactored_cofactor == 1
    f = FactorizationResult(((2, 3), (5, 1)))
    assert f.cofactor == 1 and f.complete and f.value() == 40 and f.primes() == [2, 5]


def test_reports_compare_by_value_and_own_their_lists():
    a, b = Report("audit"), Report("audit")
    assert a == b and a.ok and a.violations is not b.violations and a.facts is not b.facts
    a.violations.append("x")
    assert a != b and not a.ok and b.violations == [] and b.ok
    assert repr(a) == "Report(name='audit', violations=['x'], facts={})"


def test_appendix_data_is_the_one_dataclass():
    data = appendix_data()
    assert dataclasses.is_dataclass(data)
    swapped = dataclasses.replace(data, cov_sier=data.cov_ries)
    assert swapped.cov_sier == data.cov_ries and swapped.table1 == data.table1


def test_import_loads_neither_dataclasses_nor_inspect():
    # measured against a bare interpreter, so a site hook that preloads
    # modules does not count against the package
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "before = set(sys.modules)\n"
        "import coversieve\n"
        "print(' '.join(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""

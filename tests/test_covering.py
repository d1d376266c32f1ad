import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from coversieve.covering import (
    ALL_INTEGERS,
    CoveringSystem,
    ResidueClass,
    auto_w,
    covers_target,
    lcm_of_moduli,
    redundant_classes,
    satisfying_class,
    verify_naive,
    verify_partitioned,
)
from coversieve.dataset import appendix_data, c0_system
from coversieve.modarith import CapacityError

from sieve_data import APPENDIX_R_LCM, APPENDIX_S_LCM, TABLE2

TABLE1_CLASSES = [
    (2, 16), (10, 48), (26, 96), (74, 288), (170, 288), (266, 288),
    (42, 144), (90, 144), (138, 432), (282, 432), (426, 432),
]


def system(pairs, target=ALL_INTEGERS):
    return CoveringSystem(tuple(ResidueClass(a, b) for a, b in pairs), target)


def test_residue_class_normalization():
    assert ResidueClass(9, 3) == ResidueClass(0, 3)
    assert ResidueClass(-1, 5).a == 4
    with pytest.raises(ValueError):
        ResidueClass(0, 0)


def test_lcm_examples():
    assert lcm_of_moduli(c0_system()) == 9
    data = appendix_data()
    assert lcm_of_moduli(data.cov_sier.system) == APPENDIX_S_LCM
    assert lcm_of_moduli(data.cov_ries.system) == APPENDIX_R_LCM


def test_naive_examples():
    assert verify_naive(c0_system()).covered
    v = verify_naive(system([(0, 3), (1, 3), (2, 9), (5, 9)]))
    assert not v.covered and v.witness == 8
    assert verify_naive(system([(0, 1)])).covered


def test_naive_cap_redirects():
    data = appendix_data()
    with pytest.raises(CapacityError):
        verify_naive(data.cov_sier.system)


def test_partitioned_examples():
    assert verify_partitioned(c0_system(), w=3).covered
    v = verify_partitioned(system([(0, 3), (1, 3), (2, 9), (5, 9)]), w=3)
    assert not v.covered and v.witness == 8


def test_partitioned_huge_w_is_reduced_to_the_lcm():
    # w is cut to gcd(w, lcm); a loop over range(10**12) would never return
    assert verify_partitioned(c0_system(), w=10**12) == verify_naive(c0_system())
    uncovered = system([(0, 3), (1, 3), (2, 9), (5, 9)])
    assert verify_partitioned(uncovered, w=10**12) == verify_naive(uncovered)
    assert verify_partitioned(uncovered, w=10**12 + 1).witness == 8


def test_partitioned_empty_slice_witness():
    # only odd numbers covered: every even slice is empty at w = 2
    v = verify_partitioned(system([(1, 2)]), w=2)
    assert not v.covered and v.witness == 0


def test_auto_w_rule():
    data = appendix_data()
    assert auto_w(data.cov_sier.system) == 780   # 4 * 3 * 5 * 13
    assert auto_w(data.cov_ries.system) == 660   # 4 * 3 * 5 * 11
    assert auto_w(c0_system()) == 180            # 4 * 3 * 5 * 3


def test_satisfying_class_matches_table2():
    c0 = c0_system()
    for k, (a, b) in TABLE2.items():
        assert satisfying_class(c0, k) == ResidueClass(a, b)
    assert satisfying_class(system([(1, 2)]), 0) is None


def test_covers_target_table1():
    target = ResidueClass(2, 8)
    classes = [ResidueClass(a, b) for a, b in TABLE1_CLASSES]
    assert covers_target(classes, target).covered
    dropped = [c for c in classes if c != ResidueClass(426, 432)]
    v = covers_target(dropped, target)
    assert not v.covered
    assert v.witness % 8 == 2
    assert all(not c.contains(v.witness) for c in dropped)
    assert covers_target([target], target).covered


def test_covers_target_all_integers_equals_plain_verify():
    classes = list(c0_system().classes)
    assert covers_target(classes, ALL_INTEGERS).covered == verify_naive(c0_system()).covered


def test_target_incompatible_class_rejected():
    with pytest.raises(ValueError):
        system([(1, 16)], target=ResidueClass(2, 8))


def test_redundant_classes():
    assert redundant_classes(c0_system()) == []
    dup = system([(0, 3), (0, 3), (1, 3), (2, 9), (5, 9), (8, 9)])
    assert redundant_classes(dup) == [ResidueClass(0, 3)]
    both = system([(0, 1), (0, 2)])
    assert redundant_classes(both) == [ResidueClass(0, 2)]
    with pytest.raises(ValueError):
        redundant_classes(system([(1, 2)]))


def test_verdict_invariant_on_uncovered():
    v = verify_partitioned(system([(0, 4), (1, 4), (2, 4)]), w=6)
    assert not v.covered
    assert v.witness % 4 == 3


def test_slice_cap():
    data = appendix_data()
    with pytest.raises(CapacityError):
        verify_partitioned(data.cov_sier.system, w=7, slice_cap=10**4)


def _random_system(rng):
    masters = (360, 2520, 55440, 831600, 357, 253)
    m = rng.choice(masters)
    pool = [d for d in range(1, 361) if m % d == 0]
    k = rng.randint(1, 12)
    return system([(rng.randrange(b), b) for b in (rng.choice(pool) for _ in range(k))])


def test_equivalence_panel_small():
    rng = random.Random(424242)
    for _ in range(150):
        s = _random_system(rng)
        vn = verify_naive(s)
        for w in ("auto", 2, 7, 30):
            vp = verify_partitioned(s, w=w)
            assert vp.covered == vn.covered
            if not vp.covered:
                assert all(not c.contains(vp.witness) for c in s.classes)


def test_verifiers_against_literal_scan():
    # independent oracle: test every integer below the lcm one by one
    rng = random.Random(31415)
    for _ in range(120):
        pool = [d for d in range(1, 73) if 72 % d == 0] + [5, 10, 15, 7, 21]
        k = rng.randint(1, 9)
        classes = tuple(
            ResidueClass(rng.randrange(b), b) for b in (rng.choice(pool) for _ in range(k))
        )
        s = CoveringSystem(classes)
        ell = lcm_of_moduli(s)
        literal = None
        for n in range(ell):
            if not any(c.contains(n) for c in classes):
                literal = n
                break
        vn = verify_naive(s)
        vp = verify_partitioned(s)
        assert vn.covered == vp.covered == (literal is None)
        if literal is not None:
            assert vn.witness == literal


def test_equivalence_panel_with_targets():
    rng = random.Random(99)
    for _ in range(60):
        tb = rng.choice((2, 4, 6, 8, 12))
        ta = rng.randrange(tb)
        target = ResidueClass(ta, tb)
        want = rng.randint(1, 8)
        classes = []
        while len(classes) < want:
            b = rng.choice((2, 3, 4, 6, 8, 12, 24, 36, 72))
            a = rng.randrange(b)
            g = math.gcd(b, tb)
            if a % g == ta % g:
                classes.append(ResidueClass(a, b))
        s = CoveringSystem(tuple(classes), target)
        vn = verify_naive(s)
        vp = verify_partitioned(s)
        assert vn.covered == vp.covered
        for v in (vn, vp):
            if not v.covered:
                assert v.witness % tb == ta
                assert all(not c.contains(v.witness) for c in classes)


def test_permutation_invariance():
    rng = random.Random(7)
    for _ in range(40):
        s = _random_system(rng)
        base = verify_naive(s).covered
        perm = list(s.classes)
        rng.shuffle(perm)
        assert verify_naive(CoveringSystem(tuple(perm))).covered == base
        assert verify_partitioned(CoveringSystem(tuple(perm))).covered == base


def test_periodicity_spot_check():
    c0 = c0_system()
    ell = lcm_of_moduli(c0)
    assert verify_naive(c0).covered
    for n in range(0, 10 * ell):
        assert satisfying_class(c0, n) is not None


@given(st.integers(0, 10**9))
@settings(max_examples=300)
def test_covered_system_has_class_for_every_integer(n):
    assert satisfying_class(c0_system(), n) is not None

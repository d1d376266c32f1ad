import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from coversieve import covering
from coversieve.covering import (
    ALL_INTEGERS,
    CoveringSystem,
    ResidueClass,
    Verdict,
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


def test_w7_verifies_sierpinski():
    # one slice per residue mod 7 runs 3.4e10 residues long: the residue
    # tree splits it, where a whole-slice scan was refused
    assert verify_partitioned(appendix_data().cov_sier.system, w=7) == Verdict(True)


def test_work_bound(monkeypatch):
    s = appendix_data().cov_sier.system
    # 780 root children fit, the scans on top of them do not
    monkeypatch.setattr(covering, "WORK_CAP", 780)
    with pytest.raises(CapacityError, match="more than 780 work units"):
        verify_partitioned(s)
    # a split is charged for its p children before any child is built:
    # the prime 1048583 > 2^20 alone asks for more children than the bound
    monkeypatch.undo()
    children = covering._children
    def spy(classes, u, w, m):
        assert m != 1048583, "the split by 1048583 was built"
        return children(classes, u, w, m)
    monkeypatch.setattr(covering, "_children", spy)
    with pytest.raises(CapacityError, match=f"more than {covering.WORK_CAP} work units"):
        verify_partitioned(system([(0, 1048583)]), w=1)


def test_root_split_beyond_the_bound_is_refused(monkeypatch):
    # the root split by gcd(w, lcm) is charged before any child is built
    # or scanned: the whole lcm, and 7800 children under a bound of 780
    s = appendix_data().cov_sier.system
    calls = []
    monkeypatch.setattr(covering, "_children", lambda *args: calls.append(args))
    monkeypatch.setattr(covering, "_first_uncovered", lambda *args: calls.append(args))
    with pytest.raises(CapacityError, match=f"more than {covering.WORK_CAP} work units"):
        verify_partitioned(s, w=10 * APPENDIX_S_LCM)
    monkeypatch.setattr(covering, "WORK_CAP", 780)
    with pytest.raises(CapacityError, match="more than 780 work units"):
        verify_partitioned(s, w=7800)
    assert calls == []


def test_work_bound_counts_class_entries(monkeypatch):
    # 640 classes mod 7 enter each of the three nodes below the root's one
    # child, so 1929 class entries cost 30 units, where the nodes and the
    # scans cost about 4: a node count alone would pass a bound of 20
    monkeypatch.setattr(covering, "_CHUNK", 64)
    s = system([(0, 2), (0, 3), (1, 9)] + [(a % 7, 7) for a in range(640)])
    spent = []
    charge = covering._Work.charge
    def spy(self, nodes=0, entries=0, residues=0):
        spent.append((nodes << 16) + residues)
        charge(self, nodes, entries, residues)
    monkeypatch.setattr(covering._Work, "charge", spy)
    assert verify_partitioned(s, w=1) == Verdict(True)
    assert sum(spent) < 5 << 16
    monkeypatch.setattr(covering, "WORK_CAP", 20)
    with pytest.raises(CapacityError, match="more than 20 work units"):
        verify_partitioned(s, w=1)


def _random_system(rng):
    masters = (360, 2520, 55440, 831600, 357, 253)
    m = rng.choice(masters)
    pool = [d for d in range(1, 361) if m % d == 0]
    k = rng.randint(1, 12)
    return system([(rng.randrange(b), b) for b in (rng.choice(pool) for _ in range(k))])


def _one_gap_system(x):
    # every class mod m but x mod m, for moduli with lcm 1663200 > 2**20:
    # by the CRT, x is the only uncovered residue below the lcm
    return system([(a, m) for m in (32, 27, 25, 7, 11) for a in range(m) if a != x % m])


def test_equivalence_panel_small():
    rng = random.Random(424242)
    for _ in range(150):
        s = _random_system(rng)
        vn = verify_naive(s)
        for w in ("auto", 1, 2, 7, 30):
            assert verify_partitioned(s, w=w) == vn
        if not vn.covered:
            assert all(not c.contains(vn.witness) for c in s.classes)


def test_partitioned_skips_slices_a_class_contains(monkeypatch):
    # (0 mod 1) contains every slice, so no slice is scanned
    monkeypatch.setattr(covering, "_first_uncovered", None)
    s = system([(1, 1000), (0, 1)])
    assert verify_partitioned(s, w=10) == Verdict(True)


def test_tree_prunes_children_a_class_contains(monkeypatch):
    # split on 2 at w=1: (0 mod 2) contains child 0 whole; child 1, the
    # odd y, is split on 3, and (1 mod 6) and (5 mod 6) contain two of its
    # children, so only y ≡ 3 (mod 6) is scanned, over 192/6 residues
    s = system([(0, 2), (1, 6), (5, 6), (3, 192)])
    assert verify_naive(s) == Verdict(False, 9)
    monkeypatch.setattr(covering, "_CHUNK", 64)
    scanned = []
    first_uncovered = covering._first_uncovered
    def spy(classes, count):
        scanned.append(count)
        return first_uncovered(classes, count)
    monkeypatch.setattr(covering, "_first_uncovered", spy)
    assert verify_partitioned(s, w=1) == Verdict(False, 9)
    assert scanned == [32]


def test_prime_split_builds_no_child_a_modulus_p_class_contains(monkeypatch):
    # with one chunk of 8 residues the root's one child, period 14, splits
    # on 7; the classes mod 7 contain every child of that split but s = 1
    monkeypatch.setattr(covering, "_CHUNK", 8)
    s = system([(a, 7) for a in (0, 2, 3, 4, 5, 6)] + [(1, 14), (8, 14)])
    built = {}
    children = covering._children
    def spy(classes, u, w, m):
        for node in children(classes, u, w, m):
            built.setdefault(m, []).append(node[1])
            yield node
    monkeypatch.setattr(covering, "_children", spy)
    assert verify_partitioned(s, w=1) == Verdict(True)
    assert built == {1: [0], 7: [1]}


def test_uncovered_system_builds_no_child_past_the_least_gap(monkeypatch):
    # each scan is of the child yielded just before it, so the spies can
    # follow the least gap found so far: a level yields no child after
    # its first one that is not below that gap
    monkeypatch.setattr(covering, "_CHUNK", 8)
    s = system([(0, 2), (0, 3), (0, 5), (1, 2310)])
    events = []
    children, first_uncovered = covering._children, covering._first_uncovered
    def spy_children(classes, u, w, m):
        level = object()
        for node in children(classes, u, w, m):
            events.append((level, node[1], node[2]))
            yield node
    def spy_scan(classes, count):
        gap = first_uncovered(classes, count)
        events.append(gap)
        return gap
    monkeypatch.setattr(covering, "_children", spy_children)
    monkeypatch.setattr(covering, "_first_uncovered", spy_scan)
    assert verify_partitioned(s, w=30) == verify_naive(s) == Verdict(False, 7)
    best, stopped = math.inf, []
    for event in events:
        if isinstance(event, tuple):
            level, u, w = event
            assert level not in stopped
            if u >= best:
                stopped.append(level)
        elif event is not None:
            best = min(best, u + w * event)
    # 211, then 31, then 7: the splits by 11, by 7 and by 30 each stop
    assert best == 7 and len(stopped) == 3


def test_deep_tree_needs_no_recursion():
    # 0 (mod 2^3000) splits about three thousand times on 2, child 0 first,
    # one level at a time
    deep = system([(0, 2**3000)])
    assert verify_partitioned(deep) == verify_partitioned(deep, w=1) == Verdict(False, 1)


def test_partitioned_in_several_slice_windows(monkeypatch):
    monkeypatch.setattr(covering, "_SLICES", 7)
    assert verify_partitioned(appendix_data().cov_sier.system) == Verdict(True)
    x = 1_600_001
    assert verify_partitioned(_one_gap_system(x)) == Verdict(False, x)
    rng = random.Random(1618)
    for _ in range(40):
        s = _random_system(rng)
        vn = verify_naive(s)
        for w in ("auto", 7, 30):
            assert verify_partitioned(s, w=w) == vn


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
        for w in ("auto", 1, 2, 7, 30):
            assert verify_partitioned(s, w=w) == vn
        if not vn.covered:
            assert vn.witness % tb == ta
            assert all(not c.contains(vn.witness) for c in classes)


def test_equivalence_panels_through_the_residue_tree(monkeypatch):
    # with one chunk of 64 residues, most slices of the panels' systems are
    # split by the residue tree before their leaves are scanned
    monkeypatch.setattr(covering, "_CHUNK", 64)
    test_equivalence_panel_small()
    test_equivalence_panel_with_targets()


def _literal_gap(classes, count):
    residues = {}
    for a, b in classes:
        residues.setdefault(b, set()).add(a % b)
    for n in range(count):
        if all(n % b not in rs for b, rs in residues.items()):
            return n
    return None


@pytest.mark.parametrize("limits", [{}, {"_CHUNK": 64}, {"_CHUNK": 64, "_TILE": 256}])
def test_first_uncovered_matches_literal_scan(monkeypatch, limits):
    # near-covers of a few moduli leave sparse candidates, so gaps fall late
    # or nowhere; the moduli's lcm lies on both sides of the tile bound, and
    # counts on both sides of the tiling threshold
    for name, value in limits.items():
        monkeypatch.setattr(covering, name, value)
    rng = random.Random(2718)
    for i in range(60):
        classes = []
        moduli = (1, 2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 49, 64, 81, 125)
        for b in rng.sample(moduli, rng.randint(2, 6)):
            residues = rng.sample(range(b), b)
            classes += [(a, b) for a in residues[:rng.randint(1, b)]]
        rng.shuffle(classes)
        tile = covering._TILE
        if i % 4 == 0:
            count = rng.randint(tile + 1, tile + 3000)
        else:
            count = rng.randint(1, min(4 * tile, 3000))
        assert covering._first_uncovered(classes, count) == _literal_gap(classes, count)


def test_single_gap_past_the_first_chunk():
    x = 1_600_001
    assert x > 1 << 20
    s = _one_gap_system(x)
    assert verify_naive(s) == Verdict(False, x)
    assert verify_partitioned(s) == Verdict(False, x)
    assert verify_partitioned(s, w=30) == Verdict(False, x)
    # a scan stopping at x must not report x from the padding of its last chunk
    classes = [(c.a, c.b) for c in s.classes]
    assert covering._first_uncovered(classes, x) is None
    assert covering._first_uncovered(classes, x + 1) == x


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


def _dropped_class_gap(classes, i, steps=4096):
    """Least member of classes[i] in no other class, testing its first
    `steps` members one at a time (None if all of those are covered): for
    a covering, the least gap left by dropping classes[i]."""
    a, b = classes[i]
    rest = classes[:i] + classes[i + 1:]
    for n in range(a, a + b * steps, b):
        if not any(n % b2 == a2 for a2, b2 in rest):
            return n
    return None


@pytest.mark.parametrize("name", ["sierpinski", "riesel"])
def test_embedded_mutants_against_literal_scan(name):
    s = getattr(appendix_data(), "cov_" + name[:4]).system
    classes = [(c.a, c.b) for c in s.classes]
    order = list(range(len(classes)))
    random.Random(6).shuffle(order)
    # the first 20 classes, in a seeded order, whose gap the literal scan finds
    drops = ((i, x) for i in order if (x := _dropped_class_gap(classes, i)) is not None)
    for i, x in itertools.islice(drops, 20):
        mutant = system(classes[:i] + classes[i + 1:])
        assert verify_partitioned(mutant) == Verdict(False, x)


def test_lifted_covering_beyond_1e15():
    # each of three classes (a, b) becomes its q lifts (a + b*i, q*b): the
    # same integers, over an lcm 17*19*23 = 7429 times the Sierpinski one
    classes = [(c.a, c.b) for c in appendix_data().cov_sier.system.classes]
    for q in (17, 19, 23):
        a, b = classes.pop(0)
        classes += [(a + b * i, q * b) for i in range(q)]
    lifted = system(classes)
    assert lcm_of_moduli(lifted) == 7429 * APPENDIX_S_LCM > 10**15
    assert verify_partitioned(lifted) == Verdict(True)
    i = len(classes) - 5  # a lift over 23
    witness = _dropped_class_gap(classes, i)
    mutant = system(classes[:i] + classes[i + 1:])
    for w in (780, 1):
        assert verify_partitioned(mutant, w=w) == Verdict(False, witness)

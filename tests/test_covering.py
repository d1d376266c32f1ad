import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from coversieve import covering, modarith
from coversieve.covering import (
    ALL_INTEGERS,
    CoveringSystem,
    ResidueClass,
    Verdict,
    auto_w,
    lcm_of_moduli,
    satisfying_class,
    verify_naive,
    verify_partitioned,
)
from coversieve.dataset import appendix_data, c0_system
from coversieve.modarith import Budget, CapacityError, factor

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
    assert verify_partitioned(c0_system()).covered
    v = verify_partitioned(system([(0, 3), (1, 3), (2, 9), (5, 9)]))
    assert not v.covered and v.witness == 8
    with pytest.raises(ValueError, match="w must be an integer or 'auto', got 'x'"):
        verify_partitioned(c0_system(), w="x")
    with pytest.raises(ValueError, match="w must be >= 1, got 0"):
        verify_partitioned(c0_system(), w=0)


def test_partitioned_huge_w_is_reduced_to_the_lcm(monkeypatch):
    # with one chunk of 4 residues and a tile of 8 the root, period 9, is
    # split on its primes; a huge w is checked and then ignored, where a
    # loop over range(w) would never return
    monkeypatch.setattr(covering, "_CHUNK", 4)
    monkeypatch.setattr(covering, "_TILE", 8)
    w = 3 * 10**12
    assert verify_partitioned(c0_system(), w=w) == verify_naive(c0_system())
    uncovered = system([(0, 3), (1, 3), (2, 9), (5, 9)])
    assert verify_partitioned(uncovered, w=w) == verify_naive(uncovered)
    assert verify_partitioned(uncovered, w=w + 1).witness == 8


def test_partitioned_empty_slice_witness(monkeypatch):
    # odd numbers and 0 (mod 4) covered: past the splits on 2 the node
    # 2 (mod 4) meets no class; with a one-residue tile the prefix scan sees
    # only y = 0
    monkeypatch.setattr(covering, "_CHUNK", 1)
    monkeypatch.setattr(covering, "_TILE", 1)
    v = verify_partitioned(system([(1, 2), (0, 4)]))
    assert not v.covered and v.witness == 2


def test_root_within_one_chunk_is_scanned_not_split(monkeypatch):
    # a root whose period fits one chunk is scanned: 2^20 children under
    # WORK_CAP = 10^5 would be refused
    s = system([(0, 2**20)])
    assert verify_partitioned(s) == verify_naive(s) == Verdict(False, 1)
    # and it factors nothing
    monkeypatch.setattr(modarith, "factor", None)
    assert verify_partitioned(c0_system()) == Verdict(True)


def test_unfactorable_modulus_is_refused_by_name(monkeypatch):
    # a starved factoring leaves the semiprime (2^61-1)(2^64-59) whole (the
    # default budget's p-1 stage splits it).  The root's prefix scan finds
    # the gaps of (0 mod n), alone and beside (1 mod 2), without factoring;
    # beside (0 mod 2) and (1 mod 2) it finds none, and the tree, whose every
    # split would be by 2, still needs the primes of every modulus
    n = (2**61 - 1) * (2**64 - 59)
    def no_factor(b):
        raise AssertionError(f"factored {b}")
    monkeypatch.setattr(modarith, "factor", no_factor)
    for pairs, gap in (([(0, n)], 1), ([(0, n), (1, 2)], 2)):
        assert verify_partitioned(system(pairs)) == Verdict(False, gap)
    starved = Budget(trial_limit=100, rho_rounds=10, rho_restarts=1)
    monkeypatch.setattr(modarith, "factor", lambda b: factor(b, starved))
    with pytest.raises(CapacityError, match=f"cannot factor modulus {n} "):
        verify_partitioned(system([(0, 2), (1, 2), (0, n)]))


def test_work_primes_factor_only_what_is_left(monkeypatch):
    """Each modulus loses the primes already found before factor() sees it,
    and the primes are those of every modulus factored whole; a modulus
    whose rest stays unfactored is still refused by its own name."""
    classes = covering._offset_form(appendix_data().cov_ries.system)[0]
    seen = []
    monkeypatch.setattr(modarith, "factor", lambda b: seen.append(b) or factor(b))
    primes = covering._primes(classes)
    moduli = {b for _, b in classes if b > 1}
    assert primes == sorted({p for b in moduli for p in factor(b).primes()})
    assert 1 not in seen and len(seen) < len(moduli)
    for i, b in enumerate(seen):
        assert math.gcd(b, math.prod(seen[:i])) == 1
    # a modulus past the int-to-str digit limit is formatted only to refuse it
    assert covering._primes([(0, 3 << 15000)]) == [2, 3]
    n = (2**61 - 1) * (2**64 - 59)
    starved = Budget(trial_limit=100, rho_rounds=10, rho_restarts=1)
    monkeypatch.setattr(modarith, "factor", lambda b: factor(b, starved))
    with pytest.raises(CapacityError, match=f"cannot factor modulus {2 * n} "):
        covering._primes([(0, 2), (1, 4), (0, 2 * n)])


def test_refusal_past_the_digit_limit_names_the_modulus_by_size(monkeypatch):
    """An unfactored modulus past the int-to-str digit limit is refused by
    its own CapacityError, naming its size, not by the limit's ValueError."""
    b = (2**61 - 1) * (2**64 - 59) * 3**9000
    starved = Budget(trial_limit=100, rho_rounds=10, rho_restarts=1)
    monkeypatch.setattr(modarith, "factor", lambda n: factor(n, starved))
    with pytest.raises(CapacityError,
                       match=f"^cannot factor modulus a {b.bit_length()}-bit number within "):
        covering._primes([(0, b)])


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


def test_verify_partitioned_target_table1():
    target = ResidueClass(2, 8)
    classes = [ResidueClass(a, b) for a, b in TABLE1_CLASSES]
    assert verify_partitioned(CoveringSystem(tuple(classes), target)).covered
    dropped = [c for c in classes if c != ResidueClass(426, 432)]
    v = verify_partitioned(CoveringSystem(tuple(dropped), target))
    assert not v.covered
    assert v.witness % 8 == 2
    assert all(not c.contains(v.witness) for c in dropped)
    assert verify_partitioned(CoveringSystem((target,), target)).covered


def test_verify_partitioned_all_integers_target_equals_plain_verify():
    s = CoveringSystem(c0_system().classes, ALL_INTEGERS)
    assert verify_partitioned(s).covered == verify_naive(c0_system()).covered


def test_target_incompatible_class_rejected():
    with pytest.raises(ValueError):
        system([(1, 16)], target=ResidueClass(2, 8))
    for empty in ((), (c for c in [])):
        with pytest.raises(ValueError, match="at least one class"):
            CoveringSystem(empty)


def test_verdict_invariant_on_uncovered():
    v = verify_partitioned(system([(0, 4), (1, 4), (2, 4)]))
    assert not v.covered
    assert v.witness % 4 == 3


def test_w7_verifies_sierpinski():
    # 7 once cut the root into slices 3.4e10 residues long; the width is
    # ignored now and the residue tree verifies the covering as at auto
    assert verify_partitioned(appendix_data().cov_sier.system, w=7) == Verdict(True)


def test_work_bound(monkeypatch):
    s = appendix_data().cov_sier.system
    # the 447-class covering spends 180 units
    monkeypatch.setattr(covering, "WORK_CAP", 100)
    with pytest.raises(CapacityError, match="more than 100 work units"):
        verify_partitioned(s)
    # a split is charged for its p children before any child is built: past
    # the prefix, the node 0 (mod 2^16) holds (0 mod 1048583 * 1048601),
    # whose prime 1048583 > 2^20 alone asks for more children than the
    # bound, and whose scan would cost more still; the one scan is the prefix
    monkeypatch.undo()
    children, first_uncovered = covering._children, covering._first_uncovered
    def spy(classes, u, step, m):
        assert m != 1048583, "the split by 1048583 was built"
        return children(classes, u, step, m)
    scans = []
    def spy_scan(classes, count):
        scans.append(count)
        return first_uncovered(classes, count)
    monkeypatch.setattr(covering, "_children", spy)
    monkeypatch.setattr(covering, "_first_uncovered", spy_scan)
    with pytest.raises(CapacityError, match=f"more than {covering.WORK_CAP} work units"):
        verify_partitioned(_beyond_the_prefix([(0, 1048583 * 1048601)]))
    assert scans == [covering._TILE]


def test_work_bound_counts_class_entries(monkeypatch):
    # 640 classes mod 7^4 cover about a quarter of the root, (0 mod 2),
    # (1 mod 4), (3 mod 8) and (7 mod 8) all of it, so each node splits on
    # 2: the root, then y = 1 (mod 2), then y = 3 (mod 4), whose children
    # are all whole.  The 640 classes sit in all three nodes, so 1929 class
    # entries cost 30 units, where the six children cost 6: a node count
    # alone would pass a bound of 20.  The root's period, 19,208, is not
    # above _TILE, so it scans no prefix
    monkeypatch.setattr(covering, "_CHUNK", 64)
    s = system([(0, 2), (1, 4), (3, 8), (7, 8)] + [(a, 7**4) for a in range(640)])
    spent = []
    charge = covering._Work.charge
    def spy(self, nodes=0, entries=0, residues=0):
        spent.append((nodes << 16) + residues)
        charge(self, nodes, entries, residues)
    monkeypatch.setattr(covering._Work, "charge", spy)
    assert verify_partitioned(s) == Verdict(True)
    assert sum(spent) == 6 << 16
    monkeypatch.setattr(covering, "WORK_CAP", 20)
    with pytest.raises(CapacityError, match="more than 20 work units"):
        verify_partitioned(s)


def _random_system(rng):
    masters = (360, 2520, 55440, 831600, 357, 253)
    m = rng.choice(masters)
    pool = [d for d in range(1, 361) if m % d == 0]
    k = rng.randint(1, 12)
    return system([(rng.randrange(b), b) for b in (rng.choice(pool) for _ in range(k))])


def _beyond_the_prefix(pairs):
    # the classes 2^i (mod 2^(i+1)), i < 16, hold every y below 2^16 but 0,
    # and the pairs, scaled by 2^16, sit in the node y = 0 (mod 2^16): a
    # system whose gaps are 2^16 times the pairs' gaps, none in the root's
    # prefix scan of 2^16 members, once some pair holds 0
    lows = [(1 << i, 2 << i) for i in range(16)]
    return system(lows + [(a << 16, b << 16) for a, b in pairs])


def _one_gap_system(x):
    # every class mod m but x mod m, for moduli with lcm 1663200 > 2**20:
    # by the CRT, x is the only uncovered residue below the lcm
    return system([(a, m) for m in (32, 27, 25, 7, 11) for a in range(m) if a != x % m])


def test_library_verdicts_beyond_one_chunk_match_naive():
    # lcm 1663200 lies between 2^20 and NAIVE_CAP
    x = 1_600_001
    gap = _one_gap_system(x)
    assert verify_partitioned(gap) == verify_naive(gap) == Verdict(False, x)
    # the class (x mod 1663200) closes the gap
    s = system([(c.a, c.b) for c in gap.classes] + [(x, 1663200)])
    assert verify_partitioned(s) == verify_naive(s) == Verdict(True)


def test_library_scans_a_root_whose_split_costs_more(monkeypatch):
    # lcms 4000012 and 3000009 lie below NAIVE_CAP.  With a one-residue
    # tile the prefix scan sees only y = 0, which both systems cover; the
    # second root, whose classes mod q = 1000003 cover the most of it, would
    # split into q children, more than its scan of 3q residues costs, so it
    # is scanned instead
    q = 1000003
    monkeypatch.setattr(covering, "_TILE", 1)
    scans = []
    first_uncovered = covering._first_uncovered
    def spy(classes, count):
        scans.append(count)
        return first_uncovered(classes, count)
    monkeypatch.setattr(covering, "_first_uncovered", spy)
    for pairs in ([(0, 2), (1, 4), (3, 4 * q)], [(0, q), (1, q), (2, 3 * q)]):
        s = system(pairs)
        want = verify_naive(s)
        assert not want.covered
        assert verify_partitioned(s) == want
    assert 3 * q in scans


def test_equivalence_panel_small():
    rng = random.Random(424242)
    for _ in range(150):
        s = _random_system(rng)
        vn = verify_naive(s)
        assert verify_partitioned(s) == vn
        if not vn.covered:
            assert all(not c.contains(vn.witness) for c in s.classes)


def test_partitioned_skips_slices_a_class_contains(monkeypatch):
    # (0 mod 1) contains the whole root, so nothing is scanned
    monkeypatch.setattr(covering, "_first_uncovered", None)
    s = system([(1, 1000), (0, 1)])
    assert verify_partitioned(s) == Verdict(True)


def test_tree_prunes_children_a_class_contains(monkeypatch):
    # the root's prefix scan of a tile of 8 residues finds no gap below 9;
    # then split on 2: (0 mod 2) contains child 0 whole; child 1, the
    # odd y, is split on 3, and (1 mod 6) and (5 mod 6) contain two of its
    # children, so only y ≡ 3 (mod 6) is scanned, over 192/6 residues
    s = system([(0, 2), (1, 6), (5, 6), (3, 192)])
    assert verify_naive(s) == Verdict(False, 9)
    monkeypatch.setattr(covering, "_CHUNK", 64)
    monkeypatch.setattr(covering, "_TILE", 8)
    scanned = []
    first_uncovered = covering._first_uncovered
    def spy(classes, count):
        scanned.append(count)
        return first_uncovered(classes, count)
    monkeypatch.setattr(covering, "_first_uncovered", spy)
    assert verify_partitioned(s) == Verdict(False, 9)
    assert scanned == [8, 32]


def test_prime_split_builds_no_child_a_modulus_p_class_contains(monkeypatch):
    # with one chunk of 8 residues the root, period 14, splits on 7; the
    # classes mod 7 contain every child of that split but s = 1.  The same
    # holds for a split on 4099, a prime above the 4096 children that
    # splits once collected at a time
    monkeypatch.setattr(covering, "_CHUNK", 8)
    built = {}
    children = covering._children
    def spy(classes, u, step, m):
        for node in children(classes, u, step, m):
            built.setdefault(m, []).append(node[1])
            yield node
    monkeypatch.setattr(covering, "_children", spy)
    for classes, expected in [
        ([(a, 7) for a in (0, 2, 3, 4, 5, 6)] + [(1, 14), (8, 14)], {7: [1]}),
        ([(a, 4099) for a in range(1, 4099)] + [(0, 8198), (4099, 8198)], {4099: [0]}),
    ]:
        built.clear()
        assert verify_partitioned(system(classes)) == Verdict(True)
        assert built == expected


def test_uncovered_system_builds_no_child_past_the_least_gap(monkeypatch):
    # each scan but the root's prefix, which finds no gap in a tile of 4
    # residues, is of the child yielded just before it, so the spies can
    # follow the least gap found so far: a level yields no child after
    # its first one that is not below that gap
    monkeypatch.setattr(covering, "_CHUNK", 8)
    monkeypatch.setattr(covering, "_TILE", 4)
    s = system([(0, 2), (0, 3), (0, 5), (1, 2310)])
    events = []
    children, first_uncovered = covering._children, covering._first_uncovered
    def spy_children(classes, u, step, m):
        level = object()
        for node in children(classes, u, step, m):
            events.append((level, node[1], node[2]))
            yield node
    def spy_scan(classes, count):
        gap = first_uncovered(classes, count)
        events.append(gap)
        return gap
    monkeypatch.setattr(covering, "_children", spy_children)
    monkeypatch.setattr(covering, "_first_uncovered", spy_scan)
    assert verify_partitioned(s) == verify_naive(s) == Verdict(False, 7)
    best, stopped = math.inf, []
    for event in events:
        if isinstance(event, tuple):
            level, u, step = event
            assert level not in stopped
            if u >= best:
                stopped.append(level)
        elif event is not None:
            best = min(best, u + step * event)
    # the root splits on 2, then 3, 5, 7 and 11; 211, then 31, then 7: the
    # splits by 11, by 7 and by 5 each stop
    assert best == 7 and len(stopped) == 3


def test_deep_tree_needs_no_recursion():
    # past the prefix, 0 (mod 2^3000) splits about three thousand times on
    # 2, child 0 first, one level at a time
    deep = _beyond_the_prefix([(0, 2**2984)])
    assert verify_partitioned(deep) == Verdict(False, 1 << 16)


def test_partitioned_in_several_slice_windows():
    # splits no longer collect their children in windows: each is built
    # alone, so this runs at the default sizes
    assert verify_partitioned(appendix_data().cov_sier.system) == Verdict(True)
    x = 1_600_001
    assert verify_partitioned(_one_gap_system(x)) == Verdict(False, x)
    rng = random.Random(1618)
    for _ in range(40):
        s = _random_system(rng)
        assert verify_partitioned(s) == verify_naive(s)


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
        assert verify_partitioned(s) == vn
        if not vn.covered:
            assert vn.witness % tb == ta
            assert all(not c.contains(vn.witness) for c in classes)


def test_equivalence_panels_through_the_residue_tree(monkeypatch):
    # with one chunk of 64 residues, most slices of the panels' systems are
    # split by the residue tree before their leaves are scanned; with a
    # one-residue tile the root's prefix scan sees only y = 0, so uncovered
    # systems reach the tree too
    monkeypatch.setattr(covering, "_CHUNK", 64)
    monkeypatch.setattr(covering, "_TILE", 1)
    test_equivalence_panel_small()
    test_equivalence_panel_with_targets()


def test_random_systems_split_on_the_prime_covering_the_most(monkeypatch):
    # with one chunk of 8 residues and a one-residue tile, the random
    # systems reach the residue tree's splits.  Each gives the naive
    # verdict, and each split is on the least prime q
    # whose classes cover the most of the node: the largest sum of
    # period/b' * len(residues) over its groups (b, b', residues) with
    # q | b', b' being a modulus in the node's own coordinate
    monkeypatch.setattr(covering, "_CHUNK", 8)
    monkeypatch.setattr(covering, "_TILE", 1)
    splits = []
    children = covering._children
    def spy(groups, u, step, m):
        splits.append((groups, m))
        return children(groups, u, step, m)
    monkeypatch.setattr(covering, "_children", spy)
    rng = random.Random(4817)
    checked = 0
    for _ in range(150):
        s = _random_system(rng)
        vn = verify_naive(s)
        splits.clear()
        assert verify_partitioned(s) == vn
        for groups, m in splits:
            period = math.lcm(*(bp for _, bp, _ in groups))
            primes = sorted({q for _, bp, _ in groups for q, _ in factor(bp).factors})
            share = [sum(period // bp * len(rs) for _, bp, rs in groups if bp % q == 0)
                     for q in primes]
            assert m == primes[share.index(max(share))]
        checked += len(splits)
    assert checked > 200


def test_prime_split_hands_children_the_groups_it_leaves_alone(monkeypatch):
    # a node keeps its classes as the root has them, grouped by modulus: a
    # split by a prime q hands every child it builds the very residue list
    # of each group whose modulus in the node q does not divide, uncopied
    children = covering._children
    kept = []
    def spy(groups, u, step, m):
        alone = [rs for _, bp, rs in groups if bp % m]
        for child in children(groups, u, step, m):
            held = [rs for _, _, rs in child[0]]
            assert all(any(r is rs for r in held) for rs in alone)
            kept.append(len(alone))
            yield child
    monkeypatch.setattr(covering, "_children", spy)
    data = appendix_data()
    for s in (data.cov_sier.system, data.cov_ries.system):
        kept.clear()
        assert verify_partitioned(s) == Verdict(True)
        assert len(kept) > 40 and sum(kept) > 500
    monkeypatch.setattr(covering, "_CHUNK", 8)
    monkeypatch.setattr(covering, "_TILE", 1)
    rng = random.Random(1729)
    kept.clear()
    for _ in range(60):
        s = _random_system(rng)
        assert verify_partitioned(s) == verify_naive(s)
    assert sum(kept) > 100


def test_scanned_node_holds_the_literal_rewrite_of_the_classes_meeting_it(monkeypatch):
    # a node y = u (mod step) rewrites its classes only when it is scanned:
    # it must then hold, for each class (a, b) with a member u + step*z,
    # the class (least such z, b/gcd(b, step)), found here by trying every
    # z below b.  Each scan past the root's is of the child yielded just
    # before it
    monkeypatch.setattr(covering, "_CHUNK", 8)
    monkeypatch.setattr(covering, "_TILE", 1)
    node, scanned = [None], []
    children, first_uncovered = covering._children, covering._first_uncovered
    def spy_children(*args):
        for child in children(*args):
            node[0] = child[1:]
            yield child
    def spy_scan(classes, count):
        if node[0] is not None:
            scanned.append((node[0], sorted(classes)))
        return first_uncovered(classes, count)
    monkeypatch.setattr(covering, "_children", spy_children)
    monkeypatch.setattr(covering, "_first_uncovered", spy_scan)
    rng = random.Random(2029)
    checked = 0
    for _ in range(800):
        s = _random_system(rng)
        pairs = [(c.a, c.b) for c in s.classes]
        node[0] = None
        scanned.clear()
        verify_partitioned(s)
        for (u, step), classes in scanned:
            want = []
            for a, b in pairs:
                zs = [z for z in range(b) if (u + step * z - a) % b == 0]
                if zs:
                    want.append((zs[0], b // math.gcd(b, step)))
            assert classes == sorted(want)
        checked += len(scanned)
    assert checked > 200


def _lifted_classes():
    # each of three classes (a, b) of the Sierpinski covering becomes its q
    # lifts (a + b*i, q*b): the same integers, over an lcm 17*19*23 = 7429
    # times the Sierpinski one
    classes = [(c.a, c.b) for c in appendix_data().cov_sier.system.classes]
    for q in (17, 19, 23):
        a, b = classes.pop(0)
        classes += [(a + b * i, q * b) for i in range(q)]
    return classes


def test_auto_is_the_tree_alone(monkeypatch):
    # every split is on a prime whatever w is: each accepted w gives the
    # verdict of w="auto" for exactly its work, and none calls auto_w; on
    # the lift that is a few hundred units, where a first split by the
    # paper's width 4*3*5*23 took about 49,000
    spent = []
    least_gap = covering._least_gap
    def spy(classes, work):
        gap = least_gap(classes, work)
        spent.append(work.spent)
        return gap
    def refuse(system):
        raise AssertionError("auto_w was called")
    monkeypatch.setattr(covering, "_least_gap", spy)
    monkeypatch.setattr(covering, "auto_w", refuse)
    data = appendix_data()
    for s in (data.cov_sier.system, data.cov_ries.system, system(_lifted_classes())):
        spent.clear()
        want = verify_partitioned(s)
        assert want == Verdict(True)
        for w in (1, 7, 660, 780, 10**12):
            assert verify_partitioned(s, w=w) == want
        assert spent == spent[:1] * 6, spent
    assert spent[-1] < 1000 << 16


@pytest.mark.parametrize("name, w, spent", [
    ("sierpinski", "auto", 11_769_998), ("riesel", "auto", 46_557_270),
    ("lift", "auto", 16_201_870)])
def test_work_spent_on_the_coverings(monkeypatch, name, w, spent):
    # the exact work, in residues, of both coverings and of the lift: the
    # tree's shape, its splits and scans and so every WORK_CAP charge
    # depend on nothing but the classes
    least_gap, spy = covering._least_gap, []
    def spy_least_gap(classes, work):
        gap = least_gap(classes, work)
        spy.append(work.spent)
        return gap
    monkeypatch.setattr(covering, "_least_gap", spy_least_gap)
    data = appendix_data()
    s = {"sierpinski": data.cov_sier.system, "riesel": data.cov_ries.system,
         "lift": system(_lifted_classes()) if name == "lift" else None}[name]
    assert verify_partitioned(s, w=w) == Verdict(True)
    assert spy == [spent]


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
        # the boundaries of the one-bytearray scan, on every sixth class
        # list: one residue, exactly one tile and one past it
        for n in (count, 1, tile, tile + 1) if i % 6 == 0 else (count,):
            assert covering._first_uncovered(classes, n) == _literal_gap(classes, n)
    # classes that start at or past the end of the scan mark nothing, and
    # no class leaves every member uncovered
    for count in (1, 5, covering._TILE, covering._TILE + 1):
        late = [(count, count + 3), (count + 1, count + 2), (count + 6, 1 << 21)]
        assert covering._first_uncovered(late, count) == 0
        assert covering._first_uncovered(late + [(0, 1)], count) is None
        assert covering._first_uncovered([(0, 2)] + late, count) == (1 if count > 1 else None)
        assert covering._first_uncovered([], count) == 0


@pytest.mark.parametrize("tile", [1, 2, 3, 5, 6, 11, 12, 59, 60, 61, 119, 120, 121, 840])
def test_growing_tile_matches_literal_scan(monkeypatch, tile):
    # sorted, the moduli 2, 3, 4, 5, 6, 7, 8 raise the tile's lcm to 2, 6,
    # 12, 60, 420 and 840, and 6 keeps it; the tile bound falls before, on
    # and after a step, and counts are not multiples of the tile's period
    monkeypatch.setattr(covering, "_TILE", tile)
    monkeypatch.setattr(covering, "_CHUNK", 1 << 11)
    counts = (tile + 1, tile + 7, 61, 421, 839, 841, 2047, 2049, 3001)
    # the covering {0 (2), 0 (3), 1 (4), 5 (6), 7 (12)} with one class
    # dropped leaves one gap in each 12, or none
    cover = [(0, 2), (0, 3), (1, 4), (5, 6), (7, 12)]
    rng = random.Random(tile)
    cases = [cover, cover + [(4, 5), (1, 7), (3, 8)]]
    cases += [cover[:i] + cover[i + 1:] for i in range(len(cover))]
    for _ in range(12):  # near-covers over moduli whose lcm rises in steps
        classes = [(a, b) for b in (2, 3, 4, 5, 6, 7, 8) for a in rng.sample(range(b), b - 1)]
        cases.append(rng.sample(classes, len(classes) - rng.randint(1, 4)))
    # every modulus above the tile bound: the tile stays one byte, and only
    # members 5 (mod tile + 1) that miss 5 (mod tile + 2) are left
    n = tile + 1
    cases.append([(a, n) for a in range(n) if a != 5 % n] + [(5 % (n + 1), n + 1)])
    # duplicate classes, and a modulus-1 class that covers all
    cases += [[(1, 4), (1, 4), (0, 2), (0, 2)], [(1, 2), (3, 5), (0, 1), (3, 5)]]
    for classes in cases:
        for count in counts:
            if count > tile:
                want = _literal_gap(classes, count)
                assert covering._first_uncovered(classes, count) == want, (classes, count)


def _spy_root(monkeypatch):
    """Records every charge, grouping, split and scan of the verifiers."""
    calls = []
    charge, children, first_uncovered = covering._Work.charge, covering._children, covering._first_uncovered
    grouped = covering._grouped
    def spy_grouped(classes):
        calls.append(("grouped",))
        return grouped(classes)
    def spy_charge(self, nodes=0, entries=0, residues=0):
        calls.append(("charge", nodes, entries, residues))
        charge(self, nodes, entries, residues)
    def spy_children(*args):
        calls.append(("children",))
        return children(*args)
    def spy_scan(classes, count):
        calls.append(("scan", count))
        return first_uncovered(classes, count)
    monkeypatch.setattr(covering._Work, "charge", spy_charge)
    monkeypatch.setattr(covering, "_children", spy_children)
    monkeypatch.setattr(covering, "_first_uncovered", spy_scan)
    monkeypatch.setattr(covering, "_grouped", spy_grouped)
    return calls


def test_root_within_one_tile_is_one_charged_scan(monkeypatch):
    # a root of period at most _TILE is answered before any tree: its class
    # entries are charged, then its residues, and its period is scanned once
    calls = _spy_root(monkeypatch)
    rng = random.Random(16)
    for s in [c0_system(), system(TABLE1_CLASSES), system([(0, 1 << 16)]), system([(3, 7)])] + [
            s for s in (_random_system(rng) for _ in range(40))
            if lcm_of_moduli(s) <= covering._TILE and 1 not in s.moduli()]:
        period = lcm_of_moduli(s)
        want = _literal_verdict(s)
        calls.clear()
        assert verify_partitioned(s) == want
        assert calls == [("charge", 0, len(s.classes), 0), ("charge", 0, 0, period), ("scan", period)]


def test_root_with_a_modulus_one_class_is_covered_without_a_scan(monkeypatch):
    calls = _spy_root(monkeypatch)
    for pairs in [(0, 1)], [(1, 2), (0, 1)], [(5, 1 << 20), (0, 1), (7, 1048583 * 1048601)]:
        calls.clear()
        assert verify_partitioned(system(pairs)) == Verdict(True)
        assert calls == [("charge", 0, len(pairs), 0)]


def test_single_gap_past_the_first_chunk():
    x = 1_600_001
    assert x > 1 << 20
    s = _one_gap_system(x)
    assert verify_naive(s) == Verdict(False, x)
    assert verify_partitioned(s) == Verdict(False, x)
    # a scan stopping at x must not report x from the padding of its last chunk
    classes = [(c.a, c.b) for c in s.classes]
    assert covering._first_uncovered(classes, x) is None
    assert covering._first_uncovered(classes, x + 1) == x


@pytest.mark.parametrize("x", [covering._TILE - 1, covering._TILE, covering._TILE + 1, 1_600_001])
def test_root_prefix_and_its_boundary(monkeypatch, x):
    # the root's first _TILE members are scanned before anything else: a
    # gap below _TILE is found there and no child is built; a gap at _TILE
    # or past it is found by the tree
    s = _one_gap_system(x)
    assert verify_naive(s) == Verdict(False, x)
    splits = []
    children = covering._children
    def spy(classes, u, step, m):
        splits.append(m)
        return children(classes, u, step, m)
    monkeypatch.setattr(covering, "_children", spy)
    assert verify_partitioned(s) == Verdict(False, x)
    assert (splits == []) == (x < covering._TILE)


@pytest.mark.parametrize("name", ["sierpinski", "riesel"])
def test_mutant_gap_in_the_prefix_needs_no_factoring_and_no_split(monkeypatch, name):
    # the first class whose mutant the literal scan finds a gap for
    classes = [(c.a, c.b) for c in getattr(appendix_data(), "cov_" + name[:4]).system.classes]
    gaps = ((i, _dropped_class_gap(classes, i)) for i in range(len(classes)))
    i, x = next((i, x) for i, x in gaps if x is not None)
    assert x < covering._TILE
    def refuse(*args):
        raise AssertionError("a modulus was factored, a class grouped or a node split")
    monkeypatch.setattr(modarith, "factor", refuse)
    monkeypatch.setattr(covering, "_grouped", refuse)
    monkeypatch.setattr(covering, "_children", refuse)
    mutant = system(classes[:i] + classes[i + 1:])
    assert verify_partitioned(mutant) == Verdict(False, x)


def _chain(complete=False):
    # 2^k - 1 (mod 2^(k+1)), k < 17, hold every y below 2^17 but 2^17 - 1;
    # the class 2^17 - 1 (mod 2^17) closes that gap
    pairs = [((1 << k) - 1, 2 << k) for k in range(17)]
    return system(pairs + [((1 << 17) - 1, 1 << 17)] * complete)


def _literal_verdict(s):
    """Each member of the target below the lcm, tested class by class."""
    classes = sorted((c.b, c.a) for c in s.classes)
    t, M = s.target.a, s.target.b
    for x in range(t, math.lcm(lcm_of_moduli(s), M), M):
        for b, a in classes:
            if x % b == a:
                break
        else:
            return Verdict(False, x)
    return Verdict(True)


def test_roots_between_the_tile_and_one_chunk_match_a_literal_loop():
    # roots whose period lies in (2^16, 2^20] scan a prefix of period/16
    # members before the whole period: the chain, whose gap lies past any
    # prefix, and its completion, and seeded random systems from the
    # masters 55440 and 831600, one in three with the class 0 (mod 1)
    assert _literal_verdict(_chain()) == Verdict(False, (1 << 17) - 1)
    assert _literal_verdict(_chain(complete=True)) == Verdict(True)
    systems = [_chain(), _chain(complete=True)]
    rng = random.Random(1501)
    for master, count in ((55440, 12), (831600, 24)):
        pool = [d for d in range(1, 361) if master % d == 0]
        for i in range(count):
            pairs = [(rng.randrange(b), b) for b in rng.choices(pool, k=rng.randint(1, 12))]
            if i % 3 == 0:
                pairs.insert(rng.randrange(len(pairs) + 1), (0, 1))
            systems.append(system(pairs))
    assert sum((1 << 16) < lcm_of_moduli(s) <= (1 << 20) for s in systems) >= 12
    for s in systems:
        want = _literal_verdict(s)
        assert verify_naive(s) == want
        assert verify_partitioned(s) == want


def test_a_gap_in_the_prefix_of_a_mid_size_root_is_the_one_scan(monkeypatch):
    # every class mod 16, 27, 25, 7 and 11 but x's leaves x the only gap
    # below their lcm, 831600, whose prefix of 831600/16 = 51975 members
    # holds x: each verifier scans that prefix and nothing else
    x = 50_000
    s = system([(a, m) for m in (16, 27, 25, 7, 11) for a in range(m) if a != x % m])
    assert lcm_of_moduli(s) == 831600
    scans = []
    first_uncovered = covering._first_uncovered
    def spy(classes, count):
        scans.append(count)
        return first_uncovered(classes, count)
    monkeypatch.setattr(covering, "_first_uncovered", spy)
    assert verify_naive(s) == Verdict(False, x)
    assert scans == [51975]
    scans.clear()
    assert verify_partitioned(s) == Verdict(False, x)
    assert scans == [51975]


@pytest.mark.parametrize("limits", [{}, {"_CHUNK": 64}, {"_CHUNK": 64, "_TILE": 8},
                                    {"_TILE": 1}, {"_CHUNK": 8, "_TILE": 64}])
def test_root_prefix_stays_within_its_period(monkeypatch, limits):
    # the prefix is min(_TILE, period/16) at the default sizes, and in
    # (0, period] whatever _TILE and _CHUNK are; no scan of either verifier
    # runs past the period of the classes it is given
    for period in (1 << 16) + 1, 831600, 1 << 20, (1 << 20) + 1, 10 ** 9:
        assert covering._prefix(period) == min(1 << 16, period >> 4)
    for name, value in limits.items():
        monkeypatch.setattr(covering, name, value)
    for period in range(covering._TILE + 1, covering._TILE + 200):
        assert 0 < covering._prefix(period) <= period
    first_uncovered = covering._first_uncovered
    def spy(classes, count):
        assert 0 < count <= math.lcm(*(b for _, b in classes))
        return first_uncovered(classes, count)
    monkeypatch.setattr(covering, "_first_uncovered", spy)
    rng = random.Random(1502)
    for s in [_chain(), _chain(complete=True)] + [_random_system(rng) for _ in range(20)]:
        want = verify_naive(s)
        assert verify_partitioned(s) == want


def test_riesel_mutants_that_stay_coverings():
    # the six one-class-dropped mutants of the two coverings that are still
    # coverings (the other 900 fail): each of these classes of the
    # 459-class covering is redundant on its own
    classes = list(appendix_data().cov_ries.system.classes)
    redundant = [(648, 1080), (56, 280), (196, 1120), (476, 1120), (756, 1120), (1036, 1120)]
    for a, b in redundant:
        kept = [c for c in classes if c != ResidueClass(a, b)]
        assert len(kept) == len(classes) - 1
        assert verify_partitioned(CoveringSystem(tuple(kept))) == Verdict(True)


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
    classes = _lifted_classes()
    lifted = system(classes)
    assert lcm_of_moduli(lifted) == 7429 * APPENDIX_S_LCM > 10**15
    assert verify_partitioned(lifted) == Verdict(True)
    i = len(classes) - 5  # a lift over 23
    witness = _dropped_class_gap(classes, i)
    mutant = system(classes[:i] + classes[i + 1:])
    assert verify_partitioned(mutant) == Verdict(False, witness)

import dataclasses
import os

import pytest
from hypothesis import given, settings, strategies as st

from coversieve.covering import ResidueClass, lcm_of_moduli, verify_partitioned
from coversieve.dataset import (
    appendix_data,
    c0_system,
    consistency_audit,
    export_data_files,
    load_covering,
    load_primes_file,
    parse_covering,
    serialize_covering,
    table2_rows,
    verify_table1,
    _from_rows,
)

from sieve_data import APPENDIX_R_LCM, APPENDIX_S_LCM, TABLE2


def test_class_counts_and_lcms():
    data = appendix_data()
    assert len(data.cov_sier.system.classes) == 447
    assert len(data.cov_ries.system.classes) == 459
    assert lcm_of_moduli(data.cov_sier.system) == APPENDIX_S_LCM
    assert lcm_of_moduli(data.cov_ries.system) == APPENDIX_R_LCM


def test_every_modulus_budgeted():
    data = appendix_data()
    for cov in (data.cov_sier, data.cov_ries):
        for cls in cov.system.classes:
            assert cls.b in data.L


def test_embedded_coverings_cover():
    data = appendix_data()
    assert verify_partitioned(data.cov_sier.system).covered
    assert verify_partitioned(data.cov_ries.system).covered


def test_audit_zero_violations():
    rep = consistency_audit(appendix_data())
    assert rep.ok, rep.violations


def test_audit_spot_values():
    data = appendix_data()
    assert data.L[1404] == (7, False)
    assert data.L[4] == (1, True)
    sier_1404 = [c for c in data.cov_sier.system.classes if c.b == 1404]
    ries_1404 = [c for c in data.cov_ries.system.classes if c.b == 1404]
    assert len(sier_1404) == 7 and len(ries_1404) == 0
    # the two blocks of modulus 1404 split 3 + 4
    tags = [
        t[1]
        for c, t in zip(data.cov_sier.system.classes, data.cov_sier.tags)
        if c.b == 1404
    ]
    assert tags == [1, 2, 3, 1, 2, 3, 4]
    # b = 4: one class in each covering against the starred budget
    assert sum(1 for c in data.cov_sier.system.classes if c.b == 4) == 1
    assert sum(1 for c in data.cov_ries.system.classes if c.b == 4) == 1


def test_m_table_lower_bound_flags():
    data = appendix_data()
    assert data.M[968] == (1, True)     # starred: incomplete factorization
    assert data.M[1620] == (6, False)
    assert all(count >= 1 for count, _ in data.M.values())


def test_audit_catches_budget_violation():
    data = appendix_data()
    fake = dataclasses.replace(
        data, cov_sier=_from_rows([(2, 16, 1), (5, 16, 2), (9, 16, 3), (0, 1, 1)])
    )
    rep = consistency_audit(fake)
    assert not rep.ok
    assert any("16" in v for v in rep.violations)


def test_audit_names_the_class_whose_index_passes_l():
    data = appendix_data()
    cov = data.cov_sier
    i = cov.system.classes.index(ResidueClass(2, 16))
    assert data.L[16] == (1, False) and cov.tags[i] == ("i", 1)
    tags = cov.tags[:i] + (("i", 2),) + cov.tags[i + 1:]
    rep = consistency_audit(dataclasses.replace(data, cov_sier=cov._replace(tags=tags)))
    assert rep.violations == ["sierpinski: class 2 (mod 16) uses index 2 > L(16) = 1"]


def test_audit_catches_duplicate_residue():
    data = appendix_data()
    fake = dataclasses.replace(
        data, cov_ries=_from_rows([(2, 4, 1), (2, 4, 1), (0, 1, 1)])
    )
    rep = consistency_audit(fake)
    assert any("duplicate" in v for v in rep.violations)


def test_audit_catches_corrupted_l_map():
    data = appendix_data()
    corrupted = dict(data.L)
    corrupted[1404] = (2, False)
    rep = consistency_audit(dataclasses.replace(data, L=corrupted))
    assert not rep.ok


def test_verify_table1():
    rep = verify_table1(appendix_data())
    assert rep.ok, rep.violations
    assert rep.facts["rows"] == 11
    assert rep.facts["largest_prime_digits"] == 26


def test_verify_table1_reports_each_violation():
    data = appendix_data()
    rows = data.table1
    assert rows[0] == (ResidueClass(2, 16), 257) and rows[-1][0] == ResidueClass(426, 432)
    cases = [
        # a row that meets the slice, 2 (mod 24), but is not inside it
        (rows + ((ResidueClass(2, 12), 13),), ["row 2 (mod 12) is not a subset of 2 (mod 8)"]),
        # 673 has order 48, not 16
        (((ResidueClass(2, 16), 673),) + rows[1:], ["ord_673(2) != 16"]),
        # without its last row the table leaves 426 uncovered
        (rows[:-1], ["rows do not cover 2 (mod 8); witness 426"]),
        # a row disjoint from the slice is reported, and covers none of it
        (((ResidueClass(3, 16), 257),) + rows[1:],
         ["row 3 (mod 16) is not a subset of 2 (mod 8)",
          "rows do not cover 2 (mod 8); witness 2"]),
        (((ResidueClass(3, 16), 257),),
         ["row 3 (mod 16) is not a subset of 2 (mod 8)",
          "rows do not cover 2 (mod 8); witness 2"]),
        ((), ["rows do not cover 2 (mod 8); witness 2"]),
    ]
    for table1, violations in cases:
        assert verify_table1(dataclasses.replace(data, table1=table1)).violations == violations


def test_table1_rows_all_inside_slice():
    data = appendix_data()
    for cls, p in data.table1:
        assert cls.b % 8 == 0 and cls.a % 8 == 2


def test_table2_matches_embedded_c0():
    from coversieve.covering import satisfying_class

    c0 = c0_system()
    rows = dict((k, cls) for k, cls in table2_rows())
    assert len(rows) == 9
    for k, (a, b) in TABLE2.items():
        assert rows[k] == ResidueClass(a, b)
        assert satisfying_class(c0, k) == rows[k]


def test_parse_examples():
    lc = parse_covering("2 16 i=1")
    assert lc.system.classes == (ResidueClass(2, 16),)
    assert lc.tags == (("i", 1),)
    lc = parse_covering("9 3")
    assert lc.system.classes == (ResidueClass(0, 3),)
    lc = parse_covering("# comment\ntarget 2 8\n2 16 p=257\n")
    assert lc.system.target == ResidueClass(2, 8)
    assert lc.tags == (("p", 257),)


@pytest.mark.parametrize(
    "text",
    ["", "x y", "1 2 3", "2 16 q=4", "target 1", "1 2\ntarget 0 1", "3 0"],
)
def test_parse_errors(text):
    with pytest.raises(ValueError):
        parse_covering(text)


def test_parse_error_carries_line_number():
    with pytest.raises(ValueError, match=":2:"):
        parse_covering("1 2\nbad line here\n")


def test_parse_error_names_the_source_for_a_class_off_the_target():
    with pytest.raises(ValueError) as exc:
        parse_covering("target 2 8\n1 16\n", source="t.cov")
    assert str(exc.value) == "t.cov: class 1 (mod 16) cannot intersect target 2 (mod 8)"


# texts near the grammar: an optional target header, classes over small
# integers, so that they meet or miss the target, with tags good and bad,
# and lines of arbitrary tokens anywhere
_INT = st.integers(-20, 100).map(str)
_TAG = st.sampled_from(["", "", "", "", "", "i=3", "i=-1", "p=2", "# note", "p=1", "i=", "q=4"])
_NOISE = st.lists(st.one_of(_INT, _TAG, st.text(max_size=3)), max_size=4).map(" ".join)
_CLASS = st.tuples(_INT, st.integers(0, 64).map(str), _TAG).map(" ".join)
_LINES = st.lists(st.one_of(_CLASS, _CLASS, _CLASS, _NOISE), max_size=6)
_TARGET = st.tuples(st.just("target"), _INT, st.integers(0, 16).map(str)).map(" ".join)
_TEXTS = st.one_of(
    st.text(),
    st.tuples(st.lists(_TARGET, max_size=1), _LINES).map(lambda t: "\n".join(t[0] + t[1])),
)


@given(_TEXTS)
@settings(max_examples=400, deadline=None)
def test_parse_fuzz_round_trips_or_names_the_source(text):
    try:
        loaded = parse_covering(text, source="fuzz.cov")
    except ValueError as exc:
        assert str(exc).startswith("fuzz.cov:")
        return
    out = serialize_covering(loaded.system, loaded.tags)
    back = parse_covering(out, source="fuzz.cov")
    assert back == loaded
    assert serialize_covering(back.system, back.tags) == out


def test_roundtrip_bit_exact():
    data = appendix_data()
    for cov in (data.cov_sier, data.cov_ries):
        text = serialize_covering(cov.system, cov.tags)
        back = parse_covering(text)
        assert back.system == cov.system
        assert back.tags == cov.tags
        assert serialize_covering(back.system, back.tags) == text


def test_export_matches_embedded(tmp_path):
    paths = export_data_files(tmp_path)
    assert sorted(os.path.basename(p) for p in paths) == [
        "c0.cov", "riesel.cov", "sierpinski.cov", "table1.cov",
    ]
    data = appendix_data()
    with open(tmp_path / "sierpinski.cov") as fh:
        assert fh.read() == serialize_covering(data.cov_sier.system, data.cov_sier.tags)
    loaded = load_covering(tmp_path / "riesel.cov")
    assert loaded.system == data.cov_ries.system
    t1 = load_covering(tmp_path / "table1.cov")
    assert t1.system.target == ResidueClass(2, 8)
    assert [t[1] for t in t1.tags] == [p for _, p in data.table1]


def test_repo_data_directory_in_sync(tmp_path):
    repo_data = os.path.join(os.path.dirname(__file__), "..", "data")
    if not os.path.isdir(repo_data):
        pytest.skip("repo data/ not present")
    exported = export_data_files(tmp_path)
    assert len(exported) == 4
    for path in exported:
        name = os.path.basename(path)
        with open(path) as fresh, open(os.path.join(repo_data, name)) as repo:
            assert repo.read() == fresh.read(), f"data/{name} is out of date"


def test_load_primes_file(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("# set\n3\n5\n")
    assert load_primes_file(path) == [3, 5]
    path.write_text("")
    with pytest.raises(ValueError):
        load_primes_file(path)

import dataclasses
import os

import pytest

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

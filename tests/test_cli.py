import contextlib
import io
import math
import os
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from coversieve import cli, covering, dataset, modarith, progression
from coversieve.cli import main
from coversieve.covering import Verdict
from coversieve.cyclotomic import primes_of_order
from coversieve.dataset import export_data_files
from coversieve.modarith import Budget, factor

import sieve_data as sd
from test_cyclotomic import STARVED, STARVED_432_COFACTOR

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected"


@pytest.fixture(scope="module")
def datadir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    export_data_files(d)
    return d


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def kv(out):
    pairs = {}
    for line in out.strip().splitlines():
        k, _, v = line.partition("=")
        pairs[k] = v
    return pairs


def test_verify_c0_both(capsys, datadir):
    code, out = run(capsys, "verify", datadir / "c0.cov", "--method", "both", "--format", "kv")
    assert code == 0
    d = kv(out)
    assert d["covered"] == "1" and d["lcm"] == "9" and d["classes"] == "5"


def test_verify_refuses_a_width_its_method_ignores(capsys, datadir):
    c0 = datadir / "c0.cov"
    needs = "error: --w needs --method partitioned or both\n"
    for method, w, expected in (
        ("naive", "0", needs), ("naive", "auto", needs), ("naive", "banana", needs),
        ("naive", "780", needs),
        ("both", "abc", "error: --w must be auto or an integer, got 'abc'\n"),
    ):
        code = main(["verify", str(c0), "--method", method, "--w", w])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and err == expected, w
    assert run(capsys, "verify", c0, "--method", "naive")[0] == 0
    code, out = run(capsys, "verify", c0, "--method", "both", "--w", 3, "--format", "kv")
    assert code == 0 and kv(out)["w"] == "3"
    assert run(capsys, "verify", c0, "--format", "kv") == run(
        capsys, "verify", c0, "--w", "auto", "--format", "kv")


def test_verify_appendix_files(capsys, datadir):
    code, out = run(
        capsys, "verify", datadir / "sierpinski.cov",
        "--method", "partitioned", "--w", "auto", "--format", "kv",
    )
    assert code == 0
    d = kv(out)
    assert d["lcm"] == str(sd.APPENDIX_S_LCM)
    assert d["classes"] == "447"
    assert d["w"] == "780"
    # the paper's widths, given explicitly
    for name, lcm, classes, w in (("sierpinski", sd.APPENDIX_S_LCM, 447, 780),
                                  ("riesel", sd.APPENDIX_R_LCM, 459, 660)):
        f = datadir / f"{name}.cov"
        assert run(capsys, "verify", f, "--w", w, "--format", "kv") == (
            0, f"file={f}\nclasses={classes}\nlcm={lcm}\nw={w}\nmethod=partitioned\ncovered=1\n")


def test_verify_uncovered_exit_code(capsys, tmp_path):
    f = tmp_path / "bad.cov"
    f.write_text("0 2\n")
    code, out = run(capsys, "verify", f, "--format", "kv")
    assert code == 1
    assert kv(out)["witness"] == "1"


def test_verify_both_compares_witnesses(capsys, monkeypatch, tmp_path):
    f = tmp_path / "bad.cov"
    f.write_text("0 2\n")
    monkeypatch.setattr(cli, "verify_naive", lambda system: Verdict(False, 3))
    code, out = run(capsys, "verify", f, "--method", "both", "--format", "kv")
    assert code == 1
    assert kv(out)["error"] == "naive and partitioned verdicts disagree"


def test_verify_refuses_too_many_slices(capsys, datadir):
    code = main(["verify", str(datadir / "sierpinski.cov"), "--w", str(sd.APPENDIX_S_LCM)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_deep_residue_tree(capsys, tmp_path):
    # 2^i (mod 2^(i+1)), i < 16, hold every y below 2^16 but 0, so the
    # root's prefix scan finds no gap; the slice 0 (mod 8) of 0 (mod 2^3000)
    # splits about 3000 levels deep
    f = tmp_path / "deep.cov"
    f.write_text("".join(f"{1 << i} {2 << i}\n" for i in range(16)) + f"0 {2**3000}\n")
    code = main(["verify", str(f), "--format", "kv"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert kv(out)["w"] == "120" and kv(out)["witness"] == str(1 << 16)


def test_verify_refuses_work_beyond_the_bound(capsys, datadir, monkeypatch):
    monkeypatch.setattr(covering, "WORK_CAP", 1000)
    code = main(["verify", str(datadir / "sierpinski.cov"), "--w", "7800"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: verification needs more than 1000 work units" \
        " (one per tree node, per 64 class entries and per 2^16 residues scanned)\n"


def test_verify_refuses_a_modulus_it_cannot_factor(capsys, tmp_path, monkeypatch):
    n = (2**61 - 1) * (2**64 - 59)
    starved = Budget(trial_limit=100, rho_rounds=10, rho_restarts=1)
    monkeypatch.setattr(modarith, "factor", lambda b: factor(b, starved))
    f = tmp_path / "semiprime.cov"
    f.write_text(f"0 {n}\n1 2\n")
    assert main(["verify", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot factor modulus {n} ")


def test_verify_finds_a_small_gap_before_any_split(capsys, tmp_path):
    # the printed w is auto_w, 60 * (2^64-59); the root's prefix scan finds
    # 2 before any modulus is split on
    n = (2**61 - 1) * (2**64 - 59)
    f = tmp_path / "semiprime.cov"
    f.write_text(f"0 {n}\n1 2\n")
    code = main(["verify", str(f), "--format", "kv"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert kv(out)["w"] == str(60 * (2**64 - 59)) and kv(out)["witness"] == "2"


def test_verify_missing_file(capsys):
    assert main(["verify", "missing.cov"]) == 2


def test_verify_target_flag(capsys, datadir):
    code, out = run(
        capsys, "verify", datadir / "table1.cov", "--method", "both", "--format", "kv"
    )
    assert code == 0 and kv(out)["covered"] == "1"
    # the target comes from the file's header alone
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(datadir / "table1.cov"), "--target", "2:8"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --target 2:8" in err


def test_order_command(capsys):
    code, out = run(capsys, "order", "--base", 2, "--mod", 5, "--format", "kv")
    assert code == 0 and kv(out)["order"] == "4"
    code, out = run(capsys, "order", "--base", 2, "--mod", 257, "--format", "kv")
    assert code == 0 and kv(out)["order"] == "16"
    # the order descent from p - 1 = 1
    assert run(capsys, "order", "--base", 3, "--mod", 2, "--format", "kv") == (
        0, "base=3\nmod=2\norder=1\n")
    assert main(["order", "--base", "2", "--mod", "4"]) == 2
    assert capsys.readouterr().err == "error: 4 is not prime\n"


def test_cyclo_command(capsys):
    code, out = run(capsys, "cyclo", "--b", 64, "--eval", 2, "--factor", "--format", "kv")
    assert code == 0
    d = kv(out)
    assert d["value"] == "4294967297" and d["primes"] == "641*6700417"
    code, out = run(capsys, "cyclo", "--b", 4, "--eval", 2, "--format", "kv")
    assert kv(out)["value"] == "5"
    code, out = run(capsys, "cyclo", "--b", 48, "--eval", 2, "--factor", "--format", "kv")
    assert kv(out)["primes"] == "97*673"
    assert run(capsys, "cyclo", "--b", 12, "--format", "kv") == (0, "b=12\ndegree=4\n")
    # primes of order b: odd b with 7 stripped, the Aurifeuillian halves,
    # base 10; the degree from the Möbius divisors; the closed forms at ±1
    for argv, expected in (
        (["--b", 21, "--eval", 2, "--factor"], "b=21\nvalue=2359\nprimes=337\ncomplete=1\n"),
        (["--b", 432, "--eval", 2, "--factor"],
         "b=432\nvalue=22300745198530623141530995906165491860766721\n"
         "primes=209924353*4261383649*24929060818265360451708193\ncomplete=1\n"),
        (["--b", 12, "--eval", 10, "--factor"], "b=12\nvalue=9901\nprimes=9901\ncomplete=1\n"),
        (["--b", 18018], "b=18018\ndegree=4320\n"),
        (["--b", 8, "--eval", -1], "b=8\nvalue=2\n"),
        (["--b", 27, "--eval", 1], "b=27\nvalue=3\n"),
        (["--b", 1, "--eval", -1], "b=1\nvalue=-2\n"),
    ):
        assert run(capsys, "cyclo", *argv, "--format", "kv") == (0, expected), argv


def test_cyclo_prints_what_it_leaves_unfactored(capsys, monkeypatch):
    monkeypatch.setattr(cli, "primes_of_order",
                        lambda b, base, exclude: primes_of_order(b, base, STARVED, exclude))
    code, out = run(capsys, "cyclo", "--b", 432, "--eval", 2, "--factor", "--format", "kv")
    assert code == 0
    d = kv(out)
    assert d["primes"] == "" and d["complete"] == "0"
    assert d["unfactored"] == str(STARVED_432_COFACTOR)


def test_cyclo_exclude_needs_factor_at_2_or_10(capsys, tmp_path):
    known = tmp_path / "known.txt"
    known.write_text("97\n1093\n")
    # Phi_7(3) = 1093 and Phi_4(2) = 5: the set would be read and then ignored
    for argv in (["--b", 7, "--eval", 3, "--factor"], ["--b", 4, "--eval", 2], ["--b", 4]):
        code = main(["cyclo", *map(str, argv), "--exclude", str(known)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: --exclude needs --factor at --eval 2 or 10\n"
    code, out = run(capsys, "cyclo", "--b", 48, "--eval", 2, "--factor", "--exclude", known,
                    "--format", "kv")
    assert code == 0 and kv(out)["primes"] == "673"
    # an empty path is a missing file, not an empty set
    assert main(["cyclo", "--b", "48", "--eval", "2", "--factor", "--exclude", ""]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


def test_check_command(capsys, tmp_path):
    f = tmp_path / "selfridge.txt"
    f.write_text("".join(f"{p}\n" for p in sd.SELFRIDGE_PRIMES))
    code, out = run(
        capsys, "check", "--kind", "sierpinski", "--k", sd.SELFRIDGE_K,
        "--primes", f, "--format", "kv",
    )
    assert code == 0 and kv(out)["ok"] == "1"

    fr = tmp_path / "riesel.txt"
    fr.write_text("".join(f"{p}\n" for p in sd.CLASSICAL_R_PRIMES))
    code, out = run(
        capsys, "check", "--kind", "riesel", "--k", sd.CLASSICAL_R_B,
        "--primes", fr, "--format", "kv",
    )
    assert code == 0

    fs = tmp_path / "clav_s.txt"
    fs.write_text("".join(f"{p}\n" for p in sd.CLAVIER_S_PRIMES))
    fr2 = tmp_path / "clav_r.txt"
    fr2.write_text("".join(f"{p}\n" for p in sd.CLAVIER_R_PRIMES))
    code, out = run(
        capsys, "check", "--kind", "brier", "--k", sd.CLAVIER_K,
        "--primes", fs, "--primes-riesel", fr2, "--format", "kv",
    )
    assert code == 0 and kv(out)["ok"] == "1"
    # a failing Brier side prints its witness and reason; only the first
    # failing side, the Sierpinski side where both fail, is printed
    fr3 = tmp_path / "three-five.txt"
    fr3.write_text("3\n5\n")
    for k, riesel, tail in (
        (3, fr2, "sierpinski.ok=0\nriesel.ok=0\nwitness=0\n"
                 "reason=n = 0: no prime in the set divides k*2^n + 1\n"),
        (sd.CLAVIER_K, fr3, "sierpinski.ok=1\nriesel.ok=0\nwitness=1\n"
                            "reason=n = 1: no prime in the set divides k*2^n - 1\n"),
    ):
        code, out = run(capsys, "check", "--kind", "brier", "--k", k,
                        "--primes", fs, "--primes-riesel", riesel, "--format", "kv")
        assert code == 1 and out == f"kind=brier\nk={k}\nok=0\n" + tail

    # failing check exits 1
    code, out = run(capsys, "check", "--kind", "sierpinski", "--k", 3, "--primes", f)
    assert code == 1


def test_check_beyond_a_whole_period_scan(capsys, tmp_path):
    f = tmp_path / "mersenne.txt"
    f.write_text("".join(f"{p}\n" for p in sd.SELFRIDGE_MERSENNE_PRIMES))
    code, out = run(capsys, "check", "--kind", "sierpinski", "--k", 78559, "--primes", f,
                    "--format", "kv")
    assert code == 1
    assert kv(out)["witness"] == "6" and kv(out)["period"] == str(sd.SELFRIDGE_MERSENNE_PERIOD)
    # 2^521 - 1 has order 521 and a p - 1 that does not factor; the walk gives its order
    g = tmp_path / "m521.txt"
    g.write_text("".join(f"{p}\n" for p in sd.SELFRIDGE_PRIMES + [2**521 - 1]))
    k = sd.SELFRIDGE_K + math.prod(sd.SELFRIDGE_PRIMES) * 2**522
    assert run(capsys, "check", "--kind", "sierpinski", "--k", k, "--primes", g, "--format", "kv") == (
        0, f"kind=sierpinski\nk={k}\nok=1\nperiod=18756\n")


def test_failing_checks_print_their_kv_bytes(capsys, tmp_path):
    # a failing case names its witness and reason; a k that does not exceed
    # the largest prime (131071, of order 17) fails with no witness line
    p, r, s = tmp_path / "p", tmp_path / "r", tmp_path / "s"
    p.write_text("3\n7\n11\n13\n")
    r.write_text("3\n5\n7\n")
    s.write_text("".join(f"{q}\n" for q in sd.SELFRIDGE_PRIMES + [131071]))
    bound = "reason=k = 78557 does not exceed 131071; divisibility cannot force compositeness\n"
    for argv, expected in (
        (["--kind", "digit", "--k", 1, "--primes", p],
         "kind=digit\nk=1\nok=0\nperiod=6\nwitness=(-9, 0)\n"
         "reason=k + (-9)*10^0 has no divisor in the set\n"),
        (["--kind", "base2", "--k", 1, "--primes", p, "--primes-riesel", r],
         "kind=base2\nk=1\nok=0\nperiod=60\nwitness=(1, 0)\n"
         "reason=k + 2^0 has no divisor in the set\n"),
        (["--kind", "riesel", "--k", 509203, "--primes", r],
         "kind=riesel\nk=509203\nok=0\nperiod=12\nwitness=3\n"
         "reason=n = 3: no prime in the set divides k*2^n - 1\n"),
        (["--kind", "sierpinski", "--k", 78557, "--primes", s],
         "kind=sierpinski\nk=78557\nok=0\nperiod=612\n" + bound),
        (["--kind", "brier", "--k", 78557, "--primes", s, "--primes-riesel", s],
         "kind=brier\nk=78557\nok=0\nsierpinski.ok=0\nriesel.ok=0\n" + bound),
    ):
        assert run(capsys, "check", *argv, "--format", "kv") == (1, expected), argv
    code, out = run(capsys, "check", "--kind", "sierpinski", "--k", 78557, "--primes", s)
    assert code == 1 and "witness" not in out


def test_check_refuses_a_digit_base_beyond_the_bound_at_once(capsys, tmp_path, monkeypatch):
    # 2(10^12 - 1) cases would be built before the first is scanned
    f = tmp_path / "primes.txt"
    f.write_text("7\n11\n13\n")
    checked = []
    monkeypatch.setattr(progression, "_period_check", lambda *args: checked.append(args))
    start = time.perf_counter()
    code = main(["check", "--kind", "digit", "--k", "1", "--base", str(10**12), "--primes", str(f)])
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and checked == []
    assert err.startswith("error: verification needs more than 100000 work units") and err.count("\n") == 1


def test_check_refuses_a_flag_its_kind_ignores(capsys, tmp_path):
    f = tmp_path / "selfridge.txt"
    f.write_text("".join(f"{p}\n" for p in sd.SELFRIDGE_PRIMES))
    base = "error: --base needs --kind digit\n"
    riesel = "error: --primes-riesel needs --kind brier or base2\n"
    for kind, flags, expected in (
        ("sierpinski", ["--base", "3", "--primes-riesel", f], base),
        ("riesel", ["--base", "10"], base),
        ("brier", ["--base", "10", "--primes-riesel", f], base),
        ("base2", ["--base", "2", "--primes-riesel", f], base),
        ("sierpinski", ["--primes-riesel", f], riesel),
        ("riesel", ["--primes-riesel", f], riesel),
        ("digit", ["--base", "10", "--primes-riesel", f], riesel),
        ("brier", [], "error: --primes-riesel required for this kind\n"),
        ("base2", [], "error: --primes-riesel required for this kind\n"),
    ):
        code = main(["check", "--kind", kind, "--k", "78557", "--primes", str(f), *map(str, flags)])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and err == expected, (kind, flags)
    # --kind digit without --base is base 10 (5 divides 10, so no 5 here)
    g = tmp_path / "digit.txt"
    g.write_text("3\n7\n11\n13\n37\n")
    default = run(capsys, "check", "--kind", "digit", "--k", 78557, "--primes", g, "--format", "kv")
    ten = run(capsys, "check", "--kind", "digit", "--k", 78557, "--primes", g, "--base", 10,
              "--format", "kv")
    assert default == ten and default[1].startswith("kind=digit\n")


def test_check_reads_an_empty_primes_path_as_a_file(capsys, tmp_path):
    f = tmp_path / "selfridge.txt"
    f.write_text("".join(f"{p}\n" for p in sd.SELFRIDGE_PRIMES))
    for flags in (["--kind", "sierpinski", "--primes", ""],
                  ["--kind", "brier", "--primes", str(f), "--primes-riesel", ""]):
        code = main(["check", "--k", "78557", *flags])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, flags


# check's --base: small, or up to 10^18, mostly past the 2(base-1) cases
# WORK_CAP lets a digit check build
_BASE = st.one_of(st.integers(-1, 12), st.integers(13, 10**18))


@st.composite
def check_argv(draw):
    """check's flags at every --kind, bases up to 10^18, with prime files of
    small primes, 2, composites, divisors of the base, or nothing; now and
    then with both --base and --primes-riesel, which no kind takes together."""
    kind = draw(st.sampled_from(("sierpinski", "riesel", "brier", "digit", "base2")))
    k = draw(st.one_of(st.integers(-3, 300), st.sampled_from((78557, 509203, 3367034))))
    base = draw(_BASE)
    pool = [2, 3, 5, 7, 11, 13, 17, 19, 37, 41, 73, 241, 0, 1, 4, 9, 15, 91, -7]
    pool += [d for d in range(1, min(base, 300) + 1) if base % d == 0]
    files = draw(st.lists(st.lists(st.sampled_from(pool), max_size=8), min_size=2, max_size=2))
    return kind, k, base, files, draw(st.integers(0, 4)) == 0


@given(check_argv())
@settings(max_examples=100, deadline=None)
def test_check_fuzz_exits_with_an_answer_or_one_error(argv):
    kind, k, base, files, stray = argv
    with tempfile.TemporaryDirectory() as d:
        paths = [os.path.join(d, f"{i}.txt") for i in range(2)]
        for path, primes in zip(paths, files):
            with open(path, "w") as fh:
                fh.write("".join(f"{p}\n" for p in primes))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", "--kind", kind, "--k", str(k), "--primes", paths[0]]
                        + (["--base", str(base)] if stray or kind == "digit" else [])
                        + (["--primes-riesel", paths[1]] if stray or kind in ("brier", "base2") else []))
    assert code in (0, 1, 2), err.getvalue()
    assert not stray or code == 2
    assert sum(line.startswith("error:") for line in err.getvalue().splitlines()) <= 1
    assert code != 2 or (out.getvalue() == "" and err.getvalue().startswith("error:"))


_HOSTILE = st.one_of(st.sampled_from((0, 1, -1, 2, -2, 3, 4, 6, 10, 12, 16, 31, 101, 257)),
                     st.integers(-10**6, 10**6))
# cyclo's --eval without --factor: hostile, or a point of up to 1000 digits
_POINT = st.one_of(_HOSTILE, st.integers(-10**1000, 10**1000))
_SMALL = st.one_of(st.sampled_from((0, 1, -1, 2, 4, 9, 15, 91, -7)),
                   st.sampled_from((3, 5, 7, 11, 13, 17, 19, 31, 37, 41, 73, 127, 241, 257, 65537)))


@st.composite
def integer_file(draw):
    """An integer-list file: lines of small integers, primes or not, with
    comments or a stray word, undecodable bytes, a directory or nothing."""
    kind = draw(st.integers(0, 6))
    if kind == 0:
        return draw(st.sampled_from(("directory", "missing")))
    if kind == 1:
        return draw(st.binary(max_size=8)) + b"\xff\xfe\x80\n"
    lines = [str(n) for n in draw(st.lists(_SMALL, max_size=6))]
    if kind == 2:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("# note", "x", "1.5", "3 5"))))
    return "".join(f"{line}\n" for line in lines).encode()


# (ord_p(2), p) for small primes p
_ORDERS = ((2, 3), (4, 5), (3, 7), (10, 11), (12, 13), (8, 17), (18, 19), (5, 31), (36, 37),
           (20, 41), (9, 73), (7, 127), (24, 241), (16, 257), (32, 65537))


@st.composite
def assignment_file(draw):
    """A builder's file: the classical Sierpinski covering, or classes bound
    by p= to a prime of their modulus' order, to one of another order, or
    to a small integer that may not be prime; now and then an i= tag."""
    if draw(st.integers(0, 4)) == 0:
        rows = list(sd.CLASSICAL_S_ASSIGNMENT)
    else:
        rows = []
        for b, p in draw(st.lists(st.sampled_from(_ORDERS), min_size=1, max_size=6)):
            p = draw(st.sampled_from((p, p, p, draw(_SMALL))))
            rows.append((draw(st.integers(-50, 50)), b, p))
    lines = [f"{a} {b} " + ("i=1" if draw(st.integers(0, 19)) == 0 else f"p={p}") for a, b, p in rows]
    return "".join(f"{line}\n" for line in lines).encode()


@st.composite
def subcommand_argv(draw):
    """argv of order, cyclo, shift, build, combine or check with hostile
    integers (0, 1, negatives, even numbers, divisors of the base), moduli
    below 10^6, --b up to 200 (24 when it factors), cyclo points of up to
    1000 digits and check bases up to 10^18, plus the files it
    names: {name: bytes, "directory" or "missing"}, each named in argv as
    a format field "{name}"."""
    files = {}

    def file(content):
        files[name := f"f{len(files)}"] = content
        return f"{{{name}}}"

    cmd = draw(st.sampled_from(("order", "cyclo", "shift", "build", "combine", "check")))
    argv = [cmd]
    if cmd == "order":
        mod = draw(st.one_of(_HOSTILE, _SMALL, st.sampled_from((999983, 65537))))
        base = draw(st.one_of(_HOSTILE, st.integers(-3, 3).map(lambda k: k * mod)))
        argv += ["--base", base, "--mod", mod]
    elif cmd == "cyclo":
        factor = draw(st.booleans())
        argv += ["--b", draw(st.integers(-3, 24 if factor else 200))]
        if draw(st.integers(0, 5)):
            argv += ["--eval", draw(st.integers(-4, 12) if factor else _POINT)]
        if factor:
            argv += ["--factor"]
        if draw(st.booleans()):
            argv += ["--exclude", file(draw(integer_file()))]
    elif cmd == "shift":
        small = st.integers(1, 300)
        argv += ["--A", draw(st.one_of(_HOSTILE, small)), "--B", draw(st.one_of(_HOSTILE, small)),
                 "--base", draw(st.one_of(_HOSTILE, st.integers(2, 12)))]
    elif cmd == "build":
        argv += ["--kind", draw(st.sampled_from(("sierpinski", "riesel"))),
                 "--assignments", file(draw(assignment_file()))]
    elif cmd == "combine":
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(("sierpinski", "riesel", "brier", "")))
            argv += ["--part", f"{kind}:{file(draw(assignment_file()))}" if draw(st.integers(0, 7)) else kind]
    else:
        kind = draw(st.sampled_from(("sierpinski", "riesel", "brier", "digit", "base2")))
        argv += ["--kind", kind, "--k", draw(st.integers(-3, 300)), "--primes", file(draw(integer_file()))]
        if kind == "digit" or draw(st.integers(0, 4)) == 0:  # other kinds refuse --base
            argv += ["--base", draw(_BASE)]
        if draw(st.booleans()):
            argv += ["--primes-riesel", file(draw(integer_file()))]
    if cmd in ("build", "combine") and draw(st.booleans()):
        argv.append("--diagnostic")
    return argv, files


@given(subcommand_argv())
@settings(max_examples=100, deadline=None)
def test_subcommand_fuzz_exits_with_an_answer_or_one_error(drawn):
    argv, files = drawn
    with tempfile.TemporaryDirectory() as d:
        paths = {name: os.path.join(d, name) for name in files}
        for name, content in files.items():
            if content == "directory":
                os.mkdir(paths[name])
            elif content != "missing":
                with open(paths[name], "wb") as fh:
                    fh.write(content)
        argv = [str(a).format(**paths) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
    else:
        assert err.getvalue() == ""


_DIVISORS = [d for d in range(1, 361) if 831600 % d == 0]


@st.composite
def covering_file(draw):
    """A covering file of 1-12 classes whose moduli divide 831600 and are at
    most 360, or of the 2^17 chain 2^k - 1 (mod 2^(k+1)), k < 17, with
    classes whose moduli divide 16 and now and then 2^17 - 1 (mod 2^17);
    sometimes with a modulus-1 class, a target header the classes meet, or
    one malformed line.  Returns (text, classes, target, malformed)."""
    chain = draw(st.integers(0, 4)) == 0
    pool = [d for d in _DIVISORS if not chain or 16 % d == 0]
    targets = [d for d in _DIVISORS if not chain or d % 2]  # the chain meets odd ones
    t, M = (draw(st.integers(-400, 400)), draw(st.sampled_from(targets))) \
        if draw(st.integers(0, 3)) == 0 else (0, 1)
    classes = []
    for b in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12)):
        a = draw(st.integers(-400, 400))
        classes.append((a - (a - t) % math.gcd(b, M), b))  # a class the target meets
    if chain:
        classes += [((1 << k) - 1, 2 << k) for k in range(17)]
        classes += [((1 << 17) - 1, 1 << 17)] * draw(st.booleans())
    if draw(st.integers(0, 5)) == 0:
        classes.insert(draw(st.integers(0, len(classes))), (draw(st.integers(-9, 9)), 1))
    lines = [f"{a} {b}" for a, b in classes]
    malformed = draw(st.integers(0, 4)) == 0
    if malformed:
        bad = draw(st.sampled_from(["x 5", "1.5 4", "3 y", "3 0", "1 -4", "0 -1"]))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    if M > 1:
        lines.insert(0, f"target {t} {M}")
    return "".join(f"{line}\n" for line in lines), classes, (t % M, M), malformed


def literal_verdict(classes, target):
    """The least member of the target below the lcm in no class, tested
    member by member, class by class; None if every member is covered."""
    t, M = target
    moduli = sorted((b, a % b) for a, b in classes)
    for x in range(t, math.lcm(M, *(b for b, _ in moduli)), M):
        for b, a in moduli:
            if x % b == a:
                break
        else:
            return x
    return None


@given(covering_file())
@settings(max_examples=100, deadline=None)
def test_verify_fuzz_matches_a_literal_loop_or_gives_one_error(drawn):
    text, classes, target, malformed = drawn
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "fuzz.cov")
        with open(path, "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", path, "--method", "both", "--format", "kv"])
    if malformed:
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        return
    assert code in (0, 1) and err.getvalue() == "", err.getvalue()
    got = kv(out.getvalue())
    witness = literal_verdict(classes, target)
    assert got["covered"] == str(int(witness is None))
    assert got.get("witness") == (None if witness is None else str(witness))


def test_build_and_combine_commands(capsys, tmp_path):
    fermat = tmp_path / "fermat.cov"
    fermat.write_text(
        "".join(f"{a} {b} p={p}\n" for a, b, p in sd.CLASSICAL_S_ASSIGNMENT)
    )
    code, out = run(capsys, "build", "--kind", "sierpinski", "--assignments", fermat, "--format", "kv")
    assert code == 0
    d = kv(out)
    assert d["A"] == str(sd.CLASSICAL_S_A) and d["B"] == str(sd.CLASSICAL_S_B)

    d1 = tmp_path / "d1.cov"
    d1.write_text("0 4 p=5\n")
    code, out = run(capsys, "build", "--kind", "sierpinski", "--assignments", d1,
                    "--diagnostic", "--format", "kv")
    assert code == 0 and kv(out)["B.mod10"] == "9"

    d2 = tmp_path / "d2.cov"
    d2.write_text("2 4 p=5\n")
    code, out = run(
        capsys, "combine", "--part", f"sierpinski:{d1}", "--part", f"riesel:{d2}",
        "--diagnostic", "--format", "kv",
    )
    assert (code, out) == (0, "ok=1\nA=10\nB=9\n")

    d3 = tmp_path / "d3.cov"
    d3.write_text("0 4 p=5\n")
    code, out = run(
        capsys, "combine", "--part", f"sierpinski:{d1}", "--part", f"riesel:{d3}",
        "--diagnostic", "--format", "kv",
    )
    assert (code, out) == (1, "ok=0\nconflict_prime=5\n")

    # unresolved i= tags cannot be built
    d4 = tmp_path / "d4.cov"
    d4.write_text("0 4 i=1\n")
    assert main(["build", "--kind", "sierpinski", "--assignments", str(d4)]) == 2


def test_shift_command(capsys):
    code, out = run(capsys, "shift", "--A", 130, "--B", 1, "--base", 10, "--format", "kv")
    assert code == 0
    d = kv(out)
    assert d["A0"] == str(10**42 * 130)
    assert d["B0"] == str(10**39 - 10**3 + 1)


@pytest.mark.parametrize("name, argv", (
    ("check-selfridge", ["check", "--kind", "sierpinski", "--k", 78557,
                         "--primes", EXPECTED / "selfridge.primes"]),
    ("cyclo-64", ["cyclo", "--b", 64, "--eval", 2, "--factor"]),
    ("shift-130", ["shift", "--A", 130, "--B", 1, "--base", 10]),
    ("verify-appendix", ["dataset", "verify-appendix"]),
))
def test_output_matches_the_benchmark_expected_file(capsys, name, argv):
    code, out = run(capsys, *argv, "--format", "kv")
    assert (code, out.encode()) == (0, (EXPECTED / f"{name}.kv").read_bytes())


def test_outputs_beyond_the_int_to_str_digit_limit(capsys):
    # A0 and B0 have about 10^4 digits, Phi_18018(10) has 4320
    code, out = run(capsys, "shift", "--A", 20030, "--B", 1, "--base", 10, "--format", "kv")
    assert code == 0
    assert out == (
        "ell=5\nv=2002\nA0.exponent=10020\nB0.exponent=10015\n"
        "note=A0/B0 too large to print; exponent form given\n"
    )
    code, out = run(capsys, "cyclo", "--b", 18018, "--eval", 10, "--format", "kv")
    assert code == 0
    assert out == "b=18018\nnote=value too large to print\n"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
def test_primes_and_factors_beyond_the_int_to_str_digit_limit_are_notes(capsys):
    # 2^2203 - 1 and (3^1367 - 1)/2 are primes of 664 and 653 digits; the
    # limit is the interpreter's, so it is restored by hand
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out = run(capsys, "cyclo", "--b", 2203, "--eval", 2, "--factor", "--format", "kv")
        assert code == 0
        assert out == "b=2203\nnote=value too large to print\nnote=primes too large to print\n" \
            "complete=1\n"
        code, out = run(capsys, "cyclo", "--b", 1367, "--eval", 3, "--factor", "--format", "kv")
        assert code == 0
        assert out == "b=1367\nnote=value too large to print\nnote=factors too large to print\n" \
            "complete=1\n"
    finally:
        sys.set_int_max_str_digits(limit)


def test_an_lcm_beyond_the_int_to_str_digit_limit_is_a_note(capsys, tmp_path):
    # 0 (mod p) for each of the 1335 primes p < 11000: the lcm has 4724 digits
    primes = [p for p in range(2, 11000) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    f = tmp_path / "primes.cov"
    f.write_text("".join(f"0 {p}\n" for p in primes))
    code, out = run(capsys, "verify", f, "--format", "kv")
    assert code == 1
    assert out.splitlines()[1:3] == ["classes=1335", "note=lcm too large to print"]
    assert kv(out)["covered"] == "0" and kv(out)["witness"] == "1"
    assert main(["verify", str(f), "--method", "naive"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: lcm of moduli has 15693 bits, above cap 100000000;" \
        " use verify_partitioned\n"
    code, out = run(capsys, "dataset", "verify-appendix", "--sierpinski", f, "--format", "kv")
    assert code == 1
    assert "note=sierpinski.lcm too large to print\nsierpinski.covered=0\n" in out
    assert kv(out)["sierpinski.witness"] == "1"


def test_cyclo_factor_refuses_a_value_below_2(capsys):
    for b, x, value in ((12, 1, 1), (1, -3, -4)):
        code = main(["cyclo", "--b", str(b), "--eval", str(x), "--factor"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: --factor needs a value of at least 2, got {value}\n"


def test_cyclo_refuses_a_point_beyond_eval_bits(capsys):
    code, out = run(capsys, "cyclo", "--b", 19998, "--eval", 10**10 + 19, "--format", "kv")
    assert code == 0 and out == "b=19998\nnote=value too large to print\n"
    for x0 in (10**100 + 7, 10**1000 + 453):
        start = time.perf_counter()
        code = main(["cyclo", "--b", "19998", "--eval", str(x0), "--format", "kv"])
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: Φ_19998 at a ") and err.count("\n") == 1


def test_dataset_verify_appendix(capsys):
    code, out = run(capsys, "dataset", "verify-appendix", "--format", "kv")
    assert code == 0
    d = kv(out)
    assert d["audit.ok"] == "1" and d["table1.ok"] == "1"
    assert d["sierpinski.covered"] == "1" and d["riesel.covered"] == "1"
    assert d["sierpinski.lcm"] == str(sd.APPENDIX_S_LCM)
    assert d["riesel.lcm"] == str(sd.APPENDIX_R_LCM)


def test_dataset_verify_appendix_with_deleted_class(capsys, tmp_path, datadir):
    with open(datadir / "sierpinski.cov") as fh:
        lines = fh.read().splitlines()
    # drop one congruence class: coverage must fail with a witness
    broken = tmp_path / "broken.cov"
    broken.write_text("\n".join(lines[:100] + lines[101:]) + "\n")
    code, out = run(
        capsys, "dataset", "verify-appendix", "--sierpinski", broken, "--format", "kv"
    )
    assert code == 1
    assert "sierpinski.witness" in kv(out)


def test_dataset_verify_appendix_with_a_riesel_file(capsys, tmp_path, datadir):
    # the exported file reads back as the embedded covering
    embedded = run(capsys, "dataset", "verify-appendix", "--format", "kv")
    assert run(capsys, "dataset", "verify-appendix", "--riesel", datadir / "riesel.cov",
               "--format", "kv") == embedded
    with open(datadir / "riesel.cov") as fh:
        lines = fh.read().splitlines()
    broken = tmp_path / "broken.cov"
    broken.write_text("\n".join(lines[:100] + lines[101:]) + "\n")
    code, out = run(capsys, "dataset", "verify-appendix", "--riesel", broken, "--format", "kv")
    assert code == 1
    d = kv(out)
    assert d["riesel.covered"] == "0" and "riesel.witness" in d
    assert d["sierpinski.covered"] == "1"


def test_dataset_verify_appendix_prints_audit_violations(capsys, tmp_path, datadir):
    with open(datadir / "sierpinski.cov") as fh:
        lines = fh.read().splitlines()
    repeated = tmp_path / "repeated.cov"
    repeated.write_text("\n".join(lines + lines[:1]) + "\n")
    code, out = run(capsys, "dataset", "verify-appendix", "--sierpinski", repeated,
                    "--format", "kv")
    assert code == 1
    d = kv(out)
    assert d["audit.ok"] == "0" and d["table1.ok"] == "1"
    assert d["audit.violation.0"] == "sierpinski: duplicate class 0 (mod 4)"
    assert d["sierpinski.covered"] == "1"


def test_dataset_verify_appendix_prints_table1_violations(capsys, monkeypatch):
    data = dataset.appendix_data()
    (row, _), *rest = data.table1
    monkeypatch.setattr(dataset, "appendix_data", lambda: replace(data, table1=((row, 15), *rest)))
    code, out = run(capsys, "dataset", "verify-appendix", "--format", "kv")
    assert code == 1
    d = kv(out)
    assert d["audit.ok"] == "1" and d["table1.ok"] == "0"
    assert d["table1.violation.0"] == "15 fails the primality test"
    assert "table1.violation.1" not in d


def test_dataset_export(capsys, tmp_path):
    out_dir = tmp_path / "exported"
    code, out = run(capsys, "dataset", "export", "--out", out_dir, "--format", "kv")
    assert code == 0
    assert sorted(os.listdir(out_dir)) == [
        "c0.cov", "riesel.cov", "sierpinski.cov", "table1.cov",
    ]


def test_dataset_refuses_a_flag_its_action_ignores(capsys, tmp_path, monkeypatch):
    # an empty --sierpinski is a missing file, not the embedded covering
    monkeypatch.chdir(tmp_path)
    for argv, expected in (
        (["verify-appendix", "--sierpinski", ""], "error: "),
        (["export", "--sierpinski", "x"], "error: --sierpinski and --riesel need verify-appendix\n"),
        (["export", "--riesel", "x"], "error: --sierpinski and --riesel need verify-appendix\n"),
        (["verify-appendix", "--out", "d"], "error: --out needs export\n"),
    ):
        code = main(["dataset", *argv])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and err.startswith(expected) and err.count("\n") == 1, argv
    assert os.listdir(tmp_path) == []
    assert run(capsys, "dataset", "export", "--format", "kv")[0] == 0
    assert sorted(os.listdir(tmp_path / "data")) == [
        "c0.cov", "riesel.cov", "sierpinski.cov", "table1.cov",
    ]


def test_kv_output_is_deterministic(capsys, datadir):
    _, out1 = run(capsys, "verify", datadir / "c0.cov", "--format", "kv")
    _, out2 = run(capsys, "verify", datadir / "c0.cov", "--format", "kv")
    assert out1 == out2


def test_internal_error_exit_code(capsys, monkeypatch):
    def broken(args):
        raise ArithmeticError("self-check failed")

    monkeypatch.setattr(cli, "cmd_order", broken)
    assert main(["order", "--base", "2", "--mod", "7"]) == 3
    assert capsys.readouterr().err == "internal error: ArithmeticError: self-check failed\n"

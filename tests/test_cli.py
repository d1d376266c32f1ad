import os

import pytest

from coversieve import cli, covering
from coversieve.cli import main
from coversieve.covering import Verdict
from coversieve.dataset import export_data_files

import sieve_data as sd


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
    # the slice 0 (mod 8) of 0 (mod 2^3000) splits about 3000 levels deep
    f = tmp_path / "deep.cov"
    f.write_text(f"0 {2**3000}\n")
    code = main(["verify", str(f), "--format", "kv"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert kv(out)["w"] == "120" and kv(out)["witness"] == "1"


def test_verify_refuses_work_beyond_the_bound(capsys, datadir, monkeypatch):
    monkeypatch.setattr(covering, "WORK_CAP", 1000)
    code = main(["verify", str(datadir / "sierpinski.cov"), "--w", "7800"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: verification needs more than 1000 work units" \
        " (tree nodes plus 2^16-residue scans)\n"


def test_verify_missing_file(capsys):
    assert main(["verify", "missing.cov"]) == 2


def test_verify_target_flag(capsys, datadir):
    code, out = run(
        capsys, "verify", datadir / "table1.cov", "--method", "both", "--format", "kv"
    )
    assert code == 0 and kv(out)["covered"] == "1"


def test_order_command(capsys):
    code, out = run(capsys, "order", "--base", 2, "--mod", 5, "--format", "kv")
    assert code == 0 and kv(out)["order"] == "4"
    code, out = run(capsys, "order", "--base", 2, "--mod", 257, "--format", "kv")
    assert code == 0 and kv(out)["order"] == "16"
    assert main(["order", "--base", "2", "--mod", "4"]) == 2


def test_cyclo_command(capsys):
    code, out = run(capsys, "cyclo", "--b", 64, "--eval", 2, "--factor", "--format", "kv")
    assert code == 0
    d = kv(out)
    assert d["value"] == "4294967297" and d["primes"] == "641*6700417"
    code, out = run(capsys, "cyclo", "--b", 4, "--eval", 2, "--format", "kv")
    assert kv(out)["value"] == "5"
    code, out = run(capsys, "cyclo", "--b", 48, "--eval", 2, "--factor", "--format", "kv")
    assert kv(out)["primes"] == "97*673"


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

    # failing check exits 1
    code, out = run(capsys, "check", "--kind", "sierpinski", "--k", 3, "--primes", f)
    assert code == 1


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
    assert code == 0 and kv(out)["B"] == "9"

    d3 = tmp_path / "d3.cov"
    d3.write_text("0 4 p=5\n")
    code, out = run(
        capsys, "combine", "--part", f"sierpinski:{d1}", "--part", f"riesel:{d3}",
        "--diagnostic", "--format", "kv",
    )
    assert code == 1 and kv(out)["conflict_prime"] == "5"

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


def test_dataset_export(capsys, tmp_path):
    out_dir = tmp_path / "exported"
    code, out = run(capsys, "dataset", "export", "--out", out_dir, "--format", "kv")
    assert code == 0
    assert sorted(os.listdir(out_dir)) == [
        "c0.cov", "riesel.cov", "sierpinski.cov", "table1.cov",
    ]


def test_kv_output_is_deterministic(capsys, datadir):
    _, out1 = run(capsys, "verify", datadir / "c0.cov", "--format", "kv")
    _, out2 = run(capsys, "verify", datadir / "c0.cov", "--format", "kv")
    assert out1 == out2


def test_effort_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("COVERSIEVE_EFFORT", "1000")
    code, out = run(capsys, "cyclo", "--b", 64, "--eval", 2, "--factor", "--format", "kv")
    assert code == 0
    # 641 = 10*64 + 1 is still inside the reduced trial range; the larger
    # cofactor is prime and closes the factorization
    assert kv(out)["primes"] == "641*6700417"


def test_internal_error_exit_code(capsys, monkeypatch):
    def broken(args):
        raise ArithmeticError("self-check failed")

    monkeypatch.setattr(cli, "cmd_order", broken)
    assert main(["order", "--base", "2", "--mod", "7"]) == 3
    assert capsys.readouterr().err == "internal error: ArithmeticError: self-check failed\n"

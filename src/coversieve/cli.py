"""Command-line front end.

Exit codes are stable for CI use: 0 = all requested checks pass,
1 = a property fails (uncovered system, failed check, conflict),
2 = usage or input error, 3 = internal error (any other exception, such
as a failed internal self-check).  With --format kv the output is a
deterministic key=value document (no timestamps), byte-identical across
identical runs.
"""

from __future__ import annotations

import argparse
import sys

from . import dataset
from .covering import auto_w, lcm_of_moduli, verify_naive, verify_partitioned
from .cyclotomic import cyclotomic_degree, cyclotomic_value, load_exclusions, primes_of_order
from .modarith import IncompatibleCongruencesError, factor, multiplicative_order
from .progression import (
    PrimeAssignment,
    build_riesel,
    build_sierpinski,
    combine_brier,
    subprogression_shift,
    verify_base2_delicate,
    verify_brier,
    verify_digit_robust,
    verify_riesel,
    verify_sierpinski,
)

PASS, FAIL, USAGE, INTERNAL = 0, 1, 2, 3
_BUILDERS = {"sierpinski": build_sierpinski, "riesel": build_riesel}


def _emit(pairs: list[tuple[str, object]], fmt: str):
    # a value past Python's int-to-str digit limit, such as the lcm of a
    # large covering, is printed as a note naming its key in place of its
    # line; a callable value is formatted here, so it falls under that rule
    sep = "=" if fmt == "kv" else ": "
    lines = []
    for k, v in pairs:
        try:
            lines.append(f"{k}{sep}{v() if callable(v) else v}\n")
        except ValueError:
            lines.append(f"note{sep}{k} too large to print\n")
    sys.stdout.write("".join(lines))


def cmd_verify(args) -> int:
    system = dataset.load_covering(args.file).system
    pairs = [
        ("file", args.file),
        ("classes", len(system.classes)),
        ("lcm", lcm_of_moduli(system)),
    ]
    verdicts = {}
    if args.method in ("naive", "both"):
        verdicts["naive"] = verify_naive(system)
    if args.method in ("partitioned", "both"):
        pairs.append(("w", auto_w(system)))
        verdicts["partitioned"] = verify_partitioned(system)
    if args.method == "both" and verdicts["naive"] != verdicts["partitioned"]:
        pairs.append(("error", "naive and partitioned verdicts disagree"))
        _emit(pairs, args.format)
        return FAIL
    verdict = next(iter(verdicts.values()))
    pairs.append(("method", args.method))
    pairs.append(("covered", int(verdict.covered)))
    if not verdict.covered:
        pairs.append(("witness", verdict.witness))
    _emit(pairs, args.format)
    return PASS if verdict.covered else FAIL


def cmd_order(args) -> int:
    e = multiplicative_order(args.base, args.mod)
    _emit([("base", args.base), ("mod", args.mod), ("order", e)], args.format)
    return PASS


def cmd_cyclo(args) -> int:
    if args.factor and args.eval is None:
        raise ValueError("--factor needs --eval")
    if args.exclude is not None and not (args.factor and args.eval in (2, 10)):
        raise ValueError("--exclude needs --factor at --eval 2 or 10")
    pairs = [("b", args.b)]
    if args.eval is None:
        pairs.append(("degree", cyclotomic_degree(args.b)))
        _emit(pairs, args.format)
        return PASS
    value = cyclotomic_value(args.b, args.eval)
    pairs.append(("value", value))
    if args.factor:
        if args.eval in (2, 10):
            exclude = frozenset() if args.exclude is None else load_exclusions(args.exclude)
            ops = primes_of_order(args.b, args.eval, exclude=exclude)
            pairs.append(("primes", lambda: "*".join(str(p) for p in ops.primes)))
            pairs.append(("complete", int(ops.complete)))
            if not ops.complete:
                pairs.append(("unfactored", ops.unfactored_cofactor))
        else:
            if value < 2:
                raise ValueError(f"--factor needs a value of at least 2, got {value}")
            f = factor(value)
            pairs.append(("factors", lambda: "*".join(
                f"{p}^{e}" if e > 1 else str(p) for p, e in f.factors)))
            pairs.append(("complete", int(f.complete)))
    _emit(pairs, args.format)
    return PASS


def cmd_check(args) -> int:
    if args.base is not None and args.kind != "digit":
        raise ValueError("--base needs --kind digit")
    if args.primes_riesel is not None and args.kind not in ("brier", "base2"):
        raise ValueError("--primes-riesel needs --kind brier or base2")
    primes = dataset.load_primes_file(args.primes)
    if args.kind in ("brier", "base2"):
        if args.primes_riesel is None:
            raise ValueError("--primes-riesel required for this kind")
        primes_r = dataset.load_primes_file(args.primes_riesel)
    if args.kind == "sierpinski":
        res = verify_sierpinski(args.k, primes)
    elif args.kind == "riesel":
        res = verify_riesel(args.k, primes)
    elif args.kind == "brier":
        res = verify_brier(args.k, primes, primes_r)
    elif args.kind == "digit":
        res = verify_digit_robust(args.k, primes, 10 if args.base is None else args.base)
    else:
        res = verify_base2_delicate(args.k, primes, primes_r)
    pairs = [("kind", args.kind), ("k", args.k), ("ok", int(res.ok))]
    if args.kind == "brier":
        pairs.append(("sierpinski.ok", int(res.sierpinski.ok)))
        pairs.append(("riesel.ok", int(res.riesel.ok)))
        # the first failing side, if any, answers for the pair
        res = res.riesel if res.sierpinski.ok else res.sierpinski
    else:
        pairs.append(("period", res.period))
    if not res.ok:
        # a check failed by its bound on k, not by an uncovered n, has no witness
        if res.witness is not None:
            pairs.append(("witness", res.witness))
        pairs.append(("reason", res.reason))
    _emit(pairs, args.format)
    return PASS if res.ok else FAIL


def _load_assignments(path) -> list[PrimeAssignment]:
    loaded = dataset.load_covering(path)
    target = loaded.system.target
    if target.b > 1:  # builders cover the integers; a target would be ignored
        raise ValueError(
            f"{path}: builders take no target header, got target {target.a} {target.b}"
        )
    out = []
    for cls, tag in zip(loaded.system.classes, loaded.tags):
        if tag is None or tag[0] != "p":
            raise ValueError(
                f"{path}: class {cls} lacks a p= tag; builders need literal primes"
            )
        out.append(PrimeAssignment(cls, tag[1]))
    return out


def cmd_build(args) -> int:
    assignments = _load_assignments(args.assignments)
    prog = _BUILDERS[args.kind](assignments, require_covering=not args.diagnostic)
    pairs = [("kind", prog.kind), ("A", prog.A), ("B", prog.B)]
    if prog.A % 10 == 0:
        pairs.append(("B.mod10", prog.B % 10))
    _emit(pairs, args.format)
    return PASS


def cmd_combine(args) -> int:
    parts = []
    for spec in args.part:
        kind, _, path = spec.partition(":")
        if kind not in _BUILDERS or not path:
            raise ValueError(f"--part must be kind:file, got {spec!r}")
        parts.append(_BUILDERS[kind](_load_assignments(path), require_covering=not args.diagnostic))
    try:
        prog = combine_brier(parts)
    except IncompatibleCongruencesError as exc:
        _emit([("ok", 0), ("conflict_prime", exc.prime)], args.format)
        return FAIL
    _emit([("ok", 1), ("A", prog.A), ("B", prog.B)], args.format)
    return PASS


def cmd_shift(args) -> int:
    res = subprogression_shift(args.A, args.B, args.base)
    pairs = [
        ("ell", res.ell),
        ("v", res.v),
        ("A0.exponent", res.exp_a0),
        ("B0.exponent", res.exp_b0),
    ]
    try:
        pairs += [("A0", str(res.A0)), ("B0", str(res.B0))]
    except ValueError:  # CapacityError, or above Python's int-to-str digit limit
        pairs.append(("note", "A0/B0 too large to print; exponent form given"))
    _emit(pairs, args.format)
    return PASS


def cmd_dataset(args) -> int:
    from dataclasses import replace

    if args.action == "export":
        if args.sierpinski is not None or args.riesel is not None:
            raise ValueError("--sierpinski and --riesel need verify-appendix")
        written = dataset.export_data_files("data" if args.out is None else args.out)
        _emit([("written", p) for p in written], args.format)
        return PASS
    if args.out is not None:
        raise ValueError("--out needs export")
    data = dataset.appendix_data()
    if args.sierpinski is not None:
        data = replace(data, cov_sier=dataset.load_covering(args.sierpinski))
    if args.riesel is not None:
        data = replace(data, cov_ries=dataset.load_covering(args.riesel))
    ok = True
    pairs = []
    for name, report in (("audit", dataset.consistency_audit(data)),
                         ("table1", dataset.verify_table1(data))):
        pairs.append((f"{name}.ok", int(report.ok)))
        pairs += [(f"{name}.violation.{i}", v) for i, v in enumerate(report.violations)]
        ok &= report.ok
    for name, cov in (("sierpinski", data.cov_sier), ("riesel", data.cov_ries)):
        verdict = verify_partitioned(cov.system)
        pairs.append((f"{name}.classes", len(cov.system.classes)))
        pairs.append((f"{name}.lcm", lcm_of_moduli(cov.system)))
        pairs.append((f"{name}.covered", int(verdict.covered)))
        if not verdict.covered:
            pairs.append((f"{name}.witness", verdict.witness))
            ok = False
    _emit(pairs, args.format)
    return PASS if ok else FAIL


def _add_common(p):
    p.add_argument("--format", choices=("text", "kv"), default="text")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="coversieve")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a covering file")
    p.add_argument("file")
    p.add_argument("--method", choices=("naive", "partitioned", "both"), default="partitioned")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("order", help="multiplicative order of a base mod a prime")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--mod", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_order)

    p = sub.add_parser("cyclo", help="evaluate / factor a cyclotomic value")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--eval", type=int)
    p.add_argument("--factor", action="store_true")
    p.add_argument("--exclude")
    _add_common(p)
    p.set_defaults(fn=cmd_cyclo)

    p = sub.add_parser("check", help="verify a concrete k against a prime set")
    p.add_argument("--kind", choices=("sierpinski", "riesel", "brier", "digit", "base2"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--primes", required=True)
    p.add_argument("--primes-riesel")
    p.add_argument("--base", type=int)  # --kind digit only; 10 when omitted
    _add_common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("build", help="build a progression from an assignment file")
    p.add_argument("--kind", choices=("sierpinski", "riesel"), required=True)
    p.add_argument("--assignments", required=True)
    p.add_argument("--diagnostic", action="store_true", help="skip the covering check")
    _add_common(p)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("combine", help="combine built progressions by CRT")
    p.add_argument("--part", action="append", required=True, metavar="KIND:FILE")
    p.add_argument("--diagnostic", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_combine)

    p = sub.add_parser("shift", help="subprogression shift (A, B, base)")
    p.add_argument("--A", type=int, required=True)
    p.add_argument("--B", type=int, required=True)
    p.add_argument("--base", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_shift)

    p = sub.add_parser("dataset", help="embedded appendix data operations")
    p.add_argument("action", choices=("verify-appendix", "export"))
    p.add_argument("--out")  # export only; data when omitted
    p.add_argument("--sierpinski", help="override the embedded Sierpinski covering")
    p.add_argument("--riesel", help="override the embedded Riesel covering")
    _add_common(p)
    p.set_defaults(fn=cmd_dataset)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's own: 2 for a usage error, 0 for --help
        return exc.code
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())

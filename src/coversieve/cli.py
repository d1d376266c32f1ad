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
import os
import sys
from dataclasses import replace

from . import dataset
from .covering import (
    CoveringSystem,
    ResidueClass,
    auto_w,
    lcm_of_moduli,
    verify_naive,
    verify_partitioned,
)
from .cyclotomic import cyclotomic_value, load_exclusions, primes_of_order
from .modarith import Budget, factor, is_probable_prime, multiplicative_order
from .progression import (
    CombineConflictError,
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
EFFORT_ENV = "COVERSIEVE_EFFORT"


def _budget(effort: int | None) -> Budget:
    if effort is None:
        effort = int(os.environ.get(EFFORT_ENV, Budget().trial_limit))
    return Budget(trial_limit=effort)


def _emit(pairs: list[tuple[str, object]], fmt: str):
    # every line is formatted before any is written, so a value that cannot
    # be printed fails the command without partial output
    sep = "=" if fmt == "kv" else ": "
    sys.stdout.write("".join(f"{k}{sep}{v}\n" for k, v in pairs))


def _parse_target(spec: str) -> ResidueClass:
    a, _, b = spec.partition(":")
    return ResidueClass(int(a), int(b))


def cmd_verify(args) -> int:
    loaded = dataset.load_covering(args.file)
    system = loaded.system
    if args.target:
        system = CoveringSystem(system.classes, _parse_target(args.target))
    w = args.w if args.w == "auto" else int(args.w)
    pairs = [
        ("file", args.file),
        ("classes", len(system.classes)),
        ("lcm", lcm_of_moduli(system)),
    ]
    verdicts = {}
    if args.method in ("naive", "both"):
        verdicts["naive"] = verify_naive(system)
    if args.method in ("partitioned", "both"):
        if w == "auto":
            w = auto_w(system)
        pairs.append(("w", w))
        verdicts["partitioned"] = verify_partitioned(system, w=w)
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
    if not is_probable_prime(args.mod):
        print(f"error: {args.mod} is not prime", file=sys.stderr)
        return USAGE
    e = multiplicative_order(args.base, args.mod, budget=_budget(args.effort))
    _emit([("base", args.base), ("mod", args.mod), ("order", e)], args.format)
    return PASS


def cmd_cyclo(args) -> int:
    if args.factor and args.eval is None:
        print("error: --factor needs --eval", file=sys.stderr)
        return USAGE
    pairs = [("b", args.b)]
    if args.eval is None:
        from .cyclotomic import cyclotomic_coeffs

        pairs.append(("degree", cyclotomic_coeffs(args.b).degree))
        _emit(pairs, args.format)
        return PASS
    value = cyclotomic_value(args.b, args.eval)
    try:
        pairs.append(("value", str(value)))
    except ValueError:  # above Python's int-to-str digit limit
        pairs.append(("note", "value too large to print"))
    if args.factor:
        budget = _budget(args.effort)
        exclude = load_exclusions(args.exclude) if args.exclude else frozenset()
        if args.eval in (2, 10):
            ops = primes_of_order(args.b, args.eval, budget, exclude)
            pairs.append(("primes", "*".join(str(p) for p in ops.primes)))
            pairs.append(("complete", int(ops.complete)))
            if not ops.complete:
                pairs.append(("unfactored", ops.unfactored_cofactor))
        else:
            f = factor(value, budget)
            pairs.append(
                ("factors", "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in f.factors))
            )
            pairs.append(("complete", int(f.complete)))
    _emit(pairs, args.format)
    return PASS


def cmd_check(args) -> int:
    primes = dataset.load_primes_file(args.primes) if args.primes else []
    budget = _budget(args.effort)
    if args.kind in ("brier", "base2"):
        if not args.primes_riesel:
            print("error: --primes-riesel required for this kind", file=sys.stderr)
            return USAGE
        primes_r = dataset.load_primes_file(args.primes_riesel)
    if args.kind == "sierpinski":
        res = verify_sierpinski(args.k, primes, budget)
    elif args.kind == "riesel":
        res = verify_riesel(args.k, primes, budget)
    elif args.kind == "brier":
        res = verify_brier(args.k, primes, primes_r, budget)
    elif args.kind == "digit":
        res = verify_digit_robust(args.k, primes, args.base, budget)
    else:
        res = verify_base2_delicate(args.k, primes, primes_r, budget)
    pairs = [("kind", args.kind), ("k", args.k), ("ok", int(res.ok))]
    if args.kind == "brier":
        pairs.append(("sierpinski.ok", int(res.sierpinski.ok)))
        pairs.append(("riesel.ok", int(res.riesel.ok)))
        for sub in (res.sierpinski, res.riesel):
            if not sub.ok:
                pairs.append(("witness", sub.witness))
                pairs.append(("reason", sub.reason))
                break
    else:
        pairs.append(("period", res.period))
        if not res.ok:
            pairs.append(("witness", res.witness))
            pairs.append(("reason", res.reason))
    _emit(pairs, args.format)
    return PASS if res.ok else FAIL


def _load_assignments(path) -> list[PrimeAssignment]:
    loaded = dataset.load_covering(path)
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
    builder = build_sierpinski if args.kind == "sierpinski" else build_riesel
    prog = builder(assignments, require_covering=not args.diagnostic)
    pairs = [("kind", prog.kind), ("A", prog.A), ("B", prog.B)]
    if prog.A % 10 == 0:
        pairs.append(("B.mod10", prog.B % 10))
    _emit(pairs, args.format)
    return PASS


def cmd_combine(args) -> int:
    parts = []
    for spec in args.part:
        kind, _, path = spec.partition(":")
        if kind not in ("sierpinski", "riesel") or not path:
            print(f"error: --part must be kind:file, got {spec!r}", file=sys.stderr)
            return USAGE
        builder = build_sierpinski if kind == "sierpinski" else build_riesel
        parts.append(builder(_load_assignments(path), require_covering=not args.diagnostic))
    try:
        prog = combine_brier(parts)
    except CombineConflictError as exc:
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
    if args.action == "export":
        written = dataset.export_data_files(args.out)
        _emit([("written", p) for p in written], args.format)
        return PASS
    data = dataset.appendix_data()
    if args.sierpinski:
        data = replace(data, cov_sier=dataset.load_covering(args.sierpinski))
    if args.riesel:
        data = replace(data, cov_ries=dataset.load_covering(args.riesel))
    ok = True
    pairs = []
    audit = dataset.consistency_audit(data)
    pairs.append(("audit.ok", int(audit.ok)))
    for i, v in enumerate(audit.violations):
        pairs.append((f"audit.violation.{i}", v))
    ok &= audit.ok
    t1 = dataset.verify_table1(data)
    pairs.append(("table1.ok", int(t1.ok)))
    for i, v in enumerate(t1.violations):
        pairs.append((f"table1.violation.{i}", v))
    ok &= t1.ok
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
    p.add_argument("--target", help="restrict to target a:b")
    p.add_argument("--method", choices=("naive", "partitioned", "both"), default="partitioned")
    p.add_argument("--w", default="auto")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("order", help="multiplicative order of a base mod a prime")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--effort", type=int)
    _add_common(p)
    p.set_defaults(fn=cmd_order)

    p = sub.add_parser("cyclo", help="evaluate / factor a cyclotomic value")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--eval", type=int)
    p.add_argument("--factor", action="store_true")
    p.add_argument("--effort", type=int)
    p.add_argument("--exclude")
    _add_common(p)
    p.set_defaults(fn=cmd_cyclo)

    p = sub.add_parser("check", help="verify a concrete k against a prime set")
    p.add_argument("--kind", choices=("sierpinski", "riesel", "brier", "digit", "base2"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--primes", required=True)
    p.add_argument("--primes-riesel")
    p.add_argument("--base", type=int, default=10)
    p.add_argument("--effort", type=int)
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
    p.add_argument("--out", default="data")
    p.add_argument("--sierpinski", help="override the embedded Sierpinski covering")
    p.add_argument("--riesel", help="override the embedded Riesel covering")
    _add_common(p)
    p.set_defaults(fn=cmd_dataset)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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

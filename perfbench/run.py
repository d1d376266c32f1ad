"""coversieve benchmark: one workload, closed loop, one operation at a time.

    python3 perfbench/run.py --workload appendix --seed 1 --seconds 40 --trace 0

Run from a checkout of the repository (it reads src/ and data/).  With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run.  Every answer is checked by the oracles in
oracles.py.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
# Bytecode is read from and written to one cache the harness owns, whatever
# PYTHONDONTWRITEBYTECODE says and whatever __pycache__ the tree holds, so
# every timed import, in-process or in a cli child, reads cached bytecode.
sys.pycache_prefix = str(OUT / "pycache")
sys.dont_write_bytecode = False


def fill_bytecode_cache() -> None:
    """Compiles what the harness and coversieve import, in a child process:
    this process then never compiles, and never holds the compiler's peak
    memory, which would show in peak_rss_mb (a child's peak also counts the
    high-water mark of the process it was spawned from).  Failure is left
    to the checkout check in main."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = sys.pycache_prefix
    code = (f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(Path(__file__).parent)!r}]; "
            "import coversieve.cli, tracing, workloads; workloads.import_coversieve(); "
            "workloads.C.reference()")
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=120)


if __name__ == "__main__":
    fill_bytecode_cache()

import constants as C  # noqa: E402
import oracles as O  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REQUIRED = ("BENCHMARK.json", "src/coversieve/__init__.py", "data/sierpinski.cov", "data/riesel.cov",
            "data/table1.cov", "data/c0.cov", "tests/sieve_data.py")


def metric_table(section: str) -> dict[str, tuple[str, str]]:
    """name -> (unit, better) for the end_to_end or per_layer metrics."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["unit"], m["better"]) for m in bench[section]}


def percentile(sorted_values, pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = pct / 100 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


@dataclass
class Cycle:
    seconds: float  # wall time of its passes, judging excluded
    latencies: list[float]


class Runner:
    """Runs whole cycles in a closed loop and judges every result: the
    first time an operation runs, by its oracle; afterwards, by equality
    with that first (accepted) result."""

    def __init__(self, cycle):
        self.cycle = cycle
        self.accepted: dict[str, object] = {}
        self.first_results: list[list[object]] = []
        self.attempted = 0
        self.failed = 0
        self.reports = 0

    def _judge(self, op, result, error) -> None:
        self.attempted += 1
        try:
            if error is not None:
                raise O.Rejected(f"raised {error!r}")
            if op.key in self.accepted:
                O.require(result == self.accepted[op.key], "result differs from the first run")
            else:
                op.check(result)
                self.accepted[op.key] = result
        except O.Rejected as exc:
            self.failed += 1
            if self.reports < 10:
                self.reports += 1
                print(f"FAILED {op.kind} {op.key}: {exc}", file=sys.stderr)

    def run(self, seconds: float, tracer: Tracer | None = None, after_first=None,
            between=None) -> list[Cycle]:
        """Runs whole cycles until `seconds` have passed, ending within half
        a cycle of it.  `after_first` runs after the first cycle, `between`
        after each pass, outside the timed work."""
        cycles: list[Cycle] = []
        start = time.perf_counter()
        while True:
            cycle = Cycle(0.0, [])
            for ops in self.cycle:
                results = []
                pass_span = tracer.begin("pass") if tracer else None
                t0 = time.perf_counter()
                for op in ops:
                    span = tracer.begin(f"op.{op.kind}") if tracer else None
                    a = time.perf_counter()
                    try:
                        results.append((op.call(), None))
                    except Exception as exc:  # judged below as a failed operation
                        if self.reports < 10:
                            traceback.print_exc()
                        results.append((None, exc))
                    cycle.latencies.append(time.perf_counter() - a)
                    if tracer:
                        tracer.end(span)
                cycle.seconds += time.perf_counter() - t0
                if tracer:
                    tracer.end(pass_span)
                for op, (result, error) in zip(ops, results):
                    self._judge(op, result, error)
                if not cycles:
                    self.first_results.append([r for r, _ in results])
                if between:
                    between()
            cycles.append(cycle)
            if len(cycles) == 1 and after_first:
                after_first()
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / len(cycles) >= seconds:
                return cycles


def op_minima(runner: Runner, cycles: list[Cycle]) -> dict[str, float]:
    """Each operation's fastest time over the run's repetitions of it, by
    key; an operation a cycle holds more than once pools all its calls.
    Every cycle does the same work, and interference from other processes
    only adds time, so an operation's fastest time measures the program and
    the others the machine."""
    keys = [op.key for ops in runner.cycle for op in ops]
    best: dict[str, float] = {}
    for cycle in cycles:
        for key, seconds in zip(keys, cycle.latencies):
            best[key] = min(seconds, best.get(key, seconds))
    return best


PROBE = """
import time
best = float("inf")
for _ in range(5):
    start = time.perf_counter()
    x, buf = 0, bytearray(1 << 20)
    for i in range(100_000):
        x += i * i % 7
    for step in range(3, 400, 2):
        buf[::step] = b"\\x01" * len(range(0, len(buf), step))
    best = min(best, time.perf_counter() - start)
print(best * 1000)
"""


def machine_probe_ms() -> float:
    """Fastest of five runs of a fixed loop of the harness's own: Python
    integer arithmetic and strided bytearray marking, the covering kernel's
    access pattern.  On a 2-vCPU Xeon guest it read about 9 ms while the host
    was quiet and up to three times that while other guests loaded it, so
    the run record shows the state the machine was in.  It is not a metric.
    It runs in a child process, so that its buffers do not raise this
    process's peak memory."""
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, timeout=60)
    return float(out.stdout)


def run_record(workload) -> dict:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        sha = lines[1] if top.returncode == 0 and Path(lines[0]).resolve() == ROOT else "unknown"
    except (OSError, subprocess.SubprocessError, IndexError):
        sha = "unknown"
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "workload": workload,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_sha": sha,
        "src_lines": src_lines,
        "cyclo_budget": C.CYCLO_BUDGET,
        "cyclo_max_bits": C.CYCLO_MAX_BITS,
        "cyclo_stride": C.CYCLO_STRIDE,
    }


def end_to_end(wl, runner, setup_times, cycles, rss) -> tuple[dict, dict]:
    minima = op_minima(runner, cycles)
    best = list(minima.values())
    ordered = sorted(best)
    tail = percentile(ordered, wl.tail_pct)
    results = [r for rs in runner.first_results for r in rs]
    ops = [op for ops in runner.cycle for op in ops]
    kinds = {op.key: op.kind for op in ops}
    repeats = {k: sum(op.key == k for op in ops) for k in kinds}
    metrics = {
        "setup_s": min(setup_times),
        "run_s": sum(best) / len(runner.cycle),
        "op_p50_ms": percentile(ordered, 50) * 1000,
        "op_tail_ms": tail * 1000,
        "complete_ratio": wl.complete_ratio(ops, results),
        "peak_rss_mb": rss,
    }
    detail = {
        "op_tail_percentile": wl.tail_pct,
        "op_samples": len(best),
        "op_samples_beyond_tail": sum(x > tail for x in best),
        "repetitions_per_op": {f"{n} per cycle": len(cycles) * n for n in sorted(set(repeats.values()))},
        "passes_per_cycle": len(runner.cycle),
        "run_s_fastest_cycle": min(c.seconds for c in cycles) / len(runner.cycle),
        "run_s_all_cycles": statistics.fmean(c.seconds for c in cycles) / len(runner.cycle),
        "op_p50_ms_all_cycles": statistics.median(x for c in cycles for x in c.latencies) * 1000,
        "setup_repeats": len(setup_times),
        "setup_s_median": statistics.median(setup_times),
        "setup_ms_sorted": [round(x * 1000, 2) for x in sorted(setup_times)],
        "fail_ratio": runner.failed / max(runner.attempted, 1),
        "op_kinds": op_kinds(best, [kinds[k] for k in minima]),
    }
    return metrics, detail


def op_kinds(latencies, kinds) -> dict:
    """Per operation kind: operations, median and range of their fastest
    times in ms, and the share of all operations below that median (where
    the kind sits in the mix)."""
    by_kind: dict[str, list[float]] = {}
    for x, k in zip(latencies, kinds):
        by_kind.setdefault(k, []).append(x * 1000)
    everything = sorted(latencies)
    out = {}
    for k, xs in sorted(by_kind.items(), key=lambda kv: statistics.median(kv[1])):
        med = statistics.median(xs)
        below = bisect.bisect_left(everything, med / 1000) / len(everything)
        out[k] = {"n": len(xs), "p50_ms": round(med, 4), "min_ms": round(min(xs), 4),
                  "max_ms": round(max(xs), 4), "rank_of_p50": round(below, 3)}
    return out


def per_layer(tracer, setup_mark, pass_mark, setup_counts, traced_passes, overhead,
              extra) -> dict:
    setup_self, _ = tracer.self_times(setup_mark, pass_mark)
    self_s, calls = tracer.self_times(pass_mark)
    counts = tracer.counts

    def ms(name):
        return self_s[name] * 1000 / traced_passes

    def per_pass(value):
        return value / traced_passes

    factor_calls = calls["modarith.factor"]
    metrics = {
        "dataset.load_covering.ms": setup_self["dataset.load_covering"] * 1000,
        "dataset.classes_parsed": setup_counts["dataset.classes_parsed"],
        "dataset.consistency_audit.ms": ms("dataset.consistency_audit"),
        "dataset.verify_table1.ms": ms("dataset.verify_table1"),
        "covering.verify_partitioned.ms": ms("covering.verify_partitioned"),
        "covering.verify_partitioned.calls": per_pass(calls["covering.verify_partitioned"]),
        "covering.slices": per_pass(counts["covering.slices"]),
        "covering.verify_naive.ms": ms("covering.verify_naive"),
        "covering.auto_w.ms": ms("covering.auto_w"),
        "modarith.factor.ms": ms("modarith.factor"),
        "modarith.factor.calls": per_pass(factor_calls),
        "modarith.factor.complete_ratio": counts["modarith.factor.complete"] / factor_calls if factor_calls else 0.0,
        "modarith.is_probable_prime.ms": ms("modarith.is_probable_prime"),
        "modarith.is_probable_prime.calls": per_pass(calls["modarith.is_probable_prime"]),
        "modarith.multiplicative_order.ms": ms("modarith.multiplicative_order"),
        "modarith.verify_order.ms": ms("modarith.verify_order"),
        "modarith.crt_combine.ms": ms("modarith.crt_combine"),
        "cyclotomic.cyclotomic_value.ms": ms("cyclotomic.cyclotomic_value"),
        "cyclotomic.primes_of_order.self_ms": ms("cyclotomic.primes_of_order"),
        "cyclotomic.value_bits": per_pass(counts["cyclotomic.value_bits"]),
        "cyclotomic.unfactored_bits": per_pass(counts["cyclotomic.unfactored_bits"]),
        "progression.verify.ms": ms("progression.verify"),
        "progression.build.ms": ms("progression.build"),
        "progression.period_sum": per_pass(counts["progression.period_sum"]),
        "trace.overhead_ratio": overhead,
    }
    metrics.update(extra)
    return metrics


def layer_summary(tracer, pass_mark, traced_passes) -> dict:
    """Self time per pass of every span name, and per layer (module)."""
    self_s, calls = tracer.self_times(pass_mark)
    by_name = {n: {"self_ms": s * 1000 / traced_passes, "calls": calls[n] / traced_passes}
               for n, s in sorted(self_s.items(), key=lambda kv: -kv[1])}
    by_layer: dict[str, float] = {}
    for n, s in self_s.items():
        layer = n.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + s * 1000 / traced_passes
    return {"by_span": by_name, "by_layer_self_ms": by_layer}


def run_all(args) -> int:
    """Each workload in its own process; the last line merges their JSON
    lines, naming each metric <workload>.<metric>."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True,
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, default=C.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a coversieve checkout ({ROOT}); missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    wl = WORKLOADS[args.workload](ROOT)
    setup_times = []

    def timed_setup():
        gc.collect()  # garbage of earlier set-ups is not this set-up's cost
        start = time.perf_counter()
        data = wl.setup()
        setup_times.append(time.perf_counter() - start)
        return data

    # an untimed set-up, then three timed ones before the first cycle, one
    # after each pass and the rest after the last cycle, so that the set-up
    # times sample the whole run
    wl.setup()
    for _ in range(3):
        data = timed_setup()
    rng = random.Random(f"{args.workload}:{args.seed}")
    runner = Runner(wl.make_cycle(data, rng))
    record = run_record(args.workload) | {"seed": args.seed, "seconds": args.seconds,
                                          "trace": args.trace}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    probe_before = machine_probe_ms()

    if args.trace == 0:
        rss = []
        cycles = runner.run(
            args.seconds, after_first=lambda: rss.append(wl.peak_rss_mb()),
            between=lambda: len(setup_times) < wl.setup_repeats and timed_setup())
        while len(setup_times) < wl.setup_repeats:
            timed_setup()
        metrics, detail = end_to_end(wl, runner, setup_times, cycles, rss[0])
        units = metric_table("end_to_end")
    else:
        half = args.seconds / 2
        untraced = runner.run(half)
        tracer = Tracer()
        if wl.cs is not None:
            tracer.install(vars(wl.cs).values())
        setup_mark = len(tracer.spans)
        span = tracer.begin("setup")
        if wl.cs is not None:
            wl.load()
        tracer.end(span)
        setup_counts = tracer.counts.copy()
        tracer.counts.clear()
        pass_mark = len(tracer.spans)
        try:
            traced = runner.run(half, tracer=tracer)
        finally:
            tracer.uninstall()
        passes = len(traced) * len(runner.cycle)
        overhead = (sum(op_minima(runner, traced).values())
                    / sum(op_minima(runner, untraced).values()))
        metrics = per_layer(tracer, setup_mark, pass_mark, setup_counts, passes, overhead,
                            wl.trace_extra())
        detail = {"traced_cycles": len(traced), "untraced_cycles": len(untraced),
                  "spans": len(tracer.spans),
                  "layers": layer_summary(tracer, pass_mark, passes),
                  "fail_ratio": runner.failed / max(runner.attempted, 1)}
        spans_path = OUT / f"spans-{tag}.jsonl"
        tracer.write(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        units = metric_table("per_layer")

    detail["machine_probe_ms"] = [round(probe_before, 3), round(machine_probe_ms(), 3)]
    (OUT / f"run-{tag}.json").write_text(json.dumps(
        {"record": record, "metrics": metrics, "detail": detail}, indent=1) + "\n")
    print("run record: " + json.dumps(record))
    for key, value in detail.items():
        if key not in ("layers", "op_kinds", "setup_ms_sorted"):
            print(f"{key}: {value}")
    for name, value in metrics.items():
        unit, better = units[name]
        print(f"{name} = {value:.6g} {unit} ({better} is better)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": v, "unit": units[n][0]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

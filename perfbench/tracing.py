"""In-memory spans around coversieve's public functions.

The tracer replaces each traced function at every name a coversieve module
binds it to (``coversieve.cyclotomic.factor`` as well as
``coversieve.modarith.factor``), so calls between layers are caught where
they cross.  A span is (name, start, end, parent index).  Functions cheaper
than the wrapper itself, such as ``inverse_mod`` and ``lcm_all`` inside the
per-slice loop, are left alone; their time counts as the caller's.
"""

from __future__ import annotations

import json
import time
from collections import Counter

# function name -> span name (layer.function)
TRACED = {
    "load_covering": "dataset.load_covering",
    "consistency_audit": "dataset.consistency_audit",
    "verify_table1": "dataset.verify_table1",
    "verify_partitioned": "covering.verify_partitioned",
    "verify_naive": "covering.verify_naive",
    "auto_w": "covering.auto_w",
    "covers_target": "covering.covers_target",
    "factor": "modarith.factor",
    "is_probable_prime": "modarith.is_probable_prime",
    "multiplicative_order": "modarith.multiplicative_order",
    "verify_order": "modarith.verify_order",
    "crt_combine": "modarith.crt_combine",
    "cyclotomic_value": "cyclotomic.cyclotomic_value",
    "primes_of_order": "cyclotomic.primes_of_order",
    "verify_sierpinski": "progression.verify",
    "verify_riesel": "progression.verify",
    "verify_brier": "progression.verify",
    "verify_digit_robust": "progression.verify",
    "verify_base2_delicate": "progression.verify",
    "build_sierpinski": "progression.build",
    "build_riesel": "progression.build",
    "combine_brier": "progression.build",
}


def _count_returns(counts: Counter, span: str, args, kwargs, result) -> None:
    """Work counts read off arguments and return values, never off program
    internals.  covering.slices is the sum of w over verify_partitioned
    calls, with w="auto" counted through the value auto_w returns."""
    if span == "covering.verify_partitioned":
        w = kwargs.get("w", args[1] if len(args) > 1 else "auto")
        if isinstance(w, int):
            counts["covering.slices"] += w
    elif span == "covering.auto_w":
        counts["covering.slices"] += result
    elif span == "dataset.load_covering":
        counts["dataset.classes_parsed"] += len(result.system.classes)
    elif span == "modarith.factor":
        counts["modarith.factor.complete"] += result.cofactor == 1
    elif span == "cyclotomic.cyclotomic_value":
        counts["cyclotomic.value_bits"] += result.bit_length()
    elif span == "cyclotomic.primes_of_order":
        counts["cyclotomic.unfactored_bits"] += (
            0 if result.complete else result.unfactored_cofactor.bit_length()
        )
    elif span == "progression.verify" and hasattr(result, "period"):
        counts["progression.period_sum"] += result.period


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- harness spans -------------------------------------------------
    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, self._stack[-1]))
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent)
        self._stack.pop()

    # -- program spans -------------------------------------------------
    def _wrap(self, fn, span: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1]
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (span, start, clock(), parent)
                stack.pop()
            _count_returns(counts, span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules) -> None:
        for mod in modules:
            for attr, span in TRACED.items():
                fn = getattr(mod, attr, None)
                if callable(fn) and not hasattr(fn, "__wrapped__"):
                    setattr(mod, attr, self._wrap(fn, span))
                    self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    # -- results -------------------------------------------------------
    def self_times(self, lo: int = 0, hi: int | None = None) -> tuple[Counter, Counter]:
        """Self time (s) and call count per span name over spans[lo:hi]; a
        span's self time is its duration minus its children's durations."""
        spans = self.spans[lo:hi]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= lo:
                child[parent - lo] += end - start
        self_s, calls = Counter(), Counter()
        for i, (name, start, end, _) in enumerate(spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return self_s, calls

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")

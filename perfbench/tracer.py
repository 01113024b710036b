"""Outside-in tracer for the benchmark's traced run.

`Tracer.install()` replaces the public functions of hienergy's setops,
moments, eigen, spectrum and extract modules, `GSet.__init__`,
`checks.run_check` and the `SuiteReport` writers with wrappers that record
one span per call: name, start, end and parent span.  Calls between modules
go through module attributes, so nested calls are seen too.  Nothing under
src/ changes, and `uninstall()` puts every original back.

Spans stay in memory until `write()`.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import warnings
from collections import Counter

LAYER_MODULES = ("setops", "moments", "eigen", "spectrum", "extract")
FFT_FALLBACK_PREFIX = "FFT convolution failed"

# Functions whose operands are keyed by value, for the *_distinct_share counts.
KEYED = {"moments.correlate": ("f", "g"),
         "moments.energy_k_pair": ("a", "b", "k"),
         "eigen.build_gram": ("a", "b", "k")}


def _operand_key(x):
    array = getattr(x, "array", None)      # ConvTable is unhashable: key its contents
    if array is not None:
        return (str(x.group), x.offset, array.shape, array.tobytes())
    return x


class Tracer:
    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent index or -1]
        self.keys: dict[str, list] = {}
        self.warnings: list = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._catch = None

    # -- installation --------------------------------------------------

    def install(self) -> None:
        from hienergy import checks
        from hienergy.gset import GSet
        for short in LAYER_MODULES:
            mod = importlib.import_module(f"hienergy.{short}")
            for attr, obj in list(vars(mod).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    self._patch(mod, attr, f"{short}.{attr}")
        self._patch(GSet, "__init__", "gset.GSet")
        self._patch(checks, "run_check", "checks.run_check")
        self._patch(checks.SuiteReport, "to_json", "checks.report.to_json")
        self._patch(checks.SuiteReport, "to_csv", "checks.report.to_csv")
        self._catch = warnings.catch_warnings(record=True)
        self.warnings = self._catch.__enter__()
        warnings.simplefilter("always")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        if self._catch is not None:
            self._catch.__exit__(None, None, None)
            self._catch = None

    def _patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        params = KEYED.get(name)
        keys = self.keys.setdefault(name, []) if params else None
        signature = inspect.signature(fn) if params else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None:
                bound = signature.bind(*args, **kwargs)
                keys.append(tuple(_operand_key(bound.arguments.get(p)) for p in params))
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    # -- analysis ------------------------------------------------------

    def write(self, path) -> None:
        """All spans as CSV: id, parent, name, start and end in ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{int(start * 1e9)},{int(end * 1e9)}\n")

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _ in self.spans]
        for name, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def outer(self, match) -> tuple[int, float]:
        """Calls and seconds in spans whose name matches, not counting spans
        nested inside another matching span."""
        inside = [False] * len(self.spans)
        calls, seconds = 0, 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            hit = match(name)
            above = parent >= 0 and inside[parent]
            inside[i] = hit or above
            if hit and not above:
                calls += 1
                seconds += end - start
        return calls, seconds

    def fft_fallbacks(self) -> int:
        return sum(1 for w in self.warnings if issubclass(w.category, RuntimeWarning)
                   and str(w.message).startswith(FFT_FALLBACK_PREFIX))

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics: name -> (value, unit)."""
        own = self.self_times()
        names = [s[0] for s in self.spans]
        calls = Counter(names)

        def self_s(match) -> float:
            return sum((t for n, t in zip(names, own) if match(n)), 0.0)

        def distinct(name: str) -> float:
            keys = self.keys.get(name, [])
            return len(set(keys)) / len(keys) if keys else 0.0

        out: dict[str, tuple[float, str]] = {}

        def group(metric: str, members: set):
            n, s = self.outer(lambda x: x in members)
            out[f"{metric}_calls"] = (n, "count")
            out[f"{metric}_s"] = (s, "s")

        group("gset.build", {"gset.GSet"})
        group("setops.sumset", {"setops.sumset", "setops.diffset", "setops.iterated"})
        group("setops.delta_sumset", {"setops.delta_sumset"})
        group("setops.magnification", {"setops.magnification", "setops.magnification_k"})
        out["moments.correlate_calls"] = (calls["moments.correlate"], "count")
        out["moments.correlate_distinct_share"] = (distinct("moments.correlate"), "ratio")
        out["moments.energy_k_pair_calls"] = (calls["moments.energy_k_pair"], "count")
        out["moments.energy_k_pair_distinct_share"] = (distinct("moments.energy_k_pair"),
                                                       "ratio")
        group("moments.convolve", {"moments.convolve"})
        out["moments.fft_fallbacks"] = (self.fft_fallbacks(), "count")
        out["moments.power_sum_s"] = (
            self_s(lambda n: n in {"moments.energy_k", "moments.t_k", "moments.sigma_k"}), "s")
        group("eigen.gram", {"eigen.build_gram"})
        out["eigen.gram_distinct_share"] = (distinct("eigen.build_gram"), "ratio")
        group("eigen.eigensolve", {"eigen.jacobi_eigenvalues"})
        for layer in ("spectrum", "extract"):
            out[f"{layer}.calls"] = (self.outer(lambda n: n.startswith(layer + "."))[0],
                                     "count")
            out[f"{layer}.self_s"] = (self_s(lambda n: n.startswith(layer + ".")), "s")
        out["checks.self_s"] = (self_s(lambda n: n == "checks.run_check"), "s")
        out["checks.report_s"] = (self.outer(lambda n: n.startswith("checks.report."))[1], "s")
        return out

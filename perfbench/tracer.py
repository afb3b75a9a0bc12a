"""Per-layer tracing of saxkit from outside the library.

The tracer replaces each listed public function with a wrapper wherever a
``saxkit`` module holds a reference to it (``saxkit.codec.lloyd_max`` and
``saxkit.discretize.lloyd_max`` are the same function looked up from two
modules), and listed methods on their class.  A wrapper records one span per
call and returns the wrapped function's result unchanged.

A span's self time is its duration minus the durations of the wrapped spans
it directly encloses.  Validated constructions of ``TimeSeries`` and
``PaaSeries`` are counted only; they are too small and too many to time.
A function that the library no longer has is reported with zero calls and is
listed in ``Tracer.absent``.
"""

from __future__ import annotations

import importlib
import sys
import time

# (layer module, attribute path, metric kinds).  "calls" and "self_s" come
# from the span; the other kinds are read from the call's arguments or result
# by ``_extra``.  A target without "self_s" is not timed, so its time stays
# in its caller's self time.
TIMED = (
    ("series", "paa", ("calls", "self_s")),
    ("series", "znormalize", ("calls", "self_s")),
    ("series", "paa_then_znormalize", ("calls", "self_s")),
    ("density", "kde_cell_moments", ("calls", "self_s")),
    ("density", "DensityModel.pdf", ("calls", "self_s")),
    ("discretize", "lloyd_max", ("calls", "self_s", "iterations", "reseeds")),
    ("discretize", "kmeans_codebook", ("calls", "self_s")),
    ("discretize", "quantize", ("calls", "self_s")),
    ("meanshift", "mean_shift_modes", ("calls", "self_s", "samples", "max_ms")),
    ("meanshift", "modes_to_codebook", ("calls", "self_s")),
    ("meanshift", "DynamicClusterState.observe", ("calls", "self_s")),
    ("codec", "fit", ("calls", "self_s")),
    ("codec", "encode", ("calls", "self_s")),
    ("codec", "paa_view", ("calls", "self_s")),
    ("codec", "normalized_series", ("calls", "self_s")),
    ("codec", "normalization_scale", ("calls", "self_s")),
    ("metrics", "tlb", ("calls", "self_s")),
    ("metrics", "dist_error", ("calls", "self_s")),
    ("metrics", "euclidean", ("calls", "self_s")),
    ("metrics", "mindist_paa", ("calls", "self_s")),
    ("anomaly", "run_csax_detector", ("self_s", "rebuilds", "windows")),
    ("anomaly", "run_detector", ("self_s",)),
    ("anomaly", "NullHypothesisSet.min_statistic", ("calls", "self_s")),
    ("anomaly", "empirical_pmf", ("calls", "self_s")),
    ("anomaly", "window_scores", ("nan",)),
    ("harness", "build_pool", ("calls", "self_s")),
    ("harness", "run_tlb_rmse_experiment", ("self_s",)),
    ("harness", "run_fixed_detector", ("self_s",)),
    ("harness", "roc_from_events", ("self_s",)),
)

COUNTED = (("series", "TimeSeries"), ("series", "PaaSeries"))

# Waste ratios: every rejected Newton trial costs one dense moment
# evaluation, and every CSAX rebuild re-clusters all samples seen so far.
RATIOS = (
    ("ratio.kde_moments_per_lloyd_iteration", "density.kde_cell_moments.calls", "discretize.lloyd_max.iterations"),
    ("ratio.meanshift_samples_per_rebuild", "meanshift.mean_shift_modes.samples", "anomaly.run_csax_detector.rebuilds"),
)

UNITS = {"calls": "1", "self_s": "s", "iterations": "1", "reseeds": "1", "samples": "1",
         "max_ms": "ms", "rebuilds": "1", "windows": "1", "nan": "1"}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = [("setup.import_s", "s"), ("setup.load_s", "s")]
    for module, path, kinds in TIMED:
        out.extend((f"{module}.{path}.{kind}", UNITS[kind]) for kind in kinds)
    out.extend((f"{module}.{name}.calls", "1") for module, name in COUNTED)
    out.extend((name, "1") for name, _, _ in RATIOS)
    return out


def _extra(name: str, args, result, span_s: float, sums: dict) -> None:
    if name == "discretize.lloyd_max":
        report = result[1]
        sums["iterations"] += report.iterations
        sums["reseeds"] += report.reseeds
    elif name == "meanshift.mean_shift_modes":
        sums["samples"] += len(args[0])
        sums["max_ms"] = max(sums["max_ms"], 1e3 * span_s)
    elif name == "anomaly.run_csax_detector":
        sums["rebuilds"] += result.rebuilds
        sums["windows"] += len(result.events)
    elif name == "anomaly.window_scores":
        sums["nan"] += int((result != result).sum())


class Tracer:
    """Install with ``with Tracer() as t:``; read ``t.totals()`` afterwards."""

    def __init__(self):
        self.absent: list[str] = []
        self._sums: dict[str, dict] = {}
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n == "saxkit" or n.startswith("saxkit.")]
        for module, path, kinds in TIMED:
            name = f"{module}.{path}"
            self._sums[name] = {kind: 0 for kind in kinds}
            owner, attr, original = self._resolve(module, path)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._timed(name, original)
            if owner is None:
                self._patch_lookups(modules, original, wrapper)
            else:
                self._patch(owner, attr, wrapper)
        for module, path in COUNTED:
            name = f"{module}.{path}"
            self._sums[name] = {"calls": 0}
            cls = getattr(importlib.import_module(f"saxkit.{module}"), path, None)
            if cls is None or not hasattr(cls, "__post_init__"):
                self.absent.append(name)
                continue
            self._patch(cls, "__post_init__", self._counted(name, cls.__post_init__))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    @staticmethod
    def _resolve(module: str, path: str):
        """``(class or None, attribute, original)``; original is None when absent."""
        mod = importlib.import_module(f"saxkit.{module}")
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name, None)
            return cls, attr, None if cls is None else cls.__dict__.get(attr)
        return None, path, getattr(mod, path, None)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_lookups(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def _timed(self, name: str, fn):
        sums = self._sums[name]
        stack = self._stack

        def wrapper(*args, **kwargs):
            if "self_s" not in sums:
                result = fn(*args, **kwargs)
                _extra(name, args, result, 0.0, sums)
                return result
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += span
                if "calls" in sums:
                    sums["calls"] += 1
                if "self_s" in sums:
                    sums["self_s"] += span - frame[1]
            _extra(name, args, result, span, sums)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counted(self, name: str, fn):
        sums = self._sums[name]

        def wrapper(obj):
            sums["calls"] += 1
            return fn(obj)

        wrapper.__wrapped__ = fn
        return wrapper

    def totals(self, passes: int) -> dict[str, float]:
        """Figures per pass over the workload's list: sums divided by ``passes``.

        ``max_ms`` is a maximum over the run and is not divided.
        """
        out = {}
        for name, sums in self._sums.items():
            for kind, value in sums.items():
                out[f"{name}.{kind}"] = value if kind == "max_ms" else value / passes
        for ratio, num, den in RATIOS:
            out[ratio] = out[num] / out[den] if out[den] else 0.0
        return out

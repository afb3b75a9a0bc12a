"""saxkit benchmark: one workload run, or the two-set steadiness check.

One run::

    python3 perfbench/run.py --workload fit --seed 1 --seconds 15 --trace 0

runs the workload's fixed op list in whole passes until ``--seconds`` of op
time have been measured, checks every op's output outside the timer, and
prints one JSON line: ``correct``, ``attempted``, ``failed`` and the metrics
(end-to-end with ``--trace 0``, per-layer with ``--trace 1``).  A copy with
per-op details goes to ``perfbench/out/``.

Steadiness::

    python3 perfbench/run.py --steadiness

runs two sets of ten fresh processes per workload (seeds 1-10 and 101-110)
and prints, for every end-to-end metric, each set's median and quartiles
and whether the sets agree within the metric's bound.

The library is imported from ``src/`` of the checkout holding this
directory; without it the command fails before printing a result.
"""

from __future__ import annotations

import os

# One compute thread for the benchmark and every process it starts; set
# before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 4
# A set-up reference: a fresh process that imports what a scientific Python
# program typically imports, and no saxkit.  SETUP_REFERENCE_S is its typical
# time on the reference host (2 vCPU, Python 3.11.7, numpy 2.4.6, scipy 1.17.1).
SETUP_REFERENCE = ("-c", "import numpy, scipy.stats; print()")
SETUP_REFERENCE_S = 1.6
STEADINESS_RUNS = 10
# The keys of ``workloads.WORKLOADS``, which cannot be imported before the
# library's path is checked.
WORKLOAD_NAMES = ("fit", "tlb_rmse", "detect")
# The calibration kernel's typical time on the reference host (2 vCPU,
# Python 3.11.7, numpy 2.4.6); scaled pass times are in seconds of that host.
CALIBRATION_REF_S = 0.15


def _fatal(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    if not (SRC / "saxkit" / "__init__.py").is_file():
        _fatal(f"no saxkit sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import saxkit

    if Path(saxkit.__file__).resolve().parent != (SRC / "saxkit").resolve():
        _fatal(f"imported saxkit from {saxkit.__file__}, not from {SRC}")


def _process_seconds(args) -> tuple[float, str]:
    """Seconds from starting ``python3 ARGS`` to its first line of output, and that line."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
    if proc.returncode != 0:
        _fatal(f"set-up process {args[0]} failed with exit code {proc.returncode}")
    return ready - start, line


def _setup_times(paths) -> dict:
    """Start-to-inputs-ready of fresh processes, in seconds of the reference host.

    Set-up processes alternate with reference processes (``SETUP_REFERENCE``),
    and the median set-up time is scaled by ``SETUP_REFERENCE_S`` over the
    median reference time.  The host's speed drifts by a third over minutes,
    and the two kinds of process drift together: over nine groups of five
    pairs, the spread of the group medians was 12.6% unscaled and 3.4%
    scaled.
    """
    totals, references, imports, loads = [], [], [], []
    for _ in range(SETUP_SAMPLES):
        seconds, line = _process_seconds([str(HERE / "setup_probe.py"), str(SRC), *map(str, paths)])
        probe = json.loads(line)
        totals.append(seconds)
        imports.append(probe["import_s"])
        loads.append(probe["load_s"])
        references.append(_process_seconds(SETUP_REFERENCE)[0])
    scale = SETUP_REFERENCE_S / statistics.median(references)
    return {
        "setup_s": statistics.median(totals) * scale,
        "setup.import_s": statistics.median(imports) * scale,
        "setup.load_s": statistics.median(loads) * scale,
        "samples_s": totals,
        "reference_samples_s": references,
    }


def _calibrate() -> float:
    """Seconds for a fixed interpreter-and-numpy kernel that does not touch saxkit.

    The reference host's speed drifts by up to a factor of two over
    minutes; pass times are scaled by this kernel's time around them, so
    ``ops_per_s`` tracks the program rather than the host.
    """
    import numpy as np

    start = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x += i * i
    a = np.arange(250_000, dtype=float)
    for _ in range(60):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - start


def _in_child(fn):
    """``fn()`` run in a forked child process; returns its JSON-encoded result.

    What the child allocates never counts toward this process's
    ``ru_maxrss``, and the calls it makes through the tracer's wrappers
    leave this process's figures alone.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w") as fh:
                json.dump(fn(), fh)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"child process ended with wait status {status}")
    return json.loads(text)


def _check(wl, op, out, first: bool) -> dict:
    """The op's check failures and quality figures; meant for ``_in_child``."""
    try:
        return {"failures": wl.check(op, out, first=first), "quality": wl.quality(op, out)}
    except Exception as exc:  # an output the checks cannot read is a wrong output
        return {"failures": [f"check raised {type(exc).__name__}: {exc}"], "quality": {}}


def _reference_quality(workloads) -> dict:
    """``workloads.reference_quality()``, computed once per library source.

    It runs in a child process and is kept under ``perfbench/data/`` keyed
    by a hash of ``src/saxkit``, so a change to the library recomputes it.
    """
    digest = hashlib.sha256()
    for path in sorted((SRC / "saxkit").rglob("*.py")):
        digest.update(path.read_bytes())
    cached = workloads.DATA_DIR / f"reference-{digest.hexdigest()[:16]}.json"
    if not cached.is_file():
        tmp = cached.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(_in_child(workloads.reference_quality)) + "\n")
        os.replace(tmp, cached)
    return json.loads(cached.read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    _import_library()
    import workloads
    from tracer import Tracer, metric_names

    spec = workloads.WORKLOADS[name]
    paths = workloads.ensure_inputs(spec.inputs)
    reference = _reference_quality(workloads)
    setup = _setup_times(paths)
    wl = spec(workloads.load_inputs(paths))
    ops = wl.ops(seed)
    failures: list[str] = []
    errors: list[str] = []

    warm = ops[0] if wl.warmup is None else wl.warmup
    warm_out = wl.run(warm)
    checked = _in_child(lambda: _check(wl, warm, warm_out, first=False))
    del warm_out
    failures += [f"warm-up op {warm}: {f}" for f in checked["failures"]]

    attempted = failed = 0
    timed = check_s = 0.0
    op_seconds: list[list] = []
    pass_seconds: list[float] = []
    calib: list[float] = []
    quality_sums: dict[str, float] = {}
    tracer = Tracer() if trace else None
    with tracer or nullcontext():
        while not pass_seconds or timed < seconds:
            calib.append(_calibrate())
            pass_start = timed
            for op in ops:
                attempted += 1
                start = time.perf_counter()
                try:
                    out = wl.run(op)
                except Exception as exc:  # counted as a failed op, the run goes on
                    failed += 1
                    errors.append(f"op {op}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    elapsed = time.perf_counter() - start
                    timed += elapsed
                op_seconds.append([op, elapsed])
                check_start = time.perf_counter()
                first = attempted == 1
                checked = _in_child(lambda: _check(wl, op, out, first))
                del out
                failures += [f"op {op}: {f}" for f in checked["failures"]]
                for key, value in checked["quality"].items():
                    quality_sums[key] = quality_sums.get(key, 0.0) + value
                check_s += time.perf_counter() - check_start
            pass_seconds.append(timed - pass_start)
        calib.append(_calibrate())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    done = attempted - failed
    scaled = [t * CALIBRATION_REF_S / ((calib[k] + calib[k + 1]) / 2) for k, t in enumerate(pass_seconds)]
    scaled_ops_per_s = done / len(pass_seconds) / statistics.median(scaled)
    raw_ops_per_s = done / len(pass_seconds) / statistics.median(pass_seconds)
    ops_per_s = scaled_ops_per_s if wl.scale_by_calibration else raw_ops_per_s
    metrics: dict[str, dict] = {}
    if trace:
        totals = tracer.totals(len(pass_seconds))
        totals["setup.import_s"] = setup["setup.import_s"]
        totals["setup.load_s"] = setup["setup.load_s"]
        for metric, unit in metric_names():
            metrics[metric] = {"value": totals[metric], "unit": unit}
    else:
        quality = {k: (quality_sums[k] / done if k in wl.home and done else reference[k]) for k in workloads.QUALITY}
        metrics = {
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "recon_mse": {"value": quality["recon_mse"], "unit": "1"},
            "tlb_mean": {"value": quality["tlb_mean"], "unit": "1"},
            "rmse_mean": {"value": quality["rmse_mean"], "unit": "1"},
            "auc": {"value": quality["auc"], "unit": "1"},
        }
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    details = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "pass_seconds": pass_seconds,
        "calibration_s": calib,
        "timed_s": timed,
        "ops_per_s": ops_per_s,
        "raw_ops_per_s": raw_ops_per_s,
        "scaled_ops_per_s": scaled_ops_per_s,
        "check_s": check_s,
        "op_seconds": op_seconds,
        "setup_samples_s": setup["samples_s"],
        "setup_reference_samples_s": setup["reference_samples_s"],
        "check_failures": failures,
        "op_errors": errors,
        "absent": tracer.absent if tracer else [],
        "result": result,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(details, indent=1) + "\n")
    for line in failures[:20] + errors[:20]:
        print(line, file=sys.stderr)
    return result


# ---------------------------------------------------------------------------
# steadiness


def steadiness(seconds: float) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    report = {}
    for name in WORKLOAD_NAMES:
        sets = []
        for base in (1, 101):
            results = []
            for seed in range(base, base + STEADINESS_RUNS):
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
                if proc.returncode != 0:
                    _fatal(f"{name} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
                results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
                print(f"{name} seed {seed}: {json.dumps(results[-1])}", file=sys.stderr, flush=True)
            sets.append(results)
        rows = {}
        for metric, spec in bounds.items():
            stats = []
            for results in sets:
                q1, med, q3 = statistics.quantiles([r["metrics"][metric]["value"] for r in results], n=4)
                stats.append({"q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med})
            # Signed so that positive is worse; agreement holds in both directions.
            worse = stats[1]["median"] - stats[0]["median"]
            if spec["better"] == "higher":
                worse = -worse
            drift = worse / stats[0]["median"]
            steady = all(s["spread"] <= spec["bound"] for s in stats)
            rows[metric] = {"sets": stats, "drift": drift, "bound": spec["bound"],
                            "agree": steady and abs(drift) <= spec["bound"]}
        shares = [sorted({r["failed"] / r["attempted"] for r in results}) for results in sets]
        report[name] = {"metrics": rows, "failed_shares": shares,
                        "all_correct": all(r["correct"] for s in sets for r in s), "runs": sets}
        print(f"\n{name}: failed share per set {shares}, all correct {report[name]['all_correct']}")
        print(f"{'metric':<12} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}  agree")
        for metric, row in rows.items():
            for k, s in enumerate(row["sets"]):
                tail = f"{row['bound']:>6}  {row['agree']} (drift {row['drift']:+.4f})" if k else ""
                print(f"{metric:<12} {k + 1:>3} {s['q1']:>12.6g} {s['median']:>12.6g} {s['q3']:>12.6g} {s['spread']:>8.4f} {tail}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "steadiness.json").write_text(json.dumps(report, indent=1) + "\n")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="op time to measure (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true", help="two sets of ten runs per workload")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.steadiness:
        if not (SRC / "saxkit" / "__init__.py").is_file():
            _fatal(f"no saxkit sources under {SRC}")
        steadiness(seconds)
        return 0
    if args.workload is None:
        parser.error("--workload is required unless --steadiness is given")
    print(json.dumps(run_workload(args.workload, args.seed, seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: inputs, fixed op lists, checks and quality figures.

A workload object knows its input files, the list of ops one pass makes for
a given seed, how to run one op through saxkit's public functions, and how to
check an op's output with ``checks``.  Library modules are reached through
their module objects (``codec.fit``, not a bound name), so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

from saxkit import anomaly, codec, harness, metrics

import checks

DATA_DIR = Path(__file__).resolve().parent / "data"

KAPPA = 16  # ASAX/PSAX alphabet in ``fit`` and the grid cell's kappa in ``tlb_rmse``


def ensure_inputs(inputs) -> list[Path]:
    """Write each missing input file with saxkit's generators; return the paths.

    Files are written under a temporary name and renamed, so an interrupted
    run never leaves a partial input behind.
    """
    DATA_DIR.mkdir(exist_ok=True)
    paths = []
    for filename, kind, length, seed in inputs:
        path = DATA_DIR / filename
        if not path.is_file():
            data = harness.generate_synthetic(kind, length, seed=seed)
            tmp = path.with_suffix(f".tmp{os.getpid()}")
            if isinstance(data, harness.LabeledStream):
                harness.write_labeled_csv(tmp, data)
            else:
                harness.write_series_csv(tmp, data.values)
            os.replace(tmp, path)
        paths.append(path)
    return paths


def load_inputs(paths) -> list:
    """Read input files the way the CLI does: labeled CSVs have two columns."""
    out = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            labeled = "," in fh.readline()
        out.append(harness.load_labeled_csv(path) if labeled else harness.load_series_csv(path))
    return out


def codebook_mse(codebook, values: np.ndarray) -> float:
    """Mean squared quantization error, from the codebook's cutlines and centroids."""
    cells = np.searchsorted(codebook.cutlines, values, side="right")
    return float(np.mean((values - np.asarray(codebook.centroids)[cells]) ** 2))


class Fit:
    """ASAX, PSAX and CSAX fits on one 16 000-value corpus per op."""

    name = "fit"
    home = ("recon_mse",)
    # (file, generator kind, length, generator seed).  Bimodal seed 0 takes
    # the slow Lloyd-Max path (73 iterations), seed 1 the fast one (5); the
    # AR(1) pools converge in 5 and seed 1 has an outlying CSAX mode.
    inputs = (
        ("fit_bimodal_s0.csv", "bimodal_mixture", 16000, 0),
        ("fit_bimodal_s1.csv", "bimodal_mixture", 16000, 1),
        ("fit_ar1_s0.csv", "ar1", 16000, 0),
        ("fit_ar1_s1.csv", "ar1", 16000, 1),
    )
    warmup = 3  # see ops()
    # Fit passes are large-array numpy work whose speed does not follow the
    # calibration kernel: scaling widened the spread of ops_per_s over ten
    # runs from 4-5% to 8-14%, so fit reports the unscaled rate.
    scale_by_calibration = False

    def __init__(self, data):
        self.series = data

    def ops(self, seed: int) -> list[int]:
        """Every corpus once, in file order, whatever the seed.

        The corpora and the fit seeds stay fixed because one PSAX fit costs 5
        or 73 Lloyd-Max iterations depending on its pool.  The peak resident
        set is about 25 MB higher when the ``fit_bimodal_s0`` fit follows the
        ``fit_ar1_s1`` one (the allocator keeps what that fit freed), so the
        order is fixed and the warm-up fits ``fit_ar1_s1``: every timed pass
        then sees the same history, however many passes a run makes.
        """
        return list(range(len(self.series)))

    def run(self, op: int):
        pool = self.series[op]
        return {
            method: codec.fit(codec.EncoderSpec(codec.EncodingMethod(method), segments=16, kappa=KAPPA), [pool])
            for method in ("ASAX", "PSAX", "CSAX")
        }

    def check(self, op: int, out, first: bool) -> list[str]:
        pool = np.asarray(self.series[op].values)
        bimodal = self.inputs[op][1] == "bimodal_mixture"
        psax = out["PSAX"]
        return (
            checks.check_asax_centroids(pool, out["ASAX"].codebook)
            + checks.check_midpoint_cutlines(out["ASAX"].codebook, "ASAX")
            + checks.check_psax_codebook(pool, psax.codebook, psax.density.bandwidth)
            + checks.check_csax_codebook(pool, out["CSAX"].codebook, bimodal)
        )

    def quality(self, op: int, out) -> dict:
        return {"recon_mse": codebook_mse(out["PSAX"].codebook, np.asarray(self.series[op].values))}


class TlbRmse:
    """One TLB/RMSE grid cell per op: N=480, 16 bytes, kappa=16, 100 pair trials."""

    name = "tlb_rmse"
    home = ("tlb_mean", "rmse_mean")
    inputs = (("tlb_bimodal_s0.csv", "bimodal_mixture", 40000, 0),)
    methods = ("SAX", "ASAX", "PSAX", "CSAX")
    length, budget, trials, cells = 480, 16, 100, 6
    chain_pairs = 8
    warmup = None  # the pass's first op
    scale_by_calibration = True

    def __init__(self, data):
        self.corpus = data[0]
        self.segments = round(self.budget * 8 / math.log2(KAPPA))

    def ops(self, seed: int) -> list[int]:
        """Grid seeds: each op of the pass has its own, drawn from the workload seed."""
        return [int(seed) * 1000 + i for i in range(self.cells)]

    def grid(self, grid_seed: int):
        return harness.ExperimentGrid(
            lengths=(self.length,), byte_budgets=(self.budget,), kappas=(KAPPA,), trials=self.trials, seed=grid_seed
        )

    def run(self, op: int):
        return harness.run_tlb_rmse_experiment(self.corpus, self.grid(op), self.methods)

    def check(self, op: int, out, first: bool) -> list[str]:
        failures = checks.check_records(out, KAPPA, self.trials, self.methods)
        sax = codec.fit(codec.EncoderSpec(codec.EncodingMethod.SAX, segments=self.segments, kappa=KAPPA))
        failures += checks.check_sax_cutlines(sax.codebook, KAPPA)
        failures += checks.check_chain(self._chain_bounds(op))
        if first:
            failures += checks.check_identical(out, self.run(op), f"grid seed {op}")
        return failures

    def _chain_bounds(self, op: int) -> list[tuple]:
        """Lower bounds of each method on window pairs drawn here from the corpus.

        Encoders train, as in a grid cell, on PAA means of Z-normalized windows;
        the Euclidean side is computed from this module's own normalization.
        """
        x = np.asarray(self.corpus.values)
        n, m = self.length, self.segments
        rng = np.random.default_rng([op, 1])
        starts = rng.integers(0, x.size - n + 1, size=40 + 2 * self.chain_pairs)
        windows = [checks.znorm(x[s : s + n]) for s in starts]
        frames = np.array([w.reshape(m, -1).mean(axis=1) for w in windows[:40]])
        unit = frames / frames.std(axis=1, keepdims=True)
        bounds = []
        for method in self.methods:
            spec = codec.EncoderSpec(codec.EncodingMethod(method), segments=m, kappa=KAPPA, seed=op)
            paa_normalized = spec.normalization is codec.NormalizationMode.PAA_ZNORM
            enc = codec.fit(spec, [(unit if paa_normalized else frames).ravel()])
            for k in range(self.chain_pairs):
                u, v = windows[40 + 2 * k], windows[41 + 2 * k]
                a, b = codec.encode(enc, u), codec.encode(enc, v)
                eu = float(np.linalg.norm(checks.encoder_space(u, m, paa_normalized) - checks.encoder_space(v, m, paa_normalized)))
                md = metrics.mindist(a, b)
                mdp = metrics.mindist_paa(codec.paa_view(enc, u), b)
                bounds.append((f"{method} pair {k}", md, mdp, eu))
        return bounds

    def quality(self, op: int, out) -> dict:
        psax = next(r for r in out if r["method"] == "PSAX")
        return {"tlb_mean": psax["tlb_mean"], "rmse_mean": psax["rmse_mean"]}


class Detect:
    """Adaptive CSAX and fixed PSAX detection on one labeled 20 000-sample stream."""

    name = "detect"
    home = ("auc",)
    inputs = (("detect_level_shift_s13.csv", "level_shift_anomalies", 20000, 13),)
    warmup = None  # the pass's first op
    scale_by_calibration = True

    def __init__(self, data):
        self.stream = data[0]
        self.config = anomaly.DetectorConfig()  # the CLI defaults: window 50, alpha 0.05, kappa 10

    def ops(self, seed: int) -> list[int]:
        """One op per pass, whatever the seed: the op is the fixed detector's
        training-sample seed, kept at the CLI default because it sets how many
        components the detector's null set grows to."""
        return [0]

    def run(self, op: int):
        values, labels, window = self.stream.values, self.stream.labels, self.config.window
        csax = anomaly.run_csax_detector(values, self.config)
        fixed, codebook = harness.run_fixed_detector(values, codec.EncodingMethod.PSAX, self.config, seed=op)
        return {
            "csax": csax,
            "fixed": fixed,
            "codebook": codebook,
            "auc": harness.roc_from_events(csax.events, labels, window).auc,
            "fixed_auc": harness.roc_from_events(fixed, labels, window).auc,
        }

    def check(self, op: int, out, first: bool) -> list[str]:
        cfg = self.config
        values = np.asarray(self.stream.values)
        windows = values.size - cfg.window + 1
        csax = out["csax"]
        return (
            checks.check_event_log(csax.events, windows, cfg.window, cfg.alpha, "CSAX")
            + checks.check_rebuilds(csax.events, csax.rebuilds)
            + checks.check_event_log(out["fixed"], windows, cfg.window, cfg.alpha, "PSAX")
            + checks.check_fixed_replay(values, out["codebook"], out["fixed"], cfg.window, cfg.alpha)
        )

    def quality(self, op: int, out) -> dict:
        return {"auc": out["auc"]}


WORKLOADS = {w.name: w for w in (Fit, TlbRmse, Detect)}
QUALITY = ("recon_mse", "tlb_mean", "rmse_mean", "auc")


def reference_quality() -> dict:
    """Every quality figure on small fixed inputs, for workloads that lack it.

    Each run reports every end-to-end metric.  A workload reports its home
    quality figures from its own ops and these for the rest: a PSAX fit on
    4 000 bimodal values, one 20-trial grid cell on 10 000 bimodal values,
    and the adaptive detector on a 5 000-sample stream.  They are the same in
    every workload, so they move only when what the methods compute changes.
    ``run.py`` computes them once per library source, in a child process.
    """
    pool = harness.generate_synthetic("bimodal_mixture", 4000, seed=1)
    psax = codec.fit(codec.EncoderSpec(codec.EncodingMethod.PSAX, segments=16, kappa=KAPPA), [pool])
    corpus = harness.generate_synthetic("bimodal_mixture", 10000, seed=2)
    grid = harness.ExperimentGrid(lengths=(480,), byte_budgets=(16,), kappas=(KAPPA,), trials=20, seed=0)
    record = harness.run_tlb_rmse_experiment(corpus, grid, ("PSAX",))[0]
    stream = harness.generate_synthetic("level_shift_anomalies", 5000, seed=13)
    config = anomaly.DetectorConfig()
    events = anomaly.run_csax_detector(stream.values, config).events
    return {
        "recon_mse": codebook_mse(psax.codebook, np.asarray(pool.values)),
        "tlb_mean": record["tlb_mean"],
        "rmse_mean": record["rmse_mean"],
        "auc": harness.roc_from_events(events, stream.labels, config.window).auc,
    }

"""Each output check passes on a real saxkit output and fails on a corrupted one.

Run from the repository root::

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The outputs come from the workloads' own ops on small inputs, so the suite
takes seconds.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from saxkit import harness  # noqa: E402


def _codebook(cutlines, centroids, modes=None):
    return SimpleNamespace(cutlines=np.asarray(cutlines, float), centroids=np.asarray(centroids, float),
                           modes=None if modes is None else np.asarray(modes, float))


def _moved_centroid(codebook, i: int, delta: float):
    c = np.array(codebook.centroids)
    c[i] += delta
    return _codebook(0.5 * (c[:-1] + c[1:]), c)


class FitChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        series = [harness.generate_synthetic("bimodal_mixture", 3000, seed=1), harness.generate_synthetic("ar1", 3000, seed=0)]
        cls.wl = workloads.Fit(series)
        cls.wl.inputs = (("b", "bimodal_mixture", 3000, 1), ("a", "ar1", 3000, 0))
        cls.out = cls.wl.run(0)
        cls.pool = np.asarray(series[0].values)
        cls.ar1_out = cls.wl.run(1)

    def test_real_outputs_pass(self):
        self.assertEqual(self.wl.check(0, self.out, first=True), [])
        self.assertEqual(self.wl.check(1, self.ar1_out, first=True), [])

    def test_asax_centroid_off_its_cell_mean(self):
        cb = self.out["ASAX"].codebook
        self.assertEqual(checks.check_asax_centroids(self.pool, cb), [])
        bad = _codebook(cb.cutlines, np.array(cb.centroids) + np.eye(cb.centroids.size)[3] * 1e-6)
        self.assertTrue(checks.check_asax_centroids(self.pool, bad))

    def test_cutline_off_midpoint(self):
        cb = self.out["ASAX"].codebook
        cut = np.array(cb.cutlines)
        cut[2] += 1e-9
        self.assertTrue(checks.check_midpoint_cutlines(_codebook(cut, cb.centroids), "ASAX"))

    def test_psax_centroid_off_conditional_mean(self):
        enc = self.out["PSAX"]
        self.assertEqual(checks.check_psax_codebook(self.pool, enc.codebook, enc.density.bandwidth), [])
        bad = _moved_centroid(enc.codebook, 5, 1e-6)
        self.assertTrue(checks.check_psax_codebook(self.pool, bad, enc.density.bandwidth))

    def test_psax_wrong_bandwidth(self):
        enc = self.out["PSAX"]
        self.assertTrue(checks.check_psax_codebook(self.pool, enc.codebook, enc.density.bandwidth * 1.01))

    def test_csax_mode_not_stationary(self):
        cb = self.out["CSAX"].codebook
        modes = np.array(cb.modes) + np.array([0.05, 0.0])
        failures = checks.check_csax_codebook(self.pool, _codebook(cb.cutlines, modes, modes), bimodal=True)
        self.assertTrue(any("mean-shift" in f for f in failures), failures)

    def test_csax_cutline_not_a_valley(self):
        cb = self.out["CSAX"].codebook
        failures = checks.check_csax_codebook(self.pool, _codebook(np.array(cb.cutlines) + 0.5, cb.centroids, cb.modes), True)
        self.assertTrue(any("local minimum" in f for f in failures), failures)

    def test_csax_centroids_not_modes(self):
        cb = self.out["CSAX"].codebook
        failures = checks.check_csax_codebook(self.pool, _codebook(cb.cutlines, np.array(cb.centroids) * 1.01, cb.modes), True)
        self.assertTrue(any("not the modes" in f for f in failures), failures)

    def test_bimodal_pool_needs_two_modes_near_two(self):
        cb = self.out["CSAX"].codebook
        self.assertEqual(checks.check_csax_codebook(self.pool, cb, bimodal=True), [])
        shifted = self.pool + 1.0
        failures = checks.check_csax_codebook(shifted, _codebook(cb.cutlines + 1.0, cb.modes + 1.0, cb.modes + 1.0), True)
        self.assertTrue(any("near -2 and +2" in f for f in failures), failures)

    def test_single_mode_must_be_the_cutline(self):
        cb = self.ar1_out["CSAX"].codebook
        pool = np.asarray(self.wl.series[1].values)
        self.assertEqual(cb.modes.size, 1)
        self.assertEqual(checks.check_csax_codebook(pool, cb, bimodal=False), [])
        bad = _codebook(np.array(cb.cutlines) + 0.01, cb.centroids, cb.modes)
        self.assertTrue(checks.check_csax_codebook(pool, bad, bimodal=False))


class TlbRmseChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = workloads.TlbRmse([harness.generate_synthetic("bimodal_mixture", 6000, seed=0)])
        cls.wl.trials = 10
        cls.records = cls.wl.run(7)

    def test_real_output_passes(self):
        self.assertEqual(self.wl.check(7, self.records, first=True), [])

    def _corrupt(self, method, **changes):
        return [dict(r, **changes) if r["method"] == method else r for r in self.records]

    def test_records_out_of_range(self):
        check = lambda recs: checks.check_records(recs, 16, 10, self.wl.methods)  # noqa: E731
        self.assertEqual(check(self.records), [])
        self.assertTrue(check(self._corrupt("PSAX", tlb_mean=1.01)))
        self.assertTrue(check(self._corrupt("ASAX", tlb_mean=-0.01)))
        self.assertTrue(check(self._corrupt("SAX", rmse_mean=0.0)))
        self.assertTrue(check(self._corrupt("CSAX", rmse_mean=math.nan)))
        self.assertTrue(check(self._corrupt("PSAX", alphabet=15)))
        self.assertTrue(check(self._corrupt("SAX", trials=9)))
        self.assertTrue(check(self.records[:-1]))

    def test_sax_cutlines(self):
        from saxkit.discretize import gaussian_equiprobable_codebook

        cb = gaussian_equiprobable_codebook(16)
        self.assertEqual(checks.check_sax_cutlines(cb, 16), [])
        cut = np.array(cb.cutlines)
        cut[0] -= 1e-9
        self.assertTrue(checks.check_sax_cutlines(_codebook(cut, cb.centroids), 16))

    def test_lower_bound_chain(self):
        bounds = self.wl._chain_bounds(7)
        self.assertEqual(checks.check_chain(bounds), [])
        label, md, mdp, eu = next(b for b in bounds if b[1] > 0.0)
        self.assertTrue(checks.check_chain([(label, mdp * 1.01 + 1e-6, mdp, eu)]))
        self.assertTrue(checks.check_chain([(label, md, eu * 1.01 + 1e-6, eu)]))

    def test_rerun_identical(self):
        self.assertEqual(checks.check_identical(self.records, self.wl.run(7), "cell"), [])
        self.assertTrue(checks.check_identical(self.records, self._corrupt("PSAX", tlb_mean=0.5), "cell"))


class DetectChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        stream = harness.generate_synthetic("level_shift_anomalies", 3000, seed=13)
        cls.wl = workloads.Detect([stream])
        cls.out = cls.wl.run(1)
        cls.values = np.asarray(stream.values)
        cls.windows = cls.values.size - cls.wl.config.window + 1

    def _log(self, events):
        return checks.check_event_log(events, self.windows, 50, 0.05, "log")

    def test_real_output_passes(self):
        self.assertEqual(self.wl.check(1, self.out, first=True), [])

    def test_event_indices(self):
        events = self.out["csax"].events
        self.assertEqual(self._log(events), [])
        self.assertTrue(self._log(events[:-1]))
        self.assertTrue(self._log(events[:10] + events[11:] + events[-1:]))

    def test_flag_against_statistic(self):
        events = list(self.out["fixed"])
        k = next(i for i, ev in enumerate(events) if not ev.anomalous)
        events[k] = dataclasses.replace(events[k], anomalous=True)
        self.assertTrue(any("flagged" in f for f in self._log(events)))

    def test_threshold(self):
        events = list(self.out["fixed"])
        events[5] = dataclasses.replace(events[5], threshold=events[5].threshold * (1 + 1e-6))
        self.assertTrue(any("chi2.ppf" in f for f in self._log(events)))

    def test_first_window(self):
        events = list(self.out["csax"].events)
        events[0] = dataclasses.replace(events[0], min_statistic=1e9)
        self.assertTrue(any("first window" in f for f in self._log(events)))

    def test_statistic_floor(self):
        events = list(self.out["fixed"])
        k = next(i for i, ev in enumerate(events) if not ev.anomalous)
        events[k] = dataclasses.replace(events[k], min_statistic=-1e-6)
        self.assertTrue(any("below" in f for f in self._log(events)))

    def test_rebuild_count(self):
        result = self.out["csax"]
        self.assertEqual(checks.check_rebuilds(result.events, result.rebuilds), [])
        self.assertTrue(checks.check_rebuilds(result.events, result.rebuilds + 1))

    def test_fixed_replay(self):
        events, codebook = list(self.out["fixed"]), self.out["codebook"]
        self.assertEqual(checks.check_fixed_replay(self.values, codebook, events, 50, 0.05), [])
        k = next(i for i, ev in enumerate(events) if not ev.anomalous and ev.min_statistic > 0.0)
        bumped = events[:k] + [dataclasses.replace(events[k], min_statistic=events[k].min_statistic * 1.001)] + events[k + 1 :]
        self.assertTrue(checks.check_fixed_replay(self.values, codebook, bumped, 50, 0.05))
        moved = _codebook(np.array(codebook.cutlines) + 0.05, codebook.centroids)
        self.assertTrue(checks.check_fixed_replay(self.values, moved, events, 50, 0.05))


class TracerLeavesOutputsAlone(unittest.TestCase):
    def test_traced_op_equals_untraced(self):
        from tracer import Tracer

        wl = workloads.TlbRmse([harness.generate_synthetic("bimodal_mixture", 6000, seed=0)])
        wl.trials = 10
        plain = wl.run(3)
        with Tracer() as tracer:
            traced = wl.run(3)
        self.assertEqual(plain, traced)
        totals = tracer.totals(1)
        self.assertEqual(totals["harness.build_pool.calls"], 1)
        self.assertEqual(totals["metrics.tlb.calls"], 10 * len(wl.methods))
        self.assertGreater(totals["series.TimeSeries.calls"], 0)
        self.assertEqual(tracer.absent, [])
        from saxkit import codec, harness as h

        self.assertFalse(hasattr(codec.fit, "__wrapped__") or hasattr(h.fit, "__wrapped__"))


if __name__ == "__main__":
    unittest.main()

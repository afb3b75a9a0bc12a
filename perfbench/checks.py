"""Output checks computed apart from saxkit.

Each check takes a program output (and the inputs it came from), recomputes
what the output must be with plain numpy/scipy, and returns a list of failure
messages; an empty list means the output passed.  None of them calls the
function whose output it checks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import chi2, norm

# Kernel constants as the method defines them: Epanechnikov in unit-variance
# form on [-sqrt(5), sqrt(5)], Silverman rule 2.3449 * sigma * n**(-1/5) for
# PSAX and the gradient rule 0.9686 * sigma * n**(-1/7) for CSAX.
SQRT5 = math.sqrt(5.0)
EPA_C = 3.0 / (4.0 * SQRT5)
PSAX_BANDWIDTH_C = 2.3449
CSAX_BANDWIDTH_C = 0.9686

# Tolerances.  Centroids and cutlines are compared in units of the pool's
# standard deviation.
MEAN_TOL = 1e-9  # ASAX centroid vs. cell mean (prefix sums vs. np.mean)
MIDPOINT_TOL = 1e-12
PSAX_TOL = 1e-9  # PSAX centroid vs. exact conditional mean (fits reach ~1e-14)
STATIONARY_TOL = 1e-5  # |mean-shift vector| / bandwidth at a CSAX mode
VALLEY_STEP = 1e-3  # probe offset, in bandwidths, around a CSAX cutline
CHAIN_TOL = 1e-9  # relative slack in mindist <= mindist_paa <= euclidean
STAT_FLOOR = -1e-9  # rounding allowance for goodness-of-fit statistics
STAT_TOL = 1e-9  # relative agreement of replayed statistics


def _fail(cond: bool, message: str) -> list[str]:
    return [] if cond else [message]


# ---------------------------------------------------------------------------
# fit


def bandwidth(pool: np.ndarray, constant: float, power: float) -> float:
    return constant * float(np.std(pool)) * pool.size ** (-power)


def check_midpoint_cutlines(codebook, label: str) -> list[str]:
    c = np.asarray(codebook.centroids)
    cut = np.asarray(codebook.cutlines)
    expected = 0.5 * (c[:-1] + c[1:])
    scale = max(1.0, float(np.max(np.abs(c))))
    err = float(np.max(np.abs(cut - expected)))
    return _fail(err <= MIDPOINT_TOL * scale, f"{label}: cutline off its centroid midpoint by {err:.3e}")


def check_asax_centroids(pool: np.ndarray, codebook) -> list[str]:
    """Each centroid is the mean of the pool values in its cell."""
    cells = np.searchsorted(codebook.cutlines, pool, side="right")
    counts = np.bincount(cells, minlength=len(codebook.centroids))
    if np.any(counts == 0):
        return [f"ASAX: empty cell {int(np.argmin(counts))}"]
    means = np.array([pool[cells == i].mean() for i in range(counts.size)])
    err = float(np.max(np.abs(np.asarray(codebook.centroids) - means)))
    return _fail(err <= MEAN_TOL * float(np.std(pool)), f"ASAX: centroid differs from its cell mean by {err:.3e}")


class EpanechnikovKde:
    """Exact density of an Epanechnikov KDE from prefix sums of sorted samples.

    The density is a quadratic on every interval between consecutive kernel
    edges ``s +- sqrt(5) h``, so Simpson's rule on those intervals integrates
    ``f`` and ``x f`` exactly (up to rounding).
    """

    def __init__(self, samples: np.ndarray, h: float):
        self.center = float(np.mean(samples))
        self.s = np.sort(samples - self.center)
        self.h = h
        self.r = SQRT5 * h
        self.p1 = np.concatenate(([0.0], np.cumsum(self.s)))
        self.p2 = np.concatenate(([0.0], np.cumsum(self.s**2)))
        self.knots = np.sort(np.concatenate((self.s - self.r, self.s + self.r)))

    def pdf_centered(self, y: np.ndarray) -> np.ndarray:
        lo = np.searchsorted(self.s, y - self.r, side="left")
        hi = np.searchsorted(self.s, y + self.r, side="right")
        cnt = hi - lo
        s1 = self.p1[hi] - self.p1[lo]
        s2 = self.p2[hi] - self.p2[lo]
        total = cnt - (cnt * y * y - 2.0 * y * s1 + s2) / (5.0 * self.h**2)
        return np.maximum(total, 0.0) * EPA_C / (self.s.size * self.h)

    def cell_mass_mean(self, a: float, b: float) -> tuple[float, float]:
        """Mass of ``[a, b)`` and the conditional mean over it."""
        a = max(a - self.center, self.knots[0])
        b = min(b - self.center, self.knots[-1])
        if not a < b:
            return 0.0, math.nan
        inner = self.knots[(self.knots > a) & (self.knots < b)]
        edges = np.concatenate(([a], inner, [b]))
        left, right = edges[:-1], edges[1:]
        mid = 0.5 * (left + right)
        fl, fm, fr = (self.pdf_centered(v) for v in (left, mid, right))
        w = (right - left) / 6.0
        mass = float(np.sum(w * (fl + 4.0 * fm + fr)))
        first = float(np.sum(w * (left * fl + 4.0 * mid * fm + right * fr)))
        return mass, first / mass + self.center


def check_psax_codebook(pool: np.ndarray, codebook, model_bandwidth: float) -> list[str]:
    """Centroids are the conditional means of the Epanechnikov KDE over their cells."""
    h = bandwidth(pool, PSAX_BANDWIDTH_C, 1.0 / 5.0)
    out = _fail(
        abs(model_bandwidth - h) <= 1e-9 * h,
        f"PSAX: bandwidth {model_bandwidth!r} is not the Silverman value {h!r}",
    )
    kde = EpanechnikovKde(pool, h)
    edges = np.concatenate(([-np.inf], codebook.cutlines, [np.inf]))
    means = np.array([kde.cell_mass_mean(edges[i], edges[i + 1])[1] for i in range(edges.size - 1)])
    err = float(np.max(np.abs(np.asarray(codebook.centroids) - means)))
    if not err <= PSAX_TOL * float(np.std(pool)):
        out.append(f"PSAX: centroid differs from its KDE conditional mean by {err:.3e}")
    return out + check_midpoint_cutlines(codebook, "PSAX")


def gaussian_kde(samples: np.ndarray, h: float, x: np.ndarray) -> np.ndarray:
    u = (np.asarray(x, dtype=float)[:, None] - samples[None, :]) / h
    return np.exp(-0.5 * u * u).sum(axis=1) / (samples.size * h * math.sqrt(2.0 * math.pi))


def shift_vector(samples: np.ndarray, h: float, x: float) -> float:
    z = ((samples - x) / h) ** 2
    w = np.exp(-0.5 * (z - z.min()))
    return float(w @ samples / w.sum() - x)


def check_csax_codebook(pool: np.ndarray, codebook, bimodal: bool) -> list[str]:
    """Modes are stationary points of the Gaussian KDE, cutlines its valleys.

    With two or more modes the centroids are the modes; a single mode is the
    codebook's one cutline.
    """
    h = bandwidth(pool, CSAX_BANDWIDTH_C, 1.0 / 7.0)
    out = []
    c = np.asarray(codebook.centroids)
    cut = np.asarray(codebook.cutlines)
    modes = np.asarray(codebook.modes)
    worst = max(abs(shift_vector(pool, h, float(m))) for m in modes) / h
    if not worst <= STATIONARY_TOL:
        out.append(f"CSAX: mean-shift vector at a mode is {worst:.3e} bandwidths")
    if modes.size == 1:
        return out + _fail(np.array_equal(cut, modes), "CSAX: the single mode is not the cutline")
    if not np.array_equal(c, modes):
        out.append("CSAX: centroids are not the modes")
    if np.any(cut <= modes[:-1]) or np.any(cut >= modes[1:]):
        out.append("CSAX: cutline not strictly between its modes")
    step = VALLEY_STEP * h
    dens = gaussian_kde(pool, h, np.concatenate((cut - step, cut, cut + step))).reshape(3, -1)
    if np.any(dens[1] > np.minimum(dens[0], dens[2]) * (1.0 + 1e-12)):
        out.append("CSAX: cutline is not a local minimum of the density")
    if bimodal:
        near = modes.size == 2 and abs(modes[0] + 2.0) < 0.25 and abs(modes[1] - 2.0) < 0.25
        if not near:
            out.append(f"CSAX: expected two modes near -2 and +2, got {np.round(modes, 3).tolist()}")
    return out


# ---------------------------------------------------------------------------
# tlb_rmse


def check_records(records, kappa: int, trials: int, methods) -> list[str]:
    out = _fail([r["method"] for r in records] == list(methods), "records do not list each method once")
    for r in records:
        m = r["method"]
        if not 0.0 <= r["tlb_mean"] <= 1.0:
            out.append(f"{m}: tlb_mean {r['tlb_mean']!r} outside [0, 1]")
        if not (math.isfinite(r["rmse_mean"]) and r["rmse_mean"] > 0.0):
            out.append(f"{m}: rmse_mean {r['rmse_mean']!r} is not finite and positive")
        if m in ("SAX", "ASAX", "PSAX") and r["alphabet"] != kappa:
            out.append(f"{m}: alphabet {r['alphabet']} != kappa {kappa}")
        if r["trials"] != trials:
            out.append(f"{m}: {r['trials']} trials, asked for {trials}")
    return out


def check_sax_cutlines(codebook, kappa: int) -> list[str]:
    expected = norm.ppf(np.arange(1, kappa) / kappa)
    err = float(np.max(np.abs(np.asarray(codebook.cutlines) - expected)))
    return _fail(err <= 1e-12, f"SAX: cutlines differ from norm.ppf(i/kappa) by {err:.3e}")


def znorm(x: np.ndarray) -> np.ndarray:
    return (x - x.mean()) / x.std()


def encoder_space(u: np.ndarray, segments: int, paa_normalized: bool) -> np.ndarray:
    """A Z-normalized window expressed in the space its encoder quantizes.

    Encoders that normalize after PAA shift and scale the window by the mean
    and standard deviation of its segment means.
    """
    if not paa_normalized:
        return u
    means = u.reshape(segments, -1).mean(axis=1)
    return (u - means.mean()) / means.std()


def check_chain(bounds) -> list[str]:
    """``mindist <= mindist_paa <= euclidean`` for every ``(label, mindist, mindist_paa, euclidean)``."""
    out = []
    for label, md, mdp, eu in bounds:
        slack = CHAIN_TOL * max(eu, 1.0)
        if not md <= mdp + slack:
            out.append(f"{label}: mindist {md!r} > mindist_paa {mdp!r}")
        if not mdp <= eu + slack:
            out.append(f"{label}: mindist_paa {mdp!r} > euclidean {eu!r}")
    return out


def check_identical(first, second, label: str) -> list[str]:
    return _fail(first == second, f"{label}: rerun gave different records")


# ---------------------------------------------------------------------------
# detect


def check_event_log(events, windows: int, window: int, alpha: float, label: str) -> list[str]:
    """Indices, flags, thresholds, the first window and the statistic floor."""
    out = []
    idx = [ev.index for ev in events]
    if idx != list(range(window - 1, window - 1 + windows)):
        out.append(f"{label}: {len(idx)} events, expected consecutive indices {window - 1}..{window - 2 + windows}")
    stats = np.array([ev.min_statistic for ev in events])
    thr = np.array([ev.threshold for ev in events])
    flags = np.array([ev.anomalous for ev in events])
    if np.any(flags != (stats >= thr)):
        out.append(f"{label}: {int(np.sum(flags != (stats >= thr)))} windows flagged against statistic >= threshold")
    kappas = np.array([ev.kappa for ev in events])
    expected = chi2.ppf(1.0 - alpha, kappas - 1)
    err = float(np.max(np.abs(thr - expected) / expected)) if thr.size else 0.0
    if not err <= 1e-9:
        out.append(f"{label}: threshold differs from chi2.ppf(1-alpha, kappa-1) by {err:.3e} (relative)")
    if events and not (events[0].anomalous and math.isinf(events[0].min_statistic)):
        out.append(f"{label}: first window is not flagged with an infinite statistic")
    if stats.size and not np.all(stats >= STAT_FLOOR):
        out.append(f"{label}: statistic {float(stats.min())!r} below {STAT_FLOOR}")
    return out


def check_rebuilds(events, rebuilds: int) -> list[str]:
    flagged = sum(bool(ev.rebuild) for ev in events)
    return _fail(flagged == rebuilds, f"CSAX: {flagged} rebuild flags, result says {rebuilds}")


def replay_fixed_detector(values: np.ndarray, cutlines: np.ndarray, window: int, alpha: float):
    """The composite goodness-of-fit test on a Z-normalized, quantized stream.

    Returns ``(flags, statistics, components)`` per window.
    """
    z = (values - values.mean()) / values.std()
    symbols = np.searchsorted(cutlines, z, side="right")
    kappa = cutlines.size + 1
    threshold = chi2.ppf(1.0 - alpha, kappa - 1)
    onehot = np.eye(kappa)[symbols]
    csum = np.concatenate((np.zeros((1, kappa)), np.cumsum(onehot, axis=0)))
    rows = csum[window:] - csum[:-window]
    p_all = rows / window
    with np.errstate(divide="ignore"):
        logp_all = np.log(p_all)
    stored_log = np.empty((0, kappa))
    flags, stats, comps = [], [], []
    for p, logp in zip(p_all, logp_all):
        on = p > 0.0
        if stored_log.shape[0]:
            with np.errstate(invalid="ignore"):
                kl = (p[on] * (logp[on] - stored_log[:, on])).sum(axis=1)
            stat = float(2.0 * window * kl.min())
        else:
            stat = math.inf
        comps.append(stored_log.shape[0])
        flag = stat >= threshold
        if flag:
            stored_log = np.vstack((stored_log, logp))
        flags.append(flag)
        stats.append(stat)
    return np.array(flags), np.array(stats), np.array(comps)


def check_fixed_replay(values: np.ndarray, codebook, events, window: int, alpha: float) -> list[str]:
    flags, stats, comps = replay_fixed_detector(values, np.asarray(codebook.cutlines), window, alpha)
    if len(events) != flags.size:
        return [f"PSAX: {len(events)} events, replay has {flags.size} windows"]
    got_flags = np.array([ev.anomalous for ev in events])
    got_stats = np.array([ev.min_statistic for ev in events])
    got_comps = np.array([ev.components for ev in events])
    out = []
    if np.any(got_flags != flags):
        out.append(f"PSAX: {int(np.sum(got_flags != flags))} flags differ from the replay")
    if np.any(got_comps != comps):
        out.append(f"PSAX: component counts differ from the replay at {int(np.sum(got_comps != comps))} windows")
    same_inf = np.isinf(got_stats) == np.isinf(stats)
    finite = ~np.isinf(stats) & same_inf
    close = np.abs(got_stats[finite] - stats[finite]) <= STAT_TOL * np.maximum(1.0, np.abs(stats[finite]))
    if not (np.all(same_inf) and np.all(close)):
        out.append("PSAX: statistics differ from the replay")
    return out

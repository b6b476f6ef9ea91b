"""Detection metrics: EER on the ROC convex hull, per-attack aggregation,
and long-term average spectrum diagnostics.  The metrics need numpy alone;
the spectrum imports its DSP helpers when it runs.

A report's EER comes from one vectorised sweep of the step ROC (a sort
and a `searchsorted` per class), costing O(n log n) in the trial count.
The convex hull then sees only the sweep's corner points, a few hundred
where the step ROC has tens of thousands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NoActiveSpeechError
from .scores import ScoreSet

if TYPE_CHECKING:
    from .audio import AudioSignal


@dataclass(frozen=True)
class EvalReport:
    eer_percent: float
    n_target: int
    n_nontarget: int


def _roc_vertices(target_scores, nontarget_scores):
    """Step-ROC operating points swept from the accept-all threshold to the
    reject-all one, as two arrays (p_fa, p_miss); tied scores collapse to
    one vertex."""
    tar = np.sort(np.asarray(target_scores, dtype=np.float64))
    non = np.sort(np.asarray(nontarget_scores, dtype=np.float64))
    if tar.size == 0 or non.size == 0:
        raise ValueError("need at least one target and one non-target trial")
    # np.sort puts NaN last; a NaN has no place on the threshold axis
    if np.isnan(tar[-1]) or np.isnan(non[-1]):
        raise ValueError("scores must not be NaN")
    thresholds = np.unique(np.concatenate([tar, non]))
    p_fa = np.concatenate(
        [[1.0], (non.size - np.searchsorted(non, thresholds, "left"))
         / non.size, [0.0]])
    p_miss = np.concatenate(
        [[0.0], np.searchsorted(tar, thresholds, "left") / tar.size, [1.0]])
    # both coordinates are monotone, so repeated points are adjacent
    keep = np.ones(p_fa.size, dtype=bool)
    keep[1:] = (p_fa[1:] != p_fa[:-1]) | (p_miss[1:] != p_miss[:-1])
    return p_fa[keep], p_miss[keep]


def _lower_hull(vertices):
    """Lower-left convex frontier of the step-ROC vertices (p_fa, p_miss)
    in sweep order, returned as points with p_fa ascending.  Walking with
    p_fa ascending, a point entered horizontally or left vertically lies on
    or above its neighbours' chord, which the chain would pop; only corners
    enter it."""
    x, y = (coord[::-1] for coord in vertices)
    corner = np.ones(x.size, dtype=bool)
    corner[1:-1] = (y[:-2] != y[1:-1]) & (x[2:] != x[1:-1])
    pts = sorted(zip(x[corner].tolist(), y[corner].tolist()))
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _hull_eer(vertices) -> float:
    """Where the convex hull of the ROC vertices crosses p_miss = p_fa."""
    hull = _lower_hull(vertices)
    for (x1, y1), (x2, y2) in zip(hull[:-1], hull[1:]):
        d1, d2 = y1 - x1, y2 - x2
        if d1 == 0.0:
            return x1
        if d1 > 0 >= d2 or d1 < 0 <= d2:
            t = d1 / (d1 - d2)
            return x1 + t * (x2 - x1)
    return hull[-1][0] if hull[-1][1] == hull[-1][0] else 0.0


def rocch_eer(target_scores, nontarget_scores) -> float:
    """EER as the intersection of the ROC convex hull with p_miss = p_fa.

    Returned as a fraction in [0, 0.5].
    """
    return _hull_eer(_roc_vertices(target_scores, nontarget_scores))


def _report(tar, non) -> EvalReport:
    """EER of one (targets, non-targets) pair, from one ROC sweep."""
    return EvalReport(100.0 * rocch_eer(tar, non), tar.size, non.size)


def compute_eer_rocch(scores: ScoreSet) -> EvalReport:
    human = scores.target_mask
    return _report(scores.scores[human], scores.scores[~human])


def per_attack_eers(scores: ScoreSet, average_over=None):
    """One report per attack (targets shared, non-targets filtered), plus a
    macro-average over `average_over` (default: every attack present)."""
    human = scores.target_mask
    attacks = np.asarray(scores.attack_ids)
    tar = scores.scores[human]
    spoof = ~human
    present = sorted(set(attacks[spoof]))
    if not present:
        raise ValueError("no spoof trials with attack tags")
    reports = {}
    for attack in present:
        non = scores.scores[spoof & (attacks == attack)]
        reports[attack] = _report(tar, non)
    chosen = present if average_over is None else list(average_over)
    if not chosen:
        raise ValueError("empty attack subset for averaging")
    missing = set(chosen) - set(present)
    if missing:
        raise ValueError(f"attacks not present in scores: {sorted(missing)}")
    macro = float(np.mean([reports[a].eer_percent for a in chosen]))
    return reports, macro


# ---------------------------------------------------------------------------
# long-term average spectrum

@dataclass(frozen=True)
class LtasProfile:
    power: np.ndarray    # per-bin mean power over speech frames
    n_frames: int
    dft_size: int


def compute_ltas(signal: AudioSignal, vad=None,
                 frame_ms=20.0) -> LtasProfile:
    """Mean short-term power spectrum over speech frames, at a 512-point
    DFT; without vad, speech frames are those within 30 dB of the loudest.

    Frames do not overlap, so the profile of a concatenation of whole-frame
    segments is the frame-count-weighted mean of the parts' profiles.
    """
    from . import dsp   # scipy.fft, which scoring commands do not load

    frames = dsp.frame_signal(signal.samples, signal.sample_rate,
                              frame_ms=frame_ms, shift_ms=frame_ms)
    if vad is None:
        vad = dsp.energy_vad(frames, threshold_db=30.0)
    vad = np.asarray(vad, dtype=bool)
    if vad.shape[0] != frames.frames.shape[0]:
        raise ValueError("VAD length does not match frame count")
    if not np.any(vad):
        raise NoActiveSpeechError("no speech frames for LTAS")
    power = dsp.power_spectrum(frames, dft_size=512)
    return LtasProfile(power[vad].mean(axis=0), int(vad.sum()), 512)


def save_ltas_csv(path, profile: LtasProfile, sample_rate):
    bins = np.arange(profile.power.shape[0])
    freqs = bins * sample_rate / profile.dft_size
    table = np.column_stack([freqs, profile.power])
    np.savetxt(path, table, delimiter=",", header="freq_hz,power",
               comments="")

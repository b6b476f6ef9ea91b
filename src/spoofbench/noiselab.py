"""SNR-controlled noise mixing.

The mixing gain is anchored to the *active* speech level, measured with an
envelope-ladder meter (exponential smoothing, a 6 dB rung ladder, hangover,
and linear interpolation at the 15.9 dB margin crossing), so silence padding
does not dilute the target SNR. A plain RMS anchor is also available.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import butter, lfilter

from .audio import AudioSignal
from .config import NOISE_KINDS  # noqa: F401 - re-exported
from .errors import NoActiveSpeechError

ACTIVITY_MARGIN_DB = 15.9
HANGOVER_S = 0.2
SMOOTH_TC_S = 0.03


@dataclass(frozen=True)
class ActiveLevel:
    level_db: float       # mean-square level over active samples, dB
    activity: float       # fraction of samples counted active


@dataclass(frozen=True)
class MixResult:
    signal: AudioSignal
    scale: float          # post-mix attenuation (1.0 unless it would clip)
    snr_db: float         # target SNR actually realized (pre-scale)
    noise_offset: int     # start index into the noise record
    clipped: int          # samples that exceeded full scale before rescue


def _hangover_count(envelope, threshold, hang):
    """Samples whose smoothed envelope exceeded threshold within the last
    `hang` samples (inclusive)."""
    n = len(envelope)
    hit = envelope >= threshold
    marks = np.where(hit, np.arange(n), -hang - 1)
    last = np.maximum.accumulate(marks)
    return int(np.count_nonzero(np.arange(n) - last <= hang))


def active_speech_level(signal: AudioSignal) -> ActiveLevel:
    """Active speech level in dB (re unit full scale, mean-square).

    The rectified signal is smoothed by two cascaded one-pole averagers, then
    compared against a ladder of thresholds c_j = 2^-j. For each rung, A_j is
    the level over samples active at that rung (with hangover) and C_j the
    rung level; the active level is read off where A_j - C_j crosses the
    margin, interpolating linearly between adjacent rungs.
    """
    x = signal.samples
    n = len(x)
    energy = float(np.sum(x * x))
    if n == 0 or energy <= 0.0:
        raise NoActiveSpeechError("signal has no energy")
    g = float(np.exp(-1.0 / (signal.sample_rate * SMOOTH_TC_S)))
    p = lfilter([1.0 - g], [1.0, -g], np.abs(x))
    q = lfilter([1.0 - g], [1.0, -g], p)
    hang = int(round(HANGOVER_S * signal.sample_rate))

    prev = None   # (A_j, d_j) from the last rung below the margin
    for j in range(1, 64):
        c = 2.0 ** (-j)
        count = _hangover_count(q, c, hang)
        if count == 0:
            continue
        a_db = 10.0 * np.log10(energy / count)
        d = a_db - 20.0 * np.log10(c)
        if d >= ACTIVITY_MARGIN_DB:
            if prev is None or d == prev[1]:
                level = a_db
            else:
                a0, d0 = prev
                level = a0 + ((ACTIVITY_MARGIN_DB - d0) * (a_db - a0)
                              / (d - d0))
            activity = energy / (10.0 ** (level / 10.0)) / n
            return ActiveLevel(float(level), float(min(activity, 1.0)))
        prev = (a_db, d)
    # ladder exhausted without crossing: everything is active at the floor
    a_db = 10.0 * np.log10(energy / n)
    return ActiveLevel(float(a_db), 1.0)


def rms_level(signal: AudioSignal) -> float:
    """Overall mean-square level in dB."""
    x = signal.samples
    if len(x) == 0:
        raise NoActiveSpeechError("empty signal")
    ms = float(np.mean(x * x))
    if ms <= 0.0:
        raise NoActiveSpeechError("signal has no energy")
    return 10.0 * np.log10(ms)


def speech_level_db(signal: AudioSignal, method: str = "active") -> float:
    if method == "active":
        return active_speech_level(signal).level_db
    if method == "rms":
        return rms_level(signal)
    raise ValueError(f"unknown level method {method!r}")


def mix_at_snr(speech: AudioSignal, noise, snr_db: float, seed=None) -> MixResult:
    """Add a noise segment to speech at the requested SNR.

    The noise record is sampled at a random (seeded) offset with wraparound,
    scaled so that speech level minus noise level equals snr_db, and added.
    If the sum would clip, the whole mixture is attenuated to peak 1.0 --
    the SNR is unaffected -- and the event is reported in the result.
    """
    if isinstance(noise, AudioSignal):
        if noise.sample_rate != speech.sample_rate:
            raise ValueError("speech and noise sample rates differ")
        noise = noise.samples
    noise = np.asarray(noise, dtype=np.float64)
    if snr_db == np.inf:
        return MixResult(AudioSignal(speech.samples.copy(), speech.sample_rate),
                         1.0, np.inf, 0, 0)
    if not np.isfinite(snr_db):
        raise ValueError("snr_db must be finite or +inf")
    if noise.ndim != 1 or len(noise) == 0 or not np.any(noise):
        raise ValueError("noise record is empty or silent")

    rng = np.random.default_rng(seed)
    offset = int(rng.integers(0, len(noise)))
    idx = (offset + np.arange(len(speech.samples))) % len(noise)
    segment = noise[idx]
    seg_pow = float(np.mean(segment * segment))
    if seg_pow <= 0.0:
        raise ValueError("selected noise segment is silent")

    speech_pow = 10.0 ** (speech_level_db(speech) / 10.0)
    gain = float(np.sqrt(speech_pow / (seg_pow * 10.0 ** (snr_db / 10.0))))
    mixed = speech.samples + gain * segment
    peak = float(np.max(np.abs(mixed)))
    clipped = int(np.count_nonzero(np.abs(mixed) > 1.0))
    scale = 1.0 / peak if peak > 1.0 else 1.0
    return MixResult(AudioSignal(mixed * scale, speech.sample_rate),
                     scale, float(snr_db), offset, clipped)


def white_noise(n: int, seed=None) -> np.ndarray:
    """Unit-variance Gaussian noise."""
    return np.random.default_rng(seed).standard_normal(n)


def car_noise(n: int, sample_rate: int, seed=None) -> np.ndarray:
    """Low-frequency rumble surrogate: white noise through a 500 Hz lowpass,
    renormalized to unit variance."""
    b, a = butter(4, 500.0 / (sample_rate / 2.0))
    x = lfilter(b, a, white_noise(n, seed))
    return x / max(np.std(x), 1e-30)


def babble_noise(n: int, sample_rate: int, seed=None) -> np.ndarray:
    """Speech-band surrogate: a handful of independent noise streams, each
    bandpassed to the 300-3400 Hz telephone band with slow random amplitude
    modulation, summed and renormalized."""
    rng = np.random.default_rng(seed)
    b, a = butter(2, [300.0 / (sample_rate / 2.0), 3400.0 / (sample_rate / 2.0)],
                  btype="band")
    bm, am = butter(2, 4.0 / (sample_rate / 2.0))   # ~4 Hz syllabic envelope
    total = np.zeros(n)
    for _ in range(6):
        stream = lfilter(b, a, rng.standard_normal(n))
        env = lfilter(bm, am, np.abs(rng.standard_normal(n)))
        total += stream * (1.0 + env / max(np.std(env), 1e-30))
    return total / max(np.std(total), 1e-30)


# the generator of each kind of NOISE_KINDS, in its order:
# (n, sample_rate, seed) -> unit-variance noise
_GENERATORS = {"white": lambda n, sample_rate, seed: white_noise(n, seed),
               "car": car_noise, "babble": babble_noise}


def make_noise(kind: str, n: int, sample_rate: int, seed=None) -> np.ndarray:
    try:
        generate = _GENERATORS[kind]
    except KeyError:
        raise ValueError(f"unknown noise kind {kind!r}") from None
    return generate(n, sample_rate, seed)

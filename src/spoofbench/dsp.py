"""Short-term analysis primitives shared by all feature extractors.

Conventions used throughout the workbench:
  * frames of `frame_ms` milliseconds advanced by `shift_ms` (20/10 default),
  * a trailing partial frame is dropped, never padded,
  * spectra are computed on `dft_size` points (power of two >= frame length)
    and only bins 0..dft_size/2 are kept,
  * logs are floored at LOG_FLOOR before being taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft

from .errors import AlignmentError, EmptyFeaturesError

LOG_FLOOR = 1e-10

# regression window of +/- 2 frames for the delta computation
_DELTA_SPAN = 2


@dataclass(frozen=True)
class FrameMatrix:
    """Windowed analysis frames, one per row."""

    frames: np.ndarray          # (T, N)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def frame_length(self) -> int:
        return self.frames.shape[1]


def frame_length_samples(frame_ms: float, sample_rate: int) -> int:
    return int(round(frame_ms * sample_rate / 1000.0))


def frame_shift_samples(shift_ms: float, sample_rate: int) -> int:
    return int(round(shift_ms * sample_rate / 1000.0))


def window_function(name: str, length: int) -> np.ndarray:
    if name == "hamming":
        return np.hamming(length)
    if name == "hann":
        return np.hanning(length)
    if name in ("rect", "rectangular", "boxcar"):
        return np.ones(length)
    raise ValueError(f"unknown window {name!r}")


def n_frames_for(n_samples: int, frame_ms: float, shift_ms: float, sample_rate: int) -> int:
    """Frame count produced by frame_signal for a signal of n_samples."""
    n = frame_length_samples(frame_ms, sample_rate)
    shift = frame_shift_samples(shift_ms, sample_rate)
    if n_samples < n:
        return 0
    return (n_samples - n) // shift + 1


def frame_signal(samples, sample_rate: int, frame_ms: float = 20.0,
                 shift_ms: float = 10.0, window: str = "hamming") -> FrameMatrix:
    """Slice a signal into overlapping windowed frames.

    Frame t covers samples [t*shift, t*shift + N). The final partial frame is
    dropped. A signal shorter than one frame yields an empty 0 x N matrix.
    """
    if shift_ms <= 0:
        raise ValueError("frame shift must be positive")
    if frame_ms < shift_ms:
        raise ValueError("frame length must be >= frame shift")
    x = np.asarray(samples, dtype=np.float64)
    n = frame_length_samples(frame_ms, sample_rate)
    shift = frame_shift_samples(shift_ms, sample_rate)
    if n <= 0 or shift <= 0:
        raise ValueError("frame length and shift must be at least one sample")
    t = n_frames_for(len(x), frame_ms, shift_ms, sample_rate)
    if t <= 0:
        frames = np.empty((0, n))
    else:
        idx = shift * np.arange(t)[:, None] + np.arange(n)[None, :]
        frames = x[idx]
    frames = frames * window_function(window, n)[None, :]
    return FrameMatrix(frames)


def _check_dft_size(dft_size: int, frame_length: int):
    if dft_size < frame_length:
        raise ValueError("dft_size must be >= frame length")
    if dft_size & (dft_size - 1) or dft_size <= 0:
        raise ValueError("dft_size must be a power of two")


def power_spectrum(frames: FrameMatrix, dft_size: int = 512) -> np.ndarray:
    """Squared-magnitude DFT of each frame, bins 0..dft_size/2 (T x K/2+1)."""
    _check_dft_size(dft_size, frames.frame_length)
    spec = np.fft.rfft(frames.frames, n=dft_size, axis=1)
    return np.abs(spec) ** 2


def magnitude_spectrum(frames: FrameMatrix, dft_size: int = 512) -> np.ndarray:
    _check_dft_size(dft_size, frames.frame_length)
    return np.abs(np.fft.rfft(frames.frames, n=dft_size, axis=1))


def phase_spectrum(frames: FrameMatrix, dft_size: int = 512) -> np.ndarray:
    """Principal-value phase of each frame's DFT, in (-pi, pi] (T x K/2+1)."""
    _check_dft_size(dft_size, frames.frame_length)
    return np.angle(np.fft.rfft(frames.frames, n=dft_size, axis=1))


def dct_features(log_energies, n_coeffs: int) -> np.ndarray:
    """Orthonormal type-II DCT along rows, keeping the first n_coeffs."""
    e = np.atleast_2d(np.asarray(log_energies, dtype=np.float64))
    if n_coeffs < 1 or n_coeffs > e.shape[1]:
        raise ValueError("n_coeffs must be in 1..row length")
    return scipy.fft.dct(e, type=2, norm="ortho", axis=1)[:, :n_coeffs]


def append_deltas(features, order: int = 2) -> np.ndarray:
    """Append regression deltas (and delta-deltas for order 2).

    Deltas use the standard +/-2 frame regression with edge frames replicated,
    so the output keeps the input frame count. Columns grow D -> D*(order+1).
    """
    if order not in (1, 2):
        raise ValueError("delta order must be 1 or 2")
    base = np.asarray(features, dtype=np.float64)
    if base.ndim != 2:
        raise ValueError("feature matrix must be 2-D")
    blocks = [base]
    cur = base
    for _ in range(order):
        cur = _delta(cur)
        blocks.append(cur)
    return np.hstack(blocks)


def _delta(feat: np.ndarray) -> np.ndarray:
    if feat.shape[0] == 0:
        return feat.copy()
    pad = np.vstack([feat[:1]] * _DELTA_SPAN + [feat] + [feat[-1:]] * _DELTA_SPAN)
    denom = 2.0 * sum(n * n for n in range(1, _DELTA_SPAN + 1))
    num = np.zeros_like(feat)
    t = feat.shape[0]
    for n in range(1, _DELTA_SPAN + 1):
        num += n * (pad[_DELTA_SPAN + n:_DELTA_SPAN + n + t]
                    - pad[_DELTA_SPAN - n:_DELTA_SPAN - n + t])
    return num / denom


def cepstral_mean_subtract(features) -> np.ndarray:
    """Subtract the per-coefficient mean over frames (no-op on empty input)."""
    feat = np.asarray(features, dtype=np.float64)
    if feat.shape[0] == 0:
        return feat.copy()
    return feat - feat.mean(axis=0, keepdims=True)


def energy_vad(frames: FrameMatrix, threshold_db: float = 30.0) -> np.ndarray:
    """Energy VAD: keep frames within threshold_db of the loudest frame.

    The threshold is relative to the utterance maximum, which makes the mask
    invariant to global gain. All-zero utterances produce an all-False mask.
    """
    if threshold_db <= 0:
        raise ValueError("threshold_db must be positive")
    energy = np.sum(frames.frames ** 2, axis=1)
    if energy.size == 0:
        return np.zeros(0, dtype=bool)
    emax = energy.max()
    if emax <= 0:
        return np.zeros(energy.size, dtype=bool)
    log_e = 10.0 * np.log10(np.maximum(energy, LOG_FLOOR))
    return log_e > 10.0 * np.log10(emax) - threshold_db


def apply_vad(features, vad_mask) -> np.ndarray:
    """Drop non-speech rows. Raises EmptyFeaturesError if nothing survives."""
    feat = np.asarray(features, dtype=np.float64)
    mask = np.asarray(vad_mask, dtype=bool)
    if feat.shape[0] != mask.shape[0]:
        raise AlignmentError(
            f"VAD mask has {mask.shape[0]} frames, features have {feat.shape[0]}")
    kept = feat[mask]
    if kept.shape[0] == 0:
        raise EmptyFeaturesError("no speech frames survive VAD")
    return kept


@lru_cache(maxsize=4)
def _hilbert_kernel(n: int) -> tuple[int, np.ndarray]:
    """(m, rfft(g, m)) for the length-n circular Hilbert kernel
    g = Im(IDFT_n(H)), H being the one-sided analytic-signal weight: 1 at DC,
    2 on the positive bins, 1 at Nyquist for even n.  The DC and Nyquist
    terms of an IDFT are real, so only the positive bins reach g.

    m = n when n is 11-smooth (`next_fast_len`'s own test), as pocketfft then
    needs no Bluestein: at n = 21000-26000 one 8-row FFT pair at length n
    cost 0.4-0.8 of the pair at the padded length.  Otherwise
    m = next_fast_len(2n - 1), long enough that the product is a linear
    convolution, which the caller folds back modulo n."""
    h = np.zeros(n)
    h[1:(n + 1) // 2] = 2.0
    g = scipy.fft.ifft(h).imag
    m = n if scipy.fft.next_fast_len(n) == n else scipy.fft.next_fast_len(2 * n - 1, real=True)
    spectrum = scipy.fft.rfft(g, m)
    spectrum.flags.writeable = False
    return m, spectrum


def analytic_envelope(samples) -> np.ndarray:
    """Squared magnitude of the length-n circular analytic signal along the
    last axis (each row of a matrix is one signal), as Marple's FFT method
    in `scipy.signal.hilbert` defines it.  Its real part is x, its imaginary
    part the circular convolution of x with `_hilbert_kernel`'s g, done with
    one real FFT pair at a fast length, so no row's transform reaches
    pocketfft's Bluestein path.  Every value is within 1e-12 times the
    largest of the scipy result (property test against
    tests/reference.py::analytic_envelope_oracle; at most 2.4e-15 measured
    over lengths 1-600 and 60 lengths of 21000-26000)."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size == 0:
        return np.zeros(x.shape)
    n = x.shape[-1]
    m, spectrum = _hilbert_kernel(n)
    spec = scipy.fft.rfft(x, m, axis=-1)
    spec *= spectrum
    full = scipy.fft.irfft(spec, m, axis=-1)
    y = full[..., :n]
    if m > n:
        y[..., :n - 1] += full[..., n:2 * n - 1]
    env = x * x
    y *= y
    env += y
    return env


def safe_log(values) -> np.ndarray:
    """Natural log with the workbench-wide floor applied first."""
    return np.log(np.maximum(values, LOG_FLOOR))

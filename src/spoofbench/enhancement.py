"""Classical single-channel enhancement: spectral subtraction and a
decision-directed Wiener filter.

Both operate on a sqrt-Hann STFT at 50% overlap (perfect reconstruction) and
take their noise statistics from a leading noise-only stretch of the input,
120 ms by default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import AudioSignal

FRAME_MS = 20.0
LEAD_MS = 120.0
_TINY = 1e-30


@dataclass(frozen=True)
class NoiseProfile:
    """Average noise magnitude and power per DFT bin."""

    magnitude: np.ndarray
    power: np.ndarray
    n_frames: int


def _frame_len(rate) -> int:
    n = int(round(FRAME_MS * rate / 1000.0))
    return n + (n % 2)   # even length so hop = n/2 is exact


def _dft_size(n) -> int:
    return int(2 ** np.ceil(np.log2(n)))


def _window(n) -> np.ndarray:
    # square root of the periodic Hann window; analysis * synthesis sums to 1
    return np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n))


def stft(signal: AudioSignal):
    """sqrt-Hann STFT at 50% overlap, edge-padded for perfect reconstruction.

    Returns (complex spectra (T x K/2+1), frame length). Use istft() with the
    original signal length to invert.
    """
    x = signal.samples
    n = _frame_len(signal.sample_rate)
    hop = n // 2
    padded = np.concatenate([np.zeros(hop), x, np.zeros(n)])
    t = (len(padded) - n) // hop + 1
    idx = hop * np.arange(t)[:, None] + np.arange(n)[None, :]
    frames = padded[idx] * _window(n)[None, :]
    return np.fft.rfft(frames, n=_dft_size(n), axis=1), n


def istft(spectra: np.ndarray, n: int, out_len: int) -> np.ndarray:
    """Overlap-add inverse of stft(); output trimmed to out_len samples."""
    hop = n // 2
    frames = np.fft.irfft(spectra, n=_dft_size(n), axis=1)[:, :n]
    frames = frames * _window(n)[None, :]
    total = hop * (spectra.shape[0] - 1) + n
    y = np.zeros(total)
    for t in range(spectra.shape[0]):
        y[t * hop:t * hop + n] += frames[t]
    return y[hop:hop + out_len]


def estimate_noise(signal: AudioSignal, lead_ms: float = LEAD_MS) -> NoiseProfile:
    """Average spectral statistics over the leading noise-only stretch."""
    rate = signal.sample_rate
    lead = int(round(lead_ms * rate / 1000.0))
    if len(signal.samples) < lead:
        raise ValueError(f"signal shorter than the {lead_ms:.0f} ms noise lead")
    n = _frame_len(rate)
    hop = n // 2
    seg = signal.samples[:lead]
    t = (len(seg) - n) // hop + 1
    if t < 1:
        raise ValueError("noise lead shorter than one analysis frame")
    idx = hop * np.arange(t)[:, None] + np.arange(n)[None, :]
    spec = np.fft.rfft(seg[idx] * _window(n)[None, :], n=_dft_size(n), axis=1)
    mag = np.abs(spec)
    return NoiseProfile(mag.mean(axis=0), (mag ** 2).mean(axis=0), t)


def spectral_subtract(signal: AudioSignal, profile: NoiseProfile | None = None,
                      domain: str = "magnitude", oversubtraction: float = 1.0,
                      floor: float = 0.02) -> AudioSignal:
    """Subtract the noise profile per bin, flooring at `floor` times the
    profile, and resynthesize with the original phase."""
    if domain not in ("magnitude", "power"):
        raise ValueError("domain must be 'magnitude' or 'power'")
    if oversubtraction < 0 or floor < 0:
        raise ValueError("oversubtraction and floor must be nonnegative")
    if profile is None:
        profile = estimate_noise(signal)
    spec, n = stft(signal)
    mag = np.abs(spec)
    phase = np.exp(1j * np.angle(spec))
    if domain == "magnitude":
        new_mag = np.maximum(mag - oversubtraction * profile.magnitude,
                             floor * profile.magnitude)
    else:
        new_pow = np.maximum(mag ** 2 - oversubtraction * profile.power,
                             floor * profile.power)
        new_mag = np.sqrt(new_pow)
    out = istft(new_mag * phase, n, len(signal.samples))
    return AudioSignal(out, signal.sample_rate)


def wiener_filter(signal: AudioSignal, profile: NoiseProfile | None = None,
                  alpha: float = 0.98, gain_floor: float = 0.02) -> AudioSignal:
    """Wiener gain G = xi / (1 + xi) with decision-directed a-priori SNR.

    xi_t = alpha * G_{t-1}^2 gamma_{t-1} + (1 - alpha) * max(gamma_t - 1, 0);
    a zero noise profile drives gamma to infinity and the gain to one, so the
    filter degrades to (near) identity on clean input.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must be in [0, 1)")
    if profile is None:
        profile = estimate_noise(signal)
    spec, n = stft(signal)
    noise_pow = np.maximum(profile.power, _TINY)
    gamma = np.abs(spec) ** 2 / noise_pow
    gains = np.empty_like(gamma)
    prev = None
    for t in range(spec.shape[0]):
        inst = np.maximum(gamma[t] - 1.0, 0.0)
        if prev is None:
            xi = alpha + (1.0 - alpha) * inst
        else:
            xi = alpha * gains[prev] ** 2 * gamma[prev] + (1.0 - alpha) * inst
        gains[t] = np.maximum(xi / (1.0 + xi), gain_floor)
        prev = t
    out = istft(gains * spec, n, len(signal.samples))
    return AudioSignal(out, signal.sample_rate)


ENHANCEMENT_METHODS = ("specsub-mag", "specsub-pow", "wiener")


def enhance(signal: AudioSignal, method: str) -> AudioSignal:
    """Name-based dispatch used by the harness config."""
    if method == "specsub-mag":
        return spectral_subtract(signal, domain="magnitude")
    if method == "specsub-pow":
        return spectral_subtract(signal, domain="power")
    if method == "wiener":
        return wiener_filter(signal)
    raise ValueError(f"unknown enhancement method {method!r}")

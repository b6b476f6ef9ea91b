"""The eight acoustic front-ends used by the workbench.

Magnitude-domain: MFCC, IMFCC (inverted mel), SCMC (subband spectral centroid
magnitudes), CQCC (constant-Q cepstra), MHEC (gammatone Hilbert-envelope
cepstra). Phase-domain: RPS (relative phase shift of harmonics), MGD
(modified group delay), CosPhase (cosine of the unwrapped phase).

All extractors share the 20 ms / 10 ms analysis grid, 512-point spectra,
32 filters and 32 cepstral coefficients including c0. Post-processing is
deltas -> cepstral mean subtraction -> VAD frame dropping; the per-feature
defaults follow the usual practice of applying dynamics+CMS to the
magnitude-style features and leaving RPS / CosPhase raw.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
import scipy.interpolate
import scipy.signal
from numpy.lib.stride_tricks import sliding_window_view

from . import dsp, filterbanks
from .audio import AudioSignal
from .config import FEATURE_KINDS, FeatureConfig  # noqa: F401 - re-exported
from .errors import AlignmentError, EmptyFeaturesError


@lru_cache(maxsize=32)
def _bank(design, n_filters, dft_size, rate):
    """design(n_filters, dft_size, rate) is a filterbanks bank builder."""
    return design(n_filters, dft_size, rate)


@lru_cache(maxsize=8)
def _gt_bank(rate, n_filters, f_lo, f_hi):
    return filterbanks.gammatone_bank(rate, n_filters, f_lo, f_hi)


@lru_cache(maxsize=8)
def _cqt_kern(rate, bins_per_octave, octaves):
    f_max = rate / 2.0
    return filterbanks.cqt_kernel(rate, bins_per_octave, f_max / 2.0 ** octaves, f_max)


def compute_vad_mask(signal: AudioSignal, config: FeatureConfig) -> np.ndarray:
    """Energy VAD on the feature analysis grid (used to drop silence frames).

    For noisy or enhanced variants of an utterance the mask should be computed
    once on the clean signal and passed into extract() explicitly.
    """
    fm = dsp.frame_signal(signal.samples, signal.sample_rate,
                          config.frame_ms, config.shift_ms, config.window)
    return dsp.energy_vad(fm, config.vad_threshold_db)


def extract(signal: AudioSignal, config: FeatureConfig, vad=None) -> np.ndarray:
    """Frame the signal, run the front-end of config.kind, then deltas ->
    CMS -> VAD frame dropping.  Returns a (frames x dimension) matrix.

    vad is a boolean mask on the analysis grid (see compute_vad_mask); by
    default the signal's own energy VAD is used.
    """
    fm = dsp.frame_signal(signal.samples, signal.sample_rate,
                          config.frame_ms, config.shift_ms, config.window)
    if fm.n_frames == 0:
        raise EmptyFeaturesError("signal shorter than one analysis frame")
    if vad is None:
        vad = dsp.energy_vad(fm, config.vad_threshold_db)
    vad = np.asarray(vad, dtype=bool)
    if vad.shape != (fm.n_frames,):
        raise AlignmentError(
            f"VAD mask has {vad.size} frames, features have {fm.n_frames}")
    feats, rows = _FRONT_ENDS[config.kind](signal, fm, config)
    if rows is not None:
        vad = vad[rows]
    if config.want_delta:
        feats = dsp.append_deltas(feats, order=2 if config.want_deltadelta else 1)
    if config.want_cms:
        feats = dsp.cepstral_mean_subtract(feats)
    return dsp.apply_vad(feats, vad)


# --- magnitude-domain cepstra -------------------------------------------------

def _filterbank_cepstra(design, signal, fm, config):
    """MFCC (mel bank) and IMFCC (inverted mel bank): log band powers -> DCT."""
    power = dsp.power_spectrum(fm, config.dft_size)
    bank = _bank(design, config.n_filters, config.dft_size, signal.sample_rate)
    return dsp.dct_features(dsp.safe_log(bank.apply(power)), config.n_coeffs), None


def subband_centroid_magnitudes(magnitude, bank) -> np.ndarray:
    """Per band: mean magnitude weighted by normalized frequency.

    SCM_i = sum_k f[k] |X[k]| w_i[k] / sum_k f[k] w_i[k] with f[k] = k/(K/2).
    """
    n_bins = magnitude.shape[1]
    f = np.arange(n_bins) / (n_bins - 1)
    denom = bank.weights @ f
    num = (magnitude * f) @ bank.weights.T
    out = np.zeros_like(num)
    ok = denom > 0
    out[:, ok] = num[:, ok] / denom[ok]
    return out


def _scmc(signal, fm, config):
    mag = dsp.magnitude_spectrum(fm, config.dft_size)
    bank = _bank(filterbanks.linear_filterbank, config.n_filters,
                 config.dft_size, signal.sample_rate)
    scm = subband_centroid_magnitudes(mag, bank)
    return dsp.dct_features(dsp.safe_log(scm), config.n_coeffs), None


def resample_log_spectrum(rows, geo_freqs) -> np.ndarray:
    """Cubic-spline resampling from a geometric frequency grid to a uniform
    one of as many points.

    Used to put constant-Q log spectra on a linear axis before the DCT.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    geo_freqs = np.asarray(geo_freqs, dtype=np.float64)
    uniform = np.linspace(geo_freqs[0], geo_freqs[-1], geo_freqs.size)
    spline = scipy.interpolate.CubicSpline(geo_freqs, rows, axis=1)
    return spline(uniform)


def _cqcc(signal, fm, config):
    kern = _cqt_kern(signal.sample_rate, config.cqt_bins_per_octave, config.cqt_octaves)
    power = filterbanks.cqt(signal, kern, config.frame_ms, config.shift_ms)
    linear = resample_log_spectrum(dsp.safe_log(power), kern.center_freqs)
    return dsp.dct_features(linear, config.n_coeffs), None


# gammatone channels per streamed MHEC block.  mhec_band_energies of the
# 32-channel bank, timed on one BLAS thread inside a fork-pool worker with
# the workers' heap policy (runtime.keep_freed_heap), over 20 toy
# utterances in two runs, took a median of 57.5/61.8 ms at 4 rows,
# 58.0/65.2 at 8 and 56.4/65.2 at 16, with 600-1,000 minor faults per 20
# utterances at each size: within noise, and 8 rows keep a block's memory
# at a quarter of the bank.  Without the policy the worker took 9.7k,
# 39.9k and 95.4k faults
_MHEC_BLOCK = 8


def mhec_band_energies(signal, config, n_frames) -> np.ndarray:
    """(M, n_frames) window-averaged smoothed Hilbert energies per gammatone
    channel.  Channels are streamed in blocks (filter, squared Hilbert
    envelope, 20 Hz zero-phase smoothing, framing), so only a block of
    signal-length rows is alive at once; every step works row by row, so
    the result does not depend on the block size."""
    bank = _gt_bank(signal.sample_rate, config.n_filters, config.gt_f_lo, config.gt_f_hi)
    b, a = scipy.signal.butter(2, config.envelope_cutoff_hz / (signal.sample_rate / 2.0))
    n = dsp.frame_length_samples(config.frame_ms, signal.sample_rate)
    shift = dsp.frame_shift_samples(config.shift_ms, signal.sample_rate)
    w = dsp.window_function(config.window, n)
    w = w / w.sum()
    energies = np.empty((bank.n_filters, n_frames))
    for lo in range(0, bank.n_filters, _MHEC_BLOCK):
        rows = slice(lo, lo + _MHEC_BLOCK)
        env = dsp.analytic_envelope(bank.filter(signal.samples, rows))
        smooth = scipy.signal.filtfilt(b, a, env)
        energies[rows] = sliding_window_view(smooth, n, axis=1)[:, ::shift][:, :n_frames] @ w
    return energies


def _mhec(signal, fm, config):
    """Gammatone channels -> squared Hilbert envelope -> 20 Hz smoothing ->
    frame-averaged energies -> log -> DCT."""
    energies = mhec_band_energies(signal, config, fm.n_frames)
    return dsp.dct_features(dsp.safe_log(energies.T), config.n_coeffs), None


# --- pitch tracking and relative phase shifts ---------------------------------

@dataclass(frozen=True)
class F0Track:
    """Autocorrelation pitch track on its own (longer-window) grid."""

    f0: np.ndarray        # Hz, 0 where unvoiced
    voiced: np.ndarray    # bool
    frame_ms: float
    shift_ms: float


def estimate_f0(signal: AudioSignal, config: FeatureConfig | None = None) -> F0Track:
    """Normalized-autocorrelation pitch tracker with parabolic peak refinement.

    The signal is low-passed first so the autocorrelation peak stays a few
    samples wide, and submultiples of the best lag are checked to avoid
    octave-down errors on strongly harmonic material.
    """
    config = config or FeatureConfig("rps")
    rate = signal.sample_rate
    cutoff = min(1500.0, 0.45 * rate)
    b, a = scipy.signal.butter(4, cutoff / (rate / 2.0))
    lowpassed = scipy.signal.lfilter(b, a, signal.samples)
    fm = dsp.frame_signal(lowpassed, rate, config.f0_frame_ms,
                          config.shift_ms, window="rect")
    lag_min = max(2, int(np.floor(rate / config.f0_max)))
    lag_max = int(np.ceil(rate / config.f0_min))
    n = fm.frame_length
    if lag_max >= n:
        raise ValueError("pitch window too short for f0_min")

    size = int(2 ** np.ceil(np.log2(2 * n)))
    spec = np.fft.rfft(fm.frames, n=size, axis=1)
    corr = np.fft.irfft(np.abs(spec) ** 2, n=size, axis=1)[:, :lag_max + 2]
    f0, voiced = _pitch_decisions(corr, rate, lag_min, lag_max,
                                  config.f0_voicing_threshold)
    return F0Track(f0, voiced, config.f0_frame_ms, config.shift_ms)


def _pitch_decisions(corr, rate, lag_min, lag_max, threshold):
    """(f0, voiced) of each autocorrelation row r (lags 0..lag_max + 1).

    A row with r[0] > 0 is voiced when its normalized peak over lags
    lag_min..lag_max reaches threshold.  The lag is then the shortest of the
    peak lag and the local maxima within 2 lags of its 2nd, 3rd and 4th
    submultiples (those at or above lag_min) that reach 0.9 of its
    strength, refined by a parabola through its neighbours.  All rows are
    decided at once, with the same scalar operations as a row at a time.
    """
    f0 = np.zeros(corr.shape[0])
    voiced = np.zeros(corr.shape[0], dtype=bool)
    rows = np.flatnonzero(~(corr[:, 0] <= 0))
    r = corr[rows]
    norm = r / r[:, :1]
    at = np.arange(rows.size)
    best = lag_min + np.argmax(norm[:, lag_min:lag_max + 1], axis=1)
    strength = norm[at, best]
    # prefer the shortest submultiple lag that is nearly as strong
    lag = best
    for div in (2, 3, 4):
        cand = best / div
        centre = np.rint(cand).astype(int)   # half to even, as round()
        lo = np.maximum(lag_min, centre - 2)
        hi = np.minimum(lag_max, centre + 2)
        window = lo[:, None] + np.arange(5)
        local = lo + np.argmax(np.where(
            window <= hi[:, None],
            r[at[:, None], np.minimum(window, lag_max)], -np.inf), axis=1)
        better = (cand >= lag_min) & (norm[at, local] >= 0.9 * strength)
        lag = np.where(better, np.minimum(lag, local), lag)
    y0, y1, y2 = (norm[at, lag + i] for i in (-1, 0, 1))
    denom = y0 - 2.0 * y1 + y2
    delta = np.clip(np.divide(0.5 * (y0 - y2), denom,
                              out=np.zeros_like(denom), where=denom != 0),
                    -1.0, 1.0)
    voiced[rows] = ~(strength < threshold)
    f0[rows] = np.where(voiced[rows], rate / (lag + delta), 0.0)
    return f0, voiced


def _f0_on_analysis_grid(track: F0Track, config: FeatureConfig, n_frames, rate):
    """Map the pitch track onto the short analysis grid by center alignment."""
    if track.f0.size == 0:
        return np.zeros(n_frames), np.zeros(n_frames, dtype=bool)
    long_n = dsp.frame_length_samples(track.frame_ms, rate)
    short_n = dsp.frame_length_samples(config.frame_ms, rate)
    shift = dsp.frame_shift_samples(config.shift_ms, rate)
    offset = int(round((long_n - short_n) / 2.0 / shift))
    src = np.clip(np.arange(n_frames) - offset, 0, track.f0.size - 1)
    return track.f0[src], track.voiced[src]


def relative_phases(spectra, f0s, sample_rate: int, dft_size: int):
    """Relative phase shifts theta_k of the harmonics of each row's f0
    (theta_1 = 0), from that row of the rfft spectra.

    The instantaneous phase of harmonic k is read off the frame's DFT at
    k*f0 by interpolating the angle between the two neighbouring bins, and
    the linear-in-k time reference is removed by theta_k = phi_k - k*phi_1.
    Harmonics are taken strictly below Nyquist. Angles are wrapped to
    (-pi, pi].

    Returns (theta, counts): row i of theta holds the counts[i] harmonics
    of f0s[i], then zeros.
    """
    f0s = np.asarray(f0s, dtype=np.float64)
    if not np.all(f0s > 0):
        raise ValueError("f0 must be positive")
    nyquist = sample_rate / 2.0
    counts = np.floor((nyquist - 1e-9) / f0s).astype(int)
    ks = np.arange(1, max(counts.max(initial=0), 1) + 1)
    valid = ks <= counts[:, None]
    pos = ks * f0s[:, None] * dft_size / sample_rate
    i0 = np.floor(pos).astype(int)
    frac = pos - i0
    at = np.arange(f0s.size)[:, None]
    i0 = np.where(valid, i0, 0)          # padding reads bin 0
    a0 = np.angle(spectra[at, i0])
    a1 = np.angle(spectra[at, i0 + 1])
    a1 = a1 + 2.0 * np.pi * np.round((a0 - a1) / (2.0 * np.pi))
    phi = (1.0 - frac) * a0 + frac * a1
    theta = phi - ks * phi[:, :1]
    theta = (theta + np.pi) % (2.0 * np.pi) - np.pi
    return np.where(valid, theta, 0.0), counts


def rps_bands(theta, counts, f0s, bank) -> np.ndarray:
    """Per row of relative_phases' output: unwrap theta over harmonic index,
    differentiate, interpolate onto the DFT bin grid and integrate with the
    triangular bank.  A row with fewer than 2 harmonics integrates zeros.

    The steps are np.unwrap, np.diff and np.interp, row by row over each
    row's own harmonics, as the same scalar operations on the padded rows:
    a row-wise cumsum of the phase corrections, and np.interp's formula with
    its clamping to the end values outside the harmonic midpoints.
    """
    n_bins = bank.weights.shape[1]
    bin_freqs = np.arange(n_bins) * bank.sample_rate / bank.dft_size
    c = counts[:, None]
    # two zero columns past the longest row, so every row has a slope
    p = np.zeros((c.size, theta.shape[1] + 2))
    p[:, :-2] = theta
    # np.unwrap (period 2 pi)
    dd = np.diff(p, axis=1)
    ddmod = np.mod(dd + np.pi, 2.0 * np.pi) - np.pi
    ddmod[(ddmod == -np.pi) & (dd > 0)] = np.pi
    correct = ddmod - dd
    correct[np.abs(dd) < np.pi] = 0
    p[:, 1:] = p[:, 1:] + np.cumsum(correct, axis=1)
    deriv = np.diff(p, axis=1)
    mid = (np.arange(1, p.shape[1]) + 0.5) * f0s[:, None]
    slopes = (deriv[:, 1:] - deriv[:, :-1]) / (mid[:, 1:] - mid[:, :-1])
    # j: the last of a row's c - 1 midpoints at or below each bin
    first = np.searchsorted(bin_freqs, mid)
    first[np.arange(mid.shape[1]) >= c - 1] = n_bins
    at = np.arange(c.size)[:, None]
    starts = np.zeros((c.size, n_bins + 1), dtype=int)
    np.add.at(starts, (at, first), 1)
    j = np.cumsum(starts[:, :n_bins], axis=1) - 1
    inner = (j >= 0) & (j < c - 2)
    jj = np.where(inner, j, 0)
    xj, yj = mid[at, jj], deriv[at, jj]
    line = np.where(xj == bin_freqs, yj, slopes[at, jj] * (bin_freqs - xj) + yj)
    ends = np.where(j < 0, deriv[:, :1], deriv[at, np.maximum(c - 2, 0)])
    values = np.where(c >= 2, np.where(inner, line, ends), 0.0)
    # one matrix-vector product per row, as a row at a time: one product
    # over all rows would round differently
    return np.matmul(bank.weights, values[:, :, None])[:, :, 0]


def _rps(signal, fm, config):
    """Relative-phase-shift features of the voiced frames only."""
    spec = np.fft.rfft(fm.frames, n=config.dft_size, axis=1)
    track = estimate_f0(signal, config)
    f0s, voiced = _f0_on_analysis_grid(track, config, fm.n_frames, signal.sample_rate)
    if not voiced.any():
        raise EmptyFeaturesError("no voiced frames for RPS")
    bank = _bank(filterbanks.mel_filterbank, config.n_filters,
                 config.dft_size, signal.sample_rate)
    theta, counts = relative_phases(spec[voiced], f0s[voiced],
                                    signal.sample_rate, config.dft_size)
    bands = rps_bands(theta, counts, f0s[voiced], bank)
    return dsp.dct_features(bands, config.n_coeffs), voiced


# --- group delay and phase cepstra ---------------------------------------------

def _cepstrally_smoothed_magnitude(full_spectrum, lifter: int) -> np.ndarray:
    """Smooth |X| by keeping only the first `lifter` real-cepstrum coefficients."""
    logmag = dsp.safe_log(np.abs(full_spectrum))
    cep = np.fft.ifft(logmag, axis=1).real
    k = cep.shape[1]
    keep = np.zeros_like(cep)
    keep[:, :lifter] = cep[:, :lifter]
    if lifter > 1:
        keep[:, k - lifter + 1:] = cep[:, k - lifter + 1:]
    smooth = np.fft.fft(keep, axis=1).real
    half = k // 2 + 1
    return np.exp(smooth[:, :half])


def mgd_spectrum(frames: dsp.FrameMatrix, dft_size: int = 512,
                 alpha: float = 0.3, gamma: float = 0.1,
                 cep_lifter: int | None = 30) -> np.ndarray:
    """Modified group delay function per frame.

    tau(k) = sign(X_R Y_R + X_I Y_I) * |(X_R Y_R + X_I Y_I) / H(k)^(2 gamma)|^alpha
    where Y is the DFT of n*x[n] and H is the cepstrally smoothed |X|
    (H = |X| exactly when cep_lifter is None). With alpha = gamma = 1 and no
    smoothing this reduces to the classical group delay in samples.
    """
    x = frames.frames
    full = np.fft.fft(x, n=dft_size, axis=1)
    half = dft_size // 2 + 1
    xs = full[:, :half]
    ys = np.fft.rfft(x * np.arange(x.shape[1]), n=dft_size, axis=1)
    num = xs.real * ys.real + xs.imag * ys.imag
    if cep_lifter is None:
        h = np.abs(xs)
    else:
        h = _cepstrally_smoothed_magnitude(full, cep_lifter)
    denom = np.maximum(h, dsp.LOG_FLOOR) ** (2.0 * gamma)
    return np.sign(num) * np.abs(num / denom) ** alpha


def _mgd(signal, fm, config):
    tau = mgd_spectrum(fm, config.dft_size, config.mgd_alpha,
                       config.mgd_gamma, config.mgd_cep_lifter)
    return dsp.dct_features(tau, config.n_coeffs), None


def _cosphase(signal, fm, config):
    """Cosine of the frequency-unwrapped phase spectrum, decorrelated by DCT."""
    phase = dsp.phase_spectrum(fm, config.dft_size)
    return dsp.dct_features(np.cos(np.unwrap(phase, axis=1)), config.n_coeffs), None


# front-end of each kind of FEATURE_KINDS, in its order: (signal, frames,
# config) -> (cepstra, rows), one cepstral row per analysis frame, or per
# frame that the boolean mask rows selects
_FRONT_ENDS = {
    "mfcc": partial(_filterbank_cepstra, filterbanks.mel_filterbank),
    "imfcc": partial(_filterbank_cepstra, filterbanks.inverted_mel_filterbank),
    "scmc": _scmc, "cqcc": _cqcc, "mhec": _mhec, "rps": _rps, "mgd": _mgd,
    "cosphase": _cosphase,
}

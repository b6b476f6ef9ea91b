"""Spectral integration front-ends: mel / inverted-mel / linear banks,
an ERB-spaced gammatone filterbank and a constant-Q transform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.signal
from numpy.lib.stride_tricks import as_strided

from .audio import AudioSignal
from .dsp import frame_length_samples, frame_shift_samples, n_frames_for, window_function
from .errors import EmptyFeaturesError

# Glasberg & Moore ERB model: ERB(f) = 24.7 * (4.37 f / 1000 + 1)
EAR_Q = 9.26449
MIN_BW = 24.7


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def hz_to_erb_rate(f):
    return EAR_Q * np.log(1.0 + np.asarray(f, dtype=np.float64) / (EAR_Q * MIN_BW))


def erb_rate_to_hz(r):
    return (np.exp(np.asarray(r, dtype=np.float64) / EAR_Q) - 1.0) * EAR_Q * MIN_BW


@dataclass(frozen=True)
class FilterBank:
    """Weights for integrating a half spectrum into M band energies."""

    weights: np.ndarray        # (M, dft_size/2 + 1)
    center_freqs: np.ndarray   # (M,) Hz
    sample_rate: int
    dft_size: int

    @property
    def n_filters(self) -> int:
        return self.weights.shape[0]

    def apply(self, spectrum) -> np.ndarray:
        """Integrate a (T x K/2+1) spectrum into (T x M) band values."""
        return np.asarray(spectrum, dtype=np.float64) @ self.weights.T


def _check_bank_args(n_filters, dft_size, sample_rate):
    if n_filters < 1:
        raise ValueError("need at least one filter")
    if dft_size < 2 or dft_size & (dft_size - 1):
        raise ValueError("dft_size must be a power of two")
    if sample_rate <= 0:
        raise ValueError("sample_rate must be positive")


def mel_filterbank(n_filters: int, dft_size: int, sample_rate: int) -> FilterBank:
    """Triangular filters with unit peak, equally spaced on the mel scale.

    Edges run from 0 Hz to Nyquist; filter i rises over [edge_i, edge_i+1]
    and falls over [edge_i+1, edge_i+2]. Weights are the triangles evaluated
    at the DFT bin frequencies k * sample_rate / dft_size.
    """
    _check_bank_args(n_filters, dft_size, sample_rate)
    nyquist = sample_rate / 2.0
    edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(nyquist), n_filters + 2))
    bin_freqs = np.arange(dft_size // 2 + 1) * (sample_rate / dft_size)
    weights = np.zeros((n_filters, bin_freqs.size))
    for i in range(n_filters):
        lo, center, hi = edges[i], edges[i + 1], edges[i + 2]
        rising = (bin_freqs - lo) / (center - lo)
        falling = (hi - bin_freqs) / (hi - center)
        weights[i] = np.clip(np.minimum(rising, falling), 0.0, None)
    return FilterBank(weights, edges[1:-1], sample_rate, dft_size)


def inverted_mel_filterbank(n_filters: int, dft_size: int, sample_rate: int) -> FilterBank:
    """Mirror image of the mel bank along the frequency axis.

    weights[i, k] = mel_weights[M-1-i, K/2-k], so filter spacing is dense at
    high frequencies and the rows remain ordered by increasing center.
    """
    mel = mel_filterbank(n_filters, dft_size, sample_rate)
    weights = mel.weights[::-1, ::-1].copy()
    centers = sample_rate / 2.0 - mel.center_freqs[::-1]
    return FilterBank(weights, centers, sample_rate, dft_size)


def linear_filterbank(n_filters: int, dft_size: int, sample_rate: int) -> FilterBank:
    """Rectangular partition of the half spectrum into contiguous subbands.

    Band i covers bins [i*(K/2+1)/M, (i+1)*(K/2+1)/M); every bin belongs to
    exactly one band.
    """
    _check_bank_args(n_filters, dft_size, sample_rate)
    n_bins = dft_size // 2 + 1
    if n_filters > n_bins:
        raise ValueError("more filters than spectrum bins")
    edges = (np.arange(n_filters + 1) * n_bins) // n_filters
    weights = np.zeros((n_filters, n_bins))
    centers = np.empty(n_filters)
    bin_hz = sample_rate / dft_size
    for i in range(n_filters):
        weights[i, edges[i]:edges[i + 1]] = 1.0
        centers[i] = 0.5 * (edges[i] + edges[i + 1] - 1) * bin_hz
    return FilterBank(weights, centers, sample_rate, dft_size)


# ---------------------------------------------------------------------------
# gammatone filterbank (4th order, auditory-toolbox IIR realization)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammatoneBank:
    """Cascaded second-order sections realizing 4th-order gammatone filters."""

    center_freqs: np.ndarray     # (M,)
    sample_rate: int
    feedback: np.ndarray         # (M, 3) shared denominator of all sections
    forward: np.ndarray          # (M, 4, 3) numerators of the four sections

    @property
    def n_filters(self) -> int:
        return self.center_freqs.size

    @property
    def sos(self) -> np.ndarray:
        """(M, 4, 6) second-order sections: row s of channel i is
        forward[i, s] | feedback[i]."""
        feedback = np.broadcast_to(self.feedback[:, None, :], self.forward.shape)
        return np.concatenate([self.forward, feedback], axis=2)

    def filter(self, samples, channels: slice = slice(None)) -> np.ndarray:
        """Run the signal through every channel, or through the `channels`
        slice of them, one sosfilt each; returns (channels, len(samples))."""
        x = np.asarray(samples, dtype=np.float64)
        sos = self.sos[channels]
        out = np.zeros((len(sos), x.size))
        if x.size:  # sosfilt rejects an empty signal
            for i, sections in enumerate(sos):
                out[i] = scipy.signal.sosfilt(sections, x)
        return out


def gammatone_bank(sample_rate: int, n_filters: int = 32,
                   f_lo: float = 100.0, f_hi: float = 8000.0) -> GammatoneBank:
    """Design n_filters 4th-order gammatone filters, centers uniform on the
    ERB-rate scale between f_lo and f_hi inclusive, unit gain at each center.
    """
    if not (0.0 < f_lo < f_hi <= sample_rate / 2.0):
        raise ValueError("need 0 < f_lo < f_hi <= Nyquist")
    if n_filters < 1:
        raise ValueError("need at least one filter")
    if n_filters == 1:
        cf = np.array([f_lo])
    else:
        cf = erb_rate_to_hz(np.linspace(hz_to_erb_rate(f_lo), hz_to_erb_rate(f_hi), n_filters))

    t = 1.0 / sample_rate
    erb = MIN_BW + cf / EAR_Q
    b = 1.019 * 2.0 * np.pi * erb

    arg = 2.0 * cf * np.pi * t
    vec = np.exp(2j * arg)
    k0 = 2.0 * t * np.cos(arg) / np.exp(b * t)
    k1p = 2.0 * np.sqrt(3.0 + 2.0 ** 1.5) * t * np.sin(arg) / np.exp(b * t)
    k1m = 2.0 * np.sqrt(3.0 - 2.0 ** 1.5) * t * np.sin(arg) / np.exp(b * t)

    a11 = -(k0 + k1p) / 2.0
    a12 = -(k0 - k1p) / 2.0
    a13 = -(k0 + k1m) / 2.0
    a14 = -(k0 - k1m) / 2.0

    # overall response of the four-section cascade at the center frequency
    gain = np.abs(
        (-2.0 * vec * t + 2.0 * np.exp(-(b * t) + 1j * arg) * t
         * (np.cos(arg) - np.sqrt(3.0 - 2.0 ** 1.5) * np.sin(arg)))
        * (-2.0 * vec * t + 2.0 * np.exp(-(b * t) + 1j * arg) * t
           * (np.cos(arg) + np.sqrt(3.0 - 2.0 ** 1.5) * np.sin(arg)))
        * (-2.0 * vec * t + 2.0 * np.exp(-(b * t) + 1j * arg) * t
           * (np.cos(arg) - np.sqrt(3.0 + 2.0 ** 1.5) * np.sin(arg)))
        * (-2.0 * vec * t + 2.0 * np.exp(-(b * t) + 1j * arg) * t
           * (np.cos(arg) + np.sqrt(3.0 + 2.0 ** 1.5) * np.sin(arg)))
        / (-2.0 / np.exp(2.0 * b * t) - 2.0 * vec + 2.0 * (1.0 + vec) / np.exp(b * t)) ** 4
    )

    m = cf.size
    feedback = np.empty((m, 3))
    feedback[:, 0] = 1.0
    feedback[:, 1] = -2.0 * np.cos(arg) / np.exp(b * t)
    feedback[:, 2] = np.exp(-2.0 * b * t)

    forward = np.zeros((m, 4, 3))
    for s, a1 in enumerate((a11, a12, a13, a14)):
        forward[:, s, 0] = t
        forward[:, s, 1] = a1
    forward[:, 0, :] /= gain[:, None]

    return GammatoneBank(cf, sample_rate, feedback, forward)


# ---------------------------------------------------------------------------
# constant-Q transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CqtKernel:
    """Per-bin Hamming-windowed complex exponential kernels on a geometric
    grid.

    Bin b sits at f_min * 2**(b / bins_per_octave); its kernel spans
    ceil(Q * sample_rate / f_b) samples where Q = 1 / (2**(1/bpo) - 1).
    The kernels are synthesized once per analysis grid (frame length,
    shift) and kept on the instance as blocked rows, see `blocked_rows`.
    """

    sample_rate: int
    bins_per_octave: int
    f_min: float
    f_max: float
    center_freqs: np.ndarray  # (B,)
    lengths: np.ndarray       # (B,) int
    q: float
    _rows: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    @property
    def n_bins(self) -> int:
        return self.center_freqs.size

    @property
    def padding(self) -> int:
        """Zeros added at each end of the signal so every kernel fits."""
        return int(self.lengths.max() // 2) + 1

    def kernel(self, b: int) -> np.ndarray:
        """Unit-normalized analysis kernel for bin b (complex, length L_b)."""
        length = int(self.lengths[b])
        w = window_function("hamming", length)
        phase = np.exp(2j * np.pi * self.center_freqs[b] / self.sample_rate
                       * np.arange(length))
        return w * phase / length

    def blocked_rows(self, frame_length: int, shift: int) -> list:
        """Per bin, (q0_b, W_b): the conjugated kernel cut into rows of
        `shift` samples, for frames of `frame_length` advancing by `shift`.

        Frame 0's kernel starts c_b = frame_length//2 + padding - L_b//2
        samples into the padded signal.  Front-padding the kernel with
        c_b mod shift zeros puts its start on a row boundary, at signal row
        q0_b = c_b // shift.  Its nq_b rows are stored transposed as one
        real (shift x 2 nq_b) matrix [Re | Im].  Built on first use and
        cached per (frame_length, shift).
        """
        key = (frame_length, shift)
        if key not in self._rows:
            rows = []
            for b in range(self.n_bins):
                length = int(self.lengths[b])
                q0, lead = divmod(frame_length // 2 + self.padding - length // 2,
                                  shift)
                nq = -(-(lead + length) // shift)
                k = np.zeros(nq * shift, dtype=complex)
                k[lead:lead + length] = np.conj(self.kernel(b))
                k = k.reshape(nq, shift).T
                rows.append((q0, np.concatenate([k.real, k.imag], axis=1)))
            self._rows[key] = rows
        return self._rows[key]


def cqt_kernel(sample_rate: int, bins_per_octave: int = 96,
               f_min: float | None = None,
               f_max: float | None = None) -> CqtKernel:
    if f_max is None:
        f_max = sample_rate / 2.0
    if f_min is None:
        f_min = f_max / 2.0 ** 9
    if not (0.0 < f_min < f_max <= sample_rate / 2.0):
        raise ValueError("need 0 < f_min < f_max <= Nyquist")
    if bins_per_octave < 1:
        raise ValueError("bins_per_octave must be positive")
    n_bins = int(np.floor(bins_per_octave * np.log2(f_max / f_min))) + 1
    freqs = f_min * 2.0 ** (np.arange(n_bins) / bins_per_octave)
    q = 1.0 / (2.0 ** (1.0 / bins_per_octave) - 1.0)
    lengths = np.maximum(np.ceil(q * sample_rate / freqs).astype(int), 2)
    return CqtKernel(sample_rate, bins_per_octave, float(f_min), float(f_max),
                     freqs, lengths, q)


def cqt(signal: AudioSignal, kernel: CqtKernel,
        frame_ms: float = 20.0, shift_ms: float = 10.0) -> np.ndarray:
    """Constant-Q power spectrogram sampled on the common analysis grid.

    Output row t corresponds to the analysis frame starting at t * shift;
    each kernel is centered on that frame's midpoint (edges are zero-padded),
    so the row count equals the frame count of frame_signal.

    The padded signal is cut into rows of `shift` samples.  For bin b,
    G = rows[q0_b : q0_b + T + nq_b - 1] @ W_b holds the dot product of
    every signal row with every kernel row, and frame t's coefficient is
    the sum of the diagonal of G that starts at row t.
    """
    if signal.sample_rate != kernel.sample_rate:
        raise ValueError("kernel was designed for a different sample rate")
    x = signal.samples
    n = frame_length_samples(frame_ms, signal.sample_rate)
    shift = frame_shift_samples(shift_ms, signal.sample_rate)
    n_frames = n_frames_for(len(x), frame_ms, shift_ms, signal.sample_rate)
    if n_frames <= 0:
        raise EmptyFeaturesError("signal shorter than one analysis frame")
    kernel_rows = kernel.blocked_rows(n, shift)
    pad = kernel.padding
    n_blocks = max(max(q0 + n_frames - 1 + w.shape[1] // 2 for q0, w in kernel_rows),
                   -(-(len(x) + 2 * pad) // shift))
    padded = np.zeros(n_blocks * shift)
    padded[pad:pad + len(x)] = x
    blocks = padded.reshape(n_blocks, shift)
    power = np.empty((n_frames, kernel.n_bins))
    for b, (q0, w) in enumerate(kernel_rows):
        nq = w.shape[1] // 2
        g = blocks[q0:q0 + n_frames + nq - 1] @ w
        strides = (g.strides[0], g.strides[0] + g.strides[1])
        re = as_strided(g, (n_frames, nq), strides, writeable=False).sum(axis=1)
        im = as_strided(g[:, nq:], (n_frames, nq), strides, writeable=False).sum(axis=1)
        power[:, b] = re * re + im * im
    return power

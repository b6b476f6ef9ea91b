"""Audio container, WAV ingestion, and the binary artefact format shared by
the feature cache and the model files."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

_FEATURE_MAGIC = b"SPBF1"


@dataclass(frozen=True)
class AudioSignal:
    """Mono audio held as float64 samples in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("audio must be a 1-D sample vector")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "samples", samples)

    def __len__(self):
        return len(self.samples)


def read_wav(path) -> AudioSignal:
    """Read a 16-bit linear PCM mono WAV file.

    Any sample rate is accepted; the caller decides whether it matches the
    experiment's reference rate.
    """
    rate, data = wavfile.read(str(path))
    if data.ndim != 1:
        raise ValueError(f"{path}: only mono WAV files are supported")
    if data.dtype != np.int16:
        raise ValueError(f"{path}: only 16-bit PCM WAV files are supported")
    return AudioSignal(data.astype(np.float64) / 32768.0, int(rate))


def to_pcm16(signal: AudioSignal) -> AudioSignal:
    """The signal as a 16-bit PCM file stores it: clipped to [-1, 1) and
    rounded to the int16 grid, so to_pcm16(x) equals read_wav of
    write_wav(x) bit for bit."""
    return AudioSignal(_pcm16(signal.samples).astype(np.float64) / 32768.0,
                       signal.sample_rate)


def _pcm16(samples) -> np.ndarray:
    x = np.clip(samples, -1.0, 32767.0 / 32768.0)
    return np.round(x * 32768.0).astype(np.int16)


def write_wav(path, signal: AudioSignal):
    """Write a signal as 16-bit PCM mono. Samples are clipped to [-1, 1)."""
    wavfile.write(str(path), signal.sample_rate, _pcm16(signal.samples))


def save_arrays(path, magic: bytes, dims, *arrays):
    """Write one binary artefact: the magic, then dims as little-endian
    uint32, then each array's row-major little-endian float64 payload."""
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack(f"<{len(dims)}I", *dims))
        for values in arrays:
            fh.write(np.asarray(values, dtype="<f8").tobytes())


def load_arrays(path, magic: bytes, n_dims: int, size, what: str):
    """(dims, payload) of a file written by save_arrays.

    size(*dims) is the float64 count the dims imply; a wrong magic, a short
    header or a payload of any other size raises ValueError naming the
    file.  The payload is a read-only view of the file's bytes.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:len(magic)] != magic:
        raise ValueError(f"{path}: not a {what} file")
    header = len(magic) + 4 * n_dims
    dims = struct.unpack_from(f"<{n_dims}I", data, len(magic)) \
        if len(data) >= header else None
    if dims is None or len(data) != header + 8 * size(*dims):
        raise ValueError(f"{path}: truncated {what} file")
    return dims, np.frombuffer(data, dtype="<f8", offset=header)


def write_features(path, values: np.ndarray):
    """Write a T x D float64 feature matrix to the binary cache format:
    magic "SPBF1", then (T, D), then the T x D payload (see save_arrays)."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("feature matrix must be 2-D")
    save_arrays(path, _FEATURE_MAGIC, values.shape, values)


def read_features(path) -> np.ndarray:
    (t, d), payload = load_arrays(path, _FEATURE_MAGIC, 2,
                                  lambda t, d: t * d, "feature cache")
    return payload.reshape(t, d).copy()

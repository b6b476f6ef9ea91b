"""Audio container, WAV ingestion and the binary feature cache format."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

REFERENCE_RATE = 16000

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

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate

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


def write_wav(path, signal: AudioSignal):
    """Write a signal as 16-bit PCM mono. Samples are clipped to [-1, 1)."""
    x = np.clip(signal.samples, -1.0, 32767.0 / 32768.0)
    pcm = np.round(x * 32768.0).astype(np.int16)
    wavfile.write(str(path), signal.sample_rate, pcm)


def write_features(path, values: np.ndarray):
    """Write a T x D float64 feature matrix to the binary cache format.

    Layout: magic "SPBF1", then frame count and dimension as little-endian
    uint32, then the row-major float64 payload.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("feature matrix must be 2-D")
    t, d = values.shape
    with open(path, "wb") as fh:
        fh.write(_FEATURE_MAGIC)
        fh.write(struct.pack("<II", t, d))
        fh.write(values.astype("<f8").tobytes())


def read_features(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(len(_FEATURE_MAGIC))
        if magic != _FEATURE_MAGIC:
            raise ValueError(f"{path}: not a feature cache file")
        t, d = struct.unpack("<II", fh.read(8))
        payload = fh.read(8 * t * d)
    if len(payload) != 8 * t * d:
        raise ValueError(f"{path}: truncated feature cache file")
    return np.frombuffer(payload, dtype="<f8").reshape(t, d).copy()

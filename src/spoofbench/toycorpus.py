"""Built-in synthetic corpus: vowel-like human utterances and their
channel-vocoded counterparts.

Humans are filtered pulse trains (randomized F0 contour and formant set
per pseudo-speaker) over a faint noise floor.  Spoofs are produced by a
deliberately lossy resynthesis: the short-time magnitude is integrated
over a handful of rectangular bands and the phase is discarded entirely,
which is the caricature of a low-grade channel vocoder.  The two attack
ids differ only in the number of vocoder bands.

Every utterance derives its own RNG from (root seed, subset, index), so
the corpus is reproducible down to the PCM bytes.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import lfilter

from . import enhancement
from .audio import AudioSignal, write_wav
from .manifest import Manifest, ManifestRow, write_manifest
from .scores import HUMAN, SPOOF

SAMPLE_RATE = 16000
ATTACK_BANDS = {"vc16": 16, "vc24": 24}

_SUBSET_SPEAKERS = {"train": 10, "dev": 5, "eval": 5}
_SUBSET_INDEX = {"train": 0, "dev": 1, "eval": 2}


def _speaker_profile(rng):
    """Base F0 plus a four-formant set with bandwidths."""
    f1 = rng.uniform(300.0, 850.0)
    f2 = rng.uniform(f1 + 400.0, 2300.0)
    formants = np.array([f1, f2,
                         rng.uniform(2400.0, 3200.0),
                         rng.uniform(3300.0, 4200.0)])
    bands = np.array([rng.uniform(60.0, 120.0),
                      rng.uniform(80.0, 160.0),
                      rng.uniform(100.0, 200.0),
                      rng.uniform(120.0, 240.0)])
    return {"f0": rng.uniform(115.0, 270.0),
            "formants": formants,
            "bandwidths": bands}


def _resonate(x, freq_hz, bw_hz, rate):
    r = np.exp(-np.pi * bw_hz / rate)
    omega = 2.0 * np.pi * freq_hz / rate
    return lfilter([1.0 - r], [1.0, -2.0 * r * np.cos(omega), r * r], x)


def synth_vowel(rng, speaker, rate=SAMPLE_RATE) -> np.ndarray:
    """One vowel-like utterance: pulse train -> tilt -> formant cascade."""
    duration = rng.uniform(1.0, 1.4)
    n = int(round(duration * rate))

    f0a = speaker["f0"] * (1.0 + rng.uniform(-0.12, 0.12))
    f0b = speaker["f0"] * (1.0 + rng.uniform(-0.12, 0.12))
    f0 = np.clip(np.linspace(f0a, f0b, n), 110.0, 280.0)
    cycles = np.floor(np.cumsum(f0) / rate)
    source = np.zeros(n)
    source[np.nonzero(np.diff(cycles) > 0)[0] + 1] = 1.0
    voiced = lfilter([1.0], [1.0, -0.96], source)   # glottal-like tilt

    jitter = 1.0 + rng.uniform(-0.05, 0.05, size=4)
    for freq, bw, j in zip(speaker["formants"], speaker["bandwidths"], jitter):
        voiced = _resonate(voiced, freq * j, bw, rate)

    ramp = int(0.06 * rate)
    envelope = np.ones(n)
    window = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
    envelope[:ramp] = window
    envelope[-ramp:] = window[::-1]
    am_rate = rng.uniform(3.0, 6.0)
    t = np.arange(n) / rate
    envelope *= 1.0 - 0.3 * (0.5 - 0.5 * np.cos(2.0 * np.pi * am_rate * t))
    voiced *= envelope

    lead = int(0.15 * rate)
    tail = int(0.10 * rate)
    samples = np.concatenate([np.zeros(lead), voiced, np.zeros(tail)])
    samples /= np.max(np.abs(samples))
    # faint analog-style noise floor keeps log spectra and VAD well behaved
    samples = 0.35 * samples + 2e-4 * rng.standard_normal(len(samples))
    return samples


def channel_vocoder(signal: AudioSignal, n_bands: int) -> AudioSignal:
    """Magnitude-only resynthesis through rectangular spectral bands.

    The short-time power is averaged within each band and the phase is
    replaced by zero, then the frames are overlap-added back.  The output
    RMS is matched to the input.
    """
    spec, n = enhancement.stft(signal)
    power = np.abs(spec) ** 2
    edges = np.linspace(0, power.shape[1], n_bands + 1).astype(int)
    smooth = np.empty_like(power)
    for b in range(n_bands):
        lo, hi = edges[b], edges[b + 1]
        smooth[:, lo:hi] = power[:, lo:hi].mean(axis=1, keepdims=True)
    flat_phase = np.sqrt(smooth).astype(complex)
    out = enhancement.istft(flat_phase, n, len(signal.samples))
    rms_in = np.sqrt(np.mean(signal.samples ** 2))
    rms_out = np.sqrt(np.mean(out ** 2))
    if rms_out > 0.0:
        out *= rms_in / rms_out
    peak = np.max(np.abs(out))
    if peak > 1.0:
        out /= peak
    return AudioSignal(out, signal.sample_rate)


def _subset_speakers(seed: int, subset: str):
    rng = np.random.default_rng([seed, 97, _SUBSET_INDEX[subset]])
    return [_speaker_profile(rng) for _ in range(_SUBSET_SPEAKERS[subset])]


def make_toy_corpus(out_dir, seed: int = 0, n_train: int = 200,
                    n_dev: int = 100, n_eval: int = 100) -> Manifest:
    """Generate the corpus under out_dir and write manifest.tsv.

    Each subset is half human, half spoofed; spoofs are vocoded versions
    of freshly synthesized utterances (never of a wav that also appears
    as a human row).  Speaker pools are disjoint across subsets.
    """
    from pathlib import Path

    out_dir = Path(out_dir)
    attacks = sorted(ATTACK_BANDS)
    rows = []
    for subset, count in (("train", n_train), ("dev", n_dev),
                          ("eval", n_eval)):
        if count % 2 != 0:
            raise ValueError(f"{subset} size must be even, got {count}")
        speakers = _subset_speakers(seed, subset)
        wav_dir = out_dir / "wav" / subset
        wav_dir.mkdir(parents=True, exist_ok=True)
        for i in range(count):
            rng = np.random.default_rng([seed, _SUBSET_INDEX[subset], i])
            speaker = speakers[i % len(speakers)]
            samples = synth_vowel(rng, speaker, SAMPLE_RATE)
            signal = AudioSignal(samples, SAMPLE_RATE)
            if i % 2 == 0:
                label, attack = HUMAN, "-"
            else:
                label = SPOOF
                attack = attacks[(i // 2) % len(attacks)]
                signal = channel_vocoder(signal, ATTACK_BANDS[attack])
            utt_id = f"{subset}-{i:04d}"
            rel_path = f"wav/{subset}/{utt_id}.wav"
            write_wav(out_dir / rel_path, signal)
            rows.append(ManifestRow(utt_id, rel_path, label, attack, subset))
    manifest = Manifest(tuple(rows))
    write_manifest(out_dir / "manifest.tsv", manifest)
    return manifest

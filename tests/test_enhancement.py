"""Tests for spectral subtraction and Wiener filtering."""

import numpy as np
import pytest

from spoofbench.audio import AudioSignal
from spoofbench import enhancement as enh

RATE = 16000


def _tone_in_noise(seed=7, lead_s=0.3, body_s=1.0, amp=0.3, sigma=0.15):
    """Noise-only lead followed by tone + noise; returns (noisy, clean)."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(body_s * RATE)) / RATE
    tone = amp * np.sin(2 * np.pi * 500.0 * t)
    lead = rng.standard_normal(int(lead_s * RATE)) * sigma
    body = rng.standard_normal(len(tone)) * sigma
    noisy = np.concatenate([lead, tone + body])
    clean = np.concatenate([np.zeros(len(lead)), tone])
    return AudioSignal(noisy, RATE), clean


def _snr_db(out, clean, guard=800):
    sl = slice(guard, len(clean) - guard)
    res = out[sl] - clean[sl]
    return 10 * np.log10(np.mean(clean[sl] ** 2) / np.mean(res ** 2))


class TestStft:
    def test_roundtrip_identity(self):
        x = np.random.default_rng(0).standard_normal(12345) * 0.1
        spec, n = enh.stft(AudioSignal(x, RATE))
        y = enh.istft(spec, n, len(x))
        assert len(y) == len(x)
        assert np.sqrt(np.mean((y - x) ** 2)) < 1e-6

    def test_roundtrip_identity_awkward_lengths(self):
        rng = np.random.default_rng(1)
        for length in (1601, 4000, 16000, 16001, 321):
            x = rng.standard_normal(length)
            spec, n = enh.stft(AudioSignal(x, RATE))
            y = enh.istft(spec, n, length)
            assert len(y) == length
            assert np.sqrt(np.mean((y - x) ** 2)) < 1e-6

    def test_spectra_shape(self):
        x = np.zeros(RATE)
        x[0] = 1.0
        spec, n = enh.stft(AudioSignal(x, RATE))
        assert n == 320
        assert spec.shape[1] == 257


class TestNoiseEstimate:
    def test_white_noise_power_level(self):
        sigma = 0.05
        rng = np.random.default_rng(3)
        x = rng.standard_normal(RATE) * sigma
        prof = enh.estimate_noise(AudioSignal(x, RATE), lead_ms=480.0)
        # expected per-bin power of windowed white noise: sigma^2 * sum(w^2)
        expected = sigma ** 2 * np.sum(enh._window(320) ** 2)
        assert abs(prof.power.mean() / expected - 1.0) < 0.10
        assert abs(prof.magnitude.mean() ** 2 / expected - 1.0) < 0.25

    def test_default_lead_is_120ms(self):
        x = np.random.default_rng(4).standard_normal(RATE)
        prof = enh.estimate_noise(AudioSignal(x, RATE))
        # 120 ms at 16 kHz, 20 ms frames, 10 ms hop -> 11 full frames
        assert prof.n_frames == 11

    def test_short_signal_raises(self):
        x = np.ones(100)
        with pytest.raises(ValueError):
            enh.estimate_noise(AudioSignal(x, RATE))


class TestSpectralSubtraction:
    def test_improves_snr_magnitude_domain(self):
        sig, clean = _tone_in_noise()
        out = enh.spectral_subtract(sig, domain="magnitude")
        assert _snr_db(out.samples, clean) - _snr_db(sig.samples, clean) > 5.0

    def test_improves_snr_power_domain(self):
        sig, clean = _tone_in_noise()
        out = enh.spectral_subtract(sig, domain="power")
        assert _snr_db(out.samples, clean) - _snr_db(sig.samples, clean) > 2.5

    def test_attenuates_pure_noise(self):
        x = np.random.default_rng(5).standard_normal(2 * RATE) * 0.1
        out = enh.spectral_subtract(AudioSignal(x, RATE))
        assert np.mean(out.samples ** 2) < 0.3 * np.mean(x ** 2)

    def test_floor_keeps_residual_alive(self):
        x = np.random.default_rng(6).standard_normal(2 * RATE) * 0.1
        out = enh.spectral_subtract(AudioSignal(x, RATE), floor=0.02)
        assert np.mean(out.samples ** 2) > 0.0

    def test_length_and_rate_preserved(self):
        sig, _ = _tone_in_noise()
        out = enh.spectral_subtract(sig)
        assert len(out.samples) == len(sig.samples)
        assert out.sample_rate == sig.sample_rate

    def test_invalid_args(self):
        sig, _ = _tone_in_noise()
        with pytest.raises(ValueError):
            enh.spectral_subtract(sig, domain="cepstral")
        with pytest.raises(ValueError):
            enh.spectral_subtract(sig, oversubtraction=-1.0)


class TestWiener:
    def test_improves_snr(self):
        sig, clean = _tone_in_noise()
        out = enh.wiener_filter(sig)
        assert _snr_db(out.samples, clean) - _snr_db(sig.samples, clean) > 10.0

    def test_suppresses_noise_only_input(self):
        x = np.random.default_rng(8).standard_normal(2 * RATE) * 0.1
        out = enh.wiener_filter(AudioSignal(x, RATE))
        assert np.mean(out.samples ** 2) < 0.05 * np.mean(x ** 2)

    def test_zero_profile_is_near_identity(self):
        x = np.random.default_rng(9).standard_normal(RATE) * 0.3
        profile = enh.NoiseProfile(np.zeros(257), np.zeros(257), 1)
        out = enh.wiener_filter(AudioSignal(x, RATE), profile=profile)
        assert np.sqrt(np.mean((out.samples - x) ** 2)) < 1e-6

    def test_deterministic(self):
        sig, _ = _tone_in_noise(seed=10)
        a = enh.wiener_filter(sig).samples
        b = enh.wiener_filter(sig).samples
        assert np.array_equal(a, b)

    def test_invalid_alpha(self):
        sig, _ = _tone_in_noise()
        with pytest.raises(ValueError):
            enh.wiener_filter(sig, alpha=1.0)


class TestDispatch:
    def test_known_methods(self):
        sig, _ = _tone_in_noise(seed=11)
        for name in ("specsub-mag", "specsub-pow", "wiener"):
            out = enh.enhance(sig, name)
            assert len(out.samples) == len(sig.samples)
        with pytest.raises(ValueError):
            enh.enhance(sig, "none")

    def test_unknown_method_raises(self):
        sig, _ = _tone_in_noise()
        with pytest.raises(ValueError):
            enh.enhance(sig, "quantum")

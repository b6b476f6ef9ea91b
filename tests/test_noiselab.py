"""Tests for the active-level meter and SNR-controlled mixing."""

import numpy as np
import pytest

from spoofbench.audio import AudioSignal
from spoofbench.errors import NoActiveSpeechError
from spoofbench import noiselab as nl

RATE = 16000


def _tone(amp=0.5, seconds=1.0, freq=440.0):
    t = np.arange(int(seconds * RATE)) / RATE
    return amp * np.sin(2 * np.pi * freq * t)


def _burst_fixture(duty=0.5, seconds=8.0, amp=0.4, seed=0):
    """Speech-like fixture: bandpassed noise bursts with smooth edges."""
    rng = np.random.default_rng(seed)
    n = int(seconds * RATE)
    from scipy.signal import butter, lfilter
    b, a = butter(2, [0.02, 0.4], btype="band")
    carrier = lfilter(b, a, rng.standard_normal(n))
    carrier = amp * carrier / np.max(np.abs(carrier))
    env = np.zeros(n)
    on = int(duty * n)
    env[:on] = 1.0
    ramp = int(0.02 * RATE)
    env[on - ramp:on] = 0.5 + 0.5 * np.cos(np.linspace(0, np.pi, ramp))
    return AudioSignal(carrier * env, RATE)


class TestActiveLevel:
    def test_tone_active_level_equals_rms(self):
        x = _tone(amp=0.5)
        res = nl.active_speech_level(AudioSignal(x, RATE))
        rms_db = 10 * np.log10(np.mean(x ** 2))
        assert abs(res.level_db - rms_db) < 0.2
        assert res.activity > 0.9

    def test_silence_padding_does_not_dilute_level(self):
        x = np.concatenate([_tone(amp=0.4, seconds=4.0), np.zeros(4 * RATE)])
        res = nl.active_speech_level(AudioSignal(x, RATE))
        tone_rms_db = 10 * np.log10(np.mean(_tone(amp=0.4, seconds=4.0) ** 2))
        overall_db = 10 * np.log10(np.mean(x ** 2))
        assert abs(res.level_db - tone_rms_db) < 0.5
        assert res.level_db - overall_db > 2.0   # ~3 dB above diluted RMS
        assert 0.4 < res.activity < 0.65

    def test_doubling_gain_shifts_level_exactly(self):
        sig = _burst_fixture(seed=1)
        base = nl.active_speech_level(sig).level_db
        doubled = nl.active_speech_level(AudioSignal(2.0 * sig.samples, RATE))
        assert abs(doubled.level_db - base - 20 * np.log10(2.0)) < 1e-9

    def test_fractional_gain_shifts_level_approximately(self):
        sig = _burst_fixture(seed=2)
        base = nl.active_speech_level(sig).level_db
        scaled = nl.active_speech_level(AudioSignal(1.5 * sig.samples, RATE))
        assert abs(scaled.level_db - base - 20 * np.log10(1.5)) < 1.0

    def test_silence_raises(self):
        with pytest.raises(NoActiveSpeechError):
            nl.active_speech_level(AudioSignal(np.zeros(RATE), RATE))

    def test_rms_level_exact(self):
        x = _tone(amp=0.25)
        assert abs(nl.rms_level(AudioSignal(x, RATE))
                   - 10 * np.log10(np.mean(x ** 2))) < 1e-12
        with pytest.raises(NoActiveSpeechError):
            nl.rms_level(AudioSignal(np.zeros(10), RATE))

    def test_level_method_dispatch(self):
        sig = _burst_fixture(seed=3)
        assert nl.speech_level_db(sig, "rms") == nl.rms_level(sig)
        assert nl.speech_level_db(sig, "active") == \
            nl.active_speech_level(sig).level_db
        with pytest.raises(ValueError):
            nl.speech_level_db(sig, "peak")


class TestMixing:
    @pytest.mark.parametrize("snr", [0.0, 10.0, 20.0])
    @pytest.mark.parametrize("method", ["active"])
    def test_realized_snr_matches_target(self, snr, method):
        speech = _burst_fixture(duty=0.6, seconds=3.0, seed=4)
        noise = nl.white_noise(2 * RATE, seed=5)
        res = nl.mix_at_snr(speech, noise, snr, seed=6)
        added = res.signal.samples / res.scale - speech.samples
        measured = (nl.speech_level_db(speech, method)
                    - 10 * np.log10(np.mean(added ** 2)))
        assert abs(measured - snr) < 1e-9

    def test_mix_commutes_with_doubling(self):
        speech = _burst_fixture(duty=0.5, seconds=2.0, amp=0.2, seed=7)
        noise = nl.white_noise(3 * RATE, seed=8)
        one = nl.mix_at_snr(speech, noise, 10.0, seed=9)
        louder = AudioSignal(2.0 * speech.samples, RATE)
        two = nl.mix_at_snr(louder, noise, 10.0, seed=9)
        assert one.scale == 1.0 and two.scale == 1.0
        assert np.allclose(two.signal.samples, 2.0 * one.signal.samples,
                           rtol=1e-9, atol=1e-12)

    def test_deterministic_under_seed(self):
        speech = _burst_fixture(seconds=2.0, seed=10)
        noise = nl.white_noise(3 * RATE, seed=11)
        a = nl.mix_at_snr(speech, noise, 5.0, seed=12)
        b = nl.mix_at_snr(speech, noise, 5.0, seed=12)
        assert np.array_equal(a.signal.samples, b.signal.samples)
        assert a.noise_offset == b.noise_offset

    def test_seed_changes_noise_segment(self):
        speech = _burst_fixture(seconds=2.0, seed=13)
        noise = nl.white_noise(5 * RATE, seed=14)
        offsets = {nl.mix_at_snr(speech, noise, 5.0, seed=s).noise_offset
                   for s in range(8)}
        assert len(offsets) > 1

    def test_infinite_snr_returns_copy(self):
        speech = _burst_fixture(seconds=1.0, seed=15)
        res = nl.mix_at_snr(speech, nl.white_noise(RATE, 0), np.inf, seed=1)
        assert np.array_equal(res.signal.samples, speech.samples)
        assert res.scale == 1.0 and res.clipped == 0

    def test_clipping_attenuates_whole_mixture(self):
        speech = AudioSignal(_tone(amp=0.95, seconds=2.0), RATE)
        noise = nl.white_noise(3 * RATE, seed=16)
        res = nl.mix_at_snr(speech, noise, 0.0, seed=17)
        assert res.clipped > 0
        assert res.scale < 1.0
        assert np.max(np.abs(res.signal.samples)) <= 1.0 + 1e-12
        # attenuation is common to both parts, so the SNR is intact
        added = res.signal.samples / res.scale - speech.samples
        measured = (nl.active_speech_level(speech).level_db
                    - 10 * np.log10(np.mean(added ** 2)))
        assert abs(measured - 0.0) < 1e-9

    def test_wraparound_when_noise_is_short(self):
        speech = _burst_fixture(seconds=2.0, seed=18)
        noise = nl.white_noise(RATE // 2, seed=19)   # shorter than speech
        res = nl.mix_at_snr(speech, noise, 10.0, seed=20)
        assert len(res.signal.samples) == len(speech.samples)

    def test_silent_noise_rejected(self):
        speech = _burst_fixture(seconds=1.0, seed=21)
        with pytest.raises(ValueError):
            nl.mix_at_snr(speech, np.zeros(RATE), 10.0, seed=0)

    def test_rate_mismatch_rejected(self):
        speech = _burst_fixture(seconds=1.0, seed=22)
        noise = AudioSignal(nl.white_noise(RATE, 0), 8000)
        with pytest.raises(ValueError):
            nl.mix_at_snr(speech, noise, 10.0, seed=0)

    def test_silent_speech_raises(self):
        speech = AudioSignal(np.zeros(RATE), RATE)
        with pytest.raises(NoActiveSpeechError):
            nl.mix_at_snr(speech, nl.white_noise(RATE, 0), 10.0, seed=0)


class TestNoiseGenerators:
    def test_white_noise_unit_variance_and_deterministic(self):
        x = nl.white_noise(4 * RATE, seed=23)
        assert abs(np.var(x) - 1.0) < 0.05
        assert np.array_equal(x, nl.white_noise(4 * RATE, seed=23))

    def _band_power(self, x, lo, hi):
        spec = np.abs(np.fft.rfft(x)) ** 2
        freqs = np.fft.rfftfreq(len(x), 1.0 / RATE)
        return spec[(freqs >= lo) & (freqs < hi)].sum()

    def test_car_noise_is_low_frequency(self):
        x = nl.car_noise(4 * RATE, RATE, seed=24)
        assert abs(np.var(x) - 1.0) < 0.05
        low = self._band_power(x, 0, 600)
        high = self._band_power(x, 1500, 8000)
        assert 10 * np.log10(low / high) > 20.0

    def test_babble_noise_concentrates_in_speech_band(self):
        x = nl.babble_noise(4 * RATE, RATE, seed=25)
        assert abs(np.var(x) - 1.0) < 0.05
        inband = self._band_power(x, 300, 3400)
        above = self._band_power(x, 4000, 8000)
        assert inband > 10.0 * above

    def test_dispatch(self):
        for kind in nl.NOISE_KINDS:
            x = nl.make_noise(kind, RATE, RATE, seed=26)
            assert len(x) == RATE
        with pytest.raises(ValueError):
            nl.make_noise("pink", RATE, RATE, seed=0)

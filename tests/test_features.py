from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spoofbench import dsp, features, filterbanks
from spoofbench.audio import AudioSignal
from spoofbench.config import ExperimentConfig
from spoofbench.errors import AlignmentError, EmptyFeaturesError

from reference import (estimate_f0_loop, mhec_energies_whole_matrix, naive_dct,
                       naive_dft_matrix, pitch_decisions_loop, relative_phase_row,
                       rps_band_row, synth_harmonic)

RATE = 16000


def _voiced_test_signal(seconds=0.5, f0=210.0, seed=0):
    """Harmonic-rich signal with gentle noise, enough to drive every extractor."""
    rng = np.random.default_rng(seed)
    n = int(seconds * RATE)
    t = np.arange(n)
    x = np.zeros(n)
    for k in range(1, 30):
        f = k * f0
        if f >= RATE / 2 * 0.95:
            break
        x += np.cos(2 * np.pi * f * t / RATE + 0.3 * k * k) / k
    x += 0.001 * rng.standard_normal(n)
    x *= 0.3 / np.max(np.abs(x))
    return AudioSignal(x, RATE)


# --- configuration ------------------------------------------------------------

def test_config_defaults_follow_feature_table():
    for kind in ("mfcc", "imfcc", "scmc", "cqcc", "mhec", "mgd"):
        cfg = features.FeatureConfig(kind)
        assert cfg.want_delta and cfg.want_deltadelta and cfg.want_cms
        assert cfg.dimension == 96
    for kind in ("rps", "cosphase"):
        cfg = features.FeatureConfig(kind)
        assert not cfg.want_delta and not cfg.want_cms
        assert cfg.dimension == 32


def test_config_validation():
    with pytest.raises(ValueError):
        features.FeatureConfig("plp")
    with pytest.raises(ValueError):
        features.FeatureConfig("mfcc", add_delta=False, add_deltadelta=True)
    cfg = features.FeatureConfig("mfcc", add_delta=True, add_deltadelta=False)
    assert cfg.dimension == 64


# --- MFCC against a straight-line oracle ---------------------------------------

def _triangle_bank_reference(n_filters, dft_size, rate):
    def mel(f):
        return 2595.0 * math.log10(1.0 + f / 700.0)

    def imel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    edges = [imel(i * mel(rate / 2.0) / (n_filters + 1)) for i in range(n_filters + 2)]
    n_bins = dft_size // 2 + 1
    weights = np.zeros((n_filters, n_bins))
    for i in range(n_filters):
        lo, center, hi = edges[i], edges[i + 1], edges[i + 2]
        for k in range(n_bins):
            f = k * rate / dft_size
            if lo <= f <= center and center > lo:
                weights[i, k] = (f - lo) / (center - lo)
            elif center < f <= hi and hi > center:
                weights[i, k] = (hi - f) / (hi - center)
    return weights


def mfcc_oracle(signal: AudioSignal, n_coeffs=32, n_filters=32, dft_size=512):
    """Independent MFCC pipeline: direct DFT, explicit bank, naive DCT,
    naive deltas, CMS, max-referenced VAD. Mirrors the default config."""
    x = signal.samples
    n, shift = 320, 160
    n_frames = (len(x) - n) // shift + 1
    w = np.hamming(n)
    frames = np.array([x[t * shift:t * shift + n] * w for t in range(n_frames)])
    spec = naive_dft_matrix(frames, dft_size)
    power = np.abs(spec) ** 2
    bank = _triangle_bank_reference(n_filters, dft_size, signal.sample_rate)
    base = np.empty((n_frames, n_coeffs))
    for t in range(n_frames):
        energies = np.array([np.dot(bank[i], power[t]) for i in range(n_filters)])
        base[t] = naive_dct(np.log(np.maximum(energies, 1e-10)), n_coeffs)

    def delta(mat):
        out = np.zeros_like(mat)
        for t in range(mat.shape[0]):
            acc = np.zeros(mat.shape[1])
            for d in (1, 2):
                hi = min(t + d, mat.shape[0] - 1)
                lo = max(t - d, 0)
                acc += d * (mat[hi] - mat[lo])
            out[t] = acc / 10.0
        return out

    d1 = delta(base)
    d2 = delta(d1)
    feats = np.hstack([base, d1, d2])
    feats = feats - feats.mean(axis=0)
    energies = np.sum(frames ** 2, axis=1)
    keep = 10 * np.log10(np.maximum(energies, 1e-10)) > 10 * np.log10(energies.max()) - 30.0
    return feats[keep]


def test_mfcc_matches_oracle():
    for seed in (0, 1):
        sig = _voiced_test_signal(0.3, 180.0 + 40 * seed, seed)
        got = features.extract(sig, features.FeatureConfig("mfcc"))
        ref = mfcc_oracle(sig)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) < 1e-8


def test_mfcc_gain_invariant_with_cms():
    sig = _voiced_test_signal()
    a = features.extract(sig, features.FeatureConfig("mfcc"))
    b = features.extract(AudioSignal(sig.samples * 4.0, RATE),
                         features.FeatureConfig("mfcc"))
    assert np.max(np.abs(a - b)) < 1e-8


def test_mfcc_gain_shifts_only_c0_without_cms():
    cfg = features.FeatureConfig("mfcc", add_delta=False, add_deltadelta=False,
                                 apply_cms=False)
    sig = _voiced_test_signal()
    a = features.extract(sig, cfg)
    b = features.extract(AudioSignal(sig.samples * 2.0, RATE), cfg)
    shift = b[:, 0] - a[:, 0]
    expected = math.sqrt(32.0) * math.log(4.0)   # sqrt(M) * log(g^2)
    assert np.max(np.abs(shift - expected)) < 1e-8
    assert np.max(np.abs(b[:, 1:] - a[:, 1:])) < 1e-8


def test_imfcc_is_mfcc_of_flipped_spectrum():
    sig = _voiced_test_signal()
    cfg = features.FeatureConfig("imfcc", add_delta=False, add_deltadelta=False,
                                 apply_cms=False)
    got = features.extract(sig, cfg)

    from spoofbench import filterbanks
    fm = dsp.frame_signal(sig.samples, RATE)
    power = dsp.power_spectrum(fm, 512)
    mel = filterbanks.mel_filterbank(32, 512, RATE)
    # the flip construction: inverted features are the MFCC pipeline run on
    # the bin-reversed spectrum with the band order reversed again
    flipped_energies = mel.apply(power[:, ::-1])[:, ::-1]
    ref = dsp.dct_features(dsp.safe_log(flipped_energies), 32)
    ref = ref[dsp.energy_vad(fm)]
    assert np.max(np.abs(got - ref)) < 1e-10


# --- SCMC ----------------------------------------------------------------------

def test_scmc_matches_direct_sums():
    rng = np.random.default_rng(2)
    mag = rng.uniform(0.1, 2.0, size=(5, 257))
    from spoofbench import filterbanks
    bank = filterbanks.linear_filterbank(32, 512, RATE)
    got = features.subband_centroid_magnitudes(mag, bank)
    f = np.arange(257) / 256.0
    for i in range(32):
        support = np.flatnonzero(bank.weights[i])
        num = (mag[:, support] * f[support]).sum(axis=1)
        den = f[support].sum()
        assert np.allclose(got[:, i], num / den, rtol=1e-12)


def test_scmc_flat_spectrum_gives_constant_bands():
    mag = np.full((3, 257), 0.7)
    from spoofbench import filterbanks
    bank = filterbanks.linear_filterbank(32, 512, RATE)
    got = features.subband_centroid_magnitudes(mag, bank)
    assert np.allclose(got, 0.7, rtol=1e-12)


def test_scmc_extractor_shape():
    sig = _voiced_test_signal()
    out = features.extract(sig, features.FeatureConfig("scmc"))
    assert out.shape[1] == 96
    assert np.all(np.isfinite(out))


# --- CQCC ----------------------------------------------------------------------

def test_resample_log_spectrum_against_closed_form():
    # log of (floor + Gaussian bump): smooth, non-polynomial
    def curve(f):
        return np.log(1e-3 + np.exp(-((f - 1000.0) ** 2) / (2 * 300.0 ** 2)))

    geo = 50.0 * 2.0 ** (np.arange(100) / 12.0)
    geo = geo[geo <= 4000.0]
    rows = curve(geo)[None, :]
    out = features.resample_log_spectrum(rows, geo)
    uniform = np.linspace(geo[0], geo[-1], geo.size)
    ref = curve(uniform)
    scale = ref.max() - ref.min()
    assert np.max(np.abs(out[0] - ref)) < 0.01 * scale


def test_cqcc_extractor_desk_config():
    cfg = features.FeatureConfig("cqcc", cqt_bins_per_octave=24, cqt_octaves=6)
    sig = _voiced_test_signal()
    out = features.extract(sig, cfg)
    assert out.shape[1] == 96
    assert np.all(np.isfinite(out))


def test_cqcc_deterministic():
    cfg = features.FeatureConfig("cqcc", cqt_bins_per_octave=24, cqt_octaves=6)
    sig = _voiced_test_signal()
    a = features.extract(sig, cfg)
    b = features.extract(sig, cfg)
    assert np.array_equal(a, b)


# --- MHEC ----------------------------------------------------------------------

def test_mhec_shape_and_finite():
    sig = _voiced_test_signal()
    out = features.extract(sig, features.FeatureConfig("mhec"))
    assert out.shape[1] == 96
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("seconds, block", [(0.5, 8), (0.7719, 8), (1.0, 8),
                                            (0.7719, 1), (0.7719, 5)])
def test_mhec_streamed_energies_equal_whole_matrix_energies(seconds, block,
                                                            monkeypatch):
    """Streaming the envelope, smoothing and framing a block of channels at
    a time reproduces the whole-matrix computation bit for bit."""
    monkeypatch.setattr(features, "_MHEC_BLOCK", block)
    sig = _voiced_test_signal(seconds)
    cfg = features.FeatureConfig("mhec")
    bank = features._gt_bank(RATE, cfg.n_filters, cfg.gt_f_lo, cfg.gt_f_hi)
    want = mhec_energies_whole_matrix(bank.filter(sig.samples), RATE)
    n_frames = dsp.n_frames_for(len(sig), cfg.frame_ms, cfg.shift_ms, RATE)
    assert np.array_equal(features.mhec_band_energies(sig, cfg, n_frames), want)


def test_mhec_of_one_frame_is_finite():
    x = 0.1 * np.random.default_rng(3).standard_normal(320)
    out = features.extract(AudioSignal(x, RATE), features.FeatureConfig("mhec"))
    assert out.shape == (1, 96)
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("samples", [np.zeros(RATE), 0.1 * np.ones(319)],
                         ids=["all-zero", "shorter-than-a-frame"])
def test_mhec_without_speech_frames_raises(samples):
    with pytest.raises(EmptyFeaturesError):
        features.extract(AudioSignal(samples, RATE), features.FeatureConfig("mhec"))


def test_mhec_band_energy_tracks_slow_amplitude_modulation():
    import scipy.fft

    t = np.arange(16000) / RATE
    mod = 1.0 + 0.8 * np.sin(2 * np.pi * 4 * t)
    am = AudioSignal(0.3 * mod * np.sin(2 * np.pi * 1000 * t), RATE)
    cfg = features.FeatureConfig("mhec", add_delta=False, add_deltadelta=False,
                                 apply_cms=False)
    feats = features.extract(am, cfg)
    # the orthonormal DCT is invertible: recover the log band energies
    band_log = scipy.fft.idct(feats, type=2, norm="ortho", axis=1)
    from spoofbench import filterbanks
    bank = filterbanks.gammatone_bank(RATE)
    ch = int(np.argmin(np.abs(bank.center_freqs - 1000.0)))
    centers = (160 * np.arange(feats.shape[0]) + 160) / RATE
    expected = np.log(mod[(centers * RATE).astype(int)] ** 2)
    got = band_log[5:-5, ch]
    want = expected[5:-5]
    got = got - got.mean()
    want = want - want.mean()
    # 4 Hz modulation passes the 20 Hz envelope smoother essentially intact
    corr = np.dot(got, want) / np.sqrt(np.dot(got, got) * np.dot(want, want))
    assert corr > 0.98
    assert abs((got.max() - got.min()) / (want.max() - want.min()) - 1.0) < 0.2


# --- F0 tracking ----------------------------------------------------------------

def test_f0_tracks_harmonic_signal():
    thetas = np.zeros(20)
    amps = 1.0 / np.arange(1, 21)
    x = synth_harmonic(200.0, thetas, amps, 16000, RATE)
    track = features.estimate_f0(AudioSignal(0.3 * x, RATE))
    assert track.voiced.all()
    assert np.max(np.abs(track.f0 - 200.0)) < 2.0


def test_f0_silence_is_unvoiced():
    track = features.estimate_f0(AudioSignal(np.zeros(8000), RATE))
    assert not track.voiced.any()


def test_f0_white_noise_mostly_unvoiced():
    rng = np.random.default_rng(3)
    track = features.estimate_f0(AudioSignal(0.3 * rng.standard_normal(16000), RATE))
    assert track.voiced.mean() < 0.2


# --- RPS -------------------------------------------------------------------------

def recover_relative_phases(sig: AudioSignal, n_harmonics: int) -> np.ndarray:
    """Run the RPS analysis chain and aggregate theta_k over interior frames.

    Per-frame measurements carry a small leakage phasor that rotates from
    frame to frame; the median over frames is the recovered estimate.
    """
    fm = dsp.frame_signal(sig.samples, RATE)
    spec = np.fft.rfft(fm.frames, n=512, axis=1)
    track = features.estimate_f0(sig)
    f0s, voiced = features._f0_on_analysis_grid(track, features.FeatureConfig("rps"),
                                                fm.n_frames, RATE)
    interior = np.zeros(fm.n_frames, dtype=bool)
    interior[3:-3] = True
    frames = voiced & interior
    theta, counts = features.relative_phases(spec[frames], f0s[frames], RATE,
                                             512)
    rows = theta[counts >= n_harmonics, :n_harmonics]
    assert rows.size, "no voiced frames"
    # wrap-aware aggregation: median of the wrapped deviations from frame 0
    ref = rows[0]
    dev = (rows - ref + np.pi) % (2 * np.pi) - np.pi
    agg = ref + np.median(dev, axis=0)
    return (agg + np.pi) % (2 * np.pi) - np.pi


def test_relative_phase_round_trip():
    rng = np.random.default_rng(4)
    f0 = 220.0
    n_harm = int((RATE / 2 * 0.95) // f0)
    thetas = np.concatenate([[0.0], rng.uniform(-np.pi, np.pi, n_harm - 1)])
    amps = 1.0 / np.sqrt(np.arange(1, n_harm + 1))
    x = synth_harmonic(f0, thetas, amps, 12000, RATE)
    sig = AudioSignal(0.2 * x / np.max(np.abs(x)), RATE)
    k_cmp = int(4000.0 // f0)
    got = recover_relative_phases(sig, k_cmp)
    diff = (got - thetas[:k_cmp] + np.pi) % (2 * np.pi) - np.pi
    assert np.max(np.abs(diff)) < 0.1


def test_rps_extractor_drops_unvoiced_and_keeps_dim():
    sig = _voiced_test_signal(0.6)
    out = features.extract(sig, features.FeatureConfig("rps"))
    assert out.shape[1] == 32
    assert np.all(np.isfinite(out))


def test_rps_unvoiced_only_signal_raises():
    # too short for a single pitch window -> nothing is voiced
    with pytest.raises(EmptyFeaturesError):
        features.extract(AudioSignal(0.1 * np.ones(800), RATE),
                         features.FeatureConfig("rps"))


def test_relative_phase_row_rejects_bad_f0():
    with pytest.raises(ValueError):
        features.relative_phases(np.ones((2, 257), dtype=complex),
                                 np.array([100.0, 0.0]), RATE, 512)


# --- vectorised RPS and pitch steps against their frame-by-frame oracles -------

def _pitch_test_signal(case, f0, seed, rate):
    """0.4 s of a voiced, unvoiced, octave-ambiguous or near-Nyquist signal
    after a leading silence longer than one pitch window, whose frames have
    an autocorrelation of exactly 0."""
    rng = np.random.default_rng(seed)
    n = int(0.4 * rate)
    t = np.arange(n) / rate
    nyquist = rate / 2.0
    if case == "unvoiced":
        x = rng.standard_normal(n)
    else:
        ks = np.arange(1, int((nyquist - 1.0) // f0) + 1)
        if case == "voiced":
            amps = 1.0 / ks
        elif case == "octave":
            # weak odd harmonics: the autocorrelation at half the period is
            # nearly as strong as at the period
            amps = np.where(ks % 2 == 0, 1.0, rng.uniform(0.1, 0.3))
        else:   # near-nyquist: the fundamental and the top 3 harmonics
            amps = ((ks == 1) | (ks > ks.size - 3)).astype(float)
        phases = rng.uniform(-np.pi, np.pi, ks.size)
        x = (amps[:, None] * np.cos(2 * np.pi * f0 * ks[:, None] * t
                                    + phases[:, None])).sum(axis=0)
        x += 0.01 * rng.standard_normal(n)
    x = np.concatenate([np.zeros(int(0.12 * rate)), x])
    return AudioSignal(0.3 * x / np.max(np.abs(x)), rate)


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(["voiced", "unvoiced", "octave", "near-nyquist"]),
       f0=st.floats(60.0, 480.0), seed=st.integers(0, 2 ** 16),
       rate=st.sampled_from([8000, 16000]))
def test_vectorised_rps_matches_frame_by_frame_oracles(case, f0, seed, rate):
    """The pitch track, each voiced frame's relative phases and its band
    values are equal, not close, to the frame-by-frame computation."""
    sig = _pitch_test_signal(case, f0, seed, rate)
    cfg = features.FeatureConfig("rps")
    track = features.estimate_f0(sig, cfg)
    oracle = estimate_f0_loop(sig, cfg)
    assert np.array_equal(track.f0, oracle.f0)
    assert np.array_equal(track.voiced, oracle.voiced)
    assert not track.voiced[0]
    fm = dsp.frame_signal(sig.samples, rate, cfg.frame_ms, cfg.shift_ms,
                          cfg.window)
    spec = np.fft.rfft(fm.frames, n=cfg.dft_size, axis=1)
    f0s, voiced = features._f0_on_analysis_grid(track, cfg, fm.n_frames, rate)
    if not voiced.any():
        return
    bank = features._bank(filterbanks.mel_filterbank, cfg.n_filters,
                          cfg.dft_size, rate)
    theta, counts = features.relative_phases(spec[voiced], f0s[voiced], rate,
                                             cfg.dft_size)
    rows = [relative_phase_row(spec[t], f0s[t], rate, cfg.dft_size)
            for t in np.flatnonzero(voiced)]
    for row, want, count in zip(theta, rows, counts):
        assert count == want.size
        assert np.array_equal(row[:count], want)
        assert not row[count:].any()
    assert np.array_equal(
        features.rps_bands(theta, counts, f0s[voiced], bank),
        np.vstack([rps_band_row(want, f, bank)
                   for want, f in zip(rows, f0s[voiced])]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n_rows=st.integers(1, 12),
       rate=st.sampled_from([8000, 16000]), dft_size=st.sampled_from([256, 512]),
       f0_kinds=st.lists(st.sampled_from(["speech", "under-nyquist", "one",
                                          "none", "at-nyquist"]),
                         min_size=1, max_size=12))
def test_rps_steps_match_oracles_on_any_spectrum(seed, n_rows, rate, dft_size,
                                                 f0_kinds):
    """Random spectra (phase wraps everywhere) and pitches that put the top
    harmonic just under Nyquist or leave fewer than 2 harmonics."""
    rng = np.random.default_rng(seed)
    nyquist = rate / 2.0
    f0s = []
    for i in range(n_rows):
        kind = f0_kinds[i % len(f0_kinds)]
        k = int(rng.integers(1, 40))
        f0s.append({"speech": rng.uniform(50.0, 520.0),
                    "under-nyquist": (nyquist - 2e-9) / k,
                    "at-nyquist": nyquist / k,
                    "one": rng.uniform(nyquist / 2.0 + 1.0, nyquist - 1.0),
                    "none": rng.uniform(nyquist, 2.0 * nyquist)}[kind])
    f0s = np.array(f0s)
    spectra = (rng.standard_normal((n_rows, dft_size // 2 + 1))
               + 1j * rng.standard_normal((n_rows, dft_size // 2 + 1)))
    bank = features._bank(filterbanks.mel_filterbank, 32, dft_size, rate)
    theta, counts = features.relative_phases(spectra, f0s, rate, dft_size)
    bands = features.rps_bands(theta, counts, f0s, bank)
    for i in range(n_rows):
        want = relative_phase_row(spectra[i], f0s[i], rate, dft_size)
        assert np.array_equal(theta[i, :counts[i]], want)
        assert np.array_equal(bands[i], rps_band_row(want, f0s[i], bank))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n_rows=st.integers(1, 30),
       lag_min=st.integers(2, 40), span=st.integers(1, 300),
       threshold=st.sampled_from([0.0, 0.3, 0.6]))
def test_pitch_decisions_match_the_loop(seed, n_rows, lag_min, span,
                                        threshold):
    """Autocorrelation rows with r[0] <= 0, flat rows (a zero parabola
    denominator) and peaks at a lag and its submultiples."""
    rng = np.random.default_rng(seed)
    lag_max = lag_min + span
    corr = rng.uniform(-0.5, 1.0, (n_rows, lag_max + 2))
    corr[:, 0] = rng.choice([-1.0, 0.0, 1.0, 2.0], n_rows)
    for row in corr:
        lag = int(rng.integers(lag_min, lag_max + 1))
        row[lag] = rng.uniform(0.5, 1.0) * row[0]
        for div in (2, 3, 4):
            if lag // div >= 1 and rng.random() < 0.5:
                row[lag // div] = rng.uniform(0.85, 1.0) * row[lag]
        if rng.random() < 0.2:
            row[1:] = 0.5 * row[0]
    for got, want in zip(features._pitch_decisions(corr, 16000, lag_min,
                                                   lag_max, threshold),
                         pitch_decisions_loop(corr, 16000, lag_min, lag_max,
                                              threshold)):
        assert np.array_equal(got, want)


# --- MGD -------------------------------------------------------------------------

def test_mgd_matches_analytic_group_delay_of_one_pole():
    a = 0.6
    n = np.arange(320)
    frame = a ** n
    fm = dsp.FrameMatrix(frame[None, :])
    tau = features.mgd_spectrum(fm, 512, alpha=1.0, gamma=1.0, cep_lifter=None)[0]
    w = 2 * np.pi * np.arange(257) / 512
    analytic = (a * np.cos(w) - a * a) / (1.0 - 2 * a * np.cos(w) + a * a)
    band = slice(10, 247)   # away from the DC resonance
    scale = np.max(np.abs(analytic[band]))
    assert np.max(np.abs(tau[band] - analytic[band])) < 0.05 * scale


def test_mgd_even_in_signal_sign():
    sig = _voiced_test_signal()
    fm = dsp.frame_signal(sig.samples, RATE)
    neg = dsp.FrameMatrix(-fm.frames)
    a = features.mgd_spectrum(fm)
    b = features.mgd_spectrum(neg)
    assert np.array_equal(a, b)


def test_mgd_cepstral_smoothing_smooths():
    sig = _voiced_test_signal()
    fm = dsp.frame_signal(sig.samples, RATE)
    full = np.fft.fft(fm.frames, n=512, axis=1)
    smooth = features._cepstrally_smoothed_magnitude(full, 30)
    raw = np.abs(full[:, :257])
    rough_raw = np.mean(np.abs(np.diff(dsp.safe_log(raw), axis=1)))
    rough_smooth = np.mean(np.abs(np.diff(np.log(smooth), axis=1)))
    assert rough_smooth < 0.5 * rough_raw


def test_mgd_extractor_shape():
    sig = _voiced_test_signal()
    out = features.extract(sig, features.FeatureConfig("mgd"))
    assert out.shape[1] == 96
    assert np.all(np.isfinite(out))


def test_mgd_zero_frame_yields_zero_row():
    fm = dsp.FrameMatrix(np.zeros((1, 320)))
    tau = features.mgd_spectrum(fm)
    assert np.array_equal(tau, np.zeros((1, 257)))


# --- CosPhase ----------------------------------------------------------------------

def test_cosphase_is_phase_sensitive_where_mfcc_is_not():
    t = np.arange(8000)
    cos_sig = AudioSignal(0.5 * np.cos(2 * np.pi * 1000 * t / RATE), RATE)
    sin_sig = AudioSignal(0.5 * np.sin(2 * np.pi * 1000 * t / RATE), RATE)
    mf_a = features.extract(cos_sig, features.FeatureConfig("mfcc"))
    mf_b = features.extract(sin_sig, features.FeatureConfig("mfcc"))
    cp_a = features.extract(cos_sig, features.FeatureConfig("cosphase"))
    cp_b = features.extract(sin_sig, features.FeatureConfig("cosphase"))
    assert np.max(np.abs(mf_a - mf_b)) < 1e-6
    assert np.max(np.abs(cp_a - cp_b)) > 0.01


def test_cosphase_shape_and_determinism():
    sig = _voiced_test_signal()
    a = features.extract(sig, features.FeatureConfig("cosphase"))
    b = features.extract(sig, features.FeatureConfig("cosphase"))
    assert a.shape[1] == 32
    assert np.array_equal(a, b)


# --- shared plumbing -----------------------------------------------------------------

def test_extract_dispatch_dimensions():
    sig = _voiced_test_signal(0.4)
    dims = {"mfcc": 96, "imfcc": 96, "scmc": 96, "mhec": 96, "mgd": 96,
            "rps": 32, "cosphase": 32}
    for kind, dim in dims.items():
        out = features.extract(sig, features.FeatureConfig(kind))
        assert out.shape[1] == dim, kind
    cqcc = features.extract(sig, features.FeatureConfig(
        "cqcc", cqt_bins_per_octave=24, cqt_octaves=6))
    assert cqcc.shape[1] == 96


def test_external_vad_mask_is_honored():
    sig = _voiced_test_signal()
    cfg = features.FeatureConfig("mfcc")
    full = features.compute_vad_mask(sig, cfg)
    half = full.copy()
    half[::2] = False
    out = features.extract(sig, cfg, vad=half)
    assert out.shape[0] == int(half.sum())
    with pytest.raises(EmptyFeaturesError):
        features.extract(sig, cfg, vad=np.zeros_like(full))


def test_postprocess_order_deltas_cms_vad():
    sig = _voiced_test_signal()
    cfg = features.FeatureConfig("mfcc")
    vad = features.compute_vad_mask(sig, cfg)
    got = features.extract(sig, cfg, vad=vad)
    # manual pipeline in the contractual order
    fm = dsp.frame_signal(sig.samples, RATE)
    from spoofbench import filterbanks
    bank = filterbanks.mel_filterbank(32, 512, RATE)
    base = dsp.dct_features(dsp.safe_log(bank.apply(dsp.power_spectrum(fm, 512))), 32)
    manual = dsp.apply_vad(dsp.cepstral_mean_subtract(dsp.append_deltas(base, 2)), vad)
    assert np.allclose(got, manual, atol=1e-12)


def test_signal_too_short_raises():
    with pytest.raises(EmptyFeaturesError):
        features.extract(AudioSignal(np.ones(100), RATE),
                         features.FeatureConfig("mfcc"))


@pytest.mark.parametrize("kind", features.FEATURE_KINDS)
@pytest.mark.parametrize("extra", [7, -7])
def test_vad_mask_of_wrong_length_raises(kind, extra):
    sig = _voiced_test_signal()
    cfg = features.FeatureConfig(kind)
    n_frames = len(features.compute_vad_mask(sig, cfg))
    wrong = np.ones(n_frames + extra, dtype=bool)
    with pytest.raises(AlignmentError, match=f"VAD mask has {n_frames + extra} "
                                             f"frames, features have {n_frames}"):
        features.extract(sig, cfg, vad=wrong)


def _edge_signal(case, n, rate):
    t = np.arange(n) / rate
    if case == "sub-frame":
        n = min(n, dsp.frame_length_samples(20.0, rate) - 1)
        return _edge_signal("clipped", n, rate)
    if case == "silent":
        return AudioSignal(np.zeros(n), rate)
    if case == "dc":
        return AudioSignal(np.full(n, 0.5), rate)
    if case == "clipped":
        return AudioSignal(np.clip(3.0 * np.sin(2 * np.pi * 220.0 * t), -1.0, 1.0),
                           rate)
    x = np.zeros(n)
    x[n // 2:n // 2 + 1] = 1.0
    return AudioSignal(x, rate)


@settings(max_examples=80, deadline=None)
@given(case=st.sampled_from(["sub-frame", "silent", "dc", "clipped", "impulse"]),
       kind=st.sampled_from(features.FEATURE_KINDS),
       rate=st.sampled_from([8000, 16000]), n=st.integers(0, 6400))
def test_edge_inputs_raise_value_errors_or_give_finite_features(case, kind,
                                                                rate, n):
    """Degenerate audio ends in a ValueError-family error or in finite
    features of the configured width, never in a numpy RuntimeWarning."""
    # desk CQT geometry keeps the kernel small
    cfg = ExperimentConfig().feature_config(kind)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            out = features.extract(_edge_signal(case, n, rate), cfg)
        except ValueError:
            return
    assert out.shape[1] == cfg.dimension
    assert np.all(np.isfinite(out))

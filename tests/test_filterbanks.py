from __future__ import annotations

import numpy as np
import pytest
import scipy.signal
from hypothesis import example, given, settings, strategies as st

from spoofbench import filterbanks as fb
from spoofbench.audio import AudioSignal
from spoofbench.errors import EmptyFeaturesError

from reference import cqt_direct_oracle, gammatone_cascade_oracle

RATE = 16000


def _mel_centers_reference(n_filters, sample_rate):
    # independent re-derivation of the center frequencies from the closed form
    def mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def inv(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    top = mel(sample_rate / 2.0)
    return np.array([inv((i + 1) * top / (n_filters + 1)) for i in range(n_filters)])


def _assert_unimodal(row):
    peak = int(np.argmax(row))
    assert np.all(np.diff(row[:peak + 1]) >= -1e-15)
    assert np.all(np.diff(row[peak:]) <= 1e-15)


def test_mel_bank_shape_and_rows():
    bank = fb.mel_filterbank(32, 512, RATE)
    assert bank.weights.shape == (32, 257)
    assert np.all(bank.weights >= 0.0) and np.all(bank.weights <= 1.0)
    for row in bank.weights:
        assert row.max() > 0.0          # no filter is empty
        _assert_unimodal(row)


def test_mel_bank_centers_match_closed_form():
    bank = fb.mel_filterbank(32, 512, RATE)
    ref = _mel_centers_reference(32, RATE)
    assert np.max(np.abs(bank.center_freqs - ref)) < 1e-6
    assert np.all(np.diff(bank.center_freqs) > 0)


def test_inverted_bank_is_exact_mirror():
    mel = fb.mel_filterbank(32, 512, RATE)
    inv = fb.inverted_mel_filterbank(32, 512, RATE)
    assert np.array_equal(inv.weights, mel.weights[::-1, ::-1])
    # mirror of the mirror restores the original bit for bit
    assert np.array_equal(inv.weights[::-1, ::-1], mel.weights)
    assert np.all(np.diff(inv.center_freqs) > 0)
    # inverted spacing is dense where mel spacing is sparse
    assert np.diff(inv.center_freqs)[0] > np.diff(inv.center_freqs)[-1]


def test_linear_bank_partitions_spectrum():
    bank = fb.linear_filterbank(20, 512, RATE)
    # every bin covered by exactly one filter
    assert np.array_equal(bank.weights.sum(axis=0), np.ones(257))
    assert set(np.unique(bank.weights)) == {0.0, 1.0}
    # band edges follow the closed-form partition
    edges = (np.arange(21) * 257) // 20
    for i in range(20):
        assert np.array_equal(np.flatnonzero(bank.weights[i]),
                              np.arange(edges[i], edges[i + 1]))


def test_bank_apply_shape():
    bank = fb.mel_filterbank(32, 512, RATE)
    spec = np.random.default_rng(0).uniform(size=(11, 257))
    out = bank.apply(spec)
    assert out.shape == (11, 32)
    assert np.allclose(out, spec @ bank.weights.T)


def test_bank_invalid_args():
    with pytest.raises(ValueError):
        fb.mel_filterbank(0, 512, RATE)
    with pytest.raises(ValueError):
        fb.mel_filterbank(32, 500, RATE)
    with pytest.raises(ValueError):
        fb.linear_filterbank(300, 512, RATE)


# --- gammatone ---------------------------------------------------------------

def test_gammatone_center_spacing():
    bank = fb.gammatone_bank(RATE)
    assert bank.n_filters == 32
    assert bank.center_freqs[0] == pytest.approx(100.0, abs=1e-6)
    assert bank.center_freqs[-1] == pytest.approx(8000.0, abs=1e-6)
    rates = fb.hz_to_erb_rate(bank.center_freqs)
    steps = np.diff(rates)
    assert np.max(np.abs(steps - steps[0])) < 1e-9


def test_gammatone_unit_peak_response():
    bank = fb.gammatone_bank(RATE)
    freqs = np.linspace(0.0, RATE / 2.0, 8192)
    mag = np.abs([scipy.signal.sosfreqz(sos, worN=freqs, fs=RATE)[1]
                  for sos in bank.sos])
    peaks = mag.max(axis=1)
    # unity gain at the center within 1 dB
    assert np.all(peaks > 10 ** (-1.0 / 20.0))
    assert np.all(peaks < 10 ** (1.0 / 20.0))
    # peak location within one ERB of the nominal center
    peak_freqs = freqs[np.argmax(mag, axis=1)]
    erb = fb.MIN_BW + bank.center_freqs / fb.EAR_Q
    assert np.all(np.abs(peak_freqs - bank.center_freqs) < erb)


def test_gammatone_routes_tone_to_matching_channel():
    bank = fb.gammatone_bank(RATE)
    t = np.arange(8000) / RATE
    tone = np.sin(2 * np.pi * 1000.0 * t)
    out = bank.filter(tone)
    energies = np.sum(out[:, 2000:] ** 2, axis=1)
    best = int(np.argmax(energies))
    nominal = int(np.argmin(np.abs(bank.center_freqs - 1000.0)))
    assert abs(best - nominal) <= 1


def test_gammatone_impulse_responses_decay():
    bank = fb.gammatone_bank(RATE)
    impulse = np.zeros(4096)
    impulse[0] = 1.0
    ir = bank.filter(impulse)
    head = np.sum(ir[:, :2048] ** 2, axis=1)
    tail = np.sum(ir[:, 2048:] ** 2, axis=1)
    assert np.all(tail < 0.01 * head)


def test_gammatone_invalid_range():
    with pytest.raises(ValueError):
        fb.gammatone_bank(RATE, f_lo=100.0, f_hi=9000.0)
    with pytest.raises(ValueError):
        fb.gammatone_bank(RATE, f_lo=500.0, f_hi=100.0)


# --- constant-Q --------------------------------------------------------------

def test_cqt_kernel_geometry():
    kern = fb.cqt_kernel(RATE)  # reference defaults
    assert kern.f_max == pytest.approx(8000.0)
    assert kern.f_min == pytest.approx(8000.0 / 2 ** 9)
    assert kern.n_bins == 9 * 96 + 1
    ratios = kern.center_freqs[1:] / kern.center_freqs[:-1]
    assert np.allclose(ratios, 2.0 ** (1.0 / 96.0), rtol=1e-12)
    assert kern.q == pytest.approx(1.0 / (2.0 ** (1.0 / 96.0) - 1.0))
    assert np.array_equal(kern.lengths,
                          np.maximum(np.ceil(kern.q * RATE / kern.center_freqs), 2).astype(int))


def test_cqt_kernel_invalid():
    with pytest.raises(ValueError):
        fb.cqt_kernel(RATE, f_min=4000.0, f_max=2000.0)
    with pytest.raises(ValueError):
        fb.cqt_kernel(RATE, f_min=100.0, f_max=9000.0)


def test_cqt_tone_hits_center_bin():
    kern = fb.cqt_kernel(RATE, bins_per_octave=12, f_min=200.0, f_max=3200.0)
    b = 30
    tone_f = kern.center_freqs[b]
    t = np.arange(8000) / RATE
    sig = AudioSignal(0.5 * np.cos(2 * np.pi * tone_f * t), RATE)
    power = fb.cqt(sig, kern)
    interior = power[10:30]
    assert np.all(np.argmax(interior, axis=1) == b)


def test_cqt_octave_shift_moves_argmax_by_bins_per_octave():
    kern = fb.cqt_kernel(RATE, bins_per_octave=12, f_min=200.0, f_max=3200.0)
    t = np.arange(8000) / RATE
    f = kern.center_freqs[18]
    lo = AudioSignal(np.cos(2 * np.pi * f * t), RATE)
    hi = AudioSignal(np.cos(2 * np.pi * 2 * f * t), RATE)
    arg_lo = np.argmax(fb.cqt(lo, kern)[15], axis=0)
    arg_hi = np.argmax(fb.cqt(hi, kern)[15], axis=0)
    assert arg_hi - arg_lo == 12


def test_cqt_white_noise_flat_after_bandwidth_norm():
    kern = fb.cqt_kernel(RATE, bins_per_octave=12, f_min=200.0, f_max=3200.0)
    rng = np.random.default_rng(42)
    acc = np.zeros(kern.n_bins)
    trials = 100
    for _ in range(trials):
        sig = AudioSignal(rng.standard_normal(4800), RATE)
        power = fb.cqt(sig, kern)
        acc += power[5:24].mean(axis=0)
    acc /= trials
    # multiplying by the kernel length undoes the 1/bandwidth scaling
    norm = acc * kern.lengths
    db = 10 * np.log10(norm / np.median(norm))
    assert np.max(np.abs(db)) < 3.0


def test_cqt_short_signal_raises():
    kern = fb.cqt_kernel(RATE, bins_per_octave=12, f_min=200.0, f_max=3200.0)
    with pytest.raises(EmptyFeaturesError):
        fb.cqt(AudioSignal(np.zeros(100), RATE), kern)


def test_cqt_frame_count_matches_common_grid():
    kern = fb.cqt_kernel(RATE, bins_per_octave=12, f_min=200.0, f_max=3200.0)
    sig = AudioSignal(np.random.default_rng(1).standard_normal(8000), RATE)
    power = fb.cqt(sig, kern)
    assert power.shape == ((8000 - 320) // 160 + 1, kern.n_bins)


# --- fast paths against the direct oracles -------------------------------------

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       bins_per_octave=st.sampled_from([12, 24]),
       f_min=st.floats(20.0, 2000.0),
       octaves=st.floats(1.0, 8.0),
       n_samples=st.integers(320, 4000))
@example(seed=0, bins_per_octave=24, f_min=20.0, octaves=8.0, n_samples=320)
@example(seed=1, bins_per_octave=12, f_min=30.0, octaves=4.0, n_samples=479)
def test_cqt_matches_direct_summation_oracle(seed, bins_per_octave, f_min,
                                            octaves, n_samples):
    """Covers single-frame signals (320..479 samples) and low bins whose
    kernels are far longer than the signal."""
    f_max = min(f_min * 2.0 ** octaves, RATE / 2.0)
    kern = fb.cqt_kernel(RATE, bins_per_octave=bins_per_octave, f_min=f_min,
                         f_max=f_max)
    sig = AudioSignal(np.random.default_rng(seed).standard_normal(n_samples), RATE)
    want = cqt_direct_oracle(sig, kern)
    got = fb.cqt(sig, kern)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_cqt_reuses_blocked_rows_per_grid():
    kern = fb.cqt_kernel(RATE, bins_per_octave=12, f_min=200.0, f_max=3200.0)
    rows = kern.blocked_rows(320, 160)
    assert kern.blocked_rows(320, 160) is rows
    assert kern.blocked_rows(400, 160) is not rows


def test_gammatone_empty_signal_filters_to_empty():
    assert fb.gammatone_bank(RATE).filter(np.zeros(0)).shape == (32, 0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       n_filters=st.integers(1, 32),
       f_lo=st.floats(50.0, 1000.0),
       n_samples=st.integers(1, 4000))
def test_gammatone_matches_lfilter_cascade_oracle(seed, n_filters, f_lo, n_samples):
    bank = fb.gammatone_bank(RATE, n_filters, f_lo, RATE / 2.0)
    x = np.random.default_rng(seed).standard_normal(n_samples)
    want = gammatone_cascade_oracle(bank, x)
    got = bank.filter(x)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spoofbench import dsp
from spoofbench.errors import AlignmentError, EmptyFeaturesError

from reference import analytic_envelope_oracle, naive_dct_matrix, naive_dft_matrix

RATE = 16000


def test_frame_count_and_placement():
    x = np.arange(48000, dtype=float)
    fm = dsp.frame_signal(x, RATE, 20.0, 10.0, window="rect")
    assert fm.frames.shape == (299, 320)
    # frame t starts at t*shift
    assert np.array_equal(fm.frames[0], x[:320])
    assert np.array_equal(fm.frames[7], x[7 * 160:7 * 160 + 320])
    # trailing partial frame is dropped, never padded
    assert np.array_equal(fm.frames[-1], x[298 * 160:298 * 160 + 320])


def test_frame_count_formula_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n_samp = int(rng.integers(0, 4000))
        x = rng.standard_normal(n_samp)
        fm = dsp.frame_signal(x, RATE, 20.0, 10.0)
        n, shift = 320, 160
        expected = 0 if n_samp < n else (n_samp - n) // shift + 1
        assert fm.n_frames == expected


def test_frame_window_applied():
    x = np.ones(640)
    fm = dsp.frame_signal(x, RATE, 20.0, 10.0, window="hamming")
    assert np.allclose(fm.frames[0], np.hamming(320))


def test_frame_invalid_args():
    with pytest.raises(ValueError):
        dsp.frame_signal(np.ones(100), RATE, 10.0, 20.0)   # shift > length
    with pytest.raises(ValueError):
        dsp.frame_signal(np.ones(100), RATE, 20.0, 0.0)


def test_power_and_phase_match_direct_dft():
    rng = np.random.default_rng(1)
    frames = rng.standard_normal((10, 320))
    fm = dsp.FrameMatrix(frames)
    ref = naive_dft_matrix(frames, 512)
    pow_ref = np.abs(ref) ** 2
    got = dsp.power_spectrum(fm, 512)
    assert got.shape == (10, 257)
    assert np.max(np.abs(got - pow_ref) / np.maximum(np.abs(pow_ref), 1e-300)) < 1e-9
    phase = dsp.phase_spectrum(fm, 512)
    # compare as complex units to sidestep the +/- pi seam
    assert np.max(np.abs(np.exp(1j * phase) - np.exp(1j * np.angle(ref)))) < 1e-9


def test_power_spectrum_parseval():
    rng = np.random.default_rng(2)
    frames = rng.standard_normal((4, 320))
    fm = dsp.FrameMatrix(frames)
    k = 512
    p = dsp.power_spectrum(fm, k)
    # rebuild the full-circle sum from the half spectrum
    full = p[:, 0] + p[:, -1] + 2.0 * p[:, 1:-1].sum(axis=1)
    assert np.allclose(full, k * np.sum(frames ** 2, axis=1), rtol=1e-10)


def test_power_spectrum_constant_frame_dc_only():
    # with frame length == dft size there is no zero-padding leakage
    frames = np.full((1, 512), 0.25)
    fm = dsp.FrameMatrix(frames)
    p = dsp.power_spectrum(fm, 512)
    assert p[0, 0] == pytest.approx((0.25 * 512) ** 2)
    assert np.max(np.abs(p[0, 1:])) < 1e-18


def test_power_spectrum_bad_dft_size():
    fm = dsp.FrameMatrix(np.zeros((1, 320)))
    with pytest.raises(ValueError):
        dsp.power_spectrum(fm, 300)   # not a power of two
    with pytest.raises(ValueError):
        dsp.power_spectrum(fm, 256)   # smaller than the frame


def test_dct_matches_naive():
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((6, 32))
    got = dsp.dct_features(rows, 13)
    ref = naive_dct_matrix(rows, 13)
    assert np.max(np.abs(got - ref)) < 1e-9


def test_dct_constant_row_energy_in_c0():
    rows = np.full((1, 32), 3.0)
    c = dsp.dct_features(rows, 32)
    assert c[0, 0] == pytest.approx(3.0 * np.sqrt(32.0))
    assert np.max(np.abs(c[0, 1:])) < 1e-12


def test_dct_orthonormal_parseval():
    rng = np.random.default_rng(4)
    row = rng.standard_normal((1, 24))
    c = dsp.dct_features(row, 24)
    assert np.sum(c ** 2) == pytest.approx(np.sum(row ** 2), rel=1e-12)


def test_dct_bad_n_coeffs():
    with pytest.raises(ValueError):
        dsp.dct_features(np.zeros((2, 8)), 9)


def test_deltas_constant_are_zero():
    feat = np.full((5, 3), 2.5)
    out = dsp.append_deltas(feat, order=2)
    assert out.shape == (5, 9)
    assert np.allclose(out[:, :3], feat)
    assert np.max(np.abs(out[:, 3:])) == 0.0


def test_deltas_ramp_interior_slope():
    feat = np.arange(5.0)[:, None]
    out = dsp.append_deltas(feat, order=1)
    # +/-2 regression with edge replication on c_t = t
    assert np.allclose(out[:, 1], [0.5, 0.8, 1.0, 0.8, 0.5])


def test_deltas_bad_order():
    with pytest.raises(ValueError):
        dsp.append_deltas(np.zeros((3, 2)), order=3)


def test_cms_zero_mean():
    rng = np.random.default_rng(5)
    feat = rng.standard_normal((40, 7)) + 13.0
    out = dsp.cepstral_mean_subtract(feat)
    assert np.max(np.abs(out.mean(axis=0))) < 1e-12
    # idempotent
    assert np.allclose(dsp.cepstral_mean_subtract(out), out)


def test_vad_drops_quiet_frames():
    rng = np.random.default_rng(6)
    x = np.concatenate([
        1e-4 * rng.standard_normal(1600),           # quiet lead
        0.5 * np.sin(2 * np.pi * 440 * np.arange(8000) / RATE),
        1e-4 * rng.standard_normal(1600),           # quiet tail
    ])
    fm = dsp.frame_signal(x, RATE)
    mask = dsp.energy_vad(fm, threshold_db=30.0)
    assert mask.any()
    # frames wholly inside the pads are rejected
    assert not mask[:8].any()
    assert not mask[-8:].any()
    # frames wholly inside the tone are kept
    assert mask[12:55].all()


def test_vad_gain_invariant():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(9600) * np.linspace(0.001, 1.0, 9600)
    for gain in (1e-3, 1.0, 1e3):
        a = dsp.energy_vad(dsp.frame_signal(x, RATE))
        b = dsp.energy_vad(dsp.frame_signal(gain * x, RATE))
        assert np.array_equal(a, b)


def test_vad_all_zero_signal():
    fm = dsp.frame_signal(np.zeros(4800), RATE)
    assert not dsp.energy_vad(fm).any()


def test_vad_nonzero_always_keeps_loudest():
    rng = np.random.default_rng(8)
    x = 1e-6 * rng.standard_normal(4800)
    mask = dsp.energy_vad(dsp.frame_signal(x, RATE))
    assert mask.any()


def test_apply_vad():
    feat = np.arange(12.0).reshape(4, 3)
    mask = np.array([True, False, True, False])
    out = dsp.apply_vad(feat, mask)
    assert np.array_equal(out, feat[[0, 2]])
    with pytest.raises(EmptyFeaturesError):
        dsp.apply_vad(feat, np.zeros(4, dtype=bool))
    with pytest.raises(AlignmentError):
        dsp.apply_vad(feat, np.ones(5, dtype=bool))


def test_analytic_envelope_tone():
    t = np.arange(3200) / RATE
    x = 0.7 * np.cos(2 * np.pi * 1000 * t)
    env = dsp.analytic_envelope(x)
    interior = env[400:-400]
    assert np.allclose(interior, 0.49, rtol=5e-3)


def test_analytic_envelope_tracks_modulation():
    t = np.arange(16000) / RATE
    am = 1.0 + 0.5 * np.cos(2 * np.pi * 3 * t)
    x = am * np.cos(2 * np.pi * 1000 * t)
    env = dsp.analytic_envelope(x)
    interior = slice(2000, -2000)
    assert np.max(np.abs(env[interior] - am[interior] ** 2)) < 0.02


# lengths whose real FFT is fast (5-smooth), prime lengths, and lengths
# with one large prime factor, as toy utterances have (23964 = 2^2*3*1997,
# 22087 = 13*1699)
_ENVELOPE_LENGTHS = st.one_of(
    st.integers(1, 600),
    st.sampled_from([512, 640, 1000, 1024, 1080, 2048, 6000, 24000]),
    st.sampled_from([601, 1009, 1997, 4099, 7919, 22079]),
    st.sampled_from([2 * 1997, 23964, 22087, 5 * 4099, 7 * 1699]))


@settings(max_examples=60, deadline=None)
@given(n=_ENVELOPE_LENGTHS, rows=st.sampled_from([None, 1, 3, 8]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_analytic_envelope_matches_scipy_hilbert(n, rows, seed):
    """The fast-length circular convolution is scipy's length-n analytic
    signal up to rounding, for 1-D signals and for (k, n) matrices."""
    rng = np.random.default_rng(seed)
    shape = (n,) if rows is None else (rows, n)
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)
    want = analytic_envelope_oracle(x)
    got = dsp.analytic_envelope(x)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_analytic_envelope_of_empty_and_single_samples():
    assert dsp.analytic_envelope(np.zeros((2, 0))).shape == (2, 0)
    assert np.array_equal(dsp.analytic_envelope(np.array([-0.5])), [0.25])
    assert np.array_equal(dsp.analytic_envelope(np.array([[0.3], [2.0]])),
                          [[0.09], [4.0]])


def test_safe_log_floor():
    out = dsp.safe_log(np.array([0.0, 1e-30, 1.0]))
    assert out[0] == out[1] == pytest.approx(np.log(1e-10))
    assert out[2] == 0.0

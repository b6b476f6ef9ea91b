"""WAV quantization and the binary artefact format of features and models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spoofbench import gmm, ivector
from spoofbench.audio import (AudioSignal, load_arrays, read_features,
                              read_wav, save_arrays, to_pcm16,
                              write_features, write_wav)


@settings(max_examples=25, deadline=None)
@given(samples=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=64))
def test_to_pcm16_equals_a_wav_round_trip(tmp_path_factory, samples):
    signal = AudioSignal(np.array(samples), 16000)
    path = tmp_path_factory.mktemp("pcm") / "x.wav"
    write_wav(path, signal)
    stored = read_wav(path)
    got = to_pcm16(signal)
    assert got.sample_rate == stored.sample_rate
    assert got.samples.tobytes() == stored.samples.tobytes()


def test_save_arrays_layout(tmp_path):
    path = tmp_path / "a.bin"
    save_arrays(path, b"XYZ1", (2, 3), np.arange(2.0), np.ones((2, 2)))
    data = path.read_bytes()
    assert data[:4] == b"XYZ1"
    assert np.frombuffer(data[4:12], "<u4").tolist() == [2, 3]
    assert np.frombuffer(data[12:], "<f8").tolist() == [0, 1, 1, 1, 1, 1]
    dims, payload = load_arrays(path, b"XYZ1", 2, lambda a, b: a + a * a,
                                "test")
    assert dims == (2, 3)
    assert payload.tolist() == [0, 1, 1, 1, 1, 1]


def _ubm():
    rng = np.random.default_rng(0)
    return gmm.GmmModel(np.full(3, 1 / 3), rng.standard_normal((3, 2)),
                        rng.uniform(0.5, 1.5, (3, 2)))


def _plda():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3))
    return ivector.PldaModel(rng.standard_normal(3),
                             rng.standard_normal((3, 2)), a @ a.T + np.eye(3))


# (save, load, model, magic, dims) of every format built on save_arrays
FORMATS = {
    "features": (write_features, read_features, np.ones((4, 3)), b"SPBF1",
                 (4, 3)),
    "gmm": (gmm.save_gmm, gmm.load_gmm, _ubm(), b"SPGM1", (3, 2)),
    "tv": (lambda p, tv: ivector.save_tv(p, tv, 3), ivector.load_tv,
           ivector.TvMatrix(np.ones((6, 2)), np.zeros(6)), b"SPTV1",
           (3, 2, 2)),
    "wccn": (ivector.save_wccn, ivector.load_wccn, np.eye(3), b"SPWC1",
             (3,)),
    "plda": (ivector.save_plda, ivector.load_plda, _plda(), b"SPPL1",
             (3, 2)),
}


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_layout_round_trip_and_truncation(name, tmp_path):
    save, load, model, magic, dims = FORMATS[name]
    path = tmp_path / f"{name}.bin"
    save(path, model)
    data = path.read_bytes()
    header = len(magic) + 4 * len(dims)
    assert data[:len(magic)] == magic
    assert np.frombuffer(data[len(magic):header], "<u4").tolist() == \
        list(dims)
    again = tmp_path / f"{name}.again"
    save(again, load(path))
    assert again.read_bytes() == data
    for cut in (len(magic) + 1, header - 1, header, len(data) - 8,
                len(data) - 1):
        bad = tmp_path / f"{name}.cut{cut}"
        bad.write_bytes(data[:cut])
        with pytest.raises(ValueError, match="truncated") as err:
            load(bad)
        assert str(bad) in str(err.value)
    extended = tmp_path / f"{name}.long"
    extended.write_bytes(data + b"\0" * 8)
    with pytest.raises(ValueError) as err:
        load(extended)
    assert str(extended) in str(err.value)
    wrong = tmp_path / f"{name}.magic"
    wrong.write_bytes(b"NOPE!" + data[5:])
    with pytest.raises(ValueError, match="not a"):
        load(wrong)


def test_read_features_returns_a_writable_copy(tmp_path):
    path = tmp_path / "f.spbf"
    values = np.arange(12.0).reshape(4, 3)
    write_features(path, values)
    got = read_features(path)
    assert np.array_equal(got, values)
    got[0, 0] = -1.0
    assert np.array_equal(read_features(path), values)

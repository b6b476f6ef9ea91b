import hashlib

import numpy as np
import pytest

from spoofbench import features, toycorpus
from spoofbench.audio import AudioSignal, read_wav
from spoofbench.manifest import read_manifest
from spoofbench.toycorpus import (channel_vocoder, make_toy_corpus,
                                  synth_vowel)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    manifest = make_toy_corpus(root, seed=5, n_train=16, n_dev=8, n_eval=8)
    return root, manifest


class TestStructure:
    def test_subset_sizes_and_balance(self, corpus):
        _, man = corpus
        for subset, expected in (("train", 16), ("dev", 8), ("eval", 8)):
            rows = man.subset(subset).rows
            assert len(rows) == expected
            labels = [r.label for r in rows]
            assert labels.count("human") == expected // 2
            assert labels.count("spoof") == expected // 2

    def test_both_attacks_present(self, corpus):
        _, man = corpus
        attacks = {r.attack_id for r in man if r.label == "spoof"}
        assert attacks == set(toycorpus.ATTACK_BANDS)

    def test_all_wavs_exist_and_are_pcm16(self, corpus):
        root, man = corpus
        for path in man.resolve_paths(root):
            signal = read_wav(path)   # rejects anything but 16-bit mono
            assert signal.sample_rate == toycorpus.SAMPLE_RATE

    def test_manifest_written_alongside(self, corpus):
        root, man = corpus
        assert read_manifest(root / "manifest.tsv") == man

    def test_odd_subset_size_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            make_toy_corpus(tmp_path, n_train=7)


class TestDeterminism:
    def test_same_seed_same_bytes(self, corpus, tmp_path):
        root, man = corpus
        again = make_toy_corpus(tmp_path, seed=5, n_train=16, n_dev=8,
                                n_eval=8)
        assert again == man
        for row in man:
            a = (root / row.wav_path).read_bytes()
            b = (tmp_path / row.wav_path).read_bytes()
            assert hashlib.sha256(a).digest() == hashlib.sha256(b).digest()

    def test_different_seed_differs(self, corpus, tmp_path):
        root, man = corpus
        make_toy_corpus(tmp_path, seed=6, n_train=16, n_dev=8, n_eval=8)
        row = man.rows[0]
        assert ((root / row.wav_path).read_bytes()
                != (tmp_path / row.wav_path).read_bytes())

    def test_speaker_pools_disjoint_across_subsets(self):
        pools = {s: toycorpus._subset_speakers(5, s)
                 for s in ("train", "dev", "eval")}
        f0s = {s: sorted(round(sp["f0"], 6) for sp in pools[s])
               for s in pools}
        assert f0s["train"] != f0s["dev"]
        assert f0s["dev"] != f0s["eval"]


class TestSignals:
    def test_vowel_shape(self):
        rng = np.random.default_rng(0)
        speaker = toycorpus._speaker_profile(rng)
        x = synth_vowel(rng, speaker)
        assert 1.2 <= len(x) / toycorpus.SAMPLE_RATE <= 1.7
        assert np.max(np.abs(x)) < 0.4

    def test_vowel_f0_in_band(self, corpus):
        root, man = corpus
        humans = [r for r in man if r.label == "human"][:3]
        cfg = features.FeatureConfig("rps")
        for row in humans:
            track = features.estimate_f0(read_wav(root / row.wav_path), cfg)
            voiced = track.f0[track.voiced]
            assert len(voiced) > 0
            med = float(np.median(voiced))
            assert 100.0 <= med <= 290.0

    def test_vocoder_preserves_length_and_level(self):
        rng = np.random.default_rng(1)
        speaker = toycorpus._speaker_profile(rng)
        x = AudioSignal(synth_vowel(rng, speaker), toycorpus.SAMPLE_RATE)
        y = channel_vocoder(x, 16)
        assert len(y) == len(x)
        rms_x = np.sqrt(np.mean(x.samples ** 2))
        rms_y = np.sqrt(np.mean(y.samples ** 2))
        assert abs(rms_y / rms_x - 1.0) < 0.05
        assert np.max(np.abs(y.samples)) <= 1.0

    def test_vocoder_changes_the_waveform(self):
        rng = np.random.default_rng(2)
        speaker = toycorpus._speaker_profile(rng)
        x = AudioSignal(synth_vowel(rng, speaker), toycorpus.SAMPLE_RATE)
        y = channel_vocoder(x, 16)
        # wildly different waveforms despite similar levels
        corr = np.corrcoef(x.samples, y.samples)[0, 1]
        assert abs(corr) < 0.5

"""Tests for the diagonal-GMM back-end."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from reference import component_log_likelihoods_oracle
from spoofbench.gmm import (GmmModel, _logsumexp_rows, kmeans_pp_centers,
                            llr_scores, load_gmm, save_gmm, train_gmm)


def naive_avg_loglik(frames, weights, means, variances):
    """Straight-line mixture density, no vectorization or log tricks."""
    total = 0.0
    for x in frames:
        p = 0.0
        for c in range(len(weights)):
            dens = weights[c]
            for d in range(len(x)):
                v = variances[c][d]
                dens *= math.exp(-(x[d] - means[c][d]) ** 2 / (2.0 * v)) \
                    / math.sqrt(2.0 * math.pi * v)
            p += dens
        total += math.log(p)
    return total / len(frames)


def _avg_log_likelihood(model, frames):
    """Average per-frame log-density of frames under model, as the LLR
    scorer computes it for one side."""
    return _logsumexp_rows(model.stacked_log_likelihoods([frames])).mean()


def _random_model(rng, c=3, d=4):
    w = rng.random(c) + 0.2
    w /= w.sum()
    return GmmModel(w, rng.standard_normal((c, d)), rng.random((c, d)) + 0.5)


class TestLikelihood:
    def test_matches_naive_mixture_density(self):
        rng = np.random.default_rng(0)
        model = _random_model(rng)
        other = _random_model(rng)
        frames = rng.standard_normal((25, 4))
        own = naive_avg_loglik(frames, model.weights, model.means,
                               model.variances)
        expected = own - naive_avg_loglik(frames, other.weights, other.means,
                                          other.variances)
        assert abs(_avg_log_likelihood(model, frames) - own) < 1e-10
        assert abs(llr_scores([frames], model, other)[0] - expected) < 1e-10

    def test_single_gaussian_closed_form(self):
        model = GmmModel(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
        shifted = GmmModel(np.array([1.0]), np.ones((1, 2)), np.ones((1, 2)))
        x = np.array([[0.0, 0.0]])
        # log N(0; 0, I) = -log(2 pi) in two dimensions
        assert abs(_avg_log_likelihood(model, x)
                   - (-math.log(2 * math.pi))) < 1e-12
        # log N(0; 0, I) - log N(0; 1, I) = |1|^2 / 2
        assert abs(llr_scores([x], model, shifted)[0] - 1.0) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), c=st.integers(1, 12),
           d=st.integers(1, 20), t=st.integers(1, 60))
    def test_cached_terms_match_per_call_oracle(self, seed, c, d, t):
        """Per-model terms built once give exactly the log-likelihoods of
        rebuilding them on every call, on repeated calls too."""
        rng = np.random.default_rng(seed)
        model = _random_model(rng, c=c, d=d)
        for _ in range(2):
            frames = rng.standard_normal((t, d)) * 3.0
            assert np.array_equal(model.component_log_likelihoods(frames),
                                  component_log_likelihoods_oracle(model,
                                                                   frames))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), c=st.integers(1, 40),
           d=st.integers(1, 40),
           lengths=st.lists(st.one_of(st.just(1), st.integers(1, 300)),
                            min_size=1, max_size=8))
    def test_stacked_terms_have_each_utterances_bits(self, seed, c, d,
                                                     lengths):
        """Stacking utterances leaves every row's bits as scoring its
        utterance alone gives them, one-frame utterances included."""
        rng = np.random.default_rng(seed)
        model = _random_model(rng, c=c, d=d)
        utts = [rng.standard_normal((t, d)) * 3.0 for t in lengths]
        assert np.array_equal(
            model.stacked_log_likelihoods(utts),
            np.concatenate([model.component_log_likelihoods(u)
                            for u in utts]))

    def test_no_frames_raises(self):
        model = _random_model(np.random.default_rng(3))
        with pytest.raises(ValueError, match="no frames to score"):
            llr_scores([np.empty((0, 4))], model, model)
        with pytest.raises(ValueError, match="no frames to score"):
            llr_scores([np.zeros((3, 4)), np.empty((0, 4))], model, model)

    def test_model_is_frozen(self):
        model = _random_model(np.random.default_rng(2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.variances = model.variances * 2.0

    def test_dim_mismatch_raises(self):
        model = _random_model(np.random.default_rng(1))
        with pytest.raises(ValueError):
            model.component_log_likelihoods(np.zeros((5, 7)))
        with pytest.raises(ValueError):
            llr_scores([np.zeros((5, 7))], model, model)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            GmmModel(np.array([0.7, 0.7]), np.zeros((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            GmmModel(np.array([0.5, 0.5]), np.zeros((2, 2)),
                     np.array([[1.0, -1.0], [1.0, 1.0]]))


class TestLogSumExp:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), t=st.integers(0, 300),
           c=st.integers(1, 64), scale=st.sampled_from([1e-3, 1.0, 30.0, 1e3]),
           n_ties=st.integers(0, 5), n_neg_inf=st.integers(0, 5),
           n_neg_inf_rows=st.integers(0, 3), n_pos_inf=st.integers(0, 2))
    def test_same_bits_as_scipy(self, seed, t, c, scale, n_ties, n_neg_inf,
                                n_neg_inf_rows, n_pos_inf):
        """The row-wise log-sum-exp is bit-identical to scipy's, ties at the
        row maximum and infinite entries included."""
        rng = np.random.default_rng(seed)
        a = rng.uniform(-scale, scale, (t, c))
        if t:
            for _ in range(n_ties):
                row = rng.integers(t)
                a[row, rng.integers(c)] = a[row].max()
            for _ in range(n_neg_inf):
                a[rng.integers(t), rng.integers(c)] = -np.inf
            for _ in range(n_neg_inf_rows):
                a[rng.integers(t)] = -np.inf
            for _ in range(n_pos_inf):
                a[rng.integers(t), rng.integers(c)] = np.inf
        got = _logsumexp_rows(a)
        want = scipy.special.logsumexp(a, axis=1)
        assert got.shape == want.shape == (t,)
        assert got.tobytes() == want.tobytes()


class TestTraining:
    def test_loglik_never_decreases(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            d = int(rng.integers(2, 6))
            c = int(rng.integers(1, 5))
            frames = np.concatenate([
                rng.standard_normal((60, d)) + rng.uniform(-3, 3, d)
                for _ in range(3)])
            _, history = train_gmm(frames, c, n_iterations=8, seed=trial)
            diffs = np.diff(history)
            assert np.all(diffs >= -1e-9 * np.abs(np.array(history[:-1])))

    def test_recovers_two_separated_clusters(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((300, 3)) + 50.0
        b = rng.standard_normal((700, 3)) - 50.0
        frames = np.concatenate([a, b])
        model, _ = train_gmm(frames, 2, n_iterations=15, seed=4)
        order = np.argsort(model.means[:, 0])   # b first, then a
        assert abs(model.weights[order[0]] - 0.7) < 1e-9
        assert abs(model.weights[order[1]] - 0.3) < 1e-9
        assert np.allclose(model.means[order[0]], b.mean(axis=0), atol=1e-6)
        assert np.allclose(model.means[order[1]], a.mean(axis=0), atol=1e-6)

    def test_variance_floor_handles_constant_dimension(self):
        rng = np.random.default_rng(5)
        frames = rng.standard_normal((200, 3))
        frames[:, 1] = 4.0   # zero variance dimension
        model, history = train_gmm(frames, 2, n_iterations=5, seed=6)
        assert np.all(model.variances > 0)
        assert np.all(np.isfinite(history))

    def test_more_components_than_points_survives(self):
        frames = np.random.default_rng(7).standard_normal((4, 2))
        model, _ = train_gmm(frames, 8, n_iterations=3, seed=8)
        assert np.all(np.isfinite(model.means))
        assert np.all(model.variances > 0)

    def test_deterministic_under_seed(self):
        frames = np.random.default_rng(9).standard_normal((300, 4))
        m1, h1 = train_gmm(frames, 4, seed=10)
        m2, h2 = train_gmm(frames, 4, seed=10)
        assert np.array_equal(m1.means, m2.means)
        assert h1 == h2

    def test_chunked_estep_matches_unchunked(self):
        frames = np.random.default_rng(11).standard_normal((257, 3))
        m1, h1 = train_gmm(frames, 3, seed=12, chunk_size=10)
        m2, h2 = train_gmm(frames, 3, seed=12, chunk_size=10_000)
        assert np.allclose(m1.means, m2.means, atol=1e-10)
        assert np.allclose(h1, h2, atol=1e-10)

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            train_gmm(np.empty((0, 4)), 2)

    def test_kmeans_pp_spreads_centers(self):
        rng = np.random.default_rng(13)
        pts = np.concatenate([rng.standard_normal((50, 2)) + 30.0,
                              rng.standard_normal((50, 2)) - 30.0])
        centers = kmeans_pp_centers(pts, 2, np.random.default_rng(14))
        assert np.abs(centers[:, 0] - centers[::-1, 0]).max() > 30.0


class TestScoring:
    def test_llr_sign_reflects_source(self):
        rng = np.random.default_rng(15)
        nat = GmmModel(np.array([1.0]), np.full((1, 2), 2.0), np.ones((1, 2)))
        syn = GmmModel(np.array([1.0]), np.full((1, 2), -2.0), np.ones((1, 2)))
        from_nat = rng.standard_normal((100, 2)) + 2.0
        from_syn = rng.standard_normal((100, 2)) - 2.0
        on_nat, on_syn = llr_scores([from_nat, from_syn], nat, syn)
        assert on_nat > 0 > on_syn


class TestSerialization:
    def test_roundtrip_is_exact(self, tmp_path):
        model = _random_model(np.random.default_rng(16), c=5, d=7)
        path = tmp_path / "model.gmm"
        save_gmm(path, model)
        back = load_gmm(path)
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.means, model.means)
        assert np.array_equal(back.variances, model.variances)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.gmm"
        path.write_bytes(b"NOPE!" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_gmm(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = _random_model(np.random.default_rng(17))
        path = tmp_path / "model.gmm"
        save_gmm(path, model)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 16])
        with pytest.raises(ValueError):
            load_gmm(path)

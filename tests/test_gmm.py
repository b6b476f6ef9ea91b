"""Tests for the diagonal-GMM back-end."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from reference import component_log_likelihoods_oracle, llr_score_oracle
from spoofbench import gmm
from spoofbench.gmm import (GmmModel, _exp, _logsumexp_rows,
                            kmeans_pp_centers, llr_scores, load_gmm,
                            save_gmm, train_gmm)


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


# nats by which each component of far_components_case's model lies below
# the first at the origin: np.exp of minus these is 1, normal, tiny,
# subnormal and zero, the last either side of the underflow edge
_FAR_GAPS = (0.0, 3.0, 701.0, 705.0, 712.0, 720.0, 731.0, 740.0, 744.0,
             745.0, 745.5, 760.0, 900.0)


def far_components_case(seed):
    """A unit-variance GMM and utterances of frames near the origin, where
    its components lie 0 to 900 nats below the best one; a one-frame
    utterance at the origin gets responsibilities that are subnormal or
    zero."""
    rng = np.random.default_rng(seed)
    c, d = len(_FAR_GAPS), 3
    means = np.zeros((c, d))
    means[:, 0] = np.sqrt(2.0 * np.asarray(_FAR_GAPS))
    means[:, 1:] = rng.uniform(-0.01, 0.01, (c, d - 1))
    model = GmmModel(np.full(c, 1.0 / c), means, np.ones((c, d)))
    utts = [np.zeros((1, d))] + [rng.uniform(-0.3, 0.3, (t, d))
                                 for t in (1, 7, 60)]
    return model, utts


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
            assert np.array_equal(model.stacked_log_likelihoods([frames]),
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
            np.concatenate([component_log_likelihoods_oracle(model, u)
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
            llr_scores([np.zeros((5, 7))], model, model)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            GmmModel(np.array([0.7, 0.7]), np.zeros((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            GmmModel(np.array([0.5, 0.5]), np.zeros((2, 2)),
                     np.array([[1.0, -1.0], [1.0, 1.0]]))


# the largest argument whose np.exp is 0.0: exp underflows below
# log(2 ** -1075) = -745.13321910194122...
_UNDERFLOW = -745.1332191019412
_EDGES = [_UNDERFLOW, np.nextafter(_UNDERFLOW, np.inf),
          np.nextafter(_UNDERFLOW, -np.inf), -746.0, -745.0, -708.4,
          -708.3964185322641, -700.0, np.nextafter(-700.0, -np.inf),
          np.nextafter(-700.0, np.inf), 709.79, np.inf, -np.inf, np.nan,
          -0.0, 0.0]


class TestExp:
    @settings(max_examples=300, deadline=None)
    @given(a=hnp.arrays(np.float64,
                        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                         max_side=40),
                        elements=st.one_of(st.floats(-750.0, -695.0),
                                           st.sampled_from(_EDGES),
                                           st.floats(width=64))),
           in_place=st.booleans())
    def test_same_bytes_as_numpy(self, a, in_place):
        """_exp gives np.exp's bytes: results that are subnormal, tiny or
        zero, the underflow edge, infinities, NaNs and -0.0 included, in
        place too."""
        with np.errstate(all="ignore"):
            want = np.exp(a)
            got = _exp(a, out=a) if in_place else _exp(a)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        if in_place:
            assert got is a


class TestLogSumExp:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), t=st.integers(0, 300),
           c=st.integers(1, 64), scale=st.sampled_from([1e-3, 1.0, 30.0, 1e3]),
           n_ties=st.integers(0, 5), n_neg_inf=st.integers(0, 5),
           n_neg_inf_rows=st.integers(0, 3), n_pos_inf=st.integers(0, 2),
           n_far=st.integers(0, 40), n_far_rows=st.integers(0, 3))
    def test_same_bits_as_scipy(self, seed, t, c, scale, n_ties, n_neg_inf,
                                n_neg_inf_rows, n_pos_inf, n_far, n_far_rows):
        """The row-wise log-sum-exp is bit-identical to scipy's, ties at the
        row maximum, infinite entries and entries 700-750 below the row
        maximum (whose exp is tiny, subnormal or zero) included."""
        rng = np.random.default_rng(seed)
        a = rng.uniform(-scale, scale, (t, c))
        if t:
            for _ in range(n_far):
                row = rng.integers(t)
                a[row, rng.integers(c)] = a[row].max() - rng.uniform(700, 750)
            for _ in range(n_far_rows):
                # every entry but the maximum far below it; at a maximum
                # of 0.0 the sum of their exps is the result
                row = rng.integers(t)
                top = 0.0 if rng.random() < 0.5 else a[row].max()
                a[row] = top - rng.uniform(700, 750, c)
                a[row, rng.integers(c)] = top
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

    def test_chunked_estep_matches_unchunked(self, monkeypatch):
        frames = np.random.default_rng(11).standard_normal((257, 3))
        monkeypatch.setattr(gmm, "_EM_CHUNK_FRAMES", 10)
        m1, h1 = train_gmm(frames, 3, seed=12)
        monkeypatch.setattr(gmm, "_EM_CHUNK_FRAMES", 10_000)
        m2, h2 = train_gmm(frames, 3, seed=12)
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
    def test_far_components_keep_the_oracle_bits(self):
        """Frames for which some components lie more than 745 nats below
        the best one (their exp is zero) and some 700-745 below (subnormal
        or tiny) score as the plain np.exp oracle scores them."""
        natural, utts = far_components_case(16)
        synthetic, _ = far_components_case(17)
        want = [llr_score_oracle(u, natural, synthetic) for u in utts]
        assert llr_scores(utts, natural, synthetic).tolist() == want

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

"""Tests for the i-vector back-end."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import (cosine_score_oracle, detection_score_oracle,
                       ivector_from_stats_oracle, plda_llr_oracle)
from spoofbench.errors import DegenerateVectorError
from spoofbench.gmm import GmmModel
from spoofbench import ivector as iv


def _toy_ubm(rng, c=4, d=3, spread=3.0):
    w = rng.random(c) + 0.5
    w /= w.sum()
    means = rng.uniform(-spread, spread, (c, d))
    variances = rng.uniform(0.5, 1.5, (c, d))
    return GmmModel(w, means, variances)


def _sample_utterance(rng, ubm, offsets, n_frames):
    """Frames from the UBM with per-component mean offsets applied."""
    comps = rng.choice(ubm.n_components, size=n_frames, p=ubm.weights)
    noise = rng.standard_normal((n_frames, ubm.dim))
    return (ubm.means[comps] + offsets[comps]
            + noise * np.sqrt(ubm.variances[comps]))


def naive_stats(frames, ubm):
    """Baum-Welch statistics from scalar loops over the mixture density."""
    c, d = ubm.means.shape
    n = np.zeros(c)
    f = np.zeros((c, d))
    for x in frames:
        dens = np.zeros(c)
        for k in range(c):
            p = ubm.weights[k]
            for j in range(d):
                v = ubm.variances[k, j]
                p *= math.exp(-(x[j] - ubm.means[k, j]) ** 2 / (2 * v)) \
                    / math.sqrt(2 * math.pi * v)
            dens[k] = p
        dens /= dens.sum()
        n += dens
        f += dens[:, None] * x[None, :]
    return n, f


class TestStats:
    def test_zeroth_order_sums_to_frame_count(self):
        rng = np.random.default_rng(0)
        ubm = _toy_ubm(rng)
        for t in (1, 17, 400):
            frames = rng.standard_normal((t, ubm.dim))
            n, f = iv.baum_welch_stats(frames, ubm)
            assert abs(n.sum() - t) < 1e-9
            assert np.allclose(f.sum(axis=0), frames.sum(axis=0), atol=1e-9)

    def test_single_component_stats_are_exact(self):
        rng = np.random.default_rng(30)
        ubm = GmmModel(np.array([1.0]), np.zeros((1, 3)), np.ones((1, 3)))
        frames = rng.standard_normal((40, 3))
        n, f = iv.baum_welch_stats(frames, ubm)
        assert abs(n[0] - 40) < 1e-12
        assert np.allclose(f[0], frames.sum(axis=0), atol=1e-12)

    def test_matches_naive_posteriors(self):
        rng = np.random.default_rng(1)
        ubm = _toy_ubm(rng, c=2, d=2)
        frames = rng.standard_normal((10, 2))
        n, f = iv.baum_welch_stats(frames, ubm)
        n_ref, f_ref = naive_stats(frames, ubm)
        assert np.allclose(n, n_ref, atol=1e-10)
        assert np.allclose(f, f_ref, atol=1e-10)

    def test_centering_removes_ubm_means(self):
        rng = np.random.default_rng(2)
        ubm = _toy_ubm(rng)
        n = rng.random(ubm.n_components) * 10
        f = n[:, None] * ubm.means
        assert np.allclose(iv.centered_stats(n, f, ubm), 0.0, atol=1e-12)


class TestTotalVariability:
    def _planted(self, rng, n_utts=80, frames_per=200, rank=2,
                 tv_scale=0.5, spread=6.0):
        ubm = _toy_ubm(rng, spread=spread)
        size = ubm.n_components * ubm.dim
        tv_true = tv_scale * rng.standard_normal((size, rank))
        latents = rng.standard_normal((n_utts, rank))
        stats = []
        for w in latents:
            offsets = (tv_true @ w).reshape(ubm.n_components, ubm.dim)
            frames = _sample_utterance(rng, ubm, offsets, frames_per)
            stats.append(iv.baum_welch_stats(frames, ubm))
        return ubm, tv_true, latents, stats

    def test_objective_nondecreasing(self):
        rng = np.random.default_rng(3)
        ubm, _, _, stats = self._planted(rng, n_utts=30, frames_per=100)
        _, history = iv.train_tv(stats, ubm, rank=2, n_iterations=8, seed=4)
        assert np.all(np.diff(history) >= -1e-6 * np.abs(history[0]))

    def test_recovers_planted_subspace(self):
        rng = np.random.default_rng(5)
        ubm, tv_true, latents, stats = self._planted(rng)
        tv_est, _ = iv.train_tv(stats, ubm, rank=2, n_iterations=15, seed=6)
        # projector onto the estimated column span
        q, _ = np.linalg.qr(tv_est.matrix)
        ratios = []
        for w in latents:
            target = tv_true @ w
            ratios.append(np.sum((q.T @ target) ** 2) / np.sum(target ** 2))
        assert np.mean(ratios) >= 0.95

    def test_extraction_recovers_planted_latents(self):
        rng = np.random.default_rng(7)
        ubm = _toy_ubm(rng, spread=6.0)
        size = ubm.n_components * ubm.dim
        tv = iv.TvMatrix(0.5 * rng.standard_normal((size, 2)),
                         ubm.means.ravel())
        gram = iv.gram_blocks(tv.matrix, ubm)
        planted = rng.standard_normal((10, 2))
        utts = [_sample_utterance(
            rng, ubm, (tv.matrix @ w).reshape(ubm.n_components, ubm.dim),
            3000) for w in planted]
        recovered = iv.ivectors_from_stats(*iv.batch_stats(utts, ubm), ubm,
                                           tv, gram)
        planted, recovered = planted.ravel(), recovered.ravel()
        corr = np.corrcoef(planted, recovered)[0, 1]
        assert corr > 0.9

    def test_zero_stats_give_zero_ivector(self):
        rng = np.random.default_rng(8)
        ubm = _toy_ubm(rng)
        tv = iv.TvMatrix(rng.standard_normal((ubm.n_components * ubm.dim, 3)),
                         ubm.means.ravel())
        w = iv.ivectors_from_stats(np.zeros((1, ubm.n_components)),
                                   np.zeros((1, *ubm.means.shape)), ubm, tv,
                                   iv.gram_blocks(tv.matrix, ubm))
        assert np.allclose(w, 0.0, atol=1e-12)

    def test_extraction_linear_in_centered_stats(self):
        rng = np.random.default_rng(28)
        ubm = _toy_ubm(rng)
        c, d = ubm.means.shape
        tv = iv.TvMatrix(rng.standard_normal((c * d, 3)), ubm.means.ravel())
        n = rng.random(c) * 20 + 1
        base = n[:, None] * ubm.means
        d1 = rng.standard_normal((c, d))
        d2 = rng.standard_normal((c, d))
        gram = iv.gram_blocks(tv.matrix, ubm)
        w1, w2, combo = iv.ivectors_from_stats(
            np.stack([n] * 3), np.stack([base + d1, base + d2,
                                         base + 2.0 * d1 - 0.5 * d2]),
            ubm, tv, gram)
        assert np.allclose(combo, 2.0 * w1 - 0.5 * w2, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), c=st.integers(1, 6),
           d=st.integers(2, 5), rank=st.integers(1, 8),
           n_utts=st.integers(1, 4))
    def test_shared_gram_blocks_match_per_call_oracle(self, seed, c, d, rank,
                                                      n_utts):
        """One Gram computation per model and one batched solve give the
        i-vectors of rebuilding the Gram blocks and inverting the precision
        for every utterance, to 1e-12 of the largest |value|."""
        rng = np.random.default_rng(seed)
        ubm = _toy_ubm(rng, c=c, d=d)
        rank = min(rank, c * d - 1)
        tv = iv.TvMatrix(rng.standard_normal((c * d, rank)),
                         ubm.means.ravel())
        stats = [(rng.random(c) * rng.choice([0.0, 1.0, 50.0]),
                  rng.standard_normal((c, d)) * 10.0) for _ in range(n_utts)]
        want = np.array([ivector_from_stats_oracle(n, f, ubm, tv)
                         for n, f in stats])
        n, f = (np.array(x) for x in zip(*stats))
        got = iv.ivectors_from_stats(n, f, ubm, tv, iv.gram_blocks(tv.matrix,
                                                                   ubm))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_solves_in_slices_of_bounded_bytes(self, monkeypatch):
        """Utterances are solved a bounded slice at a time, so memory does
        not grow with their number; statistics given as sequences of rows
        give the bytes of stacked arrays, and sliced i-vectors stay within
        1e-12 of the largest |value| of the per-utterance oracle."""
        rng = np.random.default_rng(31)
        ubm = _toy_ubm(rng, c=4, d=3)
        tv = iv.TvMatrix(rng.standard_normal((12, 5)), ubm.means.ravel())
        gram = iv.gram_blocks(tv.matrix, ubm)
        stats = [(rng.random(4) * 50.0, rng.standard_normal((4, 3)) * 10.0)
                 for _ in range(7)]
        n, f = zip(*stats)
        assert np.array_equal(
            iv.ivectors_from_stats(n, f, ubm, tv, gram),
            iv.ivectors_from_stats(np.array(n), np.array(f), ubm, tv, gram))
        batches, solve = [], np.linalg.solve

        def recording(a, b):
            batches.append(len(a))
            return solve(a, b)
        monkeypatch.setattr(iv.np.linalg, "solve", recording)
        monkeypatch.setattr(iv, "_SOLVE_BYTES", 3 * 8 * 5 * 5)
        got = iv.ivectors_from_stats(n, f, ubm, tv, gram)
        assert batches == [3, 3, 1]
        want = np.array([ivector_from_stats_oracle(a, b, ubm, tv)
                         for a, b in stats])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_invalid_rank_raises(self):
        rng = np.random.default_rng(9)
        ubm = _toy_ubm(rng)
        size = ubm.n_components * ubm.dim
        with pytest.raises(ValueError):
            iv.train_tv([(np.ones(4), np.zeros((4, 3)))], ubm, rank=0)
        with pytest.raises(ValueError):
            iv.train_tv([(np.ones(4), np.zeros((4, 3)))], ubm, rank=size)

    def test_training_deterministic(self):
        rng = np.random.default_rng(10)
        ubm, _, _, stats = self._planted(rng, n_utts=20, frames_per=80)
        tv1, h1 = iv.train_tv(stats, ubm, rank=2, n_iterations=4, seed=11)
        tv2, h2 = iv.train_tv(stats, ubm, rank=2, n_iterations=4, seed=11)
        assert np.array_equal(tv1.matrix, tv2.matrix)
        assert h1 == h2


class TestCompensation:
    def test_wccn_whitens_within_class_covariance(self):
        rng = np.random.default_rng(12)
        rank = 6
        chol = rng.standard_normal((rank, rank)) * 0.5 + np.eye(rank)
        vectors, labels = [], []
        for lab, center in (("a", 3.0), ("b", -1.0), ("c", 0.5)):
            group = rng.standard_normal((200, rank)) @ chol.T + center
            vectors.append(group)
            labels += [lab] * 200
        vectors = np.concatenate(vectors)
        b = iv.train_wccn(vectors, labels)
        transformed = iv.apply_wccn(b, vectors)
        labels = np.asarray(labels)
        w = np.zeros((rank, rank))
        for lab in ("a", "b", "c"):
            g = transformed[labels == lab]
            diff = g - g.mean(axis=0)
            w += diff.T @ diff
        w /= len(vectors)
        assert np.abs(w - np.eye(rank)).max() < 1e-6

    def test_wccn_closed_form_for_isotropic_within_class(self):
        # within-class covariance exactly 4*I -> B = I/2
        rank = 3
        a = 2.0 * math.sqrt(3.0)   # 6 vectors +-a*e_i have covariance 4*I
        block = np.concatenate([a * np.eye(rank), -a * np.eye(rank)])
        vectors = np.concatenate([block + 5.0, block - 5.0])
        labels = ["x"] * 6 + ["y"] * 6
        b = iv.train_wccn(vectors, labels)
        assert np.abs(b - 0.5 * np.eye(rank)).max() < 1e-9
        assert np.allclose(b, np.tril(b))
        assert np.all(np.diag(b) > 0)

    def test_wccn_already_white_classes_give_near_identity(self):
        rng = np.random.default_rng(29)
        vectors = np.concatenate([rng.standard_normal((400, 4)) + 2.0,
                                  rng.standard_normal((400, 4)) - 2.0])
        labels = ["n"] * 400 + ["s"] * 400
        b = iv.train_wccn(vectors, labels)
        assert np.abs(b - np.eye(4)).max() < 0.2

    def test_wccn_survives_singular_covariance(self):
        vectors = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0],
                            [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        labels = ["a", "a", "a", "b", "b", "b"]
        b = iv.train_wccn(vectors, labels)   # second dim has zero variance
        assert np.all(np.isfinite(b))

    def test_wccn_validates_grouping(self):
        with pytest.raises(ValueError):
            iv.train_wccn(np.zeros((5, 3)), ["a"] * 4)
        with pytest.raises(ValueError):
            iv.train_wccn(np.random.default_rng(0).standard_normal((4, 2)),
                          ["a", "a", "a", "b"])

    def test_length_normalize(self):
        w = iv.length_normalize(np.array([3.0, 4.0]))
        assert np.allclose(w, [0.6, 0.8], atol=1e-15)
        batch = iv.length_normalize(np.array([[3.0, 4.0], [0.0, 2.0]]))
        assert np.allclose(np.linalg.norm(batch, axis=1), 1.0, atol=1e-15)
        again = iv.length_normalize(w)
        assert np.allclose(again, w, atol=1e-15)
        with pytest.raises(DegenerateVectorError):
            iv.length_normalize(np.zeros(4))


class TestScoring:
    def test_cosine_exact_values(self):
        assert iv.cosine_scores([[1.0, 0.0]], [0.0, 1.0])[0] == 0.0
        got = iv.cosine_scores([[1.0, 1.0], [1.0, 0.0]], [2.0, 2.0])
        assert abs(got[0] - 1.0) < 1e-15
        assert abs(iv.cosine_scores([[1.0, 0.0]], [-1.0, 0.0])[0]
                   + 1.0) < 1e-15
        rng = np.random.default_rng(13)
        a, b = rng.standard_normal((5, 8)), rng.standard_normal(8)
        want = [cosine_score_oracle(row, b) for row in a]
        assert np.abs(iv.cosine_scores(a, b) - want).max() < 1e-12

    def test_cosine_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            a, b = rng.standard_normal(6), rng.standard_normal(6)
            s, t = rng.random() * 5 + 0.1, rng.random() * 5 + 0.1
            ab = iv.cosine_scores(a, b)[0]
            assert abs(ab - iv.cosine_scores(b, a)[0]) < 1e-12
            assert abs(iv.cosine_scores(s * a, t * b)[0] - ab) < 1e-12

    def test_cosine_zero_vector_raises(self):
        with pytest.raises(DegenerateVectorError):
            iv.cosine_scores([[0.0, 0.0]], [1.0, 0.0])
        with pytest.raises(DegenerateVectorError):
            iv.cosine_scores([[1.0, 0.0]], [0.0, 0.0])

    def test_class_means_are_unit_norm(self):
        rng = np.random.default_rng(14)
        vecs = np.concatenate([rng.standard_normal((20, 5)) + 4.0,
                               rng.standard_normal((20, 5)) - 4.0])
        labels = ["human"] * 20 + ["spoof"] * 20
        means = iv.class_mean_ivectors(vecs, labels)
        assert set(means) == {"human", "spoof"}
        for m in means.values():
            assert abs(np.linalg.norm(m) - 1.0) < 1e-12

    def test_detection_score_orders_by_proximity(self):
        rng = np.random.default_rng(15)
        mean_nat = iv.length_normalize(np.ones(4))
        mean_syn = iv.length_normalize(-np.ones(4))
        near_nat = np.ones(4) + 0.1 * rng.standard_normal(4)
        near_syn = -np.ones(4) + 0.1 * rng.standard_normal(4)
        on_nat, on_syn = iv.detection_scores([near_nat, near_syn], mean_nat,
                                             mean_syn)
        assert on_nat > 0 > on_syn

    def test_detection_score_antisymmetric_in_class_means(self):
        rng = np.random.default_rng(31)
        w = rng.standard_normal((3, 5))
        a = rng.standard_normal(5)
        b = rng.standard_normal(5)
        assert np.abs(iv.detection_scores(w, a, b)
                      + iv.detection_scores(w, b, a)).max() < 1e-12
        want = [detection_score_oracle(row, a, b) for row in w]
        assert np.abs(iv.detection_scores(w, a, b) - want).max() < 1e-12

    def test_equal_class_means_score_zero(self):
        m = np.array([1.0, 2.0, 3.0])
        assert iv.detection_scores(np.array([0.5, -1.0, 2.0]), m, m)[0] == 0.0


class TestPlda:
    def _two_class_data(self, rng, n_per=150, r=8, sep=3.0):
        centers = {"a": np.zeros(r), "b": np.zeros(r)}
        centers["a"][0] = sep
        centers["b"][0] = -sep
        vecs, labels = [], []
        for lab, c in centers.items():
            vecs.append(rng.standard_normal((n_per, r)) + c)
            labels += [lab] * n_per
        return np.concatenate(vecs), np.asarray(labels), centers

    def test_separates_same_from_different_pairs(self):
        rng = np.random.default_rng(16)
        vecs, labels, centers = self._two_class_data(rng)
        model = iv.train_plda(vecs, labels, latent_rank=4, n_iterations=12,
                              seed=17)
        a = rng.standard_normal((60, 8)) + centers["a"]
        a2 = rng.standard_normal((60, 8)) + centers["a"]
        b = rng.standard_normal((60, 8)) + centers["b"]
        same, diff = iv.plda_llrs(model, a, a2), iv.plda_llrs(model, a, b)
        auc = np.mean(same[:, None] > diff[None, :])
        assert auc > 0.95

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), r=st.integers(1, 10),
           q=st.integers(1, 10), n_pairs=st.integers(1, 4))
    def test_cached_pair_covariances_match_per_call_oracle(self, seed, r, q,
                                                           n_pairs):
        """Every call on one model, the first (which builds the cached
        inverse covariances) and the later ones, gives the LLRs of
        rebuilding both covariances and solving with them per pair, to
        1e-12 x max(1, largest |LLR|): an LLR is the difference of two
        log-densities, whose rounding it keeps however small it is."""
        rng = np.random.default_rng(seed)
        q = min(q, r)
        root = rng.standard_normal((r, r))
        model = iv.PldaModel(rng.standard_normal(r),
                             rng.standard_normal((r, q)),
                             root @ root.T + 0.1 * np.eye(r))
        for _ in range(2):
            w1, w2 = rng.standard_normal((2, n_pairs, r))
            # row pairs, and one vector paired with every row of the other
            for a, got in ((w1, iv.plda_llrs(model, w1, w2)),
                           ([w1[0]] * n_pairs, iv.plda_llrs(model, w1[0],
                                                            w2))):
                want = np.array([plda_llr_oracle(model, x, y)
                                 for x, y in zip(a, w2)])
                assert np.abs(got - want).max() <= (
                    1e-12 * max(1.0, np.abs(want).max()))

    def test_recovers_planted_covariance_eigenspectra(self):
        rng = np.random.default_rng(32)
        r, q, n_classes, per_class = 5, 2, 12, 400
        factors_true = np.zeros((r, q))
        factors_true[0, 0] = 3.0
        factors_true[1, 1] = 1.5
        sigma_true = np.diag([1.0, 0.8, 0.6, 0.5, 0.4])
        # exactly whitened latents so the planted between-class scatter is
        # F F^T itself, not a noisy 12-sample estimate of it
        latents = rng.standard_normal((n_classes, q))
        latents -= latents.mean(axis=0)
        chol = np.linalg.cholesky(latents.T @ latents / n_classes)
        latents = latents @ np.linalg.inv(chol).T
        vecs, labels = [], []
        for c in range(n_classes):
            eps = rng.standard_normal((per_class, r)) * np.sqrt(np.diag(sigma_true))
            vecs.append(factors_true @ latents[c] + eps)
            labels += [c] * per_class
        vecs = np.concatenate(vecs)
        model = iv.train_plda(vecs, labels, latent_rank=q, n_iterations=25,
                              seed=33)
        est_between = np.sort(np.linalg.eigvalsh(
            model.factors @ model.factors.T))[-q:]
        true_between = np.sort(np.linalg.eigvalsh(
            factors_true @ factors_true.T))[-q:]
        assert np.all(np.abs(est_between / true_between - 1.0) < 0.10)
        est_within = np.sort(np.linalg.eigvalsh(model.sigma))
        true_within = np.sort(np.diag(sigma_true))
        assert np.all(np.abs(est_within / true_within - 1.0) < 0.10)

    def test_latent_rank_clamped_to_classes_minus_one(self):
        rng = np.random.default_rng(18)
        vecs, labels, _ = self._two_class_data(rng, n_per=50)
        model = iv.train_plda(vecs, labels, latent_rank=5, seed=19)
        assert model.factors.shape[1] == 1

    def test_single_class_warns(self):
        rng = np.random.default_rng(20)
        vecs = rng.standard_normal((40, 4))
        with pytest.warns(RuntimeWarning):
            iv.train_plda(vecs, ["only"] * 40, seed=21)

    def test_detection_score_orders_by_class(self):
        rng = np.random.default_rng(22)
        vecs, labels, centers = self._two_class_data(rng)
        model = iv.train_plda(vecs, labels, latent_rank=2, seed=23)
        probe_a = centers["a"] + 0.1 * rng.standard_normal(8)
        probe_b = centers["b"] + 0.1 * rng.standard_normal(8)
        s_a, s_b = iv.plda_detection_scores(model, [probe_a, probe_b],
                                            centers["a"], centers["b"])
        assert s_a > 0 > s_b


class TestSerialization:
    def test_tv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(24)
        tv = iv.TvMatrix(rng.standard_normal((12, 3)), rng.standard_normal(12))
        path = tmp_path / "tv.bin"
        iv.save_tv(path, tv, n_components=4)
        back = iv.load_tv(path)
        assert np.array_equal(back.matrix, tv.matrix)
        assert np.array_equal(back.mean, tv.mean)

    def test_wccn_roundtrip(self, tmp_path):
        b = np.random.default_rng(25).standard_normal((5, 5))
        path = tmp_path / "wccn.bin"
        iv.save_wccn(path, b)
        assert np.array_equal(iv.load_wccn(path), b)

    def test_plda_roundtrip(self, tmp_path):
        rng = np.random.default_rng(26)
        model = iv.PldaModel(rng.standard_normal(4),
                             rng.standard_normal((4, 2)),
                             np.eye(4) + 0.1)
        path = tmp_path / "plda.bin"
        iv.save_plda(path, model)
        back = iv.load_plda(path)
        assert np.array_equal(back.mu, model.mu)
        assert np.array_equal(back.factors, model.factors)
        assert np.array_equal(back.sigma, model.sigma)

    def test_magic_and_truncation_errors(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"WRONG" + b"\x00" * 16)
        for loader in (iv.load_tv, iv.load_wccn, iv.load_plda):
            with pytest.raises(ValueError):
                loader(path)
        tv = iv.TvMatrix(np.ones((4, 2)), np.zeros(4))
        good = tmp_path / "tv.bin"
        iv.save_tv(good, tv, n_components=2)
        good.write_bytes(good.read_bytes()[:-8])
        with pytest.raises(ValueError):
            iv.load_tv(good)

    def test_class_means_text_roundtrip(self, tmp_path):
        means = {"human": np.array([0.25, -1.5]),
                 "spoof": np.array([1e-17, 3.0])}
        path = tmp_path / "means.txt"
        iv.save_ivectors(path, sorted(means),
                         [means[k] for k in sorted(means)],
                         "# i-vector class means")
        back = dict(zip(*iv.load_ivectors(path)))
        assert set(back) == set(means)
        for k in means:
            assert np.allclose(back[k], means[k], rtol=0, atol=0)

    def test_ragged_vectors_rejected_naming_file_and_line(self, tmp_path):
        path = tmp_path / "train_ivectors.txt"
        path.write_text("# i-vectors\na 1 0.5 2\nb 0.25 3\n")
        with pytest.raises(ValueError, match=r"train_ivectors\.txt:3"):
            iv.load_ivectors(path)

    def test_empty_class_means_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError):
            iv.load_ivectors(path)


# ---------------------------------------------------------------------------
# degenerate training and test frames through every back-end step

def _edge_utterances(case, rng, n_utts=8, dim=3):
    """n_utts feature matrices of one degenerate kind."""
    if case == "one-frame":
        return [rng.standard_normal((1, dim)) for _ in range(n_utts)]
    if case == "constant":
        return [np.full((20, dim), 0.7) for _ in range(n_utts)]
    # duplicated frames: each utterance is one short matrix repeated
    return [np.repeat(rng.standard_normal((3, dim)), 7, axis=0)
            for _ in range(n_utts)]


def _backend_step(step, utts, labels):
    from spoofbench import gmm

    pooled = np.vstack(utts)
    ubm, history = gmm.train_gmm(pooled, 4, n_iterations=3, seed=1)
    if step == "train_gmm":
        # and on one utterance alone: a single frame for "one-frame"
        alone, alone_history = gmm.train_gmm(utts[0], 4, n_iterations=3,
                                             seed=1)
        return [ubm.weights, ubm.means, ubm.variances, history,
                alone.weights, alone.means, alone.variances, alone_history]
    if step == "llr_score":
        other, _ = gmm.train_gmm(pooled[::-1] + 0.5, 4, n_iterations=3, seed=2)
        return [gmm.llr_scores(utts, ubm, other)]
    stats = [iv.baum_welch_stats(u, ubm) for u in utts]
    if step == "baum_welch_stats":
        return [x for pair in stats for x in pair]
    tv, tv_history = iv.train_tv(stats, ubm, rank=2, n_iterations=2, seed=3)
    raw = iv.ivectors_from_stats(*(np.array(x) for x in zip(*stats)), ubm, tv,
                                 iv.gram_blocks(tv.matrix, ubm))
    b = iv.train_wccn(raw, labels)
    normed = iv.length_normalize(iv.apply_wccn(b, raw))
    plda = iv.train_plda(normed, labels, latent_rank=1, n_iterations=2,
                         seed=4)
    return [tv.matrix, tv_history, raw, b, normed, plda.mu, plda.factors,
            plda.sigma]


@pytest.mark.parametrize("step", ["train_gmm", "llr_score",
                                  "baum_welch_stats", "train_tv->plda"])
@pytest.mark.parametrize("case", ["one-frame", "constant", "duplicated"])
def test_degenerate_frames_end_finite_or_in_value_errors(case, step):
    """One-frame, constant and duplicated-frame feature matrices end in
    finite output or in a ValueError-family error, never in a numpy warning
    or a non-finite number."""
    rng = np.random.default_rng(12)
    utts = _edge_utterances(case, rng)
    labels = ["human", "spoof"] * (len(utts) // 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            outputs = _backend_step(step, utts, labels)
        except ValueError:
            return
    for out in outputs:
        assert np.all(np.isfinite(np.asarray(out, dtype=np.float64)))

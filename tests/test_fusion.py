"""Tests for score averaging and logistic fusion."""

import re

import numpy as np
import pytest

from spoofbench.errors import AlignmentError
from spoofbench import fusion as fu
from spoofbench.evaluation import rocch_eer

from test_scores import make_scores


def _two_system_dev(rng, n_per=60, sep=2.0, noise=0.5):
    labels = ["human"] * n_per + ["spoof"] * n_per
    y = np.array([1.0] * n_per + [-1.0] * n_per)
    s1 = sep * y + noise * rng.standard_normal(2 * n_per)
    s2 = sep * y + noise * rng.standard_normal(2 * n_per)
    return (make_scores(s1, labels), make_scores(s2, labels))


def _eer(score_set):
    mask = score_set.target_mask
    return rocch_eer(score_set.scores[mask], score_set.scores[~mask])


class TestAverage:
    def test_identical_systems_unchanged(self):
        s = make_scores([1.0, -2.0, 0.5], ["human", "spoof", "human"])
        fused = fu.fuse_average([s, s.with_scores(s.scores.copy()), s])
        assert np.array_equal(fused.scores, s.scores)

    def test_opposite_systems_cancel(self):
        s = make_scores([1.0, -2.0], ["human", "spoof"])
        fused = fu.fuse_average([s, s.with_scores(-s.scores)])
        assert np.array_equal(fused.scores, [0.0, 0.0])

    def test_system_order_irrelevant(self):
        rng = np.random.default_rng(0)
        a, b = _two_system_dev(rng, n_per=10)
        ab = fu.fuse_average([a, b]).scores
        ba = fu.fuse_average([b, a]).scores
        assert np.array_equal(ab, ba)

    def test_misaligned_sets_rejected(self):
        a = make_scores([1.0, 2.0], ["human", "spoof"])
        b = make_scores([1.0, 2.0], ["spoof", "human"])
        with pytest.raises(AlignmentError):
            fu.fuse_average([a, b])


class TestLogistic:
    def test_separable_dev_reaches_zero_eer(self):
        rng = np.random.default_rng(1)
        sets = _two_system_dev(rng, sep=3.0, noise=0.3)
        model = fu.train_logistic_fusion(sets)
        fused = fu.apply_fusion(model, sets)
        assert _eer(fused) == 0.0

    def test_gradient_at_solution_is_small(self):
        rng = np.random.default_rng(2)
        sets = _two_system_dev(rng, sep=1.0, noise=1.0)
        model = fu.train_logistic_fusion(sets)
        # rebuild the standardized training problem and check stationarity
        raw = np.stack([s.scores for s in sets], axis=1)
        mean, std = raw.mean(axis=0), raw.std(axis=0)
        x = (raw - mean) / std
        y = (np.asarray(sets[0].labels) == "human").astype(float)
        w_std = model.weights * std
        b_std = model.bias + float(np.sum(w_std * mean / std))
        z = x @ w_std + b_std
        p = 1.0 / (1.0 + np.exp(-z))
        grad_w = x.T @ (p - y) / len(y) + fu.L2_PENALTY * w_std
        grad_b = np.mean(p - y)
        assert np.max(np.abs(np.concatenate([grad_w, [grad_b]]))) < 1e-6

    def test_informative_system_dominates(self):
        rng = np.random.default_rng(3)
        n_per = 80
        labels = ["human"] * n_per + ["spoof"] * n_per
        y = np.array([1.0] * n_per + [-1.0] * n_per)
        good = make_scores(3.0 * y + 0.1 * rng.standard_normal(2 * n_per),
                           labels)
        junk1 = make_scores(rng.standard_normal(2 * n_per), labels)
        junk2 = make_scores(rng.standard_normal(2 * n_per), labels)
        model = fu.train_logistic_fusion([good, junk1, junk2])
        w = np.abs(model.weights)
        assert w[0] > 3.0 * max(w[1], w[2])

    def test_duplicated_system_splits_weight(self):
        # Heavily overlapping scores keep the optimal weights small, so the
        # ridge penalty (which a symmetric split shares between the two
        # copies) moves the combined mass by well under the tolerance.
        rng = np.random.default_rng(4)
        a, b = _two_system_dev(rng, n_per=500, sep=0.3, noise=1.5)
        dup = a.with_scores(a.scores.copy())
        base = fu.train_logistic_fusion([a, b])
        split = fu.train_logistic_fusion([a, dup, b])
        assert abs(split.weights[0] - split.weights[1]) < 1e-6
        assert abs((split.weights[0] + split.weights[1])
                   - base.weights[0]) < 1e-3

    def test_single_class_dev_rejected(self):
        s = make_scores([1.0, 2.0, 3.0], ["human"] * 3)
        with pytest.raises(ValueError):
            fu.train_logistic_fusion([s])

    def test_training_deterministic(self):
        rng = np.random.default_rng(5)
        sets = _two_system_dev(rng)
        m1 = fu.train_logistic_fusion(sets)
        m2 = fu.train_logistic_fusion(sets)
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias


class TestApply:
    def test_passthrough_weights(self):
        rng = np.random.default_rng(6)
        a, b = _two_system_dev(rng, n_per=8)
        model = fu.FusionModel("logistic", ["a", "b"],
                               np.array([1.0, 0.0]), 0.0)
        fused = fu.apply_fusion(model, [a, b])
        assert np.allclose(fused.scores, a.scores, atol=1e-15)

    def test_average_model_matches_fuse_average(self):
        rng = np.random.default_rng(7)
        a, b = _two_system_dev(rng, n_per=8)
        model = fu.average_model(["a", "b"])
        assert np.allclose(fu.apply_fusion(model, [a, b]).scores,
                           fu.fuse_average([a, b]).scores, atol=1e-15)

    def test_bias_shift_leaves_eer_unchanged(self):
        rng = np.random.default_rng(8)
        sets = _two_system_dev(rng, sep=0.8, noise=1.0)
        model = fu.train_logistic_fusion(sets)
        shifted = fu.FusionModel(model.kind, model.system_ids,
                                 model.weights.copy(), model.bias + 17.0)
        e1 = fu.apply_fusion(model, sets)
        e2 = fu.apply_fusion(shifted, sets)
        assert abs(_eer(e1) - _eer(e2)) < 1e-12

    def test_system_count_mismatch(self):
        rng = np.random.default_rng(9)
        a, b = _two_system_dev(rng, n_per=5)
        model = fu.average_model(["a", "b", "c"])
        with pytest.raises(ValueError):
            fu.apply_fusion(model, [a, b])

    def test_average_model_validation(self):
        with pytest.raises(ValueError):
            fu.FusionModel("average", ["a", "b"], np.array([0.7, 0.3]), 0.0)
        with pytest.raises(ValueError):
            fu.FusionModel("mystery", ["a"], np.array([1.0]), 0.0)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        model = fu.FusionModel("logistic", ["mfcc", "cqcc"],
                               np.array([0.123456789012345, -2.5e-8]), 1.75)
        path = tmp_path / "fusion.txt"
        fu.save_fusion(path, model)
        back = fu.load_fusion(path)
        assert back.kind == model.kind
        assert back.system_ids == model.system_ids
        assert np.array_equal(back.weights, model.weights)
        assert back.bias == model.bias

    def test_incomplete_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("kind\tlogistic\n")
        with pytest.raises(ValueError):
            fu.load_fusion(path)

    @pytest.mark.parametrize("line,message", [
        ("weight\tsys0", "expected 3 fields"),
        ("weight\tsys0\t1.0\t2.0", "expected 3 fields"),
        ("bias", "expected 2 fields"),
        ("kind\tlogistic\tmore", "expected 2 fields"),
        ("bias\tabc", "bad number 'abc'"),
        ("weight\tsys0\t1.0x", "bad number '1.0x'"),
        ("wat\t1", "unknown fusion field 'wat'"),
    ])
    def test_malformed_line_names_file_and_line(self, tmp_path, line,
                                                message):
        path = tmp_path / "bad.txt"
        path.write_text("# fusion model\nkind\tlogistic\nbias\t0.5\n"
                        f"{line}\nweight\tsys1\t1.0\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:4: {message}")):
            fu.load_fusion(path)


"""Tests for score-list TSV handling."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from reference import write_scores_rowwise
from spoofbench.errors import AlignmentError
from spoofbench.scores import ScoreSet, check_aligned, read_scores, write_scores


def make_scores(values, labels, attacks=None, conditions=None):
    n = len(values)
    if attacks is None:
        attacks = ["-" if lab == "human" else "S1" for lab in labels]
    if conditions is None:
        conditions = ["clean"] * n
    return ScoreSet([f"u{i:03d}" for i in range(n)], np.asarray(values, float),
                    list(labels), attacks, conditions)


class TestScoreSet:
    def test_selectors(self):
        s = make_scores([3.0, -1.0, 2.0], ["human", "spoof", "human"])
        assert np.array_equal(s.target_scores, [3.0, 2.0])
        assert np.array_equal(s.nontarget_scores, [-1.0])

    def test_with_scores_keeps_metadata(self):
        s = make_scores([1.0, 2.0], ["human", "spoof"])
        t = s.with_scores([5.0, 6.0])
        assert t.utt_ids == s.utt_ids
        assert t.labels == s.labels
        assert np.array_equal(t.scores, [5.0, 6.0])

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            make_scores([1.0], ["genuine"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected_with_trial_id(self, bad):
        with pytest.raises(ValueError, match=rf"{bad!r} for trial u001"):
            make_scores([1.0, bad, bad], ["human", "spoof", "spoof"])

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ScoreSet(["a", "b"], np.zeros(2), ["human"], ["-", "-"],
                     ["clean", "clean"])

    def test_check_aligned(self):
        a = make_scores([1.0, 2.0], ["human", "spoof"])
        b = a.with_scores([9.0, 8.0])
        check_aligned([a, b])
        c = make_scores([1.0, 2.0], ["spoof", "human"])
        with pytest.raises(AlignmentError):
            check_aligned([a, c])


class TestTsv:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(20) * 1e-3
        labels = ["human" if i % 2 else "spoof" for i in range(20)]
        s = make_scores(vals, labels)
        path = tmp_path / "scores.tsv"
        write_scores(path, s)
        back = read_scores(path)
        assert back.utt_ids == s.utt_ids
        assert np.array_equal(back.scores, s.scores)   # repr() round-trips
        assert back.labels == s.labels
        assert back.attack_ids == s.attack_ids
        assert back.conditions == s.conditions

    def test_rewriting_is_byte_identical(self, tmp_path):
        s = make_scores([0.1, -2.5e-17, 3.0], ["human", "spoof", "human"])
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_scores(p1, s)
        write_scores(p2, read_scores(p1))
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=st.lists(
        st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e16,
                                   -3.0e17, 2.0 ** 53 + 2.0, 12.0, -7.0])),
        max_size=40))
    def test_batched_writer_matches_row_by_row(self, tmp_path, values):
        """One joined write gives the bytes of formatting each score with
        float(x)!r row by row: -0.0, subnormals, integral floats and values
        above 1e16 included."""
        labels = ["human" if i % 3 else "spoof" for i in range(len(values))]
        s = make_scores(values, labels,
                        conditions=["white@0"] * len(values))
        p1, p2 = tmp_path / "batched.tsv", tmp_path / "rows.tsv"
        write_scores(p1, s)
        write_scores_rowwise(p2, s)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("utt\tscore\n")
        with pytest.raises(ValueError):
            read_scores(path)

    def test_bad_column_count_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("utt_id\tscore\tlabel\tattack_id\tcondition\n"
                        "u0\t1.0\thuman\n")
        with pytest.raises(ValueError):
            read_scores(path)

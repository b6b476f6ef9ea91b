"""Tests for score-list TSV handling."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from reference import (aligned_by_trial_key, read_scores_rowwise,
                       write_scores_rowwise)
from spoofbench.errors import AlignmentError
from spoofbench.scores import (HEADER, ScoreSet, check_aligned, read_scores,
                               write_scores)


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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(["human", "spoof"]), min_size=1,
                    max_size=60))
    def test_mask_selects_what_the_label_array_selected(self, labels):
        s = make_scores(np.arange(len(labels), dtype=float), labels)
        array = np.asarray(labels)
        assert s.target_mask.dtype == bool
        assert np.array_equal(s.target_mask, array == "human")
        assert np.array_equal(s.target_scores, s.scores[array == "human"])
        assert np.array_equal(s.nontarget_scores, s.scores[array == "spoof"])

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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.tuples(st.sampled_from(["u0", "u1"]),
                                       st.sampled_from(["human", "spoof"]),
                                       st.sampled_from(["-", "S1"]),
                                       st.sampled_from(["clean", "white@0"])),
                             max_size=3),
                    min_size=2, max_size=3))
    def test_check_aligned_agrees_with_trial_key(self, trial_lists):
        """Comparing the four metadata columns one by one accepts and
        rejects exactly the sets that comparing whole row tuples did."""
        sets = []
        for rows in trial_lists:
            columns = [[row[k] for row in rows] for k in range(4)]
            sets.append(ScoreSet(columns[0], np.zeros(len(rows)),
                                 *columns[1:]))
        if aligned_by_trial_key(sets):
            check_aligned(sets)
        else:
            with pytest.raises(AlignmentError):
                check_aligned(sets)


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
        """The error names the file and line.  Rows of 3 and 7 columns hold
        4 tabs each on average, so each row is checked on its own."""
        path = tmp_path / "bad.tsv"
        path.write_text("\t".join(HEADER) + "\n"
                        "u0\t1.0\thuman\t-\tclean\n\n"
                        "u1\t1.0\thuman\n"
                        "u2\t1.0\tspoof\tS1\tclean\tx\ty\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:4: expected 5 columns")):
            read_scores(path)

    def test_bad_score_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("\t".join(HEADER) + "\n"
                        "u0\t1.0\thuman\t-\tclean\n\n"
                        "u1\tabc\thuman\t-\tclean\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:4: bad score 'abc'")):
            read_scores(path)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.tuples(
        st.text("abcXYZ019-_.@", min_size=1, max_size=6),
        st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e16,
                                   -3.0e17, 2.0 ** 53 + 2.0])),
        st.sampled_from([repr, "{:.17g}".format, "{:e}".format,
                         " {!r} ".format]),
        st.sampled_from(["human", "spoof"]),
        st.sampled_from(["clean", "white@0"]),
        st.integers(0, 2)), max_size=30),
        newline=st.sampled_from(["\n", "\r\n"]),
        tail=st.sampled_from(["", "\n", "\n\n"]))
    def test_columnar_reader_matches_row_by_row(self, tmp_path, rows,
                                                newline, tail):
        """Every column equals the row-wise reader's, and every score is
        bit-equal, sign of zero included, whatever text float() read it
        from; blank lines and CRLF endings are skipped alike."""
        lines = ["\t".join(HEADER)]
        for utt, value, fmt, label, cond, blanks in rows:
            lines += [""] * blanks
            attack = "-" if label == "human" else "S1"
            lines.append(f"{utt}\t{fmt(value)}\t{label}\t{attack}\t{cond}")
        path = tmp_path / "scores.tsv"
        path.write_bytes((newline.join(lines) + tail).encode())
        got, want = read_scores(path), read_scores_rowwise(path)
        for column in ("utt_ids", "labels", "attack_ids", "conditions"):
            assert getattr(got, column) == getattr(want, column)
        assert np.array_equal(got.scores.view(np.int64),
                              want.scores.view(np.int64))

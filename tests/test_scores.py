"""Tests for score-list TSV handling."""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from reference import (aligned_by_trial_key, read_aligned_oracle,
                       read_scores_rowwise, write_scores_rowwise)
import spoofbench
from spoofbench.errors import AlignmentError
from spoofbench.scores import (HEADER, ScoreSet, check_aligned, read_aligned,
                               read_scores, write_scores)

METADATA = ("utt_ids", "labels", "attack_ids", "conditions")


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
        assert np.array_equal(s.scores[s.target_mask], [3.0, 2.0])
        assert np.array_equal(s.scores[~s.target_mask], [-1.0])

    def test_with_scores_keeps_metadata(self):
        s = make_scores([1.0, 2.0], ["human", "spoof"])
        t = s.with_scores([5.0, 6.0])
        assert t.utt_ids == s.utt_ids
        assert t.labels == s.labels
        assert np.array_equal(t.scores, [5.0, 6.0])
        # the trial list is shared, not copied
        for column in METADATA:
            assert getattr(t, column) is getattr(s, column)

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
        assert np.array_equal(s.scores[s.target_mask],
                              s.scores[array == "human"])
        assert np.array_equal(s.scores[~s.target_mask],
                              s.scores[array == "spoof"])

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
        # a tuple column holds the same trials as a list column
        d = ScoreSet(tuple(a.utt_ids), [0.0, 0.0], tuple(a.labels),
                     tuple(a.attack_ids), tuple(a.conditions))
        assert d.utt_ids == a.utt_ids and isinstance(d.labels, list)
        check_aligned([a, d])
        check_aligned([d, a])

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


def _write_trials(path, rows, values):
    """A score file of (utt_id, label, attack_id, condition) rows."""
    write_scores(path, ScoreSet([r[0] for r in rows], values,
                                [r[1] for r in rows], [r[2] for r in rows],
                                [r[3] for r in rows]))


# score texts that float() reads only as str (padding, underscores,
# non-ASCII digits), that a ScoreSet refuses (nan, an overflow) or that no
# row of 5 columns holds
_ODD_SCORES = [" 2.5 ", "1_0", "\u0661\u0662", "1\x00", "", "abc", "nan",
               "1e999", "1.0\n"]


@st.composite
def _raw_file_sets(draw):
    """The texts of 1 to 4 score files over one trial list, each with its
    own scores, line ends and final line end, and perhaps one odd score
    text, a blank line, a dropped row, a doubled tab, a changed condition
    or a bad header."""
    trials = draw(st.lists(st.tuples(
        st.sampled_from(["u0", "u1", "\u00e92"]),
        st.sampled_from(["human", "spoof"]), st.sampled_from(["-", "S1"]),
        st.sampled_from(["clean", "white@0"])), max_size=4))
    texts = []
    for _ in range(draw(st.integers(1, 4))):
        rows = [[u, repr(draw(st.floats(allow_nan=False,
                                        allow_infinity=False))), lab, att,
                 cond] for u, lab, att, cond in trials]
        edit = draw(st.sampled_from([None, None, "score", "score", "blank",
                                     "drop", "tabs", "condition", "header"]))
        k = draw(st.integers(0, max(len(rows) - 1, 0)))
        if rows and edit == "score":
            rows[k][1] = draw(st.sampled_from(_ODD_SCORES))
        elif rows and edit == "tabs":
            rows[k][0] += "\t"
        elif rows and edit == "condition":
            rows[k][4] = "babble@5"
        rows = ["\t".join(row) for row in rows]
        if edit == "blank":
            rows.insert(k, "")
        elif rows and edit == "drop":
            del rows[k]
        header = "utt_id\tscore" if edit == "header" else "\t".join(HEADER)
        end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
        texts.append(end.join([header, *rows])
                     + draw(st.sampled_from([end, ""])))
    return texts


class TestReadAligned:
    def _files(self, tmp_path, n=3):
        rows = [("u0", "human", "-", "clean"), ("u1", "spoof", "S1", "clean"),
                ("u2", "spoof", "S2", "clean")]
        paths = []
        for k in range(n):
            paths.append(tmp_path / f"sys{k}.tsv")
            _write_trials(paths[-1], rows, [k + 0.5, -k - 0.25, 1e-3 * k])
        return paths

    def test_every_set_holds_the_first_sets_columns(self, tmp_path):
        paths = self._files(tmp_path)
        sets = read_aligned(paths)
        for got, path in zip(sets, paths):
            want = read_scores(path)
            for column in METADATA:
                assert getattr(got, column) is getattr(sets[0], column)
                assert getattr(got, column) == getattr(want, column)
            assert np.array_equal(got.scores, want.scores)

    def test_misaligned_file_is_named(self, tmp_path):
        paths = self._files(tmp_path)
        _write_trials(paths[1], [("u0", "human", "-", "clean"),
                                 ("u1", "spoof", "S1", "white@0"),
                                 ("u2", "spoof", "S2", "clean")],
                      [0.0, 0.0, 0.0])
        with pytest.raises(AlignmentError, match=re.escape(
                f"{paths[1]}: covers a different trial list than "
                f"{paths[0]}")):
            read_aligned(paths)

    def test_each_file_keeps_its_read_errors(self, tmp_path):
        paths = self._files(tmp_path)
        paths[2].write_text("\t".join(HEADER) + "\n"
                            "u0\tabc\thuman\t-\tclean\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{paths[2]}:2: bad score 'abc'")):
            read_aligned(paths)
        paths[0].write_text("utt\tscore\n")
        with pytest.raises(ValueError, match="unexpected score header"):
            read_aligned(paths)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(files=st.lists(st.lists(st.tuples(
        st.sampled_from(["u0", "u1"]), st.sampled_from(["human", "spoof"]),
        st.sampled_from(["-", "S1"]), st.sampled_from(["clean", "white@0"]),
        st.floats(allow_nan=False, allow_infinity=False)), max_size=3),
        min_size=1, max_size=3))
    def test_matches_separate_reads(self, tmp_path, files):
        """read_aligned gives the values and score bits of reading each file
        on its own, and raises exactly when check_aligned would."""
        paths = []
        for k, rows in enumerate(files):
            paths.append(tmp_path / f"sys{k}.tsv")
            _write_trials(paths[-1], [r[:4] for r in rows],
                          np.array([r[4] for r in rows]))
        want = [read_scores(p) for p in paths]
        if not aligned_by_trial_key(want):
            with pytest.raises(AlignmentError):
                check_aligned(want)
            with pytest.raises(AlignmentError):
                read_aligned(paths)
            return
        got = read_aligned(paths)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            for column in METADATA:
                assert getattr(g, column) == getattr(w, column)
                assert getattr(g, column) is getattr(got[0], column)
            assert np.array_equal(g.scores.view(np.int64),
                                  w.scores.view(np.int64))

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(texts=_raw_file_sets())
    @example(texts=["\t".join(HEADER) + "\nu0\t1.0\thuman\t-\tclean\n",
                    "\t".join(HEADER) + "\nu0\t1.0\n\thuman\t-\tclean\n"])
    def test_matches_the_oracle_on_raw_files(self, tmp_path, texts):
        """On any file texts, read_aligned gives the oracle's values, score
        bits and shared columns, or raises its error type and message.  The
        example's later file differs from the first only inside a score
        field, by a "\\n" that splits its row in two."""
        paths = []
        for k, text in enumerate(texts):
            paths.append(tmp_path / f"sys{k}.tsv")
            paths[-1].write_bytes(text.encode("utf-8"))

        def outcome(read):
            try:
                sets = read(paths)
            except ValueError as err:
                return type(err), str(err)
            return [([getattr(s, column) for column in METADATA],
                     s.scores.view(np.int64).tolist(),
                     [getattr(s, column) is getattr(sets[0], column)
                      for column in METADATA]) for s in sets]

        assert outcome(read_aligned) == outcome(read_aligned_oracle)

    def test_aligned_files_are_parsed_once(self, tmp_path, monkeypatch):
        """Only the first of 4 aligned files goes through read_scores; a
        later CRLF copy of its file is read in full, to the same sets."""
        paths = self._files(tmp_path, n=4)
        want = read_aligned_oracle(paths)
        calls = []

        def counting(path, data=None):
            calls.append(path)
            return read_scores(path, data)

        monkeypatch.setattr("spoofbench.scores.read_scores", counting)
        plain = read_aligned(paths)
        assert calls == [paths[0]]
        paths[2].write_bytes(paths[2].read_bytes().replace(b"\n", b"\r\n"))
        calls.clear()
        crlf = read_aligned(paths)
        assert calls == [paths[0], paths[2]]
        for sets in (plain, crlf):
            for got, w in zip(sets, want, strict=True):
                for column in METADATA:
                    assert getattr(got, column) is getattr(sets[0], column)
                    assert getattr(got, column) == getattr(w, column)
                assert np.array_equal(got.scores.view(np.int64),
                                      w.scores.view(np.int64))


def test_text_artefacts_do_not_depend_on_the_locale(tmp_path):
    """Score files, fusion models and i-vector files are UTF-8 under an
    ASCII locale too: each round-trips a non-ASCII name."""
    script = textwrap.dedent(r"""
        import sys
        import numpy as np
        from spoofbench import fusion, ivector, scores

        out = sys.argv[1]
        s = scores.ScoreSet(["utt-\u00e9"], [1.5], ["human"], ["-"],
                            ["clean"])
        scores.write_scores(out + "/s.tsv", s)
        assert scores.read_scores(out + "/s.tsv").utt_ids == s.utt_ids
        model = fusion.FusionModel("logistic", ["sys-\u00e9"],
                                   np.array([0.5]), 0.25)
        fusion.save_fusion(out + "/f.txt", model)
        assert fusion.load_fusion(out + "/f.txt").system_ids == ["sys-\u00e9"]
        ivector.save_ivectors(out + "/i.txt", ["\u00e9"], [[1.0, 2.0]])
        assert ivector.load_ivectors(out + "/i.txt")[0] == ["\u00e9"]
    """)
    src = str(Path(spoofbench.__file__).parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONUTF8="0", PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "s.tsv").read_bytes().split(b"\n")[1].startswith(
        "utt-\u00e9\t".encode("utf-8"))

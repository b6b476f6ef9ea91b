import pytest

from spoofbench.manifest import (Manifest, ManifestRow, read_manifest,
                                 write_manifest)


def _rows():
    return (
        ManifestRow("u1", "wav/u1.wav", "human", "-", "train"),
        ManifestRow("u2", "wav/u2.wav", "spoof", "vc16", "train"),
        ManifestRow("u3", "wav/u3.wav", "human", "-", "eval"),
        ManifestRow("u4", "wav/u4.wav", "spoof", "vc24", "eval"),
    )


class TestRow:
    def test_label_vocabulary(self):
        with pytest.raises(ValueError):
            ManifestRow("u", "u.wav", "genuine", "-", "train")

    def test_subset_vocabulary(self):
        with pytest.raises(ValueError):
            ManifestRow("u", "u.wav", "human", "-", "test")

    def test_human_rows_never_carry_an_attack(self):
        with pytest.raises(ValueError):
            ManifestRow("u", "u.wav", "human", "vc16", "train")

    def test_spoof_rows_need_an_attack(self):
        with pytest.raises(ValueError):
            ManifestRow("u", "u.wav", "spoof", "-", "train")

    @pytest.mark.parametrize("utt_id, attack_id", [
        ("", "vc16"), ("a 1", "vc16"), ("a\t1", "vc16"), ("a/1", "vc16"),
        ("a\\1", "vc16"), (".", "vc16"), ("..", "vc16"), ("../u", "vc16"),
        ("u", ""), ("u", "vc 16"),
    ])
    def test_ids_that_break_files_are_rejected(self, utt_id, attack_id):
        with pytest.raises(ValueError, match="u.wav"):
            ManifestRow(utt_id, "u.wav", "spoof", attack_id, "train")

    @pytest.mark.parametrize("utt_id", ["train-0001", "u.1", "a..b"])
    def test_plain_ids_pass(self, utt_id):
        assert ManifestRow(utt_id, "u.wav", "spoof", "vc16").utt_id == utt_id


class TestManifest:
    def test_duplicate_ids_rejected(self):
        rows = _rows()
        with pytest.raises(ValueError):
            Manifest(rows + (rows[0],))

    def test_single_class_train_rejected(self):
        rows = tuple(r for r in _rows() if r.label == "human")
        with pytest.raises(ValueError):
            Manifest(rows)

    def test_eval_only_manifest_is_fine(self):
        rows = tuple(r for r in _rows() if r.subset == "eval")
        assert len(Manifest(rows)) == 2

    def test_subset_filter(self):
        m = Manifest(_rows())
        assert [r.utt_id for r in m.subset("eval")] == ["u3", "u4"]
        with pytest.raises(ValueError):
            m.subset("evaluation")

    def test_resolve_paths(self, tmp_path):
        (tmp_path / "wav").mkdir()
        for r in _rows():
            (tmp_path / r.wav_path).write_bytes(b"")
        m = Manifest(_rows())
        assert len(m.resolve_paths(tmp_path)) == 4
        with pytest.raises(FileNotFoundError):
            m.resolve_paths(tmp_path / "elsewhere")


class TestTsv:
    def test_roundtrip(self, tmp_path):
        m = Manifest(_rows())
        path = tmp_path / "m.tsv"
        write_manifest(path, m)
        assert read_manifest(path) == m

    def test_bad_header(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("id\tpath\tlabel\tattack\tsubset\n")
        with pytest.raises(ValueError):
            read_manifest(path)

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("utt_id\twav_path\tlabel\tattack_id\tsubset\n"
                        "u1\ta.wav\thuman\t-\n")
        with pytest.raises(ValueError):
            read_manifest(path)

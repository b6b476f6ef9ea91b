from dataclasses import fields
from pathlib import Path

import pytest

from spoofbench import config as cfgmod
from spoofbench import features
from spoofbench.config import (ExperimentConfig, GridCell, canonical_text,
                               load_config, parse_grid_cell)


class TestGridCell:
    def test_clean(self):
        cell = parse_grid_cell("clean")
        assert cell.is_clean and cell.tag == "clean"

    def test_noise(self):
        cell = parse_grid_cell("white:0")
        assert (cell.noise_kind, cell.snr_db) == ("white", 0.0)
        assert cell.tag == "white_0dB"
        assert parse_grid_cell("babble:-5").tag == "babble_-5dB"

    def test_bad_forms(self):
        with pytest.raises(ValueError):
            parse_grid_cell("white")
        with pytest.raises(ValueError):
            parse_grid_cell("pink:10")
        with pytest.raises(ValueError):
            GridCell("white", None)
        for snr in (float("nan"), float("-inf")):
            with pytest.raises(ValueError, match="SNR"):
                GridCell("white", snr)
        with pytest.raises(ValueError, match="SNR"):
            parse_grid_cell("white:nan")

    def test_snr_tag_keeps_every_digit(self):
        """The tag keys the feature cache and seeds the noise, so SNRs
        that differ past the sixth digit must not share it; SNRs that
        `:g` writes exactly keep their old tags."""
        a, b = GridCell("white", 12.3456789), GridCell("white", 12.34567)
        assert (a.tag, b.tag) == ("white_12.3456789dB", "white_12.34567dB")
        assert GridCell("car", 20.0).tag == "car_20dB"
        assert GridCell("white", 2.5).tag == "white_2.5dB"
        assert ExperimentConfig(grid=(a, b)).grid == (a, b)


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = ExperimentConfig()
        assert cfg.grid[0].is_clean
        assert len(cfg.features) == 8

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(grid=())

    def test_duplicate_cells_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(grid=(GridCell(), GridCell()))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(backends=("svm",))

    def test_unknown_feature_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(features=("plp",))

    def test_unknown_enhancement_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(enhancement="rnnoise")

    def test_unknown_fusion_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(fusion=("stacking",))


class TestFeatureOverrides:
    def test_applied(self):
        cfg = ExperimentConfig(
            feature_overrides=(("mfcc", "n_coeffs", 20),))
        assert cfg.feature_config("mfcc").n_coeffs == 20
        assert cfg.feature_config("imfcc").n_coeffs == 32

    def test_desk_geometry_sits_under_explicit_overrides(self):
        desk = dict(cfgmod.DESK_FEATURE_OVERRIDES["cqcc"])
        assert ExperimentConfig().feature_config("cqcc") == \
            features.FeatureConfig("cqcc", **desk)
        cfg = ExperimentConfig(
            feature_overrides=(("cqcc", "cqt_bins_per_octave", 48),))
        got = cfg.feature_config("cqcc")
        assert got.cqt_bins_per_octave == 48
        assert got.cqt_octaves == desk["cqt_octaves"]
        assert got == features.FeatureConfig(
            "cqcc", **{**desk, "cqt_bins_per_octave": 48})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="'mfc'"):
            ExperimentConfig(feature_overrides=(("mfc", "n_coeffs", 12),))

    @staticmethod
    def _load(tmp_path, text):
        path = tmp_path / "x.ini"
        path.write_text("[experiment]\n" + text, encoding="utf-8")
        return load_config(path)

    def test_off_flags_read_as_false(self, tmp_path):
        cfg = self._load(tmp_path, "[feature.mfcc]\napply_cms = off\n"
                                   "add_delta = off\n")
        got = cfg.feature_config("mfcc")
        assert (got.apply_cms, got.add_delta) == (False, False)
        assert not got.want_cms and not got.want_delta

    @pytest.mark.parametrize("word", ["on", "1"])
    def test_on_flags_read_as_true(self, tmp_path, word):
        cfg = self._load(tmp_path, f"[feature.rps]\nadd_delta = {word}\n")
        assert cfg.feature_config("rps").add_delta is True

    def test_mistyped_value_refused_at_load(self, tmp_path):
        with pytest.raises(ValueError,
                           match=r"'n_coeffs' in \[feature\.mfcc\]"):
            self._load(tmp_path, "[feature.mfcc]\nn_coeffs = 20.0\n")

    def test_float_field_reads_as_float(self, tmp_path):
        """frame_ms = 20 and 20.0 are one setting, so one feature-cache
        key."""
        a = self._load(tmp_path, "[feature.mfcc]\nframe_ms = 20\n")
        b = self._load(tmp_path, "[feature.mfcc]\nframe_ms = 20.0\n")
        assert a.feature_config("mfcc") == b.feature_config("mfcc")
        assert isinstance(a.feature_config("mfcc").frame_ms, float)

    def test_none_lifter(self, tmp_path):
        cfg = self._load(tmp_path, "[feature.mgd]\nmgd_cep_lifter = none\n")
        assert cfg.feature_config("mgd").mgd_cep_lifter is None


class TestIniFile:
    def test_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(
            name="grid-demo", seed=13,
            features=("mfcc", "rps", "mgd"),
            backends=("gmm", "ivector-plda"),
            grid=(GridCell(), GridCell("white", 0.0),
                  GridCell("babble", 10.0), GridCell("white", 12.3456789),
                  GridCell("white", 12.34567)),
            enhancement="wiener",
            fusion=("average",),
            feature_overrides=(("mfcc", "apply_cms", False),
                               ("mfcc", "n_coeffs", 24),
                               ("mgd", "mgd_cep_lifter", None),
                               ("rps", "f0_max", 400.0)),
            gmm_components=16, tv_rank=24)
        path = tmp_path / "exp.ini"
        path.write_text(canonical_text(cfg), encoding="utf-8")
        assert load_config(path) == cfg

    @pytest.mark.parametrize("text, field, value", [
        ("[gmm]\niterations = 7\n", "gmm_iterations", 7),
        ("[ivector]\nplda_latent = 3\n", "plda_latent", 3),
    ], ids=["gmm", "ivector"])
    def test_absent_keys_take_the_dataclass_defaults(self, tmp_path, text,
                                                     field, value):
        path = tmp_path / "x.ini"
        path.write_text("[experiment]\n" + text)
        assert load_config(path) == ExperimentConfig(**{field: value})

    def test_missing_experiment_section(self, tmp_path):
        path = tmp_path / "x.ini"
        path.write_text("[grid]\ncells = clean\n")
        with pytest.raises(ValueError):
            load_config(path)

    def test_unknown_feature_field_rejected(self, tmp_path):
        path = tmp_path / "x.ini"
        path.write_text("[experiment]\nseed = 1\n"
                        "[feature.mfcc]\nlifter = 22\n")
        with pytest.raises(ValueError):
            load_config(path)

    def test_misspelled_feature_section_rejected(self, tmp_path):
        path = tmp_path / "x.ini"
        path.write_text("[experiment]\nseed = 1\n"
                        "[feature.mfc]\nn_coeffs = 12\n")
        with pytest.raises(ValueError, match=r"\[feature\.mfc\]"):
            load_config(path)

    @pytest.mark.parametrize("text, where", [
        ("[gmm]\ncomponent = 4\n", r"'component' in \[gmm\]"),
        ("[gmms]\ncomponents = 4\n", r"\[gmms\]"),
        ("[grid]\ncell = clean\n", r"'cell' in \[grid\]"),
        ("[ivector]\ntv_rank = 4\n", r"'tv_rank' in \[ivector\]"),
        ("feature = mfcc\n", r"'feature' in \[experiment\]"),
    ], ids=["gmm-key", "section", "grid-key", "ivector-key", "experiment-key"])
    def test_unknown_section_or_key_rejected(self, tmp_path, text, where):
        path = tmp_path / "x.ini"
        path.write_text("[experiment]\nseed = 1\n" + text)
        with pytest.raises(ValueError, match=where):
            load_config(path)

    def test_every_key_sets_one_field(self):
        """The key table and ExperimentConfig describe the same settings:
        each field but the feature overrides has exactly one INI key."""
        set_by_keys = sorted(field for keys in cfgmod._KEYS.values()
                             for field, _, _ in keys.values())
        assert set_by_keys == sorted(f.name for f in fields(ExperimentConfig)
                                     if f.name != "feature_overrides")

    def test_readme_example_loads(self, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        examples = [block.split("```", 1)[0]
                    for block in text.split("```ini\n")[1:]]
        cfgs = []
        for i, example in enumerate(examples):
            path = tmp_path / f"example{i}.ini"
            path.write_text(example, encoding="utf-8")
            cfgs.append(load_config(path))
        assert len(cfgs) >= 2
        assert cfgs[0].features == ("mfcc", "cqcc", "cosphase")
        assert cfgs[0].fusion == ("average",)
        assert cfgs[0].gmm_components == 32
        assert cfgs[1].feature_config("cqcc").cqt_bins_per_octave == 24
        assert cfgs[1].gmm_components == 4

    def test_none_enhancement_forms(self, tmp_path):
        path = tmp_path / "x.ini"
        path.write_text("[experiment]\nenhancement = none\n")
        assert load_config(path).enhancement is None

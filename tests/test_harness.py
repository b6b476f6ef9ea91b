import multiprocessing
import os
import shutil
import stat
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
import scipy.special

from spoofbench import features, gmm, harness, ivector
from spoofbench.audio import AudioSignal, read_wav, write_wav
from spoofbench.config import ExperimentConfig, GridCell
from spoofbench.errors import (DegenerateVectorError, EmptyFeaturesError,
                               HygieneError)
from spoofbench.harness import (check_hygiene, condition_tag, derive_seed,
                                run_experiment)
from spoofbench.manifest import Manifest, ManifestRow
from spoofbench.scores import read_scores
from spoofbench.toycorpus import make_toy_corpus


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    manifest = make_toy_corpus(root, seed=3, n_train=16, n_dev=8, n_eval=8)
    return root, manifest


def _config(**kwargs):
    defaults = dict(
        name="t", seed=11, features=("mfcc",), backends=("gmm",),
        grid=(GridCell(),), gmm_components=4, gmm_iterations=4,
        ubm_components=4, tv_rank=4, tv_iterations=2,
        plda_latent=2, plda_iterations=2,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


@pytest.fixture
def in_process(monkeypatch):
    """Extract and train in this process, so that call counts see every
    extraction and every training call."""
    monkeypatch.setattr(harness, "_worker_count", lambda n_jobs: 1)


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's args."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)
    return calls


def _score_bytes(work):
    return {p.relative_to(work): p.read_bytes()
            for p in sorted((work / "scores").rglob("*.tsv"))}


class TestSeeds:
    def test_deterministic(self):
        assert derive_seed(7, "a", "b") == derive_seed(7, "a", "b")

    def test_sensitive_to_every_part(self):
        base = derive_seed(7, "a", "b")
        assert base != derive_seed(8, "a", "b")
        assert base != derive_seed(7, "a", "c")
        assert base != derive_seed(7, "ab")

    def test_fits_numpy_seed(self):
        s = derive_seed(0, "x")
        np.random.default_rng(s)   # must not raise
        assert 0 <= s < 2 ** 64


class TestConditionTag:
    def test_forms(self):
        assert condition_tag(GridCell(), None) == "clean"
        assert condition_tag(GridCell("white", 0.0), None) == "white_0dB"
        assert condition_tag(GridCell(), "wiener") == "clean+wiener"


class TestHygiene:
    def test_overlap_refused(self):
        with pytest.raises(HygieneError):
            check_hygiene(["a", "b"], ["b", "c"])

    def test_disjoint_passes(self):
        check_hygiene(["a", "b"], ["c", "d"])


class TestRun:
    def test_grid_outputs(self, corpus, tmp_path):
        root, man = corpus
        cfg = _config(features=("mfcc", "cosphase"),
                      grid=(GridCell(), GridCell("white", 10.0)),
                      fusion=("average", "logistic"))
        result = run_experiment(cfg, man, tmp_path / "work", wav_root=root)
        # 2 cells x 1 backend x (2 features + 2 fusions) x 2 subsets
        assert len(result.rows) == 16
        assert result.summary_path.is_file()
        report = result.report("clean", "gmm", "mfcc", "eval")
        assert 0.0 <= report.eer_percent <= 100.0
        scores = read_scores(result.rows[0].scores_path)
        assert scores.utt_ids == [r.utt_id for r in man.subset("dev").rows]

    def test_condition_column_in_scores(self, corpus, tmp_path):
        root, man = corpus
        cfg = _config(grid=(GridCell("car", 20.0),))
        result = run_experiment(cfg, man, tmp_path / "w", wav_root=root)
        scores = read_scores(result.rows[0].scores_path)
        assert set(scores.conditions) == {"car_20dB"}

    def test_rerun_is_byte_identical(self, corpus, tmp_path):
        root, man = corpus
        cfg = _config(grid=(GridCell("white", 0.0),))
        r1 = run_experiment(cfg, man, tmp_path / "w1", wav_root=root)
        r2 = run_experiment(cfg, man, tmp_path / "w2", wav_root=root)
        for a, b in zip(r1.rows, r2.rows):
            assert a.scores_path.read_bytes() == b.scores_path.read_bytes()

    def test_scores_match_scipy_logsumexp(self, corpus, tmp_path,
                                          monkeypatch):
        """GMM training and scoring write the same bytes whether frame
        log-likelihoods go through the row-wise helper or through scipy."""
        root, man = corpus
        cfg = _config(features=("mfcc", "cosphase"),
                      backends=("gmm", "ivector-cosine"),
                      grid=(GridCell(), GridCell("white", 0.0)))
        own = run_experiment(cfg, man, tmp_path / "own", wav_root=root)
        calls = []

        def scipy_rows(a):
            calls.append(a.shape)
            return scipy.special.logsumexp(a, axis=1)
        monkeypatch.setattr(gmm, "_logsumexp_rows", scipy_rows)
        ref = run_experiment(cfg, man, tmp_path / "scipy", wav_root=root)
        assert calls
        own_bytes = _score_bytes(tmp_path / "own")
        assert len(own_bytes) == 16
        assert own_bytes == _score_bytes(tmp_path / "scipy")
        assert own.summary_path.read_bytes() == ref.summary_path.read_bytes()

    def test_warm_rerun_reuses_cache(self, corpus, tmp_path):
        root, man = corpus
        cfg = _config()
        work = tmp_path / "w"
        run_experiment(cfg, man, work, wav_root=root)
        feature_files = sorted((work / "cache").rglob("*.spbf"))
        stamps = [p.stat().st_mtime_ns for p in feature_files]
        run_experiment(cfg, man, work, wav_root=root)
        assert [p.stat().st_mtime_ns
                for p in feature_files] == stamps

    def test_ivector_backends(self, corpus, tmp_path):
        root, man = corpus
        cfg = _config(backends=("ivector-cosine", "ivector-plda"))
        result = run_experiment(cfg, man, tmp_path / "w", wav_root=root)
        assert result.report("clean", "ivector-cosine", "mfcc",
                             "eval") is not None
        assert result.report("clean", "ivector-plda", "mfcc",
                             "eval") is not None

    def test_per_attack_table_written(self, corpus, tmp_path):
        root, man = corpus
        cfg = _config()
        result = run_experiment(cfg, man, tmp_path / "w", wav_root=root)
        table = (result.work_dir / "per_attack.tsv").read_text()
        assert "vc16" in table and "vc24" in table
        assert "macro-average" in table

    def test_logistic_fusion_needs_dev(self, corpus, tmp_path, monkeypatch,
                                       in_process):
        root, man = corpus
        eval_only = Manifest(tuple(r for r in man if r.subset != "dev"))
        cfg = _config(features=("mfcc", "cosphase"), fusion=("logistic",))
        extracted = _counting(monkeypatch, features, "extract")
        with pytest.raises(ValueError, match="needs a dev subset"):
            run_experiment(cfg, eval_only, tmp_path / "w", wav_root=root)
        assert extracted == []

    def test_missing_wav_fails_before_compute(self, corpus, tmp_path):
        root, man = corpus
        broken = Manifest(tuple(man.rows[:-1]) + (
            ManifestRow("ghost", "wav/eval/ghost.wav", "human", "-",
                        "eval"),))
        with pytest.raises(FileNotFoundError):
            run_experiment(_config(), broken, tmp_path / "w", wav_root=root)

    def test_enhancement_changes_condition_and_scores(self, corpus,
                                                      tmp_path):
        root, man = corpus
        plain = run_experiment(_config(), man, tmp_path / "a",
                               wav_root=root)
        enh = run_experiment(_config(enhancement="specsub-mag"), man,
                             tmp_path / "b", wav_root=root)
        assert enh.rows[0].cell_tag == "clean+specsub-mag"
        s_plain = read_scores(plain.rows[0].scores_path)
        s_enh = read_scores(enh.rows[0].scores_path)
        assert not np.array_equal(s_plain.scores, s_enh.scores)


class TestCleanVad:
    def test_noisy_features_use_clean_frame_selection(self, corpus):
        root, man = corpus
        row = man.subset("eval").rows[0]
        fcfg = features.FeatureConfig("mfcc")
        clean = read_wav(root / row.wav_path)
        noisy = harness.prepare_signal(clean, row.utt_id,
                                       GridCell("white", 0.0), None, 11)
        got = harness.extract_test_features(noisy, fcfg, clean)
        vad = features.compute_vad_mask(clean, fcfg)
        expected = features.extract(noisy, fcfg, vad=vad)
        assert np.array_equal(got, expected)
        # and that differs from letting the degraded signal pick frames
        own_vad = features.extract(noisy, fcfg)
        assert (own_vad.shape != expected.shape
                or not np.allclose(own_vad, expected))

    def test_clean_signal_selects_its_own_frames(self, corpus, monkeypatch):
        """prepare_signal hands back the clean source when there is nothing
        to do, and that source is framed by its own voicing decisions."""
        root, man = corpus
        row = man.subset("eval").rows[0]
        fcfg = features.FeatureConfig("mfcc")
        clean = read_wav(root / row.wav_path)
        signal = harness.prepare_signal(clean, row.utt_id, GridCell(), None,
                                        11)
        assert signal is clean
        vads = _counting(monkeypatch, features, "compute_vad_mask")
        got = harness.extract_test_features(signal, fcfg, clean)
        assert np.array_equal(got, features.extract(clean, fcfg))
        assert vads == []


class TestBuildingBlocks:
    def test_train_gmm_pair_and_stack(self, corpus):
        root, man = corpus
        rows = man.subset("train").rows
        cfg = features.FeatureConfig("mfcc")
        feats = {r.utt_id: features.extract(read_wav(root / r.wav_path),
                                            cfg) for r in rows}
        nat, syn = harness.train_gmm_pair(feats, rows, 4, 3, 0, "mfcc")
        assert nat.means.shape == syn.means.shape
        stack, normed = harness.train_ivector_stack(
            feats, rows, ubm_components=4, tv_rank=4, tv_iterations=2,
            root_seed=0, kind="mfcc")
        assert normed.shape == (len(rows), 4)
        assert np.allclose(np.linalg.norm(normed, axis=1), 1.0)
        plda = ivector.train_plda(normed, [r.label for r in rows],
                                  latent_rank=2, n_iterations=2)
        w = harness.embed_ivector(stack, feats[rows[0].utt_id])
        assert w.shape == (4,)
        assert np.isclose(np.linalg.norm(w), 1.0)
        test_rows = man.subset("eval").rows
        frames = [features.extract(read_wav(root / r.wav_path), cfg)
                  for r in test_rows]
        models = {"ivector": (stack, [r.utt_id for r in rows]),
                  "plda": plda}
        sets = harness.score_utterances(
            test_rows, frames, models, ("ivector-cosine", "ivector-plda"),
            "mfcc", "clean")
        for scores in sets.values():
            assert scores.utt_ids == [r.utt_id for r in test_rows]
            assert np.isfinite(scores.scores).all()
        means = stack.class_means["human"], stack.class_means["spoof"]
        assert list(sets["ivector-cosine"].scores) == [
            ivector.detection_score(harness.embed_ivector(stack, f), *means)
            for f in frames]
        with pytest.raises(KeyError):
            harness.score_utterances(test_rows, frames,
                                     {"ivector": models["ivector"]},
                                     ("ivector-plda",), "mfcc", "clean")
        with pytest.raises(KeyError):
            harness.score_utterances(test_rows, frames, models, ("svm",),
                                     "mfcc", "clean")
        with pytest.raises(HygieneError):
            harness.score_utterances(rows, iter(()), models,
                                     ("ivector-cosine",), "mfcc", "clean")


class TestCacheVersion:
    def test_changed_salt_re_extracts(self, corpus, tmp_path, monkeypatch,
                                      in_process):
        root, man = corpus
        cfg = _config()
        calls = []
        extract = features.extract

        def counting(signal, config, vad=None):
            calls.append(config.kind)
            return extract(signal, config, vad=vad)

        monkeypatch.setattr(features, "extract", counting)
        work = tmp_path / "work"
        run_experiment(cfg, man, work, wav_root=root)
        cold = len(calls)
        assert cold > 0
        run_experiment(cfg, man, work, wav_root=root)
        assert len(calls) == cold
        monkeypatch.setattr(harness, "CACHE_VERSION", harness.CACHE_VERSION + 1)
        run_experiment(cfg, man, work, wav_root=root)
        assert len(calls) == 2 * cold


class TestNonFiniteScores:
    def test_error_names_utterance_feature_backend_and_condition(
            self, corpus, tmp_path, monkeypatch):
        root, man = corpus
        llr_score = gmm.llr_score
        calls = []

        def nan_on_third(frames, nat, syn):
            calls.append(None)
            return np.nan if len(calls) == 3 else llr_score(frames, nat, syn)

        monkeypatch.setattr(gmm, "llr_score", nan_on_third)
        cfg = _config(grid=(GridCell("white", 0.0),))
        with pytest.raises(ValueError) as err:
            run_experiment(cfg, man, tmp_path / "w", wav_root=root)
        message = str(err.value)
        # the first scored subset is dev, so the third call is its third row
        for part in (man.subset("dev").rows[2].utt_id, "feature mfcc",
                     "back-end gmm", "condition white_0dB"):
            assert part in message


class TestTempFiles:
    def test_leftover_fixed_temp_names_are_left_alone(self, corpus,
                                                      tmp_path):
        """Another run's temp files, under the fixed names a writer used to
        share, are neither clobbered nor renamed into the cache."""
        root, man = corpus
        cfg = _config(grid=(GridCell(), GridCell("white", 0.0)))
        ref = run_experiment(cfg, man, tmp_path / "ref", wav_root=root)
        cached = {p.relative_to(ref.work_dir)
                  for p in (ref.work_dir / "cache").rglob("*") if p.is_file()}
        work = tmp_path / "work"
        planted = []
        for rel in sorted(cached):
            if rel.suffix != ".spbf":
                continue
            leftover = work / rel.with_name(rel.name + ".tmp")
            leftover.parent.mkdir(parents=True, exist_ok=True)
            leftover.write_bytes(b"partial file of another run")
            planted.append(leftover)
        assert any(p.name.endswith(".spbf.tmp") for p in planted)

        result = run_experiment(cfg, man, work, wav_root=root)
        for p in planted:
            assert p.read_bytes() == b"partial file of another run"
        left = {p.relative_to(work)
                for p in (work / "cache").rglob("*") if p.is_file()}
        assert left == cached | {p.relative_to(work) for p in planted}
        for a, b in zip(ref.rows, result.rows):
            assert a.scores_path.read_bytes() == b.scores_path.read_bytes()


class TestFileModes:
    def test_cache_files_get_the_umask_default_mode(self, corpus, tmp_path):
        """Cached features, models and PLDA scorers are created as open()
        creates a file, so under umask 022 any user can read them."""
        root, man = corpus
        old = os.umask(0o022)
        try:
            run_experiment(_config(backends=("gmm", "ivector-plda")), man,
                           tmp_path / "w", wav_root=root)
        finally:
            os.umask(old)
        cache = tmp_path / "w" / "cache"
        for pattern in ("features/*/*.spbf", "models/*/human.gmm",
                        "models/*/plda.*.spl"):
            paths = list(cache.glob(pattern))
            assert paths, pattern
            for path in paths:
                assert stat.S_IMODE(path.stat().st_mode) == 0o644, path


class TestModelDirs:
    def test_every_file_is_renamed_into_place_marker_last(
            self, corpus, tmp_path, monkeypatch, in_process):
        """Each model file arrives by rename from a temp file, and the
        training list, which marks a directory complete, arrives last."""
        root, man = corpus
        renamed = []
        replace = harness.os.replace

        def recording(src, dst):
            dst = harness.Path(dst)
            renamed.append((dst, (dst.parent / harness.TRAIN_IDS).exists()))
            return replace(src, dst)

        monkeypatch.setattr(harness.os, "replace", recording)
        work = tmp_path / "w"
        run_experiment(_config(backends=("gmm", "ivector-cosine")), man, work,
                       wav_root=root)
        model_dirs = sorted((work / "cache" / "models").iterdir())
        assert len(model_dirs) == 2
        listing = "".join(r.utt_id + "\n" for r in man.subset("train").rows)
        for model_dir in model_dirs:
            mine = [(dst, seen) for dst, seen in renamed
                    if dst.parent == model_dir]
            assert {dst for dst, _ in mine} == set(model_dir.iterdir())
            assert mine[-1][0].name == harness.TRAIN_IDS
            assert not any(seen for _, seen in mine)
            assert (model_dir / harness.TRAIN_IDS).read_text() == listing

    def test_empty_training_list_is_refused(self, tmp_path):
        model = gmm.GmmModel(np.ones(1), np.zeros((1, 2)), np.ones((1, 2)))
        harness.save_gmm_pair(tmp_path / "m", model, model, [])
        with pytest.raises(ValueError, match="no training utterances"):
            harness.load_gmm_pair(tmp_path / "m")


class TestTestAudio:
    def test_cold_run_prepares_each_utterance_once_in_memory(
            self, corpus, tmp_path, monkeypatch, in_process):
        """Noisy and enhanced test audio is mixed and enhanced once per
        (cell, utterance) for all features together, and never stored."""
        root, man = corpus
        cfg = _config(features=("mfcc", "cosphase"), enhancement="wiener",
                      grid=(GridCell(), GridCell("white", 0.0)))
        mixed = _counting(monkeypatch, harness, "mix_condition")
        enhanced = _counting(monkeypatch, harness, "enhance")
        work = tmp_path / "w"
        run_experiment(cfg, man, work, wav_root=root)
        scored = [r.utt_id for r in man if r.subset != "train"]
        assert sorted(args[3] for args in mixed) == sorted(scored)
        assert len(enhanced) == len(cfg.grid) * len(scored)
        assert list(work.rglob("*.wav")) == []
        assert not (work / "cache" / "audio").exists()


class TestModelReuse:
    def test_warm_run_reads_each_model_once(self, corpus, tmp_path,
                                            monkeypatch):
        """A warm grid over two conditions and two subsets loads every
        model file once and builds each i-vector stack's Gram blocks once."""
        root, man = corpus
        kinds = ("mfcc", "cosphase")
        cfg = _config(features=kinds,
                      backends=("gmm", "ivector-cosine", "ivector-plda"),
                      grid=(GridCell(), GridCell("white", 10.0)))
        work = tmp_path / "w"
        cold = run_experiment(cfg, man, work, wav_root=root)

        loaders = ((gmm, "load_gmm"), (ivector, "load_tv"),
                   (ivector, "load_wccn"), (ivector, "load_plda"),
                   (ivector, "load_ivectors"))
        calls = {name: _counting(monkeypatch, module, name)
                 for module, name in loaders + ((ivector, "gram_blocks"),)}

        warm = run_experiment(cfg, man, work, wav_root=root)
        # both i-vector back-ends of a feature share one stack
        assert len(calls["gram_blocks"]) == len(kinds)
        reads = [str(args[0]) for _, name in loaders
                 for args in calls[name]]
        assert len(reads) == len(set(reads))
        # per feature: 2 class GMMs, then the stack's UBM, TV, WCCN and
        # class means, plus the PLDA model of ivector-plda
        assert len(reads) == len(kinds) * (2 + 4 + 1)
        for a, b in zip(cold.rows, warm.rows):
            assert a.scores_path.read_bytes() == b.scores_path.read_bytes()


class TestSharedStack:
    ALL_BACKENDS = ("gmm", "ivector-cosine", "ivector-plda")

    def test_warm_grid_reads_and_embeds_each_utterance_once(
            self, corpus, tmp_path, monkeypatch):
        root, man = corpus
        kinds = ("mfcc", "cosphase")
        cfg = _config(features=kinds, backends=self.ALL_BACKENDS,
                      grid=(GridCell(), GridCell("white", 10.0)),
                      fusion=("average",))
        work = tmp_path / "w"
        cold = run_experiment(cfg, man, work, wav_root=root)
        reads = _counting(monkeypatch, harness, "read_features")
        embeds = _counting(monkeypatch, harness, "embed_ivector")
        warm = run_experiment(cfg, man, work, wav_root=root)
        scored = len(man.subset("dev").rows) + len(man.subset("eval").rows)
        per_pass = len(cfg.grid) * len(kinds) * scored
        assert len(reads) == per_pass
        assert len({str(a[0]) for a in reads}) == per_pass
        assert len(embeds) == per_pass
        for a, b in zip(cold.rows, warm.rows):
            assert a.scores_path.read_bytes() == b.scores_path.read_bytes()

    def test_cold_grid_reads_each_feature_file_once(self, corpus, tmp_path,
                                                    monkeypatch, in_process):
        """Extraction writes every feature file once, and training and
        scoring read each one back once: the GMM pair and the i-vector
        stack of a feature train on one read of its training frames."""
        root, man = corpus
        kinds = ("mfcc", "cosphase")
        cfg = _config(features=kinds, backends=self.ALL_BACKENDS,
                      grid=(GridCell(), GridCell("white", 10.0)))
        reads = _counting(monkeypatch, harness, "read_features")
        extracted = _counting(monkeypatch, features, "extract")
        run_experiment(cfg, man, tmp_path / "w", wav_root=root)
        written = sorted(str(p) for p in
                         (tmp_path / "w" / "cache").rglob("*.spbf"))
        assert sorted(str(args[0]) for args in reads) == written
        scored = len(man.subset("dev").rows) + len(man.subset("eval").rows)
        trained = len(man.subset("train").rows)
        assert len(extracted) == len(kinds) * (trained
                                               + len(cfg.grid) * scored)

    def test_cold_grid_trains_one_stack_per_feature(self, corpus, tmp_path,
                                                    monkeypatch, in_process):
        root, man = corpus
        kinds = ("mfcc", "cosphase")
        cfg = _config(features=kinds,
                      backends=("ivector-cosine", "ivector-plda"))
        tv = _counting(monkeypatch, ivector, "train_tv")
        plda = _counting(monkeypatch, ivector, "train_plda")
        run_experiment(cfg, man, tmp_path / "w", wav_root=root)
        assert len(tv) == len(kinds)
        assert len(plda) == len(kinds)

    def test_cached_stack_gains_plda_later(self, corpus, tmp_path,
                                           monkeypatch, in_process):
        """A cosine-only run trains no PLDA; a later PLDA run on the same
        work dir trains only the PLDA and leaves the cosine scores alone."""
        root, man = corpus
        work = tmp_path / "w"
        gmm_calls = _counting(monkeypatch, gmm, "train_gmm")
        tv = _counting(monkeypatch, ivector, "train_tv")
        plda = _counting(monkeypatch, ivector, "train_plda")
        run_experiment(_config(backends=("ivector-cosine",)), man, work,
                       wav_root=root)
        assert plda == [] and len(tv) == 1
        cosine = _score_bytes(work)
        del gmm_calls[:], tv[:]
        reads = _counting(monkeypatch, harness, "read_features")
        run_experiment(_config(backends=("ivector-cosine", "ivector-plda")),
                       man, work, wav_root=root)
        assert len(plda) == 1
        assert gmm_calls == [] and tv == []
        # PLDA trains on the stack's stored i-vectors, not on frames
        scored = {r.utt_id for r in man if r.subset != "train"}
        assert sorted(harness.Path(args[0]).name.split(".")[0]
                      for args in reads) == sorted(scored)
        after = _score_bytes(work)
        assert {k: after[k] for k in cosine} == cosine
        assert any("ivector-plda" in str(k) for k in after)

    def test_plda_scores_match_a_fresh_work_dir(self, corpus, tmp_path):
        """PLDA trained later from the stored training i-vectors scores
        exactly like PLDA trained in the same run as its stack."""
        root, man = corpus
        both = _config(backends=("ivector-cosine", "ivector-plda"))
        later = tmp_path / "later"
        run_experiment(_config(backends=("ivector-cosine",)), man, later,
                       wav_root=root)
        run_experiment(both, man, later, wav_root=root)
        fresh = tmp_path / "fresh"
        run_experiment(both, man, fresh, wav_root=root)
        assert _score_bytes(later) == _score_bytes(fresh)
        assert (later / "summary.tsv").read_bytes() == \
            (fresh / "summary.tsv").read_bytes()


class TestCorpusFingerprint:
    def test_edited_wav_re_extracts(self, corpus, tmp_path, monkeypatch,
                                    in_process):
        """Rewriting a train wav under the same manifest invalidates the
        features and models that depend on it."""
        root, man = corpus
        copy = tmp_path / "corpus"
        shutil.copytree(root, copy)
        cfg = _config(backends=("gmm", "ivector-cosine"))
        work = tmp_path / "w"
        run_experiment(cfg, man, work, wav_root=copy)
        before = _score_bytes(work)

        row = man.subset("train").rows[0]
        old = read_wav(copy / row.wav_path)
        rng = np.random.default_rng(0)
        noisy = old.samples + 0.05 * rng.standard_normal(len(old.samples))
        write_wav(copy / row.wav_path,
                  AudioSignal(np.clip(noisy, -1.0, 1.0), old.sample_rate))
        extracted = _counting(monkeypatch, features, "extract")
        run_experiment(cfg, man, work, wav_root=copy)
        assert extracted
        after = _score_bytes(work)
        assert after.keys() == before.keys()
        assert after != before


_PYTEST_PID = os.getpid()


def _dies_in_a_worker(wav_path, utt_id, cell, enhancement, root_seed, todo):
    """An extraction job whose worker is killed with status 137, as the
    kernel's OOM killer would; in the test's own process it returns."""
    if utt_id == "u0" and os.getpid() != _PYTEST_PID:
        os._exit(137)


def _fails(message):
    raise ValueError(message)


def _sleeps(seconds):
    time.sleep(seconds)


def _touch(path):
    path.touch()


def _tree_bytes(work):
    return {p.relative_to(work): p.read_bytes()
            for p in sorted(work.rglob("*")) if p.is_file()}


class TestExtractionStage:
    """Every missing feature file is extracted in one stage before any
    training or scoring, in this process or across worker processes."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_names_utterance_feature_and_condition(
            self, corpus, tmp_path, monkeypatch, workers):
        root, man = corpus
        copy = tmp_path / "corpus"
        shutil.copytree(root, copy)
        write_wav(copy / "wav" / "eval" / "tiny.wav",
                  AudioSignal(0.1 * np.ones(100), 16000))
        tiny = ManifestRow("tiny", "wav/eval/tiny.wav", "human", "-", "eval")
        monkeypatch.setattr(harness, "_worker_count",
                            lambda n_jobs: min(n_jobs, workers))
        work = tmp_path / "w"
        with pytest.raises(EmptyFeaturesError) as err:
            run_experiment(_config(features=("mfcc", "cosphase")),
                           Manifest(man.rows + (tiny,)), work, wav_root=copy)
        for part in ("utterance tiny", "feature mfcc", "condition clean"):
            assert part in str(err.value)
        assert list((work / "cache").rglob("*.tmp")) == []
        assert multiprocessing.active_children() == []

    def test_dead_worker_names_the_first_unfinished_job(self, monkeypatch):
        monkeypatch.setattr(harness, "_worker_count", lambda n_jobs: 2)
        cell = GridCell("white", 0.0)
        todo = [("mfcc", None, None), ("rps", None, None)]
        jobs = [(_dies_in_a_worker, (None, f"u{i}", cell, "wiener", 0, todo),
                 (), harness._job_context(f"u{i}", "mfcc,rps", cell,
                                          "wiener"))
                for i in range(3)]
        with pytest.raises(BrokenProcessPool) as err:
            harness._run_jobs(jobs)
        assert str(err.value).endswith(
            "(utterance u0, feature mfcc,rps, condition "
            f"{condition_tag(cell, 'wiener')})")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_job_after_a_failed_job_never_starts(self, tmp_path, monkeypatch,
                                                 workers):
        monkeypatch.setattr(harness, "_worker_count",
                            lambda n_jobs: min(n_jobs, workers))
        # the first job is still running when the third could start
        jobs = [(_sleeps, (0.5,), (), "first"),
                (_fails, ("bad input",), (), "second"),
                (_touch, (tmp_path / "third",), (1,), "third")]
        with pytest.raises(ValueError, match="bad input"):
            harness._run_jobs(jobs)
        assert not (tmp_path / "third").exists()
        assert multiprocessing.active_children() == []

    def test_same_bytes_for_one_and_two_workers(self, corpus, tmp_path,
                                                monkeypatch):
        root, man = corpus
        cfg = _config(features=("mfcc", "rps", "cosphase"),
                      backends=("gmm", "ivector-plda"), enhancement="wiener",
                      grid=(GridCell(), GridCell("white", 0.0)))
        pools = []

        class Recording(harness.ProcessPoolExecutor):
            def __init__(self, n_workers, **kwargs):
                pools.append(n_workers)
                super().__init__(n_workers, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", Recording)
        trained = _counting(monkeypatch, harness, "train_model")
        trees, trained_here = [], []
        for workers in (1, 2):
            monkeypatch.setattr(harness, "_worker_count",
                                lambda n_jobs: min(n_jobs, workers))
            del trained[:]
            run_experiment(cfg, man, tmp_path / str(workers), wav_root=root)
            trees.append(_tree_bytes(tmp_path / str(workers)))
            trained_here.append(len(trained))
        # one pool per cold run, which trains the models too
        assert pools == [2]
        assert trained_here == [3 * 3, 0]
        scored = len([r for r in man if r.subset != "train"])
        assert len(list((tmp_path / "2" / "cache").rglob("*.spbf"))) == 3 * (
            len(man.subset("train").rows) + len(cfg.grid) * scored)
        assert trees[0].keys() == trees[1].keys()
        for rel in trees[0]:
            assert trees[0][rel] == trees[1][rel], rel

    def test_warm_run_extracts_nothing(self, corpus, tmp_path, monkeypatch):
        root, man = corpus
        cfg = _config(backends=("gmm", "ivector-cosine"),
                      grid=(GridCell(), GridCell("white", 0.0)))
        work = tmp_path / "w"
        run_experiment(cfg, man, work, wav_root=root)
        asked = _counting(monkeypatch, harness, "_worker_count")
        extracted = _counting(monkeypatch, features, "extract")
        run_experiment(cfg, man, work, wav_root=root)
        assert extracted == []
        assert max(args[0] for args in asked) == 0

    def test_deleted_feature_file_is_the_only_job(self, corpus, tmp_path,
                                                  monkeypatch, in_process):
        root, man = corpus
        cfg = _config(features=("mfcc", "cosphase"),
                      grid=(GridCell(), GridCell("white", 0.0)))
        work = tmp_path / "w"
        run_experiment(cfg, man, work, wav_root=root)
        before = _score_bytes(work)
        row = man.subset("eval").rows[3]
        # one of its two files, one per condition
        lost = sorted((work / "cache").rglob(f"{row.utt_id}.cosphase.spbf"))[0]
        lost.unlink()
        jobs = _counting(monkeypatch, harness, "_extract_job")
        extracted = _counting(monkeypatch, features, "extract")
        run_experiment(cfg, man, work, wav_root=root)
        assert len(jobs) == 1 and len(extracted) == 1
        (kind, _, path), = jobs[0][5]
        assert (jobs[0][1], kind, path) == (row.utt_id, "cosphase", lost)
        assert lost.is_file()
        assert _score_bytes(work) == before

    def test_deleted_gmm_dir_trains_without_extracting(
            self, corpus, tmp_path, monkeypatch, in_process):
        root, man = corpus
        cfg = _config(backends=("gmm", "ivector-cosine"))
        work = tmp_path / "w"
        run_experiment(cfg, man, work, wav_root=root)
        before = _score_bytes(work)
        gmm_dir = next((work / "cache" / "models").glob("*/human.gmm")).parent
        shutil.rmtree(gmm_dir)
        extracted = _counting(monkeypatch, features, "extract")
        trained = _counting(monkeypatch, gmm, "train_gmm")
        tv = _counting(monkeypatch, ivector, "train_tv")
        run_experiment(cfg, man, work, wav_root=root)
        assert extracted == [] and tv == []
        assert len(trained) == 2
        assert (gmm_dir / harness.TRAIN_IDS).is_file()
        assert _score_bytes(work) == before


class TestTrainingStage:
    """Every missing model is trained, in one job per feature, before any
    utterance is scored; scoring reads models only from the cache."""

    def test_cold_run_trains_everything_before_scoring(self, corpus,
                                                       tmp_path, monkeypatch,
                                                       in_process):
        root, man = corpus
        kinds = ("mfcc", "cosphase")
        cfg = _config(features=kinds,
                      backends=("gmm", "ivector-cosine", "ivector-plda"))
        events = []
        for module, name in ((harness, "train_gmm_pair"),
                             (harness, "train_ivector_stack"),
                             (ivector, "train_plda"), (gmm, "llr_score"),
                             (harness, "embed_ivector")):
            original = getattr(module, name)

            def recording(*args, _name=name, _original=original, **kwargs):
                events.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, recording)
        run_experiment(cfg, man, tmp_path / "w", wav_root=root)
        trains = ("train_gmm_pair", "train_ivector_stack", "train_plda")
        first_score = min(events.index(name)
                          for name in ("llr_score", "embed_ivector"))
        assert [e for e in events if e in trains] == list(trains) * len(kinds)
        assert all(e not in trains for e in events[first_score:])

    def test_failure_names_the_feature_and_the_model(self, corpus, tmp_path,
                                                     monkeypatch):
        root, man = corpus

        def degenerate(*args, **kwargs):
            raise DegenerateVectorError("cannot length-normalize a zero "
                                        "vector")
        monkeypatch.setattr(ivector, "train_tv", degenerate)
        cfg = _config(features=("cosphase",), backends=("ivector-cosine",))
        work = tmp_path / "w"
        with pytest.raises(DegenerateVectorError) as err:
            run_experiment(cfg, man, work, wav_root=root)
        assert "(feature cosphase, model ivector)" in str(err.value)
        marker = harness._Runner(cfg, man, work, root)._model_files(
            "cosphase")["ivector"]
        assert marker.name == harness.TRAIN_IDS and not marker.exists()

    def test_failure_in_a_worker_names_the_feature_and_the_model(
            self, corpus, tmp_path, monkeypatch):
        root, man = corpus

        def degenerate_in_a_worker(*args, **kwargs):
            assert os.getpid() != _PYTEST_PID, "trained in the run process"
            raise DegenerateVectorError("cannot length-normalize a zero "
                                        "vector")
        monkeypatch.setattr(ivector, "train_tv", degenerate_in_a_worker)
        monkeypatch.setattr(harness, "_worker_count",
                            lambda n_jobs: min(n_jobs, 2))
        work = tmp_path / "w"
        with pytest.raises(DegenerateVectorError) as err:
            run_experiment(_config(features=("cosphase",),
                                   backends=("ivector-cosine",)),
                           man, work, wav_root=root)
        assert "(feature cosphase, model ivector)" in str(err.value)
        assert list((work / "cache").rglob("*.tmp")) == []
        assert multiprocessing.active_children() == []

    def test_dead_worker_names_the_feature_and_the_model(self, corpus,
                                                         tmp_path,
                                                         monkeypatch):
        """A worker killed with status 137 inside a training job breaks the
        pool, which is re-raised naming the job's feature and model."""
        root, man = corpus
        work = tmp_path / "w"
        # a GMM-only run extracts every feature file, so the i-vector run's
        # one job trains the stack
        run_experiment(_config(features=("cosphase",)), man, work,
                       wav_root=root)
        train_tv = ivector.train_tv

        def dies_in_a_worker(*args, **kwargs):
            if os.getpid() != _PYTEST_PID:
                os._exit(137)
            return train_tv(*args, **kwargs)
        monkeypatch.setattr(ivector, "train_tv", dies_in_a_worker)
        monkeypatch.setattr(harness, "_worker_count", lambda n_jobs: 2)
        with pytest.raises(BrokenProcessPool) as err:
            run_experiment(_config(features=("cosphase",),
                                   backends=("ivector-cosine",)),
                           man, work, wav_root=root)
        assert str(err.value).endswith("(feature cosphase, model ivector)")
        assert list((work / "cache").rglob("*.tmp")) == []
        assert multiprocessing.active_children() == []

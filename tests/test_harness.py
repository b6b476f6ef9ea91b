import multiprocessing
import os
import pickle
import shutil
import stat
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings, strategies as st

from reference import (baum_welch_stats_oracle, detection_score_oracle,
                       embed_ivector_oracle, ivector_from_stats_oracle,
                       llr_score_oracle, plda_detection_score_oracle)
from spoofbench import cli, features, gmm, harness, ivector
from spoofbench.audio import AudioSignal, read_wav, write_wav
from spoofbench.config import ExperimentConfig, GridCell
from spoofbench.errors import (DegenerateVectorError, EmptyFeaturesError,
                               HygieneError)
from spoofbench.fusion import fuse_average
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
    """Extract, train and score in this process, so that call counts see
    every extraction, training and scoring call."""
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
                                          monkeypatch, in_process):
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

    @pytest.mark.parametrize("subset, dropped", [("eval", "spoof"),
                                                 ("dev", "human")])
    def test_one_class_subset_fails_before_any_job(self, corpus, tmp_path,
                                                   subset, dropped):
        """A scored subset with one class is refused by name before any
        feature is extracted or any score file written: its EER needs a
        target and a non-target trial."""
        root, man = corpus
        one_class = Manifest(tuple(
            r for r in man if (r.subset, r.label) != (subset, dropped)))
        work = tmp_path / "w"
        with pytest.raises(ValueError) as err:
            run_experiment(_config(), one_class, work, wav_root=root)
        assert str(err.value) == (f"the {subset} subset has no {dropped} "
                                  f"utterances; its EER needs both classes")
        assert not (work / "cache").exists()
        assert list(tmp_path.rglob("*.tsv")) == []

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
    def test_stack_has_the_bits_of_per_utterance_oracle_stats(self, corpus,
                                                             tmp_path):
        """The i-vector stack a training job writes has the bits of one
        trained on statistics computed one utterance at a time by the
        oracle and stacked row by row: UBM, TV matrix, WCCN, class means
        and normed training i-vectors.  Every third utterance is cut to
        one frame, whose GEMM rows BLAS rounds differently."""
        root, man = corpus
        rows = man.subset("train").rows
        cfg = _config(backends=("ivector-cosine",))
        feats = [features.extract(read_wav(root / r.wav_path),
                                  cfg.feature_config("mfcc"))
                 for r in rows]
        feats = [u[:1] if i % 3 == 0 else u for i, u in enumerate(feats)]
        marker = tmp_path / "m" / harness.TRAIN_IDS
        harness.train_model("ivector", marker, rows, feats, None, cfg,
                            "mfcc")
        stack, train_ids = harness.load_ivector_stack(marker.parent)
        ids, normed = ivector.load_ivectors(marker.parent /
                                            "train_ivectors.txt")
        assert train_ids == ids == [r.utt_id for r in rows]

        seed = derive_seed(cfg.seed, "ivector", "mfcc")
        ubm, _ = gmm.train_gmm(np.vstack(feats), cfg.ubm_components,
                               n_iterations=10, seed=seed)
        n, f = (np.array(x) for x in zip(*(baum_welch_stats_oracle(u, ubm)
                                            for u in feats)))
        tv, _ = ivector.train_tv(n, f, ubm, cfg.tv_rank, cfg.tv_iterations,
                                 seed=derive_seed(seed, "tv"))
        raw = ivector.ivectors_from_stats(n, f, ubm, tv,
                                          ivector.gram_blocks(tv.matrix, ubm))
        labels = [r.label for r in rows]
        wccn = ivector.train_wccn(raw, labels)
        want = ivector.length_normalize(ivector.apply_wccn(wccn, raw))
        means = ivector.class_mean_ivectors(want, labels)
        for got, exp in ((stack.ubm.weights, ubm.weights),
                         (stack.ubm.means, ubm.means),
                         (stack.ubm.variances, ubm.variances),
                         (stack.tv.matrix, tv.matrix),
                         (stack.tv.mean, tv.mean), (stack.wccn, wccn),
                         (normed, want)):
            assert got.tobytes() == exp.tobytes()
        assert stack.class_means.keys() == means.keys()
        for label, mean in means.items():
            assert stack.class_means[label].tobytes() == mean.tobytes()

    def test_zero_training_ivector_names_its_utterance(self, corpus,
                                                       tmp_path):
        """A one-frame training utterance that is the only frame of a UBM
        component has zero centred statistics there, and here a zero
        i-vector; training fails naming it, the feature and the model."""
        root, man = corpus
        rows = man.subset("train").rows
        cfg = _config(backends=("ivector-cosine",))
        feats = [features.extract(read_wav(root / r.wav_path),
                                  cfg.feature_config("mfcc"))
                 for r in rows]
        feats = [u[:1] if i % 5 == 0 else u for i, u in enumerate(feats)]
        marker = tmp_path / "m" / harness.TRAIN_IDS
        with pytest.raises(DegenerateVectorError) as err:
            harness.train_model("ivector", marker, rows, feats, None, cfg,
                                "mfcc")
        assert str(err.value) == (
            "cannot length-normalize a zero i-vector (training utterance "
            f"{rows[5].utt_id}) (feature mfcc, model ivector)")
        assert not marker.exists()

    def test_train_gmm_pair_and_stack(self, corpus):
        root, man = corpus
        rows = man.subset("train").rows
        cfg = features.FeatureConfig("mfcc")
        feats = [features.extract(read_wav(root / r.wav_path), cfg)
                 for r in rows]
        nat, syn = harness.train_gmm_pair(feats, rows, 4, 3, 0, "mfcc")
        assert nat.means.shape == syn.means.shape
        stack, normed = harness.train_ivector_stack(
            feats, rows, ubm_components=4, tv_rank=4, tv_iterations=2,
            root_seed=0, kind="mfcc")
        assert normed.shape == (len(rows), 4)
        assert np.allclose(np.linalg.norm(normed, axis=1), 1.0)
        plda = ivector.train_plda(normed, [r.label for r in rows],
                                  latent_rank=2, n_iterations=2)
        w = embed_ivector_oracle(stack, feats[0])
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
        want = [detection_score_oracle(embed_ivector_oracle(stack, f), *means)
                for f in frames]
        assert np.abs(sets["ivector-cosine"].scores - want).max() <= (
            1e-12 * np.abs(want).max())
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
        monkeypatch.setitem(harness.CACHE_VERSIONS, "mfcc",
                            harness.CACHE_VERSIONS["mfcc"] + 1)
        run_experiment(cfg, man, work, wav_root=root)
        assert len(calls) == 2 * cold

    def test_every_kind_has_a_salt(self):
        assert tuple(harness.CACHE_VERSIONS) == features.FEATURE_KINDS
        # the key text of a kind at salt 3 is the text every salt-3 work
        # dir was keyed by
        text = harness._feature_text(features.FeatureConfig("rps"))
        assert text.startswith("cache_version=3,add_delta=None,")

    def test_bumped_kind_changes_only_its_own_directories(
            self, corpus, tmp_path, monkeypatch, in_process):
        root, man = corpus
        cfg = _config(features=("mfcc", "cosphase"),
                      backends=("gmm", "ivector-cosine"),
                      grid=(GridCell(), GridCell("white", 0.0)))
        work = tmp_path / "w"
        run_experiment(cfg, man, work, wav_root=root)
        cache = work / "cache"

        def dirs():
            return {p.relative_to(cache): _tree_bytes(p)
                    for p in cache.glob("*/*") if p.is_dir()}

        def own_dirs(kind):
            runner = harness._Runner(cfg, man, work, root)
            return ({runner._feature_dir(kind, cell, None).relative_to(cache)
                     for cell in cfg.grid}
                    | {p.parent.relative_to(cache)
                       for p in runner._model_files(kind).values()})

        before = dirs()
        assert set(before) == own_dirs("mfcc") | own_dirs("cosphase")
        old_cosphase = own_dirs("cosphase")
        monkeypatch.setitem(harness.CACHE_VERSIONS, "cosphase",
                            harness.CACHE_VERSIONS["cosphase"] + 1)
        extracted = _counting(monkeypatch, features, "extract")
        trained = _counting(monkeypatch, harness, "train_model")
        run_experiment(cfg, man, work, wav_root=root)
        after = dirs()
        assert {args[1].kind for args in extracted} == {"cosphase"}
        assert sorted((args[0], args[6]) for args in trained) == [
            ("gmm", "cosphase"), ("ivector", "cosphase")]
        new_cosphase = own_dirs("cosphase")
        assert not new_cosphase & old_cosphase
        assert set(after) == set(before) | new_cosphase
        # every directory of the salt-3 run, mfcc's included, is as it was
        assert {rel: after[rel] for rel in before} == before


class TestNonFiniteScores:
    def test_error_names_utterance_feature_backend_and_condition(
            self, corpus, tmp_path, monkeypatch):
        root, man = corpus
        llr_scores = gmm.llr_scores
        calls = []

        def nan_on_third(utterances, nat, syn):
            calls.append(None)
            scores = llr_scores(utterances, nat, syn)
            if len(calls) == 1:
                scores[2] = np.nan
            return scores

        monkeypatch.setattr(gmm, "llr_scores", nan_on_third)
        cfg = _config(grid=(GridCell("white", 0.0),))
        with pytest.raises(ValueError) as err:
            run_experiment(cfg, man, tmp_path / "w", wav_root=root)
        message = str(err.value)
        # the first scored subset is dev, so the first chunk's third score
        # is its third row
        for part in (man.subset("dev").rows[2].utt_id, "feature mfcc",
                     "back-end gmm", "condition white_0dB"):
            assert part in message


class TestModelKeys:
    """The i-vector stack's key carries its own salt; GMM pair and feature
    keys are those every earlier work dir was keyed by."""

    def _runner(self, corpus, tmp_path):
        root, man = corpus
        cfg = _config(features=("mfcc", "cosphase"),
                      backends=("gmm", "ivector-cosine", "ivector-plda"),
                      grid=(GridCell(), GridCell("white", 0.0)))
        return harness._Runner(cfg, man, tmp_path / "w", root)

    def test_gmm_and_feature_keys_are_pinned(self, corpus, tmp_path):
        runner = self._runner(corpus, tmp_path)
        keys = {kind: (runner._model_files(kind)["gmm"].parent.name,
                       [runner._feature_dir(kind, cell, None).name
                        for cell in runner.config.grid])
                for kind in runner.config.features}
        assert keys == {
            "mfcc": ("d4a29a138bd1", ["23242a85ae4b", "37bbbc7342c3"]),
            "cosphase": ("4fc87dd7cd72", ["68d22fa9c293", "97e2ed3389aa"])}

    def test_stack_key_moves_with_its_salt(self, corpus, tmp_path,
                                           monkeypatch):
        runner = self._runner(corpus, tmp_path)
        files = runner._model_files("mfcc")
        assert files["ivector"].parent == files["plda"].parent
        assert files["ivector"].parent.name != "70ebb6917013"   # unsalted
        monkeypatch.setattr(harness, "IVECTOR_STACK_VERSION",
                            harness.IVECTOR_STACK_VERSION + 1)
        bumped = runner._model_files("mfcc")
        assert bumped["gmm"] == files["gmm"]
        assert bumped["ivector"].parent != files["ivector"].parent

    def test_bumped_stack_salt_retrains_only_stacks_and_plda(
            self, corpus, tmp_path, monkeypatch, in_process):
        root, man = corpus
        cfg = self._runner(corpus, tmp_path).config
        work = tmp_path / "w"
        run_experiment(cfg, man, work, wav_root=root)
        monkeypatch.setattr(harness, "IVECTOR_STACK_VERSION",
                            harness.IVECTOR_STACK_VERSION + 1)
        extracted = _counting(monkeypatch, features, "extract")
        trained = _counting(monkeypatch, harness, "train_model")
        run_experiment(cfg, man, work, wav_root=root)
        assert extracted == []
        assert sorted((args[0], args[6]) for args in trained) == [
            ("ivector", "cosphase"), ("ivector", "mfcc"),
            ("plda", "cosphase"), ("plda", "mfcc")]


def _scoring_models(seed, dim=3, n_components=4, rank=3):
    """Random models for score_utterances: a GMM pair, an i-vector stack
    and a PLDA scorer, none trained, each with an empty training list."""
    rng = np.random.default_rng(seed)

    def mixture():
        w = rng.random(n_components) + 0.5
        return gmm.GmmModel(w / w.sum(),
                            rng.uniform(-2.0, 2.0, (n_components, dim)),
                            rng.uniform(0.5, 1.5, (n_components, dim)))

    ubm = mixture()
    size = n_components * dim
    tv = ivector.TvMatrix(rng.standard_normal((size, rank)), ubm.means.ravel())
    stack = harness.IvectorStack(
        ubm, tv,
        np.tril(rng.standard_normal((rank, rank))) + 3.0 * np.eye(rank),
        {label: ivector.length_normalize(rng.standard_normal(rank))
         for label in ("human", "spoof")},
        ivector.gram_blocks(tv.matrix, ubm))
    root = rng.standard_normal((rank, rank))
    plda = ivector.PldaModel(rng.standard_normal(rank),
                             rng.standard_normal((rank, 2)),
                             root @ root.T + 0.5 * np.eye(rank))
    return {"gmm": (mixture(), mixture(), []), "ivector": (stack, []),
            "plda": plda}


def _scored_rows(n):
    return tuple(ManifestRow(f"u{i}", f"u{i}.wav",
                             "human" if i % 2 else "spoof",
                             "-" if i % 2 else "A1", "eval")
                 for i in range(n))


ALL_BACKENDS = ("gmm", "ivector-cosine", "ivector-plda")


class TestBatchedScoring:
    """Scoring a subset in chunks gives each utterance the scores of
    scoring it alone: the GMM scores to the bit, the i-vectors and the
    cosine and PLDA scores to 1e-12 of the largest |value|."""

    BUDGET = 16

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           lengths=st.lists(st.one_of(
               st.sampled_from([1, BUDGET - 1, BUDGET, BUDGET + 1,
                                3 * BUDGET]),
               st.integers(1, BUDGET)), min_size=1, max_size=12))
    @example(seed=0, lengths=[1, BUDGET - 1, BUDGET, 1, BUDGET + 1, 1,
                              3 * BUDGET, 2, 7])
    def test_chunks_match_per_utterance_oracles(self, seed, lengths):
        models = _scoring_models(seed)
        nat, syn, _ = models["gmm"]
        stack, _ = models["ivector"]
        rng = np.random.default_rng(seed)
        utts = [rng.standard_normal((t, 3)) * 2.0 for t in lengths]
        rows = _scored_rows(len(utts))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "_SCORE_CHUNK_FRAMES", self.BUDGET)
            chunks = _counting(mp, ivector, "batch_stats")
            sets = harness.score_utterances(rows, iter(utts), models,
                                            ALL_BACKENDS, "mfcc", "clean")
        # consecutive utterances, at most BUDGET frames a chunk unless one
        # utterance alone has more
        sizes = [[len(u) for u in args[0]] for args in chunks]
        assert sum(sizes, []) == lengths
        assert all(sum(s) <= self.BUDGET or len(s) == 1 for s in sizes)

        gmm_want = [llr_score_oracle(u, nat, syn) for u in utts]
        assert sets["gmm"].scores.tolist() == gmm_want
        # statistics keep their bits, so only the posterior solve moves
        stats = [ivector.batch_stats(args[0], stack.ubm) for args in chunks]
        n, f = (np.concatenate(x) for x in zip(*stats))
        for i, u in enumerate(utts):
            n_alone, f_alone = baum_welch_stats_oracle(u, stack.ubm)
            assert np.array_equal(n[i], n_alone)
            assert np.array_equal(f[i], f_alone)
        raw = ivector.ivectors_from_stats(n, f, stack.ubm, stack.tv,
                                          stack.gram)
        want = np.array([ivector_from_stats_oracle(n_i, f_i, stack.ubm,
                                                   stack.tv)
                         for n_i, f_i in zip(n, f)])
        assert np.abs(raw - want).max() <= 1e-12 * np.abs(want).max()
        embedded = np.array([embed_ivector_oracle(stack, u) for u in utts])
        means = stack.class_means["human"], stack.class_means["spoof"]
        cosine = [detection_score_oracle(w, *means) for w in embedded]
        assert np.abs(sets["ivector-cosine"].scores - cosine).max() <= (
            1e-12 * np.abs(cosine).max())
        # a PLDA score is a difference of log-densities and keeps their
        # rounding however small it is
        plda = [plda_detection_score_oracle(models["plda"], w, *means)
                for w in embedded]
        assert np.abs(sets["ivector-plda"].scores - plda).max() <= (
            1e-12 * max(1.0, np.abs(plda).max()))

    def _raises(self, utts, models, backends, error):
        with pytest.raises(error) as err:
            harness.score_utterances(_scored_rows(len(utts)), iter(utts),
                                     models, backends, "mfcc", "white_0dB")
        return str(err.value)

    def test_utterance_without_frames_is_named(self):
        models = _scoring_models(1)
        utts = [np.ones((4, 3)), np.ones((2, 3)), np.empty((0, 3)),
                np.empty((0, 3))]
        message = self._raises(utts, models, ALL_BACKENDS, ValueError)
        assert message == ("no frames to score (utterance u2, feature mfcc, "
                           "back-end gmm, condition white_0dB)")

    def test_wrong_dimension_is_named_before_stacking(self):
        models = _scoring_models(2)
        utts = [np.ones((4, 3)), np.ones((5, 4)), np.ones((5, 2))]
        message = self._raises(utts, models, ("ivector-plda",), ValueError)
        assert message == ("feature dim 4 != model dim 3 (utterance u1, "
                           "feature mfcc, back-end ivector-plda, "
                           "condition white_0dB)")

    def test_zero_ivector_is_named(self):
        models = _scoring_models(3)
        stack, _ = models["ivector"]
        # every UBM mean at zero: an all-zero utterance has zero centred
        # statistics and so a zero i-vector
        ubm = gmm.GmmModel(stack.ubm.weights, np.zeros_like(stack.ubm.means),
                           stack.ubm.variances)
        tv = ivector.TvMatrix(stack.tv.matrix, ubm.means.ravel())
        models["ivector"] = (harness.IvectorStack(
            ubm, tv, stack.wccn, stack.class_means,
            ivector.gram_blocks(tv.matrix, ubm)), [])
        utts = [np.ones((4, 3)), np.zeros((3, 3)), np.zeros((2, 3))]
        want = ("cannot length-normalize a zero i-vector (utterance u1, "
                "feature mfcc, back-end ivector-cosine, condition white_0dB)")
        assert self._raises(utts, models, ALL_BACKENDS,
                            DegenerateVectorError) == want
        # the first bad utterance in row order, though a later one in the
        # same chunk fails its frame check before the chunk is scored
        assert self._raises(utts + [np.empty((0, 3))], models, ALL_BACKENDS,
                            DegenerateVectorError) == want


    def test_back_end_sets_share_one_trial_list(self):
        """Every back-end's set, and a fusion of them, holds the columns of
        the first back-end's set."""
        utts = [np.ones((4, 3)), np.full((2, 3), 0.5), np.zeros((3, 3))]
        sets = harness.score_utterances(_scored_rows(len(utts)), iter(utts),
                                        _scoring_models(4), ALL_BACKENDS,
                                        "mfcc", "clean")
        first = sets[ALL_BACKENDS[0]]
        fused = fuse_average(list(sets.values()))
        for scores in (*sets.values(), fused):
            for column in ("utt_ids", "labels", "attack_ids", "conditions"):
                assert getattr(scores, column) is getattr(first, column)
        assert first.utt_ids == ["u0", "u1", "u2"]
        assert first.conditions == ["clean"] * 3


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
            self, corpus, tmp_path, monkeypatch, in_process):
        root, man = corpus
        kinds = ("mfcc", "cosphase")
        cfg = _config(features=kinds, backends=self.ALL_BACKENDS,
                      grid=(GridCell(), GridCell("white", 10.0)),
                      fusion=("average",))
        work = tmp_path / "w"
        cold = run_experiment(cfg, man, work, wav_root=root)
        reads = _counting(monkeypatch, harness, "read_features")
        embeds = _counting(monkeypatch, ivector, "batch_stats")
        warm = run_experiment(cfg, man, work, wav_root=root)
        scored = len(man.subset("dev").rows) + len(man.subset("eval").rows)
        per_pass = len(cfg.grid) * len(kinds) * scored
        assert len(reads) == per_pass
        assert len({str(a[0]) for a in reads}) == per_pass
        assert sum(len(a[0]) for a in embeds) == per_pass
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


def _returns_a_lambda():
    return lambda: 0


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
                pools.append((n_workers, kwargs.get("initializer")))
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
        # two pools per cold run: one extracts and trains, one scores the
        # two cells; their workers inherit the run's heap policy, so neither
        # has an initializer
        assert pools == [(2, None), (2, None)]
        assert trained_here == [3 * 3, 0]
        scored = len([r for r in man if r.subset != "train"])
        assert len(list((tmp_path / "2" / "cache").rglob("*.spbf"))) == 3 * (
            len(man.subset("train").rows) + len(cfg.grid) * scored)
        assert trees[0].keys() == trees[1].keys()
        for rel in trees[0]:
            assert trees[0][rel] == trees[1][rel], rel

    def test_warm_run_extracts_nothing(self, corpus, tmp_path, monkeypatch,
                                       in_process):
        root, man = corpus
        cfg = _config(backends=("gmm", "ivector-cosine"),
                      grid=(GridCell(), GridCell("white", 0.0)))
        work = tmp_path / "w"
        run_experiment(cfg, man, work, wav_root=root)
        planned = _counting(monkeypatch, harness, "_run_jobs")
        extracted = _counting(monkeypatch, features, "extract")
        run_experiment(cfg, man, work, wav_root=root)
        assert extracted == []
        # an empty extraction and training plan, then one job per cell
        jobs = [[(job[0].__func__, job[3]) for job in args[0]]
                for args in planned]
        assert jobs == [[], [(harness._Runner._score_cell,
                              f"condition {cell.tag}") for cell in cfg.grid]]

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


def _returns_after(seconds, value, log):
    """Sleep, note value in log as the job finishes, and return it."""
    time.sleep(seconds)
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(value + "\n")
    return value


def _parent_only(monkeypatch, module, name):
    """Replace module.name by a wrapper that fails in a pool worker."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        assert os.getpid() == _PYTEST_PID, f"{name} called in a worker"
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)


class TestCellStage:
    """Once every model is loaded, the grid's cells are scored, fused and
    evaluated side by side, one job per cell, in workers forked from the
    run process, which inherit its models and their derived terms."""

    CELLS = (GridCell(), GridCell("white", 0.0), GridCell("babble", 10.0))

    def test_same_bytes_for_one_and_two_workers(self, corpus, tmp_path,
                                                monkeypatch):
        root, man = corpus
        cfg = _config(features=("mfcc", "cosphase"),
                      backends=("gmm", "ivector-plda"),
                      fusion=("average", "logistic"), grid=self.CELLS)
        pools = []

        class Recording(harness.ProcessPoolExecutor):
            def __init__(self, n_workers, **kwargs):
                pools.append(n_workers)
                super().__init__(n_workers, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", Recording)
        trees = {}
        for workers in (1, 2):
            monkeypatch.setattr(harness, "_worker_count",
                                lambda n_jobs, w=workers: min(n_jobs, w))
            work = tmp_path / str(workers)
            run_experiment(cfg, man, work, wav_root=root)
            trees["cold", workers] = _tree_bytes(work)
            with monkeypatch.context() as mp:
                # a worker neither loads a model nor rebuilds Gram blocks
                for module, name in ((gmm, "load_gmm"), (ivector, "load_tv"),
                                     (ivector, "load_wccn"),
                                     (ivector, "load_plda"),
                                     (ivector, "load_ivectors"),
                                     (ivector, "gram_blocks")):
                    _parent_only(mp, module, name)
                run_experiment(cfg, man, work, wav_root=root)
            trees["warm", workers] = _tree_bytes(work)
        # cold at 2 workers: extraction and training, then the cells; warm
        # at 2 workers: the cells alone
        assert pools == [2, 2, 2]
        fusion = {f"{c}.{b}.logistic.txt" for c in ("clean", "white_0dB",
                                                    "babble_10dB")
                  for b in cfg.backends}
        tree = trees["cold", 1]
        assert {p.name for p in tree
                if p.parts[:2] == ("models", "fusion")} == fusion
        assert {"summary.tsv", "per_attack.tsv"} <= {str(p) for p in tree}
        # 3 cells x 2 back-ends x (2 features + 2 fusions) x 2 subsets
        assert len([p for p in tree if p.parts[0] == "scores"]) == 48
        for key, other in trees.items():
            assert other.keys() == tree.keys(), key
            for rel in tree:
                assert other[rel] == tree[rel], (key, rel)
        assert multiprocessing.active_children() == []

    def _warm_failure(self, corpus, tmp_path, monkeypatch, backends, error,
                      module, name, in_a_worker):
        """The error of a warm 2-worker run over two cells, with module.name
        replaced by in_a_worker(original) and the first cell, clean, scored
        last."""
        root, man = corpus
        cfg = _config(backends=backends, grid=self.CELLS[:2])
        work = tmp_path / "w"
        run_experiment(cfg, man, work, wav_root=root)
        monkeypatch.setattr(module, name, in_a_worker(getattr(module, name)))
        score_utterances = harness.score_utterances

        def clean_last(rows, frames, models, backends, kind, condition):
            if condition == "clean":
                time.sleep(0.5)
            return score_utterances(rows, frames, models, backends, kind,
                                    condition)
        monkeypatch.setattr(harness, "score_utterances", clean_last)
        monkeypatch.setattr(harness, "_worker_count", lambda n_jobs: 2)
        with pytest.raises(error) as err:
            run_experiment(cfg, man, work, wav_root=root)
        assert list((work / "cache").rglob("*.tmp")) == []
        assert multiprocessing.active_children() == []
        return str(err.value)

    def test_non_finite_score_in_a_worker_names_the_first_cell(
            self, corpus, tmp_path, monkeypatch):
        def nan_in_a_worker(llr_scores):
            def patched(utterances, nat, syn):
                scores = llr_scores(utterances, nat, syn)
                if os.getpid() != _PYTEST_PID:
                    scores[2] = np.nan
                return scores
            return patched
        message = self._warm_failure(corpus, tmp_path, monkeypatch, ("gmm",),
                                     ValueError, gmm, "llr_scores",
                                     nan_in_a_worker)
        utt_id = corpus[1].subset("dev").rows[2].utt_id
        assert message == (f"non-finite score nan for trial {utt_id} "
                           f"(feature mfcc, back-end gmm, condition clean)")

    def test_zero_ivector_in_a_worker_names_the_first_cell(
            self, corpus, tmp_path, monkeypatch):
        def zero_in_a_worker(ivectors_from_stats):
            def patched(*args):
                raw = ivectors_from_stats(*args)
                if os.getpid() != _PYTEST_PID:
                    raw[1] = 0.0
                return raw
            return patched
        message = self._warm_failure(corpus, tmp_path, monkeypatch,
                                     ("gmm", "ivector-cosine"),
                                     DegenerateVectorError, ivector,
                                     "ivectors_from_stats", zero_in_a_worker)
        utt_id = corpus[1].subset("dev").rows[1].utt_id
        assert message == ("cannot length-normalize a zero i-vector "
                           f"(utterance {utt_id}, feature mfcc, back-end "
                           "ivector-cosine, condition clean)")

    def test_dead_worker_names_the_condition(self, corpus, tmp_path,
                                             monkeypatch):
        """A worker killed with status 137 while it scores a cell breaks
        the pool, which is re-raised naming the first unfinished cell."""
        root, man = corpus
        cfg = _config(grid=self.CELLS[:2], enhancement="wiener")
        work = tmp_path / "w"
        run_experiment(cfg, man, work, wav_root=root)
        score_utterances = harness.score_utterances

        def dies_in_a_worker(*args):
            if os.getpid() != _PYTEST_PID:
                os._exit(137)
            return score_utterances(*args)
        monkeypatch.setattr(harness, "score_utterances", dies_in_a_worker)
        monkeypatch.setattr(harness, "_worker_count", lambda n_jobs: 2)
        with pytest.raises(BrokenProcessPool) as err:
            run_experiment(cfg, man, work, wav_root=root)
        assert str(err.value).endswith("(condition clean+wiener)")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_results_come_back_in_plan_order(self, tmp_path, monkeypatch,
                                             workers):
        monkeypatch.setattr(harness, "_worker_count",
                            lambda n_jobs: min(n_jobs, workers))
        log = tmp_path / "finished.txt"
        # the first job is still running when the second and third finish
        jobs = [(_returns_after, (seconds, value, log), (), value)
                for seconds, value in ((0.5, "a"), (0.0, "b"), (0.0, "c"))]
        assert harness._run_jobs(jobs) == ["a", "b", "c"]
        finished = log.read_text().split()
        assert sorted(finished) == ["a", "b", "c"]
        assert (finished[0] == "a") == (workers == 1)
        assert multiprocessing.active_children() == []


class TestJobHandoff:
    """A job reaches a worker by its index in the published plan, so its
    function and arguments are never pickled; and every model carries the
    terms derived from it from the moment it is built, so scoring computes
    none of them."""

    def test_closures_over_unpicklable_state_run_in_workers(self,
                                                            monkeypatch):
        monkeypatch.setattr(harness, "_worker_count", lambda n_jobs: 2)
        lock = threading.Lock()   # a lock cannot be pickled

        def job(value):
            with lock:
                return value, os.getpid() != _PYTEST_PID
        jobs = [(job, (value,), (), value) for value in ("a", "b", "c")]
        jobs.append((lambda: 42, (), (), "lambda"))
        assert harness._run_jobs(jobs) == [("a", True), ("b", True),
                                           ("c", True), 42]
        assert harness._plan == ()
        assert multiprocessing.active_children() == []

    def test_unpicklable_result_names_its_job(self, monkeypatch):
        """A result that cannot be pickled back is raised with its type
        and its job's context; a job's own error keeps its message."""
        monkeypatch.setattr(harness, "_worker_count", lambda n_jobs: 2)
        with pytest.raises(Exception) as plain:
            pickle.dumps(_returns_a_lambda())
        jobs = [(_returns_a_lambda, (), (), "condition A"),
                (_sleeps, (0.0,), (), "condition B")]
        with pytest.raises(type(plain.value)) as err:
            harness._run_jobs(jobs)
        assert str(err.value) == f"{plain.value} (condition A)"
        with pytest.raises(ValueError) as own:
            harness._run_jobs([(_fails, ("bad input",), (), "condition A")])
        assert str(own.value) == "bad input"
        assert multiprocessing.active_children() == []

    @staticmethod
    def _loaded(models, model_dir):
        """models saved under model_dir and loaded back as load_model gives
        them."""
        nat, syn, _ = models["gmm"]
        stack, _ = models["ivector"]
        train_ids = ["t0", "t1"]
        harness.save_gmm_pair(model_dir / "gmm", nat, syn, train_ids)
        harness.save_ivector_stack(
            model_dir / "ivector", stack,
            [stack.class_means["human"], stack.class_means["spoof"]],
            train_ids)
        plda = model_dir / "ivector" / "plda.spl"
        ivector.save_plda(plda, models["plda"])
        return {name: harness.load_model(name, marker) for name, marker in (
            ("gmm", model_dir / "gmm" / harness.TRAIN_IDS),
            ("ivector", model_dir / "ivector" / harness.TRAIN_IDS),
            ("plda", plda))}

    @pytest.mark.parametrize("source", ["built", "loaded"])
    def test_models_score_without_computing_a_term(self, tmp_path,
                                                   monkeypatch, source):
        built = _scoring_models(7)
        models = built if source == "built" else self._loaded(built, tmp_path)
        rng = np.random.default_rng(7)
        utts = [rng.standard_normal((t, 3)) for t in (5, 9, 4, 7)]
        rows = _scored_rows(len(utts))
        want = harness.score_utterances(rows, iter(utts), built,
                                        ALL_BACKENDS, "mfcc", "clean")
        gmms = models["gmm"][:2] + (models["ivector"][0].ubm,)
        assert all("_likelihood_terms" in vars(model) for model in gmms)

        def fails(*args, **kwargs):
            raise AssertionError("a model term was computed while scoring")
        monkeypatch.setattr(ivector, "gram_blocks", fails)
        monkeypatch.setattr(np.linalg, "inv", fails)
        got = harness.score_utterances(rows, iter(utts), models,
                                       ALL_BACKENDS, "mfcc", "clean")
        for backend in ALL_BACKENDS:
            assert got[backend].scores.tolist() == (
                want[backend].scores.tolist())


class _Libc:
    """A stand-in for ctypes.CDLL(None) that records mallopt calls, or has
    no mallopt when built with calls None."""

    def __init__(self, calls):
        if calls is not None:
            self.mallopt = lambda param, value: calls.append((param, value))


class TestWorkerHeap:
    """A run and a CLI command make their process keep the memory it frees,
    before any job runs; pool workers inherit that heap policy."""

    def test_initializer_sets_both_thresholds(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness.ctypes, "CDLL", lambda name: _Libc(calls))
        harness._keep_freed_heap()
        # glibc's M_MMAP_THRESHOLD (-3) at its 64-bit ceiling, then
        # M_TRIM_THRESHOLD (-1)
        assert calls == [(-3, 32 * 2 ** 20), (-1, 2 ** 30)]

    def test_without_mallopt_the_initializer_does_nothing(self, monkeypatch):
        monkeypatch.setattr(harness.ctypes, "CDLL", lambda name: _Libc(None))
        assert harness._keep_freed_heap() is None

        def no_library(name):
            raise OSError("no C library")
        monkeypatch.setattr(harness.ctypes, "CDLL", no_library)
        assert harness._keep_freed_heap() is None

    def test_without_mallopt_two_workers_write_the_bytes_of_one(
            self, corpus, tmp_path, monkeypatch):
        root, man = corpus
        cfg = _config(features=("mfcc", "rps"),
                      grid=(GridCell(), GridCell("white", 0.0)))
        monkeypatch.setattr(harness.ctypes, "CDLL", lambda name: _Libc(None))
        trees = []
        for workers in (1, 2):
            monkeypatch.setattr(harness, "_worker_count",
                                lambda n_jobs: min(n_jobs, workers))
            run_experiment(cfg, man, tmp_path / str(workers), wav_root=root)
            trees.append(_tree_bytes(tmp_path / str(workers)))
        assert trees[0] == trees[1]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_sets_the_policy_before_any_job(self, corpus, tmp_path,
                                                monkeypatch, workers):
        root, man = corpus
        events, pools = [], []
        monkeypatch.setattr(harness.ctypes, "CDLL", lambda name: _Libc(events))
        run_jobs = harness._run_jobs

        def recording_jobs(jobs):
            events.append(("jobs", len(jobs)))
            return run_jobs(jobs)

        class Recording(harness.ProcessPoolExecutor):
            def __init__(self, n_workers, **kwargs):
                pools.append(kwargs.get("initializer"))
                super().__init__(n_workers, **kwargs)

        monkeypatch.setattr(harness, "_run_jobs", recording_jobs)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", Recording)
        monkeypatch.setattr(harness, "_worker_count",
                            lambda n_jobs: min(n_jobs, workers))
        run_experiment(_config(), man, tmp_path / "w", wav_root=root)
        assert events[:2] == [(-3, 32 * 2 ** 20), (-1, 2 ** 30)]
        assert events[2][0] == "jobs" and events[2][1] > 0
        # then the one cell's scoring job, and no further mallopt call
        assert events[3:] == [("jobs", 1)]
        assert pools == ([] if workers == 1 else [None])

    def test_cli_sets_the_policy_once(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(harness.ctypes, "CDLL", lambda name: _Libc(calls))
        assert cli.main(["toy-corpus", "--out-dir", str(tmp_path / "c"),
                         "--train", "2", "--dev", "2", "--eval", "2"]) == 0
        assert calls == [(-3, 32 * 2 ** 20), (-1, 2 ** 30)]
        assert capsys.readouterr().err == ""

    def test_without_mallopt_a_command_succeeds_silently(self, tmp_path,
                                                         monkeypatch, capsys):
        monkeypatch.setattr(harness.ctypes, "CDLL", lambda name: _Libc(None))
        assert cli.main(["toy-corpus", "--out-dir", str(tmp_path / "c"),
                         "--train", "2", "--dev", "2", "--eval", "2"]) == 0
        assert (tmp_path / "c" / "manifest.tsv").is_file()
        assert capsys.readouterr().err == ""


class TestBlasThreads:
    """A run sets every loaded OpenBLAS to one thread and then gives the
    caller's count back, so its bytes do not depend on the caller's BLAS
    threads."""

    @pytest.fixture
    def restore_threads(self):
        before = [get() for get, _ in harness._BLAS_THREADS]
        yield
        for (_, set_), count in zip(harness._BLAS_THREADS, before):
            set_(count)

    @staticmethod
    def _set(count):
        for _, set_ in harness._BLAS_THREADS:
            set_(count)

    @staticmethod
    def _counts():
        return [get() for get, _ in harness._BLAS_THREADS]

    def test_numpy_and_scipy_blas_are_found(self):
        assert len(harness._BLAS_THREADS) == 2

    def test_one_thread_inside_and_the_callers_count_after(
            self, restore_threads):
        self._set(2)
        with harness.one_blas_thread():
            assert self._counts() == [1, 1]
        assert self._counts() == [2, 2]
        with pytest.raises(KeyError):
            with harness.one_blas_thread():
                raise KeyError("a failing body")
        assert self._counts() == [2, 2]

    def test_two_threads_write_the_bytes_of_one(self, corpus, tmp_path,
                                                monkeypatch, restore_threads):
        root, man = corpus
        cfg = _config(gmm_components=32, gmm_iterations=1, ubm_components=32,
                      tv_rank=8, tv_iterations=1, backends=ALL_BACKENDS)
        # the control: at two threads, this config's GMM training GEMMs
        # round differently, so a run that did not pin would move bytes
        fcfg = cfg.feature_config("mfcc")
        frames = np.vstack([features.extract(read_wav(root / r.wav_path),
                                             fcfg)
                            for r in man.subset("train").rows])
        means = []
        for count in (1, 2):
            self._set(count)
            means.append(gmm.train_gmm(frames, 32, 1, seed=0)[0].means)
        assert not np.array_equal(*means)

        trees = []
        for count, workers in ((1, 1), (2, 1), (2, 2)):
            self._set(count)
            monkeypatch.setattr(harness, "_worker_count",
                                lambda n_jobs, w=workers: min(n_jobs, w))
            work = tmp_path / f"{count}x{workers}"
            run_experiment(cfg, man, work, wav_root=root)
            assert self._counts() == [count, count]
            trees.append(_tree_bytes(work))
        assert trees[1] == trees[0]
        assert trees[2] == trees[0]


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
                             (ivector, "train_plda"), (gmm, "llr_scores"),
                             (ivector, "detection_scores")):
            original = getattr(module, name)

            def recording(*args, _name=name, _original=original, **kwargs):
                events.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, recording)
        run_experiment(cfg, man, tmp_path / "w", wav_root=root)
        trains = ("train_gmm_pair", "train_ivector_stack", "train_plda")
        first_score = min(events.index(name)
                          for name in ("llr_scores", "detection_scores"))
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

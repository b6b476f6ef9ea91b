"""End-to-end command-line checks; most invoke main() in process."""

import argparse
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spoofbench import config, features
from spoofbench.audio import read_features
from spoofbench.cli import build_parser, main
from spoofbench.config import GridCell, load_config
from spoofbench.harness import _Runner, run_experiment
from spoofbench.manifest import read_manifest
from spoofbench.scores import ScoreSet, read_scores, write_scores
from spoofbench.toycorpus import make_toy_corpus

README = Path(__file__).resolve().parent.parent / "README.md"

# model sizes small enough for the 12-utterance training subset
SMALL_MODELS = ("[gmm]\ncomponents = 4\niterations = 3\n"
                "[ivector]\nubm_components = 4\nrank = 4\n"
                "tv_iterations = 2\nplda_latent = 2\nplda_iterations = 2\n")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("clicorpus")
    make_toy_corpus(root, seed=9, n_train=12, n_dev=6, n_eval=6)
    return root


@pytest.fixture(scope="module")
def small_ini(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "small.ini"
    path.write_text("[experiment]\n" + SMALL_MODELS, encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def gmm_models(corpus, small_ini, tmp_path_factory):
    out = tmp_path_factory.mktemp("models") / "gmm-mfcc"
    rc = main(["train", "--model", "gmm",
               "--manifest", str(corpus / "manifest.tsv"), "--kind", "mfcc",
               "--config", small_ini, "--models", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def ivector_stack(corpus, small_ini, tmp_path_factory):
    out = tmp_path_factory.mktemp("models") / "stack-mfcc"
    rc = main(["train", "--model", "ivector",
               "--manifest", str(corpus / "manifest.tsv"), "--kind", "mfcc",
               "--config", small_ini, "--models", str(out)])
    assert rc == 0
    return out


class TestBasics:
    def test_extract(self, corpus, tmp_path):
        out = tmp_path / "f.spbf"
        rc = main(["extract", "--wav",
                   str(corpus / "wav" / "eval" / "eval-0000.wav"),
                   "--kind", "mfcc", "--out", str(out)])
        assert rc == 0
        assert read_features(out).shape[1] == 96

    def test_extract_with_param_override(self, corpus, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\n[feature.mfcc]\nn_coeffs = 20\n",
                       encoding="utf-8")
        out = tmp_path / "f.spbf"
        rc = main(["extract", "--wav",
                   str(corpus / "wav" / "eval" / "eval-0000.wav"),
                   "--kind", "mfcc", "--config", str(ini),
                   "--out", str(out)])
        assert rc == 0
        assert read_features(out).shape[1] == 60

    def test_prepare_clean_rewrites_the_sources(self, corpus, tmp_path,
                                                capsys):
        """The clean cell without enhancement is the source audio itself,
        so each written wav has its source's bytes."""
        out = tmp_path / "clean"
        rc = main(["prepare", "--manifest", str(corpus / "manifest.tsv"),
                   "--subset", "dev", "--out-dir", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == f"{out}\t6\n"
        rows = read_manifest(corpus / "manifest.tsv").subset("dev").rows
        assert sorted(f.name for f in out.iterdir()) == \
            sorted(f"{r.utt_id}.wav" for r in rows)
        for r in rows:
            assert (out / f"{r.utt_id}.wav").read_bytes() == \
                (corpus / r.wav_path).read_bytes()

    def test_ltas_csv(self, corpus, tmp_path):
        out = tmp_path / "l.csv"
        rc = main(["ltas", "--wav",
                   str(corpus / "wav" / "eval" / "eval-0000.wav"),
                   "--out", str(out)])
        assert rc == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "freq_hz,power"
        assert len(rows) == 258

    def test_toy_corpus_sizes(self, tmp_path, capsys):
        rc = main(["toy-corpus", "--out-dir", str(tmp_path / "c"),
                   "--seed", "1", "--train", "4", "--dev", "2",
                   "--eval", "2"])
        assert rc == 0
        assert "manifest.tsv\t8" in capsys.readouterr().out


class TestScoringFlow:
    def test_score_and_eval(self, corpus, gmm_models, tmp_path, capsys):
        scores = tmp_path / "s.tsv"
        rc = main(["score", "--backend", "gmm",
                   "--manifest", str(corpus / "manifest.tsv"),
                   "--kind", "mfcc", "--models", str(gmm_models),
                   "--subset", "eval", "--out", str(scores)])
        assert rc == 0
        loaded = read_scores(scores)
        assert len(loaded) == 6
        capsys.readouterr()
        assert main(["eval", "--scores", str(scores), "--per-attack"]) == 0
        out = capsys.readouterr().out
        assert "eer_percent" in out and "macro-average" in out

    def test_noisy_scoring_differs(self, corpus, gmm_models, tmp_path):
        clean = tmp_path / "c.tsv"
        noisy = tmp_path / "n.tsv"
        base = ["score", "--backend", "gmm",
                "--manifest", str(corpus / "manifest.tsv"),
                "--kind", "mfcc", "--models", str(gmm_models),
                "--subset", "eval"]
        assert main(base + ["--out", str(clean)]) == 0
        assert main(base + ["--noise-kind", "white", "--snr", "0",
                            "--out", str(noisy)]) == 0
        a, b = read_scores(clean), read_scores(noisy)
        assert not np.array_equal(a.scores, b.scores)
        assert set(b.conditions) == {"white_0dB"}

    def test_ivector_flow(self, corpus, small_ini, tmp_path):
        common = ["--manifest", str(corpus / "manifest.tsv"),
                  "--kind", "cosphase", "--config", small_ini]
        stack = tmp_path / "stack"
        scores = tmp_path / "s.tsv"
        assert main(["train", "--model", "ivector", *common,
                     "--models", str(stack)]) == 0
        assert main(["train", "--model", "plda", *common,
                     "--models", str(stack)]) == 0
        # named by the config's PLDA settings, as a run names it
        assert (stack / "plda.q2.i2.spl").is_file()
        assert main(["score", "--backend", "ivector-plda", *common,
                     "--models", str(stack), "--subset", "eval",
                     "--out", str(scores)]) == 0
        assert len(read_scores(scores)) == 6

    def test_fuse_average_identity(self, corpus, gmm_models, tmp_path):
        s = tmp_path / "s.tsv"
        main(["score", "--backend", "gmm",
              "--manifest", str(corpus / "manifest.tsv"),
              "--kind", "mfcc", "--models", str(gmm_models),
              "--subset", "eval", "--out", str(s)])
        fused = tmp_path / "f.tsv"
        assert main(["fuse", "--method", "average", "--scores", str(s),
                     str(s), "--out", str(fused)]) == 0
        assert np.array_equal(read_scores(fused).scores,
                              read_scores(s).scores)


class TestRunParity:
    """A stage-by-stage CLI pipeline reproduces `run` byte for byte."""

    KIND = "cqcc"    # also checks that both sides use the desk CQT geometry
    SEED = 7

    def test_cli_pipeline_writes_the_run_score_files(self, corpus,
                                                     tmp_path):
        man = str(corpus / "manifest.tsv")
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[experiment]\nseed = {self.SEED}\n"
                       f"features = {self.KIND}\n"
                       "backends = gmm ivector-cosine ivector-plda\n"
                       "[grid]\ncells = clean white:0\n" + SMALL_MODELS,
                       encoding="utf-8")
        work = tmp_path / "work"
        assert main(["run", "--config", str(ini), "--manifest", man,
                     "--work-dir", str(work)]) == 0
        run_experiment(replace(load_config(ini),
                               grid=(GridCell("white", 0.0),),
                               enhancement="wiener"),
                       read_manifest(man), work, wav_root=corpus)

        common = ["--manifest", man, "--kind", self.KIND,
                  "--config", str(ini)]
        models, stack = tmp_path / "gmm", tmp_path / "stack"
        for model, out in (("gmm", models), ("ivector", stack),
                           ("plda", stack)):
            assert main(["train", "--model", model, *common,
                         "--models", str(out)]) == 0
        # the CLI's model directories, PLDA file included, are the
        # runner's cached ones
        for cli_dir, marker in ((models, "human.gmm"), (stack, "tv.stv")):
            cached, = (work / "cache" / "models").glob(f"*/{marker}")
            assert sorted(f.name for f in cli_dir.iterdir()) == \
                sorted(f.name for f in cached.parent.iterdir())
            for f in cli_dir.iterdir():
                assert f.read_bytes() == (cached.parent / f.name).read_bytes()

        noisy = ["--noise-kind", "white", "--snr", "0"]
        conditions = {"clean": [], "white_0dB": noisy,
                      "white_0dB+wiener": noisy + ["--enhance", "wiener"]}
        # prepare, then extract with the clean wav's voicing, writes the
        # runner's cached test features
        runner = _Runner(load_config(ini), read_manifest(man), work,
                         wav_root=corpus)
        rows = read_manifest(man).subset("eval").rows
        for cond, enhancement in (("white_0dB", None),
                                  ("white_0dB+wiener", "wiener")):
            audio = tmp_path / cond
            assert main(["prepare", "--manifest", man, "--config", str(ini),
                         *conditions[cond], "--out-dir", str(audio)]) == 0
            cached = runner._feature_dir(self.KIND, GridCell("white", 0.0),
                                         enhancement)
            for r in rows:
                out = tmp_path / f"{cond}.{r.utt_id}.spbf"
                assert main(["extract", "--kind", self.KIND,
                             "--config", str(ini),
                             "--wav", str(audio / f"{r.utt_id}.wav"),
                             "--vad-from", str(corpus / r.wav_path),
                             "--out", str(out)]) == 0
                name = f"{r.utt_id}.{self.KIND}.spbf"
                assert out.read_bytes() == (cached / name).read_bytes(), \
                    (cond, r.utt_id)
        backends = {"gmm": models, "ivector-cosine": stack,
                    "ivector-plda": stack}
        for cond, flags in conditions.items():
            for backend, model_dir in backends.items():
                for subset in ("dev", "eval"):
                    out = tmp_path / f"{cond}.{backend}.{subset}.tsv"
                    assert main(["score", "--backend", backend,
                                 "--models", str(model_dir), *common,
                                 *flags, "--subset", subset,
                                 "--out", str(out)]) == 0
                    expected = (work / "scores" / cond / backend /
                                f"{self.KIND}.{subset}.tsv")
                    assert out.read_bytes() == expected.read_bytes(), \
                        (cond, backend, subset)


class TestRunCommand:
    def test_run_grid(self, corpus, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\n"
                       "seed = 3\nfeatures = mfcc\nbackends = gmm\n"
                       "fusion = none\n"
                       "[grid]\ncells = clean\n"
                       "[gmm]\ncomponents = 4\niterations = 3\n")
        work = tmp_path / "work"
        rc = main(["run", "--config", str(ini), "--manifest",
                   str(corpus / "manifest.tsv"), "--work-dir", str(work)])
        assert rc == 0
        assert (work / "summary.tsv").is_file()
        out = capsys.readouterr().out
        assert "clean\tgmm\tmfcc\teval" in out


class TestErrorContract:
    def test_missing_model_names_the_training_command(self, corpus,
                                                      tmp_path, capsys):
        rc = main(["score", "--backend", "gmm",
                   "--manifest", str(corpus / "manifest.tsv"),
                   "--kind", "mfcc", "--models", str(tmp_path / "nowhere"),
                   "--subset", "eval", "--out", str(tmp_path / "s.tsv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error\tFileNotFoundError\t")
        assert "train --model gmm" in err
        assert err.count("\n") == 1

    def test_missing_plda_names_its_training_command(
            self, corpus, ivector_stack, tmp_path, capsys, monkeypatch):
        """A stack without the PLDA file of the config's PLDA settings
        stops ivector-plda scoring before any utterance is extracted."""
        extracted = []
        monkeypatch.setattr(features, "extract",
                            lambda *a, **k: extracted.append(a))
        rc = main(["score", "--backend", "ivector-plda",
                   "--manifest", str(corpus / "manifest.tsv"),
                   "--kind", "mfcc", "--models", str(ivector_stack),
                   "--out", str(tmp_path / "s.tsv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error\tFileNotFoundError\t")
        assert "plda.q16.i5.spl" in err and "train --model plda" in err
        assert err.count("\n") == 1
        assert extracted == []
        assert not (tmp_path / "s.tsv").exists()

    def test_plda_without_a_stack_names_the_stack_training(
            self, corpus, tmp_path, capsys):
        models = tmp_path / "empty"
        models.mkdir()
        rc = main(["train", "--model", "plda",
                   "--manifest", str(corpus / "manifest.tsv"),
                   "--kind", "mfcc", "--models", str(models)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error\tFileNotFoundError\t")
        assert "train --model ivector" in err
        assert err.count("\n") == 1
        assert list(models.iterdir()) == []

    @pytest.mark.parametrize("command", ["extract", "train", "score"])
    def test_unknown_config_key_is_one_error_line(
            self, command, corpus, tmp_path, capsys, monkeypatch):
        """A misspelled or mistyped setting stops a stage command before it
        extracts anything, as it stops `run`."""
        extracted = []
        monkeypatch.setattr(features, "extract",
                            lambda *a, **k: extracted.append(a))
        man, out = str(corpus / "manifest.tsv"), str(tmp_path / "out")
        args = {"extract": ["--wav", str(corpus / "wav" / "eval" /
                                         "eval-0000.wav"), "--out", out],
                "train": ["--model", "gmm", "--manifest", man,
                          "--models", str(tmp_path / "m")],
                "score": ["--backend", "gmm", "--manifest", man,
                          "--models", str(tmp_path / "m"),
                          "--out", out]}[command]
        ini = tmp_path / "exp.ini"
        for text, names in [
                ("[gmm]\ncomponent = 4\n", ("'component'", "[gmm]")),
                ("[feature.mfcc]\nn_coeffs = 20.0\n",
                 ("'n_coeffs'", "[feature.mfcc]"))]:
            ini.write_text("[experiment]\n" + text, encoding="utf-8")
            rc = main([command, "--kind", "mfcc", "--config", str(ini),
                       *args])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("error\tValueError\t")
            assert all(name in err for name in names)
            assert err.count("\n") == 1
            assert extracted == []
            assert not (tmp_path / "m").exists()

    def test_hygiene_refusal(self, corpus, gmm_models, tmp_path, capsys):
        rc = main(["score", "--backend", "gmm",
                   "--manifest", str(corpus / "manifest.tsv"),
                   "--kind", "mfcc", "--models", str(gmm_models),
                   "--subset", "train", "--out", str(tmp_path / "s.tsv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error\tHygieneError\t")

    @pytest.mark.parametrize("backend", ["gmm", "ivector-cosine"])
    def test_model_dir_without_training_list_is_refused(
            self, backend, corpus, gmm_models, ivector_stack, tmp_path,
            capsys):
        """Hygiene cannot be checked without the training list, so scoring
        stops with one error line instead of skipping the check."""
        models = {"gmm": gmm_models, "ivector-cosine": ivector_stack}[backend]
        copy = shutil.copytree(models, tmp_path / "models")
        (copy / "train_utts.txt").unlink()
        rc = main(["score", "--backend", backend,
                   "--manifest", str(corpus / "manifest.tsv"),
                   "--kind", "mfcc", "--models", str(copy), "--subset",
                   "eval", "--out", str(tmp_path / "s.tsv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error\tFileNotFoundError\t")
        assert "train_utts.txt" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "s.tsv").exists()

    @pytest.mark.parametrize("command,subset", [
        ("train-gmm", "train"), ("train-ivector", "train"),
        ("score", "eval"), ("prepare", "eval")])
    def test_missing_wav_fails_before_extraction(
            self, command, subset, corpus, gmm_models, tmp_path, capsys,
            monkeypatch):
        copy = shutil.copytree(corpus, tmp_path / "corpus")
        manifest = read_manifest(copy / "manifest.tsv")
        row = manifest.subset(subset).rows[-1]
        (copy / row.wav_path).unlink()
        extracted = []
        monkeypatch.setattr(features, "extract",
                            lambda *a, **k: extracted.append(a))
        args = {"train-gmm": ["train", "--model", "gmm",
                              "--models", str(tmp_path / "m")],
                "train-ivector": ["train", "--model", "ivector",
                                  "--models", str(tmp_path / "m")],
                "score": ["score", "--backend", "gmm",
                          "--models", str(gmm_models),
                          "--out", str(tmp_path / "s.tsv")],
                "prepare": ["prepare", "--noise-kind", "white", "--snr", "0",
                            "--out-dir", str(tmp_path / "p")]}[command]
        kind = [] if command == "prepare" else ["--kind", "mfcc"]
        rc = main(args + ["--manifest", str(copy / "manifest.tsv"), *kind])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error\tFileNotFoundError\t")
        assert row.utt_id in err
        assert err.count("\n") == 1
        assert extracted == []
        assert not (tmp_path / "p").exists()

    def test_prepare_refuses_to_overwrite_the_corpus(self, corpus, tmp_path,
                                                     capsys):
        """An --out-dir that holds the subset's own wavs stops prepare
        before its first write, naming the utterance."""
        copy = shutil.copytree(corpus, tmp_path / "corpus")
        wavs = {p: p.read_bytes() for p in (copy / "wav").rglob("*.wav")}
        rc = main(["prepare", "--manifest", str(copy / "manifest.tsv"),
                   "--noise-kind", "white", "--snr", "0",
                   "--out-dir", str(copy / "wav" / "eval")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error\tValueError\t")
        first = read_manifest(copy / "manifest.tsv").subset("eval").rows[0]
        assert first.utt_id in err
        assert err.count("\n") == 1
        assert {p: p.read_bytes() for p in (copy / "wav").rglob("*.wav")} \
            == wavs

    def test_snr_required_with_noise(self, corpus, gmm_models, tmp_path,
                                     capsys):
        rc = main(["score", "--backend", "gmm",
                   "--manifest", str(corpus / "manifest.tsv"),
                   "--kind", "mfcc", "--models", str(gmm_models),
                   "--subset", "eval", "--noise-kind", "white",
                   "--out", str(tmp_path / "s.tsv")])
        assert rc == 1
        assert "error\tValueError" in capsys.readouterr().err

    @pytest.mark.parametrize("method,extra", [
        ("average", ["--dev"]), ("average", ["--model"]),
        ("logistic", ["--dev", "--model"])])
    def test_fuse_refuses_flags_its_method_would_ignore(
            self, method, extra, tmp_path, capsys):
        """Averaging uses neither dev sets nor a model, and a logistic model
        would override the dev sets: each stops before any score file is
        read (the files do not exist, so a read would fail otherwise)."""
        files = [str(tmp_path / f"{name}.tsv") for name in ("a", "b")]
        flags = [arg for flag in extra for arg in (
            [flag, *files] if flag == "--dev" else [flag, files[0]])]
        rc = main(["fuse", "--method", method, "--scores", *files, *flags,
                   "--out", str(tmp_path / "f.tsv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error\tValueError\t")
        assert "--dev" in err and "--model" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "f.tsv").exists()

    def test_fuse_compares_dev_and_score_counts_before_reading(
            self, tmp_path, capsys):
        """The files do not exist, so a read would fail otherwise."""
        files = [str(tmp_path / f"{name}.tsv") for name in ("a", "b", "c")]
        rc = main(["fuse", "--method", "logistic", "--scores", *files[:2],
                   "--dev", files[2], "--out", str(tmp_path / "f.tsv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == ("error\tValueError\tneed one --dev set per scored "
                       "system\n")

    @pytest.mark.parametrize("flag", ["--scores", "--dev"])
    def test_fuse_names_the_misaligned_file(self, flag, tmp_path, capsys):
        """A --scores or --dev file whose trial list differs from the first
        of its flag is named, and nothing is written."""
        def write(name, conditions):
            path = tmp_path / f"{name}.tsv"
            write_scores(path, ScoreSet(
                ["u0", "u1"], [0.5, -0.5], ["human", "spoof"], ["-", "S1"],
                conditions))
            return str(path)
        clean = ["clean", "clean"]
        scores = [write("eval0", clean), write("eval1", clean)]
        dev = [write("dev0", clean), write("dev1", clean)]
        bad = write("bad", ["clean", "white@0"])
        (scores if flag == "--scores" else dev)[1] = bad
        out, model = tmp_path / "f.tsv", tmp_path / "m.txt"
        rc = main(["fuse", "--method", "logistic", "--scores", *scores,
                   "--dev", *dev, "--out", str(out),
                   "--model-out", str(model)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error\tAlignmentError\t{bad}: ")
        assert err.count("\n") == 1
        assert not out.exists() and not model.exists()

    def test_fuse_names_the_bad_model_line(self, tmp_path, capsys):
        path = tmp_path / "s.tsv"
        write_scores(path, ScoreSet(["u0", "u1"], [0.5, -0.5],
                                    ["human", "spoof"], ["-", "S1"],
                                    ["clean", "clean"]))
        model = tmp_path / "m.txt"
        model.write_text("kind\tlogistic\nbias\t0.0\nweight\tsys0\n")
        out = tmp_path / "f.tsv"
        rc = main(["fuse", "--method", "logistic", "--scores", str(path),
                   "--model", str(model), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error\tValueError\t{model}:3: expected 3 fields\n")
        assert not out.exists()

    def test_nan_score_file_names_the_trial(self, tmp_path, capsys):
        path = tmp_path / "scores.tsv"
        path.write_text("utt_id\tscore\tlabel\tattack_id\tcondition\n"
                        "h1\t1.5\thuman\t-\tclean\n"
                        "s1\tnan\tspoof\tS1\tclean\n", encoding="utf-8")
        rc = main(["eval", "--scores", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error\tValueError\t")
        assert "nan for trial s1" in err
        assert err.count("\n") == 1

    def test_entry_point_exit_codes(self, tmp_path):
        # exercise the installed console script end to end
        ok = subprocess.run(
            [sys.executable, "-m", "spoofbench.cli", "toy-corpus",
             "--out-dir", str(tmp_path / "c"), "--train", "2",
             "--dev", "2", "--eval", "2"],
            capture_output=True, text=True)
        assert ok.returncode == 0
        bad = subprocess.run(
            [sys.executable, "-m", "spoofbench.cli", "eval", "--scores",
             str(tmp_path / "missing.tsv")],
            capture_output=True, text=True)
        assert bad.returncode == 1
        assert bad.stderr.startswith("error\tFileNotFoundError\t")
        assert bad.stderr.count("\n") == 1


def test_score_backends_are_the_config_backends():
    sub, = (a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    backend, = (a for a in sub.choices["score"]._actions
                if a.dest == "backend")
    assert list(backend.choices) == list(config.BACKENDS)


def test_readme_table_lists_the_subcommands():
    table = re.findall(r"^\| `([a-z-]+)` \|", README.read_text(), re.M)
    sub, = (a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    assert table == list(sub.choices)

"""Command-line front door.

Every pipeline stage is a subcommand, so experiments can be scripted
piecemeal, and `run` executes a whole config grid.  The stage commands
`prepare`, `extract`, `train` and `score` read their settings (root seed,
model sizes, feature overrides) from the run's INI file given as
`--config`, or use the `ExperimentConfig` defaults without one; flags
choose only what to run: the feature, the model or back-end, the test
condition and the files.  They call the harness's own stage functions:
`prepare` writes a `--noise-kind`/`--snr`/`--enhance` condition's test
audio as a run prepares it, `score` scores that audio with the run's
scorer, and `train --model` writes a model as a run caches it.  With the
same config, a stage-by-stage pipeline writes the files `run` writes.  On
failure, a usage error included, the tool prints a single
machine-parseable line to stderr::

    error\t<ExceptionType>\t<message>

and exits 1; on success it exits zero.

Importing this module loads numpy and the score-file modules only: `fuse`
and `eval` run on those, and every other command imports the stages it
runs (and with them scipy) when it runs.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path

import numpy as np

from . import config as configmod
from . import fusion, runtime
from .config import (BACKENDS, ENHANCEMENT_METHODS, FEATURE_KINDS,
                     NOISE_KINDS, ExperimentConfig, GridCell)
from .errors import UsageError
from .evaluation import compute_eer_rocch, compute_ltas, per_attack_eers, \
    save_ltas_csv
from .manifest import SUBSETS, read_manifest
from .scores import read_aligned, read_scores, write_scores


def _config(args) -> ExperimentConfig:
    """The settings of --config, or the defaults without one."""
    return (configmod.load_config(args.config) if args.config
            else ExperimentConfig())


def _missing_model(exc, name):
    return FileNotFoundError(f"{exc}; create it with "
                             f"`spoofbench train --model {name}`")


def _wav_root(args) -> Path:
    return Path(args.wav_root or Path(args.manifest).parent)


def _manifest_rows(args, subset):
    """(rows, wav paths) of a manifest subset; a missing wav fails here,
    before any extraction, naming its utterance."""
    manifest = read_manifest(args.manifest).subset(subset)
    if not manifest:
        raise ValueError(f"manifest has no rows in subset {subset!r}")
    return manifest.rows, manifest.resolve_paths(_wav_root(args))


# -- subcommand bodies ------------------------------------------------------

def cmd_extract(args):
    from . import features
    from .audio import read_wav, write_features

    cfg = _config(args).feature_config(args.kind)
    signal = read_wav(args.wav)
    vad = None
    if args.vad_from:
        vad = features.compute_vad_mask(read_wav(args.vad_from), cfg)
    values = features.extract(signal, cfg, vad=vad)
    write_features(args.out, values)
    print(f"{args.out}\t{values.shape[0]}x{values.shape[1]}")


def cmd_prepare(args):
    """Write each --subset row's test audio, exactly as a run scores it, to
    --out-dir/<utt_id>.wav; no output may replace a wav the manifest names."""
    from . import harness
    from .audio import read_wav, write_wav

    cfg = _config(args)
    cell = GridCell(args.noise_kind, args.snr)
    rows, paths = _manifest_rows(args, args.subset)
    out_dir = Path(args.out_dir)
    corpus = {(_wav_root(args) / r.wav_path).resolve()
              for r in read_manifest(args.manifest)}
    for r in rows:
        if (target := out_dir / f"{r.utt_id}.wav").resolve() in corpus:
            raise ValueError(f"{r.utt_id}: {target} is a manifest wav; "
                             f"prepare does not overwrite the corpus")
    out_dir.mkdir(parents=True, exist_ok=True)
    for r, path in zip(rows, paths):
        write_wav(out_dir / f"{r.utt_id}.wav", harness.prepare_signal(
            read_wav(path), r.utt_id, cell, args.enhance, cfg.seed))
    print(f"{out_dir}\t{len(rows)}")


def cmd_train(args):
    """Train --model of --kind with the config's settings and write it into
    --models under the name a run caches it by: the GMM pair or the
    i-vector stack from the manifest's train subset, or the PLDA scorer of
    the stack already in --models."""
    from . import features, harness
    from .audio import read_wav

    cfg = _config(args)
    rows, frames = (), None
    if args.model in harness.FRAME_MODELS:
        rows, paths = _manifest_rows(args, "train")
        feature_cfg = cfg.feature_config(args.kind)
        frames = [features.extract(read_wav(p), feature_cfg) for p in paths]
    labels = {r.utt_id: r.label for r in read_manifest(args.manifest)}
    marker = Path(args.models) / harness.marker_name(args.model, cfg)
    try:
        harness.train_model(args.model, marker, rows, frames, labels, cfg,
                            args.kind)
    except FileNotFoundError as exc:
        if args.model == "plda":   # the stack it trains on is missing
            raise _missing_model(exc, "ivector") from None
        raise
    print(marker)


def cmd_score(args):
    """Score the chosen subset with --backend in the --noise-kind/--snr/
    --enhance condition, prepared as a run prepares it, and write the score
    file."""
    from . import harness
    from .audio import read_wav

    cfg = _config(args)
    models = {}
    for name in BACKENDS[args.backend]:
        marker = Path(args.models) / harness.marker_name(name, cfg)
        try:
            models[name] = harness.load_model(name, marker)
        except FileNotFoundError as exc:
            raise _missing_model(exc, name) from None
    cell = GridCell(args.noise_kind, args.snr)
    rows, paths = _manifest_rows(args, args.subset)
    feature_cfg = cfg.feature_config(args.kind)

    def test_features():
        for r, path in zip(rows, paths):
            clean = read_wav(path)
            yield harness.extract_test_features(harness.prepare_signal(
                clean, r.utt_id, cell, args.enhance, cfg.seed), feature_cfg,
                clean)
    cond = harness.condition_tag(cell, args.enhance)
    sets = harness.score_utterances(rows, test_features(), models,
                                    (args.backend,), args.kind, cond)
    write_scores(args.out, sets[args.backend])
    print(f"{args.out}\t{len(rows)}")


def cmd_fuse(args):
    if args.method == "average" and (args.dev or args.model):
        raise ValueError("--dev and --model apply only to --method logistic")
    if args.method == "logistic" and bool(args.dev) == bool(args.model):
        raise ValueError("logistic fusion needs exactly one of --dev "
                         "(sets to train on) and --model (a trained model)")
    if args.dev and len(args.dev) != len(args.scores):
        raise ValueError("need one --dev set per scored system")
    sets = read_aligned(args.scores)
    if args.method == "average":
        fused = fusion.fuse_average(sets)
        model = fusion.average_model([f"sys{i}" for i in range(len(sets))])
    else:
        if args.model:
            model = fusion.load_fusion(args.model)
        else:
            model = fusion.train_logistic_fusion(read_aligned(args.dev))
        fused = fusion.apply_fusion(model, sets)
    write_scores(args.out, fused)
    if args.model_out:
        fusion.save_fusion(args.model_out, model)
    print(args.out)


def cmd_eval(args):
    scores = read_scores(args.scores)
    report = compute_eer_rocch(scores)
    lines = [f"eer_percent\t{report.eer_percent:.4f}",
             f"n_target\t{report.n_target}",
             f"n_nontarget\t{report.n_nontarget}"]
    if args.per_attack:
        by_attack, macro = per_attack_eers(scores)
        for attack in sorted(by_attack):
            lines.append(f"attack\t{attack}\t"
                         f"{by_attack[attack].eer_percent:.4f}")
        lines.append(f"attack\tmacro-average\t{macro:.4f}")
    text = "\n".join(lines)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")


def cmd_ltas(args):
    from .audio import read_wav
    from .dsp import n_frames_for

    signal = read_wav(args.wav)
    vad = None
    if not args.with_vad:
        n = n_frames_for(len(signal.samples), args.frame_ms, args.frame_ms,
                         signal.sample_rate)
        vad = np.ones(n, dtype=bool)
    profile = compute_ltas(signal, vad=vad, frame_ms=args.frame_ms)
    save_ltas_csv(args.out, profile, signal.sample_rate)
    print(f"{args.out}\t{profile.n_frames}")


def cmd_toy_corpus(args):
    from .toycorpus import make_toy_corpus

    manifest = make_toy_corpus(args.out_dir, seed=args.seed,
                               n_train=args.train, n_dev=args.dev,
                               n_eval=args.eval)
    print(f"{Path(args.out_dir) / 'manifest.tsv'}\t{len(manifest)}")


def cmd_run(args):
    from . import harness

    cfg = configmod.load_config(args.config)
    manifest = read_manifest(args.manifest)
    result = harness.run_experiment(cfg, manifest, args.work_dir,
                                    wav_root=_wav_root(args))
    print(result.summary_path)
    for row in result.rows:
        print(f"{row.cell_tag}\t{row.backend}\t{row.system}\t{row.subset}\t"
              f"{row.report.eer_percent:.4f}")


# -- argument wiring --------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise, so that main reports
    them on the error contract's one stderr line; --help still prints its
    text and exits 0."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _add_config_arg(p):
    p.add_argument("--config", default=None,
                   help="experiment INI file whose settings (seed, model "
                        "sizes, feature overrides) to use "
                        "(default: the built-in defaults)")


def _add_corpus_args(p):
    _add_config_arg(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--wav-root", default=None,
                   help="base for relative wav paths "
                        "(default: manifest directory)")


def _add_condition_args(p):
    """The rows and the test condition a run scores them in."""
    p.add_argument("--subset", default="eval", choices=SUBSETS)
    p.add_argument("--noise-kind", choices=NOISE_KINDS, default=None)
    p.add_argument("--snr", type=float, default=None)
    p.add_argument("--enhance", choices=ENHANCEMENT_METHODS, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spoofbench",
        description="synthetic-speech spoofing detection workbench")
    sub = parser.add_subparsers(dest="command", required=True)
    # stages: the modules a command runs beyond this one's imports, loaded
    # before main pins the BLAS threads so that the pin covers them
    parser.set_defaults(stages=())

    p = sub.add_parser("prepare", help="write test audio as a run scores it")
    _add_corpus_args(p)
    _add_condition_args(p)
    p.add_argument("--out-dir", required=True,
                   help="directory of the <utt_id>.wav files; no manifest "
                        "wav may be among them")
    p.set_defaults(func=cmd_prepare, stages=("harness",))

    p = sub.add_parser("extract", help="extract features from one wav")
    p.add_argument("--kind", required=True, choices=FEATURE_KINDS)
    _add_config_arg(p)
    p.add_argument("--wav", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--vad-from", default=None,
                   help="take voicing decisions from this (clean) wav")
    p.set_defaults(func=cmd_extract, stages=("features",))

    p = sub.add_parser("train", help="train a model of one feature")
    p.add_argument("--model", required=True,
                   choices=tuple(dict.fromkeys(
                       m for models in BACKENDS.values() for m in models)))
    p.add_argument("--kind", required=True, choices=FEATURE_KINDS)
    _add_corpus_args(p)
    p.add_argument("--models", required=True,
                   help="model directory: the GMM pair (gmm), or the "
                        "i-vector stack and its PLDA scorers (ivector, "
                        "plda)")
    p.set_defaults(func=cmd_train, stages=("harness",))

    p = sub.add_parser("score", help="score utterances with a back-end")
    p.add_argument("--backend", required=True, choices=BACKENDS)
    p.add_argument("--kind", required=True, choices=FEATURE_KINDS)
    _add_corpus_args(p)
    p.add_argument("--models", required=True,
                   help="directory written by train --model gmm (gmm) or "
                        "train --model ivector (ivector-cosine, "
                        "ivector-plda, which also needs train --model plda)")
    _add_condition_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score, stages=("harness",))

    p = sub.add_parser("fuse", help="combine score files")
    p.add_argument("--method", choices=fusion.FUSION_METHODS, required=True)
    p.add_argument("--scores", nargs="+", required=True,
                   help="aligned score TSVs, one per system")
    p.add_argument("--dev", nargs="+", default=None,
                   help="aligned dev score TSVs for logistic training")
    p.add_argument("--model", default=None,
                   help="apply a previously trained fusion model")
    p.add_argument("--model-out", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("eval", help="ROCCH EER of a score file")
    p.add_argument("--scores", required=True)
    p.add_argument("--per-attack", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ltas", help="long-term average spectrum to CSV")
    p.add_argument("--wav", required=True)
    p.add_argument("--frame-ms", type=float, default=20.0)
    p.add_argument("--no-vad", dest="with_vad", action="store_false",
                   help="average over all frames, not just speech")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ltas, stages=("audio", "dsp"))

    p = sub.add_parser("toy-corpus", help="generate the built-in corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train", type=int, default=200)
    p.add_argument("--dev", type=int, default=100)
    p.add_argument("--eval", type=int, default=100)
    p.set_defaults(func=cmd_toy_corpus, stages=("toycorpus",))

    p = sub.add_parser("run", help="execute a full experiment grid")
    p.add_argument("--config", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--wav-root", default=None)
    p.add_argument("--work-dir", required=True)
    p.set_defaults(func=cmd_run, stages=("harness",))

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        runtime.keep_freed_heap()
        for name in args.stages:
            importlib.import_module(f"{__package__}.{name}")
        with runtime.one_blas_thread():   # as a run pins its own stages
            args.func(args)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary
        message = " ".join(str(exc).split())
        sys.stderr.write(f"error\t{type(exc).__name__}\t{message}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front door.

Every pipeline stage is exposed as a subcommand so experiments can be
scripted piecemeal, and `run` executes a whole config grid.  On failure
the tool prints a single machine-parseable line to stderr::

    error\t<ExceptionType>\t<message>

and exits nonzero; on success it exits zero.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import config as configmod
from . import features, fusion, gmm, harness, ivector
from .audio import read_wav, write_features, write_wav
from .enhancement import ENHANCEMENT_METHODS, enhance
from .evaluation import compute_eer_rocch, compute_ltas, per_attack_eers, \
    save_ltas_csv
from .manifest import read_manifest
from .noiselab import NOISE_KINDS, make_noise, mix_at_snr
from .scores import ScoreSet, read_scores, write_scores
from .toycorpus import make_toy_corpus


def _parse_params(pairs):
    """--param name=value overrides for a FeatureConfig."""
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(f"--param expects name=value, got {pair!r}")
        name, raw = pair.split("=", 1)
        out[name.strip()] = configmod._parse_scalar(raw)
    return out


def _feature_config(args) -> features.FeatureConfig:
    overrides = dict(harness.DESK_FEATURE_OVERRIDES.get(args.kind, ()))
    overrides.update(_parse_params(getattr(args, "param", None)))
    return features.default_config(args.kind, **overrides)


def _manifest_rows(args, subset=None):
    manifest = read_manifest(args.manifest)
    root = getattr(args, "wav_root", None)
    if root is None:
        root = Path(args.manifest).parent
    wanted = subset or getattr(args, "subset", None)
    rows = manifest.subset(wanted).rows if wanted else manifest.rows
    if not rows:
        raise ValueError(f"manifest has no rows in subset {wanted!r}")
    return rows, Path(root)


def _load_signal(row, root):
    path = Path(row.wav_path)
    return read_wav(path if path.is_absolute() else root / path)


def _prepare_test_signal(row, root, args, cfg):
    """Optionally mix noise and enhance; VAD always comes from clean."""
    clean = _load_signal(row, root)
    signal = clean
    if getattr(args, "noise_kind", None):
        if args.snr is None:
            raise ValueError("--noise-kind requires --snr")
        noise = make_noise(args.noise_kind, len(signal), signal.sample_rate,
                           seed=harness.derive_seed(args.seed, "noise",
                                                    args.noise_kind,
                                                    row.utt_id))
        signal = mix_at_snr(signal, noise, args.snr,
                            seed=harness.derive_seed(args.seed, "mix",
                                                     args.noise_kind,
                                                     row.utt_id)).signal
    if getattr(args, "enhance", None):
        signal = enhance(signal, args.enhance)
    vad = None
    if signal is not clean:
        vad = features.compute_vad_mask(clean, cfg)
    return signal, vad


def _require(path, what, hint):
    if not Path(path).is_file():
        raise FileNotFoundError(f"missing {what} {path}; create it with "
                                f"`spoofbench {hint}`")


def _train_features_by_utt(rows, root, cfg):
    return {r.utt_id: features.extract(_load_signal(r, root), cfg)
            for r in rows}


def _write_train_ids(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for r in rows:
            fh.write(r.utt_id + "\n")


def _read_train_ids(path):
    if not Path(path).is_file():
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


# -- subcommand bodies ------------------------------------------------------

def cmd_extract(args):
    cfg = _feature_config(args)
    signal = read_wav(args.wav)
    vad = None
    if args.vad_from:
        vad = features.compute_vad_mask(read_wav(args.vad_from), cfg)
    values = features.extract(signal, cfg, vad=vad)
    write_features(args.out, values)
    print(f"{args.out}\t{values.shape[0]}x{values.shape[1]}")


def cmd_mix_noise(args):
    speech = read_wav(args.wav)
    if args.noise_wav:
        noise = read_wav(args.noise_wav)
    else:
        noise = make_noise(args.noise_kind, len(speech), speech.sample_rate,
                           seed=args.seed)
    result = mix_at_snr(speech, noise, args.snr, seed=args.seed,
                        level_method=args.level_method)
    write_wav(args.out, result.signal)
    print(f"{args.out}\tgain={result.noise_gain:.6g}\tscale={result.scale:.6g}"
          f"\tclipped={int(result.clipped)}")


def cmd_enhance(args):
    signal = read_wav(args.wav)
    write_wav(args.out, enhance(signal, args.method))
    print(args.out)


def cmd_train_gmm(args):
    rows, root = _manifest_rows(args, subset="train")
    cfg = _feature_config(args)
    feats = _train_features_by_utt(rows, root, cfg)
    nat, syn = harness.train_gmm_pair(feats, rows, args.components,
                                      args.iterations, args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    gmm.save_gmm(out_dir / "human.gmm", nat)
    gmm.save_gmm(out_dir / "spoof.gmm", syn)
    _write_train_ids(out_dir / "train_utts.txt", rows)
    print(out_dir)


def cmd_train_ubm(args):
    rows, root = _manifest_rows(args, subset="train")
    cfg = _feature_config(args)
    pooled = np.vstack([features.extract(_load_signal(r, root), cfg)
                        for r in rows])
    model, _ = gmm.train_gmm(pooled, args.components, args.iterations,
                             seed=args.seed)
    gmm.save_gmm(args.out, model)
    _write_train_ids(str(args.out) + ".train_utts.txt", rows)
    print(args.out)


def cmd_train_tv(args):
    _require(args.ubm, "UBM", "train-ubm")
    rows, root = _manifest_rows(args, subset="train")
    cfg = _feature_config(args)
    ubm = gmm.load_gmm(args.ubm)
    stats = [ivector.baum_welch_stats(
        features.extract(_load_signal(r, root), cfg), ubm) for r in rows]
    tv, _ = ivector.train_tv(stats, ubm, args.rank, args.iterations,
                             seed=args.seed)
    ivector.save_tv(args.out, tv, ubm.means.shape[0])
    _write_train_ids(str(args.out) + ".train_utts.txt", rows)
    print(args.out)


def cmd_extract_ivec(args):
    _require(args.ubm, "UBM", "train-ubm")
    _require(args.tv, "total-variability matrix", "train-tv")
    rows, root = _manifest_rows(args)
    cfg = _feature_config(args)
    ubm = gmm.load_gmm(args.ubm)
    tv = ivector.load_tv(args.tv)
    ids = [r.utt_id for r in rows]
    stats = [ivector.baum_welch_stats(
        features.extract(_load_signal(r, root), cfg), ubm) for r in rows]
    ivector.save_ivectors(args.out, ids,
                          ivector.ivectors_from_stats(stats, ubm, tv))
    print(f"{args.out}\t{len(ids)}")


def _labels_for(ids, manifest_path):
    manifest = read_manifest(manifest_path)
    by_id = {r.utt_id: r.label for r in manifest}
    missing = [u for u in ids if u not in by_id]
    if missing:
        raise ValueError(f"manifest lacks utterances: {missing[:3]}")
    return [by_id[u] for u in ids]


def cmd_train_wccn(args):
    ids, vecs = ivector.load_ivectors(args.ivectors)
    labels = _labels_for(ids, args.manifest)
    b = ivector.train_wccn(vecs, labels)
    ivector.save_wccn(args.out, b)
    if args.means_out:
        normed = ivector.length_normalize(ivector.apply_wccn(b, vecs))
        means = ivector.class_mean_ivectors(normed, labels)
        ivector.save_class_means(args.means_out, means)
    print(args.out)


def cmd_train_plda(args):
    ids, vecs = ivector.load_ivectors(args.ivectors)
    labels = _labels_for(ids, args.manifest)
    if args.wccn:
        b = ivector.load_wccn(args.wccn)
        vecs = ivector.length_normalize(ivector.apply_wccn(b, vecs))
    model = ivector.train_plda(vecs, labels, latent_rank=args.latent,
                               n_iterations=args.iterations, seed=args.seed)
    ivector.save_plda(args.out, model)
    print(args.out)


def _emit_scores(args, rows, scores):
    out = ScoreSet(
        utt_ids=[r.utt_id for r in rows],
        scores=np.asarray(scores, dtype=np.float64),
        labels=[r.label for r in rows],
        attack_ids=[r.attack_id for r in rows],
        conditions=[args.condition] * len(rows),
    )
    write_scores(args.out, out)
    print(f"{args.out}\t{len(rows)}")


def cmd_score_gmm(args):
    model_dir = Path(args.models)
    _require(model_dir / "human.gmm", "class model", "train-gmm")
    _require(model_dir / "spoof.gmm", "class model", "train-gmm")
    rows, root = _manifest_rows(args)
    train_ids = _read_train_ids(model_dir / "train_utts.txt")
    if train_ids:
        harness.check_hygiene(train_ids, [r.utt_id for r in rows])
    nat = gmm.load_gmm(model_dir / "human.gmm")
    syn = gmm.load_gmm(model_dir / "spoof.gmm")
    cfg = _feature_config(args)
    scores = []
    for r in rows:
        signal, vad = _prepare_test_signal(r, root, args, cfg)
        frames = features.extract(signal, cfg, vad=vad)
        scores.append(gmm.llr_score(frames, nat, syn))
    _emit_scores(args, rows, scores)


def cmd_score_ivec(args):
    _require(args.ubm, "UBM", "train-ubm")
    _require(args.tv, "total-variability matrix", "train-tv")
    _require(args.wccn, "WCCN transform", "train-wccn")
    _require(args.means, "class means", "train-wccn --means-out")
    plda = None
    if args.scoring == "plda":
        if not args.plda:
            raise ValueError("--scoring plda requires --plda MODEL")
        _require(args.plda, "PLDA model", "train-plda")
        plda = ivector.load_plda(args.plda)
    rows, root = _manifest_rows(args)
    train_ids = _read_train_ids(str(args.tv) + ".train_utts.txt")
    if train_ids:
        harness.check_hygiene(train_ids, [r.utt_id for r in rows])
    stack = harness.IvectorStack(gmm.load_gmm(args.ubm),
                                 ivector.load_tv(args.tv),
                                 ivector.load_wccn(args.wccn),
                                 ivector.load_class_means(args.means))
    cfg = _feature_config(args)
    scores = []
    for r in rows:
        signal, vad = _prepare_test_signal(r, root, args, cfg)
        frames = features.extract(signal, cfg, vad=vad)
        scores.append(harness.ivector_score(stack, frames, args.scoring,
                                            plda))
    _emit_scores(args, rows, scores)


def cmd_fuse(args):
    sets = [read_scores(p) for p in args.scores]
    if args.method == "average":
        fused = fusion.fuse_average(sets)
        model = fusion.average_model([f"sys{i}" for i in range(len(sets))])
    else:
        if args.model:
            model = fusion.load_fusion(args.model)
        elif args.dev:
            dev_sets = [read_scores(p) for p in args.dev]
            if len(dev_sets) != len(sets):
                raise ValueError("need one --dev set per scored system")
            model = fusion.train_logistic_fusion(dev_sets)
        else:
            raise ValueError("logistic fusion needs --dev sets or --model")
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
    manifest = make_toy_corpus(args.out_dir, seed=args.seed,
                               n_train=args.train, n_dev=args.dev,
                               n_eval=args.eval)
    print(f"{Path(args.out_dir) / 'manifest.tsv'}\t{len(manifest)}")


def cmd_run(args):
    cfg = configmod.load_config(args.config)
    manifest = read_manifest(args.manifest)
    wav_root = args.wav_root or Path(args.manifest).parent
    result = harness.run_experiment(cfg, manifest, args.work_dir,
                                    wav_root=wav_root)
    print(result.summary_path)
    for row in result.rows:
        print(f"{row.cell_tag}\t{row.backend}\t{row.system}\t{row.subset}\t"
              f"{row.report.eer_percent:.4f}")


# -- argument wiring --------------------------------------------------------

def _add_feature_args(p, with_params=True):
    p.add_argument("--kind", required=True, choices=features.FEATURE_KINDS)
    if with_params:
        p.add_argument("--param", action="append", metavar="NAME=VALUE",
                       help="feature config override, repeatable")


def _add_manifest_args(p, subset_default=None):
    p.add_argument("--manifest", required=True)
    p.add_argument("--wav-root", default=None,
                   help="base for relative wav paths "
                        "(default: manifest directory)")
    p.add_argument("--subset", default=subset_default,
                   choices=("train", "dev", "eval"),
                   help="restrict to one subset")


def _add_test_condition_args(p):
    p.add_argument("--noise-kind", choices=NOISE_KINDS, default=None)
    p.add_argument("--snr", type=float, default=None)
    p.add_argument("--enhance", choices=ENHANCEMENT_METHODS, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--condition", default="clean",
                   help="condition tag recorded in the score file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spoofbench",
        description="synthetic-speech spoofing detection workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract features from one wav")
    _add_feature_args(p)
    p.add_argument("--wav", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--vad-from", default=None,
                   help="take voicing decisions from this (clean) wav")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("mix-noise", help="add noise to a wav at target SNR")
    p.add_argument("--wav", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--noise-kind", choices=NOISE_KINDS)
    group.add_argument("--noise-wav")
    p.add_argument("--snr", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--level-method", choices=("active", "rms"),
                   default="active")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mix_noise)

    p = sub.add_parser("enhance", help="classical speech enhancement")
    p.add_argument("--wav", required=True)
    p.add_argument("--method", required=True, choices=ENHANCEMENT_METHODS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("train-gmm",
                       help="train the human/spoof GMM pair")
    _add_feature_args(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--wav-root", default=None)
    p.add_argument("--components", type=int, default=32)
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train_gmm)

    p = sub.add_parser("train-ubm", help="train the background GMM")
    _add_feature_args(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--wav-root", default=None)
    p.add_argument("--components", type=int, default=32)
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_ubm)

    p = sub.add_parser("train-tv",
                       help="train the total-variability matrix")
    _add_feature_args(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--wav-root", default=None)
    p.add_argument("--ubm", required=True)
    p.add_argument("--rank", type=int, default=32)
    p.add_argument("--iterations", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_tv)

    p = sub.add_parser("extract-ivec", help="embed utterances as i-vectors")
    _add_feature_args(p)
    _add_manifest_args(p)
    p.add_argument("--ubm", required=True)
    p.add_argument("--tv", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract_ivec)

    p = sub.add_parser("train-wccn",
                       help="train within-class whitening (and class means)")
    p.add_argument("--ivectors", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--means-out", default=None,
                   help="also write normalized class-mean i-vectors")
    p.set_defaults(func=cmd_train_wccn)

    p = sub.add_parser("train-plda", help="train a two-class PLDA model")
    p.add_argument("--ivectors", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--wccn", default=None,
                   help="apply this WCCN + length norm before training")
    p.add_argument("--latent", type=int, default=16)
    p.add_argument("--iterations", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_plda)

    p = sub.add_parser("score-gmm", help="score utterances with a GMM pair")
    _add_feature_args(p)
    _add_manifest_args(p, subset_default="eval")
    _add_test_condition_args(p)
    p.add_argument("--models", required=True,
                   help="directory written by train-gmm")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score_gmm)

    p = sub.add_parser("score-ivec",
                       help="score utterances with the i-vector stack")
    _add_feature_args(p)
    _add_manifest_args(p, subset_default="eval")
    _add_test_condition_args(p)
    p.add_argument("--ubm", required=True)
    p.add_argument("--tv", required=True)
    p.add_argument("--wccn", required=True)
    p.add_argument("--means", required=True)
    p.add_argument("--scoring", choices=("cosine", "plda"),
                   default="cosine")
    p.add_argument("--plda", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score_ivec)

    p = sub.add_parser("fuse", help="combine score files")
    p.add_argument("--method", choices=("average", "logistic"),
                   required=True)
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
    p.set_defaults(func=cmd_ltas)

    p = sub.add_parser("toy-corpus", help="generate the built-in corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train", type=int, default=200)
    p.add_argument("--dev", type=int, default=100)
    p.add_argument("--eval", type=int, default=100)
    p.set_defaults(func=cmd_toy_corpus)

    p = sub.add_parser("run", help="execute a full experiment grid")
    p.add_argument("--config", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--wav-root", default=None)
    p.add_argument("--work-dir", required=True)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary
        message = " ".join(str(exc).split())
        sys.stderr.write(f"error\t{type(exc).__name__}\t{message}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

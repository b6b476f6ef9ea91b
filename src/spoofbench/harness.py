"""Experiment orchestration: the train-clean / test-noisy protocol.

The runner walks the config's noise grid, materializes each processing
stage (mixing, enhancement, feature extraction, model training) into a
content-addressed cache, scores dev and eval subsets with every
feature x back-end pair, optionally fuses the per-feature systems, and
writes score TSVs plus EER reports.

Caching notes: every artifact lives under a directory named by a hash of
exactly the settings that influence its bytes, so re-running a config
reuses everything and changing one knob invalidates only what depends on
it.  Prepared audio is materialized as 16-bit WAV and features are
always extracted from the materialized file, which keeps warm and cold
runs bit-identical.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import features, gmm, ivector
from .audio import AudioSignal, read_features, read_wav, write_features, write_wav
from .config import ExperimentConfig, GridCell
from .enhancement import enhance
from .errors import HygieneError
from .evaluation import EvalReport, compute_eer_rocch, per_attack_eers
from .fusion import (apply_fusion, fuse_average, save_fusion,
                     train_logistic_fusion)
from .manifest import Manifest
from .noiselab import make_noise, mix_at_snr
from .scores import HUMAN, ScoreSet, write_scores

# salt of every feature and model cache key: bump it whenever a change
# alters the bytes an extractor writes, so an old work dir re-extracts
# instead of mixing old and new features (2: blocked-GEMM constant-Q
# transform, sosfilt gammatone bank)
CACHE_VERSION = 2

# desk-scale CQT geometry: full-resolution kernels dominate runtime while
# adding nothing at toy-corpus scale.  CQCC per 1.5 s toy utterance, one
# thread of a 2-vCPU Xeon VM: 32 ms at 24x6, 1.4 s at the paper's 96x9
# (plus a one-off 2.6 s to build 316 MB of kernel rows), so the end-to-end
# acceptance run (about 1,000 CQCC extractions) cannot afford 96x9.
DESK_FEATURE_OVERRIDES = {"cqcc": (("cqt_bins_per_octave", 24),
                                   ("cqt_octaves", 6))}


def derive_seed(root_seed: int, *parts) -> int:
    """Stable per-stage seed: sha256 over the root seed and stage labels."""
    h = hashlib.sha256(str(int(root_seed)).encode("ascii"))
    for part in parts:
        h.update(b"\x00" + str(part).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little")


def _stage_hash(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(b"\x00" + str(part).encode("utf-8"))
    return h.hexdigest()[:12]


def _feature_text(cfg: features.FeatureConfig) -> str:
    d = asdict(cfg)
    return f"cache_version={CACHE_VERSION}," + ",".join(f"{k}={d[k]}" for k in sorted(d))


def condition_tag(cell: GridCell, enhancement: str | None) -> str:
    return cell.tag if enhancement is None else f"{cell.tag}+{enhancement}"


def train_gmm_pair(feats_by_utt, rows, n_components, n_iterations, seed):
    """Class-conditional GMMs (human, spoof) from per-utterance features."""
    nat = np.vstack([feats_by_utt[r.utt_id] for r in rows
                     if r.label == HUMAN])
    syn = np.vstack([feats_by_utt[r.utt_id] for r in rows
                     if r.label != HUMAN])
    nat_model, _ = gmm.train_gmm(nat, n_components, n_iterations, seed=seed)
    syn_model, _ = gmm.train_gmm(syn, n_components, n_iterations,
                                 seed=derive_seed(seed, "spoof-class"))
    return nat_model, syn_model


@dataclass(frozen=True)
class IvectorStack:
    """Everything needed to embed an utterance and score it by cosine; the
    PLDA scorer is a separate model trained on the stack's i-vectors."""

    ubm: gmm.GmmModel
    tv: ivector.TvMatrix
    wccn: np.ndarray
    class_means: dict

    @cached_property
    def gram(self) -> np.ndarray:
        """Gram blocks of the UBM and TV pair, computed on first use."""
        return ivector.gram_blocks(self.tv.matrix, self.ubm)


def train_ivector_stack(feats_by_utt, rows, *, ubm_components, tv_rank,
                        tv_iterations, seed):
    """UBM, TV matrix, WCCN and class means from the training rows.

    Returns (stack, normed): normed holds the length-normalised training
    i-vectors, one row per training row, that the class means are taken
    from and that a PLDA scorer is trained on.
    """
    pooled = np.vstack([feats_by_utt[r.utt_id] for r in rows])
    ubm, _ = gmm.train_gmm(pooled, ubm_components, n_iterations=10, seed=seed)
    stats = [ivector.baum_welch_stats(feats_by_utt[r.utt_id], ubm)
             for r in rows]
    tv, _ = ivector.train_tv(stats, ubm, tv_rank, tv_iterations,
                             seed=derive_seed(seed, "tv"))
    raw = ivector.ivectors_from_stats(stats, ubm, tv)
    labels = [r.label for r in rows]
    b = ivector.train_wccn(raw, labels)
    normed = ivector.length_normalize(ivector.apply_wccn(b, raw))
    means = ivector.class_mean_ivectors(normed, labels)
    return IvectorStack(ubm, tv, b, means), normed


def embed_ivector(stack: IvectorStack, frames) -> np.ndarray:
    w = ivector.extract_ivector(frames, stack.ubm, stack.tv, stack.gram)
    return ivector.length_normalize(ivector.apply_wccn(stack.wccn,
                                                       w[None, :]))[0]


def embedding_score(stack: IvectorStack, w, scoring: str,
                    plda: ivector.PldaModel | None = None) -> float:
    """Detection score of an embedded utterance against the class means."""
    nat, syn = stack.class_means[HUMAN], stack.class_means["spoof"]
    if scoring == "cosine":
        return ivector.detection_score(w, nat, syn)
    if scoring == "plda":
        if plda is None:
            raise ValueError("PLDA scoring needs a PLDA model")
        return ivector.plda_detection_score(plda, w, nat, syn)
    raise ValueError(f"unknown i-vector scoring {scoring!r}")


def ivector_score(stack: IvectorStack, frames, scoring: str,
                  plda: ivector.PldaModel | None = None) -> float:
    return embedding_score(stack, embed_ivector(stack, frames), scoring, plda)


def _write_via_temp(write, path: Path, value):
    """write(tmp, value) to a fresh temp file next to path, then rename it
    onto path, so concurrent runs sharing a work dir never share a temp
    file and a reader never sees a partial artifact."""
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp",
                               dir=path.parent)
    os.close(fd)
    try:
        write(tmp, value)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def check_hygiene(train_utt_ids, scored_utt_ids):
    """Refuse to score any utterance the model was trained on."""
    overlap = set(train_utt_ids) & set(scored_utt_ids)
    if overlap:
        sample = ", ".join(sorted(overlap)[:3])
        raise HygieneError(f"model training set intersects the scored set "
                           f"({len(overlap)} utterances, e.g. {sample})")


@dataclass(frozen=True)
class SystemResult:
    cell_tag: str
    backend: str
    system: str
    subset: str
    scores_path: Path
    report: EvalReport


@dataclass(frozen=True)
class ExperimentResult:
    work_dir: Path
    rows: tuple
    summary_path: Path

    def report(self, cell_tag, backend, system, subset) -> EvalReport:
        for row in self.rows:
            if (row.cell_tag, row.backend, row.system,
                    row.subset) == (cell_tag, backend, system, subset):
                return row.report
        raise KeyError((cell_tag, backend, system, subset))

    def eer(self, cell_tag, backend, system, subset) -> float:
        return self.report(cell_tag, backend, system, subset).eer_percent


class _Runner:
    def __init__(self, config: ExperimentConfig, manifest: Manifest,
                 work_dir, wav_root=None):
        self.config = config
        self.manifest = manifest
        self.work_dir = Path(work_dir)
        self.wav_root = Path(wav_root) if wav_root is not None else Path(".")
        self.cache = self.work_dir / "cache"
        # the wav bytes are part of the fingerprint, so an edited wav under
        # an unchanged manifest re-extracts instead of reusing old features
        # (raw bytes: decoding each wav would cost a read_wav per run)
        self.corpus_fp = _stage_hash(*(
            f"{r.utt_id},{r.wav_path},{r.label},{r.attack_id},{r.subset},"
            f"{hashlib.sha256(self._wav_path(r).read_bytes()).hexdigest()}"
            for r in manifest))
        self._signal_cache = {}
        self._models = {}

    # -- audio stages ------------------------------------------------------

    def _wav_path(self, row) -> Path:
        path = Path(row.wav_path)
        return path if path.is_absolute() else self.wav_root / path

    def _source(self, row) -> AudioSignal:
        if row.utt_id not in self._signal_cache:
            self._signal_cache[row.utt_id] = read_wav(self._wav_path(row))
        return self._signal_cache[row.utt_id]

    def _prepared_wav(self, row, cell: GridCell, enhanced: bool) -> Path:
        """Materialize (mix, then optionally enhance) as a cached WAV."""
        seed = self.config.seed
        method = self.config.enhancement if enhanced else None
        key = _stage_hash("audio", self.corpus_fp, seed, cell.tag,
                          method or "-")
        path = self.cache / "audio" / key / f"{row.utt_id}.wav"
        if path.is_file():
            return path
        path.parent.mkdir(parents=True, exist_ok=True)
        if cell.is_clean:
            signal = self._source(row)
        else:
            mixed_path = self._prepared_wav(row, cell, enhanced=False) \
                if enhanced else None
            if mixed_path is not None:
                signal = read_wav(mixed_path)
            else:
                speech = self._source(row)
                noise = make_noise(cell.noise_kind, len(speech),
                                   speech.sample_rate,
                                   seed=derive_seed(seed, "noise", cell.tag,
                                                    row.utt_id))
                signal = mix_at_snr(speech, noise, cell.snr_db,
                                    seed=derive_seed(seed, "mix", cell.tag,
                                                     row.utt_id)).signal
        if method is not None:
            signal = enhance(signal, method)
        _write_via_temp(write_wav, path, signal)
        return path

    def _prepared_signal(self, row, cell: GridCell) -> AudioSignal:
        enhanced = self.config.enhancement is not None
        if cell.is_clean and not enhanced:
            return self._source(row)
        return read_wav(self._prepared_wav(row, cell, enhanced))

    # -- features ----------------------------------------------------------

    def _feature_config(self, kind: str) -> features.FeatureConfig:
        explicit = {name for k, name, _ in self.config.feature_overrides
                    if k == kind}
        merged = dict(DESK_FEATURE_OVERRIDES.get(kind, ()))
        merged = {k: v for k, v in merged.items() if k not in explicit}
        cfg = self.config.feature_config(kind)
        if merged:
            cfg = features.FeatureConfig(**{**asdict(cfg), **merged})
        return cfg

    def _cell_features(self, rows, kind: str, cell: GridCell) -> dict:
        """Per-utterance features for one condition, disk-cached.

        Noisy or enhanced variants reuse the voiced/unvoiced decisions of
        the clean signal, so degradation affects the observations but not
        the frame selection.
        """
        cfg = self._feature_config(kind)
        enhanced = self.config.enhancement is not None
        processed = not cell.is_clean or enhanced
        key = _stage_hash("features", self.corpus_fp, self.config.seed,
                          cell.tag,
                          self.config.enhancement or "-",
                          _feature_text(cfg))
        cache_dir = self.cache / "features" / key
        cache_dir.mkdir(parents=True, exist_ok=True)
        out = {}
        for row in rows:
            path = cache_dir / f"{row.utt_id}.{kind}.spbf"
            if path.is_file():
                out[row.utt_id] = read_features(path)
                continue
            signal = self._prepared_signal(row, cell)
            vad = None
            if processed:
                vad = features.compute_vad_mask(self._source(row), cfg)
            values = features.extract(signal, cfg, vad=vad)
            _write_via_temp(write_features, path, values)
            out[row.utt_id] = values
        return out

    def _train_features(self, kind: str) -> dict:
        """Training observations: clean audio only, never enhanced."""
        cfg = self._feature_config(kind)
        rows = self.manifest.subset("train").rows
        key = _stage_hash("features", self.corpus_fp, self.config.seed,
                          "clean", "-", _feature_text(cfg))
        cache_dir = self.cache / "features" / key
        cache_dir.mkdir(parents=True, exist_ok=True)
        out = {}
        for row in rows:
            path = cache_dir / f"{row.utt_id}.{kind}.spbf"
            if path.is_file():
                out[row.utt_id] = read_features(path)
            else:
                values = features.extract(self._source(row), cfg)
                _write_via_temp(write_features, path, values)
                out[row.utt_id] = values
        return out

    # -- models ------------------------------------------------------------

    def _gmm_models(self, kind: str):
        cfg = self.config
        key = _stage_hash("gmm", self.corpus_fp, cfg.seed,
                          _feature_text(self._feature_config(kind)),
                          cfg.gmm_components, cfg.gmm_iterations)
        model_dir = self.cache / "models" / key
        rows = self.manifest.subset("train").rows
        nat_path = model_dir / "human.gmm"
        syn_path = model_dir / "spoof.gmm"
        if nat_path.is_file() and syn_path.is_file():
            return (gmm.load_gmm(nat_path), gmm.load_gmm(syn_path),
                    self._load_train_ids(model_dir))
        model_dir.mkdir(parents=True, exist_ok=True)
        feats = self._train_features(kind)
        seed = derive_seed(cfg.seed, "gmm", kind)
        nat, syn = train_gmm_pair(feats, rows, cfg.gmm_components,
                                  cfg.gmm_iterations, seed)
        gmm.save_gmm(nat_path, nat)
        gmm.save_gmm(syn_path, syn)
        self._save_train_ids(model_dir, rows)
        return nat, syn, [r.utt_id for r in rows]

    def _ivector_dir(self, kind: str) -> Path:
        cfg = self.config
        key = _stage_hash("ivector", self.corpus_fp, cfg.seed,
                          _feature_text(self._feature_config(kind)),
                          cfg.ubm_components, cfg.tv_rank, cfg.tv_iterations)
        return self.cache / "models" / key

    def _ivector_stack(self, kind: str):
        cfg = self.config
        model_dir = self._ivector_dir(kind)
        rows = self.manifest.subset("train").rows
        done = model_dir / "class_means.txt"
        if done.is_file():
            ubm = gmm.load_gmm(model_dir / "ubm.gmm")
            tv = ivector.load_tv(model_dir / "tv.stv")
            b = ivector.load_wccn(model_dir / "wccn.swc")
            means = ivector.load_class_means(done)
            return (IvectorStack(ubm, tv, b, means),
                    self._load_train_ids(model_dir))
        model_dir.mkdir(parents=True, exist_ok=True)
        feats = self._train_features(kind)
        stack, normed = train_ivector_stack(
            feats, rows, ubm_components=cfg.ubm_components,
            tv_rank=cfg.tv_rank, tv_iterations=cfg.tv_iterations,
            seed=derive_seed(cfg.seed, "ivector", kind))
        gmm.save_gmm(model_dir / "ubm.gmm", stack.ubm)
        ivector.save_tv(model_dir / "tv.stv", stack.tv,
                        stack.ubm.means.shape[0])
        ivector.save_wccn(model_dir / "wccn.swc", stack.wccn)
        ivector.save_ivectors(model_dir / "train_ivectors.txt",
                              [r.utt_id for r in rows], normed)
        self._save_train_ids(model_dir, rows)
        ivector.save_class_means(done, stack.class_means)
        return stack, [r.utt_id for r in rows]

    def _plda(self, kind: str) -> ivector.PldaModel:
        """PLDA scorer of a feature's i-vector stack: trained on first
        request from the training i-vectors stored with the stack, and kept
        in the stack's directory, one file per PLDA setting."""
        cfg = self.config
        self._model(kind, "ivector")   # a trained stack stores its i-vectors
        model_dir = self._ivector_dir(kind)
        path = (model_dir /
                f"plda.q{cfg.plda_latent}.i{cfg.plda_iterations}.spl")
        if path.is_file():
            return ivector.load_plda(path)
        utt_ids, normed = ivector.load_ivectors(model_dir /
                                                "train_ivectors.txt")
        label = {r.utt_id: r.label for r in self.manifest.subset("train")}
        plda = ivector.train_plda(
            normed, [label[u] for u in utt_ids], latent_rank=cfg.plda_latent,
            n_iterations=cfg.plda_iterations,
            seed=derive_seed(derive_seed(cfg.seed, "ivector", kind), "plda"))
        _write_via_temp(ivector.save_plda, path, plda)
        return plda

    @staticmethod
    def _save_train_ids(model_dir: Path, rows):
        with open(model_dir / "train_utts.txt", "w", encoding="utf-8") as fh:
            for r in rows:
                fh.write(r.utt_id + "\n")

    @staticmethod
    def _load_train_ids(model_dir: Path):
        with open(model_dir / "train_utts.txt", "r", encoding="utf-8") as fh:
            return [line.strip() for line in fh if line.strip()]

    # -- scoring -----------------------------------------------------------

    def _model(self, kind: str, name: str):
        """A feature's GMM pair ("gmm"), i-vector stack ("ivector") or PLDA
        scorer ("plda"), loaded or trained once per run."""
        key = (kind, name)
        if key not in self._models:
            load = {"gmm": self._gmm_models, "ivector": self._ivector_stack,
                    "plda": self._plda}[name]
            self._models[key] = load(kind)
        return self._models[key]

    def _subset_scores(self, rows, kind, cell) -> dict:
        """{back-end: ScoreSet} of one (condition, subset, feature): the
        features are read once, and each utterance is embedded once for
        every i-vector back-end."""
        frames = self._cell_features(rows, kind, cell)
        utt_ids = [r.utt_id for r in rows]
        backends = self.config.backends
        scores = {}
        if "gmm" in backends:
            nat, syn, train_ids = self._model(kind, "gmm")
            check_hygiene(train_ids, utt_ids)
            scores["gmm"] = [gmm.llr_score(frames[u], nat, syn)
                             for u in utt_ids]
        ivector_backends = [b for b in backends if b != "gmm"]
        if ivector_backends:
            stack, train_ids = self._model(kind, "ivector")
            check_hygiene(train_ids, utt_ids)
            embedded = [embed_ivector(stack, frames[u]) for u in utt_ids]
            for backend in ivector_backends:
                scoring = backend.split("-", 1)[1]
                plda = self._model(kind, "plda") if scoring == "plda" else None
                scores[backend] = [embedding_score(stack, w, scoring, plda)
                                   for w in embedded]
        return {b: self._scoreset(rows, scores[b], kind, b, cell)
                for b in backends}

    def _scoreset(self, rows, scores, kind, backend, cell) -> ScoreSet:
        cond = condition_tag(cell, self.config.enhancement)
        scores = np.array(scores)
        finite = np.isfinite(scores)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(f"non-finite score {float(scores[i])!r} for "
                             f"utterance {rows[i].utt_id} (feature {kind}, "
                             f"back-end {backend}, condition {cond})")
        return ScoreSet(
            utt_ids=[r.utt_id for r in rows],
            scores=scores,
            labels=[r.label for r in rows],
            attack_ids=[r.attack_id for r in rows],
            conditions=[cond] * len(rows),
        )

    # -- the full grid -----------------------------------------------------

    def run(self) -> ExperimentResult:
        cfg = self.config
        results = []
        summary_rows = []
        per_attack_rows = []

        def emit(cell, backend, system, subset, scores: ScoreSet):
            cond = condition_tag(cell, cfg.enhancement)
            out_dir = self.work_dir / "scores" / cond / backend
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"{system}.{subset}.tsv"
            write_scores(path, scores)
            report = compute_eer_rocch(scores)
            results.append(SystemResult(cond, backend, system, subset,
                                        path, report))
            summary_rows.append((cond, backend, system, subset,
                                 report.eer_percent, report.n_target,
                                 report.n_nontarget))
            attacks = {a for a in scores.attack_ids if a != "-"}
            if subset == "eval" and len(attacks) > 1:
                per_attack, macro = per_attack_eers(scores)
                for attack in sorted(per_attack):
                    per_attack_rows.append((cond, backend, system, subset,
                                            attack,
                                            per_attack[attack].eer_percent))
                per_attack_rows.append((cond, backend, system, subset,
                                        "macro-average", macro))

        subsets = [(name, self.manifest.subset(name).rows)
                   for name in ("dev", "eval")]
        subsets = [(name, rows) for name, rows in subsets if rows]

        for cell in cfg.grid:
            # every back-end is scored from one pass over each (subset,
            # feature), which holds one subset's frames at a time
            by_backend = {backend: {subset: {} for subset, _ in subsets}
                          for backend in cfg.backends}
            for subset, rows in subsets:
                for kind in cfg.features:
                    for backend, scores in self._subset_scores(
                            rows, kind, cell).items():
                        by_backend[backend][subset][kind] = scores
            for backend in cfg.backends:
                per_subset_sets = by_backend[backend]
                for subset, _ in subsets:
                    for kind in cfg.features:
                        emit(cell, backend, kind, subset,
                             per_subset_sets[subset][kind])

                for method in cfg.fusion:
                    ordered = list(cfg.features)
                    if method == "average":
                        for subset, _ in subsets:
                            sets = per_subset_sets[subset]
                            fused = fuse_average([sets[k] for k in ordered])
                            emit(cell, backend, "fusion-average", subset,
                                 fused)
                    elif method == "logistic":
                        if "dev" not in per_subset_sets:
                            raise ValueError("logistic fusion needs a dev "
                                             "subset in the manifest")
                        dev_sets = [per_subset_sets["dev"][k]
                                    for k in ordered]
                        model = train_logistic_fusion(dev_sets,
                                                      system_ids=ordered)
                        cond = condition_tag(cell, cfg.enhancement)
                        fus_dir = self.work_dir / "models" / "fusion"
                        fus_dir.mkdir(parents=True, exist_ok=True)
                        save_fusion(fus_dir / f"{cond}.{backend}.logistic.txt",
                                    model)
                        for subset, _ in subsets:
                            sets = [per_subset_sets[subset][k]
                                    for k in ordered]
                            fused = apply_fusion(model, sets)
                            emit(cell, backend, "fusion-logistic", subset,
                                 fused)

        self.work_dir.mkdir(parents=True, exist_ok=True)
        summary_path = self.work_dir / "summary.tsv"
        with open(summary_path, "w", encoding="utf-8") as fh:
            fh.write("condition\tbackend\tsystem\tsubset\teer_percent\t"
                     "n_target\tn_nontarget\n")
            for cond, backend, system, subset, eer, nt, nn in summary_rows:
                fh.write(f"{cond}\t{backend}\t{system}\t{subset}\t"
                         f"{eer:.4f}\t{nt}\t{nn}\n")
        if per_attack_rows:
            with open(self.work_dir / "per_attack.tsv", "w",
                      encoding="utf-8") as fh:
                fh.write("condition\tbackend\tsystem\tsubset\tattack\t"
                         "eer_percent\n")
                for cond, backend, system, subset, attack, eer \
                        in per_attack_rows:
                    fh.write(f"{cond}\t{backend}\t{system}\t{subset}\t"
                             f"{attack}\t{eer:.4f}\n")
        return ExperimentResult(self.work_dir, tuple(results), summary_path)


def run_experiment(config: ExperimentConfig, manifest: Manifest, work_dir,
                   wav_root=None) -> ExperimentResult:
    """Execute the full grid; see the module docstring for the layout."""
    manifest.resolve_paths(wav_root)
    return _Runner(config, manifest, work_dir, wav_root).run()

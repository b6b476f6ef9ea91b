"""Experiment orchestration: the train-clean / test-noisy protocol.

The runner walks the config's noise grid, prepares the test audio of each
cell (mixing, enhancement), caches features and trained models in a
content-addressed cache, scores dev and eval subsets with every
feature x back-end pair, optionally fuses the per-feature systems, and
writes score TSVs plus EER reports.

The stages themselves are the public functions below (audio preparation,
feature extraction, model training, model directories, scoring); the
runner adds only the cache around them, and the CLI's stage commands
(`prepare`, `extract`, `train`, `score`) call the same functions, so a
stage-by-stage CLI pipeline writes the test audio, features and score
files a run uses and writes.

Caching notes: every artifact lives under a directory named by a hash of
exactly the settings that influence its bytes, so re-running a config
reuses everything and changing one knob invalidates only what depends on
it.  A run has two stages, each run by _run_jobs in a pool of min(jobs,
usable CPUs) forked workers.  The first makes every missing artifact: one
extraction job per (condition, utterance), then one training job per
feature lacking a model, started once the jobs writing its clean training
files are done.  An extraction job prepares its test audio in memory,
rounded to 16-bit PCM at each step, so neither a worker count nor a warm
cache changes a byte.  The run process then loads every model back, so a
cold run reads each model file once; a model carries the terms derived
from it from the moment it is built.  The second stage scores, fuses and
evaluates each grid cell in a job of its own.  Jobs reach workers by plan
index, so the cell workers inherit the loaded models and their terms, and
read only features from the cache.  With one usable CPU or one cell, the
cells run in order in the run process.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import secrets
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from multiprocessing import get_all_start_methods, get_context
from pathlib import Path

import numpy as np
import scipy.linalg  # noqa: F401 - scipy's OpenBLAS, loaded before a run pins

from . import features, gmm, ivector, runtime
from .audio import (AudioSignal, read_features, read_wav, to_pcm16,
                    write_features)
from .config import BACKENDS, ExperimentConfig, GridCell
from .enhancement import enhance
from .errors import DegenerateVectorError, HygieneError
from .evaluation import EvalReport, compute_eer_rocch, per_attack_eers
from .fusion import (apply_fusion, fuse_average, save_fusion,
                     train_logistic_fusion)
from .manifest import Manifest
from .noiselab import make_noise, mix_at_snr
from .scores import HUMAN, NO_ATTACK, SPOOF, ScoreSet, write_scores

# salt of each feature kind's feature and model cache keys: bump a kind's
# entry whenever a change alters the bytes its extractor writes, so an old
# work dir re-extracts that kind (and retrains its models) instead of mixing
# old and new features, and keeps the other kinds (2: blocked-GEMM
# constant-Q transform, sosfilt gammatone bank; 3: MHEC's Hilbert envelope
# as a circular convolution at a fast FFT length, which moves MHEC features
# at rounding level; every kind went through both)
CACHE_VERSIONS = {"mfcc": 3, "imfcc": 3, "scmc": 3, "cqcc": 3, "mhec": 3,
                  "rps": 3, "mgd": 3, "cosphase": 3}

# salt of the i-vector stack's model key: bump it whenever a change alters
# the bytes of a trained stack or of its PLDA scorer, so an old work dir
# retrains its stacks instead of mixing old models with new code (2: the
# training i-vectors come from one batched posterior solve, which moves
# them, WCCN, the class means and PLDA at rounding level; 3: TV training's
# E-step runs the same batched slices, which moves T at rounding level)
IVECTOR_STACK_VERSION = 3

# the most frames score_utterances stacks into one chunk; an utterance
# with more makes a chunk of its own.  Scoring score-warm's eight (condition,
# subset, feature) sets of 24 utterances, about 2,900 frames each, on one
# BLAS thread took 0.80, 0.75, 0.73 and 0.74 of the per-utterance time at
# 512, 768, 1,024 and 1,536 frames.  1,024 was chosen under glibc's default
# allocator, whose dynamic thresholds a larger chunk outgrew (a pass took
# 6.7k and 11.4k minor faults at 2,048 and 4,096 frames, none at 1,024).
# With the run's heap policy (runtime.keep_freed_heap) 4,096 frames gave no
# gain on score-warm (0.209, 0.248, 0.203 s against 0.213, 0.208, 0.209)
# and 2.3-2.8 MB more peak RSS, so the budget stays at 1,024.  A chunk's
# component log-likelihoods take 256 KB per model at 32 components and
# 4 MB at the paper's 512
_SCORE_CHUNK_FRAMES = 1024

# the file in which every model directory lists the utterances its models
# were trained on; it is written last, so it also marks the directory
# complete
TRAIN_IDS = "train_utts.txt"


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
    return (f"cache_version={CACHE_VERSIONS[cfg.kind]},"
            + ",".join(f"{k}={d[k]}" for k in sorted(d)))


def condition_tag(cell: GridCell, enhancement: str | None) -> str:
    return cell.tag if enhancement is None else f"{cell.tag}+{enhancement}"


# -- audio and features -----------------------------------------------------

def mix_condition(speech: AudioSignal, cell: GridCell, root_seed: int,
                  utt_id: str) -> AudioSignal:
    """An utterance with the noise of a noisy grid cell added; noise and
    mixing are seeded from the root seed, the cell's tag and the
    utterance."""
    noise = make_noise(cell.noise_kind, len(speech), speech.sample_rate,
                       seed=derive_seed(root_seed, "noise", cell.tag, utt_id))
    return mix_at_snr(speech, noise, cell.snr_db,
                      seed=derive_seed(root_seed, "mix", cell.tag,
                                       utt_id)).signal


def prepare_signal(clean: AudioSignal, utt_id: str, cell: GridCell,
                   enhancement: str | None, root_seed: int) -> AudioSignal:
    """The test signal of one utterance in one condition: mixed, rounded
    to 16-bit PCM, then enhanced and rounded again.  Returns clean itself
    when there is nothing to do."""
    signal = clean
    if not cell.is_clean:
        signal = to_pcm16(mix_condition(clean, cell, root_seed, utt_id))
    if enhancement is not None:
        signal = to_pcm16(enhance(signal, enhancement))
    return signal


def extract_test_features(signal: AudioSignal, cfg: features.FeatureConfig,
                          clean: AudioSignal) -> np.ndarray:
    """Features of signal, as prepare_signal made it from clean.  A noisy
    or enhanced signal is framed with the voiced/unvoiced decisions of its
    clean source, so degradation affects the observations but not the frame
    selection; clean itself selects its own frames."""
    vad = None if signal is clean else features.compute_vad_mask(clean, cfg)
    return features.extract(signal, cfg, vad=vad)


def _with_context(exc: Exception, context: str) -> Exception:
    """An exception of exc's type, with context appended to its message."""
    return type(exc)(f"{exc} ({context})")


def _job_context(utt_id, kind, cell: GridCell, enhancement) -> str:
    return (f"utterance {utt_id}, feature {kind}, "
            f"condition {condition_tag(cell, enhancement)}")


def _extract_job(wav_path, utt_id, cell: GridCell, enhancement, root_seed,
                 todo):
    """One (condition, utterance) of the extraction stage: prepare its test
    audio once, then extract and write each (kind, config, path) of todo;
    an error is re-raised naming the utterance, feature and condition."""
    kind = ",".join(k for k, _, _ in todo)
    try:
        clean = read_wav(wav_path)
        signal = prepare_signal(clean, utt_id, cell, enhancement, root_seed)
        for kind, cfg, path in todo:
            _write_via_temp(write_features, path,
                            extract_test_features(signal, cfg, clean))
    except Exception as exc:
        raise _with_context(exc, _job_context(utt_id, kind, cell,
                                              enhancement)) from exc


def _read_features(feature_dir: Path, rows, kind: str):
    """Per-utterance features of rows, in row order, from one cache
    directory: a generator, which reads each file as it is consumed."""
    return (read_features(feature_dir / f"{r.utt_id}.{kind}.spbf")
            for r in rows)


def _worker_count(n_jobs: int) -> int:
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    return min(n_jobs, len(cpus) or 1)


_plan = ()   # the running pool's jobs, which its forked workers inherit


def _planned_job(i: int) -> bytes:
    """Run job i of _plan: the one way a job enters a worker.  The result
    is pickled here, in the worker, so one that cannot be pickled is raised
    with the job's context; the job's own errors pass unchanged."""
    function, args, _, context = _plan[i]
    result = function(*args)
    try:
        return pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise _with_context(exc, context) from exc


def _run_jobs(jobs) -> list:
    """Run jobs, each (function, args, after, context): function(*args),
    once the jobs at plan-order indices after, all earlier in the plan, are
    done; a job whose prerequisite failed is not started.  Returns each
    job's result, in plan order.  The first failure in plan order cancels
    the jobs not yet started and is re-raised once the pool has shut down.
    A worker that dies breaks the pool, which is re-raised with the context
    of the first job in plan order that did not finish, and a result that
    cannot be pickled is raised with its own job's context.  A worker gets
    only a plan index: a fork pool starts its workers at the first submit,
    after the plan is published in _plan, so they inherit the jobs'
    functions and arguments, and only results are pickled.  Workers also
    inherit a run's heap policy, its one BLAS thread and what it loaded."""
    global _plan
    n = _worker_count(len(jobs))
    if n <= 1 or "fork" not in get_all_start_methods():
        return [function(*args) for function, args, _, _ in jobs]
    pool = ProcessPoolExecutor(n, mp_context=get_context("fork"))
    futures, results = [], []
    try:
        _plan = jobs
        for i, (_, _, after, _) in enumerate(jobs):
            if any(futures[j].exception() for j in after):
                break
            try:
                futures.append(pool.submit(_planned_job, i))
            except BrokenProcessPool as exc:   # a worker died meanwhile
                futures.append(Future())
                futures[-1].set_exception(exc)
        for future, (_, _, _, context) in zip(futures, jobs):
            try:
                results.append(pickle.loads(future.result()))
            except BrokenProcessPool as exc:
                raise _with_context(exc, context) from exc
    finally:
        pool.shutdown(cancel_futures=True)
        _plan = ()
    return results


# -- models -----------------------------------------------------------------

def train_gmm_pair(frames, rows, n_components, n_iterations, root_seed,
                   kind):
    """Class-conditional GMMs (human, spoof) from frames, the training
    rows' features in row order."""
    seed = derive_seed(root_seed, "gmm", kind)
    nat = np.vstack([u for u, r in zip(frames, rows) if r.label == HUMAN])
    syn = np.vstack([u for u, r in zip(frames, rows) if r.label != HUMAN])
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
    gram: np.ndarray   # ivector.gram_blocks(tv.matrix, ubm)


def train_ivector_stack(frames, rows, *, ubm_components, tv_rank,
                        tv_iterations, root_seed, kind):
    """UBM, TV matrix, WCCN and class means from frames, the training rows'
    features in row order.

    Returns (stack, normed): normed holds the length-normalised training
    i-vectors, one row per training row, that the class means are taken
    from and that a PLDA scorer is trained on.
    """
    seed = derive_seed(root_seed, "ivector", kind)
    ubm, _ = gmm.train_gmm(np.vstack(frames), ubm_components,
                           n_iterations=10, seed=seed)
    # one utterance a call, so the stacked responsibilities never hold more
    # than one utterance's frames
    n, f = (np.concatenate(x) for x in zip(*(ivector.batch_stats([u], ubm)
                                              for u in frames)))
    tv, _ = ivector.train_tv(n, f, ubm, tv_rank, tv_iterations,
                             seed=derive_seed(seed, "tv"))
    gram = ivector.gram_blocks(tv.matrix, ubm)
    raw = ivector.ivectors_from_stats(n, f, ubm, tv, gram)
    labels = [r.label for r in rows]
    b = ivector.train_wccn(raw, labels)
    projected = ivector.apply_wccn(b, raw)
    zero = np.flatnonzero(np.linalg.norm(projected, axis=1) < ivector.MIN_NORM)
    if zero.size:
        raise DegenerateVectorError(
            f"cannot length-normalize a zero i-vector (training utterance "
            f"{rows[zero[0]].utt_id})")
    normed = ivector.length_normalize(projected)
    means = ivector.class_mean_ivectors(normed, labels)
    return IvectorStack(ubm, tv, b, means, gram), normed


def train_stack_plda(model_dir, labels, *, latent_rank, n_iterations,
                     root_seed, kind) -> ivector.PldaModel:
    """PLDA scorer of the i-vector stack saved in model_dir, trained on the
    stack's stored training i-vectors; labels maps utterance id to class."""
    path = Path(model_dir) / "train_ivectors.txt"
    utt_ids, normed = ivector.load_ivectors(path)
    missing = [u for u in utt_ids if u not in labels]
    if missing:
        raise ValueError(f"{path}: no label for training utterance "
                         f"{missing[0]}")
    return ivector.train_plda(
        normed, [labels[u] for u in utt_ids], latent_rank=latent_rank,
        n_iterations=n_iterations,
        seed=derive_seed(derive_seed(root_seed, "ivector", kind), "plda"))


def _save_train_ids(path, train_ids):
    with open(path, "w", encoding="utf-8") as fh:
        for utt_id in train_ids:
            fh.write(utt_id + "\n")


def _load_train_ids(model_dir: Path):
    path = model_dir / TRAIN_IDS
    if not path.is_file():
        raise FileNotFoundError(f"missing {path}: the model directory does "
                                f"not list its training utterances")
    with open(path, "r", encoding="utf-8") as fh:
        train_ids = [line.strip() for line in fh if line.strip()]
    if not train_ids:
        raise ValueError(f"{path} lists no training utterances")
    return train_ids


def save_gmm_pair(model_dir, nat, syn, train_ids):
    model_dir = Path(model_dir)
    model_dir.mkdir(parents=True, exist_ok=True)
    _write_via_temp(gmm.save_gmm, model_dir / "human.gmm", nat)
    _write_via_temp(gmm.save_gmm, model_dir / "spoof.gmm", syn)
    _write_via_temp(_save_train_ids, model_dir / TRAIN_IDS, train_ids)


def load_gmm_pair(model_dir):
    """(human GMM, spoof GMM, training utterance ids) of a model dir."""
    model_dir = Path(model_dir)
    train_ids = _load_train_ids(model_dir)
    return (gmm.load_gmm(model_dir / "human.gmm"),
            gmm.load_gmm(model_dir / "spoof.gmm"), train_ids)


def save_ivector_stack(model_dir, stack: IvectorStack, normed, train_ids):
    """The stack's models plus its normalised training i-vectors, which a
    later PLDA scorer is trained on."""
    model_dir = Path(model_dir)
    model_dir.mkdir(parents=True, exist_ok=True)
    _write_via_temp(gmm.save_gmm, model_dir / "ubm.gmm", stack.ubm)
    _write_via_temp(ivector.save_tv, model_dir / "tv.stv", stack.tv,
                    stack.ubm.means.shape[0])
    _write_via_temp(ivector.save_wccn, model_dir / "wccn.swc", stack.wccn)
    _write_via_temp(ivector.save_ivectors, model_dir / "train_ivectors.txt",
                    train_ids, normed)
    labels = sorted(stack.class_means)
    _write_via_temp(ivector.save_ivectors, model_dir / "class_means.txt",
                    labels, [stack.class_means[c] for c in labels],
                    "# i-vector class means")
    _write_via_temp(_save_train_ids, model_dir / TRAIN_IDS, train_ids)


def load_ivector_stack(model_dir):
    """(IvectorStack, training utterance ids) of a model dir."""
    model_dir = Path(model_dir)
    train_ids = _load_train_ids(model_dir)
    ubm = gmm.load_gmm(model_dir / "ubm.gmm")
    tv = ivector.load_tv(model_dir / "tv.stv")
    stack = IvectorStack(ubm, tv, ivector.load_wccn(model_dir / "wccn.swc"),
                         dict(zip(*ivector.load_ivectors(
                             model_dir / "class_means.txt"))),
                         ivector.gram_blocks(tv.matrix, ubm))
    return stack, train_ids


# the models trained on a feature's training frames; the PLDA scorer is
# trained on its stack's stored i-vectors instead
FRAME_MODELS = ("gmm", "ivector")


def marker_name(name: str, cfg: ExperimentConfig) -> str:
    """The file that marks model `name` complete in its directory: the
    training list of a GMM pair or an i-vector stack, or the PLDA model
    itself, kept in its stack's directory one file per PLDA setting."""
    if name in FRAME_MODELS:
        return TRAIN_IDS
    return f"plda.q{cfg.plda_latent}.i{cfg.plda_iterations}.spl"


def train_model(name: str, marker, rows, frames, labels,
                cfg: ExperimentConfig, kind: str):
    """Train model `name` of feature `kind` with cfg's settings and write it
    so that marker appears last: the GMM pair or the i-vector stack from
    frames (the training rows' features, in row order), or the PLDA
    scorer of the stack in marker's directory, with labels mapping its
    training utterances to their classes.  An error is re-raised naming the
    feature and the model."""
    marker = Path(marker)
    train_ids = [r.utt_id for r in rows]
    try:
        if name == "gmm":
            save_gmm_pair(marker.parent, *train_gmm_pair(
                frames, rows, cfg.gmm_components, cfg.gmm_iterations,
                cfg.seed, kind), train_ids)
        elif name == "ivector":
            save_ivector_stack(marker.parent, *train_ivector_stack(
                frames, rows, ubm_components=cfg.ubm_components,
                tv_rank=cfg.tv_rank, tv_iterations=cfg.tv_iterations,
                root_seed=cfg.seed, kind=kind), train_ids)
        else:
            _write_via_temp(ivector.save_plda, marker, train_stack_plda(
                marker.parent, labels, latent_rank=cfg.plda_latent,
                n_iterations=cfg.plda_iterations, root_seed=cfg.seed,
                kind=kind))
    except Exception as exc:
        raise _with_context(exc, f"feature {kind}, model {name}") from exc


def load_model(name: str, marker):
    """Model `name` of _Runner._model_files as scoring takes it, from its
    marker file: load_gmm_pair or load_ivector_stack of the marker's
    directory, or the PLDA model that is the marker itself."""
    marker = Path(marker)
    if name == "gmm":
        return load_gmm_pair(marker.parent)
    if name == "ivector":
        return load_ivector_stack(marker.parent)
    return ivector.load_plda(marker)


def _train_job(todo, rows, feature_dir, labels, cfg: ExperimentConfig,
               kind: str):
    """One feature's training job: train_model for each (model, marker) of
    todo, in order, reading the training rows' features from feature_dir
    once if a GMM pair or an i-vector stack is among them."""
    frames = None
    if any(name in FRAME_MODELS for name, _ in todo):
        frames = list(_read_features(feature_dir, rows, kind))
    for name, marker in todo:
        train_model(name, marker, rows, frames, labels, cfg, kind)


# -- scoring ----------------------------------------------------------------

def check_hygiene(train_utt_ids, scored_utt_ids):
    """Refuse to score any utterance the model was trained on."""
    overlap = set(train_utt_ids) & set(scored_utt_ids)
    if overlap:
        sample = ", ".join(sorted(overlap)[:3])
        raise HygieneError(f"model training set intersects the scored set "
                           f"({len(overlap)} utterances, e.g. {sample})")


def score_utterances(rows, frames, models, backends, kind,
                     condition) -> dict:
    """{back-end: ScoreSet} of rows under each of backends, with models as
    load_model returns them by name.  frames holds each row's features, in
    row order; it is read only after every model's training list has been
    checked against rows, so a generator extracts nothing for a refused
    subset, and then in chunks of consecutive utterances holding at most
    _SCORE_CHUNK_FRAMES frames (or one longer utterance), each scored by
    every back-end at once.  An utterance without frames, of the wrong
    dimension or with a zero i-vector, the first in row order, and a score
    set's error, such as a non-finite score naming its utterance, are
    raised naming the feature, back-end and condition."""
    needed = {name for b in backends for name in BACKENDS[b]}
    utt_ids = [r.utt_id for r in rows]
    for name in ("gmm", "ivector"):
        if name in needed:
            check_hygiene(models[name][-1], utt_ids)
    if "ivector" in needed:
        stack = models["ivector"][0]
        means = stack.class_means[HUMAN], stack.class_means[SPOOF]
    dim = (models["gmm"][0] if "gmm" in needed else stack.ubm).dim
    scores = {backend: [] for backend in backends}

    def context(backend, i=None):
        utt = "" if i is None else f"utterance {utt_ids[i]}, "
        return f"{utt}feature {kind}, back-end {backend}, condition {condition}"

    def score(chunk, first):
        if "gmm" in needed:
            scores["gmm"].extend(gmm.llr_scores(chunk, *models["gmm"][:2]))
        if "ivector" in needed:
            w = ivector.apply_wccn(stack.wccn, ivector.ivectors_from_stats(
                *ivector.batch_stats(chunk, stack.ubm), stack.ubm, stack.tv,
                stack.gram))
            norms = np.linalg.norm(w, axis=1, keepdims=True)
            if (zero := np.flatnonzero(norms < ivector.MIN_NORM)).size:
                backend = next(b for b in backends if b != "gmm")
                raise DegenerateVectorError(
                    f"cannot length-normalize a zero i-vector "
                    f"({context(backend, first + zero[0])})")
            w /= norms
            if "ivector-cosine" in backends:
                scores["ivector-cosine"].extend(
                    ivector.detection_scores(w, *means))
            if "ivector-plda" in backends:
                scores["ivector-plda"].extend(ivector.plda_detection_scores(
                    models["plda"], w, *means))

    chunk, n_frames = [], 0
    for i, f in enumerate(frames):
        f = np.atleast_2d(np.asarray(f, dtype=np.float64))
        problem = ("no frames to score" if not len(f) else
                   f"feature dim {f.shape[1]} != model dim {dim}"
                   if f.shape[1] != dim else None)
        if chunk and (problem or n_frames + len(f) > _SCORE_CHUNK_FRAMES):
            score(chunk, i - len(chunk))
            chunk, n_frames = [], 0
        if problem:
            raise ValueError(f"{problem} ({context(backends[0], i)})")
        chunk.append(f)
        n_frames += len(f)
    if chunk:
        score(chunk, i + 1 - len(chunk))
    # one trial list, whose columns every back-end's set shares
    labels = [r.label for r in rows]
    attack_ids = [r.attack_id for r in rows]
    conditions = [condition] * len(rows)
    sets = {}
    for backend in backends:
        try:
            sets[backend] = ScoreSet(utt_ids, scores[backend], labels,
                                     attack_ids, conditions)
        except ValueError as exc:
            raise _with_context(exc, context(backend)) from exc
    return sets


def _write_via_temp(write, path: Path, *values):
    """write(tmp, *values) to a fresh temp file next to path, then rename it
    onto path, so concurrent runs sharing a work dir never share a temp
    file and a reader never sees a partial artifact.  The temp file is
    created as open(path, "w") would create it, so the artifact gets the
    mode of the process umask."""
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    try:
        write(tmp, *values)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


@dataclass(frozen=True)
class SystemResult:
    cell_tag: str
    backend: str
    system: str
    subset: str
    scores_path: Path
    report: EvalReport
    # for an eval subset with several attacks, ((attack, eer_percent), ...)
    # sorted by attack, then ("macro-average", eer_percent); else ()
    per_attack: tuple


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
        self.cache = self.work_dir / "cache"
        # fails before any compute, naming the utterance of a missing wav
        self._paths = dict(zip((r.utt_id for r in manifest),
                               manifest.resolve_paths(wav_root)))
        # the wav bytes are part of the fingerprint, so an edited wav under
        # an unchanged manifest re-extracts instead of reusing old features
        # (raw bytes: decoding each wav would cost a read_wav per run)
        self.corpus_fp = _stage_hash(*(
            f"{r.utt_id},{r.wav_path},{r.label},{r.attack_id},{r.subset},"
            f"{hashlib.sha256(self._paths[r.utt_id].read_bytes()).hexdigest()}"
            for r in manifest))

    # -- audio and features ------------------------------------------------

    def _feature_dir(self, kind: str, cell: GridCell, enhancement) -> Path:
        key = _stage_hash("features", self.corpus_fp, self.config.seed,
                          cell.tag, enhancement or "-",
                          _feature_text(self.config.feature_config(kind)))
        return self.cache / "features" / key

    def _jobs(self, scored, model_files) -> list:
        """_run_jobs jobs in plan order: an _extract_job for each (condition,
        utterance) lacking a feature file, listing each directory once, then
        a _train_job for each feature lacking one of model_files, after the
        jobs that write its clean training files.  Training features count
        only for a feature whose GMM pair or i-vector stack is missing."""
        cfg = self.config
        train_rows = self.manifest.subset("train").rows
        missing = {kind: [(name, path) for name, path in files.items()
                          if not path.is_file()]
                   for kind, files in model_files.items()}
        wanted = {   # (cell, enhancement, kind) -> rows
            (GridCell(), None, kind): list(train_rows)
            for kind, models in missing.items()
            if any(name in FRAME_MODELS for name, _ in models)}
        for cell in cfg.grid:
            for kind in cfg.features:
                wanted.setdefault((cell, cfg.enhancement, kind),
                                  []).extend(scored)
        todo = {}   # (wav, utt_id, cell, enhancement, seed) -> todo list
        for (cell, enhancement, kind), rows in wanted.items():
            cache_dir = self._feature_dir(kind, cell, enhancement)
            cache_dir.mkdir(parents=True, exist_ok=True)
            have = set(os.listdir(cache_dir))
            for row in rows:
                if (name := f"{row.utt_id}.{kind}.spbf") not in have:
                    todo.setdefault((self._paths[row.utt_id], row.utt_id, cell,
                                     enhancement, cfg.seed), []).append(
                        (kind, cfg.feature_config(kind), cache_dir / name))
        jobs, writer = [], {}   # writer: feature file -> index of its job
        for (wav, utt_id, cell, enhancement, seed), kinds in todo.items():
            writer.update((path, len(jobs)) for _, _, path in kinds)
            jobs.append((_extract_job, (wav, utt_id, cell, enhancement, seed,
                                        kinds), (),
                         _job_context(utt_id, ",".join(k for k, _, _ in kinds),
                                      cell, enhancement)))
        labels = {r.utt_id: r.label for r in self.manifest}
        for kind, models in missing.items():
            if models:
                # training observations: the clean condition, never enhanced
                feature_dir = self._feature_dir(kind, GridCell(), None)
                paths = (feature_dir / f"{r.utt_id}.{kind}.spbf"
                         for r in train_rows)
                names = ",".join(name for name, _ in models)
                jobs.append((_train_job, (models, train_rows, feature_dir,
                                          labels, cfg, kind),
                             sorted({writer[p] for p in paths if p in writer}),
                             f"feature {kind}, model {names}"))
        return jobs

    # -- models ------------------------------------------------------------

    def _model_files(self, kind: str) -> dict:
        """{model: marker file} of one feature's models that the back-ends
        need, in training order: GMM pair, i-vector stack, and the stack's
        PLDA scorer, kept in its directory one file per PLDA setting."""
        cfg = self.config
        key = (self.corpus_fp, cfg.seed,
               _feature_text(cfg.feature_config(kind)))
        models = self.cache / "models"
        pair = models / _stage_hash("gmm", *key, cfg.gmm_components,
                                    cfg.gmm_iterations)
        stack = models / _stage_hash("ivector", *key, cfg.ubm_components,
                                     cfg.tv_rank, cfg.tv_iterations,
                                     f"stack_version={IVECTOR_STACK_VERSION}")
        dirs = {"gmm": pair, "ivector": stack, "plda": stack}
        needed = {name for b in cfg.backends for name in BACKENDS[b]}
        return {name: path / marker_name(name, cfg)
                for name, path in dirs.items() if name in needed}

    # -- fusion and results ------------------------------------------------

    def _fuse(self, method, cond, backend, sets, subsets) -> dict:
        """{subset: fused ScoreSet} of one back-end's per-feature systems,
        read from sets[backend, subset, kind].  Logistic fusion is trained
        on dev, and its model is saved under models/fusion/."""
        kinds = list(self.config.features)
        inputs = {subset: [sets[backend, subset, k] for k in kinds]
                  for subset in subsets}
        if method == "average":
            return {subset: fuse_average(x) for subset, x in inputs.items()}
        model = train_logistic_fusion(inputs["dev"], system_ids=kinds)
        fus_dir = self.work_dir / "models" / "fusion"
        fus_dir.mkdir(parents=True, exist_ok=True)
        save_fusion(fus_dir / f"{cond}.{backend}.logistic.txt", model)
        return {subset: apply_fusion(model, x) for subset, x in inputs.items()}

    def _result(self, cond, backend, system, subset,
                scores: ScoreSet) -> SystemResult:
        """Write one system's score file and evaluate it; an eval subset
        with more than one attack also gets its per-attack EERs."""
        out_dir = self.work_dir / "scores" / cond / backend
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{system}.{subset}.tsv"
        write_scores(path, scores)
        report = compute_eer_rocch(scores)
        per_attack = ()
        if subset == "eval" and len(set(scores.attack_ids) - {NO_ATTACK}) > 1:
            reports, macro = per_attack_eers(scores)
            eers = [(a, reports[a].eer_percent) for a in sorted(reports)]
            per_attack = tuple(eers + [("macro-average", macro)])
        return SystemResult(cond, backend, system, subset, path, report,
                            per_attack)

    # -- the full grid -----------------------------------------------------

    def _score_cell(self, models, subsets, cell: GridCell) -> list:
        """The SystemResult rows of one grid cell: each (subset, feature)
        scored by every back-end, each back-end's fusions, and every
        system's score file written and evaluated."""
        cfg = self.config
        cond = condition_tag(cell, cfg.enhancement)
        # every back-end is scored from one pass over each (subset, feature),
        # which reads one chunk's frames at a time
        sets = {}
        for subset, rows in subsets.items():
            for kind in cfg.features:
                frames = _read_features(self._feature_dir(
                    kind, cell, cfg.enhancement), rows, kind)
                for backend, scores in score_utterances(
                        rows, frames, models[kind], cfg.backends, kind,
                        cond).items():
                    sets[backend, subset, kind] = scores
        # per back-end: each feature's systems subset by subset, then each
        # fusion method's
        systems = ([(subset, kind) for subset in subsets
                    for kind in cfg.features]
                   + [(subset, f"fusion-{method}") for method in cfg.fusion
                      for subset in subsets])
        results = []
        for backend in cfg.backends:
            for method in cfg.fusion:
                for subset, fused in self._fuse(method, cond, backend,
                                                sets, subsets).items():
                    sets[backend, subset, f"fusion-{method}"] = fused
            results += [self._result(cond, backend, system, subset,
                                     sets[backend, subset, system])
                        for subset, system in systems]
        return results

    def run(self) -> ExperimentResult:
        runtime.keep_freed_heap()
        with runtime.one_blas_thread():
            return self._run()

    def _run(self) -> ExperimentResult:
        cfg = self.config
        subsets = {name: rows for name in ("dev", "eval")
                   if (rows := self.manifest.subset(name).rows)}
        if "logistic" in cfg.fusion and "dev" not in subsets:
            raise ValueError("logistic fusion needs a dev subset in the "
                             "manifest")
        for name, rows in subsets.items():
            if lacking := {HUMAN, SPOOF} - {r.label for r in rows}:
                raise ValueError(f"the {name} subset has no {lacking.pop()} "
                                 f"utterances; its EER needs both classes")
        model_files = {kind: self._model_files(kind) for kind in cfg.features}
        _run_jobs(self._jobs(sum(subsets.values(), ()), model_files))
        # loaded once, in this process, so the cell workers inherit them
        models = {kind: {name: load_model(name, path)
                         for name, path in files.items()}
                  for kind, files in model_files.items()}
        cells = _run_jobs([
            (self._score_cell, (models, subsets, cell), (),
             f"condition {condition_tag(cell, cfg.enhancement)}")
            for cell in cfg.grid])
        results = [row for rows in cells for row in rows]
        self.work_dir.mkdir(parents=True, exist_ok=True)
        return ExperimentResult(self.work_dir, tuple(results),
                                _write_tables(self.work_dir, results))


def _write_tables(work_dir: Path, results) -> Path:
    """summary.tsv, one row per result, and per_attack.tsv, one row per
    attack EER of each result that has them (written only if one has);
    returns the summary's path."""
    def key(r):
        return f"{r.cell_tag}\t{r.backend}\t{r.system}\t{r.subset}"

    summary_path = work_dir / "summary.tsv"
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write("condition\tbackend\tsystem\tsubset\teer_percent\t"
                 "n_target\tn_nontarget\n")
        for r in results:
            fh.write(f"{key(r)}\t{r.report.eer_percent:.4f}\t"
                     f"{r.report.n_target}\t{r.report.n_nontarget}\n")
    if any(r.per_attack for r in results):
        with open(work_dir / "per_attack.tsv", "w", encoding="utf-8") as fh:
            fh.write("condition\tbackend\tsystem\tsubset\tattack\t"
                     "eer_percent\n")
            for r in results:
                for attack, eer in r.per_attack:
                    fh.write(f"{key(r)}\t{attack}\t{eer:.4f}\n")
    return summary_path


def run_experiment(config: ExperimentConfig, manifest: Manifest, work_dir,
                   wav_root=None) -> ExperimentResult:
    """Execute the full grid; see the module docstring for the layout."""
    return _Runner(config, manifest, work_dir, wav_root).run()

"""Span recorder that times spoofbench's layers from outside the package.

A traced pass replaces module attributes -- the names that `harness` and
`cli` look up at call time, such as `features.extract` or
`harness.mix_at_snr` -- with wrappers that record one span per call: name,
parent span, start, end and a few tags read from the arguments and the
return value.  Spans stay in memory and are written once the run ends.

A span's self time is its duration minus the time covered by its direct
children, so the self times of one pass add up to the duration of its root
span.  Tags that need computing (realized SNR, EM iterations, kept frames)
are read after the wrapped call returns, inside a `trace.annotate` span of
their own, so that the cost of tracing shows up as a layer of its own
instead of inflating the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    parent: int            # index of the enclosing span, -1 for a root
    start: float
    end: float = 0.0
    child_s: float = 0.0   # time covered by direct children
    tags: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Patches the wrapped attributes on `install` and restores them on
    `uninstall`; `spans` collects every call made while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- span bookkeeping --------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int):
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration

    def inside(self, name: str) -> bool:
        """True while a span called `name` is open."""
        return any(self.spans[i].name == name for i in self._stack)

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr: str, name, annotate=None):
        """Record a span around every call of `owner.attr`.

        `name` is a span name or a callable returning one (so a call can be
        named after the span that encloses it).  `annotate(args, result)`
        returns tags for the span; `args` maps parameter names to the
        values passed.  A missing attribute is noted, not fatal, so the
        benchmark keeps running when a later version renames an internal.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        signature = inspect.signature(original) if annotate else None
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = tracer._open(name(tracer) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if annotate is not None:
                note = tracer._open("trace.annotate")
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    tracer.spans[idx].tags.update(annotate(bound, result))
                except Exception as exc:  # noqa: BLE001 - a tag is optional
                    # the call itself succeeded; a tag the benchmark cannot
                    # read (say, a renamed parameter) must not fail the pass
                    tracer.spans[idx].tags["annotate_error"] = repr(exc)
                finally:
                    tracer._close(note)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- what gets wrapped ------------------------------------------------------

def _extract_tags(args, result):
    signal, config = args["signal"], args["config"]
    return {"kind": config.kind, "n_samples": len(signal.samples),
            "rate": signal.sample_rate, "frame_ms": config.frame_ms,
            "shift_ms": config.shift_ms, "frames_out": int(result.shape[0])}


def _history_tags(args, result):
    return {"iters": len(result[1])}


def _trial_tags(args, result):
    return {"trials": int(np.size(args["target_scores"])
                          + np.size(args["nontarget_scores"]))}


def _mix_tags(args, result):
    from spoofbench import noiselab

    speech = args["speech"]
    added = result.signal.samples / result.scale - speech.samples
    level = noiselab.speech_level_db(speech,
                                     args.get("level_method", "active"))
    realized = level - 10.0 * np.log10(np.mean(added * added))
    return {"snr_error_db": abs(realized - float(args["snr_db"])),
            "clipped": int(result.clipped)}


def _gmm_train_name(tracer):
    return ("ivector.ubm_train" if tracer.inside("ivector.train_stack")
            else "gmm.train")


def install(tracer: Tracer):
    """Wrap every layer boundary the workloads cross."""
    from spoofbench import (cli, evaluation, features, fusion, gmm, harness,
                            ivector)

    w = tracer.wrap
    runner = harness._Runner
    # harness orchestration and its cache lookups
    w(harness, "run_experiment", "harness.run_experiment")
    w(runner, "_prepared_wav", "harness.audio_lookup")
    w(runner, "_gmm_models", "harness.model_lookup")
    w(runner, "_ivector_stack", "harness.model_lookup")
    # audio and feature-cache I/O as the harness sees it
    for attr in ("read_wav", "write_wav", "read_features", "write_features"):
        w(harness, attr, f"audio.{attr}")
    # noise lab and enhancement
    w(harness, "make_noise", "noiselab.noise")
    w(harness, "mix_at_snr", "noiselab.mix", _mix_tags)
    w(harness, "enhance", "enhancement.enhance")
    # front-ends
    w(features, "extract", "features.extract", _extract_tags)
    w(features, "compute_vad_mask", "features.vad")
    # back-ends
    w(harness, "train_gmm_pair", "gmm.train_pair")
    w(gmm, "train_gmm", _gmm_train_name, _history_tags)
    w(gmm, "llr_score", "gmm.llr")
    w(harness, "train_ivector_stack", "ivector.train_stack")
    w(ivector, "baum_welch_stats", "ivector.stats")
    w(ivector, "ivector_from_stats", "ivector.posterior")
    w(ivector, "train_tv", "ivector.tv_train", _history_tags)
    w(ivector, "train_plda", "ivector.plda_train")
    w(harness, "ivector_score", "ivector.score")
    w(harness, "embed_ivector", "ivector.embed")
    w(ivector, "plda_detection_score", "ivector.plda_score")
    # scores, fusion and evaluation, from both front doors
    for owner in (harness, cli):
        w(owner, "write_scores", "scores.write")
        w(owner, "compute_eer_rocch", "evaluation.compute_eer")
        w(owner, "per_attack_eers", "evaluation.per_attack")
    for owner in (harness, fusion):
        w(owner, "fuse_average", "fusion.average")
        w(owner, "apply_fusion", "fusion.apply")
        w(owner, "train_logistic_fusion", "fusion.train_logistic")
    w(cli, "read_scores", "scores.read")
    w(evaluation, "rocch_eer", "evaluation.rocch_eer", _trial_tags)
    w(evaluation, "det_points", "evaluation.det_points", _trial_tags)
    # the command-line front door
    w(cli, "main", "cli.main")
    w(cli, "cmd_fuse", "cli.fuse")
    w(cli, "cmd_eval", "cli.eval")

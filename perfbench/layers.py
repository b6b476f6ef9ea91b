"""Per-layer metrics derived from the spans of the traced passes.

Every metric is reported on every workload so that the set of names is
fixed; a layer a workload does not exercise reads 0 with a sample count
of 0 in the run record.  Time metrics are medians over calls (pooled over
the traced passes); counts and shares are medians over passes.
"""

from __future__ import annotations

import statistics

from spoofbench import dsp

FEATURE_KINDS = ("mfcc", "imfcc", "scmc", "cqcc", "mhec", "rps", "mgd",
                 "cosphase")
LAYERS = ("features", "gmm", "ivector", "noiselab", "enhancement", "audio",
          "harness", "scores", "evaluation", "fusion", "cli", "trace")
TRAIN_SPANS = ("gmm.train", "ivector.ubm_train", "ivector.tv_train",
               "ivector.plda_train")


class PassTrace:
    """The spans of one traced pass plus what was measured around it."""

    def __init__(self, spans, wall_s, cache_bytes):
        self.spans = spans
        self.wall_s = wall_s
        self.cache_bytes = cache_bytes

    def named(self, name, **tags):
        return [s for s in self.spans if s.name == name
                and all(s.tags.get(k) == v for k, v in tags.items())]

    def count(self, name, **tags) -> int:
        return len(self.named(name, **tags))

    def children(self, span_index, name):
        return [s for s in self.spans
                if s.parent == span_index and s.name == name]

    def layer_self_s(self, layer) -> float:
        return sum(s.self_s for s in self.spans if s.layer == layer)

    def exercised(self, root) -> bool:
        return self.count(root) > 0


def percentile(values, q):
    """Linear-interpolation percentile of a non-empty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(samples):
    """Median, 90th percentile and count; zeros when nothing was sampled."""
    if not samples:
        return {"value": 0.0, "p90": 0.0, "n": 0}
    return {"value": float(statistics.median(samples)),
            "p90": float(percentile(samples, 90)), "n": len(samples)}


# -- sample collectors -------------------------------------------------------

def _calls(span, scale=1.0, per=None, **tags):
    """Per-call duration, optionally divided by a tag (iterations, trials)."""
    def collect(passes):
        return [scale * s.duration / (s.tags[per] if per else 1)
                for p in passes for s in p.named(span, **tags)
                if not per or s.tags.get(per)]
    return collect


def _tag(span, tag):
    return lambda passes: [s.tags[tag] for p in passes
                           for s in p.named(span) if tag in s.tags]


def _per_pass(fn, root=None):
    """One sample per pass; passes that never enter `root` give none."""
    return lambda passes: [fn(p) for p in passes
                           if root is None or p.exercised(root)]


def _kept_frames(kind):
    def collect(passes):
        framed = kept = 0
        for p in passes:
            for s in p.named("features.extract", kind=kind):
                t = s.tags
                if "frames_out" not in t:
                    continue
                framed += dsp.n_frames_for(t["n_samples"], t["frame_ms"],
                                           t["shift_ms"], t["rate"])
                kept += t["frames_out"]
        return [kept / framed] if framed else []
    return collect


def _max_tag(span, tag):
    def collect(passes):
        values = [s.tags[tag] for p in passes for s in p.named(span)
                  if tag in s.tags]
        return [max(values)] if values else []
    return collect


def _hit_ratio(lookup, compute_children):
    """Share of cache lookups that did not compute: 1 - computes / lookups.

    A harness pass whose every result came from a higher cache level makes
    no lookup at this level and computes nothing, which reads as 1.0.
    """
    def ratio(p):
        lookups = [i for i, s in enumerate(p.spans) if s.name == lookup]
        computes = sum(1 for i in lookups
                       if any(p.children(i, c) for c in compute_children))
        return 1.0 - computes / len(lookups) if lookups else 1.0
    return _per_pass(ratio, root="harness.run_experiment")


def _feature_hit_ratio(p):
    loads = p.count("audio.read_features")
    computes = p.count("audio.write_features")
    return loads / (loads + computes) if loads + computes else 1.0


def _share(layer):
    return _per_pass(lambda p: p.layer_self_s(layer) / p.wall_s)


def _unaccounted(p):
    return 1.0 - sum(s.self_s for s in p.spans) / p.wall_s


# (name, unit, collector); the names are the per_layer list of BENCHMARK.json
METRICS = []
for _kind in FEATURE_KINDS:
    METRICS += [
        (f"features.{_kind}.ms_per_utt", "ms",
         _calls("features.extract", 1e3, kind=_kind)),
        (f"features.{_kind}.kept_frame_ratio", "ratio", _kept_frames(_kind)),
    ]
METRICS += [
    ("features.vad.ms_per_utt", "ms", _calls("features.vad", 1e3)),
    ("features.extract.calls", "count",
     _per_pass(lambda p: p.count("features.extract"))),
    ("gmm.train.s", "s", _calls("gmm.train")),
    ("gmm.train.s_per_iter", "s", _calls("gmm.train", per="iters")),
    ("gmm.train.iters", "count", _tag("gmm.train", "iters")),
    ("gmm.llr.ms_per_utt", "ms", _calls("gmm.llr", 1e3)),
    ("ivector.ubm_train.s", "s", _calls("ivector.ubm_train")),
    ("ivector.stats.ms_per_utt", "ms", _calls("ivector.stats", 1e3)),
    ("ivector.posterior.ms_per_utt", "ms", _calls("ivector.posterior", 1e3)),
    ("ivector.tv_train.s_per_iter", "s",
     _calls("ivector.tv_train", per="iters")),
    ("ivector.tv_train.iters", "count", _tag("ivector.tv_train", "iters")),
    ("ivector.plda_train.s", "s", _calls("ivector.plda_train")),
    ("ivector.embed.ms_per_utt", "ms", _calls("ivector.embed", 1e3)),
    ("ivector.plda_score.ms_per_trial", "ms",
     _calls("ivector.plda_score", 1e3)),
    ("harness.train_calls", "count",
     _per_pass(lambda p: sum(p.count(n) for n in TRAIN_SPANS))),
    ("noiselab.noise.ms_per_utt", "ms", _calls("noiselab.noise", 1e3)),
    ("noiselab.mix.ms_per_utt", "ms", _calls("noiselab.mix", 1e3)),
    ("noiselab.mix.max_snr_error_db", "dB",
     _max_tag("noiselab.mix", "snr_error_db")),
    ("noiselab.mix.clipped_samples", "count",
     _per_pass(lambda p: sum(s.tags.get("clipped", 0)
                             for s in p.named("noiselab.mix")),
               root="noiselab.mix")),
    ("enhancement.enhance.ms_per_utt", "ms",
     _calls("enhancement.enhance", 1e3)),
]
for _io in ("read_wav", "write_wav", "read_features", "write_features"):
    METRICS += [
        (f"audio.{_io}.ms", "ms", _calls(f"audio.{_io}", 1e3)),
        (f"audio.{_io}.calls", "count",
         _per_pass(lambda p, n=f"audio.{_io}": p.count(n),
                   root="harness.run_experiment")),
    ]
METRICS += [
    ("harness.cache_hit_ratio.audio", "ratio",
     _hit_ratio("harness.audio_lookup", ("audio.write_wav",))),
    ("harness.cache_hit_ratio.features", "ratio",
     _per_pass(_feature_hit_ratio, root="harness.run_experiment")),
    ("harness.cache_hit_ratio.models", "ratio",
     _hit_ratio("harness.model_lookup",
                ("gmm.train_pair", "ivector.train_stack"))),
    ("harness.self_s", "s",
     _per_pass(lambda p: p.layer_self_s("harness"),
               root="harness.run_experiment")),
    ("harness.cache_bytes", "bytes",
     _per_pass(lambda p: p.cache_bytes, root="harness.run_experiment")),
    ("scores.read.ms_per_file", "ms", _calls("scores.read", 1e3)),
    ("scores.write.ms_per_file", "ms", _calls("scores.write", 1e3)),
    ("evaluation.rocch_eer.us_per_trial", "us",
     _calls("evaluation.rocch_eer", 1e6, per="trials")),
    ("evaluation.det_points.us_per_trial", "us",
     _calls("evaluation.det_points", 1e6, per="trials")),
    ("evaluation.per_attack.s", "s", _calls("evaluation.per_attack")),
    ("fusion.train_logistic.s", "s", _calls("fusion.train_logistic")),
    ("fusion.apply.ms", "ms", _calls("fusion.apply", 1e3)),
    ("fusion.average.ms", "ms", _calls("fusion.average", 1e3)),
    ("cli.fuse.s", "s", _calls("cli.fuse")),
    ("cli.eval.s", "s", _calls("cli.eval")),
    ("cli.self_s", "s",
     _per_pass(lambda p: p.layer_self_s("cli"), root="cli.main")),
    ("trace.unaccounted_share", "ratio", _per_pass(_unaccounted)),
]
METRICS += [(f"share.{layer}", "ratio", _share(layer)) for layer in LAYERS]


def layer_metrics(passes):
    """{name: {"value", "unit", "p90", "n"}} for every per-layer metric."""
    out = {}
    for name, unit, collect in METRICS:
        out[name] = {**summarize(collect(passes)), "unit": unit}
    return out

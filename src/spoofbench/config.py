"""Experiment configuration: INI files describing the full run grid.

A config names the feature front-ends, back-ends, the noise x SNR grid,
optional enhancement / fusion, per-feature parameter overrides and the
root seed.  Caching and seeds derive from the parsed settings, not from
the file's text, so two configs that resolve to the same settings share
cache entries.

This module also owns the workbench's vocabularies (feature kinds, noise
kinds, enhancement methods, back-ends) and the front-end settings, so the
CLI can offer them without importing the signal-processing stack; each
stage module dispatches on exactly its vocabulary.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, fields

from .fusion import FUSION_METHODS

FEATURE_KINDS = ("mfcc", "imfcc", "scmc", "cqcc", "mhec", "rps", "mgd",
                 "cosphase")
NOISE_KINDS = ("white", "car", "babble")
ENHANCEMENT_METHODS = ("specsub-mag", "specsub-pow", "wiener")

# each back-end and the models it needs, in training order: a GMM pair, or
# an i-vector stack scored by cosine or by the stack's PLDA model
BACKENDS = {"gmm": ("gmm",), "ivector-cosine": ("ivector",),
            "ivector-plda": ("ivector", "plda")}


# the phase-pattern features, used raw; every other kind gets deltas + CMS
# by default
_RAW_KINDS = {"rps", "cosphase"}


@dataclass(frozen=True)
class FeatureConfig:
    kind: str
    n_coeffs: int = 32
    n_filters: int = 32
    frame_ms: float = 20.0
    shift_ms: float = 10.0
    dft_size: int = 512
    window: str = "hamming"
    add_delta: bool | None = None        # None -> per-kind default
    add_deltadelta: bool | None = None
    apply_cms: bool | None = None
    vad_threshold_db: float = 30.0
    # modified group delay shaping
    mgd_alpha: float = 0.3
    mgd_gamma: float = 0.1
    mgd_cep_lifter: int | None = 30
    # constant-Q geometry (f_max = Nyquist, f_min = f_max / 2**octaves)
    cqt_bins_per_octave: int = 96
    cqt_octaves: int = 9
    # pitch tracking for RPS
    f0_min: float = 50.0
    f0_max: float = 500.0
    f0_frame_ms: float = 100.0
    f0_voicing_threshold: float = 0.3
    # MHEC gammatone span and envelope smoothing
    gt_f_lo: float = 100.0
    gt_f_hi: float = 8000.0
    envelope_cutoff_hz: float = 20.0

    def __post_init__(self):
        if self.kind not in FEATURE_KINDS:
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.n_coeffs < 1:
            raise ValueError("n_coeffs must be positive")
        if self.want_deltadelta and not self.want_delta:
            raise ValueError("delta-delta requires delta")

    @property
    def want_delta(self) -> bool:
        if self.add_delta is None:
            return self.kind not in _RAW_KINDS
        return self.add_delta

    @property
    def want_deltadelta(self) -> bool:
        if self.add_deltadelta is None:
            return self.add_delta is None and self.want_delta
        return self.add_deltadelta

    @property
    def want_cms(self) -> bool:
        if self.apply_cms is None:
            return self.kind not in _RAW_KINDS
        return self.apply_cms

    @property
    def dimension(self) -> int:
        mult = 1 + int(self.want_delta) + int(self.want_deltadelta)
        return self.n_coeffs * mult


@dataclass(frozen=True)
class GridCell:
    """One test condition: clean, or a noise kind at a target SNR."""

    noise_kind: str | None = None
    snr_db: float | None = None

    def __post_init__(self):
        if (self.noise_kind is None) != (self.snr_db is None):
            raise ValueError("noise_kind and snr_db must be set together")
        if self.noise_kind is not None and self.noise_kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.noise_kind!r}")
        if self.snr_db is not None and (math.isnan(self.snr_db)
                                        or self.snr_db == -math.inf):
            raise ValueError(f"bad SNR {self.snr_db!r} dB")

    @property
    def is_clean(self) -> bool:
        return self.noise_kind is None

    @property
    def snr_text(self) -> str:
        """The SNR as `:g` writes it when that reads back exactly (every
        integer SNR), else as repr; float() of it is snr_db."""
        text = f"{self.snr_db:g}"
        if float(text) != self.snr_db:
            text = repr(float(self.snr_db))
        return text

    @property
    def tag(self) -> str:
        if self.is_clean:
            return "clean"
        return f"{self.noise_kind}_{self.snr_text}dB"


def parse_grid_cell(text: str) -> GridCell:
    """'clean' or '<kind>:<snr>', e.g. 'white:0' or 'babble:10'."""
    text = text.strip()
    if text == "clean":
        return GridCell()
    if ":" not in text:
        raise ValueError(f"bad grid cell {text!r}: expected 'kind:snr'")
    kind, snr = text.split(":", 1)
    return GridCell(kind.strip(), float(snr))


@dataclass(frozen=True)
class ExperimentConfig:
    name: str = "experiment"
    seed: int = 0
    features: tuple = FEATURE_KINDS
    backends: tuple = ("gmm",)
    grid: tuple = (GridCell(),)
    enhancement: str | None = None
    fusion: tuple = ()
    feature_overrides: tuple = ()   # ((kind, field, value), ...)
    gmm_components: int = 32
    gmm_iterations: int = 10
    ubm_components: int = 32
    tv_rank: int = 32
    tv_iterations: int = 5
    plda_latent: int = 16
    plda_iterations: int = 5

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        object.__setattr__(self, "backends", tuple(self.backends))
        object.__setattr__(self, "grid", tuple(self.grid))
        object.__setattr__(self, "fusion", tuple(self.fusion))
        object.__setattr__(self, "feature_overrides",
                           tuple(tuple(o) for o in self.feature_overrides))
        for kind in self.features + tuple(k for k, _, _ in self.feature_overrides):
            if kind not in FEATURE_KINDS:
                raise ValueError(f"unknown feature kind {kind!r}")
        if not self.features:
            raise ValueError("at least one feature kind is required")
        for backend in self.backends:
            if backend not in BACKENDS:
                raise ValueError(f"unknown backend {backend!r}")
        if not self.backends:
            raise ValueError("at least one backend is required")
        if not self.grid:
            raise ValueError("the test grid must not be empty")
        if len({cell.tag for cell in self.grid}) != len(self.grid):
            raise ValueError("duplicate grid cells")
        if (self.enhancement is not None
                and self.enhancement not in ENHANCEMENT_METHODS):
            raise ValueError(f"unknown enhancement {self.enhancement!r}")
        for method in self.fusion:
            if method not in FUSION_METHODS:
                raise ValueError(f"unknown fusion method {method!r}")
        for kind, name, value in self.feature_overrides:
            if name not in _FIELD_TYPES:
                raise ValueError(f"unknown {kind} setting {name!r}")
            if type(value) not in _READ_BY_TYPE[_FIELD_TYPES[name]][1]:
                raise ValueError(f"bad value {value!r} for {kind} setting "
                                 f"{name!r}: expected {_FIELD_TYPES[name]}")
        for kind, _, _ in self.feature_overrides:
            self.feature_config(kind)

    def feature_config(self, kind: str) -> FeatureConfig:
        """The front-end settings every stage uses: the defaults of `kind`,
        then DESK_FEATURE_OVERRIDES, then this config's overrides of kind."""
        merged = dict(DESK_FEATURE_OVERRIDES.get(kind, ()))
        merged.update((name, value) for k, name, value
                      in self.feature_overrides if k == kind)
        return FeatureConfig(kind, **merged)


# desk-scale CQT geometry: full-resolution kernels dominate runtime while
# adding nothing at toy-corpus scale.  CQCC per 1.5 s toy utterance, one
# thread of a 2-vCPU Xeon VM: 32 ms at 24x6, 1.4 s at the paper's 96x9
# (plus a one-off 2.6 s to build 316 MB of kernel rows), so the end-to-end
# acceptance run (about 1,000 CQCC extractions) cannot afford 96x9.
DESK_FEATURE_OVERRIDES = {"cqcc": (("cqt_bins_per_octave", 24),
                                   ("cqt_octaves", 6))}


def _optional(read):
    """read, except that 'none' reads as None."""
    return lambda text: None if text.lower() == "none" else read(text)


def _flag(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError("expected true/false, yes/no, on/off or "
                         "1/0") from None


_INT = (int, str)
_WORDS = (lambda text: tuple(text.split()), " ".join)

# each INI key, by section: the ExperimentConfig field it sets, how its text
# reads and how the field's value writes.  An absent key leaves the field at
# its default.
_KEYS = {
    "experiment": {
        "name": ("name", str, str),
        "seed": ("seed", *_INT),
        "features": ("features", *_WORDS),
        "backends": ("backends", *_WORDS),
        "enhancement": ("enhancement",
                        lambda text: (None if text.strip().lower()
                                      in ("none", "") else text.strip()),
                        lambda method: method or "none"),
        "fusion": ("fusion",
                   lambda text: tuple(w for w in text.split()
                                      if w.lower() != "none"),
                   lambda methods: " ".join(methods) or "none"),
    },
    "grid": {
        "cells": ("grid",
                  lambda text: tuple(parse_grid_cell(c) for c in text.split()),
                  lambda cells: " ".join(
                      "clean" if c.is_clean else f"{c.noise_kind}:{c.snr_text}"
                      for c in cells)),
    },
    "gmm": {
        "components": ("gmm_components", *_INT),
        "iterations": ("gmm_iterations", *_INT),
    },
    "ivector": {
        "ubm_components": ("ubm_components", *_INT),
        "rank": ("tv_rank", *_INT),
        "tv_iterations": ("tv_iterations", *_INT),
        "plda_latent": ("plda_latent", *_INT),
        "plda_iterations": ("plda_iterations", *_INT),
    },
}

# the keys of a [feature.<kind>] section: each FeatureConfig field, read as
# its declared type.  The types that reading gives are the only ones a
# feature override may hold, whether it comes from a file or from code.
_READ_BY_TYPE = {"int": (int, {int}), "float": (float, {float}),
                 "str": (str, {str}),
                 "bool | None": (_optional(_flag), {bool, type(None)}),
                 "int | None": (_optional(int), {int, type(None)})}
_FIELD_TYPES = {f.name: f.type for f in fields(FeatureConfig)
                if f.name != "kind"}
_FEATURE_KEYS = {name: (name, _READ_BY_TYPE[type_name][0], str)
                 for name, type_name in _FIELD_TYPES.items()}


def load_config(path) -> ExperimentConfig:
    # no section header can name "\n", so a [DEFAULT] section reads as an
    # ordinary, unknown one instead of lending its keys to every section
    parser = configparser.ConfigParser(default_section="\n")
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_file(fh)
    if "experiment" not in parser:
        raise ValueError(f"{path}: missing [experiment] section")
    kwargs, overrides = {}, []
    for section in parser.sections():
        kind = None
        if section.startswith("feature."):
            kind = section.split(".", 1)[1]
            if kind not in FEATURE_KINDS:
                raise ValueError(f"{path}: unknown feature kind {kind!r} "
                                 f"in [{section}]")
            keys = _FEATURE_KEYS
        elif section in _KEYS:
            keys = _KEYS[section]
        else:
            raise ValueError(f"{path}: unknown section [{section}]")
        for key, text in parser[section].items():
            if key not in keys:
                raise ValueError(f"{path}: unknown key {key!r} in "
                                 f"[{section}]")
            field, read, _ = keys[key]
            try:
                value = read(text)
            except ValueError as exc:
                raise ValueError(f"{path}: bad value {text!r} for {key!r} "
                                 f"in [{section}]: {exc}") from None
            if kind is None:
                kwargs[field] = value
            else:
                overrides.append((kind, field, value))
    return ExperimentConfig(**kwargs, feature_overrides=tuple(overrides))


def canonical_text(config: ExperimentConfig) -> str:
    """Deterministic INI rendering that load_config reads back to an equal
    config."""
    sections = {section: {key: write(getattr(config, field))
                          for key, (field, _, write) in keys.items()}
                for section, keys in _KEYS.items()}
    overrides = {}
    for kind, name, value in config.feature_overrides:
        overrides.setdefault(f"feature.{kind}", {})[name] = \
            _FEATURE_KEYS[name][2](value)
    parser = configparser.ConfigParser()
    # the [feature.<kind>] sections go between [grid] and the model sizes
    parser.read_dict({"experiment": sections.pop("experiment"),
                      "grid": sections.pop("grid"),
                      **{section: dict(sorted(overrides[section].items()))
                         for section in sorted(overrides)},
                      **sections})
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()

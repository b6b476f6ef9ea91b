"""Experiment configuration: INI files describing the full run grid.

A config names the feature front-ends, back-ends, the noise x SNR grid,
optional enhancement / fusion, per-feature parameter overrides and the
root seed.  Caching and seeds derive from the parsed settings, not from
the file's text, so two configs that resolve to the same settings share
cache entries.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, fields

from . import features
from .enhancement import ENHANCEMENT_METHODS
from .noiselab import NOISE_KINDS

# each back-end and the models it needs, in training order: a GMM pair, or
# an i-vector stack scored by cosine or by the stack's PLDA model
BACKENDS = {"gmm": ("gmm",), "ivector-cosine": ("ivector",),
            "ivector-plda": ("ivector", "plda")}
FUSION_METHODS = ("average", "logistic")


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
    features: tuple = features.FEATURE_KINDS
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
            if kind not in features.FEATURE_KINDS:
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

    def feature_config(self, kind: str) -> features.FeatureConfig:
        """The front-end settings every stage uses: the defaults of `kind`,
        then DESK_FEATURE_OVERRIDES, then this config's overrides of kind."""
        merged = dict(DESK_FEATURE_OVERRIDES.get(kind, ()))
        merged.update((name, value) for k, name, value
                      in self.feature_overrides if k == kind)
        return features.FeatureConfig(kind, **merged)


# desk-scale CQT geometry: full-resolution kernels dominate runtime while
# adding nothing at toy-corpus scale.  CQCC per 1.5 s toy utterance, one
# thread of a 2-vCPU Xeon VM: 32 ms at 24x6, 1.4 s at the paper's 96x9
# (plus a one-off 2.6 s to build 316 MB of kernel rows), so the end-to-end
# acceptance run (about 1,000 CQCC extractions) cannot afford 96x9.
DESK_FEATURE_OVERRIDES = {"cqcc": (("cqt_bins_per_octave", 24),
                                   ("cqt_octaves", 6))}


def _parse_scalar(raw: str):
    text = raw.strip()
    low = text.lower()
    if low == "none":
        return None
    if low in ("true", "yes"):
        return True
    if low in ("false", "no"):
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


_FEATURE_FIELDS = {f.name for f in fields(features.FeatureConfig)
                   if f.name != "kind"}

# the integer ExperimentConfig field that each INI (section, key) sets
_INT_FIELDS = {
    ("experiment", "seed"): "seed",
    ("gmm", "components"): "gmm_components",
    ("gmm", "iterations"): "gmm_iterations",
    ("ivector", "ubm_components"): "ubm_components",
    ("ivector", "rank"): "tv_rank",
    ("ivector", "tv_iterations"): "tv_iterations",
    ("ivector", "plda_latent"): "plda_latent",
    ("ivector", "plda_iterations"): "plda_iterations",
}

# the keys load_config reads from each fixed section
_SECTION_KEYS = {
    "experiment": {"name", "seed", "features", "backends", "enhancement",
                   "fusion"},
    "grid": {"cells"},
    "gmm": {"components", "iterations"},
    "ivector": {"ubm_components", "rank", "tv_iterations", "plda_latent",
                "plda_iterations"},
}


def load_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_file(fh)
    if "experiment" not in parser:
        raise ValueError(f"{path}: missing [experiment] section")
    overrides = []
    for section in parser.sections():
        kind = None
        if section.startswith("feature."):
            kind = section.split(".", 1)[1]
            if kind not in features.FEATURE_KINDS:
                raise ValueError(f"{path}: unknown feature kind {kind!r} "
                                 f"in [{section}]")
            known = _FEATURE_FIELDS
        elif section in _SECTION_KEYS:
            known = _SECTION_KEYS[section]
        else:
            raise ValueError(f"{path}: unknown section [{section}]")
        for key, raw in parser[section].items():
            if key not in known:
                raise ValueError(f"{path}: unknown key {key!r} in "
                                 f"[{section}]")
            if kind is not None:
                overrides.append((kind, key, _parse_scalar(raw)))
    # only the keys present: ExperimentConfig supplies every default
    kwargs = {field: parser[section].getint(key)
              for (section, key), field in _INT_FIELDS.items()
              if parser.has_option(section, key)}
    kwargs["feature_overrides"] = tuple(overrides)
    exp = parser["experiment"]
    if "name" in exp:
        kwargs["name"] = exp["name"]
    if "features" in exp:
        kwargs["features"] = tuple(exp["features"].split())
    if "backends" in exp:
        kwargs["backends"] = tuple(exp["backends"].split())
    if "enhancement" in exp:
        enhancement = exp["enhancement"].strip()
        kwargs["enhancement"] = (None if enhancement.lower() in ("none", "")
                                 else enhancement)
    if "fusion" in exp:
        kwargs["fusion"] = tuple(w for w in exp["fusion"].split()
                                 if w.lower() != "none")
    if parser.has_option("grid", "cells"):
        kwargs["grid"] = tuple(parse_grid_cell(c)
                               for c in parser["grid"]["cells"].split())
    return ExperimentConfig(**kwargs)


def canonical_text(config: ExperimentConfig) -> str:
    """Deterministic INI rendering that load_config reads back to an equal
    config."""
    parser = configparser.ConfigParser()
    parser["experiment"] = {
        "name": config.name,
        "seed": str(config.seed),
        "features": " ".join(config.features),
        "backends": " ".join(config.backends),
        "enhancement": config.enhancement or "none",
        "fusion": " ".join(config.fusion) or "none",
    }
    parser["grid"] = {
        "cells": " ".join("clean" if c.is_clean
                          else f"{c.noise_kind}:{c.snr_text}"
                          for c in config.grid),
    }
    by_kind = {}
    for kind, name, value in config.feature_overrides:
        by_kind.setdefault(kind, {})[name] = str(value)
    for kind in sorted(by_kind):
        parser[f"feature.{kind}"] = dict(sorted(by_kind[kind].items()))
    parser["gmm"] = {
        "components": str(config.gmm_components),
        "iterations": str(config.gmm_iterations),
    }
    parser["ivector"] = {
        "ubm_components": str(config.ubm_components),
        "rank": str(config.tv_rank),
        "tv_iterations": str(config.tv_iterations),
        "plda_latent": str(config.plda_latent),
        "plda_iterations": str(config.plda_iterations),
    }
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()

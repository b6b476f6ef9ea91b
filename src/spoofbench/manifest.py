"""Dataset manifests: which WAV belongs to which class, attack and subset."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .scores import HUMAN, NO_ATTACK, SPOOF

SUBSETS = ("train", "dev", "eval")

_HEADER = ("utt_id", "wav_path", "label", "attack_id", "subset")


@dataclass(frozen=True)
class ManifestRow:
    utt_id: str
    wav_path: str
    label: str
    attack_id: str = NO_ATTACK
    subset: str = "train"

    def __post_init__(self):
        # ids name cache files and fill space-separated text files
        for name in ("utt_id", "attack_id"):
            value = getattr(self, name)
            if not value or any(c.isspace() for c in value):
                raise ValueError(f"row {self.utt_id!r} ({self.wav_path}): "
                                 f"{name} must be non-empty with no "
                                 f"whitespace, got {value!r}")
        if ("/" in self.utt_id or "\\" in self.utt_id
                or self.utt_id in (".", "..")):
            raise ValueError(f"row {self.utt_id!r} ({self.wav_path}): "
                             f"utt_id must not be a path")
        if self.label not in (HUMAN, SPOOF):
            raise ValueError(f"{self.utt_id}: label must be human or spoof, "
                             f"got {self.label!r}")
        if self.subset not in SUBSETS:
            raise ValueError(f"{self.utt_id}: subset must be one of "
                             f"{SUBSETS}, got {self.subset!r}")
        if self.label == HUMAN and self.attack_id != NO_ATTACK:
            raise ValueError(f"{self.utt_id}: human rows take attack_id "
                             f"{NO_ATTACK!r}")
        if self.label == SPOOF and self.attack_id == NO_ATTACK:
            raise ValueError(f"{self.utt_id}: spoof rows need an attack_id")


@dataclass(frozen=True)
class Manifest:
    """An immutable list of utterance rows with unique ids.

    If any train rows are present they must cover both classes, because
    every back-end here models the two classes separately.
    """

    rows: tuple

    def __post_init__(self):
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        seen = set()
        for row in rows:
            if row.utt_id in seen:
                raise ValueError(f"duplicate utt_id {row.utt_id!r}")
            seen.add(row.utt_id)
        train_labels = {r.label for r in rows if r.subset == "train"}
        if train_labels and train_labels != {HUMAN, SPOOF}:
            raise ValueError("train subset must contain both human and "
                             "spoof utterances")

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def subset(self, name: str) -> "Manifest":
        if name not in SUBSETS:
            raise ValueError(f"unknown subset {name!r}")
        return Manifest(tuple(r for r in self.rows if r.subset == name))

    def resolve_paths(self, root=None):
        """Check that every wav_path exists; returns resolved Path list.

        Relative paths are taken against ``root`` (defaults to the cwd).
        """
        base = Path(root) if root is not None else Path(".")
        resolved = []
        for row in self.rows:
            p = Path(row.wav_path)
            if not p.is_absolute():
                p = base / p
            if not p.is_file():
                raise FileNotFoundError(f"{row.utt_id}: missing wav file {p}")
            resolved.append(p)
        return resolved


def write_manifest(path, manifest: Manifest):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(_HEADER) + "\n")
        for r in manifest.rows:
            fh.write(f"{r.utt_id}\t{r.wav_path}\t{r.label}\t"
                     f"{r.attack_id}\t{r.subset}\n")


def read_manifest(path) -> Manifest:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if tuple(header) != _HEADER:
            raise ValueError(f"{path}: bad manifest header {header}")
        rows = []
        for ln, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != len(_HEADER):
                raise ValueError(f"{path}:{ln}: expected "
                                 f"{len(_HEADER)} columns")
            rows.append(ManifestRow(*parts))
    return Manifest(tuple(rows))

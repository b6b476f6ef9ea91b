"""Trial score lists and their TSV representation.

One row per trial: utt_id, score, label (human|spoof), attack_id ("-" for
human trials), condition (e.g. "clean" or "white@0"). Scores are written
with repr() so a re-read is bit-exact and repeated runs are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import AlignmentError

HEADER = ("utt_id", "score", "label", "attack_id", "condition")
HUMAN = "human"
SPOOF = "spoof"
NO_ATTACK = "-"


@dataclass
class ScoreSet:
    utt_ids: list
    scores: np.ndarray
    labels: list
    attack_ids: list
    conditions: list

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        n = len(self.utt_ids)
        if not (len(self.labels) == len(self.attack_ids)
                == len(self.conditions) == self.scores.shape[0] == n):
            raise ValueError("score set columns have unequal lengths")
        bad = set(self.labels) - {HUMAN, SPOOF}
        if bad:
            raise ValueError(f"unknown labels {sorted(bad)}")
        finite = np.isfinite(self.scores)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(f"non-finite score {float(self.scores[i])!r} "
                             f"for trial {self.utt_ids[i]}")

    def __len__(self):
        return len(self.utt_ids)

    @property
    def target_mask(self) -> np.ndarray:
        """True for each human (target) trial; every other trial is spoof."""
        return np.array(self.labels, dtype=object) == HUMAN

    @property
    def target_scores(self) -> np.ndarray:
        return self.scores[self.target_mask]

    @property
    def nontarget_scores(self) -> np.ndarray:
        return self.scores[~self.target_mask]

    def with_scores(self, new_scores) -> "ScoreSet":
        """Same trial list, different scores."""
        return ScoreSet(list(self.utt_ids), new_scores, list(self.labels),
                        list(self.attack_ids), list(self.conditions))


def check_aligned(score_sets):
    """All sets must describe the identical trial list, in order."""
    if not score_sets:
        raise ValueError("no score sets given")
    first = score_sets[0]
    for other in score_sets[1:]:
        if any(list(getattr(other, column)) != list(getattr(first, column))
               for column in ("utt_ids", "labels", "attack_ids",
                              "conditions")):
            raise AlignmentError("score sets cover different trial lists")


def write_scores(path, scores: ScoreSet):
    body = "".join([
        f"{u}\t{s!r}\t{lab}\t{att}\t{cond}\n"
        for u, s, lab, att, cond in zip(scores.utt_ids, scores.scores.tolist(),
                                        scores.labels, scores.attack_ids,
                                        scores.conditions)])
    with open(path, "w") as fh:
        fh.write("\t".join(HEADER) + "\n" + body)


def _first_bad_row(path, lines) -> ValueError:
    """The error of the first row, in file order, that has not 5 columns or
    whose score float() rejects."""
    for ln, line in enumerate(lines, start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            return ValueError(f"{path}:{ln}: expected 5 columns")
        try:
            float(parts[1])
        except ValueError:
            return ValueError(f"{path}:{ln}: bad score {parts[1]!r}")


def read_scores(path) -> ScoreSet:
    """A score TSV read column by column; blank lines are skipped.  Only a
    file whose batched checks fail is walked row by row, to name the file
    and line of its first bad row."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if tuple(header) != HEADER:
            raise ValueError(f"{path}: unexpected score header {header}")
        lines = fh.read().split("\n")
    rows = [line for line in lines if line]
    if set(map(str.count, rows, repeat("\t"))) - {4}:
        raise _first_bad_row(path, lines)
    fields = "\t".join(rows).split("\t") if rows else []
    try:
        scores = np.fromiter(map(float, fields[1::5]), np.float64,
                             len(rows))
    except ValueError:
        raise _first_bad_row(path, lines) from None
    return ScoreSet(fields[0::5], scores, fields[2::5], fields[3::5],
                    fields[4::5])

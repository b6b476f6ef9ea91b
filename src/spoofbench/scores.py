"""Trial score lists and their TSV representation.

One row per trial: utt_id, score, label (human|spoof), attack_id ("-" for
human trials), condition (e.g. "clean" or "white@0"). Scores are written
with repr() so a re-read is bit-exact and repeated runs are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    def target_scores(self) -> np.ndarray:
        return self.scores[np.asarray(self.labels) == HUMAN]

    @property
    def nontarget_scores(self) -> np.ndarray:
        return self.scores[np.asarray(self.labels) == SPOOF]

    def with_scores(self, new_scores) -> "ScoreSet":
        """Same trial list, different scores."""
        return ScoreSet(list(self.utt_ids), new_scores, list(self.labels),
                        list(self.attack_ids), list(self.conditions))

    def trial_key(self):
        """Identity of the trial list, for cross-system alignment checks."""
        return tuple(zip(self.utt_ids, self.labels, self.attack_ids,
                         self.conditions))


def check_aligned(score_sets):
    """All sets must describe the identical trial list, in order."""
    if not score_sets:
        raise ValueError("no score sets given")
    first = score_sets[0].trial_key()
    for other in score_sets[1:]:
        if other.trial_key() != first:
            raise AlignmentError("score sets cover different trial lists")


def write_scores(path, scores: ScoreSet):
    body = "".join([
        f"{u}\t{s!r}\t{lab}\t{att}\t{cond}\n"
        for u, s, lab, att, cond in zip(scores.utt_ids, scores.scores.tolist(),
                                        scores.labels, scores.attack_ids,
                                        scores.conditions)])
    with open(path, "w") as fh:
        fh.write("\t".join(HEADER) + "\n" + body)


def read_scores(path) -> ScoreSet:
    utt_ids, vals, labels, attacks, conds = [], [], [], [], []
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if tuple(header) != HEADER:
            raise ValueError(f"{path}: unexpected score header {header}")
        for ln, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise ValueError(f"{path}:{ln}: expected 5 columns")
            utt_ids.append(parts[0])
            vals.append(float(parts[1]))
            labels.append(parts[2])
            attacks.append(parts[3])
            conds.append(parts[4])
    return ScoreSet(utt_ids, np.array(vals), labels, attacks, conds)

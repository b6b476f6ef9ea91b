"""Trial score lists and their TSV representation.

One row per trial: utt_id, score, label (human|spoof), attack_id ("-" for
human trials), condition (e.g. "clean" or "white@0"). Scores are written
with repr() so a re-read is bit-exact and repeated runs are byte-identical.

A ScoreSet's four trial columns are shared, never copied: with_scores and
read_aligned hand the same lists to every set that covers one trial list,
so a fusion of many systems holds one copy of it.  Nothing mutates a
column in place; build a new list to change one.

read_aligned compares each later file with the first as bytes and parses
only the score column of one that differs only inside its score fields;
any other file, such as one with CRLF line ends, is read in full and
compared column by column, as a separate read_scores would decide.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import AlignmentError

HEADER = ("utt_id", "score", "label", "attack_id", "condition")
HUMAN = "human"
SPOOF = "spoof"
NO_ATTACK = "-"
# the columns that name a trial; a ScoreSet holds each as a list
_METADATA = ("utt_ids", "labels", "attack_ids", "conditions")


@dataclass
class ScoreSet:
    utt_ids: list
    scores: np.ndarray
    labels: list
    attack_ids: list
    conditions: list

    def __post_init__(self):
        for column in _METADATA:
            if not isinstance(getattr(self, column), list):
                setattr(self, column, list(getattr(self, column)))
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

    def with_scores(self, new_scores) -> "ScoreSet":
        """Same trial list, different scores: the new set shares this one's
        column lists."""
        return ScoreSet(self.utt_ids, new_scores, self.labels,
                        self.attack_ids, self.conditions)


def _same_trials(a: ScoreSet, b: ScoreSet) -> bool:
    """Whether a and b hold the same trial list, compared column by column;
    a shared column's elements compare equal on identity alone."""
    return all(getattr(a, column) == getattr(b, column)
               for column in _METADATA)


def check_aligned(score_sets):
    """All sets must describe the identical trial list, in order."""
    if not score_sets:
        raise ValueError("no score sets given")
    first = score_sets[0]
    if not all(_same_trials(other, first) for other in score_sets[1:]):
        raise AlignmentError("score sets cover different trial lists")


def write_scores(path, scores: ScoreSet):
    body = "".join([
        f"{u}\t{s!r}\t{lab}\t{att}\t{cond}\n"
        for u, s, lab, att, cond in zip(scores.utt_ids, scores.scores.tolist(),
                                        scores.labels, scores.attack_ids,
                                        scores.conditions)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(HEADER) + "\n" + body)


def _first_bad_row(path) -> ValueError:
    """The error of the first row, in file order, that has not 5 columns or
    whose score float() rejects.  The file is read again, for read_scores
    drops its lines before it parses the scores."""
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        lines = fh.read().split("\n")
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


def read_scores(path, data: bytes | None = None) -> ScoreSet:
    """A score TSV read column by column; blank lines are skipped.  data,
    when given, is the file's bytes, already read; they are decoded as a
    text-mode open decodes the file.  Only a file whose batched checks fail
    is walked row by row, to name the file and line of its first bad row."""
    with (open(path, encoding="utf-8") if data is None else
          io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if tuple(header) != HEADER:
            raise ValueError(f"{path}: unexpected score header {header}")
        lines = fh.read().split("\n")
    rows = list(filter(None, lines))
    if set(map(str.count, rows, repeat("\t"))) - {4}:
        raise _first_bad_row(path)
    n = len(rows)
    joined = "\t".join(rows)
    del lines, rows   # the fields below are the read's peak
    fields = joined.split("\t") if n else []
    del joined
    try:
        scores = np.fromiter(map(float, fields[1::5]), np.float64, n)
    except ValueError:
        raise _first_bad_row(path) from None
    return ScoreSet(fields[0::5], scores, fields[2::5], fields[3::5],
                    fields[4::5])


def _split_scores(data: bytes, n: int):
    """A score file of n rows as (trial bytes, score bytes), or None if it
    holds a "\r" or not the 4 + 4n tabs of such a file.  The score field is
    the second of each row, between the row's first two tabs after the
    header's 4.  Score bytes are each score field and the tab after it;
    trial bytes are the file's count of "\n" and all its other bytes.  Each
    tab left out follows a fixed count of the tabs kept, so two files with
    equal trial bytes have equal bytes outside their score fields."""
    if b"\r" in data:
        return None
    buf = np.frombuffer(data, np.uint8)
    tabs = np.flatnonzero(buf == ord("\t"))
    if tabs.size != 4 + 4 * n:
        return None
    spans = tabs[4:].reshape(n, 4)[:, :2] + 1
    bounds = np.concatenate(([0], spans.ravel(), [buf.size]))
    in_score = np.repeat(np.arange(2 * n + 1) % 2 == 1, np.diff(bounds))
    trials = (np.count_nonzero(buf == ord("\n")), buf[~in_score].tobytes())
    return trials, buf[in_score].tobytes()


def _scores_like(data: bytes, trials, n: int):
    """The scores of a later file of n rows whose trial bytes (see
    _split_scores) equal the first file's, or None.  With the same bytes
    outside the score fields and as many "\n", it is the first file, row for
    row, with other score strings: read_scores would split it the same way
    and call float() on the same strings.  None also when float() rejects a
    score, for read_scores to name its row."""
    split = _split_scores(data, n)
    if split is None or split[0] != trials:
        return None
    try:
        return np.fromiter(map(float, split[1].split(b"\t")), np.float64, n)
    except ValueError:
        return None


def read_aligned(paths) -> list:
    """The score sets of paths, files that must cover one trial list; every
    set holds the first's columns.  Each file is read once, as bytes.  A
    later file that has the first's trial bytes gets only its scores
    parsed; any other is read by read_scores and compared column by column
    with the first, and the first file that differs raises an
    AlignmentError naming it.  Each file fails as read_scores fails on it."""
    with open(paths[0], "rb") as fh:
        data = fh.read()
    first = read_scores(paths[0], data)
    n = len(first)
    split = _split_scores(data, n)
    trials = split[0] if split else None
    del data, split
    sets = [first]
    for path in paths[1:]:
        with open(path, "rb") as fh:
            data = fh.read()
        scores = _scores_like(data, trials, n)
        if scores is None:
            other = read_scores(path, data)
            if not _same_trials(other, first):
                raise AlignmentError(f"{path}: covers a different trial list "
                                     f"than {paths[0]}")
            scores = other.scores
            del other   # before the next file is read
        sets.append(first.with_scores(scores))
    return sets

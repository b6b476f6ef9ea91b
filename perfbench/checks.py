"""Output checks, written against the file formats rather than the package.

Score files are parsed here, not with `spoofbench.scores`, and EERs are
recomputed with a separate ROC-convex-hull implementation, so a defect in
the code under test cannot vouch for itself.  A failed check is counted
against the pass that produced the output; it never raises.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

SCORE_HEADER = "utt_id\tscore\tlabel\tattack_id\tcondition"
EER_TOLERANCE_PP = 1e-4        # report files print EERs with 4 decimals
RECORDED_TOLERANCE_PP = 1e-3   # against the EERs recorded for a seed


def digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_score_file(path: Path):
    """(scores, labels, attacks) arrays; raises ValueError on a bad file."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != SCORE_HEADER:
        raise ValueError(f"{path.name}: missing score header")
    rows = [line.split("\t") for line in lines[1:] if line]
    if any(len(r) != 5 for r in rows):
        raise ValueError(f"{path.name}: expected 5 columns")
    scores = np.array([float(r[1]) for r in rows])
    labels = np.array([r[2] for r in rows])
    return scores, labels, np.array([r[3] for r in rows])


def count_score_rows(paths):
    """(rows, non-finite rows, problems) over a set of score files.

    A non-finite score fails its trial only; an unreadable file is a
    problem, which fails the whole pass.
    """
    rows = bad = 0
    problems = []
    for path in paths:
        try:
            scores, _, _ = read_score_file(path)
        except (OSError, ValueError) as exc:
            problems.append(str(exc))
            continue
        rows += scores.size
        bad += int(np.count_nonzero(~np.isfinite(scores)))
    return rows, bad, problems


def check_eer_table(path: Path):
    """Problems found in a harness TSV with an `eer_percent` column."""
    if not path.is_file():
        return [f"{path.name} missing"]
    lines = path.read_text(encoding="utf-8").splitlines()
    col = lines[0].split("\t").index("eer_percent")
    if len(lines) < 2:
        return [f"{path.name} has no rows"]
    return eer_range_problems({f"{path.name}:{n}": float(row.split("\t")[col])
                               for n, row in enumerate(lines[1:], start=2)})


def _lower_hull(xs, ys):
    """Lower convex hull of points sorted by x, then y (monotone chain)."""
    hull = []
    for p in zip(xs, ys):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def rocch_eer_percent(target, nontarget) -> float:
    """EER in percent where the ROC convex hull meets p_miss = p_fa."""
    tar, non = np.sort(target), np.sort(nontarget)
    th = np.unique(np.concatenate([tar, non]))
    p_miss = np.searchsorted(tar, th, side="left") / tar.size
    p_fa = (non.size - np.searchsorted(non, th, side="left")) / non.size
    # thresholds ascend, so p_fa descends: reverse for an x-ascending sweep
    xs = np.concatenate([[0.0], p_fa[::-1], [1.0]])
    ys = np.concatenate([[1.0], p_miss[::-1], [0.0]])
    order = np.lexsort((ys, xs))
    hull = _lower_hull(xs[order].tolist(), ys[order].tolist())
    for (x1, y1), (x2, y2) in zip(hull[:-1], hull[1:]):
        d1, d2 = y1 - x1, y2 - x2
        if d1 == 0.0:
            return 100.0 * x1
        if (d1 > 0 >= d2) or (d1 < 0 <= d2):
            return 100.0 * (x1 + d1 / (d1 - d2) * (x2 - x1))
    return 0.0


def reference_eers(score_path: Path) -> dict:
    """Pooled and per-attack EERs (percent) recomputed from a score file."""
    scores, labels, attacks = read_score_file(score_path)
    tar = scores[labels == "human"]
    spoof = labels == "spoof"
    per_attack = {a: rocch_eer_percent(tar, scores[spoof & (attacks == a)])
                  for a in sorted(set(attacks[spoof]))}
    return {"pooled": rocch_eer_percent(tar, scores[spoof]), **per_attack,
            "macro-average": float(np.mean(list(per_attack.values())))}


def read_eval_report(path: Path) -> dict:
    """EERs from the text `spoofbench eval --per-attack --out` writes."""
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        parts = line.split("\t")
        if parts[0] == "eer_percent":
            out["pooled"] = float(parts[1])
        elif parts[0] == "attack":
            out[parts[1]] = float(parts[2])
    return out


def eer_range_problems(eers: dict):
    return [f"EER {key} = {eer} outside [0, 50]" for key, eer in eers.items()
            if not (math.isfinite(eer) and 0.0 <= eer <= 50.0)]


def compare_eers(reported: dict, expected: dict, tolerance: float, what: str):
    problems = []
    if set(reported) != set(expected):
        problems.append(f"{what}: systems differ "
                        f"({sorted(set(reported) ^ set(expected))})")
    for key in sorted(set(reported) & set(expected)):
        if abs(reported[key] - expected[key]) > tolerance:
            problems.append(f"{what}: {key} EER {reported[key]} vs "
                            f"{expected[key]}")
    return problems

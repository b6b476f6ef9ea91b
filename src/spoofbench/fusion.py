"""Score fusion across detectors: plain averaging, or a logistic-regression
weighted sum trained on development scores."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scores import ScoreSet, check_aligned

L2_PENALTY = 1e-3
FUSION_METHODS = ("average", "logistic")


@dataclass
class FusionModel:
    kind: str              # one of FUSION_METHODS
    system_ids: list
    weights: np.ndarray
    bias: float

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.kind not in FUSION_METHODS:
            raise ValueError(f"unknown fusion kind {self.kind!r}")
        if len(self.system_ids) != self.weights.shape[0]:
            raise ValueError("one weight per system required")
        if self.kind == "average":
            n = self.weights.shape[0]
            if self.bias != 0.0 or not np.allclose(self.weights, 1.0 / n):
                raise ValueError("average fusion must weight systems equally")


def average_model(system_ids) -> FusionModel:
    n = len(system_ids)
    return FusionModel("average", list(system_ids), np.full(n, 1.0 / n), 0.0)


def fuse_average(score_sets) -> ScoreSet:
    """Per-trial arithmetic mean over systems."""
    check_aligned(score_sets)
    stacked = np.stack([s.scores for s in score_sets])
    return score_sets[0].with_scores(stacked.mean(axis=0))


def apply_fusion(model: FusionModel, score_sets) -> ScoreSet:
    check_aligned(score_sets)
    if len(score_sets) != len(model.system_ids):
        raise ValueError(f"model fuses {len(model.system_ids)} systems, "
                         f"got {len(score_sets)}")
    stacked = np.stack([s.scores for s in score_sets], axis=1)
    return score_sets[0].with_scores(stacked @ model.weights + model.bias)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def train_logistic_fusion(dev_score_sets, system_ids=None,
                          l2_penalty=L2_PENALTY, max_iterations=200,
                          grad_tol=1e-6) -> FusionModel:
    """Newton's method with step halving on the L2-regularized binomial
    log-loss; the bias is not penalized.

    Scores are standardized per system for conditioning; the standardization
    is folded back into the returned weights, so the model applies directly
    to raw scores.
    """
    check_aligned(dev_score_sets)
    if system_ids is None:
        system_ids = [f"sys{i}" for i in range(len(dev_score_sets))]
    if len(system_ids) != len(dev_score_sets):
        raise ValueError("one system id per score set required")
    y = dev_score_sets[0].target_mask.astype(np.float64)
    if y.min() == y.max():
        raise ValueError("logistic fusion needs both classes in the dev set")
    raw = np.stack([s.scores for s in dev_score_sets], axis=1)
    mean = raw.mean(axis=0)
    std = raw.std(axis=0)
    std[std < 1e-12] = 1.0
    x = (raw - mean) / std

    n, k = x.shape
    theta = np.zeros(k + 1)                       # weights then bias

    def objective(th):
        z = x @ th[:k] + th[k]
        # log(1 + exp(-z*sign)) written stably
        ll = np.where(z >= 0,
                      np.log1p(np.exp(-z)) + (1.0 - y) * z,
                      np.log1p(np.exp(z)) - y * z)
        return ll.mean() + 0.5 * l2_penalty * np.sum(th[:k] ** 2)

    value = objective(theta)
    for _ in range(max_iterations):
        z = x @ theta[:k] + theta[k]
        p = _sigmoid(z)
        grad = np.empty(k + 1)
        grad[:k] = x.T @ (p - y) / n + l2_penalty * theta[:k]
        grad[k] = np.mean(p - y)
        if np.max(np.abs(grad)) < grad_tol:
            break
        r = p * (1.0 - p)
        xa = np.concatenate([x, np.ones((n, 1))], axis=1)
        hess = (xa * r[:, None]).T @ xa / n
        hess[:k, :k] += l2_penalty * np.eye(k)
        step = np.linalg.solve(hess, grad)
        scale = 1.0
        while scale > 1e-8:
            trial = objective(theta - scale * step)
            if trial <= value:
                break
            scale *= 0.5
        theta = theta - scale * step
        value = objective(theta)

    weights = theta[:k] / std
    bias = theta[k] - float(np.sum(theta[:k] * mean / std))
    return FusionModel("logistic", list(system_ids), weights, bias)


def save_fusion(path, model: FusionModel):
    with open(path, "w") as fh:
        fh.write("# fusion model\n")
        fh.write(f"kind\t{model.kind}\n")
        fh.write(f"bias\t{float(model.bias)!r}\n")
        for sid, w in zip(model.system_ids, model.weights):
            fh.write(f"weight\t{sid}\t{float(w)!r}\n")


def load_fusion(path) -> FusionModel:
    kind, bias = None, None
    system_ids, weights = [], []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if parts[0] == "kind":
                kind = parts[1]
            elif parts[0] == "bias":
                bias = float(parts[1])
            elif parts[0] == "weight":
                system_ids.append(parts[1])
                weights.append(float(parts[2]))
            else:
                raise ValueError(f"{path}: unknown fusion field {parts[0]!r}")
    if kind is None or bias is None or not system_ids:
        raise ValueError(f"{path}: incomplete fusion model")
    return FusionModel(kind, system_ids, np.array(weights), bias)

"""Diagonal-covariance Gaussian mixture back-end.

Detection uses one mixture per class; an utterance is scored by the
difference of per-frame average log-likelihoods under the two models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import load_arrays, save_arrays

_GMM_MAGIC = b"SPGM1"
VAR_FLOOR_FRAC = 1e-4
_LOG_2PI = np.log(2.0 * np.pi)
# frames per block of EM's E-step, which bounds its (T, C) temporaries
_EM_CHUNK_FRAMES = 100_000
# np.exp is fast and its result normal at and above _EXP_FAST; below
# _EXP_ZERO its result is exactly 0.0 (it underflows below -745.13)
_EXP_FAST = -700.0
_EXP_ZERO = -746.0


def _exp(a, out=None) -> np.ndarray:
    """np.exp(a), bit for bit, for a real float64 array.

    numpy's SIMD exp takes a slow path for every argument whose result is
    subnormal or zero, and the terms of a log-sum-exp or of responsibilities
    often lie hundreds of nats below their row maximum.  So np.exp runs on
    the arguments clipped at _EXP_FAST, the clipped ones are set to 0.0, and
    only those in (_EXP_ZERO, _EXP_FAST) are passed to np.exp on their own.
    out may be a itself.
    """
    with np.errstate(under="ignore"):
        low = a < _EXP_FAST
        band = low & (a > _EXP_ZERO)
        tiny = np.exp(a[band])
        out = np.maximum(a, _EXP_FAST, out=out)
        np.exp(out, out=out)
        out *= ~low          # 0.0 where clipped; x * 1.0 keeps x's bits
        out[band] = tiny
    return out


def _logsumexp_rows(a) -> np.ndarray:
    """log(sum(exp(a), axis=1)) for a real 2-D float64 array, (T,).

    The result has exactly the bits of ``scipy.special.logsumexp(a, axis=1)``
    because it performs scipy's float operations in scipy's order: the row
    maxima are split out of the sum and counted (m), the remaining terms are
    summed as s, and the row is log1p(s / m) + log(m) + max. Rows where that
    is not finite take scipy's fallback, log(sum(exp(a))). Only scipy's
    generic dispatch and its full-array fallback pass are left out.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=1, keepdims=True)
        mask = a == a_max
        e = a - a_max
        _exp(e, out=e)
        np.putmask(e, mask, 0.0)
        s = e.sum(axis=1)
        m = mask.sum(axis=1, dtype=np.float64)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max[:, 0]
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.exp(a[bad]).sum(axis=1))
    return out


@dataclass(frozen=True)
class GmmModel:
    weights: np.ndarray     # (C,)
    means: np.ndarray       # (C, D)
    variances: np.ndarray   # (C, D)

    def __post_init__(self):
        for name in ("weights", "means", "variances"):
            object.__setattr__(self, name, np.asarray(getattr(self, name),
                                                      dtype=np.float64))
        c, d = self.means.shape
        if self.weights.shape != (c,) or self.variances.shape != (c, d):
            raise ValueError("inconsistent GMM parameter shapes")
        if abs(self.weights.sum() - 1.0) > 1e-6 or np.any(self.weights < 0):
            raise ValueError("weights must be a probability vector")
        if np.any(self.variances <= 0):
            raise ValueError("variances must be positive")
        # (1/v, m/v, per-component constant): they depend on the model
        # alone, so they are built with it
        inv = 1.0 / self.variances                                   # (C, D)
        const = (np.log(self.weights)
                 - 0.5 * (d * _LOG_2PI + np.log(self.variances).sum(axis=1)
                          + (self.means ** 2 * inv).sum(axis=1)))    # (C,)
        object.__setattr__(self, "_likelihood_terms",
                           (inv, self.means * inv, const))

    @property
    def n_components(self):
        return self.means.shape[0]

    @property
    def dim(self):
        return self.means.shape[1]

    def stacked_log_likelihoods(self, utterances) -> np.ndarray:
        """log(w_c N(x; m_c, diag v_c)) for every frame and component of
        each of a list of (T, D) float64 frame matrices, stacked into one
        (sum T, C) array.  The two GEMMs stay one pair per utterance, since
        BLAS rounds a row differently at other row counts, so each row has
        the bits of its utterance alone; they write into the stack, and the
        rest runs once over it."""
        inv, scaled_means, const = self._likelihood_terms
        quad = np.empty((sum(len(u) for u in utterances), self.n_components))
        cross = np.empty_like(quad)
        lo = 0
        for u in utterances:
            hi = lo + len(u)
            np.matmul(u ** 2, inv.T, out=quad[lo:hi])
            np.matmul(u, scaled_means.T, out=cross[lo:hi])
            lo = hi
        # const + cross - 0.5 * quad, in place
        cross += const[None, :]
        quad *= 0.5
        cross -= quad
        return cross


def kmeans_pp_centers(frames, k, rng) -> np.ndarray:
    """k-means++ seeding: subsequent centers drawn with probability
    proportional to squared distance from the nearest existing center."""
    n = frames.shape[0]
    centers = np.empty((k, frames.shape[1]))
    centers[0] = frames[rng.integers(n)]
    d2 = ((frames - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[i] = frames[idx]
        d2 = np.minimum(d2, ((frames - centers[i]) ** 2).sum(axis=1))
    return centers


def train_gmm(frames, n_components, n_iterations=10, seed=0):
    """EM for a diagonal GMM.

    Initialization: k-means++ means, uniform weights, global variances.
    Variances are floored at VAR_FLOOR_FRAC times the global per-dimension
    variance. Returns (model, history) where history[i] is the average
    log-likelihood of the data under the model entering iteration i (a
    non-decreasing sequence, EM's fixed-point guarantee).
    """
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    t, d = frames.shape
    if t < 1:
        raise ValueError("no frames to train on")
    if n_components < 1:
        raise ValueError("need at least one component")
    rng = np.random.default_rng(seed)
    global_var = frames.var(axis=0)
    floor = np.maximum(VAR_FLOOR_FRAC * global_var, 1e-12)

    model = GmmModel(np.full(n_components, 1.0 / n_components),
                     kmeans_pp_centers(frames, n_components, rng),
                     np.maximum(np.tile(global_var, (n_components, 1)), floor))

    history = []
    for _ in range(n_iterations):
        nk = np.zeros(n_components)
        sum_x = np.zeros((n_components, d))
        sum_x2 = np.zeros((n_components, d))
        total_ll = 0.0
        for start in range(0, t, _EM_CHUNK_FRAMES):
            block = frames[start:start + _EM_CHUNK_FRAMES]
            comp_ll = model.stacked_log_likelihoods([block])
            frame_ll = _logsumexp_rows(comp_ll)
            total_ll += float(frame_ll.sum())
            resp = _exp(comp_ll - frame_ll[:, None])
            nk += resp.sum(axis=0)
            sum_x += resp.T @ block
            sum_x2 += resp.T @ (block ** 2)
        history.append(total_ll / t)

        safe_nk = np.maximum(nk, 1e-12)
        means = sum_x / safe_nk[:, None]
        variances = np.maximum(sum_x2 / safe_nk[:, None] - means ** 2, floor)
        model = GmmModel(nk / t, means, variances)
    return model, history


def llr_scores(utterances, natural_model: GmmModel,
               synthetic_model: GmmModel) -> np.ndarray:
    """Average per-frame log-likelihood ratio, natural over synthetic, of
    each of a list of (T, D) float64 frame matrices.  The log-sum-exp runs
    once per model over the stacked frames, and every score keeps the bytes
    of scoring its utterance alone."""
    if not all(len(u) for u in utterances):
        raise ValueError("no frames to score")
    bounds = np.cumsum([0] + [len(u) for u in utterances])
    nat, syn = (_logsumexp_rows(model.stacked_log_likelihoods(utterances))
                for model in (natural_model, synthetic_model))
    return np.array([float(np.mean(nat[lo:hi])) - float(np.mean(syn[lo:hi]))
                     for lo, hi in zip(bounds[:-1], bounds[1:])])


def save_gmm(path, model: GmmModel):
    """Magic "SPGM1", (C, D), then weights, means and variances."""
    save_arrays(path, _GMM_MAGIC, (model.n_components, model.dim),
                model.weights, model.means, model.variances)


def load_gmm(path) -> GmmModel:
    (c, d), payload = load_arrays(path, _GMM_MAGIC, 2,
                                  lambda c, d: c + 2 * c * d, "GMM model")
    weights = payload[:c]
    means = payload[c:c + c * d].reshape(c, d)
    variances = payload[c + c * d:].reshape(c, d)
    return GmmModel(weights.copy(), means.copy(), variances.copy())

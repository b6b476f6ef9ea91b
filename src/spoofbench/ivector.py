"""i-vector back-end: total-variability modeling over GMM supervectors.

An utterance is summarized by zeroth/first-order Baum-Welch statistics
against a UBM; a low-rank total-variability matrix T maps a latent w to a
supervector offset, and the posterior mean of w is the i-vector. Session
compensation is WCCN followed by length normalization; scoring is cosine
against per-class mean i-vectors, or a two-covariance PLDA log-likelihood
ratio.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .audio import load_arrays, save_arrays
from .errors import DegenerateVectorError
from .gmm import GmmModel, _exp

_TV_MAGIC = b"SPTV1"
_WCCN_MAGIC = b"SPWC1"
_PLDA_MAGIC = b"SPPL1"
# norm below which a vector counts as zero for length normalization and
# cosine scoring
MIN_NORM = 1e-12
# bytes of (R, R) precision matrices that one batched i-vector solve holds:
# about 50 utterances at rank 400, thousands at this repo's ranks
_SOLVE_BYTES = 64 * 2 ** 20


# ---------------------------------------------------------------------------
# sufficient statistics

def batch_stats(utterances, ubm: GmmModel):
    """Zeroth (N, per component) and first (F, component x dim) order
    statistics under the UBM posteriors of each of a list of (T, D) float64
    frame matrices, as (B, C) and (B, C, D) arrays.  The responsibilities
    are computed row by row over the stacked frames, and each utterance
    sums its own rows, so each keeps the bits of its statistics alone."""
    resp = ubm.stacked_log_likelihoods(utterances)
    resp -= resp.max(axis=1, keepdims=True)
    _exp(resp, out=resp)
    resp /= resp.sum(axis=1, keepdims=True)
    bounds = np.cumsum([0] + [len(u) for u in utterances])
    parts = [resp[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    return (np.array([part.sum(axis=0) for part in parts]),
            np.array([part.T @ u for part, u in zip(parts, utterances)]))


# ---------------------------------------------------------------------------
# total-variability model

@dataclass(frozen=True)
class TvMatrix:
    """mu = m + T w: low-rank factorization of supervector offsets."""

    matrix: np.ndarray   # (M*D, R)
    mean: np.ndarray     # (M*D,) supervector of UBM means

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           np.asarray(self.matrix, dtype=np.float64))
        object.__setattr__(self, "mean",
                           np.asarray(self.mean, dtype=np.float64))
        if self.matrix.ndim != 2 or self.mean.shape != (self.matrix.shape[0],):
            raise ValueError("inconsistent total-variability shapes")
        if not (1 <= self.matrix.shape[1] < self.matrix.shape[0]):
            raise ValueError("rank must satisfy 1 <= R < supervector size")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("total-variability matrix must be finite")

    @property
    def rank(self):
        return self.matrix.shape[1]


def gram_blocks(tv_mat, ubm):
    """T_c^T Sigma_c^-1 T_c for every component c, shape (C, R, R).

    It depends on the model alone, so extraction computes it once per
    (UBM, T) pair, not once per utterance (Glembek et al., ICASSP 2011).
    """
    c, d = ubm.means.shape
    blocks = tv_mat.reshape(c, d, tv_mat.shape[1])
    return np.einsum("cdr,cd,cds->crs", blocks, ubm.variances ** -1.0, blocks)


def _posteriors(n, f, ubm: GmmModel, tv_mat, mean, gram):
    """The total-variability posterior of each utterance, one slice of
    utterances at a time: yields (rows, N, centred F flattened to (S, C*D),
    precisions L = I + sum_c N_c G_c, linear terms b = T^T Sigma^-1 F~,
    means L^-1 b) per slice.  Each slice gets its precisions from one
    product and its means from one batched solve (Glembek et al., ICASSP
    2011), and holds at most _SOLVE_BYTES of precisions, so memory does not
    grow with B.  mean is the (C, D) UBM means that F is centred on."""
    c, d = ubm.means.shape
    rank = tv_mat.shape[1]
    inv_var = (1.0 / ubm.variances).ravel()
    step = max(1, _SOLVE_BYTES // (8 * rank * rank))
    for lo in range(0, len(n), step):
        nb = np.asarray(n[lo:lo + step], dtype=np.float64)
        fb = np.asarray(f[lo:lo + step], dtype=np.float64)
        ftilde = (fb - nb[:, :, None] * mean).reshape(-1, c * d)
        precision = np.eye(rank) + (nb @ gram.reshape(c, rank * rank)
                                    ).reshape(-1, rank, rank)
        b = (ftilde * inv_var) @ tv_mat
        yield (slice(lo, lo + len(nb)), nb, ftilde, precision, b,
               np.linalg.solve(precision, b[:, :, None])[:, :, 0])


def train_tv(n, f, ubm: GmmModel, rank, n_iterations=10, seed=0):
    """EM for the total-variability matrix.

    n, f: zeroth (B, C) and first (B, C, D) order statistics, as
    batch_stats gives them; the first-order ones are re-centred on the UBM
    means, F_c - N_c m_c.  Returns (TvMatrix, history) where history holds
    the per-iteration marginal log-likelihood terms that depend on T
    (non-decreasing).
    """
    c, d = ubm.means.shape
    if rank < 1 or rank >= c * d:
        raise ValueError("rank must satisfy 1 <= R < n_components * dim")
    if len(n) == 0:
        raise ValueError("no statistics to train on")
    rng = np.random.default_rng(seed)
    scale = np.sqrt(ubm.variances.mean())
    tv_mat = 0.1 * scale * rng.standard_normal((c * d, rank))

    history = []
    for _ in range(n_iterations):
        gram = gram_blocks(tv_mat, ubm)
        a_acc = np.zeros((c, rank * rank))
        b_acc = np.zeros((c * d, rank))
        objective = 0.0
        for _, nb, ftilde, precision, b, w in _posteriors(
                n, f, ubm, tv_mat, ubm.means, gram):
            second = np.linalg.inv(precision) + w[:, :, None] * w[:, None, :]
            a_acc += nb.T @ second.reshape(len(nb), rank * rank)
            b_acc += ftilde.T @ w
            _, logdet = np.linalg.slogdet(precision)
            objective += float(-0.5 * logdet.sum() + 0.5 * np.sum(b * w))
        history.append(objective)
        tv_mat = np.linalg.solve(
            a_acc.reshape(c, rank, rank),
            b_acc.reshape(c, d, rank).transpose(0, 2, 1)
        ).transpose(0, 2, 1).reshape(c * d, rank)
    return TvMatrix(tv_mat, ubm.means.ravel()), history


def ivectors_from_stats(n, f, ubm: GmmModel, tv: TvMatrix,
                        gram) -> np.ndarray:
    """Posterior means of the total-variability latent, one row per
    utterance, from zeroth (B, C) and first (B, C, D) order statistics,
    arrays or sequences of per-utterance rows; gram is
    gram_blocks(tv.matrix, ubm)."""
    c, d = ubm.means.shape
    out = np.empty((len(n), tv.rank))
    for rows, *_, w in _posteriors(n, f, ubm, tv.matrix,
                                   tv.mean.reshape(c, d), gram):
        out[rows] = w
    return out


# ---------------------------------------------------------------------------
# session compensation and scoring

def train_wccn(ivectors, labels) -> np.ndarray:
    """Within-class covariance normalization.

    Returns B, lower-triangular with B B^T = W^-1 (W the pooled within-class
    covariance); apply as B.T @ w, after which the within-class covariance of
    the training set is the identity. A small diagonal ridge is added only
    when W is ill-conditioned, so the well-posed case stays exact.
    """
    ivectors = np.atleast_2d(np.asarray(ivectors, dtype=np.float64))
    labels = np.asarray(labels)
    if len(labels) != ivectors.shape[0]:
        raise ValueError("one label per i-vector required")
    classes, counts = np.unique(labels, return_counts=True)
    if len(classes) < 2 or counts.min() < 2:
        raise ValueError("WCCN needs >= 2 classes with >= 2 vectors each")
    rank = ivectors.shape[1]
    w = np.zeros((rank, rank))
    for lab in classes:
        group = ivectors[labels == lab]
        diff = group - group.mean(axis=0)
        w += diff.T @ diff
    w /= ivectors.shape[0]
    cond = np.linalg.cond(w)
    if not np.isfinite(cond) or cond > 1e10:
        ridge = 1e-6 * np.trace(w) / rank
        w += max(ridge, 1e-12) * np.eye(rank)
    b = np.linalg.cholesky(np.linalg.inv(w))
    return b


def apply_wccn(b, ivectors) -> np.ndarray:
    return np.asarray(ivectors) @ b


def length_normalize(w) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    norm = np.linalg.norm(w, axis=-1, keepdims=True)
    if np.any(norm < MIN_NORM):
        raise DegenerateVectorError("cannot length-normalize a zero vector")
    return w / norm


def cosine_scores(w, reference) -> np.ndarray:
    """Cosine of each row of w with the vector reference: one
    matrix-vector product."""
    w = np.atleast_2d(np.asarray(w, dtype=np.float64))
    reference = np.asarray(reference, dtype=np.float64)
    norms = np.linalg.norm(w, axis=1)
    # the rows' reduction, so that swapping two vectors keeps the bits
    norm_ref = np.linalg.norm(reference, axis=-1)
    if norm_ref < MIN_NORM or np.any(norms < MIN_NORM):
        raise DegenerateVectorError("cosine of a zero vector is undefined")
    return w @ reference / (norms * norm_ref)


def class_mean_ivectors(ivectors, labels) -> dict:
    """Per-class mean of length-normalized i-vectors, re-normalized."""
    ivectors = np.atleast_2d(np.asarray(ivectors, dtype=np.float64))
    labels = np.asarray(labels)
    means = {}
    for lab in np.unique(labels):
        mean = length_normalize(ivectors[labels == lab]).mean(axis=0)
        means[str(lab)] = length_normalize(mean)
    return means


def detection_scores(w, mean_natural, mean_synthetic) -> np.ndarray:
    """Cosine to the natural-class mean minus cosine to the synthetic one,
    for each row of w."""
    return cosine_scores(w, mean_natural) - cosine_scores(w, mean_synthetic)


# ---------------------------------------------------------------------------
# PLDA (two-covariance, tied across classes)

@dataclass(frozen=True)
class PldaModel:
    mu: np.ndarray       # (R,)
    factors: np.ndarray  # (R, q) between-class loading
    sigma: np.ndarray    # (R, R) within-class covariance

    @property
    def rank(self):
        return self.mu.shape[0]

    def __post_init__(self):
        """Build pair_inverses, (same^-1, logdet same, diff^-1, logdet
        diff): the inverse covariances of a stacked pair [w1 - mu; w2 - mu]
        under the same-class and the different-class hypotheses, with their
        log-determinants.  They depend on the model alone, so they are built
        with it, and a pair LLR is two quadratic forms (Sizov, Lee &
        Kinnunen, S+SSPR 2014)."""
        r = self.rank
        between = self.factors @ self.factors.T
        total = between + self.sigma
        same = np.block([[total, between], [between, total]])
        diff = np.block([[total, np.zeros((r, r))],
                         [np.zeros((r, r)), total]])
        _, logdet_same = np.linalg.slogdet(same)
        _, logdet_diff = np.linalg.slogdet(diff)
        object.__setattr__(self, "pair_inverses", (
            np.linalg.inv(same), logdet_same, np.linalg.inv(diff),
            logdet_diff))


def train_plda(ivectors, labels, latent_rank=None, n_iterations=10, seed=0):
    """EM for w = mu + F v + eps with v ~ N(0, I_q), eps ~ N(0, Sigma).

    The latent rank is clamped to n_classes - 1; with a single class the
    between-class term is degenerate and a warning is issued.
    """
    ivectors = np.atleast_2d(np.asarray(ivectors, dtype=np.float64))
    labels = np.asarray(labels)
    n, r = ivectors.shape
    classes = np.unique(labels)
    q = min(latent_rank if latent_rank is not None else r,
            max(len(classes) - 1, 1), r)
    if len(classes) < 2:
        warnings.warn("PLDA trained on a single class: between-class "
                      "variance is degenerate", RuntimeWarning)

    mu = ivectors.mean(axis=0)
    centered = ivectors - mu
    rng = np.random.default_rng(seed)

    # moment-based initialization: within-class covariance for Sigma and the
    # leading eigenpairs of the between-class scatter for F -- EM then only
    # applies small corrections instead of crawling from a random start
    within = np.zeros((r, r))
    between = np.zeros((r, r))
    for lab in classes:
        group = centered[labels == lab]
        gm = group.mean(axis=0)
        diff = group - gm
        within += diff.T @ diff
        between += len(group) * np.outer(gm, gm)
    within /= n
    between /= n
    evals, evecs = np.linalg.eigh(between)
    top = np.maximum(evals[-q:], 0.0)
    factors = evecs[:, -q:] * np.sqrt(top)[None, :]
    factors += 1e-4 * np.sqrt(max(np.trace(within) / r, 1e-12)) \
        * rng.standard_normal((r, q))
    sigma = within + 1e-6 * np.eye(r)

    groups = [(centered[labels == lab].sum(axis=0), int((labels == lab).sum()))
              for lab in classes]
    sum_uu = centered.T @ centered                     # constant over EM
    for _ in range(n_iterations):
        sigma_inv = np.linalg.inv(sigma)
        lam = factors.T @ sigma_inv @ factors          # (q, q)
        proj = factors.T @ sigma_inv                   # (q, R)
        sum_wv = np.zeros((r, q))
        sum_vv = np.zeros((q, q))
        for group_sum, count in groups:
            lmat = np.eye(q) + count * lam
            ev = np.linalg.solve(lmat, proj @ group_sum)
            evv = np.linalg.inv(lmat) + np.outer(ev, ev)
            sum_wv += np.outer(group_sum, ev)
            sum_vv += count * evv
        factors = np.linalg.solve(sum_vv, sum_wv.T).T
        # with the refreshed factors the cross terms collapse, leaving
        # Sigma = (sum_uu - F sum_wv^T) / n, which stays symmetric
        sigma = (sum_uu - factors @ sum_wv.T) / n
        sigma = 0.5 * (sigma + sigma.T) + 1e-9 * np.eye(r)
    return PldaModel(mu, factors, sigma)


def plda_llrs(model: PldaModel, w1, w2) -> np.ndarray:
    """log p(w1, w2 | same class) - log p(w1, w2 | different classes) for
    each row pair of w1 and w2; a single vector on one side is paired with
    every row of the other."""
    same_inv, logdet_same, diff_inv, logdet_diff = model.pair_inverses
    w1, w2 = np.broadcast_arrays(np.atleast_2d(w1), np.atleast_2d(w2))
    u = np.concatenate([w1 - model.mu, w2 - model.mu], axis=1)
    same_ll = -0.5 * (logdet_same + np.einsum("ij,ij->i", u @ same_inv, u))
    diff_ll = -0.5 * (logdet_diff + np.einsum("ij,ij->i", u @ diff_inv, u))
    return same_ll - diff_ll


def plda_detection_scores(model: PldaModel, w, mean_natural,
                          mean_synthetic) -> np.ndarray:
    """PLDA analog of the cosine detection score, for each row of w: pair
    LLR against the natural-class representative minus the synthetic
    one."""
    return (plda_llrs(model, mean_natural, w)
            - plda_llrs(model, mean_synthetic, w))


# ---------------------------------------------------------------------------
# serialization

def save_tv(path, tv: TvMatrix, n_components: int):
    """Magic "SPTV1", (M, D, R), then the mean supervector m and T."""
    rows = tv.matrix.shape[0]
    if rows % n_components:
        raise ValueError("supervector size not divisible by component count")
    save_arrays(path, _TV_MAGIC, (n_components, rows // n_components,
                                  tv.rank), tv.mean, tv.matrix)


def load_tv(path) -> TvMatrix:
    (m, d, rank), data = load_arrays(path, _TV_MAGIC, 3,
                                     lambda m, d, r: m * d * (1 + r),
                                     "total-variability")
    size = m * d
    mean = data[:size].copy()
    matrix = data[size:].reshape(size, rank).copy()
    return TvMatrix(matrix, mean)


def save_wccn(path, b):
    """Magic "SPWC1", (R,), then the R x R transform."""
    b = np.asarray(b, dtype=np.float64)
    save_arrays(path, _WCCN_MAGIC, (b.shape[0],), b)


def load_wccn(path) -> np.ndarray:
    (rank,), data = load_arrays(path, _WCCN_MAGIC, 1, lambda r: r * r,
                                "WCCN")
    return data.reshape(rank, rank).copy()


def save_plda(path, model: PldaModel):
    """Magic "SPPL1", (R, Q), then mu, the factor loadings and sigma."""
    save_arrays(path, _PLDA_MAGIC, (model.rank, model.factors.shape[1]),
                model.mu, model.factors, model.sigma)


def load_plda(path) -> PldaModel:
    (r, q), data = load_arrays(path, _PLDA_MAGIC, 2,
                               lambda r, q: r + r * q + r * r, "PLDA")
    mu = data[:r].copy()
    factors = data[r:r + r * q].reshape(r, q).copy()
    sigma = data[r + r * q:].reshape(r, r).copy()
    return PldaModel(mu, factors, sigma)


def save_ivectors(path, labels, ivectors, header="# i-vectors"):
    """Labelled vectors as plain text: the header line, then one
    `label v1 v2 ...` line per vector, 17 significant digits each, so the
    values read back exactly."""
    ivectors = np.atleast_2d(np.asarray(ivectors, dtype=np.float64))
    if len(labels) != ivectors.shape[0]:
        raise ValueError("one label per i-vector required")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for label, vec in zip(labels, ivectors):
            joined = " ".join(f"{v:.17g}" for v in vec)
            fh.write(f"{label} {joined}\n")


def load_ivectors(path):
    """(labels, (N, D) array) of a save_ivectors file."""
    labels, rows = [], []
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            try:
                row = [float(v) for v in parts[1:]]
            except ValueError as exc:
                raise ValueError(f"{path}:{ln}: {exc}") from None
            if rows and len(row) != len(rows[0]):
                raise ValueError(f"{path}:{ln}: {len(row)} values, earlier "
                                 f"rows have {len(rows[0])}")
            labels.append(parts[0])
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no vectors found")
    return labels, np.array(rows)

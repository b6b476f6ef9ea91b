"""Independent brute-force oracles used by the tests.

Everything here is written the slow, obvious way (explicit summation, no FFT,
no library transforms) so that the package implementations are checked
against genuinely independent arithmetic.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.signal

from spoofbench.dsp import (frame_length_samples, frame_shift_samples, n_frames_for,
                            window_function)
from spoofbench.scores import HEADER, ScoreSet


def naive_dft(frame, dft_size):
    """Direct O(N*K) DFT: X[k] = sum_n x[n] exp(-2j pi k n / K), k=0..K/2."""
    x = np.asarray(frame, dtype=np.float64)
    out = np.empty(dft_size // 2 + 1, dtype=complex)
    for k in range(dft_size // 2 + 1):
        acc = 0.0 + 0.0j
        for n, xn in enumerate(x):
            acc += xn * np.exp(-2j * np.pi * k * n / dft_size)
        out[k] = acc
    return out


def naive_dft_matrix(frames, dft_size):
    """naive_dft for every row, via an explicit exponent table (still no FFT)."""
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    n = frames.shape[1]
    k = np.arange(dft_size // 2 + 1)[:, None]
    nn = np.arange(n)[None, :]
    table = np.exp(-2j * np.pi * k * nn / dft_size)
    return frames @ table.T


def naive_dct(row, n_coeffs):
    """Orthonormal type-II DCT by direct summation.

    c[k] = s(k) * sum_n x[n] cos(pi (2n+1) k / (2M)),
    s(0) = sqrt(1/M), s(k>0) = sqrt(2/M).
    """
    x = np.asarray(row, dtype=np.float64)
    m = x.size
    out = np.empty(n_coeffs)
    for k in range(n_coeffs):
        acc = 0.0
        for n in range(m):
            acc += x[n] * math.cos(math.pi * (2 * n + 1) * k / (2 * m))
        scale = math.sqrt(1.0 / m) if k == 0 else math.sqrt(2.0 / m)
        out[k] = scale * acc
    return out


def naive_dct_matrix(rows, n_coeffs):
    return np.array([naive_dct(r, n_coeffs) for r in np.atleast_2d(rows)])


def synth_harmonic(f0, thetas, amps, n_samples, sample_rate):
    """Harmonic signal x[n] = sum_k A_k cos(2 pi k f0 n / fs + theta_k).

    thetas[0] is the phase of harmonic k=1 and must be 0 by the relative
    phase convention; amps aligns with thetas.
    """
    n = np.arange(n_samples)
    x = np.zeros(n_samples)
    for i, (theta, amp) in enumerate(zip(thetas, amps)):
        k = i + 1
        x += amp * np.cos(2.0 * np.pi * k * f0 * n / sample_rate + theta)
    return x


def roc_vertices_oracle(target_scores, nontarget_scores):
    """Step-ROC vertices (p_fa, p_miss) by a scalar walk over the distinct
    thresholds, dropping a point equal to the one before it."""
    tar = np.sort(np.asarray(target_scores, dtype=np.float64))
    non = np.sort(np.asarray(nontarget_scores, dtype=np.float64))
    if tar.size == 0 or non.size == 0:
        raise ValueError("need at least one target and one non-target trial")
    thresholds = np.unique(np.concatenate([tar, non]))
    points = [(1.0, 0.0)]
    for th in thresholds:
        p_fa = (non.size - np.searchsorted(non, th, side="left")) / non.size
        p_miss = np.searchsorted(tar, th, side="left") / tar.size
        if (p_fa, p_miss) != points[-1]:
            points.append((p_fa, p_miss))
    if points[-1] != (0.0, 1.0):
        points.append((0.0, 1.0))
    return points


def rocch_eer_oracle(target_scores, nontarget_scores):
    """ROC convex hull EER by exhaustive enumeration.

    Builds every step-ROC vertex, then takes the minimum diagonal crossing
    over all vertex pairs; the hull's crossing is exactly that minimum
    because interpolating between two achievable operating points is itself
    achievable and the hull is the lower envelope of such segments.
    """
    tar = np.asarray(target_scores, dtype=np.float64)
    non = np.asarray(nontarget_scores, dtype=np.float64)
    thresholds = np.concatenate([tar, non, [np.inf]])
    verts = set()
    for thr in thresholds:
        p_miss = float(np.mean(tar < thr)) if tar.size else 0.0
        p_fa = float(np.mean(non >= thr)) if non.size else 0.0
        verts.add((p_fa, p_miss))
    verts.add((0.0, 1.0))
    verts.add((1.0, 0.0))
    verts = sorted(verts)

    best = 1.0
    for (x1, y1) in verts:
        if abs(x1 - y1) < 1e-15:
            best = min(best, x1)
    for i, (x1, y1) in enumerate(verts):
        for (x2, y2) in verts[i + 1:]:
            # crossing of segment with the diagonal y = x, if any
            dx, dy = x2 - x1, y2 - y1
            denom = dx - dy
            if abs(denom) < 1e-15:
                continue
            t = (y1 - x1) / denom
            if 0.0 <= t <= 1.0:
                best = min(best, x1 + t * dx)
    return best


def cqt_direct_oracle(signal, kernel, frame_ms=20.0, shift_ms=10.0):
    """Constant-Q power by direct summation: for every bin and frame, gather
    the kernel-length window centred on the frame's midpoint from the
    zero-padded signal and take its complex dot product with the
    conjugated kernel."""
    x = signal.samples
    n = frame_length_samples(frame_ms, signal.sample_rate)
    shift = frame_shift_samples(shift_ms, signal.sample_rate)
    n_frames = n_frames_for(len(x), frame_ms, shift_ms, signal.sample_rate)
    centers = shift * np.arange(n_frames) + n // 2
    pad = int(kernel.lengths.max() // 2) + 1
    padded = np.pad(x, (pad, pad))
    power = np.empty((n_frames, kernel.n_bins))
    for b in range(kernel.n_bins):
        k = np.conj(kernel.kernel(b))
        length = int(kernel.lengths[b])
        starts = centers + pad - length // 2
        idx = starts[:, None] + np.arange(length)[None, :]
        power[:, b] = np.abs(padded[idx] @ k) ** 2
    return power


def gammatone_cascade_oracle(bank, samples):
    """Every gammatone channel as four cascaded lfilter sections sharing
    the channel's feedback polynomial."""
    x = np.asarray(samples, dtype=np.float64)
    out = np.empty((bank.n_filters, x.size))
    for i in range(bank.n_filters):
        y = x
        for s in range(4):
            y = scipy.signal.lfilter(bank.forward[i, s], bank.feedback[i], y)
        out[i] = y
    return out


def mhec_energies_whole_matrix(channels, sample_rate, frame_ms=20.0,
                               shift_ms=10.0, window="hamming",
                               cutoff_hz=20.0):
    """MHEC band energies over the whole (M, N) channel matrix at once:
    squared Hilbert envelope along axis 1, 20 Hz zero-phase smoothing along
    axis 1, then an (M, T, n) gather of every frame times the normalized
    window."""
    env = np.abs(scipy.signal.hilbert(channels, axis=1)) ** 2
    b, a = scipy.signal.butter(2, cutoff_hz / (sample_rate / 2.0))
    smooth = scipy.signal.filtfilt(b, a, env, axis=1)
    n = frame_length_samples(frame_ms, sample_rate)
    shift = frame_shift_samples(shift_ms, sample_rate)
    n_frames = n_frames_for(channels.shape[1], frame_ms, shift_ms, sample_rate)
    idx = shift * np.arange(n_frames)[:, None] + np.arange(n)[None, :]
    w = window_function(window, n)
    return smooth[:, idx] @ (w / w.sum())


def ivector_from_stats_oracle(n, f, ubm, tv):
    """i-vector of one utterance with every model term rebuilt per call:
    the per-component Gram blocks T_c^T Sigma_c^-1 T_c, then the posterior
    precision L = I + sum_c N_c G_c and the mean L^-1 T^T Sigma^-1 F~."""
    n = np.asarray(n, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    c, d = ubm.means.shape
    ftilde = (f - n[:, None] * tv.mean.reshape(c, d)).ravel()
    inv_var = (1.0 / ubm.variances).ravel()
    blocks = tv.matrix.reshape(c, d, tv.matrix.shape[1])
    gram = np.einsum("cdr,cd,cds->crs", blocks, ubm.variances ** -1.0, blocks)
    lmat = np.eye(tv.matrix.shape[1]) + np.tensordot(n, gram, axes=1)
    b = tv.matrix.T @ (ftilde * inv_var)
    return np.linalg.inv(lmat) @ b


def plda_llr_oracle(model, w1, w2):
    """Two-covariance PLDA pair LLR with both 2R x 2R covariances and their
    log-determinants rebuilt per call."""
    r = model.rank
    between = model.factors @ model.factors.T
    total = between + model.sigma
    same = np.block([[total, between], [between, total]])
    diff = np.block([[total, np.zeros((r, r))], [np.zeros((r, r)), total]])
    u = np.concatenate([np.asarray(w1) - model.mu, np.asarray(w2) - model.mu])

    def _logpdf(cov):
        _, logdet = np.linalg.slogdet(cov)
        return -0.5 * (logdet + u @ np.linalg.solve(cov, u))

    return float(_logpdf(same) - _logpdf(diff))


def component_log_likelihoods_oracle(model, frames):
    """log(w_c N(x; m_c, diag v_c)), (T, C), with 1/v, m/v and the
    per-component constant rebuilt per call."""
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    inv = 1.0 / model.variances
    const = (np.log(model.weights)
             - 0.5 * (model.dim * np.log(2.0 * np.pi)
                      + np.log(model.variances).sum(axis=1)
                      + (model.means ** 2 * inv).sum(axis=1)))
    quad = (frames ** 2) @ inv.T
    cross = frames @ (model.means * inv).T
    return const[None, :] + cross - 0.5 * quad


def write_scores_rowwise(path, scores):
    """A score TSV written one row at a time, each score formatted as
    float(scores.scores[i])!r."""
    with open(path, "w") as fh:
        fh.write("\t".join(HEADER) + "\n")
        for i in range(len(scores)):
            fh.write(f"{scores.utt_ids[i]}\t{float(scores.scores[i])!r}\t"
                     f"{scores.labels[i]}\t{scores.attack_ids[i]}\t"
                     f"{scores.conditions[i]}\n")


def read_scores_rowwise(path):
    """A score TSV read one row at a time: split each non-blank line on
    tabs, require 5 fields and parse the score with float()."""
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


def aligned_by_trial_key(score_sets):
    """Whether every set has the first one's trial list, compared as one
    tuple of (utt_id, label, attack_id, condition) rows per set."""
    def key(s):
        return tuple(zip(s.utt_ids, s.labels, s.attack_ids, s.conditions))

    first = key(score_sets[0])
    return all(key(other) == first for other in score_sets[1:])


def lower_hull_loop(points):
    """Lower-left convex frontier over (p_fa, p_miss) by a monotone chain
    over every point, sorted with p_fa ascending."""
    pts = sorted(points)
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull

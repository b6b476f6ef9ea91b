"""Independent brute-force oracles used by the tests.

Everything here is written the slow, obvious way (explicit summation, no FFT,
no library transforms) so that the package implementations are checked
against genuinely independent arithmetic.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.signal
import scipy.special

from spoofbench import ivector
from spoofbench.dsp import (analytic_envelope, frame_length_samples, frame_shift_samples,
                            frame_signal, n_frames_for, window_function)
from spoofbench.errors import AlignmentError, DegenerateVectorError
from spoofbench.features import F0Track, FeatureConfig
from spoofbench.scores import HEADER, ScoreSet, read_scores


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


def analytic_envelope_oracle(samples):
    """Squared magnitude of scipy's analytic signal (Marple's FFT method at
    the signal's own length), along the last axis."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size == 0:
        return np.zeros(x.shape)
    return np.abs(scipy.signal.hilbert(x)) ** 2


def mhec_energies_whole_matrix(channels, sample_rate, frame_ms=20.0,
                               shift_ms=10.0, window="hamming",
                               cutoff_hz=20.0):
    """MHEC band energies over the whole (M, N) channel matrix at once:
    squared Hilbert envelope of the whole matrix in one call, 20 Hz
    zero-phase smoothing along axis 1, then an (M, T, n) gather of every
    frame times the normalized window."""
    env = analytic_envelope(channels)
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


def train_tv_oracle(n, f, ubm, rank, n_iterations=10, seed=0):
    """EM for the total-variability matrix one utterance at a time: each
    utterance's precision is inverted for its posterior mean and covariance,
    N_c (cov + w w^T) is added into every component's accumulator, and the
    M-step solves one component at a time.  Returns (T, history) as
    ivector.train_tv does."""
    c, d = ubm.means.shape
    n_all = np.asarray(n, dtype=np.float64)
    ft_all = (np.asarray(f, dtype=np.float64)
              - n_all[:, :, None] * ubm.means).reshape(len(n_all), c * d)
    inv_var = (1.0 / ubm.variances).ravel()
    rng = np.random.default_rng(seed)
    scale = np.sqrt(ubm.variances.mean())
    tv_mat = 0.1 * scale * rng.standard_normal((c * d, rank))
    history = []
    for _ in range(n_iterations):
        blocks = tv_mat.reshape(c, d, rank)
        gram = np.einsum("cdr,cd,cds->crs", blocks, ubm.variances ** -1.0,
                         blocks)
        a_acc = np.zeros((c, rank, rank))
        b_acc = np.zeros((c * d, rank))
        objective = 0.0
        for i in range(n_all.shape[0]):
            lmat = np.eye(rank) + np.tensordot(n_all[i], gram, axes=1)
            b = tv_mat.T @ (ft_all[i] * inv_var)
            cov = np.linalg.inv(lmat)
            mean_w = cov @ b
            second = cov + np.outer(mean_w, mean_w)
            a_acc += n_all[i][:, None, None] * second[None, :, :]
            b_acc += np.outer(ft_all[i], mean_w)
            _, logdet = np.linalg.slogdet(lmat)
            objective += -0.5 * logdet + 0.5 * float(b @ mean_w)
        history.append(objective)
        b_blocks = b_acc.reshape(c, d, rank)
        for comp in range(c):
            tv_mat.reshape(c, d, rank)[comp] = np.linalg.solve(
                a_acc[comp], b_blocks[comp].T).T
    return tv_mat, history


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


def baum_welch_stats_oracle(frames, ubm):
    """Zeroth and first order statistics of one utterance alone, from its
    own (T, C) component log-likelihoods."""
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    comp_ll = component_log_likelihoods_oracle(ubm, frames)
    comp_ll -= comp_ll.max(axis=1, keepdims=True)
    resp = np.exp(comp_ll)
    resp /= resp.sum(axis=1, keepdims=True)
    return resp.sum(axis=0), resp.T @ frames


def avg_log_likelihood_oracle(model, frames):
    """Average frame log-likelihood of one utterance scored alone, through
    scipy's log-sum-exp (and so plain np.exp)."""
    frame_ll = scipy.special.logsumexp(
        component_log_likelihoods_oracle(model, frames), axis=1)
    if frame_ll.size == 0:
        raise ValueError("no frames to score")
    return float(np.mean(frame_ll))


def llr_score_oracle(frames, natural_model, synthetic_model):
    """GMM detection score of one utterance scored alone: average per-frame
    log-likelihood ratio, natural over synthetic."""
    return (avg_log_likelihood_oracle(natural_model, frames)
            - avg_log_likelihood_oracle(synthetic_model, frames))


def embed_ivector_oracle(stack, frames):
    """Length-normalised, WCCN-projected i-vector of one utterance alone,
    its posterior mean taken by inverting the precision."""
    n, f = baum_welch_stats_oracle(frames, stack.ubm)
    w = ivector_from_stats_oracle(n, f, stack.ubm, stack.tv)
    return ivector.length_normalize(ivector.apply_wccn(stack.wccn,
                                                       w[None, :]))[0]


def cosine_score_oracle(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < 1e-12 or nb < 1e-12:
        raise DegenerateVectorError("cosine of a zero vector is undefined")
    return float(a @ b / (na * nb))


def detection_score_oracle(w, mean_natural, mean_synthetic):
    """Cosine to the natural-class mean minus cosine to the synthetic one,
    for one vector."""
    return (cosine_score_oracle(w, mean_natural)
            - cosine_score_oracle(w, mean_synthetic))


def plda_detection_score_oracle(model, w, mean_natural, mean_synthetic):
    """PLDA detection score of one vector: pair LLR against the natural
    mean minus the synthetic one, each LLR with two 2R x 2R solves."""
    return (plda_llr_oracle(model, mean_natural, w)
            - plda_llr_oracle(model, mean_synthetic, w))


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


def read_aligned_oracle(paths):
    """read_aligned the plain way: read_scores of each file in turn, and an
    AlignmentError naming the first file whose trial list, compared as
    trial-key rows, differs from the first file's; every set holds the
    first's columns."""
    first = read_scores(paths[0])
    sets = [first]
    for path in paths[1:]:
        other = read_scores(path)
        if not aligned_by_trial_key([first, other]):
            raise AlignmentError(f"{path}: covers a different trial list "
                                 f"than {paths[0]}")
        sets.append(first.with_scores(other.scores))
    return sets


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


def pitch_decisions_loop(corr, rate, lag_min, lag_max, threshold):
    """(f0, voiced) of each autocorrelation row, one row at a time: peak
    lag, submultiple checks, parabolic refinement."""
    f0 = np.zeros(corr.shape[0])
    voiced = np.zeros(corr.shape[0], dtype=bool)
    for t in range(corr.shape[0]):
        r = corr[t]
        if r[0] <= 0:
            continue
        seg = r[lag_min:lag_max + 1] / r[0]
        best = lag_min + int(np.argmax(seg))
        strength = r[best] / r[0]
        if strength < threshold:
            continue
        # prefer the shortest submultiple lag that is nearly as strong
        lag = best
        for div in (2, 3, 4):
            cand = best / div
            if cand < lag_min:
                break
            lo = max(lag_min, int(round(cand)) - 2)
            hi = min(lag_max, int(round(cand)) + 2)
            local = lo + int(np.argmax(r[lo:hi + 1]))
            if r[local] / r[0] >= 0.9 * strength:
                lag = min(lag, local)
        y0, y1, y2 = r[lag - 1] / r[0], r[lag] / r[0], r[lag + 1] / r[0]
        denom = y0 - 2.0 * y1 + y2
        delta = 0.0 if denom == 0 else np.clip(0.5 * (y0 - y2) / denom, -1.0, 1.0)
        voiced[t] = True
        f0[t] = rate / (lag + delta)
    return f0, voiced


def estimate_f0_loop(signal, config=None):
    """features.estimate_f0 with its pitch decisions made frame by frame."""
    config = config or FeatureConfig("rps")
    rate = signal.sample_rate
    cutoff = min(1500.0, 0.45 * rate)
    b, a = scipy.signal.butter(4, cutoff / (rate / 2.0))
    lowpassed = scipy.signal.lfilter(b, a, signal.samples)
    fm = frame_signal(lowpassed, rate, config.f0_frame_ms, config.shift_ms,
                      window="rect")
    lag_min = max(2, int(np.floor(rate / config.f0_max)))
    lag_max = int(np.ceil(rate / config.f0_min))
    n = fm.frame_length
    if lag_max >= n:
        raise ValueError("pitch window too short for f0_min")
    size = int(2 ** np.ceil(np.log2(2 * n)))
    spec = np.fft.rfft(fm.frames, n=size, axis=1)
    corr = np.fft.irfft(np.abs(spec) ** 2, n=size, axis=1)[:, :lag_max + 2]
    f0, voiced = pitch_decisions_loop(corr, rate, lag_min, lag_max,
                                      config.f0_voicing_threshold)
    return F0Track(f0, voiced, config.f0_frame_ms, config.shift_ms)


def relative_phase_row(spectrum_row, f0, sample_rate, dft_size):
    """Relative phase shift theta_k of each harmonic of f0 below Nyquist
    (theta_1 = 0), from one frame's rfft spectrum, wrapped to (-pi, pi]."""
    if f0 <= 0:
        raise ValueError("f0 must be positive")
    nyquist = sample_rate / 2.0
    k_max = int(np.floor((nyquist - 1e-9) / f0))
    if k_max < 1:
        return np.zeros(0)
    ks = np.arange(1, k_max + 1)
    pos = ks * f0 * dft_size / sample_rate
    i0 = np.floor(pos).astype(int)
    frac = pos - i0
    a0 = np.angle(spectrum_row[i0])
    a1 = np.angle(spectrum_row[i0 + 1])
    a1 = a1 + 2.0 * np.pi * np.round((a0 - a1) / (2.0 * np.pi))
    phi = (1.0 - frac) * a0 + frac * a1
    theta = phi - ks * phi[0]
    return (theta + np.pi) % (2.0 * np.pi) - np.pi


def rps_band_row(theta, f0, bank):
    """One frame's RPS band values: np.unwrap, np.diff and np.interp of
    theta onto the DFT bin grid, integrated with the bank."""
    n_bins = bank.weights.shape[1]
    bin_freqs = np.arange(n_bins) * bank.sample_rate / bank.dft_size
    if theta.size >= 2:
        un = np.unwrap(theta)
        deriv = np.diff(un)
        mid = (np.arange(1, theta.size) + 0.5) * f0
        values = np.interp(bin_freqs, mid, deriv)
    else:
        values = np.zeros(n_bins)
    return bank.weights @ values

"""Release acceptance gate: one test per acceptance criterion.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion.  Criteria 1-9 check the numerical core against independent
brute-force oracles; criterion 10 reproduces the headline behavioral
trends end to end on the built-in toy corpus (it writes the measured EERs
to acceptance_report.txt at the repository root and prints its runtime);
criterion 11 checks byte-level determinism of the full experiment harness.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spoofbench import dsp, features, filterbanks, noiselab
from spoofbench import fusion as fu
from spoofbench import ivector as iv
from spoofbench.audio import AudioSignal
from spoofbench.config import ExperimentConfig, GridCell
from spoofbench.evaluation import rocch_eer
from spoofbench.gmm import train_gmm
from spoofbench.harness import run_experiment
from spoofbench.toycorpus import _speaker_profile, make_toy_corpus, synth_vowel

from reference import (naive_dct_matrix, naive_dft_matrix, rocch_eer_oracle,
                       synth_harmonic)
from test_features import (_voiced_test_signal, mfcc_oracle,
                           recover_relative_phases)
from test_fusion import _two_system_dev
from test_ivector import _sample_utterance, _toy_ubm
from test_scores import make_scores

RATE = 16000
REPORT_PATH = Path(__file__).resolve().parent.parent / "acceptance_report.txt"


def test_criterion_01_dsp_matches_direct_summation_oracles():
    """Power/phase spectra and the DCT agree with O(N^2) direct sums."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    frames = rng.standard_normal((100, 320))
    fm = dsp.FrameMatrix(frames)
    spec = naive_dft_matrix(frames, 512)

    power = dsp.power_spectrum(fm, 512)
    ref_power = np.abs(spec) ** 2
    assert np.max(np.abs(power - ref_power)) <= 1e-9 * np.max(ref_power)

    phase = dsp.phase_spectrum(fm, 512)
    ref_phase = np.angle(spec)
    # the angle is ill-conditioned where a bin is nearly empty; compare
    # where the magnitude carries real signal
    mask = np.abs(spec) > 1e-3 * np.max(np.abs(spec))
    wrapped = (phase - ref_phase + np.pi) % (2 * np.pi) - np.pi
    assert np.max(np.abs(wrapped[mask])) <= 1e-9

    rows = rng.uniform(-4.0, 4.0, (100, 32))
    got = dsp.dct_features(rows, 32)
    ref = naive_dct_matrix(rows, 32)
    assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_mfcc_oracle_and_imfcc_flip_consistency():
    """MFCC matches a straight-line reimplementation; IMFCC is the same
    machinery with the frequency axis flipped."""
    for i in range(10):
        sig = _voiced_test_signal(0.3, 140.0 + 17.0 * i, i)
        got = features.extract(sig, features.FeatureConfig("mfcc"))
        ref = mfcc_oracle(sig)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) < 1e-8

    # the inverted bank is the mel bank mirrored bit for bit, so carrying
    # the flip in the weights reproduces IMFCC exactly; flipping the
    # spectrum operand instead reverses each dot product's summation order
    # and costs a few ulp
    mel = filterbanks.mel_filterbank(32, 512, RATE)
    inv = filterbanks.inverted_mel_filterbank(32, 512, RATE)
    assert np.array_equal(inv.weights, mel.weights[::-1, ::-1])

    cfg = features.FeatureConfig("imfcc", add_delta=False,
                                 add_deltadelta=False, apply_cms=False)
    flipped_bank = mel.weights[::-1, ::-1].copy()
    for i in (0, 1):
        sig = _voiced_test_signal(0.4, 200.0 + 30.0 * i, 20 + i)
        got = features.extract(sig, cfg)
        fm = dsp.frame_signal(sig.samples, RATE)
        power = dsp.power_spectrum(fm, 512)
        keep = dsp.energy_vad(fm)
        exact = dsp.dct_features(dsp.safe_log(power @ flipped_bank.T), 32)
        assert np.array_equal(got, exact[keep])
        via_spectrum = mel.apply(power[:, ::-1])[:, ::-1]
        near = dsp.dct_features(dsp.safe_log(via_spectrum), 32)
        assert np.max(np.abs(got - near[keep])) < 1e-12


def test_criterion_03_relative_phase_round_trip():
    """Planted harmonic phases are recovered by the RPS analysis chain."""
    rng = np.random.default_rng(303)
    f0s = (165.0, 180.0, 200.0, 220.0, 245.0)
    for trial in range(20):
        f0 = f0s[trial % len(f0s)]
        n_harm = int((RATE / 2 * 0.95) // f0)
        thetas = np.concatenate([[0.0],
                                 rng.uniform(-np.pi, np.pi, n_harm - 1)])
        amps = 1.0 / np.sqrt(np.arange(1, n_harm + 1))
        x = synth_harmonic(f0, thetas, amps, 12000, RATE)
        sig = AudioSignal(0.2 * x / np.max(np.abs(x)), RATE)
        k_cmp = int(4000.0 // f0)   # harmonics below 4 kHz
        got = recover_relative_phases(sig, k_cmp)
        diff = (got - thetas[:k_cmp] + np.pi) % (2 * np.pi) - np.pi
        assert np.max(np.abs(diff)) < 0.1


def test_criterion_04_mgd_matches_one_pole_group_delay():
    """With (alpha, gamma) = (1, 1) and the raw magnitude as the smoothing
    term, the modified group delay reduces to the true group delay."""
    a = 0.6
    frame = a ** np.arange(320)
    fm = dsp.FrameMatrix(frame[None, :])
    tau = features.mgd_spectrum(fm, 512, alpha=1.0, gamma=1.0,
                                cep_lifter=None)[0]
    w = 2 * np.pi * np.arange(257) / 512
    analytic = (a * np.cos(w) - a * a) / (1.0 - 2 * a * np.cos(w) + a * a)
    band = slice(10, 247)   # away from the DC resonance
    scale = np.max(np.abs(analytic[band]))
    assert np.max(np.abs(tau[band] - analytic[band])) < 0.05 * scale


def test_criterion_05_gmm_em_monotone_and_recovers_mixture():
    """EM never decreases the log-likelihood, keeps weights normalized,
    and recovers the parameters of a separated two-component mixture."""
    rng = np.random.default_rng(505)
    for trial in range(20):
        d = int(rng.integers(2, 6))
        c = int(rng.integers(1, 5))
        frames = np.concatenate([
            rng.standard_normal((80, d)) + rng.uniform(-4, 4, d)
            for _ in range(3)])
        model, history = train_gmm(frames, c, n_iterations=8, seed=trial)
        diffs = np.diff(history)
        assert np.all(diffs >= -1e-6 * np.abs(np.array(history[:-1])))
        assert abs(model.weights.sum() - 1.0) <= 1e-9

    rng = np.random.default_rng(506)
    true_means = np.array([[-3.0, 0.0], [3.0, 1.0]])
    pick = rng.random(2000) < 0.35
    data = np.where(pick[:, None], true_means[0], true_means[1]) \
        + 0.5 * rng.standard_normal((2000, 2))
    model, _ = train_gmm(data, 2, n_iterations=25, seed=7)
    order = np.argsort(model.means[:, 0])
    assert np.max(np.abs(model.means[order] - true_means)) < 0.1
    assert abs(model.weights[order][0] - 0.35) < 0.05
    assert abs(model.weights[order][1] - 0.65) < 0.05


def _measured_snr_db(speech: AudioSignal, mix) -> float:
    """Re-measure the SNR realized in a mix, from scratch.

    The clean component is recovered exactly (the mix is
    scale * (speech + gain * noise)); its power is averaged over active
    frames found by a plain 30 dB energy gate -- independent of the
    level tracker the mixer uses -- and the noise power over the whole
    record, mirroring how the target ratio is defined.
    """
    clean = mix.scale * speech.samples
    noise_part = mix.signal.samples - clean
    frame, hop = 320, 160
    n_frames = (len(clean) - frame) // hop + 1
    energies = np.array([np.sum(clean[t * hop:t * hop + frame] ** 2)
                         for t in range(n_frames)])
    keep = energies > energies.max() * 10.0 ** (-30.0 / 10.0)
    active_power = np.sum(energies[keep]) / (np.count_nonzero(keep) * frame)
    noise_power = np.mean(noise_part ** 2)
    return 10.0 * np.log10(active_power / noise_power)


def test_criterion_06_mixing_hits_target_snr_and_is_deterministic():
    """Post-mix SNR lands within 0.5 dB of 0/10/20 dB targets on twenty
    vowel fixtures, and mixing is reproducible under a fixed seed."""
    rng = np.random.default_rng(606)
    records = {kind: noiselab.make_noise(kind, RATE * 30, RATE, seed=9)
               for kind in noiselab.NOISE_KINDS}
    kinds = list(noiselab.NOISE_KINDS)
    for i in range(20):
        speech = AudioSignal(synth_vowel(rng, _speaker_profile(rng)), RATE)
        noise = records[kinds[i % len(kinds)]]
        for target in (0.0, 10.0, 20.0):
            mix = noiselab.mix_at_snr(speech, noise, target, seed=1000 + i)
            assert abs(_measured_snr_db(speech, mix) - target) <= 0.5

    again = [noiselab.mix_at_snr(speech, noise, 10.0, seed=42)
             for _ in range(2)]
    assert np.array_equal(again[0].signal.samples, again[1].signal.samples)
    other = noiselab.mix_at_snr(speech, noise, 10.0, seed=43)
    assert not np.array_equal(other.signal.samples, again[0].signal.samples)


def test_criterion_07_rocch_eer_matches_enumeration():
    """ROCCH EER equals exhaustive hull enumeration on small score sets,
    including the classic quarter fixture and both degenerate extremes."""
    # hull crosses the diagonal exactly at 25% here
    assert rocch_eer([2.0, 0.0], [1.0, -1.0]) == pytest.approx(0.25,
                                                               abs=1e-12)
    assert rocch_eer([1.0, 2.0, 3.0], [-1.0, -2.0]) == 0.0
    assert rocch_eer([0.5, 0.5], [0.5, 0.5, 0.5]) == pytest.approx(0.5,
                                                                   abs=1e-12)
    rng = np.random.default_rng(707)
    for _ in range(12):
        n_t = int(rng.integers(2, 8))
        n_n = int(rng.integers(2, 8))
        # rounding forces ties within and across the two classes
        tar = np.round(rng.normal(0.5, 1.0, n_t), 2)
        non = np.round(rng.normal(-0.5, 1.0, n_n), 2)
        got = rocch_eer(tar, non)
        assert got == pytest.approx(rocch_eer_oracle(tar, non), abs=1e-12)


def test_criterion_08_ivector_stack_properties():
    """Statistics preserve frame mass, the trained subspace captures the
    planted shifts, WCCN whitens within-class scatter, and cosine scoring
    is bounded and symmetric."""
    rng = np.random.default_rng(808)
    ubm = _toy_ubm(rng)
    frames = _sample_utterance(rng, ubm, np.zeros_like(ubm.means), 400)
    n, _ = iv.baum_welch_stats(frames, ubm)
    assert abs(n.sum() - len(frames)) <= 1e-9

    # utterances displaced along a planted low-rank subspace: the trained
    # subspace captures >= 95% of the planted offsets' energy
    rng = np.random.default_rng(5)
    ubm = _toy_ubm(rng, spread=6.0)
    size = ubm.n_components * ubm.dim
    tv_true = 0.5 * rng.standard_normal((size, 2))
    latents = rng.standard_normal((80, 2))
    stats = []
    for w in latents:
        offsets = (tv_true @ w).reshape(ubm.n_components, ubm.dim)
        stats.append(iv.baum_welch_stats(
            _sample_utterance(rng, ubm, offsets, 200), ubm))
    tv_est, _ = iv.train_tv(stats, ubm, rank=2, n_iterations=15, seed=6)
    q, _ = np.linalg.qr(tv_est.matrix)
    ratios = [np.sum((q.T @ (tv_true @ w)) ** 2) / np.sum((tv_true @ w) ** 2)
              for w in latents]
    assert np.mean(ratios) >= 0.95

    rng = np.random.default_rng(12)
    rank = 6
    chol = rng.standard_normal((rank, rank)) * 0.5 + np.eye(rank)
    vectors, labels = [], []
    for lab, center in (("a", 3.0), ("b", -1.0), ("c", 0.5)):
        vectors.append(rng.standard_normal((200, rank)) @ chol.T + center)
        labels += [lab] * 200
    vectors = np.concatenate(vectors)
    b = iv.train_wccn(vectors, labels)
    transformed = iv.apply_wccn(b, vectors)
    labels = np.asarray(labels)
    scatter = np.zeros((rank, rank))
    for lab in ("a", "b", "c"):
        g = transformed[labels == lab]
        diff = g - g.mean(axis=0)
        scatter += diff.T @ diff
    scatter /= len(vectors)
    assert np.abs(scatter - np.eye(rank)).max() < 1e-6

    rng = np.random.default_rng(809)
    for _ in range(50):
        a, c = rng.standard_normal(12), rng.standard_normal(12)
        s = iv.cosine_scores(a, c)[0]
        assert s == iv.cosine_scores(c, a)[0]
        assert -1.0 <= s <= 1.0


def test_criterion_09_fusion_identities_and_logistic_convergence():
    """Score averaging obeys its algebraic identities exactly; logistic
    fusion separates a separable dev set and lands on a stationary point."""
    rng = np.random.default_rng(909)
    labels = ["human"] * 30 + ["spoof"] * 30

    # dyadic-rational scores keep every sum and quotient exactly
    # representable, so these identities must hold to the bit
    vals = rng.integers(-40, 40, size=60) / 8.0
    s0 = make_scores(vals, labels)
    assert np.array_equal(fu.fuse_average([s0]).scores, s0.scores)
    triple = fu.fuse_average([s0, s0.with_scores(vals.copy()),
                              s0.with_scores(vals.copy())])
    assert np.array_equal(triple.scores, s0.scores)
    sets = [make_scores(rng.integers(-40, 40, size=60) / 8.0, labels)
            for _ in range(3)]
    perm = [sets[1], sets[2], sets[0]]
    assert np.array_equal(fu.fuse_average(sets).scores,
                          fu.fuse_average(perm).scores)
    # two-system order swap is exact for arbitrary floats (commutativity)
    a = make_scores(rng.standard_normal(60), labels)
    c = make_scores(rng.standard_normal(60), labels)
    assert np.array_equal(fu.fuse_average([a, c]).scores,
                          fu.fuse_average([c, a]).scores)

    def max_abs_gradient(model, score_sets):
        raw = np.stack([s.scores for s in score_sets], axis=1)
        mean, std = raw.mean(axis=0), raw.std(axis=0)
        x = (raw - mean) / std
        y = (np.asarray(score_sets[0].labels) == "human").astype(float)
        w_std = model.weights * std
        b_std = model.bias + float(np.sum(w_std * mean / std))
        p = 1.0 / (1.0 + np.exp(-(x @ w_std + b_std)))
        grad_w = x.T @ (p - y) / len(y) + fu.L2_PENALTY * w_std
        return np.max(np.abs(np.concatenate([grad_w, [np.mean(p - y)]])))

    separable = _two_system_dev(np.random.default_rng(1), sep=3.0, noise=0.3)
    model = fu.train_logistic_fusion(separable)
    fused = fu.apply_fusion(model, separable)
    assert rocch_eer(fused.target_scores, fused.nontarget_scores) == 0.0
    assert max_abs_gradient(model, separable) < 1e-6

    overlapping = _two_system_dev(np.random.default_rng(2), sep=1.0,
                                  noise=1.0)
    assert max_abs_gradient(fu.train_logistic_fusion(overlapping),
                            overlapping) < 1e-6


@pytest.fixture(scope="module")
def toy_corpus(tmp_path_factory):
    # score averaging needs no dev data, so the dev subset is skipped and
    # the saved time goes into a larger eval set for finer EER resolution
    root = tmp_path_factory.mktemp("toy-corpus")
    manifest = make_toy_corpus(root, seed=3, n_train=200, n_dev=0,
                               n_eval=200)
    return root, manifest


@pytest.mark.slow
def test_criterion_10_end_to_end_trends(toy_corpus, tmp_path):
    """The full pipeline reproduces the headline behavioral trends on the
    toy corpus: clean detection works for every front-end, 0 dB white
    noise breaks all of them, the GMM back-end at least matches cosine
    i-vectors nearly everywhere, score averaging never hurts, and the
    enhancement deltas are measured and reported."""
    t0 = time.perf_counter()
    root, manifest = toy_corpus
    kinds = features.FEATURE_KINDS
    config = ExperimentConfig(
        name="trend-check",
        seed=0,
        features=kinds,
        backends=("gmm", "ivector-cosine"),
        grid=(GridCell(), GridCell("white", 0.0)),
        fusion=("average",),
    )
    work = tmp_path / "work"
    result = run_experiment(config, manifest, work, wav_root=root)

    clean_gmm = {k: result.eer("clean", "gmm", k, "eval") for k in kinds}
    noisy_gmm = {k: result.eer("white_0dB", "gmm", k, "eval")
                 for k in kinds}
    clean_cos = {k: result.eer("clean", "ivector-cosine", k, "eval")
                 for k in kinds}
    fused_clean = result.eer("clean", "gmm", "fusion-average", "eval")

    # (a) every clean feature+GMM system detects the vocoded spoofs
    assert max(clean_gmm.values()) < 10.0
    # the vocoder writes zero phase, so phase features see it directly
    assert clean_gmm["cosphase"] < 5.0
    # (b) 0 dB white noise breaks every system
    rises = {k: noisy_gmm[k] - clean_gmm[k] for k in kinds}
    assert min(rises.values()) >= 10.0
    # (c) the GMM back-end holds up against cosine i-vectors
    wins = sum(clean_gmm[k] <= clean_cos[k] for k in kinds)
    assert wins >= 7
    # (d) averaging all eight systems never hurts on clean data
    assert fused_clean <= min(clean_gmm.values())

    # (e) spectral-subtraction preprocessing of the test audio: report the
    # clean-condition change next to the 0 dB gain, no hard threshold --
    # whether enhancement helps is corpus-dependent
    enh_config = replace(config, enhancement="specsub-mag",
                         backends=("gmm",))
    enh = run_experiment(enh_config, manifest, work, wav_root=root)
    enh_clean = {k: enh.eer("clean+specsub-mag", "gmm", k, "eval")
                 for k in kinds}
    enh_noisy = {k: enh.eer("white_0dB+specsub-mag", "gmm", k, "eval")
                 for k in kinds}

    lines = [
        "end-to-end trend check on the built-in toy corpus "
        "(200 train / 200 eval, corpus seed 3)",
        "",
        "EER %, GMM back-end, eval subset; enhancement = specsub-mag on "
        "test audio only",
        "",
        f"{'feature':9} {'clean':>7} {'white0':>7} {'rise':>7} "
        f"{'clean+e':>8} {'d_clean':>8} {'white0+e':>9} {'gain_0db':>9}",
    ]
    for k in kinds:
        lines.append(
            f"{k:9} {clean_gmm[k]:7.2f} {noisy_gmm[k]:7.2f} "
            f"{rises[k]:7.2f} {enh_clean[k]:8.2f} "
            f"{enh_clean[k] - clean_gmm[k]:+8.2f} {enh_noisy[k]:9.2f} "
            f"{noisy_gmm[k] - enh_noisy[k]:+9.2f}")
    lines += [
        "",
        f"clean i-vector-cosine EERs: "
        + ", ".join(f"{k} {clean_cos[k]:.2f}" for k in kinds),
        f"GMM <= i-vector-cosine on clean data for {wins}/8 features",
        f"fusion (average of all 8, GMM, clean eval): {fused_clean:.2f} "
        f"vs best standalone {min(clean_gmm.values()):.2f}",
    ]
    report = "\n".join(lines) + "\n"
    REPORT_PATH.write_text(report, encoding="utf-8")
    # the runtime varies from run to run, so it is printed, not written:
    # a rerun on unchanged code leaves the report file as it was
    print(report)
    print(f"total runtime: {time.perf_counter() - t0:.1f} s")

    assert all(np.isfinite(list(enh_clean.values())))
    assert all(np.isfinite(list(enh_noisy.values())))
    assert time.perf_counter() - t0 < 600.0


def test_criterion_11_harness_runs_are_byte_identical(tmp_path):
    """Two full runs with the same config and seed in fresh work
    directories write byte-identical score files."""
    corpus = tmp_path / "corpus"
    manifest = make_toy_corpus(corpus, seed=3, n_train=24, n_dev=8,
                               n_eval=8)
    config = ExperimentConfig(
        name="determinism",
        seed=5,
        features=("mfcc", "rps"),
        backends=("gmm", "ivector-cosine"),
        grid=(GridCell(), GridCell("white", 5.0)),
        fusion=("average", "logistic"),
        gmm_components=4, gmm_iterations=4,
        ubm_components=8, tv_rank=6, tv_iterations=3,
    )
    outputs = []
    for name in ("run-a", "run-b"):
        work = tmp_path / name
        run_experiment(config, manifest, work, wav_root=corpus)
        blobs = {p.relative_to(work).as_posix(): p.read_bytes()
                 for p in sorted(work.glob("scores/**/*.tsv"))}
        blobs["summary.tsv"] = (work / "summary.tsv").read_bytes()
        outputs.append(blobs)
    assert len(outputs[0]) > 1
    assert outputs[0].keys() == outputs[1].keys()
    for key in outputs[0]:
        assert outputs[0][key] == outputs[1][key], key

"""Tests for ROCCH-EER, DET points, per-attack aggregation, and LTAS."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spoofbench.audio import AudioSignal
from spoofbench.errors import NoActiveSpeechError
from spoofbench import evaluation as ev

from reference import (lower_hull_loop, roc_vertices_oracle,
                       rocch_eer_oracle)
from test_scores import make_scores

RATE = 16000


def _points(vertices):
    """The sweep's (p_fa, p_miss) arrays as a list of point tuples."""
    p_fa, p_miss = vertices
    return list(zip(p_fa.tolist(), p_miss.tolist()))


def _arrays(points):
    """A list of (p_fa, p_miss) tuples as the sweep's two arrays."""
    return tuple(np.array(coord, dtype=np.float64) for coord in zip(*points))


class TestRocchEer:
    def test_hand_enumerated_fixture(self):
        # targets {2, 0}, non-targets {1, -1}: hull runs (0,.5)->(.5,0),
        # crossing the diagonal at 0.25
        assert abs(ev.rocch_eer([2.0, 0.0], [1.0, -1.0]) - 0.25) < 1e-12

    def test_perfect_separation_is_zero(self):
        assert ev.rocch_eer([5.0, 6.0, 7.0], [1.0, 2.0]) == 0.0

    def test_constant_scores_are_chance(self):
        assert abs(ev.rocch_eer([1.0, 1.0], [1.0, 1.0, 1.0]) - 0.5) < 1e-12

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(12):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(2, 30))
            # integer-ish scores force plenty of ties
            tar = rng.integers(-3, 8, n).astype(float) + 0.5 * rng.integers(0, 2, n)
            non = rng.integers(-6, 4, m).astype(float) + 0.5 * rng.integers(0, 2, m)
            got = ev.rocch_eer(tar, non)
            want = rocch_eer_oracle(tar, non)
            assert abs(got - want) < 1e-12, f"trial {trial}"

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        tar = rng.standard_normal(40) + 1.0
        non = rng.standard_normal(50) - 1.0
        base = ev.rocch_eer(tar, non)
        for f in (lambda s: 2.0 * s + 1.0, np.exp, np.arctan):
            assert abs(ev.rocch_eer(f(tar), f(non)) - base) < 1e-12

    def test_label_swap_antisymmetry(self):
        rng = np.random.default_rng(2)
        tar = rng.standard_normal(30) + 0.5
        non = rng.standard_normal(25) - 0.5
        assert abs(ev.rocch_eer(tar, non)
                   - ev.rocch_eer(-non, -tar)) < 1e-12

    def test_hull_never_exceeds_best_vertex(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            tar = rng.standard_normal(20)
            non = rng.standard_normal(20) - 0.5
            eer = ev.rocch_eer(tar, non)
            best_vertex = np.maximum(*ev._roc_vertices(tar, non)).min()
            assert eer <= best_vertex + 1e-12

    def test_range_bounded_by_half(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            tar = rng.standard_normal(15) - 1.0   # anti-informative scores
            non = rng.standard_normal(15) + 1.0
            eer = ev.rocch_eer(tar, non)
            assert 0.0 <= eer <= 0.5 + 1e-12

    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            ev.rocch_eer([1.0, 2.0], [])

    def test_nan_score_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            ev.rocch_eer([np.nan, 1.0, 2.0], [0.0, 3.0])
        with pytest.raises(ValueError, match="NaN"):
            ev._roc_vertices([1.0, 2.0], [0.0, np.nan])


# score pools for the vertex-oracle property: few distinct values force
# ties, and the infinities sit at both ends of the threshold axis
_TIED = st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0])
_WITH_INF = st.sampled_from([-np.inf, -1.0, 0.0, 0.25, 1.0, np.inf])
_CONTINUOUS = st.floats(-1e3, 1e3, allow_nan=False)


def _score_lists(values, max_size):
    return st.tuples(st.lists(values, min_size=1, max_size=max_size),
                     st.lists(values, min_size=1, max_size=max_size))


_SCORE_PAIRS = st.one_of(
    _score_lists(_TIED, 40),
    _score_lists(_WITH_INF, 40),
    _score_lists(_CONTINUOUS, 40),
    _score_lists(_TIED, 1),                                 # one per class
    st.builds(lambda v, n, m: ([v] * n, [v] * m),           # all equal
              _WITH_INF, st.integers(1, 20), st.integers(1, 20)),
)


class TestVertexOracle:
    @settings(max_examples=300, deadline=None)
    @given(_SCORE_PAIRS)
    def test_sweep_equals_scalar_walk_exactly(self, pair):
        tar, non = pair
        want = roc_vertices_oracle(tar, non)
        assert _points(ev._roc_vertices(tar, non)) == want
        assert ev.rocch_eer(tar, non) == ev._hull_eer(_arrays(want))


# tie-heavy score lists: integer multiples of a coarse step, one class all
# tied, and a single trial in a class
_STEPPED = st.builds(lambda ks, step: [k * step for k in ks],
                     st.lists(st.integers(-12, 12), min_size=1, max_size=60),
                     st.sampled_from([0.1, 0.25, 0.5, 1.0]))
_ALL_TIED = st.builds(lambda v, n: [v] * n, st.sampled_from([-1.0, 0.0, 0.5]),
                      st.integers(1, 30))
_SINGLE = st.lists(st.sampled_from([-1.0, 0.0, 0.25, 0.5, 2.0]),
                   min_size=1, max_size=1)
_TIE_HEAVY = st.one_of(_STEPPED, _ALL_TIED, _SINGLE)


class TestCornerHull:
    """Feeding the chain only the step ROC's corners gives the EER that
    the chain over every vertex gives."""

    @settings(max_examples=500, deadline=None)
    @given(_TIE_HEAVY, _TIE_HEAVY)
    def test_equals_hull_over_every_vertex(self, tar, non):
        with mock.patch.object(ev, "_lower_hull",
                               lambda v: lower_hull_loop(_points(v))):
            want = ev.rocch_eer(tar, non)
        assert ev.rocch_eer(tar, non) == want


class TestDetPoints:
    """The step-ROC vertices (p_fa, p_miss): the points a DET curve
    plots."""

    def test_fixture_points(self):
        pts = _points(ev._roc_vertices([2.0, 0.0], [1.0, -1.0]))
        expected = [(1.0, 0.0), (0.5, 0.0), (0.5, 0.5), (0.0, 0.5), (0.0, 1.0)]
        assert pts == expected

    def test_extremes_and_ordering(self):
        rng = np.random.default_rng(5)
        tar = rng.standard_normal(12)
        non = rng.standard_normal(9)
        pts = _points(ev._roc_vertices(tar, non))
        assert pts[0] == (1.0, 0.0)
        assert pts[-1] == (0.0, 1.0)
        p_fa = [fa for fa, _ in pts]
        assert all(a >= b for a, b in zip(p_fa, p_fa[1:]))
        assert len(pts) <= 12 + 9 + 1

    def test_report_wrapper(self):
        s = make_scores([2.0, 0.0, 1.0, -1.0],
                        ["human", "human", "spoof", "spoof"])
        report = ev.compute_eer_rocch(s)
        assert abs(report.eer_percent - 25.0) < 1e-9
        assert report.n_target == 2 and report.n_nontarget == 2
        with pytest.raises(ValueError):
            ev.compute_eer_rocch(make_scores([1.0], ["human"]))


class TestLabelMask:
    """The pooled report selects both classes with one label mask and gets
    the EER the two label-array selections gave, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_TIED, st.sampled_from(["human", "spoof"])),
                    min_size=2, max_size=60).filter(
        lambda trials: len({label for _, label in trials}) == 2))
    def test_equals_label_array_selection(self, trials):
        s = make_scores([v for v, _ in trials], [lab for _, lab in trials])
        labels = np.asarray(s.labels)
        tar = s.scores[labels == "human"]
        non = s.scores[labels == "spoof"]
        report = ev.compute_eer_rocch(s)
        assert report.eer_percent == 100.0 * ev.rocch_eer(tar, non)
        assert (report.n_target, report.n_nontarget) == (tar.size, non.size)


class TestPerAttack:
    def _mixed(self):
        values = [4.0, 3.5, 3.8,            # humans
                  0.0, -1.0,                # attack A, easy
                  3.9, 3.6]                 # attack B, overlapping
        labels = ["human"] * 3 + ["spoof"] * 4
        attacks = ["-"] * 3 + ["A", "A", "B", "B"]
        return make_scores(values, labels, attacks=attacks)

    def test_one_report_per_attack(self):
        reports, macro = ev.per_attack_eers(self._mixed())
        assert set(reports) == {"A", "B"}
        assert reports["A"].eer_percent == 0.0
        assert reports["B"].eer_percent > 30.0
        assert abs(macro - (reports["A"].eer_percent
                            + reports["B"].eer_percent) / 2) < 1e-12

    def test_single_attack_equals_pooled(self):
        values = [2.0, 0.0, 1.0, -1.0]
        labels = ["human", "human", "spoof", "spoof"]
        s = make_scores(values, labels, attacks=["-", "-", "S1", "S1"])
        reports, macro = ev.per_attack_eers(s)
        pooled = ev.compute_eer_rocch(s)
        assert abs(reports["S1"].eer_percent - pooled.eer_percent) < 1e-12
        assert abs(macro - pooled.eer_percent) < 1e-12

    def test_bad_subsets_raise(self):
        humans_only = make_scores([1.0, 2.0], ["human", "human"])
        with pytest.raises(ValueError):
            ev.per_attack_eers(humans_only)


class TestSingleSweep:
    @pytest.fixture
    def sweeps(self, monkeypatch):
        calls = []
        original = ev._roc_vertices

        def counting(tar, non):
            calls.append(len(non))
            return original(tar, non)

        monkeypatch.setattr(ev, "_roc_vertices", counting)
        return calls

    def test_pooled_report_sweeps_once(self, sweeps):
        s = make_scores([2.0, 0.0, 1.0, -1.0],
                        ["human", "human", "spoof", "spoof"])
        report = ev.compute_eer_rocch(s)
        assert sweeps == [2]
        assert report.eer_percent == 100.0 * ev.rocch_eer([2.0, 0.0],
                                                          [1.0, -1.0])

    def test_per_attack_sweeps_once_per_attack(self, sweeps):
        s = make_scores([4.0, 3.5, 0.0, -1.0, 3.9, 3.6, 2.0],
                        ["human"] * 2 + ["spoof"] * 5,
                        attacks=["-", "-", "A", "A", "B", "B", "C"])
        reports, _ = ev.per_attack_eers(s)
        assert sorted(reports) == ["A", "B", "C"]
        assert sweeps == [2, 2, 1]


class TestLtas:
    def test_white_noise_is_flat(self):
        x = np.random.default_rng(6).standard_normal(1_000_000) * 0.1
        prof = ev.compute_ltas(AudioSignal(x, RATE))
        db = 10 * np.log10(prof.power)
        assert db.max() - db.min() < 2.0

    def test_tone_concentrates_in_one_bin(self):
        t = np.arange(RATE) / RATE
        freq = 1000.0
        x = 0.5 * np.sin(2 * np.pi * freq * t)
        prof = ev.compute_ltas(AudioSignal(x, RATE))
        peak_bin = int(np.argmax(prof.power))
        assert abs(peak_bin - freq * prof.dft_size / RATE) <= 1
        assert prof.power[peak_bin] > 100 * np.median(prof.power)

    def test_self_concatenation_identical(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(320 * 50) * 0.2   # whole frames exactly
        single = ev.compute_ltas(AudioSignal(x, RATE))
        double = ev.compute_ltas(AudioSignal(np.concatenate([x, x]), RATE))
        assert double.n_frames == 2 * single.n_frames
        assert np.allclose(double.power, single.power, atol=1e-9)

    def test_silence_raises(self):
        with pytest.raises(NoActiveSpeechError):
            ev.compute_ltas(AudioSignal(np.zeros(RATE), RATE))

    def test_vad_mask_respected_and_validated(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(320 * 20)
        sig = AudioSignal(x, RATE)
        mask = np.zeros(20, dtype=bool)
        mask[:5] = True
        prof = ev.compute_ltas(sig, vad=mask)
        assert prof.n_frames == 5
        with pytest.raises(ValueError):
            ev.compute_ltas(sig, vad=np.ones(7, dtype=bool))

    def test_csv_export(self, tmp_path):
        x = np.random.default_rng(10).standard_normal(RATE)
        prof = ev.compute_ltas(AudioSignal(x, RATE))
        path = tmp_path / "ltas.csv"
        ev.save_ltas_csv(path, prof, RATE)
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        assert table.shape == (257, 2)
        assert table[1, 0] == RATE / 512
        assert np.allclose(table[:, 1], prof.power, rtol=1e-6)

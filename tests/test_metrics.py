import numpy as np
import pytest
from scipy.special import expit

from svbackend import metrics
from svbackend.corpus import ScoreSet, Trial, TrialLabel, TrialList
from svbackend.errors import DegenerateLabelsError, InvalidCostError

from oracles import brute_force_eer, brute_force_min_dcf


def make_scores(tar, non):
    trials = [Trial(f"t{k}", f"x{k}", TrialLabel.SAME) for k in range(len(tar))]
    trials += [Trial(f"n{k}", f"y{k}", TrialLabel.DIFFERENT) for k in range(len(non))]
    return ScoreSet(TrialList(trials), np.concatenate([tar, non]))


def random_scores(rng, n_max=200):
    n_tar = int(rng.integers(1, n_max // 2))
    n_non = int(rng.integers(1, n_max // 2))
    return make_scores(rng.standard_normal(n_tar), rng.standard_normal(n_non) - 0.5)


class TestEer:
    def test_perfect_separation(self):
        eer, _ = metrics.compute_eer(make_scores(np.array([2.0, 3.0]), np.array([0.0, 1.0])))
        assert eer == 0.0

    def test_interleaved_half(self):
        scores = make_scores(np.array([1.0, 3.0]), np.array([0.0, 2.0]))
        eer, threshold = metrics.compute_eer(scores)
        assert eer == 0.5
        assert brute_force_eer(scores.scores, scores.trials.labels()) == 0.5

    def test_symmetry_under_label_swap_and_negation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = random_scores(rng)
            labels = s.trials.labels()
            flipped = make_scores(-s.scores[labels == 0], -s.scores[labels == 1])
            assert metrics.compute_eer(s)[0] == pytest.approx(
                metrics.compute_eer(flipped)[0], abs=1e-12
            )

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            s = random_scores(rng)
            assert metrics.compute_eer(s)[0] == brute_force_eer(
                s.scores, s.trials.labels()
            )

    def test_single_class_rejected(self):
        trials = TrialList([Trial("a", "b", TrialLabel.SAME)])
        with pytest.raises(DegenerateLabelsError):
            metrics.compute_eer(ScoreSet(trials, np.array([1.0])))

    def test_unlabeled_rejected(self):
        trials = TrialList([Trial("a", "b"), Trial("c", "d", TrialLabel.SAME)])
        with pytest.raises(DegenerateLabelsError):
            metrics.compute_eer(ScoreSet(trials, np.array([1.0, 2.0])))


class TestMinDcf:
    def test_perfect_separation(self):
        s = make_scores(np.array([2.0, 3.0]), np.array([0.0, 1.0]))
        raw, normalized, _ = metrics.compute_min_dcf(s, 0.5)
        assert raw == 0.0 and normalized == 0.0

    def test_interleaved_sweep_value(self):
        s = make_scores(np.array([1.0, 3.0]), np.array([0.0, 2.0]))
        raw, normalized, threshold = metrics.compute_min_dcf(s, 0.5, 1.0, 1.0)
        assert raw == pytest.approx(0.25, abs=1e-15)
        assert normalized == pytest.approx(0.5, abs=1e-15)
        # ties resolve toward the smallest threshold
        assert threshold == pytest.approx(0.5, abs=1e-12)

    def test_normalizer(self):
        s = make_scores(np.array([1.0, 3.0]), np.array([0.0, 2.0]))
        raw, normalized, _ = metrics.compute_min_dcf(s, 0.01, 1.0, 1.0)
        assert normalized == pytest.approx(raw / 0.01, abs=1e-12)

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            s = random_scores(rng)
            p_tar = float(rng.uniform(0.01, 0.5))
            raw, normalized, _ = metrics.compute_min_dcf(s, p_tar)
            b_raw, b_norm = brute_force_min_dcf(s.scores, s.trials.labels(), p_tar)
            assert raw == b_raw
            assert normalized == b_norm

    def test_do_nothing_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            s = random_scores(rng)
            raw, normalized, _ = metrics.compute_min_dcf(s, 0.1, 2.0, 0.5)
            assert raw <= min(0.1 * 2.0, 0.9 * 0.5) + 1e-15
            assert normalized <= 1.0 + 1e-15

    @pytest.mark.parametrize("costs", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf)])
    def test_non_finite_costs_rejected(self, costs):
        s = make_scores(np.array([1.0]), np.array([0.0]))
        with pytest.raises(InvalidCostError):
            metrics.compute_min_dcf(s, 0.5, *costs)

    def test_zero_costs_rejected(self):
        s = make_scores(np.array([1.0]), np.array([0.0]))
        with pytest.raises(InvalidCostError):
            metrics.compute_min_dcf(s, 0.5, 0.0, 0.0)


class TestCalibrationInvariance:
    def test_affine_and_sigmoid_maps(self):
        rng = np.random.default_rng(4)
        for transform_fn in (lambda s: 2.0 * s + 3.0, expit):
            for _ in range(20):
                s = random_scores(rng)
                mapped = ScoreSet(s.trials, transform_fn(s.scores))
                assert metrics.compute_eer(s)[0] == metrics.compute_eer(mapped)[0]
                for p_tar in (0.01, 0.001):
                    a = metrics.compute_min_dcf(s, p_tar)
                    b = metrics.compute_min_dcf(mapped, p_tar)
                    assert a[0] == b[0] and a[1] == b[1]


class TestDetCurve:
    def test_minimal_three_points(self):
        det = metrics.det_curve(make_scores(np.array([1.0]), np.array([0.0])))
        assert det.shape[0] == 3
        np.testing.assert_array_equal(det[0, :2], [1.0, 0.0])   # threshold -inf
        np.testing.assert_array_equal(det[-1, :2], [0.0, 1.0])  # threshold +inf

    def test_monotone(self):
        rng = np.random.default_rng(5)
        s = make_scores(rng.standard_normal(5000), rng.standard_normal(5000) - 1.0)
        det = metrics.det_curve(s)
        assert np.all(np.diff(det[:, 0]) <= 0)  # P_fa non-increasing
        assert np.all(np.diff(det[:, 1]) >= 0)  # P_miss non-decreasing

    def test_eer_lies_on_curve(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            s = random_scores(rng)
            eer, _ = metrics.compute_eer(s)
            det = metrics.det_curve(s)
            # the crossing of the piecewise-linear DET with p_fa == p_miss
            diff = det[:, 1] - det[:, 0]
            k = int(np.argmax(diff >= 0))
            if diff[k] == 0.0:
                crossing = det[k, 1]
            else:
                frac = -diff[k - 1] / (diff[k] - diff[k - 1])
                crossing = det[k - 1, 1] + frac * (det[k, 1] - det[k - 1, 1])
            assert abs(crossing - eer) < 1e-12


class TestHistograms:
    def test_counts_conserved(self):
        rng = np.random.default_rng(7)
        s = random_scores(rng)
        labels = s.trials.labels()
        _, same_counts, diff_counts = metrics.score_histograms(s, 16)
        assert same_counts.sum() == int((labels == 1).sum())
        assert diff_counts.sum() == int((labels == 0).sum())

    def test_degenerate_range_widened(self):
        s = make_scores(np.array([1.0, 1.0]), np.array([1.0]))
        edges, same_counts, diff_counts = metrics.score_histograms(s, 4)
        assert same_counts.sum() == 2 and diff_counts.sum() == 1
        assert edges[-1] > edges[0]

    def test_shift_equivariance(self):
        rng = np.random.default_rng(8)
        s = random_scores(rng)
        shifted = ScoreSet(s.trials, s.scores + 3.0)
        edges_a, same_a, diff_a = metrics.score_histograms(s, 12)
        edges_b, same_b, diff_b = metrics.score_histograms(shifted, 12)
        np.testing.assert_array_equal(same_a, same_b)
        np.testing.assert_array_equal(diff_a, diff_b)
        np.testing.assert_allclose(edges_b, edges_a + 3.0, atol=1e-12)


class TestReportOutput:
    def test_summary_line_format(self):
        rng = np.random.default_rng(9)
        s = random_scores(rng)
        report = metrics.evaluate(s)
        line = metrics.summary_line(report)
        assert line.startswith("EER=")
        assert "minDCF(0.01)=" in line and "minDCF(0.001)=" in line

    def test_csv_writers(self, tmp_path):
        rng = np.random.default_rng(10)
        s = random_scores(rng)
        report = metrics.evaluate(s)
        det_path = tmp_path / "det.csv"
        metrics.write_det_csv(report.det, det_path)
        header = det_path.read_text().splitlines()[0]
        assert header == "p_fa,p_miss,threshold"
        edges, same_counts, diff_counts = metrics.score_histograms(s, 8)
        hist_path = tmp_path / "hist.csv"
        metrics.write_histogram_csv(edges, same_counts, diff_counts, hist_path)
        lines = hist_path.read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count_same,count_diff"
        assert len(lines) == 9

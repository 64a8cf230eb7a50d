import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from natmu import data, metrics, nn
from natmu.errors import MetricSetMismatchError, ValidationError

LN2 = 0.69314718055994531
LN10 = 2.3025850929940457


def fixed_logits_model(logits, input_dim=2):
    logits = np.asarray(logits, dtype=np.float32)
    return nn.Model([nn.Layer(np.zeros((len(logits), input_dim), dtype=np.float32),
                              logits.copy())])


def entropy_of(model):
    """Prediction entropy of one (all-zero) input."""
    return float(metrics.entropies(model, tiny_dataset(np.zeros((1, 2)), [0],
                                                       k=model.class_count))[0])


def tiny_dataset(pixels, labels, k, soft=None):
    pixels = np.asarray(pixels, dtype=np.float32)
    return data.Dataset(pixels=pixels, labels=np.asarray(labels, dtype=np.int64),
                        height=1, width=pixels.shape[1], channels=1, k=k,
                        soft_labels=None if soft is None
                        else np.asarray(soft, dtype=np.float32))


class TestAccuracy:
    def test_constant_model_matching_class(self):
        model = fixed_logits_model([5.0, 1.0, 0.0])
        ds = tiny_dataset(np.zeros((4, 2)), [0, 0, 0, 0], k=3)
        assert metrics.accuracy(model, ds) == 100.0

    def test_half_right(self):
        model = fixed_logits_model([5.0, 1.0, 0.0])
        ds = tiny_dataset(np.zeros((2, 2)), [0, 1], k=3)
        assert metrics.accuracy(model, ds) == 50.0

    def test_soft_labels_scored_against_argmax(self):
        model = fixed_logits_model([5.0, 1.0, 0.0])
        ds = tiny_dataset(np.zeros((2, 2)), [1, 1], k=3,
                          soft=[[0.6, 0.3, 0.1], [0.1, 0.8, 0.1]])
        assert metrics.accuracy(model, ds) == 50.0

    def test_argmax_invariant_under_logit_rescale(self):
        rng = np.random.default_rng(5)
        weight = rng.normal(size=(4, 6)).astype(np.float32)
        model = nn.Model([nn.Layer(weight, np.zeros(4, dtype=np.float32))])
        scaled = nn.Model([nn.Layer(weight * 10.0, np.zeros(4, dtype=np.float32))])
        ds = tiny_dataset(rng.random((30, 6)), rng.integers(0, 4, 30), k=4)
        assert metrics.accuracy(model, ds) == metrics.accuracy(scaled, ds)

    def test_empty_set_rejected(self):
        model = fixed_logits_model([1.0, 0.0])
        ds = tiny_dataset(np.zeros((0, 2)), [], k=2)
        with pytest.raises(ValidationError):
            metrics.accuracy(model, ds)


class TestEntropy:
    def test_uniform_output_ten_classes(self):
        model = fixed_logits_model(np.zeros(10))
        assert entropy_of(model) == pytest.approx(
            LN10, abs=1e-9)

    def test_one_hot_limit(self):
        model = fixed_logits_model([200.0, 0.0, 0.0])
        assert entropy_of(model) == pytest.approx(
            0.0, abs=1e-12)

    def test_two_point_distribution(self):
        model = fixed_logits_model([3.0, 3.0, -200.0])
        assert entropy_of(model) == pytest.approx(
            LN2, abs=1e-9)

    def test_bounds_over_random_models(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            k = int(rng.integers(2, 8))
            model = fixed_logits_model(rng.normal(0, 50, size=k))
            h = entropy_of(model)
            assert 0.0 <= h <= math.log(k) + 1e-12


class TestMia:
    def test_perfect_separation(self):
        clf = metrics.fit_entropy_threshold(np.full(5, 0.1), np.full(5, 2.0))
        assert clf.balanced_accuracy == 1.0
        assert 0.1 < clf.tau <= 2.0

    def test_identical_distributions_chance_level(self):
        values = np.array([0.2, 0.5, 0.9, 1.4])
        clf = metrics.fit_entropy_threshold(values, values.copy())
        assert clf.balanced_accuracy == pytest.approx(0.5, abs=1e-12)

    def test_single_pair_correct(self):
        clf = metrics.fit_entropy_threshold(np.array([0.3]), np.array([1.5]))
        assert clf.balanced_accuracy == 1.0
        assert clf.is_member(np.array([0.3]))[0]
        assert not clf.is_member(np.array([1.5]))[0]

    def test_fit_beats_chance_on_own_data(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            member = rng.random(int(rng.integers(1, 20)))
            non = rng.random(int(rng.integers(1, 20)))
            clf = metrics.fit_entropy_threshold(member, non)
            assert clf.balanced_accuracy >= 0.5

    def test_matches_enumeration_oracle(self):
        # brute force over all midpoints plus sentinels
        member = np.array([0.10, 0.40, 0.45, 1.20, 2.00])
        non = np.array([0.30, 0.45, 1.10, 1.90, 2.50])
        values = sorted(set(np.concatenate([member, non]).tolist()))
        candidates = [values[0] - 1.0, values[-1] + 1.0] + \
            [(a + b) / 2 for a, b in zip(values, values[1:])]
        best = max(0.5 * ((member < t).mean() + (non >= t).mean())
                   for t in candidates)
        assert metrics.fit_entropy_threshold(member, non).balanced_accuracy == best

    def test_accept_everything_and_reject_everything(self):
        model = fixed_logits_model([1.0, 0.0])
        d_f = tiny_dataset(np.zeros((4, 2)), [0] * 4, k=2)
        accept = metrics.MiaClassifier(tau=float("inf"), balanced_accuracy=0.5)
        reject = metrics.MiaClassifier(tau=float("-inf"), balanced_accuracy=0.5)
        assert metrics.mia_ratio(accept, metrics.entropies(model, d_f)) == 100.0
        assert metrics.mia_ratio(reject, metrics.entropies(model, d_f)) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_candidates_are_bitwise_those_of_np_unique(self, seed):
        rng = np.random.default_rng(seed)
        # few distinct values, so most repeat, and zeros of both signs
        values = rng.choice([-0.0, 0.0, 0.25, 0.5, 1.5, np.log(3.0)], size=40)
        values[rng.permutation(40)[:5]] = rng.random(5)
        distinct = np.unique(values)
        expected = np.concatenate([[distinct[0] - 1.0], (distinct[:-1] + distinct[1:]) / 2.0,
                                   [distinct[-1] + 1.0]])
        got = metrics.threshold_candidates(values)
        assert got.dtype == expected.dtype
        assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    def test_mia_fit_and_superclass_check_leave_numpy_ma_unloaded(self):
        # np.unique imports numpy.ma, about 1 MB, on its first call
        code = ("import sys; import numpy as np; from natmu import data, metrics; "
                "metrics.mia_fit(np.array([0.1, 0.2, 0.2]), np.array([0.2, 0.9])); "
                "data.check_superclass_map([0, 0, 1], 3); "
                "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, check=False)
        assert result.returncode == 0, result.stderr

    def test_one_row_member_non_member_and_forgetting_sets(self):
        clf = metrics.mia_fit(np.array([0.3]), np.array([1.5]))
        assert clf.balanced_accuracy == 1.0
        assert metrics.mia_ratio(clf, np.array([0.3])) == 100.0
        assert metrics.mia_ratio(clf, np.array([1.5])) == 0.0

    def test_entropy_exactly_at_tau_is_not_a_member(self):
        clf = metrics.MiaClassifier(tau=0.5, balanced_accuracy=1.0)
        assert clf.is_member(np.array([np.nextafter(0.5, 0.0), 0.5])).tolist() == [True, False]

    def test_mia_ratio_of_an_empty_set_refused(self):
        clf = metrics.MiaClassifier(tau=0.5, balanced_accuracy=1.0)
        with pytest.raises(ValidationError, match="MIA ratio of an empty set"):
            metrics.mia_ratio(clf, np.array([]))

    def test_mia_fit_needs_data(self):
        model = fixed_logits_model([1.0, 0.0])
        empty = tiny_dataset(np.zeros((0, 2)), [], k=2)
        full = tiny_dataset(np.zeros((3, 2)), [0, 1, 0], k=2)
        with pytest.raises(ValidationError):
            metrics.mia_fit(metrics.entropies(model, empty), metrics.entropies(model, full))


def kl_fixture_model():
    """One-hot inputs select per-sample logit columns."""
    weight = np.array([[1.0, -0.5], [2.0, 0.0], [0.5, 1.5]], dtype=np.float32)
    return nn.Model([nn.Layer(weight, np.zeros(3, dtype=np.float32))])


class TestKlAvg:
    def test_hard_label_reference_value(self):
        model = kl_fixture_model()
        ds = tiny_dataset(np.eye(2)[:1], [2], k=3)
        assert metrics.kl_avg(model, ds) == pytest.approx(10.972006404909952,
                                                          abs=1e-6)

    def test_soft_label_reference_value(self):
        model = kl_fixture_model()
        ds = tiny_dataset(np.eye(2)[1:], [1], k=3, soft=[[0.1, 0.6, 0.3]])
        assert metrics.kl_avg(model, ds) == pytest.approx(0.44758956594701927,
                                                          abs=1e-6)

    def test_matching_target_gives_zero(self):
        model = kl_fixture_model()
        logits = nn.forward(model, np.eye(2, dtype=np.float32))
        soft = nn.softmax(logits.astype(np.float64)).astype(np.float32)
        soft /= soft.sum(axis=1, keepdims=True)
        ds = tiny_dataset(np.eye(2), soft.argmax(axis=1), k=3, soft=soft)
        assert metrics.kl_avg(model, ds) == pytest.approx(0.0, abs=1e-9)

    def test_nonnegative_and_finite_random(self):
        rng = np.random.default_rng(8)
        model = kl_fixture_model()
        for _ in range(20):
            labels = rng.integers(0, 3, size=2)
            ds = tiny_dataset(np.eye(2), labels, k=3)
            v = metrics.kl_avg(model, ds)
            assert v >= 0.0 and np.isfinite(v)

    def test_empty_set_rejected(self):
        with pytest.raises(ValidationError):
            metrics.kl_avg(kl_fixture_model(), tiny_dataset(np.zeros((0, 2)), [], 3))


def report(**overrides):
    """A report mapping as `evaluate_model` gives it; FATrain and FATest
    overrides make it the class-mode metric set."""
    fa = {"FATrain": 77.0, "FATest": 77.0} if "FATrain" in overrides else {"FA": 77.0}
    return {"TA": 76.0, "RA": 99.9, **fa, "MIA": 55.0, **overrides}


class TestGaps:
    def test_identical_reports_zero(self):
        assert metrics.avg_gap(report(), report()) == 0.0

    def test_symmetry(self):
        a = report()
        b = report(TA=70.0, MIA=60.0)
        assert metrics.avg_gap(a, b) == metrics.avg_gap(b, a)

    def test_published_four_metric_rows(self):
        tol = 0.005 + 1e-9
        zero = dict.fromkeys(report(), 0.0)
        for gaps, want in (((1.15, 2.47, 1.28, 1.88), 1.70),
                           ((4.21, 0.03, 18.98, 32.82), 14.01)):
            assert abs(metrics.avg_gap(dict(zip(zero, gaps)), zero) - want) <= tol

    def test_class_wise_uses_five_metrics(self):
        a = report(FATrain=10.0, FATest=12.0)
        b = report(FATrain=15.0, FATest=12.0)
        assert metrics.avg_gap(a, b) == pytest.approx(1.0)  # 5/5 metrics

    def test_metric_set_mismatch(self):
        with pytest.raises(MetricSetMismatchError):
            metrics.avg_gap(report(), report(FATrain=1.0, FATest=2.0))


class TestEntropyHistogram:
    def test_confident_model_mass_in_first_bin(self):
        model = fixed_logits_model([200.0, 0.0, 0.0])
        ds = tiny_dataset(np.zeros((7, 2)), [0] * 7, k=3)
        counts, edges = metrics.entropy_histogram(model, ds, bins=10)
        assert counts[0] == 7 and counts.sum() == 7
        assert edges[0] == 0.0 and edges[-1] == pytest.approx(math.log(3))

    def test_uniform_model_mass_in_last_bin(self):
        model = fixed_logits_model([0.0, 0.0, 0.0])
        ds = tiny_dataset(np.zeros((5, 2)), [0] * 5, k=3)
        counts, _ = metrics.entropy_histogram(model, ds, bins=8)
        assert counts[-1] == 5

    def test_counts_sum_to_set_size(self):
        rng = np.random.default_rng(9)
        weight = rng.normal(size=(4, 3)).astype(np.float32)
        model = nn.Model([nn.Layer(weight, np.zeros(4, dtype=np.float32))])
        ds = tiny_dataset(rng.random((23, 3)), rng.integers(0, 4, 23), k=4)
        counts, _ = metrics.entropy_histogram(model, ds, bins=5)
        assert counts.sum() == 23

    def test_one_bin_holds_the_whole_set(self):
        model = fixed_logits_model([1.0, 0.0, 0.0])
        ds = tiny_dataset(np.zeros((3, 2)), [0] * 3, k=3)
        counts, edges = metrics.entropy_histogram(model, ds, bins=1)
        assert counts.tolist() == [3]
        assert edges.tolist() == [0.0, math.log(3)]

    def test_bins_validated(self):
        model = fixed_logits_model([0.0, 0.0])
        ds = tiny_dataset(np.zeros((1, 2)), [0], k=2)
        with pytest.raises(ValidationError):
            metrics.entropy_histogram(model, ds, bins=0)

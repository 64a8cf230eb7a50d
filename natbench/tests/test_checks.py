"""The benchmark's independent readers and recomputations against small
hand-made cases."""

import math
import struct

import numpy as np
import pytest

import checks


def nmu_bytes(layers):
    out = b"NMU1" + struct.pack("<I", len(layers))
    for w, _ in layers:
        out += struct.pack("<II", w.shape[1], w.shape[0])
    for w, b in layers:
        out += np.asarray(w, "<f4").tobytes() + np.asarray(b, "<f4").tobytes()
    return out


W1 = np.array([[1.0, -1.0], [0.0, 2.0]], dtype=np.float32)
B1 = np.array([0.0, -1.0], dtype=np.float32)
W2 = np.array([[1.0, 1.0]], dtype=np.float32)
B2 = np.array([0.5], dtype=np.float32)


class TestReaders:
    def test_nmu_round_trip(self, tmp_path):
        path = tmp_path / "m.nmu"
        path.write_bytes(nmu_bytes([(W1, B1), (W2, B2)]))
        (w1, b1), (w2, b2) = checks.read_nmu(path)
        assert np.array_equal(w1, W1) and np.array_equal(b1, B1)
        assert np.array_equal(w2, W2) and np.array_equal(b2, B2)

    def test_nmu_rejects_trailing_bytes_and_bad_magic(self, tmp_path):
        path = tmp_path / "m.nmu"
        path.write_bytes(nmu_bytes([(W1, B1)]) + b"\0")
        with pytest.raises(ValueError, match="after the last layer"):
            checks.read_nmu(path)
        path.write_bytes(b"NMU2" + nmu_bytes([(W1, B1)])[4:])
        with pytest.raises(ValueError, match="not an NMU1"):
            checks.read_nmu(path)

    def test_uds_records(self, tmp_path):
        header = b"UDS1" + struct.pack("<5I", 2, 1, 2, 1, 3)
        records = (struct.pack("<H2f", 2, 0.25, 1.0) + struct.pack("<H2f", 0, 0.5, 0.0))
        path = tmp_path / "d.uds"
        path.write_bytes(header + records)
        pixels, labels, geometry = checks.read_uds(path)
        assert geometry == (1, 2, 1, 3)
        assert labels.tolist() == [2, 0]
        assert pixels.tolist() == [[0.25, 1.0], [0.5, 0.0]]

    def test_uds_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "d.uds"
        path.write_bytes(b"UDS1" + struct.pack("<5I", 2, 1, 2, 1, 3)
                         + struct.pack("<H2f", 2, 0.25, 1.0))
        with pytest.raises(ValueError, match="payload"):
            checks.read_uds(path)

    def test_report_blanks_are_none(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("metric,value,retrain_value,gap\nTA,90.0,91.5,1.5\n"
                        "KL_avg,,0.000000,\nAvg.Gap,,,1.5\n")
        rows = checks.read_report(path)
        assert rows == {"TA": (90.0, 91.5, 1.5), "KL_avg": (None, 0.0, None),
                        "Avg.Gap": (None, None, 1.5)}


class TestForward:
    def test_two_layer_relu_by_hand(self):
        # hidden = relu([1 - 2, 4 - 1]) = [0, 3]; out = 0 + 3 + 0.5
        logits = checks.mlp_logits([(W1, B1), (W2, B2)], np.array([[1.0, 2.0]]))
        assert logits.tolist() == [[3.5]]

    def test_no_relu_on_the_last_layer(self):
        logits = checks.mlp_logits([(W2, np.array([-10.0], np.float32))],
                                   np.array([[1.0, 2.0]]))
        assert logits.tolist() == [[-7.0]]

    def test_accuracy_range_widens_only_for_near_ties(self):
        logits = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0 + 1e-5]])
        labels = np.array([0, 0, 0])
        lo, hi = checks.accuracy_range(logits, labels)
        assert lo == pytest.approx(100 / 3) and hi == pytest.approx(200 / 3)


class TestKl:
    def test_smoothed_kl_by_hand(self):
        eps = 1e-6
        q0, q1 = (1 + eps) / (1 + 2 * eps), eps / (1 + 2 * eps)
        want = 0.5 * math.log(0.5 / q0) + 0.5 * math.log(0.5 / q1)
        got = checks.kl_hard(np.zeros((1, 2)), np.array([0]), 2, eps)
        assert got == pytest.approx(want, rel=1e-12)

    def test_kl_is_zero_when_prediction_matches_the_smoothed_label(self):
        eps = 1e-6
        q = np.array([eps, 1 + eps, eps]) / (1 + 3 * eps)
        got = checks.kl_hard(np.log(q)[None, :], np.array([1]), 3, eps)
        assert abs(got) < 1e-12

    def test_soft_targets_renormalised(self):
        logits = np.log(np.array([[0.2, 0.8]]))
        assert checks.kl_soft(logits, np.array([[0.1, 0.4]])) == pytest.approx(0.0, abs=1e-12)

    def test_wrong_label_range_brackets_every_wrong_labelling(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(4, 3))
        truth = np.array([0, 1, 2, 0])
        lo, hi = checks.kl_range_wrong_label(logits, truth, 3)
        for labels in ([1, 0, 0, 1], [2, 2, 1, 2], [1, 2, 0, 2]):
            kl = checks.kl_hard(logits, np.array(labels), 3)
            assert lo - 1e-12 <= kl <= hi + 1e-12


class TestMasksAndReports:
    def test_gradual_masks_width_four(self):
        m1, m2, m3, m4 = checks.gradual_masks(2, 4, 0.0)
        assert m1.tolist() == [[0, 1, 1, 0]] * 2
        assert (m2 == 1 - m1).all()
        assert m3.shape == (4, 2) and m3[:, 0].tolist() == [0, 1, 1, 0]
        assert (m4 == 1 - m3).all()
        shifted = checks.gradual_masks(2, 4, -0.25)[0]
        assert shifted[0].tolist() == [0.0, 0.75, 0.75, 0.0]

    def test_count_share(self):
        assert checks.is_count_share(2.0, 50)
        assert checks.is_count_share(round(100 * 7 / 4950, 6), 4950)
        assert not checks.is_count_share(3.0, 50)

    def test_report_arithmetic(self):
        rows = {"TA": (90.0, 92.0, 2.0), "RA": (95.0, 95.0, 0.0), "FA": (80.0, 84.0, 4.0),
                "MIA": (10.0, 12.0, 2.0), "KL_avg": (0.5, 0.0, 0.5),
                "Avg.Gap": (None, None, 2.0)}
        assert checks.report_problems("r", rows, ["TA", "RA", "FA", "MIA"]) == []
        rows["Avg.Gap"] = (None, None, 2.5)
        assert "Avg.Gap" in checks.report_problems("r", rows, ["TA", "RA", "FA", "MIA"])[0]
        rows["Avg.Gap"] = (None, None, 2.0)
        rows["FA"] = (80.0, 84.0, 3.0)
        assert "FA gap" in checks.report_problems("r", rows, ["TA", "RA", "FA", "MIA"])[0]

    def test_aggregate_mean_and_population_std(self):
        per_seed = {1: {"m": {"TA": (1.0, 2.0, 1.0)}}, 2: {"m": {"TA": (3.0, 2.0, 1.0)}}}
        good = [{"method": "m", "metric": "TA", "mean": "2.000000", "std": "1.000000",
                 "gap_mean": "1.000000"}]
        assert checks.aggregate_problems(good, per_seed) == []
        bad = [dict(good[0], std="1.414214")]
        assert checks.aggregate_problems(bad, per_seed)

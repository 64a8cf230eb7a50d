import struct
from dataclasses import replace

import numpy as np
import pytest

from natmu import data, nn
from natmu.errors import (
    BadMagicError,
    EmptyClassError,
    LabelRangeError,
    MissingTraceError,
    PixelRangeError,
    TruncatedPayloadError,
    ValidationError,
)


def small_blobs(**overrides):
    kwargs = dict(k=6, per_class=20, height=4, width=4, channels=1,
                  spread=0.3, seed=11)
    kwargs.update(overrides)
    return data.synth_blobs(**kwargs)


class TestUdsFormat:
    def test_empty_dataset_roundtrip(self, tmp_path):
        ds = small_blobs().subset(np.array([], dtype=int))
        path = tmp_path / "empty.uds"
        data.save_raw(ds, str(path))
        loaded = data.load_raw(str(path))
        assert len(loaded) == 0
        assert (loaded.height, loaded.width, loaded.channels, loaded.k) == (4, 4, 1, 6)

    def test_single_sample_roundtrip_bit_exact(self, tmp_path):
        ds = data.Dataset(
            pixels=np.array([[0.25, 0.5, 0.75, 1.0]], dtype=np.float32),
            labels=np.array([1], dtype=np.int64),
            height=2, width=2, channels=1, k=2)
        path = tmp_path / "one.uds"
        data.save_raw(ds, str(path))
        loaded = data.load_raw(str(path))
        assert np.array_equal(loaded.pixels, ds.pixels)
        assert np.array_equal(loaded.labels, ds.labels)

    def test_corrupted_magic_is_an_error(self, tmp_path):
        path = tmp_path / "bad.uds"
        path.write_bytes(b"NOPE" + b"\x00" * 24)
        with pytest.raises(BadMagicError):
            data.load_raw(str(path))

    def test_truncated_payload(self, tmp_path):
        ds = small_blobs()
        path = tmp_path / "trunc.uds"
        data.save_raw(ds, str(path))
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(TruncatedPayloadError):
            data.load_raw(str(path))

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "label.uds"
        pixels = np.zeros(4, dtype="<f4").tobytes()
        blob = data.MAGIC + struct.pack("<IIIII", 1, 2, 2, 1, 3)
        blob += struct.pack("<H", 7) + pixels
        path.write_bytes(blob)
        with pytest.raises(LabelRangeError):
            data.load_raw(str(path))

    def test_pixel_out_of_range(self, tmp_path):
        path = tmp_path / "pixel.uds"
        pixels = np.array([0.0, 0.5, 1.5, 1.0], dtype="<f4").tobytes()
        blob = data.MAGIC + struct.pack("<IIIII", 1, 2, 2, 1, 3)
        blob += struct.pack("<H", 0) + pixels
        path.write_bytes(blob)
        with pytest.raises(PixelRangeError):
            data.load_raw(str(path))


class TestSynthBlobs:
    def test_zero_spread_reproduces_templates(self):
        ds = small_blobs(spread=0.0, per_class=5)
        for c in range(ds.k):
            rows = ds.pixels[ds.labels == c]
            assert (rows == rows[0]).all()

    def test_size_is_classes_times_per_class(self):
        ds = data.synth_blobs(2, 100, 4, 4, 1, spread=0.2, seed=0)
        assert len(ds) == 200

    def test_train_and_test_share_templates(self):
        train = small_blobs(spread=0.0)
        test = small_blobs(spread=0.0, split="test")
        for c in range(train.k):
            a = train.pixels[train.labels == c][0]
            b = test.pixels[test.labels == c][0]
            assert np.array_equal(a, b)

    def test_splits_draw_independent_noise(self):
        train = small_blobs()
        test = small_blobs(split="test")
        assert not np.array_equal(train.pixels[:5], test.pixels[:5])

    def test_deterministic_under_seed(self):
        a, b = small_blobs(), small_blobs()
        assert np.array_equal(a.pixels, b.pixels)

    def test_default_spread_is_trainable(self):
        # a fresh MLP must fit the default blobs quickly
        ds = data.synth_blobs(6, 50, 8, 8, 1, seed=21)
        model = nn.init_model([ds.dim, 64, 64, ds.k], seed=3)
        cfg = nn.TrainConfig(epochs=50, batch_size=32, base_lr=1e-3,
                             weight_decay=5e-4, seed=4)
        trained = nn.train(model, ds, cfg)
        pred = nn.predict_logits(trained, ds.pixels).argmax(axis=1)
        assert (pred == ds.labels).mean() >= 0.95

    def test_needs_two_classes(self):
        with pytest.raises(ValidationError):
            data.synth_blobs(1, 10, 4, 4, 1, spread=0.1, seed=0)


class TestSplitForget:
    def test_random_split_size(self):
        ds = data.synth_blobs(10, 500, 2, 2, 1, spread=0.2, seed=1)
        spec = data.ForgettingSpec(mode="random", ratio=0.01, seed=5)
        d_f, d_r = data.split_forget(ds, spec)
        assert len(d_f) == 50
        assert len(d_r) == 4950

    def test_partition_property_random_specs(self):
        ds = small_blobs()
        rng = np.random.default_rng(9)
        for _ in range(25):
            spec = data.ForgettingSpec(mode="random",
                                       ratio=float(rng.uniform(0.05, 0.9)),
                                       seed=int(rng.integers(1 << 31)))
            d_f, d_r = data.split_forget(ds, spec)
            assert len(d_f) + len(d_r) == len(ds)
            assert not set(d_f.ids.tolist()) & set(d_r.ids.tolist())

    def test_random_selection_is_pure_function(self):
        ds = small_blobs()
        spec = data.ForgettingSpec(mode="random", ratio=0.25, seed=123)
        a_f, _ = data.split_forget(ds, spec)
        b_f, _ = data.split_forget(ds, spec)
        assert np.array_equal(a_f.ids, b_f.ids)

    def test_class_mode_removes_whole_class(self):
        ds = small_blobs()
        spec = data.ForgettingSpec(mode="class", class_index=2)
        d_f, d_r = data.split_forget(ds, spec)
        assert (d_f.labels == 2).all()
        assert (d_r.labels != 2).all()
        assert len(d_f) == 20

    def test_class_mode_empty_class(self):
        ds = small_blobs()
        keep = np.nonzero(ds.labels != 3)[0]
        with pytest.raises(EmptyClassError):
            data.split_forget(ds.subset(keep),
                              data.ForgettingSpec(mode="class", class_index=3))

    def test_difficult_smallest_counts_win(self):
        ds = small_blobs(per_class=1, k=3)  # 3 instances
        counts = np.array([5, 90, 100], dtype=np.uint32)
        spec = data.ForgettingSpec(mode="difficult", ratio=1 / 3)
        d_f, _ = data.split_forget(ds, spec, counts)
        assert d_f.ids.tolist() == [0]

    def test_difficult_tie_break_ascending_id(self):
        ds = small_blobs(per_class=2, k=2)  # 4 instances
        counts = np.array([7, 7, 7, 7], dtype=np.uint32)
        spec = data.ForgettingSpec(mode="difficult", ratio=0.5)
        d_f, _ = data.split_forget(ds, spec, counts)
        assert d_f.ids.tolist() == [0, 1]

    def test_difficult_selection_permutation_stable(self):
        ds = small_blobs()
        rng = np.random.default_rng(17)
        counts = rng.integers(0, 30, size=len(ds)).astype(np.uint32)
        spec = data.ForgettingSpec(mode="difficult", ratio=0.2)
        base_f, _ = data.split_forget(ds, spec, counts)
        perm = rng.permutation(len(ds))
        perm_f, _ = data.split_forget(ds.subset(perm), spec, counts[perm])
        assert sorted(base_f.ids.tolist()) == sorted(perm_f.ids.tolist())

    @pytest.mark.parametrize("length", [0, 119, 121])
    def test_difficult_refuses_counts_of_another_length(self, length):
        ds = small_blobs()  # 120 instances
        with pytest.raises(ValidationError, match=f"{length} correct-epoch counts"):
            data.split_forget(ds, data.ForgettingSpec(mode="difficult", ratio=0.1),
                              np.zeros(length, dtype=np.uint32))

    @pytest.mark.parametrize("mode", ["random", "difficult"])
    @pytest.mark.parametrize("ratio, empty", [(0.004, "forgetting"), (0.996, "remaining")])
    def test_ratio_leaving_a_side_empty_refused(self, mode, ratio, empty):
        ds = small_blobs()  # 120 instances: round(0.48) = 0, round(119.52) = 120
        with pytest.raises(ValidationError, match=f"ratio {ratio} of N = 120 .* {empty}"):
            data.split_forget(ds, data.ForgettingSpec(mode=mode, ratio=ratio),
                              np.zeros(len(ds), dtype=np.uint32))

    def test_difficult_requires_trace(self):
        with pytest.raises(MissingTraceError):
            data.split_forget(small_blobs(),
                              data.ForgettingSpec(mode="difficult", ratio=0.1))

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            data.ForgettingSpec(mode="random", ratio=0.0)
        with pytest.raises(ValidationError):
            data.ForgettingSpec(mode="everything")
        with pytest.raises(ValidationError):
            data.ForgettingSpec(mode="class", scope="half")


class TestSuperclass:
    def test_remap_and_subclass_split(self):
        ds = small_blobs()
        mapped = data.to_superclass(ds, [0, 0, 1, 1, 2, 2])
        assert mapped.k == 3
        assert mapped.labels.max() == 2
        spec = data.ForgettingSpec(mode="class", class_index=3, scope="sub")
        d_f, d_r = data.split_forget(mapped, spec)
        assert (d_f.subclass_labels == 3).all()
        assert (d_f.labels == 1).all()  # superclass of fine class 3
        assert (d_r.subclass_labels != 3).all()
        # the superclass itself survives in the remaining data via class 2
        assert (d_r.labels == 1).any()

    def test_sub_scope_needs_fine_labels(self):
        with pytest.raises(ValidationError):
            data.split_forget(small_blobs(),
                              data.ForgettingSpec(mode="class", class_index=1,
                                                  scope="sub"))

    def test_forgetting_test_subset(self):
        test = data.to_superclass(small_blobs(split="test"), [0, 0, 1, 1, 2, 2])
        spec = data.ForgettingSpec(mode="class", class_index=3, scope="sub")
        subset = data.forgetting_test_subset(test, spec)
        assert (subset.subclass_labels == 3).all()

    @pytest.mark.parametrize("select, what", [
        (lambda ds, spec: data.split_forget(ds, spec)[0], "instances"),
        (data.forgetting_test_subset, "test instances")],
        ids=["split_forget", "forgetting_test_subset"])
    def test_class_selectors_refuse_alike(self, select, what):
        ds = small_blobs()
        with pytest.raises(ValidationError, match="^sub-class forgetting needs subclass labels$"):
            select(ds, data.ForgettingSpec(mode="class", class_index=1, scope="sub"))
        without_3 = ds.subset(np.nonzero(ds.labels != 3)[0])
        for scope, ds in (("full", without_3),
                          ("sub", data.to_superclass(without_3, [0, 0, 1, 1, 2, 2]))):
            with pytest.raises(EmptyClassError, match=f"^class 3 has no {what}$"):
                select(ds, data.ForgettingSpec(mode="class", class_index=3, scope=scope))

    def test_mapping_must_cover_classes(self):
        with pytest.raises(ValidationError):
            data.to_superclass(small_blobs(), [0, 0, 1])


class TestDatasetHelpers:
    def test_concat_preserves_order_and_ids(self):
        ds = small_blobs()
        a = ds.subset(np.arange(0, 10))
        b = ds.subset(np.arange(50, 55))
        merged = data.concat(a, b)
        assert len(merged) == 15
        assert merged.ids.tolist() == ds.ids[np.r_[0:10, 50:55]].tolist()

    def test_concat_geometry_mismatch(self):
        with pytest.raises(ValidationError):
            data.concat(small_blobs(), small_blobs(height=5, width=5))

    def test_concat_of_soft_and_hard_labels_refused(self):
        hard = small_blobs()
        soft = replace(hard, soft_labels=np.full((len(hard), hard.k), 1.0 / hard.k,
                                                 dtype=np.float32))
        for first, second in ((hard, soft), (soft, hard)):
            with pytest.raises(ValidationError, match="soft-labeled .* hard-labeled"):
                data.concat(first, second)
        assert data.concat(soft, soft).soft_labels.shape == (2 * len(hard), hard.k)

    def test_sorted_by_id(self):
        ds = small_blobs()
        shuffled = ds.subset(np.random.default_rng(3).permutation(len(ds)))
        assert shuffled.sorted_by_id().ids.tolist() == sorted(ds.ids.tolist())

    def test_validate_catches_bad_soft_labels(self):
        ds = small_blobs()
        soft = np.full((len(ds), ds.k), 0.5, dtype=np.float32)
        bad = data.Dataset(pixels=ds.pixels, labels=ds.labels, height=4, width=4,
                           channels=1, k=6, soft_labels=soft)
        with pytest.raises(ValidationError):
            bad.validate()

import io
import struct
from dataclasses import replace

import numpy as np
import pytest

from natmu import data, nn
from natmu.errors import (
    BadMagicError,
    DatasetFormatError,
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


def reference_uds(dataset) -> bytes:
    """The UDS bytes of `dataset`, each part written as one record array."""
    blob = data.MAGIC + struct.pack("<IIIII", len(dataset), dataset.height, dataset.width,
                                    dataset.channels, dataset.k)
    for part in dataset.parts:
        records = np.zeros(len(part), dtype=[("label", "<u2"), ("pixels", "<f4", (part.dim,))])
        records["label"] = part.labels
        records["pixels"] = part.pixels
        blob += records.tobytes()
    return blob


def reference_load(path) -> tuple[np.ndarray, np.ndarray]:
    """The labels and pixels of the UDS file at `path`, decoded from its
    bytes as one record array."""
    blob = path.read_bytes()
    n, height, width, channels, _ = struct.unpack_from("<IIIII", blob, 4)
    records = np.frombuffer(blob, count=n, offset=24, dtype=[
        ("label", "<u2"), ("pixels", "<f4", (height * width * channels,))])
    return records["label"].astype(np.int64), records["pixels"].astype(np.float32)


class TestUdsFormat:
    @pytest.mark.parametrize("chunk", [1, 7, 120])  # a row, an odd size, the whole set
    @pytest.mark.parametrize("rows", [0, 1, 120])
    def test_chunked_reads_give_the_arrays_of_one_record_array(
            self, tmp_path, monkeypatch, chunk, rows):
        monkeypatch.setattr(data, "SAVE_CHUNK", chunk)
        ds = small_blobs().subset(np.arange(rows))
        path = tmp_path / "chunked.uds"
        path.write_bytes(reference_uds(ds))
        loaded = data.load_raw(str(path))
        labels, pixels = reference_load(path)
        assert (loaded.height, loaded.width, loaded.channels, loaded.k) == (4, 4, 1, 6)
        assert loaded.labels.dtype == labels.dtype and loaded.pixels.dtype == pixels.dtype
        assert loaded.pixels.shape == pixels.shape == (rows, 16)
        assert loaded.labels.tobytes() == labels.tobytes()
        assert loaded.pixels.tobytes() == pixels.tobytes()

    @pytest.mark.parametrize("chunk", [1, 7, 120])
    @pytest.mark.parametrize("cut, size", [(slice(None, -10), 7910), (slice(None, -66), 7854),
                                           (slice(None, None), 7923)])
    def test_payload_of_another_size_refused_with_its_size(
            self, tmp_path, monkeypatch, chunk, cut, size):
        # 120 records of 66 bytes: cut inside a record, a whole record off, 3 bytes on
        monkeypatch.setattr(data, "SAVE_CHUNK", chunk)
        path = tmp_path / "sized.uds"
        blob = reference_uds(small_blobs())[cut]
        path.write_bytes(blob if size < 7920 else blob + b"xyz")
        with pytest.raises(TruncatedPayloadError,
                           match=f"^UDS payload is {size} bytes, expected 7920$"):
            data.load_raw(str(path))

    @pytest.mark.parametrize("chunk", [1, 7, 120])
    def test_short_read_refused_as_truncation(self, monkeypatch, chunk):
        blob = reference_uds(small_blobs())

        class Shrunk(io.BytesIO):
            """A file that lost its last 10 bytes after its size was read."""
            def seek(self, offset, whence=io.SEEK_SET):
                end = super().seek(offset, whence)
                return len(blob) if whence == io.SEEK_END else end

        monkeypatch.setattr(data, "SAVE_CHUNK", chunk)
        monkeypatch.setattr(data, "open", lambda path, mode: Shrunk(blob[:-10]), raising=False)
        with pytest.raises(TruncatedPayloadError,
                           match="^UDS payload is 7910 bytes, expected 7920$"):
            data.load_raw("shrunk.uds")

    def test_reading_keeps_no_copy_of_the_file(self, tmp_path, traced_peak):
        # 6500 rows of 16x16 pixels, 6.7 MB on disk: more than six chunks
        path = tmp_path / "set.uds"
        data.save_raw(data.synth_blobs(10, 650, 16, 16, 1, seed=1), str(path))
        loaded, peak = traced_peak(lambda: data.load_raw(str(path)))
        arrays = loaded.pixels.nbytes + loaded.labels.nbytes + loaded.ids.nbytes
        # the whole file beside its decoded arrays took 2 times the file
        assert peak < arrays + data.SAVE_CHUNK * (2 + 4 * loaded.dim)

    @pytest.mark.parametrize("chunk", [1, 7, 120])  # a row, an odd size, the whole set
    @pytest.mark.parametrize("rows, joined_at", [(0, None), (120, None), (120, 0),
                                                 (120, 45), (120, 120)])
    def test_chunked_writes_give_the_bytes_of_one_record_array(
            self, tmp_path, monkeypatch, chunk, rows, joined_at):
        monkeypatch.setattr(data, "SAVE_CHUNK", chunk)
        ds = small_blobs().subset(np.arange(rows))
        if joined_at is not None:
            ds = data.concat(ds.subset(np.arange(joined_at)),
                             ds.subset(np.arange(joined_at, rows)))
        path = tmp_path / "chunked.uds"
        data.save_raw(ds, str(path))
        assert path.read_bytes() == reference_uds(ds)

    def test_writing_keeps_no_copy_of_the_whole_set(self, tmp_path, traced_peak):
        # a fine-tuning set at subclass-sgd's scale: 4500 remaining rows and
        # 2000 hybrids of 16x16 pixels, 6.7 MB on disk
        ds = data.synth_blobs(10, 650, 16, 16, 1, seed=1)
        finetune = data.concat(ds.subset(np.arange(4500)), ds.subset(np.arange(4500, 6500)))
        path = tmp_path / "finetune.uds"
        _, peak = traced_peak(lambda: data.save_raw(finetune, str(path)))
        # one record array per part and its bytes took 1.4 times the file
        assert peak < 0.25 * path.stat().st_size

    @pytest.mark.parametrize("field, header", [
        ("H", (0, 2, 1, 3)), ("W", (2, 0, 1, 3)), ("C", (2, 2, 0, 3)),
        ("K", (2, 2, 1, 1)), ("K", (2, 2, 1, 0))])
    def test_zero_size_or_one_class_header_refused(self, tmp_path, field, header):
        height, width, channels, k = header
        path = tmp_path / "header.uds"
        path.write_bytes(data.MAGIC + struct.pack("<IIIII", 2, *header)
                         + bytes(2 * (2 + 4 * height * width * channels)))
        with pytest.raises(DatasetFormatError, match=f"UDS header {field} must be >= "):
            data.load_raw(str(path))

    def test_header_with_more_classes_than_u16_labels_hold_refused(self, tmp_path):
        path = tmp_path / "header.uds"
        path.write_bytes(data.MAGIC + struct.pack("<IIIII", 1, 1, 1, 1, 65537) + bytes(6))
        with pytest.raises(DatasetFormatError, match="UDS header K must be <= 65536, got 65537"):
            data.load_raw(str(path))

    @pytest.mark.parametrize("field, header", [
        ("H", (0, 2, 1, 3)), ("W", (2, 0, 1, 3)), ("C", (2, 2, 0, 3)),
        ("K", (2, 2, 1, 1)), ("K", (1, 1, 1, 65537))])
    def test_save_refuses_what_load_refuses_and_writes_nothing(self, tmp_path, field, header):
        height, width, channels, k = header
        ds = data.Dataset(pixels=np.zeros((2, height * width * channels), dtype=np.float32),
                          labels=np.array([0, 0]), height=height, width=width,
                          channels=channels, k=k)
        path = tmp_path / "bad.uds"
        with pytest.raises(ValidationError, match=f"UDS header {field} must be"):
            data.save_raw(ds, str(path))
        assert not path.exists()

    def test_largest_header_roundtrips(self, tmp_path):
        ds = data.Dataset(pixels=np.zeros((2, 1), dtype=np.float32),
                          labels=np.array([0, 65535]), height=1, width=1, channels=1,
                          k=65536)
        path = tmp_path / "wide.uds"
        data.save_raw(ds, str(path))
        loaded = data.load_raw(str(path))
        assert loaded.k == 65536 and loaded.labels.tolist() == [0, 65535]

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

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "header.uds"
        path.write_bytes(data.MAGIC + struct.pack("<IIII", 1, 2, 2, 1))  # k is missing
        with pytest.raises(TruncatedPayloadError, match="header"):
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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_refused_by_load_raw_and_validate(self, tmp_path, value):
        # NaN fails both range comparisons, so a rule written as "outside" passed it
        path = tmp_path / "pixel.uds"
        pixels = np.array([0.0, 0.5, value, 1.0], dtype="<f4")
        blob = data.MAGIC + struct.pack("<IIIII", 1, 2, 2, 1, 3)
        path.write_bytes(blob + struct.pack("<H", 0) + pixels.tobytes())
        with pytest.raises(PixelRangeError, match="not finite"):
            data.load_raw(str(path))
        ds = data.Dataset(pixels=pixels[None, :].astype(np.float32),
                          labels=np.array([0], dtype=np.int64), height=2, width=2,
                          channels=1, k=3)
        with pytest.raises(PixelRangeError, match="not finite"):
            ds.validate()


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

    @pytest.mark.parametrize("mode", ["random", "difficult"])
    def test_forgetting_test_subset_needs_class_mode(self, mode):
        with pytest.raises(ValidationError, match="needs class mode"):
            data.forgetting_test_subset(small_blobs(split="test"),
                                        data.ForgettingSpec(mode=mode, ratio=0.1))

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

    @pytest.mark.parametrize("mapping", [[0] * 6, [2] * 6])
    def test_mapping_to_one_class_refused(self, mapping):
        with pytest.raises(ValidationError, match="mapping classes must be >= 2, got 1"):
            data.to_superclass(small_blobs(), mapping)

    def test_negative_superclass_refused_for_uds_input(self, tmp_path):
        # a label of -1 would index the last class in training and never
        # count as right in accuracy
        path = tmp_path / "train.uds"
        data.save_raw(small_blobs(), str(path))
        with pytest.raises(ValidationError, match="must be >= 0, got -1"):
            data.to_superclass(data.load_raw(str(path)), [-1, 0, 1, 1, 2, 2])


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
        joined = data.concat(soft, soft)
        assert joined.subset(np.arange(len(joined))).soft_labels.shape == (2 * len(hard), hard.k)

    @staticmethod
    def one_array(first, second):
        """The rows of `first` and `second` joined into one array per column."""
        soft = None if first.soft_labels is None else np.concatenate(
            [first.soft_labels, second.soft_labels])
        return data.Dataset(np.concatenate([first.pixels, second.pixels]),
                            np.concatenate([first.labels, second.labels]),
                            first.height, first.width, first.channels, first.k,
                            ids=np.concatenate([first.ids, second.ids]), soft_labels=soft)

    @pytest.mark.parametrize("labels", ["hard", "soft"])
    @pytest.mark.parametrize("sizes", [(100, 20), (0, 20), (100, 0)])
    def test_joined_rows_are_the_rows_of_one_array(self, labels, sizes):
        ds = small_blobs()
        if labels == "soft":
            soft = nn.softmax(np.random.default_rng(3).normal(size=(len(ds), ds.k)))
            ds = replace(ds, soft_labels=soft.astype(np.float32))
        first = ds.subset(np.arange(sizes[0]))
        second = ds.subset(np.arange(len(ds) - sizes[1], len(ds)))
        joined, whole = data.concat(first, second), self.one_array(first, second)
        assert len(joined) == len(whole) and np.array_equal(joined.ids, whole.ids)
        rng = np.random.default_rng(4)
        n = len(whole)
        for idx in (np.arange(n), rng.permutation(n)[:7], np.arange(sizes[0]),
                    np.arange(sizes[0], n), np.array([], dtype=np.int64)):
            for got, want in zip(joined.rows(idx), whole.rows(idx)):
                assert (got is None and want is None) or (
                    got.dtype == want.dtype and np.array_equal(got, want))
        backwards = np.arange(n)[::-1]
        for name in ("pixels", "labels", "ids", "soft_labels"):
            got, want = (getattr(d.subset(backwards), name) for d in (joined, whole))
            assert (got is None and want is None) or np.array_equal(got, want), name

    def test_joined_set_refers_to_its_parts(self):
        ds = small_blobs()
        first, second = ds.subset(np.arange(100)), ds.subset(np.arange(100, 120))
        joined = data.concat(first, second)
        assert joined.parts == (first, second) and joined.first.pixels is first.pixels
        assert joined.second.labels is second.labels and joined.k == ds.k

    def test_joined_set_saves_the_bytes_of_one_array(self, tmp_path):
        ds = small_blobs()
        first, second = ds.subset(np.arange(30, len(ds))), ds.subset(np.arange(30))
        data.save_raw(data.concat(first, second), str(tmp_path / "joined.uds"))
        data.save_raw(self.one_array(first, second), str(tmp_path / "whole.uds"))
        assert (tmp_path / "joined.uds").read_bytes() == (tmp_path / "whole.uds").read_bytes()

    def test_validate_catches_bad_soft_labels(self):
        ds = small_blobs()
        soft = np.full((len(ds), ds.k), 0.5, dtype=np.float32)
        bad = data.Dataset(pixels=ds.pixels, labels=ds.labels, height=4, width=4,
                           channels=1, k=6, soft_labels=soft)
        with pytest.raises(ValidationError):
            bad.validate()

    @pytest.mark.parametrize("fault, error", [
        ("pixel shape", ValidationError), ("label length", ValidationError),
        ("id length", ValidationError), ("label range", LabelRangeError),
        ("soft-label shape", ValidationError)])
    def test_validate_refuses_each_inconsistency(self, fault, error):
        ds = small_blobs()
        bad = {"pixel shape": lambda: replace(ds, pixels=ds.pixels[:, :-1]),
               "label length": lambda: replace(ds, labels=ds.labels[:-1]),
               "id length": lambda: replace(ds, ids=ds.ids[:-1]),
               "label range": lambda: replace(ds, labels=np.where(ds.labels == 0, ds.k,
                                                                  ds.labels)),
               "soft-label shape": lambda: replace(ds, soft_labels=np.full(
                   (len(ds), ds.k + 1), 1.0 / (ds.k + 1), dtype=np.float32))}[fault]()
        ds.validate()
        with pytest.raises(error) as info:
            bad.validate()
        assert type(info.value) is error

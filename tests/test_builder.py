from dataclasses import replace

import numpy as np
import pytest

from natmu import builder, data, masks, nn
from natmu.errors import (
    CategoryExhaustedError,
    ShapeMismatchError,
    ValidationError,
)
from natmu.seeding import derive_seed


def fixed_logits_model(logits, input_dim):
    """Zero weights, bias = logits: every input maps to the same logits."""
    logits = np.asarray(logits, dtype=np.float32)
    return nn.Model([nn.Layer(np.zeros((len(logits), input_dim), dtype=np.float32),
                              logits.copy())])


def one_sample(ds, label):
    """The first row of `ds` as a one-sample forgetting set labelled `label`."""
    return replace(ds.subset([0]), labels=np.array([label], dtype=np.int64))


def reference_build(d_f, d_r, logits, mask_set, variant, seed, n, shuffle_masks):
    """The per-row construction, fed one row of logits per forgetting sample:
    (pixels, labels, ids, forget ids, remaining ids, mask indices)."""
    rows, family = [], len(mask_set)
    base = max(int(d_f.ids.max()), int(d_r.ids.max())) + 1
    for i, fid in enumerate(int(f) for f in d_f.ids):
        x_f, rng = d_f.pixels[i], np.random.default_rng(derive_seed(seed, "select", fid))
        picks = []
        for c in np.argsort(-logits[i], kind="stable"):
            candidates = d_r.class_indices(int(c))
            if int(c) != d_f.labels[i] and len(candidates) and len(picks) < n:
                picks.append((int(candidates[rng.integers(len(candidates))]), int(c)))
        mask_rng = np.random.default_rng(derive_seed(seed, "masks", fid))
        plan = (list(range(n)) if n == family else
                sorted(int(j) for j in mask_rng.choice(family, size=n, replace=False))
                if n < family else [j % family for j in range(n)])
        if shuffle_masks:
            plan = [plan[j] for j in mask_rng.permutation(n)]
        for j, ((pos, category), m) in enumerate(zip(picks, plan)):
            w = np.repeat(mask_set[m].reshape(-1), d_f.channels)
            x_r = d_r.pixels[pos] if variant == builder.NATMU else np.zeros_like(x_f)
            pixels = (x_f.copy() if variant == builder.MULTI_LABEL
                      else (x_f * w + x_r * (1.0 - w)).astype(np.float32))
            rows.append((pixels, category, base + fid * n + j, fid,
                         int(d_r.ids[pos]), m))
    return tuple(np.array(column) for column in zip(*rows))


@pytest.fixture(scope="module")
def blob_world():
    ds = data.synth_blobs(6, 25, 4, 4, 1, spread=0.3, seed=31)
    spec = data.ForgettingSpec(mode="random", ratio=0.1, seed=32)
    d_f, d_r = data.split_forget(ds, spec)
    model = nn.init_model([ds.dim, 16, ds.k], seed=33)
    mask_set = masks.four_masks(4, 4, -0.031)
    return ds, d_f, d_r, model, mask_set


class TestReference:
    @pytest.fixture(scope="class")
    def wide_world(self):
        # 8 classes, so n = 6 <= K-1 cycles through the four masks
        ds = data.synth_blobs(8, 20, 4, 4, 1, spread=0.3, seed=61)
        d_f, d_r = data.split_forget(ds, data.ForgettingSpec(mode="random", ratio=0.15,
                                                             seed=62))
        model = nn.init_model([ds.dim, 16, ds.k], seed=63)
        return d_f, d_r, model, masks.four_masks(4, 4, -0.031)

    @pytest.mark.parametrize("chunk", [1, 5, 1000])  # a sample, an odd size, the whole set
    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("shuffle_masks", [False, True])
    @pytest.mark.parametrize("variant", builder.VARIANTS)
    def test_columns_equal_the_per_row_construction(self, wide_world, monkeypatch, variant,
                                                    shuffle_masks, n, chunk):
        monkeypatch.setattr(builder, "BLEND_CHUNK", chunk)
        d_f, d_r, model, mask_set = wide_world
        hybrids = builder.build_unlearning_set(d_f, d_r, model, mask_set, variant=variant,
                                               seed=9, n=n, shuffle_masks=shuffle_masks)
        want = reference_build(d_f, d_r, nn.predict_logits(model, d_f.pixels), mask_set,
                               variant, 9, n, shuffle_masks)
        got = (hybrids.data.pixels, hybrids.data.labels, hybrids.data.ids,
               hybrids.forget_ids, hybrids.remaining_ids, hybrids.mask_index)
        for name, a, b in zip(("pixels", "labels", "ids", "forget_ids", "remaining_ids",
                               "mask_index"), got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    @pytest.mark.parametrize("chunk", [1, 5, 1000])
    def test_empty_forgetting_set_builds_no_hybrids(self, wide_world, monkeypatch, chunk):
        monkeypatch.setattr(builder, "BLEND_CHUNK", chunk)
        d_f, d_r, model, mask_set = wide_world
        empty = d_f.subset(np.array([], dtype=np.int64))
        hybrids = builder.build_unlearning_set(empty, d_r, model, mask_set, seed=9)
        assert len(hybrids) == 0 and hybrids.data.pixels.shape == (0, d_f.dim)
        for column in (hybrids.forget_ids, hybrids.remaining_ids, hybrids.mask_index):
            assert column.shape == (0,)
        finetune = builder.build_finetune_dataset(d_r, hybrids)
        finetune = finetune.subset(np.arange(len(finetune)))
        for name in ("pixels", "labels", "ids"):
            a, b = getattr(finetune, name), getattr(d_r, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestBlendMemory:
    def test_blend_temporaries_stay_a_fixed_size(self, traced_peak):
        # subclass-sgd's scale: 500 forgetting samples, n = 4 hybrids each, 16x16
        ds = data.synth_blobs(10, 500, 16, 16, 1, seed=1)
        d_f, d_r = ds.subset(np.arange(500)), ds.subset(np.arange(500, 5000))
        model = nn.init_model([ds.dim, 64, 64, ds.k], seed=0)
        hybrids, peak = traced_peak(lambda: builder.build_unlearning_set(
            d_f, d_r, model, masks.four_masks(16, 16, -0.031), seed=1))
        # the whole-set broadcast blend took 4 times the hybrids' pixels
        assert peak < hybrids.data.pixels.nbytes + 1_000_000


class TestInject:
    def test_all_ones_keeps_first_sample(self):
        ones = np.ones(4, dtype=np.float32)
        x_f = np.array([0.1, 0.2, 0.3, 0.4], dtype=np.float32)
        x_r = np.array([0.9, 0.8, 0.7, 0.6], dtype=np.float32)
        assert np.array_equal(builder.inject(x_f, x_r, ones), x_f)

    def test_all_zeros_keeps_second_sample(self):
        zeros = np.zeros(4, dtype=np.float32)
        x_f = np.array([0.1, 0.2, 0.3, 0.4], dtype=np.float32)
        x_r = np.array([0.9, 0.8, 0.7, 0.6], dtype=np.float32)
        assert np.array_equal(builder.inject(x_f, x_r, zeros), x_r)

    def test_identical_inputs_are_a_fixed_point(self):
        rng = np.random.default_rng(2)
        weights = rng.random((3, 4)).astype(np.float32)
        x = rng.random((3, 4)).astype(np.float32)
        np.testing.assert_allclose(builder.inject(x, x.copy(), weights), x, atol=1e-7)

    def test_channels_broadcast(self):
        mask = np.array([[1.0, 0.0]], dtype=np.float32)
        x_f = np.array([0.1, 0.2, 0.3, 0.4], dtype=np.float32)  # (1,2,2) image
        x_r = np.array([[0.5, 0.6, 0.7, 0.8], [0.9, 0.9, 0.9, 0.9]], dtype=np.float32)
        weights = np.stack([np.repeat(mask.reshape(-1), 2)] * 2)
        out = builder.inject(x_f, x_r, weights)  # one forgetting row, two hybrids
        np.testing.assert_allclose(out, [[0.1, 0.2, 0.7, 0.8], [0.1, 0.2, 0.9, 0.9]],
                                   atol=1e-7)

    def test_writes_into_out(self):
        rng = np.random.default_rng(4)
        x_f, x_r, weights = (rng.random((3, 4), dtype=np.float32) for _ in range(3))
        out = np.empty((3, 4), dtype=np.float32)
        assert builder.inject(x_f, x_r, weights, out=out) is out
        assert np.array_equal(out, x_f * weights + x_r * (1.0 - weights))

    def test_shape_mismatch(self):
        ones = np.ones(4, dtype=np.float32)
        with pytest.raises(ShapeMismatchError):
            builder.inject(np.zeros(4, dtype=np.float32),
                           np.zeros(5, dtype=np.float32), ones)
        with pytest.raises(ShapeMismatchError):  # the inputs may not widen the weights
            builder.inject(np.zeros((2, 4), dtype=np.float32),
                           np.zeros(4, dtype=np.float32), ones)


class TestSelectRemaining:
    def test_top_categories_exclude_original(self, blob_world):
        ds, _, d_r, _, _ = blob_world
        d_r3 = d_r.subset(np.nonzero(d_r.labels < 3)[0])
        d_r3 = data.Dataset(pixels=d_r3.pixels, labels=d_r3.labels, height=4,
                            width=4, channels=1, k=3, ids=d_r3.ids)
        model = fixed_logits_model([9.0, 1.0, 5.0], ds.dim)
        _, categories = builder.select_remaining(model, one_sample(ds, 0), d_r3, 2, 0)
        assert categories.tolist() == [[2, 1]]

    def test_tie_broken_by_ascending_class(self, blob_world):
        ds, _, d_r, _, _ = blob_world
        model = fixed_logits_model([9.0, 4.0, 4.0, 0.0, 0.0, 0.0], ds.dim)
        _, categories = builder.select_remaining(model, one_sample(ds, 0), d_r, 1, 0)
        assert categories.tolist() == [[1]]

    def test_n_equals_k_minus_one_is_exhaustive(self, blob_world):
        ds, _, d_r, model, _ = blob_world
        _, categories = builder.select_remaining(model, one_sample(ds, 2), d_r, 5, 0)
        assert sorted(categories[0].tolist()) == [0, 1, 3, 4, 5]

    def test_empty_category_skipped(self, blob_world):
        ds, _, d_r, _, _ = blob_world
        model = fixed_logits_model([0.0, 9.0, 8.0, 7.0, 0.0, 0.0], ds.dim)
        without_1 = d_r.subset(np.nonzero(d_r.labels != 1)[0])
        _, categories = builder.select_remaining(model, one_sample(ds, 0), without_1, 2, 0)
        assert categories.tolist() == [[2, 3]]

    def test_exhausted_categories_error(self, blob_world):
        ds, _, d_r, model, _ = blob_world
        only_two = d_r.subset(np.nonzero(d_r.labels < 2)[0])
        with pytest.raises(CategoryExhaustedError):
            builder.select_remaining(model, one_sample(ds, 0), only_two, 2, 0)

    @staticmethod
    def assert_rejected_before_forward(blob_world, monkeypatch, n):
        _, d_f, d_r, model, _ = blob_world
        calls = []
        monkeypatch.setattr(builder, "predict_logits", lambda *a: calls.append(a))
        with pytest.raises(ValidationError):
            builder.select_remaining(model, d_f, d_r, n, 0)
        assert calls == []  # checked once, before the forward

    def test_n_exceeding_categories_rejected(self, blob_world, monkeypatch):
        self.assert_rejected_before_forward(blob_world, monkeypatch, 6)

    def test_n_zero_rejected(self, blob_world, monkeypatch):
        self.assert_rejected_before_forward(blob_world, monkeypatch, 0)

    def test_instances_come_from_their_category(self, blob_world):
        _, d_f, d_r, model, _ = blob_world
        positions, categories = builder.select_remaining(model, d_f, d_r, 4, 3)
        assert positions.shape == categories.shape == (len(d_f), 4)
        assert np.array_equal(d_r.labels[positions], categories)


class TestBuildUnlearningSet:
    def test_count_is_n_per_forgetting_sample(self, blob_world):
        _, d_f, d_r, model, mask_set = blob_world
        hybrids = builder.build_unlearning_set(d_f, d_r, model, mask_set, seed=1)
        assert len(hybrids) == 4 * len(d_f)
        assert np.array_equal(hybrids.forget_ids, np.repeat(d_f.ids, 4))

    def test_saturated_mask_degenerates_to_multi_label(self, blob_world):
        _, d_f, d_r, model, _ = blob_world
        saturated = masks.four_masks(4, 4, 1.0)
        natmu = builder.build_unlearning_set(d_f, d_r, model, saturated, seed=1)
        multi = builder.build_unlearning_set(d_f, d_r, model, saturated,
                                             variant=builder.MULTI_LABEL, seed=1)
        assert np.array_equal(natmu.data.pixels, multi.data.pixels)
        assert np.array_equal(natmu.data.labels, multi.data.labels)

    def test_segmentation_only_zero_fills(self, blob_world):
        _, d_f, d_r, model, mask_set = blob_world
        hybrids = builder.build_unlearning_set(
            d_f, d_r, model, mask_set, variant=builder.SEGMENTATION_ONLY, seed=1)
        by_id = {int(i): k for k, i in enumerate(d_f.ids)}
        for pixels, fid, m in zip(hybrids.data.pixels, hybrids.forget_ids,
                                  hybrids.mask_index):
            expected = d_f.pixels[by_id[int(fid)]] * np.repeat(mask_set[m].reshape(-1), 1)
            np.testing.assert_allclose(pixels, expected, atol=1e-7)

    def test_reassigned_labels_valid(self, blob_world):
        _, d_f, d_r, model, mask_set = blob_world
        hybrids = builder.build_unlearning_set(d_f, d_r, model, mask_set, seed=2)
        originals = dict(zip(d_f.ids.tolist(), d_f.labels.tolist()))
        per_sample = {}
        for label, fid in zip(hybrids.data.labels.tolist(), hybrids.forget_ids.tolist()):
            assert label != originals[fid]
            per_sample.setdefault(fid, []).append(label)
        for labels in per_sample.values():
            assert len(set(labels)) == len(labels)
        r_labels = dict(zip(d_r.ids.tolist(), d_r.labels.tolist()))
        assert hybrids.data.labels.tolist() == [r_labels[r] for r in
                                                hybrids.remaining_ids.tolist()]

    def test_hybrid_pixels_are_convex_combinations(self, blob_world):
        _, d_f, d_r, model, mask_set = blob_world
        hybrids = builder.build_unlearning_set(d_f, d_r, model, mask_set, seed=2)
        f_by_id = {int(i): k for k, i in enumerate(d_f.ids)}
        r_by_id = {int(i): k for k, i in enumerate(d_r.ids)}
        x_f = d_f.pixels[[f_by_id[int(i)] for i in hybrids.forget_ids]]
        x_r = d_r.pixels[[r_by_id[int(i)] for i in hybrids.remaining_ids]]
        pixels = hybrids.data.pixels
        assert (pixels >= np.minimum(x_f, x_r) - 1e-6).all()
        assert (pixels <= np.maximum(x_f, x_r) + 1e-6).all()

    def test_mask_paired_with_rank(self, blob_world):
        _, d_f, d_r, model, mask_set = blob_world
        hybrids = builder.build_unlearning_set(d_f, d_r, model, mask_set, seed=2)
        assert hybrids.mask_index.reshape(-1, 4).tolist() == [[0, 1, 2, 3]] * len(d_f)

    def test_build_is_deterministic(self, blob_world):
        _, d_f, d_r, model, mask_set = blob_world
        a = builder.build_unlearning_set(d_f, d_r, model, mask_set, seed=3)
        b = builder.build_unlearning_set(d_f, d_r, model, mask_set, seed=3)
        for x, y in ((a.data.pixels, b.data.pixels), (a.data.labels, b.data.labels),
                     (a.data.ids, b.data.ids), (a.forget_ids, b.forget_ids),
                     (a.remaining_ids, b.remaining_ids), (a.mask_index, b.mask_index)):
            assert np.array_equal(x, y)

    def test_permuting_forgetting_set_permutes_output(self, blob_world):
        _, d_f, d_r, model, mask_set = blob_world
        base = builder.build_unlearning_set(d_f, d_r, model, mask_set, seed=3)
        perm = np.random.default_rng(8).permutation(len(d_f))
        permuted = builder.build_unlearning_set(d_f.subset(perm), d_r, model,
                                                mask_set, seed=3)
        rows = (perm[:, None] * 4 + np.arange(4)).reshape(-1)  # base rows, permuted order
        assert len(set(zip(base.forget_ids.tolist(), base.mask_index.tolist()))) == len(base)
        for x, y in ((base.data.pixels, permuted.data.pixels),
                     (base.data.labels, permuted.data.labels),
                     (base.data.ids, permuted.data.ids),
                     (base.forget_ids, permuted.forget_ids),
                     (base.remaining_ids, permuted.remaining_ids),
                     (base.mask_index, permuted.mask_index)):
            assert np.array_equal(x[rows], y)

    def test_permuted_build_trains_identically_after_canonical_order(self, blob_world):
        _, d_f, d_r, model, mask_set = blob_world
        perm = np.random.default_rng(8).permutation(len(d_f))
        ft_a = builder.build_finetune_dataset(
            d_r, builder.build_unlearning_set(d_f, d_r, model, mask_set, seed=3))
        ft_b = builder.build_finetune_dataset(
            d_r, builder.build_unlearning_set(d_f.subset(perm), d_r, model,
                                              mask_set, seed=3))
        cfg = nn.TrainConfig(epochs=2, batch_size=16, base_lr=1e-3, seed=5)
        out_a = nn.train(model, ft_a.subset(np.argsort(ft_a.ids, kind="stable")), cfg)
        out_b = nn.train(model, ft_b.subset(np.argsort(ft_b.ids, kind="stable")), cfg)
        for pa, pb in zip(out_a.params(), out_b.params()):
            assert np.array_equal(pa, pb)

    def test_shuffle_flag_changes_pairing_only(self, blob_world):
        _, d_f, d_r, model, mask_set = blob_world
        base = builder.build_unlearning_set(d_f, d_r, model, mask_set, seed=3)
        shuffled = builder.build_unlearning_set(d_f, d_r, model, mask_set, seed=3,
                                                shuffle_masks=True)
        assert np.array_equal(base.data.labels, shuffled.data.labels)
        assert np.array_equal(base.remaining_ids, shuffled.remaining_ids)
        assert not np.array_equal(base.mask_index, shuffled.mask_index)

    def test_small_n_uses_mask_subset(self, blob_world):
        _, d_f, d_r, model, mask_set = blob_world
        hybrids = builder.build_unlearning_set(d_f, d_r, model, mask_set, seed=4, n=2)
        assert len(hybrids) == 2 * len(d_f)
        assert ((hybrids.mask_index >= 0) & (hybrids.mask_index < 4)).all()

    def test_unknown_variant_rejected(self, blob_world):
        _, d_f, d_r, model, mask_set = blob_world
        with pytest.raises(ValidationError):
            builder.build_unlearning_set(d_f, d_r, model, mask_set,
                                         variant="adversarial", seed=0)


class TestFinetuneDataset:
    def test_empty_instances_is_remaining_set(self, blob_world):
        _, d_f, d_r, model, mask_set = blob_world
        empty = d_f.subset(np.array([], dtype=np.int64))
        ft = builder.build_finetune_dataset(
            d_r, builder.build_unlearning_set(empty, d_r, model, mask_set, seed=5))
        assert len(ft) == len(d_r)
        ft = ft.subset(np.arange(len(ft)))
        assert np.array_equal(ft.pixels, d_r.pixels)
        assert np.array_equal(ft.labels, d_r.labels)
        assert np.array_equal(ft.ids, d_r.ids)

    def test_size_identity(self, blob_world):
        _, d_f, d_r, model, mask_set = blob_world
        hybrids = builder.build_unlearning_set(d_f, d_r, model, mask_set, seed=5)
        ft = builder.build_finetune_dataset(d_r, hybrids)
        assert len(ft) == len(d_r) + 4 * len(d_f)

    def test_bookkeeping_flags(self, blob_world):
        # the rows after the remaining set are the hybrids, one provenance entry each
        _, d_f, d_r, model, mask_set = blob_world
        hybrids = builder.build_unlearning_set(d_f, d_r, model, mask_set, seed=5)
        ft = builder.build_finetune_dataset(d_r, hybrids)
        ft = ft.subset(np.arange(len(ft)))
        for name in ("pixels", "labels", "ids"):
            assert np.array_equal(getattr(ft, name)[len(d_r):], getattr(hybrids.data, name))
        for column in (hybrids.forget_ids, hybrids.remaining_ids, hybrids.mask_index):
            assert len(column) == len(hybrids)

    def test_remaining_rows_unmodified(self, blob_world):
        _, d_f, d_r, model, mask_set = blob_world
        hybrids = builder.build_unlearning_set(d_f, d_r, model, mask_set, seed=5)
        ft = builder.build_finetune_dataset(d_r, hybrids)
        ft = ft.subset(np.arange(len(ft)))
        assert np.array_equal(ft.pixels[:len(d_r)], d_r.pixels)
        assert np.array_equal(ft.labels[:len(d_r)], d_r.labels)
        assert np.array_equal(ft.ids[:len(d_r)], d_r.ids)

    def test_constructed_ids_unique_and_disjoint(self, blob_world):
        _, d_f, d_r, model, mask_set = blob_world
        hybrids = builder.build_unlearning_set(d_f, d_r, model, mask_set, seed=5)
        ft = builder.build_finetune_dataset(d_r, hybrids)
        ids = ft.ids.tolist()
        assert len(set(ids)) == len(ids)
        new_ids = set(ids) - set(d_r.ids.tolist())
        assert len(new_ids) == len(hybrids)
        assert not new_ids & set(d_f.ids.tolist())

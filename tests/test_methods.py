import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from natmu import data, metrics, methods, nn
from natmu.errors import (
    DivergenceError,
    RetrainIsolationError,
    ValidationError,
)
from natmu.seeding import derive_seed


@pytest.fixture(scope="module")
def world():
    ds = data.synth_blobs(6, 40, 6, 6, 1, spread=0.4, seed=41)
    spec = data.ForgettingSpec(mode="random", ratio=0.1, seed=42)
    d_f, d_r = data.split_forget(ds, spec)
    cfg = nn.TrainConfig(epochs=8, batch_size=32, base_lr=2e-3,
                         weight_decay=5e-4, seed=43)
    model0 = nn.init_model(methods.default_dims(ds.dim, ds.k), seed=44)
    model_o = nn.train(model0, ds, cfg)
    return ds, d_f, d_r, model_o


def make_request(world, **overrides):
    _, d_f, d_r, model_o = world
    kwargs = dict(model=model_o, d_f=d_f, d_r=d_r,
                  config=nn.TrainConfig(epochs=3, batch_size=32, base_lr=2e-3,
                                        weight_decay=5e-4, seed=0),
                  params=methods.MethodParams(), seed=7)
    kwargs.update(overrides)
    return methods.UnlearnRequest(**kwargs)


class TestRetrain:
    def test_audit_log_never_contains_forgetting_ids(self, world):
        _, d_f, d_r, _ = world
        cfg = nn.TrainConfig(epochs=2, batch_size=32, base_lr=1e-3, seed=3)
        _, audit = methods.retrain(d_r, cfg, forbidden_ids=frozenset(
            int(i) for i in d_f.ids))
        assert audit == {"batches_logged": 2 * len(d_r), "forbidden_ids": len(d_f),
                         "violations": 0}

    def test_violation_detected(self, world):
        _, _, d_r, _ = world
        cfg = nn.TrainConfig(epochs=1, batch_size=32, base_lr=1e-3, seed=3)
        with pytest.raises(RetrainIsolationError):
            methods.retrain(d_r, cfg, forbidden_ids=frozenset(
                int(i) for i in d_r.ids[:1]))

    def test_empty_remaining_set_rejected(self, world):
        ds, _, _, _ = world
        empty = ds.subset(np.array([], dtype=int))
        with pytest.raises(ValidationError):
            methods.retrain(empty, nn.TrainConfig(epochs=1, batch_size=4,
                                                  base_lr=1e-3))

    def test_empty_forgetting_set_reduces_to_pretraining(self, world):
        # same pipeline, full data: retrain with nothing forbidden matches
        # a fresh seeded training run bit for bit
        ds, _, _, _ = world
        cfg = nn.TrainConfig(epochs=3, batch_size=32, base_lr=1e-3, seed=91)
        retrained, _ = methods.retrain(ds, cfg)
        model0 = nn.init_model(methods.default_dims(ds.dim, ds.k),
                               derive_seed(cfg.seed, "init"))
        pretrained = nn.train(model0, ds, cfg)
        for a, b in zip(retrained.params(), pretrained.params()):
            assert np.array_equal(a, b)

    def test_test_accuracy_close_to_pretrain(self):
        # forgetting 10% of easy blobs barely moves generalization
        ds = data.synth_blobs(6, 60, 6, 6, 1, spread=0.4, seed=51)
        test = data.synth_blobs(6, 30, 6, 6, 1, spread=0.4, seed=51, split="test")
        cfg = nn.TrainConfig(epochs=30, batch_size=32, base_lr=1e-3,
                             weight_decay=5e-4, seed=52)
        model0 = nn.init_model(methods.default_dims(ds.dim, ds.k), seed=53)
        pretrained = nn.train(model0, ds, cfg)
        d_f, d_r = data.split_forget(ds, data.ForgettingSpec(mode="random",
                                                             ratio=0.1, seed=54))
        retrained, _ = methods.retrain(d_r, cfg)
        gap = abs(metrics.accuracy(pretrained, test) - metrics.accuracy(retrained, test))
        assert gap <= 2.0


class TestNatmu:
    def test_zero_epochs_returns_original(self, world):
        request = make_request(world, config=nn.TrainConfig(
            epochs=0, batch_size=32, base_lr=1e-3, seed=0))
        out = methods.unlearn_natmu(request)
        for a, b in zip(out.params(), world[3].params()):
            assert np.array_equal(a, b)

    def test_deterministic(self, world):
        request = make_request(world)
        a = methods.unlearn_natmu(request)
        b = methods.unlearn_natmu(request)
        for pa, pb in zip(a.params(), b.params()):
            assert np.array_equal(pa, pb)

    def test_finetune_set_keeps_remaining_labels(self, world):
        _, _, d_r, _ = world
        finetune = methods.natmu_finetune_set(make_request(world))
        finetune = finetune.subset(np.arange(len(finetune)))
        assert np.array_equal(finetune.labels[:len(d_r)], d_r.labels)
        assert finetune.soft_labels is None

    def test_default_parameters_match_reference_run(self):
        params = methods.MethodParams()
        assert params.n == 4
        assert params.delta == pytest.approx(-0.031)
        assert params.mask_family == "gradual"
        # reference learning rate and weight decay are accepted verbatim
        nn.TrainConfig(epochs=5, batch_size=128, base_lr=0.00107,
                       weight_decay=0.0005)

    def test_reinit_final_layer(self, world):
        request = make_request(world,
                               config=nn.TrainConfig(epochs=0, batch_size=32,
                                                     base_lr=1e-3, seed=0),
                               params=methods.MethodParams(reinit_final_layer=True))
        out = methods.unlearn_natmu(request)
        original = world[3]
        assert not np.array_equal(out.layers[-1].weight, original.layers[-1].weight)
        for a, b in zip(out.layers[:-1], original.layers[:-1]):
            assert np.array_equal(a.weight, b.weight)

    def test_overlapping_splits_rejected(self, world):
        ds, d_f, d_r, model_o = world
        with pytest.raises(ValidationError):
            methods.UnlearnRequest(model=model_o, d_f=d_f, d_r=ds,
                                   config=nn.TrainConfig(epochs=1, batch_size=8,
                                                         base_lr=1e-3))


class TestAmnesiac:
    def test_every_relabel_differs_from_original(self, world):
        request = make_request(world)
        relabeled = methods.amnesiac_relabeled(request)
        _, d_f, _, _ = world
        assert (relabeled.labels != d_f.labels).all()
        assert (relabeled.labels >= 0).all() and (relabeled.labels < d_f.k).all()

    def test_labels_fixed_once_per_run(self, world):
        request = make_request(world)
        a = methods.amnesiac_relabeled(request)
        b = methods.amnesiac_relabeled(request)
        assert np.array_equal(a.labels, b.labels)

    def test_one_class_refused(self, world):
        _, d_f, _, _ = world
        request = make_request(world, d_f=replace(d_f, k=1))
        with pytest.raises(ValidationError, match="needs at least 2 classes"):
            methods.amnesiac_relabeled(request)

    def test_finetune_size(self, world):
        _, d_f, d_r, _ = world
        request = make_request(world)
        finetune = data.concat(d_r, methods.amnesiac_relabeled(request))
        assert len(finetune) == len(d_r) + len(d_f)

    def test_deterministic(self, world):
        request = make_request(world)
        a = methods.unlearn_amnesiac(request)
        b = methods.unlearn_amnesiac(request)
        for pa, pb in zip(a.params(), b.params()):
            assert np.array_equal(pa, pb)

    def test_over_forgetting_direction_majority_of_seeds(self):
        # relabeling drives forgetting accuracy below the retrained model's
        below = 0
        for root in (1, 2, 3):
            ds = data.synth_blobs(10, 250, 16, 16, 1,
                                  seed=derive_seed(root, "dataset"))
            pre_cfg = nn.TrainConfig(epochs=25, batch_size=64, base_lr=1e-3,
                                     weight_decay=5e-4,
                                     seed=derive_seed(root, "pretrain"))
            model0 = nn.init_model(methods.default_dims(ds.dim, ds.k),
                                   derive_seed(derive_seed(root, "pretrain"), "init"))
            model_o = nn.train(model0, ds, pre_cfg)
            d_f, d_r = data.split_forget(ds, data.ForgettingSpec(
                mode="random", ratio=0.02, seed=derive_seed(root, "forget")))
            model_r, _ = methods.retrain(
                d_r, pre_cfg.with_seed(derive_seed(root, "retrain")),
                forbidden_ids=frozenset(int(i) for i in d_f.ids))
            request = methods.UnlearnRequest(
                model=model_o, d_f=d_f, d_r=d_r,
                config=nn.TrainConfig(epochs=5, batch_size=64, base_lr=4e-3,
                                      weight_decay=5e-4, seed=0),
                seed=derive_seed(root, "m"))
            unlearned = methods.unlearn_amnesiac(request)
            below += metrics.accuracy(unlearned, d_f) < metrics.accuracy(model_r, d_f)
        assert below >= 2


class TestBadTeacher:
    def test_targets_are_distributions(self, world):
        soft_r, soft_f = methods.badteacher_targets(make_request(world))
        for ds in (soft_r, soft_f):
            sums = ds.soft_labels.sum(axis=1)
            assert np.abs(sums - 1.0).max() <= 1e-6
            assert (ds.soft_labels >= 0.0).all()

    def test_remaining_targets_come_from_original_model(self, world):
        _, _, d_r, model_o = world
        request = make_request(world, params=methods.MethodParams(temperature=2.0))
        soft_r, _ = methods.badteacher_targets(request)
        expected = nn.softmax(nn.predict_logits(model_o, d_r.pixels) / 2.0)
        np.testing.assert_allclose(soft_r.soft_labels, expected, atol=1e-6)

    def test_fresh_teacher_near_uniform_over_seeds(self, world):
        # a freshly initialized teacher should not prefer any class
        _, d_f, _, _ = world
        k = d_f.k
        for seed in (1, 2, 3, 4):
            request = make_request(world, seed=seed)
            _, soft_f = methods.badteacher_targets(request)
            assert soft_f.soft_labels.max(axis=1).mean() < 2.0 / k

    def test_high_temperature_flattens_targets(self, world):
        request = make_request(world, params=methods.MethodParams(temperature=1e6))
        soft_r, soft_f = methods.badteacher_targets(request)
        k = world[0].k
        for ds in (soft_r, soft_f):
            assert np.abs(ds.soft_labels - 1.0 / k).max() < 1e-4

    def test_deterministic(self, world):
        request = make_request(world)
        a = methods.unlearn_badteacher(request)
        b = methods.unlearn_badteacher(request)
        for pa, pb in zip(a.params(), b.params()):
            assert np.array_equal(pa, pb)


class TestNegGradPlus:
    def test_zero_ascent_equals_plain_finetuning(self, world):
        _, _, d_r, model_o = world
        request = make_request(world, params=methods.MethodParams(
            ascent_coefficient=0.0))
        out = methods.unlearn_neggrad_plus(request)
        cfg = request.config.with_seed(derive_seed(request.seed, "finetune"))
        plain = nn.train(model_o, d_r, cfg)
        for pa, pb in zip(out.params(), plain.params()):
            assert np.array_equal(pa, pb)

    def test_forgetting_loss_non_decreasing_on_fitted_remaining(self):
        # remaining data already fit, so steps are dominated by the ascent
        ds = data.synth_blobs(4, 30, 4, 4, 1, spread=0.2, seed=61)
        cfg = nn.TrainConfig(epochs=40, batch_size=32, base_lr=2e-3, seed=62)
        model0 = nn.init_model(methods.default_dims(ds.dim, ds.k), seed=63)
        fitted = nn.train(model0, ds, cfg)
        d_f, d_r = data.split_forget(ds, data.ForgettingSpec(mode="random",
                                                             ratio=0.1, seed=64))
        before, _ = nn.backward(fitted, d_f.pixels, labels=d_f.labels)
        request = methods.UnlearnRequest(
            model=fitted, d_f=d_f, d_r=d_r,
            config=nn.TrainConfig(epochs=1, batch_size=32, base_lr=1e-3, seed=0),
            params=methods.MethodParams(ascent_coefficient=1.0), seed=65)
        out = methods.unlearn_neggrad_plus(request)
        after, _ = nn.backward(out, d_f.pixels, labels=d_f.labels)
        assert after >= before - 1e-6

    def test_huge_ascent_triggers_divergence_guard(self, world):
        # plain SGD lets the ascent term blow the weights up to overflow
        request = make_request(world, params=methods.MethodParams(
            ascent_coefficient=1e6),
            config=nn.TrainConfig(epochs=5, batch_size=32, base_lr=1.0,
                                  optimizer="sgd", seed=0))
        with pytest.raises(DivergenceError):
            methods.unlearn_neggrad_plus(request)

    def test_overflowing_ascent_gradient_is_refused_before_the_update(self, world):
        # alpha times the forgetting loss stays finite in float64, alpha times
        # its gradient overflows float32: the step must not reach AdamW
        request = make_request(world, params=methods.MethodParams(ascent_coefficient=1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="gradient"):
                methods.unlearn_neggrad_plus(request)

    def test_negative_ascent_rejected(self):
        with pytest.raises(ValidationError):
            methods.MethodParams(ascent_coefficient=-0.1)

    def test_empty_forgetting_set_refused(self, world):
        _, d_f, _, _ = world
        request = make_request(world, d_f=d_f.subset(np.array([], dtype=np.int64)))
        with pytest.raises(ValidationError, match="non-empty remaining and forgetting"):
            methods.ascent_training_set(request)

    def test_deterministic(self, world):
        request = make_request(world, params=methods.MethodParams(
            ascent_coefficient=0.2))
        a = methods.unlearn_neggrad_plus(request)
        b = methods.unlearn_neggrad_plus(request)
        for pa, pb in zip(a.params(), b.params()):
            assert np.array_equal(pa, pb)


class TestUnlearningDataset:
    def test_relabeling_methods_expose_instances(self, world):
        request = make_request(world)
        _, d_f, _, _ = world
        natmu = methods.unlearning_dataset("natmu", request)
        assert len(natmu) == 4 * len(d_f)
        amnesiac = methods.unlearning_dataset("amnesiac", request)
        assert len(amnesiac) == len(d_f)
        badteacher = methods.unlearning_dataset("badteacher", request)
        assert badteacher.soft_labels is not None

    def test_relabeling_free_methods_have_none(self, world):
        assert methods.unlearning_dataset("neggrad", make_request(world)) is None
        assert methods.unlearning_dataset("retrain", make_request(world)) is None

    @pytest.mark.parametrize("method, build", [
        ("natmu", "build_unlearning_set"), ("badteacher", "init_model")])
    def test_built_once_per_request(self, world, monkeypatch, method, build):
        calls = []
        real = getattr(methods, build)
        monkeypatch.setattr(methods, build,
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        request = make_request(world)
        methods.UNLEARN_METHODS[method](request)
        methods.unlearning_dataset(method, request)
        methods.unlearning_dataset(method, request)
        assert len(calls) == 1

    @pytest.mark.parametrize("method", ["natmu", "amnesiac", "badteacher", "neggrad"])
    def test_a_set_built_before_the_method_is_the_one_it_trains_on(self, world, monkeypatch,
                                                                   method):
        request = make_request(world)
        job = methods.unlearn_job(method, request)
        trained_on = []
        train = nn.train
        monkeypatch.setattr(nn, "train", lambda model, dataset, *a, **k:
                            trained_on.append(dataset) or train(model, dataset, *a, **k))
        unlearned = methods.UNLEARN_METHODS[method](request, nn.submit(job))
        assert len(trained_on) == 1 and trained_on[0] is job.dataset
        assert np.array_equal(unlearned.flat, methods.UNLEARN_METHODS[method](request).flat)

    def test_matches_what_the_method_trained_on(self, world):
        request = make_request(world)
        a = methods.unlearning_dataset("natmu", request)
        finetune = methods.natmu_finetune_set(request)
        finetune = finetune.subset(np.arange(len(finetune)))
        assert np.array_equal(a.pixels, finetune.pixels[len(request.d_r):])
        assert np.array_equal(a.labels, finetune.labels[len(request.d_r):])


class TestJoinedSets:
    """natmu, amnesiac and badteacher train on the remaining set joined to
    their relabeled set (`data.concat`), which refers to `d_r`'s rows."""

    @pytest.mark.parametrize("method", ["natmu", "amnesiac", "badteacher"])
    def test_the_joined_set_shares_the_remaining_sets_pixels(self, world, method):
        request = make_request(world)
        joined = methods.unlearn_job(method, request).dataset
        assert np.shares_memory(joined.first.pixels, request.d_r.pixels)
        assert len(joined.first) == len(request.d_r)

    @pytest.mark.parametrize("method", ["natmu", "amnesiac", "badteacher"])
    def test_training_on_it_is_training_on_one_array(self, world, method):
        """Hard labels (natmu, amnesiac) and soft ones (badteacher): the
        batches, their ids and the trained bits of one array of its rows."""
        job = methods.unlearn_job(method, make_request(world))
        first, second = job.dataset.parts
        soft = None if first.soft_labels is None else np.concatenate(
            [first.soft_labels, second.soft_labels])
        whole = data.Dataset(np.concatenate([first.pixels, second.pixels]),
                             np.concatenate([first.labels, second.labels]),
                             first.height, first.width, first.channels, first.k,
                             ids=np.concatenate([first.ids, second.ids]), soft_labels=soft)
        batches = {}
        trained = {}
        for name, dataset in (("joined", job.dataset), ("whole", whole)):
            seen = batches[name] = []
            trained[name] = nn.train(*job._replace(
                dataset=dataset, batch_callback=lambda ids, seen=seen: seen.append(ids)))
        assert all(np.array_equal(a, b) for a, b in zip(batches["joined"], batches["whole"]))
        assert len(batches["joined"]) == len(batches["whole"]) > 0
        assert np.array_equal(trained["joined"].flat, trained["whole"].flat)


def columns(dataset):
    """The columns of `dataset` (joined or not) as one `Dataset`'s, or None."""
    if dataset is None:
        return None
    whole = dataset.subset(np.arange(len(dataset)))
    return whole.pixels, whole.labels, whole.ids, whole.soft_labels


def same_columns(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return all(x is y if x is None or y is None else np.array_equal(x, y)
               for x, y in zip(columns(a), columns(b)))


class TestMethodTable:
    """`METHODS`: one record per method, the retrain included."""

    def test_the_unlearners_are_the_table_without_the_retrain(self):
        assert list(methods.UNLEARN_METHODS) == [m for m in methods.METHODS if m != "retrain"]

    @pytest.mark.parametrize("method", [m for m, record in methods.METHODS.items()
                                        if not record.reads_model])
    def test_a_set_that_does_not_read_the_model_is_built_without_it(self, world, method):
        on_model, without = make_request(world), make_request(world, model=None)
        assert same_columns(methods.unlearning_dataset(method, on_model),
                            methods.unlearning_dataset(method, without))
        training_set = methods.METHODS[method].training_set
        if training_set is not None:
            assert same_columns(training_set(on_model)[0], training_set(without)[0])

    @pytest.mark.parametrize("method, column", [("natmu", "labels"),
                                                ("badteacher", "soft_labels")])
    def test_a_set_that_reads_the_model_changes_with_it(self, world, method, column):
        """Another model ranks other hybrid categories (natmu) and gives the
        remaining set other soft labels (badteacher)."""
        ds = world[0]
        other = nn.init_model(methods.default_dims(ds.dim, ds.k), seed=45)
        assert methods.METHODS[method].reads_model
        sets = [columns(methods.METHODS[method].training_set(make_request(world, model=m))[0])
                for m in (world[3], other)]
        index = ("pixels", "labels", "ids", "soft_labels").index(column)
        assert not np.array_equal(sets[0][index], sets[1][index])

    @pytest.mark.parametrize("method, builder, calls", [
        ("natmu", "natmu_finetune_set", 1), ("natmu", "natmu_hybrids", 2),
        ("amnesiac", "amnesiac_relabeled", 2), ("badteacher", "badteacher_targets", 2)])
    def test_the_records_call_the_builders_by_their_module_names(
            self, world, monkeypatch, method, builder, calls):
        """A builder patched on the module (as a tracer patches it) is the one
        the training set and the KL set call."""
        seen = []
        real = getattr(methods, builder)
        monkeypatch.setattr(methods, builder, lambda request: seen.append(1) or real(request))
        request = make_request(world)
        methods.unlearn_job(method, request)
        methods.unlearning_dataset(method, request)
        assert len(seen) == calls


class TestMethodParams:
    """`METHODS` names the `MethodParams` fields each method reads."""

    OTHER = {"n": 2, "delta": -0.1, "mask_family": "cutmix-corner", "cutmix_edge": 2,
             "shuffle_masks": True, "variant": "multi_label", "temperature": 3.0,
             "ascent_coefficient": 0.5, "reinit_final_layer": True}

    @pytest.mark.parametrize("family", ["gradual", "constant"])
    def test_an_edge_for_a_family_without_one_refused(self, family):
        with pytest.raises(ValidationError, match=f"{family!r} takes no edge"):
            methods.MethodParams(mask_family=family, cutmix_edge=2)
        methods.MethodParams(mask_family="cutmix-corner", cutmix_edge=2)

    def test_table_names_every_method_and_only_fields(self):
        assert set(methods.METHODS) == {"retrain", *methods.UNLEARN_METHODS}
        names = {f.name for f in fields(methods.MethodParams)}
        assert set(self.OTHER) == names
        assert all(set(m.params) <= names for m in methods.METHODS.values())
        assert sum(len(m.params) for m in methods.METHODS.values()) == 12

    @pytest.mark.parametrize("method", list(methods.UNLEARN_METHODS))
    def test_fields_a_method_does_not_read_change_nothing(self, world, method):
        unread = {name: value for name, value in self.OTHER.items()
                  if name not in methods.METHODS[method].params}
        base = make_request(world)
        other = make_request(world, params=replace(methods.MethodParams(), **unread))
        assert np.array_equal(methods.UNLEARN_METHODS[method](base).flat,
                              methods.UNLEARN_METHODS[method](other).flat)
        sets = [methods.unlearning_dataset(method, request) for request in (base, other)]
        if sets[0] is not None:
            for column in ("pixels", "labels", "soft_labels"):  # soft_labels may be None
                assert np.array_equal(getattr(sets[0], column), getattr(sets[1], column))

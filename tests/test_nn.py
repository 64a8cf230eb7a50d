import copy
import pickle
import struct
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from natmu import methods, nn
from natmu.data import Dataset, synth_blobs
from natmu.errors import (
    CheckpointFormatError,
    DivergenceError,
    NatmuError,
    RetrainIsolationError,
    ShapeMismatchError,
    ValidationError,
)
from natmu.methods import MethodParams

LN10 = 2.3025850929940457


def make_fixed_logits_model(logits):
    """One layer, zero weights: output equals the bias for any input."""
    logits = np.asarray(logits, dtype=np.float32)
    return nn.Model([nn.Layer(np.zeros((len(logits), 1), dtype=np.float32),
                              logits.copy())])


class TestForward:
    def test_zero_weight_model_gives_zero_logits(self):
        model = nn.Model([nn.Layer(np.zeros((3, 4), dtype=np.float32),
                                   np.zeros(3, dtype=np.float32))])
        out = nn.forward(model, np.random.default_rng(0).random((5, 4)))
        assert (out == 0.0).all()

    def test_single_layer_one_hot_selects_column(self):
        rng = np.random.default_rng(1)
        weight = rng.normal(size=(3, 5)).astype(np.float32)
        model = nn.Model([nn.Layer(weight, np.zeros(3, dtype=np.float32))])
        x = np.zeros((1, 5), dtype=np.float32)
        x[0, 2] = 1.0
        np.testing.assert_allclose(nn.forward(model, x)[0], weight[:, 2], atol=1e-6)

    def test_two_four_three_mlp_matches_straightline_arithmetic(self):
        model = nn.init_model([2, 4, 3], seed=0)
        x = np.array([[0.3, -1.2], [2.0, 0.5]], dtype=np.float32)
        # independent recomputation in f64, explicit loops
        expected = np.zeros((2, 3))
        for b in range(2):
            h = x[b].astype(np.float64)
            w1, b1 = model.layers[0].weight, model.layers[0].bias
            hidden = np.zeros(4)
            for j in range(4):
                acc = float(b1[j])
                for i in range(2):
                    acc += float(w1[j, i]) * h[i]
                hidden[j] = max(acc, 0.0)
            w2, b2 = model.layers[1].weight, model.layers[1].bias
            for k in range(3):
                acc = float(b2[k])
                for j in range(4):
                    acc += float(w2[k, j]) * hidden[j]
                expected[b, k] = acc
        np.testing.assert_allclose(nn.forward(model, x), expected, rtol=1e-5)

    def test_dimension_mismatch_raises(self):
        model = nn.init_model([4, 3], seed=0)
        with pytest.raises(ShapeMismatchError):
            nn.forward(model, np.zeros((2, 5)))


class TestSoftmax:
    def test_uniform_logits(self):
        np.testing.assert_allclose(nn.softmax(np.zeros(3)), 1.0 / 3.0)

    def test_extreme_magnitudes_no_overflow(self):
        x = 1000.0
        out = nn.softmax(np.array([x, x - 1000.0, x - 1000.0]))
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[0], 1.0, atol=1e-6)

    def test_reference_values(self):
        np.testing.assert_allclose(
            nn.softmax(np.array([1.0, 2.0, 3.0])),
            [0.090030573170380458, 0.24472847105479765, 0.66524095577482189],
            atol=1e-12)

    def test_sums_to_one_nonnegative_over_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            k = int(rng.integers(2, 12))
            scale = 10.0 ** rng.integers(-3, 31)
            v = rng.normal(0.0, scale, size=k)
            p = nn.softmax(v)
            assert np.isfinite(p).all()
            assert abs(p.sum() - 1.0) <= 1e-6
            assert (p >= 0.0).all()


def soft_loss(logits, target, temperature):
    """backward's loss for one sample of an f64 fixed-logits model."""
    logits = np.asarray(logits, dtype=np.float64)
    model = nn.Model([nn.Layer(np.zeros((len(logits), 1)), logits.copy())])
    loss, _ = nn.backward(model, np.ones((1, 1)), soft_targets=np.asarray(target)[None],
                          temperature=temperature)
    return loss


class TestLosses:
    def test_hard_loss_uniform_ten_classes(self):
        loss, _ = nn.backward(make_fixed_logits_model(np.zeros(10)), np.ones((1, 1)),
                              labels=np.array([3]))
        assert loss == pytest.approx(LN10, abs=1e-7)

    def test_soft_loss_zero_at_matching_target(self):
        logits = np.array([0.5, -1.0, 2.0])
        target = nn.softmax(logits / 2.0)
        assert soft_loss(logits, target, temperature=2.0) == pytest.approx(0.0, abs=1e-9)

    def test_soft_loss_reference_value(self):
        got = soft_loss(np.array([0.5, -1.0, 2.0]),
                        np.array([0.2, 0.3, 0.5]), temperature=2.0)
        assert got == pytest.approx(0.39329091916294506, abs=1e-10)

    def test_soft_loss_nonnegative_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            k = int(rng.integers(2, 8))
            q = rng.random(k)
            q /= q.sum()
            assert soft_loss(rng.normal(size=k), q, float(rng.uniform(0.2, 5))) >= 0.0

    def test_invalid_distribution_rejected(self):
        # train takes soft targets from a Dataset, whose validate() checks them
        ds = Dataset(pixels=np.zeros((1, 1), dtype=np.float32),
                     labels=np.zeros(1, dtype=np.int64), height=1, width=1, channels=1,
                     k=3, soft_labels=np.array([[0.5, 0.2, 0.2]], dtype=np.float32))
        with pytest.raises(ValidationError):
            ds.validate()

    def test_nonpositive_temperature_rejected(self):
        # methods take the distillation temperature from MethodParams
        with pytest.raises(ValidationError):
            MethodParams(temperature=0.0)


class TestBackward:
    def test_zero_input_bias_free_weight_gradients_zero(self):
        model = nn.init_model([4, 3, 2], seed=5)
        _, grads = nn.backward(model, np.zeros((6, 4)), labels=np.zeros(6, dtype=int))
        for dw, _ in grads.layers:
            assert (dw == 0.0).all()

    def test_perfect_prediction_gradient_vanishes(self):
        model = make_fixed_logits_model([100.0, 0.0, 0.0])
        _, grads = nn.backward(model, np.ones((1, 1)), labels=np.array([0]))
        total = sum(float(np.abs(g).sum()) for g in grads.params())
        assert total < 1e-6

    def test_against_finite_differences(self):
        # central differences, step 1e-4, on an f64 model
        rng = np.random.default_rng(13)
        model = nn.init_model([3, 2, 3], seed=21, dtype=np.float64)
        x = rng.normal(size=(4, 3))
        labels = rng.integers(0, 3, size=4)
        _, grads = nn.backward(model, x, labels=labels)
        analytic = grads.params()

        def loss():
            z = nn.forward(model, x)
            z = z - z.max(axis=1, keepdims=True)
            lp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            return float(-lp[np.arange(4), labels].mean())

        h = 1e-4
        for param, grad in zip(model.params(), analytic):
            flat_p, flat_g = param.reshape(-1), grad.reshape(-1)
            for i in range(flat_p.size):
                orig = flat_p[i]
                flat_p[i] = orig + h
                plus = loss()
                flat_p[i] = orig - h
                minus = loss()
                flat_p[i] = orig
                fd = (plus - minus) / (2 * h)
                assert abs(flat_g[i] - fd) <= 1e-3 * max(abs(fd), 1e-6)

    def test_gradient_shapes_mirror_model(self):
        model = nn.init_model([5, 4, 3], seed=1)
        _, grads = nn.backward(model, np.zeros((2, 5)), labels=np.array([0, 1]))
        for (dw, db), lyr in zip(grads.layers, model.layers):
            assert dw.shape == lyr.weight.shape
            assert db.shape == lyr.bias.shape


def reference_step(optimizer, params, grads, state, lr, weight_decay):
    """The per-array optimizer steps the whole-arena ones must reproduce."""
    if optimizer == "sgd":
        for p, g, v in zip(params, grads, state.setdefault("v", [np.zeros_like(p) for p in params])):
            v *= 0.9
            v += g
            p -= lr * v
            if weight_decay:
                p -= lr * weight_decay * p
        return
    state["t"] = state.get("t", 0) + 1
    c1, c2 = 1.0 - 0.9 ** state["t"], 1.0 - 0.999 ** state["t"]
    moments = state.setdefault("mv", [(np.zeros_like(p), np.zeros_like(p)) for p in params])
    for p, g, (m, v) in zip(params, grads, moments):
        m *= 0.9
        m += (1.0 - 0.9) * g
        v *= 0.999
        v += (1.0 - 0.999) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + 1e-8)
        if weight_decay:
            p -= lr * weight_decay * p


class TestArena:
    def test_train_flushes_subnormal_optimizer_state_each_epoch(self, monkeypatch):
        tiny = np.finfo(np.float32).tiny
        buf = np.array([tiny / 4, -tiny / 2, tiny, -tiny, 0.5, 0.0], dtype=np.float32)
        nn._flush_subnormals([buf])
        assert buf.tolist() == [0.0, 0.0, tiny, -tiny, 0.5, 0.0]
        flushed = []
        monkeypatch.setattr(nn, "_flush_subnormals", lambda bufs: flushed.append(len(bufs)))
        ds = synth_blobs(3, 10, 3, 3, 1, spread=0.2, seed=0)
        for optimizer, buffers in (("adamw", 2), ("sgd", 1)):
            flushed.clear()
            nn.train(nn.init_model([ds.dim, 4, 3], seed=1), ds,
                     nn.TrainConfig(epochs=3, batch_size=8, optimizer=optimizer))
            assert flushed == [buffers] * 3, optimizer

    def test_parameters_share_one_contiguous_buffer(self):
        model = nn.init_model([6, 5, 4], seed=1)
        assert model.flat.ndim == 1 and model.flat.flags.c_contiguous
        assert model.flat.size == sum(p.size for p in model.params())
        for p in model.params():
            assert np.shares_memory(p, model.flat)
        # payload order W0, b0, W1, b1
        assert np.array_equal(model.flat, np.concatenate([p.ravel() for p in model.params()]))

    def test_copy_is_independent(self):
        model = nn.init_model([6, 5, 4], seed=1)
        before = model.flat.copy()
        clone = model.copy()
        assert not np.shares_memory(clone.flat, model.flat)
        assert all(np.shares_memory(p, clone.flat) for p in clone.params())
        clone.layers[0].weight[0, 0] += 1.0
        clone.layers[1].bias[...] = 7.0
        assert np.array_equal(model.flat, before)
        model.flat[...] = 0.0
        assert clone.layers[1].bias[0] == 7.0

    @pytest.mark.parametrize("round_trip", [lambda m: pickle.loads(pickle.dumps(m)),
                                            copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_round_trip_keeps_layers_views_of_the_arena(self, round_trip):
        model = nn.init_model([6, 5, 4], seed=1)
        clone = round_trip(model)
        assert not np.shares_memory(clone.flat, model.flat)
        assert np.array_equal(clone.flat, model.flat) and clone.shapes == model.shapes
        assert all(np.shares_memory(p, clone.flat) for p in clone.params())
        ds = synth_blobs(4, 6, 2, 3, 1, seed=2)
        config = nn.TrainConfig(epochs=2, batch_size=8, seed=3)
        assert np.array_equal(nn.train(clone, ds, config).flat,
                              nn.train(model, ds, config).flat)

    def test_reinit_layer_writes_through_to_arena(self):
        model = nn.init_model([6, 5, 4], seed=1)
        model.layers[-1].bias[...] = 1.0
        before = model.flat.copy()
        nn.reinit_layer(model, -1, seed=9)
        last = model.layers[-1]
        tail = last.weight.size + last.bias.size
        assert np.array_equal(model.flat[:-tail], before[:-tail])
        assert np.array_equal(model.flat[-tail:],
                              np.concatenate([last.weight.ravel(), last.bias]))
        assert (model.flat[-last.bias.size:] == 0.0).all()
        assert not np.array_equal(model.flat[-tail:-last.bias.size],
                                  before[-tail:-last.bias.size])

    def test_backward_writes_into_the_given_gradient_arena(self):
        rng = np.random.default_rng(2)
        model = nn.init_model([6, 5, 4], seed=1)
        x, labels = rng.random((8, 6)), rng.integers(0, 4, 8)
        buf = model.zeros_like()
        loss, grads = nn.backward(model, x, labels=labels, out=buf)
        fresh_loss, fresh = nn.backward(model, x, labels=labels)
        assert grads is buf and loss == fresh_loss
        assert np.array_equal(buf.flat, fresh.flat)

    @pytest.mark.parametrize("optimizer", ["adamw", "sgd"])
    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_step_bit_equal_to_per_array_reference(self, optimizer, weight_decay):
        rng = np.random.default_rng(3)
        model = nn.init_model([23, 11, 5], seed=4)
        ref_params = [p.copy() for p in model.params()]
        opt, state = nn.OPTIMIZERS[optimizer](), {}
        for step in range(8):
            grads = model.zeros_like()
            scale = 10.0 ** rng.integers(-4, 1)
            grads.flat[...] = rng.normal(0.0, scale, size=grads.flat.size)
            lr = nn.cosine_lr(step, 8, 3e-2)
            opt.step(model, grads, lr, weight_decay)
            reference_step(optimizer, ref_params, grads.params(), state, lr, weight_decay)
            for got, want in zip(model.params(), ref_params):
                assert np.array_equal(got, want)

    def test_save_model_bytes_match_hand_built_checkpoint(self, tmp_path):
        model = nn.init_model([6, 5, 4], seed=10)
        model.layers[0].bias[...] = np.linspace(-1.0, 1.0, 5)
        want = b"NMU1" + struct.pack("<I", 2) + struct.pack("<IIII", 6, 5, 5, 4)
        for lyr in model.layers:
            want += struct.pack(f"<{lyr.weight.size}f", *lyr.weight.ravel())
            want += struct.pack(f"<{lyr.bias.size}f", *lyr.bias)
        path = tmp_path / "model.nmu"
        nn.save_model(model, str(path))
        assert path.read_bytes() == want


class TestSchedule:
    def test_cosine_boundaries_and_monotonicity(self):
        total = 120
        values = [nn.cosine_lr(t, total, 0.5) for t in range(total)]
        assert values[0] == 0.5
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] <= 0.01 * 0.5

    def test_single_step_returns_base(self):
        assert nn.cosine_lr(0, 1, 0.3) == 0.3


class TestTrain:
    def test_zero_epochs_leaves_model_unchanged(self):
        ds = synth_blobs(3, 10, 3, 3, 1, spread=0.2, seed=0)
        model = nn.init_model([9, 4, 3], seed=2)
        cfg = nn.TrainConfig(epochs=0, batch_size=4, base_lr=0.1, seed=0)
        out = nn.train(model, ds, cfg)
        for a, b in zip(out.params(), model.params()):
            assert np.array_equal(a, b)

    def test_input_model_not_mutated(self):
        ds = synth_blobs(3, 10, 3, 3, 1, spread=0.2, seed=0)
        model = nn.init_model([9, 4, 3], seed=2)
        snapshot = [p.copy() for p in model.params()]
        cfg = nn.TrainConfig(epochs=2, batch_size=4, base_lr=0.05, seed=0)
        nn.train(model, ds, cfg)
        for a, b in zip(model.params(), snapshot):
            assert np.array_equal(a, b)

    def test_separable_blobs_converge(self):
        ds = synth_blobs(2, 40, 4, 4, 1, spread=0.15, seed=3)
        model = nn.init_model([16, 8, 2], seed=4)
        cfg = nn.TrainConfig(epochs=50, batch_size=16, base_lr=5e-3, seed=9)
        trained = nn.train(model, ds, cfg)
        pred = nn.predict_logits(trained, ds.pixels).argmax(axis=1)
        assert (pred == ds.labels).mean() >= 0.99

    @pytest.mark.parametrize("optimizer", ["adamw", "sgd"])
    def test_same_seed_bit_identical(self, optimizer):
        ds = synth_blobs(3, 15, 3, 3, 1, spread=0.3, seed=5)
        model = nn.init_model([9, 6, 3], seed=6)
        cfg = nn.TrainConfig(epochs=3, batch_size=8, base_lr=1e-2,
                             weight_decay=1e-3, optimizer=optimizer, seed=77)
        a = nn.train(model, ds, cfg)
        b = nn.train(model, ds, cfg)
        for pa, pb in zip(a.params(), b.params()):
            assert np.array_equal(pa, pb)

    def test_audit_log_covers_every_instance_each_epoch(self):
        ds = synth_blobs(2, 10, 3, 3, 1, spread=0.3, seed=5)
        model = nn.init_model([9, 4, 2], seed=6)
        cfg = nn.TrainConfig(epochs=2, batch_size=7, base_lr=1e-2, seed=1)
        log = []
        nn.train(model, ds, cfg, batch_callback=log.extend)
        assert len(log) == 2 * len(ds)
        assert sorted(set(log)) == sorted(ds.ids.tolist())

    def test_non_finite_loss_stops_training(self):
        ds = synth_blobs(3, 10, 3, 3, 1, spread=0.3, seed=5)
        model = nn.init_model([9, 4, 3], seed=6)
        model.layers[0].weight[0, 0] = np.inf
        cfg = nn.TrainConfig(epochs=1, batch_size=8, base_lr=1e-2, seed=1)
        with pytest.raises(DivergenceError):
            nn.train(model, ds, cfg)

    def test_empty_dataset_rejected(self):
        ds = synth_blobs(2, 1, 3, 3, 1, spread=0.1, seed=0).subset(np.array([], dtype=int))
        with pytest.raises(ValidationError):
            nn.train(nn.init_model([9, 2], seed=0), ds,
                     nn.TrainConfig(epochs=1, batch_size=4, base_lr=0.1))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            nn.TrainConfig(epochs=-1, batch_size=4, base_lr=0.1)
        with pytest.raises(ValidationError):
            nn.TrainConfig(epochs=1, batch_size=0, base_lr=0.1)
        with pytest.raises(ValidationError):
            nn.TrainConfig(epochs=1, batch_size=4, base_lr=0.0)
        with pytest.raises(ValidationError):
            nn.TrainConfig(epochs=1, batch_size=4, base_lr=0.1, optimizer="rmsprop")


class CallbackFailure(NatmuError):
    pass


class TestEpochHandOver:
    """With an epoch callback, `train` trains on one worker thread and hands
    the calling thread a private copy of each epoch's model."""

    CONFIG = nn.TrainConfig(epochs=4, batch_size=8, base_lr=1e-2, weight_decay=1e-3, seed=7)

    @staticmethod
    def world():
        return synth_blobs(3, 12, 3, 3, 1, spread=0.3, seed=5), nn.init_model([9, 6, 3], seed=6)

    @staticmethod
    def recorder(delay):
        seen = []

        def callback(epoch, model):
            time.sleep(delay)
            seen.append((epoch, threading.get_ident(), model))
        return seen, callback

    def test_slow_callback_gets_every_epoch_in_order_on_the_calling_thread(self):
        ds, model = self.world()
        slow, slow_callback = self.recorder(0.01)
        fast, fast_callback = self.recorder(0.0)
        trainers = set()
        trained = nn.train(model, ds, self.CONFIG, epoch_callback=slow_callback,
                           batch_callback=lambda ids: trainers.add(threading.get_ident()))
        nn.train(model, ds, self.CONFIG, epoch_callback=fast_callback)
        assert [epoch for epoch, _, _ in slow] == list(range(self.CONFIG.epochs))
        assert {thread for _, thread, _ in slow} == {threading.get_ident()}
        assert len(trainers) == 1 and threading.get_ident() not in trainers
        for (_, _, a), (_, _, b) in zip(slow, fast):
            assert np.array_equal(a.flat, b.flat)
        assert not any(np.array_equal(a.flat, b.flat) for (_, _, a), (_, _, b)
                       in zip(slow, slow[1:]))
        assert np.array_equal(slow[-1][2].flat, trained.flat)

    @pytest.mark.parametrize("case", ["adamw", "sgd", "soft", "ascent"])
    def test_callback_leaves_training_bit_equal(self, case):
        ds, model = self.world()
        config, options = self.CONFIG, {}
        if case == "sgd":
            config = replace(config, optimizer="sgd")
        elif case == "soft":
            soft = nn.softmax(np.random.default_rng(1).normal(size=(len(ds), ds.k)))
            ds = replace(ds, soft_labels=soft.astype(np.float32))
            options["temperature"] = 2.0
        elif case == "ascent":
            options["ascent"] = nn.Ascent(ds.subset(np.arange(5)), alpha=0.1, seed=3)
        seen, callback = self.recorder(0.0)
        observed = nn.train(model, ds, config, epoch_callback=callback, **options)
        assert [epoch for epoch, _, _ in seen] == list(range(config.epochs))
        assert np.array_equal(observed.flat, nn.train(model, ds, config, **options).flat)

    def test_zeroing_the_handed_copy_changes_nothing(self):
        ds, model = self.world()

        def zero(epoch, handed):
            handed.flat[:] = 0.0
        assert np.array_equal(nn.train(model, ds, self.CONFIG, epoch_callback=zero).flat,
                              nn.train(model, ds, self.CONFIG).flat)

    @pytest.mark.parametrize("failure, error", [("callback", CallbackFailure),
                                                ("audit", RetrainIsolationError),
                                                ("divergence", DivergenceError)])
    def test_errors_reach_the_caller_as_themselves(self, failure, error):
        ds, model = self.world()
        threads, epochs = threading.active_count(), []

        def callback(epoch, handed):
            epochs.append(epoch)
            if failure == "callback" and epoch == 1:
                raise CallbackFailure("curve failed")
        with pytest.raises(error) as info:
            if failure == "audit":
                methods.retrain(ds, self.CONFIG, forbidden_ids=ds.ids[-1:],
                                epoch_callback=callback)
            else:
                if failure == "divergence":
                    model.layers[0].weight[0, 0] = np.inf
                nn.train(model, ds, self.CONFIG, epoch_callback=callback)
        assert type(info.value) is error
        assert threading.active_count() == threads
        assert epochs == ([0, 1] if failure == "callback" else [])

    def test_worker_stops_at_the_epoch_boundary_after_a_failed_callback(self):
        ds, model = self.world()
        per_epoch = -(-len(ds) // self.CONFIG.batch_size)
        done = [threading.Event() for _ in range(self.CONFIG.epochs)]
        batches = []

        def callback(epoch, handed):
            if epoch == 1:
                raise CallbackFailure("curve failed")
            done[epoch].set()

        def gate(ids):
            # epoch e starts once epoch e - 1's callback is done, or after 0.5 s
            batches.append(ids)
            epoch, first = divmod(len(batches) - 1, per_epoch)
            if epoch and not first:
                done[epoch - 1].wait(0.5)
        with pytest.raises(CallbackFailure):
            nn.train(model, ds, self.CONFIG, epoch_callback=callback, batch_callback=gate)
        assert len(batches) == 3 * per_epoch  # epoch 2 was under way when epoch 1 failed

    def test_no_thread_starts_without_an_epoch_callback(self):
        ds, model = self.world()
        threads, seen = threading.active_count(), set()
        nn.train(model, ds, self.CONFIG, batch_callback=lambda ids: seen.add(
            (threading.get_ident(), threading.active_count())))
        assert seen == {(threading.get_ident(), threads)}


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = nn.init_model([6, 5, 4], seed=10)
        path = tmp_path / "model.nmu"
        nn.save_model(model, str(path))
        loaded = nn.load_model(str(path))
        for a, b in zip(model.params(), loaded.params()):
            assert np.array_equal(a, b)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.nmu"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(CheckpointFormatError):
            nn.load_model(str(path))

    def test_zero_layer_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "empty.nmu"
        path.write_bytes(b"NMU1" + struct.pack("<I", 0))
        with pytest.raises(CheckpointFormatError):
            nn.load_model(str(path))

    def test_truncated_payload_rejected(self, tmp_path):
        model = nn.init_model([6, 5, 4], seed=10)
        path = tmp_path / "model.nmu"
        nn.save_model(model, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(CheckpointFormatError):
            nn.load_model(str(path))

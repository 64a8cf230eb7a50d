import copy
import multiprocessing
import os
import pickle
import struct
import tempfile
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from natmu import data, methods, nn
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

    def test_predict_logits_forwards_fixed_chunks(self):
        """The logits' bits depend on the rows per forward, so no caller picks them."""
        model = nn.init_model([4, 5, 3], seed=2)
        pixels = np.random.default_rng(3).random((2 * nn.PREDICT_CHUNK + 7, 4))
        chunks = [nn.forward(model, pixels[i:i + nn.PREDICT_CHUNK])
                  for i in (0, nn.PREDICT_CHUNK, 2 * nn.PREDICT_CHUNK)]
        assert np.array_equal(nn.predict_logits(model, pixels), np.concatenate(chunks))
        with pytest.raises(TypeError):
            nn.predict_logits(model, pixels, chunk=256)

    def test_inference_and_training_forwards_are_bit_equal(self):
        model = nn.init_model([16, 12, 8, 5], seed=4)
        x = np.random.default_rng(5).random((33, 16)).astype(np.float32)
        before = x.copy()
        acts = [x]  # each layer's input, as a new array per operation
        for lyr in model.layers[:-1]:
            acts.append(np.maximum(acts[-1] @ lyr.weight.T + lyr.bias, 0.0))
        want = acts[-1] @ model.layers[-1].weight.T + model.layers[-1].bias
        kept = []
        assert np.array_equal(nn.forward(model, x, keep=kept), want)
        assert np.array_equal(nn.forward(model, x), want)
        assert len(kept) == len(acts) and all(map(np.array_equal, kept, acts))
        assert np.array_equal(x, before)  # the in-place steps leave the batch alone

    def test_predict_logits_keeps_no_activations(self, traced_peak):
        model = nn.init_model([256, 64, 64, 10], seed=0)  # the run's model
        pixels = np.random.default_rng(6).random((4500, 256), dtype=np.float32)
        logits, peak = traced_peak(lambda: nn.predict_logits(model, pixels))
        # a chunk's two hidden layers are alive at once, and nothing else of
        # it; the parent's kept activations and per-step arrays took 3.2 MB
        layer = nn.PREDICT_CHUNK * 64 * 4
        assert peak < logits.nbytes + 2.5 * layer

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
        opt, state = nn.OPTIMIZERS[optimizer](model.flat), {}
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

    def test_non_finite_weights_after_the_last_step_stop_training(self):
        # the step's loss and gradient are finite; the update overflows
        ds = synth_blobs(3, 10, 3, 3, 1, spread=0.3, seed=5)
        model = nn.init_model([9, 4, 3], seed=6)
        cfg = nn.TrainConfig(epochs=1, batch_size=len(ds), base_lr=1e38, weight_decay=5e-4,
                             optimizer="sgd", seed=1)
        with np.errstate(over="ignore"), \
                pytest.raises(DivergenceError, match="non-finite weights after epoch 0"):
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


class TestEpochCallbacks:
    """`train` runs its loop on the calling thread and hands each epoch's
    callback a private copy of the model."""

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
        # the callbacks run on the thread that trains, which is the caller's
        assert {thread for _, thread, _ in slow} == trainers == {threading.get_ident()}
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
                job = methods.retrain_job(ds, self.CONFIG, forbidden_ids=ds.ids[-1:])
                nn.train(*job._replace(epoch_callback=callback))
            else:
                if failure == "divergence":
                    model.layers[0].weight[0, 0] = np.inf
                nn.train(model, ds, self.CONFIG, epoch_callback=callback)
        assert type(info.value) is error
        assert threading.active_count() == threads
        assert epochs == ([0, 1] if failure == "callback" else [])

    def test_training_stops_at_the_epoch_boundary_after_a_failed_callback(self):
        ds, model = self.world()
        per_epoch = -(-len(ds) // self.CONFIG.batch_size)
        batches = []

        def callback(epoch, handed):
            if epoch == 1:
                raise CallbackFailure("curve failed")
        with pytest.raises(CallbackFailure):
            nn.train(model, ds, self.CONFIG, epoch_callback=callback,
                     batch_callback=batches.append)
        assert len(batches) == 2 * per_epoch  # no batch after epoch 1's callback

    def test_the_loop_runs_on_the_calling_thread_and_starts_no_thread(self):
        ds, model = self.world()
        threads, trainers = threading.active_count(), set()

        def trainer(ids):
            trainers.add(threading.get_ident())
            assert threading.active_count() == threads  # no thread was started
        trained = nn.train(model, ds, self.CONFIG, batch_callback=trainer)
        assert trainers == {threading.get_ident()}
        seen, callback = self.recorder(0.0)
        observed = nn.train(model, ds, self.CONFIG, epoch_callback=callback)
        assert np.array_equal(trained.flat, observed.flat)
        untrained = nn.train(model, ds, replace(self.CONFIG, epochs=0))
        assert untrained is not model and np.array_equal(untrained.flat, model.flat)
        model.layers[0].weight[0, 0] = np.inf
        with pytest.raises(DivergenceError) as info:
            nn.train(model, ds, self.CONFIG)
        assert type(info.value) is DivergenceError
        assert threading.active_count() == threads


class EpochRecorder:
    """A picklable epoch callback: each epoch's index, the process it ran
    in and a copy of its arena. It zeroes the copy it is handed, which
    must change nothing."""

    def __init__(self):
        self.seen = []

    def __call__(self, epoch, handed):
        self.seen.append((epoch, os.getpid(), handed.flat.copy()))
        handed.flat[:] = 0.0


def test_the_worker_has_imported_the_runner_before_its_first_job():
    """The epoch callbacks of a run's jobs live in `natmu.runner`: the
    worker imports it while it starts, not when a job's callback is first
    unpickled there. The probe is a builtin, whose unpickling imports nothing."""
    worker = nn.process_worker()
    try:
        probe = worker.submit(eval, "'natmu.runner' in __import__('sys').modules")
        assert probe.result() is True
    finally:
        worker.shutdown()


@pytest.fixture(scope="module")
def process_worker():
    """One worker process for the module's tests, stopped after them."""
    worker = nn.process_worker()
    yield worker
    worker.shutdown()
    assert multiprocessing.active_children() == []


class TestProcessWorker:
    """A job `submit` sends to a process worker runs the in-process loop in
    the worker process and gives the same bits."""

    CONFIG = TestEpochCallbacks.CONFIG

    @pytest.mark.parametrize("case", ["adamw", "sgd", "soft", "ascent", "zero epochs"])
    def test_bit_equal_to_the_in_process_path(self, process_worker, case):
        ds, model = TestEpochCallbacks.world()
        config, options = self.CONFIG, {}
        if case == "sgd":
            config = replace(config, optimizer="sgd")
        elif case == "soft":
            soft = nn.softmax(np.random.default_rng(1).normal(size=(len(ds), ds.k)))
            ds = replace(ds, soft_labels=soft.astype(np.float32))
            options["temperature"] = 2.0
        elif case == "ascent":
            options["ascent"] = nn.Ascent(ds.subset(np.arange(5)), alpha=0.1, seed=3)
        elif case == "zero epochs":
            config = replace(config, epochs=0)
        trained = nn.submit(nn.Job(model, ds, config, **options), process_worker).result()
        assert trained is not model
        assert np.array_equal(trained.flat, nn.train(model, ds, config, **options).flat)

    def test_a_joined_set_trains_as_one_array(self, process_worker):
        """A set joined by `data.concat` crosses to the worker with its two
        parts and trains to the bits of one array of its rows."""
        ds, model = TestEpochCallbacks.world()
        first, second = ds.subset(np.arange(7, len(ds))), ds.subset(np.arange(7))
        columns = {name: np.concatenate([getattr(first, name), getattr(second, name)])
                   for name in ("pixels", "labels", "ids")}
        whole = Dataset(**columns, height=ds.height, width=ds.width, channels=ds.channels,
                        k=ds.k)
        want = nn.train(model, whole, self.CONFIG)
        job = nn.Job(model, data.concat(first, second), self.CONFIG)
        for worker in (None, process_worker):
            assert np.array_equal(nn.submit(job, worker).result().flat, want.flat)

    def test_callbacks_get_the_in_process_paths_copies_in_order(self, process_worker):
        ds, model = TestEpochCallbacks.world()
        seen = {}
        for path, worker in (("in-process", None), ("process", process_worker)):
            recorder = EpochRecorder()
            trained = nn.submit(nn.Job(model, ds, self.CONFIG, epoch_callback=recorder),
                                worker).result()
            seen[path] = recorder.seen  # the worker's copy's, brought back
            assert np.array_equal(seen[path][-1][2], trained.flat)
        assert [e for e, _, _ in seen["process"]] == list(range(self.CONFIG.epochs))
        assert {pid for _, pid, _ in seen["in-process"]} == {os.getpid()}
        assert os.getpid() not in {pid for _, pid, _ in seen["process"]}
        for (_, _, a), (_, _, b) in zip(seen["in-process"], seen["process"]):
            assert np.array_equal(a, b)

    def test_divergence_reaches_the_caller_as_itself(self, process_worker):
        ds, model = TestEpochCallbacks.world()
        model.layers[0].weight[0, 0] = np.inf
        recorder = EpochRecorder()
        with pytest.raises(DivergenceError) as info:
            nn.submit(nn.Job(model, ds, self.CONFIG, epoch_callback=recorder),
                      process_worker).result()
        assert type(info.value) is DivergenceError and recorder.seen == []
        # the worker takes the next job as before
        ds, model = TestEpochCallbacks.world()
        trained = nn.submit(nn.Job(model, ds, self.CONFIG), process_worker).result()
        assert np.array_equal(trained.flat,
                              nn.train(model, ds, self.CONFIG).flat)

    @pytest.mark.parametrize("job", ["passes", "diverges", "unpicklable"])
    def test_a_jobs_temporary_files_are_removed(self, process_worker, tmp_path, monkeypatch,
                                                job):
        """The job and its result cross through temporary pickle files, which
        are gone once the result is taken or raises."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        ds, model = TestEpochCallbacks.world()
        ascent = nn.Ascent(ds.subset(np.arange(5)), alpha=0.1, seed=3)
        if job == "passes":
            recorder = EpochRecorder()
            trained = nn.submit(nn.Job(model, ds, self.CONFIG, ascent=ascent,
                                       epoch_callback=recorder), process_worker).result()
            assert np.array_equal(trained.flat, nn.train(model, ds, self.CONFIG,
                                                         ascent=ascent).flat)
            assert len(recorder.seen) == self.CONFIG.epochs
        elif job == "diverges":
            model.layers[0].weight[0, 0] = np.inf
            with pytest.raises(DivergenceError):
                nn.submit(nn.Job(model, ds, self.CONFIG, ascent=ascent), process_worker).result()
        else:
            with pytest.raises((pickle.PicklingError, AttributeError)):  # by Python version
                nn.submit(nn.Job(model, ds, self.CONFIG, epoch_callback=lambda epoch, handed: None),
                          process_worker).result()
        assert list(tmp_path.iterdir()) == []

    def test_cancel_drops_the_jobs_the_worker_has_not_started(self, process_worker, tmp_path,
                                                              monkeypatch):
        """Of three jobs out on the one worker, the executor hands the 2nd
        (and maybe the 3rd) on while the 1st trains, and from then on they
        cannot be cancelled. Cancelled and closed, neither trains: closing
        them ends soon after the 1st has trained, and leaves no file."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        ds, model = TestEpochCallbacks.world()
        config = replace(self.CONFIG, epochs=2000)
        first, *dropped = (nn.submit(nn.Job(model, ds, config), process_worker)
                           for _ in range(3))
        time.sleep(0.2)  # the executor has handed on the 1st and the 2nd
        for pending in dropped:
            pending.cancel()
        for pending in dropped:
            pending.close()
        first.result()
        start_s, end_s, _ = first.span
        assert time.monotonic() - end_s < 0.5 * (end_s - start_s)
        assert not dropped[0].future.cancelled()  # handed on: it found no job
        assert isinstance(dropped[0].future.exception(), FileNotFoundError)
        assert (dropped[1].future.cancelled()
                or isinstance(dropped[1].future.exception(), FileNotFoundError))
        assert list(tmp_path.iterdir()) == []
        # the worker takes the next job as before
        trained = nn.submit(nn.Job(model, ds, self.CONFIG), process_worker).result()
        assert np.array_equal(trained.flat, nn.train(model, ds, self.CONFIG).flat)

    def test_a_pending_job_keeps_no_model_and_no_set(self, process_worker):
        """Once a job is sent to the worker, or trained here, `pending.job`
        holds its config, temperature and callbacks but not its model,
        dataset and ascent stream; the methods read no more of it."""
        ds, model = TestEpochCallbacks.world()
        d_f, d_r = ds.subset(np.arange(5)), ds.subset(np.arange(5, len(ds)))
        ascent = nn.Ascent(d_f, alpha=0.1, seed=3)
        for worker in (process_worker, None):
            recorder = EpochRecorder()
            job = nn.Job(model, ds, self.CONFIG, 2.0, ascent, recorder)
            pending = nn.submit(job, worker)
            if worker is None:
                pending.result()
            assert pending.job == job._replace(model=None, dataset=None, ascent=None)
            if worker is not None:
                pending.result()
            assert len(recorder.seen) == self.CONFIG.epochs
            retrain = methods.retrain_job(d_r, self.CONFIG, forbidden_ids=d_f.ids)
            _, audit = methods.retrain(d_r, self.CONFIG, pending=nn.submit(retrain, worker))
            assert audit["batches_logged"] == self.CONFIG.epochs * len(d_r)
            request = methods.UnlearnRequest(model, d_f, d_r, self.CONFIG, seed=4)
            unlearned = methods.UNLEARN_METHODS["neggrad"](
                request, nn.submit(methods.unlearn_job("neggrad", request), worker))
            assert np.array_equal(unlearned.flat,
                                  methods.UNLEARN_METHODS["neggrad"](request).flat)

    def test_retrain_audit_counts_the_ids_the_worker_checked(self, process_worker):
        ds, _ = TestEpochCallbacks.world()
        job = methods.retrain_job(ds, self.CONFIG, forbidden_ids=[10_000])
        audits = [methods.retrain(ds, self.CONFIG, forbidden_ids=[10_000], pending=pending)[1]
                  for pending in (None, nn.submit(job, process_worker))]
        assert audits[0] == audits[1] == {"batches_logged": self.CONFIG.epochs * len(ds),
                                          "forbidden_ids": 1, "violations": 0}
        with pytest.raises(RetrainIsolationError) as info:
            job = methods.retrain_job(ds, self.CONFIG, forbidden_ids=ds.ids[-1:])
            methods.retrain(ds, self.CONFIG, forbidden_ids=ds.ids[-1:],
                            pending=nn.submit(job, process_worker))
        assert type(info.value) is RetrainIsolationError


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = nn.init_model([6, 5, 4], seed=10)
        path = tmp_path / "model.nmu"
        nn.save_model(model, str(path))
        loaded = nn.load_model(str(path))
        for a, b in zip(model.params(), loaded.params()):
            assert np.array_equal(a, b)

    def test_save_refuses_non_finite_parameters_before_opening_the_file(self, tmp_path):
        model = nn.init_model([6, 5, 4], seed=10)
        model.layers[1].bias[2] = np.nan
        path = tmp_path / "model.nmu"
        with pytest.raises(CheckpointFormatError, match="non-finite parameters"):
            nn.save_model(model, str(path))
        assert not path.exists()

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

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "model.nmu"
        path.write_bytes(b"NMU1" + struct.pack("<I", 2) + struct.pack("<II", 6, 5) + b"\x00")
        with pytest.raises(CheckpointFormatError, match="truncated checkpoint header"):
            nn.load_model(str(path))

    def test_dims_that_do_not_chain_rejected(self, tmp_path):
        path = tmp_path / "model.nmu"
        nn.save_model(nn.init_model([6, 5, 4], seed=10), str(path))
        blob = bytearray(path.read_bytes())
        struct.pack_into("<II", blob, 16, 6, 4)  # layer 1 takes 6 inputs, layer 0 gives 5
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError, match="do not chain"):
            nn.load_model(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.nmu"
        nn.save_model(nn.init_model([6, 5, 4], seed=10), str(path))
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        with pytest.raises(CheckpointFormatError, match="trailing bytes"):
            nn.load_model(str(path))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameters_rejected(self, tmp_path, value):
        # `save_model` refuses such a model, so the file is patched after it
        path = tmp_path / "model.nmu"
        nn.save_model(nn.init_model([6, 5, 4], seed=10), str(path))
        blob = bytearray(path.read_bytes())
        struct.pack_into("<f", blob, len(blob) - 8, value)  # layer 1's bias[2]
        path.write_bytes(blob)
        with pytest.raises(CheckpointFormatError, match="non-finite"):
            nn.load_model(str(path))

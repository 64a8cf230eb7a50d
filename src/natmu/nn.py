"""Minimal feed-forward classifier with manual backprop.

Dense rectifier MLP over flattened pixels, cross-entropy on hard labels or
temperature-scaled KL on soft targets, SGD-momentum / decoupled-decay Adam
optimizers, and a cosine-to-zero schedule. Everything is seeded, so
training is a pure function of (initial model, dataset, config.seed). A
training call is a `Job`: `train` runs it on the calling thread, and
`submit` sends it whole to a worker process (`process_worker`) that trains
while the caller goes on, or keeps it for the caller to train when its
result is asked for. Evaluation of a frozen model is read-only and safe to share.

Parameter arena: all of a model's parameters live in one contiguous vector,
``Model.flat``, in the order W0, b0, W1, b1, ... (each weight row-major,
out x in); ``Model.layers`` holds views into it. Gradients are a model of
the same layout (`Model.zeros_like`), so an optimizer step updates the
whole arena with a few in-place vector operations, and `train` reuses one
gradient arena for every step.

Checkpoint format: magic ``NMU1``, little-endian u32 layer count, then per
layer u32 (in_dim, out_dim), then the arena's bytes as little-endian f32:
per layer the weight matrix (row-major, out x in) followed by the bias.
"""

import concurrent.futures
import contextlib
import importlib
import math
import os
import pickle
import resource
import shutil
import struct
import tempfile
import time
from concurrent.futures import Executor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (CheckpointFormatError, DivergenceError, ShapeMismatchError,
                     ValidationError, check_least)

MAGIC = b"NMU1"


class Layer(NamedTuple):
    weight: np.ndarray  # (out, in)
    bias: np.ndarray    # (out,)


class Model:
    """Dense layers whose weights and biases are views into one arena."""

    def __init__(self, layers: list[Layer]):
        """A model holding copies of `layers` in a new arena."""
        self.flat = np.concatenate([p.ravel() for lyr in layers for p in lyr])
        self.layers = _arena_views(self.flat, [lyr.weight.shape for lyr in layers])

    @classmethod
    def on_arena(cls, flat: np.ndarray, shapes) -> "Model":
        """A model of (out, in) weight shapes whose layers are views into `flat`."""
        model = cls.__new__(cls)
        model.flat = flat
        model.layers = _arena_views(flat, shapes)
        return model

    def __reduce__(self):
        """Pickle and deepcopy as the arena, so the copy's layers view its `flat`."""
        return Model.on_arena, (self.flat, self.shapes)

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def class_count(self) -> int:
        return self.layers[-1].weight.shape[0]

    @property
    def dims(self) -> list[int]:
        return [self.input_dim] + [lyr.weight.shape[0] for lyr in self.layers]

    @property
    def shapes(self) -> list[tuple[int, int]]:
        return [lyr.weight.shape for lyr in self.layers]

    def copy(self) -> "Model":
        return Model.on_arena(self.flat.copy(), self.shapes)

    def zeros_like(self) -> "Model":
        """An all-zero arena of this model's layout, e.g. for gradients."""
        return Model.on_arena(np.zeros_like(self.flat), self.shapes)

    def params(self) -> list[np.ndarray]:
        return [p for lyr in self.layers for p in lyr]


def _arena_views(flat: np.ndarray, shapes) -> list[Layer]:
    layers, off = [], 0
    for out_dim, in_dim in shapes:
        weight = flat[off:off + out_dim * in_dim].reshape(out_dim, in_dim)
        off += out_dim * in_dim
        layers.append(Layer(weight, flat[off:off + out_dim]))
        off += out_dim
    return layers


def _glorot(rng, fan_out: int, fan_in: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def init_model(dims: list[int], seed: int, dtype=np.float32) -> Model:
    """Glorot-uniform weights (+/- sqrt(6/(fan_in+fan_out))), zero biases."""
    if len(dims) < 2:
        raise ValidationError("model needs at least input and output dims")
    rng = np.random.default_rng(seed)
    return Model([Layer(_glorot(rng, fan_out, fan_in).astype(dtype), np.zeros(fan_out, dtype))
                  for fan_in, fan_out in zip(dims[:-1], dims[1:])])


def reinit_layer(model: Model, index: int, seed: int) -> None:
    """Re-initialize one layer in place with the standard init."""
    lyr = model.layers[index]
    lyr.weight[...] = _glorot(np.random.default_rng(seed), *lyr.weight.shape)
    lyr.bias[...] = 0.0


# ---------------------------------------------------------------------------
# forward / losses


def forward(model: Model, batch: np.ndarray, keep: list | None = None) -> np.ndarray:
    """Logits (B, K) for a pixel batch (B, d). Each layer's bias add and
    rectifier run in place on its matmul's output. With a list `keep`, every
    layer's input is appended to it, for backprop; without, no layer's
    activations outlive the next layer's matmul."""
    x = np.atleast_2d(np.asarray(batch))
    if x.shape[1] != model.input_dim:
        raise ShapeMismatchError(
            f"batch has {x.shape[1]} features, model expects {model.input_dim}"
        )
    x = x.astype(model.flat.dtype, copy=False)
    last = len(model.layers) - 1
    for i, lyr in enumerate(model.layers):
        if keep is not None:
            keep.append(x)
        x = x @ lyr.weight.T
        x += lyr.bias
        if i < last:
            np.maximum(x, 0.0, out=x)
    return x


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stabilized softmax; components in (0, 1], rows sum to 1."""
    z = np.asarray(logits)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def plogp(p: np.ndarray) -> np.ndarray:
    """Row sums of p * log(p) with 0 * log(0) = 0: each row's entropy, negated."""
    return np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0).sum(axis=1)


# ---------------------------------------------------------------------------
# backward


def backward(model: Model, batch: np.ndarray, labels=None, soft_targets=None,
             temperature: float = 1.0, out: Model | None = None) -> tuple[float, Model]:
    """Batch mean loss and its gradients, as (loss, gradient arena).

    Hard labels give cross-entropy; soft targets give the T^2-scaled KL
    from the targets to the tempered softmax. The gradients are written
    into `out`, an arena of the model's layout (a new one if None).
    """
    acts = []
    logits = forward(model, batch, keep=acts)
    n = len(logits)
    # softmax(z) = e / total and log_softmax(z) = shifted - log(total)
    z = logits if soft_targets is None else logits / temperature
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    p = e / total
    if soft_targets is None:
        rows, labels = np.arange(n), np.asarray(labels)
        loss = float((np.log(total[:, 0]) - shifted[rows, labels]).sum()) / n
        delta = p
        delta[rows, labels] -= 1.0
        delta /= n
    else:
        q = soft_targets
        cross = (q * (shifted - np.log(total))).sum(axis=1)
        loss = float((temperature ** 2 * (plogp(q) - cross)).sum()) / n
        delta = (temperature * (p - soft_targets) / n).astype(logits.dtype)

    if out is None:
        out = model.zeros_like()
    for i in range(len(model.layers) - 1, -1, -1):
        grad_w, grad_b = out.layers[i]
        np.matmul(delta.T, acts[i], out=grad_w)
        delta.sum(axis=0, out=grad_b)
        if i > 0:
            delta = (delta @ model.layers[i].weight) * (acts[i] > 0)
    return loss, out


# ---------------------------------------------------------------------------
# optimizers and schedule


# Both optimizers are built on the arena they update, and update it in place
# through state and scratch of its layout. Each element takes the operations
# of the per-array form in the comments in the same order, so the results are
# bit-identical to it.


MOMENTUM = 0.9  # SgdMomentum
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # AdamW


class SgdMomentum:
    def __init__(self, flat: np.ndarray):
        self.velocity = np.zeros_like(flat)
        self._scratch = np.empty_like(flat)

    def state(self) -> list[np.ndarray]:
        return [self.velocity]

    def step(self, model: Model, grads: Model, lr: float, weight_decay: float):
        p, g = model.flat, grads.flat
        v, s = self.velocity, self._scratch
        v *= MOMENTUM
        v += g
        p -= np.multiply(v, lr, out=s)  # p -= lr * v
        if weight_decay:
            p -= np.multiply(p, lr * weight_decay, out=s)  # p -= lr * wd * p


class AdamW:
    """Adaptive moments with decoupled weight decay applied after the step."""

    def __init__(self, flat: np.ndarray):
        self.t = 0
        self.m, self.v = np.zeros_like(flat), np.zeros_like(flat)
        self._scratch = (np.empty_like(flat), np.empty_like(flat))

    def state(self) -> list[np.ndarray]:
        return [self.m, self.v]

    def step(self, model: Model, grads: Model, lr: float, weight_decay: float):
        p, g = model.flat, grads.flat
        m, v = self.m, self.v
        s, d = self._scratch
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=s)  # m += (1 - b1) * g
        v *= BETA2
        v += np.multiply(np.multiply(g, 1.0 - BETA2, out=s), g, out=s)  # (1 - b2) * g * g
        # p -= lr * (m / c1) / (sqrt(v / c2) + eps)
        np.multiply(np.divide(m, c1, out=s), lr, out=s)
        np.sqrt(np.divide(v, c2, out=d), out=d)
        d += EPS
        p -= np.divide(s, d, out=s)
        if weight_decay:
            p -= np.multiply(p, lr * weight_decay, out=s)  # p -= lr * wd * p


OPTIMIZERS = {"sgd": SgdMomentum, "adamw": AdamW}


def _flush_subnormals(buffers) -> None:
    """Zero the subnormal entries of optimizer state. A decaying moment that
    reaches the subnormal range stays there (0.9 * k * 2**-149 rounds back to
    k * 2**-149 for small k), and every later step pays the CPU's slow path
    for it; `train` flushes once per epoch."""
    for buf in buffers:
        buf[np.abs(buf) < np.finfo(buf.dtype).tiny] = 0.0


def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """Cosine-to-zero: base_lr at step 0, exactly 0 at the last step."""
    if total_steps <= 1:
        return base_lr
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * step / (total_steps - 1)))


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 64
    base_lr: float = 1e-3
    weight_decay: float = 0.0
    optimizer: str = "adamw"
    seed: int = 0

    def __post_init__(self):
        check_least("", {"epochs": (self.epochs, 0), "batch_size": (self.batch_size, 1),
                         "weight_decay": (self.weight_decay, 0)})
        if not 0 < self.base_lr < math.inf:
            raise ValidationError(f"base_lr must be finite and > 0, got {self.base_lr}")
        if self.optimizer not in OPTIMIZERS:
            raise ValidationError(f"unknown optimizer {self.optimizer!r}")

    def with_seed(self, seed: int) -> "TrainConfig":
        return replace(self, seed=seed)


# Rows per forward in `predict_logits`. Fixed, because the logits' bits
# depend on it (chunks of 1-256 rows differ from 4096 by up to 9e-7 on desk).
PREDICT_CHUNK = 4096


def predict_logits(model: Model, pixels: np.ndarray) -> np.ndarray:
    """Forward over a full array in chunks of PREDICT_CHUNK rows, each
    chunk's logits written into one (N, K) array, which is returned."""
    logits = np.empty((len(pixels), model.class_count), dtype=model.flat.dtype)
    for i in range(0, len(pixels), PREDICT_CHUNK):
        logits[i:i + PREDICT_CHUNK] = forward(model, pixels[i:i + PREDICT_CHUNK])
    return logits


class Ascent(NamedTuple):
    """A stream `train` ascends on alongside its dataset (NegGrad+): each
    step also takes a batch of `data` and subtracts `alpha` times its
    gradient. Batches of min(batch_size, len(data)) cycle through `data`
    from its start each epoch, in an order reshuffled per epoch from `seed`."""

    data: object  # a Dataset
    alpha: float
    seed: int


def _backward_on(model: Model, dataset, idx, temperature: float, out: Model) -> float:
    pixels, labels, soft = dataset.rows(idx)
    loss, _ = backward(model, pixels, labels=labels, soft_targets=soft,
                       temperature=temperature, out=out)
    return loss


class Job(NamedTuple):
    """The arguments of one `train` call, in its order: what `submit` sends."""

    model: Model
    dataset: object  # a Dataset
    config: TrainConfig
    temperature: float = 1.0
    ascent: Ascent | None = None
    epoch_callback: object = None
    batch_callback: object = None


def train(model: Model, dataset, config: TrainConfig, temperature: float = 1.0,
          ascent: Ascent | None = None, epoch_callback=None, batch_callback=None) -> Model:
    """Mini-batch training on the calling thread; returns the trained copy.

    `dataset` is a `data.Dataset`, or two joined by `data.concat`, whose
    batches are gathered from its two parts: the same rows as from one
    array. The input model is never mutated. Batch order and all updates
    derive from config.seed (and ascent.seed), so identical inputs reproduce
    bit-identical parameters. Soft-labeled datasets are trained with the
    tempered KL loss. A step whose loss (descent minus alpha times ascent)
    or, with an ascent stream, whose combined gradient is not finite raises
    DivergenceError before the update, and so do weights that are not finite
    after an epoch's last update.

    epoch_callback(epoch_index, model) gets a private copy of the model
    after each epoch's last step and subnormal flush, the one place
    per-epoch outputs come from; batch_callback(ids) gets each batch's
    instance ids before its step. Both run on the thread that trains, in
    order. An error from either callback or from training reaches the
    caller as itself, and no batch runs after it.
    """
    if len(dataset) == 0:
        raise ValidationError("cannot train on an empty dataset")
    model = model.copy()
    _train_in_place(model, dataset, config, temperature, epoch_callback, batch_callback, ascent)
    return model


class Pending:
    """The trained model of a job `submit` took: `result` trains it here if
    it was kept, else loads it here once the worker is done, with the
    attributes of the callbacks' copies copied back onto them. `cancel` and
    `close` drop a result not taken. Once the job has been sent or trained,
    `job` keeps only its config, temperature and callbacks."""

    def __init__(self, job: Job):
        self.job, self.future, self.directory = job, None, None  # the worker's task, its files
        self.worker_peak_rss_mb = None  # the worker's peak RSS, once its result is back
        self.span = None  # the training's (start, end, cpu_s): `_timed_train`

    def result(self) -> Model:
        if self.future is None:
            job = self._release()
            model, self.span = _timed_train(job)
            return model
        try:
            self.future.result()
            with open(os.path.join(self.directory, "result.pickle"), "rb") as fh:
                model, *copies, self.worker_peak_rss_mb, self.span = pickle.load(fh)
        finally:
            self.close()
        for sent, copy in zip((self.job.epoch_callback, self.job.batch_callback), copies):
            if copy is not sent:
                vars(sent).update(vars(copy))
        return model

    def cancel(self) -> None:
        """Keep the worker from training the job if it has not started it:
        the task is cancelled or, once the executor has handed it on (after
        which it cannot be), finds no job and ends at once. Returns at once."""
        if self.future is not None and self.directory is not None and not self.future.cancel():
            with contextlib.suppress(FileNotFoundError):  # cancelled before
                os.remove(os.path.join(self.directory, "job.pickle"))

    def close(self) -> None:
        """`cancel`, wait for the worker's task and remove its files."""
        if self.directory is None:
            return
        self.cancel()
        if self.future is not None:
            concurrent.futures.wait([self.future])
        shutil.rmtree(self.directory)
        self.directory = None

    def _release(self) -> Job:
        """The job; `job` keeps it without its model, dataset and ascent stream."""
        job, self.job = self.job, self.job._replace(model=None, dataset=None, ascent=None)
        return job


def submit(job: Job, worker: Executor | None = None) -> Pending:
    """`job` as one task for `worker`, a one-process executor from
    `process_worker`, which trains its tasks in the order they came; without
    one, kept to train on the thread that asks for its result. The bits are
    the same either way. A worker's job crosses in a pickle file, so its
    callbacks must be picklable."""
    pending = Pending(job)
    if worker is None:
        return pending
    # The job and its result cross through files, not as the task's argument
    # and value: a pickled argument's buffers stay in the caller's malloc
    # arenas (a 5 MB training set raised desk's peak RSS by 15 MB), and the
    # executor unpickles a value on its manager thread, whose own arena then
    # holds it (a retrain's 30 epoch copies raised desk's peak RSS by 4 MB).
    pending.directory = tempfile.mkdtemp()
    try:
        with open(os.path.join(pending.directory, "job.pickle"), "wb") as fh:
            pickle.dump(pending._release(), fh, protocol=5)
        pending.future = worker.submit(_work, pending.directory)
    except BaseException:
        pending.close()
        raise
    return pending


def _timed_train(job: Job) -> tuple[Model, tuple[float, float, float]]:
    """`train(*job)` and its span: `time.monotonic` at its start and end,
    and the `time.process_time` it took."""
    start, cpu = time.monotonic(), time.process_time()
    model = train(*job)
    return model, (start, time.monotonic(), time.process_time() - cpu)


def _work(directory: str) -> None:
    """A worker's task: train the job pickled in `directory`; pickle the model,
    the callbacks' copies with what they kept or computed, this process's
    peak RSS (MB; Linux gives KB) and the training's span beside it."""
    with open(os.path.join(directory, "job.pickle"), "rb") as fh:
        job = pickle.load(fh)
    model, span = _timed_train(job)
    with open(os.path.join(directory, "result.pickle"), "wb") as fh:
        pickle.dump((model, job.epoch_callback, job.batch_callback,
                     resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, span),
                    fh, protocol=5)


def process_worker() -> Executor:
    """A one-process executor for `submit`: a spawned interpreter, started
    now, that has imported this package and `natmu.runner`, whose epoch
    callbacks the run's jobs carry, by the time its first task runs."""
    import multiprocessing  # only here: a run on one CPU never loads it
    worker = concurrent.futures.ProcessPoolExecutor(
        max_workers=1, mp_context=multiprocessing.get_context("spawn"),
        initializer=importlib.import_module, initargs=("natmu.runner",))
    worker.submit(cosine_lr, 0, 1, 1.0)  # starts the process
    return worker


def _train_in_place(model: Model, dataset, config: TrainConfig, temperature: float,
                    epoch_callback, batch_callback, ascent: Ascent | None) -> None:
    """Train `model` in place, the loop of `train`."""
    n = len(dataset)
    rng = np.random.default_rng(config.seed)
    opt = OPTIMIZERS[config.optimizer](model.flat)
    grads = model.zeros_like()
    bs = config.batch_size
    if ascent is not None:
        ascent_rng = np.random.default_rng(ascent.seed)
        ascent_grads = model.zeros_like()
        n_f, bf = len(ascent.data), min(bs, len(ascent.data))
    total_steps = config.epochs * ((n + bs - 1) // bs)
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        if ascent is not None:
            order_f = ascent_rng.permutation(n_f)
        for start in range(0, n, bs):
            idx = order[start:start + bs]
            if batch_callback is not None:
                batch_callback(dataset.ids[idx])
            lr = cosine_lr(step, total_steps, config.base_lr)
            with np.errstate(over="ignore", invalid="ignore"):
                loss = _backward_on(model, dataset, idx, temperature, grads)
                if ascent is not None:
                    idx_f = order_f[(start // bs * bf + np.arange(bf)) % n_f]
                    loss_f = _backward_on(model, ascent.data, idx_f, temperature,
                                          ascent_grads)
                    ascent_grads.flat *= ascent.alpha  # grads -= alpha * ascent_grads
                    grads.flat -= ascent_grads.flat
                    loss -= ascent.alpha * loss_f
                    # alpha times a gradient can overflow where alpha times its loss does not
                    if not np.isfinite(grads.flat).all():
                        raise DivergenceError(f"non-finite training gradient at epoch {epoch}")
                if not math.isfinite(loss):
                    raise DivergenceError(f"non-finite training loss at epoch {epoch}")
                # a step can overflow the weights: the check after the epoch raises
                opt.step(model, grads, lr, config.weight_decay)
            step += 1
        _flush_subnormals(opt.state())
        if not np.isfinite(model.flat).all():
            raise DivergenceError(f"non-finite weights after epoch {epoch}")
        if epoch_callback is not None:
            epoch_callback(epoch, model.copy())


# ---------------------------------------------------------------------------
# checkpoints


def save_model(model: Model, path: str) -> None:
    """Write `model` as a checkpoint; a non-finite arena, which `load_model`
    refuses, is refused before the file is opened."""
    if not np.isfinite(model.flat).all():
        raise CheckpointFormatError(f"non-finite parameters; not writing checkpoint {path}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(model.layers)))
        for out_dim, in_dim in model.shapes:
            fh.write(struct.pack("<II", in_dim, out_dim))
        fh.write(model.flat.astype("<f4", copy=False).tobytes())


def load_model(path: str) -> Model:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise CheckpointFormatError(f"bad checkpoint magic in {path}")
    off = 4
    try:
        (count,) = struct.unpack_from("<I", blob, off)
        off += 4
        shapes = []
        for _ in range(count):
            in_dim, out_dim = struct.unpack_from("<II", blob, off)
            off += 8
            shapes.append((in_dim, out_dim))
    except struct.error as exc:
        raise CheckpointFormatError(f"truncated checkpoint header in {path}") from exc
    if not shapes:
        raise CheckpointFormatError(f"checkpoint {path} has no layers")
    for (in_a, out_a), (in_b, _) in zip(shapes, shapes[1:]):
        if out_a != in_b:
            raise CheckpointFormatError("checkpoint layer dims do not chain")
    need = 4 * sum(in_dim * out_dim + out_dim for in_dim, out_dim in shapes)
    if off + need > len(blob):
        raise CheckpointFormatError(f"truncated checkpoint payload in {path}")
    if off + need != len(blob):
        raise CheckpointFormatError(f"trailing bytes in checkpoint {path}")
    flat = np.frombuffer(blob, dtype="<f4", offset=off).copy()
    if not np.isfinite(flat).all():
        raise CheckpointFormatError(f"non-finite parameters in checkpoint {path}")
    return Model.on_arena(flat, [(out_dim, in_dim) for in_dim, out_dim in shapes])

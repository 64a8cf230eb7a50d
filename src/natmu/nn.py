"""Minimal feed-forward classifier with manual backprop.

Dense rectifier MLP over flattened pixels, cross-entropy on hard labels or
temperature-scaled KL on soft targets, SGD-momentum / decoupled-decay Adam
optimizers, and a cosine-to-zero schedule. Everything is seeded and each
model trains on one thread, so training is a pure function of (initial
model, dataset, config.seed). With an epoch callback, that thread is a
worker beside the caller, which observes each epoch's private copy while
the next epoch trains. Evaluation over a frozen model is read-only and safe
to share.

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

import math
import queue
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import CheckpointFormatError, DivergenceError, ShapeMismatchError, ValidationError

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


def forward(model: Model, batch: np.ndarray) -> np.ndarray:
    """Logits (B, K) for a pixel batch (B, d)."""
    return _forward_cached(model, batch)[0]


def _forward_cached(model: Model, batch: np.ndarray):
    """Logits and every layer's input (kept for backprop) for a pixel batch."""
    x = np.atleast_2d(np.asarray(batch))
    if x.shape[1] != model.input_dim:
        raise ShapeMismatchError(
            f"batch has {x.shape[1]} features, model expects {model.input_dim}"
        )
    acts = [x.astype(model.flat.dtype, copy=False)]
    for lyr in model.layers[:-1]:
        acts.append(np.maximum(acts[-1] @ lyr.weight.T + lyr.bias, 0.0))
    last = model.layers[-1]
    logits = acts[-1] @ last.weight.T + last.bias
    return logits, acts


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
    logits, acts = _forward_cached(model, batch)
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


# Both optimizers update the whole arena in place through scratch allocated
# on the first step. Each element takes the operations of the per-array form
# in the comments in the same order, so the results are bit-identical to it.


class SgdMomentum:
    def __init__(self, momentum: float = 0.9):
        self.momentum = momentum
        self.velocity = None
        self._scratch = None

    def state(self) -> list[np.ndarray]:
        return [self.velocity]

    def step(self, model: Model, grads: Model, lr: float, weight_decay: float):
        p, g = model.flat, grads.flat
        if self.velocity is None:
            self.velocity, self._scratch = np.zeros_like(p), np.empty_like(p)
        v, s = self.velocity, self._scratch
        v *= self.momentum
        v += g
        p -= np.multiply(v, lr, out=s)  # p -= lr * v
        if weight_decay:
            p -= np.multiply(p, lr * weight_decay, out=s)  # p -= lr * wd * p


class AdamW:
    """Adaptive moments with decoupled weight decay applied after the step."""

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = None
        self.v = None
        self._scratch = None

    def state(self) -> list[np.ndarray]:
        return [self.m, self.v]

    def step(self, model: Model, grads: Model, lr: float, weight_decay: float):
        p, g = model.flat, grads.flat
        if self.m is None:
            self.m, self.v = np.zeros_like(p), np.zeros_like(p)
            self._scratch = (np.empty_like(p), np.empty_like(p))
        m, v = self.m, self.v
        s, d = self._scratch
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=s)  # m += (1 - b1) * g
        v *= self.beta2
        v += np.multiply(np.multiply(g, 1.0 - self.beta2, out=s), g, out=s)  # (1 - b2) * g * g
        # p -= lr * (m / c1) / (sqrt(v / c2) + eps)
        np.multiply(np.divide(m, c1, out=s), lr, out=s)
        np.sqrt(np.divide(v, c2, out=d), out=d)
        d += self.eps
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
        if self.epochs < 0:
            raise ValidationError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.base_lr <= 0:
            raise ValidationError(f"base_lr must be > 0, got {self.base_lr}")
        if self.optimizer not in OPTIMIZERS:
            raise ValidationError(f"unknown optimizer {self.optimizer!r}")

    def with_seed(self, seed: int) -> "TrainConfig":
        return replace(self, seed=seed)


def predict_logits(model: Model, pixels: np.ndarray, chunk: int = 4096) -> np.ndarray:
    """Forward over a full array in chunks; returns (N, K) logits."""
    outs = [forward(model, pixels[i:i + chunk]) for i in range(0, len(pixels), chunk)]
    return np.concatenate(outs, axis=0) if outs else np.zeros((0, model.class_count))


class Ascent(NamedTuple):
    """A stream `train` ascends on alongside its dataset (NegGrad+): each
    step also takes a batch of `data` and subtracts `alpha` times its
    gradient. Batches of min(batch_size, len(data)) cycle through `data`
    from its start each epoch, in an order reshuffled per epoch from `seed`."""

    data: object  # a Dataset
    alpha: float
    seed: int


def _backward_on(model: Model, dataset, idx, temperature: float, out: Model) -> float:
    soft = None if dataset.soft_labels is None else dataset.soft_labels[idx]
    loss, _ = backward(model, dataset.pixels[idx], labels=dataset.labels[idx],
                       soft_targets=soft, temperature=temperature, out=out)
    return loss


def train(model: Model, dataset, config: TrainConfig, *, temperature: float = 1.0,
          epoch_callback=None, batch_callback=None, ascent: Ascent | None = None) -> Model:
    """Mini-batch training; returns the trained copy.

    The input model is never mutated. Batch order and all updates derive
    from config.seed (and ascent.seed), so identical inputs reproduce
    bit-identical parameters. Soft-labeled datasets are trained with the
    tempered KL loss. A step whose loss (descent minus alpha times ascent)
    is not finite raises DivergenceError before the update.

    epoch_callback(epoch_index, model) gets a private copy of the model
    after each epoch's last step and subnormal flush, the one place
    per-epoch outputs come from. It runs on the calling thread, in epoch
    order, while one worker thread trains the next epoch; once it raises,
    the worker stops at its next epoch boundary. Without it no thread
    starts. batch_callback(ids) gets each batch's instance ids before its
    step, on the thread that trains. An exception from either callback or
    from training reaches the caller as itself.
    """
    n = len(dataset)
    if n == 0:
        raise ValidationError("cannot train on an empty dataset")
    model = model.copy()
    if config.epochs == 0:
        return model
    epochs = _epochs(model, dataset, config, temperature, batch_callback, ascent)
    if epoch_callback is None:
        for _ in epochs:
            pass
        return model

    # Training moves to the worker, not the callback: the callbacks' large
    # forwards then keep their temporaries in the main thread's malloc
    # arena (a callback thread's own arena held them, +5 MB peak RSS on desk).
    handed, stop = queue.SimpleQueue(), threading.Event()

    def hand_over():
        try:
            for epoch in epochs:
                if stop.is_set():
                    return
                handed.put((epoch, model.copy()))
        finally:
            handed.put(None)

    with ThreadPoolExecutor(max_workers=1) as pool:
        worker = pool.submit(hand_over)
        try:
            for epoch, trained in iter(handed.get, None):
                epoch_callback(epoch, trained)
        finally:
            stop.set()
        worker.result()
    return model


def _epochs(model: Model, dataset, config: TrainConfig, temperature: float,
            batch_callback, ascent: Ascent | None):
    """Train `model` in place, yielding each epoch's index after its last
    step and subnormal flush."""
    n = len(dataset)
    rng = np.random.default_rng(config.seed)
    opt = OPTIMIZERS[config.optimizer]()
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
            if not math.isfinite(loss):
                raise DivergenceError(f"non-finite training loss at epoch {epoch}")
            opt.step(model, grads, lr, config.weight_decay)
            step += 1
        _flush_subnormals(opt.state())
        yield epoch


# ---------------------------------------------------------------------------
# checkpoints


def save_model(model: Model, path: str) -> None:
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

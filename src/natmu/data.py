"""Datasets: binary UDS ingestion, synthetic blobs, and forgetting splits.

UDS file layout: magic ``UDS1``; little-endian u32 fields N, H, W, C, K;
then N records of (u16 label, H*W*C little-endian f32 pixels in [0, 1]).
Pixels are stored flattened in (row, column, channel) order.

Datasets are immutable after construction and safe for shared reads. Every
instance carries a stable integer id (its index in the originating set),
which splits preserve; the retrain audit keys on ids, and difficult-sample
ranking breaks ties by them.
"""

import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BadMagicError,
    EmptyClassError,
    LabelRangeError,
    MissingTraceError,
    PixelRangeError,
    TruncatedPayloadError,
    ValidationError,
)
from .seeding import derive_seed

MAGIC = b"UDS1"

# Calibrated so blob classification is learnable but not saturated: a fresh
# MLP fits the training set while per-sample noise keeps individual samples
# identifiable, which relabeling-based unlearning needs to show its failure
# modes.
DEFAULT_SPREAD = 0.9


@dataclass
class Dataset:
    pixels: np.ndarray              # (N, d) float32 in [0, 1]
    labels: np.ndarray              # (N,) int64 hard class indices
    height: int
    width: int
    channels: int
    k: int
    ids: np.ndarray = None          # (N,) int64 instance identities
    soft_labels: np.ndarray = None  # (N, K) float32 rows summing to 1, or None
    subclass_labels: np.ndarray = None  # (N,) fine labels under a superclass remap

    def __post_init__(self):
        if self.ids is None:
            self.ids = np.arange(len(self.pixels), dtype=np.int64)

    def __len__(self) -> int:
        return len(self.pixels)

    @property
    def dim(self) -> int:
        return self.height * self.width * self.channels

    def validate(self) -> None:
        if self.pixels.ndim != 2 or self.pixels.shape[1] != self.dim:
            raise ValidationError("pixel array does not match H*W*C")
        if len(self.labels) != len(self.pixels) or len(self.ids) != len(self.pixels):
            raise ValidationError("labels/ids length mismatch")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.k):
            raise LabelRangeError(f"label outside [0, {self.k})")
        if len(self.pixels) and (self.pixels.min() < 0.0 or self.pixels.max() > 1.0):
            raise PixelRangeError("pixel outside [0, 1]")
        if self.soft_labels is not None:
            if self.soft_labels.shape != (len(self.pixels), self.k):
                raise ValidationError("soft label shape mismatch")
            if len(self.soft_labels) and np.abs(self.soft_labels.sum(axis=1) - 1.0).max() > 1e-5:
                raise ValidationError("soft labels must sum to 1")

    def subset(self, indices: np.ndarray) -> "Dataset":
        indices = np.asarray(indices, dtype=np.int64)
        return replace(
            self,
            pixels=self.pixels[indices],
            labels=self.labels[indices],
            ids=self.ids[indices],
            soft_labels=None if self.soft_labels is None else self.soft_labels[indices],
            subclass_labels=None if self.subclass_labels is None
            else self.subclass_labels[indices],
        )

    def sorted_by_id(self) -> "Dataset":
        return self.subset(np.argsort(self.ids, kind="stable"))

    def class_indices(self, label: int) -> np.ndarray:
        return np.nonzero(self.labels == label)[0]


def concat(first: Dataset, second: Dataset) -> Dataset:
    """Concatenate two compatible datasets (one geometry, both hard- or both
    soft-labeled), preserving order and ids."""
    if (first.height, first.width, first.channels, first.k) != (
            second.height, second.width, second.channels, second.k):
        raise ValidationError("cannot concatenate datasets of different geometry")
    if (first.soft_labels is None) != (second.soft_labels is None):
        raise ValidationError("cannot concatenate a soft-labeled dataset with a hard-labeled one")
    soft = None if first.soft_labels is None else np.concatenate(
        [first.soft_labels, second.soft_labels], axis=0)
    return Dataset(
        pixels=np.concatenate([first.pixels, second.pixels], axis=0),
        labels=np.concatenate([first.labels, second.labels]),
        height=first.height, width=first.width, channels=first.channels,
        k=first.k,
        ids=np.concatenate([first.ids, second.ids]),
        soft_labels=soft,
    )


# ---------------------------------------------------------------------------
# UDS file io


def _record_dtype(dim: int) -> np.dtype:
    return np.dtype([("label", "<u2"), ("pixels", "<f4", (dim,))])


def save_raw(dataset: Dataset, path: str) -> None:
    dataset.validate()
    records = np.zeros(len(dataset), dtype=_record_dtype(dataset.dim))
    records["label"] = dataset.labels
    records["pixels"] = dataset.pixels
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IIIII", len(dataset), dataset.height, dataset.width,
                             dataset.channels, dataset.k))
        fh.write(records.tobytes())


def load_raw(path: str) -> Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise BadMagicError(f"not a UDS file: {path}")
    if len(blob) < 24:
        raise TruncatedPayloadError(f"truncated UDS header in {path}")
    n, height, width, channels, k = struct.unpack_from("<IIIII", blob, 4)
    dim = height * width * channels
    record = 2 + 4 * dim
    if len(blob) != 24 + n * record:
        raise TruncatedPayloadError(
            f"UDS payload is {len(blob) - 24} bytes, expected {n * record}"
        )
    records = np.frombuffer(blob, dtype=_record_dtype(dim), count=n, offset=24)
    labels = records["label"].astype(np.int64)
    pixels = records["pixels"].astype(np.float32)
    if n and labels.max() >= k:
        raise LabelRangeError(f"label {labels.max()} >= K={k} in {path}")
    if n and (pixels.min() < 0.0 or pixels.max() > 1.0):
        raise PixelRangeError(f"pixel outside [0, 1] in {path}")
    return Dataset(pixels=pixels, labels=labels, height=height, width=width,
                   channels=channels, k=k)


# ---------------------------------------------------------------------------
# synthetic data


def check_synth(k: int, height: int, width: int, channels: int, spread: float,
                **per_class: int) -> None:
    """The synth parameters' rules, checked before any data is made;
    `per_class` gives each per-class sample count by its name."""
    least = {"k": (k, 2), **{name: (n, 1) for name, n in per_class.items()},
             "height": (height, 1), "width": (width, 1), "channels": (channels, 1),
             "spread": (spread, 0)}
    for name, (value, bound) in least.items():
        if not value >= bound:
            raise ValidationError(f"synth {name} must be >= {bound}, got {value}")


def synth_blobs(k: int, per_class: int, height: int, width: int, channels: int,
                spread: float = DEFAULT_SPREAD, seed: int = 0,
                split: str = "train") -> Dataset:
    """Class-conditional Gaussian pixel blobs clipped to [0, 1].

    Class templates depend only on (k, dims, seed), so train and test splits
    drawn with the same seed share templates while sampling independent noise.
    spread 0 reproduces the template exactly.
    """
    check_synth(k, height, width, channels, spread, per_class=per_class)
    dim = height * width * channels
    means_rng = np.random.default_rng(derive_seed(seed, "means"))
    noise_rng = np.random.default_rng(derive_seed(seed, "noise", split))
    means = means_rng.uniform(0.0, 1.0, size=(k, dim))
    pixels = np.zeros((k * per_class, dim), dtype=np.float32)
    labels = np.zeros(k * per_class, dtype=np.int64)
    for c in range(k):
        block = slice(c * per_class, (c + 1) * per_class)
        noise = noise_rng.normal(0.0, spread, size=(per_class, dim))
        pixels[block] = np.clip(means[c] + noise, 0.0, 1.0)
        labels[block] = c
    return Dataset(pixels=pixels, labels=labels, height=height, width=width,
                   channels=channels, k=k)


def to_superclass(dataset: Dataset, mapping) -> Dataset:
    """Relabel fine classes through a superclass table, keeping fine labels.

    mapping[fine_label] = superclass label. The result trains and evaluates
    at superclass granularity; the original labels remain available as
    subclass_labels for sub-class forgetting splits.
    """
    mapping = np.asarray(mapping, dtype=np.int64)
    if len(mapping) != dataset.k:
        raise ValidationError("superclass mapping must cover every class")
    return replace(
        dataset,
        labels=mapping[dataset.labels],
        k=int(mapping.max()) + 1,
        subclass_labels=dataset.labels.copy(),
    )


# ---------------------------------------------------------------------------
# forgetting splits


@dataclass(frozen=True)
class ForgettingSpec:
    mode: str                 # random | class | difficult
    ratio: float = 0.01       # random/difficult modes
    class_index: int = 0      # class mode
    scope: str = "full"       # class mode: full | sub
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("random", "class", "difficult"):
            raise ValidationError(f"unknown forgetting mode {self.mode!r}")
        if self.mode in ("random", "difficult") and not 0.0 < self.ratio < 1.0:
            raise ValidationError(f"forgetting ratio must be in (0, 1), got {self.ratio}")
        if self.mode == "class" and self.scope not in ("full", "sub"):
            raise ValidationError(f"class scope must be full or sub, got {self.scope!r}")


def forget_count(ratio: float, n: int) -> int:
    """round(ratio * n), the size of a random or difficult forgetting set
    drawn from n instances; a ValidationError if either side would be empty."""
    size = int(round(ratio * n))
    if not 1 <= size <= n - 1:
        raise ValidationError(f"forgetting ratio {ratio} of N = {n} instances leaves "
                              f"{'the forgetting' if size < 1 else 'the remaining'} "
                              f"set empty")
    return size


def split_forget(dataset: Dataset, spec: ForgettingSpec,
                 counts: np.ndarray | None = None) -> tuple[Dataset, Dataset]:
    """Partition a dataset into (forgetting set, remaining set).

    random: `forget_count(ratio, N)` instances drawn without replacement
    from spec.seed. class: every instance of the class (fine labels for sub
    scope). difficult: the `forget_count(ratio, N)` instances with the
    smallest `counts` (the pretrain's correct-epoch count of each row, in
    row order), ties broken by ascending id.
    """
    n = len(dataset)
    if spec.mode == "random":
        size = forget_count(spec.ratio, n)
        rng = np.random.default_rng(spec.seed)
        chosen = np.sort(rng.choice(n, size=size, replace=False))
    elif spec.mode == "class":
        chosen = _class_rows(dataset, spec, "instances")
    else:
        if counts is None:
            raise MissingTraceError("difficult-sample forgetting needs a training trace")
        if len(counts) != n:
            raise ValidationError(f"{len(counts)} correct-epoch counts for {n} instances")
        size = forget_count(spec.ratio, n)
        order = np.lexsort((dataset.ids, counts))
        chosen = np.sort(order[:size])
    mask = np.zeros(n, dtype=bool)
    mask[chosen] = True
    return dataset.subset(np.nonzero(mask)[0]), dataset.subset(np.nonzero(~mask)[0])


def forgetting_test_subset(test_set: Dataset, spec: ForgettingSpec) -> Dataset:
    """Test instances of the forgetting class (class-wise scenarios only)."""
    if spec.mode != "class":
        raise ValidationError("test subset of the forgetting class needs class mode")
    return test_set.subset(_class_rows(test_set, spec, "test instances"))


def _class_rows(dataset: Dataset, spec: ForgettingSpec, what: str) -> np.ndarray:
    """Row positions of the forgetting class in `dataset`, by fine label under
    sub scope; an EmptyClassError says the class has no `what`."""
    if spec.scope == "sub":
        if dataset.subclass_labels is None:
            raise ValidationError("sub-class forgetting needs subclass labels")
        rows = np.nonzero(dataset.subclass_labels == spec.class_index)[0]
    else:
        rows = dataset.class_indices(spec.class_index)
    if len(rows) == 0:
        raise EmptyClassError(f"class {spec.class_index} has no {what}")
    return rows

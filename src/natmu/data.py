"""Datasets: binary UDS ingestion, synthetic blobs, and forgetting splits.

UDS file layout: magic ``UDS1``; little-endian u32 fields N, H, W, C, K;
then N records of (u16 label, H*W*C little-endian f32 pixels in [0, 1]).
Pixels are stored flattened in (row, column, channel) order. `save_raw` and
`load_raw` refuse one header alike (`check_header`).

Datasets are immutable after construction and safe for shared reads. Every
instance carries a stable integer id (its index in the originating set),
which splits preserve; the retrain audit keys on ids, and difficult-sample
ranking breaks ties by them. `concat` joins two datasets without copying
their rows: training reads a batch from both parts (`rows`), and
`save_raw` writes them one after the other.
"""

import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BadMagicError,
    DatasetFormatError,
    EmptyClassError,
    LabelRangeError,
    MissingTraceError,
    PixelRangeError,
    TruncatedPayloadError,
    ValidationError,
    check_least,
)
from .seeding import derive_seed

MAGIC = b"UDS1"

# Calibrated so blob classification is learnable but not saturated: a fresh
# MLP fits the training set while per-sample noise keeps individual samples
# identifiable, which relabeling-based unlearning needs to show its failure
# modes.
DEFAULT_SPREAD = 0.9

# Classes a dataset needs, be it synthetic, read from a UDS file or mapped to
# superclasses: a classifier of one class has nothing to learn or forget.
MIN_CLASSES = 2
# Classes a UDS file can hold: its labels are u16.
MAX_UDS_CLASSES = 1 << 16


@dataclass
class Dataset:
    """Rows of pixels with their labels and ids, each column one array.
    Training reads a batch of rows through `rows`, as it reads the rows of
    two datasets joined by `concat` (a `Joined`)."""

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
        check_header(self.height, self.width, self.channels, self.k)
        if self.pixels.ndim != 2 or self.pixels.shape[1] != self.dim:
            raise ValidationError("pixel array does not match H*W*C")
        if len(self.labels) != len(self.pixels) or len(self.ids) != len(self.pixels):
            raise ValidationError("labels/ids length mismatch")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.k):
            raise LabelRangeError(f"label outside [0, {self.k})")
        check_pixels(self.pixels)
        if self.soft_labels is not None:
            if self.soft_labels.shape != (len(self.pixels), self.k):
                raise ValidationError("soft label shape mismatch")
            if len(self.soft_labels) and np.abs(self.soft_labels.sum(axis=1) - 1.0).max() > 1e-5:
                raise ValidationError("soft labels must sum to 1")

    @property
    def parts(self) -> tuple["Dataset"]:
        return (self,)

    def rows(self, idx: np.ndarray):
        """The (pixels, labels, soft labels or None) of the rows at `idx`."""
        soft = None if self.soft_labels is None else self.soft_labels[idx]
        return self.pixels[idx], self.labels[idx], soft

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

    def class_indices(self, label: int) -> np.ndarray:
        return np.nonzero(self.labels == label)[0]


def check_pixels(pixels: np.ndarray, where: str = "") -> None:
    """Refuse any pixel that is not a finite value in [0, 1]. The comparisons
    are written so that they hold: NaN fails each, and min and max carry it."""
    if pixels.size and not (pixels.min() >= 0.0 and pixels.max() <= 1.0):
        raise PixelRangeError(f"pixel outside [0, 1] or not finite{where}")


def check_header(height: int, width: int, channels: int, k: int, where: str = "",
                 error=ValidationError) -> None:
    """The UDS header rule, kept by the files `save_raw` writes and `load_raw`
    reads: H, W and C at least 1, and K from 2 to MAX_UDS_CLASSES."""
    check_least("UDS header", {"H": (height, 1), "W": (width, 1), "C": (channels, 1),
                              "K": (k, MIN_CLASSES)}, where, error)
    if k > MAX_UDS_CLASSES:
        raise error(f"UDS header K must be <= {MAX_UDS_CLASSES}, got {k}{where}")


def concat(first: Dataset, second: Dataset) -> "Joined":
    """The rows of `first`, then those of `second`, with their ids, as a
    `Joined` that refers to both and copies neither. They must have one
    geometry and be both hard- or both soft-labeled."""
    if (first.height, first.width, first.channels, first.k) != (
            second.height, second.width, second.channels, second.k):
        raise ValidationError("cannot concatenate datasets of different geometry")
    if (first.soft_labels is None) != (second.soft_labels is None):
        raise ValidationError("cannot concatenate a soft-labeled dataset with a hard-labeled one")
    return Joined(first, second)


@dataclass
class Joined:
    """Two datasets read as one (`concat`): the rows of `first`, then those
    of `second`. Only the ids are joined into one array; a batch's pixels,
    labels and soft labels are gathered from the parts (`rows`), and
    `subset` copies the rows it is asked for into a `Dataset`."""

    first: Dataset
    second: Dataset

    def __post_init__(self):
        self.ids = np.concatenate([self.first.ids, self.second.ids])

    def __len__(self) -> int:
        return len(self.first) + len(self.second)

    height = property(lambda self: self.first.height)
    width = property(lambda self: self.first.width)
    channels = property(lambda self: self.first.channels)
    k = property(lambda self: self.first.k)

    @property
    def parts(self) -> tuple[Dataset, Dataset]:
        return self.first, self.second

    def validate(self) -> None:
        for part in self.parts:
            part.validate()

    def rows(self, idx: np.ndarray):
        """As `Dataset.rows`: each column taken from `first`, then the rows
        whose index falls in `second` overwritten from there. Which rows
        those are is found once and serves every column."""
        first, second = self.first, self.second
        n = len(first)
        if n == 0:  # nothing to take the columns from
            return second.rows(idx)
        # an index into `second` reads `first`'s last row here, overwritten below
        pixels = first.pixels.take(idx, axis=0, mode="clip")
        labels = first.labels.take(idx, mode="clip")
        soft = None if first.soft_labels is None else first.soft_labels.take(
            idx, axis=0, mode="clip")
        later = (idx >= n).nonzero()[0]
        if len(later):
            back = idx[later] - n
            pixels[later] = second.pixels.take(back, axis=0)
            labels[later] = second.labels.take(back)
            if soft is not None:
                soft[later] = second.soft_labels.take(back, axis=0)
        return pixels, labels, soft

    def subset(self, indices: np.ndarray) -> Dataset:
        indices = np.asarray(indices, dtype=np.int64)
        pixels, labels, soft = self.rows(indices)
        return Dataset(pixels=pixels, labels=labels, height=self.height, width=self.width,
                       channels=self.channels, k=self.k, ids=self.ids[indices],
                       soft_labels=soft)


# ---------------------------------------------------------------------------
# UDS file io


def _record_dtype(dim: int) -> np.dtype:
    return np.dtype([("label", "<u2"), ("pixels", "<f4", (dim,))])


# Rows per chunk in `save_raw` and `load_raw`: one record buffer of this many
# rows is filled and written, or read into and decoded, at a time, so no
# whole-set copy of the records is made. The bytes written and the arrays
# read do not depend on it.
SAVE_CHUNK = 1024


def save_raw(dataset: Dataset | Joined, path: str) -> None:
    """Write `dataset` as a UDS file; a joined one part by part, the same bytes.
    The records go through one buffer of SAVE_CHUNK rows, reused for each
    chunk of rows and handed to the file as it is."""
    dataset.validate()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IIIII", len(dataset), dataset.height, dataset.width,
                             dataset.channels, dataset.k))
        records = np.zeros(min(len(dataset), SAVE_CHUNK),
                           dtype=_record_dtype(dataset.parts[0].dim))
        for part in dataset.parts:
            for start in range(0, len(part), SAVE_CHUNK):
                chunk = records[:len(part) - start]
                chunk["label"] = part.labels[start:start + len(chunk)]
                chunk["pixels"] = part.pixels[start:start + len(chunk)]
                fh.write(chunk)


def load_raw(path: str) -> Dataset:
    """The dataset of the UDS file at `path`, which must be seekable. The
    header, and the payload's size against it, are checked before any
    record is read."""
    with open(path, "rb") as fh:
        head = fh.read(24)
        if head[:4] != MAGIC:
            raise BadMagicError(f"not a UDS file: {path}")
        if len(head) < 24:
            raise TruncatedPayloadError(f"truncated UDS header in {path}")
        n, height, width, channels, k = struct.unpack_from("<IIIII", head, 4)
        check_header(height, width, channels, k, f" in {path}", DatasetFormatError)
        dim = height * width * channels
        record = 2 + 4 * dim
        payload = fh.seek(0, os.SEEK_END) - 24  # a pipe, which cannot seek, is refused
        fh.seek(24)
        if payload != n * record:
            raise TruncatedPayloadError(f"UDS payload is {payload} bytes, expected {n * record}")
        labels, pixels = _read_records(fh, n, dim)
    if n and labels.max() >= k:
        raise LabelRangeError(f"label {labels.max()} >= K={k} in {path}")
    check_pixels(pixels, f" in {path}")
    return Dataset(pixels=pixels, labels=labels, height=height, width=width,
                   channels=channels, k=k)


def _read_records(fh, n: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The int64 labels and float32 pixels of the `n` records of `dim` pixels
    that follow in `fh`. They are read SAVE_CHUNK rows at a time into one
    reused buffer, each chunk decoded into the final arrays; a short read,
    of a file that shrank after its size was checked, is refused."""
    labels = np.empty(n, dtype=np.int64)
    pixels = np.empty((n, dim), dtype=np.float32)
    records = np.empty(min(n, SAVE_CHUNK), dtype=_record_dtype(dim))
    for start in range(0, n, SAVE_CHUNK):
        chunk = records[:n - start]
        got = fh.readinto(chunk)
        if got != chunk.nbytes:
            raise TruncatedPayloadError(f"UDS payload is {start * records.itemsize + got} "
                                        f"bytes, expected {n * records.itemsize}")
        labels[start:start + len(chunk)] = chunk["label"]
        pixels[start:start + len(chunk)] = chunk["pixels"]
    return labels, pixels


# ---------------------------------------------------------------------------
# synthetic data


def check_synth(k: int, height: int, width: int, channels: int, spread: float,
                **per_class: int) -> None:
    """The synth parameters' rules, checked before any data is made;
    `per_class` gives each per-class sample count by its name."""
    check_least("synth", {"k": (k, MIN_CLASSES),
                         **{name: (n, 1) for name, n in per_class.items()},
                         "height": (height, 1), "width": (width, 1),
                         "channels": (channels, 1), "spread": (spread, 0)})


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
        noise += means[c]  # means[c] + noise in place: IEEE addition commutes
        pixels[block] = np.clip(noise, 0.0, 1.0, out=noise)
        labels[block] = c
    return Dataset(pixels=pixels, labels=labels, height=height, width=width,
                   channels=channels, k=k)


def check_superclass_map(mapping, k: int) -> np.ndarray:
    """`mapping` as an int64 array, refused unless it gives each of `k` fine
    classes a superclass label >= 0 and leaves at least 2 superclasses."""
    mapping = np.asarray(mapping, dtype=np.int64)
    if len(mapping) != k:
        raise ValidationError(f"superclass mapping must cover every class: "
                              f"{len(mapping)} entries for k = {k}")
    if (mapping < 0).any():
        raise ValidationError(f"superclass labels must be >= 0, got {mapping.min()}")
    check_least("superclass mapping", {"classes": (len(set(mapping.tolist())), MIN_CLASSES)})
    return mapping


def to_superclass(dataset: Dataset, mapping) -> Dataset:
    """Relabel fine classes through a superclass table, keeping fine labels.

    mapping[fine_label] = superclass label. The result trains and evaluates
    at superclass granularity; the original labels remain available as
    subclass_labels for sub-class forgetting splits.
    """
    mapping = check_superclass_map(mapping, dataset.k)
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
        chosen = class_rows(dataset, spec, "instances")
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
    return test_set.subset(class_rows(test_set, spec, "test instances"))


def class_rows(dataset: Dataset, spec: ForgettingSpec, what: str) -> np.ndarray:
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

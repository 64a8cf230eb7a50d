"""Construction of hybrid unlearning instances and the fine-tuning dataset.

For every forgetting sample we pick the n most plausible other categories
under the original model, draw one remaining instance from each, and blend
the forgetting sample with each drawn instance through a weighting mask.
The blended sample takes the drawn instance's label. Merging the remaining
set with all such instances yields the fine-tuning dataset.

The hybrids are built as columns: one batched forward ranks the categories
of every forgetting sample, and the blend fills one array of all hybrids,
BLEND_CHUNK forgetting samples at a time, so its temporaries stay a fixed
size whatever the size of the set.
Construction is a pure function of its inputs: every forgetting sample draws
its picks and its masks from its own RNG streams keyed by id, so a sample's
hybrids do not depend on the order of the forgetting set.
"""

from dataclasses import dataclass

import numpy as np

from .data import Dataset, concat
from .errors import CategoryExhaustedError, ShapeMismatchError, ValidationError
from .nn import Model, predict_logits
from .seeding import derive_seed

NATMU = "natmu"
MULTI_LABEL = "multi_label"
SEGMENTATION_ONLY = "segmentation_only"

VARIANTS = (NATMU, MULTI_LABEL, SEGMENTATION_ONLY)

# Forgetting samples blended at a time by `build_unlearning_set`. Each pixel
# takes the same operations at any chunk size, so the hybrids do not depend
# on it.
BLEND_CHUNK = 64


@dataclass(frozen=True)
class HybridSet:
    """n hybrids per forgetting sample, in forgetting-set order. Row i of
    `data` blends forgetting instance `forget_ids[i]` with remaining instance
    `remaining_ids[i]` through mask `mask_index[i]` of the mask set, and
    takes that remaining instance's label, never the forgetting sample's."""

    data: Dataset
    forget_ids: np.ndarray
    remaining_ids: np.ndarray
    mask_index: np.ndarray

    def __len__(self) -> int:
        return len(self.data)


def inject(x_f: np.ndarray, x_r: np.ndarray, weights: np.ndarray,
           out: np.ndarray | None = None) -> np.ndarray:
    """Blend flattened float32 images: x_f where the weight is 1, x_r where it
    is 0, as x_f * w + x_r * (1 - w) through in-place ufuncs. x_f and x_r
    broadcast to the shape of `weights`, which the result takes; it is
    written into `out` if given."""
    try:
        shape = np.broadcast_shapes(x_f.shape, x_r.shape, weights.shape)
    except ValueError:
        shape = None
    if shape != weights.shape:
        raise ShapeMismatchError(
            f"inject shapes differ: {x_f.shape}, {x_r.shape}, weights {weights.shape}"
        )
    blend = np.multiply(x_f, weights, out=out)
    rest = np.subtract(1.0, weights)
    rest *= x_r
    blend += rest
    return blend


def select_remaining(model_o: Model, d_f: Dataset, d_r: Dataset, n: int,
                     seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Pick n remaining instances for each forgetting sample from its top
    predicted categories.

    Categories are ranked by descending logit under the original model
    (ties by ascending class index), skipping the sample's label and any
    category absent from the remaining set. One instance per category is
    drawn uniformly, from the sample's stream (seed, "select", id). Returns
    (positions in d_r, categories), each of shape (len(d_f), n), in rank order.
    """
    if not 1 <= n <= d_r.k - 1:
        raise ValidationError(f"n={n} must be in 1..K-1={d_r.k - 1} selectable categories")
    ranked = np.argsort(-predict_logits(model_o, d_f.pixels), axis=1, kind="stable")
    members = [d_r.class_indices(c) for c in range(d_r.k)]
    positions = np.zeros((len(d_f), n), dtype=np.int64)
    categories = np.zeros((len(d_f), n), dtype=np.int64)
    for i, (fid, label) in enumerate(zip(d_f.ids.tolist(), d_f.labels.tolist())):
        picked = [c for c in ranked[i].tolist() if c != label and len(members[c])][:n]
        if len(picked) < n:
            raise CategoryExhaustedError(
                f"only {len(picked)} of {n} categories have remaining instances"
            )
        rng = np.random.default_rng(derive_seed(seed, "select", fid))
        positions[i] = [members[c][rng.integers(len(members[c]))] for c in picked]
        categories[i] = picked
    return positions, categories


def _mask_plan(n: int, family_size: int, seed: int, shuffle: bool) -> np.ndarray:
    """Indices into the mask family for one forgetting sample, drawn from
    its stream `seed`."""
    rng = np.random.default_rng(seed)
    if n == family_size:
        plan = np.arange(n)
    elif n < family_size:
        plan = np.sort(rng.choice(family_size, size=n, replace=False))
    else:
        plan = np.arange(n) % family_size
    return plan[rng.permutation(n)] if shuffle else plan


def build_unlearning_set(d_f: Dataset, d_r: Dataset, model_o: Model,
                         mask_set: list[np.ndarray], variant: str = NATMU,
                         seed: int = 0, n: int | None = None,
                         shuffle_masks: bool = False) -> HybridSet:
    """n hybrids per forgetting sample, in forgetting-set order.

    natmu blends each forgetting sample with its selected remaining
    instances; multi_label keeps the sample unmodified and only reassigns
    labels; segmentation_only blends against an all-zero image. The hybrid
    of forgetting id f at position j of its group gets id base + f*n + j,
    above every forgetting and remaining id, so a permuted forgetting set
    yields the same hybrids under the same ids.
    """
    if variant not in VARIANTS:
        raise ValidationError(f"unknown builder variant {variant!r}")
    if n is None:
        n = len(mask_set)
    positions, categories = select_remaining(model_o, d_f, d_r, n, seed)
    mask_index = np.array([_mask_plan(n, len(mask_set), derive_seed(seed, "masks", fid),
                                      shuffle_masks) for fid in d_f.ids.tolist()],
                          dtype=np.int64).reshape(len(d_f), n)
    if variant == MULTI_LABEL:
        pixels = np.repeat(d_f.pixels, n, axis=0)
    else:
        family = np.repeat(np.stack(mask_set).reshape(len(mask_set), -1), d_f.channels, axis=1)
        pixels = np.empty((len(d_f) * n, d_f.dim), dtype=np.float32)
        blended = pixels.reshape(len(d_f), n, d_f.dim)
        for start in range(0, len(d_f), BLEND_CHUNK):
            rows = slice(start, start + BLEND_CHUNK)
            x_r = (d_r.pixels[positions[rows]] if variant == NATMU
                   else np.zeros(d_f.dim, dtype=np.float32))
            inject(d_f.pixels[rows, None, :], x_r, family[mask_index[rows]],
                   out=blended[rows])
    base = int(max(d_f.ids.max(initial=-1), d_r.ids.max(initial=-1))) + 1
    hybrids = Dataset(
        pixels=pixels, labels=categories.reshape(-1),
        height=d_r.height, width=d_r.width, channels=d_r.channels, k=d_r.k,
        ids=(base + d_f.ids[:, None] * n + np.arange(n)).reshape(-1),
    )
    return HybridSet(hybrids, np.repeat(d_f.ids, n), d_r.ids[positions].reshape(-1),
                     mask_index.reshape(-1))


def build_finetune_dataset(d_r: Dataset, hybrids: HybridSet) -> Dataset:
    """The remaining set followed by the hybrids."""
    return concat(d_r, hybrids.data)

"""Unlearning algorithms: retrain oracle, hybrid-injection fine-tuning,
random relabeling, bad-teacher distillation, and ascent-descent fine-tuning.

Every method fine-tunes a copy of the original model; inputs are never
mutated. All randomness is derived from the request seed through named
streams, so independent runs are reproducible and order-independent.
"""

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .builder import NATMU, HybridSet, build_finetune_dataset, build_unlearning_set
from .data import Dataset, concat
from .errors import RetrainIsolationError, ValidationError
from .masks import build_mask_set
from .nn import (
    Ascent,
    Model,
    TrainConfig,
    init_model,
    predict_logits,
    reinit_layer,
    softmax,
    train,
)
from .seeding import derive_seed

HIDDEN_DIMS = (64, 64)


def default_dims(input_dim: int, class_count: int) -> list[int]:
    return [input_dim, *HIDDEN_DIMS, class_count]


@dataclass
class MethodParams:
    n: int = 4
    delta: float = -0.031
    mask_family: str = "gradual"
    cutmix_edge: int | None = None
    shuffle_masks: bool = False
    variant: str = NATMU            # natmu | multi_label | segmentation_only
    temperature: float = 1.0
    ascent_coefficient: float = 0.01
    reinit_final_layer: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")
        if self.temperature <= 0:
            raise ValidationError(f"temperature must be > 0, got {self.temperature}")
        if self.ascent_coefficient < 0:
            raise ValidationError(
                f"ascent coefficient must be >= 0, got {self.ascent_coefficient}"
            )


@dataclass
class UnlearnRequest:
    model: Model | None  # None: only for the sets outside SETS_FROM_MODEL
    d_f: Dataset
    d_r: Dataset
    config: TrainConfig
    params: MethodParams = field(default_factory=MethodParams)
    seed: int = 0
    epoch_callback: object = None
    executor: object = None  # the one-worker executor the method trains on (`nn.train`)
    # training sets built from this request, each built once (`_once_per_request`,
    # `finetune_set`)
    built: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        overlap = set(self.d_f.ids.tolist()) & set(self.d_r.ids.tolist())
        if overlap:
            raise ValidationError(
                f"forgetting and remaining sets share {len(overlap)} instances"
            )


def _once_per_request(build):
    """`build(request)`, computed on a request's first call and kept on it:
    a method and `unlearning_dataset` given the same request share one set."""
    @functools.wraps(build)
    def once(request: UnlearnRequest):
        if build.__name__ not in request.built:
            request.built[build.__name__] = build(request)
        return request.built[build.__name__]
    return once


def _finetune(request: UnlearnRequest, dataset: Dataset, **train_options) -> Model:
    """The request's model (its final layer re-initialized if the params say
    so) trained on `dataset` from the request's fine-tuning seed."""
    model = request.model
    if request.params.reinit_final_layer:
        model = model.copy()
        reinit_layer(model, -1, derive_seed(request.seed, "reinit"))
    return train(model, dataset, request.config.with_seed(derive_seed(request.seed, "finetune")),
                 epoch_callback=request.epoch_callback, executor=request.executor,
                 **train_options)


# ---------------------------------------------------------------------------
# retrain oracle


def retrain(d_r: Dataset, config: TrainConfig, forbidden_ids=(), epoch_callback=None,
            executor=None):
    """Train a fresh model on the remaining data only, on `executor` as in
    `train`.

    Returns (model, audit). Every batch's instance ids are checked against
    the forbidden (forgetting) ids before its step, where the loop runs, and
    the first batch holding one raises RetrainIsolationError; the audit counts
    the ids checked ("batches_logged"), the forbidden ids and the
    violations (zero).
    """
    if len(d_r) == 0:
        raise ValidationError("cannot retrain on an empty remaining set")
    model = init_model(default_dims(d_r.dim, d_r.k), derive_seed(config.seed, "init"))
    check = IsolationCheck(forbidden_ids)
    model = train(model, d_r, config, batch_callback=check, epoch_callback=epoch_callback,
                  executor=executor)
    return model, {"batches_logged": check.logged, "forbidden_ids": len(check.forbidden),
                   "violations": 0}


class IsolationCheck:
    """A batch callback that refuses a batch holding a forbidden id and
    counts the ids it has checked (`logged`)."""

    def __init__(self, forbidden_ids):
        self.forbidden = frozenset(int(i) for i in forbidden_ids)  # np.isin: ~50x slower
        self.logged = 0

    def __call__(self, ids):
        batch = ids.tolist()
        if not self.forbidden.isdisjoint(batch):
            raise RetrainIsolationError("forgetting ids reached retraining batches: "
                                        f"{sorted(self.forbidden.intersection(batch))[:5]}")
        self.logged += len(batch)


# ---------------------------------------------------------------------------
# hybrid-injection fine-tuning


@_once_per_request
def natmu_hybrids(request: UnlearnRequest) -> HybridSet:
    """The hybrids this method fine-tunes on (deterministic)."""
    p = request.params
    masks = build_mask_set(p.mask_family, request.d_f.height, request.d_f.width,
                           p.delta, p.cutmix_edge)
    return build_unlearning_set(
        request.d_f, request.d_r, request.model, masks, variant=p.variant,
        seed=derive_seed(request.seed, "build"), n=p.n,
        shuffle_masks=p.shuffle_masks)


def natmu_finetune_set(request: UnlearnRequest) -> Dataset:
    """The fine-tuning dataset this method trains on: the remaining set,
    then the hybrids."""
    return build_finetune_dataset(request.d_r, natmu_hybrids(request))


def unlearn_natmu(request: UnlearnRequest) -> Model:
    return _finetune(request, finetune_set("natmu", request))


# ---------------------------------------------------------------------------
# random relabeling


@_once_per_request
def amnesiac_relabeled(request: UnlearnRequest) -> Dataset:
    """Forgetting samples with random incorrect labels, fixed once per run."""
    d_f = request.d_f
    if d_f.k < 2:
        raise ValidationError("random relabeling needs at least 2 classes")
    rng = np.random.default_rng(derive_seed(request.seed, "relabel"))
    draws = rng.integers(0, d_f.k - 1, size=len(d_f))
    relabeled = np.where(draws >= d_f.labels, draws + 1, draws)
    return replace(d_f, labels=relabeled.astype(np.int64))


def unlearn_amnesiac(request: UnlearnRequest) -> Model:
    return _finetune(request, finetune_set("amnesiac", request))


# ---------------------------------------------------------------------------
# bad-teacher distillation


@_once_per_request
def badteacher_targets(request: UnlearnRequest) -> tuple[Dataset, Dataset]:
    """Soft-labeled (remaining, forgetting) sets from the frozen teachers.

    Remaining targets come from the original model, forgetting targets from
    a freshly initialized one; both tempered by the method temperature.
    The teachers are frozen, so targets are computed once and cached.
    """
    temp = request.params.temperature
    bad = init_model(request.model.dims, derive_seed(request.seed, "bad_teacher"))
    soft_r = softmax(predict_logits(request.model, request.d_r.pixels) / temp)
    soft_f = softmax(predict_logits(bad, request.d_f.pixels) / temp)
    d_r = replace(request.d_r, soft_labels=soft_r.astype(np.float32))
    d_f = replace(request.d_f, soft_labels=soft_f.astype(np.float32))
    return d_r, d_f


def unlearn_badteacher(request: UnlearnRequest) -> Model:
    return _finetune(request, finetune_set("badteacher", request),
                     temperature=request.params.temperature)


# ---------------------------------------------------------------------------
# descent on remaining, ascent on forgetting


def unlearn_neggrad_plus(request: UnlearnRequest) -> Model:
    """Each step descends on a remaining batch and ascends on a forgetting
    batch: loss(remaining) - alpha * loss(forgetting).

    Remaining batches follow the same seeded order as plain training, so
    alpha = 0 reproduces pure remaining-data fine-tuning exactly. The
    forgetting set cycles with a reshuffle per epoch. Aborts if the
    combined loss turns non-finite.
    """
    if len(request.d_r) == 0 or len(request.d_f) == 0:
        raise ValidationError("need non-empty remaining and forgetting sets")
    ascent = Ascent(request.d_f, request.params.ascent_coefficient,
                    derive_seed(request.seed, "forget_order"))
    return _finetune(request, finetune_set("neggrad", request), ascent=ascent)


UNLEARN_METHODS = {
    "natmu": unlearn_natmu,
    "amnesiac": unlearn_amnesiac,
    "badteacher": unlearn_badteacher,
    "neggrad": unlearn_neggrad_plus,
}

METHOD_NAMES = ("retrain",) + tuple(UNLEARN_METHODS)
# the MethodParams fields each method reads, the only keys its [method.X] section takes
METHOD_PARAMS = {
    "retrain": (),
    "natmu": ("n", "delta", "mask_family", "cutmix_edge", "shuffle_masks", "variant",
              "reinit_final_layer"),
    "amnesiac": ("reinit_final_layer",),
    "badteacher": ("temperature", "reinit_final_layer"),
    "neggrad": ("ascent_coefficient", "reinit_final_layer"),
}
SETS_FROM_MODEL = ("natmu", "badteacher")  # unlearning sets that read the request's model


def finetune_set(method: str, request: UnlearnRequest) -> Dataset:
    """The dataset `method` fine-tunes on, built on the request's first call
    and kept on it, so that a caller may build it before the method runs."""
    key = f"{method} finetune set"
    if key not in request.built:
        if method == "natmu":
            built = natmu_finetune_set(request)
        elif method == "amnesiac":
            built = concat(request.d_r, amnesiac_relabeled(request))
        elif method == "badteacher":
            built = concat(*badteacher_targets(request))
        else:  # neggrad: the remaining set, with the forgetting set as its ascent stream
            built = request.d_r
        request.built[key] = built
    return request.built[key]


def unlearning_dataset(method: str, request: UnlearnRequest) -> Dataset | None:
    """The relabeled instances a method fine-tunes on, for naturalness
    evaluation; None for methods that never relabel."""
    if method == "natmu":
        return natmu_hybrids(request).data
    if method == "amnesiac":
        return amnesiac_relabeled(request)
    if method == "badteacher":
        return badteacher_targets(request)[1]
    return None

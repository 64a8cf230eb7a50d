"""Unlearning algorithms: retrain oracle, hybrid-injection fine-tuning,
random relabeling, bad-teacher distillation, and ascent-descent fine-tuning.

Every method fine-tunes a copy of the original model; inputs are never
mutated. Its training is one `nn.Job`, and its function hands back the model.
All randomness is derived from the request seed through named streams, so
independent runs are reproducible and order-independent.
"""

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .builder import NATMU, VARIANTS, HybridSet, build_finetune_dataset, build_unlearning_set
from .data import Dataset, concat
from .errors import RetrainIsolationError, ValidationError, check_least
from .masks import CUTMIX_CORNER, MASK_FAMILIES, build_mask_set
from .nn import (
    Ascent,
    Job,
    Model,
    Pending,
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
        check_least("", {"n": (self.n, 1), "ascent_coefficient": (self.ascent_coefficient, 0)})
        if not 0 < self.temperature < math.inf:
            raise ValidationError(f"temperature must be finite and > 0, got {self.temperature}")
        if not math.isfinite(self.delta):
            raise ValidationError(f"delta must be finite, got {self.delta}")
        for name, value, known in (("mask family", self.mask_family, MASK_FAMILIES),
                                   ("variant", self.variant, VARIANTS)):
            if value not in known:
                raise ValidationError(f"unknown {name} {value!r}; expected one of {known}")
        if self.cutmix_edge is not None and self.mask_family != CUTMIX_CORNER:
            raise ValidationError(f"cutmix_edge = {self.cutmix_edge} needs mask family "
                                  f"{CUTMIX_CORNER!r}; {self.mask_family!r} takes no edge")


@dataclass
class UnlearnRequest:
    model: Model | None  # None: only for a method whose sets never read it
    d_f: Dataset
    d_r: Dataset
    config: TrainConfig
    params: MethodParams = field(default_factory=MethodParams)
    seed: int = 0
    # training sets built from this request, each built once (`_once_per_request`)
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


# ---------------------------------------------------------------------------
# retrain oracle


def fresh_job(dataset: Dataset, config: TrainConfig) -> Job:
    """A fresh model trained on `dataset` from `config`'s seed: the pretrain, the retrain."""
    model = init_model(default_dims(dataset.dim, dataset.k), derive_seed(config.seed, "init"))
    return Job(model, dataset, config)


def retrain_job(d_r: Dataset, config: TrainConfig, forbidden_ids=()) -> Job:
    """The retrain oracle's job: a fresh model trained on `d_r`, guarded by an `IsolationCheck`."""
    if len(d_r) == 0:
        raise ValidationError("cannot retrain on an empty remaining set")
    return fresh_job(d_r, config)._replace(batch_callback=IsolationCheck(forbidden_ids))


def retrain(d_r: Dataset, config: TrainConfig, forbidden_ids=(),
            pending: Pending | None = None):
    """The retrain oracle and its audit, from `pending`, its `retrain_job`
    submitted (`nn.submit`), or else trained here. A batch holding a forbidden
    id raises RetrainIsolationError where the loop runs; the audit counts
    the ids checked ("batches_logged"), the forbidden ids and the violations (zero)."""
    job = retrain_job(d_r, config, forbidden_ids) if pending is None else pending.job
    model = train(*job) if pending is None else pending.result()
    check = job.batch_callback
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
# the unlearners: their sets, the method table, and the entry points


@_once_per_request
def natmu_hybrids(request: UnlearnRequest) -> HybridSet:
    """The hybrids natmu fine-tunes on (deterministic)."""
    p = request.params
    masks = build_mask_set(p.mask_family, request.d_f.height, request.d_f.width,
                           p.delta, p.cutmix_edge)
    return build_unlearning_set(
        request.d_f, request.d_r, request.model, masks, variant=p.variant,
        seed=derive_seed(request.seed, "build"), n=p.n, shuffle_masks=p.shuffle_masks)


def natmu_finetune_set(request: UnlearnRequest) -> Dataset:
    """The fine-tuning dataset natmu trains on: the remaining set, then the hybrids."""
    return build_finetune_dataset(request.d_r, natmu_hybrids(request))


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


def ascent_training_set(request: UnlearnRequest):
    """NegGrad+'s set: each step descends on a remaining batch and ascends on
    a forgetting batch, loss(remaining) - alpha * loss(forgetting).

    Remaining batches follow the same seeded order as plain training, so
    alpha = 0 reproduces pure remaining-data fine-tuning exactly. The
    forgetting set cycles with a reshuffle per epoch. Training aborts if the
    combined loss turns non-finite.
    """
    if len(request.d_r) == 0 or len(request.d_f) == 0:
        raise ValidationError("need non-empty remaining and forgetting sets")
    return request.d_r, 1.0, Ascent(request.d_f, request.params.ascent_coefficient,
                                    derive_seed(request.seed, "forget_order"))


@dataclass(frozen=True)
class Method:
    """One method's facts, held under its name in `METHODS` in the CLI's order.
    Its callables call the set builders by their names here, so patches reach them."""

    params: tuple[str, ...] = ()  # the MethodParams fields it reads: its [method.X] keys
    reads_model: bool = False     # whether its sets read the request's model
    # request -> (dataset, temperature, ascent or None) it fine-tunes on; None: the retrain
    training_set: Callable[[UnlearnRequest], tuple] | None = None
    # request -> the relabeled set its naturalness KL is taken over; None: it relabels nothing
    kl_set: Callable[[UnlearnRequest], Dataset] | None = None


METHODS = {
    "retrain": Method(),
    "natmu": Method(
        ("n", "delta", "mask_family", "cutmix_edge", "shuffle_masks", "variant",
         "reinit_final_layer"), reads_model=True,
        training_set=lambda r: (natmu_finetune_set(r), 1.0, None),
        kl_set=lambda r: natmu_hybrids(r).data),
    "amnesiac": Method(
        ("reinit_final_layer",),
        training_set=lambda r: (concat(r.d_r, amnesiac_relabeled(r)), 1.0, None),
        kl_set=lambda r: amnesiac_relabeled(r)),
    "badteacher": Method(
        ("temperature", "reinit_final_layer"), reads_model=True,
        training_set=lambda r: (concat(*badteacher_targets(r)), r.params.temperature, None),
        kl_set=lambda r: badteacher_targets(r)[1]),
    "neggrad": Method(("ascent_coefficient", "reinit_final_layer"),
                      training_set=ascent_training_set),
}


def unlearn_job(method: str, request: UnlearnRequest) -> Job:
    """Unlearning `method`'s training job: `request`'s model (its final layer
    re-initialized if the params say so) fine-tuned on the method's set."""
    dataset, temperature, ascent = METHODS[method].training_set(request)
    model = request.model
    if request.params.reinit_final_layer:
        model = model.copy()
        reinit_layer(model, -1, derive_seed(request.seed, "reinit"))
    config = request.config.with_seed(derive_seed(request.seed, "finetune"))
    return Job(model, dataset, config, temperature, ascent)


def _unlearned(method: str, request: UnlearnRequest, pending: Pending | None) -> Model:
    """`method`'s model on `request`, from `pending` (its submitted job) or trained here."""
    return train(*unlearn_job(method, request)) if pending is None else pending.result()


def unlearn_natmu(request: UnlearnRequest, pending: Pending | None = None) -> Model:
    return _unlearned("natmu", request, pending)


def unlearn_amnesiac(request: UnlearnRequest, pending: Pending | None = None) -> Model:
    return _unlearned("amnesiac", request, pending)


def unlearn_badteacher(request: UnlearnRequest, pending: Pending | None = None) -> Model:
    return _unlearned("badteacher", request, pending)


def unlearn_neggrad_plus(request: UnlearnRequest, pending: Pending | None = None) -> Model:
    return _unlearned("neggrad", request, pending)


UNLEARN_METHODS = {"natmu": unlearn_natmu, "amnesiac": unlearn_amnesiac,
                   "badteacher": unlearn_badteacher, "neggrad": unlearn_neggrad_plus}


def unlearning_dataset(method: str, request: UnlearnRequest) -> Dataset | None:
    """The relabeled instances `method` fine-tunes on, for its naturalness KL; else None."""
    kl_set = METHODS[method].kl_set
    return None if kl_set is None else kl_set(request)

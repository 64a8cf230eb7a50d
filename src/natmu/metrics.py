"""Evaluation: accuracies, entropy-threshold membership inference,
label-naturalness KL, and gap aggregation against a retrain reference."""

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import MetricSetMismatchError, ValidationError
from .nn import Model, plogp, predict_logits, softmax

KL_SMOOTHING_EPS = 1e-6


def _targets(ds: Dataset) -> np.ndarray:
    """Hard targets; soft-labeled instances score against their argmax."""
    if ds.soft_labels is not None:
        return ds.soft_labels.argmax(axis=1)
    return ds.labels


def accuracy(model: Model, ds: Dataset) -> float:
    """Percentage of argmax predictions matching labels (ties: lowest class)."""
    if len(ds) == 0:
        raise ValidationError("accuracy of an empty set is undefined")
    pred = predict_logits(model, ds.pixels).argmax(axis=1)
    return 100.0 * float((pred == _targets(ds)).mean())


def entropies(model: Model, ds: Dataset) -> np.ndarray:
    """Prediction entropy in nats for every instance; each in [0, ln K]."""
    p = softmax(predict_logits(model, ds.pixels).astype(np.float64))
    return -plogp(p)


# ---------------------------------------------------------------------------
# membership inference


@dataclass(frozen=True)
class MiaClassifier:
    """1-D threshold attack: an input is a member iff its entropy < tau."""

    tau: float
    balanced_accuracy: float

    def is_member(self, entropy_values: np.ndarray) -> np.ndarray:
        return np.asarray(entropy_values) < self.tau


def threshold_candidates(values: np.ndarray) -> np.ndarray:
    """Midpoints between adjacent distinct values, plus outside sentinels.

    The sentinels classify everything one way, so chance-level balanced
    accuracy is always reachable.
    """
    distinct = np.unique(values)
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    return np.concatenate([[distinct[0] - 1.0], mids, [distinct[-1] + 1.0]])


def balanced_accuracy(tau: float, member: np.ndarray, non_member: np.ndarray) -> float:
    tpr = float((member < tau).mean())
    tnr = float((non_member >= tau).mean())
    return 0.5 * (tpr + tnr)


def fit_entropy_threshold(member: np.ndarray, non_member: np.ndarray) -> MiaClassifier:
    """Threshold maximizing balanced accuracy; ties take the lowest tau."""
    member = np.asarray(member, dtype=np.float64)
    non_member = np.asarray(non_member, dtype=np.float64)
    taus = threshold_candidates(np.concatenate([member, non_member]))
    # counts via sorted search are exactly the per-tau (values < tau) counts
    below_member = np.searchsorted(np.sort(member), taus, side="left")
    below_non = np.searchsorted(np.sort(non_member), taus, side="left")
    tpr = below_member / len(member)
    tnr = (len(non_member) - below_non) / len(non_member)
    acc = 0.5 * (tpr + tnr)
    best = int(np.argmax(acc))
    return MiaClassifier(tau=float(taus[best]), balanced_accuracy=float(acc[best]))


def mia_fit(model: Model, d_r: Dataset, d_test: Dataset) -> MiaClassifier:
    """Fit the entropy threshold on remaining data (members) vs test data
    (non-members)."""
    if len(d_r) == 0 or len(d_test) == 0:
        raise ValidationError("MIA fit needs non-empty member and non-member sets")
    return fit_entropy_threshold(entropies(model, d_r), entropies(model, d_test))


def mia_ratio(classifier: MiaClassifier, model: Model, d_f: Dataset) -> float:
    """Percentage of forgetting samples the attack labels as members."""
    if len(d_f) == 0:
        raise ValidationError("MIA ratio of an empty set is undefined")
    return 100.0 * float(classifier.is_member(entropies(model, d_f)).mean())


# ---------------------------------------------------------------------------
# naturalness


def kl_avg(model_r: Model, d_ul: Dataset, flip: bool = False,
           eps: float = KL_SMOOTHING_EPS) -> float:
    """Mean KL between the retrained model's predictions on the unlearning
    instances and their assigned labels.

    Hard labels are eps-smoothed one-hots so the divergence stays finite.
    Default argument order is KL(model || label); flip reverses it.
    """
    if len(d_ul) == 0:
        raise ValidationError("KL average of an empty set is undefined")
    p = softmax(predict_logits(model_r, d_ul.pixels).astype(np.float64))
    if d_ul.soft_labels is not None:
        q = d_ul.soft_labels.astype(np.float64)
        q /= q.sum(axis=1, keepdims=True)  # f32 storage drifts off sum 1
    else:
        q = np.full((len(d_ul), d_ul.k), eps, dtype=np.float64)
        q[np.arange(len(d_ul)), d_ul.labels] += 1.0
        q /= q.sum(axis=1, keepdims=True)
    if flip:
        p, q = q, p
    logp = np.where(p > 0, np.log(np.where(p > 0, p, 1.0)), 0.0)
    with np.errstate(divide="ignore"):
        logq = np.log(q)
    terms = np.where(p > 0, p * (logp - logq), 0.0)
    # per-instance KL is non-negative in exact arithmetic; clip the
    # rounding residue so the invariant holds for stored f32 targets
    return float(np.maximum(terms.sum(axis=1), 0.0).mean())


# ---------------------------------------------------------------------------
# reports


@dataclass
class MetricsReport:
    """Percent metrics plus KL naturalness (None where undefined)."""

    ta: float
    ra: float
    fa: float
    mia: float
    kl: float | None = None
    fa_train: float | None = None
    fa_test: float | None = None

    def gap_metrics(self) -> list[tuple[str, float]]:
        """Metric set entering the average gap, in report order."""
        if self.fa_train is not None:
            return [("TA", self.ta), ("RA", self.ra), ("FATrain", self.fa_train),
                    ("FATest", self.fa_test), ("MIA", self.mia)]
        return [("TA", self.ta), ("RA", self.ra), ("FA", self.fa), ("MIA", self.mia)]


def metric_gaps(report: MetricsReport, reference: MetricsReport) -> dict[str, float]:
    ours = report.gap_metrics()
    theirs = reference.gap_metrics()
    if [name for name, _ in ours] != [name for name, _ in theirs]:
        raise MetricSetMismatchError("reports carry different metric sets")
    return {name: abs(a - b) for (name, a), (_, b) in zip(ours, theirs)}


def avg_gap(report: MetricsReport, reference: MetricsReport) -> float:
    """Mean absolute per-metric difference, in percentage points."""
    gaps = metric_gaps(report, reference)
    return float(np.mean(list(gaps.values())))


def avg_gap_from_values(gaps) -> float:
    """Average of pre-computed unsigned gaps (for table arithmetic checks)."""
    return float(np.mean(np.abs(np.asarray(gaps, dtype=np.float64))))


def entropy_histogram(model: Model, ds: Dataset, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Counts over equal-width bins spanning [0, ln K]; counts sum to |ds|."""
    if bins < 1:
        raise ValidationError(f"bins must be >= 1, got {bins}")
    top = math.log(ds.k)
    h = np.clip(entropies(model, ds), 0.0, top)
    counts, edges = np.histogram(h, bins=bins, range=(0.0, top))
    return counts, edges

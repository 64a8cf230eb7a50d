"""Independent readers and recomputations that the benchmark holds natmu's
outputs against.

Nothing here imports natmu. The file formats, the forward pass, the
eps-smoothed KL and the mask formula are written from the project README,
so a fault in natmu's own reader, forward or metric does not hide itself.
Every function returns plain numpy values or a list of problem strings;
an empty list means the output passed.
"""

import csv
import struct
from pathlib import Path

import numpy as np

KL_EPS = 1e-6
# Rows whose top-two logits differ by less than this may flip argmax
# between natmu's float32 forward and the float64 one here.
TIE_MARGIN = 1e-3
# Report values are written with six decimals.
CSV_TOL = 2e-6


# ---------------------------------------------------------------------------
# file formats


def read_nmu(path) -> list[tuple[np.ndarray, np.ndarray]]:
    """Layers (weight out x in, bias) of an NMU1 checkpoint."""
    blob = Path(path).read_bytes()
    if blob[:4] != b"NMU1":
        raise ValueError(f"{path}: not an NMU1 checkpoint")
    (count,) = struct.unpack_from("<I", blob, 4)
    shapes = [struct.unpack_from("<II", blob, 8 + 8 * i) for i in range(count)]
    off = 8 + 8 * count
    layers = []
    for in_dim, out_dim in shapes:
        weight = np.frombuffer(blob, "<f4", in_dim * out_dim, off).reshape(out_dim, in_dim)
        off += 4 * in_dim * out_dim
        bias = np.frombuffer(blob, "<f4", out_dim, off)
        off += 4 * out_dim
        layers.append((weight, bias))
    if off != len(blob):
        raise ValueError(f"{path}: {len(blob) - off} bytes after the last layer")
    return layers


def read_uds(path) -> tuple[np.ndarray, np.ndarray, tuple[int, int, int, int]]:
    """(pixels (N, H*W*C) float32, labels int64, (H, W, C, K)) of a UDS1 file."""
    blob = Path(path).read_bytes()
    if blob[:4] != b"UDS1":
        raise ValueError(f"{path}: not a UDS1 dataset")
    n, height, width, channels, k = struct.unpack_from("<5I", blob, 4)
    dim = height * width * channels
    record = 2 + 4 * dim
    if len(blob) != 24 + n * record:
        raise ValueError(f"{path}: payload is not {n} records of {record} bytes")
    rows = np.frombuffer(blob, np.uint8, n * record, 24).reshape(n, record)
    labels = rows[:, :2].copy().view("<u2").reshape(n).astype(np.int64)
    pixels = rows[:, 2:].copy().view("<f4").reshape(n, dim).astype(np.float32)
    return pixels, labels, (height, width, channels, k)


def read_report(path) -> dict[str, tuple]:
    """metric -> (value, retrain_value, gap) of a report CSV; blanks are None."""
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["metric", "value", "retrain_value", "gap"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    return {r[0]: tuple(float(x) if x else None for x in r[1:]) for r in rows[1:]}


def read_csv_rows(path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# model arithmetic


def mlp_logits(layers, pixels: np.ndarray) -> np.ndarray:
    """float64 logits of the dense rectifier MLP the checkpoint describes."""
    h = np.asarray(pixels, dtype=np.float64)
    for i, (weight, bias) in enumerate(layers):
        h = h @ weight.T.astype(np.float64) + bias
        if i < len(layers) - 1:
            h = np.maximum(h, 0.0)
    return h


def _softmax64(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def accuracy_range(logits: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Lowest and highest percentage accuracy argmax can give once rows
    within TIE_MARGIN of a tie are allowed to go either way."""
    top2 = np.sort(logits, axis=1)[:, -2:]
    unsure = top2[:, 1] - top2[:, 0] < TIE_MARGIN
    sure_right = int(((logits.argmax(axis=1) == labels) & ~unsure).sum())
    n = len(labels)
    return 100.0 * sure_right / n, 100.0 * (sure_right + int(unsure.sum())) / n


def kl_hard(logits: np.ndarray, labels: np.ndarray, k: int, eps: float = KL_EPS) -> float:
    """Mean KL(softmax(logits) || eps-smoothed one-hot label)."""
    p = _softmax64(logits)
    q = np.full((len(labels), k), eps)
    q[np.arange(len(labels)), labels] += 1.0
    q /= q.sum(axis=1, keepdims=True)
    return _kl_rows(p, q).mean()


def kl_soft(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean KL(softmax(logits) || targets), targets renormalised to sum 1."""
    q = np.asarray(targets, dtype=np.float64)
    q = q / q.sum(axis=1, keepdims=True)
    return _kl_rows(_softmax64(logits), q).mean()


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * (np.log(p) - np.log(q)), 0.0)
    return terms.sum(axis=1)


def kl_range_wrong_label(logits: np.ndarray, labels: np.ndarray, k: int,
                         eps: float = KL_EPS) -> tuple[float, float]:
    """Bounds on the mean smoothed KL when each row carries some label other
    than its own, unknown which (random relabeling)."""
    p = _softmax64(logits)
    hi_q, lo_q = (1.0 + eps) / (1.0 + k * eps), eps / (1.0 + k * eps)
    neg_entropy = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0).sum(axis=1)
    # with label c: KL = -H(p) - p_c log hi_q - (1 - p_c) log lo_q, which
    # falls as p_c rises
    per_label = neg_entropy[:, None] - p * np.log(hi_q) - (1.0 - p) * np.log(lo_q)
    per_label[np.arange(len(labels)), labels] = np.nan
    return float(np.nanmin(per_label, axis=1).mean()), float(np.nanmax(per_label, axis=1).mean())


def gradual_masks(height: int, width: int, delta: float) -> list[np.ndarray]:
    """The four gradual masks, in README order, shifted by delta and clipped."""
    cols = np.arange(1, width + 1, dtype=np.float64)
    ramp = np.where(cols <= width // 2, 2.0 * (cols - 1), 2.0 * (width - cols)) / (width - 2)
    base = np.tile(np.minimum(ramp, 1.0), (height, 1))
    four = [base, 1.0 - base, np.rot90(base), np.rot90(1.0 - base)]
    return [np.clip(m + delta, 0.0, 1.0) for m in four]


# ---------------------------------------------------------------------------
# report arithmetic


def is_count_share(percent: float, n: int) -> bool:
    """True when a six-decimal percentage is k/n * 100 for a whole k."""
    count = percent * n / 100.0
    return abs(count - round(count)) <= n * 1e-8 + 1e-9


def report_problems(name: str, rows: dict, gap_metrics: list[str]) -> list[str]:
    """Each gap is |value - retrain_value| and Avg.Gap is their mean."""
    out = []
    if list(rows) != [*gap_metrics, "KL_avg", "Avg.Gap"]:
        return [f"{name}: rows {list(rows)}"]
    for metric in gap_metrics:
        value, ref, gap = rows[metric]
        if not 0.0 <= value <= 100.0:
            out.append(f"{name}: {metric} {value} outside [0, 100]")
        if abs(gap - abs(value - ref)) > CSV_TOL:
            out.append(f"{name}: {metric} gap {gap} != |{value} - {ref}|")
    mean_gap = float(np.mean([rows[m][2] for m in gap_metrics]))
    if abs(rows["Avg.Gap"][2] - mean_gap) > CSV_TOL:
        out.append(f"{name}: Avg.Gap {rows['Avg.Gap'][2]} != mean gap {mean_gap:.6f}")
    kl, kl_ref, kl_gap = rows["KL_avg"]
    if kl is not None and (kl < 0.0 or abs(kl_gap - kl) > CSV_TOL or kl_ref != 0.0):
        out.append(f"{name}: KL_avg row {rows['KL_avg']}")
    return out


def aggregate_problems(aggregate_rows: list[dict], per_seed: dict) -> list[str]:
    """aggregate.csv against the mean and population std of per-seed reports.

    per_seed maps seed -> method -> report rows (as read_report gives).
    """
    out = []
    seeds = sorted(per_seed)
    for row in aggregate_rows:
        method, metric = row["method"], row["metric"]
        values = [per_seed[s][method][metric] for s in seeds]
        picked = [v[2] if metric == "Avg.Gap" else v[0] for v in values]
        gaps = [v[2] for v in values]
        if any(v is None for v in picked):
            if row["mean"]:
                out.append(f"aggregate {method}/{metric}: mean of blank values")
            continue
        want = (float(np.mean(picked)), float(np.std(picked)), float(np.mean(gaps)))
        got = tuple(float(row[key]) for key in ("mean", "std", "gap_mean"))
        # per-seed CSVs are rounded to six decimals; the aggregate is not
        if any(abs(a - b) > 2 * CSV_TOL for a, b in zip(got, want)):
            out.append(f"aggregate {method}/{metric}: {got} != {want}")
    expected = {(m, name) for s in seeds for m in per_seed[s] for name in per_seed[s][m]}
    if {(r["method"], r["metric"]) for r in aggregate_rows} != expected:
        out.append("aggregate rows do not cover every method and metric once")
    return out

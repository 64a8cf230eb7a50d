"""Acceptance checks, runnable from the CLI (`natmu check`) or the test
suite. Each check is self-contained: oracles here recompute expected values
independently of the code paths they verify.
"""

import filecmp
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import builder, data, masks, metrics, nn
from .runner import ExperimentConfig, SynthSpec, prepare_seed, run_experiment

GAP_TOLERANCE = 0.005 + 1e-9  # table values carry two rounded decimals


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    skipped: bool = False

    def line(self) -> str:
        status = "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")
        return f"[{status}] {self.name}: {self.detail}"


# ---------------------------------------------------------------------------
# 1. mask golden values


def check_mask_golden() -> CheckResult:
    m1 = masks.gradual_base(32, 32)
    v = m1.values
    ok = True
    problems = []
    expected = {0: np.float32(0.0), 1: np.float32(2.0 / 30.0),
                15: np.float32(1.0), 16: np.float32(1.0), 31: np.float32(0.0)}
    for col, want in expected.items():
        if not (v[:, col] == want).all():
            ok = False
            problems.append(f"column {col + 1} is {v[0, col]!r}, expected {want!r}")
    for i in range(32):
        if not np.array_equal(v[:, i], v[:, 31 - i]):
            ok = False
            problems.append(f"symmetry broken at column {i + 1}")
            break
    m2 = masks.complement(m1)
    if not (m1.values + m2.values == np.float32(1.0)).all():
        ok = False
        problems.append("ramp + complement != 1 elementwise")
    detail = "; ".join(problems) if problems else \
        "closed-form columns, symmetry, and complement identity exact in f32"
    return CheckResult("1 mask golden", ok, detail)


# ---------------------------------------------------------------------------
# 2. scaling law


def check_scaling_law(cases: int = 1000) -> CheckResult:
    rng = np.random.default_rng(20240)
    for case in range(cases):
        h = int(rng.integers(1, 12))
        w = int(rng.integers(1, 12))
        base = masks.WeightingMask(
            rng.random((h, w)).astype(np.float32), masks.CONSTANT)
        delta = float(rng.uniform(-2.0, 2.0))
        out = masks.scale(base, delta).values
        if out.min() < 0.0 or out.max() > 1.0:
            return CheckResult("2 scaling law", False,
                               f"case {case}: delta {delta} left [0,1]")
        if not np.array_equal(masks.scale(base, 0.0).values, base.values):
            return CheckResult("2 scaling law", False,
                               f"case {case}: delta 0 is not the identity")
        if not (masks.scale(base, 1.0).values == np.float32(1.0)).all():
            return CheckResult("2 scaling law", False,
                               f"case {case}: delta 1 did not saturate")
    return CheckResult("2 scaling law", True,
                       f"{cases} random masks stayed in [0,1]; "
                       "delta 0 identity and delta 1 saturation exact")


# ---------------------------------------------------------------------------
# 3. dataset identity


def check_dataset_identity(num_specs: int = 50) -> CheckResult:
    ds = data.synth_blobs(8, 30, 8, 8, 1, spread=0.4, seed=99)
    model = nn.init_model([ds.dim, 16, ds.k], seed=7)
    mask_set = masks.four_masks(8, 8, -0.031)
    rng = np.random.default_rng(5150)
    n = 4
    for case in range(num_specs):
        spec = data.ForgettingSpec(mode="random",
                                   ratio=float(rng.uniform(0.02, 0.3)),
                                   seed=int(rng.integers(1 << 31)))
        d_f, d_r = data.split_forget(ds, spec)
        hybrids = builder.build_unlearning_set(d_f, d_r, model, mask_set,
                                               seed=int(rng.integers(1 << 31)))
        finetune = builder.build_finetune_dataset(d_r, hybrids)
        if len(finetune) != len(d_r) + n * len(d_f):
            return CheckResult("3 dataset identity", False,
                               f"case {case}: size {len(finetune)} != "
                               f"{len(d_r)} + {n}*{len(d_f)}")
        if not np.array_equal(hybrids.forget_ids, np.repeat(d_f.ids, n)):
            return CheckResult("3 dataset identity", False,
                               f"case {case}: hybrids not {n} per sample in forgetting-set order")
        labels = hybrids.data.labels.reshape(len(d_f), n)
        if (labels == d_f.labels[:, None]).any():
            return CheckResult("3 dataset identity", False,
                               f"case {case}: reassigned label equals original")
        ordered = np.sort(labels, axis=1)
        repeated = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        if repeated.any():
            return CheckResult("3 dataset identity", False,
                               f"case {case}: duplicate labels for sample "
                               f"{d_f.ids[repeated][0]}")
    return CheckResult("3 dataset identity", True,
                       f"{num_specs} random splits: |D| = |remaining| + 4*|forget|, "
                       "reassigned labels distinct and never the original")


# ---------------------------------------------------------------------------
# 4. gradient oracle


def _straightline_loss(model: nn.Model, x: np.ndarray, labels=None,
                       soft=None, temperature: float = 1.0) -> float:
    """Independent f64 forward + loss for finite differencing."""
    h = np.asarray(x, dtype=np.float64)
    for lyr in model.layers[:-1]:
        h = np.maximum(h @ lyr.weight.T + lyr.bias, 0.0)
    last = model.layers[-1]
    z = h @ last.weight.T + last.bias
    if soft is not None:
        z = z / temperature
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    if soft is None:
        return float(-logp[np.arange(len(labels)), labels].mean())
    q = np.asarray(soft, dtype=np.float64)
    ent = np.where(q > 0, q * np.log(np.where(q > 0, q, 1.0)), 0.0).sum(axis=1)
    return float((temperature ** 2 * (ent - (q * logp).sum(axis=1))).mean())


def finite_difference_grads(model: nn.Model, x, labels=None, soft=None,
                            temperature: float = 1.0, step: float = 1e-4):
    grads = []
    for param in model.params():
        g = np.zeros_like(param)
        flat_p = param.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + step
            plus = _straightline_loss(model, x, labels, soft, temperature)
            flat_p[i] = orig - step
            minus = _straightline_loss(model, x, labels, soft, temperature)
            flat_p[i] = orig
            flat_g[i] = (plus - minus) / (2.0 * step)
        grads.append(g)
    return grads


def max_relative_gradient_error(model: nn.Model, x, labels=None, soft=None,
                                temperature: float = 1.0) -> float:
    """Worst relative error of backward's loss and gradients (f64 oracle)."""
    loss, grads = nn.backward(model, x, labels=labels, soft_targets=soft,
                              temperature=temperature)
    numeric = finite_difference_grads(model, x, labels, soft, temperature)
    straight = _straightline_loss(model, x, labels, soft, temperature)
    worst = abs(loss - straight) / max(abs(straight), 1e-6)
    for a, f in zip(grads.params(), numeric):
        denom = np.maximum(np.abs(f), 1e-6)
        worst = max(worst, float((np.abs(a - f) / denom).max()))
    return worst


def check_gradient_oracle(num_models: int = 20) -> CheckResult:
    rng = np.random.default_rng(424242)
    worst = 0.0
    for case in range(num_models):
        din = int(rng.integers(2, 5))
        k = int(rng.integers(2, 5))
        dims = [din, 2, k] if case % 2 == 0 else [din, 2, 2, k]
        model = nn.init_model(dims, seed=int(rng.integers(1 << 31)),
                              dtype=np.float64)
        for lyr in model.layers:  # nonzero biases so their gradients matter
            lyr.bias[...] = rng.normal(0.0, 0.3, size=lyr.bias.shape)
        x = rng.normal(0.0, 1.0, size=(3, din))
        if case % 3 == 2:
            soft = rng.random((3, k))
            soft /= soft.sum(axis=1, keepdims=True)
            err = max_relative_gradient_error(model, x, soft=soft, temperature=2.0)
        else:
            labels = rng.integers(0, k, size=3)
            err = max_relative_gradient_error(model, x, labels=labels)
        worst = max(worst, err)
        if err > 1e-3:
            return CheckResult("4 gradient oracle", False,
                               f"model {case}: max relative error {err:.2e} > 1e-3")
    return CheckResult("4 gradient oracle", True,
                       f"{num_models} tiny models, f64 central differences at 1e-4: "
                       f"worst relative error {worst:.2e}")


# ---------------------------------------------------------------------------
# 5. average-gap arithmetic fixtures


def check_avg_gap_fixtures() -> CheckResult:
    # each published row holds the four gaps, so a zero reference gives them back
    fixtures = [((1.15, 2.47, 1.28, 1.88), 1.70),
                ((4.21, 0.03, 18.98, 32.82), 14.01)]
    names = ("TA", "RA", "FA", "MIA")
    for gaps, want in fixtures:
        got = metrics.avg_gap(dict(zip(names, gaps)), dict.fromkeys(names, 0.0))
        if abs(got - want) > GAP_TOLERANCE:
            return CheckResult("5 average-gap fixtures", False,
                               f"gaps {gaps} -> {got:.6f}, expected {want}")
    return CheckResult("5 average-gap fixtures", True,
                       "published four-metric gap rows reproduce 1.70 and 14.01")


# ---------------------------------------------------------------------------
# 6. naturalness KL conventions


def check_kl_conventions() -> CheckResult:
    config = ExperimentConfig(synth=SynthSpec(k=6, per_class=12, test_per_class=6, height=4,
                                              width=4, spread=0.4), forget_ratio=0.2)
    prep = prepare_seed(config, 3)
    model_o = nn.init_model([prep.train.dim, 8, prep.train.k], seed=5)
    model_r = nn.init_model([prep.train.dim, 8, prep.train.k], seed=6)
    _, retrain_kl = prep.report(model_r, model_r, "retrain")
    if retrain_kl != 0.0:
        return CheckResult("6 KL conventions", False,
                           f"retrain report carries KL {retrain_kl}, not 0")
    for method in ("natmu", "amnesiac", "badteacher"):
        _, value = prep.report(model_o, model_r, method, prep.request(method, model_o))
        if not (value is not None and value >= 0.0 and np.isfinite(value)):
            return CheckResult("6 KL conventions", False,
                               f"{method}: KL {value} not finite and non-negative")
    for method in ("neggrad", None):
        _, value = prep.report(model_o, model_r, method)
        if value is not None:
            return CheckResult("6 KL conventions", False,
                               f"{method or 'no method'}: KL {value} without a relabeled set")
    return CheckResult("6 KL conventions", True,
                       "retrain reports exactly 0; relabeling methods >= 0 and finite; "
                       "blank without a relabeled set")


# ---------------------------------------------------------------------------
# 7. MIA threshold oracle


MIA_FIXTURE_MEMBER = np.array([0.10, 0.40, 0.45, 1.20, 2.00])
MIA_FIXTURE_NON_MEMBER = np.array([0.30, 0.45, 1.10, 1.90, 2.50])


def enumerate_best_balanced_accuracy(member, non_member) -> float:
    """Brute-force maximum over every midpoint threshold plus sentinels."""
    values = sorted(set(np.concatenate([member, non_member]).tolist()))
    candidates = [values[0] - 1.0, values[-1] + 1.0]
    for a, b in zip(values[:-1], values[1:]):
        candidates.append((a + b) / 2.0)
    best = -1.0
    for tau in candidates:
        tpr = sum(1 for v in member if v < tau) / len(member)
        tnr = sum(1 for v in non_member if v >= tau) / len(non_member)
        best = max(best, 0.5 * (tpr + tnr))
    return best


def check_mia_oracle() -> CheckResult:
    clf = metrics.fit_entropy_threshold(MIA_FIXTURE_MEMBER, MIA_FIXTURE_NON_MEMBER)
    oracle = enumerate_best_balanced_accuracy(MIA_FIXTURE_MEMBER,
                                              MIA_FIXTURE_NON_MEMBER)
    if clf.balanced_accuracy != oracle:
        return CheckResult("7 MIA threshold oracle", False,
                           f"classifier {clf.balanced_accuracy} != enumeration {oracle}")
    return CheckResult("7 MIA threshold oracle", True,
                       f"10-point fixture: balanced accuracy {oracle} matches "
                       "exhaustive midpoint enumeration exactly")


# ---------------------------------------------------------------------------
# 8-10. desk-scale over-forgetting pipeline


def desk_scale_config(out_dir: str) -> ExperimentConfig:
    return ExperimentConfig(methods=("retrain", "amnesiac", "natmu"), seeds=(1, 2, 3),
                            output_dir=out_dir)


def _read_report(path: Path) -> dict:
    rows = {}
    for line in path.read_text().splitlines()[1:]:
        name, value, retrain_value, gap = line.split(",")
        rows[name] = {
            "value": float(value) if value else None,
            "retrain": float(retrain_value) if retrain_value else None,
            "gap": float(gap) if gap else None,
        }
    return rows


def run_desk_pipeline(workdir: str) -> dict:
    out = Path(workdir) / "run1"
    manifest = run_experiment(desk_scale_config(str(out)), out_dir=str(out))
    return {"manifest": manifest, "dir": out}


def check_over_forgetting(pipeline: dict) -> CheckResult:
    out = pipeline["dir"]
    per_seed = []
    for seed in (1, 2, 3):
        seed_dir = out / f"seed_{seed}"
        ret = _read_report(seed_dir / "report_retrain.csv")
        amn = _read_report(seed_dir / "report_amnesiac.csv")
        nat = _read_report(seed_dir / "report_natmu.csv")
        fa_r, fa_a, fa_n = (r["FA"]["value"] for r in (ret, amn, nat))
        mia_r, mia_a, mia_n = (r["MIA"]["value"] for r in (ret, amn, nat))
        kl_a, kl_n = amn["KL_avg"]["value"], nat["KL_avg"]["value"]
        per_seed.append({
            "a": fa_a < fa_r - 5.0,
            "b": abs(fa_n - fa_r) < abs(fa_a - fa_r),
            "c": kl_n < kl_a,
            "d": abs(mia_n - mia_r) < abs(mia_a - mia_r),
        })
    tallies = {key: sum(s[key] for s in per_seed) for key in "abcd"}
    ok = all(count >= 2 for count in tallies.values())
    detail = (f"seeds passing: over-forgetting {tallies['a']}/3, "
              f"FA gap {tallies['b']}/3, KL {tallies['c']}/3, MIA gap {tallies['d']}/3"
              " (need >= 2 each)")
    return CheckResult("8 over-forgetting reproduction", ok, detail)


def check_retrain_isolation(pipeline: dict) -> CheckResult:
    audits = pipeline["manifest"]["retrain_audit"]
    if not audits:
        return CheckResult("9 retrain isolation", False, "no audit entries recorded")
    total = 0
    for seed, audit in audits.items():
        if audit["violations"] != 0:
            return CheckResult("9 retrain isolation", False,
                               f"seed {seed}: {audit['violations']} forgetting ids "
                               "reached retraining")
        if audit["batches_logged"] == 0:
            return CheckResult("9 retrain isolation", False,
                               f"seed {seed}: empty batch log")
        total += audit["batches_logged"]
    return CheckResult("9 retrain isolation", True,
                       f"{total} logged batch entries across seeds, zero forgetting ids")


def check_determinism(pipeline: dict, workdir: str) -> CheckResult:
    first = pipeline["dir"]
    second = Path(workdir) / "run2"
    run_experiment(desk_scale_config(str(second)), out_dir=str(second))
    csvs = sorted(p.relative_to(first) for p in first.rglob("*.csv"))
    other = sorted(p.relative_to(second) for p in second.rglob("*.csv"))
    if csvs != other:
        return CheckResult("10 determinism", False, "runs produced different files")
    for rel in csvs:
        if not filecmp.cmp(first / rel, second / rel, shallow=False):
            return CheckResult("10 determinism", False, f"{rel} differs between runs")
    return CheckResult("10 determinism", True,
                       f"{len(csvs)} CSV files byte-identical across independent reruns")


# ---------------------------------------------------------------------------


def run_all(workdir: str | None = None, skip_slow: bool = False) -> list[CheckResult]:
    results = [
        check_mask_golden(),
        check_scaling_law(),
        check_dataset_identity(),
        check_gradient_oracle(),
        check_avg_gap_fixtures(),
        check_kl_conventions(),
        check_mia_oracle(),
    ]
    slow = ["8 over-forgetting reproduction", "9 retrain isolation", "10 determinism"]
    if skip_slow:
        results.extend(CheckResult(name, True, "skipped (--skip-slow)", skipped=True)
                       for name in slow)
        return results
    if workdir is None:
        with tempfile.TemporaryDirectory() as tmp:
            return results + _run_slow(tmp)
    return results + _run_slow(workdir)


def _run_slow(workdir: str) -> list[CheckResult]:
    pipeline = run_desk_pipeline(workdir)
    return [
        check_over_forgetting(pipeline),
        check_retrain_isolation(pipeline),
        check_determinism(pipeline, workdir),
    ]

"""Span tracing of natmu's layers from outside the package.

Each entry of LAYER_TABLE names a public function (or an optimizer's
``step``) and the span it records. `Tracer.install` replaces the function
in every natmu module namespace that holds it, and in the method registry,
so calls made through ``from .nn import backward`` style imports are caught
too. A span's self time is its duration minus the time of the spans it
encloses. A tracer can take a part of the table: the untraced rounds use
one for their stage clocks and the hooks that capture models and data for
the checks (`Tracer.before`, `Tracer.after`). A table entry that no longer
resolves raises `TraceTargetMissing` at install time: a renamed or moved
function must fail the run, not read as a layer that did no work.

``nn.forward`` is traced only where other modules call it (the builder's
one-row category ranking). Inside nn it serves `predict_logits` and the
NegGrad+ loss helper, whose time is meant to land in ``nn.predict`` and in
``methods.neggrad`` respectively.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict

MODULES = ("data", "nn", "masks", "builder", "methods", "metrics", "runner", "cli")

# (module, attribute, span). "Class.step" patches the method on the class.
LAYER_TABLE = (
    ("data", "synth_blobs", "data.synth"),
    ("data", "save_raw", "data.uds_io"),
    ("data", "load_raw", "data.uds_io"),
    ("data", "split_forget", "data.split"),
    ("data", "forgetting_test_subset", "data.split"),
    ("data", "to_superclass", "data.superclass"),
    ("data", "concat", "data.concat"),
    ("nn", "init_model", "nn.init"),
    ("nn", "forward", "nn.forward"),
    ("nn", "predict_logits", "nn.predict"),
    ("nn", "backward", "nn.backward"),
    ("nn", "AdamW.step", "nn.optimizer_step"),
    ("nn", "SgdMomentum.step", "nn.optimizer_step"),
    ("nn", "train", "nn.train"),
    ("nn", "save_model", "nn.checkpoint"),
    ("nn", "load_model", "nn.checkpoint"),
    ("masks", "build_mask_set", "masks.build"),
    ("builder", "select_remaining", "builder.select"),
    ("builder", "build_unlearning_set", "builder.build"),
    ("builder", "build_finetune_dataset", "builder.finetune"),
    ("methods", "retrain", "methods.retrain"),
    ("methods", "unlearn_natmu", "methods.natmu"),
    ("methods", "unlearn_amnesiac", "methods.amnesiac"),
    ("methods", "unlearn_badteacher", "methods.badteacher"),
    ("methods", "unlearn_neggrad_plus", "methods.neggrad"),
    ("methods", "natmu_finetune_set", "methods.natmu_finetune_set"),
    ("methods", "amnesiac_relabeled", "methods.amnesiac_relabeled"),
    ("methods", "badteacher_targets", "methods.badteacher_targets"),
    ("methods", "unlearning_dataset", "methods.unlearning_dataset"),
    ("metrics", "accuracy", "metrics.accuracy"),
    ("metrics", "mia_fit", "metrics.mia"),
    ("metrics", "mia_ratio", "metrics.mia"),
    ("metrics", "kl_avg", "metrics.kl"),
    ("metrics", "metric_gaps", "metrics.gap"),
    ("metrics", "avg_gap", "metrics.gap"),
    ("metrics", "entropy_histogram", "metrics.histogram"),
    ("runner", "load_config", "runner.config"),
    ("runner", "materialize_data", "runner.materialize"),
    ("runner", "pretrain_model", "runner.pretrain"),
    ("runner", "evaluate_model", "runner.evaluate"),
    ("runner", "write_report_csv", "runner.report"),
    ("runner", "run_experiment", "runner.run"),
    ("cli", "main", "cli"),  # span named cli.<command> from argv
)

# Per-layer metrics the traced run prints: (name, unit).
LAYER_METRICS = (
    ("nn.backward.self_s", "s"), ("nn.backward.calls", "count"),
    ("nn.optimizer_step.self_s", "s"), ("nn.optimizer_step.calls", "count"),
    ("nn.train.self_s", "s"), ("nn.train.samples_per_s", "1/s"),
    ("nn.predict.self_s", "s"), ("nn.forward.calls", "count"),
    ("nn.checkpoint.self_s", "s"),
    ("data.synth.self_s", "s"), ("data.uds_io.self_s", "s"), ("data.split.self_s", "s"),
    ("masks.build.self_s", "s"),
    ("builder.select.self_s", "s"), ("builder.build.self_s", "s"),
    ("builder.instances", "count"),
    ("methods.retrain.self_s", "s"), ("methods.neggrad.self_s", "s"),
    ("methods.unlearning_dataset.calls", "count"),
    ("metrics.accuracy.self_s", "s"), ("metrics.accuracy.calls", "count"),
    ("metrics.mia.self_s", "s"), ("metrics.kl.self_s", "s"),
    ("runner.pretrain.calls", "count"), ("runner.materialize.calls", "count"),
    ("runner.evaluate.self_s", "s"),
    ("cli.pretrain.s", "s"), ("cli.build.s", "s"), ("cli.unlearn.s", "s"),
    ("cli.evaluate.s", "s"),
    *((f"{m}.self_s", "s") for m in MODULES),
)


class TraceTargetMissing(RuntimeError):
    """A LAYER_TABLE entry does not resolve in the imported natmu package."""


def _resolve(module, attribute):
    owner, name = module, attribute
    if "." in attribute:
        cls_name, name = attribute.split(".")
        owner = getattr(module, cls_name, None)
    if owner is None or not hasattr(owner, name):
        raise TraceTargetMissing(
            f"natmu.{module.__name__.rsplit('.', 1)[-1]}.{attribute} not found; "
            "update natbench/spans.py LAYER_TABLE to the function's new name or module")
    return owner, name, getattr(owner, name)


class Tracer:
    """Aggregated spans (calls, total and self seconds, each call's
    duration) plus work counters.

    ``before[span]()`` runs before a span's clock starts and
    ``after[span](args, kwargs, result)`` after it stops; a hook whose own
    time must not count as the enclosing span's self time wraps itself in
    `span`.
    """

    def __init__(self, table=LAYER_TABLE):
        self.table = table
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.durations = defaultdict(list)
        self.counters = defaultdict(float)
        self.before = {}
        self.after = {}
        self._child = [0.0]  # time spent in child spans, one slot per open span
        self._undo = []

    def span(self, fn, span):
        """`fn` wrapped to record the span `span` on every call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span
            if span == "cli":
                argv = args[0] if args else kwargs.get("argv")
                name = f"cli.{argv[0]}"
            if name in self.before:
                self.before[name]()
            self._child.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = self._child.pop()
                self._child[-1] += elapsed
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - child
                self.durations[name].append(elapsed)
            self._count(name, args, kwargs, result)
            if name in self.after:
                self.after[name](args, kwargs, result)
            return result
        return traced

    def _count(self, name, args, kwargs, result):
        if name == "builder.build":
            self.counters["builder.instances"] += len(result)
        elif name == "nn.train":
            dataset = args[1] if len(args) > 1 else kwargs["dataset"]
            config = args[2] if len(args) > 2 else kwargs["config"]
            self.counters["nn.train.samples"] += len(dataset) * config.epochs

    def install(self, package="natmu"):
        """Wrap every target of the table; raises TraceTargetMissing before
        patching anything if an entry does not resolve."""
        mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        targets = [(_resolve(mods[m], attr), m, span) for m, attr, span in self.table]
        namespaces = [vars(mod) for name, mod in sys.modules.items()
                      if name == package or name.startswith(package + ".")]
        registries = [ns["UNLEARN_METHODS"] for ns in namespaces if "UNLEARN_METHODS" in ns]
        for (owner, name, original), module, span in targets:
            wrapped = self.span(original, span)
            if owner is not mods[module]:  # an optimizer class
                self._set(owner, name, wrapped)
                continue
            for ns in namespaces + registries:
                if span == "nn.forward" and ns is vars(mods["nn"]):
                    continue
                for key, value in list(ns.items()):
                    if value is original:
                        self._set(ns, key, wrapped)
        return self

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._undo.clear()

    def metrics(self) -> dict[str, float]:
        """LAYER_METRICS values from the spans and counters recorded so far."""
        out = {}
        for span in self.calls:
            out[f"{span}.self_s"] = self.self_time[span]
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.s"] = self.total[span]
        for module in MODULES:
            out[f"{module}.self_s"] = sum(v for k, v in self.self_time.items()
                                          if k.split(".")[0] == module)
        out["builder.instances"] = self.counters["builder.instances"]
        train_s = self.total.get("nn.train", 0.0)
        out["nn.train.samples_per_s"] = (self.counters["nn.train.samples"] / train_s
                                         if train_s else 0.0)
        return {name: float(out.get(name, 0.0)) for name, _ in LAYER_METRICS}

"""The tracer: spans from outside natmu, and a loud failure when a wrapped
function has been renamed or moved."""

import pytest

import round as bench_round
import spans
from natmu import data, methods, nn


def test_traced_training_counts_steps_and_restores_originals():
    originals = (nn.backward, nn.AdamW.step, methods.train, methods.UNLEARN_METHODS["natmu"])
    tracer = spans.Tracer().install()
    try:
        ds = data.synth_blobs(3, 8, 2, 2, 1, seed=1)
        methods.retrain(ds, nn.TrainConfig(epochs=2, batch_size=8, base_lr=0.01, seed=3))
    finally:
        tracer.uninstall()
    assert (nn.backward, nn.AdamW.step, methods.train,
            methods.UNLEARN_METHODS["natmu"]) == originals
    got = tracer.metrics()
    assert got["nn.backward.calls"] == 2 * 3 and got["nn.optimizer_step.calls"] == 6
    assert got["nn.train.samples_per_s"] > 0
    assert got["methods.retrain.self_s"] > 0
    assert len(tracer.durations["methods.retrain"]) == 1
    assert set(got) == {name for name, _ in spans.LAYER_METRICS}


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    inner = tracer.span(lambda: sum(range(20000)), "inner")
    outer = tracer.span(lambda: [inner() for _ in range(3)], "outer")
    outer()
    assert tracer.calls["inner"] == 3
    assert tracer.self_time["outer"] == pytest.approx(
        tracer.total["outer"] - tracer.total["inner"], abs=1e-9)
    assert 0 <= tracer.self_time["outer"] < tracer.total["outer"]


def test_hook_in_its_own_span_is_left_out_of_the_enclosing_self_time():
    tracer = spans.Tracer()
    seen = []
    tracer.before["inner"] = tracer.span(lambda: sum(range(200000)), "check")
    tracer.after["inner"] = lambda args, kwargs, result: seen.append((args, result))
    inner = tracer.span(lambda x: x + 1, "inner")
    outer = tracer.span(lambda: inner(1), "outer")
    outer()
    assert seen == [((1,), 2)]
    assert tracer.total["check"] > 0
    assert tracer.self_time["outer"] == pytest.approx(
        tracer.total["outer"] - tracer.total["inner"] - tracer.total["check"], abs=1e-9)
    assert tracer.self_time["outer"] < tracer.total["check"]


@pytest.mark.parametrize("module, name", [(nn, "backward"), (methods, "retrain"),
                                          (nn.AdamW, "step")])
def test_missing_target_fails_before_patching(monkeypatch, module, name):
    before = nn.predict_logits
    monkeypatch.delattr(module, name)
    with pytest.raises(spans.TraceTargetMissing, match=name):
        spans.Tracer().install()
    assert nn.predict_logits is before


def test_traced_round_fails_loudly_on_a_renamed_function(monkeypatch, tmp_path):
    monkeypatch.setattr(nn, "backward_pass", nn.backward, raising=False)
    monkeypatch.delattr(nn, "backward")
    with pytest.raises(spans.TraceTargetMissing, match="nn.backward"):
        bench_round.main(["--workload", "desk", "--seed", "0", "--work", str(tmp_path),
                          "--t0", "0", "--trace"])


def test_untraced_round_fails_loudly_when_a_stage_function_moves(monkeypatch, tmp_path):
    from natmu import runner
    monkeypatch.delattr(runner, "pretrain_model")
    with pytest.raises(spans.TraceTargetMissing, match="runner.pretrain_model"):
        bench_round.main(["--workload", "desk", "--seed", "0", "--work", str(tmp_path),
                          "--t0", "0"])

import numpy as np

from natmu import masks, properties


def test_fast_checks_all_pass():
    results = properties.run_all(skip_slow=True)
    names = [r.name for r in results]
    assert names[0].startswith("1") and names[-1].startswith("10")
    for result in results:
        assert result.passed, result.detail
    assert sum(r.skipped for r in results) == 3


def test_mask_golden_detects_tampered_constant(monkeypatch):
    # a wrong ramp denominator must fail the golden check with a column diff
    real = masks.gradual_base

    def tampered(height, width):
        mask = real(height, width).copy()
        mask[:, 1] = np.float32(2.0 / 31.0)
        return mask

    monkeypatch.setattr(masks, "gradual_base", tampered)
    result = properties.check_mask_golden()
    assert not result.passed
    assert "column 2" in result.detail


def test_gradient_check_detects_broken_backward(monkeypatch):
    from natmu import nn
    real = nn.backward

    def broken(*args, **kwargs):
        loss, grads = real(*args, **kwargs)
        grads.layers[0].weight[...] *= 1.01
        return loss, grads

    monkeypatch.setattr(nn, "backward", broken)
    result = properties.check_gradient_oracle(num_models=3)
    assert not result.passed


def test_mia_oracle_agreement_on_random_fixtures():
    rng = np.random.default_rng(77)
    from natmu.metrics import fit_entropy_threshold
    for _ in range(50):
        member = rng.random(int(rng.integers(1, 12)))
        non = rng.random(int(rng.integers(1, 12)))
        got = fit_entropy_threshold(member, non).balanced_accuracy
        want = properties.enumerate_best_balanced_accuracy(member, non)
        assert got == want

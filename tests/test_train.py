"""Loss decomposition, SGD semantics, lr decay rule, and full-run contracts."""

import numpy as np
import pytest

from synres import numcore as nc
from synres.datagen import TaskSpec, VocabLayout, gen_copy, batches, build_task_data
from synres.model import GateMode, ModelConfig, forward_batch, init_params
from synres.train import (
    EpochReport,
    TrainConfig,
    TrainingAbort,
    loss,
    lr_decay_check,
    run_training,
    sgd_step,
    train_epoch,
)

CFG = ModelConfig(vocab_size=32, d_model=16, n_heads=2, n_layers=2, d_ff=32, max_seq_len=16)
LAYOUT = VocabLayout.synthetic(32)


def small_data(samples=60, seq_len=8, seed=3):
    spec = TaskSpec(kind="copy", seq_len=seq_len, samples=samples, seed=seed)
    return build_task_data(spec, LAYOUT)


def small_logits(params, batch):
    return forward_batch(params, batch.tokens)


# --------------------------------------------------------------------------
# config
# --------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0, batch_size=4)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, batch_size=4, lr_decay=1.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, batch_size=4, lr=1e-7, min_lr=1e-6)


def test_config_resolves_threshold_to_vocab():
    cfg = TrainConfig(epochs=1, batch_size=4)
    assert cfg.resolve(64).ppl_threshold == 96.0
    pinned = TrainConfig(epochs=1, batch_size=4, ppl_threshold=40.0)
    assert pinned.resolve(64).ppl_threshold == 40.0


# --------------------------------------------------------------------------
# loss
# --------------------------------------------------------------------------


def test_loss_lambda_zero_is_ce_exactly():
    params = init_params(CFG, nc.Rng(0))
    train, _ = small_data()
    logits = small_logits(params, train.rows(slice(0, 4)))
    targets = train.targets[:4].reshape(-1)
    mask = train.loss_mask[:4].reshape(-1)
    total, ce, reg = loss(logits, targets, mask, params.synaptic(), 0.0)
    assert total is ce
    assert reg.item() == 0.0


def test_loss_identity_gates_reg_value():
    logits = nc.zeros(2, 4)
    synaptic = [nc.eye(2), nc.eye(2)]
    total, ce, reg = loss(logits, [0, 1], [True, True], synaptic, 0.1)
    np.testing.assert_allclose(reg.item(), 0.4, atol=1e-7)
    np.testing.assert_allclose(total.item(), ce.item() + 0.4, atol=1e-6)


def test_loss_lambda_shift_matches_frobenius_sum():
    params = init_params(CFG, nc.Rng(1), dtype=np.float64)
    train, _ = small_data()
    batch = train.rows(slice(0, 4))
    logits = small_logits(params, batch)
    targets = batch.targets.reshape(-1)
    mask = batch.loss_mask.reshape(-1)
    t1, _, _ = loss(logits, targets, mask, params.synaptic(), 1e-3)
    t0, _, _ = loss(logits, targets, mask, params.synaptic(), 0.0)
    fro = sum(float((w.data ** 2).sum()) for w in params.synaptic())
    np.testing.assert_allclose(t1.item() - t0.item(), 1e-3 * fro, atol=1e-6)


def test_loss_frozen_reg_keeps_value_drops_gradient():
    params = init_params(CFG, nc.Rng(2))
    train, _ = small_data()
    batch = train.rows(slice(0, 2))
    g = nc.GradGraph()
    logits = forward_batch(params.with_gate_mode(GateMode.DISABLED), batch.tokens, graph=g)
    total, ce, reg = loss(
        logits, batch.targets.reshape(-1), batch.loss_mask.reshape(-1),
        params.synaptic(), 0.5, graph=g, synaptic_frozen=True,
    )
    assert reg.item() > 0
    np.testing.assert_allclose(total.item(), ce.item() + reg.item(), rtol=1e-6)
    for w_s, grad in zip(params.synaptic(), nc.backward(g, total, params.synaptic())):
        np.testing.assert_array_equal(grad, np.zeros_like(w_s.data))


# --------------------------------------------------------------------------
# sgd
# --------------------------------------------------------------------------


def _grads_like(params, fill=0.0):
    return {name: np.full_like(t.data, fill) for name, t in params.named_tensors()}


def test_sgd_null_step_bitwise():
    params = init_params(CFG, nc.Rng(3))
    before = {n: t.data.copy() for n, t in params.named_tensors()}
    sgd_step(params, _grads_like(params, 1.0), lr=0.0)
    for n, t in params.named_tensors():
        np.testing.assert_array_equal(t.data, before[n])


def test_sgd_zero_gradient_bitwise():
    params = init_params(CFG, nc.Rng(4))
    before = {n: t.data.copy() for n, t in params.named_tensors()}
    sgd_step(params, _grads_like(params, 0.0), lr=0.3)
    for n, t in params.named_tensors():
        np.testing.assert_array_equal(t.data, before[n])


def test_sgd_scalar_rule():
    params = init_params(CFG, nc.Rng(5))
    params.final_bias.data[0, 0] = 1.0
    grads = _grads_like(params, 0.0)
    grads["final_bias"][0, 0] = 2.0
    sgd_step(params, grads, lr=0.1)
    np.testing.assert_allclose(params.final_bias.data[0, 0], 0.8, rtol=1e-6)


def test_sgd_nonfinite_gradient_names_tensor():
    params = init_params(CFG, nc.Rng(6))
    grads = _grads_like(params, 0.0)
    grads["layer1.w_s"][0, 0] = np.inf
    with pytest.raises(nc.NumericError, match="layer1.w_s"):
        sgd_step(params, grads, lr=0.1)


def test_sgd_global_norm_clip():
    params = init_params(CFG, nc.Rng(7), dtype=np.float64)
    before = {n: t.data.copy() for n, t in params.named_tensors()}
    grads = _grads_like(params, 1.0)
    norm = np.sqrt(sum(g.size for g in grads.values()))
    sgd_step(params, grads, lr=1.0, grad_clip=1.0)
    for n, t in params.named_tensors():
        np.testing.assert_allclose(before[n] - t.data, 1.0 / norm, rtol=1e-9)


def test_pure_regularizer_contraction():
    # lambda-only objective: each step scales w_s by exactly (1 - 2*lr*lambda)
    params = init_params(CFG, nc.Rng(8), dtype=np.float64)
    lr, lam = 0.25, 0.5
    factor = 1.0 - 2.0 * lr * lam
    norms = [np.sqrt(sum(float((w.data ** 2).sum()) for w in params.synaptic()))]
    for _ in range(3):
        g = nc.GradGraph()
        raw = None
        for w_s in params.synaptic():
            term = nc.frobenius_sq(w_s, g)
            raw = term if raw is None else nc.add(raw, term, g)
        objective = nc.scale(raw, lam, g)
        names, tensors = zip(*params.named_tensors())
        sgd_step(params, dict(zip(names, nc.backward(g, objective, tensors))), lr)
        norms.append(np.sqrt(sum(float((w.data ** 2).sum()) for w in params.synaptic())))
    for a, b in zip(norms, norms[1:]):
        np.testing.assert_allclose(b / a, factor, rtol=1e-12)


# --------------------------------------------------------------------------
# train_epoch
# --------------------------------------------------------------------------


def test_epoch_zero_lr_leaves_params_bitwise():
    params = init_params(CFG, nc.Rng(9))
    train, _ = small_data()
    before = {n: t.data.copy() for n, t in params.named_tensors()}
    tc = TrainConfig(epochs=1, batch_size=8, lr=0.1, seed=0)
    train_epoch(params, batches(train, 8), tc, lr=0.0)
    for n, t in params.named_tensors():
        np.testing.assert_array_equal(t.data, before[n])


def test_epoch_replay_bitwise():
    train, _ = small_data()
    tc = TrainConfig(epochs=1, batch_size=8, lr=0.5, seed=0)

    def run():
        params = init_params(CFG, nc.Rng(10))
        stats = train_epoch(params, batches(train, 8), tc, lr=0.5)
        return params, stats

    p1, s1 = run()
    p2, s2 = run()
    assert s1.mean_loss == s2.mean_loss
    for (n1, t1), (_, t2) in zip(p1.named_tensors(), p2.named_tensors()):
        np.testing.assert_array_equal(t1.data, t2.data)


def test_epoch_numeric_abort_names_batch():
    params = init_params(CFG, nc.Rng(11))
    params.tok_emb.data[:] = 3e38  # float32 overflow on first matmul
    train, _ = small_data()
    tc = TrainConfig(epochs=1, batch_size=8, lr=0.1, seed=0)
    with pytest.raises(nc.NumericError, match="batch 0"):
        train_epoch(params, batches(train, 8), tc, lr=0.1)


def test_epoch_copy_task_beats_uniform():
    # one epoch on the copy task ends below the uniform-prediction bound
    cfg = ModelConfig(vocab_size=64, d_model=64, n_heads=4, n_layers=2, d_ff=256, max_seq_len=40)
    layout = VocabLayout.synthetic(64)
    spec = TaskSpec(kind="copy", seq_len=32, samples=2048, seed=1)
    ds = gen_copy(spec, layout, nc.Rng(1))
    tc = TrainConfig(epochs=1, batch_size=32, lr=1.0, grad_clip=1.0, seed=0)
    params = init_params(cfg, nc.Rng(0))
    stats = train_epoch(params, batches(ds, 32, nc.Rng(2)), tc, lr=1.0)
    assert stats.mean_ce < np.log(64)


# --------------------------------------------------------------------------
# lr decay rule
# --------------------------------------------------------------------------


def _decay_cfg(tau=40.0, min_lr=1e-6):
    return TrainConfig(epochs=1, batch_size=4, lr=1e-3, lr_decay=0.5,
                       ppl_threshold=tau, min_lr=min_lr)


def test_decay_triggers():
    lr, hit = lr_decay_check(50.0, 1e-3, _decay_cfg())
    assert hit and lr == 5e-4


def test_decay_guard_false():
    lr, hit = lr_decay_check(30.0, 1e-3, _decay_cfg())
    assert not hit and lr == 1e-3
    lr, hit = lr_decay_check(40.0, 1e-3, _decay_cfg())  # boundary: not strictly greater
    assert not hit and lr == 1e-3


def test_decay_compounds_and_floors():
    cfg = _decay_cfg()
    lr = 1e-3
    for _ in range(3):
        lr, hit = lr_decay_check(100.0, lr, cfg)
        assert hit
    np.testing.assert_allclose(lr, 1.25e-4)
    cfg_floor = _decay_cfg(min_lr=1e-4)
    lr, _ = lr_decay_check(100.0, 1.5e-4, cfg_floor)
    assert lr == 1e-4


def test_decay_requires_resolved_threshold():
    cfg = TrainConfig(epochs=1, batch_size=4)
    with pytest.raises(ValueError):
        lr_decay_check(10.0, 1e-3, cfg)
    with pytest.raises(ValueError):
        lr_decay_check(float("nan"), 1e-3, _decay_cfg())


# --------------------------------------------------------------------------
# run_training
# --------------------------------------------------------------------------


def test_run_history_shape_and_decomposition():
    data = small_data(samples=40)
    tc = TrainConfig(epochs=3, batch_size=8, lr=0.5, reg_weight=1e-3, seed=5)
    result = run_training(CFG, tc, data)
    assert [r.epoch for r in result.history] == [0, 1, 2]
    for rep in result.history:
        np.testing.assert_allclose(rep.mean_loss, rep.mean_ce + rep.mean_reg, rtol=1e-5)
    lrs = [rep.lr for rep in result.history]
    assert all(b <= a for a, b in zip(lrs, lrs[1:]))
    assert all(lr >= tc.min_lr for lr in lrs)


def test_run_replay_bitwise_history():
    data = small_data(samples=40)
    tc = TrainConfig(epochs=2, batch_size=8, lr=0.5, seed=6)
    a = run_training(CFG, tc, data)
    b = run_training(CFG, tc, data)
    assert a.stream_digest == b.stream_digest
    for ra, rb in zip(a.history, b.history):
        assert (ra.mean_loss, ra.mean_ce, ra.mean_reg, ra.val_ppl, ra.lr) == (
            rb.mean_loss, rb.mean_ce, rb.mean_reg, rb.val_ppl, rb.lr,
        )


def test_run_disabled_gate_freezes_synaptic_bitwise():
    data = small_data(samples=40)
    cfg = ModelConfig(**{**CFG.__dict__, "gate_mode": GateMode.DISABLED})
    tc = TrainConfig(epochs=2, batch_size=8, lr=0.5, reg_weight=1e-3, seed=7)
    init = init_params(cfg, nc.Rng(7))
    snapshot = [w.data.copy() for w in init.synaptic()]
    result = run_training(cfg, tc, data, init=init)
    for w, before in zip(result.params.synaptic(), snapshot):
        np.testing.assert_array_equal(w.data, before)
    expected_reg = 1e-3 * sum(float((w ** 2).sum()) for w in snapshot)
    for rep in result.history:
        np.testing.assert_allclose(rep.mean_reg, expected_reg, rtol=1e-5)


def test_run_rejects_init_of_another_architecture():
    init = init_params(ModelConfig(**{**CFG.__dict__, "d_model": 8}), nc.Rng(7))
    tc = TrainConfig(epochs=1, batch_size=8, lr=0.5, seed=7)
    with pytest.raises(ValueError, match="architecture"):
        run_training(CFG, tc, small_data(samples=24), init=init)


def test_run_metrics_sink_and_epoch_callback():
    data = small_data(samples=24)
    tc = TrainConfig(epochs=2, batch_size=8, lr=0.5, seed=8)
    sunk, seen = [], []
    run_training(CFG, tc, data, metrics_sink=sunk.append,
                 on_epoch=lambda p, rep: seen.append(rep.epoch))
    assert [r.epoch for r in sunk] == [0, 1]
    assert seen == [0, 1]
    assert all(isinstance(r, EpochReport) for r in sunk)


def test_run_abort_carries_partial_history():
    data = small_data(samples=24)
    tc = TrainConfig(epochs=3, batch_size=8, lr=1e30, seed=9)  # diverges immediately
    with pytest.raises(TrainingAbort) as exc:
        run_training(CFG, tc, data)
    assert isinstance(exc.value.history, list)
    assert exc.value.epoch == len(exc.value.history)

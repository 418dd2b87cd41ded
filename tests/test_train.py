"""Loss decomposition, SGD semantics, lr decay rule, and full-run contracts."""

import tracemalloc
import warnings

import numpy as np
import pytest

from synres import numcore as nc
from synres import train as train_module
from synres.datagen import Batch, TaskSpec, VocabLayout, gen_copy, gen_kv_recall, batches, build_task_data
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
    total, ce, reg = loss(logits, targets, mask, params, 0.0)
    assert total is ce
    assert reg.item() == 0.0


def test_loss_identity_gates_reg_value():
    logits = nc.zeros(2, 4)
    params = init_params(ModelConfig(4, 2, 1, 2, 2, 2), nc.Rng(0))
    for w_s in params.synaptic():
        w_s.data[:] = np.eye(2)
    total, ce, reg = loss(logits, [0, 1], [True, True], params, 0.1)
    np.testing.assert_allclose(reg.item(), 0.4, atol=1e-7)
    np.testing.assert_allclose(total.item(), ce.item() + 0.4, atol=1e-6)


def test_loss_lambda_shift_matches_frobenius_sum():
    params = init_params(CFG, nc.Rng(1), dtype=np.float64)
    train, _ = small_data()
    batch = train.rows(slice(0, 4))
    logits = small_logits(params, batch)
    targets = batch.targets.reshape(-1)
    mask = batch.loss_mask.reshape(-1)
    t1, _, _ = loss(logits, targets, mask, params, 1e-3)
    t0, _, _ = loss(logits, targets, mask, params, 0.0)
    fro = sum(float((w.data ** 2).sum()) for w in params.synaptic())
    np.testing.assert_allclose(t1.item() - t0.item(), 1e-3 * fro, atol=1e-6)


def test_loss_frozen_reg_keeps_value_drops_gradient():
    # the loss reads the gate mode from params: a gate that does not run
    # reports the learned gate's reg value, and its w_s gets no gradient
    params = init_params(CFG, nc.Rng(2))
    train, _ = small_data()
    batch = train.rows(slice(0, 2))
    targets, mask = batch.targets.reshape(-1), batch.loss_mask.reshape(-1)
    learned_reg = loss(forward_batch(params, batch.tokens), targets, mask, params, 0.5)[2]
    for mode in (GateMode.FORCED_ONES, GateMode.DISABLED):
        off = params.with_gate_mode(mode)
        g = nc.GradGraph()
        logits = forward_batch(off, batch.tokens, graph=g)
        total, ce, reg = loss(logits, targets, mask, off, 0.5, graph=g)
        assert reg.item() > 0 and reg.item() == learned_reg.item()
        np.testing.assert_allclose(total.item(), ce.item() + reg.item(), rtol=1e-6)
        for w_s, grad in zip(off.synaptic(), nc.backward(g, total, off.synaptic())):
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


@pytest.mark.parametrize("lr", [0.0, 0.1])
@pytest.mark.parametrize("grad_clip", [None, 1.0])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_sgd_nonfinite_gradient_raises_before_any_update(bad, grad_clip, lr):
    # with a clip, the norm finds the fault and the scan names the tensor
    params = init_params(CFG, nc.Rng(6))
    before = {n: t.data.copy() for n, t in params.named_tensors()}
    grads = _grads_like(params, 0.5)
    grads["layer0.ffn_b1"][0, 3] = bad
    with pytest.raises(nc.NumericError, match="layer0.ffn_b1"):
        sgd_step(params, grads, lr=lr, grad_clip=grad_clip)
    for n, t in params.named_tensors():
        np.testing.assert_array_equal(t.data, before[n])


def test_sgd_finite_float64_gradients_may_overflow_the_clip_norm():
    # every element is finite, so no tensor is named; the norm is inf and
    # the clip scales the step to zero, quietly
    params = init_params(CFG, nc.Rng(8), dtype=np.float64)
    before = {n: t.data.copy() for n, t in params.named_tensors()}
    sgd_step(params, _grads_like(params, 1e200), lr=0.1, grad_clip=1.0)
    for n, t in params.named_tensors():
        np.testing.assert_array_equal(t.data, before[n])


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
# a train step runs past the last layer's attention at the scored rows only
# --------------------------------------------------------------------------

README_MODEL = ModelConfig(vocab_size=64, d_model=64, n_heads=4, n_layers=2, d_ff=256, max_seq_len=40)
# the last layer's weight-gradient products a^T @ g sum over B*P rows instead
# of B*n, and the BLAS splits that sum differently; they may differ from the
# full-row step by this fraction of each tensor's max |g| (seen: 5.4e-7 and
# 1.1e-15). At the README widths every other copy-task gradient is bitwise.
ROW_SUM_PRODUCTS = ("layer1.w_q", "layer1.w_o", "layer1.w_s", "layer1.ffn_w1", "layer1.ffn_w2",
                    "unembed")
ROW_SUM_TOLERANCE = {np.float32: 1e-6, np.float64: 4e-15}


def _full_row_step(params, batch, reg_weight, graph):
    """The loss over every row of the batch, as training computed it before
    it ran at the scored rows: (logits, total)."""
    logits = forward_batch(params, batch.tokens, graph=graph)
    total, _, _ = loss(logits, batch.targets.reshape(-1), batch.loss_mask.reshape(-1),
                       params, reg_weight, graph=graph)
    return logits, total


def _train_epoch_step(monkeypatch, params, batch, reg_weight):
    """train_epoch's one step on batch at lr 0: the logits and loss it built
    and the gradients it handed to sgd_step."""
    seen = {}

    def spy_loss(logits, *args, **kwargs):
        out = loss(logits, *args, **kwargs)
        seen["logits"], seen["total"] = logits, out[0]
        return out

    def spy_sgd(params, grads, lr, grad_clip=None):
        seen["grads"] = grads
        return sgd_step(params, grads, lr, grad_clip)

    monkeypatch.setattr(train_module, "loss", spy_loss)
    monkeypatch.setattr(train_module, "sgd_step", spy_sgd)
    tc = TrainConfig(epochs=1, batch_size=batch.n_rows, reg_weight=reg_weight)
    train_epoch(params, [batch], tc, lr=0.0)
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("task", ["copy", "kv_recall"])
def test_train_step_on_scored_rows_against_the_full_row_step(monkeypatch, task, dtype):
    layout = VocabLayout.synthetic(64)
    if task == "copy":  # 16 of 34 columns scored
        batch = gen_copy(TaskSpec(kind="copy", seq_len=34, samples=32, seed=1), layout, nc.Rng(1))
        bitwise_grads = True
    else:  # 1 of 40: the last layer's vjps run on 32 rows, which this OpenBLAS
        # multiplies with another kernel than 1,280 rows, so every gradient
        # that flows back through them rounds differently
        batch = gen_kv_recall(TaskSpec.kv_recall((16, 32, 38), samples=32, seed=1), layout,
                              nc.Rng(1))
        bitwise_grads = False
    positions = batch.scored()[0]
    base = init_params(README_MODEL, nc.Rng(4), dtype=dtype)
    for mode in GateMode:
        params = base.with_gate_mode(mode)
        step = _train_epoch_step(monkeypatch, params, batch, 1e-4)
        graph = nc.GradGraph()
        logits, total = _full_row_step(params, batch, 1e-4, graph)
        names, tensors = zip(*params.named_tensors())
        want = dict(zip(names, nc.backward(graph, total, tensors)))
        full = logits.data.reshape(batch.n_rows, batch.seq_len, -1)[:, positions]
        assert step["logits"].data.tobytes() == full.reshape(step["logits"].shape).tobytes(), mode
        assert step["total"].data.tobytes() == total.data.tobytes(), mode
        for name in names:
            got = step["grads"][name]
            if bitwise_grads and name not in ROW_SUM_PRODUCTS:
                assert got.tobytes() == want[name].tobytes(), (mode, name)
            else:
                scale = np.abs(want[name]).max()
                assert np.abs(got - want[name]).max() <= ROW_SUM_TOLERANCE[dtype] * scale, (mode, name)


def test_a_readme_copy_step_peaks_under_12_mb():
    # a step holds the activations its vjps read and frees each as the
    # backward sweep passes it, and the last step's graph, loss and
    # gradients are gone before the next forward (a tape that kept every
    # op's output and inputs peaked at 17.6 MB over these two steps)
    batch = gen_copy(TaskSpec(kind="copy", seq_len=34, samples=32, seed=1),
                     VocabLayout.synthetic(64), nc.Rng(1))
    params = init_params(README_MODEL, nc.Rng(4))
    tc = TrainConfig(epochs=1, batch_size=32)
    train_epoch(params, [batch], tc, lr=0.01)  # warm: caches and first-call allocations
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        train_epoch(params, [batch, batch], tc, lr=0.01)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 12e6, f"a README copy step peaked {peak / 1e6:.2f} MB above its start"


GRAD_CHECK_MODEL = ModelConfig(vocab_size=7, d_model=4, n_heads=2, n_layers=2, d_ff=8, max_seq_len=6)


@pytest.mark.parametrize("mode", list(GateMode), ids=[m.value for m in GateMode])
@pytest.mark.parametrize("scored", [[[5], [5]], [[1], [4]]], ids=["one", "two"])
def test_train_epoch_grad_check_float64(monkeypatch, mode, scored):
    # the gradients train_epoch takes at the scored rows against finite
    # differences of the loss over every row, so a scored column the step
    # drops loses its share of the gradient and fails the check; with two
    # kept positions each row scores one of them
    params = init_params(GRAD_CHECK_MODEL, nc.Rng(15), dtype=np.float64).with_gate_mode(mode)
    for _, t in params.named_tensors():
        if t.rows > 1:  # lifts attention's gradients above finite-difference noise
            t.data *= 10.0
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, GRAD_CHECK_MODEL.vocab_size, size=(2, 6))
    mask = np.zeros(tokens.shape, dtype=bool)
    for row, columns in enumerate(scored):
        mask[row, columns] = True
    targets = rng.integers(0, GRAD_CHECK_MODEL.vocab_size, size=tokens.shape)
    batch = Batch(tokens=tokens, targets=targets, loss_mask=mask)
    assert batch.scored()[0].tolist() == sorted({c for cs in scored for c in cs})

    step = _train_epoch_step(monkeypatch, params, batch, 1e-3)
    assert step["logits"].rows == 2 * batch.scored()[0].size
    # a frozen gate's regularizer is a constant of the graph, not of w_s
    err = max(
        _central_difference_error(lambda: _full_row_step(params, batch, 1e-3, None)[1].item(),
                                  t, step["grads"][name], eps=1e-5)
        for name, t in params.named_tensors()
        if mode == GateMode.LEARNED or not name.endswith("w_s")
    )
    assert err < 1e-5, f"train_epoch 64-bit rel error {err}"


def _central_difference_error(f, t, analytic, eps):
    """nc.grad_check's error measure for one tensor and its given gradient:
    the max relative error against central differences of f() as each
    element of t moves +-eps in t's dtype."""
    flat, worst = t.data.reshape(-1), 0.0
    for i, ana in enumerate(analytic.reshape(-1).tolist()):
        orig = flat[i]
        hi, lo = t.dtype.type(orig + eps), t.dtype.type(orig - eps)
        flat[i] = hi
        fp = f()
        flat[i] = lo
        fm = f()
        flat[i] = orig
        numeric = (fp - fm) / (float(hi) - float(lo))
        worst = max(worst, abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-8))
    return worst


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
    seen = []
    result = run_training(CFG, tc, data, on_epoch=lambda p, rep: seen.append((p, rep)))
    assert [rep.epoch for _, rep in seen] == [0, 1]
    assert all(isinstance(rep, EpochReport) for _, rep in seen)
    # one callback per epoch, with the trained params and the report history keeps
    assert all(p is result.params for p, _ in seen)
    assert [rep for _, rep in seen] == result.history


def test_run_abort_carries_partial_history():
    data = small_data(samples=24)
    tc = TrainConfig(epochs=3, batch_size=8, lr=1e30, seed=9)  # diverges immediately
    with pytest.raises(TrainingAbort) as exc:
        run_training(CFG, tc, data)
    assert isinstance(exc.value.history, list)
    assert exc.value.epoch == len(exc.value.history)


def test_run_diverged_validation_is_a_numeric_abort():
    # the steps stay finite, but validation perplexity overflows: exp of a
    # mean NLL near 1e32 is inf, quietly, and the run aborts at that epoch
    cfg = ModelConfig(16, 8, 2, 1, 16, 8)
    init = init_params(cfg, nc.Rng(0))
    init.unembed.data *= 1e33
    data = build_task_data(TaskSpec(kind="copy", seq_len=6, samples=64, seed=1),
                           VocabLayout.synthetic(16))
    tc = TrainConfig(epochs=1, batch_size=16, lr=1e-5, grad_clip=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingAbort, match="epoch 0: validation perplexity inf") as exc:
            run_training(cfg, tc, data, init=init)
    assert exc.value.epoch == 0 and exc.value.history == []


def test_run_validation_numeric_error_is_a_numeric_abort(monkeypatch):
    # a NumericError from the validation forward ends the run like one from a
    # step: TrainingAbort at that epoch, with the epochs before it
    calls = []
    real = train_module.evalsuite.score

    def score(params, dataset):
        calls.append(len(calls))
        if len(calls) == 2:
            raise nc.NumericError("non-finite values in logits")
        return real(params, dataset)

    monkeypatch.setattr(train_module.evalsuite, "score", score)
    with pytest.raises(TrainingAbort, match="epoch 1: non-finite values in logits") as exc:
        run_training(CFG, TrainConfig(epochs=3, batch_size=8, seed=9), small_data(samples=24))
    assert exc.value.epoch == 1 and [rep.epoch for rep in exc.value.history] == [0]

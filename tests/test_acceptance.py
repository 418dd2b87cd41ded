"""Acceptance suite: one test per criterion, tolerances pinned inline.

Run `pytest tests/test_acceptance.py -v -s` for one printed PASS line per
criterion alongside the pytest verdicts.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from synres import numcore as nc
from synres.cli import main
from synres.datagen import (
    Batch,
    TaskSpec,
    VocabLayout,
    batches,
    build_task_data,
    gen_copy,
    gen_kv_recall,
    inject_noise,
)
from synres.evalsuite import (
    DEFAULT_NOISE_LEVELS,
    masked_accuracy,
    noise_robustness,
    oracle_retention,
    retention_probe,
    score,
)
from synres.model import (
    GateMode,
    ModelConfig,
    count_flops,
    forward,
    forward_batch,
    init_params,
    resonance_gate,
)
from synres.persist import load_checkpoint
from synres.train import TrainConfig, ablate, lr_decay_check, run_training, train_epoch, loss

TINY = ModelConfig(vocab_size=11, d_model=8, n_heads=2, n_layers=2, d_ff=16, max_seq_len=8)


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


# --------------------------------------------------------------------------
# 1. gradient fidelity
# --------------------------------------------------------------------------


def _shifted(rows, cols, seed, dtype, lo=0.5, hi=1.5):
    """Random-sign values with magnitudes in [lo, hi]: finite differences need
    every gradient element bounded away from zero, especially at float32."""
    r = nc.Rng(seed)
    mag = lo + (hi - lo) * r.uniform(size=(rows, cols))
    sign = np.where(r.uniform(size=(rows, cols)) < 0.5, -1.0, 1.0)
    return nc.Tensor2((mag * sign).astype(dtype))


def _positive(rows, cols, seed, dtype, lo=0.5, hi=1.5):
    r = nc.Rng(seed)
    return nc.Tensor2((lo + (hi - lo) * r.uniform(size=(rows, cols))).astype(dtype))


def _op_cases(dtype):
    """Every differentiable public op, composed to a scalar."""
    s = lambda seed, r, c, **kw: _shifted(r, c, seed, dtype, **kw)
    p = lambda seed, r, c: _positive(r, c, seed, dtype)
    fro = nc.frobenius_sq
    idx = np.array([2, 0, 1, 2])
    tgt = np.array([1, 3, 0, 6])
    msk = np.array([True, True, False, True])
    return {
        "matmul": (lambda i, g: fro(nc.matmul(i[0], i[1], g), g), [p(1, 3, 4), p(2, 4, 2)]),
        "add": (lambda i, g: fro(nc.add(i[0], i[1], g), g), [p(4, 3, 3), p(5, 3, 3)]),
        "add_row": (lambda i, g: fro(nc.add_row(i[0], i[1], g), g), [p(6, 3, 4), p(7, 1, 4)]),
        "scale": (lambda i, g: fro(nc.scale(i[0], 0.7, g), g), [s(9, 3, 3)]),
        "hadamard": (lambda i, g: fro(nc.hadamard(i[0], i[1], g), g), [s(10, 3, 3), s(11, 3, 3)]),
        "sigmoid": (lambda i, g: fro(nc.sigmoid(i[0], g), g), [s(12, 3, 3)]),
        "gelu": (lambda i, g: fro(nc.gelu(i[0], g), g), [p(14, 3, 4)]),
        "frobenius_sq": (lambda i, g: fro(i[0], g), [s(15, 3, 3)]),
        "layer_norm": (
            lambda i, g: fro(nc.layer_norm(i[0], i[1], i[2], graph=g), g),
            [s(17, 3, 6), p(18, 1, 6), p(19, 1, 6)],
        ),
        "gather_rows": (lambda i, g: fro(nc.gather_rows(i[0], idx, g), g), [s(20, 3, 4)]),
        "cross_entropy_logits": (
            lambda i, g: nc.cross_entropy_logits(i[0], tgt, msk, g),
            [s(23, 4, 7, hi=2.0)],
        ),
        "multihead_attention": (
            lambda i, g: fro(
                nc.multihead_attention(i[0], i[1], i[2], n_heads=2, n_seqs=2, graph=g), g
            ),
            [s(78, 8, 4), s(79, 8, 4), s(80, 8, 4)],
        ),
    }


def _model_case(dtype):
    """Frozen well-conditioned full-model loss for finite-difference checks."""
    params = init_params(TINY, nc.Rng(15), dtype=np.float64)
    if dtype == np.float32:
        for _, t in params.named_tensors():
            t.data = t.data.astype(np.float32)
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, 11, size=5)
    targets = rng.integers(0, 11, size=5)

    def fn(graph):
        logits = forward_batch(params.with_gate_mode(GateMode.LEARNED), tokens, graph=graph)
        total, _, _ = loss(
            logits, targets, np.ones(5, dtype=bool), params, 1e-3, graph=graph
        )
        return total

    return params, fn


def test_criterion_01_gradient_fidelity():
    started = time.perf_counter()

    worst64 = 0.0
    for name, (fn, inputs) in _op_cases(np.float64).items():
        err = nc.grad_check(fn, inputs, eps=1e-5)
        assert err < 1e-5, f"{name} 64-bit rel error {err}"
        worst64 = max(worst64, err)

    worst32 = 0.0
    for name, (fn, inputs) in _op_cases(np.float32).items():
        err = min(nc.grad_check(fn, inputs, eps=eps) for eps in (1e-2, 3e-2, 1e-1))
        assert err < 1e-2, f"{name} 32-bit rel error {err}"
        worst32 = max(worst32, err)

    # full 2-layer d=8 model loss, 64-bit: per-tensor check at the
    # best-conditioned step size (each call is a plain central-difference run)
    params, fn = _model_case(np.float64)
    model64 = 0.0
    for _, tensor in params.named_tensors():
        err = min(
            nc.grad_check(lambda i, g: fn(g), [tensor], eps=eps)
            for eps in (1e-5, 1e-4, 1e-3)
        )
        model64 = max(model64, err)
    assert model64 < 1e-5, f"full-model 64-bit rel error {model64}"

    # 32-bit: float32 analytic gradients against the float64 analytic oracle;
    # float32 finite differences cannot resolve near-zero gradient elements
    # (forward-eval noise ~1e-6 absolute exceeds them at every step size)
    grads = {}
    for dtype in (np.float64, np.float32):
        p, f = _model_case(dtype)
        names, tensors = zip(*p.named_tensors())
        g = nc.GradGraph()
        grads[dtype] = {
            n: grad.astype(np.float64) for n, grad in zip(names, nc.backward(g, f(g), tensors))
        }
    model32 = 0.0
    for name in grads[np.float64]:
        a, b = grads[np.float64][name], grads[np.float32][name]
        den = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
        model32 = max(model32, float((np.abs(a - b) / den).max()))
    assert model32 < 1e-2, f"full-model 32-bit rel error {model32}"

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"gradient fidelity took {elapsed:.1f}s"
    _report(1, f"ops 64b<={worst64:.1e} 32b<={worst32:.1e}, "
               f"model 64b={model64:.1e} 32b={model32:.1e}, {elapsed:.1f}s")


@pytest.mark.parametrize("mode", ["learned", "disabled"])
def test_criterion_01_covers_every_recorded_op(mode):
    # every op a training step records has a finite-difference row above;
    # the disabled gate skips the gate and computes the regularizer off the graph
    mode = GateMode(mode)
    params = init_params(replace(TINY, gate_mode=mode), nc.Rng(3))
    tokens = np.random.default_rng(0).integers(0, TINY.vocab_size, size=(2, 5))
    graph = nc.GradGraph()
    logits = forward_batch(params, tokens, graph=graph)
    loss(logits, tokens.reshape(-1), np.ones(10, dtype=bool), params, 1e-3, graph=graph)
    recorded = {vjp.__qualname__.split(".")[0] for _, _, vjp in graph._records}
    assert recorded - set(_op_cases(np.float64)) == set()
    if mode == GateMode.LEARNED:
        assert {"sigmoid", "frobenius_sq"} <= recorded
    else:
        assert recorded.isdisjoint({"sigmoid", "hadamard", "frobenius_sq", "scale"})


# --------------------------------------------------------------------------
# 2. formula fidelity
# --------------------------------------------------------------------------


def test_criterion_02_formula_fidelity():
    worst = 0.0
    rng = nc.Rng(123)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(2, 9))
        a = nc.Tensor2(rng.normal(n, d, 1.0))
        w = nc.Tensor2(rng.normal(d, d, 0.5))
        r, o = resonance_gate(a, w, GateMode.LEARNED)
        for i in range(n):
            for j in range(d):
                z = sum(float(a.data[i, k]) * float(w.data[k, j]) for k in range(d))
                r_ref = 1.0 / (1.0 + math.exp(-z))
                worst = max(worst, abs(float(r.data[i, j]) - r_ref))
                worst = max(worst, abs(float(o.data[i, j]) - float(a.data[i, j]) * r_ref))
    assert worst < 1e-6, f"gate formula deviation {worst}"

    # loss decomposition on every step of a 3-epoch run
    model_cfg = ModelConfig(vocab_size=32, d_model=16, n_heads=2, n_layers=2, d_ff=32,
                            max_seq_len=12)
    layout = VocabLayout.synthetic(32)
    spec = TaskSpec(kind="copy", seq_len=10, samples=64, seed=6)
    train_ds, _ = build_task_data(spec, layout)
    tc = TrainConfig(epochs=3, batch_size=16, lr=0.5, reg_weight=1e-3, seed=6)
    params = init_params(model_cfg, nc.Rng(6))
    steps = []

    def on_step(index, total, ce, reg):
        steps.append(abs(total - (ce + reg)) / max(abs(total), 1e-12))

    rng = nc.Rng(60)
    for _ in range(3):
        train_epoch(params, batches(train_ds, 16, rng.split()), tc,
                    lr=tc.lr, on_step=on_step)
    assert len(steps) == 12
    assert max(steps) < 1e-5, f"loss decomposition rel error {max(steps)}"
    _report(2, f"gate formula<=1e-6 over 100 cases, decomposition<={max(steps):.1e} "
               f"over {len(steps)} steps")


# --------------------------------------------------------------------------
# 3. baseline equivalence
# --------------------------------------------------------------------------


def test_criterion_03_baseline_equivalence():
    for seed in (0, 1, 2):
        params = init_params(TINY, nc.Rng(seed))
        tokens = nc.Rng(seed + 50).integers(0, 11, size=6)
        a, _ = forward(params, tokens, mode=GateMode.FORCED_ONES)
        b, _ = forward(params, tokens, mode=GateMode.DISABLED)
        np.testing.assert_array_equal(a.data, b.data)

    cfg = ModelConfig(vocab_size=32, d_model=16, n_heads=2, n_layers=2, d_ff=32,
                      max_seq_len=12, gate_mode=GateMode.DISABLED)
    layout = VocabLayout.synthetic(32)
    data = build_task_data(TaskSpec(kind="copy", seq_len=10, samples=48, seed=7), layout)
    # the run's init: the first split of Rng(seed)
    snapshot = [w.data.copy() for w in init_params(cfg, nc.Rng(7).split()).synaptic()]
    result = run_training(cfg, TrainConfig(epochs=3, batch_size=16, lr=0.5, seed=7), data)
    for w, before in zip(result.params.synaptic(), snapshot):
        np.testing.assert_array_equal(w.data, before)
    _report(3, "forced_ones == disabled bitwise; disabled training froze every W_s")


# --------------------------------------------------------------------------
# 4. trainability
# --------------------------------------------------------------------------


def test_criterion_04_trainability_copy_task():
    started = time.perf_counter()
    cfg = ModelConfig(vocab_size=64, d_model=64, n_heads=4, n_layers=2, d_ff=256,
                      max_seq_len=40)
    layout = VocabLayout.synthetic(64)
    spec = TaskSpec(kind="copy", seq_len=34, samples=2048, seed=1)  # payload 16
    data = build_task_data(spec, layout)
    steps_per_epoch = math.ceil(data[0].n_rows / 32)
    epochs = math.ceil(2000 / steps_per_epoch)
    tc = TrainConfig(epochs=epochs, batch_size=32, lr=1.0, grad_clip=1.0,
                     reg_weight=1e-4, seed=4)
    result = run_training(cfg, tc, data)
    final_ce = result.history[-1].mean_ce
    accuracy = masked_accuracy(result.params, data[0])
    elapsed = time.perf_counter() - started
    assert final_ce < 0.1, f"final train CE {final_ce}"
    assert accuracy > 0.95, f"copy-region accuracy {accuracy}"
    assert elapsed < 600.0, f"trainability run took {elapsed:.0f}s"
    _report(4, f"{epochs * steps_per_epoch} steps: CE={final_ce:.4f}, "
               f"copy accuracy={100 * accuracy:.2f}%, {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 5. retention scorer validity
# --------------------------------------------------------------------------


def test_criterion_05_retention_scorer_validity():
    spec = TaskSpec.kv_recall(distances=(8, 16), samples=4096, seed=13)
    layout = VocabLayout.synthetic(5 + spec.pairs + 16, n_keys=spec.pairs, n_values=16)
    data = gen_kv_recall(spec, layout, nc.Rng(13))

    oracle = oracle_retention(data)
    assert oracle.aggregate_percent == 100.0

    cfg = ModelConfig(vocab_size=layout.vocab_size, d_model=32, n_heads=4, n_layers=2,
                      d_ff=64, max_seq_len=spec.seq_len)
    params = init_params(cfg, nc.Rng(14))
    report = retention_probe(score(params, data, (layout.value_lo, layout.value_hi)))
    chance = 100.0 / 16
    bound = 100.0 * 2.576 * math.sqrt((1 / 16) * (15 / 16) / 4096)  # binomial 99%
    delta = abs(report.aggregate_percent - chance)
    assert delta < bound, f"untrained retention {report.aggregate_percent:.2f}% " \
                          f"vs chance {chance:.2f}% (99% bound {bound:.2f})"
    _report(5, f"oracle=100%, untrained={report.aggregate_percent:.2f}% "
               f"(chance {chance:.2f}% +- {bound:.2f})")


# --------------------------------------------------------------------------
# 6. scheduler fidelity
# --------------------------------------------------------------------------


def test_criterion_06_scheduler_fidelity():
    cfg = TrainConfig(epochs=1, batch_size=4, lr=1e-3, lr_decay=0.5,
                      ppl_threshold=40.0, min_lr=1e-6)
    lr, hit = lr_decay_check(50.0, 1e-3, cfg)
    assert hit and lr == 5e-4
    lr, hit = lr_decay_check(30.0, 1e-3, cfg)
    assert not hit and lr == 1e-3
    lr = 1e-3
    for _ in range(3):
        lr, hit = lr_decay_check(100.0, lr, cfg)
        assert hit
    assert lr == 1.25e-4
    floor_cfg = TrainConfig(epochs=1, batch_size=4, lr=1e-3, lr_decay=0.5,
                            ppl_threshold=40.0, min_lr=1e-4)
    lr, hit = lr_decay_check(100.0, 1.5e-4, floor_cfg)
    assert hit and lr == 1e-4
    lr, hit = lr_decay_check(100.0, 1e-4, floor_cfg)
    assert hit and lr == 1e-4  # never below the floor
    _report(6, "trigger, no-trigger, compounding to 1.25e-4, floor hold")


# --------------------------------------------------------------------------
# 7. noise protocol
# --------------------------------------------------------------------------


def test_criterion_07_noise_protocol():
    assert DEFAULT_NOISE_LEVELS == (0, 10, 20, 30)

    spec = TaskSpec.kv_recall(distances=(8, 12), samples=400, seed=17)
    layout = VocabLayout.synthetic(5 + spec.pairs + 16, n_keys=spec.pairs, n_values=16)
    data = gen_kv_recall(spec, layout, nc.Rng(17))
    cfg = ModelConfig(vocab_size=layout.vocab_size, d_model=16, n_heads=2, n_layers=1,
                      d_ff=32, max_seq_len=spec.seq_len)
    params = init_params(cfg, nc.Rng(18))
    grid = noise_robustness(params, data, layout, rng=nc.Rng(19))
    assert [r[0] for r in grid] == [0.0, 10.0, 20.0, 30.0]
    clean_err = 100.0 * (
        1.0 - masked_accuracy(params, data, value_range=(layout.value_lo, layout.value_hi))
    )
    assert grid[0][1] == clean_err  # bitwise: same floats, same path

    byte_layout = VocabLayout.bytes_()
    tokens = nc.Rng(20).integers(0, 256, size=(100, 1000))
    big = Batch(tokens=tokens, targets=tokens.copy(),
                loss_mask=np.ones_like(tokens, dtype=bool))
    noisy = inject_noise(big, 0.2, byte_layout, nc.Rng(21))
    frac = float((noisy.tokens != big.tokens).mean())
    assert abs(frac - 0.2) <= 0.005, f"replacement fraction {frac}"
    _report(7, f"grid levels (0,10,20,30), level-0 == clean ({clean_err:.2f}%), "
               f"replacement fraction {frac:.4f}")


# --------------------------------------------------------------------------
# 8. determinism and persistence
# --------------------------------------------------------------------------

RUN_CONFIG = """\
[model]
vocab_size = 32
d_model = 16
n_heads = 2
n_layers = 2
d_ff = 32
max_seq_len = 16

[train]
epochs = 2
batch_size = 8
lr = 0.5
seed = 23

[task]
kind = copy
seq_len = 12
samples = 64
seed = 5
"""


def test_criterion_08_determinism_and_persistence(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(RUN_CONFIG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["train", str(config), "--out", str(out1)]) == 0
    assert main(["train", str(config), "--out", str(out2)]) == 0

    def body(path):  # drop the wall-clock column
        return [",".join(l.split(",")[:-1]) for l in path.read_text().splitlines()]

    assert body(out1 / "metrics.csv") == body(out2 / "metrics.csv")

    ckpt = load_checkpoint(out1 / "last.ckpt")
    twice = load_checkpoint(out1 / "last.ckpt")
    tokens = nc.Rng(24).integers(0, 32, size=10)
    a, _ = forward(ckpt.params, tokens)
    b, _ = forward(twice.params, tokens)
    np.testing.assert_array_equal(a.data, b.data)

    other = load_checkpoint(out2 / "last.ckpt")
    c, _ = forward(other.params, tokens)
    np.testing.assert_array_equal(a.data, c.data)  # independent runs agree bitwise
    _report(8, "metrics bodies identical; reloaded checkpoints reproduce logits bitwise")


# --------------------------------------------------------------------------
# 9. ablation harness
# --------------------------------------------------------------------------


def test_criterion_09_ablation_harness():
    spec = TaskSpec.kv_recall(distances=(16, 32, 64), samples=384, seed=31)
    model_cfg = ModelConfig(vocab_size=5 + spec.pairs + 16, d_model=32, n_heads=4,
                            n_layers=2, d_ff=64, max_seq_len=spec.seq_len)
    train_cfg = TrainConfig(epochs=3, batch_size=32, lr=0.5, grad_clip=1.0, seed=32)
    result = ablate(model_cfg, train_cfg, spec)

    rows = result.rows()
    assert len(rows) == 2
    assert {r.gate_mode for r in rows} == {GateMode.LEARNED, GateMode.DISABLED}
    assert result.learned.stream_digest == result.disabled.stream_digest
    for arm in rows:
        assert len(arm.loss_curve) == 3
        assert arm.retention_percent is not None
        assert len(arm.noise_grid) == 4
    pristine = init_params(model_cfg, nc.Rng(train_cfg.seed).split()).synaptic()
    for w_after, w_init in zip(result.disabled.params.synaptic(), pristine):
        np.testing.assert_array_equal(w_after.data, w_init.data)

    # deltas are reported with their sign, never asserted
    d_ppl = result.learned.final_val_ppl - result.disabled.final_val_ppl
    d_ret = result.learned.retention_percent - result.disabled.retention_percent
    _report(9, f"paired arms complete; deltas (learned - disabled): "
               f"perplexity {d_ppl:+.3f}, retention {d_ret:+.2f}%")


# --------------------------------------------------------------------------
# 10. overhead accounting
# --------------------------------------------------------------------------


def test_criterion_10_overhead_accounting(tmp_path):
    config = tmp_path / "bench.cfg"
    config.write_text(RUN_CONFIG)
    out = tmp_path / "bench"
    assert main(["bench", "--config", str(config), "--seq-lens", "8,16",
                 "--reps", "20", "--out", str(out)]) == 0

    cfg = ModelConfig(vocab_size=32, d_model=16, n_heads=2, n_layers=2, d_ff=32,
                      max_seq_len=16)
    bench_lines = (out / "bench.csv").read_text().splitlines()
    assert len(bench_lines) == 1 + 2 * 2
    for line in bench_lines[1:]:
        seq_len, mode, _, flops = line.split(",")
        assert int(flops) == count_flops(cfg, int(seq_len), GateMode(mode)).total

    ratios = []
    for line in (out / "overhead.csv").read_text().splitlines()[1:]:
        seq_len, ratio, delta = line.split(",")
        n, d = int(seq_len), cfg.d_model
        assert int(delta) == 2 * cfg.n_layers * (n * d * d + n * d)
        assert float(ratio) > 0 and math.isfinite(float(ratio))
        ratios.append((int(seq_len), float(ratio)))
    _report(10, "flop deltas exact; latency ratios " +
            ", ".join(f"n={n}: {r:.3f}" for n, r in ratios))

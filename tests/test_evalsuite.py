"""Scorer validity: one scoring pass against the full forward, perplexity
oracles, retention chance levels, noise grid, coherence shape, latency
bookkeeping, ablation pairing and the forwards each of them runs."""

import math
import warnings

import numpy as np
import pytest

from synres import evalsuite
from synres import numcore as nc
from synres import train
from synres.datagen import (
    TaskSpec, VocabLayout, build_task_data, gen_copy, gen_kv_recall, layout_for,
)
from synres.evalsuite import (
    DEFAULT_NOISE_LEVELS,
    EVAL_CHUNK,
    coherence_curve,
    latency_bench,
    lookup_oracle,
    masked_accuracy,
    noise_robustness,
    oracle_retention,
    perplexity,
    retention_probe,
    score,
    value_range_for,
)
from synres.model import GateMode, ModelConfig, count_flops, forward_batch, init_params
from synres.numcore import _row_nll
from synres.train import TrainConfig, ablate


def uniform_model(vocab=64, d=16, ctx=40):
    """Model whose logits are identically zero (uniform distribution)."""
    cfg = ModelConfig(vocab_size=vocab, d_model=d, n_heads=2, n_layers=1, d_ff=16, max_seq_len=ctx)
    params = init_params(cfg, nc.Rng(0))
    params.unembed.data[:] = 0.0
    return params


def untrained_model(vocab, d=24, ctx=64, seed=1, layers=2):
    cfg = ModelConfig(
        vocab_size=vocab, d_model=d, n_heads=2, n_layers=layers, d_ff=2 * d, max_seq_len=ctx
    )
    return init_params(cfg, nc.Rng(seed))


def kv_setup(samples=400, distances=(6, 10), n_values=16, seed=2):
    spec = TaskSpec.kv_recall(distances=distances, samples=samples, seed=seed)
    layout = VocabLayout.synthetic(
        5 + spec.pairs + n_values, n_keys=spec.pairs, n_values=n_values
    )
    data = gen_kv_recall(spec, layout, nc.Rng(seed))
    return spec, layout, data


def count_forwards(monkeypatch) -> list:
    """A list that grows by one at each evalsuite.forward_batch call."""
    calls = []
    real = evalsuite.forward_batch
    monkeypatch.setattr(evalsuite, "forward_batch", lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


# --------------------------------------------------------------------------
# perplexity
# --------------------------------------------------------------------------


def test_perplexity_uniform_equals_vocab():
    params = uniform_model(vocab=64)
    spec = TaskSpec(kind="copy", seq_len=12, samples=30, seed=1)
    ds = gen_copy(spec, VocabLayout.synthetic(64), nc.Rng(1))
    ppl = perplexity(score(params, ds))
    np.testing.assert_allclose(ppl, 64.0, rtol=1e-4)


def test_perplexity_perfect_and_mixed_oracles():
    # perplexity is exp of the mean per-row NLL, taken in float64
    big = 800.0
    logits = np.zeros((1, 4))
    logits[0, 2] = big
    nll, _, _ = _row_nll(logits, np.array([2]))
    assert math.exp(nll.mean()) == pytest.approx(1.0, abs=1e-9)

    # target probs 0.5 and 0.25 -> exp(mean nll) = 2*sqrt(2)
    two = np.array([[math.log(3.0), 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    nll, _, _ = _row_nll(two, np.array([0, 2]))
    assert math.exp(nll.mean()) == pytest.approx(2.8284, abs=1e-4)


def test_perplexity_leaves_params_untouched(monkeypatch):
    params = untrained_model(vocab=32)
    spec = TaskSpec(kind="copy", seq_len=8, samples=16, seed=3)
    ds = gen_copy(spec, VocabLayout.synthetic(32), nc.Rng(3))
    before = {n: t.data.copy() for n, t in params.named_tensors()}
    recorded = []
    monkeypatch.setattr(nc.GradGraph, "record", lambda self, *args: recorded.append(args))
    perplexity(score(params, ds))
    assert recorded == []
    for n, t in params.named_tensors():
        np.testing.assert_array_equal(t.data, before[n])


def _full_forward_reference(params, ds, value_range=None):
    """Perplexity and argmax predictions (over value_range when given) from
    every position's logits, as the full forward gives them."""
    lo, hi = value_range or (0, params.config.vocab_size)
    total, count, preds = 0.0, 0, []
    for at in range(0, ds.n_rows, EVAL_CHUNK):
        chunk = ds.rows(slice(at, at + EVAL_CHUNK))
        logits = forward_batch(params, chunk.tokens).data
        msk = chunk.loss_mask.reshape(-1)
        nll, _, _ = _row_nll(logits.astype(np.float64), np.where(msk, chunk.targets.reshape(-1), 0))
        total += float(nll[msk].sum())
        count += int(msk.sum())
        preds.append((lo + logits[:, lo:hi].argmax(axis=1)).reshape(chunk.tokens.shape))
    return float(np.exp(total / count)), np.concatenate(preds)


@pytest.mark.parametrize("task", ["kv_recall", "copy"])
def test_eval_reads_the_full_forwards_logits_at_scored_positions(monkeypatch, task):
    # 100 rows make a full and a partial chunk
    if task == "kv_recall":
        _, layout, ds = kv_setup(samples=100)
    else:
        layout = VocabLayout.synthetic(32)
        ds = gen_copy(TaskSpec(kind="copy", seq_len=20, samples=100, seed=4), layout, nc.Rng(4))
    # on this OpenBLAS a matmul's row has the same bits whatever the row
    # count when its output width is a multiple of 16 (float32), or when the
    # product is small; d 32 keeps every matmul here in one of the two
    params = untrained_model(layout.vocab_size, d=32, seed=5)
    scored = ds.loss_mask.any(axis=0)
    # the value range of a kv_recall task, and the whole vocabulary: one pass
    # gives the perplexity and the argmax, whichever range it is taken over.
    # None goes last, for the no-forward check below
    for value_range in dict.fromkeys((value_range_for(ds, layout), None)):
        want_ppl, want_pred = _full_forward_reference(params, ds, value_range)
        scores = score(params, ds, value_range)
        assert perplexity(scores) == want_ppl
        assert scores.count == int(ds.loss_mask.sum())
        np.testing.assert_array_equal(scores.predictions[:, scored], want_pred[:, scored])
        assert (scores.predictions[:, ~scored] == -1).all()

    # a chunk that scores no position runs no forward and predicts -1
    ds.loss_mask[EVAL_CHUNK:] = False
    calls = count_forwards(monkeypatch)
    pred = score(params, ds).predictions
    assert len(calls) == 1 and (pred[EVAL_CHUNK:] == -1).all()
    np.testing.assert_array_equal(pred[:EVAL_CHUNK, scored], want_pred[:EVAL_CHUNK, scored])


def test_score_rejects_an_empty_dataset():
    _, _, data = kv_setup(samples=4)
    with pytest.raises(ValueError, match="empty evaluation stream"):
        score(untrained_model(vocab=data.tokens.max() + 1), data.rows(slice(0, 0)))


@pytest.mark.parametrize("levels", [DEFAULT_NOISE_LEVELS, (10, 20)])
def test_a_dataset_that_scores_no_position_is_rejected_by_every_metric(monkeypatch, levels):
    # an all-false loss mask once reached perplexity's division by zero and
    # numpy's "Mean of empty slice" in accuracy and the noise grid
    _, layout, data = kv_setup(samples=8)
    data.loss_mask[:] = False
    params = untrained_model(vocab=layout.vocab_size)
    calls = count_forwards(monkeypatch)
    value_range = value_range_for(data, layout)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for metric in (lambda: perplexity(score(params, data)),
                       lambda: masked_accuracy(params, data, value_range),
                       lambda: noise_robustness(params, data, layout, levels, rng=nc.Rng(5))):
            with pytest.raises(ValueError, match="empty evaluation stream"):
                metric()
    assert calls == []


# --------------------------------------------------------------------------
# retention
# --------------------------------------------------------------------------


def test_lookup_oracle_scores_100_percent():
    _, layout, data = kv_setup()
    report = oracle_retention(data)
    assert report.aggregate_percent == 100.0
    assert all(v == 1.0 for v in report.per_distance.values())


def test_retention_chance_level_untrained():
    _, layout, data = kv_setup(samples=1200, n_values=16)
    params = untrained_model(vocab=layout.vocab_size)
    report = retention_probe(score(params, data, value_range_for(data, layout)))
    # binomial around 1/16 at n=1200: std ~0.7%; allow 4 sigma
    assert abs(report.aggregate_percent - 6.25) < 3.0


def test_retention_buckets_and_counts():
    _, layout, data = kv_setup(samples=400, distances=(6, 10))
    params = untrained_model(vocab=layout.vocab_size)
    report = retention_probe(score(params, data, value_range_for(data, layout)))
    assert report.counts == {6: 200, 10: 200}
    agg = sum(report.per_distance[d] * report.counts[d] for d in (6, 10)) / 400
    np.testing.assert_allclose(report.aggregate_percent, 100 * agg, atol=1e-9)


def test_retention_requires_meta():
    spec = TaskSpec(kind="copy", seq_len=8, samples=4, seed=1)
    ds = gen_copy(spec, VocabLayout.synthetic(32), nc.Rng(1))
    params = untrained_model(vocab=32)
    with pytest.raises(ValueError, match="meta"):
        retention_probe(score(params, ds))


def test_retention_requires_value_range_scores():
    # an argmax over the whole vocabulary would not be at chance 1/|values|
    _, layout, data = kv_setup(samples=8)
    params = untrained_model(vocab=layout.vocab_size)
    with pytest.raises(ValueError, match="value-range"):
        retention_probe(score(params, data))


# --------------------------------------------------------------------------
# noise grid
# --------------------------------------------------------------------------


def test_noise_grid_level0_equals_clean_bitwise():
    _, layout, data = kv_setup()
    params = untrained_model(vocab=layout.vocab_size)
    grid = noise_robustness(params, data, layout, levels=(0, 20), rng=nc.Rng(5))
    clean_acc = masked_accuracy(params, data, value_range=(layout.value_lo, layout.value_hi))
    assert grid[0][1] == 100.0 * (1.0 - clean_acc)


@pytest.mark.parametrize("task", ["kv_recall", "copy"])
def test_noise_grid_reads_passed_clean_scores_for_level0(monkeypatch, task):
    # clean scores handed in stand for level 0 and save its pass; level 0
    # still draws its stream, so every level's error rate is the same bits
    if task == "kv_recall":
        _, layout, data = kv_setup(samples=100)
    else:
        layout = VocabLayout.synthetic(32)
        data = gen_copy(TaskSpec(kind="copy", seq_len=12, samples=100, seed=4), layout, nc.Rng(4))
    params = untrained_model(vocab=layout.vocab_size)
    calls = count_forwards(monkeypatch)
    alone = noise_robustness(params, data, layout, rng=nc.Rng(5))
    assert len(calls) == 2 * 4  # two chunks at each of the four levels
    clean = score(params, data, value_range_for(data, layout))
    del calls[:]
    given = noise_robustness(params, data, layout, rng=nc.Rng(5), clean=clean)
    assert len(calls) == 2 * 3 and given == alone
    with pytest.raises(ValueError, match="clean scores"):  # another dataset's scores
        noise_robustness(params, data, layout, rng=nc.Rng(5),
                         clean=score(params, data.rows(slice(0, 64)), clean.value_range))
    del calls[:]
    later = noise_robustness(params, data, layout, levels=(10, 20), rng=nc.Rng(5))
    assert len(calls) == 2 * 2 and [r[0] for r in later] == [10.0, 20.0]


def test_noise_grid_default_levels():
    _, layout, data = kv_setup(samples=60)
    params = untrained_model(vocab=layout.vocab_size)
    grid = noise_robustness(params, data, layout, rng=nc.Rng(6))
    assert [r[0] for r in grid] == [0.0, 10.0, 20.0, 30.0]


def test_oracle_under_full_noise_hits_chance():
    # destroyed context: every unprotected token is a uniform non-special draw,
    # so the oracle's answer matches the planted value with prob 1/W exactly
    _, layout, data = kv_setup(samples=4000, n_values=16, seed=9)
    from synres.datagen import inject_noise

    noisy = inject_noise(data, 1.0, layout, nc.Rng(10))
    answers = lookup_oracle(noisy)
    acc = float((answers == noisy.targets[:, -1]).mean())
    w = layout.payload_range[1] - layout.payload_range[0]
    p = 1.0 / w
    bound = 4 * math.sqrt(p * (1 - p) / 4000)
    assert abs(acc - p) < bound


# --------------------------------------------------------------------------
# coherence
# --------------------------------------------------------------------------


def test_coherence_shape_and_range():
    spec = TaskSpec(kind="copy", seq_len=10, samples=50, seed=4)
    layout = VocabLayout.synthetic(64)
    ds = gen_copy(spec, layout, nc.Rng(4))
    params = untrained_model(vocab=64)
    rows = coherence_curve(score(params, ds))
    assert len(rows) == 10
    k = spec.payload_len
    for t, acc, count in rows:
        assert 0.0 <= acc <= 1.0
        if k + 1 <= t <= 2 * k:
            assert count == 50
        else:
            assert count == 0


def test_coherence_chance_level_full_mask():
    # corpus-style full mask: every position scored, untrained model near 1/V
    from synres.datagen import Batch

    vocab = 64
    params = untrained_model(vocab=vocab, seed=11)
    tokens = nc.Rng(12).integers(0, vocab, size=(1500, 8))
    targets = nc.Rng(13).integers(0, vocab, size=(1500, 8))
    ds = Batch(tokens=tokens, targets=targets, loss_mask=np.ones_like(tokens, dtype=bool))
    rows = coherence_curve(score(params, ds))
    accs = [acc for _, acc, _ in rows]
    assert all(acc < 0.07 for acc in accs)
    assert 0.002 < float(np.mean(accs)) < 0.04


def test_coherence_deterministic():
    spec = TaskSpec(kind="copy", seq_len=8, samples=30, seed=5)
    layout = VocabLayout.synthetic(64)
    ds = gen_copy(spec, layout, nc.Rng(5))
    params = untrained_model(vocab=64)
    assert coherence_curve(score(params, ds)) == coherence_curve(score(params, ds))


# --------------------------------------------------------------------------
# latency
# --------------------------------------------------------------------------


def test_latency_rows_and_flops_column():
    params = untrained_model(vocab=32, d=16, ctx=64)
    curve = latency_bench(params, seq_lens=(8, 16), repetitions=20)
    assert [r.seq_len for r in curve] == [8, 16]
    for row in curve:
        assert row.flops == count_flops(params.config, row.seq_len, params.config.gate_mode).total
        assert row.median_ms > 0


def test_latency_default_lengths_fit_the_model():
    params = untrained_model(vocab=32, d=16, ctx=16)
    curve = latency_bench(params)
    assert [r.seq_len for r in curve] == [8, 16]


def test_latency_enforces_protocol(monkeypatch):
    params = untrained_model(vocab=32, d=16, ctx=64)
    calls = []
    monkeypatch.setattr(evalsuite, "forward", lambda *a, **k: calls.append(1))
    with pytest.raises(ValueError):
        latency_bench(params, seq_lens=(8,), repetitions=5)
    assert calls == []  # rejected before any warmup or timed forward
    with pytest.raises(ValueError):
        latency_bench(params, seq_lens=(999,))


# --------------------------------------------------------------------------
# ablation
# --------------------------------------------------------------------------


def test_ablate_pairs_arms_and_freezes_disabled_gate():
    spec = TaskSpec.kv_recall(distances=(4, 6), samples=60, seed=21)
    model_cfg = ModelConfig(
        vocab_size=5 + spec.pairs + 8, d_model=16, n_heads=2, n_layers=1, d_ff=32,
        max_seq_len=spec.seq_len,
    )
    train_cfg = TrainConfig(epochs=2, batch_size=16, lr=0.3, seed=22)
    sunk = []
    result = ablate(model_cfg, train_cfg, spec,
                    metrics_sink=lambda mode, rep: sunk.append((mode, rep.epoch)))
    rows = result.rows()
    assert [r.gate_mode for r in rows] == [GateMode.LEARNED, GateMode.DISABLED]
    assert result.learned.stream_digest == result.disabled.stream_digest
    assert len(result.learned.loss_curve) == 2
    assert result.learned.retention_percent is not None
    pristine = init_params(model_cfg, nc.Rng(train_cfg.seed).split()).synaptic()
    for w_after, w_init in zip(result.disabled.params.synaptic(), pristine):
        np.testing.assert_array_equal(w_after.data, w_init.data)
    assert not np.array_equal(result.learned.params.synaptic()[0].data, pristine[0].data)
    assert sunk == [(GateMode.LEARNED, 0), (GateMode.LEARNED, 1),
                    (GateMode.DISABLED, 0), (GateMode.DISABLED, 1)]


def test_ablate_arm_params_carry_their_gate_mode():
    # both arms start from one init; each arm's returned params must evaluate
    # to the perplexity that arm reported
    spec = TaskSpec.kv_recall(distances=(4, 6), samples=60, seed=21)
    model_cfg = ModelConfig(
        vocab_size=5 + spec.pairs + 8, d_model=8, n_heads=2, n_layers=1, d_ff=16,
        max_seq_len=spec.seq_len,
    )
    result = ablate(model_cfg, TrainConfig(epochs=1, batch_size=16, lr=0.3, seed=22), spec)
    _, val = build_task_data(spec, layout_for(spec, model_cfg.vocab_size))
    for arm in result.rows():
        assert arm.params.config.gate_mode == arm.gate_mode
        assert perplexity(score(arm.params, val)) == arm.final_val_ppl


@pytest.mark.parametrize("kind", ["kv_recall", "copy"])
def test_ablate_scores_the_validation_set_once_after_training(monkeypatch, kind):
    # after each arm's training: on kv_recall one clean pass serves retention
    # and noise level 0, then levels 10, 20 and 30 (5 passes before); on copy
    # data, with no retention, level 0 is that one clean pass
    if kind == "kv_recall":
        spec = TaskSpec.kv_recall(distances=(4, 6), samples=700, seed=21)
        layout = VocabLayout.synthetic(5 + spec.pairs + 8, n_keys=spec.pairs, n_values=8)
    else:
        spec = TaskSpec(kind="copy", seq_len=8, samples=700, seed=21)
        layout = VocabLayout.synthetic(16)
    model_cfg = ModelConfig(
        vocab_size=layout.vocab_size, d_model=8, n_heads=2, n_layers=1, d_ff=16,
        max_seq_len=spec.seq_len,
    )
    calls = count_forwards(monkeypatch)
    bounds = []
    real = train.run_training

    def run_training(*args, **kwargs):
        bounds.append(len(calls))
        result = real(*args, **kwargs)
        bounds.append(len(calls))
        return result

    monkeypatch.setattr(train, "run_training", run_training)
    ablate(model_cfg, TrainConfig(epochs=2, batch_size=64, lr=0.3, seed=22), spec)
    _, val = build_task_data(spec, layout)
    chunks = -(-val.n_rows // EVAL_CHUNK)
    assert chunks == 2
    (start0, end0, start1, end1), stop = bounds, len(calls)
    # one validation pass per epoch inside each training
    assert end0 - start0 == end1 - start1 == 2 * chunks
    assert start1 - end0 == stop - end1 == 4 * chunks

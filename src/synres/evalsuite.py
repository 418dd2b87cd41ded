"""Measurement surface: perplexity, retention probe, noise grid, coherence
curve and latency benchmark.

Evaluation never records gradients and never mutates parameters. It
computes logits only at the positions a chunk scores (a column of its loss
mask with a row in), at the README config bitwise the full forward's logits: a
kv_recall chunk scores 1 position of its 40, a copy chunk 16 of 34. Every
function runs the gate in params.config's mode; to evaluate the same weights
under another mode, pass params.with_gate_mode(mode). All accuracy metrics use
greedy argmax; the retention scorer restricts the argmax to the value-token
range so chance level is exactly 1/|values|.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .datagen import Batch, VocabLayout, inject_noise
from .model import GateMode, Params, count_flops, forward, forward_batch
from .numcore import Rng, _row_nll

DEFAULT_NOISE_LEVELS = (0, 10, 20, 30)
EVAL_CHUNK = 64  # rows per forward pass during evaluation
WARMUPS = 3  # untimed forwards before each latency measurement


@dataclass
class RetentionReport:
    """Exact-match recall accuracy bucketed by planted-value distance."""

    per_distance: dict[int, float]
    counts: dict[int, int]

    @property
    def aggregate_percent(self) -> float:
        total = sum(self.counts.values())
        hits = sum(self.per_distance[d] * self.counts[d] for d in self.counts)
        return 100.0 * hits / total


@dataclass
class NoiseGrid:
    """(noise level %, masked-position error rate %) rows, levels increasing."""

    rows: list[tuple[float, float]]

    def __post_init__(self):
        levels = [r[0] for r in self.rows]
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("noise levels must be strictly increasing")
        if any(not 0.0 <= r[1] <= 100.0 for r in self.rows):
            raise ValueError("error rates must be within [0, 100]")


@dataclass
class LatencyRow:
    seq_len: int
    median_ms: float
    flops: int


@dataclass
class LatencyCurve:
    rows: list[LatencyRow]
    gate_mode: GateMode
    repetitions: int


def _scored_chunks(params: Params, dataset: Batch):
    """(first row, chunk, Batch.scored() of the chunk, [(rows*P) x V]
    logits) for each EVAL_CHUNK rows that score a position; a chunk scoring
    none runs no forward."""
    for at in range(0, dataset.n_rows, EVAL_CHUNK):
        chunk = dataset.rows(slice(at, at + EVAL_CHUNK))
        scored = chunk.scored()
        if scored[0].size:
            yield at, chunk, scored, forward_batch(params, chunk.tokens, positions=scored[0]).data


def perplexity(params: Params, dataset: Batch) -> float:
    """exp of the token-count-weighted mean NLL over all masked-in positions."""
    if dataset.n_rows == 0:
        raise ValueError("empty evaluation stream")
    total, count = 0.0, 0
    for _, _, (_, targets, msk), logits in _scored_chunks(params, dataset):
        safe_tgt = np.where(msk, targets, 0)
        nll, _, _ = _row_nll(logits, safe_tgt, dtype=np.float64)
        total += float(nll[msk].sum())
        count += int(msk.sum())
    with np.errstate(over="ignore"):  # a diverged model's perplexity is inf, quietly
        return float(np.exp(total / count))


def greedy_predictions(
    params: Params,
    dataset: Batch,
    value_range: tuple[int, int] | None = None,
) -> np.ndarray:
    """[B x n] argmax predictions, optionally restricted to a token range,
    at every position some row of its chunk scores; -1 at the others."""
    out = np.full_like(dataset.tokens, -1)
    for at, chunk, (positions, _, _), logits in _scored_chunks(params, dataset):
        if value_range is not None:
            lo, hi = value_range
            pred = lo + logits[:, lo:hi].argmax(axis=1)
        else:
            pred = logits.argmax(axis=1)
        out[at : at + chunk.n_rows, positions] = pred.reshape(chunk.n_rows, positions.size)
    return out


def masked_accuracy(
    params: Params,
    dataset: Batch,
    value_range: tuple[int, int] | None = None,
) -> float:
    """Exact-match fraction over masked-in positions."""
    pred = greedy_predictions(params, dataset, value_range=value_range)
    msk = dataset.loss_mask
    return float((pred[msk] == dataset.targets[msk]).mean())


def _by_distance(row_hits: np.ndarray, distances: np.ndarray) -> RetentionReport:
    """Bucket per-row hits by each row's planted distance."""
    per_distance: dict[int, float] = {}
    counts: dict[int, int] = {}
    for d in sorted(set(int(v) for v in distances)):
        sel = distances == d
        counts[d] = int(sel.sum())
        per_distance[d] = float(row_hits[sel].mean())
    return RetentionReport(per_distance=per_distance, counts=counts)


def retention_probe(params: Params, dataset: Batch, layout: VocabLayout) -> RetentionReport:
    """Greedy recall of the planted value at each query, bucketed by the
    planted distance. Argmax is restricted to the value range, making chance
    level exactly 1/|values|."""
    if dataset.meta is None:
        raise ValueError("retention probe needs per-row distance meta")
    pred = greedy_predictions(params, dataset, value_range=(layout.value_lo, layout.value_hi))
    hits = pred[dataset.loss_mask] == dataset.targets[dataset.loss_mask]
    return _by_distance(hits.reshape(dataset.n_rows), dataset.meta)  # one scored position per row


def noise_robustness(
    params: Params,
    dataset: Batch,
    layout: VocabLayout,
    levels=DEFAULT_NOISE_LEVELS,
    *,
    rng: Rng,
) -> NoiseGrid:
    """Masked-position error rate after replacing input tokens at each noise
    level (percent). Level 0 reproduces the clean evaluation bitwise."""
    if any(not 0 <= lv <= 100 for lv in levels):
        raise ValueError(f"noise levels must be percentages in [0, 100], got {levels}")
    value_range = (layout.value_lo, layout.value_hi) if dataset.meta is not None else None
    rows = []
    for level in levels:
        noisy = inject_noise(dataset, level / 100.0, layout, rng.split())
        acc = masked_accuracy(params, noisy, value_range=value_range)
        rows.append((float(level), 100.0 * (1.0 - acc)))
    return NoiseGrid(rows=rows)


def coherence_curve(params: Params, dataset: Batch) -> list[tuple[int, float, int]]:
    """Per-position exact-match accuracy: (position, accuracy, sample count)
    for every position; positions with no scored samples report zero count."""
    pred = greedy_predictions(params, dataset)
    correct = (pred == dataset.targets) & dataset.loss_mask
    rows = []
    for t in range(dataset.seq_len):
        count = int(dataset.loss_mask[:, t].sum())
        acc = float(correct[:, t].sum() / count) if count else 0.0
        rows.append((t, acc, count))
    return rows


def latency_bench(
    params: Params,
    seq_lens=None,
    repetitions: int = 20,
    seed: int = 0,
) -> LatencyCurve:
    """Median wall-clock of full-sequence forward passes on fixed random
    tokens, with the closed-form flop estimate attached. Run exclusively.
    seq_lens None times the powers of two from 8 below the model's
    max_seq_len, then max_seq_len itself."""
    if repetitions < 20:
        raise ValueError(f"latency medians need >= 20 repetitions after {WARMUPS} warmups")
    cfg = params.config
    if seq_lens is None:
        top = cfg.max_seq_len
        seq_lens = tuple(2**i for i in range(3, (top - 1).bit_length())) + (top,)
    if any(n > cfg.max_seq_len or n < 1 for n in seq_lens):
        raise ValueError(f"sequence lengths must fit in [1, {cfg.max_seq_len}]")
    rows = []
    for n in seq_lens:
        tokens = Rng(seed).integers(0, cfg.vocab_size, size=n)
        for _ in range(WARMUPS):
            forward(params, tokens)
        timings = []
        for _ in range(repetitions):
            started = time.perf_counter()
            forward(params, tokens)
            timings.append((time.perf_counter() - started) * 1000.0)
        rows.append(
            LatencyRow(
                seq_len=int(n),
                median_ms=float(np.median(timings)),
                flops=count_flops(cfg, n).total,
            )
        )
    return LatencyCurve(rows=rows, gate_mode=cfg.gate_mode, repetitions=repetitions)


def lookup_oracle(batch: Batch, layout: VocabLayout) -> np.ndarray:
    """Non-neural recall reference: scan the prefix for the queried key and
    answer with the following token (first value slot if absent). Validates
    the retention scorer at exactly 100% on clean data."""
    b, n = batch.tokens.shape
    answers = np.empty(b, dtype=np.int64)
    for r in range(b):
        row = batch.tokens[r]
        queried = row[n - 1]
        answer = row[1]
        for j in range(0, n - 3):
            if row[j] == queried:
                answer = row[j + 1]
                break
        answers[r] = answer
    return answers


def oracle_retention(batch: Batch, layout: VocabLayout) -> RetentionReport:
    """Retention report for the lookup oracle instead of a model."""
    if batch.meta is None:
        raise ValueError("retention probe needs per-row distance meta")
    answers = lookup_oracle(batch, layout)
    hits = answers == batch.targets[np.arange(batch.n_rows), batch.seq_len - 1]
    return _by_distance(hits, batch.meta)

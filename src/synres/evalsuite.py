"""Measurement surface: perplexity, retention probe, noise grid, coherence
curve and latency benchmark.

Evaluation never records gradients and never mutates parameters. Its one
forward is score(), one pass per dataset, whose Scores every metric reads. It
computes logits only at the positions a chunk scores (a column of its loss
mask with a row in), at the README config bitwise the full forward's logits: a
kv_recall chunk scores 1 position of its 40, a copy chunk 16 of 34. Every
function runs the gate in params.config's mode; to evaluate the same weights
under another mode, pass params.with_gate_mode(mode). All accuracy metrics use
greedy argmax, over the value tokens on rows that carry meta (value_range_for),
so retention's chance level is exactly 1/|values|.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .datagen import Batch, VocabLayout, inject_noise
from .model import Params, count_flops, forward, forward_batch
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
class LatencyRow:
    seq_len: int
    median_ms: float
    flops: int


@dataclass
class Scores:
    """One scoring pass over a dataset, which every eval metric reads: the
    float64 NLL summed over masked-in positions, their count, and the [B x n]
    argmax (over value_range when given) where its chunk scores, else -1."""

    dataset: Batch
    value_range: tuple[int, int] | None
    nll_sum: float
    count: int
    predictions: np.ndarray


def value_range_for(dataset: Batch, layout: VocabLayout) -> tuple[int, int] | None:
    """The argmax range of every accuracy metric: the value tokens when the
    rows carry meta (kv_recall), the whole vocabulary (None) otherwise."""
    return (layout.value_lo, layout.value_hi) if dataset.meta is not None else None


def score(params: Params, dataset: Batch, value_range: tuple[int, int] | None = None) -> Scores:
    """Forward each EVAL_CHUNK rows once, at the positions they score
    (Batch.scored()); a chunk that scores none runs no forward. A dataset
    that scores no position is rejected, as no metric is defined on it."""
    if not dataset.loss_mask.any():
        raise ValueError("empty evaluation stream: no row scores a position")
    total, count = 0.0, 0
    pred = np.full_like(dataset.tokens, -1)
    for at in range(0, dataset.n_rows, EVAL_CHUNK):
        chunk = dataset.rows(slice(at, at + EVAL_CHUNK))
        positions, targets, msk = chunk.scored()
        if positions.size:
            logits = forward_batch(params, chunk.tokens, positions=positions).data
            nll, _, _ = _row_nll(logits, np.where(msk, targets, 0), dtype=np.float64)
            total += float(nll[msk].sum())
            count += int(msk.sum())
            lo, hi = value_range or (0, logits.shape[1])
            hits = lo + logits[:, lo:hi].argmax(axis=1)
            pred[at : at + chunk.n_rows, positions] = hits.reshape(chunk.n_rows, -1)
    return Scores(dataset, value_range, total, count, pred)


def perplexity(scores: Scores) -> float:
    """exp of the token-count-weighted mean NLL over all masked-in positions."""
    with np.errstate(over="ignore"):  # a diverged model's perplexity is inf, quietly
        return float(np.exp(scores.nll_sum / scores.count))


def _accuracy(scores: Scores) -> float:
    msk = scores.dataset.loss_mask
    return float((scores.predictions[msk] == scores.dataset.targets[msk]).mean())


def masked_accuracy(
    params: Params,
    dataset: Batch,
    value_range: tuple[int, int] | None = None,
) -> float:
    """Exact-match fraction over masked-in positions."""
    return _accuracy(score(params, dataset, value_range))


def _by_distance(row_hits: np.ndarray, distances: np.ndarray) -> RetentionReport:
    """Bucket per-row hits by each row's planted distance."""
    per_distance: dict[int, float] = {}
    counts: dict[int, int] = {}
    for d in sorted(set(int(v) for v in distances)):
        sel = distances == d
        counts[d] = int(sel.sum())
        per_distance[d] = float(row_hits[sel].mean())
    return RetentionReport(per_distance=per_distance, counts=counts)


def retention_probe(scores: Scores) -> RetentionReport:
    """Greedy recall of the planted value at each query, bucketed by the
    planted distance, from scores over the value range (value_range_for):
    chance level is exactly 1/|values|."""
    ds = scores.dataset
    if ds.meta is None or scores.value_range is None:
        raise ValueError("retention probe needs per-row distance meta and value-range scores")
    hits = scores.predictions[ds.loss_mask] == ds.targets[ds.loss_mask]
    return _by_distance(hits.reshape(ds.n_rows), ds.meta)  # one scored position per row


def noise_robustness(
    params: Params,
    dataset: Batch,
    layout: VocabLayout,
    levels=DEFAULT_NOISE_LEVELS,
    *,
    rng: Rng,
    clean: Scores | None = None,
) -> list[tuple[float, float]]:
    """(noise level %, masked-position error rate %) rows, one per level:
    the error rate after replacing input tokens at that level. Level 0 is the
    clean scores, scored here unless passed as clean (over value_range_for's
    range, as every level is)."""
    if any(not 0 <= lv <= 100 for lv in levels):
        raise ValueError(f"noise levels must be percentages in [0, 100], got {levels}")
    if any(b <= a for a, b in zip(levels, levels[1:])):  # before any chunk is scored
        raise ValueError(f"noise levels must be strictly increasing, got {levels}")
    value_range = value_range_for(dataset, layout)
    if clean is not None and (clean.dataset is not dataset or clean.value_range != value_range):
        raise ValueError("clean scores must be this dataset's, over value_range_for's range")
    if clean is None and 0 in levels:
        clean = score(params, dataset, value_range)
    rows = []
    for level in levels:
        noise_rng = rng.split()  # level 0 draws its stream too, so later levels keep theirs
        noisy = inject_noise(dataset, level / 100.0, layout, noise_rng) if level else None
        scores = score(params, noisy, value_range) if level else clean
        rows.append((float(level), 100.0 * (1.0 - _accuracy(scores))))
    return rows


def coherence_curve(scores: Scores) -> list[tuple[int, float, int]]:
    """Per-position exact-match accuracy of the scores' predictions:
    (position, accuracy, sample count) for every position; positions with no
    scored samples report zero count."""
    dataset = scores.dataset
    correct = (scores.predictions == dataset.targets) & dataset.loss_mask
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
) -> list[LatencyRow]:
    """One row per length: the median wall-clock of full-sequence forward
    passes on fixed random tokens, with the closed-form flop estimate of
    params.config's gate mode. Run exclusively. seq_lens None times the powers
    of two from 8 below the model's max_seq_len, then max_seq_len itself."""
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
    return rows


def lookup_oracle(batch: Batch) -> np.ndarray:
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


def oracle_retention(batch: Batch) -> RetentionReport:
    """Retention report for the lookup oracle instead of a model."""
    if batch.meta is None:
        raise ValueError("retention probe needs per-row distance meta")
    answers = lookup_oracle(batch)
    hits = answers == batch.targets[np.arange(batch.n_rows), batch.seq_len - 1]
    return _by_distance(hits, batch.meta)

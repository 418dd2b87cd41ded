"""Training loop: joint loss with gate regularization, plain SGD on all
parameters including the gate matrices, perplexity-triggered lr decay, and
the paired gate-on/gate-off ablation runner.

One backward pass per batch serves both the transformer parameters and the
synaptic gate matrices; both descend the same loss with the same step size.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace

import numpy as np

from . import evalsuite
from . import numcore as nc
from .datagen import Batch, TaskSpec, batches, build_task_data, layout_for
from .model import GateMode, ModelConfig, Params, forward_batch, init_params
from .numcore import GradGraph, NumericError, Rng, Tensor2


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the training loop.

    ppl_threshold None means "resolve to 1.5 * vocab size at run start", which
    keeps the decay rule active early and inert after convergence.
    """

    epochs: int
    batch_size: int
    lr: float = 3e-4
    lr_decay: float = 0.5
    ppl_threshold: float | None = None
    reg_weight: float = 1e-4
    grad_clip: float | None = None
    seed: int = 0
    min_lr: float = 1e-6

    def __post_init__(self):
        for name in ("lr", "lr_decay", "ppl_threshold", "reg_weight", "grad_clip", "min_lr"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.lr_decay < 1.0:
            raise ValueError(f"lr_decay must be in (0, 1), got {self.lr_decay}")
        if self.min_lr < 0:
            raise ValueError(f"min_lr must be >= 0, got {self.min_lr}")
        if self.lr <= self.min_lr:
            raise ValueError(f"lr {self.lr} must start above min_lr {self.min_lr}")
        if self.reg_weight < 0:
            raise ValueError(f"reg_weight must be >= 0, got {self.reg_weight}")
        if self.ppl_threshold is not None and self.ppl_threshold <= 0:
            raise ValueError("ppl_threshold must be positive")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive")

    def resolve(self, vocab_size: int) -> "TrainConfig":
        """Pin the default perplexity threshold against the vocabulary."""
        if self.ppl_threshold is not None:
            return self
        return replace(self, ppl_threshold=1.5 * vocab_size)


@dataclass
class EpochReport:
    epoch: int
    mean_loss: float
    mean_ce: float
    mean_reg: float
    val_ppl: float
    lr: float
    decay_triggered: bool
    wall_ms: float


@dataclass
class TrainResult:
    params: Params
    history: list[EpochReport]
    stream_digest: str  # sha256 over consumed batch tokens, for ablation pairing


class TrainingAbort(RuntimeError):
    """Numeric failure mid-run; carries the partial history."""

    def __init__(self, message: str, epoch: int, history: list[EpochReport]):
        super().__init__(message)
        self.epoch = epoch
        self.history = history


def loss(
    logits: Tensor2,
    targets,
    mask,
    params: Params,
    reg_weight: float,
    graph: GradGraph | None = None,
) -> tuple[Tensor2, Tensor2, Tensor2]:
    """total = cross entropy + reg_weight * sum of params' squared gate norms.

    Returns (total, ce, reg); total is the backward root. The reg term is on
    the graph exactly when params.config's gate is learned; otherwise it is
    computed off the graph and enters the total as a constant leaf: its value
    still reports, but no gradient reaches the gate matrices, so a gate that
    does not run never moves.
    """
    ce = nc.cross_entropy_logits(logits, targets, mask, graph)
    if reg_weight == 0.0:
        return ce, ce, nc.zeros(1, 1, dtype=logits.dtype)
    reg_graph = graph if params.config.gate_mode == GateMode.LEARNED else None
    raw = None
    for w_s in params.synaptic():
        term = nc.frobenius_sq(w_s, reg_graph)
        raw = term if raw is None else nc.add(raw, term, reg_graph)
    reg = nc.scale(raw, reg_weight, reg_graph)
    return nc.add(ce, reg, graph), ce, reg


def sgd_step(
    params: Params,
    grads: dict[str, np.ndarray],
    lr: float,
    grad_clip: float | None = None,
) -> Params:
    """In-place descent p <- p - lr*g on every tensor, after optional
    global-norm clipping. Plain SGD, no momentum. A non-finite gradient
    raises NumericError naming its tensor, at any lr, leaving params as
    they were."""
    named = list(params.named_tensors())
    for name, t in named:
        g = grads.get(name)
        if g is None:
            raise ValueError(f"missing gradient for {name}")
        if g.shape != t.data.shape:
            raise nc.DimensionError(f"gradient shape {g.shape} != {t.data.shape} for {name}")
    norm = None
    if grad_clip is not None:
        with np.errstate(over="ignore"):  # an overflowing norm is inf, quietly
            squares = (float((grads[name].astype(np.float64) ** 2).sum()) for name, _ in named)
            norm = np.sqrt(sum(squares))
    # float32 squares cannot overflow float64, so the clip's norm is finite
    # unless a gradient is; only then are the tensors scanned, to name it.
    # float64 gradients can overflow the norm while finite, and step as before
    if norm is None or not np.isfinite(norm):
        for name, _ in named:
            if not np.isfinite(grads[name]).all():
                raise NumericError(f"non-finite gradient for {name}")
    if lr == 0.0:
        return params
    scale = lr
    if norm is not None and norm > grad_clip:
        scale = lr * grad_clip / norm
    for name, t in named:
        t.data -= t.dtype.type(scale) * grads[name]
    return params


@dataclass
class EpochStats:
    mean_loss: float = 0.0
    mean_ce: float = 0.0
    mean_reg: float = 0.0
    n_batches: int = 0


def train_epoch(
    params: Params,
    batch_stream,
    config: TrainConfig,
    lr: float,
    on_step=None,
) -> EpochStats:
    """One pass over the batch stream: forward, loss, one backward, one SGD
    step per batch, updating transformer and gate parameters jointly, under
    params.config's gate mode. Past the last layer's attention the forward
    and the loss run only at the columns the batch scores (Batch.scored):
    the other rows would carry exact-zero gradients back. on_step(index,
    total, ce, reg) is called with each step's loss values."""
    names, tensors = zip(*params.named_tensors())
    totals = np.zeros(3, dtype=np.float64)
    stats = EpochStats()
    for index, batch in enumerate(batch_stream):
        try:
            graph = GradGraph()
            positions, targets, mask = batch.scored()
            logits = forward_batch(params, batch.tokens, graph=graph, positions=positions)
            total, ce, reg = loss(logits, targets, mask, params, config.reg_weight, graph=graph)
            grads = dict(zip(names, nc.backward(graph, total, tensors)))
            sgd_step(params, grads, lr, config.grad_clip)
        except NumericError as err:
            raise NumericError(f"batch {index}: {err}") from err
        values = total.item(), ce.item(), reg.item()
        if on_step is not None:
            on_step(index, *values)
        totals += values
        stats.n_batches = index + 1
    if stats.n_batches == 0:
        raise ValueError("empty batch stream")
    stats.mean_loss, stats.mean_ce, stats.mean_reg = (totals / stats.n_batches).tolist()
    return stats


def lr_decay_check(val_ppl: float, lr: float, config: TrainConfig) -> tuple[float, bool]:
    """If validation perplexity exceeds the threshold, decay lr by the
    configured factor, floored at min_lr."""
    if not np.isfinite(val_ppl) or val_ppl <= 0:
        raise ValueError(f"validation perplexity must be finite and positive, got {val_ppl}")
    tau = config.ppl_threshold
    if tau is None:
        raise ValueError("ppl_threshold unresolved; call TrainConfig.resolve first")
    if val_ppl > tau:
        return max(lr * config.lr_decay, config.min_lr), True
    return lr, False


def _digested(stream, digest):
    """Pass a batch stream through, hashing consumed tokens for pairing checks."""
    for batch in stream:
        digest.update(batch.tokens.astype(np.int64).tobytes())
        yield batch


def run_training(
    model_config: ModelConfig,
    train_config: TrainConfig,
    data: tuple[Batch, Batch],
    on_epoch=None,
    dtype=np.float32,
) -> TrainResult:
    """Full training: per epoch, one train pass, validation perplexity, and
    the decay check. Calls on_epoch(params, report) with each epoch's
    EpochReport. The init comes from the first split of
    Rng(train_config.seed) and epoch e's batch order from split e + 1, so
    this is the run `synres train` makes of the same configs, bitwise. A
    NumericError in an epoch's steps or its validation forward, or a
    non-finite validation perplexity, raises TrainingAbort."""
    train_ds, val_ds = data
    config = train_config.resolve(model_config.vocab_size)
    rng = Rng(config.seed)
    params = init_params(model_config, rng.split(), dtype=dtype)
    lr = config.lr
    history: list[EpochReport] = []
    digest = hashlib.sha256()
    for epoch in range(config.epochs):
        started = time.perf_counter()
        stream = _digested(batches(train_ds, config.batch_size, rng.split()), digest)
        try:
            stats = train_epoch(params, stream, config, lr)
            val_ppl = evalsuite.perplexity(evalsuite.score(params, val_ds))
            if not np.isfinite(val_ppl):
                raise NumericError(f"validation perplexity {val_ppl}")
        except NumericError as err:
            raise TrainingAbort(f"epoch {epoch}: {err}", epoch, history) from err
        lr, triggered = lr_decay_check(val_ppl, lr, config)
        report = EpochReport(
            epoch=epoch,
            mean_loss=stats.mean_loss,
            mean_ce=stats.mean_ce,
            mean_reg=stats.mean_reg,
            val_ppl=val_ppl,
            lr=lr,
            decay_triggered=triggered,
            wall_ms=(time.perf_counter() - started) * 1000.0,
        )
        history.append(report)
        if on_epoch is not None:
            on_epoch(params, report)
    return TrainResult(params=params, history=history, stream_digest=digest.hexdigest())


@dataclass
class ArmSummary:
    gate_mode: GateMode
    final_val_ppl: float
    retention_percent: float | None
    noise_grid: evalsuite.NoiseGrid
    loss_curve: list[float]
    stream_digest: str
    params: Params


@dataclass
class AblationResult:
    learned: ArmSummary
    disabled: ArmSummary

    def rows(self) -> list[ArmSummary]:
        return [self.learned, self.disabled]


def ablate(
    model_config: ModelConfig,
    train_config: TrainConfig,
    task_spec: TaskSpec,
    metrics_sink=None,
    noise_levels=evalsuite.DEFAULT_NOISE_LEVELS,
    dtype=np.float32,
) -> AblationResult:
    """Two full trainings differing only in gate mode (learned vs disabled),
    on the task's default vocabulary layout: each arm is bitwise the run
    `synres train --gate-mode <mode>` makes of the same configs, so one seed
    gives both arms one init and one batch stream. Each arm's params carry
    its own gate mode. Deltas are reported, never asserted."""
    layout = layout_for(task_spec, model_config.vocab_size)
    data = build_task_data(task_spec, layout)
    arms = {}
    for gate_mode in (GateMode.LEARNED, GateMode.DISABLED):
        on_epoch = (lambda _, rep, m=gate_mode: metrics_sink(m, rep)) if metrics_sink else None
        result = run_training(replace(model_config, gate_mode=gate_mode), train_config, data,
                              on_epoch=on_epoch, dtype=dtype)
        val, clean, retention = data[1], None, None
        if val.meta is not None:  # retention and noise level 0 read one pass
            clean = evalsuite.score(result.params, val, evalsuite.value_range_for(val, layout))
            retention = evalsuite.retention_probe(clean).aggregate_percent
        grid = evalsuite.noise_robustness(result.params, val, layout, levels=noise_levels,
                                          rng=Rng(train_config.seed), clean=clean)
        arms[gate_mode] = ArmSummary(
            gate_mode=gate_mode,
            final_val_ppl=result.history[-1].val_ppl,
            retention_percent=retention,
            noise_grid=grid,
            loss_curve=[rep.mean_loss for rep in result.history],
            stream_digest=result.stream_digest,
            params=result.params,
        )
    return AblationResult(learned=arms[GateMode.LEARNED], disabled=arms[GateMode.DISABLED])

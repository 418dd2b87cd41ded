"""Micro-transformer with a per-layer synaptic gate on the attention output.

Each layer runs pre-norm causal self-attention, then evaluates a relevance
map r = sigmoid(a @ w_s) over the attention output a and reinforces it as
o = a * r before the residual add. The gate can be learned, forced to ones,
or disabled entirely (the ablation baseline); forced_ones and disabled are
bitwise-equivalent in the forward pass.

The gate mode is part of ModelConfig and so of every checkpoint. Training and
evaluation read it from params.config; Params.with_gate_mode runs the same
weights under another mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Iterator

import numpy as np

from . import numcore as nc
from .numcore import GradGraph, Rng, Tensor2

INIT_STD = 0.02  # init std for all non-gate weight matrices
# bytes of a block's widest activation, [rows x max(d_ff, vocab, heads*n)],
# when a no-graph forward runs a batch in blocks of whole sequences; chosen
# by a sweep on the eval benchmark's 64 x 40 chunks
BLOCK_BUDGET = 512 * 1024


class GateMode(str, Enum):
    LEARNED = "learned"
    FORCED_ONES = "forced_ones"
    DISABLED = "disabled"


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int
    n_heads: int
    n_layers: int
    d_ff: int
    max_seq_len: int
    sigma_init: float = 0.02
    gate_mode: GateMode = GateMode.LEARNED

    def __post_init__(self):
        counts = {
            "vocab_size": self.vocab_size,
            "d_model": self.d_model,
            "n_heads": self.n_heads,
            "n_layers": self.n_layers,
            "d_ff": self.d_ff,
        }
        for name, value in counts.items():
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.max_seq_len < 2:
            raise ValueError(f"max_seq_len must be >= 2, got {self.max_seq_len}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )
        if self.sigma_init < 0:
            raise ValueError(f"sigma_init must be >= 0, got {self.sigma_init}")
        object.__setattr__(self, "gate_mode", GateMode(self.gate_mode))


@dataclass
class LayerParams:
    """One layer's tensors; the field order is their checkpoint order."""

    w_q: Tensor2
    w_k: Tensor2
    w_v: Tensor2
    w_o: Tensor2
    w_s: Tensor2
    ffn_w1: Tensor2
    ffn_b1: Tensor2
    ffn_w2: Tensor2
    ffn_b2: Tensor2
    ln1_gain: Tensor2
    ln1_bias: Tensor2
    ln2_gain: Tensor2
    ln2_bias: Tensor2


@dataclass
class Params:
    """Full trainable state: transformer weights plus per-layer gate matrices.
    The field order, with layers expanded in LayerParams' order, is the
    checkpoint order."""

    config: ModelConfig
    tok_emb: Tensor2
    pos_emb: Tensor2
    layers: list[LayerParams]
    final_gain: Tensor2
    final_bias: Tensor2
    unembed: Tensor2

    @classmethod
    def from_named(cls, config: ModelConfig, tensors: dict[str, Tensor2]) -> "Params":
        """Params from a name -> tensor map holding exactly the tensors that
        config needs, all of tok_emb's dtype; ValueError names the first
        missing, extra, mis-shaped or mis-typed tensor."""
        table, slots = _table(config), list(_slots(config.n_layers))
        extra = sorted(set(tensors).difference(name for name, _, _ in slots))
        if extra:
            raise ValueError(f"tensor {extra[0]}: not a parameter of this config")
        top, layers = {}, [{} for _ in range(config.n_layers)]
        for name, i, fname in slots:
            if name not in tensors:
                raise ValueError(f"tensor {name}: missing")
            t, shape = tensors[name], table[fname][0]
            if t.shape != shape:
                raise ValueError(f"tensor {name}: shape {t.shape}, expected {shape}")
            if t.dtype != tensors["tok_emb"].dtype:  # tok_emb, the first slot, is present
                raise ValueError(f"tensor {name}: dtype {t.dtype}, expected {tensors['tok_emb'].dtype}")
            (top if i is None else layers[i])[fname] = t
        return cls(config=config, layers=[LayerParams(**lp) for lp in layers], **top)

    def named_tensors(self) -> Iterator[tuple[str, Tensor2]]:
        """All trainable tensors in checkpoint order."""
        for name, i, fname in _slots(len(self.layers)):
            yield name, getattr(self if i is None else self.layers[i], fname)

    def synaptic(self) -> list[Tensor2]:
        return [layer.w_s for layer in self.layers]

    def copy(self) -> "Params":
        return Params.from_named(self.config, {n: t.copy() for n, t in self.named_tensors()})

    def with_gate_mode(self, mode: GateMode) -> "Params":
        """Shallow copy whose config runs the gate in mode; shares every tensor."""
        return replace(self, config=replace(self.config, gate_mode=GateMode(mode)))

    def count(self) -> int:
        return sum(t.data.size for _, t in self.named_tensors())

    @property
    def dtype(self):
        return self.tok_emb.dtype


def _slots(n_layers: int) -> Iterator[tuple[str, int | None, str]]:
    """(checkpoint name, layer index or None, field name) of every tensor,
    in checkpoint order: Params' fields, with each layer's LayerParams
    fields in place of layers."""
    for f in fields(Params):
        if f.name == "layers":
            for i in range(n_layers):
                for lf in fields(LayerParams):
                    yield f"layer{i}.{lf.name}", i, lf.name
        elif f.name != "config":
            yield f.name, None, f.name


def _table(config: ModelConfig) -> dict[str, tuple]:
    """Field name -> (shape, init) of every trainable tensor; init is the std
    of an N(0, std^2) draw, or nc.zeros or nc.ones."""
    d, v, dff, std = config.d_model, config.vocab_size, config.d_ff, INIT_STD
    return {
        "tok_emb": ((v, d), std), "pos_emb": ((config.max_seq_len, d), std),
        "w_q": ((d, d), std), "w_k": ((d, d), std), "w_v": ((d, d), std), "w_o": ((d, d), std),
        "w_s": ((d, d), config.sigma_init),
        "ffn_w1": ((d, dff), std), "ffn_b1": ((1, dff), nc.zeros),
        "ffn_w2": ((dff, d), std), "ffn_b2": ((1, d), nc.zeros),
        "ln1_gain": ((1, d), nc.ones), "ln1_bias": ((1, d), nc.zeros),
        "ln2_gain": ((1, d), nc.ones), "ln2_bias": ((1, d), nc.zeros),
        "final_gain": ((1, d), nc.ones), "final_bias": ((1, d), nc.zeros),
        "unembed": ((d, v), std),
    }


def param_count(config: ModelConfig) -> int:
    """Closed-form parameter census; must equal Params.count()."""
    d, v, dff = config.d_model, config.vocab_size, config.d_ff
    per_layer = 4 * d * d + d * dff + dff + dff * d + d + 4 * d + d * d
    return v * d + config.max_seq_len * d + config.n_layers * per_layer + 2 * d + d * v


def init_params(config: ModelConfig, rng: Rng, dtype=np.float32) -> Params:
    """Fresh parameters: gate matrices N(0, sigma_init^2), other matrices
    N(0, 0.02^2), biases zero, layer-norm gains one. Deterministic per seed:
    the draws run in checkpoint order."""
    table = _table(config)

    def make(shape, init):
        if callable(init):
            return init(*shape, dtype=dtype)
        return nc.randn(*shape, init, rng, dtype=dtype)

    return Params.from_named(
        config, {name: make(*table[fname]) for name, _, fname in _slots(config.n_layers)}
    )


@dataclass
class LayerTrace:
    a: Tensor2
    r: Tensor2 | None
    o: Tensor2


@dataclass
class ActivationTrace:
    """Per-layer attention and gate activations for one sequence."""

    layers: list[LayerTrace] = field(default_factory=list)

    def validate(self, atol: float = 1e-6) -> None:
        """Check r is a proper gate in (0,1) and o is the gated recomputation."""
        for i, lt in enumerate(self.layers):
            if lt.r is not None:
                if not ((lt.r.data > 0.0) & (lt.r.data < 1.0)).all():
                    raise AssertionError(f"layer {i}: relevance out of (0, 1)")
                recomputed = lt.a.data * lt.r.data
            else:
                recomputed = lt.a.data
            if not np.allclose(lt.o.data, recomputed, atol=atol):
                raise AssertionError(f"layer {i}: o != a * r beyond {atol}")


def resonance_gate(
    a: Tensor2,
    w_s: Tensor2,
    mode: GateMode = GateMode.LEARNED,
    graph: GradGraph | None = None,
) -> tuple[Tensor2 | None, Tensor2]:
    """Relevance gating of the attention output.

    learned: r = sigmoid(a @ w_s), o = a * r. forced_ones: r is all ones and
    o is a itself. disabled: the gate is skipped (r is None, o is a) and no
    graph edges touch w_s, so it receives an exact-zero gradient.
    """
    mode = GateMode(mode)
    if w_s.shape != (a.cols, a.cols):
        raise nc.DimensionError(f"resonance_gate: w_s must be [{a.cols}x{a.cols}], got {w_s.shape}")
    if mode == GateMode.LEARNED:
        r = nc.sigmoid(nc.matmul(a, w_s, graph), graph)
        return r, nc.hadamard(a, r, graph)
    if mode == GateMode.FORCED_ONES:
        return nc.ones(a.rows, a.cols, dtype=a.dtype), a
    return None, a


def _forward_impl(params, tokens, mode, graph, want_trace, positions=None):
    cfg = params.config
    tokens = np.asarray(tokens)
    if tokens.ndim == 1:
        tokens = tokens[None, :]
    if tokens.ndim != 2 or tokens.shape[0] < 1:
        raise ValueError(f"tokens must be a sequence or a [B x n] batch, got shape {tokens.shape}")
    n = tokens.shape[1]
    if n < 1 or n > cfg.max_seq_len:
        raise ValueError(f"sequence length {n} outside [1, {cfg.max_seq_len}]")
    if tokens.dtype.kind not in "iu":
        raise ValueError(f"tokens must be integers, got dtype {tokens.dtype}")
    if positions is not None:
        positions = _check_positions(positions, n)
    mode = GateMode(mode if mode is not None else cfg.gate_mode)
    bounds = [0, tokens.shape[0]]
    if tokens.shape[0] > 1 and graph is None and not want_trace:
        bounds = _block_bounds(cfg, tokens.shape[0], n, params.dtype.itemsize)
    if len(bounds) == 2:
        return nc.run_deferred(_forward_body, graph, params, tokens, mode, positions, want_trace)
    # every op is local to a row or a sequence, so each block's logits are
    # bitwise those rows of the one-block forward wherever the BLAS rounds a
    # matmul row the same for any row count (README, Memory and speed)
    rows = n if positions is None else positions.size
    logits = np.empty((tokens.shape[0] * rows, cfg.vocab_size), dtype=params.dtype)
    for lo, hi in zip(bounds, bounds[1:]):
        block, _ = nc.run_deferred(_forward_body, None, params, tokens[lo:hi], mode, positions, False)
        logits[lo * rows : hi * rows] = block.data
    return Tensor2(logits), None


def _check_positions(positions, n):
    """positions as a strictly increasing int64 array within [0, n); None
    when they cover every position, which the full forward scores anyway."""
    p = np.asarray(positions)
    if p.ndim != 1 or p.size == 0 or p.dtype.kind not in "iu":
        raise ValueError(f"positions must be a non-empty 1-D integer array, got {p!r}")
    p = p.astype(np.int64)
    if p[0] < 0 or p[-1] >= n or (np.diff(p) <= 0).any():
        raise ValueError(f"positions must increase strictly within [0, {n}), got {p.tolist()}")
    return None if p.size == n else p


def _block_bounds(cfg, n_seqs, n, itemsize):
    """Sequence bounds of near-equal blocks, each within BLOCK_BUDGET if a
    sequence fits."""
    per_seq = itemsize * n * max(cfg.d_ff, cfg.vocab_size, cfg.n_heads * n)
    k = -(-n_seqs // max(1, BLOCK_BUDGET // per_seq))
    return [n_seqs * i // k for i in range(k + 1)]


def _forward_body(params, tokens, mode, positions, want_trace, graph):
    """The forward on validated [B x n] tokens; every op checks unless deferred.
    With positions, the last layer's queries, and everything after its
    attention, run on those rows of each sequence alone, while its keys and
    values cover every position; the logits are [(B*P) x V]."""
    n_seqs, n = tokens.shape
    rows = None if positions is None else (np.arange(n_seqs)[:, None] * n + positions).reshape(-1)
    # the n position rows are gathered once and added to every sequence
    x = nc.add_row(
        nc.gather_rows(params.tok_emb, tokens.reshape(-1), graph),
        nc.gather_rows(params.pos_emb, np.arange(n), graph),
        graph,
    )
    trace = ActivationTrace() if want_trace else None
    last = params.layers[-1]
    for layer in params.layers:
        h = nc.layer_norm(x, layer.ln1_gain, layer.ln1_bias, graph)
        # causal self-attention, projected by w_o into the output a that the
        # gate reads; with positions, the last layer's queries are those rows
        # of each sequence alone, while keys and values cover every position
        queries = positions if layer is last else None
        core = nc.multihead_attention(
            nc.matmul(h if queries is None else nc.gather_rows(h, rows, graph), layer.w_q, graph),
            nc.matmul(h, layer.w_k, graph),
            nc.matmul(h, layer.w_v, graph),
            params.config.n_heads, n_seqs, graph, queries=queries,
        )
        if queries is not None:  # every op from here on is local to a row
            x = nc.gather_rows(x, rows, graph)
        a = nc.matmul(core, layer.w_o, graph)
        r, o = resonance_gate(a, layer.w_s, mode, graph)
        if trace is not None:
            trace.layers.append(LayerTrace(a=a, r=r, o=o))
        x = nc.add(x, o, graph)
        h2 = nc.layer_norm(x, layer.ln2_gain, layer.ln2_bias, graph)
        f = nc.gelu(nc.add_row(nc.matmul(h2, layer.ffn_w1, graph), layer.ffn_b1, graph), graph)
        x = nc.add(x, nc.add_row(nc.matmul(f, layer.ffn_w2, graph), layer.ffn_b2, graph), graph)
    h = nc.layer_norm(x, params.final_gain, params.final_bias, graph)
    return nc.matmul(h, params.unembed, graph), trace


def forward(
    params: Params,
    tokens,
    mode: GateMode | None = None,
    want_trace: bool = False,
    graph: GradGraph | None = None,
) -> tuple[Tensor2, ActivationTrace | None]:
    """Run one token sequence, 1-D or [1 x n], through the model; logits row
    t depends only on tokens 0..t. mode defaults to the config's gate_mode.
    A batch of more than one sequence goes to forward_batch."""
    # the one entry point that still takes a per-call mode: the latency
    # benchmark and its tracer time both gate modes on one set of params
    # through forward(..., mode=) and count_flops(config, n, mode)
    tokens = np.asarray(tokens)
    if tokens.ndim == 2 and tokens.shape[0] != 1:
        raise ValueError(f"forward runs one sequence, got a batch of shape {tokens.shape}; "
                         "use forward_batch")
    return _forward_impl(params, tokens, mode, graph, want_trace)


def forward_batch(
    params: Params, tokens, graph: GradGraph | None = None, positions=None
) -> Tensor2:
    """Run a [B x n] token matrix under the config's gate mode; returns
    [(B*n) x V] logits with row b*n + t holding sequence b position t.
    Without a graph the batch runs in blocks of whole sequences sized to
    BLOCK_BUDGET, bitwise equal to one pass where the BLAS rounds a matmul
    row the same for any row count, as at the README config.

    positions, strictly increasing and the same for every sequence, names
    the P positions whose logits the caller reads; the result is then
    [(B*P) x V], row b*P + j holding sequence b at positions[j], bitwise
    those rows of the full forward. Every layer but the last runs on every
    position, and the last projects its keys and values at every position;
    its queries, scores and softmax, and everything from its output
    projection to the unembedding, run on the B*P rows alone."""
    logits, _ = _forward_impl(params, tokens, None, graph, False, positions)
    return logits


@dataclass(frozen=True)
class FlopCount:
    """Flop census for one full-sequence forward pass.

    Convention: a matmul [m x k] @ [k x n] costs 2*m*k*n (multiplies and adds
    counted separately); elementwise ops cost one flop per element; a layer
    norm costs 8 flops per element.
    """

    embed: int
    attention: int
    gate: int
    ffn: int
    norms: int
    unembed: int

    @property
    def total(self) -> int:
        return self.embed + self.attention + self.gate + self.ffn + self.norms + self.unembed


def count_flops(config: ModelConfig, n: int, mode: GateMode | None = None) -> FlopCount:
    """Closed-form flop estimate for a length-n forward pass.

    The gate contributes 2*(n*d^2 + n*d) per layer when learned (matmul plus
    sigmoid plus elementwise product) and nothing otherwise.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    mode = GateMode(mode if mode is not None else config.gate_mode)
    d, dff, h, layers = config.d_model, config.d_ff, config.n_heads, config.n_layers
    embed = n * d
    attention = layers * (8 * n * d * d + 4 * n * n * d + 4 * h * n * n)
    gate = layers * 2 * (n * d * d + n * d) if mode == GateMode.LEARNED else 0
    ffn = layers * (4 * n * d * dff + 2 * n * dff + n * d)
    norms = (2 * layers + 1) * 8 * n * d + layers * 2 * n * d  # norms + residual adds
    unembed = 2 * n * d * config.vocab_size
    return FlopCount(embed=embed, attention=attention, gate=gate, ffn=ffn, norms=norms, unembed=unembed)

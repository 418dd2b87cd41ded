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

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterator

import numpy as np

from . import numcore as nc
from .numcore import GradGraph, Rng, Tensor2

INIT_STD = 0.02  # init std for all non-gate weight matrices
LN_EPS = 1e-5


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
    """Full trainable state: transformer weights plus per-layer gate matrices."""

    config: ModelConfig
    tok_emb: Tensor2
    pos_emb: Tensor2
    layers: list[LayerParams]
    final_gain: Tensor2
    final_bias: Tensor2
    unembed: Tensor2

    def named_tensors(self) -> Iterator[tuple[str, Tensor2]]:
        """All trainable tensors in the stable manifest order."""
        yield "tok_emb", self.tok_emb
        yield "pos_emb", self.pos_emb
        for i, layer in enumerate(self.layers):
            for fname in (
                "w_q", "w_k", "w_v", "w_o", "w_s",
                "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2",
                "ln1_gain", "ln1_bias", "ln2_gain", "ln2_bias",
            ):
                yield f"layer{i}.{fname}", getattr(layer, fname)
        yield "final_gain", self.final_gain
        yield "final_bias", self.final_bias
        yield "unembed", self.unembed

    def synaptic(self) -> list[Tensor2]:
        return [layer.w_s for layer in self.layers]

    def copy(self) -> "Params":
        layers = [
            LayerParams(**{f: getattr(lp, f).copy() for f in lp.__dataclass_fields__})
            for lp in self.layers
        ]
        return Params(
            config=self.config,
            tok_emb=self.tok_emb.copy(),
            pos_emb=self.pos_emb.copy(),
            layers=layers,
            final_gain=self.final_gain.copy(),
            final_bias=self.final_bias.copy(),
            unembed=self.unembed.copy(),
        )

    def with_gate_mode(self, mode: GateMode) -> "Params":
        """Shallow copy whose config runs the gate in mode; shares every tensor."""
        return replace(self, config=replace(self.config, gate_mode=GateMode(mode)))

    def count(self) -> int:
        return sum(t.data.size for _, t in self.named_tensors())

    @property
    def dtype(self):
        return self.tok_emb.dtype


def param_count(config: ModelConfig) -> int:
    """Closed-form parameter census; must equal Params.count()."""
    d, v, dff = config.d_model, config.vocab_size, config.d_ff
    per_layer = 4 * d * d + d * dff + dff + dff * d + d + 4 * d + d * d
    return v * d + config.max_seq_len * d + config.n_layers * per_layer + 2 * d + d * v


def init_params(config: ModelConfig, rng: Rng, dtype=np.float32) -> Params:
    """Fresh parameters: gate matrices N(0, sigma_init^2), other matrices
    N(0, 0.02^2), biases zero, layer-norm gains one. Deterministic per seed."""
    d, dff = config.d_model, config.d_ff

    def mat(rows, cols, sigma=INIT_STD):
        return nc.randn(rows, cols, sigma, rng, dtype=dtype)

    layers = []
    tok_emb = mat(config.vocab_size, d)
    pos_emb = mat(config.max_seq_len, d)
    for _ in range(config.n_layers):
        layers.append(
            LayerParams(
                w_q=mat(d, d),
                w_k=mat(d, d),
                w_v=mat(d, d),
                w_o=mat(d, d),
                w_s=mat(d, d, sigma=config.sigma_init),
                ffn_w1=mat(d, dff),
                ffn_b1=nc.zeros(1, dff, dtype=dtype),
                ffn_w2=mat(dff, d),
                ffn_b2=nc.zeros(1, d, dtype=dtype),
                ln1_gain=nc.ones(1, d, dtype=dtype),
                ln1_bias=nc.zeros(1, d, dtype=dtype),
                ln2_gain=nc.ones(1, d, dtype=dtype),
                ln2_bias=nc.zeros(1, d, dtype=dtype),
            )
        )
    return Params(
        config=config,
        tok_emb=tok_emb,
        pos_emb=pos_emb,
        layers=layers,
        final_gain=nc.ones(1, d, dtype=dtype),
        final_bias=nc.zeros(1, d, dtype=dtype),
        unembed=mat(d, config.vocab_size),
    )


@dataclass
class LayerTrace:
    q: Tensor2
    k: Tensor2
    v: Tensor2
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


def _attention(x, layer, n_heads, n_seqs, graph, keep_qkv):
    """Causal multi-head self-attention: per head, softmax of the masked
    q k^T / sqrt(d/n_heads) applied to v; heads concatenated and projected by
    w_o. Returns the projected output a that feeds the gate, and (q, k, v)
    if keep_qkv is set; otherwise None, so a no-graph forward frees them."""
    q = nc.matmul(x, layer.w_q, graph)
    k = nc.matmul(x, layer.w_k, graph)
    v = nc.matmul(x, layer.w_v, graph)
    # probs is unused but must outlive the w_o matmul: freed earlier, glibc
    # trims the heap and faults it back (2-core VM: 3,800 -> 6,300 minor
    # faults, about 15% slower per 64x40 no-graph forward)
    core, probs = nc.multihead_attention(
        q, k, v, n_heads, n_seqs=n_seqs, graph=graph, want_probs=True
    )
    return nc.matmul(core, layer.w_o, graph), ((q, k, v) if keep_qkv else None)


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


def _forward_impl(params, tokens, mode, graph, want_trace):
    cfg = params.config
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim == 1:
        tokens = tokens[None, :]
    n_seqs, n = tokens.shape
    if n < 1 or n > cfg.max_seq_len:
        raise ValueError(f"sequence length {n} outside [1, {cfg.max_seq_len}]")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
        raise ValueError(f"token index out of range [0, {cfg.vocab_size})")
    if want_trace and n_seqs != 1:
        raise ValueError("traces are collected for single sequences only")
    mode = GateMode(mode if mode is not None else cfg.gate_mode)

    # the n position rows are gathered once and added to every sequence
    x = nc.add_row(
        nc.gather_rows(params.tok_emb, tokens.reshape(-1), graph),
        nc.gather_rows(params.pos_emb, np.arange(n), graph),
        graph,
    )
    trace = ActivationTrace() if want_trace else None
    for layer in params.layers:
        h = nc.layer_norm(x, layer.ln1_gain, layer.ln1_bias, eps=LN_EPS, graph=graph)
        a, qkv = _attention(h, layer, cfg.n_heads, n_seqs, graph, keep_qkv=want_trace)
        r, o = resonance_gate(a, layer.w_s, mode, graph)
        if trace is not None:
            trace.layers.append(LayerTrace(*qkv, a=a, r=r, o=o))
        x = nc.add(x, o, graph)
        h2 = nc.layer_norm(x, layer.ln2_gain, layer.ln2_bias, eps=LN_EPS, graph=graph)
        f = nc.gelu(nc.add_row(nc.matmul(h2, layer.ffn_w1, graph), layer.ffn_b1, graph), graph)
        x = nc.add(x, nc.add_row(nc.matmul(f, layer.ffn_w2, graph), layer.ffn_b2, graph), graph)
    h = nc.layer_norm(x, params.final_gain, params.final_bias, eps=LN_EPS, graph=graph)
    logits = nc.matmul(h, params.unembed, graph)
    return logits, trace


def forward(
    params: Params,
    tokens,
    mode: GateMode | None = None,
    want_trace: bool = False,
    graph: GradGraph | None = None,
) -> tuple[Tensor2, ActivationTrace | None]:
    """Run one token sequence through the model; logits row t depends only on
    tokens 0..t. mode defaults to the config's gate_mode."""
    # the one entry point that still takes a per-call mode: the latency
    # benchmark and its tracer time both gate modes on one set of params
    # through forward(..., mode=) and count_flops(config, n, mode)
    return _forward_impl(params, np.asarray(tokens).reshape(-1), mode, graph, want_trace)


def forward_batch(params: Params, tokens, graph: GradGraph | None = None) -> Tensor2:
    """Run a [B x n] token matrix in one pass under the config's gate mode;
    returns [(B*n) x V] logits with row b*n + t holding sequence b position t."""
    logits, _ = _forward_impl(params, tokens, None, graph, want_trace=False)
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

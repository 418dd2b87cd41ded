"""Model composition: init census, gate semantics, causality, gradient flow."""

import numpy as np
import pytest

from synres import numcore as nc
from synres.model import (
    GateMode,
    ModelConfig,
    count_flops,
    forward,
    forward_batch,
    init_params,
    param_count,
    resonance_gate,
)

SPEC_CENSUS_CONFIG = ModelConfig(
    vocab_size=64, d_model=32, n_heads=4, n_layers=2, d_ff=128, max_seq_len=128
)

TINY = ModelConfig(vocab_size=11, d_model=8, n_heads=2, n_layers=2, d_ff=16, max_seq_len=8)


def tiny_params(seed=0, dtype=np.float32, **cfg_overrides):
    cfg = TINY if not cfg_overrides else ModelConfig(
        **{**TINY.__dict__, **cfg_overrides}
    )
    return init_params(cfg, nc.Rng(seed), dtype=dtype)


# --------------------------------------------------------------------------
# config / init
# --------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=8, d_model=10, n_heads=3, n_layers=1, d_ff=8, max_seq_len=4)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=8, d_model=8, n_heads=2, n_layers=0, d_ff=8, max_seq_len=4)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=8, d_model=8, n_heads=2, n_layers=1, d_ff=8, max_seq_len=1)


def test_param_census_closed_form():
    # frozen hand census for the reference config:
    # emb 64*32 + pos 128*32 + unemb 32*64 + final ln 64
    # + 2 layers * (4*32^2 + 32*128 + 128 + 128*32 + 32 + 4*32 + 32^2)
    assert param_count(SPEC_CENSUS_CONFIG) == 35456
    params = init_params(SPEC_CENSUS_CONFIG, nc.Rng(0))
    assert params.count() == 35456
    assert param_count(TINY) == tiny_params().count()


def test_init_sigma_zero_gate():
    params = tiny_params(sigma_init=0.0)
    for layer in params.layers:
        np.testing.assert_array_equal(layer.w_s.data, np.zeros((8, 8)))


def test_init_deterministic():
    a, b = tiny_params(seed=42), tiny_params(seed=42)
    for (na, ta), (nb, tb) in zip(a.named_tensors(), b.named_tensors()):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)


def test_init_biases_and_gains():
    params = tiny_params()
    for layer in params.layers:
        np.testing.assert_array_equal(layer.ln1_gain.data, np.ones((1, 8)))
        np.testing.assert_array_equal(layer.ln1_bias.data, np.zeros((1, 8)))
        np.testing.assert_array_equal(layer.ffn_b1.data, np.zeros((1, 16)))
    np.testing.assert_array_equal(params.final_gain.data, np.ones((1, 8)))


# --------------------------------------------------------------------------
# attention on a layer's projections
# --------------------------------------------------------------------------


def attend(x, layer, causal=True):
    """A layer's self-attention over one sequence: the w_o-projected output
    and the [1, n_heads, n, n] attention weights."""
    q, k, v = (nc.matmul(x, w) for w in (layer.w_q, layer.w_k, layer.w_v))
    core, probs = nc.multihead_attention(q, k, v, n_heads=2, causal=causal, want_probs=True)
    return nc.matmul(core, layer.w_o), probs


def test_attention_single_token():
    params = tiny_params(seed=1)
    layer = params.layers[0]
    x = nc.Tensor2(nc.Rng(9).normal(1, 8, 1.0))
    a, probs = attend(x, layer)
    np.testing.assert_array_equal(probs, np.ones((1, 2, 1, 1)))
    v_proj = x.data @ layer.w_v.data
    np.testing.assert_allclose(a.data, v_proj @ layer.w_o.data, rtol=1e-5)


def test_attention_uniform_weights_no_mask():
    params = tiny_params(seed=2)
    layer = params.layers[0]
    x = nc.Tensor2(np.tile(nc.Rng(4).normal(1, 8, 1.0), (5, 1)))  # identical rows
    _, probs = attend(x, layer, causal=False)
    np.testing.assert_allclose(probs, np.full((1, 2, 5, 5), 0.2), atol=1e-6)


def test_attention_causal_invariance():
    params = tiny_params(seed=3)
    layer = params.layers[0]
    x = nc.Tensor2(nc.Rng(5).normal(6, 8, 1.0, dtype=np.float32))
    base, _ = attend(x, layer)
    x2 = x.copy()
    x2.data[4] += 7.0
    x2.data[5] -= 3.0
    pert, _ = attend(x2, layer)
    np.testing.assert_array_equal(base.data[:4], pert.data[:4])


# --------------------------------------------------------------------------
# resonance gate
# --------------------------------------------------------------------------


def test_gate_zero_weights_halves():
    a = nc.Tensor2(nc.Rng(6).normal(4, 8, 1.0))
    r, o = resonance_gate(a, nc.zeros(8, 8), GateMode.LEARNED)
    np.testing.assert_array_equal(r.data, np.full((4, 8), 0.5))
    np.testing.assert_allclose(o.data, 0.5 * a.data, rtol=1e-6)


def test_gate_forced_ones_identity():
    a = nc.Tensor2(nc.Rng(7).normal(4, 8, 1.0))
    r, o = resonance_gate(a, nc.zeros(8, 8), GateMode.FORCED_ONES)
    assert o is a
    np.testing.assert_array_equal(r.data, np.ones((4, 8)))


def test_gate_scalar_oracle():
    a = nc.tensor([[1.0, 0.0], [0.0, 1.0]])
    w = nc.tensor([[2.0, 0.0], [0.0, 2.0]])
    r, o = resonance_gate(a, w, GateMode.LEARNED)
    np.testing.assert_allclose(r.data, [[0.8808, 0.5], [0.5, 0.8808]], atol=1e-4)
    np.testing.assert_allclose(o.data, [[0.8808, 0.0], [0.0, 0.8808]], atol=1e-4)


def test_gate_shape_mismatch():
    with pytest.raises(nc.DimensionError):
        resonance_gate(nc.zeros(2, 4), nc.zeros(3, 3), GateMode.LEARNED)


def test_gate_disabled_no_graph_edges():
    a = nc.Tensor2(nc.Rng(8).normal(2, 4, 1.0))
    g = nc.GradGraph()
    w = nc.zeros(4, 4)
    g.watch(w)
    r, o = resonance_gate(a, w, GateMode.DISABLED, graph=g)
    assert r is None and o is a and g.n_ops == 0


# --------------------------------------------------------------------------
# forward
# --------------------------------------------------------------------------


def test_forward_shapes_and_finite():
    params = tiny_params(seed=10)
    logits, trace = forward(params, [1, 2, 3, 4, 5], want_trace=True)
    assert logits.shape == (5, 11)
    assert np.isfinite(logits.data).all()
    assert len(trace.layers) == 2
    trace.validate()


def test_forward_bad_tokens():
    params = tiny_params()
    with pytest.raises(ValueError):
        forward(params, [0, 11])
    with pytest.raises(ValueError):
        forward(params, list(range(9)))  # beyond max_seq_len


def test_forward_forced_ones_equals_disabled_bitwise():
    params = tiny_params(seed=11)
    a, _ = forward(params, [3, 1, 4, 1, 5], mode=GateMode.FORCED_ONES)
    b, _ = forward(params, [3, 1, 4, 1, 5], mode=GateMode.DISABLED)
    np.testing.assert_array_equal(a.data, b.data)


def test_forward_causality_bitwise():
    params = tiny_params(seed=12)
    toks = [3, 1, 4, 1, 5, 9, 2, 6]
    base, _ = forward(params, toks)
    for t in (7, 5):
        mutated = list(toks)
        for alt in range(11):
            if alt == toks[t]:
                continue
            mutated[t] = alt
            pert, _ = forward(params, mutated)
            np.testing.assert_array_equal(base.data[:t], pert.data[:t])
            break


def test_forward_trace_r_in_open_interval():
    params = tiny_params(seed=13)
    _, trace = forward(params, [1, 2, 3], mode=GateMode.LEARNED, want_trace=True)
    for lt in trace.layers:
        assert ((lt.r.data > 0) & (lt.r.data < 1)).all()
        np.testing.assert_allclose(lt.o.data, lt.a.data * lt.r.data, atol=1e-6)


def test_forward_batch_matches_single():
    params = tiny_params(seed=14)
    toks = np.array([[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 0, 1]])
    batched = forward_batch(params, toks)
    assert batched.shape == (12, 11)
    for b in range(3):
        single, _ = forward(params, toks[b])
        np.testing.assert_allclose(batched.data[b * 4 : (b + 1) * 4], single.data, atol=2e-6)


def test_forward_deterministic_replay():
    params = tiny_params(seed=15)
    a, _ = forward(params, [1, 2, 3, 4, 5, 6])
    b, _ = forward(params, [1, 2, 3, 4, 5, 6])
    np.testing.assert_array_equal(a.data, b.data)


def test_with_gate_mode_swaps_only_the_config():
    params = tiny_params(seed=17)
    off = params.with_gate_mode(GateMode.DISABLED)
    assert (params.config.gate_mode, off.config.gate_mode) == (GateMode.LEARNED, GateMode.DISABLED)
    for (_, a), (_, b) in zip(params.named_tensors(), off.named_tensors()):
        assert a is b
    toks = np.array([[3, 1, 4, 1, 5], [9, 2, 6, 5, 3]])
    want = np.concatenate([forward(params, t, mode=GateMode.DISABLED)[0].data for t in toks])
    np.testing.assert_array_equal(forward_batch(off, toks).data, want)


# --------------------------------------------------------------------------
# gradients through the model
# --------------------------------------------------------------------------


def _model_loss(params, tokens, targets, mode, graph, lam=1e-3):
    for _, t in params.named_tensors():
        graph.watch(t)
    logits = forward_batch(params.with_gate_mode(mode), tokens, graph=graph)
    ce = nc.cross_entropy_logits(logits, targets, np.ones(len(targets), dtype=bool), graph)
    reg = None
    for w_s in params.synaptic():
        term = nc.frobenius_sq(w_s, graph)
        reg = term if reg is None else nc.add(reg, term, graph)
    return nc.add(ce, nc.scale(reg, lam, graph), graph)


def test_gate_gradient_flow_learned_vs_disabled():
    params = tiny_params(seed=16, sigma_init=0.05)
    tokens = np.array([1, 2, 3, 4, 5])
    targets = np.array([2, 3, 4, 5, 6])

    g = nc.GradGraph()
    loss = _model_loss(params, tokens, targets, GateMode.LEARNED, g, lam=0.0)
    nc.backward(g, loss)
    assert any(np.abs(layer.w_s.grad).max() > 0 for layer in params.layers)

    g2 = nc.GradGraph()
    loss2 = _model_loss(params, tokens, targets, GateMode.DISABLED, g2, lam=0.0)
    nc.backward(g2, loss2)
    for layer in params.layers:
        np.testing.assert_array_equal(layer.w_s.grad, np.zeros((8, 8)))


def test_full_model_grad_check_float64():
    # eps balances central-difference truncation against rounding noise on
    # near-zero-gradient elements; the acceptance suite runs the stricter
    # per-tensor variant
    params = tiny_params(seed=15, dtype=np.float64)
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, 11, size=5)
    targets = rng.integers(0, 11, size=5)
    tensors = [t for _, t in params.named_tensors()]

    def fn(inputs, graph):
        if graph is None:
            logits = forward_batch(params.with_gate_mode(GateMode.LEARNED), tokens)
            ce = nc.cross_entropy_logits(logits, targets, np.ones(5, dtype=bool))
            reg = None
            for w_s in params.synaptic():
                term = nc.frobenius_sq(w_s)
                reg = term if reg is None else nc.add(reg, term)
            return nc.add(ce, nc.scale(reg, 1e-3))
        return _model_loss(params, tokens, targets, GateMode.LEARNED, graph, lam=1e-3)

    err = nc.grad_check(fn, tensors, eps=3e-5)
    assert err < 1e-4, f"max rel grad error {err}"


# --------------------------------------------------------------------------
# flop census
# --------------------------------------------------------------------------


def test_flops_gate_delta_closed_form():
    cfg = SPEC_CENSUS_CONFIG
    for n in (1, 16, 100):
        on = count_flops(cfg, n, GateMode.LEARNED).total
        off = count_flops(cfg, n, GateMode.DISABLED).total
        d = cfg.d_model
        assert on - off == 2 * cfg.n_layers * (n * d * d + n * d)


def test_flops_hand_census_n1_l1():
    cfg = ModelConfig(vocab_size=16, d_model=8, n_heads=2, n_layers=1, d_ff=32, max_seq_len=4)
    fc = count_flops(cfg, 1, GateMode.LEARNED)
    # independent arithmetic: d=8, dff=32, h=2, V=16, n=1
    embed = 8
    attention = 8 * 64 + 4 * 8 + 4 * 2
    gate = 2 * (64 + 8)
    ffn = 4 * 8 * 32 + 2 * 32 + 8
    norms = 3 * 8 * 8 + 2 * 8
    unembed = 2 * 8 * 16
    assert (fc.embed, fc.attention, fc.gate, fc.ffn, fc.norms, fc.unembed) == (
        embed, attention, gate, ffn, norms, unembed,
    )
    assert fc.total == embed + attention + gate + ffn + norms + unembed


def test_flops_attention_superlinear():
    cfg = SPEC_CENSUS_CONFIG
    for n in (8, 64, 500):
        a1 = count_flops(cfg, n).attention
        a2 = count_flops(cfg, 2 * n).attention
        assert a2 > 2 * a1

"""Model composition: init census, gate semantics, causality, gradient flow."""

import hashlib
import itertools
import weakref
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from synres import model
from synres import numcore as nc
from synres.model import (
    GateMode,
    LayerParams,
    ModelConfig,
    Params,
    _forward_body,
    count_flops,
    forward,
    forward_batch,
    init_params,
    param_count,
    resonance_gate,
)
from synres.train import loss

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
# parameter manifest
# --------------------------------------------------------------------------


@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_manifest_names_follow_the_dataclass_fields(n_layers):
    cfg = replace(TINY, n_layers=n_layers)
    named = list(init_params(cfg, nc.Rng(0)).named_tensors())
    layer_fields = [f.name for f in fields(LayerParams)]
    per_layer = [f"layer{i}.{f}" for i in range(n_layers) for f in layer_fields]
    expected = ["tok_emb", "pos_emb", *per_layer, "final_gain", "final_bias", "unembed"]
    assert [name for name, _ in named] == expected
    table = model._table(cfg)
    slots = list(model._slots(n_layers))
    assert [name for name, _, _ in slots] == expected
    assert {fname for _, _, fname in slots} == set(table)
    assert [table[fname][0] for _, _, fname in slots] == [t.shape for _, t in named]


def test_from_named_round_trips_and_rejects_a_bad_map():
    params = tiny_params(seed=3)
    named = dict(params.named_tensors())
    rebuilt = Params.from_named(TINY, named)
    assert [(n, t) for n, t in rebuilt.named_tensors()] == list(named.items())
    missing = {n: t for n, t in named.items() if n != "layer1.w_s"}
    with pytest.raises(ValueError, match=r"tensor layer1\.w_s: missing"):
        Params.from_named(TINY, missing)
    with pytest.raises(ValueError, match=r"tensor layer2\.w_q: not a parameter"):
        Params.from_named(TINY, {**named, "layer2.w_q": named["layer0.w_q"]})
    with pytest.raises(ValueError, match=r"tensor layer0\.ffn_b1: shape \(1, 15\), expected \(1, 16\)"):
        Params.from_named(TINY, {**named, "layer0.ffn_b1": nc.zeros(1, 15)})
    wide = nc.Tensor2(named["unembed"].data.astype(np.float64))
    with pytest.raises(ValueError, match=r"tensor unembed: dtype float64, expected float32"):
        Params.from_named(TINY, {**named, "unembed": wide})


# sha256 over (name, bytes) of every tensor, recorded before init_params was
# rebuilt on the manifest: (dtype, sigma_init, n_layers) -> digest
INIT_DIGESTS = {
    ("float32", 0.0, 1): "974799beb666cf42ac3bc37884f9ab99451bdbf4444dda14b57ff2503381dc15",
    ("float32", 0.0, 3): "1fac6250cc3848568bee4e80bf59ab833283281637fee45b39b9e133c59289bb",
    ("float32", 0.02, 1): "41d3c66b5492b8801984782b5bef9f5b5b67a6a8c3d46f560d8a7f79df6e5216",
    ("float32", 0.02, 3): "cd32b51d4463182ebe95326b57eea5491036c39ee1f1b920330229d229dd7ea3",
    ("float64", 0.0, 1): "ddb5d8f6c7d0af7131404c55b0ebafb66f84e514efba7ae2a9cc57fd8948cb43",
    ("float64", 0.0, 3): "3c06d562dc4068a85b4b2fc8d6ffe45e3d8ea2315595b7101ec5c247be745627",
    ("float64", 0.02, 1): "5ed39c131bb50d2ee7b24995719df7dae72768c3a084b10cebece656d8722205",
    ("float64", 0.02, 3): "798d59b39855c4ba30e4ae8b75267aa3dc839766d08b2066edcd6d6b3d701b7d",
}


@pytest.mark.parametrize("key", sorted(INIT_DIGESTS))
def test_init_params_bits_pinned(key):
    dtype, sigma_init, n_layers = key
    cfg = ModelConfig(vocab_size=64, d_model=64, n_heads=4, n_layers=n_layers, d_ff=256,
                      max_seq_len=34, sigma_init=sigma_init)
    digest = hashlib.sha256()
    for name, t in init_params(cfg, nc.Rng(1234), dtype=np.dtype(dtype)).named_tensors():
        digest.update(name.encode())
        digest.update(t.data.tobytes())
    assert digest.hexdigest() == INIT_DIGESTS[key]


# --------------------------------------------------------------------------
# attention on a layer's projections
# --------------------------------------------------------------------------


def attend(x, layer, v=None):
    """A layer's self-attention over one sequence: the w_o-projected output
    and the head outputs before it; v, when given, replaces x's values."""
    q, k = nc.matmul(x, layer.w_q), nc.matmul(x, layer.w_k)
    core = nc.multihead_attention(q, k, nc.matmul(x, layer.w_v) if v is None else v, n_heads=2)
    return nc.matmul(core, layer.w_o), core


def test_attention_single_token():
    params = tiny_params(seed=1)
    layer = params.layers[0]
    x = nc.Tensor2(nc.Rng(9).normal(1, 8, 1.0))
    a, core = attend(x, layer)
    # a weight of exactly 1 on the one key returns its value row unrounded
    np.testing.assert_array_equal(core.data, nc.matmul(x, layer.w_v).data)
    v_proj = x.data @ layer.w_v.data
    np.testing.assert_allclose(a.data, v_proj @ layer.w_o.data, rtol=1e-5)


def test_attention_identical_rows_weigh_visible_keys_equally():
    params = tiny_params(seed=2)
    layer = params.layers[0]
    x = nc.Tensor2(np.tile(nc.Rng(4).normal(1, 8, 1.0), (5, 1)))  # identical rows
    # value row j holds j, so weights of 1/(i+1) on keys 0..i give row i the mean i/2
    v = nc.Tensor2(np.repeat(np.arange(5, dtype=x.dtype)[:, None], 8, axis=1))
    _, core = attend(x, layer, v)
    np.testing.assert_allclose(core.data, np.repeat(np.arange(5)[:, None] / 2, 8, axis=1), atol=1e-6)


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
    for bad in ([0, 11], [0, -1]):
        with pytest.raises(ValueError, match="out of range"):
            forward(params, bad)
    with pytest.raises(ValueError):
        forward(params, list(range(9)))  # beyond max_seq_len


def test_forward_rejects_float_tokens():
    params = tiny_params()
    for bad in ([[1.7, 2.2]], [[1.0, 2.0]]):
        with pytest.raises(ValueError, match="dtype float64"):
            forward_batch(params, bad)
    with pytest.raises(ValueError, match="dtype float64"):
        forward(params, [1.0, 2.0])


def test_forward_rejects_bool_tokens():
    with pytest.raises(ValueError, match="dtype bool"):
        forward_batch(tiny_params(), np.array([[True, False]]))


def test_forward_rejects_an_empty_batch():
    with pytest.raises(ValueError, match=r"shape \(0, 5\)"):
        forward_batch(tiny_params(), np.zeros((0, 5), dtype=np.int64))


def test_forward_rejects_a_three_dimensional_batch():
    with pytest.raises(ValueError, match=r"shape \(2, 2, 3\)"):
        forward_batch(tiny_params(), np.ones((2, 2, 3), dtype=np.int64))


def test_forward_runs_one_sequence_and_rejects_a_batch():
    # a [2 x 2] batch once ran as one 4-token sequence
    params = tiny_params(seed=10)
    one, _ = forward(params, [1, 2, 3, 4])
    row, _ = forward(params, [[1, 2, 3, 4]])
    np.testing.assert_array_equal(row.data, one.data)
    with pytest.raises(ValueError, match=r"shape \(2, 2\); use forward_batch"):
        forward(params, [[1, 2], [3, 4]])


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


def test_forced_ones_trace_validates():
    _, trace = forward(tiny_params(seed=13), [1, 2, 3], mode=GateMode.FORCED_ONES, want_trace=True)
    assert all((lt.r.data == 1.0).all() for lt in trace.layers)
    trace.validate()


def test_saturated_learned_trace_validates():
    # the float32 sigmoid rounds to exactly 1.0 from about x = 17 up
    params = tiny_params(seed=13)
    for layer in params.layers:
        layer.w_s.data[:] = 1e5 * np.eye(TINY.d_model, dtype=np.float32)
    _, trace = forward(params, [1, 2, 3], mode=GateMode.LEARNED, want_trace=True)
    assert any((lt.r.data == 1.0).any() for lt in trace.layers)
    trace.validate()


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
# deferred finiteness check
# --------------------------------------------------------------------------

FAULT_TOKENS = np.array([[3, 1, 4, 1, 5, 9, 2, 6]])


def _outcome(run):
    try:
        return run().data.tobytes()
    except nc.NumericError as err:
        return str(err)


def deferred_against_checked(params):
    """forward_batch, which checks only its logits and replays on a fault,
    against the forward body run with every op checked: the same NumericError
    message or the same logits bits, and the same records on a graph.
    Returns the checked outcome."""
    mode = params.config.gate_mode
    checked = _outcome(lambda: _forward_body(params, FAULT_TOKENS, mode, None, False, None)[0])
    assert _outcome(lambda: forward_batch(params, FAULT_TOKENS)) == checked
    g_deferred, g_checked = nc.GradGraph(), nc.GradGraph()
    assert _outcome(lambda: forward_batch(params, FAULT_TOKENS, graph=g_deferred)) == checked
    _outcome(lambda: _forward_body(params, FAULT_TOKENS, mode, None, False, g_checked)[0])
    assert g_deferred.n_ops == g_checked.n_ops
    return checked


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", [GateMode.LEARNED, GateMode.DISABLED])
def test_deferred_forward_faults_like_the_checked_body(mode, dtype):
    names = [name for name, _ in tiny_params().named_tensors()]
    raised = Counter()
    for name in names:
        for poison in ("nan", "inf", "-inf", "fill"):
            params = tiny_params(seed=30, dtype=dtype, gate_mode=mode)
            flat = dict(params.named_tensors())[name].data.reshape(-1)
            if poison == "fill":
                flat[:] = 3e38
            else:
                flat[flat.size // 2] = float(poison)
            outcome = deferred_against_checked(params)
            raised[outcome.split(" ")[0] if isinstance(outcome, str) else "finite"] += 1
    # most faults raise, from several ops; fills that stay finite do not
    assert raised["finite"] > 0 and len(raised) >= 4, raised


def test_a_bad_gate_input_replays_instead_of_raising(monkeypatch):
    # an inf in w_o makes the gate input a @ w_s non-finite; sigmoid's input
    # check fails in the deferred pass, and the replay names the matmul that
    # made a, as a checked run does
    bad_gate_inputs = []
    real = nc.sigmoid

    def sigmoid(x, graph=None):
        bad_gate_inputs.append(not np.isfinite(x.data).all())
        return real(x, graph)

    monkeypatch.setattr(nc, "sigmoid", sigmoid)
    params = tiny_params(seed=30)
    params.layers[0].w_o.data[2, 3] = np.inf
    assert deferred_against_checked(params) == "matmul produced a non-finite value"
    assert bad_gate_inputs == [True, True]  # one deferred pass per forward_batch call

    params = tiny_params(seed=30)
    params.tok_emb.data[:] = 3e38
    assert deferred_against_checked(params) == "layer_norm produced a non-finite value"


def test_a_key_the_softmax_drops_still_raises():
    # layer 0's key column 0 overflows to -inf at the last position only;
    # with positive queries that score is -inf in every row, which the
    # softmax turns into an exact-zero weight, so the logits alone stay finite
    params = tiny_params(seed=0)
    for table in (params.tok_emb, params.pos_emb):
        table.data[:, 0] = 0.0
        table.data[:, 1:] -= table.data[:, 1:].mean(axis=1, keepdims=True)
    params.pos_emb.data[7, 0] = 10.0
    layer = params.layers[0]
    layer.ln1_bias.data[0, 7] = 100.0
    layer.w_q.data[7, 0] = 1.0
    layer.w_k.data[0, 0] = -1.7e38
    assert deferred_against_checked(params) == "matmul produced a non-finite value"


# --------------------------------------------------------------------------
# blocked no-graph forward
# --------------------------------------------------------------------------


README_MODEL = ModelConfig(
    vocab_size=64, d_model=64, n_heads=4, n_layers=2, d_ff=256, max_seq_len=40
)


BUDGETS = (1, 1000, 4000, 64 * 1024, model.BLOCK_BUDGET, 1 << 30)  # 1 byte to 1 GiB


def test_single_sequence_forward_records_34_ops():
    # the README model, gate learned: token rows and the position rows, read
    # from their table by add_row, not gathered; 15 ops per layer; the final
    # norm and the unembedding. A request pays a fixed cost per op
    params = init_params(README_MODEL, nc.Rng(65))
    graph = nc.GradGraph()
    forward(params, nc.Rng(66).integers(0, README_MODEL.vocab_size, size=2), graph=graph)
    names = [vjp.__qualname__.split(".")[0] for _, _, vjp in graph._records]
    assert graph.n_ops == 34
    assert names[:3] == ["gather_rows", "add_row", "layer_norm"] and names.count("gather_rows") == 1


def _block_sizes(monkeypatch):
    """The sequences per trunk call and the rows per tail call, filled in
    as forwards run."""
    sizes, tails = [], []
    trunk, tail = model._trunk, model._tail

    def counted_trunk(params, tokens, *args):
        sizes.append(tokens.shape[0])
        return trunk(params, tokens, *args)

    def counted_tail(params, x, *args):
        tails.append(x.rows)
        return tail(params, x, *args)

    monkeypatch.setattr(model, "_trunk", counted_trunk)
    monkeypatch.setattr(model, "_tail", counted_tail)
    return sizes, tails


def _check_blocks(cfg, itemsize, n_seqs, n, rows, budget, sizes, tails):
    """The trunk blocks and tail runs of one blocked forward of n_seqs x n
    tokens keeping rows per sequence: each within the budget unless it is
    one sequence, as few tail runs as the budget allows, near-equal, and
    every tail run covering whole, near-equal trunk blocks."""
    wide = max(cfg.d_ff, cfg.vocab_size)
    assert sum(sizes) == n_seqs and sum(tails) == n_seqs * rows
    assert all(s == 1 or s * itemsize * n * max(wide, cfg.n_heads * n) <= budget for s in sizes)
    assert all(t == rows or t * itemsize * wide <= budget for t in tails)
    assert max(tails) - min(tails) <= rows
    assert len(tails) == -(-n_seqs // max(1, budget // (itemsize * rows * wide)))
    ends = list(np.cumsum(sizes))
    cuts = [0] + [ends.index(e) + 1 for e in np.cumsum(tails) // rows]  # raises unless whole
    for lo, hi in zip(cuts, cuts[1:]):
        assert max(sizes[lo:hi]) - min(sizes[lo:hi]) <= 1


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocked_forward_batch_is_bitwise_one_pass(monkeypatch, dtype):
    # uneven tails, and many one-token sequences, whose one-row blocks run
    # every matmul on one row; every budget against the whole batch run
    # once, checked, and each sequence run alone through forward
    sizes, tails = _block_sizes(monkeypatch)
    for cfg, mode in itertools.product((TINY, README_MODEL), GateMode):
        p = init_params(cfg, nc.Rng(50), dtype=dtype).with_gate_mode(mode)
        for n_seqs, n in ((7, 8), (33, 5), (40, 1), (5, 1), (2, 1), (1, 1)):
            tokens = nc.Rng(n_seqs * n).integers(0, cfg.vocab_size, size=(n_seqs, n))
            want = _forward_body(p, tokens, mode, None, False, None)[0].data
            for b in range(n_seqs):
                alone = forward(p, tokens[b])[0].data
                case = (cfg.d_model, mode, n_seqs, n, b)
                assert alone.tobytes() == want[b * n : (b + 1) * n].tobytes(), case
            for budget in BUDGETS:
                monkeypatch.setattr(model, "BLOCK_BUDGET", budget)
                sizes.clear()
                tails.clear()
                got = forward_batch(p, tokens).data
                assert got.tobytes() == want.tobytes(), (cfg.d_model, mode, n_seqs, n, budget)
                if n_seqs > 1:
                    _check_blocks(cfg, p.dtype.itemsize, n_seqs, n, n, budget, sizes, tails)
                    # every position is kept, so the tail runs per block
                    assert tails == [s * n for s in sizes]
                if budget == 1 and n_seqs > 3:
                    assert len(sizes) > 1
            # a recording forward runs whole, whatever the budget
            sizes.clear()
            tails.clear()
            forward_batch(p, tokens, graph=nc.GradGraph())
            assert sizes == [n_seqs] and tails == [n_seqs * n]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_recording_forward_is_bitwise_whatever_its_gelu_tiles(monkeypatch, dtype):
    # a train step's GELUs run in row tiles within BLOCK_BUDGET: one row per
    # tile, a few tiles, one tile; logits and every gradient the same bits
    p = init_params(README_MODEL, nc.Rng(52), dtype=dtype)
    tokens = nc.Rng(53).integers(0, README_MODEL.vocab_size, size=(8, 34))
    tiles = []
    real = nc._gelu_rows
    monkeypatch.setattr(nc, "_gelu_rows", lambda xd, *a: tiles.append(xd.shape[0]) or real(xd, *a))
    for positions in (None, np.arange(17, 33)):
        results = []
        for budget in (1, 64 * 1024, 1 << 30):
            monkeypatch.setattr(model, "BLOCK_BUDGET", budget)
            tiles.clear()
            graph = nc.GradGraph()
            logits = forward_batch(p, tokens, graph=graph, positions=positions)
            total, _, _ = loss(logits, np.zeros(logits.rows, dtype=np.int64),
                               np.ones(logits.rows, dtype=bool), p, 1e-3, graph)
            names, tensors = zip(*p.named_tensors())
            results.append([logits.data] + nc.backward(graph, total, tensors))
            rows = 8 * 34 + (8 * 34 if positions is None else 8 * 16)  # the two layers' GELUs
            assert sum(tiles) == rows
            if budget == 1:
                assert len(tiles) == rows
            elif budget == 1 << 30:
                assert len(tiles) == 2
            else:
                # input, output, derivative and two scratch tiles
                working_set = max(tiles) * README_MODEL.d_ff * p.dtype.itemsize * 5
                assert 2 < len(tiles) and working_set <= budget
        for got in results[:-1]:
            for name, a, b in zip(("logits",) + names, got, results[-1]):
                assert a.tobytes() == b.tobytes(), (positions, name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocked_forward_faults_like_the_checked_one_pass(monkeypatch, dtype):
    # six one-sequence trunk blocks, each with its own tail and, keeping one
    # position, all under one tail
    tokens = nc.Rng(51).integers(0, TINY.vocab_size, size=(6, 8))
    sizes, tails = _block_sizes(monkeypatch)
    one_seq = np.dtype(dtype).itemsize * 8 * max(TINY.d_ff, TINY.n_heads * 8)
    raised = Counter()
    for positions, budget, tail_rows in ((None, 1, [8] * 6), (np.array([7]), one_seq, [6])):
        monkeypatch.setattr(model, "BLOCK_BUDGET", budget)
        sizes.clear()
        tails.clear()
        forward_batch(tiny_params(seed=30, dtype=dtype), tokens, positions=positions)
        assert sizes == [1] * 6 and tails == tail_rows
        for name, _ in tiny_params().named_tensors():
            for poison in ("nan", "inf", "fill"):
                params = tiny_params(seed=30, dtype=dtype)
                flat = dict(params.named_tensors())[name].data.reshape(-1)
                if poison == "fill":
                    flat[:] = 3e38
                else:
                    flat[flat.size // 2] = float(poison)
                mode = params.config.gate_mode
                checked = _outcome(
                    lambda: _forward_body(params, tokens, mode, positions, False, None)[0]
                )
                got = _outcome(lambda: forward_batch(params, tokens, positions=positions))
                assert got == checked, (name, poison, positions)
                raised[checked.split(" ")[0] if isinstance(checked, str) else "finite"] += 1
    assert len(raised) >= 4, raised


@pytest.mark.parametrize("poison", ["nan", "fill"])
def test_a_blocked_forward_is_one_deferred_run(monkeypatch, poison):
    # six sequences in three tails of two, each tail's trunk one block; a
    # token only the last sequence uses is poisoned, so the deferred run
    # stops in the last tail's trunk at attention's key check, which cannot
    # wait, and the whole call replays checked, raising as one checked pass
    monkeypatch.setattr(model, "BLOCK_BUDGET", 2 * 4 * 8 * max(TINY.d_ff, TINY.n_heads * 8))
    sizes, tails = _block_sizes(monkeypatch)
    runs = []
    real = nc.run_deferred
    monkeypatch.setattr(nc, "run_deferred", lambda *args: runs.append(args[0]) or real(*args))
    bad = TINY.vocab_size - 1
    tokens = nc.Rng(54).integers(0, bad, size=(6, 8))
    tokens[5, 3] = bad
    params = tiny_params(seed=30)
    forward_batch(params, tokens)
    assert runs == [model._blocked_body] and sizes == [2, 2, 2] and tails == [16, 16, 16]
    params.tok_emb.data[bad] = np.nan if poison == "nan" else 3e38
    checked = _outcome(lambda: _forward_body(params, tokens, params.config.gate_mode, None, False,
                                             None)[0])
    assert checked.endswith("produced a non-finite value")
    runs.clear()
    tails.clear()
    assert _outcome(lambda: forward_batch(params, tokens)) == checked
    assert runs == [model._blocked_body] and tails == [16] * 4  # two tails, twice


# --------------------------------------------------------------------------
# positions-limited forward
# --------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_positions_limited_logits_are_the_full_forwards_rows(monkeypatch, dtype):
    cases = (
        (64, 40, [39], BUDGETS),  # a kv_recall eval chunk; 1 byte: 64 one-row blocks
        (64, 34, range(17, 33), BUDGETS),  # a copy chunk's scored columns
        (7, 40, [0, 9, 39], (1, 40_000, 100_000, 1 << 30)),  # uneven blocks
        (1, 40, [39], (1, 1 << 30)),  # one row: every last-layer product on one row
        (1, 40, [0], (1, 1 << 30)),
        (2, 40, [39], (1, 1 << 30)),
        (5, 1, [0], (1, 1 << 30)),  # one-token sequences
        (1, 1, [0], (1, 1 << 30)),
    )
    base = init_params(README_MODEL, nc.Rng(60), dtype=dtype)
    sizes, tails = _block_sizes(monkeypatch)
    for mode in GateMode:
        p = base.with_gate_mode(mode)
        for n_seqs, n, positions, budgets in cases:
            tokens = nc.Rng(n_seqs * n).integers(0, README_MODEL.vocab_size, size=(n_seqs, n))
            positions = np.array(positions)
            full = _forward_body(p, tokens, mode, None, False, None)[0].data
            want = full.reshape(n_seqs, n, -1)[:, positions].reshape(n_seqs * positions.size, -1)
            for budget in budgets:
                monkeypatch.setattr(model, "BLOCK_BUDGET", budget)
                sizes.clear()
                tails.clear()
                got = forward_batch(p, tokens, positions=positions).data
                assert got.tobytes() == want.tobytes(), (mode, n_seqs, n, positions, budget)
                if n_seqs > 1:
                    _check_blocks(README_MODEL, p.dtype.itemsize, n_seqs, n, positions.size,
                                  budget, sizes, tails)
                if budget == 1 and n_seqs > 3:
                    assert len(sizes) > 1
            got = forward_batch(p, tokens, graph=nc.GradGraph(), positions=positions).data
            assert got.tobytes() == want.tobytes(), (mode, n_seqs, n, positions, "graph")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_positions_run_the_tail_once_per_chunk(monkeypatch, dtype):
    # a kv_recall eval chunk keeps 64 rows, which fit the tail's budget from
    # 64 rows x 256 columns on, however many blocks its trunk runs in
    p = init_params(README_MODEL, nc.Rng(63), dtype=dtype)
    tokens = nc.Rng(64).integers(0, README_MODEL.vocab_size, size=(64, 40))
    sizes, tails = _block_sizes(monkeypatch)
    blocks = set()
    fit = 64 * 256 * p.dtype.itemsize
    for budget in (fit, 4 * fit, model.BLOCK_BUDGET, 1 << 30):
        monkeypatch.setattr(model, "BLOCK_BUDGET", budget)
        sizes.clear()
        tails.clear()
        forward_batch(p, tokens, positions=[39])
        assert tails == [64], budget
        blocks.add(len(sizes))
    assert max(blocks) > 4 and min(blocks) == 1, blocks


# The README model at other head widths (d_model = 4 heads x width): the
# largest max abs difference the positions path may show against the full
# forward's rows, as a fraction of the logits' max abs value, per dtype; 0 is
# bitwise. This OpenBLAS rounds the last layer's small batched score matmul
# by its row count from head width 32 on, in both dtypes, and p @ v at width
# 6 in float32; the other widths are bitwise, and a change there must fail.
HEAD_WIDTH_TOLERANCE = {
    6: {np.float32: 1e-6, np.float64: 0.0},
    8: {np.float32: 0.0, np.float64: 0.0},
    12: {np.float32: 0.0, np.float64: 0.0},
    16: {np.float32: 0.0, np.float64: 0.0},
    24: {np.float32: 0.0, np.float64: 0.0},
    32: {np.float32: 1e-6, np.float64: 1e-14},
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("head_width", sorted(HEAD_WIDTH_TOLERANCE))
def test_positions_limited_logits_across_head_widths(head_width, dtype):
    # against the same batch's forward without positions, which runs in the
    # same blocks, so only the positions path's row counts differ
    tol = HEAD_WIDTH_TOLERANCE[head_width][dtype]
    cfg = replace(README_MODEL, d_model=4 * head_width)
    base = init_params(cfg, nc.Rng(70), dtype=dtype)
    for mode in GateMode:
        p = base.with_gate_mode(mode)
        for n_seqs in (1, 2, 7, 64):
            tokens = nc.Rng(n_seqs).integers(0, cfg.vocab_size, size=(n_seqs, 40))
            full = forward_batch(p, tokens).data.reshape(n_seqs, 40, -1)
            for positions in ([0], [39], [38, 39], [0, 17, 39], range(24, 40)):
                positions = np.array(positions)
                got = forward_batch(p, tokens, positions=positions).data
                want = full[:, positions].reshape(got.shape)
                case = (mode, n_seqs, positions.tolist())
                if tol == 0.0:
                    assert got.tobytes() == want.tobytes(), case
                else:
                    assert np.abs(got - want).max() <= tol * np.abs(full).max(), case


def _recorded_rows(monkeypatch, params, tokens, positions=None):
    """forward_batch on a fresh graph: ([(op name, output rows)] in record
    order, the graph). Rows are read as each op records, as the tape keeps
    no tensor."""
    ops, record = [], nc.GradGraph.record

    def spy(graph, out, inputs, vjp):
        ops.append((vjp.__qualname__.split(".")[0], out.rows))
        record(graph, out, inputs, vjp)

    graph = nc.GradGraph()
    with monkeypatch.context() as patch:
        patch.setattr(nc.GradGraph, "record", spy)
        forward_batch(params, tokens, graph=graph, positions=positions)
    assert len(ops) == graph.n_ops
    return ops, graph


def test_positions_limited_forward_runs_the_last_layer_on_the_selected_rows(monkeypatch):
    params = tiny_params(seed=61)
    tokens = nc.Rng(62).integers(0, TINY.vocab_size, size=(4, 8))
    full = nc.GradGraph()
    forward_batch(params, tokens, graph=full)
    ops, limited = _recorded_rows(monkeypatch, params, tokens, positions=[2, 5, 7])
    # the last layer gathers 4 x 3 rows of its normed input for the queries,
    # projects keys and values at all 4 x 8 rows, attends from the 12 query
    # rows and gathers the same rows of the residual stream; everything
    # after runs on those rows alone
    first = [rows for _, rows in ops].index(12)
    assert [name for name, _ in ops[first:]] == [
        "gather_rows", "matmul", "matmul", "matmul", "multihead_attention",  # q, k, v
        "gather_rows", "matmul",  # residual rows, w_o
        "matmul", "sigmoid", "hadamard", "add",  # gate, residual
        "layer_norm", "matmul", "gelu", "matmul", "add",  # FFN, its biases inside the matmuls
        "layer_norm", "matmul",  # final norm, unembedding
    ]
    assert [rows for _, rows in ops[first:]] == [12, 12, 32, 32] + [12] * (len(ops) - first - 4)
    assert limited.n_ops == full.n_ops + 2
    # one position runs on its own row alone, to the logits
    tail, one = _recorded_rows(monkeypatch, params, tokens, positions=[5])
    assert tail[-3:] == [("add", 4), ("layer_norm", 4), ("matmul", 4)]
    assert one.n_ops == full.n_ops + 2
    # positions covering every position run the full forward
    every = nc.GradGraph()
    forward_batch(params, tokens, graph=every, positions=np.arange(8))
    assert every.n_ops == full.n_ops


def test_a_training_graph_keeps_only_what_its_vjps_read(monkeypatch):
    # the tape keeps no tensor: the FFN's pre-GELU input, which no vjp reads
    # (GELU keeps its derivative), is freed while the graph lives; the GELU
    # output, which the second FFN matmul's vjp reads, lives until backward
    # has run that vjp
    params = tiny_params(seed=63)
    tokens = nc.Rng(64).integers(0, TINY.vocab_size, size=(3, 8))
    refs, gelu = [], nc.gelu

    def spy(x, *args, **kwargs):
        out = gelu(x, *args, **kwargs)
        refs.append((weakref.ref(x.data), weakref.ref(out.data)))
        return out

    monkeypatch.setattr(nc, "gelu", spy)
    graph = nc.GradGraph()
    total, _, _ = loss(forward_batch(params, tokens, graph=graph, positions=[3, 7]),
                       tokens[:, [3, 7]].reshape(-1), np.ones(6, dtype=bool), params, 1e-4, graph)
    assert len(refs) == TINY.n_layers
    assert all(pre() is None and post() is not None for pre, post in refs)
    nc.backward(graph, total, [t for _, t in params.named_tensors()])
    assert all(post() is None for _, post in refs)


@pytest.mark.parametrize(
    "positions",
    [[], [3, 1], [2, 2], [-1, 3], [0, 8], [1.0, 2.0], [True, False], [[1, 2]], "1"],
)
def test_bad_positions_are_a_value_error(positions):
    tokens = np.zeros((2, 8), dtype=np.int64)
    with pytest.raises(ValueError, match="positions must"):
        forward_batch(tiny_params(), tokens, positions=np.asarray(positions))


def _positions_case(n_seqs, positions):
    """criterion 01's well-conditioned float64 model loss, scored at
    positions only, and the same loss through the full forward with the
    loss mask on those positions."""
    params = tiny_params(seed=15, dtype=np.float64)
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, TINY.vocab_size, size=(n_seqs, 6))
    targets = rng.integers(0, TINY.vocab_size, size=(n_seqs, len(positions)))
    scored = np.ones(targets.size, dtype=bool)

    def limited(graph):
        logits = forward_batch(params, tokens, graph=graph, positions=positions)
        return loss(logits, targets.reshape(-1), scored, params, 1e-3, graph=graph)[0]

    def masked(graph):
        full_targets = np.zeros(tokens.shape, dtype=np.int64)
        full_targets[:, positions] = targets
        mask = np.zeros(tokens.shape, dtype=bool)
        mask[:, positions] = True
        logits = forward_batch(params, tokens, graph=graph)
        return loss(logits, full_targets.reshape(-1), mask.reshape(-1), params, 1e-3,
                    graph=graph)[0]

    return params, limited, masked


def test_positions_limited_grad_check_float64():
    # criterion 01's per-tensor full-model check, through a recording
    # forward that gathers the last layer's rows
    params, limited, _ = _positions_case(2, [1, 5])
    worst = 0.0
    for _, tensor in params.named_tensors():
        err = min(
            nc.grad_check(lambda i, g: limited(g), [tensor], eps=eps)
            for eps in (1e-5, 1e-4, 1e-3)
        )
        worst = max(worst, err)
    assert worst < 1e-5, f"positions-limited 64-bit rel error {worst}"


@pytest.mark.parametrize("n_seqs, positions", [(2, [1, 5]), (1, [5])])
def test_positions_limited_gradients_are_the_masked_full_forwards(n_seqs, positions):
    # the gradient sums run in another order than the masked full forward's,
    # so they agree to rounding rather than bitwise; (1, [5]) runs the last
    # layer on one row
    params, limited, masked = _positions_case(n_seqs, positions)
    tensors = [t for _, t in params.named_tensors()]
    g_limited, g_masked = nc.GradGraph(), nc.GradGraph()
    loss_limited, loss_masked = limited(g_limited), masked(g_masked)
    assert loss_limited.item() == pytest.approx(loss_masked.item(), rel=1e-14)
    got = nc.backward(g_limited, loss_limited, tensors)
    want = nc.backward(g_masked, loss_masked, tensors)
    for (name, _), a, b in zip(params.named_tensors(), got, want):
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-16, err_msg=name)


# --------------------------------------------------------------------------
# gradients through the model
# --------------------------------------------------------------------------


def _model_loss(params, tokens, targets, mode, graph, lam=1e-3):
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
    grads = nc.backward(g, loss, params.synaptic())
    assert any(np.abs(grad).max() > 0 for grad in grads)

    g2 = nc.GradGraph()
    loss2 = _model_loss(params, tokens, targets, GateMode.DISABLED, g2, lam=0.0)
    for grad in nc.backward(g2, loss2, params.synaptic()):
        np.testing.assert_array_equal(grad, np.zeros((8, 8)))


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

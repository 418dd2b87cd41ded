"""Tensor op semantics, autodiff correctness, and determinism contracts."""

import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synres import numcore as nc
from synres.model import GateMode, ModelConfig, forward, forward_batch, init_params
from synres.train import loss


def rnd(rows, cols, seed=0, dtype=np.float64, scale=1.0):
    rng = nc.Rng(seed)
    return nc.Tensor2(rng.normal(rows, cols, scale, dtype=dtype))


def attention_softmax(scores, dtype=np.float32):
    """softmax(scores), read off the attention weights: with one head of
    width n, every query sqrt(n) e_0, key j scores[j] e_0 and v = I, output
    row i is row i's weights, and the last row sees every key."""
    s = np.asarray(scores, dtype=dtype)
    q, k = np.zeros((s.size, s.size), dtype=dtype), np.zeros((s.size, s.size), dtype=dtype)
    q[:, 0], k[:, 0] = math.sqrt(s.size), s
    out = nc.multihead_attention(nc.Tensor2(q), nc.Tensor2(k), nc.eye(s.size, dtype=dtype), n_heads=1)
    return out.data[-1]


def total(x, graph=None):
    """Sum of all elements as a 1x1 tensor, 1^T x 1."""
    left = nc.ones(1, x.rows, dtype=x.dtype)
    right = nc.ones(x.cols, 1, dtype=x.dtype)
    return nc.matmul(nc.matmul(left, x, graph), right, graph)


# --------------------------------------------------------------------------
# matmul
# --------------------------------------------------------------------------


def test_matmul_identity_cases():
    b = nc.tensor([[5.0], [6.0]])
    out = nc.matmul(nc.eye(2), b)
    np.testing.assert_array_equal(out.data, b.data)

    zero = nc.zeros(2, 3)
    anyb = nc.tensor([[1.0], [2.0], [3.0]])
    np.testing.assert_array_equal(nc.matmul(zero, anyb).data, np.zeros((2, 1)))


def test_matmul_hand_product():
    a = nc.tensor([[1.0, 2.0], [3.0, 4.0]])
    b = nc.tensor([[5.0], [6.0]])
    np.testing.assert_allclose(nc.matmul(a, b).data, [[17.0], [39.0]])


def test_matmul_identity_bitwise_both_sides():
    a = rnd(5, 7, seed=3, dtype=np.float32)
    out = nc.matmul(a, nc.eye(7))
    np.testing.assert_array_equal(out.data, a.data)
    out2 = nc.matmul(nc.eye(5), a)
    np.testing.assert_array_equal(out2.data, a.data)


def test_matmul_shape_mismatch():
    with pytest.raises(nc.DimensionError):
        nc.matmul(nc.zeros(2, 3), nc.zeros(4, 1))


def test_matmul_nonfinite_result_is_error():
    big = nc.Tensor2(np.full((2, 2), 1e300))
    with pytest.raises(nc.NumericError):
        nc.matmul(big, big)


# each op applied to a 4x3 input x whose first element is NaN
NONFINITE_INPUT_CASES = {
    "matmul": lambda x, g: nc.matmul(x, rnd(3, 2, seed=22), g),
    "add": lambda x, g: nc.add(x, rnd(4, 3, seed=22), g),
    "add_row": lambda x, g: nc.add_row(x, rnd(1, 3, seed=22), g),
    "scale": lambda x, g: nc.scale(x, 2.0, g),
    "hadamard": lambda x, g: nc.hadamard(x, rnd(4, 3, seed=22), g),
    "sigmoid": lambda x, g: nc.sigmoid(x, g),
    "gelu": lambda x, g: nc.gelu(x, g),
    "frobenius_sq": lambda x, g: nc.frobenius_sq(x, g),
    "layer_norm": lambda x, g: nc.layer_norm(
        x, nc.ones(1, 3, dtype=x.dtype), nc.zeros(1, 3, dtype=x.dtype), graph=g
    ),
    "gather_rows": lambda x, g: nc.gather_rows(x, np.array([1, 0]), g),
    "cross_entropy_logits": lambda x, g: nc.cross_entropy_logits(
        x, np.zeros(4, dtype=np.int64), np.ones(4, dtype=bool), g
    ),
    "multihead_attention": lambda x, g: nc.multihead_attention(x, x, x, n_heads=1, graph=g),
}


@pytest.mark.parametrize("op", sorted(NONFINITE_INPUT_CASES))
def test_nonfinite_input_is_an_error_naming_the_op(op):
    x = rnd(4, 3, seed=21)
    x.data[0, 0] = np.nan
    g = nc.GradGraph()
    with pytest.raises(nc.NumericError, match=rf"^{op}\b"):
        NONFINITE_INPUT_CASES[op](x, g)
    assert g.n_ops == 0


# --------------------------------------------------------------------------
# softmax / sigmoid
# --------------------------------------------------------------------------


def test_softmax_symmetry_and_stability():
    np.testing.assert_allclose(attention_softmax([0.0, 0.0]), [0.5, 0.5])
    out = attention_softmax([1000.0, 0.0])
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-6)


def test_softmax_scalar_oracle():
    out = attention_softmax([1.0, 2.0, 3.0], dtype=np.float64)
    np.testing.assert_allclose(out, [0.09003057, 0.24472847, 0.66524096], atol=1e-5)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
)
def test_softmax_rows_sum_to_one(rows, cols, seed):
    x = rnd(rows, cols, seed=seed, dtype=np.float32, scale=10.0)
    for scores in x.data:
        np.testing.assert_allclose(attention_softmax(scores).sum(), 1.0, atol=1e-6)


def test_sigmoid_oracles():
    np.testing.assert_allclose(nc.sigmoid(nc.tensor([[0.0]])).data, [[0.5]])
    out = nc.sigmoid(nc.tensor([[1e4]]))
    assert abs(out.item() - 1.0) < 1e-6 and np.isfinite(out.data).all()
    np.testing.assert_allclose(nc.sigmoid(nc.tensor([[2.0]], dtype=np.float64)).item(), 0.880797, atol=1e-6)
    # within 4 ulp of 1/(1+e^-x) in wider precision, on a grid through the
    # points where e^-x overflows (float32 near -88.7, float64 near -709.8)
    edges = np.array([88.0, 89.0, 103.0, 104.0, 709.0, 745.0, 1e4])
    grid = np.concatenate(
        [np.linspace(-120.0, 120.0, 4801), np.linspace(-800.0, 800.0, 3201), edges, -edges]
    )
    for dtype, wide in ((np.float32, np.float64), (np.float64, np.longdouble)):
        x = grid.astype(dtype)
        out = nc.sigmoid(nc.Tensor2(x[None, :])).data[0]
        assert out.dtype == dtype and ((out >= 0.0) & (out <= 1.0)).all()
        assert nc.sigmoid(nc.zeros(1, 1, dtype=dtype)).item() == 0.5
        with np.errstate(over="ignore"):
            want = 1.0 / (1.0 + np.exp(-x.astype(wide)))
        err = np.abs(out.astype(wide) - want)
        # below the smallest normal, e^-x has overflowed or soon will: the
        # output flushes toward 0 instead, as scipy's expit does
        tiny = np.finfo(dtype).tiny
        normal = want >= tiny
        assert (err[normal] <= 4 * np.spacing(want[normal].astype(dtype))).all()
        assert (err[~normal] < tiny).all()
        with np.errstate(over="ignore"):
            assert_bitwise(out, 1.0 / (1.0 + np.exp(-x)))  # the plain formula in dtype


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(3492)  # draws x = 40.1
def test_sigmoid_range_and_symmetry(seed):
    x = rnd(3, 4, seed=seed, dtype=np.float64, scale=8.0)
    out = nc.sigmoid(x)
    # in float64, 1 + e^-x rounds to 1 once e^-x < 2^-53 (x > 53 ln 2, about
    # 36.74), so the correctly rounded sigmoid is exactly 1.0 there
    assert ((out.data > 0.0) & (out.data <= 1.0)).all()
    assert (out.data[x.data < 36.7] < 1.0).all()
    assert (out.data[x.data > 36.8] == 1.0).all()
    neg = nc.sigmoid(nc.Tensor2(-x.data))
    np.testing.assert_allclose(neg.data, 1.0 - out.data, atol=1e-6)


# --------------------------------------------------------------------------
# hadamard / frobenius
# --------------------------------------------------------------------------


def test_hadamard_cases():
    x = nc.tensor([[2.0, -4.0]])
    np.testing.assert_array_equal(nc.hadamard(x, nc.ones(1, 2)).data, x.data)
    np.testing.assert_array_equal(nc.hadamard(nc.zeros(1, 2), x).data, np.zeros((1, 2)))
    np.testing.assert_allclose(nc.hadamard(x, nc.tensor([[0.5, 0.25]])).data, [[1.0, -1.0]])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_hadamard_commutative_bitwise(seed):
    x = rnd(4, 3, seed=seed, dtype=np.float32)
    y = rnd(4, 3, seed=seed + 1, dtype=np.float32)
    np.testing.assert_array_equal(nc.hadamard(x, y).data, nc.hadamard(y, x).data)


def test_frobenius_sq_cases():
    assert nc.frobenius_sq(nc.zeros(3, 2)).item() == 0.0
    assert nc.frobenius_sq(nc.eye(3)).item() == 3.0
    assert nc.frobenius_sq(nc.tensor([[1.0, 2.0], [3.0, 4.0]])).item() == 30.0


# --------------------------------------------------------------------------
# cross entropy
# --------------------------------------------------------------------------


def test_cross_entropy_near_deterministic():
    logits = nc.tensor([[10.0, -10.0]])
    out = nc.cross_entropy_logits(logits, [0], [True])
    assert out.item() < 1e-4


def test_cross_entropy_uniform_is_ln2():
    logits = nc.zeros(1, 2)
    out = nc.cross_entropy_logits(logits, [1], [True])
    np.testing.assert_allclose(out.item(), math.log(2.0), atol=1e-6)


def test_cross_entropy_two_position_oracle():
    # target probs 0.5 (logit ln3 vs three zeros) and 0.25 (uniform over 4)
    logits = nc.tensor(
        [[math.log(3.0), 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]], dtype=np.float64
    )
    out = nc.cross_entropy_logits(logits, [0, 2], [True, True])
    np.testing.assert_allclose(out.item(), 1.03972, atol=1e-5)


def test_cross_entropy_errors():
    logits = nc.zeros(2, 3)
    with pytest.raises(ValueError):
        nc.cross_entropy_logits(logits, [0, 3], [True, True])
    with pytest.raises(ValueError):
        nc.cross_entropy_logits(logits, [0, 1], [False, False])
    # masked-out rows may carry junk targets
    out = nc.cross_entropy_logits(logits, [0, 999], [True, False])
    np.testing.assert_allclose(out.item(), math.log(3.0), atol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_row_nll_bitwise_against_the_two_array_formula(dtype):
    # exp runs in place on the fresh x - m; the values are those of
    # np.exp(x - m) on a second array, bit for bit, including rows whose
    # other entries underflow to exactly 0
    for rows, cols, spread in ((2560, 256, 3.0), (64, 64, 40.0), (1, 5, 1e3), (7, 1, 1.0)):
        x = rnd(rows, cols, seed=rows + cols, dtype=dtype, scale=spread).data
        targets = nc.Rng(cols).integers(0, cols, size=rows)
        nll, e, z = nc._row_nll(x, targets)
        m = x.max(axis=1, keepdims=True)
        want_e = np.exp(x - m)
        want_z = want_e.sum(axis=1, keepdims=True)
        want_nll = m[:, 0] + np.log(want_z[:, 0]) - x[np.arange(rows), targets]
        for got, want in ((nll, want_nll), (e, want_e), (z, want_z)):
            assert got.dtype == dtype and got.tobytes() == want.tobytes(), (rows, cols)
    # dtype=float64 gives the bits of _row_nll(x.astype(float64)) without
    # that copy of x
    for rows, cols in ((2560, 261), (64, 64), (1024, 64), (7, 3)):
        for spread in (1.0, 30.0, 1e4):
            x = rnd(rows, cols, seed=rows + cols, dtype=dtype, scale=spread).data
            targets = nc.Rng(cols).integers(0, cols, size=rows)
            got = nc._row_nll(x, targets, dtype=np.float64)
            want = nc._row_nll(x.astype(np.float64), targets)
            for g, w in zip(got, want):
                assert g.dtype == np.float64 and g.tobytes() == w.tobytes(), (rows, cols, spread)


# --------------------------------------------------------------------------
# layer norm
# --------------------------------------------------------------------------


def test_layer_norm_cases():
    gain, bias = nc.ones(1, 2), nc.zeros(1, 2)
    out = nc.layer_norm(nc.tensor([[3.0, 3.0]]), gain, bias)
    np.testing.assert_allclose(out.data, [[0.0, 0.0]], atol=1e-6)

    zm = nc.tensor([[-1.0, 1.0]])
    np.testing.assert_allclose(nc.layer_norm(zm, gain, bias).data, zm.data, atol=1e-4)

    out = nc.layer_norm(nc.tensor([[1.0, 3.0]]), gain, bias)
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-3)


# --------------------------------------------------------------------------
# backward semantics
# --------------------------------------------------------------------------


def test_backward_frobenius_analytic():
    w = nc.tensor([[1.0, 2.0], [3.0, 4.0]], dtype=np.float64)
    g = nc.GradGraph()
    loss = nc.frobenius_sq(w, g)
    (grad,) = nc.backward(g, loss, [w])
    np.testing.assert_allclose(grad, [[2.0, 4.0], [6.0, 8.0]])


def test_backward_unreachable_leaf_zero():
    w = rnd(2, 2, seed=1)
    dead = rnd(3, 3, seed=2)
    g = nc.GradGraph()
    loss = nc.frobenius_sq(w, g)
    _, grad = nc.backward(g, loss, [w, dead])
    np.testing.assert_array_equal(grad, np.zeros((3, 3)))


def test_backward_hadamard_product_rule():
    x = rnd(2, 3, seed=5)
    y = rnd(2, 3, seed=6)
    g = nc.GradGraph()
    loss = total(nc.hadamard(x, y, g), g)
    gx, gy = nc.backward(g, loss, [x, y])
    np.testing.assert_allclose(gx, y.data)
    np.testing.assert_allclose(gy, x.data)


def test_backward_fanout_accumulates():
    # two branches through one leaf: loss = sum(x*a) + sum(x*b) -> grad = a + b
    x = rnd(2, 2, seed=7)
    a = rnd(2, 2, seed=8)
    b = rnd(2, 2, seed=9)
    g = nc.GradGraph()
    branch1 = total(nc.hadamard(x, a, g), g)
    branch2 = total(nc.hadamard(x, b, g), g)
    loss = nc.add(branch1, branch2, g)
    (grad,) = nc.backward(g, loss, [x])
    np.testing.assert_allclose(grad, a.data + b.data)


def test_backward_rejects_nonscalar_root():
    x = rnd(2, 2, seed=1)
    g = nc.GradGraph()
    y = nc.hadamard(x, x, g)
    with pytest.raises(nc.DimensionError):
        nc.backward(g, y, [x])


def test_backward_same_tensor_both_operands():
    x = nc.tensor([[3.0]], dtype=np.float64)
    g = nc.GradGraph()
    loss = total(nc.hadamard(x, x, g), g)
    (grad,) = nc.backward(g, loss, [x])
    np.testing.assert_allclose(grad, [[6.0]])


def test_backward_op_output_and_repeated_tensor():
    # loss = sum(x*c) + sum(h*h) with h = x + y: d/dh = 2h, d/dx = 2h + c,
    # d/dy = 2h. The x*c branch is recorded first, so the sweep reaches it
    # after the add has handed h's gradient on to x unchanged; x's gradient
    # then grows in place, which must not reach the gradient kept for h
    x = rnd(2, 2, seed=11)
    y = rnd(2, 2, seed=12)
    c = rnd(2, 2, seed=13)
    g = nc.GradGraph()
    side = total(nc.hadamard(x, c, g), g)
    h = nc.add(x, y, g)
    loss = nc.add(side, total(nc.hadamard(h, h, g), g), g)
    gh, gx, gh_again, gy = nc.backward(g, loss, [h, x, h, y])
    two_h = 2.0 * h.data
    np.testing.assert_allclose(gh, two_h, rtol=1e-12)
    assert gh_again is gh
    np.testing.assert_allclose(gx, two_h + c.data, rtol=1e-12)
    np.testing.assert_allclose(gy, two_h, rtol=1e-12)


def test_backward_overflow_is_inf_without_a_warning():
    # frobenius_sq's vjp, 2 * 3e38 * x, overflows float32; sgd_step rejects it by name
    x = nc.tensor([[1.0]])
    g = nc.GradGraph()
    loss = nc.scale(nc.frobenius_sq(x, g), 3e38, g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (grad,) = nc.backward(g, loss, [x])
    assert grad.dtype == np.float32 and np.isposinf(grad).all()


# --------------------------------------------------------------------------
# gradient checks (64-bit)
# --------------------------------------------------------------------------


def _scalarize(op):
    def fn(inputs, graph):
        return nc.frobenius_sq(op(inputs, graph), graph)

    return fn


def test_grad_check_matmul():
    fn = _scalarize(lambda ins, g: nc.matmul(ins[0], ins[1], g))
    err = nc.grad_check(fn, [rnd(3, 4, seed=1), rnd(4, 2, seed=2)], eps=1e-5)
    assert err < 1e-6


def test_grad_check_softmax():
    # one head with v = I: the attention output is its softmax weight matrix
    eye = nc.eye(5, dtype=np.float64)

    def fn(ins, g):
        out = nc.multihead_attention(ins[0], ins[1], eye, n_heads=1, graph=g)
        return nc.frobenius_sq(out, g)

    assert nc.grad_check(fn, [rnd(5, 5, seed=3), rnd(5, 5, seed=33)], eps=1e-5) < 1e-6


def test_grad_check_sigmoid():
    fn = _scalarize(lambda ins, g: nc.sigmoid(ins[0], g))
    assert nc.grad_check(fn, [rnd(3, 3, seed=4)], eps=1e-5) < 1e-6


def test_grad_check_hadamard():
    fn = _scalarize(lambda ins, g: nc.hadamard(ins[0], ins[1], g))
    assert nc.grad_check(fn, [rnd(3, 3, seed=5), rnd(3, 3, seed=6)], eps=1e-5) < 1e-6


def test_grad_check_frobenius_spec_eps():
    fn = lambda ins, g: nc.frobenius_sq(ins[0], g)
    assert nc.grad_check(fn, [rnd(3, 3, seed=7)], eps=1e-3) < 1e-6


def test_grad_check_cross_entropy():
    tgt = np.array([1, 3, 0, 6])
    msk = np.array([True, True, False, True])

    def fn(ins, g):
        return nc.cross_entropy_logits(ins[0], tgt, msk, g)

    assert nc.grad_check(fn, [rnd(4, 7, seed=8)], eps=1e-5) < 1e-5


def test_grad_check_layer_norm():
    def fn(ins, g):
        return nc.frobenius_sq(nc.layer_norm(ins[0], ins[1], ins[2], graph=g), g)

    inputs = [rnd(3, 6, seed=9), rnd(1, 6, seed=10), rnd(1, 6, seed=11)]
    assert nc.grad_check(fn, inputs, eps=1e-5) < 1e-5


def test_grad_check_gelu():
    fn = _scalarize(lambda ins, g: nc.gelu(ins[0], g))
    assert nc.grad_check(fn, [rnd(3, 4, seed=12)], eps=1e-5) < 1e-6


def test_grad_check_matmul_bias():
    # criterion 01's float64 tolerance, a one-row product included
    for rows in (3, 1):
        def fn(ins, g):
            return nc.frobenius_sq(nc.matmul(ins[0], ins[1], g, bias=ins[2]), g)

        inputs = [rnd(rows, 4, seed=70), rnd(4, 5, seed=71), rnd(1, 5, seed=72)]
        assert nc.grad_check(fn, inputs, eps=1e-5) < 1e-5


def test_grad_check_tiled_gelu():
    # 7 rows in tiles of at most 2, whose five [2 x 4] arrays fill the budget
    fn = _scalarize(lambda ins, g: nc.gelu(ins[0], g, tile_bytes=2 * 4 * 8 * 5))
    assert nc.grad_check(fn, [rnd(7, 4, seed=73)], eps=1e-5) < 1e-5


def test_grad_check_gather_add_row():
    idx = np.array([2, 0, 2, 1])

    def fn(ins, g):
        picked = nc.gather_rows(ins[0], idx, g)
        shifted = nc.add_row(picked, ins[1], g)
        both = nc.add(shifted, picked, g)  # picked fans out into both operands
        return nc.frobenius_sq(both, g)

    assert nc.grad_check(fn, [rnd(3, 4, seed=13), rnd(1, 4, seed=14)], eps=1e-5) < 1e-6


def test_grad_check_add_row_block():
    # a [2 x 4] block added to each 2-row block of a [6 x 4] input
    fn = _scalarize(lambda ins, g: nc.add_row(ins[0], ins[1], g))
    assert nc.grad_check(fn, [rnd(6, 4, seed=56), rnd(2, 4, seed=57)], eps=1e-5) < 1e-6


def test_grad_check_multihead_attention():
    def fn(ins, g):
        out = nc.multihead_attention(ins[0], ins[1], ins[2], n_heads=2, n_seqs=2, graph=g)
        return nc.frobenius_sq(out, g)

    inputs = [rnd(8, 4, seed=s) for s in (15, 16, 17)]
    assert nc.grad_check(fn, inputs, eps=1e-5) < 1e-5


# --------------------------------------------------------------------------
# attention op semantics
# --------------------------------------------------------------------------


def test_attention_causal_rows_independent_of_future():
    q = rnd(6, 4, seed=21, dtype=np.float32)
    k = rnd(6, 4, seed=22, dtype=np.float32)
    v = rnd(6, 4, seed=23, dtype=np.float32)
    base = nc.multihead_attention(q, k, v, n_heads=2).data.copy()

    k2, v2 = k.copy(), v.copy()
    k2.data[5] += 3.0
    v2.data[5] -= 2.0
    q2 = q.copy()
    q2.data[5] *= -1.0
    pert = nc.multihead_attention(q2, k2, v2, n_heads=2).data
    np.testing.assert_array_equal(base[:5], pert[:5])


def test_attention_probs_uniform_when_keys_equal():
    # one head with v = I: output row i is row i's weights, 1/(i+1) on each key it sees
    ones = nc.Tensor2(np.ones((4, 4), dtype=np.float32))
    out = nc.multihead_attention(ones, ones, nc.eye(4), n_heads=1)
    np.testing.assert_allclose(out.data, np.tril(np.ones((4, 4))) / np.arange(1, 5)[:, None], atol=1e-7)


def test_attention_single_position_weight_one():
    # a weight of exactly 1 on the one key returns its value row unrounded
    q, k, v = (rnd(1, 4, seed=s, dtype=np.float32) for s in (25, 26, 27))
    np.testing.assert_array_equal(nc.multihead_attention(q, k, v, n_heads=2).data, v.data)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_exact_when_visible_scores_span_more_than_1e9(dtype):
    # row 0 sees only its key, scored -2e9: under an additive -1e9 mask the
    # hidden score would be the row max, and the visible weight underflow to 0
    q, v = nc.tensor([[1.0], [1.0]], dtype=dtype), nc.tensor([[3.0], [5.0]], dtype=dtype)
    k = nc.tensor([[-2e9], [0.0]], dtype=dtype)
    np.testing.assert_array_equal(nc.multihead_attention(q, k, v, n_heads=1).data, [[3.0], [5.0]])


def test_attention_blocks_do_not_mix_sequences():
    # two stacked sequences must give the same result as two separate calls
    q, k, v = (rnd(8, 4, seed=s, dtype=np.float32) for s in (28, 29, 30))
    joint = nc.multihead_attention(q, k, v, n_heads=2, n_seqs=2).data
    for s in range(2):
        part = nc.multihead_attention(
            nc.Tensor2(q.data[s * 4 : (s + 1) * 4].copy()),
            nc.Tensor2(k.data[s * 4 : (s + 1) * 4].copy()),
            nc.Tensor2(v.data[s * 4 : (s + 1) * 4].copy()),
            n_heads=2,
        ).data
        np.testing.assert_array_equal(joint[s * 4 : (s + 1) * 4], part)


# --------------------------------------------------------------------------
# in-place kernels against their plain formulas, bitwise
# --------------------------------------------------------------------------
# The kernels run the operations below in place and in the same order; these
# references are the formulas they replaced. Shapes are training-sized so
# the vectorised loops run with tails.


def _vjp_of_last_op(run):
    """Forward output and the vjp the op recorded."""
    graph = nc.GradGraph()
    out = run(graph)
    return out, graph._records[-1][2]


def ref_gelu(xd, g):
    c, a = math.sqrt(2.0 / math.pi), 0.044715
    t = np.tanh(c * (xd + a * xd * xd * xd))
    du = c * (1.0 + 3.0 * a * xd * xd)
    return 0.5 * xd * (1.0 + t), g * (0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * du)


def ref_layer_norm(xd, gd, bd, eps, g):
    mean = xd.mean(axis=1, keepdims=True)
    centered = xd - mean
    var = (centered * centered).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    dxhat = g * gd
    dx = inv * (
        dxhat
        - dxhat.mean(axis=1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
    )
    out = xhat * gd + bd
    return out, (dx, (g * xhat).sum(axis=0, keepdims=True), g.sum(axis=0, keepdims=True))


REF_MASK_NEG = -1e9  # the reference's additive mask; exp(-1e9 - rowmax) underflows to 0


def ref_attention(q, k, v, n_heads, n_seqs, g, queries=None, p=None):
    """The causal attention formula for q at positions queries of each
    sequence (every position when None), and its vjp for the output gradient
    g, taken at the probabilities p when they are given."""
    total_rows, d = k.shape
    n, dh = total_rows // n_seqs, d // n_heads
    rows = np.arange(n) if queries is None else np.asarray(queries)
    inv = 1.0 / math.sqrt(dh)
    split = lambda t: t.reshape(n_seqs, -1, n_heads, dh).transpose(0, 2, 1, 3)
    merge = lambda t4: np.ascontiguousarray(t4.transpose(0, 2, 1, 3).reshape(-1, d))
    q4, k4, v4, g4 = split(q), split(k), split(v), split(g)
    if p is None:
        tril = np.tril(np.ones((n, n), dtype=q.dtype.type))[rows]
        scores = (q4 @ k4.transpose(0, 1, 3, 2)) * inv + (1.0 - tril) * REF_MASK_NEG
        e = np.exp(scores - scores.max(axis=3, keepdims=True)) * tril
        p = e / e.sum(axis=3, keepdims=True)
    dp = g4 @ v4.transpose(0, 1, 3, 2)
    ds = p * (dp - (p * dp).sum(axis=3, keepdims=True))
    grads = ((ds @ k4) * inv, (ds.transpose(0, 1, 3, 2) @ q4) * inv, p.transpose(0, 1, 3, 2) @ g4)
    return merge(p @ v4), p, tuple(merge(t4) for t4 in grads)


def assert_bitwise(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


DTYPES = [np.float32, np.float64]


@pytest.mark.parametrize("dtype", DTYPES)
def test_gelu_bitwise_against_formula(dtype):
    x = rnd(136, 259, seed=40, dtype=dtype, scale=3.0)
    g = rnd(136, 259, seed=41, dtype=dtype).data
    out, vjp = _vjp_of_last_op(lambda graph: nc.gelu(x, graph))
    ref_out, ref_dx = ref_gelu(x.data, g)
    assert_bitwise(out.data, ref_out)
    assert_bitwise(nc.gelu(x).data, ref_out)
    (dx,) = vjp(g)
    assert_bitwise(dx, ref_dx)


@pytest.mark.parametrize("dtype", DTYPES)
def test_gelu_tiles_bitwise_against_formula(monkeypatch, dtype):
    # tiles of at most t rows: row counts around one and two tiles, with and
    # without a graph, each run in the expected number of tiles; a tile's
    # working set is four [t x cols] arrays, and five with the derivative
    t, cols = 8, 259
    tiles = []
    real = nc._gelu_rows
    monkeypatch.setattr(nc, "_gelu_rows", lambda xd, *a: tiles.append(xd.shape[0]) or real(xd, *a))
    for rows in (1, t - 1, t, t + 1, 2 * t + 3):
        x = rnd(rows, cols, seed=rows, dtype=dtype, scale=3.0)
        g = rnd(rows, cols, seed=rows + 100, dtype=dtype).data
        ref_out, ref_dx = ref_gelu(x.data, g)
        for graph in (nc.GradGraph(), None):
            tile_bytes = t * cols * np.dtype(dtype).itemsize * (4 if graph is None else 5)
            tiles.clear()
            out = nc.gelu(x, graph, tile_bytes=tile_bytes)
            assert sum(tiles) == rows and max(tiles) <= t and len(tiles) == -(-rows // t)
            assert_bitwise(out.data, ref_out)
            if graph is not None:
                (dx,) = graph._records[-1][2](g)
                assert_bitwise(dx, ref_dx)


@pytest.mark.parametrize("dtype", DTYPES)
def test_matmul_bias_bitwise_against_add_row(dtype):
    # one record over (a, b, bias) in place of matmul then add_row, a
    # one-row product included
    b, bias = rnd(64, 256, seed=74, dtype=dtype), rnd(1, 256, seed=75, dtype=dtype)
    for rows in (96, 1):
        a = rnd(rows, 64, seed=76, dtype=dtype)
        g = rnd(rows, 256, seed=77, dtype=dtype).data
        fused, apart = nc.GradGraph(), nc.GradGraph()
        out = nc.matmul(a, b, fused, bias=bias)
        ref = nc.add_row(nc.matmul(a, b, apart), bias, apart)
        assert_bitwise(out.data, ref.data)
        assert_bitwise(nc.matmul(a, b, bias=bias).data, ref.data)
        assert fused.n_ops == 1 and fused._records[0][1] == (a, b, bias)
        da, db, dbias = fused._records[0][2](g)
        g_prod, ref_dbias = apart._records[1][2](g)
        ref_da, ref_db = apart._records[0][2](g_prod)
        for got, want in ((da, ref_da), (db, ref_db), (dbias, ref_dbias)):
            assert_bitwise(got, want)


def test_matmul_bias_must_be_one_row_of_the_product_width():
    for bias in (nc.zeros(1, 3), nc.zeros(2, 4), nc.zeros(4, 1)):
        with pytest.raises(nc.DimensionError, match="bias"):
            nc.matmul(nc.zeros(2, 3), nc.zeros(3, 4), bias=bias)


@pytest.mark.parametrize("dtype", DTYPES)
def test_row_mean_bitwise_equal_to_ndarray_mean(dtype):
    # one rounding in dtype against mean's float64 divide rounded to dtype;
    # rows scaled 1e-30 .. 1e30, signed and all positive
    scales = 10.0 ** np.arange(-30, 31, 5)[:, None]
    rng = np.random.default_rng(60)
    for width in (*range(1, 301), 4097):
        x = rng.standard_normal((scales.size, width)) * scales
        for a in (x.astype(dtype), np.abs(x).astype(dtype)):
            assert_bitwise(nc._row_mean(a), a.mean(axis=1, keepdims=True))


@pytest.mark.parametrize("dtype", DTYPES)
def test_layer_norm_bitwise_against_formula(dtype):
    # a training shape, then request shapes: one row, and one 40-token sequence
    for rows, cols in ((136, 67), (1, 64), (40, 64)):
        x = rnd(rows, cols, seed=42, dtype=dtype, scale=2.0)
        gain, bias = rnd(1, cols, seed=43, dtype=dtype), rnd(1, cols, seed=44, dtype=dtype)
        g = rnd(rows, cols, seed=45, dtype=dtype).data
        out, vjp = _vjp_of_last_op(lambda graph: nc.layer_norm(x, gain, bias, graph=graph))
        ref_out, ref_grads = ref_layer_norm(x.data, gain.data, bias.data, 1e-5, g)
        assert_bitwise(out.data, ref_out)
        assert_bitwise(nc.layer_norm(x, gain, bias).data, ref_out)
        for got, want in zip(vjp(g), ref_grads):
            assert_bitwise(got, want)


@pytest.mark.parametrize("every_query", [True, False])
@pytest.mark.parametrize("dtype", DTYPES)
def test_attention_bitwise_against_formula(dtype, every_query):
    # the kernel against the formula's -1e9 mask and hard zero: the two give
    # the same bits wherever a row's visible scores span less than 1e9; key
    # counts on both sides of the softmax sum's 8-wide and 128-item steps
    for n in (34, 1, 7, 8, 9, 130):
        _attention_against_formula(dtype, every_query, n)


def _attention_against_formula(dtype, every_query, n):
    n_seqs, n_heads = 3, 4
    q, k, v = (rnd(n_seqs * n, 64, seed=s, dtype=dtype, scale=2.0) for s in (46, 47, 48))
    g = rnd(n_seqs * n, 64, seed=49, dtype=dtype).data
    ref_out, ref_p, ref_grads = ref_attention(q.data, k.data, v.data, n_heads, n_seqs, g)
    if every_query:
        out, vjp = _vjp_of_last_op(lambda graph: nc.multihead_attention(
            q, k, v, n_heads, n_seqs=n_seqs, graph=graph
        ))
        assert_bitwise(out.data, ref_out)
        assert_bitwise(nc.multihead_attention(q, k, v, n_heads, n_seqs=n_seqs).data, ref_out)
        for got, want in zip(vjp(g), ref_grads):
            assert_bitwise(got, want)
        return

    # query subsets, one row included: the full formula's rows, as no
    # forward product runs on one row or column, and the formula's vjp at
    # those rows of p
    subsets = ([n - 1], [0, n - 1], list(range(9, 21)), list(range(n))) if n == 34 else ([n - 1],)
    for queries in subsets:
        rows = (np.arange(n_seqs)[:, None] * n + queries).reshape(-1)
        qs, gs = nc.Tensor2(q.data[rows]), g[rows]
        out, vjp = _vjp_of_last_op(lambda graph: nc.multihead_attention(
            qs, k, v, n_heads, n_seqs=n_seqs, graph=graph, queries=queries
        ))
        assert_bitwise(out.data, ref_out[rows])
        p = np.ascontiguousarray(ref_p[:, :, queries])
        want = ref_attention(qs.data, k.data, v.data, n_heads, n_seqs, gs, queries, p)
        for got, ref in zip(vjp(gs), want[2]):
            assert_bitwise(got, ref)


@pytest.mark.parametrize("dtype", DTYPES)
def test_sum_lead_bitwise_against_numpy_row_sum(dtype):
    # numpy's order for one contiguous row (8 accumulators, the halving
    # above 128 items) over every width to 300, at row counts on both sides
    # of the transposed-copy branch; signed zeros sum to +0.0. A numpy
    # release that changes its pairwise order fails here first.
    rng = np.random.default_rng(64)
    for width in range(1, 301):
        for rows in (1, 200, 256, 257, 720):
            x = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-6, 7, (rows, width))
            x[0], x[-1, ::2] = -0.0, 0.0
            x[-1, 1::2] = -0.0
            x = x.astype(dtype)
            assert_bitwise(nc._sum_lead(x.T.copy()), np.add.reduce(x, axis=-1))


@pytest.mark.parametrize("queries", [[5], [0, 3], [2, 3, 4]])
def test_grad_check_query_subset_attention(queries):
    # criterion 01's float64 tolerance, through q at the query rows alone
    def fn(ins, g):
        out = nc.multihead_attention(
            ins[0], ins[1], ins[2], n_heads=2, n_seqs=2, graph=g, queries=queries
        )
        return nc.frobenius_sq(out, g)

    q = rnd(2 * len(queries), 4, seed=58)
    inputs = [q] + [rnd(12, 4, seed=s) for s in (59, 60)]
    assert nc.grad_check(fn, inputs, eps=1e-5) < 1e-5


@pytest.mark.parametrize("q_rows, queries", [(6, [1, 4]), (4, [0, 1, 2]), (12, [5]), (4, None)])
def test_query_rows_must_be_sequences_times_queries(q_rows, queries):
    k = rnd(12, 4, seed=61)
    with pytest.raises(nc.DimensionError, match="q has"):
        nc.multihead_attention(rnd(q_rows, 4, seed=62), k, k, n_heads=2, n_seqs=2, queries=queries)


@pytest.mark.parametrize("dtype", DTYPES)
def test_add_row_bitwise_against_broadcast(dtype):
    x, row = rnd(96, 64, seed=50, dtype=dtype), rnd(1, 64, seed=51, dtype=dtype)
    g = rnd(96, 64, seed=52, dtype=dtype).data
    out, vjp = _vjp_of_last_op(lambda graph: nc.add_row(x, row, graph))
    assert_bitwise(out.data, x.data + row.data)
    dx, drow = vjp(g)
    assert dx is g
    assert_bitwise(drow, g.sum(axis=0, keepdims=True))


@pytest.mark.parametrize("dtype", DTYPES)
def test_tiled_position_gradient_matches_add_at(dtype):
    # S sequences of n positions: adding the n gathered rows to each sequence
    # must match gathering np.tile(arange(n), S) and scattering with np.add.at
    n_seqs, n, d = 32, 34, 64
    table = rnd(40, d, seed=53, dtype=dtype)
    x = rnd(n_seqs * n, d, seed=54, dtype=dtype)
    g = rnd(n_seqs * n, d, seed=55, dtype=dtype).data
    graph = nc.GradGraph()
    out = nc.add_row(x, nc.gather_rows(table, np.arange(n), graph), graph)
    _, drow = graph._records[-1][2](g)
    (dtable,) = graph._records[0][2](drow)
    pos = np.tile(np.arange(n), n_seqs)
    assert_bitwise(out.data, x.data + table.data[pos])
    want = np.zeros_like(table.data)
    np.add.at(want, pos, g)
    assert_bitwise(dtable, want)


@pytest.mark.parametrize("dtype", DTYPES)
def test_gather_rows_vjp_bitwise_against_row_scatter(dtype):
    # the flat element scatter against np.add.at over whole rows, with
    # repeated indices, and with an output gradient in Fortran order
    table = rnd(64, 48, seed=56, dtype=dtype)
    idx = nc.Rng(57).integers(0, 64, size=1088)
    g = rnd(1088, 48, seed=58, dtype=dtype).data
    out, vjp = _vjp_of_last_op(lambda graph: nc.gather_rows(table, idx, graph))
    assert_bitwise(out.data, table.data[idx])
    want = np.zeros_like(table.data)
    np.add.at(want, idx, g)
    for grad in (g, np.asfortranarray(g)):
        (got,) = vjp(grad)
        assert_bitwise(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
def test_gather_rows_vjp_bitwise_against_add_at_on_each_path(dtype):
    # strictly increasing indices (kept rows, position rows) assign; any
    # repeat scatters. -0.0 gradients and Fortran order on both paths
    table = rnd(1088, 64, seed=59, dtype=dtype)
    increasing = np.flatnonzero(nc.Rng(60).uniform(size=1088) < 0.5)
    for idx in (increasing, np.arange(34), np.array([7]), np.array([3, 5, 5, 9]), np.array([9, 3])):
        g = rnd(idx.size, 64, seed=idx.size, dtype=dtype).data
        g[:, ::3] = -0.0
        _, vjp = _vjp_of_last_op(lambda graph: nc.gather_rows(table, idx, graph))
        want = np.zeros_like(table.data)
        np.add.at(want, idx, g)
        assert not np.signbit(want[idx[0], 0])
        for grad in (g, np.asfortranarray(g)):
            (got,) = vjp(grad)
            assert_bitwise(got, want)


def test_add_row_block_must_tile_rows():
    with pytest.raises(nc.DimensionError):
        nc.add_row(nc.zeros(6, 4), nc.zeros(4, 4))
    with pytest.raises(nc.DimensionError):
        nc.add_row(nc.zeros(6, 4), nc.zeros(3, 5))


# --------------------------------------------------------------------------
# rng / randn
# --------------------------------------------------------------------------


def test_randn_sigma_zero_and_negative():
    out = nc.randn(3, 3, 0.0, nc.Rng(1))
    np.testing.assert_array_equal(out.data, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        nc.randn(2, 2, -1.0, nc.Rng(1))


def test_randn_determinism():
    a = nc.randn(4, 5, 1.0, nc.Rng(99))
    b = nc.randn(4, 5, 1.0, nc.Rng(99))
    np.testing.assert_array_equal(a.data, b.data)


def test_randn_moments():
    draws = nc.randn(1000, 100, 1.0, nc.Rng(7), dtype=np.float64).data
    assert abs(draws.mean()) < 0.02
    assert 0.98 < draws.std() < 1.02


def test_rng_split_streams_differ_and_replay():
    r1 = nc.Rng(3)
    a = r1.split().normal(2, 2, 1.0)
    b = r1.split().normal(2, 2, 1.0)
    assert not np.array_equal(a, b)
    r2 = nc.Rng(3)
    np.testing.assert_array_equal(a, r2.split().normal(2, 2, 1.0))


def test_ops_deterministic_replay():
    x = rnd(16, 16, seed=31, dtype=np.float32)
    y = rnd(16, 16, seed=32, dtype=np.float32)
    first = nc.matmul(nc.multihead_attention(x, x, x, n_heads=4), nc.gelu(y)).data
    second = nc.matmul(nc.multihead_attention(x, x, x, n_heads=4), nc.gelu(y)).data
    np.testing.assert_array_equal(first, second)


# --------------------------------------------------------------------------
# deferred checks: a forward leaves direct ops checked and quiet
# --------------------------------------------------------------------------

TINY = ModelConfig(vocab_size=11, d_model=8, n_heads=2, n_layers=2, d_ff=16, max_seq_len=8)


def assert_direct_op_checked_and_quiet():
    big = nc.Tensor2(np.full((2, 2), 1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(nc.NumericError, match="^matmul"):
            nc.matmul(big, big)


def test_direct_ops_stay_checked_after_a_forward_that_raised():
    params = init_params(TINY, nc.Rng(0))
    poisoned = params.copy()
    poisoned.unembed.data[0, 0] = np.nan
    with pytest.raises(nc.NumericError):
        forward(poisoned, [1, 2, 3])
    assert_direct_op_checked_and_quiet()
    with pytest.raises(ValueError):
        forward(params, [1, 99])
    assert_direct_op_checked_and_quiet()


def test_a_forward_on_another_thread_leaves_direct_ops_checked(monkeypatch):
    params = init_params(TINY, nc.Rng(0))
    entered, release, results = threading.Event(), threading.Event(), []
    real_gelu = nc.gelu

    def blocking_gelu(*args, **kwargs):
        entered.set()
        release.wait(timeout=10)
        return real_gelu(*args, **kwargs)

    monkeypatch.setattr(nc, "gelu", blocking_gelu)
    worker = threading.Thread(target=lambda: results.append(forward(params, [1, 2, 3])[0]))
    worker.start()
    try:
        assert entered.wait(timeout=10)
        assert_direct_op_checked_and_quiet()
    finally:
        release.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert results and np.isfinite(results[0].data).all()


def test_causal_masks_are_cached_read_only():
    x = rnd(5, 4, seed=40, dtype=np.float32)
    nc.multihead_attention(x, x, x, n_heads=2)
    neg = nc._causal_mask(5, x.dtype)
    assert nc._causal_mask(5, np.dtype(np.float32)) is neg
    assert neg.dtype == np.float32 and not neg.flags.writeable
    # key-major, [key x query]: a key after its query is masked
    np.testing.assert_array_equal(neg, np.where(np.tri(5, dtype=bool).T, 0.0, -np.inf))
    with pytest.raises(ValueError):
        neg[1, 0] = 0.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", list(GateMode))
def test_every_wrapped_op_output_is_a_valid_tensor2_array(monkeypatch, mode, dtype):
    # _result wraps op outputs without Tensor2's validation; the count is of
    # the ops made on the graph, as a gate that does not run computes its
    # regularizer off it
    wrapped = []
    real = nc._result

    def checking_result(op, out_data, graph, inputs, vjp):
        assert out_data.ndim == 2 and min(out_data.shape) >= 1, (op, out_data.shape)
        assert out_data.flags.c_contiguous, op
        assert out_data.dtype == dtype, (op, out_data.dtype)  # float32 or float64
        if graph is not None:
            wrapped.append(op)
        return real(op, out_data, graph, inputs, vjp)

    monkeypatch.setattr(nc, "_result", checking_result)
    params = init_params(TINY, nc.Rng(1), dtype=dtype).with_gate_mode(mode)
    tokens = np.array([[1, 2, 3, 4], [5, 6, 7, 8]])
    graph = nc.GradGraph()
    logits = forward_batch(params, tokens, graph=graph)
    loss(logits, tokens.reshape(-1), np.ones(8, dtype=bool), params, 1e-3, graph)
    assert len(wrapped) == graph.n_ops

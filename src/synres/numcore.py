"""Dense 2-D tensors with reverse-mode autodiff on an explicit op tape.

Everything downstream (attention, gating, losses, training) is composed from
the operations here. Ops are pure: each computes a fresh output and returns
through _result, which raises NumericError naming the op on a non-finite
output, wraps it in a Tensor2 and, given a GradGraph, records the op's vjp.
A kernel may build that output in place, in row tiles (gelu) or through a
strided view (attention's heads); each runs the plain formula's float ops in
their order, so its bits are the formula's, which the tests keep.
Under run_deferred a whole forward enters errstate once and checks only its
result, replaying bitwise with every op checked to name the op that failed.
backward(graph, loss, wrt) returns the gradients of wrt, its sweep also under
one errstate; tensors hold none. The tape keeps no tensor, so an activation
lives only while model code or a vjp not yet swept holds it.
float32 is the training precision; float64 is used for gradient verification.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
import threading
from typing import Callable, Sequence

import numpy as np

LN_EPS = 1e-5  # layer_norm's variance floor


class DimensionError(ValueError):
    """Operand shapes violate an op's contract."""


class NumericError(ArithmeticError):
    """A non-finite value (NaN/Inf, e.g. overflow) escaped an operation."""


class Tensor2:
    """A rows x cols matrix of float32 or float64. _key, its name on a tape,
    is set when a graph first records it or backward is handed it; no copy
    carries it."""

    __slots__ = ("data", "_key")

    def __init__(self, data: np.ndarray):
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise DimensionError(f"Tensor2 requires a 2-D shape, got {data.shape}")
        if data.dtype not in (np.float32, np.float64):
            raise DimensionError(f"Tensor2 holds float32/float64, got {data.dtype}")
        self.data = np.ascontiguousarray(data)
        self._key = None

    def __reduce__(self):  # copy, deepcopy and pickle make a tensor with no key
        return Tensor2, (self.data,)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.shape != (1, 1):
            raise DimensionError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.data[0, 0])

    def copy(self) -> "Tensor2":
        return Tensor2(self.data.copy())

    def __repr__(self) -> str:
        return f"Tensor2(shape={self.shape}, dtype={self.data.dtype})"


def tensor(values, dtype=np.float32) -> Tensor2:
    """Build a Tensor2 from nested lists or a 2-D array."""
    return Tensor2(np.asarray(values, dtype=dtype))


def zeros(rows: int, cols: int, dtype=np.float32) -> Tensor2:
    return Tensor2(np.zeros((rows, cols), dtype=dtype))


def ones(rows: int, cols: int, dtype=np.float32) -> Tensor2:
    return Tensor2(np.ones((rows, cols), dtype=dtype))


def eye(n: int, dtype=np.float32) -> Tensor2:
    return Tensor2(np.eye(n, dtype=dtype))


def _check_finite(out: np.ndarray, op: str) -> None:
    if not np.isfinite(out).all():
        raise NumericError(f"{op} produced a non-finite value")


# True, in this thread's context only, while run_deferred runs its body
_deferred = contextvars.ContextVar("deferred", default=False)


def _quiet(fn):
    """Overflow surfaces as NumericError, not as a numpy warning; run_deferred quiets once."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if _deferred.get():
            return fn(*args, **kwargs)
        with np.errstate(all="ignore"):
            return fn(*args, **kwargs)

    return wrapper


class Rng:
    """Deterministic counter-based random stream (Philox).

    The same seed yields a bit-identical stream across runs and platforms at
    a fixed numpy version. split() derives an independent child stream; the
    split order is part of the reproducibility contract.
    """

    def __init__(self, seed: int, _seq: np.random.SeedSequence | None = None):
        self.seed = int(seed)
        self._seq = _seq if _seq is not None else np.random.SeedSequence(self.seed)
        self._gen = np.random.Generator(np.random.Philox(self._seq))

    def split(self) -> "Rng":
        return Rng(self.seed, _seq=self._seq.spawn(1)[0])

    def normal(self, rows: int, cols: int, sigma: float, dtype=np.float32) -> np.ndarray:
        # draw in float64 then cast, so f32/f64 builds share one stream
        draws = self._gen.normal(0.0, 1.0, size=(rows, cols)) * sigma
        return draws.astype(dtype)

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def uniform(self, size=None) -> np.ndarray:
        return self._gen.random(size=size)


def randn(rows: int, cols: int, sigma: float, rng: Rng, dtype=np.float32) -> Tensor2:
    """i.i.d. N(0, sigma^2) draws from the deterministic stream."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    return Tensor2(rng.normal(rows, cols, sigma, dtype=dtype))


# --------------------------------------------------------------------------
# op tape
# --------------------------------------------------------------------------

# vjp(g_out) -> per-input gradients (None for non-differentiable inputs)
_Vjp = Callable[[np.ndarray], tuple]


# tape keys: unique for the life of the process, where an id() is reused
# by a new object once the old one dies
_keys = itertools.count(1)
_key_lock = threading.Lock()  # two graphs may key one shared parameter at once


def _key(t: Tensor2) -> int:
    k = t._key
    if k is None:
        with _key_lock:
            k = t._key
            if k is None:
                k = t._key = next(_keys)
    return k


class GradGraph:
    """Ordered record of executed ops, swept once in reverse for the chain rule.

    Execution order is a topological order by construction. A record keeps
    its output's and inputs' keys, not the tensors, and the op's vjp, which
    backward drops once it has run. The graph holds no gradients; backward
    returns them. Single-writer: one graph must not be mutated from two
    threads.
    """

    def __init__(self):
        # [output key, input keys, vjp or, once the sweep has passed it, None]
        self._records: list[list] = []
        self._swept = False

    def record(self, out: Tensor2, inputs: tuple[Tensor2, ...], vjp: _Vjp) -> None:
        self._records.append([_key(out), [_key(t) for t in inputs], vjp])

    @property
    def n_ops(self) -> int:  # every op recorded, swept or not
        return len(self._records)


def backward(graph: GradGraph, loss: Tensor2, wrt: Sequence[Tensor2]) -> list[np.ndarray]:
    """Reverse sweep from a scalar loss; returns d loss / d t for each t in wrt.

    Gradients accumulate additively across fan-out, in reverse tape order. A
    tensor with no path to the loss gets an exact-zero gradient. A tensor
    listed twice gets the same array twice. The sweep runs under one
    errstate, so an overflowing gradient is returned as inf without a numpy
    warning; the caller checks it (sgd_step names the tensor). Each record's
    vjp is dropped as the sweep passes it, so a graph is swept once: a
    second backward on it raises ValueError.
    """
    if loss.shape != (1, 1):
        raise DimensionError(f"backward root must be a 1x1 scalar, got {loss.shape}")
    if graph._swept:
        raise ValueError("backward: this graph was already swept, and a graph is swept once")
    graph._swept = True
    keys = [_key(t) for t in wrt]
    wanted = set(keys)
    grads: dict[int, np.ndarray] = {_key(loss): np.ones((1, 1), dtype=loss.dtype)}
    with np.errstate(all="ignore"):
        for rec in reversed(graph._records):
            out, inputs, vjp = rec
            rec[2] = None  # what only this vjp held dies once it has run
            # a gradient is dropped once its vjp has used it, unless asked for
            g = grads.pop(out, None)
            if g is None:
                continue
            if out in wanted:
                # kept apart: a vjp may hand g on as an input's gradient, and
                # that one accumulates in place below
                grads[out] = g.copy()
            # in-place accumulation below relies on vjps never returning one
            # array object for two input slots
            for k, ig in zip(inputs, vjp(g)):
                if ig is None:
                    continue
                acc = grads.get(k)
                if acc is None:
                    grads[k] = ig
                else:
                    np.add(acc, ig, out=acc)
    return [grads[k] if k in grads else np.zeros_like(t.data) for k, t in zip(keys, wrt)]


def _result(op: str | None, out_data: np.ndarray, graph: GradGraph | None, inputs, vjp) -> Tensor2:
    """The ending every op returns through: reject a non-finite output (unless
    deferred, or op is None), wrap the fresh 2-D C-contiguous float array with
    no second validation, and record vjp on the graph when one is given."""
    if op is not None and not _deferred.get():
        _check_finite(out_data, op)
    out = Tensor2.__new__(Tensor2)
    out.data = out_data
    out._key = None
    if graph is not None:
        graph.record(out, inputs, vjp)
    return out


def run_deferred(body, graph: GradGraph | None, *args):
    """body(*args, graph) under one errstate, its ops unchecked but for two
    checks that cannot wait (sigmoid's input, as 1/(1+e^-x) maps +-inf to 1
    and 0; attention's keys, as the softmax drops a -inf score). If one fails
    or result[0] is non-finite, body's records are dropped and it runs again,
    bitwise the same, with every op checked, raising as an undeferred call."""
    mark = graph.n_ops if graph is not None else 0
    token = _deferred.set(True)
    try:
        with np.errstate(all="ignore"):
            result = body(*args, graph)
        if np.isfinite(result[0].data).all():
            return result
    except NumericError:
        pass
    finally:
        _deferred.reset(token)
    if graph is not None:
        del graph._records[mark:]
    return body(*args, graph)


# --------------------------------------------------------------------------
# differentiable operations
# --------------------------------------------------------------------------


def _mm(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b for a forward product, into out when given, never on one
    row (axis -2): numpy hands that to gemv, whose bits differ from gemm's,
    so a lone row is multiplied doubled and the first copy kept."""
    if a.shape[-2] != 1:
        return np.matmul(a, b, out=out)
    first = (np.concatenate((a, a), axis=-2) @ b)[..., :1, :]
    if out is None:
        return first
    out[...] = first
    return out


@_quiet
def matmul(
    a: Tensor2, b: Tensor2, graph: GradGraph | None = None, *, bias: Tensor2 | None = None
) -> Tensor2:
    """Matrix product a @ b, plus a [1 x b.cols] bias row added in place to
    every row of the fresh product when one is given: add_row's float op,
    without its pass over a second array. One tape record covers (a, b) or
    (a, b, bias).

    The reduction order is fixed by the BLAS build, so results are bitwise
    reproducible run-to-run on one platform at equal precision.
    """
    if a.cols != b.rows:
        raise DimensionError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    ad, bd, n = a.data, b.data, b.cols
    if bias is None:
        return _result("matmul", _mm(ad, bd), graph, (a, b), lambda g: (g @ bd.T, ad.T @ g))
    if bias.shape != (1, n):
        raise DimensionError(f"matmul: bias must be [1x{n}], got {bias.shape}")
    out_data = _mm(ad, bd)
    out_data += bias.data
    # the bias gradient is add_row's block sum, so its bits are add_row's
    return _result(
        "matmul", out_data, graph, (a, b, bias),
        lambda g: (g @ bd.T, ad.T @ g, g.reshape(-1, 1, n).sum(axis=0)),
    )


@_quiet
def add(x: Tensor2, y: Tensor2, graph: GradGraph | None = None) -> Tensor2:
    """Elementwise sum of two same-shape tensors."""
    if x.shape != y.shape:
        raise DimensionError(f"add: shapes differ, {x.shape} vs {y.shape}")
    return _result("add", x.data + y.data, graph, (x, y), lambda g: (g, g.copy()))


@_quiet
def add_row(x: Tensor2, row: Tensor2, graph: GradGraph | None = None) -> Tensor2:
    """Broadcast-add a [k x d] block to every k-row block of x (the only
    broadcast allowed); k = 1 adds one row to every row. The model adds its
    position rows with it; a bias row goes into matmul(bias=)."""
    k, d = row.shape
    if d != x.cols or x.rows % k != 0:
        raise DimensionError(
            f"add_row: expected a [k x {x.cols}] block with k dividing {x.rows}, got {row.shape}"
        )
    blocks = x.rows // k
    out_data = (x.data.reshape(blocks, k, d) + row.data).reshape(x.shape)
    # sums the blocks in order, so it equals np.add.at over tiled indices
    return _result(
        "add_row", out_data, graph, (x, row), lambda g: (g, g.reshape(blocks, k, d).sum(axis=0))
    )


@_quiet
def scale(x: Tensor2, c: float, graph: GradGraph | None = None) -> Tensor2:
    """Multiply by a constant scalar."""
    return _result("scale", x.data * c, graph, (x,), lambda g: (g * c,))


@_quiet
def hadamard(x: Tensor2, y: Tensor2, graph: GradGraph | None = None) -> Tensor2:
    """Elementwise product."""
    if x.shape != y.shape:
        raise DimensionError(f"hadamard: shapes differ, {x.shape} vs {y.shape}")
    xd, yd = x.data, y.data
    return _result("hadamard", xd * yd, graph, (x, y), lambda g: (g * yd, g * xd))


@_quiet
def sigmoid(x: Tensor2, graph: GradGraph | None = None) -> Tensor2:
    """Elementwise logistic 1/(1+e^-x) in x's dtype, in place on one buffer;
    e^-x overflows to inf for x far below 0, so the result saturates to 0."""
    _check_finite(x.data, "sigmoid input")  # the formula maps +-inf to 1 and 0
    out_data = np.negative(x.data)
    np.exp(out_data, out=out_data)
    out_data += 1.0
    np.reciprocal(out_data, out=out_data)
    return _result(None, out_data, graph, (x,), lambda g: (g * out_data * (1.0 - out_data),))


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def tile_bounds(n: int, item_bytes: int, budget: int) -> list[int]:
    """Bounds of near-equal tiles of n items, each within budget bytes if
    one item of item_bytes fits."""
    k = -(-n // max(1, budget // item_bytes))
    return [n * i // k for i in range(k + 1)]


def _gelu_rows(xd, want_d, out=None, d=None, t=None, half_x=None):
    """GELU of xd, and its derivative d when want_d, written into the given
    buffers (fresh arrays for None); t and half_x are scratch."""
    t = np.multiply(xd, _GELU_A, out=t)
    t *= xd
    t *= xd
    t += xd
    t *= _GELU_C
    np.tanh(t, out=t)
    half_x = np.multiply(xd, 0.5, out=half_x)
    out = np.add(t, 1.0, out=out)
    if want_d:
        d = np.multiply(out, 0.5, out=d)
    out *= half_x
    if want_d:
        # d = 0.5 * (1 + t) + 0.5 * x * (1 - t * t) * (c * (1 + 3a * x * x))
        np.multiply(t, t, out=t)
        np.subtract(1.0, t, out=t)
        t *= half_x
        du = np.multiply(xd, 3.0 * _GELU_A, out=half_x)  # half_x is spent
        du *= xd
        du += 1.0
        du *= _GELU_C
        t *= du
        d += t
    return out, d


@_quiet
def gelu(x: Tensor2, graph: GradGraph | None = None, *, tile_bytes: int | None = None) -> Tensor2:
    """Smooth GELU (tanh form).

    In-place evaluation of 0.5 * x * (1 + t), t = tanh(c * (x + a * x^3)),
    operation by operation in the order of the plain formula, so results are
    bitwise equal to it. With a graph, the derivative is computed here once
    and the vjp is g * d. Given tile_bytes, rows run in near-equal tiles
    (tile_bounds) whose working set stays within that many bytes: the input
    rows, their output, two tile-sized scratch buffers reused by every tile,
    and their derivative when recording. So the chain stays in cache; each
    element gets the same operations, so the bits do not depend on the
    tiling. An input of one tile runs whole.
    """
    xd = x.data
    want_d = graph is not None
    row_bytes = x.cols * xd.itemsize * (5 if want_d else 4)
    if tile_bytes is None or x.rows * row_bytes <= tile_bytes:
        out_data, d = _gelu_rows(xd, want_d)
    else:
        bounds = tile_bounds(x.rows, row_bytes, tile_bytes)
        out_data = np.empty_like(xd)
        d = np.empty_like(xd) if want_d else None
        width = -(-x.rows // (len(bounds) - 1))  # the widest tile
        t, half_x = (np.empty((width, x.cols), dtype=x.dtype) for _ in range(2))
        for lo, hi in zip(bounds, bounds[1:]):
            _gelu_rows(
                xd[lo:hi], want_d, out_data[lo:hi], None if d is None else d[lo:hi],
                t[: hi - lo], half_x[: hi - lo],
            )
    return _result("gelu", out_data, graph, (x,), lambda g: (g * d,))


@_quiet
def frobenius_sq(x: Tensor2, graph: GradGraph | None = None) -> Tensor2:
    """Sum of squared elements, as a 1x1 tensor; gradient is 2x."""
    xd = x.data
    val = np.asarray((xd * xd).sum(), dtype=x.dtype).reshape(1, 1)
    return _result("frobenius_sq", val, graph, (x,), lambda g: (2.0 * float(g[0, 0]) * xd,))


def _row_mean(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=1, keepdims=True), bitwise, without ndarray.mean's Python
    wrapper. mean divides in float64 and rounds to a's dtype; for float32,
    one float32 divide rounds the same, as 53 >= 2 * 24 + 2 bits."""
    s = np.add.reduce(a, axis=1, keepdims=True)
    s /= a.shape[1]
    return s


@_quiet
def layer_norm(
    x: Tensor2,
    gain: Tensor2,
    bias: Tensor2,
    graph: GradGraph | None = None,
) -> Tensor2:
    """Per-row normalization to zero mean / unit variance, then affine gain+bias."""
    d = x.cols
    if gain.shape != (1, d) or bias.shape != (1, d):
        raise DimensionError(
            f"layer_norm: gain/bias must be [1x{d}], got {gain.shape}, {bias.shape}"
        )
    mean = _row_mean(x.data)
    xhat = x.data - mean
    sq = xhat * xhat
    var = _row_mean(sq)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv
    gd = gain.data
    out_data = np.multiply(xhat, gd, out=sq)
    out_data += bias.data

    def vjp(g):
        tmp = g * xhat
        dgain = tmp.sum(axis=0, keepdims=True)
        dbias = g.sum(axis=0, keepdims=True)
        dx = g * gd  # dxhat, turned into dx in place
        m2 = _row_mean(np.multiply(dx, xhat, out=tmp))
        dx -= _row_mean(dx)
        dx -= np.multiply(xhat, m2, out=tmp)
        dx *= inv
        return dx, dgain, dbias

    return _result("layer_norm", out_data, graph, (x, gain, bias), vjp)


@_quiet
def gather_rows(table: Tensor2, indices: np.ndarray, graph: GradGraph | None = None) -> Tensor2:
    """Select rows of a table by integer index (embedding lookup). The vjp
    is bitwise np.add.at of the gradient rows into zeros: it assigns them
    where the indices increase strictly, and scatters them otherwise."""
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if idx.size == 0:
        raise DimensionError("gather_rows: empty index list")
    if idx.min() < 0 or idx.max() >= table.rows:
        raise ValueError(f"gather_rows: index out of range [0, {table.rows})")

    shape, dtype = table.shape, table.dtype  # the vjp keeps no table alive

    def vjp(g):
        dt = np.zeros(shape, dtype=dtype)
        if (idx[1:] > idx[:-1]).all():
            # each table row gets one gradient row: 0.0 + g, as np.add.at
            # into zeros adds it, is g + 0.0, -0.0 included
            dt[idx] = g + 0.0
            return (dt,)
        # one flat scatter of elements, in the row scatter's order for each
        # table element, so bitwise np.add.at(dt, idx, g) and several times faster
        cols = shape[1]
        np.add.at(dt.reshape(-1), (idx[:, None] * cols + np.arange(cols)).reshape(-1), g.reshape(-1))
        return (dt,)

    return _result("gather_rows", table.data[idx], graph, (table,), vjp)


@functools.lru_cache(maxsize=64)
def _causal_mask(n: int, dtype: np.dtype) -> np.ndarray:
    """Read-only key-major [key x query] additive score mask: -inf where the
    key follows the query, else 0, so exp gives it a weight of exactly 0."""
    neg = np.tril(np.full((n, n), -np.inf, dtype=dtype), -1)
    neg.flags.writeable = False
    return neg


def _sum_lead(x: np.ndarray) -> np.ndarray:
    """The column sums of an [m x R] array, bitwise as numpy sums each
    column as one contiguous row: 8 accumulators from +0.0 up to 128 items,
    combined in 3 levels, then the tail in order; a longer row in halves.
    Each step is one op over all R columns; at R <= 256, one transposed copy
    and numpy's own reduce are faster."""
    m, cols = x.shape
    if cols <= 256:
        return np.add.reduce(x.T.copy(), axis=1)
    if m > 128:
        half = m // 2 - m // 2 % 8
        return _sum_lead(x[:half]) + _sum_lead(x[half:])
    m8 = m - m % 8
    r = np.add.reduce(x[:m8].reshape(-1, 8, cols), axis=0)
    r = r[0::2] + r[1::2]
    r = r[0::2] + r[1::2]
    res = r[0] + r[1]
    for t in x[m8:]:
        res += t
    return res


def _row_nll(x: np.ndarray, targets: np.ndarray, dtype=None):
    """Per-row -log softmax(x)[target] via log-sum-exp in dtype (x's when
    None), plus the shifted exponentials and their row sums (the
    cross-entropy vjp needs them). A wider dtype than x's gives the bits of
    x.astype(dtype) without that copy of x."""
    m = x.max(axis=1, keepdims=True)
    e = np.subtract(x, m, dtype=dtype)
    np.exp(e, out=e)
    z = e.sum(axis=1, keepdims=True)
    nll = m[:, 0] + np.log(z[:, 0]) - x[np.arange(x.shape[0]), targets]
    return nll, e, z


@_quiet
def cross_entropy_logits(
    logits: Tensor2,
    targets: np.ndarray,
    mask: np.ndarray,
    graph: GradGraph | None = None,
) -> Tensor2:
    """Mean -log softmax(logits)[target] over masked-in rows, via log-sum-exp."""
    n, v = logits.shape
    tgt = np.asarray(targets, dtype=np.int64).reshape(-1)
    msk = np.asarray(mask, dtype=bool).reshape(-1)
    if tgt.size != n or msk.size != n:
        raise DimensionError(
            f"cross_entropy_logits: {n} rows but {tgt.size} targets / {msk.size} mask entries"
        )
    if not msk.any():
        raise ValueError("cross_entropy_logits: mask selects no positions")
    live = tgt[msk]
    if live.min() < 0 or live.max() >= v:
        raise ValueError(f"cross_entropy_logits: target index out of range [0, {v})")

    safe_tgt = np.where(msk, tgt, 0)  # masked-out rows may carry junk targets

    nll, e, z = _row_nll(logits.data, safe_tgt)
    count = int(msk.sum())
    val = np.asarray(nll[msk].sum() / count, dtype=logits.dtype).reshape(1, 1)

    def vjp(g):
        dl = e / z
        dl[np.arange(n), safe_tgt] -= 1.0
        dl *= (msk / count).astype(e.dtype)[:, None]  # e has the logits' dtype; no logits kept
        return (dl * float(g[0, 0]),)

    return _result("cross_entropy_logits", val, graph, (logits,), vjp)


@_quiet
def multihead_attention(
    q: Tensor2,
    k: Tensor2,
    v: Tensor2,
    n_heads: int,
    n_seqs: int = 1,
    graph: GradGraph | None = None,
    *,
    queries: np.ndarray | None = None,
) -> Tensor2:
    """Fused causal scaled-dot-product attention over n_seqs stacked sequences.

    k and v are [(n_seqs*n) x d]; each sequence block attends within itself,
    per head, with scores scaled by 1/sqrt(d/n_heads). A -inf added to every
    score of a future position gives it a weight of exactly 0, so earlier
    rows are bitwise independent of later tokens, however far apart the
    scores are. Hand-written vjp, covered by the finite-difference checks.

    queries, sorted positions within [0, n), names the P query rows of each
    sequence that q holds, so q is [(n_seqs*P) x d] and only those rows of
    the scores and softmax are computed, each as in the full attention;
    None means every position, with q shaped as k.

    Returns the [(n_seqs*P) x d] head-concatenated output. It, and the
    vjp's dq, dk and dv, are written per head straight into that layout
    through a transposed view, so no merge copy is made.

    The scores are key-major, k @ q^T, their softmax summed down axis 0 in
    numpy's row order (_sum_lead): the row-major formula's bits wherever
    the BLAS rounds k @ q^T as the transpose of q @ k^T.
    """
    if k.shape != v.shape or q.cols != k.cols:
        raise DimensionError("multihead_attention: q/k/v shapes differ")
    total, d = k.shape
    if d % n_heads != 0:
        raise DimensionError(f"multihead_attention: d={d} not divisible by {n_heads} heads")
    if total % n_seqs != 0:
        raise DimensionError(f"multihead_attention: {total} rows not divisible by {n_seqs} seqs")
    n = total // n_seqs
    rows = n if queries is None else len(queries)
    if q.rows != n_seqs * rows:
        raise DimensionError(
            f"multihead_attention: q has {q.rows} rows, expected {n_seqs} seqs x {rows} queries"
        )
    if _deferred.get():  # the softmax drops a -inf score, so a bad key cannot wait
        _check_finite(k.data, "multihead_attention key")
    dh = d // n_heads
    inv = 1.0 / math.sqrt(dh)

    def split_heads(t):  # [(S*m) x d] -> [S, h, m, dh]
        return t.reshape(n_seqs, -1, n_heads, dh).transpose(0, 2, 1, 3)

    def key_major(t):  # [n, S, h, P] -> each head's [n x P] block, [S, h, n, P]
        return t.transpose(1, 2, 0, 3)

    q4, k4, v4 = split_heads(q.data), split_heads(k.data), split_heads(v.data)
    # the softmax runs in place on one key-major score buffer, whose head
    # blocks BLAS writes through a strided view, and which becomes p
    pT = np.empty((n, n_seqs, n_heads, rows), dtype=q.dtype)
    if rows == 1:  # a lone query column would go to gemv: q is doubled along
        # its rows, so B stays transposed (a doubled row-major column rounds
        # otherwise), and the first column kept
        q2 = np.concatenate((q4, q4), axis=2)
        key_major(pT)[...] = _mm(k4, q2.transpose(0, 1, 3, 2))[..., :1]
    else:
        np.matmul(k4, q4.transpose(0, 1, 3, 2), out=key_major(pT))
    pT *= inv
    neg = _causal_mask(n, q.dtype)
    pT += (neg if queries is None else neg[:, queries])[:, None, None, :]
    # a column of p is one softmax row: its max, sum and broadcasts are a
    # few ops over all S*h*P columns at once
    p = pT.reshape(n, -1)
    p -= np.maximum.reduce(p, axis=0)
    np.exp(p, out=p)
    p /= _sum_lead(p)

    def merged(rows):  # a fresh [rows x d] array and its [S, h, m, dh] view
        out = np.empty((rows, d), dtype=q.dtype)
        return out, split_heads(out)

    def vjp(g):
        g4 = split_heads(g)
        dsT = np.empty_like(pT)  # dp, turned into ds in place
        np.matmul(v4, g4.transpose(0, 1, 3, 2), out=key_major(dsT))
        dq, dq4 = merged(q.rows)
        dk, dk4 = merged(total)
        dv, dv4 = merged(total)
        np.matmul(key_major(pT), g4, out=dv4)
        ds_cols = dsT.reshape(n, -1)
        ds_cols -= _sum_lead(p * ds_cols)
        ds_cols *= p
        ds = dsT.transpose(1, 2, 3, 0)
        # a lone query's ds row goes contiguous: a strided gemv rounds otherwise
        np.matmul(np.ascontiguousarray(ds) if rows == 1 else ds, k4, out=dq4)
        dq4 *= inv
        np.matmul(key_major(dsT), q4, out=dk4)
        dk4 *= inv
        return dq, dk, dv

    out_data, out4 = merged(q.rows)
    _mm(pT.transpose(1, 2, 3, 0), v4, out=out4)
    return _result("multihead_attention", out_data, graph, (q, k, v), vjp)


def grad_check(
    fn: Callable[[list[Tensor2], GradGraph | None], Tensor2],
    inputs: Sequence[Tensor2],
    eps: float = 1e-5,
) -> float:
    """Max relative error between backward() and central finite differences.

    fn(inputs, graph) must return a 1x1 tensor. Each input element is
    perturbed +-eps in its own dtype; the divided difference uses the actual
    representable perturbation. Denominator: max(|analytic|, |numeric|, 1e-8).
    """
    inputs = list(inputs)
    g = GradGraph()
    analytic = backward(g, fn(inputs, g), inputs)

    worst = 0.0
    for t, a in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        aflat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            hi = t.dtype.type(orig + eps)
            lo = t.dtype.type(orig - eps)
            flat[i] = hi
            fp = fn(inputs, None).item()
            flat[i] = lo
            fm = fn(inputs, None).item()
            flat[i] = orig
            numeric = (fp - fm) / (float(hi) - float(lo))
            ana = float(aflat[i])
            denom = max(abs(ana), abs(numeric), 1e-8)
            err = abs(ana - numeric) / denom
            if err > worst:
                worst = err
    return worst

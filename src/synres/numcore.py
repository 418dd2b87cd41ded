"""Dense 2-D tensors with reverse-mode autodiff on an explicit op tape.

Everything downstream (attention, gating, losses, training) is composed from
the operations here. Ops are pure: they allocate fresh output tensors, verify
the result is finite, and optionally record a vjp closure on a GradGraph.
float32 is the training precision; float64 is used for gradient verification.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np
from scipy.special import expit

MASK_NEG = -1e9  # additive score mask; exp(MASK_NEG - rowmax) underflows to exactly 0.0


class DimensionError(ValueError):
    """Operand shapes violate an op's contract."""


class NumericError(ArithmeticError):
    """A non-finite value (NaN/Inf, e.g. overflow) escaped an operation."""


class Tensor2:
    """A rows x cols matrix of float32 or float64 with an optional grad slot."""

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray):
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise DimensionError(f"Tensor2 requires a 2-D shape, got {data.shape}")
        if data.dtype not in (np.float32, np.float64):
            raise DimensionError(f"Tensor2 holds float32/float64, got {data.dtype}")
        self.data = np.ascontiguousarray(data)
        self.grad: np.ndarray | None = None

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


def _quiet(fn):
    """Overflow surfaces as NumericError via _check_finite, not as a numpy warning."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
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


class GradGraph:
    """Ordered record of executed ops, replayable in reverse for the chain rule.

    Execution order is a topological order by construction. Leaves are inputs
    that no record produced; watch() registers a leaf explicitly so it gets a
    gradient (exact zero if unreachable from the loss). Single-writer: one
    graph must not be mutated from two threads.
    """

    def __init__(self):
        self._records: list[tuple[Tensor2, tuple[Tensor2, ...], _Vjp]] = []
        self._produced: set[int] = set()
        self._leaves: dict[int, Tensor2] = {}

    def watch(self, t: Tensor2) -> Tensor2:
        if id(t) not in self._produced:
            self._leaves.setdefault(id(t), t)
        return t

    def record(self, out: Tensor2, inputs: tuple[Tensor2, ...], vjp: _Vjp) -> None:
        for t in inputs:
            if id(t) not in self._produced:
                self._leaves.setdefault(id(t), t)
        self._records.append((out, inputs, vjp))
        self._produced.add(id(out))

    @property
    def n_ops(self) -> int:
        return len(self._records)

    @property
    def leaves(self) -> list[Tensor2]:
        return list(self._leaves.values())


def backward(graph: GradGraph, loss: Tensor2) -> None:
    """Reverse sweep from a scalar loss; populates .grad on every graph leaf.

    Gradients accumulate additively across fan-out. Leaves with no path to
    the loss receive an exact-zero gradient.
    """
    if loss.shape != (1, 1):
        raise DimensionError(f"backward root must be a 1x1 scalar, got {loss.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones((1, 1), dtype=loss.dtype)}
    for out, inputs, vjp in reversed(graph._records):
        # an op's output is never a leaf, so its gradient is dropped once used
        g = grads.pop(id(out), None)
        if g is None:
            continue
        # in-place accumulation below relies on vjps never returning one
        # array object for two input slots
        for t, ig in zip(inputs, vjp(g)):
            if ig is None:
                continue
            acc = grads.get(id(t))
            if acc is None:
                grads[id(t)] = ig
            else:
                np.add(acc, ig, out=acc)
    for t in graph._leaves.values():
        g = grads.get(id(t))
        t.grad = g if g is not None else np.zeros_like(t.data)


# --------------------------------------------------------------------------
# differentiable operations
# --------------------------------------------------------------------------


@_quiet
def matmul(a: Tensor2, b: Tensor2, graph: GradGraph | None = None) -> Tensor2:
    """Matrix product a @ b.

    The reduction order is fixed by the BLAS build, so results are bitwise
    reproducible run-to-run on one platform at equal precision.
    """
    if a.cols != b.rows:
        raise DimensionError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    out_data = a.data @ b.data
    _check_finite(out_data, "matmul")
    out = Tensor2(out_data)
    if graph is not None:
        ad, bd = a.data, b.data

        def vjp(g):
            return g @ bd.T, ad.T @ g

        graph.record(out, (a, b), vjp)
    return out


@_quiet
def add(x: Tensor2, y: Tensor2, graph: GradGraph | None = None) -> Tensor2:
    """Elementwise sum of two same-shape tensors."""
    if x.shape != y.shape:
        raise DimensionError(f"add: shapes differ, {x.shape} vs {y.shape}")
    out_data = x.data + y.data
    _check_finite(out_data, "add")
    out = Tensor2(out_data)
    if graph is not None:
        graph.record(out, (x, y), lambda g: (g, g.copy()))
    return out


@_quiet
def add_row(x: Tensor2, row: Tensor2, graph: GradGraph | None = None) -> Tensor2:
    """Broadcast-add a [k x d] block to every k-row block of x (the only
    broadcast allowed); k = 1 adds one row to every row."""
    k, d = row.shape
    if d != x.cols or x.rows % k != 0:
        raise DimensionError(
            f"add_row: expected a [k x {x.cols}] block with k dividing {x.rows}, got {row.shape}"
        )
    blocks = x.rows // k
    out_data = (x.data.reshape(blocks, k, d) + row.data).reshape(x.shape)
    _check_finite(out_data, "add_row")
    out = Tensor2(out_data)
    if graph is not None:
        # sums the blocks in order, so it equals np.add.at over tiled indices
        graph.record(out, (x, row), lambda g: (g, g.reshape(blocks, k, d).sum(axis=0)))
    return out


@_quiet
def scale(x: Tensor2, c: float, graph: GradGraph | None = None) -> Tensor2:
    """Multiply by a constant scalar."""
    out_data = x.data * c
    _check_finite(out_data, "scale")
    out = Tensor2(out_data)
    if graph is not None:
        graph.record(out, (x,), lambda g: (g * c,))
    return out


@_quiet
def hadamard(x: Tensor2, y: Tensor2, graph: GradGraph | None = None) -> Tensor2:
    """Elementwise product."""
    if x.shape != y.shape:
        raise DimensionError(f"hadamard: shapes differ, {x.shape} vs {y.shape}")
    out_data = x.data * y.data
    _check_finite(out_data, "hadamard")
    out = Tensor2(out_data)
    if graph is not None:
        xd, yd = x.data, y.data
        graph.record(out, (x, y), lambda g: (g * yd, g * xd))
    return out


@_quiet
def sigmoid(x: Tensor2, graph: GradGraph | None = None) -> Tensor2:
    """Elementwise logistic 1/(1+e^-x); stable for |x| up to 1e4 and beyond."""
    _check_finite(x.data, "sigmoid input")
    out_data = expit(x.data)
    out = Tensor2(out_data)
    if graph is not None:
        graph.record(out, (x,), lambda g: (g * out_data * (1.0 - out_data),))
    return out


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


@_quiet
def gelu(x: Tensor2, graph: GradGraph | None = None) -> Tensor2:
    """Smooth GELU (tanh form).

    In-place evaluation of 0.5 * x * (1 + t), t = tanh(c * (x + a * x^3)),
    operation by operation in the order of the plain formula, so results are
    bitwise equal to it. With a graph, the derivative is computed here once
    and the vjp is g * d.
    """
    xd = x.data
    t = xd * _GELU_A
    t *= xd
    t *= xd
    t += xd
    t *= _GELU_C
    np.tanh(t, out=t)
    half_x = xd * 0.5
    out_data = t + 1.0
    d = out_data * 0.5 if graph is not None else None
    out_data *= half_x
    _check_finite(out_data, "gelu")
    out = Tensor2(out_data)
    if graph is not None:
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
        graph.record(out, (x,), lambda g: (g * d,))
    return out


@_quiet
def frobenius_sq(x: Tensor2, graph: GradGraph | None = None) -> Tensor2:
    """Sum of squared elements, as a 1x1 tensor; gradient is 2x."""
    val = np.asarray((x.data * x.data).sum(), dtype=x.dtype).reshape(1, 1)
    _check_finite(val, "frobenius_sq")
    out = Tensor2(val)
    if graph is not None:
        xd = x.data
        graph.record(out, (x,), lambda g: (2.0 * float(g[0, 0]) * xd,))
    return out


@_quiet
def layer_norm(
    x: Tensor2,
    gain: Tensor2,
    bias: Tensor2,
    eps: float = 1e-5,
    graph: GradGraph | None = None,
) -> Tensor2:
    """Per-row normalization to zero mean / unit variance, then affine gain+bias."""
    d = x.cols
    if gain.shape != (1, d) or bias.shape != (1, d):
        raise DimensionError(
            f"layer_norm: gain/bias must be [1x{d}], got {gain.shape}, {bias.shape}"
        )
    mean = x.data.mean(axis=1, keepdims=True)
    xhat = x.data - mean
    sq = xhat * xhat
    var = sq.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out_data = np.multiply(xhat, gain.data, out=sq)
    out_data += bias.data
    _check_finite(out_data, "layer_norm")
    out = Tensor2(out_data)
    if graph is not None:
        gd = gain.data

        def vjp(g):
            tmp = g * xhat
            dgain = tmp.sum(axis=0, keepdims=True)
            dbias = g.sum(axis=0, keepdims=True)
            dx = g * gd  # dxhat, turned into dx in place
            m2 = np.multiply(dx, xhat, out=tmp).mean(axis=1, keepdims=True)
            dx -= dx.mean(axis=1, keepdims=True)
            dx -= np.multiply(xhat, m2, out=tmp)
            dx *= inv
            return dx, dgain, dbias

        graph.record(out, (x, gain, bias), vjp)
    return out


@_quiet
def gather_rows(table: Tensor2, indices: np.ndarray, graph: GradGraph | None = None) -> Tensor2:
    """Select rows of a table by integer index (embedding lookup)."""
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if idx.size == 0:
        raise DimensionError("gather_rows: empty index list")
    if idx.min() < 0 or idx.max() >= table.rows:
        raise ValueError(f"gather_rows: index out of range [0, {table.rows})")
    out = Tensor2(table.data[idx].copy())
    if graph is not None:

        def vjp(g):
            dt = np.zeros_like(table.data)
            np.add.at(dt, idx, g)
            return (dt,)

        graph.record(out, (table,), vjp)
    return out


def _row_nll(x: np.ndarray, targets: np.ndarray):
    """Per-row -log softmax(x)[target] via log-sum-exp in x's dtype, plus the
    shifted exponentials and their row sums (the cross-entropy vjp needs them)."""
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
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
    _check_finite(val, "cross_entropy_logits")
    out = Tensor2(val)
    if graph is not None:
        p = e / z

        def vjp(g):
            dl = p.copy()
            dl[np.arange(n), safe_tgt] -= 1.0
            dl *= (msk / count).astype(logits.dtype)[:, None]
            return (dl * float(g[0, 0]),)

        graph.record(out, (logits,), vjp)
    return out


@_quiet
def multihead_attention(
    q: Tensor2,
    k: Tensor2,
    v: Tensor2,
    n_heads: int,
    n_seqs: int = 1,
    causal: bool = True,
    graph: GradGraph | None = None,
    want_probs: bool = False,
):
    """Fused scaled-dot-product attention over n_seqs stacked sequences.

    q, k, v are [(n_seqs*n) x d]; each sequence block attends within itself,
    per head, with scores scaled by 1/sqrt(d/n_heads). Causal masking zeroes
    the weight on future positions exactly (additive -1e9 before softmax,
    then a hard zero on the strict upper triangle), so earlier rows are
    bitwise independent of later tokens. Hand-written vjp, covered by the
    finite-difference checks.

    Returns the [(n_seqs*n) x d] head-concatenated output, plus the
    attention probabilities [n_seqs, n_heads, n, n] when want_probs is set.
    """
    if q.shape != k.shape or q.shape != v.shape:
        raise DimensionError("multihead_attention: q/k/v shapes differ")
    total, d = q.shape
    if d % n_heads != 0:
        raise DimensionError(f"multihead_attention: d={d} not divisible by {n_heads} heads")
    if total % n_seqs != 0:
        raise DimensionError(f"multihead_attention: {total} rows not divisible by {n_seqs} seqs")
    n = total // n_seqs
    dh = d // n_heads
    inv = 1.0 / math.sqrt(dh)

    def split_heads(t):  # [(S*n) x d] -> [S, h, n, dh]
        return t.data.reshape(n_seqs, n, n_heads, dh).transpose(0, 2, 1, 3)

    q4, k4, v4 = split_heads(q), split_heads(k), split_heads(v)
    # the softmax runs in place on one score buffer, which becomes p
    p = q4 @ k4.transpose(0, 1, 3, 2)
    p *= inv
    if causal:
        tril = np.tril(np.ones((n, n), dtype=q.dtype.type))
        p += (1.0 - tril) * MASK_NEG
    p -= p.max(axis=3, keepdims=True)
    np.exp(p, out=p)
    if causal:
        p *= tril
    p /= p.sum(axis=3, keepdims=True)
    out4 = p @ v4
    out_data = out4.transpose(0, 2, 1, 3).reshape(total, d)
    _check_finite(out_data, "multihead_attention")
    out = Tensor2(np.ascontiguousarray(out_data))
    if graph is not None:

        def vjp(g):
            g4 = g.reshape(n_seqs, n, n_heads, dh).transpose(0, 2, 1, 3)
            ds = g4 @ v4.transpose(0, 1, 3, 2)  # dp, turned into ds in place
            dv4 = p.transpose(0, 1, 3, 2) @ g4
            ds -= (p * ds).sum(axis=3, keepdims=True)
            ds *= p
            dq4 = ds @ k4
            dq4 *= inv
            dk4 = ds.transpose(0, 1, 3, 2) @ q4
            dk4 *= inv

            def merge(t4):  # [S, h, n, dh] -> [(S*n) x d]
                return np.ascontiguousarray(t4.transpose(0, 2, 1, 3).reshape(total, d))

            return merge(dq4), merge(dk4), merge(dv4)

        graph.record(out, (q, k, v), vjp)
    if want_probs:
        return out, p
    return out


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
    for t in inputs:
        g.watch(t)
    loss = fn(inputs, g)
    backward(g, loss)
    analytic = [t.grad.copy() for t in inputs]

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

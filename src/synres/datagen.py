"""Deterministic task generators: copy, key-value recall, byte corpora, noise.

All generators are pure functions of (spec, layout, seed). Key-value recall
plants a value at a controlled token distance from the query so retention can
be scored as exact match per distance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .numcore import Rng

N_SPECIALS = 5  # pad, bos, sep, query, filler


@dataclass(frozen=True)
class VocabLayout:
    """Index ranges carving the vocabulary into specials, keys, and values."""

    vocab_size: int
    pad: int
    bos: int
    sep: int
    query: int
    filler: int
    key_lo: int
    key_hi: int  # exclusive; key_lo == key_hi means no key range
    value_lo: int
    value_hi: int
    byte_mode: bool = False

    def __post_init__(self):
        specials = [self.pad, self.bos, self.sep, self.query, self.filler]
        if len(set(specials)) != N_SPECIALS:
            raise ValueError("special token ids must be distinct")
        spans = [(s, s + 1) for s in specials]
        if self.key_lo < self.key_hi:
            spans.append((self.key_lo, self.key_hi))
        if self.value_lo < self.value_hi:
            spans.append((self.value_lo, self.value_hi))
        else:
            raise ValueError("value range must be nonempty")
        for lo, hi in spans:
            if lo < 0 or hi > self.vocab_size:
                raise ValueError(f"range [{lo}, {hi}) outside vocab [0, {self.vocab_size})")
        for (alo, ahi) in spans:
            for (blo, bhi) in spans:
                if (alo, ahi) != (blo, bhi) and alo < bhi and blo < ahi:
                    raise ValueError("vocab ranges overlap")

    @property
    def n_keys(self) -> int:
        return self.key_hi - self.key_lo

    @property
    def n_values(self) -> int:
        return self.value_hi - self.value_lo

    @property
    def payload_range(self) -> tuple[int, int]:
        """Contiguous non-special range used for payloads and noise draws."""
        lo = self.key_lo if self.key_lo < self.key_hi else self.value_lo
        return lo, self.value_hi

    @classmethod
    def synthetic(cls, vocab_size: int, n_keys: int | None = None, n_values: int | None = None):
        """Specials at 0..4, then keys, then values; leftovers stay unused."""
        room = vocab_size - N_SPECIALS
        if n_keys is None and n_values is None:
            n_keys = room // 2
            n_values = room - n_keys
        elif n_keys is None:
            n_keys = room - n_values
        elif n_values is None:
            n_values = room - n_keys
        if n_keys < 0 or n_values < 1 or n_keys + n_values > room:
            raise ValueError(
                f"cannot fit {n_keys} keys + {n_values} values in vocab {vocab_size}"
            )
        return cls(
            vocab_size=vocab_size,
            pad=0, bos=1, sep=2, query=3, filler=4,
            key_lo=N_SPECIALS,
            key_hi=N_SPECIALS + n_keys,
            value_lo=N_SPECIALS + n_keys,
            value_hi=N_SPECIALS + n_keys + n_values,
        )

    @classmethod
    def bytes_(cls):
        """Byte-level corpus vocabulary: ids 0..255 are raw bytes, specials after."""
        return cls(
            vocab_size=256 + N_SPECIALS,
            pad=256, bos=257, sep=258, query=259, filler=260,
            key_lo=0, key_hi=0,
            value_lo=0, value_hi=256,
            byte_mode=True,
        )


@dataclass
class Batch:
    """Token rows with next-token or probe targets and a loss mask.

    meta carries the per-row probe distance for retention scoring; protected
    marks positions noise injection must not touch.
    """

    tokens: np.ndarray  # [B x n] int64
    targets: np.ndarray  # [B x n] int64
    loss_mask: np.ndarray  # [B x n] bool
    meta: np.ndarray | None = None  # [B] int64
    protected: np.ndarray | None = None  # [B x n] bool

    def __post_init__(self):
        if self.tokens.ndim != 2 or self.tokens.shape != self.targets.shape:
            raise ValueError("tokens/targets must be matching 2-D matrices")
        if self.loss_mask.shape != self.tokens.shape:
            raise ValueError("loss_mask shape mismatch")
        if self.meta is not None and self.meta.shape != (self.tokens.shape[0],):
            raise ValueError("meta must be one entry per row")
        if self.protected is not None and self.protected.shape != self.tokens.shape:
            raise ValueError("protected shape mismatch")

    @property
    def n_rows(self) -> int:
        return self.tokens.shape[0]

    @property
    def seq_len(self) -> int:
        return self.tokens.shape[1]

    def validate(self, vocab_size: int) -> None:
        if self.tokens.min() < 0 or self.tokens.max() >= vocab_size:
            raise ValueError("token index outside vocab")
        if not self.loss_mask.any(axis=1).all():
            raise ValueError("every row needs at least one masked-in position")
        live = self.targets[self.loss_mask]
        if live.min() < 0 or live.max() >= vocab_size:
            raise ValueError("masked target outside vocab")

    def scored(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(positions, targets, mask): the P columns where some row's loss
        mask is set, and the targets and mask there, flat in the row order
        of forward_batch(positions=)'s [(B*P) x V] logits. Training and
        evaluation compute logits at these columns only."""
        positions = np.flatnonzero(self.loss_mask.any(axis=0))
        return (positions, self.targets[:, positions].reshape(-1),
                self.loss_mask[:, positions].reshape(-1))

    def rows(self, sel) -> "Batch":
        return Batch(
            tokens=self.tokens[sel],
            targets=self.targets[sel],
            loss_mask=self.loss_mask[sel],
            meta=None if self.meta is None else self.meta[sel],
            protected=None if self.protected is None else self.protected[sel],
        )


@dataclass(frozen=True)
class TaskSpec:
    """What to generate: task kind, geometry, sample count, seed.

    Every task rule lives here. A kv_recall spec with distances derives
    whatever of seq_len and pairs is left at 0: the smallest geometry
    realizing the distance list (pairs up front, one query at the end;
    distance = final position minus planted value slot)."""

    kind: str  # copy | kv_recall | corpus
    seq_len: int = 0
    pairs: int = 0
    distances: tuple[int, ...] = ()
    samples: int = 0
    seed: int = 0
    val_fraction: float = 0.1
    corpus_path: str | None = None

    def __post_init__(self):
        if self.kind not in ("copy", "kv_recall", "corpus"):
            raise ValueError(f"unknown task kind {self.kind!r}")
        object.__setattr__(self, "distances", tuple(int(d) for d in self.distances))
        if self.kind == "kv_recall" and self.distances:
            if not self.seq_len:
                object.__setattr__(self, "seq_len", max(self.distances) + 2)
            if not self.pairs:
                need = max(_kv_pair_index(self.seq_len, None, d) for d in self.distances)
                object.__setattr__(self, "pairs", need + 1)
        if self.kind != "corpus" and self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.kind == "corpus" and (self.corpus_path is None or self.seq_len < 1):
            raise ValueError("corpus task needs corpus_path and seq_len")
        if self.kind == "copy" and (self.seq_len < 4 or self.seq_len % 2 != 0):
            raise ValueError("copy task needs seq_len = 2*payload + 2")
        if self.kind == "kv_recall":
            if self.pairs < 1 or self.seq_len < 1:
                raise ValueError("kv_recall needs distances or both seq_len and pairs")
            if 2 * self.pairs + 2 > self.seq_len:
                raise ValueError("pairs + query do not fit in seq_len")
            for d in self.distances:
                _kv_pair_index(self.seq_len, self.pairs, d)
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in (0, 1)")

    @property
    def payload_len(self) -> int:
        return (self.seq_len - 2) // 2

    def check(self, batch: Batch, layout: VocabLayout) -> None:
        """Raise ValueError unless batch is this task's data under layout:
        Batch.validate, samples x seq_len tokens, each row's meta one of the
        distances, and for kv_recall keys at even and values at odd
        positions below 2 * pairs, then filler up to the query. The seed
        cannot be checked, as its draws leave no trace in the arrays."""
        batch.validate(layout.vocab_size)
        if (self.samples, self.seq_len) != batch.tokens.shape:
            raise ValueError(f"header task.samples {self.samples} and task.seq_len {self.seq_len}"
                             f" disagree with the {batch.n_rows} x {batch.seq_len} tokens")
        if self.distances and not np.isin(batch.meta, self.distances).all():
            raise ValueError(f"meta must give each row one of task.distances {self.distances}")
        if self.kind == "kv_recall":
            m, t = 2 * self.pairs, batch.tokens
            keys, values = t[:, 0:m:2], t[:, 1:m:2]
            if not (((keys >= layout.key_lo) & (keys < layout.key_hi)).all()
                    and ((values >= layout.value_lo) & (values < layout.value_hi)).all()
                    and (t[:, m : self.seq_len - 2] == layout.filler).all()):
                raise ValueError(f"header task.pairs {self.pairs} disagrees with the tokens: each row"
                                 f" needs keys at even and values at odd positions below {m},"
                                 f" then filler up to position {self.seq_len - 2}")

    @classmethod
    def kv_recall(cls, distances, samples, seed=0, seq_len=None, pairs=None, val_fraction=0.1):
        """A kv_recall spec; seq_len and pairs left None are derived."""
        return cls(
            kind="kv_recall", seq_len=seq_len or 0, pairs=pairs or 0, distances=distances,
            samples=samples, seed=seed, val_fraction=val_fraction,
        )


def _kv_pair_index(seq_len: int, pairs: int | None, distance: int) -> int:
    """Pair index whose value slot sits `distance` before the final position."""
    gap = seq_len - 2 - distance  # value slot is 2i+1, final position seq_len-1
    if gap < 0 or gap % 2 != 0:
        raise ValueError(
            f"distance {distance} unreachable at seq_len {seq_len} (needs same parity)"
        )
    i = gap // 2
    if pairs is not None and i >= pairs:
        raise ValueError(f"distance {distance} needs pair index {i} >= pairs {pairs}")
    return i


def gen_copy(spec: TaskSpec, layout: VocabLayout, rng: Rng) -> Batch:
    """Rows [BOS, s_1..s_k, SEP, s_1..s_k]; loss on the second payload only."""
    if spec.kind != "copy":
        raise ValueError(f"spec kind is {spec.kind!r}, not copy")
    k = spec.payload_len
    lo, hi = layout.payload_range
    b = spec.samples
    payload = rng.integers(lo, hi, size=(b, k))
    tokens = np.empty((b, spec.seq_len), dtype=np.int64)
    tokens[:, 0] = layout.bos
    tokens[:, 1 : k + 1] = payload
    tokens[:, k + 1] = layout.sep
    tokens[:, k + 2 :] = payload

    targets = np.full_like(tokens, layout.pad)
    targets[:, :-1] = tokens[:, 1:]
    mask = np.zeros_like(tokens, dtype=bool)
    mask[:, k + 1 : 2 * k + 1] = True  # positions predicting the second payload
    batch = Batch(tokens=tokens, targets=targets, loss_mask=mask)
    spec.check(batch, layout)
    return batch


def gen_kv_recall(spec: TaskSpec, layout: VocabLayout, rng: Rng) -> Batch:
    """Rows [K_1 V_1 .. K_m V_m, filler.., QUERY, K_i] with the planted V_i as
    the only scored target; meta records the value-to-query token distance."""
    if spec.kind != "kv_recall":
        raise ValueError(f"spec kind is {spec.kind!r}, not kv_recall")
    m, n, b = spec.pairs, spec.seq_len, spec.samples
    if layout.n_keys < m:
        raise ValueError(f"layout has {layout.n_keys} keys, need {m} distinct per row")
    distances = spec.distances
    tokens = np.full((b, n), layout.filler, dtype=np.int64)
    targets = np.full((b, n), layout.pad, dtype=np.int64)
    mask = np.zeros((b, n), dtype=bool)
    meta = np.empty(b, dtype=np.int64)
    protected = np.zeros((b, n), dtype=bool)
    protected[:, n - 2 :] = True  # query marker and queried key stay noise-exempt

    for r in range(b):
        keys = layout.key_lo + rng.permutation(layout.n_keys)[:m]
        values = rng.integers(layout.value_lo, layout.value_hi, size=m)
        if distances:
            dist = distances[r % len(distances)]
            i = _kv_pair_index(n, m, dist)
        else:
            i = int(rng.integers(0, m))
            dist = (n - 1) - (2 * i + 1)
        tokens[r, 0 : 2 * m : 2] = keys
        tokens[r, 1 : 2 * m + 1 : 2] = values
        tokens[r, n - 2] = layout.query
        tokens[r, n - 1] = keys[i]
        targets[r, n - 1] = values[i]
        mask[r, n - 1] = True
        meta[r] = dist

    batch = Batch(tokens=tokens, targets=targets, loss_mask=mask, meta=meta, protected=protected)
    spec.check(batch, layout)
    return batch


def _windows(ids: np.ndarray, seq_len: int) -> Batch:
    """Non-overlapping length-(seq_len+1) windows as (tokens, shifted targets)."""
    n = len(ids)
    count = (n - 1) // seq_len
    if count < 1:
        raise ValueError(f"stream of {n} tokens shorter than one window of {seq_len + 1}")
    w = np.stack([ids[i * seq_len : i * seq_len + seq_len + 1] for i in range(count)])
    return Batch(
        tokens=w[:, :-1].astype(np.int64),
        targets=w[:, 1:].astype(np.int64),
        loss_mask=np.ones((count, seq_len), dtype=bool),
    )


def load_corpus(spec: TaskSpec, layout: VocabLayout) -> tuple[Batch, Batch]:
    """(train, validation) windows of a corpus file: its raw bytes as
    byte-mode ids, cut contiguously at floor(len * (1 - val_fraction) + 0.5)."""
    if not layout.byte_mode:
        raise ValueError("corpus loading needs a byte-mode layout")
    with open(spec.corpus_path, "rb") as fh:
        raw = fh.read()
    if not raw:
        raise ValueError(f"{spec.corpus_path} is empty")
    ids = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    cut = int(np.floor(len(ids) * (1.0 - spec.val_fraction) + 0.5))
    return _windows(ids[:cut], spec.seq_len), _windows(ids[cut:], spec.seq_len)


def inject_noise(batch: Batch, p: float, layout: VocabLayout, rng: Rng) -> Batch:
    """Replace each unprotected input position with a uniform non-special draw
    with probability p. Targets, masks, and meta are never touched."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise level must be in [0, 1], got {p}")
    lo, hi = layout.payload_range
    fire = rng.uniform(size=batch.tokens.shape) < p
    if batch.protected is not None:
        fire &= ~batch.protected
    draws = rng.integers(lo, hi, size=batch.tokens.shape)
    return replace(batch, tokens=np.where(fire, draws, batch.tokens))


def batches(
    dataset: Batch,
    batch_size: int,
    rng: Rng | None = None,
) -> Iterator[Batch]:
    """Group dataset rows into batches, in an rng permutation when rng is
    given and in row order otherwise; the final short group is emitted as-is."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n = dataset.n_rows
    if n == 0:
        raise ValueError("empty dataset")
    order = np.arange(n) if rng is None else rng.permutation(n)
    for at in range(0, n, batch_size):
        yield dataset.rows(order[at : at + batch_size])


def split_train_val(dataset: Batch, val_fraction: float) -> tuple[Batch, Batch]:
    """Deterministic disjoint split: the tail val_fraction of rows validates."""
    n = dataset.n_rows
    n_val = min(n - 1, max(1, int(round(n * val_fraction))))
    return dataset.rows(slice(0, n - n_val)), dataset.rows(slice(n - n_val, n))


def build_task_data(spec: TaskSpec, layout: VocabLayout) -> tuple[Batch, Batch]:
    """Generate (train, validation) data for a task spec."""
    if spec.kind == "corpus":
        return load_corpus(spec, layout)
    rng = Rng(spec.seed)
    gen = gen_copy if spec.kind == "copy" else gen_kv_recall
    return split_train_val(gen(spec, layout, rng), spec.val_fraction)


def layout_for(spec: TaskSpec, vocab_size: int) -> VocabLayout:
    """Default vocabulary layout for a task at a given model vocab size."""
    if spec.kind == "corpus":
        layout = VocabLayout.bytes_()
        if vocab_size != layout.vocab_size:
            raise ValueError(f"corpus tasks need vocab_size {layout.vocab_size}")
        return layout
    if spec.kind == "kv_recall":
        return VocabLayout.synthetic(vocab_size, n_keys=spec.pairs)
    return VocabLayout.synthetic(vocab_size)

"""Task generators: structure, determinism, noise protocol, corpus round trip."""

import numpy as np
import pytest

from synres.datagen import (
    Batch,
    TaskSpec,
    VocabLayout,
    batches,
    build_task_data,
    gen_copy,
    gen_kv_recall,
    inject_noise,
    load_corpus,
    split_train_val,
)
from synres.numcore import Rng


LAYOUT64 = VocabLayout.synthetic(64)


# --------------------------------------------------------------------------
# layout
# --------------------------------------------------------------------------


def test_layout_ranges_disjoint_and_sized():
    lay = LAYOUT64
    assert lay.n_keys + lay.n_values <= 64 - 5
    assert lay.key_hi == lay.value_lo
    assert lay.payload_range == (5, lay.value_hi)


def test_layout_rejects_overlap():
    with pytest.raises(ValueError):
        VocabLayout(
            vocab_size=10, pad=0, bos=1, sep=2, query=3, filler=4,
            key_lo=4, key_hi=6, value_lo=6, value_hi=10,
        )


def test_layout_bytes_mode():
    lay = VocabLayout.bytes_()
    assert lay.vocab_size == 261
    assert lay.byte_mode and lay.payload_range == (0, 256)


def test_layout_kv_sizing():
    lay = VocabLayout.synthetic(64, n_keys=25, n_values=16)
    assert lay.n_keys == 25 and lay.n_values == 16
    with pytest.raises(ValueError):
        VocabLayout.synthetic(20, n_keys=25)


# --------------------------------------------------------------------------
# copy task
# --------------------------------------------------------------------------


def test_copy_smallest_instance():
    spec = TaskSpec(kind="copy", seq_len=4, samples=3, seed=1)
    batch = gen_copy(spec, LAYOUT64, Rng(1))
    for r in range(3):
        bos, a, sep, a2 = batch.tokens[r]
        assert bos == LAYOUT64.bos and sep == LAYOUT64.sep and a == a2
        # the only scored position predicts the final payload token
        assert list(np.flatnonzero(batch.loss_mask[r])) == [2]
        assert batch.targets[r, 2] == a


def test_copy_deterministic():
    spec = TaskSpec(kind="copy", seq_len=10, samples=20, seed=9)
    a = gen_copy(spec, LAYOUT64, Rng(9))
    b = gen_copy(spec, LAYOUT64, Rng(9))
    np.testing.assert_array_equal(a.tokens, b.tokens)
    np.testing.assert_array_equal(a.targets, b.targets)


def test_copy_payload_never_specials():
    spec = TaskSpec(kind="copy", seq_len=18, samples=10_000, seed=5)
    batch = gen_copy(spec, LAYOUT64, Rng(5))
    k = spec.payload_len
    lo, hi = LAYOUT64.payload_range
    payload = np.concatenate([batch.tokens[:, 1 : k + 1], batch.tokens[:, k + 2 :]])
    assert payload.min() >= lo and payload.max() < hi


def test_copy_targets_are_shifted_tokens():
    spec = TaskSpec(kind="copy", seq_len=12, samples=4, seed=2)
    batch = gen_copy(spec, LAYOUT64, Rng(2))
    np.testing.assert_array_equal(batch.targets[:, :-1], batch.tokens[:, 1:])


# --------------------------------------------------------------------------
# kv recall
# --------------------------------------------------------------------------


def test_kv_minimal_row():
    spec = TaskSpec(kind="kv_recall", seq_len=4, pairs=1, samples=5, seed=3)
    lay = VocabLayout.synthetic(16, n_keys=2, n_values=4)
    batch = gen_kv_recall(spec, lay, Rng(3))
    for r in range(5):
        k1, v1, q, kq = batch.tokens[r]
        assert q == lay.query and kq == k1
        assert batch.targets[r, 3] == v1
        assert batch.meta[r] == 2


def test_kv_answer_consistency_full_scan():
    spec = TaskSpec.kv_recall(distances=(4, 8, 12), samples=600, seed=11)
    lay = VocabLayout.synthetic(40, n_keys=spec.pairs)
    batch = gen_kv_recall(spec, lay, Rng(11))
    for r in range(batch.n_rows):
        row = batch.tokens[r]
        queried = row[-1]
        hits = [j for j in range(0, 2 * spec.pairs, 2) if row[j] == queried]
        assert len(hits) == 1  # keys distinct within the row
        assert batch.targets[r, -1] == row[hits[0] + 1]
        assert batch.meta[r] == (spec.seq_len - 1) - (hits[0] + 1)


def test_kv_distance_histogram_exact():
    distances = (16, 32, 64)
    spec = TaskSpec.kv_recall(distances=distances, samples=600, seed=7)
    lay = VocabLayout.synthetic(64, n_keys=spec.pairs)
    batch = gen_kv_recall(spec, lay, Rng(7))
    got = {d: int((batch.meta == d).sum()) for d in distances}
    assert got == {16: 200, 32: 200, 64: 200}


def test_kv_geometry_helper():
    spec = TaskSpec.kv_recall(distances=(16, 32, 64), samples=10)
    assert spec.seq_len == 66 and spec.pairs == 25


def test_kv_incompatible_distances():
    with pytest.raises(ValueError):
        TaskSpec(kind="kv_recall", seq_len=20, pairs=3, distances=(17,), samples=2)
    with pytest.raises(ValueError):  # mixed parity cannot fit one geometry
        TaskSpec.kv_recall(distances=(16, 17), samples=2)
    with pytest.raises(ValueError):  # distance needs more pairs than fit
        TaskSpec(kind="kv_recall", seq_len=10, pairs=2, distances=(2,), samples=2)


def test_corpus_spec_needs_path_and_seq_len():
    for given in ({"seq_len": 8}, {"corpus_path": "corpus.txt"}):
        with pytest.raises(ValueError, match="corpus task needs corpus_path and seq_len"):
            TaskSpec(kind="corpus", **given)
    assert TaskSpec(kind="corpus", seq_len=8, corpus_path="corpus.txt").samples == 0


def test_kv_protected_positions():
    spec = TaskSpec.kv_recall(distances=(6,), samples=4, seed=1)
    lay = VocabLayout.synthetic(32, n_keys=spec.pairs)
    batch = gen_kv_recall(spec, lay, Rng(1))
    assert batch.protected[:, -2:].all()
    assert not batch.protected[:, :-2].any()


# --------------------------------------------------------------------------
# corpus
# --------------------------------------------------------------------------


def corpus_spec(path, seq_len=1, val_fraction=0.1):
    return TaskSpec(kind="corpus", seq_len=seq_len, corpus_path=str(path),
                    val_fraction=val_fraction)


def stream_ids(windows):
    """The token ids that windows of seq_len 1 cover, in order."""
    return np.append(windows.tokens[:, 0], windows.targets[-1, 0])


def test_corpus_smallest_file(tmp_path):
    path = tmp_path / "four.bin"
    path.write_bytes(b"abcd")
    lay = VocabLayout.bytes_()
    train, val = load_corpus(corpus_spec(path, val_fraction=0.5), lay)
    assert train.n_rows == 1 and val.n_rows == 1
    assert train.tokens[0, 0] == ord("a") and train.targets[0, 0] == ord("b")
    assert val.tokens[0, 0] == ord("c") and val.targets[0, 0] == ord("d")


def test_corpus_split_fractions(tmp_path):
    path = tmp_path / "corpus.bin"
    path.write_bytes(bytes(range(256)) * 4)  # 1024 bytes
    lay = VocabLayout.bytes_()
    train, val = load_corpus(corpus_spec(path), lay)
    assert len(stream_ids(train)) == 922 and len(stream_ids(val)) == 102
    path2 = tmp_path / "k.bin"
    path2.write_bytes(b"x" * 1000)
    train, val = load_corpus(corpus_spec(path2), lay)
    assert len(stream_ids(train)) == 900 and len(stream_ids(val)) == 100


def test_corpus_round_trip(tmp_path):
    payload = bytes([7, 255, 0, 13]) * 100
    path = tmp_path / "rt.bin"
    path.write_bytes(payload)
    lay = VocabLayout.bytes_()
    train, val = load_corpus(corpus_spec(path, val_fraction=0.3), lay)
    assert np.append(stream_ids(train), stream_ids(val)).tolist() == list(payload)


def test_corpus_errors(tmp_path):
    lay = VocabLayout.bytes_()
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    with pytest.raises(ValueError):
        load_corpus(corpus_spec(empty), lay)
    small = tmp_path / "one.bin"
    small.write_bytes(b"z")
    with pytest.raises(ValueError, match="shorter than one window"):
        load_corpus(corpus_spec(small, seq_len=4), lay)


# --------------------------------------------------------------------------
# noise injection
# --------------------------------------------------------------------------


def _kv_batch(samples=50, seed=0):
    spec = TaskSpec.kv_recall(distances=(8, 12), samples=samples, seed=seed)
    lay = VocabLayout.synthetic(48, n_keys=spec.pairs)
    return gen_kv_recall(spec, lay, Rng(seed)), lay


def test_noise_p0_is_identity():
    batch, lay = _kv_batch()
    noisy = inject_noise(batch, 0.0, lay, Rng(4))
    np.testing.assert_array_equal(noisy.tokens, batch.tokens)


def test_noise_p1_replaces_all_unprotected():
    batch, lay = _kv_batch()
    noisy = inject_noise(batch, 1.0, lay, Rng(4))
    lo, hi = lay.payload_range
    unprotected = ~batch.protected
    assert (noisy.tokens[unprotected] >= lo).all()
    assert (noisy.tokens[unprotected] < hi).all()
    np.testing.assert_array_equal(noisy.tokens[batch.protected], batch.tokens[batch.protected])


def test_noise_never_touches_targets_mask_meta():
    batch, lay = _kv_batch()
    noisy = inject_noise(batch, 0.7, lay, Rng(5))
    np.testing.assert_array_equal(noisy.targets, batch.targets)
    np.testing.assert_array_equal(noisy.loss_mask, batch.loss_mask)
    np.testing.assert_array_equal(noisy.meta, batch.meta)


def test_noise_replacement_fraction_monte_carlo():
    # 1e5 positions at p=0.2; byte vocab so unchanged-redraw bias is ~p/256
    lay = VocabLayout.bytes_()
    tokens = Rng(8).integers(0, 256, size=(100, 1000))
    batch = Batch(
        tokens=tokens,
        targets=tokens.copy(),
        loss_mask=np.ones_like(tokens, dtype=bool),
    )
    noisy = inject_noise(batch, 0.2, lay, Rng(12))
    frac = float((noisy.tokens != batch.tokens).mean())
    assert abs(frac - 0.2) <= 0.005


def test_noise_deterministic():
    batch, lay = _kv_batch()
    a = inject_noise(batch, 0.3, lay, Rng(6))
    b = inject_noise(batch, 0.3, lay, Rng(6))
    np.testing.assert_array_equal(a.tokens, b.tokens)


def test_noise_bad_level():
    batch, lay = _kv_batch()
    with pytest.raises(ValueError):
        inject_noise(batch, 1.5, lay, Rng(1))


# --------------------------------------------------------------------------
# batching / splitting
# --------------------------------------------------------------------------


def test_batches_group_sizes():
    spec = TaskSpec(kind="copy", seq_len=6, samples=10, seed=1)
    ds = gen_copy(spec, LAYOUT64, Rng(1))
    sizes = [b.n_rows for b in batches(ds, 3)]
    assert sizes == [3, 3, 3, 1]


def test_batches_order_preserved_without_shuffle():
    spec = TaskSpec(kind="copy", seq_len=6, samples=7, seed=2)
    ds = gen_copy(spec, LAYOUT64, Rng(2))
    got = np.concatenate([b.tokens for b in batches(ds, 2)])
    np.testing.assert_array_equal(got, ds.tokens)


def test_batches_shuffle_deterministic():
    spec = TaskSpec(kind="copy", seq_len=6, samples=30, seed=3)
    ds = gen_copy(spec, LAYOUT64, Rng(3))
    a = np.concatenate([b.tokens for b in batches(ds, 4, Rng(77))])
    b = np.concatenate([b.tokens for b in batches(ds, 4, Rng(77))])
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, ds.tokens)


def test_split_disjoint():
    spec = TaskSpec(kind="copy", seq_len=6, samples=100, seed=4)
    ds = gen_copy(spec, LAYOUT64, Rng(4))
    train, val = split_train_val(ds, 0.1)
    assert train.n_rows == 90 and val.n_rows == 10


def test_split_needs_two_rows():
    ds = gen_copy(TaskSpec(kind="copy", seq_len=6, samples=2, seed=4), LAYOUT64, Rng(4))
    train, val = split_train_val(ds, 0.1)
    assert train.n_rows == 1 and val.n_rows == 1
    with pytest.raises(ValueError, match=r"cannot split 1 row\(s\)"):
        split_train_val(ds.rows(slice(0, 1)), 0.1)


def test_build_task_data_kv():
    spec = TaskSpec.kv_recall(distances=(8,), samples=50, seed=5)
    lay = VocabLayout.synthetic(48, n_keys=spec.pairs)
    train, val = build_task_data(spec, lay)
    assert train.n_rows == 45 and val.n_rows == 5
    assert train.meta is not None

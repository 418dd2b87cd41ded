"""Container round trips, metrics CSV schema, config parsing strictness."""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from synres import numcore as nc
from synres import persist
from synres.datagen import TaskSpec, VocabLayout, gen_copy, gen_kv_recall
from synres.model import GateMode, ModelConfig, forward, init_params
from synres.persist import (
    CheckpointError,
    ConfigError,
    MetricsRow,
    MetricsSink,
    RunSpec,
    config_text,
    load_checkpoint,
    load_config,
    load_dataset,
    save_checkpoint,
    save_config,
    save_dataset,
)
from synres.train import TrainConfig

CFG = ModelConfig(vocab_size=16, d_model=8, n_heads=2, n_layers=2, d_ff=16, max_seq_len=8)
TCFG = TrainConfig(epochs=2, batch_size=4, lr=0.01, ppl_threshold=24.0, seed=3)


# --------------------------------------------------------------------------
# checkpoints
# --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_checkpoint_round_trip_bitwise(tmp_path, seed, dtype):
    params = init_params(CFG, nc.Rng(seed), dtype=dtype)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, TCFG, seed=3, epoch=1)
    ckpt = load_checkpoint(path)
    assert ckpt.seed == 3 and ckpt.epoch == 1
    assert ckpt.params.config == CFG
    assert ckpt.train_config == TCFG
    for (na, ta), (nb, tb) in zip(params.named_tensors(), ckpt.params.named_tensors()):
        assert na == nb and ta.dtype == tb.dtype
        np.testing.assert_array_equal(ta.data, tb.data)


def test_checkpoint_save_load_save_byte_identical(tmp_path):
    params = init_params(CFG, nc.Rng(2))
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, params, TCFG, seed=3, epoch=0)
    ckpt = load_checkpoint(p1)
    save_checkpoint(p2, ckpt.params, ckpt.train_config, ckpt.seed, ckpt.epoch)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_forward_bitwise_after_reload(tmp_path):
    params = init_params(CFG, nc.Rng(4))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, TCFG, seed=0, epoch=0)
    reloaded = load_checkpoint(path).params
    tokens = [1, 2, 3, 4]
    a, _ = forward(params, tokens)
    b, _ = forward(reloaded, tokens)
    np.testing.assert_array_equal(a.data, b.data)


def test_checkpoint_float64_width_preserved(tmp_path):
    params = init_params(CFG, nc.Rng(5), dtype=np.float64)
    path = tmp_path / "model64.ckpt"
    save_checkpoint(path, params, TCFG, seed=0, epoch=0)
    reloaded = load_checkpoint(path).params
    assert reloaded.dtype == np.float64


def test_checkpoint_truncation_names_entry(tmp_path):
    params = init_params(CFG, nc.Rng(6))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, TCFG, seed=0, epoch=0)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 100])
    with pytest.raises(CheckpointError, match="unembed"):
        load_checkpoint(path)


def test_checkpoint_bad_header_value_names_entry(tmp_path):
    params = init_params(CFG, nc.Rng(6))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, TCFG, seed=0, epoch=0)
    path.write_bytes(path.read_bytes().replace(b"model.d_model 8\n", b"model.d_model eight\n"))
    with pytest.raises(CheckpointError, match="model.d_model"):
        load_checkpoint(path)


def test_checkpoint_garbage_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


class _UnreadableArray:
    """A float32 [1 x 1] manifest entry whose bytes cannot be read, so a
    container write raises when it reaches them, after the header and the
    tensors before it."""

    dtype, shape, nbytes = np.dtype(np.float32), (1, 1), 4

    def __array__(self, *args, **kwargs):
        raise OSError("no space left on device")


def _raise_os_error(*args, **kwargs):
    raise OSError("no space left on device")


@pytest.mark.parametrize("failing", ["payload", "fsync", "replace"])
def test_a_failed_save_leaves_the_previous_checkpoint(tmp_path, monkeypatch, failing):
    path = tmp_path / "last.ckpt"
    old = init_params(CFG, nc.Rng(5))
    save_checkpoint(path, old, TCFG, seed=3, epoch=1)
    before = path.read_bytes()
    new = init_params(CFG, nc.Rng(6))
    with pytest.raises(OSError, match="no space left"):
        if failing == "payload":
            arrays = [(name, t.data) for name, t in new.named_tensors()]
            header = {"model": new.config, "train": TCFG, "seed": 3, "epoch": 2}
            persist._write_container(path, "checkpoint", header,
                                     arrays[:3] + [("unreadable", _UnreadableArray())] + arrays[3:])
        else:
            monkeypatch.setattr(os, failing, _raise_os_error)
            save_checkpoint(path, new, TCFG, seed=3, epoch=2)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [path]  # no temp file behind
    loaded = load_checkpoint(path)
    assert loaded.epoch == 1
    for (name, a), (_, b) in zip(old.named_tensors(), loaded.params.named_tensors()):
        assert a.data.tobytes() == b.data.tobytes(), name
    # the next save goes through and replaces the file whole
    save_checkpoint(path, new, TCFG, seed=3, epoch=2)
    assert load_checkpoint(path).epoch == 2 and sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("failing", ["fsync", "replace"])
def test_a_failed_config_write_leaves_the_previous_config(tmp_path, monkeypatch, failing):
    # config.txt goes through the same atomic writer as a checkpoint
    path = tmp_path / "config.txt"
    save_config(path, RunSpec(model=CFG, train=TCFG, task=None))
    before = path.read_bytes()
    monkeypatch.setattr(os, failing, _raise_os_error)
    with pytest.raises(OSError, match="no space left"):
        save_config(path, RunSpec(model=CFG, train=None, task=None))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [path]  # no temp file behind
    assert load_config(path).train == TCFG


# --------------------------------------------------------------------------
# dataset artifacts
# --------------------------------------------------------------------------


def test_dataset_with_bytes_after_its_last_tensor_is_corrupt(tmp_path):
    # datasets share the container, and with it the layout check
    spec = TaskSpec(kind="copy", seq_len=8, samples=4, seed=1)
    layout = VocabLayout.synthetic(16)
    path = tmp_path / "data.ds"
    save_dataset(path, gen_copy(spec, layout, nc.Rng(1)), spec, layout)
    blob = path.read_bytes()
    size = len(blob) - blob.index(b"\n\n") - 2
    path.write_bytes(blob + bytes(8))
    message = f"data.ds: payload of {size + 8} bytes, manifest sums to {size}$"
    with pytest.raises(CheckpointError, match=message):
        load_dataset(path)


@pytest.mark.parametrize("kind", ["kv_recall", "copy"])
def test_dataset_round_trip(tmp_path, kind):
    if kind == "kv_recall":
        spec = TaskSpec.kv_recall(distances=(4, 6), samples=30, seed=7)
        layout = VocabLayout.synthetic(32, n_keys=spec.pairs)
        batch = gen_kv_recall(spec, layout, nc.Rng(7))
    else:  # pairs 0, distances none, corpus_path none in the header
        spec = TaskSpec(kind="copy", seq_len=8, samples=30, seed=7)
        layout = VocabLayout.synthetic(32)
        batch = gen_copy(spec, layout, nc.Rng(7))
    path = tmp_path / "task.ds"
    save_dataset(path, batch, spec, layout)
    loaded, spec2, layout2 = load_dataset(path)
    assert spec2 == spec and layout2 == layout
    np.testing.assert_array_equal(loaded.tokens, batch.tokens)
    np.testing.assert_array_equal(loaded.targets, batch.targets)
    np.testing.assert_array_equal(loaded.loss_mask, batch.loss_mask)
    for extra in ("meta", "protected"):
        if getattr(batch, extra) is None:
            assert getattr(loaded, extra) is None
        else:
            np.testing.assert_array_equal(getattr(loaded, extra), getattr(batch, extra))


def test_dataset_kind_mismatch(tmp_path):
    params = init_params(CFG, nc.Rng(8))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, TCFG, seed=0, epoch=0)
    with pytest.raises(CheckpointError, match="kind"):
        load_dataset(path)


# --------------------------------------------------------------------------
# what a container's header and manifest may hold
# --------------------------------------------------------------------------


def _kv_dataset(path):
    """A kv_recall artifact, which holds every optional tensor."""
    spec = TaskSpec.kv_recall(distances=(4, 6), samples=6, seed=7)
    layout = VocabLayout.synthetic(32, n_keys=spec.pairs)
    save_dataset(path, gen_kv_recall(spec, layout, nc.Rng(7)), spec, layout)


def _tiny_checkpoint(path):
    cfg = ModelConfig(vocab_size=16, d_model=8, n_heads=2, n_layers=1, d_ff=16, max_seq_len=8)
    save_checkpoint(path, init_params(cfg, nc.Rng(1)), TCFG, seed=3, epoch=1)


_SAVE = {"checkpoint": _tiny_checkpoint, "dataset": _kv_dataset}
_LOAD = {"checkpoint": load_checkpoint, "dataset": load_dataset}


def _header_lines_of(kind: str) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        _SAVE[kind](Path(tmp) / kind)
        blob = (Path(tmp) / kind).read_bytes()
    return blob[: blob.index(b"\n\n")].decode().split("\n")


_HEADER_LINES = [(kind, line) for kind in _SAVE for line in _header_lines_of(kind)]


@pytest.mark.parametrize("edit", ["delete", "repeat"])
@pytest.mark.parametrize("kind,line", _HEADER_LINES, ids=[
    f"{kind}:{'.'.join(line.split()[:2]) if line.startswith('tensor ') else line.split()[0]}"
    for kind, line in _HEADER_LINES])
def test_deleting_or_repeating_any_header_line_is_corrupt(tmp_path, kind, line, edit):
    # every line of the header is indexed: none may go missing or come twice
    path = tmp_path / kind
    _SAVE[kind](path)
    blob = path.read_bytes()
    sep = blob.index(b"\n\n")
    lines = blob[:sep].decode().split("\n")
    at = lines.index(line)
    lines[at : at + 1] = [] if edit == "delete" else [line, line]
    path.write_bytes("\n".join(lines).encode() + blob[sep:])
    with pytest.raises(CheckpointError, match=str(path)):
        _LOAD[kind](path)


@pytest.mark.parametrize("kind,line,added,message", [
    # the last value won: a second epoch line set the loaded epoch
    ("checkpoint", "epoch 1", "epoch 7", "header key epoch repeated"),
    ("checkpoint", "model.sigma_init 0.02", "model.sigma_init 0.5",
     "header key model.sigma_init repeated"),
    ("checkpoint", "epoch 1", "bogus 1", "header key bogus is not part of a checkpoint"),
    ("dataset", "task.samples 6", "task.samples 6", "header key task.samples repeated"),
    ("dataset", "layout.vocab_size 32", "bogus 1", "header key bogus is not part of a dataset"),
])
def test_a_repeated_or_stray_header_key_is_corrupt_and_named(tmp_path, kind, line, added, message):
    path = tmp_path / kind
    _SAVE[kind](path)
    blob = path.read_bytes()
    assert blob.count(f"\n{line}\n".encode()) == 1
    path.write_bytes(blob.replace(f"\n{line}\n".encode(), f"\n{line}\n{added}\n".encode()))
    with pytest.raises(CheckpointError, match=f"{kind}: {message}$"):
        _LOAD[kind](path)


@pytest.mark.parametrize("name,dtype,expected", [
    ("tokens", np.float64, "int64"),  # loaded, then failed Batch.validate with exit 2
    ("targets", np.bool_, "int64"),
    ("loss_mask", np.float32, "bool"),  # loaded, cast to bool without a word
    ("meta", np.float64, "int64"),
    ("protected", np.int64, "bool"),
])
def test_a_dataset_array_in_another_dtype_is_corrupt_and_named(tmp_path, name, dtype, expected):
    path = tmp_path / "data.ds"
    _kv_dataset(path)
    batch, spec, layout = load_dataset(path)
    arrays = {"tokens": batch.tokens, "targets": batch.targets, "loss_mask": batch.loss_mask,
              "meta": batch.meta.reshape(-1, 1), "protected": batch.protected}
    arrays[name] = arrays[name].astype(dtype)
    persist._write_container(path, "dataset", {"task": spec, "layout": layout},
                             list(arrays.items()))
    message = f"tensor {name}: dtype {np.dtype(dtype)}, expected {expected}$"
    with pytest.raises(CheckpointError, match=message):
        load_dataset(path)


def test_a_checkpoint_tensor_of_no_float_dtype_is_corrupt_and_named(tmp_path):
    path = tmp_path / "model.ckpt"
    params = init_params(CFG, nc.Rng(2))
    arrays = [(name, t.data) for name, t in params.named_tensors()]
    arrays[1] = (arrays[1][0], arrays[1][1] > 0)  # pos_emb stored as b1
    persist._write_container(path, "checkpoint",
                             {"model": CFG, "train": TCFG, "seed": 3, "epoch": 1}, arrays)
    with pytest.raises(CheckpointError, match="tensor pos_emb: dtype bool, expected a float dtype$"):
        load_checkpoint(path)


def test_a_dataset_tensor_outside_its_table_is_corrupt_and_named(tmp_path):
    path = tmp_path / "data.ds"
    _kv_dataset(path)
    batch, spec, layout = load_dataset(path)
    arrays = [("tokens", batch.tokens), ("targets", batch.targets),
              ("loss_mask", batch.loss_mask), ("weights", batch.tokens)]
    persist._write_container(path, "dataset", {"task": spec, "layout": layout}, arrays)
    with pytest.raises(CheckpointError, match="tensor weights: not part of a dataset$"):
        load_dataset(path)


# --------------------------------------------------------------------------
# metrics sink
# --------------------------------------------------------------------------


def test_metrics_sink_schema_and_append(tmp_path):
    path = tmp_path / "metrics.csv"
    row = MetricsRow(run_id="abc", epoch=0, phase="train", metric="loss",
                     value=1.5, gate_mode="learned", seed=7, wall_ms=12.5)
    with MetricsSink(path) as sink:  # each write appends a row under one header
        sink.write(row)
        sink.write(row)
    lines = path.read_text().splitlines()
    assert lines[0] == "run_id,epoch,phase,metric,value,gate_mode,seed,wall_ms"
    assert lines[1] == lines[2] == "abc,0,train,loss,1.5,learned,7,12.5"
    assert len(lines) == 3
    with MetricsSink(path) as sink:  # a second sink on the file starts it afresh
        sink.write(row)
    assert path.read_text().splitlines() == lines[:2]


# --------------------------------------------------------------------------
# config files
# --------------------------------------------------------------------------

GOOD_CONFIG = """\
[model]
vocab_size = 16
d_model = 8
n_heads = 2
n_layers = 2
d_ff = 16
max_seq_len = 8
sigma_init = 0.02
gate_mode = learned

[train]
epochs = 2
batch_size = 4
lr = 0.01
lr_decay = 0.5
ppl_threshold = none
reg_weight = 0.0001
grad_clip = none
seed = 3
min_lr = 1e-06

[task]
kind = copy
seq_len = 8
pairs = 0
distances = none
samples = 40
seed = 1
val_fraction = 0.1
corpus_path = none
"""


def test_config_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(GOOD_CONFIG)
    spec = load_config(path)
    assert spec.model == CFG
    assert spec.train.ppl_threshold is None
    assert spec.task.kind == "copy" and spec.task.distances == ()
    out = tmp_path / "frozen.cfg"
    save_config(out, spec)
    assert load_config(out) == spec


def test_config_kv_recall_by_distances_alone(tmp_path):
    # the spec derives seq_len and pairs, as TaskSpec.kv_recall does
    path = tmp_path / "kv.cfg"
    path.write_text("[task]\nkind = kv_recall\ndistances = 4,6\nsamples = 24\n")
    task = load_config(path).task
    assert task == TaskSpec.kv_recall(distances=(4, 6), samples=24)
    assert (task.seq_len, task.pairs) == (8, 2)
    out = tmp_path / "frozen.cfg"
    save_config(out, RunSpec(model=None, train=None, task=task))
    assert "seq_len = 8\npairs = 2\n" in out.read_text()
    assert load_config(out).task == task


def test_config_inline_comments(tmp_path):
    plain, commented = tmp_path / "plain.cfg", tmp_path / "commented.cfg"
    plain.write_text(GOOD_CONFIG)
    commented.write_text(GOOD_CONFIG.replace(
        "ppl_threshold = none", "ppl_threshold = none   ; none resolves to 1.5 * vocab_size"
    ).replace("kind = copy", "kind = copy  # copy | kv_recall | corpus"))
    assert load_config(commented) == load_config(plain)


def test_config_unknown_key_is_hard_error(tmp_path):
    path = tmp_path / "typo.cfg"
    path.write_text(GOOD_CONFIG.replace("lr = 0.01", "lr = 0.01\nlearningrate = 0.5"))
    with pytest.raises(ConfigError, match="learningrate"):
        load_config(path)


def test_config_unknown_section_is_hard_error(tmp_path):
    path = tmp_path / "extra.cfg"
    path.write_text(GOOD_CONFIG + "\n[optimizer]\nmomentum = 0.9\n")
    with pytest.raises(ConfigError, match="optimizer"):
        load_config(path)


def test_config_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="nope.cfg"):
        load_config(tmp_path / "nope.cfg")


def test_config_bad_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(GOOD_CONFIG.replace("epochs = 2", "epochs = two"))
    with pytest.raises(ConfigError, match="epochs"):
        load_config(path)


def test_config_text_is_canonical():
    spec = RunSpec(model=CFG, train=TCFG, task=None)
    assert config_text(spec) == config_text(spec)
    assert "[model]" in config_text(spec) and "[task]" not in config_text(spec)

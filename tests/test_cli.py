"""Command surface: exit codes, artifacts, determinism of emitted files."""

import itertools
import os
import platform
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from synres import cli, evalsuite
from synres.cli import _task_from_flags, build_parser, main
from synres.datagen import TaskSpec
from synres.evalsuite import (
    DEFAULT_NOISE_LEVELS, noise_robustness, perplexity, retention_probe, score,
)
from synres.model import GateMode, ModelConfig, count_flops, init_params
from synres.numcore import Rng, Tensor2, randn
from synres.persist import load_checkpoint, load_dataset, load_config, save_checkpoint, save_dataset
from synres.train import TrainConfig

SMALL_CONFIG = """\
[model]
vocab_size = 32
d_model = 16
n_heads = 2
n_layers = 1
d_ff = 32
max_seq_len = 16

[train]
epochs = 2
batch_size = 8
lr = 0.5
seed = 11

[task]
kind = copy
seq_len = 10
samples = 48
seed = 2
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CONFIG)
    return path


def metrics_body(path):
    """CSV body with the wall-clock column dropped."""
    lines = path.read_text().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


# --------------------------------------------------------------------------
# train
# --------------------------------------------------------------------------


def test_train_missing_config_exit2(tmp_path, capsys):
    rc = main(["train", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "missing.cfg" in capsys.readouterr().err


def test_train_artifacts(config_path, tmp_path):
    out = tmp_path / "run1"
    assert main(["train", str(config_path), "--out", str(out)]) == 0
    assert (out / "config.txt").exists()
    assert (out / "last.ckpt").exists() and (out / "best.ckpt").exists()
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("run_id,epoch,phase,metric,value,gate_mode,seed,wall_ms")
    assert len(lines) > 1
    ckpt = load_checkpoint(out / "last.ckpt")
    assert ckpt.epoch == 1
    assert ckpt.train_config.ppl_threshold == 48.0  # resolved 1.5 * vocab


def test_train_deterministic_metrics_bodies(config_path, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["train", str(config_path), "--out", str(out1)]) == 0
    assert main(["train", str(config_path), "--out", str(out2)]) == 0
    assert metrics_body(out1 / "metrics.csv") == metrics_body(out2 / "metrics.csv")


def test_train_overrides(config_path, tmp_path):
    out = tmp_path / "ov"
    rc = main(["train", str(config_path), "--out", str(out),
               "--seed", "99", "--gate-mode", "disabled"])
    assert rc == 0
    ckpt = load_checkpoint(out / "last.ckpt")
    assert ckpt.seed == 99
    assert ckpt.params.config.gate_mode == GateMode.DISABLED
    assert "gate_mode = disabled" in (out / "config.txt").read_text()


def test_train_numeric_abort_exit3(config_path, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL_CONFIG.replace("lr = 0.5", "lr = 1e30"))
    rc = main(["train", str(bad), "--out", str(tmp_path / "o3")])
    assert rc == 3
    assert "numeric" in capsys.readouterr().err


@pytest.mark.parametrize("task,message", [
    ("kind = copy\nseq_len = 34", "dataset seq_len 34 exceeds model max 16"),
    ("kind = corpus\nseq_len = 10\ncorpus_path = corpus.txt", "corpus tasks need vocab_size 261"),
], ids=["seq_len", "corpus_vocab"])
def test_train_task_that_does_not_fit_the_model_exit2_before_writing(tmp_path, capsys, task,
                                                                     message):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL_CONFIG.replace("kind = copy\nseq_len = 10", task))
    out = tmp_path / "o"
    assert main(["train", str(bad), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_train_on_a_missing_corpus_exit4_before_writing(tmp_path, capsys):
    missing = tmp_path / "missing_corpus.txt"
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL_CONFIG.replace("vocab_size = 32", "vocab_size = 261").replace(
        "kind = copy\nseq_len = 10", f"kind = corpus\nseq_len = 10\ncorpus_path = {missing}"))
    out = tmp_path / "o"
    assert main(["train", str(bad), "--out", str(out)]) == 4
    assert str(missing) in capsys.readouterr().err
    assert not out.exists()


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------


@pytest.fixture
def trained(config_path, tmp_path):
    out = tmp_path / "trained"
    assert main(["train", str(config_path), "--out", str(out)]) == 0
    return out / "last.ckpt"


def test_eval_truncated_checkpoint_exit5(trained, tmp_path, capsys):
    broken = tmp_path / "broken.ckpt"
    blob = trained.read_bytes()
    broken.write_bytes(blob[:-50])
    rc = main(["eval", str(broken), "--task", "copy", "--seq-len", "10",
               "--vocab-size", "32", "--samples", "8"])
    assert rc == 5
    assert "corrupt" in capsys.readouterr().err


@pytest.mark.parametrize("name,shape,expected", [
    ("unembed", (16, 38), (16, 32)),
    ("pos_emb", (10, 16), (16, 16)),
])
def test_eval_mis_shaped_tensor_exit5_names_it(config_path, tmp_path, capsys, name, shape, expected):
    spec = load_config(config_path)
    params = init_params(spec.model, Rng(0))
    bad = replace(params, **{name: randn(*shape, 0.02, Rng(1))})
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, bad, spec.train, seed=0, epoch=0)
    rc = main(["eval", str(path), "--task", "copy", "--seq-len", "10",
               "--vocab-size", "32", "--samples", "8"])
    assert rc == 5
    err = capsys.readouterr().err
    assert f"corrupt checkpoint: {path}: tensor {name}: shape {shape}, expected {expected}" in err


def test_eval_mis_typed_tensor_exit5_names_it(config_path, tmp_path, capsys):
    # an f8 unembed among f4 tensors would run a mixed-precision forward
    spec = load_config(config_path)
    params = init_params(spec.model, Rng(0))
    bad = replace(params, unembed=Tensor2(params.unembed.data.astype(np.float64)))
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, bad, spec.train, seed=0, epoch=0)
    rc = main(["eval", str(path), "--task", "copy", "--seq-len", "10",
               "--vocab-size", "32", "--samples", "8"])
    assert rc == 5
    err = capsys.readouterr().err
    assert f"corrupt checkpoint: {path}: tensor unembed: dtype float64, expected float32" in err


def test_eval_non_float_tensor_exit5_names_it(config_path, tmp_path, capsys):
    # an f8 tensor relabelled i8 in the manifest keeps its byte count
    spec = load_config(config_path)
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, init_params(spec.model, Rng(0), dtype=np.float64), spec.train,
                    seed=0, epoch=0)
    blob = path.read_bytes()
    line = b"tensor layer0.w_v 16 16 f8 "
    assert blob.count(line) == 1
    path.write_bytes(blob.replace(line, line.replace(b"f8", b"i8")))
    rc = main(["eval", str(path), "--task", "copy", "--seq-len", "10",
               "--vocab-size", "32", "--samples", "8"])
    assert rc == 5
    err = capsys.readouterr().err
    assert f"corrupt checkpoint: {path}: tensor layer0.w_v: dtype int64, expected a float dtype" in err


def test_eval_noise_levels_flag(trained, tmp_path):
    out = tmp_path / "ev"
    rc = main(["eval", str(trained), "--task", "copy", "--seq-len", "10",
               "--vocab-size", "32", "--samples", "16",
               "--noise-levels", "0,10,20,30", "--out", str(out)])
    assert rc == 0
    text = (out / "eval.csv").read_text()
    for level in (0, 10, 20, 30):
        assert f"error_rate_at_noise_{level}" in text
    assert "perplexity" in text


def test_eval_metrics_flag_rejects_unknown_names(trained, tmp_path, capsys):
    args = ["eval", str(trained), "--task", "kv_recall", "--distances", "4,6", "--samples", "24"]
    assert main(args + ["--metrics", "perplxity,noise,coherance"]) == 2
    assert "--metrics: unknown coherance, perplxity" in capsys.readouterr().err
    out = tmp_path / "picked"
    assert main(args + ["--metrics", "perplexity,noise", "--out", str(out)]) == 0
    metrics = [line.split(",")[3] for line in (out / "eval.csv").read_text().splitlines()[1:]]
    assert metrics == ["perplexity"] + [f"error_rate_at_noise_{lv}" for lv in DEFAULT_NOISE_LEVELS]


EVAL_TASKS = {
    "kv_recall": ["--task", "kv_recall", "--distances", "4,6"],
    "copy": ["--task", "copy", "--seq-len", "10"],
}


def _eval_forwards(monkeypatch, ckpt, task, *flags) -> float:
    """evalsuite.forward_batch calls per 64-row chunk of one eval command."""
    calls = []
    real = evalsuite.forward_batch
    monkeypatch.setattr(evalsuite, "forward_batch", lambda *a, **k: calls.append(1) or real(*a, **k))
    assert main(["eval", str(ckpt), *EVAL_TASKS[task], "--samples", "128", *flags]) == 0
    monkeypatch.undo()
    return len(calls) / 2


@pytest.fixture
def random_ckpt(tmp_path):
    path = tmp_path / "random.ckpt"
    cfg = ModelConfig(vocab_size=32, d_model=8, n_heads=2, n_layers=1, d_ff=16, max_seq_len=10)
    save_checkpoint(path, init_params(cfg, Rng(3)), TrainConfig(epochs=1, batch_size=4), 3, 0)
    return path


def test_eval_forwards_the_clean_data_once(random_ckpt, monkeypatch):
    # every metric reads one clean pass; each nonzero noise level adds one
    assert _eval_forwards(monkeypatch, random_ckpt, "kv_recall") == 4  # 6 before
    assert _eval_forwards(monkeypatch, random_ckpt, "copy") == 4  # 6 before
    for task in EVAL_TASKS:
        assert _eval_forwards(monkeypatch, random_ckpt, task, "--metrics", "noise",
                              "--noise-levels", "10,20") == 2


def test_eval_forwards_no_more_than_one_pass_per_metric(random_ckpt, monkeypatch):
    # the count before one clean pass served them all: perplexity, retention
    # (kv_recall) and coherence (copy) one pass each, and one per noise level
    for task in EVAL_TASKS:
        kv = task == "kv_recall"
        for size in range(1, len(cli.EVAL_METRICS) + 1):
            for picked in itertools.combinations(cli.EVAL_METRICS, size):
                for levels in ((0, 10), (10,)):
                    reads = {"perplexity", "retention" if kv else "coherence"} & set(picked)
                    noise = len(levels) if "noise" in picked else 0
                    level0 = noise > 0 and 0 in levels
                    before = len(reads) + noise
                    want = (bool(reads) or level0) + noise - level0
                    got = _eval_forwards(monkeypatch, random_ckpt, task, "--metrics",
                                         ",".join(picked), "--noise-levels",
                                         ",".join(map(str, levels)))
                    assert got == want <= before, (task, picked, levels)


def test_eval_rejects_decreasing_noise_levels_before_scoring(random_ckpt, monkeypatch, capsys):
    calls = []
    real = evalsuite.forward_batch
    monkeypatch.setattr(evalsuite, "forward_batch", lambda *a, **k: calls.append(1) or real(*a, **k))
    assert main(["eval", str(random_ckpt), *EVAL_TASKS["kv_recall"], "--samples", "256",
                 "--metrics", "noise", "--noise-levels", "30,20,10"]) == 2
    assert "strictly increasing" in capsys.readouterr().err
    assert calls == []


def test_eval_deterministic(trained, tmp_path):
    args = ["eval", str(trained), "--task", "kv_recall", "--distances", "4,6",
            "--vocab-size", "32", "--samples", "24"]
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "eval.csv").read_text() == (out2 / "eval.csv").read_text()
    assert "retention_percent" in (out1 / "eval.csv").read_text()


def test_eval_run_id_follows_checkpoint_content(trained, tmp_path):
    args = ["--task", "copy", "--seq-len", "10", "--vocab-size", "32", "--samples", "8"]
    bodies = []
    for name in ("a", "b"):
        copy = tmp_path / name / f"{name}.ckpt"
        copy.parent.mkdir()
        copy.write_bytes(trained.read_bytes())
        assert main(["eval", str(copy), *args, "--out", str(tmp_path / f"ev_{name}")]) == 0
        bodies.append((tmp_path / f"ev_{name}" / "eval.csv").read_text())
    assert bodies[0] == bodies[1]


def test_eval_run_id_names_the_bytes_it_loaded(trained, random_ckpt, tmp_path, monkeypatch):
    # a train that replaces the checkpoint right after eval has loaded it:
    # eval.csv still names the checkpoint it scored
    args = ["--task", "copy", "--seq-len", "10", "--vocab-size", "32", "--samples", "8"]
    assert main(["eval", str(trained), *args, "--out", str(tmp_path / "kept")]) == 0
    real = cli.load_checkpoint

    def load_then_swap(path):
        ckpt = real(path)
        trained.write_bytes(random_ckpt.read_bytes())
        return ckpt

    monkeypatch.setattr(cli, "load_checkpoint", load_then_swap)
    assert main(["eval", str(trained), *args, "--out", str(tmp_path / "swapped")]) == 0
    assert trained.read_bytes() == random_ckpt.read_bytes()
    kept, swapped = ((tmp_path / name / "eval.csv").read_text() for name in ("kept", "swapped"))
    assert swapped == kept


def _manifest(blob: bytes) -> tuple[dict[str, str], int]:
    """A container's manifest lines by tensor name, and its payload size."""
    end = blob.index(b"\n\n")
    lines = blob[:end].decode().splitlines()
    return {line.split()[1]: line for line in lines if line.startswith("tensor ")}, len(blob) - end - 2


def _relaid(blob: bytes) -> bytes:
    """A container whose manifest shapes were edited, laid out again: each
    tensor keeps the leading bytes its new shape holds, packed from offset 0."""
    end = blob.index(b"\n\n")
    lines, tensors, offset = [], [], 0
    for line in blob[:end].decode().splitlines():
        if line.startswith("tensor "):
            _, name, rows, cols, code, at = line.split()
            nbytes = int(rows) * int(cols) * {"f4": 4, "f8": 8, "i8": 8, "b1": 1}[code]
            tensors.append(blob[end + 2 + int(at) :][:nbytes])
            line = f"tensor {name} {rows} {cols} {code} {offset}"
            offset += nbytes
        lines.append(line)
    return ("\n".join(lines) + "\n\n").encode() + b"".join(tensors)


@pytest.mark.parametrize("edit", ["dimension", "repeated", "overlap", "trailing"])
def test_eval_container_layout_exit5_names_the_file(random_ckpt, capsys, edit):
    # the manifest lays the tensors out from offset 0 in order, each once,
    # with every dimension at least 1, and the payload ends with the last
    blob = random_ckpt.read_bytes()
    lines, size = _manifest(blob)
    tok, pos, w_q = lines["tok_emb"], lines["pos_emb"], lines["layer0.w_q"]
    rows, cols, offset = tok.split()[2], tok.split()[3], pos.split()[5]
    if edit == "dimension":  # reshape's ValueError escaped as exit 2
        blob = blob.replace(tok.encode(), f"tensor tok_emb -{rows} -{cols} f4 0".encode())
        message = f"tensor tok_emb: dimension below 1 in -{rows} x -{cols}"
    elif edit == "repeated":  # the last line for a name won, silently
        second = f"tensor tok_emb {rows} {cols} f4 {w_q.split()[5]}"
        blob = blob.replace(tok.encode(), f"{tok}\n{second}".encode())
        message = "tensor tok_emb: repeated in the manifest"
    elif edit == "overlap":  # two tensors read the same bytes
        blob = blob.replace(pos.encode(), pos.rsplit(" ", 1)[0].encode() + b" 0")
        message = f"tensor pos_emb: offset 0, expected {offset}"
    else:  # bytes after the last tensor were never read
        blob += bytes(4)
        message = f"payload of {size + 4} bytes, manifest sums to {size}"
    random_ckpt.write_bytes(blob)
    rc = main(["eval", str(random_ckpt), "--task", "copy", "--seq-len", "10", "--samples", "8"])
    assert rc == 5
    assert f"corrupt checkpoint: {random_ckpt}: {message}" in capsys.readouterr().err


def test_eval_csv_write_that_fails_leaves_the_previous_file(random_ckpt, tmp_path, monkeypatch):
    out = tmp_path / "ev"
    args = ["eval", str(random_ckpt), "--task", "copy", "--seq-len", "10", "--samples", "8",
            "--out", str(out)]
    assert main(args) == 0
    before = (out / "eval.csv").read_bytes()

    def no_space(*args, **kwargs):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", no_space)
    assert main(args + ["--metrics", "perplexity"]) == 4
    monkeypatch.undo()
    assert (out / "eval.csv").read_bytes() == before
    assert sorted(out.iterdir()) == [out / "eval.csv"]  # no temp file behind


def test_eval_from_artifact(trained, tmp_path):
    art = tmp_path / "data.ds"
    assert main(["gen-data", "--task", "kv_recall", "--distances", "4,6",
                 "--vocab-size", "32", "--samples", "20", "--out", str(art)]) == 0
    rc = main(["eval", str(trained), "--data", str(art), "--out", str(tmp_path / "ea")])
    assert rc == 0


def test_eval_by_flags_takes_the_checkpoints_vocab(trained, tmp_path, capsys):
    args = ["eval", str(trained), "--task", "kv_recall", "--distances", "4,6", "--samples", "24"]
    implied, explicit = tmp_path / "implied", tmp_path / "explicit"
    assert main(args + ["--out", str(implied)]) == 0
    assert main(args + ["--vocab-size", "32", "--out", str(explicit)]) == 0
    assert (implied / "eval.csv").read_text() == (explicit / "eval.csv").read_text()
    assert main(args + ["--vocab-size", "64"]) == 2
    assert "dataset vocab 64 != model vocab 32" in capsys.readouterr().err


@pytest.fixture
def artifact(tmp_path):
    art = tmp_path / "data.ds"
    assert main(["gen-data", "--task", "kv_recall", "--distances", "4,6",
                 "--vocab-size", "32", "--samples", "20", "--out", str(art)]) == 0
    return art


@pytest.mark.parametrize("line,short,message", [
    (b"tensor meta 20 1 i8 ", b"tensor meta 19 1 i8 ", "meta must be one entry per row"),
    # a [20 x 1] mask would broadcast over every position of its row
    (b"tensor protected 20 8 b1 ", b"tensor protected 20 1 b1 ", "protected shape mismatch"),
])
def test_eval_artifact_with_mis_shaped_rows_exit5(trained, artifact, capsys, line, short, message):
    blob = artifact.read_bytes()
    assert blob.count(line) == 1
    # laid out again for the new shape, so the container's layout holds and
    # the dataset's own row check is the one that fails
    artifact.write_bytes(_relaid(blob.replace(line, short)))
    assert main(["eval", str(trained), "--data", str(artifact)]) == 5
    assert f"{artifact}: {message}" in capsys.readouterr().err


@pytest.fixture
def fresh_ckpt(config_path, tmp_path):
    """An untrained checkpoint of the small config, whose vocab is 32."""
    spec = load_config(config_path)
    path = tmp_path / "fresh.ckpt"
    save_checkpoint(path, init_params(spec.model, Rng(0)), spec.train, seed=0, epoch=0)
    return path


@pytest.mark.parametrize("flags,named", [
    (["--samples", "999"], "--samples"),
    (["--samples", "1024"], "--samples"),  # given at its by-flags default too
    (["--task", "copy", "--seq-len", "10"], "--task, --seq-len"),
    (["--vocab-size", "32", "--task-seed", "3"], "--task-seed, --vocab-size"),
])
def test_eval_data_with_task_flags_exit2_names_them(fresh_ckpt, artifact, capsys, flags, named):
    # an artifact carries its task; a task flag beside it would be dropped
    assert main(["eval", str(fresh_ckpt), "--data", str(artifact), *flags]) == 2
    assert f"--data takes no task flags, got {named}" in capsys.readouterr().err


def test_by_flags_tasks_default_to_1024_samples(tmp_path):
    art = tmp_path / "copy.ds"
    assert main(["gen-data", "--task", "copy", "--seq-len", "10", "--out", str(art)]) == 0
    assert load_dataset(art)[1].samples == 1024
    args = build_parser().parse_args(["eval", "x.ckpt", "--task", "copy", "--seq-len", "10"])
    assert _task_from_flags(args).samples == 1024


@pytest.mark.parametrize("gen,line,edited,message", [
    ("copy", b"task.samples 20\n", b"task.samples 500\n",
     "header task.samples 500 and task.seq_len 10 disagree with the 20 x 10 tokens"),
    ("copy", b"task.seq_len 10\n", b"task.seq_len 12\n",
     "header task.samples 20 and task.seq_len 12 disagree with the 20 x 10 tokens"),
    ("kv_recall", b"task.distances 4,6\n", b"task.distances 4\n",
     "meta must give each row one of task.distances (4,)"),
    ("kv_recall", b"task.pairs 2\n", b"task.pairs 3\n",
     "header task.pairs 3 disagrees with the tokens: each row needs keys at even and values at"
     " odd positions below 6, then filler up to position 6"),
])
def test_eval_artifact_whose_header_disagrees_with_its_arrays_exit5(
    fresh_ckpt, tmp_path, capsys, gen, line, edited, message
):
    art = tmp_path / f"{gen}.ds"
    task = ["--seq-len", "10"] if gen == "copy" else ["--distances", "4,6"]
    assert main(["gen-data", "--task", gen, *task, "--vocab-size", "32", "--samples", "20",
                 "--out", str(art)]) == 0
    blob = art.read_bytes()
    assert blob.count(line) == 1
    art.write_bytes(blob.replace(line, edited))
    assert main(["eval", str(fresh_ckpt), "--data", str(art)]) == 5
    assert f"corrupt checkpoint: {art}: {message}" in capsys.readouterr().err


def test_eval_checkpoint_with_non_utf8_header_exit5(fresh_ckpt, capsys):
    blob = fresh_ckpt.read_bytes()
    assert blob.count(b"kind checkpoint\n") == 1
    fresh_ckpt.write_bytes(blob.replace(b"kind checkpoint\n", b"kind check\xffpoint\n"))
    rc = main(["eval", str(fresh_ckpt), "--task", "copy", "--seq-len", "10", "--samples", "8"])
    assert rc == 5
    assert f"corrupt checkpoint: {fresh_ckpt}: header is not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["seed", "epoch"])
def test_eval_checkpoint_with_non_integer_seed_or_epoch_exit5(fresh_ckpt, capsys, key):
    blob = fresh_ckpt.read_bytes()
    line = f"\n{key} 0\n".encode()
    assert blob.count(line) == 1
    fresh_ckpt.write_bytes(blob.replace(line, f"\n{key} 0.5\n".encode()))
    rc = main(["eval", str(fresh_ckpt), "--task", "copy", "--seq-len", "10", "--samples", "8"])
    assert rc == 5
    err = capsys.readouterr().err
    assert f"corrupt checkpoint: {fresh_ckpt}: bad or missing header seed/epoch" in err
    assert "'0.5'" in err


def test_eval_artifact_with_token_past_vocab_exit5(trained, artifact, capsys):
    batch, spec, layout = load_dataset(artifact)
    batch.tokens[3, 0] = layout.vocab_size
    save_dataset(artifact, batch, spec, layout)
    assert main(["eval", str(trained), "--data", str(artifact)]) == 5
    assert f"{artifact}: token index outside vocab" in capsys.readouterr().err


def test_eval_gate_mode_runs_the_checkpoint_weights_under_that_mode(trained, tmp_path):
    art = tmp_path / "data.ds"
    assert main(["gen-data", "--task", "kv_recall", "--distances", "4,6",
                 "--vocab-size", "32", "--samples", "24", "--out", str(art)]) == 0
    out = tmp_path / "off"
    assert main(["eval", str(trained), "--data", str(art), "--gate-mode", "disabled",
                 "--out", str(out)]) == 0
    got = {}
    for line in (out / "eval.csv").read_text().splitlines()[1:]:
        fields = line.split(",")
        assert fields[5] == "disabled"
        got[fields[3]] = float(fields[4])

    dataset, _, layout = load_dataset(art)
    learned = load_checkpoint(trained).params
    params = learned.with_gate_mode(GateMode.DISABLED)
    clean = score(params, dataset, (layout.value_lo, layout.value_hi))
    report = retention_probe(clean)
    grid = noise_robustness(params, dataset, layout, rng=Rng(0))
    want = {
        "perplexity": perplexity(clean),
        "retention_percent": report.aggregate_percent,
        **{f"retention_at_{d}": 100.0 * r for d, r in report.per_distance.items()},
        **{f"error_rate_at_noise_{int(level)}": err for level, err in grid.rows},
    }
    assert got == want
    assert want["perplexity"] != perplexity(score(learned, dataset))


# --------------------------------------------------------------------------
# bench
# --------------------------------------------------------------------------


def test_bench_rows_and_flops(config_path, tmp_path):
    out = tmp_path / "bench"
    rc = main(["bench", "--config", str(config_path), "--seq-lens", "4,8",
               "--reps", "20", "--out", str(out)])
    assert rc == 0
    lines = (out / "bench.csv").read_text().splitlines()
    assert lines[0] == "seq_len,gate_mode,median_ms,flops"
    assert len(lines) == 1 + 2 * 2  # |lens| x 2 modes
    cfg = ModelConfig(vocab_size=32, d_model=16, n_heads=2, n_layers=1, d_ff=32, max_seq_len=16)
    for line in lines[1:]:
        seq_len, mode, _, flops = line.split(",")
        assert int(flops) == count_flops(cfg, int(seq_len), GateMode(mode)).total
    overhead = (out / "overhead.csv").read_text().splitlines()
    assert overhead[0] == "seq_len,latency_ratio,flop_delta"
    for line in overhead[1:]:
        seq_len, ratio, delta = line.split(",")
        n, d = int(seq_len), 16
        assert int(delta) == 2 * 1 * (n * d * d + n * d)
        assert float(ratio) > 0


def test_bench_default_lengths_fit_the_model(config_path, tmp_path):
    # without --seq-lens the lengths come from the model's max_seq_len (16)
    out = tmp_path / "bench"
    assert main(["bench", "--config", str(config_path), "--out", str(out)]) == 0
    lines = (out / "bench.csv").read_text().splitlines()[1:]
    assert [int(line.split(",")[0]) for line in lines] == [8, 16] * 2


def test_bench_overlength_exit2(config_path, tmp_path):
    rc = main(["bench", "--config", str(config_path), "--seq-lens", "999"])
    assert rc == 2


@pytest.mark.parametrize("source,precision,want", [
    ("ckpt", None, np.float32),
    ("ckpt", "64", np.float64),
    ("config", None, np.float32),
    ("config", "64", np.float64),
])
def test_bench_precision_casts_a_checkpoint_and_sizes_a_random_init(
    monkeypatch, config_path, fresh_ckpt, source, precision, want
):
    # the params bench times: a float32 checkpoint is cast only when
    # --precision is given, as eval casts it; a random init is float32 unless asked
    seen = []

    def latency_bench(params, **kwargs):
        seen.extend(t.dtype for _, t in params.named_tensors())
        raise ValueError("captured")

    monkeypatch.setattr(cli, "latency_bench", latency_bench)
    args = ["--ckpt", str(fresh_ckpt)] if source == "ckpt" else ["--config", str(config_path)]
    args += [] if precision is None else ["--precision", precision]
    assert main(["bench", *args]) == 2
    assert seen and set(seen) == {np.dtype(want)}


def test_bench_needs_exactly_one_source(config_path):
    assert main(["bench"]) == 2
    assert main(["bench", "--config", str(config_path), "--ckpt", "x.ckpt"]) == 2


# --------------------------------------------------------------------------
# gen-data
# --------------------------------------------------------------------------


def test_gen_data_byte_identical(tmp_path):
    a1, a2 = tmp_path / "d1.ds", tmp_path / "d2.ds"
    args = ["gen-data", "--task", "copy", "--seq-len", "12", "--vocab-size", "64",
            "--samples", "30", "--task-seed", "5"]
    assert main(args + ["--out", str(a1)]) == 0
    assert main(args + ["--out", str(a2)]) == 0
    assert a1.read_bytes() == a2.read_bytes()


def test_gen_data_incompatible_distances_exit2(tmp_path, capsys):
    rc = main(["gen-data", "--task", "kv_recall", "--seq-len", "10", "--pairs", "2",
               "--distances", "64", "--vocab-size", "32",
               "--samples", "10", "--out", str(tmp_path / "x.ds")])
    assert rc == 2
    assert capsys.readouterr().err


def test_gen_data_creates_output_directory(tmp_path):
    art = tmp_path / "data" / "nested" / "copy.ds"
    assert main(["gen-data", "--task", "copy", "--seq-len", "12", "--vocab-size", "64",
                 "--samples", "10", "--out", str(art)]) == 0
    assert list(art.parent.iterdir()) == [art]  # an artifact is one file


def test_gen_data_round_trips_through_loader(tmp_path):
    art = tmp_path / "kv.ds"
    assert main(["gen-data", "--task", "kv_recall", "--distances", "4,8",
                 "--vocab-size", "40", "--samples", "24", "--out", str(art)]) == 0
    batch, spec, layout = load_dataset(art)
    assert batch.n_rows == 24
    assert spec.kind == "kv_recall" and spec.distances == (4, 8)
    batch.validate(layout.vocab_size)


# --------------------------------------------------------------------------
# task flags
# --------------------------------------------------------------------------


@pytest.mark.parametrize("distances,samples,seq_len,want", [
    ((16, 32, 38), 500, None, (40, 12)),
    ((4, 6), 24, None, (8, 2)),
    ((3, 5, 7), 10, None, (9, 3)),
    ((8,), 10, None, (10, 1)),
    ((4, 8), 10, 20, (20, 8)),
])
def test_kv_recall_spec_is_one_spec_by_classmethod_fields_and_flags(distances, samples, seq_len, want):
    by_method = TaskSpec.kv_recall(distances, samples, seed=3, seq_len=seq_len)
    assert (by_method.seq_len, by_method.pairs) == want
    by_fields = TaskSpec(kind="kv_recall", distances=np.array(distances), samples=samples,
                         seed=3, seq_len=seq_len or 0)
    flags = ["gen-data", "--task", "kv_recall", "--distances", ",".join(map(str, distances)),
             "--samples", str(samples), "--task-seed", "3", "--out", "unused.ds"]
    flags += ["--seq-len", str(seq_len)] if seq_len else []
    by_flags = _task_from_flags(build_parser().parse_args(flags))
    assert by_method == by_fields == by_flags
    # eval's run_id hashes str(task), so the specs must print alike too
    assert str(by_method) == str(by_fields) == str(by_flags)


# --------------------------------------------------------------------------
# console entry
# --------------------------------------------------------------------------


def test_module_entry_help():
    proc = subprocess.run(
        [sys.executable, "-m", "synres", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for command in ("train", "eval", "bench", "gen-data"):
        assert command in proc.stdout


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt settings are glibc's")
def test_heap_retained_by_the_command_line_only():
    # counts mallopt lookups: none while importing synres, one per main()
    code = (
        "import ctypes\n"
        "calls = []\n"
        "class Spy(ctypes.CDLL):\n"
        "    def __getattr__(self, name):\n"
        "        calls.extend([name] if name == 'mallopt' else [])\n"
        "        return super().__getattr__(name)\n"
        "ctypes.CDLL = Spy\n"
        "import synres, synres.cli\n"
        "before = len(calls)\n"
        "code = synres.cli.main(['bench'])\n"
        "print(before, code, len(calls), synres.cli._retain_freed_heap())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout.split() == ["0", "2", "1", "True"], proc.stderr


def test_import_loads_no_scipy():
    # importing scipy cost every process about 0.2 s and 17 MB; synres needs numpy only
    code = (
        "import sys\n"
        "import synres, synres.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout.split() == ["[]"], proc.stdout + proc.stderr

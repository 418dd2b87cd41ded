"""Command surface: exit codes, artifacts, determinism of emitted files."""

import platform
import subprocess
import sys

import numpy as np
import pytest

from synres.cli import main
from synres.evalsuite import noise_robustness, perplexity, retention_probe
from synres.model import GateMode, ModelConfig, count_flops
from synres.numcore import Rng
from synres.persist import load_checkpoint, load_dataset

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
    assert ckpt.model_config.gate_mode == GateMode.DISABLED
    assert "gate_mode = disabled" in (out / "config.txt").read_text()


def test_train_numeric_abort_exit3(config_path, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL_CONFIG.replace("lr = 0.5", "lr = 1e30"))
    rc = main(["train", str(bad), "--out", str(tmp_path / "o3")])
    assert rc == 3
    assert "numeric" in capsys.readouterr().err


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


def test_eval_from_artifact(trained, tmp_path):
    art = tmp_path / "data.ds"
    assert main(["gen-data", "--task", "kv_recall", "--distances", "4,6",
                 "--vocab-size", "32", "--samples", "20", "--out", str(art)]) == 0
    rc = main(["eval", str(trained), "--data", str(art), "--out", str(tmp_path / "ea")])
    assert rc == 0


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
    report = retention_probe(params, dataset, layout)
    grid = noise_robustness(params, dataset, layout, rng=Rng(0))
    want = {
        "perplexity": perplexity(params, dataset),
        "retention_percent": report.aggregate_percent,
        **{f"retention_at_{d}": 100.0 * r for d, r in report.per_distance.items()},
        **{f"error_rate_at_noise_{int(level)}": err for level, err in grid.rows},
    }
    assert got == want
    assert want["perplexity"] != perplexity(learned, dataset)


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


def test_bench_flop_check_holds_under_optimize(config_path):
    # a census that disagrees with the timed forwards must fail even under -O
    code = (
        "import dataclasses, sys\n"
        "from synres import cli\n"
        "census = cli.count_flops\n"
        "cli.count_flops = lambda *a, **k: dataclasses.replace(census(*a, **k), gate=1)\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code, "bench", "--config", str(config_path),
         "--seq-lens", "4", "--reps", "20"],
        capture_output=True, text=True,
    )
    assert proc.returncode != 0
    assert "gate flop delta" in proc.stderr


def test_bench_needs_exactly_one_source(config_path):
    assert main(["bench"]) == 2
    assert main(["bench", "--config", str(config_path), "--ckpt", "x.ckpt"]) == 2


# --------------------------------------------------------------------------
# gen-data
# --------------------------------------------------------------------------


def test_gen_data_byte_identical(tmp_path):
    a1, a2 = tmp_path / "d1.ds", tmp_path / "d2.ds"
    args = ["gen-data", "--task", "copy", "--seq-len", "12", "--vocab-size", "64",
            "--samples", "30", "--seed", "5"]
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
    assert art.exists() and (art.parent / "copy.ds.json").exists()


def test_gen_data_round_trips_through_loader(tmp_path):
    art = tmp_path / "kv.ds"
    assert main(["gen-data", "--task", "kv_recall", "--distances", "4,8",
                 "--vocab-size", "40", "--samples", "24", "--out", str(art)]) == 0
    batch, spec, layout = load_dataset(art)
    assert batch.n_rows == 24
    assert spec.kind == "kv_recall" and spec.distances == (4, 8)
    batch.validate(layout.vocab_size)
    assert (art.parent / "kv.ds.json").exists()


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

"""Same seeds, same bits: sha256 digests pinned in tests/golden_bits.json.

Initial parameters, a gen-data artifact and a training run's batch stream
depend only on numpy's Philox streams, and a run's config.txt only on its
config, so their digests are always asserted. Logits, checkpoints, metrics and eval.csv also depend on
the BLAS kernels and numpy's SIMD loops, so they are pinned per fingerprint
(numpy, BLAS, CPU features, dtype, the kernel set OpenBLAS picked at run
time, which OPENBLAS_CORETYPE can change on one CPU, and the number of BLAS
threads, which OPENBLAS_NUM_THREADS or the CPU affinity set: on some
kernel sets a product's bits depend on it); each gate mode's
logits have their own digest, so a diff of the json shows which modes moved. On a fingerprint
with no pinned digests the test computes everything twice, in two fresh
processes, asserts the two agree and warns that the golden comparison did
not apply.

A change that moves bits on purpose re-records the digests of this machine,
printing each key whose digest changed:

    PYTHONPATH=src python tests/test_golden_bits.py --record
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from synres import model
from synres.cli import main
from synres.datagen import build_task_data, layout_for
from synres.model import GateMode, ModelConfig, forward, init_params
from synres.numcore import Rng
from synres.persist import load_config
from synres.train import run_training

GOLDEN = Path(__file__).with_name("golden_bits.json")
EVAL_SAMPLES = 64
COPY_EVAL_SAMPLES = 96
ALWAYS = ("init_params", "gen_data_kv_recall", "learned.config.txt", "disabled.config.txt",
          "stream_digest")

README_MODEL = ModelConfig(
    vocab_size=64, d_model=64, n_heads=4, n_layers=2, d_ff=256, max_seq_len=40
)

# the README config, cut to 2 epochs of 512 samples (15 train steps each)
SHORT_README_RUN = """\
[model]
vocab_size = 64
d_model = 64
n_heads = 4
n_layers = 2
d_ff = 256
max_seq_len = 40
sigma_init = 0.02
gate_mode = learned

[train]
epochs = 2
batch_size = 32
lr = 1.0
lr_decay = 0.5
ppl_threshold = none
reg_weight = 0.0001
grad_clip = 1.0
seed = 4
min_lr = 1e-06

[task]
kind = copy
seq_len = 34
samples = 512
seed = 1
val_fraction = 0.1
"""


def blas_kernels() -> str:
    """The kernel set numpy's bundled OpenBLAS picked at run time, such as
    SkylakeX or Haswell, and the number of threads it runs; unknown without
    that library or its symbols."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib in map(ctypes.CDLL, glob.glob(libs)):
        corename = getattr(lib, "scipy_openblas_get_corename64_", None)
        threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if corename is not None and threads is not None:
            corename.argtypes, corename.restype = (), ctypes.c_char_p
            threads.argtypes, threads.restype = (), ctypes.c_int
            return f"{corename().decode()}; threads {threads()}"
    return "unknown"


def fingerprint() -> str:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        features = {}
    cpu = hashlib.sha256(",".join(sorted(k for k, on in features.items() if on)).encode())
    return (f"numpy {np.__version__}; {blas.get('name')} {blas.get('version')}; "
            f"{platform.machine()} cpu {cpu.hexdigest()[:12]}; float32; "
            f"kernels {blas_kernels()}")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _metrics_body(path: Path) -> bytes:
    """metrics.csv without its last column, wall_ms."""
    return "\n".join(line.rsplit(",", 1)[0] for line in path.read_text().splitlines()).encode()


def digests(work: Path) -> dict[str, str]:
    work.mkdir(parents=True, exist_ok=True)
    params = init_params(README_MODEL, Rng(4))
    got = {"init_params": _sha(b"".join(t.data.tobytes() for _, t in params.named_tensors()))}

    art = work / "kv.ds"
    assert main(["gen-data", "--task", "kv_recall", "--distances", "16,32,38", "--vocab-size", "64",
                 "--samples", "500", "--out", str(art)]) == 0
    got["gen_data_kv_recall"] = _sha(art.read_bytes())

    # the latency benchmark's request pool: three sequences of each length
    rng = np.random.default_rng(1)
    pool = [rng.integers(0, 64, size=int(n)) for n in np.repeat(np.arange(2, 41), 3)]
    for mode in GateMode:
        logits = hashlib.sha256()
        for tokens in pool:
            logits.update(forward(params, tokens, mode=mode)[0].data.tobytes())
        got[f"{mode.value}.latency_pool_logits"] = logits.hexdigest()

    config = work / "run.cfg"
    config.write_text(SHORT_README_RUN)
    # the ablation pairs its arms on this: both gate modes consume one stream
    spec = load_config(config)
    data = build_task_data(spec.task, layout_for(spec.task, spec.model.vocab_size))
    streams = {
        run_training(replace(spec.model, gate_mode=mode), spec.train, data).stream_digest
        for mode in (GateMode.LEARNED, GateMode.DISABLED)
    }
    assert len(streams) == 1
    (got["stream_digest"],) = streams
    for mode in ("learned", "disabled"):
        out = work / mode
        assert main(["train", str(config), "--out", str(out), "--gate-mode", mode]) == 0
        for name in ("config.txt", "last.ckpt", "best.ckpt"):
            got[f"{mode}.{name}"] = _sha((out / name).read_bytes())
        got[f"{mode}.metrics_body"] = _sha(_metrics_body(out / "metrics.csv"))
        # eval by flags: 64 kv_recall rows of 40 tokens make one chunk,
        # which the no-graph forward runs in several blocks
        assert main(["eval", str(out / "last.ckpt"), "--task", "kv_recall", "--distances", "16,32,38",
                     "--vocab-size", "64", "--samples", str(EVAL_SAMPLES), "--task-seed", "2",
                     "--seed", "3", "--out", str(out / "eval")]) == 0
        got[f"{mode}.eval.csv"] = _sha((out / "eval" / "eval.csv").read_bytes())
        # eval by flags on copy data: perplexity on the scored columns of a
        # full and a half chunk, coherence from the same scores, noise
        assert main(["eval", str(out / "last.ckpt"), "--task", "copy", "--seq-len", "34",
                     "--vocab-size", "64", "--samples", str(COPY_EVAL_SAMPLES), "--task-seed", "2",
                     "--seed", "3", "--out", str(out / "eval_copy")]) == 0
        got[f"{mode}.eval_copy.csv"] = _sha((out / "eval_copy" / "eval.csv").read_bytes())
    return got


def _digests_in_fresh_process(work: Path) -> dict[str, str]:
    paths = (str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    run = subprocess.run(
        [sys.executable, __file__, "--print", str(work)],
        capture_output=True, text=True, check=True, timeout=300, env=env,
    )
    return json.loads(run.stdout.splitlines()[-1])


def test_golden_bits(tmp_path):
    # the pinned eval.csv covers a forward run in blocks: a chunk's widest
    # trunk activation, [64*40 x d_ff] in float32, exceeds the budget
    assert EVAL_SAMPLES * 40 * README_MODEL.d_ff * 4 > model.BLOCK_BUDGET
    golden = json.loads(GOLDEN.read_text())
    pinned = golden["by_fingerprint"].get(fingerprint())
    if pinned is None:
        got = _digests_in_fresh_process(tmp_path / "a")
        assert _digests_in_fresh_process(tmp_path / "b") == got
        warnings.warn(f"golden bits: no digests pinned for {fingerprint()!r}; "
                      "the golden comparison did not apply, two fresh runs agreed instead")
    else:
        got = digests(tmp_path)
        assert {key: got[key] for key in pinned} == pinned
    assert {key: got[key] for key in ALWAYS} == golden["always"]


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:2] == ["--print"]:
        print(json.dumps(digests(Path(sys.argv[2]))))
    elif sys.argv[1:] == ["--record"]:
        with tempfile.TemporaryDirectory() as tmp:
            got = digests(Path(tmp))
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"by_fingerprint": {}}
        old = {**golden.get("always", {}), **golden["by_fingerprint"].get(fingerprint(), {})}
        golden["always"] = {key: got[key] for key in ALWAYS}
        golden["by_fingerprint"][fingerprint()] = {k: v for k, v in got.items() if k not in ALWAYS}
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        for key in sorted(old.keys() | got.keys()):
            if old.get(key) != got.get(key):
                verb = "added" if key not in old else "removed" if key not in got else "changed"
                print(f"{verb}: {key}")
    else:
        sys.exit("usage: test_golden_bits.py --record | --print DIR")

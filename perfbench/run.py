"""synres benchmark: one workload per process, end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload train_copy --seed 1 --seconds 25 --trace 0

Workloads (closed loop, one client; inputs come only from --seed):
  train_copy        `synres train` on the README copy config (1 epoch per
                    command, with its validation and checkpoint saves)
  eval_kv           `synres eval` of a random-init checkpoint on kv_recall
                    (distances 16,32,38, seq_len 40): perplexity, retention
                    and the four-level noise grid
  latency_single    one `model.forward` per request, learned gate, request
                    lengths drawn from the seed over [2, 40]
  latency_gate_off  the same requests with the gate disabled

--trace 0 measures the end-to-end metrics with no tracer installed. --trace 1
alternates untraced and traced groups of ops and reports per-layer metrics
from the traced ones (see tracer.py), plus the tracing overhead and coverage.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it carries machine facts and
check details under "info". Exit code 2 means the program under test is
missing, and then no result is printed.
"""

from __future__ import annotations

import os

# Pinned before numpy loads BLAS. One thread keeps step times steady on a
# shared host and never exceeds nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

if __name__ == "__main__" and not (SRC / "synres" / "__init__.py").is_file():
    print(f"perfbench: no synres sources at {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from synres import cli, evalsuite, model, persist, train  # noqa: E402
from synres.datagen import TaskSpec, layout_for  # noqa: E402
from synres.model import GateMode, ModelConfig  # noqa: E402
from synres.numcore import NumericError, Rng  # noqa: E402
from tracer import Patches, Tracer  # noqa: E402

SETUP_REPS = 7
SLOT_S = 1.0
README_MODEL = ModelConfig(vocab_size=64, d_model=64, n_heads=4, n_layers=2, d_ff=256, max_seq_len=40)
KV_DISTANCES = "16,32,38"

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "tok_s": "tok/s",
}

TRAIN_CONFIG = """\
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
epochs = {epochs}
batch_size = 32
lr = 1.0
lr_decay = 0.5
ppl_threshold = none
reg_weight = 0.0001
grad_clip = 1.0
seed = {seed}
min_lr = 1e-06

[task]
kind = copy
seq_len = 34
samples = {samples}
seed = {seed}
val_fraction = 0.1
"""


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(".gflops"):
        return "GFLOP/s"
    if name.endswith(".flops"):
        return "flop"
    return "count"


def run_cli(argv: list[str], tracer: Tracer | None) -> int:
    if tracer is None:
        return cli.main(argv)
    return tracer.command(cli.main, argv)


def body_digest(path: Path, drop_last_column: bool) -> str:
    """sha256 of a CSV body (header excluded), optionally without wall_ms."""
    lines = path.read_text().splitlines()[1:]
    if drop_last_column:
        lines = [line.rsplit(",", 1)[0] for line in lines]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class CpuRotation:
    """Pins the process to the next allowed CPU every SLOT_S seconds.

    The host this was sized on slows a vCPU by up to 1.8x in bursts of one
    to tens of seconds, with no steal time visible in the guest, and the
    scheduler keeps a single-threaded process on its vCPU. Rotating gives
    every op repeated chances to run on a quiet CPU (see best_of_repeats).
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.index = -1
        self._ends = 0.0

    def tick(self) -> None:
        """Called before each op; moves to the next CPU when a slot ends."""
        now = time.perf_counter()
        if now >= self._ends:
            self.index += 1
            self._ends = now + SLOT_S
            os.sched_setaffinity(0, {self.cpus[self.index % len(self.cpus)]})

    def release(self) -> None:
        os.sched_setaffinity(0, set(self.cpus))


class Workload:
    """One workload: set-up, a group of ops, and the checks on its outputs."""

    unit = ""  # what one op in op_ms_* is

    def __init__(self, seed: int, tiny: bool, work: Path):
        self.seed, self.tiny, self.work = seed, tiny, work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.info: dict = {}
        self.probes = Patches()  # wrappers that time ops inside a command
        self.cpu = CpuRotation()
        self.groups = 0

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, tracer: Tracer | None) -> tuple[list[tuple], int, float]:
        """Run one group of ops; returns ((key, ms) per op, tokens, wall seconds).

        An op's key names it across groups: ops with one key do the same work.
        """
        raise NotImplementedError

    def check(self) -> None:
        """Check the outputs of the group that just ran (untimed)."""

    def throughput(self, best: dict, groups: list[tuple[int, float]]) -> float:
        """tok_s: tokens over wall time of the fastest untraced command
        (every command in a run does the same work)."""
        return max(tokens / wall for tokens, wall in groups)

    def finish(self) -> None:
        """Checks that need the whole run; probes are already removed."""


class TrainCopy(Workload):
    unit = "step"
    epochs = 1  # short commands give each step more repeats in a run
    ce_window = 10  # steps averaged at each end of a command for the falling-CE check

    def setup(self):
        samples = 1024 if self.tiny else 2048
        self.config = self.work / "copy.cfg"
        self.config.write_text(TRAIN_CONFIG.format(epochs=self.epochs, seed=self.seed, samples=samples))
        self.probe_tokens = Rng(self.seed).integers(0, README_MODEL.vocab_size, size=(4, 34))
        self.digests: set[str] = set()
        self._steps: list[tuple[int, float]] = []
        self._ce: list = []
        self._tokens = 0
        self._began = 0.0
        self._best = None

        def forward_batch(fn):
            def timed(params, tokens, *args, **kwargs):
                self.cpu.tick()
                self._began = time.perf_counter()
                self._tokens += np.size(tokens)
                return fn(params, tokens, *args, **kwargs)
            return timed

        def sgd_step(fn):
            def timed(*args, **kwargs):
                out = fn(*args, **kwargs)
                self._steps.append((len(self._steps), (time.perf_counter() - self._began) * 1000.0))
                return out
            return timed

        def loss(fn):
            def kept(*args, **kwargs):
                out = fn(*args, **kwargs)
                self._ce.append(out[1])  # read after the command, outside step timing
                return out
            return kept

        def save_checkpoint(fn):
            def snapshot(path, params, *args, **kwargs):
                out = fn(path, params, *args, **kwargs)
                if Path(path).name == "best.ckpt":
                    self._best = params.copy()
                return out
            return snapshot

        self.probes.set(train, "forward_batch", forward_batch(train.forward_batch))
        self.probes.set(train, "sgd_step", sgd_step(train.sgd_step))
        self.probes.set(train, "loss", loss(train.loss))
        self.probes.set(cli, "save_checkpoint", save_checkpoint(cli.save_checkpoint))

    def run(self, tracer):
        self.out = self.work / f"train{self.groups}"
        self._steps, self._ce, self._tokens, self._best = [], [], 0, None
        began = time.perf_counter()
        self.code = run_cli(["train", str(self.config), "--out", str(self.out)], tracer)
        wall = time.perf_counter() - began
        self.attempted += len(self._steps)
        if self.code != 0:
            self.attempted += 1
            self.failed += 1
        return self._steps, self._tokens, wall

    def check(self):
        try:
            if self.code != 0:
                self.problem(f"train exited {self.code}")
                return
            ce = [t.item() for t in self._ce]
            first, last = statistics.fmean(ce[:self.ce_window]), statistics.fmean(ce[-self.ce_window:])
            if len(ce) != len(self._steps) or not all(math.isfinite(v) for v in ce) or not last < first:
                self.problem(f"train step ce not finite and falling: first {first}, last {last}")
            self.info["ce_first_last"] = [first, last]
            self.digests.add(body_digest(self.out / "metrics.csv", drop_last_column=True))
            reloaded = persist.load_checkpoint(self.out / "best.ckpt").params
            got = model.forward_batch(reloaded, self.probe_tokens).data
            want = model.forward_batch(self._best, self.probe_tokens).data
            if got.tobytes() != want.tobytes():
                self.problem("best.ckpt logits differ from the in-memory params")
        finally:
            shutil.rmtree(self.out, ignore_errors=True)

    def finish(self):
        self.info["metrics_csv_digest"] = sorted(self.digests)
        if len(self.digests) > 1:
            self.problem("identical train commands wrote different metrics.csv bodies")


class EvalKv(Workload):
    unit = "chunk"

    def setup(self):
        self.rows = 128 if self.tiny else 1024
        self.ckpt = self.work / "model.ckpt"
        params = model.init_params(README_MODEL, Rng(self.seed))
        persist.save_checkpoint(self.ckpt, params, train.TrainConfig(epochs=1, batch_size=32, lr=1.0), self.seed, 0)
        self.digests: set[str] = set()
        self.dataset = None
        self.results: dict[str, float] | None = None
        self._chunks: list[tuple[int, float]] = []
        self._tokens = 0
        self._retained = -1

        def forward_batch(fn):
            def timed(params, tokens, *args, **kwargs):
                self.cpu.tick()
                began = time.perf_counter()
                out = fn(params, tokens, *args, **kwargs)
                self._chunks.append((len(self._chunks), (time.perf_counter() - began) * 1000.0))
                self._tokens += np.size(tokens)
                return out
            return timed

        def retention_probe(fn):
            def counted(*args, **kwargs):
                report = fn(*args, **kwargs)
                self._retained = sum(report.counts.values())
                return report
            return counted

        def gen_kv_recall(fn):
            def kept(*args, **kwargs):
                batch = fn(*args, **kwargs)
                if self.dataset is None:
                    self.dataset = batch
                return batch
            return kept

        self.probes.set(evalsuite, "forward_batch", forward_batch(evalsuite.forward_batch))
        self.probes.set(cli, "retention_probe", retention_probe(cli.retention_probe))
        self.probes.set(cli, "gen_kv_recall", gen_kv_recall(cli.gen_kv_recall))

    def run(self, tracer):
        self.out = self.work / f"eval{self.groups}"
        self._chunks, self._tokens, self._retained = [], 0, -1
        argv = [
            "eval", str(self.ckpt), "--task", "kv_recall", "--distances", KV_DISTANCES,
            "--vocab-size", str(README_MODEL.vocab_size), "--samples", str(self.rows),
            "--task-seed", str(self.seed), "--seed", str(self.seed), "--out", str(self.out),
        ]
        began = time.perf_counter()
        self.code = run_cli(argv, tracer)
        wall = time.perf_counter() - began
        self.attempted += 1
        if self.code != 0:
            self.failed += 1
        return self._chunks, self._tokens, wall

    def check(self):
        try:
            if self.code != 0:
                self.problem(f"eval exited {self.code}")
                return
            rows = {r["metric"]: float(r["value"]) for r in csv.DictReader((self.out / "eval.csv").open())}
            self.results = rows
            if not all(math.isfinite(v) for v in rows.values()):
                self.problem("eval wrote a non-finite value")
            if self._retained != self.rows:
                self.problem(f"retention counts sum to {self._retained}, not {self.rows} rows")
            self.digests.add(body_digest(self.out / "eval.csv", drop_last_column=False))
        finally:
            shutil.rmtree(self.out, ignore_errors=True)

    def finish(self):
        self.info["eval_csv_digest"] = sorted(self.digests)
        if len(self.digests) > 1:
            self.problem("identical eval commands wrote different eval.csv bodies")
        if self.dataset is None or self.results is None:
            return
        params = persist.load_checkpoint(self.ckpt).params
        spec = TaskSpec.kv_recall(distances=[int(d) for d in KV_DISTANCES.split(",")], samples=self.rows)
        layout = layout_for(spec, README_MODEL.vocab_size)
        clean = evalsuite.masked_accuracy(params, self.dataset, value_range=(layout.value_lo, layout.value_hi))
        if self.results.get("error_rate_at_noise_0") != 100.0 * (1.0 - clean):
            self.problem("noise level 0 does not reproduce the clean accuracy bitwise")


class Latency(Workload):
    unit = "request"
    per_length = 3  # requests of each length 2..max_seq_len in the pool
    block = 351  # three passes over the pool

    def __init__(self, seed, tiny, work, mode: GateMode):
        super().__init__(seed, tiny, work)
        self.mode = mode

    def setup(self):
        self.params = model.init_params(README_MODEL, Rng(self.seed))
        rng = np.random.default_rng(self.seed)
        # every length equally often, so runs with different seeds time the
        # same mix of lengths; tokens and request order come from the seed
        lengths = np.repeat(np.arange(2, README_MODEL.max_seq_len + 1), self.per_length)
        self.pool = [rng.integers(0, README_MODEL.vocab_size, size=int(n)) for n in lengths]
        self.order = np.concatenate([rng.permutation(len(self.pool)) for _ in range(16)])
        self.served = 0
        # first answers double as warm-up and as the reference for repeats
        self.reference = [model.forward(self.params, t, mode=self.mode)[0].data.tobytes() for t in self.pool]

    def run(self, tracer):
        ops, tokens, busy = [], 0, 0.0
        for _ in range(self.block):
            i = self.order[self.served % len(self.order)]
            self.served += 1
            self.attempted += 1
            tok = self.pool[i]
            self.cpu.tick()
            began = time.perf_counter()
            try:
                logits, _ = model.forward(self.params, tok, mode=self.mode)
            except (NumericError, ValueError) as err:
                self.failed += 1
                self.problem(f"request failed: {err}")
                continue
            done = time.perf_counter()
            ops.append((i, (done - began) * 1000.0))
            busy += done - began
            tokens += tok.size
            if logits.data.tobytes() != self.reference[i]:
                self.failed += 1
                self.problem(f"request {i}: repeat logits differ bitwise")
        return ops, tokens, busy

    def throughput(self, best, groups):
        """tok_s over one pass of the pool, each request at its best time."""
        return 1000.0 * sum(self.pool[i].size for i in best) / sum(best.values())

    def finish(self):
        for i, tok in enumerate(self.pool):
            ones = model.forward(self.params, tok, mode=GateMode.FORCED_ONES)[0].data
            off = model.forward(self.params, tok, mode=GateMode.DISABLED)[0].data
            if ones.tobytes() != off.tobytes():
                self.problem(f"request {i}: forced_ones logits differ from disabled")


WORKLOADS = {
    "train_copy": TrainCopy,
    "eval_kv": EvalKv,
    "latency_single": lambda seed, tiny, work: Latency(seed, tiny, work, GateMode.LEARNED),
    "latency_gate_off": lambda seed, tiny, work: Latency(seed, tiny, work, GateMode.DISABLED),
}


def machine_facts() -> dict:
    import ctypes
    import glob
    import platform

    import scipy

    facts = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads_pinned": BLAS_THREADS,
    }
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        for key, symbol, restype in (
            ("openblas_config", "scipy_openblas_get_config64_", ctypes.c_char_p),
            ("blas_threads", "scipy_openblas_get_num_threads64_", ctypes.c_int),
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = restype
                value = fn()
                facts[key] = value.decode() if isinstance(value, bytes) else value
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None
            )
    except OSError:
        facts["cpu"] = None
    return facts


def time_setups(args) -> list[float]:
    """Seconds from spawning a fresh process until its set-up is done."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    samples = []
    cpus = sorted(os.sched_getaffinity(0))
    try:
        for rep in range(1 if args.tiny else SETUP_REPS):
            # alternate CPUs, as measuring does (see CpuRotation); the child inherits the pin
            os.sched_setaffinity(0, {cpus[rep % len(cpus)]})
            began = time.perf_counter()
            with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
                ready = proc.stdout.readline().strip()
                samples.append(time.perf_counter() - began)
                proc.stdout.read()
                code = proc.wait(timeout=120)
            if ready != "ready" or code != 0:
                raise RuntimeError(f"set-up process exited {code} without becoming ready")
    finally:
        os.sched_setaffinity(0, set(cpus))
    return samples


def best_of_repeats(ops) -> dict:
    """Each op's fastest repeat in ms, by key.

    Host bursts slow some repeats of an op and never speed one up, so the
    fastest repeat is the op's own cost. Percentiles over keys then spread
    with the workload's mix of ops, not with the host's load.
    """
    best: dict = {}
    for key, ms in ops:
        if ms < best.get(key, math.inf):
            best[key] = ms
    return best


def percentile(best: dict, q: float) -> float:
    return float(np.percentile(list(best.values()), q))


def measure(wl: Workload, seconds: float, trace: bool, spans_path: Path) -> dict:
    """Run groups of ops until the time is used; trace alternates groups."""
    tracer = Tracer() if trace else None
    untraced: list[tuple] = []
    traced: list[tuple] = []
    commands: list[tuple[int, float]] = []  # (tokens, wall seconds) per untraced group
    kernel = np.zeros(3)  # minor page faults, user s, system s in untraced groups (trace only)
    durations = []
    started = time.perf_counter()
    while True:
        active = tracer if trace and wl.groups % 2 == 1 else None
        usage = resource.getrusage(resource.RUSAGE_SELF) if trace else None
        began = time.perf_counter()
        if active is not None:
            active.install()
        try:
            ops, n_tokens, group_wall = wl.run(active)
        finally:
            if active is not None:
                active.uninstall()
        durations.append(time.perf_counter() - began)
        if trace and active is None:
            after = resource.getrusage(resource.RUSAGE_SELF)
            kernel += (after.ru_minflt - usage.ru_minflt, after.ru_utime - usage.ru_utime,
                       after.ru_stime - usage.ru_stime)
        wl.check()
        wl.groups += 1
        if active is None:
            untraced.extend(ops)
            commands.append((n_tokens, group_wall))
        else:
            traced.extend(ops)
        elapsed = time.perf_counter() - started
        if wl.groups >= (2 if trace else 1) and elapsed + statistics.fmean(durations) / 2 >= seconds:
            break
    wl.probes.restore()
    wl.cpu.release()
    wl.finish()
    if not untraced or (trace and not traced):
        wl.problem("no op completed")
        return {}
    best = best_of_repeats(untraced)
    wl.info["ops_timed"] = {"untraced": len(untraced), "traced": len(traced), "keys": len(best)}
    if trace:
        metrics = tracer.summarize(len(traced))
        metrics["proc.minflt_per_op"] = kernel[0] / len(untraced)
        metrics["proc.sys_pct"] = 100.0 * kernel[2] / max(kernel[1] + kernel[2], 1e-9)
        # Coverage compares spans with the same traced ops: untraced groups run
        # at other moments, and host bursts alone swing that ratio by 30%.
        covered = tracer.op_coverage(wl.unit)
        traced_median = float(np.median([op[1] for op in traced]))
        metrics["trace.coverage_pct"] = 100.0 * float(np.median(covered)) / traced_median if covered else 0.0
        untraced_p50 = percentile(best, 50)
        traced_p50 = percentile(best_of_repeats(traced), 50)
        metrics["trace.overhead_pct"] = 100.0 * (traced_p50 - untraced_p50) / untraced_p50
        if metrics["trace.coverage_pct"] < 90.0:
            wl.problem(f"traced spans cover {metrics['trace.coverage_pct']:.1f}% of the op time")
        tracer.save(spans_path)
        return metrics
    return {
        "op_ms_p50": percentile(best, 50),
        "op_ms_p90": percentile(best, 90),
        "tok_s": wl.throughput(best, commands),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="synres benchmark (one workload per process)")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0, help="how long to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    p.add_argument("--tiny", action="store_true", help="small inputs, one set-up sample (self-test)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        if args.setup_only:
            WORKLOADS[args.workload](args.seed, args.tiny, work).setup()
            print("ready", flush=True)
            return 0
        setup_samples = [] if args.trace else time_setups(args)
        wl = WORKLOADS[args.workload](args.seed, args.tiny, work)
        wl.setup()
        try:
            measured = measure(wl, args.seconds, bool(args.trace), OUT / f"trace-{args.workload}.npz")
        except Exception:  # a crash in the program under test is a failed run, not a lost result
            wl.failed += 1
            wl.problem(traceback.format_exc(limit=3))
            measured = {}
        if not args.trace:
            measured["setup_s"] = statistics.median(setup_samples)
            measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wl.info.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        unit=wl.unit, groups=wl.groups, setup_samples_s=setup_samples, problems=wl.problems,
        machine=machine_facts(),
    )
    if wl.attempted == 0:
        wl.attempted, wl.failed = 1, 1
    for text in wl.problems:
        print(f"perfbench: check failed: {text}", file=sys.stderr)
    print(json.dumps({"info": wl.info}))
    print(json.dumps({
        "correct": not wl.problems and wl.failed == 0 and bool(measured),
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {
            name: {"value": value, "unit": layer_unit(name) if args.trace else E2E_UNITS[name]}
            for name, value in sorted(measured.items())
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

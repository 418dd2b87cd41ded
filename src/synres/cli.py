"""Command-line surface: train, eval, bench, gen-data.

Every command is deterministic given its flags and seeds (wall-clock columns
excluded). Exit codes: 0 ok, 2 config/validation error, 3 numeric abort,
4 I/O error, 5 corrupt checkpoint.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .datagen import TaskSpec, VocabLayout, build_task_data, gen_copy, gen_kv_recall, layout_for
from .evalsuite import (
    DEFAULT_NOISE_LEVELS,
    coherence_curve,
    latency_bench,
    noise_robustness,
    perplexity,
    retention_probe,
    score,
    value_range_for,
)
from .model import GateMode, init_params
from .numcore import NumericError, Rng
from .persist import (
    METRICS_COLUMNS,
    CheckpointError,
    ConfigError,
    MetricsRow,
    MetricsSink,
    RunSpec,
    atomic_write,
    config_text,
    load_checkpoint,
    load_config,
    load_dataset,
    save_checkpoint,
    save_config,
    save_dataset,
)
from .train import TrainingAbort, run_training


def _dtype_of(precision: int):
    return {32: np.float32, 64: np.float64}[precision]


def _cast(params, precision: int | None):
    """params with every tensor cast to precision; as loaded when None."""
    if precision is not None:
        for _, t in params.named_tensors():
            t.data = t.data.astype(_dtype_of(precision))
    return params


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _run_id(*parts) -> str:
    return hashlib.sha256("|".join(str(p) for p in parts).encode()).hexdigest()[:12]


def _add_task_flags(p: argparse.ArgumentParser):
    p.add_argument("--task", choices=["copy", "kv_recall", "corpus"], help="task kind")
    p.add_argument("--vocab-size", type=int,
                   help="vocabulary size (gen-data: default 64; eval: the checkpoint's)")
    p.add_argument("--seq-len", type=int, help="sequence length")
    p.add_argument("--pairs", type=int, help="key-value pairs per row (kv_recall)")
    p.add_argument("--distances", type=_int_list, help="comma list of probe distances (kv_recall)")
    p.add_argument("--samples", type=int, help=f"rows to generate (default {DEFAULT_SAMPLES})")
    p.add_argument("--task-seed", type=int, help="data generation seed")
    p.add_argument("--corpus", help="corpus file path (corpus task)")
    p.add_argument("--val-fraction", type=float)


# task flag dest -> TaskSpec field; TaskSpec owns every default and rule
_TASK_FIELDS = {
    "task": "kind", "seq_len": "seq_len", "pairs": "pairs", "distances": "distances",
    "samples": "samples", "task_seed": "seed", "val_fraction": "val_fraction",
    "corpus": "corpus_path",
}
DEFAULT_SAMPLES = 1024  # rows a by-flags task generates when --samples is absent


def _task_from_flags(args) -> TaskSpec:
    if args.task is None:
        raise ConfigError("no task given: pass --task or --data")
    given = {field: getattr(args, dest) for dest, field in _TASK_FIELDS.items()
             if getattr(args, dest) is not None}
    return TaskSpec(**{"samples": DEFAULT_SAMPLES, **given})


def _gen_synthetic(spec: TaskSpec, layout: VocabLayout):
    """Generate a copy or kv_recall dataset from the spec's own seed."""
    gen = gen_copy if spec.kind == "copy" else gen_kv_recall
    return gen(spec, layout, Rng(spec.seed))


def _generate_eval_data(args, vocab_size: int):
    if args.data:
        given = [f"--{dest.replace('_', '-')}" for dest in (*_TASK_FIELDS, "vocab_size")
                 if getattr(args, dest) is not None]
        if given:
            raise ConfigError(f"--data takes no task flags, got {', '.join(given)}")
        return load_dataset(args.data)
    spec = _task_from_flags(args)
    layout = layout_for(spec, vocab_size)
    if spec.kind == "corpus":
        return build_task_data(spec, layout)[1], spec, layout
    return _gen_synthetic(spec, layout), spec, layout


def _emit(rows: list[str], out: str | None, name: str):
    text = "\n".join(rows) + "\n"
    if out:
        path = Path(out)
        path.mkdir(parents=True, exist_ok=True)
        atomic_write(path / name, [text.encode()])
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# train
# --------------------------------------------------------------------------


def cmd_train(args) -> int:
    spec = load_config(args.config)
    if spec.model is None or spec.train is None or spec.task is None:
        raise ConfigError(f"{args.config}: train needs [model], [train], and [task] sections")
    model_cfg, train_cfg, task = spec.model, spec.train, spec.task
    if args.seed is not None:
        train_cfg = replace(train_cfg, seed=args.seed)
    if args.gate_mode is not None:
        model_cfg = replace(model_cfg, gate_mode=GateMode(args.gate_mode))
    train_cfg = train_cfg.resolve(model_cfg.vocab_size)
    resolved = RunSpec(model=model_cfg, train=train_cfg, task=task)

    # the task must fit the model, and its data be built, before --out is written
    layout = layout_for(task, model_cfg.vocab_size)
    if task.seq_len > model_cfg.max_seq_len:
        raise ConfigError(f"dataset seq_len {task.seq_len} exceeds model max {model_cfg.max_seq_len}")
    data = build_task_data(task, layout)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("last.ckpt", "best.ckpt"):  # an aborted run leaves no earlier run's
        (out / name).unlink(missing_ok=True)
    save_config(out / "config.txt", resolved)

    run_id = _run_id(config_text(resolved), train_cfg.seed)
    mode = model_cfg.gate_mode.value
    best_ppl = float("inf")

    with MetricsSink(out / "metrics.csv") as sink:

        def on_epoch(params, rep):
            nonlocal best_ppl
            for phase, metric, value in (
                ("train", "loss", rep.mean_loss),
                ("train", "ce", rep.mean_ce),
                ("train", "reg", rep.mean_reg),
                ("train", "lr", rep.lr),
                ("train", "decay_triggered", float(rep.decay_triggered)),
                ("val", "perplexity", rep.val_ppl),
            ):
                sink.write(MetricsRow(
                    run_id=run_id, epoch=rep.epoch, phase=phase, metric=metric,
                    value=value, gate_mode=mode, seed=train_cfg.seed, wall_ms=rep.wall_ms,
                ))
            save_checkpoint(out / "last.ckpt", params, train_cfg, train_cfg.seed, rep.epoch)
            if rep.val_ppl < best_ppl:
                best_ppl = rep.val_ppl
                save_checkpoint(out / "best.ckpt", params, train_cfg, train_cfg.seed, rep.epoch)

        run_training(model_cfg, train_cfg, data, on_epoch=on_epoch, dtype=_dtype_of(args.precision))
    return 0


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------


EVAL_METRICS = ("perplexity", "retention", "noise", "coherence")


def cmd_eval(args) -> int:
    wanted = set(EVAL_METRICS) if args.metrics == "all" else set(args.metrics.split(","))
    unknown = sorted(wanted.difference(EVAL_METRICS))
    if unknown:
        raise ConfigError(f"--metrics: unknown {', '.join(unknown)}; "
                          f"expected all or a comma list of {','.join(EVAL_METRICS)}")
    ckpt = load_checkpoint(args.checkpoint)
    params = _cast(ckpt.params, args.precision)
    if args.gate_mode:
        params = params.with_gate_mode(args.gate_mode)
    mode = params.config.gate_mode
    # a --vocab-size other than the checkpoint's fails the vocab check below
    vocab = params.config.vocab_size if args.vocab_size is None else args.vocab_size
    dataset, task, layout = _generate_eval_data(args, vocab)
    if dataset.seq_len > params.config.max_seq_len:
        raise ConfigError(
            f"dataset seq_len {dataset.seq_len} exceeds model max {params.config.max_seq_len}"
        )
    if layout.vocab_size != params.config.vocab_size:
        raise ConfigError(
            f"dataset vocab {layout.vocab_size} != model vocab {params.config.vocab_size}"
        )
    # keyed by the bytes evaluated, so one checkpoint at two paths gives one
    # eval.csv body, and a file replaced after the load does not name this one
    run_id = _run_id("eval", ckpt.sha256, task, mode.value, args.seed)

    def row(metric, value, phase="eval"):
        return MetricsRow(
            run_id=run_id, epoch=ckpt.epoch, phase=phase, metric=metric,
            value=value, gate_mode=mode.value, seed=ckpt.seed, wall_ms=0.0,
        ).as_csv()

    rows = [",".join(METRICS_COLUMNS)]
    reads = {"perplexity", "retention" if dataset.meta is not None else "coherence"}
    clean = score(params, dataset, value_range_for(dataset, layout)) if wanted & reads else None
    if "perplexity" in wanted:
        rows.append(row("perplexity", perplexity(clean)))
    if "retention" in wanted and dataset.meta is not None:
        report = retention_probe(clean)
        rows.append(row("retention_percent", report.aggregate_percent))
        for d in sorted(report.per_distance):
            rows.append(row(f"retention_at_{d}", 100.0 * report.per_distance[d]))
    if "noise" in wanted:
        grid = noise_robustness(
            params, dataset, layout, levels=args.noise_levels, rng=Rng(args.seed), clean=clean
        )
        for level, err in grid:
            rows.append(row(f"error_rate_at_noise_{int(level)}", err))
    if "coherence" in wanted and dataset.meta is None:
        for t, acc, count in coherence_curve(clean):
            if count:
                rows.append(row(f"coherence_at_{t}", acc))
    _emit(rows, args.out, "eval.csv")
    return 0


# --------------------------------------------------------------------------
# bench
# --------------------------------------------------------------------------


def cmd_bench(args) -> int:
    if bool(args.checkpoint) == bool(args.config):
        raise ConfigError("bench needs exactly one of --ckpt or --config")
    if args.checkpoint:
        params = _cast(load_checkpoint(args.checkpoint).params, args.precision)
    else:
        spec = load_config(args.config)
        if spec.model is None:
            raise ConfigError(f"{args.config}: bench needs a [model] section")
        params = init_params(spec.model, Rng(args.seed), dtype=_dtype_of(args.precision or 32))

    curves = {}
    for mode in (GateMode.LEARNED, GateMode.DISABLED):
        curves[mode] = latency_bench(
            params.with_gate_mode(mode), seq_lens=args.seq_lens, repetitions=args.reps,
            seed=args.seed,
        )
    rows = ["seq_len,gate_mode,median_ms,flops"]
    for mode, curve in curves.items():
        for r in curve:
            rows.append(f"{r.seq_len},{mode.value},{r.median_ms!r},{r.flops}")
    ratios = ["seq_len,latency_ratio,flop_delta"]
    for on, off in zip(curves[GateMode.LEARNED], curves[GateMode.DISABLED]):
        ratios.append(f"{on.seq_len},{on.median_ms / off.median_ms!r},{on.flops - off.flops}")
    _emit(rows, args.out, "bench.csv")
    _emit(ratios, args.out, "overhead.csv")
    return 0


# --------------------------------------------------------------------------
# gen-data
# --------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    spec = _task_from_flags(args)
    if spec.kind == "corpus":
        raise ConfigError("gen-data writes synthetic tasks; corpus data is loaded from file")
    layout = layout_for(spec, args.vocab_size)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    save_dataset(args.out, _gen_synthetic(spec, layout), spec, layout)
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synres",
        description="gated-attention micro language model: train, evaluate, benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the training loop from a config file")
    p_train.add_argument("config", help="path to the run config")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--seed", type=int, help="override the training seed")
    p_train.add_argument("--gate-mode", choices=[m.value for m in GateMode])
    p_train.add_argument("--precision", type=int, choices=[32, 64], default=32)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a task")
    p_eval.add_argument("checkpoint", help="checkpoint path")
    p_eval.add_argument("--data", help="dataset artifact written by gen-data")
    _add_task_flags(p_eval)
    p_eval.add_argument("--noise-levels", type=_int_list, default=DEFAULT_NOISE_LEVELS)
    p_eval.add_argument("--metrics", default="all",
                        help=f"all, or a comma list of {','.join(EVAL_METRICS)}")
    p_eval.add_argument("--gate-mode", choices=[m.value for m in GateMode],
                        help="evaluate the checkpoint's weights under this gate mode")
    p_eval.add_argument("--seed", type=int, default=0, help="noise evaluation seed")
    p_eval.add_argument("--precision", type=int, choices=[32, 64],
                        help="cast loaded parameters before evaluating")
    p_eval.add_argument("--out", help="directory for CSV output (default stdout)")
    p_eval.set_defaults(func=cmd_eval)

    p_bench = sub.add_parser("bench", help="latency and flop accounting per gate mode")
    p_bench.add_argument("--ckpt", dest="checkpoint", help="checkpoint path")
    p_bench.add_argument("--config", help="config file (random init)")
    p_bench.add_argument("--seq-lens", type=_int_list,
                         help="comma list of lengths (default: powers of two from 8 "
                              "below the model's max_seq_len, then max_seq_len)")
    p_bench.add_argument("--reps", type=int, default=20)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--precision", type=int, choices=[32, 64],
                         help="cast loaded parameters, or the float width of a random "
                              "init (default 32)")
    p_bench.add_argument("--out", help="directory for CSV output (default stdout)")
    p_bench.set_defaults(func=cmd_bench)

    p_gen = sub.add_parser("gen-data", help="write a reproducible dataset artifact")
    _add_task_flags(p_gen)
    p_gen.add_argument("--out", required=True, help="artifact path")
    p_gen.set_defaults(func=cmd_gen_data, vocab_size=64)

    return parser


_M_TRIM_THRESHOLD = -1  # mallopt parameter numbers from glibc's malloc.h
_M_MMAP_THRESHOLD = -3


def _retain_freed_heap() -> bool:
    """Keep freed memory in this process instead of returning it to the kernel.

    A train step frees about 10 MB of activations; by default glibc trims it
    from the heap and the next step faults it back in as zeroed pages, about
    2,000 minor faults per step. Arrays below 32 MiB now come from the heap,
    which is trimmed only when 256 MiB sit free at its top. Returns whether
    both settings were accepted; a no-op where libc has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (
        mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1
        and mallopt(_M_TRIM_THRESHOLD, 256 << 20) == 1
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the allocator is set for the command line only; importing synres as a
    # library leaves the host process's settings alone
    _retain_freed_heap()
    try:
        return args.func(args)
    except CheckpointError as err:
        print(f"error: corrupt checkpoint: {err}", file=sys.stderr)
        return 5
    except (TrainingAbort, NumericError) as err:
        print(f"error: numeric abort: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())

"""Outside-in span tracer for the synres benchmark.

The tracer wraps the public functions that each synres layer is called
through, at the name its caller looks the function up under (a module
attribute or a class attribute), and records one span per call: name,
start, end and parent. Spans stay in memory in flat arrays; `summarize`
turns them into per-layer metrics and `save` writes them out.

Nothing here is imported by synres itself. Installing the tracer rebinds
attributes; `uninstall` puts back exactly what `install` replaced.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path

import numpy as np

from synres import cli, evalsuite, model, numcore, persist, train

LAYERS = ("numcore", "model", "train", "datagen", "evalsuite", "persist", "cli")

# Ops the forward pass and the learned-gate loss call. add_const is left out:
# only frozen-gate training (forced_ones/disabled) records it.
NUMCORE_OPS = (
    "matmul", "add", "add_row", "scale", "hadamard", "sigmoid", "gelu", "layer_norm",
    "gather_rows", "cross_entropy_logits", "multihead_attention", "frobenius_sq",
)

# (object the caller looks the name up on, attribute, span name). A span name
# is "<layer>.<function>" with an optional "@<call site>" suffix.
PLAIN_PATCHES = (
    (cli, "run_training", "train.run_training"),
    (train, "train_epoch", "train.train_epoch"),
    (train, "loss", "train.loss"),
    (train, "sgd_step", "train.sgd_step"),
    (model, "resonance_gate", "model.resonance_gate"),
    (numcore, "backward", "numcore.backward"),
    (cli, "build_task_data", "datagen.build_task_data"),
    (cli, "gen_kv_recall", "datagen.gen_kv_recall"),
    (evalsuite, "inject_noise", "datagen.inject_noise"),
    (cli, "perplexity", "evalsuite.perplexity@cli"),
    (evalsuite, "perplexity", "evalsuite.perplexity@train"),  # run_training imports it per call
    (cli, "retention_probe", "evalsuite.retention_probe"),
    (cli, "noise_robustness", "evalsuite.noise_robustness"),
    (cli, "save_checkpoint", "persist.save_checkpoint"),
    (cli, "load_checkpoint", "persist.load_checkpoint"),
    (cli, "load_config", "persist.load_config"),
    (cli, "save_config", "persist.save_config"),
    (persist.MetricsSink, "write", "persist.metrics_write"),
)

# Spans that together make up one unit op of each workload.
OP_PHASES = {
    "step": ("model.forward_batch@train", "train.loss", "numcore.backward", "train.sgd_step"),
    "chunk": ("model.forward_batch@evalsuite",),
    "request": ("model.forward@bench",),
}


class Patches:
    """Attribute rebindings that can be undone, last first."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._patches = Patches()
        self._bwd_of: dict[int, int] = {}

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def timed(self, fn, name: str, after=None):
        """fn wrapped in a span; after(args, kwargs, result) runs outside it."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def iter_spans(self, iterable, name: str):
        """Yield from iterable with one span around each next() call."""
        nid = self.name_id(name)
        it = iter(iterable)
        while True:
            idx = self.open(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.close(idx)
            yield item

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        for op in NUMCORE_OPS:
            fwd = self.name_id(f"numcore.{op}.fwd")
            self._bwd_of[fwd] = self.name_id(f"numcore.{op}.bwd")
            self._patches.set(numcore, op, self.timed(getattr(numcore, op), f"numcore.{op}.fwd"))
        self._patches.set(numcore.GradGraph, "record", self._timed_record(numcore.GradGraph.record))
        counters = {
            "numcore.backward": lambda a, k, r: self.count("tape_ops", a[0].n_ops),
            "persist.save_checkpoint": lambda a, k, r: self.count("save_bytes", Path(a[0]).stat().st_size),
            "persist.metrics_write": lambda a, k, r: self.count("metrics_rows"),
        }
        for owner, attr, name in PLAIN_PATCHES:
            self._patches.set(owner, attr, self.timed(getattr(owner, attr), name, counters.get(name)))
        self._patches.set(train, "batches", self._timed_batches(train.batches))
        epoch = train.train_epoch  # already span-wrapped above

        def train_epoch(params, batch_stream, *args, **kwargs):
            return epoch(params, self.iter_spans(batch_stream, "train.data_wait"), *args, **kwargs)

        self._patches.set(train, "train_epoch", train_epoch)
        for owner, name, site in (
            (train, "forward_batch", "train"),
            (evalsuite, "forward_batch", "evalsuite"),
            (model, "forward", "bench"),  # the latency workloads call model.forward
        ):
            self._patches.set(owner, name, self.timed(
                getattr(owner, name), f"model.{name}@{site}", self._forward_counter(site)
            ))

    def uninstall(self) -> None:
        self._patches.restore()

    def _timed_record(self, record):
        def timed_record(graph, out, inputs, vjp):
            op_nid = self.name_of[self._stack[-1]] if self._stack else -1
            bwd = self._bwd_of.get(op_nid)
            if bwd is None:
                bwd = self.name_id("numcore.unknown.bwd")

            def timed_vjp(g):
                idx = self.open(bwd)
                try:
                    return vjp(g)
                finally:
                    self.close(idx)

            return record(graph, out, inputs, timed_vjp)

        return timed_record

    def _timed_batches(self, batches):
        @functools.wraps(batches)
        def timed_batches(*args, **kwargs):
            return self.iter_spans(batches(*args, **kwargs), "datagen.batches.next")

        return timed_batches

    def _forward_counter(self, site: str):
        def count_forward(args, kwargs, result):
            params, tokens = args[0], np.asarray(args[1])
            mode = kwargs.get("mode") or params.config.gate_mode
            n_seqs, n = (1, tokens.size) if tokens.ndim == 1 else tokens.shape
            self.count("flops", n_seqs * model.count_flops(params.config, n, mode).total)
            self.count("forward_calls")
            if site == "evalsuite":
                self.count("evalsuite_tokens", n_seqs * n)

        return count_forward

    def command(self, main, argv) -> int:
        """Run a CLI entry point inside a cli.command span."""
        idx = self.open(self.name_id("cli.command"))
        try:
            code = main(argv)
        finally:
            self.close(idx)
        self.count("exit_code", code)
        return code

    # -- results ---------------------------------------------------------

    def _per_name(self):
        """(inclusive ms, self ms, calls) per span name, summed over spans."""
        k = len(self.names)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        names = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (end - start) * 1000.0
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        incl = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - child, minlength=k)
        calls = np.bincount(names, minlength=k)
        return incl, own, calls

    def op_coverage(self, unit: str) -> list[float]:
        """ms per traced op, summed over the spans that make up the op
        (OP_PHASES); each occurs once per op, in order."""
        phases = [self._ids[name] for name in OP_PHASES[unit] if name in self._ids]
        if len(phases) < len(OP_PHASES[unit]):
            return []
        names = np.frombuffer(self.name_of, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        sel = np.flatnonzero(np.isin(names, phases))
        k = len(phases)
        sel = sel[: sel.size // k * k].reshape(-1, k)
        return ((end[sel] - start[sel]).sum(axis=1) * 1000.0).tolist()

    def summarize(self, n_ops: int) -> dict[str, float]:
        """Per-layer metrics over everything recorded.

        Per-op metrics (numcore op times and call counts, layer self times,
        train.step.*) are totals divided by n_ops, the traced unit ops (train
        steps, eval chunks or requests). Function `.ms` metrics are the mean
        inclusive time per call. Layers a workload never calls report 0.
        """
        incl, own, calls = self._per_name()

        def total(prefix, arr):
            return float(sum(arr[i] for i, nm in enumerate(self.names)
                             if nm == prefix or nm.startswith(prefix + "@")))

        def per_call(prefix):
            c = total(prefix, calls)
            return total(prefix, incl) / c if c else 0.0

        ops = max(n_ops, 1)
        m: dict[str, float] = {}
        for op in NUMCORE_OPS:
            m[f"numcore.{op}.fwd_ms"] = total(f"numcore.{op}.fwd", incl) / ops
            m[f"numcore.{op}.bwd_ms"] = total(f"numcore.{op}.bwd", incl) / ops
            m[f"numcore.{op}.calls"] = total(f"numcore.{op}.fwd", calls) / ops
        backward_calls = total("numcore.backward", calls)
        m["numcore.backward.self_ms"] = total("numcore.backward", own) / ops
        m["numcore.tape_ops"] = self.counters.get("tape_ops", 0.0) / backward_calls if backward_calls else 0.0

        m["model.forward_batch.ms"] = per_call("model.forward_batch")
        m["model.forward.ms"] = per_call("model.forward")
        m["model.resonance_gate.ms"] = per_call("model.resonance_gate")
        fwd_calls = self.counters.get("forward_calls", 0.0)
        fwd_ms = total("model.forward_batch", incl) + total("model.forward", incl)
        m["model.flops"] = self.counters.get("flops", 0.0) / fwd_calls if fwd_calls else 0.0
        m["model.gflops"] = self.counters.get("flops", 0.0) / fwd_ms / 1e6 if fwd_ms else 0.0

        steps = total("train.sgd_step", calls)
        per_step = (lambda v: v / steps) if steps else (lambda v: 0.0)
        m["train.step.fwd_ms"] = per_step(total("model.forward_batch@train", incl))
        m["train.step.loss_ms"] = per_step(total("train.loss", incl))
        m["train.step.bwd_ms"] = per_step(total("numcore.backward", incl))
        m["train.step.sgd_ms"] = per_step(total("train.sgd_step", incl))
        m["train.epoch.val_ms"] = per_call("evalsuite.perplexity@train")
        m["train.data_wait_ms"] = per_step(total("train.data_wait", incl))

        m["datagen.build_task_data.ms"] = per_call("datagen.build_task_data")
        m["datagen.gen_kv_recall.ms"] = per_call("datagen.gen_kv_recall")
        m["datagen.inject_noise.ms"] = per_call("datagen.inject_noise")
        m["datagen.batches.next_ms"] = per_call("datagen.batches.next")

        commands = max(total("cli.command", calls), 1.0)
        m["evalsuite.perplexity.ms"] = per_call("evalsuite.perplexity")
        m["evalsuite.retention_probe.ms"] = per_call("evalsuite.retention_probe")
        m["evalsuite.noise_robustness.ms"] = per_call("evalsuite.noise_robustness")
        m["evalsuite.chunk_ms"] = per_call("model.forward_batch@evalsuite")
        m["evalsuite.tokens"] = self.counters.get("evalsuite_tokens", 0.0) / commands

        m["persist.save_checkpoint.ms"] = per_call("persist.save_checkpoint")
        saves = total("persist.save_checkpoint", calls)
        m["persist.save_checkpoint.bytes"] = self.counters.get("save_bytes", 0.0) / saves if saves else 0.0
        m["persist.load_checkpoint.ms"] = per_call("persist.load_checkpoint")
        m["persist.metrics_rows"] = self.counters.get("metrics_rows", 0.0) / commands

        m["cli.command.ms"] = per_call("cli.command")
        m["cli.exit_code"] = self.counters.get("exit_code", 0.0) / commands

        for layer in LAYERS:
            m[f"{layer}.self_ms"] = float(sum(
                own[i] for i, nm in enumerate(self.names) if nm.split(".", 1)[0] == layer
            )) / ops
        m["trace.spans"] = len(self.start) / ops
        return m

    def save(self, path: Path) -> None:
        """Write every span (name table, name id, parent index, start, end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


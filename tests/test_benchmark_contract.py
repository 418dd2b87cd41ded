"""The names the benchmark looks up in synres.

perfbench/tracer.py wraps synres functions at the attribute each caller looks
them up under, and perfbench/run.py times model.forward with a per-call gate
mode. A moved or renamed name breaks the benchmark, and a vjp recorded
outside its op's own call is charged to no op; these tests show both in the
main suite, without running the benchmark's own self-test.
"""

import sys
from collections import Counter
from pathlib import Path

from synres import cli, datagen, evalsuite, model, numcore, persist, train
from synres.model import GateMode, ModelConfig, count_flops, init_params
from synres.numcore import Rng
from synres.train import TrainConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracer  # noqa: E402

CFG = ModelConfig(vocab_size=16, d_model=8, n_heads=2, n_layers=2, d_ff=16, max_seq_len=8)
OWNERS = (cli, datagen, evalsuite, model, numcore, persist, train,
          numcore.GradGraph, persist.MetricsSink)


def _bindings():
    return {(id(owner), name): value for owner in OWNERS for name, value in vars(owner).items()}


def test_tracer_install_patches_and_uninstall_restores_every_name():
    params = init_params(CFG, Rng(0))
    tokens = Rng(1).integers(0, CFG.vocab_size, size=6)
    before = _bindings()
    spans = tracer.Tracer()
    spans.install()
    try:
        during = _bindings()
        model.forward(params, tokens, mode=GateMode.DISABLED)
    finally:
        spans.uninstall()
    after = _bindings()

    patched = {key for key, value in during.items() if before.get(key) is not value}
    expected = {(id(numcore), op) for op in tracer.NUMCORE_OPS}
    expected |= {(id(owner), attr) for owner, attr, _ in tracer.PLAIN_PATCHES}
    expected |= {(id(model), "forward"), (id(train), "forward_batch"),
                 (id(evalsuite), "forward_batch"), (id(numcore.GradGraph), "record")}
    assert expected <= patched
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    # the forward counter reads the per-call mode, as the latency workloads pass it
    assert spans.counters["forward_calls"] == 1
    assert spans.counters["flops"] == count_flops(CFG, 6, GateMode.DISABLED).total


def test_traced_train_epoch_charges_every_vjp_to_its_op():
    # the tracer charges a vjp to the op span open when GradGraph.record runs,
    # so each op must record from inside its own call
    params = init_params(CFG, Rng(2))
    spec = datagen.TaskSpec(kind="copy", seq_len=6, samples=8, seed=3)
    data, _ = datagen.build_task_data(spec, datagen.VocabLayout.synthetic(CFG.vocab_size))
    spans = tracer.Tracer()
    spans.install()
    try:
        train.train_epoch(params, train.batches(data, 4), TrainConfig(epochs=1, batch_size=4), 0.1)
    finally:
        spans.uninstall()
    calls = Counter(spans.names[i] for i in spans.name_of)
    assert "numcore.unknown.bwd" not in calls
    for op in tracer.NUMCORE_OPS:
        assert calls[f"numcore.{op}.bwd"] == calls[f"numcore.{op}.fwd"] > 0, op


def test_traced_forward_runs_each_op_once():
    # a finite forward checks only its logits and never replays, so the
    # tracer sees each op exactly as often as a graph records it
    params = init_params(CFG, Rng(4))
    tokens = Rng(5).integers(0, CFG.vocab_size, size=7)
    graph = numcore.GradGraph()
    model.forward(params, tokens, graph=graph)
    recorded = Counter(vjp.__qualname__.split(".")[0] for _, _, vjp in graph._records)
    spans = tracer.Tracer()
    spans.install()
    try:
        model.forward(params, tokens)
    finally:
        spans.uninstall()
    calls = Counter(spans.names[i] for i in spans.name_of)
    assert set(recorded) <= set(tracer.NUMCORE_OPS) and graph.n_ops > 0
    for op in tracer.NUMCORE_OPS:
        assert calls[f"numcore.{op}.fwd"] == recorded[op], op


def test_traced_blocked_eval_chunk_is_one_span_counting_every_sequence(monkeypatch):
    # a chunk that runs in blocks is still one forward_batch call: one span,
    # whose tokens count every input token of the chunk. Its flops are the
    # full forward's, which is what the tracer charges with positions too
    params = init_params(CFG, Rng(6))
    tokens = Rng(7).integers(0, CFG.vocab_size, size=(5, 6))
    monkeypatch.setattr(model, "BLOCK_BUDGET", 1)
    # per block: token and position rows, then the last layer's query and
    # residual row gathers, with one position as with two
    for positions, gathers in ((None, 2), ([2, 5], 4), ([5], 4)):
        spans = tracer.Tracer()
        spans.install()
        try:
            evalsuite.forward_batch(params, tokens, positions=positions)
        finally:
            spans.uninstall()
        calls = Counter(spans.names[i] for i in spans.name_of)
        assert calls["model.forward_batch@evalsuite"] == 1
        assert calls["numcore.gather_rows.fwd"] == gathers * 5
        assert spans.counters["evalsuite_tokens"] == 5 * 6
        if positions is None:
            assert spans.counters["flops"] == 5 * count_flops(CFG, 6).total


def test_eval_by_flags_generates_through_cli_gen_kv_recall(tmp_path, monkeypatch):
    # the eval_kv workload captures its dataset at cli.gen_kv_recall for the
    # "noise level 0 reproduces clean accuracy" check, which is skipped
    # without a word if eval generates kv_recall data some other way
    ckpt = tmp_path / "model.ckpt"
    persist.save_checkpoint(ckpt, init_params(CFG, Rng(8)), TrainConfig(epochs=1, batch_size=4), 8, 0)
    seen = []
    real = cli.gen_kv_recall
    monkeypatch.setattr(cli, "gen_kv_recall", lambda *a, **k: seen.append(real(*a, **k)) or seen[-1])
    argv = ["eval", str(ckpt), "--task", "kv_recall", "--distances", "4,6",
            "--vocab-size", str(CFG.vocab_size), "--samples", "8", "--task-seed", "8",
            "--seed", "8", "--out", str(tmp_path / "eval")]
    assert cli.main(argv) == 0
    assert len(seen) == 1 and seen[0].n_rows == 8

"""The names the benchmark looks up in synres.

perfbench/tracer.py wraps synres functions at the attribute each caller looks
them up under, and perfbench/run.py times model.forward with a per-call gate
mode. A moved or renamed name breaks the benchmark; this test shows it in
the main suite, without running the benchmark's own self-test.
"""

import sys
from pathlib import Path

from synres import cli, datagen, evalsuite, model, numcore, persist, train
from synres.model import GateMode, ModelConfig, count_flops, init_params
from synres.numcore import Rng

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


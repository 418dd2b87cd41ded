"""Exit-code contract of `synres train` over config edge values.

Every int and float field of [model], [train] and [task] is set, one at a
time, to -1 and 0, and each float also to nan and inf, in a tiny config. Each
run is in-process: it exits 0, or exits 2 naming the field before --out is
written, and never prints a traceback. No value here allocates by its size.
"""

from dataclasses import fields

import pytest

from synres.cli import main
from synres.datagen import TaskSpec
from synres.model import ModelConfig
from synres.train import TrainConfig

TINY = {
    "model": {"vocab_size": 16, "d_model": 4, "n_heads": 1, "n_layers": 1, "d_ff": 4,
              "max_seq_len": 8},
    "train": {"epochs": 1, "batch_size": 8, "lr": 0.1, "seed": 1},
    "task": {"kind": "copy", "seq_len": 6, "samples": 8, "seed": 2},
}
SECTIONS = {"model": ModelConfig, "train": TrainConfig, "task": TaskSpec}
EDGES = {"int": ("-1", "0"), "float": ("-1.0", "0.0", "nan", "inf")}


def _cases():
    for section, cls in SECTIONS.items():
        for f in fields(cls):
            kind = f.type.removesuffix(" | None")  # annotations are strings
            for value in EDGES.get(kind, ()):
                yield pytest.param(section, f.name, value, id=f"{section}.{f.name}={value}")


def _config_text(section: str, name: str, value: str) -> str:
    lines = []
    for sec, entries in TINY.items():
        entries = {**entries, name: value} if sec == section else entries
        lines += [f"[{sec}]", *(f"{key} = {val}" for key, val in entries.items()), ""]
    return "\n".join(lines)


@pytest.mark.parametrize("section,name,value", _cases())
def test_train_exits_0_or_2_naming_the_field_before_writing(tmp_path, capsys, section, name,
                                                            value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_config_text(section, name, value))
    out = tmp_path / "out"
    rc = main(["train", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc in (0, 2), err
    assert "Traceback" not in err
    if rc == 2:
        assert not out.exists()
        assert name in err


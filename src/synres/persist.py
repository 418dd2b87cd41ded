"""Persistence: checkpoint/dataset container, metrics CSV sink, config files.

The container is a textual header (key-value lines plus a tensor manifest)
terminated by a blank line, followed by concatenated little-endian raw
element data in manifest order. Save -> load -> save is byte-identical, and
loaded parameters reproduce forward outputs bitwise at equal precision.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path

import numpy as np

from .datagen import Batch, TaskSpec, VocabLayout
from .model import GateMode, ModelConfig, Params
from .numcore import Tensor2
from .train import TrainConfig

FORMAT_VERSION = 1

_DTYPE_CODES = {"f4": np.float32, "f8": np.float64, "i8": np.int64, "b1": np.bool_}
_CODE_OF = {np.dtype(v): k for k, v in _DTYPE_CODES.items()}


class CheckpointError(Exception):
    """Container parse/consistency failure; message names the failing entry."""


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, GateMode):
        return value.value
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value) if value else "none"
    return str(value)


def _parse(text: str, kind: str):
    if text == "none":
        return () if kind == "int_list" else None
    if kind == "int":
        return int(text)
    if kind == "float":
        return float(text)
    if kind == "bool":
        return text == "true"
    if kind == "int_list":
        return tuple(int(v) for v in text.split(","))
    return text  # str


_KINDS = {"int": "int", "float": "float", "bool": "bool", "tuple[int, ...]": "int_list"}


def _fields(cls) -> dict[str, str]:
    """Field name -> parse kind, in declaration order (the serialized order)."""
    return {
        f.name: _KINDS.get(f.type.removesuffix(" | None"), "str")
        for f in dataclass_fields(cls)
    }


def _build(cls, section: str, raw: dict[str, str], error, required: bool):
    """Construct cls from one section's key -> text pairs. Every failure raises
    error(message); a missing key is one only when required is set."""
    fields = _fields(cls)
    unknown = set(raw) - set(fields)
    if unknown:
        raise error(f"unknown keys in [{section}]: {sorted(unknown)}")
    kwargs = {}
    for name, kind in fields.items():
        if name not in raw:
            if required:
                raise error(f"missing header entry {section}.{name}")
            continue
        try:
            kwargs[name] = _parse(raw[name].strip(), kind)
        except ValueError as err:
            raise error(f"bad value for {section}.{name}: {raw[name]!r}") from err
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as err:
        raise error(f"invalid [{section}] config: {err}") from err


def _header_lines(section: str, obj) -> list[str]:
    return [f"{section}.{name} {_fmt(getattr(obj, name))}" for name in _fields(type(obj))]


def _header_section(path, pairs: dict[str, str], cls, section: str):
    raw = {key[len(section) + 1 :]: text for key, text in pairs.items()
           if key.startswith(section + ".")}
    return _build(cls, section, raw, lambda msg: CheckpointError(f"{path}: {msg}"), required=True)


def _write_container(path, header_lines: list[str], arrays: list[tuple[str, np.ndarray]]):
    """Write a container atomically: into a temp file in path's directory,
    fsynced, then renamed over path. A write that raises or is killed
    leaves the file that was there whole; one that raises removes its temp
    file."""
    manifest, offset = [], 0
    for name, arr in arrays:
        code = _CODE_OF[arr.dtype]
        manifest.append(f"tensor {name} {arr.shape[0]} {arr.shape[1]} {code} {offset}")
        offset += arr.nbytes
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(("\n".join(header_lines + manifest) + "\n\n").encode())
            for _, arr in arrays:
                f.write(np.ascontiguousarray(arr).tobytes())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_container(path):
    raw = Path(path).read_bytes()
    sep = raw.find(b"\n\n")
    if sep < 0:
        raise CheckpointError(f"{path}: no blank line terminating the header")
    try:
        header, payload = raw[:sep].decode(), raw[sep + 2 :]
    except UnicodeDecodeError as err:
        raise CheckpointError(f"{path}: header is not UTF-8 text: {err}") from err
    pairs: dict[str, str] = {}
    manifest: list[tuple[str, int, int, str, int]] = []
    for line in header.splitlines():
        key, _, rest = line.partition(" ")
        if key == "tensor":
            try:
                name, rows, cols, code, offset = rest.split(" ")
                manifest.append((name, int(rows), int(cols), code, int(offset)))
            except ValueError as err:
                raise CheckpointError(f"{path}: malformed manifest line: {line!r}") from err
        else:
            pairs[key] = rest
    if pairs.get("format") != str(FORMAT_VERSION):
        raise CheckpointError(f"{path}: unsupported container format {pairs.get('format')!r}")
    arrays: dict[str, np.ndarray] = {}
    for name, rows, cols, code, offset in manifest:
        if code not in _DTYPE_CODES:
            raise CheckpointError(f"{path}: tensor {name}: unknown dtype code {code!r}")
        dtype = np.dtype(_DTYPE_CODES[code])
        nbytes = rows * cols * dtype.itemsize
        chunk = payload[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointError(f"{path}: tensor {name}: payload truncated at offset {offset}")
        arrays[name] = np.frombuffer(chunk, dtype=dtype).reshape(rows, cols).copy()
    return pairs, arrays


@dataclass
class Checkpoint:
    params: Params
    train_config: TrainConfig
    seed: int
    epoch: int


def save_checkpoint(path, params: Params, train_config: TrainConfig, seed: int, epoch: int):
    header = [f"format {FORMAT_VERSION}", "kind checkpoint"]
    header += _header_lines("model", params.config)
    header += _header_lines("train", train_config)
    header += [f"seed {seed}", f"epoch {epoch}"]
    _write_container(path, header, [(name, t.data) for name, t in params.named_tensors()])


def load_checkpoint(path) -> Checkpoint:
    pairs, arrays = _read_container(path)
    if pairs.get("kind") != "checkpoint":
        raise CheckpointError(f"{path}: container kind {pairs.get('kind')!r} is not a checkpoint")
    model_config = _header_section(path, pairs, ModelConfig, "model")
    train_config = _header_section(path, pairs, TrainConfig, "train")
    try:
        seed, epoch = int(pairs["seed"]), int(pairs["epoch"])
    except (KeyError, ValueError) as err:
        raise CheckpointError(f"{path}: bad or missing header seed/epoch: {err}") from err

    for name, arr in arrays.items():
        if arr.dtype not in (np.float32, np.float64):
            raise CheckpointError(f"{path}: tensor {name}: dtype {arr.dtype}, expected a float dtype")
    try:
        params = Params.from_named(
            model_config, {name: Tensor2(arr) for name, arr in arrays.items()}
        )
    except ValueError as err:
        raise CheckpointError(f"{path}: {err}") from err
    return Checkpoint(params=params, train_config=train_config, seed=seed, epoch=epoch)


def save_dataset(path, batch: Batch, spec: TaskSpec, layout: VocabLayout):
    """Dataset artifact in the container format; the header holds the TaskSpec."""
    header = [f"format {FORMAT_VERSION}", "kind dataset"]
    header += _header_lines("task", spec)
    header += _header_lines("layout", layout)
    arrays = [
        ("tokens", batch.tokens.astype(np.int64)),
        ("targets", batch.targets.astype(np.int64)),
        ("loss_mask", batch.loss_mask.astype(np.bool_)),
    ]
    if batch.meta is not None:
        arrays.append(("meta", batch.meta.astype(np.int64).reshape(-1, 1)))
    if batch.protected is not None:
        arrays.append(("protected", batch.protected.astype(np.bool_)))
    _write_container(path, header, arrays)


def load_dataset(path) -> tuple[Batch, TaskSpec, VocabLayout]:
    """The batch, task and layout of a dataset artifact; CheckpointError names
    the file when the arrays fail TaskSpec.check against the header."""
    pairs, arrays = _read_container(path)
    if pairs.get("kind") != "dataset":
        raise CheckpointError(f"{path}: container kind {pairs.get('kind')!r} is not a dataset")
    spec = _header_section(path, pairs, TaskSpec, "task")
    layout = _header_section(path, pairs, VocabLayout, "layout")
    try:
        batch = Batch(
            tokens=arrays["tokens"],
            targets=arrays["targets"],
            loss_mask=arrays["loss_mask"].astype(bool),
            meta=arrays["meta"].reshape(-1) if "meta" in arrays else None,
            protected=arrays["protected"].astype(bool) if "protected" in arrays else None,
        )
        spec.check(batch, layout)
    except KeyError as err:  # tokens, targets and loss_mask are required
        raise CheckpointError(f"{path}: tensor {err.args[0]}: missing from manifest") from err
    except ValueError as err:
        raise CheckpointError(f"{path}: {err}") from err
    return batch, spec, layout


# --------------------------------------------------------------------------
# metrics CSV
# --------------------------------------------------------------------------

@dataclass
class MetricsRow:
    """One metrics CSV line; the fields, in order, are its columns."""

    run_id: str
    epoch: int
    phase: str  # train | val | eval
    metric: str
    value: float
    gate_mode: str
    seed: int
    wall_ms: float

    def as_csv(self) -> str:
        # annotations are strings here (from __future__ import annotations)
        return ",".join(
            repr(float(getattr(self, f.name))) if f.type == "float" else str(getattr(self, f.name))
            for f in dataclass_fields(self)
        )


METRICS_COLUMNS = tuple(f.name for f in dataclass_fields(MetricsRow))


class MetricsSink:
    """Append-only CSV with one header line and a stable column order."""

    def __init__(self, path):
        self.path = Path(path)
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self._fh = open(self.path, "a")
        if fresh:
            self._fh.write(",".join(METRICS_COLUMNS) + "\n")
            self._fh.flush()

    def write(self, row: MetricsRow):
        self._fh.write(row.as_csv() + "\n")
        self._fh.flush()

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# --------------------------------------------------------------------------
# config files
# --------------------------------------------------------------------------


@dataclass
class RunSpec:
    model: ModelConfig | None
    train: TrainConfig | None
    task: TaskSpec | None


class ConfigError(ValueError):
    """Config file cannot be parsed or contains unknown keys."""


_SECTIONS = {"model": ModelConfig, "train": TrainConfig, "task": TaskSpec}


def load_config(path) -> RunSpec:
    """Strict sectioned key-value config; unknown sections or keys are errors.
    A `;` or `#` after whitespace starts a comment, on its own line or after a value."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    parser.optionxform = str
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        parser.read_string(path.read_text(), source=str(path))
    except configparser.Error as err:
        raise ConfigError(f"{path}: {err}") from err
    sections = set(parser.sections())
    if not sections:
        raise ConfigError(f"{path}: no sections found")
    unknown = sections - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"{path}: unknown sections {sorted(unknown)}")
    built = dict.fromkeys(_SECTIONS)
    for section in parser.sections():
        built[section] = _build(
            _SECTIONS[section], section, dict(parser[section]),
            lambda msg: ConfigError(f"{path}: {msg}"), required=False,
        )
    return RunSpec(**built)


def config_text(spec: RunSpec) -> str:
    """Canonical serialization of a RunSpec (used for the frozen run copy)."""
    lines = []
    for section in _SECTIONS:
        obj = getattr(spec, section)
        if obj is None:
            continue
        lines.append(f"[{section}]")
        for name in _fields(type(obj)):
            lines.append(f"{name} = {_fmt(getattr(obj, name))}")
        lines.append("")
    return "\n".join(lines)


def save_config(path, spec: RunSpec):
    Path(path).write_text(config_text(spec))

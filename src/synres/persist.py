"""Persistence: checkpoint/dataset container, metrics CSV sink, config files.

The container is a textual header (key-value lines plus a tensor manifest)
terminated by a blank line, followed by concatenated little-endian raw
element data in manifest order. Save -> load -> save is byte-identical, and
loaded parameters reproduce forward outputs bitwise at equal precision.
"""

from __future__ import annotations

import configparser
import hashlib
import itertools
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


def atomic_write(path, chunks):
    """Write the byte chunks to path atomically: into a temp file in path's
    directory, fsynced, then renamed over path. A write that raises or is
    killed leaves the file that was there whole; one that raises removes its
    temp file. Every file synres writes whole goes through here."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# kind -> (header sections in order, each with the class it builds; integer
# scalars; tensor name, or "*" for any name, -> dtype). Only _write_container
# and _read_container read it.
_CONTAINERS = {
    "checkpoint": ({"model": ModelConfig, "train": TrainConfig}, ("seed", "epoch"),
                   {"*": np.floating}),
    "dataset": ({"task": TaskSpec, "layout": VocabLayout}, (), {
        "tokens": np.int64, "targets": np.int64, "loss_mask": np.bool_, "meta": np.int64,
        "protected": np.bool_}),
}


def _write_container(path, kind: str, header: dict, arrays: list[tuple[str, np.ndarray]]):
    """Write a container of kind; header maps each section and scalar of the
    kind's row in _CONTAINERS to its config object or int."""
    sections, scalars, _ = _CONTAINERS[kind]
    lines = [f"format {FORMAT_VERSION}", f"kind {kind}"]
    lines += [f"{section}.{name} {_fmt(getattr(header[section], name))}"
              for section, cls in sections.items() for name in _fields(cls)]
    lines += [f"{name} {header[name]}" for name in scalars]
    offsets = itertools.accumulate((arr.nbytes for _, arr in arrays), initial=0)
    lines += [f"tensor {name} {arr.shape[0]} {arr.shape[1]} {_CODE_OF[arr.dtype]} {offset}"
              for (name, arr), offset in zip(arrays, offsets)]
    tensors = (np.ascontiguousarray(arr).tobytes() for _, arr in arrays)
    atomic_write(path, itertools.chain([("\n".join(lines) + "\n\n").encode()], tensors))


def _read_container(path, kind: str):
    """(header, name -> array, the bytes read) of a container of kind; header
    maps each section and scalar of its row in _CONTAINERS to its value. The
    header holds each key of the row once and no other, each tensor has the
    row's dtype, and the manifest lays them out in order from offset 0, with
    no gap, overlap or repeated name, up to the payload's end."""
    sections, scalars, dtypes = _CONTAINERS[kind]
    raw = Path(path).read_bytes()
    sep = raw.find(b"\n\n")
    if sep < 0:
        raise CheckpointError(f"{path}: no blank line terminating the header")
    try:
        text, payload = raw[:sep].decode(), raw[sep + 2 :]
    except UnicodeDecodeError as err:
        raise CheckpointError(f"{path}: header is not UTF-8 text: {err}") from err
    pairs: dict[str, str] = {}
    manifest: list[tuple[str, int, int, str, int]] = []
    for line in text.splitlines():
        key, _, rest = line.partition(" ")
        if key == "tensor":
            try:
                name, rows, cols, code, offset = rest.split(" ")
                manifest.append((name, int(rows), int(cols), code, int(offset)))
            except ValueError as err:
                raise CheckpointError(f"{path}: malformed manifest line: {line!r}") from err
        elif key in pairs:
            raise CheckpointError(f"{path}: header key {key} repeated")
        else:
            pairs[key] = rest
    for key, want in (("format", str(FORMAT_VERSION)), ("kind", kind)):
        if (found := pairs.pop(key, None)) != want:
            raise CheckpointError(f"{path}: container {key} {found!r}, expected {want!r}")
    header = {
        section: _build(cls, section, {key.removeprefix(section + "."): pairs.pop(key)
                                       for key in list(pairs) if key.startswith(section + ".")},
                        lambda msg: CheckpointError(f"{path}: {msg}"), required=True)
        for section, cls in sections.items()
    }
    try:
        header.update((name, int(pairs.pop(name))) for name in scalars)
    except (KeyError, ValueError) as err:
        raise CheckpointError(f"{path}: bad or missing header {'/'.join(scalars)}: {err}") from err
    if pairs:
        raise CheckpointError(f"{path}: header key {min(pairs)} is not part of a {kind}")
    arrays: dict[str, np.ndarray] = {}
    end = 0
    for name, rows, cols, code, offset in manifest:
        if code not in _DTYPE_CODES:
            raise CheckpointError(f"{path}: tensor {name}: unknown dtype code {code!r}")
        dtype, want = np.dtype(_DTYPE_CODES[code]), dtypes.get(name, dtypes.get("*"))
        if want is None:
            raise CheckpointError(f"{path}: tensor {name}: not part of a {kind}")
        if not issubclass(dtype.type, want):
            expected = "a float dtype" if want is np.floating else np.dtype(want)
            raise CheckpointError(f"{path}: tensor {name}: dtype {dtype}, expected {expected}")
        if rows < 1 or cols < 1:
            raise CheckpointError(f"{path}: tensor {name}: dimension below 1 in {rows} x {cols}")
        if name in arrays:
            raise CheckpointError(f"{path}: tensor {name}: repeated in the manifest")
        if offset != end:
            raise CheckpointError(f"{path}: tensor {name}: offset {offset}, expected {end}")
        end = offset + rows * cols * dtype.itemsize
        chunk = payload[offset:end]
        if len(chunk) != end - offset:
            raise CheckpointError(f"{path}: tensor {name}: payload truncated at offset {offset}")
        arrays[name] = np.frombuffer(chunk, dtype=dtype).reshape(rows, cols).copy()
    if len(payload) != end:
        raise CheckpointError(f"{path}: payload of {len(payload)} bytes, manifest sums to {end}")
    return header, arrays, raw


@dataclass
class Checkpoint:
    params: Params
    train_config: TrainConfig
    seed: int
    epoch: int
    sha256: str  # of the bytes it was loaded from


def save_checkpoint(path, params: Params, train_config: TrainConfig, seed: int, epoch: int):
    _write_container(path, "checkpoint",
                     {"model": params.config, "train": train_config, "seed": seed, "epoch": epoch},
                     [(name, t.data) for name, t in params.named_tensors()])


def load_checkpoint(path) -> Checkpoint:
    header, arrays, raw = _read_container(path, "checkpoint")
    try:
        params = Params.from_named(header["model"], {n: Tensor2(a) for n, a in arrays.items()})
    except ValueError as err:
        raise CheckpointError(f"{path}: {err}") from err
    return Checkpoint(params=params, train_config=header["train"], seed=header["seed"],
                      epoch=header["epoch"], sha256=hashlib.sha256(raw).hexdigest())


def save_dataset(path, batch: Batch, spec: TaskSpec, layout: VocabLayout):
    """Dataset artifact in the container format; the header holds the TaskSpec."""
    meta = None if batch.meta is None else batch.meta.astype(np.int64).reshape(-1, 1)
    protected = None if batch.protected is None else batch.protected.astype(np.bool_)
    arrays = [("tokens", batch.tokens.astype(np.int64)),
              ("targets", batch.targets.astype(np.int64)),
              ("loss_mask", batch.loss_mask.astype(np.bool_)), ("meta", meta), ("protected", protected)]
    _write_container(path, "dataset", {"task": spec, "layout": layout},
                     [(name, arr) for name, arr in arrays if arr is not None])


def load_dataset(path) -> tuple[Batch, TaskSpec, VocabLayout]:
    """The batch, task and layout of a dataset artifact; CheckpointError names
    the file when the arrays fail TaskSpec.check against the header."""
    header, arrays, _ = _read_container(path, "dataset")
    spec, layout = header["task"], header["layout"]
    try:
        batch = Batch(
            tokens=arrays["tokens"],
            targets=arrays["targets"],
            loss_mask=arrays["loss_mask"],
            meta=arrays["meta"].reshape(-1) if "meta" in arrays else None,
            protected=arrays.get("protected"),
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
    """One run's CSV: a fresh file with one header line and a stable column
    order, to which each write appends a row."""

    def __init__(self, path):
        self._fh = open(path, "w")
        self._fh.write(",".join(METRICS_COLUMNS) + "\n")
        self._fh.flush()

    def write(self, row: MetricsRow):
        self._fh.write(row.as_csv() + "\n")
        self._fh.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


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
    atomic_write(path, [config_text(spec).encode()])

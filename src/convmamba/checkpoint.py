"""Binary checkpoint files.

Layout (little-endian): magic "MDCK", u32 format version, a tagged key-value
block holding the model configuration, then a u32 record count and one record
per parameter: u16 name length, name bytes, u8 rank, u32 extents, raw float32
data.

The loader checks the configuration against the file before it allocates:
the record count bounds n_layers, the bytes left bound the record count, and
every record must match the configuration and hold its data. So a malformed
file costs no more work or memory than its size.
"""

from __future__ import annotations

import math
import struct
from dataclasses import fields

import numpy as np

from . import tensor as tz
from .network import ModelConfig, NetworkWeights, new_weights, parameter_shapes

MAGIC = b"MDCK"
VERSION = 1
_TAG_U32 = 1
_TAG_BOOL = 2
# each config key's tag, from its field's type alone, on save and on load
_TAGS = {f.name: _TAG_BOOL if f.type == "bool" else _TAG_U32 for f in fields(ModelConfig)}


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, weights: NetworkWeights, cfg: ModelConfig) -> None:
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", VERSION)
    out += struct.pack("<I", len(_TAGS))
    for key, tag in _TAGS.items():
        name = key.encode()
        out += struct.pack("<H", len(name)) + name
        out += struct.pack("<BB" if tag == _TAG_BOOL else "<BI", tag, int(getattr(cfg, key)))
    params = weights.named_parameters()
    out += struct.pack("<I", len(params))
    for p in params:
        name = p.name.encode()
        data = p.tensor.data
        out += struct.pack("<H", len(name)) + name
        out += struct.pack("<B", data.ndim)
        out += struct.pack(f"<{data.ndim}I", *data.shape)
        out += np.ascontiguousarray(data, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(out))


class _Reader:
    def __init__(self, raw: bytes, path):
        self.raw = memoryview(raw)   # take() slices without copying
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        chunk = self.raw[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def name(self) -> str:
        """A u16-length-prefixed UTF-8 name: a config key or parameter name."""
        (n,) = self.unpack("<H")
        raw = bytes(self.take(n))
        try:
            return raw.decode()
        except UnicodeDecodeError:
            raise CheckpointError(f"{self.path}: name {raw!r} is not UTF-8") from None


def load_checkpoint(path, dtype=None) -> tuple[NetworkWeights, ModelConfig]:
    """Restore (weights, config); every parameter is validated against the
    shapes the embedded config implies."""
    with open(path, "rb") as fh:
        r = _Reader(fh.read(), path)
    if r.take(4) != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    (version,) = r.unpack("<I")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    (n_cfg,) = r.unpack("<I")
    kwargs = {}
    for _ in range(n_cfg):
        key = r.name()
        if key not in _TAGS:
            raise CheckpointError(f"{path}: unknown config key {key!r}")
        want = _TAGS[key]
        (tag,) = r.unpack("<B")
        if tag != want:
            raise CheckpointError(f"{path}: config key {key!r} has tag {tag}, expected {want}")
        kwargs[key] = bool(r.unpack("<B")[0]) if tag == _TAG_BOOL else r.unpack("<I")[0]
    try:
        cfg = ModelConfig(**kwargs)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None

    (n_params,) = r.unpack("<I")
    left = len(r.raw) - r.pos
    # every layer stores at least one record, and a record takes at least
    # 7 bytes, so walking the config's layers is bounded by the file's size
    if cfg.n_layers > n_params:
        raise CheckpointError(f"{path}: n_layers {cfg.n_layers} exceeds the"
                              f" {n_params} parameter records stored")
    if 7 * n_params > left:
        raise CheckpointError(f"{path}: truncated checkpoint, {n_params} parameter"
                              f" records cannot fit in the {left} bytes left")
    shapes = parameter_shapes(cfg)
    if n_params != len(shapes):
        raise CheckpointError(
            f"{path}: {n_params} parameters stored, config implies {len(shapes)}")
    records = []
    for want_name, want_shape in shapes:
        name = r.name()
        (rank,) = r.unpack("<B")
        shape = r.unpack(f"<{rank}I")
        if name != want_name or shape != want_shape:
            raise CheckpointError(
                f"{path}: parameter {name} with shape {shape} does not match"
                f" config expectation {want_name} {want_shape}")
        records.append(r.take(4 * math.prod(shape)))
    if r.pos != len(r.raw):
        raise CheckpointError(f"{path}: {len(r.raw) - r.pos} trailing bytes")

    weights = new_weights(cfg, dtype or tz.default_dtype())
    for p, data in zip(weights.named_parameters(), records):
        view = p.tensor.data
        view[...] = np.frombuffer(data, dtype="<f4").reshape(view.shape)
        if not np.isfinite(view).all():
            raise CheckpointError(f"{path}: parameter {p.name} has non-finite values")
    return weights, cfg

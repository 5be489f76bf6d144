"""Binary checkpoint files.

Layout (little-endian): magic "MDCK", u32 format version, a tagged key-value
block holding the model configuration, then one record per parameter:
u16 name length, name bytes, u8 rank, u32 extents, raw float32 data.
"""

from __future__ import annotations

import struct
from dataclasses import fields

import numpy as np

from . import tensor as tz
from .network import ModelConfig, NetworkWeights, new_weights

MAGIC = b"MDCK"
VERSION = 1
_TAG_U32 = 1
_TAG_BOOL = 2


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, weights: NetworkWeights, cfg: ModelConfig) -> None:
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", VERSION)
    cfg_fields = fields(ModelConfig)
    out += struct.pack("<I", len(cfg_fields))
    for f in cfg_fields:
        value = getattr(cfg, f.name)
        key = f.name.encode()
        out += struct.pack("<H", len(key)) + key
        if f.type == "bool" or isinstance(value, bool):
            out += struct.pack("<BB", _TAG_BOOL, int(value))
        else:
            out += struct.pack("<BI", _TAG_U32, int(value))
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
        self.raw = raw
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
        raw = self.take(n)
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
    valid_keys = {f.name for f in fields(ModelConfig)}
    for _ in range(n_cfg):
        key = r.name()
        (tag,) = r.unpack("<B")
        if tag == _TAG_BOOL:
            kwargs[key] = bool(r.unpack("<B")[0])
        elif tag == _TAG_U32:
            kwargs[key] = int(r.unpack("<I")[0])
        else:
            raise CheckpointError(f"{path}: unknown config tag {tag}")
        if key not in valid_keys:
            raise CheckpointError(f"{path}: unknown config key {key!r}")
    try:
        cfg = ModelConfig(**kwargs)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None

    weights = new_weights(cfg, dtype or tz.default_dtype())
    params = weights.named_parameters()
    (n_params,) = r.unpack("<I")
    if n_params != len(params):
        raise CheckpointError(
            f"{path}: {n_params} parameters stored, config implies {len(params)}")
    for p in params:
        view = p.tensor.data
        name = r.name()
        (rank,) = r.unpack("<B")
        shape = r.unpack(f"<{rank}I")
        if name != p.name or tuple(shape) != view.shape:
            raise CheckpointError(
                f"{path}: parameter {name} with shape {tuple(shape)} does not match"
                f" config expectation {p.name} {view.shape}")
        view[...] = np.frombuffer(r.take(4 * view.size), dtype="<f4").reshape(shape)
        if not np.isfinite(view).all():
            raise CheckpointError(f"{path}: parameter {name} has non-finite values")
    if r.pos != len(r.raw):
        raise CheckpointError(f"{path}: {len(r.raw) - r.pos} trailing bytes")
    return weights, cfg

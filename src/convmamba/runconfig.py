"""Flat "key = value" run configuration with dotted keys and overrides.

Example:

    model.preset = convmamba-4
    train.epochs = 150
    data.clean_dir = /data/clean

The keys are the fields of ModelConfig, TrainConfig and StftConfig under
model., train. and stft., plus model.preset, data.* and out.dir. Unknown
keys are errors. Values on the command line (--set key=value) override the
file.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .audio import StftConfig
from .masks import MaskKind
from .network import ModelConfig
from .training import TrainConfig


class ConfigError(ValueError):
    pass


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _mask_kind(text: str) -> MaskKind:
    try:
        return MaskKind(text.lower())
    except ValueError:
        raise ValueError(f"must be irm or psm, got {text!r}") from None


_SECTIONS = {"model": ModelConfig, "train": TrainConfig, "stft": StftConfig}
# the parser of each field annotation the sections use
_PARSERS = {"int": int, "bool": _bool, "float": float, "MaskKind": _mask_kind}

SCHEMA = {
    "model.preset": str,
    **{f"{section}.{f.name}": _PARSERS[f.type]
       for section, cls in _SECTIONS.items() for f in fields(cls)},
    **{f"data.{name}": str
       for name in ("clean_dir", "noise_dir", "clean_manifest", "noise_manifest")},
    "out.dir": str,
}


@dataclass
class RunConfig:
    model: ModelConfig
    train: TrainConfig
    stft: StftConfig
    clean_dir: str | None = None
    noise_dir: str | None = None
    clean_manifest: str | None = None
    noise_manifest: str | None = None
    out_dir: str = "runs/default"


def _pair(text: str, where: str) -> tuple[str, str]:
    if "=" not in text:
        raise ConfigError(f"{where}: expected 'key = value', got {text!r}")
    key, value = (part.strip() for part in text.split("=", 1))
    if key not in SCHEMA:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    return key, value


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = _pair(line, f"{source}:{lineno}")
            pairs[key] = value
    return pairs


def parse_overrides(items: list[str]) -> dict[str, str]:
    return dict(_pair(item, "--set") for item in items)


def build_run_config(pairs: dict[str, str]) -> RunConfig:
    kwargs: dict[str, dict[str, object]] = {s: {} for s in (*_SECTIONS, "data", "out")}
    for key, text in pairs.items():
        try:
            value = SCHEMA[key](text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from exc
        section, name = key.split(".", 1)
        kwargs[section][name] = value

    preset = kwargs["model"].pop("preset", None)
    model = (ModelConfig(**kwargs["model"]) if preset is None
             else ModelConfig.preset(preset, **kwargs["model"]))
    train = TrainConfig(**kwargs["train"])
    stft = StftConfig(**kwargs["stft"])
    if stft.bins != model.bins:
        raise ConfigError(
            f"stft yields {stft.bins} bins but model.bins = {model.bins}")
    return RunConfig(model=model, train=train, stft=stft,
                     out_dir=kwargs["out"].get("dir", "runs/default"), **kwargs["data"])


def load_run_config(config_path, overrides: list[str],
                    seed: int | None = None) -> RunConfig:
    pairs: dict[str, str] = {}
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        pairs.update(parse_config_text(path.read_text(encoding="utf-8"), str(path)))
    pairs.update(parse_overrides(overrides))
    if seed is not None:
        pairs["train.seed"] = str(seed)
    return build_run_config(pairs)

"""Run configuration: one nested schema mirroring every module's knobs.

Loaded from JSON; unknown keys are rejected at every level, every scalar must
have its field's type, counts must lie in their range, every key has a
default, and the effective config is echoed into each output directory.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, field

from .errors import ValidationError
from .physics import PhysicsConfig, default_loss_weights


def _at_least(minimum: int, default: int):
    """An int field whose configured value must be >= `minimum`."""
    return field(default=default, metadata={"min": minimum})


@dataclass
class MeshConfig:
    density: float = 0.2  # kg/m^2
    world_edge_radius_factor: float = 1.5  # times mean garment rest edge length
    world_edge_radius: float = 0.0  # absolute override in meters; 0 = use factor


@dataclass
class GeodesicConfig:
    embed_dim: int = _at_least(1, 8)
    mds_max_iters: int = _at_least(0, 500)


@dataclass
class ModelConfig:
    hidden_dim: int = _at_least(1, 64)
    lsdmp_layers: int = _at_least(0, 15)
    smoothing_steps: int = _at_least(0, 3)
    gsa_blocks: int = _at_least(0, 4)


@dataclass
class SimConfig:
    placement_height: float = 0.0  # garment translation along the up axis
    body_gap: float = 0.015  # body apex sits this far below the placed cloth


@dataclass
class SceneSpec:
    garment: str = ""  # OBJ path
    body: str = "static_sphere"
    amplitude: float | None = None  # preset default when omitted
    frequency: float | None = None
    embedding: str | None = None  # default: sibling .geo1 of the garment


@dataclass
class TrainerConfig:
    iterations: int = _at_least(1, 2000)
    learning_rate: float = 1e-4
    seed: int = 0
    scenes: list[SceneSpec] = field(default_factory=list)
    checkpoint_interval: int = _at_least(0, 500)
    warmup_steps: int = _at_least(0, 5)  # free (untrained) frames before the training step
    warmup_mode: str = "model"  # the only mode: no-grad model steps
    time_horizon: int = _at_least(1, 60)  # frames from which the time offset is sampled


@dataclass
class RunConfig:
    mesh: MeshConfig = field(default_factory=MeshConfig)
    geodesic: GeodesicConfig = field(default_factory=GeodesicConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    physics: PhysicsConfig = field(default_factory=PhysicsConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)


_WEIGHT_KEYS = frozenset(default_loss_weights())
_ACCEPTS = {int: (int,), float: (int, float), bool: (bool,), str: (str,)}


def _check_scalar(value, hint, path):
    """An int field takes no bool or float, a float field also takes an int,
    bool and str fields are exact, and an optional field also takes null."""
    options = typing.get_args(hint) or (hint,)  # `X | None` -> (X, NoneType)
    if value is None and type(None) in options:
        return
    base = options[0]
    if isinstance(value, bool) != (base is bool) or not isinstance(value, _ACCEPTS[base]):
        raise ValidationError(
            f"config key '{path}' must be {base.__name__}, got {value!r}")


def _build(cls, data, path):
    if not isinstance(data, dict):
        raise ValidationError(f"config section '{path}' must be an object")
    hints = typing.get_type_hints(cls)
    minimum = {f.name: f.metadata.get("min") for f in dataclasses.fields(cls)}
    unknown = set(data) - set(hints)
    if unknown:
        raise ValidationError(
            f"unknown config key(s) {sorted(unknown)} under '{path or 'top level'}'")
    kwargs = {}
    for key, value in data.items():
        sub = f"{path}.{key}" if path else key
        if key == "scenes":
            if not isinstance(value, list):
                raise ValidationError(f"'{sub}' must be a list of scenes")
            kwargs[key] = [_build(SceneSpec, s, f"{sub}[{i}]")
                           for i, s in enumerate(value)]
        elif key == "weights":
            if not isinstance(value, dict) or set(value) - _WEIGHT_KEYS:
                raise ValidationError(
                    f"'{sub}' must map a subset of {sorted(_WEIGHT_KEYS)}")
            merged = default_loss_weights()
            for k, v in value.items():
                _check_scalar(v, float, f"{sub}.{k}")
                merged[k] = float(v)
            kwargs[key] = merged
        elif key in _SECTION_TYPES:
            kwargs[key] = _build(_SECTION_TYPES[key], value, sub)
        else:
            _check_scalar(value, hints[key], sub)
            if minimum[key] is not None and value < minimum[key]:
                raise ValidationError(
                    f"config key '{sub}' must be >= {minimum[key]}, got {value!r}")
            kwargs[key] = value
    return cls(**kwargs)


_SECTION_TYPES = {
    "mesh": MeshConfig,
    "geodesic": GeodesicConfig,
    "model": ModelConfig,
    "physics": PhysicsConfig,
    "sim": SimConfig,
    "trainer": TrainerConfig,
}


def config_from_dict(data: dict) -> RunConfig:
    return _build(RunConfig, data, "")


def config_to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValidationError(f"{path}: invalid JSON config: {e}") from None
    return config_from_dict(data)


def save_config(path, cfg: RunConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")

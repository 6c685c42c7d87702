"""Run configuration: one nested schema mirroring every module's knobs.

Loaded from JSON; unknown keys are rejected at every level, every scalar must
have its field's type, floats must be finite, every key has a default, and the
effective config is echoed into each output directory.

The schema is the one place that declares and checks the range of a setting:
a bounded field names its bounds in its `dataclasses.field` metadata, such as
{">=": 0, "<=": 2} (`physics.PhysicsConfig` does the same). A command-line
flag that sets a key is applied to the data first, so it is checked as the
key's value, and an error names both flag and key.
"""

from __future__ import annotations

import dataclasses
import json
import operator
import sys
import typing
from dataclasses import dataclass, field

from .errors import ValidationError
from .physics import PhysicsConfig, default_loss_weights


@dataclass
class MeshConfig:
    density: float = field(default=0.2, metadata={">": 0})  # kg/m^2
    world_edge_radius_factor: float = field(default=1.5, metadata={">": 0})  # x mean rest edge
    world_edge_radius: float = field(default=0.0, metadata={">=": 0})  # meters; 0 = use factor


@dataclass
class GeodesicConfig:
    embed_dim: int = field(default=8, metadata={">=": 1})
    mds_max_iters: int = field(default=500, metadata={">=": 1})


@dataclass
class ModelConfig:
    hidden_dim: int = field(default=64, metadata={">=": 1})
    lsdmp_layers: int = field(default=15, metadata={">=": 0})
    smoothing_steps: int = field(default=3, metadata={">=": 0})
    gsa_blocks: int = field(default=4, metadata={">=": 0})


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
    iterations: int = field(default=2000, metadata={">=": 1})
    learning_rate: float = field(default=1e-4, metadata={">=": 0})
    seed: int = field(default=0, metadata={">=": 0})
    scenes: list[SceneSpec] = field(default_factory=list)
    checkpoint_interval: int = field(default=500, metadata={">=": 0})
    warmup_steps: int = field(default=5, metadata={">=": 0})  # free frames before the step
    warmup_mode: str = "model"  # the only mode: no-grad model steps
    time_horizon: int = field(default=60, metadata={">=": 1})  # frames to sample t0 from


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
_BOUNDS = {">=": operator.ge, ">": operator.gt, "<=": operator.le}


def _check_scalar(value, hint, path, bounds=None, flag=None):
    """An int field takes no bool or float, a float field also takes an int,
    bool and str fields are exact, an optional field also takes null, and a
    number must meet each of the field's `bounds`. A value that `flag` set is
    reported under the flag, then the key."""
    options = typing.get_args(hint) or (hint,)  # `X | None` -> (X, NoneType)
    if value is None and type(None) in options:
        return
    base = options[0]
    if isinstance(value, bool) != (base is bool) or not isinstance(value, _ACCEPTS[base]):
        need = base.__name__
    elif base is float and not abs(value) <= sys.float_info.max:  # nan, inf, huge int
        need = "a finite float"
    else:
        unmet = [f"{op} {limit}" for op, limit in (bounds or {}).items()
                 if not _BOUNDS[op](value, limit)]
        if not unmet:
            return
        need = unmet[0]
    problem = f"must be {need}, got {value!r}"
    raise ValidationError(f"{flag} {problem} (it sets config key '{path}')" if flag
                          else f"config key '{path}' {problem}")


def _build(cls, data, path, flags=None):
    """`cls` from `data`, checked key by key; `flags` maps a dotted key to the
    command-line flag that set its value."""
    if not isinstance(data, dict):
        raise ValidationError(f"config section '{path}' must be an object")
    hints = typing.get_type_hints(cls)
    bounds = {f.name: f.metadata for f in dataclasses.fields(cls)}
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
            kwargs[key] = _build(_SECTION_TYPES[key], value, sub, flags)
        else:
            _check_scalar(value, hints[key], sub, bounds[key], (flags or {}).get(sub))
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


def config_from_dict(data: dict, overrides: dict | None = None) -> RunConfig:
    """The config `data` describes. `overrides` maps a dotted key such as
    "trainer.iterations" to the (flag, value) a command line gave it; a value
    of None leaves the key alone. An override replaces the data's value before
    the check, so it is checked as the key's value."""
    flags = {}
    for key, (flag, value) in (overrides or {}).items():
        section, name = key.split(".")
        if value is not None and isinstance(data, dict) and isinstance(
                data.get(section, {}), dict):
            data = {**data, section: {**data.get(section, {}), name: value}}
            flags[key] = flag
    return _build(RunConfig, data, "", flags)


def config_to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """The JSON config at `path`, or the defaults when `path` is None, with
    `overrides` applied as in `config_from_dict`."""
    if path is None:
        return config_from_dict({}, overrides)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as e:  # also non-UTF-8 bytes, deep nesting
            raise ValidationError(f"{path}: invalid JSON config: {e}") from None
    return config_from_dict(data, overrides)


def save_config(path, cfg: RunConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")

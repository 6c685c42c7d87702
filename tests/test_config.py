"""Every numeric setting declares its range in the config schema, or is listed
below as deliberately unbounded. A new int or float key with neither fails here."""

import dataclasses
import typing

from eslrsim import config as C

# numeric keys with no range, each with the reason it has none
UNBOUNDED = {
    "physics.gravity": "its sign picks the direction of gravity along the up axis",
    "physics.weights.*": "a loss weight is a free multiplier, echoed into every report",
    "sim.placement_height": "a translation along the up axis, either way",
    "sim.body_gap": "an offset of the body's apex below the cloth, either way",
    "SceneSpec.amplitude": "a swing angle or travel speed; its sign picks the direction",
    "SceneSpec.frequency": "a swing frequency; a negative one swings the other way first",
}


def numeric_fields():
    """(dotted key, field) of every int or float field of the run config's
    sections and of a scene, and the loss weights as one `physics.weights.*`."""
    sections = {**typing.get_type_hints(C.RunConfig), "SceneSpec": C.SceneSpec}
    for prefix, cls in sections.items():
        for f in dataclasses.fields(cls):
            hint = typing.get_type_hints(cls)[f.name]
            key = f"{prefix}.{f.name}"
            if f.name == "weights":
                yield f"{key}.*", f
            elif (typing.get_args(hint) or (hint,))[0] in (int, float):
                yield key, f


def test_every_numeric_key_has_a_range_or_a_reason():
    found = dict(numeric_fields())
    missing = sorted(key for key, f in found.items()
                     if not f.metadata and key not in UNBOUNDED)
    assert not missing, f"declare a range or list the key in UNBOUNDED: {missing}"
    stale = sorted(key for key in UNBOUNDED if key not in found or found[key].metadata)
    assert not stale, f"UNBOUNDED names a key that is gone or now bounded: {stale}"
    unknown = sorted(key for key, f in found.items() if set(f.metadata) - set(C._BOUNDS))
    assert not unknown, f"bounds must be named one of {sorted(C._BOUNDS)}: {unknown}"

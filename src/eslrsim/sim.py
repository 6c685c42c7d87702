"""One prediction step and autoregressive rollout.

A step rebuilds world edges from current positions, encodes the combined
garment+body graph, runs the short-range (smoothing message-passing) and
long-range (geodesic attention) processors in parallel on the same latents,
fuses their garment features, decodes per-vertex accelerations, and applies
explicit Euler integration. The body advances kinematically from an analytic
motion preset, so its velocities are exact derivatives, never differenced.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import geodesic as geo
from . import gsa as gsa_mod
from . import lsdmp
from . import physics as phys
from . import tensor as T
from .config import ModelConfig, RunConfig, SceneSpec
from .errors import RolloutError, ValidationError
from .mesh import (Mesh, RestState, Topology, WorldEdgeSet, build_topology,
                   build_world_edges, compute_rest_quantities, load_obj, obj_text,
                   vertex_normals)
from .tensor import ModelParams, Tensor

PRESETS = ("static_sphere", "swinging_capsule", "translating_capsule")
# Preset body shapes, in meters. Both bodies have 2 + 8 * 12 = 98 vertices,
# which keeps `build_world_edges`' test of every (garment, body) pair cheap.
SPHERE_RADIUS = 0.3
CAPSULE_RADIUS, CAPSULE_HALF_LENGTH = 0.12, 0.3
BODY_LAT, BODY_LON = 9, 12


@dataclass
class SimState:
    t: int  # frame index
    x_g: np.ndarray  # (n_G, 3) garment positions
    q_g: np.ndarray  # (n_G, 3) garment velocities
    x_b: np.ndarray  # (n_B, 3) body positions (kinematic)
    q_b: np.ndarray  # (n_B, 3) body velocities
    normals_b: np.ndarray  # (n_B, 3) body vertex normals at x_b
    # World edges of (x_g, x_b), built on first use by _world_edges and kept so
    # no frame rebuilds them. Assigning x_g or x_b drops them; never change
    # those arrays in place.
    world: WorldEdgeSet | None = field(default=None, repr=False, compare=False)

    def __setattr__(self, name, value):
        if name in ("x_g", "x_b"):
            self.__dict__["world"] = None
        object.__setattr__(self, name, value)


@dataclass
class StepOutput:
    accel: Tensor  # (n_G, 3); garment vertices only
    x_next: Tensor  # (n_G, 3)
    q_next: Tensor
    next_state: SimState


@dataclass
class BodyMotion:
    preset: str
    amplitude: float
    frequency: float
    template: Mesh  # rest-pose body mesh
    pivot: np.ndarray  # swing pivot (unused by other presets)

    @cached_property
    def rest_normals(self) -> np.ndarray:
        """Vertex normals of the template, made once and shared by every state
        of a static body, so read-only."""
        normals = vertex_normals(self.template.vertices, self.template.triangles)
        normals.flags.writeable = False
        return normals


@dataclass
class GarmentAssets:
    mesh: Mesh
    topo: Topology
    rest: RestState
    embedding: np.ndarray  # (n_G, k)
    world_radius: float


@dataclass
class Scene:
    """Everything static for a garment/body pairing, precombined for encode."""
    garment: GarmentAssets
    body: BodyMotion
    plan: lsdmp.MeshPlan  # combined mesh, garment rows and edge rows first
    cfg: RunConfig


# -- body meshes and analytic motion ----------------------------------------

def uv_sphere(radius: float, n_lat: int, n_lon: int,
              center=(0.0, 0.0, 0.0)) -> Mesh:
    """Latitude/longitude sphere; poles are single vertices."""
    cx, cy, cz = center
    verts = [[cx, cy + radius, cz]]
    for i in range(1, n_lat):
        phi = np.pi * i / n_lat
        for j in range(n_lon):
            lam = 2 * np.pi * j / n_lon
            verts.append([cx + radius * np.sin(phi) * np.cos(lam),
                          cy + radius * np.cos(phi),
                          cz + radius * np.sin(phi) * np.sin(lam)])
    verts.append([cx, cy - radius, cz])
    last = len(verts) - 1
    tris = []
    ring = lambda i, j: 1 + (i - 1) * n_lon + (j % n_lon)
    for j in range(n_lon):
        tris.append((0, ring(1, j + 1), ring(1, j)))
        tris.append((last, ring(n_lat - 1, j), ring(n_lat - 1, j + 1)))
    for i in range(1, n_lat - 1):
        for j in range(n_lon):
            a, b = ring(i, j), ring(i, j + 1)
            c, d = ring(i + 1, j), ring(i + 1, j + 1)
            tris.append((a, b, d))
            tris.append((a, d, c))
    return Mesh(np.array(verts), np.array(tris, dtype=np.intp))


def capsule(radius: float, half_length: float, n_lat: int, n_lon: int,
            center=(0.0, 0.0, 0.0)) -> Mesh:
    """Capsule along the x axis: a sphere with its halves pushed apart."""
    sphere = uv_sphere(radius, n_lat, n_lon)
    v = sphere.vertices.copy()
    # sphere poles are on +-y; swap axes so the capsule axis is x
    v = v[:, [1, 0, 2]]
    v[:, 0] += np.sign(v[:, 0]) * half_length
    v += np.array(center)
    return Mesh(v, sphere.triangles)


def make_body_motion(preset: str, cfg: RunConfig, amplitude: float | None = None,
                     frequency: float | None = None) -> BodyMotion:
    """Build the preset's template mesh with its apex `body_gap` below the
    garment placement height."""
    sim = cfg.sim
    apex = sim.placement_height - sim.body_gap
    if preset == "static_sphere":
        template = uv_sphere(SPHERE_RADIUS, BODY_LAT, BODY_LON,
                             center=(0.0, apex - SPHERE_RADIUS, 0.0))
        amp = 0.0 if amplitude is None else amplitude
        freq = 0.0 if frequency is None else frequency
    elif preset in ("swinging_capsule", "translating_capsule"):
        template = capsule(CAPSULE_RADIUS, CAPSULE_HALF_LENGTH, BODY_LAT, BODY_LON,
                           center=(0.0, apex - CAPSULE_RADIUS, 0.0))
        if preset == "swinging_capsule":
            amp = 0.5 if amplitude is None else amplitude  # radians
            freq = 0.5 if frequency is None else frequency  # Hz
        else:
            amp = 0.3 if amplitude is None else amplitude  # m/s along x
            freq = 0.0 if frequency is None else frequency
    else:
        raise ValidationError(f"unknown body preset {preset!r}; choose from {PRESETS}")
    pivot = np.array([0.0, cfg.sim.placement_height + 0.5, 0.0])
    return BodyMotion(preset=preset, amplitude=amp, frequency=freq,
                      template=template, pivot=pivot)


def body_motion_eval(motion: BodyMotion, time: float
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic positions, velocities (closed-form time derivative) and vertex
    normals at those positions."""
    base, triangles = motion.template.vertices, motion.template.triangles
    if motion.preset == "static_sphere":
        return base.copy(), np.zeros_like(base), motion.rest_normals
    if motion.preset == "translating_capsule":
        vel = np.array([motion.amplitude, 0.0, 0.0])
        pos = base + vel * time
        return pos, np.tile(vel, (len(base), 1)), vertex_normals(pos, triangles)
    # swinging_capsule; make_body_motion admits no other preset
    omega = 2 * np.pi * motion.frequency
    theta = motion.amplitude * np.sin(omega * time)
    dtheta = motion.amplitude * omega * np.cos(omega * time)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    rel = base - motion.pivot
    pos = rel @ rot.T + motion.pivot
    # d/dt R(theta) x = dtheta * (z_hat x (R x))
    spun = pos - motion.pivot
    vel = dtheta * np.cross(np.array([0.0, 0.0, 1.0]), spun)
    return pos, vel, vertex_normals(pos, triangles)


# -- assets and scenes -------------------------------------------------------

def garment_assets_from_mesh(mesh: Mesh, cfg: RunConfig, embedding: np.ndarray,
                             source: str = "embedding") -> GarmentAssets:
    """`source` names the embedding in the error for a mismatched shape."""
    topo = build_topology(mesh)
    rest = compute_rest_quantities(mesh, topo, cfg.mesh.density)
    if embedding.shape != (mesh.n_vertices, cfg.geodesic.embed_dim):
        raise ValidationError(
            f"{source} has shape {embedding.shape} for a garment with "
            f"{mesh.n_vertices} vertices and embedding dimension "
            f"geodesic.embed_dim={cfg.geodesic.embed_dim}; re-run preprocess")
    radius = cfg.mesh.world_edge_radius
    if radius == 0:
        radius = cfg.mesh.world_edge_radius_factor * float(rest.edge_rest_lengths.mean())
    return GarmentAssets(mesh=mesh, topo=topo, rest=rest, embedding=embedding,
                         world_radius=radius)


def load_garment_assets(garment_path, cfg: RunConfig,
                        embedding_path=None) -> GarmentAssets:
    mesh = load_obj(garment_path)
    path = embedding_path or geo.default_embedding_path(garment_path)
    try:
        _, coords = geo.load_embedding(path)
    except FileNotFoundError:
        raise ValidationError(
            f"no geodesic embedding at {path} for garment {garment_path}; "
            f"run `eslrsim preprocess --garment {garment_path}` first") from None
    return garment_assets_from_mesh(mesh, cfg, coords, source=str(path))


def build_scene(garment: GarmentAssets, body: BodyMotion, cfg: RunConfig) -> Scene:
    body_topo = build_topology(body.template)
    n_g = garment.mesh.n_vertices
    combined = np.concatenate(
        [garment.topo.mesh_edges, body_topo.mesh_edges + n_g], axis=0)
    rest_positions = np.concatenate([garment.mesh.vertices, body.template.vertices])
    return Scene(garment=garment, body=body,
                 plan=lsdmp.MeshPlan(combined, n_g, len(garment.topo.mesh_edges),
                                     rest_positions),
                 cfg=cfg)


def scene_from_spec(spec: SceneSpec, cfg: RunConfig) -> Scene:
    garment = load_garment_assets(spec.garment, cfg, spec.embedding)
    body = make_body_motion(spec.body, cfg, spec.amplitude, spec.frequency)
    return build_scene(garment, body, cfg)


# -- model parameters ---------------------------------------------------------

def build_model_params(model: ModelConfig, embed_dim: int, seed: int) -> ModelParams:
    """All named parameters, drawn in a fixed order from one seeded generator.

    Processor/attention output layers and the decoder output start at zero, so
    a fresh model is exactly the identity on latents and predicts zero
    acceleration (free drift). Training then moves every variant off the same
    starting behavior. The zeroed draws still consume generator state, so the
    remaining weights match across ablation variants with the same seed.
    """
    rng = np.random.default_rng(seed)
    params = ModelParams()
    h = model.hidden_dim
    lsdmp.init_encoder_params(params, h, rng)
    lsdmp.init_lsdmp_params(params, model.lsdmp_layers, h, rng, zero_output=True)
    gsa_mod.init_gsa_params(params, model.gsa_blocks, h, embed_dim, rng,
                            zero_output=True)
    T.mlp_init(params, "fusion", 2 * h, h, h, rng, norm=True)
    T.mlp_init(params, "decoder", h, h, 3, rng, zero_output=True)
    params.add("decoder.accel_scale", np.array([1.0]))
    return params


# -- the step -----------------------------------------------------------------

def initial_state(garment: GarmentAssets, motion: BodyMotion, cfg: RunConfig,
                  t0: int = 0) -> SimState:
    """Rest garment lifted to the placement height, at rest; body at frame t0.
    Warns if the placement already penetrates beyond twice the margin."""
    x_g = garment.mesh.vertices + np.array([0.0, cfg.sim.placement_height, 0.0])
    x_b, q_b, normals_b = body_motion_eval(motion, t0 * cfg.physics.dt)
    state = SimState(t=t0, x_g=x_g, q_g=np.zeros_like(x_g), x_b=x_b, q_b=q_b,
                     normals_b=normals_b)
    pairs = _world_edges(state, garment.world_radius).pairs
    if len(pairs):
        dist = _nearest_body_signed_distance(x_g, x_b, pairs, normals_b)
        eps = cfg.physics.collision_margin
        if dist.min() < -eps:  # margin violation beyond 2 * eps
            warnings.warn(
                f"initial placement penetrates the body by "
                f"{eps - dist.min():.4f} m (> 2x margin); training may struggle")
    return state


def step(state: SimState, params: ModelParams, scene: Scene) -> StepOutput:
    """Encode, process (short-range and long-range in parallel), fuse, decode,
    integrate. See module docstring for the exact sequence."""
    cfg = scene.cfg
    n_g = scene.garment.mesh.n_vertices
    world_combined = _world_edges(state, scene.garment.world_radius).pairs.copy()
    if len(world_combined):
        world_combined[:, 1] += n_g

    positions = np.concatenate([state.x_g, state.x_b], axis=0)
    velocities = np.concatenate([state.q_g, state.q_b], axis=0)
    normals = np.concatenate(
        [vertex_normals(state.x_g, scene.garment.mesh.triangles), state.normals_b])

    lg = lsdmp.encode(params, positions, velocities, normals, scene.plan,
                      world_combined)
    v_short = lsdmp.lsdmp_forward(lg, params, cfg.model.lsdmp_layers,
                                  cfg.model.smoothing_steps).vertex_feats
    garment_rows = scene.plan.garment_rows
    v_long = gsa_mod.gsa_forward(T.gather_rows(lg.vertex_feats, garment_rows),
                                 scene.garment.embedding, params,
                                 cfg.model.gsa_blocks)
    fused_in = T.concat([T.gather_rows(v_short, garment_rows), v_long], axis=-1)
    assert fused_in.data.shape[1] == 2 * cfg.model.hidden_dim
    v_prime = T.mlp_apply(params, "fusion", fused_in)
    accel = T.mul(T.mlp_apply(params, "decoder", v_prime),
                  params["decoder.accel_scale"])

    dt = cfg.physics.dt
    q_next = T.add(Tensor(state.q_g), T.mul(accel, dt))
    x_next = T.add(Tensor(state.x_g), T.mul(q_next, dt))
    t1 = state.t + 1
    x_b, q_b, normals_b = body_motion_eval(scene.body, t1 * dt)
    next_state = SimState(t=t1, x_g=x_next.data.copy(), q_g=q_next.data.copy(),
                          x_b=x_b, q_b=q_b, normals_b=normals_b)
    return StepOutput(accel=accel, x_next=x_next, q_next=q_next,
                      next_state=next_state)


def step_loss(state: SimState, out: StepOutput, scene: Scene,
              diagnostics: dict | None = None) -> tuple[Tensor, dict[str, float]]:
    """Physics loss of the predicted configuration.

    Collision pairs come from the predicted positions against the advanced
    body; the friction contact set is fixed at the pre-step state so no
    gradient flows through set membership. Both states keep their world edges,
    so the next frame and the penetration metric reuse them.
    """
    cfg = scene.cfg.physics
    garment = scene.garment
    radius = garment.world_radius
    nxt = out.next_state
    contacts = phys.contact_pairs(_world_edges(state, radius).pairs, state.x_g,
                                  state.x_b, state.normals_b, cfg)
    return phys.total_loss(
        out.x_next, state.x_g, state.q_g, nxt.x_b, nxt.normals_b,
        _world_edges(nxt, radius).pairs, contacts, garment.topo, garment.rest, cfg,
        body_normals_curr=state.normals_b, pos_b_curr=state.x_b,
        diagnostics=diagnostics)


def _world_edges(state: SimState, radius: float) -> WorldEdgeSet:
    """The state's world edges, built on first use and kept on the state."""
    if state.world is None:
        state.world = build_world_edges(state.x_g, state.x_b, radius)
    return state.world


def _nearest_body_signed_distance(x_g: np.ndarray, x_b: np.ndarray,
                                  pairs: np.ndarray, normals: np.ndarray
                                  ) -> np.ndarray:
    """Signed normal distance of each garment vertex to its nearest body vertex,
    for garment vertices with any body vertex in range (the world-edge
    `pairs`, at least one). Using only the nearest pair keeps far-side
    vertices (normals facing away) from reading as penetration."""
    d2 = ((x_g[pairs[:, 0]] - x_b[pairs[:, 1]]) ** 2).sum(axis=1)
    order = np.lexsort((d2, pairs[:, 0]))  # stable: a tie keeps the lower row
    _, first = np.unique(pairs[order, 0], return_index=True)
    sel = pairs[np.sort(order[first])]
    return ((x_g[sel[:, 0]] - x_b[sel[:, 1]]) * normals[sel[:, 1]]).sum(axis=1)


def max_penetration_depth(state: SimState, scene: Scene) -> float:
    """Worst margin violation against the nearest body vertex; values above the
    margin mean the surface itself is pierced."""
    pairs = _world_edges(state, scene.garment.world_radius).pairs
    if not len(pairs):
        return 0.0
    dist = _nearest_body_signed_distance(state.x_g, state.x_b, pairs, state.normals_b)
    return float(max(0.0, (scene.cfg.physics.collision_margin - dist).max()))


def rollout(state: SimState, params: ModelParams, n_frames: int, scene: Scene,
            out_dir=None) -> list[dict]:
    """Run `n_frames` steps; returns one metrics record per frame.

    Aborts with the offending frame index if any state stops being finite.
    Frames are written as OBJ files and metrics appended to metrics.jsonl when
    an output directory is given.
    """
    if n_frames < 1:
        raise ValidationError("rollout needs n_frames >= 1")
    records = []
    metrics_fh = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        metrics_fh = open(out_dir / "metrics.jsonl", "w", encoding="utf-8")
    try:
        for frame in range(n_frames):
            with T.no_grad():
                out = step(state, params, scene)
                nxt = out.next_state
                if not (np.all(np.isfinite(nxt.x_g)) and np.all(np.isfinite(nxt.q_g))):
                    raise RolloutError(frame, "non-finite garment state")
                _, breakdown = step_loss(state, out, scene)
            record = {"frame": frame, **breakdown,
                      "max_penetration": max_penetration_depth(nxt, scene)}
            records.append(record)
            if out_dir is not None:
                frame_path = out_dir / f"frame_{frame:05d}.obj"
                frame_path.write_text(
                    obj_text(nxt.x_g, scene.garment.mesh.triangles),
                    encoding="utf-8")
                metrics_fh.write(json.dumps(record, sort_keys=True) + "\n")
            state = nxt
    finally:
        if metrics_fh is not None:
            metrics_fh.close()
    return records

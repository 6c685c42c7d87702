"""Short-range processor: message passing plus Laplacian feature smoothing.

Each layer runs one conventional message-passing stage (edge update, then
vertex update over separate mesh/world aggregations), then `s` parameter-free
smoothing steps that average neighbor features plus incident edge features over
the garment mesh, then a per-vertex MLP with a residual around the smoothing
stage. A layer therefore widens the receptive field by exactly 1 + s hops.

Body vertices take part in message passing (world edges carry the contact
signal) but pass through smoothing unchanged.

The encoder's static inputs, the vertex kinds and the mesh edges' rest
features, are built once per scene with the rest of the `MeshPlan`; `encode`
adds the step's positions, velocities and normals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .tensor import ModelParams, Tensor

VERTEX_FEATURES = 8  # one-hot kind (2) + velocity (3) + normal (3)
MESH_EDGE_FEATURES = 8  # relative position + norm, relative rest position + norm
WORLD_EDGE_FEATURES = 4  # relative position + norm


class EdgeIncidence:
    """An edge list's incidences on `n` vertices: the gather of each endpoint
    (its backward is a scatter) and the incident-edge sum at each vertex.
    `incident` has one row per edge end, `[first ends; second ends]`, and
    reads edge row `r mod M`, so its sum takes the (M, h) edge features as
    they are."""

    def __init__(self, edges: np.ndarray, n: int):
        self.edges = edges
        self.first = T.Incidence(edges[:, 0], n)
        self.second = T.Incidence(edges[:, 1], n)
        self.incident = T.Incidence(np.concatenate([edges[:, 0], edges[:, 1]]), n,
                                    rows=np.tile(np.arange(len(edges)), 2))


class MeshPlan:
    """Everything LSDMP derives from the fixed combined mesh, built once per
    scene: the encoder's static inputs, the edge incidences and the smoothing
    operator's message routing.

    The static inputs are the vertex-kind one-hot `kinds` (garment rows
    first), the mesh edges' rest features `rest_edge_feats` (relative rest
    position and its norm, `_relative(rest_positions, mesh_edges)`) and
    `garment_rows`, the gather of the garment rows that the long-range
    processor and the fusion read.

    Smoothing message r goes to vertex `[g0; g1][r]` from `[g1; g0][r]` along
    garment edge `r mod E_g` (g0, g1: the garment edges' endpoints).
    `neighbours` routes the source rows and `garment.incident` the edge rows
    to the destinations; with the same segment ids, their steps pair up.
    `neighbours_back`, the backward's scatter, is the reverse routing: its
    segments are the sources, so it groups and orders rows differently.
    `mask` marks garment vertices with a neighbour (their output is the
    mean), `keep = 1 - mask` the rows that pass through.
    """

    def __init__(self, mesh_edges: np.ndarray, n_garment: int, n_garment_edges: int,
                 rest_positions: np.ndarray):
        n_total = len(rest_positions)
        self.mesh_edges = mesh_edges
        self.n_garment = n_garment
        self.n_garment_edges = n_garment_edges
        self.n_total = n_total
        is_garment = np.arange(n_total) < n_garment
        self.kinds = np.stack([is_garment, ~is_garment], axis=1).astype(np.float64)
        self.rest_edge_feats = _relative(rest_positions, mesh_edges)
        self.garment_rows = T.Incidence(np.arange(n_garment), n_total)
        self.edges = EdgeIncidence(mesh_edges, n_total)
        ge = mesh_edges[:n_garment_edges]
        self.garment = EdgeIncidence(ge, n_total)
        dst = self.garment.incident.ids  # [g0; g1]
        src = np.concatenate([ge[:, 1], ge[:, 0]])
        self.neighbours = T.Incidence(dst, n_total, rows=src)
        self.neighbours_back = T.Incidence(src, n_total, rows=dst)
        counts = self.neighbours.counts
        self.denom = np.maximum(counts, 1.0)[:, None]
        active = (counts > 0) & is_garment
        self.mask = active.astype(np.float64)[:, None]
        self.keep = 1.0 - self.mask


@dataclass
class LatentGraph:
    vertex_feats: Tensor  # (n_total, h); garment rows first
    mesh_edge_feats: Tensor  # (M, h); garment edge rows first
    world_edge_feats: Tensor  # (W, h)
    plan: MeshPlan  # the combined mesh; every layer reuses it
    world_plan: EdgeIncidence  # (garment, offset body) world edges


# -- encoders ----------------------------------------------------------------

def init_encoder_params(params: ModelParams, hidden_dim: int,
                        rng: np.random.Generator) -> None:
    T.mlp_init(params, "encoder.vertex", VERTEX_FEATURES, hidden_dim, hidden_dim,
               rng, norm=True)
    T.mlp_init(params, "encoder.mesh_edge", MESH_EDGE_FEATURES, hidden_dim,
               hidden_dim, rng, norm=True)
    T.mlp_init(params, "encoder.world_edge", WORLD_EDGE_FEATURES, hidden_dim,
               hidden_dim, rng, norm=True)


def _relative(positions: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """(E, 4) edge features: relative position of the first endpoint to the
    second, then its norm."""
    rel = positions[edges[:, 0]] - positions[edges[:, 1]]
    return np.concatenate([rel, np.linalg.norm(rel, axis=1, keepdims=True)], axis=1)


def assemble_input_features(positions: np.ndarray, velocities: np.ndarray,
                            normals: np.ndarray, plan: MeshPlan,
                            world_edges: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw (pre-encoder) features; everything relative, so translation-invariant
    except the vertex velocity/normal channels. The kinds and the rest edge
    features come from the plan."""
    vertex = np.concatenate([plan.kinds, velocities, normals], axis=1)
    mesh = np.concatenate([_relative(positions, plan.mesh_edges), plan.rest_edge_feats],
                          axis=1)
    return vertex, mesh, _relative(positions, world_edges)


def encode(params: ModelParams, positions: np.ndarray, velocities: np.ndarray,
           normals: np.ndarray, plan: MeshPlan, world_edges: np.ndarray) -> LatentGraph:
    """Build the latent graph for one step from plain state arrays; the
    world-edge incidences are built here, once per step."""
    vertex, mesh_e, world_e = assemble_input_features(positions, velocities, normals,
                                                      plan, world_edges)
    return LatentGraph(
        vertex_feats=T.mlp_apply(params, "encoder.vertex", Tensor(vertex)),
        mesh_edge_feats=T.mlp_apply(params, "encoder.mesh_edge", Tensor(mesh_e)),
        world_edge_feats=T.mlp_apply(params, "encoder.world_edge", Tensor(world_e)),
        plan=plan,
        world_plan=EdgeIncidence(world_edges, plan.n_total),
    )


# -- one LSDMP layer ----------------------------------------------------------

def init_layer_params(params: ModelParams, name: str, hidden_dim: int,
                      rng: np.random.Generator, zero_output: bool = False) -> None:
    """zero_output starts the layer as the identity (residuals carry through),
    which keeps early training at free drift instead of injecting init noise."""
    h = hidden_dim
    T.mlp_init(params, f"{name}.f_e_mesh", 3 * h, h, h, rng, norm=True,
               zero_output=zero_output)
    T.mlp_init(params, f"{name}.f_e_world", 3 * h, h, h, rng, norm=True,
               zero_output=zero_output)
    T.mlp_init(params, f"{name}.f_v", 3 * h, h, h, rng, norm=True,
               zero_output=zero_output)
    T.mlp_init(params, f"{name}.f_v_prime", h, h, h, rng, norm=True,
               zero_output=zero_output)


def init_lsdmp_params(params: ModelParams, n_layers: int, hidden_dim: int,
                      rng: np.random.Generator, zero_output: bool = False) -> None:
    for i in range(n_layers):
        init_layer_params(params, f"lsdmp.layer{i}", hidden_dim, rng,
                          zero_output=zero_output)


def mp_edge_update(lg: LatentGraph, params: ModelParams,
                   name: str) -> tuple[Tensor, Tensor]:
    """Edge features from (edge, both endpoints), with a residual; mesh and
    world edges use separate MLPs; the MLP input is one op."""
    v = lg.vertex_feats

    def update(inc, feats, mlp_name):
        h = feats.data.shape[1]
        inp = T._node(
            np.concatenate([feats.data, v.data[inc.first.ids], v.data[inc.second.ids]],
                           axis=-1), (feats, v, v), "edge_input",
            lambda g: (g[:, :h], inc.first.sum(g[:, h:2 * h]), inc.second.sum(g[:, 2 * h:])))
        return T.add(T.mlp_apply(params, mlp_name, inp), feats)

    return (update(lg.plan.edges, lg.mesh_edge_feats, f"{name}.f_e_mesh"),
            update(lg.world_plan, lg.world_edge_feats, f"{name}.f_e_world"))


def incident_sum(inc: EdgeIncidence, feats: Tensor) -> Tensor:
    """Per-vertex sum of the features of incident edges (zeros where none), as
    `segment_sum` of `[feats; feats]` without the copy; parents `(feats, feats)`."""
    return T._node(inc.incident.sum(feats.data), (feats, feats), "incident_sum",
                   lambda g: (g[inc.first.ids], g[inc.second.ids]))


def mp_vertex_update(lg: LatentGraph, mesh_e: Tensor, world_e: Tensor,
                     params: ModelParams, name: str) -> Tensor:
    """Vertex features from (vertex, mesh-edge sum, world-edge sum), with a
    residual; vertices with no incident edges of a kind get a zero sum."""
    inp = T.concat([lg.vertex_feats,
                    incident_sum(lg.plan.edges, mesh_e),
                    incident_sum(lg.world_plan, world_e)], axis=-1)
    return T.add(T.mlp_apply(params, f"{name}.f_v", inp), lg.vertex_feats)


def smoothing_edge_rows(mesh_e: Tensor, lg: LatentGraph) -> list[np.ndarray]:
    """The edge rows each smoothing step adds, per step of the garment edges'
    incidence; they are the same for all `s` steps of a layer."""
    return [mesh_e.data[rows] for rows in lg.plan.garment.incident.steps]


def laplacian_smooth_step(v: Tensor, mesh_e: Tensor, lg: LatentGraph,
                          edge_rows: list[np.ndarray]) -> Tensor:
    """Average of (neighbor vertex + connecting edge) features over garment mesh
    edges; parameter-free. Body vertices and neighborless vertices pass through.

    One tape op. Each message `v[src] + e` is added straight into its
    destination's sum in ascending message order, so the values equal those of
    gathering all messages and taking `segment_mean`. `edge_rows` are
    `smoothing_edge_rows(mesh_e, lg)`, which a layer gathers once. The
    backward lists `v` twice, the scatter through the neighbour means first
    and the pass-through `g * keep` second, in the order the separate
    gather/mean/mask ops accumulated them.
    """
    plan = lg.plan
    if plan.n_garment_edges == 0:
        return v
    nb = plan.neighbours
    mean = nb.add_steps((v.data[src] + e for src, e in zip(nb.steps, edge_rows)),
                        v.data.shape[1:])
    mean /= plan.denom
    mean *= plan.mask
    out = v.data * plan.keep
    out += mean
    n_edges = mesh_e.data.shape[0]

    def vjp(g):
        gm = g * plan.mask
        gm /= plan.denom
        gv = ge = None
        if v.requires_grad:
            gv = plan.neighbours_back.sum(gm)
        if mesh_e.requires_grad:
            ge = np.zeros((n_edges,) + g.shape[1:])
            head = ge[:plan.n_garment_edges]
            head += gm[plan.garment.first.ids]
            head += gm[plan.garment.second.ids]
        return gv, ge, (g * plan.keep if v.requires_grad else None)

    return T._node(out, (v, mesh_e, v), "laplacian_smooth", vjp)


def lsdmp_layer(lg: LatentGraph, params: ModelParams, name: str,
                smoothing_steps: int) -> LatentGraph:
    """Message passing, `smoothing_steps` smoothing applications, output MLP
    with a residual around the smoothing stage; edge features carry forward."""
    mesh_e, world_e = mp_edge_update(lg, params, name)
    v_a = mp_vertex_update(lg, mesh_e, world_e, params, name)
    v_p = v_a
    edge_rows = smoothing_edge_rows(mesh_e, lg) if smoothing_steps else []
    for _ in range(smoothing_steps):
        v_p = laplacian_smooth_step(v_p, mesh_e, lg, edge_rows)
    v_out = T.add(T.mlp_apply(params, f"{name}.f_v_prime", v_p), v_a)
    return replace(lg, vertex_feats=v_out, mesh_edge_feats=mesh_e,
                   world_edge_feats=world_e)


def lsdmp_forward(lg: LatentGraph, params: ModelParams, n_layers: int,
                  smoothing_steps: int) -> LatentGraph:
    for i in range(n_layers):
        lg = lsdmp_layer(lg, params, f"lsdmp.layer{i}", smoothing_steps)
    return lg

"""Differentiable physics losses: stretch, bending, collision, gravity,
inertia, friction, and their weighted total.

All terms run on the autodiff tape so one-step training can backpropagate
through the predicted positions. Gravity is signed (potential energy along the
up axis); everything else is nonnegative. Non-smooth spots are handled by
construction: collision uses a cubic hinge (C2 at the margin), friction uses a
Huber-smoothed tangential speed, and degenerate bending hinges are dropped from
the sum before any tape op can divide by zero.

A contact is a world-edge pair: a garment vertex and a body vertex within the
world radius. `body_contacts`, the one place that rule is written, gives each
pair's body point, body normal and signed distance along it; `sim` builds one
such `Contacts` record per state and keeps it there. Collision reads the
predicted state's record, friction the current state's contacts below the margin.

The terms mean what they claim only for dt > 0, a margin > 0, huber_delta > 0,
nonnegative stiffnesses and friction, and an up axis in 0..2. `PhysicsConfig`
declares those ranges on its fields; `config` checks them once, when a run
config is built, and nothing here checks them again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .mesh import RestState, Topology


def default_loss_weights() -> dict[str, float]:
    # tuned on the desk benchmark only; echoed into every eval report
    return {
        "stretch": 1.0,
        "bending": 1.0,
        "collision": 1e3,
        "gravity": 1.0,
        "inertia": 1.0,
        "friction": 0.5,
    }


@dataclass
class PhysicsConfig:
    k_stretch: float = field(default=50.0, metadata={">=": 0})  # N/m
    k_bend: float = field(default=1e-4, metadata={">=": 0})  # N*m
    collision_margin: float = field(default=0.01, metadata={">": 0})  # meters (epsilon)
    k_collision: float = field(default=1.0, metadata={">=": 0})
    gravity: float = 9.81  # m/s^2, downward along up_axis
    friction_mu: float = field(default=0.3, metadata={">=": 0})
    dt: float = field(default=1.0 / 30.0, metadata={">": 0})  # seconds
    up_axis: int = field(default=1, metadata={">=": 0, "<=": 2})
    huber_delta: float = field(default=1e-6, metadata={">": 0})  # meters, friction smoothing
    weights: dict[str, float] = field(default_factory=default_loss_weights)


TERM_FORMULAS = {
    "stretch": "sum_edges (k_s/2) * (|x_i - x_j| - L_ij)^2 / L_ij",
    "bending": "sum_hinges (k_b/2) * (theta - theta_rest)^2, theta via atan2 of face normals",
    "collision": "sum_pairs k_c * max(0, eps - (x_g - x_b) . n_b)^3",
    "gravity": "sum_i m_i * g * height(x_i)  (signed)",
    "inertia": "sum_i (m_i / (2 dt^2)) * |x_next_i - (x_i + dt q_i)|^2",
    "friction": "mu * sum_contacts m_i * huber(|tangential(x_next_i - x_i)|) / dt",
}


@dataclass
class Contacts:
    """A state's body contacts, one row per world-edge pair (module docstring)."""
    pairs: np.ndarray  # (P, 2) rows (garment vertex, body vertex)
    point: np.ndarray  # (P, 3) body point
    normal: np.ndarray  # (P, 3) body normal at the point
    distance: np.ndarray  # (P,) garment vertex's signed distance along the normal

    def below(self, margin: float) -> Contacts:
        """The contacts closer than `margin`."""
        near = self.distance < margin
        return Contacts(*(a[near] for a in (self.pairs, self.point, self.normal,
                                            self.distance)))


def body_contacts(pairs: np.ndarray, x_g, x_b, normals_b) -> Contacts:
    """Contacts of garment `x_g` with a body at `x_b` over world-edge `pairs`: the
    body point is the pair's body vertex, its normal the vertex normal; no gradient."""
    point, normal = x_b[pairs[:, 1]], normals_b[pairs[:, 1]]
    return Contacts(pairs, point, normal, ((x_g[pairs[:, 0]] - point) * normal).sum(axis=1))


def stretch_energy(pos, topo: Topology, rest: RestState, cfg: PhysicsConfig) -> T.Tensor:
    pos = T.as_tensor(pos)
    if len(topo.mesh_edges) == 0:
        return T.Tensor(0.0)
    xi = T.gather_rows(pos, topo.mesh_edges[:, 0])
    xj = T.gather_rows(pos, topo.mesh_edges[:, 1])
    lengths = T.row_norm(T.sub(xi, xj))
    rest_len = rest.edge_rest_lengths[:, None]
    strain = T.sub(lengths, T.Tensor(rest_len))
    per_edge = T.div(T.mul(strain, strain), T.Tensor(rest_len))
    return T.mul(T.tsum(per_edge), cfg.k_stretch / 2.0)


def bending_energy(pos, topo: Topology, rest: RestState, cfg: PhysicsConfig,
                   diagnostics: dict | None = None) -> T.Tensor:
    """Hinge energy against the rest dihedral angles.

    Hinges whose current triangles are degenerate (near-zero normal) contribute
    zero and are counted in diagnostics["degenerate_hinges"]; they are excluded
    before any tape op so no gradient can blow up through them.
    """
    pos = T.as_tensor(pos)
    hinges = topo.dihedral_pairs
    p = pos.data
    e_np = p[hinges[:, 1]] - p[hinges[:, 0]]
    n1_np = np.cross(e_np, p[hinges[:, 2]] - p[hinges[:, 0]])
    n2_np = np.cross(p[hinges[:, 3]] - p[hinges[:, 0]], e_np)
    valid = ((np.linalg.norm(n1_np, axis=1) > 1e-12)
             & (np.linalg.norm(n2_np, axis=1) > 1e-12))
    if diagnostics is not None:
        diagnostics["degenerate_hinges"] = int((~valid).sum())
    if not valid.any():
        return T.Tensor(0.0)
    hv = hinges[valid]
    xi = T.gather_rows(pos, hv[:, 0])
    xj = T.gather_rows(pos, hv[:, 1])
    xp = T.gather_rows(pos, hv[:, 2])
    xq = T.gather_rows(pos, hv[:, 3])
    e = T.sub(xj, xi)
    n1 = T.cross3(e, T.sub(xp, xi))
    n2 = T.cross3(T.sub(xq, xi), e)
    # atan2((n1 x n2).e, (n1.n2)|e|) is invariant to the |n1||n2||e| scale
    sin_term = T.dot_rows(T.cross3(n1, n2), e)
    cos_term = T.mul(T.dot_rows(n1, n2), T.row_norm(e))
    theta = T.sub(np.pi, T.atan2(sin_term, cos_term))
    delta = T.sub(theta, T.Tensor(rest.rest_dihedral_angles[valid][:, None]))
    return T.mul(T.tsum(T.mul(delta, delta)), cfg.k_bend / 2.0)


def collision_penalty(pos_g, contacts: Contacts, cfg: PhysicsConfig) -> T.Tensor:
    """Cubic penalty on proximity below the margin along the body normal."""
    if len(contacts.pairs) == 0:
        return T.Tensor(0.0)
    xg = T.gather_rows(T.as_tensor(pos_g), contacts.pairs[:, 0])
    dist = T.dot_rows(T.sub(xg, T.Tensor(contacts.point)), T.Tensor(contacts.normal))
    pen = T.relu(T.sub(cfg.collision_margin, dist))
    return T.mul(T.tsum(T.pow_scalar(pen, 3)), cfg.k_collision)


def gravity_energy(pos_g, masses: np.ndarray, cfg: PhysicsConfig) -> T.Tensor:
    pos_g = T.as_tensor(pos_g)
    height = T.slice_cols(pos_g, cfg.up_axis, cfg.up_axis + 1)
    return T.mul(T.tsum(T.mul(height, T.Tensor(masses[:, None]))), cfg.gravity)


def inertia_term(x_next, x_curr: np.ndarray, q_curr: np.ndarray,
                 masses: np.ndarray, dt: float) -> T.Tensor:
    """Incremental-potential penalty on deviation from the inertial trajectory."""
    x_next = T.as_tensor(x_next)
    inertial = np.asarray(x_curr) + dt * np.asarray(q_curr)
    dev = T.sub(x_next, T.Tensor(inertial))
    weighted = T.mul(T.dot_rows(dev, dev), T.Tensor(masses[:, None] / (2.0 * dt * dt)))
    return T.tsum(weighted)


def friction_term(x_next_g, x_curr_g: np.ndarray, contacts: Contacts,
                  masses: np.ndarray, cfg: PhysicsConfig) -> T.Tensor:
    """Tangential-displacement friction over an explicit contact set."""
    if len(contacts.pairs) == 0:
        return T.Tensor(0.0)
    x_next_g = T.as_tensor(x_next_g)
    gi = contacts.pairs[:, 0]
    disp = T.sub(T.gather_rows(x_next_g, gi), T.Tensor(np.asarray(x_curr_g)[gi]))
    nb = T.Tensor(contacts.normal)
    tang = T.sub(disp, T.mul(T.dot_rows(disp, nb), nb))
    speed = T.huber_norm(tang, cfg.huber_delta)
    per_contact = T.mul(speed, T.Tensor(masses[gi] / cfg.dt))
    return T.mul(T.tsum(per_contact), cfg.friction_mu)


def total_loss(x_next, x_curr: np.ndarray, q_curr: np.ndarray, contacts_next: Contacts,
               contacts_curr: Contacts, topo: Topology, rest: RestState,
               cfg: PhysicsConfig, diagnostics: dict | None = None
               ) -> tuple[T.Tensor, dict[str, float]]:
    """Weighted sum of the six terms plus a per-term breakdown (raw values).
    Friction takes the current contacts below the margin, so no gradient flows
    through set membership."""
    terms = {
        "stretch": stretch_energy(x_next, topo, rest, cfg),
        "bending": bending_energy(x_next, topo, rest, cfg, diagnostics),
        "collision": collision_penalty(x_next, contacts_next, cfg),
        "gravity": gravity_energy(x_next, rest.vertex_masses, cfg),
        "inertia": inertia_term(x_next, x_curr, q_curr, rest.vertex_masses, cfg.dt),
        "friction": friction_term(x_next, x_curr, contacts_curr.below(
            cfg.collision_margin), rest.vertex_masses, cfg),
    }
    total = T.Tensor(0.0)
    for name, value in terms.items():
        total = T.add(total, T.mul(value, cfg.weights[name]))
    breakdown = {name: float(v.data) for name, v in terms.items()}
    breakdown["total"] = float(total.data)
    return total, breakdown

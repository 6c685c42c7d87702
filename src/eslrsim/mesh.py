"""Triangle meshes: OBJ I/O, topology, rest-state quantities, world edges.

Everything here is pure and deterministic; world edges come from a direct
test of every (garment, body) pair, in sorted order, so they can be checked
exactly against a brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ObjParseError, ValidationError

TRIANGLE_AREA_EPS = 1e-12


@dataclass
class Mesh:
    vertices: np.ndarray  # (n, 3) rest positions, meters
    triangles: np.ndarray  # (m, 3) vertex indices
    kind: str = "garment"  # garment | body

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.intp).reshape(-1, 3)
        n = len(self.vertices)
        if n < 3:
            raise ValidationError(f"mesh needs at least 3 vertices, got {n}")
        nonfinite = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))
        if nonfinite.size:
            raise ValidationError(f"non-finite coordinate at vertex {nonfinite[0]}")
        if self.triangles.size and (self.triangles.min() < 0 or self.triangles.max() >= n):
            raise ValidationError(
                f"triangle index out of range (vertex count {n}, "
                f"max index {self.triangles.max()})")
        with np.errstate(over="ignore", invalid="ignore"):
            areas = triangle_areas(self.vertices, self.triangles)
        # an overflowing cross product gives nan (inf - inf), which is no area
        bad = np.flatnonzero(~(areas > TRIANGLE_AREA_EPS))
        if bad.size:
            raise ValidationError(f"degenerate (zero-area) triangle at index {bad[0]}")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)


@dataclass
class Topology:
    mesh_edges: np.ndarray  # (E, 2), each row i<j, rows sorted lexicographically
    n_vertices: int
    dihedral_pairs: np.ndarray  # (D, 4) rows [i, j, p, q]: edge (i,j), opposite p and q
    nonmanifold_edge_count: int = 0


@dataclass
class RestState:
    edge_rest_lengths: np.ndarray  # (E,) meters, aligned with Topology.mesh_edges
    vertex_masses: np.ndarray  # (n,) kg
    rest_dihedral_angles: np.ndarray  # (D,) radians, aligned with dihedral_pairs


@dataclass
class WorldEdgeSet:
    pairs: np.ndarray  # (P, 2) rows (garment index, body index), sorted ascending
    radius: float


def triangle_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    if len(triangles) == 0:
        return np.zeros(0)
    a = vertices[triangles[:, 0]]
    b = vertices[triangles[:, 1]]
    c = vertices[triangles[:, 2]]
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def vertex_normals(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Area-weighted vertex normals; isolated or degenerate vertices get zeros."""
    normals = np.zeros_like(vertices)
    if len(triangles):
        a = vertices[triangles[:, 0]]
        b = vertices[triangles[:, 1]]
        c = vertices[triangles[:, 2]]
        face = np.cross(b - a, c - a)  # magnitude = 2 * area
        for col in range(3):
            np.add.at(normals, triangles[:, col], face)
    lengths = np.linalg.norm(normals, axis=1, keepdims=True)
    return np.divide(normals, lengths, out=np.zeros_like(normals), where=lengths > 1e-300)


# -- OBJ subset ------------------------------------------------------------

def parse_obj(text: str, kind: str = "garment") -> Mesh:
    """Parse `v x y z` / `f i j k ...` lines; faces with >3 vertices are fan-split.

    Indices are 1-based. `#` comments and non-geometry keywords (vn, vt, s, o, g,
    usemtl, mtllib) are ignored; `f` vertex tokens may carry `/...` suffixes.
    """
    vertices: list[list[float]] = []
    triangles: list[tuple[int, int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key = tokens[0]
        if key == "v":
            if len(tokens) < 4:
                raise ObjParseError(line_no, f"vertex needs 3 coordinates: {raw!r}")
            try:
                vertices.append([float(t) for t in tokens[1:4]])
            except ValueError:
                raise ObjParseError(line_no, f"bad vertex coordinate: {raw!r}") from None
        elif key == "f":
            if len(tokens) < 4:
                raise ObjParseError(line_no, f"face needs at least 3 indices: {raw!r}")
            try:
                idx = [int(t.split("/")[0]) for t in tokens[1:]]
            except ValueError:
                raise ObjParseError(line_no, f"bad face index: {raw!r}") from None
            for i in idx:
                if i < 1 or i > len(vertices):
                    raise ObjParseError(
                        line_no, f"face index {i} out of range (have {len(vertices)} vertices)")
            zero = [i - 1 for i in idx]
            for k in range(1, len(zero) - 1):  # fan triangulation
                triangles.append((zero[0], zero[k], zero[k + 1]))
        elif key in ("vn", "vt", "s", "o", "g", "usemtl", "mtllib", "l"):
            continue
        else:
            raise ObjParseError(line_no, f"unsupported OBJ keyword {key!r}")
    return Mesh(np.array(vertices, dtype=np.float64).reshape(-1, 3),
                np.array(triangles, dtype=np.intp).reshape(-1, 3), kind=kind)


def obj_text(vertices: np.ndarray, triangles: np.ndarray) -> str:
    """OBJ text for raw arrays (no validation; %.17g round-trips f64 exactly)."""
    v = np.asarray(vertices).ravel().tolist()  # Python floats format fastest
    f = (np.asarray(triangles) + 1).ravel().tolist()
    return (("v %.17g %.17g %.17g\n" * (len(v) // 3)) % tuple(v)
            + ("f %s %s %s\n" * (len(f) // 3)) % tuple(f)) or "\n"


def load_obj(path, kind: str = "garment") -> Mesh:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_obj(fh.read(), kind=kind)


def save_obj(path, mesh: Mesh) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(obj_text(mesh.vertices, mesh.triangles))


# -- topology and rest state -----------------------------------------------

def build_topology(mesh: Mesh) -> Topology:
    """Deduplicated edges and dihedral pairs for 2-manifold edges.

    Edges shared by more than two triangles get no dihedral pair; they are only
    counted in `nonmanifold_edge_count`.
    """
    # edge (i<j) -> list of opposite vertices, in triangle order for determinism
    opposite: dict[tuple[int, int], list[int]] = {}
    for tri in mesh.triangles:
        for a, b, c in ((tri[0], tri[1], tri[2]),
                        (tri[1], tri[2], tri[0]),
                        (tri[2], tri[0], tri[1])):
            key = (int(a), int(b)) if a < b else (int(b), int(a))
            opposite.setdefault(key, []).append(int(c))
    edges = np.array(sorted(opposite), dtype=np.intp).reshape(-1, 2)

    dihedral = []
    nonmanifold = 0
    for i, j in edges:
        opp = opposite[(int(i), int(j))]
        if len(opp) == 2:
            dihedral.append((int(i), int(j), opp[0], opp[1]))
        elif len(opp) > 2:
            nonmanifold += 1
    return Topology(
        mesh_edges=edges,
        n_vertices=mesh.n_vertices,
        dihedral_pairs=np.array(dihedral, dtype=np.intp).reshape(-1, 4),
        nonmanifold_edge_count=nonmanifold,
    )


def dihedral_angles(positions: np.ndarray, dihedral_pairs: np.ndarray) -> np.ndarray:
    """Angle between the two face planes of each hinge, measured through the edge.

    Coplanar faces give pi; the range is [0, 2*pi). For hinge [i, j, p, q] the
    face normals are (xj-xi)x(xp-xi) and (xq-xi)x(xj-xi).
    """
    if len(dihedral_pairs) == 0:
        return np.zeros(0)
    xi = positions[dihedral_pairs[:, 0]]
    xj = positions[dihedral_pairs[:, 1]]
    xp = positions[dihedral_pairs[:, 2]]
    xq = positions[dihedral_pairs[:, 3]]
    e = xj - xi
    n1 = np.cross(e, xp - xi)
    n2 = np.cross(xq - xi, e)
    # atan2 of (n1 x n2).e against (n1.n2)|e| is scale-free in |n1||n2||e|
    sin_term = (np.cross(n1, n2) * e).sum(axis=1)
    cos_term = (n1 * n2).sum(axis=1) * np.linalg.norm(e, axis=1)
    theta = np.pi - np.arctan2(sin_term, cos_term)
    return np.mod(theta, 2.0 * np.pi)


def compute_rest_quantities(mesh: Mesh, topo: Topology, density: float) -> RestState:
    """Edge rest lengths, lumped vertex masses (one-third area rule), rest angles."""
    if density <= 0:
        raise ValidationError(f"density must be > 0, got {density}")
    areas = triangle_areas(mesh.vertices, mesh.triangles)
    if np.any(areas <= TRIANGLE_AREA_EPS):
        raise ValidationError("degenerate (zero-area) triangle in rest mesh")
    diffs = mesh.vertices[topo.mesh_edges[:, 0]] - mesh.vertices[topo.mesh_edges[:, 1]]
    lengths = np.linalg.norm(diffs, axis=1)
    if not (np.isfinite(areas).all() and np.isfinite(lengths).all()):
        raise ValidationError("rest mesh too large: a triangle area or edge length "
                              "overflows float64")
    masses = np.zeros(mesh.n_vertices)
    for col in range(3):
        np.add.at(masses, mesh.triangles[:, col], areas / 3.0)
    masses *= density
    return RestState(
        edge_rest_lengths=lengths,
        vertex_masses=masses,
        rest_dihedral_angles=dihedral_angles(mesh.vertices, topo.dihedral_pairs),
    )


# -- world edges -----------------------------------------------------------

def build_world_edges(garment_pos: np.ndarray, body_pos: np.ndarray,
                      radius: float) -> WorldEdgeSet:
    """All (garment, body) pairs within `radius`, sorted by (garment index,
    body index), by a direct test of every pair.

    The cost is O(n_g * n_b) time and memory, which stays small because bodies
    are presets (`sim.make_body_motion`) of 98 vertices each. d^2 is summed one
    coordinate at a time, left to right as numpy sums a row of three, so the
    result exactly matches a brute-force pairwise check.
    """
    if radius <= 0:
        raise ValidationError(f"world-edge radius must be > 0, got {radius}")
    garment_pos = np.asarray(garment_pos, dtype=np.float64)
    body_pos = np.asarray(body_pos, dtype=np.float64)
    d2 = np.zeros((len(garment_pos), len(body_pos)))
    with np.errstate(over="ignore"):  # an overflow to inf is out of range
        for axis in range(3):
            diff = np.subtract.outer(garment_pos[:, axis], body_pos[:, axis])
            d2 += diff * diff
    # nonzero walks the C-ordered mask row by row: pairs come sorted and unique
    return WorldEdgeSet(pairs=np.stack(np.nonzero(d2 <= radius * radius), axis=1),
                        radius=radius)


# -- synthetic assets --------------------------------------------------------

def grid_cloth(nx: int, ny: int, size_x: float = 1.0, size_y: float = 1.0) -> Mesh:
    """Planar nx-by-ny vertex grid in the XZ plane (y=0), diagonals all one way."""
    if nx < 2 or ny < 2:
        raise ValidationError("grid_cloth needs nx, ny >= 2")
    xs = np.linspace(-size_x / 2.0, size_x / 2.0, nx)
    zs = np.linspace(-size_y / 2.0, size_y / 2.0, ny)
    verts = np.array([[x, 0.0, z] for z in zs for x in xs])
    tris = []
    for r in range(ny - 1):
        for c in range(nx - 1):
            v0 = r * nx + c
            v1 = v0 + 1
            v2 = v0 + nx
            v3 = v2 + 1
            tris.append((v0, v1, v3))
            tris.append((v0, v3, v2))
    return Mesh(verts, np.array(tris, dtype=np.intp), kind="garment")


def mean_edge_length(mesh: Mesh, topo: Topology) -> float:
    d = mesh.vertices[topo.mesh_edges[:, 0]] - mesh.vertices[topo.mesh_edges[:, 1]]
    return float(np.linalg.norm(d, axis=1).mean())

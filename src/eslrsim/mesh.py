"""Triangle meshes: OBJ I/O, topology, rest-state quantities, world edges.

Everything here is pure and deterministic; world edges come from a direct
test of every (garment, body) pair, in sorted order, so they can be checked
exactly against a brute-force oracle.

Loading a garment costs one Python pass over the OBJ lines plus bulk number
conversion (`parse_obj`) and one O(T log T) stable sort of the 3T half-edges
of T triangles (`build_topology`). On a 2-core x86-64 VM (numpy 2.4.6, one thread)
`load_obj` and `build_topology` take 4.6 and 0.4 ms for a 45x45 grid (2,025
vertices) and 39 and 2.9 ms for a 128x128 grid (16,384 vertices).
`dihedral_angles` writes its cross products out over component rows
(`_cross`), with the bytes of `np.cross`; at 128x128 it takes 3.9-4.7 ms and
`compute_rest_quantities` 13-18 ms (medians of 15 calls, on a slower phase of
the VM).
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

def parse_obj(text: str) -> Mesh:
    """Parse `v x y z` / `f i j k ...` lines; faces with >3 vertices are fan-split.

    Indices are 1-based. `#` comments and non-geometry keywords (vn, vt, s, o, g,
    usemtl, mtllib) are ignored; `f` vertex tokens may carry `/...` suffixes.
    Numbers follow Python's `float` and `int`. A malformed file raises
    ObjParseError for its first bad line.

    The line loop checks structure only (keywords, token counts) and collects
    number tokens; conversion, range checks and the fan split run in bulk.
    """
    raw_lines = text.splitlines()
    line_nos: list[int] = []  # every v and f line, in file order
    coords: list[str] = []  # three per vertex
    indices: list[str] = []  # every face's vertex indices, suffixes dropped
    sizes: list[int] = []  # vertices per face
    known: list[int] = []  # vertices defined before each face
    error = None
    for line_no, raw in enumerate(raw_lines, start=1):
        tokens = _tokens(raw)
        if not tokens:
            continue
        key = tokens[0]
        if key == "v":
            if len(tokens) < 4:
                error = ObjParseError(line_no, f"vertex needs 3 coordinates: {raw!r}")
                break
            coords += tokens[1:4]
        elif key == "f":
            if len(tokens) < 4:
                error = ObjParseError(line_no, f"face needs at least 3 indices: {raw!r}")
                break
            if "/" in raw:
                tokens = [t.split("/", 1)[0] for t in tokens]
            indices += tokens[1:]
            sizes.append(len(tokens) - 1)
            known.append(len(coords) // 3)
        elif key in ("vn", "vt", "s", "o", "g", "usemtl", "mtllib", "l"):
            continue
        else:
            error = ObjParseError(line_no, f"unsupported OBJ keyword {key!r}")
            break
        line_nos.append(line_no)
    try:
        vertices = np.fromiter(map(float, coords), np.float64, len(coords))
        idx = np.fromiter(map(int, indices), np.intp, len(indices))
    except (ValueError, OverflowError):  # OverflowError: an index beyond intp
        idx = None
    if idx is None or np.any((idx < 1) | (idx > np.repeat(known, sizes))):
        raise _first_bad_number(raw_lines, line_nos)
    if error is not None:
        raise error
    # a face of s vertices i0..i(s-1) gives triangles (i0, ik, ik+1), k = 1..s-2
    sizes = np.asarray(sizes, dtype=np.intp)
    first = np.cumsum(sizes) - sizes  # offset of each face's i0 in idx
    middle = np.ones(len(idx), dtype=bool)
    middle[first] = middle[first + sizes - 1] = False
    ik = np.flatnonzero(middle)  # i1..i(s-2) of every face, in file order
    triangles = np.stack([np.repeat(idx[first], sizes - 2), idx[ik], idx[ik + 1]],
                         axis=1) - 1
    return Mesh(vertices.reshape(-1, 3), triangles)


def _tokens(raw: str) -> list[str]:
    """A line's whitespace-separated tokens before any `#` comment."""
    return (raw.split("#", 1)[0] if "#" in raw else raw).split()


def _first_bad_number(raw_lines: list[str], line_nos: list[int]) -> ObjParseError:
    """The error for the first of the v and f lines `line_nos` whose numbers
    do not convert or whose face indices are out of range; on one line an
    unconvertible index comes before an out-of-range one."""
    n_vertices = 0
    for line_no in line_nos:
        raw = raw_lines[line_no - 1]
        tokens = _tokens(raw)
        try:
            if tokens[0] == "v":
                [float(t) for t in tokens[1:4]]
                n_vertices += 1
                continue
            idx = [int(t.split("/", 1)[0]) for t in tokens[1:]]
        except ValueError:
            what = "vertex coordinate" if tokens[0] == "v" else "face index"
            return ObjParseError(line_no, f"bad {what}: {raw!r}")
        for i in idx:
            if i < 1 or i > n_vertices:
                return ObjParseError(
                    line_no, f"face index {i} out of range (have {n_vertices} vertices)")
    raise AssertionError("every number converts and is in range")


def obj_text(vertices: np.ndarray, triangles: np.ndarray) -> str:
    """OBJ text for raw arrays (no validation; %.17g round-trips f64 exactly)."""
    v = np.asarray(vertices).ravel().tolist()  # Python floats format fastest
    f = (np.asarray(triangles) + 1).ravel().tolist()
    return (("v %.17g %.17g %.17g\n" * (len(v) // 3)) % tuple(v)
            + ("f %s %s %s\n" * (len(f) // 3)) % tuple(f)) or "\n"


def load_obj(path) -> Mesh:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_obj(fh.read())


# -- topology and rest state -----------------------------------------------

def build_topology(mesh: Mesh) -> Topology:
    """Deduplicated edges and dihedral pairs for 2-manifold edges.

    Edges shared by more than two triangles get no dihedral pair; they are only
    counted in `nonmanifold_edge_count`.
    """
    tris = np.asarray(mesh.triangles, dtype=np.intp).reshape(-1, 3)
    n = mesh.n_vertices
    # half-edge 3t+k of triangle t is (tri[k], tri[k+1]), opposite vertex tri[k+2];
    # its key i*n + j (i<j) orders half-edges as the edges (i, j) sort
    a, b = tris.ravel(), tris[:, [1, 2, 0]].ravel()
    key = np.minimum(a, b) * n + np.maximum(a, b)
    order = np.argsort(key, kind="stable")  # one edge's half-edges stay in triangle order
    key, opp = key[order], tris[:, [2, 0, 1]].ravel()[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))  # one run of half-edges per edge
    run = np.diff(starts, append=len(key))
    pairs = starts[run == 2]
    edges = np.stack(np.divmod(key[starts], n), axis=1)
    return Topology(
        mesh_edges=edges,
        n_vertices=n,
        dihedral_pairs=np.concatenate(
            [edges[run == 2], opp[pairs, None], opp[pairs + 1, None]], axis=1),
        nonmanifold_edge_count=int(np.count_nonzero(run > 2)),
    )


def dihedral_angles(positions: np.ndarray, dihedral_pairs: np.ndarray) -> np.ndarray:
    """Angle between the two face planes of each hinge, measured through the edge.

    Coplanar faces give pi; the range is [0, 2*pi). For hinge [i, j, p, q] the
    face normals are (xj-xi)x(xp-xi) and (xq-xi)x(xj-xi).
    """
    if len(dihedral_pairs) == 0:
        return np.zeros(0)
    x = np.take(np.ascontiguousarray(positions.T), dihedral_pairs.T, axis=1)
    xi, xj, xp, xq = x.transpose(1, 0, 2)  # each (3, D): one row per coordinate
    e = xj - xi
    n1 = _cross(e, xp - xi)
    n2 = _cross(xq - xi, e)
    # atan2 of (n1 x n2).e against (n1.n2)|e| is scale-free in |n1||n2||e|;
    # the sums over axis 0 add the components left to right, as `sum(axis=1)`
    # and `norm(axis=1)` do on (D, 3) rows
    sin_term = (_cross(n1, n2) * e).sum(axis=0)
    cos_term = (n1 * n2).sum(axis=0) * np.sqrt((e * e).sum(axis=0))
    theta = np.pi - np.arctan2(sin_term, cos_term)
    return np.mod(theta, 2.0 * np.pi)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products of (3, m) component rows, bit for bit `np.cross` of
    their transposes: each component is one product less another, in numpy's
    operation order."""
    c = np.empty_like(a)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[j], b[k], out=c[i])
        c[i] -= a[k] * b[j]
    return c


def compute_rest_quantities(mesh: Mesh, topo: Topology, density: float) -> RestState:
    """Edge rest lengths, lumped vertex masses (one-third area rule), rest angles.
    `Mesh` has already rejected degenerate triangles; a mesh whose rest
    arithmetic overflows float64 anywhere is rejected here."""
    if density <= 0:
        raise ValidationError(f"density must be > 0, got {density}")
    try:
        with np.errstate(over="raise", invalid="raise"):
            areas = triangle_areas(mesh.vertices, mesh.triangles)
            v, e = mesh.vertices, topo.mesh_edges
            lengths = np.linalg.norm(v[e[:, 0]] - v[e[:, 1]], axis=1)
            masses = np.zeros(mesh.n_vertices)
            for col in range(3):
                np.add.at(masses, mesh.triangles[:, col], areas / 3.0)
            masses *= density
            angles = dihedral_angles(mesh.vertices, topo.dihedral_pairs)
    except FloatingPointError:
        raise ValidationError("rest mesh too large: a rest area, length, mass or "
                              "angle overflows float64") from None
    return RestState(edge_rest_lengths=lengths, vertex_masses=masses,
                     rest_dihedral_angles=angles)


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
    return WorldEdgeSet(pairs=np.stack(np.nonzero(d2 <= radius * radius), axis=1))


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
    return Mesh(verts, np.array(tris, dtype=np.intp))

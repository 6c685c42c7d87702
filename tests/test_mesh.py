import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eslrsim import mesh as M
from eslrsim import sim
from eslrsim.config import RunConfig
from eslrsim.errors import ObjParseError, ValidationError
from test_cli import mutated_obj

TRI_OBJ = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"


def unit_right_triangle():
    return M.Mesh(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float),
                  np.array([[0, 1, 2]]))


def flat_quad():
    verts = np.array([[0, 0, 0], [1, 0, 0], [1, 0, 1], [0, 0, 1]], dtype=float)
    return M.Mesh(verts, np.array([[0, 1, 2], [0, 2, 3]]))


class TestParseObj:
    def test_single_triangle(self):
        m = M.parse_obj(TRI_OBJ)
        assert m.n_vertices == 3 and len(m.triangles) == 1
        assert np.array_equal(m.triangles, [[0, 1, 2]])

    def test_quad_fan_triangulation(self):
        text = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
        m = M.parse_obj(text)
        assert np.array_equal(m.triangles, [[0, 1, 2], [0, 2, 3]])

    def test_index_out_of_range(self):
        with pytest.raises(ObjParseError, match="line 4"):
            M.parse_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n")

    def test_malformed_line_reports_number(self):
        with pytest.raises(ObjParseError, match="line 2"):
            M.parse_obj("v 0 0 0\nv 1 x 0\nv 0 1 0\nf 1 2 3\n")

    def test_comments_and_slashes_ignored(self):
        text = "# header\nv 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nf 1//1 2//1 3//1\n"
        m = M.parse_obj(text)
        assert len(m.triangles) == 1

    def test_serialize_round_trip(self):
        rng = np.random.default_rng(0)
        m = M.grid_cloth(4, 5)
        m.vertices += rng.standard_normal(m.vertices.shape) * 0.01
        m2 = M.parse_obj(M.obj_text(m.vertices, m.triangles))
        assert np.array_equal(m.vertices, m2.vertices)
        assert np.array_equal(m.triangles, m2.triangles)

    def test_obj_text_equals_the_numpy_scalar_formatter_bitwise(self):
        def numpy_scalar_obj_text(vertices, triangles):
            lines = [f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}" for v in vertices]
            lines += [f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}" for t in triangles]
            return "\n".join(lines) + "\n"

        rng = np.random.default_rng(5)
        special = [-0.0, 0.0, 5e-324, -2.2250738585072014e-309, 1e300, -1e300,
                   np.nan, np.inf, -np.inf, 0.1, 1.0 / 3.0, 123456789.0]
        vertices = np.concatenate([np.array(special).reshape(-1, 3),
                                   rng.standard_normal((30, 3)) * 1e3 ** rng.integers(
                                       -3, 4, (30, 1))])
        triangles = rng.integers(0, len(vertices), (40, 3))
        for v, t in ((vertices, triangles), (vertices[:0], triangles[:0])):
            assert M.obj_text(v, t) == numpy_scalar_obj_text(v, t)

    def test_degenerate_triangle_rejected(self):
        for text in ("v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n",
                     # the cross product overflows to inf - inf = nan
                     "v 0 0 0\nv 1e200 1e200 0\nv 2e200 2e200 0\nf 1 2 3\n"):
            with pytest.raises(ValidationError, match="degenerate"):
                M.parse_obj(text)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite coordinate at vertex 1"):
            M.parse_obj(f"v 0 0 0\nv {bad} 0 0\nv 0 1 0\nf 1 2 3\n")


class TestTopology:
    def test_single_triangle(self):
        topo = M.build_topology(unit_right_triangle())
        assert len(topo.mesh_edges) == 3
        assert len(topo.dihedral_pairs) == 0

    def test_quad(self):
        topo = M.build_topology(flat_quad())
        assert len(topo.mesh_edges) == 5
        assert len(topo.dihedral_pairs) == 1
        i, j, p, q = topo.dihedral_pairs[0]
        assert {int(i), int(j)} == {0, 2} and {int(p), int(q)} == {1, 3}

    def test_grid_edge_count_against_euler_enumeration(self):
        # independent count: every triangle contributes 3 edges; dedup by set
        m = M.grid_cloth(10, 10)
        edges = set()
        for a, b, c in m.triangles:
            for u, v in ((a, b), (b, c), (c, a)):
                edges.add((min(u, v), max(u, v)))
        assert len(edges) == 261
        topo = M.build_topology(m)
        assert len(topo.mesh_edges) == 261
        assert len(m.triangles) == 162

    def test_vertex_count_includes_isolated_vertices(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]], dtype=float)
        topo = M.build_topology(M.Mesh(verts, np.array([[0, 1, 2]])))
        assert topo.n_vertices == 4 and topo.mesh_edges.max() == 2

    def test_nonmanifold_edge_counted_not_paired(self):
        # three triangles sharing edge (0,1)
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]],
                         dtype=float)
        tris = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
        topo = M.build_topology(M.Mesh(verts, tris))
        assert topo.nonmanifold_edge_count == 1
        assert not any({int(r[0]), int(r[1])} == {0, 1} for r in topo.dihedral_pairs)


class TestRestQuantities:
    def test_unit_right_triangle_masses(self):
        m = unit_right_triangle()
        rest = M.compute_rest_quantities(m, M.build_topology(m), density=1.0)
        assert np.allclose(rest.vertex_masses, 0.5 / 3.0)

    def test_flat_quad_rest_angle_is_pi(self):
        m = flat_quad()
        rest = M.compute_rest_quantities(m, M.build_topology(m), density=1.0)
        assert np.allclose(rest.rest_dihedral_angles, np.pi)

    def test_grid_total_mass_equals_density_times_area(self):
        m = M.grid_cloth(10, 10, 1.0, 1.0)
        topo = M.build_topology(m)
        rest = M.compute_rest_quantities(m, topo, density=0.2)
        total_area = M.triangle_areas(m.vertices, m.triangles).sum()
        assert abs(total_area - 1.0) < 1e-12
        assert abs(rest.vertex_masses.sum() - 0.2 * total_area) <= 1e-12 * 0.2

    def test_rest_lengths_positive(self):
        m = M.grid_cloth(7, 3)
        topo = M.build_topology(m)
        rest = M.compute_rest_quantities(m, topo, density=0.3)
        assert np.all(rest.edge_rest_lengths > 0)

    def test_bad_density(self):
        m = flat_quad()
        with pytest.raises(ValidationError, match="density"):
            M.compute_rest_quantities(m, M.build_topology(m), density=0.0)

    def test_overflowing_rest_quantities_rejected(self):
        # finite coordinates whose areas overflow float64
        with np.errstate(over="ignore", invalid="ignore"):
            m = M.grid_cloth(3, 3, 1e160, 1e160)
            with pytest.raises(ValidationError, match="rest mesh too large"):
                M.compute_rest_quantities(m, M.build_topology(m), 1.0)

    def test_folded_quad_angle(self):
        # fold the second triangle 90 degrees up around the shared diagonal
        verts = np.array([[0, 0, 0], [1, 0, 1], [1, 0, 0], [0, 0, 1]], dtype=float)
        tris = np.array([[0, 2, 1], [0, 1, 3]])
        topo = M.build_topology(M.Mesh(verts, tris))
        flat = M.dihedral_angles(verts, topo.dihedral_pairs)
        assert np.allclose(flat, np.pi)
        # rotate vertex 3 about the (0,0,0)-(1,0,1) axis by 90 degrees
        axis = np.array([1.0, 0.0, 1.0]) / np.sqrt(2)
        v = verts.copy()
        p = v[3]
        par = axis * (p @ axis)
        perp = p - par
        v[3] = par + np.cross(axis, perp)  # 90-degree rotation
        folded = M.dihedral_angles(v, topo.dihedral_pairs)
        assert np.allclose(np.abs(folded - np.pi), np.pi / 2, atol=1e-12)


def awkward_rows(m, seed):
    """(m, 3) rows mixing ordinary, huge, tiny, non-finite and signed-zero
    components."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((m, 3)) * 10.0 ** rng.integers(-30, 30, (m, 3))
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324])
    pick = rng.random((m, 3)) < 0.3
    rows[pick] = rng.choice(special, size=pick.sum())
    return rows


def reference_dihedral_angles(positions, dihedral_pairs):
    """`dihedral_angles` as written over `np.cross` on (D, 3) rows."""
    xi, xj, xp, xq = (positions[dihedral_pairs[:, c]] for c in range(4))
    e = xj - xi
    n1 = np.cross(e, xp - xi)
    n2 = np.cross(xq - xi, e)
    sin_term = (np.cross(n1, n2) * e).sum(axis=1)
    cos_term = (n1 * n2).sum(axis=1) * np.linalg.norm(e, axis=1)
    return np.mod(np.pi - np.arctan2(sin_term, cos_term), 2.0 * np.pi)


class TestDihedralBitwise:
    @pytest.mark.parametrize("seed", range(4))
    def test_cross_equals_np_cross(self, seed):
        a, b = awkward_rows(5000, seed), awkward_rows(5000, seed + 100)
        a[:8] = -0.0  # all-negative-zero rows against every sign of b
        b[:8] = [[s0, s1, s2] for s0 in (0.0, -0.0) for s1 in (0.0, -0.0)
                 for s2 in (0.0, -0.0)]
        with np.errstate(all="ignore"):
            got = M._cross(np.ascontiguousarray(a.T), np.ascontiguousarray(b.T))
            ref = np.cross(a, b)
        assert got.T.tobytes() == np.ascontiguousarray(ref).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_dihedral_angles_equal_np_cross_version(self, seed):
        positions = awkward_rows(300, seed)
        pairs = np.random.default_rng(seed).integers(0, 300, (4000, 4))
        with np.errstate(all="ignore"):
            got = M.dihedral_angles(positions, pairs)
            ref = reference_dihedral_angles(positions, pairs)
        assert got.tobytes() == ref.tobytes()

    def test_jittered_grid_equals_np_cross_version(self):
        m = M.grid_cloth(40, 40)
        v = m.vertices + np.random.default_rng(5).standard_normal(m.vertices.shape) * 1e-2
        pairs = M.build_topology(m).dihedral_pairs
        got = M.dihedral_angles(v, pairs)
        assert got.tobytes() == reference_dihedral_angles(v, pairs).tobytes()


class TestWorldEdges:
    def test_single_pair_within_radius(self):
        ws = M.build_world_edges(np.array([[0.0, 0, 0]]), np.array([[0.0, 0, 0.5]]), 1.0)
        assert np.array_equal(ws.pairs, [[0, 0]])

    def test_empty_when_radius_too_small(self):
        ws = M.build_world_edges(np.array([[0.0, 0, 0]]), np.array([[0.0, 0, 0.5]]), 0.4)
        assert len(ws.pairs) == 0

    def test_bad_radius(self):
        with pytest.raises(ValidationError, match="radius"):
            M.build_world_edges(np.zeros((1, 3)), np.zeros((1, 3)), 0.0)

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(42)
        for trial in range(5):
            g = rng.random((100, 3))
            b = rng.random((200, 3))
            radius = 0.1
            ws = M.build_world_edges(g, b, radius)
            d = np.linalg.norm(g[:, None, :] - b[None, :, :], axis=2)
            expected = np.argwhere(d <= radius)
            assert np.array_equal(ws.pairs, expected)

    @pytest.mark.parametrize("g, b, radius, expected", [
        # d^2 = 9 + 16 + 144 = 169 is exact, so the pair lies exactly on the radius
        pytest.param([[1, 2, 3], [0, 0, 0]], [[4, 6, 15], [1, 2, 3]], 13.0,
                     [[0, 0], [0, 1], [1, 1]], id="exactly-at-radius"),
        pytest.param([[0.5, 0.5, 0.5]] * 2, [[0.5, 0.5, 0.5], [9, 9, 9], [0.5, 0.5, 0.5]],
                     0.1, [[0, 0], [0, 2], [1, 0], [1, 2]], id="coincident"),
        pytest.param(np.zeros((0, 3)), [[0, 0, 0]], 1.0, [], id="empty-garment"),
        pytest.param([[0, 0, 0]], np.zeros((0, 3)), 1.0, [], id="empty-body"),
        # every other row and column of wider arrays: strided, non-contiguous views
        pytest.param((np.arange(48.0).reshape(8, 6) / 10)[::2, ::2],
                     (np.arange(36.0).reshape(6, 6) / 10)[::2, 1::2], 0.35,
                     [[0, 0], [1, 1], [2, 2]], id="strided"),
    ])
    def test_edge_cases(self, g, b, radius, expected):
        g, b = np.asarray(g, dtype=np.float64), np.asarray(b, dtype=np.float64)
        ws = M.build_world_edges(g, b, radius)
        d = np.linalg.norm(g[:, None, :] - b[None, :, :], axis=2)
        assert ws.pairs.dtype == np.intp
        assert np.array_equal(ws.pairs, np.reshape(expected, (-1, 2)))
        assert np.array_equal(ws.pairs, np.argwhere(d <= radius))

    def test_sorted_and_unique(self):
        rng = np.random.default_rng(1)
        ws = M.build_world_edges(rng.random((50, 3)), rng.random((60, 3)), 0.3)
        rows = [tuple(r) for r in ws.pairs]
        assert rows == sorted(set(rows))


    def test_huge_finite_coordinates_match_brute_force(self):
        # differences and squares that overflow to inf are out of range, and
        # the overflow is silent; pairs far from the origin are still found
        rng = np.random.default_rng(7)
        g = np.concatenate([rng.random((30, 3)),
                            [[1e300, 0, 0], [-1e300, 0.5, 0.5], [0, 1.7e308, -1e300],
                             [1e300, 1e300, 1e300]]])
        b = np.concatenate([rng.random((40, 3)),
                            [[1e300, 0, 0.05], [2e300, 0, 0], [-1e300, -1e300, 0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ws = M.build_world_edges(g, b, 0.1)
        with np.errstate(over="ignore"):
            d = np.sqrt(((g[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
        expected = np.argwhere(d <= 0.1)
        assert [30, 40] in expected.tolist()
        assert np.array_equal(ws.pairs, expected)


class TestVertexNormals:
    def test_flat_quad_normals(self):
        m = flat_quad()
        n = M.vertex_normals(m.vertices, m.triangles)
        assert np.allclose(np.abs(n[:, 1]), 1.0)
        assert np.allclose(n[:, [0, 2]], 0.0)

    def test_zero_for_isolated_vertex(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]], dtype=float)
        n = M.vertex_normals(verts, np.array([[0, 1, 2]]))
        assert np.array_equal(n[3], np.zeros(3))


@given(st.integers(0, 10 ** 6), st.floats(0.05, 0.5), st.booleans(), st.booleans())
@settings(max_examples=25, deadline=None)
def test_world_edges_match_brute_force_property(seed, radius, lattice, strided):
    rng = np.random.default_rng(seed)

    def points():
        # three of six columns when strided: a non-contiguous view
        shape = (rng.integers(0, 40), 6 if strided else 3)
        if lattice:  # integer coordinates: every d^2 is exact, many on the radius
            return rng.integers(0, 4, shape).astype(np.float64)[:, ::shape[1] // 3]
        return rng.random(shape)[:, ::shape[1] // 3]

    g, b = points(), points()
    if lattice:
        radius = float(np.ceil(6 * radius))  # 1, 2 or 3 lattice units
    ws = M.build_world_edges(g, b, radius)
    d = np.linalg.norm(g[:, None, :] - b[None, :, :], axis=2)
    assert np.array_equal(ws.pairs, np.argwhere(d <= radius))


# -- differential tests: the load path against its per-element reference ------

def reference_parse_obj(text):
    """The line-at-a-time parser that the bulk `parse_obj` replaced."""
    vertices, triangles = [], []
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
            for k in range(1, len(zero) - 1):
                triangles.append((zero[0], zero[k], zero[k + 1]))
        elif key in ("vn", "vt", "s", "o", "g", "usemtl", "mtllib", "l"):
            continue
        else:
            raise ObjParseError(line_no, f"unsupported OBJ keyword {key!r}")
    return M.Mesh(np.array(vertices, dtype=np.float64).reshape(-1, 3),
                  np.array(triangles, dtype=np.intp).reshape(-1, 3))


def reference_build_topology(mesh):
    """The dict-of-lists edge deduplication that the sort in `build_topology`
    replaced."""
    opposite = {}
    for tri in mesh.triangles:
        for a, b, c in ((tri[0], tri[1], tri[2]),
                        (tri[1], tri[2], tri[0]),
                        (tri[2], tri[0], tri[1])):
            key = (int(a), int(b)) if a < b else (int(b), int(a))
            opposite.setdefault(key, []).append(int(c))
    edges = np.array(sorted(opposite), dtype=np.intp).reshape(-1, 2)
    dihedral, nonmanifold = [], 0
    for i, j in edges:
        opp = opposite[(int(i), int(j))]
        if len(opp) == 2:
            dihedral.append((int(i), int(j), opp[0], opp[1]))
        elif len(opp) > 2:
            nonmanifold += 1
    return M.Topology(mesh_edges=edges, n_vertices=mesh.n_vertices,
                      dihedral_pairs=np.array(dihedral, dtype=np.intp).reshape(-1, 4),
                      nonmanifold_edge_count=nonmanifold)


def outcome(parse, text):
    """Bytes of an accepted mesh, or the type, line and message of the error."""
    try:
        m = parse(text)
    except ValidationError as e:
        return ("error", type(e), getattr(e, "line_no", None), str(e))
    return ("mesh", m.vertices.dtype, m.vertices.shape, m.vertices.tobytes(),
            m.triangles.dtype, m.triangles.shape, m.triangles.tobytes())


def assert_same_topology(topo, ref):
    for name in ("mesh_edges", "dihedral_pairs"):
        got, want = getattr(topo, name), getattr(ref, name)
        assert got.dtype == want.dtype == np.intp, name
        assert got.shape == want.shape and np.array_equal(got, want), name
    assert topo.n_vertices == ref.n_vertices
    assert topo.nonmanifold_edge_count == ref.nonmanifold_edge_count
    assert type(topo.nonmanifold_edge_count) is int


@st.composite
def edited_obj(draw):
    """A mutated grid OBJ from the CLI fuzz, after up to four more edits:
    comments, `/` suffixes, n-gons, forward face references, huge integers,
    underscore and non-ASCII number tokens, and stray whitespace or keywords."""
    lines = draw(mutated_obj()).splitlines()
    for _ in range(draw(st.integers(0, 4))):
        faces = [i for i, line in enumerate(lines) if line.startswith("f ")]
        verts = [i for i, line in enumerate(lines) if line.startswith("v ")]
        kind = draw(st.sampled_from(["comment", "slash", "ngon", "forward", "number",
                                     "line"]))
        row = draw(st.integers(0, max(len(lines) - 1, 0)))
        if kind == "comment":
            comment = draw(st.sampled_from(["# x", "#", "#f 1 2 3", "# a/b", "v 1 2 3 #"]))
            if lines and draw(st.booleans()):
                lines[row] += draw(st.sampled_from(["", " "])) + comment
            else:
                lines.insert(row, comment)
        elif kind == "slash" and faces:
            row = draw(st.sampled_from(faces))
            tokens = lines[row].split()
            at = draw(st.integers(1, len(tokens) - 1))
            tokens[at] += draw(st.sampled_from(["/1", "//2", "/1/1", "/", "/x"]))
            if draw(st.booleans()):
                tokens[at] = draw(st.sampled_from(["/3", "//", "x/1"]))
            lines[row] = " ".join(tokens)
        elif kind == "ngon" and faces:
            row = draw(st.sampled_from(faces))
            extra = draw(st.lists(st.integers(1, len(verts) + 1), min_size=1, max_size=4))
            lines[row] += "".join(f" {i}" for i in extra)
        elif kind == "forward" and faces:
            lines.insert(draw(st.integers(0, len(lines))), lines[draw(st.sampled_from(faces))])
        elif kind == "number" and (faces or verts):
            row = draw(st.sampled_from(faces + verts))
            tokens = lines[row].split()
            tokens[draw(st.integers(1, len(tokens) - 1))] = draw(st.sampled_from([
                "9" * 20, "-" + "9" * 25, "9223372036854775807", "9223372036854775808",
                "-9223372036854775809", "1" + "0" * 19, "1_0", "1__0", "_1", "1_",
                "1_0.5", "1e1_0", "+2", "-0", "02", "١", "٣.5", "1" * 5000,
                "0.5", "1e3"]))
            lines[row] = " ".join(tokens)
        elif kind == "line":
            lines.insert(row, draw(st.sampled_from([
                "", "   ", "\t", "vn 0 0 1", "vt 0 0", "s off", "o cloth", "F 1 2 3",
                "vp 1", "v 1 2", "f 1 2", "v 1 2 3 4", "v\t0\t0\t0", "l 1 2",
                "v 0 0 0\x0bf 1 2 3", "f 1 2 3\x1cf 2 3 4", "　v 1 1 1"])))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


@given(text=edited_obj())
@settings(max_examples=300, deadline=None)
def test_parse_obj_matches_reference_property(text):
    assert outcome(M.parse_obj, text) == outcome(reference_parse_obj, text)


@pytest.mark.parametrize("text", [
    "", "\n", "# only a comment\n", TRI_OBJ, TRI_OBJ + "f 1 2 4\n", "f 1 2 3\n" + TRI_OBJ,
    TRI_OBJ.replace("f 1 2 3", "f 1 2 x 9"), TRI_OBJ.replace("f 1 2 3", "f 9 2 x"),
    TRI_OBJ.replace("v 1 0 0", "v 1 x 0") + "bogus\n",
    TRI_OBJ + "f 1 2 3 9" * 1 + "\nv 1 e 1\n",
    TRI_OBJ.replace("f 1 2 3", "f 1 2 " + "9" * 30),
    TRI_OBJ.replace("f 1 2 3", "f 1 2 3 " + "9" * 5000),
    TRI_OBJ.replace("v 0 1 0", "v 0 1_0 0").replace("f 1 2 3", "f 1_0 2 3"),
    "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nv 0 2 0\nf 1/1/1 2//2 3 4/4 5\n",
], ids=range(14))
def test_parse_obj_matches_reference_cases(text):
    assert outcome(M.parse_obj, text) == outcome(reference_parse_obj, text)


@st.composite
def triangle_soup(draw):
    """A mesh of random points and triangles, with duplicate (and reoriented)
    triangles, non-manifold fans around one edge, isolated vertices or none."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(3, 30))
    n_tris = draw(st.integers(0, 40))
    tris = [rng.choice(n, 3, replace=False) for _ in range(n_tris)]
    if tris and draw(st.booleans()):  # duplicates, some with a rotated or flipped order
        for t in rng.choice(len(tris), draw(st.integers(1, 5))):
            tris.append(np.roll(tris[t], rng.integers(3))[::rng.choice([1, -1])])
    if draw(st.booleans()):  # a fan of 3-6 triangles sharing edge (i, j)
        i, j = rng.choice(n, 2, replace=False)
        others = [k for k in range(n) if k not in (i, j)]
        for k in rng.choice(others, min(len(others), draw(st.integers(3, 6))),
                            replace=False):
            tris.append(np.array([i, j, k] if rng.random() < 0.5 else [j, i, k]))
    rng.shuffle(tris)
    return M.Mesh(rng.random((n, 3)), np.array(tris, dtype=np.intp).reshape(-1, 3))


@given(mesh=triangle_soup())
@settings(max_examples=150, deadline=None)
def test_build_topology_matches_reference_property(mesh):
    assert_same_topology(M.build_topology(mesh), reference_build_topology(mesh))


@pytest.mark.parametrize("make", [
    lambda: M.grid_cloth(45, 45),
    lambda: M.Mesh(np.eye(3), np.zeros((0, 3), dtype=np.intp)),
    lambda: sim.make_body_motion("static_sphere", RunConfig()).template,
    lambda: sim.make_body_motion("swinging_capsule", RunConfig()).template,
], ids=["grid-45x45", "no-triangles", "sphere-preset", "capsule-preset"])
def test_build_topology_matches_reference_exactly(make):
    mesh = make()
    assert_same_topology(M.build_topology(mesh), reference_build_topology(mesh))

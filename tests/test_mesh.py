import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eslrsim import mesh as M
from eslrsim.errors import ObjParseError, ValidationError

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

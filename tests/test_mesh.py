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

    def test_degenerate_triangle_rejected(self):
        with pytest.raises(ValidationError, match="degenerate"):
            M.parse_obj("v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n")


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

    def test_adjacency_symmetry(self):
        topo = M.build_topology(M.grid_cloth(6, 4))
        for i, ns in enumerate(topo.adjacency):
            for j in ns:
                assert i in topo.adjacency[j]

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

    def test_sorted_and_unique(self):
        rng = np.random.default_rng(1)
        ws = M.build_world_edges(rng.random((50, 3)), rng.random((60, 3)), 0.3)
        rows = [tuple(r) for r in ws.pairs]
        assert rows == sorted(set(rows))


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


@given(st.integers(0, 10 ** 6), st.floats(0.05, 0.5))
@settings(max_examples=25, deadline=None)
def test_world_edges_match_brute_force_property(seed, radius):
    rng = np.random.default_rng(seed)
    g = rng.random((rng.integers(1, 40), 3))
    b = rng.random((rng.integers(1, 40), 3))
    ws = M.build_world_edges(g, b, radius)
    d = np.linalg.norm(g[:, None, :] - b[None, :, :], axis=2)
    assert np.array_equal(ws.pairs, np.argwhere(d <= radius))

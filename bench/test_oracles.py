"""Tests of the benchmark's reference computations against independent code
and hand-built cases. Run with `python -m pytest bench`."""

import math

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path

import oracles


@pytest.mark.parametrize("n_side,size", [(2, 1.0), (3, 0.6), (5, 1.3), (8, 0.37)])
def test_grid_geodesics_match_dijkstra(n_side, size):
    verts, tris = oracles.grid(n_side, size)
    edges, _ = oracles.edges_and_hinges(tris)
    weights = np.linalg.norm(verts[edges[:, 0]] - verts[edges[:, 1]], axis=1)
    n = len(verts)
    graph = coo_matrix((weights, (edges[:, 0], edges[:, 1])), shape=(n, n))
    ref = shortest_path(graph, method="D", directed=False)
    got = oracles.grid_geodesics(n_side, size / (n_side - 1))
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-15)


def test_grid_has_the_expected_edges_and_hinges():
    _, tris = oracles.grid(4, 1.0)
    edges, hinges = oracles.edges_and_hinges(tris)
    # 3 axis edges per row and column, one diagonal per quad
    assert len(edges) == 2 * 4 * 3 + 9
    # every edge not on the boundary is a hinge
    assert len(hinges) == len(edges) - 4 * 3


def test_stretch_of_a_uniformly_scaled_triangle():
    rest = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    edges, _ = oracles.edges_and_hinges(np.array([[0, 1, 2]]))
    rest_len = np.linalg.norm(rest[edges[:, 0]] - rest[edges[:, 1]], axis=1)
    # every edge strained by 10%: sum (k/2) (0.1 L)^2 / L = (k/2) 0.01 sum L
    expected = 25.0 * 0.01 * (2.0 + math.sqrt(2.0))
    assert oracles.stretch(1.1 * rest, edges, rest_len, 50.0) == pytest.approx(expected, rel=1e-12)
    assert oracles.stretch(rest, edges, rest_len, 50.0) == 0.0


@pytest.mark.parametrize("alpha", [0.0, 0.3, -1.2, 2.5])
def test_bending_of_a_folded_hinge(alpha):
    x = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.0, 1.0],
                  [0.5, math.sin(alpha), -math.cos(alpha)]])
    _, hinges = oracles.edges_and_hinges(np.array([[0, 1, 2], [1, 0, 3]]))
    assert hinges.tolist() == [[0, 1, 2, 3]]
    assert abs(oracles.fold_angles(x, hinges)[0]) == pytest.approx(abs(alpha), abs=1e-14)
    assert oracles.bending(x, hinges, 1e-4) == pytest.approx(0.5e-4 * alpha ** 2, abs=1e-18)


def test_masses_and_gravity_of_a_unit_square():
    verts = np.array([[0.0, 2.0, 0.0], [1.0, 2.0, 0.0], [1.0, 2.0, 1.0], [0.0, 2.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    masses = oracles.lumped_masses(verts, tris, density=0.2)
    # the diagonal's ends touch both triangles (area 1/2 each)
    np.testing.assert_allclose(masses, 0.2 * np.array([1, 0.5, 1, 0.5]) / 3, rtol=1e-15)
    assert oracles.gravity(verts, masses, 9.81) == pytest.approx(9.81 * 0.2 * 2.0, rel=1e-15)
    assert oracles.gravity(verts, masses, 9.81, up_axis=0) == pytest.approx(9.81 * 0.2 * 0.5)


def test_raw_stress_counts_each_pair_twice():
    d = np.array([[0.0, 2.0], [2.0, 0.0]])
    assert oracles.raw_stress(np.array([[0.0], [1.0]]), d) == pytest.approx(2.0)
    assert oracles.raw_stress(np.array([[0.0, 0.0], [1.2, 1.6]]), d) == pytest.approx(0.0, abs=1e-28)


def test_classical_scaling_recovers_an_isometric_chain():
    idx = np.arange(30, dtype=np.float64)
    d = np.abs(idx[:, None] - idx[None, :])
    coords = oracles.classical_scaling(d, 2)
    assert oracles.raw_stress(coords, d) < 1e-18
    assert oracles.raw_stress(np.zeros((30, 2)), d) > 1.0


def test_embedding_file_round_trip(tmp_path):
    coords = np.random.default_rng(0).standard_normal((7, 3))
    oracles.write_embedding(tmp_path / "e.geo1", coords)
    header, back = oracles.read_embedding(tmp_path / "e.geo1")
    assert (header["n"], header["k"]) == (7, 3)
    assert np.array_equal(back, coords)


def test_obj_round_trip(tmp_path):
    verts, tris = oracles.grid(3, 0.7)
    (tmp_path / "g.obj").write_text(oracles.obj_text(verts, tris))
    back_v, back_t = oracles.read_obj(tmp_path / "g.obj")
    assert np.array_equal(back_v, verts) and np.array_equal(back_t, tris)

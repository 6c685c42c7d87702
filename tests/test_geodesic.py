import hashlib
import heapq
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eslrsim import geodesic as G
from eslrsim import mesh as M
from eslrsim.errors import DisconnectedMeshError, ValidationError


def stress(coords, d):
    """Raw stress of `coords` against the distances `d`, as SMACOF scores it."""
    return G._raw_stress(d, G._pairwise_distances(np.asarray(coords, dtype=np.float64)))


def chain_graph(n):
    """Path topology with unit rest lengths, built without triangles."""
    edges = np.array([[i, i + 1] for i in range(n - 1)], dtype=np.intp)
    topo = M.Topology(mesh_edges=edges, n_vertices=n,
                      dihedral_pairs=np.zeros((0, 4), dtype=np.intp))
    rest = M.RestState(edge_rest_lengths=np.ones(n - 1),
                       vertex_masses=np.ones(n),
                       rest_dihedral_angles=np.zeros(0))
    return topo, rest


def floyd_warshall(n, edges, weights):
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for (i, j), w in zip(edges, weights):
        d[i, j] = min(d[i, j], w)
        d[j, i] = min(d[j, i], w)
    for k in range(n):
        d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
    return d


def reference_dijkstra(topo, rest):
    """Plain all-pairs heap Dijkstra, every source run to exhaustion; each
    vertex's neighbours come in ascending order, as the sorted edges list them."""
    n = topo.n_vertices
    adj = [[] for _ in range(n)]
    for (i, j), w in zip(topo.mesh_edges, rest.edge_rest_lengths):
        adj[int(i)].append((int(j), float(w)))
        adj[int(j)].append((int(i), float(w)))
    d = np.full((n, n), np.inf)
    for s in range(n):
        d[s, s] = 0.0
        heap = [(0.0, s)]
        settled = set()
        while heap:
            du, u = heapq.heappop(heap)
            if u in settled:
                continue
            settled.add(u)
            for v, w in adj[u]:
                if du + w < d[s, v]:
                    d[s, v] = du + w
                    heapq.heappush(heap, (du + w, v))
    return d


def edge_graph(n, edges, weights):
    """Topology and rest state of an arbitrary weighted graph, no triangles."""
    edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    topo = M.Topology(mesh_edges=edges, n_vertices=n,
                      dihedral_pairs=np.zeros((0, 4), dtype=np.intp))
    rest = M.RestState(np.asarray(weights, dtype=np.float64), np.ones(n), np.zeros(0))
    return topo, rest


# equal real sums of these round differently in f64 (0.1 + 0.2 != 0.3)
NEAR_TIES = np.array([0.1, 0.2, 0.3, 1 / 3, 0.6, 0.7])


def tie_heavy_graph(n, seed, hub_degree=0):
    """Random connected graph: a random spanning tree, about n extra edges and
    optionally vertex 0 joined to `hub_degree` others, weights from NEAR_TIES."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    pairs = {(int(perm[i]), int(perm[rng.integers(0, i)])) for i in range(1, n)}
    pairs |= {(int(a), int(b)) for a, b in rng.integers(0, n, (n, 2))}
    pairs |= {(0, int(v)) for v in rng.permutation(np.arange(1, n))[:hub_degree]}
    edges = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
    return edge_graph(n, edges, rng.choice(NEAR_TIES, len(edges)))


def assert_matches_reference(d, ref):
    """Upper triangle bitwise equal to full heap Dijkstra, lower triangle its
    mirror, zero diagonal."""
    assert np.array_equal(np.triu(d, 1), np.triu(ref, 1))
    assert np.array_equal(d, d.T)
    assert np.array_equal(np.diag(d), np.zeros(len(d)))


def jittered_grid(nx, ny, seed):
    m = M.grid_cloth(nx, ny)
    rng = np.random.default_rng(seed)
    step = 1.0 / (max(nx, ny) - 1)
    m.vertices[:, [0, 2]] += rng.uniform(-0.3, 0.3, (m.n_vertices, 2)) * step
    return m


class TestGeodesicDistances:
    def test_three_vertex_path(self):
        topo, rest = chain_graph(3)
        d = G.geodesic_distances(topo, rest)
        assert d[0, 2] == 2.0

    def test_unit_right_triangle_direct_edge_wins(self):
        m = M.Mesh(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float),
                   np.array([[0, 1, 2]]))
        topo = M.build_topology(m)
        rest = M.compute_rest_quantities(m, topo, 1.0)
        d = G.geodesic_distances(topo, rest)
        assert np.isclose(d[1, 2], np.sqrt(2))

    def test_grid_matches_floyd_warshall(self):
        # unit-spaced 10x10 grid; diagonal edges are sqrt(2), so sums from the
        # two algorithms can differ by a few ulps on interior entries
        m = M.grid_cloth(10, 10, 9.0, 9.0)
        topo = M.build_topology(m)
        rest = M.compute_rest_quantities(m, topo, 1.0)
        d = G.geodesic_distances(topo, rest)
        ref = floyd_warshall(m.n_vertices, topo.mesh_edges, rest.edge_rest_lengths)
        assert np.array_equal(d, d.T)
        assert np.abs(d - ref).max() <= 1e-12
        assert d[0, 99] == ref[0, 99]  # corner-to-corner is exact

    def test_integer_weights_match_floyd_warshall_exactly(self):
        # integer edge lengths sum exactly in f64, so equality is bitwise
        rng = np.random.default_rng(3)
        n = 40
        edges = [[i, i + 1] for i in range(n - 1)]
        edges += [[int(a), int(b)] for a, b in rng.integers(0, n, (60, 2)) if a != b]
        edges = np.array(sorted({(min(a, b), max(a, b)) for a, b in edges}),
                         dtype=np.intp)
        weights = rng.integers(1, 9, len(edges)).astype(float)
        topo = M.Topology(mesh_edges=edges, n_vertices=n,
                          dihedral_pairs=np.zeros((0, 4), dtype=np.intp))
        rest = M.RestState(weights, np.ones(n), np.zeros(0))
        d = G.geodesic_distances(topo, rest)
        ref = floyd_warshall(n, edges, weights)
        assert np.array_equal(d, ref)

    @pytest.mark.parametrize("mesh", [
        jittered_grid(9, 7, seed=4),
        M.Mesh(np.array([[0.0, 0, 0], [1.3, 0, 0.2], [0.4, 0, 0.9]]),
               np.array([[0, 1, 2]])),
    ], ids=["jittered-9x7", "triangle"])
    def test_early_stop_matches_full_reference(self, mesh):
        # the upper triangle must equal a full heap run bit for bit, the last
        # source's row comes from the mirror alone, and the diagonal is zero
        topo = M.build_topology(mesh)
        rest = M.compute_rest_quantities(mesh, topo, 1.0)
        d = G.geodesic_distances(topo, rest)
        ref = reference_dijkstra(topo, rest)
        n = mesh.n_vertices
        assert np.array_equal(np.triu(d, 1), np.triu(ref, 1))
        assert np.array_equal(d, d.T)
        assert np.array_equal(np.diag(d), np.zeros(n))
        assert np.array_equal(d[n - 1, :n - 1], ref[:n - 1, n - 1])

    @pytest.mark.parametrize("n, seed", [(5, 0), (23, 1), (64, 2), (90, 3), (160, 4)])
    def test_near_tie_weights_match_heap_dijkstra_bitwise(self, n, seed):
        topo, rest = tie_heavy_graph(n, seed)
        assert_matches_reference(G.geodesic_distances(topo, rest),
                                 reference_dijkstra(topo, rest))

    def test_fan_vertex_matches_heap_dijkstra_bitwise(self):
        topo, rest = tie_heavy_graph(120, seed=5, hub_degree=80)
        assert np.count_nonzero(topo.mesh_edges == 0) >= 80
        assert_matches_reference(G.geodesic_distances(topo, rest),
                                 reference_dijkstra(topo, rest))

    @pytest.mark.parametrize("block", [G._SOURCE_BLOCK, 16, 7])
    @pytest.mark.parametrize("n", [3, 15, 37, 130])
    def test_partial_source_blocks_match_heap_dijkstra_bitwise(self, monkeypatch,
                                                               n, block):
        # a last block shorter than the others, and graphs smaller than a block
        monkeypatch.setattr(G, "_SOURCE_BLOCK", block)
        topo, rest = tie_heavy_graph(n, seed=n + block, hub_degree=n // 3)
        assert_matches_reference(G.geodesic_distances(topo, rest),
                                 reference_dijkstra(topo, rest))

    def test_disconnected_names_smallest_component(self):
        edges = np.array([[0, 1], [2, 3], [3, 4]], dtype=np.intp)
        topo = M.Topology(mesh_edges=edges, n_vertices=5,
                          dihedral_pairs=np.zeros((0, 4), dtype=np.intp))
        rest = M.RestState(np.ones(3), np.ones(5), np.zeros(0))
        with pytest.raises(DisconnectedMeshError, match=r"2 vertices: \[0, 1\]"):
            G.geodesic_distances(topo, rest)

    @pytest.mark.parametrize("edges, n, message", [
        # the smallest component is neither the first nor the last
        ([[0, 1], [1, 2], [2, 3], [4, 5], [6, 7], [7, 8]], 9,
         "3 connected components; smallest has 2 vertices: [4, 5]"),
        # two components tie for smallest: the one with the lower vertex wins
        ([[0, 2], [2, 4], [4, 6], [1, 5], [3, 7]], 8,
         "3 connected components; smallest has 2 vertices: [1, 5]"),
        # an isolated vertex, and a smallest component longer than 8
        ([[i, i + 1] for i in range(9)] + [[10 + i, 11 + i] for i in range(11)], 23,
         "3 connected components; smallest has 1 vertices: [22]"),
        ([[i, i + 1] for i in range(8)] + [[9 + i, 10 + i] for i in range(11)], 21,
         "2 connected components; smallest has 9 vertices: "
         "[0, 1, 2, 3, 4, 5, 6, 7...]"),
    ], ids=["middle", "tie", "isolated", "truncated"])
    def test_disconnected_message(self, edges, n, message):
        topo, rest = edge_graph(n, edges, np.ones(len(edges)))
        with pytest.raises(DisconnectedMeshError) as err:
            G.geodesic_distances(topo, rest)
        assert str(err.value) == "mesh graph has " + message


class TestPairwiseDistances:
    # vertex counts that give at least two blocks of rows and a partial last one
    ROWS = {1: 400, 2: 300, 150: 61}

    @staticmethod
    def layout(rows, k, order):
        rng = np.random.default_rng(1000 * k + rows)
        if order in ("C", "F"):
            return np.asarray(rng.standard_normal((rows, k)), order=order)
        # every other row and column of a larger C- or F-ordered array
        big = np.asarray(rng.standard_normal((2 * rows, 2 * k)), order=order[0])
        return big[::2, ::2]

    @pytest.mark.parametrize("order", ["C", "F", "C-strided", "F-strided"])
    @pytest.mark.parametrize("k", [1, 2, 7, 8, 9, 16, 17, 33, 150])
    def test_blocked_equals_one_shot_bitwise(self, order, k):
        # numpy sums over k pairwise when the k axis is the faster one and left
        # to right otherwise; the blocked sums must keep that order in every
        # block, the partial last one included
        n = self.ROWS.get(k, 150)
        rows = max(1, G._BLOCK_VALUES // (k * n))
        assert n > rows and n % rows
        c = self.layout(n, k, order)
        one_shot = np.sqrt(((c[:, None] - c[None]) ** 2).sum(-1))
        assert np.array_equal(G._pairwise_distances(c), one_shot)

    def test_pairwise_sum_equals_numpy_sum_bitwise(self):
        # numpy's pairwise summation: below 8 terms, 8 running sums up to 128,
        # recursive halves above
        for m in list(range(1, 40)) + [127, 128, 129, 136, 255, 256, 300, 1000]:
            a = np.random.default_rng(m).standard_normal(m)
            assert G._pairwise_sum(a[:, None].copy())[0] == a.sum(), m

    def test_empty_and_zero_width(self):
        assert G._pairwise_distances(np.zeros((0, 3))).shape == (0, 0)
        assert np.array_equal(G._pairwise_distances(np.zeros((4, 0))), np.zeros((4, 4)))


class TestStress:
    def test_exact_embedding_is_zero(self):
        coords = np.array([[0.0], [1.0], [2.0]])
        d = np.abs(coords - coords.T)
        assert stress(coords, d) == 0.0

    def test_two_points_closed_form(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        coords = np.array([[0.0], [2.0]])
        assert np.isclose(stress(coords, d), 2.0)  # (1-2)^2 counted twice

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((5, 3))
        target = rng.random((5, 5))
        target = (target + target.T) / 2
        np.fill_diagonal(target, 0.0)
        acc = 0.0
        for i in range(5):
            for j in range(5):
                if i != j:
                    acc += (target[i, j] - np.linalg.norm(pts[i] - pts[j])) ** 2
        got = stress(pts, target)
        assert abs(got - acc) <= 1e-12 * max(1.0, abs(acc))

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((6, 2))
        d = np.abs(rng.standard_normal((6, 6)))
        d = (d + d.T) / 2
        np.fill_diagonal(d, 0.0)
        s0 = stress(pts, d)
        s1 = stress(pts + np.array([5.0, -3.0]), d)
        assert abs(s0 - s1) <= 1e-12 * max(1.0, s0)


class TestMdsEmbed:
    def test_chain_embeds_isometrically_in_1d(self):
        topo, rest = chain_graph(5)
        d = G.geodesic_distances(topo, rest)
        emb = G.mds_embed(d, k=1, max_iters=500, tol=1e-12, seed=0)
        assert emb.final_stress <= 1e-6

    def test_stress_monotone_non_increasing(self):
        m = M.grid_cloth(5, 5)
        topo = M.build_topology(m)
        rest = M.compute_rest_quantities(m, topo, 1.0)
        d = G.geodesic_distances(topo, rest)
        emb = G.mds_embed(d, k=2, max_iters=200, tol=1e-12, seed=0)
        hist = emb.stress_history
        assert np.all(np.diff(hist) <= 0)

    def test_full_dimension_beats_classical_init(self):
        m = M.grid_cloth(4, 4)
        topo = M.build_topology(m)
        rest = M.compute_rest_quantities(m, topo, 1.0)
        d = G.geodesic_distances(topo, rest)
        emb = G.mds_embed(d, k=len(d), max_iters=300, tol=1e-12, seed=0)
        classical_stress = stress(G._classical_scaling(d, len(d))[0], d)
        assert emb.final_stress <= classical_stress

    def test_determinism(self):
        m = M.grid_cloth(5, 4)
        topo = M.build_topology(m)
        rest = M.compute_rest_quantities(m, topo, 1.0)
        d = G.geodesic_distances(topo, rest)
        a = G.mds_embed(d, k=3, seed=7)
        b = G.mds_embed(d, k=3, seed=7)
        assert a.coords.tobytes() == b.coords.tobytes()

    def test_guttman_matrix_bitwise_with_coincident_points(self):
        # rows 0 and 1 coincide (pd == 0 off the diagonal); the reused buffer
        # starts dirty, so stale values would show
        rng = np.random.default_rng(3)
        c = rng.standard_normal((40, 3))
        c[1] = c[0]
        pd = G._pairwise_distances(c)
        d = np.abs(pd + rng.standard_normal(pd.shape) * 0.1)
        d = (d + d.T) / 2
        np.fill_diagonal(d, 0.0)
        ref = np.divide(d, pd, out=np.zeros_like(pd), where=pd > 0.0)
        np.negative(ref, out=ref)
        np.fill_diagonal(ref, 0.0)
        np.fill_diagonal(ref, -ref.sum(axis=1))
        got = G._guttman_matrix(d, pd, out=np.full_like(d, np.nan))
        assert got.tobytes() == ref.tobytes()

    def test_k_too_large(self):
        d = np.zeros((3, 3))
        with pytest.raises(ValidationError, match="exceeds"):
            G.mds_embed(d, k=4)


def dense_start(d, k):
    """The classical-scaling start as a dense centring product and full `eigh`
    (every version's code up to 512 vertices)."""
    n = d.shape[0]
    j = np.eye(n) - np.ones((n, n)) / n
    w, v = np.linalg.eigh(-0.5 * j @ (d * d) @ j)
    order = np.argsort(w)[::-1][:k]
    return v[:, order] * np.sqrt(np.clip(w[order], 0.0, None))


_GRID_STARTS = {}


def grid_distances_and_dense_start(nx, ny):
    """Geodesic distances of an nx x ny grid and its dense top-8 start, made
    once per test run."""
    if (nx, ny) not in _GRID_STARTS:
        m = M.grid_cloth(nx, ny)
        topo = M.build_topology(m)
        d = G.geodesic_distances(topo, M.compute_rest_quantities(m, topo, 1.0))
        _GRID_STARTS[nx, ny] = d, dense_start(d, 8)
    return _GRID_STARTS[nx, ny]


def ring_distances(n):
    """Path distances around an n-cycle: a non-Euclidean metric whose Gram's
    eigenvalues come in equal pairs (cosine and sine of one frequency), the
    top pair included, and are negative at every even frequency
    (lambda_2 = -lambda_1 / 4)."""
    t = np.arange(n)
    gap = np.abs(t[:, None] - t[None])
    return np.minimum(gap, n - gap).astype(np.float64)


def crowded_distances(n=600, seed=0):
    """Distances whose Gram has 20 negative eigenvalues larger in magnitude
    than every positive one: the top-k block holds only negatives."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1)) * 0.4
    y = rng.standard_normal((n, 20))
    x -= x.mean(0)
    y -= y.mean(0)
    g = x @ x.T - y @ y.T
    d2 = np.diag(g)[:, None] + np.diag(g)[None] - 2 * g
    d2 -= d2.min()  # a constant shift keeps the spectrum's shape
    np.fill_diagonal(d2, 0.0)
    d = np.sqrt(d2)
    return np.maximum(d, d.T)


def assert_start_matches(coords, ref, d, k, compare_stress=True):
    """Eigenvalues (squared column norms) and start stress within 1e-9
    relative; eigenvectors are not compared (equal eigenvalues rotate them)."""
    got_w, ref_w = (coords ** 2).sum(axis=0), (ref[:, :k] ** 2).sum(axis=0)
    assert np.all(np.abs(got_w - ref_w) <= 1e-9 * ref_w), (got_w, ref_w)
    if not compare_stress:
        return
    got_s, ref_s = stress(coords, d), stress(ref[:, :k], d)
    assert abs(got_s - ref_s) <= 1e-9 * ref_s, (got_s, ref_s)


class TestClassicalScaling:
    @pytest.mark.parametrize("side", [25, 33, 45])
    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_subspace_matches_dense_eigh(self, side, k):
        # on the 45x45 grid lambda_min = -42.8 outweighs lambda_3 = 23.6
        d, ref = grid_distances_and_dense_start(side, side)
        coords, method = G._classical_scaling(d, k)
        assert method.startswith("subspace, "), method
        assert coords.shape == (side * side, k)
        assert_start_matches(coords, ref, d, k)

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_equal_pairs_and_negative_eigenvalues_of_a_ring(self, k):
        d = ring_distances(600)
        coords, method = G._classical_scaling(d, k)
        assert method.startswith("subspace, "), method
        # k = 1 takes one direction of the top pair's plane, and the stress of
        # a 1-D start depends on which
        assert_start_matches(coords, dense_start(d, 8), d, k, compare_stress=k % 2 == 0)

    @pytest.mark.parametrize("k", [1, 3])
    def test_crowded_out_positive_eigenvalue_falls_back_to_dense(self, k):
        d = crowded_distances()
        coords, method = G._classical_scaling(d, k)
        assert method.startswith("dense, subspace check failed after "), method
        assert coords.tobytes() == dense_start(d, k).tobytes()

    def test_iteration_cap_falls_back_to_dense_bitwise(self, monkeypatch):
        monkeypatch.setattr(G, "_SUBSPACE_MAX_ITERS", 1)
        d, _ = grid_distances_and_dense_start(25, 25)
        coords, method = G._classical_scaling(d, 8)
        assert method == "dense, subspace unconverged after 1 iterations"
        assert coords.tobytes() == dense_start(d, 8).tobytes()

    @pytest.mark.parametrize("nx, ny, k, path", [
        (16, 32, 8, "dense"),  # 512 vertices: at the cut
        (19, 27, 8, "subspace"),  # 513 vertices: just above it
        (25, 25, 141, "dense"),  # k + 16 >= n / 4: the block would not be narrow
        (25, 25, 140, "subspace"),
    ])
    def test_path_by_size(self, monkeypatch, nx, ny, k, path):
        # a one-iteration cap keeps every attempt cheap; an attempt shows as a
        # label naming the subspace iteration
        monkeypatch.setattr(G, "_SUBSPACE_MAX_ITERS", 1)
        d = grid_distances_and_dense_start(nx, ny)[0]
        coords, method = G._classical_scaling(d, k)
        if path == "dense":
            assert method == "dense"
            assert coords.tobytes() == dense_start(d, k).tobytes()
        else:
            assert "subspace" in method, method

    def test_collapsed_start_is_named_as_replaced(self):
        emb = G.mds_embed(np.zeros((3, 3)), k=2, seed=1)
        assert emb.start_method == "seeded random, after dense"

    def test_start_is_independent_of_the_seed(self):
        d = grid_distances_and_dense_start(33, 33)[0]
        a = G.mds_embed(d, k=8, max_iters=1, seed=0)
        b = G.mds_embed(d, k=8, max_iters=1, seed=5)
        assert a.start_method.startswith("subspace, ")
        assert a.coords.tobytes() == b.coords.tobytes()


class TestPreprocessBytes:
    """`.geo1` digests with numpy's bundled OpenBLAS 0.3.31 on one thread.
    The coordinates are those the earlier implementation wrote (numpy-array
    Dijkstra run to exhaustion, one-shot n x n x k distances, two distance
    passes per SMACOF iteration), except the 1,089-vertex grid's, re-recorded
    when starts above 512 vertices moved to the subspace iteration. All three
    digests were re-recorded when the header lost its `"has_distances":
    false, ` (24 bytes), with the coordinates' bytes unchanged. The bytes
    depend on the BLAS thread count from a few hundred vertices up, so each
    run is a subprocess with one BLAS thread."""

    @staticmethod
    def preprocess_digest(tmp_path, garment, config=None):
        src = str(Path(G.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / "out.geo1"
        args = [sys.executable, "-m", "eslrsim.cli", "preprocess", "--garment",
                str(garment), "--out", str(out), "--seed", "0"]
        if config is not None:
            cfg_path = tmp_path / "config.json"
            cfg_path.write_text(config)
            args += ["--config", str(cfg_path)]
        run = subprocess.run(args, env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        return hashlib.sha256(out.read_bytes()).hexdigest()

    def test_grid10_asset_default_config(self, tmp_path):
        garment = Path(__file__).resolve().parents[1] / "assets" / "grid10.obj"
        assert self.preprocess_digest(tmp_path, garment) == (
            "048b604d70ece4bd8d135baf9fad740b5f11a0f1dc39bf8a1bd1b3baf872a527")

    def test_grid20_four_smacof_iterations(self, tmp_path):
        # 400 rows is not a multiple of the distance block size
        garment = tmp_path / "grid20.obj"
        M.save_obj(garment, M.grid_cloth(20, 20))
        digest = self.preprocess_digest(
            tmp_path, garment, '{"geodesic": {"mds_max_iters": 4}}')
        assert digest == "ad265472a863f941b0185e9a18ee673a93671e9947d8c1bd74591f5945e7c71d"

    def test_grid33_four_smacof_iterations(self, tmp_path):
        # 1,089 rows: many blocks of pairwise distances with a partial last
        # one, and the C-ordered subspace start
        garment = tmp_path / "grid33.obj"
        M.save_obj(garment, M.grid_cloth(33, 33))
        digest = self.preprocess_digest(
            tmp_path, garment, '{"geodesic": {"mds_max_iters": 4}}')
        assert digest == "183ed2086f91d6700e4e9a378193e2b8a70f7446475647598a7af5647c163701"

    def test_grid33_two_processes_write_the_same_bytes(self, tmp_path):
        garment = tmp_path / "grid33.obj"
        M.save_obj(garment, M.grid_cloth(33, 33))
        runs = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            runs.append(self.preprocess_digest(
                tmp_path / name, garment, '{"geodesic": {"mds_max_iters": 1}}'))
        assert runs[0] == runs[1]


class TestEmbeddingFile:
    def test_round_trip_without_distances(self, tmp_path):
        topo, rest = chain_graph(6)
        emb = G.mds_embed(G.geodesic_distances(topo, rest), k=2, seed=3)
        path = tmp_path / "chain.geo1"
        G.save_embedding(path, emb, seed=3)
        header, coords = G.load_embedding(path)
        assert header == {"n": 6, "k": 2, "final_stress": emb.final_stress,
                          "iterations": len(emb.stress_history), "seed": 3}
        assert coords.shape == (6, 2) and coords.tobytes() == emb.coords.tobytes()

    def test_file_with_has_distances_false_loads_the_same_coordinates(self, tmp_path):
        # files written before the distance block was dropped carry the key
        topo, rest = chain_graph(5)
        emb = G.mds_embed(G.geodesic_distances(topo, rest), k=2, seed=0)
        path = tmp_path / "c.geo1"
        G.save_embedding(path, emb, seed=0)
        new = path.read_bytes()
        old = new.replace(b'"iterations"', b'"has_distances": false, "iterations"')
        assert len(old) == len(new) + 24
        path.write_bytes(old)
        header, coords = G.load_embedding(path)
        assert header["has_distances"] is False
        assert coords.tobytes() == emb.coords.tobytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.geo1"
        p.write_bytes(b"WRONG\n{}\n")
        with pytest.raises(ValidationError, match="magic"):
            G.load_embedding(p)

    def test_default_path_convention(self):
        assert G.default_embedding_path("a/b/shirt.obj") == "a/b/shirt.geo1"

import numpy as np

from eslrsim import lsdmp as L
from eslrsim import tensor as T


def latent_graph(vertex_feats, mesh_edge_feats, world_edge_feats, mesh_edges,
                 world_edges, n_garment, n_garment_edges):
    """LatentGraph with its MeshPlan and world-edge incidences built here, as
    sim.build_scene and lsdmp.encode build them. The layers never read the
    plan's rest features (only `encode` does), so the rest positions are zero."""
    n = vertex_feats.data.shape[0]
    return L.LatentGraph(
        vertex_feats=vertex_feats,
        mesh_edge_feats=mesh_edge_feats,
        world_edge_feats=world_edge_feats,
        plan=L.MeshPlan(mesh_edges, n_garment, n_garment_edges, np.zeros((n, 3))),
        world_plan=L.EdgeIncidence(world_edges, n),
    )


def smooth(v, e, lg):
    """One smoothing step with the edge rows gathered as `lsdmp_layer` does."""
    return L.laplacian_smooth_step(v, e, lg, L.smoothing_edge_rows(e, lg))


def relative_oracle(positions, a, b):
    """[x_a - x_b, |x_a - x_b|], the norm summed left to right as numpy's
    row norm sums a row of three."""
    rel = positions[a] - positions[b]
    return np.append(rel, np.sqrt(rel[0] * rel[0] + rel[1] * rel[1] + rel[2] * rel[2]))


def path_graph(n, h, seed=0, n_garment=None):
    """LatentGraph over a path 0-1-...-(n-1) with random latent features."""
    rng = np.random.default_rng(seed)
    edges = np.array([[i, i + 1] for i in range(n - 1)], dtype=np.intp)
    return latent_graph(
        vertex_feats=T.Tensor(rng.standard_normal((n, h))),
        mesh_edge_feats=T.Tensor(rng.standard_normal((n - 1, h))),
        world_edge_feats=T.Tensor(np.zeros((0, h))),
        mesh_edges=edges,
        world_edges=np.zeros((0, 2), dtype=np.intp),
        n_garment=n if n_garment is None else n_garment,
        n_garment_edges=n - 1,
    )


def random_graph(n, h, seed=0, n_world=4, n_garment=None):
    rng = np.random.default_rng(seed)
    n_garment = n_garment if n_garment is not None else n
    edges = set()
    for i in range(n - 1):
        edges.add((i, i + 1))
    while len(edges) < n + 3:
        a, b = rng.integers(0, n, 2)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    edges = np.array(sorted(edges), dtype=np.intp)
    garment_rows = np.array([(a < n_garment and b < n_garment) for a, b in edges])
    edges = np.concatenate([edges[garment_rows], edges[~garment_rows]])
    world = []
    for _ in range(n_world):
        g = int(rng.integers(0, n_garment))
        b = int(rng.integers(n_garment, n)) if n_garment < n else g
        world.append((g, b))
    world = np.array(sorted(set(world)), dtype=np.intp).reshape(-1, 2)
    return latent_graph(
        vertex_feats=T.Tensor(rng.standard_normal((n, h))),
        mesh_edge_feats=T.Tensor(rng.standard_normal((len(edges), h))),
        world_edge_feats=T.Tensor(rng.standard_normal((len(world), h))),
        mesh_edges=edges,
        world_edges=world,
        n_garment=n_garment,
        n_garment_edges=int(garment_rows.sum()),
    )


def layer_params(h, seed=0, zero_output=False):
    params = T.ModelParams()
    rng = np.random.default_rng(seed)
    L.init_layer_params(params, "lsdmp.layer0", h, rng)
    if zero_output:
        for name, t in params.items():
            if ".w2" in name or ".b2" in name:
                t.data = np.zeros_like(t.data)
    return params


class TestEncode:
    def test_feature_assembly_matches_straight_line_oracle(self):
        rng = np.random.default_rng(0)
        n_g, n_b = 5, 4
        n = n_g + n_b
        pos = rng.standard_normal((n, 3))
        vel = rng.standard_normal((n, 3))
        rest = rng.standard_normal((n, 3))
        normals = rng.standard_normal((n, 3))
        mesh_edges = np.array([[0, 1], [1, 2], [5, 6]], dtype=np.intp)
        world = np.array([[0, 5], [2, 7]], dtype=np.intp)
        plan = L.MeshPlan(mesh_edges, n_g, 2, rest)
        vertex, mesh_f, world_f = L.assemble_input_features(pos, vel, normals, plan, world)
        expected = [np.concatenate([[1.0, 0.0] if i < n_g else [0.0, 1.0],
                                    vel[i], normals[i]]) for i in range(n)]
        assert vertex.tobytes() == np.array(expected).tobytes()
        expected = [np.concatenate([relative_oracle(pos, a, b), relative_oracle(rest, a, b)])
                    for a, b in mesh_edges]
        assert mesh_f.tobytes() == np.array(expected).tobytes()
        expected = [relative_oracle(pos, a, b) for a, b in world]
        assert world_f.tobytes() == np.array(expected).tobytes()

    def test_plan_holds_the_static_inputs(self):
        rng = np.random.default_rng(3)
        rest = rng.standard_normal((6, 3))
        mesh_edges = np.array([[0, 1], [1, 2], [3, 4]], dtype=np.intp)
        plan = L.MeshPlan(mesh_edges, 4, 2, rest)
        assert plan.n_total == 6
        assert plan.kinds.tobytes() == np.array(
            [[1.0, 0.0]] * 4 + [[0.0, 1.0]] * 2).tobytes()
        assert plan.rest_edge_feats.tobytes() == np.array(
            [relative_oracle(rest, a, b) for a, b in mesh_edges]).tobytes()
        assert np.array_equal(plan.garment_rows.ids, np.arange(4))
        assert plan.garment_rows.n == 6 and plan.garment_rows.rows is None

    def test_coincident_world_edge_gives_zero_relative(self):
        pos = np.zeros((4, 3))
        plan = L.MeshPlan(np.zeros((0, 2), dtype=np.intp), 2, 0, pos)
        _, mesh_f, world_f = L.assemble_input_features(
            pos, np.zeros((4, 3)), np.zeros((4, 3)), plan, np.array([[0, 2]], dtype=np.intp))
        assert np.array_equal(world_f, np.zeros((1, 4)))
        assert mesh_f.shape == (0, 8)

    def test_translation_invariance_of_edge_features(self):
        rng = np.random.default_rng(1)
        pos = rng.standard_normal((6, 3))
        rest = rng.standard_normal((6, 3))
        edges = np.array([[0, 1], [2, 3]], dtype=np.intp)
        world = np.array([[0, 4]], dtype=np.intp)
        plan = L.MeshPlan(edges, 4, 2, rest)
        _, m1, w1 = L.assemble_input_features(pos, pos * 0, pos * 0, plan, world)
        _, m2, w2 = L.assemble_input_features(pos + [3.0, -1.0, 2.0], pos * 0, pos * 0,
                                              plan, world)
        assert np.allclose(m1, m2, atol=1e-12)
        assert np.allclose(w1, w2, atol=1e-12)

    def test_encoder_output_matches_oracle(self):
        rng = np.random.default_rng(2)
        params = T.ModelParams()
        L.init_encoder_params(params, 8, rng)
        n_g, n_b = 4, 3
        pos = rng.standard_normal((7, 3))
        vel = rng.standard_normal((7, 3))
        rest = rng.standard_normal((7, 3))
        normals = rng.standard_normal((7, 3))
        mesh_edges = np.array([[0, 1], [4, 5]], dtype=np.intp)
        world = np.array([[1, 4]], dtype=np.intp)
        plan = L.MeshPlan(mesh_edges, n_g, 1, rest)
        lg = L.encode(params, pos, vel, normals, plan, world)
        vertex, mesh_f, world_f = L.assemble_input_features(pos, vel, normals, plan, world)
        ref = T.mlp_apply(params, "encoder.vertex", T.Tensor(vertex))
        assert np.allclose(lg.vertex_feats.data, ref.data, atol=1e-12)
        refm = T.mlp_apply(params, "encoder.mesh_edge", T.Tensor(mesh_f))
        assert np.allclose(lg.mesh_edge_feats.data, refm.data, atol=1e-12)


class TestMessagePassing:
    def test_zero_params_residual_preserves_zero(self):
        h = 6
        lg = path_graph(4, h, seed=3)
        lg.vertex_feats = T.Tensor(np.zeros((4, h)))
        lg.mesh_edge_feats = T.Tensor(np.zeros((3, h)))
        params = layer_params(h)
        for name, t in params.items():
            t.data = np.zeros_like(t.data)
        mesh_e, world_e = L.mp_edge_update(lg, params, "lsdmp.layer0")
        assert np.array_equal(mesh_e.data, np.zeros((3, h)))

    def test_single_edge_equals_direct_mlp(self):
        h = 5
        lg = path_graph(2, h, seed=4)
        params = layer_params(h, seed=4)
        mesh_e, _ = L.mp_edge_update(lg, params, "lsdmp.layer0")
        inp = np.concatenate([lg.mesh_edge_feats.data[0],
                              lg.vertex_feats.data[0],
                              lg.vertex_feats.data[1]])[None, :]
        ref = T.mlp_apply(params, "lsdmp.layer0.f_e_mesh", T.Tensor(inp))
        assert np.allclose(mesh_e.data, ref.data + lg.mesh_edge_feats.data, atol=1e-12)

    def test_edge_update_matches_per_edge_loop_oracle(self):
        h = 4
        lg = random_graph(7, h, seed=5, n_garment=5)
        params = layer_params(h, seed=5)
        mesh_e, world_e = L.mp_edge_update(lg, params, "lsdmp.layer0")
        for r, (a, b) in enumerate(lg.plan.mesh_edges):
            inp = np.concatenate([lg.mesh_edge_feats.data[r],
                                  lg.vertex_feats.data[a],
                                  lg.vertex_feats.data[b]])[None, :]
            ref = T.mlp_apply(params, "lsdmp.layer0.f_e_mesh", T.Tensor(inp)).data
            assert np.allclose(mesh_e.data[r], ref[0] + lg.mesh_edge_feats.data[r],
                               atol=1e-12)

    def test_vertex_update_matches_per_vertex_loop_oracle(self):
        h = 4
        lg = random_graph(7, h, seed=6, n_garment=5)
        params = layer_params(h, seed=6)
        mesh_e, world_e = L.mp_edge_update(lg, params, "lsdmp.layer0")
        v_a = L.mp_vertex_update(lg, mesh_e, world_e, params, "lsdmp.layer0")
        n = lg.plan.n_total
        for i in range(n):
            ms = np.zeros(h)
            for r, (a, b) in enumerate(lg.plan.mesh_edges):
                if i in (a, b):
                    ms += mesh_e.data[r]
            ws = np.zeros(h)
            for r, (a, b) in enumerate(lg.world_plan.edges):
                if i in (a, b):
                    ws += world_e.data[r]
            inp = np.concatenate([lg.vertex_feats.data[i], ms, ws])[None, :]
            ref = T.mlp_apply(params, "lsdmp.layer0.f_v", T.Tensor(inp)).data
            assert np.allclose(v_a.data[i], ref[0] + lg.vertex_feats.data[i],
                               atol=1e-11)

    def test_isolated_vertex_empty_sum_convention(self):
        h = 3
        rng = np.random.default_rng(7)
        lg = latent_graph(
            vertex_feats=T.Tensor(rng.standard_normal((1, h))),
            mesh_edge_feats=T.Tensor(np.zeros((0, h))),
            world_edge_feats=T.Tensor(np.zeros((0, h))),
            mesh_edges=np.zeros((0, 2), dtype=np.intp),
            world_edges=np.zeros((0, 2), dtype=np.intp),
            n_garment=1, n_garment_edges=0)
        params = layer_params(h, seed=7)
        mesh_e, world_e = L.mp_edge_update(lg, params, "lsdmp.layer0")
        v_a = L.mp_vertex_update(lg, mesh_e, world_e, params, "lsdmp.layer0")
        inp = np.concatenate([lg.vertex_feats.data[0], np.zeros(2 * h)])[None, :]
        ref = T.mlp_apply(params, "lsdmp.layer0.f_v", T.Tensor(inp)).data
        assert np.allclose(v_a.data, ref + lg.vertex_feats.data, atol=1e-12)


class TestSmoothing:
    def test_constant_field_zero_edges_preserved_inside(self):
        h = 4
        lg = path_graph(5, h, seed=8)
        c = np.ones((5, h)) * 2.5
        v = T.Tensor(c)
        e = T.Tensor(np.zeros((4, h)))
        out = smooth(v, e, lg)
        assert np.allclose(out.data, c, atol=1e-15)

    def test_path_three_vertices(self):
        h = 2
        lg = path_graph(3, h, seed=9)
        feats = np.array([[1.0, 0.0], [5.0, 5.0], [3.0, 2.0]])
        out = smooth(T.Tensor(feats), T.Tensor(np.zeros((2, h))), lg)
        assert np.allclose(out.data[1], (feats[0] + feats[2]) / 2)

    def test_matches_adjacency_loop_oracle(self):
        h = 3
        lg = random_graph(8, h, seed=10, n_garment=6)
        v = lg.vertex_feats
        e = lg.mesh_edge_feats
        out = smooth(v, e, lg)
        ge = lg.plan.mesh_edges[:lg.plan.n_garment_edges]
        for i in range(lg.plan.n_total):
            acc = np.zeros(h)
            count = 0
            for r, (a, b) in enumerate(ge):
                if a == i:
                    acc += v.data[b] + e.data[r]
                    count += 1
                elif b == i:
                    acc += v.data[a] + e.data[r]
                    count += 1
            if i >= lg.plan.n_garment or count == 0:
                expected = v.data[i]
            else:
                expected = acc / count
            assert np.allclose(out.data[i], expected, atol=1e-12)

    def test_body_vertices_pass_through(self):
        h = 4
        lg = random_graph(8, h, seed=11, n_garment=5)
        out = smooth(lg.vertex_feats, lg.mesh_edge_feats, lg)
        assert np.array_equal(out.data[5:], lg.vertex_feats.data[5:])

    def test_linearity(self):
        h = 4
        lg = random_graph(9, h, seed=12, n_garment=7)
        rng = np.random.default_rng(13)
        m = len(lg.plan.mesh_edges)
        v1, e1 = rng.standard_normal((9, h)), rng.standard_normal((m, h))
        v2, e2 = rng.standard_normal((9, h)), rng.standard_normal((m, h))

        def f(v, e):
            return smooth(T.Tensor(v), T.Tensor(e), lg).data

        assert np.allclose(f(2.5 * v1, 2.5 * e1), 2.5 * f(v1, e1), atol=1e-12)
        assert np.allclose(f(v1 + v2, e1 + e2), f(v1, e1) + f(v2, e2), atol=1e-12)


class TestLayer:
    def test_s_zero_reduces_to_mp_plus_output_mlp(self):
        h = 5
        lg = random_graph(6, h, seed=14, n_garment=5)
        params = layer_params(h, seed=14)
        out = L.lsdmp_layer(lg, params, "lsdmp.layer0", smoothing_steps=0)
        mesh_e, world_e = L.mp_edge_update(lg, params, "lsdmp.layer0")
        v_a = L.mp_vertex_update(lg, mesh_e, world_e, params, "lsdmp.layer0")
        ref = T.add(T.mlp_apply(params, "lsdmp.layer0.f_v_prime", v_a), v_a)
        assert np.array_equal(out.vertex_feats.data, ref.data)

    def test_zero_output_layers_make_processor_identity(self):
        h = 6
        lg = random_graph(7, h, seed=15, n_garment=5)
        params = layer_params(h, seed=15, zero_output=True)
        out = L.lsdmp_layer(lg, params, "lsdmp.layer0", smoothing_steps=3)
        assert np.allclose(out.vertex_feats.data, lg.vertex_feats.data, atol=1e-14)
        assert np.allclose(out.mesh_edge_feats.data, lg.mesh_edge_feats.data,
                           atol=1e-14)

    def test_full_layer_matches_composed_oracle(self):
        h = 4
        lg = random_graph(6, h, seed=16, n_garment=4)
        params = layer_params(h, seed=16)
        out = L.lsdmp_layer(lg, params, "lsdmp.layer0", smoothing_steps=2)
        mesh_e, world_e = L.mp_edge_update(lg, params, "lsdmp.layer0")
        v_a = L.mp_vertex_update(lg, mesh_e, world_e, params, "lsdmp.layer0")
        v_p = smooth(smooth(v_a, mesh_e, lg), mesh_e, lg)
        ref = T.add(T.mlp_apply(params, "lsdmp.layer0.f_v_prime", v_p), v_a)
        assert np.allclose(out.vertex_feats.data, ref.data, atol=1e-12)


def influence_radius(n, h, n_layers, s, seed=17, perturb_vertex=0):
    """Vertices whose outputs change when one input vertex is perturbed."""
    params = T.ModelParams()
    rng = np.random.default_rng(seed)
    for i in range(n_layers):
        L.init_layer_params(params, f"lsdmp.layer{i}", h, rng)
    lg = path_graph(n, h, seed=seed)
    base = L.lsdmp_forward(lg, params, n_layers, s).vertex_feats.data
    feats = lg.vertex_feats.data.copy()
    feats[perturb_vertex] += 1.0
    lg2 = latent_graph(
        vertex_feats=T.Tensor(feats),
        mesh_edge_feats=T.Tensor(lg.mesh_edge_feats.data.copy()),
        world_edge_feats=T.Tensor(np.zeros((0, h))),
        mesh_edges=lg.plan.mesh_edges, world_edges=lg.world_plan.edges,
        n_garment=lg.plan.n_garment, n_garment_edges=lg.plan.n_garment_edges)
    other = L.lsdmp_forward(lg2, params, n_layers, s).vertex_feats.data
    return np.abs(base - other).max(axis=1)


class TestReceptiveField:
    def test_one_layer_s3_reaches_exactly_distance_4(self):
        diff = influence_radius(n=40, h=8, n_layers=1, s=3)
        assert np.all(diff[:5] > 0.0)
        assert np.all(diff[5:] == 0.0)  # bit-exact beyond the radius

    def test_two_layers_s3_reach_exactly_8(self):
        diff = influence_radius(n=40, h=8, n_layers=2, s=3)
        assert np.all(diff[:9] > 0.0)
        assert np.all(diff[9:] == 0.0)

    def test_forward_one_layer_equals_layer(self):
        h = 4
        lg = random_graph(6, h, seed=18, n_garment=5)
        params = layer_params(h, seed=18)
        a = L.lsdmp_forward(lg, params, 1, 2).vertex_feats.data
        b = L.lsdmp_layer(lg, params, "lsdmp.layer0", 2).vertex_feats.data
        assert np.array_equal(a, b)

    def test_desk_config_smoke_finite(self):
        h = 16
        params = T.ModelParams()
        rng = np.random.default_rng(19)
        for i in range(15):
            L.init_layer_params(params, f"lsdmp.layer{i}", h, rng)
        lg = path_graph(500, h, seed=19)
        with T.no_grad():
            out = L.lsdmp_forward(lg, params, 15, 3)
        assert np.all(np.isfinite(out.vertex_feats.data))


class TestPermutationEquivariance:
    def test_bit_exact_under_relabeling(self):
        h = 5
        n = 9
        lg = random_graph(n, h, seed=20, n_garment=7)
        params = layer_params(h, seed=20)
        out = L.lsdmp_layer(lg, params, "lsdmp.layer0", 2).vertex_feats.data

        rng = np.random.default_rng(21)
        perm = rng.permutation(n)  # new label of vertex i is perm[i]
        inv = np.argsort(perm)
        # garment/body split must be preserved by the relabeling
        perm = np.concatenate([np.sort(perm[:7])[np.argsort(np.argsort(perm[:7]))],
                               perm[7:]])
        perm[:7] = rng.permutation(7)
        perm[7:] = 7 + rng.permutation(2)
        inv = np.argsort(perm)
        feats = lg.vertex_feats.data[inv]
        lg2 = latent_graph(
            vertex_feats=T.Tensor(feats),
            mesh_edge_feats=T.Tensor(lg.mesh_edge_feats.data.copy()),
            world_edge_feats=T.Tensor(lg.world_edge_feats.data.copy()),
            mesh_edges=perm[lg.plan.mesh_edges],  # same row order, relabeled endpoints
            world_edges=perm[lg.world_plan.edges],
            n_garment=lg.plan.n_garment, n_garment_edges=lg.plan.n_garment_edges)
        out2 = L.lsdmp_layer(lg2, params, "lsdmp.layer0", 2).vertex_feats.data
        assert out2.tobytes() == out[inv].tobytes()


def scatter_rows(values, ids, n):
    """Row scatter-add in ascending row order onto 0.0, one bincount per column."""
    return np.stack([np.bincount(ids, weights=values[:, c], minlength=n)
                     for c in range(values.shape[1])], axis=1)


def unfused_smooth_step(v, e, lg):
    """The smoothing step as separate tape ops: gather both message halves, add,
    segment mean over destinations, then blend with the mask."""
    ge = lg.plan.mesh_edges[:lg.plan.n_garment_edges]
    n = lg.plan.n_total
    src = np.concatenate([ge[:, 1], ge[:, 0]])
    dst = np.concatenate([ge[:, 0], ge[:, 1]])
    eidx = np.tile(np.arange(len(ge)), 2)
    msg = T.add(T.gather_rows(v, src), T.gather_rows(e, eidx))
    counts = np.bincount(dst, minlength=n)
    denom = np.maximum(counts, 1.0)[:, None]
    mean = T.Tensor(scatter_rows(msg.data, dst, n) / denom)
    if msg.requires_grad:  # segment_mean with the bincount scatter
        mean = T._node(mean.data, (msg,), "segment_mean", lambda g: ((g / denom)[dst],))
    active = (counts > 0) & (np.arange(n) < lg.plan.n_garment)
    mask = active.astype(np.float64)[:, None]
    return T.add(T.mul(mean, T.Tensor(mask)), T.mul(v, T.Tensor(1.0 - mask)))


def unfused_gather_backward(monkeypatch):
    """Make gather_rows scatter its gradient with bincount, as before the
    Incidence existed."""
    def gather_rows(a, index):
        ids = np.asarray(index, dtype=np.intp)
        return T._node(a.data[ids], (a,), "gather_rows",
                       lambda g: (scatter_rows(g, ids, a.data.shape[0]),))
    monkeypatch.setattr(T, "gather_rows", gather_rows)


class TestFusedSmoothing:
    def test_forward_and_gradients_equal_unfused_ops_bitwise(self, monkeypatch):
        h = 5
        lg = random_graph(11, h, seed=30, n_garment=8)
        rng = np.random.default_rng(31)
        v0 = rng.standard_normal((11, h))
        v0[3] = -0.0  # signed zeros pass through as in the unfused ops
        e0 = rng.standard_normal((len(lg.plan.mesh_edges), h))
        w = rng.standard_normal((11, h))

        def run(smooth):
            v = T.Tensor(v0.copy(), requires_grad=True)
            e = T.Tensor(e0.copy(), requires_grad=True)
            # as v_a in a layer, x feeds the steps and a residual whose
            # gradient arrives before the steps' contributions
            x = T.mul(v, 1.5)
            out = T.add(smooth(smooth(x, e, lg), e, lg), x)
            T.backward(T.tsum(T.mul(out, T.Tensor(w))))
            return out.data, v.grad, e.grad

        fused = run(smooth)
        unfused_gather_backward(monkeypatch)
        reference = run(unfused_smooth_step)
        for a, b in zip(fused, reference):
            assert a.tobytes() == b.tobytes()

    def test_hoisted_edge_rows_give_the_same_bytes(self):
        # one gather of the edge rows serves every step of a layer
        lg = random_graph(9, 4, seed=32, n_garment=7)
        v, e = lg.vertex_feats, lg.mesh_edge_feats
        rows = L.smoothing_edge_rows(e, lg)
        hoisted = L.laplacian_smooth_step(L.laplacian_smooth_step(v, e, lg, rows), e, lg, rows)
        assert hoisted.data.tobytes() == \
            unfused_smooth_step(unfused_smooth_step(v, e, lg), e, lg).data.tobytes()

    def test_gradient_matches_fd(self):
        lg = random_graph(8, 3, seed=33, n_garment=6)
        rng = np.random.default_rng(34)
        params = T.ModelParams()
        params.add("v", rng.standard_normal((8, 3)))
        params.add("e", rng.standard_normal((len(lg.plan.mesh_edges), 3)))
        w = T.Tensor(rng.standard_normal((8, 3)))

        def f():
            out = smooth(params["v"], params["e"], lg)
            out = smooth(out, params["e"], lg)
            return T.tsum(T.mul(T.mul(out, out), w))

        assert max(T.grad_check(f, params).values()) <= 1e-6

    def test_one_tape_node_per_step(self):
        lg = random_graph(8, 3, seed=35, n_garment=6)
        v = T.Tensor(lg.vertex_feats.data, requires_grad=True)
        out = smooth(v, lg.mesh_edge_feats, lg)
        assert out._prev == (v, lg.mesh_edge_feats, v)

    def test_layers_reuse_the_graph_plan(self):
        lg = random_graph(7, 4, seed=36, n_garment=5)
        params = layer_params(4, seed=36)
        out = L.lsdmp_layer(lg, params, "lsdmp.layer0", 2)
        assert out.plan is lg.plan and out.world_plan is lg.world_plan


def unfused_edge_update(lg, params, name):
    """mp_edge_update with the MLP input built by separate gather and concat ops."""
    v = lg.vertex_feats

    def update(inc, feats, mlp_name):
        inp = T.concat([feats, T.gather_rows(v, inc.first), T.gather_rows(v, inc.second)],
                       axis=-1)
        return T.add(T.mlp_apply(params, mlp_name, inp), feats)

    return (update(lg.plan.edges, lg.mesh_edge_feats, f"{name}.f_e_mesh"),
            update(lg.world_plan, lg.world_edge_feats, f"{name}.f_e_world"))


def unfused_vertex_update(lg, mesh_e, world_e, params, name):
    """mp_vertex_update with each incident sum a segment sum of `[feats; feats]`."""
    n = lg.plan.n_total

    def incident_sum(inc, feats):
        return T.segment_sum(T.concat([feats, feats], axis=0), inc.incident.ids, n)

    inp = T.concat([lg.vertex_feats, incident_sum(lg.plan.edges, mesh_e),
                    incident_sum(lg.world_plan, world_e)], axis=-1)
    return T.add(T.mlp_apply(params, f"{name}.f_v", inp), lg.vertex_feats)


def leaf_graph(seed, n=10, h=4, n_garment=7):
    """A random graph whose features are fresh leaves that require gradients."""
    lg = random_graph(n, h, seed=seed, n_garment=n_garment)
    return L.LatentGraph(*(T.Tensor(t.data.copy(), requires_grad=True)
                           for t in (lg.vertex_feats, lg.mesh_edge_feats,
                                     lg.world_edge_feats)),
                         plan=lg.plan, world_plan=lg.world_plan)


class TestFusedAggregation:
    def test_message_passing_equals_unfused_ops_bitwise(self):
        """Values and every gradient of both message-passing stages. Every
        repeated parent gets at least three contributions, so a change in
        their order would show: the vertex features feed the vertex update's
        residual as well, and the updated edge features the loss as well."""
        params = layer_params(4, seed=40)
        rng = np.random.default_rng(41)
        w, w_mesh, w_world = (rng.standard_normal(s) for s in ((10, 4), (15, 4), (4, 4)))
        results = []
        for edge_update, vertex_update in ((L.mp_edge_update, L.mp_vertex_update),
                                           (unfused_edge_update, unfused_vertex_update)):
            lg = leaf_graph(seed=42)
            lg.vertex_feats.data[3] = -0.0
            params.zero_grad()
            mesh_e, world_e = edge_update(lg, params, "lsdmp.layer0")
            out = vertex_update(lg, mesh_e, world_e, params, "lsdmp.layer0")
            # the edge terms come first in the sum, so backward reaches them
            # before the incident sums
            loss = T.add(T.add(T.tsum(T.mul(mesh_e, T.Tensor(w_mesh[:len(mesh_e.data)]))),
                               T.tsum(T.mul(world_e, T.Tensor(w_world[:len(world_e.data)])))),
                         T.tsum(T.mul(out, T.Tensor(w))))
            T.backward(loss)
            results.append([out.data, mesh_e.data, world_e.data, lg.vertex_feats.grad,
                            lg.mesh_edge_feats.grad, lg.world_edge_feats.grad]
                           + list(params.grads().values()))
        for fused, ref in zip(*results):
            assert fused.tobytes() == ref.tobytes()

    def test_incident_sum_equals_segment_sum_bitwise(self):
        lg = leaf_graph(seed=43)
        g = np.random.default_rng(44).standard_normal((10, 4))
        results = []
        for fused in (True, False):
            e = T.Tensor(lg.mesh_edge_feats.data.copy(), requires_grad=True)
            inc = lg.plan.edges
            out = L.incident_sum(inc, e) if fused else T.segment_sum(
                T.concat([e, e], axis=0), inc.incident.ids, 10)
            T.backward(T.tsum(T.mul(out, T.Tensor(g))))
            results.append((out.data, e.grad))
        for fused, ref in zip(*results):
            assert fused.tobytes() == ref.tobytes()

    def test_empty_edge_list_gives_zero_sums(self):
        inc = L.EdgeIncidence(np.zeros((0, 2), dtype=np.intp), 3)
        e = T.Tensor(np.zeros((0, 2)), requires_grad=True)
        out = L.incident_sum(inc, e)
        assert np.array_equal(out.data, np.zeros((3, 2)))
        T.backward(T.tsum(out))
        assert e.grad.shape == (0, 2)

    def test_gradients_match_fd(self):
        lg = random_graph(8, 3, seed=45, n_garment=6)
        rng = np.random.default_rng(46)
        params = layer_params(3, seed=45)
        for key, t in (("v", lg.vertex_feats), ("e", lg.mesh_edge_feats),
                       ("w", lg.world_edge_feats)):
            params.add(key, t.data)
        w = T.Tensor(rng.standard_normal((8, 3)))

        def f():
            g = L.LatentGraph(params["v"], params["e"], params["w"], lg.plan, lg.world_plan)
            mesh_e, world_e = L.mp_edge_update(g, params, "lsdmp.layer0")
            out = L.mp_vertex_update(g, mesh_e, world_e, params, "lsdmp.layer0")
            return T.tsum(T.mul(T.mul(out, out), w))

        # the model-level bound of the FD suite: the path runs through ReLU MLPs
        # and LayerNorms of width 3
        assert max(T.grad_check(f, params, names=["v", "e", "w"]).values()) <= 1e-4

    def test_one_tape_node_per_aggregation(self):
        lg = leaf_graph(seed=47)
        params = layer_params(4, seed=47)
        mesh_e, world_e = L.mp_edge_update(lg, params, "lsdmp.layer0")
        mlp_input = mesh_e._prev[0]._prev[0]
        v, e = lg.vertex_feats, lg.mesh_edge_feats
        assert mlp_input._prev == (e, v, v)
        total = L.incident_sum(lg.plan.edges, e)
        assert total._prev == (e, e)

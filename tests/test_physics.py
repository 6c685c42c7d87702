import numpy as np
import pytest

from eslrsim import mesh as M
from eslrsim import physics as P
from eslrsim import tensor as T


def cloth_scene(seed=0, jitter=0.02):
    """10x10 grid cloth with mildly perturbed positions."""
    m = M.grid_cloth(10, 10)
    topo = M.build_topology(m)
    rest = M.compute_rest_quantities(m, topo, density=0.2)
    rng = np.random.default_rng(seed)
    pos = m.vertices + jitter * rng.standard_normal(m.vertices.shape)
    return m, topo, rest, pos


def position_grad_check(f, pos, h=1e-6, rel_tol=1e-6):
    """FD check of scalar f(pos Tensor) against autodiff, L-inf normalized."""
    params = T.ModelParams()
    p = params.add("pos", pos)
    report = T.grad_check(lambda: f(p), params, h=h)
    assert report["pos"] <= rel_tol, report


class TestStretch:
    def test_rest_configuration_is_zero(self):
        m, topo, rest, _ = cloth_scene()
        e = P.stretch_energy(m.vertices, topo, rest, P.PhysicsConfig())
        assert float(e.data) == 0.0

    def test_single_edge_closed_form(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        m = M.Mesh(verts, np.array([[0, 1, 2]]))
        topo = M.Topology(mesh_edges=np.array([[0, 1]], dtype=np.intp),
                          adjacency=[np.array([1]), np.array([0]), np.array([])],
                          dihedral_pairs=np.zeros((0, 4), dtype=np.intp))
        rest = M.RestState(np.array([1.0]), np.ones(3), np.zeros(0))
        cfg = P.PhysicsConfig(k_stretch=2.0)
        pos = verts.copy()
        pos[1, 0] = 1.5
        e = P.stretch_energy(pos, topo, rest, cfg)
        assert np.isclose(float(e.data), 0.25)

    def test_matches_loop_oracle_and_fd(self):
        m, topo, rest, pos = cloth_scene(1)
        cfg = P.PhysicsConfig(k_stretch=7.0)
        e = P.stretch_energy(pos, topo, rest, cfg)
        acc = 0.0
        for (i, j), L in zip(topo.mesh_edges, rest.edge_rest_lengths):
            ln = np.linalg.norm(pos[i] - pos[j])
            acc += 0.5 * cfg.k_stretch * (ln - L) ** 2 / L
        assert abs(float(e.data) - acc) <= 1e-12 * max(1.0, abs(acc))
        position_grad_check(lambda p: P.stretch_energy(p, topo, rest, cfg), pos)

    def test_translation_invariance(self):
        m, topo, rest, pos = cloth_scene(2)
        cfg = P.PhysicsConfig()
        a = float(P.stretch_energy(pos, topo, rest, cfg).data)
        b = float(P.stretch_energy(pos + [1.0, -2.0, 0.5], topo, rest, cfg).data)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


class TestBending:
    def test_flat_rest_flat_current_zero(self):
        m, topo, rest, _ = cloth_scene()
        e = P.bending_energy(m.vertices, topo, rest, P.PhysicsConfig())
        assert abs(float(e.data)) <= 1e-24

    def test_fold_90_closed_form(self):
        verts = np.array([[0, 0, 0], [1, 0, 1], [1, 0, 0], [0, 0, 1]], dtype=float)
        m = M.Mesh(verts, np.array([[0, 2, 1], [0, 1, 3]]))
        topo = M.build_topology(m)
        rest = M.compute_rest_quantities(m, topo, 1.0)
        cfg = P.PhysicsConfig(k_bend=2.0)
        axis = np.array([1.0, 0.0, 1.0]) / np.sqrt(2)
        pos = verts.copy()
        par = axis * (pos[3] @ axis)
        pos[3] = par + np.cross(axis, pos[3] - par)
        e = P.bending_energy(pos, topo, rest, cfg)
        assert np.isclose(float(e.data), (np.pi / 2) ** 2)

    def test_random_fold_fd(self):
        m, topo, rest, pos = cloth_scene(3, jitter=0.03)
        cfg = P.PhysicsConfig(k_bend=0.5)
        position_grad_check(lambda p: P.bending_energy(p, topo, rest, cfg),
                            pos, h=1e-6, rel_tol=1e-5)

    def test_degenerate_hinge_clamped_and_counted(self):
        verts = np.array([[0, 0, 0], [1, 0, 1], [1, 0, 0], [0, 0, 1]], dtype=float)
        m = M.Mesh(verts, np.array([[0, 2, 1], [0, 1, 3]]))
        topo = M.build_topology(m)
        rest = M.compute_rest_quantities(m, topo, 1.0)
        pos = verts.copy()
        pos[3] = pos[0]  # collapse the second triangle
        diag = {}
        e = P.bending_energy(pos, topo, rest, P.PhysicsConfig(), diagnostics=diag)
        assert float(e.data) == 0.0
        assert diag["degenerate_hinges"] == 1


class TestCollision:
    def setup_method(self):
        self.cfg = P.PhysicsConfig(k_collision=1.0, collision_margin=0.01)
        self.normals = np.array([[0.0, 1.0, 0.0]])
        self.body = np.array([[0.0, 0.0, 0.0]])
        self.pairs = np.array([[0, 0]], dtype=np.intp)

    def test_at_margin_is_zero(self):
        g = np.array([[0.0, 0.01, 0.0]])
        e = P.collision_penalty(g, self.body, self.normals, self.pairs, self.cfg)
        assert float(e.data) == 0.0

    def test_on_surface_is_margin_cubed(self):
        g = np.array([[0.0, 0.0, 0.0]])
        e = P.collision_penalty(g, self.body, self.normals, self.pairs, self.cfg)
        assert np.isclose(float(e.data), 0.01 ** 3)

    def test_empty_pairs(self):
        e = P.collision_penalty(np.zeros((2, 3)), self.body, self.normals,
                                np.zeros((0, 2), dtype=np.intp), self.cfg)
        assert float(e.data) == 0.0

    def test_random_contact_matches_oracle_and_fd(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((20, 3)) * 0.02
        b = rng.standard_normal((15, 3)) * 0.02
        normals = rng.standard_normal((15, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        pairs = np.array([[i % 20, (3 * i) % 15] for i in range(30)], dtype=np.intp)
        cfg = P.PhysicsConfig(k_collision=2.5, collision_margin=0.05)
        e = P.collision_penalty(g, b, normals, pairs, cfg)
        acc = 0.0
        for gi, bi in pairs:
            d = (g[gi] - b[bi]) @ normals[bi]
            acc += cfg.k_collision * max(0.0, cfg.collision_margin - d) ** 3
        assert abs(float(e.data) - acc) <= 1e-12 * max(1.0, acc)
        position_grad_check(
            lambda p: P.collision_penalty(p, b, normals, pairs, cfg), g)


class TestGravityInertia:
    def test_zero_height_zero_energy(self):
        cfg = P.PhysicsConfig()
        e = P.gravity_energy(np.zeros((4, 3)), np.ones(4), cfg)
        assert float(e.data) == 0.0

    def test_one_kg_at_minus_one(self):
        cfg = P.PhysicsConfig()
        e = P.gravity_energy(np.array([[0.0, -1.0, 0.0]]), np.ones(1), cfg)
        assert np.isclose(float(e.data), -9.81)

    def test_inertia_zero_on_inertial_path(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 3))
        q = rng.standard_normal((6, 3))
        dt = 0.05
        e = P.inertia_term(x + dt * q, x, q, np.ones(6), dt)
        assert float(e.data) <= 1e-28

    def test_inertia_closed_form_and_analytic_grad(self):
        x = np.zeros((1, 3))
        q = np.zeros((1, 3))
        x_next = np.array([[1.0, 0.0, 0.0]])
        e = P.inertia_term(x_next, x, q, np.ones(1), 1.0)
        assert np.isclose(float(e.data), 0.5)
        # gradient w.r.t. x_next is (m/dt^2)(x_next - inertial)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 3))
        q = rng.standard_normal((5, 3))
        xn = rng.standard_normal((5, 3))
        masses = rng.random(5) + 0.5
        dt = 1 / 30
        xt = T.Tensor(xn, requires_grad=True)
        T.backward(P.inertia_term(xt, x, q, masses, dt))
        expected = (masses[:, None] / dt ** 2) * (xn - (x + dt * q))
        assert np.allclose(xt.grad, expected, rtol=1e-12, atol=1e-12)


class TestFriction:
    def setup_method(self):
        self.cfg = P.PhysicsConfig(friction_mu=0.5, collision_margin=0.05)
        self.body = np.zeros((1, 3))
        self.normals = np.array([[0.0, 1.0, 0.0]])
        self.masses = np.ones(1)

    def test_no_contacts_zero(self):
        e = P.friction_term(np.ones((1, 3)), np.ones((1, 3)), self.body,
                            self.normals, np.zeros((0, 2), dtype=np.intp),
                            self.masses, self.cfg)
        assert float(e.data) == 0.0

    def test_pure_normal_motion_zero(self):
        contacts = np.array([[0, 0]], dtype=np.intp)
        x0 = np.array([[0.0, 0.01, 0.0]])
        x1 = np.array([[0.0, 0.03, 0.0]])  # straight up the normal
        e = P.friction_term(x1, x0, self.body, self.normals, contacts,
                            self.masses, self.cfg)
        assert float(e.data) <= 1e-18

    def test_contact_set_uses_previous_positions(self):
        pairs = np.array([[0, 0], [1, 0]], dtype=np.intp)
        x_curr = np.array([[0.0, 0.01, 0.0], [0.0, 0.5, 0.0]])
        contacts = P.contact_pairs(pairs, x_curr, self.body, self.normals, self.cfg)
        assert np.array_equal(contacts, [[0, 0]])

    def test_tangential_slide_matches_oracle_and_fd(self):
        rng = np.random.default_rng(7)
        n_g, n_b = 12, 6
        x_curr = rng.standard_normal((n_g, 3)) * 0.01
        x_next = x_curr + rng.standard_normal((n_g, 3)) * 0.01
        body = rng.standard_normal((n_b, 3)) * 0.01
        normals = rng.standard_normal((n_b, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        contacts = np.array([[i, i % n_b] for i in range(n_g)], dtype=np.intp)
        masses = rng.random(n_g) + 0.1
        cfg = P.PhysicsConfig(friction_mu=0.7)
        e = P.friction_term(x_next, x_curr, body, normals, contacts, masses, cfg)
        acc = 0.0
        for gi, bi in contacts:
            d = x_next[gi] - x_curr[gi]
            tang = d - (d @ normals[bi]) * normals[bi]
            r = np.linalg.norm(tang)
            h = r ** 2 / (2 * cfg.huber_delta) if r <= cfg.huber_delta \
                else r - cfg.huber_delta / 2
            acc += cfg.friction_mu * masses[gi] * h / cfg.dt
        assert abs(float(e.data) - acc) <= 1e-9 * max(1.0, acc)
        # displacements are ~1e-2 >> huber_delta, so we are far from the kink
        position_grad_check(
            lambda p: P.friction_term(p, x_curr, body, normals, contacts,
                                      masses, cfg),
            x_next, h=1e-7, rel_tol=1e-4)


class TestRigidTranslation:
    def setup_scene(self):
        rng = np.random.default_rng(11)
        m = M.grid_cloth(6, 6)
        topo = M.build_topology(m)
        rest = M.compute_rest_quantities(m, topo, 0.2)
        pos = m.vertices + 0.02 * rng.standard_normal(m.vertices.shape)
        q = 0.1 * rng.standard_normal(pos.shape)
        body = rng.standard_normal((12, 3)) * 0.05
        normals = rng.standard_normal((12, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        pairs = np.array([[i, i % 12] for i in range(20)], dtype=np.intp)
        shift = np.array([0.7, -0.3, 1.1])
        return m, topo, rest, pos, q, body, normals, pairs, shift

    def test_invariant_terms(self):
        m, topo, rest, pos, q, body, normals, pairs, shift = self.setup_scene()
        cfg = P.PhysicsConfig()
        x_next = pos + cfg.dt * q

        def all_terms(xn, xc, qc, b):
            return np.array([
                float(P.stretch_energy(xn, topo, rest, cfg).data),
                float(P.bending_energy(xn, topo, rest, cfg).data),
                float(P.collision_penalty(xn, b, normals, pairs, cfg).data),
                float(P.inertia_term(xn, xc, qc, rest.vertex_masses, cfg.dt).data),
                float(P.friction_term(xn, xc, b, normals, pairs,
                                      rest.vertex_masses, cfg).data),
            ])

        a = all_terms(x_next, pos, q, body)
        b = all_terms(x_next + shift, pos + shift, q, body + shift)
        assert np.all(np.abs(a - b) <= 1e-10 * np.maximum(1.0, np.abs(a)))

    def test_gravity_shifts_by_mass_times_g_times_height(self):
        m, topo, rest, pos, *_ , shift = self.setup_scene()
        cfg = P.PhysicsConfig()
        e0 = float(P.gravity_energy(pos, rest.vertex_masses, cfg).data)
        e1 = float(P.gravity_energy(pos + shift, rest.vertex_masses, cfg).data)
        expected = rest.vertex_masses.sum() * cfg.gravity * shift[1]
        assert abs((e1 - e0) - expected) <= 1e-10 * max(1.0, abs(expected))


class TestTotalLoss:
    def make_inputs(self, seed=8):
        """total_loss arguments; the body is static, so its current normals
        and positions are the next frame's."""
        m, topo, rest, pos = cloth_scene(seed)
        rng = np.random.default_rng(seed + 100)
        body = rng.standard_normal((30, 3)) * 0.3
        normals = rng.standard_normal((30, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        x_curr = pos
        q = rng.standard_normal(pos.shape) * 0.1
        cfg = P.PhysicsConfig()
        x_next = x_curr + cfg.dt * q + rng.standard_normal(pos.shape) * 1e-3
        pairs = M.build_world_edges(x_next, body, 0.25).pairs
        contacts = P.contact_pairs(
            M.build_world_edges(x_curr, body, 0.25).pairs, x_curr, body,
            normals, cfg)
        return (x_next, x_curr, q, body, normals, pairs, contacts, topo, rest, cfg,
                normals, body)

    def test_all_weights_zero(self):
        args = self.make_inputs()
        cfg = args[9]
        cfg.weights = {k: 0.0 for k in cfg.weights}
        total, breakdown = P.total_loss(*args)
        assert float(total.data) == 0.0

    def test_single_term_weight(self):
        args = self.make_inputs()
        cfg = args[9]
        cfg.weights = {k: 0.0 for k in cfg.weights}
        cfg.weights["stretch"] = 1.0
        total, breakdown = P.total_loss(*args)
        assert np.isclose(float(total.data), breakdown["stretch"], rtol=1e-15)

    def test_weighted_sum_matches_individual_terms(self):
        args = self.make_inputs()
        total, breakdown = P.total_loss(*args)
        cfg = args[9]
        expected = sum(cfg.weights[k] * breakdown[k] for k in cfg.weights)
        assert abs(float(total.data) - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_full_loss_position_gradient(self):
        (x_next, x_curr, q, body, normals, pairs, contacts,
         topo, rest, cfg, _, _) = self.make_inputs(9)

        def f(p):
            return P.total_loss(p, x_curr, q, body, normals, pairs, contacts,
                                topo, rest, cfg, normals, body)[0]

        position_grad_check(f, x_next, h=1e-7, rel_tol=1e-4)

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from eslrsim import gsa as G
from eslrsim import lsdmp as L
from eslrsim import mesh as M
from eslrsim import physics as P
from eslrsim import sim as S
from eslrsim import tensor as T
from eslrsim.config import RunConfig, config_from_dict
from eslrsim.errors import ValidationError
from support import concat, grad_check, save_obj


def unzero_output_layers(params, seed=1234):
    """Replace identity-init zero layers with random values so every path of
    the computation graph carries signal."""
    rng = np.random.default_rng(seed)
    for name, t in params.items():
        if t.data.size and not np.any(t.data) and (
                name.endswith(".w2") or name.endswith(".wo")):
            t.data = rng.standard_normal(t.data.shape) * 0.1


def desk_config(**model_overrides):
    cfg = config_from_dict({
        "model": {"hidden_dim": 16, "lsdmp_layers": 2, "smoothing_steps": 2,
                  "gsa_blocks": 1, **model_overrides},
        "geodesic": {"embed_dim": 4},
    })
    return cfg


def small_scene(cfg=None, preset="static_sphere", grid=5):
    cfg = cfg or desk_config()
    garment_mesh = M.grid_cloth(grid, grid)
    rng = np.random.default_rng(0)
    embedding = rng.standard_normal((garment_mesh.n_vertices, cfg.geodesic.embed_dim))
    garment = S.garment_assets_from_mesh(garment_mesh, cfg, embedding)
    motion = S.make_body_motion(preset, cfg)
    return S.build_scene(garment, motion, cfg), cfg


class TestBodyMotion:
    def test_static_sphere_constant(self):
        scene, cfg = small_scene()
        p0, v0, _ = S.body_motion_eval(scene.body, 0.0)
        p1, v1, _ = S.body_motion_eval(scene.body, 3.7)
        assert np.array_equal(p0, p1)
        assert np.array_equal(v0, np.zeros_like(v0))

    def test_translating_capsule_exact_offset(self):
        cfg = desk_config()
        motion = S.make_body_motion("translating_capsule", cfg, amplitude=0.25)
        p0, v0, _ = S.body_motion_eval(motion, 0.0)
        p2, v2, _ = S.body_motion_eval(motion, 2.0)
        assert np.allclose(p2 - p0, [0.5, 0.0, 0.0])
        assert np.allclose(v2, np.tile([0.25, 0.0, 0.0], (len(p0), 1)))

    def test_zero_amplitude_swing_equals_zero_speed_translation(self):
        cfg = desk_config()
        swing = S.make_body_motion("swinging_capsule", cfg, amplitude=0.0)
        trans = S.make_body_motion("translating_capsule", cfg, amplitude=0.0)
        ps, vs, _ = S.body_motion_eval(swing, 1.3)
        pt, vt, _ = S.body_motion_eval(trans, 1.3)
        assert np.allclose(ps, pt, atol=1e-15)
        assert np.allclose(vs, vt, atol=1e-15)

    def test_swing_velocity_matches_central_difference(self):
        cfg = desk_config()
        motion = S.make_body_motion("swinging_capsule", cfg, amplitude=0.4,
                                    frequency=0.8)
        t, h = 0.37, 1e-6
        _, vel, _ = S.body_motion_eval(motion, t)
        pp, _, _ = S.body_motion_eval(motion, t + h)
        pm, _, _ = S.body_motion_eval(motion, t - h)
        assert np.allclose(vel, (pp - pm) / (2 * h), atol=1e-8)

    @pytest.mark.parametrize("preset", S.PRESETS)
    def test_normals_are_those_of_the_positions(self, preset):
        motion = S.make_body_motion(preset, desk_config())
        for t in (0.0, 0.9):
            pos, _, normals = S.body_motion_eval(motion, t)
            assert normals.tobytes() == M.vertex_normals(
                pos, motion.template.triangles).tobytes()

    def test_static_body_normals_made_once(self):
        scene, _ = small_scene()
        assert (S.body_motion_eval(scene.body, 0.0)[2]
                is S.body_motion_eval(scene.body, 3.7)[2])

    def test_unknown_preset(self):
        with pytest.raises(ValidationError, match="preset"):
            S.make_body_motion("wobbling_torus", desk_config())

    def test_body_meshes_are_valid(self):
        for body in (S.uv_sphere(0.3, 7, 10), S.capsule(0.1, 0.25, 7, 10)):
            assert M.triangle_areas(body.vertices, body.triangles).min() > 1e-9


class TestInitialState:
    def test_sphere_apex_gap(self):
        scene, cfg = small_scene()
        state = S.initial_state(scene.garment, scene.body, cfg)
        apex = scene.body.template.vertices[:, 1].max()
        cloth_y = state.x_g[:, 1]
        assert np.allclose(cloth_y, cfg.sim.placement_height)
        assert np.isclose(cfg.sim.placement_height - apex, cfg.sim.body_gap)
        assert np.array_equal(state.q_g, np.zeros_like(state.x_g))

    def test_interpenetration_warning(self):
        scene, cfg = small_scene()
        cfg.sim.body_gap = -0.1  # apex well above the cloth plane
        motion = S.make_body_motion("static_sphere", cfg)
        with pytest.warns(UserWarning, match="penetrates"):
            S.initial_state(scene.garment, motion, cfg)

    def test_keeps_the_contact_geometry_of_its_placement_check(self):
        scene, cfg = small_scene()
        state = S.initial_state(scene.garment, scene.body, cfg)
        fresh = M.build_world_edges(state.x_g, state.x_b, scene.garment.world_radius)
        assert len(fresh.pairs)  # the placement check ran
        assert state.world is not None
        assert np.array_equal(state.world.pairs, fresh.pairs)
        assert state.normals_b.tobytes() == M.vertex_normals(
            state.x_b, scene.body.template.triangles).tobytes()


def nearest_signed_distance_loop(x_g, x_b, pairs, normals):
    """The per-pair dict loop the vectorised nearest-pair search replaced."""
    d2 = ((x_g[pairs[:, 0]] - x_b[pairs[:, 1]]) ** 2).sum(axis=1)
    nearest = {}
    for row, (g, _) in enumerate(pairs):
        if g not in nearest or d2[row] < d2[nearest[g]]:
            nearest[int(g)] = row
    rows = np.array(sorted(nearest.values()), dtype=np.intp)
    sel = pairs[rows]
    return ((x_g[sel[:, 0]] - x_b[sel[:, 1]]) * normals[sel[:, 1]]).sum(axis=1)


class TestNearestBodySignedDistance:
    def check(self, x_g, x_b, pairs, normals):
        contacts = P.body_contacts(pairs, x_g, x_b, normals)
        got = S._nearest_body_signed_distance(contacts, x_g)
        want = nearest_signed_distance_loop(x_g, x_b, pairs, normals)
        assert got.tobytes() == want.tobytes()
        return got

    def test_tie_keeps_the_lower_row(self):
        x_g = np.zeros((1, 3))
        x_b = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])  # equal distances
        normals = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        for pairs, expected in (([[0, 0], [0, 1]], -1.0), ([[0, 1], [0, 0]], 0.0)):
            got = self.check(x_g, x_b, np.array(pairs, dtype=np.intp), normals)
            assert got.tolist() == [expected]

    def test_single_pair(self):
        rng = np.random.default_rng(40)
        self.check(rng.standard_normal((3, 3)), rng.standard_normal((2, 3)),
                   np.array([[2, 1]], dtype=np.intp), rng.standard_normal((2, 3)))

    def test_many_pairs_per_vertex(self):
        rng = np.random.default_rng(41)
        x_g, x_b = rng.standard_normal((3, 3)), rng.standard_normal((40, 3))
        pairs = np.array([(g, b) for g in range(3) for b in range(40)], dtype=np.intp)
        self.check(x_g, x_b, pairs, rng.standard_normal((40, 3)))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_sets(self, seed):
        rng = np.random.default_rng(seed)
        # integer positions make many exact distance ties
        x_g = rng.integers(-2, 3, (12, 3)).astype(np.float64)
        x_b = rng.integers(-2, 3, (15, 3)).astype(np.float64)
        pairs = np.unique(np.stack([rng.integers(0, 12, 60), rng.integers(0, 15, 60)],
                                   axis=1), axis=0)
        normals = rng.standard_normal((15, 3))
        self.check(x_g, x_b, pairs, normals)  # sorted, as world edges are
        self.check(x_g, x_b, pairs[rng.permutation(len(pairs))], normals)


class TestStep:
    def test_zero_decoder_output_gives_free_drift(self):
        scene, cfg = small_scene()
        params = S.build_model_params(cfg.model, cfg.geodesic.embed_dim, seed=0)
        params["decoder.w2"].data = np.zeros_like(params["decoder.w2"].data)
        params["decoder.b2"].data = np.zeros_like(params["decoder.b2"].data)
        state = S.initial_state(scene.garment, scene.body, cfg)
        state.q_g = np.full_like(state.q_g, 0.05)
        out = S.step(state, params, scene)
        assert np.array_equal(out.accel.data, np.zeros_like(state.x_g))
        assert np.array_equal(out.x_next.data, state.x_g + cfg.physics.dt * state.q_g)

    def test_static_zero_accel_keeps_position(self):
        scene, cfg = small_scene()
        params = S.build_model_params(cfg.model, cfg.geodesic.embed_dim, seed=0)
        params["decoder.w2"].data = np.zeros_like(params["decoder.w2"].data)
        params["decoder.b2"].data = np.zeros_like(params["decoder.b2"].data)
        state = S.initial_state(scene.garment, scene.body, cfg)
        out = S.step(state, params, scene)
        assert np.array_equal(out.x_next.data, state.x_g)

    def test_step_matches_staged_recomposition_oracle(self):
        scene, cfg = small_scene()
        params = S.build_model_params(cfg.model, cfg.geodesic.embed_dim, seed=1)
        state = S.initial_state(scene.garment, scene.body, cfg)
        state.q_g = np.random.default_rng(2).standard_normal(state.q_g.shape) * 0.05
        out = S.step(state, params, scene)

        # straight-line recomposition of the six stages
        n_g = scene.garment.mesh.n_vertices
        world = M.build_world_edges(state.x_g, state.x_b,
                                    scene.garment.world_radius)
        wc = world.pairs.copy()
        wc[:, 1] += n_g
        pos = np.concatenate([state.x_g, state.x_b])
        vel = np.concatenate([state.q_g, state.q_b])
        normals = np.concatenate(
            [M.vertex_normals(state.x_g, scene.garment.mesh.triangles),
             M.vertex_normals(state.x_b, scene.body.template.triangles)])
        lg = L.encode(params, pos, vel, normals, scene.plan, wc)
        v_s = L.lsdmp_forward(lg, params, cfg.model.lsdmp_layers,
                              cfg.model.smoothing_steps).vertex_feats
        v_l = G.gsa_forward(T.gather_rows(lg.vertex_feats, np.arange(n_g)),
                            scene.garment.embedding, params, cfg.model.gsa_blocks)
        fused = concat([T.gather_rows(v_s, np.arange(n_g)), v_l], axis=-1)
        accel = T.mul(T.mlp_apply(params, "decoder",
                                  T.mlp_apply(params, "fusion", fused)),
                      params["decoder.accel_scale"])
        q_next = state.q_g + cfg.physics.dt * accel.data
        x_next = state.x_g + cfg.physics.dt * q_next
        assert np.allclose(out.accel.data, accel.data, atol=1e-12)
        assert np.allclose(out.x_next.data, x_next, atol=1e-12)

    def test_step_is_deterministic(self):
        scene, cfg = small_scene()
        params = S.build_model_params(cfg.model, cfg.geodesic.embed_dim, seed=3)
        state = S.initial_state(scene.garment, scene.body, cfg)
        a = S.step(state, params, scene)
        b = S.step(state, params, scene)
        assert a.x_next.data.tobytes() == b.x_next.data.tobytes()

    def test_scene_plan_holds_the_combined_rest_features(self):
        scene, _ = small_scene()
        rest = np.concatenate([scene.garment.mesh.vertices, scene.body.template.vertices])
        edges = scene.plan.mesh_edges
        rel = rest[edges[:, 0]] - rest[edges[:, 1]]
        expected = np.concatenate([rel, np.linalg.norm(rel, axis=1, keepdims=True)], axis=1)
        assert scene.plan.n_total == len(rest)
        assert scene.plan.rest_edge_feats.tobytes() == expected.tobytes()

    def test_no_grad_step_builds_only_the_world_edge_incidences(self, monkeypatch):
        # the garment-row gathers reuse the scene plan's incidence; only the
        # step's world edges get a fresh EdgeIncidence, three Incidences
        scene, cfg = small_scene(grid=6)
        params = S.build_model_params(cfg.model, cfg.geodesic.embed_dim, seed=0)
        state = S.initial_state(scene.garment, scene.body, cfg)
        built = []
        init = T.Incidence.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(T.Incidence, "__init__", counting_init)
        with T.no_grad():
            S.step(state, params, scene)
        assert len(built) == 3

    def test_accel_only_for_garment_vertices(self):
        scene, cfg = small_scene()
        params = S.build_model_params(cfg.model, cfg.geodesic.embed_dim, seed=4)
        state = S.initial_state(scene.garment, scene.body, cfg)
        out = S.step(state, params, scene)
        assert out.accel.data.shape == (scene.garment.mesh.n_vertices, 3)
        # the body advanced exactly kinematically
        expected_b, _, _ = S.body_motion_eval(scene.body, (state.t + 1) * cfg.physics.dt)
        assert np.array_equal(out.next_state.x_b, expected_b)

    def test_gradients_flow_to_all_model_parts(self):
        scene, cfg = small_scene()
        params = S.build_model_params(cfg.model, cfg.geodesic.embed_dim, seed=5)
        unzero_output_layers(params)
        state = S.initial_state(scene.garment, scene.body, cfg)
        out = S.step(state, params, scene)
        loss, _ = S.step_loss(state, out, scene)
        params.zero_grad()
        T.backward(loss)
        grads = params.grads()
        for probe in ("encoder.vertex.w0", "lsdmp.layer0.f_v.w0",
                      "gsa.block0.wq", "fusion.w0", "decoder.w2",
                      "decoder.accel_scale"):
            assert np.abs(grads[probe]).max() > 0.0, probe


class TestStepLossGradient:
    def test_full_single_step_loss_passes_fd(self):
        # tiny model so the 5% entry sample stays fast; the explicit world-edge
        # radius keeps the proximity set clear of far-side body vertices, whose
        # set-membership changes would not be differentiable
        cfg = config_from_dict({
            "model": {"hidden_dim": 6, "lsdmp_layers": 1, "smoothing_steps": 1,
                      "gsa_blocks": 1},
            "geodesic": {"embed_dim": 2},
            "mesh": {"world_edge_radius": 0.05},
        })
        garment_mesh = M.grid_cloth(4, 4)
        rng = np.random.default_rng(6)
        garment = S.garment_assets_from_mesh(
            garment_mesh, cfg, rng.standard_normal((16, 2)))
        scene = S.build_scene(garment, S.make_body_motion("static_sphere", cfg), cfg)
        params = S.build_model_params(cfg.model, 2, seed=7)
        unzero_output_layers(params)
        state = S.initial_state(garment, scene.body, cfg)
        state.q_g = rng.standard_normal(state.q_g.shape) * 0.02

        def f():
            out = S.step(state, params, scene)
            return S.step_loss(state, out, scene)[0]

        report = grad_check(f, params, h=1e-5, sample_fraction=0.05, seed=8)
        worst = max(report.values())
        assert worst <= 1e-4, sorted(report.items(), key=lambda kv: -kv[1])[:5]


class TestRollout:
    def test_t1_equals_step(self):
        """A rollout runs the network in float32: its first frame is a float32 step."""
        scene, cfg = small_scene()
        params = S.build_model_params(cfg.model, cfg.geodesic.embed_dim, seed=9)
        state = S.initial_state(scene.garment, scene.body, cfg)
        records = S.rollout(state, params, 1, scene)
        with T.no_grad():
            out = S.step(state, params.astype(np.float32), scene)
        _, breakdown = S.step_loss(state, out, scene)
        assert len(records) == 1
        assert records[0]["total"] == breakdown["total"]

    def test_zero_model_zero_gravity_moves_uniformly(self):
        scene, cfg = small_scene()
        cfg.physics.gravity = 0.0
        params = S.build_model_params(cfg.model, cfg.geodesic.embed_dim, seed=10)
        params["decoder.w2"].data = np.zeros_like(params["decoder.w2"].data)
        params["decoder.b2"].data = np.zeros_like(params["decoder.b2"].data)
        state = S.initial_state(scene.garment, scene.body, cfg)
        q0 = np.full_like(state.q_g, 0.01)
        state.q_g = q0.copy()
        x0 = state.x_g.copy()
        cur = state
        for frame in range(4):
            out = S.step(cur, params, scene)
            cur = out.next_state
        assert np.allclose(cur.x_g, x0 + 4 * cfg.physics.dt * q0, atol=1e-14)
        assert np.array_equal(cur.q_g, q0)

    def test_frames_and_metrics_written(self, tmp_path):
        scene, cfg = small_scene()
        params = S.build_model_params(cfg.model, cfg.geodesic.embed_dim, seed=11)
        state = S.initial_state(scene.garment, scene.body, cfg)
        records = S.rollout(state, params, 3, scene, out_dir=tmp_path)
        frames = sorted(p.name for p in tmp_path.glob("frame_*.obj"))
        assert frames == ["frame_00000.obj", "frame_00001.obj", "frame_00002.obj"]
        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 3
        rec = json.loads(lines[-1])
        for key in ("frame", "stretch", "bending", "collision", "gravity",
                    "inertia", "friction", "total", "max_penetration"):
            assert key in rec
        assert records[-1]["frame"] == 2

    def test_rollout_deterministic_bytes(self, tmp_path):
        scene, cfg = small_scene()
        params = S.build_model_params(cfg.model, cfg.geodesic.embed_dim, seed=12)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for d in (out1, out2):
            state = S.initial_state(scene.garment, scene.body, cfg)
            S.rollout(state, params, 2, scene, out_dir=d)
        for name in ("frame_00000.obj", "frame_00001.obj", "metrics.jsonl"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestModelParams:
    def test_checkpoint_round_trip_identical_forward(self, tmp_path):
        scene, cfg = small_scene()
        params = S.build_model_params(cfg.model, cfg.geodesic.embed_dim, seed=13)
        state = S.initial_state(scene.garment, scene.body, cfg)
        ref = S.step(state, params, scene).x_next.data
        path = tmp_path / "m.ckpt"
        T.save_checkpoint(path, params, {}, 0, 13)
        state_dict, _ = T.load_checkpoint(path)
        params2 = S.build_model_params(cfg.model, cfg.geodesic.embed_dim, seed=99)
        params2.load_state_dict(state_dict)
        got = S.step(state, params2, scene).x_next.data
        assert got.tobytes() == ref.tobytes()

    def test_missing_embedding_error_mentions_preprocess(self, tmp_path):
        cfg = desk_config()
        garment = M.grid_cloth(4, 4)
        garment_path = tmp_path / "g.obj"
        save_obj(garment_path, garment)
        with pytest.raises(ValidationError, match="preprocess"):
            S.load_garment_assets(garment_path, cfg)


class TestRolloutAbort:
    def test_non_finite_state_raises_with_frame_index(self):
        from eslrsim.errors import RolloutError
        scene, cfg = small_scene()
        params = S.build_model_params(cfg.model, cfg.geodesic.embed_dim, seed=20)
        params["decoder.accel_scale"].data = np.array([np.inf])
        unzero_output_layers(params)
        state = S.initial_state(scene.garment, scene.body, cfg)
        with np.errstate(all="ignore"):  # inf arithmetic is the point here
            with pytest.raises(RolloutError, match="frame 0"):
                S.rollout(state, params, 3, scene)

    def test_non_finite_prediction_stops_before_the_step_loss(self):
        """The check comes before the predicted positions reach the world-edge
        grid, which would cast NaN to int and warn."""
        from eslrsim.errors import RolloutError
        scene, cfg = small_scene()
        params = S.build_model_params(cfg.model, cfg.geodesic.embed_dim, seed=20)
        params["decoder.accel_scale"].data = np.array([np.nan])
        unzero_output_layers(params)
        state = S.initial_state(scene.garment, scene.body, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RolloutError, match="frame 0"):
                S.rollout(state, params, 3, scene)


ROLLOUT_SCRIPT = """
import sys
import numpy as np
from eslrsim import config, mesh, sim
cfg = config.RunConfig()
rng = np.random.default_rng(5)
garment_mesh = mesh.grid_cloth(20, 20)
emb = rng.standard_normal((garment_mesh.n_vertices, cfg.geodesic.embed_dim))
garment = sim.garment_assets_from_mesh(garment_mesh, cfg, emb)
scene = sim.build_scene(garment, sim.make_body_motion("swinging_capsule", cfg), cfg)
params = sim.build_model_params(cfg.model, cfg.geodesic.embed_dim, seed=5)
for name, t in params.items():
    if not np.any(t.data) and (name.endswith(".w2") or name.endswith(".wo")):
        t.data = 0.01 * rng.standard_normal(t.data.shape)
state = sim.initial_state(garment, scene.body, cfg)
sim.rollout(state, params, 3, scene, out_dir=sys.argv[1])
"""


class TestRolloutBytes:
    """A 3-frame rollout of a 20x20 grid against swinging_capsule at the default
    depth writes the bytes recorded here (numpy's bundled OpenBLAS 0.3.31, one
    thread, so each run is a subprocess with one BLAS thread).

    Re-recorded when rollouts moved the network to float32: the float64
    network had written frames `80039a70...`, `a380c97e...` and `1196da8d...`
    and metrics `e9c65981...`, the bytes of the unfused smoothing, bincount
    scatter and separate matmul/bias ops. `TestFloat32Rollout` bounds the
    float32 rollout against the float64 steps."""

    DIGESTS = {
        "frame_00000.obj": "119eeca45438101bad4965a975db29adf106a56dfd8aab7df94a8a1e85561c3b",
        "frame_00001.obj": "285561bcb27162a20109e043745b3a29bd17b4cdb6e0c85501c5bb1923307330",
        "frame_00002.obj": "6962ec2570ffcf7027f28ea6b285beba4e37dd5468b65f0cf0f6eed1f7dabfee",
        "metrics.jsonl": "7dd8bc74436f1d0d6d739acc465cac0e7fc92687520645061f510716691f779d",
    }

    def test_frames_match_recorded_digests(self, tmp_path):
        src = str(Path(S.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", ROLLOUT_SCRIPT, str(tmp_path)],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in self.DIGESTS}
        assert digests == self.DIGESTS


class TestFrameCaches:
    # the capsule's inward normals make the placement read as penetration
    @pytest.mark.filterwarnings("ignore:initial placement penetrates")
    def test_world_edges_built_once_per_frame(self, monkeypatch):
        scene, cfg = small_scene(preset="swinging_capsule")
        params = S.build_model_params(cfg.model, cfg.geodesic.embed_dim, seed=1)
        unzero_output_layers(params)
        state = S.initial_state(scene.garment, scene.body, cfg)
        reference = S.rollout(state, params, 4, scene)
        calls = {"world": 0, "normals": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(S, "build_world_edges",
                            counted("world", S.build_world_edges))
        monkeypatch.setattr(S, "vertex_normals", counted("normals", S.vertex_normals))
        assert S.rollout(state, params, 4, scene) == reference
        # the initial state keeps its placement check's sets; every frame
        # builds its prediction's set once and the next frame reuses it
        assert calls["world"] == 4
        # per frame: the garment's normals and the predicted body's normals
        assert calls["normals"] == 2 * 4

    def test_assigning_positions_drops_cached_values(self):
        scene, cfg = small_scene()
        params = S.build_model_params(cfg.model, cfg.geodesic.embed_dim, seed=1)
        state = S.initial_state(scene.garment, scene.body, cfg)
        with T.no_grad():
            out = S.step(state, params, scene)
            S.step_loss(state, out, scene)
        nxt = out.next_state
        assert nxt.world is not None and nxt.normals_b is not None
        nxt.x_g = nxt.x_g + 1.0
        assert nxt.world is None and nxt.normals_b is not None
        # normals are a plain field like q_b: assigning x_b keeps them
        normals = nxt.normals_b
        nxt.world = M.build_world_edges(nxt.x_g, nxt.x_b, scene.garment.world_radius)
        nxt.x_b = nxt.x_b + 1.0
        assert nxt.world is None and nxt.normals_b is normals

    def test_assigning_normals_drops_contacts_and_velocities_keep_them(self):
        scene, cfg = small_scene()
        state = S.initial_state(scene.garment, scene.body, cfg)
        contacts = state.world
        assert contacts is not None and len(contacts.pairs)
        state.q_g = state.q_g + 1.0
        assert state.world is contacts
        # the signed distances are measured along the normals
        state.normals_b = -state.normals_b
        assert state.world is None
        flipped = S._contacts(state, scene.garment.world_radius)
        assert np.array_equal(flipped.pairs, contacts.pairs)
        assert np.array_equal(flipped.distance, -contacts.distance)


@pytest.fixture(scope="module")
def scene_2k():
    """The `rollout-2k` benchmark's size: a 45x45 grid against swinging_capsule
    at the default config, 6,184 mesh edges and 2,123 vertices (12 and 4 row
    blocks of an untaped MLP, each with a folded tail)."""
    cfg = RunConfig()
    garment_mesh = M.grid_cloth(45, 45)
    rng = np.random.default_rng(21)
    embedding = rng.standard_normal((garment_mesh.n_vertices, cfg.geodesic.embed_dim))
    garment = S.garment_assets_from_mesh(garment_mesh, cfg, embedding)
    scene = S.build_scene(garment, S.make_body_motion("swinging_capsule", cfg), cfg)
    assert (len(scene.plan.mesh_edges), scene.plan.n_total) == (6184, 2123)
    params = S.build_model_params(cfg.model, cfg.geodesic.embed_dim, seed=21)
    unzero_output_layers(params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the capsule's inward normals
        state = S.initial_state(garment, scene.body, cfg)
    return scene, params, state


class TestRowBlockedStep:
    def test_untaped_step_equals_taped_bitwise(self, scene_2k):
        """The reference runs with gradients on, the whole-array arithmetic a
        training step runs. Its parameters are frozen, so no tape is kept
        (one would take about 800 MB at this size)."""
        scene, params, state = scene_2k
        with T.no_grad():
            untaped = S.step(state, params, scene)
        frozen = T.ModelParams()
        for name, t in params.items():
            frozen.add(name, t.data).requires_grad = False
        taped = S.step(state, frozen, scene)
        assert untaped.accel.data.tobytes() == taped.accel.data.tobytes()
        assert untaped.x_next.data.tobytes() == taped.x_next.data.tobytes()

    def test_untaped_edge_update_holds_less_than_its_whole_input(self, scene_2k):
        """tracemalloc counts numpy's buffers: the update's peak over what was
        allocated before stays below one (M, 3h) input, the array the
        whole-input update built in every layer."""
        scene, params, _ = scene_2k
        plan, h = scene.plan, scene.cfg.model.hidden_dim
        rng = np.random.default_rng(22)
        world = np.stack([rng.integers(0, plan.n_garment, 44),
                          rng.integers(plan.n_garment, plan.n_total, 44)], axis=1)
        lg = L.LatentGraph(T.Tensor(rng.standard_normal((plan.n_total, h))),
                           T.Tensor(rng.standard_normal((len(plan.mesh_edges), h))),
                           T.Tensor(rng.standard_normal((len(world), h))),
                           plan, L.EdgeIncidence(world, plan.n_total))
        whole_input = len(plan.mesh_edges) * 3 * h * 8
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            with T.no_grad():
                out = L.mp_edge_update(lg, params, "lsdmp.layer0")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out[0].data.shape == (len(plan.mesh_edges), h)
        assert peak - before < whole_input


class TestFloat32Rollout:
    """`rollout` runs the network on a float32 copy of the parameters. The
    bound was declared before the float32 path was written: over 10 frames of
    a 20x20 grid against swinging_capsule at the default depth, with seeded
    non-zero output layers, the largest vertex deviation from a float64 loop
    of `step` + `step_loss` is at most 1e-3 of the mean rest edge, and every
    logged term, `total` and `max_penetration` are within 1e-4 relative."""

    FRAMES = 10

    def test_within_the_declared_bound_of_float64(self, monkeypatch):
        cfg = RunConfig()
        rng = np.random.default_rng(5)
        garment_mesh = M.grid_cloth(20, 20)
        embedding = rng.standard_normal((garment_mesh.n_vertices, cfg.geodesic.embed_dim))
        garment = S.garment_assets_from_mesh(garment_mesh, cfg, embedding)
        scene = S.build_scene(garment, S.make_body_motion("swinging_capsule", cfg), cfg)
        params = S.build_model_params(cfg.model, cfg.geodesic.embed_dim, seed=5)
        for name, t in params.items():
            if not np.any(t.data) and (name.endswith(".w2") or name.endswith(".wo")):
                t.data = 0.01 * rng.standard_normal(t.data.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the capsule's inward normals
            state0 = S.initial_state(garment, scene.body, cfg)

        reference, positions, state = [], [], state0
        with T.no_grad():
            for frame in range(self.FRAMES):
                out = S.step(state, params, scene)
                _, breakdown = S.step_loss(state, out, scene)
                state = out.next_state
                reference.append({"frame": frame, **breakdown,
                                  "max_penetration": S.max_penetration_depth(state, scene)})
                positions.append(state.x_g)

        got, step = [], S.step

        def recorded(*args):
            out = step(*args)
            got.append(out.next_state.x_g)
            assert out.accel.data.dtype == np.float32
            return out

        monkeypatch.setattr(S, "step", recorded)
        records = S.rollout(state0, params, self.FRAMES, scene)
        assert params["decoder.w0"].data.dtype == np.float64  # the caller's model is kept
        rest_edge = float(garment.rest.edge_rest_lengths.mean())
        deviation = max(np.abs(a - b).max() for a, b in zip(got, positions))
        assert deviation <= 1e-3 * rest_edge, deviation / rest_edge
        assert [r.keys() for r in records] == [r.keys() for r in reference]
        for rec, ref in zip(records, reference):
            for key, value in ref.items():
                assert abs(rec[key] - value) <= 1e-4 * abs(value), (rec["frame"], key)


class TestFloat32Step:
    def test_no_quiet_float64(self, scene_2k, monkeypatch):
        """A float32 step keeps its latents float32 (a promotion would cost the
        speed, not a result) and its state float64."""
        scene, params, state = scene_2k
        p32 = params.astype(np.float32)
        graphs, blocks = [], []
        encode, layer, block = L.encode, L.lsdmp_layer, G.gsa_block
        monkeypatch.setattr(L, "encode", lambda *a: graphs.append(encode(*a)) or graphs[-1])
        monkeypatch.setattr(L, "lsdmp_layer", lambda *a: graphs.append(layer(*a)) or graphs[-1])
        monkeypatch.setattr(G, "gsa_block", lambda *a: blocks.append(block(*a)) or blocks[-1])
        with T.no_grad():
            out = S.step(state, p32, scene)
        assert len(graphs) == 1 + scene.cfg.model.lsdmp_layers
        assert len(blocks) == scene.cfg.model.gsa_blocks
        for lg in graphs:
            for feats in (lg.vertex_feats, lg.mesh_edge_feats, lg.world_edge_feats):
                assert feats.data.dtype == np.float32
        assert all(b.data.dtype == np.float32 for b in blocks)
        assert out.accel.data.dtype == np.float32
        nxt = out.next_state
        for a in (out.x_next.data, nxt.x_g, nxt.q_g, nxt.x_b, nxt.q_b, nxt.normals_b):
            assert a.dtype == np.float64

    def test_float32_step_peaks_at_most_0_6_of_float64(self, scene_2k):
        scene, params, state = scene_2k
        p32 = params.astype(np.float32)

        def peak(p):
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                with T.no_grad():
                    S.step(state, p, scene)
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        per_dtype = peak(params), peak(p32)
        assert per_dtype[1] <= 0.6 * per_dtype[0], per_dtype

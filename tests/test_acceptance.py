"""Acceptance suite: one test per criterion, each printing a PASS line (run
with -s to see them). The desk-benchmark criteria (5 and 6) share one
session-scoped training pass over four model variants and dominate the
runtime (about 13 minutes on two CPU cores); everything else finishes in
about a minute. `tests/conftest.py` runs this module after all the other
tests, and criteria 5 and 6 last.
"""

import time

import numpy as np
import pytest

from eslrsim import cli
from eslrsim import geodesic as G
from eslrsim import gsa as GSA
from eslrsim import lsdmp as L
from eslrsim import mesh as M
from eslrsim import physics as P
from eslrsim import sim as S
from eslrsim import tensor as T
from eslrsim import trainer as TR
from eslrsim.config import config_from_dict
from support import grad_check, save_obj, smoothed

try:
    from threadpoolctl import threadpool_limits
except ImportError:  # timing-sensitive parts still run, just less stable
    import contextlib

    def threadpool_limits(limits):
        return contextlib.nullcontext()


def report(criterion, name):
    print(f"\nACCEPTANCE {criterion} ({name}): PASS")


# -- criterion 1: linear attention equals the O(n^2) kernel oracle ------------

def quadratic_oracle(q, k, v):
    def phi(x):
        return np.where(x > 0, x + 1.0, np.exp(np.minimum(x, 0.0)))

    a = phi(q) @ phi(k).T
    return (a @ v) / a.sum(axis=1, keepdims=True)


def test_criterion_1_linear_attention_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    for n in (8, 64, 173, 256):
        h = int(rng.integers(4, 24))
        q, k = rng.standard_normal((2, n, h)) * 2.0
        v = rng.standard_normal((n, h))
        out, _ = GSA.linear_attention(q, k, v)
        ref = quadratic_oracle(q, k, v)
        rel = np.abs(out - ref) / np.maximum(np.abs(ref), 1e-12)
        assert rel.max() <= 1e-10, f"n={n}: rel err {rel.max():.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, "linear-attention oracle, rel err <= 1e-10, < 1 s")


# -- criterion 2: exact receptive-field radius ---------------------------------

def perturbation_spread(n_layers):
    n, h = 40, 8
    params = T.ModelParams()
    rng = np.random.default_rng(7)
    for i in range(n_layers):
        L.init_layer_params(params, f"lsdmp.layer{i}", h, rng)
    edges = np.array([[i, i + 1] for i in range(n - 1)], dtype=np.intp)
    # the graph plan is fixed; only the vertex features change between runs
    plan = L.MeshPlan(edges, n, n - 1, np.zeros((n, 3)))
    world_plan = L.EdgeIncidence(np.zeros((0, 2), dtype=np.intp), n)

    def forward(feats):
        lg = L.LatentGraph(
            vertex_feats=T.Tensor(feats),
            mesh_edge_feats=T.Tensor(base_edges.copy()),
            world_edge_feats=T.Tensor(np.zeros((0, h))),
            plan=plan, world_plan=world_plan)
        return L.lsdmp_forward(lg, params, n_layers, 3).vertex_feats.data

    base_feats = rng.standard_normal((n, h))
    base_edges = rng.standard_normal((n - 1, h))
    out0 = forward(base_feats.copy())
    bumped = base_feats.copy()
    bumped[0] += 1.0
    out1 = forward(bumped)
    return np.abs(out0 - out1).max(axis=1)


def test_criterion_2_receptive_field_exactness():
    start = time.perf_counter()
    diff1 = perturbation_spread(n_layers=1)
    assert np.all(diff1[:5] > 0.0), "perturbation must reach distance 4"
    assert np.all(diff1[5:] == 0.0), "bit-exact zero beyond distance 4"
    diff2 = perturbation_spread(n_layers=2)
    assert np.all(diff2[:9] > 0.0), "two layers must reach distance 8"
    assert np.all(diff2[9:] == 0.0), "bit-exact zero beyond distance 8"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(2, "receptive field exactly L*(1+s) hops, < 5 s")


# -- criterion 3: chain embeddability under SMACOF ------------------------------

def test_criterion_3_mds_chain_embeddability():
    start = time.perf_counter()
    n = 50
    idx = np.arange(n)
    dist = np.abs(idx[:, None] - idx[None, :]).astype(float)
    emb = G.mds_embed(dist, k=1, max_iters=500, tol=1e-14, seed=0)
    assert emb.final_stress <= 1e-6, f"stress {emb.final_stress:.2e}"
    hist = emb.stress_history
    assert np.all(np.diff(hist) <= 0.0), "stress must be monotone non-increasing"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    report(3, "50-chain k=1 stress <= 1e-6, monotone, < 10 s")


# -- criterion 4: finite-difference gradient suite -------------------------------

def randomized_cloth_scene(seed):
    rng = np.random.default_rng(seed)
    mesh = M.grid_cloth(10, 10)
    topo = M.build_topology(mesh)
    rest = M.compute_rest_quantities(mesh, topo, density=0.2)
    pos = mesh.vertices + 0.02 * rng.standard_normal(mesh.vertices.shape)
    q = 0.1 * rng.standard_normal(pos.shape)
    body = rng.standard_normal((40, 3)) * 0.05
    normals = rng.standard_normal((40, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return mesh, topo, rest, pos, q, body, normals, rng


def fd_vs_autodiff(f, array, h):
    params = T.ModelParams()
    p = params.add("x", array)
    return grad_check(lambda: f(p), params, h=h)["x"]


def test_criterion_4_gradient_suite():
    start = time.perf_counter()
    cfg = P.PhysicsConfig()
    for seed in (0, 1):
        mesh, topo, rest, pos, q, body, normals, rng = randomized_cloth_scene(seed)
        x_next = pos + cfg.dt * q + 1e-3 * rng.standard_normal(pos.shape)
        collisions = P.body_contacts(M.build_world_edges(x_next, body, 0.08).pairs,
                                     x_next, body, normals)
        contacts = P.body_contacts(M.build_world_edges(pos, body, 0.08).pairs,
                                   pos, body, normals).below(cfg.collision_margin)
        # smooth terms at 1e-6
        smooth = {
            "stretch": lambda p: P.stretch_energy(p, topo, rest, cfg),
            "bending": lambda p: P.bending_energy(p, topo, rest, cfg),
            "gravity": lambda p: P.gravity_energy(p, rest.vertex_masses, cfg),
            "inertia": lambda p: P.inertia_term(p, pos, q, rest.vertex_masses, cfg.dt),
        }
        for name, f in smooth.items():
            err = fd_vs_autodiff(f, x_next, h=1e-6)
            assert err <= 1e-6, f"{name} seed {seed}: {err:.2e}"
        # hinged/kinked terms at 1e-4 (non-smooth points excluded by construction)
        err = fd_vs_autodiff(
            lambda p: P.collision_penalty(p, collisions, cfg),
            x_next, h=1e-7)
        assert err <= 1e-4, f"collision seed {seed}: {err:.2e}"
        err = fd_vs_autodiff(
            lambda p: P.friction_term(p, pos, contacts, rest.vertex_masses, cfg),
            x_next, h=1e-7)
        assert err <= 1e-4, f"friction seed {seed}: {err:.2e}"

    # full single-step loss w.r.t. every model parameter (5% entry sample)
    run_cfg = config_from_dict({
        "model": {"hidden_dim": 8, "lsdmp_layers": 2, "smoothing_steps": 2,
                  "gsa_blocks": 1},
        "geodesic": {"embed_dim": 3},
        "mesh": {"world_edge_radius": 0.05},
        "sim": {"body_gap": 0.005},
    })
    mesh = M.grid_cloth(10, 10)
    rng = np.random.default_rng(5)
    garment = S.garment_assets_from_mesh(mesh, run_cfg,
                                         rng.standard_normal((100, 3)))
    scene = S.build_scene(garment, S.make_body_motion("static_sphere", run_cfg),
                          run_cfg)
    params = S.build_model_params(run_cfg.model, 3, seed=6)
    for name, t in params.items():  # activate the identity-initialized paths
        if t.data.size and not np.any(t.data) and (
                name.endswith(".w2") or name.endswith(".wo")):
            t.data = 0.1 * rng.standard_normal(t.data.shape)
    state = S.initial_state(garment, scene.body, run_cfg)
    state.q_g = 0.02 * rng.standard_normal(state.q_g.shape)

    def full_loss():
        out = S.step(state, params, scene)
        return S.step_loss(state, out, scene)[0]

    param_report = grad_check(full_loss, params, h=1e-5,
                              sample_fraction=0.05, seed=7)
    worst = max(param_report.values())
    assert worst <= 1e-4, sorted(param_report.items(), key=lambda kv: -kv[1])[:4]
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    report(4, "FD gradient suite, <= 1e-4 overall / <= 1e-6 smooth, < 2 min")


# -- criteria 5 and 6: desk training benchmark and ablation direction -----------

DESK_CLOTH_SIZE = 0.6
DESK_VARIANTS = {
    "full": {},
    "baseline": {"smoothing_steps": 0, "gsa_blocks": 0},
    "lsdmp_only": {"gsa_blocks": 0},
    "gsa_only": {"smoothing_steps": 0},
}


def desk_run_config(variant_overrides):
    model = {"hidden_dim": 64, "lsdmp_layers": 4, "smoothing_steps": 3,
             "gsa_blocks": 2}
    model.update(variant_overrides)
    return config_from_dict({
        "model": model,
        "geodesic": {"embed_dim": 8},
        "sim": {"body_gap": 0.005},
        "trainer": {"iterations": 2000, "seed": 0},
    })


@pytest.fixture(scope="session")
def desk_benchmark(tmp_path_factory):
    """Train all four variants once; returns per-variant curves and rollouts."""
    base = tmp_path_factory.mktemp("desk")
    mesh = M.grid_cloth(10, 10, DESK_CLOTH_SIZE, DESK_CLOTH_SIZE)
    topo = M.build_topology(mesh)
    rest = M.compute_rest_quantities(mesh, topo, density=0.2)
    emb = G.mds_embed(G.geodesic_distances(topo, rest), k=8, seed=0)
    results = {}
    with threadpool_limits(limits=1):
        for variant, overrides in DESK_VARIANTS.items():
            cfg = desk_run_config(overrides)
            garment = S.garment_assets_from_mesh(mesh, cfg, emb.coords)
            scene = S.build_scene(
                garment, S.make_body_motion("static_sphere", cfg), cfg)
            res = TR.train(cfg, base / variant, scenes=[scene])
            state_dict, _ = T.load_checkpoint(res.checkpoint_path)
            params = S.build_model_params(cfg.model, 8, seed=cfg.trainer.seed)
            params.load_state_dict(state_dict)
            start = S.initial_state(garment, scene.body, cfg)
            rollout = S.rollout(start, params, 30, scene)
            total = sum(cfg.physics.weights[k]
                        * float(np.mean([r[k] for r in rollout]))
                        for k in cli.EVAL_COLUMNS)
            results[variant] = {"totals": res.totals, "rollout": rollout,
                                "eval_total": total,
                                "margin": cfg.physics.collision_margin}
    return results


def test_criterion_5_desk_training_benchmark(desk_benchmark):
    full = desk_benchmark["full"]
    sm = smoothed(full["totals"], window=100)
    s100, s2000 = sm[99], sm[1999]
    assert s2000 <= 0.5 * s100, f"smoothed loss {s100:.4f} -> {s2000:.4f}"
    pens = np.array([r["max_penetration"] for r in full["rollout"]])
    ok = int((pens <= full["margin"]).sum())
    assert ok >= 28, f"penetration <= margin in only {ok}/30 frames " \
                     f"(max {pens.max():.4f})"
    report(5, f"desk benchmark: loss {s100:.4f} -> {s2000:.4f} "
              f"(ratio {s2000 / s100:.3f}), penetration ok {ok}/30")


def test_criterion_6_ablation_direction(desk_benchmark):
    totals = {k: v["eval_total"] for k, v in desk_benchmark.items()}
    assert totals["full"] < totals["baseline"], totals
    assert totals["lsdmp_only"] < totals["baseline"], totals
    assert totals["gsa_only"] < totals["baseline"], totals
    report(6, "ablation ordering: full {full:.4f}, lsdmp {lsdmp_only:.4f}, "
              "gsa {gsa_only:.4f} all < baseline {baseline:.4f}".format(**totals))


# -- criterion 7: scaling directions ----------------------------------------------

def test_criterion_7_scaling():
    cfg = config_from_dict({
        "model": {"hidden_dim": 64, "lsdmp_layers": 15, "smoothing_steps": 3,
                  "gsa_blocks": 4},
        "geodesic": {"embed_dim": 8},
    })
    results = cli.run_bench([1024, 2048], [10, 15], cfg, seed=0)
    gsa_ratio = results[1]["gsa_s"] / results[0]["gsa_s"]
    assert gsa_ratio <= 2.5, f"gsa time ratio {gsa_ratio:.2f} on doubling n"
    for row in results:
        assert row["step_s"][10] < row["step_s"][15], row
    report(7, f"scaling: gsa x{gsa_ratio:.2f} on 2x vertices; "
              f"step(L=10) < step(L=15)")


# -- criterion 8: determinism of seeded subcommands ---------------------------------

def test_criterion_8_determinism(tmp_path):
    garment = tmp_path / "g.obj"
    save_obj(garment, M.grid_cloth(6, 6, DESK_CLOTH_SIZE, DESK_CLOTH_SIZE))
    # preprocess twice -> identical embedding bytes
    embeds = []
    for name in ("e1.geo1", "e2.geo1"):
        out = tmp_path / name
        assert cli.main(["preprocess", "--garment", str(garment), "--embed-dim",
                         "4", "--out", str(out), "--seed", "3"]) == 0
        embeds.append(out.read_bytes())
    assert embeds[0] == embeds[1], "preprocess is not bit-deterministic"
    (tmp_path / "g.geo1").write_bytes(embeds[0])
    # train twice -> identical checkpoint bytes
    import json as _json
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_json.dumps({
        "model": {"hidden_dim": 8, "lsdmp_layers": 1, "smoothing_steps": 1,
                  "gsa_blocks": 1},
        "geodesic": {"embed_dim": 4},
        "trainer": {"iterations": 3, "checkpoint_interval": 0,
                    "scenes": [{"garment": str(garment),
                                "body": "static_sphere"}]},
    }))
    ckpts = []
    for name in ("t1", "t2"):
        out = tmp_path / name
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(out),
                         "--seed", "0", "--quiet"]) == 0
        ckpts.append((out / "checkpoint_final.ckpt").read_bytes())
    assert ckpts[0] == ckpts[1], "train is not bit-deterministic"
    # simulate twice -> identical frame bytes
    frames = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert cli.main(["simulate", "--ckpt", str(tmp_path / "t1" /
                                                   "checkpoint_final.ckpt"),
                         "--garment", str(garment), "--body", "swinging_capsule",
                         "--frames", "2", "--out", str(out)]) == 0
        frames.append((out / "frame_00001.obj").read_bytes()
                      + (out / "metrics.jsonl").read_bytes())
    assert frames[0] == frames[1], "simulate is not bit-deterministic"
    report(8, "determinism: embeddings, checkpoints, frames byte-identical")

"""The benchmark's tracer wraps program functions by name, so a renamed or
deleted function breaks only a traced benchmark run. This installs the tracer
on the program as the benchmark does and runs a tiny training and rollout."""

import importlib.util
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from eslrsim import geodesic, gsa, lsdmp, mesh, physics, sim, tensor, trainer
from eslrsim.config import config_from_dict

ROOT = Path(__file__).resolve().parents[1]


def load_tracer():
    path = ROOT / "bench" / "tracer.py"  # imports only the standard library
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_the_program_and_uninstall_restores_it(tmp_path):
    tracing = load_tracer()
    program = SimpleNamespace(mesh=mesh, lsdmp=lsdmp, gsa=gsa, sim=sim, physics=physics,
                              tensor=tensor, trainer=trainer, geodesic=geodesic)
    before = {(name, attr): value for name, module in vars(program).items()
              for attr, value in vars(module).items() if callable(value)}
    cfg = config_from_dict({
        "model": {"hidden_dim": 8, "lsdmp_layers": 1, "smoothing_steps": 2,
                  "gsa_blocks": 1},
        "geodesic": {"embed_dim": 3},
        # the benchmark's train-desk config also sets warmup_mode
        "trainer": {"iterations": 2, "checkpoint_interval": 0, "warmup_steps": 2,
                    "warmup_mode": "model"},
    })
    garment_mesh = mesh.grid_cloth(4, 4)
    embedding = np.random.default_rng(0).standard_normal((16, 3))
    garment = sim.garment_assets_from_mesh(garment_mesh, cfg, embedding)
    scene = sim.build_scene(garment, sim.make_body_motion("static_sphere", cfg), cfg)

    tr = tracing.Tracer()
    tr.install(program)
    try:
        assert sim.step is not before[("sim", "step")]
        trainer.train(cfg, tmp_path / "run", scenes=[scene])
        params = sim.build_model_params(cfg.model, 3, seed=0)
        state = sim.initial_state(garment, scene.body, cfg)
        sim.rollout(state, params, 2, scene, out_dir=tmp_path / "frames")
    finally:
        tr.uninstall()

    metrics = tracing.layer_metrics(tr, 4)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # trace.op_ms_p50 comes from the workload's samples, not from the tracer
    expected = {m["name"] for m in spec["per_layer"]} - {"trace.op_ms_p50"}
    assert set(metrics) == expected
    assert all(math.isfinite(value) for value, _ in metrics.values())
    for name in ("mesh.world_edges_calls", "lsdmp.smooth_calls", "tensor.op_calls"):
        assert metrics[name][0] > 0, name
    after = {(name, attr): value for name, module in vars(program).items()
             for attr, value in vars(module).items() if callable(value)}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

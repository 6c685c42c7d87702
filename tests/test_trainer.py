import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eslrsim import geodesic as G
from eslrsim import mesh as M
from eslrsim import sim as S
from eslrsim import tensor as T
from eslrsim import trainer as TR
from eslrsim.config import TrainerConfig, config_from_dict
from eslrsim.errors import ValidationError


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = T.ModelParams()
        p = params.add("p", np.array([1.0, -2.0, 3.0]))
        before = p.data.copy()
        state = TR.AdamState()
        TR.adam_step(params, {"p": np.zeros(3)}, state, TrainerConfig())
        assert np.array_equal(p.data, before)

    def test_moments_decay_under_zero_gradient(self):
        params = T.ModelParams()
        params.add("p", np.ones(2))
        state = TR.AdamState(m={"p": np.ones(2)}, v={"p": np.ones(2)}, t=5)
        TR.adam_step(params, {"p": np.zeros(2)}, state, TrainerConfig())
        assert np.allclose(state.m["p"], 0.9)
        assert np.allclose(state.v["p"], 0.999)

    def test_constant_gradient_step_size_approaches_lr(self):
        params = T.ModelParams()
        p = params.add("p", np.array([0.0]))
        state = TR.AdamState()
        hyper = TrainerConfig(learning_rate=1e-3)
        g = {"p": np.array([0.37])}
        prev = p.data.copy()
        for _ in range(1000):
            prev = p.data.copy()
            TR.adam_step(params, g, state, hyper)
        step = abs(float((p.data - prev)[0]))
        assert abs(step - hyper.learning_rate) <= 0.01 * hyper.learning_rate

    def test_quadratic_converges(self):
        params = T.ModelParams()
        x = params.add("x", np.array([0.0]))
        state = TR.AdamState()
        hyper = TrainerConfig(learning_rate=0.01)
        for i in range(5000):
            grad = 2.0 * (x.data - 3.0)
            TR.adam_step(params, {"x": grad}, state, hyper)
            if abs(float(x.data[0]) - 3.0) <= 1e-6:
                break
        assert abs(float(x.data[0]) - 3.0) <= 1e-6


class TestSampleScene:
    def test_single_scene_always_chosen(self):
        cfg = config_from_dict({}).trainer
        rng = np.random.default_rng(0)
        assert all(TR.sample_scene(cfg, 1, rng)[0] == 0 for _ in range(20))

    def test_seeded_sequence_is_reproducible(self):
        cfg = config_from_dict({}).trainer
        a = [TR.sample_scene(cfg, 5, np.random.default_rng(3)) for _ in range(1)]
        draws1 = []
        rng = np.random.default_rng(3)
        for _ in range(50):
            draws1.append(TR.sample_scene(cfg, 5, rng))
        rng = np.random.default_rng(3)
        draws2 = [TR.sample_scene(cfg, 5, rng) for _ in range(50)]
        assert draws1 == draws2

    def test_uniformity_over_four_scenes(self):
        cfg = config_from_dict({}).trainer
        rng = np.random.default_rng(0)
        counts = np.zeros(4)
        n = 10_000
        for _ in range(n):
            idx, _ = TR.sample_scene(cfg, 4, rng)
            counts[idx] += 1
        freqs = counts / n
        assert np.all(np.abs(freqs - 0.25) <= 0.03)

    def test_offsets_within_horizon(self):
        cfg = config_from_dict({"trainer": {"time_horizon": 7}}).trainer
        rng = np.random.default_rng(1)
        offsets = {TR.sample_scene(cfg, 2, rng)[1] for _ in range(500)}
        assert offsets == set(range(7))

    def test_empty_scene_list(self):
        cfg = config_from_dict({}).trainer
        with pytest.raises(ValidationError, match="scene"):
            TR.sample_scene(cfg, 0, np.random.default_rng(0))


def tiny_run_config(tmp_path, iterations=3, lr=1e-4, seed=0):
    garment = M.grid_cloth(4, 4)
    garment_path = tmp_path / "cloth.obj"
    M.save_obj(garment_path, garment)
    topo = M.build_topology(garment)
    rest = M.compute_rest_quantities(garment, topo, 0.2)
    dm = G.geodesic_distances(topo, rest)
    emb = G.mds_embed(dm, k=3, seed=0)
    G.save_embedding(G.default_embedding_path(garment_path), emb, seed=0)
    return config_from_dict({
        "model": {"hidden_dim": 8, "lsdmp_layers": 1, "smoothing_steps": 1,
                  "gsa_blocks": 1},
        "geodesic": {"embed_dim": 3},
        "trainer": {"iterations": iterations, "learning_rate": lr, "seed": seed,
                    "checkpoint_interval": 2, "warmup_steps": 2,
                    "scenes": [{"garment": str(garment_path),
                                "body": "static_sphere"}]},
    })


class TestTrain:
    def test_writes_log_checkpoints_and_config(self, tmp_path):
        cfg = tiny_run_config(tmp_path)
        result = TR.train(cfg, tmp_path / "run")
        assert result.checkpoint_path.exists()
        assert (tmp_path / "run" / "checkpoint_000002.ckpt").exists()
        assert (tmp_path / "run" / "config.json").exists()
        lines = result.log_path.read_text().splitlines()
        assert len(lines) == 3
        recs = [json.loads(line) for line in lines]
        assert [r["iteration"] for r in recs] == [1, 2, 3]
        for r in recs:
            assert np.isfinite(r["total"])

    def test_zero_learning_rate_keeps_initial_params(self, tmp_path):
        cfg = tiny_run_config(tmp_path, iterations=2, lr=0.0)
        result = TR.train(cfg, tmp_path / "run")
        state, header = T.load_checkpoint(result.checkpoint_path)
        fresh = S.build_model_params(cfg.model, 3, seed=cfg.trainer.seed)
        for name, t in fresh.items():
            assert state[name].tobytes() == t.data.tobytes(), name

    def test_seeded_run_twice_identical(self, tmp_path):
        cfg = tiny_run_config(tmp_path, iterations=4)
        r1 = TR.train(cfg, tmp_path / "a")
        r2 = TR.train(cfg, tmp_path / "b")
        assert np.array_equal(r1.totals, r2.totals)
        assert r1.checkpoint_path.read_bytes() == r2.checkpoint_path.read_bytes()

    def test_loss_curve_iterations_are_gapless(self, tmp_path):
        cfg = tiny_run_config(tmp_path, iterations=5)
        result = TR.train(cfg, tmp_path / "run")
        recs = [json.loads(line) for line in result.log_path.read_text().splitlines()]
        assert [r["iteration"] for r in recs] == list(range(1, 6))

    def test_checkpoint_round_trip_identical_rollout(self, tmp_path):
        cfg = tiny_run_config(tmp_path, iterations=2)
        result = TR.train(cfg, tmp_path / "run")
        state_dict, header = T.load_checkpoint(result.checkpoint_path)
        scene = S.scene_from_spec(cfg.trainer.scenes[0], cfg)
        params = S.build_model_params(cfg.model, 3, seed=777)
        params.load_state_dict(state_dict)
        st = S.initial_state(scene.garment, scene.body, cfg)
        a = S.rollout(st, params, 2, scene)
        params2 = S.build_model_params(cfg.model, 3, seed=778)
        params2.load_state_dict(state_dict)
        st2 = S.initial_state(scene.garment, scene.body, cfg)
        b = S.rollout(st2, params2, 2, scene)
        assert a == b


class TestSmoothed:
    def test_window_average(self):
        vals = np.arange(10, dtype=float)
        sm = TR.smoothed(vals, 3)
        assert sm[0] == 0.0
        assert sm[1] == 0.5
        assert sm[9] == (7 + 8 + 9) / 3


class TestAbort:
    def test_nan_loss_aborts_with_iteration_and_keeps_checkpoint(self, tmp_path,
                                                                 monkeypatch):
        from eslrsim import sim as sim_mod
        from eslrsim.errors import TrainAbortError
        cfg = tiny_run_config(tmp_path, iterations=10)
        cfg.trainer.checkpoint_interval = 2
        real_step_loss = sim_mod.step_loss
        calls = {"n": 0}

        def poisoned(state, out, scene, diagnostics=None):
            calls["n"] += 1
            loss, breakdown = real_step_loss(state, out, scene, diagnostics)
            if calls["n"] >= 5:
                breakdown = dict(breakdown, total=float("nan"))
            return loss, breakdown

        monkeypatch.setattr(TR.sim, "step_loss", poisoned)
        with pytest.raises(TrainAbortError, match="iteration 5"):
            TR.train(cfg, tmp_path / "run")
        assert (tmp_path / "run" / "checkpoint_000004.ckpt").exists()


TRAIN_SCRIPT = """
import shutil, sys
from pathlib import Path
from eslrsim import cli, config, trainer
root, out = Path(sys.argv[1]), Path(sys.argv[2])
garment = out / "grid10.obj"
shutil.copy(root / "assets" / "grid10.obj", garment)
assert cli.main(["preprocess", "--garment", str(garment)]) == 0
cfg = config.load_config(root / "assets" / "desk_config.json")
cfg.trainer.scenes[0].garment = str(garment)
cfg.trainer.iterations = 10
cfg.trainer.checkpoint_interval = 0
trainer.train(cfg, out / "run")
"""


def test_desk_training_parameter_bytes_match_recorded_digest(tmp_path):
    """Ten desk iterations (model-mode warm-up, 4 layers, s=3, 2 GSA blocks)
    write the parameter blocks the unfused smoothing, bincount scatter and
    separate matmul/bias ops wrote, with numpy's bundled OpenBLAS 0.3.31 on
    one thread; each run is a subprocess with one BLAS thread."""
    root = Path(__file__).resolve().parents[1]
    src = str(Path(TR.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", TRAIN_SCRIPT, str(root), str(tmp_path)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    ckpt = (tmp_path / "run" / "checkpoint_final.ckpt").read_bytes()
    blocks = ckpt.split(b"\n", 2)[2]  # after the magic and the header line
    assert hashlib.sha256(blocks).hexdigest() == (
        "76ae25b6d5d89a123e3182290635a41f51a741e2d830481ff278e82fd88b9935")

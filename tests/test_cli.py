import contextlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eslrsim import cli, sim
from eslrsim import geodesic as geo
from eslrsim import mesh as M
from eslrsim.config import config_from_dict, save_config
from eslrsim.errors import ValidationError


@pytest.fixture
def garment_obj(tmp_path):
    path = tmp_path / "grid.obj"
    M.save_obj(path, M.grid_cloth(5, 5))
    return path


def small_config_file(tmp_path, garment_path, iterations=2):
    cfg = config_from_dict({
        "model": {"hidden_dim": 8, "lsdmp_layers": 1, "smoothing_steps": 1,
                  "gsa_blocks": 1},
        "geodesic": {"embed_dim": 3},
        "trainer": {"iterations": iterations, "checkpoint_interval": 0,
                    "warmup_steps": 1,
                    "scenes": [{"garment": str(garment_path),
                                "body": "static_sphere"}]},
    })
    path = tmp_path / "config.json"
    save_config(path, cfg)
    return path


# config keys that only ever took one value, now constants, with that value
REMOVED_KEYS = [
    ("geodesic", "mds_tol", 1e-9),
    ("sim", "sphere_radius", 0.3), ("sim", "sphere_lat", 9), ("sim", "sphere_lon", 12),
    ("sim", "capsule_radius", 0.12), ("sim", "capsule_half_length", 0.3),
    ("sim", "capsule_lat", 9), ("sim", "capsule_lon", 12), ("sim", "eval_frames", 30),
    ("trainer", "beta1", 0.9), ("trainer", "beta2", 0.999), ("trainer", "adam_eps", 1e-8),
]


class TestPreprocess:
    def test_writes_embedding_and_prints_stress(self, tmp_path, garment_obj, capsys):
        out = tmp_path / "grid.geo1"
        rc = cli.main(["preprocess", "--garment", str(garment_obj),
                       "--embed-dim", "2", "--out", str(out)])
        assert rc == 0 and out.exists()
        stdout = capsys.readouterr().out
        assert "final stress" in stdout and "effective config" in stdout

    def test_prints_start_stress_and_stage_times(self, tmp_path, garment_obj, capsys):
        out = tmp_path / "grid.geo1"
        rc = cli.main(["preprocess", "--garment", str(garment_obj), "--embed-dim", "2",
                       "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        line = re.search(
            r"^start stress (\S+); times: mesh load (\S+) s, shortest paths (\S+) s, "
            r"classical scaling (\S+) s \(([^)]+)\), SMACOF (\S+) s \((\d+) iterations, "
            r"(\S+) ms each\)$", stdout, re.M)
        assert line is not None, stdout
        groups = list(line.groups())
        assert groups.pop(4) == "dense"  # 25 vertices: the dense start
        start, load_s, paths_s, start_s, smacof_s, iters, iter_ms = (
            float(g) for g in groups)
        final = float(re.search(r"final stress (\S+)", stdout).group(1))
        header, _ = geo.load_embedding(out)
        assert final == float(f"{header['final_stress']:.6e}") and start >= final
        assert 1 <= iters <= 500
        assert min(load_s, paths_s, start_s, smacof_s, iter_ms) >= 0
        assert abs(iter_ms * iters - 1e3 * smacof_s) <= 1e-3 * iters + 1
        m = M.grid_cloth(5, 5)
        topo = M.build_topology(m)
        ref = geo.mds_embed(geo.geodesic_distances(
            topo, M.compute_rest_quantities(m, topo, 0.2)), k=2, seed=0)
        assert start == float(f"{ref.stress_history[0]:.6e}")
        assert iters == ref.iterations_run

    @pytest.mark.parametrize("budget", [3, 500])
    def test_prints_accepted_iteration_count(self, tmp_path, garment_obj, capsys,
                                             budget):
        cfg_path = tmp_path / "budget.json"
        cfg_path.write_text(json.dumps({"geodesic": {"mds_max_iters": budget}}))
        out = tmp_path / "grid.geo1"
        assert cli.main(["preprocess", "--garment", str(garment_obj), "--embed-dim",
                         "2", "--out", str(out), "--config", str(cfg_path)]) == 0
        printed = int(re.search(r"after (\d+) iterations",
                                capsys.readouterr().out).group(1))
        m = M.grid_cloth(5, 5)
        topo = M.build_topology(m)
        ref = geo.mds_embed(geo.geodesic_distances(
            topo, M.compute_rest_quantities(m, topo, 0.2)), k=2, max_iters=budget)
        assert 1 <= printed == len(ref.stress_history) - 1 <= budget
        # the header counts stress values, the start's included
        header = json.loads(out.read_bytes().split(b"\n", 2)[1])
        assert header["iterations"] == printed + 1

    def test_overflowing_degenerate_triangle_exits_2(self, tmp_path, capsys):
        # collinear, with a cross product that overflows to nan
        path = tmp_path / "huge.obj"
        path.write_text("v 0 0 0\nv 1e200 1e200 0\nv 2e200 2e200 0\nf 1 2 3\n")
        rc = cli.main(["preprocess", "--garment", str(path), "--embed-dim", "1"])
        err = capsys.readouterr().err
        assert rc == 2 and "degenerate" in err and "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("vertex, axis", [(7, 0), (0, 1)])
    @pytest.mark.parametrize("big, code", [
        (1e100, 0), (1e120, 2), (1e140, 2), (1e160, 2), (1e300, 2)])
    def test_one_huge_coordinate_loads_or_exits_2(self, tmp_path, capsys, vertex, axis,
                                                  big, code):
        # from 1e120 the rest hinge angles overflow, from 1e160 the areas too;
        # either way the rest arithmetic rejects the mesh without a warning
        m = M.grid_cloth(4, 4)
        m.vertices[vertex, axis] = big
        path = tmp_path / "huge.obj"
        M.save_obj(path, m)
        rc = cli.main(["preprocess", "--garment", str(path), "--embed-dim", "1"])
        err = capsys.readouterr().err
        assert rc == code, err
        if code == 2:
            assert "rest mesh too large" in err and "Traceback" not in err

    def test_printed_stress_matches_solver(self, tmp_path, capsys):
        # a triangle mesh is never exactly 1-D isometric; the printed number
        # must be the solver's converged stress (chain-graph embeddability to
        # <= 1e-6 is covered by the acceptance suite on the chain graph itself)
        path = tmp_path / "strip.obj"
        M.save_obj(path, M.grid_cloth(30, 2, 29.0, 1.0))
        rc = cli.main(["preprocess", "--garment", str(path), "--embed-dim", "1"])
        assert rc == 0
        stress = float(re.search(r"final stress ([\d.eE+-]+)",
                                 capsys.readouterr().out).group(1))
        from eslrsim import geodesic as G
        m = M.grid_cloth(30, 2, 29.0, 1.0)
        topo = M.build_topology(m)
        rest = M.compute_rest_quantities(m, topo, 0.2)
        ref = G.mds_embed(G.geodesic_distances(topo, rest), k=1,
                          max_iters=500, tol=1e-9, seed=0)
        assert np.isclose(stress, ref.final_stress, rtol=1e-5)

    def test_embed_dim_zero_exits_2_before_writing(self, tmp_path, garment_obj, capsys):
        out = tmp_path / "grid.geo1"
        rc = cli.main(["preprocess", "--garment", str(garment_obj), "--embed-dim", "0",
                       "--out", str(out)])
        assert rc == 2 and not out.exists()
        err = capsys.readouterr().err
        assert "--embed-dim must be >= 1, got 0" in err and "'geodesic.embed_dim'" in err
        assert "Traceback" not in err

    def test_k_larger_than_n_exits_2(self, tmp_path, garment_obj, capsys):
        rc = cli.main(["preprocess", "--garment", str(garment_obj),
                       "--embed-dim", "99"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_disconnected_mesh_exits_2(self, tmp_path, capsys):
        text = ("v 0 0 0\nv 1 0 0\nv 0 1 0\n"
                "v 5 0 0\nv 6 0 0\nv 5 1 0\n"
                "f 1 2 3\nf 4 5 6\n")
        path = tmp_path / "two.obj"
        path.write_text(text)
        rc = cli.main(["preprocess", "--garment", str(path), "--embed-dim", "1"])
        assert rc == 2
        assert "component" in capsys.readouterr().err

    @pytest.mark.parametrize("bad, named", [
        ({"geodesic": {"embed_dim": "8"}}, "geodesic.embed_dim"),
        ({"geodesic": {"mds_max_iters": 2.5}}, "geodesic.mds_max_iters"),
    ])
    def test_mistyped_config_scalar_exits_2(self, tmp_path, garment_obj, capsys,
                                            bad, named):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(bad))
        rc = cli.main(["preprocess", "--garment", str(garment_obj),
                       "--config", str(cfg_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    def test_rerun_same_seed_identical_bytes(self, tmp_path, garment_obj):
        a, b = tmp_path / "a.geo1", tmp_path / "b.geo1"
        for out in (a, b):
            rc = cli.main(["preprocess", "--garment", str(garment_obj),
                           "--embed-dim", "2", "--out", str(out), "--seed", "5"])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()


class TestTrainCli:
    def test_one_iteration_writes_outputs(self, tmp_path, garment_obj):
        cfg_path = small_config_file(tmp_path, garment_obj, iterations=1)
        assert cli.main(["preprocess", "--garment", str(garment_obj),
                         "--embed-dim", "3"]) == 0
        out = tmp_path / "run"
        rc = cli.main(["train", "--config", str(cfg_path), "--out", str(out),
                       "--quiet"])
        assert rc == 0
        assert (out / "checkpoint_final.ckpt").exists()
        assert (out / "config.json").exists()
        assert len((out / "train_log.jsonl").read_text().splitlines()) == 1

    def test_missing_embedding_exits_2_naming_garment(self, tmp_path, garment_obj,
                                                      capsys):
        cfg_path = small_config_file(tmp_path, garment_obj)
        rc = cli.main(["train", "--config", str(cfg_path),
                       "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "grid.obj" in capsys.readouterr().err

    def test_embedding_dimension_mismatch_exits_2(self, tmp_path, garment_obj, capsys):
        cfg_path = small_config_file(tmp_path, garment_obj, iterations=1)
        assert cli.main(["preprocess", "--garment", str(garment_obj),
                         "--embed-dim", "2"]) == 0
        capsys.readouterr()
        rc = cli.main(["train", "--config", str(cfg_path),
                       "--out", str(tmp_path / "run"), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "dimension" in err and "re-run preprocess" in err

    @pytest.mark.parametrize("bad, named", [
        ({"physics": {"density": 1.0}}, "density"),
        ({"trainer": {"scenes": 5}}, "trainer.scenes"),
        ({"trainer": {"scenes": [{"garment": 5}]}}, "trainer.scenes[0].garment"),
        ({"model": {"hidden_dim": True}}, "model.hidden_dim"),
        # a removed key, as echoed by configs and checkpoints from before
        ({"model": {"standardize_embedding": False}}, "standardize_embedding"),
        ({"sim": {"body_gap": "0.015"}}, "sim.body_gap"),
        ({"physics": {"weights": {"stretch": "1"}}}, "physics.weights.stretch"),
        # SMACOF needs at least one iteration
        ({"geodesic": {"mds_max_iters": 0}}, "geodesic.mds_max_iters"),
        # a float field takes finite values only; an int beyond float64 too large
        ({"mesh": {"density": float("nan")}}, "mesh.density"),
        ({"physics": {"dt": float("inf")}}, "physics.dt"),
        ({"physics": {"weights": {"stretch": 10 ** 400}}}, "physics.weights.stretch"),
    ] + [
        # keys made constants, as echoed by configs and checkpoints from before
        ({section: {key: value}}, f"unknown config key(s) ['{key}'] under '{section}'")
        for section, key, value in REMOVED_KEYS
    ] + [
        ({"trainer": {"seed": -1}}, "config key 'trainer.seed' must be >= 0"),
    ] + [
        # exclusive lower bounds and the upper bound of the schema
        ({"mesh": {"density": -1}}, "config key 'mesh.density' must be > 0"),
        ({"mesh": {"world_edge_radius_factor": -1}},
         "config key 'mesh.world_edge_radius_factor' must be > 0"),
        ({"physics": {"collision_margin": 0}},
         "config key 'physics.collision_margin' must be > 0"),
        ({"physics": {"dt": 0}}, "config key 'physics.dt' must be > 0"),
        ({"physics": {"huber_delta": 0}}, "config key 'physics.huber_delta' must be > 0"),
        ({"physics": {"up_axis": 3}}, "config key 'physics.up_axis' must be <= 2"),
    ])
    def test_invalid_config_exits_2(self, tmp_path, capsys, bad, named):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(bad))
        rc = cli.main(["train", "--config", str(cfg_path),
                       "--out", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("section, key, value", [
        ("model", "hidden_dim", 0),
        ("trainer", "warmup_steps", -3),
        ("model", "smoothing_steps", -1),
        ("model", "lsdmp_layers", -1),
        ("model", "gsa_blocks", -2),
        ("trainer", "time_horizon", -1),
        ("mesh", "world_edge_radius", -1),
        ("physics", "k_stretch", -1),
        ("physics", "k_bend", -1e-4),
        ("physics", "k_collision", -1),
        ("physics", "friction_mu", -1),
        ("physics", "up_axis", -1),
        ("trainer", "learning_rate", -0.1),
    ])
    def test_out_of_range_config_exits_2(self, tmp_path, garment_obj, capsys,
                                         section, key, value):
        cfg_path = small_config_file(tmp_path, garment_obj, iterations=1)
        data = json.loads(cfg_path.read_text())
        data[section][key] = value
        cfg_path.write_text(json.dumps(data))
        assert cli.main(["preprocess", "--garment", str(garment_obj),
                         "--embed-dim", "3"]) == 0
        capsys.readouterr()
        rc = cli.main(["train", "--config", str(cfg_path),
                       "--out", str(tmp_path / "run"), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{section}.{key}" in err and ">=" in err and "Traceback" not in err

    @pytest.mark.parametrize("section, key, value", [
        ("trainer", "learning_rate", 0), ("mesh", "world_edge_radius", 0),
        ("physics", "up_axis", 0), ("physics", "up_axis", 2), ("physics", "k_stretch", 0),
    ])
    def test_range_bounds_themselves_load(self, section, key, value):
        cfg = config_from_dict({section: {key: value}})
        assert getattr(getattr(cfg, section), key) == value

    def test_iters_zero_exits_2_naming_flag_and_key(self, tmp_path, garment_obj, capsys):
        cfg_path = small_config_file(tmp_path, garment_obj, iterations=1)
        rc = cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run"),
                       "--iters", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--iters must be >= 1, got 0" in err and "'trainer.iterations'" in err
        assert "Traceback" not in err and not (tmp_path / "run").exists()

    def test_drift_warmup_mode_exits_2(self, tmp_path, garment_obj, capsys):
        # "model" is the only warm-up; the key stays for configs that set it
        cfg_path = small_config_file(tmp_path, garment_obj, iterations=1)
        data = json.loads(cfg_path.read_text())
        data["trainer"]["warmup_mode"] = "drift"
        cfg_path.write_text(json.dumps(data))
        rc = cli.main(["train", "--config", str(cfg_path),
                       "--out", str(tmp_path / "run"), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "trainer.warmup_mode" in err and "Traceback" not in err

    def test_config_accepts_int_for_float_and_null_for_optional(self):
        cfg = config_from_dict({
            "physics": {"dt": 1, "weights": {"stretch": 2}},
            "trainer": {"scenes": [{"garment": "g.obj", "amplitude": None}]}})
        assert cfg.physics.dt == 1 and cfg.physics.weights["stretch"] == 2.0
        assert cfg.trainer.scenes[0].amplitude is None

    def test_identical_invocations_identical_checkpoints(self, tmp_path, garment_obj):
        cfg_path = small_config_file(tmp_path, garment_obj)
        assert cli.main(["preprocess", "--garment", str(garment_obj),
                         "--embed-dim", "3"]) == 0
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["train", "--config", str(cfg_path), "--out",
                             str(out), "--quiet"]) == 0
            outs.append((out / "checkpoint_final.ckpt").read_bytes())
        assert outs[0] == outs[1]


@pytest.fixture
def trained(tmp_path, garment_obj):
    cfg_path = small_config_file(tmp_path, garment_obj, iterations=2)
    assert cli.main(["preprocess", "--garment", str(garment_obj),
                     "--embed-dim", "3"]) == 0
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out),
                     "--quiet"]) == 0
    return out / "checkpoint_final.ckpt"


class TestSimulateCli:
    def test_single_frame(self, tmp_path, garment_obj, trained):
        out = tmp_path / "frames"
        rc = cli.main(["simulate", "--ckpt", str(trained), "--garment",
                       str(garment_obj), "--body", "static_sphere",
                       "--frames", "1", "--out", str(out)])
        assert rc == 0
        assert sorted(p.name for p in out.glob("frame_*.obj")) == ["frame_00000.obj"]
        assert (out / "metrics.jsonl").exists()
        assert (out / "config.json").exists()

    def test_dt_zero_exits_2(self, tmp_path, garment_obj, trained, capsys):
        capsys.readouterr()
        rc = cli.main(["simulate", "--ckpt", str(trained), "--garment",
                       str(garment_obj), "--body", "static_sphere",
                       "--frames", "1", "--dt", "0",
                       "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--dt must be > 0, got 0.0" in err and "'physics.dt'" in err
        assert "Traceback" not in err and not (tmp_path / "x").exists()

    def test_embedding_dimension_mismatch_exits_2(self, tmp_path, trained, capsys):
        other = tmp_path / "other.obj"
        M.save_obj(other, M.grid_cloth(4, 4))
        assert cli.main(["preprocess", "--garment", str(other),
                         "--embed-dim", "2"]) == 0
        rc = cli.main(["simulate", "--ckpt", str(trained), "--garment",
                       str(other), "--body", "static_sphere", "--frames", "1",
                       "--out", str(tmp_path / "y")])
        assert rc == 2
        assert "dimension" in capsys.readouterr().err

    def test_metrics_finite(self, tmp_path, garment_obj, trained):
        out = tmp_path / "frames30"
        rc = cli.main(["simulate", "--ckpt", str(trained), "--garment",
                       str(garment_obj), "--body", "swinging_capsule",
                       "--frames", "5", "--out", str(out)])
        assert rc == 0
        recs = [json.loads(line)
                for line in (out / "metrics.jsonl").read_text().splitlines()]
        assert len(recs) == 5
        assert all(np.isfinite(r["total"]) for r in recs)


class TestEvalCli:
    def test_empty_scene_list_header_only(self, tmp_path, trained):
        scenes = tmp_path / "scenes.json"
        scenes.write_text("[]")
        report = tmp_path / "report.txt"
        rc = cli.main(["eval", "--ckpt", str(trained), "--scenes", str(scenes),
                       "--report", str(report)])
        assert rc == 0
        text = report.read_text()
        assert "Stretch" in text and "Total" in text
        assert len([l for l in text.splitlines() if not l.startswith("#")]) == 1

    def test_one_scene_row_total_matches_weighted_sum(self, tmp_path, garment_obj,
                                                      trained):
        scenes = tmp_path / "scenes.json"
        scenes.write_text(json.dumps(
            [{"garment": str(garment_obj), "body": "static_sphere"}]))
        report = tmp_path / "report.txt"
        rc = cli.main(["eval", "--ckpt", str(trained), "--scenes", str(scenes),
                       "--report", str(report), "--frames", "3"])
        assert rc == 0
        lines = [l for l in report.read_text().splitlines()
                 if not l.startswith("#")]
        assert len(lines) == 2
        cells = lines[1].split()
        vals = [float(c) for c in cells[1:]]
        weights_line = [l for l in report.read_text().splitlines()
                        if "weights:" in l][0]
        weights = json.loads(weights_line.split("weights: ")[1])
        expected = sum(weights[k] * v
                       for k, v in zip(cli.EVAL_COLUMNS, vals[:-1]))
        assert abs(expected - vals[-1]) <= 1e-9 * max(1.0, abs(expected))

    def test_bad_scene_key_exits_2(self, tmp_path, trained):
        scenes = tmp_path / "scenes.json"
        scenes.write_text(json.dumps([{"garment": "x.obj", "bogus": 1}]))
        rc = cli.main(["eval", "--ckpt", str(trained), "--scenes", str(scenes),
                       "--report", str(tmp_path / "r.txt")])
        assert rc == 2

    def test_non_object_scene_exits_2(self, tmp_path, trained, capsys):
        scenes = tmp_path / "scenes.json"
        scenes.write_text("[5]")
        rc = cli.main(["eval", "--ckpt", str(trained), "--scenes", str(scenes),
                       "--report", str(tmp_path / "r.txt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "scenes.json[0]" in err and "Traceback" not in err


class TestBenchCli:
    def test_single_size_single_row(self, tmp_path, capsys):
        cfg = config_from_dict({
            "model": {"hidden_dim": 8, "lsdmp_layers": 2, "smoothing_steps": 1,
                      "gsa_blocks": 1},
            "geodesic": {"embed_dim": 2},
        })
        cfg_path = tmp_path / "c.json"
        save_config(cfg_path, cfg)
        rc = cli.main(["bench", "--sizes", "25", "--layers", "1,2",
                       "--config", str(cfg_path)])
        assert rc == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if l.strip().startswith("25")]
        assert len(rows) == 1

    def test_layers_exceeding_depth_exits_2(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        save_config(cfg_path, config_from_dict(
            {"model": {"lsdmp_layers": 2, "hidden_dim": 8, "gsa_blocks": 1},
             "geodesic": {"embed_dim": 2}}))
        rc = cli.main(["bench", "--sizes", "16", "--layers", "5",
                       "--config", str(cfg_path)])
        assert rc == 2

    @pytest.mark.parametrize("sizes", ["0", "3", "16,abc"])
    def test_bad_sizes_exit_2(self, capsys, sizes):
        rc = cli.main(["bench", "--sizes", sizes, "--layers", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--sizes" in err and "Traceback" not in err

    def test_negative_layers_exit_2(self, capsys):
        rc = cli.main(["bench", "--sizes", "16", "--layers=-1,0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--layers entries must be >= 0, got -1" in err and "Traceback" not in err


def rewrite_header(path, edit):
    """Replace the JSON header line of a magic-prefixed file by edit(header)."""
    magic, header, rest = path.read_bytes().split(b"\n", 2)
    header = edit(json.loads(header))
    path.write_bytes(magic + b"\n" + json.dumps(header).encode() + b"\n" + rest)


def with_shape(name, edit):
    """A header edit that replaces the shape of parameter `name` by edit(shape)."""
    def apply(header):
        for entry in header["params"]:
            if entry["name"] == name:
                entry["shape"] = edit(entry["shape"])
        return header
    return apply


class TestFileHeaders:
    @pytest.mark.parametrize("edit, named", [
        pytest.param(lambda h: {k: v for k, v in h.items() if k != "n"}, "'n'",
                     id="no-n"),
        pytest.param(lambda h: {k: v for k, v in h.items() if k != "k"}, "'k'",
                     id="no-k"),
        pytest.param(lambda h: {**h, "n": 25.0}, "'n'", id="float-n"),
        pytest.param(lambda h: {**h, "n": "25"}, "'n'", id="string-n"),
        pytest.param(lambda h: {**h, "k": -3}, "'k'", id="negative-k"),
        pytest.param(lambda h: {**h, "n": 2**62, "k": 2**62}, "bytes", id="huge-n-k"),
    ])
    def test_bad_embedding_header_exits_2(self, tmp_path, garment_obj, capsys,
                                          edit, named):
        cfg_path = small_config_file(tmp_path, garment_obj, iterations=1)
        assert cli.main(["preprocess", "--garment", str(garment_obj),
                         "--embed-dim", "3"]) == 0
        rewrite_header(garment_obj.with_suffix(".geo1"), edit)
        capsys.readouterr()
        rc = cli.main(["train", "--config", str(cfg_path),
                       "--out", str(tmp_path / "run"), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "grid.geo1" in err and named in err and "Traceback" not in err

    @pytest.mark.parametrize("edit, named", [
        pytest.param(lambda h: {k: v for k, v in h.items() if k != "params"},
                     "params", id="no-params"),
        pytest.param(lambda h: {**h, "params": [{"name": "x", "shape": [-1]}]},
                     "params", id="negative-shape"),
        pytest.param(lambda h: [h], "params", id="not-an-object"),
        pytest.param(lambda h: {**h, "seed": "x"}, "seed", id="string-seed"),
        pytest.param(with_shape("encoder.vertex.w0", lambda s: [2**62]), "bytes",
                     id="huge-shape"),
        pytest.param(with_shape("encoder.vertex.w0", lambda s: [2**32, 2**32]),
                     "bytes", id="overflowing-shape"),
        pytest.param(with_shape("encoder.world_edge.w0", lambda s: s[::-1]),
                     "encoder.world_edge.w0", id="transposed-shape"),
        pytest.param(lambda h: {**h, "config": {**h["config"], "model": {
            **h["config"]["model"], "hidden_dim": h["config"]["model"]["hidden_dim"] + 1}}},
                     "shape", id="config-hidden-dim"),
        pytest.param(lambda h: {**h, "config": {**h["config"], "trainer": {
            **h["config"]["trainer"], "beta1": 0.9}}},
                     "unknown config key(s) ['beta1'] under 'trainer'", id="removed-key"),
    ])
    def test_bad_checkpoint_header_exits_2(self, tmp_path, garment_obj, trained,
                                           capsys, edit, named):
        rewrite_header(trained, edit)
        capsys.readouterr()
        rc = cli.main(["simulate", "--ckpt", str(trained), "--garment",
                       str(garment_obj), "--body", "static_sphere",
                       "--frames", "1", "--out", str(tmp_path / "frames")])
        assert rc == 2
        err = capsys.readouterr().err
        assert named in err and trained.name in err and "Traceback" not in err

    @pytest.mark.parametrize("section, key, value", [
        ("model", "hidden_dim", 2**40), ("model", "hidden_dim", 20_000),
        ("model", "lsdmp_layers", 10**9), ("model", "gsa_blocks", 10**9),
        ("geodesic", "embed_dim", 10**9),
    ])
    def test_config_echo_sizes_checked_before_the_model_is_built(
            self, tmp_path, garment_obj, trained, capsys, monkeypatch, section, key, value):
        def build_model_params(*args, **kwargs):
            raise AssertionError("the model was built")

        rewrite_header(trained, lambda h: {**h, "config": {**h["config"], section: {
            **h["config"][section], key: value}}})
        monkeypatch.setattr(sim, "build_model_params", build_model_params)
        capsys.readouterr()
        rc = cli.main(["simulate", "--ckpt", str(trained), "--garment",
                       str(garment_obj), "--body", "static_sphere",
                       "--frames", "1", "--out", str(tmp_path / "frames")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{section}.{key}" in err and trained.name in err
        assert "Traceback" not in err


class TestExitCodes:
    def test_unreadable_garment_is_runtime_or_validation(self, tmp_path, capsys):
        rc = cli.main(["preprocess", "--garment", str(tmp_path / "nope.obj"),
                       "--embed-dim", "2"])
        assert rc in (1, 2)

    @pytest.mark.parametrize("command", ["preprocess", "train", "bench"])
    def test_negative_seed_exits_2(self, tmp_path, garment_obj, capsys, command):
        out = tmp_path / "out"
        assert cli.main(["preprocess", "--garment", str(garment_obj),
                         "--embed-dim", "3"]) == 0
        args = {"preprocess": ["--garment", str(garment_obj), "--out", str(out)],
                "train": ["--config", str(small_config_file(tmp_path, garment_obj, 1)),
                          "--out", str(out), "--quiet"],
                "bench": ["--sizes", "16", "--layers", "1"]}[command]
        capsys.readouterr()
        rc = cli.main([command, *args, "--seed", "-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--seed must be >= 0, got -1" in err and "Traceback" not in err
        assert not out.exists()
        if command == "train":  # train's --seed sets a config key
            assert "'trainer.seed'" in err

    @pytest.mark.parametrize("command", ["simulate", "eval"])
    def test_zero_frames_exits_2_naming_the_flag(self, tmp_path, garment_obj, trained,
                                                capsys, command):
        scenes = tmp_path / "scenes.json"
        scenes.write_text(json.dumps([{"garment": str(garment_obj)}]))
        args = {"simulate": ["--garment", str(garment_obj), "--body", "static_sphere",
                             "--out", str(tmp_path / "frames")],
                "eval": ["--scenes", str(scenes), "--report", str(tmp_path / "r.txt")]}
        capsys.readouterr()
        rc = cli.main([command, "--ckpt", str(trained), "--frames", "0", *args[command]])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--frames must be >= 1, got 0" in err and "Traceback" not in err


# -- fuzz: mutated OBJ garments through `preprocess` ---------------------------

GRID_4X4 = M.grid_cloth(4, 4)
GRID_OBJ_LINES = M.obj_text(GRID_4X4.vertices, GRID_4X4.triangles).splitlines()


def n_components(mesh):
    """Connected components of the triangles' vertex graph, by union-find;
    a vertex in no triangle is a component of its own."""
    parent = list(range(mesh.n_vertices))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2])):
            parent[root(int(a))] = root(int(b))
    return len({root(v) for v in range(mesh.n_vertices)})


@st.composite
def mutated_obj(draw):
    """The 4x4 grid's OBJ lines after one to three edits."""
    lines = list(GRID_OBJ_LINES)
    for _ in range(draw(st.integers(1, 3))):
        faces = [i for i, line in enumerate(lines) if line.startswith("f ")]
        verts = [i for i, line in enumerate(lines) if line.startswith("v ")]
        # token edits: (lines to edit, replacement tokens)
        swaps = {"face_index": (faces, ["0", "-1", "-17", str(len(verts) + 1), "9" * 20]),
                 "token": (faces + verts, ["x", "1..2", "--3", "1e", "0x10"]),
                 "coordinate": (verts, ["nan", "inf", "-inf", "1e300", "-1e308", "1e200",
                                        "1e-320"])}
        kind = draw(st.sampled_from(["delete", "duplicate_face", "isolated", "patch",
                                     *swaps]))
        if kind == "delete" and lines:
            del lines[draw(st.integers(0, len(lines) - 1))]
        elif kind == "duplicate_face" and faces:
            lines.append(lines[draw(st.sampled_from(faces))])
        elif kind == "isolated":
            lines.append("v 3 3 3")
        elif kind == "patch":  # a triangle apart from the grid
            k = len(verts)
            lines += ["v 10 0 0", "v 11 0 0", "v 10 0 1", f"f {k + 1} {k + 2} {k + 3}"]
        elif kind in swaps and swaps[kind][0]:
            rows, values = swaps[kind]
            row = draw(st.sampled_from(rows))
            tokens = lines[row].split()
            tokens[draw(st.integers(1, len(tokens) - 1))] = draw(st.sampled_from(values))
            lines[row] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("obj-fuzz")


@given(text=mutated_obj())
@settings(max_examples=150, deadline=None)
def test_mutated_obj_preprocess_exits_cleanly(fuzz_dir, text):
    garment, out = fuzz_dir / "garment.obj", fuzz_dir / "garment.geo1"
    garment.write_text(text)
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["preprocess", "--garment", str(garment), "--out", str(out),
                       "--embed-dim", "2"])
    assert rc in (0, 1, 2) and "Traceback" not in err.getvalue()
    try:
        mesh = M.parse_obj(text)
    except ValidationError:
        assert rc == 2
        return
    if n_components(mesh) > 1:
        assert rc == 2
    else:  # whatever else fails, a connected mesh is not called disconnected
        assert "connected components" not in err.getvalue()
    if rc == 0:
        header, coords = geo.load_embedding(out)
        assert np.isfinite(coords).all() and np.isfinite(header["final_stress"])


# -- fuzz: mutated config bytes through `preprocess` ---------------------------

CONFIG_BYTES = json.dumps({
    "mesh": {"density": 0.2, "world_edge_radius_factor": 1.5, "world_edge_radius": 0.0},
    "geodesic": {"embed_dim": 2, "mds_max_iters": 60},
    "model": {"hidden_dim": 8, "lsdmp_layers": 1, "smoothing_steps": 1, "gsa_blocks": 1},
    "physics": {"dt": 0.05, "k_stretch": 50.0, "up_axis": 1,
                "weights": {"stretch": 1.0, "gravity": 1.0}},
    "sim": {"placement_height": 0.0, "body_gap": 0.015},
    "trainer": {"iterations": 2, "learning_rate": 1e-4, "warmup_mode": "model",
                "scenes": [{"garment": "g.obj", "body": "static_sphere",
                            "amplitude": None}]},
}).encode()

# fragments a mutation splices in: JSON syntax, non-finite and huge numbers
# (an integer beyond float64, one beyond Python's 4,300-digit parsing limit),
# wrong types and bytes that are not UTF-8
CONFIG_FRAGMENTS = [b"", b'"', b"{", b"}", b"[", b"]", b",", b":", b"-", b".", b"e",
                    b"0", b"9", b"1e999", b"-1e999", b"NaN", b"Infinity", b"9" * 30,
                    b"9" * 400, b"9" * 5000, b"null", b"true", b"[]", b"{}", b'"x"',
                    b"\xff", b"\xc3", b"\x00", b'{"a": 1}']


@st.composite
def mutated_config(draw):
    """The config's bytes after one to three splices of a fragment or of a
    slice of the config itself."""
    data = CONFIG_BYTES
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(data)))
        stop = draw(st.integers(start, min(len(data), start + 8)))
        if draw(st.booleans()):
            piece = draw(st.sampled_from(CONFIG_FRAGMENTS))
        else:  # a slice of the config: duplicates keys, sections and numbers
            at = draw(st.integers(0, len(data)))
            piece = data[at:at + draw(st.integers(1, 40))]
        data = data[:start] + piece + data[stop:]
    return data


@pytest.fixture(scope="module")
def config_fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("config-fuzz")
    M.save_obj(path / "grid.obj", M.grid_cloth(3, 3))
    return path


@given(data=mutated_config())
@settings(max_examples=200, deadline=None)
def test_mutated_config_preprocess_exits_cleanly(config_fuzz_dir, data):
    cfg_path, out = config_fuzz_dir / "config.json", config_fuzz_dir / "grid.geo1"
    cfg_path.write_bytes(data)
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["preprocess", "--garment", str(config_fuzz_dir / "grid.obj"),
                       "--config", str(cfg_path), "--out", str(out)])
    # a config is user input: a bad one is a validation failure, never exit 1
    assert rc in (0, 2) and "Traceback" not in err.getvalue()
    assert out.exists() == (rc == 0)


@pytest.mark.parametrize("data", [b'{"mesh": {"density": 0.2\xff}}',
                                  b'{"mesh": {"density": 1' + b"0" * 5000 + b"}}",
                                  b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-utf-8", "integer-over-4300-digits", "nested-too-deep"])
def test_unreadable_config_exits_2_naming_the_file(tmp_path, garment_obj, capsys, data):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_bytes(data)
    rc = cli.main(["preprocess", "--garment", str(garment_obj), "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 2 and f"{cfg_path}: invalid JSON config" in err

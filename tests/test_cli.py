import json
import re

import numpy as np
import pytest

from eslrsim import cli
from eslrsim import mesh as M
from eslrsim.config import config_from_dict, save_config


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


class TestPreprocess:
    def test_writes_embedding_and_prints_stress(self, tmp_path, garment_obj, capsys):
        out = tmp_path / "grid.geo1"
        rc = cli.main(["preprocess", "--garment", str(garment_obj),
                       "--embed-dim", "2", "--out", str(out)])
        assert rc == 0 and out.exists()
        stdout = capsys.readouterr().out
        assert "final stress" in stdout and "effective config" in stdout

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

    @pytest.mark.parametrize("bad, named", [
        ({"physics": {"density": 1.0}}, "density"),
        ({"trainer": {"scenes": 5}}, "trainer.scenes"),
        ({"trainer": {"scenes": [{"garment": 5}]}}, "trainer.scenes[0].garment"),
        ({"model": {"hidden_dim": True}}, "model.hidden_dim"),
        # a removed key, as echoed by configs and checkpoints from before
        ({"model": {"standardize_embedding": False}}, "standardize_embedding"),
        ({"sim": {"sphere_radius": "0.3"}}, "sim.sphere_radius"),
        ({"physics": {"weights": {"stretch": "1"}}}, "physics.weights.stretch"),
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

    def test_dt_zero_exits_2(self, tmp_path, garment_obj, trained):
        rc = cli.main(["simulate", "--ckpt", str(trained), "--garment",
                       str(garment_obj), "--body", "static_sphere",
                       "--frames", "1", "--dt", "0",
                       "--out", str(tmp_path / "x")])
        assert rc == 2

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


def rewrite_header(path, edit):
    """Replace the JSON header line of a magic-prefixed file by edit(header)."""
    magic, header, rest = path.read_bytes().split(b"\n", 2)
    header = edit(json.loads(header))
    path.write_bytes(magic + b"\n" + json.dumps(header).encode() + b"\n" + rest)


class TestFileHeaders:
    @pytest.mark.parametrize("edit, named", [
        pytest.param(lambda h: {k: v for k, v in h.items() if k != "n"}, "'n'",
                     id="no-n"),
        pytest.param(lambda h: {k: v for k, v in h.items() if k != "k"}, "'k'",
                     id="no-k"),
        pytest.param(lambda h: {**h, "n": 25.0}, "'n'", id="float-n"),
        pytest.param(lambda h: {**h, "n": "25"}, "'n'", id="string-n"),
        pytest.param(lambda h: {**h, "k": -3}, "'k'", id="negative-k"),
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
        assert named in err and "Traceback" not in err


class TestExitCodes:
    def test_unreadable_garment_is_runtime_or_validation(self, tmp_path, capsys):
        rc = cli.main(["preprocess", "--garment", str(tmp_path / "nope.obj"),
                       "--embed-dim", "2"])
        assert rc in (1, 2)

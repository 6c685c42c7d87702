"""The `.ckpt`/`.geo1` container: its reader and writer, and a fuzz of both
files through `eslrsim simulate`."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eslrsim import cli, container
from eslrsim import geodesic as G
from eslrsim import mesh as M
from eslrsim import tensor as T
from eslrsim.config import config_from_dict, save_config
from eslrsim.errors import ValidationError
from support import save_obj

MAGIC = b"TEST-CONTAINER\n"


def layout_of(header):
    return {name: tuple(shape) for name, shape in header["blocks"]}


def write_blocks(path, blocks):
    header = {"blocks": [[name, list(b.shape)] for name, b in blocks.items()]}
    container.write(path, MAGIC, header, blocks.values())


class TestContainer:
    def test_layout_and_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        blocks = {"a": rng.standard_normal((3, 2)), "b": np.array(1.5),
                  "c": np.zeros((0, 4)), "d": rng.standard_normal(5)}
        path = tmp_path / "x.bin"
        write_blocks(path, blocks)
        raw = path.read_bytes()
        header = {"blocks": [[n, list(b.shape)] for n, b in blocks.items()]}
        assert raw == (MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n"
                       + b"".join(b.astype("<f8").tobytes() for b in blocks.values()))
        got_header, got = container.read(path, MAGIC, "a test", layout_of)
        assert got_header == header and list(got) == list(blocks)
        for name, b in blocks.items():
            assert got[name].shape == b.shape and got[name].tobytes() == b.tobytes()

    @pytest.mark.parametrize("cut", [1, 8, 15])
    def test_truncated_or_extended_file_is_rejected(self, tmp_path, cut):
        path = tmp_path / "x.bin"
        write_blocks(path, {"a": np.ones((2, 2))})
        raw = path.read_bytes()
        for data in (raw[:-cut], raw + b"\0" * cut):
            path.write_bytes(data)
            with pytest.raises(ValidationError, match="x.bin: header describes 32 bytes"):
                container.read(path, MAGIC, "a test", layout_of)

    @pytest.mark.parametrize("shape", [[2 ** 62], [2 ** 32, 2 ** 32], [2 ** 40] * 4])
    def test_huge_blocks_are_rejected_before_any_read(self, tmp_path, shape):
        path = tmp_path / "x.bin"
        path.write_bytes(MAGIC + json.dumps({"blocks": [["a", shape]]}).encode()
                         + b"\n" + b"\0" * 16)
        with pytest.raises(ValidationError, match="but 16 bytes follow it"):
            container.read(path, MAGIC, "a test", layout_of)

    @pytest.mark.parametrize("header", [b"[1, 2]", b"7", b"{nope", b"\xff\xfe",
                                        b"[" * 100_000, b"1" * 5_000])
    def test_unreadable_or_non_object_header_is_rejected(self, tmp_path, header):
        path = tmp_path / "x.ckpt"
        path.write_bytes(T.CHECKPOINT_MAGIC + header + b"\n")
        with pytest.raises(ValidationError, match="x.ckpt: .*(header|params)"):
            T.load_checkpoint(path)

    def test_bad_magic_names_the_kind(self, tmp_path):
        path = tmp_path / "x.geo1"
        path.write_bytes(T.CHECKPOINT_MAGIC + b"{}\n")
        with pytest.raises(ValidationError, match="not an embedding file"):
            G.load_embedding(path)

    def test_duplicate_parameter_names_are_rejected(self, tmp_path):
        params = T.ModelParams()
        params.add("w", np.ones(2))
        path = tmp_path / "m.ckpt"
        T.save_checkpoint(path, params, {}, 0, 0)
        magic, header, body = path.read_bytes().split(b"\n", 2)
        header = json.loads(header)
        header["params"] *= 2
        path.write_bytes(magic + b"\n" + json.dumps(header).encode() + b"\n" + body * 2)
        with pytest.raises(ValidationError, match="unique names"):
            T.load_checkpoint(path)

    def test_load_state_dict_shape_mismatch_is_a_validation_error(self):
        params = T.ModelParams()
        params.add("w", np.ones((2, 3)))
        with pytest.raises(ValidationError, match="'w' has shape"):
            params.load_state_dict({"w": np.ones((3, 2))})


# -- fuzz: mutated .ckpt and .geo1 files through `simulate` ---------------------

@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A valid tiny checkpoint and embedding: 4x4 grid, h=4, one layer."""
    root = tmp_path_factory.mktemp("fuzz")
    garment = root / "grid.obj"
    save_obj(garment, M.grid_cloth(4, 4))
    cfg_path = root / "config.json"
    save_config(cfg_path, config_from_dict({
        "model": {"hidden_dim": 4, "lsdmp_layers": 1, "smoothing_steps": 1,
                  "gsa_blocks": 1},
        "geodesic": {"embed_dim": 2},
        "trainer": {"iterations": 1, "checkpoint_interval": 0, "warmup_steps": 1,
                    "scenes": [{"garment": str(garment), "body": "static_sphere"}]}}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["preprocess", "--garment", str(garment),
                         "--config", str(cfg_path)]) == 0
        assert cli.main(["train", "--config", str(cfg_path), "--out",
                         str(root / "run"), "--quiet"]) == 0
    ckpt, geo = root / "run" / "checkpoint_final.ckpt", garment.with_suffix(".geo1")
    return {"root": root, "garment": garment, "ckpt": ckpt, "geo": geo,
            "good": {"ckpt": ckpt.read_bytes(), "geo": geo.read_bytes()}}


def simulate(files, which, data) -> int:
    """`simulate` with `data` as the `which` file and the other file intact;
    no exception may escape and no traceback may be printed."""
    for key in ("ckpt", "geo"):
        files[key].write_bytes(data if key == which else files["good"][key])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["simulate", "--ckpt", str(files["ckpt"]), "--garment",
                       str(files["garment"]), "--body", "static_sphere",
                       "--frames", "1", "--out", str(files["root"] / "frames")])
    assert rc in (0, 1, 2) and "Traceback" not in err.getvalue()
    if rc == 2:
        assert files[which].name in err.getvalue()
    return rc


def split(data):
    magic, header, body = data.split(b"\n", 2)
    return magic, json.loads(header), body


def join(magic, header, body):
    return magic + b"\n" + json.dumps(header).encode() + b"\n" + body


def checkpoint_edits(h):
    """Edits `(keys, value)` of the valid checkpoint header `h`; each makes a
    dimension invalid or disagree with the blocks or with the model."""
    edits = [(("seed",), v) for v in (-1, 2.5, "3", None, True)]
    edits += [(("config", section, key), h["config"][section][key] + delta)
              for section, key in [("model", "hidden_dim"), ("model", "lsdmp_layers"),
                                   ("model", "gsa_blocks"), ("geodesic", "embed_dim")]
              for delta in (1, 3)]
    for i, entry in enumerate(h["params"]):
        s = entry["shape"]
        for shape in ([2 ** 62], [2 ** 32, 2 ** 32], s[:-1] + [-1 - s[-1]],
                      s[:-1] + [float(s[-1])], s[:-1] + [s[-1] + 1], s[::-1]):
            if shape != s:  # a square or 1-d shape is its own transpose
                edits.append((("params", i, "shape"), shape))
    return edits


def embedding_edits(h):
    """Edits `(keys, value)` of the valid embedding header `h`, as above."""
    edits = [(("n",), h["k"]), (("k",), h["n"]),  # the swap keeps the byte count
             (("final_stress",), "x"), (("final_stress",), None)]
    for key in ("n", "k"):
        edits += [((key,), v) for v in (-1, float(h[key]), 2 ** 62, str(h[key]),
                                        None, True, h[key] - 1, h[key] + 1)]
    return edits


def put(header, keys, value):
    for key in keys[:-1]:
        header = header[key]
    header[keys[-1]] = value


class TestFileFuzz:
    def test_valid_files_simulate(self, files):
        assert simulate(files, "ckpt", files["good"]["ckpt"]) == 0

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_header_mutations_exit_2(self, files, data):
        for which, edits in (("ckpt", checkpoint_edits), ("geo", embedding_edits)):
            magic, header, body = split(files["good"][which])
            put(header, *data.draw(st.sampled_from(edits(header))))
            assert simulate(files, which, join(magic, header, body)) == 2

    def test_distance_block_exits_2(self, files):
        # the layout of files written with `preprocess --keep-distances`, which
        # is gone: an n x n block after the coordinates fails the size check
        magic, header, body = split(files["good"]["geo"])
        header["has_distances"] = True
        extended = join(magic, header, body + bytes(8 * header["n"] ** 2))
        assert simulate(files, "geo", extended) == 2

    @given(st.sampled_from(["ckpt", "geo"]), st.floats(0.0, 1.0, exclude_max=True))
    @settings(max_examples=30, deadline=None)
    def test_truncation_exits_2(self, files, which, at):
        good = files["good"][which]
        assert simulate(files, which, good[:int(at * len(good))]) == 2

    @given(st.sampled_from(["ckpt", "geo"]), st.floats(0.0, 1.0, exclude_max=True),
           st.integers(1, 255))
    @settings(max_examples=30, deadline=None)
    def test_flipped_body_bytes_exit_cleanly(self, files, which, at, mask):
        good = bytearray(files["good"][which])
        body_start = good.index(b"\n", good.index(b"\n") + 1) + 1
        good[body_start + int(at * (len(good) - body_start))] ^= mask
        simulate(files, which, bytes(good))

"""The three workloads: inputs made from a seed, a timed loop of whole rounds,
and correctness checks that run after the timing.

Each workload is a class with `setup(seed)`, `round()` (runs one round and
returns the seconds of each operation in it) and `check()` (returns a list of
failure messages). `measure` drives one of them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import oracles
import tracer as tracing

from eslrsim import cli, config, geodesic, gsa, lsdmp, mesh, physics, sim, tensor, trainer

PROGRAM = SimpleNamespace(mesh=mesh, lsdmp=lsdmp, gsa=gsa, sim=sim, physics=physics,
                          tensor=tensor, trainer=trainer, geodesic=geodesic)
SETUP_REPS = 5
TERMS = ("stretch", "bending", "collision", "gravity", "inertia", "friction")


def _quiet():
    """Swallow the program's config echo so the result stays the last line."""
    return contextlib.redirect_stdout(io.StringIO())


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _fresh(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


# -- train-desk -----------------------------------------------------------------

class TrainDesk:
    """trainer.train on the desk setup: 10x10 cloth, 0.6 m, over static_sphere;
    4 LSDMP layers, s=3, 2 GSA blocks, h=64, model-mode warm-up of 0-5 steps.
    A round is one 200-iteration training run from the same fixed trainer
    seed, so every round trains the same sequence of warm-up depths."""

    name = "train-desk"
    round_ops = 200
    min_samples = 200
    # 200 samples leave ten beyond p95 and twenty beyond p90. Between sets of
    # ten runs p95 spread by 0.19-0.26 of its median on a 2-core VM, p90 by 0.14.
    tail_pct = 90
    train_seed = 0
    smooth_window = 50
    fd_entries = 24
    fd_steps = (1e-5, 1e-6, 1e-7)
    fd_bound = 1e-4

    def __init__(self, out: Path):
        self.out = out
        self.rounds = []

    def setup(self, seed: int):
        self.seed = seed
        _fresh(self.out)
        verts, tris = oracles.grid(10, 0.6)
        garment = _write(self.out / "desk.obj", oracles.obj_text(verts, tris))
        cfg_path = _write(self.out / "desk.json", json.dumps({
            "model": {"hidden_dim": 64, "lsdmp_layers": 4, "smoothing_steps": 3,
                      "gsa_blocks": 2},
            "geodesic": {"embed_dim": 8},
            "sim": {"body_gap": 0.005},
            "trainer": {"iterations": self.round_ops, "seed": self.train_seed,
                        "checkpoint_interval": 0, "warmup_steps": 5,
                        "warmup_mode": "model",
                        "scenes": [{"garment": str(garment), "body": "static_sphere"}]},
        }))
        with _quiet():
            code = cli.main(["preprocess", "--garment", str(garment),
                             "--seed", str(seed)])
        if code != 0:
            raise RuntimeError(f"preprocess of the desk garment exited {code}")
        self.cfg = config.load_config(cfg_path)
        self.scene = sim.scene_from_spec(self.cfg.trainer.scenes[0], self.cfg)

    def round(self) -> list[float]:
        res = trainer.train(self.cfg, self.out / "run")
        with open(res.log_path, "r", encoding="utf-8") as fh:
            log = [json.loads(line) for line in fh]
        self.rounds.append((log, res.checkpoint_path.read_bytes()))
        return list(np.diff([0.0] + [rec["wall_time"] for rec in log]))

    def check(self) -> list[str]:
        fails = []
        log, ckpt = self.rounds[-1]
        weights = self.cfg.physics.weights
        if len(log) != self.round_ops:
            fails.append(f"log has {len(log)} of {self.round_ops} iterations")
        for rec in log:
            parts = [weights[k] * rec[k] for k in TERMS]
            if not all(math.isfinite(v) for v in parts + [rec["total"]]):
                fails.append(f"iteration {rec['iteration']}: non-finite loss")
            elif abs(sum(parts) - rec["total"]) > 1e-12 * sum(abs(p) for p in parts):
                fails.append(f"iteration {rec['iteration']}: total {rec['total']!r} "
                             f"!= weighted sum {sum(parts)!r}")
        totals = np.array([rec["total"] for rec in log])
        start = totals[:self.smooth_window].mean()
        end = totals[-self.smooth_window:].mean()
        if not end < start:
            fails.append(f"smoothed loss did not fall: {start:.4g} -> {end:.4g}")
        strip = lambda recs: [{k: v for k, v in r.items() if k != "wall_time"}
                              for r in recs]
        if any(strip(r[0]) != strip(log) or r[1] != ckpt for r in self.rounds):
            fails.append("rounds with the same seed wrote different logs or checkpoints")
        return fails + self._gradient_check(ckpt)

    def _gradient_check(self, ckpt: bytes) -> list[str]:
        """Autodiff against finite differences of the final model's step loss,
        on a seeded sample of parameter entries and a seeded cloth state.

        The error is scaled as in the program's FD criterion: by the largest
        gradient magnitude of the parameter, floored at 1e-6 max(1, |loss|).
        Where a difference straddles a ReLU kink, the one-sided difference on
        the kink-free side still matches, and a smaller step avoids the kink;
        a wrong gradient matches none of them.
        """
        path = self.out / "final.ckpt"
        path.write_bytes(ckpt)
        state_dict, _ = tensor.load_checkpoint(path)
        params = sim.build_model_params(self.cfg.model, self.cfg.geodesic.embed_dim,
                                        seed=self.train_seed)
        params.load_state_dict(state_dict)
        rng = np.random.default_rng(self.seed)
        state = sim.initial_state(self.scene.garment, self.scene.body, self.cfg)
        state.x_g = state.x_g + 1e-3 * rng.standard_normal(state.x_g.shape)
        state.q_g = 0.02 * rng.standard_normal(state.q_g.shape)

        def loss():
            out = sim.step(state, params, self.scene)
            return sim.step_loss(state, out, self.scene)[0]

        params.zero_grad()
        f0 = loss()
        tensor.backward(f0)
        grads = params.grads()
        f0 = float(f0.data)
        floor = 1e-6 * max(1.0, abs(f0))
        names = params.names()
        sizes = np.array([params[n].data.size for n in names])
        picks = rng.choice(sizes.sum(), size=self.fd_entries, replace=False)
        owner = np.searchsorted(np.cumsum(sizes), picks, side="right")
        fails = []
        for flat, i in zip(picks, owner):
            name = names[i]
            j = int(flat - sizes[:i].sum())
            t = params[name]
            ad = float(grads[name].flat[j])
            scale = max(float(np.abs(grads[name]).max()), floor)
            errs = []
            for h in self.fd_steps:
                orig = t.data.flat[j]
                with tensor.no_grad():
                    t.data.flat[j] = orig + h
                    fp = float(loss().data)
                    t.data.flat[j] = orig - h
                    fm = float(loss().data)
                t.data.flat[j] = orig
                for fd in ((fp - fm) / (2 * h), (fp - f0) / h, (f0 - fm) / h):
                    errs.append(abs(fd - ad) / max(scale, abs(fd)))
                if min(errs) <= self.fd_bound:
                    break
            if min(errs) > self.fd_bound:
                fails.append(f"gradient of {name}[{j}]: autodiff {ad:.6e}, "
                             f"scaled error {min(errs):.2e} > {self.fd_bound}")
        return fails


# -- rollout-2k -------------------------------------------------------------------

class Rollout2k:
    """No-grad rollout of a 45x45 grid (2,025 vertices) against swinging_capsule
    at the default depth (15 layers, s=3, 4 GSA blocks), writing OBJ frames and
    metrics.jsonl as `eslrsim simulate` does. A round is 8 frames from the
    same initial state; the capsule stays in contact through all of them."""

    name = "rollout-2k"
    round_ops = 8
    min_samples = 40
    tail_pct = 75  # 40 samples leave ten beyond the 75th percentile
    side = 45
    size = 1.0
    output_scale = 0.01  # seeded values for the zero-initialised output layers

    def __init__(self, out: Path):
        self.out = out
        self.rounds = []

    def setup(self, seed: int):
        _fresh(self.out)
        rng = np.random.default_rng(seed)
        self.rest, self.tris = oracles.grid(self.side, self.size)
        garment = _write(self.out / "garment.obj", oracles.obj_text(self.rest, self.tris))
        n = len(self.rest)
        # embedding: the flat grid's own (x, z) plus six small seeded columns
        coords = np.concatenate([self.rest[:, [0, 2]],
                                 0.01 * rng.standard_normal((n, 6))], axis=1)
        oracles.write_embedding(self.out / "garment.geo1", coords)
        cfg = config.RunConfig()
        params = sim.build_model_params(cfg.model, cfg.geodesic.embed_dim, seed=seed)
        for name, t in params.items():
            if not np.any(t.data) and (name.endswith(".w2") or name.endswith(".wo")):
                t.data = self.output_scale * rng.standard_normal(t.data.shape)
        ckpt = self.out / "model.ckpt"
        tensor.save_checkpoint(ckpt, params, config.config_to_dict(cfg), 0, seed)
        # what `simulate` does before its first frame
        state_dict, header = tensor.load_checkpoint(ckpt)
        self.cfg = config.config_from_dict(header["config"])
        self.params = sim.build_model_params(self.cfg.model, self.cfg.geodesic.embed_dim,
                                             seed=header["seed"])
        self.params.load_state_dict(state_dict)
        self.scene = sim.scene_from_spec(
            config.SceneSpec(garment=str(garment), body="swinging_capsule"), self.cfg)
        with warnings.catch_warnings():
            # the capsule's inward normals make a clear placement read as
            # penetration; the rollout checks nothing that depends on normals
            warnings.simplefilter("ignore")
            self.state0 = sim.initial_state(self.scene.garment, self.scene.body, self.cfg)

    def round(self) -> list[float]:
        """One rollout; a frame's time runs from the start of its step to the
        start of the next one (the last frame's to the rollout's return)."""
        stamps = []
        step = sim.step

        def stamped(*args, **kwargs):
            stamps.append(time.perf_counter())
            return step(*args, **kwargs)

        sim.step = stamped
        try:
            records = sim.rollout(self.state0, self.params, self.round_ops, self.scene,
                                  out_dir=self.out / "frames")
            t_end = time.perf_counter()
        finally:
            sim.step = step
        if len(stamps) != self.round_ops:
            raise RuntimeError(f"{len(stamps)} steps for {self.round_ops} frames")
        self.rounds.append(records)
        return list(np.diff(stamps + [t_end]))

    def check(self) -> list[str]:
        fails = []
        records = self.rounds[-1]
        if any(r != records for r in self.rounds):
            fails.append("rounds from the same state logged different metrics")
        frames = self.out / "frames"
        with open(frames / "metrics.jsonl", "r", encoding="utf-8") as fh:
            logged = [json.loads(line) for line in fh]
        if len(logged) != self.round_ops:
            fails.append(f"metrics.jsonl has {len(logged)} of {self.round_ops} frames")
        phys = self.cfg.physics
        edges, hinges = oracles.edges_and_hinges(self.tris)
        rest_len = np.linalg.norm(self.rest[edges[:, 0]] - self.rest[edges[:, 1]], axis=1)
        masses = oracles.lumped_masses(self.rest, self.tris, self.cfg.mesh.density)
        for rec in logged:
            f = rec["frame"]
            if not all(math.isfinite(v) for v in rec.values()):
                fails.append(f"frame {f}: non-finite metrics")
            path = frames / f"frame_{f:05d}.obj"
            if not path.is_file():
                fails.append(f"frame {f}: {path.name} not written")
                continue
            x, tris = oracles.read_obj(path)
            if x.shape != self.rest.shape or not np.array_equal(tris, self.tris):
                fails.append(f"frame {f}: mesh does not match the garment")
                continue
            if not np.all(np.isfinite(x)):
                fails.append(f"frame {f}: non-finite positions")
                continue
            phi = oracles.fold_angles(x, hinges)
            heights = phys.gravity * np.abs(masses * x[:, phys.up_axis]).sum()
            ref = {
                "stretch": (oracles.stretch(x, edges, rest_len, phys.k_stretch), 0.0),
                # atan2 of unit-scale vectors: allow 1e-13 rad per hinge
                "bending": (oracles.bending(x, hinges, phys.k_bend),
                            phys.k_bend * 1e-13 * np.abs(phi).sum()),
                "gravity": (oracles.gravity(x, masses, phys.gravity, phys.up_axis),
                            1e-9 * heights),
            }
            for term, (value, atol) in ref.items():
                if abs(rec[term] - value) > atol + 1e-9 * abs(value):
                    fails.append(f"frame {f}: logged {term} {rec[term]!r} != "
                                 f"recomputed {value!r}")
        return fails


# -- preprocess-2k ------------------------------------------------------------------

class Preprocess2k:
    """`eslrsim preprocess` on a 45x45 grid (2,025 vertices) with a SMACOF
    budget of 4 iterations set in the workload's config; only the mesh and
    geodesic modules run."""

    name = "preprocess-2k"
    round_ops = 1
    min_samples = 1
    tail_pct = 50  # no percentile has ten of a run's samples beyond it
    side = 45
    smacof_budget = 4
    embed_dim = 8

    def __init__(self, out: Path):
        self.out = out
        self.digests = []

    def setup(self, seed: int):
        _fresh(self.out)
        self.seed = seed
        # the seed picks the cloth size; the work does not depend on it
        self.size = 0.8 + 0.4 * float(np.random.default_rng(seed).random())
        verts, tris = oracles.grid(self.side, self.size)
        self.garment = _write(self.out / "garment.obj", oracles.obj_text(verts, tris))
        self.config = _write(self.out / "config.json", json.dumps(
            {"geodesic": {"embed_dim": self.embed_dim,
                          "mds_max_iters": self.smacof_budget}}))
        self.embedding = self.out / "garment.geo1"
        # the program must accept the garment before it is timed
        garment = mesh.load_obj(self.garment)
        mesh.compute_rest_quantities(garment, mesh.build_topology(garment), 0.2)

    def round(self) -> list[float]:
        t0 = time.perf_counter()
        with _quiet():
            code = cli.main(["preprocess", "--garment", str(self.garment),
                             "--config", str(self.config), "--out", str(self.embedding),
                             "--seed", str(self.seed)])
        dt = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"preprocess exited {code}")
        self.digests.append(hashlib.sha256(self.embedding.read_bytes()).hexdigest())
        return [dt]

    def check(self) -> list[str]:
        fails = []
        if len(set(self.digests)) != 1:
            fails.append("preprocess with the same seed wrote different bytes")
        header, coords = oracles.read_embedding(self.embedding)
        n = self.side * self.side
        if coords.shape != (n, self.embed_dim):
            return fails + [f"embedding shape {coords.shape} != {(n, self.embed_dim)}"]
        if not 1 <= header["iterations"] <= self.smacof_budget + 1:
            fails.append(f"header reports {header['iterations']} stress values "
                         f"for a budget of {self.smacof_budget}")
        d = oracles.grid_geodesics(self.side, self.size / (self.side - 1))
        stress = oracles.raw_stress(coords, d)
        if not abs(stress - header["final_stress"]) <= 1e-9 * stress:
            fails.append(f"recomputed stress {stress!r} != header "
                         f"{header['final_stress']!r}")
        start = oracles.raw_stress(oracles.classical_scaling(d, self.embed_dim), d)
        if not stress <= start * (1 + 1e-9):
            fails.append(f"stress {stress!r} is above the classical-scaling "
                         f"start {start!r}")
        return fails


WORKLOADS = {w.name: w for w in (TrainDesk, Rollout2k, Preprocess2k)}


# -- the measurement loop ----------------------------------------------------------------

def measure(name: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    """Set up SETUP_REPS times, run whole rounds until `seconds` have passed
    and the workload has its minimum sample count, then check; returns the
    result object."""
    wl = WORKLOADS[name](out / name)
    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup(seed)
        setups.append(time.perf_counter() - t0)
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install(PROGRAM)
    samples, attempted, failed = [], 0, 0
    busy = 0.0
    try:
        while busy < seconds or len(samples) < wl.min_samples:
            attempted += wl.round_ops
            t0 = time.perf_counter()
            try:
                samples += wl.round()
            except Exception as exc:  # a failed round counts; the run goes on
                failed += wl.round_ops
                print(f"{name}: round failed: {exc!r}", flush=True)
                if failed >= 4 * wl.round_ops:
                    break
            finally:
                busy += time.perf_counter() - t0
    finally:
        if tracer:
            tracer.uninstall()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fails = wl.check() if samples else ["no round completed"]
    for msg in fails:
        print(f"{name}: CHECK FAILED: {msg}", flush=True)
    done = attempted - failed
    if tracer:
        metrics = tracing.layer_metrics(tracer, max(done, 1))
        metrics["trace.op_ms_p50"] = (1e3 * statistics.median(samples)
                                      if samples else 0.0, "ms")
    else:
        ms = 1e3 * np.asarray(samples if samples else [0.0])
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "op_per_s": (done / busy, "1/s"),
            "op_ms_p50": (float(np.percentile(ms, 50)), "ms"),
            "op_ms_tail": (float(np.percentile(ms, wl.tail_pct)), "ms"),
        }
    return {"correct": not fails, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

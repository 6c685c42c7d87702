"""Unsupervised training: sample a scene, predict one step, minimize the
physics loss of the prediction.

Each iteration places the garment, advances it a few frames with the current
model under no_grad so the body phase advances, runs one model step, and
backpropagates the total physics loss.
Everything is driven by one seeded generator, so a (config, seed) pair fully
determines the checkpoint bytes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import sim
from . import tensor as T
from .config import RunConfig, TrainerConfig, config_to_dict, save_config
from .errors import TrainAbortError, ValidationError
from .tensor import ModelParams

# Adam's moment decay rates and denominator guard: Kingma and Ba's defaults
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(params: ModelParams, grads: dict[str, np.ndarray],
              state: AdamState, tcfg: TrainerConfig) -> AdamState:
    """Standard Adam with bias correction; mutates params and state in place."""
    state.t += 1
    c1 = 1 - BETA1 ** state.t
    c2 = 1 - BETA2 ** state.t
    for name, p in params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1 - BETA1) * g
        v *= BETA2
        v += (1 - BETA2) * g * g
        p.data = p.data - tcfg.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return state


def sample_scene(cfg: TrainerConfig, n_scenes: int,
                 rng: np.random.Generator) -> tuple[int, int]:
    """Uniform (scene index, frame offset) draw; advances the generator."""
    scene_idx = int(rng.integers(n_scenes))
    t_offset = int(rng.integers(cfg.time_horizon))
    return scene_idx, t_offset


@dataclass
class TrainResult:
    checkpoint_path: Path
    log_path: Path
    totals: np.ndarray  # per-iteration total loss, in order


def _build_state(scene: sim.Scene, cfg: RunConfig, t0: int, n_warmup: int,
                 params: ModelParams) -> sim.SimState:
    """Placement plus a short warm-up of free (untrained) frames, advanced with
    the current model under no_grad, so the training distribution covers
    states the model actually reaches during rollouts."""
    state = sim.initial_state(scene.garment, scene.body, cfg, t0=t0)
    with T.no_grad():
        for _ in range(n_warmup):
            nxt = sim.step(state, params, scene).next_state
            if not np.all(np.isfinite(nxt.x_g)):
                break  # keep the last finite state; the loss will push back
            state = nxt
    return state


def train(cfg: RunConfig, out_dir, scenes: list[sim.Scene] | None = None,
          quiet: bool = True) -> TrainResult:
    """Run the full loop; writes checkpoints, train_log.jsonl, and the config.

    A non-finite loss aborts with the iteration index; the last periodic
    checkpoint stays on disk.
    """
    tcfg = cfg.trainer
    if tcfg.warmup_mode != "model":
        raise ValidationError(
            f"trainer.warmup_mode must be 'model', got {tcfg.warmup_mode!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_config(out_dir / "config.json", cfg)

    if scenes is None:
        scenes = [sim.scene_from_spec(spec, cfg) for spec in tcfg.scenes]
    if not scenes:
        raise ValidationError("trainer needs at least one scene")
    params = sim.build_model_params(cfg.model, cfg.geodesic.embed_dim, seed=tcfg.seed)
    adam = AdamState()
    rng = np.random.default_rng(tcfg.seed)
    cfg_dict = config_to_dict(cfg)

    log_path = out_dir / "train_log.jsonl"
    ckpt_path = out_dir / "checkpoint_final.ckpt"
    totals = np.empty(tcfg.iterations)
    start = time.monotonic()
    with open(log_path, "w", encoding="utf-8") as log:
        for it in range(1, tcfg.iterations + 1):
            scene_idx, t0 = sample_scene(tcfg, len(scenes), rng)
            # warm-up depth is itself sampled so the model sees every rollout
            # depth from the placement state up to the configured maximum
            n_warmup = int(rng.integers(tcfg.warmup_steps + 1))
            scene = scenes[scene_idx]
            state = _build_state(scene, cfg, t0, n_warmup, params)
            out = sim.step(state, params, scene)
            loss, breakdown = sim.step_loss(state, out, scene)
            if not np.isfinite(breakdown["total"]):
                raise TrainAbortError(
                    it, f"non-finite loss (last checkpoint kept in {out_dir})")
            params.zero_grad()
            T.backward(loss)
            adam_step(params, params.grads(), adam, tcfg)
            totals[it - 1] = breakdown["total"]
            record = {"iteration": it, **breakdown,
                      "wall_time": time.monotonic() - start}
            log.write(json.dumps(record, sort_keys=True) + "\n")
            if tcfg.checkpoint_interval > 0 and it % tcfg.checkpoint_interval == 0:
                T.save_checkpoint(out_dir / f"checkpoint_{it:06d}.ckpt",
                                  params, cfg_dict, it, tcfg.seed)
            if not quiet and (it % 100 == 0 or it == 1):
                print(f"iter {it:6d}  total {breakdown['total']:+.6e}")
    T.save_checkpoint(ckpt_path, params, cfg_dict, tcfg.iterations, tcfg.seed)
    return TrainResult(checkpoint_path=ckpt_path, log_path=log_path, totals=totals)

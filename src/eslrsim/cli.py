"""Command-line interface: preprocess, train, simulate, eval, bench.

Exit codes: 0 success, 1 runtime failure, 2 validation failure. Every
subcommand echoes its effective config to stdout, and subcommands with an
output directory write config.json there.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import geodesic as geo
from . import gsa as gsa_mod
from . import lsdmp
from . import physics as phys
from . import sim
from . import tensor as T
from . import trainer
from .config import (RunConfig, SceneSpec, _build, config_from_dict, config_to_dict,
                     load_config, save_config)
from .errors import ValidationError
from .mesh import build_topology, compute_rest_quantities, grid_cloth, load_obj

try:
    import resource
except ImportError:  # not on Windows
    resource = None

EVAL_COLUMNS = ("stretch", "bending", "inertia", "collision", "friction", "gravity")


def _echo_config(cfg: RunConfig) -> None:
    print("effective config: " + json.dumps(config_to_dict(cfg), sort_keys=True))


def _print_peak_memory() -> None:
    """The process's peak resident memory, where the platform reports it."""
    if resource is not None:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # bytes on macOS, else KiB
        print(f"peak memory {peak / (2**20 if sys.platform == 'darwin' else 2**10):.1f} MB "
              f"(ru_maxrss)")


def _check_flag(flag: str, minimum: int, *values: int, maximum: int | None = None) -> None:
    """The range check of a flag that sets no config key; a flag that sets one
    is checked as that key's value, by `load_config`."""
    for value in values:
        if value < minimum:
            raise ValidationError(f"{flag} must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise ValidationError(f"{flag} must be <= {maximum}, got {value}")


# -- preprocess ---------------------------------------------------------------

def cmd_preprocess(args) -> int:
    _check_flag("--seed", 0, args.seed)
    cfg = load_config(args.config, {"geodesic.embed_dim": ("--embed-dim", args.embed_dim)})
    gcfg = cfg.geodesic
    _echo_config(cfg)
    t0 = time.perf_counter()
    mesh = load_obj(args.garment)
    topo = build_topology(mesh)
    if topo.nonmanifold_edge_count:
        print(f"diagnostics: {topo.nonmanifold_edge_count} non-manifold edge(s) "
              f"excluded from bending", file=sys.stderr)
    rest = compute_rest_quantities(mesh, topo, cfg.mesh.density)
    load_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    d = geo.geodesic_distances(topo, rest)
    paths_s = time.perf_counter() - t0
    emb = geo.mds_embed(d, k=gcfg.embed_dim, max_iters=gcfg.mds_max_iters,
                        seed=args.seed)
    out = Path(args.out) if args.out else Path(geo.default_embedding_path(args.garment))
    geo.save_embedding(out, emb, seed=args.seed)
    print(f"wrote {out}: {mesh.n_vertices} vertices, k={gcfg.embed_dim}, "
          f"final stress {emb.final_stress:.6e} after "
          f"{len(emb.stress_history) - 1} iterations")
    print(f"start stress {emb.stress_history[0]:.6e}; times: mesh load {load_s:.3f} s, "
          f"shortest paths {paths_s:.3f} s, classical scaling {emb.start_s:.3f} s "
          f"({emb.start_method}), "
          f"SMACOF {emb.smacof_s:.3f} s ({emb.iterations_run} iterations, "
          f"{1e3 * emb.smacof_s / emb.iterations_run:.3f} ms each)")
    _print_peak_memory()
    return 0


# -- train ---------------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = load_config(args.config, {"trainer.iterations": ("--iters", args.iters),
                                    "trainer.seed": ("--seed", args.seed)})
    _echo_config(cfg)
    result = trainer.train(cfg, args.out, quiet=args.quiet)
    print(f"wrote {result.checkpoint_path} and {result.log_path}")
    return 0


# -- checkpoint loading shared by simulate and eval -----------------------------

def _load_model(ckpt_path, overrides: dict | None = None) -> tuple[T.ModelParams, RunConfig]:
    """The model a checkpoint describes, as the float32 copy that a rollout
    runs, and its echoed config with `overrides` applied (see
    `config_from_dict`); a config, parameter set, shape or value that does not
    fit raises ValidationError naming the file."""
    state, header = T.load_checkpoint(ckpt_path)
    try:
        cfg = config_from_dict(header.get("config", {}), overrides)
        # check the echoed sizes against the file's own before allocating a model
        m, h, k = cfg.model, cfg.model.hidden_dim, cfg.geodesic.embed_dim
        shapes = {name: a.shape for name, a in state.items()}
        for key, expected, found in (
                ("model.lsdmp_layers", m.lsdmp_layers, sum(n.endswith(".f_v.w0") for n in shapes)),
                ("model.gsa_blocks", m.gsa_blocks, sum(n.endswith(".wq") for n in shapes)),
                ("model.hidden_dim", (h, h), shapes.get("decoder.w0")),
                ("geodesic.embed_dim", (h + k, h), shapes.get("gsa.block0.wq", (h + k, h)))):
            if expected != found:
                raise ValidationError(f"config {key} does not match the parameter names "
                                      f"and shapes (expected {expected}, found {found})")
        params = sim.build_model_params(m, k, seed=header["seed"])
        missing = set(params.names()) ^ set(state)
        if missing:
            raise ValidationError(f"parameter set does not match its config "
                                  f"({sorted(missing)[:4]}...)")
        params.load_state_dict(state)
        return params.astype(np.float32), cfg
    except ValidationError as e:
        raise ValidationError(f"{ckpt_path}: {e}") from None


# -- simulate -------------------------------------------------------------------

def cmd_simulate(args) -> int:
    _check_flag("--frames", 1, args.frames)
    params, cfg = _load_model(args.ckpt, {"physics.dt": ("--dt", args.dt)})
    _echo_config(cfg)
    spec = SceneSpec(garment=args.garment, body=args.body)
    scene = sim.scene_from_spec(spec, cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_config(out_dir / "config.json", cfg)
    state = sim.initial_state(scene.garment, scene.body, cfg)
    records = sim.rollout(state, params, args.frames, scene, out_dir=out_dir)
    worst = max(r["max_penetration"] for r in records)
    print(f"wrote {args.frames} frames to {out_dir}; "
          f"worst penetration {worst:.4e} m")
    _print_peak_memory()
    return 0


# -- eval -------------------------------------------------------------------------

def evaluate_scenes(params: T.ModelParams, cfg: RunConfig,
                    specs: list[SceneSpec], frames: int) -> list[dict]:
    """Rollout each scene and average the raw per-term losses across frames."""
    rows = []
    for spec in specs:
        scene = sim.scene_from_spec(spec, cfg)
        state = sim.initial_state(scene.garment, scene.body, cfg)
        records = sim.rollout(state, params, frames, scene)
        row = {"scene": f"{Path(spec.garment).stem}/{spec.body}"}
        for key in EVAL_COLUMNS:
            row[key] = float(np.mean([r[key] for r in records]))
        row["total"] = sum(cfg.physics.weights[k] * row[k] for k in EVAL_COLUMNS)
        rows.append(row)
    return rows


def format_report(rows: list[dict], cfg: RunConfig) -> str:
    header = ["# eslrsim eval report",
              "# total = sum_k weight_k * term_k; weights: "
              + json.dumps(cfg.physics.weights, sort_keys=True),
              "# term formulas:"]
    header += [f"#   {name}: {formula}"
               for name, formula in phys.TERM_FORMULAS.items()]
    cols = [c.capitalize() for c in EVAL_COLUMNS] + ["Total"]
    lines = header + ["scene".ljust(36) + "".join(c.rjust(17) for c in cols)]
    for row in rows:
        cells = [f"{row[c]:.9E}".rjust(17) for c in EVAL_COLUMNS + ("total",)]
        lines.append(row["scene"].ljust(36) + "".join(cells))
    return "\n".join(lines) + "\n"


def cmd_eval(args) -> int:
    _check_flag("--frames", 1, args.frames)
    params, cfg = _load_model(args.ckpt)
    _echo_config(cfg)
    with open(args.scenes, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValidationError(f"{args.scenes}: invalid JSON: {e}") from None
    if not isinstance(raw, list):
        raise ValidationError(f"{args.scenes}: expected a JSON list of scenes")
    specs = [_build(SceneSpec, entry, f"{args.scenes}[{i}]")
             for i, entry in enumerate(raw)]
    rows = evaluate_scenes(params, cfg, specs, args.frames)
    report = format_report(rows, cfg)
    Path(args.report).write_text(report, encoding="utf-8")
    print(report, end="")
    print(f"wrote {args.report}")
    return 0


# -- bench -------------------------------------------------------------------------

def _best_time(fn, repeats: int = 5) -> float:
    """Shortest wall time of `repeats` calls after one untimed warm-up call.
    Load from other processes only ever adds time, so the minimum varies
    least from run to run."""
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def run_bench(sizes: list[int], layer_counts: list[int], cfg: RunConfig,
              seed: int = 0) -> list[dict]:
    """Wall-time per synthetic grid size for the short-range stack, the
    long-range stack, and the full step at each layer count."""
    params = sim.build_model_params(cfg.model, cfg.geodesic.embed_dim, seed)
    rng = np.random.default_rng(seed)
    results = []
    for size in sizes:
        side = max(2, int(round(np.sqrt(size))))
        mesh = grid_cloth(side, side)
        n = mesh.n_vertices
        embedding = rng.standard_normal((n, cfg.geodesic.embed_dim))
        garment = sim.garment_assets_from_mesh(mesh, cfg, embedding)
        scene = sim.build_scene(garment,
                                sim.make_body_motion("static_sphere", cfg), cfg)
        state = sim.initial_state(garment, scene.body, cfg)
        world = np.zeros((0, 2), dtype=np.intp)
        edges = garment.topo.mesh_edges
        plan = lsdmp.MeshPlan(edges, n, len(edges), mesh.vertices)

        def encode_once():
            positions = state.x_g
            velocities = state.q_g
            normals = np.zeros_like(positions)
            return lsdmp.encode(params, positions, velocities, normals, plan, world)

        with T.no_grad():
            lg = encode_once()
            t_lsdmp = _best_time(lambda: lsdmp.lsdmp_forward(
                lg, params, cfg.model.lsdmp_layers, cfg.model.smoothing_steps))
            t_gsa = _best_time(lambda: gsa_mod.gsa_forward(
                lg.vertex_feats, embedding, params, cfg.model.gsa_blocks))
            step_times = {}
            for n_layers in layer_counts:
                model = replace(cfg.model, lsdmp_layers=n_layers)
                layered = replace(scene, cfg=replace(cfg, model=model))
                step_times[n_layers] = _best_time(
                    lambda: sim.step(state, params, layered))
        results.append({"vertices": n, "lsdmp_s": t_lsdmp, "gsa_s": t_gsa,
                        "step_s": step_times})
    return results


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s]
    except ValueError:
        raise ValidationError(f"{flag} must be comma-separated integers, got {text!r}") from None


def cmd_bench(args) -> int:
    _check_flag("--seed", 0, args.seed)
    cfg = load_config(args.config)
    sizes = _int_list(args.sizes, "--sizes")
    layer_counts = _int_list(args.layers, "--layers")
    if not sizes:
        raise ValidationError("--sizes needs at least one vertex count")
    _check_flag("--sizes entries", 4, *sizes)
    _check_flag("--layers entries", 0, *layer_counts, maximum=cfg.model.lsdmp_layers)
    _echo_config(cfg)
    results = run_bench(sizes, layer_counts, cfg, seed=args.seed)
    step_cols = "".join(f"  step(L={l})_ms" for l in layer_counts)
    print(f"{'vertices':>9}  {'lsdmp_ms':>9}  {'gsa_ms':>9}{step_cols}")
    for row in results:
        steps = "".join(f"  {row['step_s'][l] * 1e3:12.3f}" for l in layer_counts)
        print(f"{row['vertices']:>9}  {row['lsdmp_s'] * 1e3:9.3f}  "
              f"{row['gsa_s'] * 1e3:9.3f}{steps}")
    if len(results) > 1:
        print("scaling ratios (consecutive sizes):")
        for prev, cur in zip(results, results[1:]):
            nr = cur["vertices"] / prev["vertices"]
            print(f"  n x{nr:.2f}: lsdmp x{cur['lsdmp_s'] / prev['lsdmp_s']:.2f}, "
                  f"gsa x{cur['gsa_s'] / prev['gsa_s']:.2f}")
    return 0


# -- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eslrsim",
        description="Garment simulation with smoothing-extended message passing "
                    "and geodesic linear attention")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="compute geodesic embeddings for a garment")
    p.add_argument("--garment", required=True)
    p.add_argument("--embed-dim", type=int, default=None)
    p.add_argument("--out", default=None, help="default: sibling .geo1 file")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_preprocess)

    p = sub.add_parser("train", help="unsupervised training with physics losses")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("simulate", help="autoregressive rollout to OBJ frames")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--garment", required=True)
    p.add_argument("--body", required=True, choices=sim.PRESETS)
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("eval", help="per-scene physics-loss report")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--scenes", required=True, help="JSON list of scene specs")
    p.add_argument("--report", required=True)
    p.add_argument("--frames", type=int, default=30)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bench", help="wall-time scaling across mesh sizes")
    p.add_argument("--sizes", required=True,
                   help="comma-separated vertex counts, each >= 4 (a 2x2 grid)")
    p.add_argument("--config", default=None)
    p.add_argument("--layers", default="10,15",
                   help="comma-separated layer counts for full-step timing, "
                        "each at most model.lsdmp_layers")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError, ValueError) as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

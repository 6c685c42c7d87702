"""Span tracer that wraps the program's public functions from outside.

`Tracer.install` replaces module attributes with timing wrappers and
`uninstall` puts the originals back. The program calls these functions either
as `module.fn(...)` or as a global of the defining module, and both look the
name up at call time, so wrapping the attribute catches every call.

- Layer spans (functions of mesh, lsdmp, gsa, sim, physics, trainer, geodesic
  and `tensor.backward`) nest: each records calls, inclusive time and self
  time, the part of its interval that no nested layer span covers.
- Tensor ops are counted at `tensor._node`, which every op calls once to make
  its output. `matmul`, `gather_rows` and the two segment reductions are also
  timed (forward only). Op timings do not nest into the layer spans, so a
  layer's self time still includes the ops it issues.
- Counters record work done: world-edge pairs, tape nodes reachable from each
  loss, SMACOF iterations.
"""

from __future__ import annotations

import time
from collections import defaultdict

PHYSICS_TERMS = ("stretch_energy", "bending_energy", "collision_penalty",
                 "gravity_energy", "inertia_term", "friction_term")
TIMED_OPS = ("matmul", "gather_rows", "segment_sum", "segment_mean")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)  # inclusive seconds
        self.self_time = defaultdict(float)  # seconds not under a nested span
        self.counts = defaultdict(int)  # work counters (pairs, nodes, ...)
        self._child = []  # per open span: seconds covered by nested spans
        self._open = defaultdict(int)
        self._saved = []

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr, name, after=None):
        """Wrap owner.attr as the layer span `name`; `after(result, seconds)`
        may credit counters or further spans."""
        fn = getattr(owner, attr)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            self._child.append(0.0)
            self._open[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._open[name] -= 1
                covered = self._child.pop()
                if self._child:
                    self._child[-1] += dt
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - covered
            if after is not None:
                after(result, dt)
            return result

        self._patch(owner, attr, wrapper)

    def timed_op(self, owner, attr, name):
        fn = getattr(owner, attr)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.total[name] += clock() - t0

        self._patch(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def install(self, program):
        """Wrap the public functions of each module of `program`, a namespace
        holding the imported eslrsim modules."""
        mesh, lsdmp, gsa, sim = program.mesh, program.lsdmp, program.gsa, program.sim
        physics, tensor, trainer, geo = (program.physics, program.tensor,
                                         program.trainer, program.geodesic)

        def count_pairs(result, _dt):
            self.counts["mesh.world_edge_pairs"] += len(result.pairs)

        # sim imports these from mesh by name, so wrap them where sim calls them
        self.span(sim, "build_world_edges", "mesh.world_edges", count_pairs)
        self.span(sim, "vertex_normals", "mesh.vertex_normals")
        self.span(sim, "obj_text", "sim.frame_write")

        self.span(lsdmp, "encode", "lsdmp.encode")
        self.span(lsdmp, "lsdmp_layer", "lsdmp.layer")
        self.span(lsdmp, "mp_edge_update", "lsdmp.mp_edge")
        self.span(lsdmp, "mp_vertex_update", "lsdmp.mp_vertex")
        self.span(lsdmp, "laplacian_smooth_step", "lsdmp.smooth")
        self.span(gsa, "gsa_block", "gsa.block")

        def warmup(result, dt):
            # a step inside training that records no tape is a warm-up step
            if self._open["trainer.train"] and not result.accel.requires_grad:
                self.calls["trainer.warmup"] += 1
                self.total["trainer.warmup"] += dt

        self.span(sim, "step", "sim.step", warmup)
        self.span(sim, "step_loss", "sim.step_loss")
        self.span(sim, "max_penetration_depth", "sim.penetration")
        for term in PHYSICS_TERMS:
            self.span(physics, term, "physics." + term.split("_")[0])

        self.span(trainer, "train", "trainer.train")
        self.span(trainer, "adam_step", "trainer.adam")

        def smacof(result, _dt):
            self.counts["geodesic.smacof_iters"] += len(result.stress_history) - 1

        self.span(geo, "geodesic_distances", "geodesic.dijkstra")
        self.span(geo, "mds_embed", "geodesic.smacof", smacof)
        self.span(geo, "_classical_scaling", "geodesic.classical_scaling")
        self.span(geo, "save_embedding", "geodesic.save")

        self.span(tensor, "backward", "tensor.backward")
        backward = tensor.backward

        def count_tape(loss):  # outside the span, so the walk is not billed to it
            self.counts["tensor.tape_nodes"] += tape_size(loss)
            return backward(loss)

        self._patch(tensor, "backward", count_tape)
        node = tensor._node

        def count_op(*args, **kwargs):
            self.counts["tensor.op_calls"] += 1
            return node(*args, **kwargs)

        self._patch(tensor, "_node", count_op)
        for op in TIMED_OPS:
            self.timed_op(tensor, op, "tensor." + op)


def tape_size(loss) -> int:
    """Tape nodes reachable from `loss` through their recorded parents."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._prev:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def layer_metrics(tr: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-operation layer metrics, name -> (value, unit), from one traced run
    that completed `ops` operations."""
    ms = lambda span: 1e3 * tr.total[span] / ops
    self_ms = lambda span: 1e3 * tr.self_time[span] / ops
    per = lambda n: n / ops
    smacof_iters = tr.counts["geodesic.smacof_iters"]
    smacof_loop = tr.total["geodesic.smacof"] - tr.total["geodesic.classical_scaling"]
    return {
        "mesh.world_edges_ms": (ms("mesh.world_edges"), "ms"),
        "mesh.world_edges_calls": (per(tr.calls["mesh.world_edges"]), "count"),
        "mesh.world_edge_pairs": (per(tr.counts["mesh.world_edge_pairs"]), "count"),
        "mesh.vertex_normals_ms": (ms("mesh.vertex_normals"), "ms"),
        "mesh.vertex_normals_calls": (per(tr.calls["mesh.vertex_normals"]), "count"),
        "lsdmp.encode_ms": (ms("lsdmp.encode"), "ms"),
        "lsdmp.mp_edge_ms": (ms("lsdmp.mp_edge"), "ms"),
        "lsdmp.mp_vertex_ms": (ms("lsdmp.mp_vertex"), "ms"),
        "lsdmp.smooth_ms": (ms("lsdmp.smooth"), "ms"),
        "lsdmp.smooth_calls": (per(tr.calls["lsdmp.smooth"]), "count"),
        # a layer's own time is its output MLP and residual
        "lsdmp.output_mlp_ms": (self_ms("lsdmp.layer"), "ms"),
        "gsa.block_ms": (ms("gsa.block"), "ms"),
        "sim.step_ms": (ms("sim.step"), "ms"),
        # a step's own time: fusion, decoder, integration and feature glue
        "sim.fuse_decode_ms": (self_ms("sim.step"), "ms"),
        "sim.step_loss_ms": (ms("sim.step_loss"), "ms"),
        "sim.penetration_ms": (ms("sim.penetration"), "ms"),
        "sim.frame_write_ms": (ms("sim.frame_write"), "ms"),
        "physics.stretch_ms": (ms("physics.stretch"), "ms"),
        "physics.bending_ms": (ms("physics.bending"), "ms"),
        "physics.collision_ms": (ms("physics.collision"), "ms"),
        "physics.gravity_ms": (ms("physics.gravity"), "ms"),
        "physics.inertia_ms": (ms("physics.inertia"), "ms"),
        "physics.friction_ms": (ms("physics.friction"), "ms"),
        "tensor.backward_ms": (ms("tensor.backward"), "ms"),
        "tensor.tape_nodes": (per(tr.counts["tensor.tape_nodes"]), "count"),
        "tensor.op_calls": (per(tr.counts["tensor.op_calls"]), "count"),
        "tensor.matmul_ms": (ms("tensor.matmul"), "ms"),
        "tensor.gather_ms": (ms("tensor.gather_rows"), "ms"),
        "tensor.segment_ms": (ms("tensor.segment_sum") + ms("tensor.segment_mean"), "ms"),
        "trainer.warmup_ms": (ms("trainer.warmup"), "ms"),
        "trainer.warmup_steps": (per(tr.calls["trainer.warmup"]), "count"),
        "trainer.adam_ms": (ms("trainer.adam"), "ms"),
        "geodesic.dijkstra_s": (tr.total["geodesic.dijkstra"] / ops, "s"),
        "geodesic.smacof_s": (tr.total["geodesic.smacof"] / ops, "s"),
        "geodesic.smacof_iters": (per(smacof_iters), "count"),
        "geodesic.smacof_iter_ms": (1e3 * smacof_loop / smacof_iters if smacof_iters
                                    else 0.0, "ms"),
        "geodesic.save_ms": (ms("geodesic.save"), "ms"),
    }

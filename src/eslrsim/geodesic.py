"""Geodesic distances over the mesh graph and their MDS reduction.

Distances are shortest paths over mesh edges weighted by rest length (the graph
the network actually sees). The embedding minimizes raw stress,

    sum_{i != j} (d_ij - ||c_i - c_j||)^2,

by SMACOF majorization, whose stress sequence is non-increasing by construction.

Cost model, for n vertices and embedding width k:

- Dijkstra runs once per source with a binary heap, and stops a source as soon
  as every vertex with a larger index is settled; the lower triangle is the
  mirror of the upper one. About n * (n/2) heap pops in all.
- SMACOF makes one pairwise-distance pass per iteration, plus one for the
  start; the candidate's distances are reused for the next iteration's update.
- Pairwise distances are built a block of rows at a time, so peak memory is a
  few n x n float64 arrays and never an n x n x k temporary.

On a 2,025-vertex grid with 4 SMACOF iterations and one BLAS thread (2-core
x86-64 VM), Dijkstra takes about 60 % of the time, the classical-scaling start
about 25 % and each SMACOF iteration about 4 %; the process peaks near 270 MB.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedMeshError, ValidationError
from .mesh import RestState, Topology

GEO_MAGIC = b"ESLR-GEO1\n"


@dataclass
class DistanceMatrix:
    n: int
    d: np.ndarray  # (n, n) symmetric, zero diagonal, meters


@dataclass
class GeodesicEmbedding:
    k: int
    coords: np.ndarray  # (n, k) meters in embedding space
    final_stress: float
    stress_history: np.ndarray | None = None  # accepted stress per iteration


def _weighted_adjacency(topo: Topology, rest: RestState) -> list[list[tuple[int, float]]]:
    n = len(topo.adjacency)
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (i, j), w in zip(topo.mesh_edges, rest.edge_rest_lengths):
        adj[int(i)].append((int(j), float(w)))
        adj[int(j)].append((int(i), float(w)))
    return adj


def _check_connected(adj: list[list[tuple[int, float]]]) -> None:
    n = len(adj)
    label = np.full(n, -1, dtype=np.intp)
    components: list[list[int]] = []
    for start in range(n):
        if label[start] >= 0:
            continue
        comp = [start]
        label[start] = len(components)
        head = 0
        while head < len(comp):
            for v, _ in adj[comp[head]]:
                if label[v] < 0:
                    label[v] = len(components)
                    comp.append(v)
            head += 1
        components.append(sorted(comp))
    if len(components) > 1:
        smallest = min(components, key=len)
        shown = ", ".join(str(v) for v in smallest[:8])
        more = "..." if len(smallest) > 8 else ""
        raise DisconnectedMeshError(
            f"mesh graph has {len(components)} connected components; smallest has "
            f"{len(smallest)} vertices: [{shown}{more}]")


def geodesic_distances(topo: Topology, rest: RestState) -> DistanceMatrix:
    """All-pairs shortest paths by per-source Dijkstra with a binary heap.

    Source s only fills row s above the diagonal, so it stops once every
    vertex v > s is settled; the upper triangle is then mirrored into the
    lower one, which also makes the matrix exactly symmetric (the two sweep
    directions can differ in the last ulp otherwise).
    """
    adj = _weighted_adjacency(topo, rest)
    _check_connected(adj)
    n = len(adj)
    push, pop = heapq.heappush, heapq.heappop
    d = np.zeros((n, n), dtype=np.float64)
    for src in range(n - 1):
        dist = [math.inf] * n
        dist[src] = 0.0
        done = [False] * n
        heap: list[tuple[float, int]] = [(0.0, src)]
        left = n - 1 - src  # vertices above src not yet settled
        while True:
            du, u = pop(heap)
            if done[u]:
                continue
            done[u] = True
            if u > src:
                left -= 1
                if not left:
                    break
            for v, w in adj[u]:
                alt = du + w
                if alt < dist[v]:
                    dist[v] = alt
                    push(heap, (alt, v))
        d[src, src + 1:] = dist[src + 1:]
    iu = np.triu_indices(n, k=1)
    d[(iu[1], iu[0])] = d[iu]
    return DistanceMatrix(n=n, d=d)


_BLOCK_ROWS = 64


def _pairwise_distances(coords: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of `coords`, one block of rows at
    a time so each temporary is (block, n, k) rather than (n, n, k). Each
    block evaluates the one-shot expression on a row slice, which keeps the
    memory layout and hence numpy's summation order over k."""
    n = coords.shape[0]
    pd = np.empty((n, n), dtype=np.float64)
    for lo in range(0, n, _BLOCK_ROWS):
        hi = lo + _BLOCK_ROWS
        diff = coords[lo:hi, None, :] - coords[None, :, :]
        np.sqrt((diff * diff).sum(axis=-1), out=pd[lo:hi])
    return pd


def _raw_stress(d: np.ndarray, pd: np.ndarray) -> float:
    return float(((d - pd) ** 2).sum())  # diagonal contributes zero


def stress(coords: np.ndarray, dist: DistanceMatrix) -> float:
    """Raw stress with the i != j double sum (each unordered pair counted twice)."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape[0] != dist.n:
        raise ValidationError(
            f"stress: coords rows {coords.shape[0]} != distance matrix size {dist.n}")
    return _raw_stress(dist.d, _pairwise_distances(coords))


def _classical_scaling(d: np.ndarray, k: int) -> np.ndarray:
    """Torgerson initialization: eigendecomposition of the double-centered Gram."""
    n = d.shape[0]
    j = np.eye(n) - np.ones((n, n)) / n
    gram = -0.5 * j @ (d * d) @ j
    w, v = np.linalg.eigh(gram)
    order = np.argsort(w)[::-1][:k]
    lam = np.clip(w[order], 0.0, None)
    coords = v[:, order] * np.sqrt(lam)
    if coords.shape[1] < k:
        coords = np.pad(coords, ((0, 0), (0, k - coords.shape[1])))
    return coords


def mds_embed(dist: DistanceMatrix, k: int, max_iters: int = 500,
              tol: float = 1e-9, seed: int = 0) -> GeodesicEmbedding:
    """SMACOF stress majorization down to `k` dimensions.

    Initialized from classical scaling (deterministic); a seeded random init is
    used only if that collapses (random starts routinely strand 1-D embeddings
    in permutation local minima, which would break isometric cases). Iterations
    that fail to decrease stress are rejected, so the recorded stress history is
    strictly decreasing and the best configuration is kept.
    """
    if k < 1:
        raise ValidationError(f"embedding dimension must be >= 1, got {k}")
    if k > dist.n:
        raise ValidationError(f"embedding dimension {k} exceeds vertex count {dist.n}")
    if max_iters < 1:
        raise ValidationError("max_iters must be >= 1")
    if tol <= 0:
        raise ValidationError("tol must be > 0")
    d = dist.d
    n = dist.n
    coords = _classical_scaling(d, k)
    if not np.all(np.isfinite(coords)) or (n > 1 and np.ptp(coords) < 1e-300):
        rng = np.random.default_rng(seed)
        coords = rng.uniform(0.0, max(float(d.max()), 1.0), size=(n, k))
    pd = _pairwise_distances(coords)
    s_prev = _raw_stress(d, pd)
    history = [s_prev]
    for _ in range(max_iters):
        # Guttman transform: B = -d/pd off the diagonal (0 where pd == 0),
        # row sums negated on the diagonal
        b = np.divide(d, pd, out=np.zeros_like(pd), where=pd > 0.0)
        np.negative(b, out=b)
        np.fill_diagonal(b, 0.0)
        np.fill_diagonal(b, -b.sum(axis=1))
        candidate = (b @ coords) / n
        pd = _pairwise_distances(candidate)  # reused by the next iteration
        s_new = _raw_stress(d, pd)
        if not (s_new < s_prev):  # no progress (or numerical stall): keep the best
            break
        coords = candidate
        history.append(s_new)
        if (s_prev - s_new) < tol * max(s_prev, 1e-300):
            s_prev = s_new
            break
        s_prev = s_new
    return GeodesicEmbedding(k=k, coords=coords, final_stress=s_prev,
                             stress_history=np.array(history))


# -- embedding container file ------------------------------------------------
# Magic line, one JSON header line (n, k, final_stress, seed, iteration count,
# distance-retention flag), then the n*k embedding as little-endian f64 and,
# when retained, the n*n distance matrix in the same encoding.

def save_embedding(path, emb: GeodesicEmbedding, seed: int,
                   distances: DistanceMatrix | None = None) -> None:
    header = {
        "n": int(emb.coords.shape[0]),
        "k": int(emb.k),
        "final_stress": float(emb.final_stress),
        "iterations": int(len(emb.stress_history)) if emb.stress_history is not None else 0,
        "seed": int(seed),
        "has_distances": distances is not None,
    }
    with open(path, "wb") as fh:
        fh.write(GEO_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(emb.coords, dtype="<f8").tobytes())
        if distances is not None:
            fh.write(np.ascontiguousarray(distances.d, dtype="<f8").tobytes())


def load_embedding(path) -> tuple[GeodesicEmbedding, DistanceMatrix | None]:
    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic != GEO_MAGIC:
            raise ValidationError(f"{path}: not an embedding file (bad magic {magic!r})")
        header = _read_header(fh, path)
        n, k = _header_count(header, "n", path), _header_count(header, "k", path)
        stress = header.get("final_stress")
        if isinstance(stress, bool) or not isinstance(stress, (int, float)):
            raise ValidationError(
                f"{path}: header field 'final_stress' must be a number, got {stress!r}")
        buf = fh.read(n * k * 8)
        if len(buf) != n * k * 8:
            raise ValidationError(f"{path}: truncated embedding block")
        coords = np.frombuffer(buf, dtype="<f8").reshape(n, k).copy()
        dist = None
        if header.get("has_distances"):
            buf = fh.read(n * n * 8)
            if len(buf) != n * n * 8:
                raise ValidationError(f"{path}: truncated distance block")
            dist = DistanceMatrix(n=n, d=np.frombuffer(buf, dtype="<f8").reshape(n, n).copy())
    emb = GeodesicEmbedding(k=k, coords=coords, final_stress=float(stress))
    return emb, dist


def _read_header(fh, path) -> dict:
    """The JSON object on the line after a file's magic."""
    try:
        header = json.loads(fh.readline().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ValidationError(f"{path}: unreadable header: {e}") from None
    if not isinstance(header, dict):
        raise ValidationError(f"{path}: header must be a JSON object")
    return header


def _header_count(header: dict, key: str, path) -> int:
    value = header.get(key)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValidationError(
            f"{path}: header field '{key}' must be a non-negative integer, got {value!r}")
    return value


def default_embedding_path(garment_path: str) -> str:
    """Conventional sibling file for a garment OBJ."""
    base = str(garment_path)
    return (base[:-4] if base.endswith(".obj") else base) + ".geo1"

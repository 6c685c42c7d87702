"""Geodesic distances over the mesh graph and their MDS reduction.

Distances, a plain (n, n) array in meters, are shortest paths over mesh edges
weighted by rest length (the graph the network actually sees). The embedding,
the one product `preprocess` stores, minimizes raw stress,

    sum_{i != j} (d_ij - ||c_i - c_j||)^2,

by SMACOF majorization, whose stress sequence is non-increasing by construction.

Cost model, for n vertices, E edges and embedding width k:

- Shortest paths run as a label-correcting sweep over blocks of 64 source
  rows: every sweep relaxes the edges of all entries that fell in the last
  one, in a few numpy calls. On a regular grid each entry is relaxed about
  once, so the work is about n * 2E relaxations, with no per-vertex Python.
  The lower triangle is the mirror of the upper one.
- SMACOF makes one pairwise-distance pass per iteration, plus one for the
  start; the candidate's distances are reused for the next iteration's update,
  and the Guttman transform writes into one n x n buffer kept for the run.
- A pairwise-distance block holds about 2**17 squared differences (1 MiB),
  one (rows, n) slice per coordinate, so each pass is a few vectorised ops
  over a block that stays in cache, and peak memory is a few n x n float64
  arrays. The slices are added in numpy's own summation order (see
  `_pairwise_distances`), so every `.geo1` byte is that of the one-shot
  expression, which spent more time in a `sum` call per pair than in adds.
- The classical-scaling start is O(n^2) above 512 vertices: the Gram is
  centred in place, and a block subspace iteration of k + 16 columns makes
  one (n, n) x (n, k + 16) product per iteration (21-23 iterations on grids
  at k = 8). Up to 512 vertices it stays two dense n^3 products and a full
  `eigh`, whose bytes the small embeddings keep (see `_classical_scaling`).

On a 2,025-vertex grid with 4 SMACOF iterations and one BLAS thread (2-core
x86-64 VM), the sweep takes about 0.8 s, the subspace start about 0.3 s and
each SMACOF iteration about 0.15 s. At 100 vertices an iteration takes
0.32 ms. A fresh process running `preprocess` on the 2,025-vertex grid peaks
at 167 MB (`ru_maxrss`). At 8,100 vertices the subspace start takes 4.4 s,
and the process peaks at 2.05 GB.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import container
from .errors import DisconnectedMeshError, ValidationError
from .mesh import RestState, Topology

GEO_MAGIC = b"ESLR-GEO1\n"


@dataclass
class GeodesicEmbedding:
    coords: np.ndarray  # (n, k) meters in embedding space
    final_stress: float
    stress_history: np.ndarray  # accepted stress per iteration, the start's first
    start_s: float  # wall time of the classical-scaling start
    start_method: str  # how the start was found (`_classical_scaling`)
    smacof_s: float  # wall time of SMACOF, the start's stress included
    iterations_run: int  # SMACOF iterations, a rejected last one included


def _neighbour_table(topo: Topology, rest: RestState
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR form of the weighted mesh graph: vertex u's neighbours are
    `dst[start[u]:start[u + 1]]` at rest lengths `wt[...]`."""
    src = topo.mesh_edges.T.ravel()
    order = np.argsort(src, kind="stable")
    dst = topo.mesh_edges[:, ::-1].T.ravel()[order]
    wt = np.tile(rest.edge_rest_lengths, 2)[order]
    start = np.zeros(topo.n_vertices + 1, dtype=np.intp)
    np.cumsum(np.bincount(src, minlength=len(start) - 1), out=start[1:])
    return start, dst, wt


def _raise_disconnected(d: np.ndarray) -> None:
    """Name the smallest connected component (the first of equals), read off
    a distance matrix whose unreachable pairs are inf."""
    label = np.isfinite(d).argmax(axis=1)  # smallest vertex of each component
    roots, sizes = np.unique(label, return_counts=True)
    smallest = np.flatnonzero(label == roots[np.argmin(sizes)])
    shown = ", ".join(str(v) for v in smallest[:8])
    more = "..." if len(smallest) > 8 else ""
    raise DisconnectedMeshError(
        f"mesh graph has {len(roots)} connected components; smallest has "
        f"{len(smallest)} vertices: [{shown}{more}]")


def geodesic_distances(topo: Topology, rest: RestState) -> np.ndarray:
    """All-pairs shortest paths, an (n, n) array in meters, by a
    label-correcting sweep over blocks of source rows.

    A block's frontier starts as its diagonal. Each sweep relaxes every
    frontier pair (s, u) over u's edges, lowers d[s, v] where d[s, u] + w is
    smaller, and makes the entries that fell the next frontier; the block is
    done when none falls. Rounding is monotone and weights are >= 0, so each
    entry ends at the smallest left-to-right rounded path sum, exactly what
    heap Dijkstra returns. The lower triangle is the mirror of the upper one,
    so the matrix is exactly symmetric (a path's two directions can round
    differently). Unreachable pairs stay inf, which names the components.
    """
    start, dst, wt = _neighbour_table(topo, rest)
    n = len(start) - 1
    d = np.empty((n, n), dtype=np.float64)
    fell = np.zeros(_SOURCE_BLOCK * n, dtype=bool)
    for lo in range(0, n, _SOURCE_BLOCK):
        hi = min(lo + _SOURCE_BLOCK, n)
        rows = d[lo:hi].reshape(-1)  # the block's rows, flat
        rows.fill(np.inf)
        front = np.arange(hi - lo) * (n + 1) + lo
        rows[front] = 0.0
        while front.size:
            u = front % n
            first = start[u]
            deg = start[u + 1] - first
            ends = np.cumsum(deg)
            pos = np.arange(ends[-1]) + np.repeat(first - ends + deg, deg)
            cand = np.repeat(rows[front], deg) + wt[pos]
            tgt = np.repeat(front - u, deg) + dst[pos]
            keep = cand < rows[tgt]
            tgt = tgt[keep]
            np.minimum.at(rows, tgt, cand[keep])
            fell[tgt] = True
            front = np.flatnonzero(fell)
            fell[front] = False
        d[lo:hi, :lo] = d[:lo, lo:hi].T
        diag = d[lo:hi, lo:hi]
        below = np.tril_indices(hi - lo, -1)
        diag[below] = diag.T[below]
    if n and not np.isfinite(d[0]).all():
        _raise_disconnected(d)
    return d


_BLOCK_VALUES = 1 << 17  # squared differences per pairwise-distance block (1 MiB)
_SOURCE_BLOCK = 64  # source rows per shortest-path sweep


def _pairwise_distances(coords: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of `coords`, bit for bit those of
    the one-shot `np.sqrt(((c[:, None] - c[None]) ** 2).sum(-1))`.

    A block of rows holds its (k, rows, n) squared differences, one slice per
    coordinate, so every pass is a vectorised op over the block, and the block
    stays in cache. The slices are added in the order the one-shot's `sum(-1)`
    adds them: numpy's pairwise summation when the k axis is the faster one of
    `coords` (its difference array is then contiguous along k), else left to
    right (the k axis is outermost, as for the F-ordered `_classical_scaling`
    start)."""
    n, k = coords.shape
    if not (n and k):
        return np.zeros((n, n))
    add = _pairwise_sum if abs(coords.strides[1]) < abs(coords.strides[0]) else _sum_in_order
    rows = max(1, _BLOCK_VALUES // (k * n))
    ct = np.ascontiguousarray(coords.T)  # one row per coordinate
    pd = np.empty((n, n), dtype=np.float64)
    sq = np.empty((k, min(rows, n), n), dtype=np.float64)
    for lo in range(0, n, rows):
        block = sq[:, :min(rows, n - lo)]
        np.subtract(ct[:, lo:lo + rows, None], ct[:, None, :], out=block)
        np.multiply(block, block, out=block)
        np.sqrt(add(block), out=pd[lo:lo + rows])
    return pd


def _sum_in_order(parts: np.ndarray) -> np.ndarray:
    """`parts[0] + parts[1] + ...` left to right, in place in `parts[0]`."""
    for i in range(1, len(parts)):
        parts[0] += parts[i]
    return parts[0]


def _pairwise_sum(parts: np.ndarray) -> np.ndarray:
    """The sum over axis 0 in numpy's pairwise order, in place in `parts[0]`:
    below 8 terms left to right; up to 128 terms 8 running sums joined as a
    tree, then the remainder left to right; above that the two halves, split
    at a multiple of 8 (numpy's `pairwise_sum`, unchanged since numpy 1.9)."""
    m = len(parts)
    if m < 8:
        return _sum_in_order(parts)
    if m > 128:
        half = m // 2 - m // 2 % 8
        _pairwise_sum(parts[:half])
        parts[0] += _pairwise_sum(parts[half:])
        return parts[0]
    body = m - m % 8
    for i in range(8, body, 8):
        parts[:8] += parts[i:i + 8]
    parts[0:8:2] += parts[1:8:2]
    parts[0:8:4] += parts[2:8:4]
    parts[0] += parts[4]
    for i in range(body, m):
        parts[0] += parts[i]
    return parts[0]


def _raw_stress(d: np.ndarray, pd: np.ndarray) -> float:
    """Raw stress of the pairwise distances `pd` against `d`: the i != j double
    sum, each unordered pair counted twice."""
    r = d - pd
    np.multiply(r, r, out=r)
    return float(r.sum())  # diagonal contributes zero


# The subspace start overtakes the dense one near 300 vertices at k = 8 (one
# BLAS thread: 14 against 13 ms at 324, 41 against 17 ms at 512); the cut sits
# above the 100- and 400-vertex grids so that their starts keep their bytes.
_SUBSPACE_MIN_N = 512
_SUBSPACE_EXTRA = 16  # block columns beyond k
_SUBSPACE_TOL = 1e-10  # Ritz residual bound, relative to the top Ritz value
_SUBSPACE_MAX_ITERS = 300


def _classical_scaling(d: np.ndarray, k: int) -> tuple[np.ndarray, str]:
    """Torgerson start: the top k eigenpairs (by value) of the double-centred
    Gram -d*d/2, as coordinates, and how they were found.

    Up to `_SUBSPACE_MIN_N` vertices, or when the block would not be narrow
    (k + 16 >= n / 4), a dense product with the centring matrix and a full
    `eigh` ("dense"; its bytes are those of every earlier version). Above it
    the Gram is centred in place by its row means, O(n^2), and a block
    subspace iteration of k + 16 columns from a fixed-seed Gaussian start
    runs until each top-k Ritz pair has residual ||g u - u theta|| <=
    1e-10 * |theta_1| ("subspace, m iterations"). The block holds the
    eigenvalues largest in magnitude, and a negative one can outweigh a
    positive one (on a 45x45 grid lambda_min = -42.8 against lambda_3 =
    23.6), so the result also needs a Ritz value smaller in magnitude than
    theta_k: then no positive eigenvalue above theta_k was crowded out. A
    failed check or `_SUBSPACE_MAX_ITERS` iterations fall back to the dense
    path."""
    n = d.shape[0]
    method = "dense"
    if n > _SUBSPACE_MIN_N and k + _SUBSPACE_EXTRA < n / 4:
        coords, method = _subspace_scaling(d, k)
        if coords is not None:
            return coords, method
    j = np.eye(n) - np.ones((n, n)) / n
    gram = -0.5 * j @ (d * d) @ j
    del j  # not read again; frees n x n before eigh's copy and workspace
    w, v = np.linalg.eigh(gram)
    order = np.argsort(w)[::-1][:k]
    lam = np.clip(w[order], 0.0, None)
    return v[:, order] * np.sqrt(lam), method


def _subspace_scaling(d: np.ndarray, k: int) -> tuple[np.ndarray | None, str]:
    """`_classical_scaling`'s subspace path: the coordinates, or None and the
    reason to fall back to the dense path."""
    n = d.shape[0]
    g = d * d
    mean = g.mean(axis=1)  # d is exactly symmetric: the column means too
    g -= mean[:, None]
    g -= mean
    g += mean.mean()
    g *= -0.5
    rng = np.random.default_rng(0)  # independent of --seed, as the dense start is
    q = np.linalg.qr(rng.standard_normal((n, k + _SUBSPACE_EXTRA)))[0]
    for it in range(1, _SUBSPACE_MAX_ITERS + 1):
        z = g @ q
        theta, s = np.linalg.eigh(q.T @ z)
        theta, s = theta[::-1], s[:, :-k - 1:-1]  # by value, descending; top k vectors
        top = theta[:k]
        u = q @ s
        r = z @ s - u * top
        if np.all(np.linalg.norm(r, axis=0) <= _SUBSPACE_TOL * abs(top[0])):
            if top[-1] > 0 and np.any(np.abs(theta) < top[-1]):
                return u * np.sqrt(top), f"subspace, {it} iterations"
            return None, f"dense, subspace check failed after {it} iterations"
        q = np.linalg.qr(z)[0]
    return None, f"dense, subspace unconverged after {_SUBSPACE_MAX_ITERS} iterations"


def _guttman_matrix(d: np.ndarray, pd: np.ndarray, out: np.ndarray) -> np.ndarray:
    """SMACOF's B written into `out`: -d/pd off the diagonal (-0.0 where
    pd == 0, i.e. for coincident points), row sums negated on the diagonal."""
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(d, pd, out=out)
    np.negative(out, out=out)
    np.copyto(out, -0.0, where=pd <= 0.0)
    np.fill_diagonal(out, 0.0)
    np.fill_diagonal(out, -out.sum(axis=1))
    return out


def mds_embed(d: np.ndarray, k: int, max_iters: int = 500,
              tol: float = 1e-9, seed: int = 0) -> GeodesicEmbedding:
    """SMACOF stress majorization of the (n, n) distances `d` down to `k`
    dimensions.

    Initialized from classical scaling (deterministic); a seeded random init is
    used only if that collapses (random starts routinely strand 1-D embeddings
    in permutation local minima, which would break isometric cases). Iterations
    that fail to decrease stress are rejected, so the recorded stress history is
    strictly decreasing and the best configuration is kept.
    """
    if k < 1:
        raise ValidationError(f"embedding dimension must be >= 1, got {k}")
    n = d.shape[0]
    if k > n:
        raise ValidationError(f"embedding dimension {k} exceeds vertex count {n}")
    if max_iters < 1:
        raise ValidationError("max_iters must be >= 1")
    if tol <= 0:
        raise ValidationError("tol must be > 0")
    t0 = time.perf_counter()
    coords, method = _classical_scaling(d, k)
    if not np.all(np.isfinite(coords)) or (n > 1 and np.ptp(coords) < 1e-300):
        rng = np.random.default_rng(seed)
        coords = rng.uniform(0.0, max(float(d.max()), 1.0), size=(n, k))
        method = f"seeded random, after {method}"
    t1 = time.perf_counter()
    pd = _pairwise_distances(coords)
    s_prev = _raw_stress(d, pd)
    history = [s_prev]
    b = np.empty_like(d)
    for run in range(1, max_iters + 1):
        candidate = (_guttman_matrix(d, pd, out=b) @ coords) / n
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
    return GeodesicEmbedding(coords=coords, final_stress=s_prev,
                             stress_history=np.array(history), start_s=t1 - t0,
                             start_method=method,
                             smacof_s=time.perf_counter() - t1, iterations_run=run)


# -- embedding container file ------------------------------------------------
# A container file (see `container`): the header holds n, k, final_stress,
# seed and the iteration count, and the one block is the n x k embedding.
# Older files whose header says "has_distances": false load the same; one that
# still holds the n x n distance block fails the container's size check.

def save_embedding(path, emb: GeodesicEmbedding, seed: int) -> None:
    n, k = emb.coords.shape
    header = {"n": n, "k": k, "final_stress": float(emb.final_stress),
              "iterations": len(emb.stress_history), "seed": int(seed)}
    container.write(path, GEO_MAGIC, header, [emb.coords])


def load_embedding(path) -> tuple[dict, np.ndarray]:
    """The header and the (n, k) coordinates of an embedding file."""
    header, blocks = container.read(path, GEO_MAGIC, "an embedding", _embedding_layout)
    return header, blocks["coords"]


def _embedding_layout(header: dict) -> dict[str, tuple[int, ...]]:
    for key in ("n", "k"):
        if not container.is_count(header.get(key)):
            raise ValidationError(f"header field '{key}' must be a non-negative "
                                  f"integer, got {header.get(key)!r}")
    stress = header.get("final_stress")
    if isinstance(stress, bool) or not isinstance(stress, (int, float)):
        raise ValidationError(
            f"header field 'final_stress' must be a number, got {stress!r}")
    return {"coords": (header["n"], header["k"])}


def default_embedding_path(garment_path: str) -> str:
    """Conventional sibling file for a garment OBJ."""
    base = str(garment_path)
    return (base[:-4] if base.endswith(".obj") else base) + ".geo1"

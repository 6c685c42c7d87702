"""Reference computations the benchmark checks the program against.

Everything here is plain numpy (plus scipy for one eigensolver) and imports
nothing from the program: grid garments and their closed-form geodesics, the
raw MDS stress, a classical-scaling start, the stretch/bending/gravity terms,
and readers for the OBJ and embedding files the program writes.
"""

from __future__ import annotations

import json
import math

import numpy as np

GEO_MAGIC = b"ESLR-GEO1\n"


# -- grid garments --------------------------------------------------------------

def grid(n_side: int, size: float) -> tuple[np.ndarray, np.ndarray]:
    """Square n_side x n_side vertex grid in the XZ plane (y = 0), row-major
    over z then x, every quad split along its (r, c)-(r+1, c+1) diagonal."""
    xs = np.linspace(-size / 2.0, size / 2.0, n_side)
    zz, xx = np.meshgrid(xs, xs, indexing="ij")
    verts = np.stack([xx.ravel(), np.zeros(n_side * n_side), zz.ravel()], axis=1)
    r, c = np.meshgrid(np.arange(n_side - 1), np.arange(n_side - 1), indexing="ij")
    v0 = (r * n_side + c).ravel()
    v1, v2 = v0 + 1, v0 + n_side
    v3 = v2 + 1
    tris = np.empty((2 * len(v0), 3), dtype=np.int64)
    tris[0::2] = np.stack([v0, v1, v3], axis=1)
    tris[1::2] = np.stack([v0, v3, v2], axis=1)
    return verts, tris


def obj_text(verts: np.ndarray, tris: np.ndarray) -> str:
    lines = [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in verts]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in tris]
    return "\n".join(lines) + "\n"


def read_obj(path) -> tuple[np.ndarray, np.ndarray]:
    verts, tris = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            tok = line.split()
            if not tok:
                continue
            if tok[0] == "v":
                verts.append([float(t) for t in tok[1:4]])
            elif tok[0] == "f":
                tris.append([int(t.split("/")[0]) - 1 for t in tok[1:4]])
    return np.array(verts, dtype=np.float64).reshape(-1, 3), \
        np.array(tris, dtype=np.int64).reshape(-1, 3)


def grid_geodesics(n_side: int, spacing: float) -> np.ndarray:
    """All-pairs edge-path distances on `grid`, in closed form.

    A diagonal joins (r, c) and (r+1, c+1), so an offset (dr, dc) whose parts
    share a sign takes min(|dr|, |dc|) diagonals and walks the rest along the
    axes; otherwise only axis edges help and the distance is Manhattan.
    """
    idx = np.arange(n_side * n_side)
    r, c = idx // n_side, idx % n_side
    dr = r[None, :] - r[:, None]
    dc = c[None, :] - c[:, None]
    adr, adc = np.abs(dr), np.abs(dc)
    lo = np.minimum(adr, adc)
    same = (dr * dc) > 0
    diag = lo * math.sqrt(2.0) + (np.maximum(adr, adc) - lo)
    return np.where(same, diag, adr + adc) * spacing


# -- MDS -------------------------------------------------------------------------

def raw_stress(coords: np.ndarray, d: np.ndarray) -> float:
    """sum over i != j of (d_ij - |c_i - c_j|)^2, one dimension at a time so
    memory stays at a few n x n arrays."""
    pd2 = np.zeros_like(d)
    for col in coords.T:
        diff = col[:, None] - col[None, :]
        pd2 += diff * diff
    resid = d - np.sqrt(pd2)
    return float((resid * resid).sum())


def classical_scaling(d: np.ndarray, k: int) -> np.ndarray:
    """Torgerson start: top-k eigenpairs of the double-centred squared distances."""
    from scipy.linalg import eigh

    n = d.shape[0]
    d2 = d * d
    row = d2.mean(axis=1)
    gram = -0.5 * (d2 - row[:, None] - row[None, :] + row.mean())
    w, v = eigh(gram, subset_by_index=[n - k, n - 1])
    order = np.argsort(w)[::-1]
    return v[:, order] * np.sqrt(np.clip(w[order], 0.0, None))


def read_embedding(path) -> tuple[dict, np.ndarray]:
    with open(path, "rb") as fh:
        if fh.readline() != GEO_MAGIC:
            raise ValueError(f"{path}: bad magic line")
        header = json.loads(fh.readline().decode("utf-8"))
        n, k = int(header["n"]), int(header["k"])
        buf = fh.read(n * k * 8)
    if len(buf) != n * k * 8:
        raise ValueError(f"{path}: truncated coordinates")
    return header, np.frombuffer(buf, dtype="<f8").reshape(n, k).copy()


# -- cloth physics ------------------------------------------------------------------

def edges_and_hinges(tris: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique edges (i < j) and hinges [i, j, p, q] for edges shared by two
    triangles, p and q being the vertices opposite the edge."""
    opposite: dict[tuple[int, int], list[int]] = {}
    for a, b, c in tris.tolist():
        for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
            opposite.setdefault((min(u, v), max(u, v)), []).append(w)
    edges = np.array(sorted(opposite), dtype=np.int64).reshape(-1, 2)
    hinges = np.array([[i, j, *opp] for (i, j), opp in sorted(opposite.items())
                       if len(opp) == 2], dtype=np.int64).reshape(-1, 4)
    return edges, hinges


def lumped_masses(verts: np.ndarray, tris: np.ndarray, density: float) -> np.ndarray:
    """One third of each incident triangle's area, times the area density."""
    a, b, c = (verts[tris[:, i]] for i in range(3))
    area = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    return density * np.bincount(tris.ravel(), weights=np.repeat(area / 3.0, 3),
                                 minlength=len(verts))


def stretch(x: np.ndarray, edges: np.ndarray, rest_len: np.ndarray,
            k_stretch: float) -> float:
    """sum over edges of (k/2) (|x_i - x_j| - L)^2 / L."""
    strain = np.linalg.norm(x[edges[:, 0]] - x[edges[:, 1]], axis=1) - rest_len
    return float(0.5 * k_stretch * (strain * strain / rest_len).sum())


def fold_angles(x: np.ndarray, hinges: np.ndarray) -> np.ndarray:
    """Signed angle between the two face normals of each hinge; zero when flat,
    so the dihedral is pi minus this angle."""
    xi, xj, xp, xq = (x[hinges[:, i]] for i in range(4))
    e = xj - xi
    n1 = np.cross(e, xp - xi)
    n2 = np.cross(xq - xi, e)
    n1 /= np.linalg.norm(n1, axis=1, keepdims=True)
    n2 /= np.linalg.norm(n2, axis=1, keepdims=True)
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    return np.arctan2((np.cross(n1, n2) * e).sum(axis=1), (n1 * n2).sum(axis=1))


def bending(x: np.ndarray, hinges: np.ndarray, k_bend: float) -> float:
    """sum over hinges of (k_b/2) (theta - pi)^2 against a flat rest state."""
    phi = fold_angles(x, hinges)
    return float(0.5 * k_bend * (phi * phi).sum())


def gravity(x: np.ndarray, masses: np.ndarray, g: float, up_axis: int = 1) -> float:
    """Signed potential energy sum_i m_i g height_i."""
    return float(g * (masses * x[:, up_axis]).sum())


def write_embedding(path, coords: np.ndarray) -> None:
    """An embedding file in the program's documented format: magic line, JSON
    header line, then n x k little-endian f64."""
    n, k = coords.shape
    header = {"n": n, "k": k, "final_stress": 0.0, "iterations": 0, "seed": 0,
              "has_distances": False}
    with open(path, "wb") as fh:
        fh.write(GEO_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        fh.write(np.ascontiguousarray(coords, dtype="<f8").tobytes())

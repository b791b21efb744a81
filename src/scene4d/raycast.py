"""Ray-triangle intersection (Moller-Trumbore) behind one culled batch kernel.

Both triangle orientations are accepted; hits require t > 1e-9 so a ray
never re-hits the surface it starts on. Barycentric weights are returned
as (b0, b1, b2) for vertices (v0, v1, v2), so the hit point is
b0*v0 + b1*v1 + b2*v2.

Accepted region: a (ray, triangle) pair hits when |det| >= 1e-12,
b1 >= -1e-9, b2 >= -1e-9, b1 + b2 <= 1 + 1e-9 (that is, b0 >= -1e-9 up
to rounding) and t > 1e-9. All three weights get the same slack, so there
is no separate b1 <= 1 + 1e-9 test; b1 <= 1 + 2e-9 follows from the
others.

`raycast_batch` is exact: it returns bitwise what testing every ray
against every triangle with the per-pair arithmetic below returns. It
only skips pairs that cannot hit. As in the light buffer (Haines &
Greenberg 1986), rays from the one origin are binned by direction and
triangles by the directions they cover:

- A ray d belongs to the cube face of its dominant axis k (|d_k| is
  largest) and the sign s of d_k, at face coordinates
  (u, v) = (d_a, d_b) / (s d_k) for the other axes a and b. Rays are
  taken _RAY_CHUNK at a time, a quarter of a 256 x 256 frame, so numpy's
  per-call cost is paid a few times per frame. Each face's rays are
  sorted by cell on a grid of about one ray per cell spanning their
  (u, v) extent.
- A triangle's box, relative to the origin, is padded by _PAD_REL of its
  largest extent plus _PAD_ABS and cut at s x_k >= _NEAR. Over the cut
  box, s x_k lies in [z0, z1] with z0 > 0, so x_a / (s x_k) lies in
  [min(lo_a / z0, lo_a / z1), max(hi_a / z0, hi_a / z1)]: the u it
  covers, and likewise v. A box that meets the near cube
  [-_NEAR, _NEAR]^3 covers every face whole.
- Each (triangle, cell row) covered is one run of sorted rays; the runs
  are pair-tested _PAIR_BLOCK pairs at a time. The per-triangle terms
  are packed in one (m, 13) array, so a block gathers them in one take.

Why culling drops no pair the full test accepts:

- The padded box holds the hit. An accepted pair meets the triangle's
  plane, at some t > 0, within the 1e-9 slack plus the rounding error of
  b1 and b2. The relative pad covers errors up to 1e-3, and the absolute
  one the rounding of the box's corners relative to the origin. Errors
  that large need det to be rounding noise near its 1e-12 guard:
  coordinates far beyond 1e3, or an origin within about 1e-12 of the
  plane of a triangle its ray grazes.
- The hit q = t d has q_a / (s q_k) = u exactly, and |q_a|, |q_b| <= s q_k.
  If s q_k >= _NEAR, q lies in the cut box, so u lies in its interval. If
  s q_k < _NEAR, q lies in the near cube, so the box meets it and covers
  the whole face.
- Division is correctly rounded and rounding is monotone, so the
  computed u stays within the computed interval ends. The cell map, the
  offset from the grid's corner times a scale, clipped to the grid and
  truncated, is monotone too, so the ray's cell lies in the triangle's
  block of cells.
- Non-finite and zero directions are not binned, and they never hit:
  their det is 0 or nan, or it is infinite and t = tq * 0. A triangle
  with a non-finite vertex never hits either (its det or t comes out nan,
  inf or 0), and it covers no face.

Why equal t keeps the lowest index: the runs are walked triangle-major
and a ray lies in one cell row, so a ray meets its triangles in
ascending index order, within a block and from block to block. A block
sorts its hits stably by (ray, t) and takes the head of each ray's run:
the nearest t, and on equal t the lowest index. It replaces a ray's hit
only when strictly nearer. The result does not depend on the ray order.
Working memory is set by _RAY_CHUNK, _PAIR_BLOCK and the per-triangle
terms, not by rays x triangles as in the brute-force form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_DET_EPS = 1e-12
_BARY_EPS = 1e-9
_T_MIN = 1e-9
_RAY_CHUNK = 16384    # rays binned together, on one grid per cube face
_PAIR_BLOCK = 4096    # (triangle, row) runs, then (ray, triangle) pairs, per block
_PAD_REL = 1e-3       # triangle box pad, relative to the box's largest extent,
_PAD_ABS = 1e-6       # plus this much in scene units
_NEAR = 1e-4          # boxes are cut at s * x_k >= _NEAR; the near cube's half-width


@dataclass
class TriangleSoup:
    """Triangles of several meshes in one array, each tagged with its source."""

    tris: np.ndarray      # (M, 3, 3)
    owner: np.ndarray     # (M,) owner id of the mesh each triangle came from
    face: np.ndarray      # (M,) face index within that mesh


def triangle_soup(meshes, owners) -> TriangleSoup:
    """Concatenate (vertices (V, 3), faces (F, 3)) pairs into one soup.

    The faces of meshes[k] are tagged with owner id owners[k].
    """
    tris = [np.zeros((0, 3, 3))]
    owner = [np.zeros(0, dtype=np.int64)]
    face = [np.zeros(0, dtype=np.int64)]
    for oid, (verts, faces) in zip(owners, meshes, strict=True):
        faces = np.asarray(faces, dtype=np.int64)
        tris.append(np.asarray(verts, dtype=np.float64)[faces])
        owner.append(np.full(len(faces), oid, dtype=np.int64))
        face.append(np.arange(len(faces), dtype=np.int64))
    return TriangleSoup(np.concatenate(tris), np.concatenate(owner), np.concatenate(face))


def raycast_batch(origin, directions, triangles):
    """All rays from one origin against all triangles; nearest hit per ray.

    directions: (n, 3), triangles: (m, 3, 3). Returns
    (t, tri_index, bary) with t = inf and tri_index = -1 for misses.
    Ties on t resolve to the lowest triangle index.
    """
    dirs = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
    tris = np.asarray(triangles, dtype=np.float64).reshape(-1, 3, 3)
    origin = np.asarray(origin, dtype=np.float64).reshape(3)
    n, m = dirs.shape[0], tris.shape[0]
    # nearest t, its triangle (-1 for a miss) and barycentrics, filled in place
    best = (np.full(n, np.inf), np.full(n, -1, dtype=np.int64), np.zeros((n, 3)))

    if m:
        e1 = tris[:, 1] - tris[:, 0]            # (m, 3)
        e2 = tris[:, 2] - tris[:, 0]
        tvec = origin[None, :] - tris[:, 0]
        qvec = np.cross(tvec, e1)
        tq = np.einsum("mk,mk->m", e2, qvec)
        terms = np.column_stack([e1, e2, tvec, qvec, tq])     # (m, 13), one row per triangle
        del e1, e2, tvec, qvec, tq          # the blocks read only the packed rows
        covers = _face_covers(tris, origin)
        for start in range(0, n, _RAY_CHUNK):
            d = dirs[start:start + _RAY_CHUNK]
            axis = np.abs(d).argmax(axis=1)
            dk = d[np.arange(len(d)), axis]
            face = 2 * axis + (dk < 0)
            face[(dk == 0) | ~np.isfinite(d).all(axis=1)] = -1    # never hits
            for f, cover in enumerate(covers):
                ray = np.flatnonzero(face == f)
                if len(ray) and len(cover[0]):
                    k = f // 2
                    uv = d[ray][:, [(k + 1) % 3, (k + 2) % 3]] / np.abs(dk[ray, None])
                    _cast_face(dirs, terms, best, start + ray, uv, *cover)

    best_t, best_tri, bary = best
    hit = best_tri >= 0
    bary[hit, 0] = 1.0 - bary[hit, 1] - bary[hit, 2]
    return best_t, best_tri, bary


def _face_covers(tris, origin):
    """For each cube face 2k + (s < 0), the triangles that can meet a ray
    of that face and their (p, 2) [lo, hi] boxes in (u, v), in triangle
    order. A box meeting the near cube covers every face."""
    v0, v1, v2 = tris.transpose(1, 0, 2)
    lo = np.minimum(np.minimum(v0, v1), v2) - origin
    hi = np.maximum(np.maximum(v0, v1), v2) - origin
    with np.errstate(invalid="ignore"):     # inf - inf at a non-finite vertex
        pad = _PAD_REL * (hi - lo).max(axis=1, keepdims=True) + _PAD_ABS
    lo, hi = lo - pad, hi + pad
    finite = np.isfinite(lo).all(axis=1) & np.isfinite(hi).all(axis=1)
    whole = finite & (lo <= _NEAR).all(axis=1) & (hi >= -_NEAR).all(axis=1)
    covers = []
    for k in range(3):
        ab = [(k + 1) % 3, (k + 2) % 3]
        for near, far in ((lo[:, k], hi[:, k]), (-hi[:, k], -lo[:, k])):
            z0 = np.maximum(near, _NEAR)
            tri = np.flatnonzero(whole | (finite & (far >= z0)))
            z0, z1 = z0[tri, None], far[tri, None]
            a, b = lo[tri][:, ab], hi[tri][:, ab]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                u_lo = np.minimum(a / z0, a / z1)
                u_hi = np.maximum(b / z0, b / z1)
            w = whole[tri, None]
            covers.append((tri, np.where(w, -np.inf, u_lo), np.where(w, np.inf, u_hi)))
    return covers


def _cast_face(dirs, terms, best, ray, uv, tri, tri_lo, tri_hi):
    """Pair-test the rays of one cube face, at face coordinates uv (n, 2),
    against the triangles whose (u, v) boxes [tri_lo, tri_hi] meet their
    cells, and fold the hits into `best`."""
    lo, hi = uv.min(axis=0), uv.max(axis=0)
    keep = np.flatnonzero((tri_lo <= hi).all(axis=1) & (tri_hi >= lo).all(axis=1))
    # A g x g grid over the rays' extent, about one ray per cell. The cell
    # map is monotone, so a box of (u, v) covers a block of cells.
    g = math.isqrt(len(ray) - 1) + 1
    with np.errstate(divide="ignore", over="ignore"):
        scale = g / (hi - lo)
    scale = np.where(np.isfinite(scale), scale, 0.0)

    def cells(x):
        return np.clip((x - lo) * scale, 0, g - 1).astype(np.int64)
    cell = cells(uv) @ [1, g]
    order = np.argsort(cell, kind="stable")
    cell = cell[order]
    c0 = cells(np.maximum(tri_lo[keep], lo))
    c1 = cells(np.minimum(tri_hi[keep], hi))
    # Each (triangle, cell row) is one run of sorted rays.
    for e, off in _ranges(c1[:, 1] - c0[:, 1] + 1):
        row = (c0[e, 1] + off) * g
        first = np.searchsorted(cell, row + c0[e, 0])
        last = np.searchsorted(cell, row + c1[e, 0], side="right")
        for p, off in _ranges(last - first):
            _pair_test(dirs, terms, ray[order[first[p] + off]], tri[keep[e[p]]], best)


def _ranges(length):
    """The (index, offset) of every slot of the concatenated ranges
    [0, length[i]), _PAIR_BLOCK slots at a time."""
    end = np.cumsum(length)
    total = int(end[-1]) if len(end) else 0
    for s in range(0, total, _PAIR_BLOCK):
        slot = np.arange(s, min(s + _PAIR_BLOCK, total))
        index = np.searchsorted(end, slot, side="right")
        yield index, slot - end[index] + length[index]


def _pair_test(dirs, terms, ray, tri, best):
    """Moller-Trumbore of each (ray, tri) pair, folded into `best`.

    The per-pair expressions are those of the brute-force form, so results
    are bitwise equal to it. `best` is (t, tri, bary) per ray, with b1 and
    b2 in bary's last two columns; a pair replaces it when nearer, and each
    ray's pairs arrive in ascending triangle order, so on equal t the
    lowest triangle index stays.
    """
    g = terms.take(tri, axis=0)
    e1, e2, tvec, qvec, tq = g[:, 0:3], g[:, 3:6], g[:, 6:9], g[:, 9:12], g[:, 12]
    d = dirs[ray]
    # Determinants below the guard may be subnormal, and non-finite input
    # makes nan; neither can pass the tests below, so neither warns.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pvec = np.cross(d, e2)
        det = np.einsum("pk,pk->p", e1, pvec)
        inv_det = np.where(np.abs(det) >= _DET_EPS, 1.0 / det, 0.0)
        b1 = np.einsum("pk,pk->p", tvec, pvec) * inv_det
        b2 = np.einsum("pk,pk->p", d, qvec) * inv_det
        t = tq * inv_det
        ok = (np.abs(det) >= _DET_EPS) \
            & (b1 >= -_BARY_EPS) & (b2 >= -_BARY_EPS) \
            & (b1 + b2 <= 1.0 + _BARY_EPS) & (t > _T_MIN)
    ray, tri, t, b1, b2 = ray[ok], tri[ok], t[ok], b1[ok], b2[ok]
    nearest = np.lexsort((t, ray))      # stable: equal (ray, t) stay in triangle order
    first = nearest[np.diff(ray[nearest], prepend=-1) != 0]     # each ray's nearest
    best_t, best_tri, bary = best
    win = first[t[first] < best_t[ray[first]]]
    r = ray[win]
    best_t[r], best_tri[r], bary[r, 1], bary[r, 2] = t[win], tri[win], b1[win], b2[win]

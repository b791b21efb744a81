"""Ray-triangle intersection (Moller-Trumbore) behind one culled batch kernel.

Both triangle orientations are accepted; hits require t > 1e-9 so a ray
never re-hits the surface it starts on. Barycentric weights are returned
as (b0, b1, b2) for vertices (v0, v1, v2), so the hit point is
b0*v0 + b1*v1 + b2*v2.

Accepted region: a (ray, triangle) pair hits when |det| >= 1e-12,
b1 >= -1e-9, b2 >= -1e-9, b1 + b2 <= 1 + 1e-9 (that is, b0 >= -1e-9 up
to rounding) and t > 1e-9. All three weights get the same slack, so there
is no separate b1 <= 1 + 1e-9 test; b1 <= 1 + 2e-9 follows from the
others. The scalar `raycast` is a one-ray call of `raycast_batch`, so both
accept exactly this region.

`raycast_batch` is exact: it returns bitwise what testing every ray
against every triangle with the per-pair arithmetic below returns. It
only skips pairs that cannot hit. Triangles are sorted along a Morton
curve of their centroids and grouped _LEAF_SIZE to a leaf; the leaf boxes
are merged pairwise up to one root, and rays walk that tree with the
ray-box slab test (Kay & Kajiya 1986). Each leaf box is padded by 1e-3 of
its largest extent plus 1e-6. A pair the full test accepts meets the
triangle's plane within the 1e-9 slack plus the rounding error of b1 and
b2, and the pad covers errors up to 1e-3, so culling drops no such pair.
Errors that large need det to be rounding noise near its 1e-12 guard:
coordinates far beyond 1e3, or an origin within about 1e-12 of the plane
of a triangle its ray grazes.

Coherent rays are culled in packets (Wald, Slusallek, Benthin & Wagner
2001) by the interval slab test (Wald, Boulos & Shirley 2007): each
_PACKET consecutive rays walk the tree together, testing boxes against
the packet's [min, max] of 1/d per axis. Rounding is monotone, so a box
the packet drops is one every ray's own slab test drops (see
`_meets_interval`); a zero, non-finite or sign-mixed direction only
widens an interval. By the argument above, a ray of an accepted pair
passes the slab test of that pair's leaf and of every ancestor, so its
packet keeps them all; each ray of a packet is then pair-tested against
every leaf the packet kept. Packets that keep more than 2 x (tree levels)
nodes at some level (incoherent directions) walk the tree ray by ray. The
result does not depend on the ray order; coherent order only lets more be
culled.

Memory: rays are processed _RAY_CHUNK at a time. A packet keeps at most
2 x (tree levels) nodes per level, and (ray, leaf) pairs are tested
_PAIR_BLOCK at a time. Working memory is therefore set by those constants
and the number of leaf boxes a packet keeps, not by the triangle count
(the brute-force form needed rays x triangles x 3 floats per temporary).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_DET_EPS = 1e-12
_BARY_EPS = 1e-9
_T_MIN = 1e-9
_LEAF_SIZE = 4        # triangles per leaf box
_RAY_CHUNK = 4096     # rays walked down the tree together
_PAIR_BLOCK = 4096    # (ray, leaf) pairs expanded to triangles together
_PAD_REL = 1e-3       # leaf box pad, relative to the box's largest extent,
_PAD_ABS = 1e-6       # plus this much in scene units
_PACKET = 16          # consecutive rays culled together by their 1/d bounds


@dataclass
class RayHit:
    t: float
    bary: np.ndarray  # (3,) weights summing to 1


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


def raycast(origin, direction, triangle) -> RayHit | None:
    """Intersect one ray with one triangle; None means a miss.

    `triangle` is (v0, v1, v2) as a (3, 3) array-like. The returned t is
    in units of `direction` (which need not be normalized).
    """
    direction = np.asarray(direction, dtype=np.float64).reshape(3)
    if not np.any(direction):
        raise ValueError("ray direction must be nonzero")
    t, idx, bary = raycast_batch(origin, direction[None, :],
                                 np.asarray(triangle, dtype=np.float64).reshape(1, 3, 3))
    if idx[0] < 0:
        return None
    return RayHit(t=float(t[0]), bary=bary[0])


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
    best_t = np.full(n, np.inf)
    best_tri = np.zeros(n, dtype=np.int64)
    bb1 = np.zeros(n)
    bb2 = np.zeros(n)

    if m:
        e1 = tris[:, 1] - tris[:, 0]            # (m, 3)
        e2 = tris[:, 2] - tris[:, 0]
        tvec = origin[None, :] - tris[:, 0]
        qvec = np.cross(tvec, e1)
        tq = np.einsum("mk,mk->m", e2, qvec)
        leaf_tri, levels = _leaf_tree(tris)
        # Per-leaf copies of the per-triangle terms. Slot index m is an
        # all-zero triangle: its det is exactly 0, so it never hits.
        terms = [np.concatenate([a, np.zeros((1,) + a.shape[1:])])[leaf_tri]
                 for a in (e1, e2, tvec, qvec, tq)]
        levels = [((lo - origin).T, (hi - origin).T) for lo, hi in levels]
        for start in range(0, n, _RAY_CHUNK):
            found = _cast_chunk(dirs[start:start + _RAY_CHUNK], levels, terms, leaf_tri)
            if not found:
                continue
            r, tri, t, b1, b2 = (np.concatenate(col) for col in zip(*found))
            nearest = np.lexsort((tri, t, r))
            first = nearest[np.unique(r[nearest], return_index=True)[1]]
            win = start + r[first]
            best_t[win], best_tri[win] = t[first], tri[first]
            bb1[win], bb2[win] = b1[first], b2[first]

    hit = np.isfinite(best_t)
    tri_index = np.where(hit, best_tri, -1)
    bary = np.stack([1.0 - bb1 - bb2, bb1, bb2], axis=1)
    bary[~hit] = 0.0
    return best_t, tri_index, bary


def _cast_chunk(dirs, levels, terms, leaf_tri):
    """The accepted (ray, tri, t, b1, b2) pairs of one chunk of rays, as a
    list of blocks; ray indices are local to the chunk.

    Packets of _PACKET consecutive rays walk the tree with the slab test
    on their [min, max] of 1/d; every ray of a packet is then pair-tested
    against each leaf the packet kept. Rays of packets that keep more than
    2 x (tree levels) nodes at some level walk the tree alone.
    """
    with np.errstate(divide="ignore", over="ignore"):
        inv_d = (1.0 / dirs).T
    starts = np.arange(0, len(dirs), _PACKET)
    inv_lo = np.minimum.reduceat(inv_d, starts, axis=1)
    inv_hi = np.maximum.reduceat(inv_d, starts, axis=1)
    packet, leaf, wide = _walk(
        levels, lambda lo, hi, p: _meets_interval(lo, hi, inv_lo[:, p], inv_hi[:, p]),
        np.arange(len(starts)), cap=2 * len(levels))
    lone, _ = _packet_rays(wide, len(dirs))
    ray, lone_leaf, _ = _walk(levels, lambda lo, hi, r: _crosses(lo, hi, inv_d[:, r]), lone)
    found = [_pair_test(dirs, terms, leaf_tri, ray[s:s + _PAIR_BLOCK], lone_leaf[s:s + _PAIR_BLOCK])
             for s in range(0, len(ray), _PAIR_BLOCK)]
    step = _PAIR_BLOCK // _PACKET
    for s in range(0, len(packet), step):
        ray, keep = _packet_rays(packet[s:s + step], len(dirs))
        found.append(_pair_test(dirs, terms, leaf_tri, ray, np.repeat(leaf[s:s + step], _PACKET)[keep]))
    return found


def _packet_rays(packet, n):
    """The rays of the given packets of an n-ray chunk, and which of the
    _PACKET slots per packet hold a ray (the last packet may be short)."""
    ray = (packet[:, None] * _PACKET + np.arange(_PACKET)).ravel()
    keep = ray < n
    return ray[keep], keep


def _pair_test(dirs, terms, leaf_tri, ray, leaf):
    """Moller-Trumbore of each ray against every triangle of its leaf.

    The per-pair expressions are those of the brute-force form, so results
    are bitwise equal to it. Returns the accepted pairs as
    (ray, tri, t, b1, b2).
    """
    e1, e2, tvec, qvec, tq = (np.take(a, leaf, axis=0) for a in terms)   # (P, _LEAF_SIZE[, 3])
    d = dirs[ray]
    # Determinants below the guard may be subnormal, and non-finite input
    # makes nan; neither can pass the tests below, so neither warns.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pvec = np.cross(d[:, None, :], e2)
        det = np.einsum("plk,plk->pl", e1, pvec)
        inv_det = np.where(np.abs(det) >= _DET_EPS, 1.0 / det, 0.0)
        b1 = np.einsum("plk,plk->pl", tvec, pvec) * inv_det
        b2 = np.einsum("pk,plk->pl", d, qvec) * inv_det
        t = tq * inv_det
        ok = (np.abs(det) >= _DET_EPS) \
            & (b1 >= -_BARY_EPS) & (b2 >= -_BARY_EPS) \
            & (b1 + b2 <= 1.0 + _BARY_EPS) & (t > _T_MIN)
    pair, slot = np.nonzero(ok)
    return ray[pair], leaf_tri[leaf[pair], slot], t[ok], b1[ok], b2[ok]


def _morton(cells):
    """Interleave the bits of three 10-bit integer columns into one code."""
    code = np.zeros(len(cells), dtype=np.int64)
    for axis in range(3):
        x = cells[:, axis]
        x = (x | (x << 16)) & 0x030000FF
        x = (x | (x << 8)) & 0x0300F00F
        x = (x | (x << 4)) & 0x030C30C3
        x = (x | (x << 2)) & 0x09249249
        code |= x << (2 - axis)
    return code


def _leaf_tree(tris):
    """Triangle index of each leaf slot and the padded box levels, leaves first.

    Leaf j holds the Morton-sorted triangles [j * _LEAF_SIZE, (j + 1) *
    _LEAF_SIZE); slots past the last triangle hold len(tris). Node j of a
    level covers nodes 2j and 2j + 1 of the level below, and the last level
    is the root alone.
    """
    m = len(tris)
    # A triangle with a non-finite vertex never hits (its det or t comes out
    # nan, inf or 0). It sorts as if at the origin and gets a nan box, which
    # fmin and fmax skip, so it cannot hide the other triangles of its leaf.
    finite = np.isfinite(tris).all(axis=(1, 2))[:, None]
    with np.errstate(invalid="ignore"):
        cent = np.where(finite, tris.mean(axis=1), 0.0)
    span = np.ptp(cent, axis=0)
    cells = ((cent - cent.min(axis=0)) / np.where(span > 0, span, 1.0) * 1023).astype(np.int64)
    order = np.argsort(_morton(cells), kind="stable")
    starts = np.arange(0, m, _LEAF_SIZE)
    lo = np.fmin.reduceat(np.where(finite, tris.min(axis=1), np.nan)[order], starts)
    hi = np.fmax.reduceat(np.where(finite, tris.max(axis=1), np.nan)[order], starts)
    pad = _PAD_REL * (hi - lo).max(axis=1, keepdims=True) + _PAD_ABS
    levels = [(lo - pad, hi + pad)]
    while len(levels[-1][0]) > 1:
        lo, hi = levels[-1]
        pairs = np.arange(0, len(lo), 2)
        levels.append((np.fmin.reduceat(lo, pairs), np.fmax.reduceat(hi, pairs)))
    leaf_tri = np.full(len(starts) * _LEAF_SIZE, m)
    leaf_tri[:m] = order
    return leaf_tri.reshape(-1, _LEAF_SIZE), levels


def _walk(levels, crosses, item, cap=None):
    """Breadth-first descent from the root: the (item, leaf) pairs whose
    boxes pass `crosses(lo, hi, item)`, and the items dropped for keeping
    more than `cap` nodes at some level.

    Box corners in `levels` are (3, nodes) arrays relative to the origin;
    `crosses` gets the corners of each (item, node) pair as (3, pairs)
    arrays and its items, and returns a keep mask.
    """
    node = np.zeros(len(item), dtype=np.int64)
    dropped = [np.zeros(0, dtype=np.int64)]
    for depth, (lo, hi) in enumerate(reversed(levels)):
        if depth:
            item = np.repeat(item, 2)
            node = (2 * node[:, None] + (0, 1)).ravel()
            keep = node < lo.shape[1]
            item, node = item[keep], node[keep]
        keep = crosses(lo[:, node], hi[:, node], item)
        item, node = item[keep], node[keep]
        if not len(item):
            break
        if cap is not None:
            wide = np.bincount(item)[item] > cap
            if wide.any():
                dropped.append(np.unique(item[wide]))
                item, node = item[~wide], node[~wide]
    return item, node, np.concatenate(dropped)


def _crosses(lo, hi, inv_d):
    """Slab test: does each ray meet its box [lo, hi] at some t >= 0?

    All arguments are (3, P). A zero direction component makes inv_d
    infinite; an origin exactly on that slab's face then gives
    0 * inf = nan, which fmax/fmin skip, so the axis does not constrain
    and the test stays conservative.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        t1 = lo * inv_d
        t2 = hi * inv_d
    near = np.minimum(t1, t2)
    far = np.maximum(t1, t2)
    enter = np.fmax(np.fmax(near[0], near[1]), near[2])
    leave = np.fmin(np.fmin(far[0], far[1]), far[2])
    return (enter <= leave) & (leave >= 0.0)


def _meets_interval(lo, hi, inv_lo, inv_hi):
    """Slab test of a packet: False only when every ray whose inverse
    direction lies in [inv_lo, inv_hi] on each axis fails `_crosses`.

    All arguments are (3, P). Rounding is monotone, so each ray's
    lo * inv_d lies between lo * inv_lo and lo * inv_hi, and likewise for
    hi; the least and greatest of the four products bound every ray's
    near and far on that axis. A nan product (0 * inf, or a nan
    direction) means some ray leaves that axis free, so the axis is made
    unconstrained rather than skipped.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        t = np.stack([lo * inv_lo, lo * inv_hi, hi * inv_lo, hi * inv_hi])
        free = np.isnan(t).any(axis=0)
        near = np.where(free, -np.inf, t.min(axis=0))
        far = np.where(free, np.inf, t.max(axis=0))
    enter = near.max(axis=0)
    leave = far.min(axis=0)
    return (enter <= leave) & (leave >= 0.0)

"""The culled ray caster against the dense brute-force form it replaced:
bitwise equality on adversarial soups and rendered scenes, the accepted
barycentric region, and working memory that stays flat in triangle count."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import demo_scene, identity_camera
from scene4d import synth
from scene4d.geometry import intrinsics
from scene4d.raycast import raycast, raycast_batch
from scene4d.rng import SplitMix64
from scene4d.synth import SceneObject, SceneSpec, plane_mesh, spin_path

_DET_EPS = 1e-12
_BARY_EPS = 1e-9
_T_MIN = 1e-9


def brute_force_raycast_batch(origin, directions, triangles):
    """Reference: every ray against every triangle, with (n, m, 3) temporaries.

    This is the dense kernel `raycast_batch` had before culling, kept
    verbatim; the culled kernel must return bitwise the same arrays.
    """
    dirs = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
    tris = np.asarray(triangles, dtype=np.float64).reshape(-1, 3, 3)
    origin = np.asarray(origin, dtype=np.float64).reshape(3)
    n, m = dirs.shape[0], tris.shape[0]
    if m == 0:
        return (np.full(n, np.inf), np.full(n, -1, dtype=np.int64),
                np.zeros((n, 3)))

    e1 = tris[:, 1] - tris[:, 0]            # (m, 3)
    e2 = tris[:, 2] - tris[:, 0]
    pvec = np.cross(dirs[:, None, :], e2[None, :, :])       # (n, m, 3)
    det = np.einsum("mk,nmk->nm", e1, pvec)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_det = np.where(np.abs(det) >= _DET_EPS, 1.0 / det, 0.0)
    tvec = origin[None, :] - tris[:, 0]                      # (m, 3)
    b1 = np.einsum("mk,nmk->nm", tvec, pvec) * inv_det
    qvec = np.cross(tvec, e1)                                # (m, 3)
    b2 = np.einsum("nk,mk->nm", dirs, qvec) * inv_det
    t = np.einsum("mk,mk->m", e2, qvec)[None, :] * inv_det

    ok = (np.abs(det) >= _DET_EPS) \
        & (b1 >= -_BARY_EPS) & (b2 >= -_BARY_EPS) \
        & (b1 + b2 <= 1.0 + _BARY_EPS) & (t > _T_MIN)
    t = np.where(ok, t, np.inf)
    idx = np.argmin(t, axis=1)
    rows = np.arange(n)
    best_t = t[rows, idx]
    hit = np.isfinite(best_t)
    tri_index = np.where(hit, idx, -1).astype(np.int64)
    bb1 = np.where(hit, b1[rows, idx], 0.0)
    bb2 = np.where(hit, b2[rows, idx], 0.0)
    bary = np.stack([1.0 - bb1 - bb2, bb1, bb2], axis=1)
    bary[~hit] = 0.0
    return best_t, tri_index, bary


def assert_bitwise_equal(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def jittered_sphere(seed, slices, stacks, centre, radius):
    """Closed UV sphere, 2 * slices * (stacks - 1) triangles, with seeded
    per-vertex radial jitter -> (vertices, faces)."""
    polar = math.pi * np.arange(1, stacks) / stacks
    azimuth = 2 * math.pi * np.arange(slices) / slices
    ring = np.stack([np.outer(np.sin(polar), np.cos(azimuth)),
                     np.outer(np.cos(polar), np.ones(slices)),
                     np.outer(np.sin(polar), np.sin(azimuth))], axis=-1).reshape(-1, 3)
    unit = np.vstack([[0.0, 1.0, 0.0], ring, [0.0, -1.0, 0.0]])
    scale = radius * (0.92 + 0.16 * SplitMix64(seed).uniform_array(len(unit)))
    verts = unit * scale[:, None] + np.asarray(centre, dtype=np.float64)

    def at(i, j):       # vertex j of ring i (1-based rings)
        return 1 + (i - 1) * slices + j % slices
    bottom = len(unit) - 1
    faces = [[0, at(1, j + 1), at(1, j)] for j in range(slices)]
    for i in range(1, stacks - 1):
        for j in range(slices):
            a, b, c, d = at(i, j), at(i, j + 1), at(i + 1, j), at(i + 1, j + 1)
            faces += [[a, b, d], [a, d, c]]
    faces += [[bottom, at(stacks - 1, j), at(stacks - 1, j + 1)] for j in range(slices)]
    return verts, np.array(faces)


def camera_rays(res):
    """Pixel-centre ray directions of an identity camera at the origin."""
    fx, fy, cx, cy = intrinsics(identity_camera(), res, res)
    uu, vv = np.meshgrid(np.arange(res) + 0.5, np.arange(res) + 0.5)
    return np.stack([(uu - cx) / fx, (vv - cy) / fy, np.ones_like(uu)], axis=-1).reshape(-1, 3)


# ---------------------------------------------------------------------------
# bitwise equality on adversarial triangle soups

# A coarse dyadic grid makes shared vertices and edges, coplanar and
# duplicated triangles, zero-area triangles, exactly-zero direction
# components and rays through vertices and edges common, and keeps their
# arithmetic exact.
_grid = st.integers(-8, 8).map(lambda k: k / 4)
_point = st.tuples(_grid, _grid, _grid)
_float = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


@st.composite
def soups(draw):
    """(origin, directions, triangles) with the degenerate cases that matter."""
    if draw(st.booleans()):
        pool = np.array(draw(st.lists(_point, min_size=3, max_size=10)))
        origin = np.array(draw(_point))
    else:
        pool = np.array(draw(st.lists(st.tuples(_float, _float, _float), min_size=3, max_size=10)))
        origin = np.array(draw(st.tuples(_float, _float, _float)))
    # m = 0 and m not a multiple of the leaf size included; repeated vertex
    # indices give zero-area triangles.
    faces = draw(st.lists(st.lists(st.integers(0, len(pool) - 1), min_size=3, max_size=3),
                          max_size=40))
    tris = pool[np.array(faces, dtype=np.int64).reshape(-1, 3)]
    if len(tris):
        # Duplicated coplanar triangles, some with cycled vertices: equal t
        # on different indices exercises the lowest-index tie-break.
        dup = draw(st.lists(st.integers(0, len(tris) - 1), max_size=4))
        tris = np.concatenate([tris, tris[dup], tris[dup][:, [1, 2, 0]]])
    if len(tris) and draw(st.booleans()):
        # Origin on a triangle, so inside its leaf box.
        origin = tris[draw(st.integers(0, len(tris) - 1))].mean(axis=0)

    dirs = [draw(st.tuples(*[st.integers(-2, 2).map(float)] * 3)) for _ in range(draw(st.integers(0, 6)))]
    # Rays through pool vertices and edge midpoints.
    targets = np.concatenate([pool, (pool + np.roll(pool, 1, axis=0)) / 2])
    dirs += list(targets - origin)
    for tri in tris[:6]:
        # Grazing rays: along an edge, and tilted off the plane by a hair.
        e1, e2 = tri[1] - tri[0], tri[2] - tri[0]
        normal = np.cross(e1, e2)
        dirs += [tri[1] - origin, e1, e1 + 2.0 ** -30 * normal, (e1 + e2) / 2 - 2.0 ** -40 * normal]
    dirs = np.array(dirs, dtype=np.float64).reshape(-1, 3)
    if len(tris) and draw(st.booleans()):
        # A non-finite vertex: that triangle never hits, and its box must
        # not hide the other triangles of its leaf.
        tris[draw(st.integers(0, len(tris) - 1)), draw(st.integers(0, 2)),
             draw(st.integers(0, 2))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return origin, dirs, tris


# Non-finite vertices make both kernels warn while they compute nan.
_NAN_WARNINGS = pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")


@_NAN_WARNINGS
@settings(max_examples=400, deadline=None)
@given(soups())
def test_culled_kernel_bitwise_equals_brute_force(case):
    origin, dirs, tris = case
    assert_bitwise_equal(raycast_batch(origin, dirs, tris),
                         brute_force_raycast_batch(origin, dirs, tris))


@_NAN_WARNINGS
def test_culled_kernel_bitwise_on_dense_random_soup():
    # Many rays against a few hundred overlapping triangles, spread over
    # several ray chunks and pair blocks; two have a non-finite vertex.
    rng = SplitMix64(11)
    tris = (rng.normal_array(300 * 9).reshape(300, 3, 3) * 0.6
            + rng.normal_array(300 * 3).reshape(300, 1, 3) * 2 + [0, 0, 6])
    tris[[40, 41], 1] = [[np.nan, 0, 0], [0, np.inf, 0]]
    dirs = np.concatenate([camera_rays(97), rng.normal_array(999).reshape(-1, 3)])
    got = raycast_batch([0.1, -0.2, 0.0], dirs, tris)
    assert (got[1] >= 0).sum() > 1000
    assert_bitwise_equal(got, brute_force_raycast_batch([0.1, -0.2, 0.0], dirs, tris))


def test_no_rays_and_no_triangles():
    tris = np.array([[[-1.0, -1, 2], [1, -1, 2], [0, 1, 2]]])
    for dirs, soup in ((np.zeros((0, 3)), tris), (np.array([[0.0, 0, 1]]), np.zeros((0, 3, 3)))):
        assert_bitwise_equal(raycast_batch([0, 0, 0], dirs, soup),
                             brute_force_raycast_batch([0, 0, 0], dirs, soup))


# ---------------------------------------------------------------------------
# rendered scenes

def _sphere_scene(n_frames=3, resolution=(41, 37)):
    verts, faces = jittered_sphere(5, 24, 13, [0.0, 0.0, 5.0], 1.6)
    return SceneSpec(
        objects=[SceneObject(verts, faces,
                             spin_path([0.2, 1, -0.1], [0, 0, 5.0], 0.3, n_frames))],
        background=plane_mesh([0, 2.0, 8.0], [9, 0, 0], [0, 0, 9]),
        camera_path=[identity_camera()] * n_frames,
        resolution=resolution, n_frames=n_frames, seed=5)


@pytest.mark.parametrize("spec", [demo_scene(resolution=(33, 31)), _sphere_scene()],
                         ids=["demo_scene", "jittered_sphere"])
def test_rendered_frames_bitwise_equal_brute_force(spec, monkeypatch):
    # Odd resolutions put a pixel centre on the optical axis, so some
    # directions have exactly-zero components.
    def render_all():
        out = []
        for f in range(spec.n_frames):
            depth, att, points = synth._render(spec, f)
            out += [depth.values, depth.valid, att.object_id, att.face_id, att.bary,
                    points.points, points.valid]
        return out

    culled = render_all()
    monkeypatch.setattr(synth, "raycast_batch", brute_force_raycast_batch)
    reference = render_all()
    assert culled[1].any()
    assert_bitwise_equal(culled, reference)


# ---------------------------------------------------------------------------
# accepted region and memory

def test_scalar_and_batch_accept_the_same_region():
    # b1 = 1 + 1.5e-9, b2 = -0.8e-9: each weight is within 1e-9 of [0, 1]
    # except b1, which only the sum bounds. The batch form always accepted
    # this pair; the scalar form now agrees with it.
    z = 2.0
    tri = np.array([[0.0, 0, z], [1, 0, z], [0, 1, z]])
    b1, b2 = 1 + 1.5e-9, -0.8e-9
    direction = tri[0] + b1 * (tri[1] - tri[0]) + b2 * (tri[2] - tri[0])
    hit = raycast([0, 0, 0], direction, tri)
    t, idx, bary = raycast_batch([0, 0, 0], direction[None], tri[None])
    assert hit is not None and idx[0] == 0
    assert hit.t == t[0] and np.array_equal(hit.bary, bary[0])
    # Beyond the slack on b0 (b1 + b2 > 1 + 1e-9) both miss.
    outside = tri[0] + (1 + 3e-9) * (tri[1] - tri[0])
    assert raycast([0, 0, 0], outside, tri) is None


@pytest.mark.parametrize("slices,stacks", [(16, 9), (32, 17), (64, 33)])
def test_memory_flat_in_triangle_count(slices, stacks):
    # 4096 rays at 256, 1024 and 4096 triangles: the dense form peaked at
    # about 78, 311 and 1240 MB here; the culled one stays under one bound.
    verts, faces = jittered_sphere(9, slices, stacks, [0.0, 0.0, 3.0], 1.6)
    tris = verts[faces]
    assert len(tris) == 2 * slices * (stacks - 1)
    dirs = camera_rays(64)
    tracemalloc.start()
    try:
        _, idx, _ = raycast_batch([0, 0, 0], dirs, tris)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (idx >= 0).sum() > 1000
    assert peak < 64e6

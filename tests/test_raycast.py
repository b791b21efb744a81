"""The culled ray caster against the dense brute-force form it replaced:
bitwise equality on adversarial soups and rendered scenes, the accepted
barycentric region, and working memory that stays flat in triangle count."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import demo_scene, identity_camera, random_camera
from scene4d import synth
from scene4d.geometry import intrinsics, pixel_directions
import scene4d.raycast as raycast_module
from scene4d.raycast import raycast_batch
from scene4d.rng import SplitMix64
from scene4d.synth import SceneObject, SceneSpec, box_mesh, plane_mesh, spin_path

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
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
    # m = 0 included; repeated vertex indices give zero-area triangles.
    faces = draw(st.lists(st.lists(st.integers(0, len(pool) - 1), min_size=3, max_size=3),
                          max_size=40))
    tris = pool[np.array(faces, dtype=np.int64).reshape(-1, 3)]
    if len(tris):
        # Duplicated coplanar triangles, some with cycled vertices: equal t
        # on different indices exercises the lowest-index tie-break.
        dup = draw(st.lists(st.integers(0, len(tris) - 1), max_size=4))
        tris = np.concatenate([tris, tris[dup], tris[dup][:, [1, 2, 0]]])
    if len(tris) and draw(st.booleans()):
        # Origin on a triangle, so inside its padded box and the near cube.
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
        # A non-finite vertex: that triangle never hits, and it must not
        # hide the other triangles.
        tris[draw(st.integers(0, len(tris) - 1)), draw(st.integers(0, 2)),
             draw(st.integers(0, 2))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return origin, dirs, tris


def chunk_case(n_spread, n_front):
    """(origin, directions, triangles) at the ray-chunk boundaries:
    n_spread random directions over all six cube faces, then n_front on
    the +z face only, cast from inside a box of 12 triangles whose
    triangles 4 (+x) and 10 (+z) are duplicated, so equal t meets two
    indices."""
    verts, faces = box_mesh([0.1, -0.2, 0.3], [3.0, 2.0, 4.0])
    tris = np.concatenate([verts[faces], verts[faces[[4, 10]]]])
    n = n_spread + n_front
    dirs = SplitMix64(n_spread + 7 * n_front).normal_array(3 * n).reshape(n, 3)
    dirs[n_spread:, 2] = 1.0 + np.abs(dirs[n_spread:, :2]).sum(axis=1)
    return np.zeros(3), dirs, tris


# Non-finite vertices make both kernels warn while they compute nan.
_NAN_WARNINGS = pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
_CHUNK = raycast_module._RAY_CHUNK


@_NAN_WARNINGS
@settings(max_examples=400, deadline=None)
@given(soups())
@example(chunk_case(0, _CHUNK - 1))         # one face, one ray short of a chunk
@example(chunk_case(0, _CHUNK))             # exactly one chunk
@example(chunk_case(0, _CHUNK + 1))         # a second chunk of one ray
@example(chunk_case(_CHUNK + 3000, 0))      # both chunks spread over six faces
@example(chunk_case(_CHUNK, 5))             # a last chunk that holds one face
def test_culled_kernel_bitwise_equals_brute_force(case):
    origin, dirs, tris = case
    assert_bitwise_equal(raycast_batch(origin, dirs, tris),
                         brute_force_raycast_batch(origin, dirs, tris))


def dense_soup():
    """Many rays against a few hundred overlapping triangles, spread over
    several pair blocks; two triangles have a non-finite vertex."""
    rng = SplitMix64(11)
    tris = (rng.normal_array(300 * 9).reshape(300, 3, 3) * 0.6
            + rng.normal_array(300 * 3).reshape(300, 1, 3) * 2 + [0, 0, 6])
    tris[[40, 41], 1] = [[np.nan, 0, 0], [0, np.inf, 0]]
    dirs = np.concatenate([camera_rays(97), rng.normal_array(999).reshape(-1, 3)])
    return np.array([0.1, -0.2, 0.0]), dirs, tris


@_NAN_WARNINGS
def test_culled_kernel_bitwise_on_dense_random_soup():
    origin, dirs, tris = dense_soup()
    got = raycast_batch(origin, dirs, tris)
    assert (got[1] >= 0).sum() > 1000
    assert_bitwise_equal(got, brute_force_raycast_batch(origin, dirs, tris))


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

def test_one_ray_accepts_the_slack_region():
    # b1 = 1 + 1.5e-9, b2 = -0.8e-9: each weight is within 1e-9 of [0, 1]
    # except b1, which only the sum bounds, so the pair hits.
    z = 2.0
    tri = np.array([[0.0, 0, z], [1, 0, z], [0, 1, z]])
    b1, b2 = 1 + 1.5e-9, -0.8e-9
    direction = tri[0] + b1 * (tri[1] - tri[0]) + b2 * (tri[2] - tri[0])
    t, idx, bary = raycast_batch([0, 0, 0], direction[None], tri[None])
    assert idx[0] == 0 and t[0] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(bary[0], [1 - b1 - b2, b1, b2], rtol=0, atol=1e-12)
    # Beyond the slack on b0 (b1 + b2 > 1 + 1e-9) it misses.
    outside = tri[0] + (1 + 3e-9) * (tri[1] - tri[0])
    assert raycast_batch([0, 0, 0], outside[None], tri[None])[1][0] == -1


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


# ---------------------------------------------------------------------------
# pinhole batches: one camera's pixel rays, some made unusable

def _camera_soup(rng, n_front, n_behind, n_straddle):
    """Camera-frame triangles: in front of the camera, behind it, across
    its plane, one whose padded box holds the camera centre, and two in
    planes through the centre, so some pixel rays graze them."""
    def tris(count, z_lo, z_hi):
        centre = rng.uniform(-1, 1, (count, 1, 3)) * [2.5, 2.5, 0] \
            + np.column_stack([np.zeros((count, 2)), rng.uniform(z_lo, z_hi, count)])[:, None]
        return centre + rng.normal(0, 0.6, (count, 3, 3))
    around = np.array([[[-0.1, -0.1, 0.05], [0.1, -0.1, -0.05], [0.0, 0.1, 0.0]]])
    a, b = rng.normal(0, 1, (2, 3)) + [0, 0, 3]
    through = np.array([[a, b, a + b], [2 * a, 0.5 * b, a - b]])
    return np.concatenate([tris(n_front, 1, 6), -tris(n_behind, 1, 6),
                           tris(n_straddle, -0.5, 0.5), around, through])


@st.composite
def pinhole_batches(draw):
    """(origin, directions, triangles): pixel rays of a random camera, at
    resolutions from 1 to 40, optionally some rays made zero, non-finite
    or sign-flipped, against a camera-frame soup."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    cam = random_camera(SplitMix64(seed))
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    dirs = pixel_directions(cam, h, w).reshape(-1, 3) @ cam.rotation    # R^T d per row
    soup = _camera_soup(rng, draw(st.integers(0, 12)), draw(st.integers(0, 4)),
                        draw(st.integers(0, 4)))
    dup = draw(st.lists(st.integers(0, len(soup) - 1), max_size=3))
    soup = np.concatenate([soup, soup[dup]])             # equal t: index tie-break
    for kind in draw(st.lists(st.sampled_from(["zero", "nan", "inf", "flip"]), max_size=4)):
        i = draw(st.integers(0, len(dirs) - 1))
        dirs[i] = {"zero": [0.0, 0.0, 0.0], "nan": [np.nan, 0.0, 1.0],
                   "inf": [0.0, -np.inf, 1.0], "flip": -dirs[i]}[kind]
    return cam.center(), dirs, (soup - cam.t) @ cam.rotation     # soup in the world frame


@settings(max_examples=300, deadline=None)
@given(pinhole_batches())
def test_packets_bitwise_equal_brute_force_on_pinhole_batches(case):
    origin, dirs, tris = case
    with np.errstate(invalid="ignore", over="ignore"):
        want = brute_force_raycast_batch(origin, dirs, tris)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = raycast_batch(origin, dirs, tris)
    assert_bitwise_equal(got, want)


# ---------------------------------------------------------------------------
# direction-grid cover: every pair that can hit is tested

def uncovered_pairs(origin, dirs, tris):
    """The (ray, triangle) hits of the brute force whose ray's (u, v) lies
    outside the range its triangle covers on that ray's cube face."""
    covers = raycast_module._face_covers(tris, np.asarray(origin, dtype=np.float64))
    missing = []
    for j in range(len(tris)):
        with np.errstate(invalid="ignore", over="ignore"):
            _, idx, _ = brute_force_raycast_batch(origin, dirs, tris[j:j + 1])
        for i in np.flatnonzero(idx == 0):
            k = int(np.argmax(np.abs(dirs[i])))
            uv = dirs[i, [(k + 1) % 3, (k + 2) % 3]] / abs(dirs[i, k])
            tri, lo, hi = covers[2 * k + int(dirs[i, k] < 0)]
            at = np.flatnonzero(tri == j)
            # a triangle that covers the whole face has an infinite range
            if not (len(at) and (lo[at[0]] <= uv).all() and (uv <= hi[at[0]]).all()):
                missing.append((i, j))
    return missing


def _slack_case():
    """Rays that hit within the 1e-9 barycentric slack outside a 1e4-wide
    triangle, up to 1e-5 beyond its edge y = 0: outside its unpadded box,
    and beyond the absolute pad alone."""
    tri = np.array([[[0.0, 0, 2], [1e4, 0, 2], [0, 1e4, 2]]])
    x, y = np.meshgrid(np.linspace(0.5, 1.5, 9), np.linspace(-1.2e-5, 0.4e-5, 17))
    return np.zeros(3), np.stack([x, y, np.full_like(x, 2.0)], axis=-1).reshape(-1, 3), tri


def _near_case():
    """Small triangles 1e-5 to 8e-4 from the origin, along each axis both
    ways: some boxes lie inside the near cube, others between its face and
    1e-3, and rays pass through each."""
    origin = np.array([0.5, -0.25, 1.0])
    tris, dirs = [], []
    for depth, size in ((2e-5, 1e-5), (6e-5, 3e-5), (3e-4, 1e-4), (8e-4, 2e-4)):
        for k in range(3):
            for s in (1.0, -1.0):
                a, b = (k + 1) % 3, (k + 2) % 3
                corner = np.zeros(3)
                corner[k], corner[a] = s * depth, 0.3 * size
                tri = np.array([corner, corner, corner])
                tri[1, a] += size
                tri[2, b] += size
                tris.append(tri)
                dirs += [tri.mean(axis=0), (2 * tri[0] + tri[1]) / 3, 1e3 * tri.mean(axis=0)]
    return origin, np.array(dirs), np.array(tris) + origin


@pytest.mark.parametrize("case", [_slack_case, _near_case], ids=["slack", "near-origin"])
def test_hits_outside_the_triangle_box_and_near_the_origin(case):
    origin, dirs, tris = case()
    want = brute_force_raycast_batch(origin, dirs, tris)
    assert (want[1] >= 0).sum() > len(dirs) // 2
    assert_bitwise_equal(raycast_batch(origin, dirs, tris), want)
    assert uncovered_pairs(origin, dirs, tris) == []


@_NAN_WARNINGS
@settings(max_examples=300, deadline=None)
@given(st.one_of(soups(), pinhole_batches()))
def test_every_accepted_pair_is_covered(case):
    assert uncovered_pairs(*case) == []


@_NAN_WARNINGS
@settings(max_examples=200, deadline=None)
@given(soups())
def test_bitwise_with_one_ray_per_chunk_and_one_pair_per_block(case):
    # Every ray is its own grid and every pair its own fold, so equal t
    # across blocks must keep the lowest triangle index.
    origin, dirs, tris = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(raycast_module, "_RAY_CHUNK", 1)
        mp.setattr(raycast_module, "_PAIR_BLOCK", 1)
        got = raycast_batch(origin, dirs, tris)
    assert_bitwise_equal(got, brute_force_raycast_batch(origin, dirs, tris))


@pytest.mark.parametrize("hemisphere", [False, True], ids=["sphere", "hemisphere"])
def test_memory_flat_for_incoherent_rays(hemisphere):
    # Random directions spread each chunk's rays over all six cube faces,
    # so each face's grid is coarse and its cells hold scattered rays.
    verts, faces = jittered_sphere(9, 64, 33, [0.0, 0.0, 3.0], 1.6)
    tris = verts[faces]
    dirs = SplitMix64(21).normal_array(4096 * 3).reshape(-1, 3)
    if hemisphere:
        dirs[:, 2] = np.abs(dirs[:, 2])
    tracemalloc.start()
    try:
        _, idx, _ = raycast_batch([0, 0, 0], dirs, tris)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (idx >= 0).sum() > 100
    assert peak < 64e6


def test_subnormal_determinant_does_not_warn():
    # det = -1e-320 is below the 1e-12 guard, and 1 / det overflows: the
    # pair is rejected without a RuntimeWarning.
    tri = np.array([[0.0, 0, 2], [1e-160, 0, 2], [0, 1e-160, 2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t, idx, bary = raycast_batch([0, 0, 0], [[0.0, 0, 1], [1e-200, 1e-200, 1]], tri[None])
    assert idx.tolist() == [-1, -1] and np.isinf(t).all() and not bary.any()


# ---------------------------------------------------------------------------
# the nearest-hit fold, and the work and memory of one frame

def record_pair_blocks(mp, blocks):
    """Wrap `_pair_test` so that each block asserts that every ray's pairs
    arrive in ascending triangle order, the order that lets the fold's
    stable sort on (ray, t) keep the lowest index on equal t; each block's
    (ray, tri) arrays are appended to `blocks`."""
    pair_test = raycast_module._pair_test

    def checked(dirs, terms, ray, tri, best):
        order = np.argsort(ray, kind="stable")
        same = ray[order][1:] == ray[order][:-1]
        assert (tri[order][1:][same] > tri[order][:-1][same]).all()
        blocks.append((ray.copy(), tri.copy()))
        return pair_test(dirs, terms, ray, tri, best)
    mp.setattr(raycast_module, "_pair_test", checked)


def rays_with_several_pairs(ray):
    return int((np.bincount(ray) > 1).sum())


@_NAN_WARNINGS
@pytest.mark.parametrize("case", ["two-box-frames", "dense-soup"])
def test_each_ray_meets_its_triangles_in_ascending_order_in_a_block(case, monkeypatch):
    blocks = []
    record_pair_blocks(monkeypatch, blocks)
    if case == "two-box-frames":
        spec = demo_scene(resolution=(256, 256))
        for f in range(spec.n_frames):
            synth._render(spec, f)
    else:
        raycast_batch(*dense_soup())
    assert sum(rays_with_several_pairs(ray) for ray, _ in blocks) > 1000


def test_equal_t_in_one_block_keeps_the_lowest_index(monkeypatch):
    # A full chunk of rays; triangles 1, 3 and 4 are one small triangle,
    # 0 and 2 two others beside it, and 5 a wall behind them all. The
    # copies' pairs share the first block, and copy 1 wins each tie.
    n = raycast_module._RAY_CHUNK
    small = np.array([[-0.2, -0.2, 2.0], [0.2, -0.2, 2.0], [0.0, 0.2, 2.0]])
    wall = np.array([[-50.0, -50.0, 9.0], [50.0, -50.0, 9.0], [0.0, 50.0, 9.0]])
    tris = np.array([small + [0.6, 0, 0], small, small - [0.6, 0, 0], small, small, wall])
    dirs = np.column_stack([SplitMix64(3).uniform_array(2 * n).reshape(n, 2) * 2 - 1,
                            np.ones(n)])
    blocks = []
    record_pair_blocks(monkeypatch, blocks)
    got = raycast_batch(np.zeros(3), dirs, tris)
    assert_bitwise_equal(got, brute_force_raycast_batch(np.zeros(3), dirs, tris))
    assert (got[1] == 1).sum() > 50 and not np.isin(got[1], [3, 4]).any()
    ray, tri = blocks[0]
    copies = np.isin(tri, [1, 3, 4])
    assert rays_with_several_pairs(ray[copies]) > 50


def _two_box_frame():
    return demo_scene(n_frames=1, resolution=(256, 256))


def test_one_frame_takes_few_kernel_calls(monkeypatch):
    # The 65,536 rays of one 256 x 256 frame, all on one cube face, are
    # binned in 4 chunks; 2,048-ray chunks took 32 _cast_face calls.
    calls = {"_cast_face": 0, "_pair_test": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(raycast_module, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(raycast_module, name, counted)
    synth._render(_two_box_frame(), 0)
    assert calls["_cast_face"] <= 8 and calls["_pair_test"] <= 24


def test_one_frame_render_memory():
    # Mostly the frame's own arrays: directions, hits and outputs.
    spec = _two_box_frame()
    tracemalloc.start()
    try:
        synth._render(spec, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2**20

"""The one pinhole path: `geometry.pixel_directions` builds every pixel ray
(the test attachment reference takes its one ray from the grid too),
`project_many` projects every point, and `synth._lookup_pixels` is the
one projection-to-pixel lookup. Each is checked bitwise against the
forms it replaced, which are kept here verbatim as references."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (DEPTH_AGREEMENT_TOL, attach_pixel, demo_scene, identity_camera,
                      random_camera, reference_unproject)
from scene4d import synth
from scene4d.errors import QueryInvalid
from scene4d.geometry import (CameraParams, DepthMap, intrinsics, pixel_directions,
                              project_many)
from scene4d.raycast import raycast_batch, triangle_soup
from scene4d.rng import SplitMix64
from scene4d.synth import VISIBILITY_DEPTH_TOL, generate, recover_query_pixels
from scene4d.tensorio import load_dataset, save_dataset


# ---------------------------------------------------------------------------
# references: the bodies before the pinhole model moved behind `geometry`

def reference_pixel_ray(pixel, depth_shape, cam: CameraParams):
    u, v = pixel
    h, w = depth_shape
    fx, fy, cx, cy = intrinsics(cam, h, w)
    dir_cam = np.array([(u + 0.5 - cx) / fx, (v + 0.5 - cy) / fy, 1.0])
    R = cam.rotation
    return cam.center(), R.T @ dir_cam


def reference_render_dirs(cam: CameraParams, h: int, w: int):
    fx, fy, cx, cy = intrinsics(cam, h, w)
    u = np.arange(w, dtype=np.float64) + 0.5
    v = np.arange(h, dtype=np.float64) + 0.5
    uu, vv = np.meshgrid(u, v)
    dirs_cam = np.stack([(uu - cx) / fx, (vv - cy) / fy, np.ones_like(uu)], axis=-1)
    R = cam.rotation
    return dirs_cam.reshape(-1, 3) @ R


def reference_project(p, c: CameraParams, height: int, width: int):
    p = np.asarray(p, dtype=np.float64).reshape(3)
    cam = c.rotation @ p + c.t
    if cam[2] <= 1e-9:
        return None
    fx, fy, cx, cy = intrinsics(c, height, width)
    u = fx * cam[0] / cam[2] + cx
    v = fy * cam[1] / cam[2] + cy
    return u, v, cam[2]


def reference_visibility(positions, cameras, depths, h, w):
    """The visibility loop of `generate`, verbatim."""
    m, n_frames = positions.shape[:2]
    visible = np.zeros((m, n_frames), dtype=bool)
    for t in range(n_frames):
        uu, vv, zz, front = project_many(positions[:, t, :], cameras[t], h, w)
        iu = np.floor(uu).astype(np.int64)
        iv = np.floor(vv).astype(np.int64)
        inside = front & (iu >= 0) & (iu < w) & (iv >= 0) & (iv < h)
        ok = np.zeros(m, dtype=bool)
        sel = np.nonzero(inside)[0]
        if len(sel):
            dver = depths[t].values[iv[sel], iu[sel]]
            dok = depths[t].valid[iv[sel], iu[sel]]
            ok[sel] = dok & (np.abs(zz[sel] - dver) <= VISIBILITY_DEPTH_TOL)
        visible[:, t] = ok
    return visible


def reference_attach_pixel(pixel, depth: DepthMap, cam: CameraParams, meshes):
    u, v = int(pixel[0]), int(pixel[1])
    origin, direction = reference_pixel_ray((u, v), depth.values.shape, cam)
    soup = triangle_soup(meshes, range(len(meshes)))
    t, idx, bary = raycast_batch(origin, direction[None, :], soup.tris)
    if idx[0] < 0 or abs(t[0] - depth.values[v, u]) > DEPTH_AGREEMENT_TOL:
        return None
    return int(soup.owner[idx[0]]), int(soup.face[idx[0]]), bary[0]


def _same(a, b) -> bool:
    """Bitwise equality of float arrays (NaN payloads and signed zeros included)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _depth_map(rng: SplitMix64, h: int, w: int) -> DepthMap:
    values = 0.05 + 20.0 * rng.uniform_array(h * w).reshape(h, w)
    valid = rng.uniform_array(h * w).reshape(h, w) > 0.3
    return DepthMap(values=np.where(valid, values, 0.0), valid=valid)


cases = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 40))


# ---------------------------------------------------------------------------
# pixel rays

def test_pixel_directions_shape_and_unit_z():
    d = pixel_directions(random_camera(SplitMix64(3)), 5, 7)
    assert d.shape == (5, 7, 3)
    assert np.all(d[..., 2] == 1.0)


@settings(max_examples=150, deadline=None)
@given(cases)
def test_rays_bitwise_equal_references(case):
    seed, h, w = case
    rng = SplitMix64(seed)
    cam = random_camera(rng)
    R = cam.rotation
    dirs = pixel_directions(cam, h, w)
    assert _same(dirs.reshape(-1, 3) @ R, reference_render_dirs(cam, h, w))
    for _ in range(8):
        u, v = rng.randbelow(w), rng.randbelow(h)
        _, ref = reference_pixel_ray((u, v), (h, w), cam)
        assert _same(dirs[v, u] @ R, ref)


@settings(max_examples=150, deadline=None)
@given(cases)
def test_project_bitwise_equals_reference(case):
    seed, h, w = case
    rng = SplitMix64(seed)
    cam = random_camera(rng)
    pts = (rng.uniform_array(3 * 32).reshape(32, 3) - 0.5) * 20.0
    # points on pixel rays, and points exactly in the camera plane
    on_rays = reference_unproject(_depth_map(rng, h, w), cam).reshape(-1, 3)[:8]
    pts[:len(on_rays)] = on_rays
    pts[8] = cam.center()
    # one point per call: a block of rows goes through one matrix product,
    # whose rounding may differ from the reference's matrix-vector product
    for p in pts:
        uu, vv, zz, in_front = project_many(p, cam, h, w)
        ref = reference_project(p, cam, h, w)
        assert in_front[0] == (ref is not None)
        if ref is not None:
            got = uu[0], vv[0], zz[0]
            assert _same(got, ref)
            assert all(type(g) is type(r) for g, r in zip(got, ref))


def test_attach_pixel_bitwise_equals_reference():
    spec = demo_scene(n_frames=3, resolution=(32, 32), seed=5)
    q = np.array([0.99, 0.05, -0.1, 0.03])
    spec.camera_path = [CameraParams(q=q / np.linalg.norm(q), t=[0.3, -0.2, 0.4],
                                     fov=(1.3, 1.5))] * 3
    ds = generate(spec)
    meshes = [(o.vertices_at(2), o.faces) for o in spec.objects] + [spec.background]
    depth, cam = ds.depths[2], ds.cameras[2]
    vs, us = np.nonzero(depth.valid)
    for k in np.linspace(0, len(us) - 1, 24).astype(int):
        got = attach_pixel((us[k], vs[k]), depth, cam, meshes)
        ref = reference_attach_pixel((us[k], vs[k]), depth, cam, meshes)
        assert ref is not None
        assert got[:2] == ref[:2]
        assert _same(got[2], ref[2])


# ---------------------------------------------------------------------------
# pixel lookup

def test_generate_visibility_equals_reference_loop(demo_dataset):
    ds = demo_dataset
    h, w = ds.depths[0].values.shape
    ref = reference_visibility(ds.trajectories.positions, ds.cameras, ds.depths, h, w)
    assert np.array_equal(ds.trajectories.visible, ref)
    assert ref.any() and not ref.all()


@settings(max_examples=150, deadline=None)
@given(cases)
def test_lookup_pixels_equals_reference_loop(case):
    seed, h, w = case
    rng = SplitMix64(seed)
    cam = random_camera(rng)
    d = _depth_map(rng, h, w)
    on_surface = reference_unproject(d, cam)[d.valid]
    # on-surface points, the same pushed off the tolerance, random points
    # (mostly off-image or behind the camera) and the camera centre
    shift = (cam.center() - on_surface) * (2 * VISIBILITY_DEPTH_TOL)
    noise = (rng.uniform_array(3 * 16).reshape(16, 3) - 0.5) * 40.0
    pts = np.concatenate([on_surface, on_surface + shift, noise, cam.center()[None]])
    with np.errstate(invalid="ignore"):   # the centre projects to NaN
        visible = synth._lookup_pixels(pts, cam, d)[3]
        ref = reference_visibility(pts[:, None, :], [cam], [d], h, w)[:, 0]
    assert np.array_equal(visible, ref)
    assert visible[:len(on_surface)].all()


# ---------------------------------------------------------------------------
# recover_query_pixels

def _small_dataset():
    return generate(demo_scene(n_frames=2, resolution=(32, 32), seed=9, n_queries=24))


def test_recover_query_pixels_round_trip_on_reloaded_dataset(tmp_path):
    ds = _small_dataset()
    save_dataset(ds, tmp_path / "d")
    back = load_dataset(tmp_path / "d")
    assert back.trajectories.query_pixels is None
    q = recover_query_pixels(back)
    assert q.dtype == np.int64
    assert np.array_equal(q, ds.trajectories.query_pixels)


def test_recover_query_pixels_outside_image():
    ds = _small_dataset()
    ds.trajectories.positions[3, 0] = ds.cameras[0].center() - [0.0, 0.0, 1.0]
    with pytest.raises(QueryInvalid, match="projects outside the image"):
        recover_query_pixels(ds)


def test_recover_query_pixels_invalid_pixel():
    ds = _small_dataset()
    u, v = ds.trajectories.query_pixels[5]
    ds.depths[0].valid[v, u] = False
    with pytest.raises(QueryInvalid, match="pixel is invalid"):
        recover_query_pixels(ds)


def test_recover_query_pixels_depth_disagreement():
    ds = _small_dataset()
    u, v = ds.trajectories.query_pixels[7]
    ds.depths[0].values[v, u] += 10 * VISIBILITY_DEPTH_TOL
    with pytest.raises(QueryInvalid, match="disagrees with the depth map"):
        recover_query_pixels(ds)


def test_tracks_from_aggregation_names_first_invalid_query(demo_dataset):
    maps = [synth.oracle_aggregate(demo_dataset, 0, a) for a in range(2)]
    vs, us = np.nonzero(~maps[0].valid)
    q = demo_dataset.trajectories.query_pixels[:4].copy()
    q[1] = (us[0], vs[0])
    q[3] = (us[-1], vs[-1])
    with pytest.raises(QueryInvalid, match=rf"^query pixel \({us[0]}, {vs[0]}\) invalid"):
        synth.tracks_from_aggregation(maps, q)


def test_tracks_from_aggregation_reads_maps_at_query_pixels(demo_dataset):
    maps = [synth.oracle_aggregate(demo_dataset, 0, a) for a in range(demo_dataset.n_frames)]
    q = demo_dataset.trajectories.query_pixels
    traj = synth.tracks_from_aggregation(maps, q, demo_dataset.spec.dynamic_delta)
    for k in range(0, len(q), 37):
        u, v = q[k]
        for a in range(len(maps)):
            assert _same(traj.positions[k, a], maps[a].points[v, u])
    assert traj.visible.shape == (len(q), len(maps)) and traj.visible.all()
    empty = synth.tracks_from_aggregation(maps, np.zeros((0, 2), np.int64))
    assert empty.positions.shape == (0, len(maps), 3) and empty.dynamic.shape == (0,)


def test_generate_dynamic_mask_matches_displacement_rule():
    spec = demo_scene(n_frames=3, resolution=(24, 24), seed=4, n_queries=16)
    ds = generate(spec)
    for t in range(spec.n_frames):
        att = ds.attachments[t]
        pv, pu = np.nonzero(att.object_id >= 0)
        o, b = synth._base_points(spec, att, pv, pu, synth._soup(spec, None).tris)
        pos = synth._positions_over_time(spec, o, b)
        disp = np.linalg.norm(pos - pos[:, t:t + 1, :], axis=2)
        ref = np.zeros((24, 24), dtype=bool)
        ref[pv, pu] = disp.max(axis=1) > spec.dynamic_delta
        assert np.array_equal(ds.dynamic_mask[t], ref)
    assert ds.dynamic_mask.any()


def test_generate_with_no_queries():
    ds = generate(demo_scene(n_frames=2, resolution=(16, 16), n_queries=0))
    traj = ds.trajectories
    assert traj.positions.shape == (0, 2, 3)
    assert traj.dynamic.shape == (0,) and traj.dynamic.dtype == bool
    assert traj.query_pixels.shape == (0, 2) and traj.query_pixels.dtype == np.int64


def test_lookup_pixels_casts_only_finite_coordinates():
    # the camera centre has z = 0 and projects to NaN; a point just in
    # front of it projects far past the int64 range; neither may reach the
    # int cast, so no RuntimeWarning is raised
    cam = identity_camera()
    d = _depth_map(SplitMix64(5), 8, 12)
    pts = np.array([[0.0, 0.0, 0.0], [1e12, 0.0, 1e-8], [0.0, -1e12, 1e-8]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        iu, iv, inside, visible = synth._lookup_pixels(pts, cam, d)
    assert not inside.any() and not visible.any()
    assert (iu == -1).all() and (iv == -1).all()

"""Raycasting, rendering, dataset generation and the aggregation oracle."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (JSON_NUMBERS, JSON_VALUES, brute_nn_distances, demo_scene,
                      identity_camera, reference_unproject, rotation_to_quat,
                      spinning_box_scene)
from scene4d import synth
from scene4d.errors import EmptyScene, InputError, QueryInvalid
from scene4d.raycast import raycast_batch
from scene4d.rng import SplitMix64
from scene4d.synth import (SceneObject, SceneSpec, box_mesh, complete_cloud,
                           generate, oracle_aggregate, plane_mesh, spin_path,
                           tracks_from_aggregation, translation_path)


# ---------------------------------------------------------------------------
# raycast

def raycast(origin, direction, triangle):
    """One ray against one triangle -> (t, bary), or None for a miss."""
    t, idx, bary = raycast_batch(origin, direction, triangle)
    return (t[0], bary[0]) if idx[0] >= 0 else None


def test_raycast_hand_solved_case():
    # Ray (0,0,0)+t(0,0,1) meets the z=2 triangle at (0,0,2).
    # Barycentric system: -b0+b1 = 0, -b0-b1+b2 = 0, b0+b1+b2 = 1
    # => b0 = b1 = 0.25, b2 = 0.5.
    t, bary = raycast([0, 0, 0], [0, 0, 1], [[-1, -1, 2], [1, -1, 2], [0, 1, 2]])
    assert t == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(bary, [0.25, 0.25, 0.5], atol=1e-12)


def test_raycast_parallel_ray_misses():
    assert raycast([0, 0, 0], [1, 0, 0], [[-1, -1, 2], [1, -1, 2], [0, 1, 2]]) is None


def test_raycast_miss_outside_triangle():
    assert raycast([5, 5, 0], [0, 0, 1], [[-1, -1, 2], [1, -1, 2], [0, 1, 2]]) is None


def test_raycast_accepts_both_orientations():
    tri = np.array([[-1, -1, 2], [1, -1, 2], [0, 1, 2]], dtype=float)
    flipped = tri[[0, 2, 1]]
    h1 = raycast([0, 0, 0], [0, 0, 1], tri)
    h2 = raycast([0, 0, 0], [0, 0, 1], flipped)
    assert h1 is not None and h2 is not None
    assert h1[0] == pytest.approx(h2[0], abs=1e-12)


def test_raycast_reconstruction_property():
    rng = SplitMix64(2)
    for _ in range(200):
        tri = np.array([[rng.uniform() * 4 - 2 for _ in range(3)] for _ in range(3)])
        tri[:, 2] += 3.0
        direction = np.array([rng.uniform() - 0.5, rng.uniform() - 0.5, 1.0])
        hit = raycast([0, 0, 0], direction, tri)
        if hit is None:
            continue
        from_ray = hit[0] * direction
        from_bary = hit[1] @ tri
        assert np.max(np.abs(from_ray - from_bary)) < 1e-7


def test_raycast_batch_matches_scalar():
    rng = SplitMix64(6)
    tris = np.array([[[rng.uniform() * 4 - 2 for _ in range(3)] for _ in range(3)]
                     for _ in range(40)])
    tris[:, :, 2] += 4.0
    dirs = np.array([[rng.uniform() - 0.5, rng.uniform() - 0.5, 1.0] for _ in range(50)])
    t, idx, bary = raycast_batch([0, 0, 0], dirs, tris)
    for i in range(len(dirs)):
        best = (np.inf, -1, None)
        for j in range(len(tris)):
            h = raycast([0, 0, 0], dirs[i], tris[j])
            if h is not None and h[0] < best[0]:
                best = (h[0], j, h[1])
        if best[1] == -1:
            assert idx[i] == -1
        else:
            assert idx[i] == best[1]
            assert t[i] == pytest.approx(best[0], abs=1e-12)
            assert np.allclose(bary[i], best[2], atol=1e-12)


# ---------------------------------------------------------------------------
# rendering

def _square_scene(n_frames=1, depth=5.0):
    cam = identity_camera()
    v, f = plane_mesh([0, 0, depth], [1, 0, 0], [0, 1, 0])
    return SceneSpec(objects=[SceneObject(v, f, [  # static square
        *translation_path([0, 0, 0], n_frames)])],
        background=None, camera_path=[cam] * n_frames,
        resolution=(32, 32), n_frames=n_frames, seed=1)


def test_render_square_constant_depth():
    depth, att, _ = synth._render(_square_scene(), 0)
    assert depth.valid.any()
    assert np.allclose(depth.values[depth.valid], 5.0, atol=1e-9)
    assert np.all(att.object_id[depth.valid] == 0)
    assert np.all(att.object_id[~depth.valid] == -2)


def test_render_object_beats_background():
    cam = identity_camera()
    v, f = plane_mesh([0, 0, 3.0], [0.5, 0, 0], [0, 0.5, 0])
    spec = SceneSpec(objects=[SceneObject(v, f, translation_path([0, 0, 0], 1))],
                     background=plane_mesh([0, 0, 9.0], [9, 0, 0], [0, 9, 0]),
                     camera_path=[cam], resolution=(32, 32), n_frames=1, seed=0)
    depth, att, _ = synth._render(spec, 0)
    center = att.object_id[16, 16]
    assert center == 0
    assert depth.values[16, 16] == pytest.approx(3.0, abs=1e-9)
    assert att.object_id[1, 1] == -1  # background visible near the border
    assert depth.values[1, 1] == pytest.approx(9.0, abs=1e-9)


def test_attachment_reconstructs_unprojected_point():
    spec = demo_scene(n_frames=2)
    depth, att, _ = synth._render(spec, 1)
    up = reference_unproject(depth, spec.camera_path[1])
    vs, us = np.nonzero(depth.valid)
    worst = 0.0
    for v, u in zip(vs[::7], us[::7]):
        oid, fid = att.object_id[v, u], att.face_id[v, u]
        if oid >= 0:
            obj = spec.objects[oid]
            corners = obj.vertices_at(1)[obj.faces[fid]]
        else:
            bv, bf = spec.background
            corners = bv[bf[fid]]
        rec = att.bary[v, u] @ corners
        worst = max(worst, float(np.max(np.abs(rec - up[v, u]))))
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# generate

def test_generate_static_scene_constant_tracks():
    cam = identity_camera()
    spec = SceneSpec(objects=[],
                     background=plane_mesh([0, 0, 6.0], [6, 0, 0], [0, 6, 0]),
                     camera_path=[cam] * 4, resolution=(16, 16), n_frames=4,
                     seed=5, n_queries=64)
    ds = generate(spec)
    assert ds.trajectories.n_tracks == 64
    assert not ds.trajectories.dynamic.any()
    assert not ds.dynamic_mask.any()
    for m in range(ds.trajectories.n_tracks):
        assert np.allclose(ds.trajectories.positions[m], ds.trajectories.positions[m, 0])


def test_generate_translating_object_steps():
    cam = identity_camera()
    v, f = box_mesh([0, 0, 5], [1.5, 1.5, 1.5])
    spec = SceneSpec(objects=[SceneObject(v, f, translation_path([1, 0, 0], 4))],
                     background=None, camera_path=[cam] * 4, resolution=(32, 32),
                     n_frames=4, seed=9, n_queries=32)
    ds = generate(spec)
    steps = np.diff(ds.trajectories.positions, axis=1)
    assert np.allclose(steps, [1, 0, 0], atol=1e-12)
    assert ds.trajectories.dynamic.all()


def test_generate_deterministic_same_seed():
    a = generate(demo_scene(n_frames=3, resolution=(24, 24), seed=21, n_queries=50))
    b = generate(demo_scene(n_frames=3, resolution=(24, 24), seed=21, n_queries=50))
    for t in range(3):
        assert np.array_equal(a.depths[t].values, b.depths[t].values)
        assert np.array_equal(a.pointmaps[t].points, b.pointmaps[t].points)
    assert np.array_equal(a.trajectories.positions, b.trajectories.positions)
    assert np.array_equal(a.trajectories.query_pixels, b.trajectories.query_pixels)


def test_generate_empty_scene_raises():
    cam = identity_camera()
    # square far behind the camera: nothing is ever covered
    v, f = plane_mesh([0, 0, -5.0], [1, 0, 0], [0, 1, 0])
    spec = SceneSpec(objects=[SceneObject(v, f, translation_path([0, 0, 0], 2))],
                     background=None, camera_path=[cam] * 2, resolution=(8, 8),
                     n_frames=2, seed=0)
    with pytest.raises(EmptyScene):
        generate(spec)


def test_generate_visibility_marks_occluded_points(demo_dataset):
    # the spinning box hides some frame-0 surface points at later frames
    vis = demo_dataset.trajectories.visible
    assert vis[:, 0].all()
    assert not vis.all()


# ---------------------------------------------------------------------------
# aggregation oracle

def test_oracle_identity_at_same_frame(demo_dataset):
    pm = oracle_aggregate(demo_dataset, 2, 2)
    assert np.array_equal(pm.points, demo_dataset.pointmaps[2].points)
    assert np.array_equal(pm.valid, demo_dataset.pointmaps[2].valid)


def test_oracle_translating_object_moves_points():
    cam = identity_camera()
    v, f = box_mesh([0, 0, 5], [1.5, 1.5, 1.5])
    spec = SceneSpec(objects=[SceneObject(v, f, translation_path([1, 0, 0], 3))],
                     background=None, camera_path=[cam] * 3, resolution=(32, 32),
                     n_frames=3, seed=2, n_queries=16)
    ds = generate(spec)
    pm = oracle_aggregate(ds, 0, 2)
    src = ds.pointmaps[0]
    assert np.allclose(pm.points[src.valid], src.points[src.valid] + [2, 0, 0], atol=1e-12)


def test_oracle_background_pixels_unchanged(demo_dataset):
    att = demo_dataset.attachments[1]
    src = demo_dataset.pointmaps[1]
    for a in range(demo_dataset.n_frames):
        pm = oracle_aggregate(demo_dataset, 1, a)
        bg = (att.object_id == -1) & src.valid
        assert np.array_equal(pm.points[bg], src.points[bg])


def test_oracle_composes_over_intermediate_frames(demo_dataset):
    direct = oracle_aggregate(demo_dataset, 0, 5)
    via = oracle_aggregate(demo_dataset, 0, 3)
    # compose by hand: warp the intermediate result using the same motions
    spec = demo_dataset.spec
    att = demo_dataset.attachments[0]
    pts = via.points.copy()
    from scene4d.geometry import se3_apply, se3_compose, se3_invert
    for o, obj in enumerate(spec.objects):
        sel = (att.object_id == o) & via.valid
        rel = se3_compose(obj.motion[5], se3_invert(obj.motion[3]))
        pts[sel] = se3_apply(rel, pts[sel])
    assert np.max(np.abs(pts[via.valid] - direct.points[direct.valid])) < 1e-9


def test_complete_cloud_single_frame_and_counts(demo_dataset):
    maps = [oracle_aggregate(demo_dataset, i, 0) for i in range(demo_dataset.n_frames)]
    cloud = complete_cloud(maps)
    assert len(cloud) == sum(int(m.valid.sum()) for m in maps)
    one = complete_cloud(maps[:1])
    assert np.array_equal(one, maps[0].cloud())


def test_complete_cloud_covers_hidden_side():
    # Half-turn box: the union at target 0 reaches surface that frame 0
    # cannot see. Count via the generator's own visibility.
    ds = generate(spinning_box_scene())
    maps = [oracle_aggregate(ds, i, 0) for i in range(ds.n_frames)]
    union = complete_cloud(maps)
    frame0 = maps[0].cloud()
    assert len(union) > 1.2 * len(frame0)
    # points warped from the revealed side sit far from anything frame 0 saw
    added = complete_cloud(maps[1:])
    d = brute_nn_distances(added, frame0)
    assert (d > 0.05).sum() > 100


def test_tracks_from_aggregation_match_dataset(demo_dataset):
    per_target = [oracle_aggregate(demo_dataset, 0, a)
                  for a in range(demo_dataset.n_frames)]
    traj = tracks_from_aggregation(per_target, demo_dataset.trajectories.query_pixels)
    err = np.abs(traj.positions - demo_dataset.trajectories.positions).max()
    assert err < 1e-9


def test_tracks_from_aggregation_invalid_query(demo_dataset):
    per_target = [oracle_aggregate(demo_dataset, 0, a)
                  for a in range(demo_dataset.n_frames)]
    bad = np.nonzero(~demo_dataset.depths[0].valid)
    query = [[bad[1][0], bad[0][0]]]  # (u, v) of an uncovered pixel
    with pytest.raises(QueryInvalid):
        tracks_from_aggregation(per_target, query)


def _orbiting_cameras(n, radius=6.0):
    """Cameras on an arc, all looking roughly at the origin-ish z=5 zone."""
    from scene4d.geometry import CameraParams, axis_angle_rotation
    cams = []
    for i in range(n):
        ang = 0.15 * i
        R = axis_angle_rotation([0, 1, 0], -ang)
        center = np.array([radius * np.sin(ang), 0.0, 5.0 - radius * np.cos(ang)])
        cams.append(CameraParams(q=rotation_to_quat(R), t=-R @ center, fov=(1.4, 1.4)))
    return cams


def test_moving_camera_static_world_tracks_constant():
    # the camera slides along an arc; world geometry never moves, so
    # trajectories (world frame) must stay constant and aggregation is a no-op
    n = 5
    v, f = box_mesh([0, 0, 5], [2.0, 2.0, 2.0])
    spec = SceneSpec(objects=[SceneObject(v, f, translation_path([0, 0, 0], n))],
                     background=plane_mesh([0, 2.5, 8], [9, 0, 0], [0, 0, 9]),
                     camera_path=_orbiting_cameras(n), resolution=(48, 48),
                     n_frames=n, seed=33, n_queries=100)
    ds = generate(spec)
    pos = ds.trajectories.positions
    assert np.max(np.abs(pos - pos[:, :1, :])) < 1e-12
    assert not ds.trajectories.dynamic.any()
    for i in range(n):
        for a in (0, n - 1):
            pm = oracle_aggregate(ds, i, a)
            src = ds.pointmaps[i]
            assert np.array_equal(pm.points[src.valid], src.points[src.valid])


def test_moving_camera_unprojection_consistency():
    n = 4
    v, f = box_mesh([0.5, 0, 5], [1.8, 1.8, 1.8])
    spec = SceneSpec(objects=[SceneObject(v, f, spin_path([0, 1, 0], [0.5, 0, 5], 0.35, n))],
                     background=plane_mesh([0, 2.5, 8], [9, 0, 0], [0, 0, 9]),
                     camera_path=_orbiting_cameras(n), resolution=(48, 48),
                     n_frames=n, seed=34, n_queries=64)
    ds = generate(spec)
    for t in range(n):
        up = reference_unproject(ds.depths[t], ds.cameras[t])
        m = ds.depths[t].valid
        assert np.max(np.abs(up[m] - ds.pointmaps[t].points[m])) < 1e-9


def test_moving_camera_oracle_tracks_match():
    # full pipeline under camera motion: aggregated maps still reproduce
    # the dataset trajectories
    n = 5
    v, f = box_mesh([0.5, 0, 5], [1.6, 1.6, 1.6])
    spec = SceneSpec(objects=[SceneObject(v, f, translation_path([0.3, 0, 0], n))],
                     background=plane_mesh([0, 2.5, 8], [9, 0, 0], [0, 0, 9]),
                     camera_path=_orbiting_cameras(n), resolution=(48, 48),
                     n_frames=n, seed=35, n_queries=80)
    ds = generate(spec)
    per_target = [oracle_aggregate(ds, 0, a) for a in range(n)]
    traj = tracks_from_aggregation(per_target, ds.trajectories.query_pixels)
    assert np.max(np.abs(traj.positions - ds.trajectories.positions)) < 1e-9


def test_tracks_static_query_constant(demo_dataset):
    per_target = [oracle_aggregate(demo_dataset, 0, a)
                  for a in range(demo_dataset.n_frames)]
    traj = tracks_from_aggregation(per_target, demo_dataset.trajectories.query_pixels)
    static = ~demo_dataset.trajectories.dynamic
    assert static.any()
    pos = traj.positions[static]
    assert np.max(np.abs(pos - pos[:, :1, :])) < 1e-9


# ---------------------------------------------------------------------------
# scene JSON

_SCENE_JSON = {
    "resolution": [4, 4], "n_frames": 2, "seed": 1, "n_queries": 8, "dynamic_delta": 0.1,
    "camera": {"q": [1, 0, 0, 0], "t": [0, 0, 0], "fov": [1, 1]},
    "camera_path": [{"q": [1, 0, 0, 0], "t": [0, 0, 0], "fov": [1, 1]}] * 2,
    "background": {"type": "plane", "center": [0, 2, 8], "u_axis": [9, 0, 0],
                   "v_axis": [0, 0, 9]},
    "objects": [
        {"shape": {"type": "box", "center": [1, 0, 5], "size": [1, 1, 1]},
         "motion": {"kind": "spin", "axis": [0, 1, 0], "pivot": [1, 0, 5],
                    "radians_per_frame": 0.4}},
        {"shape": {"type": "mesh", "vertices": [[0, 0, 5], [1, 0, 5], [0, 1, 5]],
                   "faces": [[0, 1, 2]]},
         "motion": [{"R": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "t": [0, 0, 0]},
                    {"q": [1, 0, 0, 0], "t": [0.1, 0, 0]}]},
        {"shape": {"type": "box", "center": [-1, 0, 6], "size": [1, 1, 1]},
         "motion": {"kind": "translate", "velocity": [0.2, 0, 0]}},
    ],
}


@pytest.mark.parametrize("path,value", [
    (("n_frames",), 2.7), (("n_frames",), "2"), (("resolution",), [8.9, True]),
    (("n_queries",), 3.5), (("n_queries",), "4"),
    (("dynamic_delta",), "0.5"), (("dynamic_delta",), True),
    (("objects", 0, "shape", "center"), ["0", "0", "5"]),
    (("objects", 0, "shape", "size"), [True, True, True]),
    (("objects", 2, "motion", "velocity"), ["0.2", "0", "0"]),
    (("objects", 1, "shape", "vertices"), [["0", "0", "5"], ["1", "0", "5"], ["0", "1", "5"]]),
    (("objects", 0, "motion", "radians_per_frame"), True),
    (("objects", 1, "motion", 1, "q"), [True, False, False, False]),
    (("objects", 1, "motion", 0, "R"), [[True, 0, 0], [0, 1, 0], [0, 0, 1]]),
], ids=["n_frames-a-float", "n_frames-a-string", "resolution-float-and-bool",
        "n_queries-a-float", "n_queries-a-string", "dynamic_delta-a-string",
        "dynamic_delta-a-bool", "box-center-strings", "box-size-bools",
        "translate-velocity-strings", "mesh-vertices-strings", "spin-rate-a-bool",
        "motion-q-bools", "motion-R-a-bool"])
def test_scene_field_that_is_no_json_number_raises_input_error(path, value):
    # int(), float() and float64 casts would read 2.7 as 2, "0.5" as 0.5 and true as 1
    scene = json.loads(json.dumps(_SCENE_JSON))
    field = scene
    *parents, key = path
    for k in parents:
        field = field[k]
    field[key] = value
    with pytest.raises(InputError, match="integers|finite number"):
        SceneSpec.from_dict(scene)


def _slots(value):
    """Every (container, key) of a nested JSON value."""
    keys = value.keys() if isinstance(value, dict) else \
        range(len(value)) if isinstance(value, list) else ()
    for k in keys:
        yield value, k
        yield from _slots(value[k])


@st.composite
def _mutated_scenes(draw):
    """The valid scene above with one to three fields replaced by any JSON
    value (lists of numbers of nearby lengths among them) or deleted."""
    scene = json.loads(json.dumps(_SCENE_JSON))
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(scene))
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(st.lists(JSON_NUMBERS, min_size=2, max_size=5) | JSON_VALUES)
    return scene


@settings(max_examples=500, deadline=None)
@given(_mutated_scenes() | JSON_VALUES)
def test_fuzz_scene_from_dict_parses_or_raises_input_error(d):
    try:
        with np.errstate(all="ignore"):  # as the CLI runs it: inf * 0 in a motion path
            spec = SceneSpec.from_dict(d)
    except InputError:
        return
    assert len(spec.camera_path) == spec.n_frames
    assert all(len(o.motion) == spec.n_frames for o in spec.objects)

"""Attachment, barycentric lifting, clip splitting, dynamic classification."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import attach_pixel, identity_camera, lift
from scene4d import synth
from scene4d.geometry import DepthMap, axis_angle_rotation
from scene4d.lifting import classify_dynamic, split_clips
from scene4d.rng import SplitMix64
from scene4d.synth import plane_mesh, SceneObject, SceneSpec, translation_path


def _square_mesh_at(depth):
    return plane_mesh([0, 0, depth], [1, 0, 0], [0, 1, 0])


def _render_square(depth=5.0, res=32):
    cam = identity_camera()
    v, f = _square_mesh_at(depth)
    spec = SceneSpec(objects=[SceneObject(v, f, translation_path([0, 0, 0], 1))],
                     background=None, camera_path=[cam], resolution=(res, res),
                     n_frames=1, seed=0)
    d, att, _ = synth._render(spec, 0)
    return d, att, (v, f), cam


# ---------------------------------------------------------------------------
# attach_pixel

def test_attach_pixel_on_square():
    d, _, mesh, cam = _render_square()
    att = attach_pixel((16, 16), d, cam, [mesh])
    assert att is not None
    object_id, face_id, bary = att
    assert object_id == 0
    assert abs(bary.sum() - 1) < 1e-9
    # reconstructed depth agrees with the rendered depth
    v, f = mesh
    rec = bary @ v[f[face_id]]
    assert abs(rec[2] - d.values[16, 16]) < 1e-6


def test_attach_pixel_none_when_mesh_absent():
    d, _, _, cam = _render_square()
    far = _square_mesh_at(9.0)  # wrong surface: depth mismatch > 1e-3
    assert attach_pixel((16, 16), d, cam, [far]) is None
    assert attach_pixel((16, 16), d, cam, []) is None


def test_attach_pixel_bary_sums_to_one_everywhere():
    d, _, mesh, cam = _render_square()
    vs, us = np.nonzero(d.valid)
    for v, u in zip(vs[::11], us[::11]):
        att = attach_pixel((u, v), d, cam, [mesh])
        assert att is not None
        assert abs(att[2].sum() - 1) < 1e-9


# ---------------------------------------------------------------------------
# lifting

def _single_face_sequence(transforms):
    """(N, 3, 3) vertices of one triangle under each transform, and its face."""
    base = np.array([[0.0, 0.0, 5.0], [1.0, 0.0, 5.0], [0.0, 1.0, 5.0]])
    return np.stack([base @ R.T + t for R, t in transforms]), np.array([[0, 1, 2]])


def test_lift_translating_mesh():
    shifts = [np.array([0.5, 0, 0]) * t for t in range(4)]
    seq = _single_face_sequence([(np.eye(3), s) for s in shifts])
    track = lift([[0.2, 0.3, 0.5]], [0], *seq)[0]
    p0 = track[0]
    for t in range(4):
        assert np.max(np.abs(track[t] - (p0 + shifts[t]))) < 1e-9


def test_lift_rotating_mesh_matches_rotation():
    # oracle: apply the known rotation to the frame-0 attachment point
    rots = [axis_angle_rotation([0, 0, 1], 0.4 * t) for t in range(5)]
    seq = _single_face_sequence([(R, np.zeros(3)) for R in rots])
    track = lift([[0.6, 0.1, 0.3]], [0], *seq)[0]
    p0 = track[0]
    for t in range(5):
        assert np.max(np.abs(track[t] - rots[t] @ p0)) < 1e-6


def test_lift_static_mesh_constant():
    seq = _single_face_sequence([(np.eye(3), np.zeros(3))] * 3)
    track = lift([[1 / 3, 1 / 3, 1 / 3]], [0], *seq)[0]
    assert np.array_equal(track[0], track[1])
    assert np.array_equal(track[0], track[2])


def test_lift_commutes_with_rigid_motion():
    rng = SplitMix64(3)
    R = axis_angle_rotation([1, 2, 3], 0.7)
    t = np.array([0.3, -0.2, 1.1])
    base = np.array([[rng.uniform() * 2 for _ in range(3)] for _ in range(6)])
    faces = np.array([[0, 1, 2], [3, 4, 5], [1, 2, 4]])
    for fid in range(3):
        lifted_then_moved = lift([[0.25, 0.35, 0.4]], [fid], base[None], faces)[0, 0] @ R.T + t
        moved_then_lifted = lift([[0.25, 0.35, 0.4]], [fid], (base @ R.T + t)[None], faces)[0, 0]
        assert np.max(np.abs(lifted_then_moved - moved_then_lifted)) < 1e-9


def test_attach_then_lift_reproduces_unprojected_point():
    from scene4d.geometry import unproject
    d, _, mesh, cam = _render_square()
    up = unproject(d, cam)
    vs, us = np.nonzero(d.valid)
    for v, u in zip(vs[::13], us[::13]):
        _, face_id, bary = attach_pixel((u, v), d, cam, [mesh])
        p = lift([bary], [face_id], mesh[0][None], mesh[1])[0, 0]
        assert np.max(np.abs(p - up.points[v, u])) < 1e-6


# ---------------------------------------------------------------------------
# split_clips

def _uniform_depths(values):
    return [DepthMap(values=np.full((8, 8), v), valid=np.ones((8, 8), bool))
            for v in values]


def test_split_constant_sequence_no_splits():
    assert split_clips(_uniform_depths([2.0] * 6), 0.7).split_indices == []


def test_split_depth_jump():
    # |ln(5/1)| = 1.609 > 0.7 -> one split, right before frame 5
    depths = _uniform_depths([1.0] * 5 + [5.0] * 5)
    assert split_clips(depths, 0.7).split_indices == [5]


def test_split_smooth_approach_survives():
    # per-step ratio 1.05: |ln 1.05| = 0.0488 < 0.7
    depths = _uniform_depths([1.05 ** t for t in range(8)])
    assert split_clips(depths, 0.7).split_indices == []


def test_split_no_overlap_counts_as_split():
    a = DepthMap(values=np.ones((4, 4)), valid=np.zeros((4, 4), bool))
    b = DepthMap(values=np.ones((4, 4)), valid=np.ones((4, 4), bool))
    a.valid[0, 0] = True
    b.valid[0, 0] = False
    assert split_clips([a, b], 0.7).split_indices == [1]


@settings(max_examples=40, deadline=None)
@given(c=st.floats(1e-3, 1e3))
def test_split_invariant_to_global_depth_scale(c):
    vals = [1.0, 1.2, 6.0, 6.1, 1.4, 1.4]
    base = split_clips(_uniform_depths(vals), 0.7).split_indices
    scaled = split_clips(_uniform_depths([v * c for v in vals]), 0.7).split_indices
    assert base == scaled == [2, 4]


def test_split_mixed_valid_pixels_use_median():
    # half the pixels jump 10x, half stay: median log-ratio straddles
    lo = np.ones((4, 4))
    hi = lo.copy()
    hi[:2] = 10.0  # 8 of 16 pixels jump; median of sorted |log r| = ln(10)/... ties
    a = DepthMap(values=lo, valid=np.ones((4, 4), bool))
    b = DepthMap(values=hi, valid=np.ones((4, 4), bool))
    # median over [0]*8 + [ln10]*8 = (0 + ln10)/2 = 1.151 > 0.7
    assert split_clips([a, b], 0.7).split_indices == [1]
    assert split_clips([a, b], 1.2).split_indices == []


# ---------------------------------------------------------------------------
# classify_dynamic

def test_classify_constant_is_static():
    traj = np.tile([1.0, 2.0, 3.0], (6, 1))
    for delta in (1e-6, 0.01, 1.0):
        assert classify_dynamic(traj, 0, delta) is False


def test_classify_paper_thresholds():
    # displacement 0.05 m against the dataset thresholds 0.03 / 0.01
    traj = np.zeros((4, 3))
    traj[2, 0] = 0.05
    assert classify_dynamic(traj, 0, 0.03) is True
    assert classify_dynamic(traj, 0, 0.01) is True


def test_classify_boundary_is_strict():
    traj = np.zeros((3, 3))
    traj[1, 0] = 0.03
    assert classify_dynamic(traj, 0, 0.03) is False  # equality stays static
    assert classify_dynamic(traj, 0, 0.029999) is True


def test_classify_static_invariant_to_target_choice():
    traj = np.tile([0.5, -1.0, 2.0], (5, 1))
    assert all(classify_dynamic(traj, a, 0.03) is False for a in range(5))


def test_classify_batch_matches_scalar():
    rng = SplitMix64(10)
    batch = np.array([[[rng.uniform() * 0.1 for _ in range(3)] for _ in range(6)]
                      for _ in range(20)])
    flags = classify_dynamic(batch, 2, 0.05)
    for m in range(20):
        assert flags[m] == classify_dynamic(batch[m], 2, 0.05)

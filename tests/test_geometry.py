"""Geometry core: camera invariants, projection round-trips, transform groups.

Fixed conventions under test: q = (w, x, y, z), (q, t) maps world->camera,
pixel centers at (u+0.5, v+0.5), z-depth. Unprojection is the tests'
reference (`conftest.reference_unproject`).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import identity_camera, random_camera, reference_unproject, rotation_to_quat
from scene4d.errors import FovOutOfRange, ZeroQuaternion
from scene4d.geometry import (SE3, SIM3, CameraParams, intrinsics, project_many,
                              quat_to_rotation, se3_apply, se3_compose, se3_invert,
                              sim3_apply)
from scene4d.geometry import DepthMap
from scene4d.rng import SplitMix64


# ---------------------------------------------------------------------------
# camera invariants: a 9-vector [q(w, x, y, z), t, fov_v, fov_h] as CameraParams

def _camera_from_vector(g) -> CameraParams:
    g = np.asarray(g, dtype=np.float64)
    return CameraParams(q=g[:4], t=g[4:7], fov=g[7:9])


def test_identity_decode():
    c = _camera_from_vector([1, 0, 0, 0, 0, 0, 0, math.pi / 2, math.pi / 2])
    assert np.allclose(c.rotation, np.eye(3))
    assert np.allclose(c.t, 0)
    assert c.fov == (math.pi / 2, math.pi / 2)


def test_cyclic_permutation_quaternion():
    # q = (0.5, 0.5, 0.5, 0.5) is a 120 deg turn about (1,1,1): x->y->z->x.
    R = quat_to_rotation([0.5, 0.5, 0.5, 0.5])
    assert np.allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-12)
    assert np.allclose(R @ [0, 1, 0], [0, 0, 1], atol=1e-12)
    assert np.allclose(R @ [0, 0, 1], [1, 0, 0], atol=1e-12)


def test_decode_rejects_zero_quaternion():
    with pytest.raises(ZeroQuaternion):
        _camera_from_vector([0, 0, 0, 0, 0, 0, 0, 1, 1])


def test_decode_rejects_bad_fov():
    with pytest.raises(FovOutOfRange):
        _camera_from_vector([1, 0, 0, 0, 0, 0, 0, math.pi, 1])
    with pytest.raises(FovOutOfRange):
        _camera_from_vector([1, 0, 0, 0, 0, 0, 0, 1, 0.0])


def test_rotations_from_quaternions_orthonormal():
    rng = SplitMix64(8)
    for _ in range(100):
        q = np.array([rng.uniform() * 2 - 1 for _ in range(4)])
        q /= np.linalg.norm(q)
        R = quat_to_rotation(q)
        assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-9
        assert abs(np.linalg.det(R) - 1) < 1e-9
        # and the matrix converts back to +-q
        q2 = rotation_to_quat(R)
        assert min(np.abs(q2 - q).max(), np.abs(q2 + q).max()) < 1e-9


# ---------------------------------------------------------------------------
# intrinsics

def test_intrinsics_quarter_pi():
    c = identity_camera()
    fx, fy, cx, cy = intrinsics(c, 32, 64)
    assert abs(fx - 32) < 1e-12
    assert abs(fy - 16) < 1e-12
    assert cx == 32 and cy == 16


def test_intrinsics_monotone_in_fov():
    prev = None
    for fov_h in np.linspace(0.3, 2.8, 12):
        c = identity_camera(fov=(1.0, fov_h))
        fx = intrinsics(c, 64, 64)[0]
        if prev is not None:
            assert fx < prev  # narrower fov (earlier in sweep) -> larger fx
        prev = fx


# ---------------------------------------------------------------------------
# projection

def test_unproject_center_pixel():
    c = identity_camera()
    d = DepthMap(values=np.full((4, 4), 2.0), valid=np.ones((4, 4), bool))
    points = reference_unproject(d, c)
    # pixel (1,1) center is (1.5,1.5) -> offset -0.5 px from cx=2 at fx=2
    assert np.allclose(points[1, 1], [-0.5, -0.5, 2.0])


def test_project_center():
    c = identity_camera()
    u, v, z, in_front = project_many([[0, 0, 2]], c, 64, 64)
    assert (u[0], v[0], z[0]) == (32.0, 32.0, 2.0)
    assert in_front[0]


def test_project_behind_camera():
    _, _, _, in_front = project_many([[0, 0, -1], [0, 0, 0]], identity_camera(), 64, 64)
    assert not in_front.any()


def test_pure_translation_shifts_world_points():
    c = CameraParams(q=[1, 0, 0, 0], t=[0, 0, -1], fov=(math.pi / 2, math.pi / 2))
    d = DepthMap(values=np.full((2, 2), 3.0), valid=np.ones((2, 2), bool))
    base = reference_unproject(DepthMap(values=np.full((2, 2), 3.0),
                                        valid=np.ones((2, 2), bool)), identity_camera())
    moved = reference_unproject(d, c)
    assert np.allclose(moved, base + [0, 0, 1])


def test_unproject_project_roundtrip_random_cameras():
    rng = SplitMix64(77)
    worst = 0.0
    for _ in range(100):
        c = random_camera(rng)
        vals = 0.5 + 4.5 * np.array([rng.uniform() for _ in range(48)]).reshape(6, 8)
        d = DepthMap(values=vals, valid=np.ones((6, 8), bool))
        points = reference_unproject(d, c)
        uu, vv, zz, in_front = project_many(points.reshape(-1, 3), c, 6, 8)
        v, u = np.divmod(np.arange(48), 8)
        assert in_front.all()
        worst = max(worst, np.abs(uu - (u + 0.5)).max(), np.abs(vv - (v + 0.5)).max())
        assert np.all(np.abs(zz - vals.ravel()) < 1e-9)
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# transform groups

def _random_se3(rng):
    q = np.array([rng.uniform() * 2 - 1 for _ in range(4)])
    q /= np.linalg.norm(q)
    return SE3(quat_to_rotation(q), [rng.uniform() * 4 - 2 for _ in range(3)])


def test_identity_transforms_fix_points():
    p = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(se3_apply(SE3.identity(), p), p)
    assert np.array_equal(sim3_apply(SIM3.identity(), p), p)


def test_compose_invert_identity():
    rng = SplitMix64(13)
    for _ in range(100):
        T = _random_se3(rng)
        I = se3_compose(T, se3_invert(T))
        assert np.max(np.abs(I.rotation - np.eye(3))) < 1e-12
        assert np.max(np.abs(I.translation)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(scale=st.floats(0.01, 100.0),
       px=st.floats(-5, 5), py=st.floats(-5, 5), pz=st.floats(-5, 5),
       qx=st.floats(-5, 5), qy=st.floats(-5, 5), qz=st.floats(-5, 5))
# np.linalg.norm squares this difference into the subnormal range; hypot does not
@example(scale=2.0, px=0.0, py=0.0, pz=0.0, qx=0.0, qy=0.0, qz=2.969691144905038e-159)
def test_sim3_scales_pairwise_distances(scale, px, py, pz, qx, qy, qz):
    R = quat_to_rotation(np.array([0.5, 0.5, 0.5, 0.5]))
    a = np.array([px, py, pz])
    b = np.array([qx, qy, qz])
    d0 = math.hypot(*(a - b))
    # pure scale+rotation: distance scaling is exact to rounding
    T0 = SIM3(scale, R, [0, 0, 0])
    d1 = math.hypot(*(sim3_apply(T0, a) - sim3_apply(T0, b)))
    assert d1 == pytest.approx(scale * d0, rel=1e-12, abs=1e-300)
    # with a translation the cancellation leaves absolute noise ~eps*|t|
    T1 = SIM3(scale, R, [1, 2, 3])
    d2 = math.hypot(*(sim3_apply(T1, a) - sim3_apply(T1, b)))
    assert d2 == pytest.approx(scale * d0, rel=1e-9, abs=1e-13)


def test_sim3_scale_three_triples_distances():
    T = SIM3(3.0, np.eye(3), [0, 0, 0])
    a, b = np.array([1.0, 0, 0]), np.array([0, 2.0, 0])
    assert np.linalg.norm(sim3_apply(T, a) - sim3_apply(T, b)) == \
        pytest.approx(3 * np.linalg.norm(a - b), rel=1e-12)

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from scene4d.geometry import CameraParams, DepthMap, intrinsics, pixel_directions
from scene4d.raycast import raycast_batch, triangle_soup
from scene4d.synth import (SceneObject, SceneSpec, box_mesh, plane_mesh,
                           spin_path, translation_path)


def identity_camera(fov=(math.pi / 2, math.pi / 2)) -> CameraParams:
    return CameraParams(q=[1, 0, 0, 0], t=[0, 0, 0], fov=fov)


def demo_scene(n_frames=8, resolution=(64, 64), seed=7, n_queries=512) -> SceneSpec:
    """One spinning box, one translating box, static ground plane."""
    cam = identity_camera()
    spin_v, spin_f = box_mesh([1.2, 0.0, 5.0], [1.4, 1.4, 1.4])
    slide_v, slide_f = box_mesh([-1.5, 0.0, 6.0], [1.0, 1.0, 1.0])
    return SceneSpec(
        objects=[
            SceneObject(spin_v, spin_f,
                        spin_path([0, 1, 0], [1.2, 0.0, 5.0], math.pi / 7, n_frames)),
            SceneObject(slide_v, slide_f,
                        translation_path([0.25, 0, 0], n_frames)),
        ],
        background=plane_mesh([0, 2.5, 8.0], [9, 0, 0], [0, 0, 9]),
        camera_path=[cam] * n_frames,
        resolution=resolution,
        n_frames=n_frames,
        seed=seed,
        n_queries=n_queries,
    )


def spinning_box_scene(n_frames=8, resolution=(64, 64), seed=3) -> SceneSpec:
    """A single box doing a half-turn in front of the camera (no background),
    so surfaces hidden at frame 0 are seen in later frames."""
    cam = identity_camera()
    v, f = box_mesh([0, 0, 5.0], [2.0, 2.0, 2.0])
    return SceneSpec(
        objects=[SceneObject(v, f, spin_path([0, 1, 0], [0, 0, 5.0],
                                             math.pi / n_frames, n_frames))],
        background=None,
        camera_path=[cam] * n_frames,
        resolution=resolution,
        n_frames=n_frames,
        seed=seed,
    )


@pytest.fixture(scope="session")
def demo_dataset():
    from scene4d.synth import generate
    return generate(demo_scene())


# ---------------------------------------------------------------------------
# attachment and lifting references (the generator does both in batch form)

DEPTH_AGREEMENT_TOL = 1e-3   # meters; an attachment must match the depth map


def attach_pixel(pixel, depth, cam, meshes):
    """Bind pixel (u, v) = (column, row) to the nearest face its ray hits
    among `meshes`, (vertices (V, 3), faces (F, 3)) pairs indexed by object
    id -> (object_id, face_id, bary), or None when nothing is hit or the
    hit is more than DEPTH_AGREEMENT_TOL off the depth map."""
    u, v = int(pixel[0]), int(pixel[1])
    direction = pixel_directions(cam, *depth.values.shape)[v, u] @ cam.rotation
    soup = triangle_soup(meshes, range(len(meshes)))
    t, idx, bary = raycast_batch(cam.center(), direction[None, :], soup.tris)
    if idx[0] < 0 or abs(t[0] - depth.values[v, u]) > DEPTH_AGREEMENT_TOL:
        return None
    return int(soup.owner[idx[0]]), int(soup.face[idx[0]]), bary[0]


def lift(bary, face_ids, vertices, faces):
    """Barycentric lifting: (M, 3) weights on faces (M,) of a mesh whose
    vertices are (N, V, 3) over N frames -> (M, N, 3) tracks."""
    corners = np.asarray(vertices)[:, np.asarray(faces)[face_ids], :]   # (N, M, 3, 3)
    return np.einsum("mk,nmkd->mnd", np.asarray(bary, dtype=np.float64), corners)


def rotation_to_quat(R) -> np.ndarray:
    """3x3 rotation matrix -> unit quaternion (w, x, y, z), w >= 0, for
    building cameras from rotation matrices."""
    R = np.asarray(R, dtype=np.float64)
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    if tr > 0:
        s = math.sqrt(tr + 1.0) * 2
        q = np.array([0.25 * s,
                      (R[2, 1] - R[1, 2]) / s,
                      (R[0, 2] - R[2, 0]) / s,
                      (R[1, 0] - R[0, 1]) / s])
    else:
        i = int(np.argmax([R[0, 0], R[1, 1], R[2, 2]]))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = math.sqrt(max(R[i, i] - R[j, j] - R[k, k] + 1.0, 0.0)) * 2
        q = np.empty(4)
        q[0] = (R[k, j] - R[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (R[j, i] + R[i, j]) / s
        q[1 + k] = (R[k, i] + R[i, k]) / s
    q /= np.linalg.norm(q)
    if q[0] < 0:
        q = -q
    return q


def reference_unproject(d: DepthMap, c: CameraParams) -> np.ndarray:
    """Depth map -> (H, W, 3) world points through the camera, zero at
    invalid pixels: the pinhole lift written out from the intrinsics."""
    h, w = d.values.shape
    fx, fy, cx, cy = intrinsics(c, h, w)
    u = np.arange(w, dtype=np.float64) + 0.5
    v = np.arange(h, dtype=np.float64) + 0.5
    uu, vv = np.meshgrid(u, v)
    z = np.where(d.valid, d.values, 0.0)
    x = (uu - cx) / fx * z
    y = (vv - cy) / fy * z
    cam = np.stack([x, y, z], axis=-1)
    R = c.rotation
    world = (cam - c.t) @ R
    return np.where(d.valid[..., None], world, 0.0)


def brute_nn_distances(a, b, block=256) -> np.ndarray:
    """Distance from each row of `a` to its nearest row of `b` by a full
    scan, sqrt of the summed squared differences, `block` rows of `a` at a
    time (each row's distances are computed alone, so the block size does
    not change a bit)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return np.concatenate([np.sqrt(((a[i:i + block, None, :] - b[None, :, :]) ** 2).sum(-1))
                           .min(axis=1) for i in range(0, len(a), block)])


def random_camera(rng) -> CameraParams:
    """Well-conditioned random camera from a splitmix64 stream."""
    q = np.array([rng.uniform() * 2 - 1 for _ in range(4)])
    while np.linalg.norm(q) < 0.1:
        q = np.array([rng.uniform() * 2 - 1 for _ in range(4)])
    q /= np.linalg.norm(q)
    t = np.array([rng.uniform() * 6 - 3 for _ in range(3)])
    fov = (0.3 + rng.uniform() * 2.3, 0.3 + rng.uniform() * 2.3)
    return CameraParams(q=q, t=t, fov=fov)


# ---------------------------------------------------------------------------
# JSON values for the loaders' property tests

# Numbers include what json.load accepts beyond standard JSON (NaN,
# Infinity) and integers no float holds. Every other number is small:
# a loader may build a list of n_frames entries before checking anything.
JSON_NUMBERS = (st.integers(-2, 8) | st.floats(-8, 8)
                | st.sampled_from([math.nan, math.inf, -math.inf, 1e300, 2**63, 10**400]))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | JSON_NUMBERS | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=4),
    max_leaves=12)


def json_or(valid):
    """A field's valid JSON value, lists of numbers of nearby lengths, or any JSON value."""
    return st.just(valid) | st.lists(JSON_NUMBERS, min_size=2, max_size=5) | JSON_VALUES


JSON_CAMERAS = st.fixed_dictionaries({}, optional={
    "q": json_or([1, 0, 0, 0]), "t": json_or([0, 0, 0]), "fov": json_or([1, 1])}) | JSON_VALUES

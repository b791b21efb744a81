"""Training-data machinery: pixel-to-surface attachment, trajectory lifting
through vertex correspondence, camera-cut clip splitting, and dynamic/static
classification.

A surface attachment binds a pixel to a mesh face via barycentric weights;
re-evaluating those weights on the face's vertices at other frames yields a
3D trajectory. Faces are constant across frames, so vertex index k at frame
t corresponds to vertex index k everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FaceOutOfRange
from .geometry import CameraParams, DepthMap, intrinsics
from .raycast import raycast_batch, triangle_soup

DEPTH_AGREEMENT_TOL = 1e-3   # meters; attachment must match the depth map
DEPTH_VALID_MIN = 1e-6       # meters; below this a depth is ignored in splits
DEFAULT_SPLIT_TAU = 0.7


@dataclass
class MeshSequence:
    """Per-frame vertex positions over a constant face topology."""

    vertices: np.ndarray  # (N, V, 3) meters
    faces: np.ndarray     # (F, 3) vertex indices

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        self.faces = np.asarray(self.faces, dtype=np.int64)
        if self.vertices.ndim != 3 or self.vertices.shape[2] != 3:
            raise ValueError("vertices must be (n_frames, V, 3)")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise ValueError("faces must be (F, 3)")
        if self.vertices.shape[1] < 1 or self.faces.shape[0] < 1:
            raise ValueError("mesh needs at least one vertex and one face")
        if self.faces.min() < 0 or self.faces.max() >= self.vertices.shape[1]:
            raise ValueError("face indices out of range")

    @property
    def n_frames(self) -> int:
        return self.vertices.shape[0]

    def triangles(self, frame: int) -> np.ndarray:
        """(F, 3, 3) triangle vertex positions at one frame."""
        return self.vertices[frame][self.faces]


@dataclass
class SurfaceAttachment:
    """(object, face, barycentric weights) binding for one pixel."""

    object_id: int
    face_id: int
    bary: np.ndarray  # (3,) non-negative, sums to 1

    def __post_init__(self):
        self.bary = np.asarray(self.bary, dtype=np.float64).reshape(3)
        s = float(self.bary.sum())
        if abs(s - 1.0) > 1e-9:
            raise ValueError("barycentric weights must sum to 1")
        if np.any(self.bary < -1e-9) or np.any(self.bary > 1.0 + 1e-9):
            raise ValueError("barycentric weights outside [0, 1]")


@dataclass
class ClipBoundary:
    """Frame indices where a new clip begins (strictly increasing, in (0, N))."""

    split_indices: list[int] = field(default_factory=list)

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.split_indices, self.split_indices[1:])):
            raise ValueError("split indices must be strictly increasing")


def pixel_ray(pixel, depth_shape, cam: CameraParams):
    """World-frame (origin, direction) through a pixel center.

    The direction is scaled so that t along the ray equals camera-frame
    z-depth.
    """
    u, v = pixel
    h, w = depth_shape
    fx, fy, cx, cy = intrinsics(cam, h, w)
    dir_cam = np.array([(u + 0.5 - cx) / fx, (v + 0.5 - cy) / fy, 1.0])
    R = cam.rotation
    return cam.center(), R.T @ dir_cam


def attach_pixel(pixel, depth: DepthMap, cam: CameraParams, meshes) -> SurfaceAttachment | None:
    """Bind a valid depth pixel to the nearest face of the supplied meshes.

    `pixel` is (u, v) = (column, row); `meshes` is a sequence of
    (vertices (V,3), faces (F,3)) pairs indexed by object_id. Returns None
    when no mesh accounts for the pixel's depth (nearest hit differs from
    the depth map by more than 1e-3 m, or nothing is hit at all).
    """
    u, v = int(pixel[0]), int(pixel[1])
    if not depth.valid[v, u]:
        raise ValueError("pixel is invalid in the depth map")
    origin, direction = pixel_ray((u, v), depth.values.shape, cam)

    soup = triangle_soup(meshes, range(len(meshes)))
    t, idx, bary = raycast_batch(origin, direction[None, :], soup.tris)
    if idx[0] < 0:
        return None
    if abs(t[0] - depth.values[v, u]) > DEPTH_AGREEMENT_TOL:
        return None
    return SurfaceAttachment(object_id=int(soup.owner[idx[0]]),
                             face_id=int(soup.face[idx[0]]),
                             bary=bary[0])


def lift_trajectory(att: SurfaceAttachment, seq: MeshSequence) -> np.ndarray:
    """Barycentric re-evaluation of an attachment at every frame -> (N, 3)."""
    if not (0 <= att.face_id < seq.faces.shape[0]):
        raise FaceOutOfRange(f"face {att.face_id} outside mesh with {seq.faces.shape[0]} faces")
    corners = seq.vertices[:, seq.faces[att.face_id], :]  # (N, 3, 3)
    return np.einsum("k,nkd->nd", att.bary, corners)


def lift_trajectories(bary: np.ndarray, face_ids: np.ndarray, seq: MeshSequence) -> np.ndarray:
    """Batch form of lift_trajectory: (M,3) weights, (M,) faces -> (M, N, 3)."""
    face_ids = np.asarray(face_ids, dtype=np.int64)
    if face_ids.size and (face_ids.min() < 0 or face_ids.max() >= seq.faces.shape[0]):
        raise FaceOutOfRange("face index outside mesh")
    corners = seq.vertices[:, seq.faces[face_ids], :]     # (N, M, 3, 3)
    return np.einsum("mk,nmkd->mnd", np.asarray(bary, dtype=np.float64), corners)


def depth_shift(prev: DepthMap, nxt: DepthMap) -> float | None:
    """Median |log depth ratio| over jointly valid pixels; None if no overlap."""
    joint = prev.valid & nxt.valid \
        & (prev.values >= DEPTH_VALID_MIN) & (nxt.values >= DEPTH_VALID_MIN)
    if not np.any(joint):
        return None
    ratio = np.log(nxt.values[joint]) - np.log(prev.values[joint])
    return float(np.median(np.abs(ratio)))


def split_clips(depths, tau: float = DEFAULT_SPLIT_TAU) -> ClipBoundary:
    """Cut a depth sequence at abrupt depth-distribution shifts.

    A split lands before frame t+1 iff the median absolute log-ratio of
    jointly valid depths between frames t and t+1 exceeds tau. A pair with
    no valid overlap counts as a split. The statistic is invariant to
    global depth scaling.
    """
    if len(depths) < 2:
        raise ValueError("need at least two frames")
    if tau <= 0:
        raise ValueError("tau must be positive")
    splits = []
    for t in range(len(depths) - 1):
        s = depth_shift(depths[t], depths[t + 1])
        if s is None or s > tau:
            splits.append(t + 1)
    return ClipBoundary(split_indices=splits)


def classify_dynamic(traj: np.ndarray, target: int, delta: float):
    """True iff any frame's displacement from the target-frame position
    strictly exceeds delta.

    Accepts one trajectory (N, 3) or a batch (M, N, 3); returns a bool or
    a (M,) bool array accordingly.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    traj = np.asarray(traj, dtype=np.float64)
    single = traj.ndim == 2
    if single:
        traj = traj[None]
    disp = np.linalg.norm(traj - traj[:, target:target + 1, :], axis=2)
    dyn = disp.max(axis=1) > delta
    return bool(dyn[0]) if single else dyn

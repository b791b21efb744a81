"""Camera model, rigid/similarity transforms, and point-map containers.

Conventions (fixed once, relied on everywhere):

* Extrinsics ``(q, t)`` map world to camera: ``x_cam = R(q) @ x_world + t``.
* Quaternions are ``(w, x, y, z)``, unit norm.
* ``fov`` is ``(vertical, horizontal)`` in radians, each in (0, pi). The
  principal point sits at the image center, so intrinsics come from fov
  and resolution alone.
* Pixel ``(u, v)`` covers ``[u, u+1) x [v, v+1)``; rays pass through the
  pixel center ``(u + 0.5, v + 0.5)``. ``pixel_directions`` is the one
  place that builds those rays, and ``project_many`` returns continuous
  image coordinates in that same frame.
* Depth is z-depth: distance along the camera z axis, not ray length.
* Image arrays are indexed ``[v, u]`` (row-major, v = row, u = column).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FovOutOfRange, ZeroQuaternion


# ---------------------------------------------------------------------------
# quaternions

def quat_to_rotation(q) -> np.ndarray:
    """Unit quaternion (w, x, y, z) -> 3x3 rotation matrix."""
    w, x, y, z = np.asarray(q, dtype=np.float64)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def axis_angle_rotation(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation about a (not necessarily unit) axis."""
    a = np.asarray(axis, dtype=np.float64)
    n = np.linalg.norm(a)
    if n < 1e-15:
        raise ValueError("rotation axis must be nonzero")
    a = a / n
    K = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)


# ---------------------------------------------------------------------------
# domain types

@dataclass
class CameraParams:
    """World-to-camera pose plus field of view."""

    q: np.ndarray          # (4,) unit quaternion, (w, x, y, z)
    t: np.ndarray          # (3,) translation, meters
    fov: tuple[float, float]  # (vertical, horizontal) radians

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=np.float64).reshape(4)
        self.t = np.asarray(self.t, dtype=np.float64).reshape(3)
        self.fov = (float(self.fov[0]), float(self.fov[1]))
        if abs(np.linalg.norm(self.q) - 1.0) > 1e-9:
            raise ZeroQuaternion("quaternion must have unit norm")
        for f in self.fov:
            if not (0.0 < f < math.pi):
                raise FovOutOfRange(f"fov {f} outside (0, pi)")

    @property
    def rotation(self) -> np.ndarray:
        return quat_to_rotation(self.q)

    def center(self) -> np.ndarray:
        """Camera center in world coordinates, -R^T t."""
        return -self.rotation.T @ self.t


@dataclass
class SE3:
    """Rigid transform p -> R p + t."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        self.translation = np.asarray(self.translation, dtype=np.float64).reshape(3)

    @staticmethod
    def identity() -> "SE3":
        return SE3(np.eye(3), np.zeros(3))


@dataclass
class SIM3:
    """Similarity transform p -> s R p + t, s > 0."""

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.scale = float(self.scale)
        self.rotation = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        self.translation = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if self.scale <= 0:
            raise ValueError("similarity scale must be positive")

    @staticmethod
    def identity() -> "SIM3":
        return SIM3(1.0, np.eye(3), np.zeros(3))


@dataclass
class DepthMap:
    """Per-pixel z-depth with validity mask."""

    values: np.ndarray  # (H, W) float64, meters
    valid: np.ndarray   # (H, W) bool

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.values.shape != self.valid.shape or self.values.ndim != 2:
            raise ValueError("values and valid must be matching H x W arrays")
        v = self.values[self.valid]
        if v.size and (not np.all(np.isfinite(v)) or np.any(v < 0)):
            raise ValueError("valid depths must be finite and non-negative")


@dataclass
class PointMap:
    """Per-pixel 3D world points with validity mask."""

    points: np.ndarray  # (H, W, 3) float64, meters
    valid: np.ndarray   # (H, W) bool

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.points.ndim != 3 or self.points.shape[2] != 3 \
                or self.points.shape[:2] != self.valid.shape:
            raise ValueError("points must be H x W x 3 matching the valid mask")
        p = self.points[self.valid]
        if p.size and not np.all(np.isfinite(p)):
            raise ValueError("valid points must be finite")

    def cloud(self) -> np.ndarray:
        """Valid points as an (n, 3) array, row-major pixel order."""
        return self.points[self.valid]


# ---------------------------------------------------------------------------
# projection

def intrinsics(c: CameraParams, height: int, width: int) -> tuple[float, float, float, float]:
    """(fx, fy, cx, cy) for the centered pinhole model at a given resolution."""
    fov_v, fov_h = c.fov
    fx = (width / 2.0) / math.tan(fov_h / 2.0)
    fy = (height / 2.0) / math.tan(fov_v / 2.0)
    return fx, fy, width / 2.0, height / 2.0


def pixel_directions(c: CameraParams, height: int, width: int) -> np.ndarray:
    """(H, W, 3) camera-frame ray directions through the pixel centres.

    The z component is exactly 1, so t along a direction is the z-depth;
    rotate a row to the world frame with ``d @ c.rotation`` (R^T d).
    """
    fx, fy, cx, cy = intrinsics(c, height, width)
    u = np.arange(width, dtype=np.float64) + 0.5
    v = np.arange(height, dtype=np.float64) + 0.5
    uu, vv = np.meshgrid(u, v)
    return np.stack([(uu - cx) / fx, (vv - cy) / fy, np.ones_like(uu)], axis=-1)


def project_many(points: np.ndarray, c: CameraParams, height: int, width: int):
    """Vectorized projection: (n,3) -> (u, v, z arrays, in_front mask)."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    cam = pts @ c.rotation.T + c.t
    z = cam[:, 2]
    in_front = z > 1e-9
    fx, fy, cx, cy = intrinsics(c, height, width)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = fx * cam[:, 0] / z + cx
        v = fy * cam[:, 1] / z + cy
    return u, v, z, in_front


# ---------------------------------------------------------------------------
# transform group actions

def se3_apply(T: SE3, p) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    return p @ T.rotation.T + T.translation


def se3_compose(A: SE3, B: SE3) -> SE3:
    """Composition A after B: (A ∘ B)(p) = A(B(p))."""
    return SE3(A.rotation @ B.rotation, A.rotation @ B.translation + A.translation)


def se3_invert(T: SE3) -> SE3:
    Rt = T.rotation.T
    return SE3(Rt, -Rt @ T.translation)


def sim3_apply(T: SIM3, p) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    return T.scale * (p @ T.rotation.T) + T.translation


def rotation_angle_deg(R) -> float:
    """Geodesic rotation angle of a rotation matrix, in degrees."""
    R = np.asarray(R, dtype=np.float64)
    c = (np.trace(R) - 1.0) / 2.0
    return math.degrees(math.acos(min(1.0, max(-1.0, c))))

"""Deterministic dynamic-scene generator with exact ground truth.

A scene is a set of rigid objects (mesh / box / plane shapes, each with a
per-frame SE3 motion path), an optional static background mesh, and a
camera path. Rendering is exact raycasting: every ray gets bitwise the
nearest hit that testing it against every triangle would give, but a
direction grid culls the pairs that cannot hit, and rays are processed in
fixed-size chunks, so memory stays bounded as meshes grow (see `raycast`).
Outputs are bit-reproducible for a fixed seed.

The generator also defines the ground-truth temporal aggregation operator:
warping frame i's points into the time of frame a by each object's rigid
motion, with static geometry left untouched. Unioning the warped maps over
all source frames yields the complete cloud at time a, covering surfaces
occluded at a but seen elsewhere.

Object ids: >= 0 for scene objects, -1 for the background, -2 marks an
uncovered pixel in packed attachment arrays.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import EmptyScene, FovOutOfRange, InputError, QueryInvalid, ZeroQuaternion
from .geometry import (SE3, CameraParams, DepthMap, PointMap,
                       axis_angle_rotation, pixel_directions, project_many,
                       quat_to_rotation, se3_apply, se3_compose, se3_invert)
from .lifting import classify_dynamic
from .raycast import TriangleSoup, raycast_batch, triangle_soup
from .rng import SplitMix64, check_seed

BACKGROUND_ID = -1
NO_ATTACHMENT_ID = -2
VISIBILITY_DEPTH_TOL = 1e-4  # meters, reprojection-vs-rendered-depth test
DEFAULT_N_QUERIES = 512
DEFAULT_DYNAMIC_DELTA = 0.03
_PIXEL_BLOCK = 4096  # pixels whose hits _render gathers together


# ---------------------------------------------------------------------------
# shapes

def box_mesh(center, size):
    """Axis-aligned box -> (8 vertices, 12 triangles)."""
    c = np.asarray(center, dtype=np.float64)
    h = np.asarray(size, dtype=np.float64) / 2.0
    corners = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
                       dtype=np.float64)
    verts = c + corners * h
    # two triangles per face, consistent outward winding not required
    faces = np.array([
        [0, 1, 3], [0, 3, 2],  # -x
        [4, 6, 7], [4, 7, 5],  # +x
        [0, 4, 5], [0, 5, 1],  # -y
        [2, 3, 7], [2, 7, 6],  # +y
        [0, 2, 6], [0, 6, 4],  # -z
        [1, 5, 7], [1, 7, 3],  # +z
    ], dtype=np.int64)
    return verts, faces


def plane_mesh(center, u_axis, v_axis):
    """Parallelogram patch spanned by +-u_axis, +-v_axis -> (4 verts, 2 tris)."""
    c = np.asarray(center, dtype=np.float64)
    u = np.asarray(u_axis, dtype=np.float64)
    v = np.asarray(v_axis, dtype=np.float64)
    verts = np.array([c - u - v, c + u - v, c + u + v, c - u + v])
    faces = np.array([[0, 1, 2], [0, 2, 3]], dtype=np.int64)
    return verts, faces


def _shape_from_dict(d):
    kind = d["type"]
    if kind == "box":
        return box_mesh(_numbers(d, "center", 3), _numbers(d, "size", 3))
    if kind == "plane":
        return plane_mesh(*(_numbers(d, k, 3) for k in ("center", "u_axis", "v_axis")))
    if kind == "mesh":
        verts = np.asarray(_numbers(d, "vertices", -1, 3), dtype=np.float64)
        faces = d["faces"]
        # checked as JSON: the int64 cast below would truncate 1.5 and take true as 1
        if verts.ndim != 2 or any(len(f) != 3 for f in faces) \
                or not {type(i) for f in faces for i in f} <= {int}:
            raise ValueError("a mesh needs [x, y, z] vertices and integer triple faces")
        return verts, np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    raise ValueError(f"unknown shape type {kind!r}")


# ---------------------------------------------------------------------------
# motions

def translation_path(velocity, n_frames: int) -> list[SE3]:
    v = np.asarray(velocity, dtype=np.float64)
    return [SE3(np.eye(3), v * t) for t in range(n_frames)]


def spin_path(axis, pivot, radians_per_frame: float, n_frames: int) -> list[SE3]:
    pivot = np.asarray(pivot, dtype=np.float64)
    path = []
    for t in range(n_frames):
        R = axis_angle_rotation(axis, radians_per_frame * t)
        path.append(SE3(R, pivot - R @ pivot))
    return path


def _is_rotation(R: np.ndarray) -> bool:
    """R^T R = I within 1e-9 and det R > 0; false for a non-finite R, as
    NaN compares false."""
    return bool(np.abs(R.T @ R - np.eye(3)).max() <= 1e-9 and np.linalg.det(R) > 0)


def _motion_from_spec(m, n_frames: int) -> list[SE3]:
    if isinstance(m, list):
        if len(m) != n_frames:
            raise ValueError("explicit motion list must have n_frames entries")
        out = []
        for e in m:
            if "R" in e:
                out.append(SE3(np.asarray(_numbers(e, "R", 3, 3), dtype=np.float64),
                               _numbers(e, "t", 3)))
                continue
            # q is not normalised, so that a unit q gives the bits it always gave;
            # within a camera's tolerance of unit norm its R can still fail _is_rotation
            norm = np.linalg.norm(_numbers(e, "q", 4))
            R = quat_to_rotation(e["q"])
            if abs(norm - 1.0) > 1e-9 or not _is_rotation(R):
                raise ValueError(f"a motion q must be of unit norm and give a rotation R "
                                 f"(R^T R = I within 1e-9); q {e['q']} has norm "
                                 f"{norm:.12g}")
            out.append(SE3(R, _numbers(e, "t", 3)))
        return out
    if not isinstance(m, dict):
        raise TypeError("a motion must be a list or a JSON object")
    kind = m.get("kind", "static")
    if kind == "static":
        return [SE3.identity() for _ in range(n_frames)]
    if kind == "translate":
        return translation_path(_numbers(m, "velocity", 3), n_frames)
    if kind == "spin":
        return spin_path(_numbers(m, "axis", 3), _numbers(m, "pivot", 3),
                         _numbers(m, "radians_per_frame"), n_frames)
    raise ValueError(f"unknown motion kind {kind!r}")


# ---------------------------------------------------------------------------
# scene specification

@dataclass
class SceneObject:
    """Rigid object: base shape plus one SE3 placement per frame."""

    vertices: np.ndarray      # (V, 3) base positions
    faces: np.ndarray         # (F, 3)
    motion: list[SE3]         # length n_frames

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        self.faces = np.asarray(self.faces, dtype=np.int64)

    def vertices_at(self, frame: int) -> np.ndarray:
        return se3_apply(self.motion[frame], self.vertices)


@dataclass
class SceneSpec:
    """Complete recipe for one synthetic sequence."""

    objects: list[SceneObject]
    background: tuple[np.ndarray, np.ndarray] | None
    camera_path: list[CameraParams]
    resolution: tuple[int, int]      # (H, W)
    n_frames: int
    seed: int
    n_queries: int = DEFAULT_N_QUERIES
    dynamic_delta: float = DEFAULT_DYNAMIC_DELTA

    def __post_init__(self):
        # checked here, not when a frame first needs them, so that `gen`
        # fails before it has written any frame
        if self.n_queries < 0:
            raise ValueError("n_queries must be >= 0")
        if min(self.n_frames, *self.resolution) < 1:
            raise ValueError("n_frames and both resolution sides must be >= 1")
        check_seed(self.seed)
        if not 0 < self.dynamic_delta < np.inf:
            raise ValueError("dynamic_delta must be positive and finite")
        if len(self.camera_path) != self.n_frames:
            raise ValueError("camera_path must have n_frames entries")
        # a NaN vertex or motion would render silently (its triangle is never
        # hit), and a face index past the vertices fails only when rendered
        meshes = [(obj.vertices, obj.faces) for obj in self.objects]
        if self.background is not None:
            meshes.append(self.background)
        for verts, faces in meshes:
            verts, faces = np.asarray(verts), np.asarray(faces)
            if not np.all(np.isfinite(verts)):
                raise ValueError("mesh vertices must be finite")
            if faces.size and not (faces.min() >= 0 and faces.max() < len(verts)):
                raise ValueError(f"a face index is outside its mesh's 0..{len(verts) - 1}")
        for obj in self.objects:
            if len(obj.motion) != self.n_frames:
                raise ValueError("object motion must have n_frames entries")
            # the oracle's warp and the dynamic labels assume rigid motion
            if not all(np.all(np.isfinite(m.translation)) and _is_rotation(m.rotation)
                       for m in obj.motion):
                raise ValueError("object motions must have a finite t and a rotation R "
                                 "(R^T R = I, det R > 0)")

    # -- JSON schema ----------------------------------------------------

    @staticmethod
    def from_dict(d) -> "SceneSpec":
        """Parse the scene JSON; a missing field or one of the wrong type or
        shape raises InputError."""
        try:
            n, (h, w) = d["n_frames"], _numbers(d, "resolution", 2)
            n_queries = d.get("n_queries", DEFAULT_N_QUERIES)
            # the int-not-bool rule of rng.check_seed: int() would truncate 2.7 and take true as 1
            if not all(isinstance(k, (int, np.integer)) and not isinstance(k, bool)
                       for k in (n, h, w, n_queries)):
                raise InputError("scene spec: n_frames, resolution and n_queries must be integers")
            if "camera_path" in d:
                cams = [_camera_from_dict(c) for c in d["camera_path"]]
            else:
                cams = [_camera_from_dict(d["camera"])] * n
            objects = []
            for o in d.get("objects", []):
                verts, faces = _shape_from_dict(o["shape"])
                objects.append(SceneObject(verts, faces, _motion_from_spec(o["motion"], n)))
            bg = d.get("background")
            background = _shape_from_dict(bg) if bg else None
            return SceneSpec(
                objects=objects,
                background=background,
                camera_path=cams,
                resolution=(int(h), int(w)),
                n_frames=int(n),
                seed=d["seed"],
                n_queries=int(n_queries),
                dynamic_delta=float(_numbers(d, "dynamic_delta")) if "dynamic_delta" in d
                else DEFAULT_DYNAMIC_DELTA,
            )
        except KeyError as e:
            raise InputError(f"scene spec: missing field {e}") from e
        except (IndexError, TypeError, ValueError, OverflowError) as e:
            # a field of the wrong type or shape, or a number no int or index holds
            raise InputError(f"scene spec: unusable field ({e})") from e

    def to_dict(self) -> dict:
        """Normalized form: explicit meshes, per-frame R/t, full camera path."""
        return {
            "resolution": [int(self.resolution[0]), int(self.resolution[1])],
            "n_frames": self.n_frames,
            "seed": self.seed,
            "n_queries": self.n_queries,
            "dynamic_delta": self.dynamic_delta,
            "camera_path": [_camera_to_dict(c) for c in self.camera_path],
            "background": None if self.background is None else {
                "type": "mesh",
                "vertices": self.background[0].tolist(),
                "faces": self.background[1].tolist(),
            },
            "objects": [{
                "shape": {
                    "type": "mesh",
                    "vertices": o.vertices.tolist(),
                    "faces": o.faces.tolist(),
                },
                "motion": [{"R": m.rotation.tolist(), "t": m.translation.tolist()}
                           for m in o.motion],
            } for o in self.objects],
        }


def _numbers(c: dict, key: str, *shape: int):
    """Field `key` of `c` as finite JSON numbers (bools, NaN, Infinity and
    integers beyond the float range excluded) in nested lists of `shape`,
    -1 taking any length; one number for no shape. Else InputError."""
    def fits(v, shape):
        if not shape:
            return isinstance(v, (int, float)) and not isinstance(v, bool) \
                and abs(v) <= sys.float_info.max
        return isinstance(v, (list, tuple)) and shape[0] in (-1, len(v)) \
            and all(fits(x, shape[1:]) for x in v)
    if not fits(c[key], shape):
        size = " x ".join("n" if k < 0 else str(k) for k in shape)
        raise InputError(f"field {key!r} must be "
                         + (f"{size} finite numbers" if shape else "a finite number"))
    return c[key]


def _camera_from_dict(c) -> CameraParams:
    """A camera JSON object; a non-unit `q` or a `fov` outside (0, pi)
    raises InputError, like any other unusable field."""
    if not isinstance(c, dict) or not {"q", "t", "fov"} <= c.keys():
        raise InputError("a camera must be a JSON object with q, t and fov")
    fov = _numbers(c, "fov", 2)
    try:
        return CameraParams(q=np.asarray(_numbers(c, "q", 4), dtype=np.float64),
                            t=np.asarray(_numbers(c, "t", 3), dtype=np.float64),
                            fov=(float(fov[0]), float(fov[1])))
    except (ZeroQuaternion, FovOutOfRange) as e:
        raise InputError(f"camera: {e}") from e


def _camera_to_dict(c: CameraParams) -> dict:
    return {"q": c.q.tolist(), "t": c.t.tolist(), "fov": [c.fov[0], c.fov[1]]}


# ---------------------------------------------------------------------------
# datasets

@dataclass
class TrajectorySet:
    """Per-query-point world positions over time with labels."""

    positions: np.ndarray   # (M, N, 3)
    visible: np.ndarray     # (M, N) bool
    dynamic: np.ndarray     # (M,) bool
    query_pixels: np.ndarray | None = None  # (M, 2) (u, v) in frame 0

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.visible = np.asarray(self.visible, dtype=bool)
        self.dynamic = np.asarray(self.dynamic, dtype=bool)

    @property
    def n_tracks(self) -> int:
        return self.positions.shape[0]

    @property
    def n_frames(self) -> int:
        return self.positions.shape[1]


@dataclass
class FrameAttachments:
    """Packed per-pixel surface attachments for one frame.

    `face_id` and `bary` are None where only the object ids were read
    (`tensorio.open_dataset`).
    """

    object_id: np.ndarray                # (H, W) int64, NO_ATTACHMENT_ID where uncovered
    face_id: np.ndarray | None = None    # (H, W) int64
    bary: np.ndarray | None = None       # (H, W, 3)


@dataclass
class SequenceDataset:
    """Everything the generator knows about one sequence.

    `pointmaps` and `attachments` may be lists or sequences that read each
    frame from disk when indexed, `depths` past frame 0 may keep only each
    frame's `valid` mask and read its `values` when asked, and
    `dynamic_mask` may be None where the masks were not read
    (`tensorio.open_dataset`). A dataset from `generate` with
    `write_frame` holds no frame at all. `n_frames` counts the cameras.
    """

    depths: list[DepthMap]
    cameras: list[CameraParams]
    pointmaps: Sequence[PointMap]
    attachments: Sequence[FrameAttachments]
    trajectories: TrajectorySet
    dynamic_mask: np.ndarray | None       # (N, H, W) bool
    spec: SceneSpec | None = None         # motion ground truth for the oracle

    @property
    def n_frames(self) -> int:
        return len(self.cameras)


# ---------------------------------------------------------------------------
# rendering

def _soup(spec: SceneSpec, frame: int | None) -> TriangleSoup:
    """The objects' triangles at `frame` (at their base placement for None),
    in object order, then the background's."""
    meshes = [(obj.vertices if frame is None else obj.vertices_at(frame), obj.faces)
              for obj in spec.objects]
    owners = list(range(len(spec.objects)))
    if spec.background is not None:
        meshes.append(spec.background)
        owners.append(BACKGROUND_ID)
    return triangle_soup(meshes, owners)


def _render(spec: SceneSpec, frame: int):
    """One frame -> (DepthMap, FrameAttachments, PointMap).

    Depth is the camera-frame z of the nearest hit; the point map stores
    the barycentric reconstruction of the hit on the winning face, in
    world coordinates.
    """
    h, w = spec.resolution
    cam = spec.camera_path[frame]
    dirs = pixel_directions(cam, h, w).reshape(-1, 3) @ cam.rotation  # R^T d per row

    soup = _soup(spec, frame)
    t, idx, bary = raycast_batch(cam.center(), dirs, soup.tris)
    del dirs
    hit = idx >= 0

    depth = np.where(hit, t, 0.0).reshape(h, w)
    valid = hit.reshape(h, w)

    object_id = np.full(h * w, NO_ATTACHMENT_ID, dtype=np.int64)
    face_id = np.full(h * w, -1, dtype=np.int64)
    points = np.zeros((h * w, 3))
    # the hits are gathered and combined one block of pixels at a time; each
    # hit point is its own einsum row, so the blocks give the bits of one pass
    for s in range(0, h * w, _PIXEL_BLOCK):
        blk = slice(s, s + _PIXEL_BLOCK)
        sel = hit[blk]
        tri = idx[blk][sel]
        object_id[blk][sel] = soup.owner[tri]
        face_id[blk][sel] = soup.face[tri]
        points[blk][sel] = np.einsum("kc,kcd->kd", bary[blk][sel], soup.tris[tri])

    att = FrameAttachments(object_id=object_id.reshape(h, w),
                           face_id=face_id.reshape(h, w),
                           bary=bary.reshape(h, w, 3))
    return (DepthMap(values=depth, valid=valid), att,
            PointMap(points=points.reshape(h, w, 3), valid=valid.copy()))


# ---------------------------------------------------------------------------
# generation

def _base_points(spec: SceneSpec, att: FrameAttachments, pix_v, pix_u,
                 base_tris: np.ndarray):
    """Base-placement surface points for attached pixels; `base_tris` is
    `_soup(spec, None).tris`."""
    oid = att.object_id[pix_v, pix_u]
    # object o's faces start at starts[o], the background's (id -1, last) at starts[-1]
    starts = np.cumsum([0] + [len(obj.faces) for obj in spec.objects])
    corners = base_tris[starts[oid] + att.face_id[pix_v, pix_u]]
    return oid, np.einsum("kc,kcd->kd", att.bary[pix_v, pix_u], corners)


def _positions_over_time(spec: SceneSpec, oid: np.ndarray, base: np.ndarray) -> np.ndarray:
    """(P,) object ids + (P, 3) base points -> (P, N, 3) world trajectories."""
    n = spec.n_frames
    out = np.empty((len(oid), n, 3))
    static = oid == BACKGROUND_ID
    if np.any(static):
        out[static] = base[static][:, None, :]
    for o in range(len(spec.objects)):
        sel = oid == o
        if not np.any(sel):
            continue
        for t in range(n):
            out[sel, t, :] = se3_apply(spec.objects[o].motion[t], base[sel])
    return out


def _moves_from(spec: SceneSpec, oid: np.ndarray, base: np.ndarray, t: int) -> np.ndarray:
    """(P,) object ids >= 0 + (P, 3) base points -> (P,) bool: whether the
    point ever moves more than dynamic_delta from its frame-t position.

    The same booleans as `classify_dynamic(_positions_over_time(...), t,
    ...)`, from the same `se3_apply` calls, norms and max, but with a
    running max over the frames in place of the (P, N, 3) trajectories.
    """
    most = np.zeros(len(oid))
    for o, obj in enumerate(spec.objects):
        sel = oid == o
        if not np.any(sel):
            continue
        b = base[sel]
        at_t = se3_apply(obj.motion[t], b)
        far = np.zeros(len(b))  # the frame-t term, |p_t - p_t|
        for s in range(spec.n_frames):
            if s != t:
                np.maximum(far, np.linalg.norm(se3_apply(obj.motion[s], b) - at_t, axis=1),
                           out=far)
        most[sel] = far
    return most > spec.dynamic_delta


def _lookup_pixels(points: np.ndarray, cam: CameraParams, depth: DepthMap):
    """Find the pixels that world points project to, and check them there.

    Returns (iu, iv, inside, visible): the floored pixel indices (-1 where
    not inside), whether the point is in front of the camera and on the
    image, and whether it also lands on a valid pixel whose depth matches
    its camera-frame z within VISIBILITY_DEPTH_TOL. The bounds are tested
    on the float coordinates, which is the same test as on their floors
    and is false for inf and NaN (a point in the camera plane), so only
    finite in-range values are cast to int.
    """
    h, w = depth.values.shape
    u, v, z, front = project_many(points, cam, h, w)
    inside = front & (u >= 0) & (u < w) & (v >= 0) & (v < h)
    iu = np.floor(np.where(inside, u, -1.0)).astype(np.int64)
    iv = np.floor(np.where(inside, v, -1.0)).astype(np.int64)
    visible = np.zeros(len(z), dtype=bool)
    sel = np.flatnonzero(inside)
    visible[sel] = depth.valid[iv[sel], iu[sel]] \
        & (np.abs(z[sel] - depth.values[iv[sel], iu[sel]]) <= VISIBILITY_DEPTH_TOL)
    return iu, iv, inside, visible


def _query_tracks(spec: SceneSpec, base_tris: np.ndarray, depth: DepthMap,
                  att: FrameAttachments):
    """Frame 0's sampled query pixels and their world tracks ->
    (q_u, q_v, (M, N, 3) positions)."""
    vs, us = np.nonzero(depth.valid)     # row-major
    rng = SplitMix64(spec.seed)
    m = min(spec.n_queries, len(us))
    picked = rng.sample_indices(len(us), m) if len(us) else []
    q_u = us[picked]
    q_v = vs[picked]
    oid, base = _base_points(spec, att, q_v, q_u, base_tris)
    return q_u, q_v, _positions_over_time(spec, oid, base)


def _dynamic_mask(spec: SceneSpec, base_tris: np.ndarray, att: FrameAttachments,
                  t: int) -> np.ndarray:
    """Frame t's (H, W) dynamic mask, with frame t as reference."""
    mask = np.zeros(att.object_id.shape, dtype=bool)
    pv, pu = np.nonzero(att.object_id >= 0)
    if len(pv):
        mask[pv, pu] = _moves_from(spec, *_base_points(spec, att, pv, pu, base_tris), t)
    return mask


def generate(spec: SceneSpec, write_frame=None) -> SequenceDataset:
    """Render every frame and derive trajectories, labels and masks.

    Deterministic: the only randomness is the splitmix64 query sampler
    seeded from spec.seed (draw order: one sample_indices call over the
    row-major valid pixels of frame 0).

    Frames are rendered one at a time. Frame 0 gives the query tracks;
    each frame then fills its visibility column and dynamic mask as it is
    rendered. With `write_frame`, each finished frame is passed to
    `write_frame(t, depth, attachments, pointmap, dynamic_mask)` and
    dropped, so no written frame is alive while the next frame renders,
    and the returned dataset holds only the cameras, trajectories and
    spec: its `depths`, `pointmaps` and `attachments` are empty and
    `dynamic_mask` is None. Leading frames without a hit are held back
    until the first hit, so a scene with none raises EmptyScene before any
    frame is written.
    """
    n = spec.n_frames
    base_tris = _soup(spec, None).tris  # built once, for every frame's base points
    held = []     # (t, depth, attachments, pointmap, dynamic mask) not handed to write_frame
    any_hit = False
    for t in range(n):
        depth, att, pointmap = _render(spec, t)
        if t == 0:
            q_u, q_v, positions = _query_tracks(spec, base_tris, depth, att)
            visible = np.zeros((len(q_u), n), dtype=bool)

        # visibility by reprojection against the rendered depth
        visible[:, t] = _lookup_pixels(positions[:, t, :], spec.camera_path[t], depth)[3]
        any_hit = any_hit or bool(np.any(depth.valid))
        held.append((t, depth, att, pointmap, _dynamic_mask(spec, base_tris, att, t)))
        del depth, att, pointmap  # only `held` may keep this frame while the next renders
        if write_frame is not None and any_hit:
            for frame in held:
                write_frame(*frame)
            held.clear()
            del frame  # the loop variable would keep the last frame written

    if not any_hit:
        raise EmptyScene("no pixel of any frame is covered by geometry")

    traj = TrajectorySet(positions=positions, visible=visible,
                         dynamic=classify_dynamic(positions, 0, spec.dynamic_delta),
                         query_pixels=np.stack([q_u, q_v], axis=1))
    depths, attachments, pointmaps, masks = ([f[k] for f in held] for k in range(1, 5))
    return SequenceDataset(depths=depths, cameras=list(spec.camera_path),
                           pointmaps=pointmaps, attachments=attachments,
                           trajectories=traj,
                           dynamic_mask=np.stack(masks) if masks else None, spec=spec)


# ---------------------------------------------------------------------------
# ground-truth aggregation

def _relative_motion(spec: SceneSpec, object_id: int, i: int, a: int) -> SE3:
    motion = spec.objects[object_id].motion
    return se3_compose(motion[a], se3_invert(motion[i]))


def oracle_aggregate(dataset: SequenceDataset, i: int, a: int) -> PointMap:
    """Ground-truth warp of frame i's point map into the time of frame a.

    Pixels attached to a rigid object o move by T_o(a) T_o(i)^-1; static
    background pixels are untouched. i == a returns frame i's map exactly.
    """
    if dataset.spec is None:
        raise ValueError("dataset carries no scene spec (motion ground truth)")
    n = dataset.n_frames
    if not (0 <= i < n and 0 <= a < n):
        raise ValueError("frame index out of range")
    src = dataset.pointmaps[i]
    if i == a:
        return PointMap(points=src.points.copy(), valid=src.valid.copy())

    att = dataset.attachments[i]  # a read's buffers are freed before the copy exists
    out = src.points.copy()
    for o in range(len(dataset.spec.objects)):
        sel = (att.object_id == o) & src.valid
        if not np.any(sel):
            continue
        rel = _relative_motion(dataset.spec, o, i, a)
        out[sel] = se3_apply(rel, src.points[sel])
    return PointMap(points=out, valid=src.valid.copy())


def complete_cloud(maps: Iterable[PointMap], out: np.ndarray | None = None) -> np.ndarray:
    """Union of all valid points, frame-major then row-major -> (n, 3).

    `maps` may be any iterable, such as a generator that warps one frame at
    a time: only each map's valid points are kept, and no map is held
    while the next one is made. Given `out`, an (n, 3) array of the maps'
    total valid count n, each map's points are cast to `out`'s dtype and
    copied straight into it, so no per-map part and no second copy of the
    cloud exist, and `out` is returned; a different count raises
    ValueError.
    """
    if out is None:
        parts = []
        for m in maps:
            parts.append(m.cloud())
            del m
        return np.concatenate(parts, axis=0) if parts else np.zeros((0, 3))
    if out.ndim != 2 or out.shape[1] != 3:
        raise ValueError(f"out must have shape (n, 3), not {out.shape}")
    k = 0
    for m in maps:
        n = int(np.count_nonzero(m.valid))
        if k + n > len(out):
            raise ValueError(f"maps hold more than the {len(out)} valid points of out")
        np.compress(m.valid.ravel(), m.points.reshape(-1, 3), axis=0, out=out[k:k + n])
        k += n
        del m
    if k != len(out):
        raise ValueError(f"maps hold {k} valid points, out has {len(out)} rows")
    return out


def recover_query_pixels(dataset: SequenceDataset) -> np.ndarray:
    """Reconstruct frame-0 query pixels from stored trajectories.

    The frame-0 position of every generator track is the surface point of
    its seed pixel, so projecting it through camera 0 lands back on that
    pixel. Used when a dataset comes off disk, where the CSV stores
    positions but not pixel indices.
    """
    depth = dataset.depths[0]
    iu, iv, inside, visible = _lookup_pixels(dataset.trajectories.positions[:, 0, :],
                                             dataset.cameras[0], depth)
    if not np.all(inside):
        raise QueryInvalid("a trajectory's frame-0 position projects outside the image")
    if not np.all(depth.valid[iv, iu]):
        raise QueryInvalid("a trajectory's frame-0 pixel is invalid")
    if not np.all(visible):
        raise QueryInvalid("a trajectory's frame-0 position disagrees with the depth map")
    return np.stack([iu, iv], axis=1)


def tracks_from_aggregation(maps_per_target: Iterable[PointMap], query_pixels,
                            dynamic_delta: float = DEFAULT_DYNAMIC_DELTA) -> TrajectorySet:
    """Read per-target aggregated maps of one source frame as 3D tracks.

    maps_per_target yields the source frame's map warped to each target a
    in order (so entry 0 is P^0, entry 1 is P^1, ...); it may be a
    generator, since only the query pixels of each map are kept. The track
    of query pixel (u, v) places its position at time a at map a's [v, u].
    """
    queries = np.asarray(query_pixels, dtype=np.int64).reshape(-1, 2)
    u, v = queries[:, 0], queries[:, 1]
    maps = iter(maps_per_target)
    first = next(maps)
    invalid = np.flatnonzero(~first.valid[v, u])
    if len(invalid):
        k = invalid[0]
        raise QueryInvalid(f"query pixel ({u[k]}, {v[k]}) invalid in the source frame")
    rows = [first.points[v, u]]
    del first
    for pm in maps:
        rows.append(pm.points[v, u])
        del pm  # not kept while the next map is made
    positions = np.stack(rows, axis=1)  # (M, N, 3)
    return TrajectorySet(positions=positions, visible=np.ones(positions.shape[:2], dtype=bool),
                         dynamic=classify_dynamic(positions, 0, dynamic_delta),
                         query_pixels=queries)

"""Deterministic dynamic-scene generator with exact ground truth.

A scene is a set of rigid objects (mesh / box / plane shapes, each with a
per-frame SE3 motion path), an optional static background mesh, and a
camera path. Rendering is exact raycasting: every ray gets bitwise the
nearest hit that testing it against every triangle would give, but a tree
of padded triangle boxes culls the pairs that cannot hit, and rays are
processed in fixed-size chunks, so memory stays bounded as meshes grow
(see `raycast`). Outputs are bit-reproducible for a fixed seed.

The generator also defines the ground-truth temporal aggregation operator:
warping frame i's points into the time of frame a by each object's rigid
motion, with static geometry left untouched. Unioning the warped maps over
all source frames yields the complete cloud at time a, covering surfaces
occluded at a but seen elsewhere.

Object ids: >= 0 for scene objects, -1 for the background, -2 marks an
uncovered pixel in packed attachment arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyScene, QueryInvalid
from .geometry import (SE3, CameraParams, DepthMap, PointMap,
                       axis_angle_rotation, intrinsics, project_many,
                       quat_to_rotation, se3_apply, se3_compose, se3_invert)
from .lifting import MeshSequence, SurfaceAttachment, classify_dynamic
from .raycast import (RayHit, TriangleSoup, raycast,  # noqa: F401  (re-exported surface)
                      raycast_batch, triangle_soup)
from .rng import SplitMix64

BACKGROUND_ID = -1
NO_ATTACHMENT_ID = -2
VISIBILITY_DEPTH_TOL = 1e-4  # meters, reprojection-vs-rendered-depth test
DEFAULT_N_QUERIES = 512
DEFAULT_DYNAMIC_DELTA = 0.03


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
        return box_mesh(d["center"], d["size"])
    if kind == "plane":
        return plane_mesh(d["center"], d["u_axis"], d["v_axis"])
    if kind == "mesh":
        return (np.asarray(d["vertices"], dtype=np.float64),
                np.asarray(d["faces"], dtype=np.int64))
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


def _motion_from_spec(m, n_frames: int) -> list[SE3]:
    if isinstance(m, list):
        if len(m) != n_frames:
            raise ValueError("explicit motion list must have n_frames entries")
        out = []
        for e in m:
            if "R" in e:
                out.append(SE3(np.asarray(e["R"], dtype=np.float64), e["t"]))
            else:
                out.append(SE3(quat_to_rotation(e["q"]), e["t"]))
        return out
    kind = m.get("kind", "static")
    if kind == "static":
        return [SE3.identity() for _ in range(n_frames)]
    if kind == "translate":
        return translation_path(m["velocity"], n_frames)
    if kind == "spin":
        return spin_path(m["axis"], m["pivot"], m["radians_per_frame"], n_frames)
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

    def mesh_sequence(self) -> MeshSequence:
        verts = np.stack([self.vertices_at(t) for t in range(len(self.motion))])
        return MeshSequence(vertices=verts, faces=self.faces)


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
        if len(self.camera_path) != self.n_frames:
            raise ValueError("camera_path must have n_frames entries")
        for obj in self.objects:
            if len(obj.motion) != self.n_frames:
                raise ValueError("object motion must have n_frames entries")

    # -- JSON schema ----------------------------------------------------

    @staticmethod
    def from_dict(d) -> "SceneSpec":
        n = int(d["n_frames"])
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
            resolution=(int(d["resolution"][0]), int(d["resolution"][1])),
            n_frames=n,
            seed=int(d["seed"]),
            n_queries=int(d.get("n_queries", DEFAULT_N_QUERIES)),
            dynamic_delta=float(d.get("dynamic_delta", DEFAULT_DYNAMIC_DELTA)),
        )

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


def _camera_from_dict(c) -> CameraParams:
    return CameraParams(q=np.asarray(c["q"], dtype=np.float64),
                        t=np.asarray(c["t"], dtype=np.float64),
                        fov=(float(c["fov"][0]), float(c["fov"][1])))


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
    """Packed per-pixel surface attachments for one frame."""

    object_id: np.ndarray   # (H, W) int64, NO_ATTACHMENT_ID where uncovered
    face_id: np.ndarray     # (H, W) int64
    bary: np.ndarray        # (H, W, 3)

    def get(self, u: int, v: int) -> SurfaceAttachment | None:
        oid = int(self.object_id[v, u])
        if oid == NO_ATTACHMENT_ID:
            return None
        return SurfaceAttachment(object_id=oid, face_id=int(self.face_id[v, u]),
                                 bary=self.bary[v, u])


@dataclass
class SequenceDataset:
    """Everything the generator knows about one sequence."""

    depths: list[DepthMap]
    cameras: list[CameraParams]
    pointmaps: list[PointMap]
    attachments: list[FrameAttachments]
    trajectories: TrajectorySet
    dynamic_mask: np.ndarray              # (N, H, W) bool
    spec: SceneSpec | None = None         # motion ground truth for the oracle

    @property
    def n_frames(self) -> int:
        return len(self.depths)

    @property
    def resolution(self) -> tuple[int, int]:
        return self.depths[0].values.shape


# ---------------------------------------------------------------------------
# rendering

def _soup(spec: SceneSpec, frame: int) -> TriangleSoup:
    meshes = [(obj.vertices_at(frame), obj.faces) for obj in spec.objects]
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
    fx, fy, cx, cy = intrinsics(cam, h, w)
    u = np.arange(w, dtype=np.float64) + 0.5
    v = np.arange(h, dtype=np.float64) + 0.5
    uu, vv = np.meshgrid(u, v)
    dirs_cam = np.stack([(uu - cx) / fx, (vv - cy) / fy, np.ones_like(uu)], axis=-1)
    R = cam.rotation
    dirs = dirs_cam.reshape(-1, 3) @ R  # R^T d per row
    origin = cam.center()

    soup = _soup(spec, frame)
    t, idx, bary = raycast_batch(origin, dirs, soup.tris)
    hit = idx >= 0

    depth = np.where(hit, t, 0.0).reshape(h, w)
    valid = hit.reshape(h, w)

    object_id = np.full(len(dirs), NO_ATTACHMENT_ID, dtype=np.int64)
    face_id = np.full(len(dirs), -1, dtype=np.int64)
    object_id[hit] = soup.owner[idx[hit]]
    face_id[hit] = soup.face[idx[hit]]

    points = np.zeros((len(dirs), 3))
    if np.any(hit):
        corners = soup.tris[idx[hit]]                   # (k, 3, 3)
        points[hit] = np.einsum("kc,kcd->kd", bary[hit], corners)

    att = FrameAttachments(object_id=object_id.reshape(h, w),
                           face_id=face_id.reshape(h, w),
                           bary=bary.reshape(h, w, 3))
    return (DepthMap(values=depth, valid=valid), att,
            PointMap(points=points.reshape(h, w, 3), valid=valid.copy()))


def render_frame(spec: SceneSpec, frame: int):
    """Public render contract: (DepthMap, FrameAttachments) for one frame."""
    if not (0 <= frame < spec.n_frames):
        raise ValueError("frame index out of range")
    depth, att, _ = _render(spec, frame)
    return depth, att


# ---------------------------------------------------------------------------
# generation

def _base_points(spec: SceneSpec, att: FrameAttachments, pix_v, pix_u):
    """Base-placement surface points for attached pixels (per-object)."""
    oid = att.object_id[pix_v, pix_u]
    fid = att.face_id[pix_v, pix_u]
    bary = att.bary[pix_v, pix_u]
    base = np.zeros((len(oid), 3))
    for o in range(len(spec.objects)):
        sel = oid == o
        if not np.any(sel):
            continue
        corners = spec.objects[o].vertices[spec.objects[o].faces[fid[sel]]]
        base[sel] = np.einsum("kc,kcd->kd", bary[sel], corners)
    if spec.background is not None:
        sel = oid == BACKGROUND_ID
        if np.any(sel):
            bv, bf = spec.background
            corners = np.asarray(bv)[np.asarray(bf)[fid[sel]]]
            base[sel] = np.einsum("kc,kcd->kd", bary[sel], corners)
    return oid, base


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


def generate(spec: SceneSpec) -> SequenceDataset:
    """Render every frame and derive trajectories, labels and masks.

    Deterministic: the only randomness is the splitmix64 query sampler
    seeded from spec.seed (draw order: one sample_indices call over the
    row-major valid pixels of frame 0).
    """
    h, w = spec.resolution
    depths, atts, pmaps = [], [], []
    for t in range(spec.n_frames):
        d, a, p = _render(spec, t)
        depths.append(d)
        atts.append(a)
        pmaps.append(p)

    if not any(np.any(d.valid) for d in depths):
        raise EmptyScene("no pixel of any frame is covered by geometry")

    # query pixels over frame 0
    valid0 = depths[0].valid
    vs, us = np.nonzero(valid0)              # row-major
    rng = SplitMix64(spec.seed)
    m = min(spec.n_queries, len(us))
    picked = rng.sample_indices(len(us), m) if len(us) else []
    q_u = us[picked]
    q_v = vs[picked]

    oid, base = _base_points(spec, atts[0], q_v, q_u)
    positions = _positions_over_time(spec, oid, base)    # (M, N, 3)

    # visibility by reprojection against the rendered depth
    visible = np.zeros((m, spec.n_frames), dtype=bool)
    for t in range(spec.n_frames):
        uu, vv, zz, front = project_many(positions[:, t, :], spec.camera_path[t], h, w)
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

    dynamic = classify_dynamic(positions, 0, spec.dynamic_delta) if m else np.zeros(0, bool)

    # per-pixel dynamic masks, reference frame = own frame
    dmask = np.zeros((spec.n_frames, h, w), dtype=bool)
    for t in range(spec.n_frames):
        pv, pu = np.nonzero(atts[t].object_id >= 0)
        if not len(pv):
            continue
        o, b = _base_points(spec, atts[t], pv, pu)
        pos = _positions_over_time(spec, o, b)           # (P, N, 3)
        disp = np.linalg.norm(pos - pos[:, t:t + 1, :], axis=2)
        dmask[t, pv, pu] = disp.max(axis=1) > spec.dynamic_delta

    traj = TrajectorySet(positions=positions, visible=visible,
                         dynamic=np.asarray(dynamic, dtype=bool) if m else np.zeros(0, bool),
                         query_pixels=np.stack([q_u, q_v], axis=1) if m else np.zeros((0, 2), np.int64))
    return SequenceDataset(depths=depths, cameras=list(spec.camera_path),
                           pointmaps=pmaps, attachments=atts,
                           trajectories=traj, dynamic_mask=dmask, spec=spec)


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

    out = src.points.copy()
    att = dataset.attachments[i]
    for o in range(len(dataset.spec.objects)):
        sel = (att.object_id == o) & src.valid
        if not np.any(sel):
            continue
        rel = _relative_motion(dataset.spec, o, i, a)
        out[sel] = se3_apply(rel, src.points[sel])
    return PointMap(points=out, valid=src.valid.copy())


def complete_cloud(maps: list[PointMap]) -> np.ndarray:
    """Union of all valid points, frame-major then row-major -> (n, 3)."""
    parts = [m.cloud() for m in maps]
    if not parts:
        return np.zeros((0, 3))
    return np.concatenate(parts, axis=0)


def recover_query_pixels(dataset: SequenceDataset) -> np.ndarray:
    """Reconstruct frame-0 query pixels from stored trajectories.

    The frame-0 position of every generator track is the surface point of
    its seed pixel, so projecting it through camera 0 lands back on that
    pixel. Used when a dataset comes off disk, where the CSV stores
    positions but not pixel indices.
    """
    h, w = dataset.resolution
    pos0 = dataset.trajectories.positions[:, 0, :]
    u, v, z, front = project_many(pos0, dataset.cameras[0], h, w)
    iu = np.floor(u).astype(np.int64)
    iv = np.floor(v).astype(np.int64)
    ok = front & (iu >= 0) & (iu < w) & (iv >= 0) & (iv < h)
    if not np.all(ok):
        raise QueryInvalid("a trajectory's frame-0 position projects outside the image")
    depth = dataset.depths[0]
    if not np.all(depth.valid[iv, iu]):
        raise QueryInvalid("a trajectory's frame-0 pixel is invalid")
    if np.max(np.abs(z - depth.values[iv, iu])) > VISIBILITY_DEPTH_TOL:
        raise QueryInvalid("a trajectory's frame-0 position disagrees with the depth map")
    return np.stack([iu, iv], axis=1)


def tracks_from_aggregation(maps_per_target: list[PointMap], query_pixels,
                            dynamic_delta: float = DEFAULT_DYNAMIC_DELTA) -> TrajectorySet:
    """Read per-target aggregated maps of one source frame as 3D tracks.

    maps_per_target[a] must be the source frame's map warped to target a
    (so entry 0 is P^0, entry 1 is P^1, ...). The track of query pixel
    (u, v) places its position at time a at maps_per_target[a][v, u].
    """
    queries = np.asarray(query_pixels, dtype=np.int64).reshape(-1, 2)
    n = len(maps_per_target)
    m = len(queries)
    positions = np.zeros((m, n, 3))
    for k, (u, v) in enumerate(queries):
        if not maps_per_target[0].valid[v, u]:
            raise QueryInvalid(f"query pixel ({u}, {v}) invalid in the source frame")
        for a in range(n):
            positions[k, a] = maps_per_target[a].points[v, u]
    visible = np.ones((m, n), dtype=bool)
    dynamic = classify_dynamic(positions, 0, dynamic_delta) if m else np.zeros(0, bool)
    return TrajectorySet(positions=positions, visible=visible,
                         dynamic=np.asarray(dynamic, dtype=bool) if m else np.zeros(0, bool),
                         query_pixels=queries)

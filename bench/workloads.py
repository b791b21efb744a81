"""Workload definitions: seeded inputs, command lists and output checks.

Every input is a file built from the workload seed before timing starts;
the CLI only ever sees file paths. Sizes are fixed per workload so that
different seeds move the inputs' content, not the amount of work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("produce", "dense_mesh", "consume")


@dataclass(frozen=True)
class Size:
    res: int               # produce / consume scene, square
    frames: int
    dense_res: int
    dense_frames: int
    sphere: tuple[int, int]  # (slices, stacks): 2 * slices * (stacks - 1) triangles
    trials: int            # loss-check
    image_res: int         # forward frames, square
    images: int
    queries: int           # n_queries of the generated scenes


# `tiny` exists for the self-tests: every workload once, in seconds.
SIZES = {
    "full": Size(res=256, frames=8, dense_res=48, dense_frames=4, sphere=(64, 33),
                 trials=10, image_res=256, images=8, queries=512),
    "tiny": Size(res=48, frames=4, dense_res=24, dense_frames=2, sphere=(16, 9),
                 trials=1, image_res=32, images=4, queries=128),
}
TARGET = 3
NC_TOL = 1e-12
SELF_RECON_TOL = 1e-9
LOSS_TOL = 1e-4
PATH_FIELDS = ("out", "tracks_out")


# ---------------------------------------------------------------------------
# scenes (plain JSON, no scene4d needed)

def _rng(seed: int, stream: int) -> np.random.Generator:
    """The benchmark's own generator for one input stream of a seed."""
    return np.random.default_rng([seed % 2**64, stream])


def _rot(q) -> np.ndarray:
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


def _camera(angle: float, height: float, pivot=(0.0, 0.0, 5.5), radius=5.5) -> dict:
    """Camera on a circle about `pivot`, looking at it (world-to-camera)."""
    q = np.array([math.cos(angle / 2), 0.0, -math.sin(angle / 2), 0.0])
    centre = np.array(pivot) - radius * np.array([math.sin(angle), 0.0, math.cos(angle)])
    centre[1] += height
    t = -_rot(q) @ centre
    return {"q": q.tolist(), "t": t.tolist(), "fov": [math.pi / 2, math.pi / 2]}


GROUND = {"type": "plane", "center": [0, 2.5, 8], "u_axis": [9, 0, 0], "v_axis": [0, 0, 9]}


def produce_scene(seed: int, size: Size) -> dict:
    """Two boxes (spinning, sliding) over a ground plane: 26 triangles,
    seen by a camera that orbits slowly, so camera centres are not
    collinear and `eval-pose --pose-align sim3` is well posed."""
    rng = _rng(seed, 1)
    a0, step = rng.uniform(-0.08, 0.08), rng.uniform(0.02, 0.035)
    h0, climb = rng.uniform(-0.05, 0.05), rng.uniform(-0.01, 0.01)
    spin = rng.uniform(0.35, 0.55)
    slide = rng.uniform(0.2, 0.3)
    return {
        "resolution": [size.res, size.res], "n_frames": size.frames, "seed": seed,
        "n_queries": size.queries,
        "camera_path": [_camera(a0 + step * t, h0 + climb * t) for t in range(size.frames)],
        "background": GROUND,
        "objects": [
            {"shape": {"type": "box", "center": [1.2, 0, 5], "size": [1.4, 1.4, 1.4]},
             "motion": {"kind": "spin", "axis": [0, 1, 0], "pivot": [1.2, 0, 5],
                        "radians_per_frame": spin}},
            {"shape": {"type": "box", "center": [-1.5, 0, 6], "size": [1, 1, 1]},
             "motion": {"kind": "translate", "velocity": [slide, 0, 0]}},
        ],
    }


def jittered_sphere(rng, slices: int, stacks: int, centre, radius: float):
    """Closed UV sphere with per-vertex radial jitter -> (vertices, faces)."""
    verts = [[0.0, radius, 0.0]]
    for i in range(1, stacks):
        phi = math.pi * i / stacks
        for j in range(slices):
            th = 2 * math.pi * j / slices
            verts.append([radius * math.sin(phi) * math.cos(th), radius * math.cos(phi),
                          radius * math.sin(phi) * math.sin(th)])
    verts.append([0.0, -radius, 0.0])
    v = np.array(verts) * rng.uniform(0.92, 1.08, size=(len(verts), 1)) + np.asarray(centre)
    ring = lambda i, j: 1 + (i - 1) * slices + j % slices  # noqa: E731
    bottom = len(verts) - 1
    faces = [[0, ring(1, j + 1), ring(1, j)] for j in range(slices)]
    for i in range(1, stacks - 1):
        for j in range(slices):
            a, b = ring(i, j), ring(i, j + 1)
            c, d = ring(i + 1, j), ring(i + 1, j + 1)
            faces += [[a, b, d], [a, d, c]]
    faces += [[bottom, ring(stacks - 1, j), ring(stacks - 1, j + 1)] for j in range(slices)]
    return v, np.array(faces)


def dense_scene(seed: int, size: Size) -> dict:
    """One spinning, radially jittered sphere over the ground plane, seen
    by a fixed camera at low resolution: few rays, many triangles."""
    rng = _rng(seed, 2)
    centre = [0.0, 0.0, 5.0]
    verts, faces = jittered_sphere(rng, *size.sphere, centre, 1.6)
    axis = np.array([rng.uniform(-0.3, 0.3), 1.0, rng.uniform(-0.3, 0.3)])
    return {
        "resolution": [size.dense_res, size.dense_res], "n_frames": size.dense_frames,
        "seed": seed, "n_queries": size.queries,
        "camera": _camera(0.0, 0.0),
        "background": GROUND,
        "objects": [{
            "shape": {"type": "mesh", "vertices": verts.tolist(), "faces": faces.tolist()},
            "motion": {"kind": "spin", "axis": (axis / np.linalg.norm(axis)).tolist(),
                       "pivot": centre, "radians_per_frame": rng.uniform(0.2, 0.4)}}],
    }


# ---------------------------------------------------------------------------
# commands

@dataclass(frozen=True)
class Command:
    label: str      # names the command's timings and trace spans
    group: str      # end-to-end metric this command counts towards
    argv: tuple[str, ...]


def commands(workload: str, inputs: Path, out: Path, seed: int, size: Size) -> list[Command]:
    i, o, s = str(inputs), str(out), str(seed)
    if workload == "produce":
        return [
            Command("gen", "gen_s", ("gen", "--spec", f"{i}/scene.json", "--out", f"{o}/data")),
            Command("aggregate_oracle", "aggregate_s",
                    ("aggregate-oracle", "--data", f"{o}/data", "--target", str(TARGET),
                     "--out", f"{o}/agg", "--tracks-out", f"{o}/tracks.csv")),
        ]
    if workload == "dense_mesh":
        return [Command("gen", "gen_s", ("gen", "--spec", f"{i}/scene.json", "--out", f"{o}/data"))]
    if workload == "consume":
        return [
            Command("eval_recon", "eval_s", ("eval-recon", "--pred", f"{i}/pred.ply",
                                             "--gt", f"{i}/gt_agg/complete_cloud.ply",
                                             "--seed", s)),
            Command("eval_track_median", "eval_s",
                    ("eval-track", "--pred", f"{i}/pred_tracks.csv",
                     "--gt", f"{i}/gt/trajectories.csv", "--align", "median")),
            Command("eval_track_sim3", "eval_s",
                    ("eval-track", "--pred", f"{i}/pred_tracks.csv",
                     "--gt", f"{i}/gt/trajectories.csv", "--align", "sim3")),
            Command("eval_depth", "eval_s", ("eval-depth", "--pred", f"{i}/pred_depth",
                                             "--gt", f"{i}/gt")),
            Command("eval_pose", "eval_s", ("eval-pose", "--pred", f"{i}/pred_cameras.json",
                                            "--gt", f"{i}/gt/cameras.json",
                                            "--pose-align", "sim3")),
            Command("split", "eval_s", ("split", "--depth-dir", f"{i}/gt")),
            Command("loss_check", "loss_check_s", ("loss-check", "--seed", s,
                                                   "--trials", str(size.trials))),
            Command("forward", "forward_s", ("forward", "--frames", f"{i}/frames",
                                             "--target", str(TARGET), "--seed", s,
                                             "--dump", f"{o}/features.ct4")),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# inputs

def _cli(s4d, argv) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = s4d.cli.main(list(argv))
    if rc != 0:
        raise RuntimeError(f"set-up command {argv[0]} exited {rc}: {buf.getvalue()}")


def features_digest(arr: np.ndarray) -> str:
    return hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode() + arr.tobytes()).hexdigest()


def make_inputs(s4d, workload: str, seed: int, size: Size, inputs: Path) -> dict:
    """Write the workload's input files under `inputs`; return what the
    output checks expect (library results on the same arrays)."""
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "produce":
        (inputs / "scene.json").write_text(json.dumps(produce_scene(seed, size)))
        return {}
    if workload == "dense_mesh":
        (inputs / "scene.json").write_text(json.dumps(dense_scene(seed, size)))
        return {}
    if workload != "consume":
        raise ValueError(f"unknown workload {workload!r}")

    from scene4d import metrics, tensorio, transformer
    from scene4d.lifting import split_clips
    from scene4d.synth import TrajectorySet

    rng = _rng(seed, 3)
    # ground truth: the produce path, through the CLI
    (inputs / "scene.json").write_text(json.dumps(produce_scene(seed, size)))
    gt, agg = inputs / "gt", inputs / "gt_agg"
    _cli(s4d, ["gen", "--spec", str(inputs / "scene.json"), "--out", str(gt)])
    _cli(s4d, ["aggregate-oracle", "--data", str(gt), "--target", str(TARGET),
               "--out", str(agg)])
    expected: dict = {"setup_failures": []}

    cloud, _ = tensorio.read_ply(agg / "complete_cloud.ply")
    own = metrics.recon_metrics(cloud, cloud, seed=seed)
    if max(own.acc_mean, own.acc_median, own.comp_mean, own.comp_median) >= SELF_RECON_TOL \
            or abs(own.nc_mean - 1.0) > NC_TOL or abs(own.nc_median - 1.0) > NC_TOL:
        expected["setup_failures"].append(f"oracle cloud does not reconstruct itself: {own}")

    # predictions: noisy copies of the ground truth
    pred = cloud + rng.normal(0.0, 0.01, size=cloud.shape)
    tensorio.write_ply(inputs / "pred.ply", pred)
    pred_read = pred.astype(np.float32).astype(np.float64)  # what read_ply returns
    m = metrics.recon_metrics(pred_read, cloud, seed=seed)
    expected["eval_recon"] = {"command": "eval-recon", **asdict(m)}

    gt_traj = tensorio.read_trajectories(gt / "trajectories.csv")
    pred_traj = TrajectorySet(
        positions=gt_traj.positions * 1.05 + rng.normal(0.0, 0.01, gt_traj.positions.shape),
        visible=gt_traj.visible, dynamic=gt_traj.dynamic)
    tensorio.write_trajectories(inputs / "pred_tracks.csv", pred_traj)
    pred_traj = tensorio.read_trajectories(inputs / "pred_tracks.csv")
    sel = metrics.select_queries(gt_traj)
    for align, mode in (("median", "median_scale"), ("sim3", "sim3")):
        t = metrics.apd_epe(pred_traj.positions[sel], gt_traj.positions[sel],
                            gt_traj.visible[sel], mode)
        expected[f"eval_track_{align}"] = {"command": "eval-track", "queries": int(len(sel)),
                                           **asdict(t),
                                           "apd_per_threshold": list(t.apd_per_threshold)}

    (inputs / "pred_depth").mkdir(exist_ok=True)
    gt_depths = tensorio.load_depth_dir(gt)
    for t, d in enumerate(gt_depths):
        noisy = np.maximum(d.values * 1.1 + rng.normal(0.0, 0.01, d.values.shape), 1e-3)
        tensorio.write_tensor(inputs / "pred_depth" / f"depth_{t:04d}.ct4",
                              np.where(d.valid, noisy, 0.0))
    pred_depths = tensorio.load_depth_dir(inputs / "pred_depth")
    dm = metrics.depth_metrics(np.stack([d.values for d in pred_depths]),
                               np.stack([d.values for d in gt_depths]),
                               np.stack([p.valid & g.valid for p, g in zip(pred_depths, gt_depths)]))
    expected["eval_depth"] = {"command": "eval-depth", "scaled": True, **asdict(dm)}

    cams = json.loads((gt / "cameras.json").read_text())
    for c in cams:
        q = np.asarray(c["q"]) + rng.normal(0.0, 0.002, 4)
        c["q"] = (q / np.linalg.norm(q)).tolist()
        c["t"] = (np.asarray(c["t"]) + rng.normal(0.0, 0.01, 3)).tolist()
    (inputs / "pred_cameras.json").write_text(json.dumps(cams))
    pm = metrics.pose_metrics(tensorio.read_cameras(inputs / "pred_cameras.json"),
                              tensorio.read_cameras(gt / "cameras.json"), align="sim3")
    expected["eval_pose"] = {"command": "eval-pose", "align": "sim3", **asdict(pm)}
    expected["split"] = [str(i) for i in split_clips(gt_depths).split_indices]

    (inputs / "frames").mkdir(exist_ok=True)
    images = [rng.uniform(0.0, 1.0, (size.image_res, size.image_res, 3))
              for _ in range(size.images)]
    for k, im in enumerate(images):
        tensorio.write_tensor(inputs / "frames" / f"frame_{k:04d}.ct4", im)
    model = transformer.AggregationFormer(transformer.ModelConfig(seed=seed))
    res = model.forward(images, TARGET)
    cams_out = model.head_camera(res.cam_features)
    expected["forward"] = {
        "command": "forward", "frames": len(images), "target": TARGET,
        "K": int(res.patch_features.shape[1]), "dim": model.config.dim,
        "seq_length": int(res.frames[0].tokens.shape[0]),
        "cameras": [[float(x) for x in row] for row in np.atleast_2d(cams_out)]}
    expected["features_digest"] = features_digest(res.patch_features)
    return expected


# ---------------------------------------------------------------------------
# output checks

def normalized(stdout: str) -> str:
    """Command output with path-valued fields removed, for digests."""
    lines = stdout.splitlines()
    if len(lines) == 1 and lines[0].startswith("{"):
        obj = json.loads(lines[0])
        for k in PATH_FIELDS:
            obj.pop(k, None)
        return json.dumps(obj, sort_keys=True)
    return stdout


def parse(label: str, stdout: str):
    """Exactly one JSON line (split: one integer per line) or ValueError."""
    lines = stdout.splitlines()
    if label == "split":
        if not all(ln.isdigit() for ln in lines) or (lines and not stdout.endswith("\n")):
            raise ValueError(f"split printed non-index lines: {stdout!r}")
        return lines
    if len(lines) != 1 or not stdout.endswith("\n"):
        raise ValueError(f"expected one JSON line, got {len(lines)} lines")
    obj = json.loads(lines[0])
    if not isinstance(obj, dict):
        raise ValueError("output line is not a JSON object")
    return obj


def check(workload: str, label: str, out, expected: dict, seen: dict, out_dir: Path,
          size: Size, s4d) -> list[str]:
    """Problems with one command's parsed output; [] when it is correct.

    `seen` holds earlier outputs of the same iteration, by label.
    """
    problems = []

    def want(cond, msg):
        if not cond:
            problems.append(f"{label}: {msg}")

    if workload in ("produce", "dense_mesh") and label == "gen":
        res, frames = (size.res, size.frames) if workload == "produce" \
            else (size.dense_res, size.dense_frames)
        want(out.get("frames") == frames, f"frames {out.get('frames')} != {frames}")
        want(out.get("resolution") == [res, res], f"resolution {out.get('resolution')}")
        want(out.get("valid_points", 0) > 0, "no valid points")
        want(out.get("tracks") == size.queries, f"tracks {out.get('tracks')} != {size.queries}")
    elif label == "aggregate_oracle":
        gen = seen.get("gen", {})
        # the complete cloud is the union of every frame's valid points
        want(out.get("points_complete") == gen.get("valid_points"),
             f"points_complete {out.get('points_complete')} != gen valid_points "
             f"{gen.get('valid_points')}")
        want(out.get("tracks") == size.queries, f"tracks {out.get('tracks')}")
        with open(out_dir / "agg" / "complete_cloud.ply") as f:
            header = [next(f) for _ in range(3)]
        want(header[2] == f"element vertex {out.get('points_complete')}\n",
             f"PLY header says {header[2].strip()!r}")
        with open(out_dir / "tracks.csv") as f:
            rows = sum(1 for _ in f) - 1
        want(rows == size.queries * size.frames, f"tracks.csv has {rows} rows")
    elif label == "loss_check":
        errs = out.get("max_relative_error", {})
        want(len(errs) == 5, f"{len(errs)} gradient checks reported")
        want(all(v < LOSS_TOL for v in errs.values()), f"gradient error >= {LOSS_TOL}: {errs}")
    elif label == "forward":
        want(out == expected["forward"], f"{out} != library {expected['forward']}")
        dump = s4d.tensorio.read_tensor(out_dir / "features.ct4")
        want(features_digest(dump) == expected["features_digest"],
             "dumped features differ from the library forward pass")
    elif label in expected:
        want(out == expected[label], f"{out} != library {expected[label]}")
    return problems

"""Command-line surface.

Every command prints a single machine-readable JSON object to stdout
(exception: `split`, whose contract is one split index per line). All
randomness is routed through --seed flags into splitmix64 streams, so a
repeated invocation with identical flags produces byte-identical output.

Exit codes: 0 success, 2 invalid flags or unusable input files, 1
computation-time error. Commands run with numpy floating-point warnings
off: a numeric failure is reported by its exit code and JSON line, not by
RuntimeWarnings on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import losses, metrics, synth, tensorio, transformer
from .errors import BadArgument, InputError, Scene4DError
from .lifting import split_clips
from .rng import check_seed


def _emit(obj) -> None:
    # strict JSON: a NaN or infinity raises ValueError (exit 1), not a bare NaN token
    sys.stdout.write(json.dumps(obj, sort_keys=True, allow_nan=False) + "\n")


def _load_json(path):
    if not Path(path).exists():
        raise InputError(f"{path}: no such file")
    return tensorio.read_json(path)


# JSON values each settings field type takes: a float field also takes an
# integer; a bool (a Python int) is taken only by a bool field
_SETTING_TYPES = {int: int, float: (int, float), str: str, bool: bool}


def _settings(cls, path) -> dict:
    """The JSON object of `cls` field settings at `path` ({} if None); a
    non-object, a key that is not a field of `cls` or a value that is not
    of its field's type raises InputError."""
    d = _load_json(path) if path else {}
    if not isinstance(d, dict):
        raise InputError(f"{path}: expected a JSON object of settings")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise InputError(f"{path}: unknown settings {unknown}")
    types = get_type_hints(cls)
    for key, value in d.items():
        want = types[key]
        if isinstance(value, bool) != (want is bool) \
                or not isinstance(value, _SETTING_TYPES[want]) \
                or want is float and abs(value) > sys.float_info.max:  # an integer beyond floats
            raise InputError(f"{path}: setting {key!r} must be a {want.__name__}, "
                             f"not {json.dumps(value)}")
    return d


def _config(cls, path, **overrides):
    """`cls` built from the settings at `path` and then `overrides`; a
    value the class rejects (its ValueError) raises InputError."""
    try:
        return cls(**{**_settings(cls, path), **overrides})
    except ValueError as e:
        raise InputError(f"{path}: {e}") from e


def _require(path, kind="file"):
    p = Path(path)
    if kind == "file" and not p.is_file():
        raise InputError(f"{path}: no such file")
    if kind == "dir" and not p.is_dir():
        raise InputError(f"{path}: no such directory")
    return p


# ---------------------------------------------------------------------------
# commands

def cmd_gen(args) -> int:
    spec = synth.SceneSpec.from_dict(_load_json(args.spec))
    if args.seed is not None:
        spec.seed = args.seed
    valid_points = 0

    def write_frame(t, depth, *parts):
        # each frame's files are written as it is rendered, then it is dropped
        nonlocal valid_points
        valid_points += int(np.count_nonzero(depth.valid))
        tensorio.save_frame(args.out, t, depth, *parts)

    dataset = synth.generate(spec, write_frame)
    tensorio.save_sequence(dataset, args.out)
    _emit({
        "command": "gen",
        "out": args.out,
        "frames": dataset.n_frames,
        "resolution": list(spec.resolution),
        "seed": spec.seed,
        "tracks": dataset.trajectories.n_tracks,
        "dynamic_tracks": int(dataset.trajectories.dynamic.sum()),
        "valid_points": valid_points,
    })
    return 0


def cmd_lift(args) -> int:
    spec = synth.SceneSpec.from_dict(_load_json(args.scene))
    if args.seed is not None:
        spec.seed = args.seed
    # each frame is dropped once rendered, as in `gen`; only the tracks are kept
    dataset = synth.generate(spec, lambda *frame: None)
    tensorio.write_trajectories(args.out, dataset.trajectories)
    _emit({
        "command": "lift",
        "out": args.out,
        "tracks": dataset.trajectories.n_tracks,
        "frames": dataset.n_frames,
        "dynamic_tracks": int(dataset.trajectories.dynamic.sum()),
    })
    return 0


def cmd_split(args) -> int:
    depths = tensorio.load_depth_dir(_require(args.depth_dir, "dir"))
    boundary = split_clips(depths, args.tau)
    for idx in boundary.split_indices:
        sys.stdout.write(f"{idx}\n")
    return 0


def cmd_aggregate_oracle(args) -> int:
    # valid masks in memory; each frame's point map and object ids are read when warped
    dataset = tensorio.open_dataset(_require(args.data, "dir"))
    if dataset.spec is None:
        raise InputError(f"{args.data}: scene.json missing, no motion ground truth")
    if not (0 <= args.target < dataset.n_frames):
        raise InputError(f"target {args.target} outside 0..{dataset.n_frames - 1}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def warped_to_target():
        # warped, written and reduced to its valid points one map at a time
        for i in range(dataset.n_frames):
            pm = synth.oracle_aggregate(dataset, i, args.target)
            # (H, W, 4): world xyz and a 0/1 validity channel
            tensorio.write_channels(out / f"aggregated_{i:04d}.ct4", [pm.points, pm.valid])
            yield pm
            del pm  # not kept while the next map is warped

    # the PLY stores float32, so the cloud is cast as each map is copied in
    n_valid = sum(int(np.count_nonzero(d.valid)) for d in dataset.depths)
    cloud = synth.complete_cloud(warped_to_target(),
                                 out=np.empty((n_valid, 3), dtype=np.float32))
    tensorio.write_ply(out / "complete_cloud.ply", cloud)
    points_complete = len(cloud)
    del cloud

    tracks_written = None
    if args.tracks_out:
        queries = synth.recover_query_pixels(dataset)  # the CSV stores no pixels
        if len(queries) == 0:
            raise InputError("dataset has no query pixels for track extraction")
        per_target = (synth.oracle_aggregate(dataset, 0, a) for a in range(dataset.n_frames))
        traj = synth.tracks_from_aggregation(per_target, queries,
                                             dataset.spec.dynamic_delta)
        tensorio.write_trajectories(args.tracks_out, traj)
        tracks_written = traj.n_tracks

    result = {
        "command": "aggregate-oracle",
        "target": args.target,
        "frames": dataset.n_frames,
        "out": args.out,
        "points_complete": points_complete,
        "points_target_frame": int(dataset.depths[args.target].valid.sum()),
    }
    if tracks_written is not None:
        result["tracks_out"] = args.tracks_out
        result["tracks"] = tracks_written
    _emit(result)
    return 0


def cmd_eval_recon(args) -> int:
    # normals need k >= 3 neighbours and a sample of fewer than k points gets
    # none, so both runs are refused before either file is read; only the rows
    # that downsampling keeps are parsed (every row is checked), and each
    # cloud size is sampled once
    if args.k < 3:
        raise BadArgument(f"--k must be >= 3, not {args.k}")
    if args.nmax < max(args.k, 1):
        raise BadArgument(f"--nmax must be >= 1 and >= --k ({args.k}), not {args.nmax}")
    rows = functools.cache(lambda n: metrics.sample_rows(n, args.nmax, args.seed))
    pred, _ = tensorio.read_ply(_require(args.pred), rows)
    gt, _ = tensorio.read_ply(_require(args.gt), rows)
    m = metrics.recon_metrics(pred, gt, n_max=args.nmax, seed=args.seed, k=args.k)
    _emit({"command": "eval-recon", **asdict(m)})
    return 0


def cmd_eval_track(args) -> int:
    pred = tensorio.read_trajectories(_require(args.pred))
    gt = tensorio.read_trajectories(_require(args.gt))
    if pred.positions.shape != gt.positions.shape:
        raise InputError("pred and gt trajectory files disagree on tracks/frames")
    if args.queries == "dynamic":
        sel = metrics.select_queries(gt)
    else:
        sel = np.arange(gt.n_tracks)
    if len(sel) == 0:
        raise Scene4DError("no query tracks selected")
    pred_pos, gt_pos, visible = pred.positions[sel], gt.positions[sel], gt.visible[sel]
    if not (np.isfinite(pred_pos[visible]).all() and np.isfinite(gt_pos[visible]).all()):
        raise InputError("a scored (selected, visible) sample has a non-finite position")
    align = {"none": "none", "median": "median_scale", "sim3": "sim3"}[args.align]
    m = metrics.apd_epe(pred_pos, gt_pos, visible, align)
    _emit({"command": "eval-track", "queries": int(len(sel)), **asdict(m),
           "apd_per_threshold": list(m.apd_per_threshold)})
    return 0


def cmd_eval_depth(args) -> int:
    pred = tensorio.load_depth_stack(_require(args.pred, "dir"))
    gt = tensorio.load_depth_stack(_require(args.gt, "dir"))
    if pred.shape != gt.shape:
        raise InputError(f"pred depth maps are {pred.shape}, gt {gt.shape}")
    m = metrics.depth_metrics(pred, gt, (pred > 0) & (gt > 0),
                              apply_scaling=not args.no_scale)
    _emit({"command": "eval-depth", "scaled": not args.no_scale, **asdict(m)})
    return 0


def cmd_eval_pose(args) -> int:
    pred = tensorio.read_cameras(_require(args.pred))
    gt = tensorio.read_cameras(_require(args.gt))
    m = metrics.pose_metrics(pred, gt, align=args.pose_align)
    _emit({"command": "eval-pose", "align": args.pose_align, **asdict(m)})
    return 0


def cmd_loss_check(args) -> int:
    cfg = _config(losses.LossConfig, args.config)
    errors = losses.gradient_check_suite(args.seed, trials=args.trials, h=args.h, cfg=cfg)
    _emit({"command": "loss-check", "seed": args.seed, "trials": args.trials,
           "h": args.h, "max_relative_error": errors})
    return 0


def cmd_forward(args) -> int:
    frame_dir = _require(args.frames, "dir")
    paths = sorted(frame_dir.glob("*.ct4"))
    if not paths:
        raise InputError(f"{args.frames}: no .ct4 frames")
    config = _config(transformer.ModelConfig, args.config,
                     **({} if args.seed is None else {"seed": args.seed}))
    if not (0 <= args.target < len(paths)):
        raise InputError(f"target {args.target} outside 0..{len(paths) - 1}")
    model = transformer.AggregationFormer(config)
    # the trunk reads, patchifies and drops one frame at a time
    result = model.forward((tensorio.read_tensor(p) for p in paths), args.target)
    cams = model.head_camera(result.cam_features)
    if args.dump:
        tensorio.write_tensor(args.dump, result.patch_features)
    _emit({
        "command": "forward",
        "frames": len(paths),
        "target": args.target,
        "K": int(result.patch_features.shape[1]),
        "dim": config.dim,
        "seq_length": int(result.frames[0].tokens.shape[0]),
        "cameras": [[float(x) for x in row] for row in cams],
    })
    return 0


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """Raises each usage error (an unknown or missing flag, a value its type
    rejects) as BadArgument, which `main` reports as one JSON line."""

    def error(self, message):
        raise BadArgument(f"{self.prog}: {message}")


def _seed(text: str) -> int:
    """The type of every --seed flag: an integer in 0..2**64 - 1."""
    try:
        return check_seed(int(text))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from e


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="scene4d", description="Deterministic 4D scene geometry toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="render a synthetic sequence with ground truth")
    p.add_argument("--spec", required=True, help="scene JSON")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=_seed, default=None, help="override the scene seed")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("lift", help="lift frame-0 query pixels to 3D trajectories")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True, help="output trajectory CSV")
    p.add_argument("--seed", type=_seed, default=None)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("split", help="print clip split indices, one per line")
    p.add_argument("--depth-dir", required=True)
    p.add_argument("--tau", type=float, default=0.7)
    p.add_argument("--seed", type=_seed, default=0, help="unused; uniform interface")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("aggregate-oracle",
                       help="warp every frame's points to a target timestamp")
    p.add_argument("--data", required=True, help="dataset directory from gen")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tracks-out", default=None,
                   help="also write frame-0 tracks across all targets")
    p.add_argument("--seed", type=_seed, default=0, help="unused; uniform interface")
    p.set_defaults(func=cmd_aggregate_oracle)

    p = sub.add_parser("eval-recon", help="accuracy / completion / normal consistency")
    p.add_argument("--pred", required=True, help="predicted cloud (PLY)")
    p.add_argument("--gt", required=True, help="reference cloud (PLY)")
    p.add_argument("--nmax", type=int, default=metrics.DEFAULT_DOWNSAMPLE)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--k", type=int, default=metrics.DEFAULT_NC_NEIGHBORS)
    p.set_defaults(func=cmd_eval_recon)

    p = sub.add_parser("eval-track", help="APD / EPE between trajectory CSVs")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--align", choices=["none", "median", "sim3"], default="none")
    p.add_argument("--queries", choices=["dynamic", "all"], default="dynamic")
    p.add_argument("--seed", type=_seed, default=0, help="unused; uniform interface")
    p.set_defaults(func=cmd_eval_track)

    p = sub.add_parser("eval-depth", help="AbsRel and delta<1.25 between depth dirs")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--no-scale", action="store_true",
                   help="skip per-sequence median scaling")
    p.add_argument("--seed", type=_seed, default=0, help="unused; uniform interface")
    p.set_defaults(func=cmd_eval_depth)

    p = sub.add_parser("eval-pose", help="ATE / RPE between camera JSON files")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--pose-align", choices=["sim3", "se3", "none"], default="sim3")
    p.add_argument("--seed", type=_seed, default=0, help="unused; uniform interface")
    p.set_defaults(func=cmd_eval_pose)

    p = sub.add_parser("loss-check", help="finite-difference gradient verification")
    p.add_argument("--config", default=None, help="LossConfig overrides (JSON)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--h", type=float, default=1e-5)
    p.set_defaults(func=cmd_loss_check)

    p = sub.add_parser("forward", help="token-routing forward pass over frame tensors")
    p.add_argument("--frames", required=True, help="directory of (H,W,3) .ct4 frames")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--config", default=None, help="ModelConfig overrides (JSON)")
    p.add_argument("--seed", type=_seed, default=None, help="override the model seed")
    p.add_argument("--dump", default=None, help="write patch features to this .ct4")
    p.set_defaults(func=cmd_forward)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(all="ignore"):
            return args.func(args)
    # a missing path, or a directory where a file is named or the reverse
    except (InputError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            FileExistsError) as e:
        _emit({"error": {"type": type(e).__name__, "message": str(e)}})
        return 2
    except (Scene4DError, ValueError, TypeError) as e:
        _emit({"error": {"type": type(e).__name__, "message": str(e)}})
        return 1


if __name__ == "__main__":
    sys.exit(main())

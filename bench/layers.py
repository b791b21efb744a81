"""Per-layer metric catalogue and its computation from one traced iteration.

Layers are the modules of `src/scene4d/`. A `_s` metric is the self time
of the spans of that name; counts come straight from the wrappers in
`spans.py` and must repeat exactly for one seed and size.
"""

from __future__ import annotations

from spans import TENSORIO_FNS

# spans whose self time is reported as `<span>_s`
SPANS = (
    "raycast.batch",
    "synth.generate", "synth.oracle_aggregate", "synth.complete_cloud", "synth.tracks",
    "geometry.project_many", "geometry.se3_apply",
    "lifting.classify_dynamic", "lifting.split_clips",
    "rng.sample_indices",
    *(f"tensorio.{fn}" for fn in TENSORIO_FNS),
    "tensorio.save_dataset", "tensorio.load_dataset", "tensorio.load_depth_dir",
    "metrics.kdtree_build", "metrics.kdtree_query", "metrics.estimate_normals",
    "metrics.downsample", "metrics.recon", "metrics.apd_epe", "metrics.depth", "metrics.pose",
    "losses.finite_diff_check", "losses.point_loss", "losses.depth_loss",
    "losses.camera_loss", "losses.instances",
    "transformer.init", "transformer.patchify", "transformer.assemble",
    "transformer.attn_frame", "transformer.attn_global", "transformer.forward",
    "transformer.head_camera",
)

COUNTS = (
    ("raycast.rays", "count"), ("raycast.tri_tests", "count"), ("raycast.hits", "count"),
    ("synth.points_warped", "count"),
    ("geometry.se3_apply_calls", "count"),
    ("rng.draws", "count"),
    *((f"tensorio.{fn}_bytes", "B") for fn in TENSORIO_FNS),
    ("metrics.kdtree_builds", "count"), ("metrics.kdtree_query_points", "count"),
    ("losses.fd_coords", "count"), ("losses.loss_evals", "count"),
    ("transformer.tokens", "count"),
    ("transformer.attn_flops_frame", "flop"), ("transformer.attn_flops_global", "flop"),
)

DERIVED = (
    ("raycast.hit_per_test", "ratio"), ("raycast.tests_per_s", "1/s"),
    ("raycast.peak_mb", "MB"),
    *((f"tensorio.{fn}_mb_per_s", "MB/s") for fn in TENSORIO_FNS),
)

# every command label of every workload, in a fixed order
CLI_LABELS = ("gen", "aggregate_oracle", "eval_recon", "eval_track_median", "eval_track_sim3",
              "eval_depth", "eval_pose", "split", "loss_check", "forward")


def catalogue() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, as BENCHMARK.json lists them."""
    out = [(f"{s}_s", "s") for s in SPANS]
    out += [(f"cli.{c}_overhead_s", "s") for c in CLI_LABELS]
    out += list(COUNTS) + list(DERIVED)
    out.append(("trace_overhead_frac", "ratio"))
    return out


def compute(selfs: dict[str, float], counts: dict[str, int], peak_bytes: int) -> dict:
    """Per-layer values of one traced iteration (trace_overhead_frac aside).

    A layer the workload never calls reads 0, and so do ratios over it.
    """
    out = {f"{s}_s": selfs.get(s, 0.0) for s in SPANS}
    out.update({f"cli.{c}_overhead_s": selfs.get(f"cli.{c}", 0.0) for c in CLI_LABELS})
    out.update({name: counts.get(name, 0) for name, _ in COUNTS})
    tests, batch_s = out["raycast.tri_tests"], out["raycast.batch_s"]
    out["raycast.hit_per_test"] = out["raycast.hits"] / tests if tests else 0.0
    out["raycast.tests_per_s"] = tests / batch_s if batch_s else 0.0
    out["raycast.peak_mb"] = peak_bytes / 1e6
    for fn in TENSORIO_FNS:
        s = out[f"tensorio.{fn}_s"]
        out[f"tensorio.{fn}_mb_per_s"] = out[f"tensorio.{fn}_bytes"] / 1e6 / s if s else 0.0
    return out


_COUNT_NAMES = frozenset(name for name, _ in COUNTS)


def is_count(name: str) -> bool:
    return name in _COUNT_NAMES

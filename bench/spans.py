"""External spans and counters for the benchmark's traced runs.

`instrument(rec, scene4d)` re-binds public functions of the `scene4d` modules to
wrappers that record a span (name, start, end, parent span, workload,
iteration) and a few counts per call, and restores every attribute on
exit. Spans live in memory until `Recorder.write` dumps them as JSON
lines. Nothing under `src/` changes; in-program spans are meant to
replace these wrappers later.

Wrappers record only while `rec.active` is true, so the benchmark's own
output checks (which call the same functions) add nothing to a trace.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
import tracemalloc
from collections import defaultdict

_MASK = (1 << 64) - 1
_GOLDEN_INV = pow(0x9E3779B97F4A7C15, -1, 1 << 64)  # splitmix64 step is odd

TENSORIO_FNS = ("write_tensor", "read_tensor", "write_ply", "read_ply",
                "write_trajectories", "read_trajectories",
                "write_cameras", "read_cameras")


class Recorder:
    """In-memory span and counter store for one worker process."""

    def __init__(self, workload: str):
        self.workload = workload
        self.iteration = -1
        self.active = False
        self.spans: list[list] = []      # [name, start, end, parent, iteration]
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.peaks: dict[int, int] = {}  # iteration -> traced bytes peak in raycast
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self.iteration])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, n) -> None:
        self.counts[self.iteration][name] += int(n)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def write(self, path) -> None:
        """Dump spans and per-iteration counts as JSON lines."""
        with open(path, "w") as f:
            for i, (name, start, end, parent, it) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "parent": parent, "workload": self.workload,
                                    "iteration": it}) + "\n")
            for it, counts in sorted(self.counts.items()):
                f.write(json.dumps({"counts": dict(sorted(counts.items())),
                                    "workload": self.workload, "iteration": it}) + "\n")


def _traced(rec: Recorder, name, fn, after=None):
    """Wrap `fn` in a span; `after(args, kwargs, result)` adds counts."""
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        idx = rec.open(name(args, kwargs) if callable(name) else name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            after(args, kwargs, out)
        return out
    wrapper.__wrapped__ = fn
    return wrapper


class _TracedTree:
    """KD-tree proxy whose queries are spans; everything else delegates."""

    def __init__(self, rec: Recorder, tree):
        self._rec = rec
        self._tree = tree

    def query(self, x, *args, **kwargs):
        with self._rec.span("metrics.kdtree_query"):
            out = self._tree.query(x, *args, **kwargs)
        self._rec.count("metrics.kdtree_query_points", len(x))
        return out

    def __getattr__(self, attr):
        return getattr(self._tree, attr)


def _size_counter(rec: Recorder, key: str):
    return lambda args, kwargs, result: rec.count(key, os.path.getsize(args[0]))


def _wrappers(rec: Recorder, s4d) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every traced call site."""
    cli, synth, tensorio = s4d.cli, s4d.synth, s4d.tensorio
    metrics, losses, transformer, rng = s4d.metrics, s4d.losses, s4d.transformer, s4d.rng
    out = []

    def add(owner, attr, name, after=None):
        out.append((owner, attr, _traced(rec, name, getattr(owner, attr), after)))

    # raycast: the only caller of the batch kernel is synth._render
    def ray_counts(args, kwargs, result):
        rays = len(args[1])
        rec.count("raycast.rays", rays)
        rec.count("raycast.tri_tests", rays * len(args[2]))
        rec.count("raycast.hits", int((result[1] >= 0).sum()))

    batch = synth.raycast_batch

    def raycast_batch(*args, **kwargs):
        if not rec.active:
            return batch(*args, **kwargs)
        idx = rec.open("raycast.batch")
        tracemalloc.start()
        try:
            result = batch(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            rec.close(idx)
        rec.peaks[rec.iteration] = max(rec.peaks.get(rec.iteration, 0), peak)
        ray_counts(args, kwargs, result)
        return result
    raycast_batch.__wrapped__ = batch
    out.append((synth, "raycast_batch", raycast_batch))

    # synth
    add(synth, "generate", "synth.generate")

    def warped(args, kwargs, result):
        dataset, i, a = args[0], args[1], args[2]
        if i != a:
            att = dataset.attachments[i]
            rec.count("synth.points_warped",
                      ((att.object_id >= 0) & dataset.pointmaps[i].valid).sum())
    add(synth, "oracle_aggregate", "synth.oracle_aggregate", warped)
    add(synth, "complete_cloud", "synth.complete_cloud")
    add(synth, "tracks_from_aggregation", "synth.tracks")

    # geometry and lifting, as bound into the modules that call them
    add(synth, "project_many", "geometry.project_many")
    add(synth, "se3_apply", "geometry.se3_apply",
        lambda a, k, r: rec.count("geometry.se3_apply_calls", 1))
    add(synth, "classify_dynamic", "lifting.classify_dynamic")
    add(cli, "split_clips", "lifting.split_clips")

    # rng: draws are read off the splitmix64 state advance
    sample = rng.SplitMix64.sample_indices

    def sample_indices(self, *args, **kwargs):
        if not rec.active:
            return sample(self, *args, **kwargs)
        before = self._state
        with rec.span("rng.sample_indices"):
            result = sample(self, *args, **kwargs)
        rec.count("rng.draws", ((self._state - before) * _GOLDEN_INV) & _MASK)
        return result
    sample_indices.__wrapped__ = sample
    out.append((rng.SplitMix64, "sample_indices", sample_indices))

    # tensorio: bytes are the size of the file written or read
    for fn in TENSORIO_FNS:
        add(tensorio, fn, f"tensorio.{fn}", _size_counter(rec, f"tensorio.{fn}_bytes"))
    for fn in ("save_dataset", "load_dataset", "load_depth_dir"):
        add(tensorio, fn, f"tensorio.{fn}")

    # metrics
    tree_cls = metrics.cKDTree

    def kdtree(data, *args, **kwargs):
        if not rec.active:
            return tree_cls(data, *args, **kwargs)
        with rec.span("metrics.kdtree_build"):
            tree = tree_cls(data, *args, **kwargs)
        rec.count("metrics.kdtree_builds", 1)
        return _TracedTree(rec, tree)
    kdtree.__wrapped__ = tree_cls
    out.append((metrics, "cKDTree", kdtree))
    add(metrics, "estimate_normals", "metrics.estimate_normals")
    add(metrics, "downsample_random", "metrics.downsample")
    add(metrics, "recon_metrics", "metrics.recon")
    add(metrics, "apd_epe", "metrics.apd_epe")
    add(metrics, "depth_metrics", "metrics.depth")
    add(metrics, "pose_metrics", "metrics.pose")

    # losses
    def fd_coords(args, kwargs, result):
        grads = args[2] if len(args) > 2 else kwargs["grads"]
        rec.count("losses.fd_coords", sum(int(getattr(g, "size", 1)) for g in grads.values()))
    add(losses, "finite_diff_check", "losses.finite_diff_check", fd_coords)
    for fn in ("point_loss", "depth_loss", "camera_loss"):
        add(losses, fn, f"losses.{fn}", lambda a, k, r: rec.count("losses.loss_evals", 1))
    for fn in ("check_point_loss_gradients", "check_depth_loss_gradients",
               "check_camera_loss_gradients"):
        add(losses, fn, "losses.instances")

    # transformer
    def tokens(args, kwargs, result):
        rec.count("transformer.tokens", sum(f.tokens.shape[0] for f in result))

    def attn_flops(args, kwargs, result):
        # scores and weighted values: two (L x L x C) matmuls per sequence
        frames, scope = args[0], args[2]
        n, (length, dim) = len(frames), frames[0].tokens.shape
        flops = 4 * n * length * length * dim if scope == "frame" \
            else 4 * (n * length) ** 2 * dim
        rec.count(f"transformer.attn_flops_{scope}", flops)
    add(transformer, "patchify", "transformer.patchify")
    add(transformer, "assemble", "transformer.assemble", tokens)
    add(transformer, "attention_layer", lambda a, k: f"transformer.attn_{a[2]}", attn_flops)
    former = transformer.AggregationFormer
    add(former, "__init__", "transformer.init")
    add(former, "forward", "transformer.forward")
    add(former, "head_camera", "transformer.head_camera")
    return out


@contextlib.contextmanager
def instrument(rec: Recorder, s4d):
    """Re-bind the traced module attributes for the duration of the block.

    `s4d` is the imported `scene4d` package with its submodules loaded.
    On exit every attribute is put back and checked to be the original.
    """
    bindings = _wrappers(rec, s4d)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in bindings]
    for owner, attr, repl in bindings:
        setattr(owner, attr, repl)
    try:
        yield
    finally:
        for owner, attr, orig in originals:
            setattr(owner, attr, orig)
        for owner, attr, orig in originals:
            if owner.__dict__[attr] is not orig:
                raise RuntimeError(f"{owner.__name__}.{attr} was not restored")


# ---------------------------------------------------------------------------
# analysis

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def check_nesting(spans: list[list]) -> list[str]:
    """Problems with the span tree: a child outside its parent, or
    overlapping siblings. Either would make self times meaningless."""
    problems = []
    last_child_end: dict[int, float] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} {name} ends before it starts")
        if parent < 0:
            continue
        pstart, pend = spans[parent][1], spans[parent][2]
        if start < pstart or end > pend:
            problems.append(f"span {i} {name} lies outside its parent {spans[parent][0]}")
        if start < last_child_end.get(parent, pstart):
            problems.append(f"span {i} {name} overlaps a sibling")
        last_child_end[parent] = end
    return problems


def command_balance(spans: list[list], selfs: list[float]) -> list[str]:
    """Check that the self times of every span under a command (`cli.*`),
    plus the command's own self time (its CLI overhead), add up to the
    command's traced duration: the per-layer table neither loses nor
    double-counts time."""
    root = []
    totals: dict[int, float] = defaultdict(float)
    for i, (_, _, _, parent, _) in enumerate(spans):
        root.append(i if parent < 0 else root[parent])
        totals[root[i]] += selfs[i]
    problems = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent < 0 and name.startswith("cli."):
            if abs(totals[i] - (end - start)) > 1e-6 or selfs[i] < 0:
                problems.append(f"{name}: layer self times {totals[i]:.6f} s, overhead "
                                f"{selfs[i]:.6f} s, command {end - start:.6f} s")
    return problems


def per_iteration_self(spans: list[list]) -> dict[int, dict[str, float]]:
    """Iteration -> span name -> summed self time."""
    selfs = self_times(spans)
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for (name, _, _, _, it), s in zip(spans, selfs):
        out[it][name] += s
    return out

"""Benchmark worker process.

`inputs` mode writes a workload's seeded input files and the results the
output checks expect. `run` mode is one closed loop in this process: a
warm-up iteration, then timed iterations of the workload's command list,
each command a call of `scene4d.cli.main(argv)` with stdout captured,
until the time budget is spent. With `--trace 1` the loop alternates
untraced and traced iterations; traced ones run with the wrappers of
`spans.py` installed. The result goes to the JSON file named by
`--result`.

Run by `run.py`; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

import layers
import spans
from workloads import SIZES, check, commands, make_inputs, normalized, parse


def environment() -> dict:
    """Versions, CPU and thread counts this worker runs with."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "blas_threads": blas_threads()}


def blas_threads() -> int | None:
    """The loaded OpenBLAS's own thread count, read through ctypes."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower()})
    except OSError:
        return None
    for lib in libs:
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                return int(fn())
    return None


def import_scene4d(root: Path):
    """Import scene4d from the checkout's `src/`, never from elsewhere."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import scene4d
    from scene4d import cli, losses, metrics, rng, synth, tensorio, transformer  # noqa: F401
    if Path(scene4d.__file__).resolve().parent != src / "scene4d":
        raise ImportError(f"scene4d imported from {scene4d.__file__}, not {src}")
    return scene4d


class Loop:
    """One worker's closed loop over a workload's command list."""

    def __init__(self, s4d, args):
        self.s4d = s4d
        self.size = SIZES[args.size]
        self.workload = args.workload
        work = Path(args.dir)
        self.out = work / f"out{args.index}"
        self.out.mkdir(parents=True, exist_ok=True)
        expected_path = work / "inputs" / "expected.json"
        self.expected = json.loads(expected_path.read_text()) if expected_path.exists() else {}
        self.cmds = commands(args.workload, work / "inputs", self.out, args.seed, self.size)
        self.rec = spans.Recorder(args.workload)
        self.reference: dict[str, str] = {}   # label -> stdout of the warm-up
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.iterations: list[dict] = []

    def _invoke(self, argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.s4d.cli.main(list(argv))
        except SystemExit as e:          # argparse rejected the flags
            rc = e.code
        except Exception:                # a crash is a failed invocation, not a dead run
            rc = "exception: " + traceback.format_exc(limit=3)
        return rc, out.getvalue()

    def iteration(self, index: int, traced: bool) -> dict:
        """Run the command list once, then check every output."""
        rec = self.rec
        rec.iteration, rec.active = index, traced
        ctx = spans.instrument(rec, self.s4d) if traced else contextlib.nullcontext()
        ran = []
        with ctx:
            start = time.perf_counter()
            for c in self.cmds:
                idx = rec.open(f"cli.{c.label}") if traced else None
                t = time.perf_counter()
                rc, stdout = self._invoke(c.argv)
                ran.append((c, rc, stdout, time.perf_counter() - t))
                if traced:
                    rec.close(idx)
            wall = time.perf_counter() - start
        rec.active = False

        seen = {}
        for c, rc, stdout, _ in ran:
            self.attempted += 1
            problems = self._check(c.label, rc, stdout, seen)
            if problems:
                self.failed += 1
                self.problems.extend(f"iteration {index}: {p}" for p in problems)
        return {"index": index, "traced": traced, "wall_s": wall,
                "commands": {c.label: dt for c, _, _, dt in ran}}

    def _check(self, label, rc, stdout, seen) -> list[str]:
        if rc != 0:
            return [f"{label}: exit {rc}: {stdout.strip()[:300]}"]
        try:
            out = parse(label, stdout)
        except ValueError as e:
            return [f"{label}: {e}"]
        seen[label] = out
        try:
            problems = check(self.workload, label, out, self.expected, seen, self.out,
                             self.size, self.s4d)
        except (OSError, LookupError, ValueError, TypeError) as e:  # missing or odd output
            problems = [f"{label}: output check failed: {e!r}"]
        # paths are the same in every iteration of a worker, so bytes must match
        if self.reference.setdefault(label, stdout) != stdout:
            problems.append(f"{label}: stdout differs from the warm-up's")
        return problems


def run(args, s4d) -> dict:
    loop = Loop(s4d, args)
    loop.iteration(0, traced=False)                      # warm-up, checked, not timed
    first = time.monotonic()
    setup_s = first - args.t0
    while True:
        if args.trace:
            loop.iterations.append(loop.iteration(len(loop.iterations) + 1, traced=False))
        loop.iterations.append(loop.iteration(len(loop.iterations) + 1, traced=bool(args.trace)))
        elapsed = time.monotonic() - first
        per_step = elapsed / (len(loop.iterations) // (2 if args.trace else 1))
        if elapsed + per_step / 2 > args.seconds:   # stop at the step nearest the budget
            break

    result = {
        "setup_s": setup_s,
        "timed_s": time.monotonic() - first,
        "environment": environment(),
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "attempted": loop.attempted, "failed": loop.failed, "problems": loop.problems[:20],
        "iterations": loop.iterations,
        "digests": {k: hashlib.sha256(normalized(v).encode()).hexdigest()
                    for k, v in loop.reference.items()},
    }
    if args.trace:
        result.update(trace_summary(loop, Path(args.dir) / f"spans{args.index}.jsonl"))
        result["failed"] += bool(result["trace_problems"])
    return result


def trace_summary(loop: Loop, spans_path: Path) -> dict:
    """Per-layer metrics: medians of the traced iterations' values, with
    every count required to repeat exactly between iterations."""
    rec = loop.rec
    rec.write(spans_path)
    problems = spans.check_nesting(rec.spans)
    problems += spans.command_balance(rec.spans, spans.self_times(rec.spans))
    selfs = spans.per_iteration_self(rec.spans)
    traced = [it for it in loop.iterations if it["traced"]]
    per_it = [layers.compute(selfs[it["index"]], rec.counts[it["index"]],
                             rec.peaks.get(it["index"], 0)) for it in traced]
    values = {}
    for name in per_it[0]:
        column = [m[name] for m in per_it]
        if layers.is_count(name):
            if len(set(column)) != 1:
                problems.append(f"count {name} differs between iterations: {column}")
            values[name] = column[0]
        else:
            values[name] = statistics.median(column)
    untraced = [it["wall_s"] for it in loop.iterations if not it["traced"]]
    values["trace_overhead_frac"] = \
        statistics.median(it["wall_s"] for it in traced) / statistics.median(untraced) - 1
    return {"layers": values, "trace_problems": problems, "spans_file": str(spans_path)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=["inputs", "run"])
    ap.add_argument("--root", required=True, help="checkout holding src/scene4d")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--dir", required=True, help="this run's work directory")
    ap.add_argument("--result", required=True, help="JSON file for the result")
    ap.add_argument("--index", type=int, default=0, help="worker number within the run")
    ap.add_argument("--seconds", type=float, default=1.0, help="timed-loop budget")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--t0", type=float, default=None,
                    help="CLOCK_MONOTONIC reading taken before this process started")
    args = ap.parse_args(argv)
    s4d = import_scene4d(Path(args.root))
    if args.mode == "inputs":
        result = make_inputs(s4d, args.workload, args.seed, SIZES[args.size],
                             Path(args.dir) / "inputs")
        (Path(args.dir) / "inputs" / "expected.json").write_text(json.dumps(result))
    else:
        result = run(args, s4d)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""scene4d benchmark: seeded CLI workloads with end-to-end and per-layer metrics.

    python3 bench/run.py --workload produce --seed 1 --seconds 20 --trace 0

Run from anywhere; the checkout is the directory above `bench/`. Each run
builds the workload's inputs from the seed in one process, then starts
fresh worker processes one after another (see `worker.py`). Untraced
(`--trace 0`) runs report the end-to-end metrics; traced runs report the
per-layer metrics of BENCHMARK.json. The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.
`--workload all` runs every workload in turn and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import catalogue
from workloads import SIZES, WORKLOADS, commands

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUPS = 3          # fresh workers per untraced run; setup_s is their median
DEADLINE_S = 170    # a run must end within 180 s


def worker_env() -> dict:
    env = dict(os.environ)
    cap = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["TMPDIR"] = str(WORK)
    env.pop("PYTHONPATH", None)
    return env


def spawn(mode: str, args, work: Path, index: int, seconds: float, deadline: float) -> dict:
    result = work / f"{mode}{index}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
           "--dir", str(work), "--result", str(result), "--index", str(index),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=worker_env(), cwd=ROOT,
                          timeout=max(1.0, deadline - t0), stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited {proc.returncode}:\n{proc.stdout[-3000:]}")
    return json.loads(result.read_text())


def run_workload(args) -> dict:
    """Inputs, then the workers; returns the summary of one run."""
    deadline = time.monotonic() + DEADLINE_S
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        expected = spawn("inputs", args, work, 0, 0, deadline)
        n = 1 if args.trace else SETUPS
        workers = []
        for k in range(n):   # each worker gets an equal share of the budget still left
            left = args.seconds - sum(w["timed_s"] for w in workers)
            workers.append(spawn("run", args, work, k, left / (n - k), deadline))
    finally:
        for d in list(work.glob("out*")) + [work / "inputs"]:
            shutil.rmtree(d, ignore_errors=True)
    return summarize(args, expected, workers, work)


def summarize(args, expected: dict, workers: list[dict], work: Path) -> dict:
    problems = list(expected.get("setup_failures", []))
    for w in workers:
        problems += w["problems"] + w.get("trace_problems", [])
    if any(w["digests"] != workers[0]["digests"] for w in workers):
        problems.append("workers disagree on the stdout digests")
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers) + len(expected.get("setup_failures", []))

    timed = [it for w in workers for it in w["iterations"] if not it["traced"]]
    e2e = {
        "wall_s": statistics.median(it["wall_s"] for it in timed),
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "peak_rss_mb": statistics.median(w["maxrss_mb"] for w in workers),
        "fail_frac": failed / attempted,
    }
    group_of = {c.label: c.group
                for c in commands(args.workload, work, work, args.seed, SIZES[args.size])}
    for group in dict.fromkeys(group_of.values()):
        e2e[group] = statistics.median(
            sum(dt for label, dt in it["commands"].items() if group_of[label] == group)
            for it in timed)
    summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "size": args.size, "environment": workers[0]["environment"],
               "samples": len(timed), "workers": len(workers),
               "iterations": [dict(it, worker=k) for k, w in enumerate(workers)
                              for it in w["iterations"]],
               "end_to_end": e2e, "attempted": attempted, "failed": failed,
               "problems": problems[:20], "digests": workers[0]["digests"]}
    if args.trace:
        summary["per_layer"] = workers[0]["layers"]
        summary["spans_file"] = workers[0]["spans_file"]
    summary["path"] = str(work / "summary.json")
    (work / "summary.json").write_text(json.dumps(summary, indent=1))
    return summary


E2E_UNITS = {"wall_s": "s", "gen_s": "s", "aggregate_s": "s", "eval_s": "s",
             "loss_check_s": "s", "forward_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
             "fail_frac": "ratio"}


def print_tables(summaries: list[dict]) -> None:
    for s in summaries:
        env = s["environment"]
        print(f"# {s['workload']} seed={s['seed']} size={s['size']} trace={s['trace']} "
              f"samples={s['samples']} workers={s['workers']} "
              f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
              f"nproc={env['nproc']} blas_threads={env['blas_threads']} cpu={env['cpu']!r}")
        print(f"# summary {s['path']}")
        for p in s["problems"]:
            print(f"!  {p}")
    names = list(E2E_UNITS)
    print(f"{'metric':<14}{'unit':<7}" + "".join(f"{s['workload']:>14}" for s in summaries))
    for name in names:
        cells = [s["end_to_end"].get(name) for s in summaries]
        print(f"{name:<14}{E2E_UNITS[name]:<7}"
              + "".join(f"{'-':>14}" if v is None else f"{v:>14.4f}" for v in cells))
    if any(s["trace"] for s in summaries):
        print(f"\n{'per-layer metric':<40}{'unit':<7}"
              + "".join(f"{s['workload']:>16}" for s in summaries))
        for name, unit in catalogue():
            cells = [s.get("per_layer", {}).get(name, 0) for s in summaries]
            if any(cells):
                print(f"{name:<40}{unit:<7}" + "".join(f"{v:>16.6g}" for v in cells))


def result_line(summaries: list[dict], benchmark: dict) -> dict:
    """The result line: BENCHMARK.json's metrics for this run."""
    key = "per_layer" if summaries[0]["trace"] else "end_to_end"
    metrics = {}
    for s in summaries:
        prefix = "" if len(summaries) == 1 else f"{s['workload']}/"
        source = s["per_layer"] if s["trace"] else s["end_to_end"]
        for m in benchmark[key]:
            metrics[prefix + m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    failed = sum(s["failed"] for s in summaries)
    return {"correct": failed == 0 and not any(s["problems"] for s in summaries),
            "attempted": sum(s["attempted"] for s in summaries), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="timed-loop budget per run")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="`tiny` is for the self-tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "scene4d" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/scene4d to benchmark", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    summaries = []
    for workload in (WORKLOADS if args.workload == "all" else [args.workload]):
        summaries.append(run_workload(argparse.Namespace(**{**vars(args), "workload": workload})))
    print_tables(summaries)
    print(json.dumps(result_line(summaries, benchmark)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark, at tiny sizes (about a minute).

    python3 bench/selftest.py

Checks the result line's schema against BENCHMARK.json for every
workload, traced and untraced; that two traced runs of one seed give
exactly the same counts; that traced iterations print the same CLI
stdout as untraced ones; that every re-bound attribute is restored; and
that the benchmark refuses to run in a directory without `src/scene4d`.
Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import layers
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 5


def run(*flags: str, root: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(root / "bench" / "run.py"), *flags],
                          cwd=root, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.splitlines()


def result(workload: str, trace: int) -> tuple[dict, dict]:
    """(result line, run summary) of one tiny run."""
    rc, lines = run("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                    "--trace", str(trace), "--size", "tiny")
    if rc != 0:
        raise AssertionError(f"{workload} trace={trace} exited {rc}: {lines[-5:]}")
    summary = next(ln.split(" ", 2)[2] for ln in lines if ln.startswith("# summary "))
    return json.loads(lines[-1]), json.loads(Path(summary).read_text())


def check_schema(line: dict, expected: list[dict]) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, set(line)
    assert line["correct"] is True, line
    assert type(line["attempted"]) is int and line["attempted"] >= 1, line["attempted"]
    assert type(line["failed"]) is int and line["failed"] == 0, line["failed"]
    names = {m["name"]: m["unit"] for m in expected}
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    assert got == names, f"metrics {sorted(set(got) ^ set(names))} differ from BENCHMARK.json"
    for k, v in line["metrics"].items():
        assert set(v) == {"value", "unit"}, v
        value = v["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), (k, value)
        assert math.isfinite(value), (k, value)


def test_schema_repeat_and_trace_stdout(benchmark: dict) -> None:
    for workload in WORKLOADS:
        line, _ = result(workload, 0)
        check_schema(line, benchmark["end_to_end"])
        assert all(v["value"] > 0 for v in line["metrics"].values()), line["metrics"]

        first, summary = result(workload, 1)
        check_schema(first, benchmark["per_layer"])
        # every iteration's stdout is compared byte for byte with the
        # untraced warm-up's, so a correct traced run proves the trace
        # leaves stdout alone; the wrappers must really have been live
        traced = [it for it in summary["iterations"] if it["traced"]]
        assert traced and summary["problems"] == [], summary["problems"]
        assert any(v["value"] for k, v in first["metrics"].items() if layers.is_count(k))

        second, _ = result(workload, 1)
        counts = {k for k in first["metrics"] if layers.is_count(k)}
        diff = {k for k in counts if first["metrics"][k] != second["metrics"][k]}
        assert not diff, f"{workload}: counts differ between runs: {sorted(diff)}"
        print(f"ok  {workload}: schema, {len(counts)} counts repeat, traced stdout unchanged")


def test_restore() -> None:
    import worker
    import spans
    s4d = worker.import_scene4d(ROOT)
    rec = spans.Recorder("restore")
    bound = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in spans._wrappers(rec, s4d)]
    with spans.instrument(rec, s4d):
        assert all(owner.__dict__[attr] is not orig for owner, attr, orig in bound)
    assert all(owner.__dict__[attr] is orig for owner, attr, orig in bound)
    print(f"ok  {len(bound)} re-bound attributes restored")


def test_refuses_without_program() -> None:
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        rc, lines = run("--workload", "produce", "--seed", "1", "--seconds", "1", root=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert rc != 0 and not any(ln.startswith("{") for ln in lines), (rc, lines)
    print("ok  refuses to run without src/scene4d")


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        assert [(m["name"], m["unit"]) for m in benchmark["per_layer"]] == layers.catalogue()
        test_restore()
        test_refuses_without_program()
        test_schema_repeat_and_trace_stdout(benchmark)
    except AssertionError as e:
        print(f"FAIL {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

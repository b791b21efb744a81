"""Cold start: scipy is imported only by the commands that use it.

Each check runs `scene4d.cli.main` in a fresh interpreter and reports which
of scipy's two heavy subpackages ended up in `sys.modules`: `eval-recon`
needs `scipy.spatial` (KD-trees) and `forward` needs `scipy.special`
(erf in the GELU); every other command runs on numpy alone.
"""

import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import scene4d
from scene4d.tensorio import write_tensor

SCIPY_MODULES = ("scipy.spatial", "scipy.special")

_CHILD = """
import contextlib, io, json, sys
import scene4d, scene4d.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(scene4d.cli.main(argv))
print(json.dumps({"codes": codes,
                  "loaded": [m for m in %r if m in sys.modules]}))
""" % (SCIPY_MODULES,)

SCENE = {
    "resolution": [16, 16],
    "n_frames": 3,
    "seed": 5,
    "n_queries": 16,
    "camera": {"q": [1, 0, 0, 0], "t": [0, 0, 0], "fov": [math.pi / 2, math.pi / 2]},
    "background": {"type": "plane", "center": [0, 2.5, 8],
                   "u_axis": [8, 0, 0], "v_axis": [0, 0, 8]},
    "objects": [
        {"shape": {"type": "box", "center": [0.5, 0, 5], "size": [1.5, 1.5, 1.5]},
         "motion": {"kind": "spin", "axis": [0, 1, 0], "pivot": [0.5, 0, 5],
                    "radians_per_frame": 0.4}},
    ],
}


def _fresh(*commands):
    """Run `commands` (argv lists) through cli.main in a new interpreter ->
    (exit codes, the scipy subpackages loaded by the end)."""
    src = str(Path(scene4d.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(commands)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    return out["codes"], set(out["loaded"])


@pytest.fixture(scope="module")
def numpy_only_run(tmp_path_factory):
    """Every command but eval-recon and forward, in one fresh process."""
    tmp = tmp_path_factory.mktemp("cold")
    (tmp / "scene.json").write_text(json.dumps(SCENE))
    d, agg = str(tmp / "d"), str(tmp / "agg")
    commands = [
        ["gen", "--spec", str(tmp / "scene.json"), "--out", d],
        ["aggregate-oracle", "--data", d, "--target", "1", "--out", agg,
         "--tracks-out", str(tmp / "tracks.csv")],
        ["split", "--depth-dir", d],
        ["loss-check", "--trials", "1"],
        ["eval-track", "--pred", str(tmp / "tracks.csv"),
         "--gt", str(Path(d) / "trajectories.csv"), "--align", "median"],
        ["eval-depth", "--pred", d, "--gt", d],
        ["eval-pose", "--pred", str(Path(d) / "cameras.json"),
         "--gt", str(Path(d) / "cameras.json"), "--pose-align", "none"],
    ]
    codes, loaded = _fresh(*commands)
    return tmp, codes, loaded


def test_submodule_name_is_the_module():
    # the package exports no name that shadows one of its modules
    import scene4d.raycast as m
    assert isinstance(m, types.ModuleType) and hasattr(m, "raycast_batch")


def test_import_leaves_scipy_out():
    codes, loaded = _fresh()
    assert codes == [] and loaded == set()


def test_numpy_only_commands_leave_scipy_out(numpy_only_run):
    _, codes, loaded = numpy_only_run
    assert codes == [0] * 7
    assert loaded == set()


def test_eval_recon_loads_scipy_spatial(numpy_only_run):
    tmp, _, _ = numpy_only_run
    ply = str(tmp / "agg" / "complete_cloud.ply")
    codes, loaded = _fresh(["eval-recon", "--pred", ply, "--gt", ply, "--k", "8"])
    assert codes == [0]
    assert "scipy.spatial" in loaded


def test_forward_loads_scipy_special_only(tmp_path):
    frames = tmp_path / "frames"
    frames.mkdir()
    rng = np.random.default_rng(1)
    for t in range(2):
        write_tensor(frames / f"frame_{t:04d}.ct4", rng.random((16, 16, 3)))
    (tmp_path / "model.json").write_text(json.dumps({"dim": 16, "n_heads": 2, "patch": 8}))
    codes, loaded = _fresh(["forward", "--frames", str(frames), "--target", "0",
                            "--config", str(tmp_path / "model.json")])
    assert codes == [0]
    assert loaded == {"scipy.special"}

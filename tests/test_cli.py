"""End-to-end command-line checks, run in-process through cli.main."""

import contextlib
import dataclasses
import io
import json
import math
import shutil
import struct
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import JSON_VALUES
from scene4d import cli, metrics, tensorio
from scene4d.cli import main
from scene4d.errors import InputError
from scene4d.losses import LossConfig
from scene4d.tensorio import read_ply, read_tensor, write_ply, write_tensor
from scene4d.transformer import ModelConfig

SCENE = {
    "resolution": [48, 48],
    "n_frames": 5,
    "seed": 11,
    "n_queries": 128,
    "camera": {"q": [1, 0, 0, 0], "t": [0, 0, 0],
               "fov": [math.pi / 2, math.pi / 2]},
    "background": {"type": "plane", "center": [0, 2.5, 8],
                   "u_axis": [8, 0, 0], "v_axis": [0, 0, 8]},
    "objects": [
        {"shape": {"type": "box", "center": [0.8, 0, 5], "size": [1.2, 1.2, 1.2]},
         "motion": {"kind": "spin", "axis": [0, 1, 0], "pivot": [0.8, 0, 5],
                    "radians_per_frame": 0.45}},
        {"shape": {"type": "box", "center": [-1.4, 0, 6], "size": [1, 1, 1]},
         "motion": {"kind": "translate", "velocity": [0.3, 0, 0]}},
    ],
}


@pytest.fixture()
def scene_file(tmp_path):
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(SCENE))
    return p


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_and_aggregate_and_eval_recon_self(tmp_path, scene_file, capsys):
    code, out = _run(capsys, "gen", "--spec", str(scene_file), "--out", str(tmp_path / "d"))
    assert code == 0
    info = json.loads(out)
    assert info["frames"] == 5 and info["tracks"] == 128

    code, out = _run(capsys, "aggregate-oracle", "--data", str(tmp_path / "d"),
                     "--target", "2", "--out", str(tmp_path / "agg"),
                     "--tracks-out", str(tmp_path / "tracks.csv"))
    assert code == 0
    agg = json.loads(out)
    assert agg["points_complete"] > agg["points_target_frame"]
    assert (tmp_path / "agg" / "complete_cloud.ply").exists()
    assert (tmp_path / "agg" / "aggregated_0004.ct4").exists()

    ply = str(tmp_path / "agg" / "complete_cloud.ply")
    code, out = _run(capsys, "eval-recon", "--pred", ply, "--gt", ply,
                     "--nmax", "5000", "--seed", "1", "--k", "16")
    assert code == 0
    m = json.loads(out)
    assert m["acc_mean"] == 0.0 and m["comp_median"] == 0.0
    assert m["nc_mean"] > 0.99


def test_eval_recon_parses_only_kept_rows_and_prints_recon_metrics(tmp_path, capsys):
    # clouds larger than --nmax: only the sampled rows of pred.ply and gt.ply
    # are parsed, while gt_crlf.ply's CRLF line ends send it through the full
    # read; each prints recon_metrics of the fully read clouds
    rng = np.random.default_rng(2)
    cloud = rng.normal(0, 2, (700, 3)).astype(np.float32)
    write_ply(tmp_path / "pred.ply", cloud + rng.normal(0, 0.01, cloud.shape), normals=cloud)
    write_ply(tmp_path / "gt.ply", cloud[:600])
    crlf = tmp_path / "gt_crlf.ply"
    crlf.write_bytes((tmp_path / "gt.ply").read_bytes().replace(b"\n", b"\r\n"))
    m = metrics.recon_metrics(read_ply(tmp_path / "pred.ply")[0], read_ply(crlf)[0],
                              n_max=250, seed=9, k=8)
    want = json.dumps({"command": "eval-recon", **dataclasses.asdict(m)}, sort_keys=True) + "\n"
    for gt, full_reads in ((tmp_path / "gt.ply", 0), (crlf, 1)):
        with mock.patch.object(tensorio, "_read_rows", wraps=tensorio._read_rows) as slow:
            code, out = _run(capsys, "eval-recon", "--pred", str(tmp_path / "pred.ply"),
                             "--gt", str(gt), "--nmax", "250", "--seed", "9", "--k", "8")
        assert code == 0 and out == want
        assert slow.call_count == full_reads


def test_eval_recon_draws_one_sample_per_cloud_size(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(4)
    cloud = rng.normal(0, 2, (500, 3)).astype(np.float32)
    write_ply(tmp_path / "pred.ply", cloud + rng.normal(0, 0.01, cloud.shape))
    write_ply(tmp_path / "gt.ply", cloud)
    write_ply(tmp_path / "gt_small.ply", cloud[:450])
    sample_rows, drawn = metrics.sample_rows, []

    def counted(n, n_max, seed):
        rows = sample_rows(n, n_max, seed)
        if rows is not None:
            drawn.append(n)
        return rows
    monkeypatch.setattr(metrics, "sample_rows", counted)
    for gt, sizes in (("gt.ply", [500]), ("gt_small.ply", [500, 450])):
        drawn.clear()
        code, _ = _run(capsys, "eval-recon", "--pred", str(tmp_path / "pred.ply"),
                       "--gt", str(tmp_path / gt), "--nmax", "200", "--seed", "3")
        assert code == 0 and drawn == sizes


def test_eval_track_self_and_oracle_tracks(tmp_path, scene_file, capsys):
    _run(capsys, "gen", "--spec", str(scene_file), "--out", str(tmp_path / "d"))
    _run(capsys, "aggregate-oracle", "--data", str(tmp_path / "d"), "--target", "0",
         "--out", str(tmp_path / "agg"), "--tracks-out", str(tmp_path / "tracks.csv"))
    gt = str(tmp_path / "d" / "trajectories.csv")
    code, out = _run(capsys, "eval-track", "--pred", str(tmp_path / "tracks.csv"),
                     "--gt", gt, "--align", "median")
    assert code == 0
    m = json.loads(out)
    assert m["apd"] == 100.0
    assert m["epe"] < 1e-9


def test_eval_track_median_on_scaled_copies(tmp_path, capsys):
    from scene4d.synth import TrajectorySet
    from scene4d.tensorio import write_trajectories
    rng = np.random.default_rng(5)
    pos = rng.random((10, 4, 3)) + [0, 0, 4]
    gt = TrajectorySet(positions=pos, visible=np.ones((10, 4), bool),
                       dynamic=np.ones(10, bool))
    pred = TrajectorySet(positions=3.0 * pos, visible=gt.visible, dynamic=gt.dynamic)
    write_trajectories(tmp_path / "gt.csv", gt)
    write_trajectories(tmp_path / "pred.csv", pred)
    code, out = _run(capsys, "eval-track", "--pred", str(tmp_path / "pred.csv"),
                     "--gt", str(tmp_path / "gt.csv"), "--align", "median")
    assert code == 0
    m = json.loads(out)
    assert m["epe"] < 1e-12
    assert m["apd"] == 100.0


def test_split_command_lines(tmp_path, capsys):
    d = tmp_path / "depths"
    d.mkdir()
    for t in range(10):
        v = 1.0 if t < 5 else 5.0
        write_tensor(d / f"depth_{t:04d}.ct4", np.full((8, 8), v))
    code, out = _run(capsys, "split", "--depth-dir", str(d), "--tau", "0.7")
    assert code == 0
    assert out == "5\n"


def test_eval_depth_self_and_scaled(tmp_path, scene_file, capsys):
    _run(capsys, "gen", "--spec", str(scene_file), "--out", str(tmp_path / "d"))
    code, out = _run(capsys, "eval-depth", "--pred", str(tmp_path / "d"),
                     "--gt", str(tmp_path / "d"))
    assert code == 0
    m = json.loads(out)
    assert m["abs_rel"] == 0.0 and m["delta_125"] == 100.0
    code, out = _run(capsys, "eval-depth", "--pred", str(tmp_path / "d"),
                     "--gt", str(tmp_path / "d"), "--no-scale")
    assert code == 0
    m = json.loads(out)
    assert m["scaled"] is False and m["abs_rel"] == 0.0


def test_eval_pose_self(tmp_path, scene_file, capsys):
    _run(capsys, "gen", "--spec", str(scene_file), "--out", str(tmp_path / "d"))
    cams = str(tmp_path / "d" / "cameras.json")
    code, out = _run(capsys, "eval-pose", "--pred", cams, "--gt", cams,
                     "--pose-align", "none")
    assert code == 0
    m = json.loads(out)
    assert m["ate"] == 0.0 and m["rpe_rot"] == 0.0


def test_lift_writes_trajectories(tmp_path, scene_file, capsys):
    out_csv = tmp_path / "traj.csv"
    code, out = _run(capsys, "lift", "--scene", str(scene_file), "--out", str(out_csv))
    assert code == 0
    assert out_csv.exists()
    assert json.loads(out)["tracks"] == 128


def test_loss_check_command(capsys):
    code, out = _run(capsys, "loss-check", "--seed", "3", "--trials", "2")
    assert code == 0
    errs = json.loads(out)["max_relative_error"]
    assert set(errs) == {"point_focal", "point_dynamic", "point_offset", "depth", "camera"}
    assert all(v < 1e-4 for v in errs.values())


def test_loss_check_non_finite_gradient_exits_one(tmp_path, capsys):
    cfgp = tmp_path / "loss.json"
    cfgp.write_text(json.dumps({"beta": 1e200, "gamma": 2}))
    with np.errstate(all="ignore"):
        code, out = _run(capsys, "loss-check", "--config", str(cfgp), "--trials", "1")
    assert code == 1
    assert out.count("\n") == 1
    assert json.loads(out)["error"]["type"] == "NonFiniteDerivative"


def test_loss_check_non_finite_gradient_leaves_stderr_empty(tmp_path):
    cfgp = tmp_path / "loss.json"
    cfgp.write_text(json.dumps({"beta": 1e200, "gamma": 2}))
    proc = subprocess.run([sys.executable, "-m", "scene4d.cli", "loss-check",
                           "--config", str(cfgp), "--trials", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout.count("\n") == 1
    assert json.loads(proc.stdout)["error"]["type"] == "NonFiniteDerivative"
    assert proc.stderr == ""


def test_overflowing_tensor_header_exits_one(tmp_path, capsys):
    d = tmp_path / "d"
    d.mkdir()
    (d / "depth_0000.ct4").write_bytes(b"C4RT" + struct.pack("<BBI2Q", 1, 1, 2, 2**40, 2**40))
    code, out = _run(capsys, "split", "--depth-dir", str(d))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "TruncatedPayload"


def test_forward_command(tmp_path, capsys):
    frames = tmp_path / "frames"
    frames.mkdir()
    rng = np.random.default_rng(3)
    for t in range(3):
        write_tensor(frames / f"frame_{t:04d}.ct4", rng.random((32, 32, 3)))
    cfgp = tmp_path / "model.json"
    cfgp.write_text(json.dumps({"dim": 32, "n_heads": 4, "patch": 8}))
    dump = tmp_path / "features.ct4"
    code, out = _run(capsys, "forward", "--frames", str(frames), "--target", "1",
                     "--config", str(cfgp), "--seed", "7", "--dump", str(dump))
    assert code == 0
    info = json.loads(out)
    assert info["K"] == 16 and len(info["cameras"]) == 3
    feats = read_tensor(dump)
    assert feats.shape == (3, 16, 32)


def test_exit_codes(tmp_path, scene_file, capsys):
    # missing input file -> 2
    code, _ = _run(capsys, "gen", "--spec", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "d"))
    assert code == 2
    # bad target -> 2 (validated before compute)
    _run(capsys, "gen", "--spec", str(scene_file), "--out", str(tmp_path / "d"))
    code, out = _run(capsys, "aggregate-oracle", "--data", str(tmp_path / "d"),
                     "--target", "99", "--out", str(tmp_path / "agg"))
    assert code == 2
    assert "error" in json.loads(out)
    # corrupt tensor payload -> 1 (runtime)
    bad = tmp_path / "bad"
    bad.mkdir()
    write_tensor(bad / "depth_0000.ct4", np.ones((4, 4)))
    raw = (bad / "depth_0000.ct4").read_bytes()
    (bad / "depth_0000.ct4").write_bytes(raw[:-4])
    code, out = _run(capsys, "split", "--depth-dir", str(bad))
    assert code == 1


def test_unknown_flag_exits_two():
    proc = subprocess.run([sys.executable, "-m", "scene4d.cli", "gen", "--bogus", "x"],
                          capture_output=True, text=True)
    assert proc.returncode == 2


def test_repeated_invocations_byte_identical(tmp_path, scene_file, capsys):
    outs = []
    for run in ("r1", "r2"):
        chunks = []
        code, out = _run(capsys, "gen", "--spec", str(scene_file),
                         "--out", str(tmp_path / run), "--seed", "4")
        # normalize the differing --out path out of the comparison
        chunks.append(out.replace(str(tmp_path / run), "OUT"))
        code, out = _run(capsys, "aggregate-oracle", "--data", str(tmp_path / run),
                         "--target", "1", "--out", str(tmp_path / (run + "agg")))
        chunks.append(out.replace(str(tmp_path / (run + "agg")), "AGG")
                      .replace(str(tmp_path / run), "OUT"))
        ply = str(tmp_path / (run + "agg") / "complete_cloud.ply")
        code, out = _run(capsys, "eval-recon", "--pred", ply, "--gt", ply, "--seed", "5")
        chunks.append(out)
        outs.append("".join(chunks))
    assert outs[0] == outs[1]


def _cameras(tmp_path, text):
    p = tmp_path / "cameras.json"
    p.write_text(text)
    return ["eval-pose", "--pred", str(p), "--gt", str(p)]


def _scene(tmp_path, **fields):
    p = tmp_path / "scene.json"
    p.write_text(json.dumps({k: v for k, v in {**SCENE, **fields}.items() if v is not None}))
    return ["gen", "--spec", str(p), "--out", str(tmp_path / "d")]


def _config(tmp_path, command, settings=None):
    p = tmp_path / "config.json"
    p.write_text(json.dumps({"bogus": 1} if settings is None else settings))
    if command == "loss-check":
        return ["loss-check", "--config", str(p), "--trials", "1"]
    frames = tmp_path / "frames"
    frames.mkdir()
    write_tensor(frames / "frame_0000.ct4", np.zeros((16, 16, 3)))
    return ["forward", "--frames", str(frames), "--target", "0", "--config", str(p)]


def _dataset_scene(tmp_path, scene: bytes):
    """aggregate-oracle on a one-frame dataset whose scene.json holds `scene`."""
    data = tmp_path / "data"
    data.mkdir()
    write_tensor(data / "depth_0000.ct4", np.ones((4, 4)))
    (data / "cameras.json").write_text(json.dumps([{"q": [1, 0, 0, 0], "t": [0, 0, 0],
                                                    "fov": [1, 1]}]))
    (data / "trajectories.csv").write_text("track_id,frame,x,y,z,visible,dynamic\r\n")
    (data / "scene.json").write_bytes(scene)
    return ["aggregate-oracle", "--data", str(data), "--target", "0",
            "--out", str(tmp_path / "agg")]


def _short_ply(tmp_path):
    p = tmp_path / "short.ply"
    p.write_text("ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
                 "property float y\nproperty float z\nend_header\n0 0 0\n")
    return ["eval-recon", "--pred", str(p), "--gt", str(p)]


@pytest.mark.parametrize("argv,error", [
    (lambda d: _cameras(d, "[{}]"), "InputError"),
    (lambda d: _cameras(d, "[{"), "InputError"),
    (lambda d: _cameras(d, json.dumps({"q": [1, 0, 0, 0], "t": [0, 0, 0],
                                       "fov": [1, 1]})), "InputError"),
    (lambda d: _cameras(d, json.dumps([{"q": [1, 0, 0], "t": [0, 0, 0],
                                        "fov": [1, 1]}] * 2)), "InputError"),
    (lambda d: _cameras(d, json.dumps([{"q": [1, 0, 0, 0], "t": [0, 0],
                                        "fov": [1, 1]}] * 2)), "InputError"),
    (lambda d: _cameras(d, json.dumps([{"q": [1, 0, 0, 0], "t": [0, 0, 0],
                                        "fov": 1}] * 2)), "InputError"),
    (lambda d: _scene(d, camera={"q": [1, 0, 0, 0], "t": [0, 0, 0]}), "InputError"),
    (lambda d: _scene(d, camera={"q": [1, 0, 0, 0], "t": [0, 0, 0],
                                 "fov": [1, "wide"]}), "InputError"),
    (lambda d: _scene(d, n_frames=None), "InputError"),
    (lambda d: _scene(d, resolution="ab"), "InputError"),
    (lambda d: _scene(d, n_frames=float("inf")), "InputError"),
    (lambda d: _scene(d, dynamic_delta=-1), "InputError"),
    (lambda d: _scene(d, n_queries=-3), "InputError"),
    (lambda d: _scene(d, resolution=[-4, 16]), "InputError"),
    (lambda d: _scene(d, resolution=[0, 16]), "InputError"),
    (lambda d: _scene(d, n_frames=0), "InputError"),
    (lambda d: _cameras(d, json.dumps([{"q": [2, 0, 0, 0], "t": [0, 0, 0],
                                        "fov": [1, 1]}] * 2)), "InputError"),
    (lambda d: _cameras(d, json.dumps([{"q": [1, 0, 0, 0], "t": [0, 0, 0],
                                        "fov": [1, 4]}] * 2)), "InputError"),
    (lambda d: _cameras(d, json.dumps([{"q": [1, 0, 0, 0], "t": [float("nan"), 0, 0],
                                        "fov": [1, 1]}] * 2)), "InputError"),
    (lambda d: _config(d, "loss-check"), "InputError"),
    (lambda d: _config(d, "forward"), "InputError"),
    (lambda d: _config(d, "forward", {"n_heads": 0}), "InputError"),
    (lambda d: _config(d, "forward", {"patch": 0}), "InputError"),
    (lambda d: _config(d, "forward", {"dim": -4}), "InputError"),
    (lambda d: _config(d, "loss-check", {"alpha": -1}), "InputError"),
    (lambda d: _config(d, "loss-check", {"lam": 7.5}), "InputError"),
    (_short_ply, "MalformedHeader"),
    (lambda d: _dataset_scene(d, b"{not json"), "InputError"),
    (lambda d: _dataset_scene(d, b"\xff\xfe"), "InputError"),
], ids=["camera-without-keys", "cameras-invalid-json", "cameras-not-a-list",
        "camera-q-three-numbers", "camera-t-two-numbers", "camera-fov-a-number",
        "scene-camera-without-fov", "scene-camera-fov-not-numbers", "scene-without-n_frames",
        "scene-resolution-a-string", "scene-n_frames-infinite", "scene-dynamic_delta-negative",
        "scene-n_queries-negative", "scene-resolution-negative", "scene-resolution-zero",
        "scene-n_frames-zero", "camera-q-not-unit", "camera-fov-over-pi",
        "camera-t-nan", "loss-config-unknown-key",
        "model-config-unknown-key", "model-config-n_heads-zero", "model-config-patch-zero",
        "model-config-dim-negative", "loss-config-alpha-negative", "loss-config-lam-unknown",
        "ply-short-body",
        "dataset-scene-invalid-json", "dataset-scene-not-utf8"])
def test_unusable_json_and_ply_inputs_exit_two(tmp_path, argv, error):
    proc = subprocess.run([sys.executable, "-m", "scene4d.cli"] + argv(tmp_path),
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout.count("\n") == 1
    assert json.loads(proc.stdout)["error"]["type"] == error
    assert proc.stderr == ""


def _frames(tmp_path, *arrays):
    frames = tmp_path / "frames"
    frames.mkdir()
    for t, a in enumerate(arrays):
        write_tensor(frames / f"frame_{t:04d}.ct4", a)
    return frames


def _not_a_tensor(tmp_path):
    frames = _frames(tmp_path, np.zeros((16, 16, 3)))
    (frames / "frame_0001.ct4").write_text("ply\nformat ascii 1.0\n")
    return frames


def _truncated_tensor(tmp_path):
    frames = _frames(tmp_path, np.zeros((16, 16, 3)), np.zeros((16, 16, 3)))
    raw = (frames / "frame_0001.ct4").read_bytes()
    (frames / "frame_0001.ct4").write_bytes(raw[:-8])
    return frames


@pytest.mark.parametrize("frames,code,error", [
    (_not_a_tensor, 1, "BadMagic"),
    (_truncated_tensor, 1, "TruncatedPayload"),
    (lambda d: _frames(d, np.zeros((16, 16))), 1, "ShapeMismatch"),
    (lambda d: _frames(d, np.zeros((16, 16, 3)), np.zeros((32, 32, 3))), 1, "ShapeMismatch"),
    (lambda d: _frames(d), 2, "InputError"),
], ids=["not-a-ct4-file", "truncated-ct4", "frame-without-channels", "mixed-sizes",
        "empty-directory"])
def test_forward_bad_frames_exit_codes(tmp_path, frames, code, error):
    argv = ["forward", "--frames", str(frames(tmp_path)), "--target", "0"]
    proc = subprocess.run([sys.executable, "-m", "scene4d.cli"] + argv,
                          capture_output=True, text=True)
    assert proc.returncode == code
    assert proc.stdout.count("\n") == 1
    assert json.loads(proc.stdout)["error"]["type"] == error
    assert proc.stderr == ""


@pytest.mark.parametrize("command,settings", [
    ("forward", {"dim": "x"}),
    ("forward", {"dim": True}),
    ("forward", {"dim": 64.0}),
    ("forward", {"fusion": 1}),
    ("forward", {"seed": None}),
    ("loss-check", {"alpha": "x"}),
    ("loss-check", {"beta": False}),
    ("loss-check", {"grad_term": 1}),
    ("loss-check", {"weight_mode": ["focal"]}),
    ("loss-check", {"alpha": 10**400}),
], ids=["dim-a-string", "dim-a-bool", "dim-a-float", "fusion-a-number", "seed-null",
        "alpha-a-string", "beta-a-bool", "grad_term-a-number", "weight_mode-a-list",
        "alpha-an-integer-past-float"])
def test_config_value_of_wrong_type_exits_two(tmp_path, command, settings):
    proc = subprocess.run([sys.executable, "-m", "scene4d.cli"]
                          + _config(tmp_path, command, settings),
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout.count("\n") == 1
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "InputError" and repr(next(iter(settings))) in error["message"]
    assert proc.stderr == ""


_SETTINGS = {cls: st.dictionaries(
    st.sampled_from([f.name for f in dataclasses.fields(cls)] + ["bogus"]),
    JSON_VALUES | st.sampled_from(["focal", "add", "offset"]), max_size=4)
    for cls in (LossConfig, ModelConfig)}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([LossConfig, ModelConfig]).flatmap(
    lambda cls: st.tuples(st.just(cls), _SETTINGS[cls] | JSON_VALUES)))
def test_fuzz_config_parses_or_raises_input_error(tmp_path_factory, case):
    cls, value = case
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps(value))
    try:
        config = cli._config(cls, path)
    except InputError:
        return
    assert isinstance(config, cls) and isinstance(value, dict)


def test_config_takes_an_integer_for_a_float(tmp_path, capsys):
    code, out = _run(capsys, *_config(tmp_path, "loss-check", {"alpha": 0, "huber_eps": 2}))
    assert code == 0
    assert json.loads(out)["command"] == "loss-check"


@pytest.mark.parametrize("flags,code,error", [
    (["--config", "{cfg}"], 2, "InputError"),
    (["--config", "{bad_cfg}"], 2, "InputError"),
    (["--target", "2"], 2, "InputError"),
], ids=["config-value", "model-config", "target"])
def test_forward_checks_settings_before_reading_frames(tmp_path, capsys, flags, code, error):
    # the frames are read lazily by the trunk, after every check of the
    # flags, so a bad flag is reported even when a frame is unreadable
    frames = _not_a_tensor(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"dim": "x"}))
    (tmp_path / "bad_cfg.json").write_text(json.dumps({"dim": 30}))
    flags = [f.format(cfg=tmp_path / "cfg.json", bad_cfg=tmp_path / "bad_cfg.json")
             for f in flags]
    argv = ["forward", "--frames", str(frames), "--target", "0"] + flags
    got, out = _run(capsys, *argv)
    assert got == code
    assert json.loads(out)["error"]["type"] == error


_TRIANGLE = [[0, 0, 5], [1, 0, 5], [0, 1, 5]]


def _mesh_scene(tmp_path, vertices=_TRIANGLE, faces=((0, 1, 2),), motion=None):
    obj = {"shape": {"type": "mesh", "vertices": vertices, "faces": faces},
           "motion": motion or {"kind": "static"}}
    return _scene(tmp_path, objects=[obj])


def _exits_two_with_one_json_line(argv, error="InputError") -> str:
    """Run the CLI on argv, check the exit-2 contract; return the message."""
    proc = subprocess.run([sys.executable, "-m", "scene4d.cli"] + argv,
                          capture_output=True, text=True)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout.count("\n") == 1
    assert json.loads(proc.stdout)["error"]["type"] == error
    assert proc.stderr == ""
    return json.loads(proc.stdout)["error"]["message"]


@pytest.mark.parametrize("faces", [[[0, 1, 9]], [[0, -1, 2]], [[0, 1, 1.5]], [[0, 1]],
                                   [[0, 1, True]], [0, 1, 2]],
                         ids=["index-past-the-end", "index-negative", "index-a-float",
                              "a-pair", "index-a-bool", "not-nested"])
def test_mesh_faces_not_vertex_index_triples_exit_two(tmp_path, faces):
    _exits_two_with_one_json_line(_mesh_scene(tmp_path, faces=faces))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("argv", [
    lambda d: _config(d, "loss-check", {"alpha": NAN}),
    lambda d: _config(d, "loss-check", {"dynamic_weight": INF}),
    lambda d: _mesh_scene(d, vertices=[[0, 0, 5], [1, NAN, 5], [0, 1, 5]]),
    lambda d: _scene(d, background={"type": "plane", "center": [0, 2.5, 8],
                                    "u_axis": [INF, 0, 0], "v_axis": [0, 0, 8]}),
    lambda d: _scene(d, objects=[{"shape": {"type": "box", "center": [0, 0, 5],
                                            "size": [1, NAN, 1]},
                                  "motion": {"kind": "static"}}]),
    lambda d: _mesh_scene(d, motion={"kind": "translate", "velocity": [NAN, 0, 0]}),
    lambda d: _mesh_scene(d, motion={"kind": "spin", "axis": [0, 1, 0], "pivot": [0, 0, 5],
                                     "radians_per_frame": NAN}),
    lambda d: _mesh_scene(d, motion=[{"q": [1, 0, 0, 0], "t": [0, 0, INF]}] * 5),
    lambda d: _scene(d, dynamic_delta=INF),
], ids=["loss-alpha-nan", "loss-dynamic_weight-inf", "mesh-vertex-nan", "plane-axis-inf",
        "box-size-nan", "translate-velocity-nan", "spin-rate-nan", "explicit-t-inf",
        "dynamic_delta-inf"])
def test_non_finite_numbers_exit_two(tmp_path, argv):
    _exits_two_with_one_json_line(argv(tmp_path))


def test_scene_field_that_is_no_json_number_exits_two(tmp_path):
    # int() would read the resolution as (8, 1)
    assert "resolution" in _exits_two_with_one_json_line(_scene(tmp_path, resolution=[8.9, True]))


@pytest.mark.parametrize("entry", [
    {"R": [[3, 0, 0], [0, 3, 0], [0, 0, 3]], "t": [0, 0, 0]},
    {"R": [[1, 0, 0], [0, 1, 0], [0, 0, -1]], "t": [0, 0, 0]},
    {"R": [[1, 0, 0], [0, 1, NAN], [0, 0, 1]], "t": [0, 0, 0]},
    {"q": [2, 0, 0, 0], "t": [0, 0, 0]},
    {"q": [1, 1e-4, 0, 0], "t": [0, 0, 0]},
], ids=["R-scaled", "R-a-reflection", "R-nan", "q-scaled", "q-off-unit-norm"])
def test_motion_that_is_not_rigid_exits_two(tmp_path, entry):
    # frame 0 is the identity; the object would render scaled or mirrored in frame 1
    motion = [{"q": [1, 0, 0, 0], "t": [0, 0, 0]}] + [entry] * 4
    _exits_two_with_one_json_line(_mesh_scene(tmp_path, motion=motion))


def test_motion_q_that_gives_no_rotation_names_q(tmp_path):
    # |q| is within the camera tolerance of 1, but the R it gives is not a
    # rotation within 1e-9 (R^T R - I grows as about 4 (|q|^2 - 1))
    entry = {"q": [0, 1.0000000009, 0, 0], "t": [0, 0, 10]}
    motion = [{"q": [1, 0, 0, 0], "t": [0, 0, 0]}, entry] + [{"q": [1, 0, 0, 0], "t": [0, 0, 0]}] * 3
    proc = subprocess.run([sys.executable, "-m", "scene4d.cli"]
                          + _mesh_scene(tmp_path, motion=motion), capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stderr == ""
    message = json.loads(proc.stdout)["error"]["message"]
    assert "q [0, 1.0000000009, 0, 0] has norm 1.0000000009" in message


# ---------------------------------------------------------------------------
# every subcommand on garbage in place of its main input

@pytest.fixture(scope="module")
def garbage_base(tmp_path_factory):
    """A small dataset from `gen`, its cloud and tracks from
    `aggregate-oracle`, and two forward frames, to be copied and spoiled."""
    root = tmp_path_factory.mktemp("garbage")
    scene = root / "scene.json"
    scene.write_text(json.dumps({**SCENE, "resolution": [16, 16], "n_frames": 3,
                                 "n_queries": 8}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--spec", str(scene), "--out", str(root / "data")]) == 0
        assert main(["aggregate-oracle", "--data", str(root / "data"), "--target", "1",
                     "--out", str(root / "agg"), "--tracks-out", str(root / "tracks.csv")]) == 0
    frames = root / "frames"
    frames.mkdir()
    for t in range(2):
        write_tensor(frames / f"frame_{t:04d}.ct4", np.zeros((16, 16, 3)))
    return root


# (argv with {r} for the copied base directory, file to spoil, exit code
# when that file is empty or random bytes); a directory always exits 2
_MAIN_INPUTS = {
    "gen": (["gen", "--spec", "{r}/scene.json", "--out", "{r}/out"], "scene.json", 2),
    "lift": (["lift", "--scene", "{r}/scene.json", "--out", "{r}/t.csv"], "scene.json", 2),
    "split": (["split", "--depth-dir", "{r}/data"], "data/depth_0000.ct4", 1),
    "aggregate-oracle-depth": (["aggregate-oracle", "--data", "{r}/data", "--target", "0",
                                "--out", "{r}/out"], "data/depth_0002.ct4", 1),
    "aggregate-oracle-pointmap": (["aggregate-oracle", "--data", "{r}/data", "--target", "0",
                                   "--out", "{r}/out"], "data/pointmap_0002.ct4", 1),
    "eval-recon": (["eval-recon", "--pred", "{r}/agg/complete_cloud.ply",
                    "--gt", "{r}/agg/complete_cloud.ply"], "agg/complete_cloud.ply", 2),
    "eval-track": (["eval-track", "--pred", "{r}/tracks.csv", "--gt", "{r}/data/trajectories.csv",
                    "--queries", "all"], "tracks.csv", 2),
    "eval-depth": (["eval-depth", "--pred", "{r}/data", "--gt", "{r}/data"],
                   "data/depth_0001.ct4", 1),
    "eval-pose": (["eval-pose", "--pred", "{r}/data/cameras.json",
                   "--gt", "{r}/data/cameras.json"], "data/cameras.json", 2),
    "loss-check": (["loss-check", "--config", "{r}/config.json", "--trials", "1"],
                   "config.json", 2),
    "forward": (["forward", "--frames", "{r}/frames", "--target", "0"],
                "frames/frame_0001.ct4", 1),
}


@pytest.mark.parametrize("garbage", ["directory", "empty", "random"])
@pytest.mark.parametrize("command", sorted(_MAIN_INPUTS))
def test_garbage_main_input_exits_by_contract(tmp_path, garbage_base, command, garbage):
    argv, spoiled, code = _MAIN_INPUTS[command]
    root = tmp_path / "r"
    shutil.copytree(garbage_base, root)
    path = root / spoiled
    if path.exists():
        path.unlink()
    if garbage == "directory":
        path.mkdir()
        code = 2
    else:
        path.write_bytes(b"" if garbage == "empty"
                         else np.random.default_rng(7).bytes(256))
    proc = subprocess.run([sys.executable, "-m", "scene4d.cli"]
                          + [a.format(r=root) for a in argv], capture_output=True, text=True)
    assert proc.returncode == code, proc.stdout + proc.stderr
    assert proc.stdout.count("\n") == 1
    assert "error" in json.loads(proc.stdout)
    assert proc.stderr == ""


@pytest.mark.parametrize("argv", [
    ["gen", "--spec", "{r}/scene.json", "--out", "{r}/scene.json"],
    ["gen", "--spec", "{r}/scene.json", "--out", "{r}/scene.json/data"],
    ["lift", "--scene", "{r}/scene.json", "--out", "{r}/data"],
    ["aggregate-oracle", "--data", "{r}/data", "--target", "0", "--out", "{r}/tracks.csv"],
    ["aggregate-oracle", "--data", "{r}/data", "--target", "0", "--out", "{r}/out",
     "--tracks-out", "{r}/data"],
    ["forward", "--frames", "{r}/frames", "--target", "0", "--dump", "{r}/data"],
], ids=["gen-out-a-file", "gen-out-under-a-file", "lift-out-a-directory",
        "aggregate-out-a-file", "tracks-out-a-directory", "forward-dump-a-directory"])
def test_output_path_of_the_wrong_kind_exits_two(tmp_path, garbage_base, argv):
    root = tmp_path / "r"
    shutil.copytree(garbage_base, root)
    proc = subprocess.run([sys.executable, "-m", "scene4d.cli"]
                          + [a.format(r=root) for a in argv], capture_output=True, text=True)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout.count("\n") == 1
    assert "error" in json.loads(proc.stdout)
    assert proc.stderr == ""


def test_aggregate_oracle_camera_count_not_frame_count_exits_two(garbage_base, tmp_path):
    root = tmp_path / "r"
    shutil.copytree(garbage_base / "data", root)
    cameras = json.loads((root / "cameras.json").read_text())
    (root / "cameras.json").write_text(json.dumps(cameras[:-1]))
    code, out = _run_quiet(["aggregate-oracle", "--data", str(root), "--target", "0",
                            "--out", str(tmp_path / "agg")])
    assert code == 2
    assert "2 cameras for 3 depth files" in json.loads(out)["error"]["message"]


_CLOUD = "{r}/agg/complete_cloud.ply"


@pytest.mark.parametrize("argv", [
    ["loss-check", "--trials", "0"],
    ["loss-check", "--trials", "-3"],
    ["loss-check", "--trials", "1", "--h", "1.0"],
    ["loss-check", "--trials", "1", "--h", "nan"],
    ["eval-recon", "--pred", _CLOUD, "--gt", _CLOUD, "--nmax", "0"],
    ["eval-recon", "--pred", _CLOUD, "--gt", _CLOUD, "--k", "2"],
    ["split", "--depth-dir", "{r}/data", "--tau", "0"],
    ["split", "--depth-dir", "{r}/data", "--tau", "nan"],
    ["loss-check", "--trials", "abc"],
    ["split", "--depth-dir", "{r}/data", "--tau", "-inf"],
    ["loss-check", "--trials", "1", "--h", "-inf"],
    ["eval-recon", "--pred", _CLOUD],
    ["eval-recon", "--pred", _CLOUD, "--gt", _CLOUD, "--bogus"],
    ["gen", "--spec", "{r}/scene.json", "--out", "{r}/unused", "--seed", "-18446744073709551616"],
    ["loss-check", "--trials", "1", "--seed", "18446744073709551616"],
], ids=["trials-zero", "trials-negative", "h-too-large", "h-nan", "nmax-zero", "k-two",
        "tau-zero", "tau-nan", "trials-not-an-int", "tau-minus-inf", "h-minus-inf",
        "required-flag-missing", "unknown-flag", "seed-below-zero", "seed-past-64-bits"])
def test_unusable_flag_values_exit_two(garbage_base, argv):
    # a check that ran no trial, or a split that compared nothing, is no
    # result; a flag the parser rejects is reported like any bad value
    _exits_two_with_one_json_line([a.format(r=garbage_base) for a in argv], "BadArgument")


@pytest.mark.parametrize("argv", [
    lambda d: _scene(d, seed=-1),
    lambda d: _scene(d, seed=2**64),
    lambda d: _scene(d, seed=True),
    lambda d: _scene(d, seed=11.0),
    lambda d: _config(d, "forward", {"seed": 2**64}),
], ids=["scene-below-zero", "scene-past-64-bits", "scene-a-bool", "scene-a-float",
        "model-config-past-64-bits"])
def test_file_seed_outside_64_bits_or_not_an_int_exits_two(tmp_path, argv):
    # the generator reduces seeds modulo 2**64, so these would alias another seed
    assert "seed must be an integer" in _exits_two_with_one_json_line(argv(tmp_path))


def test_help_exits_zero():
    proc = subprocess.run([sys.executable, "-m", "scene4d.cli", "loss-check", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.startswith("usage: scene4d loss-check")
    assert proc.stderr == ""


def test_split_of_one_frame_exits_two(tmp_path):
    write_tensor(tmp_path / "depth_0000.ct4", np.ones((4, 4)))
    message = _exits_two_with_one_json_line(["split", "--depth-dir", str(tmp_path)],
                                            "BadArgument")
    assert message.endswith("not 1")


@pytest.mark.parametrize("case", ["pose-counts", "pose-one-camera", "depth-shapes"])
def test_evaluator_input_disagreement_exits_two(garbage_base, tmp_path, case):
    data = garbage_base / "data"
    if case == "depth-shapes":
        for t in range(3):
            write_tensor(tmp_path / f"depth_{t:04d}.ct4", np.ones((8, 8)))
        message = _exits_two_with_one_json_line(
            ["eval-depth", "--pred", str(tmp_path), "--gt", str(data)])
        assert "(3, 8, 8)" in message and "(3, 16, 16)" in message
        return
    cameras = json.loads((data / "cameras.json").read_text())
    pred = tmp_path / "cameras.json"
    pred.write_text(json.dumps(cameras[:2] if case == "pose-counts" else cameras[:1]))
    gt = data / "cameras.json" if case == "pose-counts" else pred
    message = _exits_two_with_one_json_line(
        ["eval-pose", "--pred", str(pred), "--gt", str(gt)], "BadArgument")
    assert message.endswith("not 2 and 3" if case == "pose-counts" else "not 1 and 1")


def _aggregate(data):
    return ["aggregate-oracle", "--data", str(data), "--target", "0",
            "--out", str(data.parent / "out")]


def _scene_of_fewer_frames(data, n=2):
    # a scene.json that is consistent in itself, for n of the 3 frames
    scene = json.loads((data / "scene.json").read_text())
    scene.update(n_frames=n, camera_path=scene["camera_path"][:n])
    for obj in scene["objects"]:
        obj["motion"] = obj["motion"][:n]
    (data / "scene.json").write_text(json.dumps(scene))
    return _aggregate(data)


def _scene_resolution(data):
    scene = json.loads((data / "scene.json").read_text())
    (data / "scene.json").write_text(json.dumps({**scene, "resolution": [8, 8]}))
    return _aggregate(data)


def _frame_file(data, name, array, argv):
    write_tensor(data / name, array)
    return argv


def _value_at(data, name, index, value):
    """The array of `name` in `data` with `value` at `index`."""
    arr = read_tensor(data / name)
    arr[index] = value
    return arr


def _object_id(data, value):
    return _frame_file(data, "attachments_0001.ct4",
                       _value_at(data, "attachments_0001.ct4", (0, 0, 0), value), _aggregate(data))


def _trajectories_without_frame_2(data):
    path = data / "trajectories.csv"
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(ln for ln in lines if ln.split(b",")[1] != b"2"))
    return _aggregate(data) + ["--tracks-out", str(data.parent / "tracks.csv")]


# argv on the `data` directory of a copied garbage_base, once it is spoiled
_DISAGREEING_DATASETS = {
    "scene-fewer-frames": _scene_of_fewer_frames,
    "scene-resolution": _scene_resolution,
    "split-depth-shapes": lambda d: _frame_file(d, "depth_0001.ct4", np.ones((8, 8)),
                                                ["split", "--depth-dir", str(d)]),
    "eval-depth-depth-shapes": lambda d: _frame_file(d, "depth_0001.ct4", np.ones((8, 8)),
                                                     ["eval-depth", "--pred", str(d),
                                                      "--gt", str(d)]),
    "aggregate-pointmap-shape": lambda d: _frame_file(d, "pointmap_0001.ct4",
                                                      np.zeros((8, 8, 3)), _aggregate(d)),
    "aggregate-depth-3d": lambda d: _frame_file(d, "depth_0001.ct4", np.ones((16, 16, 1)),
                                                _aggregate(d)),
    "object-id-unknown": lambda d: _object_id(d, 7),
    "object-id-nan": lambda d: _object_id(d, NAN),
    "split-depth-inf": lambda d: _frame_file(d, "depth_0001.ct4",
                                             _value_at(d, "depth_0001.ct4", (0, 0), INF),
                                             ["split", "--depth-dir", str(d)]),
    "eval-depth-depth-inf": lambda d: _frame_file(d, "depth_0001.ct4",
                                                  _value_at(d, "depth_0001.ct4", (0, 0), INF),
                                                  ["eval-depth", "--pred", str(d),
                                                   "--gt", str(d)]),
    "aggregate-pointmap-nan": lambda d: _frame_file(
        d, "pointmap_0001.ct4",
        _value_at(d, "pointmap_0001.ct4",
                  tuple(np.argwhere(read_tensor(d / "depth_0001.ct4") > 0)[0]), NAN),
        _aggregate(d)),
    "aggregate-attachments-2d": lambda d: _frame_file(
        d, "attachments_0001.ct4", read_tensor(d / "attachments_0001.ct4")[..., 0],
        _aggregate(d)),
    "trajectories-fewer-frames": _trajectories_without_frame_2,
}


@pytest.mark.parametrize("case", sorted(_DISAGREEING_DATASETS))
def test_dataset_files_that_disagree_exit_two(garbage_base, tmp_path, case):
    shutil.copytree(garbage_base / "data", tmp_path / "data")
    _exits_two_with_one_json_line(_DISAGREEING_DATASETS[case](tmp_path / "data"))


def _run_quiet(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()

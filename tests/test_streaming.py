"""The producer commands stream their frames: `gen` writes each frame as
it renders it and `aggregate-oracle` holds one warped map at a time, and
the synth helpers it feeds give the same arrays from a generator as from
a list."""

import contextlib
import dataclasses
import io
import json
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import demo_scene, identity_camera
from scene4d import cli, synth, tensorio
from scene4d.synth import (SceneObject, SceneSpec, complete_cloud, generate, oracle_aggregate,
                           plane_mesh, tracks_from_aggregation, translation_path)
from scene4d.tensorio import load_dataset, save_dataset


def _array_bytes(obj) -> int:
    """Bytes of every numpy array reachable through lists and dataclasses."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(x) for x in obj)
    if dataclasses.is_dataclass(obj):
        return sum(_array_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("streaming")
    scene = root / "scene.json"
    scene.write_text(json.dumps(demo_scene(n_frames=8, resolution=(64, 64)).to_dict()))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen", "--spec", str(scene), "--out", str(root / "data")]) == 0
    return root / "data"


def test_aggregate_oracle_holds_one_warped_map_at_a_time(dataset_dir, tmp_path):
    dataset = load_dataset(dataset_dir)
    dataset_bytes = _array_bytes(dataset)
    map_bytes = dataset.pointmaps[0].points.nbytes + dataset.pointmaps[0].valid.nbytes
    cloud_bytes = sum(int(d.valid.sum()) for d in dataset.depths) * 3 * 8
    del dataset

    argv = ["aggregate-oracle", "--data", str(dataset_dir), "--target", "3",
            "--out", str(tmp_path / "agg"), "--tracks-out", str(tmp_path / "tracks.csv")]
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # The complete cloud is the command's output: its per-frame parts and
    # their concatenation are alive together once, however the maps stream.
    # Beyond that, a list of the 8 warped maps (or of the 8 per-target maps
    # for the tracks) would alone be 8 maps.
    assert peak - dataset_bytes - 2 * cloud_bytes < 4 * map_bytes


def test_aggregate_oracle_reads_each_frame_once(dataset_dir, tmp_path, monkeypatch):
    reads = []
    read, read_channel = tensorio.read_tensor, tensorio.read_channel
    monkeypatch.setattr(tensorio, "read_tensor", lambda p: reads.append(p.name) or read(p))
    monkeypatch.setattr(tensorio, "read_channel",
                        lambda p, c: reads.append(p.name) or read_channel(p, c))
    argv = ["aggregate-oracle", "--data", str(dataset_dir), "--target", "3",
            "--out", str(tmp_path / "agg"), "--tracks-out", str(tmp_path / "tracks.csv")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    # every depth map and point map, the object ids of every frame but the
    # target (which is not warped), and frame 0 once more for all 7 track
    # warps; no dynamic mask
    frames = [f"{t:04d}" for t in range(8)]
    assert sorted(reads) == sorted([f"depth_{t}.ct4" for t in frames]
                                   + [f"pointmap_{t}.ct4" for t in frames + ["0000"]]
                                   + [f"attachments_{t}.ct4" for t in frames + ["0000"]
                                      if t != "0003"])


def test_complete_cloud_same_from_list_or_generator(demo_dataset):
    n = demo_dataset.n_frames
    maps = [oracle_aggregate(demo_dataset, i, 3) for i in range(n)]
    from_list = complete_cloud(maps)
    from_gen = complete_cloud(oracle_aggregate(demo_dataset, i, 3) for i in range(n))
    assert from_list.dtype == from_gen.dtype and from_list.shape == from_gen.shape
    assert from_list.tobytes() == from_gen.tobytes()
    assert len(from_list) == sum(int(d.valid.sum()) for d in demo_dataset.depths)
    assert complete_cloud(iter([])).shape == (0, 3)


def test_tracks_same_from_list_or_generator(demo_dataset):
    n = demo_dataset.n_frames
    queries = demo_dataset.trajectories.query_pixels
    maps = [oracle_aggregate(demo_dataset, 0, a) for a in range(n)]
    from_list = tracks_from_aggregation(maps, queries)
    from_gen = tracks_from_aggregation((oracle_aggregate(demo_dataset, 0, a)
                                        for a in range(n)), queries)
    for field in ("positions", "visible", "dynamic", "query_pixels"):
        a, b = getattr(from_list, field), getattr(from_gen, field)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), field
    assert from_list.positions.shape == (len(queries), n, 3)


# Run in a fresh interpreter, so what earlier tests leave behind to grow
# inside the measured window (the interpreter's interned-string table, for
# one) is not charged to the command; tracemalloc acts on the child only.
_TRACED_RUN = """
import contextlib, io, json, sys, tracemalloc
from scene4d import cli
from scene4d.synth import SceneSpec, _render
with open(sys.argv[1]) as f:
    spec = SceneSpec.from_dict(json.load(f))
tracemalloc.start()
render_peak = 0
for t in range(spec.n_frames):
    tracemalloc.reset_peak()
    _render(spec, t)
    render_peak = max(render_peak, tracemalloc.get_traced_memory()[1])
tracemalloc.reset_peak()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:])
print(json.dumps([code, render_peak, tracemalloc.get_traced_memory()[1]]))
"""


def _holds_about_one_frame(tmp_path, command, flag):
    spec = demo_scene(n_frames=8, resolution=(64, 64))
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(spec.to_dict()))
    dataset = generate(spec)
    frame_bytes = sum(_array_bytes(x) for x in (
        dataset.depths[0], dataset.attachments[0], dataset.pointmaps[0],
        dataset.dynamic_mask[0]))
    traj_bytes = _array_bytes(dataset.trajectories)
    del dataset

    proc = subprocess.run([sys.executable, "-c", _TRACED_RUN, str(scene), command, flag,
                           str(scene), "--out", str(tmp_path / "out")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, render_peak, peak = json.loads(proc.stdout)
    assert code == 0
    # Rendering one frame needs `render_peak` (at 64x64 the ray kernel's
    # chunk buffers are most of it). Beyond that, the 8 depth maps and
    # masks come to about one frame and the frame being written to one
    # more; keeping every frame's point map and attachments would add 7.
    assert peak - render_peak - traj_bytes < 3 * frame_bytes


# One command in a fresh interpreter under tracemalloc; prints its exit
# code, traced peak and stdout.
_TRACED_COMMAND = """
import contextlib, io, json, sys, tracemalloc
from scene4d import cli
tracemalloc.start()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, tracemalloc.get_traced_memory()[1], out.getvalue()]))
"""


def _producer_peaks(tmp_path, n_frames):
    """Traced peaks of `gen` and `aggregate-oracle --tracks-out` on the
    64x64 demo scene of `n_frames` frames, and the complete cloud's size."""
    root = tmp_path / f"n{n_frames}"
    root.mkdir()
    # 32 queries: the tracks are (queries x frames) outputs that grow with
    # the frame count by nature, like the cloud, and are kept small here
    (root / "scene.json").write_text(json.dumps(
        demo_scene(n_frames=n_frames, resolution=(64, 64), n_queries=32).to_dict()))
    peaks = []
    for argv in (["gen", "--spec", str(root / "scene.json"), "--out", str(root / "data")],
                 ["aggregate-oracle", "--data", str(root / "data"), "--target", "3",
                  "--out", str(root / "agg"), "--tracks-out", str(root / "tracks.csv")]):
        proc = subprocess.run([sys.executable, "-c", _TRACED_COMMAND, *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        code, peak, stdout = json.loads(proc.stdout)
        assert code == 0, stdout
        peaks.append(peak)
    return peaks, json.loads(stdout)["points_complete"]


def test_producer_commands_stay_flat_in_the_frame_count(tmp_path):
    dataset = generate(demo_scene(n_frames=1, resolution=(64, 64), n_queries=32))
    frame_bytes = sum(_array_bytes(x) for x in (
        dataset.depths[0], dataset.attachments[0], dataset.pointmaps[0],
        dataset.dynamic_mask[0]))
    del dataset
    (gen4, agg4), points4 = _producer_peaks(tmp_path, 4)
    (gen16, agg16), points16 = _producer_peaks(tmp_path, 16)
    # 12 more frames must not cost a frame's arrays: keeping each frame's
    # depth map (or mask, or a per-frame label block) would cost 12 of
    # them. The float32 complete cloud is aggregate-oracle's output, so its
    # 12 bytes per added point are allowed for.
    assert gen16 - gen4 < frame_bytes
    assert agg16 - agg4 - 12 * (points16 - points4) < frame_bytes


def test_gen_holds_about_one_frame(tmp_path):
    _holds_about_one_frame(tmp_path, "gen", "--spec")


def test_lift_holds_about_one_frame(tmp_path):
    # lift writes only the trajectories, so no frame needs to be kept at all
    _holds_about_one_frame(tmp_path, "lift", "--scene")


def _leading_miss_scene(n_frames=4, start_z=-5.0):
    """A square that slides along the view axis from behind the camera:
    frames whose square lies behind the camera plane see nothing."""
    v, f = plane_mesh([0, 0, start_z], [4, 0, 0], [0, 4, 0])
    return SceneSpec(objects=[SceneObject(v, f, translation_path([0, 0, 5.0], n_frames))],
                     background=None, camera_path=[identity_camera()] * n_frames,
                     resolution=(8, 8), n_frames=n_frames, seed=0)


def _files(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_gen_writes_leading_empty_frames_once_a_frame_hits(tmp_path):
    spec = _leading_miss_scene()
    dataset = generate(spec)
    assert [bool(d.valid.any()) for d in dataset.depths] == [False, False, True, True]
    save_dataset(dataset, tmp_path / "library")
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(spec.to_dict()))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen", "--spec", str(scene), "--out", str(tmp_path / "cli")]) == 0
    files = _files(tmp_path / "cli")
    assert len(files) == 4 * spec.n_frames + 3
    assert files == _files(tmp_path / "library")


def test_gen_empty_scene_exits_one_and_writes_nothing(tmp_path):
    # the square never gets in front of the camera
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(_leading_miss_scene(n_frames=2, start_z=-10.0).to_dict()))
    out = tmp_path / "data"
    proc = subprocess.run([sys.executable, "-m", "scene4d.cli", "gen", "--spec", str(scene),
                           "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout.count("\n") == 1
    assert json.loads(proc.stdout)["error"]["type"] == "EmptyScene"
    assert proc.stderr == ""
    # all-miss frames are held back until the first hit, so no file and
    # not even the directory is left behind
    assert not out.exists()


def test_gen_keeps_no_written_frame_alive_while_the_next_renders(tmp_path, monkeypatch):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(demo_scene(n_frames=4, resolution=(32, 32)).to_dict()))
    written = []  # weak references to every frame handed to save_frame
    save, render = tensorio.save_frame, synth._render

    def save_frame(out_dir, t, depth, attachments, pointmap, dynamic_mask):
        written.extend(weakref.ref(x) for x in (depth, depth.values, depth.valid, attachments,
                                                attachments.object_id, attachments.face_id,
                                                attachments.bary, pointmap, pointmap.points,
                                                dynamic_mask))
        save(out_dir, t, depth, attachments, pointmap, dynamic_mask)

    renders = []

    def checked_render(spec, frame):
        renders.append(frame)
        assert all(ref() is None for ref in written), f"a written frame is alive at {frame}"
        return render(spec, frame)

    monkeypatch.setattr(tensorio, "save_frame", save_frame)
    monkeypatch.setattr(synth, "_render", checked_render)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen", "--spec", str(scene), "--out", str(tmp_path / "data")]) == 0
    assert renders == [0, 1, 2, 3]
    assert len(written) == 10 * 4


def test_aggregate_oracle_keeps_one_warped_map_and_writes_a_float32_cloud(
        dataset_dir, tmp_path, monkeypatch):
    dataset = load_dataset(dataset_dir)
    expected = complete_cloud(oracle_aggregate(dataset, i, 3) for i in range(8))
    del dataset

    warped = []  # weak references to every map oracle_aggregate returned
    aggregate, write_ply = synth.oracle_aggregate, tensorio.write_ply

    def checked_aggregate(dataset, i, a):
        alive = sum(ref() is not None for ref in warped)
        assert alive == 0, f"{alive} earlier map(s) alive while warping frame {i} to {a}"
        pm = aggregate(dataset, i, a)
        warped.extend((weakref.ref(pm), weakref.ref(pm.points)))
        return pm

    clouds = []

    def kept_write_ply(path, cloud, normals=None):
        clouds.append(cloud.copy())
        write_ply(path, cloud, normals)

    monkeypatch.setattr(synth, "oracle_aggregate", checked_aggregate)
    monkeypatch.setattr(tensorio, "write_ply", kept_write_ply)
    argv = ["aggregate-oracle", "--data", str(dataset_dir), "--target", "3",
            "--out", str(tmp_path / "agg"), "--tracks-out", str(tmp_path / "tracks.csv")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    # 8 warps for the cloud and 8 for the tracks
    assert len(warped) == 2 * 16
    (cloud,) = clouds
    assert cloud.dtype == np.float32 and cloud.shape == expected.shape
    assert cloud.tobytes() == expected.astype(np.float32).tobytes()


def test_complete_cloud_fills_out_in_place(demo_dataset):
    n = demo_dataset.n_frames
    expected = complete_cloud(oracle_aggregate(demo_dataset, i, 2) for i in range(n))
    for dtype in (np.float64, np.float32):
        out = np.full((len(expected), 3), np.nan, dtype=dtype)
        got = complete_cloud((oracle_aggregate(demo_dataset, i, 2) for i in range(n)), out=out)
        assert got is out
        assert out.tobytes() == expected.astype(dtype).tobytes()


@pytest.mark.parametrize("rows", [-1, 1])
def test_complete_cloud_wrong_length_out_raises(demo_dataset, rows):
    maps = [oracle_aggregate(demo_dataset, i, 2) for i in range(demo_dataset.n_frames)]
    n = sum(int(m.valid.sum()) for m in maps)
    with pytest.raises(ValueError):
        complete_cloud(maps, out=np.empty((n + rows, 3)))

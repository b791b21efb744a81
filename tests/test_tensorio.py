"""File formats: tensor container, PLY, trajectory CSV, dataset round-trips."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import demo_scene
from scene4d.errors import (BadMagic, InputError, MalformedHeader,
                            TruncatedPayload, UnsupportedVersion)
from scene4d.rng import SplitMix64
from scene4d.synth import TrajectorySet, generate
from scene4d.tensorio import (load_dataset, read_cameras, read_ply,
                              read_tensor, read_trajectories, save_dataset,
                              write_cameras, write_ply, write_tensor,
                              write_trajectories)


# ---------------------------------------------------------------------------
# tensor container

@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8])
def test_tensor_roundtrip_bitwise(tmp_path, dtype):
    rng = SplitMix64(1)
    arr = (rng.uniform_array(24).reshape(2, 3, 4) * 100).astype(dtype)
    path = tmp_path / "t.ct4"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == np.dtype(dtype).newbyteorder("=")
    assert arr.tobytes() == back.tobytes()
    assert arr.shape == back.shape


def test_tensor_header_byte_budget(tmp_path):
    # 4 magic + 1 version + 1 dtype + 4 ndim + 2*8 dims + 6*4 payload = 50
    path = tmp_path / "t.ct4"
    write_tensor(path, np.zeros((2, 3), dtype=np.float32))
    assert path.stat().st_size == 50


def test_tensor_bad_magic(tmp_path):
    path = tmp_path / "t.ct4"
    write_tensor(path, np.zeros((2, 2), dtype=np.float64))
    data = bytearray(path.read_bytes())
    data[0] = ord("X")
    path.write_bytes(bytes(data))
    with pytest.raises(BadMagic):
        read_tensor(path)


def test_tensor_unsupported_version(tmp_path):
    path = tmp_path / "t.ct4"
    write_tensor(path, np.zeros((2, 2), dtype=np.float64))
    data = bytearray(path.read_bytes())
    data[4] = 9
    path.write_bytes(bytes(data))
    with pytest.raises(UnsupportedVersion):
        read_tensor(path)


def test_tensor_truncated_payload(tmp_path):
    path = tmp_path / "t.ct4"
    write_tensor(path, np.zeros((4, 4), dtype=np.float64))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(TruncatedPayload):
        read_tensor(path)


def test_tensor_overflowing_dims_are_truncated_payload(tmp_path):
    # 2^40 x 2^40 elements: a fixed-width product of the dims wraps to 0,
    # which would match the empty payload
    path = tmp_path / "t.ct4"
    path.write_bytes(b"C4RT" + struct.pack("<BBI2Q", 1, 1, 2, 2**40, 2**40))
    with pytest.raises(TruncatedPayload):
        read_tensor(path)


def test_tensor_rejects_zero_dim(tmp_path):
    with pytest.raises(ValueError):
        write_tensor(tmp_path / "t.ct4", np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# PLY

def test_ply_roundtrip(tmp_path):
    cloud = np.array([[0.5, -1.25, 3.0], [1e-3, 2.0, -7.5], [0.0, 0.0, 0.0]])
    path = tmp_path / "c.ply"
    write_ply(path, cloud)
    pts, normals = read_ply(path)
    assert normals is None
    assert np.max(np.abs(pts - cloud)) < 1e-6


def test_ply_normals_preserved(tmp_path):
    cloud = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    nrm = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    path = tmp_path / "c.ply"
    write_ply(path, cloud, nrm)
    pts, normals = read_ply(path)
    assert np.max(np.abs(normals - nrm)) < 1e-6


def test_ply_header_count_matches_rows(tmp_path):
    cloud = np.zeros((5, 3))
    path = tmp_path / "c.ply"
    write_ply(path, cloud)
    text = path.read_text().splitlines()
    assert "element vertex 5" in text
    assert len(text) == text.index("end_header") + 1 + 5


def test_ply_malformed_header(tmp_path):
    path = tmp_path / "c.ply"
    path.write_text("not a ply\n")
    with pytest.raises(MalformedHeader):
        read_ply(path)
    path.write_text("ply\nformat ascii 1.0\nelement vertex 3\n"
                    "property float x\nproperty float y\nproperty float z\n"
                    "end_header\n0 0 0\n")  # promises 3, delivers 1
    with pytest.raises(MalformedHeader):
        read_ply(path)


# ---------------------------------------------------------------------------
# trajectories

def test_trajectory_csv_roundtrip(tmp_path):
    rng = SplitMix64(5)
    pos = rng.uniform_array(5 * 4 * 3).reshape(5, 4, 3) * 10 - 5
    vis = rng.uniform_array(20).reshape(5, 4) > 0.3
    dyn = rng.uniform_array(5) > 0.5
    traj = TrajectorySet(positions=pos, visible=vis, dynamic=dyn)
    path = tmp_path / "t.csv"
    write_trajectories(path, traj)
    back = read_trajectories(path)
    assert np.array_equal(back.positions, pos)  # repr round-trip is exact
    assert np.array_equal(back.visible, vis)
    assert np.array_equal(back.dynamic, dyn)


def test_trajectory_csv_header_checked(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(InputError):
        read_trajectories(path)


def test_trajectory_csv_incomplete_grid(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("track_id,frame,x,y,z,visible,dynamic\n"
                    "0,0,0.0,0.0,0.0,1,0\n"
                    "1,1,0.0,0.0,0.0,1,0\n")
    with pytest.raises(InputError):
        read_trajectories(path)


# ---------------------------------------------------------------------------
# cameras and datasets

def test_cameras_roundtrip(tmp_path):
    from conftest import random_camera
    rng = SplitMix64(9)
    cams = [random_camera(rng) for _ in range(4)]
    path = tmp_path / "cameras.json"
    write_cameras(path, cams)
    back = read_cameras(path)
    for a, b in zip(cams, back):
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(a.t, b.t)
        assert a.fov == b.fov


def test_dataset_roundtrip(tmp_path):
    ds = generate(demo_scene(n_frames=3, resolution=(24, 24), seed=77, n_queries=40))
    save_dataset(ds, tmp_path / "d")
    back = load_dataset(tmp_path / "d")
    assert back.n_frames == 3
    for t in range(3):
        assert np.array_equal(back.depths[t].values[back.depths[t].valid],
                              ds.depths[t].values[ds.depths[t].valid])
        assert np.array_equal(back.depths[t].valid, ds.depths[t].valid)
        assert np.array_equal(back.pointmaps[t].points, ds.pointmaps[t].points)
        assert np.array_equal(back.attachments[t].object_id, ds.attachments[t].object_id)
        assert np.array_equal(back.attachments[t].bary, ds.attachments[t].bary)
        assert np.array_equal(back.dynamic_mask[t], ds.dynamic_mask[t])
    assert np.array_equal(back.trajectories.positions, ds.trajectories.positions)
    assert back.spec is not None
    assert back.spec.n_frames == 3


def test_dataset_serialization_deterministic(tmp_path):
    spec = demo_scene(n_frames=2, resolution=(16, 16), seed=5, n_queries=20)
    save_dataset(generate(spec), tmp_path / "a")
    save_dataset(generate(demo_scene(n_frames=2, resolution=(16, 16), seed=5,
                                     n_queries=20)), tmp_path / "b")
    for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_oracle_from_reloaded_dataset(tmp_path):
    from scene4d.synth import oracle_aggregate
    ds = generate(demo_scene(n_frames=3, resolution=(24, 24), seed=42, n_queries=20))
    save_dataset(ds, tmp_path / "d")
    back = load_dataset(tmp_path / "d")
    a = oracle_aggregate(ds, 0, 2)
    b = oracle_aggregate(back, 0, 2)
    assert np.max(np.abs(a.points[a.valid] - b.points[b.valid])) < 1e-12


# ---------------------------------------------------------------------------
# reader validation: every input parses or raises the reader's typed error

_GOLDEN_PLY = ("ply\nformat ascii 1.0\ncomment fixed golden file\nelement vertex 4\n"
               "property float x\nproperty float y\nproperty float z\n"
               "property float nx\nproperty float ny\nproperty float nz\nend_header\n"
               "0.1 -0.0 5e-324 1 0 0\n"
               "1.7976931348623157e+308 -2.2250738585072014e-308 0.30000000000000004 0 1 0\n"
               "  123456789.123456789\t-1e-7 +3.5 0 0 1\n"
               "-0.5 2 3.0000000000000004 0.6 0.8 0\n"
               "9 9 9 9 9 9\n")  # past the promised rows: ignored


def test_ply_golden_read_bitwise(tmp_path):
    path = tmp_path / "g.ply"
    path.write_text(_GOLDEN_PLY)
    pts, normals = read_ply(path)
    want_pts = np.array([[0.1, -0.0, 5e-324],
                         [1.7976931348623157e+308, -2.2250738585072014e-308,
                          0.30000000000000004],
                         [123456789.123456789, -1e-7, 3.5],
                         [-0.5, 2.0, 3.0000000000000004]])
    want_nrm = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [0.6, 0.8, 0]])
    assert pts.dtype == normals.dtype == np.float64
    assert pts.tobytes() == want_pts.tobytes()
    assert normals.tobytes() == want_nrm.tobytes()


@pytest.mark.parametrize("header, body", [
    ("element vertex abc\n", "0 0 0\n"),
    ("element vertex -1\n", "0 0 0\n"),
    ("element vertex\n", "0 0 0\n"),
    ("element\n", "0 0 0\n"),
    ("element vertex 1\nproperty float\n", "0 0 0\n"),
    ("element vertex 1\nproperty\n", "0 0 0\n"),
    ("element vertex 2\n", "0 0 0\n1 1\n"),             # ragged
    ("element vertex 2\n", "0 0 0\n1 1 1 1\n"),         # ragged
    ("element vertex 2\n", "0 0 0 0\n1 1 1 1\n"),       # more values than properties
    ("element vertex 2\n", "0 0 0\n1 x 1\n"),           # non-numeric
    ("element vertex 1\n", "# 0 0 0\n"),
    ("element vertex 1\n", ""),
])
def test_ply_malformed_rows_and_header_lines(tmp_path, header, body):
    path = tmp_path / "bad.ply"
    props = "" if "property" in header else \
        "property float x\nproperty float y\nproperty float z\n"
    path.write_text(f"ply\nformat ascii 1.0\n{header}{props}end_header\n{body}")
    with pytest.raises(MalformedHeader):
        read_ply(path)


def test_ply_undecodable_bytes(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_bytes(b"ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
                     b"property float y\nproperty float z\nend_header\n\xff\xfe 0 0\n")
    with pytest.raises(MalformedHeader):
        read_ply(path)


def test_ply_empty_cloud(tmp_path):
    path = tmp_path / "e.ply"
    write_ply(path, np.zeros((0, 3)))
    pts, normals = read_ply(path)
    assert pts.shape == (0, 3) and normals is None


_PLY_LINES = st.sampled_from([
    "ply", "format ascii 1.0", "format binary_little_endian 1.0", "comment x",
    "element vertex 0", "element vertex 2", "element vertex 3", "element vertex abc",
    "element face 1", "element", "property float x", "property float y",
    "property float z", "property float nx", "property", "property float",
    "end_header", "", "0 0 0", "1.5 -2 3e2", "1 2", "1 2 3 4", "nan inf -inf",
    "x y z", "1e999 0 0", "0x10 0 0", "1_0 0 0",
])


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(_PLY_LINES, max_size=14).map(lambda ls: "\n".join(ls) + "\n"),
    st.lists(_PLY_LINES, max_size=10).map(
        lambda ls: "ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
                   "property float y\nproperty float z\nend_header\n" + "\n".join(ls)),
    st.text(max_size=200)))
def test_fuzz_read_ply_parses_or_raises_typed_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("ply") / "f.ply"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    try:
        pts, normals = read_ply(path)
    except MalformedHeader:
        return
    assert pts.dtype == np.float64 and pts.ndim == 2 and pts.shape[1] == 3
    assert normals is None or normals.shape == pts.shape


def _csv(rows):
    return "track_id,frame,x,y,z,visible,dynamic\n" + "".join(r + "\n" for r in rows)


@pytest.mark.parametrize("rows", [
    ["0,0,0,0,0,1,0", "0,0,0,0,0,1,0", "1,1,0,0,0,1,0", "1,1,0,0,0,1,0"],  # duplicates
    ["0,0,0,0,0,1,0", "0,-1,0,0,0,1,0"],                                      # negative frame
    ["-1,0,0,0,0,1,0", "0,0,0,0,0,1,0"],                                      # negative track
    ["0,0,0,0,0,1,0", "0,1,0,0,0,1"],                                         # short row
    ["0,0,0,0,0,1,0,7"],                                                      # long row
    ["0,0,a,0,0,1,0"],                                                        # non-numeric
    ["0.5,0,0,0,0,1,0"],
    ["0,0,0,0,0,1,0", "0,1,0,0,0,1,1"],                                       # dynamic differs
])
def test_trajectory_csv_rejects_bad_rows(tmp_path, rows):
    path = tmp_path / "t.csv"
    path.write_text(_csv(rows))
    with pytest.raises(InputError):
        read_trajectories(path)


def test_trajectory_csv_empty_file_and_any_row_order(tmp_path):
    path = tmp_path / "t.csv"
    for data in (b"", _csv(["0,0,0,0,0,1,0"]).encode() + b"\xff\xfe,0\n"):
        path.write_bytes(data)
        with pytest.raises(InputError):
            read_trajectories(path)
    path.write_text(_csv(["1,1,7.5,8,9,0,1", "0,1,4,5,6,1,0", "1,0,1,2,3,1,1",
                          "0,0,-1,-2,-3,0,0"]))
    back = read_trajectories(path)
    assert np.array_equal(back.positions, [[[-1, -2, -3], [4, 5, 6]],
                                           [[1, 2, 3], [7.5, 8, 9]]])
    assert np.array_equal(back.visible, [[False, True], [True, False]])
    assert np.array_equal(back.dynamic, [False, True])


_CSV_FIELDS = st.sampled_from(["0", "1", "2", "-1", "0.5", "x", "", "1e3", "nan",
                               "99999999999999999999"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_CSV_FIELDS, min_size=5, max_size=8), max_size=8))
def test_fuzz_read_trajectories_parses_or_raises_input_error(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_text(_csv(",".join(r) for r in rows))
    try:
        traj = read_trajectories(path)
    except InputError:
        return
    m, n = traj.visible.shape
    assert traj.positions.shape == (m, n, 3) and traj.dynamic.shape == (m,)
    assert m * n == len(rows)

"""File formats: tensor container, PLY, trajectory CSV, dataset round-trips."""

import hashlib
import json
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import JSON_CAMERAS, JSON_VALUES, demo_scene
from scene4d.errors import (BadMagic, InputError, MalformedHeader,
                            TruncatedPayload, UnsupportedVersion)
from scene4d import tensorio
from scene4d.rng import SplitMix64
from scene4d.synth import TrajectorySet, generate
from scene4d.tensorio import (load_dataset, open_dataset, read_cameras, read_channel,
                              read_ply, read_tensor, read_trajectories, save_dataset,
                              write_cameras, write_channels, write_ply, write_tensor,
                              write_tensor_blocks, write_trajectories)


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


@pytest.mark.parametrize("rows", [1, 3, 7])
@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8])
def test_tensor_blocks_write_the_bytes_of_write_tensor(tmp_path, dtype, rows):
    # 7 rows in blocks of 1, 3 (the last block short) or all 7
    arr = (SplitMix64(2).uniform_array(7 * 5 * 2).reshape(7, 5, 2) * 100).astype(dtype)
    write_tensor(tmp_path / "whole.ct4", arr)
    write_tensor_blocks(tmp_path / "blocks.ct4", arr.shape, dtype,
                        (arr[r:r + rows] for r in range(0, 7, rows)))
    assert (tmp_path / "blocks.ct4").read_bytes() == (tmp_path / "whole.ct4").read_bytes()


@pytest.mark.parametrize("blocks", [[np.zeros((2, 3))], [np.zeros((4, 3)), np.zeros((1, 3))],
                                    [np.zeros((4, 2))]], ids=["short", "long", "ragged"])
def test_tensor_blocks_that_do_not_fill_the_shape_raise(tmp_path, blocks):
    with pytest.raises(ValueError):
        write_tensor_blocks(tmp_path / "t.ct4", (4, 3), np.float64, blocks)


@pytest.mark.parametrize("block_pixels", [5, 16, 1000])
def test_write_channels_packs_like_concatenate(tmp_path, monkeypatch, block_pixels):
    # blocks of 1 row (5 pixels is under one 8-wide row), 2 rows (not dividing 7) and all
    monkeypatch.setattr(tensorio, "_BLOCK_PIXELS", block_pixels)
    rng = np.random.default_rng(3)
    ids = rng.integers(-2, 5, (7, 8))
    xyz = rng.normal(size=(7, 8, 3))
    write_channels(tmp_path / "packed.ct4", [ids, xyz, ids >= 0])
    expected = np.concatenate([ids[..., None], xyz, (ids >= 0)[..., None]], axis=2)
    write_tensor(tmp_path / "expected.ct4", expected.astype(np.float64))
    assert (tmp_path / "packed.ct4").read_bytes() == (tmp_path / "expected.ct4").read_bytes()


_CT4_DTYPES = st.sampled_from(["<f4", ">f4", "<f8", ">f8", "u1"])


@st.composite
def _ct4_arrays(draw):
    """f32/f64/u8 arrays of either byte order, 0-d to 3-d, some of them
    strided views (every other element, transposed or reversed)."""
    dtype = np.dtype(draw(_CT4_DTYPES))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=5))
    base = draw(hnp.arrays(dtype, tuple(2 * n for n in shape)))
    view = base[(*(slice(None, None, 2) for _ in shape), ...)]
    return draw(st.sampled_from([view, view.T, np.flip(view), base]))


def _bits(arr: np.ndarray) -> bytes:
    """Native-order bytes of the values, so NaN payloads and -0.0 count."""
    return np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("=")).tobytes()


@settings(max_examples=200, deadline=None)
@given(_ct4_arrays())
def test_tensor_roundtrip_bitwise_any_layout(tmp_path_factory, arr):
    path = tmp_path_factory.mktemp("ct4") / "t.ct4"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.shape == arr.shape
    assert back.dtype == arr.dtype.newbyteorder("<")
    assert back.flags.c_contiguous and back.flags.writeable
    assert _bits(back) == _bits(arr)
    assert path.stat().st_size == 10 + 8 * arr.ndim + arr.nbytes


@settings(max_examples=100, deadline=None)
@given(_ct4_arrays(), st.integers(-64, 64).filter(bool))
def test_tensor_short_or_long_payload_is_truncated(tmp_path_factory, arr, delta):
    path = tmp_path_factory.mktemp("ct4") / "t.ct4"
    write_tensor(path, arr)
    data = path.read_bytes()
    header = 10 + 8 * arr.ndim
    data = data[:max(header, len(data) + delta)] if delta < 0 else data + b"\x00" * delta
    path.write_bytes(data)
    with pytest.raises(TruncatedPayload):
        read_tensor(path)


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8])
def test_read_tensor_into_out(tmp_path, dtype):
    arr = (SplitMix64(8).uniform_array(12).reshape(3, 4) * 100).astype(dtype)
    path = tmp_path / "t.ct4"
    write_tensor(path, arr)
    stack = np.zeros((2, 3, 4))               # into a float64 slot of a stack
    slot = stack[1]
    assert read_tensor(path, out=slot) is slot
    assert np.array_equal(slot, arr.astype(np.float64)) and not stack[0].any()
    same = np.empty_like(arr)
    assert read_tensor(path, out=same) is same and _bits(same) == _bits(arr)
    strided = np.zeros((3, 8), dtype=dtype)[:, ::2]
    assert _bits(read_tensor(path, out=strided)) == _bits(arr)
    with pytest.raises(ValueError):
        read_tensor(path, out=np.empty((4, 3), dtype=dtype))


@pytest.mark.parametrize("block_pixels", [5, 16, 1000])
def test_read_channel_equals_slicing_the_whole_tensor(tmp_path, monkeypatch, block_pixels):
    # blocks of 1 row, 2 rows (not dividing 7) and all, as the writer's test
    monkeypatch.setattr(tensorio, "_BLOCK_PIXELS", block_pixels)
    arr = SplitMix64(4).normal_array(7 * 8 * 5).reshape(7, 8, 5)
    write_tensor(tmp_path / "t.ct4", arr)
    for c in range(5):
        got = read_channel(tmp_path / "t.ct4", c)
        assert got.flags.c_contiguous and _bits(got) == _bits(arr[..., c])
    write_tensor(tmp_path / "flat.ct4", arr[..., 0])
    for path, c in ((tmp_path / "t.ct4", 5), (tmp_path / "t.ct4", -1), (tmp_path / "flat.ct4", 0)):
        with pytest.raises(ValueError):
            read_channel(path, c)


def test_load_depth_stack_equals_stacked_depth_maps(tmp_path):
    rng = SplitMix64(9)
    for t in range(3):
        vals = rng.uniform_array(20).reshape(4, 5) - 0.3   # some invalid pixels
        write_tensor(tmp_path / f"depth_{t:04d}.ct4",
                     np.where(vals > 0, vals, 0.0).astype(np.float32 if t == 1 else np.float64))
    stack = tensorio.load_depth_stack(tmp_path)
    maps = tensorio.load_depth_dir(tmp_path)
    assert stack.dtype == np.float64 and stack.shape == (3, 4, 5)
    assert _bits(stack) == _bits(np.stack([d.values for d in maps]))
    assert np.array_equal(stack > 0, np.stack([d.valid for d in maps]))


@pytest.mark.parametrize("bad", ["shape", "inf", "ndim"])
def test_load_depth_stack_rejects_what_depth_maps_reject(tmp_path, bad):
    write_tensor(tmp_path / "depth_0000.ct4", np.ones((4, 5)))
    write_tensor(tmp_path / "depth_0001.ct4", {"shape": np.ones((5, 4)),
                                               "inf": np.full((4, 5), np.inf),
                                               "ndim": np.ones((4, 5, 1))}[bad])
    # a frame of another shape than the first, or with an infinite depth, is
    # an unusable input file
    with pytest.raises(InputError):
        tensorio.load_depth_stack(tmp_path)


@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_tensor_huge_dims_allocate_nothing(tmp_path, ndim):
    # every dim 2^40: the size check must fail before any array is made
    path = tmp_path / "t.ct4"
    path.write_bytes(b"C4RT" + struct.pack(f"<BBI{ndim}Q", 1, 1, ndim, *[2**40] * ndim)
                     + bytes(64))
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedPayload):
            read_tensor(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


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


def test_open_dataset_reads_each_frame_when_indexed(tmp_path):
    ds = generate(demo_scene(n_frames=3, resolution=(16, 16), n_queries=20))
    save_dataset(ds, tmp_path / "d")
    full, lazy = load_dataset(tmp_path / "d"), open_dataset(tmp_path / "d")
    assert len(lazy.pointmaps) == len(lazy.attachments) == 3 and lazy.dynamic_mask is None
    for t in (0, 2, 2, -3, 1):
        assert np.array_equal(lazy.pointmaps[t].points, full.pointmaps[t].points)
        assert np.array_equal(lazy.pointmaps[t].valid, full.pointmaps[t].valid)
        assert np.array_equal(lazy.attachments[t].object_id, full.attachments[t].object_id)
    assert lazy.pointmaps[1] is lazy.pointmaps[1]  # the last frame read is kept
    with pytest.raises(IndexError):
        lazy.pointmaps[3]
    assert lazy.spec.to_dict() == full.spec.to_dict()
    assert np.array_equal(lazy.trajectories.positions, full.trajectories.positions)
    assert [c.fov for c in lazy.cameras] == [c.fov for c in full.cameras]
    assert all(np.array_equal(a.values, b.values) for a, b in zip(lazy.depths, full.depths))


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


_PLY_HEAD = ("ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\n"
             "property float y\nproperty float z\nend_header\n")


@pytest.mark.parametrize("body", [
    "\n0 0 0\n1 1 1\n2 2 2\n",            # before the first row
    "0 0 0\n\n1 1 1\n2 2 2\n",            # between rows
    "0 0 0\n1 1 1\n \t \n2 2 2\n",        # whitespace only
    "0 0 0\r\n\r\n1 1 1\r\n2 2 2\r\n",    # CRLF
    "0 0 0\n1 1 1\n\n",                  # short body ending in a blank line
])
def test_ply_blank_line_among_vertex_rows_is_malformed(tmp_path, body):
    path = tmp_path / "b.ply"
    path.write_text(_PLY_HEAD + body)
    with pytest.raises(MalformedHeader, match="blank line among the 3 vertex rows"):
        read_ply(path)


@pytest.mark.parametrize("body", [
    "0 0 0\n1 1 1\n2 2 2",                # no final newline
    "0 0 0\n1 1 1\n2 2 2\n",
    "0 0 0\n1 1 1\n2 2 2\n\n\n",          # blank lines past the vertex rows
    "0 0 0\n1 1 1\n2 2 2\n\n9 9\n",       # anything past the vertex rows
])
def test_ply_final_newline_and_rows_past_n_vertex_still_read(tmp_path, body):
    path = tmp_path / "ok.ply"
    path.write_text(_PLY_HEAD + body)
    pts, normals = read_ply(path)
    assert np.array_equal(pts, [[0, 0, 0], [1, 1, 1], [2, 2, 2]]) and normals is None


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


def _first_value(line: bytes, text: bytes) -> bytes:
    return b" ".join([text] + line.split(b" ")[1:])


# body mutations: (lines, i) -> lines, the list of the body's lines (each
# with its line end) spoiled at line i
_PLY_MUTATIONS = {
    "tab": lambda ls, i: ls[:i] + [ls[i].replace(b" ", b"\t", 1)] + ls[i + 1:],
    "double-space": lambda ls, i: ls[:i] + [ls[i].replace(b" ", b"  ", 1)] + ls[i + 1:],
    "leading-space": lambda ls, i: ls[:i] + [b" " + ls[i]] + ls[i + 1:],
    "trailing-space": lambda ls, i: ls[:i] + [ls[i][:-1] + b" \n"] + ls[i + 1:],
    "crlf": lambda ls, i: [ln[:-1] + b"\r\n" for ln in ls],
    "blank-line": lambda ls, i: ls[:i] + [b"\n"] + ls[i:],
    "plus": lambda ls, i: ls[:i] + [b"+" + ls[i]] + ls[i + 1:],
    "no-leading-digit": lambda ls, i: ls[:i] + [_first_value(ls[i], b".5")] + ls[i + 1:],
    "no-trailing-digit": lambda ls, i: ls[:i] + [_first_value(ls[i], b"5.")] + ls[i + 1:],
    "nan": lambda ls, i: ls[:i] + [_first_value(ls[i], b"nan")] + ls[i + 1:],
    "bare-exponent": lambda ls, i: ls[:i] + [_first_value(ls[i], b"1e")] + ls[i + 1:],
    "two-points": lambda ls, i: ls[:i] + [_first_value(ls[i], b"1.2.3")] + ls[i + 1:],
    "stray-byte": lambda ls, i: ls[:i] + [ls[i][:1] + b"\xff" + ls[i][1:]] + ls[i + 1:],
    "stray-letter": lambda ls, i: ls[:i] + [ls[i][:1] + b"x" + ls[i][1:]] + ls[i + 1:],
    "ragged": lambda ls, i: ls[:i] + [ls[i].rsplit(b" ", 1)[0] + b"\n"] + ls[i + 1:],
    "short-body": lambda ls, i: ls[:i],
    "no-final-line-end": lambda ls, i: ls[:-1] + [ls[-1][:-1]],
    "rows-past-n_vertex": lambda ls, i: ls + [b"9 9\n", b"\n", b"nan\tx\r\n"],
}


_HEADER_SPOILS = {
    "header-crlf": lambda head: head.replace(b"\n", b"\r\n"),
    "header-non-ascii": lambda head: head.replace(
        b"format ascii 1.0\n", "format ascii 1.0\ncomment \u00e9\n".encode()),
}


@st.composite
def _ply_row_cases(draw):
    """(cloud, normals or None, line to spoil, kept rows, block size): a
    `write_ply` cloud of random float32 rows (normal values, -0.0, and bit
    patterns written in exponent form)."""
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rows = _bit_pattern_floats(seed, (n, 6), np.float32)
    rows[~np.isfinite(rows)] = -0.0
    rows[::2] = np.random.default_rng(seed).normal(0, 3, size=rows[::2].shape)
    rows[draw(st.integers(0, n - 1)), draw(st.integers(0, 5))] = -0.0
    normals = rows[:, 3:] if draw(st.booleans()) else None
    keep = draw(st.lists(st.integers(0, n - 1), unique=True).map(sorted))
    block = draw(st.sampled_from([7, 64, tensorio._PLY_BLOCK]))
    return rows[:, :3], normals, draw(st.integers(0, n - 1)), keep, block


@pytest.mark.parametrize("spoil", [None, *_HEADER_SPOILS, *_PLY_MUTATIONS])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=_ply_row_cases())
def test_read_ply_rows_is_the_full_read_indexed(tmp_path_factory, spoil, case):
    # read_ply(p, rows) returns the full read's rows, bitwise, or raises
    # the same MalformedHeader; only a file off the canonical subset is
    # read in full
    cloud, normals, at, keep, block = case
    path = tmp_path_factory.mktemp("ply") / "r.ply"
    write_ply(path, cloud, normals)
    head, body = path.read_bytes().split(b"end_header\n")
    lines = body.splitlines(keepends=True)
    if spoil in _HEADER_SPOILS:
        head = _HEADER_SPOILS[spoil](head)
    elif spoil is not None:
        lines = _PLY_MUTATIONS[spoil](lines, at)
    path.write_bytes(head + b"end_header\n" + b"".join(lines))

    def errors(read):
        try:
            return read(), None
        except MalformedHeader as e:
            return None, str(e)
    full, full_error = errors(lambda: read_ply(path))
    asked = []
    with mock.patch.object(tensorio, "_PLY_BLOCK", block), \
            mock.patch.object(tensorio, "_read_rows", wraps=tensorio._read_rows) as slow:
        part, part_error = errors(lambda: read_ply(path, lambda n: asked.append(n)
                                                   or np.array(keep, dtype=np.int64)))
    assert part_error == full_error
    if full is not None:
        assert part[0].tobytes() == full[0][keep].tobytes()
        assert (part[1] is None) == (full[1] is None)
        assert part[1] is None or part[1].tobytes() == full[1][keep].tobytes()
    # the text reader decodes ahead of the header, so a bad byte in the
    # first rows can fail the header before `rows` is asked
    assert asked == [len(cloud)] or asked == [] and full_error is not None
    if asked:
        assert slow.called == (spoil not in (None, "rows-past-n_vertex"))


@settings(max_examples=300, deadline=None)
@given(st.lists(JSON_CAMERAS, max_size=3).map(json.dumps) | JSON_VALUES.map(json.dumps)
       | st.text(max_size=40))
def test_fuzz_read_cameras_parses_or_raises_input_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("cameras") / "cameras.json"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    try:
        cams = read_cameras(path)
    except InputError:
        return
    for c in cams:
        assert np.all(np.isfinite(c.q)) and np.all(np.isfinite(c.t))
        assert all(0 < f < np.pi for f in c.fov)


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


@pytest.mark.parametrize("data", [
    "\n0,0,1,2,3,1,0\n",                         # before the first row
    "0,0,1,2,3,1,0\n\n0,1,1,2,3,1,0\n",           # between rows
    "0,0,1,2,3,1,0\r\n\r\n0,1,1,2,3,1,0\r\n",     # CRLF
    "0,0,1,2,3,1,0\n0,1,1,2,3,1,0\n\n",           # after the last row's line end
    "0,0,1,2,3,1,0\n \n0,1,1,2,3,1,0\n",          # whitespace only
    "\n",                                         # a blank body line and no rows
])
def test_trajectory_csv_blank_line_in_body_is_input_error(tmp_path, data):
    path = tmp_path / "t.csv"
    path.write_bytes(b"track_id,frame,x,y,z,visible,dynamic\r\n" + data.encode())
    with pytest.raises(InputError):
        read_trajectories(path)


def test_trajectory_csv_final_newline_optional(tmp_path):
    path = tmp_path / "t.csv"
    for end in ("", "\n", "\r\n"):
        path.write_text(_csv(["0,0,1,2,3,1,0"]) + "0,1,4,5,6,0,0" + end)
        back = read_trajectories(path)
        assert np.array_equal(back.positions, [[[1, 2, 3], [4, 5, 6]]])
        assert np.array_equal(back.visible, [[True, False]])


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


# ---------------------------------------------------------------------------
# writers: byte-identical to the value-by-value loops they replaced

def reference_write_ply(path, cloud, normals=None):
    """The value-by-value PLY writer, kept verbatim as the byte reference."""
    cloud = np.asarray(cloud, dtype=np.float32).reshape(-1, 3)
    cols = [cloud]
    props = ["x", "y", "z"]
    if normals is not None:
        normals = np.asarray(normals, dtype=np.float32).reshape(-1, 3)
        cols.append(normals)
        props += ["nx", "ny", "nz"]
    rows = np.concatenate(cols, axis=1)
    with open(path, "w") as f:
        f.write("ply\nformat ascii 1.0\n")
        f.write(f"element vertex {len(cloud)}\n")
        for p in props:
            f.write(f"property float {p}\n")
        f.write("end_header\n")
        for row in rows:
            f.write(" ".join(repr(float(v)) for v in row) + "\n")


def reference_write_trajectories(path, traj):
    """The row-by-row csv.writer trajectory writer, kept verbatim."""
    import csv
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["track_id", "frame", "x", "y", "z", "visible", "dynamic"])
        for m in range(traj.n_tracks):
            dyn = int(traj.dynamic[m])
            for t in range(traj.n_frames):
                p = traj.positions[m, t]
                wr.writerow([m, t, repr(float(p[0])), repr(float(p[1])),
                             repr(float(p[2])), int(traj.visible[m, t]), dyn])


def _bit_pattern_floats(seed, shape, dtype):
    """Uniformly random bit patterns of `dtype`: subnormals, -0.0, huge
    magnitudes and (for float64) nan and inf all turn up."""
    uint = np.uint32 if dtype == np.float32 else np.uint64
    bits = np.random.default_rng(seed).integers(0, np.iinfo(uint).max, size=shape,
                                                dtype=uint, endpoint=True)
    return bits.view(dtype)


_SPECIAL_F32 = np.array([-0.0, 0.0, 1e-45, -1e-45, 1.1754944e-38, 3.4028235e38,
                         -3.4028235e38, 0.1, 1 / 3, 16777217.0, 1e-7, 2.5], dtype=np.float32)


def test_write_ply_golden_bytes(tmp_path):
    # 2500 rows cross the writer's 1024-row blocks twice; the first rows are
    # the special values, the rest random finite float32 bit patterns.
    rows = _bit_pattern_floats(3, (2500, 6), np.float32)
    rows[~np.isfinite(rows)] = -0.0
    rows[:2] = _SPECIAL_F32.reshape(2, 6)
    path = tmp_path / "g.ply"
    write_ply(path, rows[:, :3], rows[:, 3:])
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == \
        "f8a0e1b24503c6aeb54a9bdfcb988e367d70930925d0d409a311d89cff85363e"
    body = data.split(b"end_header\n", 1)[1].split(b"\n")
    assert body[0] == b"-0.0 0.0 1.401298464324817e-45 -1.401298464324817e-45 " \
                      b"1.1754943508222875e-38 3.4028234663852886e+38"
    assert body[1] == b"-3.4028234663852886e+38 0.10000000149011612 " \
                      b"0.3333333432674408 16777216.0 1.0000000116860974e-07 2.5"
    reference_write_ply(tmp_path / "r.ply", rows[:, :3], rows[:, 3:])
    assert data == (tmp_path / "r.ply").read_bytes()


def test_write_trajectories_golden_bytes(tmp_path):
    # 400 tracks x 7 frames = 2800 rows: three writer blocks.
    pos = _bit_pattern_floats(4, (400, 7, 3), np.float64)
    pos[0, 0] = [-0.0, 5e-324, 1.7976931348623157e308]
    rng = np.random.default_rng(5)
    traj = TrajectorySet(positions=pos, visible=rng.random((400, 7)) < 0.5,
                         dynamic=rng.random(400) < 0.5)
    path = tmp_path / "t.csv"
    write_trajectories(path, traj)
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == \
        "b25cedd376ee50b210a970e381b822f8cd4dee171ffc0a428bdeaf3990220b1a"
    lines = data.split(b"\r\n")
    assert lines[0] == b"track_id,frame,x,y,z,visible,dynamic"
    assert lines[1].startswith(b"0,0,-0.0,5e-324,1.7976931348623157e+308,")
    reference_write_trajectories(tmp_path / "r.csv", traj)
    assert data == (tmp_path / "r.csv").read_bytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2100), st.booleans())
def test_write_ply_bytes_equal_reference(tmp_path_factory, seed, n, with_normals):
    rows = _bit_pattern_floats(seed, (n, 6), np.float32)
    rows[~np.isfinite(rows)] = -0.0
    normals = rows[:, 3:] if with_normals else None
    d = tmp_path_factory.mktemp("ply")
    write_ply(d / "a.ply", rows[:, :3], normals)
    reference_write_ply(d / "b.ply", rows[:, :3], normals)
    assert (d / "a.ply").read_bytes() == (d / "b.ply").read_bytes()


def _assert_ply_values_are_repr(path, values):
    """write_ply of `values`, three to a row (the last row wrapping round to
    the first values), writes each as `repr(float(v))`."""
    rows = np.resize(np.asarray(values, dtype=np.float32), (-(-len(values) // 3), 3))
    write_ply(path, rows)
    got = path.read_bytes().split(b"end_header\n", 1)[1]
    want = "".join(" ".join(map(repr, row)) + "\n" for row in rows.tolist()).encode()
    if got != want:  # name the first wrong row rather than diff megabytes
        i, g, w = next((i, g, w) for i, (g, w) in enumerate(zip(got.split(b"\n"),
                                                                  want.split(b"\n"))) if g != w)
        pytest.fail(f"row {i} {rows[i].tolist()}: wrote {g!r}, repr gives {w!r}")


def test_write_ply_sweep_of_float32_bit_patterns(tmp_path):
    # every 4099th bit pattern: about 1.05M finite values of every exponent
    values = np.arange(0, 2**32, 4099, dtype=np.uint64).astype(np.uint32).view(np.float32)
    _assert_ply_values_are_repr(tmp_path / "s.ply", values[np.isfinite(values)])


def test_write_ply_ulp_walks_round_powers_and_range_edges(tmp_path):
    # +-64 ulps round each power of ten and of two and the positional range's
    # edges 0.1 and 1e15, where the digit count, the interval or k changes
    centres = [10.0**i for i in range(-5, 17)] + [2.0**i for i in range(-20, 61)] + [0.1, 1e15]
    bits = np.array(centres, dtype=np.float32).view(np.uint32).astype(np.int64)
    walks = (bits[:, None] + np.arange(-64, 65)).astype(np.uint32).view(np.float32).ravel()
    _assert_ply_values_are_repr(tmp_path / "w.ply", np.concatenate([walks, -walks]))


def test_write_ply_formats_its_positional_range_without_repr(tmp_path, monkeypatch):
    fallen_back, repr_texts = [], tensorio._repr_texts

    def counting_repr_texts(values):
        fallen_back.extend(values.tolist())
        return repr_texts(values)
    monkeypatch.setattr(tensorio, "_repr_texts", counting_repr_texts)
    rng = np.random.default_rng(11)
    values = (10 ** rng.uniform(-1, 15, 30000) * rng.choice([-1, 1], 30000)).astype(np.float32)
    edges = np.array([0.1, 999999986991104.0, -0.1, -999999986991104.0], dtype=np.float32)
    values = np.concatenate([edges, values[(np.abs(values) >= 0.1) & (np.abs(values) < 1e15)]])
    _assert_ply_values_are_repr(tmp_path / "f.ply", values)
    assert fallen_back == []
    outside = np.array([0.0, -0.0, 1e-45, 0.099999994, 1000000054099968.0, -3e38],
                       dtype=np.float32)
    _assert_ply_values_are_repr(tmp_path / "o.ply", np.concatenate([outside, values[:3]]))
    assert sorted(fallen_back) == sorted(outside.tolist())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 300), st.integers(0, 9))
def test_write_trajectories_bytes_equal_reference(tmp_path_factory, seed, m, n):
    rng = np.random.default_rng(seed)
    traj = TrajectorySet(positions=_bit_pattern_floats(seed, (m, n, 3), np.float64),
                         visible=rng.random((m, n)) < 0.5, dynamic=rng.random(m) < 0.5)
    d = tmp_path_factory.mktemp("csv")
    write_trajectories(d / "a.csv", traj)
    reference_write_trajectories(d / "b.csv", traj)
    assert (d / "a.csv").read_bytes() == (d / "b.csv").read_bytes()

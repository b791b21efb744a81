"""Bit-exact file formats and the dataset directory layout.

Tensor container (.ct4): magic "C4RT", version u8 (=1), dtype u8
(0 = f32, 1 = f64, 2 = u8), ndim u32, dims as ndim u64, then the
little-endian row-major payload. Round-trips are bitwise.

Dataset directory layout (one sequence):

    depth_%04d.ct4        (H, W) f64, invalid pixels encoded as depth 0
    pointmap_%04d.ct4     (H, W, 3) f64, world points (0 where invalid)
    dynamic_mask_%04d.ct4 (H, W) u8
    attachments_%04d.ct4  (H, W, 5) f64 [object_id, face_id, b0, b1, b2];
                          object_id -1 = background, -2 = uncovered pixel
    cameras.json          [{"q": [w,x,y,z], "t": [x,y,z], "fov": [v,h]}, ...]
    trajectories.csv      track_id,frame,x,y,z,visible,dynamic (full grid)
    scene.json            normalized SceneSpec (motion ground truth)

Validity is carried by the depth files: a pixel is valid iff its stored
depth is > 0 (the renderer never emits a zero depth for a hit).

`save_frame` writes one frame's four files, so a generator can write each
frame as it renders it; `load_dataset` reads a whole directory and
`open_dataset` reads each frame's files only when that frame is indexed.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import math
import os
import struct
import warnings
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .errors import (BadMagic, InputError, MalformedHeader, TruncatedPayload,
                     UnsupportedVersion)
from .geometry import CameraParams, DepthMap, PointMap
from .synth import (FrameAttachments, SceneSpec, SequenceDataset,
                    TrajectorySet, _camera_from_dict, _camera_to_dict)

MAGIC = b"C4RT"
VERSION = 1
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("u1")}
_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1, np.dtype(np.uint8): 2}
_BLOCK_PIXELS = 16384  # pixels per row block of the packed frame files
_TEXT_ROWS = 1024  # rows per block of the trajectory text writer
_PLY_ROWS = 2048  # rows per block of the PLY writer


# ---------------------------------------------------------------------------
# tensor container

def write_tensor(path, arr: np.ndarray) -> None:
    """Write `arr` as .ct4. A big-endian or non-contiguous array is converted
    to the little-endian row-major payload; any other is written from its
    own buffer, without a copy."""
    arr = np.asarray(arr)
    write_tensor_blocks(path, arr.shape, arr.dtype, [arr])


def write_tensor_blocks(path, shape, dtype, blocks) -> None:
    """Write a .ct4 tensor of `shape` and `dtype` whose payload is the
    arrays of `blocks` in order, so the whole tensor need never exist.

    Each block is a run of whole rows (its shape after the first axis is
    the tensor's) and is converted to the payload's byte order and layout
    as it is written; `blocks` may be a generator that builds one block at
    a time. The file's bytes are those of `write_tensor` on the blocks
    concatenated. Blocks of the wrong shape, or fewer or more elements
    than `shape` holds, raise ValueError.
    """
    shape = tuple(int(n) for n in shape)
    code = _CODES.get(np.dtype(dtype).newbyteorder("="))
    if code is None:
        raise ValueError(f"unsupported tensor dtype {dtype} (use f32, f64 or u8)")
    size = math.prod(shape)
    if size == 0:
        raise ValueError("refusing to write a tensor with a zero dimension")
    written = 0
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<BBI", VERSION, code, len(shape)))
        f.write(struct.pack(f"<{len(shape)}Q", *shape))
        for block in blocks:
            block = np.asarray(block)
            if block.shape[1:] != shape[1:] or written + block.size > size:
                raise ValueError(f"block of shape {block.shape} does not continue "
                                 f"a tensor of shape {shape} at element {written}")
            f.write(np.ascontiguousarray(block, dtype=_DTYPES[code]))
            written += block.size
    if written != size:
        raise ValueError(f"blocks hold {written} elements, shape {shape} needs {size}")


def write_channels(path, arrays) -> None:
    """Write (H, W) and (H, W, k) arrays side by side as one (H, W, C)
    f64 .ct4, C the total of their channels, a (H, W) array taking one.

    The packed tensor is built and written one block of rows at a time
    (`_BLOCK_PIXELS` pixels at most), so only one block of it exists.
    """
    h, w = arrays[0].shape[:2]
    widths = [1 if a.ndim == 2 else a.shape[2] for a in arrays]
    step = max(1, _BLOCK_PIXELS // w)

    def blocks():
        for start in range(0, h, step):
            rows = slice(start, start + step)
            block = np.empty(arrays[0][rows].shape[:2] + (sum(widths),))
            c = 0
            for a, k in zip(arrays, widths):
                block[..., c:c + k] = a[rows].reshape(block.shape[:2] + (k,))
                c += k
            yield block
    write_tensor_blocks(path, (h, w, sum(widths)), np.float64, blocks())


def _read_header(f, path):
    """Check the .ct4 header at the start of the open file `f` against the
    file's size; -> (dims, dtype, payload bytes), with `f` at the payload."""
    size = os.fstat(f.fileno()).st_size
    head = f.read(10)
    if head[:4] != MAGIC:
        raise BadMagic(f"{path}: expected magic {MAGIC!r}")
    if len(head) < 10:
        raise TruncatedPayload(f"{path}: header truncated")
    version, code, ndim = struct.unpack_from("<BBI", head, 4)
    if version != VERSION:
        raise UnsupportedVersion(f"{path}: version {version}")
    if code not in _DTYPES:
        raise UnsupportedVersion(f"{path}: unknown dtype code {code}")
    header_end = 10 + 8 * ndim
    if size < header_end:
        raise TruncatedPayload(f"{path}: dims truncated")
    dims = struct.unpack(f"<{ndim}Q", f.read(8 * ndim))
    dtype = _DTYPES[code]
    expected = math.prod(dims) * dtype.itemsize  # Python ints: no overflow
    if size - header_end != expected:
        raise TruncatedPayload(f"{path}: payload {size - header_end} bytes, "
                               f"expected {expected}")
    return dims, dtype, expected


def read_tensor(path, out: np.ndarray | None = None) -> np.ndarray:
    """Read a .ct4 file into a fresh array, or into `out` and return it.

    The file size is checked against the header's dims before the array is
    allocated, and the payload is read straight into it, so no other
    payload-sized buffer exists and a header promising more bytes than the
    file holds allocates nothing. `out` must have the file's shape
    (ValueError otherwise); the payload is read straight into it when it is
    C-contiguous with the file's dtype, else converted into it.
    """
    with open(path, "rb") as f:
        dims, dtype, expected = _read_header(f, path)
        if out is not None and out.shape != dims:
            raise ValueError(f"{path}: shape {dims}, expected {out.shape}")
        direct = out is not None and out.dtype == dtype and out.flags.c_contiguous
        arr = out if direct else np.empty(dims, dtype=dtype)
        got = f.readinto(arr)
    if got != expected:  # the file shrank after the size check
        raise TruncatedPayload(f"{path}: payload {got} bytes, expected {expected}")
    if out is not None and not direct:
        out[...] = arr
        return out
    return arr


def read_channel(path, channel: int) -> np.ndarray:
    """Channel `channel` of an (H, W, C) .ct4 file as an (H, W) array, read
    _BLOCK_PIXELS pixels at a time so that no whole-file buffer exists; a
    file of another rank or without that channel raises ValueError."""
    with open(path, "rb") as f:
        dims, dtype, _ = _read_header(f, path)
        if len(dims) != 3 or not 0 <= channel < dims[2]:
            raise ValueError(f"{path}: shape {dims} has no channel {channel}")
        h, w, c = dims
        out = np.empty((h, w), dtype=dtype)
        step = max(1, _BLOCK_PIXELS // max(w, 1))
        for start in range(0, h, step):
            block = np.empty((min(step, h - start), w, c), dtype=dtype)
            if f.readinto(block) != block.nbytes:  # the file shrank after the size check
                raise TruncatedPayload(f"{path}: payload shorter than its header says")
            out[start:start + len(block)] = block[..., channel]
    return out


# ---------------------------------------------------------------------------
# PLY point clouds (ASCII, float32)

def write_ply(path, cloud: np.ndarray, normals: np.ndarray | None = None) -> None:
    """Write `cloud` (and `normals`) as float32 ASCII PLY, one row a line.

    A value's text is `repr(float(v))`: the shortest decimal that reads back
    to the double of v, the nearest to v among those. `_ply_rows` finds it
    exactly, in uint64 arithmetic, `_PLY_ROWS` rows at a time:

    - v = M 2^E (2^23 <= M < 2^24) widens to a double of significand M 2^29,
      so a decimal reads back to it iff it lies within 2^(E-30) of v (closed,
      as that significand is even). The narrower 2^(E-31) below a power of
      two never decides: the powers of two in range have at most 15 digits.
    - With k = floor(log10 |v|) and s = 16 - k, v 10^s = M 5^s 2^(E+s) is an
      exact uint64 ratio x / 2^right (5^17 < 2^40). The nearest P-digit
      decimal n_P = round-half-even(v 10^s / 10^(17-P)) and its distance from
      v follow exactly from x, and n_P fits iff that distance is at most
      5^s 2^(E+s-30) in the units of v 10^s: an integer compare.
    - n_P is the nearest P-digit decimal, so success is monotone in P and
      repr's digits are n_P at the least P that fits; 17 always fit. At 15
      digits the interval spans under 10^15 2^-52 < 0.23 units, so at most
      one 15-digit decimal fits: if n_15 does, repr is n_15 less its trailing
      zeros, else n_16 if it fits, else n_17.
    - repr writes the digits positionally for 0.1 <= |v| < 1e15 (k in
      [-1, 14]). Zero, subnormals and the other magnitudes, about 1 % of a
      bench cloud, go through `_repr_texts`.
    """
    cloud = np.asarray(cloud, dtype=np.float32).reshape(-1, 3)
    if not np.all(np.isfinite(cloud)):
        raise ValueError("cloud coordinates must be finite")
    rows = cloud
    props = ["x", "y", "z"]
    if normals is not None:
        normals = np.asarray(normals, dtype=np.float32).reshape(-1, 3)
        if len(normals) != len(cloud):
            raise ValueError("normals must match the cloud length")
        rows = np.concatenate([cloud, normals], axis=1)
        props += ["nx", "ny", "nz"]
    header = "ply\nformat ascii 1.0\n" f"element vertex {len(cloud)}\n" \
        + "".join(f"property float {p}\n" for p in props) + "end_header\n"
    with open(path, "wb") as f:
        f.write(header.encode())
        for start in range(0, len(rows), _PLY_ROWS):
            f.write(_ply_rows(rows[start:start + _PLY_ROWS]))


# The 40-byte text slot of one value in `_ply_rows`, five uint64 words: three
# unused bytes, then "-", "0" and "." (the sign and the "0." of 0.1 <= |v| < 1),
# then 17 digit columns each followed by a "." column, the last of which
# holds the separator. The words after the first hold four digits each.
_SLOT_WIDTH = 40
_SEP_COL = _SLOT_WIDTH - 1
_POW5 = 5 ** np.arange(18, dtype=np.uint64)
_POW10 = np.array([float(f"1e{k}") for k in range(-1, 16)])  # 10^k at [k + 1]


@functools.cache
def _slot_tables():
    """The read-only lookup tables of `_ply_rows`, built at the first PLY
    write, so that a process that writes none does not hold them:

    - head[d]: the first word of a slot whose leading digit is d;
    - quads[i]: the word "d.d.d.d." of the four digits of i, built without a
      temporary larger than itself;
    - keep[(sign 16 + decpt) 18 + length]: the kept columns of a slot, a "-"
      for a negative value, "0." when decpt = 0, `length` digits with a "."
      after the first decpt of them when decpt >= 1, and the separator;
    - text_keep[l]: a text of l bytes from column 3 on, and the separator.
    """
    head = np.frombuffer(b"".join(b"\0\0\0-0.%d." % d for d in range(10)), dtype=np.uint64)
    quads = np.full((10, 10, 10, 10, 8), ord("."), dtype=np.uint8)
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for col in range(4):
        quads[..., 2 * col] = digits.reshape((10,) + (1,) * (3 - col))
    keep = np.zeros((2, 16, 18, _SLOT_WIDTH), dtype=bool)
    sign, decpt, length = np.ix_(range(2), range(16), range(18))
    digit = np.arange(17)
    keep[..., 3] = sign == 1
    keep[..., 4] = keep[..., 5] = decpt == 0
    keep[..., 6::2] = digit < length[..., None]
    keep[..., 7::2] = digit == decpt[..., None] - 1
    keep[..., _SEP_COL] = True
    cols = np.arange(_SLOT_WIDTH)
    text_keep = (cols >= 3) & (cols < 3 + np.arange(_SEP_COL - 3)[:, None]) | (cols == _SEP_COL)
    tables = (head, quads.reshape(-1).view(np.uint64), keep.reshape(-1, _SLOT_WIDTH), text_keep)
    for table in tables:
        table.flags.writeable = False
    return tables


def _repr_texts(values: np.ndarray) -> list[bytes]:
    """`repr(float(v))` of each of `values`: the text of the values that
    `_ply_rows` does not write positionally itself."""
    return [repr(x).encode() for x in values.tolist()]


def _ply_rows(rows: np.ndarray) -> bytes:
    """The text lines of the float32 rows of `rows`: the values of a row are
    `repr(float(v))` joined by " " and each row ends in "\\n" (see
    `write_ply` for why the digits are exact)."""
    head, quads, keep_rows, text_keep = _slot_tables()
    v = rows.ravel()
    mag = np.abs(v).astype(np.float64)
    fast = (mag >= 0.1) & (mag < 1e15)
    mag[~fast] = 1.0
    bits = mag.astype(np.float32).view(np.uint32)
    m = ((bits & 0x7FFFFF) | 0x800000).astype(np.uint64)
    e = (bits >> 23).astype(np.int64) - 150
    # np.log10 may fall short at an exact power of ten; no float32 lies near
    # enough below one for it to reach the power instead
    k = np.floor(np.log10(mag)).astype(np.int64)
    k += mag >= _POW10.take(k + 2)

    # v 10^s = x / 2^right at s = 16 - k, the scale of 17 digits: q is its
    # floor and frac the rest, in units of 2^-right.
    s = 16 - k
    pow5 = _POW5.take(s)
    left = np.maximum(e + s, 0).astype(np.uint64)
    right = np.maximum(-(e + s), 0).astype(np.uint64)
    x = (m * pow5) << left
    q = x >> right
    frac = x - (q << right)
    unit = np.uint64(1) << right
    # the round-trip half-interval in the same units
    slack = (pow5 << left) >> np.uint64(30)

    def nearest(step):
        """(n_P, whether it fits) for P = 17 - log10(step) digits."""
        n = q // np.uint64(step)
        rest = (q - n * np.uint64(step)) * unit + frac
        span = unit * np.uint64(step)
        up = (2 * rest > span) | ((2 * rest == span) & (n & np.uint64(1) == 1))
        return n + up, np.where(up, span - rest, rest) <= slack

    n15, fit15 = nearest(100)
    n16, fit16 = nearest(10)
    n17, _ = nearest(1)
    digits = np.where(fit15, n15 * np.uint64(100), np.where(fit16, n16 * np.uint64(10), n17))

    hi, lo = np.divmod(digits, np.uint64(10**8))
    lead, hi = np.divmod(hi, np.uint64(10**8))
    words = np.empty((len(v), _SLOT_WIDTH // 8), dtype=np.uint64)
    words[:, 0] = head.take(lead)
    for col, group in ((1, hi), (3, lo)):
        upper, lower = np.divmod(group, np.uint64(10**4))
        words[:, col], words[:, col + 1] = quads.take(upper), quads.take(lower)
    slots = words.view(np.uint8)
    # the digits up to the last nonzero one, and those before the point
    length = 17 - np.argmax(slots[:, _SEP_COL - 1:5:-2] != ord("0"), axis=1)
    decpt = k + 1
    keep = keep_rows.take((np.signbit(v) * 16 + decpt) * 18 + np.maximum(length, decpt + 1),
                          axis=0)

    slots[:, _SEP_COL] = ord(" ")
    slots[rows.shape[1] - 1::rows.shape[1], _SEP_COL] = ord("\n")
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = _repr_texts(v[slow])
        padded = np.array(texts)
        slots[slow, 3:3 + padded.itemsize] = padded.view(np.uint8).reshape(len(slow), -1)
        keep[slow] = text_keep.take([len(t) for t in texts], axis=0)
    return np.compress(keep.ravel(), slots).tobytes()


def _read_rows(f, max_rows, blank_error, **loadtxt):
    """`np.loadtxt(..., comments=None, **loadtxt)` of the next lines of `f`,
    at most `max_rows` (all if None); raises `blank_error` at the first
    blank or whitespace-only line. An empty body gives an empty array."""
    def lines():
        for ln in itertools.islice(f, max_rows):
            if ln.isspace():
                raise blank_error
            yield ln
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an empty body only warns
        return np.loadtxt(lines(), comments=None, **loadtxt)


def _read_ply_header(f, path):
    """Parse the header lines of an open PLY file -> (n_vertex, props)."""
    if f.readline().strip() != "ply":
        raise MalformedHeader(f"{path}: not a PLY file")
    n_vertex = None
    props = []
    for ln in iter(f.readline, ""):
        parts = ln.split()
        if not parts:
            continue
        if parts[0] == "format":
            if parts[1:] != ["ascii", "1.0"]:
                raise MalformedHeader(f"{path}: only ascii 1.0 is supported")
        elif parts[0] == "element":
            if parts[1:2] != ["vertex"]:
                raise MalformedHeader(f"{path}: unexpected element {ln.strip()!r}")
            if len(parts) != 3 or not (parts[2].isascii() and parts[2].isdigit()):
                raise MalformedHeader(f"{path}: bad vertex count in {ln.strip()!r}")
            n_vertex = int(parts[2])
        elif parts[0] == "property":
            if len(parts) != 3:
                raise MalformedHeader(f"{path}: bad property line {ln.strip()!r}")
            props.append(parts[2])
        elif parts[0] == "end_header":
            if n_vertex is None:
                break
            if props[:3] != ["x", "y", "z"]:
                raise MalformedHeader(f"{path}: first properties must be x y z")
            return n_vertex, props
        elif parts[0] == "comment":
            continue
        else:
            raise MalformedHeader(f"{path}: unexpected header line {ln.strip()!r}")
    raise MalformedHeader(f"{path}: incomplete header")


_PLY_BLOCK = 1 << 17  # bytes per block of the kept-row PLY reader


def _canonical_line_ends(body: np.ndarray, n_props: int) -> np.ndarray | None:
    """The offsets just past each line of `body`, the bytes of whole lines,
    if every line is n_props values of the form -?D+(.D+)?([eE][+-]?D+)?
    joined by single spaces; else None.

    Each byte other than a digit or sign must follow a digit and be ".",
    "e", "E", " " or "\\n"; a "-" must follow a space, a line end (the
    first byte included) or an exponent, and a "+" an exponent. In the
    sequence of the bytes that are neither digits nor signs, a "." may then
    be followed only by an exponent or a separator and an exponent only by
    a separator, and the separators must be n_props - 1 spaces and a line
    end for every line.
    """
    digit = (body - ord("0")) < 10  # uint8 arithmetic: other bytes wrap past 9
    sign = (body == ord("-")) | (body == ord("+"))
    settled = digit | sign
    if not (settled[0] and (settled[1:] | digit[:-1]).all()):
        return None
    signs = np.flatnonzero(sign)
    before = body.take(signs - 1)  # a sign at 0 reads the last byte, a line end
    if not (((before | 0x20) == ord("e")) | (body.take(signs) == ord("-"))
            & ((before == ord(" ")) | (before == ord("\n")))).all():
        return None
    at = np.flatnonzero(~settled)
    marks = body.take(at)
    dot, exp = marks == ord("."), (marks | 0x20) == ord("e")
    sep = (marks == ord(" ")) | (marks == ord("\n"))
    if not (dot | exp | sep).all() \
            or ((dot[:-1] & ~(exp | sep)[1:]) | (exp[:-1] & ~sep[1:])).any():
        return None
    seps = marks[sep]
    row = np.full(n_props, ord(" "), dtype=np.uint8)
    row[-1] = ord("\n")
    if seps.size % n_props or not (seps.reshape(-1, n_props) == row).all():
        return None
    return at[marks == ord("\n")] + 1


def _kept_lines(raw, n_vertex: int, n_props: int, keep: np.ndarray) -> np.ndarray | None:
    """The bytes of the lines `keep` (ascending) of the first n_vertex
    lines read from the binary file `raw`, checked `_PLY_BLOCK` bytes of
    whole lines at a time; None unless all n_vertex lines are canonical
    rows of n_props values (see `_canonical_line_ends`), each ending in
    "\\n"."""
    kept, row, rest = [], 0, b""
    while row < n_vertex:
        chunk = raw.read(_PLY_BLOCK)
        if not chunk:
            return None  # a short body, or a last row without its line end
        buf = rest + chunk
        end = buf.rfind(b"\n") + 1
        body, rest = np.frombuffer(buf, dtype=np.uint8, count=end), buf[end:]
        if not end:
            continue
        ends = _canonical_line_ends(body, n_props)
        if ends is None:  # lines past n_vertex may be anything: check only those before them
            newlines = np.flatnonzero(body == ord("\n"))
            if len(newlines) <= n_vertex - row:
                return None
            ends = _canonical_line_ends(body[:newlines[n_vertex - row - 1] + 1], n_props)
            if ends is None:
                return None
        wanted = np.zeros(len(ends), dtype=bool)
        lo, hi = np.searchsorted(keep, [row, row + len(ends)])
        wanted[keep[lo:hi] - row] = True
        kept.append(body[:ends[-1]][np.repeat(wanted, np.diff(ends, prepend=0))])
        row += len(ends)
    return np.concatenate(kept) if kept else np.empty(0, dtype=np.uint8)


def _read_kept_rows(f, n_vertex: int, n_props: int, keep: np.ndarray):
    """The rows `keep` (ascending) of the PLY body that the text file `f`
    is at, as a (len(keep), n_props) float64 array, when the header and
    the first n_vertex body lines are canonical; else None, with `f` back
    at the body's start.

    Only the kept lines are parsed, by one `np.loadtxt` call, so their
    values are those of parsing every row.
    """
    start = f.tell()
    lines = None
    if start >> 64 == 0:  # a plain byte offset: the decoder holds no state
        f.buffer.seek(0)
        head = f.buffer.read(start)
        if head.isascii() and b"\r" not in head:
            lines = _kept_lines(f.buffer, n_vertex, n_props, keep)
    if lines is not None:
        if not lines.size:
            return np.empty((0, n_props))
        try:
            return np.loadtxt(io.BytesIO(lines), comments=None, dtype=np.float64,
                              ndmin=2).reshape(len(keep), n_props)
        except (ValueError, OverflowError):
            pass
    f.seek(start)
    return None


def _points_normals(vals: np.ndarray, props: list[str]):
    return vals[:, :3], vals[:, 3:6] if props[3:6] == ["nx", "ny", "nz"] else None


def read_ply(path, rows=None):
    """Returns (points (n,3), normals (n,3) or None).

    The body must hold n_vertex rows of one number per declared property,
    with no blank or whitespace-only line among them; rows past n_vertex
    are ignored. Anything else raises MalformedHeader.

    `rows`, when given, maps n_vertex to the ascending indices of the rows
    to return (None: all of them), and only those rows are parsed; the
    result is bitwise the full read's indexed by them, and the files that
    are accepted and the errors raised do not depend on `rows`. Every row
    is still checked: a header and body in the canonical subset (ASCII,
    "\n" line ends, values of the form -?D+(.D+)?([eE][+-]?D+)? joined by
    single spaces, which covers all `write_ply` writes) are checked in
    numpy, and any other file is read in full and indexed afterwards.
    """
    with open(path) as f:
        try:
            n_vertex, props = _read_ply_header(f, path)
        except (ValueError, OverflowError) as e:  # bad bytes
            raise MalformedHeader(f"{path}: unreadable PLY data ({e})") from e
        keep = None if rows is None else rows(n_vertex)
        if keep is not None:
            kept = _read_kept_rows(f, n_vertex, len(props), np.asarray(keep))
            if kept is not None:
                return _points_normals(kept, props)
        try:
            vals = _read_rows(f, n_vertex, MalformedHeader(
                f"{path}: blank line among the {n_vertex} vertex rows"), dtype=np.float64, ndmin=2)
        except (ValueError, OverflowError) as e:  # ragged or non-numeric rows, bad bytes
            raise MalformedHeader(f"{path}: unreadable PLY data ({e})") from e
    if n_vertex == 0:
        vals = vals.reshape(0, len(props))
    if len(vals) != n_vertex:
        raise MalformedHeader(f"{path}: {len(vals)} rows, header promised {n_vertex}")
    if vals.shape[1] != len(props):
        raise MalformedHeader(f"{path}: {vals.shape[1]} values per row, "
                              f"header declares {len(props)} properties")
    return _points_normals(vals if keep is None else vals[keep], props)


# ---------------------------------------------------------------------------
# trajectories CSV

_TRAJECTORY_DTYPE = np.dtype([(name, np.float64 if name in ("x", "y", "z") else np.int64)
                              for name in ("track_id", "frame", "x", "y", "z",
                                           "visible", "dynamic")])
_TRAJECTORY_HEADER = list(_TRAJECTORY_DTYPE.names)


def _write_rows(f, template, blocks):
    """Write `template % row` for each row of each 2-D array of `blocks`:
    the trajectory writer's text, `template` its row format.

    Each block is flattened in row order with one `tolist` and formatted
    with a single `%` on the template repeated once per row. `%r` of a
    Python float is its `repr`, the shortest string that reads back to the
    same double; `%d` of an integral float is the integer's `str`.
    """
    for block in blocks:
        f.write(template * len(block) % tuple(block.ravel().tolist()))


def write_trajectories(path, traj: TrajectorySet) -> None:
    """One row per (track, frame), track-major, with CRLF line ends. The
    rows' columns are built one block of _TEXT_ROWS rows at a time."""
    m, n = traj.n_tracks, traj.n_frames
    pos, vis = traj.positions.reshape(-1, 3), traj.visible.reshape(-1)

    def blocks():
        for start in range(0, m * n, _TEXT_ROWS):
            rows = slice(start, start + _TEXT_ROWS)
            track, frame = np.divmod(np.arange(start, min(start + _TEXT_ROWS, m * n)), n)
            # float64 holds the keys and flags exactly and widens float32 positions exactly
            yield np.column_stack([track, frame, pos[rows], vis[rows], traj.dynamic[track]]) \
                .astype(np.float64, copy=False)
    with open(path, "w", newline="") as f:
        f.write(",".join(_TRAJECTORY_HEADER) + "\r\n")
        _write_rows(f, "%d,%d,%r,%r,%r,%d,%d\r\n", blocks())


def read_trajectories(path) -> TrajectorySet:
    """Read a full (track, frame) grid; every key exactly once, any order.

    The body is parsed in one np.loadtxt pass. A blank or whitespace-only
    line anywhere in the body (the line end after the last row is not
    one), short or long rows, non-integer keys or flags, non-numeric
    positions, negative or duplicate keys, a grid with holes and a track
    whose rows disagree on its dynamic flag raise InputError.
    """
    try:
        with open(path) as f:
            if f.readline().rstrip("\r\n").split(",") != _TRAJECTORY_HEADER:
                raise InputError(f"{path}: unexpected trajectory CSV header")
            rows = _read_rows(f, None, InputError(f"{path}: blank line in the trajectory rows"),
                              dtype=_TRAJECTORY_DTYPE, delimiter=",", ndmin=1)
    except (ValueError, OverflowError) as e:  # ragged or non-numeric rows, bad bytes
        raise InputError(f"{path}: unreadable trajectory rows ({e})") from e
    if rows.size == 0:
        return TrajectorySet(positions=np.zeros((0, 0, 3)),
                             visible=np.zeros((0, 0), bool), dynamic=np.zeros(0, bool))
    tid, fr, dyn = rows["track_id"], rows["frame"], rows["dynamic"] != 0
    if tid.min() < 0 or fr.min() < 0:
        raise InputError(f"{path}: negative track or frame index")
    m = int(tid.max()) + 1
    n = int(fr.max()) + 1
    if len(rows) != m * n:
        raise InputError(f"{path}: incomplete (track, frame) grid")
    # len(rows) == m * n keys inside [0, m) x [0, n): unique iff the grid is full
    if np.unique(tid * n + fr).size != len(rows):
        raise InputError(f"{path}: duplicate (track, frame) rows")
    pos = np.zeros((m, n, 3))
    visible = np.zeros((m, n), dtype=bool)
    dynamic = np.zeros(m, dtype=bool)
    pos[tid, fr] = np.stack([rows["x"], rows["y"], rows["z"]], axis=-1)
    visible[tid, fr] = rows["visible"] != 0
    dynamic[tid] = dyn
    if not np.array_equal(dynamic[tid], dyn):
        raise InputError(f"{path}: rows of one track disagree on its dynamic flag")
    return TrajectorySet(positions=pos, visible=visible, dynamic=dynamic)


# ---------------------------------------------------------------------------
# JSON files

def read_json(path):
    """The JSON value in the file at `path`; InputError if it is not JSON text."""
    try:
        with open(path) as f:
            return json.load(f)
    except ValueError as e:  # invalid JSON or bad bytes
        raise InputError(f"{path}: invalid JSON ({e})") from e


def write_cameras(path, cameras: list[CameraParams]) -> None:
    with open(path, "w") as f:
        f.write(json.dumps([_camera_to_dict(c) for c in cameras], sort_keys=True) + "\n")


def read_cameras(path) -> list[CameraParams]:
    """A JSON list of cameras; anything else raises InputError."""
    data = read_json(path)
    if not isinstance(data, list):
        raise InputError(f"{path}: expected a JSON list of cameras")
    return [_camera_from_dict(c) for c in data]


# ---------------------------------------------------------------------------
# dataset directories

def _unpack_attachments(arr: np.ndarray) -> FrameAttachments:
    return FrameAttachments(object_id=arr[..., 0].astype(np.int64),
                            face_id=arr[..., 1].astype(np.int64),
                            bary=arr[..., 2:].copy())


def save_frame(out_dir, t: int, depth: DepthMap, attachments: FrameAttachments,
               pointmap: PointMap, dynamic_mask: np.ndarray) -> None:
    """Write frame t's four .ct4 files into `out_dir`, creating it if needed.

    Its signature is `generate`'s `write_frame` after `out_dir`.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_tensor(out / f"depth_{t:04d}.ct4", np.where(depth.valid, depth.values, 0.0))
    write_tensor(out / f"pointmap_{t:04d}.ct4", pointmap.points)
    write_tensor(out / f"dynamic_mask_{t:04d}.ct4", dynamic_mask.astype(np.uint8))
    write_channels(out / f"attachments_{t:04d}.ct4",
                   [attachments.object_id, attachments.face_id, attachments.bary])


def save_sequence(dataset: SequenceDataset, out_dir) -> None:
    """Write the per-sequence files: cameras.json, trajectories.csv and,
    when the dataset carries its spec, scene.json."""
    out = Path(out_dir)
    write_cameras(out / "cameras.json", dataset.cameras)
    write_trajectories(out / "trajectories.csv", dataset.trajectories)
    if dataset.spec is not None:
        with open(out / "scene.json", "w") as f:
            f.write(json.dumps(dataset.spec.to_dict(), sort_keys=True) + "\n")


def save_dataset(dataset: SequenceDataset, out_dir) -> None:
    for t in range(dataset.n_frames):
        save_frame(out_dir, t, dataset.depths[t], dataset.attachments[t],
                   dataset.pointmaps[t], dataset.dynamic_mask[t])
    save_sequence(dataset, out_dir)


def _depth_paths(dirpath) -> list[Path]:
    paths = sorted(Path(dirpath).glob("depth_*.ct4"))
    if not paths:
        raise InputError(f"{dirpath}: no depth_*.ct4 files")
    return paths


def _depth_map(path, vals: np.ndarray) -> DepthMap:
    """The depth map of a depth file's values; InputError where `DepthMap`
    rejects them (an infinite depth)."""
    try:
        return DepthMap(values=vals, valid=vals > 0)
    except ValueError as e:
        raise InputError(f"{path}: {e}") from e


def _read_depth(path, shape=None) -> DepthMap:
    """A depth file's (H, W) map, of `shape` when given; else InputError."""
    vals = read_tensor(path)
    if vals.ndim != 2 or shape not in (None, vals.shape):
        raise InputError(f"{path}: depth map of shape {vals.shape}, expected {shape or '(H, W)'}")
    return _depth_map(path, vals)


def load_depth_dir(dirpath) -> list[DepthMap]:
    """All depth_%04d.ct4 files of a directory, in index order, of one shape."""
    paths = _depth_paths(dirpath)
    first = _read_depth(paths[0])
    return [first] + [_read_depth(p, first.valid.shape) for p in paths[1:]]


def load_depth_stack(dirpath) -> np.ndarray:
    """The values of all depth_%04d.ct4 files of a directory, in index
    order, as one (N, H, W) float64 array (a pixel is valid iff its value
    is > 0). Each file after the first is read straight into its slot, so
    no per-frame copy outlives its read. Every frame gets `DepthMap`'s
    checks; a frame whose shape differs from the first's raises InputError.
    """
    paths = _depth_paths(dirpath)
    first = _read_depth(paths[0]).values
    stack = np.empty((len(paths),) + first.shape)
    stack[0] = first
    del first
    for i, p in enumerate(paths[1:], 1):
        try:
            read_tensor(p, out=stack[i])
        except ValueError as e:  # the file's shape is not the slot's
            raise InputError(str(e)) from e
        _depth_map(p, stack[i])
    return stack


class _StoredDepth:
    """A depth file's valid mask, kept in place of its `DepthMap`;
    `values` reads the file again."""

    def __init__(self, path: Path, valid: np.ndarray):
        self.path = path
        self.valid = valid

    @property
    def values(self) -> np.ndarray:
        return read_tensor(self.path)


def _read_pointmap(root: Path, t: int, depth: DepthMap) -> PointMap:
    """Frame t's point map, (H, W, 3) over the depth map's pixels or InputError."""
    path = root / f"pointmap_{t:04d}.ct4"
    points = read_tensor(path)
    if points.shape != depth.valid.shape + (3,):
        raise InputError(f"{path}: point map of shape {points.shape}, pixels {depth.valid.shape}")
    try:
        return PointMap(points=points, valid=depth.valid.copy())
    except ValueError as e:  # a valid pixel's point is not finite
        raise InputError(f"{path}: {e}") from e


def _read_sequence(root: Path, depths) -> dict:
    """The per-sequence fields of a dataset directory whose depth maps are
    `depths`: cameras, trajectories and spec (None without scene.json). A
    camera count, a trajectory frame count (unless it holds no track), or a
    scene.json frame count or resolution, not the depths' raises InputError."""
    n, shape = len(depths), depths[0].valid.shape
    out = {"cameras": read_cameras(root / "cameras.json"),
           "trajectories": read_trajectories(root / "trajectories.csv"), "spec": None}
    if len(out["cameras"]) != n:
        raise InputError(f"{root}: {len(out['cameras'])} cameras for {n} depth files")
    if out["trajectories"].n_frames not in (0, n):
        raise InputError(f"{root / 'trajectories.csv'}: {out['trajectories'].n_frames} frames "
                         f"for {n} depth files")
    scene_path = root / "scene.json"
    if scene_path.exists():
        spec = out["spec"] = SceneSpec.from_dict(read_json(scene_path))
        if (spec.n_frames, spec.resolution) != (n, shape):
            raise InputError(f"{scene_path}: n_frames {spec.n_frames}, resolution "
                             f"{list(spec.resolution)} for {n} depth maps of {list(shape)}")
    return out


def load_dataset(dirpath) -> SequenceDataset:
    root = Path(dirpath)
    depths = load_depth_dir(root)
    pointmaps = []
    attachments = []
    dmask = []
    for t, depth in enumerate(depths):
        pointmaps.append(_read_pointmap(root, t, depth))
        attachments.append(_unpack_attachments(read_tensor(root / f"attachments_{t:04d}.ct4")))
        dmask.append(read_tensor(root / f"dynamic_mask_{t:04d}.ct4").astype(bool))
    return SequenceDataset(depths=depths, pointmaps=pointmaps, attachments=attachments,
                           dynamic_mask=np.stack(dmask), **_read_sequence(root, depths))


class _FrameFiles(Sequence):
    """Per-frame values of a dataset directory, each read when indexed.

    Only the last frame read is kept, so indexing the same frame again,
    as repeated warps of one source frame do, reads nothing.
    """

    def __init__(self, n: int, read):
        self._n = n
        self._read = read
        self._last = None  # (t, value)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, t):
        t = range(self._n)[t]
        if self._last is None or self._last[0] != t:
            self._last = None  # drop the kept frame before reading the next
            self._last = (t, self._read(t))
        return self._last[1]


def open_dataset(dirpath) -> SequenceDataset:
    """A dataset directory with at most one frame's point map and object
    ids in memory: what `aggregate-oracle` needs.

    Cameras, trajectories and the spec are loaded at once. Each depth file
    is read once: frame 0's depth map is kept, and of every other frame
    only its valid mask (its `values` read the file again). `pointmaps[t]`
    and `attachments[t]` read frame t's file when indexed (see
    `_FrameFiles`), and an attachment holds only its object ids, read as
    one channel a block of rows at a time (`read_channel`): `face_id` and
    `bary` are None. The dynamic masks are not read (`dynamic_mask` is
    None). An object id other than -2, -1 or a spec object's index (none
    without scene.json), or ids not of the depth map's shape, raise
    InputError when read.
    """
    root = Path(dirpath)
    paths = _depth_paths(root)
    first = _read_depth(paths[0])
    depths = [first] + [_StoredDepth(p, _read_depth(p, first.valid.shape).valid)
                        for p in paths[1:]]
    n = len(depths)
    sequence = _read_sequence(root, depths)
    known_ids = np.arange(-2, 0 if sequence["spec"] is None else len(sequence["spec"].objects))

    def object_ids(t):
        path = root / f"attachments_{t:04d}.ct4"
        try:
            ids = read_channel(path, 0)
        except ValueError as e:  # not an (H, W, C) tensor
            raise InputError(str(e)) from e
        # checked before the cast, which turns NaN into an arbitrary integer
        if ids.shape != depths[t].valid.shape or not np.isin(ids, known_ids).all():
            raise InputError(f"{path}: object ids must be {known_ids.tolist()}, "
                             f"over {depths[t].valid.shape} pixels")
        return FrameAttachments(object_id=ids.astype(np.int64))

    return SequenceDataset(
        depths=depths,
        pointmaps=_FrameFiles(n, lambda t: _read_pointmap(root, t, depths[t])),
        attachments=_FrameFiles(n, object_ids), dynamic_mask=None, **sequence)

"""Forward-pass-only transformer trunk with aggregation-aware token routing.

Each frame's token sequence is [camera tokens | registration tokens |
aggregation tokens | patch tokens] (the aggregation block is folded into
the patch tokens under "add" fusion). The target frame gets its own
aggregation token set, every other frame shares a second set; frame 0
gets its own registration set, the rest share another. Layers alternate
frame-restricted and global self-attention, frame scope first. Frames
are taken one at a time: each is patchified and dropped before the next
is drawn, so frames from a generator are alive one at a time.

Attention never holds an (L, L) array. Scores, softmax and the weighted
values run over blocks of rows, spread over one worker per CPU in the
process's affinity mask (the calling thread and a thread pool). The
workers' blocks together hold at most _SCORE_BLOCK float64 scores (2 MiB),
so a global layer's working memory grows as L, not L^2. Each output value
comes from its own BLAS call (one gemv per row of scores, one dot per
value), so its rounding depends neither on how rows are grouped into
blocks nor on which worker runs them. `forward` runs with numpy's OpenBLAS
pinned to one thread, so no BLAS call is split over BLAS threads and its
bytes do not depend on OPENBLAS_NUM_THREADS at any L. They still depend
on the BLAS kernel and on numpy's SIMD level.

There is no temporal position encoding: frame identity enters only through
those special token sets, so permuting non-special frames permutes the
outputs. The patch embedding is a fixed seeded linear map (a stand-in for
a pretrained backbone, which is not what is under test here); the camera
head is a fixed seeded linear map as well. All weights derive from one
splitmix64 stream in the documented order, normal(0, 0.02).
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import IndivisibleResolution, ShapeMismatch, TargetOutOfRange
from .rng import SplitMix64, check_seed

_INIT_STD = 0.02
_LN_EPS = 1e-6
_SCORE_BLOCK = 2**18  # float64 score elements per block of attention rows: 2 MiB


@dataclass
class ModelConfig:
    dim: int = 64
    n_heads: int = 4
    n_layers: int = 4          # even; frame/global alternation
    patch: int = 16
    n_agg_tokens: int = 4
    n_reg_tokens: int = 4
    n_cam_tokens: int = 1
    fusion: str = "concatenate"  # concatenate | add
    seed: int = 0

    def __post_init__(self):
        if min(self.dim, self.n_heads, self.patch) < 1:
            raise ValueError("dim, n_heads and patch must be >= 1")
        if self.dim % self.n_heads != 0:
            raise ValueError("dim must be divisible by n_heads")
        if self.dim % 4 != 0:
            raise ValueError("dim must be divisible by 4 (2D positional encoding)")
        if self.n_layers < 2 or self.n_layers % 2 != 0:
            raise ValueError("n_layers must be even and >= 2")
        if self.fusion not in ("concatenate", "add"):
            raise ValueError("fusion must be concatenate or add")
        if min(self.n_agg_tokens, self.n_reg_tokens, self.n_cam_tokens) < 1:
            raise ValueError("token counts must be >= 1")
        check_seed(self.seed)


@dataclass
class LayerWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray


@dataclass
class TokenBank:
    """All learned-parameter stand-ins, deterministic from the config seed.

    Draw order from SplitMix64(seed): patch projection, camera tokens,
    first-frame registration tokens, shared registration tokens, target
    aggregation tokens, shared aggregation tokens, then per layer
    (wq, wk, wv, wo, w1, w2), then the camera head. Biases start at zero
    and layer-norm gains at one (not drawn).
    """

    config: ModelConfig
    patch_proj: np.ndarray = field(init=False)
    t_cam: np.ndarray = field(init=False)
    t_reg_first: np.ndarray = field(init=False)
    t_reg_rest: np.ndarray = field(init=False)
    t_agg_target: np.ndarray = field(init=False)
    t_agg_other: np.ndarray = field(init=False)
    layers: list[LayerWeights] = field(init=False)
    cam_head: np.ndarray = field(init=False)

    def __post_init__(self):
        cfg = self.config
        c = cfg.dim
        rng = SplitMix64(cfg.seed)

        def draw(*shape):
            return rng.normal_array(int(np.prod(shape)), 0.0, _INIT_STD).reshape(shape)

        self.patch_proj = draw(cfg.patch * cfg.patch * 3, c)
        self.t_cam = draw(cfg.n_cam_tokens, c)
        self.t_reg_first = draw(cfg.n_reg_tokens, c)
        self.t_reg_rest = draw(cfg.n_reg_tokens, c)
        self.t_agg_target = draw(cfg.n_agg_tokens, c)
        self.t_agg_other = draw(cfg.n_agg_tokens, c)
        self.layers = []
        for _ in range(cfg.n_layers):
            self.layers.append(LayerWeights(
                wq=draw(c, c), wk=draw(c, c), wv=draw(c, c), wo=draw(c, c),
                w1=draw(c, 4 * c), w2=draw(4 * c, c),
                ln1_g=np.ones(c), ln1_b=np.zeros(c),
                ln2_g=np.ones(c), ln2_b=np.zeros(c)))
        self.cam_head = draw(c, 9)


@dataclass
class FrameTokens:
    tokens: np.ndarray  # (L_seq, dim)
    frame_index: int
    is_target: bool
    is_first: bool


# ---------------------------------------------------------------------------
# embedding

def positional_encoding_2d(grid_h: int, grid_w: int, dim: int) -> np.ndarray:
    """Sinusoidal 2D encoding, half the channels per axis -> (gh*gw, dim)."""
    half = dim // 2

    def axis_enc(n, d):
        pos = np.arange(n, dtype=np.float64)[:, None]
        freq = np.exp(-math.log(10000.0) * np.arange(0, d, 2, dtype=np.float64) / d)
        ang = pos * freq[None, :]
        out = np.zeros((n, d))
        out[:, 0::2] = np.sin(ang)
        out[:, 1::2] = np.cos(ang)
        return out

    rows = axis_enc(grid_h, half)          # (gh, half)
    cols = axis_enc(grid_w, half)          # (gw, half)
    enc = np.zeros((grid_h, grid_w, dim))
    enc[:, :, :half] = rows[:, None, :]
    enc[:, :, half:] = cols[None, :, :]
    return enc.reshape(grid_h * grid_w, dim)


def patchify(image: np.ndarray, bank: TokenBank) -> np.ndarray:
    """Image (H, W, 3) -> (K, dim) patch tokens with positional encoding."""
    cfg = bank.config
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ShapeMismatch("image must be (H, W, 3)")
    h, w, _ = img.shape
    p = cfg.patch
    if h % p or w % p:
        raise IndivisibleResolution(f"{h}x{w} not divisible by patch {p}")
    gh, gw = h // p, w // p
    blocks = img.reshape(gh, p, gw, p, 3).transpose(0, 2, 1, 3, 4).reshape(gh * gw, p * p * 3)
    return blocks @ bank.patch_proj + positional_encoding_2d(gh, gw, cfg.dim)


def assemble(patch_tokens: list[np.ndarray], target: int, bank: TokenBank) -> list[FrameTokens]:
    """Prefix each frame's patch tokens with its special-token sets.

    The target frame receives the target aggregation set, all others the
    shared set; frame 0 receives the first-frame registration set. Under
    "add" fusion the mean aggregation token is added to every patch token
    instead of being concatenated.
    """
    n = len(patch_tokens)
    if not (0 <= target < n):
        raise TargetOutOfRange(f"target {target} outside 0..{n - 1}")
    cfg = bank.config
    frames = []
    for i, pt in enumerate(patch_tokens):
        reg = bank.t_reg_first if i == 0 else bank.t_reg_rest
        agg = bank.t_agg_target if i == target else bank.t_agg_other
        if cfg.fusion == "concatenate":
            tokens = np.concatenate([bank.t_cam, reg, agg, pt], axis=0)
        else:
            tokens = np.concatenate([bank.t_cam, reg, pt + agg.mean(axis=0)], axis=0)
        frames.append(FrameTokens(tokens=tokens, frame_index=i,
                                  is_target=(i == target), is_first=(i == 0)))
    return frames


# ---------------------------------------------------------------------------
# attention trunk

def _layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + _LN_EPS) * g + b


def _gelu(x: np.ndarray) -> np.ndarray:
    """0.5 x (1 + erf(x / sqrt 2)), evaluated in that order, in place in
    `x`, which the caller passes fresh; one temporary of x's size."""
    from scipy.special import erf  # here, not at the top: only `forward` needs scipy
    t = x / math.sqrt(2.0)
    erf(t, out=t)
    t += 1.0
    x *= 0.5
    x *= t
    return x


def _self_attention(x: np.ndarray, lw: LayerWeights, n_heads: int, stats=None) -> np.ndarray:
    """Multi-head self-attention over a batch of sequences (B, L, C).

    Each (sequence, head) pair runs over blocks of query rows; nothing
    (L, L) is allocated. The blocks are split into contiguous runs over n
    workers, n the number of CPUs in the affinity mask: the calling thread
    and n - 1 pool threads, each with its own block of
    max(1, _SCORE_BLOCK // (n L)) score rows, so the workers together hold
    at most _SCORE_BLOCK scores. Per row, the scores are one
    gemv (numpy's matmul of a (1, d) row by the C-contiguous (d, L) k^T,
    q pre-scaled by 1/sqrt(d)), the softmax numerator exp(s - max s) is
    elementwise, and each of the d values is one dot of that row with a
    C-contiguous row of v^T (`np.vecdot`), divided by the row's sum. Every
    output value is thus reduced by calls that see one row only, and its
    bits depend neither on the block size nor on the worker count.
    Workers make only numpy calls into preallocated outputs.
    If `stats` is a list, the (B, heads, L) row sums of the normalised
    weights are appended to it flattened.
    """
    b, l, c = x.shape
    d = c // n_heads
    q = ((x @ lw.wq) / math.sqrt(d)).reshape(b, l, n_heads, d).transpose(0, 2, 1, 3)
    kt = np.ascontiguousarray((x @ lw.wk).reshape(b, l, n_heads, d).transpose(0, 2, 3, 1))
    vt = np.ascontiguousarray((x @ lw.wv).reshape(b, l, n_heads, d).transpose(0, 2, 3, 1))
    n = len(os.sched_getaffinity(0))
    rows = max(1, _SCORE_BLOCK // (n * l))
    blocks = [(i, j, r) for i in range(b) for j in range(n_heads) for r in range(0, l, rows)]
    n = min(n, len(blocks))
    out = np.empty((b, n_heads, l, d))
    sums = None if stats is None else np.empty((b, n_heads, l))

    def run(part, scores):
        for i, j, r in part:
            q_blk = q[i, j, r:r + rows]
            e = np.matmul(q_blk[:, None, :], kt[i, j], out=scores[:len(q_blk)])[:, 0]
            e -= e.max(axis=-1, keepdims=True)
            np.exp(e, out=e)
            z = e.sum(axis=-1, keepdims=True)
            o = out[i, j, r:r + rows]
            np.vecdot(e[:, None, :], vt[i, j], out=o)
            o /= z
            if sums is not None:
                e /= z
                e.sum(axis=-1, out=sums[i, j, r:r + rows])

    scores = np.empty((n, min(rows, l), 1, l))
    parts = [(blocks[w * len(blocks) // n:(w + 1) * len(blocks) // n], scores[w])
             for w in range(n)]
    if n == 1:
        run(*parts[0])
    else:
        # here, not at the top: only attention runs a pool
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(n - 1) as pool:
            futures = [pool.submit(run, *part) for part in parts[1:]]
            run(*parts[0])
            for f in futures:
                f.result()
    if sums is not None:
        stats.append(sums.reshape(-1))
    return out.transpose(0, 2, 1, 3).reshape(b, l, c) @ lw.wo


def attention_layer(frames: list[FrameTokens], lw: LayerWeights, scope: str,
                    n_heads: int, stats=None) -> list[FrameTokens]:
    """One pre-norm block (attention + MLP) at frame or global scope."""
    if scope not in ("frame", "global"):
        raise ValueError("scope must be 'frame' or 'global'")
    x = np.stack([f.tokens for f in frames])       # (N, L, C)
    n, l, c = x.shape
    if scope == "global":
        x = x.reshape(1, n * l, c)
    x = x + _self_attention(_layer_norm(x, lw.ln1_g, lw.ln1_b), lw, n_heads, stats)
    h = _gelu(_layer_norm(x, lw.ln2_g, lw.ln2_b) @ lw.w1)
    x = x + h @ lw.w2
    x = x.reshape(n, l, c)
    return [FrameTokens(tokens=x[i], frame_index=f.frame_index,
                        is_target=f.is_target, is_first=f.is_first)
            for i, f in enumerate(frames)]


def _blas_thread_functions():
    """(get, set) of the thread count of numpy's own OpenBLAS, or None
    where numpy's extension exports no such functions (another BLAS)."""
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    try:
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except AttributeError:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread and restore its
    thread count afterwards, also when the block raises. The count is
    process-wide, so two blocks must not overlap in time. A dot product
    longer than 10,000 elements is split over OpenBLAS's threads, so
    pinning one thread keeps its rounding, and it spares waking threads
    that buy no speed on the trunk's small gemv and gemm calls."""
    functions = _blas_thread_functions()
    if functions is None:
        yield
        return
    get, set_ = functions
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


@dataclass
class ForwardResult:
    frames: list[FrameTokens]          # final token sequences
    cam_features: np.ndarray           # (N, n_cam, dim)
    patch_features: np.ndarray         # (N, K, dim)
    softmax_row_sums: list[np.ndarray] | None = None


class AggregationFormer:
    """Bank-holding wrapper so repeated forwards reuse the seeded weights."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.bank = TokenBank(config)

    def _patch_tokens(self, images) -> list[np.ndarray]:
        """Patch tokens of each frame of the iterable `images`, which are
        converted, checked against the first frame's shape and for finite
        values, and patchified one at a time; no frame outlives its own
        patchify call here."""
        patches, shape = [], None
        for im in images:
            im = np.asarray(im, dtype=np.float64)
            shape = im.shape if shape is None else shape
            if im.shape != shape:
                raise ShapeMismatch("all frames must share one resolution")
            if not np.isfinite(im).all():
                raise ValueError(f"frame {len(patches)} holds a non-finite value")
            patches.append(patchify(im, self.bank))
            del im  # before the iterable makes the next frame
        return patches

    def forward(self, images, target: int, collect_stats: bool = False) -> ForwardResult:
        """Run the trunk over `images`, any iterable of (H, W, 3) frames;
        a generator is consumed one frame at a time. The whole pass runs
        with numpy's OpenBLAS pinned to one thread (`_one_blas_thread`);
        attention spreads its heads over the CPUs instead."""
        cfg = self.config
        with _one_blas_thread():
            frames = assemble(self._patch_tokens(images), target, self.bank)
            stats = [] if collect_stats else None
            for li, lw in enumerate(self.bank.layers):
                scope = "frame" if li % 2 == 0 else "global"
                frames = attention_layer(frames, lw, scope, cfg.n_heads, stats)

            n_prefix = cfg.n_cam_tokens + cfg.n_reg_tokens \
                + (cfg.n_agg_tokens if cfg.fusion == "concatenate" else 0)
            cam = np.stack([f.tokens[:cfg.n_cam_tokens] for f in frames])
            patch = np.stack([f.tokens[n_prefix:] for f in frames])
        return ForwardResult(frames=frames, cam_features=cam,
                             patch_features=patch, softmax_row_sums=stats)

    # -- camera head ------------------------------------------------------

    def head_camera(self, cam_features: np.ndarray) -> np.ndarray:
        """Camera token features (N, n_cam, dim) -> 9-vectors (N, 9), laid out
        [qw, qx, qy, qz, tx, ty, tz, fov_v, fov_h], that CameraParams accepts.

        Aggregation/registration tokens never reach the head; only the
        first camera token feeds this map. Each quaternion is divided by
        its np.linalg.norm, sqrt(q · q), or is the identity below 1e-12.
        """
        out = np.asarray(cam_features, dtype=np.float64)[:, 0, :] @ self.bank.cam_head
        qn = np.sqrt(np.vecdot(out[:, :4], out[:, :4]))[:, None]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out[:, :4] = np.where(qn < 1e-12, np.array([1.0, 0.0, 0.0, 0.0]), out[:, :4] / qn)
            fov = math.pi / (1.0 + np.exp(-out[:, 7:9]))
        out[:, 7:9] = np.clip(fov, 1e-6, math.pi - 1e-6)
        return out

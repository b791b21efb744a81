"""Token routing invariants: assembly, scope isolation, permutation
equivariance, head contracts. Weights are random but seeded; every check
is numeric, none requires training."""

import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scene4d import transformer
from scene4d.errors import (IndivisibleResolution, ShapeMismatch,
                            TargetOutOfRange)
from scene4d.geometry import CameraParams
from scene4d.rng import SplitMix64
from scene4d.tensorio import write_tensor
from scene4d.transformer import (AggregationFormer, FrameTokens, LayerWeights,
                                 ModelConfig, TokenBank, _self_attention,
                                 assemble, attention_layer, patchify)


def dense_self_attention(x, lw, n_heads, stats=None):
    """The per-row math of `_self_attention` on whole (B, heads, L, L)
    arrays: q pre-scaled by 1/sqrt(d), one gemv per score row against a
    C-contiguous k^T, one dot per value against a C-contiguous v^T (a
    strided v^T takes another dot path), then division by the row sums.
    `_self_attention` must equal it bitwise."""
    b, l, c = x.shape
    d = c // n_heads
    q = ((x @ lw.wq) / math.sqrt(d)).reshape(b, l, n_heads, d).transpose(0, 2, 1, 3)
    kt = np.ascontiguousarray((x @ lw.wk).reshape(b, l, n_heads, d).transpose(0, 2, 3, 1))
    vt = np.ascontiguousarray((x @ lw.wv).reshape(b, l, n_heads, d).transpose(0, 2, 3, 1))
    e = np.matmul(q[:, :, :, None, :], kt[:, :, None])[:, :, :, 0]
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    z = e.sum(axis=-1, keepdims=True)
    out = np.vecdot(e[:, :, :, None, :], vt[:, :, None]) / z
    if stats is not None:
        stats.append((e / z).sum(axis=-1).reshape(-1))
    return out.transpose(0, 2, 1, 3).reshape(b, l, c) @ lw.wo


def _images(n, h=32, w=32, seed=0):
    rng = SplitMix64(seed)
    return [rng.uniform_array(h * w * 3).reshape(h, w, 3) for _ in range(n)]


@pytest.fixture(scope="module")
def model():
    return AggregationFormer(ModelConfig(dim=32, n_heads=4, n_layers=4, patch=8,
                                         n_agg_tokens=3, n_reg_tokens=2, seed=11))


# ---------------------------------------------------------------------------
# patchify

def test_patchify_token_count(model):
    toks = patchify(_images(1)[0], model.bank)
    assert toks.shape == (16, 32)  # 32/8 * 32/8 patches


def test_patchify_deterministic_and_swappable(model):
    a, b = _images(2, seed=4)
    ta1 = patchify(a, model.bank)
    ta2 = patchify(a, model.bank)
    tb = patchify(b, model.bank)
    assert np.array_equal(ta1, ta2)
    # swapping the input images swaps the token sets exactly
    assert np.array_equal(patchify(b, model.bank), tb)
    assert not np.array_equal(ta1, tb)


def test_patchify_rejects_indivisible(model):
    with pytest.raises(IndivisibleResolution):
        patchify(np.zeros((30, 32, 3)), model.bank)


# ---------------------------------------------------------------------------
# assemble

def test_assemble_sequence_lengths():
    cfg = ModelConfig(dim=64, n_heads=4, patch=16, n_agg_tokens=4,
                      n_reg_tokens=4, n_cam_tokens=1)
    bank = TokenBank(cfg)
    patches = [np.zeros((16, 64))] * 4
    frames = assemble(patches, target=1, bank=bank)
    assert all(f.tokens.shape[0] == 25 for f in frames)        # 1+4+4+16
    assert sum(f.tokens.shape[0] for f in frames) == 100

    cfg_add = ModelConfig(dim=64, n_heads=4, patch=16, n_agg_tokens=4,
                          n_reg_tokens=4, n_cam_tokens=1, fusion="add")
    frames_add = assemble(patches, 1, TokenBank(cfg_add))
    assert all(f.tokens.shape[0] == 21 for f in frames_add)    # 1+4+16


def test_assemble_routes_special_tokens(model):
    bank = model.bank
    cfg = model.config
    patches = [np.zeros((16, cfg.dim))] * 4
    frames = assemble(patches, target=0, bank=bank)
    # frame 0 holds both the first-frame registration and target aggregation sets
    f0 = frames[0].tokens
    nc, nr, na = cfg.n_cam_tokens, cfg.n_reg_tokens, cfg.n_agg_tokens
    assert np.array_equal(f0[:nc], bank.t_cam)
    assert np.array_equal(f0[nc:nc + nr], bank.t_reg_first)
    assert np.array_equal(f0[nc + nr:nc + nr + na], bank.t_agg_target)
    f2 = frames[2].tokens
    assert np.array_equal(f2[nc:nc + nr], bank.t_reg_rest)
    assert np.array_equal(f2[nc + nr:nc + nr + na], bank.t_agg_other)


def test_assemble_target_change_touches_two_frames(model):
    patches = [patchify(im, model.bank) for im in _images(5, seed=6)]
    fa = assemble(patches, target=1, bank=model.bank)
    fb = assemble(patches, target=3, bank=model.bank)
    for i in range(5):
        same = np.array_equal(fa[i].tokens, fb[i].tokens)
        assert same == (i not in (1, 3))


def test_assemble_target_out_of_range(model):
    with pytest.raises(TargetOutOfRange):
        assemble([np.zeros((16, 32))], target=1, bank=model.bank)


def test_fusion_modes_share_patchify():
    imgs = _images(1, seed=9)
    cfg_cat = ModelConfig(dim=32, n_heads=4, patch=8, seed=5)
    cfg_add = ModelConfig(dim=32, n_heads=4, patch=8, seed=5, fusion="add")
    assert np.array_equal(patchify(imgs[0], TokenBank(cfg_cat)),
                          patchify(imgs[0], TokenBank(cfg_add)))


# ---------------------------------------------------------------------------
# attention

def test_frame_scope_isolation_exact(model):
    patches = [patchify(im, model.bank) for im in _images(4, seed=7)]
    frames = assemble(patches, 2, model.bank)
    out = attention_layer(frames, model.bank.layers[0], "frame", model.config.n_heads)
    wrecked = [FrameTokens(f.tokens.copy(), f.frame_index, f.is_target, f.is_first)
               for f in frames]
    wrecked[3].tokens[:] = 0.0
    out2 = attention_layer(wrecked, model.bank.layers[0], "frame", model.config.n_heads)
    for i in range(3):
        assert np.array_equal(out[i].tokens, out2[i].tokens)
    assert not np.array_equal(out[3].tokens, out2[3].tokens)


def test_global_scope_mixes_frames(model):
    patches = [patchify(im, model.bank) for im in _images(4, seed=8)]
    frames = assemble(patches, 2, model.bank)
    out = attention_layer(frames, model.bank.layers[1], "global", model.config.n_heads)
    bumped = [FrameTokens(f.tokens.copy(), f.frame_index, f.is_target, f.is_first)
              for f in frames]
    bumped[3].tokens += 0.5
    out2 = attention_layer(bumped, model.bank.layers[1], "global", model.config.n_heads)
    # a perturbation of frame 3 is witnessed in frame 0's outputs
    assert not np.array_equal(out[0].tokens, out2[0].tokens)


def test_single_token_attention_is_value_projection(model):
    lw = model.bank.layers[0]
    x = SplitMix64(3).uniform_array(32).reshape(1, 1, 32)
    out = _self_attention(x, lw, model.config.n_heads)
    expected = (x @ lw.wv) @ lw.wo  # softmax over one logit is exactly 1
    assert np.allclose(out, expected, atol=1e-12)


def test_softmax_rows_sum_to_one(model):
    res = model.forward(_images(3, seed=10), target=1, collect_stats=True)
    sums = np.concatenate(res.softmax_row_sums)
    assert len(res.softmax_row_sums) == model.config.n_layers
    assert np.max(np.abs(sums - 1.0)) < 1e-6


def test_gelu_in_place_bitwise_equals_formula():
    from scipy.special import erf
    tiny = np.finfo(np.float64).tiny
    x = np.array([0.0, -0.0, 5e-324, -5e-324, tiny / 3, -tiny / 3, tiny, 1e-300,
                  0.5, -0.5, 1.0, -1.0, 3.0, -3.0, 30.0, -30.0, 1e300, -1e300,
                  np.finfo(np.float64).max, -np.finfo(np.float64).max,
                  np.inf, -np.inf, np.nan, -np.nan])
    x = np.concatenate([x, SplitMix64(19).normal_array(1000, 0.0, 4.0)])
    with np.errstate(invalid="ignore"):      # -inf * (1 + erf(-inf)) is nan
        want = 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))
        work = x.copy()
        got = transformer._gelu(work)
    assert got is work                       # in place in the fresh array
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _attention_weights(rng, c):
    def draw(*shape, std=0.5):
        return rng.normal_array(int(np.prod(shape)), 0.0, std).reshape(shape)
    return LayerWeights(wq=draw(c, c), wk=draw(c, c), wv=draw(c, c), wo=draw(c, c),
                        w1=np.zeros((c, 4 * c)), w2=np.zeros((4 * c, c)),
                        ln1_g=np.ones(c), ln1_b=np.zeros(c),
                        ln2_g=np.ones(c), ln2_b=np.zeros(c))


attention_cases = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 4),
                            st.integers(1, 70), st.integers(1, 4), st.integers(1, 9),
                            st.sampled_from([0.1, 1.0, 8.0]))


@settings(max_examples=150, deadline=None)
@given(attention_cases, st.booleans())
@example((0, 1, 1, 1, 1, 1.0), True)
@example((1, 1, 1, 4, 8, 1.0), False)
@example((2, 3, 1, 2, 3, 1.0), True)
@example((3, 1, 33, 4, 16, 8.0), True)
@example((4, 5, 17, 3, 5, 0.1), False)
def test_self_attention_bitwise_equals_dense(case, with_stats):
    seed, b, l, n_heads, d, scale = case
    rng = SplitMix64(seed)
    lw = _attention_weights(rng, n_heads * d)
    x = rng.normal_array(b * l * n_heads * d, 0.0, scale).reshape(b, l, n_heads * d)
    stats, ref_stats = ([], []) if with_stats else (None, None)
    out = _self_attention(x, lw, n_heads, stats)
    ref = dense_self_attention(x, lw, n_heads, ref_stats)
    assert out.shape == ref.shape == (b, l, n_heads * d)
    assert np.array_equal(out, ref)
    if with_stats:
        assert len(stats) == len(ref_stats) == 1
        assert stats[0].shape == ref_stats[0].shape == (b * n_heads * l,)
        assert np.array_equal(stats[0], ref_stats[0])


def _assert_equals_dense(case, with_stats):
    seed, b, l, n_heads, d, scale = case
    rng = SplitMix64(seed)
    lw = _attention_weights(rng, n_heads * d)
    x = rng.normal_array(b * l * n_heads * d, 0.0, scale).reshape(b, l, n_heads * d)
    stats, ref_stats = ([], []) if with_stats else (None, None)
    out = _self_attention(x, lw, n_heads, stats)
    ref = dense_self_attention(x, lw, n_heads, ref_stats)
    assert out.shape == ref.shape == (b, l, n_heads * d)
    assert np.array_equal(out, ref), case
    if with_stats:
        assert stats[0].shape == ref_stats[0].shape == (b * n_heads * l,)
        assert np.array_equal(stats[0], ref_stats[0]), case


BLOCK = transformer._SCORE_BLOCK
block_cases = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 2),
                        st.integers(1, 399), st.integers(1, 4), st.integers(1, 9),
                        st.sampled_from([0.1, 1.0, 8.0]))


@settings(max_examples=80, deadline=None)
@given(block_cases, st.integers(1, 40000), st.booleans())
@example((0, 1, 128, 4, 16, 1.0), 128 * 128, True)
@example((1, 1, 129, 2, 8, 8.0), 128 * 129, True)
@example((2, 2, 257, 1, 5, 0.1), 128 * 257, True)
@example((3, 1, 384, 4, 16, 1.0), 128 * 384, False)
@example((4, 1, 385, 3, 7, 8.0), 1, True)
@example((5, 2, 200, 2, 9, 1.0), 7 * 200, True)
@example((6, 1, 399, 1, 1, 1.0), 40000, True)
def test_self_attention_bitwise_equals_dense_across_row_blocks(case, budget, with_stats):
    # one row per block up to the whole sequence in one, with a last
    # block shorter than the others
    with mock.patch.object(transformer, "_SCORE_BLOCK", budget):
        _assert_equals_dense(case, with_stats)


def multi_block_check() -> int:
    """Equality cases at the module's block budget, each with a last block
    shorter than the others from L = 513 on, at the worker count the
    affinity mask gives; run in a child process; returns how many."""
    cases = [(l, 1, l, n_heads, d, scale)
             for l in (511, 512, 513, 777, 1025)
             for n_heads, d in ((1, 5), (4, 16)) for scale in (0.1, 8.0)]
    workers = len(transformer.os.sched_getaffinity(0))
    assert all(l % max(1, BLOCK // (workers * l)) for l in (513, 777, 1025))
    for case in cases:
        _assert_equals_dense(case, True)
    return len(cases)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_self_attention_bits_do_not_depend_on_worker_count(workers, monkeypatch):
    # the row blocks go to `workers` threads, each making the same per-row
    # calls, so outputs and row sums equal the dense reference at any count
    import concurrent.futures
    pools = []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(transformer.os, "sched_getaffinity", lambda pid: set(range(workers)))
    assert multi_block_check() == 20
    assert pools == ([workers - 1] * 20 if workers > 1 else [])


def _simd_found() -> list[str]:
    """numpy's enabled SIMD dispatch targets above its baseline."""
    return np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])


# the Haswell and Sandybridge kernels need an x86 CPU with AVX2 and FMA3
_AVX2 = platform.machine().lower() in ("x86_64", "amd64") \
    and bool({"X86_V3", "AVX2"} & set(_simd_found()))
_NO_SIMD = "NPY_DISABLE_CPU_FEATURES"


@pytest.mark.parametrize("env", [
    {"OPENBLAS_NUM_THREADS": "1"},
    {"OPENBLAS_NUM_THREADS": "2"},
    pytest.param({"OPENBLAS_CORETYPE": "Haswell"},
                 marks=pytest.mark.skipif(not _AVX2, reason="needs AVX2 and FMA3")),
    pytest.param({"OPENBLAS_CORETYPE": "Sandybridge"},
                 marks=pytest.mark.skipif(not _AVX2, reason="needs AVX2 and FMA3")),
    {_NO_SIMD: " ".join(_simd_found())},
], ids=["blas-1-thread", "blas-2-threads", "haswell-kernel", "sandybridge-kernel",
        "numpy-baseline-loops"])
def test_self_attention_bitwise_equals_dense_under_other_kernels(env):
    # The row blocks and the dense reference make the same per-row gemv and
    # dot calls, so they agree under any BLAS kernel or thread count; with every numpy
    # SIMD dispatch target (AVX2, FMA3, AVX-512 loops) turned off, too.
    # The settings go to the child process only. numpy ignores, with no
    # more than an ImportWarning, a feature name it does not dispatch on, so
    # the child checks that no dispatch target is left.
    src = Path(transformer.__file__).resolve().parents[1]
    child = "import test_transformer as t\n"
    if _NO_SIMD in env:
        child += "assert t._simd_found() == [], t._simd_found()\n"
    child += "print(t.multi_block_check())\n"
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, timeout=120,
        env={**os.environ, **env,
             "PYTHONPATH": os.pathsep.join([str(Path(__file__).parent), str(src)])})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "20\n"


def _bench_frames(n=8, size=256):
    return _images(n, size, size, seed=21)


@pytest.mark.parametrize("fusion", ["concatenate", "add"])
def test_forward_bitwise_equals_dense_kernel(fusion, monkeypatch):
    # 8 frames of 256^2: L = 265 per frame, 2120 at global scope
    model = AggregationFormer(ModelConfig(fusion=fusion))
    imgs = _bench_frames()
    res = model.forward(imgs, 3, collect_stats=True)
    monkeypatch.setattr(transformer, "_self_attention", dense_self_attention)
    ref = model.forward(imgs, 3, collect_stats=True)
    assert np.array_equal(res.patch_features, ref.patch_features)
    assert np.array_equal(res.cam_features, ref.cam_features)
    assert np.array_equal(model.head_camera(res.cam_features),
                          model.head_camera(ref.cam_features))
    assert len(res.frames) == len(ref.frames) == 8
    for f, g in zip(res.frames, ref.frames):
        assert np.array_equal(f.tokens, g.tokens)
    assert len(res.softmax_row_sums) == len(ref.softmax_row_sums) == 4
    for s, t in zip(res.softmax_row_sums, ref.softmax_row_sums):
        assert s.shape == t.shape and np.array_equal(s, t)


def test_forward_cli_bytes_equal_at_one_and_two_blas_threads(tmp_path):
    # each output value of the attention comes from one BLAS call, so on
    # these frames (8 of 256^2, L = 2120) the thread count does not reach
    # the bits; the dense kernel's gemm split its rows over the threads
    frames = tmp_path / "frames"
    frames.mkdir()
    for k, im in enumerate(_bench_frames()):
        write_tensor(frames / f"frame_{k:04d}.ct4", im)
    src = Path(transformer.__file__).resolve().parents[1]
    runs = []
    for threads in ("1", "2"):
        dump = tmp_path / f"features_{threads}.ct4"
        proc = subprocess.run(
            [sys.executable, "-m", "scene4d.cli", "forward", "--frames", str(frames),
             "--target", "3", "--dump", str(dump)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, dump.read_bytes()))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def long_sequence_digest() -> str:
    """sha256 of `forward`'s patch and camera features over 402 frames of
    64² (25 tokens each at dim 8, one head): L = 10,050 at global scope,
    above the 10,000 elements from which OpenBLAS splits a dot product
    over its threads. Run in a child process."""
    import hashlib
    rng = SplitMix64(27)
    frames = (rng.uniform_array(64 * 64 * 3).reshape(64, 64, 3) for _ in range(402))
    res = AggregationFormer(ModelConfig(dim=8, n_heads=1, n_layers=2)).forward(frames, 5)
    assert sum(f.tokens.shape[0] for f in res.frames) == 10_050
    digest = hashlib.sha256(res.patch_features.tobytes())
    digest.update(res.cam_features.tobytes())
    return digest.hexdigest()


def test_forward_bytes_equal_at_one_and_two_blas_threads_above_ten_thousand_tokens():
    # `forward` pins OpenBLAS to one thread, so the value dots over 10,050
    # weights are not split over threads at OPENBLAS_NUM_THREADS=2
    src = Path(transformer.__file__).resolve().parents[1]
    digests = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", "import test_transformer as t; print(t.long_sequence_digest())"],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads,
                 "PYTHONPATH": os.pathsep.join([str(Path(__file__).parent), str(src)])})
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


_BLAS_THREADS = transformer._blas_thread_functions()


@pytest.mark.skipif(_BLAS_THREADS is None, reason="numpy's BLAS has no thread-count functions")
def test_forward_pins_one_blas_thread_and_restores_the_count(model, monkeypatch):
    get, set_ = _BLAS_THREADS
    seen = []
    patchify_ = transformer.patchify

    def spy(image, bank):
        seen.append(get())
        return patchify_(image, bank)

    monkeypatch.setattr(transformer, "patchify", spy)
    imgs = _images(3, seed=23)
    before = get()
    try:
        set_(2)
        assert get() == 2
        pinned = model.forward(imgs, 1)
        assert get() == 2
        # the second frame's shape raises after the pin is set
        with pytest.raises(ShapeMismatch):
            model.forward([imgs[0], np.zeros((16, 16, 3))], 0)
        assert get() == 2
        assert seen == [1] * 4
        monkeypatch.setattr(transformer, "_blas_thread_functions", lambda: None)
        unpinned = model.forward(imgs, 1)
        assert seen[4:] == [2] * 3
    finally:
        set_(before)
    assert np.array_equal(pinned.patch_features, unpinned.patch_features)
    assert np.array_equal(pinned.cam_features, unpinned.cam_features)


def test_global_attention_layer_memory_bound():
    # a (2120, 2120) float64 score buffer alone would be 36 MB; the row
    # blocks hold 2 MiB of scores beside the layer's (L, dim) arrays
    model = AggregationFormer(ModelConfig())
    patches = [patchify(im, model.bank) for im in _bench_frames()]
    frames = assemble(patches, 3, model.bank)
    assert sum(f.tokens.shape[0] for f in frames) == 2120
    tracemalloc.start()
    try:
        out = attention_layer(frames, model.bank.layers[1], "global", model.config.n_heads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == 8
    assert peak < 16e6


# ---------------------------------------------------------------------------
# forward

def test_forward_holds_one_frame_at_a_time():
    # 8 frames of 256^2 from a generator, as `forward` reads them from disk
    import scipy.special  # noqa: F401  (the GELU's; its import is not under test)
    model = AggregationFormer(ModelConfig())
    n, size = 8, 256

    def frames():
        rng = SplitMix64(21)
        for _ in range(n):
            yield rng.uniform_array(size * size * 3).reshape(size, size, 3)

    tracemalloc.start()
    try:
        res = model.forward(frames(), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    length = sum(f.tokens.shape[0] for f in res.frames)
    assert length == 2120
    scores = transformer._SCORE_BLOCK * 8  # the workers' blocks of score rows
    # beside its scores a global layer holds about 10 (L, dim) arrays: its
    # input tokens, their stack and layer norm, q, k^T, v^T, the head
    # outputs, their merged copy, its projection and the softmax row vectors
    tokens = 10 * length * model.config.dim * 8
    frame = size * size * 3 * 8
    # all 8 frames held through the trunk would alone be 8 frames
    assert peak - scores - tokens < 3 * frame


def test_forward_deterministic(model):
    imgs = _images(3, seed=12)
    a = model.forward(imgs, 1)
    b = model.forward(imgs, 1)
    assert np.array_equal(a.patch_features, b.patch_features)
    assert np.array_equal(a.cam_features, b.cam_features)
    # and a freshly built model from the same config agrees bit for bit
    again = AggregationFormer(model.config).forward(imgs, 1)
    assert np.array_equal(a.patch_features, again.patch_features)


def test_forward_single_frame(model):
    res = model.forward(_images(1, seed=13), 0)
    assert res.patch_features.shape == (1, 16, 32)
    assert res.cam_features.shape == (1, model.config.n_cam_tokens, 32)


def test_forward_permutation_equivariance(model):
    # permute the non-special frames (fix frame 0 and the target a=3)
    imgs = _images(5, seed=14)
    perm = [0, 2, 1, 3, 4]
    base = model.forward(imgs, 3).patch_features
    permuted = model.forward([imgs[i] for i in perm], 3).patch_features
    for i, j in enumerate(perm):
        assert np.max(np.abs(permuted[i] - base[j])) < 1e-5


def test_forward_target_changes_outputs(model):
    imgs = _images(4, seed=15)
    a = model.forward(imgs, 0).patch_features
    b = model.forward(imgs, 2).patch_features
    assert not np.allclose(a, b)


def test_forward_rejects_mixed_resolutions(model):
    with pytest.raises(ShapeMismatch):
        model.forward([np.zeros((32, 32, 3)), np.zeros((16, 16, 3))], 0)


# ---------------------------------------------------------------------------
# heads

def test_head_camera_decodable_and_deterministic(model):
    res = model.forward(_images(4, seed=17), 1)
    g1 = model.head_camera(res.cam_features)
    g2 = model.head_camera(res.cam_features)
    assert np.array_equal(g1, g2)
    for row in g1:
        cam = CameraParams(q=row[:4], t=row[4:7], fov=row[7:9])  # checks unit q, fov
        assert abs(np.linalg.norm(cam.q) - 1) < 1e-9
    # distinct camera tokens give distinct outputs on random features
    assert not np.array_equal(g1[0], g1[1])

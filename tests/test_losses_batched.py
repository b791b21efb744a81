"""Batched losses and the batched finite-difference harness against the
per-call forms they replace: bitwise-equal values, gradients and check
results, and harness memory bounded by its block size."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scene4d import losses
from scene4d.errors import NonFiniteDerivative, NonPositiveSigma, ShapeMismatch
from scene4d.losses import (LossConfig, camera_loss, depth_loss, finite_diff_check,
                            gradient_check_suite, point_loss,
                            relative_gradient_error)


def reference_finite_diff_check(value_fn, arrays: dict, grads: dict, h: float = 1e-5) -> float:
    """Reference: one scalar evaluation per ±h coordinate, perturbed in place.

    This is the per-coordinate loop `finite_diff_check` had before it
    evaluated blocks of copies, kept verbatim.
    """
    if not (1e-7 <= h <= 1e-3):
        raise ValueError("h must lie in [1e-7, 1e-3]")
    worst = 0.0
    work = {k: np.array(v, dtype=np.longdouble) for k, v in arrays.items()}
    h = np.longdouble(h)
    for name, g in grads.items():
        arr = work[name]
        flat = arr.reshape(-1)
        gflat = np.asarray(g).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = value_fn(work)
            flat[i] = orig - h
            down = value_fn(work)
            flat[i] = orig
            numeric = float((up - down) / (2.0 * h))
            worst = max(worst, relative_gradient_error(float(gflat[i]), numeric))
    return worst


def _via_reference(value_fn, arrays, grads, h=1e-5):
    """finite_diff_check's signature on the reference loop, which calls
    value_fn on one copy at a time, as a batch of one."""
    return reference_finite_diff_check(
        lambda arrs: value_fn({k: v[None] for k, v in arrs.items()})[0], arrays, grads, h)


@pytest.mark.parametrize("seed", [0, 31, 2026])
@pytest.mark.parametrize("cfg", [LossConfig(), LossConfig(weight_mode="none"),
                                 LossConfig(grad_term=False, alpha=0.5),
                                 LossConfig(gamma=2.0, representation="offset")],
                         ids=["focal", "none", "no_grad_term", "gamma2_offset"])
def test_suite_equals_per_coordinate_reference(monkeypatch, seed, cfg):
    fast = gradient_check_suite(seed, trials=1, cfg=cfg)
    monkeypatch.setattr(losses, "finite_diff_check", _via_reference)
    slow = gradient_check_suite(seed, trials=1, cfg=cfg)
    assert fast == slow
    assert all(err < 1e-4 for err in fast.values())


def _scaled_gradient(loss):
    """`loss` with its analytic pred gradient scaled by 1.01."""
    def wrong(*args, **kwargs):
        out = loss(*args, **kwargs)
        if isinstance(out, tuple):                # camera_loss: (value, grad)
            return out[0], 1.01 * out[1]
        if out.grad_points is None:               # a value-only call
            return out
        return dataclasses.replace(out, grad_points=1.01 * out.grad_points)
    return wrong


@pytest.mark.parametrize("check,loss", [("point_focal", "point_loss"),
                                        ("point_dynamic", "point_loss"),
                                        ("point_offset", "point_loss"),
                                        ("depth", "depth_loss"),
                                        ("camera", "camera_loss")])
def test_suite_reports_a_wrong_gradient(monkeypatch, check, loss):
    # the shared trial loop must be able to fail each of the five checks
    monkeypatch.setattr(losses, loss, _scaled_gradient(getattr(losses, loss)))
    assert gradient_check_suite(0, trials=2)[check] >= 1e-4


def test_scalar_and_batched_harness_agree():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, (5, 4))
    y = rng.uniform(-1.0, 1.0, 4)
    grads = {"x": 3 * x * x * y, "y": (x ** 3).sum(axis=0)}

    def scalar(a):
        return (a["x"] ** 3 * a["y"]).sum()

    def batched(a):
        return (a["x"] ** 3 * a["y"][:, None, :]).reshape(len(a["x"]), -1).sum(axis=-1)

    arrays = {"x": x, "y": y}
    ref = reference_finite_diff_check(scalar, arrays, grads)
    assert ref < 1e-6
    assert finite_diff_check(batched, arrays, grads) == ref


def test_batched_harness_rejects_wrong_value_count():
    with pytest.raises(ShapeMismatch):
        finite_diff_check(lambda a: np.zeros(1), {"x": np.zeros(3)}, {"x": np.zeros(3)})
    with pytest.raises(ShapeMismatch):
        finite_diff_check(lambda a: np.zeros(len(a["x"])), {"x": np.zeros(3)},
                          {"x": np.zeros(4)})


def test_harness_of_an_empty_array_has_no_error():
    # the block size used to divide by the array's size
    assert finite_diff_check(lambda a: a["x"].sum(axis=-1), {"x": np.zeros(0)},
                             {"x": np.zeros(0)}) == 0.0


def test_harness_memory_bounded_by_block():
    # all 2 * 10^4 copies of a 10^4-element array at once would take 3.2 GB
    n = 10_000
    x = np.linspace(-1.0, 1.0, n)

    def value_fn(a):
        return (a["x"] * a["x"]).sum(axis=-1)

    tracemalloc.start()
    try:
        err = finite_diff_check(value_fn, {"x": x}, {"x": 2 * x})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err < 1e-6
    assert peak < 16e6


# ---------------------------------------------------------------------------
# the windowed harness of the point and depth checks

_FD_CONFIGS = [LossConfig(grad_term=False), LossConfig(gamma=0.0), LossConfig(gamma=2.0),
               LossConfig(weight_mode="dynamic"), LossConfig(weight_mode="none"),
               LossConfig(representation="offset"), None]


def _recorded_differences(run):
    """The central differences, in order, that `run()` hands to
    `relative_gradient_error` in the harness and in the reference loop."""
    seen, error = [], relative_gradient_error

    def record(analytic, numeric):
        seen.append(np.atleast_1d(np.float64(numeric)))
        return error(analytic, numeric)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(losses, "relative_gradient_error", record)
        mp.setitem(globals(), "relative_gradient_error", record)
        run()
    return np.concatenate(seen)


def _fd_instance(rng, cfg, h, w, valid):
    """(windowed value function, the loss as a black box, arrays, grads)
    of the point check under cfg, or of the depth check for cfg None."""
    sigma = rng.uniform(0.3, 2.0, (h, w))
    if cfg is None:
        gt = rng.uniform(0.5, 3.0, (h, w))
        pred = gt + rng.uniform(-1.0, 1.0, (h, w))
        center = depth_loss(pred, gt, sigma, valid)
        windowed = losses._depth_mean(gt, valid, 0.1)

        def loss(a):
            return depth_loss(a["pred"], gt, a["sigma"], valid, compute_grads=False).value
    else:
        gt = rng.uniform(-1.0, 1.0, (h, w, 3))
        pred = gt + rng.uniform(-1.0, 1.0, (h, w, 3))
        dyn = rng.uniform(size=(h, w)) < 0.5
        w0 = losses._residual_weight(cfg, losses._residual(pred, gt, valid[..., None]), dyn)
        center = point_loss(pred, gt, sigma, valid, dyn, cfg)
        windowed = losses._point_mean(cfg, gt, valid, w0)

        def loss(a):
            return point_loss(a["pred"], gt, a["sigma"], valid, dyn, cfg, frozen_weight=w0,
                              compute_grads=False).value
    return (windowed, loss, {"pred": pred, "sigma": sigma},
            {"pred": center.grad_points, "sigma": center.grad_sigma})


@pytest.mark.parametrize("cfg", _FD_CONFIGS,
                         ids=["no_grad_term", "gamma0", "gamma2", "dynamic", "none",
                              "offset", "depth"])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9))
def test_windowed_differences_equal_per_coordinate_reference(cfg, seed, n):
    # every central difference, not only the worst error, is bitwise that
    # of the loss evaluated on whole copies one coordinate at a time
    rng = np.random.default_rng(seed)
    for h, w in [(1, 1), (1, n), (n, 1), (2, 2), (8, 8)]:
        for valid in (rng.uniform(size=(h, w)) < 0.8, np.ones((h, w), bool),
                      np.zeros((h, w), bool)):
            windowed, loss, arrays, grads = _fd_instance(rng, cfg, h, w, valid)
            got = _recorded_differences(lambda: finite_diff_check(windowed, arrays, grads))
            want = _recorded_differences(lambda: _via_reference(loss, arrays, grads))
            assert got.size == want.size == h * w * (2 if cfg is None else 4)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (h, w)


def test_each_perturbed_copy_evaluates_at_most_nine_pixels(monkeypatch):
    # a deterministic work count: the point and depth checks evaluate the
    # terms of 3x3 windows, never of whole copies
    pixel_terms, batches = losses._pixel_terms, []

    def counted(e, sigma, *args):
        out = pixel_terms(e, sigma, *args)
        if sigma.ndim == 3:                      # a batch of perturbed copies
            batches.append(out[0].shape)
        return out
    monkeypatch.setattr(losses, "_pixel_terms", counted)
    gradient_check_suite(0, trials=1)
    assert batches and all(h * w <= 9 for _, h, w in batches)
    # one copy per ±h coordinate: three point checks of an 8x8x3 pred and
    # an 8x8 sigma, and the depth check of two 8x8 maps
    assert sum(n for n, _, _ in batches) == 2 * (3 * (192 + 64) + 2 * 64)


def test_windowed_harness_checks_sigma_on_perturbed_copies():
    # sigma is positive everywhere, but sigma - h is not at one pixel
    gt, sigma, valid = np.ones((3, 3)), np.ones((3, 3)), np.ones((3, 3), bool)
    sigma[1, 2] = 5e-6
    zero = np.zeros((3, 3))
    with pytest.raises(NonPositiveSigma):
        finite_diff_check(losses._depth_mean(gt, valid, 0.1), {"pred": gt + 0.5, "sigma": sigma},
                          {"pred": zero, "sigma": zero})


def test_windowed_harness_memory_bounded_by_block():
    # unblocked, the spliced terms of a 48x48 point instance would take
    # 9,216 coordinates x 2 copies x 2,304 pixels x 16 B = 680 MB
    tracemalloc.start()
    try:
        err = losses.check_point_loss_gradients(LossConfig(), seed=3, trials=1, size=48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err < 1e-4
    assert peak < 16e6


# ---------------------------------------------------------------------------
# batched losses equal per-slice calls bitwise

_BATCHES = [(), (1,), (3,), (2, 2)]


def _instance(seed, batch, h, w, channels, dtype, gt_batched, valid_batched):
    rng = np.random.default_rng(seed)
    core = (h, w, channels) if channels else (h, w)
    pred = rng.uniform(-1.0, 1.0, batch + core).astype(dtype)
    gt = rng.uniform(-1.0, 1.0, (batch if gt_batched else ()) + core)
    # exact ties make some residuals and gradient differences vanish
    pred[rng.uniform(size=pred.shape) < 0.1] = 0.25
    gt[rng.uniform(size=gt.shape) < 0.1] = 0.25
    sigma = rng.uniform(0.3, 2.0, batch + (h, w)).astype(dtype)
    valid = rng.uniform(size=(batch if valid_batched else ()) + (h, w)) < 0.8
    return rng, pred, gt, sigma, valid


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), batch=st.sampled_from(_BATCHES),
       h=st.integers(1, 16), w=st.integers(1, 16),
       dtype=st.sampled_from([np.float64, np.longdouble]), valid_batched=st.booleans())
def test_valid_mean_sums_each_copy_like_a_flat_gather(seed, batch, h, w, dtype, valid_batched):
    # spread magnitudes so that any other summation order rounds differently
    rng = np.random.default_rng(seed)
    per_pixel = (rng.standard_normal(batch + (h, w))
                 * 10.0 ** rng.integers(-6, 7, batch + (h, w))).astype(dtype)
    valid = rng.uniform(size=(batch if valid_batched else ()) + (h, w)) < 0.8
    value, scale = losses._valid_mean(per_pixel, valid)
    assert np.shape(value) == batch and scale.shape == batch + (1, 1)
    for idx in np.ndindex(*batch):
        v = valid[idx] if valid_batched else valid
        n = int(v.sum())
        assert value[idx] == (per_pixel[idx][v].sum() / n if n else 0.0)
        assert scale[idx] == 1.0 / max(n, 1)


def _assert_same(full, part, idx):
    assert full.value[idx] == part.value
    assert full.grad_points[idx].dtype == part.grad_points.dtype
    assert np.array_equal(full.grad_points[idx], part.grad_points)
    assert np.array_equal(full.grad_sigma[idx], part.grad_sigma)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), batch=st.sampled_from(_BATCHES),
       h=st.integers(1, 12), w=st.integers(1, 12),
       dtype=st.sampled_from([np.float64, np.longdouble]),
       gt_batched=st.booleans(), valid_batched=st.booleans(),
       mode=st.sampled_from(["focal", "dynamic", "none", "frozen"]),
       gamma=st.sampled_from([0.0, 1.0, 2.0]), grad_term=st.booleans())
def test_point_loss_batched_equals_per_slice(seed, batch, h, w, dtype, gt_batched,
                                             valid_batched, mode, gamma, grad_term):
    rng, pred, gt, sigma, valid = _instance(seed, batch, h, w, 3, dtype,
                                            gt_batched, valid_batched)
    dyn = rng.uniform(size=(h, w)) < 0.5
    frozen = rng.uniform(0.0, 3.0, (h, w, 3)) if mode == "frozen" else None
    cfg = LossConfig(weight_mode="focal" if mode == "frozen" else mode, gamma=gamma,
                     grad_term=grad_term)
    full = point_loss(pred, gt, sigma, valid, dyn, cfg, frozen_weight=frozen)
    assert np.shape(full.value) == batch
    for idx in np.ndindex(*batch):
        part = point_loss(pred[idx], gt[idx] if gt_batched else gt, sigma[idx],
                          valid[idx] if valid_batched else valid, dyn, cfg,
                          frozen_weight=frozen)
        _assert_same(full, part, idx)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), batch=st.sampled_from(_BATCHES),
       h=st.integers(1, 12), w=st.integers(1, 12),
       dtype=st.sampled_from([np.float64, np.longdouble]),
       gt_batched=st.booleans(), valid_batched=st.booleans(),
       alpha=st.sampled_from([0.0, 0.1, 2.0]))
def test_depth_loss_batched_equals_per_slice(seed, batch, h, w, dtype, gt_batched,
                                             valid_batched, alpha):
    _, pred, gt, sigma, valid = _instance(seed, batch, h, w, 0, dtype,
                                          gt_batched, valid_batched)
    full = depth_loss(pred, gt, sigma, valid, alpha)
    assert np.shape(full.value) == batch
    for idx in np.ndindex(*batch):
        part = depth_loss(pred[idx], gt[idx] if gt_batched else gt, sigma[idx],
                          valid[idx] if valid_batched else valid, alpha)
        _assert_same(full, part, idx)


def test_unbatched_value_is_numpy_scalar():
    p = np.zeros((2, 2, 3))
    out = point_loss(p + 0.5, p, np.ones((2, 2)), np.ones((2, 2), bool))
    assert isinstance(out.value, np.float64)
    out = depth_loss(p[..., 0], p[..., 0], np.ones((2, 2)), np.ones((2, 2), bool))
    assert isinstance(out.value, np.float64)
    assert isinstance(camera_loss(p + 0.5, p)[0], np.float64)


def test_camera_loss_batched_equals_per_slice():
    rng = np.random.default_rng(5)
    pred = rng.uniform(-2.0, 2.0, (4, 3, 9))
    gt = rng.uniform(-2.0, 2.0, (3, 9))
    value, grad = camera_loss(pred, gt, 0.7)
    assert value.shape == (4,) and grad.shape == pred.shape
    for i in range(4):
        v, g = camera_loss(pred[i], gt, 0.7)
        assert value[i] == v and np.array_equal(grad[i], g)
    with pytest.raises(ShapeMismatch):           # pred must end in gt's shape
        camera_loss(pred, gt[:, :8])
    with pytest.raises(ShapeMismatch):           # gt may not enlarge the batch
        camera_loss(pred[0], pred)


def test_batched_shape_errors():
    pred = np.zeros((2, 3, 3, 3))
    sigma = np.ones((2, 3, 3))
    valid = np.ones((3, 3), bool)
    with pytest.raises(ShapeMismatch):           # sigma must carry the batch axes
        point_loss(pred, np.zeros((3, 3, 3)), np.ones((3, 3)), valid)
    with pytest.raises(ShapeMismatch):           # gt may not enlarge the batch
        point_loss(pred, np.zeros((4, 2, 3, 3, 3)), sigma, valid)
    with pytest.raises(ShapeMismatch):           # valid must match (H, W)
        point_loss(pred, pred, sigma, np.ones((3, 1), bool))
    with pytest.raises(ShapeMismatch):
        point_loss(pred, pred, sigma, valid, frozen_weight=np.ones((3, 3, 1)))
    with pytest.raises(ShapeMismatch):
        depth_loss(pred[..., 0], pred[..., 0], sigma[:1], valid)



@np.errstate(all="ignore")
def test_harness_rejects_non_finite_derivatives():
    # a NaN relative error used to be skipped, so a NaN loss passed the check
    x = {"x": np.zeros(2)}
    with pytest.raises(NonFiniteDerivative):
        finite_diff_check(lambda a: np.full(len(a["x"]), np.nan), x, {"x": np.ones(2)})

    def square(a):
        return (a["x"] ** 2).sum(axis=-1)
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFiniteDerivative):
            finite_diff_check(square, x, {"x": np.array([0.0, bad])})
    assert finite_diff_check(square, x, {"x": np.zeros(2)}) == 0.0


@np.errstate(all="ignore")
def test_overflowing_config_fails_the_check():
    # beta * e overflows in the focal weight: the analytic gradient is NaN
    with pytest.raises(NonFiniteDerivative):
        gradient_check_suite(0, trials=1, cfg=LossConfig(beta=1e200, gamma=2.0))

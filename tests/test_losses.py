"""Loss values, analytic gradients, and configuration switches.

Expected numbers are hand-computed from the per-pixel form
sigma*||w ⊙ e|| + sigma*||∇e|| - alpha*ln(sigma), mean over valid pixels.
"""

import numpy as np
import pytest

from scene4d.errors import NonPositiveSigma, ShapeMismatch
from scene4d.losses import (LossConfig, camera_loss, check_camera_loss_gradients,
                            check_depth_loss_gradients,
                            check_point_loss_gradients, depth_loss,
                            finite_diff_check, focal_weight, point_loss,
                            spatial_gradient, total_loss)
from scene4d.rng import SplitMix64, derive_seed


def _ones(h=4, w=4):
    return np.ones((h, w))


def _valid(h=4, w=4):
    return np.ones((h, w), bool)


# ---------------------------------------------------------------------------
# spatial_gradient

def test_gradient_constant_map_is_zero():
    g = spatial_gradient(np.full((5, 6, 3), 2.5))
    assert np.array_equal(g, np.zeros((5, 6, 6)))


def test_gradient_of_column_ramp():
    u = np.tile(np.arange(6.0), (4, 1))          # map(u,v) = u
    g = spatial_gradient(u)
    du, dv = g[..., 0], g[..., 1]
    assert np.array_equal(du[:, :-1], np.ones((4, 5)))
    assert np.array_equal(du[:, -1], np.zeros(4))
    assert np.array_equal(dv, np.zeros((4, 6)))


def test_gradient_linearity_exact():
    # dyadic values so the additions themselves are exact in float64
    rng = SplitMix64(1)
    a = np.array([rng.randbelow(1024) for _ in range(48)]).reshape(4, 4, 3) / 256.0
    b = np.array([rng.randbelow(1024) for _ in range(48)]).reshape(4, 4, 3) / 256.0
    assert np.array_equal(spatial_gradient(a + b), spatial_gradient(a) + spatial_gradient(b))


def test_gradient_zeroed_at_invalid_pixels():
    m = np.arange(16.0).reshape(4, 4)
    valid = _valid()
    valid[1, 2] = False
    g = spatial_gradient(m, valid)
    assert g[1, 2, 0] == 0 and g[1, 2, 1] == 0      # differences at the pixel
    assert g[1, 1, 0] == 0                          # difference into the pixel
    assert g[0, 2, 1] == 0
    assert g[0, 0, 0] == 1.0                        # far away untouched


# ---------------------------------------------------------------------------
# focal_weight

def test_focal_weight_linear():
    w = focal_weight(np.array([[[0.5, 0.0, 0.0]]]), beta=2.0, gamma=1.0)
    assert np.array_equal(w, [[[1.0, 0.0, 0.0]]])


def test_focal_weight_gamma_zero_uniform():
    e = np.array([[[0.0, -3.0, 7.0]]])
    assert np.array_equal(focal_weight(e, 5.0, 0.0), np.ones((1, 1, 3)))


def test_focal_weight_even_symmetry():
    w = focal_weight(np.array([[[-0.5, 0.0, 0.0]]]), beta=2.0, gamma=2.0)
    assert np.array_equal(w, [[[1.0, 0.0, 0.0]]])


# ---------------------------------------------------------------------------
# point_loss

def test_point_loss_zero_residual():
    p = np.zeros((4, 4, 3))
    for alpha in (0.0, 0.1, 3.0):
        cfg = LossConfig(alpha=alpha)
        out = point_loss(p, p, _ones(), _valid(), cfg=cfg)
        assert out.value == 0.0
        # d(-alpha ln s)/ds at s=1 is -alpha, divided by the mean reduction
        assert np.allclose(out.grad_sigma, -alpha / 16.0)
        assert np.array_equal(out.grad_points, np.zeros((4, 4, 3)))


def test_point_loss_single_pixel_grad_sigma_is_minus_alpha():
    # with one valid pixel the mean reduction disappears
    p = np.zeros((1, 1, 3))
    out = point_loss(p, p, np.ones((1, 1)), np.ones((1, 1), bool),
                     cfg=LossConfig(alpha=0.7))
    assert out.grad_sigma[0, 0] == pytest.approx(-0.7, abs=1e-15)


def test_point_loss_dynamic_weight_is_exactly_1000x():
    # isolate the first term: alpha=0, no gradient term, single valid pixel
    cfg_dyn = LossConfig(alpha=0.0, weight_mode="dynamic", dynamic_weight=1000.0,
                         grad_term=False)
    pred = np.zeros((1, 1, 3))
    gt = np.full((1, 1, 3), 0.25)
    sigma = np.ones((1, 1))
    valid = np.ones((1, 1), bool)
    static = point_loss(pred, gt, sigma, valid, np.zeros((1, 1), bool), cfg_dyn)
    dynamic = point_loss(pred, gt, sigma, valid, np.ones((1, 1), bool), cfg_dyn)
    assert dynamic.value == 1000.0 * static.value


def test_point_loss_focal_none_coincide_at_gamma_zero():
    rng = SplitMix64(4)
    pred = np.array([rng.uniform() for _ in range(48)]).reshape(4, 4, 3)
    gt = np.array([rng.uniform() for _ in range(48)]).reshape(4, 4, 3)
    a = point_loss(pred, gt, _ones(), _valid(), cfg=LossConfig(weight_mode="focal",
                                                               beta=9.0, gamma=0.0))
    b = point_loss(pred, gt, _ones(), _valid(), cfg=LossConfig(weight_mode="none"))
    assert a.value == b.value
    assert np.array_equal(a.grad_points, b.grad_points)


def _dyadic(rng, shape, scale=4096, span=8192):
    n = int(np.prod(shape))
    ints = np.array([rng.randbelow(2 * span) - span for _ in range(n)])
    return (ints / scale).reshape(shape)


def test_point_loss_offset_endpoint_equivalence_bitwise():
    # dyadic grids keep the +P^t shift exact in float64, so the two
    # representations see bit-identical residuals
    rng = SplitMix64(88)
    for _ in range(10):
        o_hat = _dyadic(rng, (4, 4, 3))
        o = _dyadic(rng, (4, 4, 3))
        p_t = _dyadic(rng, (4, 4, 3), scale=16, span=64)
        sigma = 0.25 + np.abs(_dyadic(rng, (4, 4)))
        valid = _valid()
        cfg_off = LossConfig(representation="offset")
        cfg_end = LossConfig(representation="endpoint")
        a = point_loss(o_hat, o, sigma, valid, cfg=cfg_off)
        b = point_loss(o_hat + p_t, o + p_t, sigma, valid, cfg=cfg_end)
        assert a.value == b.value
        assert np.array_equal(a.grad_points, b.grad_points)
        assert np.array_equal(a.grad_sigma, b.grad_sigma)


def test_point_loss_invalid_pixels_contribute_nothing():
    rng = SplitMix64(21)
    pred = np.array([rng.uniform() for _ in range(48)]).reshape(4, 4, 3)
    gt = np.array([rng.uniform() for _ in range(48)]).reshape(4, 4, 3)
    sigma = 0.5 + np.array([rng.uniform() for _ in range(16)]).reshape(4, 4)
    valid = _valid()
    valid[0, 0] = valid[2, 3] = False
    base = point_loss(pred, gt, sigma, valid)
    pred2 = pred.copy()
    pred2[0, 0] = np.inf        # invalid pixels may hold any garbage
    pred2[2, 3] = np.nan
    sigma2 = sigma.copy()
    sigma2[0, 0] = -5.0
    out = point_loss(pred2, gt, sigma2, valid)
    assert out.value == base.value
    assert np.array_equal(out.grad_points, base.grad_points)
    assert np.array_equal(out.grad_sigma, base.grad_sigma)
    assert np.all(out.grad_points[~valid] == 0)


def test_point_loss_monotone_in_residual_without_grad_term():
    rng = SplitMix64(30)
    cfg = LossConfig(grad_term=False)
    pred = np.array([rng.uniform() for _ in range(48)]).reshape(4, 4, 3)
    gt = np.array([rng.uniform() for _ in range(48)]).reshape(4, 4, 3)
    prev = None
    for c in (1.0, 1.5, 2.0, 5.0):
        scaled = gt.copy()
        scaled[2, 2] = gt[2, 2] + c * (pred[2, 2] - gt[2, 2])
        val = point_loss(scaled, gt, _ones(), _valid(), cfg=cfg).value
        if prev is not None:
            assert val >= prev
        prev = val


def test_point_loss_monotone_for_isolated_residual_with_grad_term():
    # one nonzero residual surrounded by exact matches: both terms grow with c
    pred = np.zeros((4, 4, 3))
    gt = np.zeros((4, 4, 3))
    prev = None
    for c in (0.1, 0.4, 1.0, 3.0):
        p = pred.copy()
        p[1, 1] = [c, 0, 0]
        val = point_loss(p, gt, _ones(), _valid(), cfg=LossConfig()).value
        if prev is not None:
            assert val > prev
        prev = val


def test_point_loss_errors():
    p = np.zeros((2, 2, 3))
    with pytest.raises(ShapeMismatch):
        point_loss(p, np.zeros((3, 2, 3)), _ones(2, 2), _valid(2, 2))
    with pytest.raises(NonPositiveSigma):
        point_loss(p, p, np.zeros((2, 2)), _valid(2, 2))


# ---------------------------------------------------------------------------
# camera / depth / total

def test_camera_loss_values():
    g = np.arange(9.0)
    assert camera_loss(g, g)[0] == 0.0
    v, grad = camera_loss(np.array([0.5]), np.array([0.0]), huber_eps=1.0)
    assert v == pytest.approx(0.125, abs=1e-15)       # 0.5 * 0.25
    assert grad[0] == pytest.approx(0.5)
    v, grad = camera_loss(np.array([2.0]), np.array([0.0]), huber_eps=1.0)
    assert v == pytest.approx(1.5, abs=1e-15)         # 1 * (2 - 0.5)
    assert grad[0] == pytest.approx(1.0)


def test_camera_loss_sums_over_frames():
    pred = np.array([[0.5, 0, 0, 0, 0, 0, 0, 0, 0],
                     [2.0, 0, 0, 0, 0, 0, 0, 0, 0]])
    gt = np.zeros((2, 9))
    assert camera_loss(pred, gt)[0] == pytest.approx(0.125 + 1.5, abs=1e-15)


def test_depth_loss_zero_and_constant_error():
    d = np.full((4, 4), 2.0)
    assert depth_loss(d, d, _ones(), _valid()).value == 0.0
    # constant offset on a constant map: gradient term vanishes
    out = depth_loss(d + 0.3, d, _ones(), _valid(), alpha=0.0)
    assert out.value == pytest.approx(0.3, abs=1e-15)


def test_depth_loss_linear_in_sigma():
    rng = SplitMix64(14)
    pred = 1 + np.array([rng.uniform() for _ in range(16)]).reshape(4, 4)
    gt = 1 + np.array([rng.uniform() for _ in range(16)]).reshape(4, 4)
    v1 = depth_loss(pred, gt, _ones(), _valid(), alpha=0.0).value
    v2 = depth_loss(pred, gt, 2 * _ones(), _valid(), alpha=0.0).value
    assert v2 == pytest.approx(2 * v1, rel=1e-12)


def test_total_loss_combination():
    assert total_loss(0.0, 0.0, 0.0, lam=3.0) == 0.0
    assert total_loss(1.5, 2.0, 0.5, lam=2.0) == pytest.approx(5.5)
    assert total_loss(1.5, 2.0, 0.5, lam=1.0) == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# finite differences

def test_finite_diff_exact_for_linear_loss():
    rng = SplitMix64(40)
    x = np.array([rng.uniform() for _ in range(12)]).reshape(4, 3)

    def value_fn(arrs):
        return arrs["x"].sum(axis=(1, 2))

    err = finite_diff_check(value_fn, {"x": x}, {"x": np.ones((4, 3))}, h=1e-5)
    assert err < 1e-10


def test_finite_diff_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_diff_check(lambda a: np.zeros(len(a["x"])), {"x": np.zeros(1)},
                          {"x": np.zeros(1)}, h=1.0)


@pytest.mark.parametrize("mode", ["focal", "dynamic", "none"])
def test_point_loss_gradients_small(mode):
    err = check_point_loss_gradients(LossConfig(weight_mode=mode), seed=5, trials=8)
    assert err < 1e-4


def test_point_loss_gradients_no_grad_term():
    err = check_point_loss_gradients(LossConfig(grad_term=False), seed=6, trials=8)
    assert err < 1e-4


def test_depth_and_camera_gradients_small():
    assert check_depth_loss_gradients(seed=7, trials=8) < 1e-4
    assert check_camera_loss_gradients(seed=8, trials=20) < 1e-6


def test_depth_gradient_error_at_loss_check_seed_1031_is_truncation():
    # `loss-check --trials 10 --seed 1031` reports a depth error above 1e-4
    # at the default h = 1e-5. Its worst entry, pred[0, 1] of the 7th
    # instance, has a gradient of only -6.7e-7, so the central difference's
    # O(h^2) truncation is large next to it; the analytic gradient is
    # right, as the error falls about 100-fold when h does 10-fold.
    seed = derive_seed(1031, 4)
    at_1e5 = check_depth_loss_gradients(seed, 0.1, 10, 1e-5)
    at_1e6 = check_depth_loss_gradients(seed, 0.1, 10, 1e-6)
    assert at_1e6 < 1e-5
    assert 50 * at_1e6 <= at_1e5

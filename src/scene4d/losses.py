"""Training objectives with analytic gradients and a finite-difference
self-check harness.

The point loss per valid pixel is

    sigma * ||w ⊙ e||_2  +  sigma * ||∇pred - ∇gt||_2  -  alpha * ln(sigma)

with e = pred - gt, w the focal weight |beta * e|^gamma (or a dynamic /
uniform weight depending on the configuration), reduced by the mean over
valid pixels. The weight w is detached: it scales residuals but
contributes no gradient of its own. All returned gradients are gradients
of the reduced scalar value, so they can be compared directly against
central finite differences of that value.

The offset representation (supervising displacements to the target frame
instead of endpoint coordinates) shares this exact compute path; only the
interpretation of the inputs changes, which is what makes the two
representations equivalent under a common translation of prediction and
ground truth.

The per-pixel terms of the point and depth losses come from one function,
`_pixel_terms`, and the term of pixel (v, u) reads only (v, u), its right
neighbour and the one below. The finite-difference checks use this local
form: moving one coordinate of pixel (v, u) changes only the terms of
(v, u), (v, u-1) and (v-1, u), so each ±h copy is evaluated on the 3x3
window around its pixel and those three terms are spliced into the
unperturbed ones. The spliced terms go through the same `_valid_mean` as a
whole copy's, which sums each copy's valid pixels in one fixed order, and
every term is computed by the same elementwise and per-pixel operations as
in the whole copy; so each central difference is bitwise the one of
evaluating the whole perturbed image.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import BadArgument, NonFiniteDerivative, NonPositiveSigma, ShapeMismatch
from .rng import SplitMix64, derive_seed

WEIGHT_MODES = ("focal", "dynamic", "none")
REPRESENTATIONS = ("endpoint", "offset")


@dataclass
class LossConfig:
    """Ablation axes and coefficients of the multi-task objective."""

    alpha: float = 0.1            # log-uncertainty coefficient
    beta: float = 1.0             # focal weight scale
    gamma: float = 1.0            # focal weight exponent
    huber_eps: float = 1.0
    weight_mode: str = "focal"
    dynamic_weight: float = 1000.0
    representation: str = "endpoint"
    grad_term: bool = True

    def __post_init__(self):
        # NaN would pass every range check below
        if not np.all(np.isfinite([self.alpha, self.beta, self.gamma,
                                   self.huber_eps, self.dynamic_weight])):
            raise ValueError("alpha, beta, gamma, huber_eps, dynamic_weight must be finite")
        if self.alpha < 0 or self.beta < 0 or self.gamma < 0:
            raise ValueError("alpha, beta, gamma must be non-negative")
        if self.huber_eps <= 0:
            raise ValueError("huber_eps must be positive")
        if self.dynamic_weight < 1:
            raise ValueError("dynamic_weight must be >= 1")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}")
        if self.representation not in REPRESENTATIONS:
            raise ValueError(f"representation must be one of {REPRESENTATIONS}")


@dataclass
class LossValue:
    value: float | np.ndarray  # batch shape; a numpy scalar when unbatched
    grad_points: np.ndarray    # same shape as the prediction
    grad_sigma: np.ndarray     # (..., H, W)


def spatial_gradient(arr: np.ndarray, valid: np.ndarray | None = None) -> np.ndarray:
    """Forward differences along u (columns) then v (rows), channel-stacked.

    (..., H, W, C) -> (..., H, W, 2C) laid out [du channels, dv channels];
    a plain 2-D (H, W) map is treated as C = 1, so a batch of scalar maps
    needs an explicit trailing channel axis. Differences in the last
    column/row and differences involving an invalid pixel are zero; the
    (..., H, W) `valid` mask broadcasts against the map's leading axes.
    """
    a = np.asarray(arr)
    a = a.astype(np.result_type(a.dtype, np.float64), copy=False)
    if a.ndim == 2:
        a = a[..., None]
    c = a.shape[-1]
    out = np.zeros(a.shape[:-1] + (2 * c,), dtype=a.dtype)
    with np.errstate(invalid="ignore"):  # invalid pixels may hold inf/nan
        out[..., :, :-1, :c] = a[..., :, 1:, :] - a[..., :, :-1, :]
        out[..., :-1, :, c:] = a[..., 1:, :, :] - a[..., :-1, :, :]
    if valid is not None:
        valid = np.asarray(valid, dtype=bool)
        np.copyto(out[..., :, :-1, :c], 0.0,
                  where=~(valid[..., :, :-1] & valid[..., :, 1:])[..., None])
        np.copyto(out[..., :-1, :, c:], 0.0,
                  where=~(valid[..., :-1, :] & valid[..., 1:, :])[..., None])
    return out


def focal_weight(e: np.ndarray, beta: float, gamma: float) -> np.ndarray:
    """Elementwise |beta * e|^gamma, with gamma = 0 meaning uniform weights
    (0^0 := 1)."""
    if beta < 0 or gamma < 0:
        raise ValueError("beta and gamma must be non-negative")
    e = np.asarray(e, dtype=np.float64)
    if gamma == 0:
        return np.ones_like(e)
    return np.abs(beta * e) ** gamma


def _fits(shape: tuple, target: tuple, core: int) -> bool:
    """True when `shape` ends in target's last `core` axes and broadcasts
    to `target` without enlarging it."""
    return (core <= len(shape) <= len(target)
            and shape[len(shape) - core:] == target[len(target) - core:]
            and all(a in (1, b) for a, b in zip(reversed(shape), reversed(target))))


def _check_positive_sigma(sigma, valid):
    s = sigma[np.broadcast_to(valid, sigma.shape)]
    if s.size and not np.all(np.isfinite(s) & (s > 0)):
        raise NonPositiveSigma("uncertainty must be positive and finite on valid pixels")


def _residual(pred, gt, mask) -> np.ndarray:
    """pred - gt where `mask`, 0 elsewhere (invalid pixels may hold inf/nan)."""
    with np.errstate(invalid="ignore"):
        return np.where(mask, pred - gt, 0.0)


def _promote(a) -> np.ndarray:
    """At least float64, but keep extended precision if the caller passed it.

    The finite-difference harness evaluates losses in longdouble so the
    central difference of a large loss value does not drown a small
    gradient in rounding noise.
    """
    a = np.asarray(a)
    return a.astype(np.result_type(a.dtype, np.float64), copy=False)


def _valid_mean(per_pixel: np.ndarray, valid: np.ndarray):
    """Mean of each copy's (..., H, W) per-pixel terms over its valid pixels.

    Returns (value, scale): value has the batch shape (a numpy scalar when
    unbatched) and scale is 1 / count shaped (..., 1, 1), which turns
    per-pixel derivatives into derivatives of the mean. A copy without
    valid pixels has value 0 and count 1; its per-pixel terms are masked.
    Each copy's valid pixels are summed as one C-ordered row, which is the
    order an unbatched call sums them in, so every copy is bitwise equal
    to its unbatched call; numpy sums a strided gather in another order.
    """
    batch = per_pixel.shape[:-2]
    flat = per_pixel.reshape(-1, per_pixel.shape[-2] * per_pixel.shape[-1])
    mask = np.broadcast_to(valid, per_pixel.shape).reshape(flat.shape)
    counts = mask.sum(axis=-1)
    sums = np.zeros(len(flat), dtype=per_pixel.dtype)
    for c in np.unique(counts[counts > 0]):  # one pass per distinct count
        rows = counts == c
        sums[rows] = flat[rows][mask[rows]].reshape(-1, c).sum(axis=-1)
    n = np.maximum(counts, 1).reshape(batch)
    return (sums.reshape(batch) / n)[()], (1.0 / n)[..., None, None]


def _grad_term_adjoint(coef: np.ndarray, diff: np.ndarray, n_channels: int) -> np.ndarray:
    """Backpropagate coef[...,None] * diff through the forward differences.

    diff is (..., H, W, 2C) as produced by spatial_gradient of the
    prediction; the entry at (v, u) adds +1 to pixel (v, u+1) / (v+1, u)
    and -1 to (v, u) per channel.
    """
    g = coef[..., None] * diff
    gu = g[..., :n_channels]
    gv = g[..., n_channels:]
    out = np.zeros(diff.shape[:-1] + (n_channels,))
    out -= gu
    out[..., :, 1:, :] += gu[..., :, :-1, :]
    out -= gv
    out[..., 1:, :, :] += gv[..., :-1, :, :]
    return out


def _residual_weight(cfg: LossConfig, e: np.ndarray,
                     dynamic_mask: np.ndarray | None) -> np.ndarray:
    """The detached (..., H, W, 3) weight of residual e under cfg.weight_mode."""
    if cfg.weight_mode == "focal":
        return focal_weight(e, cfg.beta, cfg.gamma)
    if cfg.weight_mode == "dynamic":
        dm = np.zeros(e.shape[:-1], bool) if dynamic_mask is None \
            else np.asarray(dynamic_mask, bool)
        return np.where(dm, cfg.dynamic_weight, 1.0)[..., None] * np.ones(3)
    return np.ones_like(e)


def _pixel_terms(e, sigma, valid, alpha, w=None, grad_term=True):
    """Per-pixel terms sigma * data + sigma * ||∇e||_2 - alpha * ln(sigma) of
    point_loss and depth_loss, before the mean over valid pixels.

    e is the masked residual: (..., H, W, 3) with `w` its detached weight
    and data = ||w ⊙ e||_2 (point loss), or (..., H, W) with w None and
    data = |e| (depth loss, which always has the gradient term). sigma and
    valid are (..., H, W), valid broadcasting. The term of pixel (v, u)
    reads e and sigma only at (v, u), (v, u+1) and (v+1, u). Returns
    (terms, data, diff, n2): diff the spatial gradient of e (None without
    the gradient term) and n2 its per-pixel norm, which the gradients reuse.
    """
    _check_positive_sigma(sigma, valid)
    if w is None:
        data, diff = np.abs(e), spatial_gradient(e[..., None], valid)
    else:
        we = w * e
        data = np.sqrt(np.sum(we * we, axis=-1))        # per-pixel weighted norm
        # forward differencing is linear, so one pass over the masked residual
        # equals the difference of the two gradient fields
        diff = spatial_gradient(e, valid) if grad_term else None
    n2 = 0.0 if diff is None else np.sqrt(np.sum(diff * diff, axis=-1))
    log_sig = np.where(valid, np.log(np.where(valid, sigma, 1.0)), 0.0)
    return sigma * data + sigma * n2 - alpha * log_sig, data, diff, n2


def _uncertain_mean(parts, sigma, valid, alpha, compute_grads, data_grad) -> LossValue:
    """Mean over valid pixels of the `_pixel_terms` result `parts`, and its
    gradients: the tail of point_loss and depth_loss.

    data_grad(data, scale) is the data term's gradient of the mean, called
    only for compute_grads.
    """
    per_pixel, data, diff, n2 = parts
    value, scale = _valid_mean(per_pixel, valid)  # keeps input precision
    if not compute_grads:
        return LossValue(value, None, None)
    grad_pred = data_grad(data, scale)
    if diff is not None:
        coef2 = np.where(valid & (n2 > 0), sigma / np.where(n2 > 0, n2, 1.0), 0.0) * scale
        grad_pred = grad_pred + _grad_term_adjoint(
            coef2, diff, diff.shape[-1] // 2).reshape(grad_pred.shape)
    grad_sigma = np.where(valid, (data + n2 - alpha / np.where(valid, sigma, 1.0)) * scale, 0.0)
    return LossValue(value, grad_pred, grad_sigma)


def point_loss(pred: np.ndarray, gt: np.ndarray, sigma: np.ndarray,
               valid: np.ndarray, dynamic_mask: np.ndarray | None = None,
               cfg: LossConfig | None = None,
               frozen_weight: np.ndarray | None = None,
               compute_grads: bool = True) -> LossValue:
    """Uncertainty-weighted point-map loss with switchable residual weighting.

    pred is a (..., H, W, 3) map (endpoint coordinates, or offsets when
    cfg.representation == "offset") and sigma the (..., H, W) positive
    uncertainty, with the same leading batch axes; gt, valid, dynamic_mask
    (which feeds the dynamic weight mode) and `frozen_weight` broadcast
    against them. Every copy along the batch axes gets bitwise the value
    and gradients of an unbatched call on it; `value` has the batch shape
    and is a numpy scalar when unbatched.
    `frozen_weight` overrides the residual weight (used by the
    finite-difference harness, which must hold the detached weight fixed).
    """
    cfg = cfg or LossConfig()
    pred = _promote(pred)
    gt = _promote(gt)
    sigma = _promote(sigma)
    valid = np.asarray(valid, dtype=bool)
    if pred.ndim < 3 or pred.shape[-1] != 3 or sigma.shape != pred.shape[:-1] \
            or not _fits(gt.shape, pred.shape, 3) or not _fits(valid.shape, sigma.shape, 2):
        raise ShapeMismatch("pred (...,H,W,3) and sigma (...,H,W) required, "
                            "gt and valid must broadcast to them")
    if dynamic_mask is not None and not _fits(np.shape(dynamic_mask), sigma.shape, 2):
        raise ShapeMismatch("dynamic_mask must broadcast to the valid mask")
    if frozen_weight is not None and not _fits(np.shape(frozen_weight), pred.shape, 3):
        raise ShapeMismatch("frozen_weight must broadcast to the residual shape")

    e = _residual(pred, gt, valid[..., None])
    w = _residual_weight(cfg, e, dynamic_mask) if frozen_weight is None \
        else _promote(frozen_weight)

    def data_grad(n1, scale):
        coef1 = np.where(valid & (n1 > 0), sigma / np.where(n1 > 0, n1, 1.0), 0.0) * scale
        return coef1[..., None] * (w * w * e)
    return _uncertain_mean(_pixel_terms(e, sigma, valid, cfg.alpha, w, cfg.grad_term),
                           sigma, valid, cfg.alpha, compute_grads, data_grad)


def depth_loss(pred: np.ndarray, gt: np.ndarray, sigma: np.ndarray,
               valid: np.ndarray, alpha: float = 0.1,
               compute_grads: bool = True) -> LossValue:
    """Aleatoric-uncertainty depth loss: sigma*|e| + sigma*||∇e||_2 - alpha*ln(sigma),
    mean over valid pixels.

    pred and sigma are (..., H, W) with the same leading batch axes; gt and
    valid broadcast against them. Batching follows point_loss.
    """
    pred = _promote(pred)
    gt = _promote(gt)
    sigma = _promote(sigma)
    valid = np.asarray(valid, dtype=bool)
    if pred.ndim < 2 or sigma.shape != pred.shape or not _fits(gt.shape, pred.shape, 2) \
            or not _fits(valid.shape, pred.shape, 2):
        raise ShapeMismatch("pred/sigma (...,H,W) required, gt and valid must broadcast to them")

    e = _residual(pred, gt, valid)
    return _uncertain_mean(_pixel_terms(e, sigma, valid, alpha), sigma, valid, alpha,
                           compute_grads,
                           lambda data, scale: np.where(valid, sigma * np.sign(e), 0.0) * scale)


def camera_loss(pred_g: np.ndarray, gt_g: np.ndarray, huber_eps: float = 1.0):
    """Per-component Huber loss between camera vectors -> (value, grad wrt pred).

    Sums over gt_g's axes, which pred_g must end in; pred_g's axes before
    them are batch axes, and `value` has their shape (a numpy scalar when
    the shapes match).
    """
    if huber_eps <= 0:
        raise ValueError("huber_eps must be positive")
    pred_g = _promote(pred_g)
    gt_g = _promote(gt_g)
    if pred_g.shape[pred_g.ndim - gt_g.ndim:] != gt_g.shape:
        raise ShapeMismatch("pred camera vectors must end in the gt shape")
    r = pred_g - gt_g
    small = np.abs(r) <= huber_eps
    per = np.where(small, 0.5 * r * r, huber_eps * (np.abs(r) - 0.5 * huber_eps))
    grad = np.where(small, r, huber_eps * np.sign(r))
    return per.sum(axis=tuple(range(-gt_g.ndim, 0))), grad


# ---------------------------------------------------------------------------
# finite-difference verification

def relative_gradient_error(analytic, numeric):
    """|a - n| / max(1e-8, |a| + |n|), elementwise on arrays."""
    return np.abs(analytic - numeric) / np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))


# Longdouble elements per block of finite-difference copies (2 MiB): the
# copies' perturbed arrays, or on the windowed path their spliced terms.
# It bounds the harness's memory whatever the array size. The 8x8
# instances of the check helpers fit one block per array.
FD_BLOCK_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class _PixelMean:
    """A loss value function that is the mean over `valid` (H, W) pixels of
    per-pixel terms, where the term of pixel (v, u) reads its (H, W, ...)
    input maps only at (v, u), (v, u+1) and (v+1, u).

    terms(maps, valid) returns the (..., H, W) terms of the maps, which hold
    `fixed` (the maps held fixed, such as gt) and the perturbed ones. Called
    like any value_fn it returns the loss of each whole copy;
    finite_diff_check evaluates `terms` on 3x3 windows instead.
    """
    terms: object
    valid: np.ndarray
    fixed: dict

    def __call__(self, arrays: dict):
        return _valid_mean(self.terms({**self.fixed, **arrays}, self.valid), self.valid)[0]


def _point_mean(cfg: LossConfig, gt, valid, w) -> _PixelMean:
    """point_loss's value under cfg with its residual weight frozen at w."""
    def terms(a, ok):
        return _pixel_terms(_residual(a["pred"], a["gt"], ok[..., None]), a["sigma"], ok,
                            cfg.alpha, a["w"], cfg.grad_term)[0]
    return _PixelMean(terms, valid, {"gt": gt, "w": w})


def _depth_mean(gt, valid, alpha: float) -> _PixelMean:
    """depth_loss's value."""
    def terms(a, ok):
        return _pixel_terms(_residual(a["pred"], a["gt"], ok), a["sigma"], ok, alpha)[0]
    return _PixelMean(terms, valid, {"gt": gt})


def finite_diff_check(value_fn, arrays: dict, grads: dict, h: float = 1e-5) -> float:
    """Max relative error between central differences of value_fn and the
    supplied analytic gradients.

    Every coordinate of every array named in `grads` is perturbed by ±h.
    value_fn receives the dict of arrays, each with a leading copy axis
    (unperturbed arrays as read-only broadcast views), and returns the
    loss of each copy. The ±h copies are evaluated a block at a time, at
    most FD_BLOCK_ELEMENTS perturbed elements (and at least one ± pair)
    per call. Whatever should be held fixed during perturbation (e.g. the
    detached focal weight) must be baked into value_fn. A `_PixelMean`
    value_fn (the point and depth checks) is evaluated on windows, see
    `_window_values`.
    Raises NonFiniteDerivative when an analytic or central-difference
    derivative (or their relative error) is NaN or infinite.
    """
    if not (1e-7 <= h <= 1e-3):
        raise BadArgument(f"h must lie in [1e-7, 1e-3], not {h}")
    worst = 0.0
    # extended precision keeps the difference of two near-equal loss values
    # meaningful even when the loss is large and the gradient small
    work = {k: np.array(v, dtype=np.longdouble) for k, v in arrays.items()}
    h = np.longdouble(h)
    values_of = _window_values(value_fn, work) if isinstance(value_fn, _PixelMean) \
        else functools.partial(_copy_values, value_fn, work)
    for name, g in grads.items():
        gflat = np.asarray(g, dtype=np.float64).reshape(-1)
        if gflat.size != work[name].size:
            raise ShapeMismatch(f"gradient of {name!r} has {gflat.size} entries, "
                                f"the array {work[name].size}")
        for idx, values in values_of(name, h):
            numeric = ((values[0::2] - values[1::2]) / (2.0 * h)).astype(np.float64)
            errs = relative_gradient_error(gflat[idx], numeric)
            # a NaN error would be skipped by any max and pass the check
            if not np.all(np.isfinite(errs)):
                raise NonFiniteDerivative(f"a derivative of {name!r} is not finite")
            worst = float(np.max(errs, initial=worst))
    return worst


def _copy_values(value_fn, work: dict, name: str, h):
    """Yields (idx, values) per block of coordinates idx of work[name]:
    values[2j] and values[2j+1] are value_fn at the +h and -h copies of
    coordinate idx[j], each copy a whole set of arrays."""
    shape = work[name].shape
    base = work[name].reshape(-1)
    per_block = max(1, FD_BLOCK_ELEMENTS // (2 * max(base.size, 1)))
    # row 2j holds the +h copy and row 2j+1 the -h copy of coordinate j
    # of the current block; only those entries change between blocks
    stack = np.repeat(base[None], 2 * min(per_block, base.size), axis=0)
    for start in range(0, base.size, per_block):
        idx = np.arange(start, min(start + per_block, base.size))
        rows = np.arange(2 * len(idx))
        stack[rows[0::2], idx] = base[idx] + h
        stack[rows[1::2], idx] = base[idx] - h
        copies = stack[:len(rows)].reshape((len(rows),) + shape)
        batch = {k: np.broadcast_to(v, copies.shape[:1] + v.shape) for k, v in work.items()}
        values = np.asarray(value_fn({**batch, name: copies}))
        if values.shape != copies.shape[:1]:
            raise ShapeMismatch("value_fn must return one value per copy")
        stack[rows[0::2], idx] = stack[rows[1::2], idx] = base[idx]
        yield idx, values


def _window_values(fn: _PixelMean, work: dict):
    """The `_copy_values` of a `_PixelMean`, bitwise, from 3x3 windows, as
    a function of (name, h).

    A coordinate of pixel (v, u) moves only the terms of (v, u), (v, u-1)
    and (v-1, u). So each ±h copy is the 3x3 window around its pixel, cut
    from the maps padded by one invalid pixel (whose differences are zero,
    like the border's). The three terms evaluated there replace their
    pixels' in the unperturbed terms, and `_valid_mean` reduces the
    spliced terms, summing every copy's valid pixels in the order of the
    whole copy, so each value is bitwise that of the whole copy. At most
    FD_BLOCK_ELEMENTS spliced terms are held at a time.
    """
    maps = {**fn.fixed, **work}
    if any(np.shape(a)[:2] != np.shape(fn.valid) for a in maps.values()):
        raise ShapeMismatch("a pixel mean's maps must be (H, W, ...) like its valid mask")

    def pad(a):
        a = np.asarray(a)
        out = np.zeros((a.shape[0] + 2, a.shape[1] + 2) + a.shape[2:], a.dtype)
        out[1:-1, 1:-1] = a
        return out
    padded = {k: pad(a) for k, a in maps.items()}
    ok = pad(np.asarray(fn.valid, dtype=bool))
    base_terms = fn.terms(padded, ok)
    per_block = max(1, FD_BLOCK_ELEMENTS // (2 * ok.size))
    offsets = np.arange(3)
    moved = ((1, 1), (1, 0), (0, 1))   # window positions of the pixel, left, above

    def values_of(name, h):
        base = work[name].reshape(-1)
        per_pixel = int(np.prod(work[name].shape[2:]))  # coordinates per pixel
        spliced = np.repeat(base_terms[None], 2 * min(per_block, base.size), axis=0)
        for start in range(0, base.size, per_block):
            idx = np.arange(start, min(start + per_block, base.size))
            # row 2j is the +h copy and row 2j+1 the -h copy of coordinate j;
            # (v, u) is its pixel's top-left window corner in the padded maps
            v, u = np.divmod(np.repeat(idx // per_pixel, 2), ok.shape[1] - 2)
            rows = np.arange(len(v))
            at = (v[:, None, None] + offsets[:, None], u[:, None, None] + offsets)
            windows = {k: a[at] for k, a in padded.items()}
            flat = windows[name].reshape(len(rows), -1)
            centre = 4 * per_pixel + idx % per_pixel
            flat[rows[0::2], centre] = base[idx] + h
            flat[rows[1::2], centre] = base[idx] - h
            terms = fn.terms(windows, ok[at])
            for dv, du in moved:
                spliced[rows, v + dv, u + du] = terms[:, dv, du]
            values = _valid_mean(spliced[:len(rows)], ok)[0]
            for dv, du in moved:
                spliced[rows, v + dv, u + du] = base_terms[v + dv, u + du]
            yield idx, values
    return values_of


def _uniform_array(rng: SplitMix64, shape, lo: float, hi: float) -> np.ndarray:
    return (lo + (hi - lo) * rng.uniform_array(int(np.prod(shape)))).reshape(shape)


def _signed_residual(rng: SplitMix64, shape) -> np.ndarray:
    """Residual channels with magnitude in [0.1, 1] and random sign.

    The point and depth losses are non-differentiable where a residual
    norm vanishes; keeping every channel away from zero keeps the central
    difference interval inside the smooth region, where the comparison is
    meaningful.
    """
    mag = _uniform_array(rng, shape, 0.1, 1.0)
    sign = np.where(_uniform_array(rng, shape, 0.0, 1.0) < 0.5, -1.0, 1.0)
    return mag * sign


def _random_point_instance(rng: SplitMix64, h: int = 8, w: int = 8):
    gt = _uniform_array(rng, (h, w, 3), -1.0, 1.0)
    pred = gt + _signed_residual(rng, (h, w, 3))
    sigma = _uniform_array(rng, (h, w), 0.3, 2.0)
    valid = _uniform_array(rng, (h, w), 0.0, 1.0) > 0.15
    dyn = _uniform_array(rng, (h, w), 0.0, 1.0) > 0.5
    return pred, gt, sigma, valid, dyn


def _worst_fd_error(seed: int, trials: int, h: float, instance) -> float:
    """Max relative FD error of a loss's gradients over `trials` random
    instances.

    instance(rng) draws one and returns finite_diff_check's
    (value_fn, arrays, grads); value_fn holds fixed whatever the perturbed
    calls must not move (the detached weight).
    """
    if trials < 1:
        raise BadArgument(f"trials must be >= 1, not {trials}")
    rng = SplitMix64(seed)
    worst = 0.0
    for _ in range(trials):
        worst = max(worst, finite_diff_check(*instance(rng), h))
    return worst


def check_point_loss_gradients(cfg: LossConfig, seed: int, trials: int = 100,
                               h: float = 1e-5, size: int = 8) -> float:
    """Max relative FD error of point_loss gradients over random instances."""
    def instance(rng):
        pred, gt, sigma, valid, dyn = _random_point_instance(rng, size, size)
        # freeze the detached weight at the center point
        w0 = _residual_weight(cfg, _residual(pred, gt, valid[..., None]), dyn)
        center = point_loss(pred, gt, sigma, valid, dyn, cfg)
        return (_point_mean(cfg, gt, valid, w0), {"pred": pred, "sigma": sigma},
                {"pred": center.grad_points, "sigma": center.grad_sigma})
    return _worst_fd_error(seed, trials, h, instance)


def check_depth_loss_gradients(seed: int, alpha: float = 0.1, trials: int = 100,
                               h: float = 1e-5, size: int = 8) -> float:
    def instance(rng):
        gt = _uniform_array(rng, (size, size), 0.5, 3.0)
        pred = gt + _signed_residual(rng, (size, size))
        sigma = _uniform_array(rng, (size, size), 0.3, 2.0)
        valid = _uniform_array(rng, (size, size), 0.0, 1.0) > 0.15
        center = depth_loss(pred, gt, sigma, valid, alpha)
        return (_depth_mean(gt, valid, alpha), {"pred": pred, "sigma": sigma},
                {"pred": center.grad_points, "sigma": center.grad_sigma})
    return _worst_fd_error(seed, trials, h, instance)


def check_camera_loss_gradients(seed: int, huber_eps: float = 1.0,
                                trials: int = 100, h: float = 1e-5) -> float:
    def instance(rng):
        pred = _uniform_array(rng, (9,), -2.0, 2.0)
        gt = _uniform_array(rng, (9,), -2.0, 2.0)
        return (lambda a: camera_loss(a["pred"], gt, huber_eps)[0], {"pred": pred},
                {"pred": camera_loss(pred, gt, huber_eps)[1]})
    return _worst_fd_error(seed, trials, h, instance)


def gradient_check_suite(seed: int, trials: int = 100, h: float = 1e-5,
                         cfg: LossConfig | None = None) -> dict[str, float]:
    """All five gradient checks; returns max relative error per loss."""
    cfg = cfg or LossConfig()
    return {
        "point_focal": check_point_loss_gradients(
            replace(cfg, weight_mode="focal"), derive_seed(seed, 1), trials, h),
        "point_dynamic": check_point_loss_gradients(
            replace(cfg, weight_mode="dynamic"), derive_seed(seed, 2), trials, h),
        "point_offset": check_point_loss_gradients(
            replace(cfg, representation="offset"), derive_seed(seed, 3), trials, h),
        "depth": check_depth_loss_gradients(derive_seed(seed, 4), cfg.alpha, trials, h),
        "camera": check_camera_loss_gradients(derive_seed(seed, 5), cfg.huber_eps, trials, h),
    }

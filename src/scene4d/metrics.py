"""Evaluation protocols: reconstruction (accuracy / completion / normal
consistency), 3D track quality (APD / EPE under three alignment modes),
video depth (AbsRel, delta < 1.25), and camera pose (ATE, RPE).

Nearest-neighbor queries use a KD-tree but are exact; the test suite pins
them against a brute-force scan. Where a protocol needs randomness
(cloud downsampling) it takes an explicit seed and uses a fresh splitmix64
stream, so exchanging the two clouds exchanges the metrics exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BadArgument, DegenerateConfiguration, DegenerateScale,
                     EmptyCloud, EmptyReference, NoSamples, NoValidPixels, TooFewPoints)
from .geometry import SIM3, CameraParams, rotation_angle_deg, sim3_apply
from .rng import SplitMix64
from .synth import TrajectorySet

APD_THRESHOLDS = (0.1, 0.3, 0.5, 1.0)  # meters
DEFAULT_DOWNSAMPLE = 20_000
DEFAULT_NC_NEIGHBORS = 16
_NORMAL_BLOCK = 2048  # points per block of estimate_normals' (n, k, 3) arrays
ALIGNMENTS = ("none", "median_scale", "sim3")


@dataclass
class ReconMetrics:
    acc_mean: float
    acc_median: float
    comp_mean: float
    comp_median: float
    nc_mean: float
    nc_median: float


@dataclass
class TrackMetrics:
    apd_per_threshold: tuple[float, float, float, float]
    apd: float
    epe: float
    alignment: str


@dataclass
class DepthMetrics:
    abs_rel: float
    delta_125: float  # percent


@dataclass
class PoseMetrics:
    ate: float        # meters
    rpe_trans: float  # meters
    rpe_rot: float    # degrees


# ---------------------------------------------------------------------------
# point-cloud primitives

def cKDTree(data, *args, **kwargs):  # noqa: N802  (stands in for the class)
    """scipy's `cKDTree(data, ...)`. scipy.spatial is imported on the first
    call, so commands that build no tree start without it."""
    from scipy.spatial import cKDTree as tree
    return tree(data, *args, **kwargs)


def sample_rows(n: int, n_max: int, seed: int) -> np.ndarray | None:
    """The rows of an n-point cloud that downsampling to n_max keeps: a
    uniform sample without replacement, ascending, from a fresh splitmix64
    stream of `seed`; None when the cloud already fits."""
    if n_max < 1:
        raise BadArgument(f"n_max must be >= 1, not {n_max}")
    if n <= n_max:
        return None
    return np.array(SplitMix64(seed).sample_indices(n, n_max), dtype=np.int64)


def downsample_random(cloud: np.ndarray, n_max: int, seed: int) -> np.ndarray:
    """The rows `sample_rows` keeps of `cloud`, order-stable; identity when
    the cloud already fits."""
    cloud = np.asarray(cloud, dtype=np.float64)
    rows = sample_rows(len(cloud), n_max, seed)
    return cloud if rows is None else cloud[rows]


def nn_distances(from_cloud: np.ndarray, to_cloud: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance from every query point to its nearest
    neighbor in the reference cloud."""
    to_cloud = np.asarray(to_cloud, dtype=np.float64)
    if len(to_cloud) == 0:
        raise EmptyReference("reference cloud is empty")
    from_cloud = np.asarray(from_cloud, dtype=np.float64)
    if len(from_cloud) == 0:
        return np.zeros(0)
    d, _ = cKDTree(to_cloud).query(from_cloud, k=1)
    return np.asarray(d, dtype=np.float64)


def accuracy_completion(pred: np.ndarray, gt: np.ndarray,
                        n_max: int = DEFAULT_DOWNSAMPLE, seed: int = 0):
    """(acc_mean, acc_median, comp_mean, comp_median) after downsampling
    both clouds with the same seed."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if len(pred) == 0 or len(gt) == 0:
        raise EmptyCloud("both clouds must be nonempty")
    p = downsample_random(pred, n_max, seed)
    g = downsample_random(gt, n_max, seed)
    acc = nn_distances(p, g)
    comp = nn_distances(g, p)
    return (float(acc.mean()), float(np.median(acc)),
            float(comp.mean()), float(np.median(comp)))


def estimate_normals(cloud: np.ndarray, k: int = DEFAULT_NC_NEIGHBORS,
                     tree=None) -> np.ndarray:
    """Per-point unit normals from k-NN covariance (smallest eigenvector).

    The k neighbors include the point itself. Sign is arbitrary; consumers
    use absolute dot products. `tree`, when given, must be a KD-tree built
    on `cloud` by `cKDTree`; it saves building another. Points go through
    in blocks of _NORMAL_BLOCK, so the (block, k, 3) neighbor arrays are
    the largest temporaries; each point's normal is computed from its own
    neighbors alone, with the same bits as over the whole cloud at once.
    """
    cloud = np.asarray(cloud, dtype=np.float64)
    if k < 3:
        raise BadArgument(f"k must be >= 3, not {k}")
    if len(cloud) < k:
        raise TooFewPoints(f"need at least k={k} points, got {len(cloud)}")
    tree = cKDTree(cloud) if tree is None else tree
    normals = np.empty_like(cloud)
    for start in range(0, len(cloud), _NORMAL_BLOCK):
        _, idx = tree.query(cloud[start:start + _NORMAL_BLOCK], k=k, workers=-1)
        nbrs = cloud[idx]                          # (block, k, 3)
        centered = nbrs - nbrs.mean(axis=1, keepdims=True)
        cov = np.einsum("nki,nkj->nij", centered, centered)
        vecs = np.linalg.eigh(cov)[1][:, :, 0]     # smallest eigenvalue
        normals[start:start + _NORMAL_BLOCK] = \
            vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    return normals


def _matched(p: np.ndarray, g: np.ndarray, k: int):
    """(acc, comp, nc_mean, nc_median) of two clouds from one KD-tree each.

    Each direction's nearest-neighbor query gives its distances (acc from
    p to g, comp from g to p) and the matches whose normals nc compares by
    |cos|, both directions pooled.
    """
    tree_p, tree_g = cKDTree(p), cKDTree(g)
    n_p = estimate_normals(p, k, tree_p)
    n_g = estimate_normals(g, k, tree_g)
    acc, idx_pg = tree_g.query(p, k=1, workers=-1)
    comp, idx_gp = tree_p.query(g, k=1, workers=-1)
    fwd = np.abs(np.sum(n_p * n_g[idx_pg], axis=1))
    bwd = np.abs(np.sum(n_g * n_p[idx_gp], axis=1))
    vals = np.minimum(np.concatenate([fwd, bwd]), 1.0)
    return acc, comp, float(vals.mean()), float(np.median(vals))


def recon_metrics(pred: np.ndarray, gt: np.ndarray,
                  n_max: int = DEFAULT_DOWNSAMPLE, seed: int = 0,
                  k: int = DEFAULT_NC_NEIGHBORS) -> ReconMetrics:
    """Full reconstruction protocol on mutually downsampled clouds.

    One KD-tree per cloud serves accuracy, completion and both normal
    steps (see `_matched`).
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if len(pred) == 0 or len(gt) == 0:
        raise EmptyCloud("both clouds must be nonempty")
    acc, comp, nc_mean, nc_median = _matched(downsample_random(pred, n_max, seed),
                                             downsample_random(gt, n_max, seed), k)
    return ReconMetrics(
        acc_mean=float(acc.mean()), acc_median=float(np.median(acc)),
        comp_mean=float(comp.mean()), comp_median=float(np.median(comp)),
        nc_mean=nc_mean, nc_median=nc_median)


# ---------------------------------------------------------------------------
# track alignment and metrics

def median_scale_align(pred_points: np.ndarray, gt_points: np.ndarray) -> float:
    """Scale factor from the medians of point norms: s = med||gt|| / med||pred||."""
    pred_points = np.asarray(pred_points, dtype=np.float64).reshape(-1, 3)
    gt_points = np.asarray(gt_points, dtype=np.float64).reshape(-1, 3)
    if len(pred_points) == 0 or len(gt_points) == 0:
        raise NoSamples("need points on both sides to derive a scale")
    mp = float(np.median(np.linalg.norm(pred_points, axis=1)))
    mg = float(np.median(np.linalg.norm(gt_points, axis=1)))
    if mp < 1e-12:
        raise DegenerateScale("median predicted norm too small")
    return mg / mp


def umeyama_sim3(pred_points: np.ndarray, gt_points: np.ndarray,
                 with_scale: bool = True) -> SIM3:
    """Closed-form least-squares similarity mapping pred onto gt.

    Minimizes sum ||s R p + t - g||^2 with a reflection guard on the
    rotation. with_scale=False fixes s = 1 (SE(3) fit).
    """
    p = np.asarray(pred_points, dtype=np.float64).reshape(-1, 3)
    g = np.asarray(gt_points, dtype=np.float64).reshape(-1, 3)
    if p.shape != g.shape:
        raise ValueError("correspondence sets must have matching shapes")
    n = len(p)
    if n < 3:
        raise DegenerateConfiguration("need at least 3 correspondences")
    mu_p = p.mean(axis=0)
    mu_g = g.mean(axis=0)
    x = p - mu_p
    y = g - mu_g
    cov = (y.T @ x) / n
    U, D, Vt = np.linalg.svd(cov)
    if D[1] <= max(D[0], 1.0) * 1e-12:
        raise DegenerateConfiguration("correspondences are (near-)collinear")
    S = np.eye(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0:
        S[2, 2] = -1.0
    R = U @ S @ Vt
    if with_scale:
        var_p = float((x * x).sum()) / n
        if var_p < 1e-24:
            raise DegenerateConfiguration("zero variance in predicted points")
        s = float(np.trace(np.diag(D) @ S)) / var_p
        if s <= 0:
            raise DegenerateConfiguration("non-positive similarity scale")
    else:
        s = 1.0
    t = mu_g - s * (R @ mu_p)
    return SIM3(scale=s, rotation=R, translation=t)


def apd_epe(pred_tracks: np.ndarray, gt_tracks: np.ndarray,
            visible: np.ndarray | None = None,
            alignment: str = "none") -> TrackMetrics:
    """Average percent-within-distance and endpoint error for one sequence.

    pred/gt are (M, N, 3); visible (M, N) selects the evaluated samples.
    The alignment (median scale or SIM(3)) is fitted on those samples.
    Threshold hits use strict <.
    """
    if alignment not in ALIGNMENTS:
        raise ValueError(f"alignment must be one of {ALIGNMENTS}")
    pred = np.asarray(pred_tracks, dtype=np.float64)
    gt = np.asarray(gt_tracks, dtype=np.float64)
    if pred.shape != gt.shape or pred.ndim != 3 or pred.shape[2] != 3:
        raise ValueError("tracks must be matching (M, N, 3) arrays")
    vis = np.ones(pred.shape[:2], dtype=bool) if visible is None \
        else np.asarray(visible, dtype=bool)
    if not np.any(vis):
        raise NoSamples("no visible (point, frame) samples")

    p = pred[vis]
    g = gt[vis]
    if alignment == "median_scale":
        p = median_scale_align(p, g) * p
    elif alignment == "sim3":
        p = sim3_apply(umeyama_sim3(p, g), p)

    err = np.linalg.norm(p - g, axis=1)
    per = tuple(float(100.0 * np.mean(err < d)) for d in APD_THRESHOLDS)
    return TrackMetrics(apd_per_threshold=per, apd=float(np.mean(per)),
                        epe=float(err.mean()), alignment=alignment)


def select_queries(trajectories: TrajectorySet) -> np.ndarray:
    """Indices of tracks that are dynamic, visible in frame 0, and finite
    at every frame."""
    finite = np.isfinite(trajectories.positions).all(axis=(1, 2))
    mask = trajectories.dynamic & trajectories.visible[:, 0] & finite
    return np.nonzero(mask)[0]


# ---------------------------------------------------------------------------
# depth

def depth_metrics(pred: np.ndarray, gt: np.ndarray, valid: np.ndarray,
                  apply_scaling: bool = True) -> DepthMetrics:
    """AbsRel and delta<1.25 over all valid pixels of a sequence, with
    per-sequence median scaling of the prediction unless disabled."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    if pred.shape != gt.shape or pred.shape != valid.shape:
        raise ValueError("pred, gt and valid must have matching shapes")
    p = pred[valid]
    g = gt[valid]
    if p.size == 0:
        raise NoValidPixels("no valid pixels to evaluate")
    if np.any(g <= 0):
        raise ValueError("ground-truth depth must be positive on valid pixels")
    if apply_scaling:
        mp = float(np.median(p))
        if mp < 1e-12:
            raise DegenerateScale("median predicted depth too small")
        p *= float(np.median(g)) / mp  # p is pred[valid]'s own copy
    # in place, so at most one temporary of p's size is alive at a time
    rel = p - g
    np.abs(rel, out=rel)
    rel /= g
    abs_rel = float(np.mean(rel))
    del rel
    # max(p/g, g/p) < 1.25, and a non-positive prediction is never within
    with np.errstate(divide="ignore"):  # g / p at p == 0
        within = p / g < 1.25
        within &= g / p < 1.25
    within &= p > 0
    delta = float(100.0 * np.mean(within))
    return DepthMetrics(abs_rel=abs_rel, delta_125=delta)


# ---------------------------------------------------------------------------
# pose

def _relative_pose(Ra, ta, Rb, tb):
    """Relative world-to-camera motion from pose a to pose b: P_b ∘ P_a^-1."""
    R = Rb @ Ra.T
    return R, tb - R @ ta


def pose_metrics(pred_cams: list[CameraParams], gt_cams: list[CameraParams],
                 align: str = "sim3") -> PoseMetrics:
    """ATE (RMSE of aligned camera-center error) and mean RPE over
    consecutive frames. align in {"sim3", "se3", "none"}."""
    if len(pred_cams) != len(gt_cams) or len(pred_cams) < 2:
        raise BadArgument("need matching camera lists with at least 2 frames, "
                          f"not {len(pred_cams)} and {len(gt_cams)}")
    if align not in ("sim3", "se3", "none"):
        raise ValueError("align must be sim3, se3 or none")
    c_pred = np.array([c.center() for c in pred_cams])
    c_gt = np.array([c.center() for c in gt_cams])
    R_pred = [c.rotation for c in pred_cams]
    R_gt = [c.rotation for c in gt_cams]

    if align == "none":
        T = SIM3.identity()
    else:
        T = umeyama_sim3(c_pred, c_gt, with_scale=(align == "sim3"))
    c_al = sim3_apply(T, c_pred)
    R_al = [R @ T.rotation.T for R in R_pred]
    t_al = [-R_al[i] @ c_al[i] for i in range(len(c_al))]
    t_gt = [-R_gt[i] @ c_gt[i] for i in range(len(c_gt))]

    ate = float(math.sqrt(np.mean(np.sum((c_al - c_gt) ** 2, axis=1))))

    trans_err, rot_err = [], []
    for i in range(len(c_al) - 1):
        Rp, tp = _relative_pose(R_al[i], t_al[i], R_al[i + 1], t_al[i + 1])
        Rg, tg = _relative_pose(R_gt[i], t_gt[i], R_gt[i + 1], t_gt[i + 1])
        Re = Rg.T @ Rp
        te = Rg.T @ (tp - tg)
        trans_err.append(float(np.linalg.norm(te)))
        rot_err.append(rotation_angle_deg(Re))
    return PoseMetrics(ate=ate, rpe_trans=float(np.mean(trans_err)),
                       rpe_rot=float(np.mean(rot_err)))

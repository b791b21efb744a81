"""Reconstruction, tracking, depth and pose metrics against independent
oracles (brute-force scans, analytic normals, constructed transforms)."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import brute_nn_distances, rotation_to_quat
from scene4d import metrics
from scene4d.errors import (BadArgument, DegenerateConfiguration, DegenerateScale,
                            EmptyCloud, NoSamples,
                            NoValidPixels, TooFewPoints)
from scene4d.geometry import SIM3, CameraParams, axis_angle_rotation, sim3_apply
from scene4d.metrics import (apd_epe, depth_metrics,
                             downsample_random, estimate_normals,
                             median_scale_align, pose_metrics,
                             recon_metrics, sample_rows, select_queries, umeyama_sim3)
from scene4d.rng import SplitMix64
from scene4d.synth import TrajectorySet


def _random_cloud(rng, n, span=4.0):
    return np.array([[rng.uniform() * span - span / 2 for _ in range(3)]
                     for _ in range(n)])


# ---------------------------------------------------------------------------
# downsampling and nearest neighbors

def test_downsample_small_cloud_unchanged():
    cloud = _random_cloud(SplitMix64(0), 10)
    assert np.array_equal(downsample_random(cloud, 20, seed=1), cloud)


def test_downsample_counts_membership_and_determinism():
    cloud = _random_cloud(SplitMix64(1), 2000)
    a = downsample_random(cloud, 150, seed=9)
    b = downsample_random(cloud, 150, seed=9)
    assert len(a) == 150
    assert np.array_equal(a, b)
    # every sampled row is a row of the input
    rows = {tuple(r) for r in cloud}
    assert all(tuple(r) in rows for r in a)
    c = downsample_random(cloud, 150, seed=10)
    assert not np.array_equal(a, c)


def test_sample_rows_are_the_rows_downsampling_keeps():
    cloud = _random_cloud(SplitMix64(1), 400)
    rows = sample_rows(len(cloud), 150, seed=9)
    assert np.array_equal(rows, SplitMix64(9).sample_indices(400, 150))
    assert downsample_random(cloud, 150, seed=9).tobytes() == cloud[rows].tobytes()
    assert sample_rows(150, 150, seed=9) is None
    with pytest.raises(BadArgument):
        sample_rows(400, 0, seed=9)


# `metrics._matched` gives the per-point distances recon_metrics reduces:
# acc from pred to gt, comp from gt to pred, with k = 3, the fewest points
# a cloud needs for normals

def test_nn_identical_clouds_zero():
    cloud = _random_cloud(SplitMix64(2), 50)
    acc, comp, _, _ = metrics._matched(cloud, cloud, 3)
    assert np.array_equal(acc, np.zeros(50)) and np.array_equal(comp, np.zeros(50))


def test_nn_singletons():
    # each point's one close neighbour is its twin 1 m away
    a = np.array([[0.0, 0, 0], [10.0, 0, 0], [0.0, 10, 0]])
    acc, comp, _, _ = metrics._matched(a, a + [0, 0, 1], 3)
    assert np.array_equal(acc, [1.0] * 3) and np.array_equal(comp, [1.0] * 3)


def test_nn_matches_brute_force_exactly():
    rng = SplitMix64(3)
    a = _random_cloud(rng, 200)
    b = _random_cloud(rng, 170)
    acc, comp, _, _ = metrics._matched(a, b, 3)
    assert np.array_equal(acc, brute_nn_distances(a, b))
    assert np.array_equal(comp, brute_nn_distances(b, a))


def test_nn_empty_reference():
    with pytest.raises(EmptyCloud):
        recon_metrics(np.zeros((3, 3)), np.zeros((0, 3)), k=3)


# ---------------------------------------------------------------------------
# accuracy / completion

def _acc_comp(pred, gt, **kwargs):
    m = recon_metrics(pred, gt, k=3, **kwargs)
    return m.acc_mean, m.acc_median, m.comp_mean, m.comp_median


def test_acc_comp_identical_clouds():
    cloud = _random_cloud(SplitMix64(4), 100)
    assert _acc_comp(cloud, cloud, seed=0) == (0.0, 0.0, 0.0, 0.0)


def test_acc_comp_singleton_offset():
    # three points far apart, each one's match its own shifted copy
    p = np.array([[1.0, 2.0, 3.0], [4.0, 2.0, 3.0], [1.0, 5.0, 3.0]])
    am, amed, cm, cmed = _acc_comp(p + [0.2, 0, 0], p, seed=0)
    assert am == pytest.approx(0.2, abs=1e-12)
    assert amed == pytest.approx(0.2, abs=1e-12)
    assert cm == pytest.approx(0.2, abs=1e-12)
    assert cmed == pytest.approx(0.2, abs=1e-12)


def test_acc_comp_asymmetry_for_subset():
    gt = _random_cloud(SplitMix64(5), 400)
    pred = gt[:50]
    am, _, cm, _ = _acc_comp(pred, gt, seed=0)
    assert am == 0.0
    assert cm > 0.0


def test_acc_comp_swap_symmetry_same_seed():
    rng = SplitMix64(6)
    a = _random_cloud(rng, 3000)
    b = _random_cloud(rng, 2500)
    m1 = _acc_comp(a, b, n_max=500, seed=3)
    m2 = _acc_comp(b, a, n_max=500, seed=3)
    assert m1[0] == m2[2] and m1[1] == m2[3]
    assert m1[2] == m2[0] and m1[3] == m2[1]


def test_acc_comp_empty_cloud():
    with pytest.raises(EmptyCloud):
        recon_metrics(np.zeros((0, 3)), np.ones((3, 3)), k=3)


# ---------------------------------------------------------------------------
# normals

def test_normals_on_plane():
    rng = SplitMix64(7)
    pts = _random_cloud(rng, 300)
    pts[:, 2] = 0.0
    n = estimate_normals(pts, k=16)
    assert np.all(np.abs(n[:, 2]) > 0.999)
    assert np.allclose(np.linalg.norm(n, axis=1), 1.0, atol=1e-9)


def _fibonacci_sphere(n):
    i = np.arange(n, dtype=np.float64)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def test_normals_on_sphere_within_two_degrees():
    pts = _fibonacci_sphere(10_000)
    n = estimate_normals(pts, k=16)
    cosang = np.abs(np.sum(n * pts, axis=1))  # radial direction is the oracle
    worst = math.degrees(math.acos(min(1.0, cosang.min())))
    assert worst < 2.0


def test_normals_too_few_points():
    with pytest.raises(TooFewPoints):
        estimate_normals(np.zeros((5, 3)), k=16)


def _whole_cloud_normals(cloud, k=metrics.DEFAULT_NC_NEIGHBORS, tree=None):
    """Reference: estimate_normals verbatim as it was when it went over the
    whole cloud at once, (n, k, 3) arrays and all."""
    cloud = np.asarray(cloud, dtype=np.float64)
    if k < 3:
        raise ValueError("k must be >= 3")
    if len(cloud) < k:
        raise TooFewPoints(f"need at least k={k} points, got {len(cloud)}")
    _, idx = (cKDTree(cloud) if tree is None else tree).query(cloud, k=k)
    nbrs = cloud[idx]                              # (n, k, 3)
    centered = nbrs - nbrs.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered)
    _, vecs = np.linalg.eigh(cov)
    normals = vecs[:, :, 0]                        # smallest eigenvalue
    return normals / np.linalg.norm(normals, axis=1, keepdims=True)


_BLOCK = metrics._NORMAL_BLOCK


@pytest.mark.parametrize("n", [16, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
@pytest.mark.parametrize("with_tree", [False, True])
def test_normals_in_blocks_bitwise_equal_whole_cloud(n, with_tree):
    # from n = k (one block of one query per neighbor set) to several
    # blocks with a short last one
    cloud = _random_cloud(SplitMix64(n), n)
    cloud[n // 2:n // 2 + 8, 2] = 0.5            # a flat patch: ties in the k-NN
    tree = cKDTree(cloud) if with_tree else None
    got = estimate_normals(cloud, 16, tree)
    assert got.shape == (n, 3)
    assert np.array_equal(got, _whole_cloud_normals(cloud, 16, tree))


def test_recon_metrics_memory_bound():
    # 20k-point clouds: the whole-cloud normals' (n, k, 3) float64 arrays
    # were 7.7 MB each, and recon_metrics peaked at 24.6 MB traced on
    # these clouds; in blocks it peaks at 4.6 MB
    rng = SplitMix64(26)
    pred, gt = _random_cloud(rng, 20_000), _random_cloud(rng, 20_000)
    tracemalloc.start()
    try:
        recon_metrics(pred, gt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_normal_consistency_same_plane():
    rng = SplitMix64(8)
    a = _random_cloud(rng, 400)
    a[:, 2] = 0.0
    b = _random_cloud(rng, 350)
    b[:, 2] = 0.0
    m = recon_metrics(a, b, n_max=10**6, k=16)
    mean, med = m.nc_mean, m.nc_median
    assert mean >= 0.999
    assert med >= 0.999


def test_normal_consistency_orthogonal_planes():
    rng = SplitMix64(9)
    a = _random_cloud(rng, 400)
    a[:, 2] = 0.0                      # z = 0 plane
    b = _random_cloud(rng, 400)
    b[:, 0] = 0.0                      # x = 0 plane
    mean = recon_metrics(a, b, n_max=10**6, k=16).nc_mean
    assert mean <= 0.05


def test_normal_consistency_bounded():
    rng = SplitMix64(10)
    a = _random_cloud(rng, 200)
    b = _random_cloud(rng, 200)
    m = recon_metrics(a, b, n_max=10**6, k=8)
    mean, med = m.nc_mean, m.nc_median
    assert 0.0 <= med <= 1.0 and 0.0 <= mean <= 1.0


# ---------------------------------------------------------------------------
# alignment

def test_median_scale_factor():
    rng = SplitMix64(11)
    gt = _random_cloud(rng, 60) + [0, 0, 5]
    assert median_scale_align(2.0 * gt, gt) == pytest.approx(0.5, rel=1e-12)
    assert median_scale_align(gt, gt) == 1.0


def test_median_scale_invariant_to_duplication():
    rng = SplitMix64(12)
    gt = _random_cloud(rng, 31) + [0, 0, 5]
    pred = 1.7 * gt
    s1 = median_scale_align(pred, gt)
    s2 = median_scale_align(np.concatenate([pred, pred]), np.concatenate([gt, gt]))
    assert s1 == pytest.approx(s2, rel=1e-12)


def test_median_scale_degenerate():
    with pytest.raises(DegenerateScale):
        median_scale_align(np.zeros((5, 3)), np.ones((5, 3)))


def test_umeyama_identity():
    rng = SplitMix64(13)
    pts = _random_cloud(rng, 40)
    T = umeyama_sim3(pts, pts)
    assert T.scale == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(T.rotation, np.eye(3), atol=1e-12)
    assert np.allclose(T.translation, 0, atol=1e-12)


def test_umeyama_recovers_constructed_sim3():
    rng = SplitMix64(14)
    pred = _random_cloud(rng, 50)
    Rz90 = axis_angle_rotation([0, 0, 1], math.pi / 2)
    gt = 3.0 * pred @ Rz90.T + [1, 2, 3]
    T = umeyama_sim3(pred, gt)
    assert T.scale == pytest.approx(3.0, rel=1e-9)
    assert np.allclose(T.rotation, Rz90, atol=1e-9)
    assert np.allclose(T.translation, [1, 2, 3], atol=1e-9)
    residual = np.linalg.norm(sim3_apply(T, pred) - gt, axis=1).max()
    assert residual < 1e-9


def test_umeyama_never_worse_than_unaligned():
    rng = SplitMix64(15)
    for _ in range(20):
        pred = _random_cloud(rng, 30)
        gt = _random_cloud(rng, 30)
        T = umeyama_sim3(pred, gt)
        aligned = np.linalg.norm(sim3_apply(T, pred) - gt, axis=1)
        raw = np.linalg.norm(pred - gt, axis=1)
        assert (aligned ** 2).sum() <= (raw ** 2).sum() + 1e-9


def test_umeyama_degenerate_collinear():
    line = np.outer(np.arange(10.0), [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateConfiguration):
        umeyama_sim3(line, line + [1, 0, 0])
    with pytest.raises(DegenerateConfiguration):
        umeyama_sim3(np.zeros((2, 3)), np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# APD / EPE

def _tracks(rng, m=12, n=6):
    return np.array([[[rng.uniform() * 4 - 2 for _ in range(3)] for _ in range(n)]
                     for _ in range(m)])


def test_apd_perfect_tracks():
    gt = _tracks(SplitMix64(16))
    m = apd_epe(gt, gt)
    assert m.apd == 100.0
    assert m.epe == 0.0
    assert m.apd_per_threshold == (100.0, 100.0, 100.0, 100.0)


def test_apd_uniform_point_two_error():
    gt = _tracks(SplitMix64(17))
    pred = gt.copy()
    pred[..., 0] += 0.2
    m = apd_epe(pred, gt, alignment="none")
    assert m.apd_per_threshold == (0.0, 100.0, 100.0, 100.0)
    assert m.apd == 75.0
    assert m.epe == pytest.approx(0.2, abs=1e-12)


def test_apd_median_scale_fixes_global_scale():
    gt = _tracks(SplitMix64(18)) + [0, 0, 6]
    m = apd_epe(2.0 * gt, gt, alignment="median_scale")
    assert m.apd == 100.0
    assert m.epe < 1e-12


def test_apd_sim3_alignment_invariance():
    gt = _tracks(SplitMix64(19))
    R = axis_angle_rotation([1, 1, 0], 1.1)
    pred = 2.5 * gt @ R.T + [3, -1, 2]
    m = apd_epe(pred, gt, alignment="sim3")
    assert m.apd == 100.0
    assert m.epe < 1e-9


def test_apd_sim3_invariant_for_arbitrary_tracks():
    # not just exact copies: any global SIM(3) on an imperfect pred cancels
    rng = SplitMix64(25)
    gt = _tracks(rng)
    pred = gt + 0.05 * _tracks(rng)
    base = apd_epe(pred, gt, alignment="sim3")
    G = SIM3(1.8, axis_angle_rotation([0.2, 1, 0.4], 0.9), np.array([2.0, -3.0, 1.0]))
    moved = apd_epe(sim3_apply(G, pred.reshape(-1, 3)).reshape(pred.shape), gt,
                    alignment="sim3")
    assert moved.epe == pytest.approx(base.epe, abs=1e-9)
    assert moved.apd_per_threshold == base.apd_per_threshold


def test_metrics_invariant_to_permutation_without_resampling():
    # below n_max nothing is downsampled, so reordering points is exact
    rng = SplitMix64(26)
    a = _random_cloud(rng, 300)
    b = _random_cloud(rng, 280)
    perm = np.array(SplitMix64(1).sample_indices(300, 300))
    np.random.default_rng(0).shuffle(perm)
    m1 = _acc_comp(a, b, n_max=1000, seed=0)
    m2 = _acc_comp(a[perm], b, n_max=1000, seed=0)
    assert m1[0] == pytest.approx(m2[0], rel=1e-12)   # mean: summation order
    assert m1[1] == m2[1]                             # median: exact
    assert m1[2] == m2[2] and m1[3] == m2[3]          # reference side untouched


def test_apd_monotone_in_error():
    gt = _tracks(SplitMix64(20))
    prev = None
    for off in (0.05, 0.2, 0.4, 0.9, 2.0):
        pred = gt.copy()
        pred[..., 1] += off
        m = apd_epe(pred, gt)
        if prev is not None:
            assert m.apd <= prev
        prev = m.apd
    far = apd_epe(gt + 1e9, gt)
    assert far.apd == 0.0


def test_apd_visibility_selects_samples():
    gt = _tracks(SplitMix64(21), m=4, n=4)
    pred = gt.copy()
    pred[0] += 10.0                    # gigantic error on track 0
    vis = np.ones((4, 4), bool)
    vis[0] = False                     # but the track is never visible
    m = apd_epe(pred, gt, vis)
    assert m.apd == 100.0
    with pytest.raises(NoSamples):
        apd_epe(pred, gt, np.zeros((4, 4), bool))


def test_select_queries_filters():
    pos = np.zeros((4, 3, 3))
    pos[3, 1] = np.inf
    vis = np.array([[1, 1, 1], [0, 1, 1], [1, 1, 1], [1, 1, 1]], dtype=bool)
    dyn = np.array([True, True, False, True])
    traj = TrajectorySet(positions=pos, visible=vis, dynamic=dyn)
    # track 1 invisible at frame 0, track 2 static, track 3 non-finite
    assert list(select_queries(traj)) == [0]


def test_select_queries_all_static_empty():
    traj = TrajectorySet(positions=np.zeros((5, 3, 3)),
                         visible=np.ones((5, 3), bool),
                         dynamic=np.zeros(5, bool))
    assert len(select_queries(traj)) == 0


# ---------------------------------------------------------------------------
# depth metrics

def test_depth_perfect():
    gt = 1.0 + np.arange(12.0).reshape(3, 4)
    m = depth_metrics(gt, gt, np.ones((3, 4), bool))
    assert m.abs_rel == 0.0 and m.delta_125 == 100.0


def test_depth_ratio_inside_and_outside_delta():
    gt = np.full((4, 4), 2.0)
    ok = depth_metrics(1.1 * gt, gt, np.ones((4, 4), bool), apply_scaling=False)
    assert ok.abs_rel == pytest.approx(0.1, rel=1e-12)
    assert ok.delta_125 == 100.0
    bad = depth_metrics(1.3 * gt, gt, np.ones((4, 4), bool), apply_scaling=False)
    assert bad.delta_125 == 0.0


def test_depth_median_scaling_cancels_global_scale():
    rng = SplitMix64(23)
    gt = 1.0 + np.array([rng.uniform() for _ in range(64)]).reshape(8, 8)
    m = depth_metrics(7.3 * gt, gt, np.ones((8, 8), bool))
    assert m.abs_rel < 1e-12
    assert m.delta_125 == 100.0


def test_depth_non_positive_predictions_are_outside_delta_and_inputs_kept():
    gt = np.array([[1.0, 2.0], [4.0, 8.0]])
    pred = np.array([[1.1, 0.0], [-4.0, 8.0]])
    before = pred.copy()
    m = depth_metrics(pred, gt, np.ones((2, 2), bool), apply_scaling=False)
    # |p - g| / g is 0.1, 1, 2 and 0; only the first and last are within 1.25
    assert m.abs_rel == pytest.approx(0.775)
    assert m.delta_125 == 50.0
    depth_metrics(pred, gt, np.ones((2, 2), bool))
    assert np.array_equal(pred, before)


def test_depth_no_valid_pixels():
    with pytest.raises(NoValidPixels):
        depth_metrics(np.ones((2, 2)), np.ones((2, 2)), np.zeros((2, 2), bool))


# ---------------------------------------------------------------------------
# pose metrics

def _camera_ring(n=6, radius=4.0):
    cams = []
    for i in range(n):
        ang = 2 * math.pi * i / n
        R = axis_angle_rotation([0, 1, 0], ang)
        center = np.array([radius * math.sin(ang), 0.3 * i, radius - radius * math.cos(ang)])
        t = -R @ center
        cams.append(CameraParams(q=rotation_to_quat(R), t=t, fov=(1.2, 1.2)))
    return cams


def test_pose_identical_cameras():
    cams = _camera_ring()
    m = pose_metrics(cams, cams, align="none")
    assert m.ate == 0.0 and m.rpe_trans == 0.0 and m.rpe_rot == 0.0
    # with a fitted alignment, identity is recovered to float precision
    m = pose_metrics(cams, cams)
    assert m.ate < 1e-12 and m.rpe_trans < 1e-12 and m.rpe_rot < 1e-9


def test_pose_global_sim3_absorbed():
    gt = _camera_ring()
    G = SIM3(2.0, axis_angle_rotation([1, 2, 0.5], 0.8), np.array([5.0, -2.0, 1.0]))
    pred = []
    for c in gt:
        R_new = c.rotation @ G.rotation.T
        center_new = sim3_apply(G, c.center())
        pred.append(CameraParams(q=rotation_to_quat(R_new), t=-R_new @ center_new,
                                 fov=c.fov))
    m = pose_metrics(pred, gt, align="sim3")
    assert m.ate < 1e-9
    assert m.rpe_trans < 1e-9
    assert m.rpe_rot < 1e-6


def test_pose_rpe_rot_ten_degrees():
    gt = _camera_ring(n=2)
    pred = [gt[0],
            CameraParams(q=rotation_to_quat(
                axis_angle_rotation([0, 0, 1], math.radians(10)) @ gt[1].rotation),
                t=gt[1].t, fov=gt[1].fov)]
    m = pose_metrics(pred, gt, align="none")
    assert m.rpe_rot == pytest.approx(10.0, abs=1e-6)


def test_pose_se3_alignment_absorbs_rigid_motion_only():
    gt = _camera_ring()
    G = SIM3(1.0, axis_angle_rotation([0, 1, 0], 0.4), np.array([1.0, 2.0, -0.5]))
    pred = []
    for c in gt:
        R_new = c.rotation @ G.rotation.T
        center_new = sim3_apply(G, c.center())
        pred.append(CameraParams(q=rotation_to_quat(R_new), t=-R_new @ center_new,
                                 fov=c.fov))
    m = pose_metrics(pred, gt, align="se3")
    assert m.ate < 1e-9 and m.rpe_trans < 1e-9 and m.rpe_rot < 1e-6
    # but a scaled world is not absorbed by the SE(3) fit
    G2 = SIM3(2.0, np.eye(3), np.zeros(3))
    pred2 = []
    for c in gt:
        center_new = sim3_apply(G2, c.center())
        pred2.append(CameraParams(q=rotation_to_quat(c.rotation),
                                  t=-c.rotation @ center_new, fov=c.fov))
    m2 = pose_metrics(pred2, gt, align="se3")
    assert m2.ate > 0.1


def test_pose_needs_two_frames():
    cams = _camera_ring(n=3)
    with pytest.raises(ValueError):
        pose_metrics(cams[:1], cams[:1])


# ---------------------------------------------------------------------------
# bundled protocol

def test_recon_metrics_identical_clouds():
    rng = SplitMix64(24)
    cloud = _random_cloud(rng, 600)
    m = recon_metrics(cloud, cloud, n_max=500, seed=2, k=12)
    assert m.acc_mean == 0.0 and m.comp_median == 0.0
    assert m.nc_mean == pytest.approx(1.0, abs=1e-12)


def _six_tree_recon(pred, gt, n_max, seed, k):
    """Reference: the protocol with a fresh KD-tree for every query, as
    recon_metrics computed it before it kept one tree per cloud."""
    p = downsample_random(pred, n_max, seed)
    g = downsample_random(gt, n_max, seed)
    acc = cKDTree(g).query(p, k=1)[0]
    comp = cKDTree(p).query(g, k=1)[0]
    n_p, n_g = estimate_normals(p, k), estimate_normals(g, k)
    _, idx_pg = cKDTree(g).query(p, k=1)
    _, idx_gp = cKDTree(p).query(g, k=1)
    vals = np.minimum(np.concatenate([np.abs(np.sum(n_p * n_g[idx_pg], axis=1)),
                                      np.abs(np.sum(n_g * n_p[idx_gp], axis=1))]), 1.0)
    return (float(acc.mean()), float(np.median(acc)), float(comp.mean()),
            float(np.median(comp)), float(vals.mean()), float(np.median(vals)))


@pytest.mark.parametrize("n_pred, n_gt, n_max, k", [(700, 650, 500, 12), (300, 400, 1000, 8)])
def test_recon_metrics_one_tree_per_cloud_bitwise(monkeypatch, n_pred, n_gt, n_max, k):
    rng = SplitMix64(25)
    pred = _random_cloud(rng, n_pred)
    gt = _random_cloud(rng, n_gt)
    gt[:50] = pred[:50]                      # exact matches and distance ties
    want = _six_tree_recon(pred, gt, n_max, 4, k)
    want_nc = _six_tree_recon(pred, gt, 10**6, 0, k)[4:]
    builds = []

    def counting_tree(data, *args, **kwargs):
        builds.append(len(data))
        return cKDTree(data, *args, **kwargs)
    monkeypatch.setattr(metrics, "cKDTree", counting_tree)
    m = recon_metrics(pred, gt, n_max=n_max, seed=4, k=k)
    assert (m.acc_mean, m.acc_median, m.comp_mean, m.comp_median,
            m.nc_mean, m.nc_median) == want
    assert sorted(builds) == sorted([min(n_pred, n_max), min(n_gt, n_max)])
    builds.clear()
    m = recon_metrics(pred, gt, n_max=10**6, k=k)
    assert (m.nc_mean, m.nc_median) == want_nc
    assert len(builds) == 2

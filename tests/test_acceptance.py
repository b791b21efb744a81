"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Each test prints PASS/FAIL through the `criterion` context
manager and enforces the tolerances with plain asserts.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from conftest import brute_nn_distances, demo_scene, lift, spinning_box_scene
from scene4d import metrics, synth
from scene4d.geometry import SE3, axis_angle_rotation, se3_apply, sim3_apply
from scene4d.lifting import classify_dynamic, split_clips
from scene4d.losses import LossConfig, gradient_check_suite, point_loss
from scene4d.metrics import apd_epe, recon_metrics, umeyama_sim3
from scene4d.rng import SplitMix64
from scene4d.synth import (SceneObject, SceneSpec, complete_cloud, generate,
                           oracle_aggregate, plane_mesh)
from scene4d.transformer import (AggregationFormer, FrameTokens, ModelConfig,
                                 assemble, attention_layer, patchify)
from scene4d.geometry import CameraParams, DepthMap


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {num:02d} {name}: FAIL")
        raise
    print(f"[ACCEPTANCE] {num:02d} {name}: PASS")


def test_01_oracle_zero_point():
    with criterion(1, "oracle zero-point"):
        t0 = time.perf_counter()
        ds = generate(demo_scene())  # rotating box, translating box, ground, 64x64, N=8
        target = 3
        maps = [oracle_aggregate(ds, i, target) for i in range(ds.n_frames)]
        pred = np.concatenate([m.cloud() for m in maps])
        gt = complete_cloud(maps)
        m = recon_metrics(pred, gt, n_max=20_000, seed=1, k=16)
        elapsed = time.perf_counter() - t0
        assert m.acc_mean < 1e-9 and m.acc_median < 1e-9
        assert m.comp_mean < 1e-9 and m.comp_median < 1e-9
        assert m.nc_mean > 0.99
        assert elapsed < 10.0


def test_02_occlusion_completion_witness():
    with criterion(2, "occlusion completion witness"):
        spec = spinning_box_scene()          # half-turn box, two-sided coverage
        ds = generate(spec)
        target = 0
        maps = [oracle_aggregate(ds, i, target) for i in range(ds.n_frames)]
        union = complete_cloud(maps)
        frame_only = maps[target].cloud()
        assert len(union) > 1.2 * len(frame_only)

        # every aggregated point must lie on the true surface at time 0:
        # barycentric recombination of its face at frame 0 is the oracle
        meshes = [(o.vertices_at(target), o.faces) for o in spec.objects]
        worst = 0.0
        for i in range(ds.n_frames):
            att = ds.attachments[i]
            valid = maps[i].valid
            vs, us = np.nonzero(valid)
            oid = att.object_id[vs, us]
            for o, (verts, faces) in enumerate(meshes):
                sel = oid == o
                if not np.any(sel):
                    continue
                corners = verts[faces[att.face_id[vs[sel], us[sel]]]]
                truth = np.einsum("kc,kcd->kd", att.bary[vs[sel], us[sel]], corners)
                got = maps[i].points[vs[sel], us[sel]]
                worst = max(worst, float(np.max(np.abs(got - truth))))
        assert worst < 1e-6

        # and the union genuinely adds surface unseen at frame 0
        added = np.concatenate([maps[i].cloud() for i in range(1, ds.n_frames)])
        assert (brute_nn_distances(added, frame_only) > 0.05).sum() > 100


def test_03_metric_arithmetic():
    with criterion(3, "metric arithmetic"):
        # three points far apart (k = 3, the fewest normals take), each
        # matched to its own copy shifted by 0.2 m
        p = np.array([[0.7, -1.1, 4.0], [3.7, -1.1, 4.0], [0.7, 1.9, 4.0]])
        r = recon_metrics(p + [0.2, 0, 0], p, seed=0, k=3)
        for x in (r.acc_mean, r.acc_median, r.comp_mean, r.comp_median):
            assert abs(x - 0.2) < 1e-12
        gt = np.array([[[0.7, -1.1, 4.0]] * 3])        # one track, three frames
        pred = gt + np.array([0.2, 0.0, 0.0])
        m = apd_epe(pred, gt, alignment="none")
        assert m.apd_per_threshold == (0.0, 100.0, 100.0, 100.0)
        assert m.apd == 75.0
        assert abs(m.epe - 0.2) < 1e-12


def test_04_alignment_round_trips():
    with criterion(4, "alignment round-trips"):
        rng = SplitMix64(44)
        gt = np.array([[[rng.uniform() * 4 - 2 for _ in range(3)]
                        for _ in range(6)] for _ in range(20)]) + [0, 0, 5]
        for s in (0.25, 2.0, 17.0):
            m = apd_epe(s * gt, gt, alignment="median_scale")
            assert m.epe < 1e-12
        pred_pts = gt.reshape(-1, 3)
        Rz90 = axis_angle_rotation([0, 0, 1], math.pi / 2)
        gt_pts = 3.0 * pred_pts @ Rz90.T + [1, 2, 3]
        T = umeyama_sim3(pred_pts, gt_pts)
        residual = np.linalg.norm(sim3_apply(T, pred_pts) - gt_pts, axis=1).max()
        assert residual < 1e-9
        m = apd_epe(pred_pts.reshape(20, 6, 3), gt_pts.reshape(20, 6, 3),
                    alignment="sim3")
        assert m.apd == 100.0


def test_05_gradient_checks():
    with criterion(5, "finite-difference gradient checks"):
        t0 = time.perf_counter()
        errs = gradient_check_suite(seed=0, trials=100, h=1e-5)
        elapsed = time.perf_counter() - t0
        assert set(errs) == {"point_focal", "point_dynamic", "point_offset",
                             "depth", "camera"}
        for name, err in errs.items():
            assert err < 1e-4, f"{name}: {err}"
        assert elapsed < 30.0


def test_06_offset_endpoint_equivalence():
    with criterion(6, "offset/endpoint equivalence"):
        rng = SplitMix64(66)

        def dyadic(shape, scale, span):
            n = int(np.prod(shape))
            ints = np.array([rng.randbelow(2 * span) - span for _ in range(n)])
            return (ints / scale).reshape(shape)

        for _ in range(50):
            o_hat = dyadic((8, 8, 3), 4096, 8192)
            o = dyadic((8, 8, 3), 4096, 8192)
            p_t = dyadic((8, 8, 3), 16, 64)
            sigma = 0.25 + np.abs(dyadic((8, 8), 4096, 8192))
            valid = rng.uniform_array(64).reshape(8, 8) > 0.1
            a = point_loss(o_hat, o, sigma, valid,
                           cfg=LossConfig(representation="offset"))
            b = point_loss(o_hat + p_t, o + p_t, sigma, valid,
                           cfg=LossConfig(representation="endpoint"))
            assert a.value == b.value
            assert np.array_equal(a.grad_points, b.grad_points)
            assert np.array_equal(a.grad_sigma, b.grad_sigma)


def test_07_barycentric_lifting():
    with criterion(7, "barycentric lifting"):
        n_frames = 6
        motion = [SE3(axis_angle_rotation([0.3, 1.0, 0.2], 0.25 * t),
                      np.array([0.4 * t, -0.1 * t, 0.05 * t]))
                  for t in range(n_frames)]
        verts, faces = plane_mesh([0, 0, 5.0], [4, 0, 0], [0, 4, 0])
        obj = SceneObject(verts, faces, motion)
        cam = CameraParams(q=[1, 0, 0, 0], t=[0, 0, 0], fov=(math.pi / 2, math.pi / 2))
        spec = SceneSpec(objects=[obj], background=None, camera_path=[cam] * n_frames,
                         resolution=(128, 128), n_frames=n_frames, seed=1)
        depth, att, _ = synth._render(spec, 0)
        vs, us = np.nonzero(depth.valid)
        assert len(vs) >= 10_000

        verts = np.stack([obj.vertices_at(t) for t in range(n_frames)])
        bary = att.bary[vs, us]
        fids = att.face_id[vs, us]
        lifted = lift(bary, fids, verts, obj.faces)        # (M, N, 3)
        p0 = lifted[:, 0, :]                               # frame-0 attachment points
        worst = 0.0
        for t in range(n_frames):
            expected = se3_apply(motion[t], p0)            # motion[0] = identity
            worst = max(worst, float(np.max(np.abs(lifted[:, t, :] - expected))))
        assert worst < 1e-6


def test_08_clip_splitting():
    with criterion(8, "clip splitting"):
        def depths(scale):
            vals = [1.0] * 5 + [5.0] * 5
            return [DepthMap(values=np.full((8, 8), v * scale),
                             valid=np.ones((8, 8), bool)) for v in vals]

        assert split_clips(depths(1.0), tau=0.7).split_indices == [5]
        assert split_clips(depths(100.0), tau=0.7).split_indices == [5]


def test_09_dynamic_classification():
    with criterion(9, "dynamic classification"):
        def traj(displacement):
            t = np.zeros((5, 3))
            t[3, 1] = displacement
            return t

        assert classify_dynamic(traj(0.05), 0, 0.03) is True
        assert classify_dynamic(traj(0.05), 0, 0.01) is True
        assert classify_dynamic(traj(0.02), 0, 0.03) is False
        assert classify_dynamic(traj(0.02), 0, 0.01) is True
        assert classify_dynamic(traj(0.005), 0, 0.03) is False
        assert classify_dynamic(traj(0.005), 0, 0.01) is False


def test_10_token_routing():
    with criterion(10, "token routing"):
        cfg = ModelConfig(dim=64, n_heads=4, n_layers=4, patch=16, seed=5)
        model = AggregationFormer(cfg)
        rng = SplitMix64(123)
        imgs = [rng.uniform_array(64 * 64 * 3).reshape(64, 64, 3) for _ in range(8)]

        # frame-scope isolation, exact
        patches = [patchify(im, model.bank) for im in imgs[:4]]
        frames = assemble(patches, 2, model.bank)
        out = attention_layer(frames, model.bank.layers[0], "frame", cfg.n_heads)
        mutated = [FrameTokens(f.tokens.copy(), f.frame_index, f.is_target, f.is_first)
                   for f in frames]
        mutated[1].tokens[:] = -3.0
        out2 = attention_layer(mutated, model.bank.layers[0], "frame", cfg.n_heads)
        for i in (0, 2, 3):
            assert np.array_equal(out[i].tokens, out2[i].tokens)

        # permutation equivariance for N=5, a=3, frame 0 fixed
        imgs5 = imgs[:5]
        perm = [0, 2, 4, 3, 1]
        base = model.forward(imgs5, 3).patch_features
        permuted = model.forward([imgs5[i] for i in perm], 3).patch_features
        for i, j in enumerate(perm):
            assert np.max(np.abs(permuted[i] - base[j])) < 1e-5

        # changing the target touches assembly at exactly the two frames
        patches5 = [patchify(im, model.bank) for im in imgs5]
        fa = assemble(patches5, 1, model.bank)
        fb = assemble(patches5, 3, model.bank)
        for i in range(5):
            assert np.array_equal(fa[i].tokens, fb[i].tokens) == (i not in (1, 3))

        # softmax rows and the timed forward (N=8, K=16, C=64)
        t0 = time.perf_counter()
        res = model.forward(imgs, 3, collect_stats=True)
        elapsed = time.perf_counter() - t0
        assert res.patch_features.shape == (8, 16, 64)
        sums = np.concatenate(res.softmax_row_sums)
        assert np.max(np.abs(sums - 1.0)) < 1e-6
        assert elapsed < 1.0


def test_11_end_to_end_determinism(tmp_path):
    with criterion(11, "end-to-end determinism"):
        scene = {
            "resolution": [48, 48], "n_frames": 4, "seed": 9, "n_queries": 96,
            "camera": {"q": [1, 0, 0, 0], "t": [0, 0, 0],
                       "fov": [math.pi / 2, math.pi / 2]},
            "background": {"type": "plane", "center": [0, 2.5, 8],
                           "u_axis": [8, 0, 0], "v_axis": [0, 0, 8]},
            "objects": [
                {"shape": {"type": "box", "center": [0.8, 0, 5], "size": [1.2, 1.2, 1.2]},
                 "motion": {"kind": "spin", "axis": [0, 1, 0], "pivot": [0.8, 0, 5],
                            "radians_per_frame": 0.5}},
            ],
        }
        spec_path = tmp_path / "scene.json"
        spec_path.write_text(json.dumps(scene))
        data_dir = tmp_path / "d"
        agg_dir = tmp_path / "agg"
        tracks = tmp_path / "tracks.csv"

        def pipeline() -> bytes:
            for d in (data_dir, agg_dir):
                if d.exists():
                    shutil.rmtree(d)
            if tracks.exists():
                tracks.unlink()
            out = b""
            cmds = [
                ["gen", "--spec", str(spec_path), "--out", str(data_dir), "--seed", "9"],
                ["aggregate-oracle", "--data", str(data_dir), "--target", "1",
                 "--out", str(agg_dir), "--tracks-out", str(tracks)],
                ["eval-recon", "--pred", str(agg_dir / "complete_cloud.ply"),
                 "--gt", str(agg_dir / "complete_cloud.ply"), "--seed", "2"],
                ["eval-track", "--pred", str(tracks),
                 "--gt", str(data_dir / "trajectories.csv"), "--align", "median"],
            ]
            for c in cmds:
                proc = subprocess.run([sys.executable, "-m", "scene4d.cli"] + c,
                                      capture_output=True)
                assert proc.returncode == 0, proc.stderr.decode()
                out += proc.stdout
            return out

        first = pipeline()
        second = pipeline()
        assert first == second


def test_12_brute_force_equivalence():
    with criterion(12, "nearest-neighbor brute-force equivalence"):
        rng = SplitMix64(7)
        for trial in range(20):
            n = 50 + rng.randbelow(951)     # up to 1000 points
            m = 50 + rng.randbelow(951)
            a = rng.uniform_array(n * 3).reshape(n, 3) * 8 - 4
            b = rng.uniform_array(m * 3).reshape(m, 3) * 8 - 4
            # the per-point distances recon_metrics reduces, from its KD-trees
            acc, comp, _, _ = metrics._matched(a, b, 3)
            assert np.array_equal(acc, brute_nn_distances(a, b))
            assert np.array_equal(comp, brute_nn_distances(b, a))

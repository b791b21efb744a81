"""Golden digests of the producer path, `gen` then `aggregate-oracle
--tracks-out`, run through cli.main on two small scenes, and of two
consume commands' stdout.

The SHA-256 of stdout (path-valued fields removed) and of every written
file is pinned, so a change to the ray caster, the oracle or a writer
cannot alter the bytes a dataset producer gets without this test failing.
The digests were taken on CPython 3.11 with numpy 2.4 on x86-64 Linux,
with OpenBLAS's SkylakeX kernels. They move where libm or numpy's SIMD
kernels round differently, and also with the OpenBLAS kernel: every `@`
on (n, 3) x (3, 3) or 3 x 3 operands (in `geometry`, `synth.spin_path`
and `synth._render`) is a gemm or gemv call, and kernels differ in FMA
use and summation order. Under `OPENBLAS_CORETYPE=Haswell` the `[boxes]`
case fails, and under `Sandybridge` both cases do. A machine with
another libm, SIMD level or BLAS kernel may need its own digests.

Two consume commands have their stdout pinned the same way:
`loss-check --seed 7 --trials 3`, which reaches every analytic gradient
and the finite-difference harness, and `forward` on three 32x32 frames
under a small config, which reaches the trunk and the camera head. The
loss-check digest held under every setting tried: OpenBLAS's SkylakeX,
Haswell and Sandybridge kernels, 2 BLAS threads, and numpy's AVX2 and
AVX-512 loops off (`NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL
AVX512_SPR"`); its differences are taken in longdouble, so it rests on
libm's long-double `logl`. The forward digest moves under each of those
settings but 2 threads: the trunk's projections, scores and MLP are
OpenBLAS gemm and gemv calls, and `scipy.special.erf` and numpy's
float64 loops round by SIMD level.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from scene4d.cli import main
from scene4d.tensorio import write_tensor

_GROUND = {"type": "plane", "center": [0, 2.5, 8], "u_axis": [9, 0, 0], "v_axis": [0, 0, 9]}


def _orbit_camera(step):
    """A camera turning about the y axis as it slides sideways; the
    numbers are rounded so the scene does not depend on libm."""
    a = 0.03 * step
    return {"q": [round(math.cos(a / 2), 9), 0.0, round(-math.sin(a / 2), 9), 0.0],
            "t": [round(0.1 * step, 9), round(-0.02 * step, 9), 0.0],
            "fov": [1.5, 1.4]}


def _sphere(slices, stacks, centre, radius):
    """UV sphere with a fixed radial ripple, vertices rounded to 1e-9."""
    verts = [[0.0, radius, 0.0]]
    for i in range(1, stacks):
        phi = math.pi * i / stacks
        for j in range(slices):
            th = 2 * math.pi * j / slices
            r = radius * (1 + 0.05 * ((7 * i + 3 * j) % 5 - 2) / 2)
            verts.append([r * math.sin(phi) * math.cos(th), r * math.cos(phi),
                          r * math.sin(phi) * math.sin(th)])
    verts.append([0.0, -radius, 0.0])
    verts = [[round(v + c, 9) for v, c in zip(p, centre)] for p in verts]

    def ring(i, j):
        return 1 + (i - 1) * slices + j % slices
    bottom = len(verts) - 1
    faces = [[0, ring(1, j + 1), ring(1, j)] for j in range(slices)]
    for i in range(1, stacks - 1):
        for j in range(slices):
            a, b, c, d = ring(i, j), ring(i, j + 1), ring(i + 1, j), ring(i + 1, j + 1)
            faces += [[a, b, d], [a, d, c]]
    faces += [[bottom, ring(stacks - 1, j), ring(stacks - 1, j + 1)] for j in range(slices)]
    return {"type": "mesh", "vertices": verts, "faces": faces}


SCENES = {
    # Few triangles, many rays, a moving camera: the produce workload's shape.
    "boxes": {
        "resolution": [48, 48], "n_frames": 4, "seed": 23, "n_queries": 96,
        "camera_path": [_orbit_camera(s) for s in range(4)],
        "background": _GROUND,
        "objects": [
            {"shape": {"type": "box", "center": [1.2, 0, 5], "size": [1.4, 1.4, 1.4]},
             "motion": {"kind": "spin", "axis": [0, 1, 0], "pivot": [1.2, 0, 5],
                        "radians_per_frame": 0.45}},
            {"shape": {"type": "box", "center": [-1.5, 0, 6], "size": [1, 1, 1]},
             "motion": {"kind": "translate", "velocity": [0.25, 0, 0]}},
        ],
    },
    # Many triangles, few rays, odd resolution: the dense_mesh workload's shape.
    "sphere": {
        "resolution": [37, 29], "n_frames": 3, "seed": 41, "n_queries": 64,
        "camera": _orbit_camera(1),
        "background": _GROUND,
        "objects": [
            {"shape": _sphere(24, 13, [0.0, 0.0, 5.0], 1.6),
             "motion": {"kind": "spin", "axis": [0.2, 1, -0.1], "pivot": [0, 0, 5],
                        "radians_per_frame": 0.3}},
        ],
    },
}

GOLDEN = {
    "boxes": {
        "stdout":
            "e4e0bf5bb2f7567844b693a61d6ca81f5e5209fc768e874b7cc270898cd4626a",
        "agg/aggregated_0000.ct4":
            "bf4d40143e7475f6a10ebe4cb8be9a4ffae37760b04d34f852d506cfd3e22370",
        "agg/aggregated_0001.ct4":
            "f840aac4290ef959b0d17a6eaa9fc3c97e0a293595597c67ab25a6c424ceae10",
        "agg/aggregated_0002.ct4":
            "00712a39538f9f0c1275d2347092b1af36f09c09aec0033f55555ff4439c5e45",
        "agg/aggregated_0003.ct4":
            "fdef45dda9fd7a741f5cf3888433d12604fbce8b562e0f3f7a998a81412d2fdc",
        "agg/complete_cloud.ply":
            "fac1d0dd1b14a41e205ac2ec109b9f905dd9e6bfaf47a53dbc5de2f2f3f472a6",
        "data/attachments_0000.ct4":
            "89952b95b88b4caa985e1911902ef3b17f258c15a96cd06ebcf680f6aa79f2d7",
        "data/attachments_0001.ct4":
            "9a209835cc7daedb30c4bc393e980462f08cb900ffa5b96a55e45253df03d4f5",
        "data/attachments_0002.ct4":
            "dd7b7791d3c300811d7e8698c8a0030c1c6f509f066277edecbccdeba1771d93",
        "data/attachments_0003.ct4":
            "a1cca41797b8fa4314715e68f0074da5acbddfd575b6272614b3cb11df1cf5be",
        "data/cameras.json":
            "4f9d3e07660e5a0a280e436d1259fea61ab20deb291aa268f6587f8d707a2d3c",
        "data/depth_0000.ct4":
            "e2b9e702294e82abee11c64d45842e698e8358e2a20a4f63170a8fb0e9674b57",
        "data/depth_0001.ct4":
            "f61363f7f9671135af32e4a377bee31a4d985a955eade8872b355a1a40b9eb3a",
        "data/depth_0002.ct4":
            "99e066e576e526aa7683b8c7d5ed769cd861f7120195d1c65ff595ff50f58010",
        "data/depth_0003.ct4":
            "6762fba13c08f60379e42bc1e6798c8ee637539ce3bdd0c3bbe94d8c801063ad",
        "data/dynamic_mask_0000.ct4":
            "60a496ddb62992a792c3f48c532122469e447095d53a558cde77ccc3bbecde04",
        "data/dynamic_mask_0001.ct4":
            "626f7be086adb061001303f37af707d27edff26e59f5bf8eb46b5858afe36274",
        "data/dynamic_mask_0002.ct4":
            "cd90feb9c44100af2596013e6a3c2286f446dfa2962fec0bb11a79f6ea008211",
        "data/dynamic_mask_0003.ct4":
            "c1a027f63f1d2392b8956ba6a14b1a8610f85d587be6b4618df7b2e33e8bd78f",
        "data/pointmap_0000.ct4":
            "ac701f5ea4b6f27a2ff00bf98e67c0efc8c81a05702fa0ad7ce958d2455c8400",
        "data/pointmap_0001.ct4":
            "723c0c87e0fb183e611b5860a497ad30f047b81370dbe4fa82105e71f2a0f305",
        "data/pointmap_0002.ct4":
            "546b49e294d122eafc8ddbeb239363ef0865634dc7fb0a1f4a63c18352ff9f57",
        "data/pointmap_0003.ct4":
            "02f52ad40bd559357c76c06e25b74d33290411aa7c4766c9a38bc9ef897c7b26",
        "data/scene.json":
            "3e51c4ba84e1f5bd359e7a4227698e380c7ea2cc5bb0e1d51f072b568376b107",
        "data/trajectories.csv":
            "ab95924531ebca72e1a41eb5af52d0d80cc6f9114eadbf46fb1b9aa7889c7be8",
        "tracks.csv":
            "394c2123326624316df00d58b4165f31e329e99bfeb9e6194196e729f295724c",
    },
    "sphere": {
        "stdout":
            "dcb3bfe357622b3899f342155cc630dfac12bacf03a17fc22c8590834488f1db",
        "agg/aggregated_0000.ct4":
            "730dbfbe09972cdcaf00337ded80104884fe12b12e82437d0391cbfcc0e35f96",
        "agg/aggregated_0001.ct4":
            "90924b6ac72fefa79f8f40f47a63dfa86dc792552e7cc8359d91279ed4320432",
        "agg/aggregated_0002.ct4":
            "522e8d34501ae6cf0ecaef497688e21309271b0c85c876395583b5e7136db05c",
        "agg/complete_cloud.ply":
            "27ea4f692978bbfba1da6bf209822c33c04d14972bc7538a0a2466283d803c2a",
        "data/attachments_0000.ct4":
            "80a68d99cbbcb0bdf722c53f191f689170feedeaf9c775f4d49898a79903ad9f",
        "data/attachments_0001.ct4":
            "d2d2779c9d269b59e28a5b48d2f43cd8a44a0a36771f1789ea29469a5f99bb9f",
        "data/attachments_0002.ct4":
            "5f248ef893b90edbf5fe2a079588a9c40b5362f5cb2f65018387b46c3ab47ca7",
        "data/cameras.json":
            "99e3b56664ce5d443abc5d8515b12f357fba173f781a9844f80b1cf7e0997f9d",
        "data/depth_0000.ct4":
            "1955989ab422986e123c952880cb15d57a1fdf98da4172ee9108b03a67c85b0a",
        "data/depth_0001.ct4":
            "ae25b633a5ba652b2106e2503fec0b7823d2a1224867907911806733467785af",
        "data/depth_0002.ct4":
            "903be75b75af0a9f216990866e20db635f3a8e8db1a83c0a79e9a8c553d0c477",
        "data/dynamic_mask_0000.ct4":
            "fe142a44750eecd8a1390d5d96ff0313c229bc9a3fce348960b864e95896ff7b",
        "data/dynamic_mask_0001.ct4":
            "3f0157d2dbc8a6dab9ab29d4b3fc652ecfde99782d7b2b5aee0390c0dba9e54b",
        "data/dynamic_mask_0002.ct4":
            "2f5e1d29054ad78b7dfe0bf8e26895ea7056379b75854b0a2a72f5218b6ec213",
        "data/pointmap_0000.ct4":
            "709e1f6a59ec1c39df21e55aa9d0510f840b1b2131fcded2ab2e9927c972bb06",
        "data/pointmap_0001.ct4":
            "5e1a71d4b02491f287486313b25755b6aa4168f65047a4f569730727e7e428da",
        "data/pointmap_0002.ct4":
            "19c75c48df6fdfdf011c619554fd47dbb351cca2f1ef8806a80c065f7f86e2df",
        "data/scene.json":
            "953bda32c4cea6ae7d55495e2397719b6b27768dcbef3b33f19b5acd9f92460b",
        "data/trajectories.csv":
            "e5f41131f131897be1c52029bbaea891728e0223c9f30d9039841761ea3e85f5",
        "tracks.csv":
            "88b6b6c1c83dd2522a88bf225dd925e17b13136e19d5f325860baecdbeadca6c",
    },
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _produce(tmp_path, capsys, scene):
    """Run gen and aggregate-oracle --tracks-out -> {name: sha256}."""
    spec = tmp_path / "scene.json"
    spec.write_text(json.dumps(scene))
    stdout = []
    for argv in (["gen", "--spec", str(spec), "--out", str(tmp_path / "data")],
                 ["aggregate-oracle", "--data", str(tmp_path / "data"), "--target", "1",
                  "--out", str(tmp_path / "agg"), "--tracks-out", str(tmp_path / "tracks.csv")]):
        assert main(argv) == 0
        result = json.loads(capsys.readouterr().out)
        for field in ("out", "tracks_out"):
            result.pop(field, None)
        stdout.append(json.dumps(result, sort_keys=True))
    digests = {"stdout": _digest("\n".join(stdout).encode())}
    for path in sorted(p for p in tmp_path.rglob("*") if p.is_file() and p != spec):
        digests[path.relative_to(tmp_path).as_posix()] = _digest(path.read_bytes())
    return digests


@pytest.mark.parametrize("name", sorted(SCENES))
def test_producer_outputs_match_golden_digests(name, tmp_path, capsys):
    assert _produce(tmp_path, capsys, SCENES[name]) == GOLDEN[name]


CONSUMER_GOLDEN = {
    "loss-check": "d4763b68dc51ffd89acfecdf736bc07ba6d585691b3916f19e273e5195055d1c",
    "forward": "f972e70ba731d38a4fcb0bb3e202a1900a650e753512288595a9a292b9d7596f",
}


def _consumer_argv(command, tmp_path):
    if command == "loss-check":
        return ["loss-check", "--seed", "7", "--trials", "3"]
    frames = tmp_path / "frames"
    frames.mkdir()
    rng = np.random.default_rng(3)
    for t in range(3):
        write_tensor(frames / f"frame_{t:04d}.ct4", rng.random((32, 32, 3)))
    config = tmp_path / "model.json"
    config.write_text(json.dumps({"dim": 32, "n_heads": 4, "patch": 8}))
    return ["forward", "--frames", str(frames), "--target", "1",
            "--config", str(config), "--seed", "7"]


@pytest.mark.parametrize("command", sorted(CONSUMER_GOLDEN))
def test_consumer_stdout_matches_golden_digest(command, tmp_path, capsys):
    assert main(_consumer_argv(command, tmp_path)) == 0
    assert _digest(capsys.readouterr().out.encode()) == CONSUMER_GOLDEN[command]

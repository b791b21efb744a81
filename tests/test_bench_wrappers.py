"""The benchmark's traced runs re-bind `scene4d` module attributes to span
wrappers (`bench/spans.py`). A refactor that stops calling a traced
function through its module's globals, or removes one, silently drops that
layer from traced runs or crashes them; this drives the wrappers over the
producer commands, `forward` and the consume commands and fails instead."""

import contextlib
import importlib.util
import io
import json
import os
import threading
from pathlib import Path

import numpy as np

import scene4d
import scene4d.cli
from conftest import demo_scene
from scene4d.tensorio import read_tensor, write_ply, write_tensor

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = scene4d.cli.main(list(argv))
    return code, buf.getvalue()


def _originals(spans, rec):
    return [(owner, attr, owner.__dict__[attr])
            for owner, attr, _ in spans._wrappers(rec, scene4d)]


def test_traced_producer_commands_record_spans_and_restore(tmp_path):
    spans = _load_spans()
    rec = spans.Recorder("test")
    traced = _originals(spans, rec)
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(
        demo_scene(n_frames=3, resolution=(16, 16), n_queries=12).to_dict()))

    rec.iteration, rec.active = 0, True
    with spans.instrument(rec, scene4d):
        gen = _run(["gen", "--spec", str(scene), "--out", str(tmp_path / "d")])
        agg = _run(["aggregate-oracle", "--data", str(tmp_path / "d"), "--target", "1",
                    "--out", str(tmp_path / "agg"), "--tracks-out", str(tmp_path / "t.csv")])
    rec.active = False

    assert gen[0] == 0 and agg[0] == 0, (gen, agg)
    names = {s[0] for s in rec.spans}
    assert {"geometry.project_many", "raycast.batch", "lifting.classify_dynamic",
            "synth.generate", "synth.tracks"} <= names
    assert spans.check_nesting(rec.spans) == []
    assert rec.counts[0]["raycast.rays"] == 3 * 16 * 16
    for owner, attr, original in traced:
        assert owner.__dict__[attr] is original, f"{attr} not restored"


def test_traced_forward_records_attention_spans_and_restores(tmp_path):
    spans = _load_spans()
    rec = spans.Recorder("test")
    traced = _originals(spans, rec)
    frames = tmp_path / "frames"
    frames.mkdir()
    rng = np.random.default_rng(5)
    for t in range(3):
        write_tensor(frames / f"frame_{t:04d}.ct4", rng.random((32, 32, 3)))
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"dim": 32, "n_heads": 4, "patch": 8}))
    dump = tmp_path / "features.ct4"

    rec.iteration, rec.active = 0, True
    with spans.instrument(rec, scene4d):
        fwd = _run(["forward", "--frames", str(frames), "--target", "1",
                    "--config", str(cfg), "--dump", str(dump)])
    rec.active = False

    assert fwd[0] == 0, fwd
    assert read_tensor(dump).shape == (3, 16, 32)
    names = [s[0] for s in rec.spans]
    assert {"transformer.attn_frame", "transformer.attn_global",
            "transformer.forward"} <= set(names)
    assert names.count("transformer.attn_frame") == names.count("transformer.attn_global") == 2
    assert spans.check_nesting(rec.spans) == []
    assert rec.counts[0]["transformer.tokens"] == 3 * (1 + 4 + 4 + 16)
    for owner, attr, original in traced:
        assert owner.__dict__[attr] is original, f"{attr} not restored"


def test_traced_consume_commands_open_every_span_on_the_calling_thread(tmp_path, monkeypatch):
    # The recorder keeps one span stack, so a traced function called from a
    # worker thread (the attention pool, a KD-tree or loss helper) would
    # push its span under whatever span the main thread has open. Three
    # CPUs in the affinity mask make `forward` run its attention pool.
    spans = _load_spans()
    rec = spans.Recorder("test")
    traced = _originals(spans, rec)
    opened_on = []
    open_span = rec.open

    def open_on_thread(name):
        opened_on.append(threading.get_ident())
        return open_span(name)

    rec.open = open_on_thread
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    rng = np.random.default_rng(3)
    cloud = rng.normal(0, 2, (600, 3)).astype(np.float32)
    write_ply(tmp_path / "pred.ply", cloud + rng.normal(0, 0.01, cloud.shape))
    write_ply(tmp_path / "gt.ply", cloud)
    frames = tmp_path / "frames"
    frames.mkdir()
    for t in range(3):
        write_tensor(frames / f"frame_{t:04d}.ct4", rng.random((32, 32, 3)))
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"dim": 32, "n_heads": 4, "patch": 8}))

    rec.iteration, rec.active = 0, True
    with spans.instrument(rec, scene4d):
        runs = [_run(["eval-recon", "--pred", str(tmp_path / "pred.ply"),
                      "--gt", str(tmp_path / "gt.ply"), "--nmax", "400"]),
                _run(["loss-check", "--trials", "1"]),
                _run(["forward", "--frames", str(frames), "--target", "1",
                      "--config", str(cfg)])]
    rec.active = False

    assert [code for code, _ in runs] == [0, 0, 0], runs
    names = {s[0] for s in rec.spans}
    assert {"metrics.recon", "metrics.kdtree_query", "metrics.estimate_normals",
            "losses.finite_diff_check", "losses.point_loss",
            "transformer.attn_global", "transformer.forward"} <= names
    assert len(opened_on) == len(rec.spans)
    assert set(opened_on) == {threading.get_ident()}
    assert spans.check_nesting(rec.spans) == []
    for owner, attr, original in traced:
        assert owner.__dict__[attr] is original, f"{attr} not restored"

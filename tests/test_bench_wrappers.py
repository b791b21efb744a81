"""The benchmark's traced runs re-bind `scene4d` module attributes to span
wrappers (`bench/spans.py`). A refactor that stops calling a traced
function through its module's globals, or removes one, silently drops that
layer from traced runs or crashes them; this drives the wrappers over the
producer commands and fails instead."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import scene4d
import scene4d.cli
from conftest import demo_scene

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


def test_traced_producer_commands_record_spans_and_restore(tmp_path):
    spans = _load_spans()
    rec = spans.Recorder("test")
    traced = [(owner, attr, owner.__dict__[attr])
              for owner, attr, _ in spans._wrappers(rec, scene4d)]
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

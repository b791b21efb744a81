"""The oracle's aggregation streams its warped maps: `aggregate-oracle`
holds one warped map at a time, and the synth helpers it feeds give the
same arrays from a generator as from a list."""

import contextlib
import dataclasses
import io
import json
import tracemalloc

import numpy as np
import pytest

from conftest import demo_scene
from scene4d import cli
from scene4d.synth import complete_cloud, oracle_aggregate, tracks_from_aggregation
from scene4d.tensorio import load_dataset


def _array_bytes(obj) -> int:
    """Bytes of every numpy array reachable through lists and dataclasses."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(x) for x in obj)
    if dataclasses.is_dataclass(obj):
        return sum(_array_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("streaming")
    scene = root / "scene.json"
    scene.write_text(json.dumps(demo_scene(n_frames=8, resolution=(64, 64)).to_dict()))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen", "--spec", str(scene), "--out", str(root / "data")]) == 0
    return root / "data"


def test_aggregate_oracle_holds_one_warped_map_at_a_time(dataset_dir, tmp_path):
    dataset = load_dataset(dataset_dir)
    dataset_bytes = _array_bytes(dataset)
    map_bytes = dataset.pointmaps[0].points.nbytes + dataset.pointmaps[0].valid.nbytes
    cloud_bytes = sum(int(d.valid.sum()) for d in dataset.depths) * 3 * 8
    del dataset

    argv = ["aggregate-oracle", "--data", str(dataset_dir), "--target", "3",
            "--out", str(tmp_path / "agg"), "--tracks-out", str(tmp_path / "tracks.csv")]
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # The complete cloud is the command's output: its per-frame parts and
    # their concatenation are alive together once, however the maps stream.
    # Beyond that, a list of the 8 warped maps (or of the 8 per-target maps
    # for the tracks) would alone be 8 maps.
    assert peak - dataset_bytes - 2 * cloud_bytes < 4 * map_bytes


def test_complete_cloud_same_from_list_or_generator(demo_dataset):
    n = demo_dataset.n_frames
    maps = [oracle_aggregate(demo_dataset, i, 3) for i in range(n)]
    from_list = complete_cloud(maps)
    from_gen = complete_cloud(oracle_aggregate(demo_dataset, i, 3) for i in range(n))
    assert from_list.dtype == from_gen.dtype and from_list.shape == from_gen.shape
    assert from_list.tobytes() == from_gen.tobytes()
    assert len(from_list) == sum(int(d.valid.sum()) for d in demo_dataset.depths)
    assert complete_cloud(iter([])).shape == (0, 3)


def test_tracks_same_from_list_or_generator(demo_dataset):
    n = demo_dataset.n_frames
    queries = demo_dataset.trajectories.query_pixels
    maps = [oracle_aggregate(demo_dataset, 0, a) for a in range(n)]
    from_list = tracks_from_aggregation(maps, queries)
    from_gen = tracks_from_aggregation((oracle_aggregate(demo_dataset, 0, a)
                                        for a in range(n)), queries)
    for field in ("positions", "visible", "dynamic", "query_pixels"):
        a, b = getattr(from_list, field), getattr(from_gen, field)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), field
    assert from_list.positions.shape == (len(queries), n, 3)

"""Round-trips and error handling for the on-disk formats."""

import json
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emap import io as emap_io
from emap.boosting import AdaBoostModel, DecisionTree
from emap.data import PairedDataset
from emap.exceptions import InputError, NumericError
from emap.grid import ScoreGrid, emap_decompose
from emap.models import FeedForwardModel, LinearModel, Poly2Model
from emap.synth import SynthParams, generate

import test_paths as paths


def fuzz_load(load, content: bytes):
    """Load ``content`` from a binary file; None when the loader raises InputError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.bin"
        path.write_bytes(content)
        try:
            return load(path)
        except InputError:
            return None


HUGE = st.integers(0, 2**64 - 1)


def model_payload(kind: str) -> dict:
    """A small valid model file of each kind, with text width 3 and visual width 2."""
    rng = np.random.default_rng(0)
    if kind == "linear":
        model = LinearModel(w_t=rng.standard_normal((3, 2)), w_v=rng.standard_normal((2, 2)), b=np.zeros(2))
    elif kind == "poly2":
        model = Poly2Model(w=rng.standard_normal((3 + 2 + 6, 2)), b=np.zeros(2), d1=3, d2=2)
    elif kind == "feedforward":
        model = FeedForwardModel(
            proj_t=rng.standard_normal((3, 2)),
            proj_t_b=np.zeros(2),
            proj_v=rng.standard_normal((2, 2)),
            proj_v_b=np.zeros(2),
            layers=((rng.standard_normal((8, 3)), np.zeros(3)), (rng.standard_normal((3, 2)), np.zeros(2))),
        )
    else:
        tree = DecisionTree(
            feature=np.array([1, -1, -1]),
            threshold=np.array([0.5, 0.0, 0.0]),
            left=np.array([1, -1, -1]),
            right=np.array([2, -1, -1]),
            value=np.array([0.0, -1.0, 1.0]),
        )
        model = AdaBoostModel(stages=((tree, 0.7, "text"), (tree, 0.3, "visual")), restriction="unimodal", d1=3, d2=2)
    return json.loads(json.dumps(model.to_json_dict()))


def json_paths(node, prefix=()):
    """Every path to a value inside a JSON object, the root excluded."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


MUTATIONS = ["delete", "duplicate", float("nan"), float("inf"), -1, 0, 10**6, 1e300, "x", [], None, True]


@pytest.fixture
def grid():
    rng = np.random.default_rng(0)
    return ScoreGrid(values=rng.standard_normal((5, 5, 2)))


@pytest.fixture
def dataset():
    return generate(SynthParams(n=60, d=4, d1=6, d2=5, seed=1))


class TestGridFiles:
    @pytest.mark.parametrize("name", ["grid.json", "grid.bin"])
    def test_roundtrip(self, grid, tmp_path, name):
        path = tmp_path / name
        emap_io.save_grid(grid, path)
        loaded = emap_io.load_grid(path)
        np.testing.assert_array_equal(loaded.values, grid.values)

    def test_rejects_rectangular(self, tmp_path):
        rect = ScoreGrid(values=np.zeros((2, 3, 1)))
        with pytest.raises(InputError):
            emap_io.save_grid(rect, tmp_path / "grid.json")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "grid.bin"
        path.write_bytes(b"NOTAGRID" + b"\x00" * 32)
        with pytest.raises(InputError, match="magic"):
            emap_io.load_grid(path)

    def test_truncated_binary(self, grid, tmp_path):
        path = tmp_path / "grid.bin"
        emap_io.save_grid(grid, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(InputError, match="truncated"):
            emap_io.load_grid(path)

    def test_json_shape_mismatch(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text('{"n": 3, "d": 1, "values": [[[1.0]]]}')
        with pytest.raises(InputError, match="shape"):
            emap_io.load_grid(path)

    @settings(max_examples=200, deadline=None)
    @given(n=HUGE, d=HUGE, payload=st.binary(max_size=80))
    def test_any_binary_header_loads_or_is_input_error(self, n, d, payload):
        """The header is checked against the file size before anything is read."""
        loaded = fuzz_load(emap_io.load_grid, b"EMAPGRID" + struct.pack("<IQQ", 1, n, d) + payload)
        if loaded is not None:
            assert loaded.values.nbytes == len(payload)

    @pytest.mark.parametrize(
        "text", ['{"n": 1, "d": 1}', '{"n": 1, "d": 1, "values": [[["x"]]]}', "{", "[1, 2]", '"grid"']
    )
    def test_malformed_json_grid_is_input_error(self, tmp_path, text):
        path = tmp_path / "grid.json"
        path.write_text(text)
        with pytest.raises(InputError):
            emap_io.load_grid(path)

    def test_trailing_bytes(self, grid, tmp_path):
        path = tmp_path / "grid.bin"
        emap_io.save_grid(ScoreGrid(values=np.zeros((2, 2, 1))), path)
        path.write_bytes(path.read_bytes() + bytes(24))
        with pytest.raises(InputError, match="24 unexpected bytes"):
            emap_io.load_grid(path)

    @pytest.mark.parametrize("name", ["grid.json", "grid.bin"])
    def test_channel_major_grid_rewrites_byte_for_byte(self, tmp_path, name):
        """Files keep (i, j, c) row-major order however the grid is held in memory."""
        planes = np.random.default_rng(4).standard_normal((3, 6, 6))
        grid = ScoreGrid(values=planes.transpose(1, 2, 0))
        first, second = tmp_path / f"a.{name}", tmp_path / f"b.{name}"
        emap_io.save_grid(grid, first)
        loaded = emap_io.load_grid(first)
        assert loaded.planes.flags.c_contiguous
        emap_io.save_grid(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        if name.endswith(".bin"):
            assert first.read_bytes()[28:] == np.ascontiguousarray(grid.values).tobytes()

    def test_binary_save_and_load_copy_the_grid_once(self, tmp_path):
        """save holds one (i, j, c) copy; load holds the file's bytes and one copy in planes."""
        grid = ScoreGrid(values=np.random.default_rng(5).standard_normal((3, 120, 120)).transpose(1, 2, 0))
        path = tmp_path / "grid.bin"
        peaks = []
        for action in (lambda: emap_io.save_grid(grid, path), lambda: emap_io.load_grid(path)):
            tracemalloc.start()
            try:
                action()
                peaks.append(tracemalloc.get_traced_memory()[1] / grid.values.nbytes)
            finally:
                tracemalloc.stop()
        assert peaks[0] < 1.5 and peaks[1] < 2.5, peaks

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_row_blocked_load_matches_the_file_bytes(self, monkeypatch, tmp_path, d):
        """Blocks of 1, 4 and all rows load the same values as one read of the whole payload."""
        n = 13
        path = tmp_path / "grid.bin"
        emap_io.save_grid(ScoreGrid(values=np.random.default_rng(d).standard_normal((n, n, d))), path)
        one_shot = np.frombuffer(path.read_bytes()[28:], dtype="<f8").reshape(n, n, d)
        for rows in (1, 4, n):
            monkeypatch.setattr(emap_io, "GRID_READ_BLOCK_BYTES", rows * n * d * 8)
            loaded = emap_io.load_grid(path)
            assert loaded.planes.flags.c_contiguous
            assert np.ascontiguousarray(loaded.values).tobytes() == one_shot.tobytes()

    def test_json_grid_above_the_size_limit_is_refused(self, monkeypatch, grid, tmp_path):
        path = tmp_path / "grid.json"
        emap_io.save_grid(grid, path)
        monkeypatch.setattr(emap_io, "JSON_GRID_MAX_BYTES", path.stat().st_size - 1)
        with pytest.raises(InputError, match="binary format"):
            emap_io.load_grid(path)
        monkeypatch.setattr(emap_io, "JSON_GRID_MAX_BYTES", path.stat().st_size)
        np.testing.assert_array_equal(emap_io.load_grid(path).values, grid.values)

    @pytest.mark.parametrize("d", [1, 2])
    def test_json_save_that_could_exceed_the_size_limit_is_refused(self, monkeypatch, tmp_path, d):
        """The bound holds for the longest float reprs, and a save above it writes nothing."""
        worst = ScoreGrid(values=np.full((3, 3, d), -2.2250738585072014e-308), text_ids=("a", "bb", "é"))
        bound = emap_io._json_grid_bytes_bound(worst)
        path = tmp_path / "grid.json"
        monkeypatch.setattr(emap_io, "JSON_GRID_MAX_BYTES", bound - 1)
        with pytest.raises(InputError, match="binary format"):
            emap_io.save_grid(worst, path)
        assert not path.exists()
        emap_io.save_grid(worst, tmp_path / "grid.bin")  # binary saves have no limit
        monkeypatch.setattr(emap_io, "JSON_GRID_MAX_BYTES", bound)
        emap_io.save_grid(worst, path)
        assert path.stat().st_size <= bound
        np.testing.assert_array_equal(emap_io.load_grid(path).values, worst.values)

    def test_write_is_deterministic(self, grid, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        emap_io.save_grid(grid, a)
        emap_io.save_grid(grid, b)
        assert a.read_bytes() == b.read_bytes()


class TestDecompositionFiles:
    @pytest.mark.parametrize("name", ["dec.json", "dec.bin"])
    def test_roundtrip(self, grid, tmp_path, name):
        dec = emap_decompose(grid)
        path = tmp_path / name
        emap_io.save_decomposition(dec, path)
        loaded = emap_io.load_decomposition(path)
        np.testing.assert_array_equal(loaded.tau, dec.tau)
        np.testing.assert_array_equal(loaded.phi, dec.phi)
        np.testing.assert_array_equal(loaded.mu, dec.mu)

    def test_trailing_bytes(self, grid, tmp_path):
        path = tmp_path / "dec.bin"
        emap_io.save_decomposition(emap_decompose(grid), path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(InputError, match="1 unexpected bytes"):
            emap_io.load_decomposition(path)

    def test_empty_header_rejected(self, tmp_path):
        path = tmp_path / "dec.bin"
        path.write_bytes(b"EMAPDCMP" + struct.pack("<IQQ", 1, 0, 0))
        with pytest.raises(InputError, match=">= 1"):
            emap_io.load_decomposition(path)

    @settings(max_examples=200, deadline=None)
    @given(n=HUGE, d=HUGE, payload=st.binary(max_size=80))
    def test_any_binary_header_loads_or_is_input_error(self, n, d, payload):
        loaded = fuzz_load(
            emap_io.load_decomposition, b"EMAPDCMP" + struct.pack("<IQQ", 1, n, d) + payload
        )
        if loaded is not None:
            assert loaded.tau.nbytes + loaded.phi.nbytes + loaded.mu.nbytes == len(payload) > 0


class TestDatasetFiles:
    @pytest.mark.parametrize("name", ["data.json", "data.bin"])
    def test_roundtrip(self, dataset, tmp_path, name):
        path = tmp_path / name
        emap_io.save_dataset(dataset, path)
        loaded = emap_io.load_dataset(path)
        np.testing.assert_array_equal(loaded.text, dataset.text)
        np.testing.assert_array_equal(loaded.visual, dataset.visual)
        np.testing.assert_array_equal(loaded.labels, dataset.labels)
        np.testing.assert_array_equal(loaded.split, dataset.split)
        assert loaded.num_classes == dataset.num_classes
        assert loaded.meta == dataset.meta

    def test_trailing_bytes(self, dataset, tmp_path):
        path = tmp_path / "data.bin"
        emap_io.save_dataset(dataset, path)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(InputError, match="8 unexpected bytes"):
            emap_io.load_dataset(path)

    @settings(max_examples=200, deadline=None)
    @given(header=st.tuples(HUGE, HUGE, HUGE, HUGE), payload=st.binary(max_size=80))
    def test_any_binary_header_loads_or_is_input_error(self, header, payload):
        loaded = fuzz_load(emap_io.load_dataset, b"EMAPDATA" + struct.pack("<IQQQQ", 1, *header) + payload)
        if loaded is not None:
            assert loaded.n == header[0] >= 1

    def test_binary_load_holds_the_features_once(self, tmp_path):
        """Each array is read straight into its own buffer, never as file bytes plus a copy."""
        rng = np.random.default_rng(9)
        n = 4000
        dataset = PairedDataset(
            text=rng.standard_normal((n, 60)), visual=rng.standard_normal((n, 40)),
            labels=rng.integers(0, 3, n), split=rng.integers(0, 3, n), num_classes=3,
        )
        path = tmp_path / "data.bin"
        emap_io.save_dataset(dataset, path)
        features = dataset.text.nbytes + dataset.visual.nbytes
        tracemalloc.start()
        try:
            loaded = emap_io.load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1] / features
        finally:
            tracemalloc.stop()
        assert peak < 1.25, peak
        assert loaded.text.tobytes() + loaded.visual.tobytes() == dataset.text.tobytes() + dataset.visual.tobytes()
        assert loaded.labels.tobytes() == dataset.labels.tobytes()
        assert loaded.split.tobytes() == dataset.split.tobytes()

    @pytest.mark.parametrize("code", [3, 127, 128, 255])
    def test_unknown_split_code_is_input_error(self, dataset, tmp_path, code):
        path = tmp_path / "data.bin"
        emap_io.save_dataset(dataset, path)
        raw = bytearray(path.read_bytes())
        raw[8 + struct.calcsize("<IQQQQ")] = code  # the first item's split code
        path.write_bytes(bytes(raw))
        with pytest.raises(InputError, match="split codes"):
            emap_io.load_dataset(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "data.bin"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 64)
        with pytest.raises(InputError, match="magic"):
            emap_io.load_dataset(path)

    @pytest.mark.parametrize(
        "name, edit, match",
        [
            ("data.bin", lambda raw: raw[:8] + struct.pack("<I", 2) + raw[12:], "unsupported dataset format version 2"),
            ("data.json", lambda raw: raw.replace(b'"val"', b'"holdout"'), r"unknown split names \['holdout'\]"),
            ("data.bin", lambda raw: raw[:-2] + b"[]", "dataset config is not a JSON object"),  # was {}
        ],
        ids=["binary-version", "json-split-name", "binary-config-list"],
    )
    def test_edited_file_is_input_error(self, tmp_path, name, edit, match):
        path = tmp_path / name
        emap_io.save_dataset(PairedDataset(np.zeros((3, 2)), np.ones((3, 1)), [0, 1, 0], [0, 1, 2], 2), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(InputError, match=match):
            emap_io.load_dataset(path)


class TestPairedDataset:
    FIELDS = {"text": np.zeros((3, 2)), "visual": np.ones((3, 1)), "labels": [0, 1, 0], "split": [0, 1, 2],
              "num_classes": 2}

    @pytest.mark.parametrize(
        "edit, match",
        [
            ({"text": np.zeros(3)}, "must be 2-D"),
            ({"labels": [0, 1]}, "matching lengths"),
            ({"text": np.zeros((0, 2)), "visual": np.zeros((0, 1)), "labels": [], "split": []}, "at least one item"),
            ({"visual": [[0.0], [np.nan], [1.0]]}, "non-finite"),
            ({"num_classes": 1, "labels": [0, 0, 0]}, "num_classes must be >= 2"),
            ({"labels": [0, 2, 0]}, r"labels must lie in \[0, 2\)"),
            ({"labels": [0, -1, 0]}, r"labels must lie in \[0, 2\)"),
            ({"split": [0, 3, 0]}, "split codes"),
        ],
        ids=["1-d-text", "short-labels", "no-items", "nan-feature", "one-class", "label-too-large",
             "negative-label", "unknown-split-code"],
    )
    def test_inconsistent_fields_refused(self, edit, match):
        with pytest.raises(InputError, match=match):
            PairedDataset(**{**self.FIELDS, **edit})

    @pytest.mark.parametrize("split, match", [("holdout", "unknown split 'holdout'"), ("val", "split 'val' is empty")])
    def test_subset_refuses_an_unknown_or_empty_split(self, split, match):
        data = PairedDataset(**{**self.FIELDS, "split": [0, 2, 2]})
        with pytest.raises(InputError, match=match):
            data.subset(split)


class TestModelFiles:
    def test_linear_roundtrip(self):
        paths.run("model_file", "linear")

    def test_adaboost_roundtrip(self):
        paths.run("model_file", "adaboost")

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["linear", "poly2", "feedforward", "adaboost"]),
        edits=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(MUTATIONS)), max_size=2),
    )
    def test_any_edited_model_loads_and_scores_or_is_input_error(self, kind, edits):
        payload = model_payload(kind)
        for index, mutation in edits:
            paths = list(json_paths(payload))
            *parents, key = paths[index % len(paths)]
            node = payload
            for step in parents:
                node = node[step]
            if mutation == "delete":
                del node[key]
            elif mutation == "duplicate" and isinstance(node, list):
                node.insert(key, node[key])
            elif mutation != "duplicate":
                node[key] = mutation
        model = fuzz_load(emap_io.load_model, json.dumps(payload).encode())
        if model is None:
            return
        d1, d2 = (model.w_t.shape[0], model.w_v.shape[0]) if kind == "linear" else (
            (model.proj_t.shape[0], model.proj_v.shape[0]) if kind == "feedforward" else (model.d1, model.d2)
        )
        rng = np.random.default_rng(1)
        T, V = rng.standard_normal((3, d1)), rng.standard_normal((3, d2))
        with np.errstate(all="ignore"):
            assert model.logits_many(T, V).shape == (3, model.num_classes)
            assert model.logits_grid(T, V).shape == (3, 3, model.num_classes)

    @pytest.mark.parametrize(
        "kind, n_t, n_v",
        [
            pytest.param(kind, n_t, n_v, id=f"{n_t}-{n_v}-{kind}")
            for kind in paths.SCORERS
            if paths.applies(kind, "unequal_rows")
            for n_t, n_v in paths.PATHS["unequal_rows"].sizes
        ],
    )
    def test_paired_logits_refuse_unequal_row_counts(self, kind, n_t, n_v):
        for classes in paths.SCORERS[kind].classes:
            paths.check_unequal_rows(kind, classes, n_t, n_v)

    def test_poly2_file_with_the_retired_budget_field_scores_the_same(self, tmp_path):
        """Files written while poly2 had a ``max_features`` budget keep their config and scores."""
        payload = model_payload("poly2")
        current, retired = tmp_path / "current.json", tmp_path / "retired.json"
        current.write_text(json.dumps(payload))
        payload["config"] = {
            "l2": 1e-4, "lr": 1.0, "epochs": 400, "seed": 0, "max_features": 200_000, "kind": "poly2"
        }
        retired.write_text(json.dumps(payload))
        model, loaded = emap_io.load_model(current), emap_io.load_model(retired)
        assert loaded.config == payload["config"]
        rng = np.random.default_rng(3)
        T, V = rng.standard_normal((7, 3)), rng.standard_normal((7, 2))
        np.testing.assert_array_equal(loaded.logits_many(T, V), model.logits_many(T, V))
        np.testing.assert_array_equal(loaded.logits_grid(T, V), model.logits_grid(T, V))
        features = np.hstack([T, V, np.einsum("na,nb->nab", T, V).reshape(7, -1)])
        np.testing.assert_allclose(loaded.logits_many(T, V), features @ loaded.w + loaded.b, rtol=0, atol=1e-12)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"kind": "transformer"}')
        with pytest.raises(InputError, match="unknown model kind"):
            emap_io.load_model(path)


class TestJsonFiles:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_a_non_finite_number_is_a_numeric_error_and_writes_nothing(self, tmp_path, value):
        """Strict JSON has no NaN or Infinity, so no report, manifest or model file holds one."""
        path = tmp_path / "report.json"
        with pytest.raises(NumericError, match="report.json"):
            emap_io.dump_json({"metrics": {"auc": value}}, path)
        assert not path.exists()

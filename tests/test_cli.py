"""End-to-end CLI behavior: subcommands, exit codes, manifests, determinism."""

import hashlib
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import emap
from emap import io as emap_io
from emap.cli import main
from emap.data import PairedDataset
from emap.models import LinearModel, Poly2Model


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_fixture_grid_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--grid", "fixture:worked_example_grid.json")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["max_pred_diff"] <= 1e-12
        assert report["nullspace_residual"] == 0.0

    def test_missing_grid_is_input_error(self, capsys):
        code, _, err = run(capsys, "verify", "--grid", "nope.json")
        assert code == 1
        assert "not found" in err

    def test_nan_grid_is_numeric_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 1, "d": 1, "values": [[[NaN]]]}')
        code, _, err = run(capsys, "verify", "--grid", str(path))
        assert code == 2
        assert "non-finite" in err


class TestProject:
    def test_decomposition_artifact_and_manifest(self, capsys, tmp_path):
        out = tmp_path / "dec.json"
        code, _, _ = run(capsys, "project", "--grid", "fixture:worked_example_grid.json", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 3 and payload["d"] == 1
        np.testing.assert_allclose(payload["mu"], [0.6], atol=1e-15)
        manifest = json.loads((tmp_path / "dec.json.manifest.json").read_text())
        assert manifest["tool_version"]
        assert len(manifest["inputs"]) == 1
        digest = next(iter(manifest["inputs"].values()))
        assert len(digest) == 64


class TestPipeline:
    @pytest.fixture
    def data_path(self, tmp_path, capsys):
        path = tmp_path / "data.json"
        code, _, _ = run(capsys, "synth", "--out", str(path), "--n", "200", "--seed", "5")
        assert code == 0
        return path

    def test_synth_is_reproducible(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "synth", "--out", str(a), "--n", "100", "--seed", "3")
        run(capsys, "synth", "--out", str(b), "--n", "100", "--seed", "3")
        assert a.read_bytes() == b.read_bytes()

    def test_train_eval_roundtrip(self, capsys, tmp_path, data_path):
        model_path = tmp_path / "lin.json"
        code, _, _ = run(capsys, "train", "--data", str(data_path), "--model", "linear", "--out", str(model_path))
        assert code == 0
        report_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "eval",
            "--data", str(data_path),
            "--model", str(model_path),
            "--with-emap",
            "--subsample", "2,10",
            "--report", str(report_path),
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert "accuracy" in report["metrics"]
        assert report["agreement_rate"] == 1.0  # linear model is its own projection
        assert report["subsample"]["k"] == 2
        assert any("AUC convention" in note for note in report["notes"])

    def test_csv_report(self, capsys, tmp_path, data_path):
        model_path = tmp_path / "lin.json"
        run(capsys, "train", "--data", str(data_path), "--model", "linear", "--out", str(model_path))
        report_path = tmp_path / "report.csv"
        code, _, _ = run(
            capsys, "eval", "--data", str(data_path), "--model", str(model_path),
            "--report", str(report_path),
        )
        assert code == 0
        lines = report_path.read_text().strip().splitlines()
        assert lines[0] == "model,metric,value"
        assert any(line.startswith("lin,accuracy,") for line in lines)

    def test_eval_threads_do_not_change_artifact(self, capsys, tmp_path, data_path):
        # linear projects from its marginals; the mlp and unimodal AdaBoost build a grid
        trained = {
            "lin": ["--model", "linear"],
            "mlp": ["--model", "mlp", "--epochs", "3", "--hidden", "4", "--proj-width", "3"],
            "ada": ["--model", "adaboost", "--stages", "3", "--max-depth", "2", "--restriction", "unimodal"],
        }
        for stem, flags in trained.items():
            model_path = tmp_path / f"{stem}.json"
            run(capsys, "train", "--data", str(data_path), *flags, "--out", str(model_path))
            reports = []
            for threads, name in ((1, "r1.json"), (4, "r4.json")):
                path = tmp_path / f"{stem}_{name}"
                code, _, _ = run(
                    capsys, "eval", "--data", str(data_path), "--model", str(model_path),
                    "--with-emap", "--threads", str(threads), "--report", str(path),
                )
                assert code == 0
                reports.append(path.read_bytes())
            assert reports[0] == reports[1]

    def test_subsample_sliced_from_the_emap_grid_matches_rescoring(self, capsys, tmp_path, data_path):
        # an mlp has no marginals, so its subsample grids are sliced from the --with-emap grid;
        # linear and poly2 build no grid (see test_marginals_report_equals_the_grid_report)
        model_path = tmp_path / "mlp.json"
        code, _, _ = run(
            capsys, "train", "--data", str(data_path), "--model", "mlp", "--epochs", "3", "--hidden", "4",
            "--proj-width", "3", "--out", str(model_path),
        )
        assert code == 0
        blocks = []
        for extra, name in (((), "alone.json"), (("--with-emap",), "with_emap.json")):
            path = tmp_path / name
            code, _, _ = run(
                capsys, "eval", "--data", str(data_path), "--model", str(model_path), "--split", "train",
                "--subsample", "3,40", "--metric", "weighted_f1", *extra, "--report", str(path),
            )
            assert code == 0
            blocks.append(json.loads(path.read_text())["subsample"])
        assert blocks[0] == blocks[1]

    @pytest.mark.parametrize("kind", ["linear", "poly2"])
    def test_marginals_report_equals_the_grid_report(self, capsys, tmp_path, data_path, monkeypatch, kind):
        model_path = tmp_path / f"{kind}.json"
        code, _, _ = run(
            capsys, "train", "--data", str(data_path), "--model", kind, "--epochs", "40", "--out", str(model_path),
        )
        assert code == 0
        model_cls = {"linear": LinearModel, "poly2": Poly2Model}[kind]

        def report(name):
            path = tmp_path / name
            code, _, _ = run(
                capsys, "eval", "--data", str(data_path), "--model", str(model_path), "--split", "train",
                "--with-emap", "--subsample", "4,50", "--metric", "auc", "--report", str(path),
            )
            assert code == 0
            return path.read_bytes(), json.loads(Path(str(path) + ".manifest.json").read_text())

        closed, closed_manifest = report("marginals.json")
        with monkeypatch.context() as patch:
            patch.delattr(model_cls, "marginals")
            scored, scored_manifest = report("grid.json")
        assert closed == scored
        assert (closed_manifest["emap_path"], closed_manifest["grid_cells"]) == ("marginals", 0)
        assert (scored_manifest["emap_path"], scored_manifest["grid_cells"]) == ("grid", 160 * 160)

    def test_eval_manifest_names_the_projection_path(self, capsys, tmp_path, data_path):
        for model, settings in (("linear", ()), ("mlp", ("--epochs", "2", "--hidden", "3", "--proj-width", "2"))):
            run(capsys, "train", "--data", str(data_path), "--model", model, *settings,
                "--out", str(tmp_path / f"{model}.json"))
        emap, sub = ["--with-emap"], ["--subsample", "3,8"]
        for model, extra, expected in (
            ("linear", emap, ("marginals", 0)),
            ("linear", sub, ("marginals", 0)),
            ("mlp", emap, ("grid", 20 * 20)),
            ("mlp", sub, ("grid", 3 * 8 * 8)),
            ("mlp", emap + sub, ("grid", 20 * 20)),  # the subsample grids are sliced from the full one
        ):
            report = tmp_path / "report.json"
            code, _, _ = run(capsys, "eval", "--data", str(data_path), "--model", str(tmp_path / f"{model}.json"),
                             *extra, "--report", str(report))
            assert code == 0
            manifest = json.loads(Path(str(report) + ".manifest.json").read_text())
            assert (manifest["emap_path"], manifest["grid_cells"]) == expected, (model, extra)
        plain = tmp_path / "plain.json"
        run(capsys, "eval", "--data", str(data_path), "--model", str(tmp_path / "linear.json"), "--report", str(plain))
        manifest = json.loads(Path(str(plain) + ".manifest.json").read_text())
        assert "emap_path" not in manifest and "grid_cells" not in manifest

    def test_eval_with_emap_on_poly2_holds_no_grid(self, capsys, tmp_path):
        """20 000 test pairs: a grid would hold 6.4 GB, the marginals path a few MB."""
        n, d1, d2 = 20_000, 3, 2
        rng = np.random.default_rng(11)
        data_path, model_path, report = tmp_path / "big.bin", tmp_path / "poly2.json", tmp_path / "report.json"
        emap_io.save_dataset(
            PairedDataset(
                text=rng.standard_normal((n, d1)), visual=rng.standard_normal((n, d2)),
                labels=rng.integers(0, 2, n), split=np.full(n, 2), num_classes=2,
            ),
            data_path,
        )
        model = Poly2Model(w=rng.standard_normal((d1 + d2 + d1 * d2, 2)), b=rng.standard_normal(2), d1=d1, d2=d2)
        emap_io.save_model(model, model_path)
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, "eval", "--data", str(data_path), "--model", str(model_path),
                             "--with-emap", "--report", str(report))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 64 * 2**20, peak / 2**20
        assert json.loads(Path(str(report) + ".manifest.json").read_text())["grid_cells"] == 0

    def test_l2_reaches_the_mlp_model(self, capsys, tmp_path):
        data, model_path = tmp_path / "data.json", tmp_path / "mlp.json"
        run(capsys, "synth", "--out", str(data), "--n", "40", "--text-dim", "3", "--visual-dim", "2")
        code, _, _ = run(
            capsys, "train", "--data", str(data), "--model", "mlp", "--out", str(model_path),
            "--epochs", "2", "--hidden", "4", "--proj-width", "2", "--l2", "5",
        )
        assert code == 0
        assert json.loads(model_path.read_text())["config"]["l2"] == 5.0

    def test_adaboost_training_via_cli(self, capsys, tmp_path):
        data_path = tmp_path / "tiny.json"
        run(capsys, "synth", "--out", str(data_path), "--n", "60", "--seed", "2",
            "--latent-dim", "4", "--text-dim", "5", "--visual-dim", "4")
        model_path = tmp_path / "boost.json"
        code, _, _ = run(
            capsys, "train", "--data", str(data_path), "--model", "adaboost",
            "--stages", "5", "--max-depth", "3", "--out", str(model_path),
        )
        assert code == 0
        assert json.loads(model_path.read_text())["kind"] == "adaboost"


class TestLogic:
    def test_census_output(self, capsys):
        code, out, _ = run(capsys, "logic", "census", "--n", "1")
        assert code == 0
        assert out.strip() == "14/16 representable"

    def test_census_without_cross_check(self, capsys):
        code, out, _ = run(capsys, "logic", "census", "--n", "1", "--no-cross-check")
        assert code == 0
        assert out.strip() == "14/16 representable"

    def test_check_formula(self, capsys):
        code, out, _ = run(
            capsys, "logic", "check",
            "--formula", "(t2 & !v2) | (t1 & t2 & v1) | (!t1 & !v1 & !v2)",
            "--n", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["representable"] is True
        assert payload["oracle"] is True

    def test_check_rejects_bad_formula(self, capsys):
        code, _, err = run(capsys, "logic", "check", "--formula", "t1 &", "--n", "1")
        assert code == 1
        assert "end of input" in err

    def test_sweep_csv(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, err = run(
            capsys, "logic", "sweep", "--n-range", "1..2", "--samples", "10",
            "--seed", "1", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,method,mean_auc,std_auc,samples"
        assert len(lines) == 7
        assert "sampler=uniform" in err

    def test_sweep_deterministic_artifact(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run(capsys, "logic", "sweep", "--n-range", "1..1", "--samples", "15",
                "--seed", "9", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_census_n2_counts_and_cross_checks(self, capsys):
        code, out, err = run(capsys, "logic", "census", "--n", "2")
        assert code == 0
        assert out.strip() == "6902/65536 representable"
        assert "disagreements" not in err

    def test_census_enumerates_tables_in_code_order(self):
        from emap.logic import all_tables

        tables = all_tables(1)
        assert tables.shape == (16, 2, 2)
        for code, table in enumerate(tables):
            np.testing.assert_array_equal(table.ravel(), (code >> np.arange(4)) & 1)

    def test_sweep_at_the_largest_size_finishes(self, capsys, tmp_path):
        # depth 20 covers all 2n bits, so full boosting also fits per-cell majorities
        out = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "logic", "sweep", "--n-range", "10..10", "--samples", "2", "--stages", "2",
            "--max-depth", "20", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4 and lines[3].startswith("10,adaboost_full,1.0,0.0,2")

    @pytest.mark.parametrize("depth, warned", [(3, True), (4, False)])
    def test_sweep_warns_once_when_depth_is_below_2n(self, capsys, tmp_path, depth, warned):
        """The warning changes no byte: the CSV equals the library's, which never warns."""
        from emap.boosting import AdaBoostConfig
        from emap.logic import run_size_sweep, write_sweep_csv

        out, reference = tmp_path / "sweep.csv", tmp_path / "reference.csv"
        code, _, err = run(
            capsys, "logic", "sweep", "--n-range", "1..2", "--samples", "4", "--stages", "5",
            "--max-depth", str(depth), "--seed", "3", "--out", str(out),
        )
        assert code == 0
        warnings = [line for line in err.splitlines() if line.startswith("warning: ")]
        assert len(warnings) == warned
        assert all(line.startswith("warning: --max-depth 3 < 2n for n = 2..2:") for line in warnings)
        write_sweep_csv(run_size_sweep([1, 2], 4, 3, cfg=AdaBoostConfig(max_depth=depth, n_stages=5)), reference)
        assert out.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize(
        "extra, digest",
        [
            ((), "3c9f5b8a04921d5d5bf3d2c780f6ccf6fb4f50f0256e39fdeafd668378c047e9"),
            # a depth budget below n bits takes the greedy-tree path
            (("--n-range", "1..2", "--max-depth", "1"),
             "2a9ada6db1e1cabd53ccb0b42d423b205890e1a5169a4c2d9bcc357c4af82f42"),
        ],
    )
    def test_sweep_golden_digest(self, capsys, tmp_path, extra, digest):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "logic", "sweep", "--n-range", "1..3", "--samples", "20", "--seed", "5",
            "--out", str(out), *extra,
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


MALFORMED_GRIDS = {
    "missing_values.json": '{"n": 1, "d": 1}',
    "non_numeric.json": '{"n": 1, "d": 1, "values": [[["x"]]]}',
    "syntax_error.json": '{"n": 1, "d": 1, "values": [[[1.0]]',
    "huge_header.bin": b"EMAPGRID" + struct.pack("<IQQ", 1, 2**40, 1) + bytes(16),
}


def assert_edit_refused_by_eval(capsys, tmp_path, data, model_path, edit):
    """``eval`` accepts the model file as written, and refuses it in one stderr line after ``edit``."""
    argv = ("eval", "--data", str(data), "--model", str(model_path), "--report", str(tmp_path / "r.json"))
    assert run(capsys, *argv)[0] == 0
    model = json.loads(model_path.read_text())
    edit(model)
    model_path.write_text(json.dumps(model))
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def assert_refused_before_output(capsys, tmp_path, argv):
    """``argv`` (given a small dataset when it trains) exits 1 with one stderr line and writes nothing."""
    out = tmp_path / "out"
    if argv[0] == "train":
        data = tmp_path / "data.json"
        run(capsys, "synth", "--out", str(data), "--n", "40")
        argv = (*argv, "--data", str(data))
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not out.exists()


class TestInputContract:
    """Malformed inputs end in exit 1 with one stderr line, never a traceback."""

    @pytest.mark.parametrize("name", sorted(MALFORMED_GRIDS))
    def test_malformed_grid(self, capsys, tmp_path, name):
        path = tmp_path / name
        content = MALFORMED_GRIDS[name]
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        code, _, err = run(capsys, "project", "--grid", str(path), "--out", str(tmp_path / "d.json"))
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_dataset_without_split(self, capsys, tmp_path):
        data = tmp_path / "data.json"
        run(capsys, "synth", "--out", str(data), "--n", "40")
        payload = json.loads(data.read_text())
        del payload["split"]
        data.write_text(json.dumps(payload))
        code, _, err = run(
            capsys, "train", "--data", str(data), "--model", "linear", "--out", str(tmp_path / "m.json")
        )
        assert code == 1
        assert len(err.splitlines()) == 1 and "'split'" in err


    @pytest.mark.parametrize(
        "path, value",
        [
            (("stages", 0, "tree", "feature", 0), 9),
            (("stages", 0, "side"), "audio"),
            (("stages", 0, "tree", "left", 0), 0),
            (("stages", 0, "tree", "value", 1), 0.5),
            (("stages", 0, "tree", "threshold"), [0.5]),
            (("stages", 0, "alpha"), float("inf")),
        ],
    )
    def test_malformed_adaboost_model(self, capsys, tmp_path, path, value):
        data = tmp_path / "data.json"
        run(capsys, "synth", "--out", str(data), "--n", "40", "--text-dim", "2", "--visual-dim", "2")
        stage = {
            "tree": {
                "feature": [2, -1, -1],
                "threshold": [0.5, 0.0, 0.0],
                "left": [1, -1, -1],
                "right": [2, -1, -1],
                "value": [0.0, -1.0, 1.0],
            },
            "alpha": 1.0,
            "side": "full",
        }
        model = {"kind": "adaboost", "restriction": "full", "d1": 2, "d2": 2, "stages": [stage]}
        model_path = tmp_path / "boost.json"
        model_path.write_text(json.dumps(model))

        def edit(model):
            *parents, key = path
            node = model
            for step in parents:
                node = node[step]
            node[key] = value

        assert_edit_refused_by_eval(capsys, tmp_path, data, model_path, edit)

    @pytest.mark.parametrize(
        "kind, edit",
        [
            ("linear", lambda m: m["b"].append(0.0)),
            ("linear", lambda m: m["w_t"][0].__setitem__(0, float("nan"))),
            ("poly2", lambda m: m.__setitem__("w", m["w"][:-5])),
            ("mlp", lambda m: m["layers"].pop(0)),
            ("mlp", lambda m: m.__setitem__("layers", [])),
        ],
        ids=["linear-extra-bias", "linear-nan-weight", "poly2-short-w", "mlp-no-first-layer", "mlp-no-layers"],
    )
    def test_malformed_model(self, capsys, tmp_path, kind, edit):
        data = tmp_path / "data.json"
        run(capsys, "synth", "--out", str(data), "--n", "40", "--text-dim", "3", "--visual-dim", "2")
        model_path = tmp_path / "model.json"
        run(
            capsys, "train", "--data", str(data), "--model", kind, "--out", str(model_path),
            "--epochs", "2", *(("--hidden", "4,3", "--proj-width", "2") if kind == "mlp" else ()),
        )
        assert_edit_refused_by_eval(capsys, tmp_path, data, model_path, edit)

    @pytest.mark.parametrize(
        "argv",
        [
            ("train", "--model", "adaboost", "--stages", "0"),
            ("train", "--model", "adaboost", "--stages", "-3"),
            ("train", "--model", "adaboost", "--max-depth", "-2"),
            ("logic", "sweep", "--n-range", "1..2", "--samples", "2", "--stages", "0"),
            ("logic", "sweep", "--n-range", "1..2", "--samples", "2", "--stages", "-5"),
            ("logic", "sweep", "--n-range", "1..2", "--samples", "2", "--max-depth", "-1"),
        ],
        ids=["train-zero-stages", "train-negative-stages", "train-negative-depth",
             "sweep-zero-stages", "sweep-negative-stages", "sweep-negative-depth"],
    )
    def test_empty_boosting_config_refused(self, capsys, tmp_path, argv):
        assert_refused_before_output(capsys, tmp_path, argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ("synth", "--split", "a,b,c"),
            ("synth", "--split", "nan,0.5,0.5"),
            ("synth", "--split", "0.5,0.5"),
            ("train", "--model", "mlp", "--hidden", "a,b"),
            ("train", "--model", "mlp", "--hidden", "-3"),
            ("train", "--model", "mlp", "--hidden", "0,5"),
            ("train", "--model", "mlp", "--proj-width", "0"),
            ("train", "--model", "linear", "--lr", "nan"),
            ("train", "--model", "poly2", "--lr", "-1"),
            ("train", "--model", "linear", "--epochs", "-4"),
            ("train", "--model", "mlp", "--l2", "-1"),
        ],
        ids=["synth-bad-split", "synth-nan-split", "synth-two-splits", "train-bad-hidden",
             "train-negative-hidden", "train-zero-hidden", "train-zero-proj-width", "train-nan-lr",
             "train-negative-lr", "train-negative-epochs", "train-negative-l2"],
    )
    def test_unusable_training_config_refused(self, capsys, tmp_path, argv):
        assert_refused_before_output(capsys, tmp_path, argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ("train", "--model", "linear", "--stages", "0"),
            ("train", "--model", "adaboost", "--lr", "nan"),
            ("train", "--model", "adaboost", "--hidden", "0"),
            ("train", "--model", "adaboost", "--epochs", "5"),
            ("train", "--model", "adaboost", "--l2", "0.1"),
            ("train", "--model", "poly2", "--proj-width", "8"),
            ("train", "--model", "linear", "--activation", "gelu"),
            ("train", "--model", "mlp", "--restriction", "unimodal"),
            ("train", "--model", "mlp", "--max-depth", "3"),
        ],
        ids=["linear-stages", "adaboost-lr", "adaboost-hidden", "adaboost-epochs", "adaboost-l2",
             "poly2-proj-width", "linear-activation", "mlp-restriction", "mlp-max-depth"],
    )
    def test_flag_the_model_does_not_read_refused(self, capsys, tmp_path, argv):
        assert_refused_before_output(capsys, tmp_path, argv)

    def test_refusal_names_the_flag_and_the_model(self, capsys, tmp_path):
        out = tmp_path / "m.json"
        code, _, err = run(capsys, "train", "--data", "unread.json", "--model", "linear",
                           "--max-depth", "3", "--out", str(out))
        assert code == 1
        assert err.strip() == "error: --max-depth does not apply to --model linear"

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--n-range", "3..1"),
            ("sweep", "--n-range", "0..2"),
            ("sweep", "--n-range", "20..20"),
            ("check", "--formula", "t1 & v1", "--n", "20"),
            ("check", "--formula", "t1 & v1", "--n", "11"),
            ("census", "--n", "-1"),
        ],
        ids=["empty-range", "zero-n", "huge-range", "huge-check", "just-over-limit", "negative-census"],
    )
    def test_logic_size_out_of_range(self, capsys, tmp_path, argv):
        out = tmp_path / "sweep.csv"
        extra = ("--out", str(out)) if argv[0] == "sweep" else ()
        code, _, err = run(capsys, "logic", *argv, *extra)
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not out.exists()


def run_fresh(script: str) -> str:
    """Run ``script`` in a fresh interpreter that imports this checkout's ``emap``; its stdout."""
    src = str(Path(emap.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def assert_runs_without_scipy(*argvs):
    """Run ``emap.cli.main`` on each argv in a fresh interpreter; no ``scipy`` module may load."""
    script = (
        "import sys\n"
        "import emap.cli\n"
        "assert not [m for m in sys.modules if m.startswith('scipy')], 'import'\n"
        f"for argv in {list(argvs)!r}:\n"
        "    code = emap.cli.main(argv)\n"
        "    assert code == 0, (argv, code)\n"
        "    assert not [m for m in sys.modules if m.startswith('scipy')], argv\n"
    )
    run_fresh(script)


# a name each module defines: it is in the module's own __dict__ once the module's code ran
_DEFINES = {
    "boosting": "train_adaboost",
    "data": "PairedDataset",
    "grid": "emap_decompose",
    "io": "load_grid",
    "logic": "run_size_sweep",
    "metrics": "metric_from_logits",
    "models": "train_linear",
    "oracle": "verify_projection",
    "synth": "generate",
}


def modules_run_by(argv) -> tuple[set, bool]:
    """The emap modules whose code ran during ``emap.cli.main(argv)`` in a fresh
    interpreter, and whether numpy was imported.  Looking through
    ``object.__getattribute__`` does not trigger a lazily registered module's load."""
    script = (
        "import json, sys\n"
        "import emap.cli\n"
        "try:\n"
        f"    emap.cli.main({list(argv)!r})\n"
        "except SystemExit:\n"
        "    pass\n"
        f"defines = {_DEFINES!r}\n"
        "ran = [name for name, attr in defines.items() if 'emap.' + name in sys.modules\n"
        "       and attr in object.__getattribute__(sys.modules['emap.' + name], '__dict__')]\n"
        "print(json.dumps([ran, 'numpy' in sys.modules]))\n"
    )
    ran, numpy = json.loads(run_fresh(script).splitlines()[-1])
    return set(ran), numpy


class TestImportCost:
    """Each subcommand runs only the modules it needs; scipy is loaded only by gelu models."""

    @pytest.mark.parametrize(
        "argv", [["--version"], ["--help"], ["eval", "--help"], ["verify", "--grids", "x.json"]]
    )
    def test_version_help_and_usage_errors_load_no_numpy(self, argv):
        ran, numpy = modules_run_by(argv)
        assert ran == set() and not numpy

    @pytest.mark.parametrize("command", ["project", "verify"])
    def test_project_and_verify_run_only_grid_io_and_the_oracle(self, command, tmp_path):
        argv = [command, "--grid", "fixture:worked_example_grid.json"]
        ran, _ = modules_run_by(argv + (["--out", str(tmp_path / "dec.json")] if command == "project" else []))
        assert ran <= {"data", "grid", "io", "oracle"}
        assert "grid" in ran

    def test_eval_runs_no_lab_synth_or_oracle_code(self, capsys, tmp_path):
        data, model = tmp_path / "d.json", tmp_path / "m.json"
        run(capsys, "synth", "--out", str(data), "--n", "60")
        run(capsys, "train", "--data", str(data), "--model", "linear", "--out", str(model))
        ran, _ = modules_run_by(
            ["eval", "--data", str(data), "--model", str(model), "--with-emap", "--report", str(tmp_path / "r.json")]
        )
        assert not ran & {"logic", "synth", "oracle"}
        assert {"grid", "metrics", "models"} <= ran

    def test_synth_runs_no_model_metric_lab_or_oracle_code(self, tmp_path):
        ran, _ = modules_run_by(["synth", "--out", str(tmp_path / "d.json"), "--n", "60"])
        assert not ran & {"logic", "metrics", "models", "boosting", "oracle"}
        assert "synth" in ran

    def test_verify_never_imports_scipy(self):
        assert_runs_without_scipy(["verify", "--grid", "fixture:worked_example_grid.json"])

    def test_grid_io_and_the_oracle_load_no_model_or_lab_code(self):
        """What ``verify`` and ``project`` read (``emap.io``, ``emap.oracle``) imports none of the rest."""
        heavy = ["emap.logic", "emap.synth", "emap.metrics", "emap.models", "emap.boosting"]
        script = (
            "import sys\n"
            "import emap.io, emap.oracle\n"
            f"print(sorted(set(sys.modules) & set({heavy!r})))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(emap.__file__).resolve().parent.parent)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_logic_census_and_check_never_import_scipy(self):
        formula = (Path(emap.__file__).parent / "fixtures" / "surprising_formula.txt").read_text().strip()
        assert_runs_without_scipy(
            ["logic", "census", "--n", "1"],
            ["logic", "check", "--formula", formula, "--n", "2"],
        )


class TestLazyModules:
    """``emap.cli`` registers the modules it calls into lazily; they still import and resolve as usual."""

    def test_benchmark_shim_targets_resolve_after_importing_the_cli(self):
        # every (module, name) pair that TARGETS in perfbench/shim.py wraps; its install looks
        # each module up in sys.modules right after importing emap.cli, then calls getattr
        wrapped = {
            "emap.io": ["load_dataset", "load_model", "load_grid", "save_dataset", "save_model",
                        "save_grid", "save_decomposition", "dump_json"],
            "emap.synth": ["generate", "generate_with_audit"],
            "emap.models": ["train_linear", "train_interactive", "LinearModel.logits_many",
                            "LinearModel.logits_grid", "Poly2Model.logits_many", "Poly2Model.logits_grid",
                            "FeedForwardModel.logits_many"],
            "emap.boosting": ["full_boost_round", "unimodal_restricted_boost_round", "train_adaboost",
                              "AdaBoostModel.logits_many"],
            "emap.grid": ["build_grid", "emap_decompose"],
            "emap.metrics": ["metric_from_logits", "auc_binary", "agreement", "disagreement_advantage",
                             "subsampled_emap_metric"],
            "emap.oracle": ["solve_exact", "check_stationarity", "check_hessian"],
            "emap.logic": ["sample_table", "additive_fit_auc", "is_representable", "representable_oracle"],
        }
        script = (
            "import functools, sys\n"
            "import emap.cli\n"
            f"wrapped = {wrapped!r}\n"
            "print(sorted(set(wrapped) - set(sys.modules)))\n"
            "for module, names in wrapped.items():\n"
            "    for name in names:\n"
            "        assert callable(functools.reduce(getattr, name.split('.'), sys.modules[module])), name\n"
        )
        assert run_fresh(script).strip() == "[]"

    def test_a_lazily_registered_module_imports_as_usual(self):
        script = (
            "import emap.cli\n"
            "import emap.logic\n"
            "from emap import grid\n"
            "print(emap.logic.run_size_sweep.__module__, grid.emap_decompose.__module__)\n"
        )
        assert run_fresh(script).split() == ["emap.logic", "emap.grid"]

    def test_every_public_name_resolves_and_is_listed(self):
        script = (
            "import emap\n"
            "names = {}\n"
            "exec('from emap import *', names)\n"
            "print([n for n in emap.__all__ if n not in names or n not in dir(emap)])\n"
            "print(emap.verify_projection.__module__, emap.PairedDataset.__module__)\n"
        )
        assert run_fresh(script).splitlines() == ["[]", "emap.oracle emap.data"]


class TestUsageErrors:
    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = run(capsys, "verify", "--grids", "x.json")
        assert code == 1
        assert "usage" in err

    def test_unknown_command_exits_one(self, capsys):
        code, _, err = run(capsys, "transmogrify")
        assert code == 1

    def test_bad_subsample_spec(self, capsys, tmp_path):
        data = tmp_path / "d.json"
        run(capsys, "synth", "--out", str(data), "--n", "40")
        model = tmp_path / "m.json"
        run(capsys, "train", "--data", str(data), "--model", "linear", "--out", str(model))
        code, _, err = run(
            capsys, "eval", "--data", str(data), "--model", str(model),
            "--subsample", "alot", "--report", str(tmp_path / "r.json"),
        )
        assert code == 1
        assert "k,m" in err

"""End-to-end CLI behavior: subcommands, exit codes, manifests, determinism."""

import ast
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


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# one run of each subcommand: argv (GRID, DATA, MODEL and OUT stand for files), its input
# files, its seed and its exit code
MANIFEST_RUNS = {
    "project": (("project", "--grid", "GRID", "--out", "OUT"), ("GRID",), None, 0),
    "verify": (("verify", "--grid", "GRID", "--seed", "4"), ("GRID",), 4, 0),
    "synth": (("synth", "--out", "OUT", "--n", "40", "--seed", "3"), (), 3, 0),
    "train": (("train", "--data", "DATA", "--model", "linear", "--epochs", "2", "--out", "OUT"), ("DATA",), 0, 0),
    "eval": (("eval", "--data", "DATA", "--model", "MODEL", "--with-emap", "--report", "OUT"), ("DATA", "MODEL"), 0, 0),
    "logic-census": (("logic", "census", "--n", "1"), (), None, 0),
    "logic-census-disagreeing": (("logic", "census", "--n", "1"), (), None, 2),
    "logic-check": (("logic", "check", "--formula", "t1 & v1", "--n", "1"), (), None, 0),
    "logic-sweep": (("logic", "sweep", "--n-range", "1..1", "--samples", "2", "--seed", "5", "--out", "OUT"), (), 5, 0),
}


class TestManifests:
    @pytest.mark.parametrize("name", sorted(MANIFEST_RUNS))
    def test_every_run_writes_one_manifest(self, capsys, tmp_path, monkeypatch, name):
        """Beside its artifact, or on stderr without one; a census whose oracle disagrees writes one too."""
        argv, inputs, seed, exit_code = MANIFEST_RUNS[name]
        given, written = tmp_path / "in", tmp_path / "out"
        given.mkdir()
        written.mkdir()
        files = {"GRID": given / "grid.json", "DATA": given / "data.json", "MODEL": given / "model.json"}
        files["GRID"].write_bytes((Path(emap.__file__).parent / "fixtures" / "worked_example_grid.json").read_bytes())
        run(capsys, "synth", "--out", str(files["DATA"]), "--n", "40")
        run(capsys, "train", "--data", str(files["DATA"]), "--model", "linear", "--epochs", "2",
            "--out", str(files["MODEL"]))
        files = {key: str(path) for key, path in files.items()} | {"OUT": str(written / "artifact")}
        if name == "logic-census-disagreeing":
            monkeypatch.setattr("emap.logic.representable_oracle_many", lambda tables: np.zeros(len(tables), bool))
        argv = [files.get(arg, arg) for arg in argv]
        code, _, err = run(capsys, *argv)
        assert code == exit_code
        manifests = [json.loads(path.read_text()) for path in written.glob("*.manifest.json")]
        manifests += [json.loads(line) for line in err.splitlines() if line.startswith("{")]
        assert len(manifests) == 1
        (manifest,) = manifests
        assert list(manifest)[:6] == ["command", "config", "seed", "inputs", "tool_version", "wall_time_s"]
        assert manifest["command"] == argv
        assert manifest["config"]["command"] == argv[0]
        assert manifest["seed"] == seed
        assert manifest["inputs"] == {files[key]: sha256_of(files[key]) for key in inputs}
        assert manifest["tool_version"] == emap.__version__
        assert manifest["wall_time_s"] >= 0


    @pytest.mark.parametrize("command", ["project", "verify"])
    def test_fixture_inputs_are_keyed_by_their_fixture_name(self, capsys, tmp_path, command):
        """Not by the installed file's path, so every checkout writes the same manifest."""
        out = tmp_path / "dec.json"
        argv = [command, "--grid", "fixture:worked_example_grid.json"]
        code, _, err = run(capsys, *argv, *(["--out", str(out)] if command == "project" else []))
        assert code == 0
        manifest = json.loads((tmp_path / "dec.json.manifest.json").read_text() if command == "project" else err)
        installed = Path(emap.__file__).parent / "fixtures" / "worked_example_grid.json"
        assert manifest["inputs"] == {"fixture:worked_example_grid.json": sha256_of(installed)}


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

    @pytest.mark.parametrize("extra", [(), ("--with-emap", "--subsample", "2,20")], ids=["plain", "emap-subsample"])
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_csv_report_holds_the_json_report_values(self, capsys, tmp_path, data_path, kind, extra):
        """Each CSV row is one number of the JSON report of the same run, and every number has a row."""
        model_path = tmp_path / f"{kind}.json"
        settings = ("--epochs", "3", "--hidden", "4", "--proj-width", "3") if kind == "mlp" else ()
        run(capsys, "train", "--data", str(data_path), "--model", kind, *settings, "--out", str(model_path))
        reports = {}
        for ext in ("json", "csv"):
            reports[ext] = tmp_path / f"report.{ext}"
            code, _, _ = run(capsys, "eval", "--data", str(data_path), "--model", str(model_path), *extra,
                             "--report", str(reports[ext]))
            assert code == 0
        report = json.loads(reports["json"].read_text())
        model = report["model"]
        expected = {(model, name): value for name, value in report["metrics"].items()}
        expected |= {(model + "+emap", name): value for name, value in report.get("emap_metrics", {}).items()}
        expected |= {(model, key): report[key] for key in ("agreement_rate", "orig_better_frac") if key in report}
        if "subsample" in report:
            sub = report["subsample"]
            for stat in ("direct_mean", "direct_std", "emap_mean", "emap_std"):
                label = model + "+emap" if stat.startswith("emap") else model
                expected[label, f"subsample_{stat}_{sub['metric']}"] = sub[stat]
        header, *lines = reports["csv"].read_text().splitlines()
        assert header == "model,metric,value"
        rows = [tuple(line.split(",")) for line in lines]
        assert len({row[:2] for row in rows}) == len(rows)
        assert {row[:2]: float(row[2]) for row in rows} == expected
        assert all(row[2] == repr(expected[row[:2]]) for row in rows)
        assert len(rows) == (3 if not extra else 12 if "orig_better_frac" in report else 11)

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
        for model, kind, hidden in (("linear", "linear", None), ("mlp", "mlp", "3"), ("flat", "mlp", "")):
            settings = () if hidden is None else ("--epochs", "2", "--hidden", hidden, "--proj-width", "2")
            run(capsys, "train", "--data", str(data_path), "--model", kind, *settings,
                "--out", str(tmp_path / f"{model}.json"))
        emap, sub = ["--with-emap"], ["--subsample", "3,8"]
        for model, extra, expected in (
            ("linear", emap, ("marginals", 0)),
            ("linear", sub, ("marginals", 0)),
            ("flat", emap, ("marginals", 0)),  # an mlp without hidden layers is affine in each side
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

    def test_empty_hidden_trains_a_network_without_hidden_layers(self, capsys, tmp_path):
        data, model_path = tmp_path / "data.json", tmp_path / "mlp.json"
        run(capsys, "synth", "--out", str(data), "--n", "40", "--text-dim", "3", "--visual-dim", "2")
        code, _, _ = run(
            capsys, "train", "--data", str(data), "--model", "mlp", "--out", str(model_path),
            "--epochs", "2", "--hidden", "", "--proj-width", "2",
        )
        assert code == 0
        payload = json.loads(model_path.read_text())
        assert payload["config"]["hidden"] == [] and len(payload["layers"]) == 1

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
    """Malformed inputs end in exit 1 and numeric failures in exit 2, each with one stderr line, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--data", "DIR", "--model", "MODEL", "--report", "OUT"),
            ("project", "--grid", "DIR", "--out", "OUT"),
            ("eval", "--data", "DATA", "--model", "DIR", "--report", "OUT"),
        ],
        ids=["eval-data", "project-grid", "eval-model"],
    )
    def test_input_that_names_a_directory(self, capsys, tmp_path, argv):
        data, model, out = tmp_path / "data.json", tmp_path / "model.json", tmp_path / "out"
        run(capsys, "synth", "--out", str(data), "--n", "40")
        run(capsys, "train", "--data", str(data), "--model", "linear", "--epochs", "2", "--out", str(model))
        files = {"DIR": str(tmp_path), "DATA": str(data), "MODEL": str(model), "OUT": str(out)}
        code, _, err = run(capsys, *(files.get(arg, arg) for arg in argv))
        assert code == 1
        assert err == f"error: Is a directory: {tmp_path}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, kind",
        [
            (("--model", "linear", "--lr", "1e300"), "logistic"),
            (("--model", "mlp", "--epochs", "20", "--lr", "1e8"), "feed-forward"),
        ],
        ids=["linear", "mlp"],
    )
    def test_diverging_fit_is_a_numeric_error(self, capsys, tmp_path, argv, kind):
        data, out = tmp_path / "data.json", tmp_path / "model.json"
        run(capsys, "synth", "--out", str(data), "--n", "300", "--seed", "1")
        code, _, err = run(capsys, "train", "--data", str(data), *argv, "--out", str(out))
        assert code == 2
        assert err == f"numeric error: {kind} training diverged to a non-finite loss\n"
        assert not out.exists()

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
            ("train", "--model", "mlp", "--hidden", "4,,3"),
            ("train", "--model", "mlp", "--hidden", "4,3,"),
            ("train", "--model", "mlp", "--hidden", ","),
            ("train", "--model", "mlp", "--proj-width", "0"),
            ("train", "--model", "linear", "--lr", "nan"),
            ("train", "--model", "poly2", "--lr", "-1"),
            ("train", "--model", "linear", "--epochs", "-4"),
            ("train", "--model", "mlp", "--l2", "-1"),
        ],
        ids=["synth-bad-split", "synth-nan-split", "synth-two-splits", "train-bad-hidden",
             "train-negative-hidden", "train-zero-hidden", "train-empty-inner-hidden",
             "train-trailing-comma-hidden", "train-comma-hidden", "train-zero-proj-width", "train-nan-lr",
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

    def test_bad_setting_refused_before_the_dataset_is_read(self, capsys, tmp_path):
        out = tmp_path / "m.json"
        code, _, err = run(capsys, "train", "--data", "missing.json", "--model", "linear", "--lr", "nan",
                           "--out", str(out))
        assert code == 1
        assert err == "error: lr must be finite and > 0, got nan\n"
        assert not out.exists()

    @pytest.mark.parametrize("tolerance", ["inf", "-inf", "nan", "-1", "0"])
    def test_verify_tolerance_must_be_finite_and_positive(self, capsys, tolerance):
        # the grid does not exist: the tolerance is refused before any grid is read
        code, out, err = run(capsys, "verify", "--grid", "nope.json", f"--tolerance={tolerance}")
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: --tolerance must be finite and > 0")

    @pytest.mark.parametrize(
        "argv",
        [
            ("synth", "--out", "OUT", "--seed", "-1"),
            ("train", "--data", "DATA", "--model", "mlp", "--out", "OUT", "--seed", "-1"),
            ("eval", "--data", "DATA", "--model", "MODEL", "--report", "OUT", "--subsample", "2,5", "--seed", "-1"),
            ("logic", "sweep", "--n-range", "1..1", "--samples", "2", "--out", "OUT", "--seed", "-1"),
            ("verify", "--grid", "fixture:worked_example_grid.json", "--seed", "-1"),
            ("eval", "--data", "DATA", "--model", "MODEL", "--report", "OUT", "--threads", "0"),
            ("eval", "--data", "DATA", "--model", "MODEL", "--report", "OUT", "--threads", "-2"),
            ("logic", "sweep", "--n-range", "1..1", "--samples", "2", "--out", "OUT", "--threads", "-2"),
        ],
        ids=["synth-seed", "train-seed", "eval-seed", "sweep-seed", "verify-seed",
             "eval-zero-threads", "eval-negative-threads", "sweep-negative-threads"],
    )
    def test_negative_seed_and_threads_below_one_refused(self, capsys, tmp_path, argv):
        """Refused by the parser, before any file is read or written; the error names the flag."""
        data, model, out = tmp_path / "data.json", tmp_path / "model.json", tmp_path / "out"
        run(capsys, "synth", "--out", str(data), "--n", "40")
        run(capsys, "train", "--data", str(data), "--model", "linear", "--epochs", "2", "--out", str(model))
        files = {"DATA": str(data), "MODEL": str(model), "OUT": str(out)}
        code, stdout, err = run(capsys, *(files.get(arg, arg) for arg in argv))
        assert code == 1 and stdout == ""
        assert err.splitlines()[-1].startswith(f"error: argument {argv[-2]}: must be >= ")
        assert not out.exists()

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


def modules_run_by(argv) -> tuple[set, set]:
    """The emap modules whose code ran during ``emap.cli.main(argv)`` in a fresh
    interpreter, and which of numpy, ``dataclasses`` and ``inspect`` were imported.
    Looking through ``object.__getattribute__`` does not trigger a lazily
    registered module's load."""
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
        "print(json.dumps([ran, [m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules]]))\n"
    )
    ran, loaded = json.loads(run_fresh(script).splitlines()[-1])
    return set(ran), set(loaded)


class TestImportCost:
    """Each subcommand runs only the modules it needs; scipy is loaded only by gelu models."""

    @pytest.mark.parametrize(
        "argv", [["--version"], ["--help"], ["eval", "--help"], ["verify", "--grids", "x.json"]]
    )
    def test_version_help_and_usage_errors_load_no_numpy(self, argv):
        """Nor ``dataclasses`` or ``inspect``: the parser's build imports neither."""
        ran, loaded = modules_run_by(argv)
        assert ran == set() and loaded == set()

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

    @pytest.mark.parametrize(
        "kind, other", [("linear", "boosting"), ("poly2", "boosting"), ("mlp", "boosting"), ("adaboost", "models")]
    )
    def test_train_and_eval_run_only_their_model_kinds_code(self, capsys, tmp_path, kind, other):
        data, model = tmp_path / "d.json", tmp_path / "m.json"
        run(capsys, "synth", "--out", str(data), "--n", "60")
        settings = {"linear": ("--epochs", "2"), "poly2": ("--epochs", "2"), "adaboost": ("--stages", "2"),
                    "mlp": ("--epochs", "2", "--hidden", "3", "--proj-width", "2")}[kind]
        train = ["train", "--data", str(data), "--model", kind, *settings, "--out", str(model)]
        for argv in (train, ["eval", "--data", str(data), "--model", str(model), "--with-emap",
                             "--report", str(tmp_path / "r.json")]):
            ran, _ = modules_run_by(argv)
            assert other not in ran and {"models" if other == "boosting" else "boosting"} <= ran, argv[0]

    def test_logic_commands_run_only_the_scorer_code_they_use(self, tmp_path):
        """The census and the formula check boost nothing; the sweep boosts, but trains no model."""
        formula = (Path(emap.__file__).parent / "fixtures" / "surprising_formula.txt").read_text().strip()
        for argv in (["logic", "census", "--n", "1"], ["logic", "check", "--formula", formula, "--n", "2"]):
            ran, _ = modules_run_by(argv)
            assert "logic" in ran and not ran & {"models", "boosting"}, argv
        ran, _ = modules_run_by(
            ["logic", "sweep", "--n-range", "1..1", "--samples", "2", "--stages", "2", "--out", str(tmp_path / "s.csv")]
        )
        assert {"logic", "boosting"} <= ran and "models" not in ran

    def test_synth_runs_no_model_metric_lab_or_oracle_code(self, tmp_path):
        ran, _ = modules_run_by(["synth", "--out", str(tmp_path / "d.json"), "--n", "60"])
        assert not ran & {"logic", "metrics", "models", "boosting", "oracle"}
        assert "synth" in ran

    def test_linear_training_runs_no_boosting_code(self, capsys, tmp_path):
        data = tmp_path / "d.json"
        run(capsys, "synth", "--out", str(data), "--n", "60")
        ran, _ = modules_run_by(["train", "--data", str(data), "--model", "linear", "--out", str(tmp_path / "m.json")])
        assert "boosting" not in ran
        assert "models" in ran

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
        # every (module, name) pair that TARGETS in perfbench/shim.py wraps, read from that file;
        # its install looks each module up in sys.modules right after importing emap.cli, then
        # calls getattr
        shim = Path(__file__).resolve().parent.parent / "perfbench" / "shim.py"
        (targets,) = [
            node.value for node in ast.parse(shim.read_text(encoding="utf-8")).body
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS"
        ]
        wrapped = {}
        for target in targets.elts:
            module, name = (ast.literal_eval(field) for field in target.elts[:2])
            wrapped.setdefault(module, []).append(name)
        assert wrapped
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
        # --grid is given, so the refusal is about the unknown flag; it is one line, with no usage block
        code, _, err = run(capsys, "verify", "--grid", "x.json", "--grids", "x.json")
        assert code == 1
        assert err == "error: unrecognized arguments: --grids x.json\n"

    def test_unknown_command_exits_one(self, capsys):
        code, _, err = run(capsys, "transmogrify")
        assert code == 1

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--subsample", "alot", "argument --subsample: invalid k,m value: 'alot'"),
            ("--subsample", "3,4,5", "argument --subsample: invalid k,m value: '3,4,5'"),
            ("--subsample", "0,3", "argument --subsample: must be >= 1, got 0"),
            ("--subsample", "3,99999", "subsample size m=99999 must lie in [1, 4]"),
            ("--report", "MISSING/r.json", "argument --report: the output 'MISSING/r.json' needs a file name in an "
                                           "existing directory"),
            ("--report", "DIR", "argument --report: the output 'DIR' needs a file name in an existing directory"),
        ],
    )
    def test_eval_refuses_before_the_projection(self, capsys, tmp_path, flag, value, message):
        """One stderr line, nothing written, and no model loaded, so no cell scored."""
        data, model, report = tmp_path / "d.json", tmp_path / "m.json", tmp_path / "r.json"
        run(capsys, "synth", "--out", str(data), "--n", "40")  # a test split of 4 items
        run(capsys, "train", "--data", str(data), "--model", "linear", "--epochs", "2", "--out", str(model))
        value, message = (s.replace("MISSING", str(tmp_path / "missing")).replace("DIR", str(tmp_path))
                          for s in (value, message))
        argv = ["eval", "--data", str(data), "--model", str(model), "--with-emap", "--report", str(report), flag, value]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not report.exists()
        ran, _ = modules_run_by(argv)
        assert ran <= {"data", "io"}  # the dataset loader's modules at most: no grid code, so no cell scored

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

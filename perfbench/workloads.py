"""The three benchmark workloads: inputs, CLI steps, work units and output checks.

Each workload builds its inputs in ``setup`` (timed as ``setup_s``) and
then lists the CLI ``steps`` of one job repetition.  A step carries the work
it completes, its primary artifacts (digested, never manifests) and a check
of its output; a failed check counts the invocation as failed.  Every input
is derived from the workload seed.  Sizes and the reasons for them are in
``perfbench/README.md``.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# diagnose: 4000 synthetic pairs split 500 train / 500 val / 3000 test
SYNTH_N = 4000
SYNTH_SPLIT = "0.125,0.125,0.75"
TRAIN_EPOCHS = 150  # poly2 and mlp; linear keeps its default
# depth 3 keeps unimodal boosting short of a perfect fit, so every seed runs
# all 20 stages and the grid cost does not depend on the seed
ADABOOST_STAGES, ADABOOST_DEPTH = 20, 3
SUBSAMPLE_K, SUBSAMPLE_M = 5, 200

# verify: one binary grid and one JSON grid, two output channels each
VERIFY_GRIDS = (("grid.bin", 300), ("grid.json", 150))
VERIFY_D = 2

# logic-sweep: the n = 1 -> 2 drop in mean AUC is about 0.07 with a per-table
# spread near 0.2, so small n needs many samples for "strictly decreasing" to
# hold for every seed; large n is costlier per table and its drops are wider.
SWEEPS = (("sweep-small.csv", "1..2", 150), ("sweep-large.csv", "3..4", 25))
FORMULA_FIXTURE = Path("src/emap/fixtures/surprising_formula.txt")

Check = Callable[[Path, Path], "str | None"]  # (working dir, stdout file) -> problem


@dataclass
class Step:
    """One CLI invocation of a job or a set-up."""

    argv: list[str]
    work: float = 0.0
    artifacts: tuple[str, ...] = ()
    stdout: str | None = None  # file name for stdout when it is an artifact
    check: Check | None = None
    label: str = ""

    def __post_init__(self):
        if not self.label:
            self.label = " ".join(a for a in self.argv[:2] if not a.startswith("-"))


@dataclass
class Plan:
    """What one set-up produced: its artifacts and the job that follows."""

    artifacts: list[str] = field(default_factory=list)
    steps: list[Step] = field(default_factory=list)


def _json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _split_sizes(dataset: Path) -> dict[str, int]:
    """Pairs per split, read from a binary EMAPDATA header and split codes."""
    with open(dataset, "rb") as fh:
        head = fh.read(44)
        n = struct.unpack("<IQQQQ", head[8:44])[1]
        codes = np.frombuffer(fh.read(n), dtype=np.uint8)
    return {name: int(np.sum(codes == i)) for i, name in enumerate(("train", "val", "test"))}


# -- diagnose -----------------------------------------------------------------


def _agreement_is_one(report: str) -> Check:
    def check(cwd, _stdout):
        payload = _json(cwd / report)
        if payload is None or payload.get("agreement_rate") != 1.0:
            got = None if payload is None else payload.get("agreement_rate")
            return f"{report}: additive scorer must agree with its projection, agreement_rate={got}"
        return None

    return check


def _projected_accuracy_at_chance(report: str) -> Check:
    def check(cwd, _stdout):
        payload = _json(cwd / report) or {}
        acc = payload.get("emap_metrics", {}).get("accuracy")
        if acc is None or not 0.40 <= acc <= 0.60:
            return f"{report}: projected accuracy {acc} outside [0.40, 0.60]"
        return None

    return check


class Diagnose:
    name = "diagnose"
    unit = "grid cells scored and projected"

    def __init__(self, seed: int, threads: int):
        self.seed, self.threads = str(seed), str(threads)

    def setup(self, run, setup_dir: Path) -> Plan:
        seed = ["--seed", self.seed]
        train = ["train", "--data", "data.bin", *seed]
        models = {
            "linear.json": ["--model", "linear"],
            "poly2.json": ["--model", "poly2", "--epochs", str(TRAIN_EPOCHS)],
            "mlp.json": ["--model", "mlp", "--epochs", str(TRAIN_EPOCHS)],
            "adaboost.json": [
                "--model", "adaboost", "--restriction", "unimodal",
                "--stages", str(ADABOOST_STAGES), "--max-depth", str(ADABOOST_DEPTH),
            ],
        }
        setup = [Step(["synth", "--out", "data.bin", "--n", str(SYNTH_N), "--split", SYNTH_SPLIT, *seed],
                      artifacts=("data.bin",))]
        setup += [Step([*train, *extra, "--out", out], artifacts=(out,), label=f"train {out[:-5]}")
                  for out, extra in models.items()]
        plan = Plan()
        for step in setup:
            if run(step, setup_dir):
                plan.artifacts += step.artifacts
        if len(plan.artifacts) < len(setup):
            return plan

        sizes = _split_sizes(setup_dir / "data.bin")
        data = ["--data", f"../{setup_dir.name}/data.bin"]
        common = ["--with-emap", "--threads", self.threads, *seed]
        subsample = ["--subsample", f"{SUBSAMPLE_K},{SUBSAMPLE_M}"]
        full, sub = sizes["test"] ** 2, sizes["val"] ** 2 + SUBSAMPLE_K * SUBSAMPLE_M**2
        for model, split, extra, cells, check in (
            ("linear", "test", [], full, _agreement_is_one),
            ("poly2", "test", [], full, _projected_accuracy_at_chance),
            ("mlp", "val", subsample, sub, _projected_accuracy_at_chance),
            ("adaboost", "val", subsample, sub, _agreement_is_one),
        ):
            report = f"{model}.report.json"
            argv = ["eval", *data, "--model", f"../{setup_dir.name}/{model}.json",
                    "--split", split, *common, *extra, "--report", report]
            plan.steps.append(Step(argv, cells, (report,), check=check(report), label=f"eval {model}"))
        return plan


# -- verify -------------------------------------------------------------------


def make_grid(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Additive part plus interaction noise, shape (n, n, d)."""
    rows = rng.standard_normal((n, 1, d))
    cols = rng.standard_normal((1, n, d))
    return rows + cols + 0.1 * rng.standard_normal((n, n, d))


def write_grid(values: np.ndarray, path: Path) -> None:
    """The EMAPGRID binary layout, or the JSON grid format for ``.json``."""
    n, _, d = values.shape
    if path.suffix == ".json":
        path.write_text(json.dumps({"n": n, "d": d, "values": values.tolist()}), encoding="utf-8")
        return
    path.write_bytes(b"EMAPGRID" + struct.pack("<IQQ", 1, n, d) + values.astype("<f8").tobytes())


def read_decomposition(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if path.suffix == ".json":
        payload = json.loads(path.read_text(encoding="utf-8"))
        return tuple(np.asarray(payload[k], dtype=np.float64) for k in ("tau", "phi", "mu"))
    raw = path.read_bytes()
    if raw[:8] != b"EMAPDCMP":
        raise ValueError("bad magic")
    _, n, d = struct.unpack("<IQQ", raw[8:28])
    flat = np.frombuffer(raw, dtype="<f8", offset=28)
    if flat.size != 2 * n * d + d:
        raise ValueError("wrong length")
    return flat[: n * d].reshape(n, d), flat[n * d : 2 * n * d].reshape(n, d), flat[2 * n * d :]


def _projection_matches(values: np.ndarray, out: str) -> Check:
    """Decomposition equals row mean - grand mean, column mean - grand mean, grand mean."""
    mu = values.mean(axis=(0, 1))
    expected = (values.mean(axis=1) - mu, values.mean(axis=0) - mu, mu)
    tol = 1e-12 * (1.0 + float(np.max(np.abs(values))))

    def check(cwd, _stdout):
        try:
            got = read_decomposition(cwd / out)
        except (OSError, ValueError, KeyError, struct.error) as exc:
            return f"{out}: unreadable decomposition ({exc})"
        for name, g, e in zip(("tau", "phi", "mu"), got, expected):
            if g.shape != e.shape or float(np.max(np.abs(g - e))) > tol:
                return f"{out}: {name} differs from the closed-form projection"
        return None

    return check


def _verify_passed(cwd, stdout):
    payload = _json(stdout)
    if payload is None or payload.get("passed") is not True:
        return f"{stdout.name}: verify did not report passed=true"
    return None


class Verify:
    name = "verify"
    unit = "grid cells processed (project and verify each count N^2)"

    def __init__(self, seed: int, threads: int):
        self.seed = seed

    def setup(self, run, setup_dir: Path) -> Plan:
        plan = Plan()
        if not run(Step(["--version"], label="--version"), setup_dir):
            return plan
        rng = np.random.default_rng(self.seed)
        for name, n in VERIFY_GRIDS:
            values = make_grid(n, VERIFY_D, rng)
            write_grid(values, setup_dir / name)
            plan.artifacts.append(name)
            grid = f"../{setup_dir.name}/{name}"
            stem = name.replace(".", "-")
            dcmp = f"{stem}.dcmp" + (".json" if name.endswith(".json") else "")
            plan.steps.append(Step(["project", "--grid", grid, "--out", dcmp], n * n, (dcmp,),
                                   check=_projection_matches(values, dcmp), label=f"project {name}"))
            plan.steps.append(Step(["verify", "--grid", grid, "--seed", str(self.seed)], n * n,
                                   stdout=f"{stem}.verify.json", check=_verify_passed,
                                   label=f"verify {name}"))
        return plan


# -- logic-sweep ---------------------------------------------------------------


def _read_sweep(path: Path) -> dict[tuple[int, str], float]:
    with open(path, newline="", encoding="utf-8") as fh:
        return {(int(r["n"]), r["method"]): float(r["mean_auc"]) for r in csv.DictReader(fh)}


def _sweeps_consistent(cwd, _stdout):
    """adaboost_full fits every table; the additive methods degrade with n."""
    rows = {}
    try:
        for name, _, _ in SWEEPS:
            rows.update(_read_sweep(cwd / name))
    except (OSError, KeyError, ValueError) as exc:
        return f"unreadable sweep CSV ({exc})"
    ns = sorted({n for n, _ in rows})
    for n in ns:
        if rows.get((n, "adaboost_full")) != 1.0:
            return f"adaboost_full mean_auc at n={n} is {rows.get((n, 'adaboost_full'))}, not 1.0"
    for method in ("emap", "adaboost_unimodal"):
        series = [rows.get((n, method), math.nan) for n in ns]
        if not all(a > b for a, b in zip(series, series[1:])):
            return f"{method} mean_auc does not strictly decrease in n: {series}"
    return None


def _census_count(cwd, stdout):
    text = stdout.read_text(encoding="utf-8").strip() if stdout.exists() else ""
    return None if text == "14/16 representable" else f"census printed {text!r}"


def _formula_representable(cwd, stdout):
    payload = _json(stdout) or {}
    if payload.get("representable") is not True or payload.get("oracle") is not True:
        return f"fixture formula: representable={payload.get('representable')}, oracle={payload.get('oracle')}"
    return None


class LogicSweep:
    name = "logic-sweep"
    unit = "truth tables evaluated by all three methods"

    def __init__(self, seed: int, threads: int):
        self.seed = str(seed)

    def setup(self, run, setup_dir: Path) -> Plan:
        plan = Plan()
        if not run(Step(["--version"], label="--version"), setup_dir):
            return plan
        formula = (run.root / FORMULA_FIXTURE).read_text(encoding="utf-8").strip()
        for i, (out, n_range, samples) in enumerate(SWEEPS):
            lo, hi = (int(x) for x in n_range.split(".."))
            last = i == len(SWEEPS) - 1
            plan.steps.append(Step(
                ["logic", "sweep", "--n-range", n_range, "--samples", str(samples),
                 "--seed", self.seed, "--out", out],
                (hi - lo + 1) * samples, (out,), check=_sweeps_consistent if last else None,
                label=f"logic sweep {n_range}",
            ))
        plan.steps.append(Step(["logic", "census", "--n", "1"], stdout="census.txt",
                               check=_census_count, label="logic census"))
        plan.steps.append(Step(["logic", "check", "--formula", formula, "--n", "2"],
                               stdout="check.json", check=_formula_representable, label="logic check"))
        return plan


WORKLOADS = {w.name: w for w in (Diagnose, Verify, LogicSweep)}

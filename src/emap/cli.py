"""Command-line surface binding the library into reproducible pipelines.

Exit codes: 0 success, 1 input error (bad flags, missing or malformed
files), 2 numeric or verification failure.  Requested reports go to stdout;
logs and run manifests without an output file go to stderr.  Every run that
writes an artifact also writes ``<artifact>.manifest.json`` describing the
exact command, configuration, input digests and tool version.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
import time
from pathlib import Path

from . import MAX_TABLE_N, METRIC_NAMES, SPLIT_NAMES, __version__
from .exceptions import EmapError, InputError, NumericError, UndefinedMetricError


def _lazy(name: str):
    """``emap.<name>``, whose code runs on its first attribute access.

    Each subcommand thus runs only the modules it calls into, and ``--help``
    loads no numpy.  The module is put in ``sys.modules`` and bound on the
    package at once, as an import would, so code that looks it up there right
    after ``import emap.cli`` (the benchmark's tracer does) finds it.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


boosting, grid, logic, metrics, models, oracle, synth = map(
    _lazy, ("boosting", "grid", "logic", "metrics", "models", "oracle", "synth")
)
emap_io = _lazy("io")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems on stderr and exits 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _resolve_fixture(path: str) -> str:
    if path.startswith("fixture:"):
        from importlib.resources import files

        name = path.removeprefix("fixture:")
        return str(files("emap") / "fixtures" / name)
    return path


def _manifest(args: argparse.Namespace, inputs: list[str], started: float, seed=None) -> dict:
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "argv") and v is not None
    }
    return {
        "command": list(getattr(args, "argv", [])),
        "config": config,
        "seed": seed,
        "inputs": {path: _sha256(path) for path in inputs},
        "tool_version": __version__,
        "wall_time_s": round(time.monotonic() - started, 6),
    }


def _emit_manifest(manifest: dict, artifact_path=None) -> None:
    if artifact_path is not None:
        emap_io.dump_json(manifest, str(artifact_path) + ".manifest.json")
    else:
        print(json.dumps(manifest), file=sys.stderr)


# -- subcommands -------------------------------------------------------------


def _cmd_project(args) -> int:
    started = time.monotonic()
    grid_path = _resolve_fixture(args.grid)
    score_grid = emap_io.load_grid(grid_path)
    dec = grid.emap_decompose(score_grid)
    emap_io.save_decomposition(dec, args.out)
    _emit_manifest(_manifest(args, [grid_path], started), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    started = time.monotonic()
    grid_path = _resolve_fixture(args.grid)
    score_grid = emap_io.load_grid(grid_path)
    report, passed = oracle.verify_projection(score_grid, tolerance=args.tolerance, seed=args.seed)
    payload = report.to_json_dict()
    payload["passed"] = passed
    payload["tolerance"] = args.tolerance
    print(json.dumps(payload, indent=2))
    _emit_manifest(_manifest(args, [grid_path], started, seed=args.seed))
    return EXIT_OK if passed else EXIT_NUMERIC


def _cmd_synth(args) -> int:
    started = time.monotonic()
    try:
        fractions = tuple(float(x) for x in args.split.split(","))
    except ValueError:
        raise InputError(f"--split expects three comma-separated fractions, got {args.split!r}") from None
    params = synth.SynthParams(
        d=args.latent_dim,
        d1=args.text_dim,
        d2=args.visual_dim,
        delta=args.delta,
        n=args.n,
        split=fractions,
        seed=args.seed,
    )
    dataset = synth.generate(params)
    emap_io.save_dataset(dataset, args.out)
    _emit_manifest(_manifest(args, [], started, seed=args.seed), args.out)
    return EXIT_OK


def _parse_hidden(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x)
    except ValueError:
        raise InputError(f"--hidden expects comma-separated integer widths, got {text!r}") from None


# model-specific train flags: (config field, models that read it); a flag left
# out keeps the config's default, and one the chosen model does not read is refused
_DESCENT_MODELS = ("linear", "poly2", "mlp")
_TRAIN_FLAGS = {
    "l2": ("l2", _DESCENT_MODELS),
    "lr": ("lr", _DESCENT_MODELS),
    "epochs": ("epochs", _DESCENT_MODELS),
    "hidden": ("hidden", ("mlp",)),
    "proj_width": ("proj_width", ("mlp",)),
    "activation": ("activation", ("mlp",)),
    "stages": ("n_stages", ("adaboost",)),
    "max_depth": ("max_depth", ("adaboost",)),
    "restriction": ("restriction", ("adaboost",)),
}


def _train_settings(args) -> dict:
    """The config fields set on the command line for the chosen model."""
    settings = {}
    for flag, (field, models) in _TRAIN_FLAGS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        if args.model not in models:
            raise InputError(f"--{flag.replace('_', '-')} does not apply to --model {args.model}")
        settings[field] = _parse_hidden(value) if flag == "hidden" else value
    return settings


def _cmd_train(args) -> int:
    started = time.monotonic()
    settings = _train_settings(args)
    dataset = emap_io.load_dataset(args.data)
    settings["seed"] = args.seed
    if args.model == "linear":
        model = models.train_linear(dataset, models.LinearConfig(**settings))
    elif args.model == "poly2":
        model = models.train_interactive(dataset, "poly2", models.Poly2Config(**settings))
    elif args.model == "mlp":
        model = models.train_interactive(dataset, "feedforward", models.FeedForwardConfig(**settings))
    elif args.model == "adaboost":
        model = models.train_interactive(dataset, "adaboost", boosting.AdaBoostConfig(**settings))
    else:  # pragma: no cover - argparse choices guard this
        raise InputError(f"unknown model {args.model!r}")
    emap_io.save_model(model, args.out)
    _emit_manifest(_manifest(args, [args.data], started, seed=args.seed), args.out)
    return EXIT_OK


def _split_metrics(logits, labels) -> dict:
    out = {}
    for name in METRIC_NAMES:
        try:
            out[name] = metrics.metric_from_logits(name, logits, labels)
        except (UndefinedMetricError, InputError):
            continue
    return out


def _cmd_eval(args) -> int:
    started = time.monotonic()
    part = emap_io.load_dataset(args.data).subset(args.split)  # the full dataset is freed at once
    model = emap_io.load_model(args.model)
    projection, cells = None, 0
    if args.with_emap:
        # the projection's direct scores equal logits_many bit for bit (tests/test_grid.py)
        projection = grid.project_scorer(model, part.text, part.visual)
        cells = projection.cells
        logits = projection.direct
    else:
        logits = model.logits_many(part.text, part.visual)
    report = metrics.EvalReport(
        model=Path(args.model).stem,
        split=args.split,
        metrics=_split_metrics(logits, part.labels),
    )
    if projection is not None:
        proj = grid.emap_predictions(projection.decomposition)
        report.emap_metrics = _split_metrics(proj, part.labels)
        report.agreement_rate = metrics.agreement(logits, proj)
        report.orig_better_frac = metrics.disagreement_advantage(logits, proj, part.labels)
    if args.subsample:
        try:
            k_str, m_str = args.subsample.split(",")
            k, m = int(k_str), int(m_str)
        except ValueError:
            raise InputError("--subsample expects 'k,m' with two integers") from None
        report.subsample = metrics.subsampled_emap_metric(
            model, part, k, m, args.metric, seed=args.seed, full=projection
        )
        cells += report.subsample.grid_cells
    if args.report.endswith(".csv"):
        Path(args.report).write_text(
            "model,metric,value\n" + "\n".join(report.to_csv_rows()) + "\n",
            encoding="utf-8",
        )
    else:
        emap_io.dump_json(report.to_json_dict(), args.report)
    manifest = _manifest(args, [args.data, args.model], started, seed=args.seed)
    if args.with_emap or args.subsample:
        # every grid path scores at least one cell, so the count also names the path
        manifest.update(emap_path="grid" if cells else "marginals", grid_cells=cells)
    _emit_manifest(manifest, args.report)
    return EXIT_OK


def _cmd_logic_census(args) -> int:
    started = time.monotonic()
    tables = logic.all_tables(args.n)
    fast = logic.is_representable_many(tables)
    print(f"{int(fast.sum())}/{len(tables)} representable")
    if args.cross_check:
        disagreements = int((logic.representable_oracle_many(tables) != fast).sum())
        if disagreements:
            print(f"checker/oracle disagreements: {disagreements}", file=sys.stderr)
            return EXIT_NUMERIC
    _emit_manifest(_manifest(args, [], started))
    return EXIT_OK


def _cmd_logic_check(args) -> int:
    started = time.monotonic()
    ast = logic.parse_formula(args.formula)
    table = logic.table_from_formula(ast, args.n)
    fast = logic.is_representable(table)
    verdict = logic.representable_oracle(table) if table.table.shape[0] <= logic.ORACLE_SIDE_LIMIT else None
    payload = {
        "formula": args.formula,
        "n": args.n,
        "representable": fast,
        "oracle": verdict,
        "emap_auc": None if table.is_constant else logic.additive_fit_auc(table, "emap"),
    }
    print(json.dumps(payload, indent=2))
    _emit_manifest(_manifest(args, [], started))
    if verdict is not None and verdict != fast:
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_logic_sweep(args) -> int:
    started = time.monotonic()
    try:
        lo, hi = (int(x) for x in args.n_range.split(".."))
    except ValueError:
        raise InputError("--n-range expects 'A..B'") from None
    if lo > hi:
        raise InputError(f"--n-range {args.n_range} is empty; it needs A <= B")
    cfg = boosting.AdaBoostConfig(max_depth=args.max_depth, n_stages=args.stages)
    for n in (lo, hi):
        logic.table_side(n)  # an out-of-reach range is refused before any warning
    if cfg.max_depth < 2 * hi:
        slow = max(lo, cfg.max_depth // 2 + 1)
        print(
            f"warning: --max-depth {cfg.max_depth} < 2n for n = {slow}..{hi}: full boosting fits "
            f"greedy trees on all 4^n cells there, which is slow at large n (--max-depth {2 * hi} avoids it)",
            file=sys.stderr,
        )
    rows = logic.run_size_sweep(range(lo, hi + 1), args.samples, args.seed, cfg=cfg, sampler=args.sampler)
    logic.write_sweep_csv(rows, args.out)
    print(f"sampler={args.sampler}", file=sys.stderr)
    _emit_manifest(_manifest(args, [], started, seed=args.seed), args.out)
    return EXIT_OK


# -- parser ------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="emap", description=__doc__)
    parser.add_argument("--version", action="version", version=f"emap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("project", help="decompose a score grid into its additive parts")
    p.add_argument("--grid", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("verify", help="numerically verify projection optimality")
    p.add_argument("--grid", required=True)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("synth", help="generate the interaction-requiring synthetic task")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=5000)
    p.add_argument("--latent-dim", type=int, default=10)
    p.add_argument("--text-dim", type=int, default=60)
    p.add_argument("--visual-dim", type=int, default=40)
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--split", default="0.8,0.1,0.1")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a reference model on a dataset file")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, choices=["linear", "poly2", "mlp", "adaboost"])
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--l2", type=float, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--hidden", default=None, help="mlp only (default 128,128)")
    p.add_argument("--proj-width", type=int, default=None, help="mlp only (default 64)")
    p.add_argument("--activation", default=None, choices=["relu", "gelu"], help="mlp only (default relu)")
    p.add_argument("--stages", type=int, default=None, help="adaboost only (default 200)")
    p.add_argument("--max-depth", type=int, default=None, help="adaboost only (default 15)")
    p.add_argument("--restriction", default=None, choices=["full", "unimodal"], help="adaboost only (default full)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a model (optionally with its projection)")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--split", default="test", choices=list(SPLIT_NAMES))
    p.add_argument("--with-emap", action="store_true")
    p.add_argument("--subsample", default=None, help="k,m")
    p.add_argument("--metric", default="accuracy", choices=METRIC_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, help="accepted; grid evaluation runs single-threaded")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("logic", help="boolean representability experiments")
    logic_sub = p.add_subparsers(dest="logic_command", required=True)

    p = logic_sub.add_parser("census", help="count representable tables at size n")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--no-cross-check", dest="cross_check", action="store_false")
    p.set_defaults(func=_cmd_logic_census)

    p = logic_sub.add_parser("check", help="check one formula for representability")
    p.add_argument("--formula", required=True)
    p.add_argument("--n", type=int, required=True, help=f"bits per side, 1..{MAX_TABLE_N}")
    p.set_defaults(func=_cmd_logic_check)

    p = logic_sub.add_parser("sweep", help="additive-fit AUC vs problem size, to CSV")
    p.add_argument("--n-range", required=True, help=f"A..B inclusive, 1 <= A <= B <= {MAX_TABLE_N}")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--sampler", default="uniform", choices=["uniform", "circuit"])
    p.add_argument("--stages", type=int, default=200)
    p.add_argument("--max-depth", type=int, default=15)
    p.add_argument("--threads", type=int, help="accepted; the sweep runs single-threaded")
    p.set_defaults(func=_cmd_logic_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    raw = list(argv) if argv is not None else sys.argv[1:]
    try:
        args = parser.parse_args(raw)
        args.argv = raw
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except EmapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

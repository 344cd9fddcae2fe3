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
import math
import sys
import time
from pathlib import Path

from . import MAX_TABLE_N, METRIC_NAMES, SPLIT_NAMES, __version__
from .exceptions import InputError, NumericError


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
    """argparse that reports a usage problem in one stderr line and exits 1."""

    def error(self, message):
        raise InputError(message)


def _at_least(low: int):
    """An argparse ``type=`` for an integer >= ``low``: a smaller one is refused before any work."""
    def parse(text: str) -> int:
        value = int(text)  # a non-integer is argparse's "invalid int value"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def _subsample(text: str) -> tuple[int, int]:
    """An argparse ``type=`` for ``--subsample k,m``: two integers >= 1, else argparse's "invalid k,m value"."""
    k, m = map(_at_least(1), text.split(","))
    return k, m


_subsample.__name__ = "k,m"


def _output(path: str) -> str:
    """An argparse ``type=`` for an output file, refused unless its directory exists."""
    if Path(path).is_dir() or not Path(path).parent.is_dir():
        raise argparse.ArgumentTypeError(f"the output {path!r} needs a file name in an existing directory")
    return path


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


def _write_manifest(args, command: list, started: float, inputs: list, extras: dict | None = None) -> None:
    """The run's manifest, beside its ``--out`` or ``--report`` file, else on stderr."""
    manifest = {
        "command": command,
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None},
        "seed": getattr(args, "seed", None),
        "inputs": {path: _sha256(_resolve_fixture(path)) for path in inputs},
        "tool_version": __version__,
        "wall_time_s": round(time.monotonic() - started, 6),
        **(extras or {}),
    }
    artifact = getattr(args, "out", None) or getattr(args, "report", None)
    if artifact is None:
        print(json.dumps(manifest), file=sys.stderr)
    else:
        emap_io.dump_json(manifest, artifact + ".manifest.json")


# -- subcommands -------------------------------------------------------------
# each returns its exit code, the input files it read and, optionally, extra
# manifest fields; ``main`` times the run and writes its manifest


def _cmd_project(args) -> tuple:
    score_grid = emap_io.load_grid(_resolve_fixture(args.grid))
    dec = grid.emap_decompose(score_grid)
    emap_io.save_decomposition(dec, args.out)
    return EXIT_OK, [args.grid]


def _cmd_verify(args) -> tuple:
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise InputError(f"--tolerance must be finite and > 0, got {args.tolerance}")
    score_grid = emap_io.load_grid(_resolve_fixture(args.grid))
    report, passed = oracle.verify_projection(score_grid, tolerance=args.tolerance, seed=args.seed)
    payload = report.to_json_dict()
    payload["passed"] = passed
    payload["tolerance"] = args.tolerance
    print(json.dumps(payload, indent=2))
    return (EXIT_OK if passed else EXIT_NUMERIC), [args.grid]


def _cmd_synth(args) -> tuple:
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
    return EXIT_OK, []


def _parse_hidden(text: str) -> tuple[int, ...]:
    """``--hidden``'s widths; an empty string means no hidden layer, an empty entry is refused."""
    try:
        return tuple(int(x) for x in text.split(",")) if text else ()
    except ValueError:
        raise InputError(f"--hidden expects comma-separated integer widths, got {text!r}") from None


# train's model flags: each sets the config field of its name (--stages sets n_stages);
# a flag left out keeps the config's default, and one whose field the chosen model's
# config lacks is refused
_TRAIN_FLAGS = ("l2", "lr", "epochs", "hidden", "proj_width", "activation", "stages", "max_depth", "restriction")


def _cmd_train(args) -> tuple:
    import dataclasses

    if args.model == "adaboost":
        config_cls, train = boosting.AdaBoostConfig, boosting.train_adaboost
    elif args.model == "linear":
        config_cls, train = models.LinearConfig, models.train_linear
    else:
        kind = "poly2" if args.model == "poly2" else "feedforward"
        config_cls = models.Poly2Config if kind == "poly2" else models.FeedForwardConfig
        train = lambda data, cfg: models.train_interactive(data, kind, cfg)
    fields = {field.name for field in dataclasses.fields(config_cls)}
    settings = {"seed": args.seed}
    for flag in _TRAIN_FLAGS:
        value = getattr(args, flag)
        if value is None:
            continue
        field = "n_stages" if flag == "stages" else flag
        if field not in fields:
            raise InputError(f"--{flag.replace('_', '-')} does not apply to --model {args.model}")
        settings[field] = _parse_hidden(value) if flag == "hidden" else value
    cfg = config_cls(**settings)  # a bad setting is refused before the dataset is read
    emap_io.save_model(train(emap_io.load_dataset(args.data), cfg), args.out)
    return EXIT_OK, [args.data]


def _csv_rows(report: dict) -> list[str]:
    """An eval report's numbers as CSV rows, in the report's order.  A number
    under a key that starts with ``emap`` (the projection's) is labelled
    ``<model>+emap``."""
    numbers = []  # (the key the number is under, its CSV name, the number)
    for key, value in report.items():
        if key in ("metrics", "emap_metrics"):
            numbers += [(key, name, number) for name, number in value.items()]
        elif key in ("agreement_rate", "orig_better_frac"):
            numbers.append((key, key, value))
        elif key == "subsample":
            numbers += [(stat, f"subsample_{stat}_{value['metric']}", number)
                        for stat, number in value.items() if stat.endswith(("_mean", "_std"))]
    model = report["model"]
    return [
        f"{model}{'+emap' if key.startswith('emap') else ''},{name},{number!r}" for key, name, number in numbers
    ]


def _cmd_eval(args) -> tuple:
    part = emap_io.load_dataset(args.data).subset(args.split)  # the full dataset is freed at once
    if args.subsample and args.subsample[1] > part.n:
        raise InputError(f"subsample size m={args.subsample[1]} must lie in [1, {part.n}]")
    report, extras = metrics.evaluate(
        emap_io.load_model(args.model), part,
        with_emap=args.with_emap, subsample=args.subsample, metric=args.metric, seed=args.seed,
    )
    report = {"model": Path(args.model).stem, "split": args.split, **report}
    if args.report.endswith(".csv"):
        Path(args.report).write_text("model,metric,value\n" + "\n".join(_csv_rows(report)) + "\n", encoding="utf-8")
    else:
        emap_io.dump_json(report, args.report)
    return EXIT_OK, [args.data, args.model], extras


def _cmd_logic_census(args) -> tuple:
    tables = logic.all_tables(args.n)
    fast = logic.is_representable_many(tables)
    print(f"{int(fast.sum())}/{len(tables)} representable")
    disagreements = int((logic.representable_oracle_many(tables) != fast).sum())
    if disagreements:
        print(f"checker/oracle disagreements: {disagreements}", file=sys.stderr)
        return EXIT_NUMERIC, []
    return EXIT_OK, []


def _cmd_logic_check(args) -> tuple:
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
    if verdict is not None and verdict != fast:
        return EXIT_NUMERIC, []
    return EXIT_OK, []


def _cmd_logic_sweep(args) -> tuple:
    try:
        lo, hi = (int(x) for x in args.n_range.split(".."))
    except ValueError:
        raise InputError("--n-range expects 'A..B'") from None
    if lo > hi:
        raise InputError(f"--n-range {args.n_range} is empty; it needs A <= B")
    rows = logic.run_size_sweep(range(lo, hi + 1), args.samples, args.seed, args.stages, args.sampler)
    logic.write_sweep_csv(rows, args.out)
    print(f"sampler={args.sampler}", file=sys.stderr)
    return EXIT_OK, []


# -- parser ------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="emap", description=__doc__)
    parser.add_argument("--version", action="version", version=f"emap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("project", help="decompose a score grid into its additive parts")
    p.add_argument("--grid", required=True)
    p.add_argument("--out", type=_output, required=True)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("verify", help="numerically verify projection optimality")
    p.add_argument("--grid", required=True)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("synth", help="generate the interaction-requiring synthetic task")
    p.add_argument("--out", type=_output, required=True)
    p.add_argument("--n", type=int, default=5000)
    p.add_argument("--latent-dim", type=int, default=10)
    p.add_argument("--text-dim", type=int, default=60)
    p.add_argument("--visual-dim", type=int, default=40)
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--split", default="0.8,0.1,0.1")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a reference model on a dataset file")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, choices=["linear", "poly2", "mlp", "adaboost"])
    p.add_argument("--out", type=_output, required=True)
    p.add_argument("--seed", type=_at_least(0), default=0)
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
    p.add_argument("--report", type=_output, required=True)
    p.add_argument("--split", default="test", choices=list(SPLIT_NAMES))
    p.add_argument("--with-emap", action="store_true")
    p.add_argument("--subsample", type=_subsample, default=None, help="k,m")
    p.add_argument("--metric", default="accuracy", choices=METRIC_NAMES)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--threads", type=_at_least(1), help="accepted; grid evaluation runs single-threaded")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("logic", help="boolean representability experiments")
    logic_sub = p.add_subparsers(dest="logic_command", required=True)

    p = logic_sub.add_parser("census", help="count representable tables at size n")
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(func=_cmd_logic_census)

    p = logic_sub.add_parser("check", help="check one formula for representability")
    p.add_argument("--formula", required=True)
    p.add_argument("--n", type=int, required=True, help=f"bits per side, 1..{MAX_TABLE_N}")
    p.set_defaults(func=_cmd_logic_check)

    p = logic_sub.add_parser("sweep", help="additive-fit AUC vs problem size, to CSV")
    p.add_argument("--n-range", required=True, help=f"A..B inclusive, 1 <= A <= B <= {MAX_TABLE_N}")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--out", type=_output, required=True)
    p.add_argument("--sampler", default="uniform", choices=["uniform", "circuit"])
    p.add_argument("--stages", type=_at_least(1), default=200)
    p.add_argument("--threads", type=_at_least(1), help="accepted; the sweep runs single-threaded")
    p.set_defaults(func=_cmd_logic_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    raw = list(argv) if argv is not None else sys.argv[1:]
    try:
        args = parser.parse_args(raw)
        started = time.monotonic()
        code, *manifest_fields = args.func(args)
        _write_manifest(args, raw, started, *manifest_fields)
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:  # an input that is missing, names a directory or cannot be read
        reason = "file not found" if isinstance(exc, FileNotFoundError) else exc.strerror or type(exc).__name__
        print(f"error: {reason}: {exc.filename or exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:  # a size flag asked for more memory than there is
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_INPUT
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

"""Run one ``emap`` CLI invocation, optionally under a span tracer.

Usage: ``python3 perfbench/shim.py <emap arguments...>``.  Puts the
checkout's ``src`` on ``sys.path`` and calls ``emap.cli.main`` exactly as
the installed ``emap`` console script does.

When the environment variable ``PERFBENCH_TRACE`` names a file, timing
wrappers are installed around the public functions of every ``emap`` layer
before ``main`` runs, wherever those functions are bound (a function
imported by name into another module is replaced there too, and model
methods are replaced on their classes).  Spans are kept in memory and
written to that file as JSON when the invocation ends.  The library itself
is not modified.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class Tracer:
    """In-memory span recorder: (id, name, start, end, parent id, attrs).

    Each thread keeps its own span stack.  A span opened on a worker thread
    with an empty stack takes the main thread's innermost open span as its
    parent, so work fanned out to a thread pool nests under its caller.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, pre=None, post=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        rec = {"id": next(self._ids), "name": name, "parent": parent}
        rec["attrs"] = pre(args, kwargs) if pre else {}
        stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(rec)
        if post:
            rec["attrs"].update(post(args, kwargs, result))
        return result

    def wrap(self, name, fn, pre=None, post=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, pre, post)

        return wrapper

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans}), encoding="utf-8")


# -- span attributes ----------------------------------------------------------


def _binder(fn):
    sig = inspect.signature(fn)

    def bound(args, kwargs) -> dict:
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    return bound


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _bytes_read(args, kwargs):
    return {"bytes_read": _file_size(args[0] if args else kwargs.get("path"))}


def _bytes_written(args, kwargs, result):
    return {"bytes_written": _file_size(args[1] if len(args) > 1 else kwargs.get("path"))}


def _rows(args, kwargs, result):
    return {"cells": int(result.shape[0])}


def _cells(args, kwargs, result):
    return {"cells": int(result.shape[0] * result.shape[1])}


def _ffn_rows(args, kwargs, result):
    model = args[0]
    weights = model.proj_t.size + model.proj_v.size + sum(w.size for w, _ in model.layers)
    cells = int(result.shape[0])
    return {"cells": cells, "flops": 2.0 * weights * cells}


def _grid_path(args, kwargs):
    scorer = args[0] if args else kwargs["scorer"]
    return {"path": "logits_grid" if hasattr(scorer, "logits_grid") else "row"}


def _grid_size(args, kwargs, result):
    values = result.values
    return {"cells": int(values.shape[0] * values.shape[1]), "grid_mb": values.nbytes / 1e6}


def _loaded_grid(args, kwargs, result):
    return {"grid_mb": result.values.nbytes / 1e6}


def _synth_audit(args, kwargs, result):
    _, audit = result
    return {"points": int(audit.attempts.shape[0]), "attempts": int(audit.attempts.sum())}


def _nth_arg(index, key, label):
    def pre(args, kwargs):
        return {label: args[index] if len(args) > index else kwargs.get(key)}

    return pre


def _fd_probes(bound):
    def pre(args, kwargs):
        a = bound(args, kwargs)
        grid = a["grid"]
        params = (grid.n_text + grid.n_visual) * grid.d
        return {"probes": min(params, int(a["fd_max_params"]))}

    return pre


def _hessian_probe(bound):
    def pre(args, kwargs):
        a = bound(args, kwargs)
        n, samples = int(a["n"]), int(a["samples"])
        return {"probe_mb": samples * n * n * 8 / 1e6}

    return pre


# (module, attribute or Class.method, span name, pre, post); pre/post that
# need the signature are built once from the original function.
TARGETS = [
    ("emap.io", "load_dataset", "io.load_dataset", _bytes_read, None),
    ("emap.io", "load_model", "io.load_model", _bytes_read, None),
    ("emap.io", "load_grid", "io.load_grid", _bytes_read, _loaded_grid),
    ("emap.io", "save_dataset", "io.save", None, _bytes_written),
    ("emap.io", "save_model", "io.save", None, _bytes_written),
    ("emap.io", "save_grid", "io.save", None, _bytes_written),
    ("emap.io", "save_decomposition", "io.save", None, _bytes_written),
    ("emap.io", "dump_json", "io.save", None, _bytes_written),
    ("emap.synth", "generate", "synth.generate", None, None),
    ("emap.synth", "generate_with_audit", "synth.generate_with_audit", None, _synth_audit),
    ("emap.models", "train_linear", "models.train.linear", None, None),
    ("emap.models", "train_interactive", "models.train_interactive", _nth_arg(1, "kind", "kind"), None),
    ("emap.models", "LinearModel.logits_many", "models.linear.logits", None, _rows),
    ("emap.models", "LinearModel.logits_grid", "models.linear.logits", None, _cells),
    ("emap.models", "Poly2Model.logits_many", "models.poly2.logits", None, _rows),
    ("emap.models", "Poly2Model.logits_grid", "models.poly2.logits", None, _cells),
    ("emap.models", "FeedForwardModel.logits_many", "models.feedforward.logits", None, _ffn_rows),
    ("emap.boosting", "full_boost_round", "boosting.round.full", None, None),
    ("emap.boosting", "unimodal_restricted_boost_round", "boosting.round.unimodal", None, None),
    ("emap.boosting", "train_adaboost", "boosting.train", None, None),
    ("emap.boosting", "AdaBoostModel.logits_many", "boosting.logits", None, _rows),
    ("emap.grid", "build_grid", "grid.build", _grid_path, _grid_size),
    ("emap.grid", "emap_decompose", "grid.decompose", None, None),
    ("emap.metrics", "metric_from_logits", "metrics.metric", None, None),
    ("emap.metrics", "auc_binary", "metrics.auc_binary", None, None),
    ("emap.metrics", "agreement", "metrics.metric", None, None),
    ("emap.metrics", "disagreement_advantage", "metrics.metric", None, None),
    ("emap.metrics", "subsampled_emap_metric", "metrics.subsample", None, None),
    ("emap.oracle", "solve_exact", "oracle.solve_exact", None, None),
    ("emap.oracle", "check_stationarity", "oracle.stationarity", _fd_probes, None),
    ("emap.oracle", "check_hessian", "oracle.hessian", _hessian_probe, None),
    ("emap.logic", "sample_table", "logic.sample_table", None, None),
    ("emap.logic", "additive_fit_auc", "logic.fit_auc", _nth_arg(1, "method", "method"), None),
    ("emap.logic", "is_representable", "logic.is_representable", None, None),
    ("emap.logic", "representable_oracle", "logic.oracle", None, None),
]

_NEEDS_SIGNATURE = {_fd_probes, _hessian_probe}


def install(tracer: Tracer) -> None:
    """Replace every target, in its defining module and wherever it is bound."""
    emap_modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "emap"]
    for module_name, attr, span, pre, post in TARGETS:
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, tracer.wrap(span, getattr(cls, method), pre, post))
            continue
        original = getattr(owner, attr)
        if pre in _NEEDS_SIGNATURE:
            pre = pre(_binder(original))
        wrapped = tracer.wrap(span, original, pre, post)
        for module in emap_modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapped)


def main() -> int:
    sys.path.insert(0, str(SRC))
    trace_path = os.environ.get("PERFBENCH_TRACE")
    if not trace_path:
        from emap.cli import main as emap_main

        return emap_main()

    tracer = Tracer()
    code = 1
    try:
        cli = tracer.call("cli.import", __import__, ("emap.cli",), {"fromlist": ["main"]})
        install(tracer)
        code = tracer.call("cli.main", cli.main, (), {})
    except SystemExit as exc:  # argparse exits for --version and --help
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main())

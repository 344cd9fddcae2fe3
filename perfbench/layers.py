"""Per-layer metrics from the spans that ``shim.py`` records.

Every metric belongs to one module of ``src/emap/`` (its layer) and is
listed with the end-to-end metric it should move.  Times are busy seconds:
the summed duration of the outermost spans of a group, so a function that
calls another of the same group is not counted twice.  Spans of the job are
divided by the number of traced job repetitions, so every figure is "set-up
once plus one job".
"""

from __future__ import annotations

# name -> unit, in report order; the names are the per_layer metrics of
# BENCHMARK.json.
METRICS = {
    "cli.startup_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "io.load_dataset_s": "s",
    "io.load_model_s": "s",
    "io.load_grid_s": "s",
    "io.save_s": "s",
    "io.bytes_read": "bytes",
    "io.bytes_written": "bytes",
    "synth.generate_s": "s",
    "synth.accept_ratio": "fraction",
    "models.train_s.linear": "s",
    "models.train_s.poly2": "s",
    "models.train_s.feedforward": "s",
    "models.cells_per_s.linear": "cells/s",
    "models.cells_per_s.poly2": "cells/s",
    "models.cells_per_s.feedforward": "cells/s",
    "models.feedforward.gflop_per_s": "GFLOP/s",
    "boosting.round_s.full": "s",
    "boosting.round_s.unimodal": "s",
    "boosting.rounds.full": "count",
    "boosting.rounds.unimodal": "count",
    "boosting.train_s": "s",
    "boosting.cells_per_s": "cells/s",
    "grid.build_s": "s",
    "grid.cells": "count",
    "grid.build_cells_per_s.logits_grid": "cells/s",
    "grid.build_cells_per_s.row": "cells/s",
    "grid.decompose_s": "s",
    "grid.decompose_calls": "count",
    "grid.max_grid_mb": "MB",
    "metrics.metric_s": "s",
    "metrics.auc_calls": "count",
    "metrics.subsample_s": "s",
    "oracle.solve_exact_s": "s",
    "oracle.stationarity_s": "s",
    "oracle.fd_probes": "count",
    "oracle.hessian_s": "s",
    "oracle.hessian_probe_mb": "MB",
    "logic.sample_table_s": "s",
    "logic.fit_auc_s.emap": "s",
    "logic.fit_auc_s.adaboost_unimodal": "s",
    "logic.fit_auc_s.adaboost_full": "s",
    "logic.tables": "count",
    "logic.is_representable_s": "s",
    "logic.oracle_s": "s",
    "trace.overhead": "fraction",
    "trace.coverage": "fraction",
}

# layer -> the end-to-end metric and workloads it should move
MOVES = {
    "cli": "work_per_s on all three workloads, most on verify and diagnose (many short invocations)",
    "io": "work_per_s on verify (JSON vs binary grid) and diagnose; setup_s on diagnose",
    "synth": "setup_s on diagnose",
    "models": "setup_s and work_per_s on diagnose; nothing on the other two",
    "boosting": "work_per_s on logic-sweep; setup_s and work_per_s on diagnose",
    "grid": "work_per_s and peak_rss_mb on diagnose; work_per_s on logic-sweep through call count",
    "metrics": "work_per_s on logic-sweep (tiny calls) and on diagnose",
    "oracle": "work_per_s and peak_rss_mb on verify; nothing elsewhere",
    "logic": "work_per_s on logic-sweep",
    "trace": "none: tracing overhead and span coverage of the traced run",
}


class SpanSet:
    """Spans of several invocations, each invocation carrying a weight.

    Every query looks at the outermost spans of the named group only, so a
    grouped function that calls another of its group (``save_model`` calls
    ``dump_json``) is counted once.
    """

    def __init__(self):
        self._spans = []  # (weight, span, id -> span map of its invocation)
        self._invocations = []  # (weight, wall seconds, spans)

    def add(self, spans: list[dict], wall_s: float, weight: float) -> None:
        by_id = {s["id"]: s for s in spans}
        self._spans.extend((weight, s, by_id) for s in spans)
        self._invocations.append((weight, wall_s, spans))

    def _outermost(self, names, where):
        for weight, span, by_id in self._spans:
            if span["name"] not in names or any(span["attrs"].get(k) != v for k, v in where.items()):
                continue
            parent = by_id.get(span["parent"])
            while parent is not None and parent["name"] not in names:
                parent = by_id.get(parent["parent"])
            if parent is None:
                yield weight, span

    def busy(self, *names, **where) -> float:
        return sum(w * (s["end"] - s["start"]) for w, s in self._outermost(set(names), where))

    def count(self, *names, **where) -> float:
        return sum(w for w, _ in self._outermost(set(names), where))

    def total(self, key, *names, **where) -> float:
        return sum(w * s["attrs"].get(key, 0) for w, s in self._outermost(set(names), where))

    def largest(self, key, *names) -> float:
        return max((s["attrs"].get(key, 0) for _, s in self._outermost(set(names), {})), default=0.0)

    def rate(self, key, *names, **where) -> float:
        """Summed attribute per busy second; spans on parallel threads add up."""
        busy = self.busy(*names, **where)
        return self.total(key, *names, **where) / busy if busy > 0 else 0.0

    def cli_self_s(self) -> float:
        """Invocation wall time not covered by a layer span directly under the CLI.

        Interpreter start, imports, argument parsing and anything else the
        CLI does itself count.
        """
        total = 0.0
        for weight, wall, spans in self._invocations:
            cli_ids = {s["id"] for s in spans if s["name"].startswith("cli.")}
            layer = sum(
                s["end"] - s["start"]
                for s in spans
                if not s["name"].startswith("cli.") and (s["parent"] is None or s["parent"] in cli_ids)
            )
            total += weight * (wall - layer)
        return total


def coverage(wall: float, spans: list[dict]) -> float:
    """Share of an invocation's wall time covered by its top-level spans."""
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    return top / wall if wall > 0 else 0.0


def per_layer(s: SpanSet, startup_s: float, overhead: float, cover: float) -> dict:
    """Every metric of ``METRICS`` from a span set; layers not exercised read 0."""
    values = {
        "cli.startup_s": startup_s,
        "cli.import_s": s.busy("cli.import"),
        "cli.self_s": s.cli_self_s(),
        "io.load_dataset_s": s.busy("io.load_dataset"),
        "io.load_model_s": s.busy("io.load_model"),
        "io.load_grid_s": s.busy("io.load_grid"),
        "io.save_s": s.busy("io.save"),
        "io.bytes_read": s.total("bytes_read", "io.load_dataset", "io.load_model", "io.load_grid"),
        "io.bytes_written": s.total("bytes_written", "io.save"),
        "synth.generate_s": s.busy("synth.generate", "synth.generate_with_audit"),
        "synth.accept_ratio": s.total("points", "synth.generate_with_audit")
        / max(s.total("attempts", "synth.generate_with_audit"), 1),
        "models.train_s.linear": s.busy("models.train.linear"),
        "models.train_s.poly2": s.busy("models.train_interactive", kind="poly2"),
        "models.train_s.feedforward": s.busy("models.train_interactive", kind="feedforward"),
        "models.cells_per_s.linear": s.rate("cells", "models.linear.logits"),
        "models.cells_per_s.poly2": s.rate("cells", "models.poly2.logits"),
        "models.cells_per_s.feedforward": s.rate("cells", "models.feedforward.logits"),
        "models.feedforward.gflop_per_s": s.rate("flops", "models.feedforward.logits") / 1e9,
        "boosting.round_s.full": s.busy("boosting.round.full"),
        "boosting.round_s.unimodal": s.busy("boosting.round.unimodal"),
        "boosting.rounds.full": s.count("boosting.round.full"),
        "boosting.rounds.unimodal": s.count("boosting.round.unimodal"),
        "boosting.train_s": s.busy("boosting.train"),
        "boosting.cells_per_s": s.rate("cells", "boosting.logits"),
        "grid.build_s": s.busy("grid.build"),
        "grid.cells": s.total("cells", "grid.build"),
        "grid.build_cells_per_s.logits_grid": s.rate("cells", "grid.build", path="logits_grid"),
        "grid.build_cells_per_s.row": s.rate("cells", "grid.build", path="row"),
        "grid.decompose_s": s.busy("grid.decompose"),
        "grid.decompose_calls": s.count("grid.decompose"),
        "grid.max_grid_mb": s.largest("grid_mb", "grid.build", "io.load_grid"),
        "metrics.metric_s": s.busy("metrics.metric", "metrics.auc_binary"),
        "metrics.auc_calls": s.count("metrics.auc_binary"),
        "metrics.subsample_s": s.busy("metrics.subsample"),
        "oracle.solve_exact_s": s.busy("oracle.solve_exact"),
        "oracle.stationarity_s": s.busy("oracle.stationarity"),
        "oracle.fd_probes": s.total("probes", "oracle.stationarity"),
        "oracle.hessian_s": s.busy("oracle.hessian"),
        "oracle.hessian_probe_mb": s.largest("probe_mb", "oracle.hessian"),
        "logic.sample_table_s": s.busy("logic.sample_table"),
        "logic.fit_auc_s.emap": s.busy("logic.fit_auc", method="emap"),
        "logic.fit_auc_s.adaboost_unimodal": s.busy("logic.fit_auc", method="adaboost_unimodal"),
        "logic.fit_auc_s.adaboost_full": s.busy("logic.fit_auc", method="adaboost_full"),
        "logic.tables": s.count("logic.sample_table"),
        "logic.is_representable_s": s.busy("logic.is_representable"),
        "logic.oracle_s": s.busy("logic.oracle"),
        "trace.overhead": overhead,
        "trace.coverage": cover,
    }
    assert values.keys() == METRICS.keys()
    return {name: float(value) for name, value in values.items()}

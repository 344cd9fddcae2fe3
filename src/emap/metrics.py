"""Evaluation metrics and model-vs-projection comparison protocols.

Conventions, fixed once and stated in every report: argmax ties break
toward the lowest class index; binary AUC is the Mann-Whitney rank
statistic with average ranks for ties; multi-class AUC is macro one-vs-rest
(the unweighted mean of per-class binary AUCs); weighted F1 is the
support-weighted mean of per-class F1.

The subsampled protocol scores each repetition's items with the scorer's
``logits_many`` and takes their projected predictions, and the cells
scored, from one ``grid.Projection``: ``take`` of the full projection's grid
when it has one, else ``grid.project_scorer``.  ``evaluate`` builds eval's report.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from . import METRIC_NAMES
from .data import PairedDataset
from .exceptions import InputError, NumericError, UndefinedMetricError
from .grid import Projection, as_scorer, emap_predictions, project_scorer

__all__ = [
    "AUC_CONVENTION_NOTE",
    "accuracy",
    "auc_rows",
    "auc_binary",
    "auc_macro_ovr",
    "weighted_f1",
    "auc_from_logits",
    "agreement",
    "disagreement_advantage",
    "SubsampleResult",
    "subsampled_emap_metric",
    "METRIC_NAMES",
    "metric_from_logits",
    "evaluate",
]

AUC_CONVENTION_NOTE = (
    "AUC convention: binary = Mann-Whitney rank statistic with average ranks for "
    "ties; multi-class = macro one-vs-rest."
)


def _check_logits(logits: np.ndarray, labels: np.ndarray):
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    labels = np.asarray(labels)
    if logits.shape[0] != labels.shape[0]:
        raise InputError(
            f"got {logits.shape[0]} prediction rows for {labels.shape[0]} labels"
        )
    return logits, labels


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of items whose argmax class matches the label."""
    logits, labels = _check_logits(logits, labels)
    if logits.shape[1] < 2:
        raise InputError("accuracy needs per-class logits with d >= 2")
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks along each row of a 2-D array, tied values sharing their mean rank.

    Matches ``scipy.stats.rankdata(scores, method="average", axis=1)`` bit
    for bit, including its all-NaN row wherever a row holds a NaN.  Average
    ranks are integers or halves, so they are exact in float64.
    """
    n_cols = scores.shape[1]
    # sort each row, then work on the flat array, where row r starts at cell r * n_cols
    row_starts = np.arange(0, scores.size, n_cols)[:, np.newaxis]
    order = (np.argsort(scores, axis=1, kind="stable") + row_starts).ravel()
    ordered = scores.ravel()[order]
    # a run of ties starts at each change of value and at the first cell of each row
    new_run = np.empty(scores.size, dtype=bool)
    new_run[1:] = ordered[1:] != ordered[:-1]
    new_run[::n_cols] = True
    starts = np.flatnonzero(new_run)
    counts = np.diff(starts, append=scores.size)
    ranks = np.empty(scores.shape)
    ranks.ravel()[order] = np.repeat((starts % n_cols + 1) + (counts - 1) / 2.0, counts)
    ranks[np.isnan(scores).any(axis=1)] = np.nan
    return ranks


def auc_rows(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mann-Whitney AUC of each row of 2-D scores against the same row of binary labels.

    A positive's rank sum is a sum of integers and halves, so it is exact in
    any order: each row's AUC has the bits the row alone would get.
    """
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels) == 1
    if scores.ndim != 2 or scores.shape != pos.shape:
        raise InputError("scores and labels must be 2-D arrays of one shape")
    n_pos = pos.sum(axis=1)
    n_neg = pos.shape[1] - n_pos
    if not (n_pos.all() and n_neg.all()):
        raise UndefinedMetricError("AUC needs both classes present")
    rank_sums = np.where(pos, _average_ranks(scores), 0.0).sum(axis=1)
    return (rank_sums - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc_binary(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC of 1-D scores against binary labels; the one-row case of ``auc_rows``."""
    return float(auc_rows(np.ravel(scores)[np.newaxis], np.ravel(labels)[np.newaxis])[0])


def auc_macro_ovr(logits: np.ndarray, labels: np.ndarray) -> float:
    """Unweighted mean of per-class one-vs-rest binary AUCs."""
    logits, labels = _check_logits(logits, labels)
    classes = labels == np.arange(logits.shape[1])[:, np.newaxis]
    return float(np.mean(auc_rows(logits.T, classes)))


def weighted_f1(logits: np.ndarray, labels: np.ndarray) -> float:
    """Support-weighted mean of per-class F1 over argmax predictions."""
    logits, labels = _check_logits(logits, labels)
    preds = np.argmax(logits, axis=1)
    total = labels.shape[0]
    score = 0.0
    for c in range(logits.shape[1]):
        support = int(np.sum(labels == c))
        if support == 0:
            continue
        tp = int(np.sum((preds == c) & (labels == c)))
        predicted = int(np.sum(preds == c))
        precision = tp / predicted if predicted else 0.0
        recall = tp / support
        f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
        score += support * f1
    return float(score / total)


def auc_from_logits(logits: np.ndarray, labels: np.ndarray) -> float:
    """Binary AUC from 2-column logits (class-1 minus class-0 margin), else macro OVR."""
    logits, labels = _check_logits(logits, labels)
    if logits.shape[1] == 1:
        return auc_binary(logits[:, 0], labels)
    if logits.shape[1] == 2:
        return auc_binary(logits[:, 1] - logits[:, 0], labels)
    return auc_macro_ovr(logits, labels)


def metric_from_logits(name: str, logits: np.ndarray, labels: np.ndarray) -> float:
    if name == "accuracy":
        return accuracy(logits, labels)
    if name == "auc":
        return auc_from_logits(logits, labels)
    if name == "weighted_f1":
        return weighted_f1(logits, labels)
    raise InputError(f"unknown metric {name!r}; expected one of {METRIC_NAMES}")


def agreement(preds_a: np.ndarray, preds_b: np.ndarray) -> float:
    """Fraction of items where two prediction sets pick the same argmax label."""
    preds_a = np.atleast_2d(np.asarray(preds_a))
    preds_b = np.atleast_2d(np.asarray(preds_b))
    if preds_a.shape != preds_b.shape:
        raise InputError(f"prediction shapes differ: {preds_a.shape} vs {preds_b.shape}")
    return float(np.mean(np.argmax(preds_a, axis=1) == np.argmax(preds_b, axis=1)))


def disagreement_advantage(preds_a, preds_b, labels) -> float | None:
    """Among disagreements where exactly one side is correct: fraction won by A.

    Returns None when no such instance exists (the statistic is absent, not
    an error).
    """
    preds_a = np.atleast_2d(np.asarray(preds_a))
    preds_b = np.atleast_2d(np.asarray(preds_b))
    labels = np.asarray(labels)
    if preds_a.shape != preds_b.shape or preds_a.shape[0] != labels.shape[0]:
        raise InputError("prediction/label shapes do not match")
    a = np.argmax(preds_a, axis=1)
    b = np.argmax(preds_b, axis=1)
    mask = (a != b) & ((a == labels) ^ (b == labels))
    if not mask.any():
        return None
    return float(np.mean(a[mask] == labels[mask]))


@dataclass(frozen=True)
class SubsampleResult:
    """Mean/std of a metric over repeated subsampled projections.

    ``grid_cells`` counts the cross-pairings scored for the sub-grids (0 when
    they were sliced from a full grid or no grid was needed); it is run
    telemetry, not part of the result's value.
    """

    metric: str
    k: int
    m: int
    direct_mean: float
    direct_std: float
    emap_mean: float
    emap_std: float
    direct_values: tuple = ()
    emap_values: tuple = ()
    grid_cells: int = field(default=0, compare=False)


def subsampled_emap_metric(
    scorer,
    dataset: PairedDataset,
    k: int,
    m: int,
    metric: str,
    seed: int = 0,
    full: Projection | None = None,
) -> SubsampleResult:
    """Projection quality on k random size-m subsamples of a dataset.

    Repetition r draws m indices without replacement from the r-th child of
    ``SeedSequence(seed)`` and keeps them in ascending order -- a subsample
    is a set, so with m = n the projection is exactly the full-dataset one
    and the metrics match it bit for bit.  Each repetition's projection is
    ``full.take(idx)`` when ``full``, the projection of ``dataset``, holds a
    grid, and ``project_scorer`` of the subsample otherwise; its projected
    predictions are compared with ``logits_many`` of the same items.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    if m < 1 or m > dataset.n:
        raise InputError(f"subsample size m={m} must lie in [1, {dataset.n}]")
    if full is not None and len(full.decomposition.tau) != dataset.n:
        raise InputError(
            f"a projection of {len(full.decomposition.tau)} items is not the projection of {dataset.n} items")
    scorer = as_scorer(scorer)
    direct_vals = np.empty(k)
    emap_vals = np.empty(k)
    cells = 0
    for rep, child in enumerate(np.random.SeedSequence(seed).spawn(k)):
        idx = np.sort(np.random.default_rng(child).choice(dataset.n, size=m, replace=False))
        sub = dataset.take(idx)
        if full is not None and full.grid is not None:
            proj = full.take(idx)
        else:
            proj = project_scorer(scorer, sub.text, sub.visual)
        direct_vals[rep] = metric_from_logits(metric, scorer.logits_many(sub.text, sub.visual), sub.labels)
        emap_vals[rep] = metric_from_logits(metric, emap_predictions(proj.decomposition), sub.labels)
        cells += proj.cells
    return SubsampleResult(
        metric=metric,
        k=k,
        m=m,
        direct_mean=float(direct_vals.mean()),
        direct_std=float(direct_vals.std()),
        emap_mean=float(emap_vals.mean()),
        emap_std=float(emap_vals.std()),
        direct_values=tuple(float(x) for x in direct_vals),
        emap_values=tuple(float(x) for x in emap_vals),
        grid_cells=cells,
    )


def _split_metrics(logits: np.ndarray, labels: np.ndarray) -> dict:
    out = {}
    for name in METRIC_NAMES:
        with suppress(InputError):  # UndefinedMetricError too: a metric undefined on these items is left out
            out[name] = metric_from_logits(name, logits, labels)
    return out


def evaluate(scorer, dataset: PairedDataset, *, with_emap: bool = False, subsample: tuple[int, int] | None = None,
             metric: str = "accuracy", seed: int = 0) -> tuple[dict, dict]:
    """``emap eval``'s report of ``scorer`` on the pairs of ``dataset``, and the manifest fields
    naming the projection's path and grid cells (``{}`` when nothing was projected).  Scores of
    ``logits_many`` that are not finite raise ``NumericError``.
    """
    scorer = as_scorer(scorer)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite score is refused below, without warnings
        logits = scorer.logits_many(dataset.text, dataset.visual)
    if not np.isfinite(logits).all():
        raise NumericError("the scorer's logits on the paired items are not all finite")
    projection = project_scorer(scorer, dataset.text, dataset.visual) if with_emap else None
    cells = projection.cells if projection else 0
    report = {"metrics": _split_metrics(logits, dataset.labels), "notes": [AUC_CONVENTION_NOTE]}
    if projection is not None:
        proj = emap_predictions(projection.decomposition)
        report["emap_metrics"] = _split_metrics(proj, dataset.labels)
        report["agreement_rate"] = agreement(logits, proj)
        if (orig_better_frac := disagreement_advantage(logits, proj, dataset.labels)) is not None:
            report["orig_better_frac"] = orig_better_frac
    if subsample:
        result = subsampled_emap_metric(scorer, dataset, *subsample, metric, seed=seed, full=projection)
        cells += result.grid_cells
        stats = ("metric", "k", "m", "direct_mean", "direct_std", "emap_mean", "emap_std")
        report["subsample"] = {key: getattr(result, key) for key in stats}
    # every grid path scores at least one cell, so the count also names the path
    fields = {"emap_path": "grid" if cells else "marginals", "grid_cells": cells}
    return report, fields if with_emap or subsample else {}

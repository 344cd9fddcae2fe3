"""Binary AdaBoost over depth-capped decision trees.

Built for measuring training fit, not generalization: impure nodes are
split even at zero impurity gain (whenever any feature still separates the
node), so a single deep tree can always memorize a finite discrete dataset.
Tie-breaking is fully deterministic -- lowest feature index first, then
lowest threshold, with thresholds at midpoints between consecutive distinct
values.

``boost_batch`` is the one AdaBoost stage loop.  It boosts independent
samples side by side as ``(samples, cells)`` arrays, each row summed and
updated with the bits it would get alone, and a sample leaves the batch
when it stops; ``boost`` is its one-sample case.  Full and
unimodal-restricted boosting differ only in the weak learners that compete
in a round: a full round fits one tree on both modalities concatenated, and
a restricted round one tree per modality, keeping the one with lower
weighted error, so every stage reads only text features or only visual
features.  ``presort`` prepares each side once per fit: identical rows
become weighted pseudo-samples, which leaves every split unchanged, and
each column is sorted once for all the fit's trees.  ``train_adaboost``
boosts one dataset through ``boost``; the boolean lab (``logic.py``)
boosts many truth tables at once through ``boost_batch``.

A trained model's logits are its per-class stage-weight sums: the
stages whose tree votes +1 add their weight to class 1, the others to
class 0, so ``logits[:, 1] - logits[:, 0]`` is the signed score
``sum(alpha * h)`` that ``boost`` fits.  ``logits_many`` scores paired
rows (one pair is one row) and ``logits_grid`` all cross-pairings: a text or
visual stage predicts each item once and is broadcast, and only a full
stage is evaluated per cell, one text row at a time.  The two class
planes accumulate channel-major, the layout ``grid.ScoreGrid`` keeps, so
the grid is never copied.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict, field

import numpy as np

from .data import PairedDataset, check_pairs, check_widths
from .exceptions import InputError

__all__ = [
    "AdaBoostConfig",
    "DecisionTree",
    "fit_tree",
    "AdaBoostModel",
    "boost",
    "boost_batch",
    "unimodal_restricted_boost_round",
    "full_boost_round",
    "presort",
    "train_adaboost",
    "class_sums",
    "masked_row_sums",
    "weighted_error",
    "stage_update",
]

_CHANCE_TOL = 1e-9
_ALPHA_EPS = 1e-10


@dataclass(frozen=True)
class AdaBoostConfig:
    max_depth: int = 15
    n_stages: int = 200
    restriction: str = "full"  # "full" or "unimodal"
    seed: int = 0  # recorded for provenance; the fit itself is deterministic

    def __post_init__(self):
        if self.n_stages < 1:
            raise InputError(f"n_stages must be >= 1, got {self.n_stages}")
        if self.max_depth < 0:
            raise InputError(f"max_depth must be >= 0, got {self.max_depth}")


@dataclass(frozen=True, eq=False)
class DecisionTree:
    """CART-style tree stored as parallel node arrays.

    ``feature[k] == -1`` marks node ``k`` as a leaf predicting
    ``value[k]`` in {-1, +1}.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Each row's leaf value; every row still at a split node moves down one level per step."""
        X = np.atleast_2d(X)
        node = np.zeros(X.shape[0], dtype=np.int64)
        while (live := np.flatnonzero(self.feature[node] >= 0)).size:
            at = node[live]
            go_left = X[live, self.feature[at]] <= self.threshold[at]
            node[live] = np.where(go_left, self.left[at], self.right[at])
        return self.value[node]

    def to_json_dict(self) -> dict:
        return {name: array.tolist() for name, array in vars(self).items()}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "DecisionTree":
        """Load a tree, rejecting any that ``predict`` could not walk to a leaf."""
        tree = cls(
            feature=np.asarray(payload["feature"], dtype=np.int64),
            threshold=np.asarray(payload["threshold"], dtype=np.float64),
            left=np.asarray(payload["left"], dtype=np.int64),
            right=np.asarray(payload["right"], dtype=np.int64),
            value=np.asarray(payload["value"], dtype=np.float64),
        )
        size = tree.feature.size
        if size == 0 or any(a.shape != (size,) for a in vars(tree).values()):
            raise InputError("tree node arrays must be non-empty, flat and of equal length")
        split, node = tree.feature >= 0, np.arange(size)
        for child in (tree.left, tree.right):
            if np.any(split & ((child <= node) | (child >= size))):
                raise InputError("a tree split node's children must come after it in the node arrays")
        if not np.isin(tree.value[~split], (-1.0, 1.0)).all():
            raise InputError("tree leaf values must be -1 or +1")
        return tree


def _best_split(cols: np.ndarray, wp: np.ndarray, wn: np.ndarray, total_p, total_n, ranked: np.ndarray):
    """Best (feature, threshold) by weighted Gini decrease; None if unsplittable.

    ``ranked[f]`` holds the node's rows in stable ascending order of ``cols[f]``
    and ``total_p``, ``total_n`` their class weights.  Ties resolve to the lowest
    feature, then the lowest threshold (np.argmax keeps the first maximum).
    """
    total = total_p + total_n
    parent_gini = total - (total_p * total_p + total_n * total_n) / total
    # each feature's sorted values end to end; no cut joins one feature to the next
    rows = ranked.shape[1]
    v_sorted = cols.take(ranked + np.arange(0, cols.size, cols.shape[1])[:, np.newaxis]).ravel()
    distinct = v_sorted[1:] != v_sorted[:-1]
    distinct[rows - 1 :: rows] = False
    at = np.flatnonzero(distinct)
    if not at.size:
        return None
    cp, cn = (np.cumsum(w.take(ranked), axis=1).ravel()[at] for w in (wp, wn))
    left_tot, right_p, right_n = cp + cn, total_p - cp, total_n - cn
    right_tot = total - left_tot
    # a zero-weight child adds zero impurity (weights can underflow to exact 0 late in boosting)
    with np.errstate(divide="ignore", invalid="ignore"):
        left_imp = np.where(left_tot > 0.0, (cp * cp + cn * cn) / left_tot, 0.0)
        right_imp = np.where(right_tot > 0.0, (right_p * right_p + right_n * right_n) / right_tot, 0.0)
    gains = parent_gini - (left_tot - left_imp + right_tot - right_imp)
    k = int(np.argmax(gains))
    if not gains[k] > -1.0:
        return None
    cut = int(at[k])
    return cut // rows, float(0.5 * (v_sorted[cut] + v_sorted[cut + 1]))


def _grow(side: tuple, y: np.ndarray, w: np.ndarray, max_depth: int):
    """``fit_tree`` on a ``presort``-ed side; returns the tree and its prediction on the side's rows.

    A node keeps its rows ascending (``idx``: its weight sums get a plain sum's bits) and ranked
    by each feature: its parent's ranks filtered by the split, which keeps ties in row order.
    """
    inverse, cols, order = side
    if inverse is not None:  # the distinct rows twice: class 1 with its summed weights, then class 0
        y, w = np.repeat([1, 0], cols.shape[1] // 2), np.concatenate(class_sums(inverse, y, w))
    wp, wn = np.where(y == 1, w, 0.0), np.where(y == 1, 0.0, w)
    h, nodes = np.empty(cols.shape[1]), []  # nodes: [feature, threshold, left, right, value] in preorder

    def build(idx: np.ndarray, ranked: np.ndarray, depth: int) -> int:
        node = len(nodes)
        nodes.append([-1, 0.0, -1, -1, 0.0])
        p, q = wp[idx].sum(), wn[idx].sum()
        split = None if depth >= max_depth or p == 0.0 or q == 0.0 else _best_split(cols, wp, wn, p, q, ranked)
        if split is None:
            nodes[node][4] = h[idx] = 1.0 if p > q else -1.0
            return node
        f, thr = split
        go_left = cols[f] <= thr
        ranked_left = go_left.take(ranked).ravel()
        left = build(idx[go_left[idx]], np.compress(ranked_left, ranked).reshape(len(ranked), -1), depth + 1)
        right = build(idx[~go_left[idx]], np.compress(~ranked_left, ranked).reshape(len(ranked), -1), depth + 1)
        nodes[node][:4] = f, thr, left, right
        return node

    build(np.arange(cols.shape[1]), order, 0)
    dtypes = (np.int64, np.float64, np.int64, np.int64, np.float64)
    tree = DecisionTree(*(np.asarray(column, dtype=t) for column, t in zip(zip(*nodes), dtypes)))
    return tree, (h if inverse is None else h[inverse])


def _columns(X: np.ndarray):
    """``X``'s columns as the rows of a float64 array, and the stable ascending order of each."""
    cols = np.ascontiguousarray(np.atleast_2d(X).T, dtype=np.float64)
    return cols, np.argsort(cols, axis=1, kind="stable")


def fit_tree(X: np.ndarray, y: np.ndarray, w: np.ndarray, max_depth: int) -> DecisionTree:
    """Weighted binary CART fit; y in {0, 1}, leaf values in {-1, +1}.

    Leaves predict the weighted majority class (ties go to class 0 / -1).
    """
    return _grow((None, *_columns(X)), np.asarray(y), np.asarray(w, dtype=np.float64), max_depth)[0]


def presort(X_t: np.ndarray, X_v: np.ndarray, restriction: str) -> dict:
    """The sides a ``restriction``'s trees read, each prepared once per fit as ``(inverse, cols, order)``.

    Equal rows merge into one pseudo-sample per class with summed weights, which leaves every
    split unchanged: the trees fit the distinct rows stacked twice, and ``inverse`` maps each
    row to its distinct row (None when the rows are distinct and fit as they are).
    """
    sides = {"full": np.hstack([X_t, X_v])} if restriction == "full" else {"text": X_t, "visual": X_v}
    for side, X in sides.items():
        uniq, inverse = np.unique(X, axis=0, return_inverse=True)
        sides[side] = (None, *_columns(X)) if len(uniq) == len(X) else (inverse, *_columns(np.vstack([uniq, uniq])))
    return sides


def _tree_candidate(sides: dict, side: str, y: np.ndarray, w: np.ndarray, max_depth: int):
    """A tree fit on one ``presort``-ed side: ``(h, (tree, side))``, ``h`` its prediction on the rows."""
    tree, h = _grow(sides[side], y, w, max_depth)
    return h, (tree, side)


def class_sums(groups: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Per-group total weight of class 1 and of class 0, summed in sample order."""
    return (
        np.bincount(groups, weights=np.where(y == 1, w, 0.0)),
        np.bincount(groups, weights=np.where(y == 1, 0.0, w)),
    )


def masked_row_sums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``values[r][mask[r]].sum()`` for every row ``r``, with that 1-D sum's bits.

    numpy sums a contiguous run pairwise, in an order set by the run's
    length, and a row of a C-contiguous block is summed like the 1-D array
    it holds.  So the rows are ordered by their count of selected cells, the
    selected values packed in row order, and each run of rows with one
    count summed as a single ``(rows, count)`` block.  (``np.add.reduceat``
    sums sequentially, so it would change the bits.)  No selected cell gives
    0.0.
    """
    counts = np.count_nonzero(mask, axis=1)
    order = np.argsort(counts, kind="stable")
    packed = values[order].ravel()[np.flatnonzero(mask[order])]
    rows_with = np.bincount(counts)
    blocks, start = [], 0
    for count in np.flatnonzero(rows_with).tolist():
        n_rows = int(rows_with[count])
        # a count of 0 reduces its empty rows to 0.0
        blocks.append(np.add.reduce(packed[start : start + n_rows * count].reshape(n_rows, count), axis=1))
        start += n_rows * count
    sums = np.empty(values.shape[0])
    sums[order] = np.concatenate(blocks)
    return sums


def weighted_error(weights: np.ndarray, y_sign: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Per row, the total weight of the samples a {-1, +1} weak learner misclassifies."""
    return masked_row_sums(weights, h != y_sign)


def stage_update(weights: np.ndarray, y_sign: np.ndarray, h: np.ndarray, err: np.ndarray):
    """Per row, the AdaBoost stage weight of ``h`` and the reweighted, renormalised samples.

    Returns ``(alpha, weights)``.  A row at chance (``err ~ 0.5``; majority
    leaves guarantee ``err <= 0.5``) gets a meaningless update, and
    ``boost_batch`` stops it before using it.
    """
    alpha = 0.5 * np.log((1.0 - err + _ALPHA_EPS) / (err + _ALPHA_EPS))
    weights = weights * np.exp(-alpha[:, np.newaxis] * y_sign * h)
    return alpha, weights / weights.sum(axis=1)[:, np.newaxis]


def boost_batch(y_sign: np.ndarray, candidates, n_stages: int):
    """The AdaBoost stage loop, run on independent samples side by side.

    ``y_sign`` holds one sample's {-1, +1} labels per row.  Each round,
    ``candidates(weights, rows)`` gets the weights of the samples still
    boosting and their indices into the batch, and returns the round's weak
    learners as ``(h, tags)`` pairs: ``h`` a {-1, +1} prediction per sample
    and cell, ``tags`` one tag per row, or None for a caller that keeps no
    stages (a stage such a candidate wins is applied but not recorded).
    Per sample the lowest weighted error wins (the first on ties) and is
    applied with ``stage_update``.  A sample stops when its winner is at
    chance (``"no_weak_learner"``; that round still counts), when its scores
    fit every cell (``"perfect_fit"``) or after ``n_stages`` rounds
    (``"stage_budget"``), and then leaves the rows passed on.  Every row is
    computed as it would be alone, so a sample's result does not depend on
    the others.  Returns ``(stages, scores, rounds_run, stop_reason)``, one
    entry or row per sample, with ``stages`` a list of ``(tag, alpha)``.
    """
    n_samples, n_cells = y_sign.shape
    stages = [[] for _ in range(n_samples)]
    scores = np.zeros((n_samples, n_cells))
    rounds_run = [n_stages] * n_samples
    stop_reason = ["stage_budget"] * n_samples
    rows = np.arange(n_samples)  # the sample behind each row still boosting
    weights = np.full((n_samples, n_cells), 1.0 / n_cells)
    fitted = np.zeros((n_samples, n_cells))
    for round_ in range(1, n_stages + 1):
        fits = candidates(weights, rows)
        errs = np.stack([weighted_error(weights, y_sign, h) for h, _ in fits])
        best, err = np.argmin(errs, axis=0), errs.min(axis=0)
        h = fits[0][0]
        for k in range(1, len(fits)):
            h = np.where((best == k)[:, np.newaxis], fits[k][0], h)
        stalled = err >= 0.5 - _CHANCE_TOL
        alpha, weights = stage_update(weights, y_sign, h, err)
        previous, fitted = fitted, fitted + alpha[:, np.newaxis] * h
        tagged = [k for k, (_, tags) in enumerate(fits) if tags is not None]
        if tagged:
            won = np.flatnonzero(~stalled & np.isin(best, tagged))
            for sample, i, k, a in zip(rows[won].tolist(), won.tolist(), best[won].tolist(), alpha[won].tolist()):
                stages[sample].append((fits[k][1][i], a))
        perfect = ~stalled & ~np.any(np.sign(fitted) != y_sign, axis=1)
        done = stalled | perfect
        if not done.any():
            continue
        scores[rows[stalled]] = previous[stalled]
        scores[rows[perfect]] = fitted[perfect]
        for sample, stall in zip(rows[done].tolist(), stalled[done].tolist()):
            rounds_run[sample] = round_
            stop_reason[sample] = "no_weak_learner" if stall else "perfect_fit"
        rows, y_sign, weights, fitted = rows[~done], y_sign[~done], weights[~done], fitted[~done]
        if not rows.size:
            break
    scores[rows] = fitted
    return stages, scores, rounds_run, stop_reason


def boost(y_sign: np.ndarray, candidates, n_stages: int):
    """One sample's ``boost_batch``, over whatever weak learners compete in a round.

    ``candidates(weights)`` returns the round's ``(h, tag)`` pairs, ``h`` a
    {-1, +1} prediction per sample.  Returns ``(stages, scores, rounds_run,
    stop_reason)`` with ``stages`` a list of ``(tag, alpha)``.
    """

    def one_row(weights, _rows):
        return [(h[np.newaxis], [tag]) for h, tag in candidates(weights[0])]

    (stages,), (scores,), (rounds_run,), (stop_reason,) = boost_batch(y_sign[np.newaxis], one_row, n_stages)
    return stages, scores, rounds_run, stop_reason


def full_boost_round(weights, sides: dict, y, max_depth: int) -> list:
    """One unrestricted round's candidate: a tree on both modalities concatenated (``presort``'s "full")."""
    return [_tree_candidate(sides, "full", y, weights, max_depth)]


def unimodal_restricted_boost_round(weights, sides: dict, y, max_depth: int) -> list:
    """One restricted round's candidates: a tree on the text side alone, then one on the visual.

    ``boost`` keeps whichever has lower weighted error (ties go to the text
    side), so every stage reads a single modality.  When both are at chance,
    boosting stops with ``"no_weak_learner"``.
    """
    return [_tree_candidate(sides, side, y, weights, max_depth) for side in ("text", "visual")]


@dataclass(frozen=True, eq=False)
class AdaBoostModel:
    """Staged binary classifier; logits are per-class stage-weight sums."""

    stages: tuple  # (DecisionTree, alpha, side)
    restriction: str
    d1: int
    d2: int
    rounds_run: int = 0
    stop_reason: str | None = None
    config: dict = field(default_factory=dict)

    @property
    def num_classes(self) -> int:
        return 2

    def _per_class(self, shape: tuple, predict) -> np.ndarray:
        """Per-class stage-weight sums, stage by stage; ``predict(tree, side)`` gives h.

        The sums fill a contiguous ``(2, *shape)`` array, returned as a ``(*shape, 2)`` view.
        """
        per_class = np.zeros((2, *shape))
        for tree, alpha, side in self.stages:
            h = predict(tree, side)
            per_class[1] += alpha * (h > 0)
            per_class[0] += alpha * (h < 0)
        return np.moveaxis(per_class, 0, -1)

    def logits_many(self, T: np.ndarray, V: np.ndarray) -> np.ndarray:
        T, V = check_pairs(T, V, self.d1, self.d2)
        inputs = {"full": np.hstack([T, V]), "text": T, "visual": V}
        return self._per_class(T.shape[:1], lambda tree, side: tree.predict(inputs[side]))

    def logits_grid(self, T: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Per-class sums over all cross-pairings, as a channel-major ``(N_t, N_v, 2)`` view."""
        T, V = check_widths(T, V, self.d1, self.d2)

        def predict(tree, side):
            if side == "text":
                return tree.predict(T)[:, np.newaxis]
            if side == "visual":
                return tree.predict(V)[np.newaxis, :]
            return np.stack([tree.predict(np.hstack([np.broadcast_to(t, (len(V), len(t))), V])) for t in T])

        return self._per_class((len(T), len(V)), predict)

    def marginals(self, T: np.ndarray, V: np.ndarray) -> None:
        """None: AdaBoost has no exact form of its EMAP yet, so it is projected through its grid."""
        return None

    def to_json_dict(self) -> dict:
        return {
            "kind": "adaboost",
            "restriction": self.restriction,
            "d1": self.d1,
            "d2": self.d2,
            "rounds_run": self.rounds_run,
            "stop_reason": self.stop_reason,
            "stages": [
                {"tree": tree.to_json_dict(), "alpha": alpha, "side": side}
                for tree, alpha, side in self.stages
            ],
            "config": dict(self.config),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "AdaBoostModel":
        d1, d2 = int(payload["d1"]), int(payload["d2"])
        if not (1 <= d1 < 2**31 and 1 <= d2 < 2**31):
            raise InputError(f"adaboost feature widths must lie in [1, 2^31), got d1={d1}, d2={d2}")
        widths = {"full": d1 + d2, "text": d1, "visual": d2}
        stages = []
        for s in payload["stages"]:
            tree, alpha, side = DecisionTree.from_json_dict(s["tree"]), float(s["alpha"]), s["side"]
            if side not in widths:
                raise InputError(f"unknown stage side {side!r}; expected full, text or visual")
            if tree.feature.max() >= widths[side]:
                raise InputError(f"a {side} stage reads feature {tree.feature.max()} of {widths[side]}")
            if not np.isfinite(alpha):
                raise InputError(f"stage weight {alpha} is not finite")
            stages.append((tree, alpha, side))
        return cls(
            stages=tuple(stages),
            restriction=payload["restriction"],
            d1=d1,
            d2=d2,
            rounds_run=int(payload.get("rounds_run", len(stages))),
            stop_reason=payload.get("stop_reason"),
            config=dict(payload.get("config", {})),
        )


def train_adaboost(data: PairedDataset, cfg: AdaBoostConfig | None = None) -> AdaBoostModel:
    """Boost on the train split until perfect fit, stall, or stage budget."""
    cfg = cfg or AdaBoostConfig()
    if data.num_classes != 2:
        raise InputError("adaboost is binary; dataset has more than two classes")
    if cfg.restriction not in ("full", "unimodal"):
        raise InputError(f"unknown restriction {cfg.restriction!r}")
    train = data.subset("train")
    y = train.labels
    if np.all(y == y[0]):
        raise InputError("constant labels: boosting needs both classes present")
    if set(np.unique(y)) - {0, 1}:
        raise InputError("boosting labels must be binary 0/1")
    step = full_boost_round if cfg.restriction == "full" else unimodal_restricted_boost_round
    sides = presort(train.text, train.visual, cfg.restriction)
    stages, _, rounds_run, stop_reason = boost(
        np.where(y == 1, 1.0, -1.0),
        lambda weights: step(weights, sides, y, cfg.max_depth),
        cfg.n_stages,
    )
    return AdaBoostModel(
        stages=tuple((tree, alpha, side) for (tree, side), alpha in stages),
        restriction=cfg.restriction,
        d1=train.d1,
        d2=train.d2,
        rounds_run=rounds_run,
        stop_reason=stop_reason,
        config={**asdict(cfg), "kind": "adaboost"},
    )

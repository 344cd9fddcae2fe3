"""Depth-capped trees and binary AdaBoost, full and unimodal-restricted."""

import dataclasses
import functools
import json
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emap.boosting import (
    AdaBoostConfig,
    AdaBoostModel,
    DecisionTree,
    _tree_candidate,
    boost,
    boost_batch,
    fit_tree,
    full_boost_round,
    masked_row_sums,
    presort,
    train_adaboost,
    unimodal_restricted_boost_round,
)
from emap.data import PairedDataset
from emap.exceptions import InputError
from emap.logic import additive_fit_auc, sample_table
from emap.metrics import auc_binary

import test_paths as paths


def cells_of(table: np.ndarray):
    """All (t-bits, v-bits, label) cells of an n-bit-per-side truth table."""
    size = table.shape[0]
    n = int(np.log2(size))
    patterns = ((np.arange(size)[:, None] >> np.arange(n)) & 1).astype(np.float64)
    rows = np.repeat(np.arange(size), size)
    cols = np.tile(np.arange(size), size)
    return patterns[rows], patterns[cols], table.ravel().astype(np.int64)


def cell_dataset(table: np.ndarray) -> PairedDataset:
    """A truth table's cells as a binary paired dataset."""
    X_t, X_v, y = cells_of(table)
    return PairedDataset(
        text=X_t,
        visual=X_v,
        labels=y,
        split=np.zeros(len(y), dtype=np.int8),
        num_classes=2,
    )


ROUNDS = {"full": full_boost_round, "unimodal": unimodal_restricted_boost_round}


def boosted_scores(ds: PairedDataset, restriction: str, max_depth: int, n_stages: int) -> np.ndarray:
    """The signed stage sums ``sum(alpha * h)`` that ``boost`` fits on ``ds`` with greedy ``restriction`` trees."""
    y, sides = ds.labels, presort(ds.text, ds.visual, restriction)
    step = ROUNDS[restriction]
    return boost(np.where(y == 1, 1.0, -1.0), lambda w: step(w, sides, y, max_depth), n_stages)[1]


class TestTree:
    def test_memorizes_any_truth_table(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            table = rng.integers(0, 2, size=(8, 8))
            if len(np.unique(table)) < 2:
                continue
            X_t, X_v, y = cells_of(table)
            X = np.hstack([X_t, X_v])
            tree = fit_tree(X, y, np.full(64, 1 / 64), max_depth=15)
            np.testing.assert_array_equal(tree.predict(X), np.where(y == 1, 1.0, -1.0))

    def test_splits_xor_despite_zero_gain(self):
        """Any single split of XOR has zero impurity gain; the fit must still descend."""
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        tree = fit_tree(X, y, np.full(4, 0.25), max_depth=15)
        np.testing.assert_array_equal(tree.predict(X), [-1.0, 1.0, 1.0, -1.0])

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((60, 4))
        y = (X[:, 0] > 0).astype(np.int64)
        w = rng.uniform(0.5, 1.5, 60)
        a = fit_tree(X, y, w, 5)
        b = fit_tree(X, y, w, 5)
        assert a.feature.tobytes() == b.feature.tobytes()
        assert a.threshold.tobytes() == b.threshold.tobytes()

    def test_depth_zero_is_majority_vote(self):
        X = np.zeros((5, 2))
        y = np.array([1, 1, 1, 0, 0])
        tree = fit_tree(X, y, np.ones(5), max_depth=0)
        np.testing.assert_array_equal(tree.predict(X), 1.0)

    def test_complete_tree_fast_path_matches_greedy(self):
        """The lab's tree-free table boosting gives the greedy trees' AUC, bit for bit."""
        cfg = AdaBoostConfig()
        for n, samples in ((1, 60), (2, 12), (3, 3)):
            for i in range(samples):
                table = sample_table(n, np.random.SeedSequence([2, n, i]), require_nonconstant=True)
                ds = cell_dataset(table.table)
                for restriction in ROUNDS:
                    greedy = auc_binary(boosted_scores(ds, restriction, cfg.max_depth, cfg.n_stages), ds.labels)
                    got = additive_fit_auc(table, f"adaboost_{restriction}")
                    assert got == greedy, (n, i, restriction)

    def test_roundtrip(self):
        X = np.random.default_rng(3).standard_normal((30, 3))
        y = (X[:, 1] > 0).astype(np.int64)
        tree = fit_tree(X, y, np.ones(30), 4)
        clone = DecisionTree.from_json_dict(tree.to_json_dict())
        np.testing.assert_array_equal(clone.predict(X), tree.predict(X))


# -- references: the per-node, per-feature tree fit that the presorted one replaced ------------------


def reference_best_split(X, wp, wn, idx):
    """The best split, one feature at a time, each node's column argsorted afresh."""
    total_p, total_n = wp[idx].sum(), wn[idx].sum()
    total = total_p + total_n
    parent_gini = total - (total_p * total_p + total_n * total_n) / total
    best_gain, best = -1.0, None
    for f in range(X.shape[1]):
        vals = X[idx, f]
        order = np.argsort(vals, kind="stable")
        v_sorted = vals[order]
        distinct = v_sorted[1:] != v_sorted[:-1]
        if not distinct.any():
            continue
        cut = np.nonzero(distinct)[0]
        cp = np.cumsum(wp[idx][order])[cut]
        cn = np.cumsum(wn[idx][order])[cut]
        left_tot, right_p, right_n = cp + cn, total_p - cp, total_n - cn
        right_tot = total - left_tot
        with np.errstate(divide="ignore", invalid="ignore"):
            left_imp = np.where(left_tot > 0.0, (cp * cp + cn * cn) / left_tot, 0.0)
            right_imp = np.where(right_tot > 0.0, (right_p * right_p + right_n * right_n) / right_tot, 0.0)
        gains = parent_gini - (left_tot - left_imp + right_tot - right_imp)
        k = int(np.argmax(gains))
        if gains[k] > best_gain:
            best_gain = float(gains[k])
            best = (f, float(0.5 * (v_sorted[cut[k]] + v_sorted[cut[k] + 1])))
    return best


def reference_fit_tree(X, y, w, max_depth) -> dict:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    wp, wn = np.where(y == 1, w, 0.0), np.where(y == 1, 0.0, w)
    nodes = []

    def build(idx, depth):
        node = len(nodes)
        nodes.append([-1, 0.0, -1, -1, 0.0])
        p, q = wp[idx].sum(), wn[idx].sum()
        split = None if depth >= max_depth or p == 0.0 or q == 0.0 else reference_best_split(X, wp, wn, idx)
        if split is None:
            nodes[node][4] = 1.0 if p > q else -1.0
            return node
        f, thr = split
        mask = X[idx, f] <= thr
        left, right = build(idx[mask], depth + 1), build(idx[~mask], depth + 1)
        nodes[node][:4] = f, thr, left, right
        return node

    build(np.arange(X.shape[0]), 0)
    return DecisionTree(*(np.asarray(c, dtype=t) for c, t in zip(zip(*nodes), (int, float, int, int, float))))


def reference_predict(tree, X):
    """The node-by-node walk that ``DecisionTree.predict`` replaced."""
    X = np.atleast_2d(X)
    out = np.empty(X.shape[0])
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if tree.feature[node] < 0:
            out[idx] = tree.value[node]
            continue
        go_left = X[idx, tree.feature[node]] <= tree.threshold[node]
        stack += [(tree.left[node], idx[go_left]), (tree.right[node], idx[~go_left])]
    return out


def reference_candidate(X, side, y, w, max_depth):
    """A round's tree with identical rows merged afresh (``np.unique``) and its ``predict``."""
    uniq, inverse = np.unique(X, axis=0, return_inverse=True)
    if uniq.shape[0] == X.shape[0]:
        tree = reference_fit_tree(X, y, w, max_depth)
        return reference_predict(tree, X), (tree, side)
    pos = np.bincount(inverse, weights=np.where(y == 1, w, 0.0))
    neg = np.bincount(inverse, weights=np.where(y == 1, 0.0, w))
    pseudo_y = np.repeat([1, 0], len(uniq))
    tree = reference_fit_tree(np.vstack([uniq, uniq]), pseudo_y, np.concatenate([pos, neg]), max_depth)
    return reference_predict(tree, uniq)[inverse], (tree, side)


def reference_adaboost(ds: PairedDataset, cfg: AdaBoostConfig) -> AdaBoostModel:
    y = ds.labels
    sides = {"text": ds.text, "visual": ds.visual}
    if cfg.restriction == "full":
        sides = {"full": np.hstack([ds.text, ds.visual])}
    stages, _, rounds_run, stop = boost(
        np.where(y == 1, 1.0, -1.0),
        lambda w: [reference_candidate(X, side, y, w, cfg.max_depth) for side, X in sides.items()],
        cfg.n_stages,
    )
    return AdaBoostModel(tuple((tree, a, side) for (tree, side), a in stages), cfg.restriction, ds.d1, ds.d2,
                         rounds_run, stop, {**dataclasses.asdict(cfg), "kind": "adaboost"})


def tree_bytes(tree: DecisionTree) -> bytes:
    return b"".join(array.tobytes() for array in vars(tree).values())


# columns with few distinct values (ties), a constant column, a repeated block of rows
# (pseudo-samples) and weights of which some are exactly 0
TABLES = st.tuples(
    st.integers(1, 40), st.integers(1, 5), st.sampled_from([1, 2, 3, 50]), st.integers(0, 6), st.integers(0, 2**32 - 1)
)


def tie_heavy_table(rows, features, levels, depth, seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, (rows, features)).astype(np.float64) * 0.5
    if features > 1:
        X[:, rng.integers(features)] = 1.0
    X = np.vstack([X, X[: rows // 2]])
    y = rng.integers(0, 2, len(X))
    w = rng.random(len(X)) * (rng.random(len(X)) < 0.7)
    return X, y, w / max(w.sum(), 1e-300), depth


class TestPresortedTrees:
    """The presorted one-pass tree fit gives the per-feature loop's splits, trees and predictions, bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(TABLES)
    def test_splits_and_trees_equal_the_per_feature_loop(self, spec):
        X, y, w, depth = tie_heavy_table(*spec)
        tree = fit_tree(X, y, w, depth)
        reference = reference_fit_tree(X, y, w, depth)
        assert tree_bytes(tree) == tree_bytes(reference)
        # the rows, and rows on the midpoint thresholds themselves
        for rows in (X, X + 0.25):
            assert tree.predict(rows).tobytes() == reference_predict(reference, rows).tobytes()
        # the pseudo-sample path: one presort, the candidate's tree and its predictions on the rows
        h, (merged, _) = _tree_candidate(presort(X, X[:, :0], "full"), "full", y, w, depth)
        h_ref, (merged_ref, _) = reference_candidate(X, "full", y, w, depth)
        assert tree_bytes(merged) == tree_bytes(merged_ref)
        assert h.tobytes() == h_ref.tobytes()

    @pytest.mark.parametrize("seed", [38, 410, 478, 633])
    def test_tied_rows_keep_their_order_in_every_node(self, seed):
        """Weights from 1e-8 to 1 make a cumulative sum's bits depend on the order of tied rows: on
        these tables an unstable column sort (quicksort) grows another tree than the reference."""
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 3, (60, 4)).astype(np.float64)
        y, w = rng.integers(0, 2, 60), 10.0 ** rng.integers(-8, 1, 60)
        assert tree_bytes(fit_tree(X, y, w, 4)) == tree_bytes(reference_fit_tree(X, y, w, 4))

    @pytest.mark.parametrize("restriction", ["full", "unimodal"])
    @pytest.mark.parametrize("kind", ["continuous", "tied"])
    def test_model_files_equal_the_per_feature_loop(self, restriction, kind):
        rng = np.random.default_rng(9)
        n = 150
        if kind == "continuous":
            T, V = rng.standard_normal((n, 5)), rng.standard_normal((n, 4))
        else:
            T, V = rng.integers(0, 3, (n, 3)).astype(np.float64), rng.integers(0, 2, (n, 2)).astype(np.float64)
        y = (T[:, 0] * V[:, 0] + 0.5 * rng.standard_normal(n) > 0).astype(np.int64)
        ds = PairedDataset(T, V, y, np.zeros(n, dtype=np.int8), num_classes=2)
        for depth in (1, 3, 15):
            cfg = AdaBoostConfig(restriction=restriction, max_depth=depth, n_stages=25)
            got, expected = train_adaboost(ds, cfg).to_json_dict(), reference_adaboost(ds, cfg).to_json_dict()
            assert json.dumps(got) == json.dumps(expected), depth


def fixed_candidates(*hs):
    """A ``boost`` candidate function offering the same predictions every round, tagged by position."""
    return lambda weights: [(np.asarray(h, dtype=np.float64), k) for k, h in enumerate(hs)]


class TestBoost:
    y_sign = np.array([1.0, 1.0, -1.0, -1.0])

    def test_chance_level_best_candidate_stalls_in_round_one(self):
        stages, scores, rounds_run, stop = boost(self.y_sign, fixed_candidates([1, -1, 1, -1]), 10)
        assert (stop, rounds_run, stages) == ("no_weak_learner", 1, [])
        np.testing.assert_array_equal(scores, 0.0)

    def test_perfect_candidate_fits_in_round_one(self):
        stages, scores, rounds_run, stop = boost(self.y_sign, fixed_candidates([1, 1, 1, 1], self.y_sign), 10)
        assert (stop, rounds_run) == ("perfect_fit", 1)
        assert [tag for tag, _ in stages] == [1]
        np.testing.assert_array_equal(np.sign(scores), self.y_sign)

    def test_runs_to_the_stage_budget_otherwise(self):
        # each candidate errs on a different positive sample, so no weighted vote fits both
        hs = ([-1, 1, -1, -1], [1, -1, -1, -1])
        stages, _, rounds_run, stop = boost(self.y_sign, fixed_candidates(*hs), 6)
        assert (stop, rounds_run) == ("stage_budget", 6)
        assert [tag for tag, _ in stages] == [0, 1, 0, 1, 0, 1]
        assert all(type(alpha) is float and alpha > 0 for _, alpha in stages)

    def test_ties_go_to_the_first_candidate(self):
        stages, _, _, _ = boost(self.y_sign, fixed_candidates([1, 1, -1, 1], [1, 1, 1, -1]), 1)
        assert [tag for tag, _ in stages] == [0]


class TestBoostBatch:
    def test_each_sample_boosts_as_it_would_alone(self):
        """Scores, stages, rounds and stop reasons equal one-sample runs bit for bit."""
        rng = np.random.default_rng(8)
        hs = np.where(rng.random((4, 6)) < 0.5, 1.0, -1.0)
        y_sign = np.where(rng.random((300, 6)) < 0.5, 1.0, -1.0)

        def candidates(weights, _rows):
            return [(np.broadcast_to(h, weights.shape), [k] * len(weights)) for k, h in enumerate(hs)]

        stages, scores, rounds_run, stops = boost_batch(y_sign, candidates, 8)
        alone = [boost(y, fixed_candidates(*hs), 8) for y in y_sign]
        assert stages == [a[0] for a in alone]
        assert scores.tobytes() == np.stack([a[1] for a in alone]).tobytes()
        assert rounds_run == [a[2] for a in alone]
        assert stops == [a[3] for a in alone]
        # samples leave the batch at different rounds, for each of the three reasons
        by_reason = {}
        for stop, rounds in zip(stops, rounds_run):
            by_reason.setdefault(stop, set()).add(rounds)
        assert set(by_reason) == {"no_weak_learner", "perfect_fit", "stage_budget"}
        assert len(by_reason["no_weak_learner"]) > 1 and len(by_reason["perfect_fit"]) > 1

    def test_a_sample_worse_than_chance_stops_with_the_scores_it_had(self):
        hs = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, 1.0, 1.0, -1.0]])
        # every candidate errs on 3 or 4 of the first sample's cells; the others go on
        y_sign = np.array([[-1.0, -1.0, 1.0, 1.0], [1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])

        def candidates(weights, _rows):
            return [(np.broadcast_to(h, weights.shape), None) for h in hs]

        _, scores, rounds_run, stops = boost_batch(y_sign, candidates, 5)
        alone = [boost(y, fixed_candidates(*hs), 5) for y in y_sign]
        assert (stops[0], rounds_run[0]) == ("no_weak_learner", 1)
        assert scores.tobytes() == np.stack([a[1] for a in alone]).tobytes()
        assert rounds_run == [a[2] for a in alone] and stops == [a[3] for a in alone]
        np.testing.assert_array_equal(scores[0], 0.0)

    def test_untagged_candidates_record_no_stages(self):
        y_sign = np.array([[1.0, -1.0], [1.0, 1.0]])
        stages, scores, _, stops = boost_batch(y_sign, lambda weights, rows: [(y_sign[rows], None)], 3)
        assert stages == [[], []]
        assert stops == ["perfect_fit", "perfect_fit"]
        np.testing.assert_array_equal(np.sign(scores), y_sign)

    def test_masked_row_sums_have_the_bits_of_one_row_sums(self):
        """Every selected count from 0 to 256: numpy's sequential, unrolled and pairwise regimes."""
        rng = np.random.default_rng(5)
        counts = np.concatenate([np.arange(257), rng.integers(0, 257, 100)])
        values = rng.random((counts.size, 256)) * 10.0 ** rng.integers(-6, 7, (counts.size, 256))
        mask = np.zeros(values.shape, dtype=bool)
        for row, count in enumerate(counts):
            mask[row, rng.choice(256, count, replace=False)] = True
        expected = np.array([row[keep].sum() for row, keep in zip(values, mask)])
        assert masked_row_sums(values, mask).tobytes() == expected.tobytes()
        # a plain left-to-right sum differs, so the check has teeth
        sequential = [functools.reduce(operator.add, row[keep].tolist(), 0.0) for row, keep in zip(values, mask)]
        assert np.any(np.array(sequential) != expected)


class TestBoostRounds:
    def test_constant_labels_rejected_at_entry(self):
        ds = PairedDataset(np.zeros((4, 1)), np.zeros((4, 1)), np.ones(4, dtype=int), np.zeros(4), num_classes=2)
        with pytest.raises(InputError, match="constant labels"):
            train_adaboost(ds)

    def test_text_only_signal_selects_text_side(self):
        """When labels depend only on t, the better weak learner is always text-side."""
        rng = np.random.default_rng(4)
        X_t = rng.integers(0, 2, size=(64, 3)).astype(np.float64)
        X_v = rng.integers(0, 2, size=(64, 3)).astype(np.float64)
        y = X_t[:, 0].astype(np.int64)
        ds = PairedDataset(X_t, X_v, y, np.zeros(64), num_classes=2)
        model = train_adaboost(ds, AdaBoostConfig(restriction="unimodal", n_stages=10))
        assert model.stages
        assert all(side == "text" for _, _, side in model.stages)

    def test_xor_table_stalls_unimodal_boosting(self):
        model = train_adaboost(cell_dataset(np.array([[0, 1], [1, 0]])), AdaBoostConfig(restriction="unimodal"))
        assert (model.stop_reason, model.rounds_run) == ("no_weak_learner", 1)
        assert not model.stages

    def test_full_round_fits_xor_immediately(self):
        ds = cell_dataset(np.array([[0, 1], [1, 0]]))
        model = train_adaboost(ds, AdaBoostConfig(restriction="full"))
        assert (model.stop_reason, model.rounds_run) == ("perfect_fit", 1)
        logits = model.logits_many(ds.text, ds.visual)
        np.testing.assert_array_equal(np.sign(logits[:, 1] - logits[:, 0]), np.where(ds.labels == 1, 1.0, -1.0))


class TestTrainAdaboost:
    def test_config_refuses_an_empty_ensemble(self):
        assert AdaBoostConfig(n_stages=1, max_depth=0).max_depth == 0
        for bad in ({"n_stages": 0}, {"n_stages": -3}, {"max_depth": -1}):
            with pytest.raises(InputError):
                AdaBoostConfig(**bad)

    def test_full_fit_is_perfect_on_random_tables(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            table = rng.integers(0, 2, size=(8, 8))
            if len(np.unique(table)) < 2:
                continue
            ds = cell_dataset(table)
            model = train_adaboost(ds, AdaBoostConfig(restriction="full"))
            assert model.stop_reason == "perfect_fit"
            logits = model.logits_many(ds.text, ds.visual)
            np.testing.assert_array_equal(np.sign(logits[:, 1] - logits[:, 0]), np.where(ds.labels == 1, 1.0, -1.0))

    def test_multiclass_rejected(self):
        ds = PairedDataset(
            text=np.zeros((3, 1)),
            visual=np.zeros((3, 1)),
            labels=np.array([0, 1, 2]),
            split=np.zeros(3, dtype=np.int8),
            num_classes=3,
        )
        with pytest.raises(InputError):
            train_adaboost(ds)

    def test_per_class_logits_match_boosted_scores(self):
        """The per-class logits differ by the signed stage sum that boosting fitted."""
        rng = np.random.default_rng(6)
        table = rng.integers(0, 2, size=(4, 4))
        ds = cell_dataset(table)
        model = train_adaboost(ds, AdaBoostConfig(restriction="unimodal", n_stages=20))
        scores = boosted_scores(ds, "unimodal", model.config["max_depth"], 20)
        logits = model.logits_many(ds.text, ds.visual)
        np.testing.assert_allclose(logits[:, 1] - logits[:, 0], scores, atol=1e-12)

    def test_serialization_roundtrip(self):
        paths.run("model_file", "adaboost_unimodal")

"""Metric conventions and the subsampled projection protocol."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emap.data import PairedDataset
from emap.exceptions import InputError, NumericError, UndefinedMetricError
from emap.grid import emap_predictions, project_scorer
from emap.metrics import (
    accuracy,
    agreement,
    auc_binary,
    auc_from_logits,
    auc_macro_ovr,
    auc_rows,
    _average_ranks,
    disagreement_advantage,
    evaluate,
    metric_from_logits,
    subsampled_emap_metric,
    weighted_f1,
)

import test_paths as paths


def auc_by_pair_enumeration(scores, labels):
    """O(N^2) AUC oracle: wins + half-ties over all positive/negative pairs."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum(1.0 for p in pos for q in neg if p > q)
    ties = sum(0.5 for p in pos for q in neg if p == q)
    return (wins + ties) / (len(pos) * len(neg))


class TestBinaryAuc:
    def test_perfect_ranking(self):
        assert auc_binary([0.1, 0.9], [0, 1]) == 1.0

    def test_all_tied_scores(self):
        assert auc_binary([0.5, 0.5], [0, 1]) == 0.5

    def test_one_win_one_loss(self):
        # positives score 1 and 3, negative scores 2: one winning pair, one losing
        assert auc_binary([1.0, 2.0, 3.0], [1, 0, 1]) == 0.5

    def test_matches_pair_enumeration_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(4, 40))
            scores = rng.integers(0, 6, n).astype(float)  # heavy ties
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                continue
            np.testing.assert_allclose(
                auc_binary(scores, labels), auc_by_pair_enumeration(scores, labels), atol=1e-12
            )

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            auc_binary([0.2, 0.4], [1, 1])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 5000), scale=st.floats(0.1, 50.0), shift=st.floats(-20.0, 20.0))
    def test_invariant_under_strictly_monotone_transform(self, seed, scale, shift):
        rng = np.random.default_rng(seed)
        scores = rng.standard_normal(25)
        labels = np.array([0, 1] * 12 + [1])
        base = auc_binary(scores, labels)
        assert auc_binary(scale * scores + shift, labels) == pytest.approx(base, abs=1e-12)
        assert auc_binary(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)


def score_rows(dtype, max_cols: int, elements):
    """Hypothesis strategy: an array of 1..4 rows of 1..max_cols scores each."""
    return arrays(dtype, st.tuples(st.integers(1, 4), st.integers(1, max_cols)), elements=elements)


class TestAverageRanks:
    """The numpy ranks must equal scipy's row-wise average ranks bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(score_rows(np.int8, 60, st.integers(-3, 3)))
    def test_heavily_tied_integers_match_scipy(self, values):
        from scipy.stats import rankdata

        scores = values.astype(np.float64)
        assert _average_ranks(scores).tobytes() == rankdata(scores, method="average", axis=1).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(score_rows(np.float64, 40, st.floats(allow_nan=False, width=16)), st.data())
    def test_any_nan_gives_all_nan_like_scipy(self, scores, data):
        from scipy.stats import rankdata

        blank = np.array(data.draw(st.lists(st.booleans(), min_size=len(scores), max_size=len(scores))))
        for r in np.flatnonzero(blank):
            scores[r, data.draw(st.integers(0, scores.shape[1] - 1))] = np.nan
        ours = _average_ranks(scores)
        assert np.isnan(ours[blank]).all()
        assert not np.isnan(ours[~blank]).any()
        assert ours.tobytes() == rankdata(scores, method="average", axis=1).tobytes()


class TestAucRows:
    def test_each_row_matches_the_scipy_rank_sum_bit_for_bit(self):
        """Tied and NaN rows, ranked side by side, each get the one-row rank-sum AUC."""
        from scipy.stats import rankdata

        rng = np.random.default_rng(5)
        for _ in range(300):
            n_rows, n = int(rng.integers(1, 6)), int(rng.integers(2, 30))
            scores = rng.integers(0, 5, (n_rows, n)).astype(np.float64)
            scores[rng.random((n_rows, n)) < 0.02] = np.nan
            labels = rng.integers(0, 2, (n_rows, n))
            labels[:, :2] = (0, 1)
            expected = []
            for row, row_labels in zip(scores, labels):
                pos = row_labels == 1
                n_pos, n_neg = int(pos.sum()), int((~pos).sum())
                ranks = rankdata(row, method="average")
                expected.append((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
            assert auc_rows(scores, labels).tobytes() == np.array(expected).tobytes()

    def test_unequal_shapes_rejected(self):
        with pytest.raises(InputError):
            auc_rows(np.zeros((2, 3)), np.array([[0, 1, 0]]))
        with pytest.raises(InputError):
            auc_rows(np.zeros(3), np.array([0, 1, 0]))
        with pytest.raises(InputError):
            auc_binary([0.1, 0.2, 0.3], [0, 1])

    def test_a_row_with_one_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            auc_rows(np.zeros((2, 3)), np.array([[0, 1, 0], [1, 1, 1]]))


class TestMulticlass:
    def test_macro_ovr_matches_manual_average(self):
        logits = np.array(
            [[3.0, 1.0, 0.0], [0.5, 2.0, 0.1], [0.2, 0.1, 2.5], [2.0, 0.3, 0.4]]
        )
        labels = np.array([0, 1, 2, 1])
        manual = np.mean(
            [
                auc_by_pair_enumeration(logits[:, c], (labels == c).astype(int))
                for c in range(3)
            ]
        )
        assert auc_macro_ovr(logits, labels) == pytest.approx(manual, abs=1e-12)

    def test_macro_ovr_rejects_a_class_with_no_items(self):
        logits = np.array([[3.0, 1.0, 0.0], [0.5, 2.0, 0.1], [0.2, 0.1, 2.5]])
        with pytest.raises(UndefinedMetricError):
            auc_macro_ovr(logits, np.array([0, 1, 1]))

    def test_auc_from_logits_dispatch(self):
        two = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 2.0]])
        labels = np.array([1, 0, 1])
        assert auc_from_logits(two, labels) == auc_binary(two[:, 1] - two[:, 0], labels)

    @pytest.mark.parametrize("columns, labels", [(1, [0, 1, 1, 0, 1]), (3, [0, 1, 2, 1, 2])], ids=["one", "three"])
    def test_auc_from_logits_of_one_and_three_columns(self, columns, labels):
        """One column is a binary margin; three columns average the one-vs-rest AUCs."""
        labels = np.array(labels)
        logits = np.array([[0.2, 1.0, -1.0], [1.5, 0.0, 0.3], [-0.4, 0.1, 2.0], [0.9, 0.8, 0.1], [0.1, 0.7, 0.6]])
        if columns == 1:
            manual = auc_by_pair_enumeration(logits[:, 0], labels)
        else:
            manual = np.mean([auc_by_pair_enumeration(logits[:, c], (labels == c).astype(int)) for c in range(3)])
        assert auc_from_logits(logits[:, :columns], labels) == pytest.approx(manual, abs=1e-12)

    def test_accuracy_breaks_ties_toward_lowest_class(self):
        logits = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert accuracy(logits, np.array([0, 0])) == 1.0
        assert accuracy(logits, np.array([1, 1])) == 0.0

    def test_weighted_f1_hand_example(self):
        # preds: [0, 0, 1, 1]; labels: [0, 1, 1, 1]
        logits = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        labels = np.array([0, 1, 1, 1])
        # class 0: P=1/2, R=1, F1=2/3, support 1; class 1: P=1, R=2/3, F1=4/5, support 3
        expected = (1 * (2 / 3) + 3 * (4 / 5)) / 4
        assert weighted_f1(logits, labels) == pytest.approx(expected, abs=1e-12)

    def test_accuracy_needs_multiple_channels(self):
        with pytest.raises(InputError):
            accuracy(np.zeros((3, 1)), np.zeros(3, dtype=int))


class TestAgreement:
    def test_identical_is_one(self):
        preds = np.random.default_rng(1).standard_normal((10, 3))
        assert agreement(preds, preds) == 1.0

    def test_top_two_swap_forces_total_disagreement(self):
        rng = np.random.default_rng(2)
        preds = rng.standard_normal((20, 4))
        swapped = preds.copy()
        for row in swapped:
            order = np.argsort(row)
            row[order[-1]], row[order[-2]] = row[order[-2]], row[order[-1]]
        assert agreement(preds, swapped) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((30, 3)), rng.standard_normal((30, 3))
        assert agreement(a, b) == agreement(b, a)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 5000), shift=st.floats(-50.0, 50.0, allow_nan=False))
    def test_argmax_invariance_under_per_item_constant_shift(self, seed, shift):
        """Adding the same constant to every class logit of an item changes nothing."""
        rng = np.random.default_rng(seed)
        preds = rng.standard_normal((15, 3))
        labels = rng.integers(0, 3, 15)
        row_shifts = shift * rng.standard_normal((15, 1))
        shifted = preds + row_shifts  # broadcast: uniform across classes per item
        assert agreement(preds, shifted) == 1.0
        assert accuracy(preds, labels) == accuracy(shifted, labels)

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            agreement(np.zeros((2, 2)), np.zeros((3, 2)))


class TestDisagreementAdvantage:
    def test_a_always_correct(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 1.0], [0.0, 1.0]])
        labels = np.array([0, 0])
        assert disagreement_advantage(a, b, labels) == 1.0

    def test_even_split(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        labels = np.array([0, 0])  # a right on item 0, b right on item 1
        assert disagreement_advantage(a, b, labels) == 0.5

    def test_absent_when_no_qualifying_instances(self):
        same = np.array([[1.0, 0.0]])
        assert disagreement_advantage(same, same, np.array([0])) is None


def linear_scorer(rng, d1, d2, C=2):
    w_t, w_v = rng.standard_normal((d1, C)), rng.standard_normal((d2, C))

    class Scorer:
        def logits_many(self, T, V):
            return T @ w_t + V @ w_v

        def __call__(self, t, v):
            return t @ w_t + v @ w_v

    return Scorer()


def toy_dataset(rng, n=24, d1=3, d2=2):
    return PairedDataset(
        text=rng.standard_normal((n, d1)),
        visual=rng.standard_normal((n, d2)),
        labels=rng.integers(0, 2, n),
        split=np.zeros(n, dtype=np.int8),
        num_classes=2,
    )


class TestSubsampleProtocol:
    def test_full_sample_is_bit_exact(self):
        rng = np.random.default_rng(4)
        ds = toy_dataset(rng)
        scorer = linear_scorer(rng, 3, 2)
        from emap.grid import build_grid

        grid = build_grid(scorer, ds.text, ds.visual)
        diag = grid.values[np.arange(ds.n), np.arange(ds.n), :]
        full_acc = metric_from_logits("accuracy", diag, ds.labels)
        result = subsampled_emap_metric(scorer, ds, k=1, m=ds.n, metric="accuracy", seed=9)
        assert result.direct_mean == full_acc
        assert result.direct_std == 0.0

    def test_additive_scorer_has_matching_emap_metrics(self):
        rng = np.random.default_rng(5)
        ds = toy_dataset(rng, n=30)
        scorer = linear_scorer(rng, 3, 2)
        result = subsampled_emap_metric(scorer, ds, k=5, m=12, metric="auc", seed=3)
        np.testing.assert_allclose(result.emap_values, result.direct_values, atol=1e-8)

    def test_bounds_checked(self):
        rng = np.random.default_rng(6)
        ds = toy_dataset(rng, n=10)
        scorer = linear_scorer(rng, 3, 2)
        with pytest.raises(InputError):
            subsampled_emap_metric(scorer, ds, k=0, m=5, metric="accuracy")
        with pytest.raises(InputError):
            subsampled_emap_metric(scorer, ds, k=2, m=11, metric="accuracy")

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        ds = toy_dataset(rng, n=20)
        scorer = linear_scorer(rng, 3, 2)
        a = subsampled_emap_metric(scorer, ds, k=4, m=8, metric="accuracy", seed=42)
        b = subsampled_emap_metric(scorer, ds, k=4, m=8, metric="accuracy", seed=42)
        assert a == b

    def test_full_projection_with_a_grid_is_sliced_not_rescored(self):
        rng = np.random.default_rng(8)
        ds = toy_dataset(rng, n=16)
        scorer = linear_scorer(rng, 3, 2)
        calls = []

        def counted(t, v):
            calls.append(1)
            return scorer(t, v)

        full = project_scorer(counted, ds.text, ds.visual)
        assert (len(calls), full.cells) == (16 * 16, 16 * 16)
        # each repetition scores its 6 pairs with logits_many, one call per pair
        sliced = subsampled_emap_metric(counted, ds, k=3, m=6, metric="accuracy", seed=2, full=full)
        assert (len(calls), sliced.grid_cells) == (16 * 16 + 3 * 6, 0)
        rescored = subsampled_emap_metric(counted, ds, k=3, m=6, metric="accuracy", seed=2)
        assert (len(calls), rescored.grid_cells) == (16 * 16 + 3 * 6 + 3 * (6 * 6 + 6), 3 * 6 * 6)
        assert sliced == rescored

    def test_unknown_metric(self):
        with pytest.raises(InputError):
            metric_from_logits("rmse", np.zeros((2, 2)), np.zeros(2, dtype=int))


class TestEvaluate:
    """``evaluate`` builds eval's report from the metrics and the subsample protocol above."""

    @pytest.mark.parametrize(
        "kwargs, keys, fields",
        [
            ({}, ["metrics", "notes"], {}),
            ({"with_emap": True}, ["metrics", "notes", "emap_metrics", "agreement_rate"],
             {"emap_path": "grid", "grid_cells": 20 * 20}),
            ({"subsample": (3, 8), "metric": "auc", "seed": 5}, ["metrics", "notes", "subsample"],
             {"emap_path": "grid", "grid_cells": 3 * 8 * 8}),
        ],
        ids=["plain", "with-emap", "subsample"],
    )
    def test_report_follows_the_flags(self, kwargs, keys, fields):
        rng = np.random.default_rng(10)
        ds = toy_dataset(rng, n=20)
        scorer = linear_scorer(rng, 3, 2)  # no logits_grid and no marginals: the grid path, cell by cell
        report, got = evaluate(scorer, ds, **kwargs)
        assert (list(report), got) == (keys, fields)
        logits = scorer.logits_many(ds.text, ds.visual)
        assert report["metrics"] == {name: metric_from_logits(name, logits, ds.labels)
                                     for name in ("accuracy", "auc", "weighted_f1")}
        if "emap_metrics" in report:  # an additive scorer is its own projection
            assert report["agreement_rate"] == 1.0
            assert report["emap_metrics"] == pytest.approx(report["metrics"], abs=1e-12)
        if "subsample" in report:
            result = subsampled_emap_metric(scorer, ds, 3, 8, "auc", seed=5)
            assert report["subsample"] == {key: getattr(result, key) for key in report["subsample"]}

    @pytest.mark.parametrize("kind", ["linear", "poly2", "feedforward"])
    def test_three_class_report(self, kind):
        """With K = 3 both metric blocks hold every metric, and ``auc`` is the macro one-vs-rest AUC."""
        scorer, ds = paths.scorer(kind, 3), paths.labelled(40, 3)
        report, _ = evaluate(scorer, ds, with_emap=True, subsample=(2, 12))
        logits = {"metrics": scorer.logits_many(ds.text, ds.visual),
                  "emap_metrics": emap_predictions(project_scorer(scorer, ds.text, ds.visual).decomposition)}
        for block, block_logits in logits.items():
            assert list(report[block]) == ["accuracy", "auc", "weighted_f1"], block
            assert report[block]["auc"] == auc_macro_ovr(block_logits, ds.labels), block
        assert report["subsample"]["k"] == 2 and report["subsample"]["m"] == 12
        if kind == "linear":  # an additive scorer is its own projection
            assert report["agreement_rate"] == 1.0

    @pytest.mark.parametrize("with_emap", [False, True], ids=["plain", "with-emap"])
    @pytest.mark.parametrize("labels, num_classes", [([1] + [0] * 19, 2), ([0, 1] * 10, 3)],
                             ids=["one-positive", "a-class-never-drawn"])
    def test_auc_undefined_on_a_draw_is_refused_before_any_scoring(self, with_emap, labels, num_classes):
        rng = np.random.default_rng(12)
        ds = PairedDataset(text=rng.standard_normal((20, 3)), visual=rng.standard_normal((20, 2)),
                           labels=np.array(labels), split=np.zeros(20, dtype=np.int8), num_classes=num_classes)

        class Unscorable:
            def logits_many(self, T, V):
                raise AssertionError("scored the pairs")

            def logits_grid(self, T, V):
                raise AssertionError("scored a grid")

            def marginals(self, T, V):
                raise AssertionError("asked for marginals")

        with pytest.raises(UndefinedMetricError, match="AUC needs both classes present"):
            evaluate(Unscorable(), ds, with_emap=with_emap, subsample=(4, 5), metric="auc", seed=3)
        with pytest.raises(UndefinedMetricError, match="AUC needs both classes present"):
            subsampled_emap_metric(Unscorable(), ds, 4, 5, "auc", seed=3)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_scores_are_a_numeric_error(self, value):
        rng = np.random.default_rng(11)
        ds = toy_dataset(rng, n=6)

        def scorer(t, v):
            return np.array([0.0, value])

        with pytest.raises(NumericError, match="not all finite"):
            evaluate(scorer, ds, with_emap=True)

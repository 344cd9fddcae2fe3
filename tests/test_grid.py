"""Score grid construction and additive projection."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emap import grid as grid_module
from emap.exceptions import InputError, NumericError
from emap.grid import (
    AdditiveDecomposition,
    ScoreGrid,
    as_scorer,
    build_grid,
    emap_decompose,
    emap_predictions,
    project_scorer,
    projection_loss,
)
from emap.metrics import subsampled_emap_metric

import test_paths as paths

# 3x3 single-logit worked example with hand-checkable means
GOLDEN = np.array([[-1.3, 0.3, -0.2], [0.8, 3.0, 1.1], [1.1, -0.1, 0.7]])


def golden_grid() -> ScoreGrid:
    return ScoreGrid(values=GOLDEN[:, :, np.newaxis])


def random_grid(rng, n_t=None, n_v=None, d=None) -> ScoreGrid:
    n_t = n_t or int(rng.integers(1, 9))
    n_v = n_v or n_t
    d = d or int(rng.integers(1, 4))
    return ScoreGrid(values=rng.standard_normal((n_t, n_v, d)) * 3.0)


class TestBuildGrid:
    def test_constant_scorer(self):
        grid = build_grid(lambda t, v: np.array([1.0]), [[0.0], [1.0]], [[2.0], [3.0]])
        assert grid.values.shape == (2, 2, 1)
        np.testing.assert_array_equal(grid.values, 1.0)

    def test_dot_product_scorer(self):
        grid = build_grid(lambda t, v: np.array([t @ v]), [[1.0], [2.0]], [[3.0], [4.0]])
        np.testing.assert_allclose(grid.values[:, :, 0], [[3.0, 4.0], [6.0, 8.0]])

    def test_batched_scorer_matches_per_cell_loop(self):
        paths.run("build_grid")

    def test_grid_rows_equal_the_old_row_path(self):
        """Each ``logits_grid`` row is one text item tiled through ``logits_many``."""
        paths.run("grid_rows")

    def test_changing_output_length_rejected(self):
        with pytest.raises(InputError, match=r"i=1, j=0"):
            build_grid(lambda t, v: np.zeros(1 + int(t[0])), [[0.0], [1.0]], [[2.0], [3.0]])

    def test_grid_is_stored_in_c_order(self):
        """A transposed-layout grid decomposes to the same bytes as its C-order copy."""
        values = np.random.default_rng(2).standard_normal((2, 7, 6)).transpose(1, 2, 0)
        grid = ScoreGrid(values=values)
        assert all(plane.flags.c_contiguous for plane in grid.planes)
        again = emap_decompose(ScoreGrid(values=values.copy(order="C")))
        assert emap_decompose(grid).tau.tobytes() == again.tau.tobytes()

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            build_grid(lambda t, v: np.array([0.0]), [[1.0]], [[1.0], [2.0]])

    def test_nonfinite_output_names_the_cell(self):
        def scorer(t, v):
            if t[0] == 1.0 and v[0] == 3.0:
                return np.array([np.nan])
            return np.array([0.0])

        with pytest.raises(NumericError, match=r"i=1.*j=1"):
            build_grid(scorer, [[0.0], [1.0]], [[2.0], [3.0]])


class TestLayout:
    def test_every_layout_decomposes_to_the_same_bytes(self):
        """C order, Fortran order, a transposed view and channel-major planes give one decomposition."""
        values = np.random.default_rng(31).standard_normal((9, 11, 3)) * 3.0
        layouts = {
            "C": np.ascontiguousarray(values),
            "Fortran": np.asfortranarray(values),
            "transposed view": np.ascontiguousarray(values.transpose(1, 0, 2)).transpose(1, 0, 2),
            "channel-major": np.ascontiguousarray(values.transpose(2, 0, 1)).transpose(1, 2, 0),
        }
        ref = emap_decompose(ScoreGrid(values=layouts["C"]))
        for name, laid_out in layouts.items():
            dec = emap_decompose(ScoreGrid(values=laid_out))
            for part in ("tau", "phi", "mu"):
                assert getattr(dec, part).tobytes() == getattr(ref, part).tobytes(), (name, part)
        mu = values.mean(axis=(0, 1))
        np.testing.assert_allclose(ref.mu, mu, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ref.tau, values.mean(axis=1) - mu, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ref.phi, values.mean(axis=0) - mu, rtol=0, atol=1e-12)

    def test_grid_already_channel_major_is_not_copied(self):
        rng = np.random.default_rng(32)
        planes = rng.standard_normal((2, 4, 5))
        single = rng.standard_normal((4, 5, 1))
        assert np.shares_memory(ScoreGrid(values=planes.transpose(1, 2, 0)).values, planes)
        assert np.shares_memory(ScoreGrid(values=single).values, single)

    @pytest.mark.parametrize("n_t, n_v", [(3, 3), (50, 50), (257, 300)])
    def test_single_channel_bytes_equal_the_plain_means(self, n_t, n_v):
        """With d = 1 the decomposition is numpy's means of the C-order grid, byte for byte."""
        values = np.random.default_rng(n_t).standard_normal((n_t, n_v, 1))
        dec = emap_decompose(ScoreGrid(values=values))
        mu = values.mean(axis=(0, 1))
        assert dec.mu.tobytes() == mu.tobytes()
        assert dec.tau.tobytes() == (values.mean(axis=1) - mu).tobytes()
        assert dec.phi.tobytes() == (values.mean(axis=0) - mu).tobytes()


class TestSubsampleSlices:
    """``Projection.take`` of the full grid stands in for projecting the subsample again."""

    def test_sliced_subgrids_equal_rescored_ones(self):
        paths.run("take")

    def test_full_size_subsample_reproduces_the_full_grid(self):
        paths.run("take_all")

    def test_grid_of_another_size_rejected(self):
        paired = paths.labelled(30, 2)
        for name in ("linear", "feedforward"):  # a projection without and with its grid
            model = paths.scorer(name, 2)
            other = project_scorer(model, paired.text[:10], paired.visual[:10])
            with pytest.raises(InputError, match="not the projection of 30 items"):
                subsampled_emap_metric(model, paired, 2, 5, "accuracy", full=other)

    def test_projection_without_a_grid_cannot_be_sliced(self):
        paired = paths.labelled(30, 2)
        proj = project_scorer(paths.scorer("poly2", 2), paired.text, paired.visual)
        assert proj.grid is None
        with pytest.raises(InputError, match="holds its grid"):
            proj.take(np.arange(3))


class TestProjectScorer:
    def test_direct_scores_are_the_paired_logits(self):
        # bit for bit: eval --with-emap reports the metrics of projection.direct in place of logits_many's
        paths.run("direct")

    def test_marginals_without_logits_many_refused(self):
        class MarginalsOnly:
            marginals = paths.scorer("linear", 2).marginals

        for read in (as_scorer, lambda scorer: project_scorer(scorer, *paths.items(5, 5))):
            with pytest.raises(InputError, match="logits_many"):
                read(MarginalsOnly())

    def test_what_is_neither_a_scorer_nor_callable_refused(self):
        for read in (as_scorer, lambda scorer: build_grid(scorer, *paths.items(5, 5))):
            with pytest.raises(InputError, match="not a scorer"):
                read(SimpleNamespace(logits_many=paths.scorer("linear", 2).logits_many))

    def test_grid_only_scorer_scores_pairs_from_one_cell_grids(self):
        """An object with ``logits_grid`` alone pairs rows through it and has no marginals."""
        model = paths.scorer("poly2", 3)
        protocol = as_scorer(SimpleNamespace(logits_grid=model.logits_grid))
        T, V = paths.items(9, 9)
        assert protocol.marginals(T, V) is None
        np.testing.assert_allclose(protocol.logits_many(T, V), model.logits_many(T, V), rtol=0, atol=paths.CELL_TOL)
        with pytest.raises(InputError, match="rows"):
            protocol.logits_many(*paths.items(3, 4))


class TestDecompose:
    def test_worked_example_means(self):
        dec = emap_decompose(golden_grid())
        assert dec.mu[0] == 0.6
        np.testing.assert_allclose(
            dec.tau[:, 0] + dec.mu, [-0.4, 49 / 30, 17 / 30], atol=1e-12
        )
        np.testing.assert_allclose(
            dec.phi[:, 0] + dec.mu, [0.2, 16 / 15, 8 / 15], atol=1e-12
        )

    def test_worked_example_diagonal(self):
        preds = emap_predictions(emap_decompose(golden_grid()))
        np.testing.assert_allclose(preds[:, 0], [-0.8, 2.1, 0.5], atol=1e-12)

    def test_zero_grid(self):
        dec = emap_decompose(ScoreGrid(values=np.zeros((4, 4, 2))))
        np.testing.assert_array_equal(dec.tau, 0.0)
        np.testing.assert_array_equal(dec.phi, 0.0)
        np.testing.assert_array_equal(dec.mu, 0.0)
        np.testing.assert_array_equal(emap_predictions(dec), 0.0)

    def test_additive_grid_is_fixed_point(self):
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal((8, 1, 1)), rng.standard_normal((1, 8, 1))
        grid = ScoreGrid(values=a + b)
        dec = emap_decompose(grid)
        assert np.max(np.abs(grid.values - dec.reconstruct())) < 1e-12

    def test_predictions_equal_reconstruction_diagonal(self):
        grid = random_grid(np.random.default_rng(2), n_t=5, n_v=5, d=3)
        dec = emap_decompose(grid)
        recon = dec.reconstruct()
        np.testing.assert_array_equal(
            emap_predictions(dec), recon[np.arange(5), np.arange(5), :]
        )

    def test_rectangular_decomposes_but_has_no_paired_predictions(self):
        grid = random_grid(np.random.default_rng(3), n_t=4, n_v=6, d=2)
        dec = emap_decompose(grid)
        assert dec.gauge_residual() < 1e-12
        with pytest.raises(InputError):
            emap_predictions(dec)


class TestProjectionLoss:
    def test_exact_fit_has_zero_loss(self):
        rng = np.random.default_rng(11)
        grid = ScoreGrid(values=rng.standard_normal((6, 1, 1)) + rng.standard_normal((1, 6, 1)))
        assert projection_loss(grid, emap_decompose(grid)) < 1e-12

    def test_worked_example_loss_beats_perturbations(self):
        grid = golden_grid()
        dec = emap_decompose(grid)
        base = projection_loss(grid, dec)
        assert base > 0.0
        rng = np.random.default_rng(5)
        for _ in range(1000):
            perturbed = AdditiveDecomposition(
                tau=dec.tau + rng.uniform(-1, 1, dec.tau.shape),
                phi=dec.phi + rng.uniform(-1, 1, dec.phi.shape),
                mu=dec.mu + rng.uniform(-1, 1, dec.mu.shape),
            )
            assert projection_loss(grid, perturbed) >= base - 1e-12

    def test_channel_losses_sum_to_total(self):
        rng = np.random.default_rng(6)
        one = rng.standard_normal((5, 5, 1))
        two = rng.standard_normal((5, 5, 1))
        stacked = ScoreGrid(values=np.concatenate([one, two], axis=2))
        dec = emap_decompose(stacked)
        per_channel = projection_loss(stacked, dec, per_channel=True)
        assert per_channel.shape == (2,)
        np.testing.assert_allclose(per_channel.sum(), projection_loss(stacked, dec), rtol=1e-12)
        first = projection_loss(ScoreGrid(values=one), emap_decompose(ScoreGrid(values=one)))
        np.testing.assert_allclose(per_channel[0], first, rtol=1e-12)

    @pytest.mark.parametrize("cells", [1, 7, 30, 1 << 18])
    def test_row_blocks_match_the_whole_grid_residual(self, monkeypatch, cells):
        """Any block size (one row, rows not dividing N_t, the whole grid) gives the same loss."""
        rng = np.random.default_rng(cells)
        grid = random_grid(rng, n_t=11, n_v=6, d=3)
        dec = AdditiveDecomposition(
            tau=rng.standard_normal((11, 3)), phi=rng.standard_normal((6, 3)), mu=rng.standard_normal(3)
        )
        resid = grid.values - dec.reconstruct()
        monkeypatch.setattr(grid_module, "LOSS_BLOCK_CELLS", cells)
        np.testing.assert_allclose(
            projection_loss(grid, dec, per_channel=True), np.sum(resid * resid, axis=(0, 1)), rtol=1e-13
        )

    def test_shape_mismatch_rejected(self):
        grid = golden_grid()
        dec = emap_decompose(random_grid(np.random.default_rng(0), n_t=4, n_v=4))
        with pytest.raises(InputError):
            projection_loss(grid, dec)


class TestInvariants:
    def test_idempotence(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            dec = emap_decompose(random_grid(rng))
            again = emap_decompose(ScoreGrid(values=dec.reconstruct()))
            assert np.max(np.abs(again.tau - dec.tau)) <= 1e-10
            assert np.max(np.abs(again.phi - dec.phi)) <= 1e-10
            assert np.max(np.abs(again.mu - dec.mu)) <= 1e-10

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(shift=st.floats(-100.0, 100.0, allow_nan=False), seed=st.integers(0, 10_000))
    def test_gauge_shift_does_not_change_predictions(self, shift, seed):
        """Moving a constant between tau and phi is invisible after recentering."""
        dec = emap_decompose(random_grid(np.random.default_rng(seed)))
        shifted = AdditiveDecomposition(
            tau=dec.tau + shift, phi=dec.phi - shift, mu=dec.mu
        ).canonicalized()
        scale = 1.0 + abs(shift)
        np.testing.assert_allclose(
            emap_predictions(shifted), emap_predictions(dec), atol=1e-9 * scale
        )

    def test_channel_decoupling(self):
        rng = np.random.default_rng(23)
        grid = random_grid(rng, n_t=7, n_v=7, d=4)
        dec = emap_decompose(grid)
        for c in range(4):
            single = emap_decompose(ScoreGrid(values=grid.values[:, :, c : c + 1]))
            np.testing.assert_allclose(single.tau[:, 0], dec.tau[:, c], atol=1e-12)
            np.testing.assert_allclose(single.phi[:, 0], dec.phi[:, c], atol=1e-12)
            np.testing.assert_allclose(single.mu[0], dec.mu[c], atol=1e-12)

    def test_mean_preservation(self):
        rng = np.random.default_rng(24)
        grid = random_grid(rng, n_t=6, n_v=9, d=2)
        recon = emap_decompose(grid).reconstruct()
        np.testing.assert_allclose(
            recon.mean(axis=(0, 1)), grid.values.mean(axis=(0, 1)), atol=1e-12
        )

    def test_identical_bytes_give_identical_decomposition_bytes(self):
        values = np.random.default_rng(25).standard_normal((10, 10, 2))
        a = emap_decompose(ScoreGrid(values=values.copy()))
        b = emap_decompose(ScoreGrid(values=values.copy()))
        assert a.tau.tobytes() == b.tau.tobytes()
        assert a.phi.tobytes() == b.phi.tobytes()
        assert a.mu.tobytes() == b.mu.tobytes()


class TestValidation:
    def test_grid_requires_finite_values(self):
        values = np.zeros((2, 2, 1))
        values[1, 0, 0] = np.inf
        with pytest.raises(NumericError, match=r"i=1.*j=0"):
            ScoreGrid(values=values)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_first_non_finite_value_is_named(self, bad):
        values = np.arange(24.0).reshape(2, 4, 3)
        values[1, 2, 1] = bad
        values[1, 3, 0] = np.nan
        with pytest.raises(NumericError, match=r"i=1, j=2, channel=1"):
            ScoreGrid(values=values)

    def test_grid_shape_checked(self):
        with pytest.raises(InputError):
            ScoreGrid(values=np.zeros((0, 2, 1)))
        with pytest.raises(InputError):
            ScoreGrid(values=np.zeros(4))

    def test_id_lengths_checked(self):
        with pytest.raises(InputError):
            ScoreGrid(values=np.zeros((2, 2, 1)), text_ids=("a",))

    def test_decomposition_requires_finite(self):
        with pytest.raises(NumericError):
            AdditiveDecomposition(tau=np.array([[np.nan]]), phi=np.array([[0.0]]), mu=np.array([0.0]))

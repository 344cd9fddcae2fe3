"""Independent stationarity/optimality verification of the projection."""

import tracemalloc

import numpy as np
import pytest

from emap import oracle
from emap.exceptions import InputError, NumericError
from emap.grid import AdditiveDecomposition, ScoreGrid, emap_decompose, emap_predictions, projection_loss
from emap.oracle import (
    HESSIAN_BLOCK_CELLS,
    _fd_derivatives,
    _hessian_matvec,
    _max_pred_diff,
    _pair_sum_identity,
    analytic_gradient,
    check_hessian,
    check_stationarity,
    hessian_matrix,
    nullspace_direction,
    solve_exact,
    verify_projection,
)

GOLDEN = np.array([[-1.3, 0.3, -0.2], [0.8, 3.0, 1.1], [1.1, -0.1, 0.7]])


def golden_grid():
    return ScoreGrid(values=GOLDEN[:, :, np.newaxis])


class TestSolveExact:
    @pytest.mark.parametrize("method", ["dense", "cg"])
    def test_worked_example_diagonal(self, method):
        dec = solve_exact(golden_grid(), method=method)
        np.testing.assert_allclose(
            emap_predictions(dec)[:, 0], [-0.8, 2.1, 0.5], atol=1e-10
        )

    def test_zero_grid(self):
        dec = solve_exact(ScoreGrid(values=np.zeros((3, 3, 2))))
        np.testing.assert_allclose(dec.tau, 0.0, atol=1e-14)
        np.testing.assert_allclose(dec.phi, 0.0, atol=1e-14)
        np.testing.assert_allclose(dec.mu, 0.0, atol=1e-14)

    def test_agrees_with_mean_algorithm_on_random_grids(self):
        """Summed predictions of all three routes must coincide."""
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(25):
            n, d = int(rng.integers(1, 21)), int(rng.integers(1, 6))
            grid = ScoreGrid(values=rng.standard_normal((n, n, d)) * 5.0)
            alg = emap_decompose(grid).reconstruct()
            dense = solve_exact(grid, method="dense").reconstruct()
            cg = solve_exact(grid, method="cg").reconstruct()
            worst = max(worst, np.max(np.abs(alg - dense)), np.max(np.abs(alg - cg)))
        assert worst <= 1e-8

    def test_rectangular_rejected(self):
        with pytest.raises(InputError):
            solve_exact(ScoreGrid(values=np.zeros((2, 3, 1))))

    @pytest.mark.parametrize("n", [65, 80])
    def test_cg_agrees_with_dense_and_means_above_the_dense_limit(self, n):
        grid = ScoreGrid(values=np.random.default_rng(n).standard_normal((n, n, 3)) * 4.0)
        cg = solve_exact(grid, method="cg").reconstruct()
        assert np.max(np.abs(cg - solve_exact(grid, method="dense").reconstruct())) <= 1e-10
        assert np.max(np.abs(cg - emap_decompose(grid).reconstruct())) <= 1e-10

    def test_auto_picks_dense_up_to_the_limit_and_cg_beyond(self, monkeypatch):
        calls = []
        real = oracle._solve_cg
        monkeypatch.setattr(oracle, "_solve_cg", lambda rhs, n: calls.append(n) or real(rhs, n))
        for n in (oracle.DENSE_LIMIT, oracle.DENSE_LIMIT + 1):
            solve_exact(ScoreGrid(values=np.ones((n, n, 1))))
        assert calls == [oracle.DENSE_LIMIT + 1]

    def test_structured_method_is_gone(self):
        with pytest.raises(InputError, match="unknown solve method 'structured'"):
            solve_exact(golden_grid(), method="structured")

    def test_cg_without_convergence_is_numeric_error(self, monkeypatch):
        monkeypatch.setattr(oracle, "CG_MAX_ITER", 1)
        grid = ScoreGrid(values=np.random.default_rng(8).standard_normal((70, 70, 2)))
        with pytest.raises(NumericError, match="did not converge"):
            solve_exact(grid, method="cg")

    def test_loss_match(self):
        rng = np.random.default_rng(9)
        grid = ScoreGrid(values=rng.standard_normal((12, 12, 3)))
        alg_loss = projection_loss(grid, emap_decompose(grid))
        oracle_loss = projection_loss(grid, solve_exact(grid))
        assert abs(oracle_loss - alg_loss) <= 1e-8 * (1.0 + alg_loss)


class TestStationarity:
    def test_gradient_vanishes_at_solution(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            grid = ScoreGrid(values=rng.standard_normal((n, n, 2)))
            report = check_stationarity(grid, emap_decompose(grid))
            assert report.grad_inf_norm <= 1e-8

    def test_gradient_linear_response_to_shift(self):
        """Shifting one tau entry by 1 moves its partial derivative by exactly n."""
        grid = golden_grid()
        dec = emap_decompose(grid)
        shifted = AdditiveDecomposition(
            tau=dec.tau + np.array([[1.0], [0.0], [0.0]]), phi=dec.phi, mu=dec.mu
        )
        g_tau, _ = analytic_gradient(grid, shifted)
        assert abs(g_tau[0, 0] - grid.n) <= 1e-10
        report = check_stationarity(grid, shifted)
        assert report.grad_inf_norm >= grid.n - 1e-10

    def test_finite_differences_confirm_analytic_gradient(self):
        rng = np.random.default_rng(2)
        grid = ScoreGrid(values=rng.standard_normal((6, 6, 2)))
        # probe at an arbitrary (non-optimal) decomposition
        dec = AdditiveDecomposition(
            tau=rng.standard_normal((6, 2)),
            phi=rng.standard_normal((6, 2)),
            mu=rng.standard_normal(2),
        )
        report = check_stationarity(grid, dec)
        assert report.fd_gap <= 1e-6

    def test_row_local_probes_match_full_loss_differences(self):
        """Each slice-only probe equals the central difference of the whole loss."""

        def full_half_loss(values, tau_sys, phi_sys):
            resid = values - tau_sys[:, np.newaxis, :] - phi_sys[np.newaxis, :, :]
            return 0.5 * float(np.sum(resid * resid))

        rng = np.random.default_rng(4)
        step = 1e-5
        for _ in range(5):
            n, d = int(rng.integers(2, 9)), int(rng.integers(1, 4))
            values = rng.standard_normal((n, n, d)) * 3.0
            tau_sys = rng.standard_normal((n, d))
            phi_sys = rng.standard_normal((n, d))
            probe = np.arange(2 * n * d)
            reference = np.empty(probe.size)
            for k in probe:
                t, p = tau_sys.copy(), phi_sys.copy()
                target, idx = (t, k) if k < t.size else (p, k - t.size)
                orig = target.flat[idx]
                target.flat[idx] = orig + step
                hi = full_half_loss(values, t, p)
                target.flat[idx] = orig - step
                lo = full_half_loss(values, t, p)
                reference[k] = (hi - lo) / (2.0 * step)
            local = _fd_derivatives(values, tau_sys, phi_sys, probe, step)
            np.testing.assert_allclose(local, reference, rtol=0.0, atol=1e-6)


class TestHessian:
    def test_nullspace_vector_is_exact(self):
        for n in (1, 2, 5, 10):
            H = hessian_matrix(n)
            r = nullspace_direction(n)
            assert np.max(np.abs(H @ r)) == 0.0
            assert float(r @ H @ r) == 0.0

    def test_all_ones_quadratic_form(self):
        # every one of the n^2 cross terms contributes (1 + 1)^2 = 4
        for n in (2, 5, 10):
            z = np.ones(2 * n)
            assert float(z @ hessian_matrix(n) @ z) == pytest.approx(4.0 * n * n, rel=1e-12)

    def test_identity_on_random_probes(self):
        report = check_hessian(3, samples=1000, seed=0)
        assert report.hessian_max_rel_err <= 1e-8
        assert report.hessian_min_quadform >= -1e-10
        assert report.nullspace_residual == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 10, 37, 64])
    def test_blocked_identity_is_bit_equal_to_dense(self, n):
        z = np.random.default_rng(n).standard_normal((23, 2 * n))
        pair_sums = z[:, :n, np.newaxis] + z[:, np.newaxis, n:]
        dense = np.sum(pair_sums * pair_sums, axis=(1, 2))
        assert np.array([_pair_sum_identity(probe, n) for probe in z]).tobytes() == dense.tobytes()

    @pytest.mark.parametrize("n", [1, 7, 64, 65, 300])
    def test_matvec_matches_dense_hessian(self, n):
        z = np.random.default_rng(n).standard_normal((5, 2 * n))
        np.testing.assert_allclose(_hessian_matvec(z, n), z @ hessian_matrix(n), rtol=1e-14, atol=1e-12)
        assert np.max(np.abs(_hessian_matvec(nullspace_direction(n), n))) == 0.0

    @pytest.mark.parametrize("n", [65, 97])
    def test_row_blocked_pair_sums_match_the_dense_identity(self, monkeypatch, n):
        z = np.random.default_rng(n).standard_normal((3, 2 * n))
        pair_sums = z[:, :n, np.newaxis] + z[:, np.newaxis, n:]
        dense = np.sum(pair_sums * pair_sums, axis=(1, 2))
        for cells in (n, 7 * n, 50 * n, HESSIAN_BLOCK_CELLS):  # 1, 7, 50 rows and all rows per block
            monkeypatch.setattr(oracle, "HESSIAN_BLOCK_CELLS", cells)
            blocked = np.array([_pair_sum_identity(probe, n) for probe in z])
            np.testing.assert_allclose(blocked, dense, rtol=1e-13)

    @pytest.mark.parametrize("n", [65, 300, 2000])
    def test_matrix_free_check_passes_above_the_dense_limit(self, n):
        report = check_hessian(n, samples=50, seed=n)
        assert report.hessian_max_rel_err <= 1e-8
        assert report.hessian_min_quadform >= -1e-10
        assert report.nullspace_residual == 0.0

    @pytest.mark.parametrize("n", [65, 300])
    def test_wrong_matvec_is_caught(self, monkeypatch, n):
        """A matvec with diagonal n - 1 in place of n must fail the check and verify."""
        monkeypatch.setattr(oracle, "_hessian_matvec", lambda z, n: _hessian_matvec(z, n) - z)
        assert check_hessian(n, samples=20).hessian_max_rel_err > 1e-8
        grid = ScoreGrid(values=np.random.default_rng(n).standard_normal((n, n, 2)))
        assert verify_projection(grid)[1] is False

    def test_check_hessian_stays_within_two_blocks(self):
        tracemalloc.start()
        try:
            check_hessian(2000, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * HESSIAN_BLOCK_CELLS * 8, peak

    def test_rank_is_2n_minus_1(self):
        for n in (2, 4, 7):
            assert np.linalg.matrix_rank(hessian_matrix(n)) == 2 * n - 1


class TestOptimality:
    def test_random_perturbations_never_win(self):
        rng = np.random.default_rng(3)
        grid = ScoreGrid(values=rng.standard_normal((8, 8, 2)) * 2.0)
        dec = emap_decompose(grid)
        base = projection_loss(grid, dec)
        for _ in range(1000):
            scale = rng.uniform(0.0, 1.0)
            perturbed = AdditiveDecomposition(
                tau=dec.tau + rng.uniform(-scale, scale, dec.tau.shape),
                phi=dec.phi + rng.uniform(-scale, scale, dec.phi.shape),
                mu=dec.mu + rng.uniform(-scale, scale, dec.mu.shape),
            )
            assert projection_loss(grid, perturbed) >= base - 1e-12

    def test_off_nullspace_perturbation_strictly_increases_loss(self):
        grid = golden_grid()
        dec = emap_decompose(grid)
        base = projection_loss(grid, dec)
        bumped = AdditiveDecomposition(
            tau=dec.tau + np.array([[0.1], [0.0], [0.0]]), phi=dec.phi, mu=dec.mu
        )
        assert projection_loss(grid, bumped) > base + 1e-6

    def test_pure_gauge_perturbation_keeps_loss(self):
        grid = golden_grid()
        dec = emap_decompose(grid)
        base = projection_loss(grid, dec)
        gauge = AdditiveDecomposition(tau=dec.tau + 0.7, phi=dec.phi - 0.7, mu=dec.mu)
        assert abs(projection_loss(grid, gauge) - base) <= 1e-10

    def test_max_pred_diff_equals_the_reconstructed_maximum(self):
        rng = np.random.default_rng(12)
        for scale in (1e-3, 1.0, 1e3):
            n, d = int(rng.integers(1, 40)), int(rng.integers(1, 4))
            grid = ScoreGrid(values=rng.standard_normal((n, n, d)) * scale)
            alg = emap_decompose(grid)
            others = [solve_exact(grid, method="cg")] + [
                AdditiveDecomposition(
                    tau=alg.tau + rng.standard_normal(alg.tau.shape) * scale * spread,
                    phi=alg.phi + rng.standard_normal(alg.phi.shape) * scale * spread,
                    mu=alg.mu + rng.standard_normal(alg.mu.shape) * scale * spread,
                )
                for spread in (1e-9, 1.0)
            ]
            bound = 1e-15 * (1.0 + float(np.max(np.abs(grid.values))))
            for other in others:
                reconstructed = float(np.max(np.abs(alg.reconstruct() - other.reconstruct())))
                assert abs(_max_pred_diff(alg, other) - reconstructed) <= bound

    def test_verify_projection_holds_no_grid_sized_temporary(self):
        grid = ScoreGrid(values=np.random.default_rng(13).standard_normal((2, 1000, 1000)).transpose(1, 2, 0))
        tracemalloc.start()
        try:
            _, passed = verify_projection(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert passed
        assert peak < grid.values.nbytes, peak

    def test_verify_projection_bundle(self):
        report, passed = verify_projection(golden_grid())
        assert passed
        assert report.max_pred_diff <= 1e-12
        payload = report.to_json_dict()
        assert set(payload) >= {"oracle_loss", "alg_loss", "max_pred_diff", "grad_inf_norm"}

"""Numerically confirm that the mean-based projection is the optimal fit.

Three independent routes to the same answer: the row/column-mean algorithm,
a dense least-squares solve of the stationarity system, and conjugate
gradients through the Hessian's O(n) matvec.  On top of that: the analytic
gradient vanishes at the solution, finite differences agree with the
analytic gradient, the Hessian quadratic form matches its pair-sum identity,
and random perturbations only ever increase the loss.
"""

import numpy as np

from emap.grid import AdditiveDecomposition, ScoreGrid, emap_decompose, projection_loss
from emap.oracle import check_hessian, check_stationarity, solve_exact, verify_projection

rng = np.random.default_rng(7)
grid = ScoreGrid(values=rng.standard_normal((15, 15, 3)) * 2.0)

alg = emap_decompose(grid)
dense = solve_exact(grid, method="dense")
cg = solve_exact(grid, method="cg")

print("max |summed-prediction difference| across routes:")
print("  means vs dense solve:        ", np.max(np.abs(alg.reconstruct() - dense.reconstruct())))
print("  means vs conjugate gradients:", np.max(np.abs(alg.reconstruct() - cg.reconstruct())))

stat = check_stationarity(grid, alg)
print("\ngradient infinity norm at the solution:", stat.grad_inf_norm)
print("analytic vs finite-difference gap:     ", stat.fd_gap)

hess = check_hessian(15, samples=500, seed=1)
print("\nHessian identity max relative error:", hess.hessian_max_rel_err)
print("min sampled quadratic form:         ", hess.hessian_min_quadform)
print("|H r| for the gauge direction r:    ", hess.nullspace_residual)

base = projection_loss(grid, alg)
wins = 0
for _ in range(2000):
    perturbed = AdditiveDecomposition(
        tau=alg.tau + rng.uniform(-0.5, 0.5, alg.tau.shape),
        phi=alg.phi + rng.uniform(-0.5, 0.5, alg.phi.shape),
        mu=alg.mu + rng.uniform(-0.5, 0.5, alg.mu.shape),
    )
    wins += projection_loss(grid, perturbed) < base - 1e-12
print(f"\nperturbations that beat the projection: {wins} / 2000")

report, passed = verify_projection(grid)
print("bundled verification passed:", passed)

"""Independent optimality verification for the additive projection.

The row/column-mean projection in :mod:`emap.grid` claims to minimize the
summed squared error over all cross-pairings.  This module re-derives the
answer from first principles and checks the claim numerically:

* ``solve_exact`` solves the stationarity system ``H x = rhs`` directly,
  per channel, where ``H = [[n*I, 1], [1, n*I]]`` couples the 2n unknowns
  (n per-text offsets, n per-visual offsets).  ``H`` has rank ``2n - 1``;
  its nullspace is spanned by ``r = (1, ..., 1, -1, ..., -1)``, the free
  constant that can be shifted between the two unimodal parts.
* ``check_stationarity`` evaluates the analytic gradient of the half
  squared-error objective at a candidate decomposition and cross-checks it
  against central finite differences.  Each probe is row-local: moving
  ``tau[i, c]`` changes only the cells ``(i, :, c)`` and moving
  ``phi[j, c]`` only ``(:, j, c)``, so the loss difference is taken over
  that one slice, O(N) per probe instead of O(N^2 d).  The rest of the loss
  cancels exactly, so this is the same central difference with less
  rounding, and it never consults the analytic gradient.
* ``check_hessian`` verifies the structural identity
  ``z' H z = sum_{i,j} (z_i + z_j)^2`` (hence positive semi-definiteness)
  and ``H r = 0`` on random probes.  The pair sums are built a few probes
  at a time, about ``HESSIAN_BLOCK_CELLS`` floats (and at least one probe)
  per block, not as one (samples, n, n) tensor.

Two solver routes are kept deliberately separate: a dense generic
least-squares solve (the "dumb" oracle, default up to n = 64) and a
closed-form solve exploiting the block structure, which never materializes
``H``.  Agreement of both with the row/column-mean algorithm is the
optimality evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .exceptions import InputError, NumericError
from .grid import AdditiveDecomposition, ScoreGrid, emap_decompose, projection_loss

__all__ = [
    "StationarityReport",
    "hessian_matrix",
    "nullspace_direction",
    "solve_exact",
    "check_stationarity",
    "check_hessian",
    "verify_projection",
]

DENSE_LIMIT = 64
HESSIAN_BLOCK_CELLS = 1 << 20  # pair-sum floats per block in check_hessian (8 MB)


@dataclass
class StationarityReport:
    """Numeric evidence that a decomposition is the optimal additive fit.

    Fields are ``None`` when the producing check does not compute them.
    ``max_pred_diff`` is the largest absolute difference between the summed
    predictions (tau + phi + mu over all cells) of the mean-based algorithm
    and of the independent linear-system solve.
    """

    oracle_loss: float | None = None
    alg_loss: float | None = None
    max_pred_diff: float | None = None
    grad_inf_norm: float | None = None
    fd_gap: float | None = None
    hessian_min_quadform: float | None = None
    hessian_max_rel_err: float | None = None
    nullspace_residual: float | None = None

    def to_json_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def hessian_matrix(n: int) -> np.ndarray:
    """Dense 2n x 2n Hessian of the half squared-error objective."""
    if n < 1:
        raise InputError("n must be >= 1")
    ones = np.ones((n, n))
    eye = n * np.eye(n)
    return np.block([[eye, ones], [ones, eye]])


def nullspace_direction(n: int) -> np.ndarray:
    """The gauge direction r = (1, ..., 1, -1, ..., -1) of length 2n."""
    return np.concatenate([np.ones(n), -np.ones(n)])


def solve_exact(grid: ScoreGrid, method: str = "auto") -> AdditiveDecomposition:
    """Solve the stationarity system for the optimal additive fit.

    ``method="dense"`` builds ``H`` explicitly and takes the minimum-norm
    least-squares solution (rank-deficient safe; the min-norm solution is
    orthogonal to the nullspace).  ``method="structured"`` uses the closed
    form implied by the block structure and never materializes ``H``.
    ``"auto"`` picks dense up to n = 64, structured beyond.
    """
    if not grid.is_square:
        raise InputError("the stationarity system is defined for square grids")
    n, d = grid.n, grid.d
    if method == "auto":
        method = "dense" if n <= DENSE_LIMIT else "structured"
    values = grid.values

    if method == "structured":
        # Stationarity forces sum(tau) + sum(phi) = n * grand_mean; splitting
        # the total evenly gives one particular solution in closed form.
        mu_hat = values.mean(axis=(0, 1))
        tau_sys = values.mean(axis=1) - mu_hat / 2.0
        phi_sys = values.mean(axis=0) - mu_hat / 2.0
        return AdditiveDecomposition(tau_sys, phi_sys, np.zeros(d)).canonicalized()

    if method != "dense":
        raise InputError(f"unknown solve method {method!r}")

    H = hessian_matrix(n)
    rhs = np.concatenate([values.sum(axis=1), values.sum(axis=0)], axis=0)  # (2n, d)
    solution, *_ = np.linalg.lstsq(H, rhs, rcond=None)
    residual = H @ solution - rhs
    scale = 1.0 + float(np.max(np.abs(rhs)))
    resid_norm = float(np.max(np.abs(residual)))
    if resid_norm > 1e-8 * scale:
        raise NumericError(
            f"linear system solve did not converge: residual inf-norm {resid_norm:.3e}"
        )
    return AdditiveDecomposition(solution[:n], solution[n:], np.zeros(d)).canonicalized()


def _half_loss_slice(cells: np.ndarray, own: float, others: np.ndarray) -> float:
    resid = cells - own - others
    return 0.5 * float(np.sum(resid * resid))


def _fd_derivatives(
    values: np.ndarray,
    tau_sys: np.ndarray,
    phi_sys: np.ndarray,
    probe: np.ndarray,
    step: float,
) -> np.ndarray:
    """Central-difference derivatives of the half loss at the flat indices ``probe``.

    Indices below ``tau_sys.size`` address ``tau_sys``, the rest ``phi_sys``
    (both row-major).  Each difference is evaluated on the one slice of the
    grid its parameter touches.
    """
    n_tau, d = tau_sys.size, values.shape[2]
    out = np.empty(len(probe))
    for k, flat in enumerate(probe):
        if flat < n_tau:
            i, c = divmod(int(flat), d)
            cells, own, others = values[i, :, c], tau_sys[i, c], phi_sys[:, c]
        else:
            j, c = divmod(int(flat) - n_tau, d)
            cells, own, others = values[:, j, c], phi_sys[j, c], tau_sys[:, c]
        hi = _half_loss_slice(cells, own + step, others)
        lo = _half_loss_slice(cells, own - step, others)
        out[k] = (hi - lo) / (2.0 * step)
    return out


def analytic_gradient(grid: ScoreGrid, dec: AdditiveDecomposition):
    """Gradient of the half squared-error loss in (tau, phi) system variables.

    The loss depends only on the sums tau[i] + phi[j] + mu, so mu is folded
    into the tau side; the gradient is invariant under that choice.
    Returns (g_tau, g_phi) with shapes (n_t, d) and (n_v, d):
    ``g_tau[i] = n_v * tau[i] + sum_j (phi[j] - f[i, j])`` and symmetrically.
    """
    values = grid.values
    n_t, n_v = grid.n_text, grid.n_visual
    tau_sys = dec.tau + dec.mu
    phi_sys = dec.phi
    g_tau = n_v * tau_sys + phi_sys.sum(axis=0) - values.sum(axis=1)
    g_phi = n_t * phi_sys + tau_sys.sum(axis=0) - values.sum(axis=0)
    return g_tau, g_phi


def check_stationarity(
    grid: ScoreGrid,
    dec: AdditiveDecomposition,
    fd_step: float = 1e-5,
    fd_max_params: int = 512,
    seed: int = 0,
) -> StationarityReport:
    """Evaluate first-order optimality of ``dec`` on ``grid``.

    Reports the infinity norm of the analytic gradient and the largest gap
    between analytic and central finite-difference derivatives.  All
    parameters are probed when there are at most ``fd_max_params``;
    otherwise a seeded random subset of that size.
    """
    if dec.tau.shape[0] != grid.n_text or dec.phi.shape[0] != grid.n_visual or dec.d != grid.d:
        raise InputError("decomposition shape does not match grid")
    g_tau, g_phi = analytic_gradient(grid, dec)
    grad = np.concatenate([g_tau.ravel(), g_phi.ravel()])
    grad_inf = float(np.max(np.abs(grad)))

    n_params = grad.size
    if n_params <= fd_max_params:
        probe = np.arange(n_params)
    else:
        probe = np.random.default_rng(seed).choice(n_params, size=fd_max_params, replace=False)
    fd = _fd_derivatives(grid.values, dec.tau + dec.mu, dec.phi, probe, fd_step)
    fd_gap = np.max(np.abs(fd - grad[probe]), initial=0.0)

    return StationarityReport(
        alg_loss=projection_loss(grid, dec),
        grad_inf_norm=grad_inf,
        fd_gap=float(fd_gap),
    )


def _pair_sum_identity(z: np.ndarray, n: int, block: int) -> np.ndarray:
    """``sum_{i < n <= j} (z_i + z_j)^2`` for each row of ``z``, ``block`` rows at a time.

    This is ``z' H z`` expanded by the block structure of ``H``.
    """
    identity = np.empty(z.shape[0])
    for start in range(0, z.shape[0], block):
        rows = z[start : start + block]
        pair_sums = rows[:, :n, np.newaxis] + rows[:, np.newaxis, n:]
        identity[start : start + block] = np.sum(pair_sums * pair_sums, axis=(1, 2))
    return identity


def check_hessian(n: int, samples: int = 1000, seed: int = 0) -> StationarityReport:
    """Verify the quadratic-form identity and nullspace of the dense Hessian.

    For random probes z, ``z' H z`` must equal the double sum of
    ``(z_i + z_j)^2`` over the text/visual index blocks (relative 1e-8), the
    smallest observed quadratic form must be >= -1e-10, and ``H r`` must be
    exactly zero.
    """
    if n < 1 or samples < 1:
        raise InputError("n and samples must be >= 1")
    H = hessian_matrix(n)
    r = nullspace_direction(n)
    nullspace_residual = float(np.max(np.abs(H @ r)))

    rng = np.random.default_rng(seed)
    z = rng.standard_normal((samples, 2 * n))
    quad = np.einsum("si,ij,sj->s", z, H, z)
    identity = _pair_sum_identity(z, n, max(1, HESSIAN_BLOCK_CELLS // (n * n)))
    rel_err = np.abs(quad - identity) / (1.0 + np.abs(identity))
    return StationarityReport(
        hessian_min_quadform=float(np.min(quad)),
        hessian_max_rel_err=float(np.max(rel_err)),
        nullspace_residual=nullspace_residual,
    )


def verify_projection(
    grid: ScoreGrid,
    tolerance: float = 1e-6,
    hessian_samples: int = 200,
    seed: int = 0,
) -> tuple[StationarityReport, bool]:
    """Full verification bundle for one grid.

    Runs the mean-based projection and the independent solve, compares their
    losses and summed predictions, checks first-order conditions and the
    Hessian structure.  Returns the combined report and whether every check
    passed at ``tolerance``.
    """
    alg = emap_decompose(grid)
    oracle = solve_exact(grid)
    oracle_loss = projection_loss(grid, oracle)
    pred_diff = float(np.max(np.abs(alg.reconstruct() - oracle.reconstruct())))

    stat = check_stationarity(grid, alg, seed=seed)
    hess = check_hessian(grid.n, samples=hessian_samples, seed=seed)

    report = StationarityReport(
        oracle_loss=oracle_loss,
        alg_loss=stat.alg_loss,
        max_pred_diff=pred_diff,
        grad_inf_norm=stat.grad_inf_norm,
        fd_gap=stat.fd_gap,
        hessian_min_quadform=hess.hessian_min_quadform,
        hessian_max_rel_err=hess.hessian_max_rel_err,
        nullspace_residual=hess.nullspace_residual,
    )
    scale = 1.0 + float(np.max(np.abs(grid.values)))
    passed = (
        report.max_pred_diff <= tolerance * scale
        and report.grad_inf_norm <= tolerance * scale * grid.n
        and abs(report.oracle_loss - report.alg_loss) <= tolerance * (1.0 + report.alg_loss)
        and report.hessian_min_quadform >= -1e-10
        and report.hessian_max_rel_err <= 1e-8
        and report.nullspace_residual == 0.0
    )
    return report, passed

"""Independent optimality verification for the additive projection.

The row/column-mean projection in :mod:`emap.grid` claims to minimize the
summed squared error over all cross-pairings.  This module re-derives the
answer from first principles and checks the claim numerically:

* ``solve_exact`` solves the stationarity system ``H x = rhs`` per channel,
  where ``H = [[n*I, 1], [1, n*I]]`` couples the 2n unknowns (n per-text
  offsets, n per-visual offsets).  ``H`` has rank ``2n - 1``; its nullspace
  is spanned by ``r = (1, ..., 1, -1, ..., -1)``, the free constant that can
  be shifted between the two unimodal parts.  Two routes are kept apart, and
  neither uses the row/column-mean formula:

  - ``"dense"`` builds ``H`` and takes the minimum-norm least-squares
    solution (the generic "dumb" oracle, default up to n = 64);
  - ``"cg"`` runs conjugate gradients (Hestenes & Stiefel 1952) through the
    O(n) matvec ``H z = (n*z_t + sum(z_v), n*z_v + sum(z_t))`` and never
    materializes ``H``.  The nonzero eigenvalues of ``H`` are n and 2n, so
    it converges in about two steps.

* ``check_stationarity`` evaluates the analytic gradient of the half
  squared-error objective at a candidate decomposition and cross-checks it
  against central finite differences.  Each probe is row-local: moving
  ``tau[i, c]`` changes only the cells ``(i, :, c)`` and moving
  ``phi[j, c]`` only ``(:, j, c)``, so the loss difference is taken over
  that one slice, O(N) per probe instead of O(N^2 d).  The rest of the loss
  cancels exactly, so this is the same central difference with less
  rounding, and it never consults the analytic gradient.  All probe slices
  are gathered into one array.
* ``check_hessian`` verifies the structural identity
  ``z' H z = sum_{i,j} (z_i + z_j)^2`` (hence positive semi-definiteness)
  and ``H r = 0`` on random probes.  Up to n = 64 it does so on the dense
  ``H``.  Above that the check is matrix-free, anchored at m = 64: the dense
  identity runs at m, the matvec must reproduce ``hessian_matrix(m) @ z`` on
  the same probes, and at the real n every probe's quadratic form and
  ``H r`` go through the matvec.  The O(n^2) pair-sum identity still runs at
  full size on as many probes as fit in ``HESSIAN_BLOCK_CELLS`` (at least
  one), formed a block of rows at a time.

Agreement of the independent solve with the row/column-mean algorithm is
the optimality evidence.  No check holds an N^2 d temporary.
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
HESSIAN_BLOCK_CELLS = 1 << 20  # floats per temporary block in check_hessian (8 MB)
CG_MAX_ITER = 20
CG_STOP = 1e-14  # conjugate gradients stop once the residual is below this times the scale


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


def _hessian_matvec(z: np.ndarray, n: int) -> np.ndarray:
    """``H z`` along the last axis of ``z`` (length 2n), in O(n) per vector."""
    out = np.multiply(z, float(n))
    out[..., :n] += z[..., n:].sum(axis=-1, keepdims=True)
    out[..., n:] += z[..., :n].sum(axis=-1, keepdims=True)
    return out


def _solve_cg(rhs: np.ndarray, n: int) -> np.ndarray:
    """Conjugate gradients on ``H x = rhs`` for each row of ``rhs`` (shape (d, 2n)).

    Starts from zero, so the iterates stay orthogonal to the nullspace.
    """
    stop = CG_STOP * (1.0 + float(np.max(np.abs(rhs))))
    x = np.zeros_like(rhs)
    resid = rhs.copy()
    direction = resid.copy()
    rs = np.einsum("ci,ci->c", resid, resid)
    for _ in range(CG_MAX_ITER):
        active = np.max(np.abs(resid), axis=1) > stop
        if not active.any():
            break
        h_dir = _hessian_matvec(direction, n)
        curvature = np.einsum("ci,ci->c", direction, h_dir)
        alpha = np.where(active, rs / np.where(active, curvature, 1.0), 0.0)
        x += alpha[:, np.newaxis] * direction
        resid -= alpha[:, np.newaxis] * h_dir
        rs_next = np.einsum("ci,ci->c", resid, resid)
        beta = np.where(active, rs_next / np.where(active, rs, 1.0), 0.0)
        direction = resid + beta[:, np.newaxis] * direction
        rs = rs_next
    return x


def solve_exact(grid: ScoreGrid, method: str = "auto") -> AdditiveDecomposition:
    """Solve the stationarity system for the optimal additive fit.

    ``method="dense"`` builds ``H`` explicitly and takes the minimum-norm
    least-squares solution (rank-deficient safe; the min-norm solution is
    orthogonal to the nullspace).  ``method="cg"`` runs conjugate gradients
    per channel through the O(n) matvec and never materializes ``H``.
    ``"auto"`` picks dense up to n = 64, cg beyond.  Either route raises
    ``NumericError`` when its residual ``H x - rhs`` exceeds
    ``1e-8 * (1 + max|rhs|)``.
    """
    if not grid.is_square:
        raise InputError("the stationarity system is defined for square grids")
    n, d = grid.n, grid.d
    if method == "auto":
        method = "dense" if n <= DENSE_LIMIT else "cg"

    if method == "cg":
        planes = grid.planes
        rhs = np.concatenate([planes.sum(axis=2), planes.sum(axis=1)], axis=1)  # (d, 2n)
        solution = _solve_cg(rhs, n)
        residual = _hessian_matvec(solution, n) - rhs
        solution = solution.T
    elif method == "dense":
        values = grid.values
        H = hessian_matrix(n)
        rhs = np.concatenate([values.sum(axis=1), values.sum(axis=0)], axis=0)  # (2n, d)
        solution, *_ = np.linalg.lstsq(H, rhs, rcond=None)
        residual = H @ solution - rhs
    else:
        raise InputError(f"unknown solve method {method!r}")

    scale = 1.0 + float(np.max(np.abs(rhs)))
    resid_norm = float(np.max(np.abs(residual)))
    if resid_norm > 1e-8 * scale:
        raise NumericError(
            f"linear system solve did not converge: residual inf-norm {resid_norm:.3e}"
        )
    return AdditiveDecomposition(solution[:n], solution[n:], np.zeros(d)).canonicalized()


def _half_losses(base: np.ndarray, own: np.ndarray) -> np.ndarray:
    """``0.5 * sum((base - own)^2)`` along each row of ``base``."""
    resid = base - own[:, np.newaxis]
    np.square(resid, out=resid)
    return 0.5 * resid.sum(axis=1)


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
    grid its parameter touches; the slices of each side are gathered from
    the channel-major planes into one array.
    """
    planes = np.asarray(values).transpose(2, 0, 1)
    d = planes.shape[0]
    probe = np.asarray(probe, dtype=np.int64)
    on_tau = probe < tau_sys.size
    out = np.empty(probe.size)
    sides = (
        (on_tau, 0, tau_sys, phi_sys, planes),
        (~on_tau, tau_sys.size, phi_sys, tau_sys, planes.transpose(0, 2, 1)),
    )
    for mask, offset, own_side, other_side, lines in sides:
        k, c = np.divmod(probe[mask] - offset, d)
        base = lines[c, k]  # row i of channel c for tau probes, column j for phi probes
        base -= other_side.T[c]
        own = own_side[k, c]
        out[mask] = (_half_losses(base, own + step) - _half_losses(base, own - step)) / (2.0 * step)
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


def _pair_sum_identity(z: np.ndarray, n: int) -> float:
    """``sum_{i < n <= j} (z_i + z_j)^2`` of one probe ``z``.

    This is ``z' H z`` expanded by the block structure of ``H``, formed
    with at most ``HESSIAN_BLOCK_CELLS`` pair sums at a time.
    """
    rows = max(1, HESSIAN_BLOCK_CELLS // n)
    pair_sums = np.empty((min(rows, n), n))
    total = 0.0
    for start in range(0, n, rows):
        block = pair_sums[: min(rows, n - start)]
        np.add(z[start : start + len(block), np.newaxis], z[np.newaxis, n:], out=block)
        np.square(block, out=block)
        total += float(block.sum())
    return total


def _relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b) / (1.0 + np.abs(b))))


def check_hessian(n: int, samples: int = 1000, seed: int = 0) -> StationarityReport:
    """Verify the quadratic-form identity and nullspace of the Hessian.

    For random probes z, ``z' H z`` must equal the double sum of
    ``(z_i + z_j)^2`` over the text/visual index blocks (relative 1e-8), the
    smallest observed quadratic form must be >= -1e-10, and ``H r`` must be
    exactly zero.  Above ``DENSE_LIMIT`` the dense check runs at that size,
    where the matvec must also reproduce the dense ``H z`` (relative 1e-8,
    folded into ``hessian_max_rel_err``), and the real size is probed
    through the matvec without materializing ``H``.
    """
    if n < 1 or samples < 1:
        raise InputError("n and samples must be >= 1")
    m = min(n, DENSE_LIMIT)
    H = hessian_matrix(m)
    nullspace_residual = float(np.max(np.abs(H @ nullspace_direction(m))))

    rng = np.random.default_rng(seed)
    z = rng.standard_normal((samples, 2 * m))
    quad = np.einsum("si,ij,sj->s", z, H, z)
    identity = np.array([_pair_sum_identity(probe, m) for probe in z])
    rel_err = _relative_gap(quad, identity)
    min_quad = float(np.min(quad))
    if n > DENSE_LIMIT:
        rel_err = max(rel_err, _relative_gap(_hessian_matvec(z, m), np.einsum("ij,sj->si", H, z)))
        nullspace_residual = max(
            nullspace_residual, float(np.max(np.abs(_hessian_matvec(nullspace_direction(n), n))))
        )
        # probes at the real size, a chunk at a time so that z and H z share one block;
        # the probes checked against the full pair sums all fall in the first chunk
        chunk = max(1, HESSIAN_BLOCK_CELLS // (4 * n))
        exact = min(samples, max(1, HESSIAN_BLOCK_CELLS // (n * n)))
        for start in range(0, samples, chunk):
            z = rng.standard_normal((min(chunk, samples - start), 2 * n))
            quad = np.einsum("si,si->s", z, _hessian_matvec(z, n))
            min_quad = min(min_quad, float(np.min(quad)))
            if start == 0:
                identity = np.array([_pair_sum_identity(probe, n) for probe in z[:exact]])
                rel_err = max(rel_err, _relative_gap(quad[:exact], identity))
    return StationarityReport(
        hessian_min_quadform=min_quad,
        hessian_max_rel_err=rel_err,
        nullspace_residual=nullspace_residual,
    )


def _max_pred_diff(a: AdditiveDecomposition, b: AdditiveDecomposition) -> float:
    """``max |a.reconstruct() - b.reconstruct()|`` in O(N d), without either grid.

    Per channel the difference is ``dtau[i] + dphi[j] + dmu``, whose extreme
    cells pair the extreme entries of ``dtau`` and ``dphi``.
    """
    d_tau, d_phi, d_mu = a.tau - b.tau, a.phi - b.phi, a.mu - b.mu
    high = d_tau.max(axis=0) + d_phi.max(axis=0) + d_mu
    low = d_tau.min(axis=0) + d_phi.min(axis=0) + d_mu
    return float(max(np.max(np.abs(high)), np.max(np.abs(low))))


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

    stat = check_stationarity(grid, alg, seed=seed)
    hess = check_hessian(grid.n, samples=hessian_samples, seed=seed)

    report = StationarityReport(
        oracle_loss=oracle_loss,
        alg_loss=stat.alg_loss,
        max_pred_diff=_max_pred_diff(alg, oracle),
        grad_inf_norm=stat.grad_inf_norm,
        fd_gap=stat.fd_gap,
        hessian_min_quadform=hess.hessian_min_quadform,
        hessian_max_rel_err=hess.hessian_max_rel_err,
        nullspace_residual=hess.nullspace_residual,
    )
    planes = grid.planes
    scale = 1.0 + max(float(planes.max()), -float(planes.min()))
    passed = (
        report.max_pred_diff <= tolerance * scale
        and report.grad_inf_norm <= tolerance * scale * grid.n
        and abs(report.oracle_loss - report.alg_loss) <= tolerance * (1.0 + report.alg_loss)
        and report.hessian_min_quadform >= -1e-10
        and report.hessian_max_rel_err <= 1e-8
        and report.nullspace_residual == 0.0
    )
    return report, passed

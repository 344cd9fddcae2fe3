"""Cross-pairing score grids and their best additive approximation.

A score grid holds the outputs of a two-input-group scorer ``f(t, v)`` over
*every* text x visual cross-pairing of an evaluation set, including pairings
that never occur in the data.  Its least-squares projection onto the family
of additive scorers ``f_T(t) + f_V(v)`` is computed in closed form from row
means, column means and the grand mean.  The projection is the exact, unique
minimizer of the summed squared error over all cells (uniqueness is up to a
constant that can be shifted between the two unimodal parts; see
:mod:`emap.oracle` for an independent check).

The projection needs only the grid's row means, column means and grand
mean: the partial-dependence functions of ``f`` under the empirical
marginals.  ``as_scorer`` is the one place that asks what a scorer offers.
It returns one protocol: ``logits_many(T, V)`` scores paired rows,
``logits_grid(T, V)`` every text x visual pairing, and ``marginals(T, V)``
gives the exact decomposition, or None when the scorer has no exact form.
``project_scorer`` takes the marginals when there are some (the linear and
poly2 models and the feed-forward net without hidden layers, which are
affine in each side), so no grid is built and memory grows as O(N * d);
otherwise it decomposes the ``build_grid`` grid, one ``logits_grid`` call.
Either way the result is one ``Projection``, with the paired items' direct
scores, the grid or None, and the cells scored; ``Projection.take`` cuts a
subset's projection from the grid, scoring nothing.

All arithmetic is 64-bit.  Grids are stored channel-major: ``values`` has
the logical shape ``(N_t, N_v, d)``, but its memory is ``(d, N_t, N_v)``, so
each channel plane is one C-contiguous block and every mean reduces a
contiguous plane with numpy's pairwise sum.  ``ScoreGrid`` alone enforces
this layout, so identical grid values always produce identical
decomposition bytes, whatever order the grid was built or loaded in.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from .exceptions import InputError, NumericError

__all__ = [
    "ScoreGrid",
    "AdditiveDecomposition",
    "Projection",
    "as_scorer",
    "build_grid",
    "emap_decompose",
    "emap_predictions",
    "project_scorer",
    "projection_loss",
]

LOSS_BLOCK_CELLS = 1 << 18  # residual floats per block in projection_loss (2 MB)


@dataclass(frozen=True, eq=False)
class ScoreGrid:
    """Scores of a two-input scorer over all cross-pairings.

    ``values[i, j, c]`` is output channel ``c`` of the scorer applied to
    text item ``i`` and visual item ``j``.  Its memory is channel-major:
    ``planes`` (``values`` seen as ``(d, N_t, N_v)``) is C-contiguous, and
    input in any other layout is copied into it once.  Grids built from
    paired evaluation data are square; rectangular grids are accepted for
    decomposition but not for paired predictions.
    """

    values: np.ndarray
    text_ids: tuple = field(default=())
    visual_ids: tuple = field(default=())

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim == 2:
            values = values[:, :, np.newaxis]
        if values.ndim != 3:
            raise InputError(f"grid values must be N_t x N_v x d, got shape {values.shape}")
        if values.shape[0] < 1 or values.shape[1] < 1 or values.shape[2] < 1:
            raise InputError(f"grid dimensions must all be >= 1, got {values.shape}")
        # channel-major memory fixes the summation order of the means (see the module docstring)
        values = np.ascontiguousarray(values.transpose(2, 0, 1)).transpose(1, 2, 0)
        # NaN propagates through min and max, so this finds any non-finite value without a mask
        if not (np.isfinite(values.min()) and np.isfinite(values.max())):
            bad = np.argwhere(~np.isfinite(values))[0]
            raise NumericError(f"non-finite grid value at (i={bad[0]}, j={bad[1]}, channel={bad[2]})")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "text_ids", tuple(self.text_ids) or tuple(range(values.shape[0])))
        object.__setattr__(self, "visual_ids", tuple(self.visual_ids) or tuple(range(values.shape[1])))
        if len(self.text_ids) != values.shape[0]:
            raise InputError("text_ids length does not match grid rows")
        if len(self.visual_ids) != values.shape[1]:
            raise InputError("visual_ids length does not match grid columns")

    @property
    def planes(self) -> np.ndarray:
        """The grid as C-contiguous channel planes, shape ``(d, N_t, N_v)``; a view."""
        return self.values.transpose(2, 0, 1)

    @property
    def n_text(self) -> int:
        return self.values.shape[0]

    @property
    def n_visual(self) -> int:
        return self.values.shape[1]

    @property
    def d(self) -> int:
        return self.values.shape[2]

    @property
    def is_square(self) -> bool:
        return self.n_text == self.n_visual

    @property
    def n(self) -> int:
        """Number of paired items. Defined for square grids only."""
        if not self.is_square:
            raise InputError(f"grid is rectangular ({self.n_text} x {self.n_visual}); n is undefined")
        return self.n_text


@dataclass(frozen=True, eq=False)
class AdditiveDecomposition:
    """Additive fit ``score(i, j) = tau[i] + phi[j] + mu`` in canonical gauge.

    The free constant that can be moved between the per-text and per-visual
    parts is fixed by centering: per channel, ``tau`` and ``phi`` each have
    mean zero and ``mu`` carries all constants.  Summed predictions are
    invariant under this choice.
    """

    tau: np.ndarray
    phi: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        tau = np.ascontiguousarray(np.atleast_2d(np.asarray(self.tau, dtype=np.float64)))
        phi = np.ascontiguousarray(np.atleast_2d(np.asarray(self.phi, dtype=np.float64)))
        mu = np.atleast_1d(np.asarray(self.mu, dtype=np.float64))
        if tau.ndim != 2 or phi.ndim != 2 or mu.ndim != 1:
            raise InputError("tau and phi must be 2-D (items x channels), mu 1-D")
        if tau.shape[1] != mu.shape[0] or phi.shape[1] != mu.shape[0]:
            raise InputError(
                f"channel mismatch: tau {tau.shape}, phi {phi.shape}, mu {mu.shape}"
            )
        for name, arr in (("tau", tau), ("phi", phi), ("mu", mu)):
            if not np.all(np.isfinite(arr)):
                raise NumericError(f"non-finite entries in {name}")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "mu", mu)

    @property
    def d(self) -> int:
        return self.mu.shape[0]

    def gauge_residual(self) -> float:
        """Largest |channel mean| of tau or phi; ~0 for a canonical decomposition."""
        return max(
            float(np.max(np.abs(self.tau.mean(axis=0)))),
            float(np.max(np.abs(self.phi.mean(axis=0)))),
        )

    def canonicalized(self) -> "AdditiveDecomposition":
        """Re-center tau and phi to zero mean, folding the constants into mu."""
        t_mean = self.tau.mean(axis=0)
        p_mean = self.phi.mean(axis=0)
        return AdditiveDecomposition(
            tau=self.tau - t_mean,
            phi=self.phi - p_mean,
            mu=self.mu + t_mean + p_mean,
        )

    def reconstruct(self) -> np.ndarray:
        """Full additive grid, shape (n_text, n_visual, d)."""
        return self.tau[:, np.newaxis, :] + self.phi[np.newaxis, :, :] + self.mu


Scorer = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _as_feature_matrix(items: Sequence, name: str) -> np.ndarray:
    try:
        mat = np.asarray(items, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} features are not a uniform numeric array: {exc}") from None
    if mat.ndim == 1:
        mat = mat[:, np.newaxis]
    if mat.ndim != 2:
        raise InputError(f"{name} features must be a list of vectors, got ndim={mat.ndim}")
    return mat


def _per_call(scorer: Scorer, T: np.ndarray, V: np.ndarray, paired: bool = False) -> np.ndarray:
    """A plain ``(t, v) -> logits`` callable called once per cell, or per pair ``(T[i], V[i])`` if ``paired``."""
    if paired and len(T) != len(V):
        raise InputError(f"paired inputs need as many text as visual rows, got {len(T)} and {len(V)}")
    rows = [zip(T, V)] if paired else (zip(itertools.repeat(t), V) for t in T)
    cells = [[np.atleast_1d(np.asarray(scorer(t, v), dtype=np.float64)) for t, v in row] for row in rows]
    d = cells[0][0].shape
    for i, row in enumerate(cells):
        for j, out in enumerate(row):
            if out.shape != d:
                raise InputError(f"scorer output shape changed from {d} to {out.shape} at (i={i}, j={j})")
    return np.array(cells)[0] if paired else np.array(cells)


def as_scorer(scorer):
    """``scorer`` as the protocol of ``logits_many``, ``logits_grid`` and ``marginals`` (module docstring).

    A plain callable is called once per pair or cell, and an object with only
    ``logits_grid`` pairs rows through one-cell grids; neither has marginals.
    Marginals without ``logits_many``, and anything else, are refused.
    """
    many, grid, marginals = (getattr(scorer, name, None) for name in ("logits_many", "logits_grid", "marginals"))
    if None not in (many, grid, marginals):
        return scorer
    if marginals is not None and many is None:
        raise InputError("a scorer with marginals must also provide logits_many for its direct scores")
    if grid is None and not callable(scorer):
        raise InputError(f"a {type(scorer).__name__} is not a scorer: it has no logits_grid and is not callable")
    cell = scorer if grid is None else lambda t, v: grid(t[np.newaxis], v[np.newaxis])[0, 0]
    return SimpleNamespace(logits_many=many or functools.partial(_per_call, cell, paired=True),
                           logits_grid=grid or functools.partial(_per_call, scorer),
                           marginals=marginals or (lambda T, V: None))


def _paired_features(texts: Sequence, visuals: Sequence):
    """Both sides as feature matrices, refused unless they pair at least one item."""
    t_mat = _as_feature_matrix(texts, "text")
    v_mat = _as_feature_matrix(visuals, "visual")
    if t_mat.shape[0] != v_mat.shape[0]:
        raise InputError(
            f"texts and visuals must have equal length, got {t_mat.shape[0]} and {v_mat.shape[0]}"
        )
    if t_mat.shape[0] < 1:
        raise InputError("at least one paired item is required")
    return t_mat, v_mat


def build_grid(scorer: Scorer, texts: Sequence, visuals: Sequence) -> ScoreGrid:
    """Evaluate ``scorer`` on all N^2 text x visual cross-pairings.

    The grid is one ``logits_grid(T, V)`` call of ``as_scorer(scorer)``.
    Evaluation is single-threaded, so the grid bytes depend only on the
    scorer and the inputs.
    """
    t_mat, v_mat = _paired_features(texts, visuals)
    return ScoreGrid(values=as_scorer(scorer).logits_grid(t_mat, v_mat))


def emap_decompose(grid: ScoreGrid) -> AdditiveDecomposition:
    """Project a grid onto the additive family, in canonical gauge.

    Per channel: ``tau[i]`` is the i-th row mean minus the grand mean,
    ``phi[j]`` the j-th column mean minus the grand mean, and ``mu`` the
    grand mean, so that ``tau[i] + phi[j] + mu`` equals
    ``row_mean[i] + col_mean[j] - grand_mean`` -- the optimal additive fit.
    """
    planes = grid.planes
    mu = planes.mean(axis=(1, 2))
    row_means = planes.mean(axis=2).T
    col_means = planes.mean(axis=1).T
    return AdditiveDecomposition(tau=row_means - mu, phi=col_means - mu, mu=mu)


def _diagonal(grid: ScoreGrid) -> np.ndarray:
    """Scores of the originally paired items, ``grid.values[i, i]``, of a square grid."""
    return grid.values[np.arange(grid.n), np.arange(grid.n)]


@dataclass(frozen=True, eq=False)
class Projection:
    """A scorer's additive projection over paired items, with its direct scores.

    ``direct[i]`` is the scorer's output on the i-th pair: the grid's diagonal,
    or ``logits_many`` when ``marginals`` gave the decomposition and ``grid``
    is None.  ``cells`` counts the cross-pairings scored to reach it.
    """

    decomposition: AdditiveDecomposition
    direct: np.ndarray
    grid: ScoreGrid | None = None
    cells: int = 0

    def take(self, idx: np.ndarray) -> "Projection":
        """The projection of items ``idx``, from the sub-grid sliced out of ``grid``; scores nothing."""
        if self.grid is None:
            raise InputError("only a projection that holds its grid can be sliced")
        idx = np.asarray(idx)
        sub = ScoreGrid(values=self.grid.planes[:, idx[:, np.newaxis], idx].transpose(1, 2, 0))
        return Projection(emap_decompose(sub), _diagonal(sub), sub)


def project_scorer(scorer: Scorer, texts: Sequence, visuals: Sequence) -> Projection:
    """The EMAP of ``scorer`` over paired items, without a grid when the scorer allows it.

    When the ``as_scorer`` protocol's ``marginals(T, V)`` gives the
    decomposition, the direct scores are ``logits_many(T, V)``; otherwise the
    projection is ``emap_decompose`` of the ``build_grid`` grid, whose
    diagonal holds the direct scores.
    """
    t_mat, v_mat = _paired_features(texts, visuals)
    scorer = as_scorer(scorer)
    dec = scorer.marginals(t_mat, v_mat)
    if dec is not None:
        return Projection(dec, scorer.logits_many(t_mat, v_mat))
    grid = build_grid(scorer, t_mat, v_mat)
    return Projection(emap_decompose(grid), _diagonal(grid), grid, grid.n_text * grid.n_visual)


def emap_predictions(dec: AdditiveDecomposition) -> np.ndarray:
    """Projected scores of the originally paired items: ``tau[i] + phi[i] + mu``.

    Only meaningful when texts and visuals are paired one-to-one, i.e. the
    underlying grid was square.
    """
    if dec.tau.shape[0] != dec.phi.shape[0]:
        raise InputError(
            f"paired predictions need equally many text and visual offsets, "
            f"got {dec.tau.shape[0]} and {dec.phi.shape[0]}"
        )
    return dec.tau + dec.phi + dec.mu


def projection_loss(
    grid: ScoreGrid, dec: AdditiveDecomposition, per_channel: bool = False
):
    """Summed squared residual between the grid and an additive fit.

    Returns the total over all cells and channels, or the per-channel vector
    when ``per_channel`` is set.  The objective decouples across channels, so
    the total is exactly the sum of the per-channel losses.  The residual is
    formed ``LOSS_BLOCK_CELLS`` cells (whole rows, at least one) at a time.
    """
    if dec.tau.shape[0] != grid.n_text or dec.phi.shape[0] != grid.n_visual:
        raise InputError(
            f"decomposition shape ({dec.tau.shape[0]}, {dec.phi.shape[0]}) does not match "
            f"grid ({grid.n_text}, {grid.n_visual})"
        )
    if dec.d != grid.d:
        raise InputError(f"channel mismatch: grid d={grid.d}, decomposition d={dec.d}")
    planes = grid.planes
    rows = max(1, LOSS_BLOCK_CELLS // grid.n_visual)
    channel = np.zeros(grid.d)
    for c in range(grid.d):
        for start in range(0, grid.n_text, rows):
            resid = dec.tau[start : start + rows, c, np.newaxis] + dec.phi[:, c]
            resid += dec.mu[c]
            np.subtract(planes[c, start : start + rows], resid, out=resid)
            np.square(resid, out=resid)
            channel[c] += resid.sum()
    if per_channel:
        return channel
    return float(np.sum(channel))

"""One scorer x path conformance table: every route to a scorer's scores gives one function.

EMAP reads a scorer through ``build_grid`` and the ``as_scorer`` protocol
(``logits_grid``, the paired ``logits_many`` and the closed-form
``marginals``), ``project_scorer``'s direct scores, a ``Projection`` cut
with ``take`` and a model file, and each route must agree with the others.
``SCORERS`` lists every scorer once and ``PATHS`` every route with what it
needs of a scorer, its sizes and its check, which states its tolerance.
A pair that does not apply says why in ``NOT_APPLICABLE``.  Each path runs from one test in the module of the code
it exercises (or from several, each on its own scorers), through ``run`` or
``cases``, so a new scorer or path is one entry here.
"""

import functools
import re
import tempfile
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np
import pytest

from emap import boosting, models
from emap import io as emap_io
from emap.boosting import AdaBoostConfig, train_adaboost
from emap.data import PairedDataset
from emap.exceptions import InputError
from emap.grid import ScoreGrid, as_scorer, build_grid, emap_decompose, emap_predictions, project_scorer
from emap.metrics import metric_from_logits, subsampled_emap_metric
from emap.models import FeedForwardModel, LinearModel, Poly2Model

D1, D2, WIDTH = 4, 3, 5  # text width, visual width, the FFN's projection width
CELL_TOL = 1e-12  # absolute: values summed in another order agree to this


def items(n_t: int, n_v: int):
    """Non-centred text and visual features, seeded by their shape."""
    rng = np.random.default_rng([n_t, n_v])
    return 2.0 * rng.standard_normal((n_t, D1)), rng.standard_normal((n_v, D2)) + 1.0


def labelled(n: int, classes: int) -> PairedDataset:
    labels = np.random.default_rng(n).integers(0, classes, n)
    return PairedDataset(*items(n, n), labels, np.zeros(n, dtype=np.int8), num_classes=classes)


def _linear(rng, classes):
    return LinearModel(*(rng.standard_normal(shape) for shape in ((D1, classes), (D2, classes), classes)))


def _poly2(rng, classes):
    return Poly2Model(rng.standard_normal((D1 + D2 + D1 * D2, classes)), rng.standard_normal(classes), D1, D2)


def _feedforward(activation, hidden):
    def make(rng, classes):
        projections = [rng.standard_normal(shape) for shape in ((D1, WIDTH), WIDTH, (D2, WIDTH), WIDTH)]
        widths = [4 * WIDTH, *hidden, classes]
        layers = tuple(
            (rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in), rng.standard_normal(fan_out))
            for fan_in, fan_out in zip(widths[:-1], widths[1:])
        )
        return FeedForwardModel(*projections, layers, activation)

    return make


def _adaboost(restriction):
    def make(rng, classes):
        T, V = 2.0 * rng.standard_normal((80, D1)), rng.standard_normal((80, D2)) + 1.0
        y = T[:, 0] + V[:, 0] + T[:, 1] * V[:, 1] > 0
        data = PairedDataset(T, V, y, np.zeros(80, dtype=np.int8), num_classes=classes)
        model = train_adaboost(data, AdaBoostConfig(max_depth=3, n_stages=12, restriction=restriction))
        # the unimodal model has stages of both sides, so its grid broadcasts both rows and columns
        assert {side for *_, side in model.stages} == ({"full"} if restriction == "full" else {"text", "visual"})
        return model

    return make


def _plain(rng, classes):
    return lambda t, v: np.tanh(t[:classes] * v[:classes])


class Scorer(NamedTuple):
    make: Callable  # (rng, classes) -> scorer
    classes: tuple
    exact_rows: bool = False  # logits_grid rows equal logits_many of the tiled text item bit for bit


SCORERS = {
    "linear": Scorer(_linear, (2, 3)),
    "poly2": Scorer(_poly2, (2, 3)),
    "feedforward": Scorer(_feedforward("relu", (7, 5)), (2, 3), exact_rows=True),
    "feedforward_flat": Scorer(_feedforward("gelu", ()), (2, 3), exact_rows=True),
    "adaboost": Scorer(_adaboost("full"), (2,), exact_rows=True),  # AdaBoost is binary
    "adaboost_unimodal": Scorer(_adaboost("unimodal"), (2,), exact_rows=True),
    "plain": Scorer(_plain, (2, 3), exact_rows=True),  # a plain (t, v) -> logits callable
}


@functools.cache
def scorer(name: str, classes: int):
    return SCORERS[name].make(np.random.default_rng([list(SCORERS).index(name), classes]), classes)


def _grid_projection(name, classes, n):
    """The model, ``labelled(n, classes)`` and its projection through the grid, whatever path the model has."""
    model, data = scorer(name, classes), labelled(n, classes)
    # seen through logits_grid alone, a model with marginals is projected through its grid too
    full = project_scorer(SimpleNamespace(logits_grid=as_scorer(model).logits_grid), data.text, data.visual)
    assert full.cells == n * n
    return model, data, full


def _parts(proj) -> dict:
    dec = proj.decomposition
    return {"direct": proj.direct, "tau": dec.tau, "phi": dec.phi, "mu": dec.mu}


def check_build_grid(name, classes, n):
    """(a) ``build_grid`` equals scoring each cell on its own."""
    model, (T, V) = as_scorer(scorer(name, classes)), items(n, n)
    per_cell = np.array([[model.logits_many(t[np.newaxis], v[np.newaxis])[0] for v in V] for t in T])
    np.testing.assert_allclose(build_grid(model, T, V).values, per_cell, rtol=0, atol=CELL_TOL)


def check_grid_rows(name, classes, n_t, n_v):
    """(b) Row i of ``logits_grid`` equals ``logits_many`` of text item i tiled against V."""
    model, (T, V) = as_scorer(scorer(name, classes)), items(n_t, n_v)
    grid = model.logits_grid(T, V)
    assert grid.shape == (n_t, n_v, classes)
    for i, t in enumerate(T):
        row = model.logits_many(np.broadcast_to(t, (n_v, D1)), V)
        if SCORERS[name].exact_rows:
            assert grid[i].tobytes() == row.tobytes(), f"row {i}"
        else:
            np.testing.assert_allclose(grid[i], row, rtol=0, atol=CELL_TOL, err_msg=f"row {i}")


def check_direct(name, classes, n):
    """(c) ``Projection.direct`` is the paired scores byte for byte; ``cells`` names the path."""
    model, (T, V) = scorer(name, classes), items(n, n)
    proj = project_scorer(model, T, V)
    expected = as_scorer(model).logits_many(T, V)
    assert proj.direct.shape == expected.shape and proj.direct.tobytes() == expected.tobytes()
    assert proj.cells == (0 if applies(name, "marginals") else n * n)


def check_marginals(name, classes, n_t, n_v):
    """(d) ``marginals`` is the decomposition of the grid, rectangular grids too."""
    model, (T, V) = as_scorer(scorer(name, classes)), items(n_t, n_v)
    values = model.logits_grid(T, V)
    grid_dec, dec = emap_decompose(ScoreGrid(values=values)), model.marginals(T, V)
    tol = 1e-12 * (1.0 + float(np.max(np.abs(values))))
    assert dec.tau.shape == (n_t, classes) and dec.phi.shape == (n_v, classes)
    for part in ("tau", "phi", "mu"):
        np.testing.assert_allclose(getattr(dec, part), getattr(grid_dec, part), rtol=0, atol=tol, err_msg=part)
    assert dec.gauge_residual() <= 1e-12


def check_take(name, classes, n, m):
    """(e) ``Projection.take`` equals projecting the subset again, and ``subsampled_emap_metric`` agrees."""
    model, data, full = _grid_projection(name, classes, n)
    rng = np.random.default_rng(3)
    for _ in range(4):
        idx = np.sort(rng.choice(n, size=m, replace=False))
        sub = data.take(idx)
        taken, rescored = full.take(idx), project_scorer(model, sub.text, sub.visual)
        # a scorer with marginals projects the subset from them, the others from a new grid
        assert (rescored.grid is None) == applies(name, "marginals")
        assert taken.cells == 0 and rescored.cells == (0 if rescored.grid is None else m * m)
        got, want = _parts(taken), _parts(rescored)
        if rescored.grid is not None:
            got["grid"], want["grid"] = taken.grid.values, rescored.grid.values
        for part in want:
            np.testing.assert_allclose(got[part], want[part], rtol=0, atol=CELL_TOL, err_msg=part)
    own = project_scorer(model, data.text, data.visual)  # holds no grid when it has marginals
    for metric in ("accuracy", "weighted_f1"):
        rescored = subsampled_emap_metric(model, data, 4, m, metric, seed=3)
        for given in (full, own):
            assert subsampled_emap_metric(model, data, 4, m, metric, seed=3, full=given) == rescored, metric


def check_take_all(name, classes, n):
    """(e) ``take(arange(N))`` is the full projection byte for byte, and so are the m = N metrics."""
    model, data, full = _grid_projection(name, classes, n)
    taken, direct = full.take(np.arange(n)), full.grid.values[np.arange(n), np.arange(n)]
    assert full.direct.tobytes() == direct.tobytes()
    assert taken.grid.values.tobytes() == full.grid.values.tobytes()
    whole = _parts(taken)
    for part, value in _parts(full).items():
        assert whole[part].tobytes() == value.tobytes(), part
    proj = emap_predictions(full.decomposition)
    for metric in ("accuracy", "weighted_f1"):
        result = subsampled_emap_metric(model, data, 1, n, metric, full=full)
        assert result.direct_mean == metric_from_logits(metric, direct, data.labels), metric
        assert result.emap_mean == metric_from_logits(metric, proj, data.labels), metric
        assert result.grid_cells == 0


def check_model_file(name, classes):
    """(f) ``io.save_model``/``load_model`` keep the model and the bytes of both its scorers."""
    model = scorer(name, classes)
    with tempfile.TemporaryDirectory() as tmp:
        emap_io.save_model(model, Path(tmp) / "model.json")
        loaded = emap_io.load_model(Path(tmp) / "model.json")
    assert type(loaded) is type(model) and loaded.to_json_dict() == model.to_json_dict()
    assert loaded.logits_many(*items(7, 7)).tobytes() == model.logits_many(*items(7, 7)).tobytes()
    assert loaded.logits_grid(*items(5, 11)).tobytes() == model.logits_grid(*items(5, 11)).tobytes()


def check_unequal_rows(name, classes, n_t, n_v):
    """(g) ``logits_many`` pairs rows, so it refuses unequal counts; ``logits_grid`` crosses them."""
    model, (T, V) = as_scorer(scorer(name, classes)), items(n_t, n_v)
    with pytest.raises(InputError, match="rows"):
        model.logits_many(T, V)
    assert model.logits_grid(T, V).shape == (n_t, n_v, classes)


# square sizes, and text x visual shapes for the paths that cross two sets of items
CROSSED = [(1, 1), (7, 7), (5, 11), (12, 4)]
# one size above each block constant: poly2's GRID_BLOCK_CELLS and its PAIR_BLOCK_CELLS (2000 pairs)
BLOCKED = [(300, 300), (3, 2000)]
# a side of one item: numpy multiplies a one-row matrix with another BLAS kernel, so an FFN
# row of a 1 x N or N x 1 grid can differ from tiled logits_many in the last bits; (b) leaves them out
SINGLE_SIDED = [(1, 6), (7, 1)]


def has_marginals(model) -> bool:
    return as_scorer(model).marginals(*items(2, 2)) is not None


class PathSpec(NamedTuple):
    needs: Callable | None  # needs(scorer): whether the scorer offers what the path reads
    sizes: list
    check: Callable  # check(name, classes, *size)


PATHS = {
    "build_grid": PathSpec(None, [(1,), (7,), (30,)], check_build_grid),
    "grid_rows": PathSpec(None, CROSSED + BLOCKED, check_grid_rows),
    "direct": PathSpec(None, [(1,), (7,), (64,), (500,)], check_direct),
    "marginals": PathSpec(has_marginals, CROSSED + [(9, 9)] + SINGLE_SIDED + BLOCKED, check_marginals),
    "take": PathSpec(None, [(30, 12)], check_take),
    "take_all": PathSpec(None, [(30,)], check_take_all),
    "model_file": PathSpec(lambda model: hasattr(model, "to_json_dict"), [()], check_model_file),
    "unequal_rows": PathSpec(None, [(1, 5), (5, 1), (5, 11), (12, 4)], check_unequal_rows),
}

NOT_APPLICABLE = {
    ("feedforward", "marginals"): "FFN with hidden layers: not affine in each side, so no marginals",
    ("adaboost", "marginals"): "full AdaBoost: a tree over both sides is not affine in each side, so no marginals",
    ("adaboost_unimodal", "marginals"): "unimodal AdaBoost: additive, but no marginals yet",
    ("plain", "marginals"): "plain callable: no marginals",
    ("plain", "model_file"): "plain callable: no model file",
}


def applies(name: str, path: str) -> bool:
    needs = PATHS[path].needs
    return needs is None or needs(scorer(name, SCORERS[name].classes[0]))


def cases(path: str):
    """``(scorer name, classes)`` for every scorer ``path`` applies to."""
    return [(name, classes) for name, entry in SCORERS.items() if applies(name, path) for classes in entry.classes]


def run(path: str, *names: str) -> None:
    """Check ``path`` on every scorer it applies to (or on ``names`` alone), at every size; a failure names its case."""
    assert all(applies(name, path) for name in names), names
    for name, classes in cases(path):
        if names and name not in names:
            continue
        for size in PATHS[path].sizes:
            try:
                PATHS[path].check(name, classes, *size)
            except AssertionError as exc:
                raise AssertionError(f"{path}: {name}, {classes} classes, size {size}: {exc}") from exc


def test_every_scorer_has_an_entry_and_every_pair_runs_or_says_why():
    defined = {
        cls for module in (models, boosting) for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__ and "logits_many" in vars(cls)
    }
    assert defined and defined <= {type(scorer(name, s.classes[0])) for name, s in SCORERS.items()}
    # every bundled model offers the whole protocol, so as_scorer takes it as it is
    for name, entry in SCORERS.items():
        model = scorer(name, entry.classes[0])
        assert (as_scorer(model) is model) == (type(model) in defined), name
    assert set(NOT_APPLICABLE) <= {(name, path) for name in SCORERS for path in PATHS}
    for name in SCORERS:
        for path in PATHS:
            reason = NOT_APPLICABLE.get((name, path))
            assert applies(name, path) == (reason is None), (name, path, reason)
            assert reason is None or "\n" not in reason
    # each path runs from other test modules, on every scorer it applies to, whole or in slices
    runners = "".join(p.read_text() for p in Path(__file__).parent.glob("test_*.py") if p.name != Path(__file__).name)
    for path in PATHS:
        if f'run("{path}")' in runners or f'PATHS["{path}"]' in runners:
            continue
        sliced = {name for call in re.findall(rf'run\("{path}"((?:, "\w+")+)\)', runners) for name in re.findall(r"\w+", call)}
        assert sliced == {name for name in SCORERS if applies(name, path)}, path

"""Boolean two-modality functions: representability and additive fit quality.

A boolean function of n text bits and n visual bits is a 2^n x 2^n truth
table.  It is *additively representable* when some per-row reals tau, per
-column reals phi and threshold theta reproduce it as
``table[i, j] = 1  iff  tau[i] + phi[j] > theta``.  Such threshold matrices
are exactly the tables with no 2x2 exclusive-or submatrix, equivalently the
tables whose rows form a chain under elementwise <=; that combinatorial
check is the fast path here.  The independent oracle decides the threshold
system itself, exactly, as integer difference constraints (a negative-cycle
search), so the module needs nothing beyond numpy.  Every check and fit
runs on a whole ``(tables, rows, cols)`` stack at once, such as the
census's ``all_tables``; the one-table functions are its one-table case.

The additive-fit experiment measures how well three surrogates rank the
cells of random tables: the least-squares additive projection of the table
itself, unimodal-restricted AdaBoost, and (as the interactive reference)
unrestricted AdaBoost.  The sweep stacks every sampled table of one size,
up to a chunk of ``_CHUNK_CELLS`` cells.  The projection takes the tables
as the channels of one ``emap_decompose`` call, and both boosted methods
run them through the one stage loop, ``boosting.boost_batch``.  With a
depth budget that covers the bits a weak learner reads, each round's
candidates are per-row, per-column or per-cell weighted majorities, so no
tree is built; a shorter budget fits greedy trees on the cells' bits, one
table at a time, in the same loop.  One ``metrics.auc_rows`` call ranks
every table's cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import MAX_TABLE_N
from .exceptions import (
    CapabilityError,
    GenerationError,
    InputError,
    UndefinedMetricError,
)
from .grid import ScoreGrid, emap_decompose
from .metrics import auc_rows

if TYPE_CHECKING:
    from .boosting import AdaBoostConfig

__all__ = [
    "MAX_TABLE_N",
    "table_side",
    "BooleanTable",
    "Var",
    "Not",
    "And",
    "Or",
    "parse_formula",
    "table_from_formula",
    "all_tables",
    "is_representable",
    "is_representable_many",
    "representable_oracle",
    "representable_oracle_many",
    "sample_table",
    "random_circuit",
    "additive_fit_auc",
    "additive_fit_aucs",
    "SweepRow",
    "run_size_sweep",
    "write_sweep_csv",
]

ORACLE_SIDE_LIMIT = 16
SWEEP_METHODS = ("emap", "adaboost_unimodal", "adaboost_full")
BOOSTED_METHODS = ("adaboost_unimodal", "adaboost_full")
# cells of the tables one sweep batch boosts together; a larger table boosts
# alone.  At 2^16 cells (512 KB per float64 array) the 2000-sample n = 1..4
# sweep ran in 13 s against 14.5 s at 2^20 and 15 s at 2^14 (2 vCPUs).
_CHUNK_CELLS = 2**16


def table_side(n: int) -> int:
    """Rows (and columns) of a table with n bits per side, refusing n outside [1, MAX_TABLE_N]."""
    if not 1 <= n <= MAX_TABLE_N:
        raise InputError(f"n must lie in [1, {MAX_TABLE_N}] (a 2^n x 2^n truth table), got n={n}")
    return 2**n


@dataclass(frozen=True, eq=False)
class BooleanTable:
    """Truth table of f(t, v) with n bits per modality; rows index t."""

    n: int
    table: np.ndarray

    def __post_init__(self):
        size = table_side(self.n)
        raw = np.asarray(self.table)
        if raw.shape != (size, size):
            raise InputError(f"table must be {size} x {size} for n={self.n}, got {raw.shape}")
        # checked before the uint8 cast, which would wrap 256 and truncate 0.5 to 0; an
        # integer in [0, 1] is a bit, so integers need only min and max (NaN fails both)
        kind = raw.dtype.kind
        if kind == "f":
            bits = bool(np.all((raw == 0) | (raw == 1)))
        else:
            bits = kind in "biu" and (kind in "bu" or raw.min() >= 0) and raw.max() <= 1
        if not bits:
            raise InputError("table entries must be 0 or 1")
        object.__setattr__(self, "table", raw.astype(np.uint8, copy=False))

    @property
    def is_constant(self) -> bool:
        return bool(np.all(self.table == self.table.flat[0]))

    def transpose(self) -> "BooleanTable":
        return BooleanTable(self.n, self.table.T)

    def complement(self) -> "BooleanTable":
        return BooleanTable(self.n, 1 - self.table)


# ---------------------------------------------------------------------------
# Formula parsing.  Grammar (precedence NOT > AND > OR, left-associative):
#   or   := and ('|' and)*
#   and  := not ('&' not)*
#   not  := '!' not | var | '(' or ')'
# Unicode aliases: NOT ¬, AND ∧, OR ∨.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    side: str  # "t" or "v"
    index: int  # 1-based


@dataclass(frozen=True)
class Not:
    child: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


_ALIASES = {"¬": "!", "∧": "&", "∨": "|"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = _ALIASES.get(text[i], text[i])
        if ch.isspace():
            i += 1
            continue
        if ch in "!&|()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch in "tv":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise InputError(f"expected a variable index after {ch!r} at position {i}")
            index = int(text[i + 1 : j])
            if index < 1:
                raise InputError(f"variable indices start at 1, got {text[i:j]!r} at position {i}")
            tokens.append(("var", text[i:j], i))
            i = j
            continue
        raise InputError(f"unexpected character {text[i]!r} at position {i}")
    return tokens


def parse_formula(text: str):
    """Parse a boolean formula over variables t1..tn, v1..vn."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take(expected: str | None = None):
        nonlocal pos
        if pos >= len(tokens):
            raise InputError(f"unexpected end of input at position {len(text)}")
        kind, value, at = tokens[pos]
        if expected is not None and kind != expected:
            raise InputError(f"expected {expected!r} but found {value!r} at position {at}")
        pos += 1
        return kind, value, at

    def parse_or():
        node = parse_and()
        while peek() == "|":
            take()
            node = Or(node, parse_and())
        return node

    def parse_and():
        node = parse_not()
        while peek() == "&":
            take()
            node = And(node, parse_not())
        return node

    def parse_not():
        if peek() == "!":
            take()
            return Not(parse_not())
        if peek() == "(":
            take()
            node = parse_or()
            take(")")
            return node
        kind, value, at = take()
        if kind != "var":
            raise InputError(f"expected a variable or '(' but found {value!r} at position {at}")
        return Var(side=value[0], index=int(value[1:]))

    node = parse_or()
    if pos < len(tokens):
        kind, value, at = tokens[pos]
        raise InputError(f"unexpected trailing token {value!r} at position {at}")
    return node


def formula_max_index(ast) -> int:
    if isinstance(ast, Var):
        return ast.index
    if isinstance(ast, Not):
        return formula_max_index(ast.child)
    return max(formula_max_index(ast.left), formula_max_index(ast.right))


def _eval_formula(ast, t_bits: np.ndarray, v_bits: np.ndarray) -> np.ndarray:
    if isinstance(ast, Var):
        bits = t_bits if ast.side == "t" else v_bits
        return bits[..., ast.index - 1].astype(bool)
    if isinstance(ast, Not):
        return ~_eval_formula(ast.child, t_bits, v_bits)
    if isinstance(ast, And):
        return _eval_formula(ast.left, t_bits, v_bits) & _eval_formula(ast.right, t_bits, v_bits)
    if isinstance(ast, Or):
        return _eval_formula(ast.left, t_bits, v_bits) | _eval_formula(ast.right, t_bits, v_bits)
    raise InputError(f"unknown formula node {type(ast).__name__}")


def bit_patterns(n: int) -> np.ndarray:
    """All 2^n assignments as an array of shape (2^n, n); bit 0 is variable 1."""
    idx = np.arange(2**n)
    return ((idx[:, np.newaxis] >> np.arange(n)) & 1).astype(np.float64)


def table_from_formula(ast, n: int) -> BooleanTable:
    """Evaluate a formula on all 2^(2n) assignments; rows index the text bits."""
    needed = formula_max_index(ast)
    if needed > n:
        raise InputError(f"formula uses variable index {needed} but n={n}")
    size = table_side(n)
    patterns = bit_patterns(n).astype(np.int64)
    t_bits = patterns[:, np.newaxis, :]  # (size, 1, n)
    v_bits = patterns[np.newaxis, :, :]  # (1, size, n)
    values = _eval_formula(ast, t_bits, v_bits)
    table = np.broadcast_to(values, (size, size)).astype(np.uint8)
    return BooleanTable(n=n, table=table.copy())


# ---------------------------------------------------------------------------
# Representability.
# ---------------------------------------------------------------------------


def _coerce_table(table) -> np.ndarray:
    if isinstance(table, BooleanTable):
        return table.table
    arr = np.asarray(table, dtype=np.uint8)
    if arr.ndim != 2:
        raise InputError("table must be 2-D")
    return arr


def all_tables(n: int) -> np.ndarray:
    """Every table of size n as a ``(tables, rows, cols)`` stack; table k's cell j is bit j of k."""
    size = table_side(n)
    cells = size * size
    if cells > 16:
        raise InputError(f"census enumerates 2^(2^(2n)) tables; n={n} is out of reach")
    codes = np.arange(2**cells)[:, np.newaxis]
    return ((codes >> np.arange(cells)) & 1).astype(np.uint8).reshape(-1, size, size)


def is_representable(table) -> bool:
    """Fast combinatorial check for threshold representability.

    True iff no 2x2 submatrix is an exclusive-or pattern, i.e. the rows form
    a chain under elementwise <=.  Rows are sorted by their number of ones;
    in a chain that order respects inclusion, so it suffices to check that
    each row is contained in the next.  The one-table case of
    ``is_representable_many``.
    """
    return bool(is_representable_many(_coerce_table(table)[np.newaxis])[0])


def is_representable_many(tables: np.ndarray) -> np.ndarray:
    """``is_representable`` for each table of a ``(tables, rows, cols)`` stack."""
    rows = np.asarray(tables).astype(bool)
    order = np.argsort(rows.sum(axis=2), axis=1, kind="stable")
    sorted_rows = rows[np.arange(len(rows))[:, np.newaxis], order]
    smaller, larger = sorted_rows[:, :-1], sorted_rows[:, 1:]
    return ~np.any(smaller & ~larger, axis=(1, 2))


def _threshold_search(tables: np.ndarray):
    """Decide the threshold system of each table in a stack: ``(feasible, potentials)``.

    With ``psi_j = theta - phi_j`` a 1-cell reads ``psi_j - tau_i <= -1`` and
    a 0-cell ``tau_i - psi_j <= 0``: difference constraints, feasible iff
    their graph (an edge ``tau_i -> psi_j`` of weight -1 per 1-cell and
    ``psi_j -> tau_i`` of weight 0 per 0-cell) has no negative cycle.
    Bellman-Ford from a virtual source starts every distance at 0; with no
    negative cycle it settles within one pass per node, so a table is
    feasible iff a pass changes none of its distances within ``rows + cols``
    passes.  All tables relax together, and a settled one leaves the stack.
    A feasible table's potentials hold the row distances then the column
    distances, and ``tau = d[rows]``, ``phi = -d[cols]``, ``theta = 0``
    reproduce it.
    """
    ones = np.asarray(tables).astype(bool)
    n_tables, n_rows, n_cols = ones.shape
    feasible = np.zeros(n_tables, dtype=bool)
    potentials = np.zeros((n_tables, n_rows + n_cols), dtype=np.int64)
    active = np.arange(n_tables)
    d_rows = np.zeros((n_tables, n_rows), dtype=np.int64)
    d_cols = np.zeros((n_tables, n_cols), dtype=np.int64)
    for _ in range(n_rows + n_cols):
        # distances never rise above 0, so 0 is a neutral ceiling for a node with no edge in
        new_cols = np.minimum(d_cols, np.where(ones, d_rows[:, :, None] - 1, 0).min(axis=1, initial=0))
        new_rows = np.minimum(d_rows, np.where(ones, 0, d_cols[:, None, :]).min(axis=2, initial=0))
        settled = (new_cols == d_cols).all(axis=1) & (new_rows == d_rows).all(axis=1)
        d_rows, d_cols = new_rows, new_cols
        if settled.any():
            feasible[active[settled]] = True
            potentials[active[settled]] = np.concatenate([d_rows[settled], d_cols[settled]], axis=1)
            moving = ~settled
            active, ones, d_rows, d_cols = active[moving], ones[moving], d_rows[moving], d_cols[moving]
            if not active.size:
                break
    return feasible, potentials


def _threshold_potentials(arr: np.ndarray) -> np.ndarray | None:
    """One table's shortest-path potentials (``_threshold_search``), or None when it is infeasible."""
    feasible, potentials = _threshold_search(np.asarray(arr)[np.newaxis])
    return potentials[0] if feasible[0] else None


def representable_oracle(table) -> bool:
    """Exact decision of the threshold system (independent oracle).

    Searches for tau, phi, theta with ``tau_i + phi_j >= theta + 1`` on
    1-cells and ``tau_i + phi_j <= theta`` on 0-cells; the system is
    scale-free, so the unit margin loses no generality.  It is decided in
    integer arithmetic as a system of difference constraints
    (``_threshold_search``), with no tolerance and no use of the row
    chain that ``is_representable`` tests.  Limited to tables with at most
    ``ORACLE_SIDE_LIMIT`` (16) rows/columns per side.  The one-table case of
    ``representable_oracle_many``.
    """
    return bool(representable_oracle_many(_coerce_table(table)[np.newaxis])[0])


def representable_oracle_many(tables: np.ndarray) -> np.ndarray:
    """``representable_oracle`` for each table of a ``(tables, rows, cols)`` stack."""
    tables = np.asarray(tables)
    if tables.shape[1] > ORACLE_SIDE_LIMIT or tables.shape[2] > ORACLE_SIDE_LIMIT:
        raise CapabilityError(
            f"oracle limited to {ORACLE_SIDE_LIMIT} rows/columns per side, got {tables.shape[1:]}"
        )
    return _threshold_search(tables)[0]


# ---------------------------------------------------------------------------
# Sampling.
# ---------------------------------------------------------------------------


def random_circuit(n: int, rng: np.random.Generator, max_depth: int = 6):
    """Random AND/OR/NOT formula tree over t1..tn, v1..vn."""
    if max_depth <= 0 or rng.random() < 0.3:
        side = "t" if rng.random() < 0.5 else "v"
        leaf = Var(side=side, index=int(rng.integers(1, n + 1)))
        return Not(leaf) if rng.random() < 0.5 else leaf
    gate = And if rng.random() < 0.5 else Or
    return gate(random_circuit(n, rng, max_depth - 1), random_circuit(n, rng, max_depth - 1))


def sample_table(n: int, seed, require_nonconstant: bool = False, sampler: str = "uniform") -> BooleanTable:
    """Draw a random truth table.

    ``sampler="uniform"`` draws every cell independently (the default
    measure for the collapse experiments); ``sampler="circuit"`` evaluates a
    random bounded-depth gate tree instead, for sensitivity analysis.
    """
    size = table_side(n)
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        if sampler == "uniform":
            table = BooleanTable(n, rng.integers(0, 2, size=(size, size), dtype=np.uint8))
        elif sampler == "circuit":
            table = table_from_formula(random_circuit(n, rng), n)
        else:
            raise InputError(f"unknown sampler {sampler!r}")
        if not require_nonconstant or not table.is_constant:
            return table
    raise GenerationError("could not sample a nonconstant table in 1000 attempts")


# ---------------------------------------------------------------------------
# Additive fit quality.
# ---------------------------------------------------------------------------


def _boost_train_scores(tables: np.ndarray, restriction: str, cfg: AdaBoostConfig | None) -> np.ndarray:
    """Training scores of boosting on every cell of each table of a stack, row-major.

    The tables boost side by side through ``boosting.boost_batch``.  When
    the depth budget covers the bits a weak learner reads, the candidates
    are the per-row (text), per-column (visual) or per-cell (full) weighted
    majorities that such a tree fits, so no tree is built.  Their class
    sums come from one ``np.bincount`` with a bin per (table, class, group);
    bincount adds in element order, so every sum is the one the table alone
    would get.  A shallower budget fits greedy trees on the cells' bits, one
    table at a time, inside the same loop.  ``cfg`` defaults to ``AdaBoostConfig()``.
    """
    # imported here, so that the census and the formula check never load the boosting code
    from .boosting import AdaBoostConfig, boost_batch, full_boost_round, presort, unimodal_restricted_boost_round
    cfg = cfg or AdaBoostConfig()
    n = tables.shape[1].bit_length() - 1
    y = tables.reshape(len(tables), -1)
    bits_read = n if restriction == "unimodal" else 2 * n
    if cfg.max_depth >= bits_read:
        size, cells = 2**n, np.arange(y.shape[1])
        groups = [(cells, cells.size)] if restriction == "full" else [(cells // size, size), (cells % size, size)]
        # table s sums class 1 of group k into bin 2 s n_groups + k, and class 0 n_groups bins later
        table_bins = 2 * np.arange(len(tables))[:, np.newaxis] + (y != 1)
        sides = [(g, n_groups, g + n_groups * table_bins) for g, n_groups in groups]

        def candidates(weights, rows):
            fits = []
            for g, n_groups, bins in sides:
                sums = np.bincount(bins[rows].ravel(), weights.ravel(), minlength=bins.shape[0] * 2 * n_groups)
                pos, neg = sums.reshape(-1, 2, n_groups)[rows].transpose(1, 0, 2)
                # ties go to -1, as a leaf's do
                fits.append((np.where(pos > neg, 1.0, -1.0)[:, g], None))
            return fits

    else:
        patterns = bit_patterns(n)
        text, visual = np.repeat(patterns, len(patterns), axis=0), np.tile(patterns, (len(patterns), 1))
        step = full_boost_round if restriction == "full" else unimodal_restricted_boost_round
        sides = presort(text, visual, restriction)

        def candidates(weights, rows):
            per_table = [step(w, sides, y[r], cfg.max_depth) for w, r in zip(weights, rows)]
            return [(np.stack([fits[k][0] for fits in per_table]), None) for k in range(len(per_table[0]))]

    _, scores, _, _ = boost_batch(np.where(y == 1, 1.0, -1.0), candidates, cfg.n_stages)
    return scores


def additive_fit_aucs(tables: np.ndarray, method: str, cfg: AdaBoostConfig | None = None) -> np.ndarray:
    """Train-set AUC of an additive (or reference) fit of each table of a (tables, rows, cols) stack.

    ``emap`` projects the 0/1 tables, as the channels of one grid, onto the
    additive family and ranks cells by the reconstructed scores; the
    adaboost methods train on all cells with the raw bits as features and
    report training AUC.
    """
    tables = np.asarray(tables)
    cells = tables.reshape(len(tables), -1)
    if (cells == cells[:, :1]).all(axis=1).any():
        raise UndefinedMetricError("AUC is undefined for a constant table")
    if method == "emap":
        grid = ScoreGrid(values=tables.transpose(1, 2, 0))
        scores = emap_decompose(grid).reconstruct().transpose(2, 0, 1)
    elif method in BOOSTED_METHODS:
        scores = _boost_train_scores(tables, method.removeprefix("adaboost_"), cfg)
    else:
        raise InputError(f"unknown method {method!r}")
    return auc_rows(scores.reshape(cells.shape), cells)


def additive_fit_auc(table: BooleanTable, method: str, cfg: AdaBoostConfig | None = None) -> float:
    """``additive_fit_aucs`` of one table."""
    return float(additive_fit_aucs(table.table[np.newaxis], method, cfg)[0])


@dataclass(frozen=True)
class SweepRow:
    n: int
    method: str
    mean_auc: float
    std_auc: float
    samples: int


def run_size_sweep(
    n_values, samples_per_n: int, seed: int, cfg: AdaBoostConfig | None = None, sampler: str = "uniform"
) -> list[SweepRow]:
    """Mean/std additive-fit AUC per problem size for each method.

    The samples of one n are batched: every method fits the stack of a
    chunk of at most ``_CHUNK_CELLS`` cells at once.  Each sample's RNG
    is derived from (seed, n, sample index) and each table boosts as it
    would alone, so a sample's result does not depend on the other samples
    or on the chunking.  Only nonconstant tables are drawn.
    """
    if samples_per_n < 1:
        raise InputError("samples_per_n must be >= 1")
    n_values = list(n_values)
    for n in n_values:
        table_side(n)  # refuse an out-of-reach size before any sample runs
    rows = []
    for n in n_values:
        chunks = {m: [] for m in SWEEP_METHODS}
        per_chunk = max(1, _CHUNK_CELLS // table_side(n) ** 2)
        for first in range(0, samples_per_n, per_chunk):
            tables = np.stack([
                sample_table(
                    n, np.random.SeedSequence([seed, n, i]), require_nonconstant=True, sampler=sampler
                ).table
                for i in range(first, min(first + per_chunk, samples_per_n))
            ])
            for m in SWEEP_METHODS:
                chunks[m].append(additive_fit_aucs(tables, m, cfg))
        for m in SWEEP_METHODS:
            aucs = np.concatenate(chunks[m])
            rows.append(
                SweepRow(
                    n=n,
                    method=m,
                    mean_auc=float(aucs.mean()),
                    std_auc=float(aucs.std()),
                    samples=samples_per_n,
                )
            )
    return rows


def write_sweep_csv(rows: list[SweepRow], path) -> None:
    lines = ["n,method,mean_auc,std_auc,samples"]
    for row in rows:
        lines.append(f"{row.n},{row.method},{row.mean_auc!r},{row.std_auc!r},{row.samples}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

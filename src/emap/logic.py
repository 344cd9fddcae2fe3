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
Each refuses an entry other than 0 or 1.  A formula compiles to a postfix
program that one loop over a value stack runs, so any depth evaluates.

The additive-fit experiment measures how well three surrogates rank the
cells of random tables: the least-squares additive projection of the table
itself, unimodal-restricted AdaBoost, and (as the interactive reference)
unrestricted AdaBoost.  The sweep stacks every sampled table of one size,
up to a chunk of ``_CHUNK_CELLS`` cells.  The projection takes the tables
as the channels of one ``emap_decompose`` call, and both boosted methods
run them through the one stage loop, ``boosting.boost_batch``.  Their
weak learners are the trees that read every bit their side allows, whose
leaves are single rows, columns or cells, so each round's candidates are
per-row, per-column or per-cell weighted majorities and no tree is built.
One ``metrics.auc_rows`` call ranks every table's cells.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import MAX_TABLE_N
from .exceptions import InputError, UndefinedMetricError
from .grid import ScoreGrid, emap_decompose
from .metrics import auc_rows

__all__ = [
    "MAX_TABLE_N",
    "table_side",
    "BooleanTable",
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


def _bits(tables) -> np.ndarray:
    """Tables, or a stack of them, as uint8, refusing any entry that is not 0 or 1."""
    raw = np.asarray(tables)
    # checked before the uint8 cast, which wraps 256 and truncates 0.5 to 0; integers need only min and max
    kind = raw.dtype.kind
    if kind == "f":
        bits = bool(np.all((raw == 0) | (raw == 1)))
    else:
        bits = kind in "biu" and (kind in "bu" or raw.min(initial=0) >= 0) and raw.max(initial=0) <= 1
    if not bits:
        raise InputError("table entries must be 0 or 1")
    return raw.astype(np.uint8, copy=False)


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
        object.__setattr__(self, "table", _bits(raw))

    @property
    def is_constant(self) -> bool:
        return bool(np.all(self.table == self.table.flat[0]))

    def transpose(self) -> "BooleanTable":
        return BooleanTable(self.n, self.table.T)

    def complement(self) -> "BooleanTable":
        return BooleanTable(self.n, 1 - self.table)


# ---------------------------------------------------------------------------
# Formulas.  Grammar (precedence NOT > AND > OR, left-associative):
#   or   := and ('|' and)*
#   and  := not ('&' not)*
#   not  := '!' not | var | '(' or ')'
# Unicode aliases: NOT ¬, AND ∧, OR ∨.  A formula compiles to its postfix
# program by Dijkstra's shunting-yard algorithm and runs on one value stack;
# neither step recurses, so a formula of any depth evaluates.
# ---------------------------------------------------------------------------


_ALIASES = {"¬": "!", "∧": "&", "∨": "|"}
# how tightly each operator binds; '(' binds least, so no operator pops it off the stack
_BINDING = {"(": 0, "|": 1, "&": 2, "!": 3}
_GATES = {"!": operator.inv, "&": operator.and_, "|": operator.or_}


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


def parse_formula(text: str) -> tuple:
    """Compile a boolean formula over variables t1..tn, v1..vn to its postfix program.

    The program is a tuple of ops: ``("t", i)`` or ``("v", i)`` pushes variable
    i of that side, ``"!"`` negates the top of the stack, and ``"&"`` and
    ``"|"`` replace its top two values by their AND or OR.  ``t1 & !v1``
    compiles to ``(("t", 1), ("v", 1), "!", "&")``.
    """
    program, pending = [], []  # the ops emitted, and the operators and '(' not yet emitted
    operand, depth = True, 0  # whether an operand must come next; the open '(' count
    for kind, value, at in _tokenize(text):
        if operand:
            if kind == "var":
                program.append((value[0], int(value[1:])))
                operand = False
            elif kind in ("!", "("):
                pending.append(kind)
                depth += kind == "("
            else:
                raise InputError(f"expected a variable or '(' but found {value!r} at position {at}")
        elif kind in ("&", "|"):
            while pending and _BINDING[pending[-1]] >= _BINDING[kind]:
                program.append(pending.pop())
            pending.append(kind)
            operand = True
        elif kind == ")" and depth:
            while pending[-1] != "(":
                program.append(pending.pop())
            pending.pop()
            depth -= 1
        elif depth:
            raise InputError(f"expected ')' but found {value!r} at position {at}")
        else:
            raise InputError(f"unexpected trailing token {value!r} at position {at}")
    if operand or depth:
        raise InputError(f"unexpected end of input at position {len(text)}")
    return tuple(program + pending[::-1])


def _is_op(op) -> bool:
    """Whether ``op`` is a gate or a ``(side, index)`` variable of a postfix program."""
    if isinstance(op, str):
        return op in _GATES
    return (isinstance(op, tuple) and len(op) == 2 and isinstance(op[0], str) and op[0] in ("t", "v")
            and isinstance(op[1], (int, np.integer)))


def table_from_formula(program, n: int) -> BooleanTable:
    """Run a formula's postfix program (``parse_formula``) on all 2^(2n) assignments; rows index the text bits."""
    program = tuple(program)
    for op in program:
        if not _is_op(op):
            raise InputError(f"formula op {op!r} is neither a variable nor a gate")
    needed = max((op[1] for op in program if isinstance(op, tuple)), default=0)
    if needed > n:
        raise InputError(f"formula uses variable index {needed} but n={n}")
    size = table_side(n)
    bits = ((np.arange(size)[:, np.newaxis] >> np.arange(n)) & 1).astype(bool)  # (size, n); bit 0 is variable 1
    leaves = {("t", k + 1): bits[:, k, np.newaxis] for k in range(n)}
    leaves |= {("v", k + 1): bits[np.newaxis, :, k] for k in range(n)}
    values = []
    for op in program:
        if op in leaves:
            values.append(leaves[op])
            continue
        arity = 1 if op == "!" else 2
        if op not in _GATES or len(values) < arity:
            raise InputError(f"formula op {op!r} is neither a variable of n={n} nor a gate with its operands")
        values[-arity:] = [_GATES[op](*values[-arity:])]
    if len(values) != 1:
        raise InputError(f"formula program leaves {len(values)} values, not one")
    return BooleanTable(n, np.broadcast_to(values[0], (size, size)).astype(np.uint8))


# ---------------------------------------------------------------------------
# Representability.
# ---------------------------------------------------------------------------


def _coerce_table(table) -> np.ndarray:
    arr = _bits(table.table if isinstance(table, BooleanTable) else table)
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
    rows = _bits(tables).astype(bool)
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
    tables = _bits(tables)
    if tables.shape[1] > ORACLE_SIDE_LIMIT or tables.shape[2] > ORACLE_SIDE_LIMIT:
        raise InputError(
            f"oracle limited to {ORACLE_SIDE_LIMIT} rows/columns per side, got {tables.shape[1:]}"
        )
    return _threshold_search(tables)[0]


# ---------------------------------------------------------------------------
# Sampling.
# ---------------------------------------------------------------------------


def random_circuit(n: int, rng: np.random.Generator, max_depth: int = 6) -> tuple:
    """Random AND/OR formula over t1..tn, v1..vn whose leaves may be negated, as a postfix program."""
    if max_depth <= 0 or rng.random() < 0.3:
        side = "t" if rng.random() < 0.5 else "v"
        leaf = ((side, int(rng.integers(1, n + 1))),)
        return leaf + ("!",) if rng.random() < 0.5 else leaf
    gate = "&" if rng.random() < 0.5 else "|"
    return random_circuit(n, rng, max_depth - 1) + random_circuit(n, rng, max_depth - 1) + (gate,)


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
    raise InputError("could not sample a nonconstant table in 1000 attempts")


# ---------------------------------------------------------------------------
# Additive fit quality.
# ---------------------------------------------------------------------------


def _boost_train_scores(tables: np.ndarray, restriction: str, n_stages: int) -> np.ndarray:
    """Training scores of boosting on every cell of each table of a stack, row-major.

    The tables boost side by side through ``boosting.boost_batch``.  A weak
    learner is the tree that reads every bit its side allows: its leaves are
    the table's rows (text), columns (visual) or cells (full), so it is the
    per-row, per-column or per-cell weighted majority and no tree is built.
    Their class sums come from one ``np.bincount`` with a bin per (table,
    class, group); bincount adds in element order, so every sum is the one
    the table alone would get.
    """
    # imported here, so that the census and the formula check never load the boosting code
    from .boosting import boost_batch

    y = tables.reshape(len(tables), -1)
    size, cells = tables.shape[1], np.arange(y.shape[1])
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

    _, scores, _, _ = boost_batch(np.where(y == 1, 1.0, -1.0), candidates, n_stages)
    return scores


def additive_fit_aucs(tables: np.ndarray, method: str, n_stages: int = 200) -> np.ndarray:
    """Train-set AUC of an additive (or reference) fit of each table of a (tables, rows, cols) stack.

    ``emap`` projects the 0/1 tables, as the channels of one grid, onto the
    additive family and ranks cells by the reconstructed scores; the
    adaboost methods boost for at most ``n_stages`` rounds on all cells with
    the raw bits as features and report training AUC.
    """
    if n_stages < 1:
        raise InputError(f"n_stages must be >= 1, got {n_stages}")
    tables = _bits(tables)
    cells = tables.reshape(len(tables), -1)
    if (cells == cells[:, :1]).all(axis=1).any():
        raise UndefinedMetricError("AUC is undefined for a constant table")
    if method == "emap":
        grid = ScoreGrid(values=tables.transpose(1, 2, 0))
        scores = emap_decompose(grid).reconstruct().transpose(2, 0, 1)
    elif method in BOOSTED_METHODS:
        scores = _boost_train_scores(tables, method.removeprefix("adaboost_"), n_stages)
    else:
        raise InputError(f"unknown method {method!r}")
    return auc_rows(scores.reshape(cells.shape), cells)


def additive_fit_auc(table: BooleanTable, method: str, n_stages: int = 200) -> float:
    """``additive_fit_aucs`` of one table."""
    return float(additive_fit_aucs(table.table[np.newaxis], method, n_stages)[0])


@dataclass(frozen=True)
class SweepRow:
    n: int
    method: str
    mean_auc: float
    std_auc: float
    samples: int


def run_size_sweep(
    n_values, samples_per_n: int, seed: int, n_stages: int = 200, sampler: str = "uniform"
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
                chunks[m].append(additive_fit_aucs(tables, m, n_stages))
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

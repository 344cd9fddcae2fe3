"""Boolean representability analysis and additive-fit experiments."""

import collections

import numpy as np
import pytest

from emap import logic
from emap.exceptions import InputError, UndefinedMetricError
from emap.grid import ScoreGrid, emap_decompose
from emap.logic import (
    ORACLE_SIDE_LIMIT,
    And,
    BooleanTable,
    Not,
    Or,
    Var,
    additive_fit_auc,
    additive_fit_aucs,
    all_tables,
    is_representable,
    is_representable_many,
    parse_formula,
    representable_oracle,
    representable_oracle_many,
    run_size_sweep,
    sample_table,
    table_from_formula,
    write_sweep_csv,
)
from emap.logic import _threshold_potentials
from emap.metrics import auc_binary

SURPRISING_N2 = "(t2 & !v2) | (t1 & t2 & v1) | (!t1 & !v1 & !v2)"

XOR = BooleanTable(1, np.array([[0, 1], [1, 0]]))
XNOR = BooleanTable(1, np.array([[1, 0], [0, 1]]))
AND_TABLE = BooleanTable(1, np.array([[0, 0], [0, 1]]))


def all_n1_tables():
    for code in range(16):
        bits = np.array([(code >> k) & 1 for k in range(4)], dtype=np.uint8)
        yield code, BooleanTable(1, bits.reshape(2, 2))


class TestParser:
    def test_simple_and_not(self):
        assert parse_formula("t1 & !v1") == And(Var("t", 1), Not(Var("v", 1)))

    def test_precedence_not_over_and_over_or(self):
        assert parse_formula("t1 | t2 & v1") == Or(Var("t", 1), And(Var("t", 2), Var("v", 1)))
        assert parse_formula("!t1 & v1") == And(Not(Var("t", 1)), Var("v", 1))

    def test_left_associativity(self):
        assert parse_formula("t1 | t2 | v1") == Or(Or(Var("t", 1), Var("t", 2)), Var("v", 1))

    def test_unicode_aliases(self):
        assert parse_formula("¬t1 ∧ v1") == parse_formula("!t1 & v1")
        assert parse_formula("t1 ∨ v2") == parse_formula("t1 | v2")

    def test_three_clause_example(self):
        ast = parse_formula(SURPRISING_N2)
        clauses = []

        def flatten(node):
            if isinstance(node, Or):
                flatten(node.left)
                flatten(node.right)
            else:
                clauses.append(node)

        flatten(ast)
        assert len(clauses) == 3

    def test_trailing_operator_is_an_error(self):
        with pytest.raises(InputError, match="end of input"):
            parse_formula("t1 &")

    def test_error_positions(self):
        with pytest.raises(InputError, match="position 3"):
            parse_formula("t1 ? v1")
        with pytest.raises(InputError, match="indices start at 1"):
            parse_formula("t0 & v1")

    def test_unbalanced_parens(self):
        with pytest.raises(InputError):
            parse_formula("(t1 & v1")


class TestTables:
    def test_single_variable_table(self):
        table = table_from_formula(parse_formula("t1"), 1)
        np.testing.assert_array_equal(table.table, [[0, 0], [1, 1]])
        table_v = table_from_formula(parse_formula("v1"), 1)
        np.testing.assert_array_equal(table_v.table, [[0, 1], [0, 1]])

    def test_xor_table(self):
        table = table_from_formula(parse_formula("(t1 & !v1) | (!t1 & v1)"), 1)
        np.testing.assert_array_equal(table.table, XOR.table)

    def test_example_clause_evaluation(self):
        # at t=(1,1), v=(1,0) the first clause t2 & !v2 is true
        table = table_from_formula(parse_formula(SURPRISING_N2), 2)
        t_index = 0b11
        v_index = 0b01
        assert table.table[t_index, v_index] == 1

    def test_undeclared_variable(self):
        with pytest.raises(InputError, match="variable index 3"):
            table_from_formula(parse_formula("t3"), 2)

    def test_bad_table_shapes(self):
        with pytest.raises(InputError):
            BooleanTable(1, np.zeros((2, 3)))
        with pytest.raises(InputError):
            BooleanTable(1, np.array([[0, 2], [0, 0]]))

    @pytest.mark.parametrize(
        "bad",
        [
            [[0.5, 1], [0, 1]],
            [[2, 1], [0, 1]],
            np.array([[256, 1], [0, 1]]),
            np.array([[-1, 1], [0, 1]]),
            np.array([[0, 1], [0, 2]], dtype=np.uint8),
            np.array([[0, 1], [0, -1.0]]),
            np.array([[0, 1], [0, np.nan]]),
            np.array([["0", "1"], ["1", "0"]]),
        ],
        ids=["half", "two", "256", "minus-one", "uint8-two", "float-minus-one", "nan", "strings"],
    )
    def test_entries_are_checked_before_the_uint8_cast(self, bad):
        # a cast first would truncate 0.5 to 0 and wrap 256 to 0
        with pytest.raises(InputError, match="0 or 1"):
            BooleanTable(1, bad)

    @pytest.mark.parametrize(
        "bits",
        [
            np.array([[False, True], [True, False]]),
            np.array([[0, 1], [1, 0]], dtype=np.uint8),
            np.array([[0, 1], [1, 0]], dtype=np.int64),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            [[0, 1], [1, 0]],
        ],
        ids=["bool", "uint8", "int64", "float", "list"],
    )
    def test_every_bit_dtype_becomes_the_same_uint8_table(self, bits):
        table = BooleanTable(1, bits)
        assert table.table.dtype == np.uint8
        assert table.table.tobytes() == XOR.table.tobytes()


class TestRepresentability:
    def test_census_is_14_of_16(self):
        results = {code: is_representable(t) for code, t in all_n1_tables()}
        assert sum(results.values()) == 14
        failures = {code for code, ok in results.items() if not ok}
        xor_code = sum(int(XOR.table.ravel()[k]) << k for k in range(4))
        xnor_code = sum(int(XNOR.table.ravel()[k]) << k for k in range(4))
        assert failures == {xor_code, xnor_code}

    def test_oracle_agrees_on_all_n1_tables(self):
        for _, table in all_n1_tables():
            assert is_representable(table) == representable_oracle(table)

    def test_and_is_representable(self):
        assert representable_oracle(AND_TABLE)
        assert is_representable(AND_TABLE)

    def test_constant_tables_representable(self):
        assert is_representable(BooleanTable(2, np.zeros((4, 4), dtype=np.uint8)))
        assert is_representable(BooleanTable(2, np.ones((4, 4), dtype=np.uint8)))

    def test_surprising_n2_example(self):
        table = table_from_formula(parse_formula(SURPRISING_N2), 2)
        assert not table.is_constant
        assert is_representable(table)
        assert representable_oracle(table)

    def test_oracle_agrees_on_random_tables(self):
        for n in (2, 3):
            for i in range(300):
                table = sample_table(n, np.random.SeedSequence([99, n, i]))
                assert is_representable(table) == representable_oracle(table)

    def test_batched_checks_match_one_table_calls(self):
        tables = [t for _, t in all_n1_tables()]
        for seed, n, count in ((3, 1, 16), (4, 2, 300)):
            tables += list(seeded_tables(n, count, seed))
        for size in (2, 4):
            stack = np.stack([t.table for t in tables if t.table.shape[0] == size])
            chain = [is_representable(t) for t in stack]
            assert is_representable_many(stack).tolist() == chain
            assert representable_oracle_many(stack).tolist() == [representable_oracle(t) for t in stack]
            assert 0 < sum(chain) < len(stack)

    def test_oracle_size_limit(self):
        with pytest.raises(InputError, match="oracle limited"):
            representable_oracle(BooleanTable(5, np.zeros((32, 32), dtype=np.uint8)))

    def test_symmetry_under_transpose_and_complement(self):
        rng_seeds = range(200)
        for i in rng_seeds:
            table = sample_table(2, np.random.SeedSequence([5, i]))
            rep = is_representable(table)
            assert is_representable(table.transpose()) == rep
            assert is_representable(table.complement()) == rep


def linprog_oracle(table: BooleanTable) -> bool:
    """The threshold system as a linear feasibility problem, solved by scipy (reference only)."""
    from scipy.optimize import linprog

    arr = table.table
    n_rows, n_cols = arr.shape
    rows_a, rhs = [], []
    for i in range(n_rows):
        for j in range(n_cols):
            coef = np.zeros(n_rows + n_cols + 1)  # tau, phi, theta
            sign = -1.0 if arr[i, j] else 1.0
            coef[i], coef[n_rows + j], coef[-1] = sign, sign, -sign
            rows_a.append(coef)
            rhs.append(-1.0 if arr[i, j] else 0.0)
    result = linprog(
        c=np.zeros(n_rows + n_cols + 1),
        A_ub=np.asarray(rows_a),
        b_ub=np.asarray(rhs),
        bounds=[(None, None)] * (n_rows + n_cols + 1),
        method="highs",
    )
    assert result.status in (0, 2), result.message
    return result.status == 0


def seeded_tables(n: int, count: int, seed: int):
    """Alternately a uniform table and a threshold table from random integer tau, phi, theta."""
    size = 2**n
    for i in range(count):
        rng = np.random.default_rng([seed, n, i])
        if i % 2 == 0:
            yield sample_table(n, rng)
        else:
            tau, phi = rng.integers(-3, 4, size), rng.integers(-3, 4, size)
            theta = rng.integers(-3, 4)
            yield BooleanTable(n, (tau[:, None] + phi[None, :] > theta).astype(np.uint8))


class TestExactOracle:
    def test_matches_linprog_reference(self):
        tables = [t for _, t in all_n1_tables()]
        tables += list(seeded_tables(2, 100, 17)) + list(seeded_tables(3, 100, 17))
        verdicts = [representable_oracle(t) for t in tables]
        assert verdicts == [linprog_oracle(t) for t in tables]
        assert 0 < sum(verdicts[16:]) < 200  # both verdicts occur beyond n = 1

    def test_potentials_are_a_witness(self):
        tables = [t for _, t in all_n1_tables()] + list(seeded_tables(2, 300, 23))
        witnessed = 0
        for table in tables:
            d = _threshold_potentials(table.table)
            assert (d is not None) == is_representable(table)
            if d is None:
                continue
            size = table.table.shape[0]
            tau, phi = d[:size], -d[size:]
            assert d.dtype == np.int64
            np.testing.assert_array_equal(
                (tau[:, None] + phi[None, :] > 0).astype(np.uint8), table.table
            )
            witnessed += 1
        assert witnessed > 150

    def test_decides_at_the_side_limit(self):
        n = ORACLE_SIDE_LIMIT.bit_length() - 1
        table = sample_table(n, 3)
        assert representable_oracle(table) == is_representable(table)
        staircase = BooleanTable(n, np.tri(2**n, dtype=np.uint8))
        assert representable_oracle(staircase)


class TestSampling:
    def test_xor_frequency_matches_uniform_measure(self):
        """Uniform n=1 sampling hits the two non-representable patterns ~2/16 of the time."""
        hits = 0
        trials = 4000
        for i in range(trials):
            table = sample_table(1, np.random.SeedSequence([3, i]))
            hits += not is_representable(table)
        assert 0.095 <= hits / trials <= 0.155

    def test_require_nonconstant(self):
        for i in range(200):
            table = sample_table(1, np.random.SeedSequence([4, i]), require_nonconstant=True)
            assert not table.is_constant

    def test_collapse_at_n3(self):
        hits = sum(
            is_representable(sample_table(3, np.random.SeedSequence([6, i]), require_nonconstant=True))
            for i in range(1000)
        )
        assert hits / 1000 < 0.02

    def test_circuit_sampler(self):
        table = sample_table(2, 0, sampler="circuit")
        assert table.table.shape == (4, 4)
        with pytest.raises(InputError):
            sample_table(2, 0, sampler="mystery")

    def test_determinism(self):
        a = sample_table(3, 123)
        b = sample_table(3, 123)
        np.testing.assert_array_equal(a.table, b.table)


class TestAdditiveFit:
    def test_representable_n1_tables_get_perfect_emap_auc(self):
        """Exhaustive at n=1: every nonconstant representable table ranks perfectly."""
        count = 0
        for _, table in all_n1_tables():
            if table.is_constant or not is_representable(table):
                continue
            count += 1
            assert additive_fit_auc(table, "emap") == 1.0
        assert count == 12

    def test_representable_n2_tables_rank_near_perfectly(self):
        """Exhaustive at n=2: representability bounds the projection's ranking error.

        The projection of a representable table can tie a 1-cell with a
        0-cell (the least-squares scores are not the separating threshold
        scores), so AUC = 1.0 is not guaranteed; the exact worst case over
        all 6900 nonconstant representable 4x4 tables is 95/96.  Conversely
        a perfect AUC certifies a separating additive score, so AUC = 1.0
        implies representability.
        """
        tables = all_tables(2)[1:-1]  # codes 0 and 2^16 - 1 are the two constant tables
        aucs = additive_fit_aucs(tables, "emap")
        representable = is_representable_many(tables)
        count = int(representable.sum())
        worst = aucs[representable].min()
        assert np.all(aucs[representable] >= 95.0 / 96.0)
        assert np.all(aucs[~representable] < 1.0)
        assert count == 6900
        assert worst == 95.0 / 96.0

    # a sweep chunk of _CHUNK_CELLS cells holds exactly one n = 8 table
    @pytest.mark.parametrize("n, count", [(1, 30), (2, 30), (3, 30), (4, 30), (8, 2)])
    def test_stacked_projection_equals_each_table_alone(self, n, count):
        """The tables of a stack are the channels of one decomposition; each keeps its one-table bits."""
        seeds = [np.random.SeedSequence([12, n, i]) for i in range(count)]
        tables = np.stack([sample_table(n, sq, require_nonconstant=True).table for sq in seeds])
        stacked = emap_decompose(ScoreGrid(values=tables.transpose(1, 2, 0))).reconstruct()
        expected = []
        for k, table in enumerate(tables):
            alone = emap_decompose(ScoreGrid(values=table.astype(np.float64)[:, :, np.newaxis])).reconstruct()
            assert stacked[:, :, k].tobytes() == alone[:, :, 0].tobytes()
            expected.append(auc_binary(alone.ravel(), table.ravel()))
        assert additive_fit_aucs(tables, "emap").tobytes() == np.array(expected).tobytes()

    def test_stack_with_a_constant_table_rejected(self):
        tables = np.stack([XOR.table, np.ones((2, 2), dtype=np.uint8)])
        with pytest.raises(UndefinedMetricError):
            additive_fit_aucs(tables, "adaboost_full")

    def test_unknown_method_rejected(self):
        with pytest.raises(InputError):
            additive_fit_auc(XOR, "mystery")

    def test_xor_emap_auc_is_chance(self):
        assert additive_fit_auc(XOR, "emap") == 0.5

    def test_full_adaboost_always_perfect(self):
        for i in range(30):
            table = sample_table(2, np.random.SeedSequence([8, i]), require_nonconstant=True)
            assert additive_fit_auc(table, "adaboost_full") == 1.0

    def test_xor_unimodal_auc_is_chance(self):
        assert additive_fit_auc(XOR, "adaboost_unimodal") == 0.5

    def test_constant_table_rejected(self):
        with pytest.raises(UndefinedMetricError):
            additive_fit_auc(BooleanTable(1, np.zeros((2, 2), dtype=np.uint8)), "emap")

    def test_corruption_weakly_decreases_emap_auc(self):
        """Flipping one cell to break representability does not help the projection."""
        rng = np.random.default_rng(9)
        diffs = []
        found = 0
        i = 0
        while found < 40 and i < 4000:
            table = sample_table(2, np.random.SeedSequence([10, i]), require_nonconstant=True)
            i += 1
            if not is_representable(table):
                continue
            cells = list(np.ndindex(4, 4))
            rng.shuffle(cells)
            for r, c in cells:
                corrupted = table.table.copy()
                corrupted[r, c] ^= 1
                cand = BooleanTable(2, corrupted)
                if not cand.is_constant and not is_representable(cand):
                    diffs.append(
                        additive_fit_auc(table, "emap") - additive_fit_auc(cand, "emap")
                    )
                    found += 1
                    break
        assert found >= 20
        assert np.mean(diffs) > 0.0


class TestSweep:
    def test_rows_and_determinism(self, tmp_path):
        rows_a = run_size_sweep([1, 2], 40, seed=17)
        rows_b = run_size_sweep([1, 2], 40, seed=17)
        assert rows_a == rows_b
        methods = {r.method for r in rows_a}
        assert methods == {"emap", "adaboost_unimodal", "adaboost_full"}
        full = {r.n: r.mean_auc for r in rows_a if r.method == "adaboost_full"}
        assert all(v == 1.0 for v in full.values())
        out = tmp_path / "sweep.csv"
        write_sweep_csv(rows_a, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,method,mean_auc,std_auc,samples"
        assert len(lines) == 1 + len(rows_a)

    def test_single_bit_additive_means_beat_point_nine(self):
        """Census-weighted expectation: 12 of 14 nonconstant tables fit perfectly."""
        rows = run_size_sweep([1], 300, seed=23)
        for row in rows:
            if row.method in ("emap", "adaboost_unimodal"):
                assert row.mean_auc > 0.9


def recorded_aucs(monkeypatch) -> dict:
    """Record every per-sample AUC the sweep computes, by method, in sample order."""
    seen = collections.defaultdict(list)
    fit = logic.additive_fit_aucs

    def spy(tables, method, cfg=None):
        aucs = fit(tables, method, cfg)
        seen[method] += aucs.tolist()
        return aucs

    monkeypatch.setattr(logic, "additive_fit_aucs", spy)
    return seen


class TestSweepBatching:
    def test_chunking_changes_no_sample(self, monkeypatch):
        """Chunks of 40 cells split every n; each sample's AUC equals its one-table fit."""
        whole = recorded_aucs(monkeypatch)
        rows = run_size_sweep([1, 2, 3], 12, seed=31)
        monkeypatch.undo()
        monkeypatch.setattr(logic, "_CHUNK_CELLS", 40)
        chunked = recorded_aucs(monkeypatch)
        assert run_size_sweep([1, 2, 3], 12, seed=31) == rows
        assert chunked == whole
        monkeypatch.undo()
        for m, aucs in whole.items():
            alone = [
                additive_fit_auc(sample_table(n, np.random.SeedSequence([31, n, i]), require_nonconstant=True), m)
                for n in (1, 2, 3)
                for i in range(12)
            ]
            assert aucs == alone, m

    def test_first_samples_do_not_depend_on_the_sample_count(self, monkeypatch):
        for n in (2, 3):
            few = recorded_aucs(monkeypatch)
            run_size_sweep([n], 5, seed=8)
            monkeypatch.undo()
            many = recorded_aucs(monkeypatch)
            run_size_sweep([n], 15, seed=8)
            assert set(few) == set(logic.SWEEP_METHODS)
            assert all(many[m][:5] == few[m] for m in few)
            monkeypatch.undo()

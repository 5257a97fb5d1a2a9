import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from qosd import (
    BudgetVector,
    ConfigError,
    Graph,
    InfeasibleBoxError,
    IterationLimitError,
    NonlinearWeightsError,
    QosdError,
    QosdInstance,
    WeightFunction,
    build_weights,
    constraint_generation,
    eta,
    load_instance,
    make_er_instance,
    min_budget_to_block,
    oracle_opt,
    potential_paths,
    round_solution,
    run_lr,
    solve_lp,
    unseparated_pairs,
)
from qosd.baselines import _solve_highs
from qosd.lr import FEAS_TOL, LpSolution, _LpModel, highs

from conftest import diamond_instance, shared_edge_instance


def diamond_candidates():
    return dict.fromkeys([(0, 1), (2, 3)])


class TestSolveLp:
    def test_diamond_objective_two(self, inst_a):
        lp = solve_lp(inst_a, diamond_candidates())
        assert lp.objective == pytest.approx(2.0, abs=1e-6)

    def test_single_path_objective_one(self, inst_a):
        lp = solve_lp(inst_a, [(0, 1)])
        assert lp.objective == pytest.approx(1.0, abs=1e-6)

    def test_vacuous_constraint_ignored(self):
        # initial length already >= T: the path adds no constraint
        g = Graph(3, [(0, 1), (1, 2)])
        weights = [WeightFunction((2, 3), "linear")] * 2
        inst = QosdInstance(g, weights, [(0, 2)], 4)
        lp = solve_lp(inst, [(0, 1)])
        assert lp.objective == 0.0

    def test_constraints_satisfied(self, inst_a):
        lp = solve_lp(inst_a, diamond_candidates())
        for p in lp.constraint_paths:
            total = sum(1 * lp.fractional[e] + 1 for e in p)
            assert total >= inst_a.threshold - 1e-6

    def test_nonlinear_rejected(self):
        inst = make_er_instance(10, 0.3, 4, 2, "convex", seed=0)
        with pytest.raises(NonlinearWeightsError):
            solve_lp(inst, [])

    def test_cutting_tables_accepted(self):
        # cutting tables are affine (beta = T-1), so the LP path works
        inst = make_er_instance(10, 0.3, 4, 2, "cutting", seed=0)
        report = run_lr(inst, delta=0.2, seed=0)
        assert report.feasible

    def test_deterministic(self, inst_a):
        a = solve_lp(inst_a, diamond_candidates()).fractional
        b = solve_lp(inst_a, diamond_candidates()).fractional
        assert a == b


def _random_model(seed, rows, cols):
    """Nonnegative integer rows, about 40% zeros, with ``need`` met by a
    fractional point inside the integer box (so also by its ceiling)."""
    rng = np.random.default_rng(seed)
    A = rng.integers(1, 4, size=(rows, cols)) * (rng.random((rows, cols)) >= 0.4)
    ub = rng.integers(1, 5, size=cols).astype(float)
    need = np.floor(A @ (rng.random(cols) * ub))
    return A.astype(float), need, ub


def _colwise(A):
    """``(indptr, indices, data)`` of ``A`` in CSC form, as ``_solve_highs`` takes it."""
    csc = sparse.csc_array(A)
    return csc.indptr, csc.indices, csc.data


def _two_budget_paths(instance):
    """The distinct shortest paths below T at zero budget and at one unit per edge."""
    return list(dict.fromkeys(potential_paths(instance, BudgetVector.zeros(instance.graph.m))
                              + potential_paths(instance, BudgetVector([min(1, b) for b in instance.box]))))


def _held(solver):
    """``[columns, lower, upper, ub]`` of the LP ``solver`` holds (``getLp``),
    ``columns`` as the CSC ``[indptr, indices, data]``: every column has cost
    1 and lower bound 0, and none is integral."""
    lp = solver.getLp()
    matrix = lp.a_matrix_
    assert matrix.format_ == highs.MatrixFormat.kColwise
    assert list(lp.col_cost_) == [1.0] * lp.num_col_ and list(lp.col_lower_) == [0.0] * lp.num_col_
    assert not list(lp.integrality_)
    return [[list(matrix.start_), list(matrix.index_), list(matrix.value_)],
            list(lp.row_lower_), list(lp.row_upper_), list(lp.col_upper_)]


def _linprog_optimum(instance, paths):
    """``(y in order of entry, objective)`` from ``linprog`` on the dense rows of ``paths``."""
    columns, width = _lp_columns(instance, paths)
    dense, need = _dense_rows(instance, paths, columns, width)
    ref = linprog(np.ones(width), A_ub=-dense, b_ub=-need,
                  bounds=[(0.0, instance.box[e]) for e in columns], method="highs")
    assert ref.success
    return ref.x, ref.fun


class TestSolveHighs:
    """LR's LP model and the oracle's ``_solve_highs`` drive scipy's private
    HiGHS binding directly; these pin them to the public ``linprog`` and
    ``milp``, so a scipy release that changes the binding fails here instead
    of moving LR's or the oracle's outputs."""

    @pytest.mark.parametrize("seed", range(20))
    def test_lp_matches_linprog(self, seed):
        # a fresh model's first solve (presolved, no basis yet) is linprog's
        inst = make_er_instance(30, 0.15, 5, 6, "linear" if seed % 2 else "cutting", seed=seed)
        paths = _two_budget_paths(inst)
        lp = solve_lp(inst, paths)
        want, objective = _linprog_optimum(inst, paths)
        support = list(_lp_columns(inst, paths)[0])
        assert np.array(lp.fractional)[support].tobytes() == want.tobytes()
        assert lp.objective == objective
        assert all(lp.fractional[e] == 0.0 for e in set(range(inst.graph.m)) - set(support))

    @pytest.mark.parametrize("seed", range(10))
    def test_mip_matches_milp(self, seed):
        A, need, ub = _random_model(seed, 6, 8)
        y, objective = _solve_highs(_colwise(A), need, np.full(len(need), np.inf), ub)
        ref = milp(
            np.ones(len(ub)), integrality=np.ones(len(ub)), bounds=Bounds(0, ub),
            constraints=LinearConstraint(A, need, np.inf), options={"mip_rel_gap": 0},
        )
        assert ref.success
        assert objective == ref.fun
        assert np.array_equal(y, np.round(y)) and np.all(A @ y >= need) and np.all(y <= ub)

    def test_infeasible_raises_infeasible_box(self):
        A = _colwise(np.array([[1.0, 1.0]]))
        with pytest.raises(InfeasibleBoxError, match="Infeasible"):
            _solve_highs(A, np.array([3.0]), np.array([np.inf]), [1.0, 1.0])
        with pytest.raises(InfeasibleBoxError, match="Infeasible"):
            solve_lp(_unblockable(), [(0, 1)])

    def test_other_status_raises_qosd_error(self, monkeypatch):
        class Stopped(highs._Highs):
            def getModelStatus(self):
                return highs.HighsModelStatus.kIterationLimit

        monkeypatch.setattr(highs, "_Highs", Stopped)
        A = _colwise(np.array([[1.0, 1.0]]))
        for solve in (lambda: _solve_highs(A, np.array([1.0]), np.array([np.inf]), [1.0, 1.0]),
                      lambda: solve_lp(diamond_instance(), diamond_candidates())):
            with pytest.raises(QosdError, match="Iteration limit") as info:
                solve()
            assert not isinstance(info.value, InfeasibleBoxError)


def _unblockable():
    """A two-edge path 3 short of T = 5 whose two unit-slope edges hold one
    unit each: its LP row cannot be met within the box."""
    g = Graph(3, [(0, 1), (1, 2)])
    return QosdInstance(g, [WeightFunction((1, 2), "linear")] * 2, [(0, 2)], 5, validate_box=False)


def _dense_rows(instance, paths, columns, width):
    """The covering rows as dense numpy rows (one np.zeros row per short
    path, stacked) and their ``need``: the reference every model handed to
    HiGHS must equal."""
    rows, need = [], []
    for p in paths:
        gap = instance.threshold - sum(instance.weights[e].table[0] for e in p)
        if gap <= 0:
            continue
        row = np.zeros(width)
        for e in p:
            for j, coeff in columns[e]:
                row[j] += coeff
        rows.append(row)
        need.append(gap)
    return (np.vstack(rows), np.array(need, dtype=float)) if rows else None


def _lp_columns(instance, paths):
    """:func:`solve_lp`'s columns: one per edge of the paths, in order of
    entry, coefficient beta_e."""
    betas, _ = instance.affine_coeffs()
    support = dict.fromkeys(e for p in paths for e in p)
    return {e: [(j, betas[e])] for j, e in enumerate(support)}, len(support)


def _oracle_columns(instance, paths):
    """:func:`min_budget_to_block`'s columns: one per budget unit of each
    support edge, coefficient f_e(i) - f_e(i-1) (0 on a flat step)."""
    columns, width = {}, 0
    for e in sorted({e for p in paths for e in p}):
        table = instance.weights[e].table
        columns[e] = [(width + i - 1, table[i] - table[i - 1]) for i in range(1, instance.box[e] + 1)]
        width += instance.box[e]
    return columns, width


def _lp_model(instance, paths):
    """``(csc, lower, upper, ub)`` of the LP in milp's form need <= A y over
    the paths' edges in order of entry."""
    columns, width = _lp_columns(instance, paths)
    dense, need = _dense_rows(instance, paths, columns, width)
    return (sparse.csc_array(dense), need, np.full(len(need), np.inf),
            [float(instance.box[e]) for e in columns])


def _oracle_model(instance, paths):
    """``(csc, lower, upper, ub)`` of the oracle's MILP in milp's form
    need <= A z: the dense path rows, then a row z_j - z_{j+1} >= 0 for each
    two consecutive units of one edge, in column order."""
    columns, width = _oracle_columns(instance, paths)
    dense, need = _dense_rows(instance, paths, columns, width)
    ordering = [np.eye(1, width, j)[0] - np.eye(1, width, j + 1)[0]
                for terms in columns.values() for j, _ in terms[:-1]]
    model = np.vstack([dense, *ordering])
    return (sparse.csc_array(model), np.concatenate([need, np.zeros(len(ordering))]),
            np.full(len(model), np.inf), [1.0] * width)


def _flat_and_vacuous():
    """Edge 0 is flat (beta 0) on the short path over edges 0, 1; the path
    over edges 2, 3 already reaches T=4."""
    g = Graph(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    weights = [WeightFunction((1, 1, 1), "linear"), WeightFunction((1, 2, 3), "linear"),
               WeightFunction((2, 3), "linear"), WeightFunction((2, 3), "linear")]
    inst = QosdInstance(g, weights, [(0, 3)], 4, validate_box=False)
    return inst, (0, 1), (2, 3)


def _handed_to_highs(monkeypatch, layout, instance, paths):
    """The ``(columns, lower, upper, ub)`` of each model that the layout's
    solver hands HiGHS on ``paths``, and its result: the LP model
    :func:`solve_lp` holds once it has run, the oracle's ``_solve_highs`` calls."""
    import qosd.baselines

    if layout is _lp_columns:
        model = _LpModel()
        result = solve_lp(instance, paths, model=model)
        ran = model.solver.getModelStatus() != highs.HighsModelStatus.kNotset
        return [_held(model.solver)] if ran else [], result
    calls = []
    _recording(monkeypatch, "_solve_highs", calls, lambda columns, *bounds: [[list(c) for c in columns],
                                                                             *map(list, bounds)],
               module=qosd.baselines)
    return calls, min_budget_to_block(instance, paths)


class TestPathRows:
    """Each model hands HiGHS the column-wise matrix its public scipy wrapper
    builds from dense rows: LR's LP over the edges in order of entry, the
    oracle's integer program over their budget units by edge id."""

    @pytest.mark.parametrize(
        "model,layout",
        [("linear", _lp_columns), ("linear", _oracle_columns), ("cutting", _lp_columns),
         ("cutting", _oracle_columns), ("concave", _oracle_columns), ("heterogeneous", _oracle_columns)],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_equal_to_dense_rows(self, model, layout, seed, monkeypatch):
        # T=10 concave tables have flat steps, so the oracle layout has zero coefficients
        inst = make_er_instance(30, 0.15, 10, 6, model, seed=seed)
        # distinct paths: solve_lp keeps one row per path, the oracle one per list entry
        paths = _two_budget_paths(inst)
        [(columns, lower, upper, ub)], _ = _handed_to_highs(monkeypatch, layout, inst, paths)
        csc, *bounds = (_lp_model if layout is _lp_columns else _oracle_model)(inst, paths)
        assert columns == [csc.indptr.tolist(), csc.indices.tolist(), csc.data.tolist()]
        assert all(v != 0 for v in columns[2])
        for got, want in zip([lower, upper, ub], bounds):
            assert np.array_equal(np.asarray(got, dtype=float), want)
        if model == "concave":
            coeffs = [c for terms in _oracle_columns(inst, paths)[0].values() for _, c in terms]
            assert 0 in coeffs

    def test_vacuous_paths_and_zero_coefficients_skipped(self, monkeypatch):
        inst, short, vacuous = _flat_and_vacuous()
        [lp], solution = _handed_to_highs(monkeypatch, _lp_columns, inst, [short, vacuous])
        # columns 0..3 are edges 0..3: flat edge 0 and vacuous edges 2, 3 are empty
        assert lp == [[[0, 0, 1, 1, 1], [0], [1.0]], [2.0], [math.inf], [2, 2, 1, 1]]
        assert solution.objective == 2.0
        [milp_model], x = _handed_to_highs(monkeypatch, _oracle_columns, inst, [short, vacuous])
        # z0, z1 (flat edge 0) sit only on their ordering row 1; z2, z3 (edge 1)
        # on the path row 0 and ordering row 2; z4, z5 (vacuous edges) nowhere
        assert milp_model == [[[0, 1, 2, 4, 6, 6, 6], [1, 1, 0, 2, 0, 2], [1.0, -1.0, 1.0, 1.0, 1.0, -1.0]],
                              [2.0, 0.0, 0.0], [math.inf] * 3, [1.0] * 6]
        assert x == BudgetVector([0, 2, 0, 0])
        for layout in (_lp_columns, _oracle_columns):
            for paths in ([vacuous], []):
                monkeypatch.undo()
                calls, _ = _handed_to_highs(monkeypatch, layout, inst, paths)
                assert calls == []


def _with_flat_edges(seed):
    """An n=60 linear instance whose every seventh edge has a flat table."""
    inst = make_er_instance(60, 0.1, 5, 10, "linear", seed=seed)
    weights = [WeightFunction((w.table[0],) * len(w.table), "linear") if e % 7 == 0 else w
               for e, w in enumerate(inst.weights)]
    return QosdInstance(inst.graph, weights, inst.pairs, inst.threshold)


def _recording(monkeypatch, name, calls, record=lambda *args, **kwargs: args, *, module=None):
    """Patch ``<module>.<name>`` (``qosd.lr`` by default) to append
    ``record(*args, **kwargs)`` of each call to ``calls`` before making it."""
    import qosd.lr

    module = module or qosd.lr
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)


class TestLpRows:
    """After each round of constraint generation, LR's one warm model holds
    the model linprog builds from the candidate set's dense rows, and its
    optimum is linprog's."""

    INSTANCES = {
        "linear": lambda: make_er_instance(60, 0.1, 5, 10, "linear", seed=1000),
        "cutting": lambda: make_er_instance(30, 0.15, 5, 6, "cutting", seed=1),
        "flat-edges": lambda: _with_flat_edges(1001),
    }

    @pytest.mark.parametrize("name", INSTANCES)
    def test_every_round_matches_path_rows(self, name, monkeypatch):
        import qosd.lr

        inst = self.INSTANCES[name]()
        betas, _ = inst.affine_coeffs()
        rounds, solve_lp = [], qosd.lr.solve_lp

        def solving(instance, paths, *, model=None):
            paths = list(paths)  # the round's paths: the candidate set keeps growing after the call
            solution = solve_lp(instance, paths, model=model)
            rounds.append((paths, _held(model.solver), solution, model))
            return solution

        monkeypatch.setattr(qosd.lr, "solve_lp", solving)
        lp = constraint_generation(inst)
        assert len(rounds) == lp.rounds >= 2
        assert len({id(model) for *_, model in rounds}) == 1
        support = []
        for paths, (columns, lower, upper, ub), solution, _ in rounds:
            layout, width = _lp_columns(inst, paths)
            # a column joins at the end when its edge enters: known columns keep their place
            assert list(layout)[:len(support)] == support
            support = list(layout)
            dense, need = _dense_rows(inst, paths, layout, width)
            expected = sparse.csc_array(dense)
            assert columns == [expected.indptr.tolist(), expected.indices.tolist(), expected.data.tolist()]
            assert np.array_equal(lower, need)
            assert np.array_equal(upper, np.full(len(need), np.inf))
            assert ub == [float(inst.box[e]) for e in support]
            assert abs(solution.objective - _linprog_optimum(inst, paths)[1]) <= FEAS_TOL
            y = np.array(solution.fractional)
            assert np.all(dense @ y[support] >= need - FEAS_TOL)
            assert np.all(y[support] <= ub) and np.all(y >= 0)
            assert not y[list(set(range(inst.graph.m)) - set(support))].any()
        assert any(betas[e] == 0 for e in support) == (name == "flat-edges")

    def test_plain_list_keeps_vacuous_edges_in_support(self):
        # the vacuous path enters first: its edges take columns 0 and 1, with no entry
        inst, short, vacuous = _flat_and_vacuous()
        model = _LpModel()
        lp = solve_lp(inst, [vacuous, short], model=model)
        assert lp.objective == 2.0
        assert list(model.columns) == [2, 3, 0, 1]
        columns, lower, upper, ub = _held(model.solver)
        assert columns == [[0, 0, 0, 0, 1], [0], [1.0]]
        assert ub == [inst.box[e] for e in (2, 3, 0, 1)]
        assert lower == [2.0] and upper == [math.inf]
        assert lp.fractional == [0.0, 2.0, 0.0, 0.0]

    def test_shared_options_leak_no_state(self):
        import qosd.lr

        inst = make_er_instance(30, 0.15, 5, 6, "linear", seed=3)
        paths = _two_budget_paths(inst)
        A, need, ub = _random_model(3, 8, 12)
        gap = qosd.lr._LP_OPTIONS.mip_rel_gap
        lp = solve_lp(inst, paths)
        _solve_highs(_colwise(A), need, np.full(len(need), np.inf), ub)
        again = solve_lp(inst, paths)
        assert np.array(lp.fractional).tobytes() == np.array(again.fractional).tobytes()
        assert np.float64(lp.objective).tobytes() == np.float64(again.objective).tobytes()
        assert qosd.lr._LP_OPTIONS.mip_rel_gap == gap != 0.0
        assert qosd.lr._MIP_OPTIONS.mip_rel_gap == 0.0

    # er60-lr instances with a fractional LP optimum in 1, 3 and 3 of their 7, 8 and 7 rounds
    @pytest.mark.parametrize("seed", [1005, 1027, 1020])
    def test_separation_lengths_bit_identical(self, seed, monkeypatch):
        import qosd.lr

        inst = make_er_instance(60, 0.1, 5, 10, "linear", seed=seed)
        betas, alphas = inst.affine_coeffs()
        solutions = [LpSolution([0.0] * inst.graph.m, 0.0, {})]
        solve_lp = qosd.lr.solve_lp

        def solving(*args, **kwargs):
            solutions.append(solve_lp(*args, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(qosd.lr, "solve_lp", solving)
        calls = []
        _recording(monkeypatch, "separating_paths", calls, lambda instance, x, *, lengths, bound: None)
        _recording(monkeypatch, "pair_shortest_paths", calls, lambda instance, x, *, lengths, bound: lengths,
                   module=qosd.pathcore)
        constraint_generation(inst)
        # one separation on the zero start and one after each solve; its
        # first sweep reads the LP's lengths, the later ones raised copies
        lengths = [calls[i + 1] for i, call in enumerate(calls) if call is None]
        assert len(lengths) == len(solutions) < len(calls) - len(lengths)
        assert any(v != round(v) for solution in solutions for v in solution.fractional)
        for solution, got in zip(solutions, lengths):
            old = [alphas[e] + betas[e] * solution.fractional[e] for e in range(inst.graph.m)]
            # the float64 array the sweep reads, no list round trip
            assert type(got) is np.ndarray and got.dtype == np.float64
            assert got.tobytes() == np.array(old).tobytes()


class TestSolverReuse:
    """Each constraint-generation run re-solves one model from its last basis;
    it ends at the optimum that cold solves, a fresh model every round, reach."""

    @pytest.mark.parametrize("make", [
        *[lambda i=i: make_er_instance(60, 0.1, 5, 10, "linear", seed=1000 + i) for i in range(10)],
        lambda: make_er_instance(30, 0.15, 5, 6, "cutting", seed=1),
        lambda: make_er_instance(30, 0.15, 5, 6, "cutting", seed=2),
    ], ids=[*(f"er60-{i}" for i in range(10)), "cutting-1", "cutting-2"])
    def test_constraint_generation_equals_fresh_solvers(self, make, monkeypatch):
        import qosd.lr

        inst = make()
        warm = constraint_generation(inst)
        original = qosd.lr.solve_lp
        monkeypatch.setattr(qosd.lr, "solve_lp", lambda instance, paths, model=None: original(instance, paths))
        cold = constraint_generation(inst)
        assert warm.rounds >= 2 and cold.rounds >= 2
        # both stop once no path is below T (1 - FEAS_TOL): an optimum of the whole LP
        assert abs(warm.objective - cold.objective) <= FEAS_TOL * inst.threshold
        # the warm model's last optimum is a fresh model's on the same rows
        assert abs(warm.objective - original(inst, warm.constraint_paths).objective) <= FEAS_TOL

    @pytest.mark.parametrize("integral", [False, True])
    def test_infeasible_model_leaves_no_state(self, integral):
        if integral:
            A, need, ub = _random_model(5, 8, 12)
            infeasible = lambda: _solve_highs(_colwise(np.array([[1.0, 1.0]])), [3.0], [np.inf], [1.0, 1.0])
            solve = lambda: _solve_highs(_colwise(A), need, np.full(len(need), np.inf), ub)
        else:
            inst = make_er_instance(30, 0.15, 5, 6, "linear", seed=5)
            infeasible = lambda: solve_lp(_unblockable(), [(0, 1)])
            solve = lambda: (np.array(solve_lp(inst, _two_budget_paths(inst)).fractional),
                             solve_lp(inst, _two_budget_paths(inst)).objective)
        want, want_objective = solve()
        with pytest.raises(InfeasibleBoxError):
            infeasible()
        y, objective = solve()
        assert y.tobytes() == want.tobytes()
        assert np.float64(objective).tobytes() == np.float64(want_objective).tobytes()

    def test_model_kinds_alternate_on_one_solver(self, monkeypatch):
        # an integer program between two rounds neither changes the LP
        # model's options (mip_rel_gap = 0 stays with the MIP) nor its path
        import qosd.lr

        inst = make_er_instance(60, 0.1, 5, 10, "linear", seed=1000)
        A, need, ub = _random_model(3, 8, 12)
        mip = (_colwise(A), need, np.full(len(need), np.inf), ub)
        want, want_objective = _solve_highs(*mip)
        plain = constraint_generation(inst)
        solve_lp = qosd.lr.solve_lp

        def interleaved(instance, paths, *, model=None):
            y, objective = _solve_highs(*mip)
            assert y.tobytes() == want.tobytes() and objective == want_objective
            solution = solve_lp(instance, paths, model=model)
            assert model.solver.getOptions().mip_rel_gap == 1e-4
            return solution

        monkeypatch.setattr(qosd.lr, "solve_lp", interleaved)
        mixed = constraint_generation(inst)
        assert mixed.rounds == plain.rounds >= 2
        assert mixed.fractional == plain.fractional
        assert mixed.objective == plain.objective


class TestConstraintGeneration:
    def test_diamond_one_round(self, inst_a):
        # the round's second sweep, with (0, 1) at T, finds the other route
        lp = constraint_generation(inst_a)
        assert lp.rounds == 1
        assert lp.objective == pytest.approx(2.0, abs=1e-6)
        assert list(lp.constraint_paths) == [(0, 1), (2, 3)]

    def test_iteration_cap(self):
        inst = shared_edge_instance()
        assert constraint_generation(inst).rounds == 2
        with pytest.raises(IterationLimitError):
            constraint_generation(inst, iteration_cap=1)

    def test_already_separated(self):
        g = Graph(2, [(0, 1)])
        inst = QosdInstance(g, [WeightFunction((2, 3), "linear")], [(0, 1)], 2)
        lp = constraint_generation(inst)
        assert lp.objective == 0.0
        assert len(lp.constraint_paths) == 0

    def test_star_decomposes_per_pair(self):
        # pairs s_i -> hub -> t_i with disjoint 2-edge routes, T=3
        k = 4
        edges = []
        pairs = []
        hub = 2 * k
        for i in range(k):
            edges.append((i, hub))          # s_i -> hub
            edges.append((hub, k + i))      # hub -> t_i
            pairs.append((i, k + i))
        g = Graph(2 * k + 1, edges)
        inst = QosdInstance(g, build_weights(g, "linear", 3), pairs, 3)
        lp = constraint_generation(inst)
        assert lp.objective == pytest.approx(float(k), abs=1e-6)
        assert len(lp.constraint_paths) == k

    def test_paths_never_repeat(self):
        for seed in range(5):
            inst = make_er_instance(25, 0.2, 4, 5, "linear", seed=seed)
            lp = constraint_generation(inst)
            keys = list(lp.constraint_paths)
            assert len(keys) == len(set(keys))


class TestEta:
    def test_frozen_reference_value(self):
        # 1/(1 - e^-1) * (3 ln 4 + ln 2 + 1), mpmath: 9.25777556...
        assert eta(4, 3, 1, 0.5) == pytest.approx(9.257775565, abs=1e-6)

    def test_large_beta_asymptote(self):
        target = 3 * math.log(4) - math.log(0.5) + 1
        assert eta(4, 3, 50, 0.5) / 50 == pytest.approx(target, rel=1e-6)

    def test_monotone_in_delta(self):
        assert eta(4, 3, 1, 0.05) > eta(4, 3, 1, 0.5)

    def test_bad_arguments(self):
        with pytest.raises(ConfigError):
            eta(4, 3, 1, 0.0)
        with pytest.raises(ConfigError):
            eta(4, 3, 0, 0.5)


class TestRoundSolution:
    def _lp(self, inst, fractional):
        return LpSolution(fractional, sum(fractional), {})

    def test_integral_passthrough(self, inst_a):
        lp = self._lp(inst_a, [1.0, 0.0, 2.0, 0.0])
        for seed in range(10):
            x = round_solution(inst_a, lp, 7.3, random.Random(seed))
            assert x == BudgetVector([1, 0, 2, 0])

    def test_threshold_branch_deterministic_ceil(self, inst_a):
        lp = self._lp(inst_a, [0.5, 0.0, 0.0, 0.0])
        for seed in range(10):
            x = round_solution(inst_a, lp, 4.0, random.Random(seed))
            assert x[0] == 1  # eta * frac = 2 >= 1

    def test_bernoulli_frequency(self):
        inst = diamond_instance(threshold=4)  # caps 3, room for value 1
        lp = self._lp(inst, [0.1, 0.0, 0.0, 0.0])
        rng = random.Random(123)
        n = 10_000
        ceils = sum(round_solution(inst, lp, 5.0, rng)[0] for _ in range(n))
        sigma = math.sqrt(0.5 * 0.5 / n)
        assert abs(ceils / n - 0.5) <= 3 * sigma

    def test_snap_tolerance(self, inst_a):
        lp = self._lp(inst_a, [1.0 - 1e-12, 0.0, 0.0, 0.0])
        x = round_solution(inst_a, lp, 100.0, random.Random(0))
        assert x[0] == 1

    @staticmethod
    def _list_rounding(inst, lp, eta_value, rng):
        """``round_solution``'s rounding collected in a list, edge by edge."""
        values = []
        for e, xe in enumerate(lp.fractional):
            nearest = round(xe)
            if abs(xe - nearest) <= 1e-9:
                v = int(nearest)
            elif eta_value * (xe - math.floor(xe)) >= 1.0 or rng.random() < eta_value * (xe - math.floor(xe)):
                v = math.ceil(xe)
            else:
                v = math.floor(xe)
            values.append(min(v, inst.box[e]))
        return values

    # er60-lr instances whose last LP optima are fractional, and the diamond
    # with caps of 299, whose budget buffers hold 8 bytes an entry
    @pytest.mark.parametrize("seed", [1005, 1027, 1055, None])
    def test_in_place_build_equals_the_list_build(self, seed):
        if seed is None:
            graph = Graph(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
            inst = QosdInstance(graph, build_weights(graph, "linear", 300), [(0, 3)], 300)
            lp = self._lp(inst, [255.5, 0.25, 299.0, 3.7])
        else:
            inst = make_er_instance(60, 0.1, 5, 10, "linear", seed=seed)
            lp = constraint_generation(inst)
        assert any(v != round(v) for v in lp.fractional)
        for eta_value in (0.5, 4.0, math.inf):
            got_rng, want_rng = random.Random(0), random.Random(0)
            got = round_solution(inst, lp, eta_value, got_rng)
            want = BudgetVector(self._list_rounding(inst, lp, eta_value, want_rng))
            assert got.values.typecode == want.values.typecode
            assert got.values.tobytes() == want.values.tobytes()
            assert got.norm == want.norm
            # the same draws, in the same order
            assert got_rng.getstate() == want_rng.getstate()


class TestRunLr:
    def test_diamond_norm_two(self, inst_a):
        report = run_lr(inst_a, delta=0.1, seed=0)
        assert report.feasible
        assert report.norm == 2
        assert report.extras["retries"] == 0

    def test_nonlinear_weights_error(self):
        inst = make_er_instance(10, 0.3, 4, 2, "heterogeneous", seed=1)
        with pytest.raises(NonlinearWeightsError):
            run_lr(inst)

    def test_dominates_floor_of_lp(self):
        for seed in range(5):
            inst = make_er_instance(20, 0.2, 4, 4, "linear", seed=seed)
            lp = constraint_generation(inst)
            report = run_lr(inst, delta=0.2, seed=seed)
            for v, frac in zip(report.budget, lp.fractional):
                assert v >= math.floor(frac + 1e-9)

    def test_always_feasible(self):
        for seed in range(10):
            inst = make_er_instance(20, 0.25, 4, 4, "linear", seed=seed)
            report = run_lr(inst, delta=0.2, seed=seed)
            assert report.feasible
            assert unseparated_pairs(inst, report.budget) == []
            assert report.budget.within_box(inst.box)

    def test_lp_lower_bounds_oracle(self):
        for seed in range(5):
            inst = make_er_instance(8, 0.3, 3, 2, "linear", seed=seed)
            lp = constraint_generation(inst)
            opt = oracle_opt(inst).norm
            assert lp.objective <= opt + 1e-6

    def test_eta_override(self, inst_a):
        report = run_lr(inst_a, delta=0.1, seed=0, eta_override=2.5)
        assert report.extras["eta"] == 2.5
        assert report.feasible

    def test_ceiling_fallback_feasible(self):
        # on the directed 3-cycle every pair's one path has two of the three
        # edges, so the LP puts 0.5 on each; eta so small that nothing rounds
        # up exhausts the retries and the ceiling fallback fires
        graph = Graph(3, [(0, 1), (1, 2), (2, 0)])
        inst = QosdInstance(graph, build_weights(graph, "linear", 3), [(0, 2), (1, 0), (2, 1)], 3)
        assert constraint_generation(inst).fractional == pytest.approx([0.5, 0.5, 0.5])
        report = run_lr(inst, delta=0.1, seed=0, eta_override=1e-9)
        assert report.extras["retries"] == 10
        assert report.extras["fallback"] is True
        assert report.extras["unpruned_norm"] == 3
        # edge 0 gives its unit back; then every pair needs the other two: the cycle's cover
        assert report.norm == 2 and report.budget == BudgetVector([0, 1, 1])
        assert report.feasible
        assert not unseparated_pairs(inst, report.budget)

    def test_prune_keeps_norm_between_lp_bound_and_rounding(self):
        pruned = 0
        for seed in range(10):
            inst = make_er_instance(60, 0.1, 5, 10, "linear", seed=1000 + seed)
            report = run_lr(inst, delta=0.2, seed=seed)
            unpruned, lp = report.extras["unpruned_norm"], report.extras["lp_objective"]
            assert unpruned >= report.norm >= math.ceil(lp - FEAS_TOL)
            assert report.feasible and not unseparated_pairs(inst, report.budget)
            pruned += unpruned > report.norm
        assert pruned

    @pytest.mark.parametrize("knobs", [{"delta": 1.5, "eta_override": 2.0}, {"eta_override": -1.0}])
    def test_bad_knob_raises_before_any_lp(self, inst_a, monkeypatch, knobs):
        import qosd.lr

        def unreachable(*args, **kwargs):
            raise AssertionError("constraint generation ran")

        monkeypatch.setattr(qosd.lr, "constraint_generation", unreachable)
        with pytest.raises(ConfigError):
            run_lr(inst_a, **knobs)

    def test_cap_zero_edge_gets_no_budget(self):
        # 0 -> 1 -> 2 is blocked by two units; the one-entry edge 0 -> 2 already
        # reaches T and can hold none
        graph = Graph(3, [(0, 1), (1, 2), (0, 2)])
        weights = [WeightFunction((1, 2, 3), "linear")] * 2 + [WeightFunction((4,))]
        inst = QosdInstance(graph, weights, [(0, 2)], 4)
        report = run_lr(inst, delta=0.2, seed=0)
        assert report.feasible and report.budget.within_box(inst.box)
        assert report.budget[2] == 0 and report.norm == 2
        assert not unseparated_pairs(inst, report.budget)

    def test_flat_tables_give_zero_vector(self):
        # every affine table is flat (beta_max 0) and x = 0 already separates
        graph = Graph(3, [(1, 2), (2, 1)])
        inst = QosdInstance(graph, [WeightFunction((2, 2))] * 2, [(0, 1), (0, 2)], 3)
        report = run_lr(inst, delta=0.2, seed=511)
        assert report.budget == BudgetVector.zeros(2)
        assert report.feasible
        assert not unseparated_pairs(inst, report.budget)


# Run in a fresh interpreter: this module imports linprog, and with it
# scipy.optimize, at collection. IG, AT, SA and CC solve through the CLI
# without the HiGHS binding; LR's first LP and the oracle's first MILP load
# it, and the vectors they print are compared with this process's.
_FOOTPRINT_SCRIPT = """
import json, sys
import qosd, qosd.cli
from qosd import BudgetVector, load_instance, potential_paths
path = sys.argv[1]
assert qosd.cli.main(["gen", "--n", "30", "--rho", "0.2", "--threshold", "5", "--pairs", "5",
                      "--output", path]) == 0
for algorithm in ("ig", "at", "sa", "cc"):
    assert qosd.cli.main(["solve", "--instance", path, "--algorithm", algorithm]) == 0
assert "scipy.optimize" not in sys.modules
with open(path) as handle:
    inst = load_instance(handle)
lr = qosd.run_lr(inst, seed=3)
assert "scipy.optimize" in sys.modules
paths = potential_paths(inst, BudgetVector.zeros(inst.graph.m))
print(json.dumps({
    "lr": list(lr.budget), "oracle": list(qosd.oracle_opt(inst).budget),
    "lp": qosd.solve_lp(inst, paths).fractional, "milp": list(qosd.min_budget_to_block(inst, paths)),
}))
"""


class TestBindingLoad:
    def test_only_lp_solvers_load_the_binding(self, tmp_path):
        import qosd

        path = tmp_path / "inst.txt"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qosd.__file__)))
        done = subprocess.run([sys.executable, "-c", _FOOTPRINT_SCRIPT, str(path)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        got = json.loads(done.stdout.splitlines()[-1])
        with open(path) as handle:
            inst = load_instance(handle)
        paths = potential_paths(inst, BudgetVector.zeros(inst.graph.m))
        assert got["lr"] == list(run_lr(inst, seed=3).budget)
        assert got["oracle"] == list(oracle_opt(inst).budget)
        assert got["lp"] == solve_lp(inst, paths).fractional
        assert got["milp"] == list(min_budget_to_block(inst, paths))

    def test_lazy_names_are_cached(self):
        import qosd.lr

        assert qosd.lr.highs is highs
        assert qosd.lr._LP_OPTIONS is qosd.lr._LP_OPTIONS is not qosd.lr._MIP_OPTIONS
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            qosd.lr.missing

import pytest

from qosd import (
    BudgetVector,
    ConfigError,
    Deadline,
    IterationLimitError,
    QosdInstance,
    SolverTimeout,
    StallError,
    WeightFunction,
    block_adaptive,
    block_greedy,
    constraint_generation,
    make_er_instance,
    oracle_opt,
    potential_paths,
    run_iterative,
    unseparated_pairs,
)
from qosd.framework import _generate
from qosd.lr import LpSolution

from conftest import diamond_instance, single_edge_instance
from reference import fresh_support_run


class TestPotentialPaths:
    def test_initial_shortest_only(self, inst_a):
        paths = potential_paths(inst_a, BudgetVector.zeros(4))
        assert paths == [(0, 1)]

    def test_reroutes_after_budget(self, inst_a):
        paths = potential_paths(inst_a, BudgetVector([2, 0, 0, 0]))
        assert paths == [(2, 3)]

    def test_empty_when_separated(self, inst_a):
        assert potential_paths(inst_a, BudgetVector([1, 0, 1, 0])) == []

    def test_pair_indices_tagged(self):
        inst = diamond_instance()
        inst2 = QosdInstance(inst.graph, inst.weights, [(0, 3), (1, 3)], 3)
        # each pair's path, in pair order: (0, 3) over 0-1-3, then (1, 3)
        paths = potential_paths(inst2, BudgetVector.zeros(4))
        assert paths == [(0, 1), (1,)]


class TestRunIterative:
    def test_diamond_ig_trace(self, inst_a):
        report = run_iterative(inst_a, "ig")
        assert report.budget == BudgetVector([1, 0, 1, 0])
        assert report.norm == 2
        assert report.outer_iterations == 2
        assert report.inner_iterations == 3
        assert report.feasible

    def test_vacuous_instance(self):
        inst = single_edge_instance((1, 2, 3), 3, "linear")
        tall = QosdInstance(inst.graph, [WeightFunction((2, 3))], [(0, 1)], 2)
        report = run_iterative(tall, "ig")
        assert report.outer_iterations == 0
        assert report.norm == 0
        assert report.feasible

    def test_single_edge(self):
        inst = single_edge_instance((1, 2, 3), 3, "linear")
        report = run_iterative(inst, "ig")
        assert report.budget == BudgetVector([2])
        assert report.outer_iterations == 1

    def test_stall_on_broken_blocker(self, inst_a, monkeypatch):
        def bogus_blocker(instance, paths, *, trace=None, deadline=None, support=None):
            return BudgetVector.zeros(instance.graph.m)  # blocks nothing

        monkeypatch.setattr("qosd.ig.block_greedy", bogus_blocker)
        with pytest.raises(StallError):
            run_iterative(inst_a, "ig")

    def test_iteration_cap(self, inst_a, monkeypatch):
        def one_unit_blocker(instance, paths, *, trace=None, deadline=None, support=None):
            # blocks only the first candidate path, so P keeps growing
            return block_greedy(instance, list(paths)[:1], trace=trace)

        monkeypatch.setattr("qosd.ig.block_greedy", one_unit_blocker)
        with pytest.raises(IterationLimitError):
            run_iterative(inst_a, "ig", iteration_cap=1)

    @pytest.mark.parametrize("blocker", ["cc", "IG", "", None, block_greedy])
    def test_unknown_blocker_is_a_config_error(self, inst_a, blocker):
        with pytest.raises(ConfigError, match="unknown blocker"):
            run_iterative(inst_a, blocker)

    @pytest.mark.parametrize("blocker", ["ig", "at"])
    def test_candidate_growth_and_feasibility(self, blocker):
        from qosd import make_er_instance

        inst = make_er_instance(20, 0.25, 4, 4, "linear", seed=5)
        report = run_iterative(inst, blocker)
        assert report.feasible
        assert unseparated_pairs(inst, report.budget) == []
        assert report.budget.within_box(inst.box)
        assert report.extras["candidate_paths"] >= report.outer_iterations

    @pytest.mark.parametrize("name, blocker", [("at", block_adaptive), ("ig", block_greedy)])
    @pytest.mark.parametrize("args", [
        (240, 0.05, 5, 5, "heterogeneous", 0),
        (240, 0.05, 5, 5, "heterogeneous", 1),
        (240, 0.05, 5, 5, "heterogeneous", 2),
        (60, 0.1, 10, 5, "concave", 0),  # flat steps: IG crosses them by chunks
    ], ids=["er240-0", "er240-1", "er240-2", "er60-concave"])
    def test_reused_support_keeps_the_output(self, name, blocker, args):
        # run_iterative starts each round from its kept zero-budget support;
        # the reference loop builds the blocker's support from scratch
        *shape, seed = args
        inst = make_er_instance(*shape, seed=seed)
        reused = run_iterative(inst, name)
        budget, outer, inner, candidate_paths = fresh_support_run(inst, blocker)
        assert reused.budget == budget
        assert reused.outer_iterations == outer
        assert reused.inner_iterations == inner
        assert reused.extras["candidate_paths"] == candidate_paths

    def test_threads_do_not_change_result(self, inst_a):
        a = run_iterative(inst_a, "ig", threads=1)
        b = run_iterative(inst_a, "ig", threads=4)
        assert a.budget == b.budget


# the three callers of the shared lazy path-generation loop
LAZY_SOLVERS = {
    "run_iterative": run_iterative,
    "constraint_generation": constraint_generation,
    "oracle_opt": oracle_opt,
}


def _zero_blocker(instance, paths, *, trace=None, deadline=None, support=None):
    return BudgetVector.zeros(instance.graph.m)


def _stalling(name, monkeypatch):
    """Solver ``name`` with a solve step that keeps the zero start."""
    if name == "run_iterative":
        monkeypatch.setattr("qosd.ig.block_greedy", _zero_blocker)
    elif name == "constraint_generation":
        monkeypatch.setattr(
            "qosd.lr.solve_lp", lambda inst, paths, **_: LpSolution([0.0] * inst.graph.m, 0.0, paths)
        )
    else:
        monkeypatch.setattr(
            "qosd.baselines.min_budget_to_block", lambda inst, paths: BudgetVector.zeros(inst.graph.m)
        )
    return LAZY_SOLVERS[name]


class TestSharedLoop:
    @pytest.mark.parametrize("name", LAZY_SOLVERS)
    def test_expired_deadline(self, name, inst_a):
        with pytest.raises(SolverTimeout):
            LAZY_SOLVERS[name](inst_a, deadline=-1.0)

    @pytest.mark.parametrize("name", LAZY_SOLVERS)
    def test_stall_when_solve_keeps_zero_start(self, name, inst_a, monkeypatch):
        with pytest.raises(StallError, match="re-proposed only known paths"):
            _stalling(name, monkeypatch)(inst_a)

    def test_round_adds_a_repeated_path_once(self, inst_a):
        # round 0 proposes (0, 1) twice, round 1 one new path among known
        # ones: each is kept once, in first-seen order, and neither stalls
        proposals = iter([[(0, 1), (2, 3), (0, 1)], [(2, 3), (1,), (0, 1), (1,)], []])
        solved = []

        def solve(paths):
            solved.append(list(paths))
            return len(solved)

        x, paths, rounds = _generate(inst_a, 0, lambda x: next(proposals), solve,
                                     deadline=Deadline.ensure(None), cap=None, what="dedup")
        assert list(paths) == [(0, 1), (2, 3), (1,)] and rounds == 2 and x == 2
        assert solved == [[(0, 1), (2, 3)], [(0, 1), (2, 3), (1,)]]

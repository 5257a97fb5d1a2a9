import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qosd import (
    BudgetVector,
    Graph,
    InfeasibleBoxError,
    QosdInstance,
    SaConfig,
    WeightFunction,
    build_weights,
    constraint_generation,
    make_er_instance,
    min_budget_to_block,
    oracle_opt,
    potential_paths,
    prune,
    round_solution,
    run_cc,
    run_iterative,
    run_lr,
    run_sa,
    unseparated_pairs,
)
from qosd.lr import FEAS_TOL
from qosd.pathcore import pair_shortest_paths, separating_paths

from conftest import single_edge_instance
from reference import full_graph_paths, path_nodes
from test_pathcore import _bellman_ford


class TestRunCc:
    def test_diamond_caps_two_edges(self, inst_a):
        report = run_cc(inst_a)
        assert report.budget == BudgetVector([2, 0, 2, 0])
        assert report.norm == 4
        assert report.feasible

    def test_already_separated(self):
        g = Graph(2, [(0, 1)])
        inst = QosdInstance(g, [WeightFunction((2, 3))], [(0, 1)], 2)
        assert run_cc(inst).norm == 0

    def test_single_feasible_path(self):
        inst = single_edge_instance((1, 2, 3), 3, "linear")
        report = run_cc(inst)
        assert report.budget == BudgetVector([2])
        assert report.outer_iterations == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_zero_or_cap_components(self, seed):
        inst = make_er_instance(20, 0.2, 4, 4, "convex", seed=seed)
        report = run_cc(inst)
        assert report.feasible
        for value, cap in zip(report.budget, inst.box):
            assert value in (0, cap)


class TestOracle:
    def test_diamond_opt_two(self, inst_a):
        result = oracle_opt(inst_a)
        assert result.norm == 2
        assert result.extras["constraint_paths"] == 2
        assert unseparated_pairs(inst_a, result.budget) == []

    def test_single_edge_forced_saturation(self):
        inst = single_edge_instance((1, 2, 3), 3, "linear")
        assert oracle_opt(inst).norm == 2

    def test_already_separated(self):
        g = Graph(2, [(0, 1)])
        inst = QosdInstance(g, [WeightFunction((2, 3))], [(0, 1)], 2)
        result = oracle_opt(inst)
        assert result.norm == 0
        assert result.extras["constraint_paths"] == 0

    def test_witness_minimal_by_exhaustion(self):
        # cross-check the MILP against direct enumeration over every edge
        for seed in range(4):
            inst = make_er_instance(7, 0.35, 3, 2, "linear", seed=seed)
            result = oracle_opt(inst)
            found = None
            for norm in range(0, result.norm + 1):
                for combo in _vectors_of_norm(range(inst.graph.m), inst.box, norm):
                    x = [0] * inst.graph.m
                    for e, v in combo.items():
                        x[e] = v
                    if not unseparated_pairs(inst, BudgetVector(x)):
                        found = norm
                        break
                if found is not None:
                    break
            assert found == result.norm

    @pytest.mark.parametrize("table", [(1,), (1, 1, 2)])
    def test_box_too_small_for_a_path(self, table):
        g = Graph(2, [(0, 1)])
        inst = QosdInstance(g, [WeightFunction(table)], [(0, 1)], 3, validate_box=False)
        paths = potential_paths(inst, BudgetVector.zeros(1))
        with pytest.raises(InfeasibleBoxError):
            min_budget_to_block(inst, paths)

    def test_long_chain(self):
        # one path of 1,499 unit edges; capping any one of them reaches T
        n = 1500
        graph = Graph(n, [(i, i + 1) for i in range(n - 1)])
        inst = QosdInstance(graph, build_weights(graph, "cutting", 1600), [(0, n - 1)], 1600)
        assert oracle_opt(inst).norm == 1

    def test_n60_between_lp_bound_and_solvers(self):
        inst = make_er_instance(60, 0.1, 5, 10, "linear", seed=1000)
        result = oracle_opt(inst)
        assert result.budget.within_box(inst.box)
        assert unseparated_pairs(inst, result.budget) == []
        assert result.norm >= math.ceil(constraint_generation(inst).objective - 1e-6)
        for report in (
            run_iterative(inst, "ig"),
            run_iterative(inst, "at"),
            run_lr(inst, delta=0.2, seed=0),
        ):
            assert result.norm <= report.norm


class TestFlatSteps:
    """Concave tables at T >= 10 have flat increments (gamma 0), where no
    unit step has gain; IG and SA then take the best-ratio chunk."""

    @staticmethod
    def _reports(inst):
        return {
            "ig": run_iterative(inst, "ig"),
            "at": run_iterative(inst, "at"),
            "sa": run_sa(inst, SaConfig(seed=0)),
        }

    @pytest.mark.parametrize("seed,opt", [(0, 107), (1, 66)])
    def test_t10_feasible_and_at_least_opt(self, seed, opt):
        inst = make_er_instance(60, 0.1, 10, 5, "concave", seed=seed)
        assert oracle_opt(inst).norm == opt
        for name, report in self._reports(inst).items():
            assert report.feasible, name
            assert unseparated_pairs(inst, report.budget) == [], name
            assert report.budget.within_box(inst.box), name
            assert report.norm >= opt, name

    def test_t20_feasible(self):
        # the oracle takes over a minute here, so only feasibility is checked
        inst = make_er_instance(60, 0.1, 20, 5, "concave", seed=0)
        for name, report in self._reports(inst).items():
            assert report.feasible, name
            assert unseparated_pairs(inst, report.budget) == [], name
            assert report.budget.within_box(inst.box), name


def _random_instance(seed):
    """A separable instance on 3-5 nodes whose nondecreasing tables have flat
    steps and jumps; about a third have affine tables only, so LR runs."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(3, 5)
        edges = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.5]
        if not edges:
            continue
        affine = rng.random() < 1 / 3
        weights = []
        for _ in edges:
            table = [rng.randint(1, 2)]
            step = rng.randint(1, 3)
            for _ in range(rng.randint(1, 3)):
                table.append(table[-1] + (step if affine else rng.randint(0, 3)))
            weights.append(WeightFunction(tuple(table)))
        pairs = list(dict.fromkeys(tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 2))))
        try:
            return QosdInstance(Graph(n, edges), weights, pairs, rng.randint(3, 6))
        except InfeasibleBoxError:
            continue


def _separates(inst, values):
    lengths = [w.table[v] for w, v in zip(inst.weights, values)]
    return all(
        _bellman_ford(inst.graph.n, inst.graph.edges, lengths, s)[t] >= inst.threshold
        for s, t in inst.pairs
    )


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000))
@example(511)  # flat affine tables: LR's beta_max is 0
def test_solvers_against_exhaustive_optimum(seed):
    inst = _random_instance(seed)
    opt = oracle_opt(inst)
    assert opt.budget.within_box(inst.box)
    assert _separates(inst, opt.budget)
    exhaustive = next(
        norm
        for norm in range(sum(inst.box) + 1)
        if any(
            _separates(inst, [combo.get(e, 0) for e in range(inst.graph.m)])
            for combo in _vectors_of_norm(range(inst.graph.m), inst.box, norm)
        )
    )
    assert opt.norm == exhaustive

    solvers = {
        "ig": lambda: run_iterative(inst, "ig"),
        "at": lambda: run_iterative(inst, "at"),
        "sa": lambda: run_sa(inst, SaConfig(seed=seed)),
        "cc": lambda: run_cc(inst),
    }
    if all(w.affine_coeffs() is not None for w in inst.weights):
        solvers["lr"] = lambda: run_lr(inst, delta=0.2, seed=seed)
    for name, solve in solvers.items():
        report = solve()
        assert report.budget.within_box(inst.box), name
        assert report.feasible == _separates(inst, report.budget), name
        assert report.feasible, name
        assert report.norm >= opt.norm, name


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_prune_gives_back_only_listed_units(data):
    inst = _random_instance(data.draw(st.integers(0, 10_000)))
    assume(all(w.affine_coeffs() is not None for w in inst.weights))
    m = inst.graph.m
    # the ceiling of LR's LP optimum and the full box both separate every pair
    ceiling = round_solution(inst, constraint_generation(inst), math.inf, random.Random(0))
    x = data.draw(st.sampled_from([ceiling, BudgetVector(inst.box)]))
    edges = data.draw(st.lists(st.integers(0, m - 1), max_size=2 * m))
    pruned = prune(inst, x, edges)
    assert pruned.norm <= x.norm
    assert _separates(inst, pruned)
    for e in range(m):
        assert x[e] - pruned[e] in ((0, 1) if e in edges else (0,)), e
    # a listed edge that kept its units could not spare one even now
    for e in set(edges):
        if pruned[e] == x[e] > 0:
            assert not _separates(inst, [v - (f == e) for f, v in enumerate(pruned)]), e


def _vectors_of_norm(support, box, norm):
    def rec(idx, remaining, acc):
        if idx == len(support):
            if remaining == 0:
                yield dict(acc)
            return
        e = support[idx]
        for v in range(0, min(box[e], remaining) + 1):
            acc[e] = v
            yield from rec(idx + 1, remaining - v, acc)
            acc[e] = 0

    yield from rec(0, norm, {})


# solvers whose vector is fixed by the instance: gains are sums over paths and
# ties break by edge index, so neither depends on pair order
_ORDER_FREE = {
    "ig": lambda inst: run_iterative(inst, "ig"),
    "at": lambda inst: run_iterative(inst, "at"),
    "cc": run_cc,
}


def _reordered(inst, order):
    return QosdInstance(inst.graph, inst.weights, [inst.pairs[i] for i in order], inst.threshold)


def _with_far_edges(inst, far):
    """``inst`` with the ``(u, v, table)`` edges of ``far`` appended, each
    starting at T or above, so on no path below T."""
    graph = Graph(inst.graph.n, inst.graph.edges + [(u, v) for u, v, _ in far])
    return QosdInstance(graph, inst.weights + [WeightFunction(t) for _, _, t in far], inst.pairs, inst.threshold)


def _far_edges(data, inst, affine=False):
    """Edges between existing nodes, none already there, whose tables start
    at T or above: affine (any slope up to 60) when ``affine``, else any
    nondecreasing table."""
    n, taken = inst.graph.n, set(inst.graph.edges)
    free = [(u, v) for u in range(n) for v in range(n) if u != v and (u, v) not in taken]
    ends = data.draw(st.lists(st.sampled_from(free), unique=True, max_size=3)) if free else []
    far = []
    for u, v in ends:
        start = inst.threshold + data.draw(st.integers(0, 2))
        if affine:
            steps = [data.draw(st.integers(0, 60))] * data.draw(st.integers(0, 3))
        else:
            steps = data.draw(st.lists(st.integers(0, 3), max_size=3))
        far.append((u, v, tuple(itertools.accumulate(steps, initial=start))))
    return far


@pytest.fixture(scope="module")
def er240():
    return make_er_instance(240, 0.05, 5, 5, "heterogeneous", seed=3)


class TestMetamorphic:
    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_pair_order_moves_no_vector_and_no_optimum(self, data):
        inst = _random_instance(data.draw(st.integers(0, 10**6)))
        shuffled = _reordered(inst, data.draw(st.permutations(range(inst.k))))
        for name, solve in _ORDER_FREE.items():
            assert solve(shuffled).budget == solve(inst).budget, name
        # the oracle's optimum may be another vector of the same norm
        assert oracle_opt(shuffled).norm == oracle_opt(inst).norm

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_edges_at_or_above_t_are_ignored(self, data):
        inst = _random_instance(data.draw(st.integers(0, 10**6)))
        # SA's practical rounds walk the T-corridor, so they never meet such an edge
        solvers = dict(_ORDER_FREE, oracle=oracle_opt, sa=lambda i: run_sa(i, SaConfig(seed=1)))
        affine = all(w.affine_coeffs() is not None for w in inst.weights)
        if affine:
            # LR's rounding factor reads the largest slope of a corridor edge only
            solvers["lr"] = lambda i: run_lr(i, delta=0.2, seed=1)
        far = _far_edges(data, inst, affine)
        grown = _with_far_edges(inst, far)
        for name, solve in solvers.items():
            before, after = solve(inst), solve(grown)
            assert list(after.budget) == list(before.budget) + [0] * len(far), name
            assert after.extras.get("eta") == before.extras.get("eta"), name

    def test_er240_pair_order_and_far_edges(self, er240):
        shuffled = _reordered(er240, random.Random(0).sample(range(er240.k), er240.k))
        taken = set(er240.graph.edges)
        far = [(u, u + 1, (5, 6, 9)) for u in range(0, 240, 7) if (u, u + 1) not in taken][:10]
        grown = _with_far_edges(er240, far)
        assert grown.graph.m == er240.graph.m + 10 and shuffled.pairs != er240.pairs
        for name, solve in _ORDER_FREE.items():
            x = solve(er240).budget
            assert solve(shuffled).budget == x, name
            assert list(solve(grown).budget) == list(x) + [0] * 10, name
        # SA draws its walks by pair index, so only the far edges leave it alone
        x = run_sa(er240, SaConfig(seed=3)).budget
        assert list(run_sa(grown, SaConfig(seed=3)).budget) == list(x) + [0] * 10


def _check_separating_paths(inst, x, lengths=None, bound=None):
    """``separating_paths``' contract on one input, its separation checked
    by a sweep over the whole graph."""
    given = None if lengths is None else np.array(lengths)
    paths = separating_paths(inst, x, lengths=lengths, bound=bound)
    if lengths is None:
        lengths = np.array([w.table[v] for w, v in zip(inst.weights, x)], dtype=float)
    else:
        assert np.array_equal(lengths, given)  # the caller's lengths are not written
    bound = inst.threshold if bound is None else bound
    first = potential_paths(inst, x) if x is not None else [
        p for p in pair_shortest_paths(inst, None, lengths=lengths, bound=bound) if p is not None]
    assert paths[:len(first)] == first
    assert len(set(paths)) == len(paths)
    ends = {(inst.graph.edges[p[0]][0], inst.graph.edges[p[-1]][1]) for p in paths}
    assert ends <= set(inst.pairs)
    for p in paths:
        path_nodes(inst.graph, p)
        assert sum(lengths[e] for e in p) < bound
    # blocking the paths alone separates every pair
    edges = [e for p in paths for e in p]
    raised = lengths.copy()
    raised[edges] = np.maximum(raised[edges], inst.threshold)
    assert full_graph_paths(inst, raised, bound) == [None] * inst.k


def _fractional_lengths(inst, fractions):
    """Float lengths from table[0] up to the top of each table, as LR's are."""
    return np.array([w.table[0] + f * (w.table[-1] - w.table[0]) for w, f in zip(inst.weights, fractions)])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_separating_paths_block_every_pair(data):
    inst = _random_instance(data.draw(st.integers(0, 10_000)))
    x = BudgetVector([data.draw(st.integers(0, cap)) for cap in inst.box])
    _check_separating_paths(inst, x)
    fractions = data.draw(st.lists(st.floats(0, 1), min_size=inst.graph.m, max_size=inst.graph.m))
    _check_separating_paths(inst, None, _fractional_lengths(inst, fractions), inst.threshold * (1 - FEAS_TOL))


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_separating_paths_block_every_pair_er240(er240, seed):
    rng = np.random.default_rng(seed)
    m, box = er240.graph.m, np.array(er240.box)
    # budget on about one edge in ten: most pairs stay below T
    x = BudgetVector((rng.integers(0, box + 1) * (rng.random(m) < 0.1)).tolist())
    _check_separating_paths(er240, x)
    _check_separating_paths(er240, None, _fractional_lengths(er240, rng.random(m) * 0.2),
                            er240.threshold * (1 - FEAS_TOL))

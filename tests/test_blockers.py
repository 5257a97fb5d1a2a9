"""Unit-greedy and trading blockers: traces, invariants, equivalence."""

import random

import pytest

from qosd import (
    BudgetVector,
    Graph,
    InfeasibleBoxError,
    QosdInstance,
    WeightFunction,
    block_adaptive,
    block_greedy,
    concave_ratio,
    make_er_instance,
    min_budget_to_block,
    potential_paths,
)

from conftest import single_edge_instance
from reference import blocks_all, d_value


def diamond_paths(inst):
    return [(0, 1), (2, 3)]


class TestBlockGreedy:
    def test_diamond_both_paths(self, inst_a):
        x = block_greedy(inst_a, diamond_paths(inst_a))
        assert x == BudgetVector([1, 0, 1, 0])

    def test_single_path_one_unit(self, inst_a):
        trace = []
        x = block_greedy(inst_a, [(0, 1)], trace=trace)
        assert x == BudgetVector([1, 0, 0, 0])
        assert len(trace) == 1

    def test_already_blocked(self):
        inst = single_edge_instance((3, 4), 3)
        x = block_greedy(inst, [(0,)])
        assert x.norm == 0

    def test_strictly_increasing_d(self, inst_a):
        trace = []
        paths = diamond_paths(inst_a)
        block_greedy(inst_a, paths, trace=trace)
        assert all(gain >= 1 for _, _, gain in trace)

    def test_blocks_exactly_and_last_step_needed(self, inst_a):
        paths = diamond_paths(inst_a)
        trace = []
        x = block_greedy(inst_a, paths, trace=trace)
        assert blocks_all(inst_a, paths, x)
        last_edge, amount, _ = trace[-1]
        reduced = list(x.values)
        reduced[last_edge] -= amount
        assert not blocks_all(inst_a, paths, BudgetVector(reduced))

    def test_crosses_flat_increment(self):
        # no unit step has gain across the zero increment: the step is the 2-unit chunk
        inst = single_edge_instance((1, 1, 3), 2)
        trace = []
        x = block_greedy(inst, [(0,)], trace=trace)
        assert x == BudgetVector([2])
        assert trace == [(0, 2, 1)]

    def test_raises_when_no_chunk_helps(self):
        # the table stays flat up to its cap, so no step lengthens the path
        inst = QosdInstance(Graph(2, [(0, 1)]), [WeightFunction((1, 1, 1))], [(0, 1)], 2, validate_box=False)
        with pytest.raises(InfeasibleBoxError):
            block_greedy(inst, [(0,)])

    def test_gap_strictly_decreasing(self):
        inst = make_er_instance(15, 0.3, 4, 3, "convex", seed=2)
        paths = potential_paths(inst, BudgetVector.zeros(inst.graph.m))
        trace = []
        block_greedy(inst, paths, trace=trace)
        gaps = []
        total = len(paths) * inst.threshold
        x = [0] * inst.graph.m
        gaps.append(total - d_value(inst, paths, BudgetVector(x)))
        for edge, amount, _ in trace:
            x[edge] += amount
            gaps.append(total - d_value(inst, paths, BudgetVector(x)))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))


class TestBlockAdaptive:
    def test_convex_chunk_beats_unit(self):
        # table [1,2,5]: z=2 has gain 3 ratio 3/2, z=1 gain 1 ratio 1
        inst = single_edge_instance((1, 2, 5), 4)
        trace = []
        x = block_adaptive(inst, [(0,)], trace=trace)
        assert x == BudgetVector([2])
        assert trace == [(0, 2, 3)]

    def test_diamond_matches_greedy(self, inst_a):
        paths = diamond_paths(inst_a)
        assert block_adaptive(inst_a, paths) == block_greedy(inst_a, paths)

    def test_already_blocked(self):
        inst = single_edge_instance((3, 4), 3)
        assert block_adaptive(inst, [(0,)]).norm == 0

    def test_crosses_flat_increment(self):
        inst = single_edge_instance((1, 1, 3), 2)
        x = block_adaptive(inst, [(0,)])
        assert x == BudgetVector([2])

    def test_every_chunk_has_maximal_ratio(self):
        inst = make_er_instance(15, 0.3, 5, 3, "convex", seed=4)
        paths = potential_paths(inst, BudgetVector.zeros(inst.graph.m))
        trace = []
        block_adaptive(inst, paths, trace=trace)
        # replay: re-scan all chunks before each applied step
        x = [0] * inst.graph.m
        lengths = {p: sum(inst.weights[e].table[0] for e in p) for p in paths}
        for edge, amount, gain in trace:
            assert gain >= 1
            best = 0.0
            for e in {e for p in paths for e in p}:
                for z in range(1, inst.box[e] - x[e] + 1):
                    delta = inst.weights[e].table[x[e] + z] - inst.weights[e].table[x[e]]
                    g = sum(
                        min(inst.threshold - lengths[p], delta)
                        for p in paths
                        if e in p and lengths[p] < inst.threshold
                    )
                    best = max(best, g / z)
            assert gain / amount == pytest.approx(best)
            delta = inst.weights[edge].table[x[edge] + amount] - inst.weights[edge].table[x[edge]]
            x[edge] += amount
            for p in paths:
                if edge in p:
                    lengths[p] += delta


class TestEquivalenceAtGammaOne:
    @pytest.mark.parametrize("model", ["linear", "concave"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_on_gamma_one(self, model, seed):
        inst = make_er_instance(18, 0.25, 3, 3, model, seed=seed)
        assert concave_ratio(inst.weights) == 1
        paths = potential_paths(inst, BudgetVector.zeros(inst.graph.m))
        if not paths:
            pytest.skip("instance separated at zero budget")
        tg, ta = [], []
        xg = block_greedy(inst, paths, trace=tg)
        xa = block_adaptive(inst, paths, trace=ta)
        assert xg == xa
        assert tg == ta  # same picks in the same order


class TestOracleBound:
    def test_greedy_never_beats_oracle(self):
        rng = random.Random(7)
        for seed in range(5):
            inst = make_er_instance(8, 0.35, 3, 2, "linear", seed=seed)
            paths = potential_paths(inst, BudgetVector.zeros(inst.graph.m))
            if not paths:
                continue
            opt = min_budget_to_block(inst, paths).norm
            assert block_greedy(inst, paths).norm >= opt
            assert block_adaptive(inst, paths).norm >= opt

import hashlib
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qosd import (
    BudgetVector,
    ConfigError,
    GammaZeroError,
    Graph,
    PathSupport,
    QosdInstance,
    SaConfig,
    SolverTimeout,
    WeightFunction,
    build_sp_tree,
    build_weights,
    greedy_chunk,
    make_er_instance,
    run_sa,
    sample_count,
    sample_path,
    unseparated_pairs,
)
from qosd import sa
from qosd.pathcore import adjacency, budget_array, distances, edge_lengths, reduce
from qosd.sa import _WALK_BLOCK, SampledPath, _RoundWalker

from conftest import diamond_instance, single_edge_instance
from reference import _derived_rng, chunk_inputs, estimate_B, out_adj, path_nodes, tree_parents


class TestBuildSpTree:
    def test_diamond_parents(self, inst_a):
        tree = build_sp_tree(inst_a, BudgetVector.zeros(4), 3)
        # ties at node 0 resolve to the lower next-hop id
        assert tree[0] == 1
        assert tree[1] == 3
        assert tree[2] == 3
        assert tree[3] is None

    def test_sink_without_incoming(self, inst_a):
        tree = build_sp_tree(inst_a, BudgetVector.zeros(4), 0)
        assert tree == [None, None, None, None]

    def test_recomputed_after_budget(self, inst_a):
        tree = build_sp_tree(inst_a, BudgetVector([2, 0, 0, 0]), 3)
        assert tree[0] == 2  # heavy (0,1) flips the next hop


class TestSamplePath:
    def test_diamond_two_outcomes(self, inst_a):
        trees = {3: build_sp_tree(inst_a, BudgetVector.zeros(4), 3)}
        seen = {}
        for i in range(200):
            sp = sample_path(
                inst_a, BudgetVector.zeros(4), trees, 0.8, random.Random(i)
            )
            assert sp.feasible
            seen[sp.edges] = sp.rho
        assert seen == {(0, 1): 0.8, (2, 3): pytest.approx(0.2)}

    def test_empirical_branch_frequency(self, inst_a):
        trees = {3: build_sp_tree(inst_a, BudgetVector.zeros(4), 3)}
        n = 20_000
        hits = 0
        for i in range(n):
            sp = sample_path(
                inst_a, BudgetVector.zeros(4), trees, 0.8, _derived_rng(99, 0, 0, i)
            )
            hits += sp.edges == (0, 1)
        sigma = math.sqrt(0.8 * 0.2 / n)
        assert abs(hits / n - 0.8) <= 3 * sigma

    def test_truncated_walk_infeasible(self, inst_a):
        # budget on both branch edges pushes current length to T mid-walk
        x = BudgetVector([2, 0, 2, 0])
        trees = {3: build_sp_tree(inst_a, x, 3)}
        for i in range(50):
            sp = sample_path(inst_a, x, trees, 0.8, random.Random(i))
            assert not sp.feasible
            assert len(sp.edges) == 1  # stopped after one heavy step

    def test_dead_end_infeasible(self):
        # 0 -> 1 -> 2 with a trap edge 1 -> 3 (3 has no exits), pair (0, 2)
        g = Graph(4, [(0, 1), (1, 2), (1, 3)])
        weights = build_weights(g, "linear", 3)
        inst = QosdInstance(g, weights, [(0, 2)], 3)
        trees = {2: build_sp_tree(inst, BudgetVector.zeros(3), 2)}
        outcomes = set()
        for i in range(300):
            sp = sample_path(inst, BudgetVector.zeros(3), trees, 0.8, random.Random(i))
            outcomes.add((sp.edges, sp.feasible))
        assert ((0, 1), True) in outcomes  # over nodes 0, 1, 2
        assert ((0, 2), False) in outcomes  # over 0, 1, 3: a dead end contributes zero

    def test_rho_lower_bound_per_sample(self):
        alpha = 0.8
        for seed in range(5):
            inst = make_er_instance(15, 0.3, 4, 3, "linear", seed=seed)
            x = BudgetVector.zeros(inst.graph.m)
            trees = {t: build_sp_tree(inst, x, t) for _, t in inst.pairs}
            d = inst.graph.max_out_degree
            bound = (1.0 / inst.k) * ((1 - alpha) / max(d - 1, 1)) ** inst.hop_bound
            for i in range(300):
                sp = sample_path(inst, x, trees, alpha, random.Random(i))
                assert sp.rho > 0
                if sp.feasible:
                    assert sp.rho >= bound * (1 - 1e-12)

    def test_probability_accounting_exhaustive(self):
        # the probabilities of all walk outcomes for one pair sum to one
        for inst, pair_index in [
            (diamond_instance(), 0),
            (_k4_instance(), 0),
        ]:
            x = BudgetVector.zeros(inst.graph.m)
            trees = {t: build_sp_tree(inst, x, t) for _, t in inst.pairs}
            total = _walk_tree_mass(inst, x, trees, pair_index, alpha=0.8)
            assert total == pytest.approx(1.0, abs=1e-12)


def _walker_round(inst, x, alpha):
    """A walker whose kept round state is raised from zero budget to x in one
    step, on every edge x spends on."""
    walker = _RoundWalker(inst, alpha)
    walker.raise_edges(np.flatnonzero(x.values).tolist(), x.values)
    return walker


def _recording_blocks(walker):
    """Wraps ``walker.block`` so that every block it walks is kept in the
    returned list, as (pair, (edges, rho, feasible))."""
    blocks, block = [], walker.block

    def recorded(*args):
        blocks.append((args[0], block(*args)))
        return blocks[-1][1]

    walker.block = recorded
    return blocks


def _edge_seq(row):
    """A walk's edges from its row of a block's -1-padded edge array."""
    return tuple(row[row >= 0].tolist())


def _tally(blocks):
    """The recorded blocks' distinct feasible walks in first-seen order, each
    mapped to [times drawn, rho of its first draw]."""
    tally = {}
    for _, (edges, rho, feasible) in blocks:
        for i in np.flatnonzero(feasible).tolist():
            tally.setdefault(_edge_seq(edges[i]), [0, float(rho[i])])[0] += 1
    return tally


def _assert_round_matches_sample_path(inst, x, alpha, count, seed=0, rng=None):
    """The batched walker's blocks equal sample_path walk by walk: same
    edges, feasibility and a rho equal under ==, sample_path's edges linking
    the drawn pair's source onward without revisiting a node (to its sink
    when feasible); returns sample_path's walks. Walk i draws its pair and
    then its steps from ``rng(i)`` (``_derived_rng(seed, 3, 1, i)`` when
    None)."""
    rng = rng or (lambda i: _derived_rng(seed, 3, 1, i))
    walker = _walker_round(inst, x, alpha)
    batched = []
    for start in range(0, count, _WALK_BLOCK):
        rngs = [rng(i) for i in range(start, min(start + _WALK_BLOCK, count))]
        pair = np.array([r.randrange(inst.k) for r in rngs])
        edges, rho, feasible = walker.block(pair, 1.0 / inst.k, lambda idx: [rngs[i].random() for i in idx])
        batched += [(int(pair[i]), _edge_seq(edges[i]), float(rho[i]), bool(feasible[i]))
                    for i in range(len(rngs))]
    assert len(batched) == count
    trees = {t: build_sp_tree(inst, x, t) for _, t in inst.pairs}
    wanted = []
    for i, (pair_index, edge_seq, rho, feasible) in enumerate(batched):
        want = sample_path(inst, x, trees, alpha, rng(i))
        s, t = inst.pairs[pair_index]
        nodes = path_nodes(inst.graph, want.edges) if want.edges else (s,)
        assert nodes[0] == s and (nodes[-1] == t or not want.feasible), i
        assert edge_seq == want.edges, i
        assert feasible == want.feasible, i
        assert rho == want.rho, i
        wanted.append(want)
    return wanted


class TestRoundWalker:
    @pytest.mark.parametrize("alpha", [0.0, 0.8])
    def test_diamond(self, inst_a, alpha):
        for x in (BudgetVector.zeros(4), BudgetVector([2, 0, 0, 0]), BudgetVector([2, 0, 2, 0])):
            _assert_round_matches_sample_path(inst_a, x, alpha, 60)

    @pytest.mark.parametrize("alpha", [0.0, 0.8])
    def test_dead_end(self, alpha):
        g = Graph(4, [(0, 1), (1, 2), (1, 3)])
        inst = QosdInstance(g, build_weights(g, "linear", 3), [(0, 2)], 3)
        walks = _assert_round_matches_sample_path(inst, BudgetVector.zeros(3), alpha, 80)
        # at alpha 0 the walk never takes its tree parent 2 from node 1
        assert {sp.feasible for sp in walks} == ({True, False} if alpha else {False})

    def test_rounding_gap_takes_the_last_free_slot(self):
        # ten uniform slots add up to 1 - 2**-53, so the largest draw passes
        # every cumulative probability and the walk takes the last slot
        class TopDraw(random.Random):
            def random(self):
                return 1.0 - 2.0**-53

        g = Graph(12, [(0, v) for v in range(1, 11)])
        inst = QosdInstance(g, build_weights(g, "linear", 3), [(0, 11)], 3)
        walks = _assert_round_matches_sample_path(
            inst, BudgetVector.zeros(g.m), 0.8, 3, rng=lambda i: TopDraw(i))
        assert {sp.edges for sp in walks} == {(9,)}  # edge 9 is (0, 10)

    @pytest.mark.parametrize("alpha", [0.0, 0.8])
    def test_er240_nonzero_budget_over_several_blocks(self, alpha):
        inst = make_er_instance(240, 0.05, 5, 5, "heterogeneous", seed=0)
        x = BudgetVector([min(1, cap) if e % 3 == 0 else 0 for e, cap in enumerate(inst.box)])
        assert x.norm > 0
        walks = _assert_round_matches_sample_path(inst, x, alpha, 2 * _WALK_BLOCK + 37)
        assert {sp.feasible for sp in walks} == {True, False}

    def test_never_starts_at_a_separated_pair(self, inst_a):
        # (3, 0) has no path, so only (0, 3) is live and every walk reaches 3
        inst = QosdInstance(inst_a.graph, inst_a.weights, [(0, 3), (3, 0)], 3)
        walker = _walker_round(inst, BudgetVector.zeros(4), 0.8)
        live = np.flatnonzero(walker.rows[inst.sink_row, walker.sources] < inst.threshold)
        assert live.tolist() == [0]
        blocks = _recording_blocks(walker)
        paths, weights = walker.walks(live, 700, np.random.default_rng(0))
        assert len(blocks) == 2 and all((pair == 0).all() for pair, _ in blocks)
        tally = _tally(blocks)
        assert list(tally) == paths
        assert weights == [c * (1.0 / 700) / rho for c, rho in tally.values()]
        assert sum(c for c, _ in tally.values()) == 700
        # the routes 0-1-3 and 0-2-3
        assert paths in ([(0, 1), (2, 3)], [(2, 3), (0, 1)])
        # rho starts at 1 / |live| = 1
        assert sorted(rho for _, rho in tally.values()) == [(1.0 - 0.8) / 1, 0.8]

    def test_merged_walks_count_every_feasible_walk(self):
        inst = make_er_instance(240, 0.05, 5, 5, "heterogeneous", seed=0)
        x = BudgetVector([min(1, cap) if e % 3 == 0 else 0 for e, cap in enumerate(inst.box)])
        walker = _walker_round(inst, x, 0.8)
        live = np.flatnonzero(walker.rows[inst.sink_row, walker.sources] < inst.threshold)
        blocks = _recording_blocks(walker)
        count = 2 * _WALK_BLOCK + 37
        paths, weights = walker.walks(live, count, np.random.default_rng([4, 2, 0]))
        assert [len(pair) for pair, _ in blocks] == [_WALK_BLOCK, _WALK_BLOCK, 37]
        feasible = sum(int(ok.sum()) for _, (_, _, ok) in blocks)
        # the distinct feasible walks in first-seen order, each with its number of draws
        tally = _tally(blocks)
        assert paths == list(tally)
        counts = [c for c, _ in tally.values()]
        # a weight gives back its walk's draws, and is draws * (1 / drawn) / rho under ==
        assert [round(w * rho * count) for w, (_, rho) in zip(weights, tally.values())] == counts
        assert sum(counts) == feasible > len(paths)
        assert weights == [c * (1.0 / count) / rho for c, rho in tally.values()]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_small_digraphs(self, data):
        n = data.draw(st.integers(2, 7))
        ordered = [(u, v) for u in range(n) for v in range(n) if u != v]
        # drawn in any order, so edge indices need not follow (src, dst) order
        edges = data.draw(st.lists(st.sampled_from(ordered), min_size=1, unique=True))
        weights = []
        for _ in edges:
            steps = data.draw(st.lists(st.integers(0, 2), max_size=3))
            table = [data.draw(st.integers(1, 3))]
            for step in steps:
                table.append(table[-1] + step)
            weights.append(WeightFunction(tuple(table)))
        pairs = data.draw(st.lists(st.sampled_from(ordered), min_size=1, max_size=3))
        inst = QosdInstance(Graph(n, edges), weights, pairs, data.draw(st.integers(2, 8)),
                            validate_box=False)
        x = BudgetVector([data.draw(st.integers(0, w.cap)) for w in weights])
        alpha = data.draw(st.sampled_from([0.0, 0.5, 0.8]))
        _assert_round_matches_sample_path(inst, x, alpha, 40, seed=data.draw(st.integers(0, 99)))


def _fresh_state(walker, x):
    """The lengths, reverse sink rows and tree parents (n for none) that a
    walker built from scratch at budget x holds, the parents from the
    vectorised reference rule, which ``build_sp_tree`` must match."""
    inst, n = walker.instance, walker.instance.graph.n
    lengths = edge_lengths(inst, x) + [np.inf]
    rows = distances(inst, lengths, inst.sinks, reverse=True)
    parents = [tree_parents(inst.graph, np.array(lengths), row).tolist() for row in rows]
    assert parents == [[n if v is None else v for v in build_sp_tree(inst, x, t)] for t in inst.sinks.tolist()]
    return lengths, rows, parents


def _assert_state_is_fresh(walker, x):
    """The kept state and its list mirrors equal a fresh walker's."""
    lengths, rows, parents = _fresh_state(walker, x)
    assert walker.lengths.tolist() == walker._lengths == lengths
    assert np.array_equal(walker.rows, rows) and walker._rows == rows.tolist()
    assert walker.parents.tolist() == walker._parents == parents


def _spy_on_updates(monkeypatch, graph):
    """Lists that collect the sources of every ``sa.distances`` call and the
    node of every ``sa._next_hop`` call (a parent recomputed)."""
    node_of = {id(out): u for u, out in enumerate(adjacency(graph)[0])}
    swept, tried = [], []
    distances_, next_hop = sa.distances, sa._next_hop

    def counted(instance, lengths, sources, **kwargs):
        swept.append(list(sources))
        return distances_(instance, lengths, sources, **kwargs)

    def spied(out, *args):
        tried.append(node_of[id(out)])
        return next_hop(out, *args)

    monkeypatch.setattr(sa, "distances", counted)
    monkeypatch.setattr(sa, "_next_hop", spied)
    return swept, tried


class TestRoundState:
    """The walker's kept lengths, sink rows and tree parents, raised round by
    round, equal a fresh sweep and fresh tree parents at every budget."""

    @pytest.mark.parametrize("case", ["ties", "unreachable", "two-out-edges", "escalation"])
    def test_run_sa_keeps_a_fresh_state_after_every_round(self, case, monkeypatch):
        raised = []

        class Checked(_RoundWalker):
            def __init__(self, *args):
                super().__init__(*args)
                _assert_state_is_fresh(self, BudgetVector.zeros(self.instance.graph.m))

            def raise_edges(self, edges, values):
                super().raise_edges(edges, values)
                _assert_state_is_fresh(self, BudgetVector(values))
                raised.append((list(edges), self.rows.copy()))

        monkeypatch.setattr(sa, "_RoundWalker", Checked)
        if case in ("ties", "unreachable"):
            # every table starts at 1, so zero-budget rows are full of ties; at
            # density 0.05 some nodes cannot reach some sinks
            inst = make_er_instance(60, 0.1 if case == "ties" else 0.05, 5, 10, "linear",
                                    seed=1000 if case == "ties" else 3)
            config = SaConfig(seed=0)
        elif case == "two-out-edges":
            inst, config = diamond_instance(), SaConfig(q=2)
        else:
            g = Graph(4, [(0, 1), (1, 2), (1, 3)])
            inst = QosdInstance(g, build_weights(g, "linear", 3), [(0, 2), (0, 3)], 3)
            config = SaConfig(alpha=0.0, samples_per_round=1)
        report = run_sa(inst, config)
        assert report.feasible and len(raised) == report.outer_iterations > 0
        if case == "unreachable":
            assert all(np.isinf(rows).any() for _, rows in raised)
        elif case == "two-out-edges":
            # the chunk raises both of node 0's tight out-edges at once
            assert raised[0][0] == [0, 2]
        elif case == "escalation":
            assert (report.extras["escalations"], report.extras["fallbacks"]) == (3, 1)
            assert np.isinf(raised[-1][1]).any()  # node 3 never reaches the sink 2

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_raises_on_small_digraphs(self, data):
        n = data.draw(st.integers(2, 7))
        ordered = [(u, v) for u in range(n) for v in range(n) if u != v]
        edges = data.draw(st.lists(st.sampled_from(ordered), min_size=1, unique=True))
        # small steps, so raised rows keep ties and flat increments
        weights = [WeightFunction(tuple(np.cumsum([data.draw(st.integers(1, 2))]
                                                  + data.draw(st.lists(st.integers(0, 2), max_size=4))).tolist()))
                   for _ in edges]
        pairs = data.draw(st.lists(st.sampled_from(ordered), min_size=1, max_size=4))
        inst = QosdInstance(Graph(n, edges), weights, pairs, 8, validate_box=False)
        walker, values = _RoundWalker(inst, 0.8), budget_array(inst)
        _assert_state_is_fresh(walker, BudgetVector(values))
        for _ in range(data.draw(st.integers(1, 4))):
            # a chunk of any size, some of it on edges out of one tail
            chunk = data.draw(st.lists(st.sampled_from(range(len(edges))), min_size=1, unique=True))
            chunk = [e for e in chunk if values[e] < weights[e].cap]
            for e in chunk:
                values[e] += data.draw(st.integers(1, weights[e].cap - values[e]))
            walker.raise_edges(chunk, values)
            _assert_state_is_fresh(walker, BudgetVector(values))

    def test_a_swept_row_refreshes_a_tail_that_kept_its_distance(self):
        # one chunk raises (0, 1) and (4, 3): node 4 moves in sink 3's row,
        # while node 0 keeps its distance over (0, 2) and nothing next to it
        # moves; its parent still turns from 1 to 2
        g = Graph(5, [(0, 1), (0, 2), (1, 3), (2, 3), (4, 3)])
        inst = QosdInstance(g, [WeightFunction((1, 2))] * 5, [(0, 3), (4, 3)], 3, validate_box=False)
        walker, values = _RoundWalker(inst, 0.8), budget_array(inst)
        assert walker.parents.tolist() == [[1, 3, 3, 5, 3]]
        values[0] = values[4] = 1
        walker.raise_edges([0, 4], values)
        assert walker.parents.tolist() == [[2, 3, 3, 5, 3]]
        _assert_state_is_fresh(walker, BudgetVector(values))

    def test_a_raise_sweeps_nothing_and_leaves_rows_without_a_tight_raised_edge(self, monkeypatch):
        # sinks 3 and 4; (0, 2) is tight in neither row, (2, 3) is node 2's
        # only out-edge toward 3, and node 2 cannot reach 4
        g = Graph(5, [(0, 1), (1, 3), (0, 2), (2, 3), (1, 4)])
        weights = [WeightFunction(t) for t in [(1, 2), (1, 2), (1, 3), (2, 3), (1, 2)]]
        inst = QosdInstance(g, weights, [(0, 3), (0, 4)], 5, validate_box=False)
        walker, values = _RoundWalker(inst, 0.8), budget_array(inst)
        swept, tried = _spy_on_updates(monkeypatch, g)
        # per raised edge, the sinks whose row moves and the nodes whose parent
        # is recomputed: node 2 moves in sink 3's row, nodes 1 and 0 in sink 4's
        for edge, moved_rows, parents_at in [(2, [], set()), (3, [3], {2}), (4, [4], {0, 1})]:
            values[edge] += 1
            before = walker.rows.copy()
            swept.clear()
            tried.clear()
            walker.raise_edges([edge], values)
            kept = [old.tobytes() == new.tobytes() for old, new in zip(before, walker.rows)]
            assert [t for t, same in zip(inst.sinks.tolist(), kept) if not same] == moved_rows
            assert swept == [] and set(tried) == parents_at
            _assert_state_is_fresh(walker, BudgetVector(values))

    def test_a_moved_node_resettles_through_other_moved_nodes(self):
        # a chain 0 -> 1 -> 2 -> 3 into sink 3 and a long edge (0, 3): raising
        # (2, 3) moves 2, 1 and 0, and node 0, first seeded over (0, 3) at 10,
        # re-settles through the moved 1 at 7
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        weights = [WeightFunction(t) for t in [(1,), (1,), (1, 5), (10,)]]
        inst = QosdInstance(g, weights, [(0, 3)], 20, validate_box=False)
        walker, values = _RoundWalker(inst, 0.8), budget_array(inst)
        assert walker.rows.tolist() == [[3, 2, 1, 0]] and walker.parents.tolist() == [[1, 2, 3, 4]]
        values[2] = 1
        walker.raise_edges([2], values)
        assert walker.rows.tolist() == [[7, 6, 5, 0]] and walker.parents.tolist() == [[1, 2, 3, 4]]
        _assert_state_is_fresh(walker, BudgetVector(values))

    def test_an_unreachable_node_stays_at_inf_with_no_parent(self):
        # node 4 has no out-edge, so it cannot reach sink 3: raising (2, 3)
        # moves 2 and 0, node 2's seed over (2, 4) is inf and it re-settles
        # over (2, 1); node 4 keeps +inf and parent n
        g = Graph(5, [(0, 2), (2, 3), (2, 4), (2, 1), (1, 3)])
        weights = [WeightFunction(t) for t in [(1,), (1, 9), (1,), (3,), (1,)]]
        inst = QosdInstance(g, weights, [(0, 3)], 20, validate_box=False)
        walker, values = _RoundWalker(inst, 0.8), budget_array(inst)
        assert walker.rows.tolist() == [[2, 1, 1, 0, math.inf]] and walker.parents.tolist() == [[2, 3, 3, 5, 5]]
        values[1] = 1
        walker.raise_edges([1], values)
        assert walker.rows.tolist() == [[5, 1, 4, 0, math.inf]] and walker.parents.tolist() == [[2, 3, 1, 5, 5]]
        _assert_state_is_fresh(walker, BudgetVector(values))

    def test_a_raise_over_a_flat_increment_moves_nothing(self, monkeypatch):
        g = Graph(3, [(0, 1), (1, 2)])
        inst = QosdInstance(g, [WeightFunction((1,)), WeightFunction((1, 1, 3))], [(0, 2)], 5, validate_box=False)
        walker, values = _RoundWalker(inst, 0.8), budget_array(inst)
        swept, tried = _spy_on_updates(monkeypatch, g)
        values[1] = 1
        walker.raise_edges([1], values)
        assert walker.rows.tolist() == [[2, 1, 0]] and walker.parents.tolist() == [[1, 2, 3]]
        assert swept == tried == []
        values[1] = 2  # the next unit crosses to 3: both nodes move
        walker.raise_edges([1], values)
        assert walker.rows.tolist() == [[4, 3, 0]] and sorted(tried) == [0, 0, 1, 1]
        _assert_state_is_fresh(walker, BudgetVector(values))

    def test_an_unmoved_node_whose_parent_moved_takes_its_next_tight_hop(self):
        # node 0 reaches sink 3 through 1 and 2 at length 2, parent 1: raising
        # (1, 3) moves 1, and 0 keeps its distance through 2, its new parent
        g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        inst = QosdInstance(g, [WeightFunction((1, 2))] * 4, [(0, 3)], 5, validate_box=False)
        walker, values = _RoundWalker(inst, 0.8), budget_array(inst)
        assert walker.rows.tolist() == [[2, 1, 1, 0]] and walker.parents.tolist() == [[1, 3, 3, 4]]
        values[2] = 1
        walker.raise_edges([2], values)
        assert walker.rows.tolist() == [[2, 2, 1, 0]] and walker.parents.tolist() == [[2, 3, 3, 4]]
        _assert_state_is_fresh(walker, BudgetVector(values))


def _k4_instance():
    nodes = range(4)
    edges = [(u, v) for u in nodes for v in nodes if u != v]
    g = Graph(4, edges)
    return QosdInstance(g, build_weights(g, "linear", 3), [(0, 3)], 3)


def _walk_tree_mass(inst, x, trees, pair_index, alpha):
    """Independent expansion of every walk outcome and its probability."""
    from qosd.pathcore import edge_lengths

    lengths = edge_lengths(inst, x)
    s, t = inst.pairs[pair_index]
    tree = trees[t]
    total = 0.0

    def expand(u, visited, current, prob):
        nonlocal total
        if u == t or current >= inst.threshold:
            total += prob
            return
        avail = [(v, ei) for v, ei in out_adj(inst.graph)[u] if v not in visited]
        if not avail:
            total += prob
            return
        if len(avail) == 1:
            probs = [1.0]
        else:
            parent = tree[u]
            if parent is not None and any(v == parent for v, _ in avail):
                other = (1 - alpha) / (len(avail) - 1)
                probs = [alpha if v == parent else other for v, _ in avail]
            else:
                probs = [1.0 / len(avail)] * len(avail)
        for (v, ei), p in zip(avail, probs):
            expand(v, visited | {v}, current + lengths[ei], prob * p)

    expand(s, {s}, 0, 1.0)
    return total


class TestEstimateB:
    def test_exact_arithmetic_single_sample(self, inst_a):
        sp = SampledPath((2, 3), 0.2, True)
        assert estimate_B(inst_a, [sp], BudgetVector.zeros(4)) == pytest.approx(10.0)

    def test_all_infeasible_gives_zero(self, inst_a):
        sp = SampledPath((0,), 0.8, False)
        assert estimate_B(inst_a, [sp], BudgetVector.zeros(4)) == 0.0

    def test_empty_sample_set_rejected(self, inst_a):
        with pytest.raises(ValueError):
            estimate_B(inst_a, [], BudgetVector.zeros(4))

    def test_unbiased_at_zero_budget(self, inst_a):
        # exact B = 4 on the diamond; R/rho is 2.5 (p=.8) or 10 (p=.2)
        x = BudgetVector.zeros(4)
        trees = {3: build_sp_tree(inst_a, x, 3)}
        samples = [
            sample_path(inst_a, x, trees, 0.8, _derived_rng(7, 0, 0, i))
            for i in range(20_000)
        ]
        est = estimate_B(inst_a, samples, x)
        values = [2.5, 10.0]
        mean, var = 4.0, 0.8 * 2.5**2 + 0.2 * 10.0**2 - 16.0
        se = math.sqrt(var / len(samples))
        assert abs(est - mean) <= 3 * se


def _simple_paths(graph, s, t):
    """Every simple s-t path's edge sequence."""
    found = []

    def walk(u, seen, edges):
        if u == t:
            found.append(tuple(edges))
            return
        for v, e in out_adj(graph)[u]:
            if v not in seen:
                walk(v, seen | {v}, edges + [e])

    walk(s, {s}, [])
    return found


def _capped_length(inst, edges, x):
    return min(inst.threshold, sum(inst.weights[e].table[x[e]] for e in edges))


def _rise(inst, edges, x, e):
    """The capped length gained on ``edges`` from one more unit on e (0 at cap)."""
    if e not in edges or x[e] == inst.box[e]:
        return 0
    bumped = list(x)
    bumped[e] += 1
    return _capped_length(inst, edges, bumped) - _capped_length(inst, edges, x)


def _mean_and_se(values, counts, drawn):
    """Mean and standard error over ``drawn`` walks: ``values[i]`` drawn
    ``counts[i]`` times, every other walk 0."""
    mean = sum(v * c for v, c in zip(values, counts)) / drawn
    square = sum(v * v * c for v, c in zip(values, counts)) / drawn
    return mean, math.sqrt(max(square - mean * mean, 0.0) * drawn / (drawn - 1) / drawn)


@pytest.mark.parametrize("case", ["apart", "shared"])
def test_round_weights_unbiased_with_a_separated_pair(case, monkeypatch):
    """C05 through run_sa's own estimator: a round of ``_RoundWalker.walks``
    over the live pairs, weighted by ``greedy_chunk``'s count / (drawn * rho).
    The diamond's pair (0, 3) is live; the other pair is already separated,
    on an edge of its own ("apart") or on the diamond's edge (2, 3) at its
    cap ("shared"). The weighted capped-length sum estimates B over the live
    pairs (a separated pair's paths all stay at T) and each edge's weighted
    unit gain its exact gain, each within 3 SE."""
    if case == "apart":
        graph = Graph(6, [(0, 1), (1, 3), (0, 2), (2, 3), (4, 5)])
        pairs, x = [(0, 3), (4, 5)], BudgetVector([0, 0, 0, 0, 2])
    else:
        graph = Graph(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
        pairs, x = [(0, 3), (2, 3)], BudgetVector([0, 0, 0, 2])
    inst = QosdInstance(graph, build_weights(graph, "linear", 3), pairs, 3)
    walker = _walker_round(inst, x, 0.8)
    live = np.flatnonzero(walker.rows[inst.sink_row, walker.sources] < inst.threshold)
    assert live.tolist() == [0]
    drawn = 50_000
    blocks = _recording_blocks(walker)
    walked, walk_weights = walker.walks(live, drawn, np.random.default_rng([20240817, 0]))
    tally = _tally(blocks)
    counts = [c for c, _ in tally.values()]

    built = []

    class Recorded(PathSupport):
        def __init__(self, instance, paths, x=None, path_weight=None):
            built.append((list(paths), list(path_weight)))
            super().__init__(instance, paths, x, path_weight)

    monkeypatch.setattr(sa, "PathSupport", Recorded)
    greedy_chunk(inst, walked, walk_weights, x, 1)
    (paths, weights), = built
    assert paths == walked == list(tally) and weights == walk_weights

    # the exact values, over every simple path of the live pair below T at x = 0
    s, t = pairs[0]
    below = [p for p in _simple_paths(graph, s, t) if _capped_length(inst, p, [0] * graph.m) < 3]
    exact_b = sum(_capped_length(inst, p, x) for p in below)
    assert exact_b == (4 if case == "apart" else 5)
    estimate = sum(w * _capped_length(inst, p, x) for p, w in zip(paths, weights))
    mean, se = _mean_and_se([_capped_length(inst, p, x) / rho for p, (_, rho) in tally.items()],
                            counts, drawn)
    assert estimate == pytest.approx(mean, rel=1e-12) and se > 0
    assert abs(estimate - exact_b) <= 3 * se
    for e in range(graph.m):
        exact_gain = sum(_rise(inst, p, x, e) for p in below)
        gain = sum(w * _rise(inst, p, x, e) for p, w in zip(paths, weights))
        mean, se = _mean_and_se([_rise(inst, p, x, e) / rho for p, (_, rho) in tally.items()],
                                counts, drawn)
        assert gain == pytest.approx(mean, rel=1e-12, abs=1e-12)
        assert abs(gain - exact_gain) <= 3 * se
    # the walks' own support: its weighted unit gains are the estimates above
    support = PathSupport(inst, paths, x, weights)
    best = max(range(graph.m), key=lambda e: (sum(w * _rise(inst, p, x, e)
                                                  for p, w in zip(paths, weights)), -e))
    assert support.best()[0] == best


class TestSampleCount:
    def test_frozen_reference_value(self, inst_a):
        # independently evaluated closed form (mpmath, 40 digits): 34547.42...
        assert sample_count(inst_a, 1, 0.5, 0.5, gamma=Fraction(1)) == 34548

    def test_blows_up_as_gamma_vanishes(self, inst_a):
        counts = [
            sample_count(inst_a, 1, 0.5, 0.5, gamma=g)
            for g in (0.5, 0.1, 0.01, 0.001)
        ]
        assert counts == sorted(counts)
        assert counts[-1] > 100 * counts[0]

    def test_gamma_zero_unavailable(self, inst_a):
        with pytest.raises(GammaZeroError):
            sample_count(inst_a, 1, 0.5, 0.5, gamma=0)

    def test_practical_default_scales_with_pairs(self):
        inst = make_er_instance(60, 0.15, 3, 100, "linear", seed=0)
        report = run_sa(inst, SaConfig(seed=0, q=1))
        assert report.extras["samples_per_round"] == 1000

    @pytest.mark.parametrize("knobs, walks", [
        ({}, 8000),  # the default round shares q * max(100, 10k) walks among its q = 8 steps
        ({"q": 1, "samples_per_round": 777}, 777),  # an explicit size is used as given
        ({"q": 3, "samples_per_round": 777}, 777),
        ({"samples_per_round": 777}, 777),
    ])
    def test_round_size(self, knobs, walks):
        inst = make_er_instance(60, 0.15, 3, 100, "linear", seed=0)
        report = run_sa(inst, SaConfig(seed=0, **knobs))
        assert report.extras["samples_per_round"] == walks
        assert report.extras["samples_drawn"] % walks == 0


class TestGreedyChunk:
    def test_diamond_places_units_on_both_branches(self, inst_a):
        x = BudgetVector.zeros(4)
        trees = {3: build_sp_tree(inst_a, x, 3)}
        samples = [
            sample_path(inst_a, x, trees, 0.8, _derived_rng(3, 0, 0, i))
            for i in range(400)
        ]
        steps = greedy_chunk(inst_a, *chunk_inputs(samples), x, q=2)
        # matches exact-B greedy: one unit on the first edge of each route
        assert sorted(steps) == [(0, 1), (2, 1)]

    def test_zero_budget_chunk(self, inst_a):
        x = BudgetVector.zeros(4)
        trees = {3: build_sp_tree(inst_a, x, 3)}
        samples = [sample_path(inst_a, x, trees, 0.8, random.Random(0))]
        assert greedy_chunk(inst_a, *chunk_inputs(samples), x, q=0) == []

    def test_blocked_samples_give_zero(self, inst_a):
        x = BudgetVector([1, 0, 1, 0])
        trees = {3: build_sp_tree(inst_a, x, 3)}
        samples = [
            sample_path(inst_a, x, trees, 0.8, random.Random(i)) for i in range(50)
        ]
        assert greedy_chunk(inst_a, *chunk_inputs(samples), x, q=3) == []

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_merged_walks_give_the_per_walk_chunk(self, seed):
        # the first round of the er240 benchmark instances, as run_sa draws it
        inst = make_er_instance(240, 0.05, 5, 5, "heterogeneous", seed=seed)
        x = BudgetVector.zeros(inst.graph.m)
        walker = _walker_round(inst, x, 0.8)
        live = np.flatnonzero(walker.rows[inst.sink_row, walker.sources] < inst.threshold)
        blocks = _recording_blocks(walker)
        count = max(100, 10 * inst.k)
        paths, weights = walker.walks(live, count, np.random.default_rng([seed, 0, 0]))
        # every feasible walk on its own, weighted 1 * (1 / count) / rho
        per_walk = [(_edge_seq(edges[i]), 1 * (1.0 / count) / float(rho[i]))
                    for _, (edges, rho, ok) in blocks for i in np.flatnonzero(ok).tolist()]
        assert sum(len(pair) for pair, _ in blocks) == count > len(paths)
        for q in (1, 5):
            merged = greedy_chunk(inst, paths, weights, x, q)
            assert sum(amount for _, amount in merged) == q
            assert merged == greedy_chunk(inst, [p for p, _ in per_walk], [w for _, w in per_walk], x, q)

    def test_crosses_flat_increment(self):
        # table (1, 1, 5): the first unit gains nothing, two units reach T
        inst = single_edge_instance((1, 1, 5), 5)
        assert greedy_chunk(inst, [(0,)], [1.0], BudgetVector.zeros(1), q=1) == [(0, 2)]


class TestRunSa:
    def test_diamond_optimal_mostly(self, inst_a):
        hits = 0
        for seed in range(40):
            report = run_sa(inst_a, SaConfig(seed=seed))
            assert report.feasible
            hits += report.norm == 2
        assert hits >= 36  # >= 90%

    def test_cutting_uses_binary_components(self):
        inst = make_er_instance(20, 0.2, 4, 4, "cutting", seed=3)
        report = run_sa(inst, SaConfig(seed=1))
        assert report.feasible
        assert all(v in (0, 1) for v in report.budget)

    def test_escalation_and_fallback(self):
        # at alpha 0 every walk leaves node 1 for the other pair's sink, a dead
        # end, never for its tree parent, so whatever the stream the round
        # escalates three times and falls back to one exact unit; both dead
        # ends are sinks, so they lie on the T-corridor the walks run on
        g = Graph(4, [(0, 1), (1, 2), (1, 3)])
        inst = QosdInstance(g, build_weights(g, "linear", 3), [(0, 2), (0, 3)], 3)
        report = run_sa(inst, SaConfig(alpha=0.0, samples_per_round=1))
        assert report.feasible
        assert report.norm == 1
        assert report.extras["escalations"] == 3
        assert report.extras["fallbacks"] == 1

    def test_theoretical_mode_smoke(self, inst_a):
        report = run_sa(
            inst_a, SaConfig(q=1, seed=1, sample_mode="theoretical", epsilon=0.9, delta=0.9)
        )
        assert report.feasible
        assert report.extras["samples_per_round"] == 15973

    def test_theoretical_mode_keeps_the_time_limit(self):
        # theoretical sizing asks for about 1.3e10 walks in round 0 here, so
        # only a check between blocks of walks can stop the run in time
        inst = make_er_instance(30, 0.1, 3, 3, "linear", seed=0)
        config = SaConfig(sample_mode="theoretical")
        assert sample_count(inst, config.q, config.epsilon, config.delta / sum(inst.box)) > 10**10
        start = time.perf_counter()
        with pytest.raises(SolverTimeout, match="sampling round"):
            run_sa(inst, config, deadline=0.5)
        assert time.perf_counter() - start < 5.0

    def test_theoretical_rounds_are_sized_on_the_given_instance(self):
        # the edge 3 -> 4 starts at T, so the walks run on the diamond alone;
        # the round size still reads the fifth node and that edge's box
        graph = Graph(5, diamond_instance().graph.edges + [(3, 4)])
        inst = QosdInstance(graph, diamond_instance().weights + [WeightFunction((3, 4, 5))], [(0, 3)], 3)
        sub = reduce(inst)[0]
        want = sample_count(inst, 1, 0.9, 0.9 / sum(inst.box))
        assert sub.graph.n == 4 and want != sample_count(sub, 1, 0.9, 0.9 / sum(sub.box))
        report = run_sa(inst, SaConfig(q=1, seed=1, sample_mode="theoretical", epsilon=0.9, delta=0.9))
        assert report.feasible and report.extras["samples_per_round"] == want

    @pytest.mark.parametrize("knobs", [
        {"sample_mode": "bogus"}, {"q": 0}, {"alpha": 1.0}, {"epsilon": 5.0}, {"delta": 7.0},
        {"samples_per_round": 0}, {"samples_per_round": -3}, {"seed": -1},
    ])
    def test_bad_knob_raises_whatever_the_mode(self, inst_a, knobs):
        # practical mode never calls sample_count, so run_sa checks every knob itself
        with pytest.raises(ConfigError):
            run_sa(inst_a, SaConfig(**knobs))

    def test_threads_identical_result(self):
        inst = make_er_instance(25, 0.2, 4, 5, "linear", seed=8)
        a = run_sa(inst, SaConfig(seed=5), threads=1)
        b = run_sa(inst, SaConfig(seed=5), threads=4)
        assert a.budget == b.budget

    def test_progress_bounded_by_box(self):
        for seed in range(4):
            inst = make_er_instance(15, 0.3, 4, 3, "convex", seed=seed)
            report = run_sa(inst, SaConfig(seed=seed))
            assert report.feasible
            assert report.budget.within_box(inst.box)
            assert unseparated_pairs(inst, report.budget) == []

    @pytest.mark.parametrize("instance_args, config, rounds, extras, digest", [
        pytest.param((60, 0.1, 5, 10, "linear", 1000), SaConfig(seed=0, q=1), 95,
                     {"samples_drawn": 9500, "escalations": 0, "fallbacks": 0},
                     "b50c2b3f338de8ae46856b6d9099456edc74c4352bbf8d3b2974f764d47125f1", id="linear"),
        # flat increments: chunks cross them
        pytest.param((60, 0.1, 10, 5, "concave", 0), SaConfig(seed=0, q=1), 142,
                     {"samples_drawn": 14200, "escalations": 0, "fallbacks": 0},
                     "a0c7956b6ca7808b078a171e0a0c7d9665cca77432f7dac4b0daf2aee0313d03", id="concave"),
        # one walk a round: escalations (test_escalation_and_fallback reaches a fallback)
        pytest.param((60, 0.1, 5, 10, "linear", 1), SaConfig(seed=1, q=1, samples_per_round=1), 117,
                     {"samples_drawn": 257, "escalations": 61, "fallbacks": 0},
                     "68de229869eb699a061d8202714c256d369de6f99fe7767e5fa90556b8ca37e9", id="one-walk"),
        # the default: up to 8 steps a round on 8 * 100 walks
        pytest.param((60, 0.1, 5, 10, "linear", 1000), SaConfig(seed=0), 11,
                     {"samples_drawn": 8800, "escalations": 0, "fallbacks": 0},
                     "2fe17bc5a0bc47af4db24252ea9abe102aeba3925eafdfeb4ff4d1a6cce59198", id="linear-default"),
        pytest.param((60, 0.1, 10, 5, "concave", 0), SaConfig(seed=0), 20,
                     {"samples_drawn": 16000, "escalations": 0, "fallbacks": 0},
                     "7421f65e5e308a61325e0f6f2e28801ef456de6874c275cec62883155b484377", id="concave-default"),
    ])
    def test_pinned_outputs(self, instance_args, config, rounds, extras, digest):
        # the budget vectors of one generator per round over the live pairs, with
        # the walks on the T-corridor sub-instance; a faster sampler must keep them
        n, rho, threshold, k, model, seed = instance_args
        report = run_sa(make_er_instance(n, rho, threshold, k, model, seed=seed), config)
        assert report.outer_iterations == rounds
        assert {key: report.extras[key] for key in extras} == extras
        values = ",".join(map(str, report.budget.values)).encode()
        assert hashlib.sha256(values).hexdigest() == digest

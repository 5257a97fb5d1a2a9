import random
from array import array
from fractions import Fraction
from itertools import accumulate, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qosd import (
    BudgetVector,
    SaConfig,
    block_adaptive,
    block_greedy,
    run_sa,
    Graph,
    make_er_instance,
    oracle_opt,
    pair_shortest_paths,
    PathSupport,
    QosdError,
    QosdInstance,
    WeightFunction,
    build_sp_tree,
    build_weights,
    concave_ratio,
    generate_er,
    run_cc,
    run_iterative,
    unseparated_pairs,
)
from qosd import sa
from qosd.instance import WEIGHT_MODELS, _concave_table, _convex_table, _linear_table
from qosd.lr import FEAS_TOL
from qosd.pathcore import (chunk_amounts, corridor, csr_view, distances, edge_lengths, out_view, reduce,
                           separating_paths)

from conftest import diamond_instance
from reference import d_value, full_graph_paths, out_adj, path_nodes, plus, r_value, unit


class TestBudgetVector:
    def test_plus(self):
        assert plus(BudgetVector([1, 0]), BudgetVector([0, 2])) == BudgetVector([1, 2])

    def test_norm_cached(self):
        assert BudgetVector([2, 0, 5]).norm == 7

    def test_dimension_mismatch(self):
        with pytest.raises(QosdError):
            plus(BudgetVector([1]), BudgetVector([1, 2]))

    def test_negative_rejected(self):
        with pytest.raises(QosdError):
            BudgetVector([-1])
        with pytest.raises(QosdError):
            BudgetVector([300, -1])

    def test_entries_of_any_size_kept(self):
        for values in ([], [0, 255, 3], [256, 0, 7], [2**40, 1]):
            x = BudgetVector(values)
            assert x.values.tolist() == list(x) == values and x.norm == sum(values)
            # rebuilt from another vector's values, whatever their width
            assert BudgetVector(x.values) == x == BudgetVector(iter(values))
            assert hash(BudgetVector(x.values)) == hash(x)
        assert BudgetVector([1, 0]) != BudgetVector([1, 0, 0])

    @pytest.mark.parametrize("values", [[], [0, 255, 3], [256, 0, 7], [2**40, 1]])
    def test_every_input_builds_the_same_vector(self, values):
        # a list, an iterator, byte and 8-byte arrays and a PathSupport's x,
        # whose typecode follows the instance's box, not its entries
        builds = [values, iter(values), array("q", values), _support_x(values, 300)]
        if max(values, default=0) < 256:
            builds += [array("B", values), _support_x(values, 3)]
        expected = BudgetVector(values)
        assert expected.values.typecode == ("B" if max(values, default=0) < 256 else "q")
        for source in builds:
            x = BudgetVector(source)
            assert x.values.typecode == expected.values.typecode
            assert x.values.tobytes() == expected.values.tobytes()
            assert x.norm == expected.norm == sum(values)
            assert x == expected and hash(x) == hash(expected)
        # a copy: the vector never shares the buffer it was built from
        source = array("q", values)
        x = BudgetVector(source)
        if values:
            source[0] += 1
            assert x.values.tolist() == values

    @pytest.mark.parametrize("values", [[], [0, 255, 3], [256, 0, 7], [2**40, 1]])
    def test_tuple_generator_and_numpy_builds_equal_the_array_build(self, values):
        expected = BudgetVector(array("q", values))
        builds = (tuple(values), (v for v in values), np.array(values, dtype=np.int64))
        for source in builds:
            x = BudgetVector(source)
            assert x.values.typecode == expected.values.typecode
            assert x.values.tobytes() == expected.values.tobytes()
            assert x.norm == expected.norm and x == expected

    def test_float_entry_is_a_type_error_and_a_negative_list_entry_a_qosd_error(self):
        for values in ([1.5], [0, 2.0], (1, 0.5), np.array([1.0, 2.0])):
            with pytest.raises(TypeError):
                BudgetVector(values)
        for values in ([-1], [0, 300, -2]):
            with pytest.raises(QosdError):
                BudgetVector(values)

    def test_negative_array_entry_rejected(self):
        for values in ([-1], [300, -1], [0, 2, -5]):
            with pytest.raises(QosdError):
                BudgetVector(array("q", values))

    def test_zeros_and_unit_are_byte_arrays_until_an_entry_needs_more(self):
        assert BudgetVector.zeros(5) == BudgetVector([0] * 5)
        assert BudgetVector.zeros(5).values.typecode == "B" and BudgetVector.zeros(0).norm == 0
        assert unit(4, 2) == BudgetVector([0, 0, 1, 0])
        assert unit(4, 1, 7).values.typecode == "B"
        wide = unit(3, 0, 300)
        assert wide == BudgetVector([300, 0, 0]) and wide.values.typecode == "q" and wide.norm == 300


def _support_x(values, cap):
    """A ``PathSupport``'s x on a path graph with one edge per entry (and one
    node more, for a pair), every table of ``cap`` flat steps, holding
    ``values`` (whatever the box)."""
    m = len(values)
    graph = Graph(m + 2, [(i, i + 1) for i in range(m)])
    inst = QosdInstance(graph, [WeightFunction((1,) * (cap + 1))] * m, [(0, m + 1)], 2,
                        validate_box=False)
    x = PathSupport(inst, ()).x
    assert x.typecode == ("B" if cap < 256 or not m else "q") and list(x) == [0] * m
    x[:] = array(x.typecode, values)
    return x


class TestMetrics:
    def test_r_below_cap(self, inst_a):
        assert r_value(inst_a, (0, 1), BudgetVector.zeros(4)) == 2

    def test_r_capped_at_threshold(self, inst_a):
        assert r_value(inst_a, (0, 1), BudgetVector([2, 2, 0, 0])) == 3

    def test_d_on_diamond(self, inst_a):
        both = [(0, 1), (2, 3)]
        assert d_value(inst_a, both, BudgetVector.zeros(4)) == 4
        assert d_value(inst_a, both, BudgetVector([1, 0, 0, 0])) == 5
        assert d_value(inst_a, both, BudgetVector(inst_a.box)) == 2 * 3

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_monotone_in_budget(self, data):
        inst = diamond_instance(threshold=4)
        caps = inst.box
        xs = [data.draw(st.integers(0, c)) for c in caps]
        ys = [data.draw(st.integers(v, c)) for v, c in zip(xs, caps)]
        p = (0, 1)
        both = [p, (2, 3)]
        assert r_value(inst, p, BudgetVector(xs)) <= r_value(inst, p, BudgetVector(ys))
        assert d_value(inst, both, BudgetVector(xs)) <= d_value(inst, both, BudgetVector(ys))


class TestShortestPath:
    def test_diamond_tie_break(self, inst_a):
        p = pair_shortest_paths(inst_a, BudgetVector.zeros(4))[0]
        assert p == (0, 1)
        assert path_nodes(inst_a.graph, p) == (0, 1, 3)

    def test_blocked_returns_none(self, inst_a):
        assert pair_shortest_paths(inst_a, BudgetVector([1, 0, 1, 0]))[0] is None

    def test_disconnected_pair(self):
        g = Graph(3, [(0, 1)])
        inst = QosdInstance(g, [WeightFunction((1, 2, 3))], [(0, 2)], 3)
        assert pair_shortest_paths(inst, BudgetVector.zeros(1))[0] is None

    def test_budget_shifts_route(self, inst_a):
        p = pair_shortest_paths(inst_a, BudgetVector([2, 0, 0, 0]))[0]
        assert p == (2, 3)

    def test_bound_is_strict(self, inst_a):
        # both diamond routes have length 2 at x = 0
        x = BudgetVector.zeros(4)
        assert pair_shortest_paths(inst_a, x, bound=2)[0] is None
        assert pair_shortest_paths(inst_a, x, bound=2.5)[0] == (0, 1)
        assert pair_shortest_paths(inst_a, None, lengths=[1.5, 1.0, 1.0, 1.0], bound=2.5)[0] == (2, 3)
        assert pair_shortest_paths(inst_a, None, lengths=[1.5, 1.0, 1.0, 1.5], bound=2.5)[0] is None

    def test_sweep_without_budget_or_lengths_is_a_qosd_error(self, inst_a):
        with pytest.raises(QosdError, match="budget x or edge lengths"):
            pair_shortest_paths(inst_a, None)
        with pytest.raises(QosdError):
            pair_shortest_paths(inst_a, None, bound=2)

    def test_separating_paths_sweep_until_their_blocking_separates(self, inst_a):
        # the second sweep, with (0, 1) raised to T, finds the other route
        assert separating_paths(inst_a, BudgetVector.zeros(4)) == [(0, 1), (2, 3)]
        assert separating_paths(inst_a, BudgetVector([2, 0, 0, 0])) == [(2, 3)]
        assert separating_paths(inst_a, BudgetVector([1, 0, 1, 0])) == []
        assert separating_paths(inst_a, None, lengths=[1.5, 1.0, 1.0, 1.0], bound=2.5) == [(2, 3)]
        with pytest.raises(QosdError, match="exceeds T"):
            separating_paths(inst_a, BudgetVector.zeros(4), bound=3.5)

    def test_unseparated_lists(self, inst_a):
        assert unseparated_pairs(inst_a, BudgetVector.zeros(4)) == [0]
        assert unseparated_pairs(inst_a, BudgetVector([1, 0, 1, 0])) == []
        assert unseparated_pairs(inst_a, BudgetVector(inst_a.box)) == []


def _enumerate_shortest(inst, x, pair):
    """Brute force: all simple paths, exact min length, None if >= T."""
    graph = inst.graph
    lengths = edge_lengths(inst, x)
    s, t = pair
    best = None

    def dfs(u, acc, visited):
        nonlocal best
        if u == t:
            if best is None or acc < best:
                best = acc
            return
        for v, ei in out_adj(graph)[u]:
            if v not in visited:
                dfs(v, acc + lengths[ei], visited | {v})

    dfs(s, 0, {s})
    if best is None or best >= inst.threshold:
        return None
    return best


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 10), st.integers(2, 6))
def test_dijkstra_matches_enumeration(seed, n, threshold):
    rng = random.Random(seed)
    graph = generate_er(n, 0.4, seed)
    if graph.m == 0:
        return
    weights = []
    for _ in range(graph.m):
        cap = rng.randint(1, 3)
        table = [rng.randint(1, 3)]
        for _ in range(cap):
            table.append(table[-1] + rng.randint(0, 2))
        weights.append(WeightFunction(tuple(table)))
    inst = QosdInstance(graph, weights, [(0, n - 1)], threshold, validate_box=False)
    x = BudgetVector([rng.randint(0, w.cap) for w in weights])
    found = pair_shortest_paths(inst, x)[0]
    expected = _enumerate_shortest(inst, x, (0, n - 1))
    if expected is None:
        assert found is None
    else:
        assert found is not None
        lengths = edge_lengths(inst, x)
        assert sum(lengths[e] for e in found) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_prune_soundness(seed):
    rng = random.Random(seed)
    graph = generate_er(8, 0.4, seed)
    weights = build_weights(graph, "linear", 4)
    inst = QosdInstance(graph, weights, [(0, 7)], 4, validate_box=False)
    x = BudgetVector([rng.randint(0, w.cap) for w in weights])
    lengths = edge_lengths(inst, x)
    d_pruned = distances(inst, lengths, [0], bound=inst.threshold)[0][7]
    d_full = distances(inst, lengths, [0])[0][7]
    if d_full < inst.threshold:
        assert d_pruned == d_full
    else:
        assert d_pruned >= inst.threshold


def test_lemma_concavity_quick():
    # exact rational check on 500 random tuples (bulk run lives in acceptance)
    rng = random.Random(20240817)
    for _ in range(500):
        m = rng.randint(2, 6)
        weights = []
        for _ in range(m):
            cap = rng.randint(1, 4)
            table = [rng.randint(1, 3)]
            for _ in range(cap):
                table.append(table[-1] + rng.randint(0, 3))
            weights.append(WeightFunction(tuple(table)))
        graph = Graph(m + 1, [(i, i + 1) for i in range(m)])
        threshold = rng.randint(2, 8)
        inst = QosdInstance(graph, weights, [(0, m)], threshold, validate_box=False)
        paths = []
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(1, m)
            edges = sorted(rng.sample(range(m), size))
            paths.append(tuple(edges))
        gamma = concave_ratio(weights)
        caps = inst.box
        x = [rng.randint(0, c) for c in caps]
        y = [rng.randint(v, c) for v, c in zip(x, caps)]
        free = [e for e in range(m) if y[e] < caps[e]]
        if not free:
            continue
        edge = rng.choice(free)
        s = unit(m, edge)
        bx, by = BudgetVector(x), BudgetVector(y)
        dx = d_value(inst, paths, plus(bx, s)) - d_value(inst, paths, bx)
        dy = d_value(inst, paths, plus(by, s)) - d_value(inst, paths, by)
        assert Fraction(dx) >= gamma * Fraction(dy)
        z = BudgetVector([rng.randint(0, c - v) for v, c in zip(y, caps)])
        dxz = d_value(inst, paths, plus(bx, z)) - d_value(inst, paths, bx)
        dyz = d_value(inst, paths, plus(by, z)) - d_value(inst, paths, by)
        assert Fraction(dxz) >= gamma * Fraction(dyz)


def _shuffled_instance(seed: int, max_cap: int = 3) -> tuple[QosdInstance, BudgetVector]:
    # random digraph whose edge indices do not follow (src, dst) order; tables
    # have flat steps and jumps
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    edges = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.45]
    if not edges:
        edges = [(0, 1)]
    rng.shuffle(edges)
    weights = []
    for _ in edges:
        table = [rng.randint(1, 3)]
        for _ in range(rng.randint(1, max_cap)):
            table.append(table[-1] + rng.randint(0, 2))
        weights.append(WeightFunction(tuple(table)))
    pair = (rng.randrange(n), rng.randrange(n - 1))
    pair = (pair[0], pair[1] + (pair[1] >= pair[0]))
    inst = QosdInstance(Graph(n, edges), weights, [pair], rng.randint(2, 9), validate_box=False)
    return inst, BudgetVector([rng.randint(0, w.cap) for w in weights])


def _bellman_ford(n, edges, lengths, source):
    dist = [float("inf")] * n
    dist[source] = 0
    for _ in range(n - 1):
        for e, (u, v) in enumerate(edges):
            if dist[u] + lengths[e] < dist[v]:
                dist[v] = dist[u] + lengths[e]
    return dist


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_kernel_distances_both_directions(seed):
    inst, x = _shuffled_instance(seed)
    graph = inst.graph
    lengths = edge_lengths(inst, x)
    s, t = inst.pairs[0]
    reverse = [(v, u) for u, v in graph.edges]
    assert distances(inst, lengths, [s])[0].tolist() == _bellman_ford(graph.n, graph.edges, lengths, s)
    assert distances(inst, lengths, [t], reverse=True)[0].tolist() == _bellman_ford(graph.n, reverse, lengths, t)


@pytest.mark.parametrize("n, edges", [
    # unsorted tails, and nodes 2 and 4 without out-edges
    (5, [(3, 1), (0, 2), (3, 0), (1, 4), (0, 1), (3, 4), (1, 0)]),
    (1, []),
])
def test_out_view_follows_edge_index_order(n, edges):
    graph = Graph(n, edges)
    nodes, out_edges = out_view(graph)
    width = max(1, graph.max_out_degree)
    adj = out_adj(graph)
    assert nodes.shape == out_edges.shape == (n, width)
    assert nodes.tolist() == [[v for v, _ in a] + [-1] * (width - len(a)) for a in adj]
    assert out_edges.tolist() == [[e for _, e in a] + [-1] * (width - len(a)) for a in adj]
    # the forward CSR view that out_view is built from holds each row in edge-index order
    matrix, perm, rows = csr_view(graph, False)
    assert perm.tolist() == [e for a in adj for _, e in a]
    assert matrix.indices.tolist() == [v for a in adj for v, _ in a]
    assert rows.tolist() == [u for u, a in enumerate(adj) for _ in a]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 40))
def test_kernel_bounded_quarter_lengths(seed, quarters):
    # LR's case: fractional lengths >= 1; quarters are exact in binary and still tie
    inst, _ = _shuffled_instance(seed)
    graph = inst.graph
    rng = random.Random(seed)
    lengths = [rng.randint(4, 16) / 4 for _ in graph.edges]
    bound = quarters / 4
    reverse = [(v, u) for u, v in graph.edges]
    for flip, edges in ((False, graph.edges), (True, reverse)):
        sources = sorted({s for pair in inst.pairs for s in pair})
        rows = distances(inst, lengths, sources, bound=bound, reverse=flip)
        for source, row in zip(sources, rows):
            for got, want in zip(row.tolist(), _bellman_ford(graph.n, edges, lengths, source)):
                if want < bound:
                    assert got == want
                else:
                    assert got >= bound


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_shortest_path_takes_lowest_index_tight_in_edge(seed):
    inst, x = _shuffled_instance(seed)
    edges = inst.graph.edges
    lengths = edge_lengths(inst, x)
    s, t = inst.pairs[0]
    dist = _bellman_ford(inst.graph.n, edges, lengths, s)
    found = pair_shortest_paths(inst, x)[0]
    if dist[t] >= inst.threshold:
        assert found is None
        return
    nodes = path_nodes(inst.graph, found)
    assert nodes[0] == s and nodes[-1] == t
    for e in found:
        head = edges[e][1]
        tight = [f for f, (u, v) in enumerate(edges) if v == head and dist[u] + lengths[f] == dist[v]]
        assert e == min(tight)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_fractional_shortest_path_takes_lowest_index_tight_in_edge(seed):
    # LR's separation: quarter lengths are exact in binary, so ties survive the
    # float sums; like LR's clipped lengths they start at table[0], and the
    # bound is at most T
    inst, _ = _shuffled_instance(seed)
    edges = inst.graph.edges
    rng = random.Random(seed)
    lengths = [wf.table[0] + rng.randint(0, 12) / 4 for wf in inst.weights]
    bound = rng.randint(1, 4 * inst.threshold) / 4
    s, t = inst.pairs[0]
    dist = _bellman_ford(inst.graph.n, edges, lengths, s)
    found = pair_shortest_paths(inst, None, lengths=lengths, bound=bound)[0]
    if not dist[t] < bound:
        assert found is None
        return
    nodes = path_nodes(inst.graph, found)
    assert nodes[0] == s and nodes[-1] == t
    assert sum(lengths[e] for e in found) == dist[t]
    for e in found:
        head = edges[e][1]
        tight = [f for f, (u, v) in enumerate(edges) if v == head and dist[u] + lengths[f] == dist[v]]
        assert e == min(tight)


def _assert_simple_pair_paths(inst, paths, lengths, bound):
    """Each edge tuple found links its pair's s to t over the graph's edges,
    visits no node twice and is strictly shorter than ``bound``."""
    for (s, t), path in zip(inst.pairs, paths, strict=True):
        if path is not None:
            nodes = path_nodes(inst.graph, path)
            assert (nodes[0], nodes[-1]) == (s, t)
            assert sum(lengths[e] for e in path) < bound


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 24))
def test_pair_sweep_equals_per_pair_queries(seed, quarters):
    inst = make_er_instance(14, 0.25, 5, 8, "heterogeneous", seed=seed)
    rng = random.Random(seed)
    lengths = [rng.randint(4, 12) / 4 for _ in inst.graph.edges]  # table[0] is 1
    bound = quarters / 4
    if bound > inst.threshold:  # the corridor holds the paths below T only
        with pytest.raises(QosdError, match="exceeds T"):
            pair_shortest_paths(inst, None, lengths=lengths, bound=bound)
    else:
        swept = pair_shortest_paths(inst, None, lengths=lengths, bound=bound)
        assert swept == full_graph_paths(inst, lengths, bound)
        _assert_simple_pair_paths(inst, swept, lengths, bound)
    x = BudgetVector([rng.randint(0, cap) for cap in inst.box])
    swept = pair_shortest_paths(inst, x)
    assert swept == full_graph_paths(inst, edge_lengths(inst, x), inst.threshold)
    _assert_simple_pair_paths(inst, swept, edge_lengths(inst, x), inst.threshold)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_sp_tree_next_hop_is_lowest_id_on_a_shortest_route(seed):
    inst, x = _shuffled_instance(seed)
    graph = inst.graph
    lengths = edge_lengths(inst, x)
    sink = inst.pairs[0][1]
    to_sink = _bellman_ford(graph.n, [(v, u) for u, v in graph.edges], lengths, sink)
    tree = build_sp_tree(inst, x, sink)
    for w in range(graph.n):
        hops = [
            v for e, (u, v) in enumerate(graph.edges)
            if u == w and w != sink and lengths[e] + to_sink[v] == to_sink[w] < float("inf")
        ]
        assert tree[w] == (min(hops) if hops else None)


def _random_paths(inst: QosdInstance, rng: random.Random) -> list[tuple[int, ...]]:
    # simple walks from random nodes; PathSupport does not care which pair a path serves
    graph = inst.graph
    paths = []
    for _ in range(rng.randint(1, 6)):
        u = rng.randrange(graph.n)
        nodes, edges = [u], []
        for _ in range(rng.randint(1, 4)):
            steps = [(v, e) for v, e in out_adj(graph)[u] if v not in nodes]
            if not steps:
                break
            u, e = rng.choice(steps)
            nodes.append(u)
            edges.append(e)
        if edges:
            paths.append(tuple(edges))
    return paths


def _brute_best_unit(inst, paths, x, path_weight):
    """Argmax over support edges of the weighted rise in capped path lengths
    from one more unit, lowest edge on ties; (-1, 0) when nothing rises."""
    best_edge, best_gain = -1, 0
    for e in sorted({e for p in paths for e in p}):
        if x[e] >= inst.box[e]:
            continue
        bumped = plus(x, unit(len(x), e))
        if path_weight is None:
            gain = d_value(inst, paths, bumped) - d_value(inst, paths, x)
        else:
            gain = 0
            for p, w in zip(paths, path_weight):
                rise = r_value(inst, p, bumped) - r_value(inst, p, x)
                if rise:
                    gain += rise * w
        if gain > best_gain:
            best_edge, best_gain = e, gain
    return best_edge, best_gain


def _brute_best_chunk(inst, paths, x):
    """Every amount 1..room on every support edge, gaining the rise in D: per
    edge the best ratio at its smallest amount, across edges the best ratio,
    then the higher gain, the smaller amount, the lower edge; (-1, 0, 0) when
    nothing rises."""
    base = d_value(inst, paths, x)
    best, best_key = (-1, 0, 0), None
    for e in sorted({e for p in paths for e in p}):
        edge_best = None  # (ratio, amount, gain)
        for z in range(1, inst.box[e] - x[e] + 1):
            gain = d_value(inst, paths, plus(x, unit(len(x), e, z))) - base
            if gain > 0 and (edge_best is None or Fraction(gain, z) > edge_best[0]):
                edge_best = (Fraction(gain, z), z, gain)
        if edge_best is not None:
            ratio, z, gain = edge_best
            key = (ratio, gain, -z, -e)
            if best_key is None or key > best_key:
                best, best_key = (e, z, gain), key
    return best


def _supports(inst, paths, x=None, path_weight=None):
    """A support of each step rule on the same paths: the default, then chunks."""
    return [PathSupport(inst, paths, x, path_weight, chunks=chunks) for chunks in (False, True)]


def _check_support(inst, supports, paths, path_weight):
    """Asserts the state and the pick of each of ``supports`` (all at one x)
    against the brute force: the default rule picks the weighted unit when
    one has positive gain, else the unweighted chunk; the chunk rule picks
    the chunk. Returns the step the brute-force tests take next, ``step``
    alternating unit steps with AT's chunks so ``apply`` also sees amounts
    > 1, and taking chunks once flat unit steps leave no unit gain."""
    x = BudgetVector(supports[0].x)
    edge, gain = _brute_best_unit(inst, paths, x, path_weight)
    chunk = _brute_best_chunk(inst, paths, x)
    for support in supports:
        assert BudgetVector(support.x) == x
        assert support.lengths == [sum(inst.weights[e].table[x[e]] for e in p) for p in paths]
        assert support.gap == len(paths) * inst.threshold - d_value(inst, paths, x)
        # the base class's pick, so a subclass may check from its own best()
        expected = chunk if support.chunks or edge < 0 else (edge, 1, gain)
        assert PathSupport.best(support) == expected
    return lambda step: chunk[:2] if step % 2 or edge < 0 else (edge, 1)


def _apply(supports, edge, amount):
    for support in supports:
        support.apply(edge, amount)


@pytest.mark.parametrize(
    "weighted, max_cap",
    [(False, 3), (True, 3), (False, 8), (True, 8)],
    ids=["unweighted", "weighted", "unweighted-long", "weighted-long"],
)
@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_path_support_matches_brute_force(weighted, max_cap, seed):
    inst, x = _shuffled_instance(seed, max_cap)
    rng = random.Random(seed)
    paths = _random_paths(inst, rng)
    # quarter weights are exact in binary and still tie
    path_weight = [rng.randint(1, 12) / 4 for _ in paths] if weighted else None
    _run_to_end(inst, _supports(inst, paths, x, path_weight), paths, path_weight)


def _run_to_end(inst, supports, paths, path_weight, step=0):
    while True:
        edge, amount = _check_support(inst, supports, paths, path_weight)(step)
        if edge < 0:
            return
        _apply(supports, edge, amount)
        step += 1


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_path_support_extend_and_copy_match_brute_force(weighted, seed):
    # paths join in the middle of a run, then a copy runs (and grows) to the
    # end while the original stands still; both keep matching the brute force
    inst, x = _shuffled_instance(seed, 8)
    rng = random.Random(seed)
    paths = _random_paths(inst, rng)
    path_weight = [rng.randint(1, 12) / 4 for _ in paths] if weighted else None
    supports = _supports(inst, paths, x, path_weight)
    for step in range(2):
        edge, amount = _check_support(inst, supports, paths, path_weight)(step)
        if edge >= 0:
            _apply(supports, edge, amount)
    more = _random_paths(inst, rng)
    for support in supports:
        support.extend(more)
    paths = paths + more
    if weighted:
        path_weight += [1] * len(more)
    _check_support(inst, supports, paths, path_weight)
    x_before = list(supports[0].x)

    twins = [support.copy() for support in supports]
    edge, amount = _check_support(inst, twins, paths, path_weight)(0)
    if edge >= 0:
        _apply(twins, edge, amount)
    late = _random_paths(inst, rng)
    for twin in twins:
        twin.extend(late)
    twin_weight = path_weight + [1] * len(late) if weighted else None
    _run_to_end(inst, twins, paths + late, twin_weight, 1)

    assert all(list(support.x) == x_before for support in supports)
    _run_to_end(inst, supports, paths, path_weight)


def test_path_support_breaks_cross_edge_ties():
    # one path per edge, each 5 below T; chunks (amount, gain) are (1, 2) on
    # edges 0 and 3 and (2, 4) on edges 1 and 2 (its first unit gains 1): all
    # ratios are 2, so the higher gain goes first, and equal chunks (equal
    # ratio and gain force an equal amount) go to the lower edge. Edges 4 and
    # 5 hold (7, 2) and (3, 1) behind flat steps: close ratios, 2/7 < 1/3
    tables = [(1, 3), (1, 2, 5), (1, 2, 5), (1, 3), (1,) * 7 + (3,), (1, 1, 1, 2)]
    graph = Graph(12, [(2 * i, 2 * i + 1) for i in range(6)])
    inst = QosdInstance(graph, [WeightFunction(t) for t in tables],
                        [(2 * i, 2 * i + 1) for i in range(6)], 6, validate_box=False)
    paths = [(i,) for i in range(6)]
    support = PathSupport(inst, paths, chunks=True)
    picks = []
    while (chunk := support.best())[0] >= 0:
        _check_support(inst, [support], paths, None)
        picks.append(chunk)
        support.apply(*chunk[:2])
    assert picks == [(1, 2, 4), (2, 2, 4), (0, 1, 2), (3, 1, 2), (5, 3, 1), (4, 7, 2)]
    # units: edges 0 and 3 gain 2, edges 1 and 2 gain 1, then 3 after their
    # first; then only flat steps are left, crossed by the same two chunks
    support = PathSupport(inst, paths)
    steps = []
    while (step := support.best())[0] >= 0:
        _check_support(inst, [support], paths, None)
        steps.append(step)
        support.apply(*step[:2])
    assert steps == [(0, 1, 2), (3, 1, 2), (1, 1, 1), (1, 1, 3), (2, 1, 1), (2, 1, 3),
                     (5, 3, 1), (4, 7, 2)]


def _beats_every_smaller(table, x):
    """Level x's ``(amount, delta)`` pairs whose average increment is
    positive and strictly above every smaller amount's."""
    ratios = [Fraction(table[x + z] - table[x], z) for z in range(1, len(table) - x)]
    return tuple(
        (z, table[x + z] - table[x]) for z, r in enumerate(ratios, 1)
        if r > 0 and all(r > q for q in ratios[: z - 1])
    )


def test_chunk_amounts_on_every_small_table():
    # every table with increments in {0, 1, 2, 3} and a cap of at most 5
    for cap in range(6):
        for incs in product(range(4), repeat=cap):
            table = tuple(accumulate(incs, initial=1))
            levels = chunk_amounts(table)
            assert levels == [_beats_every_smaller(table, x) for x in range(cap + 1)]
            for x in range(cap + 1):
                # remaining increments that do not rise leave one amount at most
                if all(a >= b for a, b in zip(incs[x:], incs[x + 1:])):
                    assert len(levels[x]) <= 1


@pytest.mark.parametrize("threshold", range(2, 41))
def test_chunk_amounts_on_generated_tables(threshold):
    for build in (_linear_table, _concave_table, _convex_table):
        table = build(threshold).table
        levels = chunk_amounts(table)
        assert levels == [_beats_every_smaller(table, x) for x in range(len(table))]
    linear = chunk_amounts(_linear_table(threshold).table)
    assert linear == [((1, 1),)] * (threshold - 1) + [()]


def test_best_chunk_on_a_concave_head_and_convex_tail():
    # edge 0 carries (1, 3, 4, 4, 9), whose levels try 1, 2, 1, 1 and 0
    # amounts; four paths run through it with 0, 1, 2 and 4 more length on
    # fixed edges, so only edge 0 can spend and every pick is its own scan
    table = (1, 3, 4, 4, 9)
    assert [len(level) for level in chunk_amounts(table)] == [1, 2, 1, 1, 0]
    graph = Graph(5, [(0, 1), (1, 2), (1, 3), (1, 4)])
    weights = [WeightFunction(table)] + [WeightFunction((w,)) for w in (1, 2, 4)]
    paths = [(0,), (0, 1), (0, 2), (0, 3)]
    amounts = set()
    for threshold in range(2, 16):
        inst = QosdInstance(graph, weights, [(0, 4)], threshold, validate_box=False)
        for x in range(len(table)):
            budget = unit(4, 0, x)
            chunk = PathSupport(inst, paths, budget, chunks=True).best()
            assert chunk == _brute_best_chunk(inst, paths, budget)
            amounts.add((x, chunk[1]))
    # at level 1 both of its amounts win for some T
    assert {(1, 1), (1, 3)} <= amounts


def _wide_cap_instance() -> QosdInstance:
    """The diamond at T = 300: route 0-1-3 is blocked only by 256 units on a
    flat-then-jump edge, route 0-2-3 by a steep edge or a linear one; caps up
    to 299, so every budget array is 8 bytes an entry."""
    tables = [(1,) * 256 + (300,), (1,) * 260, (1, 100, 200, 300), tuple(range(1, 301))]
    return QosdInstance(Graph(4, [(0, 1), (1, 3), (0, 2), (2, 3)]),
                        [WeightFunction(t) for t in tables], [(0, 3)], 300)


def test_wide_caps_fit_every_solver(monkeypatch):
    inst = _wide_cap_instance()
    paths = [(0, 1), (2, 3)]
    assert PathSupport(inst, paths).x.typecode == "q"
    # each blocker's picks, replayed from its trace, against the brute force
    for blocker, rule in ((block_greedy, 0), (block_adaptive, 1)):
        trace = []
        x = blocker(inst, paths, trace=trace)
        supports = _supports(inst, paths)
        for step in trace:
            _check_support(inst, supports, paths, None)
            assert step == supports[rule].best()
            _apply(supports, *step[:2])
        assert all(s.gap == 0 and BudgetVector(s.x) == x for s in supports)
        assert x[0] == 256 and x.values.typecode == "q" and x.within_box(inst.box)
        assert run_iterative(inst, "ig" if blocker is block_greedy else "at").budget == x
    # SA: every estimator-weighted support it steps on, against the brute force
    checked = []

    class CheckedSupport(PathSupport):
        def __init__(self, instance, paths, x=None, path_weight=None):
            super().__init__(instance, paths, x, path_weight)
            for edges in paths:
                path_nodes(inst.graph, edges)  # asserts a simple path of the graph
            self.checked = (list(paths), path_weight)

        def best(self):
            _check_support(inst, [self], *self.checked)
            checked.append(self)
            return super().best()

    monkeypatch.setattr(sa, "PathSupport", CheckedSupport)
    for seed in range(3):
        report = run_sa(inst, SaConfig(seed=seed))
        assert report.feasible and unseparated_pairs(inst, report.budget) == []
        assert report.budget[0] == 256 and report.budget.within_box(inst.box)
    assert checked and all(s.x.typecode == "q" for s in checked)
    # CC and the oracle's MILP fill the same wide arrays; 259 is the optimum
    for report in (run_cc(inst), oracle_opt(inst)):
        assert report.budget == BudgetVector([256, 0, 3, 0])


def _corridor_instance(seed: int, model: str) -> QosdInstance:
    """A small ER instance with ``model``'s tables ("custom": random tables whose
    first entries differ) and pairs drawn from a few sources and sinks, so that
    pairs share both."""
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    graph = generate_er(n, rng.uniform(0.15, 0.5), seed)
    threshold = rng.randint(2, 8)
    if model == "custom":
        weights = []
        for _ in graph.edges:
            table = [rng.randint(1, 3)]
            for _ in range(rng.randint(0, 4)):
                table.append(table[-1] + rng.randint(0, 2))
            weights.append(WeightFunction(tuple(table)))
    else:
        weights = build_weights(graph, model, threshold, seed=seed)
    sources, sinks = rng.sample(range(n), rng.randint(1, 3)), rng.sample(range(n), rng.randint(1, 3))
    pairs = [(s, t) for s in sources for t in sinks if s != t] or [(0, 1)]
    rng.shuffle(pairs)
    return QosdInstance(graph, weights, pairs, threshold, validate_box=False)


def _zero_budget_corridor(inst) -> set[int]:
    """The edges (u, v) with d0(s, u) + table[0] + d0(v, t) < T for some pair,
    by Bellman-Ford."""
    edges, n = inst.graph.edges, inst.graph.n
    base = [wf.table[0] for wf in inst.weights]
    reverse = [(v, u) for u, v in edges]
    inside = set()
    for s, t in inst.pairs:
        from_s, to_t = _bellman_ford(n, edges, base, s), _bellman_ford(n, reverse, base, t)
        inside.update(e for e, (u, v) in enumerate(edges) if from_s[u] + base[e] + to_t[v] < inst.threshold)
    return inside


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(WEIGHT_MODELS + ("custom",)))
def test_corridor_sweep_equals_full_graph_sweep(seed, model):
    inst = _corridor_instance(seed, model)
    rng = random.Random(seed)
    x = BudgetVector([rng.randint(0, cap) for cap in inst.box])
    want = full_graph_paths(inst, edge_lengths(inst, x), inst.threshold)
    assert pair_shortest_paths(inst, x) == want
    assert unseparated_pairs(inst, x) == [i for i, p in enumerate(want) if p]
    # LR's separation: float lengths from table[0] up (half of them exactly
    # table[0], or on a quarter grid, so that ties survive), bound T(1 - FEAS_TOL)
    quarters = rng.random() < 0.5
    lengths = [
        wf.table[0] if rng.random() < 0.5
        else wf.table[0] + (rng.randint(0, 8) / 4 if quarters else rng.random() * (wf.table[-1] - wf.table[0]))
        for wf in inst.weights
    ]
    bound = inst.threshold * (1 - FEAS_TOL)
    assert pair_shortest_paths(inst, None, lengths=lengths, bound=bound) == full_graph_paths(inst, lengths, bound)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(WEIGHT_MODELS + ("custom",)))
def test_corridor_holds_the_zero_budget_corridor_edges(seed, model):
    inst = _corridor_instance(seed, model)
    area = corridor(inst)
    ends = inst.graph.edges
    assert sorted(area.edges.tolist()) == sorted(_zero_budget_corridor(inst))
    # local ids follow node ids, and every pair source has one
    nodes = sorted(area.local)
    assert [area.local[v] for v in nodes] == list(range(len(nodes)))
    assert set(inst.sources.tolist()) <= set(nodes)
    assert nodes == sorted({v for e in area.edges.tolist() for v in ends[e]} | set(inst.sources.tolist()))
    # each entry sits in its edge's (tail, head) cell, through the relabelling
    matrix = area.matrix
    for tail in range(len(nodes)):
        span = slice(matrix.indptr[tail], matrix.indptr[tail + 1])
        assert [ends[e] for e in area.edges[span].tolist()] == [
            (nodes[tail], nodes[head]) for head in matrix.indices[span].tolist()
        ]
    # each node's in-edges are its corridor in-edges in edge-index order, each
    # with its tail's local id and its entry
    for v, into in enumerate(area.in_edges):
        assert [e for _, _, e in into] == sorted(e for e in area.edges.tolist() if ends[e][1] == nodes[v])
        assert all(nodes[u] == ends[e][0] and area.edges[j] == e for u, j, e in into)
    # each entry's table, flat from its offset up to its cap
    for e, start, cap in zip(area.edges.tolist(), area.offsets.tolist(), area.caps.tolist()):
        assert tuple(area.tables[start:start + cap + 1].tolist()) == inst.weights[e].table


def _lifted(inst, kept, values) -> BudgetVector:
    x = [0] * inst.graph.m
    for e, v in zip(kept.tolist(), values):
        x[e] = v
    return BudgetVector(x)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(WEIGHT_MODELS + ("custom",)))
def test_reduce_keeps_the_corridor_with_its_nodes_and_every_pair_endpoint(seed, model):
    inst = _corridor_instance(seed, model)
    sub, kept = reduce(inst)
    ids, ends = kept.tolist(), inst.graph.edges
    # the corridor's edges in edge-id order, with their tables, under the same T
    assert ids == sorted(ids) == sorted(_zero_budget_corridor(inst))
    assert sub.weights == [inst.weights[e] for e in ids] and sub.threshold == inst.threshold
    # label i is the i-th lowest kept node: the relabelling keeps the id order
    nodes = sorted({v for e in ids for v in ends[e]} | {v for pair in inst.pairs for v in pair})
    assert sub.graph.n == len(nodes)
    assert [(nodes[u], nodes[v]) for u, v in sub.graph.edges] == [ends[e] for e in ids]
    assert [(nodes[s], nodes[t]) for s, t in sub.pairs] == inst.pairs
    # a vector on the sub-instance, lifted, leaves the same pairs unseparated
    rng = random.Random(seed)
    y = [rng.randint(0, cap) for cap in sub.box]
    assert unseparated_pairs(inst, _lifted(inst, kept, y)) == unseparated_pairs(sub, BudgetVector(y))
    assert reduce(inst)[0] is sub and inst._reduced[0] is sub


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reduce_lifts_vectors_that_separate_the_full_instance(seed):
    inst = make_er_instance(60, 0.1, 5, 10, "heterogeneous", seed=seed)
    sub, kept = reduce(inst)
    assert sub.graph.m < inst.graph.m
    # IG and AT break ties by the lowest edge and node ids, which the relabelling keeps
    for blocker in ("ig", "at"):
        lifted = _lifted(inst, kept, run_iterative(sub, blocker).budget)
        assert lifted == run_iterative(inst, blocker).budget
        assert unseparated_pairs(inst, lifted) == []
    # SA walks on the sub-instance and reports the lifted vector
    report = run_sa(inst, SaConfig(seed=seed))
    assert len(report.budget) == inst.graph.m and unseparated_pairs(inst, report.budget) == []
    assert not any(report.budget[e] for e in set(range(inst.graph.m)) - set(kept.tolist()))


def _relabel_instance(pairs) -> QosdInstance:
    # 0 -> 1 -> 2 is the only walk below T; 3 -> 4 and 2 -> 0 lie on none
    graph = Graph(5, [(0, 1), (1, 2), (3, 4), (2, 0)])
    return QosdInstance(graph, [WeightFunction((1, 9))] * 4, pairs, 5, validate_box=False)


def test_sink_off_the_corridor_is_separated():
    # node 4 is off the corridor and 2, the last local node, is at distance 2
    # from 0: a missing node must not read the last node's distance
    inst = _relabel_instance([(0, 2), (0, 4)])
    area = corridor(inst)
    assert sorted(area.local) == [0, 1, 2] and sorted(area.edges.tolist()) == [0, 1]
    x = BudgetVector.zeros(4)
    paths = pair_shortest_paths(inst, x)
    assert paths == [(0, 1), None]
    assert unseparated_pairs(inst, x) == [0]
    assert pair_shortest_paths(inst, x)[1] is None


def test_source_without_corridor_edges_is_separated():
    inst = _relabel_instance([(0, 2), (3, 2), (3, 1)])
    area = corridor(inst)
    # 3 has a local id but neither an out- nor an in-edge on the corridor
    row = area.local[3]
    assert sorted(area.local) == [0, 1, 2, 3] and area.in_edges[row] == ()
    assert area.matrix.indptr[row] == area.matrix.indptr[row + 1]
    x = BudgetVector.zeros(4)
    assert pair_shortest_paths(inst, x) == [(0, 1), None, None]
    assert unseparated_pairs(inst, x) == [0]
    assert pair_shortest_paths(inst, x)[1] is None


def test_reduce_without_corridor_edges_keeps_the_pair_endpoints():
    # node 4 reaches nothing, so no walk runs from 4 to 3
    inst = _relabel_instance([(4, 3)])
    sub, kept = reduce(inst)
    assert (sub.graph.n, sub.graph.m, sub.pairs, kept.tolist()) == (2, 0, [(1, 0)], [])
    assert run_sa(inst).budget == BudgetVector.zeros(4)


def test_sweep_rejects_a_budget_above_a_corridor_cap():
    inst = _relabel_instance([(0, 2)])
    with pytest.raises(QosdError, match="cap"):
        pair_shortest_paths(inst, BudgetVector([0, 2, 0, 0]))
    # off the corridor a budget is never read
    assert pair_shortest_paths(inst, BudgetVector([0, 0, 0, 2]))[0] == (0, 1)


def test_sweep_rejects_a_bound_above_t():
    inst = _relabel_instance([(0, 2)])
    x = BudgetVector.zeros(4)
    with pytest.raises(QosdError, match="exceeds T"):
        pair_shortest_paths(inst, x, bound=inst.threshold + 0.5)
    assert pair_shortest_paths(inst, x, bound=inst.threshold)[0] == (0, 1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_corridor_is_built_once_and_kept(seed):
    inst = make_er_instance(24, 0.15, 5, 6, "linear", seed=seed)
    x = BudgetVector.zeros(inst.graph.m)
    pair_shortest_paths(inst, x)
    area = corridor(inst)
    assert inst._corridor is area
    lengths = [float(wf.table[0]) for wf in inst.weights]
    pair_shortest_paths(inst, None, lengths=lengths, bound=inst.threshold * (1 - FEAS_TOL))
    assert corridor(inst) is area
    unseparated_pairs(inst, x)
    assert corridor(inst) is area


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_candidate_paths_lie_in_the_corridor(seed, monkeypatch):
    import qosd.baselines
    import qosd.framework

    found = []
    separate = qosd.framework.separating_paths

    def recording(*args, **kwargs):
        paths = separate(*args, **kwargs)
        found.extend(paths)
        return paths

    monkeypatch.setattr(qosd.framework, "separating_paths", recording)
    monkeypatch.setattr(qosd.baselines, "separating_paths", recording)
    inst = make_er_instance(24, 0.15, 5, 6, "heterogeneous", seed=seed)
    inside = _zero_budget_corridor(inst)
    for solve in (lambda: run_iterative(inst, "ig"), lambda: run_iterative(inst, "at"), lambda: oracle_opt(inst)):
        found.clear()
        assert solve().feasible
        assert found and all(set(p) <= inside for p in found)

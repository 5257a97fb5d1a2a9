import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qosd import (
    BudgetVector,
    CandidateSet,
    Graph,
    Path,
    PathSupport,
    QosdError,
    QosdInstance,
    WeightFunction,
    build_sp_tree,
    build_weights,
    concave_ratio,
    d_value,
    generate_er,
    r_value,
    shortest_path,
    unseparated_pairs,
)
from qosd.pathcore import dijkstra, edge_lengths

from conftest import diamond_instance


class TestBudgetVector:
    def test_join(self):
        assert BudgetVector([1, 0]).join(BudgetVector([0, 2])) == BudgetVector([1, 2])

    def test_monus_truncates(self):
        assert BudgetVector([1, 0]).monus(BudgetVector([2, 0])) == BudgetVector([0, 0])

    def test_meet_idempotent(self):
        x = BudgetVector([3, 1, 4])
        assert x.meet(x) == x

    def test_norm_cached(self):
        assert BudgetVector([2, 0, 5]).norm == 7

    def test_dimension_mismatch(self):
        with pytest.raises(QosdError):
            BudgetVector([1]).plus(BudgetVector([1, 2]))

    def test_negative_rejected(self):
        with pytest.raises(QosdError):
            BudgetVector([-1])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda m: st.tuples(
            st.lists(st.integers(0, 9), min_size=m, max_size=m),
            st.lists(st.integers(0, 9), min_size=m, max_size=m),
        )
    ))
    def test_lattice_identities(self, pair):
        xs, ys = pair
        x, y = BudgetVector(xs), BudgetVector(ys)
        assert x.join(y) == y.join(x)
        assert x.meet(y) == y.meet(x)
        assert x.join(y).norm + x.meet(y).norm == x.norm + y.norm
        assert x.monus(y).plus(y.meet(x)).norm == x.norm
        assert x.meet(y).dominated_by(x.join(y))


class TestPathAndCandidateSet:
    def test_path_shape_checked(self):
        with pytest.raises(QosdError):
            Path((0, 1), (0, 1), 2)
        with pytest.raises(QosdError):
            Path((0, 1, 0), (0, 1), 2)

    def test_dedup_by_edge_seq(self):
        p1 = Path((0, 1, 3), (0, 1), 2, 0)
        p2 = Path((0, 1, 3), (0, 1), 2, 0)
        p3 = Path((0, 2, 3), (2, 3), 2, 0)
        cs = CandidateSet()
        assert cs.add(p1) is True
        assert cs.add(p2) is False
        assert cs.add(p3) is True
        assert len(cs) == 2


class TestMetrics:
    def test_r_below_cap(self, inst_a):
        p = Path((0, 1, 3), (0, 1), 2, 0)
        assert r_value(inst_a, p, BudgetVector.zeros(4)) == 2

    def test_r_capped_at_threshold(self, inst_a):
        p = Path((0, 1, 3), (0, 1), 2, 0)
        assert r_value(inst_a, p, BudgetVector([2, 2, 0, 0])) == 3

    def test_d_on_diamond(self, inst_a):
        both = [Path((0, 1, 3), (0, 1), 2, 0), Path((0, 2, 3), (2, 3), 2, 0)]
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
        p = Path((0, 1, 3), (0, 1), 2, 0)
        both = [p, Path((0, 2, 3), (2, 3), 2, 0)]
        assert r_value(inst, p, BudgetVector(xs)) <= r_value(inst, p, BudgetVector(ys))
        assert d_value(inst, both, BudgetVector(xs)) <= d_value(inst, both, BudgetVector(ys))


class TestShortestPath:
    def test_diamond_tie_break(self, inst_a):
        p = shortest_path(inst_a, BudgetVector.zeros(4), (0, 3))
        assert p.node_seq == (0, 1, 3)
        assert p.edge_seq == (0, 1)

    def test_blocked_returns_none(self, inst_a):
        assert shortest_path(inst_a, BudgetVector([1, 0, 1, 0]), (0, 3)) is None

    def test_disconnected_pair(self):
        g = Graph(3, [(0, 1)])
        inst = QosdInstance(g, [WeightFunction((1, 2, 3))], [(0, 2)], 3)
        assert shortest_path(inst, BudgetVector.zeros(1), (0, 2)) is None

    def test_budget_shifts_route(self, inst_a):
        p = shortest_path(inst_a, BudgetVector([2, 0, 0, 0]), (0, 3))
        assert p.node_seq == (0, 2, 3)

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
        for v, ei in graph.out_adj[u]:
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
    found = shortest_path(inst, x, (0, n - 1))
    expected = _enumerate_shortest(inst, x, (0, n - 1))
    if expected is None:
        assert found is None
    else:
        assert found is not None
        lengths = edge_lengths(inst, x)
        assert sum(lengths[e] for e in found.edge_seq) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_prune_soundness(seed):
    rng = random.Random(seed)
    graph = generate_er(8, 0.4, seed)
    weights = build_weights(graph, "linear", 4)
    inst = QosdInstance(graph, weights, [(0, 7)], 4, validate_box=False)
    x = BudgetVector([rng.randint(0, w.cap) for w in weights])
    lengths = edge_lengths(inst, x)
    d_pruned = dijkstra(graph.out_adj, lengths, 0, bound=inst.threshold, target=7)[0][7]
    d_full = dijkstra(graph.out_adj, lengths, 0, target=7)[0][7]
    if d_full < inst.threshold:
        assert d_pruned == d_full
    else:
        assert d_pruned >= inst.threshold


def _contiguous_path(weights, edges):
    # build a Path over a chain graph from an edge subset (nodes relabeled)
    nodes = tuple(range(len(edges) + 1))
    initial = sum(weights[e].table[0] for e in edges)
    return Path(nodes, tuple(edges), initial)


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
            paths.append(_contiguous_path(weights, edges))
        gamma = concave_ratio(weights)
        caps = inst.box
        x = [rng.randint(0, c) for c in caps]
        y = [rng.randint(v, c) for v, c in zip(x, caps)]
        free = [e for e in range(m) if y[e] < caps[e]]
        if not free:
            continue
        edge = rng.choice(free)
        s = BudgetVector.unit(m, edge)
        bx, by = BudgetVector(x), BudgetVector(y)
        dx = d_value(inst, paths, bx.plus(s)) - d_value(inst, paths, bx)
        dy = d_value(inst, paths, by.plus(s)) - d_value(inst, paths, by)
        assert Fraction(dx) >= gamma * Fraction(dy)
        z = BudgetVector([rng.randint(0, c - v) for v, c in zip(y, caps)])
        dxz = d_value(inst, paths, bx.plus(z)) - d_value(inst, paths, bx)
        dyz = d_value(inst, paths, by.plus(z)) - d_value(inst, paths, by)
        assert Fraction(dxz) >= gamma * Fraction(dyz)


def _shuffled_instance(seed: int) -> tuple[QosdInstance, BudgetVector]:
    # random digraph whose edge indices do not follow (src, dst) order
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    edges = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.45]
    if not edges:
        edges = [(0, 1)]
    rng.shuffle(edges)
    weights = []
    for _ in edges:
        table = [rng.randint(1, 3)]
        for _ in range(rng.randint(1, 3)):
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
    assert dijkstra(graph.out_adj, lengths, s)[0] == _bellman_ford(graph.n, graph.edges, lengths, s)
    assert dijkstra(graph.in_adj, lengths, t)[0] == _bellman_ford(graph.n, reverse, lengths, t)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_shortest_path_takes_lowest_index_tight_in_edge(seed):
    inst, x = _shuffled_instance(seed)
    edges = inst.graph.edges
    lengths = edge_lengths(inst, x)
    s, t = inst.pairs[0]
    dist = _bellman_ford(inst.graph.n, edges, lengths, s)
    found = shortest_path(inst, x, (s, t))
    if dist[t] >= inst.threshold:
        assert found is None
        return
    assert found.node_seq[0] == s and found.node_seq[-1] == t
    for e in found.edge_seq:
        head = edges[e][1]
        tight = [f for f, (u, v) in enumerate(edges) if v == head and dist[u] + lengths[f] == dist[v]]
        assert e == min(tight)


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


def _random_paths(inst: QosdInstance, rng: random.Random) -> list[Path]:
    # simple walks from random nodes; PathSupport does not care which pair a path serves
    graph = inst.graph
    paths = []
    for _ in range(rng.randint(1, 6)):
        u = rng.randrange(graph.n)
        nodes, edges = [u], []
        for _ in range(rng.randint(1, 4)):
            steps = [(v, e) for v, e in graph.out_adj[u] if v not in nodes]
            if not steps:
                break
            u, e = rng.choice(steps)
            nodes.append(u)
            edges.append(e)
        if edges:
            initial = sum(inst.weights[e].table[0] for e in edges)
            paths.append(Path(tuple(nodes), tuple(edges), initial))
    return paths


def _brute_best_unit(inst, paths, x, path_weight):
    """Argmax over support edges of the weighted rise in capped path lengths
    from one more unit, lowest edge on ties; (-1, 0) when nothing rises."""
    best_edge, best_gain = -1, 0
    for e in sorted({e for p in paths for e in p.edge_seq}):
        if x[e] >= inst.box[e]:
            continue
        bumped = x.plus(BudgetVector.unit(len(x), e))
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


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_path_support_matches_brute_force(weighted, seed):
    inst, x = _shuffled_instance(seed)
    rng = random.Random(seed)
    paths = _random_paths(inst, rng)
    # quarter weights are exact in binary and still tie
    path_weight = [rng.randint(1, 12) / 4 for _ in paths] if weighted else None
    support = PathSupport(inst, paths, x, path_weight)
    threshold = inst.threshold
    step = 0
    while True:
        x = BudgetVector(support.x)
        assert support.lengths == [sum(inst.weights[e].table[x[e]] for e in p.edge_seq) for p in paths]
        assert support.gap == len(paths) * threshold - d_value(inst, paths, x)
        edge, gain = support.best_unit()
        assert (edge, gain) == _brute_best_unit(inst, paths, x, path_weight)
        if edge < 0:
            break
        # alternate unit steps with AT's chunks so apply also sees amounts > 1
        amount = 1
        if step % 2:
            edge, amount, _ = support.best_chunk()
            assert edge >= 0
        support.apply(edge, amount)
        step += 1

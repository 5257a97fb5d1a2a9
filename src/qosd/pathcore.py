"""Budget vectors, the shortest-path kernel, separation checks and the
blockers' gain structure. A path is the tuple of its edge ids from s to t.

Every shortest-path search is one ``scipy.sparse.csgraph.dijkstra`` call
from a batch of sources, stopped at a bound (only paths strictly shorter
than T matter). :func:`distances` searches a whole graph through a CSR
view cached on it (SA's rows); a pair sweep, :func:`pair_shortest_paths`
(IG, AT, CC, the oracle, LR's separation, SA's exact fallback, every
feasibility check), searches the instance's T-corridor: the edges (u, v)
with d0(s, u) + table[0] + d0(v, t) < T for some pair, d0 the zero-budget
distance. Lengths never fall below table[0], so every prefix and suffix
of a path below T is at least its zero-budget length: each of its edges
is in the corridor, distances are exact along it and its tight in-edges
are the full graph's, so the instance on its corridor (:func:`reduce`,
SA's sub-instance) is the same problem. No sweep is bounded above T. The
first one builds the corridor (one bounded search each way) with its
nodes relabelled, its own in-edges and its edges' tables end to end, and
keeps it on the instance, so no later sweep step scales with n or m. Each
pair's path (:func:`shortest_path`) is rebuilt backward from t along the
lowest-index tight in-edge and SA's tree parent is the lowest-id tight
next hop; both rules read only the float64 distances, so every output is
fixed by the lengths alone, and all but LR's fractional lengths are exact
integers.

:class:`PathSupport` is the one place where a blocker's path lengths, edge
support and capped-gain scan live. Each support takes one step rule for
its life: AT's best-ratio chunks, or the unit steps (crossing a flat
increment by the best chunk) of IG, SA's estimator-weighted chunk and
SA's exact step. It keeps one entry per edge and one heap, and rescans
only the entries a step changed. Its ``x``,
SA's and CC's budgets and :class:`BudgetVector` share one buffer
representation, so no per-round step walks all m edges in Python.
"""

from __future__ import annotations

import copy
import math
from array import array
from heapq import heapify, heappop, heappush
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

from .errors import InfeasibleBoxError, QosdError
from .instance import Graph, QosdInstance

_INF = float("inf")


class BudgetVector:
    """Length-m vector of nonnegative integer budget units, read-only; callers
    check ``within_box`` where the cap constraint matters. ``values`` is an
    ``array`` of one byte per edge while every entry is below 256 (8 bytes
    otherwise), as are the solvers' working budgets (:func:`budget_array`).
    Any other iterable is read into an ``array("q")`` first (a float entry
    is a ``TypeError``); the buffer is then copied, checked and summed in
    numpy."""

    __slots__ = ("values", "norm")

    def __init__(self, values: Iterable[int]):
        if not isinstance(values, array):
            values = array("q", values)
        entries = np.frombuffer(values, values.typecode)
        if entries.size and entries.min() < 0:
            raise QosdError("budget components must be nonnegative")
        code = "B" if not entries.size or entries.max() < 256 else "q"
        self.values, self.norm = array(code, entries.astype(code).tobytes()), int(entries.sum())

    @classmethod
    def zeros(cls, m: int) -> "BudgetVector":
        return cls(array("B", bytes(m)))

    def within_box(self, box: Sequence[int]) -> bool:
        return len(self.values) == len(box) and all(v <= c for v, c in zip(self.values, box))

    def __getitem__(self, edge: int) -> int:
        return self.values[edge]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other) -> bool:
        return isinstance(other, BudgetVector) and self.values == other.values

    def __hash__(self):
        return hash(tuple(self.values))

    def __repr__(self) -> str:
        return f"BudgetVector(norm={self.norm}, values={self.values.tolist()})"


def budget_array(instance: "QosdInstance", values: array | None = None) -> array:
    """A writable copy of ``values`` (zeros when None) that holds any entry
    within the box: one byte per edge unless some cap is 256 or more."""
    code = instance.budget_code
    return array(code, [0]) * instance.graph.m if values is None else array(code, values)


def edge_lengths(instance: "QosdInstance", x: BudgetVector) -> list[int]:
    """Current weight f_e(x_e) for every edge."""
    return [wf.table[v] for wf, v in zip(instance.weights, x.values)]


def csr_view(graph: "Graph", reverse: bool) -> tuple[csr_matrix, np.ndarray, np.ndarray]:
    """The graph (its transpose when ``reverse``) as a CSR matrix with each row's
    entries in edge-index order, and each entry's edge index and row. Cached on
    the graph on first use; callers refill ``data``, so calls on one graph must
    not overlap."""
    if reverse not in graph._csr:
        ends = np.array(graph.edges, dtype=np.int32).reshape(-1, 2).T
        rows, cols = ends[::-1] if reverse else ends
        perm = np.argsort(rows, kind="stable")
        indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=graph.n))].astype(np.int32)
        matrix = csr_matrix((np.zeros(len(perm)), cols[perm], indptr), shape=(graph.n, graph.n))
        graph._csr[reverse] = (matrix, perm, rows[perm])
    return graph._csr[reverse]


def out_view(graph: "Graph") -> tuple[np.ndarray, np.ndarray]:
    """Each node's out-neighbours and out-edges in edge-index order (the rows
    of the forward :func:`csr_view`), as two n x max(1, max_out_degree)
    arrays padded with -1; cached on the graph next to that view."""
    if "out" not in graph._csr:
        matrix, perm, tails = csr_view(graph, False)
        slot = np.arange(len(perm)) - matrix.indptr[tails]
        nodes = np.full((graph.n, max(1, graph.max_out_degree)), -1, dtype=np.int32)
        edges = np.full_like(nodes, -1)
        nodes[tails, slot], edges[tails, slot] = matrix.indices, perm
        graph._csr["out"] = (nodes, edges)
    return graph._csr["out"]


def adjacency(graph: "Graph") -> tuple[list[list[tuple[int, int]]], list[list[tuple[int, int]]]]:
    """Each node's (head, edge) out-edges and (tail, edge) in-edges in edge-index
    order, as Python lists; cached on the graph next to :func:`out_view`."""
    if "adj" not in graph._csr:
        graph._csr["adj"] = out_adj, in_adj = [[] for _ in range(graph.n)], [[] for _ in range(graph.n)]
        for e, (u, v) in enumerate(graph.edges):
            out_adj[u].append((v, e))
            in_adj[v].append((u, e))
    return graph._csr["adj"]


def distances(
    instance: "QosdInstance", lengths: Sequence[float], sources: Sequence[int],
    *, bound: float = _INF, reverse: bool = False,
) -> np.ndarray:
    """Row i holds the distances from ``sources[i]`` under ``lengths`` (to it
    when ``reverse``), from one ``scipy.sparse.csgraph.dijkstra`` call.

    Entries strictly below ``bound`` are exact; all others read >= ``bound``.
    Each distance is the float64 sum d[u] + lengths[e] along a shortest path,
    so integer lengths stay exact and the same sum recognises tight edges.
    """
    matrix, perm, _ = csr_view(instance.graph, reverse)
    np.take(np.asarray(lengths, dtype=np.float64), perm, out=matrix.data)
    return csgraph_dijkstra(matrix, directed=True, indices=sources, limit=bound)


class Corridor(NamedTuple):
    """Some edges of the graph, their nodes relabelled 0..n_c-1 in id order
    (``local`` maps a node to its label): an n_c x n_c CSR ``matrix`` whose
    ``data`` the sweeps refill, each entry's edge, each local node's
    (local tail, entry, edge) in-edges in edge-index order, and the entries'
    weight tables end to end, entry i's from ``offsets[i]`` to its cap."""

    matrix: csr_matrix
    edges: np.ndarray
    local: dict[int, int]
    in_edges: tuple[tuple[tuple[int, int, int], ...], ...]
    tables: np.ndarray
    offsets: np.ndarray
    caps: np.ndarray


def corridor(instance: "QosdInstance") -> Corridor:
    """The instance's T-corridor (see the module docstring) and every pair
    source, as a :class:`Corridor` built by the first call and kept on the
    instance. Of the weight tables past table[0] it reads only its own."""
    if instance._corridor is not None:
        return instance._corridor
    limit = instance.threshold
    base = np.array([wf.table[0] for wf in instance.weights], dtype=np.float64)
    full, perm, tails = csr_view(instance.graph, False)
    from_sources = distances(instance, base, instance.sources, bound=limit)
    to_sinks = distances(instance, base, instance.sinks, bound=limit, reverse=True)
    keep, entry_lengths = np.zeros(len(perm), dtype=bool), base[perm]
    for r, c in zip(instance.source_row.tolist(), instance.sink_row.tolist()):
        keep |= from_sources[r][tails] + entry_lengths + to_sinks[c][full.indices] < limit
    edges, tails, heads = perm[keep], tails[keep], full.indices[keep]
    nodes = np.unique(np.concatenate((tails, heads, instance.sources)))
    n = len(nodes)
    # labels keep the id order, so the entries stay grouped by tail, in edge-index order
    tails, heads = (np.searchsorted(nodes, ends).astype(np.int32) for ends in (tails, heads))
    indptr = np.r_[0, np.cumsum(np.bincount(tails, minlength=n))].astype(np.int32)
    matrix = csr_matrix((np.zeros(len(edges)), heads, indptr), shape=(n, n))
    order = np.lexsort((edges, heads))
    into = list(zip(tails[order].tolist(), order.tolist(), edges[order].tolist()))
    ends = np.cumsum(np.bincount(heads, minlength=n)).tolist()
    in_edges = tuple(tuple(into[a:b]) for a, b in zip([0] + ends, ends))
    tables = [instance.weights[e].table for e in edges.tolist()]
    sizes = np.fromiter(map(len, tables), np.int64, len(tables))
    flat = np.fromiter(chain.from_iterable(tables), np.float64, int(sizes.sum()))
    local = dict(zip(nodes.tolist(), range(n)))
    instance._corridor = Corridor(matrix, edges, local, in_edges, flat, np.cumsum(sizes) - sizes, sizes - 1)
    return instance._corridor


def reduce(instance: "QosdInstance") -> tuple["QosdInstance", np.ndarray]:
    """The instance on its :func:`corridor`, built without a box check, and
    the kept edge ids: the corridor's edges in edge-id order on their nodes
    and every pair endpoint, relabelled in id order, so every tie rule by
    lowest id or index carries over. Its vector y lifts to x[kept] = y, 0
    elsewhere. Built by the first call and kept on the instance."""
    if instance._reduced is None:
        kept = np.sort(corridor(instance).edges)
        ends = np.array(instance.graph.edges, dtype=np.int64).reshape(-1, 2)[kept]
        nodes = np.unique(np.concatenate((ends.ravel(), instance.sources, instance.sinks)))
        graph = Graph(len(nodes), np.searchsorted(nodes, ends).tolist())
        pairs = np.searchsorted(nodes, instance.pairs).tolist()
        instance._reduced = QosdInstance(graph, [instance.weights[e] for e in kept.tolist()], pairs,
                                         instance.threshold, validate_box=False), kept
    return instance._reduced


def shortest_path(
    pair: tuple[int, int], *, area: Corridor, dist: np.ndarray, bound: float,
) -> tuple[int, ...] | None:
    """The s-t path of :func:`pair_shortest_paths`' sweep, as its edge tuple,
    if strictly shorter than ``bound``, else None: ``area`` is the
    :func:`corridor`, its matrix filled with the sweep's lengths, and
    ``dist`` s's row of distances on it. The path is rebuilt from t on the
    corridor's in-edges, entering each v by its lowest-index tight in-edge
    (d[u] + len == d[v])."""
    s, t = pair
    v = area.local.get(t)  # None: t is on no walk below T
    if v is None or not dist[v] < bound:
        return None
    data, in_edges, start = area.matrix.data, area.in_edges, area.local[s]
    edges = []
    while v != start:
        dv = dist[v]
        # lengths are >= 1, so a tight in-edge comes from a nearer node
        v, e = next((u, e) for u, j, e in in_edges[v] if dist[u] + data[j] == dv)
        edges.append(e)
    return tuple(reversed(edges))


def pair_shortest_paths(
    instance: "QosdInstance", x: BudgetVector | None, *,
    lengths: Sequence[float] | None = None, bound: float | None = None,
) -> list[tuple[int, ...] | None]:
    """Each pair's shortest path (its edge tuple) strictly below ``bound`` (T when None; a
    bound above T is a ``QosdError``), or None when the pair is separated,
    in pair order: one Dijkstra call over ``instance.sources`` on the
    :func:`corridor`, which holds every such path (see the module docstring)
    when ``lengths`` (f_e(x_e), one gather from x's buffer, when None) are
    at least ``table[0]`` on every edge."""
    if bound is None:
        bound = instance.threshold
    elif bound > instance.threshold:
        raise QosdError(f"a pair sweep's bound {bound} exceeds T = {instance.threshold}")
    area = corridor(instance)
    if lengths is None:
        if x is None:
            raise QosdError("a pair sweep needs a budget x or edge lengths")
        spent = np.frombuffer(x.values, x.values.typecode)[area.edges]
        if (spent > area.caps).any():
            raise QosdError("budget exceeds an edge's cap")
        np.take(area.tables, area.offsets + spent, out=area.matrix.data)
    else:
        np.take(np.asarray(lengths, dtype=np.float64), area.edges, out=area.matrix.data)
    sources = [area.local[s] for s in instance.sources.tolist()]
    dist = csgraph_dijkstra(area.matrix, directed=True, indices=sources, limit=bound)
    return [
        shortest_path(pair, bound=bound, area=area, dist=dist[r])
        for pair, r in zip(instance.pairs, instance.source_row.tolist())
    ]


def unseparated_pairs(instance: "QosdInstance", x: BudgetVector) -> list[int]:
    """Indices of pairs still connected below T; empty means x is feasible."""
    return [i for i, p in enumerate(pair_shortest_paths(instance, x)) if p is not None]


def chunk_amounts(table: Sequence[int]) -> list[tuple[tuple[int, int], ...]]:
    """For each budget level x of ``table``, the ``(z, delta)`` pairs, delta =
    table[x + z] - table[x], whose average increment delta / z is positive
    and strictly above that of every smaller amount, in rising z."""
    levels = []
    for x, base in enumerate(table):
        best_z, best_delta, tries = 1, 0, []
        for z in range(1, len(table) - x):
            delta = table[x + z] - base
            if delta * best_z > best_delta * z:
                best_z, best_delta = z, delta
                tries.append((z, delta))
        levels.append(tuple(tries))
    return levels


class PathSupport:
    """Lengths, edge support and shortfall of a path set under a budget x,
    and the next step of the one step rule the support was built with.

    A path is its edge tuple (a sweep's path or an SA walk). ``x`` starts
    as a :func:`budget_array` copy of the given vector (zeros when None), so
    :meth:`copy` and :meth:`block`'s vector copy its buffer; ``lengths[i]``
    is path i's length under x, ``support`` maps each edge to the indices
    of the paths using it and ``gap`` = sum(T - min(T, length)) = |P| * T
    - D, which is 0 exactly when x blocks every path. A caller can keep one support at x = 0, :meth:`extend` it
    as its path set grows and block each round on a :meth:`copy`, which
    shares nothing it mutates.

    ``chunks=True`` is AT's rule, the best-ratio chunk every step; the
    default is IG's, the best unit or, where flat increments leave no unit
    with gain, the best chunk (IG, SA's chunk and SA's exact step). Each
    edge caches one entry, and only dirty edges are rescanned. An edge's
    entry reads only its own x and table and the shortfalls of its paths,
    and :meth:`apply` on e changes only x[e] and the lengths of e's paths.
    A path already at T or above keeps a shortfall of 0, so ``apply``
    dirties e and the edges of e's paths that were below T (none more when
    the step adds no length), and ``extend`` the edges of the new paths.
    Every other entry is what a full rescan would compute, for any table. A
    rescan that changes an entry pushes its key onto one lazy heap whose
    least key is the pick; a pick pops the tops that no longer match their
    edge's entry and reads the next one.
    """

    def __init__(
        self,
        instance: "QosdInstance",
        paths: Iterable[Sequence[int]],
        x: BudgetVector | None = None,
        path_weight: Sequence[float] | None = None,
        *,
        chunks: bool = False,
    ):
        self.threshold = instance.threshold
        self.weights = instance.weights
        self.box = instance.box
        self.chunks = chunks
        self.x = budget_array(instance, None if x is None else x.values)
        self.path_edges, self.lengths, self.path_weight = [], [], []
        self.support: dict[int, tuple[int, ...]] = {}
        self.gap = 0
        # per-edge entries, their lazy heap and the edges to rescan
        self._entries, self._heap, self._dirty = {}, [], set()
        self._ratio_scale = 0  # lcm(1..max box), set by the first chunk scan
        self._amounts: dict = {}  # chunk_amounts by table, shared by copies
        self.extend(paths)
        if path_weight is not None:
            self.path_weight = list(path_weight)

    def extend(self, paths: Iterable[Sequence[int]]) -> None:
        """Add ``paths`` with weight 1; only their edges become dirty."""
        threshold, weights, xv, support = self.threshold, self.weights, self.x, self.support
        dirty = set()
        for edges in paths:
            ln = sum(weights[e].table[xv[e]] for e in edges)
            self.gap += threshold - min(threshold, ln)
            for e in edges:
                # a new tuple, so a copy may share the old one
                support[e] = support.get(e, ()) + (len(self.lengths),)
            self.path_edges.append(edges)
            self.lengths.append(ln)
            self.path_weight.append(1)
            dirty.update(edges)
        for e in dirty - self._entries.keys():
            self._entries[e] = 0
        self._dirty |= dirty

    def copy(self) -> "PathSupport":
        twin = copy.copy(self)
        for name in ("x", "path_edges", "lengths", "path_weight", "support", "_entries", "_heap", "_dirty"):
            setattr(twin, name, copy.copy(getattr(self, name)))
        return twin

    def best(self) -> tuple[int, int, float]:
        """The rule's next ``(edge, amount, gain)``; ``(-1, 0, 0)`` when no
        step has positive gain.

        A unit gains the capped length increase times ``path_weight`` (1 by
        default), summed over the edge's paths below T; a chunk of z units,
        delta = table[x + z] - table[x], gains the unweighted sum of
        min(shortfall, delta). The default rule keys an edge whose next
        increment rises by its unit, ``(0, -gain, edge)``, and one whose
        next increment is flat by its best chunk, as below; the chunk rule
        keys every edge by its best chunk. So a unit with gain comes first,
        ties to the lowest edge, and a chunk only when no unit has gain (with
        positive weights, an edge that rises but gains nothing has all its
        paths at T, so no chunk with gain either).

        An edge's best chunk has the best gain per unit over its spendable
        amounts, the smallest of equal ratios kept (by integer
        cross-multiplication), so on concave or linear tables it is the unit
        step. Across edges the key ``(1, -(gain * L // amount), -gain,
        amount, edge)``, L = lcm(1..max box), orders by ratio (exactly:
        every amount divides L), then higher gain, smaller amount, lower
        edge. Only :func:`chunk_amounts`' amounts are tried: if delta_z / z
        <= delta_w / w for some w < z, then path by path min(s, delta_z) / z
        <= min(s, delta_w) / w, so z never strictly beats w. Where the
        remaining increments do not rise (a linear or concave table) that
        leaves one amount at most, whose gain is one capped sum, no sort.
        """
        threshold, lengths, path_weight = self.threshold, self.lengths, self.path_weight
        weights, box, x, support = self.weights, self.box, self.x, self.support
        entries, pushed = self._entries, []
        if self.chunks:
            chunked = self._dirty
        else:
            chunked = []  # edges whose next increment is flat
            for e in self._dirty:
                xe = x[e]
                gain = 0
                if xe < box[e]:
                    table = weights[e].table
                    delta = table[xe + 1] - table[xe]
                    if not delta:
                        chunked.append(e)
                        continue
                    for pi in support[e]:
                        short = threshold - lengths[pi]
                        if short > 0:
                            gain += (short if delta > short else delta) * path_weight[pi]
                if gain != entries[e]:
                    entries[e] = gain
                    if gain > 0:
                        pushed.append((0, -gain, e, gain))
        if chunked:
            amounts = self._amounts
            if not self._ratio_scale:
                self._ratio_scale = math.lcm(*range(1, max(box, default=0) + 1))
            scale = self._ratio_scale
            for e in chunked:
                table = weights[e].table
                levels = amounts.get(table)
                if levels is None:
                    levels = amounts[table] = chunk_amounts(table)
                tries = levels[x[e]]
                edge_gain = edge_z = 0
                if len(tries) == 1:
                    (z, delta), = tries
                    for pi in support[e]:
                        short = threshold - lengths[pi]
                        if short > 0:
                            edge_gain += short if delta > short else delta
                    if edge_gain:
                        edge_z = z
                elif tries:
                    shorts = [s for s in (threshold - lengths[pi] for pi in support[e]) if s > 0]
                    for z, delta in tries:
                        gain = sum(s if delta > s else delta for s in shorts)
                        # keep the smallest z among equal ratios: strict improvement only
                        if gain and (edge_z == 0 or gain * edge_z > edge_gain * z):
                            edge_gain = gain
                            edge_z = z
                entry = (edge_z, edge_gain)
                if entry != entries[e]:
                    entries[e] = entry
                    if edge_z:
                        pushed.append((1, -(edge_gain * scale // edge_z), -edge_gain, edge_z, e, entry))
        self._dirty.clear()
        heap = self._heap
        if heap:
            for key in pushed:
                heappush(heap, key)
        else:
            heap[:] = pushed
            heapify(heap)
        # a key that matches its edge's entry is never popped, so an
        # unchanged rescan need not push it again
        while heap and entries[heap[0][-2]] != heap[0][-1]:
            heappop(heap)
        if not heap:
            return -1, 0, 0
        top = heap[0]
        return (top[-2], *top[-1]) if top[0] else (top[2], 1, top[3])

    def block(self, deadline, what: str, trace: list | None = None) -> BudgetVector:
        """x after applying :meth:`best`'s steps on a copy until every path
        reaches T, each after ``deadline.check(what)`` and appended to
        ``trace``; ``InfeasibleBoxError`` when none has positive gain before
        then."""
        support = self
        while support.gap > 0:
            deadline.check(what)
            edge, amount, gain = support.best()
            if edge < 0:
                raise InfeasibleBoxError(f"{what}: no step improves D while paths remain below T")
            if support is self:
                support = self.copy()
            support.apply(edge, amount)
            if trace is not None:
                trace.append((edge, amount, gain))
        return BudgetVector(support.x)

    def apply(self, edge: int, amount: int) -> None:
        """Add ``amount`` units on ``edge``; ``gap`` drops by the unweighted
        shortfall this closes."""
        xe = self.x[edge]
        table = self.weights[edge].table
        delta = table[xe + amount] - table[xe]
        self.x[edge] = xe + amount
        threshold, lengths = self.threshold, self.lengths
        dirty = {edge}
        closed = 0
        for pi in self.support[edge]:
            ln = lengths[pi]
            if ln < threshold and delta:
                closed += min(threshold - ln, delta)
                dirty.update(self.path_edges[pi])
            lengths[pi] = ln + delta
        self.gap -= closed
        self._dirty |= dirty

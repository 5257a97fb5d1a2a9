"""Budget vectors, path metrics, the shortest-path kernel, separation checks
and the blockers' gain structure.

:func:`dijkstra` is the one shortest-path search; IG and AT harvest paths,
LR separates and SA builds its shortest-path trees with it. Queries stop
at a bound: only paths strictly shorter than T ever matter, and all edge
weights are >= 1, so a pop at distance >= T ends the search. Everything
but LR's fractional lengths is exact integer arithmetic.

:class:`PathSupport` is the one place where a blocker's path lengths, edge
support and capped-gain scan live: IG's unit steps, AT's best-ratio
chunks, SA's estimator-weighted chunk and SA's exact fallback step all
pick their increments from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import QosdError

if TYPE_CHECKING:
    from .instance import QosdInstance

_INF = float("inf")


class BudgetVector:
    """Length-m vector of nonnegative integer budget units.

    Lattice operations return new vectors and never clamp to a box;
    callers check ``within_box`` where the cap constraint matters.
    """

    __slots__ = ("values", "norm")

    def __init__(self, values: Iterable[int]):
        vals = list(values)
        if any(v < 0 for v in vals):
            raise QosdError("budget components must be nonnegative")
        self.values = vals
        self.norm = sum(vals)

    @classmethod
    def zeros(cls, m: int) -> "BudgetVector":
        return cls([0] * m)

    @classmethod
    def unit(cls, m: int, edge: int, amount: int = 1) -> "BudgetVector":
        vals = [0] * m
        vals[edge] = amount
        return cls(vals)

    def _require_same_dim(self, other: "BudgetVector") -> None:
        if len(self.values) != len(other.values):
            raise QosdError(
                f"dimension mismatch: {len(self.values)} vs {len(other.values)}"
            )

    def join(self, other: "BudgetVector") -> "BudgetVector":
        self._require_same_dim(other)
        return BudgetVector([max(a, b) for a, b in zip(self.values, other.values)])

    def meet(self, other: "BudgetVector") -> "BudgetVector":
        self._require_same_dim(other)
        return BudgetVector([min(a, b) for a, b in zip(self.values, other.values)])

    def plus(self, other: "BudgetVector") -> "BudgetVector":
        self._require_same_dim(other)
        return BudgetVector([a + b for a, b in zip(self.values, other.values)])

    def monus(self, other: "BudgetVector") -> "BudgetVector":
        self._require_same_dim(other)
        return BudgetVector([max(a - b, 0) for a, b in zip(self.values, other.values)])

    __add__ = plus

    def dominated_by(self, other: "BudgetVector") -> bool:
        self._require_same_dim(other)
        return all(a <= b for a, b in zip(self.values, other.values))

    def within_box(self, box: Sequence[int]) -> bool:
        return len(self.values) == len(box) and all(
            v <= c for v, c in zip(self.values, box)
        )

    def copy(self) -> "BudgetVector":
        return BudgetVector(self.values)

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
        return f"BudgetVector(norm={self.norm}, values={self.values})"


@dataclass(frozen=True)
class Path:
    """Simple directed path; ``edge_seq[i]`` connects node_seq[i] to node_seq[i+1]."""

    node_seq: tuple[int, ...]
    edge_seq: tuple[int, ...]
    initial_length: int
    pair_index: int | None = None

    def __post_init__(self):
        if len(self.node_seq) != len(self.edge_seq) + 1:
            raise QosdError("node/edge sequence lengths disagree")
        if len(set(self.node_seq)) != len(self.node_seq):
            raise QosdError("path revisits a node")

    @property
    def key(self) -> tuple[int, ...]:
        return self.edge_seq


class CandidateSet:
    """Insertion-ordered set of paths, deduplicated by edge sequence."""

    def __init__(self, paths: Iterable[Path] = ()):
        self._paths: list[Path] = []
        self._seen: set[tuple[int, ...]] = set()
        for p in paths:
            self.add(p)

    def add(self, path: Path) -> bool:
        """Insert; returns True when the path is genuinely new."""
        if path.key in self._seen:
            return False
        self._seen.add(path.key)
        self._paths.append(path)
        return True

    def add_all(self, paths: Iterable[Path]) -> int:
        return sum(1 for p in paths if self.add(p))

    def __iter__(self):
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)

    def __contains__(self, path: Path) -> bool:
        return path.key in self._seen

    @property
    def paths(self) -> list[Path]:
        return list(self._paths)


def edge_lengths(instance: "QosdInstance", x: BudgetVector) -> list[int]:
    """Current weight f_e(x_e) for every edge."""
    return [wf.table[v] for wf, v in zip(instance.weights, x.values)]


def r_value(instance: "QosdInstance", path: Path, x: BudgetVector) -> int:
    """Path length under x, capped at the threshold."""
    threshold = instance.threshold
    weights = instance.weights
    total = 0
    for e in path.edge_seq:
        total += weights[e].table[x.values[e]]
        if total >= threshold:
            return threshold
    return total


def d_value(instance: "QosdInstance", paths: Iterable[Path], x: BudgetVector) -> int:
    """Sum of capped lengths; equals |P| * T exactly when x blocks all of P."""
    return sum(r_value(instance, p, x) for p in paths)


def blocks_all(instance: "QosdInstance", paths: Sequence[Path], x: BudgetVector) -> bool:
    return d_value(instance, paths, x) == len(paths) * instance.threshold


def dijkstra(
    adj: Sequence[Sequence[tuple[int, int]]],
    lengths: Sequence[float],
    source: int,
    *,
    bound: float = _INF,
    target: int = -1,
    tie_key: Sequence | None = None,
) -> tuple[list[float], list[int]]:
    """Distances from ``source`` over ``adj`` and the edge each node is reached by.

    ``adj[u]`` lists ``(v, e)``: ``graph.out_adj`` gives distances from
    ``source``, ``graph.in_adj`` distances to it (``parent_edge[v]`` is then
    v's first edge toward ``source``). Nodes pop in (distance, node) order;
    only nodes strictly nearer than ``bound`` settle, and the search ends
    once ``target`` settles. Ties go to the edge with the lowest
    ``tie_key[e]``, or the lowest edge index when ``tie_key`` is None. With
    every length >= 1 each tight edge into a node relaxes before the node
    settles, so the rule is complete for every settled node.
    """
    n = len(adj)
    dist: list[float] = [_INF] * n
    parent_edge = [-1] * n
    settled = bytearray(n)
    dist[source] = 0
    heap: list[tuple[float, int]] = [(0, source)]
    while heap:
        d, u = heappop(heap)
        if settled[u]:
            continue
        if d >= bound:
            break
        settled[u] = 1
        if u == target:
            break
        for v, ei in adj[u]:
            if settled[v]:
                continue
            nd = d + lengths[ei]
            dv = dist[v]
            if nd < dv:
                dist[v] = nd
                parent_edge[v] = ei
                heappush(heap, (nd, v))
            elif nd == dv and (
                ei < parent_edge[v] if tie_key is None
                else tie_key[ei] < tie_key[parent_edge[v]]
            ):
                parent_edge[v] = ei
    return dist, parent_edge


def path_below(
    instance: "QosdInstance",
    lengths: Sequence[float],
    pair: tuple[int, int],
    bound: float,
    pair_index: int | None = None,
) -> Path | None:
    """Shortest s-t path under ``lengths`` if strictly shorter than ``bound``,
    else None; rebuilt backward from t along :func:`dijkstra`'s parent edges."""
    s, t = pair
    graph = instance.graph
    dist, parent_edge = dijkstra(graph.out_adj, lengths, s, bound=bound, target=t)
    if dist[t] >= bound:
        return None
    nodes = [t]
    edges = []
    while nodes[-1] != s:
        ei = parent_edge[nodes[-1]]
        edges.append(ei)
        nodes.append(graph.edges[ei][0])
    nodes.reverse()
    edges.reverse()
    initial = sum(instance.weights[e].table[0] for e in edges)
    return Path(tuple(nodes), tuple(edges), initial, pair_index)


def shortest_path(
    instance: "QosdInstance",
    x: BudgetVector,
    pair: tuple[int, int],
    *,
    pair_index: int | None = None,
    lengths: Sequence[int] | None = None,
) -> Path | None:
    """Minimum-length path under f_e(x_e) if its length is below T, else None."""
    if lengths is None:
        lengths = edge_lengths(instance, x)
    return path_below(instance, lengths, pair, instance.threshold, pair_index)


def pair_shortest_paths(instance: "QosdInstance", x: BudgetVector) -> list[Path | None]:
    """Per-pair shortest path below T (None when the pair is separated), in pair order."""
    lengths = edge_lengths(instance, x)
    return [
        shortest_path(instance, x, pair, pair_index=i, lengths=lengths)
        for i, pair in enumerate(instance.pairs)
    ]


def unseparated_pairs(instance: "QosdInstance", x: BudgetVector) -> list[int]:
    """Indices of pairs still connected below T; empty means x is feasible."""
    return [i for i, p in enumerate(pair_shortest_paths(instance, x)) if p is not None]


class PathSupport:
    """Lengths, edge support and shortfall of a path set under a budget x.

    ``x`` starts as a copy of the given vector (zeros when None),
    ``lengths[i]`` is path i's length under x, ``support`` maps each edge to
    the indices of the paths using it (``edges`` is its sorted key list) and
    ``gap`` = sum(T - min(T, length)) = |P| * T - D, which is 0 exactly when
    x blocks every path. Each scan covers every support edge in one call, so
    the hot loop makes no Python call per edge.
    """

    def __init__(
        self,
        instance: "QosdInstance",
        paths: Iterable[Path],
        x: Iterable[int] | None = None,
        path_weight: Sequence[float] | None = None,
    ):
        self.threshold = instance.threshold
        self.weights = instance.weights
        self.box = instance.box
        self.x = [0] * instance.graph.m if x is None else list(x)
        weights, xv = self.weights, self.x
        path_list = list(paths)
        self.lengths = [sum(weights[e].table[xv[e]] for e in p.edge_seq) for p in path_list]
        self.path_weight = [1] * len(path_list) if path_weight is None else list(path_weight)
        support: dict[int, list[int]] = {}
        for pi, p in enumerate(path_list):
            for e in p.edge_seq:
                support.setdefault(e, []).append(pi)
        self.support = support
        self.edges = sorted(support)
        self.gap = sum(self.threshold - min(self.threshold, ln) for ln in self.lengths)

    def best_unit(self) -> tuple[int, float]:
        """The unit increment with the largest gain: the sum, over the edge's
        paths still below T, of the capped length increase times the path's
        weight (1 when no ``path_weight`` was given). Ties go to the lowest
        edge; ``(-1, 0)`` when no unit has positive gain."""
        threshold, lengths, path_weight = self.threshold, self.lengths, self.path_weight
        weights, box, x, support = self.weights, self.box, self.x, self.support
        best_edge = -1
        best_gain = 0
        for e in self.edges:
            xe = x[e]
            if xe >= box[e]:
                continue
            table = weights[e].table
            delta = table[xe + 1] - table[xe]
            if delta == 0:
                continue
            gain = 0
            for pi in support[e]:
                short = threshold - lengths[pi]
                if short > 0:
                    gain += (short if delta > short else delta) * path_weight[pi]
            if gain > best_gain:
                best_gain = gain
                best_edge = e
        return best_edge, best_gain

    def best_chunk(self) -> tuple[int, int, int]:
        """The ``(edge, amount, gain)`` chunk with the best gain-per-unit ratio
        over every spendable amount; ``(-1, 0, 0)`` when none has positive gain.

        Gains are unweighted (``path_weight`` does not apply), and ratios are
        compared by integer cross-multiplication. Per edge the smallest of
        equal-ratio amounts is kept, so with concave or linear tables this is
        :meth:`best_unit`'s step; across edges ties go to the higher gain,
        then the smaller amount, then the lower edge.
        """
        threshold, lengths = self.threshold, self.lengths
        weights, box, x, support = self.weights, self.box, self.x, self.support
        best_edge, best_amount, best_gain = -1, 0, 0
        for e in self.edges:
            xe = x[e]
            room = box[e] - xe
            if room <= 0:
                continue
            shorts = [threshold - lengths[pi] for pi in support[e]]
            shorts = [s for s in shorts if s > 0]
            if not shorts:
                continue
            table = weights[e].table
            base = table[xe]
            edge_gain = 0
            edge_z = 0
            for z in range(1, room + 1):
                delta = table[xe + z] - base
                if delta == 0:
                    continue
                gain = sum(s if delta > s else delta for s in shorts)
                # keep the smallest z among equal ratios: strict improvement only
                if edge_z == 0 or gain * edge_z > edge_gain * z:
                    edge_gain = gain
                    edge_z = z
            if edge_z == 0:
                continue
            # a first candidate always wins: both products are 0 and its gain is >= 1
            lhs = edge_gain * best_amount
            rhs = best_gain * edge_z
            if lhs > rhs or (
                lhs == rhs
                and (edge_gain > best_gain or (edge_gain == best_gain and edge_z < best_amount))
            ):
                best_edge, best_amount, best_gain = e, edge_z, edge_gain
        return best_edge, best_amount, best_gain

    def apply(self, edge: int, amount: int) -> None:
        """Add ``amount`` units on ``edge``; ``gap`` drops by the unweighted
        shortfall this closes."""
        xe = self.x[edge]
        table = self.weights[edge].table
        delta = table[xe + amount] - table[xe]
        self.x[edge] = xe + amount
        threshold, lengths = self.threshold, self.lengths
        closed = 0
        for pi in self.support[edge]:
            ln = lengths[pi]
            if ln < threshold:
                closed += min(threshold - ln, delta)
            lengths[pi] = ln + delta
        self.gap -= closed

"""Budget vectors, path metrics, the shortest-path kernel and separation checks.

:func:`dijkstra` is the one shortest-path search; IG and AT harvest paths,
LR separates and SA builds its shortest-path trees with it. Queries stop
at a bound: only paths strictly shorter than T ever matter, and all edge
weights are >= 1, so a pop at distance >= T ends the search. Everything
but LR's fractional lengths is exact integer arithmetic.
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

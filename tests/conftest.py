import pytest

from qosd import Graph, QosdInstance, WeightFunction, build_weights

# The 4-node diamond used throughout: two disjoint 2-edge routes 0->1->3
# and 0->2->3, edge indices (0,1)=0, (1,3)=1, (0,2)=2, (2,3)=3.


def diamond_graph() -> Graph:
    return Graph(4, [(0, 1), (1, 3), (0, 2), (2, 3)])


def diamond_instance(threshold: int = 3, model: str = "linear") -> QosdInstance:
    graph = diamond_graph()
    weights = build_weights(graph, model, threshold)
    return QosdInstance(graph, weights, [(0, 3)], threshold)


@pytest.fixture
def graph_a() -> Graph:
    return diamond_graph()


@pytest.fixture
def inst_a() -> QosdInstance:
    return diamond_instance()


def single_edge_instance(table: tuple[int, ...], threshold: int, tag: str = "custom") -> QosdInstance:
    graph = Graph(2, [(0, 1)])
    weights = [WeightFunction(table, tag)]
    return QosdInstance(graph, weights, [(0, 1)], threshold)

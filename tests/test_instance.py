import io
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qosd import (
    Graph,
    InfeasibleBoxError,
    InvalidInstanceError,
    ParseError,
    QosdInstance,
    WeightFunction,
    build_weights,
    concave_ratio,
    generate_er,
    load_edge_list,
    load_instance,
    make_er_instance,
    sample_pairs,
    save_instance,
)

from conftest import diamond_graph


class TestLoadEdgeList:
    def test_plain_directed(self):
        g = load_edge_list(io.StringIO("0 1\n1 3\n0 2\n2 3"), directed=True)
        assert (g.n, g.m, g.max_out_degree) == (4, 4, 2)

    def test_duplicates_dropped(self):
        g = load_edge_list(io.StringIO("0 1\n0 1"), directed=True)
        assert g.m == 1

    def test_self_loops_dropped(self):
        g = load_edge_list(io.StringIO("0 0\n0 1"), directed=True)
        assert g.m == 1

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\n0 1\n# another\n1 2\n"
        g = load_edge_list(io.StringIO(text))
        assert (g.n, g.m) == (3, 2)

    def test_undirected_inserts_both_directions(self):
        g = load_edge_list(io.StringIO("0 1"), directed=False)
        assert sorted(g.edges) == [(0, 1), (1, 0)]

    def test_ids_compacted_by_rank(self):
        g = load_edge_list(io.StringIO("10 50\n50 7"))
        # sorted raw ids 7,10,50 -> 0,1,2
        assert sorted(g.edges) == [(1, 2), (2, 0)]

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 2"):
            load_edge_list(io.StringIO("0 1\n0 x"))

    def test_three_fields_rejected(self):
        with pytest.raises(ParseError):
            load_edge_list(io.StringIO("0 1 5"))

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidInstanceError):
            load_edge_list(io.StringIO("# nothing\n"))


class TestGenerateEr:
    def test_deterministic(self):
        a = generate_er(50, 0.2, seed=7)
        b = generate_er(50, 0.2, seed=7)
        assert a.edges == b.edges

    def test_rho_one_two_nodes(self):
        g = generate_er(2, 1.0, seed=0)
        assert sorted(g.edges) == [(0, 1), (1, 0)]

    def test_edge_count_binomial_concentration(self):
        # m ~ Binomial(240*239, 0.1); 3 sigma band
        n, rho = 240, 0.1
        trials = n * (n - 1)
        mean = trials * rho
        sigma = math.sqrt(trials * rho * (1 - rho))
        g = generate_er(n, rho, seed=1)
        assert abs(g.m - mean) <= 3 * sigma

    def test_bad_parameters(self):
        with pytest.raises(InvalidInstanceError):
            generate_er(1, 0.5, seed=0)
        with pytest.raises(InvalidInstanceError):
            generate_er(5, 0.0, seed=0)


class TestBuildWeights:
    def test_cutting_tables(self):
        g = diamond_graph()
        for wf in build_weights(g, "cutting", 5):
            assert wf.table == (1, 5)
            assert wf.cap == 1

    def test_linear_beta_one(self):
        g = diamond_graph()
        wf = build_weights(g, "linear", 4)[0]
        assert wf.table == (1, 2, 3, 4)
        assert wf.cap == 3
        assert wf.linear_coeffs == (1, 1)

    def test_heterogeneous_deterministic(self):
        g = generate_er(30, 0.2, seed=3)
        tags1 = [w.model_tag for w in build_weights(g, "heterogeneous", 5, seed=11)]
        tags2 = [w.model_tag for w in build_weights(g, "heterogeneous", 5, seed=11)]
        assert tags1 == tags2
        assert set(tags1) <= {"linear", "convex", "concave"}

    @pytest.mark.parametrize("model", ["linear", "convex", "concave", "cutting", "heterogeneous"])
    @pytest.mark.parametrize("threshold", [2, 3, 5, 8, 13])
    def test_endpoint_invariants(self, model, threshold):
        g = diamond_graph()
        for wf in build_weights(g, model, threshold, seed=2):
            assert wf.table[0] == 1
            assert max(wf.table) == threshold
            assert all(b >= a for a, b in zip(wf.table, wf.table[1:]))

    def test_small_cap_policy_adjusted_up_not_error(self):
        g = diamond_graph()
        wf = build_weights(g, "linear", 5, cap_policy=1)[0]
        assert max(wf.table) == 5

    def test_threshold_too_small(self):
        with pytest.raises(InvalidInstanceError):
            build_weights(diamond_graph(), "linear", 1)


class TestSamplePairs:
    def test_exhaustion(self):
        pairs = sample_pairs(diamond_graph(), 12, seed=0)
        assert len(set(pairs)) == 12
        assert all(s != t for s, t in pairs)

    def test_deterministic(self):
        g = generate_er(240, 0.1, seed=1)
        assert sample_pairs(g, 10, seed=5) == sample_pairs(g, 10, seed=5)

    def test_capacity_bound(self):
        with pytest.raises(InvalidInstanceError):
            sample_pairs(Graph(2, [(0, 1)]), 3, seed=0)


def _brute_force_gamma(tables) -> Fraction:
    best = Fraction(1)
    for table in tables:
        inc = [table[i + 1] - table[i] for i in range(len(table) - 1)]
        for y in range(len(inc)):
            for x in range(y + 1):
                if inc[y] > 0:
                    if inc[x] == 0:
                        return Fraction(0)
                    best = min(best, Fraction(inc[x], inc[y]))
    return best


class TestConcaveRatio:
    def test_linear_is_one(self):
        g = diamond_graph()
        assert concave_ratio(build_weights(g, "linear", 6)) == 1

    def test_convex_pair_scan(self):
        assert concave_ratio([WeightFunction((1, 2, 5))]) == Fraction(1, 3)

    def test_flat_then_positive_is_zero(self):
        assert concave_ratio([WeightFunction((1, 1, 3))]) == 0

    def test_trailing_flat_keeps_gamma(self):
        assert concave_ratio([WeightFunction((1, 3, 4, 5, 5))]) == 1

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=6),
            min_size=1,
            max_size=4,
        )
    )
    def test_matches_brute_force(self, increment_lists):
        tables = []
        for incs in increment_lists:
            table = [1]
            for inc in incs:
                table.append(table[-1] + inc)
            tables.append(tuple(table))
        wfs = [WeightFunction(t) for t in tables]
        assert concave_ratio(wfs) == _brute_force_gamma(tables)


class TestQosdInstance:
    def test_hop_bound(self):
        g = diamond_graph()
        inst = QosdInstance(g, build_weights(g, "linear", 7), [(0, 3)], 7)
        assert inst.min_initial_weight == 1
        assert inst.hop_bound == 7

    def test_identical_endpoints_rejected(self):
        g = diamond_graph()
        with pytest.raises(InvalidInstanceError):
            QosdInstance(g, build_weights(g, "linear", 3), [(1, 1)], 3)

    def test_infeasible_box_rejected(self):
        # single edge that can never reach the threshold
        g = Graph(2, [(0, 1)])
        weights = [WeightFunction((1, 2))]
        with pytest.raises(InfeasibleBoxError, match="infeasible-box"):
            QosdInstance(g, weights, [(0, 1)], 5)

    def test_disconnected_pair_is_fine(self):
        g = Graph(3, [(0, 1)])
        weights = [WeightFunction((1, 2, 3))]
        inst = QosdInstance(g, weights, [(0, 2)], 3)
        assert inst.k == 1


class TestRoundTrip:
    @pytest.mark.parametrize("model", ["linear", "convex", "cutting", "heterogeneous"])
    def test_save_load_identity(self, model):
        inst = make_er_instance(12, 0.3, 4, 3, model, seed=9)
        buffer = io.StringIO()
        save_instance(inst, buffer)
        buffer.seek(0)
        loaded = load_instance(buffer)
        assert loaded.graph.edges == inst.graph.edges
        assert [w.table for w in loaded.weights] == [w.table for w in inst.weights]
        assert [w.model_tag for w in loaded.weights] == [w.model_tag for w in inst.weights]
        assert loaded.pairs == inst.pairs
        assert loaded.threshold == inst.threshold

    def test_header_required(self):
        with pytest.raises(ParseError):
            load_instance(io.StringIO("nope\n"))

    @pytest.mark.parametrize("value", ["0", "2"])
    def test_only_directed_one_accepted(self, value):
        buffer = io.StringIO()
        save_instance(make_er_instance(12, 0.3, 4, 3, "linear", seed=9), buffer)
        text = buffer.getvalue().replace("directed 1\n", f"directed {value}\n")
        with pytest.raises(ParseError, match="line 2"):
            load_instance(io.StringIO(text))

"""Unit tests for sequencing graphs and operations."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.graph import ReferenceSequencingGraph
from oracles.schedule import critical_path_length

from repro.assay.catalog import build_assay
from repro.assay.graph import SequencingGraph
from repro.assay.operations import Operation, OperationType
from repro.modules.kinds import ModuleKind
from repro.util.errors import ScheduleError


def simple_chain() -> SequencingGraph:
    g = SequencingGraph("chain")
    for op_id in ("a", "b", "c"):
        g.add_operation(Operation(op_id, OperationType.MIX))
    g.add_dependency("a", "b")
    g.add_dependency("b", "c")
    return g


class TestOperation:
    def test_reconfigurable_classification(self):
        assert OperationType.MIX.is_reconfigurable
        assert OperationType.STORE.is_reconfigurable
        assert OperationType.DETECT.is_reconfigurable
        assert OperationType.DILUTE.is_reconfigurable
        assert not OperationType.DISPENSE.is_reconfigurable
        assert not OperationType.OUTPUT.is_reconfigurable

    def test_module_kind_mapping(self):
        assert OperationType.MIX.module_kind is ModuleKind.MIXER
        assert OperationType.DETECT.module_kind is ModuleKind.DETECTOR

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            Operation("", OperationType.MIX)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            Operation("x", OperationType.MIX, duration_s=0.0)


class TestGraphConstruction:
    def test_add_and_lookup(self):
        g = SequencingGraph()
        op = g.add_operation(Operation("m1", OperationType.MIX))
        assert g.operation("m1") is op
        assert "m1" in g
        assert len(g) == 1

    def test_duplicate_id_rejected(self):
        g = SequencingGraph()
        g.add_operation(Operation("m1", OperationType.MIX))
        with pytest.raises(ValueError):
            g.add_operation(Operation("m1", OperationType.MIX))

    def test_dependency_requires_existing_nodes(self):
        g = SequencingGraph()
        g.add_operation(Operation("a", OperationType.MIX))
        with pytest.raises(KeyError):
            g.add_dependency("a", "missing")

    def test_self_dependency_rejected(self):
        g = SequencingGraph()
        g.add_operation(Operation("a", OperationType.MIX))
        with pytest.raises(ValueError):
            g.add_dependency("a", "a")

    def test_cycle_rejected_and_rolled_back(self):
        g = simple_chain()
        with pytest.raises(ValueError):
            g.add_dependency("c", "a")
        # The offending edge must not linger.
        assert ("c", "a") not in g.edges()

    def test_mix_convenience(self):
        g = SequencingGraph()
        g.add_operation(Operation("a", OperationType.DISPENSE, duration_s=1))
        g.add_operation(Operation("b", OperationType.DISPENSE, duration_s=1))
        m = g.mix("m", ["a", "b"])
        assert m.type is OperationType.MIX
        assert g.predecessors("m") == ["a", "b"]

    def test_unknown_operation_lookup(self):
        with pytest.raises(KeyError):
            SequencingGraph().operation("ghost")

    def test_cycle_rejected_with_message_and_graph_unchanged(self):
        """A dependency that closes a cycle through a longer path is
        rejected before it is added: same message, same graph."""
        g = simple_chain()
        g.add_operation(Operation("d", OperationType.MIX))
        g.add_dependency("c", "d")
        before = (g.edges(), [op.id for op in g])
        with pytest.raises(ValueError, match=r"^dependency d -> a would create a cycle$"):
            g.add_dependency("d", "a")
        assert (g.edges(), [op.id for op in g]) == before
        g.validate()


#: Edge-set digests of the generated families, computed with the graph
#: build that re-checked the whole graph for cycles after every edge.
EDGE_DIGESTS = {
    "gen:mix-tree:n=64:seed=1": "7b5f0341c930db6d",
    "gen:diamond:n=64:seed=1": "f62948c2a5c6d676",
    "gen:dilution-ladder:n=64:seed=1": "44ed9000693930b0",
    "gen:panel:n=64:seed=1": "712c81a4651b0629",
    "gen:mixed:n=64:seed=1": "8880c42d69ae6772",
    "gen:mix-tree:n=250:seed=1": "51e04648da8b59c0",
    "gen:diamond:n=250:seed=1": "481113c2cc08fab1",
    "gen:dilution-ladder:n=250:seed=1": "7ad0979ad71cd24b",
    "gen:panel:n=250:seed=1": "edde6bf27f7ecc75",
    "gen:mixed:n=250:seed=1": "b32f907e1c6cb96d",
}


@pytest.mark.parametrize("spec", sorted(EDGE_DIGESTS))
def test_generated_edge_sets_pinned(spec):
    graph, _ = build_assay(spec)
    edges = sorted(graph.edges())
    assert hashlib.sha256(repr(edges).encode()).hexdigest()[:16] == EDGE_DIGESTS[spec]


class TestGraphStructure:
    def test_sources_and_sinks(self):
        g = simple_chain()
        assert [op.id for op in g if not g.predecessors(op.id)] == ["a"]
        assert g.sinks() == ["c"]

    def test_topological_order_respects_edges(self):
        g = simple_chain()
        order = g.topological_order()
        assert order.index("a") < order.index("b") < order.index("c")

    def test_levels(self):
        g = simple_chain()
        assert g.levels() == {"a": 0, "b": 1, "c": 2}

    def test_critical_path_length(self):
        g = simple_chain()
        assert critical_path_length(g, {"a": 2, "b": 3, "c": 4}) == 9

    def test_critical_path_nodes(self):
        g = simple_chain()
        assert g.critical_path({"a": 2, "b": 3, "c": 4}) == ["a", "b", "c"]

    def test_critical_path_picks_longest_branch(self):
        g = SequencingGraph()
        for op_id in ("a", "b", "c"):
            g.add_operation(Operation(op_id, OperationType.MIX))
        g.add_dependency("a", "c")
        g.add_dependency("b", "c")
        path = g.critical_path({"a": 10, "b": 2, "c": 1})
        assert path == ["a", "c"]

    def test_missing_duration_raises(self):
        g = simple_chain()
        with pytest.raises(ScheduleError):
            critical_path_length(g, {"a": 1, "b": 1})

    def test_reconfigurable_operations_filter(self):
        g = SequencingGraph()
        g.add_operation(Operation("d", OperationType.DISPENSE, duration_s=1))
        g.add_operation(Operation("m", OperationType.MIX))
        assert [op.id for op in g.reconfigurable_operations()] == ["m"]



class TestValidation:
    def test_three_input_mix_rejected(self):
        g = SequencingGraph()
        for op_id in ("a", "b", "c", "m"):
            g.add_operation(Operation(op_id, OperationType.MIX))
        for src in ("a", "b", "c"):
            g.add_dependency(src, "m")
        with pytest.raises(ScheduleError, match="binary"):
            g.validate()

    def test_dispense_with_producer_rejected(self):
        g = SequencingGraph()
        g.add_operation(Operation("m", OperationType.MIX))
        g.add_operation(Operation("d", OperationType.DISPENSE, duration_s=1))
        g.add_dependency("m", "d")
        with pytest.raises(ScheduleError, match="dispense"):
            g.validate()

    def test_valid_graph_passes(self):
        simple_chain().validate()


def _outcome(call, *args):
    """A call's value, or its exception's type and text."""
    try:
        return "ok", call(*args)
    except (KeyError, ValueError, ScheduleError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def graph_scripts(draw):
    """Operations added in shuffled id order (so the lexicographic
    tie-break differs from insertion order), then drawn dependencies:
    repeats, self-loops and cycle-closing edges included."""
    n = draw(st.integers(1, 12))
    ids = draw(st.permutations([f"o{i}" for i in range(n)]))
    types = draw(st.lists(
        st.sampled_from([OperationType.STORE, OperationType.MIX, OperationType.DISPENSE]),
        min_size=n, max_size=n,
    ))
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=3 * n))
    # Two durations only, so longest chains tie often.
    durations = draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=n, max_size=n))
    return ids, types, pairs, dict(zip(ids, durations))


class TestNetworkxParity:
    """The dict-backed graph answers every query as the networkx-backed
    one it replaced (``oracles.graph``)."""

    @settings(max_examples=300, deadline=None)
    @given(script=graph_scripts())
    def test_queries_match_reference(self, script):
        ids, types, pairs, durations = script
        g, ref = SequencingGraph("g"), ReferenceSequencingGraph("g")
        for op_id, op_type in zip(ids, types):
            g.add_operation(Operation(op_id, op_type))
            ref.add_operation(Operation(op_id, op_type))
        for u, v in pairs:
            repeat = v in ref.successors(u)
            before = (g.predecessors(v), str(g))
            assert _outcome(g.add_dependency, u, v) == _outcome(ref.add_dependency, u, v)
            if repeat:
                assert (g.predecessors(v), str(g)) == before
        assert str(g) == str(ref)
        assert g.edges() == ref.edges()
        assert g.sinks() == ref.sinks()
        for op_id in ids:
            assert g.predecessors(op_id) == ref.predecessors(op_id)
            assert g.successors(op_id) == ref.successors(op_id)
        assert g.topological_order() == ref.topological_order()
        assert g.levels() == ref.levels()
        assert _outcome(g.validate) == _outcome(ref.validate)
        assert _outcome(g.critical_path, durations) == _outcome(ref.critical_path, durations)

    def test_cycle_past_the_edge_check_fails_validation(self):
        """A cycle can only enter through the adjacency itself; the
        topological sort then comes out short and ``validate`` says so."""
        g, ref = simple_chain(), ReferenceSequencingGraph("chain")
        for op_id in ("a", "b", "c"):
            ref.add_operation(Operation(op_id, OperationType.MIX))
        ref.add_dependency("a", "b")
        ref.add_dependency("b", "c")
        g._succ["c"]["a"] = None
        g._pred["a"]["c"] = None
        ref._g.add_edge("c", "a")
        assert _outcome(g.validate) == _outcome(ref.validate)
        assert _outcome(g.validate) == ("ScheduleError", "sequencing graph 'chain' has a cycle")

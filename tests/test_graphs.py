"""Directed graph utilities: SCCs, induced subgraphs, boundaries."""
import random

import pytest

from termsieve.graphs import (
    DiGraph,
    boundary,
    induced,
    scc_decompose,
)

from helpers import (
    brute_is_nontrivial,
    brute_sccs,
    chain_policy,
    g_of,
    graph,
    is_acyclic,
    policy_graph,
    random_digraph,
)


def test_graph_rejects_dangling_arc():
    # the string-keyed referee checks its own arcs; the compiled graph
    # trusts its caller, an engine that ran `model.check` on the policy
    with pytest.raises(ValueError, match="arc e: endpoint outside vertex set"):
        graph({"a"}, [("d", "a", "a"), ("e", "a", "b")])


def test_policy_graph_mirrors_edges():
    g = policy_graph(chain_policy())
    assert g.vertices == frozenset({"q0", "q1"})
    assert g.arcs == (("e1", "q0", "q1"),)


class TestScc:
    def test_two_cycles_and_tail(self):
        g = g_of(("1", "a", "b"), ("2", "b", "a"), ("3", "b", "c"),
                 ("4", "c", "d"), ("5", "d", "c"), ("6", "d", "t"))
        part = scc_decompose(g)
        assert set(part.components) == {
            frozenset({"a", "b"}), frozenset({"c", "d"}), frozenset({"t"})
        }
        assert part.nontrivial() == (frozenset({"a", "b"}),
                                     frozenset({"c", "d"}))

    def test_self_loop_is_nontrivial(self):
        g = g_of(("1", "a", "a"), extra=("b",))
        part = scc_decompose(g)
        flags = dict(zip(part.components, part.trivial))
        assert flags[frozenset({"a"})] is False
        assert flags[frozenset({"b"})] is True

    def test_components_partition_vertices(self):
        rng = random.Random(11)
        for _ in range(100):
            g = random_digraph(rng)
            part = scc_decompose(g)
            seen = [v for comp in part.components for v in comp]
            assert sorted(seen) == sorted(g.vertices)

    def test_matches_brute_force(self):
        rng = random.Random(12)
        for _ in range(400):
            g = random_digraph(rng)
            part = scc_decompose(g)
            assert set(part.components) == brute_sccs(g)
            for comp, triv in zip(part.components, part.trivial):
                assert triv == (not brute_is_nontrivial(g, comp))

    def test_canonical_order(self):
        g = g_of(("1", "z", "z"), ("2", "a", "b"), ("3", "b", "a"))
        part = scc_decompose(g)
        keys = [tuple(sorted(c)) for c in part.components]
        assert keys == sorted(keys)


class TestInduced:
    def test_keeps_internal_arcs_only(self):
        g = g_of(("1", "a", "b"), ("2", "b", "c"), ("3", "c", "a"))
        h = induced(g, {"a", "b"})
        assert h.vertices == frozenset({"a", "b"})
        assert [a[0] for a in h.arcs] == ["1"]

    def test_rejects_foreign_vertices(self):
        g = g_of(("1", "a", "b"))
        with pytest.raises(ValueError):
            induced(g, {"a", "zz"})


class TestBoundary:
    def setup_method(self):
        # c -> a, b -> out, with a cycle a <-> b inside h = {a, b}
        self.g = g_of(("1", "a", "b"), ("2", "b", "a"), ("3", "c", "a"),
                      ("4", "b", "t"), ("5", "c", "t"))

    def test_entries_and_exits(self):
        entries, exits = boundary(self.g, {"a", "b"})
        assert entries == frozenset({"a"})
        assert exits == frozenset({"b"})

    def test_initial_injection(self):
        entries, _ = boundary(self.g, {"a", "b"}, q0="b")
        assert entries == frozenset({"a", "b"})
        # q0 outside the set adds nothing
        entries, _ = boundary(self.g, {"a", "b"}, q0="c")
        assert entries == frozenset({"a"})

    def test_closed_component_has_no_boundary(self):
        g = g_of(("1", "a", "b"), ("2", "b", "a"))
        entries, exits = boundary(g, {"a", "b"})
        assert entries == frozenset() and exits == frozenset()


class TestAcyclicity:
    def test_dag(self):
        assert is_acyclic(g_of(("1", "a", "b"), ("2", "b", "c")))

    def test_self_loop(self):
        assert not is_acyclic(g_of(("1", "a", "a")))

    def test_cycle(self):
        assert not is_acyclic(g_of(("1", "a", "b"), ("2", "b", "a")))

    def test_empty(self):
        assert is_acyclic(graph((), ()))

    def test_agrees_with_scc_view(self):
        rng = random.Random(13)
        for _ in range(300):
            g = random_digraph(rng)
            assert is_acyclic(g) == (scc_decompose(g).nontrivial() == ())

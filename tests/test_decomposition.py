"""Elimination forests and quotient graphs."""
import random

from termsieve.decomposition import (
    DefForest,
    DetNode,
    build_def,
    quotient,
)
from termsieve.graphs import (
    graph, induced, policy_graph, scc_decompose,
)

from helpers import (
    check_det, circulant_policy, is_acyclic, iter_nodes, random_digraph,
    recursion_room,
)


def g_of(*arcs, extra=()):
    vs = set(extra)
    for (_, s, d) in arcs:
        vs.add(s)
        vs.add(d)
    return graph(vs, arcs)


# Two touching 2-cycles: a <-> b and b <-> c form one SCC {a, b, c}.
CHAIN_OF_CYCLES = g_of(("ab", "a", "b"), ("ba", "b", "a"),
                       ("bc", "b", "c"), ("cb", "c", "b"))

# Three loops hanging off a hub q2: a 2-cycle through q3, a 4-cycle through
# q4..q7, and a 2-cycle through the pair q0, q1 that is itself an SCC.
HUB = g_of(
    ("a1", "q2", "q3"), ("a2", "q3", "q2"),
    ("a3", "q2", "q4"), ("a4", "q4", "q5"), ("a5", "q5", "q6"),
    ("a6", "q6", "q7"), ("a7", "q7", "q4"), ("a8", "q6", "q2"),
    ("a9", "q2", "q0"), ("a10", "q0", "q1"), ("a11", "q1", "q0"),
    ("a12", "q1", "q2"),
)


def find_seed(g, want_elim, tries=500):
    for seed in range(tries):
        forest = build_def(g, seed)
        if forest.trees and forest.trees[0].elim == want_elim:
            return seed, forest
    raise AssertionError(f"no seed under {tries} eliminates {want_elim} first")


def test_same_seed_same_forest():
    for seed in range(20):
        a = build_def(HUB, seed)
        b = build_def(HUB, seed)
        assert a == b


def test_seeds_vary_the_choice():
    k4 = g_of(*[(f"{u}{v}", u, v) for u in "abcd" for v in "abcd" if u != v])
    elims = {build_def(k4, s).trees[0].elim for s in range(16)}
    assert len(elims) >= 2


def test_acyclic_graph_gives_empty_forest():
    g = g_of(("1", "a", "b"), ("2", "b", "c"))
    assert build_def(g, 0).trees == ()


def test_one_tree_per_scc_in_canonical_order():
    g = g_of(("1", "c", "d"), ("2", "d", "c"), ("3", "a", "b"),
             ("4", "b", "a"), ("5", "b", "c"))
    forest = build_def(g, 3)
    assert [t.vertices for t in forest.trees] == [
        frozenset({"a", "b"}), frozenset({"c", "d"})
    ]
    assert check_det(forest, g) == []


class TestChainOfCycles:
    def test_middle_elimination_leaves_nothing(self):
        _, forest = find_seed(CHAIN_OF_CYCLES, "b")
        root = forest.trees[0]
        assert root.vertices == frozenset({"a", "b", "c"})
        assert root.children == ()

    def test_end_elimination_leaves_other_cycle(self):
        _, forest = find_seed(CHAIN_OF_CYCLES, "a")
        root = forest.trees[0]
        assert len(root.children) == 1
        child = root.children[0]
        assert child.vertices == frozenset({"b", "c"})
        assert child.children == ()

    def test_quotient_collapses_child(self):
        child = DetNode(frozenset({"b", "c"}), "b", ())
        root = DetNode(frozenset({"a", "b", "c"}), "a", (child,))
        q = quotient(CHAIN_OF_CYCLES, root)
        assert q.vertices == frozenset({"a", "b"})
        assert set(q.arcs) == {("ab", "a", "b"), ("ba", "b", "a")}

    def test_child_quotient_is_plain_subgraph(self):
        child = DetNode(frozenset({"b", "c"}), "b", ())
        q = quotient(CHAIN_OF_CYCLES, child)
        assert q.vertices == frozenset({"b", "c"})
        assert set(q.arcs) == {("bc", "b", "c"), ("cb", "c", "b")}


class TestHub:
    def test_hub_elimination_splits_two_components(self):
        seed, forest = find_seed(HUB, "q2")
        root = forest.trees[0]
        assert root.vertices == frozenset(f"q{i}" for i in range(8))
        assert {c.vertices for c in root.children} == {
            frozenset({"q0", "q1"}),
            frozenset({"q4", "q5", "q6", "q7"}),
        }
        assert check_det(forest, HUB) == []

    def test_hub_quotient(self):
        _, forest = find_seed(HUB, "q2")
        root = forest.trees[0]
        q = quotient(HUB, root)
        assert {c.elim for c in root.children} == {"q0", "q6"}
        assert q.vertices == frozenset({"q2", "q3", "q0", "q6"})
        assert set(q.arcs) == {
            ("a1", "q2", "q3"), ("a2", "q3", "q2"),
            ("a3", "q2", "q6"), ("a8", "q6", "q2"),
            ("a9", "q2", "q0"), ("a12", "q0", "q2"),
        }

    def test_quotient_minus_elim_acyclic(self):
        for seed in range(10):
            forest = build_def(HUB, seed)
            for node in iter_nodes(forest):
                qg = quotient(HUB, node)
                rest = induced(qg, qg.vertices - {node.elim})
                assert is_acyclic(rest)


class TestCheckDet:
    def test_valid_forests_pass(self):
        rng = random.Random(5)
        for _ in range(200):
            g = random_digraph(rng)
            forest = build_def(g, rng.randint(0, 10**6))
            assert check_det(forest, g) == []

    def test_elim_not_member(self):
        bad = DetNode(frozenset({"a", "b", "c"}), "zz", ())
        out = check_det(DefForest((bad,), 0), CHAIN_OF_CYCLES)
        assert any(v.startswith("elim-not-member") for v in out)

    def test_children_mismatch_and_cyclic_quotient(self):
        # claiming no children hides the inner SCC, so both checks fire
        bad = DetNode(frozenset({"a", "b", "c"}), "a", ())
        out = check_det(DefForest((bad,), 0), CHAIN_OF_CYCLES)
        assert any(v.startswith("children-mismatch") for v in out)
        assert any(v.startswith("quotient-not-acyclic") for v in out)

    def test_roots_mismatch(self):
        out = check_det(DefForest((), 0), CHAIN_OF_CYCLES)
        assert any(v.startswith("roots-mismatch") for v in out)

    def test_duplicate_node(self):
        dup = DetNode(frozenset({"b", "c"}), "b", ())
        root = DetNode(frozenset({"a", "b", "c"}), "a", (dup, dup))
        out = check_det(DefForest((root,), 0), CHAIN_OF_CYCLES)
        assert any(v.startswith("duplicate-node") for v in out)


def test_walk_is_preorder():
    leaf = DetNode(frozenset({"c", "b"}), "c", ())
    root = DetNode(frozenset({"a", "b", "c"}), "a", (leaf,))
    assert root.walk() == [root, leaf]


def test_forest_records_seed():
    assert build_def(CHAIN_OF_CYCLES, 42).seed == 42


def chain(bottom, levels=1500):
    node = DetNode(frozenset({bottom}), bottom, ())
    for i in range(levels):
        node = DetNode(frozenset({f"v{i}"}), f"v{i}", (node,))
    return node


def test_deep_chain_hashes_compares_and_walks():
    # 1,500 levels: past the default recursion limit
    a, b, c = chain("b"), chain("b"), chain("c")
    assert hash(a) == hash(b)
    assert a == b and a != c
    assert {a: 1}[b] == 1
    assert [n.elim for n in a.walk()] == [f"v{i}" for i in range(1499, -1, -1)] + ["b"]


def test_deep_forest_builds_and_checks():
    g = policy_graph(circulant_policy(300))
    with recursion_room(100):
        forest = build_def(g, 0)
        assert check_det(forest, g) == []
        assert forest == build_def(g, 0)
    depth, stack = 0, [(forest.trees[0], 1)]
    while stack:
        node, level = stack.pop()
        depth = max(depth, level)
        stack.extend((c, level + 1) for c in node.children)
    assert depth == 134

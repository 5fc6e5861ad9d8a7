"""Elimination forests and quotient graphs."""
import random

from termsieve.decomposition import (
    DefForest,
    DetNode,
    Splits,
    quotient,
)
from termsieve.graphs import SccGraph, induced

from helpers import (
    brute_forest_key, brute_forests, brute_is_nontrivial, brute_sccs,
    check_det, circulant_policy, draw_forest, graph, is_acyclic, iter_nodes,
    policy_graph, random_digraph, recursion_room,
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
        forest = draw_forest(g, seed)
        if forest.trees and forest.trees[0].elim == want_elim:
            return seed, forest
    raise AssertionError(f"no seed under {tries} eliminates {want_elim} first")


def test_same_seed_same_forest():
    for seed in range(20):
        a = draw_forest(HUB, seed)
        b = draw_forest(HUB, seed)
        assert a == b


def test_seeds_vary_the_choice():
    k4 = g_of(*[(f"{u}{v}", u, v) for u in "abcd" for v in "abcd" if u != v])
    elims = {draw_forest(k4, s).trees[0].elim for s in range(16)}
    assert len(elims) >= 2


def test_acyclic_graph_gives_empty_forest():
    g = g_of(("1", "a", "b"), ("2", "b", "c"))
    assert draw_forest(g, 0).trees == ()


def test_one_tree_per_scc_in_canonical_order():
    g = g_of(("1", "c", "d"), ("2", "d", "c"), ("3", "a", "b"),
             ("4", "b", "a"), ("5", "b", "c"))
    forest = draw_forest(g, 3)
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
            forest = draw_forest(HUB, seed)
            for node in iter_nodes(forest):
                qg = quotient(HUB, node)
                rest = induced(qg, qg.vertices - {node.elim})
                assert is_acyclic(rest)


class TestCheckDet:
    def test_valid_forests_pass(self):
        rng = random.Random(5)
        for _ in range(200):
            g = random_digraph(rng)
            forest = draw_forest(g, rng.randint(0, 10**6))
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
    assert draw_forest(CHAIN_OF_CYCLES, 42).seed == 42


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
        forest = draw_forest(g, 0)
        assert check_det(forest, g) == []
        assert forest == draw_forest(g, 0)
    depth, stack = 0, [(forest.trees[0], 1)]
    while stack:
        node, level = stack.pop()
        depth = max(depth, level)
        stack.extend((c, level + 1) for c in node.children)
    assert depth == 134


def looped_digraph(rng, max_vertices, max_arcs):
    """A random digraph given up to 3 extra parallel arcs and self-loops."""
    g = random_digraph(rng, max_vertices=max_vertices, max_arcs=max_arcs)
    names = sorted(g.vertices)
    arcs = list(g.arcs)
    for k in range(rng.randint(0, 3)):
        if arcs and rng.random() < 0.5:
            _, src, dst = rng.choice(arcs)
        else:
            src = dst = rng.choice(names)
        arcs.append((f"x{k}", src, dst))
    return graph(g.vertices, arcs)


def test_compiled_splits_match_brute_force():
    # every (vertex set, elim) a forest draws, and the whole graph, on
    # random digraphs that get extra parallel arcs and self-loops
    rng = random.Random(2017)
    loops = parallel = splits = 0
    for _ in range(300):
        g = looped_digraph(rng, max_vertices=8, max_arcs=16)
        names = sorted(g.vertices)
        ends = [(src, dst) for _, src, dst in g.arcs]
        loops += any(src == dst for src, dst in ends)
        parallel += len(set(ends)) < len(ends)
        sg = SccGraph(g.vertices, g.arcs)
        for seed in rng.sample(range(10**6), 3):
            cuts = {(frozenset(names), None)} | {
                (n.vertices, n.elim) for n in iter_nodes(draw_forest(g, seed))}
            for vs, elim in cuts:
                rest = vs - {elim}
                got = sg.sccs(sum(1 << names.index(v) for v in rest))
                comps = [frozenset(sg.vertices(c)) for c in got]
                sub = induced(g, rest)
                assert set(comps) == brute_sccs(sub)
                assert len(comps) == len(set(comps))
                assert comps == sorted(comps, key=min)
                assert [sg.cyclic(c) for c in got] == [
                    brute_is_nontrivial(sub, c) for c in comps]
                splits += 1
    assert loops >= 100 and parallel >= 100 and splits >= 2500


def test_wide_masks_match_brute_force():
    # masks past one 64-bit word: random digraphs of 65 to 140 vertices,
    # given parallel arcs and self-loops, on the whole graph and on random
    # vertex subsets; and the 300-qstate circulant, one SCC, with random
    # vertex sets taken out
    rng = random.Random(2029)
    cases = []
    for _ in range(30):
        vs = [f"v{i}" for i in range(rng.randint(65, 140))]
        arcs = [(f"a{k}", rng.choice(vs), rng.choice(vs))
                for k in range(rng.randint(len(vs) // 2, 2 * len(vs)))]
        arcs += [(f"p{k}", *rng.choice(arcs)[1:]) for k in range(5)]
        arcs += [(f"l{k}", v, v) for k, v in enumerate(rng.sample(vs, 5))]
        cases.append((graph(vs, arcs), 0.0))
        cases += [(cases[-1][0], rng.random()) for _ in range(3)]
    circulant = policy_graph(circulant_policy(300))
    cases += [(circulant, 0.0)]
    cases += [(circulant, rng.uniform(0.05, 0.4)) for _ in range(8)]
    wide = many = 0
    for g, drop in cases:
        sg = SccGraph(g.vertices, g.arcs)
        transpose = [0] * len(sg.names)
        for s, succ in enumerate(sg.succ):
            for d in range(len(sg.names)):
                transpose[d] |= (succ >> d & 1) << s
        assert sg.pred == transpose
        # in sorted order, so the draw does not follow the string hash seed
        rest = {v for v in sorted(g.vertices) if rng.random() >= drop}
        got = sg.sccs(sum(1 << sg.index[v] for v in rest))
        comps = [frozenset(sg.vertices(c)) for c in got]
        sub = induced(g, rest)
        assert set(comps) == brute_sccs(sub)
        assert len(comps) == len(set(comps))
        assert got == sorted(got, key=lambda c: c & -c)
        cyclic = [sg.cyclic(c) for c in got]
        assert cyclic == [brute_is_nontrivial(sub, c) for c in comps]
        wide += any(c >> 64 for c, t in zip(got, cyclic) if t)
        many += sum(cyclic) >= 2
    assert len(cases) == 129 and wide >= 90 and many >= 90


def test_forest_count_matches_brute_force():
    # every forest a draw gives is one that the brute force lists, and
    # where it lists at most 10, the draws reach every one of them: as
    # many distinct forests as it counts
    rng = random.Random(2019)
    counts = []
    for _ in range(300):
        g = looped_digraph(rng, max_vertices=7, max_arcs=24)
        splits = Splits(SccGraph(g.vertices, g.arcs))
        every = brute_forests(g)
        few = len(every) <= 10
        drawn = set()
        for seed in range(20_000 if few else 200):
            drawn.add(splits.draw(seed))
            if len(drawn) == len(every):
                break
        got = {brute_forest_key(trees) for trees in drawn}
        assert got <= every
        if few:
            assert got == every
        counts.append(len(every))
    assert sum(1 < n <= 10 for n in counts) >= 100
    assert sum(n > 10 for n in counts) >= 50 and max(counts) >= 500

"""Path enumeration and the variable-set recursions."""
import hashlib
import random
import time
import tracemalloc
from collections import Counter

import pytest

from termsieve import paths
from termsieve.analysis import AnalysisConfig, _Shared, hsieve
from termsieve.decomposition import DetNode, build_def, quotient
from termsieve.generate import GenSpec, generate_random
from termsieve.graphs import boundary, induced
from termsieve.paths import (
    EffectCode,
    InvalidNodeError,
    PathCapExceeded,
    boxminus,
    var_sets,
)
from termsieve.policyio import load_policy

from helpers import (
    FIXTURES,
    accumulate,
    brute_cycle_paths,
    brute_nonnegative_cycle,
    brute_through_paths,
    brute_var_sets,
    chord_ring_policy,
    circulant_policy,
    draw_forest,
    g_of,
    graph,
    is_acyclic,
    iter_nodes,
    key_net,
    listed_paths,
    nets_var_sets,
    path_ctx,
    path_keys,
    plain_dfs_paths,
    policy_graph,
    random_digraph,
    ring_policy,
)


def ctx_for(fmp, path_cap=100_000):
    return path_ctx(policy_graph(fmp), {e.id: e.effect for e in fmp.edges},
                    fmp.initial, path_cap)


def cycles(g, node, q0=None):
    return {seq for kind, seq in listed_paths(g, node, q0) if kind == "cycle"}


def throughs(g, node, q0=None):
    return {seq for kind, seq in listed_paths(g, node, q0) if kind == "through"}


def fz(*sets):
    return frozenset(frozenset(s) for s in sets)


class TestBoxminus:
    def test_elementwise_difference(self):
        fam = fz({"x2", "x3"}, {"x0"})
        assert boxminus(fam, {"x0"}) == fz({"x2", "x3"}, ())

    def test_preserves_empty_set(self):
        fam = fz((), {"x"})
        assert boxminus(fam, {"y"}) == fam

    def test_never_removes_empty_set(self):
        fam = fz((), {"x"})
        assert frozenset() in boxminus(fam, {"x"})

    def test_collapses_duplicates(self):
        fam = fz({"x", "y"}, {"x"})
        assert boxminus(fam, {"y"}) == fz({"x"})

    def test_empty_family(self):
        assert boxminus(frozenset(), {"x"}) == frozenset()

    def test_idempotent(self):
        rng = random.Random(17)
        vars_ = [f"x{i}" for i in range(5)]
        for _ in range(200):
            fam = fz(*[rng.sample(vars_, rng.randint(0, 4))
                       for _ in range(rng.randint(0, 5))])
            iv = frozenset(rng.sample(vars_, rng.randint(0, 3)))
            once = boxminus(fam, iv)
            assert boxminus(once, iv) == once


class TestPathContext:
    def test_out_arcs_sorted_and_complete(self):
        g = g_of(("b", "v", "w"), ("a", "v", "u"), ("c", "v", "u"))
        pg = path_ctx(g, {"a": {"x": 1}, "b": {}, "c": {"x": -1}}, None)
        u, v, w = (pg.index[x] for x in "uvw")
        assert [(pg.out[v][k][0], pg.out[v][k][4]) for k in range(3)] == [
            (u, "a"), (u, "c"), (w, "b")]
        assert pg.out[w] == ()
        assert pg.succ[v] == 1 << u | 1 << w
        assert pg.pred[u] == 1 << v

    def test_an_arc_s_successor_mask_leaves_out_its_head(self):
        # a step onto an arc's head may go on only to the head's other
        # successors, so its self-loop counts for nothing there; the same
        # holds for quotient arcs
        rng = random.Random(3607)
        for _ in range(100):
            g = random_digraph(rng, max_vertices=6, max_arcs=10)
            g = graph(g.vertices, g.arcs + tuple(
                (f"l{v}", v, v) for v in sorted(g.vertices)))
            pg = path_ctx(g, {aid: {} for aid, _, _ in g.arcs}, None)
            for d, dbit, _, dsucc, _ in (a for out in pg.out for a in out):
                assert pg.succ[d] & dbit and dsucc == pg.succ[d] ^ dbit
            for node in iter_nodes(draw_forest(g, rng.randint(0, 10**6))):
                quotient = pg.quotient(node, pg.mask(node.vertices))
                for d, dbit, _, dsucc, _ in (a for out in quotient.values()
                                             for a in out):
                    assert dbit == 1 << d and not dsucc & dbit


class TestCyclePaths:
    def test_two_self_loops(self):
        f = load_policy(FIXTURES / "f2.fmp.json")
        g = policy_graph(f)
        node = DetNode(frozenset({"q0"}), "q0", ())
        listed = listed_paths(g, node, f.initial)
        assert [kind for kind, _ in listed] == ["cycle", "cycle"]
        assert {seq for _, seq in listed} == {("e1",), ("e2",)}
        code, keys = path_keys(g, {e.id: e.effect for e in f.edges},
                               f.initial, node, listed)
        nets = {seq: key_net(code, key) for (_, seq), key in zip(listed, keys)}
        assert nets[("e1",)] == {"x": -1}
        assert nets[("e2",)] == {"x": 2, "y": -1}

    def test_parallel_returns_are_distinct(self):
        g = g_of(("1", "v", "a"), ("2", "a", "v"), ("3", "a", "v"))
        node = DetNode(frozenset({"v", "a"}), "v", ())
        assert cycles(g, node) == {("1", "2"), ("1", "3")}

    def test_rotation_depends_on_elim(self):
        g = g_of(("ab", "a", "b"), ("ba", "b", "a"))
        at_a = cycles(g, DetNode(frozenset({"a", "b"}), "a", ()))
        at_b = cycles(g, DetNode(frozenset({"a", "b"}), "b", ()))
        assert at_a == {("ab", "ba")}
        assert at_b == {("ba", "ab")}

    def test_component_vertices_collapse_inner_cycle(self):
        # child SCC {b, c} becomes one vertex; its internal arcs vanish
        g = g_of(("ab", "a", "b"), ("ba", "b", "a"),
                 ("bc", "b", "c"), ("cb", "c", "b"))
        child = DetNode(frozenset({"b", "c"}), "b", ())
        root = DetNode(frozenset({"a", "b", "c"}), "a", (child,))
        assert cycles(g, root) == {("ab", "ba")}


class TestThroughPaths:
    def test_entry_to_exit(self):
        # x feeds v, w leaks out; inside just the 2-cycle v <-> w
        g = g_of(("in", "x", "v"), ("vw", "v", "w"), ("wv", "w", "v"),
                 ("out", "w", "t"))
        node = DetNode(frozenset({"v", "w"}), "v", ())
        assert throughs(g, node) == {("vw",)}

    def test_zero_length_excluded(self):
        # entry and exit are the same vertex: no nonempty simple path back
        g = g_of(("in", "x", "v"), ("vw", "v", "w"), ("wv", "w", "v"),
                 ("out", "v", "t"))
        node = DetNode(frozenset({"v", "w"}), "v", ())
        assert throughs(g, node) == set()

    def test_initial_qstate_counts_as_entry(self):
        g = g_of(("1", "q0", "w"), ("2", "w", "q0"), ("3", "w", "t"))
        node = DetNode(frozenset({"q0", "w"}), "q0", ())
        assert throughs(g, node, "q0") == {("1",)}
        assert throughs(g, node, None) == set()

    def test_prefix_exits_also_emitted(self):
        # both w and u are exits; the path through w keeps extending to u
        g = g_of(("in", "x", "v"), ("a", "v", "w"), ("b", "w", "u"),
                 ("c", "u", "v"), ("o1", "w", "t"), ("o2", "u", "t"))
        node = DetNode(frozenset({"v", "w", "u"}), "v", ())
        assert throughs(g, node) == {("a",), ("a", "b")}


class TestHubNode:
    HUB = g_of(
        ("a1", "q2", "q3"), ("a2", "q3", "q2"),
        ("a3", "q2", "q4"), ("a4", "q4", "q5"), ("a5", "q5", "q6"),
        ("a6", "q6", "q7"), ("a7", "q7", "q4"), ("a8", "q6", "q2"),
        ("a9", "q2", "q0"), ("a10", "q0", "q1"), ("a11", "q1", "q0"),
        ("a12", "q1", "q2"),
    )

    def root(self):
        c1 = DetNode(frozenset({"q0", "q1"}), "q0", ())
        c2 = DetNode(frozenset({"q4", "q5", "q6", "q7"}), "q4", ())
        return DetNode(frozenset(f"q{i}" for i in range(8)), "q2", (c1, c2))

    def test_root_has_three_cycle_paths(self):
        ps = listed_paths(self.HUB, self.root(), "q0")
        assert {seq for kind, seq in ps if kind == "cycle"} == {
            ("a1", "a2"), ("a3", "a8"), ("a9", "a12")
        }
        assert [p for p in ps if p[0] == "through"] == []
        q = quotient(self.HUB, self.root())
        assert q.vertices == frozenset({"q2", "q3", "q0", "q4"})

    def test_loop_child(self):
        c2 = DetNode(frozenset({"q4", "q5", "q6", "q7"}), "q4", ())
        assert cycles(self.HUB, c2, "q0") == {("a4", "a5", "a6", "a7")}
        assert throughs(self.HUB, c2, "q0") == {("a4", "a5")}

    def test_pair_child_entry_is_initial_and_boundary(self):
        c1 = DetNode(frozenset({"q0", "q1"}), "q0", ())
        assert cycles(self.HUB, c1, "q0") == {("a10", "a11")}
        assert throughs(self.HUB, c1, "q0") == {("a10",)}


class TestVarSetRecursions:
    def test_two_self_loops_policy(self):
        f = load_policy(FIXTURES / "f2.fmp.json")
        ctx = ctx_for(f)
        tree = draw_forest(policy_graph(f), 0).trees[0]
        sets = var_sets(tree, ctx)
        assert sets.iv == frozenset({"x"})
        assert sets.zv == frozenset()
        assert sets.pdv == fz({"x"}, {"y"})
        assert sets.dv == fz((), {"y"})

    def test_pump_and_drain_policy(self):
        # the 2-cycle nets zero on x, so x lands in zv and the empty
        # decrease set never leaves the family
        f = load_policy(FIXTURES / "f3.fmp.json")
        ctx = ctx_for(f)
        for seed in range(6):
            tree = draw_forest(policy_graph(f), seed).trees[0]
            sets = var_sets(tree, ctx)
            assert sets.iv == frozenset()
            assert sets.zv == frozenset({"x"})
            assert sets.dv == fz((), {"x"})

    def test_pump_and_drain_deep_shape(self):
        # eliminating q1 first leaves the self-loop SCC {q0} as a child
        f = load_policy(FIXTURES / "f3.fmp.json")
        ctx = ctx_for(f)
        g = policy_graph(f)
        child = DetNode(frozenset({"q0"}), "q0", ())
        root = DetNode(frozenset({"q0", "q1"}), "q1", (child,))
        assert cycles(g, root, f.initial) == {("e3", "e2")}
        assert throughs(g, child, f.initial) == set()
        assert cycles(g, child, f.initial) == {("e1",)}
        sets = var_sets(root, ctx)
        assert (sets.iv, sets.zv) == (frozenset(), frozenset({"x"}))
        assert sets.dv == fz((), {"x"})

    def test_staged_policy(self):
        f = load_policy(FIXTURES / "f8prime.fmp.json")
        ctx = ctx_for(f)
        for seed in range(6):
            tree = draw_forest(policy_graph(f), seed).trees[0]
            sets = var_sets(tree, ctx)
            assert sets.iv == frozenset({"x0", "x1"})
            assert sets.zv == frozenset()
            assert sets.dv == fz((), {"x2", "x3"})


class TestCapsAndErrors:
    def test_cap_raises(self):
        f = load_policy(FIXTURES / "f2.fmp.json")
        ctx = ctx_for(f, path_cap=1)
        node = DetNode(frozenset({"q0"}), "q0", ())
        with pytest.raises(PathCapExceeded) as ei:
            ctx.paths(node)
        assert ei.value.node == node
        assert ei.value.cap == 1

    def test_cap_of_two_suffices_here(self):
        f = load_policy(FIXTURES / "f2.fmp.json")
        ctx = ctx_for(f, path_cap=2)
        node = DetNode(frozenset({"q0"}), "q0", ())
        assert len(ctx.paths(node)) == 2

    def test_cap_counts_paths_not_keys(self):
        # n parallel arcs close n cycle paths that all share one key
        n = 5
        arcs = [(f"p{i}", "v", "a") for i in range(n)] + [("back", "a", "v")]
        effects = {aid: {"x": -1} if aid == "back" else {} for aid, _, _ in arcs}
        g = g_of(*arcs)
        node = DetNode(frozenset({"v", "a"}), "v", ())
        at_cap = var_sets(node, path_ctx(g, effects, None, path_cap=n))
        assert at_cap.pdv == fz({"x"})
        with pytest.raises(PathCapExceeded):
            var_sets(node, path_ctx(g, effects, None, path_cap=n - 1))

    def test_cap_spent_exactly_by_the_first_entry(self):
        # entries a and b, exit c, no cycle through the elim: the walk from
        # a spends a cap of 1 on its one path, and b still has its own
        arcs = [("ta", "t", "a"), ("tb", "t", "b"), ("ac", "a", "c"),
                ("bc", "b", "c"), ("ct", "c", "t")]
        g = g_of(*arcs)
        effects = {aid: {"x": -1} for aid, _, _ in arcs}
        node = DetNode(frozenset({"a", "b", "c"}), "c", ())
        assert listed_paths(g, node, None) == [("through", ("ac",)),
                                               ("through", ("bc",))]
        assert len(path_ctx(g, effects, None, path_cap=2).paths(node)) == 2
        with pytest.raises(PathCapExceeded):
            path_ctx(g, effects, None, path_cap=1).paths(node)

    def test_empty_node_rejected(self):
        f = load_policy(FIXTURES / "f2.fmp.json")
        with pytest.raises(InvalidNodeError):
            ctx_for(f).paths(DetNode(frozenset(), "q0", ()))

    def test_foreign_elim_rejected(self):
        f = load_policy(FIXTURES / "f2.fmp.json")
        with pytest.raises(InvalidNodeError):
            ctx_for(f).paths(DetNode(frozenset({"q0"}), "zz", ()))
        # the elim is in its vertex set, but the set is not in the graph
        with pytest.raises(InvalidNodeError) as ei:
            ctx_for(f).paths(DetNode(frozenset({"ghost"}), "ghost", ()))
        assert str(ei.value) == "invalid-node: ghost outside the graph"


def chorded_ring_with_exits(rng, n):
    """Ring r0..r(n-1) with chords r_i -> r_(i+2), plus an outside vertex t
    that feeds some ring vertices and drains others. Walks that pass the
    last exit before closing on their start are dead ends."""
    rs = [f"r{i}" for i in range(n)]
    arcs = [(f"a{i}_{k}", rs[i], rs[(i + k) % n])
            for i in range(n) for k in (1, 2)]
    for j, v in enumerate(rng.sample(rs, rng.randint(1, 2))):
        arcs.append((f"in{j}", "t", v))
    for j, v in enumerate(rng.sample(rs, rng.randint(1, 2))):
        arcs.append((f"out{j}", v, "t"))
    return g_of(*arcs)


def pocket_graph(rng):
    """A random graph on v0..v4 fed and drained through t, plus a pocket
    p0..p2 that the v's enter but that leads back only to the entries, so a
    walk that enters it once the entries are on the path is a dead end."""
    g = random_digraph(rng, max_vertices=5, max_arcs=9)
    vs = sorted(g.vertices)
    arcs = list(g.arcs)
    entries = rng.sample(vs, rng.randint(1, min(2, len(vs))))
    arcs += [(f"in{j}", "t", v) for j, v in enumerate(entries)]
    arcs += [(f"out{j}", v, "t")
             for j, v in enumerate(rng.sample(vs, rng.randint(1, len(vs))))]
    ps = [f"p{i}" for i in range(rng.randint(1, 3))]
    for k in range(rng.randint(2, 8)):
        src = rng.choice(vs + ps)
        arcs.append((f"k{k}", src, rng.choice(ps if src in vs else ps + entries)))
    return g_of(*arcs, extra=ps)


def check_against_referees(g, effects, q0, node, ctx):
    got = listed_paths(g, node, q0)
    assert got == plain_dfs_paths(g, node, q0)
    q = quotient(g, node)
    assert {seq for kind, seq in got if kind == "cycle"} == brute_cycle_paths(
        q, node.elim)
    entries, exits = boundary(g, node.vertices, q0)
    sub = induced(g, node.vertices)
    assert {seq for kind, seq in got if kind == "through"} == \
        brute_through_paths(sub, entries, exits)
    path_keys(g, effects, q0, node, got)
    assert var_sets(node, ctx) == brute_var_sets(g, effects, q0, node)
    return len(got)


class TestAgainstBruteForce:
    def test_chorded_rings_with_exits(self):
        rng = random.Random(8080)
        checked = 0
        for n in range(4, 10):
            for _ in range(6):
                g = chorded_ring_with_exits(rng, n)
                effects = {a[0]: {"x": rng.randint(-2, 2), "y": rng.randint(-1, 1)}
                           for a in g.arcs}
                q0 = rng.choice(["r0", None])
                ctx = path_ctx(g, effects, q0)
                ring = frozenset(g.vertices - {"t"})
                gapped = ring - {f"r{rng.randrange(n)}"}
                loose = [DetNode(ring, rng.choice(sorted(ring)), ()),
                         DetNode(gapped, rng.choice(sorted(gapped)), ())]
                forest = draw_forest(g, rng.randint(0, 10**6))
                for node in [*iter_nodes(forest), *loose]:
                    check_against_referees(g, effects, q0, node, ctx)
                    checked += 1
        assert checked >= 150

    def test_pockets_that_reach_no_exit(self):
        rng = random.Random(4242)
        checked = 0
        for _ in range(200):
            g = pocket_graph(rng)
            effects = {a[0]: {"x": rng.randint(-2, 2)} for a in g.arcs}
            q0 = rng.choice(sorted(g.vertices - {"t"}))
            ctx = path_ctx(g, effects, q0)
            inside = frozenset(g.vertices - {"t"})
            loose = DetNode(inside, rng.choice(sorted(inside)), ())
            for node in [*iter_nodes(draw_forest(g, rng.randint(0, 10**6))),
                         loose]:
                check_against_referees(g, effects, q0, node, ctx)
                checked += 1
        assert checked >= 300

    def test_cap_boundary_with_dead_ends(self):
        # entry r0, single exit r2: every walk past r2 dies before r0
        n = 9
        rs = [f"r{i}" for i in range(n)]
        arcs = [(f"a{i}_{k}", rs[i], rs[(i + k) % n])
                for i in range(n) for k in (1, 2)]
        arcs += [("in", "t", "r0"), ("out", "r2", "t")]
        g = g_of(*arcs)
        effects = {a[0]: {"x": -1} for a in arcs}
        node = DetNode(frozenset(rs), "r4", ())
        count = check_against_referees(
            g, effects, None, node, path_ctx(g, effects, None))
        assert throughs(g, node) == {("a0_1", "a1_1"), ("a0_2",)}
        assert len(path_ctx(g, effects, None, path_cap=count).paths(node)) \
            == count
        assert var_sets(node, path_ctx(g, effects, None, path_cap=count)) \
            == brute_var_sets(g, effects, None, node)
        with pytest.raises(PathCapExceeded):
            path_ctx(g, effects, None, path_cap=count - 1).paths(node)
        with pytest.raises(PathCapExceeded):
            var_sets(node, path_ctx(g, effects, None, path_cap=count - 1))

    def test_random_graphs(self):
        rng = random.Random(240110)
        # childless nodes on arbitrary vertex subsets, which need not be
        # strongly connected, drawn from their own stream
        pick = random.Random(7)
        checked = 0
        for _ in range(300):
            g = random_digraph(rng, max_vertices=5, max_arcs=9)
            effects = {a[0]: {"x": rng.randint(-2, 2)} for a in g.arcs}
            q0 = rng.choice(sorted(g.vertices)) if rng.random() < 0.7 else None
            ctx = path_ctx(g, effects, q0)
            forest = draw_forest(g, rng.randint(0, 10**6))
            vs = sorted(g.vertices)
            part = sorted(pick.sample(vs, pick.randint(1, len(vs))))
            loose = DetNode(frozenset(part), pick.choice(part), ())
            for node in [*iter_nodes(forest), loose]:
                got = listed_paths(g, node, q0)
                q = quotient(g, node)
                want_c = brute_cycle_paths(q, node.elim)
                assert {seq for kind, seq in got if kind == "cycle"} == want_c
                entries, exits = boundary(g, node.vertices, q0)
                sub = induced(g, node.vertices)
                want_t = brute_through_paths(sub, entries, exits)
                assert {seq for kind, seq in got if kind == "through"} == want_t
                assert var_sets(node, ctx) == brute_var_sets(g, effects, q0, node)
                checked += 1
        assert checked >= 500

    def test_nets_match_plain_sum(self):
        rng = random.Random(9)
        for _ in range(100):
            g = random_digraph(rng, max_vertices=5, max_arcs=8)
            effects = {
                a[0]: {f"x{i}": rng.randint(-2, 2) for i in range(2)}
                for a in g.arcs
            }
            for node in iter_nodes(draw_forest(g, 1)):
                listed = listed_paths(g, node, None)
                code, keys = path_keys(g, effects, None, node, listed)
                for (_, seq), key in zip(listed, keys):
                    want = Counter()
                    for eid in seq:
                        for var, d in effects[eid].items():
                            if d:
                                want[var] += d
                    assert key_net(code, key) == dict(want)

    def test_wide_deltas_do_not_carry(self):
        # path sums up to |V| * 10**6 on up to 6 counters, with cancelling
        # moves, must stay inside their own digits of the path key
        rng = random.Random(606)
        top = 10**6
        for _ in range(150):
            g = random_digraph(rng, max_vertices=6, max_arcs=10)
            names = [f"x{i}" for i in range(rng.randint(1, 6))]
            effects = {
                a[0]: {v: rng.choice((-top, top, rng.randint(-top, top)))
                       for v in rng.sample(names, rng.randint(0, len(names)))}
                for a in g.arcs
            }
            q0 = rng.choice(sorted(g.vertices))
            for node in iter_nodes(draw_forest(g, rng.randint(0, 10**6))):
                listed = listed_paths(g, node, q0)
                code, keys = path_keys(g, effects, q0, node, listed)
                for (_, seq), key in zip(listed, keys):
                    want: dict[str, int] = {}
                    for eid in seq:
                        accumulate(want, effects[eid])
                    assert key_net(code, key) == want
                    # the sign decode var_sets reads agrees with the exact
                    # one, cancelled moves landing in the zero set
                    inc, zero, (dec,) = code.sign_sets([key])
                    for sign, got in zip((1, 0, -1), (inc, zero, dec)):
                        assert got == {v for v, d in want.items()
                                       if (d > 0) - (d < 0) == sign}
                    assert not (inc & zero or inc & dec or zero & dec)
                    assert inc | zero | dec <= set(code.variables)


class SliceLog(list):
    """A key list that logs each slice read from it as (start, stop)."""

    def __init__(self, keys):
        super().__init__(keys)
        self.read = []

    def __getitem__(self, i):
        if isinstance(i, slice):
            self.read.append((i.start, i.stop))
        return super().__getitem__(i)


def referee_signs(code, keys):
    """`sign_sets` of `keys`, aggregated from the exact per-key decode."""
    sets = nets_var_sets(key_net(code, key) for key in keys)
    return sets.iv, sets.zv, sets.pdv


class TestSignSets:
    CODE = EffectCode({"up": {"x": 1}, "down": {"x": -1}, "y": {"y": -2},
                       "both": {"x": 2, "y": 2}}, 4)

    def keys(self, *paths):
        w = self.CODE.weight
        return [sum(w[e] for e in path) for path in paths]

    def test_empty_key_set(self):
        assert self.CODE.sign_sets([]) == (frozenset(), frozenset(),
                                           frozenset())
        assert referee_signs(self.CODE, []) == self.CODE.sign_sets([])

    def test_no_moved_variable(self):
        code = EffectCode({"a": {}, "b": {"x": 0}}, 3)
        assert code.variables == () and set(code.weight.values()) == {0}
        assert code.sign_sets([0]) == (frozenset(), frozenset(), fz(()))
        g = g_of(("a", "q0", "q0"), ("b", "q0", "q1"), ("c", "q1", "q0"))
        ctx = path_ctx(g, {"a": {}, "b": {"x": 0}, "c": {}}, "q0")
        sets = var_sets(draw_forest(g, 0).trees[0], ctx)
        assert (sets.iv, sets.zv, sets.pdv, sets.dv) == (
            frozenset(), frozenset(), fz(()), fz(()))

    def test_cancelling_moves_land_in_zv(self):
        keys = self.keys(("up", "down"), ("y",))
        assert self.CODE.sign_sets(keys) == (
            frozenset(), frozenset({"x"}), fz((), {"y"}))
        keys = self.keys(("up", "down", "both", "y"), ("down",))
        assert self.CODE.sign_sets(keys) == (
            frozenset({"x"}), frozenset({"y"}), fz((), {"x"}))
        for keys in (self.keys(("up", "down")),
                     self.keys(("up", "down"), ("up",), ("y", "both"))):
            assert self.CODE.sign_sets(keys) == referee_signs(self.CODE, keys)

    def test_wide_deltas_on_many_counters(self):
        rng = random.Random(1606)
        top = 10**6
        for _ in range(300):
            names = [f"x{i}" for i in range(rng.randint(1, 6))]
            effects = {
                f"e{j}": {v: rng.choice((-top, top, rng.randint(-top, top)))
                          for v in rng.sample(names, rng.randint(0, len(names)))}
                for j in range(rng.randint(1, 8))
            }
            max_len = rng.randint(1, 6)
            code = EffectCode(effects, max_len)
            keys = [sum(code.weight[e] for e in rng.sample(
                        sorted(effects), rng.randint(0, min(max_len, len(effects)))))
                    for _ in range(rng.randint(0, 12))]
            assert code.sign_sets(keys) == referee_signs(code, keys)

    def test_lone_key_anywhere_in_the_scan(self):
        # x is positive, and y moved with net zero, on one key only; the
        # scans that stop early must still reach it wherever it sits
        code = EffectCode({"dn": {"x": -1, "y": -1}, "up": {"x": 1, "y": 1},
                           "x+": {"x": 1}, "y-": {"y": -1}}, 8)
        w = code.weight
        lone = w["dn"] + w["up"] + w["x+"]  # x +1, y 0
        rest = [w["dn"] * n + w["y-"] for n in range(1, 6)]  # x < 0, y < 0
        for at in (0, len(rest) // 2, len(rest)):
            keys = rest[:at] + [lone] + rest[at:]
            assert code.sign_sets(keys) == referee_signs(code, keys) == (
                frozenset({"x"}), frozenset({"y"}), fz((), {"x", "y"}))
        assert code.sign_sets(rest) == (
            frozenset(), frozenset(), fz({"x", "y"}))

    # counters x and y with moves of either sign; `FOUR` holds one key of
    # each sign pattern, none of them putting a counter in iv or zv
    SLICED = EffectCode({"o": {}, "x-": {"x": -1}, "y-": {"y": -1},
                         "x+": {"x": 1}, "y+": {"y": 1}}, 8)
    W = SLICED.weight
    FOUR = [0, W["x-"], W["y-"], W["x-"] + W["y-"]]
    EVERY = fz((), {"x"}, {"y"}, {"x", "y"})

    def test_every_pattern_in_the_first_slice(self):
        # the sign pass stops after the first slice, while the iv and zv
        # scans still reach the one later key that puts each counter in
        S, w = paths.SIGN_SLICE, self.W
        up = 2 * w["x+"] + w["y-"]  # x +2, y -1
        flat = w["y-"] + w["y+"] + w["x-"]  # y moved to 0, x -1
        keys = SliceLog(self.FOUR * (S // 4) + [w["x-"]] * S + [up]
                        + [w["y-"]] * S + [flat] + [0] * 5)
        got = self.SLICED.sign_sets(keys)
        assert keys.read == [(0, S)]
        assert got == referee_signs(self.SLICED, keys) == (
            frozenset({"x"}), frozenset({"y"}), self.EVERY)

    def test_last_pattern_in_the_last_slice(self):
        S = paths.SIGN_SLICE
        three = self.FOUR[:3] * S
        keys = SliceLog(three + [self.FOUR[3]])
        got = self.SLICED.sign_sets(keys)
        assert keys.read == [(at, at + S) for at in range(0, 3 * S + 1, S)]
        assert got == referee_signs(self.SLICED, keys) == (
            frozenset(), frozenset(), self.EVERY)
        # one pattern short, every slice is read and the pattern is missing
        keys = SliceLog(three)
        got = self.SLICED.sign_sets(keys)
        assert keys.read == [(at, at + S) for at in range(0, 3 * S, S)]
        assert got == (frozenset(), frozenset(), fz((), {"x"}, {"y"}))

    def test_no_moved_variable_over_many_slices(self):
        # with no counter the one pattern, the empty set, fills the first
        # slice
        S = paths.SIGN_SLICE
        code = EffectCode({"a": {}, "b": {"x": 0}}, 3)
        keys = SliceLog([0] * (3 * S + 1))
        assert code.sign_sets(keys) == (frozenset(), frozenset(), fz(()))
        assert keys.read == [(0, S)]

    def test_one_slice_is_read_in_one_go(self):
        S, w = paths.SIGN_SLICE, self.W
        for n in (0, 1, S - 1, S):
            keys = SliceLog([w["x-"]] * n)
            assert self.SLICED.sign_sets(keys) == (
                frozenset(), frozenset(), fz({"x"}) if n else fz())
            assert keys.read == []
        keys = SliceLog([w["x-"]] * (S + 1))
        assert self.SLICED.sign_sets(keys)[2] == fz({"x"})
        assert keys.read == [(0, S), (S, 2 * S)]

    def test_trees_over_several_slices_match_brute_force(self):
        # dense 6- and 7-qstate graphs with parallel arcs: a tree holds
        # hundreds to thousands of keys, and brute_var_sets still reaches it
        rng = random.Random(3606)
        spans = []
        for n in (6, 7, 7):
            vs = [f"q{i}" for i in range(n)]
            arcs = [(f"e{i}{j}{k}", vs[i], vs[j])
                    for i in range(n) for j in range(n)
                    for k in range(1 + (rng.random() < 0.2))
                    if i != j or rng.random() < 0.5]
            g = graph(set(vs), arcs)
            effects = {aid: {v: rng.randint(-2, 2) for v in
                             rng.sample(["x", "y", "z"], rng.randint(0, 3))}
                       for aid, _, _ in arcs}
            ctx = path_ctx(g, effects, "q0")
            for tree in draw_forest(g, rng.randint(0, 10**6)).trees:
                spans.append(sum(len(ctx.paths(m)) for m in tree.walk()))
                assert var_sets(tree, ctx) == brute_var_sets(
                    g, effects, "q0", tree)
        assert max(spans) > 4 * paths.SIGN_SLICE

    def test_bench_scale_trees_match_key_net(self):
        # 9-11 qstates and 4 counters, where a tree holds thousands of keys
        # and most scans stop early; brute_var_sets cannot reach this size
        checked = 0
        for seed in range(20):
            f = generate_random(GenSpec(n_qstates=9 + seed % 3, n_vars=4,
                                        edge_density=0.4, max_abs_delta=2,
                                        seed=seed))
            ctx = ctx_for(f)
            code = ctx.code
            for tree in draw_forest(policy_graph(f), seed).trees:
                keys = [k for n in tree.walk() for k in ctx.paths(n)]
                want = nets_var_sets(key_net(code, k) for k in keys)
                assert var_sets(tree, ctx) == want
                checked += len(keys)
        assert checked >= 10_000


class TestReachabilityChecks:
    def test_only_through_searches_run_the_bfs(self, monkeypatch):
        # on elimination-forest nodes a cycle search cannot dead-end, so a
        # node without exits must enumerate without one reachability check
        calls = []
        real = paths._reaches

        def reaches(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(paths, "_reaches", reaches)
        f = ring_policy(1500)
        g = policy_graph(f)
        found = listed_paths(g, draw_forest(g, 0).trees[0], f.initial)
        assert [(kind, len(seq)) for kind, seq in found] == [("cycle", 1500)]
        assert calls == []

        rng = random.Random(31337)
        graphs = [chorded_ring_with_exits(rng, n)
                  for n in range(4, 10) for _ in range(6)]
        graphs += [pocket_graph(rng) for _ in range(200)]
        graphs += [random_digraph(rng, max_vertices=5, max_arcs=9)
                   for _ in range(300)]
        checked = 0
        for g in graphs:
            q0 = rng.choice([None, *sorted(g.vertices)])
            for node in iter_nodes(draw_forest(g, rng.randint(0, 10**6))):
                if boundary(g, node.vertices, q0)[1]:
                    continue
                found = listed_paths(g, node, q0)
                assert found and all(kind == "cycle" and seq
                                     for kind, seq in found)
                assert calls == []
                checked += 1
        assert checked >= 300

        # the through-search prune still runs on the chorded ring's dead ends
        rep = hsieve(chord_ring_policy(80), AnalysisConfig(path_cap=1000))
        assert str(rep.verdict) == "unknown(resource-cap)"
        assert calls


class OutReads:
    """Out-arcs that log each vertex whose arcs the walk reads."""

    def __init__(self, out):
        self.out = out
        self.read = []

    def __getitem__(self, v):
        self.read.append(v)
        return self.out[v]


class TestWalkEndsAtItsStart:
    def test_no_step_past_the_start(self):
        # a walk reads its start's arcs once, for its first frame: a path
        # that closes on the start ends there, and no frame is pushed on it
        rng = random.Random(3608)
        checked = 0
        for _ in range(150):
            g = random_digraph(rng, max_vertices=6, max_arcs=12)
            ctx = path_ctx(g, {aid: {} for aid, _, _ in g.arcs}, None)
            pg = ctx
            for node in iter_nodes(draw_forest(g, rng.randint(0, 10**6))):
                mask = pg.mask(node.vertices)
                elim = pg.index[node.elim]
                out = OutReads(pg.quotient(node, mask) if node.children
                               else pg.out)
                keys = []
                paths._walk(out, pg.succ, elim, pg.all ^ mask, 1 << elim,
                            mask, 10**6, keys, {}, pg.shift)
                assert out.read.count(elim) == 1
                assert keys == ctx.paths(node)[:len(keys)]
                checked += len(keys) > 1
            # the cycle walks of nonnegative_cycle, lower vertices blocked
            for start in range(len(pg.names)):
                sbit = 1 << start
                out = OutReads(pg.out)
                paths._walk(out, pg.succ, start, sbit - 1, sbit, sbit, 10**6,
                            [], {}, pg.shift)
                assert out.read.count(start) == 1
        assert checked >= 50


class TestNonnegativeCycle:
    """`paths.nonnegative_cycle` against brute-force simple cycles."""

    @staticmethod
    def graph(g, effects):
        """The compiled graph and the masks of its cyclic SCCs."""
        graph = path_ctx(g, effects, None)
        return graph, list(filter(graph.cyclic, graph.sccs(graph.all)))

    def search(self, g, effects, budget=100_000):
        graph, cyclic = self.graph(g, effects)
        return paths.nonnegative_cycle(graph, budget, cyclic)

    def test_small_cases(self):
        loops = g_of(("up", "q", "q"), ("down", "q", "q"))
        # each loop decreases a counter the other raises: no simple cycle
        # is nonnegative, though the two together net zero
        assert not self.search(loops, {"up": {"x": 1, "y": -1},
                                       "down": {"x": -1, "y": 1}})
        assert self.search(loops, {"up": {"x": 1}, "down": {"x": -1}})
        # a cycle that moves nothing nets zero
        assert self.search(g_of(("a", "p", "q"), ("b", "q", "p")),
                           {"a": {}, "b": {}})
        assert not self.search(g_of(("a", "p", "q")), {"a": {}})
        ring = ring_policy(30)
        effects = {e.id: e.effect for e in ring.edges}
        assert not self.search(policy_graph(ring), effects)
        effects["e7"] = {"x": 1}
        assert self.search(policy_graph(ring), effects)

    def test_budget_gives_up(self):
        # three 2-cycles through p; only the one through r, walked last,
        # nets zero
        g = g_of(("a", "p", "q"), ("b", "q", "p"), ("c", "p", "r"),
                 ("d", "r", "p"), ("e", "p", "q"), ("f", "q", "p"))
        effects = {aid: {"x": -1} for aid in "abcdef"}
        effects["d"] = {"x": 1}
        for budget in range(6):
            assert self.search(g, effects, budget) == (budget >= 5)
            assert brute_nonnegative_cycle(g, effects, budget) == (
                budget >= 5)

    def test_random_multigraphs(self):
        rng = random.Random(2024)
        found = gave_up = refuted = 0
        for _ in range(400):
            g = random_digraph(rng, max_vertices=6, max_arcs=12)
            counters = [f"x{i}" for i in range(rng.randint(1, 3))]
            effects = {aid: {x: rng.randint(-2, 2) for x in counters
                             if rng.random() < 0.6}
                       for aid, _, _ in g.arcs}
            budget = rng.choice([0, 1, 2, 4, 8, 100_000])
            got = self.search(g, effects, budget)
            assert got == brute_nonnegative_cycle(g, effects, budget)
            found += got
            unbounded = self.search(g, effects)
            gave_up += not got and unbounded
            # with no effects every cycle nets zero
            refuted += not unbounded and self.search(
                g, {aid: {} for aid in effects})
        # the corpus finds cycles, misses some only for the budget, and
        # has cycles none of which is nonnegative
        assert found >= 120
        assert gave_up >= 100
        assert refuted >= 40

    def test_refusal_only_without_nonnegative_cycles(self):
        rng = random.Random(2025)
        fired = fired_cyclic = 0
        for _ in range(400):
            g = random_digraph(rng, max_vertices=6, max_arcs=12)
            counters = [f"x{i}" for i in range(rng.randint(1, 3))]
            effects = {aid: {x: rng.choice([-2, -1, -1, 1]) for x in counters
                             if rng.random() < 0.7}
                       for aid, _, _ in g.arcs}
            if paths.every_cycle_decreases(*self.graph(g, effects)):
                assert not brute_nonnegative_cycle(g, effects, 10**9)
                fired += 1
                fired_cyclic += not is_acyclic(g)
        assert fired_cyclic >= 60
        assert fired - fired_cyclic >= 20

    def test_circulant_refused_before_walking(self):
        # every arc decrements x; walking the cycles up to the default
        # budget took seconds
        shared = _Shared(circulant_policy(300), paths.DEFAULT_PATH_CAP)
        t0 = time.perf_counter()
        assert not shared.pumps()
        assert time.perf_counter() - t0 < 0.5


class TestRepeatedStates:
    """A step onto a (path, vertex) state that an earlier frame walked
    replays that frame's keys, shifted, instead of walking it again."""

    def test_key_lists_pinned(self, monkeypatch):
        # every node of the seed-0 forests of 40 hsieve-mid-shaped
        # policies, keys in order; the walk without replay gives this
        # digest too, with 47,280 reachability searches
        calls = Counter()
        real = paths._reaches

        def reaches(*args):
            calls["reaches"] += 1
            return real(*args)

        monkeypatch.setattr(paths, "_reaches", reaches)
        digest = hashlib.sha256()
        nodes = total = 0
        for seed in range(40):
            fmp = generate_random(GenSpec(n_qstates=11, n_vars=4,
                                          edge_density=0.4, max_abs_delta=2,
                                          seed=seed))
            shared = _Shared(fmp, paths.DEFAULT_PATH_CAP)
            splits, ctx, _ = shared.graph(shared.edge_ids)
            for tree in build_def(splits, 0).trees:
                for node in tree.walk():
                    keys = ctx.paths(node)
                    digest.update(repr((seed, sorted(node.vertices),
                                        node.elim, keys)).encode())
                    nodes += 1
                    total += len(keys)
        assert (nodes, total) == (308, 122_760)
        assert digest.hexdigest()[:16] == "4f7d2ad2a70dee16"
        assert calls["reaches"] < 20_000

    def test_cap_crossed_inside_replayed_slice(self):
        # entries x and y, exits d and e behind m. The walk from x passes
        # x, y, m and leaves two keys at m; the walk from y ends on the
        # same state by y, x, m, so its last two keys are that slice again
        arcs = [("tx", "t", "x"), ("ty", "t", "y"), ("xy", "x", "y"),
                ("yx", "y", "x"), ("xm", "x", "m"), ("ym", "y", "m"),
                ("md", "m", "d"), ("me", "m", "e"), ("dt", "d", "t"),
                ("et", "e", "t")]
        g = g_of(*arcs)
        effects = {aid: {"x": i - 4, "y": i % 3 - 1}
                   for i, (aid, _, _) in enumerate(arcs)}
        node = DetNode(frozenset({"x", "y", "m", "d", "e"}), "d", ())
        count = check_against_referees(g, effects, None, node,
                                       path_ctx(g, effects, None))
        assert count == 8
        assert [seq for _, seq in listed_paths(g, node, None)][-2:] == [
            ("yx", "xm", "md"), ("yx", "xm", "me")]
        at_cap = path_ctx(g, effects, None, path_cap=count)
        assert at_cap.paths(node) == path_ctx(g, effects, None).paths(node)
        assert var_sets(node, at_cap) == brute_var_sets(g, effects, None, node)
        with pytest.raises(PathCapExceeded):
            path_ctx(g, effects, None, path_cap=count - 1).paths(node)

    def test_parallel_arcs(self):
        # parallel arcs land on one state twice from one frame
        rng = random.Random(5150)
        checked = found = 0
        for _ in range(60):
            n = rng.randint(2, 5)
            vs = [f"v{i}" for i in range(n)]
            pairs = [(rng.choice(vs), rng.choice(vs))
                     for _ in range(rng.randint(n, 2 * n))]
            arcs = [(f"a{k}_{j}", s, d) for k, (s, d) in enumerate(pairs)
                    for j in range(rng.randint(1, 3))]
            g = g_of(*arcs, extra=vs)
            effects = {aid: {x: rng.randint(-2, 2) for x in ("x", "y")
                             if rng.random() < 0.7}
                       for aid, _, _ in arcs}
            q0 = rng.choice([None, *vs])
            ctx = path_ctx(g, effects, q0)
            inside = frozenset(vs[:-1]) if n > 2 else frozenset(vs)
            loose = DetNode(inside, rng.choice(sorted(inside)), ())
            for node in [*iter_nodes(draw_forest(g, rng.randint(0, 10**6))),
                         loose]:
                check_against_referees(g, effects, q0, node, ctx)
                checked += 1
            graph, cyclic = TestNonnegativeCycle.graph(g, effects)
            for budget in (0, 3, 20, 100_000):
                got = paths.nonnegative_cycle(graph, budget, cyclic)
                assert got == brute_nonnegative_cycle(g, effects, budget)
                found += got
        assert checked >= 150
        assert found >= 40

    def test_only_frames_of_two_or_more_keys_are_remembered(self):
        # a frame that emitted one key is cheaper to walk again than to
        # keep; each entry packs (frame key, first index, count) in fields
        # as wide as the keys the walk may emit
        rng = random.Random(3609)
        cap = 10**6
        low = (1 << cap.bit_length()) - 1
        entries = 0
        for _ in range(150):
            g = random_digraph(rng, max_vertices=6, max_arcs=12)
            pg = path_ctx(g, {aid: {} for aid, _, _ in g.arcs}, None)
            for node in iter_nodes(draw_forest(g, rng.randint(0, 10**6))):
                mask = pg.mask(node.vertices)
                elim = pg.index[node.elim]
                out = pg.quotient(node, mask) if node.children else pg.out
                keys, memo = [], {}
                paths._walk(out, pg.succ, elim, pg.all ^ mask, 1 << elim,
                            mask, cap, keys, memo, pg.shift)
                for packed in memo.values():
                    n, at = packed & low, packed >> cap.bit_length() & low
                    assert n > 1 and at + n <= len(keys)
                entries += len(memo)
        assert entries >= 20

    def test_memo_memory_bounded(self):
        # the chorded ring repeats almost no state, so nearly every entry
        # is kept for nothing: one packed int per state that emitted two
        # or more keys peaks at about 1.23 MiB, a tuple per such state at
        # about 1.7 MiB, and the walk without a memo at about 0.49 MiB
        tracemalloc.start()
        try:
            rep = hsieve(chord_ring_policy(80), AnalysisConfig(path_cap=10_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(rep.verdict) == "unknown(resource-cap)"
        assert peak < 1.5 * 2**20

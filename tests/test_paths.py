"""Path enumeration and the variable-set recursions."""
import random
from collections import Counter

import pytest

from termsieve import paths
from termsieve.analysis import AnalysisConfig, hsieve
from termsieve.decomposition import DetNode, build_def, quotient
from termsieve.generate import GenSpec, generate_random
from termsieve.graphs import boundary, graph, induced, policy_graph
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
    brute_through_paths,
    brute_var_sets,
    chord_ring_policy,
    iter_nodes,
    key_net,
    listed_paths,
    nets_var_sets,
    path_ctx,
    path_keys,
    plain_dfs_paths,
    random_digraph,
    ring_policy,
)


def g_of(*arcs, extra=()):
    vs = set(extra)
    for (_, s, d) in arcs:
        vs.add(s)
        vs.add(d)
    return graph(vs, arcs)


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


class TestPathGraph:
    def test_out_arcs_sorted_and_complete(self):
        g = g_of(("b", "v", "w"), ("a", "v", "u"), ("c", "v", "u"))
        pg = path_ctx(g, {"a": {"x": 1}, "b": {}, "c": {"x": -1}}, None).graph
        u, v, w = (pg.index[x] for x in "uvw")
        assert [(pg.out[v][k][0], pg.out[v][k][4]) for k in range(3)] == [
            (u, "a"), (u, "c"), (w, "b")]
        assert pg.out[w] == ()
        assert pg.succ[v] == 1 << u | 1 << w
        assert pg.pred[u] == 1 << v


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
        tree = build_def(policy_graph(f), 0).trees[0]
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
            tree = build_def(policy_graph(f), seed).trees[0]
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
            tree = build_def(policy_graph(f), seed).trees[0]
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

    def test_empty_node_rejected(self):
        f = load_policy(FIXTURES / "f2.fmp.json")
        with pytest.raises(InvalidNodeError):
            ctx_for(f).paths(DetNode(frozenset(), "q0", ()))

    def test_foreign_elim_rejected(self):
        f = load_policy(FIXTURES / "f2.fmp.json")
        with pytest.raises(InvalidNodeError):
            ctx_for(f).paths(DetNode(frozenset({"q0"}), "zz", ()))


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
                forest = build_def(g, rng.randint(0, 10**6))
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
            for node in [*iter_nodes(build_def(g, rng.randint(0, 10**6))),
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
            forest = build_def(g, rng.randint(0, 10**6))
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
            for node in iter_nodes(build_def(g, 1)):
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
            for node in iter_nodes(build_def(g, rng.randint(0, 10**6))):
                listed = listed_paths(g, node, q0)
                code, keys = path_keys(g, effects, q0, node, listed)
                for (_, seq), key in zip(listed, keys):
                    want: dict[str, int] = {}
                    for eid in seq:
                        accumulate(want, effects[eid])
                    assert key_net(code, key) == want
                    # the sign decode var_sets reads agrees with the exact
                    # one, cancelled moves landing in the zero set
                    inc, zero, (dec,) = code.sign_sets({key})
                    for sign, got in zip((1, 0, -1), (inc, zero, dec)):
                        assert got == {v for v, d in want.items()
                                       if (d > 0) - (d < 0) == sign}
                    assert not (inc & zero or inc & dec or zero & dec)
                    assert inc | zero | dec <= set(code.variables)


def referee_signs(code, keys):
    """`sign_sets` of `keys`, aggregated from the exact per-key decode."""
    sets = nets_var_sets(key_net(code, key) for key in keys)
    return sets.iv, sets.zv, sets.pdv


class TestSignSets:
    CODE = EffectCode({"up": {"x": 1}, "down": {"x": -1}, "y": {"y": -2},
                       "both": {"x": 2, "y": 2}}, 4)

    def keys(self, *paths):
        w = self.CODE.weight
        return {sum(w[e] for e in path) for path in paths}

    def test_empty_key_set(self):
        assert self.CODE.sign_sets(set()) == (frozenset(), frozenset(),
                                              frozenset())
        assert referee_signs(self.CODE, set()) == self.CODE.sign_sets(set())

    def test_no_moved_variable(self):
        code = EffectCode({"a": {}, "b": {"x": 0}}, 3)
        assert code.variables == () and set(code.weight.values()) == {0}
        assert code.sign_sets({0}) == (frozenset(), frozenset(), fz(()))
        g = g_of(("a", "q0", "q0"), ("b", "q0", "q1"), ("c", "q1", "q0"))
        ctx = path_ctx(g, {"a": {}, "b": {"x": 0}, "c": {}}, "q0")
        sets = var_sets(build_def(g, 0).trees[0], ctx)
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
            keys = {sum(code.weight[e] for e in rng.sample(
                        sorted(effects), rng.randint(0, min(max_len, len(effects)))))
                    for _ in range(rng.randint(0, 12))}
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

    def test_bench_scale_trees_match_key_net(self):
        # 9-11 qstates and 4 counters, where a tree holds thousands of keys
        # and most scans stop early; brute_var_sets cannot reach this size
        checked = 0
        for seed in range(20):
            f = generate_random(GenSpec(n_qstates=9 + seed % 3, n_vars=4,
                                        edge_density=0.4, max_abs_delta=2,
                                        seed=seed))
            ctx = ctx_for(f)
            code = ctx.graph.code
            for tree in build_def(policy_graph(f), seed).trees:
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
        found = listed_paths(g, build_def(g, 0).trees[0], f.initial)
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
            for node in iter_nodes(build_def(g, rng.randint(0, 10**6))):
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

"""Property tests for the algebraic and structural invariants."""
from collections import Counter

from hypothesis import given, settings, strategies as st

from termsieve.decomposition import build_def
from termsieve.graphs import DiGraph, policy_graph, scc_decompose
from termsieve.model import (
    Edge, Fmp, Guard, VarDecl, normalize, validate,
)
from termsieve.oracle import ExploreCaps, explore
from termsieve.paths import boxminus
from termsieve.policyio import parse_policy, serialize_policy

from helpers import accumulate, brute_sccs, check_det, is_acyclic

# ---------------------------------------------------------------- strategies

var_names = st.sampled_from(["x", "y", "z"])

set_families = st.frozensets(
    st.frozensets(var_names, max_size=3), min_size=0, max_size=6)

var_subsets = st.frozensets(var_names, max_size=3)


@st.composite
def digraphs(draw, max_vertices=7, max_arcs=14):
    n = draw(st.integers(1, max_vertices))
    vs = [f"q{i}" for i in range(n)]
    m = draw(st.integers(0, max_arcs))
    arcs = tuple(
        (f"a{k}", draw(st.sampled_from(vs)), draw(st.sampled_from(vs)))
        for k in range(m))
    return DiGraph(frozenset(vs), arcs)


@st.composite
def effect_paths(draw):
    """A connected edge sequence over one qstate, plus its edges."""
    names = draw(st.lists(var_names, min_size=1, max_size=3, unique=True))
    k = draw(st.integers(0, 6))
    edges = []
    for i in range(k):
        eff = {v: draw(st.integers(-3, 3)) for v in names
               if draw(st.booleans())}
        edges.append(Edge.single(f"e{i}", "q0", "q0", effect=eff))
    return edges


@st.composite
def policies(draw, allow_multi=True):
    n_q = draw(st.integers(1, 4))
    qs = tuple(f"q{i}" for i in range(n_q))
    names = draw(st.lists(var_names, min_size=1, max_size=3, unique=True))
    variables = tuple(
        VarDecl(v, draw(st.sampled_from([0, 0, 0, -2, 1]))) for v in names)
    lb = {v.name: v.lower_bound for v in variables}
    m = draw(st.integers(0, 7))
    edges = []
    for i in range(m):
        conj = {}
        for v in names:
            if draw(st.booleans()):
                continue
            lo = draw(st.integers(lb[v], lb[v] + 3))
            hi = draw(st.one_of(st.none(), st.integers(lo, lo + 3)))
            conj[v] = (lo, hi)
        n_act = draw(st.integers(0, 2)) if allow_multi else 1
        acts = tuple(
            {v: draw(st.integers(-2, 2)) for v in names if draw(st.booleans())}
            for _ in range(n_act))
        edges.append(Edge(f"e{i}", draw(st.sampled_from(qs)),
                          draw(st.sampled_from(qs)), Guard(conj), acts))
    goal = None
    if draw(st.booleans()):
        g = names[0]
        goal = {g: (lb[g], draw(st.one_of(st.none(), st.just(lb[g] + 2))))}
    return Fmp(variables, qs, qs[0], tuple(edges), goal=goal)


# ------------------------------------------------------------------ boxminus

class TestBoxminus:
    @given(set_families, var_subsets)
    def test_never_grows_and_keeps_emptyset(self, fam, sub):
        out = boxminus(fam, sub)
        assert all(s.isdisjoint(sub) for s in out)
        for s in fam:
            assert s - sub in out
        if frozenset() in fam:
            assert frozenset() in out

    @given(set_families, var_subsets)
    def test_idempotent(self, fam, sub):
        once = boxminus(fam, sub)
        assert boxminus(once, sub) == once

    @given(set_families, var_subsets, var_subsets)
    def test_order_free(self, fam, a, b):
        assert boxminus(boxminus(fam, a), b) == boxminus(
            boxminus(fam, b), a) == boxminus(fam, a | b)

    @given(set_families)
    def test_empty_subtrahend_is_identity(self, fam):
        assert boxminus(fam, frozenset()) == frozenset(fam)


# ---------------------------------------------------------------- net change

def net_of(edges):
    net = {}
    for e in edges:
        accumulate(net, e.effect)
    return net


class TestNetChange:
    @given(effect_paths(), st.integers(0, 6))
    def test_split_plus_accumulate_agrees(self, edges, cut):
        cut = min(cut, len(edges))
        running = net_of(edges[cut:])
        for e in edges[:cut]:
            accumulate(running, e.effect)
        assert running == net_of(edges)

    @given(effect_paths())
    def test_matches_counter_sum(self, edges):
        c = Counter()
        for e in edges:
            c.update(e.effect)
        net = net_of(edges)
        assert {k: v for k, v in net.items() if v} == {
            k: v for k, v in c.items() if v}
        # touched-but-cancelled keys stay present, pinned to zero
        touched = {k for e in edges for k, d in e.effect.items() if d}
        assert set(net) == touched


# ----------------------------------------------------------------- normalize

class TestNormalize:
    @given(policies())
    @settings(max_examples=60, deadline=None)
    def test_valid_idempotent_and_behavior_preserving(self, fmp):
        assert validate(fmp) == []
        norm = normalize(fmp)
        assert validate(norm) == []
        assert normalize(norm) is norm
        assert all(len(e.actions) == 1 for e in norm.edges)

        caps = ExploreCaps(max_configs=300, max_value=40)
        a = explore(fmp, fmp.state({v.name: max(v.lower_bound, 0)
                                    for v in fmp.variables}), caps)
        b = explore(norm, norm.state({v.name: max(v.lower_bound, 0)
                                      for v in norm.variables}), caps)
        assert a.kind == b.kind
        assert a.stats["halting"] == b.stats["halting"]
        assert a.stats["expanded"] == b.stats["expanded"]


# ---------------------------------------------------------------- round trip

class TestRoundTrip:
    @given(policies())
    @settings(max_examples=80, deadline=None)
    def test_serialize_parse_serialize(self, fmp):
        text = serialize_policy(fmp)
        back = parse_policy(text)
        assert serialize_policy(back) == text
        assert back.qstates == fmp.qstates
        assert back.initial == fmp.initial
        assert back.goal == fmp.goal
        assert [e.id for e in back.edges] == [e.id for e in fmp.edges]
        assert [e.actions for e in back.edges] == \
               [e.actions for e in fmp.edges]


# -------------------------------------------------------------------- graphs

class TestGraphs:
    @given(digraphs())
    @settings(max_examples=150, deadline=None)
    def test_scc_matches_brute(self, g):
        got = {c for c in scc_decompose(g).components}
        assert got == brute_sccs(g)

    @given(digraphs())
    @settings(max_examples=150, deadline=None)
    def test_acyclic_iff_no_nontrivial_scc(self, g):
        assert is_acyclic(g) == (scc_decompose(g).nontrivial() == ())


# ----------------------------------------------------------- def well-formed

class TestDefForests:
    @given(digraphs(max_vertices=6, max_arcs=12), st.integers(0, 50))
    @settings(max_examples=120, deadline=None)
    def test_always_passes_structure_check(self, g, seed):
        forest = build_def(g, seed)
        assert check_det(forest, g) == []

    @given(policies(), st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_policy_graphs_too(self, fmp, seed):
        g = policy_graph(fmp)
        assert check_det(build_def(g, seed), g) == []

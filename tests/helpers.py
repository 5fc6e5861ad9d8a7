"""Shared test utilities: brute-force oracles and small builders.

The brute-force functions here are deliberately naive re-implementations
used to cross-check the real algorithms. Keep them independent of the
library internals: they may only use the public data types, except
where a docstring says otherwise.
"""
from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math
import pathlib
import random
import sys
from typing import Any, Iterable, Mapping

from termsieve.analysis import NONTERMINATING_QUALITATIVE, TERMINATING, Verdict
from termsieve.decomposition import DefForest, DetNode, Splits, build_def, quotient
from termsieve.generate import GenSpec
from termsieve.graphs import Arc, DiGraph, SccGraph, induced
from termsieve.model import (
    ConcreteState, Edge, Effect, Fmp, Guard, VarDecl, Violation,
)
from termsieve.oracle import (
    ALL_HALT, INCONCLUSIVE, LASSO_FOUND, Configuration, ExploreCaps,
    ExploreResult, LassoWitness, SimTrace, grid_states,
)
from termsieve.paths import (
    DEFAULT_PATH_CAP, EffectCode, NodeVarSets, PathContext,
)
from termsieve.policyio import FORMAT_VERSION, PolicyFormatError, load_policy

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
TEST_FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def fixture(name: str) -> Fmp:
    """The policy of `fixtures/<name>.fmp.json`."""
    return load_policy(FIXTURES / f"{name}.fmp.json")


# ---------------------------------------------------------------- graphs

def graph(vertices: Iterable[str], arcs: Iterable[Arc]) -> DiGraph:
    return DiGraph(vertices=frozenset(vertices), arcs=tuple(arcs))


def g_of(*arcs: Arc, extra: Iterable[str] = ()) -> DiGraph:
    """Graph from (id, src, dst) triples; vertices inferred plus extras."""
    vs = set(extra)
    for (_, s, d) in arcs:
        vs.add(s)
        vs.add(d)
    return graph(vs, arcs)


def policy_graph(fmp: Fmp) -> DiGraph:
    """The control graph of a policy: qstates as vertices, edges as arcs."""
    return graph(fmp.qstates, ((e.id, e.src, e.dst) for e in fmp.edges))


def draw_forest(g: DiGraph, seed: int) -> DefForest:
    """The forest `build_def` draws from `seed` on `g`, compiled afresh."""
    return build_def(Splits(SccGraph(g.vertices, g.arcs)), seed)


def brute_reachable(g: DiGraph, start: str) -> frozenset[str]:
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for (_, src, dst) in g.arcs:
            if src == v and dst not in seen:
                seen.add(dst)
                frontier.append(dst)
    return frozenset(seen)


def brute_sccs(g: DiGraph) -> set[frozenset[str]]:
    """Components via mutual reachability: the component of a vertex not
    yet placed is what it reaches and what reaches it. O(V * (V + E)),
    fine for tests; shares no code with the library's Kosaraju-Sharir."""
    succ: dict[str, set[str]] = {v: set() for v in g.vertices}
    pred: dict[str, set[str]] = {v: set() for v in g.vertices}
    for (_, src, dst) in g.arcs:
        succ[src].add(dst)
        pred[dst].add(src)

    def reach(start: str, nbrs: dict[str, set[str]]) -> set[str]:
        seen = {start}
        frontier = [start]
        while frontier:
            for w in nbrs[frontier.pop()] - seen:
                seen.add(w)
                frontier.append(w)
        return seen

    out = set()
    left = set(g.vertices)
    while left:
        v = left.pop()
        comp = frozenset(reach(v, succ) & reach(v, pred))
        out.add(comp)
        left -= comp
    return out


def brute_is_nontrivial(g: DiGraph, comp: frozenset[str]) -> bool:
    if len(comp) > 1:
        return True
    (v,) = comp
    return any(src == v and dst == v for (_, src, dst) in g.arcs)


def brute_nontrivial_sccs(g: DiGraph) -> set[frozenset[str]]:
    return {c for c in brute_sccs(g) if brute_is_nontrivial(g, c)}


def random_digraph(rng: random.Random, max_vertices: int = 6,
                   max_arcs: int = 10) -> DiGraph:
    n = rng.randint(1, max_vertices)
    vs = [f"v{i}" for i in range(n)]
    m = rng.randint(0, max_arcs)
    arcs: list[Arc] = []
    for k in range(m):
        arcs.append((f"a{k}", rng.choice(vs), rng.choice(vs)))
    return DiGraph(frozenset(vs), tuple(arcs))


def is_acyclic(g: DiGraph) -> bool:
    """Kahn's algorithm; a self-loop counts as a cycle."""
    indeg: dict[str, int] = {v: 0 for v in g.vertices}
    adj: dict[str, list[str]] = {v: [] for v in g.vertices}
    for _, src, dst in g.arcs:
        if src == dst:
            return False
        indeg[dst] += 1
        adj[src].append(dst)
    queue = [v for v, d in indeg.items() if d == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in adj[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == len(g.vertices)


def check_det(forest: DefForest, g: DiGraph) -> list[str]:
    """Validity violations of a forest against its graph (empty = valid).

    The expected roots and children come from `brute_sccs`, not from the
    SCC routine that builds the forest.
    """
    out: list[str] = []
    roots = {t.vertices for t in forest.trees}
    expected_roots = brute_nontrivial_sccs(g)
    if roots != expected_roots:
        out.append(
            "roots-mismatch: trees "
            f"{sorted(sorted(r) for r in roots)} vs SCCs "
            f"{sorted(sorted(r) for r in expected_roots)}"
        )

    for tree in forest.trees:
        seen: set[frozenset[str]] = set()
        stack = [tree]
        while stack:
            node = stack.pop()
            where = f"({','.join(sorted(node.vertices))}, {node.elim})"
            if node.vertices in seen:
                out.append(f"duplicate-node: {where}")
            seen.add(node.vertices)
            if node.elim not in node.vertices:
                out.append(f"elim-not-member: {where}")
                continue
            expected = brute_nontrivial_sccs(
                induced(g, node.vertices - {node.elim}))
            actual = {c.vertices for c in node.children}
            if actual != expected:
                out.append(f"children-mismatch: {where}")
            q = quotient(g, node)
            minus_elim = induced(q, q.vertices - {node.elim})
            if not is_acyclic(minus_elim):
                out.append(f"quotient-not-acyclic: {where}")
            stack.extend(reversed(node.children))
    return out


def brute_forests(g: DiGraph) -> set[frozenset]:
    """Every elimination forest of `g`, by recursive elim choice.

    A tree is (vertex set, elim, frozenset of child trees), the children
    being `brute_nontrivial_sccs` of the set without its elim, and a forest
    is the frozenset of its trees, one per nontrivial SCC of `g`. Shares no
    code with `decomposition.Splits`; exponential, so small graphs only.
    """
    memo: dict[frozenset[str], list[tuple]] = {}

    def trees(comp: frozenset[str]) -> list[tuple]:
        if comp not in memo:
            memo[comp] = [
                (comp, elim, frozenset(kids))
                for elim in comp
                for kids in itertools.product(*map(trees, brute_nontrivial_sccs(
                    induced(g, comp - {elim}))))]
        return memo[comp]

    return {frozenset(roots) for roots in itertools.product(
        *map(trees, brute_nontrivial_sccs(g)))}


def brute_forest_key(trees: Iterable[DetNode]) -> frozenset:
    """Drawn trees in the shape `brute_forests` gives (recursive)."""
    def key(node: DetNode) -> tuple:
        return (node.vertices, node.elim, frozenset(map(key, node.children)))
    return frozenset(map(key, trees))


@contextlib.contextmanager
def recursion_room(frames: int = 100):
    """Lower the recursion limit to `frames` frames above the caller's, and
    restore it on exit, so a traversal that recurses once per tree level
    fails on a tree deeper than that."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


# ----------------------------------------------------------- path oracles

def accumulate(net: dict[str, int], effect: Effect) -> None:
    """Add an effect into a running net change, in place.

    A key appears iff some added effect moves that variable (nonzero delta);
    a key mapped to 0 records opposing moves that cancel.
    """
    for var, delta in effect.items():
        if delta:
            net[var] = net.get(var, 0) + delta


def path_ctx(g: DiGraph, effects, q0, path_cap: int = DEFAULT_PATH_CAP
             ) -> PathContext:
    """A PathContext on `g` with the effect code of `effects`."""
    code = EffectCode(effects, len(g.vertices))
    return PathContext(g.vertices, g.arcs, code, q0, path_cap)


def key_net(code: EffectCode, key: int) -> dict[str, int]:
    """Net change per variable for a sum of `code` weights, read back from
    the key's digits.

    A variable appears iff some summed edge moves it; a variable mapped to
    0 records moves that cancel.
    """
    base, half, width = code.base, code.base >> 1, 2 * code.bits
    field, digit = (1 << width) - 1, base - 1
    out: dict[str, int] = {}
    for var in code.variables:
        if key & field:
            delta = key & digit
            out[var] = delta if delta < half else delta - base
        key >>= width
    return out


def _arc_keys(g: DiGraph, q0, node, path_cap: int) -> list[frozenset[str]]:
    """The arc set of each path key of `node`, from a context with one
    counter per arc moved by +1; a key that counts some arc other than once
    gives the empty set."""
    ctx = path_ctx(g, {aid: {aid: 1} for aid, _, _ in g.arcs}, q0, path_cap)
    out = []
    for key in ctx.paths(node):
        net = key_net(ctx.code, key)
        out.append(frozenset(net) if set(net.values()) == {1}
                   else frozenset())
    return out


def _walk_arcs(arcs: frozenset[str], ends: dict[str, tuple[str, str]],
               start: str | None) -> tuple[str, ...] | None:
    """The one walk from `start` that takes each of `arcs` once, leaving
    each vertex by its only unused arc in the set, or None."""
    if not arcs or start is None or not arcs <= ends.keys():
        return None
    unused = set(arcs)
    seq: list[str] = []
    v = start
    while unused:
        out = [aid for aid in unused if ends[aid][0] == v]
        if len(out) != 1:
            return None
        seq.append(out[0])
        unused.remove(out[0])
        v = ends[out[0]][1]
    return tuple(seq)


def listed_paths(g: DiGraph, node, q0, path_cap: int = DEFAULT_PATH_CAP
                 ) -> list[tuple[str, tuple[str, ...] | None]]:
    """(kind, arc ids) of every path `PathContext.paths` emits for `node`,
    in its order, decoded from the path keys alone.

    Each key decodes to its path's arc set, and from the known start that
    set fixes the path: a cycle path leaves the elim over the node's
    quotient arcs (each child collapsed onto its own elim), a through path
    leaves the one vertex its arcs leave but never enter. The first keys
    are the cycle paths, as many as the node has on its own induced
    subgraph, which has no boundary and so no through paths. A key that
    does not decode to one walk lists None.
    """
    vs = node.vertices
    inner = tuple(a for a in g.arcs if a[1] in vs and a[2] in vs)
    n_cycles = len(_arc_keys(DiGraph(vs, inner), None, node, path_cap))
    rep = {v: c.elim for c in node.children for v in c.vertices}
    quotient_ends = {aid: (rep.get(s, s), rep.get(d, d))
                     for aid, s, d in inner
                     if not (s in rep and rep[s] == rep.get(d))}
    through_ends = {aid: (s, d) for aid, s, d in inner}
    out: list[tuple[str, tuple[str, ...] | None]] = []
    for i, arcs in enumerate(_arc_keys(g, q0, node, path_cap)):
        if i < n_cycles:
            out.append(("cycle", _walk_arcs(arcs, quotient_ends, node.elim)))
            continue
        starts = ({through_ends[a][0] for a in arcs if a in through_ends}
                  - {through_ends[a][1] for a in arcs if a in through_ends})
        out.append(("through", _walk_arcs(
            arcs, through_ends, starts.pop() if len(starts) == 1 else None)))
    return out


def path_keys(g: DiGraph, effects, q0, node, listed
              ) -> tuple[EffectCode, list[int]]:
    """The effect code of `effects` and the path keys of `node` under it,
    checked against the arc ids of `listed` (as from listed_paths): the
    i-th key must be the sum of the weights of the i-th path's arcs."""
    ctx = path_ctx(g, effects, q0)
    keys = ctx.paths(node)
    weight = ctx.code.weight
    assert keys == [sum(weight[aid] for aid in seq or ()) for _, seq in listed]
    return ctx.code, keys


def brute_cycle_paths(q: DiGraph, elim: str) -> set[tuple[str, ...]]:
    """All arc sequences elim -> ... -> elim where elim appears exactly
    twice and intermediates are distinct. Breadth-wise walk extension."""
    out: set[tuple[str, ...]] = set()
    frontier: list[tuple[tuple[str, ...], frozenset[str], str]] = []
    for (aid, src, dst) in q.arcs:
        if src == elim:
            frontier.append(((aid,), frozenset(), dst))
    while frontier:
        seq, seen, cur = frontier.pop()
        if cur == elim:
            out.add(seq)
            continue
        if cur in seen:
            continue
        seen = seen | {cur}
        for (aid, src, dst) in q.arcs:
            if src == cur and (dst == elim or dst not in seen):
                frontier.append((seq + (aid,), seen, dst))
    return out


def brute_nonnegative_cycle(g: DiGraph, effects, budget: int) -> bool:
    """Whether a simple cycle of `g` nets at least zero on every counter,
    under the budget rule of `paths.nonnegative_cycle`.

    The simple cycles are grouped by their least vertex name, each group
    from brute_cycle_paths on the vertices from that name on. Walking the
    groups in name order, the answer is False once more than `budget`
    cycles have been counted, and True at the first group holding a
    nonnegative cycle.
    """
    names = sorted(g.vertices)
    counted = 0
    for i, v in enumerate(names):
        group = brute_cycle_paths(induced(g, names[i:]), v)
        counted += len(group)
        if counted > budget:
            return False
        for seq in group:
            net: dict[str, int] = {}
            for aid in seq:
                accumulate(net, effects[aid])
            if all(d >= 0 for d in net.values()):
                return True
    return False


def brute_through_paths(sub: DiGraph, entries: frozenset[str],
                        exits: frozenset[str]) -> set[tuple[str, ...]]:
    """All vertex-simple nonempty arc sequences from an entry to an exit."""
    out: set[tuple[str, ...]] = set()
    frontier: list[tuple[tuple[str, ...], frozenset[str], str]] = []
    for start in entries:
        if start not in sub.vertices:
            continue
        frontier.append(((), frozenset({start}), start))
    while frontier:
        seq, seen, cur = frontier.pop()
        if seq and cur in exits:
            out.add(seq)
        for (aid, src, dst) in sub.arcs:
            if src == cur and dst not in seen:
                frontier.append((seq + (aid,), seen | {dst}, dst))
    return out


def plain_dfs_paths(g: DiGraph, node, q0) -> list[tuple[str, tuple[str, ...]]]:
    """(kind, arc ids) of every path of `node`, in the order a plain
    recursive DFS with no pruning emits them: cycle paths of the quotient
    (each child collapsed onto its own elim), then through paths from each
    entry in name order; out-arcs are taken in (dst, arc id) order."""
    vs = node.vertices
    rep = {v: c.elim for c in node.children for v in c.vertices}
    inner = [a for a in g.arcs if a[1] in vs and a[2] in vs]
    q_arcs = [(aid, rep.get(s, s), rep.get(d, d)) for aid, s, d in inner
              if not (s in rep and rep[s] == rep.get(d))]
    out: list[tuple[str, tuple[str, ...]]] = []

    def dfs(arcs, kind, v, seq, seen, targets, start):
        for aid, s, d in sorted(arcs, key=lambda a: (a[2], a[0])):
            if s != v or d in seen:
                continue
            if d in targets:
                out.append((kind, seq + (aid,)))
            if d != start:
                dfs(arcs, kind, d, seq + (aid,), seen | {d}, targets, start)

    dfs(q_arcs, "cycle", node.elim, (), frozenset(), {node.elim}, node.elim)
    entries = {d for _, s, d in g.arcs if d in vs and s not in vs}
    if q0 in vs:
        entries.add(q0)
    exits = {s for _, s, d in g.arcs if s in vs and d not in vs}
    if exits:
        for start in sorted(entries):
            dfs(inner, "through", start, (), frozenset({start}), exits, start)
    return out


def brute_var_sets(g: DiGraph, effects, q0, node) -> NodeVarSets:
    """iv/zv/pdv/dv of the subtree at `node`, from the brute path oracles.

    Collapses each child into one vertex and takes the node's boundary
    directly from the arcs of `g`, then sums every path's effects naively.
    """
    nets: list[dict[str, int]] = []
    stack = [node]
    while stack:
        n = stack.pop()
        stack.extend(n.children)
        vs = n.vertices
        comp = {v: c.vertices for c in n.children for v in c.vertices}
        inner = [a for a in g.arcs if a[1] in vs and a[2] in vs]
        q_arcs = [(aid, comp.get(s, s), comp.get(d, d)) for aid, s, d in inner
                  if not (s in comp and comp[s] == comp.get(d))]
        q = DiGraph(frozenset(comp.get(v, v) for v in vs), tuple(q_arcs))
        entries = {d for _, s, d in g.arcs if d in vs and s not in vs}
        if q0 in vs:
            entries.add(q0)
        exits = frozenset(s for _, s, d in g.arcs if s in vs and d not in vs)
        sub = DiGraph(vs, tuple(inner))
        seqs = (brute_cycle_paths(q, n.elim)
                | brute_through_paths(sub, frozenset(entries), exits))
        for seq in seqs:
            net: dict[str, int] = {}
            for aid in seq:
                accumulate(net, effects[aid])
            nets.append(net)
    return nets_var_sets(nets)


def nets_var_sets(nets: Iterable[dict[str, int]]) -> NodeVarSets:
    """iv/zv/pdv/dv aggregated naively over per-path net changes (as from
    accumulate or key_net)."""
    iv: set[str] = set()
    zv: set[str] = set()
    pdv: set[frozenset[str]] = set()
    for net in nets:
        iv.update(v for v, d in net.items() if d > 0)
        zv.update(v for v, d in net.items() if d == 0)
        pdv.add(frozenset(v for v, d in net.items() if d < 0))
    return NodeVarSets(iv=frozenset(iv), zv=frozenset(zv), pdv=frozenset(pdv),
                       dv=frozenset(s - iv for s in pdv))


def referee_progress_sieve(fmp: Fmp) -> Verdict:
    """`progress_sieve`'s verdict, melting one component at a time: each
    nontrivial SCC (from `brute_nontrivial_sccs`, so no SCC code is shared
    with the library) loses its arcs that decrease a variable none of its
    arcs increases, and what is left of it is split again."""
    effects = {e.id: e.effect for e in fmp.edges}
    stack = [DiGraph(frozenset(fmp.qstates),
                     tuple((e.id, e.src, e.dst) for e in fmp.edges))]
    while stack:
        sub = stack.pop()
        for comp in brute_nontrivial_sccs(sub):
            inner = induced(sub, comp)
            decreased: set[str] = set()
            increased: set[str] = set()
            for aid, _, _ in inner.arcs:
                for var, delta in effects[aid].items():
                    if delta < 0:
                        decreased.add(var)
                    elif delta > 0:
                        increased.add(var)
            progress = decreased - increased
            removable = {aid for aid, _, _ in inner.arcs
                         if any(effects[aid].get(x, 0) < 0 for x in progress)}
            if not removable:
                return Verdict(NONTERMINATING_QUALITATIVE,
                               "no-progress-variable")
            stack.append(DiGraph(inner.vertices, tuple(
                a for a in inner.arcs if a[0] not in removable)))
    return Verdict(TERMINATING, "progress")


# -------------------------------------------------------------- policies

def chain_policy() -> Fmp:
    """Acyclic two-state policy, trivially halting."""
    return Fmp(
        variables=(VarDecl("x"),),
        qstates=("q0", "q1"),
        initial="q0",
        edges=(Edge("e1", "q0", "q1", actions=({"x": -1},)),),
    )


def up_loop_policy() -> Fmp:
    """Single self-loop that only increases, runs forever."""
    return Fmp(
        variables=(VarDecl("x"),),
        qstates=("q0",),
        initial="q0",
        edges=(Edge("e1", "q0", "q0", actions=({"x": 1},)),),
    )


def ring_policy(n: int) -> Fmp:
    """An n-qstate ring q0 -> q1 -> ... -> q0 whose first edge decrements x."""
    qs = tuple(f"q{i}" for i in range(n))
    edges = tuple(
        Edge(f"e{i}", qs[i], qs[(i + 1) % n],
             actions=({"x": -1} if i == 0 else {},))
        for i in range(n)
    )
    return Fmp(variables=(VarDecl("x"),), qstates=qs, initial="q0",
               edges=edges)


def chord_ring_policy(n: int) -> Fmp:
    """An n-qstate ring with chords: q_i -> q_{i+1} and q_i -> q_{i+2}
    (indices mod n), every edge decrementing x.

    Removing a few qstates leaves gaps that a walk can jump only one at a
    time, so most simple walks from an entry stall before any exit: a path
    search that does not look ahead spends exponential time on them.
    """
    qs = tuple(f"q{i}" for i in range(n))
    edges = tuple(
        Edge(f"e{i}_{k}", qs[i], qs[(i + k) % n], actions=({"x": -1},))
        for i in range(n) for k in (1, 2)
    )
    return Fmp(variables=(VarDecl("x"),), qstates=qs, initial="q0",
               edges=edges)


def circulant_policy(n: int, steps=(1, 2, 3, 4)) -> Fmp:
    """An n-qstate circulant: q_i -> q_{i+s} and q_i -> q_{i-s} (indices
    mod n) for each s in `steps`, every edge decrementing x. With steps 1
    to 4 its elimination trees are deep: 134 levels at n=300, seed 0."""
    qs = tuple(f"q{i}" for i in range(n))
    edges = tuple(
        Edge(f"e{i}_{sign}{s}", qs[i], qs[(i + sign * s) % n],
             actions=({"x": -1},))
        for i in range(n) for s in steps for sign in (1, -1)
    )
    return Fmp(variables=(VarDecl("x"),), qstates=qs, initial="q0",
               edges=edges)


def two_pair_lasso_policy(names=("e", "a_b", "c", "a", "b_c")) -> Fmp:
    """A policy with a real lasso whose two 2-cycles share no qstate.

    From `e` with x=1, y=1 the run e -> ab -> c -> a -> bc -> e returns to
    its start (x: -1 then +1; y: -1, +2, -1). With the default names the two
    2-cycles {ab, c} and {a, bc} have vertex names whose sorted "_"-joins are
    both "a_b_c": a quotient that named collapsed children that way would
    merge the two and drop the arcs between them as internal.
    """
    e, ab, c, a, bc = names
    return Fmp(
        variables=(VarDecl("x"), VarDecl("y")),
        qstates=names,
        initial=e,
        edges=(
            Edge("e1", e, ab, actions=({"x": -1},)),
            Edge("e2", ab, c, actions=({"y": -1},)),
            Edge("e3", c, ab, actions=({"y": -1},)),
            Edge("e4", c, a, actions=({"x": 1, "y": 2},)),
            Edge("e5", a, bc, actions=({"y": -1},)),
            Edge("e6", bc, a, actions=({"y": -1},)),
            Edge("e7", bc, e),
        ),
    )


def random_small_policy(rng: random.Random, max_q: int = 4,
                        max_vars: int = 3) -> Fmp:
    """Hand-rolled random policy with optional guards, used where the
    library generator would be the thing under test."""
    nq = rng.randint(1, max_q)
    nv = rng.randint(1, max_vars)
    qs = tuple(f"q{i}" for i in range(nq))
    names = [f"x{i}" for i in range(nv)]
    variables = tuple(VarDecl(n, rng.choice([0, 0, 0, -2, 1])) for n in names)
    edges = []
    for k in range(rng.randint(1, 2 * nq + 2)):
        guard = {}
        if rng.random() < 0.4:
            v = rng.choice(names)
            lo = rng.randint(-2, 3)
            hi = None if rng.random() < 0.5 else lo + rng.randint(0, 4)
            guard[v] = (lo, hi)
        actions = []
        for _ in range(rng.randint(1, 2)):
            eff = {}
            for v in rng.sample(names, rng.randint(0, min(2, nv))):
                eff[v] = rng.choice([-2, -1, 1, 2])
            actions.append(eff)
        edges.append(Edge(f"e{k}", rng.choice(qs), rng.choice(qs),
                          Guard(guard), tuple(actions)))
    return Fmp(variables=variables, qstates=qs, initial="q0",
               edges=tuple(edges))


def with_zero_effects(fmp: Fmp) -> Fmp:
    """The policy with `x: 0` appended to each action for every declared
    counter `x` the action does not move: the same runs, spelled out."""
    names = fmp.var_names
    return dataclasses.replace(fmp, edges=tuple(
        dataclasses.replace(e, actions=tuple(
            {**a, **{x: 0 for x in names if x not in a}} for a in e.actions))
        for e in fmp.edges))


def bench_shape_specs(seed: int, count: int) -> list[GenSpec]:
    """`count` generator specs of each bench workload's shape, in the
    bench's seeding: hsieve-mid's 11q/4v, triage-small's 2-6q/1-3v mix and
    oracle-hunt's 8q/2v, all at density 0.4 and deltas up to 2."""
    base = seed * 1_000_000
    return ([GenSpec(11, 4, 0.4, 2, base + i) for i in range(count)]
            + [GenSpec(2 + i % 5, 1 + i % 3, 0.4, 2, base + i)
               for i in range(count)]
            + [GenSpec(8, 2, 0.4, 2, base + i) for i in range(count)])


def referee_generate_random(spec: GenSpec) -> Fmp:
    """The generator as it was before it drew through `getrandbits` alone:
    the same draws made by `random.Random`'s `shuffle`, `choice`, `sample`
    and `randrange`, with fresh names and effect dicts rather than cached
    ones. Kept as the referee for the documents `generate_random` gives."""
    n = spec.n_qstates
    m = math.ceil(spec.edge_density * n * n)
    rng = random.Random(spec.seed)
    choice, sample, randrange = rng.choice, rng.sample, rng.randrange
    qstates = tuple(f"q{i}" for i in range(n))
    var_names = tuple(f"x{i}" for i in range(spec.n_vars))
    d = spec.max_abs_delta

    def delta() -> int:
        # the r-th of the 2d values -d..-1, 1..d, drawn as choice() over
        # that list would draw it, without building the list
        r = randrange(2 * d)
        return r - d + (r >= d)

    pairs: list[tuple[str, str]] = []
    reachable = [qstates[0]]
    rest = list(qstates[1:])
    rng.shuffle(rest)
    for q in rest:
        pairs.append((choice(reachable), q))
        reachable.append(q)
    for _ in range(m - len(pairs)):
        pairs.append((choice(qstates), choice(qstates)))

    # one effect per edge, drawn in edge order once every pair is drawn
    one_var = spec.n_vars == 1
    edges = []
    for i, (src, dst) in enumerate(pairs):
        k = 1 if one_var else choice((1, 2))
        drawn = tuple((v, delta()) for v in sample(var_names, k))
        edges.append(Edge(f"e{i}", src, dst, actions=(dict(drawn),)))
    return Fmp(
        variables=tuple(VarDecl(name=v) for v in var_names),
        qstates=qstates,
        initial=qstates[0],
        edges=tuple(edges),
    )


def guard_free_walks(sub: DiGraph, start: str, rng: random.Random,
                     max_len: int) -> list[tuple[str, str]]:
    """One random walk inside sub from start, as (arc_id, dst) steps."""
    adj: dict[str, list[tuple[str, str]]] = {}
    for (aid, src, dst) in sub.arcs:
        adj.setdefault(src, []).append((aid, dst))
    cur = start
    steps = []
    for _ in range(max_len):
        outs = adj.get(cur)
        if not outs:
            break
        aid, dst = rng.choice(outs)
        steps.append((aid, dst))
        cur = dst
    return steps


def iter_nodes(forest):
    for tree in forest.trees:
        yield from tree.walk()


# ------------------------------------------------- reference interpreter

def enabled(edge: Edge, state: ConcreteState, bounds: Mapping[str, int]
            ) -> bool:
    """True iff the guard holds and the post-state respects every lower
    bound of `bounds` (the policy's)."""
    for var, (lo, hi) in edge.guard.conjuncts.items():
        v = state.values[var]
        if v < lo or (hi is not None and v > hi):
            return False
    for var, delta in edge.effect.items():
        if state.values[var] + delta < bounds[var]:
            return False
    return True


def apply_edge(edge: Edge, state: ConcreteState) -> ConcreteState:
    """The state after taking the edge (caller checks enabled() first)."""
    vals = dict(state.values)
    for var, delta in edge.effect.items():
        vals[var] = vals[var] + delta
    return ConcreteState(values=vals)


def replay_lasso(fmp: Fmp, witness) -> None:
    """Check a lasso witness step by step with the reference interpreter."""
    cfg = witness.start
    for eid, nxt in witness.steps:
        options = [
            dataclasses.replace(e, actions=(action,))
            for e in fmp.edges if e.src == cfg.qstate and e.id == eid
            for action in e.actions
        ]
        assert any(
            enabled(e, cfg.state, fmp.bounds)
            and Configuration(e.dst, apply_edge(e, cfg.state)) == nxt
            for e in options
        ), f"step {eid} not enabled at {cfg}"
        cfg = nxt
    cfgs = witness.configurations()
    assert 0 <= witness.cycle_start < len(cfgs) - 1
    assert cfg == cfgs[witness.cycle_start], "cycle does not close"


def referee_successors(fmp: Fmp, cfg: Configuration
                       ) -> list[tuple[str, Configuration]]:
    """Enabled (edge id, successor) pairs, one per action, in edge
    declaration order then action order."""
    out = []
    for e in fmp.edges:
        if e.src != cfg.qstate:
            continue
        for action in e.actions:
            one = dataclasses.replace(e, actions=(action,))
            if enabled(one, cfg.state, fmp.bounds):
                out.append((e.id, Configuration(e.dst,
                                                apply_edge(one, cfg.state))))
    return out


def referee_explore(fmp: Fmp, s0: ConcreteState,
                    caps: ExploreCaps | None = None) -> ExploreResult:
    """The oracle's DFS re-done on `referee_successors`, with
    configurations keyed by (qstate, sorted values)."""
    caps = caps if caps is not None else ExploreCaps()
    max_value = caps.max_value
    if max_value is None:
        top_delta = max((abs(d) for e in fmp.edges for a in e.actions
                         for d in a.values()), default=0)
        top = max(s0.values.values(), default=0)
        max_value = max(64, 64 * (top + top_delta))

    def key(cfg):
        return cfg.qstate, tuple(sorted(cfg.state.values.items()))

    def in_goal(cfg):
        return all(lo <= cfg.state.values[x] and (hi is None
                                                  or cfg.state.values[x] <= hi)
                   for x, (lo, hi) in fmp.goal.items())

    stats = {"expanded": 0, "halting": 0, "value_cap_hits": 0,
             "config_cap": 0}
    on_path: dict = {}  # key -> index on the path
    done: set = set()
    path: list = []  # [configuration, edge in, successors, next index]
    goal_hits = 0

    def expand(cfg, edge_in):
        nonlocal goal_hits
        on_path[key(cfg)] = len(path)
        stats["expanded"] += 1
        succ = referee_successors(fmp, cfg)
        if not succ:
            stats["halting"] += 1
            goal_hits += fmp.goal is not None and in_goal(cfg)
        path.append([cfg, edge_in, succ, 0])

    expand(Configuration(fmp.initial, s0), None)
    while path:
        frame = path[-1]
        cfg, _, succ, i = frame
        if i == len(succ):
            path.pop()
            del on_path[key(cfg)]
            done.add(key(cfg))
            continue
        frame[3] += 1
        eid, nxt = succ[i]
        if max(nxt.state.values.values(), default=0) > max_value:
            stats["value_cap_hits"] += 1
            continue
        k = key(nxt)
        if k in done:
            continue
        if k in on_path:
            cfgs = [f[0] for f in path] + [nxt]
            edges = [f[1] for f in path[1:]] + [eid]
            witness = LassoWitness(lambda cfg: cfg, cfgs, edges, on_path[k])
            return ExploreResult(LASSO_FOUND, witness, stats)
        if stats["expanded"] >= caps.max_configs:
            stats["config_cap"] = 1
            return ExploreResult(INCONCLUSIVE, None, stats)
        expand(nxt, eid)
    if stats["value_cap_hits"]:
        return ExploreResult(INCONCLUSIVE, None, stats)
    report = None
    if fmp.goal is not None:
        report = goal_hits / stats["halting"] if stats["halting"] else 0.0
    return ExploreResult(ALL_HALT, None, stats, report)


def referee_explore_grid(fmp: Fmp, grid_max: int,
                          caps: ExploreCaps | None = None
                          ) -> list[tuple[ConcreteState, ExploreResult]]:
    """explore_grid without sharing: `referee_explore` per start, in grid
    order, up to the first start that finds a lasso."""
    out = []
    for s0 in grid_states(fmp, grid_max):
        res = referee_explore(fmp, s0, caps)
        out.append((s0, res))
        if res.kind == LASSO_FOUND:
            break
    return out


def referee_run_random(fmp: Fmp, s0: ConcreteState, max_steps: int,
                       seed: int) -> SimTrace:
    """run_random on `referee_successors`: the same choices per seed."""
    rng = random.Random(seed)
    cfg = Configuration(fmp.initial, s0)
    steps = []
    for _ in range(max_steps):
        succ = referee_successors(fmp, cfg)
        if not succ:
            return SimTrace(tuple(steps), True)
        eid, cfg = rng.choice(succ)
        steps.append((eid, cfg))
    return SimTrace(tuple(steps), not referee_successors(fmp, cfg))


# ------------------------------------------------------- policy documents

def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


_INT = frozenset((int,))


def referee_validate(fmp: Fmp) -> list[Violation]:
    """An independent `model.validate`, kept apart from the walk that
    `Fmp.violations` caches: every element walked, violations in the same
    order."""
    out: list[Violation] = []
    declared: set[str] = set()
    for v in fmp.variables:
        if v.name in declared:
            out.append(Violation("duplicate-variable", v.name))
        declared.add(v.name)
        if not _is_int(v.lower_bound):
            out.append(Violation("bad-lower-bound", f"{v.name}={v.lower_bound!r}"))

    seen_q: set[str] = set()
    for q in fmp.qstates:
        if q in seen_q:
            out.append(Violation("duplicate-qstate", q))
        seen_q.add(q)

    if fmp.initial not in seen_q:
        out.append(Violation("unknown-initial", fmp.initial))

    seen_ids: set[str] = set()
    for e in fmp.edges:
        eid = e.id
        if eid in seen_ids:
            out.append(Violation("duplicate-edge-id", eid))
        seen_ids.add(eid)
        if e.src not in seen_q:
            out.append(Violation("unknown-qstate", f"edge {eid} src={e.src}"))
        if e.dst not in seen_q:
            out.append(Violation("unknown-qstate", f"edge {eid} dst={e.dst}"))
        for var, (lo, hi) in e.guard.conjuncts.items():
            if var not in declared:
                out.append(Violation("undeclared-variable", f"edge {eid} guard {var}"))
            if not _is_int(lo) or (hi is not None and not _is_int(hi)):
                out.append(Violation("bad-guard-bound", f"edge {eid} guard {var}"))
            elif hi is not None and lo > hi:
                out.append(Violation("guard-empty-interval", f"edge {eid} guard {var}"))
        for k, action in enumerate(e.actions):
            # an action whose variables are declared and whose deltas are
            # all exactly int has nothing to report
            if declared.issuperset(action) and _INT.issuperset(
                    map(type, action.values())):
                continue
            for var, delta in action.items():
                if var not in declared:
                    out.append(Violation(
                        "undeclared-variable", f"edge {eid} action[{k}] {var}"))
                if not _is_int(delta):
                    out.append(Violation(
                        "non-integer-effect", f"edge {eid} action[{k}] {var}"))

    for t in fmp.terminal:
        if t not in seen_q:
            out.append(Violation("unknown-terminal", t))
    if fmp.terminal:
        terminal = set(fmp.terminal)
        for e in fmp.edges:
            if e.src in terminal:
                out.append(Violation("terminal-has-outgoing", f"{e.src} via {e.id}"))

    if fmp.goal is not None:
        for var, (lo, hi) in fmp.goal.items():
            if var not in declared:
                out.append(Violation("goal-unknown-variable", var))
            if not _is_int(lo) or (hi is not None and not _is_int(hi)):
                out.append(Violation("bad-goal-bound", var))
            elif hi is not None and lo > hi:
                out.append(Violation("goal-empty-interval", var))
    return out


def _need(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise PolicyFormatError(f"missing-field:{key}", where)
    return obj[key]


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    for k in obj:
        if k not in allowed:
            raise PolicyFormatError(f"unknown-field:{k}", where)


def _as_str(x: Any, where: str) -> str:
    if not isinstance(x, str):
        raise PolicyFormatError("expected-string", where, repr(x))
    return x


def _as_int(x: Any, where: str) -> int:
    if not _is_int(x):
        raise PolicyFormatError("expected-integer", where, repr(x))
    return x


def _as_list(x: Any, where: str) -> list:
    if not isinstance(x, list):
        raise PolicyFormatError("expected-array", where, repr(x))
    return x


def _as_obj(x: Any, where: str) -> dict:
    if not isinstance(x, dict):
        raise PolicyFormatError("expected-object", where, repr(x))
    return x


def _parse_effect(x: Any, where: str) -> dict[str, int]:
    obj = _as_obj(x, where)
    out = {}
    for var, delta in obj.items():
        if not _is_int(delta):
            raise PolicyFormatError("non-integer-effect", f"{where}.{var}", repr(delta))
        out[var] = delta
    return out


def _parse_edge(x: Any, where: str) -> Edge:
    obj = _as_obj(x, where)
    _check_keys(obj, {"id", "from", "to", "guard", "effects", "label"}, where)
    eid = _as_str(_need(obj, "id", where), f"{where}.id")
    src = _as_str(_need(obj, "from", where), f"{where}.from")
    dst = _as_str(_need(obj, "to", where), f"{where}.to")
    conjuncts: dict[str, tuple[int, int | None]] = {}
    for j, c in enumerate(_as_list(obj.get("guard", []), f"{where}.guard")):
        cwhere = f"{where}.guard[{j}]"
        cobj = _as_obj(c, cwhere)
        _check_keys(cobj, {"var", "min", "max"}, cwhere)
        var = _as_str(_need(cobj, "var", cwhere), f"{cwhere}.var")
        if var in conjuncts:
            raise PolicyFormatError("duplicate-guard-var", cwhere, var)
        lo = _as_int(_need(cobj, "min", cwhere), f"{cwhere}.min")
        hi = _as_int(cobj["max"], f"{cwhere}.max") if "max" in cobj else None
        conjuncts[var] = (lo, hi)
    raw_effects = _need(obj, "effects", where)
    if isinstance(raw_effects, list):
        actions = tuple(
            _parse_effect(a, f"{where}.effects[{k}]")
            for k, a in enumerate(raw_effects)
        )
    else:
        actions = (_parse_effect(raw_effects, f"{where}.effects"),)
    label = None
    if "label" in obj:
        label = _as_str(obj["label"], f"{where}.label")
    return Edge(id=eid, src=src, dst=dst, guard=Guard(conjuncts),
                actions=actions, label=label)


def referee_parse_policy(text: str) -> Fmp:
    """The document parser as it was before its checks were inlined: every
    location string is built eagerly and each check is its own helper.
    Kept verbatim as the referee for `parse_policy`'s codes, locations,
    messages and results."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is one
        raise PolicyFormatError("bad-json", "$", str(exc)) from exc
    top = _as_obj(doc, "$")
    _check_keys(
        top,
        {"format_version", "variables", "qstates", "initial", "edges",
         "terminal", "goal"},
        "$",
    )
    version = _need(top, "format_version", "$")
    if not _is_int(version) or version != FORMAT_VERSION:
        raise PolicyFormatError(
            "unsupported-format-version", "$.format_version", repr(version)
        )

    variables = []
    for i, v in enumerate(_as_list(_need(top, "variables", "$"), "$.variables")):
        where = f"$.variables[{i}]"
        vobj = _as_obj(v, where)
        _check_keys(vobj, {"name", "lower_bound"}, where)
        name = _as_str(_need(vobj, "name", where), f"{where}.name")
        lb = _as_int(vobj.get("lower_bound", 0), f"{where}.lower_bound")
        variables.append(VarDecl(name=name, lower_bound=lb))

    qstates = tuple(
        _as_str(q, f"$.qstates[{i}]")
        for i, q in enumerate(_as_list(_need(top, "qstates", "$"), "$.qstates"))
    )
    initial = _as_str(_need(top, "initial", "$"), "$.initial")
    edges = tuple(
        _parse_edge(e, f"$.edges[{i}]")
        for i, e in enumerate(_as_list(_need(top, "edges", "$"), "$.edges"))
    )
    terminal = tuple(
        _as_str(t, f"$.terminal[{i}]")
        for i, t in enumerate(_as_list(top.get("terminal", []), "$.terminal"))
    )
    goal = None
    if "goal" in top:
        gobj = _as_obj(top["goal"], "$.goal")
        goal = {}
        for var, iv in gobj.items():
            where = f"$.goal.{var}"
            lst = _as_list(iv, where)
            if len(lst) not in (1, 2):
                raise PolicyFormatError("bad-goal-interval", where, repr(iv))
            lo = _as_int(lst[0], f"{where}[0]")
            hi = _as_int(lst[1], f"{where}[1]") if len(lst) == 2 else None
            goal[var] = (lo, hi)

    return Fmp(
        variables=tuple(variables),
        qstates=qstates,
        initial=initial,
        edges=edges,
        terminal=terminal,
        goal=goal,
    )


def referee_serialize_policy(fmp: Fmp) -> str:
    """The serializer as it was before its text was built from templates:
    the document as a dict, written by `json.dumps(doc, indent=2)`. Kept
    as the referee for every byte `serialize_policy` writes."""
    doc: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "variables": [
            {"name": v.name, "lower_bound": v.lower_bound} for v in fmp.variables
        ],
        "qstates": list(fmp.qstates),
        "initial": fmp.initial,
        "edges": [],
    }
    for e in fmp.edges:
        eobj: dict[str, Any] = {"id": e.id, "from": e.src, "to": e.dst}
        eobj["guard"] = [
            {"var": var, "min": lo} if hi is None
            else {"var": var, "min": lo, "max": hi}
            for var, (lo, hi) in sorted(e.guard.conjuncts.items())
        ]
        if len(e.actions) == 1:
            eobj["effects"] = dict(sorted(e.actions[0].items()))
        else:
            eobj["effects"] = [dict(sorted(a.items())) for a in e.actions]
        if e.label is not None:
            eobj["label"] = e.label
        doc["edges"].append(eobj)
    if fmp.terminal:
        doc["terminal"] = list(fmp.terminal)
    if fmp.goal is not None:
        doc["goal"] = {
            var: [lo] if hi is None else [lo, hi]
            for var, (lo, hi) in sorted(fmp.goal.items())
        }
    return json.dumps(doc, indent=2) + "\n"

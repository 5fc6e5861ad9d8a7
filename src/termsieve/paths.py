"""Path-set summaries over elimination tree nodes.

Two families of paths are summarized per node. Cycle paths live in the node's
quotient graph: they start and end at the elimination vertex (visiting it
exactly twice) and repeat no other quotient vertex. Through paths live in the
induced subgraph on the node's original vertices: they are vertex-simple
walks from an entry boundary vertex to an exit boundary vertex with at least
one edge. Parallel arcs yield distinct paths; component vertices contribute
zero effect (their internal arcs are not traversed at all).

Per-node enumeration is capped; blowing the cap raises PathCapExceeded, which
callers convert into a resource-cap verdict rather than an unsound answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .decomposition import DetNode, QuotientGraph, quotient
from .graphs import DiGraph, boundary, induced
from .model import Effect, accumulate

DEFAULT_PATH_CAP = 100_000

VarSetFamily = frozenset[frozenset[str]]


class InvalidNodeError(ValueError):
    """Raised for degenerate nodes (empty vertex set, foreign elim vertex)."""


class PathCapExceeded(Exception):
    def __init__(self, node: DetNode, cap: int):
        super().__init__(
            f"more than {cap} path summaries at node "
            f"({','.join(sorted(node.vertices))}, {node.elim})"
        )
        self.node = node
        self.cap = cap


@dataclass(frozen=True)
class PathSummary:
    """One enumerated path: its kind, traversed edge ids, and net effect.

    `net` keys are exactly the variables some traversed edge moves; a key
    mapped to 0 records moves that cancel along the path.
    """

    kind: str  # "cycle" | "through"
    edge_ids: tuple[str, ...]
    net: Mapping[str, int]


@dataclass(frozen=True)
class NodeVarSets:
    """Aggregated variable sets for one node (or one whole tree at its root)."""

    iv: frozenset[str]
    zv: frozenset[str]
    pdv: VarSetFamily
    dv: VarSetFamily


class PathContext:
    """Enumeration context for one graph version.

    Holds the current (possibly pruned) policy graph, the effect of every
    edge id, the policy's initial qstate, and the per-node summary cap.
    Quotients and path sets are cached per node, so a node is enumerated at
    most once per context no matter how many recursions visit it.
    """

    def __init__(
        self,
        graph: DiGraph,
        effects: Mapping[str, Effect],
        q0: str | None,
        path_cap: int = DEFAULT_PATH_CAP,
    ):
        self.graph = graph
        self.effects = effects
        self.q0 = q0
        self.path_cap = path_cap
        self._quotients: dict[DetNode, QuotientGraph] = {}
        self._paths: dict[DetNode, tuple[PathSummary, ...]] = {}

    def quotient(self, node: DetNode) -> QuotientGraph:
        q = self._quotients.get(node)
        if q is None:
            q = quotient(self.graph, node)
            self._quotients[node] = q
        return q

    def paths(self, node: DetNode) -> tuple[PathSummary, ...]:
        ps = self._paths.get(node)
        if ps is None:
            ps = _enumerate_node(node, self)
            self._paths[node] = ps
        return ps


def _check_node(node: DetNode) -> None:
    if not node.vertices:
        raise InvalidNodeError("invalid-node: empty vertex set")
    if node.elim not in node.vertices:
        raise InvalidNodeError(
            f"invalid-node: elim {node.elim} outside vertex set"
        )


def _reverse_reachable(g: DiGraph, targets: Iterable[str]) -> set[str]:
    """Vertices with a (possibly empty) path into `targets`."""
    radj: dict[str, list[str]] = {v: [] for v in g.vertices}
    for _, src, dst in g.arcs:
        radj[dst].append(src)
    seen = set(targets)
    stack = list(seen)
    while stack:
        v = stack.pop()
        for u in radj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def _summary(kind: str, edge_ids: list[str],
             effects: Mapping[str, Effect]) -> PathSummary:
    net: dict[str, int] = {}
    for eid in edge_ids:
        accumulate(net, effects[eid])
    return PathSummary(kind=kind, edge_ids=tuple(edge_ids), net=net)


def _enumerate_node(node: DetNode, ctx: PathContext) -> tuple[PathSummary, ...]:
    _check_node(node)
    out: list[PathSummary] = []

    def emit(kind: str, arcs: list[str]) -> None:
        if len(out) >= ctx.path_cap:
            raise PathCapExceeded(node, ctx.path_cap)
        out.append(_summary(kind, arcs, ctx.effects))

    q = ctx.quotient(node).graph
    _emit_cycles(q, node.elim, emit)

    entries, exits = boundary(ctx.graph, node.vertices, ctx.q0)
    if entries and exits:
        sub = induced(ctx.graph, node.vertices)
        _emit_through(sub, entries, exits, emit)

    return tuple(out)


def _emit_cycles(q: DiGraph, elim: str, emit) -> None:
    """DFS all elim-to-elim paths of `q` repeating no other vertex."""
    adj = q.adjacency()
    to_elim = _reverse_reachable(q, (elim,))
    visited: set[str] = set()
    arcs: list[str] = []

    def dfs(v: str) -> None:
        for aid, w in adj[v]:
            if w == elim:
                arcs.append(aid)
                emit("cycle", arcs)
                arcs.pop()
            elif w not in visited and w in to_elim:
                visited.add(w)
                arcs.append(aid)
                dfs(w)
                arcs.pop()
                visited.discard(w)

    dfs(elim)


def _emit_through(sub: DiGraph, entries: frozenset[str],
                  exits: frozenset[str], emit) -> None:
    """DFS all vertex-simple entry-to-exit paths of `sub` (>= 1 edge each)."""
    adj = sub.adjacency()
    to_exit = _reverse_reachable(sub, exits)

    def dfs(v: str, visited: set[str], arcs: list[str]) -> None:
        for aid, w in adj[v]:
            if w in visited or w not in to_exit:
                continue
            visited.add(w)
            arcs.append(aid)
            if w in exits:
                emit("through", arcs)
            dfs(w, visited, arcs)
            arcs.pop()
            visited.discard(w)

    for start in sorted(entries):
        if start in to_exit:
            dfs(start, {start}, [])


def boxminus(family: Iterable[Iterable[str]], iv: Iterable[str]) -> VarSetFamily:
    """Element-wise set difference over a family of variable sets.

    Can introduce the empty set (when some element is swallowed whole) but
    never removes it.
    """
    ivs = frozenset(iv)
    return frozenset(frozenset(s) - ivs for s in family)


def var_sets(node: DetNode, ctx: PathContext) -> NodeVarSets:
    """Aggregated variable sets over the subtree rooted at `node`.

    A variable joins `iv` when some path of the subtree nets it strictly
    positive, and `zv` when some path touches it with net exactly zero.
    `pdv` holds each path's strict-decrease set, and `dv` is `pdv` with `iv`
    removed from every member.
    """
    iv: set[str] = set()
    zv: set[str] = set()
    pdv: set[frozenset[str]] = set()
    for n in node.walk():
        for p in ctx.paths(n):
            dec = []
            for var, delta in p.net.items():
                if delta > 0:
                    iv.add(var)
                elif delta < 0:
                    dec.append(var)
                else:
                    zv.add(var)
            pdv.add(frozenset(dec))
    return NodeVarSets(iv=frozenset(iv), zv=frozenset(zv), pdv=frozenset(pdv),
                       dv=boxminus(pdv, iv))

"""Path-set summaries over elimination tree nodes.

Two families of paths are summarized per node, both found by one iterative
simple-path DFS. Cycle paths live in the node's quotient graph, where each
child is collapsed onto its own elimination vertex: they start and end at the
node's elimination vertex (visiting it exactly twice) and repeat no other
quotient vertex. Through paths live in the induced subgraph on the node's
original vertices: they are vertex-simple walks from an entry boundary vertex
to an exit boundary vertex with at least one edge. Parallel arcs yield
distinct paths; a collapsed child contributes zero effect (its internal arcs
are not traversed at all). Nothing is cached: each `PathContext.paths` call
enumerates its node afresh.

Per-node enumeration is capped; blowing the cap raises PathCapExceeded, which
callers convert into a resource-cap verdict rather than an unsound answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable, Iterator, Mapping

from .decomposition import DetNode, quotient
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

    def paths(self, node: DetNode) -> tuple[PathSummary, ...]:
        """Every cycle path, then every through path, of one node."""
        _check_node(node)
        out: list[PathSummary] = []

        def add(kind: str, arcs: list[str]) -> None:
            if len(out) >= self.path_cap:
                raise PathCapExceeded(node, self.path_cap)
            out.append(_summary(kind, arcs, self.effects))

        q = quotient(self.graph, node)
        for arcs in _simple_paths(q.adjacency(), node.elim, {node.elim},
                                  q.vertices - {node.elim}):
            add("cycle", arcs)

        entries, exits = boundary(self.graph, node.vertices, self.q0)
        if entries and exits:
            sub = induced(self.graph, node.vertices)
            adj = sub.adjacency()
            for start in sorted(entries):
                for arcs in _simple_paths(adj, start, exits, sub.vertices):
                    add("through", arcs)
        return tuple(out)


def _check_node(node: DetNode) -> None:
    if not node.vertices:
        raise InvalidNodeError("invalid-node: empty vertex set")
    if node.elim not in node.vertices:
        raise InvalidNodeError(
            f"invalid-node: elim {node.elim} outside vertex set"
        )


def _summary(kind: str, edge_ids: list[str],
             effects: Mapping[str, Effect]) -> PathSummary:
    net: dict[str, int] = {}
    for eid in edge_ids:
        accumulate(net, effects[eid])
    return PathSummary(kind=kind, edge_ids=tuple(edge_ids), net=net)


def _simple_paths(adj: Mapping[str, list[tuple[str, str]]], start: str,
                  targets: AbstractSet[str],
                  passable: AbstractSet[str]) -> Iterator[list[str]]:
    """Iterative DFS over the arc sequences that leave `start`, step only
    onto vertices not yet on the path, and end on a `targets` vertex.

    The walk continues past a vertex only when it is `passable`, so prefixes
    that end on a target are yielded too. `start` is on the path from the
    outset when it is passable; a start outside `passable` may be stepped
    onto once more, which is how a cycle path closes on its elim. Each
    yielded list is the live path and changes once the caller resumes.
    """
    on_path = {start} if start in passable else set()
    arcs: list[str] = []
    stack = [(start, iter(adj[start]))]
    while stack:
        v, out = stack[-1]
        for aid, w in out:
            if w in on_path:
                continue
            arcs.append(aid)
            if w in targets:
                yield arcs
            if w in passable:
                on_path.add(w)
                stack.append((w, iter(adj[w])))
                break
            arcs.pop()
        else:
            stack.pop()
            if stack:  # v was entered by the last arc
                arcs.pop()
                on_path.discard(v)


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

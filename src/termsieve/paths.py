"""Path keys over elimination tree nodes.

Two families of paths are enumerated per node, both by one iterative
simple-path DFS. Cycle paths live in the node's quotient graph, where each
child is collapsed onto its own elimination vertex: they start and end at the
node's elimination vertex (visiting it exactly twice) and repeat no other
quotient vertex. Through paths live in the induced subgraph on the node's
original vertices: they are vertex-simple walks from an entry boundary vertex
to an exit boundary vertex with at least one edge. Parallel arcs yield
distinct paths; a collapsed child contributes zero effect (its internal arcs
are not traversed at all).

Every edge carries an integer weight from the policy's `EffectCode`, and a
path's effect is the sum of its arc weights: its key. Each DFS frame holds
the key of the path that reached it, so a step costs one addition and a
backtrack none. The
variable sets need only each path's net signs, so `var_sets` folds the
distinct keys of a tree and decodes each once; `PathContext.paths` decodes
every path into a `PathSummary` for callers that want edge ids. Nothing is
cached: each call enumerates its node afresh.

Per-node enumeration is capped by the number of paths emitted, not of
distinct keys; blowing the cap raises PathCapExceeded, which callers convert
into a resource-cap verdict rather than an unsound answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable, Iterator, Mapping

from .decomposition import DetNode, quotient
from .graphs import DiGraph, boundary, induced
from .model import EffectCode

DEFAULT_PATH_CAP = 100_000

VarSetFamily = frozenset[frozenset[str]]


class InvalidNodeError(ValueError):
    """Raised for degenerate nodes (empty vertex set, foreign elim vertex)."""


class PathCapExceeded(Exception):
    def __init__(self, node: DetNode, cap: int):
        super().__init__(
            f"more than {cap} paths at node "
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

    Holds the current (possibly pruned) policy graph, the effect code of the
    policy's edges, the policy's initial qstate, and the per-node path cap.
    The DFS sums each path's arc weights into one integer key as it goes;
    `code.net` reads a key back as the path's net effect.
    """

    def __init__(
        self,
        graph: DiGraph,
        code: EffectCode,
        q0: str | None,
        path_cap: int = DEFAULT_PATH_CAP,
    ):
        self.graph = graph
        self.code = code
        self.q0 = q0
        self.path_cap = path_cap

    def paths(self, node: DetNode) -> tuple[PathSummary, ...]:
        """Every cycle path, then every through path, of one node."""
        net = self.code.net
        return tuple(PathSummary(kind, tuple(arcs), net(key))
                     for kind, key, arcs in self._emit(node))

    def _emit(self, node: DetNode) -> Iterator[tuple[str, int, list[str]]]:
        """(kind, key, live arcs) per path of one node, in `paths` order.

        Raises PathCapExceeded on the first path past the cap, however
        many of the paths before it share a key.
        """
        _check_node(node)
        weight = self.code.weight
        q = quotient(self.graph, node)
        searches = [("cycle", _simple_paths(q.adjacency(), weight, node.elim,
                                            {node.elim},
                                            q.vertices - {node.elim}))]
        entries, exits = boundary(self.graph, node.vertices, self.q0)
        if entries and exits:
            sub = induced(self.graph, node.vertices)
            adj = sub.adjacency()
            searches += [("through", _simple_paths(adj, weight, start, exits,
                                                   sub.vertices))
                         for start in sorted(entries)]
        left = self.path_cap
        for kind, found in searches:
            for key, arcs in found:
                if not left:
                    raise PathCapExceeded(node, self.path_cap)
                left -= 1
                yield kind, key, arcs


def _check_node(node: DetNode) -> None:
    if not node.vertices:
        raise InvalidNodeError("invalid-node: empty vertex set")
    if node.elim not in node.vertices:
        raise InvalidNodeError(
            f"invalid-node: elim {node.elim} outside vertex set"
        )


def _simple_paths(adj: Mapping[str, list[tuple[str, str]]],
                  weight: Mapping[str, int], start: str,
                  targets: AbstractSet[str],
                  passable: AbstractSet[str]) -> Iterator[tuple[int, list[str]]]:
    """Iterative DFS over the arc sequences that leave `start`, step only
    onto vertices not yet on the path, and end on a `targets` vertex.

    The walk continues past a vertex only when it is `passable`, so prefixes
    that end on a target are yielded too. `start` is on the path from the
    outset when it is passable; a start outside `passable` may be stepped
    onto once more, which is how a cycle path closes on its elim. Each
    path is yielded as the sum of its arcs' `weight` and the live arc list,
    which changes once the caller resumes.
    """
    on_path = {start} if start in passable else set()
    arcs: list[str] = []
    stack = [(start, iter(adj[start]), 0)]
    while stack:
        v, out, key = stack[-1]
        for aid, w in out:
            if w in on_path:
                continue
            arcs.append(aid)
            if w in targets:
                yield key + weight[aid], arcs
            if w in passable:
                on_path.add(w)
                stack.append((w, iter(adj[w]), key + weight[aid]))
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
    removed from every member. Paths with one key share these sets, so
    each distinct key is decoded once.
    """
    keys: set[int] = set()
    for n in node.walk():
        keys.update(key for _, key, _ in ctx._emit(n))
    iv: set[str] = set()
    zv: set[str] = set()
    pdv: set[frozenset[str]] = set()
    for key in keys:
        dec = []
        for var, delta in ctx.code.net(key).items():
            if delta > 0:
                iv.add(var)
            elif delta < 0:
                dec.append(var)
            else:
                zv.add(var)
        pdv.add(frozenset(dec))
    return NodeVarSets(iv=frozenset(iv), zv=frozenset(zv), pdv=frozenset(pdv),
                       dv=boxminus(pdv, iv))

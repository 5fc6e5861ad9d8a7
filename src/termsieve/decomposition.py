"""Directed elimination forests and quotient graphs.

An elimination tree node pairs a vertex set with one elimination vertex; its
children are the nontrivial SCCs left after deleting that vertex. A forest
holds one tree per nontrivial SCC of the input graph. A node's quotient
graph collapses each child onto the child's own elimination vertex, so every
quotient vertex is a real qstate and distinct children never share a vertex.

Elimination vertices are drawn in preorder by one `random.Random(seed)`,
each by `choice` from the node's vertices in name order, so one integer
seed fixes the whole forest.

`Splits` holds what the forests of one graph share: the graph compiled to
bit masks (`graphs.SccGraph`) and the nontrivial SCCs left by each (vertex
set, elim), split once. `build_def` draws one forest from a `Splits`. Each
draw builds its own nodes; two trees are the same tree when they are equal,
by `DetNode`'s structural hash and equality.

`quotient`, on a string-keyed `graphs.DiGraph`, is a test referee for
`paths.PathContext.quotient`; it stays here because the bench tracer wraps
it by name.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .graphs import DiGraph, SccGraph


class DetNode:
    """A tree node: a vertex set, its elimination vertex and its children.

    Treat it as immutable. A forest can be deeper than Python's recursion
    limit, so the hash is computed once, from the children's, and equality
    and every traversal use explicit stacks.
    """

    __slots__ = ("vertices", "elim", "children", "_hash")

    def __init__(self, vertices: frozenset[str], elim: str,
                 children: tuple["DetNode", ...]):
        self.vertices = vertices
        self.elim = elim
        self.children = children
        # a child's __hash__ returns its stored hash: no recursion here
        self._hash = hash((vertices, elim, children))

    def __repr__(self) -> str:
        return (f"DetNode(vertices={self.vertices!r}, elim={self.elim!r}, "
                f"children=<{len(self.children)}>)")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DetNode):
            return NotImplemented
        pairs = [(self, other)]
        for a, b in pairs:  # the loop also visits the pairs appended below
            if a is not b:
                if (a._hash != b._hash or a.elim != b.elim
                        or a.vertices != b.vertices
                        or len(a.children) != len(b.children)):
                    return False
                if a.children:
                    pairs += zip(a.children, b.children)
        return True

    def walk(self) -> list["DetNode"]:
        """Preorder traversal of the subtree rooted here."""
        out: list[DetNode] = []
        stack = [self]
        while stack:
            node = stack.pop()
            out.append(node)
            if node.children:
                stack += node.children[::-1]
        return out


@dataclass(frozen=True, slots=True)
class DefForest:
    trees: tuple[DetNode, ...]
    seed: int


class _Part:
    """A vertex set some node of a forest holds, with what its elims give."""

    __slots__ = ("mask", "vertices", "places", "splits")

    def __init__(self, sg: SccGraph, mask: int):
        self.mask = mask
        # copied from a set, the frozenset's table is sized for its
        # entries: up to half that of one grown from the names one by one
        self.vertices = frozenset(set(sg.vertices(mask)))
        # what `choice` draws from: the place of the elim in name order
        self.places = range(len(self.vertices))
        # elim place -> the elim and the nontrivial SCCs left without it
        self.splits: dict[int, tuple[str, tuple[_Part, ...]]] = {}


class Splits:
    """What the forests drawn on one compiled graph share: the nontrivial
    SCCs left by each (vertex set, elim) a forest has drawn, split once.
    """

    def __init__(self, sg: SccGraph):
        self._sg = sg
        self._parts: dict[int, _Part] = {}
        self._roots = self._split(sg.all)

    def cyclic_sccs(self) -> tuple[int, ...]:
        """The masks of the whole graph's nontrivial SCCs."""
        return tuple(part.mask for part in self._roots)

    def _split(self, mask: int) -> tuple[_Part, ...]:
        """The nontrivial SCCs of the subgraph on `mask`, in canonical order."""
        sg, parts = self._sg, self._parts
        out = []
        for comp in sg.sccs(mask):
            if sg.cyclic(comp):
                part = parts.get(comp)
                if part is None:
                    part = parts[comp] = _Part(sg, comp)
                out.append(part)
        return tuple(out)

    def _cut(self, part: _Part, j: int) -> tuple[str, tuple[_Part, ...]]:
        """The `j`-th vertex of `part` in name order, and the nontrivial
        SCCs left without it."""
        sg = self._sg
        elim = sg.vertices(part.mask)[j]
        return elim, self._split(part.mask ^ 1 << sg.index[elim])

    def draw(self, seed: int) -> tuple[DetNode, ...]:
        """The trees of the forest that `seed` draws, in canonical order."""
        choice = random.Random(seed).choice
        trees = []
        for part in self._roots:
            # frames: vertex set, elim, child sets left, children built
            stack: list[tuple[_Part, str, Iterator[_Part], list[DetNode]]] = []
            while True:  # enter `part`: draw its elim, then its children
                j = choice(part.places)
                got = part.splits.get(j)
                if got is None:
                    got = part.splits[j] = self._cut(part, j)
                elim, kids = got
                if kids:
                    todo = iter(kids)
                    stack.append((part, elim, todo, []))
                    part = next(todo)
                    continue
                node = DetNode(part.vertices, elim, ())
                # close the frames whose children are all built, and go on
                # with the next child left, or end the tree
                while stack:
                    parent, up, todo, built = stack[-1]
                    built.append(node)
                    part = next(todo, None)
                    if part is not None:
                        break
                    stack.pop()
                    node = DetNode(parent.vertices, up, tuple(built))
                else:
                    trees.append(node)
                    break
        return tuple(trees)


def build_def(splits: Splits, seed: int) -> DefForest:
    """One elimination tree per nontrivial SCC of the graph `splits` was
    made on, in canonical order.

    `splits` holds what earlier forests of the graph split; the seed alone
    still fixes the forest.
    """
    return DefForest(trees=splits.draw(seed), seed=seed)


def quotient(g: DiGraph, node: DetNode) -> DiGraph:
    """Collapse each child of `node` onto the child's own elim vertex.

    Works inside the induced subgraph on the node's vertices. Arcs internal
    to one child are dropped; every other arc survives under its original id,
    with endpoints inside a child redirected to that child's elim. Arc
    multiplicity is preserved.
    """
    rep: dict[str, str] = {}
    for child in node.children:
        for v in child.vertices:
            rep[v] = child.elim
    arcs = []
    for aid, src, dst in g.arcs:
        if src not in node.vertices or dst not in node.vertices:
            continue
        s2 = rep.get(src, src)
        d2 = rep.get(dst, dst)
        if s2 == d2 and src in rep:
            continue  # internal to one child
        arcs.append((aid, s2, d2))
    return DiGraph(vertices=frozenset(rep.get(v, v) for v in node.vertices),
                   arcs=tuple(arcs))


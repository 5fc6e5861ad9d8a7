"""Directed elimination forests and quotient graphs.

An elimination tree node pairs a vertex set with one elimination vertex; its
children are the nontrivial SCCs left after deleting that vertex. A forest
holds one tree per nontrivial SCC of the input graph. Elimination vertices
are drawn uniformly at random from a seeded generator, so one integer seed
fixes the whole forest. A node's quotient graph collapses each child onto the
child's own elimination vertex, so every quotient vertex is a real qstate and
distinct children never share a vertex.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graphs import DiGraph, induced, is_acyclic, scc_decompose


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


@dataclass(frozen=True)
class DefForest:
    trees: tuple[DetNode, ...]
    seed: int


# (vertex set, elim) -> nontrivial SCCs of the graph on the set minus the
# elim; the whole graph's own SCCs sit under (its vertex set, None)
Splits = dict[tuple[frozenset[str], str | None], tuple[frozenset[str], ...]]


def _split(g: DiGraph, vs: frozenset[str], elim: str | None,
           splits: Splits) -> tuple[frozenset[str], ...]:
    parts = splits.get((vs, elim))
    if parts is None:
        rest = g if elim is None else induced(g, vs - {elim})
        parts = splits[vs, elim] = scc_decompose(rest).nontrivial()
    return parts


def _build_node(g: DiGraph, vs: frozenset[str], rng: random.Random,
                splits: Splits) -> DetNode:
    """The tree on `vs`, its elims drawn from `rng` in preorder."""

    def enter(part: frozenset[str]):
        elim = rng.choice(sorted(part))
        return part, elim, iter(_split(g, part, elim, splits)), []

    # frames: vertex set, elim, child vertex sets left, children built
    stack = [enter(vs)]
    while True:
        vs, elim, todo, built = stack[-1]
        child = next(todo, None)
        if child is not None:
            stack.append(enter(child))
            continue
        stack.pop()
        node = DetNode(vertices=vs, elim=elim, children=tuple(built))
        if not stack:
            return node
        stack[-1][3].append(node)


def build_def(g: DiGraph, seed: int,
              splits: Splits | None = None) -> DefForest:
    """One elimination tree per nontrivial SCC of `g`, in canonical order.

    `splits` holds the SCC splits already made on `g` and takes the new
    ones, so the forests of one graph split each (vertex set, elim) once;
    the seed alone still fixes the forest.
    """
    splits = {} if splits is None else splits
    rng = random.Random(seed)
    trees = tuple(
        _build_node(g, c, rng, splits)
        for c in _split(g, g.vertices, None, splits)
    )
    return DefForest(trees=trees, seed=seed)


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


def check_det(forest: DefForest, g: DiGraph) -> list[str]:
    """Validity violations of a forest against its graph (empty = valid)."""
    out: list[str] = []
    roots = {t.vertices for t in forest.trees}
    expected_roots = set(scc_decompose(g).nontrivial())
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
            rest = induced(g, node.vertices - {node.elim})
            expected = set(scc_decompose(rest).nontrivial())
            actual = {c.vertices for c in node.children}
            if actual != expected:
                out.append(f"children-mismatch: {where}")
            q = quotient(g, node)
            minus_elim = induced(q, q.vertices - {node.elim})
            if not is_acyclic(minus_elim):
                out.append(f"quotient-not-acyclic: {where}")
            stack.extend(reversed(node.children))
    return out

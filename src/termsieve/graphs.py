"""Directed multigraph utilities: SCCs, induced subgraphs, boundaries.

The engines and the CLI compile an edge set once as an `SccGraph` and split
vertex masks with its one SCC kernel, Kosaraju-Sharir over successor and
predecessor masks; `decomposition.Splits` draws forests from it. `DiGraph`, a
graph with named vertices, serves only the string-keyed referees
`scc_decompose`, `induced` and `boundary`, which the tests check the
compiled form against and the bench tracer wraps by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

Arc = tuple[str, str, str]  # (id, src, dst)


@dataclass(frozen=True, slots=True)
class DiGraph:
    """A directed multigraph; arcs are (id, src, dst) with named endpoints."""

    vertices: frozenset[str]
    arcs: tuple[Arc, ...]

    def __post_init__(self) -> None:
        for aid, src, dst in self.arcs:
            if src not in self.vertices or dst not in self.vertices:
                raise ValueError(f"arc {aid}: endpoint outside vertex set")


@dataclass(frozen=True, slots=True)
class SccPartition:
    """Strongly connected components in canonical order, with trivial flags.

    A component is trivial iff it is a single vertex without a self-loop.
    """

    components: tuple[frozenset[str], ...]
    trivial: tuple[bool, ...]

    def nontrivial(self) -> tuple[frozenset[str], ...]:
        return tuple(c for c, t in zip(self.components, self.trivial) if not t)


class SccGraph:
    """One edge set compiled to bit masks, for the SCCs of its induced
    subgraphs; `paths.PathContext` extends it for path search.

    Vertex `i` is the `i`-th vertex in sorted-name order, with bit `1 << i`,
    and `index` maps a name to its `i`; a vertex set is the mask of its
    bits. `succ[i]` is the mask of the successors of `i`, itself included
    when it has a self-loop, `pred[i]` that of its predecessors, and
    `loops` the mask of the vertices with a self-loop. Parallel arcs
    compile to one bit.
    """

    def __init__(self, vertices: Iterable[str], arcs: Iterable[Arc]):
        self.names = names = tuple(sorted(set(vertices)))
        self.all = (1 << len(names)) - 1
        self.index = index = {v: i for i, v in enumerate(names)}
        self.succ = succ = [0] * len(names)
        self.pred = pred = [0] * len(names)
        loops = 0
        for _, src, dst in arcs:
            s, d = index[src], index[dst]
            succ[s] |= 1 << d
            pred[d] |= 1 << s
            if s == d:
                loops |= 1 << s
        self.loops = loops

    def sccs(self, mask: int) -> list[int]:
        """The SCCs of the subgraph induced on `mask`, as masks, ordered by
        their lowest vertex: Kosaraju-Sharir on masks, O(qstates) steps.

        A DFS that steps to the lowest unseen successor lists the vertices
        in finishing order; then, latest finish first, each vertex not yet
        placed takes its backward closure over `pred` among those left.
        """
        succ, pred = self.succ, self.pred
        finished: list[int] = []
        unseen = mask
        while unseen:
            stack = [(unseen & -unseen).bit_length() - 1]
            unseen &= unseen - 1
            while stack:
                step = succ[stack[-1]] & unseen
                if step:
                    step &= -step
                    unseen ^= step
                    stack.append(step.bit_length() - 1)
                else:
                    finished.append(stack.pop())
        comps = []
        left = mask
        for v in reversed(finished):
            if left >> v & 1:
                comp = todo = 1 << v
                left ^= comp
                while todo:
                    u = todo & -todo
                    todo ^= u
                    new = pred[u.bit_length() - 1] & left
                    left ^= new
                    comp |= new
                    todo |= new
                comps.append(comp)
        comps.sort(key=lambda c: c & -c)
        return comps

    def cyclic(self, comp: int) -> bool:
        """True iff the component `comp` holds a cycle: two or more
        vertices, or one with a self-loop."""
        return bool(comp & (comp - 1) or comp & self.loops)

    def vertices(self, mask: int) -> tuple[str, ...]:
        """The names of the vertices in `mask`, in sorted order."""
        names = self.names
        return tuple(names[i] for i in bit_indices(mask))


def bit_indices(mask: int) -> Iterable[int]:
    """Set bit positions of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def scc_decompose(g: DiGraph) -> SccPartition:
    """The SCCs of `g` in canonical order: by their sorted vertex names.

    Disjoint sets in that order are in the order of their least name, which
    is how `SccGraph.sccs` orders them.
    """
    sg = SccGraph(g.vertices, g.arcs)
    comps = sg.sccs(sg.all)
    return SccPartition(
        components=tuple(frozenset(sg.vertices(c)) for c in comps),
        trivial=tuple(not sg.cyclic(c) for c in comps),
    )


def induced(g: DiGraph, vs: Iterable[str]) -> DiGraph:
    """Subgraph on `vs` keeping arcs with both endpoints inside."""
    keep = frozenset(vs)
    extra = keep - g.vertices
    if extra:
        raise ValueError(f"vertices not in graph: {sorted(extra)}")
    return DiGraph(
        vertices=keep,
        arcs=tuple(a for a in g.arcs if a[1] in keep and a[2] in keep),
    )


def boundary(
    g: DiGraph, h: Iterable[str], q0: str | None = None
) -> tuple[frozenset[str], frozenset[str]]:
    """Entry and exit vertices of `h` relative to the full graph `g`.

    Entries are targets of arcs from outside `h` (plus q0 when it lies in
    `h`); exits are sources of arcs leaving `h`.
    """
    hs = frozenset(h)
    entries = set()
    exits = set()
    for _, src, dst in g.arcs:
        if dst in hs and src not in hs:
            entries.add(dst)
        if src in hs and dst not in hs:
            exits.add(src)
    if q0 is not None and q0 in hs:
        entries.add(q0)
    return frozenset(entries), frozenset(exits)


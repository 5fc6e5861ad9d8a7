"""Directed multigraph utilities: SCCs, induced subgraphs, boundaries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .model import Fmp

Arc = tuple[str, str, str]  # (id, src, dst)


@dataclass(frozen=True)
class DiGraph:
    """A directed multigraph; arcs are (id, src, dst) with named endpoints."""

    vertices: frozenset[str]
    arcs: tuple[Arc, ...]

    def __post_init__(self) -> None:
        for aid, src, dst in self.arcs:
            if src not in self.vertices or dst not in self.vertices:
                raise ValueError(f"arc {aid}: endpoint outside vertex set")


def graph(vertices: Iterable[str], arcs: Iterable[Arc]) -> DiGraph:
    return DiGraph(vertices=frozenset(vertices), arcs=tuple(arcs))


def policy_graph(fmp: Fmp) -> DiGraph:
    """The control graph of a policy: qstates as vertices, edges as arcs."""
    return DiGraph(
        vertices=frozenset(fmp.qstates),
        arcs=tuple((e.id, e.src, e.dst) for e in fmp.edges),
    )


@dataclass(frozen=True)
class SccPartition:
    """Strongly connected components in canonical order, with trivial flags.

    A component is trivial iff it is a single vertex without a self-loop.
    """

    components: tuple[frozenset[str], ...]
    trivial: tuple[bool, ...]

    def nontrivial(self) -> tuple[frozenset[str], ...]:
        return tuple(c for c, t in zip(self.components, self.trivial) if not t)


def scc_decompose(g: DiGraph) -> SccPartition:
    """Iterative Tarjan; the final sort, not the visit order, fixes the output."""
    adj: dict[str, list[str]] = {v: [] for v in g.vertices}
    self_loop: set[str] = set()
    for _, src, dst in g.arcs:
        adj[src].append(dst)
        if src == dst:
            self_loop.add(src)

    index: dict[str, int] = {}
    low: dict[str, int] = {}
    onstack: set[str] = set()
    stack: list[str] = []
    comps: list[frozenset[str]] = []
    counter = 0

    for root in g.vertices:
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack.add(root)
        while work:
            v, i = work[-1]
            if i < len(adj[v]):
                work[-1] = (v, i + 1)
                w = adj[v][i]
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, 0))
                elif w in onstack:
                    if index[w] < low[v]:
                        low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    comp = set()
                    while True:
                        w = stack.pop()
                        onstack.discard(w)
                        comp.add(w)
                        if w == v:
                            break
                    comps.append(frozenset(comp))

    comps.sort(key=lambda c: tuple(sorted(c)))
    trivial = tuple(len(c) == 1 and next(iter(c)) not in self_loop for c in comps)
    return SccPartition(components=tuple(comps), trivial=trivial)


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


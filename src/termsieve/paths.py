"""Path keys over elimination tree nodes, searched on a compiled graph.

Two families of paths are enumerated per node. Cycle paths live in the
node's quotient graph, where each child is collapsed onto its own
elimination vertex: they start and end at the node's elimination vertex
(visiting it exactly twice) and repeat no other quotient vertex. Through
paths live in the induced subgraph on the node's original vertices: they are
vertex-simple walks from an entry boundary vertex to an exit boundary vertex
with at least one edge. Parallel arcs yield distinct paths; a collapsed child
contributes zero effect (its internal arcs are not traversed at all).

`PathGraph` compiles one edge set once. Qstates become bits in sorted-name
order, and each vertex gets its out-arcs as `(dst index, dst bit, weight,
dst successor mask, arc id)` in `(dst, arc id)` order, the weight coming from
the policy's `EffectCode`. A node then needs no graph of its own: the path is
one int whose bits start out set on every vertex outside the node, and the
boundary is read off the successor and predecessor masks. Only a node with
children builds arcs, those of its quotient, for its cycle search. An
`hsieve` call compiles one graph for each set of remaining edges.

One iterative DFS serves both families. Each frame holds the key of the path
that reached it, the sum of its arc weights, so a step costs one addition and
a backtrack none. The DFS steps onto a vertex only when a target is still
reachable from there off the path: at once when a successor is live (sure to
reach a target whatever the path), else by a bitmask BFS, the blocking step
of Johnson (SIAM J. Comput. 1975) applied to st-paths as in Birmelé et al.
(SODA 2013). Only through searches run the BFS; their exits are live. In a
cycle search the whole node is live: its steps land only on quotient
vertices, and on an elimination-forest node (strongly connected, with
children the SCCs of the node minus its elim) the quotient minus the elim is
acyclic and reaches the elim. A pruned branch would have emitted nothing, so
the paths and their order are those of the plain search on any node. On the
forest nodes, the only ones `hsieve` and the CLI enumerate, every descent
leads to an emitted path, so a node costs O(arcs * qstates) per emitted path
and the path cap bounds the run time.

`PathContext.paths` lists a node's path keys in that order; `var_sets` adds
the keys of every node of a subtree to one set and decodes the set as a
whole with `EffectCode.sign_sets`: one AND per key for the decrease sets,
and per variable one scan for `iv` and one for `zv`, each stopping at the
first key that puts the variable in. `PathContext.tree_sets` keeps its
answer for each tree.

Per-node enumeration is capped by the number of paths emitted, not of
distinct keys; blowing the cap raises PathCapExceeded, which callers convert
into a resource-cap verdict rather than an unsound answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Mapping, Sequence

from .decomposition import DetNode
from .model import Effect

DEFAULT_PATH_CAP = 100_000

VarSetFamily = frozenset[frozenset[str]]

# (dst index, dst bit, weight, successors of dst other than itself, arc id)
_Arc = tuple[int, int, int, int, str]


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
class NodeVarSets:
    """Aggregated variable sets for one node (or one whole tree at its root)."""

    iv: frozenset[str]
    zv: frozenset[str]
    pdv: VarSetFamily
    dv: VarSetFamily


class EffectCode:
    """Edge effects as integer weights whose sums are path effects.

    A variable some edge moves gets a field of two digits in base `base`, a
    power of two. The weight of an edge is
    `sum((delta_i + base) * base**(2i))` over the variables it moves, so in
    a sum of weights the field of variable `i` holds `moves * base + net`:
    zero exactly when no summed edge moves it, and never negative. For a
    path of at most `max_len` edges `base` exceeds twice any |net| and the
    number of moves, so the sum of its weights is a key in which no field
    carries into the next, and the low digit of each field is the net
    modulo `base`. Since `base > 2 * |net|`, that digit is below `base / 2`
    exactly when the net is not negative: the top bit of a net digit is the
    sign of the net.
    """

    def __init__(self, effects: Mapping[str, Effect], max_len: int):
        moved = sorted({var for eff in effects.values()
                        for var, delta in eff.items() if delta})
        top = max((abs(delta) for eff in effects.values()
                   for delta in eff.values()), default=0)
        self.variables = tuple(moved)
        self.bits = (2 * max(max_len, 1) * (top + 1)).bit_length()
        self.base = base = 1 << self.bits
        width = 2 * self.bits
        shift = {var: width * i for i, var in enumerate(moved)}
        self.weight = {
            eid: sum((delta + base) << shift[var]
                     for var, delta in eff.items() if delta)
            for eid, eff in effects.items()
        }
        # each variable's field, net digit and sign bit, in place in a key
        self._fields = tuple(
            (var, (1 << width) - 1 << s, base - 1 << s, base >> 1 << s)
            for var, s in shift.items())
        self._sign_bits = sum(sign for *_, sign in self._fields)

    def sign_sets(self, keys: Collection[int]
                  ) -> tuple[frozenset[str], frozenset[str], VarSetFamily]:
        """Over a set of keys: the variables some key nets positive, those
        some key moves with net zero, and the set of variables each key nets
        negative.

        The negative sets are read off the sign bits, one AND per key. The
        other two scan the keys once per variable and stop at the first
        key that puts it in.
        """
        inc = frozenset(var for var, _, digit, sign in self._fields
                        if any(0 < k & digit < sign for k in keys))
        zero = frozenset(var for var, field, digit, _ in self._fields
                         if any(k & field and not k & digit for k in keys))
        signs = self._sign_bits
        dec = frozenset(
            frozenset(var for var, *_, sign in self._fields if d & sign)
            for d in {k & signs for k in keys})
        return inc, zero, dec


class PathGraph:
    """One edge set compiled for path search: bits, masks and weighted arcs.

    Vertex `i` is the `i`-th qstate in sorted-name order, with bit `1 << i`;
    `succ[i]` and `pred[i]` are the bit masks of its successors and
    predecessors, and `out[i]` its out-arcs (see the module docstring).
    """

    def __init__(self, vertices: Iterable[str],
                 arcs: Iterable[tuple[str, str, str]], code: EffectCode):
        names = sorted(set(vertices))
        self.code = code
        self.all = (1 << len(names)) - 1
        self.index = index = {v: i for i, v in enumerate(names)}
        outs: list[list[tuple[int, str]]] = [[] for _ in names]
        self.succ = [0] * len(names)
        self.pred = [0] * len(names)
        for aid, src, dst in arcs:
            s, d = index[src], index[dst]
            outs[s].append((d, aid))
            self.succ[s] |= 1 << d
            self.pred[d] |= 1 << s
        self.out = tuple(_arcs(out, code.weight, self.succ) for out in outs)

    def mask(self, vertices: Iterable[str]) -> int:
        m = 0
        for v in vertices:
            if v not in self.index:
                raise InvalidNodeError(f"invalid-node: {v} outside the graph")
            m |= 1 << self.index[v]
        return m

    def quotient(self, node: DetNode, mask: int) -> dict[int, Sequence[_Arc]]:
        """Out-arcs of the node's quotient, by source vertex.

        Each child collapses onto its own elim vertex; arcs internal to one
        child are dropped, and every other arc inside the node keeps its id
        and weight with its endpoints redirected.
        """
        index = self.index
        rep: dict[int, int] = {}
        for child in node.children:
            for v in child.vertices:
                rep[index[v]] = index[child.elim]
        kept: dict[int, list[tuple[int, str]]] = {}
        succ: dict[int, int] = {}
        for v in _indices(mask):
            s = rep.get(v, v)
            out = kept.setdefault(s, [])
            succ.setdefault(s, 0)
            for d, dbit, _, _, aid in self.out[v]:
                if dbit & mask:
                    d = rep.get(d, d)
                    if d != s or v not in rep:
                        out.append((d, aid))
                        succ[s] |= 1 << d
        weight = self.code.weight
        return {s: _arcs(out, weight, succ) for s, out in kept.items()}


def _arcs(out: list[tuple[int, str]], weight: Mapping[str, int],
          succ: Sequence[int] | Mapping[int, int]) -> tuple[_Arc, ...]:
    """Compiled out-arcs from `(dst, arc id)` pairs, in that order."""
    return tuple((d, 1 << d, weight[aid], succ[d] & ~(1 << d), aid)
                 for d, aid in sorted(out))


def _indices(mask: int) -> Iterable[int]:
    """Set bit positions of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reaches(succ: Sequence[int], frontier: int, blocked: int,
             targets: int) -> bool:
    """True iff a `targets` vertex is reachable from `frontier` by way of
    vertices outside `blocked` (`frontier` itself holds no target)."""
    seen = blocked | frontier
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= succ[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~seen
        if frontier & targets:
            return True
        seen |= frontier
    return False


def _walk(out: Sequence[Sequence[_Arc]] | Mapping[int, Sequence[_Arc]],
          succ: Sequence[int], start: int, path: int, targets: int,
          live: int, left: int, keys: list[int]) -> int:
    """Append to `keys` the key of every simple path from `start` that ends
    on a `targets` vertex.

    A step goes onto a vertex outside `path`, and a path is emitted each
    time a step lands on a target, so prefixes that end on a target are
    emitted too. The walk never continues past `start`, so with `start`
    left out of `path` a path can close on it, as a cycle path does on its
    elim.

    A step onto `w` is taken when a successor of `w` off the path is in
    `live`, or when `_reaches` finds a target from them over `succ`.

    Returns how many of the `left` paths allowed are left, or -1 when one
    more path was found.
    """
    sbit = 1 << start
    emit = keys.append
    stack: list[tuple[int, Iterable[_Arc], int]] = [(sbit, iter(out[start]), 0)]
    while stack:
        bit, arcs, key = stack[-1]
        for w, wbit, weight, wsucc, _ in arcs:
            if path & wbit:
                continue
            if wbit & targets:
                if not left:
                    return -1
                left -= 1
                emit(key + weight)
                if wbit == sbit:
                    continue
            free = wsucc & ~path
            if not free or not (free & live or _reaches(
                    succ, free, path | wbit, targets)):
                continue
            path |= wbit
            stack.append((wbit, iter(out[w]), key + weight))
            break
        else:
            stack.pop()
            path ^= bit
    return left


class PathContext:
    """Enumeration context for one graph version.

    Holds the current (possibly pruned) policy graph in compiled form, the
    policy's initial qstate, and the per-node path cap. `hsieve` keeps one
    context per set of remaining edges for all its samples, and
    `tree_sets` keeps each tree's variable sets, or the cap it hit, so a
    tree that a later sample draws again is not enumerated again. Nothing
    per node is kept. Only a through search runs the reachability BFS, and
    on elimination-forest nodes, the only ones `hsieve` and the CLI
    enumerate, the cap on emitted paths also bounds the work.
    """

    def __init__(self, graph: PathGraph, q0: str | None,
                 path_cap: int = DEFAULT_PATH_CAP):
        self.graph = graph
        self.q0 = q0
        self.path_cap = path_cap
        self._trees: dict[DetNode, NodeVarSets | PathCapExceeded] = {}

    def tree_sets(self, tree: DetNode) -> NodeVarSets:
        """`var_sets(tree, self)`, computed once per tree; a tree that hit
        the path cap raises its PathCapExceeded again."""
        sets = self._trees.get(tree)
        if sets is None:
            try:
                sets = var_sets(tree, self)
            except PathCapExceeded as exc:
                sets = exc
            self._trees[tree] = sets
        if isinstance(sets, PathCapExceeded):
            raise sets.with_traceback(None)
        return sets

    def paths(self, node: DetNode) -> list[int]:
        """The key of every path of one node, one per path in DFS order:
        its cycle paths, then its through paths from each entry in name
        order.

        Raises PathCapExceeded on the first path past the cap, however
        many of the paths before it share a key.
        """
        g = self.graph
        if not node.vertices:
            raise InvalidNodeError("invalid-node: empty vertex set")
        if node.elim not in node.vertices:
            raise InvalidNodeError(
                f"invalid-node: elim {node.elim} outside vertex set"
            )
        mask = g.mask(node.vertices)
        outside = g.all ^ mask
        elim = g.index[node.elim]
        out = g.quotient(node, mask) if node.children else g.out
        keys: list[int] = []
        left = _walk(out, g.succ, elim, outside, 1 << elim, mask,
                     self.path_cap, keys)
        exits = entries = 0
        for v in _indices(mask):
            if g.succ[v] & outside:
                exits |= 1 << v
            if g.pred[v] & outside:
                entries |= 1 << v
        if self.q0 in node.vertices:
            entries |= 1 << g.index[self.q0]
        if exits:
            for start in _indices(entries):
                if left < 0:
                    break
                left = _walk(g.out, g.succ, start, outside | 1 << start,
                             exits, exits, left, keys)
        if left < 0:
            raise PathCapExceeded(node, self.path_cap)
        return keys


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
    removed from every member. Paths with one key share these sets, so the
    distinct keys are collected first and decoded together by
    `EffectCode.sign_sets`.
    """
    keys: set[int] = set()
    for n in node.walk():
        keys.update(ctx.paths(n))
    iv, zv, pdv = ctx.graph.code.sign_sets(keys)
    return NodeVarSets(iv=iv, zv=zv, pdv=pdv, dv=boxminus(pdv, iv))

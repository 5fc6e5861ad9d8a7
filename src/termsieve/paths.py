"""Path keys over elimination tree nodes, searched on a compiled graph.

Two families of paths are enumerated per node. Cycle paths live in the
node's quotient graph, where each child is collapsed onto its own
elimination vertex: they start and end at the node's elimination vertex
(visiting it exactly twice) and repeat no other quotient vertex. Through
paths live in the induced subgraph on the node's original vertices: they are
vertex-simple walks from an entry boundary vertex to an exit boundary vertex
with at least one edge. Parallel arcs yield distinct paths; a collapsed child
contributes zero effect (its internal arcs are not traversed at all).

`PathContext` compiles one edge set once, for the forest's SCC splits and
for path search, and keeps the policy's initial qstate and the path cap: it
is a `graphs.SccGraph` (qstates as bits in sorted-name order, successor
and predecessor masks), and each vertex also gets
its out-arcs as `(dst index, dst bit, weight, dst successor mask, arc id)`
in `(dst, arc id)` order, the weight coming from the policy's
`EffectCode`. A node then needs no graph of its own: the path is
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

What a frame emits depends only on its state: the set of vertices on the
path and the vertex it stands on (the Held-Karp state, J. SIAM 1962), not
on the order that reached it. The key of each path it emits is its own key
plus a suffix sum that the state fixes. So the DFS remembers, per state
whose frame emitted two or more keys, where those keys sit in the output
and the frame's key. A step onto a remembered state pushes no frame. It
appends the same keys again, in the same order, each shifted by the
difference of the two frame keys. Each replayed key counts against the cap
as a walked one would, and a slice that does not fit ends the walk at once,
as walking it would have one path later. The memo holds one packed int per
remembered frame, and only frames that emitted two or more keys are kept.
So it stays within the bound that the cap sets on the walk's own work,
O(cap * qstates), and in practice it holds fewer entries than the key list.

`PathContext.paths` lists a node's path keys in that order. Its through
walks share one memo; the cycle walk, and each start of
`nonnegative_cycle`, get their own. `var_sets` joins the key lists of
every node of a subtree into one list, repeated keys kept, and decodes it
as a whole with `EffectCode.sign_sets`: one AND per key for the decrease
sets, a slice at a time until every sign pattern has appeared, and per
variable one scan for `iv` and one for `zv`, each stopping at the first
key that puts the variable in. `nonnegative_cycle` runs the same DFS over
a whole `PathContext`, from each vertex in turn, to find a simple cycle that
nets at least zero on every variable, unless every arc of each cyclic SCC
decreases one common variable.

Per-node enumeration is capped by the number of paths emitted, not of
distinct keys; blowing the cap raises PathCapExceeded, which callers convert
into a resource-cap verdict rather than an unsound answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .decomposition import DetNode
from .graphs import SccGraph, bit_indices
from .model import Effect

DEFAULT_PATH_CAP = 100_000

# keys per slice of `EffectCode.sign_sets`' pass over the sign bits; the
# pass stops after the slice that brings in the last sign pattern
SIGN_SLICE = 256

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


@dataclass(frozen=True, slots=True)
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
        # a key has none of these set iff its path nets >= 0 on every variable
        self.sign_bits = sum(sign for *_, sign in self._fields)

    def sign_sets(self, keys: Sequence[int]
                  ) -> tuple[frozenset[str], frozenset[str], VarSetFamily]:
        """Over a list of keys: the variables some key nets positive, those
        some key moves with net zero, and the set of variables each key nets
        negative.

        The negative sets are read off the sign bits, one AND per key, a
        slice of `SIGN_SLICE` keys at a time. With m moved variables there
        are at most 2**m sign patterns, so once all have appeared the pass
        stops; a list of at most one slice is read in one go. The other two
        sets scan the keys once per variable and stop at the first key that
        puts it in. Repeated keys change none of the three.
        """
        inc = frozenset(var for var, _, digit, sign in self._fields
                        if any(0 < k & digit < sign for k in keys))
        zero = frozenset(var for var, field, digit, _ in self._fields
                         if any(k & field and not k & digit for k in keys))
        signs = self.sign_bits
        if len(keys) <= SIGN_SLICE:
            seen = {k & signs for k in keys}
        else:
            every = 1 << len(self._fields)
            seen = set()
            for at in range(0, len(keys), SIGN_SLICE):
                seen |= {k & signs for k in keys[at:at + SIGN_SLICE]}
                if len(seen) == every:
                    break
        dec = frozenset(
            frozenset(var for var, *_, sign in self._fields if d & sign)
            for d in seen)
        return inc, zero, dec


class PathContext(SccGraph):
    """One edge set compiled for SCC splits and path search, with the
    policy's initial qstate and the per-node path cap.

    On top of `graphs.SccGraph`'s bits, `index`, and successor and
    predecessor masks, `out[i]` holds the out-arcs of vertex `i` (see the
    module docstring). `hsieve` keeps one per set of remaining edges for
    all its samples. Nothing per node or per tree is kept.
    """

    def __init__(self, vertices: Iterable[str],
                 arcs: Iterable[tuple[str, str, str]], code: EffectCode,
                 q0: str | None = None, path_cap: int = DEFAULT_PATH_CAP):
        arcs = tuple(arcs)
        super().__init__(vertices, arcs)
        self.code, self.q0, self.path_cap = code, q0, path_cap
        index = self.index
        outs: list[list[tuple[int, str]]] = [[] for _ in self.names]
        for aid, src, dst in arcs:
            outs[index[src]].append((index[dst], aid))
        self.out = tuple(_arcs(out, code.weight, self.succ) for out in outs)
        # a search state packs a path mask over a vertex index
        self.shift = len(self.names).bit_length()

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
        for v in bit_indices(mask):
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

    def paths(self, node: DetNode) -> list[int]:
        """The key of every path of one node, one per path in DFS order:
        its cycle paths, then its through paths from each entry in name
        order.

        The through walks share one memo of replayable states (see
        `_walk`). Each has its entry on the path, so the entry is the only
        thing that differs between them, and the node's blocked vertices,
        exits and live set are the same. The cycle walk runs on other arcs
        towards another target, so it gets a memo of its own.

        Raises PathCapExceeded on the first path past the cap, however
        many of the paths before it share a key or come from a replay.
        """
        if not node.vertices:
            raise InvalidNodeError("invalid-node: empty vertex set")
        if node.elim not in node.vertices:
            raise InvalidNodeError(
                f"invalid-node: elim {node.elim} outside vertex set")
        mask = self.mask(node.vertices)
        outside = self.all ^ mask
        elim = self.index[node.elim]
        out = self.quotient(node, mask) if node.children else self.out
        keys: list[int] = []
        left = _walk(out, self.succ, elim, outside, 1 << elim, mask,
                     self.path_cap, keys, {}, self.shift)
        exits = entries = 0
        for v in bit_indices(mask):
            if self.succ[v] & outside:
                exits |= 1 << v
            if self.pred[v] & outside:
                entries |= 1 << v
        if self.q0 in node.vertices:
            entries |= 1 << self.index[self.q0]
        if exits:
            memo: dict[int, int] = {}
            for start in bit_indices(entries):
                if left < 0:
                    break
                left = _walk(self.out, self.succ, start, outside | 1 << start,
                             exits, exits, left, keys, memo, self.shift)
        if left < 0:
            raise PathCapExceeded(node, self.path_cap)
        return keys


def _arcs(out: list[tuple[int, str]], weight: Mapping[str, int],
          succ: Sequence[int] | Mapping[int, int]) -> tuple[_Arc, ...]:
    """Compiled out-arcs from `(dst, arc id)` pairs, in that order."""
    return tuple((d, 1 << d, weight[aid], succ[d] & ~(1 << d), aid)
                 for d, aid in sorted(out))


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
          live: int, left: int, keys: list[int], memo: dict[int, int],
          shift: int) -> int:
    """Append to `keys` the key of every simple path from `start` that ends
    on a `targets` vertex.

    A step goes onto a vertex outside `path`, and a path is emitted each
    time a step lands on a target, so prefixes that end on a target are
    emitted too. The walk never continues past `start`, so with `start`
    left out of `path` a path can close on it, as a cycle path does on its
    elim.

    A step onto `w` is taken when a successor of `w` off the path is in
    `live`, or when `_reaches` finds a target from them over `succ`.

    `memo` maps a state, the path after a step and the vertex it landed
    on (`path << shift | w`), to the keys its frame emitted: their first
    index in `keys`, their count and the frame's own key, packed in one
    int. An entry is made when a frame that emitted two or more keys
    pops. A step onto a remembered state pushes no frame; it appends those
    keys again, each shifted by the difference of the two frame keys, in
    the same order, or returns -1 if they do not all fit in `left`. Walks
    may share `memo` when they differ only in `start`, and `start` lies on
    `path`: then no step reaches it, and a state's paths do not depend on
    it.

    Returns how many of the `left` paths allowed are left, or -1 when one
    more path was found.
    """
    sbit = 1 << start
    emit = keys.append
    # indices into `keys` stay below len(keys) + left, for this walk and for
    # any later one that shares `memo`
    bits = (len(keys) + left).bit_length()
    low = (1 << bits) - 1
    # a frame holds `left` as it was pushed, so it has emitted `mark - left`
    # keys when it pops; the first frame, from `start`, holds -1 and so is
    # never remembered
    stack: list[tuple[int, Iterable[_Arc], int, int]] = [
        (sbit, iter(out[start]), 0, -1)]
    while stack:
        bit, arcs, key, mark = stack[-1]
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
            if not free:
                continue
            seen = memo.get((path | wbit) << shift | w)
            if seen is not None:
                n = seen & low
                if n > left:
                    return -1
                left -= n
                at = seen >> bits & low
                shifted = key + weight - (seen >> 2 * bits)
                keys += [k + shifted for k in keys[at:at + n]]
                continue
            if not (free & live or _reaches(succ, free, path | wbit, targets)):
                continue
            path |= wbit
            stack.append((wbit, iter(out[w]), key + weight, left))
            break
        else:
            stack.pop()
            n = mark - left
            if n > 1:
                memo[path << shift | bit.bit_length() - 1] = (
                    (key << bits | len(keys) - n) << bits | n)
            path ^= bit
    return left


def nonnegative_cycle(graph: PathContext, budget: int,
                      cyclic_sccs: Iterable[int]) -> bool:
    """Whether `graph` has a simple cycle whose net is at least zero on
    every counter, found within `budget` cycles.

    The cycles through each vertex are walked in index order with the
    lower vertices blocked, so each simple cycle comes once, from its
    lowest vertex (Johnson, SIAM J. Comput. 1975). A cycle's key is
    nonnegative when none of the `EffectCode` sign bits is set; a simple
    cycle has at most as many edges as the graph has vertices, which the
    code's `max_len` covers. The keys are checked after each vertex's
    walk, and a walk that passes the budget gives False. No walk runs when
    `every_cycle_decreases` on `cyclic_sccs`, the masks of the graph's
    cyclic SCCs.
    """
    if every_cycle_decreases(graph, cyclic_sccs):
        return False
    signs = graph.code.sign_bits
    keys: list[int] = []
    for start in range(len(graph.names)):
        sbit = 1 << start
        budget = _walk(graph.out, graph.succ, start, sbit - 1, sbit, sbit,
                       budget, keys, {}, graph.shift)
        if budget < 0:
            return False
        if any(not k & signs for k in keys):
            return True
        keys.clear()
    return False


def every_cycle_decreases(graph: PathContext,
                          cyclic_sccs: Iterable[int]) -> bool:
    """Whether, in each of the cyclic SCCs of `graph` (as masks), every arc
    decreases one common counter: the AND of the arcs' weights keeps a
    sign bit.

    A cycle stays in one SCC, so each cycle then nets below zero on that
    counter, and none is nonnegative.
    """
    out, signs = graph.out, graph.code.sign_bits
    for comp in cyclic_sccs:
        common = signs
        for v in bit_indices(comp):
            for _, dbit, weight, _, _ in out[v]:
                if dbit & comp:
                    common &= weight
        if not common:
            return False
    return True


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
    removed from every member. The keys of every node are joined into one
    list, repeats and all, and decoded together by `EffectCode.sign_sets`,
    whose scans stop early.
    """
    keys: list[int] = []
    for n in node.walk():
        keys += ctx.paths(n)
    iv, zv, pdv = ctx.code.sign_sets(keys)
    return NodeVarSets(iv=iv, zv=zv, pdv=pdv, dv=boxminus(pdv, iv))

"""Termination verdicts: the hierarchical analysis and the progress baseline.

The hierarchical analysis loops: build a fresh elimination forest over the
current (pruned) control graph, aggregate per-tree variable sets from path
keys, declare termination when every root's decrease family is free of
the empty set, and otherwise remove edges that strictly decrease a removal
candidate of their own component. Each SCC is analyzed independently: the SCC
condensation is a DAG, so an infinite execution eventually stays inside one
component, and that component's own path sets are the ones that matter.

The progress baseline melts in rounds, each on one `SccGraph` of the arcs
left: an arc between two components lies on no cycle and drops out, a
cyclic component with no progress variable refutes termination, and the
others lose their arcs that decrease one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .decomposition import DefForest, DetNode, Splits, build_def
from .graphs import SccGraph
from .model import Effect, Fmp, check
from .paths import (
    DEFAULT_PATH_CAP,
    EffectCode,
    NodeVarSets,
    PathCapExceeded,
    PathContext,
    nonnegative_cycle,
    var_sets,
)

TERMINATING = "terminating"
UNKNOWN = "unknown"
NONTERMINATING_QUALITATIVE = "nonterminating_qualitative"

_SEED_STRIDE = 1_000_003


@dataclass(frozen=True, slots=True)
class Verdict:
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}({self.detail})"


@dataclass(frozen=True, slots=True)
class AnalysisConfig:
    def_samples: int = 1
    base_seed: int = 0
    path_cap: int = DEFAULT_PATH_CAP


@dataclass(frozen=True, slots=True)
class IterationTrace:
    """One loop iteration: the forest used, per-root sets, and removals."""

    forest: DefForest
    per_root: tuple[NodeVarSets, ...]  # aligned with forest.trees
    candidates: frozenset[str]
    removed_edges: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class AnalysisReport:
    verdict: Verdict
    iterations: tuple[IterationTrace, ...]
    wall_time: float
    # sample seeds in order: those run, then those listed without a run
    # once the first failed on a nonnegative simple cycle (see `hsieve`)
    seeds: tuple[int, ...]

    @property
    def wall_ms(self) -> float:
        """Wall time in ms, rounded as the trace and the CLI print it."""
        return round(self.wall_time * 1000.0, 3)

    def to_trace_dict(self) -> dict:
        """The report in trace-file shape (see the JSON schema in the README)."""
        its = []
        for it in self.iterations:
            dv: set[frozenset[str]] = set()
            for sets in it.per_root:
                dv |= sets.dv
            its.append(
                {
                    "def": {
                        "seed": it.forest.seed,
                        "trees": [_tree_dict(t) for t in it.forest.trees],
                    },
                    "iv": sorted(set().union(*(s.iv for s in it.per_root))),
                    "zv": sorted(set().union(*(s.zv for s in it.per_root))),
                    "dv": sorted(sorted(s) for s in dv),
                    "candidates": sorted(it.candidates),
                    "removed_edges": list(it.removed_edges),
                }
            )
        return {
            "verdict": self.verdict.kind,
            "detail": self.verdict.detail,
            "seeds": list(self.seeds),
            "iterations": its,
            "wall_ms": self.wall_ms,
        }


def _tree_dict(tree: DetNode) -> dict:
    def shell(node: DetNode) -> dict:
        return {"vertices": sorted(node.vertices), "elim": node.elim,
                "children": []}

    out = shell(tree)
    stack = [(tree, out)]
    while stack:
        node, d = stack.pop()
        for c in node.children:
            child = shell(c)
            d["children"].append(child)
            stack.append((c, child))
    return out


def _effects(fmp: Fmp) -> dict[str, Effect]:
    """Each edge's effect by its id; raises ValueError unless `model.check`
    passes the policy and it is normalized."""
    check(fmp)
    return {e.id: e.effect for e in fmp.edges}


def def_seed_for(base_seed: int, iteration: int) -> int:
    """Seed of the forest built at one loop iteration."""
    return base_seed * _SEED_STRIDE + iteration


# per-root sets, candidates, removed edges, and the verdict (None: the loop
# goes on without the removed edges)
_Outcome = tuple[tuple[NodeVarSets, ...], frozenset[str], tuple[str, ...],
                 Verdict | None]
# an edge set's splits, its paths, and the outcome of each forest drawn
_Graph = tuple[Splits, PathContext, dict[tuple[DetNode, ...], _Outcome]]


class _Shared:
    """Work that the samples of one `hsieve` call share.

    The edge effects and their `EffectCode`, and for each set of remaining
    edge ids:
    - the graph on them, compiled once as a `PathContext` for both SCC
      splits and path search;
    - its `Splits` on that same graph: each (vertex set, elim) split once;
    - for each forest drawn on it, by its trees, the iteration's outcome:
      per-root sets, candidates and removed edges, or the path cap.

    A sample draws its own forest from its own seed. Trees are looked up by
    `DetNode`'s structural hash and equality, so a forest drawn again costs
    its draw, one lookup and its own IterationTrace. `pumps` searches the
    full edge set once for a simple cycle that no sample can prove
    terminating, within `path_cap` cycles.
    """

    def __init__(self, fmp: Fmp, path_cap: int):
        self.fmp = fmp
        self.path_cap = path_cap
        self.effects = _effects(fmp)
        self.code = EffectCode(self.effects, len(fmp.qstates))
        self.edge_ids = frozenset(self.effects)
        self.graphs: dict[frozenset[str], _Graph] = {}

    def graph(self, edge_ids: frozenset[str]) -> _Graph:
        got = self.graphs.get(edge_ids)
        if got is None:
            fmp = self.fmp
            ctx = PathContext(
                fmp.qstates,
                [(e.id, e.src, e.dst) for e in fmp.edges if e.id in edge_ids],
                self.code, fmp.initial, self.path_cap)
            got = self.graphs[edge_ids] = (Splits(ctx), ctx, {})
        return got

    def outcome(self, edge_ids: frozenset[str], graph: _Graph,
                trees: tuple[DetNode, ...]) -> _Outcome:
        """The outcome of an iteration on `edge_ids` (whose record
        `graph(edge_ids)` is `graph`) that drew `trees`."""
        memo = graph[2]
        got = memo.get(trees)
        if got is None:
            got = memo[trees] = self._iterate(edge_ids, graph[1], trees)
        return got

    def pumps(self) -> bool:
        """Whether the full edge set has a simple cycle that nets at least
        zero on every counter, found within `path_cap` cycles.

        Guards aside, such a cycle runs forever from large enough
        counters, and the hierarchical argument is sound, so every sample
        ends `unknown`.
        """
        splits, ctx, _ = self.graph(self.edge_ids)
        return nonnegative_cycle(ctx, self.path_cap, splits.cyclic_sccs())

    def _iterate(self, edge_ids: frozenset[str], ctx: PathContext,
                 trees: tuple[DetNode, ...]) -> _Outcome:
        if not trees:
            return (), frozenset(), (), Verdict(TERMINATING, "graph-acyclic")
        try:
            per_root = tuple(var_sets(tree, ctx) for tree in trees)
        except PathCapExceeded:
            return (), frozenset(), (), Verdict(UNKNOWN, "resource-cap")
        per_tree_candidates = [
            frozenset(set().union(*sets.pdv) - sets.iv - sets.zv)
            for sets in per_root]
        candidates = frozenset().union(*per_tree_candidates)
        if all(frozenset() not in sets.dv for sets in per_root):
            # a proof removes nothing
            return (per_root, candidates, (),
                    Verdict(TERMINATING, "no-empty-dv"))
        # trees are disjoint, so no edge comes twice
        effects = self.effects
        removed = tuple(sorted(
            e.id for tree, cands in zip(trees, per_tree_candidates)
            if cands for e in self.fmp.edges
            if e.id in edge_ids
            and e.src in tree.vertices and e.dst in tree.vertices
            and any(effects[e.id].get(x, 0) < 0 for x in cands)))
        verdict = None if removed else Verdict(UNKNOWN, "empty-set-persists")
        return per_root, candidates, removed, verdict


def hsieve_once(
    fmp: Fmp, seed: int, config: AnalysisConfig | None = None,
    *, shared: _Shared | None = None,
) -> AnalysisReport:
    """One full analysis run with a single elimination-seed stream.

    `shared` carries what earlier samples of one `hsieve` call computed;
    without it the run starts from nothing. The report is the same either
    way.
    """
    cfg = config if config is not None else AnalysisConfig()
    start = time.perf_counter()
    if shared is None:
        shared = _Shared(fmp, cfg.path_cap)

    edge_ids = shared.edge_ids
    iterations: list[IterationTrace] = []
    # each iteration but the last removes an edge
    for i in range(len(fmp.edges) + 2):
        graph = shared.graph(edge_ids)
        forest = build_def(graph[0], def_seed_for(seed, i))
        per_root, candidates, removed, verdict = shared.outcome(
            edge_ids, graph, forest.trees)
        iterations.append(
            IterationTrace(forest, per_root, candidates, removed))
        if verdict is not None:
            return AnalysisReport(
                verdict=verdict,
                iterations=tuple(iterations),
                wall_time=time.perf_counter() - start,
                seeds=(seed,),
            )
        edge_ids = edge_ids.difference(removed)

    raise AssertionError("iteration cap exceeded despite strict edge removal")


def hsieve(fmp: Fmp, config: AnalysisConfig | None = None) -> AnalysisReport:
    """Multi-sample driver: try def_samples seed streams, first success wins.

    Sample k runs hsieve_once with seed base_seed + k. The first sample
    runs; if it fails and seeds remain, the policy is searched once
    (`_Shared.pumps`, over at most `path_cap` cycles) for a simple cycle
    that nets at least zero on every counter. With one, no forest proves
    the policy terminating, so the remaining seeds are listed without
    being run; without one, they run in order until one proves
    termination. The samples share what `_Shared` keeps for each edge set
    they reach, so a forest drawn again costs its draw and no new split,
    search or removal scan; the reports are those of separate runs. The
    returned report carries every seed run or listed; when no sample
    proves termination, the first sample's verdict and trace are reported.

    Guards are not read: a path counts as taken whatever its guards ask.
    So a policy that halts only because of a guard is not proved. The one
    edge `q0 -> q0` with guard `y in [0, 0]` and effect `y += 1` halts
    from every start, yet gives `unknown(empty-set-persists)`.
    """
    cfg = config if config is not None else AnalysisConfig()
    start = time.perf_counter()
    shared = _Shared(fmp, cfg.path_cap)
    # the seeds reported are base_seed through `last`, run or listed
    base = last = cfg.base_seed
    rep = hsieve_once(fmp, base, cfg, shared=shared)
    if cfg.def_samples > 1 and rep.verdict.kind != TERMINATING:
        if shared.pumps():
            last = base + cfg.def_samples - 1
        else:
            for last in range(base + 1, base + cfg.def_samples):
                other = hsieve_once(fmp, last, cfg, shared=shared)
                if other.verdict.kind == TERMINATING:
                    rep = other
                    break
    return AnalysisReport(
        verdict=rep.verdict,
        iterations=rep.iterations,
        wall_time=time.perf_counter() - start,
        seeds=tuple(range(base, last + 1)),
    )


def progress_sieve(fmp: Fmp) -> Verdict:
    """Progress-variable baseline under qualitative (adversarial) semantics.

    Melts the control graph round by round. A round compiles the arcs left
    once and buckets them by SCC in one pass: an arc between two components
    lies on no cycle, so it drops out. In each cyclic component, a progress
    variable is decreased by at least one of the component's arcs and
    increased by none. A component without one refutes qualitative
    termination; otherwise its arcs that decrease a progress variable are
    removed and the rest go to the next round. No arc left proves it.

    Guards are not read, so the refutation is of the guard-free policy: the
    one edge `q0 -> q0` with guard `y in [0, 0]` and effect `y += 1` gives
    `nonterminating_qualitative` although every run of it halts.
    """
    effects = _effects(fmp)
    arcs = [(e.id, e.src, e.dst) for e in fmp.edges]
    while arcs:
        g = SccGraph(fmp.qstates, arcs)
        comp_of = {v: c for c in g.sccs(g.all) for v in g.vertices(c)}
        inner: dict[int, list[tuple[str, str, str]]] = {}
        for arc in arcs:
            comp = comp_of[arc[1]]
            if comp == comp_of[arc[2]]:
                inner.setdefault(comp, []).append(arc)
        arcs = []
        for comp_arcs in inner.values():
            decreases: list[tuple[str, str]] = []  # (variable, arc id)
            increased: set[str] = set()
            for aid, _, _ in comp_arcs:
                for var, delta in effects[aid].items():
                    if delta < 0:
                        decreases.append((var, aid))
                    elif delta > 0:
                        increased.add(var)
            # the arcs that decrease a progress variable
            removed = {aid for var, aid in decreases if var not in increased}
            if not removed:
                return Verdict(NONTERMINATING_QUALITATIVE,
                               "no-progress-variable")
            arcs += [a for a in comp_arcs if a[0] not in removed]
    return Verdict(TERMINATING, "progress")

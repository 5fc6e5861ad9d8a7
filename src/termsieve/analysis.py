"""Termination verdicts: the hierarchical analysis and the progress baseline.

The hierarchical analysis loops: build a fresh elimination forest over the
current (pruned) control graph, aggregate per-tree variable sets from path
keys, declare termination when every root's decrease family is free of
the empty set, and otherwise remove edges that strictly decrease a removal
candidate of their own component. Each SCC is analyzed independently: the SCC
condensation is a DAG, so an infinite execution eventually stays inside one
component, and that component's own path sets are the ones that matter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .decomposition import DefForest, DetNode, Splits, build_def
from .graphs import DiGraph, induced, policy_graph, scc_decompose
from .model import Edge, Fmp
from .paths import (
    DEFAULT_PATH_CAP,
    EffectCode,
    NodeVarSets,
    PathCapExceeded,
    PathContext,
    PathGraph,
)

TERMINATING = "terminating"
UNKNOWN = "unknown"
NONTERMINATING_QUALITATIVE = "nonterminating_qualitative"

_SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class Verdict:
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}({self.detail})"


@dataclass(frozen=True)
class AnalysisConfig:
    def_samples: int = 1
    base_seed: int = 0
    path_cap: int = DEFAULT_PATH_CAP


@dataclass(frozen=True)
class IterationTrace:
    """One loop iteration: the forest used, per-root sets, and removals."""

    forest: DefForest
    per_root: tuple[NodeVarSets, ...]  # aligned with forest.trees
    candidates: frozenset[str]
    removed_edges: tuple[str, ...]


@dataclass(frozen=True)
class AnalysisReport:
    verdict: Verdict
    iterations: tuple[IterationTrace, ...]
    wall_time: float
    seeds: tuple[int, ...]  # hsieve_once seeds tried, in order

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
            "wall_ms": round(self.wall_time * 1000.0, 3),
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


def def_seed_for(base_seed: int, iteration: int) -> int:
    """Seed of the forest built at one loop iteration."""
    return base_seed * _SEED_STRIDE + iteration


class _Shared:
    """Work that the samples of one `hsieve` call share.

    The edge effects and their `EffectCode`, and for each set of remaining
    edge ids: the graph on them, the SCC splits `build_def` made on it, and
    its PathContext, which compiles the graph once and keeps each tree's
    variable sets. Each sample still draws its own forest from its own seed.
    """

    def __init__(self, fmp: Fmp, path_cap: int):
        self.fmp = fmp
        self.path_cap = path_cap
        # raises unless normalized
        self.effects = {e.id: e.effect for e in fmp.edges}
        self.code = EffectCode(self.effects, len(fmp.qstates))
        self.graphs: dict[frozenset[str], tuple[DiGraph, Splits]] = {}
        self.contexts: dict[frozenset[str], PathContext] = {}

    def graph(self, edge_ids: frozenset[str]) -> tuple[DiGraph, Splits]:
        got = self.graphs.get(edge_ids)
        if got is None:
            fmp = self.fmp
            graph = DiGraph(
                vertices=frozenset(fmp.qstates),
                arcs=tuple((e.id, e.src, e.dst) for e in fmp.edges
                           if e.id in edge_ids),
            )
            got = self.graphs[edge_ids] = (graph, {})
        return got

    def context(self, edge_ids: frozenset[str]) -> PathContext:
        ctx = self.contexts.get(edge_ids)
        if ctx is None:
            graph = self.graphs[edge_ids][0]
            ctx = self.contexts[edge_ids] = PathContext(
                graph=PathGraph(graph.vertices, graph.arcs, self.code),
                q0=self.fmp.initial,
                path_cap=self.path_cap,
            )
        return ctx


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

    effects = shared.effects
    edges: dict[str, Edge] = {e.id: e for e in fmp.edges}
    iterations: list[IterationTrace] = []

    def report(kind: str, detail: str) -> AnalysisReport:
        return AnalysisReport(
            verdict=Verdict(kind, detail),
            iterations=tuple(iterations),
            wall_time=time.perf_counter() - start,
            seeds=(seed,),
        )

    max_iterations = len(fmp.edges) + 1
    for i in range(max_iterations + 1):
        edge_ids = frozenset(edges)
        graph, splits = shared.graph(edge_ids)
        forest = build_def(graph, def_seed_for(seed, i), splits)
        if not forest.trees:
            iterations.append(IterationTrace(forest, (), frozenset(), ()))
            return report(TERMINATING, "graph-acyclic")

        ctx = shared.context(edge_ids)
        try:
            per_root = []
            per_tree_candidates = []
            for tree in forest.trees:
                sets = ctx.tree_sets(tree)
                per_root.append(sets)
                per_tree_candidates.append(
                    frozenset(set().union(*sets.pdv) - sets.iv - sets.zv))
        except PathCapExceeded:
            iterations.append(IterationTrace(forest, (), frozenset(), ()))
            return report(UNKNOWN, "resource-cap")

        all_candidates = frozenset().union(*per_tree_candidates)
        empty_free = all(frozenset() not in sets.dv for sets in per_root)
        # a proof removes nothing; trees are disjoint, so no edge comes twice
        removed = () if empty_free else tuple(sorted(
            eid for tree, cands in zip(forest.trees, per_tree_candidates)
            if cands for eid, e in edges.items()
            if e.src in tree.vertices and e.dst in tree.vertices
            and any(effects[eid].get(x, 0) < 0 for x in cands)))
        iterations.append(
            IterationTrace(forest, tuple(per_root), all_candidates, removed)
        )
        if empty_free:
            return report(TERMINATING, "no-empty-dv")
        if not removed:
            return report(UNKNOWN, "empty-set-persists")
        for eid in removed:
            del edges[eid]

    raise AssertionError("iteration cap exceeded despite strict edge removal")


def hsieve(fmp: Fmp, config: AnalysisConfig | None = None) -> AnalysisReport:
    """Multi-sample driver: try def_samples seed streams, first success wins.

    Sample k runs hsieve_once with seed base_seed + k. The samples share
    graphs, SCC splits, compiled path graphs and per-tree variable sets for
    each edge set they reach, so a forest drawn again costs no new search;
    the reports are those of separate runs. The returned report carries
    every seed tried; when no sample proves termination, the first sample's
    verdict and trace are reported.
    """
    cfg = config if config is not None else AnalysisConfig()
    start = time.perf_counter()
    shared = _Shared(fmp, cfg.path_cap)
    seeds: list[int] = []
    first: AnalysisReport | None = None
    winner: AnalysisReport | None = None
    for k in range(max(1, cfg.def_samples)):
        sample_seed = cfg.base_seed + k
        seeds.append(sample_seed)
        rep = hsieve_once(fmp, sample_seed, cfg, shared=shared)
        if first is None:
            first = rep
        if rep.verdict.kind == TERMINATING:
            winner = rep
            break
    chosen = winner if winner is not None else first
    assert chosen is not None
    return AnalysisReport(
        verdict=chosen.verdict,
        iterations=chosen.iterations,
        wall_time=time.perf_counter() - start,
        seeds=tuple(seeds),
    )


def progress_sieve(fmp: Fmp) -> Verdict:
    """Progress-variable baseline under qualitative (adversarial) semantics.

    Within each nontrivial SCC, a progress variable is decreased by at least
    one component edge and increased by none; all component edges decreasing
    a progress variable are removed and the remainder is re-decomposed. Any
    component with no removable edge refutes qualitative termination.
    """
    effects = {e.id: e.effect for e in fmp.edges}  # raises unless normalized
    g = policy_graph(fmp)

    def melts() -> bool:
        # frames: a graph and its nontrivial SCCs left to melt
        stack = [(g, iter(scc_decompose(g).nontrivial()))]
        while stack:
            sub, comps = stack[-1]
            comp = next(comps, None)
            if comp is None:
                stack.pop()
                continue
            inner = induced(sub, comp)
            decreased: set[str] = set()
            increased: set[str] = set()
            for aid, _, _ in inner.arcs:
                for var, delta in effects[aid].items():
                    if delta < 0:
                        decreased.add(var)
                    elif delta > 0:
                        increased.add(var)
            progress = decreased - increased
            removable = {
                aid
                for aid, _, _ in inner.arcs
                if any(effects[aid].get(x, 0) < 0 for x in progress)
            }
            if not removable:
                return False
            rest = DiGraph(
                vertices=inner.vertices,
                arcs=tuple(a for a in inner.arcs if a[0] not in removable),
            )
            stack.append((rest, iter(scc_decompose(rest).nontrivial())))
        return True

    if melts():
        return Verdict(TERMINATING, "progress")
    return Verdict(NONTERMINATING_QUALITATIVE, "no-progress-variable")


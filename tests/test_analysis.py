"""The iterative analysis loop, its trace reports, and the baseline sieve."""
import dataclasses
import json
import time
from collections import Counter

import pytest

from termsieve import decomposition
from termsieve.analysis import (
    NONTERMINATING_QUALITATIVE,
    TERMINATING,
    UNKNOWN,
    AnalysisConfig,
    Verdict,
    def_seed_for,
    hsieve,
    hsieve_once,
    progress_sieve,
)
from termsieve.decomposition import build_def
from termsieve.generate import GenSpec, generate_random
from termsieve.graphs import DiGraph, policy_graph
from termsieve.model import Edge, Fmp, VarDecl
from termsieve.oracle import LASSO_FOUND, explore
from termsieve.paths import DEFAULT_PATH_CAP, PathContext, var_sets
from termsieve.policyio import load_policy

from helpers import (
    FIXTURES, TEST_FIXTURES, brute_var_sets, chain_policy, chord_ring_policy,
    iter_nodes, path_ctx, recursion_room, replay_lasso, ring_policy,
    two_pair_lasso_policy, up_loop_policy,
)


def fixture(name):
    return load_policy(FIXTURES / f"{name}.fmp.json")


def without_wall(d):
    d = dict(d)
    d.pop("wall_ms")
    return d


class TestVerdictStr:
    def test_str(self):
        assert str(Verdict(UNKNOWN, "resource-cap")) == "unknown(resource-cap)"


class TestSeeds:
    def test_def_seed_formula(self):
        assert def_seed_for(0, 0) == 0
        assert def_seed_for(0, 2) == 2
        assert def_seed_for(7, 3) == 7 * 1_000_003 + 3

    def test_iteration_seeds_recorded(self):
        rep = hsieve_once(fixture("f2"), seed=7)
        assert [it.forest.seed for it in rep.iterations] == [
            def_seed_for(7, 0), def_seed_for(7, 1)
        ]


class TestTwoSelfLoops:
    """f2: one loop drains x, the other trades x up for y down."""

    def test_two_iterations_any_seed(self):
        for seed in range(4):
            rep = hsieve_once(fixture("f2"), seed=seed)
            assert rep.verdict == Verdict(TERMINATING, "no-empty-dv")
            assert len(rep.iterations) == 2
            assert rep.iterations[0].removed_edges == ("e2",)
            assert rep.iterations[0].candidates == frozenset({"y"})
            assert rep.iterations[1].removed_edges == ()
            assert rep.iterations[1].candidates == frozenset({"x"})

    def test_golden_trace(self):
        rep = hsieve_once(fixture("f2"), seed=0)
        want = json.loads((TEST_FIXTURES / "f2.trace.json").read_text())
        assert without_wall(rep.to_trace_dict()) == want


class TestPumpAndDrain:
    """f3: refilling x via a two-step cycle defeats the analysis."""

    def test_unknown_every_seed(self):
        for seed in range(5):
            rep = hsieve_once(fixture("f3"), seed=seed)
            assert rep.verdict == Verdict(UNKNOWN, "empty-set-persists")
            assert len(rep.iterations) == 1
            assert rep.iterations[0].removed_edges == ()

    def test_golden_trace(self):
        rep = hsieve_once(fixture("f3"), seed=0)
        want = json.loads((TEST_FIXTURES / "f3.trace.json").read_text())
        assert without_wall(rep.to_trace_dict()) == want


class TestChildrenWithCollidingNames:
    """Two sibling 2-cycles whose vertex names join to the same string.

    A real lasso runs through both, so no sample may prove termination, and
    renaming the qstates must not change the verdict.
    """

    def test_not_terminating(self):
        for names in (("e", "a_b", "c", "a", "b_c"), ("e", "p", "q", "r", "s")):
            rep = hsieve(two_pair_lasso_policy(names),
                         AnalysisConfig(def_samples=20))
            assert rep.verdict == Verdict(UNKNOWN, "empty-set-persists")

    def test_lasso_replays(self):
        f = two_pair_lasso_policy()
        res = explore(f, f.state({"x": 1, "y": 1}))
        assert res.kind == LASSO_FOUND
        replay_lasso(f, res.witness)

    def test_var_sets_match_brute_force(self):
        f = two_pair_lasso_policy()
        g = policy_graph(f)
        effects = {e.id: e.effect for e in f.edges}
        ctx = path_ctx(g, effects, f.initial)
        for seed in range(20):
            for node in iter_nodes(build_def(g, seed)):
                assert var_sets(node, ctx) == brute_var_sets(
                    g, effects, f.initial, node)


class TestThreeStateLoop:
    """example1: deterministic runs halt, yet no progress variable exists."""

    def test_analysis_terminating(self):
        rep = hsieve_once(fixture("example1"), seed=0)
        assert rep.verdict == Verdict(TERMINATING, "no-empty-dv")
        assert len(rep.iterations) == 1
        assert rep.iterations[0].removed_edges == ()

    def test_baseline_refuses(self):
        v = progress_sieve(fixture("example1"))
        assert v == Verdict(NONTERMINATING_QUALITATIVE, "no-progress-variable")


class TestStagedRemovals:
    """f8prime: termination shows only after two pruning rounds."""

    def test_three_iterations_every_seed(self):
        for seed in range(6):
            rep = hsieve_once(fixture("f8prime"), seed=seed)
            assert rep.verdict == Verdict(TERMINATING, "no-empty-dv")
            removals = [it.removed_edges for it in rep.iterations]
            assert removals == [("e1", "e2"), ("e5",), ()]

    def test_candidates_narrow(self):
        rep = hsieve_once(fixture("f8prime"), seed=0)
        assert [sorted(it.candidates) for it in rep.iterations] == [
            ["x2", "x3"], ["x1"], ["x0"]
        ]

    def test_edge_sets_shrink_strictly(self):
        rep = hsieve_once(fixture("f8prime"), seed=0)
        sizes = []
        remaining = {e.id for e in fixture("f8prime").edges}
        sizes.append(len(remaining))
        for it in rep.iterations:
            assert set(it.removed_edges) <= remaining
            remaining -= set(it.removed_edges)
            sizes.append(len(remaining))
        assert sizes == [5, 3, 2, 2]


class TestDegenerateGraphs:
    def test_acyclic_policy(self):
        rep = hsieve_once(chain_policy(), seed=0)
        assert rep.verdict == Verdict(TERMINATING, "graph-acyclic")
        assert len(rep.iterations) == 1
        assert rep.iterations[0].forest.trees == ()

    def test_edgeless_policy(self):
        f = Fmp(variables=(VarDecl("x"),), qstates=("q0",), initial="q0",
                edges=())
        assert hsieve_once(f, 0).verdict.detail == "graph-acyclic"

    def test_pure_increase_loop(self):
        rep = hsieve_once(up_loop_policy(), seed=0)
        assert rep.verdict == Verdict(UNKNOWN, "empty-set-persists")

    def test_long_ring(self):
        # one cycle longer than Python's recursion limit; a cycle search
        # runs no reachability BFS, so the ring costs linear time
        f = ring_policy(1500)
        start = time.perf_counter()
        rep = hsieve(f)
        assert rep.verdict == Verdict(TERMINATING, "no-empty-dv")
        assert time.perf_counter() - start < 0.5

    def test_chorded_ring_cap_bounds_time(self):
        # exponentially many dead-end walks; the cap counts only emitted
        # paths, so the search must not descend into them
        start = time.perf_counter()
        rep = hsieve(chord_ring_policy(80), AnalysisConfig(path_cap=1000))
        assert rep.verdict == Verdict(UNKNOWN, "resource-cap")
        assert time.perf_counter() - start < 5.0

    def test_rejects_unnormalized(self):
        # the q0 -> q1 policy is acyclic, so hsieve_once must reject it
        # before it returns `graph-acyclic`
        for qstates, dst in [(("q0",), "q0"), (("q0", "q1"), "q1")]:
            e = Edge(id="e1", src="q0", dst=dst,
                     actions=({"x": 1}, {"x": -1}))
            f = Fmp(variables=(VarDecl("x"),), qstates=qstates,
                    initial="q0", edges=(e,))
            with pytest.raises(ValueError):
                hsieve_once(f, 0)
            with pytest.raises(ValueError):
                progress_sieve(f)


class TestResourceCap:
    def test_tiny_cap_gives_unknown(self):
        rep = hsieve_once(fixture("f2"), seed=0,
                          config=AnalysisConfig(path_cap=1))
        assert rep.verdict == Verdict(UNKNOWN, "resource-cap")
        assert rep.iterations[-1].per_root == ()

    def test_cap_trace_still_serializes(self):
        rep = hsieve_once(fixture("f2"), seed=0,
                          config=AnalysisConfig(path_cap=1))
        d = rep.to_trace_dict()
        assert d["detail"] == "resource-cap"
        assert d["iterations"][-1]["dv"] == []

    def test_sufficient_cap_unaffected(self):
        rep = hsieve_once(fixture("f2"), seed=0,
                          config=AnalysisConfig(path_cap=2))
        assert rep.verdict.kind == TERMINATING


class TestMultiSample:
    def test_forest_dependent_fixture(self):
        f = load_policy(TEST_FIXTURES / "def_dependent.fmp.json")
        kinds = [hsieve_once(f, seed=s).verdict.kind for s in range(5)]
        assert kinds == [UNKNOWN, UNKNOWN, UNKNOWN, TERMINATING, TERMINATING]

    def test_first_success_wins(self):
        f = load_policy(TEST_FIXTURES / "def_dependent.fmp.json")
        rep = hsieve(f, AnalysisConfig(def_samples=5, base_seed=0))
        assert rep.verdict.kind == TERMINATING
        assert rep.seeds == (0, 1, 2, 3)

    def test_single_sample_matches_once(self):
        for name in ("f2", "f3", "example1", "f8prime"):
            a = hsieve(fixture(name))
            b = hsieve_once(fixture(name), seed=0)
            assert a.verdict == b.verdict
            assert a.iterations == b.iterations
            assert a.seeds == (0,)

    def test_zero_samples_clamped_to_one(self):
        rep = hsieve(fixture("f2"), AnalysisConfig(def_samples=0))
        assert rep.seeds == (0,)

    def test_base_seed_offsets_samples(self):
        f = load_policy(TEST_FIXTURES / "def_dependent.fmp.json")
        rep = hsieve(f, AnalysisConfig(def_samples=2, base_seed=3))
        assert rep.seeds == (3,)
        assert rep.verdict.kind == TERMINATING


def separate_runs(fmp, cfg):
    """What hsieve answers, from one hsieve_once run per seed, none sharing
    anything: (the reported sample, the seeds tried, every sample's report)."""
    seeds, reports = [], []
    for k in range(max(1, cfg.def_samples)):
        seeds.append(cfg.base_seed + k)
        reports.append(hsieve_once(fmp, seeds[-1], cfg))
        if reports[-1].verdict.kind == TERMINATING:
            return reports[-1], seeds, reports
    return reports[0], seeds, reports


def all_unknown_policy():
    # 5 qstates, 3 counters, 10 edges: all 20 samples end
    # unknown(empty-set-persists), most after one round of edge removals
    return generate_random(GenSpec(n_qstates=5, n_vars=3, edge_density=0.4,
                                   max_abs_delta=2, seed=113))


class TestSharedSamples:
    """hsieve's samples share work per edge set; separate runs referee it."""

    def test_matches_separate_runs(self):
        removals = mixed_caps = 0
        for i in range(300):
            fmp = generate_random(GenSpec(
                n_qstates=2 + i % 7, n_vars=1 + i % 3, edge_density=0.4,
                max_abs_delta=2, seed=i))
            cfg = AnalysisConfig(
                def_samples=20, base_seed=i % 3,
                path_cap=12 if i % 2 else DEFAULT_PATH_CAP)
            chosen, seeds, reports = separate_runs(fmp, cfg)
            rep = hsieve(fmp, cfg)
            assert rep.verdict == chosen.verdict, i
            assert rep.seeds == tuple(seeds), i
            expected = without_wall(chosen.to_trace_dict())
            expected["seeds"] = seeds
            assert without_wall(rep.to_trace_dict()) == expected, i
            removals += any(len(r.iterations) >= 2 for r in reports)
            capped = {r.verdict.detail == "resource-cap" for r in reports}
            mixed_caps += capped == {True, False}
        # the corpus reaches edge sets past a removal, and calls where the
        # cap stops some samples but not others
        assert removals >= 30
        assert mixed_caps >= 10

    def test_nothing_kept_between_calls(self):
        fmp = all_unknown_policy()
        fields = {f.name for f in dataclasses.fields(Fmp)}
        cfg = AnalysisConfig(def_samples=20)
        before = hsieve_once(fmp, 4, cfg)
        assert set(vars(fmp)) == fields
        first = hsieve(fmp, cfg)
        assert set(vars(fmp)) == fields
        after = hsieve_once(fmp, 4, cfg)
        assert after.verdict == before.verdict
        assert without_wall(after.to_trace_dict()) == without_wall(
            before.to_trace_dict())
        second = hsieve(fmp, cfg)
        assert without_wall(second.to_trace_dict()) == without_wall(
            first.to_trace_dict())

    def test_each_split_and_tree_worked_once(self, monkeypatch):
        fmp = all_unknown_policy()
        cfg = AnalysisConfig(def_samples=20)
        _, _, reports = separate_runs(fmp, cfg)
        assert len(reports) == 20
        assert {r.verdict for r in reports} == {
            Verdict(UNKNOWN, "empty-set-persists")}
        qstates = frozenset(fmp.qstates)
        splits, trees = set(), set()
        for r in reports:
            edges = frozenset(e.id for e in fmp.edges)
            for it in r.iterations:
                splits.add((edges, qstates, None))
                for tree in it.forest.trees:
                    trees.add((edges, tree))
                    splits.update((edges, n.vertices, n.elim)
                                  for n in tree.walk())
                edges -= set(it.removed_edges)
        assert len({edges for edges, _ in trees}) >= 2

        counts = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(decomposition, "scc_decompose",
                            counted("split", decomposition.scc_decompose))
        monkeypatch.setattr(PathContext, "paths",
                            counted("enumerate", PathContext.paths))
        rep = hsieve(fmp, cfg)
        assert rep.seeds == tuple(range(20))
        # one SCC split per (edge set, vertex set, elim), and one
        # enumeration per node of each distinct (edge set, tree)
        assert counts["split"] == len(splits)
        assert counts["enumerate"] == sum(len(t.walk()) for _, t in trees)


class TestDeterminism:
    def test_trace_reproducible(self):
        for name in ("f2", "f3", "example1", "f8prime"):
            a = hsieve_once(fixture(name), seed=11)
            b = hsieve_once(fixture(name), seed=11)
            assert without_wall(a.to_trace_dict()) == without_wall(b.to_trace_dict())

    def test_trace_is_json_clean(self):
        rep = hsieve_once(fixture("f8prime"), seed=2)
        d = rep.to_trace_dict()
        assert json.loads(json.dumps(d)) == d
        assert isinstance(d["wall_ms"], float)


class TestProgressSieve:
    def test_drains(self):
        assert progress_sieve(fixture("f2")) == Verdict(TERMINATING, "progress")

    def test_refill_blocks(self):
        v = progress_sieve(fixture("f3"))
        assert v == Verdict(NONTERMINATING_QUALITATIVE, "no-progress-variable")

    def test_acyclic(self):
        assert progress_sieve(chain_policy()) == Verdict(TERMINATING, "progress")

    def test_pure_increase(self):
        v = progress_sieve(up_loop_policy())
        assert v.kind == NONTERMINATING_QUALITATIVE

    def test_staged(self):
        assert progress_sieve(fixture("f8prime")).kind == TERMINATING

    @staticmethod
    def staircase(k, spin):
        """q0 .. qk, each step up moving the counter below it up and each
        step down moving its own counter down: every round of melting
        removes only the top step down, so the melting goes k rounds deep.
        With `spin`, q0 also loops on itself, moving x0 up."""
        edges = [Edge.single("spin", "q0", "q0", effect={"x0": 1})] \
            if spin else []
        for i in range(1, k + 1):
            edges.append(Edge.single(f"up{i}", f"q{i - 1}", f"q{i}",
                                     effect={f"x{i - 1}": 1}))
            edges.append(Edge.single(f"down{i}", f"q{i}", f"q{i - 1}",
                                     effect={f"x{i}": -1}))
        return Fmp(variables=tuple(VarDecl(f"x{i}") for i in range(k + 1)),
                   qstates=tuple(f"q{i}" for i in range(k + 1)),
                   initial="q0", edges=tuple(edges))

    def test_melting_deeper_than_the_recursion_limit(self):
        with recursion_room(100):
            drains = progress_sieve(self.staircase(300, spin=False))
            spins = progress_sieve(self.staircase(300, spin=True))
        assert drains == Verdict(TERMINATING, "progress")
        assert spins == Verdict(NONTERMINATING_QUALITATIVE,
                                "no-progress-variable")


class TestReplayInvariants:
    """Re-derive each iteration of the trace from scratch and compare."""

    def test_traces_replay(self):
        count = 0
        for i in range(50):
            spec = GenSpec(n_qstates=2 + i % 5, n_vars=1 + i % 3,
                           edge_density=0.4, max_abs_delta=2, seed=50_000 + i)
            fmp = generate_random(spec)
            rep = hsieve_once(fmp, seed=5)
            edges = {e.id: e for e in fmp.edges}
            for it in rep.iterations:
                g = DiGraph(
                    vertices=frozenset(fmp.qstates),
                    arcs=tuple((e.id, e.src, e.dst) for e in edges.values()),
                )
                assert build_def(g, it.forest.seed) == it.forest
                effects = {eid: e.effect for eid, e in edges.items()}
                merged = set()
                removable = set()
                for tree, sets in zip(it.forest.trees, it.per_root):
                    assert brute_var_sets(g, effects, fmp.initial, tree) == sets
                    cands = (set().union(*sets.pdv) - sets.iv - sets.zv
                             if sets.pdv else set())
                    merged |= cands
                    for e in edges.values():
                        if e.src in tree.vertices and e.dst in tree.vertices:
                            if any(e.effect.get(x, 0) < 0 for x in cands):
                                removable.add(e.id)
                assert frozenset(merged) == it.candidates
                assert set(it.removed_edges) <= removable
                for eid in it.removed_edges:
                    del edges[eid]
                count += 1
        assert count >= 50


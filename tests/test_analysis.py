"""The iterative analysis loop, its trace reports, and the baseline sieve."""
import dataclasses
import hashlib
import json
import random
import re
import time
from collections import Counter

import pytest

from termsieve import analysis
from termsieve.analysis import (
    NONTERMINATING_QUALITATIVE,
    TERMINATING,
    UNKNOWN,
    AnalysisConfig,
    _Shared,
    Verdict,
    def_seed_for,
    hsieve,
    hsieve_once,
    progress_sieve,
)
from termsieve.cli import cli_dispatch
from termsieve.generate import GenSpec, generate_random
from termsieve.graphs import DiGraph, SccGraph
from termsieve.model import Edge, Fmp, Guard, VarDecl, normalize
from termsieve.oracle import (
    ALL_HALT, LASSO_FOUND, ExploreCaps, explore, explore_grid,
)
from termsieve.paths import DEFAULT_PATH_CAP, PathContext, var_sets
from termsieve.policyio import load_policy

from helpers import (
    FIXTURES, TEST_FIXTURES, brute_var_sets, chain_policy, chord_ring_policy,
    circulant_policy, draw_forest, fixture, iter_nodes, path_ctx,
    policy_graph, random_small_policy, recursion_room, referee_progress_sieve,
    replay_lasso, ring_policy, two_pair_lasso_policy, up_loop_policy,
    with_zero_effects,
)


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
            for node in iter_nodes(draw_forest(g, seed)):
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

    def test_long_ring_many_samples(self):
        start = time.perf_counter()
        rep = hsieve(ring_policy(1500), AnalysisConfig(def_samples=20))
        assert rep.verdict == Verdict(TERMINATING, "no-empty-dv")
        assert time.perf_counter() - start < 0.5

    def test_deep_forest_many_samples(self):
        # trees 134 levels deep, 100 frames of room: no sample, and no
        # check of what the samples drew, may recurse once per level
        start = time.perf_counter()
        with recursion_room(100):
            rep = hsieve(circulant_policy(300),
                         AnalysisConfig(def_samples=20, path_cap=100))
        assert rep.verdict == Verdict(UNKNOWN, "resource-cap")
        assert rep.seeds == tuple(range(20))
        assert time.perf_counter() - start < 15.0

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

    def test_rejects_undeclared_qstate(self):
        # unvalidated: e1 leaves the declared qstates, and without it the
        # policy drains x on a self-loop
        f = Fmp(variables=(VarDecl("x"),), qstates=("a",), initial="a",
                edges=(Edge.single("e1", "a", "zz", effect={"x": -1}),
                       Edge.single("e2", "a", "a", effect={"x": -1})))
        for engine in (hsieve, progress_sieve):
            with pytest.raises(ValueError,
                               match="arc e1: endpoint outside vertex set"):
                engine(f)


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

    def test_cap_only_turns_a_verdict_into_resource_cap(self):
        # a smaller cap may stop a run, never change what it concludes: a
        # node that stops enumerating while paths are left must give up,
        # not decide on the paths it has
        capped = Verdict(UNKNOWN, "resource-cap")
        seen = Counter()
        for seed in range(400):
            f = generate_random(GenSpec(6, 2, 0.3, 2, seed))
            full = hsieve(f).verdict
            for cap in range(1, 17):
                v = hsieve(f, AnalysisConfig(path_cap=cap)).verdict
                assert v in (capped, full), (seed, cap, v, full)
                seen[v.detail] += 1
        assert seen["resource-cap"] > 1000 and seen["no-empty-dv"] > 500


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


def count_samples(monkeypatch):
    """A counter of the hsieve_once calls that hsieve makes from now on."""
    calls = Counter()
    run = analysis.hsieve_once

    def counted(*args, **kwargs):
        calls["samples"] += 1
        return run(*args, **kwargs)

    monkeypatch.setattr(analysis, "hsieve_once", counted)
    return calls


def all_unknown_policy():
    # 6 qstates, 2 counters, 15 edges, no simple cycle that nets at least
    # zero on every counter: all 20 samples run and end
    # unknown(empty-set-persists), each after one round of edge removals
    return generate_random(GenSpec(n_qstates=6, n_vars=2, edge_density=0.4,
                                   max_abs_delta=2, seed=37))


def pumping_policy():
    # 5 qstates, 3 counters, 10 edges: all 20 samples end
    # unknown(empty-set-persists), and a simple cycle nets at least zero
    # on every counter
    return generate_random(GenSpec(n_qstates=5, n_vars=3, edge_density=0.4,
                                   max_abs_delta=2, seed=113))


class TestSharedSamples:
    """hsieve's samples share work per edge set; separate runs referee it."""

    def test_matches_separate_runs(self, monkeypatch):
        calls = count_samples(monkeypatch)
        removals = mixed_caps = listed = pumped = 0
        for i in range(300):
            fmp = generate_random(GenSpec(
                n_qstates=2 + i % 7, n_vars=1 + i % 3, edge_density=0.4,
                max_abs_delta=2, seed=i))
            cfg = AnalysisConfig(
                def_samples=20, base_seed=i % 3,
                path_cap=12 if i % 2 else DEFAULT_PATH_CAP)
            chosen, seeds, reports = separate_runs(fmp, cfg)
            calls.clear()
            rep = hsieve(fmp, cfg)
            assert rep.verdict == chosen.verdict, i
            assert rep.seeds == tuple(seeds), i
            expected = without_wall(chosen.to_trace_dict())
            expected["seeds"] = seeds
            assert without_wall(rep.to_trace_dict()) == expected, i
            removals += any(len(r.iterations) >= 2 for r in reports)
            capped = {r.verdict.detail == "resource-cap" for r in reports}
            mixed_caps += capped == {True, False}
            listed += calls["samples"] < len(seeds)
            if _Shared(fmp, cfg.path_cap).pumps():
                # a nonnegative simple cycle: no sample proves termination
                assert len(reports) == 20, i
                assert all(r.verdict.kind == UNKNOWN for r in reports), i
                pumped += 1
        # the corpus reaches edge sets past a removal, calls where the cap
        # stops some samples but not others, and calls that list the
        # samples left after the first fails on a nonnegative cycle, under
        # either cap
        assert removals >= 30
        assert mixed_caps >= 10
        assert listed >= 30
        assert pumped >= 150

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
        splits, forests = set(), set()
        for r in reports:
            edges = frozenset(e.id for e in fmp.edges)
            for it in r.iterations:
                splits.add((edges, qstates, None))
                forests.add((edges, it.forest.trees))
                for tree in it.forest.trees:
                    splits.update((edges, n.vertices, n.elim)
                                  for n in tree.walk())
                edges -= set(it.removed_edges)
        assert len({edges for edges, trees in forests if trees}) >= 2
        # some sample draws a forest that an earlier one drew
        assert len(forests) < sum(len(r.iterations) for r in reports)

        counts = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(SccGraph, "__init__",
                            counted("compile", SccGraph.__init__))
        monkeypatch.setattr(SccGraph, "sccs", counted("split", SccGraph.sccs))
        monkeypatch.setattr(PathContext, "paths",
                            counted("enumerate", PathContext.paths))
        monkeypatch.setattr(_Shared, "_iterate",
                            counted("iterate", _Shared._iterate))
        rep = hsieve(fmp, cfg)
        assert rep.seeds == tuple(range(20))
        # one compiled graph per edge set, for splits and paths alike, one
        # SCC split per (edge set, vertex set, elim), and one enumeration
        # per node of each tree and one candidate and removal scan per
        # distinct (edge set, forest): a forest drawn again, as equal trees
        # built anew, is a memo hit
        assert counts["compile"] == len({edges for edges, _ in forests})
        assert counts["split"] == len(splits)
        assert counts["enumerate"] == sum(
            len(t.walk()) for _, trees in forests for t in trees)
        assert counts["iterate"] == len(forests)

    def test_pumping_cycle_lists_the_samples_left(self, monkeypatch):
        # the policy all_unknown_policy was before hsieve looked for a
        # nonnegative cycle: now one sample runs and the rest are listed
        fmp = pumping_policy()
        cfg = AnalysisConfig(def_samples=20)
        assert _Shared(fmp, cfg.path_cap).pumps()
        chosen, seeds, reports = separate_runs(fmp, cfg)
        assert {r.verdict for r in reports} == {
            Verdict(UNKNOWN, "empty-set-persists")}
        calls = count_samples(monkeypatch)
        rep = hsieve(fmp, cfg)
        assert calls["samples"] == 1
        assert rep.seeds == tuple(seeds) == tuple(range(20))
        expected = without_wall(chosen.to_trace_dict())
        expected["seeds"] = seeds
        assert without_wall(rep.to_trace_dict()) == expected


class TestWhenSamplingStops:
    """Samples stop at a proof, or are listed after the first fails on a
    nonnegative simple cycle; otherwise every sample runs."""

    @staticmethod
    def self_loops():
        # every SCC a single qstate, so every edge set has one forest: the
        # first iteration drops q1's drain, the second finds q0's pump,
        # a nonnegative simple cycle
        return Fmp(
            variables=(VarDecl("x"), VarDecl("y")), qstates=("q0", "q1"),
            initial="q0",
            edges=(Edge.single("pump", "q0", "q0", effect={"x": 1}),
                   Edge.single("go", "q0", "q1", effect={"x": -1}),
                   Edge.single("drain", "q1", "q1",
                               effect={"x": 1, "y": -1})))

    def test_self_loops_decided_after_one_sample(self, monkeypatch):
        fmp = self.self_loops()
        cfg = AnalysisConfig(def_samples=20)
        chosen, seeds, _ = separate_runs(fmp, cfg)
        calls = count_samples(monkeypatch)
        rep = hsieve(fmp, cfg)
        assert calls["samples"] == 1
        assert rep.verdict == Verdict(UNKNOWN, "empty-set-persists")
        assert [it.removed_edges for it in rep.iterations] == [("drain",), ()]
        assert rep.seeds == tuple(seeds) == tuple(range(20))
        expected = without_wall(chosen.to_trace_dict())
        expected["seeds"] = seeds
        assert without_wall(rep.to_trace_dict()) == expected

    def test_removals_are_followed(self):
        # 3 qstates, 5 forests on every edge set; each forest of the full
        # set removes only the z loop, which pumps both counters, and one
        # forest of what is left proves termination. From base seed 16 the
        # samples have drawn all 5 forests of the full set by the sixth
        # sample, and that one forest of the rest first at the eleventh.
        ends = {"e0": ("q0", "q1", {"x0": -2, "x1": -2}),
                "e1": ("q1", "q2", {"x0": -2, "x1": -1}),
                "e2": ("q2", "q1", {"x1": -2}),
                "e3": ("q0", "q2", {"x1": -1}),
                "e4": ("q1", "q0", {"x0": 1, "x1": 1}),
                "e5": ("q1", "q2", {"x0": 2, "x1": -2}),
                "z": ("q0", "q0", {"x0": 1, "x1": 1, "z": -1})}
        fmp = Fmp(variables=(VarDecl("x0"), VarDecl("x1"), VarDecl("z")),
                  qstates=("q0", "q1", "q2"), initial="q0",
                  edges=tuple(Edge.single(eid, src, dst, effect=eff)
                              for eid, (src, dst, eff) in ends.items()))
        cfg = AnalysisConfig(def_samples=20, base_seed=16)
        chosen, seeds, reports = separate_runs(fmp, cfg)
        assert [r.iterations[0].removed_edges for r in reports] == \
            [("z",)] * 11
        assert chosen.verdict == Verdict(TERMINATING, "no-empty-dv")
        rep = hsieve(fmp, cfg)
        assert rep.seeds == tuple(seeds) == tuple(range(16, 27))
        assert without_wall(rep.to_trace_dict())["iterations"] == \
            without_wall(chosen.to_trace_dict())["iterations"]

    def test_ring_runs_every_sample(self, monkeypatch):
        # the ring nets (+1, -1) and the loop on q0 (-1, +1): together they
        # net zero, but no simple cycle is nonnegative on both counters.
        # At 30 qstates there are 30 forests, one per elim, so 20 samples
        # never draw them all. At 3 the first four samples draw all 3 and
        # none is a proof: having met every forest is no reason to stop,
        # so all 20 samples run
        cfg = AnalysisConfig(def_samples=20)
        calls = count_samples(monkeypatch)
        for n in (30, 3):
            ring = ring_policy(n)
            edges = (Edge.single("e0", "q0", "q1", effect={"x": 1, "y": -1}),
                     *ring.edges[1:],
                     Edge.single("loop", "q0", "q0", effect={"x": -1, "y": 1}))
            fmp = dataclasses.replace(
                ring, variables=(VarDecl("x"), VarDecl("y")), edges=edges)
            chosen, seeds, reports = separate_runs(fmp, cfg)
            if n == 3:
                assert len({r.iterations[0].forest.trees
                            for r in reports[:4]}) == 3
            assert {r.verdict for r in reports} == {
                Verdict(UNKNOWN, "empty-set-persists")}
            calls.clear()
            rep = hsieve(fmp, cfg)
            assert calls["samples"] == 20
            assert rep.seeds == tuple(seeds) == tuple(range(20))
            expected = without_wall(chosen.to_trace_dict())
            expected["seeds"] = seeds
            assert without_wall(rep.to_trace_dict()) == expected

    def test_pumping_ring_runs_one_sample(self, monkeypatch):
        # the ring test's policy before hsieve looked for a nonnegative
        # cycle: the whole ring nets +1
        ring = ring_policy(30)
        pump = Edge.single("e0", "q0", "q1", effect={"x": 1})
        fmp = dataclasses.replace(ring, edges=(pump,) + ring.edges[1:])
        calls = count_samples(monkeypatch)
        rep = hsieve(fmp, AnalysisConfig(def_samples=20))
        assert rep.verdict == Verdict(UNKNOWN, "empty-set-persists")
        assert calls["samples"] == 1
        assert rep.seeds == tuple(range(20))


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

    def test_wall_time_measures_the_call(self):
        # the report's wall time lies within the time around the call, and
        # the trace gives it in milliseconds
        for run in (lambda f: hsieve_once(f, seed=2),
                    lambda f: hsieve(f, AnalysisConfig(def_samples=3))):
            for name in ("f3", "f8prime"):
                start = time.perf_counter()
                rep = run(fixture(name))
                around = time.perf_counter() - start
                assert 0 <= rep.wall_time <= around
                assert rep.to_trace_dict()["wall_ms"] == round(
                    rep.wall_time * 1000, 3)

    def test_trace_digest_pinned(self):
        # every trace but its wall time, over 999 policies at 1-9 qstates:
        # how many samples hsieve runs to reach a report must not show in it
        configs = (AnalysisConfig(def_samples=20),
                   AnalysisConfig(def_samples=5, base_seed=3),
                   AnalysisConfig(def_samples=20, path_cap=30))
        digest = hashlib.sha256()
        details = Counter()
        for i in range(999):
            fmp = generate_random(GenSpec(
                n_qstates=1 + i % 9, n_vars=1 + i % 3, edge_density=0.4,
                max_abs_delta=2, seed=i))
            d = without_wall(hsieve(fmp, configs[i % 3]).to_trace_dict())
            details[d["detail"]] += 1
            digest.update(json.dumps(d, sort_keys=True).encode())
        assert details == {"empty-set-persists": 647, "no-empty-dv": 180,
                           "resource-cap": 108, "graph-acyclic": 64}
        assert digest.hexdigest()[:16] == "85688ce387b80069"


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

    def test_zero_effect_is_no_increase(self):
        # e2 names x with delta 0: x does not go up, so e1 decreases a
        # progress variable and its removal breaks the cycle
        f = Fmp(variables=(VarDecl("x"), VarDecl("y")), qstates=("q0", "q1"),
                initial="q0",
                edges=(Edge.single("e1", "q0", "q1", effect={"x": -1, "y": 1}),
                       Edge.single("e2", "q1", "q0", effect={"x": 0, "y": -1})))
        assert progress_sieve(f) == Verdict(TERMINATING, "progress")
        assert referee_progress_sieve(f) == Verdict(TERMINATING, "progress")

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

    def test_matches_referee(self):
        # triage-small-shaped policies, guarded ones with action sets and
        # nonzero lower bounds, melts many rounds deep, and the fixtures
        rng = random.Random(17)
        policies = [
            generate_random(GenSpec(n_qstates=2 + i % 5, n_vars=1 + i % 3,
                                    edge_density=0.4, max_abs_delta=2,
                                    seed=60_000 + i))
            for i in range(3000)
        ] + [normalize(random_small_policy(rng)) for _ in range(1000)] + [
            self.staircase(30, spin=False), self.staircase(30, spin=True),
        ] + [fixture(n) for n in ("example1", "f2", "f3", "f8prime")]
        kinds = Counter()
        for f in policies:
            v = progress_sieve(f)
            assert v == referee_progress_sieve(f), f
            kinds[v.kind] += 1
        assert kinds[TERMINATING] > 500
        assert kinds[NONTERMINATING_QUALITATIVE] > 500


class TestExplicitZeroEffects:
    def test_change_no_verdict(self):
        # `x: 0` on every action for each counter it leaves alone names the
        # same runs, so no engine may read it as a move: not hsieve's path
        # sets, not the baseline's increase test, not the oracle's search
        rng = random.Random(11)
        cfg = AnalysisConfig(def_samples=20)
        caps = ExploreCaps(max_configs=1000)

        def grid(f):
            return [(r.kind, dict(r.stats))
                    for _, r in explore_grid(f, 3, caps)]

        spelled, proofs = 0, Counter()
        for _ in range(1000):
            f = normalize(random_small_policy(rng, 5, 3))
            z = with_zero_effects(f)
            spelled += z != f
            rep = hsieve(f, cfg)
            assert without_wall(hsieve(z, cfg).to_trace_dict()) == \
                without_wall(rep.to_trace_dict())
            base = progress_sieve(f)
            assert progress_sieve(z) == base
            assert grid(z) == grid(f)
            proofs["hsieve"] += rep.verdict.kind == TERMINATING
            proofs["baseline"] += base.kind == TERMINATING
        assert spelled > 500
        assert proofs == {"hsieve": 216, "baseline": 216}


class TestGuardBlind:
    """Neither guard-free engine reads a guard (ROADMAP item 4). These pins
    move once one does."""

    def test_a_guard_that_halts_is_not_seen(self):
        # y goes up only from 0, so every run halts after at most one step
        f = Fmp(variables=(VarDecl("y"),), qstates=("q0",), initial="q0",
                edges=(Edge.single("e1", "q0", "q0", effect={"y": 1},
                                   guard=Guard({"y": (0, 0)})),))
        assert progress_sieve(f) == Verdict(NONTERMINATING_QUALITATIVE,
                                            "no-progress-variable")
        assert hsieve(f).verdict == Verdict(UNKNOWN, "empty-set-persists")
        grid = explore_grid(f, 3)
        assert [r.kind for _, r in grid] == [ALL_HALT] * 4


class TestCompiledGraphsOnly:
    """The engines and the CLI draw forests from compiled graphs: no path
    through them builds a string-keyed `graphs.DiGraph`."""

    NAMES = ("example1", "f2", "f3", "f8prime")

    def answers(self, capsys, tmp_path):
        policies = [fixture(name) for name in self.NAMES] + [
            generate_random(GenSpec(n_qstates=2 + i % 6, n_vars=1 + i % 3,
                                    edge_density=0.4, max_abs_delta=2,
                                    seed=70_000 + i))
            for i in range(50)]
        out = []
        for f in policies:
            for samples in (1, 20):
                rep = hsieve(f, AnalysisConfig(def_samples=samples))
                out.append(without_wall(rep.to_trace_dict()))
            out.append(progress_sieve(f))
        for name in self.NAMES:
            path = str(FIXTURES / f"{name}.fmp.json")
            dots = tmp_path / name
            code = cli_dispatch(["analyze", path, "--def-samples", "3",
                                 "--emit-dot", str(dots)])
            text = re.sub(r"wall_ms=\S+", "", capsys.readouterr().out)
            out.append((code, text, {p.name: p.read_text()
                                     for p in sorted(dots.iterdir())}))
            code = cli_dispatch(["export-dot", path, "--def", "--seed", "1"])
            out.append((code, capsys.readouterr().out))
        return out

    def test_no_digraph_built(self, monkeypatch, capsys, tmp_path):
        expected = self.answers(capsys, tmp_path / "plain")

        def refuse(g):
            raise AssertionError("a DiGraph was built")

        monkeypatch.setattr(DiGraph, "__post_init__", refuse)
        with pytest.raises(AssertionError):
            policy_graph(fixture("f3"))
        assert self.answers(capsys, tmp_path / "patched") == expected


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
                assert draw_forest(g, it.forest.seed) == it.forest
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


"""Exhaustive exploration, lasso certificates, and random simulation."""
import random

import pytest

from termsieve import oracle
from termsieve.model import Edge, Fmp, Guard, VarDecl
from termsieve.oracle import (
    ALL_HALT,
    INCONCLUSIVE,
    LASSO_FOUND,
    Configuration,
    ExploreCaps,
    explore,
    explore_grid,
    grid_states,
    run_random,
    step,
)
from termsieve.generate import GenSpec, generate_random
from termsieve.policyio import load_policy

from helpers import (
    FIXTURES, apply_edge, chain_policy, enabled, random_small_policy,
    referee_explore, referee_run_random, referee_successors, replay_lasso,
    up_loop_policy,
)


def fixture(name):
    return load_policy(FIXTURES / f"{name}.fmp.json")


def cfg_of(fmp, qstate, **values):
    return Configuration(qstate=qstate, state=fmp.state(values))


class TestStep:
    def test_declaration_order_and_blocking(self):
        f = fixture("f2")
        succ = step(f, cfg_of(f, "q0", x=0, y=1))
        assert succ == [("e2", cfg_of(f, "q0", x=2, y=0))]
        succ = step(f, cfg_of(f, "q0", x=1, y=1))
        assert [eid for eid, _ in succ] == ["e1", "e2"]

    def test_agrees_with_model_level_semantics(self):
        rng = random.Random(77)
        for i in range(40):
            f = generate_random(GenSpec(3, 2, 0.5, 2, seed=60_000 + i))
            vals = {x: f.bounds[x] + rng.randint(0, 3) for x in f.var_names}
            cfg = Configuration(rng.choice(f.qstates), f.state(vals))
            got = step(f, cfg)
            want = []
            for e in f.edges:
                if e.src == cfg.qstate and enabled(e, cfg.state):
                    want.append((e.id, Configuration(e.dst, apply_edge(e, cfg.state))))
            assert got == want


class TestLasso:
    def test_pump_and_drain_tight_witness(self):
        f = fixture("f3")
        res = explore(f, f.state({"x": 0}))
        assert res.kind == LASSO_FOUND
        w = res.witness
        assert w.start == cfg_of(f, "q0", x=0)
        assert w.steps == (
            ("e2", cfg_of(f, "q1", x=1)),
            ("e3", cfg_of(f, "q0", x=0)),
        )
        assert w.cycle_start == 0
        replay_lasso(f, w)

    def test_prefix_before_cycle(self):
        f = fixture("f3")
        res = explore(f, f.state({"x": 2}))
        assert res.kind == LASSO_FOUND
        w = res.witness
        assert w.start == cfg_of(f, "q0", x=2)
        assert w.cycle_start == 2
        assert w.steps == (
            ("e1", cfg_of(f, "q0", x=1)),
            ("e1", cfg_of(f, "q0", x=0)),
            ("e2", cfg_of(f, "q1", x=1)),
            ("e3", cfg_of(f, "q0", x=0)),
        )
        replay_lasso(f, w)

    def test_witnesses_replay_on_random_policies(self):
        found = 0
        for i in range(120):
            f = generate_random(GenSpec(2 + i % 4, 1 + i % 2, 0.5, 2,
                                        seed=61_000 + i))
            for _, res in explore_grid(f, 2, ExploreCaps(max_configs=20_000)):
                if res.kind == LASSO_FOUND:
                    replay_lasso(f, res.witness)
                    found += 1
        assert found >= 20


class TestAllHalt:
    def test_three_state_loop_single_run(self):
        f = fixture("example1")
        res = explore(f, f.state({"x": 3}))
        assert res.kind == ALL_HALT
        assert res.witness is None
        assert res.stats["expanded"] == 8
        assert res.stats["halting"] == 1

    def test_drain_grid(self):
        f = fixture("f2")
        results = explore_grid(f, 5)
        assert len(results) == 36
        assert all(r.kind == ALL_HALT for _, r in results)

    def test_immediate_halt(self):
        f = chain_policy()
        res = explore(f, f.state({"x": 0}))
        assert res.kind == ALL_HALT
        assert res.stats["expanded"] == 1
        assert res.stats["halting"] == 1


class TestCaps:
    def test_value_cap_inconclusive(self):
        f = up_loop_policy()
        res = explore(f, f.state({"x": 0}))
        assert res.kind == INCONCLUSIVE
        assert res.witness is None
        assert res.stats["value_cap_hits"] == 1

    def test_explicit_value_cap(self):
        f = up_loop_policy()
        res = explore(f, f.state({"x": 0}), ExploreCaps(max_value=10))
        assert res.kind == INCONCLUSIVE
        assert res.stats["expanded"] <= 12

    def test_config_cap_inconclusive(self):
        f = fixture("example1")
        res = explore(f, f.state({"x": 50}), ExploreCaps(max_configs=10))
        assert res.kind == INCONCLUSIVE
        assert res.stats["config_cap"] == 1

    def test_capped_branch_poisons_halting_branch(self):
        # one branch halts cleanly, the other runs into the value cap;
        # the start must not be certified
        f = Fmp(
            variables=(VarDecl("x"),),
            qstates=("q0", "halt"),
            initial="q0",
            edges=(
                Edge.single("stop", "q0", "halt"),
                Edge.single("up", "q0", "q0", effect={"x": 1}),
            ),
        )
        res = explore(f, f.state({"x": 0}), ExploreCaps(max_value=8))
        assert res.kind == INCONCLUSIVE
        assert res.stats["halting"] >= 1

    def test_cap_does_not_hide_lasso(self):
        # the first branch caps out, the second loops at constant x
        f = Fmp(
            variables=(VarDecl("x"),),
            qstates=("q0", "spin"),
            initial="q0",
            edges=(
                Edge.single("up", "q0", "q0", effect={"x": 1},
                            guard=Guard({"x": (1, None)})),
                Edge.single("go", "q0", "spin"),
                Edge.single("stay", "spin", "spin"),
            ),
        )
        res = explore(f, f.state({"x": 1}), ExploreCaps(max_value=6))
        assert res.kind == LASSO_FOUND
        replay_lasso(f, res.witness)


class TestGoal:
    def goal_policy(self):
        return Fmp(
            variables=(VarDecl("x"),),
            qstates=("q0",),
            initial="q0",
            edges=(
                Edge.single("m2", "q0", "q0", effect={"x": -2}),
                Edge.single("m3", "q0", "q0", effect={"x": -3}),
            ),
            goal={"x": (0, 0)},
        )

    def test_goal_fraction(self):
        f = self.goal_policy()
        res = explore(f, f.state({"x": 6}))
        assert res.kind == ALL_HALT
        # halting valuations are x=0 and x=1; only x=0 meets the goal
        assert res.stats["halting"] == 2
        assert res.goal_report == 0.5

    def test_goal_all_hit(self):
        f = self.goal_policy()
        res = explore(f, f.state({"x": 2}))
        assert res.goal_report == 1.0

    def test_no_goal_no_report(self):
        f = fixture("f2")
        res = explore(f, f.state({"x": 1, "y": 1}))
        assert res.goal_report is None


class TestGrid:
    def test_grid_respects_lower_bounds(self):
        f = Fmp(
            variables=(VarDecl("x"), VarDecl("y", lower_bound=-2)),
            qstates=("q0",),
            initial="q0",
            edges=(),
        )
        pts = {(s.values["x"], s.values["y"]) for s in grid_states(f, 1)}
        assert pts == {(0, -2), (0, -1), (1, -2), (1, -1)}

    def test_grid_size(self):
        f = fixture("f2")
        assert sum(1 for _ in grid_states(f, 3)) == 16

    def test_explore_grid_stops_at_first_lasso(self):
        f = fixture("f3")
        results = explore_grid(f, 2)
        assert len(results) == 1
        assert results[0][1].kind == LASSO_FOUND


class TestRunRandom:
    def test_drain_halts(self):
        f = fixture("f2")
        tr = run_random(f, f.state({"x": 3, "y": 3}), seed=5)
        assert tr.halted
        assert tr.steps
        # replay the whole trace through the reference interpreter
        by_id = {e.id: e for e in f.edges}
        cur = cfg_of(f, "q0", x=3, y=3)
        for eid, nxt in tr.steps:
            e = by_id[eid]
            assert e.src == cur.qstate
            assert enabled(e, cur.state)
            assert nxt == Configuration(e.dst, apply_edge(e, cur.state))
            cur = nxt

    def test_blocked_start_is_empty_halt(self):
        f = chain_policy()
        tr = run_random(f, f.state({"x": 0}))
        assert tr == type(tr)(steps=(), halted=True)

    def test_step_budget(self):
        f = up_loop_policy()
        tr = run_random(f, f.state({"x": 0}), max_steps=5)
        assert not tr.halted
        assert len(tr.steps) == 5

    def test_same_seed_same_trace(self):
        f = fixture("f2")
        a = run_random(f, f.state({"x": 4, "y": 4}), seed=9)
        b = run_random(f, f.state({"x": 4, "y": 4}), seed=9)
        assert a == b


def _policy(variables, edges, **kw):
    qstates = sorted({q for e in edges for q in (e.src, e.dst)} | {"q0"})
    return Fmp(variables=tuple(variables), qstates=tuple(qstates),
               initial="q0", edges=tuple(edges), **kw)


HUGE = 10**4299 - 1  # a 4299-digit delta

# name -> (policy, start values, caps)
HAND_BUILT = {
    "interval-guards": (
        _policy([VarDecl("x"), VarDecl("y")], [
            Edge.single("in", "q0", "q1", {"y": 2}, Guard({"x": (2, 4)})),
            Edge.single("low", "q0", "q0", {"x": 1}, Guard({"x": (0, 3)})),
            Edge.single("back", "q1", "q0", {"x": -1, "y": -1},
                        Guard({"y": (1, 6), "x": (1, None)})),
            Edge.single("over", "q1", "q1", {"y": 1}, Guard({"y": (7, None)})),
        ]),
        {"x": 0, "y": 0}, ExploreCaps()),
    "lower-bounds": (
        _policy([VarDecl("x", -3), VarDecl("y", 2)], [
            Edge.single("dx", "q0", "q0", {"x": -1}),
            Edge.single("dy", "q0", "q1", {"y": -2, "x": 1}),
            Edge.single("up", "q1", "q0", {"y": 1}, Guard({"x": (-1, 0)})),
        ]),
        {"x": -1, "y": 5}, ExploreCaps(max_value=9)),
    "action-sets": (
        _policy([VarDecl("x"), VarDecl("y")], [
            Edge("pick", "q0", "q0", Guard({"x": (1, None)}),
                 ({"x": -1, "y": 1}, {"x": -2}, {})),
            Edge("none", "q0", "q1", Guard(), ()),
            Edge("drain", "q0", "q1", Guard(), ({"y": -3}, {"y": -1})),
        ]),
        {"x": 3, "y": 1}, ExploreCaps()),
    "goal": (
        _policy([VarDecl("x"), VarDecl("y", 1)], [
            Edge.single("m2", "q0", "q0", {"x": -2}),
            Edge.single("m3", "q0", "q1", {"x": -3, "y": 1}),
        ], goal={"x": (0, 1), "y": (1, None)}),
        {"x": 9, "y": 1}, ExploreCaps()),
    "no-variables": (
        _policy([], [Edge.single("go", "q0", "q1"),
                     Edge.single("spin", "q1", "q1")]),
        {}, ExploreCaps()),
    "no-variables-goal": (
        _policy([], [Edge.single("go", "q0", "q1")], goal={}),
        {}, ExploreCaps()),
    "no-variables-negative-cap": (
        _policy([], [Edge.single("go", "q0", "q1")], goal={}),
        {}, ExploreCaps(max_value=-1)),
    "cap-below-lower-bound": (
        _policy([VarDecl("x", 5)], [
            Edge.single("dec", "q0", "q0", {"x": -1}),
            Edge.single("stay", "q0", "q1"),
        ]),
        {"x": 7}, ExploreCaps(max_value=3)),
    "start-above-cap": (
        _policy([VarDecl("x"), VarDecl("y")], [
            Edge.single("dec", "q0", "q0", {"x": -1}),
            Edge.single("drop", "q0", "q0", {"x": -10}),
            Edge.single("swap", "q0", "q1", {"y": 5}),
            Edge.single("ret", "q1", "q0", {"y": -5}),
        ]),
        {"x": 25, "y": 0}, ExploreCaps(max_value=20)),
    "huge-deltas": (
        _policy([VarDecl("x"), VarDecl("y", -HUGE)], [
            Edge.single("up", "q0", "q0", {"x": HUGE, "y": -HUGE}),
            Edge.single("go", "q0", "q1", {"y": HUGE}, Guard({"x": (HUGE, None)})),
            Edge.single("back", "q1", "q0", {"x": -HUGE}),
        ]),
        {"x": 0, "y": 0}, ExploreCaps()),
}


def _same(got, want):
    assert got == want
    assert list(got.stats.items()) == list(want.stats.items())


class TestAgainstReferee:
    """explore, step and run_random equal a DFS on the reference interpreter."""

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_hand_built(self, name):
        f, values, caps = HAND_BUILT[name]
        s0 = f.state(values)
        _same(explore(f, s0, caps), referee_explore(f, s0, caps))
        for q in f.qstates:
            cfg = Configuration(q, s0)
            assert step(f, cfg) == referee_successors(f, cfg)
        for seed in range(3):
            assert (run_random(f, s0, max_steps=40, seed=seed)
                    == referee_run_random(f, s0, 40, seed))

    def test_hand_built_cases_reach_every_outcome(self):
        kinds = {name: explore(f, f.state(v), caps).kind
                 for name, (f, v, caps) in HAND_BUILT.items()}
        assert set(kinds.values()) == {ALL_HALT, LASSO_FOUND, INCONCLUSIVE}
        assert kinds["huge-deltas"] == LASSO_FOUND

    def test_generated_policies(self):
        for i in range(60):
            f = generate_random(GenSpec(2 + i % 6, 1 + i % 2, 0.5, 2,
                                        seed=62_000 + i))
            caps = ExploreCaps(max_configs=(300, 2000)[i % 2])
            for s0 in grid_states(f, 1):
                _same(explore(f, s0, caps), referee_explore(f, s0, caps))

    def test_guarded_policies(self):
        rng = random.Random(62_500)
        seen = set()
        for i in range(120):
            f = random_small_policy(rng)
            if i % 3 == 0:
                f = Fmp(f.variables, f.qstates, f.initial, f.edges,
                        goal={f.var_names[0]: (f.variables[0].lower_bound,
                                               rng.choice([None, 0, 2]))})
            caps = ExploreCaps(max_configs=rng.choice([20, 1000]),
                               max_value=rng.choice([None, -3, 0, 4, 30]))
            for s0 in grid_states(f, 2):
                got = explore(f, s0, caps)
                _same(got, referee_explore(f, s0, caps))
                seen.add(got.kind)
                cfg = Configuration(rng.choice(f.qstates), s0)
                assert step(f, cfg) == referee_successors(f, cfg)
                assert (run_random(f, s0, max_steps=25, seed=i)
                        == referee_run_random(f, s0, 25, i))
        assert seen == {ALL_HALT, LASSO_FOUND, INCONCLUSIVE}


class TestCompiledOnce:
    def test_grid_compiles_once_and_packs_once_per_width(self, monkeypatch):
        compiled, widths = [], []
        real_code, real_packing = oracle.OracleCode, oracle.Packing

        def code(fmp):
            compiled.append(fmp)
            return real_code(fmp)

        def packing(code, width):
            widths.append(width)
            return real_packing(code, width)

        monkeypatch.setattr(oracle, "OracleCode", code)
        monkeypatch.setattr(oracle, "Packing", packing)
        f = _policy([VarDecl("x"), VarDecl("y"), VarDecl("z")], [
            Edge.single("dx", "q0", "q0", {"x": -1}),
            Edge.single("dy", "q0", "q0", {"y": -1, "z": 1}),
            Edge.single("dz", "q0", "q0", {"z": -1}),
        ])
        results = explore_grid(f, 3)
        assert len(results) == 64
        assert all(res.kind == ALL_HALT for _, res in results)
        assert len(compiled) == 1
        # start maxima 0..3 derive the caps 64, 128, 192 and 256, which
        # need fields of 7, 8, 8 and 9 bits
        assert sorted(widths) == sorted(set(widths)) and len(widths) == 3

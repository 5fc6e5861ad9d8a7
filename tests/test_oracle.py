"""Exhaustive exploration, lasso certificates, and random simulation."""
import hashlib
import random

import pytest

from termsieve import oracle
from termsieve.model import ConcreteState, Edge, Fmp, Guard, VarDecl
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

from helpers import (
    apply_edge, chain_policy, enabled, fixture, random_small_policy,
    referee_explore, referee_explore_grid, referee_run_random,
    referee_successors, replay_lasso, up_loop_policy,
)


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
                if e.src == cfg.qstate and enabled(e, cfg.state, f.bounds):
                    want.append((e.id, Configuration(e.dst, apply_edge(e, cfg.state))))
            assert got == want

    def test_start_below_a_lower_bound_is_rejected(self):
        f = fixture("f2")
        s0 = ConcreteState(values={"x": -1, "y": 0})
        for call in (lambda: explore(f, s0), lambda: run_random(f, s0),
                     lambda: step(f, Configuration("q0", s0))):
            with pytest.raises(ValueError) as ei:
                call()
            assert str(ei.value) == "value of x below its lower bound"

    def test_start_that_is_not_a_state_of_the_policy_is_rejected(
            self, monkeypatch):
        # a start built without Fmp.state: each bad value is named, a bool
        # is no int, and a counter the policy does not declare is refused
        f = fixture("f2")
        cases = [({"x": 1.0, "y": 0}, "value of x missing or not an int"),
                 ({"x": 1, "y": "3"}, "value of y missing or not an int"),
                 ({"x": True, "y": 0}, "value of x missing or not an int"),
                 ({"x": 1}, "value of y missing or not an int"),
                 ({"x": 1, "y": 0, "xx": 5}, "undeclared variables: ['xx']")]
        for values, message in cases:
            s0 = ConcreteState(values)
            monkeypatch.setattr(oracle, "grid_states", lambda f, g: [s0])
            for call in (lambda: explore(f, s0), lambda: explore_grid(f, 1),
                         lambda: run_random(f, s0),
                         lambda: step(f, Configuration("q0", s0))):
                with pytest.raises(ValueError) as ei:
                    call()
                assert str(ei.value) == message


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

    def test_steps_read_back_from_resumed_frames(self):
        # From (q0, 1), `a` and `b` lead only to halting configurations, so
        # the path's first frame resumes past them and enters (q3, 1) by its
        # third action, `c`. The first action of `pick` reaches the halting
        # (q4, 0); its second reaches (q4, 1), and `back` closes the lasso.
        f = _policy([VarDecl("x")], [
            Edge.single("a", "q0", "q1"),
            Edge.single("b", "q0", "q2", {"x": -1}),
            Edge.single("c", "q0", "q3"),
            Edge.single("b2", "q2", "q1"),
            Edge("pick", "q3", "q4", Guard(), ({"x": -1}, {})),
            Edge.single("back", "q4", "q3", {}, Guard({"x": (1, None)})),
        ])
        s0 = f.state({"x": 1})
        res = explore(f, s0)
        _same(res, referee_explore(f, s0))
        assert res.kind == LASSO_FOUND
        w = res.witness
        assert w.start == cfg_of(f, "q0", x=1) and w.cycle_start == 1
        assert w.steps == (
            ("c", cfg_of(f, "q3", x=1)),
            ("pick", cfg_of(f, "q4", x=1)),
            ("back", cfg_of(f, "q3", x=1)),
        )
        # with (q1, 0) and (q4, 0) known from the start x=0 and reused
        (_, first), (_, second) = explore_grid(f, 1)
        assert first.kind == ALL_HALT and second.witness == w
        assert second.stats["expanded"] == 5 < res.stats["expanded"] == 7
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


class TestWitnessDecode:
    def test_nothing_decoded_until_read(self, monkeypatch):
        # `up` climbs to the value cap, then go -> back closes a lasso
        # through 13 configurations
        decoded = []
        real = oracle.Packing.config

        def config(self, key):
            decoded.append(key)
            return real(self, key)

        monkeypatch.setattr(oracle.Packing, "config", config)
        f = Fmp(
            variables=(VarDecl("x"),),
            qstates=("q0", "q1"),
            initial="q0",
            edges=(
                Edge.single("up", "q0", "q0", effect={"x": 1}),
                Edge.single("go", "q0", "q1"),
                Edge.single("back", "q1", "q0"),
            ),
        )
        (_, res), = explore_grid(f, 1, ExploreCaps(max_value=10))
        assert res.kind == LASSO_FOUND
        assert decoded == []
        w = res.witness
        steps = w.steps
        assert len(decoded) == len(w.configurations()) == len(steps) + 1 == 13
        assert w.steps == steps and w.start == cfg_of(f, "q0", x=0)
        replay_lasso(f, w)
        assert len(decoded) == 13


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
            assert enabled(e, cur.state, f.bounds)
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


def _same_grid(got, want) -> int:
    """explore_grid against referee_explore_grid: the same starts, kinds,
    witnesses, value-cap hits and config caps, and no start expands more
    than explore would. A start that expands as many reused nothing, or
    ran again without reuse, so its result is explore's, stats included.
    Returns how many starts expanded fewer."""
    assert [s0 for s0, _ in got] == [s0 for s0, _ in want]
    fewer = 0
    for (_, g), (_, w) in zip(got, want):
        assert (g.kind, g.witness) == (w.kind, w.witness)
        for name in ("value_cap_hits", "config_cap"):
            assert g.stats[name] == w.stats[name]
        assert g.stats["expanded"] <= w.stats["expanded"]
        if g.stats["expanded"] == w.stats["expanded"]:
            _same(g, w)
            assert g.goal_report == w.goal_report
        else:
            fewer += 1
    return fewer


class TestGridAgainstReferee:
    """explore_grid, sharing what halting starts explored, against
    explore per start on the reference interpreter."""

    # From x=0 only `skip` runs: q0 -> qB -> qC, which then halts. From
    # x=1, `dec` reaches (qB, 0), known from x=0, and `side` reaches
    # (qC, 0) again through qD.
    TWO_ROUTES = _policy([VarDecl("x")], [
        Edge.single("skip", "q0", "qB", {}, Guard({"x": (0, 0)})),
        Edge.single("dec", "q0", "qB", {"x": -1}),
        Edge.single("side", "q0", "qD", {"x": -1}),
        Edge.single("bc", "qB", "qC"),
        Edge.single("dc", "qD", "qC"),
    ])

    @pytest.mark.parametrize("max_configs, kind, expanded", [
        # explore stops before (qD, 0): 1 + 2 reached through qB
        (3, INCONCLUSIVE, 3),
        # reuse ends before it starts
        (4, ALL_HALT, 4),
        # reuse ends at (qC, 0), reached from qD, after the start reused
        # (qB, 0), so the start runs again without reuse
        (5, ALL_HALT, 4),
        # the start expands only itself and (qD, 0)
        (10**6, ALL_HALT, 2),
    ])
    def test_reuse_ends_within_reach_of_the_config_cap(
            self, max_configs, kind, expanded):
        f, caps = self.TWO_ROUTES, ExploreCaps(max_configs=max_configs)
        got = explore_grid(f, 1, caps)
        _same_grid(got, referee_explore_grid(f, 1, caps))
        (_, first), (_, second) = got
        assert first.kind == ALL_HALT and first.stats["expanded"] == 3
        assert second.kind == kind
        assert second.stats["expanded"] == expanded

    @staticmethod
    def policies(rng, n):
        """Guarded policies with action sets and lower bounds off zero,
        every fourth one generated; every third has a goal."""
        for i in range(n):
            if i % 4 == 3:
                f = generate_random(GenSpec(2 + i % 4, 1 + i % 3, 0.3, 2,
                                            seed=63_000 + i))
            else:
                f = random_small_policy(rng)
            if i % 3 == 0:
                x = f.variables[0]
                f = Fmp(f.variables, f.qstates, f.initial, f.edges,
                        goal={x.name: (x.lower_bound,
                                       rng.choice([None, 0, 2]))})
            yield f

    @staticmethod
    def check(f, caps, grid) -> tuple[int, set[str]]:
        got = explore_grid(f, grid, caps)
        fewer = _same_grid(got, referee_explore_grid(f, grid, caps))
        return fewer, {res.kind for _, res in got}

    def test_under_config_caps(self):
        # reuse must stop while expanding every known configuration could
        # still reach the cap; at caps this small a grid that reused
        # closures freely reports all_halt where explore is capped
        rng = random.Random(23_023)
        kinds, fewer = set(), 0
        for f in self.policies(rng, 1000):
            caps = ExploreCaps(max_configs=rng.randint(1, 30),
                               max_value=rng.choice([None, 0, 2, 20]))
            n, k = self.check(f, caps, rng.randint(1, 3))
            fewer += n
            kinds |= k
        assert kinds == {ALL_HALT, LASSO_FOUND, INCONCLUSIVE}
        assert fewer >= 100

    def test_without_config_cap(self):
        rng = random.Random(23_024)
        kinds, fewer = set(), 0
        for f in self.policies(rng, 400):
            # value caps that keep the referee's search small
            values = [None, 0, 2, 20] if len(f.variables) == 1 else [0, 2, 6]
            caps = ExploreCaps(max_configs=10**6,
                               max_value=rng.choice(values))
            n, k = self.check(f, caps, rng.randint(1, 3))
            fewer += n
            kinds |= k
        assert kinds == {ALL_HALT, LASSO_FOUND, INCONCLUSIVE}
        assert fewer >= 200

    def test_per_start_digest_pinned(self):
        # every start's full result, stats and goal report included, at
        # config caps in reach and out of it; 50 of these starts have
        # reused a closure when reuse ends near the config cap. The digest
        # was taken before such a start ran again without reuse. A witness
        # is hashed by its content, not its repr, so a change to how a
        # configuration prints does not move the pin.
        def cfg(c):
            return c.qstate, sorted(c.state.values.items())

        def content(w):
            if w is None:
                return None
            return cfg(w.start), [(e, cfg(c)) for e, c in w.steps], w.cycle_start

        rng = random.Random(30_032)
        h = hashlib.sha256()
        starts = 0
        for f in self.policies(rng, 1200):
            if rng.random() < 0.5:
                caps = ExploreCaps(max_configs=rng.randint(1, 30),
                                   max_value=rng.choice([None, 0, 2, 20]))
            else:
                values = ([None, 0, 2, 20] if len(f.variables) == 1
                          else [0, 2, 6])
                caps = ExploreCaps(max_configs=10**6,
                                   max_value=rng.choice(values))
            for s0, res in explore_grid(f, rng.randint(1, 3), caps):
                starts += 1
                h.update(repr((sorted(s0.values.items()), res.kind,
                               sorted(res.stats.items()), res.goal_report,
                               content(res.witness))).encode())
        assert starts == 12812
        assert h.hexdigest()[:16] == "1a2fbfea2b395720"


class TestInPlaceScan:
    """explore scans each configuration's actions in place and counts a
    configuration halting when that scan ends with no enabled action."""

    def test_builds_no_successor_list(self, monkeypatch):
        def successors(self, key):
            raise AssertionError("a successor list was built")

        monkeypatch.setattr(oracle.Packing, "successors", successors)
        kinds = set()
        for f, values, caps in HAND_BUILT.values():
            s0 = f.state(values)
            for c in (caps, ExploreCaps(3, caps.max_value)):
                got = explore(f, s0, c)
                _same(got, referee_explore(f, s0, c))
                kinds.add((got.kind, got.stats["config_cap"]))
        assert kinds >= {(ALL_HALT, 0), (LASSO_FOUND, 0), (INCONCLUSIVE, 0),
                         (INCONCLUSIVE, 1)}
        # nor does explore_grid, with the config cap out of reach, where
        # reuse never ends, or in reach, where a start that reused a
        # closure runs again without reuse
        rng = random.Random(24_024)
        fewer = 0
        for f in TestGridAgainstReferee.policies(rng, 100):
            caps = ExploreCaps(max_configs=10**6,
                               max_value=rng.choice([0, 2, 6]))
            fewer += TestGridAgainstReferee.check(f, caps, rng.randint(1, 3))[0]
        assert fewer > 0
        TestGridAgainstReferee().test_under_config_caps()

    # name -> (policy, start values, value cap, m, event): the config cap m
    # falls right after the event
    EVENTS = {
        # (q0, 3) steps down to (q0, 0); the halting (q1, 0) and (q1, 1),
        # expanded 5th and 6th, lie in the goal, (q1, 2) and (q1, 3) do not
        "after-goal": (
            _policy([VarDecl("x")], [
                Edge.single("dec", "q0", "q0", {"x": -1}),
                Edge.single("stop", "q0", "q1"),
            ], goal={"x": (0, 1)}),
            {"x": 3}, None, 5, "halting"),
        # (q3, 0), expanded 9th, halts; (q2, 1), expanded 10th, does not,
        # as its one successor (q3, 0) is done
        "after-halting": (
            _policy([VarDecl("x")], [
                Edge.single("a", "q0", "q1"),
                Edge.single("b", "q0", "q2", {"x": 1}),
                Edge.single("c", "q1", "q3"),
                Edge.single("d", "q2", "q3", {"x": -1}),
                Edge.single("e", "q3", "q0", {"x": -1}),
            ]),
            {"x": 2}, None, 9, "halting"),
        # (q0, 3), expanded 4th, has `up` past the cap; (q1, 3), expanded
        # 5th, does not halt, as its one action passes the cap
        "after-value-cap": (
            _policy([VarDecl("x")], [
                Edge.single("up", "q0", "q0", {"x": 1}),
                Edge.single("jump", "q0", "q1"),
                Edge.single("end", "q0", "q2"),
                Edge.single("over", "q1", "q1", {"x": 5}),
            ]),
            {"x": 0}, 3, 4, "value_cap_hits"),
        # the 6th expansion, (q2, 0), closes q1 -> q2 -> q1
        "before-lasso": (
            _policy([VarDecl("x")], [
                Edge.single("dec", "q0", "q0", {"x": -1}),
                Edge.single("zero", "q0", "q1", {}, Guard({"x": (0, 0)})),
                Edge.single("stop", "q0", "q3"),
                Edge.single("on", "q1", "q2"),
                Edge.single("back", "q2", "q1"),
            ]),
            {"x": 3}, None, 5, LASSO_FOUND),
    }

    @staticmethod
    def sweep(f, s0, max_value):
        """explore at config caps 1..40, each equal to the referee's, goal
        report included."""
        out = []
        for m in range(1, 41):
            caps = ExploreCaps(m, max_value)
            got = explore(f, s0, caps)
            _same(got, referee_explore(f, s0, caps))
            out.append(got)
        return out

    @pytest.mark.parametrize("name", sorted(EVENTS))
    def test_config_cap_sweep_hand_built(self, name):
        f, values, max_value, m, event = self.EVENTS[name]
        res = self.sweep(f, f.state(values), max_value)
        before, at, after = res[m - 2:m + 1]
        assert before.stats["config_cap"] == at.stats["config_cap"] == 1
        if event == LASSO_FOUND:
            assert after.kind == LASSO_FOUND
        else:
            assert at.stats[event] > before.stats[event]
        assert res[-1].stats["config_cap"] == 0

    def test_config_cap_sweep_random(self):
        rng = random.Random(24_025)
        kinds = set()
        for i in range(200):
            f = random_small_policy(rng)
            if i % 3 == 0:
                x = f.variables[0]
                f = Fmp(f.variables, f.qstates, f.initial, f.edges,
                        goal={x.name: (x.lower_bound,
                                       rng.choice([None, 0, 2]))})
            s0 = rng.choice(list(grid_states(f, 2)))
            res = self.sweep(f, s0, rng.choice([None, 0, 2, 6]))
            kinds |= {r.kind for r in res}
        assert kinds == {ALL_HALT, LASSO_FOUND, INCONCLUSIVE}


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
        # start maxima 0..3 derive the caps 64, 128, 192 and 256; the
        # grid packs once, for the largest, which needs 9-bit fields
        assert widths == [9]


class TestMonotoneBox:
    """The lemma of ROADMAP item 13 on monotone policies, those with no
    guard that has a max, against explore_grid. For starts v <= t, every
    run from v, shifted up by t - v, is a run from t: a guard with only a
    min still holds higher up, and so does every lower bound. The shift is
    injective and raises every value, so a lasso from v is one from t, and
    if neither cap binds from t, neither binds lower down."""

    @staticmethod
    def policies(rng, n):
        """`n` monotone policies: every other one generated (guard-free),
        the rest random_small_policy ones with no guard that has a max."""
        out = []
        while len(out) < n:
            if len(out) % 2:
                i = len(out)
                f = generate_random(GenSpec(2 + i % 4, 1 + i % 3, 0.4, 2,
                                            seed=64_000 + i))
            else:
                f = random_small_policy(rng)
            if all(hi is None for e in f.edges
                   for _, hi in e.guard.conjuncts.values()):
                out.append(f)
        return out

    @staticmethod
    def top(f, grid):
        return f.state({x: f.bounds[x] + grid for x in f.var_names})

    def test_a_halting_top_halts_the_box_under_its_value_cap(self):
        # one max_value for the whole box, at or above the top corner
        rng = random.Random(39_001)
        tops = lassos = 0
        for f in self.policies(rng, 300):
            grid = rng.randint(1, 3)
            top = self.top(f, grid)
            caps = ExploreCaps(
                max_configs=rng.choice([30, 300, 3000]),
                max_value=max(top.values.values()) + rng.choice([0, 2, 8]))
            at_top = explore(f, top, caps).kind
            box = explore_grid(f, grid, caps)
            if at_top == ALL_HALT:
                tops += 1
                assert len(box) == (grid + 1) ** len(f.variables)
                assert {res.kind for _, res in box} == {ALL_HALT}
            if box[-1][1].kind == LASSO_FOUND:
                lassos += 1
                assert at_top != ALL_HALT
        assert tops >= 60 and lassos >= 60

    def test_a_halting_top_rules_out_box_lassos_under_derived_caps(self):
        # each start's derived cap is its own, so a lower start may end
        # inconclusive where the top halts; it never finds a lasso
        rng = random.Random(39_002)
        tops = lassos = 0
        for f in self.policies(rng, 300):
            grid = rng.randint(1, 3)
            caps = ExploreCaps(max_configs=rng.choice([30, 300, 3000]))
            at_top = explore(f, self.top(f, grid), caps).kind
            box = explore_grid(f, grid, caps)
            tops += at_top == ALL_HALT
            if box[-1][1].kind == LASSO_FOUND:
                lassos += 1
                assert at_top != ALL_HALT
        assert tops >= 60 and lassos >= 60

    def test_derived_caps_can_stop_a_lower_start(self):
        # x += 2 along a chain of 71 qstates: from x = 0 the cap is 128 and
        # the run reaches 140; from x = 1 the cap is 192
        f = _policy([VarDecl("x")], [
            Edge.single(f"e{i}", f"q{i}", f"q{i + 1}", {"x": 2})
            for i in range(70)])
        box = explore_grid(f, 3)
        assert [res.kind for _, res in box] == [INCONCLUSIVE] + [ALL_HALT] * 3
        caps = ExploreCaps(max_value=f.oracle_code.derived_max_value(3))
        assert {res.kind for _, res in explore_grid(f, 3, caps)} == {ALL_HALT}

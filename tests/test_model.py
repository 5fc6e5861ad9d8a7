"""Core model: validation, normalization, effects, enablement."""
import random

import pytest

from termsieve.model import (
    ConcreteState,
    Edge,
    Fmp,
    Guard,
    VarDecl,
    effect_str,
    normalize,
    validate,
)
from termsieve.oracle import Configuration, ExploreCaps, explore, step

from helpers import (
    accumulate, chain_policy, random_small_policy, up_loop_policy,
)


def mk(variables=None, qstates=("q0",), initial="q0", edges=(), terminal=(),
       goal=None):
    if variables is None:
        variables = (VarDecl("x"),)
    return Fmp(variables=variables, qstates=qstates, initial=initial,
               edges=tuple(edges), terminal=tuple(terminal), goal=goal)


def codes(fmp):
    return sorted(v.code for v in validate(fmp))


class TestValidate:
    def test_clean_policy(self):
        assert validate(chain_policy()) == []

    def test_duplicate_variable(self):
        f = mk(variables=(VarDecl("x"), VarDecl("x")))
        assert "duplicate-variable" in codes(f)

    def test_bad_lower_bound(self):
        f = mk(variables=(VarDecl("x", lower_bound=1.5),))
        assert "bad-lower-bound" in codes(f)

    def test_duplicate_qstate(self):
        f = mk(qstates=("q0", "q0"))
        assert "duplicate-qstate" in codes(f)

    def test_unknown_initial(self):
        f = mk(initial="nope")
        assert "unknown-initial" in codes(f)

    def test_unknown_qstate_endpoints(self):
        e = Edge.single("e1", "q0", "ghost")
        vs = validate(mk(edges=(e,)))
        assert any(v.code == "unknown-qstate" and "dst=ghost" in v.where
                   for v in vs)

    def test_duplicate_edge_id(self):
        es = (Edge.single("e1", "q0", "q0"), Edge.single("e1", "q0", "q0"))
        assert "duplicate-edge-id" in codes(mk(edges=es))

    def test_guard_undeclared_variable(self):
        e = Edge.single("e1", "q0", "q0", guard=Guard({"y": (0, None)}))
        assert "undeclared-variable" in codes(mk(edges=(e,)))

    def test_guard_empty_interval(self):
        e = Edge.single("e1", "q0", "q0", guard=Guard({"x": (3, 1)}))
        assert "guard-empty-interval" in codes(mk(edges=(e,)))

    def test_bad_guard_bound(self):
        e = Edge.single("e1", "q0", "q0", guard=Guard({"x": (0.5, None)}))
        assert "bad-guard-bound" in codes(mk(edges=(e,)))

    def test_effect_undeclared_variable(self):
        e = Edge.single("e1", "q0", "q0", effect={"y": 1})
        assert "undeclared-variable" in codes(mk(edges=(e,)))

    def test_non_integer_effect(self):
        e = Edge.single("e1", "q0", "q0", effect={"x": 1})
        e = Edge(id="e1", src="q0", dst="q0", actions=({"x": 1.5},))
        assert "non-integer-effect" in codes(mk(edges=(e,)))

    def test_bool_effect_rejected(self):
        # bools are ints in Python; we still refuse them
        e = Edge(id="e1", src="q0", dst="q0", actions=({"x": True},))
        assert "non-integer-effect" in codes(mk(edges=(e,)))

    def test_unknown_terminal(self):
        assert "unknown-terminal" in codes(mk(terminal=("halt",)))

    def test_terminal_has_outgoing(self):
        e = Edge.single("e1", "q0", "q0")
        assert "terminal-has-outgoing" in codes(mk(edges=(e,), terminal=("q0",)))

    def test_goal_unknown_variable(self):
        assert "goal-unknown-variable" in codes(mk(goal={"y": (0, None)}))

    def test_goal_empty_interval(self):
        assert "goal-empty-interval" in codes(mk(goal={"x": (5, 2)}))

    def test_bad_goal_bound(self):
        assert "bad-goal-bound" in codes(mk(goal={"x": (0.1, None)}))

    def test_violations_carry_location(self):
        e = Edge.single("e9", "q0", "q0", guard=Guard({"zz": (0, None)}))
        vs = validate(mk(edges=(e,)))
        assert any("e9" in v.where and "zz" in v.where for v in vs)


class TestNormalize:
    def test_identity_on_normalized(self):
        f = chain_policy()
        assert normalize(f) is f

    def test_split_two_actions(self):
        e = Edge(id="e1", src="q0", dst="q0",
                 guard=Guard({"x": (1, None)}),
                 actions=({"x": -1}, {"x": 2}), label="branch")
        f = mk(edges=(e,))
        log = []
        g = normalize(f, log=log)
        assert [d.id for d in g.edges] == ["e1#0", "e1#1"]
        assert all(d.src == "q0" and d.dst == "q0" for d in g.edges)
        assert all(d.guard == e.guard and d.label == "branch" for d in g.edges)
        assert g.edges[0].effect == {"x": -1}
        assert g.edges[1].effect == {"x": 2}
        assert log == ["split e1 into e1#0,e1#1"]

    def test_drop_empty_action_set(self):
        dead = Edge(id="dead", src="q0", dst="q0", actions=())
        keep = Edge.single("e1", "q0", "q0", effect={"x": -1})
        log = []
        g = normalize(mk(edges=(dead, keep)), log=log)
        assert [d.id for d in g.edges] == ["e1"]
        assert log == ["dropped dead: empty action set"]

    def test_split_id_collision_gets_tick(self):
        taken = Edge.single("e1#0", "q0", "q0", effect={"x": -1})
        multi = Edge(id="e1", src="q0", dst="q0", actions=({"x": -1}, {"x": 1}))
        g = normalize(mk(edges=(taken, multi)))
        ids = [d.id for d in g.edges]
        assert "e1#0" in ids and "e1#0'" in ids and "e1#1" in ids
        assert len(ids) == len(set(ids))

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(50):
            f = random_small_policy(rng)
            g = normalize(f)
            assert normalize(g) is g

    def test_effect_property_requires_normal_form(self):
        multi = Edge(id="e1", src="q0", dst="q0", actions=({"x": -1}, {"x": 1}))
        with pytest.raises(ValueError):
            multi.effect

    def test_behavior_preserved(self):
        # splitting action sets must not change the execution relation:
        # the exhaustive explorer sees identical outcomes before and after
        rng = random.Random(20240)
        checked = 0
        for _ in range(60):
            f = random_small_policy(rng)
            if all(len(e.actions) == 1 for e in f.edges):
                continue
            g = normalize(f)
            start = f.state({x: f.bounds[x] + 1 for x in f.var_names})
            caps = ExploreCaps(max_configs=3000, max_value=40)
            ra = explore(f, start, caps)
            rb = explore(g, start, caps)
            assert ra.kind == rb.kind
            assert ra.stats["expanded"] == rb.stats["expanded"]
            assert ra.stats["halting"] == rb.stats["halting"]
            checked += 1
        assert checked >= 20


def net_of(effects):
    net = {}
    for eff in effects:
        accumulate(net, eff)
    return net


class TestEffects:
    def test_net_change_sums(self):
        assert net_of(({"x": -1, "y": 2}, {"x": -1})) == {"x": -2, "y": 2}

    def test_net_change_keeps_cancelled_keys(self):
        assert net_of(({"x": 1}, {"x": -1})) == {"x": 0}

    def test_net_change_ignores_zero_deltas(self):
        assert net_of(({"x": 0},)) == {}

    def test_net_change_empty(self):
        assert net_of(()) == {}

    def test_accumulate_matches_net_change(self):
        rng = random.Random(3)
        for _ in range(100):
            effs = [{f"x{i}": rng.randint(-3, 3) for i in rng.sample(range(3), rng.randint(0, 3))}
                    for _ in range(rng.randint(0, 5))]
            touched = {v for eff in effs for v, d in eff.items() if d}
            want = {v: sum(eff.get(v, 0) for eff in effs) for v in touched}
            assert net_of(effs) == want

    def test_effect_str(self):
        assert effect_str({"y": 2, "x": -1}) == "x-1,y+2"
        assert effect_str({}) == ""


class TestEnablement:
    def setup_method(self):
        self.f = Fmp(
            variables=(VarDecl("x"), VarDecl("y", lower_bound=-2)),
            qstates=("q0",),
            initial="q0",
            edges=(
                Edge.single("dec", "q0", "q0", effect={"x": -1}),
                Edge.single("guarded", "q0", "q0", effect={"y": 1},
                            guard=Guard({"x": (2, 4)})),
                Edge.single("deep", "q0", "q0", effect={"y": -2}),
            ),
        )

    def successors(self, values):
        cfg = Configuration("q0", self.f.state(values))
        return dict(step(self.f, cfg))

    def test_bound_blocks_edge(self):
        assert "dec" not in self.successors({"x": 0, "y": 0})
        assert "dec" in self.successors({"x": 1, "y": 0})

    def test_guard_interval(self):
        for x, want in ((1, False), (2, True), (4, True), (5, False)):
            assert ("guarded" in self.successors({"x": x, "y": 0})) is want

    def test_negative_lower_bound(self):
        assert "deep" in self.successors({"x": 0, "y": 0})
        assert "deep" not in self.successors({"x": 0, "y": -1})

    def test_apply_edge(self):
        s = self.f.state({"x": 3, "y": 0})
        t = self.successors(s.values)["dec"].state
        assert t.values == {"x": 2, "y": 0}
        assert t.bounds is s.bounds

    def test_state_rejects_missing_and_low(self):
        with pytest.raises(ValueError):
            self.f.state({"x": 1})
        with pytest.raises(ValueError):
            self.f.state({"x": -1, "y": 0})

    def test_well_formed(self):
        ok = ConcreteState({"x": 0}, {"x": 0})
        assert ok.well_formed()
        assert not ConcreteState({"x": -1}, {"x": 0}).well_formed()
        assert not ConcreteState({"x": 0}, {"x": 0, "y": 0}).well_formed()


def test_up_loop_never_blocks():
    f = up_loop_policy()
    succ = step(f, Configuration("q0", f.state({"x": 0})))
    assert [eid for eid, _ in succ] == ["e1"]

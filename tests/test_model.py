"""Core model: validation, normalization, effects, enablement."""
import copy
import dataclasses
import hashlib
import importlib
import inspect
import pickle
import pkgutil
import random
import re
import tracemalloc
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

import termsieve
from termsieve import model
from termsieve.analysis import (
    AnalysisConfig, hsieve, hsieve_once, progress_sieve,
)
from termsieve.generate import GenSpec, generate_random
from termsieve.model import (
    EMPTY_GUARD,
    ConcreteState,
    Edge,
    Fmp,
    Guard,
    VarDecl,
    effect_str,
    normalize,
    validate,
)
from termsieve.oracle import (
    ALL_HALT, Configuration, ExploreCaps, ExploreResult, explore,
    explore_grid, run_random, step,
)

from helpers import (
    accumulate, chain_policy, random_small_policy, referee_validate,
    up_loop_policy,
)


def mk(variables=None, qstates=("q0",), initial="q0", edges=(), terminal=(),
       goal=None):
    if variables is None:
        variables = (VarDecl("x"),)
    return Fmp(variables=variables, qstates=qstates, initial=initial,
               edges=tuple(edges), terminal=tuple(terminal), goal=goal)


def codes(fmp):
    return sorted(v.code for v in validate(fmp))


def hand_built_violations():
    """Policies built by hand, each with several violations."""
    xy = (VarDecl("x"), VarDecl("y", lower_bound=-1))
    qs = ("q0", "q1", "end")

    def e(eid, src="q0", dst="q1", guard=None, actions=({"x": -1},)):
        return Edge(id=eid, src=src, dst=dst,
                    guard=Guard(guard or {}), actions=actions)

    return [
        mk(edges=(e("e1", actions=({"x": True},)),)),
        mk(edges=(e("e1", actions=({"x": 1.5}, {"x": -1, "z": 2})),)),
        mk(variables=xy, qstates=qs,
           edges=(e("e1", actions=({"w": 1, "x": False}, {"y": 2})),)),
        mk(edges=(e("e1", src="ghost", dst="void"),)),
        mk(qstates=qs, edges=(e("e1", dst="void"), e("e2", src="nope"))),
        mk(variables=xy, qstates=qs,
           edges=(e("e1", guard={"x": (3, 1), "y": (0, 0)}),)),
        mk(variables=xy, qstates=qs,
           edges=(e("e1", guard={"x": (0.5, None), "y": (0, "2")}),)),
        mk(variables=xy, qstates=qs,
           edges=(e("e1", guard={"x": (True, 3), "z": (4, 2)}),)),
        mk(qstates=qs, edges=(e("e1"), e("e1"), e("e2"), e("e1"))),
        mk(qstates=("q0", "q1", "q0", "q1")),
        mk(variables=(VarDecl("x"), VarDecl("y"), VarDecl("x"))),
        mk(variables=(VarDecl("x", lower_bound=1.5),
                      VarDecl("y", lower_bound=False))),
        mk(initial="ghost", qstates=qs),
        mk(qstates=qs, terminal=("q1", "halt"),
           edges=(e("e1"), e("e2", src="q1", dst="q0"),
                  e("e3", src="q1", dst="end"))),
        mk(qstates=qs, terminal=("end", "end"),
           edges=(e("e1", src="end", dst="end"),)),
        mk(goal={"y": (0, None), "x": (5, 2)}),
        mk(goal={"x": (0.1, None), "z": (0, True)}),
        mk(variables=xy, goal={"x": (0, 1), "y": (2, 2), "w": (1, 0)}),
        mk(qstates=qs, edges=(e("e1", actions=()),
                              e("e2", actions=({}, {"x": 0}, {"q": 1})))),
        mk(variables=(VarDecl("x"), VarDecl("x", lower_bound=0.5)),
           qstates=("q0", "q0"), initial="q9", terminal=("q0", "qq"),
           edges=(e("e1", src="q0", dst="q7", guard={"v": (2, 1)},
                    actions=({"v": 1.0},)),
                  e("e1", src="q8", dst="q0")),
           goal={"v": (1, 0)}),
    ]


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
        e = Edge("e1", "q0", "ghost")
        vs = validate(mk(edges=(e,)))
        assert any(v.code == "unknown-qstate" and "dst=ghost" in v.where
                   for v in vs)

    def test_duplicate_edge_id(self):
        es = (Edge("e1", "q0", "q0"), Edge("e1", "q0", "q0"))
        assert "duplicate-edge-id" in codes(mk(edges=es))

    def test_guard_undeclared_variable(self):
        e = Edge("e1", "q0", "q0", guard=Guard({"y": (0, None)}))
        assert "undeclared-variable" in codes(mk(edges=(e,)))

    def test_guard_empty_interval(self):
        e = Edge("e1", "q0", "q0", guard=Guard({"x": (3, 1)}))
        assert "guard-empty-interval" in codes(mk(edges=(e,)))

    def test_bad_guard_bound(self):
        e = Edge("e1", "q0", "q0", guard=Guard({"x": (0.5, None)}))
        assert "bad-guard-bound" in codes(mk(edges=(e,)))

    def test_effect_undeclared_variable(self):
        e = Edge("e1", "q0", "q0", actions=({"y": 1},))
        assert "undeclared-variable" in codes(mk(edges=(e,)))

    def test_non_integer_effect(self):
        e = Edge("e1", "q0", "q0", actions=({"x": 1},))
        e = Edge(id="e1", src="q0", dst="q0", actions=({"x": 1.5},))
        assert "non-integer-effect" in codes(mk(edges=(e,)))

    def test_bool_effect_rejected(self):
        # bools are ints in Python; we still refuse them
        e = Edge(id="e1", src="q0", dst="q0", actions=({"x": True},))
        assert "non-integer-effect" in codes(mk(edges=(e,)))

    def test_unknown_terminal(self):
        assert "unknown-terminal" in codes(mk(terminal=("halt",)))

    def test_terminal_has_outgoing(self):
        e = Edge("e1", "q0", "q0")
        assert "terminal-has-outgoing" in codes(mk(edges=(e,), terminal=("q0",)))

    def test_goal_unknown_variable(self):
        assert "goal-unknown-variable" in codes(mk(goal={"y": (0, None)}))

    def test_goal_empty_interval(self):
        assert "goal-empty-interval" in codes(mk(goal={"x": (5, 2)}))

    def test_bad_goal_bound(self):
        assert "bad-goal-bound" in codes(mk(goal={"x": (0.1, None)}))

    def test_violations_carry_location(self):
        e = Edge("e9", "q0", "q0", guard=Guard({"zz": (0, None)}))
        vs = validate(mk(edges=(e,)))
        assert any("e9" in v.where and "zz" in v.where for v in vs)


    def test_violation_digest_pinned(self):
        # every violation's code and location, in order, for policies that
        # were built by hand rather than parsed; the digest was taken
        # before validate skipped its loops for clean actions
        h = hashlib.sha256()
        for fmp in hand_built_violations():
            vs = validate(fmp)
            assert vs
            h.update(repr([(v.code, v.where) for v in vs]).encode())
        assert h.hexdigest()[:16] == "9d2ff105f97fc7ca"

    def test_matches_referee(self):
        # the same violations, in the same order, as the validate that
        # walked every element; each defect puts one violation into one
        # section, so a whole-section test that passes over a violation
        # loses it here
        rng = random.Random(4242)
        clean = []
        for k in range(60):
            shape = (3 + k % 9, 1 + k % 4)
            clean.append(generate_random(GenSpec(*shape, 0.4, 2, 900 + k)))
            clean.append(random_small_policy(rng))
        hand = hand_built_violations()
        defective = 0
        for fmp in hand + clean + [defect(f, rng) for f in clean
                                   for defect in DEFECTS]:
            got = [(v.code, v.where) for v in validate(fmp)]
            assert got == [(v.code, v.where) for v in referee_validate(fmp)]
            defective += bool(got)
        assert defective == len(hand) + len(clean) * len(DEFECTS)


def _pick(rng, seq):
    return seq[rng.randrange(len(seq))]


def _put(rng, seq, item):
    """`seq` as a tuple with `item` inserted at a random position."""
    k = rng.randint(0, len(seq))
    return (*seq[:k], item, *seq[k:])


def _set_edge(fmp, rng, change):
    """`fmp` with one random edge replaced by `change(edge)`."""
    k = rng.randrange(len(fmp.edges))
    edges = list(fmp.edges)
    edges[k] = change(edges[k])
    return dataclasses.replace(fmp, edges=tuple(edges))


def _set_action(fmp, rng, change):
    """`fmp` with one action of one random edge replaced by a new dict
    `change(action)`; generated policies share their action dicts."""
    def edge(e):
        j = rng.randrange(len(e.actions))
        actions = list(e.actions)
        actions[j] = change(dict(actions[j]))
        return dataclasses.replace(e, actions=tuple(actions))
    return _set_edge(fmp, rng, edge)


def _add_conjunct(fmp, rng, var, interval):
    return _set_edge(fmp, rng, lambda e: dataclasses.replace(
        e, guard=Guard({**e.guard.conjuncts, var: interval})))


def _bad_number(rng):
    return _pick(rng, (True, False, 1.5, -0.5))


def _duplicate_edge_id(fmp, rng):
    edges = list(fmp.edges)
    if len(edges) == 1:
        edges.append(edges[0])
    else:
        i, j = rng.sample(range(len(edges)), 2)
        edges[j] = dataclasses.replace(edges[j], id=edges[i].id)
    return dataclasses.replace(fmp, edges=tuple(edges))


def _bad_delta(fmp, rng):
    def change(action):
        var = _pick(rng, list(action) or list(fmp.var_names))
        action[var] = _bad_number(rng)
        return action
    return _set_action(fmp, rng, change)


def _bad_lower_bound(fmp, rng):
    k = rng.randrange(len(fmp.variables))
    variables = list(fmp.variables)
    variables[k] = VarDecl(variables[k].name, _bad_number(rng))
    return dataclasses.replace(fmp, variables=tuple(variables))


# Each makes one violation, where the policy had none: a random element
# of one section made bad, or one bad element added to it.
DEFECTS = [
    _duplicate_edge_id,
    lambda f, rng: dataclasses.replace(f, variables=_put(
        rng, f.variables, VarDecl(_pick(rng, f.var_names), rng.randint(0, 1)))),
    lambda f, rng: dataclasses.replace(f, qstates=_put(
        rng, f.qstates, _pick(rng, f.qstates))),
    lambda f, rng: _set_edge(f, rng, lambda e: dataclasses.replace(
        e, **{_pick(rng, ("src", "dst")): "ghost"})),
    lambda f, rng: _set_action(f, rng, lambda a: {**a, "ghost": 1}),
    lambda f, rng: _add_conjunct(f, rng, "ghost", (0, None)),
    _bad_delta,
    _bad_lower_bound,
    lambda f, rng: _add_conjunct(f, rng, _pick(rng, f.var_names),
                                 _pick(rng, ((_bad_number(rng), None),
                                             (0, _bad_number(rng))))),
    lambda f, rng: dataclasses.replace(f, goal={
        _pick(rng, f.var_names): _pick(rng, ((_bad_number(rng), None),
                                             (0, _bad_number(rng))))}),
    lambda f, rng: dataclasses.replace(f, initial="ghost"),
    lambda f, rng: dataclasses.replace(f, terminal=("ghost",)),
    lambda f, rng: dataclasses.replace(f, terminal=(
        _pick(rng, f.edges).src,)),
    lambda f, rng: _add_conjunct(f, rng, _pick(rng, f.var_names), (3, 1)),
    lambda f, rng: dataclasses.replace(
        f, goal={_pick(rng, f.var_names): (3, 1)}),
    lambda f, rng: dataclasses.replace(f, goal={"ghost": (0, None)}),
]


def one_violation_each():
    """(code, policy) per `validate` code, each policy with that one
    violation; some codes come more than once, at other places."""
    drain = Edge("e1", "q0", "q0", actions=({"x": -1},))
    base = mk(qstates=("q0", "q1"), edges=(drain, Edge("e2", "q0", "q1")))

    def put(**kw):
        return dataclasses.replace(base, **kw)

    def add(*edges):
        return put(edges=(*base.edges, *edges))

    return [
        ("duplicate-variable", put(variables=(VarDecl("x"), VarDecl("x")))),
        # a bad bound escaped as range()'s TypeError from explore_grid
        ("bad-lower-bound", put(variables=(VarDecl("x", 0.5),))),
        ("duplicate-qstate", put(qstates=("q0", "q1", "q0"))),
        ("unknown-initial", put(initial="zz")),
        # the two analyses kept one effect per id, here x-1, and proved
        # termination for a policy that pumps x on q0
        ("duplicate-edge-id", put(edges=(
            Edge("e1", "q0", "q0", actions=({"x": 1},)), drain))),
        ("unknown-qstate", add(Edge("e3", "q0", "zz"))),
        ("unknown-qstate", add(Edge("e3", "zz", "q0", actions=()))),
        ("undeclared-variable", add(Edge("e3", "q0", "q0",
                                         actions=({"zz": -1},)))),
        ("undeclared-variable", add(Edge("e3", "q0", "q0",
                                         guard=Guard({"zz": (0, 1)})))),
        ("bad-guard-bound", add(Edge("e3", "q0", "q0",
                                     guard=Guard({"x": (0.5, None)})))),
        ("guard-empty-interval", add(Edge("e3", "q0", "q0",
                                          guard=Guard({"x": (3, 1)})))),
        # a fractional delta escaped as a TypeError
        ("non-integer-effect", add(Edge("e3", "q0", "q0",
                                        actions=({"x": -0.5},)))),
        ("unknown-terminal", put(terminal=("zz",))),
        ("terminal-has-outgoing", put(terminal=("q1",), edges=(
            *base.edges, Edge("e3", "q1", "q0")))),
        ("goal-unknown-variable", put(goal={"zz": (0, None)})),
        ("bad-goal-bound", put(goal={"x": (0, 0.5)})),
        ("goal-empty-interval", put(goal={"x": (3, 1)})),
    ]


def assert_refused(fmp):
    """Each of the seven engine entry points that take a policy raises
    ValueError with `validate`'s first violation: no other exception, and
    no answer."""
    want = str(validate(fmp)[0])
    s0 = ConcreteState({x: 0 for x in fmp.var_names})
    calls = {
        "explore": lambda: explore(fmp, s0),
        "explore_grid": lambda: explore_grid(fmp, 1),
        "run_random": lambda: run_random(fmp, s0),
        "step": lambda: step(fmp, Configuration(fmp.qstates[0], s0)),
        "hsieve": lambda: hsieve(fmp, AnalysisConfig(def_samples=3)),
        "hsieve_once": lambda: hsieve_once(fmp, 0),
        "progress_sieve": lambda: progress_sieve(fmp),
    }
    for name, call in calls.items():
        try:
            got = call()
        except ValueError as err:
            assert (type(err), str(err)) == (ValueError, want), name
        else:
            pytest.fail(f"{name} answered {got!r} for a policy with {want}")


class TestCheck:
    """`model.check` is the one policy check of every engine entry point."""

    def test_each_violation_is_refused(self):
        table = one_violation_each()
        assert {code for code, _ in table} == set(re.findall(
            r'Violation\(\s*"([a-z-]+)"', inspect.getsource(model)))
        for code, fmp in table:
            assert [v.code for v in validate(fmp)] == [code]
            with pytest.raises(ValueError) as ei:
                model.check(fmp)
            assert str(ei.value) == str(validate(fmp)[0])
            assert_refused(fmp)

    @settings(max_examples=80, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(DEFECTS),
           st.booleans())
    def test_every_defect_is_refused(self, rng, defect, generated):
        if generated:
            fmp = generate_random(GenSpec(
                2 + rng.randrange(8), 1 + rng.randrange(4), 0.4, 2,
                rng.randrange(10**6)))
        else:
            fmp = random_small_policy(rng)
        assert_refused(defect(fmp, rng))

    def test_one_walk_per_policy(self, monkeypatch):
        # validate, check and every engine entry point read the violations
        # cached on the policy object, so the walk runs once per policy
        walk = Fmp.__dict__["violations"].func
        walked = []

        def counted(fmp):
            walked.append(fmp)
            return walk(fmp)

        prop = cached_property(counted)
        prop.__set_name__(Fmp, "violations")
        monkeypatch.setattr(Fmp, "violations", prop)
        fmp = generate_random(GenSpec(6, 2, 0.4, 2, 7))
        assert normalize(fmp) is fmp
        s0 = ConcreteState({x: 0 for x in fmp.var_names})
        # a new list each call: changing one changes no later answer
        validate(fmp).append(model.Violation("duplicate-qstate", fmp.initial))
        assert validate(fmp) == []
        model.check(fmp)
        hsieve(fmp, AnalysisConfig(def_samples=3))
        hsieve_once(fmp, 0)
        progress_sieve(fmp)
        explore_grid(fmp, 1)
        explore(fmp, s0)
        run_random(fmp, s0)
        step(fmp, Configuration(fmp.initial, s0))
        assert len(walked) == 1 and walked[0] is fmp
        # a replaced policy is another object, walked again
        other = dataclasses.replace(fmp, initial="zz")
        validate(other).clear()
        assert validate(other) == [model.Violation("unknown-initial", "zz")]
        with pytest.raises(ValueError, match="^unknown-initial: zz$"):
            model.check(other)
        assert len(walked) == 2 and walked[1] is other


class TestEdgeConstructor:
    """`Edge` writes its own slots; it is built like the dataclass it is."""

    def test_signature_is_the_fields(self):
        # a field added without its __init__ parameter fails here
        params = list(inspect.signature(Edge.__init__).parameters.values())
        assert params[0].name == "self"
        want = []
        for f in dataclasses.fields(Edge):
            if f.default is not dataclasses.MISSING:
                want.append((f.name, f.default))
            elif f.default_factory is not dataclasses.MISSING:
                want.append((f.name, f.default_factory()))
            else:
                want.append((f.name, inspect.Parameter.empty))
        assert [p.name for p in params[1:]] == [n for n, _ in want]
        for p, (name, default) in zip(params[1:], want):
            assert p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD, name
            assert p.default is default, name
        # the written __init__ is the one the class has
        assert Edge.__init__.__code__.co_filename == model.__file__

    def test_frozen(self):
        e = Edge("e", "a", "b")
        for obj in (e, ExploreResult(ALL_HALT, None, {})):
            for f in dataclasses.fields(obj):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, f.name, None)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(obj, f.name)
        assert e == Edge("e", "a", "b")

    def test_positional_keyword_and_defaults(self):
        guard = Guard({"x": (1, None)})
        actions = ({"x": -1}, {"x": 2})
        e = Edge("e1", "q0", "q1", guard, actions, "go")
        assert e == Edge(label="go", actions=actions, guard=guard,
                         dst="q1", src="q0", id="e1")
        assert (e.id, e.src, e.dst, e.guard, e.actions, e.label) == (
            "e1", "q0", "q1", guard, actions, "go")
        plain = Edge("e1", "q0", "q1")
        assert plain == Edge("e1", "q0", "q1", EMPTY_GUARD, ({},), None)
        assert plain.guard is EMPTY_GUARD
        assert repr(plain) == (
            "Edge(id='e1', src='q0', dst='q1', guard=Guard(conjuncts="
            "mappingproxy({})), actions=({},), label=None)")

    def test_default_actions_not_shared(self):
        # each edge built without actions owns its zero effect, so a change
        # to one edge's effect reaches no other edge
        a, b = Edge("a", "q", "q"), Edge("b", "q", "q")
        assert a.actions == b.actions == ({},)
        assert a.actions[0] is not b.actions[0]
        a.actions[0]["x"] = 1
        assert b.actions == ({},) and Edge("c", "q", "q").actions == ({},)

    def test_copies_round_trip(self):
        e = Edge("e1", "q0", "q1", Guard({"x": (1, 4)}), ({"x": -1},), "go")
        for copied in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e),
                       copy.copy(e), dataclasses.replace(e)):
            assert type(copied) is Edge and copied is not e
            assert copied == e
        moved = dataclasses.replace(e, dst="q2", label=None)
        assert (moved.id, moved.dst, moved.label, moved.actions) == (
            "e1", "q2", None, e.actions)


class TestEmptyGuard:
    def test_shared_guard_is_read_only(self):
        with pytest.raises(TypeError):
            EMPTY_GUARD.conjuncts["x"] = (0, None)
        assert EMPTY_GUARD.conjuncts == {}

    def test_equal_to_every_empty_guard(self):
        assert Guard() == Guard({}) == EMPTY_GUARD
        assert Edge("e1", "q0", "q0") == Edge("e1", "q0", "q0", guard=Guard())

    def test_copies_keep_the_shared_guard(self):
        f = mk(edges=(Edge("e1", "q0", "q0", actions=({"x": 1},)),
                      Edge("e2", "q0", "q0",
                           guard=Guard({"x": (1, None)}))))
        for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
            assert g == f
            assert g.edges[0].guard is EMPTY_GUARD
            assert g.edges[1].guard.conjuncts == {"x": (1, None)}

    def test_edges_and_guards_are_unhashable(self):
        # they hold mappings, and so does a policy, even one with no edge
        # or goal; a variable declaration holds none
        for value, name in ((Edge("e", "a", "b"), "Edge"),
                            (Guard({"x": (0, None)}), "Guard"),
                            (EMPTY_GUARD, "Guard"),
                            (mk(), "Fmp"),
                            (mk(edges=(Edge("e", "q0", "q1"),)), "Fmp")):
            with pytest.raises(TypeError) as ei:
                hash(value)
            assert str(ei.value) == f"unhashable type: '{name}'"
        assert hash(VarDecl("x", 1)) == hash(VarDecl("x", 1))


class TestCompactObjects:
    """A corpus of policies holds no per-object dicts or per-policy names."""

    def test_no_instance_dicts_and_shared_values(self):
        found = []
        for info in pkgutil.iter_modules(termsieve.__path__):
            if info.name == "__main__":  # importing it runs the CLI
                continue
            mod = importlib.import_module(f"termsieve.{info.name}")
            for cls in vars(mod).values():
                if (isinstance(cls, type) and dataclasses.is_dataclass(cls)
                        and cls.__module__ == mod.__name__):
                    found.append(cls)
        assert Fmp in found and Edge in found
        for cls in found:
            if cls is Fmp:  # its cached_property fields need a dict
                assert hasattr(object.__new__(cls), "__dict__")
                continue
            assert "__slots__" in vars(cls), cls.__qualname__
            assert not hasattr(object.__new__(cls), "__dict__"), cls.__qualname__

        assert Edge("e", "a", "b").guard is EMPTY_GUARD

        a = generate_random(GenSpec(6, 2, 0.4, 2, 1))
        b = generate_random(GenSpec(6, 2, 0.4, 2, 2))
        for x, y in zip(a.qstates, b.qstates):
            assert x is y
        for x, y in zip(a.var_names, b.var_names):
            assert x is y
        for x, y in zip(a.edges, b.edges):
            assert x.id is y.id
        assert a.variables[0].name is b.variables[0].name
        assert all(e.guard is EMPTY_GUARD for e in a.edges)
        assert a.variables is b.variables and a.qstates is b.qstates

        # equal effects share one one-action tuple, and so one dict, within
        # a policy and across policies
        by_effect = {}
        for e in a.edges + b.edges:
            by_effect.setdefault(tuple(e.effect.items()), []).append(e.actions)
        assert {tuple(e.effect.items()) for e in a.edges} & {
            tuple(e.effect.items()) for e in b.edges}
        for actions in by_effect.values():
            assert all(x is actions[0] for x in actions)

    def test_corpus_memory_bounded(self):
        # tracemalloc peak of 300 held 8q/2v policies, built once untraced
        # first so that names, caches and free lists are warm: 2.42-2.79
        # MiB with a fresh effect dict and action tuple per edge,
        # 0.71-0.73 MiB with equal effects shared (Python 3.10 to 3.13)
        def corpus():
            return [generate_random(GenSpec(8, 2, 0.4, 2, seed))
                    for seed in range(300)]

        corpus()
        tracemalloc.start()
        try:
            held = corpus()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(held) == 300
        assert peak < 0.8 * 2**20


class TestNormalize:
    def test_identity_on_normalized(self):
        f = chain_policy()
        assert normalize(f) is f

    def test_split_two_actions(self):
        e = Edge(id="e1", src="q0", dst="q0",
                 guard=Guard({"x": (1, None)}),
                 actions=({"x": -1}, {"x": 2}), label="branch")
        g = normalize(mk(edges=(e,)))
        assert [d.id for d in g.edges] == ["e1#0", "e1#1"]
        assert all(d.src == "q0" and d.dst == "q0" for d in g.edges)
        assert all(d.guard == e.guard and d.label == "branch" for d in g.edges)
        assert g.edges[0].effect == {"x": -1}
        assert g.edges[1].effect == {"x": 2}

    def test_drop_empty_action_set(self):
        dead = Edge(id="dead", src="q0", dst="q0", actions=())
        keep = Edge("e1", "q0", "q0", actions=({"x": -1},))
        g = normalize(mk(edges=(dead, keep)))
        assert [d.id for d in g.edges] == ["e1"]

    def test_split_id_collision_gets_tick(self):
        taken = Edge("e1#0", "q0", "q0", actions=({"x": -1},))
        multi = Edge(id="e1", src="q0", dst="q0", actions=({"x": -1}, {"x": 1}))
        g = normalize(mk(edges=(taken, multi)))
        # the split takes the first free id for each action
        assert [d.id for d in g.edges] == ["e1#0", "e1#0'", "e1#1"]

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
                Edge("dec", "q0", "q0", actions=({"x": -1},)),
                Edge("guarded", "q0", "q0", actions=({"y": 1},),
                     guard=Guard({"x": (2, 4)})),
                Edge("deep", "q0", "q0", actions=({"y": -2},)),
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

    def test_state_rejects_missing_and_low(self):
        with pytest.raises(ValueError, match=r"missing variables: \['y'\]"):
            self.f.state({"x": 1})
        with pytest.raises(ValueError):
            self.f.state({"x": -1, "y": 0})
        # the message names the values below their bound, not those at it
        with pytest.raises(ValueError) as ei:
            self.f.state({"x": -1, "y": -2})
        assert str(ei.value) == "values below lower bound: ['x']"

    def test_state_rejects_non_integers(self):
        # no value is rounded or parsed: -0.5 never passes as 0 against
        # x's bound of 0, and a bool is no integer here, as in validate
        for x in (2.9, True, "3", -0.5, 2.0):
            with pytest.raises(ValueError) as ei:
                self.f.state({"x": x, "y": 0})
            assert str(ei.value) == "non-integer values: ['x']"
        with pytest.raises(ValueError) as ei:
            self.f.state({"y": False, "x": 1.0})
        assert str(ei.value) == "non-integer values: ['x', 'y']"
        # a missing value is named first, a non-integer before a low one
        with pytest.raises(ValueError, match=r"^missing variables: \['y'\]"):
            self.f.state({"x": 0.5})
        with pytest.raises(ValueError, match=r"^non-integer values: \['y'\]"):
            self.f.state({"x": -1, "y": 0.5})

    def test_state_rejects_undeclared(self):
        with pytest.raises(ValueError) as ei:
            self.f.state({"x": 1, "y": 0, "yy": 2, "xx": 5})
        assert str(ei.value) == "undeclared variables: ['xx', 'yy']"
        # after a missing value, before a non-integer one
        with pytest.raises(ValueError, match=r"^missing variables: \['y'\]"):
            self.f.state({"x": 1, "xx": 5})
        with pytest.raises(ValueError,
                           match=r"^undeclared variables: \['xx'\]"):
            self.f.state({"x": 0.5, "y": 0, "xx": 5})

    def test_state_holds_the_declared_values_alone(self):
        assert [f.name for f in dataclasses.fields(ConcreteState)] == ["values"]
        s = self.f.state({"y": -2, "x": 3})
        assert s == ConcreteState({"x": 3, "y": -2})
        assert list(s.values) == ["x", "y"]


def test_up_loop_never_blocks():
    f = up_loop_policy()
    succ = step(f, Configuration("q0", f.state({"x": 0})))
    assert [eid for eid, _ in succ] == ["e1"]

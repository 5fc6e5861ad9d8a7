"""Policy document parsing, serialization, and atomic writes."""
import copy
import hashlib
import json
import os
import random
import tracemalloc

import pytest

from termsieve.generate import GenSpec, generate_random
from termsieve.model import (
    EMPTY_GUARD,
    Edge,
    Fmp,
    Guard,
    VarDecl,
    normalize,
    validate,
)
from termsieve.policyio import (
    PolicyFormatError,
    atomic_write,
    load_policy,
    parse_policy,
    serialize_policy,
)

from helpers import (
    FIXTURES,
    TEST_FIXTURES,
    bench_shape_specs,
    random_small_policy,
    referee_serialize_policy,
)


def full_featured():
    return Fmp(
        variables=(VarDecl("x"), VarDecl("y", lower_bound=-3)),
        qstates=("q0", "q1", "end"),
        initial="q0",
        edges=(
            Edge("e1", "q0", "q1", actions=({"x": -1},),
                 guard=Guard({"x": (1, None), "y": (-2, 5)}),
                 label="drain"),
            Edge(id="e2", src="q1", dst="q0", guard=Guard(),
                 actions=({"y": 2}, {"x": 1, "y": -1})),
            Edge(id="e3", src="q1", dst="end", actions=()),
        ),
        terminal=("end",),
        goal={"x": (0, 0), "y": (-1, None)},
    )


def err(text):
    with pytest.raises(PolicyFormatError) as ei:
        parse_policy(text)
    return ei.value


def doc(**overrides):
    base = {
        "format_version": 1,
        "variables": [{"name": "x", "lower_bound": 0}],
        "qstates": ["q0"],
        "initial": "q0",
        "edges": [{"id": "e1", "from": "q0", "to": "q0", "effects": {"x": -1}}],
    }
    base.update(overrides)
    return json.dumps(base)


class TestRoundTrip:
    def test_bundled_fixtures(self):
        for name in ("example1", "f2", "f3", "f8prime"):
            f = load_policy(FIXTURES / f"{name}.fmp.json")
            assert validate(f) == []
            assert parse_policy(serialize_policy(f)) == f

    def test_archived_fixture(self):
        f = load_policy(TEST_FIXTURES / "def_dependent.fmp.json")
        assert validate(f) == []
        assert parse_policy(serialize_policy(f)) == f

    def test_every_feature(self):
        f = full_featured()
        assert parse_policy(serialize_policy(f)) == f

    def test_disk_round_trip(self, tmp_path):
        p = tmp_path / "pol.fmp.json"
        atomic_write(p, serialize_policy(full_featured()))
        assert load_policy(p) == full_featured()


class TestSerializedShape:
    def test_field_layout(self):
        text = serialize_policy(full_featured())
        assert text.endswith("\n")
        d = json.loads(text)
        assert list(d) == ["format_version", "variables", "qstates",
                           "initial", "edges", "terminal", "goal"]
        assert d["format_version"] == 1

    def test_guard_max_omitted_when_unbounded(self):
        d = json.loads(serialize_policy(full_featured()))
        guard = d["edges"][0]["guard"]
        assert guard == [{"var": "x", "min": 1},
                         {"var": "y", "min": -2, "max": 5}]

    def test_single_action_is_object(self):
        d = json.loads(serialize_policy(full_featured()))
        assert d["edges"][0]["effects"] == {"x": -1}
        assert d["edges"][1]["effects"] == [{"y": 2}, {"x": 1, "y": -1}]
        assert d["edges"][2]["effects"] == []

    def test_optional_sections_dropped(self):
        f = Fmp(variables=(VarDecl("x"),), qstates=("q0",), initial="q0",
                edges=())
        d = json.loads(serialize_policy(f))
        assert "terminal" not in d
        assert "goal" not in d
        assert "label" not in json.dumps(d)

    def test_goal_interval_forms(self):
        d = json.loads(serialize_policy(full_featured()))
        assert d["goal"] == {"x": [0, 0], "y": [-1]}


class TestSerializedBytes:
    """`serialize_policy` writes what `json.dumps(doc, indent=2)` writes."""

    def test_every_feature(self):
        f = full_featured()
        assert serialize_policy(f) == referee_serialize_policy(f)

    def test_random_small_policies(self):
        rng = random.Random(2024)
        for _ in range(2000):
            f = random_small_policy(rng, 5, 3)
            assert serialize_policy(f) == referee_serialize_policy(f)

    def test_generated_bench_shapes(self):
        for s in bench_shape_specs(7, 100):
            f = generate_random(s)
            assert serialize_policy(f) == referee_serialize_policy(f)

    def test_hand_cases(self):
        # a quote, a backslash, a control character and non-ASCII text
        odd = 'a"b\\c\x01\u00e9\u2603\U0001d11e'
        x = VarDecl("x")
        cases = [
            Fmp(variables=(VarDecl(odd, lower_bound=-7), x),
                qstates=(odd, "q0"), initial=odd,
                edges=(Edge("e1", odd, "q0", actions=({odd: -1, "x": 2},),
                            guard=Guard({odd: (0, 9)}), label=odd),),
                terminal=(odd,), goal={odd: (1, None)}),
            # an edge with {} effects, and an action set holding one
            Fmp(variables=(x,), qstates=("q0",), initial="q0",
                edges=(Edge("e1", "q0", "q0"),
                       Edge("e2", "q0", "q0", actions=({}, {"x": -1})))),
            # an empty action set, an empty goal
            Fmp(variables=(x,), qstates=("q0",), initial="q0",
                edges=(Edge("e1", "q0", "q0", actions=()),), goal={}),
            # a goal with only a min, big deltas and bounds
            Fmp(variables=(VarDecl("x", lower_bound=-2**70),), qstates=("q0",),
                initial="q0",
                edges=(Edge("e1", "q0", "q0", actions=({"x": 2**65},),
                            guard=Guard({"x": (-2**64, None)})),),
                goal={"x": (3, None)}),
            # names and values of other types, as json.dumps writes them
            Fmp(variables=(VarDecl(7, lower_bound=True),), qstates=("q0",),
                initial="q0",
                edges=(Edge("e1", "q0", "q0", actions=({1: -1}, {None: 2.5})),
                       Edge("e2", "q0", "q0", actions=({False: 0},)),
                       Edge(3, 1, None)),
                goal={3.5: (0, None)}),
            # no variables, no edges
            Fmp(variables=(), qstates=("q0",), initial="q0", edges=()),
            Fmp(variables=(x,), qstates=(), initial="q0", edges=(),
                terminal=("q0",)),
        ]
        for f in cases:
            text = serialize_policy(f)
            assert text == referee_serialize_policy(f)
            assert text.isascii()

    def test_fixtures_are_their_own_serialization(self):
        paths = sorted(FIXTURES.glob("*")) + sorted(
            TEST_FIXTURES.glob("*.fmp.json"))
        assert len(paths) == 6
        for path in paths:
            assert path.read_bytes() == \
                serialize_policy(load_policy(path)).encode(), path.name


class TestParseErrors:
    def test_bad_json(self):
        # a syntax error, nesting too deep for the parser's recursion, and
        # an integer past Python's digit limit for str -> int conversion
        for text in ("{nope", "[" * 100_000 + "]" * 100_000,
                     doc().replace("-1", "-" + "9" * 5000)):
            e = err(text)
            assert e.code == "bad-json"
            assert e.where == "$"

    def test_undecodable_file(self, tmp_path):
        p = tmp_path / "utf16.json"
        p.write_bytes(b"\xff\xfe" + doc().encode("utf-16-le"))
        with pytest.raises(PolicyFormatError) as ei:
            load_policy(str(p))
        assert (ei.value.code, ei.value.where) == ("bad-encoding", "$")

    def test_top_level_must_be_object(self):
        assert err("[]").code == "expected-object"

    def test_missing_fields(self):
        for field in ("format_version", "variables", "qstates", "initial",
                      "edges"):
            base = json.loads(doc())
            del base[field]
            e = err(json.dumps(base))
            assert e.code == f"missing-field:{field}"

    def test_unsupported_version(self):
        e = err(doc(format_version=2))
        assert e.code == "unsupported-format-version"
        assert e.where == "$.format_version"

    def test_version_must_be_an_integer(self):
        # both equal 1 in Python, but neither is the integer version 1
        for version, shown in ((True, "True"), (1.0, "1.0")):
            e = err(doc(format_version=version))
            assert (e.code, e.where, str(e)) == (
                "unsupported-format-version", "$.format_version",
                f"$.format_version: unsupported-format-version ({shown})")

    def test_unknown_top_field(self):
        e = err(doc(comment="hi"))
        assert e.code == "unknown-field:comment"

    def test_variable_errors(self):
        e = err(doc(variables=["x"]))
        assert e.code == "expected-object"
        assert e.where == "$.variables[0]"
        e = err(doc(variables=[{"lower_bound": 0}]))
        assert e.code == "missing-field:name"
        e = err(doc(variables=[{"name": "x", "lb": 0}]))
        assert e.code == "unknown-field:lb"
        e = err(doc(variables=[{"name": "x", "lower_bound": True}]))
        assert e.code == "expected-integer"
        e = err(doc(variables=[{"name": "x", "lower_bound": 0.5}]))
        assert e.code == "expected-integer"

    def test_qstate_must_be_string(self):
        e = err(doc(qstates=["q0", 3]))
        assert e.code == "expected-string"
        assert e.where == "$.qstates[1]"

    def test_edge_errors(self):
        def edge(**kw):
            base = {"id": "e1", "from": "q0", "to": "q0", "effects": {}}
            base.update(kw)
            for k in [k for k, v in kw.items() if v is None]:
                del base[k]
            return doc(edges=[base])

        assert err(edge(id=None)).code == "missing-field:id"
        assert err(edge(effects=None)).code == "missing-field:effects"
        assert err(edge(weight=3)).code == "unknown-field:weight"
        assert err(edge(guard={"var": "x"})).code == "expected-array"
        assert err(edge(guard=[{"min": 0}])).code == "missing-field:var"
        assert err(edge(guard=[{"var": "x"}])).code == "missing-field:min"
        e = err(edge(guard=[{"var": "x", "min": 0},
                            {"var": "x", "min": 1}]))
        assert e.code == "duplicate-guard-var"
        assert e.where == "$.edges[0].guard[1]"
        e = err(edge(guard=[{"var": "x", "min": 0, "max": "lots"}]))
        assert e.code == "expected-integer"
        assert err(edge(label=7)).code == "expected-string"

    def test_effect_errors(self):
        e = err(doc(edges=[{"id": "e1", "from": "q0", "to": "q0",
                            "effects": {"x": 1.5}}]))
        assert e.code == "non-integer-effect"
        assert e.where == "$.edges[0].effects.x"
        e = err(doc(edges=[{"id": "e1", "from": "q0", "to": "q0",
                            "effects": [{"x": 1}, {"x": True}]}]))
        assert e.code == "non-integer-effect"
        assert e.where == "$.edges[0].effects[1].x"

    def test_goal_errors(self):
        assert err(doc(goal={"x": []})).code == "bad-goal-interval"
        assert err(doc(goal={"x": [0, 1, 2]})).code == "bad-goal-interval"
        assert err(doc(goal={"x": [0.5]})).code == "expected-integer"

    def test_guardless_edges_share_the_empty_guard(self):
        edges = [{"id": f"e{k}", "from": "q0", "to": "q0", "effects": {}}
                 for k in range(2)]
        edges[1]["guard"] = []
        f = parse_policy(doc(edges=edges))
        assert all(e.guard is EMPTY_GUARD for e in f.edges)

    def test_parse_does_not_cross_validate(self):
        # structurally fine but semantically broken documents parse;
        # validate() owns the semantic checks
        f = parse_policy(doc(initial="ghost"))
        assert any(v.code == "unknown-initial" for v in validate(f))


# the values every field and array element is set to in `mutations`
ODD_VALUES = (None, True, 1.5, "s", [], {}, -1)


def mutations(node, path=()):
    """(path, edit) for every single-point edit of a JSON tree: at every
    object, delete each field, set it to each of ODD_VALUES and add an
    unknown key; at every array, set each element to each of ODD_VALUES.
    An edit is ("del", key), ("set", key, value) or ("add", key)."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield path, ("del", key)
            for value in ODD_VALUES:
                yield path, ("set", key, value)
            yield from mutations(child, path + (key,))
        yield path, ("add", "zz")
    elif isinstance(node, list):
        for k, child in enumerate(node):
            for value in ODD_VALUES:
                yield path, ("set", k, value)
            yield from mutations(child, path + (k,))


def mutated(doc, path, edit):
    out = copy.deepcopy(doc)
    node = out
    for step in path:
        node = node[step]
    if edit[0] == "del":
        del node[edit[1]]
    elif edit[0] == "set":
        node[edit[1]] = edit[2]
    else:
        node[edit[1]] = 0
    return out


def outcome(parse, text):
    """The CLI-visible result of parsing `text`: the error line, or the
    re-serialized policy when it parses."""
    try:
        return "ok " + serialize_policy(parse(text))
    except PolicyFormatError as exc:
        return f"error {exc}"


class TestErrorContract:
    def test_error_digest_pinned(self):
        # codes, locations and messages are what `termsieve` prints after
        # "error:"; the digest was taken before the parser's checks were
        # inlined, so any change to one of them fails here. It moved once,
        # when `"format_version": true` stopped parsing as version 1
        base = json.loads(serialize_policy(full_featured()))
        h = hashlib.sha256()
        n = 0
        for path, edit in mutations(base):
            text = json.dumps(mutated(base, path, edit))
            h.update(outcome(parse_policy, text).encode() + b"\0")
            n += 1
        assert n == 428
        assert h.hexdigest()[:16] == "61f3bfe369a0b7e4"

    def test_two_site_digest_pinned(self):
        # with two defects the first one checked is reported, so this pins
        # the order of the checks: a parser that checks every action is an
        # object before it checks any delta passes the digest above but
        # not this one
        base = json.loads(serialize_policy(full_featured()))
        edits = list(mutations(base))
        rng = random.Random(29)
        h = hashlib.sha256()
        n = 0
        for _ in range(20_000):
            (p1, e1), (p2, e2) = rng.sample(edits, 2)
            once = mutated(base, p1, e1)
            try:
                text = json.dumps(mutated(once, p2, e2))
            except (KeyError, IndexError, TypeError):
                continue  # the first edit removed the second one's site
            h.update(outcome(parse_policy, text).encode() + b"\0")
            n += 1
        assert (n, h.hexdigest()[:16]) == (19_338, "9f066f8772fa0167")

    def test_pinned_locations(self):
        # the cases a type(x) test or a location built only on failure
        # could get wrong
        def edge(**kw):
            base = {"id": "e1", "from": "q0", "to": "q0", "effects": {}}
            base.update(kw)
            return doc(edges=[base])

        cases = [
            (edge(guard=None), "expected-array", "$.edges[0].guard", "None"),
            (edge(guard=[{"var": "x", "min": True}]), "expected-integer",
             "$.edges[0].guard[0].min", "True"),
            (edge(guard=[{"var": "x", "min": 0, "max": False}]),
             "expected-integer", "$.edges[0].guard[0].max", "False"),
            (edge(effects={"x": True}), "non-integer-effect",
             "$.edges[0].effects.x", "True"),
            (edge(label=None), "expected-string", "$.edges[0].label", "None"),
            (doc(terminal=None), "expected-array", "$.terminal", "None"),
            (doc(terminal=[1]), "expected-string", "$.terminal[0]", "1"),
            (doc(goal={"x": [True]}), "expected-integer", "$.goal.x[0]",
             "True"),
            (edge(guard=[{"var": "x", "min": 0}, {"var": "x", "min": 1}]),
             "duplicate-guard-var", "$.edges[0].guard[1]", "x"),
        ]
        for text, code, where, message in cases:
            e = err(text)
            assert (e.code, e.where, str(e)) == (
                code, where, f"{where}: {code} ({message})")


class TestSharedNames:
    def test_endpoints_share_the_qstate_strings(self):
        f = parse_policy(serialize_policy(full_featured()))
        assert any(f.initial is q for q in f.qstates)
        for e in f.edges:
            assert any(e.src is q for q in f.qstates)
            assert any(e.dst is q for q in f.qstates)
        # a name that is no qstate is kept as it is, for validate to report
        edges = [{"id": "e1", "from": "q0", "to": "ghost", "effects": {}}]
        f = parse_policy(doc(initial="nowhere", edges=edges))
        assert (f.initial, f.edges[0].dst) == ("nowhere", "ghost")
        assert f.edges[0].src is f.qstates[0]
        assert [v.code for v in validate(f)] == ["unknown-initial",
                                                 "unknown-qstate"]

    def test_parsed_corpus_memory_bounded(self):
        # tracemalloc peak of 300 parsed and normalized 8q/2v policies:
        # 3.57-4.16 MiB with a string per edge endpoint, 2.92-3.39 MiB with
        # the endpoints sharing the qstates' strings (Python 3.10 to 3.13)
        texts = [serialize_policy(generate_random(GenSpec(8, 2, 0.4, 2, seed)))
                 for seed in range(300)]
        tracemalloc.start()
        try:
            held = [normalize(parse_policy(text)) for text in texts]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(held) == 300
        assert peak < 3.5 * 2**20


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        p = tmp_path / "out.json"
        atomic_write(p, "one\n")
        atomic_write(p, "two\n")
        assert p.read_text() == "two\n"

    def test_no_temp_droppings(self, tmp_path):
        p = tmp_path / "out.json"
        atomic_write(p, "data\n")
        assert os.listdir(tmp_path) == ["out.json"]

    def test_cleanup_on_failure(self, tmp_path):
        p = tmp_path / "out.json"
        with pytest.raises(TypeError):
            atomic_write(p, b"bytes are wrong here")
        assert os.listdir(tmp_path) == []

    def test_new_file_mode_is_that_of_open(self, tmp_path):
        # not the 0o600 of a private temp file
        plain = tmp_path / "plain.json"
        with open(plain, "w"):
            pass
        p = tmp_path / "out.json"
        atomic_write(p, "data\n")
        assert p.stat().st_mode == plain.stat().st_mode

    def test_rewrite_keeps_the_mode(self, tmp_path):
        p = tmp_path / "out.json"
        atomic_write(p, "one\n")
        p.chmod(0o640)
        atomic_write(p, "two\n")
        assert p.stat().st_mode & 0o7777 == 0o640
        assert p.read_text() == "two\n"

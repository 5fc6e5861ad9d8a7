"""JSON policy documents: parsing, serialization, atomic file writes.

Schema (format_version 1):

    {
      "format_version": 1,
      "variables": [{"name": "x", "lower_bound": 0}, ...],
      "qstates": ["q0", ...],
      "initial": "q0",
      "edges": [{"id": "e1", "from": "q0", "to": "q1",
                 "guard": [{"var": "x", "min": 1, "max": 3}, ...],
                 "effects": {"x": -1} or [{"x": -1}, {"x": 2}],
                 "label": "optional"}, ...],
      "terminal": ["q2", ...],              // optional
      "goal": {"x": [0, 0], "y": [1]}       // optional; [min] or [min, max]
    }

`effects` as an object is the normalized single-action form; an array is an
action set (empty array = never-traversable edge, removed by normalize()).
Unknown fields anywhere are rejected.

A defect raises PolicyFormatError with a code, a location such as
`$.edges[3].from` and, for a wrong value, its repr. All three are contract:
the CLI prints them on its `error:` line. The checks run inline in a fixed
order, and a failed one takes its error from the one helper for its kind:
`_bad_field` (a field is missing, or not of its type), `_bad_object` (not an
object, or an unknown field) or `_items` (an array element of the wrong
type). So a location is formatted only when its check fails. Parsed edges
keep the document's effect dicts and share the qstates' name strings, and
every edge without guard constraints shares `model.EMPTY_GUARD`.
"""

from __future__ import annotations

import json
import os
import stat
from json.encoder import encode_basestring_ascii
from typing import Any, Collection

from .model import EMPTY_GUARD, Edge, Effect, Fmp, Guard, VarDecl

FORMAT_VERSION = 1


class PolicyFormatError(ValueError):
    """A structural defect in a policy document; carries code and location."""

    def __init__(self, code: str, where: str, message: str | None = None):
        self.code = code
        self.where = where
        text = f"{where}: {code}"
        super().__init__(f"{text} ({message})" if message else text)


# the fields each object may carry
_TOP_KEYS = frozenset(("format_version", "variables", "qstates", "initial",
                       "edges", "terminal", "goal"))
_VAR_KEYS = frozenset(("name", "lower_bound"))
_EDGE_KEYS = frozenset(("id", "from", "to", "guard", "effects", "label"))
_CONJUNCT_KEYS = frozenset(("var", "min", "max"))
_KINDS = {str: "string", int: "integer"}


def _bad_field(obj: dict, key: str, kind: str, where: str) -> PolicyFormatError:
    """The error for field `key` of the object at `where`: missing or not a `kind`."""
    if key not in obj:
        return PolicyFormatError(f"missing-field:{key}", where)
    return PolicyFormatError(f"expected-{kind}", f"{where}.{key}", repr(obj[key]))


def _bad_object(value: Any, allowed: Collection[str], where: str) -> PolicyFormatError:
    """The error for the value at `where`: it is not an object, or it has a
    field outside `allowed`."""
    if type(value) is not dict:
        return PolicyFormatError("expected-object", where, repr(value))
    k = next(k for k in value if k not in allowed)
    return PolicyFormatError(f"unknown-field:{k}", where)


def _items(values: list, kind: type, where: str) -> None:
    """Check that every element of the array at `where` is exactly a `kind`."""
    for k, x in enumerate(values):
        if type(x) is not kind:
            raise PolicyFormatError(f"expected-{_KINDS[kind]}", f"{where}[{k}]",
                                    repr(x))


def _parse_edge(obj: Any, i: int, names: dict[str, str]) -> Edge:
    if type(obj) is not dict or not _EDGE_KEYS.issuperset(obj):
        raise _bad_object(obj, _EDGE_KEYS, f"$.edges[{i}]")
    eid = obj.get("id")
    if type(eid) is not str:
        raise _bad_field(obj, "id", "string", f"$.edges[{i}]")
    src = obj.get("from")
    if type(src) is not str:
        raise _bad_field(obj, "from", "string", f"$.edges[{i}]")
    dst = obj.get("to")
    if type(dst) is not str:
        raise _bad_field(obj, "to", "string", f"$.edges[{i}]")

    guard = EMPTY_GUARD
    if "guard" in obj:
        raw_guard = obj["guard"]
        if type(raw_guard) is not list:
            raise _bad_field(obj, "guard", "array", f"$.edges[{i}]")
        if raw_guard:
            guard = Guard(_parse_guard(raw_guard, i))

    # the document's own effect dicts serve as the actions; each action's
    # deltas are checked before the next action is
    raw = obj.get("effects")
    if type(raw) is dict:
        actions = (raw,)
    elif type(raw) is list:
        actions = tuple(raw)
    else:
        raise _bad_field(obj, "effects", "object", f"$.edges[{i}]")
    for k, action in enumerate(actions):
        if type(action) is not dict:
            raise _bad_object(action, (), f"$.edges[{i}].effects[{k}]")
        for var, delta in action.items():
            if type(delta) is not int:
                at = f".{var}" if action is raw else f"[{k}].{var}"
                raise PolicyFormatError("non-integer-effect",
                                        f"$.edges[{i}].effects{at}", repr(delta))

    label = None
    if "label" in obj:
        label = obj["label"]
        if type(label) is not str:
            raise _bad_field(obj, "label", "string", f"$.edges[{i}]")
    return Edge(eid, names.get(src, src), names.get(dst, dst), guard, actions, label)


def _parse_guard(raw: list, i: int) -> dict[str, tuple[int, int | None]]:
    conjuncts: dict[str, tuple[int, int | None]] = {}
    for j, c in enumerate(raw):
        if type(c) is not dict or not _CONJUNCT_KEYS.issuperset(c):
            raise _bad_object(c, _CONJUNCT_KEYS, f"$.edges[{i}].guard[{j}]")
        var = c.get("var")
        if type(var) is not str:
            raise _bad_field(c, "var", "string", f"$.edges[{i}].guard[{j}]")
        if var in conjuncts:
            raise PolicyFormatError("duplicate-guard-var",
                                    f"$.edges[{i}].guard[{j}]", var)
        lo = c.get("min")
        if type(lo) is not int:
            raise _bad_field(c, "min", "integer", f"$.edges[{i}].guard[{j}]")
        hi = c.get("max")
        if type(hi) is not int and "max" in c:
            raise _bad_field(c, "max", "integer", f"$.edges[{i}].guard[{j}]")
        conjuncts[var] = (lo, hi)
    return conjuncts


def parse_policy(text: str) -> Fmp:
    """Parse a policy document; PolicyFormatError pinpoints any defect."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is one
        raise PolicyFormatError("bad-json", "$", str(exc)) from exc
    if type(doc) is not dict or not _TOP_KEYS.issuperset(doc):
        raise _bad_object(doc, _TOP_KEYS, "$")
    version = doc.get("format_version")
    # True and 1.0 equal 1 but are not version 1
    if type(version) is not int or version != FORMAT_VERSION:
        if "format_version" not in doc:
            raise _bad_field(doc, "format_version", "integer", "$")
        raise PolicyFormatError("unsupported-format-version",
                                "$.format_version", repr(version))

    raw_vars = doc.get("variables")
    if type(raw_vars) is not list:
        raise _bad_field(doc, "variables", "array", "$")
    variables = []
    for i, v in enumerate(raw_vars):
        if type(v) is not dict or not _VAR_KEYS.issuperset(v):
            raise _bad_object(v, _VAR_KEYS, f"$.variables[{i}]")
        name = v.get("name")
        if type(name) is not str:
            raise _bad_field(v, "name", "string", f"$.variables[{i}]")
        lb = v.get("lower_bound", 0)
        if type(lb) is not int:
            raise _bad_field(v, "lower_bound", "integer", f"$.variables[{i}]")
        variables.append(VarDecl(name, lb))

    qstates = doc.get("qstates")
    if type(qstates) is not list:
        raise _bad_field(doc, "qstates", "array", "$")
    _items(qstates, str, "$.qstates")
    # an edge end or the initial qstate that names a qstate shares its string
    names = {q: q for q in qstates}
    initial = doc.get("initial")
    if type(initial) is not str:
        raise _bad_field(doc, "initial", "string", "$")
    raw_edges = doc.get("edges")
    if type(raw_edges) is not list:
        raise _bad_field(doc, "edges", "array", "$")
    edges = tuple([_parse_edge(e, i, names) for i, e in enumerate(raw_edges)])
    terminal = doc.get("terminal", [])
    if type(terminal) is not list:
        raise _bad_field(doc, "terminal", "array", "$")
    _items(terminal, str, "$.terminal")
    goal = None
    if "goal" in doc:
        raw_goal = doc["goal"]
        if type(raw_goal) is not dict:
            raise _bad_field(doc, "goal", "object", "$")
        goal = {}
        for var, iv in raw_goal.items():
            if type(iv) is not list:
                raise _bad_field(raw_goal, var, "array", "$.goal")
            if len(iv) not in (1, 2):
                raise PolicyFormatError("bad-goal-interval", f"$.goal.{var}", repr(iv))
            _items(iv, int, f"$.goal.{var}")
            goal[var] = (iv[0], iv[1] if len(iv) == 2 else None)

    return Fmp(tuple(variables), tuple(qstates), names.get(initial, initial), edges,
               tuple(terminal), goal)


# The document text is what `json.dumps(doc, indent=2)` writes for the
# document's fields in schema order, built from one template per object kind.
# Each %s is an encoded scalar or an already indented block; `_array` and
# `_object` take the padding of their elements, two spaces per level.
_TOP = ('{\n  "format_version": %d,\n  "variables": %s,\n  "qstates": %s,'
        '\n  "initial": %s,\n  "edges": %s%s\n}\n')
_TERMINAL = ',\n  "terminal": %s'
_GOAL = ',\n  "goal": %s'
_VARIABLE = '{\n      "name": %s,\n      "lower_bound": %s\n    }'
_EDGE = ('{\n      "id": %s,\n      "from": %s,\n      "to": %s,'
         '\n      "guard": %s,\n      "effects": %s%s\n    }')
_LABEL = ',\n      "label": %s'
_CONJUNCT = '{\n          "var": %s,\n          "min": %s\n        }'
_BOUNDED_CONJUNCT = ('{\n          "var": %s,\n          "min": %s,'
                     '\n          "max": %s\n        }')

def _scalar(v: Any) -> str:
    """`v` as json.dumps writes it."""
    if type(v) is str:
        # the C encoder json.dumps itself uses while ensure_ascii is set
        return encode_basestring_ascii(v)
    if type(v) is int:
        return int.__repr__(v)
    return json.dumps(v)


def _key(k: Any) -> str:
    """`k` as json.dumps writes it as an object key: a number, a bool or
    None becomes a string."""
    if type(k) is str:
        return encode_basestring_ascii(k)
    return json.dumps({k: None})[1:-7]


def _array(parts: list[str], pad: str) -> str:
    if not parts:
        return "[]"
    return f"[\n{pad}" + f",\n{pad}".join(parts) + f"\n{pad[2:]}]"


def _object(parts: list[str], pad: str) -> str:
    if not parts:
        return "{}"
    return f"{{\n{pad}" + f",\n{pad}".join(parts) + f"\n{pad[2:]}}}"


def _effect(action: Effect, pad: str) -> str:
    if not action:
        return "{}"
    return (f"{{\n{pad}"
            + f",\n{pad}".join([f"{_key(var)}: {_scalar(delta)}"
                                 for var, delta in sorted(action.items())])
            + f"\n{pad[2:]}}}")


def serialize_policy(fmp: Fmp) -> str:
    """Document text for a policy: stable field order, trailing newline.

    The text is byte for byte `json.dumps(doc, indent=2) + "\n"` of the
    document: fields in schema order, guard conjuncts, effect deltas and
    goal intervals sorted by variable, `max` and `label` only when set,
    `terminal` only when non-empty and `goal` only when present. Tests pin
    it against that form on fixtures, generated corpora and hand cases.
    """
    edges = []
    enc = encode_basestring_ascii
    for e in fmp.edges:
        conjuncts = e.guard.conjuncts
        guard = "[]" if not conjuncts else _array([
            _CONJUNCT % (_scalar(var), _scalar(lo)) if hi is None
            else _BOUNDED_CONJUNCT % (_scalar(var), _scalar(lo), _scalar(hi))
            for var, (lo, hi) in sorted(conjuncts.items())
        ], "        ")
        if len(e.actions) == 1:
            effects = _effect(e.actions[0], "        ")
        else:
            effects = _array([_effect(a, "          ") for a in e.actions],
                             "        ")
        label = "" if e.label is None else _LABEL % _scalar(e.label)
        eid, src, dst = e.id, e.src, e.dst
        edges.append(_EDGE % (
            enc(eid) if type(eid) is str else _scalar(eid),
            enc(src) if type(src) is str else _scalar(src),
            enc(dst) if type(dst) is str else _scalar(dst),
            guard, effects, label))
    tail = ""
    if fmp.terminal:
        tail = _TERMINAL % _array([_scalar(q) for q in fmp.terminal], "    ")
    if fmp.goal is not None:
        tail += _GOAL % _object([
            f"{_key(var)}: "
            + _array([_scalar(lo)] if hi is None else [_scalar(lo), _scalar(hi)],
                     "      ")
            for var, (lo, hi) in sorted(fmp.goal.items())
        ], "    ")
    return _TOP % (
        FORMAT_VERSION,
        _array([_VARIABLE % (_scalar(v.name), _scalar(v.lower_bound))
                for v in fmp.variables], "    "),
        _array([_scalar(q) for q in fmp.qstates], "    "),
        _scalar(fmp.initial),
        _array(edges, "    "),
        tail,
    )


def load_policy(path: str) -> Fmp:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise PolicyFormatError("bad-encoding", "$", str(exc)) from exc
    return parse_policy(text)


def atomic_write(path: str, text: str) -> None:
    """Write-then-rename so readers never observe a partial file.

    The file gets the mode `open(path, "w")` would leave it with: that of
    the file it replaces, else 0o666 less the umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        except FileNotFoundError:
            pass
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise

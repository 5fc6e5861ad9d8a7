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
order, and a location is formatted only when its check fails. Parsed edges
keep the document's effect dicts, and every edge without guard constraints
shares `model.EMPTY_GUARD`.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any

from .model import EMPTY_GUARD, Edge, Fmp, Guard, VarDecl

FORMAT_VERSION = 1


class PolicyFormatError(ValueError):
    """A structural defect in a policy document; carries code and location."""

    def __init__(self, code: str, where: str, message: str | None = None):
        self.code = code
        self.where = where
        text = f"{where}: {code}"
        if message:
            text += f" ({message})"
        super().__init__(text)


# the fields each object may carry
_TOP_KEYS = frozenset(("format_version", "variables", "qstates", "initial",
                       "edges", "terminal", "goal"))
_VAR_KEYS = frozenset(("name", "lower_bound"))
_EDGE_KEYS = frozenset(("id", "from", "to", "guard", "effects", "label"))
_CONJUNCT_KEYS = frozenset(("var", "min", "max"))


def _unknown_field(obj: dict, allowed: frozenset, where: str) -> PolicyFormatError:
    """The error for `obj`'s first field outside `allowed`."""
    k = next(k for k in obj if k not in allowed)
    return PolicyFormatError(f"unknown-field:{k}", where)


def _parse_edge(obj: Any, i: int) -> Edge:
    if type(obj) is not dict:
        raise PolicyFormatError("expected-object", f"$.edges[{i}]", repr(obj))
    if not _EDGE_KEYS.issuperset(obj):
        raise _unknown_field(obj, _EDGE_KEYS, f"$.edges[{i}]")
    if "id" not in obj:
        raise PolicyFormatError("missing-field:id", f"$.edges[{i}]")
    eid = obj["id"]
    if type(eid) is not str:
        raise PolicyFormatError("expected-string", f"$.edges[{i}].id", repr(eid))
    if "from" not in obj:
        raise PolicyFormatError("missing-field:from", f"$.edges[{i}]")
    src = obj["from"]
    if type(src) is not str:
        raise PolicyFormatError("expected-string", f"$.edges[{i}].from", repr(src))
    if "to" not in obj:
        raise PolicyFormatError("missing-field:to", f"$.edges[{i}]")
    dst = obj["to"]
    if type(dst) is not str:
        raise PolicyFormatError("expected-string", f"$.edges[{i}].to", repr(dst))

    guard = EMPTY_GUARD
    if "guard" in obj:
        raw_guard = obj["guard"]
        if type(raw_guard) is not list:
            raise PolicyFormatError("expected-array", f"$.edges[{i}].guard",
                                    repr(raw_guard))
        if raw_guard:
            guard = Guard(_parse_guard(raw_guard, i))

    if "effects" not in obj:
        raise PolicyFormatError("missing-field:effects", f"$.edges[{i}]")
    # the document's own effect dicts serve as the actions
    raw = obj["effects"]
    if type(raw) is dict:
        for var, delta in raw.items():
            if type(delta) is not int:
                raise PolicyFormatError("non-integer-effect",
                                        f"$.edges[{i}].effects.{var}", repr(delta))
        actions = (raw,)
    elif type(raw) is list:
        for k, action in enumerate(raw):
            if type(action) is not dict:
                raise PolicyFormatError("expected-object",
                                        f"$.edges[{i}].effects[{k}]", repr(action))
            for var, delta in action.items():
                if type(delta) is not int:
                    raise PolicyFormatError("non-integer-effect",
                                            f"$.edges[{i}].effects[{k}].{var}",
                                            repr(delta))
        actions = tuple(raw)
    else:
        raise PolicyFormatError("expected-object", f"$.edges[{i}].effects",
                                repr(raw))

    label = None
    if "label" in obj:
        label = obj["label"]
        if type(label) is not str:
            raise PolicyFormatError("expected-string", f"$.edges[{i}].label",
                                    repr(label))
    return Edge(id=eid, src=src, dst=dst, guard=guard, actions=actions,
                label=label)


def _parse_guard(raw: list, i: int) -> dict[str, tuple[int, int | None]]:
    conjuncts: dict[str, tuple[int, int | None]] = {}
    for j, c in enumerate(raw):
        if type(c) is not dict:
            raise PolicyFormatError("expected-object", f"$.edges[{i}].guard[{j}]",
                                    repr(c))
        if not _CONJUNCT_KEYS.issuperset(c):
            raise _unknown_field(c, _CONJUNCT_KEYS, f"$.edges[{i}].guard[{j}]")
        if "var" not in c:
            raise PolicyFormatError("missing-field:var", f"$.edges[{i}].guard[{j}]")
        var = c["var"]
        if type(var) is not str:
            raise PolicyFormatError("expected-string",
                                    f"$.edges[{i}].guard[{j}].var", repr(var))
        if var in conjuncts:
            raise PolicyFormatError("duplicate-guard-var",
                                    f"$.edges[{i}].guard[{j}]", var)
        if "min" not in c:
            raise PolicyFormatError("missing-field:min", f"$.edges[{i}].guard[{j}]")
        lo = c["min"]
        if type(lo) is not int:
            raise PolicyFormatError("expected-integer",
                                    f"$.edges[{i}].guard[{j}].min", repr(lo))
        hi = None
        if "max" in c:
            hi = c["max"]
            if type(hi) is not int:
                raise PolicyFormatError("expected-integer",
                                        f"$.edges[{i}].guard[{j}].max", repr(hi))
        conjuncts[var] = (lo, hi)
    return conjuncts


def _strings(raw: Any, where: str) -> tuple[str, ...]:
    if type(raw) is not list:
        raise PolicyFormatError("expected-array", where, repr(raw))
    for i, x in enumerate(raw):
        if type(x) is not str:
            raise PolicyFormatError("expected-string", f"{where}[{i}]", repr(x))
    return tuple(raw)


def parse_policy(text: str) -> Fmp:
    """Parse a policy document; PolicyFormatError pinpoints any defect."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is one
        raise PolicyFormatError("bad-json", "$", str(exc)) from exc
    if type(doc) is not dict:
        raise PolicyFormatError("expected-object", "$", repr(doc))
    if not _TOP_KEYS.issuperset(doc):
        raise _unknown_field(doc, _TOP_KEYS, "$")
    if "format_version" not in doc:
        raise PolicyFormatError("missing-field:format_version", "$")
    version = doc["format_version"]
    # True and 1.0 equal 1 but are not version 1
    if type(version) is not int or version != FORMAT_VERSION:
        raise PolicyFormatError(
            "unsupported-format-version", "$.format_version", repr(version)
        )

    if "variables" not in doc:
        raise PolicyFormatError("missing-field:variables", "$")
    raw_vars = doc["variables"]
    if type(raw_vars) is not list:
        raise PolicyFormatError("expected-array", "$.variables", repr(raw_vars))
    variables = []
    for i, v in enumerate(raw_vars):
        if type(v) is not dict:
            raise PolicyFormatError("expected-object", f"$.variables[{i}]", repr(v))
        if not _VAR_KEYS.issuperset(v):
            raise _unknown_field(v, _VAR_KEYS, f"$.variables[{i}]")
        if "name" not in v:
            raise PolicyFormatError("missing-field:name", f"$.variables[{i}]")
        name = v["name"]
        if type(name) is not str:
            raise PolicyFormatError("expected-string", f"$.variables[{i}].name",
                                    repr(name))
        lb = v.get("lower_bound", 0)
        if type(lb) is not int:
            raise PolicyFormatError("expected-integer",
                                    f"$.variables[{i}].lower_bound", repr(lb))
        variables.append(VarDecl(name=name, lower_bound=lb))

    if "qstates" not in doc:
        raise PolicyFormatError("missing-field:qstates", "$")
    qstates = _strings(doc["qstates"], "$.qstates")
    if "initial" not in doc:
        raise PolicyFormatError("missing-field:initial", "$")
    initial = doc["initial"]
    if type(initial) is not str:
        raise PolicyFormatError("expected-string", "$.initial", repr(initial))
    if "edges" not in doc:
        raise PolicyFormatError("missing-field:edges", "$")
    raw_edges = doc["edges"]
    if type(raw_edges) is not list:
        raise PolicyFormatError("expected-array", "$.edges", repr(raw_edges))
    edges = tuple([_parse_edge(e, i) for i, e in enumerate(raw_edges)])
    terminal = _strings(doc["terminal"], "$.terminal") if "terminal" in doc else ()
    goal = None
    if "goal" in doc:
        raw_goal = doc["goal"]
        if type(raw_goal) is not dict:
            raise PolicyFormatError("expected-object", "$.goal", repr(raw_goal))
        goal = {}
        for var, iv in raw_goal.items():
            if type(iv) is not list:
                raise PolicyFormatError("expected-array", f"$.goal.{var}", repr(iv))
            if len(iv) not in (1, 2):
                raise PolicyFormatError("bad-goal-interval", f"$.goal.{var}",
                                        repr(iv))
            for k, bound in enumerate(iv):
                if type(bound) is not int:
                    raise PolicyFormatError("expected-integer",
                                            f"$.goal.{var}[{k}]", repr(bound))
            goal[var] = (iv[0], iv[1] if len(iv) == 2 else None)

    return Fmp(
        variables=tuple(variables),
        qstates=qstates,
        initial=initial,
        edges=edges,
        terminal=terminal,
        goal=goal,
    )


def serialize_policy(fmp: Fmp) -> str:
    """Document text for a policy; stable field order, trailing newline."""
    doc: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "variables": [
            {"name": v.name, "lower_bound": v.lower_bound} for v in fmp.variables
        ],
        "qstates": list(fmp.qstates),
        "initial": fmp.initial,
        "edges": [],
    }
    for e in fmp.edges:
        eobj: dict[str, Any] = {"id": e.id, "from": e.src, "to": e.dst}
        eobj["guard"] = [
            {"var": var, "min": lo} if hi is None
            else {"var": var, "min": lo, "max": hi}
            for var, (lo, hi) in sorted(e.guard.conjuncts.items())
        ]
        if len(e.actions) == 1:
            eobj["effects"] = dict(sorted(e.actions[0].items()))
        else:
            eobj["effects"] = [dict(sorted(a.items())) for a in e.actions]
        if e.label is not None:
            eobj["label"] = e.label
        doc["edges"].append(eobj)
    if fmp.terminal:
        doc["terminal"] = list(fmp.terminal)
    if fmp.goal is not None:
        doc["goal"] = {
            var: [lo] if hi is None else [lo, hi]
            for var, (lo, hi) in sorted(fmp.goal.items())
        }
    return json.dumps(doc, indent=2) + "\n"


def load_policy(path: str) -> Fmp:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise PolicyFormatError("bad-encoding", "$", str(exc)) from exc
    return parse_policy(text)


def atomic_write(path: str, text: str) -> None:
    """Write-then-rename so readers never observe a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_policy(path: str, fmp: Fmp) -> None:
    atomic_write(path, serialize_policy(fmp))

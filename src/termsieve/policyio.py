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
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any

from .model import Edge, Fmp, Guard, VarDecl, _is_int

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


def _need(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise PolicyFormatError(f"missing-field:{key}", where)
    return obj[key]


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    for k in obj:
        if k not in allowed:
            raise PolicyFormatError(f"unknown-field:{k}", where)


def _as_str(x: Any, where: str) -> str:
    if not isinstance(x, str):
        raise PolicyFormatError("expected-string", where, repr(x))
    return x


def _as_int(x: Any, where: str) -> int:
    if not _is_int(x):
        raise PolicyFormatError("expected-integer", where, repr(x))
    return x


def _as_list(x: Any, where: str) -> list:
    if not isinstance(x, list):
        raise PolicyFormatError("expected-array", where, repr(x))
    return x


def _as_obj(x: Any, where: str) -> dict:
    if not isinstance(x, dict):
        raise PolicyFormatError("expected-object", where, repr(x))
    return x


def _parse_effect(x: Any, where: str) -> dict[str, int]:
    obj = _as_obj(x, where)
    out = {}
    for var, delta in obj.items():
        if not _is_int(delta):
            raise PolicyFormatError("non-integer-effect", f"{where}.{var}", repr(delta))
        out[var] = delta
    return out


def _parse_edge(x: Any, where: str) -> Edge:
    obj = _as_obj(x, where)
    _check_keys(obj, {"id", "from", "to", "guard", "effects", "label"}, where)
    eid = _as_str(_need(obj, "id", where), f"{where}.id")
    src = _as_str(_need(obj, "from", where), f"{where}.from")
    dst = _as_str(_need(obj, "to", where), f"{where}.to")
    conjuncts: dict[str, tuple[int, int | None]] = {}
    for j, c in enumerate(_as_list(obj.get("guard", []), f"{where}.guard")):
        cwhere = f"{where}.guard[{j}]"
        cobj = _as_obj(c, cwhere)
        _check_keys(cobj, {"var", "min", "max"}, cwhere)
        var = _as_str(_need(cobj, "var", cwhere), f"{cwhere}.var")
        if var in conjuncts:
            raise PolicyFormatError("duplicate-guard-var", cwhere, var)
        lo = _as_int(_need(cobj, "min", cwhere), f"{cwhere}.min")
        hi = _as_int(cobj["max"], f"{cwhere}.max") if "max" in cobj else None
        conjuncts[var] = (lo, hi)
    raw_effects = _need(obj, "effects", where)
    if isinstance(raw_effects, list):
        actions = tuple(
            _parse_effect(a, f"{where}.effects[{k}]")
            for k, a in enumerate(raw_effects)
        )
    else:
        actions = (_parse_effect(raw_effects, f"{where}.effects"),)
    label = None
    if "label" in obj:
        label = _as_str(obj["label"], f"{where}.label")
    return Edge(id=eid, src=src, dst=dst, guard=Guard(conjuncts),
                actions=actions, label=label)


def parse_policy(text: str) -> Fmp:
    """Parse a policy document; PolicyFormatError pinpoints any defect."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is one
        raise PolicyFormatError("bad-json", "$", str(exc)) from exc
    top = _as_obj(doc, "$")
    _check_keys(
        top,
        {"format_version", "variables", "qstates", "initial", "edges",
         "terminal", "goal"},
        "$",
    )
    version = _need(top, "format_version", "$")
    if version != FORMAT_VERSION:
        raise PolicyFormatError(
            "unsupported-format-version", "$.format_version", repr(version)
        )

    variables = []
    for i, v in enumerate(_as_list(_need(top, "variables", "$"), "$.variables")):
        where = f"$.variables[{i}]"
        vobj = _as_obj(v, where)
        _check_keys(vobj, {"name", "lower_bound"}, where)
        name = _as_str(_need(vobj, "name", where), f"{where}.name")
        lb = _as_int(vobj.get("lower_bound", 0), f"{where}.lower_bound")
        variables.append(VarDecl(name=name, lower_bound=lb))

    qstates = tuple(
        _as_str(q, f"$.qstates[{i}]")
        for i, q in enumerate(_as_list(_need(top, "qstates", "$"), "$.qstates"))
    )
    initial = _as_str(_need(top, "initial", "$"), "$.initial")
    edges = tuple(
        _parse_edge(e, f"$.edges[{i}]")
        for i, e in enumerate(_as_list(_need(top, "edges", "$"), "$.edges"))
    )
    terminal = tuple(
        _as_str(t, f"$.terminal[{i}]")
        for i, t in enumerate(_as_list(top.get("terminal", []), "$.terminal"))
    )
    goal = None
    if "goal" in top:
        gobj = _as_obj(top["goal"], "$.goal")
        goal = {}
        for var, iv in gobj.items():
            where = f"$.goal.{var}"
            lst = _as_list(iv, where)
            if len(lst) not in (1, 2):
                raise PolicyFormatError("bad-goal-interval", where, repr(iv))
            lo = _as_int(lst[0], f"{where}[0]")
            hi = _as_int(lst[1], f"{where}[1]") if len(lst) == 2 else None
            goal[var] = (lo, hi)

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

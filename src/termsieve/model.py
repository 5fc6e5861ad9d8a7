"""Finite-memory policies over lower-bounded integer counters.

A policy is a finite control graph whose edges carry interval guards and
integer effect vectors. Execution is fail-stop: an edge can be taken only if
its guard holds and the post-state respects every variable's lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    from .oracle import OracleCode

Effect = Mapping[str, int]
Interval = tuple[int, int | None]  # inclusive min, inclusive max (None = unbounded)


@dataclass(frozen=True, slots=True)
class VarDecl:
    """A counter variable with an inclusive lower bound (default 0)."""

    name: str
    lower_bound: int = 0


@dataclass(frozen=True, slots=True)
class Guard:
    """Conjunction of per-variable interval constraints.

    An empty guard imposes only the default bound conditions.
    """

    conjuncts: Mapping[str, Interval] = field(default_factory=dict)
    __hash__ = None  # the conjuncts are a mapping

    def __reduce__(self):
        # a copy or unpickled policy keeps sharing EMPTY_GUARD, whose
        # read-only conjuncts cannot be pickled themselves
        if self is EMPTY_GUARD:
            return "EMPTY_GUARD"
        return (Guard, (self.conjuncts,))


# The one empty guard every edge built without constraints shares; its
# conjuncts are read-only, so no holder can change the others' guards.
EMPTY_GUARD = Guard(MappingProxyType({}))

# marks an edge built without actions; each such edge gets its own zero effect
_NO_EFFECT = ({},)


@dataclass(frozen=True, slots=True)
class Edge:
    """A control edge carrying a guard and a set of alternative actions.

    `actions` is the edge's action set: each element is one effect vector the
    edge may apply. A normalized edge has exactly one action, exposed as
    `effect`. An empty action set means the edge can never be traversed.
    """

    id: str
    src: str
    dst: str
    # a factory: dataclasses reject a default of an unhashable class as mutable
    guard: Guard = field(default_factory=lambda: EMPTY_GUARD)
    actions: tuple[Effect, ...] = _NO_EFFECT
    label: str | None = None
    __hash__ = None  # the guard and the actions are mappings

    def __init__(self, id: str, src: str, dst: str, guard: Guard = EMPTY_GUARD,
                 actions: tuple[Effect, ...] = _NO_EFFECT,
                 label: str | None = None) -> None:
        # the dataclass's signature, but each field is stored through its
        # slot's descriptor rather than by a frozen object.__setattr__ call;
        # assignment from outside still raises FrozenInstanceError
        _set_id(self, id)
        _set_src(self, src)
        _set_dst(self, dst)
        _set_guard(self, guard)
        _set_actions(self, ({},) if actions is _NO_EFFECT else actions)
        _set_label(self, label)

    @classmethod
    def single(
        cls,
        id: str,
        src: str,
        dst: str,
        effect: Effect | None = None,
        guard: Guard | None = None,
        label: str | None = None,
    ) -> "Edge":
        return cls(
            id=id,
            src=src,
            dst=dst,
            guard=guard if guard is not None else EMPTY_GUARD,
            actions=(dict(effect) if effect else {},),
            label=label,
        )

    @property
    def effect(self) -> Effect:
        """The edge's single effect vector; only valid once normalized."""
        if len(self.actions) != 1:
            raise ValueError(
                f"edge {self.id!r} carries {len(self.actions)} actions; "
                "normalize the policy first"
            )
        return self.actions[0]


(_set_id, _set_src, _set_dst, _set_guard, _set_actions,
 _set_label) = (Edge.__dict__[f.name].__set__ for f in fields(Edge))


@dataclass(frozen=True, slots=True)
class ConcreteState:
    """A full valuation of the declared variables; their lower bounds are
    the policy's (`Fmp.bounds`)."""

    values: Mapping[str, int]


@dataclass(frozen=True)
class Fmp:
    """A finite-memory policy: variables, control states, initial state, edges."""

    variables: tuple[VarDecl, ...]
    qstates: tuple[str, ...]
    initial: str
    edges: tuple[Edge, ...]
    terminal: tuple[str, ...] = ()
    goal: Mapping[str, Interval] | None = None

    __hash__ = None  # the edges and the goal hold mappings

    @cached_property
    def bounds(self) -> dict[str, int]:
        return {v.name: v.lower_bound for v in self.variables}

    @cached_property
    def var_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    @cached_property
    def oracle_code(self) -> "OracleCode":
        """The policy compiled for the oracle's integer configurations;
        action sets need not be normalized."""
        from .oracle import OracleCode  # oracle imports this module

        return OracleCode(self)

    def state(self, values: Mapping[str, int]) -> ConcreteState:
        """The declared variables' state; raises ValueError if a value is
        missing, undeclared, not an int (bools are not) or below its bound."""
        missing = set(self.var_names) - set(values)
        if missing:
            raise ValueError(f"missing variables: {sorted(missing)}")
        extra = set(values) - set(self.var_names)
        if extra:
            raise ValueError(f"undeclared variables: {sorted(extra)}")
        vals = {x: values[x] for x in self.var_names}
        bad = [x for x in vals if not _is_int(vals[x])]
        if bad:
            raise ValueError(f"non-integer values: {sorted(bad)}")
        bad = [x for x in vals if vals[x] < self.bounds[x]]
        if bad:
            raise ValueError(f"values below lower bound: {sorted(bad)}")
        return ConcreteState(values=vals)


@dataclass(frozen=True, slots=True)
class Violation:
    """One structural invariant violation, with a machine-readable code."""

    code: str
    where: str

    def __str__(self) -> str:
        return f"{self.code}: {self.where}"


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


_INT = frozenset((int,))
_ONE = frozenset((1,))


def validate(fmp: Fmp) -> list[Violation]:
    """Check every structural invariant; returns all violations found.

    Each section is first tested as a whole; its elements are walked one by
    one, in order, only when that test fails, to report where.
    """
    out: list[Violation] = []
    variables = fmp.variables
    declared = {v.name for v in variables}
    if len(declared) != len(variables) or not _INT.issuperset(
            {type(v.lower_bound) for v in variables}):
        named: set[str] = set()
        for v in variables:
            if v.name in named:
                out.append(Violation("duplicate-variable", v.name))
            named.add(v.name)
            if not _is_int(v.lower_bound):
                out.append(Violation("bad-lower-bound", f"{v.name}={v.lower_bound!r}"))

    seen_q = set(fmp.qstates)
    if len(seen_q) != len(fmp.qstates):
        listed: set[str] = set()
        for q in fmp.qstates:
            if q in listed:
                out.append(Violation("duplicate-qstate", q))
            listed.add(q)

    if fmp.initial not in seen_q:
        out.append(Violation("unknown-initial", fmp.initial))

    edges = fmp.edges
    actions = [a for e in edges for a in e.actions]
    if not (len({e.id for e in edges}) == len(edges)
            and seen_q.issuperset({e.src for e in edges})
            and seen_q.issuperset({e.dst for e in edges})
            and not any([e.guard.conjuncts for e in edges])
            and declared.issuperset(chain.from_iterable(actions))
            and _INT.issuperset({type(d) for a in actions for d in a.values()})):
        _report_edges(edges, seen_q, declared, out)

    if fmp.terminal:
        terminal = set(fmp.terminal)
        if not seen_q.issuperset(terminal):
            for t in fmp.terminal:
                if t not in seen_q:
                    out.append(Violation("unknown-terminal", t))
        if not terminal.isdisjoint({e.src for e in edges}):
            for e in edges:
                if e.src in terminal:
                    out.append(Violation("terminal-has-outgoing",
                                         f"{e.src} via {e.id}"))

    if fmp.goal is not None:
        for var, (lo, hi) in fmp.goal.items():
            if var not in declared:
                out.append(Violation("goal-unknown-variable", var))
            if not _is_int(lo) or (hi is not None and not _is_int(hi)):
                out.append(Violation("bad-goal-bound", var))
            elif hi is not None and lo > hi:
                out.append(Violation("goal-empty-interval", var))
    return out


def _report_edges(edges: tuple[Edge, ...], seen_q: set[str],
                  declared: set[str], out: list[Violation]) -> None:
    """Append each edge's violations, edge by edge, to `out`."""
    seen_ids: set[str] = set()
    for e in edges:
        eid = e.id
        if eid in seen_ids:
            out.append(Violation("duplicate-edge-id", eid))
        seen_ids.add(eid)
        if e.src not in seen_q:
            out.append(Violation("unknown-qstate", f"edge {eid} src={e.src}"))
        if e.dst not in seen_q:
            out.append(Violation("unknown-qstate", f"edge {eid} dst={e.dst}"))
        for var, (lo, hi) in e.guard.conjuncts.items():
            if var not in declared:
                out.append(Violation("undeclared-variable", f"edge {eid} guard {var}"))
            if not _is_int(lo) or (hi is not None and not _is_int(hi)):
                out.append(Violation("bad-guard-bound", f"edge {eid} guard {var}"))
            elif hi is not None and lo > hi:
                out.append(Violation("guard-empty-interval", f"edge {eid} guard {var}"))
        for k, action in enumerate(e.actions):
            for var, delta in action.items():
                if var not in declared:
                    out.append(Violation(
                        "undeclared-variable", f"edge {eid} action[{k}] {var}"))
                if not _is_int(delta):
                    out.append(Violation(
                        "non-integer-effect", f"edge {eid} action[{k}] {var}"))


def normalize(fmp: Fmp, log: list[str] | None = None) -> Fmp:
    """Split action sets into parallel single-action edges.

    An edge with k > 1 actions becomes k parallel edges sharing src/dst/guard;
    an edge with an empty action set is removed. Both events are appended to
    `log` when given. Idempotent on already-normalized policies.
    """
    if _ONE.issuperset({len(e.actions) for e in fmp.edges}):
        return fmp
    used = {e.id for e in fmp.edges}
    new_edges: list[Edge] = []
    for e in fmp.edges:
        if len(e.actions) == 1:
            new_edges.append(e)
            continue
        if not e.actions:
            if log is not None:
                log.append(f"dropped {e.id}: empty action set")
            continue
        for k, action in enumerate(e.actions):
            nid = f"{e.id}#{k}"
            while nid in used:
                nid += "'"
            used.add(nid)
            new_edges.append(
                Edge(id=nid, src=e.src, dst=e.dst, guard=e.guard,
                     actions=(action,), label=e.label)
            )
        if log is not None:
            made = ",".join(d.id for d in new_edges[-len(e.actions):])
            log.append(f"split {e.id} into {made}")
    return Fmp(
        variables=fmp.variables,
        qstates=fmp.qstates,
        initial=fmp.initial,
        edges=tuple(new_edges),
        terminal=fmp.terminal,
        goal=fmp.goal,
    )


def effect_str(effect: Effect) -> str:
    """Render an effect as a stable 'x-1,y+2' style list."""
    return ",".join(f"{var}{delta:+d}" for var, delta in sorted(effect.items()))

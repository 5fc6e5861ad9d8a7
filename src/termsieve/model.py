"""Finite-memory policies over lower-bounded integer counters.

A policy is a finite control graph whose edges carry interval guards and
integer effect vectors. Execution is fail-stop: an edge can be taken only if
its guard holds and the post-state respects every variable's lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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
    actions: tuple[Effect, ...] = ({},)
    label: str | None = None
    __hash__ = None  # the guard and the actions are mappings

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


@dataclass(frozen=True, slots=True)
class ConcreteState:
    """A full valuation of the declared variables plus their lower bounds."""

    values: Mapping[str, int]
    bounds: Mapping[str, int]

    def well_formed(self) -> bool:
        if set(self.values) != set(self.bounds):
            return False
        return all(self.values[x] >= self.bounds[x] for x in self.values)


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
        """Build a well-formed state; raises ValueError on bound violations."""
        missing = set(self.var_names) - set(values)
        if missing:
            raise ValueError(f"missing variables: {sorted(missing)}")
        vals = {x: int(values[x]) for x in self.var_names}
        st = ConcreteState(values=vals, bounds=self.bounds)
        if not st.well_formed():
            bad = [x for x in vals if vals[x] < self.bounds[x]]
            raise ValueError(f"values below lower bound: {sorted(bad)}")
        return st


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


def validate(fmp: Fmp) -> list[Violation]:
    """Check every structural invariant; returns all violations found."""
    out: list[Violation] = []
    declared: set[str] = set()
    for v in fmp.variables:
        if v.name in declared:
            out.append(Violation("duplicate-variable", v.name))
        declared.add(v.name)
        if not _is_int(v.lower_bound):
            out.append(Violation("bad-lower-bound", f"{v.name}={v.lower_bound!r}"))

    seen_q: set[str] = set()
    for q in fmp.qstates:
        if q in seen_q:
            out.append(Violation("duplicate-qstate", q))
        seen_q.add(q)

    if fmp.initial not in seen_q:
        out.append(Violation("unknown-initial", fmp.initial))

    seen_ids: set[str] = set()
    for e in fmp.edges:
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
            # an action whose variables are declared and whose deltas are
            # all exactly int has nothing to report
            if declared.issuperset(action) and _INT.issuperset(
                    map(type, action.values())):
                continue
            for var, delta in action.items():
                if var not in declared:
                    out.append(Violation(
                        "undeclared-variable", f"edge {eid} action[{k}] {var}"))
                if not _is_int(delta):
                    out.append(Violation(
                        "non-integer-effect", f"edge {eid} action[{k}] {var}"))

    for t in fmp.terminal:
        if t not in seen_q:
            out.append(Violation("unknown-terminal", t))
    if fmp.terminal:
        terminal = set(fmp.terminal)
        for e in fmp.edges:
            if e.src in terminal:
                out.append(Violation("terminal-has-outgoing", f"{e.src} via {e.id}"))

    if fmp.goal is not None:
        for var, (lo, hi) in fmp.goal.items():
            if var not in declared:
                out.append(Violation("goal-unknown-variable", var))
            if not _is_int(lo) or (hi is not None and not _is_int(hi)):
                out.append(Violation("bad-goal-bound", var))
            elif hi is not None and lo > hi:
                out.append(Violation("goal-empty-interval", var))
    return out


def normalize(fmp: Fmp, log: list[str] | None = None) -> Fmp:
    """Split action sets into parallel single-action edges.

    An edge with k > 1 actions becomes k parallel edges sharing src/dst/guard;
    an edge with an empty action set is removed. Both events are appended to
    `log` when given. Idempotent on already-normalized policies.
    """
    used = {e.id for e in fmp.edges}
    new_edges: list[Edge] = []
    changed = False
    for e in fmp.edges:
        if len(e.actions) == 1:
            new_edges.append(e)
            continue
        changed = True
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
    if not changed:
        return fmp
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

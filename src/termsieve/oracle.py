"""Bounded-exhaustive execution oracle and random simulation.

explore() walks the configuration space (qstate plus counter valuation)
depth-first from a start state. Revisiting a configuration that is still on
the current path certifies an infinite run (a lasso); exhausting every branch
without one, inside the caps, certifies that all runs halt. Hitting a cap
downgrades the answer to inconclusive, never to a wrong certificate.

Every engine here runs on one integer per configuration (see `Packing`) and
decodes to `Configuration` only for witnesses and steps.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Mapping

from .model import ConcreteState, Edge, Fmp, Interval

_DONE = -1  # depth marker of a configuration whose subtree is explored

ALL_HALT = "all_halt"
LASSO_FOUND = "lasso_found"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Configuration:
    qstate: str
    state: ConcreteState


@dataclass(frozen=True)
class ExploreCaps:
    """Work limits; max_value None derives 64 * (max start value + max |delta|)."""

    max_configs: int = 1_000_000
    max_value: int | None = None


@dataclass(frozen=True)
class LassoWitness:
    """A replayable certificate of an infinite run.

    `steps[k]` takes the k-th configuration of the sequence
    (start, then one per step) to the (k+1)-th; the final step re-enters the
    configuration at index `cycle_start`.
    """

    start: Configuration
    steps: tuple[tuple[str, Configuration], ...]
    cycle_start: int

    def configurations(self) -> tuple[Configuration, ...]:
        return (self.start,) + tuple(cfg for _, cfg in self.steps)


@dataclass(frozen=True)
class ExploreResult:
    kind: str  # all_halt | lasso_found | inconclusive
    witness: LassoWitness | None
    stats: Mapping[str, int]
    goal_report: float | None = None


class OracleCode:
    """A policy compiled once for the oracle (cached as `Fmp.oracle_code`).

    Keeps each qstate's actions in edge declaration order, action sets
    included (the oracle needs no normalized policy), and packs them into
    integer weights once per field width (`packing`).
    """

    def __init__(self, fmp: Fmp):
        self.qstates = fmp.qstates
        self.names = fmp.var_names
        self.bounds = fmp.bounds
        qindex = {q: i for i, q in enumerate(fmp.qstates)}
        self.qindex = qindex
        vindex = {x: i for i, x in enumerate(self.names)}

        def conjuncts(intervals: Mapping[str, Interval]) -> tuple:
            return tuple((vindex[v], lo, hi)
                         for v, (lo, hi) in sorted(intervals.items()))

        edges_from: dict[str, list[Edge]] = {q: [] for q in fmp.qstates}
        for e in fmp.edges:
            if e.src in edges_from:
                edges_from[e.src].append(e)
        # per qstate index: (edge id, src, dst, ((var, delta), ...), guard)
        self.actions = [
            [(e.id, src, qindex[e.dst],
              tuple((vindex[v], d) for v, d in action.items() if d),
              conjuncts(e.guard.conjuncts))
             for e in edges_from[q] for action in e.actions]
            for src, q in enumerate(fmp.qstates)
        ]
        self.max_abs_delta = max(
            (abs(d) for entries in self.actions for entry in entries
             for _, d in entry[3]), default=0)
        self.goal = conjuncts(fmp.goal) if fmp.goal is not None else None
        self._packings: dict[int, Packing] = {}

    def derived_max_value(self, values: Mapping[str, int]) -> int:
        """The value cap ExploreCaps(max_value=None) stands for."""
        top = max(values.values(), default=0)
        return max(64, 64 * (top + self.max_abs_delta))

    def packing(self, ceiling: int) -> "Packing":
        """The packing whose fields hold every value up to `ceiling` plus
        one step's max |delta|; built once per field width."""
        low = min(self.bounds.values(), default=0)
        width = max(ceiling - low + self.max_abs_delta, 1).bit_length()
        packing = self._packings.get(width)
        if packing is None:
            packing = self._packings[width] = Packing(self, width)
        return packing


class Packing:
    """Configurations as integers with `width`-bit counter fields.

    A configuration is `qstate index + sum((v_i - lb_i + 2**width) << shift_i)`:
    above the qstate index's bits, each variable has a field holding its
    distance to its lower bound, topped by a guard bit that is set. An
    action's weight is `dst - src + sum(delta_i << shift_i)`, so a successor
    is `key + weight`; a field that falls below zero borrows its guard bit,
    so the post-state respects every lower bound iff all guard bits are
    still set. No field carries into the next while values stay below
    `2**width`, which the caller's ceiling guarantees.

    An interval test compiles to two addends per field, each clamped to
    [0, 2**width]: adding `2**width - (lo - lb)` sets the guard bit iff the
    value is at least `lo`, and adding `2**width - 1 - (hi - lb)` sets it
    iff the value exceeds `hi`. The value cap is the second kind on every
    field.
    """

    def __init__(self, code: OracleCode, width: int):
        self.code = code
        qbits = (len(code.qstates) - 1).bit_length()
        self.qmask = (1 << qbits) - 1
        self.top = top = 1 << width
        self.fmask = top - 1
        lbs = [code.bounds[x] for x in code.names]
        shifts = [qbits + (width + 1) * i for i in range(len(lbs))]
        self.fields = tuple(zip(code.names, shifts, lbs))
        self.guard = sum(top << s for s in shifts)
        self.vmask = sum(self.fmask << s for s in shifts)
        self._shifts, self._lbs = shifts, lbs
        # per qstate index: (edge id, weight, interval test or None)
        self.table = [
            [(eid, dst - src + sum(d << shifts[i] for i, d in moves),
              self.interval_test(guard) if guard else None)
             for eid, src, dst, moves, guard in entries]
            for entries in code.actions
        ]
        self.goal = (self.interval_test(code.goal)
                     if code.goal is not None else None)

    def _addend(self, i: int, add: int) -> int:
        """`add` clamped to [0, 2**width] and shifted onto variable i's
        field: 0 never sets the guard bit, 2**width always does."""
        return min(max(add, 0), self.top) << self._shifts[i]

    def interval_test(self, conjuncts) -> tuple[int, int, int, int]:
        """(lo addend, lo bits, hi addend, hi bits) for `holds`."""
        lo_add = lo_bits = hi_add = hi_bits = 0
        for i, lo, hi in conjuncts:
            bit = self.top << self._shifts[i]
            lo_add += self._addend(i, self.top - (lo - self._lbs[i]))
            lo_bits |= bit
            if hi is not None:
                hi_add += self._addend(i, self.top - 1 - (hi - self._lbs[i]))
                hi_bits |= bit
        return lo_add, lo_bits, hi_add, hi_bits

    def holds(self, test: tuple[int, int, int, int], key: int) -> bool:
        """True iff every value of `key` lies in the test's intervals."""
        lo_add, lo_bits, hi_add, hi_bits = test
        v = key & self.vmask
        return (v + lo_add) & lo_bits == lo_bits and not (v + hi_add) & hi_bits

    def cap_test(self, max_value: int) -> tuple[int, int]:
        """(addend, bits): `((key & vmask) + addend) & bits` is nonzero iff
        some value of `key` exceeds `max_value`."""
        if not self.fields:  # max() of no values reads 0
            return int(max_value < 0), int(max_value < 0)
        add = sum(self._addend(i, self.top - 1 - (max_value - lb))
                  for i, lb in enumerate(self._lbs))
        return add, self.guard

    def pack(self, qstate: str, values: Mapping[str, int]) -> int:
        key = self.code.qindex[qstate]
        for name, shift, lb in self.fields:
            distance = values[name] - lb
            if distance < 0:
                raise ValueError(f"value of {name} below its lower bound")
            key |= (distance | self.top) << shift
        return key

    def config(self, key: int) -> Configuration:
        fmask = self.fmask
        return Configuration(
            qstate=self.code.qstates[key & self.qmask],
            state=ConcreteState(
                values={name: ((key >> shift) & fmask) + lb
                        for name, shift, lb in self.fields},
                bounds=self.code.bounds),
        )

    def successors(self, key: int) -> list[tuple[str, int]]:
        """Enabled (edge id, successor key) pairs in declaration order."""
        guard = self.guard
        out = []
        for eid, weight, test in self.table[key & self.qmask]:
            if test is None or self.holds(test, key):
                nxt = key + weight
                if nxt & guard == guard:
                    out.append((eid, nxt))
        return out


def step(fmp: Fmp, cfg: Configuration) -> list[tuple[str, Configuration]]:
    """Enabled successors of a configuration, in edge declaration order."""
    values = cfg.state.values
    p = fmp.oracle_code.packing(max(values.values(), default=0))
    return [(eid, p.config(k))
            for eid, k in p.successors(p.pack(cfg.qstate, values))]


def explore(
    fmp: Fmp, s0: ConcreteState, caps: ExploreCaps | None = None
) -> ExploreResult:
    """Exhaustive DFS from (initial qstate, s0) within the caps."""
    caps = caps if caps is not None else ExploreCaps()
    code = fmp.oracle_code
    max_value = (caps.max_value if caps.max_value is not None
                 else code.derived_max_value(s0.values))
    # a start above the cap is still expanded, so its values bound the fields
    p = code.packing(max((max_value, *s0.values.values())))
    cap_add, cap_bits = p.cap_test(max_value)
    vmask, successors, max_configs = p.vmask, p.successors, caps.max_configs

    # depth on the current path while a key is on it, then _DONE
    depth: dict[int, int] = {}
    # frame: (key, edge_in, iterator over the (edge id, key) successors)
    path: list[tuple] = []
    expanded = halting = value_cap_hits = goal_hits = 0

    def stats(config_cap: int = 0) -> dict[str, int]:
        return {"expanded": expanded, "halting": halting,
                "value_cap_hits": value_cap_hits, "config_cap": config_cap}

    step_in = (None, p.pack(fmp.initial, s0.values))
    while step_in is not None:
        edge_in, key = step_in
        depth[key] = len(path)
        expanded += 1
        succ = successors(key)
        if not succ:
            halting += 1
            if p.goal is not None and p.holds(p.goal, key):
                goal_hits += 1
        path.append((key, edge_in, iter(succ)))
        # the next configuration to expand, backtracking as needed
        step_in = None
        while path and step_in is None:
            key, _, rest = path[-1]
            for eid, nkey in rest:
                if ((nkey & vmask) + cap_add) & cap_bits:
                    value_cap_hits += 1
                    continue
                d = depth.get(nkey)
                if d == _DONE:
                    continue
                if d is not None:
                    steps = [(f[1], p.config(f[0])) for f in path[1:]]
                    steps.append((eid, p.config(nkey)))
                    witness = LassoWitness(start=p.config(path[0][0]),
                                           steps=tuple(steps), cycle_start=d)
                    return ExploreResult(LASSO_FOUND, witness, stats())
                if expanded >= max_configs:
                    return ExploreResult(INCONCLUSIVE, None, stats(1))
                step_in = (eid, nkey)
                break
            else:
                path.pop()
                depth[key] = _DONE

    # Every configuration descends from the start, so any value-cap hit
    # leaves a branch unexplored below it.
    if value_cap_hits:
        return ExploreResult(INCONCLUSIVE, None, stats())
    goal_report = None
    if p.goal is not None:
        goal_report = goal_hits / halting if halting else 0.0
    return ExploreResult(ALL_HALT, None, stats(), goal_report)


def grid_states(fmp: Fmp, grid_max: int) -> Iterator[ConcreteState]:
    """All start states with each variable in [lower_bound, lower_bound+grid_max]."""
    names = fmp.var_names
    ranges = [range(fmp.bounds[x], fmp.bounds[x] + grid_max + 1) for x in names]
    for combo in itertools.product(*ranges):
        yield ConcreteState(values=dict(zip(names, combo)), bounds=fmp.bounds)


def explore_grid(
    fmp: Fmp, grid_max: int, caps: ExploreCaps | None = None,
) -> list[tuple[ConcreteState, ExploreResult]]:
    """explore() over the start grid in order, up to the first start that
    finds a lasso."""
    out = []
    for s0 in grid_states(fmp, grid_max):
        res = explore(fmp, s0, caps)
        out.append((s0, res))
        if res.kind == LASSO_FOUND:
            break
    return out


@dataclass(frozen=True)
class SimTrace:
    steps: tuple[tuple[str, Configuration], ...]
    halted: bool


def run_random(
    fmp: Fmp, s0: ConcreteState, max_steps: int = 1000, seed: int = 0
) -> SimTrace:
    """One uniformly random resolution of nondeterminism, up to max_steps."""
    rng = random.Random(seed)
    code = fmp.oracle_code
    top = max(s0.values.values(), default=0)
    p = code.packing(top + max_steps * code.max_abs_delta)
    key = p.pack(fmp.initial, s0.values)
    steps: list[tuple[str, Configuration]] = []
    for _ in range(max_steps):
        succ = p.successors(key)
        if not succ:
            return SimTrace(steps=tuple(steps), halted=True)
        eid, key = rng.choice(succ)
        steps.append((eid, p.config(key)))
    return SimTrace(steps=tuple(steps), halted=not p.successors(key))

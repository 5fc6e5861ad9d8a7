"""Bounded-exhaustive execution oracle and random simulation.

explore() walks the configuration space (qstate plus counter valuation)
depth-first from a start state. Revisiting a configuration that is still on
the current path certifies an infinite run (a lasso); exhausting every branch
without one, inside the caps, certifies that all runs halt. Hitting a cap
downgrades the answer to inconclusive, never to a wrong certificate.

Every engine here runs on one integer per configuration (see `Packing`) and
decodes to `Configuration` only for steps and for witnesses when they are
read; each `Packing` reads its action table straight from the policy's
edges. explore() builds no successor list: its DFS path is two integer
lists (keys, next action indices), each frame scans its qstate's actions in
place from its index, and a configuration counts as halting when the scan
of its frame ends with no action enabled.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .model import ConcreteState, Fmp, Interval

_DONE = -1  # depth marker of a configuration whose subtree is explored

ALL_HALT = "all_halt"
LASSO_FOUND = "lasso_found"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, slots=True)
class Configuration:
    qstate: str
    state: ConcreteState


DEFAULT_MAX_CONFIGS = 1_000_000


@dataclass(frozen=True, slots=True)
class ExploreCaps:
    """Work limits; max_value None derives
    max(64, 64 * (max start value + max |delta|))."""

    max_configs: int = DEFAULT_MAX_CONFIGS
    max_value: int | None = None


class LassoWitness:
    """A replayable certificate of an infinite run.

    `steps[k]` takes the k-th configuration of the sequence
    (start, then one per step) to the (k+1)-th; the final step re-enters the
    configuration at index `cycle_start`.

    Built from the sequence's keys (start, then one per step), the steps'
    edge ids (any iterable, read once) and `decode`, which maps a key to its
    `Configuration`. Nothing is decoded, nor an edge id read, until `start`,
    `steps` or `configurations()` is first read; the configurations are
    then kept. Witnesses are equal when their decoded content is.
    """

    __slots__ = ("_decode", "_keys", "_edges", "cycle_start", "_configs",
                 "_steps", "__weakref__")

    def __init__(self, decode: Callable[[Any], Configuration],
                 keys: Sequence, edges: Iterable[str], cycle_start: int):
        self._decode, self._keys, self._edges = decode, keys, edges
        self.cycle_start = cycle_start
        self._configs: tuple[Configuration, ...] | None = None
        self._steps: tuple[tuple[str, Configuration], ...] | None = None

    def configurations(self) -> tuple[Configuration, ...]:
        if self._configs is None:
            self._configs = tuple(map(self._decode, self._keys))
            self._steps = tuple(zip(self._edges, self._configs[1:]))
        return self._configs

    @property
    def start(self) -> Configuration:
        return self.configurations()[0]

    @property
    def steps(self) -> tuple[tuple[str, Configuration], ...]:
        self.configurations()
        return self._steps

    def __eq__(self, other):
        if not isinstance(other, LassoWitness):
            return NotImplemented
        return ((self.start, self.steps, self.cycle_start)
                == (other.start, other.steps, other.cycle_start))

    def __repr__(self) -> str:
        return (f"LassoWitness(start={self.start!r}, steps={self.steps!r}, "
                f"cycle_start={self.cycle_start!r})")


@dataclass(frozen=True, slots=True)
class ExploreResult:
    """An explore() verdict; `witness` is set iff kind is lasso_found and
    stays packed until read (see `LassoWitness`)."""

    kind: str  # all_halt | lasso_found | inconclusive
    witness: LassoWitness | None
    stats: Mapping[str, int]
    goal_report: float | None = None


class OracleCode:
    """A policy compiled once for the oracle (cached as `Fmp.oracle_code`).

    Holds what every field width shares: the policy, each qstate's index,
    the largest |delta| of any action (action sets included: the oracle
    needs no normalized policy) and one `Packing` per field width.
    """

    def __init__(self, fmp: Fmp):
        self.fmp = fmp
        self.qindex = {q: i for i, q in enumerate(fmp.qstates)}
        self.max_abs_delta = max([abs(d) for e in fmp.edges for a in e.actions
                                  for d in a.values()], default=0)
        self._packings: dict[int, Packing] = {}

    def start_max(self, values: Mapping[str, int]) -> int:
        """The largest value of a start (0 with no counters); raises
        ValueError if a counter is missing or undeclared, or its value is
        not an int (bools are not) or lies below its lower bound."""
        bounds = self.fmp.bounds
        for name, lb in bounds.items():
            value = values.get(name)
            if type(value) is not int:
                raise ValueError(f"value of {name} missing or not an int")
            if value < lb:
                raise ValueError(f"value of {name} below its lower bound")
        extra = values.keys() - bounds.keys()
        if extra:
            raise ValueError(f"undeclared variables: {sorted(extra)}")
        return max(values.values(), default=0)

    def derived_max_value(self, top: int) -> int:
        """The value cap ExploreCaps(max_value=None) stands for, at a start
        whose largest value is `top`."""
        return max(64, 64 * (top + self.max_abs_delta))

    def packing(self, ceiling: int) -> "Packing":
        """The packing whose fields hold every value up to `ceiling` plus
        one step's max |delta|; built once per field width."""
        low = min(self.fmp.bounds.values(), default=0)
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

    `table` holds, per qstate index, an (edge id, weight, interval test or
    None) row per action in edge declaration order. An interval test
    compiles to two addends per field, each clamped to [0, 2**width]:
    adding `2**width - (lo - lb)` sets the guard bit iff the value is at
    least `lo`, and adding `2**width - 1 - (hi - lb)` sets it iff the value
    exceeds `hi`. The value cap is the second kind on every field.
    """

    def __init__(self, code: OracleCode, width: int):
        self.code, fmp = code, code.fmp
        qbits = (len(fmp.qstates) - 1).bit_length()
        self.qmask = (1 << qbits) - 1
        self.top = top = 1 << width
        self.fmask = top - 1
        shifts = {x: qbits + (width + 1) * i
                  for i, x in enumerate(fmp.var_names)}
        # per counter name: (shift, lower bound)
        self.fields = {x: (s, fmp.bounds[x]) for x, s in shifts.items()}
        self.guard = sum(top << s for s in shifts.values())
        self.vmask = sum(self.fmask << s for s in shifts.values())
        self._cap_tests: dict[int, tuple[int, int]] = {}
        qindex = code.qindex
        self.table = table = [[] for _ in fmp.qstates]
        for e in fmp.edges:
            src = qindex.get(e.src)
            if src is None or not e.actions:
                continue
            row, base = table[src], qindex[e.dst] - src
            conjuncts = e.guard.conjuncts
            test = self.interval_test(conjuncts) if conjuncts else None
            for action in e.actions:
                weight = base
                for v, d in action.items():
                    weight += d << shifts[v]
                row.append((e.id, weight, test))
        self.goal = (self.interval_test(fmp.goal)
                     if fmp.goal is not None else None)

    def _addend(self, shift: int, add: int) -> int:
        """`add` clamped to [0, 2**width], shifted onto the field at `shift`."""
        return min(max(add, 0), self.top) << shift

    def interval_test(self, intervals: Mapping[str, Interval]) -> tuple:
        """(lo addend, lo bits, hi addend, hi bits) for `holds`, from a
        guard's or goal's `{var: (lo, hi)}`."""
        lo_add = lo_bits = hi_add = hi_bits = 0
        for v, (lo, hi) in intervals.items():
            shift, lb = self.fields[v]
            bit = self.top << shift
            lo_add += self._addend(shift, self.top - (lo - lb))
            lo_bits |= bit
            if hi is not None:
                hi_add += self._addend(shift, self.top - 1 - (hi - lb))
                hi_bits |= bit
        return lo_add, lo_bits, hi_add, hi_bits

    def holds(self, test: tuple[int, int, int, int], key: int) -> bool:
        """True iff every value of `key` lies in the test's intervals."""
        lo_add, lo_bits, hi_add, hi_bits = test
        v = key & self.vmask
        return (v + lo_add) & lo_bits == lo_bits and not (v + hi_add) & hi_bits

    def cap_test(self, max_value: int) -> tuple[int, int]:
        """(addend, bits): `((key & vmask) + addend) & bits` is nonzero iff
        some value of `key` exceeds `max_value`; built once per cap, as the
        starts of a grid mostly share a few."""
        test = self._cap_tests.get(max_value)
        if test is None:
            if not self.fields:  # max() of no values reads 0
                test = int(max_value < 0), int(max_value < 0)
            else:
                test = (sum(self._addend(s, self.top - 1 - (max_value - lb))
                            for s, lb in self.fields.values()), self.guard)
            self._cap_tests[max_value] = test
        return test

    def pack(self, qstate: str, values: Mapping[str, int]) -> int:
        """The key of (qstate, values), for values that passed
        `OracleCode.start_max`."""
        key = self.code.qindex[qstate]
        for name, (shift, lb) in self.fields.items():
            key |= (values[name] - lb | self.top) << shift
        return key

    def config(self, key: int) -> Configuration:
        fmask, fields = self.fmask, self.fields
        return Configuration(
            qstate=self.code.fmp.qstates[key & self.qmask],
            state=ConcreteState({name: ((key >> shift) & fmask) + lb
                                 for name, (shift, lb) in fields.items()}),
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
    code, values = fmp.oracle_code, cfg.state.values
    p = code.packing(code.start_max(values))
    return [(eid, p.config(k))
            for eid, k in p.successors(p.pack(cfg.qstate, values))]


class _Halted:
    """What the starts of one `explore_grid` call share.

    One packing, sized for the grid's largest ceiling, so that keys compare
    across starts, and `known`: the key of every configuration that a start
    ending all_halt expanded or reused, mapped to the least value cap of
    such a start. Every run from a known configuration halts, every step of
    it stays within that cap, and every successor is known with a cap no
    larger. A start that runs again without reuse still adds what it
    expanded, as it runs on this packing.
    """

    __slots__ = ("packing", "known")

    def __init__(self, packing: Packing):
        self.packing = packing
        self.known: dict[int, int] = {}


def explore(
    fmp: Fmp, s0: ConcreteState, caps: ExploreCaps | None = None,
    *, shared: _Halted | None = None,
) -> ExploreResult:
    """Exhaustive DFS from (initial qstate, s0) within the caps.

    The path is kept in two lists that grow and shrink in place: each
    frame's key and the index of the next action to try in its row of
    `Packing.table`, one past the action that entered the frame above it.
    A frame scans its actions from that index in declaration order, with
    the tests of `Packing.successors`, and stops at the first successor to
    expand, so no successor list is built. A configuration counts as
    halting, and is checked against the goal, when the scan of its frame
    ends with no enabled action; that scan runs right after the
    configuration is expanded, before any later expansion, so the stats at
    any stop are those of counting halting at expansion.

    `shared` carries what earlier starts of one `explore_grid` call found
    (see `explore_grid`); without it nothing is known and the search
    expands every configuration it reaches. Where expanding all known ones
    too could reach `max_configs`, reuse stops, and a search that has
    reused any runs again from its start, to end as one without `shared`.
    """
    caps = caps if caps is not None else ExploreCaps()
    code = fmp.oracle_code
    top = code.start_max(s0.values)
    max_value = (caps.max_value if caps.max_value is not None
                 else code.derived_max_value(top))
    if shared is None:
        # a start above the cap is still expanded, so its values bound the
        # fields
        p = code.packing(max(max_value, top))
        known: dict[int, int] = {}
    else:
        p, known = shared.packing, shared.known
    cap_add, cap_bits = p.cap_test(max_value)
    table, qmask, guard, vmask = p.table, p.qmask, p.guard, p.vmask
    max_configs = caps.max_configs
    # A known configuration stands in for its closure while expanding all
    # of `known` as well could not reach max_configs: while
    # `expanded < spare`.
    reuse, spare = bool(known), max_configs - len(known)

    # depth on the current path while a key is on it, then _DONE
    depth: dict[int, int] = {}
    # the path, one entry per frame in each list: key, index of the next
    # action to try
    keys = [p.pack(fmp.initial, s0.values)]
    nexts = [0]
    depth[keys[0]] = 0
    # whether a known key was marked done in place of its closure
    reused = False
    expanded, halting, value_cap_hits, goal_hits = 1, 0, 0, 0

    def stats(config_cap: int = 0) -> dict[str, int]:
        return {"expanded": expanded, "halting": halting,
                "value_cap_hits": value_cap_hits, "config_cap": config_cap}

    while keys:
        key = keys[-1]
        row = table[key & qmask]
        i, end = nexts[-1], len(row)
        # a frame resumed past its first action has an enabled one
        live = i > 0
        while i < end:
            eid, weight, test = row[i]
            i += 1
            if test is not None:
                lo_add, lo_bits, hi_add, hi_bits = test
                v = key & vmask
                if ((v + lo_add) & lo_bits != lo_bits
                        or (v + hi_add) & hi_bits):
                    continue
            nkey = key + weight
            if nkey & guard != guard:
                continue
            live = True
            if ((nkey & vmask) + cap_add) & cap_bits:
                value_cap_hits += 1
                continue
            d = depth.get(nkey)
            if d == _DONE:
                continue
            if d is not None:
                # edge ids read back lazily, from the action before each index
                nexts[-1] = i
                witness = LassoWitness(p.config, [*keys, nkey], map(
                    lambda k, n: table[k & qmask][n - 1][0], keys, nexts), d)
                return ExploreResult(LASSO_FOUND, witness, stats())
            if reuse:
                if expanded < spare:
                    c = known.get(nkey)
                    if c is not None and c <= max_value:
                        depth[nkey] = _DONE
                        reused = True
                        continue
                else:
                    # Reuse ends; a start that reused a closure runs again
                    # without it, so the config cap binds as in explore.
                    reuse = False
                    if reused:
                        del keys[1:], nexts[1:]
                        key = keys[0]
                        depth = {key: 0}
                        expanded, halting, value_cap_hits, goal_hits = (
                            1, 0, 0, 0)
                        row = table[key & qmask]
                        i, end, live = 0, len(row), False
                        continue
            if expanded >= max_configs:
                return ExploreResult(INCONCLUSIVE, None, stats(1))
            break
        else:
            if not live:
                halting += 1
                if p.goal is not None and p.holds(p.goal, key):
                    goal_hits += 1
            keys.pop()
            nexts.pop()
            depth[key] = _DONE
            continue
        nexts[-1] = i
        depth[nkey] = len(keys)
        keys.append(nkey)
        nexts.append(0)
        expanded += 1

    # Every configuration descends from the start, so any value-cap hit
    # leaves a branch unexplored below it.
    if value_cap_hits:
        return ExploreResult(INCONCLUSIVE, None, stats())
    if shared is not None:
        # every configuration done here halts within max_value; keep the
        # least cap each is known under
        for key in depth:
            if known.setdefault(key, max_value) > max_value:
                known[key] = max_value
    goal_report = None
    if p.goal is not None:
        goal_report = goal_hits / halting if halting else 0.0
    return ExploreResult(ALL_HALT, None, stats(), goal_report)


def grid_states(fmp: Fmp, grid_max: int) -> Iterator[ConcreteState]:
    """All start states, values alone, each in [lower_bound, lower_bound+grid_max]."""
    names = fmp.var_names
    ranges = [range(fmp.bounds[x], fmp.bounds[x] + grid_max + 1) for x in names]
    for combo in itertools.product(*ranges):
        yield ConcreteState(dict(zip(names, combo)))


def explore_grid(
    fmp: Fmp, grid_max: int, caps: ExploreCaps | None = None,
) -> list[tuple[ConcreteState, ExploreResult]]:
    """explore() over the start grid in order, up to the first start that
    finds a lasso.

    The starts share one packing, sized for the largest start and value
    cap of the grid, and the configurations of every start that ended
    all_halt (multi-root DFS with a shared finished set, Tarjan 1972). A
    later start marks such a configuration done without expanding it when
    it passes the start's value cap and its known cap is no larger: its
    runs all halt within that cap, so none reaches the current path. Kinds
    and witnesses are those of explore() per start. A start's `expanded`,
    `halting` and `goal_report` count only the configurations it expanded
    itself. Reuse stops where expanding every known configuration as well
    could reach `max_configs`: a start that has reused nothing by then goes
    on without reuse, and one that has runs again from its start without
    reuse. Either way its result, stats included, is then explore()'s.
    """
    caps = caps if caps is not None else ExploreCaps()
    code = fmp.oracle_code
    top = max([fmp.bounds[x] + grid_max for x in fmp.var_names], default=0)
    max_value = (caps.max_value if caps.max_value is not None
                 else code.derived_max_value(top))
    shared = _Halted(code.packing(max(max_value, top)))
    out = []
    for s0 in grid_states(fmp, grid_max):
        res = explore(fmp, s0, caps, shared=shared)
        out.append((s0, res))
        if res.kind == LASSO_FOUND:
            break
    return out


@dataclass(frozen=True, slots=True)
class SimTrace:
    steps: tuple[tuple[str, Configuration], ...]
    halted: bool


def run_random(
    fmp: Fmp, s0: ConcreteState, max_steps: int = 1000, seed: int = 0
) -> SimTrace:
    """One uniformly random resolution of nondeterminism, up to max_steps."""
    rng = random.Random(seed)
    code = fmp.oracle_code
    top = code.start_max(s0.values)
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

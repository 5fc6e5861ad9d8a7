"""Bounded-exhaustive execution oracle and random simulation.

explore() walks the configuration space (qstate plus counter valuation)
depth-first from a start state. Revisiting a configuration that is still on
the current path certifies an infinite run (a lasso); exhausting every branch
without one, inside the caps, certifies that all runs halt. Hitting a cap
downgrades the answer to inconclusive, never to a wrong certificate.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Mapping

from .model import ConcreteState, Fmp

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


class _Compiled:
    """Tuple-indexed edge tables for fast successor generation."""

    def __init__(self, fmp: Fmp):
        self.fmp = fmp
        self.order = fmp.var_names
        self.index = {x: i for i, x in enumerate(self.order)}
        self.lbs = tuple(fmp.bounds[x] for x in self.order)
        self.max_abs_delta = 0
        table: dict[str, list] = {}
        for q in fmp.qstates:
            entries = []
            for e in fmp.edges_from[q]:
                g = tuple(
                    (self.index[v], lo, hi)
                    for v, (lo, hi) in sorted(e.guard.conjuncts.items())
                )
                for action in e.actions:
                    d = tuple(
                        (self.index[v], delta)
                        for v, delta in sorted(action.items())
                        if delta
                    )
                    for _, delta in d:
                        self.max_abs_delta = max(self.max_abs_delta, abs(delta))
                    entries.append((e.id, g, d, e.dst))
            table[q] = entries
        self.table = table
        if fmp.goal is not None:
            self.goal = tuple(
                (self.index[v], lo, hi) for v, (lo, hi) in sorted(fmp.goal.items())
            )
        else:
            self.goal = None

    def key(self, cfg_qstate: str, values: Mapping[str, int]) -> tuple:
        return (cfg_qstate, tuple(values[x] for x in self.order))

    def config(self, key: tuple) -> Configuration:
        q, vals = key
        return Configuration(
            qstate=q,
            state=ConcreteState(
                values=dict(zip(self.order, vals)), bounds=self.fmp.bounds
            ),
        )

    def successors(self, key: tuple) -> list[tuple[str, tuple]]:
        """Enabled (edge id, successor key) pairs in declaration order."""
        q, vals = key
        out = []
        for eid, guards, deltas, dst in self.table[q]:
            ok = True
            for i, lo, hi in guards:
                v = vals[i]
                if v < lo or (hi is not None and v > hi):
                    ok = False
                    break
            if not ok:
                continue
            if deltas:
                nxt = list(vals)
                for i, d in deltas:
                    nv = nxt[i] + d
                    if nv < self.lbs[i]:
                        ok = False
                        break
                    nxt[i] = nv
                if not ok:
                    continue
                out.append((eid, (dst, tuple(nxt))))
            else:
                out.append((eid, (dst, vals)))
        return out

    def satisfies_goal(self, key: tuple) -> bool:
        assert self.goal is not None
        _, vals = key
        for i, lo, hi in self.goal:
            v = vals[i]
            if v < lo or (hi is not None and v > hi):
                return False
        return True


def _derived_max_value(c: _Compiled, start_vals: tuple) -> int:
    top = max(start_vals) if start_vals else 0
    return max(64, 64 * (top + c.max_abs_delta))


def step(fmp: Fmp, cfg: Configuration) -> list[tuple[str, Configuration]]:
    """Enabled successors of a configuration, in edge declaration order."""
    c = _Compiled(fmp)
    key = c.key(cfg.qstate, cfg.state.values)
    return [(eid, c.config(k)) for eid, k in c.successors(key)]


def explore(
    fmp: Fmp, s0: ConcreteState, caps: ExploreCaps | None = None
) -> ExploreResult:
    """Exhaustive DFS from (initial qstate, s0) within the caps."""
    caps = caps if caps is not None else ExploreCaps()
    c = _Compiled(fmp)
    start_key = c.key(fmp.initial, s0.values)
    max_value = (
        caps.max_value
        if caps.max_value is not None
        else _derived_max_value(c, start_key[1])
    )

    # depth on the current path while a key is on it, then _DONE
    depth: dict[tuple, int] = {}
    # frame: [key, edge_in, successors, next_index]
    path: list[list] = []
    stats = {
        "expanded": 0,
        "halting": 0,
        "value_cap_hits": 0,
        "config_cap": 0,
    }
    goal_hits = 0

    def push(key: tuple, edge_in: str | None) -> None:
        depth[key] = len(path)
        stats["expanded"] += 1
        succ = c.successors(key)
        if not succ:
            stats["halting"] += 1
            if c.goal is not None and c.satisfies_goal(key):
                nonlocal goal_hits
                goal_hits += 1
        path.append([key, edge_in, succ, 0])

    push(start_key, None)

    while path:
        frame = path[-1]
        key, _, succ, i = frame
        if i < len(succ):
            frame[3] = i + 1
            eid, nkey = succ[i]
            if max(nkey[1], default=0) > max_value:
                stats["value_cap_hits"] += 1
                continue
            d = depth.get(nkey)
            if d == _DONE:
                continue
            if d is not None:
                steps = [(f[1], c.config(f[0])) for f in path[1:]]
                steps.append((eid, c.config(nkey)))
                witness = LassoWitness(start=c.config(path[0][0]),
                                       steps=tuple(steps), cycle_start=d)
                return ExploreResult(LASSO_FOUND, witness, stats)
            if stats["expanded"] >= caps.max_configs:
                stats["config_cap"] = 1
                return ExploreResult(INCONCLUSIVE, None, stats)
            push(nkey, eid)
        else:
            path.pop()
            depth[key] = _DONE

    # Every configuration descends from the start, so any value-cap hit
    # leaves a branch unexplored below it.
    if stats["value_cap_hits"]:
        return ExploreResult(INCONCLUSIVE, None, stats)
    goal_report = None
    if c.goal is not None:
        goal_report = goal_hits / stats["halting"] if stats["halting"] else 0.0
    return ExploreResult(ALL_HALT, None, stats, goal_report)


def grid_states(fmp: Fmp, grid_max: int) -> Iterator[ConcreteState]:
    """All start states with each variable in [lower_bound, lower_bound+grid_max]."""
    names = fmp.var_names
    ranges = [range(fmp.bounds[x], fmp.bounds[x] + grid_max + 1) for x in names]
    for combo in itertools.product(*ranges):
        yield ConcreteState(values=dict(zip(names, combo)), bounds=fmp.bounds)


def explore_grid(
    fmp: Fmp, grid_max: int, caps: ExploreCaps | None = None
) -> list[tuple[ConcreteState, ExploreResult]]:
    """explore() over the whole start grid; stops early on the first lasso."""
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
    c = _Compiled(fmp)
    key = c.key(fmp.initial, s0.values)
    steps: list[tuple[str, Configuration]] = []
    for _ in range(max_steps):
        succ = c.successors(key)
        if not succ:
            return SimTrace(steps=tuple(steps), halted=True)
        eid, key = rng.choice(succ)
        steps.append((eid, c.config(key)))
    return SimTrace(steps=tuple(steps), halted=not c.successors(key))

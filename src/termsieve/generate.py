"""Seeded random policy generator for test corpora."""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from functools import lru_cache

from .model import EMPTY_GUARD, Edge, Effect, Fmp, VarDecl


class GenError(ValueError):
    """The generation spec is infeasible or malformed."""


@dataclass(frozen=True, slots=True)
class GenSpec:
    n_qstates: int
    n_vars: int
    edge_density: float  # edges = ceil(density * n_qstates^2)
    max_abs_delta: int
    seed: int


@lru_cache(maxsize=4096)
def _actions(pairs: tuple[tuple[str, int], ...]) -> tuple[Effect]:
    """The one-action tuple of the effect drawn as `pairs`, in draw order,
    so equal draws share one tuple and one dict."""
    return (dict(pairs),)


@lru_cache(maxsize=256)
def _names(prefix: str, n: int) -> tuple[str, ...]:
    # interned, so shapes of every size share each name string
    return tuple(sys.intern(f"{prefix}{i}") for i in range(n))


@lru_cache(maxsize=64)
def _var_decls(n_vars: int) -> tuple[VarDecl, ...]:
    return tuple(VarDecl(name=v) for v in _names("x", n_vars))


def generate_random(spec: GenSpec) -> Fmp:
    """A valid, normalized policy; every qstate reachable from the initial one.

    The first n-1 edges form a random arborescence rooted at q0 (guaranteeing
    reachability); the rest are uniform ordered pairs, so self-loops and
    parallel edges can occur. Each edge moves one or two variables by a
    uniform nonzero delta.

    Generated policies share their effects within a process: two edges
    that drew the same effect, in this policy or another, hold one
    `actions` tuple and one effect dict, and every policy of a shape holds
    the same name and `VarDecl` tuples. Bounded caches keep these, so a
    caller must copy an effect before it changes one; no engine or parser
    changes one.

    Deterministic per seed. Every value is drawn by `below(n)`, uniform on
    0..n-1: `k = n.bit_length()` bits from `Random(seed).getrandbits(k)`,
    drawn again while they read n or more. That is the draw
    `Random._randbelow` makes for n > 0 on CPython 3.10-3.13, and the
    steps below are the draws `random.shuffle`, `choice`, `sample` and
    `randrange` make through it, so a document depends on `getrandbits`
    alone and is the one those calls gave. In order:

    1. q1..q(n-1) are shuffled by Fisher-Yates: for i from the last index
       down to 1, swap i with `below(i + 1)`;
    2. each of them in that order hangs under
       `reachable[below(len(reachable))]`, the qstates reached so far
       with q0 first;
    3. each further edge draws its source, then its target, by `below(n)`;
    4. then per edge in edge order: whether it moves two variables,
       `below(2)` (never drawn with one variable); the first variable,
       `below(n_vars)`; the second as `sample` draws it, `below(n_vars -
       1)` over the names with the first swapped for the last while
       n_vars <= 21, else `below(n_vars)` drawn again until it differs;
       then a delta per variable, `r = below(2 * d)` giving the r-th of
       -d..-1, 1..d.

    A change to these steps can change the policy a seed gives; a test
    pins the documents of 500 specs, and another checks the documents of
    a spec grid against a generator built on the `random` calls.
    """
    if spec.n_qstates < 1:
        raise GenError(f"infeasible spec: n_qstates={spec.n_qstates}")
    if spec.n_vars < 1:
        raise GenError(f"infeasible spec: n_vars={spec.n_vars}")
    if not (0.0 < spec.edge_density <= 1.0):
        raise GenError(f"infeasible spec: edge_density={spec.edge_density}")
    if spec.max_abs_delta < 1:
        raise GenError(f"infeasible spec: max_abs_delta={spec.max_abs_delta}")
    n = spec.n_qstates
    m = math.ceil(spec.edge_density * n * n)
    if m < n - 1:
        raise GenError(
            f"infeasible spec: {m} edges cannot reach all {n} qstates from q0"
        )

    getrandbits = random.Random(spec.seed).getrandbits

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    qstates = _names("q", n)
    nv = spec.n_vars
    var_names = _names("x", nv)
    d = spec.max_abs_delta
    two_d = 2 * d

    # the arborescence (steps 1 and 2), then the other pairs (step 3)
    rest = list(qstates[1:])
    for i in range(len(rest) - 1, 0, -1):
        j = below(i + 1)
        rest[i], rest[j] = rest[j], rest[i]
    pairs: list[tuple[str, str]] = []
    reachable = [qstates[0]]
    for q in rest:
        pairs.append((reachable[below(len(reachable))], q))
        reachable.append(q)
    for _ in range(m - len(pairs)):
        pairs.append((qstates[below(n)], qstates[below(n)]))

    # one effect per edge (step 4)
    edges = []
    ids = _names("e", m)
    for i, (src, dst) in enumerate(pairs):
        two = nv > 1 and below(2)
        x = below(nv)
        if not two:
            r = below(two_d)
            drawn = ((var_names[x], r - d + (r >= d)),)
        else:
            if nv <= 21:
                y = below(nv - 1)
                if y == x:  # the pool slot x holds the last name
                    y = nv - 1
            else:
                y = below(nv)
                while y == x:
                    y = below(nv)
            r = below(two_d)
            s = below(two_d)
            drawn = ((var_names[x], r - d + (r >= d)),
                     (var_names[y], s - d + (s >= d)))
        edges.append(Edge(ids[i], src, dst, EMPTY_GUARD, _actions(drawn)))
    return Fmp(
        variables=_var_decls(nv),
        qstates=qstates,
        initial=qstates[0],
        edges=tuple(edges),
    )

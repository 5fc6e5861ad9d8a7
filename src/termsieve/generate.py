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
    caller that changes an effect must copy it first (`Edge.single`
    copies); no engine or parser changes one.

    Deterministic per seed, and the order of the draws is part of that:
    every pair is drawn first, then one effect per edge in edge order. A
    change to that order, or to the `random` calls that make the draws, can
    change the policy a seed gives; a test pins the documents of 500 specs.
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

    rng = random.Random(spec.seed)
    choice, sample, randrange = rng.choice, rng.sample, rng.randrange
    qstates = _names("q", n)
    var_names = _names("x", spec.n_vars)
    d = spec.max_abs_delta

    def delta() -> int:
        # the r-th of the 2d values -d..-1, 1..d, drawn as choice() over
        # that list would draw it, without building the list
        r = randrange(2 * d)
        return r - d + (r >= d)

    pairs: list[tuple[str, str]] = []
    reachable = [qstates[0]]
    rest = list(qstates[1:])
    rng.shuffle(rest)
    for q in rest:
        pairs.append((choice(reachable), q))
        reachable.append(q)
    for _ in range(m - len(pairs)):
        pairs.append((choice(qstates), choice(qstates)))

    # one effect per edge, drawn in edge order once every pair is drawn
    one_var = spec.n_vars == 1
    edges = []
    for i, (src, dst) in enumerate(pairs):
        k = 1 if one_var else choice((1, 2))
        drawn = tuple((v, delta()) for v in sample(var_names, k))
        edges.append(Edge(sys.intern(f"e{i}"), src, dst, EMPTY_GUARD,
                          _actions(drawn)))
    return Fmp(
        variables=_var_decls(spec.n_vars),
        qstates=qstates,
        initial=qstates[0],
        edges=tuple(edges),
    )

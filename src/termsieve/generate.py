"""Seeded random policy generator for test corpora."""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass

from .model import EMPTY_GUARD, Edge, Fmp, VarDecl


class GenError(ValueError):
    """The generation spec is infeasible or malformed."""


@dataclass(frozen=True, slots=True)
class GenSpec:
    n_qstates: int
    n_vars: int
    edge_density: float  # edges = ceil(density * n_qstates^2)
    max_abs_delta: int
    seed: int


def generate_random(spec: GenSpec) -> Fmp:
    """A valid, normalized policy; every qstate reachable from the initial one.

    The first n-1 edges form a random arborescence rooted at q0 (guaranteeing
    reachability); the rest are uniform ordered pairs, so self-loops and
    parallel edges can occur. Each edge moves one or two variables by a
    uniform nonzero delta.

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
    choice, sample = rng.choice, rng.sample
    # interned, so a corpus of generated policies holds one copy of each name
    qstates = tuple(sys.intern(f"q{i}") for i in range(n))
    var_names = tuple(sys.intern(f"x{i}") for i in range(spec.n_vars))
    deltas = [d for d in range(-spec.max_abs_delta, spec.max_abs_delta + 1) if d]

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
        effect = {v: choice(deltas) for v in sample(var_names, k)}
        edges.append(Edge(sys.intern(f"e{i}"), src, dst, EMPTY_GUARD, (effect,)))
    return Fmp(
        variables=tuple(VarDecl(name=v) for v in var_names),
        qstates=qstates,
        initial=qstates[0],
        edges=tuple(edges),
    )

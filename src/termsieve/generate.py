"""Seeded random policy generator for test corpora."""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass

from .model import Edge, Fmp, VarDecl


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
    uniform nonzero delta. Deterministic per seed.
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
    # interned, so a corpus of generated policies holds one copy of each name
    qstates = tuple(sys.intern(f"q{i}") for i in range(n))
    var_names = tuple(sys.intern(f"x{i}") for i in range(spec.n_vars))
    deltas = [d for d in range(-spec.max_abs_delta, spec.max_abs_delta + 1) if d]

    def effect() -> dict[str, int]:
        k = 1 if spec.n_vars == 1 else rng.choice((1, 2))
        return {v: rng.choice(deltas) for v in rng.sample(var_names, k)}

    pairs: list[tuple[str, str]] = []
    reachable = [qstates[0]]
    rest = list(qstates[1:])
    rng.shuffle(rest)
    for q in rest:
        pairs.append((rng.choice(reachable), q))
        reachable.append(q)
    for _ in range(m - len(pairs)):
        pairs.append((rng.choice(qstates), rng.choice(qstates)))

    edges = tuple(
        Edge.single(id=sys.intern(f"e{i}"), src=src, dst=dst, effect=effect())
        for i, (src, dst) in enumerate(pairs)
    )
    return Fmp(
        variables=tuple(VarDecl(name=v) for v in var_names),
        qstates=qstates,
        initial=qstates[0],
        edges=edges,
    )

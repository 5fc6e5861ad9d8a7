"""The seeded random policy generator."""
import hashlib
import itertools
import math

import pytest

from termsieve.generate import GenError, GenSpec, generate_random
from termsieve.model import validate
from termsieve.policyio import serialize_policy

from helpers import (
    bench_shape_specs, brute_reachable, policy_graph, referee_generate_random,
)


def spec(n_qstates=4, n_vars=2, edge_density=0.4, max_abs_delta=2, seed=0):
    return GenSpec(n_qstates=n_qstates, n_vars=n_vars,
                   edge_density=edge_density, max_abs_delta=max_abs_delta,
                   seed=seed)


def test_deterministic_per_seed():
    assert generate_random(spec(seed=5)) == generate_random(spec(seed=5))


def test_seeds_differ():
    outs = {serialize_policy(generate_random(spec(seed=s))) for s in range(10)}
    assert len(outs) > 1


def test_always_valid_and_normalized():
    for s in range(200):
        f = generate_random(spec(n_qstates=2 + s % 5, n_vars=1 + s % 3,
                                 seed=s))
        assert validate(f) == []
        assert all(len(e.actions) == 1 for e in f.edges)


def test_edge_count_formula():
    for n, d in ((3, 0.4), (5, 0.3), (6, 1.0), (1, 1.0)):
        f = generate_random(spec(n_qstates=n, edge_density=d, seed=1))
        assert len(f.edges) == math.ceil(d * n * n)


def test_just_enough_edges():
    # ceil(0.25 * 4) = 1 edge reaches the second qstate: the arborescence
    # alone, q0 -> q1
    f = generate_random(spec(n_qstates=2, edge_density=0.25, seed=6))
    assert [(e.src, e.dst) for e in f.edges] == [("q0", "q1")]


def test_all_qstates_reachable():
    for s in range(100):
        f = generate_random(spec(n_qstates=3 + s % 6, seed=s))
        g = policy_graph(f)
        assert brute_reachable(g, "q0") == frozenset(f.qstates)


def test_effects_within_delta_budget():
    for s in range(50):
        f = generate_random(spec(n_vars=3, max_abs_delta=2, seed=700 + s))
        for e in f.edges:
            assert 1 <= len(e.effect) <= 2
            for delta in e.effect.values():
                assert delta != 0
                assert abs(delta) <= 2


def test_huge_delta_bound_builds_no_delta_list():
    # a delta is drawn by its index among the 2 * 10**12 nonzero values, so
    # the bound costs nothing up front
    big = 10**12
    f = generate_random(spec(n_qstates=2, max_abs_delta=big, seed=4))
    deltas = [d for e in f.edges for d in e.effect.values()]
    assert deltas
    assert all(d != 0 and -big <= d <= big for d in deltas)


def test_single_var_effects():
    f = generate_random(spec(n_vars=1, seed=3))
    assert all(set(e.effect) == {"x0"} for e in f.edges)


def test_single_qstate():
    f = generate_random(spec(n_qstates=1, edge_density=1.0, seed=2))
    assert f.qstates == ("q0",)
    assert all(e.src == e.dst == "q0" for e in f.edges)


def test_documents_pinned():
    # the documents of 500 specs: 100 of each bench shape, then one-counter,
    # complete-density and one-qstate specs in turn. A change to the random
    # draws, their order or the document bytes moves the digest
    specs = bench_shape_specs(1, 100)
    for i in range(200):
        specs.append((spec(n_qstates=2 + i % 7, n_vars=1, edge_density=0.5,
                           max_abs_delta=3, seed=i),
                      spec(n_qstates=2 + i % 5, n_vars=3, edge_density=1.0,
                           seed=i),
                      spec(n_qstates=1, n_vars=1 + i % 3, edge_density=1.0,
                           max_abs_delta=1 + i % 3, seed=i))[i % 3])
    digest = hashlib.sha256()
    for s in specs:
        digest.update(serialize_policy(generate_random(s)).encode())
    assert len(specs) == 500
    assert digest.hexdigest()[:16] == "074273229266e6c1"


def test_matches_referee_generator():
    # the documents of 4,000 specs are the bytes the generator built on
    # random's shuffle/choice/sample/randrange gives: one qstate to nine,
    # one counter to 30 (sample's set branch takes over above 21), density
    # 0.4 and 1.0, |delta| up to 10**12
    grid = itertools.product((1, 2, 3, 5, 9),
                             (1, 2, 3, 5, 20, 21, 22, 23, 26, 30),
                             (0.4, 1.0), (1, 2, 7, 10**12), range(10))
    n_specs = 0
    for i, (n, v, dens, d, _) in enumerate(grid):
        s = spec(n_qstates=n, n_vars=v, edge_density=dens, max_abs_delta=d,
                 seed=i)
        assert serialize_policy(generate_random(s)) == \
            serialize_policy(referee_generate_random(s)), s
        n_specs += 1
    assert n_specs == 4000


def test_ids_are_sequential():
    f = generate_random(spec(seed=9))
    assert [e.id for e in f.edges] == [f"e{i}" for i in range(len(f.edges))]


class TestInfeasible:
    def test_too_sparse_to_connect(self):
        # ceil(0.1 * 36) = 4 edges cannot reach 5 qstates from q0
        with pytest.raises(GenError):
            generate_random(spec(n_qstates=6, edge_density=0.1))

    def test_bad_counts(self):
        with pytest.raises(GenError):
            generate_random(spec(n_qstates=0))
        with pytest.raises(GenError):
            generate_random(spec(n_vars=0))
        with pytest.raises(GenError):
            generate_random(spec(max_abs_delta=0))

    def test_bad_density(self):
        with pytest.raises(GenError):
            generate_random(spec(edge_density=0.0))
        # one qstate needs no edge, but density 0 is still refused
        with pytest.raises(GenError):
            generate_random(spec(n_qstates=1, edge_density=0.0))
        with pytest.raises(GenError):
            generate_random(spec(edge_density=1.5))

"""Acceptance criteria for the workbench, one test per criterion.

Each test prints a single `[A#] PASS/FAIL: detail` line (visible with
`pytest -s`) and then asserts, so a red criterion still reports itself.
"""
import json
import random
import time

import pytest

from termsieve.analysis import (
    TERMINATING, UNKNOWN, AnalysisConfig, hsieve, hsieve_once, progress_sieve,
)
from termsieve.decomposition import build_def, quotient
from termsieve.generate import GenSpec, generate_random
from termsieve.graphs import boundary, induced, policy_graph, scc_decompose
from termsieve.model import normalize
from termsieve.oracle import ALL_HALT, INCONCLUSIVE, LASSO_FOUND, explore, explore_grid
from termsieve.paths import (
    PathCapExceeded, boxminus, var_sets,
)
from termsieve.policyio import load_policy, parse_policy, serialize_policy

from helpers import (
    FIXTURES, TEST_FIXTURES, brute_sccs, check_det, guard_free_walks,
    iter_nodes, key_net, listed_paths, path_ctx, random_digraph,
    random_small_policy, replay_lasso,
)


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"\n[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag} {detail}"


@pytest.fixture(scope="module")
def corpus():
    """500 generated policies with their default-analysis reports."""
    out = []
    for i in range(500):
        spec = GenSpec(
            n_qstates=2 + i % 5, n_vars=1 + i % 3, edge_density=0.4,
            max_abs_delta=2, seed=41000 + i)
        fmp = generate_random(spec)
        out.append((fmp, hsieve(fmp)))
    return out


def test_a1_separating_example():
    fmp = load_policy(FIXTURES / "example1.fmp.json")
    t0 = time.perf_counter()
    hier = hsieve(fmp).verdict
    base = progress_sieve(fmp)
    elapsed = time.perf_counter() - t0
    ok = (
        hier.kind == TERMINATING
        and base.kind == "nonterminating_qualitative"
        and elapsed < 1.0
    )
    report("A1", ok,
           f"hierarchical={hier} baseline={base} elapsed={elapsed * 1000:.1f}ms")


def test_a2_corpus_soundness(corpus):
    terminating = [f for f, r in corpus if r.verdict.kind == TERMINATING]
    runs = lassos = inconclusive = 0
    for fmp in terminating:
        for _, res in explore_grid(fmp, 3):
            runs += 1
            if res.kind == LASSO_FOUND:
                lassos += 1
            elif res.kind == INCONCLUSIVE:
                inconclusive += 1
    rate = inconclusive / runs if runs else 1.0
    ok = len(terminating) > 0 and lassos == 0 and rate < 0.20
    report("A2", ok,
           f"corpus=500 terminating={len(terminating)} grid_runs={runs} "
           f"lassos={lassos} inconclusive_rate={rate:.4f}")


def test_a3_worked_fixtures():
    problems = []

    f2 = load_policy(FIXTURES / "f2.fmp.json")
    got = hsieve(f2).to_trace_dict()
    got.pop("wall_ms")
    want = json.loads((TEST_FIXTURES / "f2.trace.json").read_text())
    if got != want:
        problems.append("two-counter trace drifted from its frozen form")
    grid = explore_grid(f2, 5)
    if not (len(grid) == 36 and all(r.kind == ALL_HALT for _, r in grid)):
        problems.append("two-counter policy not halting on the [0,5]^2 grid")

    f3 = load_policy(FIXTURES / "f3.fmp.json")
    got = hsieve(f3).to_trace_dict()
    got.pop("wall_ms")
    want = json.loads((TEST_FIXTURES / "f3.trace.json").read_text())
    if got != want:
        problems.append("pump-release trace drifted from its frozen form")
    res = explore(f3, f3.state({"x": 0}))
    if res.kind != LASSO_FOUND:
        problems.append("pump-release lasso not found from x=0")
    else:
        w = res.witness
        if [e for e, _ in w.steps] != ["e2", "e3"] or w.cycle_start != 0:
            problems.append(f"unexpected witness {w}")
        replay_lasso(f3, w)

    report("A3", not problems, "; ".join(problems) or
           "both fixture traces exact, oracle verdicts agree")


def test_a4_iterative_melting():
    fmp = load_policy(FIXTURES / "f8prime.fmp.json")
    rep = hsieve(fmp)
    removed = [it.removed_edges for it in rep.iterations]
    sizes = [len(fmp.edges)]
    for r in removed:
        sizes.append(sizes[-1] - len(r))
    removal_iters = sum(1 for r in removed if r)
    ok = (
        rep.verdict.kind == TERMINATING
        and removal_iters >= 2
        and sizes == [5, 3, 2, 2]
    )
    report("A4", ok, f"verdict={rep.verdict} removed={removed} "
                     f"edge_counts={sizes}")


def test_a5_scale_budget():
    worst = 0.0
    for k in range(3):
        fmp = generate_random(GenSpec(
            n_qstates=10, n_vars=7, edge_density=0.4, max_abs_delta=2,
            seed=77000 + k))
        rep = hsieve(fmp)
        worst = max(worst, rep.wall_time)
    ok = worst <= 5.0
    report("A5", ok, f"3 policies at 10 qstates / 7 vars, "
                     f"slowest={worst * 1000:.1f}ms (budget 5s)")


def test_a6_def_dependence():
    found_at = None
    fmp = None
    for i in range(10_000):
        cand = generate_random(GenSpec(
            n_qstates=3 + i % 4, n_vars=2, edge_density=0.45,
            max_abs_delta=2, seed=900_000 + i))
        kinds = {hsieve_once(cand, s).verdict.kind for s in range(5)}
        if TERMINATING in kinds and UNKNOWN in kinds:
            found_at, fmp = i, cand
            break
    problems = []
    if found_at is None:
        problems.append("no forest-dependent instance in the search budget")
    else:
        archived = load_policy(TEST_FIXTURES / "def_dependent.fmp.json")
        if serialize_policy(fmp) != serialize_policy(archived):
            problems.append("archived instance no longer matches the search")
        per_seed = [hsieve_once(archived, s).verdict.kind for s in range(5)]
        if per_seed != [UNKNOWN] * 3 + [TERMINATING] * 2:
            problems.append(f"per-seed verdicts changed: {per_seed}")
        if any(r.kind == LASSO_FOUND for _, r in explore_grid(archived, 3)):
            problems.append("oracle found a lasso under a terminating sample")
        multi = hsieve(archived, AnalysisConfig(def_samples=5))
        if multi.verdict.kind != TERMINATING:
            problems.append(f"multi-sample driver missed it: {multi.verdict}")
    report("A6", not problems, "; ".join(problems) or
           f"first hit at search index {found_at}, seeds 0-2 unknown / "
           f"3-4 terminating, oracle-sound, samples=5 recovers it")


# --- A7: randomized invariant campaigns, 10^4 cases each ---------------------

def _c_def_structure(n):
    rng = random.Random(71001)
    for k in range(n):
        g = random_digraph(rng)
        forest = build_def(g, rng.randrange(1 << 16))
        errs = check_det(forest, g)
        if errs:
            return k, [f"structure check failed at case {k}: {errs[:2]}"]
    return n, []


def _path_shape_problem(kind, seq, node, by_id, entries, exits):
    if seq is None:
        return "path key does not decode to one nonempty walk from its start"
    verts = []
    for eid in seq:
        if eid not in by_id:
            return f"arc {eid} not in the enumeration graph"
        s, d = by_id[eid]
        if not verts:
            verts.append(s)
        elif verts[-1] != s:
            return f"discontiguous at {eid}"
        verts.append(d)
    if kind == "cycle":
        if verts[0] != node.elim or verts[-1] != node.elim:
            return "cycle path does not start and end at the eliminated vertex"
        if verts.count(node.elim) != 2:
            return "eliminated vertex not visited exactly twice"
        inner = verts[1:-1]
        if len(inner) != len(set(inner)):
            return "cycle path repeats an intermediate vertex"
    else:
        if len(verts) != len(set(verts)):
            return "through path repeats a vertex"
        if verts[0] not in entries or verts[-1] not in exits:
            return "through path endpoints outside the boundary"
    return None


def _c_path_shapes(target):
    """Each path is read back from its keys alone: the arc set from a
    context with one counter per arc, and the net from a second context
    over the case's effects."""
    rng = random.Random(71002)
    cases = 0
    while cases < target:
        g = random_digraph(rng)
        effects = {
            a[0]: {v: rng.randint(-3, 3) for v in ("x", "y")
                   if rng.random() < 0.8}
            for a in g.arcs
        }
        q0 = rng.choice(sorted(g.vertices)) if rng.random() < 0.5 else None
        forest = build_def(g, rng.randrange(1 << 16))
        ctx = path_ctx(g, effects, q0)
        code = ctx.graph.code
        for node in iter_nodes(forest):
            try:
                paths = listed_paths(g, node, q0)
                keys = ctx.paths(node)
            except PathCapExceeded:
                continue
            if len(keys) != len(paths):
                return cases, [f"path shape case {cases}: {len(keys)} keys "
                               f"for {len(paths)} paths"]
            q_by_id = {a[0]: (a[1], a[2])
                       for a in quotient(g, node).arcs}
            s_by_id = {a[0]: (a[1], a[2])
                       for a in induced(g, node.vertices).arcs}
            entries, exits = boundary(g, node.vertices, q0)
            for (kind, seq), key in zip(paths, keys):
                cases += 1
                msg = _path_shape_problem(
                    kind, seq, node, q_by_id if kind == "cycle" else s_by_id,
                    entries, exits)
                if msg is None:
                    net = {}
                    for eid in seq:
                        for v, dd in effects[eid].items():
                            if dd:
                                net[v] = net.get(v, 0) + dd
                    if key != sum(code.weight[eid] for eid in seq) \
                            or key_net(code, key) != net:
                        msg = (f"net drift: {key_net(code, key)} vs "
                               f"recomputed {net}")
                if msg:
                    return cases, [f"path shape case {cases}: {msg}"]
    return cases, []


def _c_boxminus(n):
    rng = random.Random(71003)
    names = ("x", "y", "z", "w")
    for k in range(n):
        fam = frozenset(
            frozenset(v for v in names if rng.random() < 0.4)
            for _ in range(rng.randint(0, 6)))
        iv = frozenset(v for v in names if rng.random() < 0.4)
        got = boxminus(fam, iv)
        want = frozenset(s - iv for s in fam)
        if got != want or boxminus(got, iv) != got:
            return k, [f"boxminus case {k}: {fam} - {iv} gave {got}"]
    return n, []


def _walk_cuts(sub, entries, exits, rng):
    start = rng.choice(sorted(entries))
    walk = guard_free_walks(sub, start, rng, 12)
    cuts = [i for i in range(1, len(walk) + 1) if walk[i - 1][1] in exits]
    if not cuts:
        return None
    return walk[:rng.choice(cuts)]


def _c_iv_covers_positive_walks(target):
    rng = random.Random(71004)
    cases = 0
    while cases < target:
        fmp = normalize(random_small_policy(rng))
        g = policy_graph(fmp)
        forest = build_def(g, rng.randrange(1 << 16))
        effects = {e.id: e.effect for e in fmp.edges}
        ctx = path_ctx(g, effects, fmp.initial)
        try:
            for node in iter_nodes(forest):
                iv = var_sets(node, ctx).iv
                entries, exits = boundary(g, node.vertices, fmp.initial)
                if not entries or not exits:
                    continue
                sub = induced(g, node.vertices)
                for _ in range(4):
                    prefix = _walk_cuts(sub, entries, exits, rng)
                    if prefix is None:
                        continue
                    cases += 1
                    net = {}
                    for aid, _dst in prefix:
                        for v, dd in effects[aid].items():
                            net[v] = net.get(v, 0) + dd
                    gained = {v for v, dd in net.items() if dd > 0}
                    if not gained <= iv:
                        return cases, [
                            f"walk case {cases}: vars {gained - iv} grew on "
                            f"a crossing walk but are outside iv={set(iv)}"]
        except PathCapExceeded:
            continue
    return cases, []


def _c_dv_forces_decrease(target):
    rng = random.Random(71005)
    cases = 0
    while cases < target:
        fmp = normalize(random_small_policy(rng))
        g = policy_graph(fmp)
        forest = build_def(g, rng.randrange(1 << 16))
        effects = {e.id: e.effect for e in fmp.edges}
        ctx = path_ctx(g, effects, fmp.initial)
        try:
            for node in iter_nodes(forest):
                dv = var_sets(node, ctx).dv
                if frozenset() in dv:
                    continue
                entries, exits = boundary(g, node.vertices, fmp.initial)
                if not entries or not exits:
                    continue
                sub = induced(g, node.vertices)
                for _ in range(8):
                    prefix = _walk_cuts(sub, entries, exits, rng)
                    if prefix is None:
                        continue
                    cases += 1
                    net = {}
                    for aid, _dst in prefix:
                        for v, dd in effects[aid].items():
                            net[v] = net.get(v, 0) + dd
                    if not any(dd < 0 for dd in net.values()):
                        return cases, [
                            f"walk case {cases}: empty-free dec family but a "
                            f"crossing walk decreases nothing (net={net})"]
        except PathCapExceeded:
            continue
    return cases, []


def _c_scc_brute(n):
    rng = random.Random(71006)
    for k in range(n):
        g = random_digraph(rng, max_vertices=7, max_arcs=12)
        if set(scc_decompose(g).components) != brute_sccs(g):
            return k, [f"scc case {k} diverged from brute force"]
    return n, []


def _c_round_trip(n):
    rng = random.Random(71007)
    for k in range(n):
        if k % 2:
            fmp = random_small_policy(rng)
        else:
            fmp = generate_random(GenSpec(
                n_qstates=2 + k % 4, n_vars=1 + k % 3, edge_density=0.5,
                max_abs_delta=3, seed=880_000 + k))
        text = serialize_policy(fmp)
        if serialize_policy(parse_policy(text)) != text:
            return k, [f"round trip case {k} not stable"]
    return n, []


def test_a7_invariant_campaigns():
    campaigns = [
        ("def-structure", _c_def_structure),
        ("path-shapes", _c_path_shapes),
        ("boxminus", _c_boxminus),
        ("iv-walks", _c_iv_covers_positive_walks),
        ("dv-walks", _c_dv_forces_decrease),
        ("scc-brute", _c_scc_brute),
        ("round-trip", _c_round_trip),
    ]
    counts = []
    problems = []
    for name, fn in campaigns:
        cases, bad = fn(10_000)
        counts.append(f"{name}={cases}")
        problems.extend(bad)
    report("A7", not problems,
           "; ".join(problems) or "cases: " + " ".join(counts))


def test_a8_baseline_dominance(corpus):
    checked = missed = 0
    offender = None
    for fmp, _ in corpus:
        if progress_sieve(fmp).kind != TERMINATING:
            continue
        checked += 1
        rep = hsieve(fmp, AnalysisConfig(def_samples=20))
        if rep.verdict.kind != TERMINATING:
            missed += 1
            if offender is None:
                offender = serialize_policy(fmp)
    if offender is not None:
        print("\nfirst policy the hierarchy missed:\n" + offender)
    report("A8", missed == 0,
           f"baseline_terminating={checked} hierarchy_confirmed="
           f"{checked - missed} missed={missed}")

"""Seeded policy corpora and the per-policy pipeline each workload runs.

Every policy goes through the same pipeline, with stages switched per
workload: document text -> parse_policy -> normalize -> validate ->
[hsieve] -> [progress_sieve] -> [explore_grid]. Where hsieve runs, the oracle
audits each terminating verdict; where it does not, the oracle explores
every policy. The engines receive only the JSON text; the generated policy
object is kept solely to check the parse.
"""

from __future__ import annotations

import hashlib
import statistics
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from termsieve import analysis, generate, model, oracle, policyio
from termsieve.analysis import AnalysisConfig
from termsieve.generate import GenSpec
from termsieve.oracle import ExploreCaps

from checks import replay_lasso
from speed import Clock

TERMINATING = analysis.TERMINATING


@dataclass(frozen=True)
class Workload:
    """One corpus shape and the pipeline stages it runs (reasons: BENCHMARK.json)."""

    name: str
    rate: int  # policies per measured second at the nominal machine speed
    spec: Callable[[int, int], GenSpec]  # (generator seed, index) -> spec
    analysis: AnalysisConfig | None  # None: no hsieve stage, explore everything
    baseline: bool  # run progress_sieve
    grid: int  # explore_grid grid_max
    caps: ExploreCaps


def _mid(s: int, i: int) -> GenSpec:
    # 11 rather than 12 qstates: a third of the cost per policy, so a run
    # holds 900 policies and the percentiles steady across seeds.
    return GenSpec(n_qstates=11, n_vars=4, edge_density=0.4,
                   max_abs_delta=2, seed=s)


def _small(s: int, i: int) -> GenSpec:
    # The acceptance-suite A2/A8 mix: 2-6 qstates crossed with 1-3 counters.
    return GenSpec(n_qstates=2 + i % 5, n_vars=1 + i % 3,
                   edge_density=0.4, max_abs_delta=2, seed=s)


def _hunt(s: int, i: int) -> GenSpec:
    return GenSpec(n_qstates=8, n_vars=2, edge_density=0.4,
                   max_abs_delta=2, seed=s)


# A run takes corpus_size policies through the pipeline once. The rates are
# a little under what the workloads manage at the nominal machine speed
# (bench/speed.py), so the pass ends within --seconds; MIN_POLICIES leaves
# p90 with at least ten policies beyond it at any --seconds.
MIN_POLICIES = 200
RECHECK_EVERY = 20
WORKLOADS = {
    w.name: w
    for w in (
        Workload("hsieve-mid", rate=30, spec=_mid, analysis=AnalysisConfig(),
                 baseline=False, grid=3, caps=ExploreCaps()),
        Workload("triage-small", rate=150, spec=_small,
                 analysis=AnalysisConfig(def_samples=20),
                 baseline=True, grid=3, caps=ExploreCaps()),
        Workload("oracle-hunt", rate=150, spec=_hunt, analysis=None,
                 baseline=False, grid=1, caps=ExploreCaps(max_configs=2000)),
    )
}


@dataclass(frozen=True)
class Item:
    gen_seed: int
    text: str
    fmp: object  # the generated policy, to check what parse_policy returns


def corpus_size(w: Workload, seconds: float) -> int:
    return max(MIN_POLICIES, round(w.rate * seconds))


def build_corpus(w: Workload, seed: int, lo: int, hi: int) -> list[Item]:
    """Corpus entries lo..hi-1; entry i depends only on the seed and i."""
    items = []
    for i in range(lo, hi):
        gen_seed = seed * 1_000_000 + i
        fmp = generate.generate_random(w.spec(gen_seed, i))
        items.append(Item(gen_seed, policyio.serialize_policy(fmp), fmp))
    return items


@dataclass
class Tally:
    """What one pass over a corpus measured and checked."""

    # corpus index -> one time per completed pipeline; busy_s excludes checks
    analyze_s: dict[int, list[float]] = field(default_factory=dict)
    oracle_s: dict[int, list[float]] = field(default_factory=dict)
    busy_s: dict[int, list[float]] = field(default_factory=dict)
    expanded: int = 0  # configurations expanded by explore_grid calls
    policies: int = 0  # pipelines completed
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    records: dict[int, tuple] = field(default_factory=dict)  # corpus index -> verdicts

    def fail(self, why: str) -> None:
        self.failures[why] += 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def _outcome(results) -> str:
    kinds = {res.kind for _, res in results}
    for kind in (oracle.LASSO_FOUND, oracle.INCONCLUSIVE):
        if kind in kinds:
            return kind
    return oracle.ALL_HALT


def process(w: Workload, index: int, item: Item, tally: Tally,
            clock: Clock | None = None) -> None:
    """Run one policy through the workload pipeline, then check the answers.

    With a clock the times are scaled to the nominal machine speed.
    """
    tally.attempted += 1
    try:
        t0 = perf_counter()
        fmp = model.normalize(policyio.parse_policy(item.text))
        violations = model.validate(fmp)
        verdict = None
        if w.analysis is not None:
            verdict = analysis.hsieve(fmp, w.analysis).verdict
        t1 = perf_counter()
        base = analysis.progress_sieve(fmp) if w.baseline else None
        t2 = perf_counter()
        results = None
        if verdict is None or verdict.kind == TERMINATING:
            results = oracle.explore_grid(fmp, w.grid, w.caps)
        t3 = perf_counter()
    except Exception as exc:  # an engine crash is one failed operation
        tally.fail(type(exc).__name__)
        return

    record_time = clock.record if clock is not None else list.append
    record_time(tally.analyze_s.setdefault(index, []),
                (t1 if w.analysis is not None else t3) - t0)
    record_time(tally.busy_s.setdefault(index, []), t3 - t0)
    tally.policies += 1
    if results is not None:
        record_time(tally.oracle_s.setdefault(index, []), t3 - t2)
        tally.expanded += sum(res.stats["expanded"] for _, res in results)

    if violations:
        tally.fail("invalid-policy")
    if fmp != item.fmp:
        tally.fail("parse-mismatch")
    for s0, res in results or ():
        if res.witness is not None:
            if verdict is not None and verdict.kind == TERMINATING:
                tally.fail("lasso-under-terminating")
            if replay_lasso(fmp, s0.values, res.witness) is not None:
                tally.fail("lasso-replay")
    record = (
        item.gen_seed,
        (verdict.kind, verdict.detail) if verdict is not None else None,
        base.kind if base is not None else None,
        (_outcome(results), len(results)) if results is not None else None,
    )
    tally.records[index] = record


def run_indices(w: Workload, corpus: list[Item], indices, tally: Tally) -> float:
    """Process the given corpus entries; returns the wall time taken."""
    t0 = perf_counter()
    for i in indices:
        process(w, i, corpus[i], tally)
    return perf_counter() - t0


def run_pass(w: Workload, corpus: list[Item], tally: Tally, clock: Clock) -> None:
    """One pass over the corpus, timed at the nominal machine speed."""
    for i, item in enumerate(corpus):
        process(w, i, item, tally, clock)
        clock.tick()
    clock.end_stretch()


def recheck(w: Workload, corpus: list[Item], tally: Tally) -> None:
    """Run every RECHECK_EVERY-th policy again, untimed; its verdicts must repeat."""
    again = Tally()
    run_indices(w, corpus, range(0, len(corpus), RECHECK_EVERY), again)
    merge_checks(tally, again)


def merge_checks(tally: Tally, other: Tally) -> None:
    """Add other's checks to tally; a verdict that differs is one failure."""
    for why, n in other.failures.items():
        tally.failures[why] += n
    tally.attempted += other.attempted
    for index, record in other.records.items():
        if tally.records.get(index) != record:
            tally.fail("verdict-drift")


def digest(tally: Tally) -> str:
    """Hash of every policy's (seed, verdicts) in corpus order."""
    h = hashlib.sha256()
    for index in sorted(tally.records):
        h.update(repr(tally.records[index]).encode())
    return h.hexdigest()[:16]


def verdict_shares(tally: Tally) -> dict[str, float]:
    """Verdict mix of the corpus (0.0 where no policy reached a stage)."""
    recs = list(tally.records.values())
    analyzed = [r[1] for r in recs if r[1] is not None]
    hunted = [r[3] for r in recs if r[3] is not None
              and (r[1] is None or r[1][0] != TERMINATING)]
    terminating = sum(v[0] == TERMINATING for v in analyzed)
    lassos = sum(o[0] == oracle.LASSO_FOUND for o in hunted)

    def share(k: int, n: int) -> float:
        return k / n if n else 0.0

    return {
        "terminating": share(terminating, len(analyzed)),
        "cap": share(sum(v[1] == "resource-cap" for v in analyzed), len(analyzed)),
        "lasso": share(lassos, len(hunted)),
    }


def per_policy(times: dict[int, list[float]]) -> list[float]:
    """Each policy's time (a run times each policy once per tally)."""
    return [ts[0] for ts in times.values()]


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles."""
    return statistics.quantiles(values, n=100)[q - 1]

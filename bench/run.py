"""termsieve benchmark: time to verdict and oracle throughput per workload.

Usage (from the repository root):

    python3 bench/run.py --workload hsieve-mid --seed 1 --seconds 30 --trace 0

The policies are generated from --seed and handed to the engines as JSON
text; the corpus holds as many policies as the workload takes through its
pipeline in about --seconds. With --trace 0 the corpus is processed once and
the end-to-end metrics are printed; times are scaled to the nominal machine
speed (see bench/speed.py). With --trace 1 the first TRACE_SHARE of the
corpus runs block by block, each block untraced and then traced, and the
per-layer metrics are printed; the spans go to .bench_out/. Every answer is
checked in both modes, and verdicts must repeat when policies run again: every
RECHECK_EVERY-th one after the timed pass, or all of them in the traced run.
The last line of output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# name, unit, better. analyze_ms_* is per policy, from document text to the
# workload's first verdict: hsieve's where hsieve runs, else explore_grid's.
# policies_per_s is the corpus size over the sum of the pipeline times.
# ok_share is 1 - failed/attempted; setup_s is the imports plus the corpus
# build, estimated as SETUP_CHUNKS times the median time to build one of
# SETUP_CHUNKS equal chunks; peak_rss_mb is the run's peak resident memory.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("analyze_ms_p50", "ms", "lower"),
    ("analyze_ms_p90", "ms", "lower"),
    ("policies_per_s", "1/s", "higher"),
    ("ok_share", "share", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

SETUP_CHUNKS = 8
TRACE_SHARE = 3  # the traced run covers 1/TRACE_SHARE of the corpus
TRACE_BLOCKS = 50


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "termsieve" / "__init__.py").is_file():
        print(f"error: no termsieve sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import speed

    clock = speed.Clock()
    setup_times: list[float] = []
    t0 = perf_counter()
    import termsieve  # noqa: F401  (the import is part of set-up time)
    clock.record(setup_times, perf_counter() - t0)
    clock.end_stretch()

    import checks
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]

    tally = wl.Tally()
    size = wl.corpus_size(w, args.seconds)
    if args.trace:
        size = max(wl.MIN_POLICIES, size // TRACE_SHARE)
    builds: list[float] = []
    corpus = []
    for c in range(SETUP_CHUNKS):
        lo, hi = size * c // SETUP_CHUNKS, size * (c + 1) // SETUP_CHUNKS
        t0 = perf_counter()
        corpus += wl.build_corpus(w, args.seed, lo, hi)
        clock.record(builds, perf_counter() - t0)
        clock.end_stretch()
    setup_s = setup_times[0] + SETUP_CHUNKS * statistics.median(builds)
    tally.attempted += 1
    again = wl.build_corpus(w, args.seed, 0, size // SETUP_CHUNKS)
    if [i.text for i in again] != [i.text for i in corpus[:len(again)]]:
        tally.fail("corpus-not-deterministic")
    del again
    tally.attempted += len(checks.FIXTURE_ANSWERS)
    for miss in checks.check_fixtures(ROOT):
        print(f"fixture miss: {miss}")
        tally.fail("fixture")
    # The corpus is the benchmark's data: keep the cyclic collector from
    # rescanning it during timed work.
    gc.collect()
    gc.freeze()

    if args.trace:
        metrics = traced_run(w, corpus, tally)
    else:
        wl.run_pass(w, corpus, tally, clock)
        wl.recheck(w, corpus, tally)
        metrics = end_to_end(tally, setup_s)

    print(f"workload={w.name} seed={args.seed} corpus={len(corpus)} "
          f"pipelines={tally.policies} analyze_samples={len(tally.analyze_s)} "
          f"oracle_samples={len(tally.oracle_s)}")
    print(f"verdict_digest={wl.digest(tally)}")
    print(f"calibration_ms_p50={clock.median_ms():.4f} "
          f"nominal_ms={speed.NOMINAL_S * 1e3} calibrations={len(clock.samples)}")
    print("failures=" + json.dumps(dict(tally.failures), sort_keys=True))
    if args.trace:
        import tracing
        notes = {name: f"{better} is better; moves {moves}; on {on}"
                 for name, _, better, moves, on in tracing.LAYER_METRICS}
    else:
        notes = {name: f"{better} is better" for name, _, better in END_TO_END}
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']!s:>22} {m['unit']:6s} {notes[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def end_to_end(tally, setup_s: float) -> dict:
    import workloads as wl

    analyze = wl.per_policy(tally.analyze_s)
    busy = wl.per_policy(tally.busy_s)
    values = {
        "setup_s": setup_s,
        "analyze_ms_p50": statistics.median(analyze) * 1e3,
        "analyze_ms_p90": wl.percentile(analyze, 90) * 1e3,
        "policies_per_s": len(busy) / sum(busy),
        "ok_share": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def traced_run(w, corpus, tally) -> dict:
    """One pass in blocks, each run untraced and then traced.

    Alternating block by block keeps drift in machine speed out of
    trace.overhead_s; the untraced blocks give the oracle call times.
    """
    import tracing
    import workloads as wl

    tracer = tracing.Tracer()
    traced = wl.Tally()
    untraced_s = traced_s = 0.0
    step = max(1, len(corpus) // TRACE_BLOCKS)
    for lo in range(0, len(corpus), step):
        block = range(lo, min(lo + step, len(corpus)))
        untraced_s += wl.run_indices(w, corpus, block, tally)
        tracer.install()
        try:
            traced_s += wl.run_indices(w, corpus, block, traced)
        finally:
            tracer.uninstall()
    oracle_s = wl.per_policy(tally.oracle_s)
    oracle_total_s = sum(sum(ts) for ts in tally.oracle_s.values())
    shares = wl.verdict_shares(tally)
    wl.merge_checks(tally, traced)
    for span in tracer.missing:
        print(f"not measured: {span} no longer exists")
    tracer.write(ROOT / ".bench_out" / f"spans-{w.name}.json")
    values = tracer.layer_metrics()
    values.update({
        "analysis.terminating_share": shares["terminating"],
        "analysis.cap_share": shares["cap"],
        "oracle.lasso_share": shares["lasso"],
        # 0 where no oracle call ran
        "oracle.call_ms_p50": statistics.median(oracle_s) * 1e3 if oracle_s else 0.0,
        "oracle.call_ms_p90": wl.percentile(oracle_s, 90) * 1e3 if len(oracle_s) > 1 else 0.0,
        "oracle.configs_per_s": tally.expanded / oracle_total_s if oracle_s else 0.0,
        "trace.overhead_s": traced_s - untraced_s,
    })
    out = {}
    for name, unit, _better, _moves, _on in tracing.LAYER_METRICS:
        out[name] = {"value": values[name], "unit": unit}
        if values[name] is None:
            out[name]["status"] = "not measured"
    return out


if __name__ == "__main__":
    sys.exit(main())

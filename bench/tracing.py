"""Per-layer tracing by wrapping termsieve's public functions from outside.

Each wrapped call records a span (name, start, end, parent) in flat arrays;
spans stay in memory during the traced pass and are written out once at the
end. A layer's self time is its spans' duration minus the time their child
spans cover. Counters are taken at the same call boundaries.

A wrapped function that no longer exists is skipped, and the layer metrics
that depend only on missing functions report as "not measured".
"""

from __future__ import annotations

import json
import sys
import weakref
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

# span name -> (module, attribute path) of the public function it wraps
TARGETS = {
    "policyio.parse_policy": ("termsieve.policyio", "parse_policy"),
    "model.normalize": ("termsieve.model", "normalize"),
    "model.validate": ("termsieve.model", "validate"),
    "analysis.hsieve": ("termsieve.analysis", "hsieve"),
    "analysis.hsieve_once": ("termsieve.analysis", "hsieve_once"),
    "analysis.progress_sieve": ("termsieve.analysis", "progress_sieve"),
    "decomposition.build_def": ("termsieve.decomposition", "build_def"),
    "decomposition.quotient": ("termsieve.decomposition", "quotient"),
    "graphs.scc_decompose": ("termsieve.graphs", "scc_decompose"),
    "graphs.induced": ("termsieve.graphs", "induced"),
    "graphs.boundary": ("termsieve.graphs", "boundary"),
    # First call per node enumerates ("paths.enumerate"); later ones hit the cache.
    "paths.PathContext.paths": ("termsieve.paths", "PathContext.paths"),
    "paths.build_inc_vars": ("termsieve.paths", "build_inc_vars"),
    "paths.subtree_pdv": ("termsieve.paths", "subtree_pdv"),
    "paths.build_dec_vars": ("termsieve.paths", "build_dec_vars"),
    "paths.boxminus": ("termsieve.paths", "boxminus"),
    "oracle.explore_grid": ("termsieve.oracle", "explore_grid"),
    "oracle.explore": ("termsieve.oracle", "explore"),
}

_AGGREGATE = ("paths.build_inc_vars", "paths.subtree_pdv",
              "paths.build_dec_vars", "paths.boxminus")

# name, unit, better, the end-to-end metrics it should move, and where.
LAYER_METRICS = (
    ("paths.enumerate_s", "s", "lower",
     "analyze_ms_p50, analyze_ms_p90, policies_per_s",
     "hsieve-mid; less on triage-small; not on oracle-hunt"),
    ("paths.nodes", "count", "lower", "as paths.enumerate_s", "hsieve-mid"),
    ("paths.summaries", "count", "lower", "as paths.enumerate_s", "hsieve-mid"),
    ("paths.max_per_node", "count", "lower", "as paths.enumerate_s", "hsieve-mid"),
    ("paths.cap_hits", "count", "lower", "as paths.enumerate_s", "hsieve-mid"),
    ("paths.capped_summaries_share", "share", "lower",
     "as paths.enumerate_s", "hsieve-mid"),
    ("paths.aggregate_s", "s", "lower", "analyze_ms_p50, analyze_ms_p90", "hsieve-mid"),
    ("decomposition.build_def_s", "s", "lower",
     "analyze_ms_p50, policies_per_s", "triage-small; no change on hsieve-mid"),
    ("decomposition.tree_nodes", "count", "lower",
     "analyze_ms_p50, policies_per_s", "triage-small; no change on hsieve-mid"),
    ("decomposition.quotient_s", "s", "lower",
     "analyze_ms_p50, policies_per_s", "triage-small; no change on hsieve-mid"),
    ("graphs.scc_decompose_s", "s", "lower",
     "analyze_ms_p50, policies_per_s", "triage-small; no change on hsieve-mid"),
    ("graphs.scc_decompose_calls", "count", "lower",
     "analyze_ms_p50, policies_per_s", "triage-small; no change on hsieve-mid"),
    ("graphs.induced_s", "s", "lower",
     "analyze_ms_p50, policies_per_s", "triage-small; no change on hsieve-mid"),
    ("graphs.boundary_s", "s", "lower",
     "analyze_ms_p50, policies_per_s", "triage-small; no change on hsieve-mid"),
    ("analysis.loop_s", "s", "lower",
     "analyze_ms_p50, policies_per_s", "triage-small; no change on hsieve-mid"),
    ("analysis.samples", "count", "lower",
     "analyze_ms_p50, policies_per_s", "triage-small; no change on hsieve-mid"),
    ("analysis.samples_per_verdict", "count", "lower",
     "analyze_ms_p50, policies_per_s", "triage-small; no change on hsieve-mid"),
    ("analysis.iterations", "count", "lower",
     "analyze_ms_p50, policies_per_s", "triage-small; no change on hsieve-mid"),
    ("analysis.removed_edges", "count", "lower",
     "analyze_ms_p50, policies_per_s", "triage-small; no change on hsieve-mid"),
    ("analysis.progress_sieve_s", "s", "lower", "policies_per_s", "triage-small"),
    ("analysis.terminating_share", "share", "higher", "none (verdict mix)", "triage-small"),
    ("analysis.cap_share", "share", "lower", "none (verdict mix)", "hsieve-mid"),
    ("policyio.parse_s", "s", "lower", "policies_per_s", "triage-small"),
    ("policyio.parse_calls", "count", "lower", "policies_per_s", "triage-small"),
    ("model.normalize_s", "s", "lower", "policies_per_s", "triage-small"),
    ("model.validate_s", "s", "lower", "policies_per_s", "triage-small"),
    ("oracle.explore_s", "s", "lower",
     "policies_per_s (triage-small, per-call cost); analyze_ms_p50, "
     "analyze_ms_p90, policies_per_s, peak_rss_mb (oracle-hunt)",
     "triage-small; oracle-hunt"),
    ("oracle.explore_calls", "count", "lower", "as oracle.explore_s",
     "triage-small; oracle-hunt"),
    ("oracle.expanded", "count", "lower", "as oracle.explore_s",
     "triage-small; oracle-hunt"),
    ("oracle.value_cap_hits", "count", "lower", "as oracle.explore_s", "oracle-hunt"),
    ("oracle.config_cap_hits", "count", "lower", "as oracle.explore_s", "oracle-hunt"),
    ("oracle.inconclusive_expanded_share", "share", "lower",
     "analyze_ms_p90, policies_per_s", "oracle-hunt"),
    ("oracle.lasso_share", "share", "higher", "none (verdict mix)", "oracle-hunt"),
    ("oracle.call_ms_p50", "ms", "lower", "analyze_ms_p50 (oracle-hunt), policies_per_s",
     "triage-small (per-call cost); oracle-hunt"),
    ("oracle.call_ms_p90", "ms", "lower", "analyze_ms_p90, policies_per_s", "oracle-hunt"),
    ("oracle.configs_per_s", "1/s", "higher", "analyze_ms_p90, policies_per_s",
     "triage-small; oracle-hunt"),
    ("paths.self_share", "share", "lower", "analyze_ms_p50", "hsieve-mid"),
    ("decomposition.self_share", "share", "lower", "analyze_ms_p50", "triage-small"),
    ("graphs.self_share", "share", "lower", "analyze_ms_p50", "triage-small"),
    ("analysis.self_share", "share", "lower", "analyze_ms_p50", "triage-small"),
    ("policyio.self_share", "share", "lower", "policies_per_s", "triage-small"),
    ("model.self_share", "share", "lower", "policies_per_s", "triage-small"),
    ("oracle.self_share", "share", "lower", "analyze_ms_p50", "oracle-hunt"),
    ("trace.overhead_s", "s", "lower", "none (tracing cost)", "all"),
    ("trace.spans", "count", "lower", "none (tracing cost)", "all"),
)

# Span names a layer metric is computed from; all missing -> "not measured".
_NEEDS = {
    "paths.aggregate_s": _AGGREGATE,
    "decomposition.build_def_s": ("decomposition.build_def",),
    "decomposition.tree_nodes": ("decomposition.build_def",),
    "decomposition.quotient_s": ("decomposition.quotient",),
    "graphs.scc_decompose_s": ("graphs.scc_decompose",),
    "graphs.scc_decompose_calls": ("graphs.scc_decompose",),
    "graphs.induced_s": ("graphs.induced",),
    "graphs.boundary_s": ("graphs.boundary",),
    "analysis.loop_s": ("analysis.hsieve_once",),
    "analysis.samples": ("analysis.hsieve_once",),
    "analysis.samples_per_verdict": ("analysis.hsieve_once", "analysis.hsieve"),
    "analysis.iterations": ("analysis.hsieve_once",),
    "analysis.removed_edges": ("analysis.hsieve_once",),
    "analysis.progress_sieve_s": ("analysis.progress_sieve",),
    "policyio.parse_s": ("policyio.parse_policy",),
    "policyio.parse_calls": ("policyio.parse_policy",),
    "model.normalize_s": ("model.normalize",),
    "model.validate_s": ("model.validate",),
}
for _name in ("enumerate_s", "nodes", "summaries", "max_per_node", "cap_hits",
              "capped_summaries_share"):
    _NEEDS["paths." + _name] = ("paths.PathContext.paths",)
for _name in ("explore_s", "explore_calls", "expanded", "value_cap_hits",
              "config_cap_hits", "inconclusive_expanded_share"):
    _NEEDS["oracle." + _name] = ("oracle.explore",)


def _resolve(module: str, attr: str):
    """(owner, function) for a dotted attribute, or None if it is gone."""
    owner = sys.modules.get(module)
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    fn = getattr(owner, parts[-1], None) if owner is not None else None
    return (owner, fn) if callable(fn) else None


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: list | None = None
        self._seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._sample_marks: list[int] = []

    def _id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    # -- installing and removing wrappers --------------------------------

    def install(self) -> None:
        """Wrap every target; may be called again after uninstall()."""
        if self._wrappers is None:
            self._wrappers = self._build_wrappers()
        for owner, fn, wrapper in self._wrappers:
            if isinstance(owner, type):
                self._patch(owner, fn.__name__, wrapper)
                continue
            for mod in list(sys.modules.values()):  # every module-level reference
                if getattr(mod, "__name__", "").startswith("termsieve"):
                    for k, v in list(vars(mod).items()):
                        if v is fn:
                            self._patch(mod, k, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _build_wrappers(self) -> list:
        # span -> (namer, before, after); a namer picks the span name per call
        hooks = {
            "paths.PathContext.paths": self._paths_hooks(),
            "analysis.hsieve_once": (None, self._sample_begin, self._sample_end),
            "analysis.hsieve": (None, None, self._after_hsieve),
            "decomposition.build_def": (None, None, self._after_build_def),
            "oracle.explore": (None, None, self._after_explore),
        }
        out = []
        for span, (module, attr) in TARGETS.items():
            found = _resolve(module, attr)
            if found is None:
                self.missing.append(span)
                continue
            owner, fn = found
            namer, before, after = hooks.get(span, (None, None, None))
            nid = None if namer is not None else self._id(span)
            out.append((owner, fn, self._wrap(fn, nid, namer, before, after)))
        return out

    def _wrap(self, fn, nid, namer, before, after):
        stack, names, parents = self._stack, self.name, self.parent
        starts, ends = self.start, self.end

        def wrapper(*args, **kwargs):
            sid = namer(args) if namer is not None else nid
            if before is not None:
                before(args)
            idx = len(starts)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = perf_counter()
                stack.pop()
                if after is not None:
                    after(sid, args, None, exc)
                raise
            ends[idx] = perf_counter()
            stack.pop()
            if after is not None:
                after(sid, args, result, None)
            return result

        return wrapper

    # -- counters taken at call boundaries ---------------------------------

    def _paths_hooks(self):
        enum_id, cached_id = self._id("paths.enumerate"), self._id("paths.cached")
        seen, c = self._seen, self.counts

        def namer(args):
            ctx, node = args[0], args[1]
            nodes = seen.get(ctx)
            if nodes is None:
                nodes = seen[ctx] = set()
            if node in nodes:
                return cached_id
            nodes.add(node)
            return enum_id

        def after(sid, args, result, exc):
            if sid != enum_id:
                return
            c["paths.nodes"] += 1
            if exc is not None:
                c["paths.cap_hits"] += 1
                n = getattr(exc, "cap", 0)
            else:
                n = len(result)
            c["paths.summaries"] += n
            c["paths.max_per_node"] = max(c["paths.max_per_node"], n)

        return namer, None, after

    def _sample_begin(self, args) -> None:
        self._sample_marks.append(self.counts["paths.summaries"])

    def _sample_end(self, sid, args, report, exc) -> None:
        mark = self._sample_marks.pop()
        if report is None:
            return
        c = self.counts
        c["analysis.samples"] += 1
        its = getattr(report, "iterations", ())
        c["analysis.iterations"] += len(its)
        c["analysis.removed_edges"] += sum(len(getattr(it, "removed_edges", ())) for it in its)
        if report.verdict.detail == "resource-cap":
            c["paths.capped_summaries"] += c["paths.summaries"] - mark

    def _after_hsieve(self, sid, args, report, exc) -> None:
        if report is not None:
            self.counts["analysis.verdicts"] += 1

    def _after_build_def(self, sid, args, forest, exc) -> None:
        if forest is None:
            return
        stack = list(forest.trees)
        while stack:
            node = stack.pop()
            self.counts["decomposition.tree_nodes"] += 1
            stack.extend(node.children)

    def _after_explore(self, sid, args, res, exc) -> None:
        if res is None:
            return
        c, stats = self.counts, res.stats
        c["oracle.expanded"] += stats.get("expanded", 0)
        c["oracle.value_cap_hits"] += stats.get("value_cap_hits", 0)
        c["oracle.config_cap_hits"] += stats.get("config_cap", 0)
        if res.kind == "inconclusive":
            c["oracle.inconclusive_expanded"] += stats.get("expanded", 0)

    # -- results -------------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """Self time and call count per span name."""
        n = len(self.start)
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        child = array("d", bytes(8 * n))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        self_s, calls = Counter(), Counter()
        for i, nid in enumerate(self.name):
            self_s[self.names[nid]] += dur[i] - child[i]
            calls[self.names[nid]] += 1
        return self_s, calls

    def layer_metrics(self) -> dict:
        """The trace-derived LAYER_METRICS values; None marks "not measured"."""
        self_s, calls = self.self_times()
        c = self.counts

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        total = sum(self_s.values())
        modules = Counter()
        for name, t in self_s.items():
            modules[name.split(".", 1)[0]] += t
        values = {
            "paths.enumerate_s": self_s["paths.enumerate"],
            "paths.nodes": c["paths.nodes"],
            "paths.summaries": c["paths.summaries"],
            "paths.max_per_node": c["paths.max_per_node"],
            "paths.cap_hits": c["paths.cap_hits"],
            "paths.capped_summaries_share": ratio(c["paths.capped_summaries"],
                                                  c["paths.summaries"]),
            "paths.aggregate_s": sum(self_s[n] for n in _AGGREGATE),
            "decomposition.build_def_s": self_s["decomposition.build_def"],
            "decomposition.tree_nodes": c["decomposition.tree_nodes"],
            "decomposition.quotient_s": self_s["decomposition.quotient"],
            "graphs.scc_decompose_s": self_s["graphs.scc_decompose"],
            "graphs.scc_decompose_calls": calls["graphs.scc_decompose"],
            "graphs.induced_s": self_s["graphs.induced"],
            "graphs.boundary_s": self_s["graphs.boundary"],
            "analysis.loop_s": self_s["analysis.hsieve_once"],
            "analysis.samples": c["analysis.samples"],
            "analysis.samples_per_verdict": ratio(c["analysis.samples"],
                                                  c["analysis.verdicts"]),
            "analysis.iterations": c["analysis.iterations"],
            "analysis.removed_edges": c["analysis.removed_edges"],
            "analysis.progress_sieve_s": self_s["analysis.progress_sieve"],
            "policyio.parse_s": self_s["policyio.parse_policy"],
            "policyio.parse_calls": calls["policyio.parse_policy"],
            "model.normalize_s": self_s["model.normalize"],
            "model.validate_s": self_s["model.validate"],
            "oracle.explore_s": self_s["oracle.explore"],
            "oracle.explore_calls": calls["oracle.explore"],
            "oracle.expanded": c["oracle.expanded"],
            "oracle.value_cap_hits": c["oracle.value_cap_hits"],
            "oracle.config_cap_hits": c["oracle.config_cap_hits"],
            "oracle.inconclusive_expanded_share": ratio(
                c["oracle.inconclusive_expanded"], c["oracle.expanded"]),
            "trace.spans": len(self.start),
        }
        for module in ("paths", "decomposition", "graphs", "analysis",
                       "policyio", "model", "oracle"):
            values[f"{module}.self_share"] = ratio(modules[module], total)
        for name, needs in _NEEDS.items():
            if all(n in self.missing for n in needs):
                values[name] = None
        return values

    def write(self, path: Path) -> None:
        """Spans as a JSON header plus a binary file of four columns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        binary = path.with_suffix(".bin")
        with open(binary, "wb") as f:
            for col in (self.name, self.parent, self.start, self.end):
                col.tofile(f)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "binary": binary.name,
            "columns": [["name", "int32"], ["parent", "int64"],
                        ["start", "float64"], ["end", "float64"]],
            "byteorder": sys.byteorder,
            "not_measured": self.missing,
        }
        path.write_text(json.dumps(header))

"""Correctness checks that do not trust the engines they check.

`replay_lasso` re-executes an oracle witness step by step from the policy
document's own data (guards, effects, lower bounds). It deliberately uses no
termsieve execution semantics, so it stays an independent referee when the
engines' interpreters are rewritten or merged.
"""

from __future__ import annotations

from pathlib import Path

from termsieve import analysis, oracle, policyio, model

# (fixture, engine, expected verdict kind) for the shipped fixtures.
FIXTURE_ANSWERS = (
    ("example1", "hsieve", "terminating"),
    ("example1", "progress_sieve", "nonterminating_qualitative"),
    ("f2", "hsieve", "terminating"),
    ("f8prime", "hsieve", "terminating"),
    ("f3", "lasso_from_zero", "lasso_found"),
)


def replay_lasso(fmp, start_values, witness) -> str | None:
    """None when the witness is a real lasso from `start_values`, else why not."""
    edges = {e.id: e for e in fmp.edges}
    bounds = {v.name: v.lower_bound for v in fmp.variables}
    if witness.start.qstate != fmp.initial:
        return "lasso does not start at the initial qstate"
    if dict(witness.start.state.values) != dict(start_values):
        return "lasso does not start at the explored start state"
    seen = [(witness.start.qstate, dict(witness.start.state.values))]
    for k, (eid, cfg) in enumerate(witness.steps):
        q, vals = seen[-1]
        e = edges.get(eid)
        if e is None or e.src != q or e.dst != cfg.qstate:
            return f"step {k}: edge {eid} does not leave {q} for {cfg.qstate}"
        for var, (lo, hi) in e.guard.conjuncts.items():
            if vals[var] < lo or (hi is not None and vals[var] > hi):
                return f"step {k}: guard of {eid} fails on {var}"
        if len(e.actions) != 1:
            return f"step {k}: edge {eid} is not normalized"
        nxt = dict(vals)
        for var, delta in e.actions[0].items():
            nxt[var] += delta
        if any(nxt[var] < bounds[var] for var in nxt):
            return f"step {k}: {eid} leaves a counter below its lower bound"
        if nxt != dict(cfg.state.values):
            return f"step {k}: {eid} does not reach the recorded values"
        seen.append((cfg.qstate, nxt))
    if not 0 <= witness.cycle_start < len(seen) - 1:
        return f"cycle start {witness.cycle_start} outside the run"
    if seen[-1] != seen[witness.cycle_start]:
        return "last configuration does not close the cycle"
    return None


def load_fixture(root: Path, name: str):
    text = (root / "fixtures" / f"{name}.fmp.json").read_text()
    return model.normalize(policyio.parse_policy(text))


def check_fixtures(root: Path) -> list[str]:
    """One entry per FIXTURE_ANSWERS row whose answer is wrong (empty = all right)."""
    misses = []
    for name, engine, want in FIXTURE_ANSWERS:
        why = None
        try:
            fmp = load_fixture(root, name)
            if engine == "hsieve":
                got = analysis.hsieve(fmp).verdict.kind
            elif engine == "progress_sieve":
                got = analysis.progress_sieve(fmp).kind
            else:
                start = {x: 0 for x in fmp.var_names}
                res = oracle.explore(fmp, fmp.state(start))
                got = res.kind
                if res.witness is not None:
                    why = replay_lasso(fmp, start, res.witness)
        except Exception as exc:  # a crash is a wrong answer, not the end of the run
            got = type(exc).__name__
        if got != want or why is not None:
            misses.append(f"{name}/{engine}: want {want}, got {got}"
                          + (f" ({why})" if why else ""))
    return misses

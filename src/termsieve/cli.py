"""Command-line workbench.

Exit codes: 0 = the command ran and printed its verdict, 2 = usage or input
error. With --strict, an unknown/inconclusive outcome (or an invalid policy
for `check`) exits 1 instead of 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .analysis import (
    AnalysisConfig,
    TERMINATING,
    UNKNOWN,
    def_seed_for,
    hsieve,
    progress_sieve,
)
from .decomposition import Splits, build_def
from .dot import export_def_dot, export_dot
from .generate import GenError, GenSpec, generate_random
from .graphs import SccGraph
from .model import Fmp, normalize, validate
from .oracle import (
    ALL_HALT,
    DEFAULT_MAX_CONFIGS,
    ExploreCaps,
    INCONCLUSIVE,
    LASSO_FOUND,
    explore,
    grid_states,
    run_random,
)
from .paths import DEFAULT_PATH_CAP
from .policyio import (
    PolicyFormatError,
    atomic_write,
    load_policy,
    serialize_policy,
)


class _UsageError(Exception):
    pass


class _Unprintable(Exception):
    """A counter value past Python's digit limit for int-to-str conversion."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= {low}, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for counts and caps: an integer of at least 1."""
    return _int_at_least(text, 1)


def _nonnegative_int(text: str) -> int:
    """argparse type for value bounds: an integer of at least 0."""
    return _int_at_least(text, 0)


def _build_parser() -> _Parser:
    p = _Parser(prog="termsieve", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def policy_cmd(name: str, help_: str) -> argparse.ArgumentParser:
        c = sub.add_parser(name, help=help_)
        c.add_argument("file", help="policy document (JSON)")
        return c

    c = policy_cmd("check", "validate a policy document")
    c.add_argument("--strict", action="store_true")

    c = policy_cmd("analyze", "hierarchical termination analysis")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--def-samples", type=_positive_int, default=1)
    c.add_argument("--path-cap", type=_positive_int, default=DEFAULT_PATH_CAP)
    c.add_argument("--trace", metavar="OUT", default=None)
    c.add_argument("--emit-dot", metavar="DIR", default=None)
    c.add_argument("--strict", action="store_true")

    c = policy_cmd("sieve", "progress-variable baseline analysis")
    c.add_argument("--strict", action="store_true")

    c = policy_cmd("simulate", "one random execution")
    c.add_argument("--init", required=True, metavar="x=3,y=0")
    c.add_argument("--max-steps", type=_positive_int, default=1000)
    c.add_argument("--seed", type=int, default=0)

    c = policy_cmd("oracle", "bounded-exhaustive exploration over a start grid")
    c.add_argument("--grid-max", type=_nonnegative_int, required=True)
    c.add_argument("--max-configs", type=_positive_int,
                   default=DEFAULT_MAX_CONFIGS)
    c.add_argument("--max-value", type=_nonnegative_int, default=None)
    c.add_argument("--strict", action="store_true")

    c = sub.add_parser("generate", help="random policy")
    c.add_argument("--qstates", type=int, required=True)
    c.add_argument("--vars", type=int, required=True)
    c.add_argument("--density", type=float, required=True)
    c.add_argument("--max-delta", type=int, required=True)
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--out", default=None)

    c = policy_cmd("export-dot", "DOT rendering of the policy (or its forest)")
    c.add_argument("--def", dest="forest", action="store_true",
                   help="render the elimination forest instead")
    c.add_argument("--seed", type=int, default=0)
    return p


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _load_valid(path: str) -> Fmp:
    fmp = load_policy(path)
    violations = validate(fmp)
    if violations:
        for v in violations:
            print(f"error: violation code={v.code} where={v.where}", file=sys.stderr)
        raise PolicyFormatError("invalid-policy", path, f"{len(violations)} violations")
    return normalize(fmp)


def _values_str(fmp: Fmp, values) -> str:
    parts = []
    for x in fmp.var_names:
        try:
            parts.append(f"{x}={values[x]}")
        except ValueError:
            raise _Unprintable(
                f"value of {x} has more than {sys.get_int_max_str_digits()} "
                "digits, too many to print") from None
    return " ".join(parts)


def _cmd_check(args) -> int:
    fmp = load_policy(args.file)
    violations = validate(fmp)
    for v in violations:
        print(f"violation code={v.code} where={v.where}")
    print(f"valid={'true' if not violations else 'false'}")
    if violations and args.strict:
        return 1
    return 0


def _cmd_analyze(args) -> int:
    fmp = _load_valid(args.file)
    cfg = AnalysisConfig(
        def_samples=args.def_samples, base_seed=args.seed, path_cap=args.path_cap
    )
    report = hsieve(fmp, cfg)
    if args.trace:
        try:
            text = json.dumps(report.to_trace_dict(), indent=2, sort_keys=True)
        except RecursionError:
            return _fail("the trace nests too deeply to write as JSON")
        atomic_write(args.trace, text + "\n")
    if args.emit_dot:
        os.makedirs(args.emit_dot, exist_ok=True)
        atomic_write(os.path.join(args.emit_dot, "policy.dot"), export_dot(fmp))
        for k, it in enumerate(report.iterations):
            atomic_write(
                os.path.join(args.emit_dot, f"def_{k:03d}.dot"),
                export_def_dot(it.forest),
            )
    print(
        f"verdict={report.verdict.kind} iterations={len(report.iterations)} "
        f"detail={report.verdict.detail} samples={len(report.seeds)} "
        f"wall_ms={report.wall_ms}"
    )
    if args.strict and report.verdict.kind == UNKNOWN:
        return 1
    return 0


def _cmd_sieve(args) -> int:
    fmp = _load_valid(args.file)
    verdict = progress_sieve(fmp)
    print(f"verdict={verdict.kind} detail={verdict.detail}")
    if args.strict and verdict.kind != TERMINATING:
        return 1
    return 0


def _parse_init(fmp: Fmp, text: str) -> dict[str, int]:
    values = dict(fmp.bounds)
    given: set[str] = set()
    if text.strip():
        for item in text.split(","):
            if "=" not in item:
                raise _UsageError(f"bad --init item: {item!r}")
            var, _, raw = item.partition("=")
            var = var.strip()
            if var not in values:
                raise _UsageError(f"unknown variable in --init: {var!r}")
            if var in given:
                raise _UsageError(f"repeated variable in --init: {var!r}")
            given.add(var)
            try:
                values[var] = int(raw)
            except ValueError:
                raise _UsageError(f"bad integer in --init: {raw!r}")
    return values


def _cmd_simulate(args) -> int:
    fmp = _load_valid(args.file)
    values = _parse_init(fmp, args.init)
    try:
        s0 = fmp.state(values)
    except ValueError as exc:
        return _fail(str(exc))
    trace = run_random(fmp, s0, max_steps=args.max_steps, seed=args.seed)
    cur_q, cur_vals = fmp.initial, values
    for i, (eid, cfg) in enumerate(trace.steps, start=1):
        cur_q, cur_vals = cfg.qstate, cfg.state.values
        print(f"step={i} edge={eid} qstate={cur_q} {_values_str(fmp, cur_vals)}")
    print(
        f"halted={'true' if trace.halted else 'false'} steps={len(trace.steps)} "
        f"qstate={cur_q} {_values_str(fmp, cur_vals)}"
    )
    return 0


def _cmd_oracle(args) -> int:
    fmp = _load_valid(args.file)
    caps = ExploreCaps(max_configs=args.max_configs, max_value=args.max_value)
    # one start at a time, keeping the first lasso's witness and no other
    counts = {ALL_HALT: 0, LASSO_FOUND: 0, INCONCLUSIVE: 0}
    goals: list[float] = []
    lasso = None
    for s0 in grid_states(fmp, args.grid_max):
        res = explore(fmp, s0, caps)
        counts[res.kind] += 1
        if res.goal_report is not None:
            goals.append(res.goal_report)
        if lasso is None and res.kind == LASSO_FOUND:
            lasso = s0, res.witness
        del res  # so a later lasso's witness is gone before the next start
    overall = (
        LASSO_FOUND if counts[LASSO_FOUND]
        else (INCONCLUSIVE if counts[INCONCLUSIVE] else ALL_HALT)
    )
    line = (
        f"oracle={overall} starts={sum(counts.values())} "
        f"all_halt={counts[ALL_HALT]} "
        f"lasso={counts[LASSO_FOUND]} inconclusive={counts[INCONCLUSIVE]}"
    )
    if goals:
        line += f" goal_fraction={sum(goals) / len(goals):.4f}"
    print(line)
    if lasso is not None:
        witness_start, witness = lasso
        print(f"witness start qstate={fmp.initial} "
              f"{_values_str(fmp, witness_start.values)}")
        for eid, cfg in witness.steps:
            print(f"witness step edge={eid} qstate={cfg.qstate} "
                  f"{_values_str(fmp, cfg.state.values)}")
        print(f"witness cycle_start={witness.cycle_start}")
    if args.strict and overall == INCONCLUSIVE:
        return 1
    return 0


def _cmd_generate(args) -> int:
    spec = GenSpec(
        n_qstates=args.qstates,
        n_vars=args.vars,
        edge_density=args.density,
        max_abs_delta=args.max_delta,
        seed=args.seed,
    )
    fmp = generate_random(spec)
    text = serialize_policy(fmp)
    if args.out:
        atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_export_dot(args) -> int:
    fmp = _load_valid(args.file)
    if args.forest:
        arcs = [(e.id, e.src, e.dst) for e in fmp.edges]
        forest = build_def(Splits(SccGraph(fmp.qstates, arcs)),
                           def_seed_for(args.seed, 0))
        sys.stdout.write(export_def_dot(forest))
    else:
        sys.stdout.write(export_dot(fmp))
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "analyze": _cmd_analyze,
    "sieve": _cmd_sieve,
    "simulate": _cmd_simulate,
    "oracle": _cmd_oracle,
    "generate": _cmd_generate,
    "export-dot": _cmd_export_dot,
}


def cli_dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        return _fail(str(exc))
    except PolicyFormatError as exc:
        if exc.code == "invalid-policy":
            return 2  # violations already printed
        return _fail(str(exc))
    except (GenError, OSError, _Unprintable) as exc:
        return _fail(str(exc))


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

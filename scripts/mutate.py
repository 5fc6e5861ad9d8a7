"""Mutation testing with the standard library: flip one operator, run tests.

Usage (from the repository root):

    python3 scripts/mutate.py src/termsieve/generate.py tests/test_generate.py
    python3 scripts/mutate.py src/termsieve/paths.py tests --timeout 300
    python3 scripts/mutate.py src/termsieve/generate.py --list

Each site is one operator of the target file: a comparison (`<` and `<=`,
`>` and `>=`, `==` and `!=`, `is` and `is not`, `in` and `not in` swap), a
boolean operator (every `and` of one expression becomes `or`, or the other
way round) or an arithmetic one (`+` and `-`, `*` and `//`, `&` and `|`,
`<<` and `>>` swap; `/`, `%`, `^` and `**` become `*`, `//`, `|` and `*`),
augmented assignments included. Operators inside annotations are skipped,
since under `from __future__ import annotations` they are never evaluated,
and so are those inside f-strings, which tokenize as one string.

The repository is copied once into a scratch directory. For each site, one
after another, the copy's target file gets that one operator swapped in its
text, and `python -m pytest -x` runs against the copy. When the target's
own test file, `tests/test_<stem>.py`, lies under the named tests, it runs
first, and the named tests run only on a mutant that survives it; a unit
test so kills most mutants before a slow acceptance test is reached. Each
run has its own time limit and memory limit per mutant, derived from the
same run on the unmutated copy. The memory limit caps the address space of
the test process at three times the peak resident size of the unmutated
run plus 256 MiB; the unmutated tests must pass under it too before any
mutant runs. A mutant is killed when a test fails (or the tests cannot be
collected), runs out of memory when it raises MemoryError at the limit,
survives when every run passes, and times out when it hits the time limit;
each line of the report gives the site, the swap, the outcome and the run
that ended it, and a summary follows. The exit status is 1 if any mutant
survived.

Sites argued to be equivalent mutants are listed in
scripts/mutate_equivalent.txt, one per line as the report writes it, then
` # ` and the argument. The script skips a listed site of the target and
reports it as skipped with its argument; a listed site that the target no
longer holds is an error (exit status 2), reported before any test runs.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EQUIVALENT = Path("scripts") / "mutate_equivalent.txt"  # under ROOT

COMPARE = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
           ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
           ast.Is: ("is", "is not"), ast.IsNot: ("is not", "is"),
           ast.In: ("in", "not in"), ast.NotIn: ("not in", "in")}
BOOL = {ast.And: ("and", "or"), ast.Or: ("or", "and")}
ARITH = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "//"),
         ast.FloorDiv: ("//", "*"), ast.Div: ("/", "*"), ast.Mod: ("%", "//"),
         ast.BitAnd: ("&", "|"), ast.BitOr: ("|", "&"), ast.BitXor: ("^", "|"),
         ast.LShift: ("<<", ">>"), ast.RShift: (">>", "<<"),
         ast.Pow: ("**", "*")}


@dataclass(frozen=True)
class Site:
    line: int  # 1-based line and 0-based column of the operator's first token
    col: int
    old: str
    new: str
    spans: tuple[tuple[int, int], ...]  # source offsets of each operator's tokens

    def __str__(self) -> str:
        return f"{self.line}:{self.col} {self.old} -> {self.new}"


def _skipped_ids(tree: ast.AST) -> set[int]:
    """The ids of every node inside an annotation or an f-string."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            roots.append(node)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(n) for root in roots for n in ast.walk(root)}


def _operators(tree: ast.AST):
    """(operator text, swap, [(left, right), ...]) per site: each of the
    site's operators lies between the end of a left and the start of its
    right node. A boolean expression's connectors are one site."""
    skip = _skipped_ids(tree)
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, a, b in zip(node.ops, operands, operands[1:]):
                yield (*COMPARE[type(op)], [(a, b)])
        elif isinstance(node, ast.BoolOp):
            yield (*BOOL[type(node.op)], list(zip(node.values, node.values[1:])))
        elif isinstance(node, ast.BinOp) and type(node.op) in ARITH:
            yield (*ARITH[type(node.op)], [(node.left, node.right)])
        elif isinstance(node, ast.AugAssign) and type(node.op) in ARITH:
            old, new = ARITH[type(node.op)]
            yield old + "=", new + "=", [(node.target, node.value)]


def find_sites(source: str) -> list[Site]:
    """Every mutable operator of `source`, in source order."""
    lines = source.splitlines(keepends=True)
    starts = [0]
    for text in lines:
        starts.append(starts[-1] + len(text))

    def offset(line: int, byte_col: int) -> int:
        # ast columns count UTF-8 bytes, tokenize's count characters
        return starts[line - 1] + len(lines[line - 1].encode()[:byte_col].decode())

    tokens = [(starts[t.start[0] - 1] + t.start[1],
               starts[t.end[0] - 1] + t.end[1], t.string, t.start)
              for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type in (tokenize.OP, tokenize.NAME)]

    def span(a: ast.AST, b: ast.AST, words: list[str]) -> tuple:
        lo = offset(a.end_lineno, a.end_col_offset)
        hi = offset(b.lineno, b.col_offset)
        between = [t for t in tokens if lo <= t[0] and t[1] <= hi]
        for k in range(len(between) - len(words) + 1):
            run = between[k:k + len(words)]
            if [t[2] for t in run] == words:
                return run[0][0], run[-1][1], run[0][3]
        raise ValueError(f"no {' '.join(words)!r} at offsets {lo}-{hi}")

    sites = []
    for old, new, pairs in _operators(ast.parse(source)):
        found = [span(a, b, old.split()) for a, b in pairs]
        (line, col) = found[0][2]
        sites.append(Site(line, col, old, new,
                          tuple((lo, hi) for lo, hi, _ in found)))
    return sorted(sites, key=lambda s: s.spans)


def listed_equivalent(listing: str, target: Path,
                      sites: list[Site]) -> dict[Site, str]:
    """The sites of `target` that `listing` argues equivalent, each with its
    argument. Raises ValueError on a malformed line, or on a listed site of
    `target` that is not among `sites`."""
    by_text = {str(site): site for site in sites}
    found = {}
    for n, line in enumerate(listing.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, why = line.partition(" # ")
        path, _, where = head.partition(":")
        if not why.strip() or not where:
            raise ValueError(f"line {n}: not '<path>:<line>:<col> <old> -> "
                             f"<new> # <argument>': {line}")
        if Path(path) != target:
            continue
        site = by_text.get(" ".join(where.split()))
        if site is None:
            raise ValueError(f"line {n}: {head.strip()} is not a site of "
                             f"{target}")
        found[site] = why.strip()
    return found


def mutate(source: str, site: Site) -> str:
    """`source` with the site's operators replaced by their swap."""
    for lo, hi in reversed(site.spans):
        source = source[:lo] + site.new + source[hi:]
    return source


def _run(cmd: list[str], cwd: Path, env: dict, timeout: float,
         memory: int | None = None) -> tuple[str, float]:
    """Run `cmd` with at most `timeout` seconds and, if given, `memory`
    bytes of address space, set in the child alone before it execs."""
    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    t0 = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=cwd, env=env, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              preexec_fn=cap if memory else None)
    except subprocess.TimeoutExpired:
        return "timed out", time.perf_counter() - t0
    # pytest: 0 all passed, 1 a test failed, 2 collection failed or was
    # interrupted; anything else is a usage or internal error
    if done.returncode and b"MemoryError" in done.stdout:
        outcome = "out of memory"
    else:
        outcome = {0: "survived", 1: "killed", 2: "killed"}.get(
            done.returncode, "error")
    return outcome, time.perf_counter() - t0


def run_plan(target: Path, tests: list[str], root: Path) -> list[list[str]]:
    """The pytest runs for each mutant, in order: the target's own test
    file alone when it lies under `tests` and is not all of them, then
    `tests` as named."""
    own = Path("tests") / f"test_{target.stem}.py"
    found = (root / own).resolve()
    named = [(root / t).resolve() for t in tests]
    if found.is_file() and named != [found] and any(
            t == found or t in found.parents for t in named):
        return [[str(own)], tests]
    return [tests]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("target", help="the file to mutate, relative to the repository root")
    ap.add_argument("tests", nargs="*", default=["tests"],
                    help="test files or directories for pytest (default: tests)")
    ap.add_argument("--timeout", type=float, default=None,
                    help="seconds per run of a mutant (default: 5 times the "
                         "same unmutated run, at least 10)")
    ap.add_argument("--list", action="store_true",
                    help="print the sites and stop")
    args = ap.parse_args(argv)

    # relative to the root, however given, so that the scratch copy's file
    # is the one mutated and the listed sites are matched
    target = (ROOT / args.target).resolve().relative_to(ROOT)
    source = (ROOT / target).read_text(encoding="utf-8")
    sites = find_sites(source)
    if args.list:
        for site in sites:
            print(f"{target}:{site}")
        print(f"{len(sites)} sites")
        return 0

    try:
        equivalent = listed_equivalent(
            (ROOT / EQUIVALENT).read_text(encoding="utf-8"), target, sites)
    except ValueError as exc:
        print(f"{EQUIVALENT}: {exc}")
        return 2
    print(f"{len(sites)} sites in {target}, {len(equivalent)} listed as "
          "equivalent", flush=True)
    tally: dict[str, int] = {}
    for site in sites:
        if site in equivalent:
            tally["skipped"] = tally.get("skipped", 0) + 1
            print(f"{target}:{site}  skipped, listed as equivalent: "
                  f"{equivalent[site]}")
    todo = [site for site in sites if site not in equivalent]
    if not todo:
        print(", ".join(f"{n} {k}" for k, n in sorted(tally.items())))
        return 0

    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        work = Path(tmp) / "repo"
        shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis",
            ".bench_out", ".benchmarks"))
        env = dict(os.environ, PYTHONPATH=str(work / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        runs = []
        for tests in run_plan(target, args.tests, ROOT):
            label = " ".join(tests)
            cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p",
                   "no:cacheprovider", *tests]
            outcome, base = _run(cmd, work, env, 3600)
            if outcome != "survived":
                print(f"the unmutated {label} did not pass ({outcome})")
                return 2
            # ru_maxrss is in KiB, and the largest of any child so far: the
            # own test file runs first, and the named tests hold it. The
            # address space also holds what is mapped but not resident,
            # about 130 MiB for a pytest run
            peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
            memory = 3 * peak + (256 << 20)
            timeout = args.timeout or max(10.0, 5 * base)
            outcome, _ = _run(cmd, work, env, 3600, memory)
            if outcome != "survived":
                print(f"the unmutated {label} did not pass under the "
                      f"{memory >> 20} MiB limit ({outcome})")
                return 2
            print(f"run {label}: unmutated {base:.1f} s and {peak >> 20} MiB, "
                  f"limits {timeout:.0f} s and {memory >> 20} MiB per mutant",
                  flush=True)
            runs.append((label, cmd, timeout, memory))
        for site in todo:
            (work / target).write_text(mutate(source, site), encoding="utf-8")
            took = 0.0
            for label, cmd, timeout, memory in runs:
                outcome, spent = _run(cmd, work, env, timeout, memory)
                took += spent
                if outcome != "survived":
                    break
            tally[outcome] = tally.get(outcome, 0) + 1
            print(f"{target}:{site}  {outcome} in {label} ({took:.1f} s)",
                  flush=True)
        (work / target).write_text(source, encoding="utf-8")
    print(", ".join(f"{n} {k}" for k, n in sorted(tally.items())))
    return 1 if tally.get("survived") else 0


if __name__ == "__main__":
    sys.exit(main())

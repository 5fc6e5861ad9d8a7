"""Graphviz DOT renderings of policies and elimination forests."""

from __future__ import annotations

from .decomposition import DefForest, DetNode
from .model import Edge, Fmp, effect_str


def _q(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _edge_label(e: Edge) -> str:
    if not e.actions:
        body = "(no action)"
    else:
        body = " | ".join(effect_str(a) or "skip" for a in e.actions)
    parts = [f"{e.id}: {body}"]
    if e.guard.conjuncts:
        cs = []
        for var, (lo, hi) in sorted(e.guard.conjuncts.items()):
            cs.append(f"{var}>={lo}" if hi is None else f"{var} in [{lo},{hi}]")
        parts.append("[" + " & ".join(cs) + "]")
    if e.label:
        parts.append(f"({e.label})")
    return " ".join(parts)


def export_dot(fmp: Fmp) -> str:
    """The policy's control graph; initial marked by an entry point,
    terminal states double-circled."""
    lines = ["digraph policy {", "  rankdir=LR;", '  __start [shape=point, label=""];']
    terminal = set(fmp.terminal)
    for q in fmp.qstates:
        shape = "doublecircle" if q in terminal else "circle"
        lines.append(f"  {_q(q)} [shape={shape}];")
    lines.append(f"  __start -> {_q(fmp.initial)};")
    for e in fmp.edges:
        lines.append(f"  {_q(e.src)} -> {_q(e.dst)} [label={_q(_edge_label(e))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_def_dot(forest: DefForest) -> str:
    """The forest as boxes labeled (vertex set, elimination vertex)."""
    lines = ["digraph def_forest {", "  node [shape=box];"]
    counter = 0
    # preorder, so boxes are numbered as a recursive visit numbers them
    stack: list[tuple[DetNode, str | None]] = [
        (tree, None) for tree in reversed(forest.trees)]
    while stack:
        node, parent = stack.pop()
        nid = f"d{counter}"
        counter += 1
        label = "({" + ",".join(sorted(node.vertices)) + "}, " + node.elim + ")"
        lines.append(f"  {nid} [label={_q(label)}];")
        if parent is not None:
            lines.append(f"  {parent} -> {nid};")
        stack.extend((c, nid) for c in reversed(node.children))
    lines.append("}")
    return "\n".join(lines) + "\n"

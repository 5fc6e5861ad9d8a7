"""DOT export for policies and elimination forests."""
from termsieve.dot import export_def_dot, export_dot
from termsieve.model import Edge, Fmp, Guard, VarDecl
from termsieve.policyio import load_policy

from helpers import FIXTURES, draw_forest, policy_graph


def test_policy_dot_shape():
    f = load_policy(FIXTURES / "example1.fmp.json")
    text = export_dot(f)
    assert text.startswith("digraph policy {")
    assert text.endswith("}\n")
    assert '__start -> "q0";' in text
    assert '"q0" -> "q1" [label="e1: x-1"];' in text
    assert text == export_dot(f)  # stable


def test_guard_and_label_rendering():
    f = Fmp(
        variables=(VarDecl("x"), VarDecl("y")),
        qstates=("q0", "end"),
        initial="q0",
        edges=(
            Edge("e1", "q0", "q0", actions=({"x": -1, "y": 2},),
                 guard=Guard({"x": (1, None), "y": (0, 3)}),
                 label="work"),
            Edge("e2", "q0", "end"),
            Edge(id="e3", src="q0", dst="end", actions=()),
            Edge(id="e4", src="q0", dst="q0",
                 actions=({"x": 1}, {"x": -1})),
        ),
        terminal=("end",),
    )
    text = export_dot(f)
    assert 'label="e1: x-1,y+2 [x>=1 & y in [0,3]] (work)"' in text
    assert 'label="e2: skip"' in text
    assert 'label="e3: (no action)"' in text
    assert 'label="e4: x+1 | x-1"' in text
    assert '"end" [shape=doublecircle];' in text
    assert '"q0" [shape=circle];' in text


def test_def_dot_shape():
    f = load_policy(FIXTURES / "f3.fmp.json")
    forest = draw_forest(policy_graph(f), 0)
    text = export_def_dot(forest)
    assert text.startswith("digraph def_forest {")
    assert 'd0 [label="({q0,q1}, q1)"];' in text
    assert 'd1 [label="({q0}, q0)"];' in text
    assert "d0 -> d1;" in text


def test_def_dot_empty_forest():
    f = Fmp(variables=(VarDecl("x"),), qstates=("q0", "q1"), initial="q0",
            edges=(Edge("e1", "q0", "q1"),))
    text = export_def_dot(draw_forest(policy_graph(f), 0))
    assert text == 'digraph def_forest {\n  node [shape=box];\n}\n'


def test_quoting():
    f = Fmp(variables=(VarDecl("x"),), qstates=('q"0',), initial='q"0',
            edges=())
    assert '"q\\"0"' in export_dot(f)

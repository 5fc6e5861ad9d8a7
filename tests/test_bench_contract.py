"""The benchmark tracer wraps library functions by name, from outside.

A wrapped function that is deleted or renamed turns its per-layer metrics
into null in the traced bench run; this test fails first.
"""
import importlib
import importlib.util
import inspect
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

# folded into paths.var_sets; their metric reads only boxminus
GONE = {"paths.build_inc_vars", "paths.subtree_pdv", "paths.build_dec_vars"}

# the string-keyed referees on `graphs.DiGraph`: no engine calls them, and
# they stay in src/ only because the tracer wraps them by name
REFEREES = {"graphs.scc_decompose", "graphs.induced", "graphs.boundary",
            "decomposition.quotient"}
# the modules on the engines' and the CLI's path
ENGINES = ("analysis", "cli", "paths", "oracle", "dot")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracing = load_tracing()
    for module, _ in tracing.TARGETS.values():
        importlib.import_module(module)
    missing = {span for span, (module, attr) in tracing.TARGETS.items()
               if tracing._resolve(module, attr) is None}
    assert missing <= GONE


def takes_digraph(fn) -> bool:
    sig = inspect.signature(fn)
    return any("DiGraph" in str(ann) for ann in [
        sig.return_annotation, *(p.annotation for p in sig.parameters.values())])


def test_string_keyed_remainder_is_what_the_tracer_pins():
    tracing = load_tracing()
    pinned = {}
    for span in sorted(REFEREES):
        module, name = span.split(".")
        assert tracing.TARGETS.get(span) == ("termsieve." + module, name), (
            f"{span} is no longer traced: move it into tests/helpers.py")
        pinned[name] = getattr(importlib.import_module("termsieve." + module),
                               name)
    found = set()
    for module in ("graphs", "decomposition"):
        mod = importlib.import_module("termsieve." + module)
        found |= {f"{module}.{name}" for name, fn in vars(mod).items()
                  if inspect.isfunction(fn) and fn.__module__ == mod.__name__
                  and takes_digraph(fn)}
    assert found == REFEREES
    graphs = importlib.import_module("termsieve.graphs")
    names = {"DiGraph", "policy_graph", *pinned}
    objects = [graphs.DiGraph, *pinned.values()]
    for module in ENGINES:
        attrs = vars(importlib.import_module("termsieve." + module))
        assert not names & set(attrs), module
        assert not any(v is obj for v in attrs.values() for obj in objects), (
            module)

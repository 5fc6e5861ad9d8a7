"""The benchmark tracer wraps library functions by name, from outside.

A wrapped function that is deleted or renamed turns its per-layer metrics
into null in the traced bench run; this test fails first.
"""
import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

# folded into paths.var_sets; their metric reads only boxminus
GONE = {"paths.build_inc_vars", "paths.subtree_pdv", "paths.build_dec_vars"}


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

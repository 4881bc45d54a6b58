"""The benchmark tracer wraps betafluct functions by their dotted names; a
rename in the package must not silently drop a benchmark metric."""

import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
# Bindings of code paths the package no longer has; the tracer reports them
# as absent.
STALE = {
    "betafluct.stats.MomentAccumulator.merge_in",
    "betafluct.stats.sample_tridiagonal",
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_bindings_resolve():
    tracer = _load_tracer()
    absent = set()
    for binding, *_ in tracer.BOUNDARIES:
        try:
            tracer.resolve(binding)
        except LookupError:
            absent.add(binding)
    assert absent <= STALE

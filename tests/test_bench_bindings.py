"""The benchmark tracer wraps betafluct functions by their dotted names; a
rename in the package must not silently drop a benchmark metric."""

import importlib.util
import pathlib

import numpy as np

from betafluct import gaussian, stats

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


def test_tracer_counts_prufer_steps():
    # the work formula reads _final_phases' (C, J) block and its K levels
    tracer = _load_tracer().Tracer()
    c, depth, k = 5, 7, 3
    gamma, eta = stats._stack_draws(2.0, depth + 1, 1, range(c))
    tracer.install()
    try:
        counts = stats._count_arcs_block(gamma, eta, depth + 1, np.linspace(0.5, 4.0, k))
    finally:
        tracer.uninstall()
    assert counts.shape == (c, k)
    assert tracer.counters["circular.prufer_steps"] == c * k * depth


def test_tracer_counts_sturm_steps():
    # the work formula reads _sturm_block's (C, n) diagonal and the last
    # axis of its (K,) or (C, K) levels, through both bindings
    c, n, k = 5, 9, 3
    diag, offdiag = stats._stack_models(2.0, n, 1, range(c))
    tracer_module = _load_tracer()
    for module, levels in (
        (stats, np.linspace(-2.0, 2.0, k)),
        (gaussian, np.linspace(-2.0, 2.0, c * k).reshape(c, k)),
    ):
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            counts = module._sturm_block(diag, offdiag, levels)
        finally:
            tracer.uninstall()
        assert counts.shape == (c, k)
        assert tracer.counters["gaussian.sturm_steps"] == c * k * n


def test_tracer_counts_sweep_steps():
    # the work formula reads _sweep_counts_block's (C, n) diagonal and its
    # levels; each side of the split ends in one lift, which the tracer sees
    # through the binding betafluct.gaussian._lift_affine
    c, n, k = 5, 9, 3
    diag, offdiag = stats._stack_models(2.0, n, 1, range(c))
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        counts, flags = gaussian._sweep_counts_block(
            diag, offdiag, np.linspace(-2.0, 2.0, c * k).reshape(c, k), n // 2
        )
    finally:
        tracer.uninstall()
    assert counts.shape == flags.shape == (c, k)
    assert tracer.counters["gaussian.sweep_steps"] == c * k * n
    assert tracer.counters["circlemap.lift_calls"] == 2


def test_tracer_counts_a_traced_cross_check():
    # the tracer replaces gaussian.RngStream with a wrapper function; the
    # cross-check draws its one block from one stream, and the counts match
    # an untraced run
    c, n, k = 5, 9, 3
    untraced = gaussian.verify_counts(2.0, n, c, k, 1)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        traced = gaussian.verify_counts(2.0, n, c, k, 1)
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert tracer.counters["rng.streams"] == 1
    for key in ("gaussian.sturm_steps", "gaussian.sweep_steps"):
        assert tracer.counters[key] == c * k * n

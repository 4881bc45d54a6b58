"""Outside-in tracer: spans and work counters at betafluct's layer boundaries.

Each boundary is a module-level callable named as the *calling* module sees
it (``betafluct.stats._stack_draws`` is the binding ``variance_scan`` uses),
so wrapping it times exactly the calls that cross into the next layer without
touching the package's source. A binding that no longer resolves, for
example after a rename, is reported as absent instead of failing the run.

Spans (name, parent, start, end) stay in memory and are written out when the
traced call ends. A layer's self time is its spans' durations minus the
durations of their direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array

import numpy as np


def _c_k(block, levels):
    """Rows of a (C, depth) block and the level count K of a (K,) or (C, K) array."""
    return np.shape(block)[0], np.shape(np.atleast_1d(levels))[-1]


def _prufer_work(args, kwargs, result):
    gamma, thetas = args[0], args[1]
    c, depth = np.shape(np.atleast_2d(gamma))
    k = np.size(thetas)
    # Computed from array sizes, not measured: the complex block is read once
    # and split into three real (C, depth) arrays; each step then reads three
    # coefficient columns and reads and writes the (C, K) phase matrix.
    moved = c * depth * (16 + 3 * 8) + depth * (3 * c * 8 + 2 * c * k * 8)
    return {"circular.prufer_steps": c * k * depth, "circular.prufer_bytes_computed": moved}


def _sturm_work(args, kwargs, result):
    c, k = _c_k(args[0], args[2])
    return {"gaussian.sturm_steps": c * k * np.shape(args[0])[1]}


def _sweep_work(args, kwargs, result):
    # forward over ell rows plus backward over n - ell rows: n transfer steps
    c, k = _c_k(args[0], args[2])
    return {
        "gaussian.sweep_steps": c * k * np.shape(args[0])[1],
        "gaussian.flagged": int(np.count_nonzero(result[1])),
    }


def _count(key):
    return lambda args, kwargs, result: {key: 1}


def _replicas(key):
    return lambda args, kwargs, result: {key: len(args[3])}


# (binding, layer, metric family, work counter). The layer is the module that
# defines the callee; the family groups bindings whose spans sum into one
# per-layer time metric.
BOUNDARIES = (
    ("betafluct.cli.main", "cli", None, None),
    ("betafluct.cli._emit_table", "cli", "cli.emit", None),
    ("betafluct.cli.variance_scan", "stats", None, None),
    ("betafluct.cli.verify_counts", "gaussian", None, None),
    ("betafluct.stats.regularity_profile", "stats", None, None),
    ("betafluct.stats._run_ordered", "stats", "stats.pool",
     lambda args, kwargs, result: {"stats.tasks": len(args[1])}),
    ("betafluct.stats.ProcessPoolExecutor", "stats", "stats.pool_start",
     _count("stats.pools_started")),
    ("betafluct.stats.bootstrap_variance_ci", "stats", "stats.bootstrap", None),
    ("betafluct.stats._merge_histograms", "stats", "stats.merge", None),
    ("betafluct.stats.MomentAccumulator.merge_in", "stats", "stats.merge", None),
    ("betafluct.stats._stack_draws", "circular", "circular.sample",
     _replicas("circular.replicas")),
    ("betafluct.stats._count_arcs_block", "circular", "circular.count", None),
    ("betafluct.stats._final_phases", "circular", "circular.prufer", _prufer_work),
    ("betafluct.circular._final_phases", "circular", "circular.prufer", _prufer_work),
    ("betafluct.circular.sample_verblunsky", "circular", None, None),
    ("betafluct.circular.RngStream", "rng", "rng.stream", _count("rng.streams")),
    ("betafluct.circular.beta_1s_sample", "rng", None, None),
    ("betafluct.stats._stack_models", "stats", "gaussian.sample",
     _replicas("gaussian.replicas")),
    ("betafluct.stats.sample_tridiagonal", "gaussian", None, None),
    ("betafluct.stats.RngStream", "rng", "rng.stream", _count("rng.streams")),
    ("betafluct.stats._sturm_block", "gaussian", "gaussian.sturm", _sturm_work),
    ("betafluct.gaussian.RngStream", "rng", "rng.stream", _count("rng.streams")),
    ("betafluct.gaussian.gaussian_sample", "rng", None, None),
    ("betafluct.gaussian.chi_sample", "rng", None, None),
    ("betafluct.gaussian.sample_tridiagonal", "gaussian", "gaussian.sample",
     _count("gaussian.replicas")),
    ("betafluct.gaussian._sturm_block", "gaussian", "gaussian.sturm", _sturm_work),
    ("betafluct.gaussian._sweep_counts_block", "gaussian", "gaussian.sweep", _sweep_work),
    ("betafluct.gaussian._lift_affine", "circlemap", "circlemap.lift",
     _count("circlemap.lift_calls")),
)

LAYERS = ("rng", "circular", "circlemap", "gaussian", "stats", "cli")
COUNTERS = (
    "rng.streams", "circular.replicas", "circular.prufer_steps",
    "circular.prufer_bytes_computed", "gaussian.replicas", "gaussian.sturm_steps",
    "gaussian.sweep_steps", "gaussian.flagged", "circlemap.lift_calls", "stats.tasks",
    "stats.pools_started",
)


def resolve(binding: str):
    """(owner object, attribute, value) for a dotted binding; raises LookupError."""
    parts = binding.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                raise LookupError(f"{binding}: {attr} not found")
        if not hasattr(owner, parts[-1]):
            raise LookupError(f"{binding}: {parts[-1]} not found")
        return owner, parts[-1], getattr(owner, parts[-1])
    raise LookupError(f"{binding}: module not importable")


class Tracer:
    """Installs span-recording wrappers on every resolvable boundary."""

    def __init__(self):
        self.names = [b[0] for b in BOUNDARIES]
        self.name_idx = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.absent = {}
        self._stack = []
        self._installed = []

    def _wrap(self, idx, fn, work):
        stack, names, parent, start, end = (
            self._stack, self.name_idx, self.parent, self.start, self.end)
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(idx)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if work is not None:
                for key, value in work(args, kwargs, result).items():
                    counters[key] += int(value)
            return result

        return traced

    def install(self) -> None:
        for idx, (binding, _layer, _family, work) in enumerate(BOUNDARIES):
            try:
                owner, attr, fn = resolve(binding)
            except LookupError as exc:
                self.absent[binding] = str(exc)
                continue
            self._installed.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(idx, fn, work))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "name": list(self.name_idx),
                "parent": list(self.parent),
                "start": list(self.start),
                "end": list(self.end),
            }, fh)

    def summary(self) -> dict:
        """Span totals per family, self time per layer and inclusive time per binding."""
        name = np.frombuffer(self.name_idx, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        by_binding = np.bincount(name, weights=dur, minlength=len(BOUNDARIES))
        self_by_binding = np.bincount(name, weights=own, minlength=len(BOUNDARIES))
        families, layers = {}, dict.fromkeys(LAYERS, 0.0)
        for idx, (binding, layer, family, _work) in enumerate(BOUNDARIES):
            if family is not None:
                families[family] = families.get(family, 0.0) + float(by_binding[idx])
            layers[layer] += float(self_by_binding[idx])
        return {
            "families": families,
            "self_s": layers,
            "inclusive_s": {b[0]: float(t) for b, t in zip(BOUNDARIES, by_binding) if t > 0},
            "spans": int(dur.size),
        }


def absent_groups(absent: dict) -> dict:
    """Metric families and layers ('<layer>.self') none of whose bindings
    resolved, with the reasons."""
    reasons = {}
    for binding, layer, family, _work in BOUNDARIES:
        for group in (family, f"{layer}.self"):
            if group is not None:
                reasons.setdefault(group, []).append(absent.get(binding))
    return {group: "; ".join(rs) for group, rs in reasons.items() if all(rs)}

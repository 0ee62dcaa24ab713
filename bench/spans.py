"""Spans recorded from outside the package by wrapping module attributes.

A Tracer replaces named module attributes (for example `engine.step`) with
wrappers that record one span per call: (name, start, end, parent index,
tag). Calls made through the module's global namespace, such as `solve`
calling `step`, go through the wrapper too, so the span tree follows the
real call tree. A target that no longer exists is reported in `absent`
instead of failing, so refactors inside the package cannot break the
benchmark; the metrics that depend on it read 0.
"""
from __future__ import annotations

import importlib
import statistics
import sys
from collections import defaultdict
from time import perf_counter

from gsadmm.model import L1, Free

# Entry points whose time makes up the end-to-end metrics. Every timed pass
# runs under at least these wrappers (a few hundred calls per pass).
ENTRY_TARGETS = (
    "engine.solve",
    "diagnostics.pointwise_residual_check",
    "diagnostics.nonergodic_check",
    "diagnostics.rate_constants",
    "diagnostics.linear_rate_check",
)

# The traced run adds one wrapper per layer boundary inside the package.
LAYER_TARGETS = ENTRY_TARGETS + (
    "generators.standard_catalog",
    "generators.gen_quadratic",
    "generators.gen_l1",
    "generators.gen_box_qp",
    "structure.assemble",
    "engine.step",
    "engine.x_group_update",
    "engine.half_dual_update",
    "engine.y_group_update",
    "engine.full_dual_update",
    "engine.predict",
    "engine.d_components",
    "engine.prox_solve",
    "diagnostics.error_bound_check",
    "harness.io.write_atlas_csv",
)

VERDICT = frozenset(t for t in ENTRY_TARGETS if t.startswith("diagnostics."))
GENERATORS = frozenset(t for t in LAYER_TARGETS if t.startswith("generators."))
STEP_PARTS = {
    "engine.x_group_update": "engine.x_sweep_us",
    "engine.half_dual_update": "engine.half_dual_us",
    "engine.y_group_update": "engine.y_sweep_us",
    "engine.full_dual_update": "engine.full_dual_us",
    "engine.predict": "engine.predict_us",
}


def _prox_kind(args, _result) -> str:
    """free_quadratic, l1 or box, from the public ProxQuery fields."""
    query = args[0]
    if isinstance(query.objective, L1):
        kind = "l1"
    elif isinstance(query.set, Free):
        kind = "free_quadratic"
    else:
        kind = "box"
    return f"{kind}.d{query.dim}"


def _solve_outcome(_args, result) -> tuple[str, int]:
    return result.termination, len(result.records)


def _fitted_iterations(args, _result) -> int:
    return len(args[1].records)  # linear_rate_check(mats, trace, ...)


TAGGERS = {
    "engine.prox_solve": _prox_kind,
    "engine.solve": _solve_outcome,
    "diagnostics.linear_rate_check": _fitted_iterations,
}


class Tracer:
    """Context manager that wraps `targets` ("module.attr" under gsadmm)."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        for target in self.targets:
            mod_name, _, attr = target.rpartition(".")
            try:
                module = importlib.import_module(f"gsadmm.{mod_name}")
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(target)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(target, fn, TAGGERS.get(target)))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn, tagger):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                spans[idx] = (name, start, perf_counter(), parent, f"raised.{type(exc).__name__}")
                raise
            finally:
                stack.pop()
            # the end is read before the tag is computed
            spans[idx] = (name, start, perf_counter(), parent, tagger and tagger(args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def memory_mb(self) -> float:
        """Bytes held by the span list, its tuples and their numbers."""
        total = sys.getsizeof(self.spans)
        for span in self.spans:
            total += sum(map(sys.getsizeof, span[1:4])) + sys.getsizeof(span)
        return total / 2**20


def _top_level(spans, names):
    """Spans named in `names` whose parent is not also named in `names`."""
    for span in spans:
        if span[0] in names and (span[3] < 0 or spans[span[3]][0] not in names):
            yield span


def entry_metrics(spans) -> dict:
    """solve_s, per-solve microseconds per iteration, and the post-hoc
    verdict: seconds, and the iterations of the traces it judged (each
    judged trace gets one linear_rate_check)."""
    solve_s = 0.0
    iter_us = []
    judged = 0
    for name, start, end, _parent, tag in spans:
        if name == "engine.solve":
            solve_s += end - start
            if isinstance(tag, tuple) and tag[1]:
                iter_us.append((end - start) * 1e6 / tag[1])
        elif name == "diagnostics.linear_rate_check" and isinstance(tag, int):
            judged += tag
    verdict_s = sum(end - start for _, start, end, _, _ in _top_level(spans, VERDICT))
    return {"solve_s": solve_s, "iter_us": iter_us, "verdict_s": verdict_s, "judged": judged}


def layer_metrics(setup_spans, spans) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of a traced set-up and one traced pass.

    Totals are per pass (`_s`, `_ms`, counts) and times ending in `_us` are
    means per call. The first dict maps each metric every workload produces
    to (value, unit); the second holds (value, unit, calls) breakdowns that exist
    only on some workloads: oracle kind and block dimension, the pointwise
    check and the atlas harness.
    """
    children_s: dict[int, float] = defaultdict(float)
    d_child_s: dict[int, float] = defaultdict(float)
    for name, start, end, parent, _tag in spans:
        if parent >= 0:
            children_s[parent] += end - start
            if name == "engine.d_components":
                d_child_s[parent] += end - start

    total = defaultdict(float)
    calls = defaultdict(int)
    prox: dict[str, list[float]] = defaultdict(list)
    certify = []
    steps_per_solve: dict[int, int] = defaultdict(int)
    for idx, (name, start, end, parent, tag) in enumerate(spans):
        total[name] += end - start
        calls[name] += 1
        if name == "engine.prox_solve" and not tag.startswith("raised."):
            prox[tag].append(end - start)
        elif name == "engine.step":
            steps_per_solve[parent] += 1
            # the step minus the four updates and the prediction: identity
            # check, H/G quadratic forms, the d vector and feasibility
            certify.append(end - start - children_s[idx] + d_child_s[idx])

    solves = [idx for idx, span in enumerate(spans) if span[0] == "engine.solve"]
    converged = [idx for idx in solves
                 if isinstance(spans[idx][4], tuple) and spans[idx][4][0] == "converged"]
    iterations = sum(steps_per_solve.values())
    wasted = iterations - sum(steps_per_solve[idx] for idx in converged)

    assembles = [end - start for name, start, end, _, _ in setup_spans + spans
                 if name == "structure.assemble"]

    def mean_us(durations):
        return statistics.fmean(durations) * 1e6 if durations else 0.0

    def per_call_us(name):
        return total[name] * 1e6 / calls[name] if calls[name] else 0.0

    def kind(prefix):
        return [d for tag, durs in prox.items() if tag.startswith(prefix) for d in durs]

    metrics = {
        "generators.gen_s": (sum(end - start for _, start, end, _, _ in _top_level(setup_spans, GENERATORS)), "s"),
        "structure.assemble_us": (mean_us(assembles), "us"),
        "engine.solves": (calls["engine.solve"], "count"),
        "engine.iterations": (iterations, "count"),
        "engine.cap_iter_share": (wasted / iterations if iterations else 0.0, "ratio"),
        "engine.step_us": (per_call_us("engine.step"), "us"),
        **{metric: (per_call_us(name), "us") for name, metric in STEP_PARTS.items()},
        "engine.certify_us": (mean_us(certify), "us"),
        "oracles.prox_calls": (calls["engine.prox_solve"], "count"),
        "oracles.prox_share": (total["engine.prox_solve"] / total["engine.solve"] if calls["engine.solve"] else 0.0,
                               "ratio"),
        "oracles.prox_us.free_quadratic": (mean_us(kind("free_quadratic.")), "us"),
        "diagnostics.d_components_us": (per_call_us("engine.d_components"), "us"),
        "diagnostics.nonergodic_s": (total["diagnostics.nonergodic_check"], "s"),
        "diagnostics.error_bound_s": (total["diagnostics.error_bound_check"], "s"),
        "diagnostics.linear_rate_s": (total["diagnostics.linear_rate_check"], "s"),
    }

    extras = {}
    for prefix in ("box.", "l1."):
        durs = kind(prefix)
        if durs:
            extras[f"oracles.prox_us.{prefix[:-1]}"] = (mean_us(durs), "us", len(durs))
    for tag in sorted(prox):
        extras[f"oracles.prox_us.{tag}"] = (mean_us(prox[tag]), "us", len(prox[tag]))
    name = "diagnostics.pointwise_residual_check"
    if calls[name]:
        extras["diagnostics.pointwise_s"] = (total[name], "s", calls[name])
    name = "harness.io.write_atlas_csv"
    if calls[name]:
        extras["harness.io_write_ms"] = (total[name] * 1e3, "ms", calls[name])
        extras["harness.atlas_useful_frac"] = (len(converged) / len(solves) if solves else 0.0,
                                               "ratio", len(solves))
    return metrics, extras

"""Span tracing of the solvflow layers, applied from outside the package.

``instrument(tracer)`` replaces every public function of the solvflow
modules, and the public methods of their public classes, by a wrapper that
records a span; it also wraps the ``scipy.integrate.solve_ivp`` boundary
that ``solvflow.flow`` calls.  Leaving the context restores the originals.
Spans stay in memory until the run ends.

A span is named ``<layer>.<qualified name>``; the layer is the solvflow
module, ``solver`` for the scipy boundary and ``bench`` for the operation
spans the benchmark opens itself.  Private helpers are not wrapped, so the
right-hand side evaluated inside the solver is part of the solver's span.
"""
from __future__ import annotations

import enum
import functools
import importlib
import inspect
import math
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

LAYERS = ("verify", "flow", "curvature", "catalog", "liecore", "invariants", "asymptotics")
SOLVER = "solver"
BENCH = "bench"
SOLVE_IVP = f"{SOLVER}.solve_ivp"


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one thread; ``run`` tags the spans of one
    benchmark operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run = 0

    def open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, perf_counter(), math.nan, parent, self.run))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {span.name} closed out of order")
        return span


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans of one thread nest, so the children of a span never overlap and
    the time they cover is the sum of their durations."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def ancestor(spans: list[Span], idx: int, name: str) -> Span | None:
    """Nearest enclosing span called ``name``."""
    parent = spans[idx].parent
    while parent is not None:
        if spans[parent].name == name:
            return spans[parent]
        parent = spans[parent].parent
    return None


def span_cost_s(calls: int = 10000, repeats: int = 5) -> float:
    """Seconds one traced call adds to the bare call, on a no-op: the median
    over ``repeats`` blocks of ``calls`` calls each."""
    def noop():
        return None

    blocks = []
    for _ in range(repeats):
        traced = _traced(Tracer(), "bench.noop", BENCH, noop)
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            traced()
        blocks.append((perf_counter() - t1 - (t1 - t0)) / calls)
    return statistics.median(blocks)


def _traced(tracer: Tracer, name: str, layer: str, fn, probe=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(idx).attrs["error"] = True
            raise
        span = tracer.close(idx)
        if probe is not None:
            span.attrs.update(probe(args, kwargs, result))
        return result

    return wrapper


def _probes(modules: dict) -> dict:
    """Counters read at the boundaries where the work happens, keyed by
    span name.  They call the unwrapped functions, so they open no spans."""
    catalog, invariants = modules["catalog"], modules["invariants"]
    classify_case = catalog.classify_case
    detect_signature = inspect.signature(invariants.detect_monomials)

    def integrate(args, kwargs, traj):
        problem = args[0] if args else kwargs["problem"]
        generic = (problem.model is catalog.ModelId.D11
                   and classify_case(problem.model, problem.initial) == "case2")
        return {
            "model": problem.model.value if problem.model is not None else None,
            "regime": "d11_generic" if generic else "nonstiff",
            "samples": len(traj),
            "truncated": bool(traj.times[-1] < problem.t_end),
        }

    def solve_ivp(args, kwargs, sol):
        return {"nfev": int(sol.nfev), "njev": int(sol.njev), "nlu": int(sol.nlu)}

    def detect(args, kwargs, found):
        bound = detect_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        attrs = {"found": len(found)}
        max_exp = bound.arguments.get("max_exp")
        if max_exp is not None:  # the enumeration box tests (2m+1)^5 vectors
            attrs["candidates"] = (2 * int(max_exp) + 1) ** 5
        return attrs

    return {
        "flow.integrate": integrate,
        SOLVE_IVP: solve_ivp,
        "invariants.detect_monomials": detect,
    }


@dataclass
class Instrumented:
    patched: int  # module and class attributes replaced
    solver_boundary: bool


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the public solvflow API and the solver boundary for the duration
    of the context.  Yields an :class:`Instrumented` summary."""
    import scipy.integrate

    modules = {name: importlib.import_module(f"solvflow.{name}") for name in LAYERS}
    probes = _probes(modules)
    by_id: dict[int, object] = {}  # id(original) -> wrapper
    patches: list[tuple[object, str, object]] = []  # (owner, attribute, original)
    for layer, mod in modules.items():
        for public in getattr(mod, "__all__", ()):
            obj = getattr(mod, public, None)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{layer}.{obj.__name__}"
                by_id[id(obj)] = _traced(tracer, name, layer, obj, probes.get(name))
            elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                for attr, raw in list(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    name = f"{layer}.{obj.__name__}.{attr}"
                    if isinstance(raw, (classmethod, staticmethod)):
                        wrapped = type(raw)(_traced(tracer, name, layer, raw.__func__))
                    elif inspect.isfunction(raw):
                        wrapped = _traced(tracer, name, layer, raw)
                    else:
                        continue
                    patches.append((obj, attr, raw))
                    setattr(obj, attr, wrapped)

    flow = modules["flow"]
    solver_boundary = getattr(flow, "solve_ivp", None) is scipy.integrate.solve_ivp
    if solver_boundary:
        by_id[id(flow.solve_ivp)] = _traced(
            tracer, SOLVE_IVP, SOLVER, flow.solve_ivp, probes[SOLVE_IVP])

    package = importlib.import_module("solvflow")
    for mod in (package, *modules.values()):
        for attr, value in list(vars(mod).items()):
            wrapper = by_id.get(id(value))
            if wrapper is not None:
                patches.append((mod, attr, value))
                setattr(mod, attr, wrapper)
    try:
        yield Instrumented(patched=len(patches), solver_boundary=solver_boundary)
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

"""Span tracing of hyperspec's public functions, from outside the package.

``Tracer.install`` replaces each target function with a wrapper that records
a span (name, start, end, parent span, thread id) and optional counts.  The
wrapper is installed wherever the original object is bound: on its class for
methods, and in every loaded ``hyperspec`` module that imported a function by
name.  Spans stay in memory until the run writes them out.

The CLI runs a thread pool, so a worker thread's outermost span has no parent
on its own stack; it is adopted by the innermost span open on the main
thread, which is blocked waiting for the pool.  Spans record wall-clock start
and end, the thread's CPU clock and the process's CPU clock.  Self time is
taken on the CPU clocks: the pool threads contend for the interpreter lock,
so their wall-clock spans include time spent waiting for the other thread,
and summing those would charge the same second to a layer twice.  A span
that adopted children from other threads is charged the process's CPU time
over its extent, so the pool threads' work outside every traced call (witness
building, selection, the pool itself) stays in that span's self time; any
other span is charged its own thread's CPU time.  Self time is that charge
minus the children's CPU time on the same clock: their own charges under a
process-clock span, their thread's CPU time under a thread-clock span.  This
relies on one job running at a time, with the main thread blocked while its
pool runs.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable


class Span:
    __slots__ = (
        "name", "start", "end", "cpu_start", "cpu_end", "proc_start", "proc_end",
        "parent", "thread", "counts",
    )

    def __init__(self, name: str, parent: "Span | None", thread: int):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.counts: dict[str, int] | None = None
        self.start = time.perf_counter()
        self.proc_start = time.process_time()
        self.cpu_start = time.thread_time()
        self.end = self.start
        self.cpu_end = self.cpu_start
        self.proc_end = self.proc_start

    def close(self) -> None:
        self.cpu_end = time.thread_time()
        self.proc_end = time.process_time()
        self.end = time.perf_counter()


def _count_subsets(args, kwargs, result):
    items = list(result)
    return iter(items), {"subsets": len(items)}


def _count_rows(args, kwargs, result):
    return result, {"rows": len(result.rows)}


def _count_spectrum_set(args, kwargs, result):
    return result, {"values_out": len(args[0].values)}


def _spectrum_set_inputs(args, kwargs):
    """Materialise SpectrumSet's input so its length can be counted."""
    if "values" in kwargs:
        values = kwargs["values"] = list(kwargs["values"])
    else:
        values = list(args[1])
        args = (args[0], values) + tuple(args[2:])
    return args, kwargs, {"values_in": len(values)}


# (module, qualified name, count hook, argument hook).  The span of a target is
# named "<module>.<qualified name>"; SpectrumSet is traced through __init__.
TARGETS: tuple[tuple[str, str, Callable | None, Callable | None], ...] = (
    ("cli", "main", None, None),
    ("graphs", "connected_subsets", _count_subsets, None),
    ("graphs", "LoopedGraph.modified_induced_subgraph", None, None),
    ("reduction", "reduced_matrix", None, None),
    ("reduction", "spectrum_power", None, None),
    ("reduction", "h_spectrum_power", None, None),
    ("reduction", "rho_power", None, None),
    ("linalg", "eig_complex_pairs", None, None),
    ("linalg", "eig_real_symmetric", None, None),
    ("linalg", "SpectrumSet.__init__", _count_spectrum_set, _spectrum_set_inputs),
    ("linalg", "power_iteration_nonneg", None, None),
    ("tensors", "TensorOperator.apply", None, None),
    ("tensors", "nqz_power_iteration", None, None),
    ("tensors", "eig_residual", None, None),
    ("tensors", "verify_diagonal_similarity", None, None),
    ("hypergraphs", "odd_bipartition", None, None),
    ("hypergraphs", "generalized_power", None, None),
    ("gauge", "solve_mod_m", None, None),
    ("gauge", "build_similarity_system", _count_rows, None),
)


# Counts reported beside calls and self time.  All but "applies" come from the
# hooks above; "applies" counts TensorOperator.apply spans whose parent is the
# NQZ solver, one per iteration.
COUNTS = {
    "graphs.connected_subsets": ("subsets",),
    "linalg.SpectrumSet": ("values_in", "values_out"),
    "gauge.build_similarity_system": ("rows",),
    "tensors.nqz_power_iteration": ("applies",),
}


def span_name(module: str, qualname: str) -> str:
    # graphs.LoopedGraph.modified_induced_subgraph -> graphs.modified_induced_subgraph
    # linalg.SpectrumSet.__init__ -> linalg.SpectrumSet
    owner, _, attr = qualname.rpartition(".")
    if attr == "__init__":
        return f"{module}.{owner}"
    if owner == "LoopedGraph":
        return f"{module}.{attr}"
    return f"{module}.{qualname}"


PACKAGE = "hyperspec"


class Tracer:
    """Installs span-recording wrappers; ``enabled`` switches recording on."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.absent: list[str] = []
        self.names: list[str] = []
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable, count, prepare) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            counts = None
            if prepare is not None:
                args, kwargs, counts = prepare(args, kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            span = Span(name, parent, threading.get_ident())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    result, more = count(args, kwargs, result)
                    counts = {**(counts or {}), **more}
                return result
            finally:
                span.close()
                span.counts = counts
                stack.pop()
                tracer.spans.append(span)

        return traced

    def install(self) -> None:
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for module_name, qualname, count, prepare in TARGETS:
            name = span_name(module_name, qualname)
            self.names.append(name)
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, count, prepare)
            if path:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self CPU time of every span, keyed by ``id(span)`` (see the module notes)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)

    def on_process_clock(span: Span) -> bool:
        return any(child.thread != span.thread for child in children.get(id(span), ()))

    def charge(span: Span, process_clock: bool) -> float:
        if process_clock:
            return span.proc_end - span.proc_start
        return span.cpu_end - span.cpu_start

    own = {}
    for span in spans:
        process_clock = on_process_clock(span)
        own[id(span)] = charge(span, process_clock) - sum(
            # Under a thread-clock parent, a child's pool threads are not the parent's.
            charge(child, process_clock and on_process_clock(child))
            for child in children.get(id(span), ())
        )
    return own

"""Stage tracer for the freedeconv benchmark.

The tracer times the package's stage functions from outside.  For every
stage name it finds the function object that a ``freedeconv`` module
defines under that name, then replaces every attribute of every loaded
``freedeconv`` module that *is* that object.  Re-exports are therefore
traced as well: ``pipeline.critical_points`` is the same object as
``inversion.critical_points``, and both names get the wrapper.

Each call records a span (name, start, end, parent span, run id) in
memory; the caller writes the spans out when the run ends.  Leaving the
``with`` block puts the original objects back; a tracer may be entered
again, and its spans accumulate.  A stage that no module defines any more
is listed in ``missing`` and simply records no spans, so a refactor that
removes or renames a stage does not crash the run.

A stage may carry a hook: ``hook(bound_arguments)`` is called before the
stage runs and returns ``finish(result) -> dict``, whose entries are stored
as the span's ``counts``.  Hooks see arguments by name, so they keep
working when callers switch between positional and keyword arguments.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "freedeconv"

Hook = Callable[[inspect.BoundArguments], Callable[[object], dict]]


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    run_id: int | None
    end: float = float("nan")
    error: str = ""  # class name of an exception that left the stage
    stage: str = ""  # its NumericalError.stage, when it has one
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None
        and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _defined_functions(modules: list, name: str) -> list:
    """Distinct callables named `name` that a package module defines."""
    found = {}
    for mod in modules:
        obj = vars(mod).get(name)
        if callable(obj) and str(getattr(obj, "__module__", "")).startswith(
            PACKAGE
        ):
            found[id(obj)] = obj
    return list(found.values())


class Tracer:
    """Context manager that wraps the named stages while it is active."""

    def __init__(self, stages: dict[str, Hook | None]):
        self.stages = dict(stages)
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.run_id: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def __enter__(self) -> "Tracer":
        modules = _package_modules()
        self.missing = []
        for name, hook in self.stages.items():
            originals = _defined_functions(modules, name)
            if not originals:
                self.missing.append(name)
            for orig in originals:
                wrapper = self._wrap(name, orig, hook)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _wrap(self, name: str, fn, hook: Hook | None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            finish = None
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                finish = hook(bound)
            span = Span(
                name,
                start=0.0,
                parent=self._stack[-1] if self._stack else None,
                run_id=self.run_id,
            )
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                span.stage = str(getattr(exc, "stage", "") or "")
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if finish is not None:
                span.counts = finish(result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(i, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.duration - covered)
    return out

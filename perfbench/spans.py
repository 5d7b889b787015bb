"""Span tracing for the benchmark's traced run.

The benchmark wraps public package functions at every module binding
(``verifier`` imports ``gf2.mat_mul`` by name, for example), so that
calls made inside the package are seen too.  Spans are kept in memory
during the timed operations and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter

OP = "op"  # root span of one timed operation


class Tracer:
    """Records spans as [name, start, end, parent index, operation id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op: int | None = None

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._open(OP)

    def end_op(self) -> None:
        self._close()
        self._op = None

    def _open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, parent, self._op])

    def _close(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter()

    def wrap(self, name: str, fn, counter=None):
        """Wrapper recording a span per call while an operation is open.

        *counter(args, kwargs, result)* returns counts to add under
        their own names.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if counter is not None:
                self.counts.update(counter(args, kwargs, result))
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )


def install(tracer: Tracer, modules: dict, targets: dict) -> list[str]:
    """Wrap each ``"module.function"`` target at every binding in *modules*.

    *targets* maps the target name to its counter, or None.  Names absent
    from the package are skipped; the installed ones are returned.
    """
    installed = []
    for target, counter in targets.items():
        mod_name, attr = target.split(".")
        original = getattr(modules.get(mod_name), attr, None)
        if not callable(original):
            continue
        wrapper = tracer.wrap(target, original, counter)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
        installed.append(target)
    return installed


def self_times(spans: list[list]) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, total self time).

    Self time is a span's duration minus the durations of its direct
    children; calls in one thread nest, so children never overlap.
    """
    child_total = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_total[parent] += end - start
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_total[i]
    return {name: (calls[name], self_s[name]) for name in calls}


def calls_under(spans: list[list], ancestor: str, name: str) -> int:
    """Number of *name* spans that have an *ancestor* span above them."""
    # Spans are appended when they open, so a parent precedes its children.
    under = [False] * len(spans)
    count = 0
    for i, (span_name, _, _, parent, _) in enumerate(spans):
        under[i] = parent is not None and (under[parent] or spans[parent][0] == ancestor)
        if under[i] and span_name == name:
            count += 1
    return count

"""Spans recorded from outside the program, around calls into its modules.

A span is (name, start, end, parent, workload, repetition).  Spans stay
in memory and are written as JSON lines once the run is over.  Start and
end are CPU seconds of the process (`time.process_time`), the clock of
every timing in the benchmark.  While an
`intercept` block is active, every gmodelc module attribute that refers to
one of the chosen public functions is replaced by a recording wrapper, so
calls the program makes internally (`cli.main` calling
`load_matrix_market`, `load_matrix_market` calling `CsrMatrix.validate`)
are recorded too.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.repetition = ""
        self.spans: list[list] = []     # [name, start, end, parent index, repetition]
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, 0.0, 0.0, parent, self.repetition]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.process_time()
        try:
            yield
        finally:
            record[2] = time.process_time()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def intercept(self, targets: dict[str, tuple[object, str]]):
        """Record every call to owner.attr, for each name -> (owner, attr).

        Rebinds the attribute on its owner and on every loaded gmodelc
        module that imported it by name; restores all of them on exit.
        """
        undo: list[tuple[object, str, object]] = []
        wrappers = {}           # id of the original function -> its wrapper
        for name, (owner, attr) in targets.items():
            fn = getattr(owner, attr)
            wrappers[id(fn)] = self._wrap(name, fn)
            undo.append((owner, attr, fn))
        modules = [m for key, m in list(sys.modules.items())
                   if key == "gmodelc" or key.startswith("gmodelc.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    undo.append((module, attr, value))
        try:
            for owner, attr, value in undo:
                setattr(owner, attr, wrappers[id(value)])
            yield
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def self_times(self, repetition: str) -> dict[str, float]:
        """Per span name, the summed duration minus the time of direct children."""
        totals: dict[str, float] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, rep in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (name, start, end, parent, rep) in enumerate(self.spans):
            if rep == repetition:
                totals[name] = totals.get(name, 0.0) + (end - start - child_time[i])
        return totals

    def write_jsonl(self, path: str):
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent, rep) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "parent": parent, "workload": self.workload,
                                    "repetition": rep}) + "\n")

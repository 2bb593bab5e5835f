"""In-memory spans around the benchmark's calls into the program.

A span has a name, a start and an end (``perf_counter`` seconds), the id
of the span it was opened inside, and the id of the operation it belongs
to.  Spans stay in memory until the run ends; ``self_times`` turns them
into per-operation busy time per span name.
"""

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, enabled=True):
        self.enabled = enabled
        self.spans = []
        self._stack = []
        self._run = None

    def start_run(self, run_id):
        self._run = run_id

    @contextmanager
    def span(self, name, **attrs):
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        record = {"id": span_id, "name": name, "parent": self._stack[-1] if self._stack else None,
                  "run": self._run, **attrs}
        self.spans.append(record)
        self._stack.append(span_id)
        record["start"] = perf_counter()
        try:
            yield
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


def self_times(spans):
    """{run: {name: seconds}}: each span's duration minus its children's."""
    child_time = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + span["end"] - span["start"]
    out = {}
    for span in spans:
        own = span["end"] - span["start"] - child_time.get(span["id"], 0.0)
        per_run = out.setdefault(span["run"], {})
        per_run[span["name"]] = per_run.get(span["name"], 0.0) + own
    return out


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as out:
        for span in spans:
            out.write(json.dumps(span) + "\n")
